//! The Irregular-Grid congestion model (§4) — the paper's contribution.
//!
//! Instead of a uniform evaluation grid, the chip is partitioned by the
//! cutting lines that the nets' routing ranges induce (plus the chip
//! boundary). Each resulting IR-grid is scored with a *single*
//! constant-time probability evaluation per net (Theorem 1) rather than
//! one evaluation per covered unit cell, concentrating work exactly where
//! routing ranges — and hence congestion — overlap.
//!
//! One engine scores every path: [`IrDeltaEvaluator`]. A one-shot
//! [`CongestionModel::evaluate`] or [`IrregularGridModel::congestion_map`]
//! is a fresh session's `rebase`, so it equals an incremental `propose`
//! of the same floorplan bit for bit.

mod approx;
mod cutlines;
mod delta;
mod exact;

pub use approx::{block_probability_approx, function1_approx, function1_exact, ApproxConfig};
pub use delta::IrDeltaEvaluator;
pub use exact::block_probability_exact;

use irgrid_geom::{Point, Rect, Um};

use crate::score::top_area_fraction_mean;
use crate::{CongestionModel, DeltaCongestionSession};

/// Which evaluator scores a (non-pin, non-corridor) IR-grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evaluator {
    /// Theorem 1 normal approximation — the paper's production path,
    /// O(1) per IR-grid. Exit integrals use the closed-form `ExitCdf`;
    /// extreme exit rows, where it degenerates, fall back to Simpson.
    Approximate,
    /// Formula 3 exact sums — O(block perimeter) per IR-grid. Kept for
    /// the accuracy ablation.
    Exact,
}

/// The Irregular-Grid congestion model.
///
/// # Examples
///
/// ```
/// use irgrid_core::{CongestionModel, IrregularGridModel};
/// use irgrid_geom::{Point, Rect, Um};
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(600), Um(600));
/// let segments = vec![
///     (Point::new(Um(90), Um(90)), Point::new(Um(510), Um(510))),
///     (Point::new(Um(90), Um(510)), Point::new(Um(510), Um(90))),
/// ];
/// let model = IrregularGridModel::new(Um(30));
/// let map = model.congestion_map(&chip, &segments);
/// assert!(map.ir_cell_count() > 1);
/// assert!(model.evaluate(&chip, &segments) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrregularGridModel {
    pitch: Um,
    evaluator: Evaluator,
    approx: ApproxConfig,
    merge_lines: bool,
    /// Ranges with `g1 + g2` below this are scored with Formula 3 even in
    /// approximate mode: the normal transformation needs `g1 + g2 > 4`
    /// and only pays off on larger ranges anyway.
    exact_threshold: i64,
    top_fraction_permille: u32,
}

impl IrregularGridModel {
    /// Creates the model with the paper's defaults: Theorem 1 evaluation,
    /// cutting-line merging at twice the pitch, top-10 % scoring.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn new(pitch: Um) -> IrregularGridModel {
        assert!(pitch > Um::ZERO, "grid pitch must be positive, got {pitch}");
        IrregularGridModel {
            pitch,
            evaluator: Evaluator::Approximate,
            approx: ApproxConfig::default(),
            merge_lines: true,
            exact_threshold: 10,
            top_fraction_permille: 100,
        }
    }

    /// Switches the per-IR-grid evaluator (ablation).
    #[must_use]
    pub fn with_evaluator(mut self, evaluator: Evaluator) -> IrregularGridModel {
        self.evaluator = evaluator;
        self
    }

    /// Overrides the Simpson/continuity configuration (ablation). The
    /// Simpson intervals only reach the extreme exit rows that fall back
    /// to quadrature.
    #[must_use]
    pub fn with_approx_config(mut self, config: ApproxConfig) -> IrregularGridModel {
        self.approx = config;
        self
    }

    /// Disables Algorithm step 2's close-line merging (ablation). Lines
    /// are still deduplicated.
    #[must_use]
    pub fn without_line_merging(mut self) -> IrregularGridModel {
        self.merge_lines = false;
        self
    }

    /// Overrides the scoring fraction (default 10 %).
    ///
    /// # Panics
    ///
    /// Panics if `permille` is 0 or greater than 1000.
    #[must_use]
    pub fn with_top_fraction_permille(mut self, permille: u32) -> IrregularGridModel {
        assert!(
            permille > 0 && permille <= 1000,
            "permille must be in 1..=1000, got {permille}"
        );
        self.top_fraction_permille = permille;
        self
    }

    /// The unit-grid pitch.
    #[must_use]
    pub fn pitch(&self) -> Um {
        self.pitch
    }

    /// Computes the Irregular-Grid congestion map of a floorplan: a
    /// fresh [`IrDeltaEvaluator`]'s map after one `rebase`. Its
    /// [`cost`](IrCongestionMap::cost) equals
    /// [`evaluate`](CongestionModel::evaluate) bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is degenerate or not at the origin.
    #[must_use]
    pub fn congestion_map(&self, chip: &Rect, segments: &[(Point, Point)]) -> IrCongestionMap {
        let mut session = IrDeltaEvaluator::new(*self);
        session.rebase(chip, segments);
        session.congestion_map()
    }
}

impl CongestionModel for IrregularGridModel {
    /// A fresh [`IrDeltaEvaluator`]'s `rebase`.
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        IrDeltaEvaluator::new(*self).rebase(chip, segments)
    }

    fn name(&self) -> String {
        format!("irregular-grid {}", self.pitch)
    }
}

impl crate::DeltaCongestion for IrregularGridModel {
    type DeltaSession = IrDeltaEvaluator;

    fn delta_session(&self) -> IrDeltaEvaluator {
        IrDeltaEvaluator::new(*self)
    }
}

/// The per-IR-grid congestion produced by [`IrregularGridModel`].
///
/// Cell `(i, j)` spans unit-cell columns `x_cuts[i]..x_cuts[i+1]` and rows
/// `y_cuts[j]..y_cuts[j+1]`. Densities are expressed per *unit cell*
/// (pitch² of area), making them comparable with the fixed-grid model's
/// per-cell values.
#[derive(Debug, Clone)]
pub struct IrCongestionMap {
    pitch: Um,
    x_cuts: Vec<i64>,
    y_cuts: Vec<i64>,
    totals: Vec<f64>,
    top_fraction: f64,
}

impl IrCongestionMap {
    /// Vertical cut positions in unit cells (first 0, last = grid
    /// columns).
    #[must_use]
    pub fn x_cuts(&self) -> &[i64] {
        &self.x_cuts
    }

    /// Horizontal cut positions in unit cells.
    #[must_use]
    pub fn y_cuts(&self) -> &[i64] {
        &self.y_cuts
    }

    /// Number of IR-grid columns.
    #[must_use]
    pub fn ir_cols(&self) -> usize {
        self.x_cuts.len() - 1
    }

    /// Number of IR-grid rows.
    #[must_use]
    pub fn ir_rows(&self) -> usize {
        self.y_cuts.len() - 1
    }

    /// Total IR-grid count — the paper's "# of IR-grid" (Table 4).
    #[must_use]
    pub fn ir_cell_count(&self) -> usize {
        self.totals.len()
    }

    /// The summed crossing probability `F(I)` of IR-grid `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    #[must_use]
    pub fn total(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.ir_cols() && j < self.ir_rows(),
            "IR cell ({i},{j}) out of range"
        );
        self.totals[j * self.ir_cols() + i]
    }

    /// Area of IR-grid `(i, j)` in unit cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    #[must_use]
    pub fn area_cells(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.ir_cols() && j < self.ir_rows(),
            "IR cell ({i},{j}) out of range"
        );
        ((self.x_cuts[i + 1] - self.x_cuts[i]) * (self.y_cuts[j + 1] - self.y_cuts[j])) as f64
    }

    /// Congestion density of IR-grid `(i, j)`: `F(I)` divided by its area
    /// in unit cells (§4.3 — "the congestion cost of every area unit").
    #[must_use]
    pub fn density(&self, i: usize, j: usize) -> f64 {
        self.total(i, j) / self.area_cells(i, j)
    }

    /// The µm rectangle of IR-grid `(i, j)`.
    #[must_use]
    pub fn cell_rect(&self, i: usize, j: usize) -> Rect {
        let p = self.pitch;
        Rect::new(
            Point::new(p * self.x_cuts[i], p * self.y_cuts[j]),
            Point::new(p * self.x_cuts[i + 1], p * self.y_cuts[j + 1]),
        )
    }

    /// `(density, area-in-unit-cells)` for every IR-grid, row-major.
    #[must_use]
    pub fn density_area_pairs(&self) -> Vec<(f64, f64)> {
        (0..self.ir_rows())
            .flat_map(|j| (0..self.ir_cols()).map(move |i| (i, j)))
            .map(|(i, j)| (self.density(i, j), self.area_cells(i, j)))
            .collect()
    }

    /// The floorplan congestion cost: area-weighted mean density of the
    /// top 10 % (or configured fraction) most congested area units
    /// (Algorithm step 5).
    #[must_use]
    pub fn cost(&self) -> f64 {
        top_area_fraction_mean(&self.density_area_pairs(), self.top_fraction)
    }

    /// The peak IR-grid density.
    #[must_use]
    pub fn peak_density(&self) -> f64 {
        self.density_area_pairs()
            .into_iter()
            .map(|(d, _)| d)
            .fold(0.0, f64::max) // irgrid-lint: allow(D2): max is order-independent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip(w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::ORIGIN, Um(w), Um(h))
    }

    fn pt(x: i64, y: i64) -> Point {
        Point::new(Um(x), Um(y))
    }

    #[test]
    fn cutting_lines_from_ranges() {
        // One diagonal net across the middle: its range boundaries plus
        // the chip boundary form the IR grid.
        let model = IrregularGridModel::new(Um(30));
        let map = model.congestion_map(&chip(900, 900), &[(pt(150, 150), pt(690, 690))]);
        // Cuts at 0, 5, 23+1=24? Pins at cells (5,5) and (23,23):
        // boundaries 5 and 24, chip 0..30.
        assert_eq!(map.x_cuts(), &[0, 5, 24, 30]);
        assert_eq!(map.y_cuts(), &[0, 5, 24, 30]);
        assert_eq!(map.ir_cell_count(), 9);
        // The central IR-grid holds the whole range: probability 1
        // (it contains both pins).
        assert!((map.total(1, 1) - 1.0).abs() < 1e-9);
        // Corners off the range hold nothing.
        assert_eq!(map.total(0, 2), 0.0);
        assert_eq!(map.total(2, 0), 0.0);
    }

    #[test]
    fn mass_conservation_against_fixed_grid() {
        // The IR map's total probability mass cannot exceed the fixed
        // map's mass for the same nets (every IR cell's probability is at
        // most the sum of its unit cells' probabilities) and must be at
        // least the per-net maximum cell probability.
        use crate::FixedGridModel;
        let segments = vec![
            (pt(30, 30), pt(540, 540)),
            (pt(30, 540), pt(540, 30)),
            (pt(120, 60), pt(480, 300)),
        ];
        let ir = IrregularGridModel::new(Um(30)).congestion_map(&chip(600, 600), &segments);
        let fixed = FixedGridModel::new(Um(30)).congestion_map(&chip(600, 600), &segments);
        let ir_mass: f64 = (0..ir.ir_rows())
            .flat_map(|j| (0..ir.ir_cols()).map(move |i| (i, j)))
            .map(|(i, j)| ir.total(i, j))
            .sum();
        assert!(ir_mass > 0.0);
        assert!(
            ir_mass <= fixed.total_mass() + 1e-6,
            "IR mass {ir_mass} exceeds fixed mass {}",
            fixed.total_mass()
        );
        // Each net contributes at least 1 (its pin IR-grids).
        assert!(ir_mass >= segments.len() as f64);
    }

    #[test]
    fn exact_and_approx_agree() {
        let segments = vec![
            (pt(30, 30), pt(840, 600)),
            (pt(60, 750), pt(780, 90)),
            (pt(240, 30), pt(300, 870)),
        ];
        let approx = IrregularGridModel::new(Um(30)).congestion_map(&chip(900, 900), &segments);
        let exact = IrregularGridModel::new(Um(30))
            .with_evaluator(Evaluator::Exact)
            .congestion_map(&chip(900, 900), &segments);
        assert_eq!(approx.ir_cell_count(), exact.ir_cell_count());
        for j in 0..approx.ir_rows() {
            for i in 0..approx.ir_cols() {
                let a = approx.total(i, j);
                let e = exact.total(i, j);
                assert!(
                    (a - e).abs() < 0.1,
                    "IR cell ({i},{j}): approx {a} vs exact {e}"
                );
            }
        }
        let rel = (approx.cost() - exact.cost()).abs() / exact.cost().max(1e-12);
        assert!(rel < 0.1, "costs {} vs {}", approx.cost(), exact.cost());
    }

    #[test]
    fn merging_reduces_cell_count() {
        // Many nets with near-coincident boundaries.
        let segments: Vec<(Point, Point)> = (0..12)
            .map(|i| (pt(30 + i * 33, 30), pt(600 + i * 7, 800)))
            .collect();
        let merged = IrregularGridModel::new(Um(30)).congestion_map(&chip(900, 900), &segments);
        let unmerged = IrregularGridModel::new(Um(30))
            .without_line_merging()
            .congestion_map(&chip(900, 900), &segments);
        assert!(
            merged.ir_cell_count() < unmerged.ir_cell_count(),
            "merged {} vs unmerged {}",
            merged.ir_cell_count(),
            unmerged.ir_cell_count()
        );
        // Interior gaps respect the 2-cell threshold.
        for w in merged.x_cuts()[..merged.x_cuts().len() - 1].windows(2) {
            assert!(w[1] - w[0] >= 2, "gap {} below threshold", w[1] - w[0]);
        }
    }

    #[test]
    fn density_normalizes_by_area() {
        let model = IrregularGridModel::new(Um(30));
        let map = model.congestion_map(&chip(900, 900), &[(pt(150, 150), pt(690, 690))]);
        for j in 0..map.ir_rows() {
            for i in 0..map.ir_cols() {
                let d = map.density(i, j);
                let expected = map.total(i, j) / map.area_cells(i, j);
                assert!((d - expected).abs() < 1e-12);
            }
        }
        // The pin-bearing central cell has the peak density contribution.
        assert!(map.peak_density() > 0.0);
    }

    #[test]
    fn corridor_net_scores_one_per_cell() {
        let model = IrregularGridModel::new(Um(30));
        // Horizontal corridor across the chip.
        let map = model.congestion_map(&chip(900, 300), &[(pt(15, 150), pt(885, 150))]);
        // All IR cells intersecting the corridor row have total >= 1.
        let mass: f64 = (0..map.ir_rows())
            .flat_map(|j| (0..map.ir_cols()).map(move |i| (i, j)))
            .map(|(i, j)| map.total(i, j))
            .sum();
        assert!(mass >= 1.0);
    }

    #[test]
    fn empty_segments_score_zero() {
        let model = IrregularGridModel::new(Um(30));
        assert_eq!(model.evaluate(&chip(300, 300), &[]), 0.0);
        let map = model.congestion_map(&chip(300, 300), &[]);
        assert_eq!(map.ir_cell_count(), 1, "no cuts: the chip is one IR-grid");
    }

    #[test]
    fn stacked_ranges_score_higher_than_spread() {
        // Fifteen 3x3-cell nets: all stacked on one spot vs tiled over
        // half the chip. The spread layout's hot area (135 cells) exceeds
        // the 10% scoring window (90 cells), so concentration must win.
        let model = IrregularGridModel::new(Um(30));
        let hot: Vec<(Point, Point)> = (0..15).map(|_| (pt(300, 300), pt(360, 360))).collect();
        let mut spread = Vec::new();
        for k in 0..5i64 {
            for m in 0..3i64 {
                let (x, y) = (90 + 150 * k, 90 + 150 * m);
                spread.push((pt(x, y), pt(x + 60, y + 60)));
            }
        }
        let hot_cost = model.evaluate(&chip(900, 900), &hot);
        let spread_cost = model.evaluate(&chip(900, 900), &spread);
        assert!(
            hot_cost > spread_cost,
            "hot {hot_cost} must exceed spread {spread_cost}"
        );
        // And the expected magnitudes: stacked mass 15 over the 90-cell
        // window vs uniform density 1/9.
        assert!((hot_cost - 15.0 / 90.0).abs() < 0.02, "hot {hot_cost}");
        assert!(
            (spread_cost - 1.0 / 9.0).abs() < 0.02,
            "spread {spread_cost}"
        );
    }

    #[test]
    fn cell_rect_covers_grid() {
        let model = IrregularGridModel::new(Um(30));
        let map = model.congestion_map(&chip(900, 900), &[(pt(150, 150), pt(690, 690))]);
        let mut area = 0i128;
        for j in 0..map.ir_rows() {
            for i in 0..map.ir_cols() {
                area += map.cell_rect(i, j).area().0;
            }
        }
        assert_eq!(area, 900 * 900);
    }

    #[test]
    fn name_mentions_pitch() {
        assert_eq!(
            IrregularGridModel::new(Um(30)).name(),
            "irregular-grid 30um"
        );
    }

    #[test]
    fn extreme_chip_aspect_ratios() {
        // A chip one cell tall: every range is a corridor.
        let sliver = chip(900, 25);
        let model = IrregularGridModel::new(Um(30));
        let map = model.congestion_map(&sliver, &[(pt(15, 10), pt(885, 10))]);
        assert_eq!(map.ir_rows(), 1);
        let mass: f64 = (0..map.ir_cols()).map(|i| map.total(i, 0)).sum();
        assert!(mass >= 1.0);
        // A chip one cell wide.
        let tower = chip(25, 900);
        let map = model.congestion_map(&tower, &[(pt(10, 15), pt(10, 885))]);
        assert_eq!(map.ir_cols(), 1);
        assert!(map.cost() > 0.0);
    }

    #[test]
    fn chip_smaller_than_pitch() {
        // Chip smaller than one grid cell: a single IR-grid holding the
        // whole world.
        let tiny = chip(20, 20);
        let model = IrregularGridModel::new(Um(30));
        let map = model.congestion_map(&tiny, &[(pt(2, 2), pt(18, 18))]);
        assert_eq!(map.ir_cell_count(), 1);
        assert!((map.total(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_rejected() {
        let _ = IrregularGridModel::new(Um(-1));
    }
}
