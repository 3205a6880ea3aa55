//! The fixed-size-grid probabilistic congestion model (§3).
//!
//! A reimplementation of the model of Sham & Young [4] (probabilistic
//! analysis after Lou et al. [3]): the chip is divided into fixed-size
//! square grids; for every 2-pin net the crossing probability of each grid
//! in its routing range is computed from monotone route counts
//! (Formula 2); per-grid probabilities are summed over nets and the
//! floorplan is scored by the average of the top 10 % most congested
//! grids.
//!
//! With a small pitch (10 µm in the paper) this model doubles as the
//! **judging model** that independently scores solutions produced by any
//! floorplanner (§5).

use irgrid_geom::{Point, Rect, Um};

use crate::num::LnFactorials;
use crate::score::top_fraction_mean;
use crate::{CongestionModel, RoutingRange, UnitGrid};

/// The fixed-size-grid congestion model.
///
/// # Examples
///
/// ```
/// use irgrid_core::{CongestionModel, FixedGridModel};
/// use irgrid_geom::{Point, Rect, Um};
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300));
/// let segments = vec![(Point::new(Um(0), Um(0)), Point::new(Um(270), Um(270)))];
/// let model = FixedGridModel::new(Um(30));
/// let map = model.congestion_map(&chip, &segments);
/// // The corner grids on the net's diagonal are certain to be crossed.
/// assert!((map.value(0, 0) - 1.0).abs() < 1e-9);
/// assert!(model.evaluate(&chip, &segments) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedGridModel {
    pitch: Um,
    top_fraction_permille: u32,
    arithmetic: CellArithmetic,
}

/// How per-cell binomials are evaluated — a timing-fidelity knob for the
/// Table 5 reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellArithmetic {
    /// Amortized: one `ln(n!)` table per map, three lookups per binomial.
    /// This is the fast modern implementation and the default.
    #[default]
    TableLookup,
    /// Era-faithful: every binomial recomputed from `ln_gamma` as the
    /// 2002 baseline describes, with no cross-cell caching. Same results,
    /// ~an order of magnitude slower — used when reproducing the paper's
    /// runtime comparison against the 2004-era baseline.
    PerCellGamma,
}

impl FixedGridModel {
    /// Creates the model with the given grid pitch and the paper's top-10 %
    /// scoring fraction.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn new(pitch: Um) -> FixedGridModel {
        assert!(pitch > Um::ZERO, "grid pitch must be positive, got {pitch}");
        FixedGridModel {
            pitch,
            top_fraction_permille: 100,
            arithmetic: CellArithmetic::TableLookup,
        }
    }

    /// Selects the per-cell arithmetic (see [`CellArithmetic`]).
    #[must_use]
    pub fn with_arithmetic(mut self, arithmetic: CellArithmetic) -> FixedGridModel {
        self.arithmetic = arithmetic;
        self
    }

    /// The paper's judging model: a 10×10 µm² fixed grid (§5).
    #[must_use]
    pub fn judging() -> FixedGridModel {
        FixedGridModel::new(Um(10))
    }

    /// Overrides the scoring fraction (default 10 %).
    ///
    /// # Panics
    ///
    /// Panics if `permille` is 0 or greater than 1000.
    #[must_use]
    pub fn with_top_fraction_permille(mut self, permille: u32) -> FixedGridModel {
        assert!(
            permille > 0 && permille <= 1000,
            "permille must be in 1..=1000, got {permille}"
        );
        self.top_fraction_permille = permille;
        self
    }

    /// The grid pitch.
    #[must_use]
    pub fn pitch(&self) -> Um {
        self.pitch
    }

    /// Computes the full congestion map of a floorplan.
    ///
    /// `segments` are the 2-pin nets after MST decomposition (see
    /// `irgrid_floorplan::two_pin_segments`); pins outside the chip are
    /// clamped to the boundary grid cells.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is degenerate or not at the origin.
    #[must_use]
    pub fn congestion_map(&self, chip: &Rect, segments: &[(Point, Point)]) -> FixedCongestionMap {
        let grid = UnitGrid::new(chip, self.pitch);
        let mut values = vec![0.0f64; grid.cell_count()];
        let cols = grid.cols();

        // irgrid-lint: allow(C1): grid dimensions are positive and far below 2^31
        let max_arg = (grid.cols() + grid.rows() + 2) as usize;
        let lf = LnFactorials::up_to(max_arg);

        for &(a, b) in segments {
            let range = RoutingRange::from_segment(&grid, a, b);
            for y in 0..range.g2() {
                let row_base = (range.y0() + y) * cols + range.x0();
                for x in 0..range.g1() {
                    // irgrid-lint: allow(C1): row-major index, non-negative and < cell_count
                    values[(row_base + x) as usize] += match self.arithmetic {
                        CellArithmetic::TableLookup => range.cell_probability(&lf, x, y),
                        CellArithmetic::PerCellGamma => range.cell_probability_gamma(x, y),
                    };
                }
            }
        }

        FixedCongestionMap {
            grid,
            values,
            top_fraction: f64::from(self.top_fraction_permille) / 1000.0,
        }
    }
}

impl CongestionModel for FixedGridModel {
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.congestion_map(chip, segments).cost()
    }

    fn name(&self) -> String {
        format!("fixed-grid {}x{}", self.pitch, self.pitch)
    }
}

impl crate::DeltaCongestion for FixedGridModel {
    type DeltaSession = crate::StatelessDeltaSession<FixedGridModel>;

    fn delta_session(&self) -> Self::DeltaSession {
        crate::StatelessDeltaSession::new(*self)
    }
}

/// The per-grid congestion values produced by [`FixedGridModel`].
#[derive(Debug, Clone)]
pub struct FixedCongestionMap {
    grid: UnitGrid,
    values: Vec<f64>,
    top_fraction: f64,
}

impl FixedCongestionMap {
    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &UnitGrid {
        &self.grid
    }

    /// The congestion value `f(x, y) = Σᵢ Pᵢ(x, y)` of one grid cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    #[must_use]
    pub fn value(&self, x: i64, y: i64) -> f64 {
        assert!(
            (0..self.grid.cols()).contains(&x) && (0..self.grid.rows()).contains(&y),
            "cell ({x}, {y}) outside {}x{} grid",
            self.grid.cols(),
            self.grid.rows()
        );
        // irgrid-lint: allow(C1): row-major index, asserted in range just above
        self.values[(y * self.grid.cols() + x) as usize]
    }

    /// All cell values in row-major order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of grid cells (reported in Table 5 as "# of grid").
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.values.len()
    }

    /// The floorplan congestion cost: mean of the top 10 % (or configured
    /// fraction) most congested grids.
    #[must_use]
    pub fn cost(&self) -> f64 {
        top_fraction_mean(&self.values, self.top_fraction)
    }

    /// The maximum cell congestion.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max) // irgrid-lint: allow(D2): max is order-independent
    }

    /// Total congestion mass: `Σ f(x, y)`. For one net this equals the
    /// expected number of grids its route crosses, a useful invariant in
    /// tests.
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.values.iter().sum() // irgrid-lint: allow(D2): serial in-order sum over the dense row-major Vec
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
    fn single_diagonal_net() {
        let model = FixedGridModel::new(Um(30));
        let map = model.congestion_map(&chip(300, 300), &[(pt(0, 0), pt(270, 270))]);
        // Pins at cells (0,0) and (9,9): probability 1 at both.
        assert!((map.value(0, 0) - 1.0).abs() < 1e-9);
        assert!((map.value(9, 9) - 1.0).abs() < 1e-9);
        // The anti-diagonal corner is reachable only by the single
        // all-up-then-all-right staircase: probability 1/C(18,9).
        assert!((map.value(0, 9) - 1.0 / 48_620.0).abs() < 1e-12);
        // Center cells are the least certain on their diagonal.
        assert!(map.value(4, 4) < 1.0);
        assert!(map.value(4, 4) > 0.0);
    }

    #[test]
    fn mass_equals_expected_crossed_cells() {
        // For one net, sum over the diagonals: each of the g1+g2-1
        // diagonals contributes exactly 1.
        let model = FixedGridModel::new(Um(30));
        let map = model.congestion_map(&chip(300, 300), &[(pt(0, 0), pt(270, 270))]);
        let expected = (10 + 10 - 1) as f64;
        assert!(
            (map.total_mass() - expected).abs() < 1e-8,
            "mass {} vs {expected}",
            map.total_mass()
        );
    }

    #[test]
    fn superposition_of_nets() {
        let model = FixedGridModel::new(Um(30));
        let seg = (pt(0, 0), pt(270, 270));
        let one = model.congestion_map(&chip(300, 300), &[seg]);
        let two = model.congestion_map(&chip(300, 300), &[seg, seg]);
        for (a, b) in one.values().iter().zip(two.values()) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn type_ii_net_fills_its_corners() {
        let model = FixedGridModel::new(Um(30));
        let map = model.congestion_map(&chip(300, 300), &[(pt(0, 270), pt(270, 0))]);
        assert!((map.value(0, 9) - 1.0).abs() < 1e-9);
        assert!((map.value(9, 0) - 1.0).abs() < 1e-9);
        // The off-pin corners are reachable by exactly one staircase each.
        assert!((map.value(0, 0) - 1.0 / 48_620.0).abs() < 1e-12);
        assert!((map.value(9, 9) - 1.0 / 48_620.0).abs() < 1e-12);
    }

    #[test]
    fn aligned_net_is_a_certain_corridor() {
        let model = FixedGridModel::new(Um(30));
        let map = model.congestion_map(&chip(300, 300), &[(pt(15, 45), pt(255, 45))]);
        for x in 0..9 {
            assert!((map.value(x, 1) - 1.0).abs() < 1e-9, "x = {x}");
        }
        assert_eq!(map.value(0, 0), 0.0);
    }

    #[test]
    fn cost_tracks_concentration() {
        let model = FixedGridModel::new(Um(30));
        // Ten overlapping nets through one corridor vs ten spread nets.
        let hot: Vec<(Point, Point)> = (0..10).map(|_| (pt(15, 45), pt(255, 45))).collect();
        let spread: Vec<(Point, Point)> = (0..10)
            .map(|i| (pt(15, 15 + 30 * i), pt(255, 15 + 30 * i)))
            .collect();
        let hot_cost = model.evaluate(&chip(300, 300), &hot);
        let spread_cost = model.evaluate(&chip(300, 300), &spread);
        assert!(
            hot_cost > spread_cost,
            "hot {hot_cost} must exceed spread {spread_cost}"
        );
    }

    #[test]
    fn empty_segments_score_zero() {
        let model = FixedGridModel::new(Um(30));
        assert_eq!(model.evaluate(&chip(300, 300), &[]), 0.0);
    }

    #[test]
    fn judging_model_pitch() {
        assert_eq!(FixedGridModel::judging().pitch(), Um(10));
    }

    #[test]
    fn pins_outside_chip_are_clamped() {
        let model = FixedGridModel::new(Um(30));
        let map = model.congestion_map(&chip(300, 300), &[(pt(-50, -50), pt(500, 500))]);
        assert!((map.value(0, 0) - 1.0).abs() < 1e-9);
        assert!((map.value(9, 9) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_rejected() {
        let _ = FixedGridModel::new(Um(0));
    }

    #[test]
    fn arithmetic_modes_agree() {
        let chip = chip(600, 600);
        let segments = vec![
            (pt(30, 30), pt(540, 420)),
            (pt(60, 510), pt(480, 90)),
            (pt(120, 150), pt(120, 450)),
        ];
        let table = FixedGridModel::new(Um(30)).congestion_map(&chip, &segments);
        let gamma = FixedGridModel::new(Um(30))
            .with_arithmetic(CellArithmetic::PerCellGamma)
            .congestion_map(&chip, &segments);
        for (a, b) in table.values().iter().zip(gamma.values()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn name_mentions_pitch() {
        assert_eq!(FixedGridModel::new(Um(50)).name(), "fixed-grid 50umx50um");
    }
}
