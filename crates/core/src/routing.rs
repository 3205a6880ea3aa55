//! Discretized routing ranges and the Formula 1/2 route-count machinery.

use irgrid_geom::Point;

use crate::num::LnFactorials;
use crate::UnitGrid;

/// The pin orientation of a 2-pin net (paper §2, figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetType {
    /// One pin is lower-left of the other: in range-local coordinates the
    /// pins sit at `(0, 0)` and `(g1-1, g2-1)`.
    TypeI,
    /// One pin is upper-left of the other: pins at `(0, g2-1)` and
    /// `(g1-1, 0)`.
    TypeII,
}

/// A 2-pin net's routing range, discretized on the unit grid.
///
/// The routing range is the bounding box of the two pins (§2); on the
/// grid it covers `g1 × g2` unit cells whose lower-left cell sits at chip
/// cell `(x0, y0)`. Probabilities are expressed in *local* coordinates
/// `0 <= x < g1`, `0 <= y < g2` with the origin at the range's lower-left
/// cell, exactly as in Definition 1.
///
/// # Examples
///
/// ```
/// use irgrid_core::{NetType, RoutingRange, UnitGrid};
/// use irgrid_geom::{Point, Rect, Um};
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300));
/// let grid = UnitGrid::new(&chip, Um(30));
/// let range = RoutingRange::from_segment(
///     &grid,
///     Point::new(Um(0), Um(240)),
///     Point::new(Um(240), Um(0)),
/// );
/// assert_eq!(range.net_type(), NetType::TypeII);
/// assert_eq!((range.g1(), range.g2()), (9, 9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoutingRange {
    x0: i64,
    y0: i64,
    g1: i64,
    g2: i64,
    net_type: NetType,
}

impl RoutingRange {
    /// Discretizes the segment `a`–`b` on `grid`.
    ///
    /// Degenerate segments (pins in the same cell, row, or column) yield
    /// ranges with `g1 == 1` and/or `g2 == 1`; the probability formulas
    /// handle them uniformly (every cell of a corridor has probability 1).
    #[must_use]
    pub fn from_segment(grid: &UnitGrid, a: Point, b: Point) -> RoutingRange {
        let (ax, ay) = grid.cell_of(a);
        let (bx, by) = grid.cell_of(b);
        let x0 = ax.min(bx);
        let y0 = ay.min(by);
        let g1 = (ax - bx).abs() + 1;
        let g2 = (ay - by).abs() + 1;
        // Type II iff the pins are anti-diagonal: one upper-left of the
        // other. Aligned pins (same row/column) are treated as type I; the
        // two types coincide there.
        let net_type = if (ax - bx) * (ay - by) < 0 {
            NetType::TypeII
        } else {
            NetType::TypeI
        };
        RoutingRange {
            x0,
            y0,
            g1,
            g2,
            net_type,
        }
    }

    /// Builds a range directly from grid-cell coordinates (used by the
    /// Irregular-Grid model after cutting-line merging shifts range
    /// boundaries).
    ///
    /// # Panics
    ///
    /// Panics if `g1` or `g2` is not positive.
    #[must_use]
    pub fn from_cells(x0: i64, y0: i64, g1: i64, g2: i64, net_type: NetType) -> RoutingRange {
        assert!(
            g1 > 0 && g2 > 0,
            "range must cover at least one cell, got {g1}x{g2}"
        );
        RoutingRange {
            x0,
            y0,
            g1,
            g2,
            net_type,
        }
    }

    /// Chip-grid column of the range's leftmost cell.
    #[inline]
    #[must_use]
    pub fn x0(&self) -> i64 {
        self.x0
    }

    /// Chip-grid row of the range's bottom cell.
    #[inline]
    #[must_use]
    pub fn y0(&self) -> i64 {
        self.y0
    }

    /// Number of columns covered (`g1` in the paper).
    #[inline]
    #[must_use]
    pub fn g1(&self) -> i64 {
        self.g1
    }

    /// Number of rows covered (`g2` in the paper).
    #[inline]
    #[must_use]
    pub fn g2(&self) -> i64 {
        self.g2
    }

    /// The net's pin orientation.
    #[inline]
    #[must_use]
    pub fn net_type(&self) -> NetType {
        self.net_type
    }

    /// The two pin cells in local coordinates.
    #[must_use]
    pub fn pin_cells(&self) -> [(i64, i64); 2] {
        match self.net_type {
            NetType::TypeI => [(0, 0), (self.g1 - 1, self.g2 - 1)],
            NetType::TypeII => [(0, self.g2 - 1), (self.g1 - 1, 0)],
        }
    }

    /// Whether local cell `(x, y)` lies inside the range.
    #[inline]
    #[must_use]
    pub fn contains_local(&self, x: i64, y: i64) -> bool {
        (0..self.g1).contains(&x) && (0..self.g2).contains(&y)
    }

    /// `ln Ta(x, y)`: log route count from the first pin to local cell
    /// `(x, y)` (Formula 1); `-inf` outside the range.
    #[must_use]
    pub fn ln_ta(&self, lf: &LnFactorials, x: i64, y: i64) -> f64 {
        if !self.contains_local(x, y) {
            return f64::NEG_INFINITY;
        }
        match self.net_type {
            NetType::TypeI => lf.ln_binomial((x + y) as usize, y as usize),
            NetType::TypeII => {
                let dy = self.g2 - 1 - y;
                lf.ln_binomial((x + dy) as usize, x as usize)
            }
        }
    }

    /// `ln Tb(x, y)`: log route count from local cell `(x, y)` to the
    /// second pin (Formula 1); `-inf` outside the range.
    #[must_use]
    pub fn ln_tb(&self, lf: &LnFactorials, x: i64, y: i64) -> f64 {
        if !self.contains_local(x, y) {
            return f64::NEG_INFINITY;
        }
        match self.net_type {
            NetType::TypeI => {
                let n = self.g1 + self.g2 - 2 - (x + y);
                let k = self.g2 - 1 - y;
                lf.ln_binomial(n as usize, k as usize)
            }
            NetType::TypeII => {
                let dx = self.g1 - 1 - x;
                lf.ln_binomial((dx + y) as usize, dx as usize)
            }
        }
    }

    /// `ln` of the total route count between the pins.
    #[must_use]
    pub fn ln_total_routes(&self, lf: &LnFactorials) -> f64 {
        // Both types: C(g1 + g2 - 2, g1 - 1) monotone staircases.
        lf.ln_binomial((self.g1 + self.g2 - 2) as usize, (self.g1 - 1) as usize)
    }

    /// Formula 2: the probability that the net's route passes through
    /// local cell `(x, y)`. Zero outside the range; exactly 1 at pin
    /// cells and everywhere in single-row/column corridors.
    ///
    /// The table must cover `g1 + g2` (checked by the caller constructing
    /// it from the grid dimensions).
    #[must_use]
    pub fn cell_probability(&self, lf: &LnFactorials, x: i64, y: i64) -> f64 {
        if !self.contains_local(x, y) {
            return 0.0;
        }
        let ln_p = self.ln_ta(lf, x, y) + self.ln_tb(lf, x, y) - self.ln_total_routes(lf);
        ln_p.exp()
    }

    /// The largest factorial argument any probability evaluation on this
    /// range can need.
    #[must_use]
    pub fn max_factorial_arg(&self) -> usize {
        (self.g1 + self.g2) as usize
    }

    /// [`cell_probability`](Self::cell_probability) computed without any
    /// shared table: every binomial is rebuilt from `ln_gamma`, matching
    /// the arithmetic cost profile of the 2002 fixed-grid baseline (see
    /// [`CellArithmetic`](crate::CellArithmetic)). Identical results to
    /// within float rounding.
    #[must_use]
    pub fn cell_probability_gamma(&self, x: i64, y: i64) -> f64 {
        use crate::num::ln_binomial;
        if !self.contains_local(x, y) {
            return 0.0;
        }
        let (g1, g2) = (self.g1, self.g2);
        let (ln_ta, ln_tb) = match self.net_type {
            NetType::TypeI => (
                ln_binomial((x + y) as u64, y as u64),
                ln_binomial((g1 + g2 - 2 - (x + y)) as u64, (g2 - 1 - y) as u64),
            ),
            NetType::TypeII => {
                let dy = g2 - 1 - y;
                let dx = g1 - 1 - x;
                (
                    ln_binomial((x + dy) as u64, x as u64),
                    ln_binomial((dx + y) as u64, dx as u64),
                )
            }
        };
        let ln_total = ln_binomial((g1 + g2 - 2) as u64, (g1 - 1) as u64);
        (ln_ta + ln_tb - ln_total).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::binomial_u128;
    use irgrid_geom::{Rect, Um};

    fn grid() -> UnitGrid {
        let chip = Rect::from_origin_size(Point::ORIGIN, Um(3000), Um(3000));
        UnitGrid::new(&chip, Um(30))
    }

    fn pt(x: i64, y: i64) -> Point {
        Point::new(Um(x), Um(y))
    }

    #[test]
    fn from_segment_types() {
        let g = grid();
        // Lower-left to upper-right: type I.
        let r = RoutingRange::from_segment(&g, pt(0, 0), pt(300, 300));
        assert_eq!(r.net_type(), NetType::TypeI);
        assert_eq!((r.g1(), r.g2()), (11, 11));
        // Order-independent.
        let r2 = RoutingRange::from_segment(&g, pt(300, 300), pt(0, 0));
        assert_eq!(r, r2);
        // Upper-left to lower-right: type II.
        let r3 = RoutingRange::from_segment(&g, pt(0, 300), pt(300, 0));
        assert_eq!(r3.net_type(), NetType::TypeII);
        // Aligned pins: type I by convention.
        assert_eq!(
            RoutingRange::from_segment(&g, pt(0, 90), pt(300, 90)).net_type(),
            NetType::TypeI
        );
    }

    #[test]
    fn pin_cells_have_probability_one() {
        let lf = LnFactorials::up_to(64);
        for net_type in [NetType::TypeI, NetType::TypeII] {
            let r = RoutingRange::from_cells(0, 0, 7, 5, net_type);
            for (px, py) in r.pin_cells() {
                let p = r.cell_probability(&lf, px, py);
                assert!((p - 1.0).abs() < 1e-12, "{net_type:?} pin ({px},{py}): {p}");
            }
        }
    }

    #[test]
    fn corridor_cells_have_probability_one() {
        let lf = LnFactorials::up_to(64);
        let row = RoutingRange::from_cells(0, 0, 9, 1, NetType::TypeI);
        for x in 0..9 {
            assert!((row.cell_probability(&lf, x, 0) - 1.0).abs() < 1e-12);
        }
        let col = RoutingRange::from_cells(0, 0, 1, 9, NetType::TypeI);
        for y in 0..9 {
            assert!((col.cell_probability(&lf, 0, y) - 1.0).abs() < 1e-12);
        }
        let cell = RoutingRange::from_cells(0, 0, 1, 1, NetType::TypeI);
        assert!((cell.cell_probability(&lf, 0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_is_zero() {
        let lf = LnFactorials::up_to(64);
        let r = RoutingRange::from_cells(0, 0, 4, 4, NetType::TypeI);
        assert_eq!(r.cell_probability(&lf, -1, 0), 0.0);
        assert_eq!(r.cell_probability(&lf, 4, 0), 0.0);
        assert_eq!(r.cell_probability(&lf, 0, 4), 0.0);
    }

    #[test]
    fn route_counts_match_exact_binomials_type_i() {
        // Figure 6 of the paper: a 7x7 range with pins at (0,0) and (6,6);
        // Ta(x, y) = C(x+y, y).
        let lf = LnFactorials::up_to(64);
        let r = RoutingRange::from_cells(0, 0, 7, 7, NetType::TypeI);
        for x in 0..7i64 {
            for y in 0..7i64 {
                let expected = binomial_u128((x + y) as u64, y as u64) as f64;
                let got = r.ln_ta(&lf, x, y).exp();
                assert!(
                    (got - expected).abs() / expected < 1e-10,
                    "Ta({x},{y}) = {got}, want {expected}"
                );
            }
        }
        // Total routes C(12, 6) = 924... for 7x7: C(12,6) = 924.
        assert!((r.ln_total_routes(&lf).exp() - 924.0).abs() < 1e-6);
    }

    #[test]
    fn diagonal_probabilities_sum_to_one_type_i() {
        // Every monotone path crosses each anti-diagonal exactly once, so
        // probabilities on a diagonal sum to 1.
        let lf = LnFactorials::up_to(128);
        let r = RoutingRange::from_cells(0, 0, 9, 6, NetType::TypeI);
        for d in 0..(9 + 6 - 1) {
            let sum: f64 = (0..9).map(|x| r.cell_probability(&lf, x, d - x)).sum();
            assert!((sum - 1.0).abs() < 1e-10, "diagonal {d}: {sum}");
        }
    }

    #[test]
    fn diagonal_probabilities_sum_to_one_type_ii() {
        // For type II the paths run upper-left to lower-right; the
        // invariant diagonals are x - y = const shifted, i.e. cells with
        // x + (g2-1-y) = d.
        let lf = LnFactorials::up_to(128);
        let r = RoutingRange::from_cells(0, 0, 9, 6, NetType::TypeII);
        for d in 0..(9 + 6 - 1) {
            let sum: f64 = (0..9)
                .filter_map(|x| {
                    let y = 6 - 1 - (d - x);
                    ((0..6).contains(&y)).then(|| r.cell_probability(&lf, x, y))
                })
                .sum();
            assert!((sum - 1.0).abs() < 1e-10, "diagonal {d}: {sum}");
        }
    }

    #[test]
    fn type_ii_is_vertical_mirror_of_type_i() {
        let lf = LnFactorials::up_to(64);
        let ti = RoutingRange::from_cells(0, 0, 8, 5, NetType::TypeI);
        let tii = RoutingRange::from_cells(0, 0, 8, 5, NetType::TypeII);
        for x in 0..8 {
            for y in 0..5 {
                let a = ti.cell_probability(&lf, x, y);
                let b = tii.cell_probability(&lf, x, 5 - 1 - y);
                assert!((a - b).abs() < 1e-12, "mirror mismatch at ({x},{y})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn from_cells_rejects_empty() {
        let _ = RoutingRange::from_cells(0, 0, 0, 3, NetType::TypeI);
    }
}
