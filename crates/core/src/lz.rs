//! The L/Z-shape probabilistic congestion model (Lou et al., ISPD 2001).
//!
//! The paper's reference [3] pioneered probabilistic congestion analysis
//! but restricted the route ensemble to one-bend (L) and two-bend (Z)
//! shortest paths, arguing routers rarely use more bends. This module
//! implements that baseline: for a `g1 × g2`-cell routing range the
//! ensemble holds `g1 + g2 - 2` distinct routes (the H-V-H family bending
//! at each column plus the V-H-V family bending at each row, with the two
//! L-shapes shared between families), weighted uniformly.
//!
//! Including it lets the benches compare all three congestion-model
//! generations the paper discusses: L/Z-ensemble [3], full monotone
//! ensemble on a fixed grid [4] (§3), and the Irregular-Grid model (§4).

use irgrid_geom::{Point, Rect, Um};

use crate::{CongestionModel, NetType, RoutingRange, UnitGridMap};

/// The L/Z-shape fixed-grid congestion model.
///
/// # Examples
///
/// ```
/// use irgrid_core::{CongestionModel, LzShapeModel};
/// use irgrid_geom::{Point, Rect, Um};
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300));
/// let segments = vec![(Point::new(Um(15), Um(15)), Point::new(Um(285), Um(285)))];
/// let model = LzShapeModel::new(Um(30));
/// let map = model.congestion_map(&chip, &segments);
/// // Pin cells are crossed by every route.
/// assert!((map.value(0, 0) - 1.0).abs() < 1e-12);
/// // An interior off-boundary cell is only crossed by the two routes
/// // bending through it.
/// assert!(map.value(4, 4) < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzShapeModel {
    pitch: Um,
}

impl LzShapeModel {
    /// Creates the model with the given grid pitch.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn new(pitch: Um) -> LzShapeModel {
        assert!(pitch > Um::ZERO, "grid pitch must be positive, got {pitch}");
        LzShapeModel { pitch }
    }

    /// The grid pitch.
    #[must_use]
    pub fn pitch(&self) -> Um {
        self.pitch
    }

    /// The probability that an L/Z-routed net crosses local cell `(x, y)`
    /// of `range`. Exposed for tests and fine-grained analysis.
    #[inline]
    #[must_use]
    pub fn cell_probability(range: &RoutingRange, x: i64, y: i64) -> f64 {
        if !range.contains_local(x, y) {
            return 0.0;
        }
        let (g1, g2) = (range.g1(), range.g2());
        // Corridors have a single route crossing every cell.
        if g1 == 1 || g2 == 1 {
            return 1.0;
        }
        // Mirror type II onto type I; the ensembles are mirror images.
        let y = match range.net_type() {
            NetType::TypeI => y,
            NetType::TypeII => g2 - 1 - y,
        };

        // H-V-H family: along the bottom row to column c, up, along the
        // top row. One route per c in 0..g1.
        let hvh = if y == 0 {
            g1 - x // routes with c >= x
        } else if y == g2 - 1 {
            x + 1 // routes with c <= x
        } else {
            1 // only c == x passes through an interior row
        };
        // V-H-V family: up the left column to row r, right, up the right
        // column. One route per r in 0..g2.
        let vhv = if x == 0 {
            g2 - y
        } else if x == g1 - 1 {
            y + 1
        } else {
            1
        };
        // The two L-shapes belong to both families; subtract each once if
        // it crosses this cell.
        let mut crossing = hvh + vhv;
        // L "up then right": HVH with c = 0, VHV with r = g2-1. Crosses
        // the left column and the top row.
        if x == 0 || y == g2 - 1 {
            crossing -= 1;
        }
        // L "right then up": HVH with c = g1-1, VHV with r = 0.
        if y == 0 || x == g1 - 1 {
            crossing -= 1;
        }
        let total = g1 + g2 - 2;
        crossing as f64 / total as f64
    }

    /// Computes the L/Z congestion map of a floorplan.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is degenerate or not at the origin.
    #[must_use]
    pub fn congestion_map(&self, chip: &Rect, segments: &[(Point, Point)]) -> UnitGridMap {
        let mut map = UnitGridMap::new(chip, self.pitch);
        for &(a, b) in segments {
            let range = map.range_of(a, b);
            map.add_range(&range, Self::cell_probability);
        }
        map
    }
}

impl CongestionModel for LzShapeModel {
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.congestion_map(chip, segments).cost()
    }

    fn name(&self) -> String {
        format!("lz-shape {}x{}", self.pitch, self.pitch)
    }
}

impl crate::DeltaCongestion for LzShapeModel {
    type DeltaSession = crate::StatelessDeltaSession<LzShapeModel>;

    fn delta_session(&self) -> Self::DeltaSession {
        crate::StatelessDeltaSession::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(g1: i64, g2: i64, t: NetType) -> RoutingRange {
        RoutingRange::from_cells(0, 0, g1, g2, t)
    }

    /// Enumerates the L/Z route ensemble explicitly and counts crossings
    /// — the oracle for `cell_probability`.
    fn brute_force(g1: i64, g2: i64, x: i64, y: i64) -> f64 {
        // Build each route as a set of cells.
        let mut routes: Vec<Vec<(i64, i64)>> = Vec::new();
        // H-V-H by bend column c.
        for c in 0..g1 {
            let mut cells = Vec::new();
            for cx in 0..=c {
                cells.push((cx, 0));
            }
            for cy in 0..g2 {
                cells.push((c, cy));
            }
            for cx in c..g1 {
                cells.push((cx, g2 - 1));
            }
            cells.sort_unstable();
            cells.dedup();
            routes.push(cells);
        }
        // V-H-V by bend row r.
        for r in 0..g2 {
            let mut cells = Vec::new();
            for cy in 0..=r {
                cells.push((0, cy));
            }
            for cx in 0..g1 {
                cells.push((cx, r));
            }
            for cy in r..g2 {
                cells.push((g1 - 1, cy));
            }
            cells.sort_unstable();
            cells.dedup();
            routes.push(cells);
        }
        routes.sort();
        routes.dedup();
        let crossing = routes.iter().filter(|r| r.contains(&(x, y))).count();
        crossing as f64 / routes.len() as f64
    }

    #[test]
    fn matches_route_enumeration() {
        for (g1, g2) in [(2i64, 2i64), (3, 2), (2, 5), (4, 4), (6, 3), (5, 7)] {
            assert_eq!(
                brute_force(g1, g2, 0, 0),
                LzShapeModel::cell_probability(&range(g1, g2, NetType::TypeI), 0, 0)
            );
            for x in 0..g1 {
                for y in 0..g2 {
                    let expected = brute_force(g1, g2, x, y);
                    let got = LzShapeModel::cell_probability(&range(g1, g2, NetType::TypeI), x, y);
                    assert!(
                        (got - expected).abs() < 1e-12,
                        "{g1}x{g2} cell ({x},{y}): {got} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn route_count_is_g1_plus_g2_minus_2() {
        // Implied by the enumeration oracle, but assert it directly: pins
        // are crossed by all routes, interior cells by exactly 2 of them.
        let r = range(6, 5, NetType::TypeI);
        assert_eq!(LzShapeModel::cell_probability(&r, 0, 0), 1.0);
        assert_eq!(LzShapeModel::cell_probability(&r, 5, 4), 1.0);
        let interior = LzShapeModel::cell_probability(&r, 2, 2);
        assert!((interior - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_sums_are_one() {
        // L/Z routes are monotone, so each crosses every anti-diagonal
        // exactly once.
        for t in [NetType::TypeI, NetType::TypeII] {
            let r = range(7, 5, t);
            for d in 0..(7 + 5 - 1) {
                let sum: f64 = (0..7)
                    .filter_map(|x| {
                        let y = match t {
                            NetType::TypeI => d - x,
                            NetType::TypeII => 5 - 1 - (d - x),
                        };
                        r.contains_local(x, y)
                            .then(|| LzShapeModel::cell_probability(&r, x, y))
                    })
                    .sum();
                assert!((sum - 1.0).abs() < 1e-12, "{t:?} diagonal {d}: {sum}");
            }
        }
    }

    #[test]
    fn type_ii_mirrors_type_i() {
        let ti = range(6, 4, NetType::TypeI);
        let tii = range(6, 4, NetType::TypeII);
        for x in 0..6 {
            for y in 0..4 {
                assert_eq!(
                    LzShapeModel::cell_probability(&ti, x, y),
                    LzShapeModel::cell_probability(&tii, x, 3 - y)
                );
            }
        }
    }

    #[test]
    fn corridor_is_certain() {
        let r = range(5, 1, NetType::TypeI);
        for x in 0..5 {
            assert_eq!(LzShapeModel::cell_probability(&r, x, 0), 1.0);
        }
    }

    #[test]
    fn lz_concentrates_on_boundaries_vs_full_ensemble() {
        // The L/Z ensemble hugs the range boundary; the full monotone
        // ensemble spreads into the interior. Compare their interior
        // mass.
        use crate::num::LnFactorials;
        let r = range(9, 9, NetType::TypeI);
        let lf = LnFactorials::up_to(64);
        let lz_interior = LzShapeModel::cell_probability(&r, 4, 4);
        let full_interior = r.cell_probability(&lf, 4, 4);
        assert!(
            lz_interior < full_interior,
            "lz {lz_interior} should be below full-ensemble {full_interior} at the center"
        );
    }

    #[test]
    fn map_and_cost() {
        let chip = Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300));
        let model = LzShapeModel::new(Um(30));
        let segs = vec![(Point::new(Um(15), Um(15)), Point::new(Um(285), Um(285)))];
        let map = model.congestion_map(&chip, &segs);
        assert_eq!(map.grid().cols(), 10);
        assert!(map.cost() > 0.0);
        assert!(model.evaluate(&chip, &segs) > 0.0);
        // Mass: one cell per diagonal -> g1 + g2 - 1.
        let mass: f64 = map.values().iter().sum();
        assert!((mass - 19.0).abs() < 1e-9, "mass {mass}");
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_rejected() {
        let _ = LzShapeModel::new(Um(0));
    }
}
