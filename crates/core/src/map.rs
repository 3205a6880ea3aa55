//! The unit-grid map: one value per cell of the chip's unit grid.

use irgrid_geom::{Point, Rect, Um};

use crate::analysis::Raster;
use crate::score::{top_fraction_mean, TOP_FRACTION};
use crate::{RoutingRange, UnitGrid};

/// A unit grid plus one `f64` per cell, row-major: the congestion map of
/// the fixed-grid and L/Z models and of the structural predictors in
/// `irgrid-models`.
///
/// Models build the map by walking the segment list once and depositing
/// into cells, either over a net's routing range
/// ([`add_range`](Self::add_range)) or into one cell
/// ([`add_point`](Self::add_point)). Each cell receives its deposits in
/// the order they are made, so a map is a pure function of the ordered
/// input. The map is scored by the paper's rule: the mean of the top
/// [`TOP_FRACTION`] most congested cells.
///
/// # Examples
///
/// ```
/// use irgrid_core::UnitGridMap;
/// use irgrid_geom::{Point, Rect, Um};
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(90), Um(90));
/// let mut map = UnitGridMap::new(&chip, Um(30));
/// let range = map.range_of(Point::new(Um(5), Um(5)), Point::new(Um(65), Um(35)));
/// // The closure receives the range and each cell's coordinates local to it.
/// map.add_range(&range, |_, x, y| (x + 10 * y) as f64);
/// assert_eq!(map.value(2, 1), 12.0);
/// assert_eq!(map.cost(), 12.0);
/// ```
#[derive(Debug, Clone)]
pub struct UnitGridMap {
    grid: UnitGrid,
    values: Vec<f64>,
}

impl UnitGridMap {
    /// An all-zero map over `chip` at `pitch`.
    ///
    /// # Panics
    ///
    /// Panics if the pitch is not positive or the chip is degenerate /
    /// off-origin (see [`UnitGrid::new`]).
    #[must_use]
    pub fn new(chip: &Rect, pitch: Um) -> UnitGridMap {
        let grid = UnitGrid::new(chip, pitch);
        UnitGridMap {
            values: vec![0.0f64; grid.cell_count()],
            grid,
        }
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &UnitGrid {
        &self.grid
    }

    /// The routing range of a 2-pin segment on this map's grid.
    #[must_use]
    pub fn range_of(&self, a: Point, b: Point) -> RoutingRange {
        RoutingRange::from_segment(&self.grid, a, b)
    }

    /// Adds `amount` to the cell containing `p` (clamped to the grid
    /// like every pin lookup).
    pub fn add_point(&mut self, p: Point, amount: f64) {
        let (x, y) = self.grid.cell_of(p);
        self.values[cell_index(self.grid.cols(), x, y)] += amount;
    }

    /// Adds `per_cell(range, x, y)` to every cell of `range`, where
    /// `(x, y)` is the cell's position local to the range. Rows are
    /// visited bottom to top and cells left to right.
    // The closure takes the range as an argument instead of capturing it,
    // and the loop is inlined into each model: only then does the
    // compiler see the per-cell function and the loop bounds on one
    // range, and the L/Z map builds as fast as a hand-written loop.
    #[inline]
    pub fn add_range(
        &mut self,
        range: &RoutingRange,
        mut per_cell: impl FnMut(&RoutingRange, i64, i64) -> f64,
    ) {
        let cols = self.grid.cols();
        for y in 0..range.g2() {
            for x in 0..range.g1() {
                self.values[cell_index(cols, range.x0() + x, range.y0() + y)] +=
                    per_cell(range, x, y);
            }
        }
    }

    /// Applies `f` to every cell value in place.
    pub fn map_values(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// The value of cell `(x, y)`.
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
        self.values[cell_index(self.grid.cols(), x, y)]
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

    /// The floorplan congestion cost: the mean of the top
    /// [`TOP_FRACTION`] most congested cells.
    #[must_use]
    pub fn cost(&self) -> f64 {
        top_fraction_mean(&self.values, TOP_FRACTION)
    }

    /// The maximum cell value.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max) // irgrid-lint: allow(D2): max is order-independent
    }

    /// Total mass `Σ f(x, y)`. For one net of the fixed-grid model this
    /// equals the expected number of cells its route crosses.
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.values.iter().sum() // irgrid-lint: allow(D2): serial in-order sum over the dense row-major Vec
    }

    /// Moves the values into a [`Raster`] of the same dimensions.
    #[must_use]
    pub fn into_raster(self) -> Raster {
        // irgrid-lint: allow(C1): grid dimensions are positive and far below 2^31
        let (cols, rows) = (self.grid.cols() as usize, self.grid.rows() as usize);
        Raster::new(cols, rows, self.values)
    }
}

/// The row-major index of in-grid cell `(x, y)` on a grid `cols` wide.
fn cell_index(cols: i64, x: i64, y: i64) -> usize {
    // irgrid-lint: allow(C1): row-major index of an in-grid cell, non-negative and < cell_count
    (y * cols + x) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetType;

    fn chip() -> Rect {
        Rect::from_origin_size(Point::ORIGIN, Um(90), Um(90))
    }

    #[test]
    fn point_deposits_land_in_their_cell() {
        let mut map = UnitGridMap::new(&chip(), Um(30));
        map.add_point(Point::new(Um(45), Um(75)), 2.0);
        assert_eq!(map.value(1, 2), 2.0);
        assert_eq!(map.values().iter().filter(|&&v| v != 0.0).count(), 1);
    }

    #[test]
    fn range_deposits_cover_the_bbox() {
        let mut map = UnitGridMap::new(&chip(), Um(30));
        let r = map.range_of(Point::new(Um(5), Um(5)), Point::new(Um(65), Um(35)));
        map.add_range(&r, |_, _, _| 0.5);
        // 3 x 2 cells at 0.5 each.
        assert_eq!(map.values().iter().filter(|&&v| v == 0.5).count(), 6);
        assert_eq!(map.total_mass(), 3.0);
    }

    #[test]
    fn range_deposits_pass_local_coordinates_in_row_order() {
        let mut map = UnitGridMap::new(&chip(), Um(30));
        let range = RoutingRange::from_cells(1, 1, 2, 2, NetType::TypeI);
        let mut visits = Vec::new();
        map.add_range(&range, |r, x, y| {
            assert_eq!(r, &range);
            visits.push((x, y));
            1.0
        });
        assert_eq!(visits, [(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert_eq!(map.value(1, 1), 1.0);
        assert_eq!(map.value(2, 2), 1.0);
        assert_eq!(map.value(0, 0), 0.0);
    }

    #[test]
    fn cost_is_the_top_fraction_mean() {
        let mut map = UnitGridMap::new(&chip(), Um(30));
        map.add_point(Point::new(Um(0), Um(0)), 9.0);
        map.add_point(Point::new(Um(89), Um(89)), 4.0);
        // Top 10 % of 9 cells rounds up to the single largest.
        assert_eq!(map.cost(), 9.0);
        assert_eq!(map.peak(), 9.0);
        assert_eq!(map.cell_count(), 9);
    }

    #[test]
    fn empty_map_scores_zero() {
        let map = UnitGridMap::new(&chip(), Um(30));
        assert_eq!(map.cost(), 0.0);
        assert_eq!(map.peak(), 0.0);
        assert_eq!(map.total_mass(), 0.0);
        assert_eq!((map.grid().cols(), map.grid().rows()), (3, 3));
    }

    #[test]
    fn point_deposits_on_the_far_edge_clamp_into_the_grid() {
        let mut map = UnitGridMap::new(&chip(), Um(30));
        map.add_point(Point::new(Um(90), Um(90)), 1.0);
        map.add_point(Point::new(Um(90), Um(0)), 2.0);
        assert_eq!(map.value(2, 2), 1.0);
        assert_eq!(map.value(2, 0), 2.0);
        assert_eq!(map.total_mass(), 3.0);
    }

    #[test]
    fn deposits_accumulate_in_call_order() {
        let mut map = UnitGridMap::new(&chip(), Um(30));
        let range = RoutingRange::from_cells(0, 0, 1, 1, NetType::TypeI);
        for amount in [0.1, 0.2, 0.3] {
            map.add_range(&range, |_, _, _| amount);
        }
        // Left to right, as the deposits were made; a different order
        // would round differently.
        let expected = (0.1f64 + 0.2) + 0.3;
        assert_ne!(expected.to_bits(), (0.1f64 + (0.2 + 0.3)).to_bits());
        assert_eq!(map.value(0, 0).to_bits(), expected.to_bits());
    }

    #[test]
    fn map_values_transforms_every_cell() {
        let mut map = UnitGridMap::new(&chip(), Um(30));
        map.add_point(Point::new(Um(45), Um(45)), 4.0);
        map.map_values(|v| v * 2.0 + 1.0);
        assert_eq!(map.value(1, 1), 9.0);
        assert_eq!(map.values().iter().filter(|&&v| v == 1.0).count(), 8);
    }

    #[test]
    fn into_raster_preserves_layout() {
        let mut map = UnitGridMap::new(&chip(), Um(30));
        map.add_point(Point::new(Um(0), Um(0)), 1.0);
        let raster = map.into_raster();
        assert_eq!((raster.cols(), raster.rows()), (3, 3));
        assert_eq!(raster.values()[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn value_rejects_out_of_range_cells() {
        let _ = UnitGridMap::new(&chip(), Um(30)).value(3, 0);
    }
}
