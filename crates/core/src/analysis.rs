//! Per-cell congestion-map analysis.
//!
//! The paper compares models by their scalar floorplan scores; this
//! module lets them be compared *spatially*: rasterize any congestion
//! map onto its unit grid, and downsample rasters of different pitches
//! onto one grid. The `repro heatmap` experiment measures per-cell
//! agreement on these rasters to show that the Irregular-Grid model
//! reproduces the fixed-grid congestion *picture*, not just its top-10 %
//! summary.

use irgrid_geom::{Point, Rect};

use crate::{FixedGridModel, IrCongestionMap, IrregularGridModel, LzShapeModel, SpatialCongestion};

/// A congestion map rasterized onto its unit grid: `cols × rows` values
/// in row-major order, one per pitch² cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    cols: usize,
    rows: usize,
    values: Vec<f64>,
}

impl Raster {
    /// Builds a raster from explicit values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != cols * rows`.
    #[must_use]
    pub fn new(cols: usize, rows: usize, values: Vec<f64>) -> Raster {
        assert_eq!(
            values.len(),
            cols * rows,
            "raster dimensions disagree with value count"
        );
        Raster { cols, rows, values }
    }

    /// Grid columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Cell values, row-major.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Rasterizes an Irregular-Grid map: every unit cell of an IR-grid
    /// receives the IR-grid's density (per-unit-cell congestion), so the
    /// raster is directly comparable with a fixed-grid raster at the same
    /// pitch.
    #[must_use]
    pub fn from_ir(map: &IrCongestionMap) -> Raster {
        // irgrid-lint: allow(P1): cut arrays end with the chip boundary by construction
        let cols = *map.x_cuts().last().expect("cuts include the boundary") as usize;
        // irgrid-lint: allow(P1): cut arrays end with the chip boundary by construction
        let rows = *map.y_cuts().last().expect("cuts include the boundary") as usize;
        let mut values = vec![0.0f64; cols * rows];
        for j in 0..map.ir_rows() {
            let (y0, y1) = (map.y_cuts()[j] as usize, map.y_cuts()[j + 1] as usize);
            for i in 0..map.ir_cols() {
                let (x0, x1) = (map.x_cuts()[i] as usize, map.x_cuts()[i + 1] as usize);
                let density = map.density(i, j);
                for y in y0..y1 {
                    for x in x0..x1 {
                        values[y * cols + x] = density;
                    }
                }
            }
        }
        Raster { cols, rows, values }
    }

    /// Downsamples by an integer factor, averaging `factor × factor`
    /// blocks (partial edge blocks average their covered cells). Use to
    /// align rasters of different pitches, e.g. a 10 µm judging raster
    /// onto a 30 µm grid with `factor = 3`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn downsample(&self, factor: usize) -> Raster {
        assert!(factor > 0, "downsample factor must be positive");
        let cols = self.cols.div_ceil(factor);
        let rows = self.rows.div_ceil(factor);
        let mut values = vec![0.0f64; cols * rows];
        for by in 0..rows {
            for bx in 0..cols {
                let mut sum = 0.0;
                let mut count = 0usize;
                for y in (by * factor)..((by + 1) * factor).min(self.rows) {
                    for x in (bx * factor)..((bx + 1) * factor).min(self.cols) {
                        sum += self.values[y * self.cols + x];
                        count += 1;
                    }
                }
                values[by * cols + bx] = if count == 0 { 0.0 } else { sum / count as f64 };
            }
        }
        Raster { cols, rows, values }
    }
}

impl SpatialCongestion for FixedGridModel {
    fn raster(&self, chip: &Rect, segments: &[(Point, Point)]) -> Raster {
        self.congestion_map(chip, segments).into_raster()
    }
}

impl SpatialCongestion for LzShapeModel {
    fn raster(&self, chip: &Rect, segments: &[(Point, Point)]) -> Raster {
        self.congestion_map(chip, segments).into_raster()
    }
}

impl SpatialCongestion for IrregularGridModel {
    fn raster(&self, chip: &Rect, segments: &[(Point, Point)]) -> Raster {
        Raster::from_ir(&self.congestion_map(chip, segments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IrregularGridModel, LzShapeModel};
    use irgrid_geom::{Point, Rect, Um};

    fn chip() -> Rect {
        Rect::from_origin_size(Point::ORIGIN, Um(600), Um(600))
    }

    fn segments() -> Vec<(Point, Point)> {
        vec![
            (Point::new(Um(90), Um(90)), Point::new(Um(510), Um(510))),
            (Point::new(Um(90), Um(510)), Point::new(Um(510), Um(90))),
            (Point::new(Um(120), Um(300)), Point::new(Um(480), Um(330))),
        ]
    }

    #[test]
    fn ir_raster_covers_unit_grid() {
        let map = IrregularGridModel::new(Um(30)).congestion_map(&chip(), &segments());
        let r = Raster::from_ir(&map);
        assert_eq!(r.cols(), 20);
        assert_eq!(r.rows(), 20);
        // Mass consistency: sum of per-cell densities = sum of F(I)
        // (density × area summed over cells of each IR-grid).
        let raster_mass: f64 = r.values().iter().sum();
        let ir_mass: f64 = (0..map.ir_rows())
            .flat_map(|j| (0..map.ir_cols()).map(move |i| (i, j)))
            .map(|(i, j)| map.total(i, j))
            .sum();
        assert!((raster_mass - ir_mass).abs() < 1e-9);
    }

    #[test]
    fn lz_raster_has_fixed_dimensions() {
        let r = LzShapeModel::new(Um(30)).raster(&chip(), &segments());
        assert_eq!((r.cols(), r.rows()), (20, 20));
    }

    #[test]
    fn downsample_averages_blocks() {
        let r = Raster::new(4, 2, vec![1.0, 3.0, 0.0, 8.0, 5.0, 7.0, 0.0, 0.0]);
        let d = r.downsample(2);
        assert_eq!((d.cols(), d.rows()), (2, 1));
        assert_eq!(d.values(), &[4.0, 2.0]);
    }

    #[test]
    fn downsample_partial_edges() {
        let r = Raster::new(3, 3, vec![1.0; 9]);
        let d = r.downsample(2);
        assert_eq!((d.cols(), d.rows()), (2, 2));
        assert!(d.values().iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "dimensions disagree")]
    fn bad_raster_construction_rejected() {
        let _ = Raster::new(3, 3, vec![0.0; 8]);
    }
}
