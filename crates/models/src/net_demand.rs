//! Bounding-box wiring demand, uniform and wirelength-weighted.

use irgrid_core::analysis::Raster;
use irgrid_core::{CongestionModel, SpatialCongestion};
use irgrid_geom::{Point, Rect, Um};

use crate::demand::DemandGrid;

/// Standard net demand: every net deposits one unit of demand, spread
/// uniformly over the `g1 × g2` cells of its bounding box. Cells
/// covered by many nets score high; net size is ignored beyond the
/// spreading itself.
///
/// # Examples
///
/// ```
/// use irgrid_core::CongestionModel;
/// use irgrid_geom::{Point, Rect, Um};
/// use irgrid_models::NetDemandModel;
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300));
/// let segments = vec![(Point::new(Um(15), Um(15)), Point::new(Um(255), Um(255)))];
/// assert!(NetDemandModel::new(Um(30)).evaluate(&chip, &segments) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetDemandModel {
    pitch: Um,
    top_fraction_permille: u32,
}

impl NetDemandModel {
    /// Creates the model with the given grid pitch and the paper's
    /// top-10 % scoring fraction.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn new(pitch: Um) -> NetDemandModel {
        assert!(pitch > Um::ZERO, "grid pitch must be positive, got {pitch}");
        NetDemandModel {
            pitch,
            top_fraction_permille: 100,
        }
    }

    /// Overrides the scoring fraction (default 10 %).
    ///
    /// # Panics
    ///
    /// Panics if `permille` is 0 or greater than 1000.
    #[must_use]
    pub fn with_top_fraction_permille(mut self, permille: u32) -> NetDemandModel {
        crate::check_permille(permille);
        self.top_fraction_permille = permille;
        self
    }

    /// The grid pitch.
    #[must_use]
    pub fn pitch(&self) -> Um {
        self.pitch
    }

    fn build(&self, chip: &Rect, segments: &[(Point, Point)]) -> DemandGrid {
        let mut map = DemandGrid::new(chip, self.pitch);
        for &(a, b) in segments {
            let range = map.range_of(a, b);
            let cells = (range.g1() * range.g2()) as f64;
            map.add_range(&range, 1.0 / cells);
        }
        map
    }
}

impl CongestionModel for NetDemandModel {
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.build(chip, segments)
            .cost(f64::from(self.top_fraction_permille) / 1000.0)
    }

    fn name(&self) -> String {
        format!("net-demand {}", self.pitch)
    }
}

impl SpatialCongestion for NetDemandModel {
    fn raster(&self, chip: &Rect, segments: &[(Point, Point)]) -> Raster {
        self.build(chip, segments).into_raster()
    }
}

/// Wirelength-weighted net demand — the RUDY estimator (Spindler &
/// Johannes, DATE 2007): each net deposits its expected L-route
/// wirelength, `g1 + g2 - 1` cells, spread uniformly over its bounding
/// box. Large spanning nets therefore press harder than local ones,
/// which plain [`NetDemandModel`] treats alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedNetDemandModel {
    pitch: Um,
    top_fraction_permille: u32,
}

impl WeightedNetDemandModel {
    /// Creates the model with the given grid pitch and the paper's
    /// top-10 % scoring fraction.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn new(pitch: Um) -> WeightedNetDemandModel {
        assert!(pitch > Um::ZERO, "grid pitch must be positive, got {pitch}");
        WeightedNetDemandModel {
            pitch,
            top_fraction_permille: 100,
        }
    }

    /// Overrides the scoring fraction (default 10 %).
    ///
    /// # Panics
    ///
    /// Panics if `permille` is 0 or greater than 1000.
    #[must_use]
    pub fn with_top_fraction_permille(mut self, permille: u32) -> WeightedNetDemandModel {
        crate::check_permille(permille);
        self.top_fraction_permille = permille;
        self
    }

    /// The grid pitch.
    #[must_use]
    pub fn pitch(&self) -> Um {
        self.pitch
    }

    fn build(&self, chip: &Rect, segments: &[(Point, Point)]) -> DemandGrid {
        let mut map = DemandGrid::new(chip, self.pitch);
        for &(a, b) in segments {
            let range = map.range_of(a, b);
            let cells = (range.g1() * range.g2()) as f64;
            let wirelength = (range.g1() + range.g2() - 1) as f64;
            map.add_range(&range, wirelength / cells);
        }
        map
    }
}

impl CongestionModel for WeightedNetDemandModel {
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.build(chip, segments)
            .cost(f64::from(self.top_fraction_permille) / 1000.0)
    }

    fn name(&self) -> String {
        format!("weighted-net-demand {}", self.pitch)
    }
}

impl SpatialCongestion for WeightedNetDemandModel {
    fn raster(&self, chip: &Rect, segments: &[(Point, Point)]) -> Raster {
        self.build(chip, segments).into_raster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> Rect {
        Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300))
    }

    fn pt(x: i64, y: i64) -> Point {
        Point::new(Um(x), Um(y))
    }

    #[test]
    fn standard_demand_mass_is_net_count() {
        let model = NetDemandModel::new(Um(30));
        let segments = vec![(pt(15, 15), pt(255, 195)), (pt(45, 255), pt(285, 15))];
        let raster = model.raster(&chip(), &segments);
        let mass: f64 = raster.values().iter().sum();
        assert!((mass - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_demand_mass_is_total_wirelength() {
        let model = WeightedNetDemandModel::new(Um(30));
        // Cells (0,0) -> (8,6): L-route wirelength 8 + 6 + 1 = 15 cells.
        let segments = vec![(pt(15, 15), pt(255, 195))];
        let raster = model.raster(&chip(), &segments);
        let mass: f64 = raster.values().iter().sum();
        assert!((mass - 15.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_presses_harder_on_long_nets() {
        let long = vec![(pt(15, 15), pt(285, 285))];
        let short = vec![(pt(15, 15), pt(45, 45))];
        let model = WeightedNetDemandModel::new(Um(30));
        let plain = NetDemandModel::new(Um(30));
        let weighted_ratio = model.evaluate(&chip(), &long) / model.evaluate(&chip(), &short);
        let plain_ratio = plain.evaluate(&chip(), &long) / plain.evaluate(&chip(), &short);
        assert!(weighted_ratio > plain_ratio);
    }

    #[test]
    fn degenerate_segment_is_one_cell_of_demand() {
        let model = NetDemandModel::new(Um(30));
        let raster = model.raster(&chip(), &[(pt(15, 15), pt(16, 16))]);
        assert_eq!(raster.values()[0], 1.0);
    }

    #[test]
    fn names_mention_pitch() {
        assert_eq!(NetDemandModel::new(Um(30)).name(), "net-demand 30um");
        assert_eq!(
            WeightedNetDemandModel::new(Um(30)).name(),
            "weighted-net-demand 30um"
        );
    }
}
