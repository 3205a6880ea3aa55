//! Pin density: the oldest congestion proxy there is.

use irgrid_core::analysis::Raster;
use irgrid_core::{CongestionModel, SpatialCongestion, UnitGridMap};
use irgrid_geom::{Point, Rect, Um};

/// Counts segment endpoints (pins after MST decomposition) per grid
/// cell. Cells crowded with pins need local wiring regardless of where
/// the routes go — zero routing knowledge, near-zero cost, and the
/// weakest baseline every better model must beat.
///
/// # Examples
///
/// ```
/// use irgrid_core::CongestionModel;
/// use irgrid_geom::{Point, Rect, Um};
/// use irgrid_models::PinDensityModel;
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300));
/// let hot = vec![(Point::new(Um(15), Um(15)), Point::new(Um(16), Um(16))); 8];
/// let model = PinDensityModel::new(Um(30));
/// assert!(model.evaluate(&chip, &hot) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinDensityModel {
    pitch: Um,
}

impl PinDensityModel {
    /// Creates the model with the given grid pitch and the paper's
    /// top-10 % scoring fraction.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn new(pitch: Um) -> PinDensityModel {
        assert!(pitch > Um::ZERO, "grid pitch must be positive, got {pitch}");
        PinDensityModel { pitch }
    }

    /// The grid pitch.
    #[must_use]
    pub fn pitch(&self) -> Um {
        self.pitch
    }

    fn build(&self, chip: &Rect, segments: &[(Point, Point)]) -> UnitGridMap {
        let mut map = UnitGridMap::new(chip, self.pitch);
        for &(a, b) in segments {
            map.add_point(a, 1.0);
            map.add_point(b, 1.0);
        }
        map
    }
}

impl CongestionModel for PinDensityModel {
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.build(chip, segments).cost()
    }

    fn name(&self) -> String {
        format!("pin-density {}", self.pitch)
    }
}

impl SpatialCongestion for PinDensityModel {
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
    fn counts_both_endpoints() {
        let model = PinDensityModel::new(Um(30));
        let raster = model.raster(&chip(), &[(pt(15, 15), pt(255, 255))]);
        let total: f64 = raster.values().iter().sum();
        assert_eq!(total, 2.0);
        assert_eq!(raster.values()[0], 1.0);
    }

    #[test]
    fn concentration_raises_the_score() {
        let model = PinDensityModel::new(Um(30));
        let hot: Vec<(Point, Point)> = (0..6).map(|_| (pt(15, 15), pt(16, 16))).collect();
        let spread: Vec<(Point, Point)> = (0..6)
            .map(|i| (pt(15 + 40 * i, 15), pt(15 + 40 * i, 255)))
            .collect();
        assert!(model.evaluate(&chip(), &hot) > model.evaluate(&chip(), &spread));
    }

    #[test]
    fn empty_floorplan_scores_zero() {
        assert_eq!(PinDensityModel::new(Um(30)).evaluate(&chip(), &[]), 0.0);
    }

    #[test]
    fn name_mentions_pitch() {
        assert_eq!(PinDensityModel::new(Um(30)).name(), "pin-density 30um");
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_rejected() {
        let _ = PinDensityModel::new(Um(0));
    }
}
