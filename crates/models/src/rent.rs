//! Rent's-rule wiring demand.

use irgrid_core::analysis::Raster;
use irgrid_core::{CongestionModel, SpatialCongestion};
use irgrid_geom::{Point, Rect, Um};

use crate::demand::DemandGrid;

/// Maps per-cell pin counts through a Rent's-rule power law.
///
/// Rent's rule says a region with `B` components exposes `T = t·Bᵖ`
/// terminals; inverted, a grid cell that *contains* `P` pins generates
/// external wiring demand growing like `Pᵖ` — sublinear, because a
/// dense cluster keeps a growing share of its connectivity internal.
/// Compared with raw [`crate::PinDensityModel`] this damps the very
/// hottest pin clusters and so predicts *routable* density rather than
/// raw pin crowding. The default exponent 0.6 is the classic value for
/// random logic; tune with [`with_exponent`](RentDemandModel::with_exponent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RentDemandModel {
    pitch: Um,
    exponent: f64,
    top_fraction_permille: u32,
}

impl RentDemandModel {
    /// Creates the model with the given grid pitch, the classic Rent
    /// exponent 0.6, and the paper's top-10 % scoring fraction.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn new(pitch: Um) -> RentDemandModel {
        assert!(pitch > Um::ZERO, "grid pitch must be positive, got {pitch}");
        RentDemandModel {
            pitch,
            exponent: 0.6,
            top_fraction_permille: 100,
        }
    }

    /// Overrides the Rent exponent.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is not in `(0, 1]`.
    #[must_use]
    pub fn with_exponent(mut self, exponent: f64) -> RentDemandModel {
        assert!(
            exponent > 0.0 && exponent <= 1.0,
            "Rent exponent must be in (0, 1], got {exponent}"
        );
        self.exponent = exponent;
        self
    }

    /// Overrides the scoring fraction (default 10 %).
    ///
    /// # Panics
    ///
    /// Panics if `permille` is 0 or greater than 1000.
    #[must_use]
    pub fn with_top_fraction_permille(mut self, permille: u32) -> RentDemandModel {
        crate::check_permille(permille);
        self.top_fraction_permille = permille;
        self
    }

    /// The grid pitch.
    #[must_use]
    pub fn pitch(&self) -> Um {
        self.pitch
    }

    /// The Rent exponent in use.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    fn build(&self, chip: &Rect, segments: &[(Point, Point)]) -> DemandGrid {
        let mut map = DemandGrid::new(chip, self.pitch);
        for &(a, b) in segments {
            map.add_point(a, 1.0);
            map.add_point(b, 1.0);
        }
        let p = self.exponent;
        map.map_values(|pins| if pins > 0.0 { pins.powf(p) } else { 0.0 });
        map
    }
}

impl CongestionModel for RentDemandModel {
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.build(chip, segments)
            .cost(f64::from(self.top_fraction_permille) / 1000.0)
    }

    fn name(&self) -> String {
        format!("rent-demand {} p={}", self.pitch, self.exponent)
    }
}

impl SpatialCongestion for RentDemandModel {
    fn raster(&self, chip: &Rect, segments: &[(Point, Point)]) -> Raster {
        self.build(chip, segments).into_raster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PinDensityModel;

    fn chip() -> Rect {
        Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300))
    }

    fn pt(x: i64, y: i64) -> Point {
        Point::new(Um(x), Um(y))
    }

    #[test]
    fn sublinear_in_pin_count() {
        let model = RentDemandModel::new(Um(30));
        let one = model.raster(&chip(), &[(pt(15, 15), pt(255, 255))]);
        let four: Vec<(Point, Point)> = (0..4).map(|_| (pt(15, 15), pt(255, 255))).collect();
        let stacked = model.raster(&chip(), &four);
        // 4 pins in the corner cell -> 4^0.6 < 4 x one pin's demand.
        assert!(stacked.values()[0] < 4.0 * one.values()[0]);
        assert!((stacked.values()[0] - 4.0f64.powf(0.6)).abs() < 1e-12);
    }

    #[test]
    fn damps_hotspots_relative_to_pin_density() {
        let hot: Vec<(Point, Point)> = (0..9).map(|_| (pt(15, 15), pt(16, 16))).collect();
        let cool = vec![(pt(15, 15), pt(255, 255)); 1];
        let rent = RentDemandModel::new(Um(30));
        let pins = PinDensityModel::new(Um(30));
        let rent_ratio = rent.evaluate(&chip(), &hot) / rent.evaluate(&chip(), &cool);
        let pin_ratio = pins.evaluate(&chip(), &hot) / pins.evaluate(&chip(), &cool);
        assert!(rent_ratio < pin_ratio, "{rent_ratio} vs {pin_ratio}");
    }

    #[test]
    fn exponent_one_is_pin_density() {
        let segments = vec![(pt(15, 15), pt(255, 195)), (pt(45, 255), pt(285, 15))];
        let rent = RentDemandModel::new(Um(30)).with_exponent(1.0);
        let pins = PinDensityModel::new(Um(30));
        let (a, b) = (
            rent.evaluate(&chip(), &segments),
            pins.evaluate(&chip(), &segments),
        );
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "Rent exponent")]
    fn wild_exponent_rejected() {
        let _ = RentDemandModel::new(Um(30)).with_exponent(1.5);
    }

    #[test]
    fn name_mentions_pitch_and_exponent() {
        assert_eq!(
            RentDemandModel::new(Um(30)).name(),
            "rent-demand 30um p=0.6"
        );
    }
}
