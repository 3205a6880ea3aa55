//! Rent's-rule wiring demand.

use irgrid_core::analysis::Raster;
use irgrid_core::{CongestionModel, SpatialCongestion, UnitGridMap};
use irgrid_geom::{Point, Rect, Um};

/// The classic Rent exponent for random logic.
const RENT_EXPONENT: f64 = 0.6;

/// Maps per-cell pin counts through a Rent's-rule power law.
///
/// Rent's rule says a region with `B` components exposes `T = t·Bᵖ`
/// terminals; inverted, a grid cell that *contains* `P` pins generates
/// external wiring demand growing like `Pᵖ` — sublinear, because a
/// dense cluster keeps a growing share of its connectivity internal.
/// Compared with raw [`crate::PinDensityModel`] this damps the very
/// hottest pin clusters and so predicts *routable* density rather than
/// raw pin crowding. The exponent is the classic `p = 0.6` for random
/// logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RentDemandModel {
    pitch: Um,
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
        RentDemandModel { pitch }
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
        map.map_values(|pins| {
            if pins > 0.0 {
                pins.powf(RENT_EXPONENT)
            } else {
                0.0
            }
        });
        map
    }
}

impl CongestionModel for RentDemandModel {
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.build(chip, segments).cost()
    }

    fn name(&self) -> String {
        format!("rent-demand {} p={RENT_EXPONENT}", self.pitch)
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
    fn maps_pin_density_through_the_power_law() {
        let segments = vec![
            (pt(15, 15), pt(255, 195)),
            (pt(15, 15), pt(285, 15)),
            (pt(45, 255), pt(285, 15)),
        ];
        let rent = RentDemandModel::new(Um(30)).raster(&chip(), &segments);
        let pins = PinDensityModel::new(Um(30)).raster(&chip(), &segments);
        for (r, p) in rent.values().iter().zip(pins.values()) {
            let expected = if *p > 0.0 { p.powf(0.6) } else { 0.0 };
            assert_eq!(r.to_bits(), expected.to_bits(), "{r} vs {p}^0.6");
        }
    }

    #[test]
    fn name_mentions_pitch_and_exponent() {
        assert_eq!(
            RentDemandModel::new(Um(30)).name(),
            "rent-demand 30um p=0.6"
        );
    }
}
