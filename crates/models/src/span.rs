//! Per-axis span (track) demand.

use irgrid_core::analysis::Raster;
use irgrid_core::{CongestionModel, SpatialCongestion};
use irgrid_geom::{Point, Rect, Um};

use crate::demand::DemandGrid;

/// Track-oriented demand: any route of a net needs one horizontal track
/// somewhere in the `g2` rows of its bounding box and one vertical
/// track somewhere in its `g1` columns, so every cell of the box
/// receives `1/g2 + 1/g1` units. Long *flat* nets (narrow boxes) raise
/// demand sharply — a net confined to one row puts a full track in
/// every cell of that row — which is exactly the corridor pressure the
/// uniform [`crate::NetDemandModel`] dilutes away.
///
/// # Examples
///
/// ```
/// use irgrid_core::CongestionModel;
/// use irgrid_geom::{Point, Rect, Um};
/// use irgrid_models::SpanDemandModel;
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300));
/// let corridor = vec![(Point::new(Um(15), Um(45)), Point::new(Um(285), Um(45)))];
/// assert!(SpanDemandModel::new(Um(30)).evaluate(&chip, &corridor) > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanDemandModel {
    pitch: Um,
    top_fraction_permille: u32,
}

impl SpanDemandModel {
    /// Creates the model with the given grid pitch and the paper's
    /// top-10 % scoring fraction.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn new(pitch: Um) -> SpanDemandModel {
        assert!(pitch > Um::ZERO, "grid pitch must be positive, got {pitch}");
        SpanDemandModel {
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
    pub fn with_top_fraction_permille(mut self, permille: u32) -> SpanDemandModel {
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
            let per_cell = 1.0 / range.g2() as f64 + 1.0 / range.g1() as f64;
            map.add_range(&range, per_cell);
        }
        map
    }
}

impl CongestionModel for SpanDemandModel {
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.build(chip, segments)
            .cost(f64::from(self.top_fraction_permille) / 1000.0)
    }

    fn name(&self) -> String {
        format!("span-demand {}", self.pitch)
    }
}

impl SpatialCongestion for SpanDemandModel {
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
    fn corridor_net_demands_a_full_track() {
        let model = SpanDemandModel::new(Um(30));
        // One row (g2 = 1), nine columns: every covered cell carries the
        // full horizontal track plus 1/9 of a vertical one.
        let raster = model.raster(&chip(), &[(pt(15, 45), pt(255, 45))]);
        let expected = 1.0 + 1.0 / 9.0;
        assert!((raster.values()[10] - expected).abs() < 1e-12);
    }

    #[test]
    fn square_net_spreads_tracks() {
        let model = SpanDemandModel::new(Um(30));
        let raster = model.raster(&chip(), &[(pt(15, 15), pt(255, 255))]);
        // 9 x 9 box: each cell gets 2/9.
        assert!((raster.values()[0] - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn flat_nets_score_above_square_nets_of_equal_wirelength() {
        let model = SpanDemandModel::new(Um(30));
        let flat = vec![(pt(15, 45), pt(495, 45))];
        let square = vec![(pt(15, 15), pt(255, 255))];
        let big = Rect::from_origin_size(Point::ORIGIN, Um(600), Um(300));
        assert!(model.evaluate(&big, &flat) > model.evaluate(&big, &square));
    }

    #[test]
    fn name_mentions_pitch() {
        assert_eq!(SpanDemandModel::new(Um(30)).name(), "span-demand 30um");
    }
}
