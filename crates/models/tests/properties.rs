//! Property-based tests for the seven models that fill a unit-grid map:
//! the structural predictors and the fixed-grid and L/Z models.
//!
//! Every model must be a pure function of the geometry: repeated
//! evaluation is bit-identical, and rigidly translating the whole
//! netlist by a pitch multiple relocates the demand map without
//! changing its values or the scalar cost.

use irgrid_core::score::{top_fraction_mean, TOP_FRACTION};
use irgrid_core::{FixedGridModel, LzShapeModel, SpatialCongestion, UnitGrid};
use irgrid_geom::{Point, Rect, Um};
use irgrid_models::{
    NetDemandModel, PinDensityModel, RentDemandModel, SpanDemandModel, WeightedNetDemandModel,
};
use proptest::prelude::*;

const PITCH: i64 = 30;

/// Every model that fills a map on the unit grid: the fixed-grid and
/// L/Z probabilistic models and the five structural predictors.
fn models() -> Vec<Box<dyn SpatialCongestion>> {
    vec![
        Box::new(FixedGridModel::new(Um(PITCH))),
        Box::new(LzShapeModel::new(Um(PITCH))),
        Box::new(PinDensityModel::new(Um(PITCH))),
        Box::new(NetDemandModel::new(Um(PITCH))),
        Box::new(WeightedNetDemandModel::new(Um(PITCH))),
        Box::new(RentDemandModel::new(Um(PITCH))),
        Box::new(SpanDemandModel::new(Um(PITCH))),
    ]
}

fn chip() -> Rect {
    Rect::from_origin_size(Point::ORIGIN, Um(600), Um(600))
}

/// Segments confined to the lower-left 300 µm quarter, leaving room to
/// translate by up to ten pitches in each axis.
fn arb_segments() -> impl Strategy<Value = Vec<(Point, Point)>> {
    prop::collection::vec(
        ((0i64..300, 0i64..300), (0i64..300, 0i64..300)).prop_map(|((ax, ay), (bx, by))| {
            (Point::new(Um(ax), Um(ay)), Point::new(Um(bx), Um(by)))
        }),
        1..12,
    )
}

fn translate(segments: &[(Point, Point)], dx: i64, dy: i64) -> Vec<(Point, Point)> {
    segments
        .iter()
        .map(|&(a, b)| {
            (
                Point::new(a.x + Um(dx), a.y + Um(dy)),
                Point::new(b.x + Um(dx), b.y + Um(dy)),
            )
        })
        .collect()
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn predictors_are_deterministic(segments in arb_segments()) {
        for model in models() {
            let first = model.evaluate(&chip(), &segments);
            let second = model.evaluate(&chip(), &segments);
            prop_assert_eq!(
                first.to_bits(),
                second.to_bits(),
                "{} not deterministic",
                model.name()
            );
            let ra = model.raster(&chip(), &segments);
            let rb = model.raster(&chip(), &segments);
            prop_assert_eq!(ra.values(), rb.values());
        }
    }

    #[test]
    fn predictors_are_translation_invariant(
        segments in arb_segments(),
        dx in 0i64..=10,
        dy in 0i64..=10,
    ) {
        let shifted = translate(&segments, dx * PITCH, dy * PITCH);
        for model in models() {
            let base = model.evaluate(&chip(), &segments);
            let moved = model.evaluate(&chip(), &shifted);
            prop_assert_eq!(
                base.to_bits(),
                moved.to_bits(),
                "{} cost changed under translation",
                model.name()
            );
            let base_cells = sorted(model.raster(&chip(), &segments).values().to_vec());
            let moved_cells = sorted(model.raster(&chip(), &shifted).values().to_vec());
            prop_assert_eq!(
                base_cells,
                moved_cells,
                "{} demand map changed under translation",
                model.name()
            );
        }
    }

    #[test]
    fn rasters_agree_with_scalar_cost(segments in arb_segments()) {
        // The scalar cost is the top-10 % mean of the raster the model
        // reports — the two views must not drift apart.
        for model in models() {
            let cost = model.evaluate(&chip(), &segments);
            let raster = model.raster(&chip(), &segments);
            let rederived = top_fraction_mean(raster.values(), TOP_FRACTION);
            prop_assert_eq!(
                cost.to_bits(),
                rederived.to_bits(),
                "{} scalar cost disagrees with its raster",
                model.name()
            );
        }
    }
}

fn pt(x: i64, y: i64) -> Point {
    Point::new(Um(x), Um(y))
}

/// A degenerate input: `(label, chip, segments)`.
type Case = (&'static str, Rect, Vec<(Point, Point)>);

fn degenerate_cases() -> Vec<Case> {
    let square = chip();
    let strip = Rect::from_origin_size(Point::ORIGIN, Um(6000), Um(30));
    let tiny = Rect::from_origin_size(Point::ORIGIN, Um(10), Um(7));
    vec![
        ("no segments", square, vec![]),
        (
            "zero-length segment",
            square,
            vec![(pt(100, 100), pt(100, 100))],
        ),
        (
            "every endpoint in one bin",
            square,
            vec![
                (pt(31, 31), pt(59, 59)),
                (pt(35, 50), pt(50, 35)),
                (pt(40, 40), pt(40, 58)),
            ],
        ),
        (
            "endpoints on the far chip edge",
            square,
            vec![
                (pt(600, 600), pt(0, 0)),
                (pt(600, 300), pt(300, 600)),
                (pt(600, 0), pt(600, 600)),
            ],
        ),
        (
            "10x7 chip at pitch 30",
            tiny,
            vec![(pt(0, 0), pt(10, 7)), (pt(5, 0), pt(5, 7))],
        ),
        (
            "6000x30 strip",
            strip,
            vec![
                (pt(0, 0), pt(6000, 30)),
                (pt(100, 15), pt(5900, 15)),
                (pt(3000, 0), pt(3000, 30)),
            ],
        ),
    ]
}

#[test]
fn predictors_survive_degenerate_inputs() {
    for (label, chip, segments) in degenerate_cases() {
        let grid = UnitGrid::new(&chip, Um(PITCH));
        for model in models() {
            let cost = model.evaluate(&chip, &segments);
            assert!(cost.is_finite(), "{} on {label}: cost {cost}", model.name());
            let raster = model.raster(&chip, &segments);
            assert_eq!(
                (raster.cols() as i64, raster.rows() as i64),
                (grid.cols(), grid.rows()),
                "{} on {label}: raster dimensions",
                model.name()
            );
            assert!(
                raster.values().iter().all(|v| v.is_finite() && *v >= 0.0),
                "{} on {label}: {:?}",
                model.name(),
                raster.values()
            );
        }
    }
}
