//! Spatial-agreement experiment (extension of Experiment 2).
//!
//! The paper's Experiment 2 compares scalar scores across annealing;
//! here we compare the congestion *pictures* cell by cell: each model's
//! map is rasterized onto a common 30 µm grid and compared against the
//! 10 µm judging map downsampled 3× — per-cell Pearson correlation,
//! scale-free MAE, and top-10 % hotspot overlap (Jaccard).

use irgrid::anneal::{Annealer, RunOptions, Schedule};
use irgrid::congestion::analysis::Raster;
use irgrid::congestion::{FixedGridModel, IrregularGridModel, LzShapeModel, SpatialCongestion};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

use crate::common::die;
use crate::metrics::{hotspot_jaccard, pearson, scaled_mae, MetricError};

pub fn run(bench: McncCircuit) {
    let circuit = bench.circuit();
    let pitch = Um(30);
    eprintln!("[heatmap] {bench}: producing a reference floorplan...");
    let problem = FloorplanProblem::new(
        &circuit,
        pitch,
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let result = Annealer::new(Schedule::quick())
        .run(&problem, 6, RunOptions::default())
        .expect("finite costs");
    let eval = problem.evaluate(&result.best);
    let chip = eval.placement.chip();
    let segments = &eval.segments;

    // Reference: the 10 um judging map downsampled onto the 30 um grid.
    let mut reference = FixedGridModel::new(Um(10))
        .raster(&chip, segments)
        .downsample(3);

    let candidates: Vec<(&str, Raster)> = vec![
        (
            "lz-shape 30um",
            LzShapeModel::new(pitch).raster(&chip, segments),
        ),
        (
            "fixed-grid 30um",
            FixedGridModel::new(pitch).raster(&chip, segments),
        ),
        (
            "irregular-grid 30um",
            IrregularGridModel::new(pitch).raster(&chip, segments),
        ),
    ];

    println!("\n=== Spatial agreement with the 10um judging map ({bench}) ===");
    println!(
        "{:<22} {:>10} {:>12} {:>16}",
        "model", "pearson", "scaled MAE", "hotspot Jaccard"
    );
    for (name, raster) in candidates {
        // Rasters may differ by one edge cell when the chip is not a
        // pitch multiple; crop the reference once to match.
        reference = crop(&reference, raster.cols(), raster.rows());
        let cropped = crop(&raster, reference.cols(), reference.rows());
        let (pearson, mae, jaccard) = agreement(&cropped, &reference)
            .unwrap_or_else(|why| die(&format!("heatmap {name}: {why}")));
        println!("{name:<22} {pearson:>10.4} {mae:>12.4} {jaccard:>16.4}");
    }
    println!("\n(the IR model should match the fine map about as well as the same-pitch");
    println!("fixed model, while evaluating far fewer regions — the paper's accuracy claim");
    println!("stated per cell instead of per score)");
}

/// Per-cell agreement of `candidate` with `reference`: Pearson
/// correlation, MAE after scaling `reference` to `candidate`'s mean, and
/// the Jaccard overlap of their top-10 % hotspot cells.
fn agreement(candidate: &Raster, reference: &Raster) -> Result<(f64, f64, f64), String> {
    let dims = (candidate.cols(), candidate.rows());
    let reference_dims = (reference.cols(), reference.rows());
    if dims != reference_dims {
        return Err(format!(
            "rasters differ in dimensions: {dims:?} vs {reference_dims:?}"
        ));
    }
    let (a, b) = (candidate.values(), reference.values());
    let why = |e: MetricError| e.to_string();
    Ok((
        pearson(a, b).map_err(why)?,
        scaled_mae(a, b).map_err(why)?,
        hotspot_jaccard(a, b, 0.1).map_err(why)?,
    ))
}

/// Crops a raster to at most `cols × rows` (top/right cells dropped).
fn crop(r: &Raster, cols: usize, rows: usize) -> Raster {
    let (cols, rows) = (cols.min(r.cols()), rows.min(r.rows()));
    if (cols, rows) == (r.cols(), r.rows()) {
        return r.clone();
    }
    let mut values = Vec::with_capacity(cols * rows);
    for y in 0..rows {
        for x in 0..cols {
            values.push(r.values()[y * r.cols() + x]);
        }
    }
    Raster::new(cols, rows, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid::geom::{Point, Rect};

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
    fn identical_rasters_agree_perfectly() {
        let r = FixedGridModel::new(Um(30)).raster(&chip(), &segments());
        let (pearson, mae, jaccard) = agreement(&r, &r).expect("same grid");
        assert!((pearson - 1.0).abs() < 1e-12);
        assert_eq!(mae, 0.0);
        assert_eq!(jaccard, 1.0);
    }

    #[test]
    fn anti_correlated_maps_score_low() {
        let a = Raster::new(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Raster::new(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let (pearson, _, jaccard) = agreement(&a, &b).expect("same grid");
        assert!(pearson < 0.0);
        assert_eq!(jaccard, 0.0);
    }

    #[test]
    fn ir_tracks_fixed_grid_spatially() {
        let fixed = FixedGridModel::new(Um(30)).raster(&chip(), &segments());
        let ir = IrregularGridModel::new(Um(30)).raster(&chip(), &segments());
        let (pearson, _, jaccard) = agreement(&fixed, &ir).expect("same grid");
        assert!(pearson > 0.5, "spatial correlation {pearson}");
        assert!(jaccard > 0.2, "hotspot overlap {jaccard}");
    }

    #[test]
    fn downsample_aligns_judging_raster() {
        let down = FixedGridModel::new(Um(10))
            .raster(&chip(), &segments())
            .downsample(3);
        let coarse = FixedGridModel::new(Um(30)).raster(&chip(), &segments());
        let (pearson, _, _) = agreement(&coarse, &down).expect("same grid");
        assert!(pearson > 0.7, "cross-pitch correlation {pearson}");
    }

    #[test]
    fn mismatched_dimensions_are_refused() {
        let a = Raster::new(2, 2, vec![0.0; 4]);
        let b = Raster::new(4, 1, vec![0.0; 4]);
        let why = agreement(&a, &b).expect_err("2x2 vs 4x1");
        assert!(why.contains("dimensions"), "{why}");
    }
}
