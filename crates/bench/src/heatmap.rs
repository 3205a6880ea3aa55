//! Spatial-agreement experiment (extension of Experiment 2).
//!
//! The paper's Experiment 2 compares scalar scores across annealing;
//! here we compare the congestion *pictures* cell by cell: each model's
//! map is rasterized onto a common 30 µm grid and compared against the
//! 10 µm judging map downsampled 3× — per-cell Pearson correlation,
//! scale-free MAE, and top-10 % hotspot overlap (Jaccard).

use irgrid::anneal::{Annealer, RunOptions, Schedule};
use irgrid::congestion::analysis::{compare, Raster};
use irgrid::congestion::{FixedGridModel, IrregularGridModel, LzShapeModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

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
    let judging = FixedGridModel::new(Um(10)).congestion_map(&chip, segments);
    let mut reference = Raster::from_fixed(&judging).downsample(3);

    let candidates: Vec<(&str, Raster)> = vec![
        (
            "lz-shape 30um",
            Raster::from_lz(&LzShapeModel::new(pitch).congestion_map(&chip, segments)),
        ),
        (
            "fixed-grid 30um",
            Raster::from_fixed(&FixedGridModel::new(pitch).congestion_map(&chip, segments)),
        ),
        (
            "irregular-grid 30um",
            Raster::from_ir(&IrregularGridModel::new(pitch).congestion_map(&chip, segments)),
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
        let c = compare(&cropped, &reference, 0.1);
        println!(
            "{:<22} {:>10.4} {:>12.4} {:>16.4}",
            name, c.pearson, c.scaled_mae, c.hotspot_jaccard
        );
    }
    println!("\n(the IR model should match the fine map about as well as the same-pitch");
    println!("fixed model, while evaluating far fewer regions — the paper's accuracy claim");
    println!("stated per cell instead of per score)");
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
