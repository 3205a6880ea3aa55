//! Model comparison: score one floorplan with the fixed-size-grid model
//! at several pitches and with the Irregular-Grid model (approximate and
//! exact evaluators), reporting cell counts, costs and evaluation times —
//! the trade-off the paper's figure 3/4 motivates and Experiment 3
//! quantifies.
//!
//! Run with: `cargo run --release --example model_comparison [circuit]`

use std::time::Instant;

use irgrid::anneal::{Annealer, RunOptions, Schedule};
use irgrid::congestion::{Evaluator, FixedGridModel, IrregularGridModel, LzShapeModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ami33".into());
    let bench = McncCircuit::from_name(&name)
        .ok_or_else(|| format!("unknown circuit `{name}` (try apte/xerox/hp/ami33/ami49)"))?;
    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());

    // Get a reasonable floorplan first.
    let problem = FloorplanProblem::new(
        &circuit,
        pitch,
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let result = Annealer::new(Schedule::quick()).run(&problem, 3, RunOptions::default())?;
    let eval = problem.evaluate(&result.best);
    let chip = eval.placement.chip();
    let segments = &eval.segments;
    println!(
        "{}: chip {:.2} mm^2, {} segments\n",
        bench,
        chip.area().as_mm2(),
        segments.len()
    );

    println!(
        "{:<34} {:>8} {:>12} {:>12}",
        "model", "cells", "cost", "eval (ms)"
    );

    // Fixed-size grids at several pitches (repeat evaluations to get a
    // stable timing).
    for p in [100i64, 50, 30, 10] {
        let model = FixedGridModel::new(Um(p));
        let t = Instant::now();
        let reps = if p >= 50 { 20 } else { 5 };
        let mut map = model.congestion_map(&chip, segments);
        for _ in 1..reps {
            map = model.congestion_map(&chip, segments);
        }
        let ms = t.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        println!(
            "{:<34} {:>8} {:>12.5} {:>12.3}",
            format!("fixed {p}x{p} um"),
            map.cell_count(),
            map.cost(),
            ms
        );
    }

    // The L/Z-shape ensemble of Lou et al. [3] at the paper pitch.
    {
        let model = LzShapeModel::new(pitch);
        let t = Instant::now();
        let reps = 20;
        let mut map = model.congestion_map(&chip, segments);
        for _ in 1..reps {
            map = model.congestion_map(&chip, segments);
        }
        let ms = t.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        println!(
            "{:<34} {:>8} {:>12.5} {:>12.3}",
            format!("lz-shape {}x{} um", pitch.0, pitch.0),
            map.values().len(),
            map.cost(),
            ms
        );
    }

    // Irregular-Grid, approximate (production) and exact (ablation).
    for (label, evaluator) in [
        ("irregular (Theorem 1 approx)", Evaluator::Approximate),
        ("irregular (exact Formula 3)", Evaluator::Exact),
    ] {
        let model = IrregularGridModel::new(pitch).with_evaluator(evaluator);
        let t = Instant::now();
        let reps = 20;
        let mut map = model.congestion_map(&chip, segments);
        for _ in 1..reps {
            map = model.congestion_map(&chip, segments);
        }
        let ms = t.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        println!(
            "{:<34} {:>8} {:>12.5} {:>12.3}",
            label,
            map.ir_cell_count(),
            map.cost(),
            ms
        );
    }

    Ok(())
}
