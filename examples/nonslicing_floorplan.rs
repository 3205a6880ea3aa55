//! Non-slicing floorplanning: anneal the same benchmark with the paper's
//! slicing representation (normalized Polish expressions) and with
//! sequence pairs, both driven by the Irregular-Grid congestion model —
//! demonstrating that the model is representation-agnostic.
//!
//! Run with:
//! `cargo run --release --example nonslicing_floorplan [circuit] [seed]`

use std::time::Instant;

use irgrid::anneal::{Annealer, RunOptions, Schedule};
use irgrid::congestion::{CongestionModel, FixedGridModel, IrregularGridModel};
use irgrid::floorplan::{PolishExpr, SequencePair};
use irgrid::floorplanner::{FloorplanEval, FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

fn report(label: &str, eval: &FloorplanEval, judged: f64, seconds: f64) {
    println!(
        "{label:<28} area {:>7.3} mm^2, wire {:>9.0} um, IR cgt {:>7.4}, judged {:>9.6}, {:>5.1} s",
        eval.area_um2 / 1e6,
        eval.wirelength_um,
        eval.congestion,
        judged,
        seconds
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ami33".into());
    let seed: u64 = std::env::args().nth(2).map_or(Ok(7), |s| s.parse())?;
    let bench = McncCircuit::from_name(&name)
        .ok_or_else(|| format!("unknown circuit `{name}` (try apte/xerox/hp/ami33/ami49)"))?;
    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());
    let judging = FixedGridModel::judging();
    let annealer = Annealer::new(Schedule::quick());
    println!("{circuit}, pitch {pitch}, seed {seed}\n");

    // Slicing (the paper's representation).
    let slicing: FloorplanProblem<'_, IrregularGridModel, PolishExpr> =
        FloorplanProblem::with_representation(
            &circuit,
            pitch,
            Weights::routability(),
            Some(IrregularGridModel::new(pitch)),
        );
    let t = Instant::now();
    let result = annealer.run(&slicing, seed, RunOptions::default())?;
    let eval = slicing.evaluate(&result.best);
    let judged = judging.evaluate(&eval.placement.chip(), &eval.segments);
    report(
        "Polish expression (slicing)",
        &eval,
        judged,
        t.elapsed().as_secs_f64(),
    );

    // Sequence pair (non-slicing).
    let seqpair: FloorplanProblem<'_, IrregularGridModel, SequencePair> =
        FloorplanProblem::with_representation(
            &circuit,
            pitch,
            Weights::routability(),
            Some(IrregularGridModel::new(pitch)),
        );
    let t = Instant::now();
    let result = annealer.run(&seqpair, seed, RunOptions::default())?;
    let eval = seqpair.evaluate(&result.best);
    let judged = judging.evaluate(&eval.placement.chip(), &eval.segments);
    report(
        "sequence pair (non-slicing)",
        &eval,
        judged,
        t.elapsed().as_secs_f64(),
    );

    println!("\nboth floorplanners share the cost function and congestion model;");
    println!("only the move set / packing differ.");
    Ok(())
}
