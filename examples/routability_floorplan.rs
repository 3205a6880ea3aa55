//! Routability-driven floorplanning (the paper's Experiment 1 in
//! miniature): anneal a benchmark once with area+wirelength only and once
//! with the Irregular-Grid congestion term added, then judge both
//! solutions with the 10 µm fixed-grid judging model.
//!
//! Run with:
//! `cargo run --release --example routability_floorplan [circuit] [seed]`

use std::time::Instant;

use irgrid::anneal::{Annealer, RunOptions, Schedule};
use irgrid::congestion::{CongestionModel, FixedGridModel, IrregularGridModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "hp".into());
    let seed: u64 = std::env::args().nth(2).map_or(Ok(1), |s| s.parse())?;
    let bench = McncCircuit::from_name(&name)
        .ok_or_else(|| format!("unknown circuit `{name}` (try apte/xerox/hp/ami33/ami49)"))?;
    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());
    let judging = FixedGridModel::judging();
    let annealer = Annealer::new(Schedule::quick());

    println!("circuit {circuit}, pitch {pitch}, seed {seed}\n");

    // Floorplanner A: area + wirelength only.
    let problem_aw = FloorplanProblem::new(
        &circuit,
        pitch,
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let t = Instant::now();
    let result_aw = annealer.run(&problem_aw, seed, RunOptions::default())?;
    let time_aw = t.elapsed();
    let eval_aw = problem_aw.evaluate(&result_aw.best);
    let judged_aw = judging.evaluate(&eval_aw.placement.chip(), &eval_aw.segments);

    // Floorplanner B: area + wirelength + IR-grid congestion.
    let problem_cgt = FloorplanProblem::new(
        &circuit,
        pitch,
        Weights::balanced(),
        Some(IrregularGridModel::new(pitch)),
    );
    let t = Instant::now();
    let result_cgt = annealer.run(&problem_cgt, seed, RunOptions::default())?;
    let time_cgt = t.elapsed();
    let eval_cgt = problem_cgt.evaluate(&result_cgt.best);
    let judged_cgt = judging.evaluate(&eval_cgt.placement.chip(), &eval_cgt.segments);

    println!(
        "{:<28} {:>12} {:>14} {:>10} {:>12}",
        "floorplanner", "area (mm^2)", "wire (um)", "time (s)", "judging cgt"
    );
    println!(
        "{:<28} {:>12.2} {:>14.0} {:>10.2} {:>12.6}",
        "area+wire",
        eval_aw.area_um2 / 1e6,
        eval_aw.wirelength_um,
        time_aw.as_secs_f64(),
        judged_aw
    );
    println!(
        "{:<28} {:>12.2} {:>14.0} {:>10.2} {:>12.6}",
        "area+wire+IR congestion",
        eval_cgt.area_um2 / 1e6,
        eval_cgt.wirelength_um,
        time_cgt.as_secs_f64(),
        judged_cgt
    );
    let improvement = 100.0 * (judged_aw - judged_cgt) / judged_aw.max(f64::MIN_POSITIVE);
    println!("\njudged congestion improvement: {improvement:.2}%");
    println!(
        "area penalty: {:+.2}%, wirelength change: {:+.2}%",
        100.0 * (eval_cgt.area_um2 - eval_aw.area_um2) / eval_aw.area_um2,
        100.0 * (eval_cgt.wirelength_um - eval_aw.wirelength_um)
            / eval_aw.wirelength_um.max(f64::MIN_POSITIVE),
    );
    Ok(())
}
