//! Interrupt an annealing floorplan run, checkpoint it to disk, and
//! resume it bit-identically.
//!
//! ```text
//! cargo run -p irgrid --example checkpoint_resume
//! ```

use irgrid::anneal::{Annealer, Checkpoint, RunControl, RunOptions, Schedule, StopReason};
use irgrid::congestion::IrregularGridModel;
use irgrid::floorplan::PolishExpr;
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = McncCircuit::Apte.circuit();
    let problem = FloorplanProblem::try_new(
        &circuit,
        Um(30),
        Weights::balanced(),
        Some(IrregularGridModel::new(Um(30))),
    )?;
    let annealer = Annealer::try_new(Schedule::quick())?;
    let seed = 7;

    // The reference: one uninterrupted run.
    let uninterrupted = annealer.run(&problem, seed, RunOptions::default())?;
    println!(
        "uninterrupted: best cost {:.6}, {} temperature steps, stopped: {}",
        uninterrupted.best_cost, uninterrupted.stats.temperatures, uninterrupted.stop_reason
    );

    // The same run, interrupted by a move budget. Checkpoints go to disk
    // every 5 temperature steps; a real deployment would set a deadline or
    // wire the CancelToken to a signal handler instead.
    let path = std::env::temp_dir().join("irgrid_example.ckpt.json");
    let mut write = |checkpoint: &Checkpoint<PolishExpr>| {
        if let Err(err) = checkpoint.write_file(&path) {
            eprintln!("warning: {err}");
        }
    };
    let interrupted = annealer.run(
        &problem,
        seed,
        RunOptions {
            control: RunControl::unlimited()
                .with_checkpoint_every(5)
                .with_move_budget(1_200),
            checkpoints: Some(&mut write),
            resume: None,
        },
    )?;
    assert_eq!(interrupted.stop_reason, StopReason::MoveBudget);
    println!(
        "interrupted:   best cost {:.6} after {} steps, stopped: {}",
        interrupted.best_cost, interrupted.stats.temperatures, interrupted.stop_reason
    );

    // Resume from the file — in a fresh process this is all you need.
    let checkpoint: Checkpoint<PolishExpr> = Checkpoint::read_file(&path)?;
    println!(
        "resuming from step {} (temperature {:.4})...",
        checkpoint.steps_done, checkpoint.temperature
    );
    let resumed = annealer.run(
        &problem,
        seed,
        RunOptions {
            resume: Some(checkpoint),
            ..RunOptions::default()
        },
    )?;
    println!(
        "resumed:       best cost {:.6}, {} temperature steps, stopped: {}",
        resumed.best_cost, resumed.stats.temperatures, resumed.stop_reason
    );

    assert_eq!(resumed.best, uninterrupted.best);
    assert_eq!(resumed.best_cost, uninterrupted.best_cost);
    assert_eq!(resumed.stats, uninterrupted.stats);
    println!("resumed run is bit-identical to the uninterrupted run");

    std::fs::remove_file(&path).ok();
    Ok(())
}
