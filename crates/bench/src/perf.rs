//! `congestion-perf` — throughput benchmark of the Irregular-Grid
//! evaluation engine, written as JSON to `BENCH_congestion.json`
//! (override with `--out`).
//!
//! On an annealed floorplan of the chosen circuit (ami49 by default, the
//! largest of the suite) it times one-shot `evaluate` calls (each a fresh
//! `IrDeltaEvaluator` rebase) and the congestion-weighted annealer end to
//! end (`sa_moves_per_s`), and records `cpu_count` with the numbers.
//!
//! With `--delta` the report additionally times the incremental
//! ([`DeltaProblem`](irgrid::anneal::DeltaProblem)) annealing loop and
//! re-verifies on the spot that every incremental cost is bit-identical
//! to from-scratch evaluation and that the delta loop reaches the full
//! loop's best cost bit for bit (`delta_equivalent`); the command aborts
//! rather than report a mismatching build.

use std::time::Instant;

use irgrid::anneal::{Annealer, DeltaProblem, Problem, Schedule};
use irgrid::congestion::{CongestionModel, IrregularGridModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::{Point, Rect, Um};
use irgrid::netlist::mcnc::McncCircuit;
use rand::SeedableRng;
use serde::Serialize;

use crate::common::{flag_value, Mode};

/// The JSON document `congestion-perf` emits.
#[derive(Debug, Serialize)]
struct Report {
    circuit: &'static str,
    /// Logical CPUs visible to the process.
    cpu_count: usize,
    /// Evaluations per timed pass.
    evaluations: usize,
    segments: usize,
    ir_cells: usize,
    /// One-shot `evaluate` throughput (a fresh session per call).
    maps_per_s: f64,
    /// Annealer throughput with the IR model in the cost loop.
    sa_moves: usize,
    sa_seconds: f64,
    sa_moves_per_s: f64,
    /// Runtime re-check that the incremental (`--delta`) loop scores
    /// bit-identically to from-scratch evaluation; the command aborts
    /// instead of reporting `false`. `None` without `--delta`.
    delta_equivalent: Option<bool>,
    /// Annealer throughput through the incremental delta loop.
    sa_delta_moves: Option<usize>,
    sa_delta_seconds: Option<f64>,
    sa_delta_moves_per_s: Option<f64>,
    /// `sa_delta_moves_per_s / sa_moves_per_s`.
    delta_speedup_vs_full: Option<f64>,
}

/// Times `repeats` passes of `evaluations` calls each and returns the
/// maps-per-second of the *fastest* pass — min-of-k filters out
/// scheduler and page-fault noise, which on a shared single-CPU host
/// easily exceeds the effect being measured.
fn throughput(evaluations: usize, repeats: usize, mut eval: impl FnMut() -> f64) -> f64 {
    // One untimed call warms caches so every pass is measured in steady
    // state.
    let warm = eval();
    assert!(warm.is_finite(), "benchmark evaluation produced {warm}");
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        for _ in 0..evaluations {
            std::hint::black_box(eval());
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    evaluations as f64 / best
}

/// Runs the benchmark and writes/prints the JSON report.
pub fn run(mode: &Mode, circuit: McncCircuit, args: &[String]) {
    let out_path = flag_value(args, "--out").unwrap_or("BENCH_congestion.json");
    let cpu_count = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quick = args.iter().any(|a| a == "--quick");
    let delta = args.iter().any(|a| a == "--delta");
    let (evaluations, repeats) = if quick { (20, 3) } else { (60, 5) };

    crate::common::header(&format!("congestion-perf ({})", circuit.name()), mode);

    // A realistic floorplan of the circuit: anneal area+wire briefly, the
    // same fixture the Criterion benches use.
    let netlist = circuit.circuit();
    let pitch = Um(circuit.paper_grid_pitch_um());
    let fixture = FloorplanProblem::new(
        &netlist,
        pitch,
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let fixture_run = Annealer::new(Schedule::quick()).run(&fixture, 4);
    let eval = fixture.evaluate(&fixture_run.best);
    let (chip, segments): (Rect, Vec<(Point, Point)>) = (eval.placement.chip(), eval.segments);

    let model = IrregularGridModel::new(pitch);
    let ir_cells = model.congestion_map(&chip, &segments).ir_cell_count();
    let maps_per_s = throughput(evaluations, repeats, || model.evaluate(&chip, &segments));

    // End-to-end annealer throughput with the congestion term active.
    let problem = FloorplanProblem::new(&netlist, pitch, Weights::routability(), Some(model));
    let sa_schedule = if quick {
        Schedule::quick()
    } else {
        mode.schedule
    };
    let sa_start = Instant::now();
    let sa_run = Annealer::new(sa_schedule).run(&problem, 7);
    let sa_seconds = sa_start.elapsed().as_secs_f64();
    let sa_moves = sa_run.stats.accepted + sa_run.stats.rejected;
    let sa_moves_per_s = sa_moves as f64 / sa_seconds;

    // --delta: verify bit-exact equivalence of the incremental loop, then
    // time it on the identical problem and seed.
    let mut delta_equivalent = None;
    let mut sa_delta_moves = None;
    let mut sa_delta_seconds = None;
    let mut sa_delta_moves_per_s = None;
    let mut delta_speedup_vs_full = None;
    if delta {
        // Hand-driven move protocol: every incremental cost must equal a
        // from-scratch rebase on an identical second problem, across a
        // mix of accepted and rejected moves. An assert (not a report
        // field flip) so a broken build can never publish timings.
        let incremental =
            FloorplanProblem::new(&netlist, pitch, Weights::routability(), Some(model));
        let scratch = FloorplanProblem::new(&netlist, pitch, Weights::routability(), Some(model));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xbe7c);
        let mut state = incremental.initial_state();
        let rebased = incremental.rebase(&state);
        assert_eq!(
            rebased.to_bits(),
            scratch.rebase(&state).to_bits(),
            "delta rebase diverged from from-scratch evaluation"
        );
        let checks = if quick { 24 } else { 60 };
        for step in 0..checks {
            let proposed = incremental.propose(&mut state, &mut rng);
            let reference = scratch.rebase(&state);
            assert_eq!(
                proposed.to_bits(),
                reference.to_bits(),
                "step {step}: incremental cost {proposed} != from-scratch {reference}"
            );
            if step % 3 == 0 {
                incremental.commit();
            } else {
                incremental.undo(&mut state);
            }
        }
        delta_equivalent = Some(true);

        let delta_start = Instant::now();
        let delta_run = Annealer::new(sa_schedule).run_delta(&problem, 7);
        let seconds = delta_start.elapsed().as_secs_f64();
        // One engine: the full and delta costs are the same bits, so the
        // two loops make the same decisions.
        assert_eq!(
            delta_run.best_cost.to_bits(),
            sa_run.best_cost.to_bits(),
            "delta loop diverged from the full loop"
        );
        let moves = delta_run.stats.accepted + delta_run.stats.rejected;
        sa_delta_moves = Some(moves);
        sa_delta_seconds = Some(seconds);
        let throughput = moves as f64 / seconds;
        sa_delta_moves_per_s = Some(throughput);
        delta_speedup_vs_full = Some(throughput / sa_moves_per_s);
    }

    let report = Report {
        circuit: circuit.name(),
        cpu_count,
        evaluations,
        segments: segments.len(),
        ir_cells,
        maps_per_s,
        sa_moves,
        sa_seconds,
        sa_moves_per_s,
        delta_equivalent,
        sa_delta_moves,
        sa_delta_seconds,
        sa_delta_moves_per_s,
        delta_speedup_vs_full,
    };
    crate::report::emit(out_path, &report);
}
