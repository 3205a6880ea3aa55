//! `fleet` — deterministic multi-replica annealing of one circuit via
//! `irgrid-fleet`, reported as JSON to `BENCH_fleet.json` (override with
//! `--out`).
//!
//! Runs `--replicas` seeded annealing replicas of the routability
//! floorplanner (`α·Area + β·Wire + γ·Congestion` with the Irregular-Grid
//! model at the paper pitch) over `--jobs` worker threads, with
//! temperature-ladder replica exchange every `--sync-every` temperature
//! steps (pass `--independent` to disable exchange). The fleet's outcome
//! is bit-identical for any `--jobs` value, which `tests/fleet.rs` pins.
//! Nothing in the report is timed, so without `--time-limit` it is a
//! function of the code and the flags: two runs write identical files.
//!
//! Crash recovery: `--run-dir DIR` persists the fleet manifest and the
//! JSONL telemetry mirror into DIR; a killed or `--time-limit`-paused run
//! continues with `--resume DIR` and lands on exactly the trajectory an
//! uninterrupted run takes.

use std::path::PathBuf;
use std::time::Instant;

use irgrid::anneal::Annealer;
use irgrid::congestion::{CongestionModel, FixedGridModel, IrregularGridModel};
use irgrid::fleet::{state_digest, ExchangeMode, Fleet, FleetConfig, FleetOptions, ReplicaSummary};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;
use serde::Serialize;

use crate::common::{die, header, Args, Mode};

/// The JSON document `fleet` emits.
#[derive(Debug, Serialize)]
struct Report {
    circuit: &'static str,
    exchange_mode: String,
    replicas: usize,
    jobs: usize,
    sync_every: usize,
    seed0: u64,
    /// Rounds committed over the fleet's whole lifetime (including
    /// rounds from earlier invocations when resuming).
    rounds: usize,
    /// `false` means the invocation paused (time limit) and the fleet can
    /// be resumed with `--resume <run-dir>`.
    complete: bool,
    best_replica: usize,
    /// The fleet-best annealing cost (normalized objective).
    best_cost: f64,
    /// FNV-1a digest of the fleet-best state's canonical JSON — lets two
    /// hosts compare results without shipping floorplans.
    best_state_digest: String,
    best_area_mm2: f64,
    best_wire_um: f64,
    /// The optimizing Irregular-Grid model's score of the best floorplan.
    best_model_cost: f64,
    /// The 10 µm fixed-grid judging model's score of the best floorplan.
    best_judging_cost: f64,
    exchanges_attempted: usize,
    exchanges_accepted: usize,
    replica_summaries: Vec<ReplicaSummary>,
}

/// The value of a `--flag <count>` argument, strictly positive.
fn count_flag(args: &Args, flag: &str, default: usize) -> usize {
    match args.value(flag) {
        Some(text) => {
            let count: usize = text
                .parse()
                .unwrap_or_else(|_| die(&format!("{flag} `{text}` is not a count")));
            if count == 0 {
                die(&format!("{flag} must be at least 1"));
            }
            count
        }
        None => default,
    }
}

/// Runs the fleet and writes/prints the JSON report.
pub fn run(mode: &Mode, bench: McncCircuit, args: &Args) {
    let defaults = FleetConfig::default();
    let replicas = count_flag(args, "--replicas", 4);
    let sync_every = count_flag(args, "--sync-every", defaults.sync_every);
    let seed0: u64 = match args.value("--seed0") {
        Some(text) => text
            .parse()
            .unwrap_or_else(|_| die(&format!("--seed0 `{text}` is not a seed"))),
        None => 0,
    };
    let out_path = args.value("--out").unwrap_or("BENCH_fleet.json");
    let exchange_mode = if args.has("--independent") {
        ExchangeMode::Independent
    } else {
        ExchangeMode::Ladder
    };
    // `--resume DIR` (parsed into the shared fault options) doubles as the
    // run directory; otherwise `--run-dir DIR` persists without resuming.
    let (run_dir, resume) = match mode.fault.resume_dir {
        Some(dir) => (Some(PathBuf::from(dir)), true),
        None => (args.value("--run-dir").map(PathBuf::from), false),
    };

    header(&format!("fleet ({})", bench.name()), mode);
    println!(
        "replicas: {replicas}  jobs: {}  sync-every: {sync_every}  exchange: {exchange_mode}",
        mode.jobs
    );

    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());
    let weights = Weights::routability();
    let model = IrregularGridModel::new(pitch);
    let problem =
        FloorplanProblem::try_new(&circuit, pitch, weights, Some(model)).unwrap_or_else(|err| {
            die(&format!(
                "invalid floorplan configuration for {}: {err}",
                bench.name()
            ))
        });

    let config = FleetConfig {
        replicas,
        workers: mode.jobs,
        seed0,
        sync_every,
        mode: exchange_mode,
        ..defaults
    };
    let fleet = Fleet::new(Annealer::new(mode.schedule), config)
        .unwrap_or_else(|err| die(&format!("invalid fleet configuration: {err}")));
    let options = FleetOptions {
        run_dir,
        resume,
        cancel: None,
        time_limit: mode
            .fault
            .deadline
            .map(|deadline| deadline.saturating_duration_since(Instant::now())),
        pause_after_rounds: None,
    };

    let outcome = fleet
        .run(
            || FloorplanProblem::new(&circuit, pitch, weights, Some(model)),
            &options,
        )
        .unwrap_or_else(|err| die(&format!("fleet run on {} failed: {err}", bench.name())));
    if !outcome.complete {
        eprintln!(
            "time limit reached on {}; fleet paused (resume with --resume <run-dir>)",
            bench.name()
        );
    }

    // Judge the fleet-best floorplan exactly as the experiment tables do.
    let eval = problem.evaluate(&outcome.best);
    let judging_cost = FixedGridModel::judging().evaluate(&eval.placement.chip(), &eval.segments);

    let report = Report {
        circuit: bench.name(),
        exchange_mode: exchange_mode.to_string(),
        replicas,
        jobs: mode.jobs,
        sync_every,
        seed0,
        rounds: outcome.rounds,
        complete: outcome.complete,
        best_replica: outcome.best_replica,
        best_cost: outcome.best_cost,
        best_state_digest: state_digest(&outcome.best),
        best_area_mm2: eval.area_um2 / 1e6,
        best_wire_um: eval.wirelength_um,
        best_model_cost: eval.congestion,
        best_judging_cost: judging_cost,
        exchanges_attempted: outcome.trace.len(),
        exchanges_accepted: outcome.trace.iter().filter(|d| d.accepted).count(),
        replica_summaries: outcome.replicas.clone(),
    };
    crate::report::emit(out_path, &report);
}
