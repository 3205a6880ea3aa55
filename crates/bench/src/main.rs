//! `repro` — regenerates every table and figure of the DATE 2004
//! Irregular-Grid congestion paper on the synthetic MCNC-like suite.
//!
//! ```text
//! cargo run -p irgrid-bench --release --bin repro -- <command> [flags]
//!
//! commands:
//!   table1      Table 1  (area+wire floorplanner, judged)
//!   table2      Table 2  (with the IR congestion term, judged)
//!   table3      Tables 1+2+3 (the comparison needs both)
//!   table45     Tables 4+5 (congestion-only, IR vs fixed grids)
//!   figure8     Figure 8 (approximation accuracy; no annealing)
//!   figure9     Figure 9 (per-temperature model tracking)
//!   motivation  Figures 3/4 analogue (grid-size dependence)
//!   ablation    Design-choice ablations (no annealing)
//!   heatmap     Per-cell spatial agreement vs the judging map (extension)
//!   sweep       Pitch-sensitivity sweep of the IR model (extension)
//!   validate    Router-validation correlations (extension)
//!   compare-all Accuracy-vs-speed matrix: every predictor (probabilistic
//!               + structural) vs PathFinder and staircase routed ground
//!               truth on MCNC + synthetic circuits (BENCH_models.json;
//!               --quick: apte + the 1k synthetic only)
//!   fleet       Multi-replica annealing via irgrid-fleet (BENCH_fleet.json)
//!   all         Everything above (except compare-all and fleet)
//!
//! flags (any other flag exits 2):
//!   --quick           2 seeds, short schedule (smoke run)
//!   --full            20 seeds, classic schedule (paper protocol)
//!   --circuit X       restrict exp1 to one circuit (apte/xerox/hp/ami33/ami49)
//!   --jobs N          run seeded batches / fleet replicas over N worker
//!                     threads (default 1; results are bit-identical)
//!   --time-limit S    stop annealing after S seconds (partial results kept)
//!   --checkpoint DIR  write per-run checkpoints into DIR every 10 steps
//!   --resume DIR      resume runs from matching checkpoints in DIR
//!                     (for fleet: resume from the fleet manifest in DIR)
//!   --out FILE        report path (compare-all, fleet)
//!
//! fleet flags:
//!   --replicas N        annealing replicas (default 4)
//!   --sync-every N      temperature steps between exchange barriers
//!   --seed0 N           seed of replica 0 (replica k anneals with seed0+k)
//!   --independent       disable temperature-ladder replica exchange
//!   --run-dir DIR       persist manifest + telemetry into DIR
//! ```

mod ablation;
mod common;
mod compare;
mod exp1;
mod exp3;
mod figure8;
mod figure9;
mod fleet;
#[cfg(test)]
mod golden;
mod heatmap;
mod metrics;
mod motivation;
mod report;
mod sweep;
mod validate;

use common::{die, Args, Mode};
use irgrid::netlist::mcnc::McncCircuit;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw).unwrap_or_else(|why| die(&why));
    let mode = Mode::from_args(&args);

    let circuits: Vec<McncCircuit> = match args.value("--circuit") {
        Some(name) => {
            let Some(circuit) = McncCircuit::from_name(name) else {
                die(&format!(
                    "unknown circuit `{name}` (expected apte/xerox/hp/ami33/ami49)"
                ));
            };
            vec![circuit]
        }
        None => McncCircuit::ALL.to_vec(),
    };
    // Experiments 2 and 3 use ami33 in the paper (or the chosen circuit).
    let single = circuits
        .first()
        .copied()
        .filter(|_| circuits.len() == 1)
        .unwrap_or(McncCircuit::Ami33);

    match args.command.as_str() {
        "table1" => {
            let results = exp1::run(&mode, &circuits);
            exp1::print_table1(&results, &mode);
        }
        "table2" => {
            let results = exp1::run(&mode, &circuits);
            exp1::print_table2(&results, &mode);
        }
        "table3" | "exp1" => {
            let results = exp1::run(&mode, &circuits);
            exp1::print_table1(&results, &mode);
            exp1::print_table2(&results, &mode);
            exp1::print_table3(&results, &mode);
        }
        "table45" | "exp3" => exp3::run(&mode, single),
        "figure8" => figure8::run(),
        "figure9" | "exp2" => figure9::run(&mode, single),
        "motivation" => motivation::run(),
        "ablation" => ablation::run(single),
        "heatmap" => heatmap::run(single),
        "sweep" => sweep::run(single),
        "compare-all" => compare::run(&args),
        "fleet" => {
            // Fleet smoke runs default to the smallest circuit unless one
            // was picked explicitly with --circuit.
            let fleet_circuit = circuits
                .first()
                .copied()
                .filter(|_| circuits.len() == 1)
                .unwrap_or(McncCircuit::Apte);
            fleet::run(&mode, fleet_circuit, &args);
        }
        "validate" => {
            let n = if args.has("--quick") { 6 } else { 12 };
            validate::run(single, n);
        }
        "all" => {
            figure8::run();
            motivation::run();
            ablation::run(single);
            heatmap::run(single);
            sweep::run(single);
            validate::run(single, 10);
            let results = exp1::run(&mode, &circuits);
            exp1::print_table1(&results, &mode);
            exp1::print_table2(&results, &mode);
            exp1::print_table3(&results, &mode);
            figure9::run(&mode, single);
            exp3::run(&mode, single);
        }
        other => die(&format!(
            "unknown command `{other}`; see the help text in the source header"
        )),
    }
}
