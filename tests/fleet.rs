//! Integration tests for the fleet orchestrator on the real
//! floorplanning stack, through the `irgrid` facade: worker-count
//! invariance of the whole outcome, pause/cancel + resume bit-identity,
//! and manifest durability.

use std::path::PathBuf;

use irgrid::anneal::{Annealer, CancelToken, FullCostDelta, Problem, Schedule};
use irgrid::congestion::IrregularGridModel;
use irgrid::fleet::{
    ExchangeMode, Fleet, FleetConfig, FleetManifest, FleetOptions, FleetOutcome, MANIFEST_FILE,
    TELEMETRY_FILE,
};
use irgrid::floorplan::PolishExpr;
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::generator::CircuitGenerator;
use irgrid::netlist::Circuit;
use proptest::prelude::*;

fn test_circuit() -> Circuit {
    CircuitGenerator::new("fleet", 6, 12)
        .total_area_um2(1.0e6)
        .seed(9)
        .generate()
        .expect("valid")
}

fn fleet_config(workers: usize) -> FleetConfig {
    FleetConfig {
        replicas: 3,
        workers,
        seed0: 0,
        sync_every: 8,
        mode: ExchangeMode::Ladder,
        ..FleetConfig::default()
    }
}

/// Runs a routability fleet (congestion term active) on `circuit`.
fn run_floorplan_fleet(
    circuit: &Circuit,
    workers: usize,
    options: &FleetOptions,
) -> FleetOutcome<PolishExpr> {
    let fleet =
        Fleet::new(Annealer::new(Schedule::quick()), fleet_config(workers)).expect("valid config");
    let build = || {
        FloorplanProblem::new(
            circuit,
            Um(30),
            Weights::routability(),
            Some(IrregularGridModel::new(Um(30))),
        )
    };
    fleet.run(build, options).expect("fleet run")
}

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irgrid_fleet_it_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn floorplan_fleet_is_bit_identical_across_worker_counts() {
    let circuit = test_circuit();
    let reference = run_floorplan_fleet(&circuit, 1, &FleetOptions::default());
    assert!(reference.complete);
    assert!(!reference.trace.is_empty(), "ladder mode exchanged");

    // The fleet best is the minimum of the per-replica bests.
    let min = reference
        .replicas
        .iter()
        .filter_map(|r| r.best_cost)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(reference.best_cost.to_bits(), min.to_bits());

    for workers in [2, 4] {
        let outcome = run_floorplan_fleet(&circuit, workers, &FleetOptions::default());
        assert!(
            outcome.deterministic_eq(&reference),
            "workers={workers} diverged from the 1-worker reference"
        );
    }
}

#[test]
fn paused_floorplan_fleet_resumes_to_the_uninterrupted_result() {
    let circuit = test_circuit();
    let reference = run_floorplan_fleet(&circuit, 2, &FleetOptions::default());
    let dir = scratch("pause");

    // First invocation: commit one round, then pause.
    let first = run_floorplan_fleet(
        &circuit,
        2,
        &FleetOptions {
            run_dir: Some(dir.clone()),
            pause_after_rounds: Some(1),
            ..FleetOptions::default()
        },
    );
    assert!(!first.complete);
    assert_eq!(first.rounds, 1);
    assert!(dir.join(MANIFEST_FILE).exists());

    // Resume one round at a time — every invocation is a separate
    // "process" seeing only the run directory — until the fleet finishes.
    let mut resumed = first;
    for _ in 0..100 {
        if resumed.complete {
            break;
        }
        resumed = run_floorplan_fleet(
            &circuit,
            2,
            &FleetOptions {
                run_dir: Some(dir.clone()),
                resume: true,
                pause_after_rounds: Some(1),
                ..FleetOptions::default()
            },
        );
    }
    assert!(resumed.complete, "fleet did not finish within 100 rounds");
    assert!(resumed.deterministic_eq(&reference));

    // The JSONL mirror holds exactly one line per telemetry event, even
    // though the history spans many invocations.
    let text = std::fs::read_to_string(dir.join(TELEMETRY_FILE)).expect("telemetry mirror");
    assert_eq!(text.lines().count(), resumed.events.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancelled_floorplan_fleet_resumes_to_the_same_result() {
    let circuit = test_circuit();
    let reference = run_floorplan_fleet(&circuit, 1, &FleetOptions::default());
    let dir = scratch("cancel");

    // Commit two rounds, then stop (the deterministic stand-in for a
    // kill signal between barriers).
    let first = run_floorplan_fleet(
        &circuit,
        2,
        &FleetOptions {
            run_dir: Some(dir.clone()),
            pause_after_rounds: Some(2),
            ..FleetOptions::default()
        },
    );
    assert!(!first.complete);

    // A resume under an already-cancelled token commits nothing.
    let token = CancelToken::new();
    token.cancel();
    let stalled = run_floorplan_fleet(
        &circuit,
        2,
        &FleetOptions {
            run_dir: Some(dir.clone()),
            resume: true,
            cancel: Some(token),
            ..FleetOptions::default()
        },
    );
    assert!(!stalled.complete);
    assert_eq!(stalled.rounds, first.rounds);
    assert!(stalled.deterministic_eq(&first));

    // An unconstrained resume lands on the uninterrupted trajectory.
    let resumed = run_floorplan_fleet(
        &circuit,
        2,
        &FleetOptions {
            run_dir: Some(dir.clone()),
            resume: true,
            ..FleetOptions::default()
        },
    );
    assert!(resumed.complete);
    assert!(resumed.deterministic_eq(&reference));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_manifest_roundtrips_and_validates() {
    let circuit = test_circuit();
    let dir = scratch("manifest");
    let outcome = run_floorplan_fleet(
        &circuit,
        2,
        &FleetOptions {
            run_dir: Some(dir.clone()),
            ..FleetOptions::default()
        },
    );
    assert!(outcome.complete);

    let manifest: FleetManifest<PolishExpr> =
        FleetManifest::read_file(&dir.join(MANIFEST_FILE)).expect("manifest");
    manifest
        .validate(&fleet_config(2), &Schedule::quick())
        .expect("self-consistent");
    assert_eq!(manifest.rounds_done, outcome.rounds);
    assert_eq!(manifest.events, outcome.events);
    assert_eq!(manifest.trace, outcome.trace);

    // The worker count is not part of result identity: a manifest from a
    // 2-worker run validates against any worker count.
    manifest
        .validate(&fleet_config(7), &Schedule::quick())
        .expect("workers ignored by result compatibility");
    std::fs::remove_dir_all(&dir).ok();
}

/// Discrete quadratic bowl — cheap enough for property sweeps.
struct Bowl;

impl Problem for Bowl {
    type State = i64;
    fn initial_state(&self) -> i64 {
        1000
    }
    fn cost(&self, s: &i64) -> f64 {
        ((s - 7) * (s - 7)) as f64
    }
    fn perturb<R: rand::Rng>(&self, s: &mut i64, rng: &mut R) {
        *s += rng.gen_range(-10..=10);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Worker-count invariance holds for arbitrary seeds and exchange
    /// cadences, in both exchange modes.
    #[test]
    fn bowl_fleet_worker_invariance_over_seeds(
        seed0 in 0u64..1_000,
        sync_every in 1usize..10,
        ladder in 0u8..2,
    ) {
        let config = FleetConfig {
            replicas: 4,
            workers: 1,
            seed0,
            sync_every,
            mode: if ladder == 1 { ExchangeMode::Ladder } else { ExchangeMode::Independent },
            ..FleetConfig::default()
        };
        let reference = Fleet::new(Annealer::new(Schedule::quick()), config)
            .expect("valid")
            .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
            .expect("run");
        for workers in [2, 3] {
            let outcome = Fleet::new(
                Annealer::new(Schedule::quick()),
                FleetConfig { workers, ..config },
            )
            .expect("valid")
            .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
            .expect("run");
            prop_assert!(outcome.deterministic_eq(&reference), "workers={}", workers);
        }
    }
}
