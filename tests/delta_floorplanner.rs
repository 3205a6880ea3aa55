//! End-to-end incremental (delta) floorplan evaluation on real MCNC
//! circuits: the delta annealing loop must reproduce the full-cost loop
//! bit for bit for any weights, and the
//! propose/commit/undo protocol must stay bit-identical to from-scratch
//! evaluation through long reject/undo chains and repeated moves of the
//! same module.

use irgrid::anneal::{Annealer, DeltaProblem, Problem, Schedule};
use irgrid::congestion::IrregularGridModel;
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs both annealing loops on apte from each seed and asserts they
/// make the same decisions and reach the same best cost bits.
fn assert_loops_agree(weights: Weights, schedule: Schedule, seeds: &[u64]) {
    let circuit = McncCircuit::Apte.circuit();
    let problem = FloorplanProblem::new(
        &circuit,
        Um(60),
        weights,
        Some(IrregularGridModel::new(Um(60))),
    );
    let annealer = Annealer::new(schedule);
    for &seed in seeds {
        let plain = annealer.run(&problem, seed);
        let delta = annealer.run_delta(&problem, seed);
        assert_eq!(plain.best, delta.best, "seed {seed}");
        assert_eq!(plain.best_cost.to_bits(), delta.best_cost.to_bits());
        assert_eq!(plain.stats, delta.stats);
        assert_eq!(plain.stop_reason, delta.stop_reason);
    }
}

#[test]
fn apte_gamma_zero_delta_run_matches_plain_run_bitwise() {
    assert_loops_agree(Weights::area_wire(), Schedule::quick(), &[1, 8]);
}

#[test]
fn apte_routability_delta_run_matches_plain_run_bitwise() {
    // With γ > 0 the congestion term is a fresh rebase on the full path
    // and a warm propose on the delta path: the same bits, so the two
    // loops still agree move for move.
    let schedule = Schedule {
        moves_per_temperature: 24,
        max_temperatures: 24,
        ..Schedule::quick()
    };
    assert_loops_agree(Weights::routability(), schedule, &[1, 8]);
}

#[test]
fn apte_delta_protocol_survives_reject_chains() {
    // Drive the protocol by hand with mostly-rejected moves: every
    // proposal must match a from-scratch rebase on a second, identical
    // problem, no matter how long the undo chain grows.
    let circuit = McncCircuit::Apte.circuit();
    let make = || {
        FloorplanProblem::new(
            &circuit,
            Um(60),
            Weights::routability(),
            Some(IrregularGridModel::new(Um(60))),
        )
    };
    let incremental = make();
    let scratch = make();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut state = incremental.initial_state();
    let rebased = incremental.rebase(&state);
    assert_eq!(rebased.to_bits(), scratch.rebase(&state).to_bits());
    for step in 0..80 {
        let proposed = incremental.propose(&mut state, &mut rng);
        assert_eq!(
            proposed.to_bits(),
            scratch.rebase(&state).to_bits(),
            "step {step}: incremental cost drifted from from-scratch"
        );
        // Accept only every fifth move: long rejected-move chains.
        if step % 5 == 0 {
            incremental.commit();
        } else {
            incremental.undo(&mut state);
        }
    }
}

#[test]
fn repeated_identical_moves_stay_exact() {
    // Re-propose the *same* move over and over: a fresh identically
    // seeded RNG each iteration makes `propose` perturb the same modules
    // every time — the tightest loop the changed-net diff sees. Alternate
    // reject (undo back to the anchor) and accept (commit, then keep
    // re-proposing the identical move from the new anchor).
    let circuit = McncCircuit::Apte.circuit();
    let make = || {
        FloorplanProblem::new(
            &circuit,
            Um(60),
            Weights::balanced(),
            Some(IrregularGridModel::new(Um(60))),
        )
    };
    let incremental = make();
    let scratch = make();
    let mut state = incremental.initial_state();
    let _ = incremental.rebase(&state);
    for step in 0..24 {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let proposed = incremental.propose(&mut state, &mut rng);
        assert_eq!(
            proposed.to_bits(),
            scratch.rebase(&state).to_bits(),
            "step {step}"
        );
        if step % 6 == 0 {
            incremental.commit();
        } else {
            incremental.undo(&mut state);
        }
    }
}

#[test]
fn ami33_delta_run_improves_and_stays_consistent() {
    let circuit = McncCircuit::Ami33.circuit();
    let problem = FloorplanProblem::new(
        &circuit,
        Um(30),
        Weights::routability(),
        Some(IrregularGridModel::new(Um(30))),
    );
    let initial = problem.rebase(&problem.initial_state());
    let result = Annealer::new(Schedule::quick()).run_delta(&problem, 7);
    assert!(
        result.best_cost < initial,
        "delta annealing failed to improve"
    );
    let eval = problem.evaluate(&result.best);
    assert!(eval.placement.check_consistency().is_none());
}
