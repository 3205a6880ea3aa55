//! Integration tests for the fault-tolerance layer: checkpoint/resume
//! bit-identity across the stack, control limits, and cost-validity
//! guards on the real floorplanning problem.

use std::sync::OnceLock;

use irgrid::anneal::{
    AnnealError, AnnealResult, Annealer, CancelToken, Checkpoint, CheckpointIoError, DeltaProblem,
    FullCostDelta, Problem, RunControl, RunOptions, Schedule, StopReason,
};
use irgrid::congestion::IrregularGridModel;
use irgrid::floorplan::{Element, PolishExpr};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::generator::CircuitGenerator;
use irgrid::netlist::Circuit;
use proptest::prelude::*;

/// Discrete quadratic bowl — cheap enough for wide property sweeps.
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

fn run<P: DeltaProblem>(
    annealer: &Annealer,
    problem: &P,
    seed: u64,
    options: RunOptions<'_, P::State>,
) -> AnnealResult<P::State> {
    annealer
        .run(problem, seed, options)
        .expect("finite costs, valid checkpoint")
}

fn controlled<S>(control: RunControl) -> RunOptions<'static, S> {
    RunOptions {
        control,
        ..RunOptions::default()
    }
}

fn resuming<S>(checkpoint: Checkpoint<S>) -> RunOptions<'static, S> {
    RunOptions {
        resume: Some(checkpoint),
        ..RunOptions::default()
    }
}

fn test_circuit() -> Circuit {
    CircuitGenerator::new("ft", 8, 16)
        .total_area_um2(1.0e6)
        .seed(3)
        .generate()
        .expect("valid")
}

fn ir_problem(circuit: &Circuit) -> FloorplanProblem<'_, IrregularGridModel> {
    FloorplanProblem::new(
        circuit,
        Um(30),
        Weights::balanced(),
        Some(IrregularGridModel::new(Um(30))),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any checkpoint of a Bowl run resumes to exactly the uninterrupted
    /// outcome, for arbitrary seeds and cadences.
    #[test]
    fn bowl_resume_is_bit_identical(seed in 0u64..10_000, cadence in 1usize..9) {
        let annealer = Annealer::new(Schedule::quick());
        let bowl = FullCostDelta::new(&Bowl);
        let uninterrupted = run(&annealer, &bowl, seed, RunOptions::default());

        let mut checkpoints = Vec::new();
        run(&annealer, &bowl, seed, RunOptions {
            control: RunControl::unlimited().with_checkpoint_every(cadence),
            checkpoints: Some(&mut |c| checkpoints.push(c.clone())),
            resume: None,
        });
        prop_assert!(!checkpoints.is_empty());

        for checkpoint in checkpoints {
            let resumed = run(&annealer, &bowl, seed, resuming(checkpoint));
            prop_assert_eq!(resumed.best, uninterrupted.best);
            prop_assert_eq!(resumed.best_cost, uninterrupted.best_cost);
            prop_assert_eq!(resumed.stats, uninterrupted.stats);
            prop_assert_eq!(resumed.stop_reason, uninterrupted.stop_reason);
        }
    }

    /// A move budget always stops with exactly the budgeted number of
    /// proposals, and the partial stats are consistent.
    #[test]
    fn bowl_move_budget_is_exact(seed in 0u64..10_000, budget in 1u64..2_000) {
        let annealer = Annealer::new(Schedule::quick());
        let result = run(
            &annealer,
            &FullCostDelta::new(&Bowl),
            seed,
            controlled(RunControl::unlimited().with_move_budget(budget)),
        );
        let proposed = (result.stats.accepted + result.stats.rejected) as u64;
        if result.stop_reason == StopReason::MoveBudget {
            prop_assert_eq!(proposed, budget);
        } else {
            // The schedule finished before the budget ran out.
            prop_assert!(proposed <= budget);
            prop_assert!(result.stop_reason.is_natural());
        }
    }
}

proptest! {
    // Floorplan annealing is ~10⁴ packings per run; keep the sweep narrow.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Checkpoint/resume bit-identity holds on the real floorplanning
    /// problem, through a JSON round-trip of the checkpoint.
    #[test]
    fn floorplan_resume_is_bit_identical(seed in 0u64..1_000) {
        let circuit = test_circuit();
        let problem = ir_problem(&circuit);
        let annealer = Annealer::new(Schedule::quick());
        let uninterrupted = run(&annealer, &problem, seed, RunOptions::default());

        let mut middle: Option<String> = None;
        run(&annealer, &problem, seed, RunOptions {
            control: RunControl::unlimited().with_checkpoint_every(7),
            checkpoints: Some(&mut |c| {
                if middle.is_none() {
                    middle = Some(c.to_json());
                }
            }),
            resume: None,
        });
        let json = middle.expect("run long enough to checkpoint");
        let checkpoint: Checkpoint<PolishExpr> =
            Checkpoint::from_json(&json).expect("parse");
        let resumed = run(&annealer, &problem, seed, resuming(checkpoint));
        prop_assert_eq!(resumed.best, uninterrupted.best);
        prop_assert_eq!(resumed.best_cost, uninterrupted.best_cost);
        prop_assert_eq!(resumed.stats, uninterrupted.stats);
    }
}

#[test]
fn floorplan_run_survives_interrupt_then_resume_to_same_answer() {
    // The headline acceptance scenario: interrupt a floorplan run with a
    // move budget, resume from its last checkpoint, and get the same
    // best/cost/stats as never having been interrupted.
    let circuit = test_circuit();
    let problem = ir_problem(&circuit);
    let annealer = Annealer::new(Schedule::quick());
    let uninterrupted = run(&annealer, &problem, 11, RunOptions::default());

    // Interrupt halfway through: strictly fewer moves than the full run,
    // so the budget is guaranteed to trip.
    let total_moves = (uninterrupted.stats.accepted + uninterrupted.stats.rejected) as u64;
    let mut last: Option<Checkpoint<PolishExpr>> = None;
    let interrupted = run(
        &annealer,
        &problem,
        11,
        RunOptions {
            control: RunControl::unlimited()
                .with_checkpoint_every(1)
                .with_move_budget(total_moves / 2),
            checkpoints: Some(&mut |c| last = Some(c.clone())),
            resume: None,
        },
    );
    assert_eq!(interrupted.stop_reason, StopReason::MoveBudget);
    let checkpoint = last.expect("checkpointed before the budget ran out");

    let resumed = run(&annealer, &problem, 11, resuming(checkpoint));
    assert_eq!(resumed.best, uninterrupted.best);
    assert_eq!(resumed.best_cost, uninterrupted.best_cost);
    assert_eq!(resumed.stats, uninterrupted.stats);
    assert_eq!(resumed.stop_reason, uninterrupted.stop_reason);
}

#[test]
fn cancellation_across_threads_stops_the_floorplanner() {
    let circuit = test_circuit();
    let problem = ir_problem(&circuit);
    let token = CancelToken::new();
    let canceller = token.clone();
    // Cancel from another thread while the run is in flight.
    let handle = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(20));
        canceller.cancel();
    });
    let annealer = Annealer::new(Schedule {
        max_temperatures: 100_000,
        min_temperature_ratio: 1e-12,
        ..Schedule::default()
    });
    let result = run(
        &annealer,
        &problem,
        1,
        controlled(RunControl::unlimited().with_cancel_token(token)),
    );
    handle.join().expect("canceller thread");
    assert_eq!(result.stop_reason, StopReason::Cancelled);
    // The partial result is still a valid floorplan.
    let eval = problem.evaluate(&result.best);
    assert!(eval.placement.check_consistency().is_none());
}

#[test]
fn resume_on_different_problem_diverges_but_never_corrupts() {
    // Resuming with a *different* schedule is refused outright.
    let circuit = test_circuit();
    let problem = ir_problem(&circuit);
    let annealer = Annealer::new(Schedule::quick());
    let mut checkpoint: Option<Checkpoint<PolishExpr>> = None;
    run(
        &annealer,
        &problem,
        5,
        RunOptions {
            control: RunControl::unlimited().with_checkpoint_every(1),
            checkpoints: Some(&mut |c| {
                if checkpoint.is_none() {
                    checkpoint = Some(c.clone());
                }
            }),
            resume: None,
        },
    );
    let other = Annealer::new(Schedule::default());
    let err = other
        .run(&problem, 5, resuming(checkpoint.expect("one checkpoint")))
        .unwrap_err();
    assert_eq!(err, AnnealError::ScheduleMismatch);
}

/// A problem that turns NaN after enough perturbations — the floorplan
/// stack's guard behavior, exercised end-to-end through the facade.
struct EventuallyNan;

impl Problem for EventuallyNan {
    type State = u32;
    fn initial_state(&self) -> u32 {
        0
    }
    fn cost(&self, s: &u32) -> f64 {
        if *s > 400 {
            f64::NAN
        } else {
            f64::from(1000 - s)
        }
    }
    fn perturb<R: rand::Rng>(&self, s: &mut u32, rng: &mut R) {
        *s += rng.gen_range(0..=2);
    }
}

#[test]
fn nan_mid_run_reports_cost_error_and_keeps_finite_best() {
    let annealer = Annealer::new(Schedule::quick());
    let result = run(
        &annealer,
        &FullCostDelta::new(&EventuallyNan),
        3,
        RunOptions::default(),
    );
    assert_eq!(result.stop_reason, StopReason::CostError);
    assert!(result.best <= 400, "best {} is poisoned", result.best);
    assert!(result.best_cost.is_finite());
}

/// A short schedule for the corrupt-checkpoint tests, so a resume is
/// cheap enough to run once per fuzz case.
fn short_schedule() -> Schedule {
    Schedule {
        max_temperatures: 4,
        ..Schedule::quick()
    }
}

/// The first checkpoint of a seed-3 run on [`test_circuit`], as JSON.
fn first_checkpoint() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let circuit = test_circuit();
        let mut first: Option<String> = None;
        run(
            &Annealer::new(short_schedule()),
            &ir_problem(&circuit),
            3,
            RunOptions {
                control: RunControl::unlimited().with_checkpoint_every(1),
                checkpoints: Some(&mut |c| {
                    first.get_or_insert_with(|| c.to_json());
                }),
                resume: None,
            },
        );
        first.expect("run long enough to checkpoint")
    })
}

/// `json` with the first operand of its `current` expression set to `id`.
fn with_first_current_operand(json: &str, id: u32) -> String {
    let key = "\"Operand\": ";
    let current = json.find("\"current\"").expect("a current field");
    let at = current + json[current..].find(key).expect("an operand") + key.len();
    let end = at
        + json[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("the id ends");
    format!("{}{id}{}", &json[..at], &json[end..])
}

fn assert_parse_error(json: &str) {
    let parsed = Checkpoint::<PolishExpr>::from_json(json);
    assert!(
        matches!(parsed, Err(CheckpointIoError::Parse(_))),
        "{parsed:?}"
    );
}

#[test]
fn checkpoint_with_an_operand_equal_to_the_module_count_fails_to_parse() {
    // Module ids run 0..8. An id of 8 used to parse and then index past
    // the module list inside `pack` on resume.
    assert_parse_error(&with_first_current_operand(first_checkpoint(), 8));
}

#[test]
fn checkpoint_with_a_duplicated_operand_fails_to_parse() {
    // A duplicated id used to parse and resume a floorplan that places
    // one module twice and another not at all.
    let json = first_checkpoint();
    let checkpoint = Checkpoint::<PolishExpr>::from_json(json).expect("parse");
    // Balloting makes the second element an operand too.
    let Element::Operand(second) = checkpoint.current.elements()[1] else {
        panic!("the second element is an operand");
    };
    assert_parse_error(&with_first_current_operand(json, second.0));
}

#[test]
fn every_prefix_of_a_checkpoint_fails_to_parse() {
    let json = first_checkpoint();
    assert!(Checkpoint::<PolishExpr>::from_json(json).is_ok());
    for cut in 0..json.len() {
        assert_parse_error(&json[..cut]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One byte anywhere in a checkpoint, flipped in one of its five low
    /// bits, ends in a parse error, a typed `AnnealError`, or a resumed
    /// run with a valid best floorplan; never in a panic. Low-bit flips
    /// keep the text ASCII and turn digits into other digits.
    #[test]
    fn checkpoint_byte_flips_never_panic(at in 0usize..4096, bit in 0u8..5) {
        let mut bytes = first_checkpoint().as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
        if let Ok(checkpoint) = Checkpoint::<PolishExpr>::from_json(&text) {
            let circuit = test_circuit();
            let resumed = Annealer::new(short_schedule()).run(
                &ir_problem(&circuit),
                3,
                resuming(checkpoint),
            );
            if let Ok(result) = resumed {
                prop_assert!(result.best.is_valid());
                prop_assert_eq!(result.best.operand_count(), circuit.modules().len());
            }
        }
    }
}
