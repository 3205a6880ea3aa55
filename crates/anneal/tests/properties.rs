//! Property-based tests of the annealing engine's contracts.

use irgrid_anneal::{AnnealResult, Annealer, FullCostDelta, Problem, RunOptions, Schedule};
use proptest::prelude::*;
use rand::Rng;

/// A rugged 1-D landscape parameterized by test inputs.
struct Rugged {
    offset: i64,
    ripple: f64,
}

impl Problem for Rugged {
    type State = i64;
    fn initial_state(&self) -> i64 {
        500
    }
    fn cost(&self, s: &i64) -> f64 {
        let d = (s - self.offset) as f64;
        d * d + self.ripple * (d / 3.0).sin() * 50.0
    }
    fn perturb<R: Rng>(&self, s: &mut i64, rng: &mut R) {
        *s += rng.gen_range(-7..=7);
    }
}

fn anneal(schedule: Schedule, problem: &Rugged, seed: u64) -> AnnealResult<i64> {
    Annealer::new(schedule)
        .run(&FullCostDelta::new(problem), seed, RunOptions::default())
        .expect("finite costs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn best_cost_never_exceeds_initial(offset in -200i64..200, ripple in 0.0f64..2.0, seed in 0u64..500) {
        let problem = Rugged { offset, ripple };
        let result = anneal(Schedule::quick(), &problem, seed);
        prop_assert!(result.best_cost <= problem.cost(&problem.initial_state()) + 1e-9);
        // The reported best state matches the reported best cost.
        prop_assert!((problem.cost(&result.best) - result.best_cost).abs() < 1e-9);
    }

    #[test]
    fn runs_are_reproducible(offset in -200i64..200, seed in 0u64..500) {
        let problem = Rugged { offset, ripple: 1.0 };
        let a = anneal(Schedule::quick(), &problem, seed);
        let b = anneal(Schedule::quick(), &problem, seed);
        prop_assert_eq!(a.best, b.best);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.snapshots.len(), b.snapshots.len());
    }

    #[test]
    fn stats_bookkeeping_consistent(seed in 0u64..200) {
        let schedule = Schedule {
            snapshot_per_temperature: true,
            ..Schedule::quick()
        };
        let problem = Rugged { offset: 40, ripple: 0.5 };
        let result = anneal(schedule, &problem, seed);
        let proposed = result.stats.accepted + result.stats.rejected;
        prop_assert_eq!(proposed, result.stats.temperatures * schedule.moves_per_temperature);
        prop_assert_eq!(result.snapshots.len(), result.stats.temperatures);
        // Temperatures strictly decrease along the snapshot log.
        for pair in result.snapshots.windows(2) {
            prop_assert!(pair[1].temperature < pair[0].temperature);
            prop_assert!(pair[1].best_cost <= pair[0].best_cost);
            // Current cost is never below the best-so-far.
            prop_assert!(pair[1].current_cost >= pair[1].best_cost - 1e-9);
        }
    }

    #[test]
    fn temperature_bounds_respected(seed in 0u64..100) {
        let problem = Rugged { offset: 0, ripple: 1.5 };
        let schedule = Schedule::quick();
        let result = anneal(schedule, &problem, seed);
        prop_assert!(result.stats.temperatures <= schedule.max_temperatures);
        prop_assert!(result.stats.final_temperature <= result.stats.initial_temperature);
        prop_assert!(result.stats.initial_temperature > 0.0);
    }
}
