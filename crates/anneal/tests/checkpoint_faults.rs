//! Checkpoint resume under injected IO errors: a write failure
//! mid-checkpoint must leave the previously committed checkpoint valid
//! and the run resumable — bit-identically — from it.

use irgrid_anneal::{
    Annealer, Checkpoint, FullCostDelta, Problem, RunControl, RunOptions, Schedule,
};
use rand::Rng;

/// A rugged 1-D landscape (same shape as the property-test problem).
struct Rugged {
    offset: i64,
}

impl Problem for Rugged {
    type State = i64;
    fn initial_state(&self) -> i64 {
        500
    }
    fn cost(&self, s: &i64) -> f64 {
        let d = (s - self.offset) as f64;
        d * d + (d / 3.0).sin() * 50.0
    }
    fn perturb<R: Rng>(&self, s: &mut i64, rng: &mut R) {
        *s += rng.gen_range(-7..=7);
    }
}

#[test]
fn write_failure_mid_checkpoint_leaves_previous_checkpoint_valid_and_resumable() {
    let dir = std::env::temp_dir().join("irgrid_anneal_checkpoint_fault_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run.ckpt.json");
    let tmp = path.with_extension("tmp");

    let problem = FullCostDelta::new(&Rugged { offset: 37 });
    let annealer = Annealer::new(Schedule::quick());
    let control = RunControl::unlimited().with_checkpoint_every(2);
    let options = || RunOptions {
        control: control.clone(),
        ..RunOptions::default()
    };

    let reference = annealer
        .run(&problem, 11, options())
        .expect("reference run");

    // Chaotic run: the first two checkpoints commit normally; then a
    // directory squats on the sibling tmp path, so every later
    // checkpoint write fails mid-write (`File::create` on the tmp).
    let mut writes = 0u32;
    let mut failures = 0u32;
    let mut last_committed_step = 0usize;
    let mut sink = |checkpoint: &Checkpoint<i64>| {
        writes += 1;
        if writes == 3 {
            std::fs::create_dir_all(&tmp).expect("squat the tmp path");
        }
        match checkpoint.write_file(&path) {
            Ok(()) => last_committed_step = checkpoint.steps_done,
            Err(_) => failures += 1,
        }
    };
    let result = annealer
        .run(
            &problem,
            11,
            RunOptions {
                checkpoints: Some(&mut sink),
                ..options()
            },
        )
        .expect("chaotic run");
    assert!(writes >= 3, "schedule too short to exercise the fault");
    assert!(failures > 0, "fault injection never fired");

    // Failed checkpoint writes never perturb the run itself.
    assert_eq!(result.best, reference.best);
    assert_eq!(result.best_cost.to_bits(), reference.best_cost.to_bits());

    // The last successfully committed checkpoint is fully intact: the
    // torn write died in `File::create(tmp)`, before any rename could
    // clobber the committed file.
    let checkpoint: Checkpoint<i64> =
        Checkpoint::read_file(&path).expect("previous checkpoint still valid");
    assert_eq!(checkpoint.steps_done, last_committed_step);
    assert!(checkpoint.steps_done > 0);

    // Resuming from it reproduces the uninterrupted run bit for bit.
    let resumed = annealer
        .run(
            &problem,
            11,
            RunOptions {
                resume: Some(checkpoint),
                ..options()
            },
        )
        .expect("resume");
    assert_eq!(resumed.best, reference.best);
    assert_eq!(resumed.best_cost.to_bits(), reference.best_cost.to_bits());
    assert_eq!(resumed.stats, reference.stats);

    let _ = std::fs::remove_dir_all(&dir);
}
