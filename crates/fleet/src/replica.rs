//! Per-replica lifecycle state and the pure segment driver.
//!
//! A replica advances through three phases: `Pending` (never run),
//! `Active` (paused at a checkpointed temperature-step boundary), and
//! `Finished` (stopped for a terminal reason). The supervisor moves
//! replicas between phases only when a whole round commits, so the
//! manifest always holds a consistent barrier snapshot of every replica.

use irgrid_anneal::{
    AnnealError, AnnealResult, AnnealStats, Annealer, Checkpoint, DeltaProblem, RunControl,
    RunOptions, StopReason,
};
use serde::{Deserialize, Serialize};

/// Where a replica is in its lifecycle.
///
/// `Active` dwarfs the other variants (a checkpoint carries the full
/// engine state); boxing it would only shuffle the one heap hop this
/// enum sees per round while complicating the serialized manifest shape.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplicaPhase<S> {
    /// Not started yet; the first segment runs from a fresh seed.
    Pending,
    /// Paused at a step boundary; the checkpoint is the exact resume
    /// point and doubles as the replica's exchange-visible walker state.
    Active(Checkpoint<S>),
    /// Stopped for a terminal reason (converged, frozen, step cap, or a
    /// cost error). Terminal replicas keep their best state but no longer
    /// run segments or participate in exchange.
    Finished {
        /// Why the replica stopped.
        reason: StopReason,
        /// Best state the replica found.
        best: S,
        /// Cost of `best`.
        best_cost: f64,
        /// Accumulated run statistics.
        stats: AnnealStats,
    },
}

impl<S> ReplicaPhase<S> {
    /// Whether the replica still runs segments.
    #[must_use]
    pub fn is_live(&self) -> bool {
        !matches!(self, ReplicaPhase::Finished { .. })
    }

    /// The checkpoint of an `Active` replica.
    #[must_use]
    pub fn checkpoint(&self) -> Option<&Checkpoint<S>> {
        match self {
            ReplicaPhase::Active(checkpoint) => Some(checkpoint),
            _ => None,
        }
    }

    /// Mutable access to an `Active` replica's checkpoint (used by the
    /// exchange step to swap walker states).
    #[must_use]
    pub(crate) fn checkpoint_mut(&mut self) -> Option<&mut Checkpoint<S>> {
        match self {
            ReplicaPhase::Active(checkpoint) => Some(checkpoint),
            _ => None,
        }
    }

    /// The best cost the replica has seen so far, if it has run at all.
    #[must_use]
    pub fn best_cost(&self) -> Option<f64> {
        match self {
            ReplicaPhase::Pending => None,
            ReplicaPhase::Active(checkpoint) => Some(checkpoint.best_cost),
            ReplicaPhase::Finished { best_cost, .. } => Some(*best_cost),
        }
    }

    /// The best state the replica has seen so far, if it has run at all.
    #[must_use]
    pub fn best(&self) -> Option<&S> {
        match self {
            ReplicaPhase::Pending => None,
            ReplicaPhase::Active(checkpoint) => Some(&checkpoint.best),
            ReplicaPhase::Finished { best, .. } => Some(best),
        }
    }
}

/// One replica: its seed and lifecycle phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaRecord<S> {
    /// The replica's annealing seed ([`FleetConfig::replica_seed`](crate::FleetConfig::replica_seed)).
    pub seed: u64,
    /// Lifecycle phase.
    pub phase: ReplicaPhase<S>,
}

/// The output of one committed segment: the run result plus, when the
/// segment stopped on its step budget, the boundary checkpoint to resume
/// from next round.
#[derive(Debug, Clone)]
pub struct SegmentOutcome<S> {
    /// The annealing result of the segment (statistics and stop reason
    /// are cumulative across the whole replica, not per-segment).
    pub result: AnnealResult<S>,
    /// The boundary checkpoint, present exactly when
    /// `result.stop_reason == StopReason::StepBudget`.
    pub boundary: Option<Checkpoint<S>>,
}

/// Runs one replica segment: from `start` (or a fresh seed when `None`)
/// until `target_steps` *total* temperature steps have completed, the
/// schedule terminates naturally, or `base`'s cancel/deadline trips.
///
/// The segment is pure: its outcome is a function of `(problem, seed,
/// start, target_steps)` alone, so it may run on any worker thread in
/// any round ordering.
pub fn run_segment<P: DeltaProblem>(
    annealer: &Annealer,
    problem: &P,
    seed: u64,
    start: Option<Checkpoint<P::State>>,
    target_steps: usize,
    base: &RunControl,
) -> Result<SegmentOutcome<P::State>, AnnealError> {
    let mut boundary: Option<Checkpoint<P::State>> = None;
    let result = annealer.run(
        problem,
        seed,
        RunOptions {
            control: base.clone().with_step_budget(target_steps),
            checkpoints: Some(&mut |checkpoint| boundary = Some(checkpoint.clone())),
            resume: start,
        },
    )?;
    let boundary = if result.stop_reason == StopReason::StepBudget {
        boundary
    } else {
        None
    };
    Ok(SegmentOutcome { result, boundary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid_anneal::{FullCostDelta, Problem, Schedule};
    use rand::Rng;

    struct Bowl;
    impl Problem for Bowl {
        type State = i64;
        fn initial_state(&self) -> i64 {
            1000
        }
        fn cost(&self, s: &i64) -> f64 {
            ((s - 7) * (s - 7)) as f64
        }
        fn perturb<R: Rng>(&self, s: &mut i64, rng: &mut R) {
            *s += rng.gen_range(-10..=10);
        }
    }

    fn annealer() -> Annealer {
        Annealer::new(Schedule::quick())
    }

    #[test]
    fn fresh_segment_stops_at_target_with_boundary() {
        let outcome = run_segment(
            &annealer(),
            &FullCostDelta::new(&Bowl),
            3,
            None,
            5,
            &RunControl::unlimited(),
        )
        .expect("segment runs");
        assert_eq!(outcome.result.stop_reason, StopReason::StepBudget);
        let boundary = outcome.boundary.expect("budget stop emits a boundary");
        assert_eq!(boundary.steps_done, 5);
    }

    #[test]
    fn chained_segments_match_one_uninterrupted_run() {
        let ann = annealer();
        let reference = ann
            .run(&FullCostDelta::new(&Bowl), 3, RunOptions::default())
            .expect("reference runs");

        let mut start = None;
        let mut total = 0usize;
        let chained = loop {
            total += 4;
            let outcome = run_segment(
                &ann,
                &FullCostDelta::new(&Bowl),
                3,
                start.take(),
                total,
                &RunControl::unlimited(),
            )
            .expect("segment runs");
            match outcome.boundary {
                Some(boundary) => start = Some(boundary),
                None => break outcome.result,
            }
        };
        assert_eq!(chained.best, reference.best);
        assert_eq!(chained.best_cost.to_bits(), reference.best_cost.to_bits());
        assert_eq!(chained.stats, reference.stats);
        assert_eq!(chained.stop_reason, reference.stop_reason);
    }

    #[test]
    fn natural_finish_has_no_boundary() {
        let outcome = run_segment(
            &annealer(),
            &FullCostDelta::new(&Bowl),
            3,
            None,
            1_000_000,
            &RunControl::unlimited(),
        )
        .expect("segment runs");
        assert!(outcome.result.stop_reason.is_natural());
        assert!(outcome.boundary.is_none());
    }

    #[test]
    fn phase_accessors_track_lifecycle() {
        let pending: ReplicaPhase<i64> = ReplicaPhase::Pending;
        assert!(pending.is_live());
        assert!(pending.best_cost().is_none());

        let outcome = run_segment(
            &annealer(),
            &FullCostDelta::new(&Bowl),
            9,
            None,
            4,
            &RunControl::unlimited(),
        )
        .expect("segment runs");
        let active = ReplicaPhase::Active(outcome.boundary.expect("boundary"));
        assert!(active.is_live());
        assert_eq!(
            active.best_cost().map(f64::to_bits),
            Some(outcome.result.best_cost.to_bits())
        );

        let finished = ReplicaPhase::Finished {
            reason: StopReason::Converged,
            best: 7i64,
            best_cost: 0.0,
            stats: AnnealStats::default(),
        };
        assert!(!finished.is_live());
        assert_eq!(finished.best(), Some(&7));
    }

    #[test]
    fn replica_record_survives_serde() {
        let outcome = run_segment(
            &annealer(),
            &FullCostDelta::new(&Bowl),
            5,
            None,
            4,
            &RunControl::unlimited(),
        )
        .expect("segment runs");
        let record = ReplicaRecord {
            seed: 5,
            phase: ReplicaPhase::Active(outcome.boundary.expect("boundary")),
        };
        let value = Serialize::to_value(&record);
        let back: ReplicaRecord<i64> = Deserialize::from_value(&value).expect("roundtrip");
        assert_eq!(record, back);
    }
}
