//! Run control for fault-tolerant annealing: cooperative cancellation,
//! wall-clock deadlines, move budgets, and typed errors.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
// irgrid-lint: allow(D1): wall-clock here only decides when a run stops between moves; it never feeds a cost or map, and deadlines are excluded from checkpoints
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::schedule::ScheduleError;

/// A clonable cancellation flag shared between the annealing thread and
/// whoever wants to stop it (a signal handler, a supervisor thread, a UI).
///
/// Cancellation is cooperative: the engine polls the token between moves
/// and stops with [`StopReason::Cancelled`] at the next poll.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Limits on a controlled annealing run.
///
/// The default ([`RunControl::unlimited`]) imposes nothing: the run goes
/// to schedule completion. Limits compose: the first one hit stops the
/// run, and the partial result (best state so far plus accurate
/// statistics) is still returned. Passed to
/// [`Annealer::run`](crate::Annealer::run) in
/// [`RunOptions::control`](crate::RunOptions::control).
///
/// All limits stop the run *between* proposed moves, so a stopped run's
/// statistics are exact and a run resumed from the last checkpoint
/// replays the interrupted tail bit-identically.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    // irgrid-lint: allow(D1): deadline gates run length only, never cost
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) move_budget: Option<u64>,
    pub(crate) step_budget: Option<usize>,
    pub(crate) checkpoint_every: Option<usize>,
}

impl RunControl {
    /// No limits: run to schedule completion.
    #[must_use]
    pub fn unlimited() -> RunControl {
        RunControl::default()
    }

    /// Stops the run at a fixed point in time.
    #[must_use]
    // irgrid-lint: allow(D1): deadline gates run length only, never cost
    pub fn with_deadline(mut self, deadline: Instant) -> RunControl {
        self.deadline = Some(deadline);
        self
    }

    /// Stops the run `limit` after *now* (sugar over [`with_deadline`]).
    ///
    /// [`with_deadline`]: RunControl::with_deadline
    #[must_use]
    pub fn with_time_limit(self, limit: Duration) -> RunControl {
        self.with_deadline(Instant::now() + limit) // irgrid-lint: allow(D1): deadline gates run length only, never cost
    }

    /// Stops the run when `token` is cancelled.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> RunControl {
        self.cancel = Some(token);
        self
    }

    /// Stops the run after `budget` *total* proposed moves. Counted
    /// against [`AnnealStats`](crate::AnnealStats) (accepted + rejected),
    /// so the budget spans resumes: a run resumed from a checkpoint keeps
    /// the moves already spent.
    #[must_use]
    pub fn with_move_budget(mut self, budget: u64) -> RunControl {
        self.move_budget = Some(budget);
        self
    }

    /// Stops the run once `budget` *total* temperature steps have
    /// completed, always at a step boundary. Counted against
    /// [`AnnealStats::temperatures`](crate::AnnealStats), so the budget
    /// spans resumes: resuming a run checkpointed at step `k` with a
    /// budget of `k + n` runs exactly `n` further steps.
    ///
    /// Because the stop lands on a boundary, the engine emits one final
    /// [`Checkpoint`](crate::Checkpoint) to the run's
    /// [`checkpoints`](crate::RunOptions::checkpoints) sink when the
    /// budget trips (even without a
    /// [`with_checkpoint_every`](RunControl::with_checkpoint_every)
    /// cadence). This is the segmentation hook the `irgrid-fleet`
    /// supervisor uses to interleave replicas: run `n` steps, capture the
    /// boundary state, exchange, resume.
    #[must_use]
    pub fn with_step_budget(mut self, budget: usize) -> RunControl {
        self.step_budget = Some(budget);
        self
    }

    /// Emits a [`Checkpoint`](crate::Checkpoint) to the run's
    /// [`checkpoints`](crate::RunOptions::checkpoints) sink every `steps`
    /// completed temperature steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    #[must_use]
    pub fn with_checkpoint_every(mut self, steps: usize) -> RunControl {
        assert!(steps > 0, "checkpoint cadence must be positive");
        self.checkpoint_every = Some(steps);
        self
    }

    /// Whether the deadline (if any) has passed.
    ///
    /// Public so other subsystems (the `irgrid-serve` request handlers)
    /// can reuse `RunControl` as their timeout/budget primitive without
    /// reimplementing the trip logic.
    #[must_use]
    pub fn deadline_hit(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d) // irgrid-lint: allow(D1): deadline gates run length only, never cost
    }

    /// Whether cancellation (if any) was requested.
    #[must_use]
    pub fn cancel_hit(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Whether the move budget (if any) is exhausted at `moves_done`
    /// proposed moves (for `irgrid-serve` sessions: commits).
    #[must_use]
    pub fn budget_hit(&self, moves_done: u64) -> bool {
        self.move_budget.is_some_and(|b| moves_done >= b)
    }

    /// Whether the step budget (if any) is exhausted at `steps_done`.
    #[must_use]
    pub fn step_budget_hit(&self, steps_done: usize) -> bool {
        self.step_budget.is_some_and(|b| steps_done >= b)
    }
}

/// Why a controlled annealing run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The temperature fell below `T₀ × min_temperature_ratio`: the
    /// schedule ran to natural completion.
    Converged,
    /// A full temperature step accepted no move; nothing can thaw at a
    /// lower temperature.
    Frozen,
    /// The [`Schedule::max_temperatures`](crate::Schedule::max_temperatures)
    /// cap was reached.
    MaxTemperatures,
    /// The wall-clock deadline passed ([`RunControl::with_deadline`]).
    Deadline,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The total-move budget was exhausted
    /// ([`RunControl::with_move_budget`]).
    MoveBudget,
    /// The total-temperature-step budget was exhausted
    /// ([`RunControl::with_step_budget`]); the run stopped exactly at a
    /// step boundary and emitted a final checkpoint there.
    StepBudget,
    /// A candidate cost came back non-finite mid-run. The result still
    /// holds the best *finite*-cost state seen; the poisoned candidate
    /// was discarded.
    CostError,
}

impl StopReason {
    /// Whether the schedule finished on its own terms (as opposed to
    /// being interrupted or hitting a cost error).
    #[must_use]
    pub fn is_natural(&self) -> bool {
        matches!(
            self,
            StopReason::Converged | StopReason::Frozen | StopReason::MaxTemperatures
        )
    }

    /// Whether the run was interrupted by an external limit and can be
    /// meaningfully resumed from its last checkpoint.
    #[must_use]
    pub fn is_interrupted(&self) -> bool {
        matches!(
            self,
            StopReason::Deadline
                | StopReason::Cancelled
                | StopReason::MoveBudget
                | StopReason::StepBudget
        )
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            StopReason::Converged => "converged (minimum temperature reached)",
            StopReason::Frozen => "frozen (no accepted move in a full step)",
            StopReason::MaxTemperatures => "maximum temperature steps reached",
            StopReason::Deadline => "wall-clock deadline reached",
            StopReason::Cancelled => "cancelled",
            StopReason::MoveBudget => "move budget exhausted",
            StopReason::StepBudget => "temperature-step budget exhausted",
            StopReason::CostError => "stopped on non-finite cost",
        };
        f.write_str(text)
    }
}

/// A typed error from a controlled annealing run.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnealError {
    /// The schedule parameters are out of range.
    Schedule(ScheduleError),
    /// The initial state's cost is NaN or infinite; annealing cannot
    /// start because no finite baseline exists.
    NonFiniteInitialCost {
        /// The offending cost value.
        cost: f64,
    },
    /// A cost sampled during initial-temperature estimation was NaN or
    /// infinite.
    NonFiniteEstimationCost {
        /// The offending cost value.
        cost: f64,
    },
    /// The estimated initial temperature is not finite and positive
    /// (degenerate cost landscape).
    InvalidInitialTemperature {
        /// The offending temperature value.
        temperature: f64,
    },
    /// A checkpoint was produced by an incompatible format version.
    CheckpointVersion {
        /// Version found in the checkpoint.
        found: u32,
        /// Version this library writes and reads.
        expected: u32,
    },
    /// A checkpoint's schedule differs from the annealer's; resuming
    /// would not reproduce the original run.
    ScheduleMismatch,
    /// A checkpoint was written by a run with a different seed than the
    /// one passed to [`Annealer::run`](crate::Annealer::run).
    SeedMismatch {
        /// The seed recorded in the checkpoint.
        checkpoint: u64,
        /// The seed the caller asked for.
        requested: u64,
    },
    /// A checkpoint carries non-finite costs or temperatures and cannot
    /// be trusted.
    CorruptCheckpoint {
        /// Which field failed validation.
        field: &'static str,
    },
}

impl fmt::Display for AnnealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnealError::Schedule(err) => write!(f, "invalid schedule: {err}"),
            AnnealError::NonFiniteInitialCost { cost } => {
                write!(f, "initial state has non-finite cost {cost}")
            }
            AnnealError::NonFiniteEstimationCost { cost } => write!(
                f,
                "non-finite cost {cost} while estimating the initial temperature"
            ),
            AnnealError::InvalidInitialTemperature { temperature } => write!(
                f,
                "estimated initial temperature {temperature} is not finite and positive"
            ),
            AnnealError::CheckpointVersion { found, expected } => write!(
                f,
                "checkpoint format version {found} is not supported (expected {expected})"
            ),
            AnnealError::ScheduleMismatch => write!(
                f,
                "checkpoint schedule differs from the annealer's schedule; \
                 resuming would not reproduce the original run"
            ),
            AnnealError::SeedMismatch {
                checkpoint,
                requested,
            } => write!(
                f,
                "checkpoint was written by seed {checkpoint}, not the requested seed {requested}"
            ),
            AnnealError::CorruptCheckpoint { field } => {
                write!(f, "checkpoint field `{field}` failed validation")
            }
        }
    }
}

impl std::error::Error for AnnealError {}

impl From<ScheduleError> for AnnealError {
    fn from(err: ScheduleError) -> Self {
        AnnealError::Schedule(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn unlimited_control_never_trips() {
        let control = RunControl::unlimited();
        assert!(!control.deadline_hit());
        assert!(!control.cancel_hit());
        assert!(!control.budget_hit(u64::MAX));
        assert!(!control.step_budget_hit(usize::MAX));
    }

    #[test]
    fn step_budget_trips_at_exact_count() {
        let control = RunControl::unlimited().with_step_budget(4);
        assert!(!control.step_budget_hit(3));
        assert!(control.step_budget_hit(4));
        assert!(control.step_budget_hit(5));
    }

    #[test]
    fn budget_trips_at_exact_count() {
        let control = RunControl::unlimited().with_move_budget(10);
        assert!(!control.budget_hit(9));
        assert!(control.budget_hit(10));
        assert!(control.budget_hit(11));
    }

    #[test]
    fn past_deadline_trips_immediately() {
        let control = RunControl::unlimited().with_time_limit(Duration::ZERO);
        assert!(control.deadline_hit());
    }

    #[test]
    fn stop_reason_classification() {
        assert!(StopReason::Converged.is_natural());
        assert!(StopReason::Frozen.is_natural());
        assert!(StopReason::MaxTemperatures.is_natural());
        assert!(StopReason::Deadline.is_interrupted());
        assert!(StopReason::Cancelled.is_interrupted());
        assert!(StopReason::MoveBudget.is_interrupted());
        assert!(StopReason::StepBudget.is_interrupted());
        assert!(!StopReason::StepBudget.is_natural());
        assert!(!StopReason::CostError.is_natural());
        assert!(!StopReason::CostError.is_interrupted());
    }

    #[test]
    fn stop_reason_serde_roundtrip() {
        for reason in [
            StopReason::Converged,
            StopReason::Frozen,
            StopReason::MaxTemperatures,
            StopReason::Deadline,
            StopReason::Cancelled,
            StopReason::MoveBudget,
            StopReason::StepBudget,
            StopReason::CostError,
        ] {
            let value = serde::Serialize::to_value(&reason);
            let back: StopReason = serde::Deserialize::from_value(&value).expect("roundtrip");
            assert_eq!(reason, back);
        }
    }
}
