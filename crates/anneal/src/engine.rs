//! The annealing engine.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{Checkpoint, FORMAT_VERSION};
use crate::control::{AnnealError, RunControl, StopReason};
use crate::Schedule;

/// A problem the annealer can optimize: a state space with a cost function
/// and a random perturbation.
///
/// Implementations must be deterministic given the RNG: the engine is
/// seeded, and the paper's protocol ("every test case is performed 20 times
/// using different random number generator seeds") relies on run-to-run
/// reproducibility per seed.
pub trait Problem {
    /// A candidate solution. Cloned when a new best is found and for
    /// per-temperature snapshots.
    type State: Clone;

    /// The starting state.
    fn initial_state(&self) -> Self::State;

    /// The cost to minimize. Must be finite for every reachable state.
    /// The engine guards against violations: a non-finite initial cost is
    /// a typed [`AnnealError`], and a non-finite cost mid-run stops the
    /// run with [`StopReason::CostError`] while preserving the best
    /// finite-cost state.
    fn cost(&self, state: &Self::State) -> f64;

    /// Randomly perturbs `state` in place.
    fn perturb<R: Rng>(&self, state: &mut Self::State, rng: &mut R);
}

/// Incremental move evaluation: a [`Problem`] whose cost can be updated
/// in O(changed components) per move instead of recomputed from
/// scratch. This is the protocol [`Annealer::run`] drives; a problem
/// with only a full cost runs through the [`FullCostDelta`] adapter.
///
/// # Move protocol
///
/// The engine calls [`rebase`](DeltaProblem::rebase) once on the initial
/// state, then per move exactly one
/// [`propose`](DeltaProblem::propose) followed by either
/// [`commit`](DeltaProblem::commit) (move accepted) or
/// [`undo`](DeltaProblem::undo) (move rejected). `propose` perturbs the
/// state *in place* — there is no candidate clone — and `undo` must
/// restore it exactly. `propose` draws from the RNG exactly as
/// [`Problem::perturb`] would, so a problem annealed natively and
/// through [`FullCostDelta`] consumes identical RNG streams.
///
/// # Cost contract
///
/// For any state reachable by the protocol, `propose`'s return value
/// must be **bit-identical** to what `rebase` would return for the
/// perturbed state on a freshly rebased problem — incremental bookkeeping
/// may not drift, not even in the last ulp (use integer/fixed-point
/// accumulation for order-dependent sums). When the delta cost also
/// equals [`Problem::cost`] bit for bit — as the floorplanner's does —
/// the native and [`FullCostDelta`]-wrapped runs make identical
/// decisions.
///
/// Every method takes `&self`: like [`Problem::cost`], implementations
/// keep mutable evaluation state behind interior mutability.
pub trait DeltaProblem: Problem {
    /// Installs `state` as the committed state of the incremental
    /// evaluation and returns its cost under the delta cost function.
    /// The default forwards to [`Problem::cost`], so a `DeltaProblem`
    /// built purely from `propose`/`undo` keeps the full-cost semantics.
    fn rebase(&self, state: &Self::State) -> f64 {
        self.cost(state)
    }

    /// Perturbs `state` in place (drawing from `rng` exactly like
    /// [`Problem::perturb`]) and returns the perturbed state's cost,
    /// evaluated incrementally against the committed state.
    fn propose<R: Rng>(&self, state: &mut Self::State, rng: &mut R) -> f64;

    /// Accepts the pending proposal: the perturbed state becomes the
    /// committed state. Default: no-op (for adapters with no retained
    /// evaluation state).
    fn commit(&self) {}

    /// Rejects the pending proposal: restores `state` (and any retained
    /// evaluation state) to the committed state.
    fn undo(&self, state: &mut Self::State);
}

/// The [`DeltaProblem`] adapter for a problem that only has a full cost:
/// `propose` = clone + perturb + full [`Problem::cost`] and `undo` =
/// restore the clone. No incremental speedup. It borrows the problem, so
/// a problem that also implements [`DeltaProblem`] natively can be
/// annealed both ways and compared.
#[derive(Debug)]
pub struct FullCostDelta<'p, P: Problem> {
    inner: &'p P,
    saved: std::cell::RefCell<Option<P::State>>,
}

impl<'p, P: Problem> FullCostDelta<'p, P> {
    /// Wraps a problem for [`Annealer::run`].
    pub fn new(inner: &'p P) -> FullCostDelta<'p, P> {
        FullCostDelta {
            inner,
            saved: std::cell::RefCell::new(None),
        }
    }
}

impl<P: Problem> Problem for FullCostDelta<'_, P> {
    type State = P::State;

    fn initial_state(&self) -> P::State {
        self.inner.initial_state()
    }

    fn cost(&self, state: &P::State) -> f64 {
        self.inner.cost(state)
    }

    fn perturb<R: Rng>(&self, state: &mut P::State, rng: &mut R) {
        self.inner.perturb(state, rng);
    }
}

impl<P: Problem> DeltaProblem for FullCostDelta<'_, P> {
    fn propose<R: Rng>(&self, state: &mut P::State, rng: &mut R) -> f64 {
        *self.saved.borrow_mut() = Some(state.clone());
        self.inner.perturb(state, rng);
        self.inner.cost(state)
    }

    fn undo(&self, state: &mut P::State) {
        if let Some(previous) = self.saved.borrow_mut().take() {
            *state = previous;
        }
    }
}

/// Statistics of one annealing run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealStats {
    /// Temperature steps executed.
    pub temperatures: usize,
    /// Moves accepted (including improving moves).
    pub accepted: usize,
    /// Moves rejected.
    pub rejected: usize,
    /// The adaptive initial temperature used.
    pub initial_temperature: f64,
    /// The final temperature reached.
    pub final_temperature: f64,
}

impl AnnealStats {
    /// Fraction of proposed moves that were accepted.
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.accepted as f64 / total as f64
        }
    }
}

/// The locally optimized solution at the end of one temperature step —
/// what the paper's Experiment 2 extracts "at each temperature-dropping
/// step".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperatureSnapshot<S> {
    /// The temperature at which the step ran.
    pub temperature: f64,
    /// The *current* state at the end of the step — the locally
    /// optimized intermediate solution the paper extracts.
    pub current_state: S,
    /// The current state's cost.
    pub current_cost: f64,
    /// Best-so-far state at the end of the step.
    pub best_state: S,
    /// Best-so-far cost at the end of the step.
    pub best_cost: f64,
    /// Acceptance ratio within the step.
    pub acceptance_ratio: f64,
}

/// The outcome of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult<S> {
    /// The best state encountered.
    pub best: S,
    /// Its cost.
    pub best_cost: f64,
    /// Run statistics.
    pub stats: AnnealStats,
    /// Per-temperature snapshots (empty unless
    /// [`Schedule::snapshot_per_temperature`] is set).
    pub snapshots: Vec<TemperatureSnapshot<S>>,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

/// Where a run's checkpoints go.
type CheckpointSink<'a, S> = &'a mut dyn FnMut(&Checkpoint<S>);

/// What one [`Annealer::run`] is limited by, reports to, and continues
/// from. The default runs unlimited, from a fresh start, emitting no
/// checkpoints.
pub struct RunOptions<'a, S> {
    /// Deadline, cancellation, move and step budgets, and the checkpoint
    /// cadence.
    pub control: RunControl,
    /// Receives every [`Checkpoint`] the run emits: on the control's
    /// cadence, and once when a step budget trips.
    pub checkpoints: Option<CheckpointSink<'a, S>>,
    /// Continue from this checkpoint instead of starting fresh. Its
    /// `seed` must equal the `seed` passed to [`Annealer::run`].
    pub resume: Option<Checkpoint<S>>,
}

impl<S> Default for RunOptions<'_, S> {
    fn default() -> Self {
        RunOptions {
            control: RunControl::unlimited(),
            checkpoints: None,
            resume: None,
        }
    }
}

/// Mutable engine state between temperature steps — everything a
/// [`Checkpoint`] captures and a resume restores.
struct LoopState<S> {
    rng: ChaCha8Rng,
    current: S,
    current_cost: f64,
    best: S,
    best_cost: f64,
    temperature: f64,
    initial_temperature: f64,
    steps_done: usize,
    stats: AnnealStats,
    snapshots: Vec<TemperatureSnapshot<S>>,
}

/// A configured annealer. Stateless apart from the schedule; `run` may be
/// called many times with different seeds.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone, Copy)]
pub struct Annealer {
    schedule: Schedule,
}

impl Annealer {
    /// Creates an annealer with the given schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule parameters are out of range
    /// (see [`Schedule::validate`]). Use [`Annealer::try_new`] for a
    /// recoverable error instead.
    #[must_use]
    pub fn new(schedule: Schedule) -> Annealer {
        schedule.validate();
        Annealer { schedule }
    }

    /// Creates an annealer, returning a typed error if the schedule
    /// parameters are out of range.
    pub fn try_new(schedule: Schedule) -> Result<Annealer, crate::ScheduleError> {
        schedule.validated()?;
        Ok(Annealer { schedule })
    }

    /// The schedule in use.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Runs one seeded annealing optimization through the
    /// [`DeltaProblem`] move protocol, or continues one from
    /// `options.resume`.
    ///
    /// Identical `(problem, seed, options)` produce identical results.
    /// When a limit in `options.control` trips, the partial result —
    /// best state so far and exact statistics — is returned with the
    /// corresponding [`StopReason`].
    ///
    /// Checkpoints are only emitted at temperature-step boundaries, and
    /// resuming from one is **bit-identical**: the same best state, cost,
    /// statistics and snapshots as the uninterrupted run. A checkpoint
    /// carries only the state, never the problem's retained evaluation
    /// state; the problem is re-anchored on the checkpoint's current
    /// state with [`DeltaProblem::rebase`]. Step-budget and cadence
    /// positions count from step 0 of the original run.
    ///
    /// # Errors
    ///
    /// [`AnnealError`] when the schedule is invalid, the initial or
    /// rebased cost is not finite, the initial-temperature estimate
    /// fails, or the resume checkpoint does not validate — its format
    /// version, schedule, seed and recorded values are checked, and a
    /// mismatch is a typed error, never a silent divergence.
    pub fn run<P: DeltaProblem>(
        &self,
        problem: &P,
        seed: u64,
        options: RunOptions<'_, P::State>,
    ) -> Result<AnnealResult<P::State>, AnnealError> {
        let RunOptions {
            control,
            checkpoints,
            resume,
        } = options;
        let state = match resume {
            Some(checkpoint) => self.resumed_state(problem, seed, checkpoint)?,
            None => self.fresh_state(problem, seed)?,
        };
        let mut no_sink = |_: &Checkpoint<P::State>| {};
        let sink = checkpoints.unwrap_or(&mut no_sink);
        Ok(self.run_loop(problem, seed, state, &control, sink))
    }

    /// The engine state at step 0 of a fresh run.
    fn fresh_state<P: DeltaProblem>(
        &self,
        problem: &P,
        seed: u64,
    ) -> Result<LoopState<P::State>, AnnealError> {
        self.schedule.validated()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let current = problem.initial_state();
        let current_cost = problem.rebase(&current);
        if !current_cost.is_finite() {
            return Err(AnnealError::NonFiniteInitialCost { cost: current_cost });
        }

        let initial_temperature = self.estimate_initial_temperature(problem, &mut rng)?;
        // Temperature estimation random-walks a scratch state through the
        // full-cost path; re-anchor the retained session on the actual
        // starting state before the move loop begins.
        let current_cost = problem.rebase(&current);
        if !current_cost.is_finite() {
            return Err(AnnealError::NonFiniteInitialCost { cost: current_cost });
        }
        Ok(LoopState {
            rng,
            best: current.clone(),
            best_cost: current_cost,
            current,
            current_cost,
            temperature: initial_temperature,
            initial_temperature,
            steps_done: 0,
            stats: AnnealStats {
                initial_temperature,
                final_temperature: initial_temperature,
                ..AnnealStats::default()
            },
            snapshots: Vec::new(),
        })
    }

    /// Validates a checkpoint (format version, schedule, seed,
    /// finiteness, internal consistency), converts it into a resumable
    /// [`LoopState`], and re-anchors the problem on its current state.
    fn resumed_state<P: DeltaProblem>(
        &self,
        problem: &P,
        seed: u64,
        checkpoint: Checkpoint<P::State>,
    ) -> Result<LoopState<P::State>, AnnealError> {
        if checkpoint.version != FORMAT_VERSION {
            return Err(AnnealError::CheckpointVersion {
                found: checkpoint.version,
                expected: FORMAT_VERSION,
            });
        }
        self.schedule.validated()?;
        if checkpoint.schedule != self.schedule {
            return Err(AnnealError::ScheduleMismatch);
        }
        if checkpoint.seed != seed {
            return Err(AnnealError::SeedMismatch {
                checkpoint: checkpoint.seed,
                requested: seed,
            });
        }
        if !(checkpoint.initial_temperature.is_finite() && checkpoint.initial_temperature > 0.0) {
            return Err(AnnealError::CorruptCheckpoint {
                field: "initial_temperature",
            });
        }
        if !(checkpoint.temperature.is_finite() && checkpoint.temperature > 0.0) {
            return Err(AnnealError::CorruptCheckpoint {
                field: "temperature",
            });
        }
        if !checkpoint.current_cost.is_finite() {
            return Err(AnnealError::CorruptCheckpoint {
                field: "current_cost",
            });
        }
        if !checkpoint.best_cost.is_finite() {
            return Err(AnnealError::CorruptCheckpoint { field: "best_cost" });
        }
        if checkpoint.steps_done != checkpoint.stats.temperatures {
            return Err(AnnealError::CorruptCheckpoint {
                field: "steps_done",
            });
        }

        let current_cost = problem.rebase(&checkpoint.current);
        if !current_cost.is_finite() {
            return Err(AnnealError::NonFiniteInitialCost { cost: current_cost });
        }
        Ok(LoopState {
            rng: checkpoint.rng,
            current: checkpoint.current,
            current_cost,
            best: checkpoint.best,
            best_cost: checkpoint.best_cost,
            temperature: checkpoint.temperature,
            initial_temperature: checkpoint.initial_temperature,
            steps_done: checkpoint.steps_done,
            stats: checkpoint.stats,
            snapshots: checkpoint.snapshots,
        })
    }

    /// The temperature loop. `st` is either a fresh start or a restored
    /// checkpoint; both execute identical move sequences for identical
    /// RNG states, which is what makes resume bit-identical.
    fn run_loop<P: DeltaProblem>(
        &self,
        problem: &P,
        seed: u64,
        mut st: LoopState<P::State>,
        control: &RunControl,
        sink: &mut dyn FnMut(&Checkpoint<P::State>),
    ) -> AnnealResult<P::State> {
        /// How many moves run between deadline/cancellation polls.
        /// Polling is cheap but not free; a power of two keeps the check
        /// branch-predictable.
        const POLL_INTERVAL: usize = 64;

        let min_temperature = st.initial_temperature * self.schedule.min_temperature_ratio;
        let mut moves_done = (st.stats.accepted + st.stats.rejected) as u64;

        let stop_reason = 'outer: loop {
            if st.steps_done >= self.schedule.max_temperatures {
                break StopReason::MaxTemperatures;
            }
            if st.temperature < min_temperature {
                break StopReason::Converged;
            }
            if control.step_budget_hit(st.steps_done) {
                // The budget lands exactly on a step boundary, so the
                // state here is checkpointable; emit it so a supervisor
                // can continue the run segment-by-segment without
                // configuring a cadence.
                sink(&boundary_checkpoint(self.schedule, seed, &st));
                break StopReason::StepBudget;
            }
            if control.cancel_hit() {
                break StopReason::Cancelled;
            }
            if control.deadline_hit() {
                break StopReason::Deadline;
            }

            let mut step_accepted = 0usize;
            for move_index in 0..self.schedule.moves_per_temperature {
                if control.budget_hit(moves_done) {
                    break 'outer StopReason::MoveBudget;
                }
                if move_index % POLL_INTERVAL == POLL_INTERVAL - 1 {
                    if control.cancel_hit() {
                        break 'outer StopReason::Cancelled;
                    }
                    if control.deadline_hit() {
                        break 'outer StopReason::Deadline;
                    }
                }

                let candidate_cost = problem.propose(&mut st.current, &mut st.rng);
                if !candidate_cost.is_finite() {
                    // The candidate is poisoned: roll it back so the
                    // returned partial result holds the best finite-cost
                    // state found so far.
                    problem.undo(&mut st.current);
                    break 'outer StopReason::CostError;
                }
                moves_done += 1;
                let delta = candidate_cost - st.current_cost;
                let accept = delta <= 0.0 || st.rng.gen::<f64>() < (-delta / st.temperature).exp();
                if accept {
                    problem.commit();
                    st.current_cost = candidate_cost;
                    step_accepted += 1;
                    st.stats.accepted += 1;
                    if st.current_cost < st.best_cost {
                        st.best = st.current.clone();
                        st.best_cost = st.current_cost;
                    }
                } else {
                    problem.undo(&mut st.current);
                    st.stats.rejected += 1;
                }
            }

            st.stats.temperatures += 1;
            st.steps_done += 1;
            st.stats.final_temperature = st.temperature;
            if self.schedule.snapshot_per_temperature {
                st.snapshots.push(TemperatureSnapshot {
                    temperature: st.temperature,
                    current_state: st.current.clone(),
                    current_cost: st.current_cost,
                    best_state: st.best.clone(),
                    best_cost: st.best_cost,
                    acceptance_ratio: step_accepted as f64
                        / self.schedule.moves_per_temperature as f64,
                });
            }
            // Frozen: a full step with no accepted move cannot thaw at a
            // lower temperature.
            if step_accepted == 0 {
                break StopReason::Frozen;
            }
            st.temperature *= self.schedule.cooling;

            if let Some(every) = control.checkpoint_every {
                if st.steps_done % every == 0 {
                    sink(&boundary_checkpoint(self.schedule, seed, &st));
                }
            }
        };

        AnnealResult {
            best: st.best,
            best_cost: st.best_cost,
            stats: st.stats,
            snapshots: st.snapshots,
            stop_reason,
        }
    }

    /// Samples random moves from the initial state and sets T₀ so the
    /// average uphill move is accepted with the configured probability:
    /// `T₀ = Δ̄⁺ / ln(1 / p₀)`.
    fn estimate_initial_temperature<P: Problem>(
        &self,
        problem: &P,
        rng: &mut ChaCha8Rng,
    ) -> Result<f64, AnnealError> {
        const SAMPLES: usize = 64;
        let mut state = problem.initial_state();
        let mut cost = problem.cost(&state);
        let mut uphill_sum = 0.0;
        let mut uphill_count = 0usize;
        for _ in 0..SAMPLES {
            let mut candidate = state.clone();
            problem.perturb(&mut candidate, rng);
            let candidate_cost = problem.cost(&candidate);
            if !candidate_cost.is_finite() {
                return Err(AnnealError::NonFiniteEstimationCost {
                    cost: candidate_cost,
                });
            }
            let delta = candidate_cost - cost;
            if delta > 0.0 {
                uphill_sum += delta;
                uphill_count += 1;
            }
            // Random-walk to sample the neighbourhood, not just the
            // initial state's immediate neighbours.
            state = candidate;
            cost = candidate_cost;
        }
        let temperature = if uphill_count == 0 {
            // Flat or monotonically improving landscape: any small positive
            // temperature works; scale to the cost magnitude.
            (cost.abs() * 0.01).max(1e-9)
        } else {
            let avg_uphill = uphill_sum / uphill_count as f64;
            avg_uphill / (1.0 / self.schedule.initial_acceptance).ln()
        };
        if !(temperature.is_finite() && temperature > 0.0) {
            return Err(AnnealError::InvalidInitialTemperature { temperature });
        }
        Ok(temperature)
    }
}

/// The complete engine state at the current temperature-step boundary,
/// as a resumable [`Checkpoint`]. Used for both cadence emissions and the
/// final emission when a step budget trips — one constructor, so the two
/// cannot drift.
fn boundary_checkpoint<S: Clone>(
    schedule: Schedule,
    seed: u64,
    st: &LoopState<S>,
) -> Checkpoint<S> {
    Checkpoint {
        version: FORMAT_VERSION,
        seed,
        schedule,
        initial_temperature: st.initial_temperature,
        temperature: st.temperature,
        steps_done: st.steps_done,
        current: st.current.clone(),
        current_cost: st.current_cost,
        best: st.best.clone(),
        best_cost: st.best_cost,
        stats: st.stats,
        snapshots: st.snapshots.clone(),
        rng: st.rng.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use std::time::Duration;

    /// Discrete quadratic bowl over integers.
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

    /// Anneals a full-cost test problem through [`FullCostDelta`].
    fn anneal<P: Problem>(
        annealer: &Annealer,
        problem: &P,
        seed: u64,
        options: RunOptions<'_, P::State>,
    ) -> Result<AnnealResult<P::State>, AnnealError> {
        annealer.run(&FullCostDelta::new(problem), seed, options)
    }

    /// An unlimited run that must succeed.
    fn plain<P: Problem>(annealer: &Annealer, problem: &P, seed: u64) -> AnnealResult<P::State> {
        anneal(annealer, problem, seed, RunOptions::default()).expect("finite costs")
    }

    fn control(control: RunControl) -> RunOptions<'static, i64> {
        RunOptions {
            control,
            ..RunOptions::default()
        }
    }

    #[test]
    fn finds_bowl_minimum() {
        let result = plain(&Annealer::new(Schedule::default()), &Bowl, 1);
        assert!(
            (result.best - 7).abs() <= 2,
            "best {} should be near 7",
            result.best
        );
        assert!(result.best_cost <= 4.0);
        assert!(result.stop_reason.is_natural());
    }

    #[test]
    fn deterministic_per_seed() {
        let annealer = Annealer::new(Schedule::quick());
        let a = plain(&annealer, &Bowl, 99);
        let b = plain(&annealer, &Bowl, 99);
        assert_eq!(a.best, b.best);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stop_reason, b.stop_reason);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let annealer = Annealer::new(Schedule::quick());
        let a = plain(&annealer, &Bowl, 1);
        let b = plain(&annealer, &Bowl, 2);
        // Both should be good, but the trajectories differ.
        assert_ne!(
            (a.stats.accepted, a.stats.rejected),
            (b.stats.accepted, b.stats.rejected)
        );
    }

    #[test]
    fn snapshots_recorded_when_enabled() {
        let schedule = Schedule {
            snapshot_per_temperature: true,
            ..Schedule::quick()
        };
        let result = plain(&Annealer::new(schedule), &Bowl, 5);
        assert_eq!(result.snapshots.len(), result.stats.temperatures);
        // Best cost is non-increasing across snapshots.
        for pair in result.snapshots.windows(2) {
            assert!(pair[1].best_cost <= pair[0].best_cost);
            assert!(pair[1].temperature < pair[0].temperature);
        }
    }

    #[test]
    fn no_snapshots_by_default() {
        let result = plain(&Annealer::new(Schedule::quick()), &Bowl, 5);
        assert!(result.snapshots.is_empty());
    }

    #[test]
    fn stats_are_consistent() {
        let schedule = Schedule::quick();
        let result = plain(&Annealer::new(schedule), &Bowl, 3);
        let proposed = result.stats.accepted + result.stats.rejected;
        assert_eq!(
            proposed,
            result.stats.temperatures * schedule.moves_per_temperature
        );
        assert!(result.stats.initial_temperature > 0.0);
        assert!(result.stats.final_temperature <= result.stats.initial_temperature);
        let ratio = result.stats.acceptance_ratio();
        assert!((0.0..=1.0).contains(&ratio));
    }

    /// A flat landscape: every state costs the same.
    struct Flat;

    impl Problem for Flat {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn cost(&self, _: &u8) -> f64 {
            5.0
        }
        fn perturb<R: Rng>(&self, s: &mut u8, rng: &mut R) {
            *s = rng.gen();
        }
    }

    #[test]
    fn flat_landscape_terminates() {
        let result = plain(&Annealer::new(Schedule::quick()), &Flat, 0);
        assert_eq!(result.best_cost, 5.0);
        assert!(result.stats.temperatures > 0);
    }

    #[test]
    fn best_never_worse_than_initial() {
        let annealer = Annealer::new(Schedule::quick());
        for seed in 0..10 {
            let result = plain(&annealer, &Bowl, seed);
            assert!(result.best_cost <= Bowl.cost(&Bowl.initial_state()));
        }
    }

    #[test]
    #[should_panic(expected = "cooling")]
    fn annealer_rejects_invalid_schedule() {
        let _ = Annealer::new(Schedule {
            cooling: 0.0,
            ..Schedule::default()
        });
    }

    #[test]
    fn try_new_returns_typed_error() {
        let err = Annealer::try_new(Schedule {
            cooling: 0.0,
            ..Schedule::default()
        })
        .unwrap_err();
        assert_eq!(err, crate::ScheduleError::Cooling(0.0));
        assert!(Annealer::try_new(Schedule::default()).is_ok());
    }

    #[test]
    fn unlimited_control_matches_plain_run() {
        // Observing a run — a checkpoint cadence and a sink — must not
        // change a single decision.
        let annealer = Annealer::new(Schedule::quick());
        let plain = plain(&annealer, &Bowl, 17);
        let mut emitted = 0usize;
        let controlled = anneal(
            &annealer,
            &Bowl,
            17,
            RunOptions {
                control: RunControl::unlimited().with_checkpoint_every(2),
                checkpoints: Some(&mut |_| emitted += 1),
                resume: None,
            },
        )
        .expect("no limits, finite costs");
        assert!(emitted > 0, "the cadence emitted nothing");
        assert_eq!(plain.best, controlled.best);
        assert_eq!(plain.best_cost.to_bits(), controlled.best_cost.to_bits());
        assert_eq!(plain.stats, controlled.stats);
        assert_eq!(plain.stop_reason, controlled.stop_reason);
    }

    #[test]
    fn move_budget_stops_exactly() {
        let annealer = Annealer::new(Schedule::quick());
        let result = anneal(
            &annealer,
            &Bowl,
            3,
            control(RunControl::unlimited().with_move_budget(100)),
        )
        .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::MoveBudget);
        assert_eq!(result.stats.accepted + result.stats.rejected, 100);
    }

    #[test]
    fn zero_move_budget_returns_initial_state() {
        let annealer = Annealer::new(Schedule::quick());
        let result = anneal(
            &annealer,
            &Bowl,
            3,
            control(RunControl::unlimited().with_move_budget(0)),
        )
        .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::MoveBudget);
        assert_eq!(result.best, Bowl.initial_state());
        assert_eq!(result.stats.accepted + result.stats.rejected, 0);
    }

    #[test]
    fn step_budget_stops_exactly_at_boundary_with_checkpoint() {
        let annealer = Annealer::new(Schedule::quick());
        let mut checkpoints = Vec::new();
        let result = anneal(
            &annealer,
            &Bowl,
            3,
            RunOptions {
                control: RunControl::unlimited().with_step_budget(7),
                checkpoints: Some(&mut |c| checkpoints.push(c.clone())),
                resume: None,
            },
        )
        .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::StepBudget);
        assert_eq!(result.stats.temperatures, 7);
        // Exactly one checkpoint: the final boundary (no cadence set).
        assert_eq!(checkpoints.len(), 1);
        assert_eq!(checkpoints[0].steps_done, 7);
    }

    #[test]
    fn segmented_run_is_bit_identical_to_uninterrupted() {
        let annealer = Annealer::new(Schedule::quick());
        let uninterrupted = plain(&annealer, &Bowl, 42);

        // Drive the same run 4 steps at a time through step budgets,
        // resuming each segment from the previous boundary checkpoint.
        let mut checkpoint = None;
        let mut budget = 0;
        let result = loop {
            budget += 4;
            let result = anneal(
                &annealer,
                &Bowl,
                42,
                RunOptions {
                    control: RunControl::unlimited().with_step_budget(budget),
                    resume: checkpoint.take(),
                    checkpoints: Some(&mut |c| checkpoint = Some(c.clone())),
                },
            )
            .expect("valid checkpoint");
            if result.stop_reason != StopReason::StepBudget {
                break result;
            }
            assert!(checkpoint.is_some(), "budget stop emits a checkpoint");
        };
        assert_eq!(result.best, uninterrupted.best);
        assert_eq!(
            result.best_cost.to_bits(),
            uninterrupted.best_cost.to_bits()
        );
        assert_eq!(result.stats, uninterrupted.stats);
        assert_eq!(result.stop_reason, uninterrupted.stop_reason);
    }

    #[test]
    fn exhausted_step_budget_on_resume_reemits_the_boundary() {
        let annealer = Annealer::new(Schedule::quick());
        let mut checkpoint = None;
        anneal(
            &annealer,
            &Bowl,
            5,
            RunOptions {
                control: RunControl::unlimited().with_step_budget(3),
                checkpoints: Some(&mut |c| checkpoint = Some(c.clone())),
                resume: None,
            },
        )
        .expect("finite costs");
        let from = checkpoint.clone().expect("one checkpoint");
        // Resuming with the budget already met runs zero steps and hands
        // the same boundary back.
        let mut reemitted = None;
        let result = anneal(
            &annealer,
            &Bowl,
            5,
            RunOptions {
                control: RunControl::unlimited().with_step_budget(3),
                checkpoints: Some(&mut |c| reemitted = Some(c.clone())),
                resume: Some(from.clone()),
            },
        )
        .expect("valid checkpoint");
        assert_eq!(result.stop_reason, StopReason::StepBudget);
        assert_eq!(result.stats.temperatures, 3);
        assert_eq!(reemitted.expect("boundary re-emitted"), from);
    }

    #[test]
    fn cancellation_stops_the_run() {
        let annealer = Annealer::new(Schedule::quick());
        let token = CancelToken::new();
        token.cancel();
        let result = anneal(
            &annealer,
            &Bowl,
            3,
            control(RunControl::unlimited().with_cancel_token(token)),
        )
        .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::Cancelled);
        // Cancelled before any step completed.
        assert_eq!(result.stats.temperatures, 0);
    }

    #[test]
    fn expired_deadline_stops_before_first_step() {
        let annealer = Annealer::new(Schedule::quick());
        let result = anneal(
            &annealer,
            &Bowl,
            3,
            control(RunControl::unlimited().with_time_limit(Duration::ZERO)),
        )
        .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::Deadline);
        assert_eq!(result.stats.temperatures, 0);
        // The partial result is still well-formed.
        assert!(result.best_cost.is_finite());
    }

    /// Checkpoints of a seeded run on a cadence of `every` steps.
    fn checkpoints_every(annealer: &Annealer, seed: u64, every: usize) -> Vec<Checkpoint<i64>> {
        let mut checkpoints = Vec::new();
        anneal(
            annealer,
            &Bowl,
            seed,
            RunOptions {
                control: RunControl::unlimited().with_checkpoint_every(every),
                checkpoints: Some(&mut |c| checkpoints.push(c.clone())),
                resume: None,
            },
        )
        .expect("finite costs");
        checkpoints
    }

    fn resume(
        annealer: &Annealer,
        seed: u64,
        checkpoint: Checkpoint<i64>,
    ) -> Result<AnnealResult<i64>, AnnealError> {
        anneal(
            annealer,
            &Bowl,
            seed,
            RunOptions {
                resume: Some(checkpoint),
                ..RunOptions::default()
            },
        )
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let schedule = Schedule {
            snapshot_per_temperature: true,
            ..Schedule::quick()
        };
        let annealer = Annealer::new(schedule);
        let uninterrupted = plain(&annealer, &Bowl, 42);

        // Capture checkpoints every 5 steps, then resume from each and
        // check the tail reproduces the uninterrupted run exactly.
        let checkpoints = checkpoints_every(&annealer, 42, 5);
        assert!(!checkpoints.is_empty(), "run too short to checkpoint");

        for checkpoint in checkpoints {
            let resumed = resume(&annealer, 42, checkpoint).expect("valid checkpoint");
            assert_eq!(resumed.best, uninterrupted.best);
            assert_eq!(resumed.best_cost, uninterrupted.best_cost);
            assert_eq!(resumed.stats, uninterrupted.stats);
            assert_eq!(resumed.snapshots.len(), uninterrupted.snapshots.len());
            assert_eq!(resumed.stop_reason, uninterrupted.stop_reason);
        }
    }

    #[test]
    fn checkpoint_survives_json_and_still_resumes_identically() {
        let annealer = Annealer::new(Schedule::quick());
        let uninterrupted = plain(&annealer, &Bowl, 7);

        let json = checkpoints_every(&annealer, 7, 3)
            .pop()
            .expect("at least one checkpoint")
            .to_json();
        let restored: Checkpoint<i64> = Checkpoint::from_json(&json).expect("parse");
        let resumed = resume(&annealer, 7, restored).expect("valid checkpoint");
        assert_eq!(resumed.best, uninterrupted.best);
        assert_eq!(resumed.stats, uninterrupted.stats);
    }

    #[test]
    fn resume_rejects_schedule_mismatch() {
        let annealer = Annealer::new(Schedule::quick());
        let checkpoint = checkpoints_every(&annealer, 1, 1).remove(0);
        let other = Annealer::new(Schedule::default());
        let err = resume(&other, 1, checkpoint).unwrap_err();
        assert_eq!(err, AnnealError::ScheduleMismatch);
    }

    #[test]
    fn resume_rejects_a_checkpoint_of_another_seed() {
        let annealer = Annealer::new(Schedule::quick());
        let checkpoint = checkpoints_every(&annealer, 1, 1).remove(0);
        let err = resume(&annealer, 2, checkpoint).unwrap_err();
        assert_eq!(
            err,
            AnnealError::SeedMismatch {
                checkpoint: 1,
                requested: 2
            }
        );
    }

    #[test]
    fn resume_rejects_wrong_version_and_corruption() {
        let annealer = Annealer::new(Schedule::quick());
        let checkpoint = checkpoints_every(&annealer, 1, 1).remove(0);

        let mut wrong_version = checkpoint.clone();
        wrong_version.version = 999;
        assert!(matches!(
            resume(&annealer, 1, wrong_version).unwrap_err(),
            AnnealError::CheckpointVersion { found: 999, .. }
        ));

        let mut poisoned = checkpoint.clone();
        poisoned.best_cost = f64::NAN;
        assert!(matches!(
            resume(&annealer, 1, poisoned).unwrap_err(),
            AnnealError::CorruptCheckpoint { field: "best_cost" }
        ));

        let mut inconsistent = checkpoint;
        inconsistent.steps_done += 1;
        assert!(matches!(
            resume(&annealer, 1, inconsistent).unwrap_err(),
            AnnealError::CorruptCheckpoint {
                field: "steps_done"
            }
        ));
    }

    /// A problem whose cost turns NaN once the state crosses a threshold.
    struct PoisonedSlope;

    impl Problem for PoisonedSlope {
        type State = i64;
        fn initial_state(&self) -> i64 {
            0
        }
        fn cost(&self, s: &i64) -> f64 {
            // The threshold sits beyond the estimation walk's maximum
            // reach (64 steps × 3), so only the main loop can hit it.
            if *s > 200 {
                f64::NAN
            } else {
                // Downhill toward larger values, luring the walker into
                // the poisoned region.
                (1000 - s) as f64
            }
        }
        fn perturb<R: Rng>(&self, s: &mut i64, rng: &mut R) {
            *s += rng.gen_range(0..=3);
        }
    }

    #[test]
    fn nan_cost_mid_run_stops_gracefully() {
        let annealer = Annealer::new(Schedule::quick());
        let result = anneal(&annealer, &PoisonedSlope, 1, RunOptions::default())
            .expect("initial cost is finite");
        assert_eq!(result.stop_reason, StopReason::CostError);
        // The best state is the last finite-cost one, never poisoned.
        assert!(result.best <= 200);
        assert!(result.best_cost.is_finite());
    }

    /// A problem whose cost is NaN from the start.
    struct AlwaysNan;

    impl Problem for AlwaysNan {
        type State = i64;
        fn initial_state(&self) -> i64 {
            0
        }
        fn cost(&self, _: &i64) -> f64 {
            f64::NAN
        }
        fn perturb<R: Rng>(&self, s: &mut i64, rng: &mut R) {
            *s += rng.gen_range(-1..=1);
        }
    }

    #[test]
    fn nan_initial_cost_is_a_typed_error() {
        let annealer = Annealer::new(Schedule::quick());
        let err = anneal(&annealer, &AlwaysNan, 1, RunOptions::default()).unwrap_err();
        assert!(matches!(err, AnnealError::NonFiniteInitialCost { .. }));
    }

    /// Finite initial cost, NaN only during the estimation walk.
    struct PoisonedNeighbourhood;

    impl Problem for PoisonedNeighbourhood {
        type State = i64;
        fn initial_state(&self) -> i64 {
            0
        }
        fn cost(&self, s: &i64) -> f64 {
            if *s == 0 {
                1.0
            } else {
                f64::NAN
            }
        }
        fn perturb<R: Rng>(&self, s: &mut i64, rng: &mut R) {
            *s += rng.gen_range(1..=2);
        }
    }

    #[test]
    fn nan_during_estimation_is_a_typed_error() {
        let annealer = Annealer::new(Schedule::quick());
        let err = anneal(&annealer, &PoisonedNeighbourhood, 1, RunOptions::default()).unwrap_err();
        assert!(matches!(err, AnnealError::NonFiniteEstimationCost { .. }));
    }

    /// A natively incremental [`DeltaProblem`]: it keeps the committed
    /// cost as a running total and adds each move's cost difference, so
    /// a missed `commit`, `undo` or `rebase` makes it drift. The test
    /// problems' costs are integers, which keeps the total exact: it must
    /// anneal bit for bit like the [`FullCostDelta`] adapter.
    struct RunningTotal<'p, P: Problem> {
        inner: &'p P,
        committed: std::cell::Cell<f64>,
        pending: std::cell::RefCell<Option<(P::State, f64)>>,
    }

    impl<'p, P: Problem> RunningTotal<'p, P> {
        fn new(inner: &'p P) -> RunningTotal<'p, P> {
            RunningTotal {
                inner,
                committed: std::cell::Cell::new(f64::NAN),
                pending: std::cell::RefCell::new(None),
            }
        }
    }

    impl<P: Problem> Problem for RunningTotal<'_, P> {
        type State = P::State;
        fn initial_state(&self) -> P::State {
            self.inner.initial_state()
        }
        fn cost(&self, s: &P::State) -> f64 {
            self.inner.cost(s)
        }
        fn perturb<R: Rng>(&self, s: &mut P::State, rng: &mut R) {
            self.inner.perturb(s, rng);
        }
    }

    impl<P: Problem> DeltaProblem for RunningTotal<'_, P> {
        fn rebase(&self, state: &P::State) -> f64 {
            let cost = self.inner.cost(state);
            self.committed.set(cost);
            *self.pending.borrow_mut() = None;
            cost
        }
        fn propose<R: Rng>(&self, state: &mut P::State, rng: &mut R) -> f64 {
            let before = state.clone();
            self.inner.perturb(state, rng);
            let cost = self.committed.get() + (self.inner.cost(state) - self.inner.cost(&before));
            *self.pending.borrow_mut() = Some((before, cost));
            cost
        }
        fn commit(&self) {
            if let Some((_, cost)) = self.pending.borrow_mut().take() {
                self.committed.set(cost);
            }
        }
        fn undo(&self, state: &mut P::State) {
            if let Some((before, _)) = self.pending.borrow_mut().take() {
                *state = before;
            }
        }
    }

    #[test]
    fn delta_loop_is_bit_identical_to_full_cost_loop() {
        let annealer = Annealer::new(Schedule::quick());
        for seed in [0, 1, 7, 42, 99] {
            let full = plain(&annealer, &Bowl, seed);
            let delta = annealer
                .run(&RunningTotal::new(&Bowl), seed, RunOptions::default())
                .expect("finite costs");
            assert_eq!(full.best, delta.best, "seed {seed}");
            assert_eq!(full.best_cost.to_bits(), delta.best_cost.to_bits());
            assert_eq!(full.stats, delta.stats);
            assert_eq!(full.stop_reason, delta.stop_reason);
        }
    }

    #[test]
    fn delta_loop_matches_full_cost_snapshots() {
        let schedule = Schedule {
            snapshot_per_temperature: true,
            ..Schedule::quick()
        };
        let annealer = Annealer::new(schedule);
        let full = plain(&annealer, &Bowl, 5);
        let delta = annealer
            .run(&RunningTotal::new(&Bowl), 5, RunOptions::default())
            .expect("finite costs");
        assert_eq!(full.snapshots.len(), delta.snapshots.len());
        for (a, b) in full.snapshots.iter().zip(&delta.snapshots) {
            assert_eq!(a.temperature.to_bits(), b.temperature.to_bits());
            assert_eq!(a.current_state, b.current_state);
            assert_eq!(a.current_cost.to_bits(), b.current_cost.to_bits());
            assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        }
    }

    #[test]
    fn delta_segmented_resume_is_bit_identical() {
        let annealer = Annealer::new(Schedule::quick());
        let uninterrupted = plain(&annealer, &Bowl, 42);
        // Every segment starts on a problem that has never seen the run:
        // resume must re-anchor the running total with `rebase`.
        let mut checkpoint = None;
        let mut budget = 0;
        let result = loop {
            budget += 4;
            let result = annealer
                .run(
                    &RunningTotal::new(&Bowl),
                    42,
                    RunOptions {
                        control: RunControl::unlimited().with_step_budget(budget),
                        resume: checkpoint.take(),
                        checkpoints: Some(&mut |c| checkpoint = Some(c.clone())),
                    },
                )
                .expect("valid checkpoint");
            if result.stop_reason != StopReason::StepBudget {
                break result;
            }
            assert!(checkpoint.is_some(), "budget stop emits a checkpoint");
        };
        assert_eq!(result.best, uninterrupted.best);
        assert_eq!(
            result.best_cost.to_bits(),
            uninterrupted.best_cost.to_bits()
        );
        assert_eq!(result.stats, uninterrupted.stats);
        assert_eq!(result.stop_reason, uninterrupted.stop_reason);
    }

    #[test]
    fn delta_checkpoint_resumes_through_full_cost_path() {
        // A checkpoint carries no evaluation state, so one written by a
        // native delta run continues bit-identically through the
        // full-cost adapter.
        let annealer = Annealer::new(Schedule::quick());
        let uninterrupted = plain(&annealer, &Bowl, 13);
        let mut checkpoint = None;
        annealer
            .run(
                &RunningTotal::new(&Bowl),
                13,
                RunOptions {
                    control: RunControl::unlimited().with_step_budget(6),
                    checkpoints: Some(&mut |c| checkpoint = Some(c.clone())),
                    resume: None,
                },
            )
            .expect("finite costs");
        let resumed = resume(
            &annealer,
            13,
            checkpoint.expect("budget stop emits a checkpoint"),
        )
        .expect("valid checkpoint");
        assert_eq!(resumed.best, uninterrupted.best);
        assert_eq!(
            resumed.best_cost.to_bits(),
            uninterrupted.best_cost.to_bits()
        );
        assert_eq!(resumed.stats, uninterrupted.stats);
        assert_eq!(resumed.stop_reason, uninterrupted.stop_reason);
    }

    #[test]
    fn delta_move_budget_stops_exactly() {
        let annealer = Annealer::new(Schedule::quick());
        let result = annealer
            .run(
                &RunningTotal::new(&Bowl),
                3,
                control(RunControl::unlimited().with_move_budget(100)),
            )
            .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::MoveBudget);
        assert_eq!(result.stats.accepted + result.stats.rejected, 100);
    }

    #[test]
    fn delta_nan_mid_run_undoes_and_stops_gracefully() {
        let annealer = Annealer::new(Schedule::quick());
        let result = annealer
            .run(&RunningTotal::new(&PoisonedSlope), 1, RunOptions::default())
            .expect("initial cost is finite");
        assert_eq!(result.stop_reason, StopReason::CostError);
        assert!(result.best <= 200);
        assert!(result.best_cost.is_finite());
        // It stops on the same move as the full-cost adapter run.
        let full = anneal(&annealer, &PoisonedSlope, 1, RunOptions::default())
            .expect("initial cost is finite");
        assert_eq!(result.best, full.best);
        assert_eq!(result.stats, full.stats);
    }

    #[test]
    fn delta_nan_initial_cost_is_a_typed_error() {
        let annealer = Annealer::new(Schedule::quick());
        let err = annealer
            .run(&RunningTotal::new(&AlwaysNan), 1, RunOptions::default())
            .unwrap_err();
        assert!(matches!(err, AnnealError::NonFiniteInitialCost { .. }));
    }

    /// Counts protocol calls to verify every propose is paired with
    /// exactly one commit or undo.
    struct CountingDelta {
        inner: FullCostDelta<'static, Bowl>,
        rebases: std::cell::Cell<usize>,
        proposes: std::cell::Cell<usize>,
        commits: std::cell::Cell<usize>,
        undos: std::cell::Cell<usize>,
    }

    impl CountingDelta {
        fn new() -> CountingDelta {
            CountingDelta {
                inner: FullCostDelta::new(&Bowl),
                rebases: std::cell::Cell::new(0),
                proposes: std::cell::Cell::new(0),
                commits: std::cell::Cell::new(0),
                undos: std::cell::Cell::new(0),
            }
        }
    }

    impl Problem for CountingDelta {
        type State = i64;
        fn initial_state(&self) -> i64 {
            self.inner.initial_state()
        }
        fn cost(&self, s: &i64) -> f64 {
            self.inner.cost(s)
        }
        fn perturb<R: Rng>(&self, s: &mut i64, rng: &mut R) {
            self.inner.perturb(s, rng);
        }
    }

    impl DeltaProblem for CountingDelta {
        fn rebase(&self, state: &i64) -> f64 {
            self.rebases.set(self.rebases.get() + 1);
            self.inner.rebase(state)
        }
        fn propose<R: Rng>(&self, state: &mut i64, rng: &mut R) -> f64 {
            self.proposes.set(self.proposes.get() + 1);
            self.inner.propose(state, rng)
        }
        fn commit(&self) {
            self.commits.set(self.commits.get() + 1);
            self.inner.commit();
        }
        fn undo(&self, state: &mut i64) {
            self.undos.set(self.undos.get() + 1);
            self.inner.undo(state);
        }
    }

    #[test]
    fn every_propose_pairs_with_one_commit_or_undo() {
        let annealer = Annealer::new(Schedule::quick());
        let problem = CountingDelta::new();
        let result = annealer
            .run(&problem, 9, RunOptions::default())
            .expect("finite costs");
        assert!(problem.rebases.get() >= 1);
        assert_eq!(
            problem.proposes.get(),
            problem.commits.get() + problem.undos.get()
        );
        assert_eq!(problem.commits.get(), result.stats.accepted);
        assert_eq!(problem.undos.get(), result.stats.rejected);
    }
}
