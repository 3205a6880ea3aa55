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

/// Opt-in incremental move evaluation: a [`Problem`] whose cost can be
/// updated in O(changed components) per move instead of recomputed from
/// scratch, driven by the engine's delta loop
/// ([`Annealer::run_delta`] and friends).
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
/// [`Problem::perturb`] would, so delta and full-cost loops consume
/// identical RNG streams.
///
/// # Cost contract
///
/// For any state reachable by the protocol, `propose`'s return value
/// must be **bit-identical** to what `rebase` would return for the
/// perturbed state on a freshly rebased problem — incremental bookkeeping
/// may not drift, not even in the last ulp (use integer/fixed-point
/// accumulation for order-dependent sums). When the delta cost also
/// equals [`Problem::cost`] bit for bit — as the floorplanner's does —
/// the delta and full-cost loops make identical decisions.
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

/// The universal [`DeltaProblem`] adapter: wraps any [`Problem`], with
/// `propose` = clone + perturb + full [`Problem::cost`] and `undo` =
/// restore the clone. No incremental speedup — this is the "default impl
/// = full cost" escape hatch that lets any existing problem run on the
/// delta loop unchanged. [`Annealer::run_delta`] on `FullCostDelta<P>`
/// is bit-identical to [`Annealer::run`] on `P` (tested below).
#[derive(Debug)]
pub struct FullCostDelta<P: Problem> {
    inner: P,
    saved: std::cell::RefCell<Option<P::State>>,
}

impl<P: Problem> FullCostDelta<P> {
    /// Wraps a problem for the delta loop.
    pub fn new(inner: P) -> FullCostDelta<P> {
        FullCostDelta {
            inner,
            saved: std::cell::RefCell::new(None),
        }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Problem> Problem for FullCostDelta<P> {
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

impl<P: Problem> DeltaProblem for FullCostDelta<P> {
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

    /// Runs one seeded annealing optimization.
    ///
    /// Identical `(problem, seed)` pairs produce identical results.
    ///
    /// # Panics
    ///
    /// Panics if the initial state's cost is non-finite (a violated
    /// [`Problem::cost`] contract). Use [`Annealer::run_controlled`] to
    /// get a typed [`AnnealError`] instead.
    pub fn run<P: Problem>(&self, problem: &P, seed: u64) -> AnnealResult<P::State> {
        match self.run_controlled(problem, seed, &RunControl::unlimited()) {
            Ok(result) => result,
            // irgrid-lint: allow(P1): documented panicking wrapper; run_controlled is the typed path
            Err(err) => panic!("annealing run failed: {err}"),
        }
    }

    /// Runs one seeded annealing optimization under [`RunControl`] limits
    /// (deadline, cancellation, move budget).
    ///
    /// With [`RunControl::unlimited`] this is exactly [`Annealer::run`].
    /// When a limit trips, the partial result — best state so far and
    /// exact statistics — is returned with the corresponding
    /// [`StopReason`].
    pub fn run_controlled<P: Problem>(
        &self,
        problem: &P,
        seed: u64,
        control: &RunControl,
    ) -> Result<AnnealResult<P::State>, AnnealError> {
        self.run_with_checkpoints(problem, seed, control, |_| {})
    }

    /// Like [`Annealer::run_controlled`], additionally emitting a
    /// [`Checkpoint`] to `sink` every
    /// [`RunControl::with_checkpoint_every`] completed temperature steps.
    ///
    /// Checkpoints are only emitted at temperature-step boundaries, so
    /// every emitted checkpoint resumes bit-identically. A run
    /// interrupted *mid*-step resumes from the last emitted boundary
    /// checkpoint, replaying at most one cadence interval of work.
    pub fn run_with_checkpoints<P, F>(
        &self,
        problem: &P,
        seed: u64,
        control: &RunControl,
        mut sink: F,
    ) -> Result<AnnealResult<P::State>, AnnealError>
    where
        P: Problem,
        F: FnMut(&Checkpoint<P::State>),
    {
        self.schedule.validated()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let current = problem.initial_state();
        let current_cost = problem.cost(&current);
        if !current_cost.is_finite() {
            return Err(AnnealError::NonFiniteInitialCost { cost: current_cost });
        }

        let initial_temperature = self.estimate_initial_temperature(problem, &mut rng)?;
        let state = LoopState {
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
        };
        Ok(self.run_loop(problem, seed, state, control, &mut sink))
    }

    /// Resumes a run from a [`Checkpoint`], continuing under `control`.
    ///
    /// Resuming is **bit-identical**: a run checkpointed at any
    /// temperature-step boundary and resumed produces exactly the same
    /// best state, cost, statistics, and snapshots as the same
    /// `(problem, seed)` run uninterrupted. The checkpoint's format
    /// version and schedule are validated first; mismatches are typed
    /// errors, never silent divergence.
    pub fn resume<P: Problem>(
        &self,
        problem: &P,
        checkpoint: Checkpoint<P::State>,
        control: &RunControl,
    ) -> Result<AnnealResult<P::State>, AnnealError> {
        self.resume_with_checkpoints(problem, checkpoint, control, |_| {})
    }

    /// Like [`Annealer::resume`], additionally emitting checkpoints on
    /// the control's cadence (counted from step 0 of the original run,
    /// so cadence positions match the uninterrupted run's).
    pub fn resume_with_checkpoints<P, F>(
        &self,
        problem: &P,
        checkpoint: Checkpoint<P::State>,
        control: &RunControl,
        mut sink: F,
    ) -> Result<AnnealResult<P::State>, AnnealError>
    where
        P: Problem,
        F: FnMut(&Checkpoint<P::State>),
    {
        let (seed, state) = self.validated_checkpoint_state(checkpoint)?;
        Ok(self.run_loop(problem, seed, state, control, &mut sink))
    }

    /// Validates a checkpoint (format version, schedule, finiteness,
    /// internal consistency) and converts it into a resumable
    /// [`LoopState`] — shared by the full-cost and delta resume paths so
    /// the two cannot drift.
    fn validated_checkpoint_state<S>(
        &self,
        checkpoint: Checkpoint<S>,
    ) -> Result<(u64, LoopState<S>), AnnealError> {
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

        let seed = checkpoint.seed;
        let state = LoopState {
            rng: checkpoint.rng,
            current: checkpoint.current,
            current_cost: checkpoint.current_cost,
            best: checkpoint.best,
            best_cost: checkpoint.best_cost,
            temperature: checkpoint.temperature,
            initial_temperature: checkpoint.initial_temperature,
            steps_done: checkpoint.steps_done,
            stats: checkpoint.stats,
            snapshots: checkpoint.snapshots,
        };
        Ok((seed, state))
    }

    /// Runs one seeded annealing optimization through the incremental
    /// [`DeltaProblem`] move protocol.
    ///
    /// For a problem whose delta costs are bit-identical to its full
    /// costs (the [`DeltaProblem`] contract), this produces exactly the
    /// same result as [`Annealer::run`] — same best state, cost,
    /// statistics, and snapshots — while paying only the incremental
    /// evaluation cost per move.
    ///
    /// # Panics
    ///
    /// Panics if the initial rebased cost is non-finite (a violated
    /// [`DeltaProblem::rebase`] contract). Use
    /// [`Annealer::run_controlled_delta`] for a typed [`AnnealError`]
    /// instead.
    pub fn run_delta<P: DeltaProblem>(&self, problem: &P, seed: u64) -> AnnealResult<P::State> {
        match self.run_controlled_delta(problem, seed, &RunControl::unlimited()) {
            Ok(result) => result,
            // irgrid-lint: allow(P1): documented panicking wrapper; run_controlled_delta is the typed path
            Err(err) => panic!("delta annealing run failed: {err}"),
        }
    }

    /// Like [`Annealer::run_controlled`], but through the incremental
    /// [`DeltaProblem`] move protocol.
    pub fn run_controlled_delta<P: DeltaProblem>(
        &self,
        problem: &P,
        seed: u64,
        control: &RunControl,
    ) -> Result<AnnealResult<P::State>, AnnealError> {
        self.run_with_checkpoints_delta(problem, seed, control, |_| {})
    }

    /// Like [`Annealer::run_with_checkpoints`], but through the
    /// incremental [`DeltaProblem`] move protocol. Checkpoints carry only
    /// the state (never the problem's retained session), so a checkpoint
    /// written by this path resumes identically through either
    /// [`Annealer::resume`] or [`Annealer::resume_delta`].
    pub fn run_with_checkpoints_delta<P, F>(
        &self,
        problem: &P,
        seed: u64,
        control: &RunControl,
        mut sink: F,
    ) -> Result<AnnealResult<P::State>, AnnealError>
    where
        P: DeltaProblem,
        F: FnMut(&Checkpoint<P::State>),
    {
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
        let state = LoopState {
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
        };
        Ok(self.run_loop_delta(problem, seed, state, control, &mut sink))
    }

    /// Resumes a checkpointed run through the incremental
    /// [`DeltaProblem`] move protocol.
    ///
    /// The problem's retained session is re-anchored on the checkpoint's
    /// current state via [`DeltaProblem::rebase`]; for a
    /// contract-conforming problem the rebased cost equals the
    /// checkpoint's recorded `current_cost`, so resuming here is
    /// bit-identical to resuming through [`Annealer::resume`].
    pub fn resume_delta<P: DeltaProblem>(
        &self,
        problem: &P,
        checkpoint: Checkpoint<P::State>,
        control: &RunControl,
    ) -> Result<AnnealResult<P::State>, AnnealError> {
        self.resume_with_checkpoints_delta(problem, checkpoint, control, |_| {})
    }

    /// Like [`Annealer::resume_delta`], additionally emitting checkpoints
    /// on the control's cadence.
    pub fn resume_with_checkpoints_delta<P, F>(
        &self,
        problem: &P,
        checkpoint: Checkpoint<P::State>,
        control: &RunControl,
        mut sink: F,
    ) -> Result<AnnealResult<P::State>, AnnealError>
    where
        P: DeltaProblem,
        F: FnMut(&Checkpoint<P::State>),
    {
        let (seed, mut state) = self.validated_checkpoint_state(checkpoint)?;
        let rebased = problem.rebase(&state.current);
        if !rebased.is_finite() {
            return Err(AnnealError::NonFiniteInitialCost { cost: rebased });
        }
        state.current_cost = rebased;
        Ok(self.run_loop_delta(problem, seed, state, control, &mut sink))
    }

    /// The shared temperature loop. `state` is either a fresh start or a
    /// restored checkpoint; both paths execute identical move sequences
    /// for identical RNG states, which is what makes resume bit-identical.
    fn run_loop<P: Problem>(
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

                let mut candidate = st.current.clone();
                problem.perturb(&mut candidate, &mut st.rng);
                let candidate_cost = problem.cost(&candidate);
                if !candidate_cost.is_finite() {
                    // The candidate is poisoned; the best finite-cost
                    // state found so far is preserved and returned.
                    break 'outer StopReason::CostError;
                }
                moves_done += 1;
                let delta = candidate_cost - st.current_cost;
                let accept = delta <= 0.0 || st.rng.gen::<f64>() < (-delta / st.temperature).exp();
                if accept {
                    st.current = candidate;
                    st.current_cost = candidate_cost;
                    step_accepted += 1;
                    st.stats.accepted += 1;
                    if st.current_cost < st.best_cost {
                        st.best = st.current.clone();
                        st.best_cost = st.current_cost;
                    }
                } else {
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

    /// The incremental counterpart of [`Annealer::run_loop`]: identical
    /// control flow, stop reasons, statistics, and RNG consumption, with
    /// the clone-perturb-cost move replaced by the
    /// [`DeltaProblem`] propose/commit/undo protocol.
    ///
    /// The two loops are deliberately line-for-line parallel: any edit to
    /// one must be mirrored in the other, or delta runs stop being
    /// bit-identical to full-cost runs.
    fn run_loop_delta<P: DeltaProblem>(
        &self,
        problem: &P,
        seed: u64,
        mut st: LoopState<P::State>,
        control: &RunControl,
        sink: &mut dyn FnMut(&Checkpoint<P::State>),
    ) -> AnnealResult<P::State> {
        /// Mirrors [`Annealer::run_loop`]'s poll cadence exactly.
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
                    // Roll the state back so `best`/`current` invariants
                    // hold in the returned partial result, then stop as
                    // the full-cost loop does.
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

    #[test]
    fn finds_bowl_minimum() {
        let result = Annealer::new(Schedule::default()).run(&Bowl, 1);
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
        let a = annealer.run(&Bowl, 99);
        let b = annealer.run(&Bowl, 99);
        assert_eq!(a.best, b.best);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stop_reason, b.stop_reason);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let annealer = Annealer::new(Schedule::quick());
        let a = annealer.run(&Bowl, 1);
        let b = annealer.run(&Bowl, 2);
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
        let result = Annealer::new(schedule).run(&Bowl, 5);
        assert_eq!(result.snapshots.len(), result.stats.temperatures);
        // Best cost is non-increasing across snapshots.
        for pair in result.snapshots.windows(2) {
            assert!(pair[1].best_cost <= pair[0].best_cost);
            assert!(pair[1].temperature < pair[0].temperature);
        }
    }

    #[test]
    fn no_snapshots_by_default() {
        let result = Annealer::new(Schedule::quick()).run(&Bowl, 5);
        assert!(result.snapshots.is_empty());
    }

    #[test]
    fn stats_are_consistent() {
        let schedule = Schedule::quick();
        let result = Annealer::new(schedule).run(&Bowl, 3);
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
        let result = Annealer::new(Schedule::quick()).run(&Flat, 0);
        assert_eq!(result.best_cost, 5.0);
        assert!(result.stats.temperatures > 0);
    }

    #[test]
    fn best_never_worse_than_initial() {
        let annealer = Annealer::new(Schedule::quick());
        for seed in 0..10 {
            let result = annealer.run(&Bowl, seed);
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
        let annealer = Annealer::new(Schedule::quick());
        let plain = annealer.run(&Bowl, 17);
        let controlled = annealer
            .run_controlled(&Bowl, 17, &RunControl::unlimited())
            .expect("no limits, finite costs");
        assert_eq!(plain.best, controlled.best);
        assert_eq!(plain.best_cost, controlled.best_cost);
        assert_eq!(plain.stats, controlled.stats);
        assert_eq!(plain.stop_reason, controlled.stop_reason);
    }

    #[test]
    fn move_budget_stops_exactly() {
        let annealer = Annealer::new(Schedule::quick());
        let result = annealer
            .run_controlled(&Bowl, 3, &RunControl::unlimited().with_move_budget(100))
            .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::MoveBudget);
        assert_eq!(result.stats.accepted + result.stats.rejected, 100);
    }

    #[test]
    fn zero_move_budget_returns_initial_state() {
        let annealer = Annealer::new(Schedule::quick());
        let result = annealer
            .run_controlled(&Bowl, 3, &RunControl::unlimited().with_move_budget(0))
            .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::MoveBudget);
        assert_eq!(result.best, Bowl.initial_state());
        assert_eq!(result.stats.accepted + result.stats.rejected, 0);
    }

    #[test]
    fn step_budget_stops_exactly_at_boundary_with_checkpoint() {
        let annealer = Annealer::new(Schedule::quick());
        let mut checkpoints = Vec::new();
        let result = annealer
            .run_with_checkpoints(
                &Bowl,
                3,
                &RunControl::unlimited().with_step_budget(7),
                |c| checkpoints.push(c.clone()),
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
        let uninterrupted = annealer.run(&Bowl, 42);

        // Drive the same run 4 steps at a time through step budgets,
        // resuming each segment from the previous boundary checkpoint.
        let mut checkpoint = None;
        let mut result = annealer
            .run_with_checkpoints(
                &Bowl,
                42,
                &RunControl::unlimited().with_step_budget(4),
                |c| checkpoint = Some(c.clone()),
            )
            .expect("finite costs");
        let mut budget = 4;
        while result.stop_reason == StopReason::StepBudget {
            budget += 4;
            let from = checkpoint.take().expect("budget stop emits a checkpoint");
            result = annealer
                .resume_with_checkpoints(
                    &Bowl,
                    from,
                    &RunControl::unlimited().with_step_budget(budget),
                    |c| checkpoint = Some(c.clone()),
                )
                .expect("valid checkpoint");
        }
        assert_eq!(result.best, uninterrupted.best);
        assert_eq!(result.best_cost, uninterrupted.best_cost);
        assert_eq!(result.stats, uninterrupted.stats);
        assert_eq!(result.stop_reason, uninterrupted.stop_reason);
    }

    #[test]
    fn exhausted_step_budget_on_resume_reemits_the_boundary() {
        let annealer = Annealer::new(Schedule::quick());
        let mut checkpoint = None;
        annealer
            .run_with_checkpoints(
                &Bowl,
                5,
                &RunControl::unlimited().with_step_budget(3),
                |c| checkpoint = Some(c.clone()),
            )
            .expect("finite costs");
        let from = checkpoint.clone().expect("one checkpoint");
        // Resuming with the budget already met runs zero steps and hands
        // the same boundary back.
        let mut reemitted = None;
        let result = annealer
            .resume_with_checkpoints(
                &Bowl,
                from.clone(),
                &RunControl::unlimited().with_step_budget(3),
                |c| reemitted = Some(c.clone()),
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
        let result = annealer
            .run_controlled(&Bowl, 3, &RunControl::unlimited().with_cancel_token(token))
            .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::Cancelled);
        // Cancelled before any step completed.
        assert_eq!(result.stats.temperatures, 0);
    }

    #[test]
    fn expired_deadline_stops_before_first_step() {
        let annealer = Annealer::new(Schedule::quick());
        let result = annealer
            .run_controlled(
                &Bowl,
                3,
                &RunControl::unlimited().with_time_limit(Duration::ZERO),
            )
            .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::Deadline);
        assert_eq!(result.stats.temperatures, 0);
        // The partial result is still well-formed.
        assert!(result.best_cost.is_finite());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let schedule = Schedule {
            snapshot_per_temperature: true,
            ..Schedule::quick()
        };
        let annealer = Annealer::new(schedule);
        let uninterrupted = annealer.run(&Bowl, 42);

        // Capture checkpoints every 5 steps, then resume from each and
        // check the tail reproduces the uninterrupted run exactly.
        let mut checkpoints = Vec::new();
        let control = RunControl::unlimited().with_checkpoint_every(5);
        let checkpointed = annealer
            .run_with_checkpoints(&Bowl, 42, &control, |c| checkpoints.push(c.clone()))
            .expect("finite costs");
        assert_eq!(checkpointed.best, uninterrupted.best);
        assert_eq!(checkpointed.stats, uninterrupted.stats);
        assert!(!checkpoints.is_empty(), "run too short to checkpoint");

        for checkpoint in checkpoints {
            let resumed = annealer
                .resume(&Bowl, checkpoint, &RunControl::unlimited())
                .expect("valid checkpoint");
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
        let uninterrupted = annealer.run(&Bowl, 7);

        let mut last = None;
        let control = RunControl::unlimited().with_checkpoint_every(3);
        annealer
            .run_with_checkpoints(&Bowl, 7, &control, |c| last = Some(c.to_json()))
            .expect("finite costs");
        let json = last.expect("at least one checkpoint");
        let restored: Checkpoint<i64> = Checkpoint::from_json(&json).expect("parse");
        let resumed = annealer
            .resume(&Bowl, restored, &RunControl::unlimited())
            .expect("valid checkpoint");
        assert_eq!(resumed.best, uninterrupted.best);
        assert_eq!(resumed.stats, uninterrupted.stats);
    }

    #[test]
    fn resume_rejects_schedule_mismatch() {
        let annealer = Annealer::new(Schedule::quick());
        let mut checkpoint = None;
        let control = RunControl::unlimited().with_checkpoint_every(1);
        annealer
            .run_with_checkpoints(&Bowl, 1, &control, |c| {
                if checkpoint.is_none() {
                    checkpoint = Some(c.clone());
                }
            })
            .expect("finite costs");
        let checkpoint = checkpoint.expect("one checkpoint");

        let other = Annealer::new(Schedule::default());
        let err = other
            .resume(&Bowl, checkpoint, &RunControl::unlimited())
            .unwrap_err();
        assert_eq!(err, AnnealError::ScheduleMismatch);
    }

    #[test]
    fn resume_rejects_wrong_version_and_corruption() {
        let annealer = Annealer::new(Schedule::quick());
        let mut captured = None;
        let control = RunControl::unlimited().with_checkpoint_every(1);
        annealer
            .run_with_checkpoints(&Bowl, 1, &control, |c| {
                if captured.is_none() {
                    captured = Some(c.clone());
                }
            })
            .expect("finite costs");
        let checkpoint = captured.expect("one checkpoint");

        let mut wrong_version = checkpoint.clone();
        wrong_version.version = 999;
        assert!(matches!(
            annealer
                .resume(&Bowl, wrong_version, &RunControl::unlimited())
                .unwrap_err(),
            AnnealError::CheckpointVersion { found: 999, .. }
        ));

        let mut poisoned = checkpoint.clone();
        poisoned.best_cost = f64::NAN;
        assert!(matches!(
            annealer
                .resume(&Bowl, poisoned, &RunControl::unlimited())
                .unwrap_err(),
            AnnealError::CorruptCheckpoint { field: "best_cost" }
        ));

        let mut inconsistent = checkpoint;
        inconsistent.steps_done += 1;
        assert!(matches!(
            annealer
                .resume(&Bowl, inconsistent, &RunControl::unlimited())
                .unwrap_err(),
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
        let result = annealer
            .run_controlled(&PoisonedSlope, 1, &RunControl::unlimited())
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
        let err = annealer
            .run_controlled(&AlwaysNan, 1, &RunControl::unlimited())
            .unwrap_err();
        assert!(matches!(err, AnnealError::NonFiniteInitialCost { .. }));
    }

    #[test]
    #[should_panic(expected = "annealing run failed")]
    fn plain_run_panics_on_nan_initial_cost() {
        let _ = Annealer::new(Schedule::quick()).run(&AlwaysNan, 1);
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
        let err = annealer
            .run_controlled(&PoisonedNeighbourhood, 1, &RunControl::unlimited())
            .unwrap_err();
        assert!(matches!(err, AnnealError::NonFiniteEstimationCost { .. }));
    }

    #[test]
    fn delta_loop_is_bit_identical_to_full_cost_loop() {
        let annealer = Annealer::new(Schedule::quick());
        let wrapped = FullCostDelta::new(Bowl);
        for seed in [0, 1, 7, 42, 99] {
            let plain = annealer.run(&Bowl, seed);
            let delta = annealer.run_delta(&wrapped, seed);
            assert_eq!(plain.best, delta.best, "seed {seed}");
            assert_eq!(plain.best_cost.to_bits(), delta.best_cost.to_bits());
            assert_eq!(plain.stats, delta.stats);
            assert_eq!(plain.stop_reason, delta.stop_reason);
        }
    }

    #[test]
    fn delta_loop_matches_full_cost_snapshots() {
        let schedule = Schedule {
            snapshot_per_temperature: true,
            ..Schedule::quick()
        };
        let annealer = Annealer::new(schedule);
        let plain = annealer.run(&Bowl, 5);
        let delta = annealer.run_delta(&FullCostDelta::new(Bowl), 5);
        assert_eq!(plain.snapshots.len(), delta.snapshots.len());
        for (a, b) in plain.snapshots.iter().zip(&delta.snapshots) {
            assert_eq!(a.temperature.to_bits(), b.temperature.to_bits());
            assert_eq!(a.current_state, b.current_state);
            assert_eq!(a.current_cost.to_bits(), b.current_cost.to_bits());
            assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        }
    }

    #[test]
    fn delta_segmented_resume_is_bit_identical() {
        let annealer = Annealer::new(Schedule::quick());
        let uninterrupted = annealer.run(&Bowl, 42);
        let wrapped = FullCostDelta::new(Bowl);

        let mut checkpoint = None;
        let mut result = annealer
            .run_with_checkpoints_delta(
                &wrapped,
                42,
                &RunControl::unlimited().with_step_budget(4),
                |c| checkpoint = Some(c.clone()),
            )
            .expect("finite costs");
        let mut budget = 4;
        while result.stop_reason == StopReason::StepBudget {
            budget += 4;
            let from = checkpoint.take().expect("budget stop emits a checkpoint");
            result = annealer
                .resume_with_checkpoints_delta(
                    &wrapped,
                    from,
                    &RunControl::unlimited().with_step_budget(budget),
                    |c| checkpoint = Some(c.clone()),
                )
                .expect("valid checkpoint");
        }
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
        // A checkpoint written by the delta loop carries no session state,
        // so the full-cost resume path continues it bit-identically.
        let annealer = Annealer::new(Schedule::quick());
        let uninterrupted = annealer.run(&Bowl, 13);
        let mut checkpoint = None;
        annealer
            .run_with_checkpoints_delta(
                &FullCostDelta::new(Bowl),
                13,
                &RunControl::unlimited().with_step_budget(6),
                |c| checkpoint = Some(c.clone()),
            )
            .expect("finite costs");
        let resumed = annealer
            .resume(
                &Bowl,
                checkpoint.expect("budget stop emits a checkpoint"),
                &RunControl::unlimited(),
            )
            .expect("valid checkpoint");
        assert_eq!(resumed.best, uninterrupted.best);
        assert_eq!(resumed.stats, uninterrupted.stats);
        assert_eq!(resumed.stop_reason, uninterrupted.stop_reason);
    }

    #[test]
    fn delta_move_budget_stops_exactly() {
        let annealer = Annealer::new(Schedule::quick());
        let result = annealer
            .run_controlled_delta(
                &FullCostDelta::new(Bowl),
                3,
                &RunControl::unlimited().with_move_budget(100),
            )
            .expect("finite costs");
        assert_eq!(result.stop_reason, StopReason::MoveBudget);
        assert_eq!(result.stats.accepted + result.stats.rejected, 100);
    }

    #[test]
    fn delta_nan_mid_run_undoes_and_stops_gracefully() {
        let annealer = Annealer::new(Schedule::quick());
        let result = annealer
            .run_controlled_delta(
                &FullCostDelta::new(PoisonedSlope),
                1,
                &RunControl::unlimited(),
            )
            .expect("initial cost is finite");
        assert_eq!(result.stop_reason, StopReason::CostError);
        assert!(result.best <= 200);
        assert!(result.best_cost.is_finite());
    }

    #[test]
    #[should_panic(expected = "delta annealing run failed")]
    fn plain_delta_run_panics_on_nan_initial_cost() {
        let _ = Annealer::new(Schedule::quick()).run_delta(&FullCostDelta::new(AlwaysNan), 1);
    }

    /// Counts protocol calls to verify every propose is paired with
    /// exactly one commit or undo.
    struct CountingDelta {
        inner: FullCostDelta<Bowl>,
        rebases: std::cell::Cell<usize>,
        proposes: std::cell::Cell<usize>,
        commits: std::cell::Cell<usize>,
        undos: std::cell::Cell<usize>,
    }

    impl CountingDelta {
        fn new() -> CountingDelta {
            CountingDelta {
                inner: FullCostDelta::new(Bowl),
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
        let result = annealer.run_delta(&problem, 9);
        assert!(problem.rebases.get() >= 1);
        assert_eq!(
            problem.proposes.get(),
            problem.commits.get() + problem.undos.get()
        );
        assert_eq!(problem.commits.get(), result.stats.accepted);
        assert_eq!(problem.undos.get(), result.stats.rejected);
    }
}
