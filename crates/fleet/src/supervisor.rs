//! The fleet supervisor: the round loop that ties the subsystem together.
//!
//! Each round the supervisor (1) fans the live replicas out over the
//! worker pool, each advancing [`FleetConfig::sync_every`] temperature
//! steps as a pure segment; (2) applies the outcomes in replica order,
//! emitting telemetry; (3) runs the exchange step in
//! [`ExchangeMode::Ladder`](crate::ExchangeMode::Ladder); and (4) commits
//! the barrier — per-replica checkpoint files, the atomic manifest, and
//! a telemetry flush. Cancellation or a deadline aborts the in-flight
//! round *uncommitted*, so a resumed fleet replays at most one round and
//! lands on exactly the trajectory an uninterrupted fleet takes.
//!
//! The invocation's time limit is the crate's only wall-clock input: this
//! module hands it to [`RunControl`], where it bounds how far one
//! invocation gets and never feeds results.

use std::path::{Path, PathBuf};
// irgrid-lint: allow(D1): only the `Duration` of the invocation's time limit,
// handed to `RunControl`; results never depend on it.
use std::time::Duration;

use irgrid_anneal::{Annealer, CancelToken, DeltaProblem, RunControl, StopReason};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::config::{ExchangeMode, FleetConfig, FleetError};
use crate::exchange::{exchange_round, ExchangeDecision};
use crate::manifest::{FleetManifest, MANIFEST_FILE, MANIFEST_VERSION, TELEMETRY_FILE};
use crate::pool;
use crate::replica::{run_segment, ReplicaPhase, ReplicaRecord, SegmentOutcome};
use crate::telemetry::{FleetEvent, TelemetryLog};

/// One pool job: `(replica index, seed, resume checkpoint)`.
type SegmentJob<S> = (usize, u64, Option<irgrid_anneal::Checkpoint<S>>);

/// A configured multi-replica annealing fleet.
#[derive(Debug, Clone)]
pub struct Fleet {
    annealer: Annealer,
    config: FleetConfig,
}

/// Per-invocation options: where to persist, whether to resume, and how
/// to stop early. None of these affect the *result* the fleet converges
/// to — only how far a single invocation gets.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Directory for the manifest, which holds every replica's
    /// checkpoint, and the JSONL telemetry mirror. `None` keeps
    /// everything in memory (no crash recovery).
    pub run_dir: Option<PathBuf>,
    /// Continue from the manifest in [`run_dir`](FleetOptions::run_dir)
    /// instead of starting fresh. Errors if no manifest exists.
    pub resume: bool,
    /// Cooperative cancellation, checked at step boundaries inside every
    /// replica segment.
    pub cancel: Option<CancelToken>,
    /// Wall-clock budget for this invocation.
    pub time_limit: Option<Duration>,
    /// Stop (without error) after this many rounds have committed in
    /// *this* invocation — the deterministic pause hook used by the
    /// kill/resume tests.
    pub pause_after_rounds: Option<usize>,
}

/// One replica's contribution to a [`FleetOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaSummary {
    /// Replica index.
    pub replica: usize,
    /// Its annealing seed.
    pub seed: u64,
    /// Why it stopped, if it reached a terminal phase.
    pub stop_reason: Option<StopReason>,
    /// Its best cost so far (absent only if it never ran a segment).
    pub best_cost: Option<f64>,
    /// Temperature steps completed.
    pub temperatures: usize,
    /// Moves accepted.
    pub accepted: usize,
    /// Moves rejected.
    pub rejected: usize,
}

impl ReplicaSummary {
    fn from_record<S>(replica: usize, record: &ReplicaRecord<S>) -> ReplicaSummary {
        let (stop_reason, stats) = match &record.phase {
            ReplicaPhase::Pending => (None, None),
            ReplicaPhase::Active(checkpoint) => (None, Some(checkpoint.stats)),
            ReplicaPhase::Finished { reason, stats, .. } => (Some(*reason), Some(*stats)),
        };
        let stats = stats.unwrap_or_default();
        ReplicaSummary {
            replica,
            seed: record.seed,
            stop_reason,
            best_cost: record.phase.best_cost(),
            temperatures: stats.temperatures,
            accepted: stats.accepted,
            rejected: stats.rejected,
        }
    }

    /// Bit-exact equality (costs compared by their bit patterns).
    #[must_use]
    pub fn deterministic_eq(&self, other: &ReplicaSummary) -> bool {
        self.replica == other.replica
            && self.seed == other.seed
            && self.stop_reason == other.stop_reason
            && self.best_cost.map(f64::to_bits) == other.best_cost.map(f64::to_bits)
            && self.temperatures == other.temperatures
            && self.accepted == other.accepted
            && self.rejected == other.rejected
    }
}

/// Everything one fleet invocation produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome<S> {
    /// Index of the replica holding the fleet-best state (ties broken by
    /// the lowest index).
    pub best_replica: usize,
    /// The fleet-best state.
    pub best: S,
    /// Its cost.
    pub best_cost: f64,
    /// Per-replica summaries, in index order.
    pub replicas: Vec<ReplicaSummary>,
    /// All exchange decisions so far, in decision order.
    pub trace: Vec<ExchangeDecision>,
    /// The full telemetry history (including rounds committed by earlier
    /// invocations when resuming).
    pub events: Vec<FleetEvent>,
    /// Rounds committed over the fleet's whole lifetime.
    pub rounds: usize,
    /// Whether every replica reached a terminal phase. `false` means the
    /// invocation paused (cancel, deadline, or
    /// [`pause_after_rounds`](FleetOptions::pause_after_rounds)) and the
    /// fleet can be resumed.
    pub complete: bool,
}

impl<S: PartialEq> FleetOutcome<S> {
    /// Bit-exact equality (costs compared by their bit patterns) — the
    /// check behind the fleet's worker-count and resume invariance
    /// guarantees.
    #[must_use]
    pub fn deterministic_eq(&self, other: &FleetOutcome<S>) -> bool {
        self.best_replica == other.best_replica
            && self.best == other.best
            && self.best_cost.to_bits() == other.best_cost.to_bits()
            && self.rounds == other.rounds
            && self.complete == other.complete
            && self.replicas.len() == other.replicas.len()
            && self
                .replicas
                .iter()
                .zip(&other.replicas)
                .all(|(a, b)| a.deterministic_eq(b))
            && self.trace == other.trace
            && self.events == other.events
    }
}

impl Fleet {
    /// Creates a fleet, validating the configuration.
    pub fn new(annealer: Annealer, config: FleetConfig) -> Result<Fleet, FleetError> {
        config.validated()?;
        Ok(Fleet { annealer, config })
    }

    /// The fleet's configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs (or resumes) the fleet until every replica reaches a terminal
    /// phase or the invocation is paused by `options`.
    ///
    /// `factory` is called once per worker thread to build that worker's
    /// problem instance; instances must be cost-identical (the same state
    /// must score the same cost bits in every instance), which any
    /// deterministic construction satisfies.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] for configuration, i/o, or manifest
    /// problems, and aborts with [`FleetError::Anneal`] if any replica's
    /// run fails — a failed replica means costs cannot be trusted, so
    /// there is no partial result.
    pub fn run<P, F>(
        &self,
        factory: F,
        options: &FleetOptions,
    ) -> Result<FleetOutcome<P::State>, FleetError>
    where
        P: DeltaProblem,
        P::State: Clone + Send + PartialEq + Serialize + Deserialize,
        F: Fn() -> P + Sync,
    {
        let mut state = self.load_or_init(options)?;

        let mut base = RunControl::unlimited();
        if let Some(token) = &options.cancel {
            base = base.with_cancel_token(token.clone());
        }
        if let Some(limit) = options.time_limit {
            base = base.with_time_limit(limit);
        }

        let mut rounds_this_invocation = 0usize;
        let mut complete;
        loop {
            let live: Vec<usize> = (0..state.replicas.len())
                .filter(|&k| state.replicas[k].phase.is_live())
                .collect();
            complete = live.is_empty();
            if complete {
                break;
            }
            if options
                .pause_after_rounds
                .is_some_and(|k| rounds_this_invocation >= k)
            {
                break;
            }
            if options
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
            {
                break;
            }

            let target = (state.rounds_done + 1) * self.config.sync_every;
            let jobs: Vec<SegmentJob<P::State>> = live
                .iter()
                .map(|&k| {
                    let record = &state.replicas[k];
                    (k, record.seed, record.phase.checkpoint().cloned())
                })
                .collect();

            let annealer = &self.annealer;
            let control = &base;
            let outcomes = pool::run_ordered(
                self.config.workers,
                jobs,
                |_| factory(),
                |problem, _, (replica, seed, start)| {
                    let segment = run_segment(annealer, problem, seed, start, target, control);
                    (replica, segment)
                },
            );

            // An interrupted segment means the round cannot commit as a
            // barrier: discard it entirely (bounded replay: one round).
            let mut interrupted = false;
            let mut committed = Vec::with_capacity(outcomes.len());
            for (replica, segment) in outcomes {
                let segment = segment.map_err(|source| FleetError::Anneal { replica, source })?;
                if matches!(
                    segment.result.stop_reason,
                    StopReason::Cancelled | StopReason::Deadline
                ) {
                    interrupted = true;
                }
                committed.push((replica, segment));
            }
            if interrupted {
                break;
            }

            self.apply_round(&mut state, committed)?;
            if self.config.mode == ExchangeMode::Ladder {
                let decisions = exchange_round(
                    &mut state.exchange_rng,
                    state.rounds_done,
                    &mut state.replicas,
                );
                for decision in decisions {
                    state.trace.push(decision.clone());
                    state.telemetry.record(FleetEvent::Exchange(decision))?;
                }
            }
            state.rounds_done += 1;
            rounds_this_invocation += 1;
            self.persist(&mut state, options.run_dir.as_deref())?;
        }

        if complete && !state.completed_event_emitted() {
            let (best_replica, best_cost) = state
                .fleet_best()
                .ok_or(FleetError::Config("fleet completed with no replica result"))?;
            state.telemetry.record(FleetEvent::FleetCompleted {
                rounds: state.rounds_done,
                best_replica,
                best_cost,
            })?;
            self.persist(&mut state, options.run_dir.as_deref())?;
        }

        let (best_replica, best_cost) = state
            .fleet_best()
            .ok_or(FleetError::StoppedBeforeFirstRound)?;
        let best = state.replicas[best_replica]
            .phase
            .best()
            .cloned()
            .ok_or(FleetError::StoppedBeforeFirstRound)?;
        let replicas = state
            .replicas
            .iter()
            .enumerate()
            .map(|(k, record)| ReplicaSummary::from_record(k, record))
            .collect();
        Ok(FleetOutcome {
            best_replica,
            best,
            best_cost,
            replicas,
            trace: state.trace,
            events: state.telemetry.into_events(),
            rounds: state.rounds_done,
            complete,
        })
    }

    /// Builds fresh run state or loads it from the manifest.
    fn load_or_init<S>(&self, options: &FleetOptions) -> Result<RunState<S>, FleetError>
    where
        S: Clone + Serialize + Deserialize,
    {
        if let Some(dir) = &options.run_dir {
            std::fs::create_dir_all(dir).map_err(|source| FleetError::Io {
                path: dir.display().to_string(),
                source,
            })?;
        }
        if options.resume {
            let dir = options
                .run_dir
                .as_deref()
                .ok_or(FleetError::Config("resume requires a run directory"))?;
            let path = dir.join(MANIFEST_FILE);
            if !path.exists() {
                return Err(FleetError::NothingToResume {
                    dir: dir.display().to_string(),
                });
            }
            let manifest: FleetManifest<S> = FleetManifest::read_file(&path)?;
            manifest.validate(&self.config, self.annealer.schedule())?;
            let telemetry = TelemetryLog::with_history(&dir.join(TELEMETRY_FILE), manifest.events)?;
            return Ok(RunState {
                rounds_done: manifest.rounds_done,
                exchange_rng: manifest.exchange_rng,
                replicas: manifest.replicas,
                trace: manifest.trace,
                telemetry,
            });
        }

        let replicas = (0..self.config.replicas)
            .map(|k| ReplicaRecord {
                seed: self.config.replica_seed(k),
                phase: ReplicaPhase::Pending,
            })
            .collect();
        let mut telemetry = match &options.run_dir {
            Some(dir) => TelemetryLog::with_history(&dir.join(TELEMETRY_FILE), Vec::new())?,
            None => TelemetryLog::in_memory(),
        };
        telemetry.record(FleetEvent::FleetStarted {
            replicas: self.config.replicas,
            mode: self.config.mode,
            seed0: self.config.seed0,
            sync_every: self.config.sync_every,
        })?;
        Ok(RunState {
            rounds_done: 0,
            exchange_rng: ChaCha8Rng::seed_from_u64(self.config.exchange_seed),
            replicas,
            trace: Vec::new(),
            telemetry,
        })
    }

    /// Applies one committed round's segment outcomes in replica order.
    fn apply_round<S: Clone>(
        &self,
        state: &mut RunState<S>,
        outcomes: Vec<(usize, SegmentOutcome<S>)>,
    ) -> Result<(), FleetError> {
        let round = state.rounds_done;
        for (replica, segment) in outcomes {
            if matches!(state.replicas[replica].phase, ReplicaPhase::Pending) {
                state.telemetry.record(FleetEvent::ReplicaStarted {
                    replica,
                    seed: state.replicas[replica].seed,
                })?;
            }
            match segment.boundary {
                Some(checkpoint) => {
                    state.telemetry.record(FleetEvent::ReplicaCheckpointed {
                        round,
                        replica,
                        steps: checkpoint.steps_done,
                        temperature: checkpoint.temperature,
                        current_cost: checkpoint.current_cost,
                        best_cost: checkpoint.best_cost,
                        accepted: checkpoint.stats.accepted,
                        rejected: checkpoint.stats.rejected,
                    })?;
                    state.replicas[replica].phase = ReplicaPhase::Active(checkpoint);
                }
                None => {
                    let result = segment.result;
                    state.telemetry.record(FleetEvent::ReplicaStopped {
                        replica,
                        reason: result.stop_reason,
                        best_cost: result.best_cost,
                        temperatures: result.stats.temperatures,
                    })?;
                    state.replicas[replica].phase = ReplicaPhase::Finished {
                        reason: result.stop_reason,
                        best: result.best,
                        best_cost: result.best_cost,
                        stats: result.stats,
                    };
                }
            }
        }
        Ok(())
    }

    /// Commits the current barrier to the run directory (if any): the
    /// atomic manifest, then a telemetry flush.
    fn persist<S: Clone + Serialize>(
        &self,
        state: &mut RunState<S>,
        run_dir: Option<&Path>,
    ) -> Result<(), FleetError> {
        let Some(dir) = run_dir else {
            return Ok(());
        };
        let manifest = FleetManifest {
            version: MANIFEST_VERSION,
            config: self.config,
            schedule: *self.annealer.schedule(),
            rounds_done: state.rounds_done,
            exchange_rng: state.exchange_rng.clone(),
            replicas: state.replicas.clone(),
            trace: state.trace.clone(),
            events: state.telemetry.events().to_vec(),
        };
        manifest.write_file(&dir.join(MANIFEST_FILE))?;
        state.telemetry.flush()
    }
}

/// Mutable orchestration state for one invocation.
struct RunState<S> {
    rounds_done: usize,
    exchange_rng: ChaCha8Rng,
    replicas: Vec<ReplicaRecord<S>>,
    trace: Vec<ExchangeDecision>,
    telemetry: TelemetryLog,
}

impl<S> RunState<S> {
    /// The `(replica, best_cost)` of the current fleet best: the lowest
    /// best cost, ties broken by the lowest replica index.
    fn fleet_best(&self) -> Option<(usize, f64)> {
        self.replicas
            .iter()
            .enumerate()
            .filter_map(|(k, record)| record.phase.best_cost().map(|cost| (k, cost)))
            .min_by(|(ka, ca), (kb, cb)| ca.total_cmp(cb).then(ka.cmp(kb)))
    }

    /// Whether `FleetCompleted` was already emitted (possibly by an
    /// earlier invocation whose events we resumed).
    fn completed_event_emitted(&self) -> bool {
        self.telemetry
            .events()
            .iter()
            .any(|event| matches!(event, FleetEvent::FleetCompleted { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid_anneal::{FullCostDelta, Problem, RunOptions, Schedule};
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

    fn fleet(mode: ExchangeMode, workers: usize) -> Fleet {
        Fleet::new(
            Annealer::new(Schedule::quick()),
            FleetConfig {
                replicas: 3,
                workers,
                mode,
                ..FleetConfig::default()
            },
        )
        .expect("valid config")
    }

    #[test]
    fn independent_fleet_matches_sequential_runs() {
        let fleet = fleet(ExchangeMode::Independent, 2);
        let outcome = fleet
            .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
            .expect("fleet runs");
        assert!(outcome.complete);
        assert!(outcome.trace.is_empty(), "independent mode never exchanges");

        // Every replica must match a plain sequential run of its seed.
        let annealer = Annealer::new(Schedule::quick());
        for summary in &outcome.replicas {
            let reference = annealer
                .run(
                    &FullCostDelta::new(&Bowl),
                    summary.seed,
                    RunOptions::default(),
                )
                .expect("reference runs");
            assert_eq!(
                summary.best_cost.map(f64::to_bits),
                Some(reference.best_cost.to_bits()),
                "replica {} diverged from its sequential reference",
                summary.replica
            );
            assert_eq!(summary.temperatures, reference.stats.temperatures);
            assert_eq!(summary.accepted, reference.stats.accepted);
        }
    }

    #[test]
    fn outcome_is_bit_identical_across_worker_counts() {
        for mode in [ExchangeMode::Independent, ExchangeMode::Ladder] {
            let reference = fleet(mode, 1)
                .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
                .expect("reference fleet");
            for workers in [2, 4, 8] {
                let outcome = fleet(mode, workers)
                    .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
                    .expect("fleet runs");
                assert!(
                    outcome.deterministic_eq(&reference),
                    "mode {mode}: workers={workers} diverged"
                );
            }
        }
    }

    #[test]
    fn replica_summaries_compare_costs_by_their_bits() {
        let summary = ReplicaSummary {
            replica: 0,
            seed: 1,
            stop_reason: None,
            best_cost: Some(0.0),
            temperatures: 3,
            accepted: 2,
            rejected: 1,
        };
        let negative_zero = ReplicaSummary {
            best_cost: Some(-0.0),
            ..summary.clone()
        };
        assert_eq!(summary, negative_zero);
        assert!(!summary.deterministic_eq(&negative_zero));
        let nan = ReplicaSummary {
            best_cost: Some(f64::NAN),
            ..summary
        };
        assert_ne!(nan, nan.clone());
        assert!(nan.deterministic_eq(&nan.clone()));
    }

    /// The invariance tests lean on `deterministic_eq`; it must notice a
    /// one-ulp change in any cost it covers.
    #[test]
    fn outcome_equality_sees_a_one_ulp_cost_change() {
        let next_up = |cost: f64| f64::from_bits(cost.to_bits() + 1);
        let outcome = fleet(ExchangeMode::Ladder, 1)
            .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
            .expect("fleet runs");
        assert!(outcome.deterministic_eq(&outcome.clone()));

        let mut moved = outcome.clone();
        moved.best_cost = next_up(moved.best_cost);
        assert!(!outcome.deterministic_eq(&moved));

        let mut moved = outcome.clone();
        let last = moved.replicas.last_mut().expect("three replicas");
        last.best_cost = last.best_cost.map(next_up);
        assert!(!outcome.deterministic_eq(&moved));
    }

    #[test]
    fn ladder_mode_records_an_exchange_trace() {
        let outcome = fleet(ExchangeMode::Ladder, 2)
            .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
            .expect("fleet runs");
        assert!(outcome.complete);
        assert!(
            !outcome.trace.is_empty(),
            "adjacent replicas must attempt swaps"
        );
        // The trace is mirrored one-to-one into telemetry.
        let exchange_events = outcome
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Exchange(_)))
            .count();
        assert_eq!(exchange_events, outcome.trace.len());
    }

    #[test]
    fn telemetry_brackets_every_replica() {
        let outcome = fleet(ExchangeMode::Independent, 3)
            .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
            .expect("fleet runs");
        let started = outcome
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::ReplicaStarted { .. }))
            .count();
        let stopped = outcome
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::ReplicaStopped { .. }))
            .count();
        assert_eq!(started, 3);
        assert_eq!(stopped, 3);
        assert!(matches!(
            outcome.events.first(),
            Some(FleetEvent::FleetStarted { .. })
        ));
        assert!(matches!(
            outcome.events.last(),
            Some(FleetEvent::FleetCompleted { .. })
        ));
    }

    #[test]
    fn pause_and_resume_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("irgrid_fleet_pause_resume");
        std::fs::remove_dir_all(&dir).ok();
        let fleet = fleet(ExchangeMode::Ladder, 2);
        let reference = fleet
            .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
            .expect("reference fleet");

        let paused = fleet
            .run(
                || FullCostDelta::new(&Bowl),
                &FleetOptions {
                    run_dir: Some(dir.clone()),
                    pause_after_rounds: Some(2),
                    ..FleetOptions::default()
                },
            )
            .expect("paused fleet");
        assert!(!paused.complete);
        assert_eq!(paused.rounds, 2);

        let resumed = fleet
            .run(
                || FullCostDelta::new(&Bowl),
                &FleetOptions {
                    run_dir: Some(dir.clone()),
                    resume: true,
                    ..FleetOptions::default()
                },
            )
            .expect("resumed fleet");
        assert!(resumed.deterministic_eq(&reference));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_fleet_resumes_to_the_same_result() {
        let dir = std::env::temp_dir().join("irgrid_fleet_cancelled");
        std::fs::remove_dir_all(&dir).ok();
        let fleet = fleet(ExchangeMode::Ladder, 2);
        let reference = fleet
            .run(|| FullCostDelta::new(&Bowl), &FleetOptions::default())
            .expect("reference fleet");

        // A pre-cancelled token stops every segment at its first
        // boundary; the round never commits.
        let token = CancelToken::new();
        token.cancel();
        let first = fleet
            .run(
                || FullCostDelta::new(&Bowl),
                &FleetOptions {
                    run_dir: Some(dir.clone()),
                    cancel: Some(token),
                    ..FleetOptions::default()
                },
            )
            .expect_err("nothing committed, so there is no partial result");
        assert!(matches!(first, FleetError::StoppedBeforeFirstRound));

        // The directory holds a start-of-run telemetry file but no
        // manifest, so resuming reports NothingToResume.
        let resumed = fleet.run(
            || FullCostDelta::new(&Bowl),
            &FleetOptions {
                run_dir: Some(dir.clone()),
                resume: true,
                ..FleetOptions::default()
            },
        );
        assert!(matches!(resumed, Err(FleetError::NothingToResume { .. })));

        // Cancelling after some rounds commit leaves a resumable manifest.
        let token = CancelToken::new();
        let paused = fleet
            .run(
                || FullCostDelta::new(&Bowl),
                &FleetOptions {
                    run_dir: Some(dir.clone()),
                    pause_after_rounds: Some(1),
                    cancel: Some(token),
                    ..FleetOptions::default()
                },
            )
            .expect("one round commits");
        assert!(!paused.complete);
        let resumed = fleet
            .run(
                || FullCostDelta::new(&Bowl),
                &FleetOptions {
                    run_dir: Some(dir.clone()),
                    resume: true,
                    ..FleetOptions::default()
                },
            )
            .expect("resumed fleet");
        assert!(resumed.deterministic_eq(&reference));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fleet_stopped_before_its_first_round_says_nothing_was_saved() {
        let dir = std::env::temp_dir().join("irgrid_fleet_no_round");
        std::fs::remove_dir_all(&dir).ok();
        let fleet = fleet(ExchangeMode::Ladder, 2);
        let token = CancelToken::new();
        token.cancel();
        // A pause, a cancelled token, and `repro fleet --time-limit` with
        // a limit no round fits in.
        for options in [
            FleetOptions {
                run_dir: Some(dir.clone()),
                pause_after_rounds: Some(0),
                ..FleetOptions::default()
            },
            FleetOptions {
                run_dir: Some(dir.clone()),
                cancel: Some(token),
                ..FleetOptions::default()
            },
            FleetOptions {
                run_dir: Some(dir.clone()),
                time_limit: Some(Duration::ZERO),
                ..FleetOptions::default()
            },
        ] {
            let err = fleet
                .run(|| FullCostDelta::new(&Bowl), &options)
                .expect_err("no round completed");
            assert!(
                matches!(err, FleetError::StoppedBeforeFirstRound),
                "{err:?}"
            );
            let message = err.to_string();
            assert!(message.contains("nothing was saved"), "{message}");
            assert!(message.contains("longer time limit"), "{message}");
            assert!(dir.join(TELEMETRY_FILE).exists());
            assert!(!dir.join(MANIFEST_FILE).exists(), "nothing to resume");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_mismatched_schedule() {
        let dir = std::env::temp_dir().join("irgrid_fleet_mismatch");
        std::fs::remove_dir_all(&dir).ok();
        let fleet_a = fleet(ExchangeMode::Independent, 1);
        fleet_a
            .run(
                || FullCostDelta::new(&Bowl),
                &FleetOptions {
                    run_dir: Some(dir.clone()),
                    pause_after_rounds: Some(1),
                    ..FleetOptions::default()
                },
            )
            .expect("one round commits");

        let fleet_b = Fleet::new(Annealer::new(Schedule::default()), *fleet_a.config())
            .expect("valid config");
        let err = fleet_b
            .run(
                || FullCostDelta::new(&Bowl),
                &FleetOptions {
                    run_dir: Some(dir.clone()),
                    resume: true,
                    ..FleetOptions::default()
                },
            )
            .expect_err("schedule drift must be refused");
        assert!(matches!(
            err,
            FleetError::ManifestMismatch { what: "schedule" }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resuming_a_complete_fleet_is_a_stable_no_op() {
        let dir = std::env::temp_dir().join("irgrid_fleet_complete_noop");
        std::fs::remove_dir_all(&dir).ok();
        let fleet = fleet(ExchangeMode::Ladder, 2);
        let options = FleetOptions {
            run_dir: Some(dir.clone()),
            ..FleetOptions::default()
        };
        let first = fleet
            .run(|| FullCostDelta::new(&Bowl), &options)
            .expect("fleet runs");
        assert!(first.complete);
        let again = fleet
            .run(
                || FullCostDelta::new(&Bowl),
                &FleetOptions {
                    resume: true,
                    ..options
                },
            )
            .expect("resume of a complete fleet");
        assert!(
            again.deterministic_eq(&first),
            "no duplicate events or drift"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
