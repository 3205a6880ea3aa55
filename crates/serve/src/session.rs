//! One client's evaluation session.
//!
//! A session pairs a small **persistent** state record ([`SessionState`],
//! snapshotted atomically after every mutation) with ephemeral runtime
//! machinery: the irregular-grid model, the degradation-ladder fallback
//! models, and a handle to the manager-wide [`SharedScoreCache`]. Everything that matters for crash recovery
//! lives in `SessionState`; everything else is reconstructed
//! deterministically from it, so a daemon restart resumes the session
//! bit-identically.
//!
//! # Mutation discipline
//!
//! [`Session::evaluate`] never mutates persistent state on a failed
//! request: budget checks happen before work, deadline aborts happen
//! before the commit, and the *caller* (the session manager) persists the
//! new state before releasing the response — rolling the in-memory record
//! back if persistence fails. A client therefore observes a success only
//! after the state that remembers it is durable, which is what makes
//! retries idempotent and recovery bit-identical.

use irgrid_anneal::RunControl;
use irgrid_core::{CongestionModel, FixedGridModel, IrregularGridModel, LzShapeModel};
use irgrid_fleet::pool;
use irgrid_fleet::state_digest;
use irgrid_geom::{Point, Rect, Um};
use serde::{Deserialize, Serialize};

use crate::cache::{model_id, score_key, SharedScoreCache};
use crate::protocol::{ErrorKind, EvalResult, FloorplanState, SessionConfig, SessionStat};

/// Snapshot format version written by this library.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One remembered `Evaluate` response, for idempotent retries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedRecord {
    /// The client's request id.
    pub request_id: String,
    /// Digest of the request's state batch; a retry must match it.
    pub batch_digest: String,
    /// The recorded results, replayed verbatim.
    pub results: Vec<EvalResult>,
}

/// The persistent part of a session — everything crash recovery needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionState {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The session id (redundant with the file name; cross-checked on
    /// load so a renamed or copied snapshot cannot impersonate another
    /// session).
    pub session_id: String,
    /// The fixed configuration from `Open`.
    pub config: SessionConfig,
    /// States evaluated over the session's lifetime.
    pub evals_done: u64,
    /// Idempotency ring, oldest first.
    pub completed: Vec<CompletedRecord>,
}

impl SessionState {
    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        // irgrid-lint: allow(P1): serializing a plain owned data struct cannot fail
        serde_json::to_string_pretty(self).expect("session snapshot serialization is infallible")
    }

    /// Parses a snapshot, validating version and id.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the text is torn/garbage,
    /// the version is foreign, or the embedded id does not match.
    pub fn from_json(text: &str, expect_id: &str) -> Result<SessionState, String> {
        let state: SessionState =
            serde_json::from_str(text).map_err(|err| format!("snapshot did not parse: {err}"))?;
        if state.version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot version {} unsupported (expected {SNAPSHOT_VERSION})",
                state.version
            ));
        }
        if state.session_id != expect_id {
            return Err(format!(
                "snapshot names session `{}`, expected `{expect_id}`",
                state.session_id
            ));
        }
        if state.config.pitch_um <= 0 {
            return Err("snapshot config has a non-positive pitch".to_owned());
        }
        Ok(state)
    }
}

/// A rung of the graceful-degradation ladder, cheapest last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeRung {
    /// Full fidelity: the paper's irregular-grid model (cached).
    Full,
    /// First fallback: the L/Z-shape model.
    Lz,
    /// Last resort: the uniform fixed-grid model.
    Fixed,
}

impl DegradeRung {
    /// The model name reported in [`EvalResult::model`].
    #[must_use]
    pub fn model_name(&self) -> &'static str {
        match self {
            DegradeRung::Full => "irregular",
            DegradeRung::Lz => "lz",
            DegradeRung::Fixed => "fixed",
        }
    }

    /// Whether this rung flags the response as degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !matches!(self, DegradeRung::Full)
    }
}

/// A failed evaluation, mapped to a protocol error by the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalFailure {
    /// The protocol error class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Whether resending the identical request can succeed.
    pub retryable: bool,
}

impl EvalFailure {
    pub(crate) fn new(kind: ErrorKind, message: impl Into<String>, retryable: bool) -> EvalFailure {
        EvalFailure {
            kind,
            message: message.into(),
            retryable,
        }
    }
}

/// A live session: persistent state plus runtime machinery.
#[derive(Debug)]
pub struct Session {
    /// The persistent record (the manager snapshots and rolls back this).
    pub state: SessionState,
    model: IrregularGridModel,
    lz: LzShapeModel,
    fixed: FixedGridModel,
    /// Handle to the manager-wide score cache.
    cache: SharedScoreCache,
    /// Whether this session participates in the shared cache
    /// (`config.cache_capacity > 0`).
    cache_enabled: bool,
    /// Hits observed by *this* session (the shared counter aggregates
    /// all sessions).
    cache_hits: u64,
    /// The scoring-pipeline id this session caches under; delta sessions
    /// share it, since both score with `IrregularGridModel::evaluate`'s
    /// engine.
    cache_model: String,
    completed_ring: usize,
}

impl Session {
    /// Creates a fresh session for `config`, caching scores in `cache`.
    #[must_use]
    pub fn create(
        session_id: &str,
        config: SessionConfig,
        completed_ring: usize,
        cache: SharedScoreCache,
    ) -> Session {
        let state = SessionState {
            version: SNAPSHOT_VERSION,
            session_id: session_id.to_owned(),
            config,
            evals_done: 0,
            completed: Vec::new(),
        };
        Session::from_state(state, completed_ring, cache)
    }

    /// Rebuilds a session around recovered persistent state.
    #[must_use]
    pub fn from_state(
        state: SessionState,
        completed_ring: usize,
        cache: SharedScoreCache,
    ) -> Session {
        let pitch = Um(state.config.pitch_um.max(1));
        let model = IrregularGridModel::new(pitch);
        Session {
            model,
            lz: LzShapeModel::new(pitch),
            fixed: FixedGridModel::new(pitch),
            cache,
            cache_enabled: state.config.cache_capacity > 0,
            cache_hits: 0,
            cache_model: model_id("irregular", pitch.0),
            completed_ring: completed_ring.max(1),
            state,
        }
    }

    /// The budget control this session's config induces.
    #[must_use]
    pub fn budget_control(&self) -> RunControl {
        let control = RunControl::unlimited();
        if self.state.config.budget > 0 {
            control.with_move_budget(self.state.config.budget)
        } else {
            control
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stat(&self) -> SessionStat {
        let budget = self.state.config.budget;
        SessionStat {
            evals_done: self.state.evals_done,
            budget_left: budget.saturating_sub(self.state.evals_done),
            cache_hits: self.cache_hits,
            completed: self.state.completed.len() as u64,
        }
    }

    /// The recorded response for `request_id`, if any.
    #[must_use]
    pub fn recorded(&self, request_id: &str) -> Option<&CompletedRecord> {
        self.state
            .completed
            .iter()
            .find(|record| record.request_id == request_id)
    }

    /// Scores a batch of states at the given rung.
    ///
    /// On success the session's `evals_done` advances and (at
    /// [`DegradeRung::Full`] only) the response is recorded for
    /// idempotent replay — the caller must persist the state before
    /// releasing the response, rolling back on failure. On error nothing
    /// is mutated except the (non-persistent, always-safe) score cache.
    ///
    /// # Errors
    ///
    /// [`EvalFailure`] with the protocol error class: budget exhaustion,
    /// invalid geometry, or a tripped per-request deadline.
    pub fn evaluate(
        &mut self,
        request_id: &str,
        batch_digest: &str,
        states: &[FloorplanState],
        rung: DegradeRung,
        request_control: &RunControl,
        workers: usize,
    ) -> Result<Vec<EvalResult>, EvalFailure> {
        let budget = self.budget_control();
        let asked = states.len() as u64;
        if asked > 0 && budget.budget_hit(self.state.evals_done + asked - 1) {
            return Err(EvalFailure::new(
                ErrorKind::BudgetExhausted,
                format!(
                    "budget {} cannot cover {asked} more evaluation(s) after {}",
                    self.state.config.budget, self.state.evals_done
                ),
                false,
            ));
        }

        // Validate geometry up front so a bad state fails the whole batch
        // before any work (keeps evals_done all-or-nothing per request).
        let mut geometries = Vec::with_capacity(states.len());
        for (index, state) in states.iter().enumerate() {
            let geometry = to_geometry(state).map_err(|why| {
                EvalFailure::new(
                    ErrorKind::InvalidRequest,
                    format!("state {index}: {why}"),
                    false,
                )
            })?;
            geometries.push(geometry);
        }

        let results = match rung {
            DegradeRung::Full => {
                self.evaluate_full(states, &geometries, request_control, workers)?
            }
            DegradeRung::Lz | DegradeRung::Fixed => {
                self.evaluate_degraded(states, &geometries, rung, request_control)?
            }
        };

        self.state.evals_done += asked;
        if rung == DegradeRung::Full {
            // Normalize `cached` before recording: whether a score came
            // from the (non-persistent, never-rolled-back) cache is
            // runtime observability, and letting it into the durable
            // record would make snapshot bytes depend on retry history.
            let recorded = results
                .iter()
                .map(|result| EvalResult {
                    cached: false,
                    ..result.clone()
                })
                .collect();
            self.state.completed.push(CompletedRecord {
                request_id: request_id.to_owned(),
                batch_digest: batch_digest.to_owned(),
                results: recorded,
            });
            while self.state.completed.len() > self.completed_ring {
                self.state.completed.remove(0);
            }
        }
        Ok(results)
    }

    /// Full-fidelity scoring: cache lookups, then the uncached remainder
    /// fanned over the deterministic worker pool.
    fn evaluate_full(
        &mut self,
        states: &[FloorplanState],
        geometries: &[(Rect, Vec<(Point, Point)>)],
        request_control: &RunControl,
        workers: usize,
    ) -> Result<Vec<EvalResult>, EvalFailure> {
        let mut results: Vec<Option<EvalResult>> = Vec::with_capacity(states.len());
        let mut keys = Vec::with_capacity(states.len());
        let mut pending: Vec<usize> = Vec::new();
        for (index, state) in states.iter().enumerate() {
            let key = score_key(&self.cache_model, state);
            let hit = if self.cache_enabled {
                self.cache.get(&key)
            } else {
                None
            };
            match hit {
                Some(score) => {
                    self.cache_hits += 1;
                    results.push(Some(EvalResult {
                        digest: key.digest.clone(),
                        score,
                        model: DegradeRung::Full.model_name().to_owned(),
                        cached: true,
                    }));
                }
                None => {
                    results.push(Some(EvalResult {
                        digest: key.digest.clone(),
                        score: 0.0,
                        model: DegradeRung::Full.model_name().to_owned(),
                        cached: false,
                    }));
                    pending.push(index);
                }
            }
            keys.push(key);
        }

        if timed_out(request_control) {
            return Err(deadline_failure());
        }

        // Outputs return in job order, and `evaluate` is a pure function
        // of the state, so any worker count scores bit-identically (the
        // pool runs inline for one worker or one job).
        let model = &self.model;
        let scored: Vec<Option<(usize, f64)>> = pool::run_ordered(
            workers,
            pending,
            |_| (),
            |(), _, index| {
                if timed_out(request_control) {
                    return None;
                }
                let (chip, segments) = &geometries[index];
                Some((index, model.evaluate(chip, segments)))
            },
        );
        for slot in scored {
            let Some((index, score)) = slot else {
                return Err(deadline_failure());
            };
            set_score(&mut results, index, score);
        }

        let results: Vec<EvalResult> = results.into_iter().flatten().collect();
        if self.cache_enabled {
            for (result, key) in results.iter().zip(keys) {
                if !result.cached {
                    self.cache.put(key, result.score);
                }
            }
        }
        Ok(results)
    }

    /// Degraded scoring: always inline (the cheap models are the load
    /// valve, there is nothing to parallelize), never cached.
    fn evaluate_degraded(
        &mut self,
        states: &[FloorplanState],
        geometries: &[(Rect, Vec<(Point, Point)>)],
        rung: DegradeRung,
        request_control: &RunControl,
    ) -> Result<Vec<EvalResult>, EvalFailure> {
        let mut results = Vec::with_capacity(states.len());
        for (state, (chip, segments)) in states.iter().zip(geometries) {
            if timed_out(request_control) {
                return Err(deadline_failure());
            }
            let score = match rung {
                DegradeRung::Lz => self.lz.evaluate(chip, segments),
                _ => self.fixed.evaluate(chip, segments),
            };
            results.push(EvalResult {
                digest: state_digest(state),
                score,
                model: rung.model_name().to_owned(),
                cached: false,
            });
        }
        Ok(results)
    }
}

fn set_score(results: &mut [Option<EvalResult>], index: usize, score: f64) {
    if let Some(Some(result)) = results.get_mut(index) {
        result.score = score;
    }
}

pub(crate) fn timed_out(control: &RunControl) -> bool {
    control.deadline_hit() || control.cancel_hit()
}

pub(crate) fn deadline_failure() -> EvalFailure {
    EvalFailure::new(
        ErrorKind::Timeout,
        "per-request evaluation deadline passed mid-batch",
        true,
    )
}

/// Converts a wire state into model geometry, validating bounds.
pub(crate) fn to_geometry(state: &FloorplanState) -> Result<(Rect, Vec<(Point, Point)>), String> {
    let [width, height] = state.chip;
    if width <= 0 || height <= 0 {
        return Err(format!("chip extent {width}x{height} is not positive"));
    }
    let chip = Rect::from_origin_size(Point::ORIGIN, Um(width), Um(height));
    let mut segments = Vec::with_capacity(state.segments.len());
    for (index, &[x1, y1, x2, y2]) in state.segments.iter().enumerate() {
        for (axis, value, max) in [
            ("x", x1, width),
            ("y", y1, height),
            ("x", x2, width),
            ("y", y2, height),
        ] {
            if value < 0 || value > max {
                return Err(format!(
                    "segment {index}: {axis} coordinate {value} outside chip 0..={max}"
                ));
            }
        }
        segments.push((Point::new(Um(x1), Um(y1)), Point::new(Um(x2), Um(y2))));
    }
    Ok((chip, segments))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_states(count: usize) -> Vec<FloorplanState> {
        (0..count)
            .map(|k| {
                let k = k as i64;
                FloorplanState {
                    chip: [600, 600],
                    segments: vec![
                        [30 + k * 7, 30, 540, 540 - k * 5],
                        [30, 540, 540 - k * 3, 30],
                        [10, 10 + k, 590, 300],
                    ],
                }
            })
            .collect()
    }

    fn shared() -> SharedScoreCache {
        SharedScoreCache::new(256)
    }

    fn session() -> Session {
        Session::create("t", SessionConfig::default_config(), 8, shared())
    }

    #[test]
    fn full_evaluation_matches_the_stateless_model_bit_for_bit() {
        let mut session = session();
        let states = demo_states(3);
        let results = session
            .evaluate(
                "r1",
                "d1",
                &states,
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("evaluate");
        let model = IrregularGridModel::new(Um(30));
        for (state, result) in states.iter().zip(&results) {
            let (chip, segments) = to_geometry(state).expect("geometry");
            let expected = model.evaluate(&chip, &segments);
            assert_eq!(result.score.to_bits(), expected.to_bits());
            assert_eq!(result.model, "irregular");
            assert!(!result.cached);
        }
        assert_eq!(session.state.evals_done, 3);
    }

    #[test]
    fn pool_path_matches_inline_path_bit_for_bit() {
        let states = demo_states(6);
        let mut inline = session();
        let a = inline
            .evaluate(
                "r",
                "d",
                &states,
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("inline");
        let mut pooled = session();
        let b = pooled
            .evaluate(
                "r",
                "d",
                &states,
                DegradeRung::Full,
                &RunControl::unlimited(),
                4,
            )
            .expect("pooled");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.digest, y.digest);
        }
    }

    #[test]
    fn repeat_states_hit_the_cache_with_identical_scores() {
        let mut session = session();
        let states = demo_states(2);
        let first = session
            .evaluate(
                "r1",
                "d1",
                &states,
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("first");
        let second = session
            .evaluate(
                "r2",
                "d2",
                &states,
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("second");
        for (a, b) in first.iter().zip(&second) {
            assert!(!a.cached);
            assert!(b.cached);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(session.stat().cache_hits, 2);
    }

    #[test]
    fn degraded_rungs_flag_and_skip_recording() {
        let mut session = session();
        let states = demo_states(1);
        for (rung, name) in [(DegradeRung::Lz, "lz"), (DegradeRung::Fixed, "fixed")] {
            let results = session
                .evaluate("r1", "d1", &states, rung, &RunControl::unlimited(), 1)
                .expect("evaluate");
            assert_eq!(results[0].model, name);
            assert!(rung.is_degraded());
        }
        // Degraded responses are not recorded for replay.
        assert!(session.recorded("r1").is_none());
        // But they do advance the (client-deterministic) eval counter.
        assert_eq!(session.state.evals_done, 2);
    }

    #[test]
    fn budget_rejects_whole_batches_without_partial_spend() {
        let config = SessionConfig {
            budget: 4,
            ..SessionConfig::default_config()
        };
        let mut session = Session::create("b", config, 8, shared());
        let states = demo_states(3);
        session
            .evaluate(
                "r1",
                "d1",
                &states,
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("first batch fits");
        let err = session
            .evaluate(
                "r2",
                "d2",
                &states,
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect_err("second batch exceeds budget");
        assert_eq!(err.kind, ErrorKind::BudgetExhausted);
        assert!(!err.retryable);
        assert_eq!(session.state.evals_done, 3, "no partial spend");
        // A batch that exactly fits still passes.
        let one = demo_states(1);
        session
            .evaluate(
                "r3",
                "d3",
                &one,
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("exact fit");
        assert_eq!(session.stat().budget_left, 0);
    }

    #[test]
    fn invalid_geometry_is_rejected_atomically() {
        let mut session = session();
        let states = vec![
            demo_states(1).remove(0),
            FloorplanState {
                chip: [100, 100],
                segments: vec![[0, 0, 101, 50]],
            },
        ];
        let err = session
            .evaluate(
                "r1",
                "d1",
                &states,
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect_err("out-of-chip coordinate");
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        assert_eq!(session.state.evals_done, 0);

        let err = to_geometry(&FloorplanState {
            chip: [0, 100],
            segments: vec![],
        })
        .expect_err("degenerate chip");
        assert!(err.contains("not positive"));
    }

    #[test]
    fn expired_deadline_aborts_before_mutation() {
        let mut session = session();
        let states = demo_states(2);
        let expired = RunControl::unlimited().with_time_limit(std::time::Duration::ZERO);
        let err = session
            .evaluate("r1", "d1", &states, DegradeRung::Full, &expired, 1)
            .expect_err("deadline already passed");
        assert_eq!(err.kind, ErrorKind::Timeout);
        assert!(err.retryable);
        assert_eq!(session.state.evals_done, 0);
        assert!(session.recorded("r1").is_none());
    }

    #[test]
    fn completed_ring_is_bounded_and_replayable() {
        let mut session = Session::create("r", SessionConfig::default_config(), 2, shared());
        for k in 0..4 {
            let states = demo_states(1);
            session
                .evaluate(
                    &format!("req-{k}"),
                    &format!("digest-{k}"),
                    &states,
                    DegradeRung::Full,
                    &RunControl::unlimited(),
                    1,
                )
                .expect("evaluate");
        }
        assert_eq!(session.state.completed.len(), 2);
        assert!(session.recorded("req-0").is_none(), "oldest evicted");
        let record = session.recorded("req-3").expect("newest kept");
        assert_eq!(record.batch_digest, "digest-3");
    }

    #[test]
    fn snapshot_roundtrip_and_validation() {
        let mut session = session();
        let states = demo_states(2);
        session
            .evaluate(
                "r1",
                "d1",
                &states,
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("evaluate");
        let json = session.state.to_json();
        let back = SessionState::from_json(&json, "t").expect("parse");
        assert_eq!(back, session.state);
        // Result scores survive bit-exactly.
        assert_eq!(
            back.completed[0].results[0].score.to_bits(),
            session.state.completed[0].results[0].score.to_bits()
        );

        assert!(SessionState::from_json(&json, "other").is_err(), "id check");
        assert!(SessionState::from_json("{torn", "t").is_err());
        let mut wrong = session.state.clone();
        wrong.version = 99;
        assert!(SessionState::from_json(&wrong.to_json(), "t").is_err());
    }

    #[test]
    fn resumed_session_continues_bit_identically() {
        let states = demo_states(3);
        // Uninterrupted reference: two batches in one lifetime.
        let mut reference = session();
        reference
            .evaluate(
                "r1",
                "d1",
                &states[..2],
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("batch 1");
        reference
            .evaluate(
                "r2",
                "d2",
                &states[2..],
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("batch 2");

        // Interrupted: batch 1, snapshot, "restart", batch 2.
        let mut first = session();
        first
            .evaluate(
                "r1",
                "d1",
                &states[..2],
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("batch 1");
        let snapshot = first.state.to_json();
        let recovered = SessionState::from_json(&snapshot, "t").expect("parse");
        let mut resumed = Session::from_state(recovered, 8, shared());
        resumed
            .evaluate(
                "r2",
                "d2",
                &states[2..],
                DegradeRung::Full,
                &RunControl::unlimited(),
                1,
            )
            .expect("batch 2");

        assert_eq!(resumed.state, reference.state, "recovered state diverged");
        assert_eq!(
            resumed.state.to_json(),
            reference.state.to_json(),
            "snapshots must be byte-identical"
        );
    }
}
