//! One client's session: the serve-side wrapper around a
//! session-resident [`IrDeltaEvaluator`].
//!
//! A session pairs a small **persistent** record ([`SessionState`]) with
//! deterministic runtime machinery. The contract is move-shaped:
//! `Propose` scores one candidate against the committed floorplan through
//! the exact Q32 delta pipeline, `Commit` makes the pending proposal the
//! new committed state, and `Undo` drops it. `Evaluate` scores a batch of
//! independent states with [`IrregularGridModel::evaluate`] (the same
//! bits as a fresh rebase) and never touches the evaluator. Only `Commit`
//! mutates persistent state; `Propose`/`Undo`/`Evaluate` are pure, which
//! is what lets the daemon skip a persist round-trip on the
//! (overwhelmingly common) rejected-move path.
//!
//! # Crash recovery
//!
//! The snapshot stores the committed [`FloorplanState`] plus a bounded
//! **commit journal** whose tail pins the committed map's identity: the
//! commit's score bits and a fingerprint of the evaluator's exact cut
//! vectors and Q32 totals ([`IrDeltaEvaluator::committed_fingerprint`]).
//! [`Session::from_state`] replays the committed state through a fresh
//! evaluator and refuses to resume unless both match — a restored
//! session is therefore *verified* bit-identical to the one that
//! persisted, not assumed.
//!
//! # Commit ordering
//!
//! Commits are split into [`Session::prepare_commit`] (pure: builds the
//! next persistent record) and [`Session::apply_commit`] (advances the
//! evaluator). The manager persists *between* the two, so a failed
//! persist leaves both the evaluator and the pending proposal untouched
//! and the client can simply retry the commit — no rollback path exists
//! because nothing was mutated.

use irgrid_anneal::RunControl;
use irgrid_core::{
    CongestionModel, DeltaCongestion, DeltaCongestionSession, IrDeltaEvaluator, IrregularGridModel,
};
use irgrid_fleet::pool;
use irgrid_geom::{Point, Rect, Um};
use serde::{Deserialize, Serialize};

use crate::cache::{model_id, score_key, SharedScoreCache};
use crate::protocol::{ErrorKind, EvalResult, FloorplanState, SessionConfig, SessionStat};

/// Snapshot format version written by this library.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One committed move, oldest first in the journal. The tail record
/// pins the committed map: recovery re-derives the map from the stored
/// [`FloorplanState`] and must reproduce `score` bit for bit and
/// `fingerprint` exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommitRecord {
    /// 1-based commit sequence number (== `commits_done` at commit time).
    pub seq: u64,
    /// Digest of the committed state.
    pub digest: String,
    /// The committed map's cost, bit-exact.
    pub score: f64,
    /// 16-hex-char fingerprint of the committed snapshot's cut vectors,
    /// Q32 totals, and cost bits (hex so the u64 never rides through a
    /// JSON float).
    pub fingerprint: String,
}

/// One remembered `Commit` response, for idempotent retries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedCommit {
    /// The client's request id.
    pub request_id: String,
    /// The digest the commit was issued against; a retry must match it.
    pub digest: String,
    /// The recorded score, replayed verbatim.
    pub score: f64,
    /// The recorded commit sequence number.
    pub seq: u64,
}

/// The persistent part of a session — everything crash recovery needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionState {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The session id, cross-checked on load.
    pub session_id: String,
    /// The fixed configuration from `OpenDelta`. `budget` counts
    /// *commits* (proposes, undos and evaluates are free).
    pub config: SessionConfig,
    /// Commits over the session's lifetime.
    pub commits_done: u64,
    /// The committed floorplan (`None` until the first commit).
    pub committed: Option<FloorplanState>,
    /// Bounded commit journal, oldest first; the tail verifies recovery.
    pub journal: Vec<CommitRecord>,
    /// Idempotency ring for commits, oldest first.
    pub completed: Vec<CompletedCommit>,
}

impl SessionState {
    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        // irgrid-lint: allow(P1): serializing a plain owned data struct cannot fail
        serde_json::to_string_pretty(self).expect("session snapshot serialization is infallible")
    }

    /// Parses a snapshot, validating version, id, and journal shape.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the text is torn/garbage or
    /// internally inconsistent (version, id, pitch, or a journal that
    /// does not agree with `commits_done`/`committed`).
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
        if state.commits_done == 0 {
            if state.committed.is_some() || !state.journal.is_empty() {
                return Err("snapshot has commit data but commits_done = 0".to_owned());
            }
        } else {
            if state.committed.is_none() {
                return Err(format!(
                    "snapshot records {} commit(s) but no committed state",
                    state.commits_done
                ));
            }
            let Some(tail) = state.journal.last() else {
                return Err("snapshot has commits but an empty journal".to_owned());
            };
            if tail.seq != state.commits_done {
                return Err(format!(
                    "journal tail seq {} does not match commits_done {}",
                    tail.seq, state.commits_done
                ));
            }
            let increasing = state.journal.windows(2).all(|w| w[0].seq < w[1].seq);
            if !increasing || state.journal.iter().any(|r| r.seq == 0) {
                return Err("journal seq numbers are not strictly increasing from 1".to_owned());
            }
        }
        if state.completed.iter().any(|r| r.seq > state.commits_done) {
            return Err("completed ring references a commit past commits_done".to_owned());
        }
        Ok(state)
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
    fn new(kind: ErrorKind, message: impl Into<String>, retryable: bool) -> EvalFailure {
        EvalFailure {
            kind,
            message: message.into(),
            retryable,
        }
    }
}

/// The proposal currently armed for commit. Mirrors the evaluator's
/// internal proposed snapshot.
#[derive(Debug, Clone)]
struct PendingProposal {
    state: FloorplanState,
    digest: String,
    score: f64,
}

/// A live session: persistent record plus the session-resident
/// [`IrDeltaEvaluator`] and the stateless model `Evaluate` scores with.
#[derive(Debug)]
pub struct Session {
    /// The persistent record (the manager persists this via
    /// [`prepare_commit`](Self::prepare_commit)).
    pub state: SessionState,
    evaluator: IrDeltaEvaluator,
    model: IrregularGridModel,
    cache: SharedScoreCache,
    cache_enabled: bool,
    cache_hits: u64,
    cache_model: String,
    completed_ring: usize,
    pending: Option<PendingProposal>,
}

/// What [`Session::prepare_commit`] decided.
#[derive(Debug)]
pub enum CommitOutcome {
    /// The request id was already recorded; replay the remembered ack
    /// (nothing to persist or apply).
    Replayed {
        /// Recorded state digest.
        digest: String,
        /// Recorded score, bit-exact.
        score: f64,
        /// Recorded commit sequence number.
        seq: u64,
    },
    /// A new commit: persist [`PreparedCommit::snapshot_json`], then
    /// [`apply_commit`](Session::apply_commit).
    Prepared(PreparedCommit),
}

/// A commit that has been validated and staged but not yet applied.
/// Holds the *next* persistent record; the session is untouched until
/// [`Session::apply_commit`] consumes this.
#[derive(Debug)]
pub struct PreparedCommit {
    next: SessionState,
    digest: String,
    score: f64,
    seq: u64,
}

impl PreparedCommit {
    /// The snapshot JSON the manager must persist before applying.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        self.next.to_json()
    }
}

impl Session {
    /// Creates a fresh session for `config`.
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
            commits_done: 0,
            committed: None,
            journal: Vec::new(),
            completed: Vec::new(),
        };
        Session::from_state(state, completed_ring, cache)
            .unwrap_or_else(|why| unreachable!("fresh session state cannot fail recovery: {why}"))
    }

    /// Rebuilds a session around recovered persistent state, replaying
    /// the committed floorplan through a fresh evaluator and verifying
    /// it against the journal tail.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the committed state is
    /// unparseable geometry or the replayed map's cost bits or
    /// fingerprint disagree with what the journal recorded — a loud
    /// refusal, since serving from a diverged map would silently break
    /// the bit-identity contract.
    pub fn from_state(
        state: SessionState,
        completed_ring: usize,
        cache: SharedScoreCache,
    ) -> Result<Session, String> {
        let pitch = Um(state.config.pitch_um.max(1));
        let model = IrregularGridModel::new(pitch);
        let mut evaluator = model.delta_session();
        if let Some(committed) = &state.committed {
            let (chip, segments) = to_geometry(committed)
                .map_err(|why| format!("recovered committed state is invalid: {why}"))?;
            let cost = evaluator.rebase(&chip, &segments);
            let tail = state
                .journal
                .last()
                .ok_or_else(|| "committed state without a journal tail".to_owned())?;
            if cost.to_bits() != tail.score.to_bits() {
                return Err(format!(
                    "replayed committed map cost {cost:?} (bits {:016x}) does not match \
                     journal tail score {:?} (bits {:016x})",
                    cost.to_bits(),
                    tail.score,
                    tail.score.to_bits()
                ));
            }
            let fingerprint = format!("{:016x}", evaluator.committed_fingerprint());
            if fingerprint != tail.fingerprint {
                return Err(format!(
                    "replayed committed map fingerprint {fingerprint} does not match \
                     journal tail fingerprint {}",
                    tail.fingerprint
                ));
            }
        }
        Ok(Session {
            evaluator,
            model,
            cache,
            cache_enabled: state.config.cache_capacity > 0,
            cache_hits: 0,
            cache_model: model_id("irregular", pitch.0),
            completed_ring: completed_ring.max(1),
            pending: None,
            state,
        })
    }

    /// The budget control this session's config induces (`budget`
    /// bounds commits; 0 means unlimited).
    #[must_use]
    pub fn budget_control(&self) -> RunControl {
        let control = RunControl::unlimited();
        if self.state.config.budget > 0 {
            control.with_move_budget(self.state.config.budget)
        } else {
            control
        }
    }

    /// Current counters. `evals_done` reports commits — the only
    /// budget-metered operation.
    #[must_use]
    pub fn stat(&self) -> SessionStat {
        let budget = self.state.config.budget;
        SessionStat {
            evals_done: self.state.commits_done,
            budget_left: budget.saturating_sub(self.state.commits_done),
            cache_hits: self.cache_hits,
            completed: self.state.completed.len() as u64,
        }
    }

    /// The recorded commit ack for `request_id`, if any.
    #[must_use]
    pub fn recorded(&self, request_id: &str) -> Option<&CompletedCommit> {
        self.state
            .completed
            .iter()
            .find(|record| record.request_id == request_id)
    }

    /// The digest of the pending proposal, if one is armed.
    #[must_use]
    pub fn pending_digest(&self) -> Option<&str> {
        self.pending.as_ref().map(|pending| pending.digest.as_str())
    }

    /// Scores one candidate against the committed floorplan and arms it
    /// for commit, returning its `(digest, score)`. Pure with respect to
    /// persistent state — nothing to persist, nothing to record.
    ///
    /// # Errors
    ///
    /// [`EvalFailure`] on invalid geometry or an expired deadline.
    pub fn propose(
        &mut self,
        state: &FloorplanState,
        control: &RunControl,
    ) -> Result<(String, f64), EvalFailure> {
        let (chip, segments) = to_geometry(state)
            .map_err(|why| EvalFailure::new(ErrorKind::InvalidRequest, why, false))?;
        if timed_out(control) {
            return Err(deadline_failure());
        }
        let key = score_key(&self.cache_model, state);
        let digest = key.digest.clone();
        let score = self.evaluator.propose(&chip, &segments);
        if self.cache_enabled {
            self.cache.put(key, score);
        }
        self.pending = Some(PendingProposal {
            state: state.clone(),
            digest: digest.clone(),
            score,
        });
        Ok((digest, score))
    }

    /// Validates a commit and stages the next persistent record without
    /// mutating the session. The manager persists the staged snapshot,
    /// then calls [`apply_commit`](Self::apply_commit); on persist
    /// failure it simply drops the [`PreparedCommit`] and the pending
    /// proposal stays armed for a retry.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::NoPendingProposal`] when no proposal (or a
    /// different one) is armed, [`ErrorKind::BudgetExhausted`] when the
    /// commit budget is spent, [`ErrorKind::InvalidRequest`] when a
    /// recorded request id is retried with a different digest.
    pub fn prepare_commit(
        &self,
        request_id: &str,
        digest: &str,
    ) -> Result<CommitOutcome, EvalFailure> {
        if let Some(record) = self.recorded(request_id) {
            if record.digest != digest {
                return Err(EvalFailure::new(
                    ErrorKind::InvalidRequest,
                    format!(
                        "request id `{request_id}` was recorded for digest {} but retried \
                         with {digest}",
                        record.digest
                    ),
                    false,
                ));
            }
            return Ok(CommitOutcome::Replayed {
                digest: record.digest.clone(),
                score: record.score,
                seq: record.seq,
            });
        }
        let Some(pending) = &self.pending else {
            return Err(EvalFailure::new(
                ErrorKind::NoPendingProposal,
                "no pending proposal in this session (propose, then commit)",
                false,
            ));
        };
        if pending.digest != digest {
            return Err(EvalFailure::new(
                ErrorKind::NoPendingProposal,
                format!(
                    "pending proposal has digest {}, not {digest} (propose, then commit)",
                    pending.digest
                ),
                false,
            ));
        }
        if self.budget_control().budget_hit(self.state.commits_done) {
            return Err(EvalFailure::new(
                ErrorKind::BudgetExhausted,
                format!(
                    "budget {} cannot cover another commit after {}",
                    self.state.config.budget, self.state.commits_done
                ),
                false,
            ));
        }
        let seq = self.state.commits_done + 1;
        let mut next = self.state.clone();
        next.commits_done = seq;
        next.committed = Some(pending.state.clone());
        next.journal.push(CommitRecord {
            seq,
            digest: pending.digest.clone(),
            score: pending.score,
            // The proposal's fingerprint IS the post-commit committed
            // fingerprint (commit only swaps buffers), which is what
            // lets the record be persisted before the commit applies.
            fingerprint: format!("{:016x}", self.evaluator.proposed_fingerprint()),
        });
        while next.journal.len() > self.completed_ring {
            next.journal.remove(0);
        }
        next.completed.push(CompletedCommit {
            request_id: request_id.to_owned(),
            digest: pending.digest.clone(),
            score: pending.score,
            seq,
        });
        while next.completed.len() > self.completed_ring {
            next.completed.remove(0);
        }
        Ok(CommitOutcome::Prepared(PreparedCommit {
            next,
            digest: pending.digest.clone(),
            score: pending.score,
            seq,
        }))
    }

    /// Applies a persisted commit: advances the evaluator's committed
    /// snapshot and installs the staged persistent record. Returns the
    /// `(digest, score, seq)` ack.
    pub fn apply_commit(&mut self, prepared: PreparedCommit) -> (String, f64, u64) {
        self.evaluator.commit();
        self.state = prepared.next;
        self.pending = None;
        (prepared.digest, prepared.score, prepared.seq)
    }

    /// Drops any pending proposal and returns the committed cost (0
    /// before the first commit). Pure with respect to persistent state.
    pub fn undo(&mut self) -> f64 {
        self.pending = None;
        self.evaluator.undo()
    }

    /// Read-only batch scoring — the `Evaluate` op. Consumes no budget,
    /// records nothing, and never touches the evaluator or the pending
    /// proposal: it is deterministic, so a retry recomputes the identical
    /// bits. The uncached states are scored by
    /// [`IrregularGridModel::evaluate`] (a fresh rebase, so the same bits
    /// as a `Propose` of the same state) fanned over `workers` pool
    /// threads; outputs return in job order, so any worker count scores
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// [`EvalFailure`] on invalid geometry (whole batch, before any
    /// work) or an expired deadline.
    pub fn evaluate(
        &mut self,
        states: &[FloorplanState],
        control: &RunControl,
        workers: usize,
    ) -> Result<Vec<EvalResult>, EvalFailure> {
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

        let mut results = Vec::with_capacity(states.len());
        let mut keys = Vec::with_capacity(states.len());
        let mut pending: Vec<usize> = Vec::new();
        for (index, state) in states.iter().enumerate() {
            let key = score_key(&self.cache_model, state);
            let hit = if self.cache_enabled {
                self.cache.get(&key)
            } else {
                None
            };
            if hit.is_some() {
                self.cache_hits += 1;
            } else {
                pending.push(index);
            }
            results.push(EvalResult {
                digest: key.digest.clone(),
                score: hit.unwrap_or(0.0),
                cached: hit.is_some(),
            });
            keys.push(key);
        }

        if timed_out(control) {
            return Err(deadline_failure());
        }
        let model = &self.model;
        let scored: Vec<Option<(usize, f64)>> = pool::run_ordered(
            workers,
            pending,
            |_| (),
            |(), _, index| {
                if timed_out(control) {
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
            if let Some(result) = results.get_mut(index) {
                result.score = score;
            }
        }

        if self.cache_enabled {
            for (result, key) in results.iter().zip(keys) {
                if !result.cached {
                    self.cache.put(key, result.score);
                }
            }
        }
        Ok(results)
    }
}

fn timed_out(control: &RunControl) -> bool {
    control.deadline_hit() || control.cancel_hit()
}

fn deadline_failure() -> EvalFailure {
    EvalFailure::new(
        ErrorKind::Timeout,
        "per-request evaluation deadline passed mid-batch",
        true,
    )
}

/// Converts a wire state into model geometry, validating bounds.
fn to_geometry(state: &FloorplanState) -> Result<(Rect, Vec<(Point, Point)>), String> {
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

    /// Score of `state` through a fresh from-scratch delta rebase — the
    /// reference the serving path must match bit for bit.
    fn fresh_rebase(state: &FloorplanState) -> f64 {
        let (chip, segments) = to_geometry(state).expect("geometry");
        let model = IrregularGridModel::new(Um(30));
        model.delta_session().rebase(&chip, &segments)
    }

    fn commit(session: &mut Session, request_id: &str, digest: &str) -> (String, f64, u64) {
        match session.prepare_commit(request_id, digest).expect("prepare") {
            CommitOutcome::Prepared(prepared) => session.apply_commit(prepared),
            CommitOutcome::Replayed { digest, score, seq } => (digest, score, seq),
        }
    }

    #[test]
    fn propose_commit_undo_lifecycle() {
        let mut session = session();
        let states = demo_states(2);

        let (d1, s1) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        assert_eq!(s1.to_bits(), fresh_rebase(&states[0]).to_bits());
        assert_eq!(session.pending_digest(), Some(d1.as_str()));

        let (digest, score, seq) = commit(&mut session, "r1", &d1);
        assert_eq!((digest.as_str(), seq), (d1.as_str(), 1));
        assert_eq!(score.to_bits(), s1.to_bits());
        assert_eq!(session.state.commits_done, 1);
        assert_eq!(session.pending_digest(), None);
        assert_eq!(session.state.journal.last().expect("tail").seq, 1);

        // Rejected move: propose, then undo back to the committed cost.
        let (_, s2) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose 2");
        assert_ne!(s2.to_bits(), s1.to_bits());
        assert_eq!(session.undo().to_bits(), s1.to_bits());
        assert_eq!(session.state.commits_done, 1, "undo persists nothing");
    }

    #[test]
    fn commit_without_matching_proposal_is_refused() {
        let mut session = session();
        let states = demo_states(2);
        let err = session
            .prepare_commit("r1", "feedbeef00000000")
            .expect_err("nothing pending");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);

        let (d1, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        let err = session
            .prepare_commit("r1", "feedbeef00000000")
            .expect_err("wrong digest");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);
        // The armed proposal survives the refusal.
        assert_eq!(session.pending_digest(), Some(d1.as_str()));
    }

    #[test]
    fn a_new_propose_replaces_the_armed_one() {
        let mut session = session();
        let states = demo_states(2);
        let (d1, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose 1");
        let (d2, s2) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose 2");
        assert_ne!(d1, d2);
        assert_eq!(session.pending_digest(), Some(d2.as_str()));
        // Scored against the committed state, not the superseded proposal.
        assert_eq!(s2.to_bits(), fresh_rebase(&states[1]).to_bits());

        let err = session
            .prepare_commit("r1", &d1)
            .expect_err("superseded proposal");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);
        let (digest, score, seq) = commit(&mut session, "r1", &d2);
        assert_eq!((digest.as_str(), seq), (d2.as_str(), 1));
        assert_eq!(score.to_bits(), s2.to_bits());
        assert_eq!(session.undo().to_bits(), s2.to_bits(), "committed cost");
    }

    #[test]
    fn undo_disarms_the_proposal_and_reports_the_committed_cost() {
        let mut session = session();
        let states = demo_states(2);
        assert_eq!(
            session.undo().to_bits(),
            0.0f64.to_bits(),
            "nothing committed"
        );
        let (d0, s0) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r0", &d0);

        let (d1, _) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose");
        assert_eq!(session.undo().to_bits(), s0.to_bits());
        assert_eq!(session.pending_digest(), None);
        let err = session
            .prepare_commit("r1", &d1)
            .expect_err("an undone proposal cannot commit");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);
        // A second undo, with nothing armed, changes nothing.
        assert_eq!(session.undo().to_bits(), s0.to_bits());
        assert_eq!(session.state.commits_done, 1);
    }

    #[test]
    fn commit_replay_is_idempotent_and_digest_checked() {
        let mut session = session();
        let states = demo_states(1);
        let (d1, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        let first = commit(&mut session, "r1", &d1);
        // Retry with the same id: replayed ack, no second commit.
        let outcome = session.prepare_commit("r1", &d1).expect("replay");
        let CommitOutcome::Replayed { digest, score, seq } = outcome else {
            panic!("expected a replayed ack");
        };
        assert_eq!(
            (digest, score.to_bits(), seq),
            (first.0, first.1.to_bits(), first.2)
        );
        assert_eq!(session.state.commits_done, 1);
        // Same id, different digest: loud refusal.
        let err = session
            .prepare_commit("r1", "feedbeef00000000")
            .expect_err("digest mismatch on replay");
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn budget_meters_commits_not_proposes() {
        let config = SessionConfig {
            budget: 1,
            ..SessionConfig::default_config()
        };
        let mut session = Session::create("b", config, 8, shared());
        let states = demo_states(2);
        // Proposes, undos and evaluates are free.
        for _ in 0..3 {
            session
                .propose(&states[0], &RunControl::unlimited())
                .expect("free propose");
            session.undo();
            session
                .evaluate(&states, &RunControl::unlimited(), 1)
                .expect("free evaluate");
        }
        let (d1, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r1", &d1);
        assert_eq!(session.stat().budget_left, 0);
        let (d2, _) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose 2");
        let err = session
            .prepare_commit("r2", &d2)
            .expect_err("budget exhausted");
        assert_eq!(err.kind, ErrorKind::BudgetExhausted);
        assert!(!err.retryable);
        assert_eq!(session.state.commits_done, 1);
    }

    #[test]
    fn an_exhausted_budget_still_serves_evaluate_and_propose() {
        let config = SessionConfig {
            budget: 1,
            ..SessionConfig::default_config()
        };
        let mut session = Session::create("b", config, 8, shared());
        let states = demo_states(3);
        let (d0, s0) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r0", &d0);
        assert_eq!(session.stat().budget_left, 0);

        // Read-only work is never metered: a whole batch still scores...
        let results = session
            .evaluate(&states, &RunControl::unlimited(), 1)
            .expect("evaluate past the budget");
        assert_eq!(results.len(), states.len());
        for (state, result) in states.iter().zip(&results) {
            assert_eq!(result.score.to_bits(), fresh_rebase(state).to_bits());
        }
        // ...and a proposal still scores and arms; only its commit is
        // refused, and the refusal leaves it armed.
        let (d1, s1) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose past the budget");
        assert_eq!(s1.to_bits(), fresh_rebase(&states[1]).to_bits());
        let err = session.prepare_commit("r1", &d1).expect_err("budget spent");
        assert_eq!(err.kind, ErrorKind::BudgetExhausted);
        assert_eq!(session.pending_digest(), Some(d1.as_str()));
        assert_eq!(session.undo().to_bits(), s0.to_bits());
        assert_eq!(session.stat().evals_done, 1);
    }

    #[test]
    fn failed_persist_leaves_commit_retryable() {
        let mut session = session();
        let states = demo_states(1);
        let (d1, s1) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        // Prepare, then "fail the persist" by dropping the prepared
        // commit: nothing was mutated, so the retry succeeds.
        let CommitOutcome::Prepared(prepared) = session.prepare_commit("r1", &d1).expect("prepare")
        else {
            panic!("fresh id cannot replay");
        };
        drop(prepared);
        assert_eq!(session.state.commits_done, 0);
        assert_eq!(session.pending_digest(), Some(d1.as_str()));
        let (_, score, seq) = commit(&mut session, "r1", &d1);
        assert_eq!((score.to_bits(), seq), (s1.to_bits(), 1));
    }

    #[test]
    fn readonly_evaluate_matches_fresh_rebase_and_leaves_pending_armed() {
        let mut session = session();
        let states = demo_states(3);
        let (d0, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r0", &d0);

        // Arm a proposal, interleave a read-only evaluate, then commit
        // the armed proposal — bit-identical to the uninterleaved run.
        let (d1, s1) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose");
        let results = session
            .evaluate(&states[2..], &RunControl::unlimited(), 1)
            .expect("read-only evaluate");
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].score.to_bits(),
            fresh_rebase(&states[2]).to_bits()
        );
        assert_eq!(session.state.commits_done, 1, "evaluate consumes no budget");
        assert_eq!(
            session.pending_digest(),
            Some(d1.as_str()),
            "pending untouched"
        );
        let (_, score, seq) = commit(&mut session, "r1", &d1);
        assert_eq!((score.to_bits(), seq), (s1.to_bits(), 2));

        // Second evaluate of the same state hits the shared cache.
        let again = session
            .evaluate(&states[2..], &RunControl::unlimited(), 1)
            .expect("cached evaluate");
        assert!(again[0].cached);
        assert_eq!(again[0].score.to_bits(), results[0].score.to_bits());
        assert_eq!(session.stat().cache_hits, 1);
    }

    #[test]
    fn snapshot_roundtrip_and_validation() {
        let mut session = session();
        let states = demo_states(2);
        for (k, state) in states.iter().enumerate() {
            let (digest, _) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            commit(&mut session, &format!("r{k}"), &digest);
        }
        let json = session.state.to_json();
        let back = SessionState::from_json(&json, "t").expect("parse");
        assert_eq!(back, session.state);
        assert_eq!(
            back.journal[1].score.to_bits(),
            session.state.journal[1].score.to_bits(),
            "scores survive bit-exactly"
        );

        assert!(SessionState::from_json(&json, "other").is_err());
        assert!(SessionState::from_json("{torn", "t").is_err());
        let mut wrong = session.state.clone();
        wrong.version = 99;
        assert!(SessionState::from_json(&wrong.to_json(), "t").is_err());
        let mut torn = session.state.clone();
        torn.journal.clear();
        assert!(
            SessionState::from_json(&torn.to_json(), "t").is_err(),
            "commits without a journal tail are refused"
        );
    }

    #[test]
    fn resumed_session_is_verified_and_continues_bit_identically() {
        let states = demo_states(3);

        // Uninterrupted reference: three commits in one lifetime.
        let mut reference = session();
        for (k, state) in states.iter().enumerate() {
            let (digest, _) = reference
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            commit(&mut reference, &format!("r{k}"), &digest);
        }

        // Interrupted: two commits, snapshot, "restart", third commit.
        let mut first = session();
        for (k, state) in states[..2].iter().enumerate() {
            let (digest, _) = first
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            commit(&mut first, &format!("r{k}"), &digest);
        }
        let snapshot = first.state.to_json();
        let recovered = SessionState::from_json(&snapshot, "t").expect("parse");
        let mut resumed = Session::from_state(recovered, 8, shared()).expect("verified");
        let (digest, _) = resumed
            .propose(&states[2], &RunControl::unlimited())
            .expect("propose");
        commit(&mut resumed, "r2", &digest);

        assert_eq!(resumed.state, reference.state, "recovered state diverged");
        assert_eq!(
            resumed.state.to_json(),
            reference.state.to_json(),
            "snapshots must be byte-identical"
        );
    }

    #[test]
    fn resume_refuses_a_diverged_committed_state() {
        let mut session = session();
        let states = demo_states(1);
        let (digest, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r1", &digest);
        // Tamper with the committed floorplan but keep the journal: the
        // replayed map no longer matches the recorded identity. The move
        // is several grid pitches, so the congestion map really changes
        // (a sub-pitch nudge could legitimately snap to the same map).
        let mut tampered = session.state.clone();
        let committed = tampered.committed.as_mut().expect("committed");
        committed.segments[0][0] += 120;
        let err =
            Session::from_state(tampered, 8, shared()).expect_err("diverged state must be refused");
        assert!(
            err.contains("does not match"),
            "error should name the mismatch: {err}"
        );
    }

    #[test]
    fn evaluate_matches_the_stateless_model_bit_for_bit() {
        let mut session = session();
        let states = demo_states(3);
        let results = session
            .evaluate(&states, &RunControl::unlimited(), 1)
            .expect("evaluate");
        let model = IrregularGridModel::new(Um(30));
        for (state, result) in states.iter().zip(&results) {
            let (chip, segments) = to_geometry(state).expect("geometry");
            let expected = model.evaluate(&chip, &segments);
            assert_eq!(result.score.to_bits(), expected.to_bits());
            assert_eq!(result.score.to_bits(), fresh_rebase(state).to_bits());
            assert!(!result.cached);
        }
        assert_eq!(session.state.commits_done, 0);
    }

    #[test]
    fn pool_path_matches_inline_path_bit_for_bit() {
        let states = demo_states(6);
        let a = session()
            .evaluate(&states, &RunControl::unlimited(), 1)
            .expect("inline");
        let b = session()
            .evaluate(&states, &RunControl::unlimited(), 4)
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
            .evaluate(&states, &RunControl::unlimited(), 1)
            .expect("first");
        let second = session
            .evaluate(&states, &RunControl::unlimited(), 1)
            .expect("second");
        for (a, b) in first.iter().zip(&second) {
            assert!(!a.cached);
            assert!(b.cached);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(session.stat().cache_hits, 2);
    }

    #[test]
    fn proposed_scores_serve_later_evaluates_from_the_cache() {
        let mut session = session();
        let states = demo_states(2);
        let (_, proposed) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        session.undo();
        let results = session
            .evaluate(&states, &RunControl::unlimited(), 1)
            .expect("evaluate");
        assert!(results[0].cached, "the proposal's score was cached");
        assert_eq!(results[0].score.to_bits(), proposed.to_bits());
        assert!(!results[1].cached);
        assert_eq!(session.stat().cache_hits, 1);
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
            .evaluate(&states, &RunControl::unlimited(), 1)
            .expect_err("out-of-chip coordinate");
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        assert_eq!(session.stat().cache_hits, 0);

        let err = to_geometry(&FloorplanState {
            chip: [0, 100],
            segments: vec![],
        })
        .expect_err("degenerate chip");
        assert!(err.contains("not positive"));
    }

    #[test]
    fn expired_deadline_aborts_before_scoring() {
        let mut session = session();
        let states = demo_states(2);
        let expired = RunControl::unlimited().with_time_limit(std::time::Duration::ZERO);
        let err = session
            .evaluate(&states, &expired, 1)
            .expect_err("deadline already passed");
        assert_eq!(err.kind, ErrorKind::Timeout);
        assert!(err.retryable);
        let err = session
            .propose(&states[0], &expired)
            .expect_err("deadline already passed");
        assert_eq!(err.kind, ErrorKind::Timeout);
        assert_eq!(session.pending_digest(), None);
    }

    #[test]
    fn commit_ring_and_journal_are_bounded() {
        let mut session = Session::create("r", SessionConfig::default_config(), 2, shared());
        for (k, state) in demo_states(4).iter().enumerate() {
            let (digest, _) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            commit(&mut session, &format!("req-{k}"), &digest);
        }
        assert_eq!(session.state.completed.len(), 2);
        assert_eq!(session.state.journal.len(), 2);
        assert!(session.recorded("req-0").is_none(), "oldest evicted");
        assert_eq!(session.recorded("req-3").expect("newest kept").seq, 4);
    }

    #[test]
    fn completed_ring_is_bounded_and_replayable() {
        let mut session = Session::create("r", SessionConfig::default_config(), 2, shared());
        let mut acks = Vec::new();
        for (k, state) in demo_states(4).iter().enumerate() {
            let (digest, _) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            acks.push(commit(&mut session, &format!("req-{k}"), &digest));
        }
        // The kept acks replay verbatim, also after a snapshot round trip.
        let text = session.state.to_json();
        let resumed = Session::from_state(
            SessionState::from_json(&text, "r").expect("parse"),
            2,
            shared(),
        )
        .expect("verified");
        for live in [&session, &resumed] {
            for (k, ack) in acks.iter().enumerate().skip(2) {
                let outcome = live
                    .prepare_commit(&format!("req-{k}"), &ack.0)
                    .expect("replay");
                let CommitOutcome::Replayed { digest, score, seq } = outcome else {
                    panic!("req-{k} should replay");
                };
                assert_eq!(
                    (digest.as_str(), score.to_bits(), seq),
                    (ack.0.as_str(), ack.1.to_bits(), ack.2)
                );
            }
            // An evicted id is forgotten: with nothing armed it is a new
            // commit without a proposal, never a stale replay.
            let err = live
                .prepare_commit("req-0", &acks[0].0)
                .expect_err("evicted");
            assert_eq!(err.kind, ErrorKind::NoPendingProposal);
        }
    }
}
