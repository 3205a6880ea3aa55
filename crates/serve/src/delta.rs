//! Session-resident incremental evaluation: the serve-side wrapper
//! around [`IrDeltaEvaluator`].
//!
//! A delta session mirrors the full session's split between a small
//! **persistent** record ([`DeltaSessionState`]) and deterministic
//! runtime machinery, but the contract is move-shaped rather than
//! batch-shaped: `Propose` scores one candidate against the committed
//! floorplan through the exact Q32 delta pipeline, `Commit` makes the
//! pending proposal the new committed state, and `Undo` drops it. Only
//! `Commit` mutates persistent state; `Propose`/`Undo`/`Evaluate` are
//! pure, which is what lets the daemon skip a persist round-trip on the
//! (overwhelmingly common) rejected-move path.
//!
//! # Crash recovery
//!
//! The snapshot stores the committed [`FloorplanState`] plus a bounded
//! **commit journal** whose tail pins the committed map's identity: the
//! commit's score bits and a fingerprint of the evaluator's exact cut
//! vectors and Q32 totals ([`IrDeltaEvaluator::committed_fingerprint`]).
//! [`DeltaSession::from_state`] replays the committed state through a
//! fresh evaluator and refuses to resume unless both match — a restored
//! session is therefore *verified* bit-identical to the one that
//! persisted, not assumed.
//!
//! # Commit ordering
//!
//! Commits are split into [`DeltaSession::prepare_commit`] (pure:
//! builds the next persistent record) and
//! [`DeltaSession::apply_commit`] (advances the evaluator). The manager
//! persists *between* the two, so a failed persist leaves both the
//! evaluator and the pending proposal untouched and the client can
//! simply retry the commit — no rollback path exists because nothing
//! was mutated.

use irgrid_anneal::RunControl;
use irgrid_core::{
    CongestionModel, DeltaCongestion, DeltaCongestionSession, FixedGridModel, IrDeltaEvaluator,
    IrregularGridModel, LzShapeModel,
};
use irgrid_fleet::state_digest;
use irgrid_geom::Um;
use serde::{Deserialize, Serialize};

use crate::cache::{model_id, score_key, SharedScoreCache};
use crate::protocol::{ErrorKind, EvalResult, FloorplanState, SessionConfig, SessionStat};
use crate::session::{deadline_failure, timed_out, to_geometry, DegradeRung, EvalFailure};

/// Delta-snapshot format version written by this library.
pub const DELTA_SNAPSHOT_VERSION: u32 = 1;

/// The model name delta sessions report in [`EvalResult::model`].
pub const DELTA_MODEL_NAME: &str = "irregular-delta";

/// One committed move, oldest first in the journal. The tail record
/// pins the committed map: recovery re-derives the map from the stored
/// [`FloorplanState`] and must reproduce `score` bit for bit and
/// `fingerprint` exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaCommitRecord {
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
pub struct DeltaCompletedRecord {
    /// The client's request id.
    pub request_id: String,
    /// The digest the commit was issued against; a retry must match it.
    pub digest: String,
    /// The recorded score, replayed verbatim.
    pub score: f64,
    /// The recorded commit sequence number.
    pub seq: u64,
}

/// The persistent part of a delta session — everything crash recovery
/// needs. Field names are disjoint from the full session's
/// [`SessionState`](crate::SessionState) (`commits_done`/`journal`
/// vs `evals_done`), so a snapshot parses as exactly one kind and a
/// session id can never silently change kind across a restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaSessionState {
    /// Snapshot format version ([`DELTA_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The session id, cross-checked on load.
    pub session_id: String,
    /// The fixed configuration from `OpenDelta`. `budget` counts
    /// *commits* (proposes and undos are free).
    pub config: SessionConfig,
    /// Commits over the session's lifetime.
    pub commits_done: u64,
    /// The committed floorplan (`None` until the first commit).
    pub committed: Option<FloorplanState>,
    /// Bounded commit journal, oldest first; the tail verifies recovery.
    pub journal: Vec<DeltaCommitRecord>,
    /// Idempotency ring for commits, oldest first.
    pub completed: Vec<DeltaCompletedRecord>,
}

impl DeltaSessionState {
    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        // irgrid-lint: allow(P1): serializing a plain owned data struct cannot fail
        serde_json::to_string_pretty(self).expect("delta snapshot serialization is infallible")
    }

    /// Parses a snapshot, validating version, id, and journal shape.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the text is torn/garbage or
    /// internally inconsistent (version, id, pitch, or a journal that
    /// does not agree with `commits_done`/`committed`).
    pub fn from_json(text: &str, expect_id: &str) -> Result<DeltaSessionState, String> {
        let state: DeltaSessionState = serde_json::from_str(text)
            .map_err(|err| format!("delta snapshot did not parse: {err}"))?;
        if state.version != DELTA_SNAPSHOT_VERSION {
            return Err(format!(
                "delta snapshot version {} unsupported (expected {DELTA_SNAPSHOT_VERSION})",
                state.version
            ));
        }
        if state.session_id != expect_id {
            return Err(format!(
                "delta snapshot names session `{}`, expected `{expect_id}`",
                state.session_id
            ));
        }
        if state.config.pitch_um <= 0 {
            return Err("delta snapshot config has a non-positive pitch".to_owned());
        }
        if state.commits_done == 0 {
            if state.committed.is_some() || !state.journal.is_empty() {
                return Err("delta snapshot has commit data but commits_done = 0".to_owned());
            }
        } else {
            if state.committed.is_none() {
                return Err(format!(
                    "delta snapshot records {} commit(s) but no committed state",
                    state.commits_done
                ));
            }
            let Some(tail) = state.journal.last() else {
                return Err("delta snapshot has commits but an empty journal".to_owned());
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

/// The proposal currently armed for commit. Mirrors the evaluator's
/// internal proposed snapshot — re-armed by re-proposing after a
/// read-only `Evaluate` borrows the evaluator.
#[derive(Debug, Clone)]
struct PendingProposal {
    state: FloorplanState,
    digest: String,
    score: f64,
}

/// A live delta session: persistent record plus the session-resident
/// [`IrDeltaEvaluator`] and degradation fallbacks.
#[derive(Debug)]
pub struct DeltaSession {
    /// The persistent record (the manager persists this via
    /// [`prepare_commit`](Self::prepare_commit)).
    pub state: DeltaSessionState,
    evaluator: IrDeltaEvaluator,
    lz: LzShapeModel,
    fixed: FixedGridModel,
    cache: SharedScoreCache,
    cache_enabled: bool,
    cache_hits: u64,
    cache_model: String,
    completed_ring: usize,
    pending: Option<PendingProposal>,
}

/// What [`DeltaSession::prepare_commit`] decided.
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
    /// [`apply_commit`](DeltaSession::apply_commit).
    Prepared(PreparedCommit),
}

/// A commit that has been validated and staged but not yet applied.
/// Holds the *next* persistent record; the session is untouched until
/// [`DeltaSession::apply_commit`] consumes this.
#[derive(Debug)]
pub struct PreparedCommit {
    next: DeltaSessionState,
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

    /// The commit sequence number this prepared commit will ack with.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl DeltaSession {
    /// Creates a fresh delta session for `config`.
    #[must_use]
    pub fn create(
        session_id: &str,
        config: SessionConfig,
        completed_ring: usize,
        cache: SharedScoreCache,
    ) -> DeltaSession {
        let state = DeltaSessionState {
            version: DELTA_SNAPSHOT_VERSION,
            session_id: session_id.to_owned(),
            config,
            commits_done: 0,
            committed: None,
            journal: Vec::new(),
            completed: Vec::new(),
        };
        DeltaSession::from_state(state, completed_ring, cache)
            .unwrap_or_else(|why| unreachable!("fresh delta state cannot fail recovery: {why}"))
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
        state: DeltaSessionState,
        completed_ring: usize,
        cache: SharedScoreCache,
    ) -> Result<DeltaSession, String> {
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
        Ok(DeltaSession {
            evaluator,
            lz: LzShapeModel::new(pitch),
            fixed: FixedGridModel::new(pitch),
            cache,
            cache_enabled: state.config.cache_capacity > 0,
            cache_hits: 0,
            // Full sessions score with the same engine: one namespace.
            cache_model: model_id(DegradeRung::Full.model_name(), pitch.0),
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
    /// budget-metered operation on a delta session.
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
    pub fn recorded(&self, request_id: &str) -> Option<&DeltaCompletedRecord> {
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

    /// Scores one candidate against the committed floorplan and (at
    /// full fidelity) arms it for commit. Pure with respect to
    /// persistent state — nothing to persist, nothing to record.
    ///
    /// At a degraded rung the score comes from the stateless fallback
    /// models and the proposal is **not** commit-eligible: the
    /// committed map only ever advances through the exact delta
    /// pipeline, so a degraded propose leaves any previously armed
    /// proposal in place.
    ///
    /// # Errors
    ///
    /// [`EvalFailure`] on invalid geometry or an expired deadline.
    pub fn propose(
        &mut self,
        state: &FloorplanState,
        rung: DegradeRung,
        control: &RunControl,
    ) -> Result<(String, f64, bool), EvalFailure> {
        let (chip, segments) = to_geometry(state)
            .map_err(|why| EvalFailure::new(ErrorKind::InvalidRequest, why, false))?;
        if timed_out(control) {
            return Err(deadline_failure());
        }
        if rung.is_degraded() {
            let score = match rung {
                DegradeRung::Lz => self.lz.evaluate(&chip, &segments),
                _ => self.fixed.evaluate(&chip, &segments),
            };
            return Ok((state_digest(state), score, true));
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
        Ok((digest, score, false))
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
        next.journal.push(DeltaCommitRecord {
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
        next.completed.push(DeltaCompletedRecord {
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

    /// Read-only batch scoring through the delta pipeline — the
    /// `Evaluate` fast path on a delta session. Consumes no budget and
    /// records nothing (it is deterministic, so a retry recomputes the
    /// identical bits); each uncached state is scored by a propose +
    /// undo pair and any previously armed proposal is re-armed
    /// afterwards, bit-identically.
    ///
    /// # Errors
    ///
    /// [`EvalFailure`] on invalid geometry (whole batch, before any
    /// work) or an expired deadline.
    pub fn evaluate(
        &mut self,
        states: &[FloorplanState],
        rung: DegradeRung,
        control: &RunControl,
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
        if rung.is_degraded() {
            let mut results = Vec::with_capacity(states.len());
            for (state, (chip, segments)) in states.iter().zip(&geometries) {
                if timed_out(control) {
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
            return Ok(results);
        }

        let saved = self.pending.take();
        let mut results = Vec::with_capacity(states.len());
        for (state, (chip, segments)) in states.iter().zip(&geometries) {
            if timed_out(control) {
                self.rearm(saved);
                return Err(deadline_failure());
            }
            let key = score_key(&self.cache_model, state);
            let digest = key.digest.clone();
            let hit = if self.cache_enabled {
                self.cache.get(&key)
            } else {
                None
            };
            let (score, cached) = match hit {
                Some(score) => {
                    self.cache_hits += 1;
                    (score, true)
                }
                None => {
                    let score = self.evaluator.propose(chip, segments);
                    self.evaluator.undo();
                    if self.cache_enabled {
                        self.cache.put(key, score);
                    }
                    (score, false)
                }
            };
            results.push(EvalResult {
                digest,
                score,
                model: DELTA_MODEL_NAME.to_owned(),
                cached,
            });
        }
        self.rearm(saved);
        Ok(results)
    }

    /// Re-installs a proposal taken before a read-only evaluate. The
    /// state was validated at propose time, and re-proposing it rebuilds
    /// the identical proposed snapshot (delta evaluation is
    /// deterministic), so the commit that follows sees the same bits.
    fn rearm(&mut self, saved: Option<PendingProposal>) {
        let Some(pending) = saved else { return };
        if let Ok((chip, segments)) = to_geometry(&pending.state) {
            self.evaluator.propose(&chip, &segments);
            self.pending = Some(pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionState;

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

    fn session() -> DeltaSession {
        DeltaSession::create("t", SessionConfig::default_config(), 8, shared())
    }

    /// Score of `state` through a fresh from-scratch delta rebase — the
    /// reference the serving path must match bit for bit.
    fn fresh_rebase(state: &FloorplanState) -> f64 {
        let (chip, segments) = to_geometry(state).expect("geometry");
        let model = IrregularGridModel::new(Um(30));
        model.delta_session().rebase(&chip, &segments)
    }

    fn commit(session: &mut DeltaSession, request_id: &str, digest: &str) -> (String, f64, u64) {
        match session.prepare_commit(request_id, digest).expect("prepare") {
            CommitOutcome::Prepared(prepared) => session.apply_commit(prepared),
            CommitOutcome::Replayed { digest, score, seq } => (digest, score, seq),
        }
    }

    #[test]
    fn propose_commit_undo_lifecycle() {
        let mut session = session();
        let states = demo_states(2);

        let (d1, s1, degraded) = session
            .propose(&states[0], DegradeRung::Full, &RunControl::unlimited())
            .expect("propose");
        assert!(!degraded);
        assert_eq!(s1.to_bits(), fresh_rebase(&states[0]).to_bits());
        assert_eq!(session.pending_digest(), Some(d1.as_str()));

        let (digest, score, seq) = commit(&mut session, "r1", &d1);
        assert_eq!((digest.as_str(), seq), (d1.as_str(), 1));
        assert_eq!(score.to_bits(), s1.to_bits());
        assert_eq!(session.state.commits_done, 1);
        assert_eq!(session.pending_digest(), None);
        assert_eq!(session.state.journal.last().expect("tail").seq, 1);

        // Rejected move: propose, then undo back to the committed cost.
        let (_, s2, _) = session
            .propose(&states[1], DegradeRung::Full, &RunControl::unlimited())
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

        let (d1, _, _) = session
            .propose(&states[0], DegradeRung::Full, &RunControl::unlimited())
            .expect("propose");
        let err = session
            .prepare_commit("r1", "feedbeef00000000")
            .expect_err("wrong digest");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);
        // The armed proposal survives the refusal.
        assert_eq!(session.pending_digest(), Some(d1.as_str()));
    }

    #[test]
    fn degraded_propose_scores_but_never_arms() {
        let mut session = session();
        let states = demo_states(1);
        let (digest, _, degraded) = session
            .propose(&states[0], DegradeRung::Lz, &RunControl::unlimited())
            .expect("degraded propose");
        assert!(degraded);
        assert_eq!(session.pending_digest(), None);
        let err = session
            .prepare_commit("r1", &digest)
            .expect_err("degraded proposals are not commit-eligible");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);
    }

    #[test]
    fn commit_replay_is_idempotent_and_digest_checked() {
        let mut session = session();
        let states = demo_states(1);
        let (d1, _, _) = session
            .propose(&states[0], DegradeRung::Full, &RunControl::unlimited())
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
        let mut session = DeltaSession::create("b", config, 8, shared());
        let states = demo_states(2);
        // Proposes and undos are free.
        for _ in 0..3 {
            session
                .propose(&states[0], DegradeRung::Full, &RunControl::unlimited())
                .expect("free propose");
            session.undo();
        }
        let (d1, _, _) = session
            .propose(&states[0], DegradeRung::Full, &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r1", &d1);
        assert_eq!(session.stat().budget_left, 0);
        let (d2, _, _) = session
            .propose(&states[1], DegradeRung::Full, &RunControl::unlimited())
            .expect("propose 2");
        let err = session
            .prepare_commit("r2", &d2)
            .expect_err("budget exhausted");
        assert_eq!(err.kind, ErrorKind::BudgetExhausted);
        assert!(!err.retryable);
        assert_eq!(session.state.commits_done, 1);
    }

    #[test]
    fn failed_persist_leaves_commit_retryable() {
        let mut session = session();
        let states = demo_states(1);
        let (d1, s1, _) = session
            .propose(&states[0], DegradeRung::Full, &RunControl::unlimited())
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
    fn readonly_evaluate_matches_fresh_rebase_and_preserves_pending() {
        let mut session = session();
        let states = demo_states(3);
        let (d0, _, _) = session
            .propose(&states[0], DegradeRung::Full, &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r0", &d0);

        // Arm a proposal, interleave a read-only evaluate, then commit
        // the armed proposal — bit-identical to the uninterleaved run.
        let (d1, s1, _) = session
            .propose(&states[1], DegradeRung::Full, &RunControl::unlimited())
            .expect("propose");
        let results = session
            .evaluate(&states[2..], DegradeRung::Full, &RunControl::unlimited())
            .expect("read-only evaluate");
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].score.to_bits(),
            fresh_rebase(&states[2]).to_bits()
        );
        assert_eq!(results[0].model, DELTA_MODEL_NAME);
        assert_eq!(session.state.commits_done, 1, "evaluate consumes no budget");
        assert_eq!(
            session.pending_digest(),
            Some(d1.as_str()),
            "pending re-armed"
        );
        let (_, score, seq) = commit(&mut session, "r1", &d1);
        assert_eq!((score.to_bits(), seq), (s1.to_bits(), 2));

        // Second evaluate of the same state hits the shared cache.
        let again = session
            .evaluate(&states[2..], DegradeRung::Full, &RunControl::unlimited())
            .expect("cached evaluate");
        assert!(again[0].cached);
        assert_eq!(again[0].score.to_bits(), results[0].score.to_bits());
        assert_eq!(session.stat().cache_hits, 1);
    }

    #[test]
    fn snapshot_roundtrip_validation_and_kind_separation() {
        let mut session = session();
        let states = demo_states(2);
        for (k, state) in states.iter().enumerate() {
            let (digest, _, _) = session
                .propose(state, DegradeRung::Full, &RunControl::unlimited())
                .expect("propose");
            commit(&mut session, &format!("r{k}"), &digest);
        }
        let json = session.state.to_json();
        let back = DeltaSessionState::from_json(&json, "t").expect("parse");
        assert_eq!(back, session.state);
        assert_eq!(
            back.journal[1].score.to_bits(),
            session.state.journal[1].score.to_bits(),
            "scores survive bit-exactly"
        );

        assert!(DeltaSessionState::from_json(&json, "other").is_err());
        assert!(DeltaSessionState::from_json("{torn", "t").is_err());
        let mut wrong = session.state.clone();
        wrong.version = 99;
        assert!(DeltaSessionState::from_json(&wrong.to_json(), "t").is_err());
        let mut torn = session.state.clone();
        torn.journal.clear();
        assert!(
            DeltaSessionState::from_json(&torn.to_json(), "t").is_err(),
            "commits without a journal tail are refused"
        );

        // Kind separation: a full-session snapshot never parses as a
        // delta snapshot, and vice versa.
        let full =
            crate::session::Session::create("t", SessionConfig::default_config(), 8, shared());
        assert!(DeltaSessionState::from_json(&full.state.to_json(), "t").is_err());
        assert!(SessionState::from_json(&json, "t").is_err());
    }

    #[test]
    fn resumed_session_is_verified_and_continues_bit_identically() {
        let states = demo_states(3);

        // Uninterrupted reference: three commits in one lifetime.
        let mut reference = session();
        for (k, state) in states.iter().enumerate() {
            let (digest, _, _) = reference
                .propose(state, DegradeRung::Full, &RunControl::unlimited())
                .expect("propose");
            commit(&mut reference, &format!("r{k}"), &digest);
        }

        // Interrupted: two commits, snapshot, "restart", third commit.
        let mut first = session();
        for (k, state) in states[..2].iter().enumerate() {
            let (digest, _, _) = first
                .propose(state, DegradeRung::Full, &RunControl::unlimited())
                .expect("propose");
            commit(&mut first, &format!("r{k}"), &digest);
        }
        let snapshot = first.state.to_json();
        let recovered = DeltaSessionState::from_json(&snapshot, "t").expect("parse");
        let mut resumed = DeltaSession::from_state(recovered, 8, shared()).expect("verified");
        let (digest, _, _) = resumed
            .propose(&states[2], DegradeRung::Full, &RunControl::unlimited())
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
        let (digest, _, _) = session
            .propose(&states[0], DegradeRung::Full, &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r1", &digest);
        // Tamper with the committed floorplan but keep the journal: the
        // replayed map no longer matches the recorded identity. The move
        // is several grid pitches, so the congestion map really changes
        // (a sub-pitch nudge could legitimately snap to the same map).
        let mut tampered = session.state.clone();
        let committed = tampered.committed.as_mut().expect("committed");
        committed.segments[0][0] += 120;
        let err = DeltaSession::from_state(tampered, 8, shared())
            .expect_err("diverged state must be refused");
        assert!(
            err.contains("does not match"),
            "error should name the mismatch: {err}"
        );
    }
}
