//! The session manager: request dispatch, idempotent retries, load-based
//! degradation, and the persist-then-reply commit discipline — for both
//! session kinds (batch-shaped full sessions and move-shaped delta
//! sessions).
//!
//! # Commit discipline
//!
//! An `Evaluate` on a full session mutates the session's persistent
//! record (counters and the idempotency ring). The manager clones that
//! record before the mutation, persists the new record through the
//! [`SnapshotStore`], and only then releases the response. If
//! persistence fails, the in-memory record rolls back to the clone and
//! the client gets a retryable `PersistFailed` — so the daemon never
//! acknowledges work it could forget. Combined with the idempotency
//! ring, a client that retries on every retryable error reaches a final
//! state byte-identical to an uninterrupted run.
//!
//! Delta sessions sharpen the same discipline: `Propose`, `Undo`, and
//! `Evaluate` are pure (nothing to persist), and `Commit` is staged by
//! [`DeltaSession::prepare_commit`] *before* anything mutates — persist
//! the staged snapshot, then apply. A failed persist needs no rollback
//! because nothing moved, and the armed proposal survives for the
//! retry. The chaos injector is consulted at the dedicated
//! `delta.commit` site between staging and persisting, so kill-point
//! tests cover the propose → commit → persist window explicitly.
//!
//! # Degradation ladder
//!
//! Load is the number of scoring requests (`Evaluate` or `Propose`) in
//! flight across all connections, tracked by an RAII [`LoadGuard`]
//! whose *constructor* performs the increment — there is no window in
//! which an early return (or panic) can leak a gauge slot, on any error
//! path. The [`DegradePolicy`] maps load to a scoring rung: below
//! `lz_at` the paper's irregular-grid model, then the L/Z-shape model,
//! then the fixed grid, and past `reject_at` an explicit `Backpressure`
//! error — bounded work, never an unbounded queue. Degraded responses
//! carry `degraded: true`, are never cached, and are never recorded for
//! replay: a retry re-scores at full fidelity. A degraded `Propose`
//! additionally never arms a commit — the committed map only advances
//! through the exact delta pipeline.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use irgrid_anneal::RunControl;
use irgrid_fleet::state_digest;

use crate::cache::SharedScoreCache;
use crate::delta::{CommitOutcome, DeltaSession, DeltaSessionState};
use crate::protocol::{
    valid_session_id, ErrorKind, FloorplanState, Limits, Request, RequestOp, Response,
    ResponsePayload, SessionConfig, SessionStat,
};
use crate::session::{DegradeRung, Session, SessionState};
use crate::store::{SnapshotStore, StoreError};

/// Load thresholds for the degradation ladder, in concurrent in-flight
/// scoring requests. A request's own slot counts: the first request
/// sees load 1, so with the defaults loads 1..=8 score at full
/// fidelity, 9..=16 on the L/Z model, 17..=32 on the fixed grid, and
/// 33+ are refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Loads at or above this degrade to the L/Z-shape model.
    pub lz_at: usize,
    /// Loads at or above this degrade to the fixed-grid model.
    pub fixed_at: usize,
    /// Loads at or above this are refused with `Backpressure`.
    pub reject_at: usize,
}

impl Default for DegradePolicy {
    fn default() -> DegradePolicy {
        DegradePolicy {
            lz_at: 9,
            fixed_at: 17,
            reject_at: 33,
        }
    }
}

impl DegradePolicy {
    /// The rung for a given in-flight load, or `None` for refusal.
    /// Thresholds are inclusive: `load == lz_at` already degrades, and
    /// `load == reject_at` is already refused.
    #[must_use]
    pub fn rung_for(&self, load: usize) -> Option<DegradeRung> {
        if load >= self.reject_at {
            None
        } else if load >= self.fixed_at {
            Some(DegradeRung::Fixed)
        } else if load >= self.lz_at {
            Some(DegradeRung::Lz)
        } else {
            Some(DegradeRung::Full)
        }
    }
}

/// An occupied slot in the load gauge. Acquisition *is* construction —
/// the increment happens inside [`LoadGuard::acquire`], so every exit
/// from the enclosing scope (success, typed error, or panic) runs the
/// matching decrement in `Drop`. Auditing the gauge therefore reduces
/// to auditing that every handler increments only through `acquire`.
struct LoadGuard<'a> {
    gauge: &'a AtomicUsize,
    /// The load this request observed, its own slot included.
    load: usize,
}

impl<'a> LoadGuard<'a> {
    fn acquire(gauge: &'a AtomicUsize) -> LoadGuard<'a> {
        let load = gauge.fetch_add(1, Ordering::AcqRel) + 1;
        LoadGuard { gauge, load }
    }
}

impl Drop for LoadGuard<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Which session kind a request addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionKind {
    Full,
    Delta,
}

impl SessionKind {
    fn open_op(self) -> &'static str {
        match self {
            SessionKind::Full => "Open",
            SessionKind::Delta => "OpenDelta",
        }
    }
}

/// A live session of either kind, behind one slot in the session table.
#[derive(Debug)]
pub enum AnySession {
    /// A batch-shaped full session.
    Full(Box<Session>),
    /// A move-shaped delta session.
    Delta(Box<DeltaSession>),
}

impl AnySession {
    fn kind(&self) -> SessionKind {
        match self {
            AnySession::Full(_) => SessionKind::Full,
            AnySession::Delta(_) => SessionKind::Delta,
        }
    }

    fn config(&self) -> &SessionConfig {
        match self {
            AnySession::Full(session) => &session.state.config,
            AnySession::Delta(session) => &session.state.config,
        }
    }

    fn stat(&self) -> SessionStat {
        match self {
            AnySession::Full(session) => session.stat(),
            AnySession::Delta(session) => session.stat(),
        }
    }

    fn snapshot_json(&self) -> String {
        match self {
            AnySession::Full(session) => session.state.to_json(),
            AnySession::Delta(session) => session.state.to_json(),
        }
    }
}

/// The daemon's session table and request dispatcher. One instance is
/// shared (via `Arc`) by every connection thread.
#[derive(Debug)]
pub struct SessionManager {
    store: SnapshotStore,
    limits: Limits,
    policy: DegradePolicy,
    workers: usize,
    /// The process-wide score cache every cache-enabled session shares.
    cache: SharedScoreCache,
    sessions: Mutex<BTreeMap<String, Arc<Mutex<AnySession>>>>,
    /// Per-session persistence attempt counters — the chaos consultation
    /// indices. Kept here (not in the `Session`) so every attempt draws
    /// a fresh index even when the session object is discarded, e.g. a
    /// retried `Open` whose birth write failed: tying the index to the
    /// session would replay the identical injected fault forever.
    write_seqs: Mutex<BTreeMap<String, u64>>,
    /// Per-session `delta.commit` consultation counters, separate from
    /// `write_seqs` so the pre-commit site does not shift the persist
    /// site's deterministic fault placement.
    commit_seqs: Mutex<BTreeMap<String, u64>>,
    load: AtomicUsize,
    shutting_down: AtomicBool,
}

/// Unwraps a mutex guard, recovering from poisoning (a panicked peer
/// thread must not wedge every other connection).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn next_in(map: &Mutex<BTreeMap<String, u64>>, key: &str) -> u64 {
    let mut seqs = lock(map);
    let counter = seqs.entry(key.to_owned()).or_insert(0);
    let seq = *counter;
    *counter += 1;
    seq
}

impl SessionManager {
    /// Creates a manager over `store`, fanning full-fidelity batches over
    /// `workers` pool threads (`<= 1` evaluates inline).
    /// The shared score cache is sized by `limits.shared_cache_capacity`.
    #[must_use]
    pub fn new(
        store: SnapshotStore,
        limits: Limits,
        policy: DegradePolicy,
        workers: usize,
    ) -> SessionManager {
        SessionManager {
            store,
            cache: SharedScoreCache::new(limits.shared_cache_capacity),
            limits,
            policy,
            workers: workers.max(1),
            sessions: Mutex::new(BTreeMap::new()),
            write_seqs: Mutex::new(BTreeMap::new()),
            commit_seqs: Mutex::new(BTreeMap::new()),
            load: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
        }
    }

    /// The next persistence attempt index for `session_id` (monotonic
    /// across session object lifetimes within this process).
    fn next_seq(&self, session_id: &str) -> u64 {
        next_in(&self.write_seqs, session_id)
    }

    /// Whether `Shutdown` has been requested (the accept loop polls this).
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Requests a graceful shutdown.
    pub fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
    }

    /// Session ids with a snapshot on disk (resumable via `Open` /
    /// `OpenDelta`, matching the kind that wrote them).
    ///
    /// # Errors
    ///
    /// Forwards [`StoreError`] when the state directory cannot be read.
    pub fn resumable(&self) -> Result<Vec<String>, StoreError> {
        self.store.list()
    }

    /// The limits this manager enforces.
    #[must_use]
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Injected chaos faults drawn by this manager's store.
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.store.injected_faults()
    }

    /// The scoring requests currently in flight (the degradation
    /// ladder's input). Zero whenever the daemon is idle — every exit
    /// path of every handler releases its slot.
    #[must_use]
    pub fn load(&self) -> usize {
        self.load.load(Ordering::Acquire)
    }

    /// Cache hits observed by the process-wide shared score cache.
    #[must_use]
    pub fn shared_cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Handles one request. `request_control` carries the per-request
    /// deadline the transport layer chose; the manager itself never
    /// touches the clock.
    pub fn handle(&self, request: &Request, request_control: &RunControl) -> Response {
        match &request.op {
            RequestOp::Ping => Response::ok(&request.id, ResponsePayload::Pong),
            RequestOp::Shutdown => {
                self.request_shutdown();
                Response::ok(&request.id, ResponsePayload::Bye)
            }
            _ if self.shutting_down() => Response::error(
                &request.id,
                ErrorKind::ShuttingDown,
                "daemon is shutting down",
                true,
            ),
            RequestOp::Open { config } => self.handle_open(request, *config, SessionKind::Full),
            RequestOp::OpenDelta { config } => {
                self.handle_open(request, *config, SessionKind::Delta)
            }
            RequestOp::Evaluate { states } => {
                self.handle_evaluate(request, states, request_control)
            }
            RequestOp::Propose { state } => self.handle_propose(request, state, request_control),
            RequestOp::Commit { digest } => self.handle_commit(request, digest),
            RequestOp::Undo => self.handle_undo(request),
            RequestOp::Stat => self.with_session(request, |session| {
                Response::ok(
                    &request.id,
                    ResponsePayload::Stats {
                        stat: session.stat(),
                    },
                )
            }),
            RequestOp::Close => self.handle_close(request),
        }
    }

    fn wrong_kind(&self, id: &str, have: SessionKind, want: SessionKind) -> Response {
        Response::error(
            id,
            ErrorKind::WrongSessionKind,
            format!(
                "session was opened with {} but this op needs an {} session",
                have.open_op(),
                want.open_op()
            ),
            false,
        )
    }

    fn handle_open(&self, request: &Request, config: SessionConfig, kind: SessionKind) -> Response {
        if !valid_session_id(&request.session) {
            return Response::error(
                &request.id,
                ErrorKind::InvalidRequest,
                format!("invalid session id `{}`", request.session),
                false,
            );
        }
        if config.pitch_um <= 0 {
            return Response::error(
                &request.id,
                ErrorKind::InvalidRequest,
                format!("pitch_um {} must be positive", config.pitch_um),
                false,
            );
        }

        // Fast path: the session is already live.
        {
            let sessions = lock(&self.sessions);
            if let Some(slot) = sessions.get(&request.session) {
                let session = lock(slot);
                if session.kind() != kind {
                    return self.wrong_kind(&request.id, session.kind(), kind);
                }
                if *session.config() == config {
                    return Response::ok(
                        &request.id,
                        ResponsePayload::Opened {
                            resumed: false,
                            stat: session.stat(),
                        },
                    );
                }
                return Response::error(
                    &request.id,
                    ErrorKind::InvalidRequest,
                    "session is open with a different config",
                    false,
                );
            }
            if sessions.len() >= self.limits.max_sessions {
                return Response::error(
                    &request.id,
                    ErrorKind::Backpressure,
                    format!("session table full ({} sessions)", sessions.len()),
                    true,
                );
            }
        }

        // Resume from disk, or create fresh and persist the birth record
        // before acknowledging (a restart must know the session exists).
        let on_disk = match self.store.read(&request.session) {
            Ok(text) => text,
            Err(err) => return self.store_failure(&request.id, &err),
        };
        let was_resumed = on_disk.is_some();
        let session = match on_disk {
            Some(text) => match self.resume(request, &text, config, kind) {
                Ok(session) => session,
                Err(response) => return response,
            },
            None => match kind {
                SessionKind::Full => AnySession::Full(Box::new(Session::create(
                    &request.session,
                    config,
                    self.limits.completed_ring,
                    self.cache.clone(),
                ))),
                SessionKind::Delta => AnySession::Delta(Box::new(DeltaSession::create(
                    &request.session,
                    config,
                    self.limits.completed_ring,
                    self.cache.clone(),
                ))),
            },
        };
        if !was_resumed {
            let payload = session.snapshot_json();
            let seq = self.next_seq(&request.session);
            if let Err(err) = self.store.write(&request.session, &payload, seq) {
                return self.store_failure(&request.id, &err);
            }
        }

        let slot = Arc::new(Mutex::new(session));
        let mut sessions = lock(&self.sessions);
        // A racing Open may have inserted meanwhile; keep the first.
        let entry = sessions
            .entry(request.session.clone())
            .or_insert_with(|| slot)
            .clone();
        drop(sessions);
        let stat = {
            let session = lock(&entry);
            if session.kind() != kind {
                return self.wrong_kind(&request.id, session.kind(), kind);
            }
            if *session.config() != config {
                return Response::error(
                    &request.id,
                    ErrorKind::InvalidRequest,
                    "session is open with a different config",
                    false,
                );
            }
            session.stat()
        };
        Response::ok(
            &request.id,
            ResponsePayload::Opened {
                resumed: was_resumed,
                stat,
            },
        )
    }

    /// Rebuilds a session of the requested kind from checkpoint text,
    /// diagnosing kind mismatches loudly (the two snapshot schemas are
    /// disjoint, so a checkpoint parses as exactly one kind).
    fn resume(
        &self,
        request: &Request,
        text: &str,
        config: SessionConfig,
        kind: SessionKind,
    ) -> Result<AnySession, Response> {
        let config_mismatch = || {
            Response::error(
                &request.id,
                ErrorKind::InvalidRequest,
                "checkpoint on disk has a different config",
                false,
            )
        };
        match kind {
            SessionKind::Full => match SessionState::from_json(text, &request.session) {
                Ok(state) => {
                    if state.config != config {
                        return Err(config_mismatch());
                    }
                    Ok(AnySession::Full(Box::new(Session::from_state(
                        state,
                        self.limits.completed_ring,
                        self.cache.clone(),
                    ))))
                }
                Err(why) => Err(self.unreadable(request, text, kind, &why)),
            },
            SessionKind::Delta => match DeltaSessionState::from_json(text, &request.session) {
                Ok(state) => {
                    if state.config != config {
                        return Err(config_mismatch());
                    }
                    DeltaSession::from_state(state, self.limits.completed_ring, self.cache.clone())
                        .map(|session| AnySession::Delta(Box::new(session)))
                        .map_err(|why| {
                            // The replayed map failed bit-identity
                            // verification — refuse loudly instead of
                            // serving from a diverged map.
                            Response::error(
                                &request.id,
                                ErrorKind::PersistFailed,
                                format!("delta checkpoint failed recovery verification: {why}"),
                                false,
                            )
                        })
                }
                Err(why) => Err(self.unreadable(request, text, kind, &why)),
            },
        }
    }

    /// A checkpoint that did not parse as the requested kind: either it
    /// belongs to the *other* kind (typed `WrongSessionKind` so the
    /// client can switch ops) or it is genuinely unreadable (a loud
    /// error — silently recreating the session would lose history).
    fn unreadable(&self, request: &Request, text: &str, kind: SessionKind, why: &str) -> Response {
        let other_kind_parses = match kind {
            SessionKind::Full => DeltaSessionState::from_json(text, &request.session).is_ok(),
            SessionKind::Delta => SessionState::from_json(text, &request.session).is_ok(),
        };
        if other_kind_parses {
            let other = match kind {
                SessionKind::Full => SessionKind::Delta,
                SessionKind::Delta => SessionKind::Full,
            };
            return Response::error(
                &request.id,
                ErrorKind::WrongSessionKind,
                format!(
                    "checkpoint on disk is a {} session; resume it with {}",
                    match other {
                        SessionKind::Full => "full",
                        SessionKind::Delta => "delta",
                    },
                    other.open_op()
                ),
                false,
            );
        }
        Response::error(
            &request.id,
            ErrorKind::PersistFailed,
            format!("session checkpoint unreadable: {why}"),
            false,
        )
    }

    fn handle_evaluate(
        &self,
        request: &Request,
        states: &[FloorplanState],
        request_control: &RunControl,
    ) -> Response {
        if states.len() > self.limits.max_batch {
            return Response::error(
                &request.id,
                ErrorKind::BatchTooLarge,
                format!(
                    "batch of {} exceeds max_batch {}",
                    states.len(),
                    self.limits.max_batch
                ),
                false,
            );
        }
        if let Some(over) = states
            .iter()
            .find(|s| s.segments.len() > self.limits.max_segments)
        {
            return Response::error(
                &request.id,
                ErrorKind::BatchTooLarge,
                format!(
                    "state with {} segments exceeds max_segments {}",
                    over.segments.len(),
                    self.limits.max_segments
                ),
                false,
            );
        }

        let guard = LoadGuard::acquire(&self.load);
        let Some(rung) = self.policy.rung_for(guard.load) else {
            return Response::error(
                &request.id,
                ErrorKind::Backpressure,
                format!("{} evaluate requests in flight; retry later", guard.load),
                true,
            );
        };

        let batch_digest = state_digest(&states);
        self.with_session(request, |session| match session {
            AnySession::Full(session) => self.evaluate_full(
                request,
                session,
                states,
                &batch_digest,
                rung,
                request_control,
            ),
            AnySession::Delta(session) => {
                // Read-only fast path through the session-resident delta
                // evaluator: deterministic, budget-free, nothing to
                // persist or record.
                match session.evaluate(states, rung, request_control) {
                    Ok(results) => {
                        let mut response =
                            Response::ok(&request.id, ResponsePayload::Evaluated { results });
                        response.degraded = rung.is_degraded();
                        response
                    }
                    Err(failure) => Response::error(
                        &request.id,
                        failure.kind,
                        failure.message,
                        failure.retryable,
                    ),
                }
            }
        })
    }

    fn evaluate_full(
        &self,
        request: &Request,
        session: &mut Session,
        states: &[FloorplanState],
        batch_digest: &str,
        rung: DegradeRung,
        request_control: &RunControl,
    ) -> Response {
        // Idempotent retry: replay the recorded response verbatim.
        if let Some(record) = session.recorded(&request.id) {
            if record.batch_digest == batch_digest {
                let mut response = Response::ok(
                    &request.id,
                    ResponsePayload::Evaluated {
                        results: record.results.clone(),
                    },
                );
                response.replayed = true;
                return response;
            }
            return Response::error(
                &request.id,
                ErrorKind::IdempotencyViolation,
                "request id reused with a different state batch",
                false,
            );
        }

        let rollback = session.state.clone();
        let results = match session.evaluate(
            &request.id,
            batch_digest,
            states,
            rung,
            request_control,
            self.workers,
        ) {
            Ok(results) => results,
            Err(failure) => {
                return Response::error(
                    &request.id,
                    failure.kind,
                    failure.message,
                    failure.retryable,
                );
            }
        };

        // Persist before acknowledging; roll back if the disk refused.
        let payload = session.state.to_json();
        let seq = self.next_seq(&session.state.session_id);
        if let Err(err) = self.store.write(&session.state.session_id, &payload, seq) {
            session.state = rollback;
            return self.store_failure(&request.id, &err);
        }

        let mut response = Response::ok(&request.id, ResponsePayload::Evaluated { results });
        response.degraded = rung.is_degraded();
        response
    }

    fn handle_propose(
        &self,
        request: &Request,
        state: &FloorplanState,
        request_control: &RunControl,
    ) -> Response {
        if state.segments.len() > self.limits.max_segments {
            return Response::error(
                &request.id,
                ErrorKind::BatchTooLarge,
                format!(
                    "state with {} segments exceeds max_segments {}",
                    state.segments.len(),
                    self.limits.max_segments
                ),
                false,
            );
        }

        // Proposes are scoring work: they occupy a ladder slot exactly
        // like Evaluate and are refused past reject_at.
        let guard = LoadGuard::acquire(&self.load);
        let Some(rung) = self.policy.rung_for(guard.load) else {
            return Response::error(
                &request.id,
                ErrorKind::Backpressure,
                format!("{} evaluate requests in flight; retry later", guard.load),
                true,
            );
        };

        self.with_session(request, |session| {
            let AnySession::Delta(session) = session else {
                return self.wrong_kind(&request.id, SessionKind::Full, SessionKind::Delta);
            };
            match session.propose(state, rung, request_control) {
                Ok((digest, score, degraded)) => {
                    let mut response =
                        Response::ok(&request.id, ResponsePayload::Proposed { digest, score });
                    response.degraded = degraded;
                    response
                }
                Err(failure) => Response::error(
                    &request.id,
                    failure.kind,
                    failure.message,
                    failure.retryable,
                ),
            }
        })
    }

    fn handle_commit(&self, request: &Request, digest: &str) -> Response {
        self.with_session(request, |session| {
            let AnySession::Delta(session) = session else {
                return self.wrong_kind(&request.id, SessionKind::Full, SessionKind::Delta);
            };
            let prepared = match session.prepare_commit(&request.id, digest) {
                Ok(CommitOutcome::Replayed { digest, score, seq }) => {
                    let mut response = Response::ok(
                        &request.id,
                        ResponsePayload::Committed {
                            digest,
                            score,
                            commit_seq: seq,
                        },
                    );
                    response.replayed = true;
                    return response;
                }
                Ok(CommitOutcome::Prepared(prepared)) => prepared,
                Err(failure) => {
                    return Response::error(
                        &request.id,
                        failure.kind,
                        failure.message,
                        failure.retryable,
                    );
                }
            };

            // Kill point between staging and persisting: a chaos fault
            // here models a crash after the commit was validated but
            // before anything durable (or in-memory) changed. The armed
            // proposal survives, so the client's retry succeeds.
            let session_id = session.state.session_id.clone();
            let commit_index = next_in(&self.commit_seqs, &session_id);
            if let Err(err) = self
                .store
                .consult("delta.commit", &session_id, commit_index)
            {
                return self.store_failure(&request.id, &err);
            }

            // Persist the staged snapshot, then apply — persist-then-
            // reply, with no rollback path because nothing mutated yet.
            let seq = self.next_seq(&session_id);
            if let Err(err) = self
                .store
                .write(&session_id, &prepared.snapshot_json(), seq)
            {
                return self.store_failure(&request.id, &err);
            }
            let (digest, score, commit_seq) = session.apply_commit(prepared);
            Response::ok(
                &request.id,
                ResponsePayload::Committed {
                    digest,
                    score,
                    commit_seq,
                },
            )
        })
    }

    fn handle_undo(&self, request: &Request) -> Response {
        self.with_session(request, |session| {
            let AnySession::Delta(session) = session else {
                return self.wrong_kind(&request.id, SessionKind::Full, SessionKind::Delta);
            };
            let score = session.undo();
            Response::ok(&request.id, ResponsePayload::Undone { score })
        })
    }

    fn handle_close(&self, request: &Request) -> Response {
        let slot = lock(&self.sessions).remove(&request.session);
        if slot.is_none() {
            return Response::error(
                &request.id,
                ErrorKind::UnknownSession,
                format!("session `{}` is not open", request.session),
                false,
            );
        }
        match self.store.remove(&request.session) {
            Ok(()) => Response::ok(&request.id, ResponsePayload::Closed),
            Err(err) => self.store_failure(&request.id, &err),
        }
    }

    /// Runs `body` with the named session locked, or replies
    /// `UnknownSession`.
    fn with_session(
        &self,
        request: &Request,
        body: impl FnOnce(&mut AnySession) -> Response,
    ) -> Response {
        let slot = lock(&self.sessions).get(&request.session).cloned();
        match slot {
            Some(slot) => body(&mut lock(&slot)),
            None => Response::error(
                &request.id,
                ErrorKind::UnknownSession,
                format!(
                    "session `{}` is not open (Open/OpenDelta resumes checkpoints)",
                    request.session
                ),
                false,
            ),
        }
    }

    fn store_failure(&self, id: &str, err: &StoreError) -> Response {
        match err {
            StoreError::Io { .. } => Response::error(
                id,
                ErrorKind::PersistFailed,
                format!("checkpoint write failed, state rolled back: {err}"),
                true,
            ),
            StoreError::Killed => {
                self.request_shutdown();
                Response::error(id, ErrorKind::ShuttingDown, "daemon killed", true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Chaos, ChaosConfig};
    use crate::store::KillSwitch;

    fn temp_manager(tag: &str, chaos: Chaos, policy: DegradePolicy) -> SessionManager {
        let dir = std::env::temp_dir().join(format!("irgrid_serve_mgr_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, chaos, KillSwitch::new()).expect("store");
        SessionManager::new(store, Limits::default(), policy, 1)
    }

    fn request(id: &str, session: &str, op: RequestOp) -> Request {
        Request {
            id: id.into(),
            session: session.into(),
            op,
        }
    }

    fn open(manager: &SessionManager, id: &str, session: &str) -> Response {
        manager.handle(
            &request(
                id,
                session,
                RequestOp::Open {
                    config: SessionConfig::default_config(),
                },
            ),
            &RunControl::unlimited(),
        )
    }

    fn open_delta(manager: &SessionManager, id: &str, session: &str) -> Response {
        manager.handle(
            &request(
                id,
                session,
                RequestOp::OpenDelta {
                    config: SessionConfig::default_config(),
                },
            ),
            &RunControl::unlimited(),
        )
    }

    fn evaluate(
        manager: &SessionManager,
        id: &str,
        session: &str,
        states: Vec<FloorplanState>,
    ) -> Response {
        manager.handle(
            &request(id, session, RequestOp::Evaluate { states }),
            &RunControl::unlimited(),
        )
    }

    fn propose(
        manager: &SessionManager,
        id: &str,
        session: &str,
        state: FloorplanState,
    ) -> Response {
        manager.handle(
            &request(id, session, RequestOp::Propose { state }),
            &RunControl::unlimited(),
        )
    }

    fn commit(manager: &SessionManager, id: &str, session: &str, digest: &str) -> Response {
        manager.handle(
            &request(
                id,
                session,
                RequestOp::Commit {
                    digest: digest.to_owned(),
                },
            ),
            &RunControl::unlimited(),
        )
    }

    fn proposed_digest(response: &Response) -> String {
        let ResponsePayload::Proposed { digest, .. } = &response.payload else {
            panic!("expected Proposed, got {response:?}");
        };
        digest.clone()
    }

    fn states(count: usize) -> Vec<FloorplanState> {
        (0..count as i64)
            .map(|k| FloorplanState {
                chip: [500, 500],
                segments: vec![[10 + k, 10, 480, 480], [10, 480, 480 - k, 10]],
            })
            .collect()
    }

    #[test]
    fn open_evaluate_stat_close_lifecycle() {
        let manager = temp_manager("lifecycle", Chaos::off(), DegradePolicy::default());
        let opened = open(&manager, "r1", "alice");
        assert!(opened.ok, "{opened:?}");
        assert!(matches!(
            opened.payload,
            ResponsePayload::Opened { resumed: false, .. }
        ));

        let evaluated = evaluate(&manager, "r2", "alice", states(2));
        assert!(evaluated.ok, "{evaluated:?}");
        assert!(!evaluated.degraded);
        let ResponsePayload::Evaluated { results } = &evaluated.payload else {
            panic!("wrong payload {evaluated:?}");
        };
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].model, "irregular");

        let stat = manager.handle(
            &request("r3", "alice", RequestOp::Stat),
            &RunControl::unlimited(),
        );
        let ResponsePayload::Stats { stat } = &stat.payload else {
            panic!("wrong payload {stat:?}");
        };
        assert_eq!(stat.evals_done, 2);

        let closed = manager.handle(
            &request("r4", "alice", RequestOp::Close),
            &RunControl::unlimited(),
        );
        assert!(closed.ok);
        assert!(manager.resumable().expect("list").is_empty());
    }

    #[test]
    fn unknown_session_and_invalid_ids_are_typed_errors() {
        let manager = temp_manager("unknown", Chaos::off(), DegradePolicy::default());
        let response = evaluate(&manager, "r1", "ghost", states(1));
        assert!(!response.ok);
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::UnknownSession,
                ..
            }
        ));
        let response = open(&manager, "r2", "../escape");
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::InvalidRequest,
                ..
            }
        ));
    }

    #[test]
    fn reopen_is_idempotent_but_config_changes_are_refused() {
        let manager = temp_manager("reopen", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "s").ok);
        assert!(open(&manager, "r2", "s").ok);
        let different = manager.handle(
            &request(
                "r3",
                "s",
                RequestOp::Open {
                    config: SessionConfig {
                        pitch_um: 60,
                        ..SessionConfig::default_config()
                    },
                },
            ),
            &RunControl::unlimited(),
        );
        assert!(matches!(
            different.payload,
            ResponsePayload::Error {
                kind: ErrorKind::InvalidRequest,
                ..
            }
        ));
    }

    #[test]
    fn retry_replays_the_recorded_response_bit_for_bit() {
        let manager = temp_manager("retry", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "s").ok);
        let batch = states(2);
        let first = evaluate(&manager, "e1", "s", batch.clone());
        assert!(first.ok && !first.replayed);
        let second = evaluate(&manager, "e1", "s", batch.clone());
        assert!(second.ok && second.replayed);
        let (ResponsePayload::Evaluated { results: a }, ResponsePayload::Evaluated { results: b }) =
            (&first.payload, &second.payload)
        else {
            panic!("wrong payloads");
        };
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        // Same id, different batch: refused.
        let conflict = evaluate(&manager, "e1", "s", states(3));
        assert!(matches!(
            conflict.payload,
            ResponsePayload::Error {
                kind: ErrorKind::IdempotencyViolation,
                ..
            }
        ));
        // The replay did not double-count evaluations.
        let ResponsePayload::Stats { stat } = manager
            .handle(
                &request("r9", "s", RequestOp::Stat),
                &RunControl::unlimited(),
            )
            .payload
        else {
            panic!("stat");
        };
        assert_eq!(stat.evals_done, 2);
    }

    #[test]
    fn rung_thresholds_are_boundary_exact() {
        let policy = DegradePolicy::default();
        // Defaults: lz_at 9, fixed_at 17, reject_at 33. Thresholds are
        // inclusive (>=): the boundary load itself already degrades.
        assert_eq!(policy.rung_for(1), Some(DegradeRung::Full));
        assert_eq!(policy.rung_for(8), Some(DegradeRung::Full), "lz_at - 1");
        assert_eq!(policy.rung_for(9), Some(DegradeRung::Lz), "exactly lz_at");
        assert_eq!(policy.rung_for(16), Some(DegradeRung::Lz), "fixed_at - 1");
        assert_eq!(
            policy.rung_for(17),
            Some(DegradeRung::Fixed),
            "exactly fixed_at"
        );
        assert_eq!(
            policy.rung_for(32),
            Some(DegradeRung::Fixed),
            "reject_at - 1"
        );
        assert_eq!(policy.rung_for(33), None, "exactly reject_at");
        assert_eq!(policy.rung_for(1000), None);
        // Degenerate ladder: everything at 0 refuses even the first
        // request (its own slot makes load 1 >= 0).
        let zero = DegradePolicy {
            lz_at: 0,
            fixed_at: 0,
            reject_at: 0,
        };
        assert_eq!(zero.rung_for(1), None);
    }

    #[test]
    fn load_gauge_returns_to_zero_on_every_error_path() {
        // Backpressure refusal.
        let rejecting = temp_manager(
            "gauge_reject",
            Chaos::off(),
            DegradePolicy {
                lz_at: 0,
                fixed_at: 0,
                reject_at: 0,
            },
        );
        assert!(open(&rejecting, "r1", "s").ok);
        assert!(!evaluate(&rejecting, "e1", "s", states(1)).ok);
        assert!(!propose(&rejecting, "e2", "s", states(1).remove(0)).ok);
        assert_eq!(rejecting.load(), 0, "backpressure path leaked a slot");

        let manager = temp_manager("gauge", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "s").ok);
        // Unknown session.
        assert!(!evaluate(&manager, "e1", "ghost", states(1)).ok);
        // Invalid geometry (single bad state fails the batch).
        let bad = FloorplanState {
            chip: [100, 100],
            segments: vec![[0, 0, 101, 50]],
        };
        assert!(!evaluate(&manager, "e2", "s", vec![bad.clone()]).ok);
        // Wrong session kind for Propose.
        assert!(!propose(&manager, "e3", "s", states(1).remove(0)).ok);
        // Expired deadline.
        let expired = RunControl::unlimited().with_time_limit(std::time::Duration::ZERO);
        let timeout = manager.handle(
            &request("e4", "s", RequestOp::Evaluate { states: states(1) }),
            &expired,
        );
        assert!(!timeout.ok);
        assert_eq!(manager.load(), 0, "an error path leaked a gauge slot");

        // Persist failure (all writes fault) on both Evaluate and the
        // delta Propose/Commit path.
        let all_fail = Chaos::with_config(
            0,
            ChaosConfig {
                io_error_ppm: 1_000_000,
                torn_ppm: 0,
                kill_ppm: 0,
            },
        );
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_gauge_persist");
        let _ = std::fs::remove_dir_all(&dir);
        let clean = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let healthy = SessionManager::new(
            clean.clone(),
            Limits::default(),
            DegradePolicy::default(),
            1,
        );
        assert!(open(&healthy, "r1", "s").ok);
        let faulty_store = SnapshotStore::open(&dir, all_fail, KillSwitch::new()).expect("store");
        let faulty =
            SessionManager::new(faulty_store, Limits::default(), DegradePolicy::default(), 1);
        assert!(open(&faulty, "r2", "s").ok, "resume reads, doesn't write");
        assert!(!evaluate(&faulty, "e9", "s", states(1)).ok);
        assert_eq!(faulty.load(), 0, "persist-failure path leaked a slot");
        // Success paths also return to zero.
        assert!(evaluate(&healthy, "e1", "s", states(1)).ok);
        assert_eq!(healthy.load(), 0);
    }

    #[test]
    fn degrade_thresholds_at_zero_force_degraded_or_backpressure() {
        // lz_at 0: every request degrades (load >= 0 is always true).
        let manager = temp_manager(
            "degrade",
            Chaos::off(),
            DegradePolicy {
                lz_at: 0,
                fixed_at: 100,
                reject_at: 200,
            },
        );
        assert!(open(&manager, "r1", "s").ok);
        let response = evaluate(&manager, "e1", "s", states(1));
        assert!(response.ok);
        assert!(response.degraded, "{response:?}");
        let ResponsePayload::Evaluated { results } = &response.payload else {
            panic!("payload");
        };
        assert_eq!(results[0].model, "lz");

        // reject_at 0 (and the rest 0): every request is refused.
        let manager = temp_manager(
            "reject",
            Chaos::off(),
            DegradePolicy {
                lz_at: 0,
                fixed_at: 0,
                reject_at: 0,
            },
        );
        assert!(open(&manager, "r1", "s").ok);
        let response = evaluate(&manager, "e1", "s", states(1));
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::Backpressure,
                retryable: true,
                ..
            }
        ));
    }

    #[test]
    fn degraded_responses_are_not_recorded_so_retries_rescore_full() {
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_degrade_retry");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let degrade_all = SessionManager::new(
            store.clone(),
            Limits::default(),
            DegradePolicy {
                lz_at: 0,
                fixed_at: 100,
                reject_at: 200,
            },
            1,
        );
        assert!(open(&degrade_all, "r1", "s").ok);
        let batch = states(1);
        let degraded = evaluate(&degrade_all, "e1", "s", batch.clone());
        assert!(degraded.degraded);

        // Same state dir, healthy policy: the same request id re-scores
        // at full fidelity instead of replaying the degraded answer.
        let healthy = SessionManager::new(store, Limits::default(), DegradePolicy::default(), 1);
        assert!(open(&healthy, "r2", "s").ok);
        let retry = evaluate(&healthy, "e1", "s", batch);
        assert!(retry.ok && !retry.replayed && !retry.degraded);
        let ResponsePayload::Evaluated { results } = &retry.payload else {
            panic!("payload");
        };
        assert_eq!(results[0].model, "irregular");
    }

    #[test]
    fn persist_failure_rolls_back_and_is_retryable() {
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_persistfail");
        let _ = std::fs::remove_dir_all(&dir);
        let all_fail = Chaos::with_config(
            0,
            ChaosConfig {
                io_error_ppm: 1_000_000,
                torn_ppm: 0,
                kill_ppm: 0,
            },
        );
        let clean_store =
            SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let healthy = SessionManager::new(
            clean_store.clone(),
            Limits::default(),
            DegradePolicy::default(),
            1,
        );
        assert!(open(&healthy, "r1", "s").ok);
        let before = clean_store.read("s").expect("read").expect("snapshot");

        let faulty_store = SnapshotStore::open(&dir, all_fail, KillSwitch::new()).expect("store");
        let faulty =
            SessionManager::new(faulty_store, Limits::default(), DegradePolicy::default(), 1);
        assert!(open(&faulty, "r2", "s").ok, "resume reads, doesn't write");
        let response = evaluate(&faulty, "e1", "s", states(1));
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::PersistFailed,
                retryable: true,
                ..
            }
        ));
        // On-disk snapshot is untouched; in-memory counters rolled back.
        let after = clean_store.read("s").expect("read").expect("snapshot");
        assert_eq!(before, after);
        let ResponsePayload::Stats { stat } = faulty
            .handle(
                &request("r9", "s", RequestOp::Stat),
                &RunControl::unlimited(),
            )
            .payload
        else {
            panic!("stat");
        };
        assert_eq!(stat.evals_done, 0, "rolled back");
    }

    #[test]
    fn restart_resumes_from_checkpoint() {
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_restart");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let first = SessionManager::new(
            store.clone(),
            Limits::default(),
            DegradePolicy::default(),
            1,
        );
        assert!(open(&first, "r1", "s").ok);
        assert!(evaluate(&first, "e1", "s", states(2)).ok);
        drop(first);

        let second = SessionManager::new(store, Limits::default(), DegradePolicy::default(), 1);
        assert_eq!(second.resumable().expect("list"), vec!["s".to_owned()]);
        let reopened = open(&second, "r2", "s");
        let ResponsePayload::Opened { resumed, stat } = &reopened.payload else {
            panic!("payload {reopened:?}");
        };
        assert!(resumed);
        assert_eq!(stat.evals_done, 2);
        // The idempotency ring survived the restart.
        let replay = evaluate(&second, "e1", "s", states(2));
        assert!(replay.ok && replay.replayed);
    }

    #[test]
    fn shutdown_refuses_new_work_but_answers_ping() {
        let manager = temp_manager("shutdown", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "s").ok);
        let bye = manager.handle(
            &request("r2", "", RequestOp::Shutdown),
            &RunControl::unlimited(),
        );
        assert!(bye.ok);
        assert!(manager.shutting_down());
        let refused = evaluate(&manager, "e1", "s", states(1));
        assert!(matches!(
            refused.payload,
            ResponsePayload::Error {
                kind: ErrorKind::ShuttingDown,
                ..
            }
        ));
        let pong = manager.handle(
            &request("r3", "", RequestOp::Ping),
            &RunControl::unlimited(),
        );
        assert!(pong.ok);
    }

    #[test]
    fn batch_limits_are_enforced() {
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_limits");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let limits = Limits {
            max_batch: 2,
            max_segments: 3,
            ..Limits::default()
        };
        let manager = SessionManager::new(store, limits, DegradePolicy::default(), 1);
        assert!(open(&manager, "r1", "s").ok);
        let response = evaluate(&manager, "e1", "s", states(3));
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::BatchTooLarge,
                ..
            }
        ));
        let fat = vec![FloorplanState {
            chip: [100, 100],
            segments: vec![[0, 0, 1, 1]; 4],
        }];
        let response = evaluate(&manager, "e2", "s", fat.clone());
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::BatchTooLarge,
                ..
            }
        ));
        // Propose enforces max_segments too.
        assert!(open_delta(&manager, "r2", "d").ok);
        let response = propose(&manager, "e3", "d", fat.into_iter().next().expect("state"));
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::BatchTooLarge,
                ..
            }
        ));
    }

    #[test]
    fn delta_lifecycle_propose_commit_undo_evaluate() {
        let manager = temp_manager("delta_lifecycle", Chaos::off(), DegradePolicy::default());
        let opened = open_delta(&manager, "r1", "d");
        assert!(opened.ok, "{opened:?}");

        let batch = states(2);
        let proposed = propose(&manager, "p1", "d", batch[0].clone());
        assert!(proposed.ok && !proposed.degraded, "{proposed:?}");
        let digest = proposed_digest(&proposed);

        let committed = commit(&manager, "c1", "d", &digest);
        assert!(committed.ok, "{committed:?}");
        let ResponsePayload::Committed {
            commit_seq, score, ..
        } = &committed.payload
        else {
            panic!("wrong payload {committed:?}");
        };
        assert_eq!(*commit_seq, 1);
        let committed_score = *score;

        // Rejected move: propose then undo returns the committed cost.
        let second = propose(&manager, "p2", "d", batch[1].clone());
        assert!(second.ok);
        let undone = manager.handle(
            &request("u1", "d", RequestOp::Undo),
            &RunControl::unlimited(),
        );
        let ResponsePayload::Undone { score } = &undone.payload else {
            panic!("wrong payload {undone:?}");
        };
        assert_eq!(score.to_bits(), committed_score.to_bits());

        // Evaluate on a delta session: read-only fast path, no budget,
        // and the snapshot on disk is untouched by it.
        let before = manager.store.read("d").expect("read").expect("snapshot");
        let evaluated = evaluate(&manager, "e1", "d", batch.clone());
        assert!(evaluated.ok, "{evaluated:?}");
        let ResponsePayload::Evaluated { results } = &evaluated.payload else {
            panic!("wrong payload {evaluated:?}");
        };
        assert_eq!(results[0].model, "irregular-delta");
        let after = manager.store.read("d").expect("read").expect("snapshot");
        assert_eq!(before, after, "read-only evaluate must not persist");

        let ResponsePayload::Stats { stat } = manager
            .handle(
                &request("r9", "d", RequestOp::Stat),
                &RunControl::unlimited(),
            )
            .payload
        else {
            panic!("stat");
        };
        assert_eq!(stat.evals_done, 1, "only the commit consumed budget");
    }

    #[test]
    fn full_and_delta_sessions_share_cached_scores() {
        // One engine scores both kinds, so a full session's score serves
        // a delta session's `Evaluate` of the same state from the shared
        // cache, bit for bit, under the delta session's own label.
        let manager = temp_manager("shared_cache", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "full").ok);
        assert!(open_delta(&manager, "r2", "delta").ok);
        let full = evaluate(&manager, "e1", "full", states(1));
        let delta = evaluate(&manager, "e2", "delta", states(1));
        let (
            ResponsePayload::Evaluated { results: first },
            ResponsePayload::Evaluated { results: second },
        ) = (&full.payload, &delta.payload)
        else {
            panic!("wrong payloads {full:?} {delta:?}");
        };
        assert!(!first[0].cached && second[0].cached, "{delta:?}");
        assert_eq!(first[0].score.to_bits(), second[0].score.to_bits());
        assert_eq!(second[0].model, "irregular-delta");
    }

    #[test]
    fn delta_commit_replay_is_idempotent() {
        let manager = temp_manager("delta_replay", Chaos::off(), DegradePolicy::default());
        assert!(open_delta(&manager, "r1", "d").ok);
        let state = states(1).remove(0);
        let digest = proposed_digest(&propose(&manager, "p1", "d", state));
        let first = commit(&manager, "c1", "d", &digest);
        assert!(first.ok && !first.replayed);
        let second = commit(&manager, "c1", "d", &digest);
        assert!(second.ok && second.replayed, "{second:?}");
        let (
            ResponsePayload::Committed { score: a, .. },
            ResponsePayload::Committed { score: b, .. },
        ) = (&first.payload, &second.payload)
        else {
            panic!("wrong payloads");
        };
        assert_eq!(a.to_bits(), b.to_bits());
        // A commit without a matching proposal is a typed error.
        let stale = commit(&manager, "c2", "d", &"0".repeat(16));
        assert!(matches!(
            stale.payload,
            ResponsePayload::Error {
                kind: ErrorKind::NoPendingProposal,
                ..
            }
        ));
    }

    #[test]
    fn wrong_session_kind_is_a_typed_error_everywhere() {
        let manager = temp_manager("wrong_kind", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "full").ok);
        assert!(open_delta(&manager, "r2", "delta").ok);

        // Delta ops on a full session.
        for response in [
            propose(&manager, "p1", "full", states(1).remove(0)),
            commit(&manager, "c1", "full", "00"),
            manager.handle(
                &request("u1", "full", RequestOp::Undo),
                &RunControl::unlimited(),
            ),
        ] {
            assert!(matches!(
                response.payload,
                ResponsePayload::Error {
                    kind: ErrorKind::WrongSessionKind,
                    ..
                }
            ));
        }

        // Opening a live session as the other kind.
        let response = open_delta(&manager, "r3", "full");
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::WrongSessionKind,
                ..
            }
        ));
        let response = open(&manager, "r4", "delta");
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::WrongSessionKind,
                ..
            }
        ));
    }

    #[test]
    fn checkpoint_kind_mismatch_is_diagnosed_across_restart() {
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_kinddisk");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let first = SessionManager::new(
            store.clone(),
            Limits::default(),
            DegradePolicy::default(),
            1,
        );
        assert!(open_delta(&first, "r1", "d").ok);
        drop(first);

        // A fresh manager (restart) resolves the kind from disk.
        let second = SessionManager::new(store, Limits::default(), DegradePolicy::default(), 1);
        let response = open(&second, "r2", "d");
        assert!(
            matches!(
                response.payload,
                ResponsePayload::Error {
                    kind: ErrorKind::WrongSessionKind,
                    ..
                }
            ),
            "{response:?}"
        );
        assert!(open_delta(&second, "r3", "d").ok, "right kind resumes");
    }

    #[test]
    fn delta_restart_resumes_verified_and_replays_commits() {
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_delta_restart");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let first = SessionManager::new(
            store.clone(),
            Limits::default(),
            DegradePolicy::default(),
            1,
        );
        assert!(open_delta(&first, "r1", "d").ok);
        let state = states(1).remove(0);
        let digest = proposed_digest(&propose(&first, "p1", "d", state.clone()));
        let committed = commit(&first, "c1", "d", &digest);
        assert!(committed.ok);
        drop(first);

        let second = SessionManager::new(store, Limits::default(), DegradePolicy::default(), 1);
        let reopened = open_delta(&second, "r2", "d");
        let ResponsePayload::Opened { resumed, stat } = &reopened.payload else {
            panic!("payload {reopened:?}");
        };
        assert!(resumed, "resumed from checkpoint (verified bit-identical)");
        assert_eq!(stat.evals_done, 1);
        // The commit idempotency ring survived the restart...
        let replay = commit(&second, "c1", "d", &digest);
        assert!(replay.ok && replay.replayed, "{replay:?}");
        // ...but the (volatile) pending proposal did not: a *new*
        // commit id needs a fresh propose first.
        let fresh = commit(&second, "c2", "d", &digest);
        assert!(matches!(
            fresh.payload,
            ResponsePayload::Error {
                kind: ErrorKind::NoPendingProposal,
                ..
            }
        ));
    }

    #[test]
    fn delta_commit_fault_keeps_proposal_armed_for_retry() {
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_delta_fault");
        let _ = std::fs::remove_dir_all(&dir);
        let clean = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let healthy = SessionManager::new(
            clean.clone(),
            Limits::default(),
            DegradePolicy::default(),
            1,
        );
        assert!(open_delta(&healthy, "r1", "d").ok);
        let before = clean.read("d").expect("read").expect("snapshot");

        // Every chaos consultation faults with an io-error: the commit
        // fails at the delta.commit site, before anything mutated.
        let all_fail = Chaos::with_config(
            0,
            ChaosConfig {
                io_error_ppm: 1_000_000,
                torn_ppm: 0,
                kill_ppm: 0,
            },
        );
        let faulty_store = SnapshotStore::open(&dir, all_fail, KillSwitch::new()).expect("store");
        let faulty =
            SessionManager::new(faulty_store, Limits::default(), DegradePolicy::default(), 1);
        assert!(open_delta(&faulty, "r2", "d").ok, "resume reads, no write");
        let state = states(1).remove(0);
        let digest = proposed_digest(&propose(&faulty, "p1", "d", state));
        let failed = commit(&faulty, "c1", "d", &digest);
        assert!(matches!(
            failed.payload,
            ResponsePayload::Error {
                kind: ErrorKind::PersistFailed,
                retryable: true,
                ..
            }
        ));
        // Nothing durable or in-memory moved; the proposal is still
        // armed, so a healthy retry of the same commit succeeds.
        assert_eq!(
            clean.read("d").expect("read").expect("snapshot"),
            before,
            "failed commit must not touch the snapshot"
        );
        let ResponsePayload::Stats { stat } = faulty
            .handle(
                &request("r9", "d", RequestOp::Stat),
                &RunControl::unlimited(),
            )
            .payload
        else {
            panic!("stat");
        };
        assert_eq!(stat.evals_done, 0, "commit not counted");

        // Kill decision at the same site trips the daemon-wide switch.
        let all_kill = Chaos::with_config(
            0,
            ChaosConfig {
                io_error_ppm: 0,
                torn_ppm: 0,
                kill_ppm: 1_000_000,
            },
        );
        let kill_store = SnapshotStore::open(&dir, all_kill, KillSwitch::new()).expect("store");
        let killed =
            SessionManager::new(kill_store, Limits::default(), DegradePolicy::default(), 1);
        assert!(open_delta(&killed, "r3", "d").ok);
        let state = states(2).remove(1);
        let digest = proposed_digest(&propose(&killed, "p2", "d", state));
        let response = commit(&killed, "c2", "d", &digest);
        assert!(matches!(
            response.payload,
            ResponsePayload::Error {
                kind: ErrorKind::ShuttingDown,
                ..
            }
        ));
        assert!(killed.shutting_down(), "kill at delta.commit shuts down");
    }

    #[test]
    fn shared_cache_crosses_sessions_of_the_same_pipeline() {
        let manager = temp_manager("shared_cache", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "a").ok);
        assert!(open(&manager, "r2", "b").ok);
        let batch = states(1);
        assert!(evaluate(&manager, "e1", "a", batch.clone()).ok);
        // Session b scores the identical state: served from the shared
        // cache, bit-identically.
        let second = evaluate(&manager, "e2", "b", batch);
        assert!(second.ok);
        let ResponsePayload::Evaluated { results } = &second.payload else {
            panic!("payload");
        };
        assert!(results[0].cached, "cross-session hit expected");
        assert!(manager.shared_cache_hits() >= 1);
    }
}
