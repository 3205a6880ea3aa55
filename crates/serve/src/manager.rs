//! The session manager: request dispatch, idempotent retries, load
//! shedding, and the persist-then-reply commit discipline.
//!
//! # Commit discipline
//!
//! `Propose`, `Undo`, and `Evaluate` are pure (nothing to persist), and
//! `Commit` is staged by [`Session::prepare_commit`] *before* anything
//! mutates — persist the staged snapshot through the [`SnapshotStore`],
//! then apply, then reply. The daemon therefore never acknowledges a
//! commit it could forget, and a failed persist needs no rollback
//! because nothing moved: the client gets a retryable `PersistFailed`
//! and the armed proposal survives for the retry. Combined with the
//! commit idempotency ring, a client that retries on every retryable
//! error reaches a final state byte-identical to an uninterrupted run.
//! The chaos injector is consulted at the dedicated `delta.commit` site
//! between staging and persisting, so kill-point tests cover the
//! propose → commit → persist window explicitly.
//!
//! # Load shedding
//!
//! Load is the number of scoring requests (`Evaluate` or `Propose`) in
//! flight across all connections, tracked by an RAII [`LoadGuard`]
//! whose *constructor* performs the increment — there is no window in
//! which an early return (or panic) can leak a gauge slot, on any error
//! path. Below [`DegradePolicy::reject_at`] every request scores with
//! the irregular-grid engine; at or above it the request is refused
//! with retryable `Backpressure` before any scoring — bounded work,
//! never an unbounded queue. There is no cheaper fallback model: a
//! served `Propose` is a delta move, which costs less than a
//! from-scratch L/Z or fixed-grid score of the same state (DESIGN.md
//! §3e).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use irgrid_anneal::RunControl;

use crate::cache::SharedScoreCache;
use crate::protocol::{
    valid_session_id, ErrorKind, FloorplanState, Limits, Request, RequestOp, Response,
    ResponsePayload, SessionConfig,
};
use crate::session::{CommitOutcome, Session, SessionState};
use crate::store::{SnapshotStore, StoreError};

/// The load-shedding threshold, in concurrent in-flight scoring
/// requests. A request's own slot counts: the first request sees load
/// 1, so with the default loads 1..=32 are served and 33+ are refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Loads at or above this are refused with `Backpressure`.
    pub reject_at: usize,
}

impl Default for DegradePolicy {
    fn default() -> DegradePolicy {
        DegradePolicy { reject_at: 33 }
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
    sessions: Mutex<BTreeMap<String, Arc<Mutex<Session>>>>,
    /// Per-session persistence attempt counters — the chaos consultation
    /// indices. Kept here (not in the `Session`) so every attempt draws
    /// a fresh index even when the session object is discarded, e.g. a
    /// retried `OpenDelta` whose birth write failed: tying the index to
    /// the session would replay the identical injected fault forever.
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
    /// Creates a manager over `store`, fanning `Evaluate` batches over
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

    /// Session ids with a snapshot on disk (resumable via `OpenDelta`).
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

    /// The scoring requests currently in flight (the load-shedding
    /// input). Zero whenever the daemon is idle — every exit path of
    /// every handler releases its slot.
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
            RequestOp::OpenDelta { config } => self.handle_open(request, *config),
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

    fn handle_open(&self, request: &Request, config: SessionConfig) -> Response {
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
                if session.state.config == config {
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
            Some(text) => match self.resume(request, &text, config) {
                Ok(session) => session,
                Err(response) => return response,
            },
            None => Session::create(
                &request.session,
                config,
                self.limits.completed_ring,
                self.cache.clone(),
            ),
        };
        if !was_resumed {
            let payload = session.state.to_json();
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
            if session.state.config != config {
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

    /// Rebuilds a session from checkpoint text. A checkpoint that does
    /// not parse as a session record — torn, foreign, or written by an
    /// older daemon's full session — is refused loudly and left on disk:
    /// silently recreating the session would lose history.
    fn resume(
        &self,
        request: &Request,
        text: &str,
        config: SessionConfig,
    ) -> Result<Session, Response> {
        let state = SessionState::from_json(text, &request.session).map_err(|why| {
            Response::error(
                &request.id,
                ErrorKind::PersistFailed,
                format!("session checkpoint unreadable: {why}"),
                false,
            )
        })?;
        if state.config != config {
            return Err(Response::error(
                &request.id,
                ErrorKind::InvalidRequest,
                "checkpoint on disk has a different config",
                false,
            ));
        }
        Session::from_state(state, self.limits.completed_ring, self.cache.clone()).map_err(|why| {
            // The replayed map failed bit-identity verification — refuse
            // loudly instead of serving from a diverged map.
            Response::error(
                &request.id,
                ErrorKind::PersistFailed,
                format!("session checkpoint failed recovery verification: {why}"),
                false,
            )
        })
    }

    /// Takes a load slot for one scoring request, or refuses the request
    /// with retryable `Backpressure` when its load reaches `reject_at`.
    /// The slot is released when the returned guard drops.
    fn admit(&self, request: &Request) -> Result<LoadGuard<'_>, Response> {
        let slot = LoadGuard::acquire(&self.load);
        if slot.load >= self.policy.reject_at {
            return Err(Response::error(
                &request.id,
                ErrorKind::Backpressure,
                format!("{} scoring requests in flight; retry later", slot.load),
                true,
            ));
        }
        Ok(slot)
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

        let _slot = match self.admit(request) {
            Ok(slot) => slot,
            Err(refused) => return refused,
        };

        // Read-only: deterministic, budget-free, nothing to persist or
        // record.
        self.with_session(request, |session| {
            match session.evaluate(states, request_control, self.workers) {
                Ok(results) => Response::ok(&request.id, ResponsePayload::Evaluated { results }),
                Err(failure) => Response::error(
                    &request.id,
                    failure.kind,
                    failure.message,
                    failure.retryable,
                ),
            }
        })
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

        // Proposes are scoring work: they occupy a load slot exactly
        // like Evaluate.
        let _slot = match self.admit(request) {
            Ok(slot) => slot,
            Err(refused) => return refused,
        };

        self.with_session(request, |session| {
            match session.propose(state, request_control) {
                Ok((digest, score)) => {
                    Response::ok(&request.id, ResponsePayload::Proposed { digest, score })
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
        body: impl FnOnce(&mut Session) -> Response,
    ) -> Response {
        let slot = lock(&self.sessions).get(&request.session).cloned();
        match slot {
            Some(slot) => body(&mut lock(&slot)),
            None => Response::error(
                &request.id,
                ErrorKind::UnknownSession,
                format!(
                    "session `{}` is not open (OpenDelta resumes checkpoints)",
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
                format!("checkpoint write failed, nothing was applied: {err}"),
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
    use crate::protocol::FloorplanState;
    use crate::store::KillSwitch;
    use irgrid_core::{DeltaCongestion, DeltaCongestionSession, IrregularGridModel};
    use irgrid_geom::{Point, Rect, Um};

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

    fn stat(manager: &SessionManager, session: &str) -> crate::protocol::SessionStat {
        let response = manager.handle(
            &request("stat", session, RequestOp::Stat),
            &RunControl::unlimited(),
        );
        let ResponsePayload::Stats { stat } = response.payload else {
            panic!("expected Stats, got {response:?}");
        };
        stat
    }

    fn proposed_digest(response: &Response) -> String {
        let ResponsePayload::Proposed { digest, .. } = &response.payload else {
            panic!("expected Proposed, got {response:?}");
        };
        digest.clone()
    }

    fn error_kind(response: &Response) -> Option<(ErrorKind, bool)> {
        match response.payload {
            ResponsePayload::Error {
                kind, retryable, ..
            } => Some((kind, retryable)),
            _ => None,
        }
    }

    fn states(count: usize) -> Vec<FloorplanState> {
        (0..count as i64)
            .map(|k| FloorplanState {
                chip: [500, 500],
                segments: vec![[10 + k, 10, 480, 480], [10, 480, 480 - k, 10]],
            })
            .collect()
    }

    fn all_fail() -> Chaos {
        Chaos::with_config(
            0,
            ChaosConfig {
                io_error_ppm: 1_000_000,
                torn_ppm: 0,
                kill_ppm: 0,
            },
        )
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
        let ResponsePayload::Evaluated { results } = &evaluated.payload else {
            panic!("wrong payload {evaluated:?}");
        };
        assert_eq!(results.len(), 2);
        assert_eq!(stat(&manager, "alice").evals_done, 0, "evaluate is free");

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
        assert_eq!(
            error_kind(&response),
            Some((ErrorKind::UnknownSession, false))
        );
        let response = open(&manager, "r2", "../escape");
        assert_eq!(
            error_kind(&response),
            Some((ErrorKind::InvalidRequest, false))
        );
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
                RequestOp::OpenDelta {
                    config: SessionConfig {
                        pitch_um: 60,
                        ..SessionConfig::default_config()
                    },
                },
            ),
            &RunControl::unlimited(),
        );
        assert_eq!(
            error_kind(&different),
            Some((ErrorKind::InvalidRequest, false))
        );
    }

    #[test]
    fn evaluate_retry_recomputes_the_same_bits_and_persists_nothing() {
        let manager = temp_manager("eval_retry", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "s").ok);
        let before = manager.store.read("s").expect("read").expect("snapshot");
        let batch = states(2);
        let first = evaluate(&manager, "e1", "s", batch.clone());
        let second = evaluate(&manager, "e1", "s", batch);
        assert!(first.ok && !first.replayed);
        assert!(second.ok && !second.replayed, "evaluate is never replayed");
        let (ResponsePayload::Evaluated { results: a }, ResponsePayload::Evaluated { results: b }) =
            (&first.payload, &second.payload)
        else {
            panic!("wrong payloads");
        };
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        let after = manager.store.read("s").expect("read").expect("snapshot");
        assert_eq!(before, after, "read-only evaluate must not persist");
    }

    #[test]
    fn load_gauge_returns_to_zero_on_every_error_path() {
        // Backpressure refusal.
        let rejecting = temp_manager("gauge_reject", Chaos::off(), DegradePolicy { reject_at: 0 });
        assert!(open(&rejecting, "r1", "s").ok);
        assert!(!evaluate(&rejecting, "e1", "s", states(1)).ok);
        assert!(!propose(&rejecting, "e2", "s", states(1).remove(0)).ok);
        assert_eq!(rejecting.load(), 0, "backpressure path leaked a slot");

        let manager = temp_manager("gauge", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "s").ok);
        // Unknown session.
        assert!(!evaluate(&manager, "e1", "ghost", states(1)).ok);
        assert!(!propose(&manager, "e2", "ghost", states(1).remove(0)).ok);
        // Invalid geometry (single bad state fails the batch).
        let bad = FloorplanState {
            chip: [100, 100],
            segments: vec![[0, 0, 101, 50]],
        };
        assert!(!evaluate(&manager, "e3", "s", vec![bad.clone()]).ok);
        assert!(!propose(&manager, "e4", "s", bad).ok);
        // Expired deadline.
        let expired = RunControl::unlimited().with_time_limit(std::time::Duration::ZERO);
        let timeout = manager.handle(
            &request("e5", "s", RequestOp::Evaluate { states: states(1) }),
            &expired,
        );
        assert!(!timeout.ok);
        assert_eq!(manager.load(), 0, "an error path leaked a gauge slot");

        // Persist failure on the Propose/Commit path.
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_gauge_persist");
        let _ = std::fs::remove_dir_all(&dir);
        let clean = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let healthy = SessionManager::new(clean, Limits::default(), DegradePolicy::default(), 1);
        assert!(open(&healthy, "r1", "s").ok);
        let faulty_store = SnapshotStore::open(&dir, all_fail(), KillSwitch::new()).expect("store");
        let faulty =
            SessionManager::new(faulty_store, Limits::default(), DegradePolicy::default(), 1);
        assert!(open(&faulty, "r2", "s").ok, "resume reads, doesn't write");
        let digest = proposed_digest(&propose(&faulty, "p1", "s", states(1).remove(0)));
        assert!(!commit(&faulty, "c1", "s", &digest).ok);
        assert_eq!(faulty.load(), 0, "persist-failure path leaked a slot");
        // Success paths also return to zero.
        assert!(evaluate(&healthy, "e1", "s", states(1)).ok);
        assert_eq!(healthy.load(), 0);
    }

    /// Score of `state` through a fresh from-scratch delta rebase.
    fn fresh_rebase(state: &FloorplanState) -> f64 {
        let [width, height] = state.chip;
        let chip = Rect::from_origin_size(Point::ORIGIN, Um(width), Um(height));
        let segments: Vec<(Point, Point)> = state
            .segments
            .iter()
            .map(|&[x1, y1, x2, y2]| (Point::new(Um(x1), Um(y1)), Point::new(Um(x2), Um(y2))))
            .collect();
        IrregularGridModel::new(Um(30))
            .delta_session()
            .rebase(&chip, &segments)
    }

    #[test]
    fn load_below_reject_at_is_served_in_full_and_at_it_is_shed() {
        let manager = temp_manager("shed", Chaos::off(), DegradePolicy::default());
        let reject_at = DegradePolicy::default().reject_at;
        assert!(open(&manager, "r1", "s").ok);
        let batch = states(2);

        // Other requests hold all but two slots, so each request below
        // sees load reject_at - 1, the highest load still served.
        let busy = reject_at - 2;
        manager.load.store(busy, Ordering::Release);
        let evaluated = evaluate(&manager, "e1", "s", batch.clone());
        let ResponsePayload::Evaluated { results } = &evaluated.payload else {
            panic!("expected Evaluated, got {evaluated:?}");
        };
        for (state, result) in batch.iter().zip(results) {
            assert_eq!(result.score.to_bits(), fresh_rebase(state).to_bits());
        }
        let proposed = propose(&manager, "p1", "s", batch[0].clone());
        let ResponsePayload::Proposed { digest, score } = &proposed.payload else {
            panic!("expected Proposed, got {proposed:?}");
        };
        assert_eq!(score.to_bits(), fresh_rebase(&batch[0]).to_bits());
        let (seq, committed_score) = committed(&commit(&manager, "c1", "s", digest));
        assert_eq!((seq, committed_score.to_bits()), (1, score.to_bits()));
        assert_eq!(manager.load(), busy);

        // One more slot taken: each request sees exactly reject_at.
        manager.load.store(busy + 1, Ordering::Release);
        let before = manager.store.read("s").expect("read");
        let refused = evaluate(&manager, "e2", "s", batch.clone());
        assert_eq!(error_kind(&refused), Some((ErrorKind::Backpressure, true)));
        let refused = propose(&manager, "p2", "s", batch[1].clone());
        assert_eq!(error_kind(&refused), Some((ErrorKind::Backpressure, true)));
        assert_eq!(manager.load(), busy + 1);
        // The refused proposal armed nothing and persisted nothing.
        let unarmed = commit(&manager, "c2", "s", &results[1].digest);
        assert_eq!(
            error_kind(&unarmed),
            Some((ErrorKind::NoPendingProposal, false))
        );
        assert_eq!(manager.store.read("s").expect("read"), before);
    }

    #[test]
    fn a_shed_request_retried_under_its_id_is_scored_not_replayed() {
        let manager = temp_manager("shed_retry", Chaos::off(), DegradePolicy::default());
        let reject_at = DegradePolicy::default().reject_at;
        assert!(open(&manager, "r1", "s").ok);
        let batch = states(1);

        manager.load.store(reject_at - 1, Ordering::Release);
        let refused = evaluate(&manager, "e1", "s", batch.clone());
        assert_eq!(error_kind(&refused), Some((ErrorKind::Backpressure, true)));
        let refused = propose(&manager, "p1", "s", batch[0].clone());
        assert_eq!(error_kind(&refused), Some((ErrorKind::Backpressure, true)));

        // Load drains and the client retries under the same ids. The
        // refusals recorded and cached nothing, so both are scored afresh.
        manager.load.store(0, Ordering::Release);
        let retried = evaluate(&manager, "e1", "s", batch.clone());
        assert!(retried.ok && !retried.replayed, "{retried:?}");
        let ResponsePayload::Evaluated { results } = &retried.payload else {
            panic!("expected Evaluated, got {retried:?}");
        };
        assert!(!results[0].cached, "the refused evaluate cached a score");
        assert_eq!(
            results[0].score.to_bits(),
            fresh_rebase(&batch[0]).to_bits()
        );
        let retried = propose(&manager, "p1", "s", batch[0].clone());
        assert!(retried.ok && !retried.replayed, "{retried:?}");
        let (seq, _) = committed(&commit(&manager, "c1", "s", &proposed_digest(&retried)));
        assert_eq!(seq, 1);
        assert_eq!(manager.load(), 0);
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
        assert_eq!(error_kind(&refused), Some((ErrorKind::ShuttingDown, true)));
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
        assert_eq!(
            error_kind(&response),
            Some((ErrorKind::BatchTooLarge, false))
        );
        let fat = FloorplanState {
            chip: [100, 100],
            segments: vec![[0, 0, 1, 1]; 4],
        };
        let response = evaluate(&manager, "e2", "s", vec![fat.clone()]);
        assert_eq!(
            error_kind(&response),
            Some((ErrorKind::BatchTooLarge, false))
        );
        // Propose enforces max_segments too.
        let response = propose(&manager, "e3", "s", fat);
        assert_eq!(
            error_kind(&response),
            Some((ErrorKind::BatchTooLarge, false))
        );
    }

    #[test]
    fn propose_commit_undo_evaluate_lifecycle() {
        let manager = temp_manager("delta_lifecycle", Chaos::off(), DegradePolicy::default());
        let opened = open(&manager, "r1", "d");
        assert!(opened.ok, "{opened:?}");

        let batch = states(2);
        let proposed = propose(&manager, "p1", "d", batch[0].clone());
        assert!(proposed.ok, "{proposed:?}");
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

        // Evaluate: read-only, no budget, and the snapshot on disk is
        // untouched by it.
        let before = manager.store.read("d").expect("read").expect("snapshot");
        let evaluated = evaluate(&manager, "e1", "d", batch.clone());
        assert!(evaluated.ok, "{evaluated:?}");
        let after = manager.store.read("d").expect("read").expect("snapshot");
        assert_eq!(before, after, "read-only evaluate must not persist");
        assert_eq!(stat(&manager, "d").evals_done, 1, "only the commit counted");
    }

    #[test]
    fn delta_commit_replay_is_idempotent() {
        let manager = temp_manager("delta_replay", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "d").ok);
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
        assert_eq!(
            error_kind(&stale),
            Some((ErrorKind::NoPendingProposal, false))
        );
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
        assert!(open(&first, "r1", "d").ok);
        let state = states(1).remove(0);
        let digest = proposed_digest(&propose(&first, "p1", "d", state.clone()));
        let committed = commit(&first, "c1", "d", &digest);
        assert!(committed.ok);
        drop(first);

        let second = SessionManager::new(store, Limits::default(), DegradePolicy::default(), 1);
        assert_eq!(second.resumable().expect("list"), vec!["d".to_owned()]);
        let reopened = open(&second, "r2", "d");
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
        assert_eq!(
            error_kind(&fresh),
            Some((ErrorKind::NoPendingProposal, false))
        );
    }

    /// A session snapshot written by irgrid 0.12: two commits.
    const LEGACY_SESSION: &str = r#"{
  "version": 1,
  "session_id": "legacy-delta",
  "config": {
    "pitch_um": 30,
    "budget": 0,
    "cache_capacity": 128
  },
  "commits_done": 2,
  "committed": {
    "chip": [
      700,
      600
    ],
    "segments": [
      [
        90,
        15,
        600,
        500
      ],
      [
        20,
        500,
        600,
        15
      ],
      [
        350,
        10,
        400,
        590
      ]
    ]
  },
  "journal": [
    {
      "seq": 1,
      "digest": "bddb9f624202bc61",
      "score": 0.011538461538461539,
      "fingerprint": "c3344dabae2855c4"
    },
    {
      "seq": 2,
      "digest": "4fce5a18d186eed2",
      "score": 0.06857669456518374,
      "fingerprint": "7880e156b3b8b7e5"
    }
  ],
  "completed": [
    {
      "request_id": "c0",
      "digest": "bddb9f624202bc61",
      "score": 0.011538461538461539,
      "seq": 1
    },
    {
      "request_id": "c1",
      "digest": "4fce5a18d186eed2",
      "score": 0.06857669456518374,
      "seq": 2
    }
  ]
}"#;

    /// A full-session snapshot written by irgrid 0.12 (one `Open` and
    /// one `Evaluate`); that session kind no longer exists.
    const LEGACY_FULL_SESSION: &str = r#"{
  "version": 1,
  "session_id": "legacy-full",
  "config": {
    "pitch_um": 30,
    "budget": 0,
    "cache_capacity": 128
  },
  "evals_done": 1,
  "completed": [
    {
      "request_id": "e1",
      "batch_digest": "a862299743d59171",
      "results": [
        {
          "digest": "bddb9f624202bc61",
          "score": 0.011538461538461539,
          "model": "irregular",
          "cached": false
        }
      ]
    }
  ]
}"#;

    /// A manager over a fresh state directory holding `snapshot` under
    /// `session`.
    fn manager_with_snapshot(tag: &str, session: &str, snapshot: &str) -> SessionManager {
        let manager = temp_manager(tag, Chaos::off(), DegradePolicy::default());
        manager
            .store
            .write(session, snapshot, 0)
            .expect("seed the snapshot");
        manager
    }

    #[test]
    fn a_session_snapshot_from_0_12_resumes_verified() {
        let manager = manager_with_snapshot("legacy", "legacy-delta", LEGACY_SESSION);
        let reopened = open(&manager, "r1", "legacy-delta");
        let ResponsePayload::Opened { resumed, stat } = &reopened.payload else {
            panic!("payload {reopened:?}");
        };
        assert!(resumed, "the fingerprint check passed");
        assert_eq!(stat.evals_done, 2);
        // The recorded commit acks replay from the resumed ring.
        let replay = commit(&manager, "c1", "legacy-delta", "4fce5a18d186eed2");
        assert!(replay.ok && replay.replayed, "{replay:?}");
        let ResponsePayload::Committed { score, .. } = replay.payload else {
            panic!("payload");
        };
        assert_eq!(score.to_bits(), 0.06857669456518374f64.to_bits());
    }

    #[test]
    fn every_prefix_of_a_session_snapshot_is_refused() {
        assert!(SessionState::from_json(LEGACY_SESSION, "legacy-delta").is_ok());
        for cut in 0..LEGACY_SESSION.len() {
            assert!(
                SessionState::from_json(&LEGACY_SESSION[..cut], "legacy-delta").is_err(),
                "cut {cut}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// One byte anywhere in a session snapshot, flipped in one of its
        /// five low bits, either resumes under `OpenDelta` or is refused
        /// with a typed error; never a panic. Low-bit flips keep the text
        /// ASCII and turn digits into other digits.
        #[test]
        fn session_snapshot_byte_flips_resume_or_are_refused(at in 0usize..4096, bit in 0u8..5) {
            // Each case gets its own state directory: the vendored
            // `proptest!` adds a `#[test]` of its own, so this test runs
            // twice, in parallel.
            static CASE: AtomicUsize = AtomicUsize::new(0);
            let tag = format!("legacy_flip_{}", CASE.fetch_add(1, Ordering::Relaxed));
            let mut bytes = LEGACY_SESSION.as_bytes().to_vec();
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
            let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
            let manager = manager_with_snapshot(&tag, "legacy-delta", &text);
            let reopened = open(&manager, "r1", "legacy-delta");
            drop(manager);
            let _ = std::fs::remove_dir_all(
                std::env::temp_dir().join(format!("irgrid_serve_mgr_{tag}")),
            );
            match &reopened.payload {
                ResponsePayload::Opened { resumed, .. } => proptest::prop_assert!(*resumed),
                ResponsePayload::Error { .. } => proptest::prop_assert!(!reopened.ok),
                other => proptest::prop_assert!(false, "payload {other:?}"),
            }
        }
    }

    #[test]
    fn a_full_session_snapshot_is_refused_and_left_on_disk() {
        let manager = manager_with_snapshot("legacy_full", "legacy-full", LEGACY_FULL_SESSION);
        let refused = open(&manager, "r1", "legacy-full");
        assert_eq!(
            error_kind(&refused),
            Some((ErrorKind::PersistFailed, false)),
            "{refused:?}"
        );
        let ResponsePayload::Error { message, .. } = &refused.payload else {
            panic!("payload");
        };
        assert!(message.contains("checkpoint unreadable"), "{message}");
        let on_disk = manager
            .store
            .read("legacy-full")
            .expect("read")
            .expect("snapshot kept");
        assert_eq!(
            on_disk, LEGACY_FULL_SESSION,
            "the file stays byte-identical"
        );
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
        assert!(open(&healthy, "r1", "d").ok);
        let before = clean.read("d").expect("read").expect("snapshot");

        // Every chaos consultation faults with an io-error: the commit
        // fails at the delta.commit site, before anything mutated.
        let faulty_store = SnapshotStore::open(&dir, all_fail(), KillSwitch::new()).expect("store");
        let faulty =
            SessionManager::new(faulty_store, Limits::default(), DegradePolicy::default(), 1);
        assert!(open(&faulty, "r2", "d").ok, "resume reads, no write");
        let state = states(1).remove(0);
        let digest = proposed_digest(&propose(&faulty, "p1", "d", state));
        let failed = commit(&faulty, "c1", "d", &digest);
        assert_eq!(error_kind(&failed), Some((ErrorKind::PersistFailed, true)));
        // Nothing durable or in-memory moved; the proposal is still
        // armed, so a healthy retry of the same commit succeeds.
        assert_eq!(
            clean.read("d").expect("read").expect("snapshot"),
            before,
            "failed commit must not touch the snapshot"
        );
        assert_eq!(stat(&faulty, "d").evals_done, 0, "commit not counted");

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
        assert!(open(&killed, "r3", "d").ok);
        let state = states(2).remove(1);
        let digest = proposed_digest(&propose(&killed, "p2", "d", state));
        let response = commit(&killed, "c2", "d", &digest);
        assert_eq!(error_kind(&response), Some((ErrorKind::ShuttingDown, true)));
        assert!(killed.shutting_down(), "kill at delta.commit shuts down");
    }

    #[test]
    fn shared_cache_crosses_sessions() {
        let manager = temp_manager("shared_cache", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "a").ok);
        assert!(open(&manager, "r2", "b").ok);
        assert!(open(&manager, "r3", "c").ok);
        let batch = states(1);
        assert!(evaluate(&manager, "e1", "a", batch.clone()).ok);
        // Session b scores the identical state: served from the shared
        // cache, bit-identically.
        let second = evaluate(&manager, "e2", "b", batch.clone());
        let ResponsePayload::Evaluated { results: hit } = &second.payload else {
            panic!("payload {second:?}");
        };
        assert!(hit[0].cached, "cross-session hit expected");
        assert!(manager.shared_cache_hits() >= 1);
        // A proposal's score is the same bits: session c's propose of the
        // state scores what Evaluate served.
        let proposed = propose(&manager, "p1", "c", batch[0].clone());
        let ResponsePayload::Proposed { score, .. } = proposed.payload else {
            panic!("payload {proposed:?}");
        };
        assert_eq!(score.to_bits(), hit[0].score.to_bits());
    }

    /// The `(commit_seq, score)` of a `Committed` response.
    fn committed(response: &Response) -> (u64, f64) {
        let ResponsePayload::Committed {
            commit_seq, score, ..
        } = &response.payload
        else {
            panic!("expected Committed, got {response:?}");
        };
        (*commit_seq, *score)
    }

    /// Proposes and commits `state` as step `k` of a script.
    fn step(manager: &SessionManager, session: &str, k: usize, state: FloorplanState) -> Response {
        let digest = proposed_digest(&propose(manager, &format!("p{k}"), session, state));
        commit(manager, &format!("c{k}"), session, &digest)
    }

    #[test]
    fn restart_resumes_from_checkpoint() {
        // One script of commits, run uninterrupted and split by a
        // restart: the same scores and a byte-identical snapshot.
        let batch = states(3);
        let reference = temp_manager("restart_reference", Chaos::off(), DegradePolicy::default());
        assert!(open(&reference, "r1", "s").ok);
        let want: Vec<(u64, f64)> = (0..batch.len())
            .map(|k| committed(&step(&reference, "s", k, batch[k].clone())))
            .collect();

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
        for k in 0..2 {
            let (seq, score) = committed(&step(&first, "s", k, batch[k].clone()));
            assert_eq!((seq, score.to_bits()), (want[k].0, want[k].1.to_bits()));
        }
        drop(first);

        let second = SessionManager::new(store, Limits::default(), DegradePolicy::default(), 1);
        let reopened = open(&second, "r2", "s");
        let ResponsePayload::Opened { resumed, stat } = &reopened.payload else {
            panic!("payload {reopened:?}");
        };
        assert!(resumed);
        assert_eq!(stat.evals_done, 2);
        let (seq, score) = committed(&step(&second, "s", 2, batch[2].clone()));
        assert_eq!((seq, score.to_bits()), (want[2].0, want[2].1.to_bits()));
        assert_eq!(
            second.store.read("s").expect("read"),
            reference.store.read("s").expect("read"),
            "the resumed session's snapshot diverged"
        );
    }

    #[test]
    fn persist_failure_rolls_back_and_is_retryable() {
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_persistfail");
        let _ = std::fs::remove_dir_all(&dir);
        let clean = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let healthy = SessionManager::new(
            clean.clone(),
            Limits::default(),
            DegradePolicy::default(),
            1,
        );
        assert!(open(&healthy, "r1", "s").ok);
        drop(healthy);
        let before = clean.read("s").expect("read").expect("snapshot");

        let faulty_store = SnapshotStore::open(&dir, all_fail(), KillSwitch::new()).expect("store");
        let faulty =
            SessionManager::new(faulty_store, Limits::default(), DegradePolicy::default(), 1);
        assert!(open(&faulty, "r2", "s").ok);
        let proposed = propose(&faulty, "p0", "s", states(1).remove(0));
        let ResponsePayload::Proposed { digest, score } = &proposed.payload else {
            panic!("expected Proposed, got {proposed:?}");
        };
        let failed = commit(&faulty, "c0", "s", digest);
        assert_eq!(error_kind(&failed), Some((ErrorKind::PersistFailed, true)));
        assert_eq!(clean.read("s").expect("read").expect("snapshot"), before);
        assert_eq!(stat(&faulty, "s").evals_done, 0);
        drop(faulty);

        // The failed attempt recorded nothing under its request id, so
        // the retry commits for real instead of replaying a phantom ack.
        let retried = SessionManager::new(clean, Limits::default(), DegradePolicy::default(), 1);
        assert!(open(&retried, "r3", "s").ok);
        let response = step(&retried, "s", 0, states(1).remove(0));
        assert!(response.ok && !response.replayed, "{response:?}");
        let (seq, retried_score) = committed(&response);
        assert_eq!(
            (seq, retried_score.to_bits()),
            (1, score.to_bits()),
            "the retry commits the bits the failed attempt proposed"
        );
    }

    #[test]
    fn budget_exhaustion_refuses_commits_but_not_reads() {
        let manager = temp_manager("budget", Chaos::off(), DegradePolicy::default());
        let opened = manager.handle(
            &request(
                "r1",
                "s",
                RequestOp::OpenDelta {
                    config: SessionConfig {
                        budget: 1,
                        ..SessionConfig::default_config()
                    },
                },
            ),
            &RunControl::unlimited(),
        );
        assert!(opened.ok, "{opened:?}");
        let batch = states(2);
        assert_eq!(committed(&step(&manager, "s", 0, batch[0].clone())).0, 1);
        let before = manager.store.read("s").expect("read").expect("snapshot");

        let refused = step(&manager, "s", 1, batch[1].clone());
        assert_eq!(
            error_kind(&refused),
            Some((ErrorKind::BudgetExhausted, false))
        );
        assert_eq!(
            manager.store.read("s").expect("read").expect("snapshot"),
            before,
            "a refused commit persists nothing"
        );
        let left = stat(&manager, "s");
        assert_eq!((left.evals_done, left.budget_left), (1, 0));
        assert!(evaluate(&manager, "e1", "s", batch).ok, "evaluate is free");
    }
}
