//! The session manager: request dispatch, idempotent retries, load
//! shedding, and the persist-then-reply commit discipline.
//!
//! # Commit discipline
//!
//! `Propose` and `Undo` are pure (nothing to persist), and `Commit` is
//! staged by [`Session::prepare_commit`] *before* anything
//! mutates — persist what it staged through the [`SnapshotStore`] (one
//! record appended to the session's commit log and synced, or, when the
//! commit compacts, the whole snapshot written atomically and the log
//! emptied), then apply, then reply. The daemon therefore never
//! acknowledges a commit it could forget, and a failed persist needs no
//! rollback because nothing moved: the client gets a retryable
//! `PersistFailed` and the armed proposal survives for the retry.
//! Combined with the commit idempotency ring, a client that retries on
//! every retryable error reaches a final state byte-identical to an
//! uninterrupted run. The chaos injector is consulted at the dedicated
//! `delta.commit` site between staging and persisting, so kill-point
//! tests cover the propose → commit → persist window explicitly.
//!
//! # Load shedding
//!
//! Load is the number of `Propose` requests in flight across all
//! connections, tracked by an RAII `LoadGuard`
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

use crate::protocol::{
    valid_session_id, ErrorKind, FloorplanState, Limits, Request, RequestOp, Response,
    ResponsePayload, SessionConfig,
};
use crate::session::{CommitOutcome, CommitWrite, Session, SessionState};
use crate::store::{SnapshotStore, StoreError};

/// The load-shedding threshold, in concurrent in-flight `Propose`
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
    /// Creates a manager over `store`.
    ///
    /// `_workers` is ignored: every request is scored on its
    /// connection's own thread. The parameter stays because existing
    /// callers pass it.
    #[must_use]
    pub fn new(
        store: SnapshotStore,
        limits: Limits,
        policy: DegradePolicy,
        _workers: usize,
    ) -> SessionManager {
        SessionManager {
            store,
            limits,
            policy,
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

    /// The `Propose` requests currently in flight (the load-shedding
    /// input). Zero whenever the daemon is idle — every exit path of
    /// every handler releases its slot.
    #[must_use]
    pub fn load(&self) -> usize {
        self.load.load(Ordering::Acquire)
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
            None => {
                let mut session =
                    Session::create(&request.session, config, self.limits.completed_ring);
                // A log without a snapshot is left over from an
                // interrupted `Close`; it must not replay onto the new
                // session.
                let payload = session.birth_snapshot();
                let seq = self.next_seq(&request.session);
                let born = self
                    .store
                    .cut_log(&request.session, 0)
                    .and_then(|()| self.store.write(&request.session, &payload, seq));
                if let Err(err) = born {
                    return self.store_failure(&request.id, &err);
                }
                session
            }
        };

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

    /// Rebuilds a session from checkpoint text and its commit log. A
    /// checkpoint that does not parse as a session record — torn,
    /// foreign, or written by an older daemon's full session — or a log
    /// record that is whole but corrupt is refused loudly, and both files
    /// stay on disk: silently recreating the session would lose history.
    /// Once the session verifies, the log is cut back to its last record
    /// replayed, so the files on disk are the ones a clean run leaves.
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
        let log = self
            .store
            .read_log(&request.session)
            .map_err(|err| self.store_failure(&request.id, &err))?;
        let (session, kept) = Session::resume(state, text.len(), &log, self.limits.completed_ring)
            .map_err(|why| {
                // A corrupt log, or a replayed map that failed
                // bit-identity verification — refuse loudly instead of
                // serving from a diverged map.
                Response::error(
                    &request.id,
                    ErrorKind::PersistFailed,
                    format!("session checkpoint failed recovery verification: {why}"),
                    false,
                )
            })?;
        if kept < log.len() {
            self.store
                .cut_log(&request.session, kept as u64)
                .map_err(|err| self.store_failure(&request.id, &err))?;
        }
        Ok(session)
    }

    /// Takes a load slot for one `Propose`, or refuses the request
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

            // Persist the staged record or snapshot, then apply —
            // persist-then-reply, with no rollback path because nothing
            // mutated yet.
            let seq = self.next_seq(&session_id);
            let persisted = match prepared.write() {
                CommitWrite::Append { record, at } => {
                    self.store.append(&session_id, record, *at, seq)
                }
                CommitWrite::Compact { snapshot } => self
                    .store
                    .write(&session_id, snapshot, seq)
                    .and_then(|()| self.store.cut_log(&session_id, 0)),
            };
            if let Err(err) = persisted {
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

    /// A session's snapshot and commit log, as `store` holds them.
    fn files(store: &SnapshotStore, session: &str) -> (Option<String>, Vec<u8>) {
        (
            store.read(session).expect("read"),
            store.read_log(session).expect("read log"),
        )
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

    /// Answers `Undo` in `session` with the committed score.
    fn undo(manager: &SessionManager, id: &str, session: &str) -> f64 {
        let undone = manager.handle(
            &request(id, session, RequestOp::Undo),
            &RunControl::unlimited(),
        );
        let ResponsePayload::Undone { score } = undone.payload else {
            panic!("expected Undone, got {undone:?}");
        };
        score
    }

    /// The `(digest, score)` of a `Proposed` response.
    fn proposal(response: &Response) -> (String, f64) {
        let ResponsePayload::Proposed { digest, score } = &response.payload else {
            panic!("expected Proposed, got {response:?}");
        };
        (digest.clone(), *score)
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
        proposal(response).0
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
    fn open_propose_stat_close_lifecycle() {
        let manager = temp_manager("lifecycle", Chaos::off(), DegradePolicy::default());
        let opened = open(&manager, "r1", "alice");
        assert!(opened.ok, "{opened:?}");
        assert!(matches!(
            opened.payload,
            ResponsePayload::Opened { resumed: false, .. }
        ));

        for (k, state) in states(2).into_iter().enumerate() {
            let proposed = propose(&manager, &format!("p{k}"), "alice", state);
            assert!(proposed.ok, "{proposed:?}");
            undo(&manager, &format!("u{k}"), "alice");
        }
        assert_eq!(stat(&manager, "alice").evals_done, 0, "proposals are free");

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
        let response = propose(&manager, "r1", "ghost", states(1).remove(0));
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
    fn propose_retry_recomputes_the_same_bits_and_persists_nothing() {
        let manager = temp_manager("propose_retry", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "s").ok);
        let before = files(&manager.store, "s");
        for state in states(2) {
            let first = propose(&manager, "p1", "s", state.clone());
            let second = propose(&manager, "p1", "s", state);
            assert!(first.ok && !first.replayed);
            assert!(second.ok && !second.replayed, "propose is never replayed");
            let ((a_digest, a), (b_digest, b)) = (proposal(&first), proposal(&second));
            assert_eq!((a_digest, a.to_bits()), (b_digest, b.to_bits()));
        }
        let after = files(&manager.store, "s");
        assert_eq!(before, after, "a proposal must not persist");
    }

    #[test]
    fn load_gauge_returns_to_zero_on_every_error_path() {
        // Backpressure refusal.
        let rejecting = temp_manager("gauge_reject", Chaos::off(), DegradePolicy { reject_at: 0 });
        assert!(open(&rejecting, "r1", "s").ok);
        assert!(!propose(&rejecting, "e2", "s", states(1).remove(0)).ok);
        assert_eq!(rejecting.load(), 0, "backpressure path leaked a slot");

        let manager = temp_manager("gauge", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "s").ok);
        // Unknown session.
        assert!(!propose(&manager, "e2", "ghost", states(1).remove(0)).ok);
        // Invalid geometry.
        let bad = FloorplanState {
            chip: [100, 100],
            segments: vec![[0, 0, 101, 50]],
        };
        assert!(!propose(&manager, "e4", "s", bad).ok);
        // Expired deadline.
        let expired = RunControl::unlimited().with_time_limit(std::time::Duration::ZERO);
        let timeout = manager.handle(
            &request(
                "e5",
                "s",
                RequestOp::Propose {
                    state: states(1).remove(0),
                },
            ),
            &expired,
        );
        assert_eq!(error_kind(&timeout), Some((ErrorKind::Timeout, true)));
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
        assert!(propose(&healthy, "e1", "s", states(1).remove(0)).ok);
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
        let mut digests = Vec::new();
        for (k, state) in batch.iter().enumerate() {
            let (digest, score) =
                proposal(&propose(&manager, &format!("e{k}"), "s", state.clone()));
            assert_eq!(score.to_bits(), fresh_rebase(state).to_bits());
            undo(&manager, &format!("u{k}"), "s");
            digests.push(digest);
        }
        let (digest, score) = proposal(&propose(&manager, "p1", "s", batch[0].clone()));
        assert_eq!(score.to_bits(), fresh_rebase(&batch[0]).to_bits());
        let (seq, committed_score) = committed(&commit(&manager, "c1", "s", &digest));
        assert_eq!((seq, committed_score.to_bits()), (1, score.to_bits()));
        assert_eq!(manager.load(), busy);

        // One more slot taken: each request sees exactly reject_at.
        manager.load.store(busy + 1, Ordering::Release);
        let before = files(&manager.store, "s");
        let refused = propose(&manager, "p2", "s", batch[1].clone());
        assert_eq!(error_kind(&refused), Some((ErrorKind::Backpressure, true)));
        assert_eq!(manager.load(), busy + 1);
        // The refused proposal armed nothing and persisted nothing.
        let unarmed = commit(&manager, "c2", "s", &digests[1]);
        assert_eq!(
            error_kind(&unarmed),
            Some((ErrorKind::NoPendingProposal, false))
        );
        assert_eq!(files(&manager.store, "s"), before);
    }

    #[test]
    fn a_shed_request_retried_under_its_id_is_scored_not_replayed() {
        let manager = temp_manager("shed_retry", Chaos::off(), DegradePolicy::default());
        let reject_at = DegradePolicy::default().reject_at;
        assert!(open(&manager, "r1", "s").ok);
        let batch = states(1);

        manager.load.store(reject_at - 1, Ordering::Release);
        let refused = propose(&manager, "p1", "s", batch[0].clone());
        assert_eq!(error_kind(&refused), Some((ErrorKind::Backpressure, true)));

        // Load drains and the client retries under the same id. The
        // refusal recorded nothing, so the retry is scored afresh.
        manager.load.store(0, Ordering::Release);
        let retried = propose(&manager, "p1", "s", batch[0].clone());
        assert!(retried.ok && !retried.replayed, "{retried:?}");
        assert_eq!(
            proposal(&retried).1.to_bits(),
            fresh_rebase(&batch[0]).to_bits()
        );
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
        let refused = propose(&manager, "e1", "s", states(1).remove(0));
        assert_eq!(error_kind(&refused), Some((ErrorKind::ShuttingDown, true)));
        let pong = manager.handle(
            &request("r3", "", RequestOp::Ping),
            &RunControl::unlimited(),
        );
        assert!(pong.ok);
    }

    #[test]
    fn max_segments_is_enforced() {
        let dir = std::env::temp_dir().join("irgrid_serve_mgr_limits");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let limits = Limits {
            max_segments: 3,
            ..Limits::default()
        };
        let manager = SessionManager::new(store, limits, DegradePolicy::default(), 1);
        assert!(open(&manager, "r1", "s").ok);
        let with = |count| FloorplanState {
            chip: [100, 100],
            segments: vec![[0, 0, 1, 1]; count],
        };
        assert!(propose(&manager, "e1", "s", with(3)).ok, "at the limit");
        let response = propose(&manager, "e2", "s", with(4));
        assert_eq!(
            error_kind(&response),
            Some((ErrorKind::BatchTooLarge, false))
        );
    }

    #[test]
    fn propose_commit_undo_lifecycle() {
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

        // Rejected move: propose then undo returns the committed cost,
        // consumes no budget, and leaves the snapshot on disk untouched.
        let before = files(&manager.store, "d");
        let second = propose(&manager, "p2", "d", batch[1].clone());
        assert!(second.ok);
        let score = undo(&manager, "u1", "d");
        assert_eq!(score.to_bits(), committed_score.to_bits());
        let after = files(&manager.store, "d");
        assert_eq!(before, after, "a rejected move must not persist");
        assert_eq!(stat(&manager, "d").evals_done, 1, "only the commit counted");
    }

    #[test]
    fn propose_then_undo_is_a_read_only_score() {
        let manager = temp_manager("read_only_score", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "s").ok);
        let batch = states(3);
        let (_, committed_score) = committed(&step(&manager, "s", 0, batch[0].clone()));
        let before = files(&manager.store, "s");
        for (k, state) in batch.iter().enumerate().skip(1) {
            let (digest, score) =
                proposal(&propose(&manager, &format!("q{k}"), "s", state.clone()));
            assert_eq!(digest, irgrid_fleet::state_digest(state));
            assert_eq!(score.to_bits(), fresh_rebase(state).to_bits());
            let undone = undo(&manager, &format!("v{k}"), "s");
            assert_eq!(undone.to_bits(), committed_score.to_bits());
            // The pending slot is empty again: the undone digest cannot
            // be committed.
            let refused = commit(&manager, &format!("c{k}"), "s", &digest);
            assert_eq!(
                error_kind(&refused),
                Some((ErrorKind::NoPendingProposal, false))
            );
        }
        let after = files(&manager.store, "s");
        assert_eq!(before, after, "a read-only score must not persist");
        assert_eq!(stat(&manager, "s").evals_done, 1);
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
    fn a_session_snapshot_from_0_12_writes_back_byte_for_byte() {
        let state = SessionState::from_json(LEGACY_SESSION, "legacy-delta").expect("parse");
        assert_eq!(state.to_json(), LEGACY_SESSION);
        let committed = state.committed.as_ref().expect("two commits");
        assert_eq!(irgrid_fleet::state_digest(committed), "4fce5a18d186eed2");
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
        let before = files(&clean, "d");

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
            files(&clean, "d"),
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
    fn sessions_scoring_one_state_agree_bit_for_bit() {
        let manager = temp_manager("cross_session", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r1", "a").ok);
        assert!(open(&manager, "r2", "b").ok);
        assert!(open(&manager, "r3", "c").ok);
        let batch = states(2);
        // Session a has committed another state; b and c have none.
        assert!(step(&manager, "a", 0, batch[1].clone()).ok);
        let first = proposal(&propose(&manager, "p1", "a", batch[0].clone()));
        undo(&manager, "u1", "a");
        // Session b scores the identical state: the same bits and digest.
        let second = proposal(&propose(&manager, "p2", "b", batch[0].clone()));
        undo(&manager, "u2", "b");
        assert_eq!(first.1.to_bits(), second.1.to_bits());
        assert_eq!(first.0, second.0);
        // A proposal that stays armed scores the same bits too.
        let third = proposal(&propose(&manager, "p3", "c", batch[0].clone()));
        assert_eq!(third.1.to_bits(), second.1.to_bits());
        assert_eq!(third.0, second.0);
    }

    #[test]
    fn a_resumed_0_12_session_proposes_its_committed_state_under_the_recorded_digest() {
        let manager = manager_with_snapshot("legacy_propose", "legacy-delta", LEGACY_SESSION);
        assert!(open(&manager, "r1", "legacy-delta").ok);
        let committed_state = SessionState::from_json(LEGACY_SESSION, "legacy-delta")
            .expect("parse")
            .committed
            .expect("two commits");
        // The journal tail recorded this digest and score when 0.12
        // committed the state; a Propose of it today reports both.
        let proposed = propose(&manager, "p1", "legacy-delta", committed_state.clone());
        let ResponsePayload::Proposed { digest, score } = &proposed.payload else {
            panic!("expected Proposed, got {proposed:?}");
        };
        assert_eq!(digest, "4fce5a18d186eed2");
        assert_eq!(score.to_bits(), 0.06857669456518374f64.to_bits());
        // Undo disarms it and reports the recorded committed score.
        let undone = undo(&manager, "u1", "legacy-delta");
        assert_eq!(undone.to_bits(), 0.06857669456518374f64.to_bits());
    }

    /// Runs one propose/commit/undo script in `session`, opened
    /// with `cache_capacity`, and returns every digest and score bit
    /// pattern it was answered with, in order.
    fn scripted_answers(
        manager: &SessionManager,
        session: &str,
        cache_capacity: u64,
    ) -> Vec<(String, u64)> {
        let config = SessionConfig {
            cache_capacity,
            ..SessionConfig::default_config()
        };
        let opened = manager.handle(
            &request("r0", session, RequestOp::OpenDelta { config }),
            &RunControl::unlimited(),
        );
        assert!(opened.ok, "{opened:?}");
        let batch = states(3);
        let mut answers = Vec::new();
        for (k, state) in batch.iter().enumerate() {
            let (digest, score) =
                proposal(&propose(manager, &format!("p{k}"), session, state.clone()));
            answers.push((digest.clone(), score.to_bits()));
            if k == 1 {
                let score = undo(manager, &format!("u{k}"), session);
                answers.push((String::new(), score.to_bits()));
            } else {
                let (seq, score) = committed(&commit(manager, &format!("c{k}"), session, &digest));
                answers.push((seq.to_string(), score.to_bits()));
            }
        }
        for (k, state) in batch.into_iter().enumerate() {
            let (digest, score) = proposal(&propose(manager, &format!("e{k}"), session, state));
            undo(manager, &format!("v{k}"), session);
            answers.push((digest, score.to_bits()));
        }
        answers
    }

    #[test]
    fn cache_capacity_changes_no_score_or_digest() {
        let manager = temp_manager("capacity", Chaos::off(), DegradePolicy::default());
        let off = scripted_answers(&manager, "off", 0);
        let on = scripted_answers(&manager, "on", 64);
        assert_eq!(off.len(), 3 * 2 + 3);
        assert_eq!(off, on);
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
            files(&second.store, "s"),
            files(&reference.store, "s"),
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
        let before = files(&clean, "s");

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
        assert_eq!(files(&clean, "s"), before);
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
        let before = files(&manager.store, "s");

        let refused = step(&manager, "s", 1, batch[1].clone());
        assert_eq!(
            error_kind(&refused),
            Some((ErrorKind::BudgetExhausted, false))
        );
        assert_eq!(
            files(&manager.store, "s"),
            before,
            "a refused commit persists nothing"
        );
        let left = stat(&manager, "s");
        assert_eq!((left.evals_done, left.budget_left), (1, 0));
        assert!(
            propose(&manager, "e1", "s", batch[1].clone()).ok,
            "propose is free"
        );
        assert_eq!(stat(&manager, "s").budget_left, 0);
    }

    /// 24 segments on a 900×800 chip with segment `k % 24` nudged by
    /// `k`: a state whose snapshot outweighs several one-endpoint
    /// commit-log records.
    fn wide(k: usize) -> FloorplanState {
        let mut segments: Vec<[i64; 4]> = (0..24)
            .map(|i| {
                [
                    10 + 17 * i % 600,
                    20 + 29 * i % 500,
                    650 - 13 * i % 300,
                    700 - i,
                ]
            })
            .collect();
        segments[k % 24][0] += 7 * k as i64;
        FloorplanState {
            chip: [900, 800],
            segments,
        }
    }

    /// The snapshot and commit log of a session whose first commit
    /// compacted and whose next three appended.
    fn three_record_files() -> &'static (String, Vec<u8>) {
        static FILES: std::sync::OnceLock<(String, Vec<u8>)> = std::sync::OnceLock::new();
        FILES.get_or_init(|| {
            let manager = temp_manager("three_records", Chaos::off(), DegradePolicy::default());
            assert!(open(&manager, "r0", "s").ok);
            for k in 0..4 {
                assert!(step(&manager, "s", k, wide(k)).ok);
            }
            let (snapshot, log) = files(&manager.store, "s");
            let records = log.iter().filter(|&&byte| byte == b'\n').count();
            assert_eq!(records, 3, "three appended records");
            (snapshot.expect("snapshot"), log)
        })
    }

    /// A manager over a fresh state directory holding `snapshot` and
    /// `log` under session `s`.
    fn manager_with_files(tag: &str, snapshot: &str, log: &[u8]) -> SessionManager {
        let manager = manager_with_snapshot(tag, "s", snapshot);
        std::fs::write(manager.store.log_path_for("s"), log).expect("seed the log");
        manager
    }

    #[test]
    fn every_prefix_of_a_three_record_log_resumes_at_its_last_whole_record() {
        let (snapshot, log) = three_record_files();
        for cut in 0..=log.len() {
            let manager = manager_with_files("log_prefix", snapshot, &log[..cut]);
            let reopened = open(&manager, "r1", "s");
            let ResponsePayload::Opened { resumed, stat } = &reopened.payload else {
                panic!("cut {cut}: {reopened:?}");
            };
            let kept = log[..cut]
                .iter()
                .rposition(|&byte| byte == b'\n')
                .map_or(0, |at| at + 1);
            let whole = log[..kept].iter().filter(|&&byte| byte == b'\n').count();
            assert!(resumed);
            assert_eq!(stat.evals_done, 1 + whole as u64, "cut {cut}");
            assert_eq!(
                manager.store.read_log("s").expect("read"),
                &log[..kept],
                "cut {cut}: the log is cut back to its last whole record"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// One byte anywhere in a commit log, flipped in one of its five
        /// low bits, either resumes at an earlier verified commit or is
        /// refused with non-retryable `PersistFailed`, leaving both
        /// files as they were; never a panic.
        #[test]
        fn commit_log_byte_flips_resume_earlier_or_are_refused(at in 0usize..4096, bit in 0u8..5) {
            static CASE: AtomicUsize = AtomicUsize::new(0);
            let tag = format!("log_flip_{}", CASE.fetch_add(1, Ordering::Relaxed));
            let (snapshot, log) = three_record_files();
            let mut flipped = log.clone();
            let at = at % flipped.len();
            flipped[at] ^= 1 << bit;
            let manager = manager_with_files(&tag, snapshot, &flipped);
            let reopened = open(&manager, "r1", "s");
            let (kept_snapshot, kept_log) = files(&manager.store, "s");
            drop(manager);
            let _ = std::fs::remove_dir_all(
                std::env::temp_dir().join(format!("irgrid_serve_mgr_{tag}")),
            );
            match &reopened.payload {
                ResponsePayload::Opened { resumed, stat } => {
                    proptest::prop_assert!(*resumed);
                    proptest::prop_assert!(stat.evals_done < 4, "byte {at}: {stat:?}");
                    proptest::prop_assert!(log.starts_with(&kept_log));
                }
                ResponsePayload::Error { kind, retryable, .. } => {
                    proptest::prop_assert_eq!(*kind, ErrorKind::PersistFailed);
                    proptest::prop_assert!(!*retryable);
                    proptest::prop_assert_eq!(kept_snapshot.as_deref(), Some(snapshot.as_str()));
                    proptest::prop_assert!(kept_log == flipped, "byte {at}: the log changed");
                }
                other => proptest::prop_assert!(false, "payload {other:?}"),
            }
        }
    }

    #[test]
    fn a_version_1_session_compacts_on_its_next_commit() {
        let manager = manager_with_snapshot("legacy_compacts", "legacy-delta", LEGACY_SESSION);
        assert!(open(&manager, "r1", "legacy-delta").ok);
        let mut state = SessionState::from_json(LEGACY_SESSION, "legacy-delta")
            .expect("parse")
            .committed
            .expect("two commits");
        state.segments[0][0] += 1;
        let (seq, _) = committed(&step(&manager, "legacy-delta", 2, state.clone()));
        assert_eq!(seq, 3);
        let (snapshot, log) = files(&manager.store, "legacy-delta");
        let written =
            SessionState::from_json(&snapshot.expect("snapshot"), "legacy-delta").expect("parse");
        assert_eq!((written.version, written.commits_done), (2, 3));
        assert_eq!(written.committed, Some(state));
        assert!(log.is_empty(), "the commit rewrote the snapshot instead");
    }

    #[test]
    fn a_log_left_without_a_snapshot_is_emptied_when_the_session_is_born_again() {
        let manager = temp_manager("orphan_log", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r0", "s").ok);
        for k in 0..3 {
            assert!(step(&manager, "s", k, wide(k)).ok);
        }
        // A `Close` interrupted between its two removals.
        assert!(!manager.store.read_log("s").expect("read").is_empty());
        std::fs::remove_file(manager.store.path_for("s")).expect("remove snapshot");
        let reborn = SessionManager::new(
            manager.store.clone(),
            Limits::default(),
            DegradePolicy::default(),
            1,
        );
        let opened = open(&reborn, "r1", "s");
        assert!(
            matches!(
                opened.payload,
                ResponsePayload::Opened { resumed: false, .. }
            ),
            "{opened:?}"
        );
        assert!(manager.store.read_log("s").expect("read").is_empty());
        // The new session's history is its own after a restart too.
        assert!(step(&reborn, "s", 0, wide(5)).ok);
        drop(reborn);
        let restarted = SessionManager::new(
            manager.store.clone(),
            Limits::default(),
            DegradePolicy::default(),
            1,
        );
        let reopened = open(&restarted, "r2", "s");
        let ResponsePayload::Opened { resumed, stat } = reopened.payload else {
            panic!("{reopened:?}");
        };
        assert!(resumed);
        assert_eq!(stat.evals_done, 1);
    }

    #[test]
    fn close_removes_the_snapshot_and_the_log() {
        let manager = temp_manager("close_files", Chaos::off(), DegradePolicy::default());
        assert!(open(&manager, "r0", "s").ok);
        for k in 0..3 {
            assert!(step(&manager, "s", k, wide(k)).ok);
        }
        assert!(!manager.store.read_log("s").expect("read").is_empty());
        let closed = manager.handle(
            &request("r1", "s", RequestOp::Close),
            &RunControl::unlimited(),
        );
        assert!(closed.ok, "{closed:?}");
        assert_eq!(files(&manager.store, "s"), (None, Vec::new()));
        assert!(!manager.store.log_path_for("s").exists());
    }
}
