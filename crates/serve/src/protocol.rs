//! The wire protocol: JSONL (default) or length-prefixed binary frames
//! over a Unix or TCP socket.
//!
//! In JSONL mode every frame is one JSON object on one `\n`-terminated
//! line. Clients send [`Request`]s, the daemon answers each with exactly
//! one [`Response`] carrying the same `id`, in request order per
//! connection. Frames are bounded ([`Limits::max_frame_bytes`]) and the
//! bound is enforced *before* buffering (see [`frame`](crate::frame));
//! an oversized or malformed frame gets a typed error reply instead of
//! killing the connection, so one bad client frame never tears down a
//! session. A client may switch the whole connection to the binary
//! framing by sending the [`frame::BINARY_MAGIC`](crate::frame)
//! preamble as its first bytes; JSONL remains the default.
//!
//! # Grammar (JSONL)
//!
//! ```text
//! frame     := json-object "\n"
//! request   := { "id": string, "session": string, "op": op }
//! op        := "Ping" | "Stat" | "Close" | "Shutdown" | "Undo"
//!            | { "OpenDelta": { "config": session-config } }
//!            | { "Propose":   { "state": floorplan-state } }
//!            | { "Commit":    { "digest": string } }
//! response  := { "id": string, "ok": bool, "replayed": bool,
//!                "payload": payload }
//! ```
//!
//! Enum encodings follow the workspace's serde conventions: unit
//! variants are strings, payload variants single-entry maps.
//!
//! # Sessions
//!
//! `OpenDelta` opens (or resumes) a session holding a session-resident
//! [`IrDeltaEvaluator`](irgrid_core::IrDeltaEvaluator)
//! scoring through the exact Q32 delta pipeline. `Propose` scores one
//! state incrementally against the committed snapshot (pure, nothing
//! persisted — a retry recomputes bit-identically); `Commit` promotes
//! the pending proposal (persist-then-reply, idempotent by request id);
//! `Undo` drops it. `Propose` then `Undo` is a read-only score: the
//! same digest and bits as a fresh rebase, with nothing persisted.

use serde::{Deserialize, Serialize};

/// Hard resource bounds the daemon enforces per frame / session / daemon.
///
/// Every bound produces an explicit typed error reply when exceeded —
/// backpressure is always visible to the client, never silent queueing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted request line, bytes (including the newline).
    pub max_frame_bytes: usize,
    /// Most live sessions the daemon will hold.
    pub max_sessions: usize,
    /// Most concurrent client connections; further connects get a
    /// `Backpressure` reply and are closed.
    pub max_clients: usize,
    /// Most segments in one floorplan state.
    pub max_segments: usize,
    /// Commit idempotency records and journal entries retained per
    /// session (oldest evicted first).
    pub completed_ring: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_frame_bytes: 1 << 20,
            max_sessions: 256,
            max_clients: 64,
            max_segments: 100_000,
            completed_ring: 32,
        }
    }
}

/// Per-session configuration fixed at `OpenDelta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Evaluation grid pitch in µm (strictly positive).
    pub pitch_um: i64,
    /// Total commit budget across the session's lifetime; `0` means
    /// unlimited. `Propose` and `Undo` are free. Enforced through
    /// [`RunControl::with_move_budget`](irgrid_anneal::RunControl::with_move_budget).
    pub budget: u64,
    /// Ignored: the daemon keeps no score cache, and every value scores
    /// the same bits. The field stays because existing clients send it,
    /// every session snapshot stores it inside `config`, and
    /// `OpenDelta` compares the whole config with a live or checkpointed
    /// session's, so dropping it would break resumes.
    pub cache_capacity: u64,
}

impl SessionConfig {
    /// A sane default: 30 µm pitch, unlimited budget, and the
    /// `cache_capacity` of 128 older daemons defaulted to (ignored, but
    /// part of the config that resumes compare).
    #[must_use]
    pub fn default_config() -> SessionConfig {
        SessionConfig {
            pitch_um: 30,
            budget: 0,
            cache_capacity: 128,
        }
    }
}

/// One floorplan snapshot to score: the packed chip extent plus the
/// MST-decomposed 2-pin segments, all in µm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloorplanState {
    /// Chip width and height; the lower-left corner is the origin.
    pub chip: [i64; 2],
    /// Segments as `[x1, y1, x2, y2]`.
    pub segments: Vec<[i64; 4]>,
}

/// What a request asks the daemon to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestOp {
    /// Create the named session (or resume it from its checkpoint if the
    /// daemon restarted): a session-resident incremental evaluator
    /// scoring through the exact Q32 delta pipeline. Opening an existing
    /// live session with the same config is idempotent.
    /// [idempotency: idempotent for an identical config; a different
    /// config for a live session is `InvalidRequest`]
    OpenDelta {
        /// The session's fixed configuration.
        config: SessionConfig,
    },
    /// Score one state incrementally against the session's committed
    /// snapshot and leave it pending for `Commit`. Pure:
    /// nothing is persisted, and a retry recomputes bit-identically.
    /// [idempotency: naturally idempotent — a retry recomputes the same
    /// digest and score bit-identically]
    Propose {
        /// The proposed floorplan.
        state: FloorplanState,
    },
    /// Promote the pending proposal with the given state digest to the
    /// committed snapshot. Persist-then-reply; idempotent by request id.
    /// [idempotency: deduplicated by request id; a replayed commit of an
    /// already-committed digest reports the committed score]
    Commit {
        /// The digest `Propose` returned for the proposal to commit.
        digest: String,
    },
    /// Discard the pending proposal (if any) and report the committed
    /// score. Pure; always safe to retry.
    /// [idempotency: naturally idempotent — discarding nothing is a
    /// no-op]
    Undo,
    /// Report the session's counters without evaluating anything.
    /// [idempotency: read-only]
    Stat,
    /// Close the session and delete its checkpoint.
    /// [idempotency: naturally idempotent — closing a closed session is
    /// `UnknownSession`, which callers treat as success]
    Close,
    /// Liveness probe; needs no session.
    /// [idempotency: read-only]
    Ping,
    /// Ask the daemon to stop accepting and exit cleanly (used by tests
    /// and the CI smoke harness; needs no session).
    /// [idempotency: naturally idempotent — a second shutdown finds the
    /// daemon already stopping]
    Shutdown,
}

/// One client request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen request id; echoed in the response and used as the
    /// idempotency key for `Commit` retries.
    pub id: String,
    /// Session name; `[A-Za-z0-9_-]{1,64}`. Ignored by `Ping`/`Shutdown`.
    pub session: String,
    /// The operation.
    pub op: RequestOp,
}

/// Why a request was refused. `retryable` in the carrying
/// [`ResponsePayload::Error`] says whether the same frame may simply be
/// sent again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The daemon (or one of its bounded queues) is full; retry later.
    /// [retry: always — transient load, back off and resend unchanged]
    Backpressure,
    /// The session's commit budget is exhausted.
    /// [retry: never — the budget is spent; open a new session]
    BudgetExhausted,
    /// The frame was not a valid request object.
    /// [retry: never — resending the same bytes fails the same way]
    MalformedFrame,
    /// The frame exceeded [`Limits::max_frame_bytes`].
    /// [retry: never — the daemon's limits are fixed for its lifetime]
    FrameTooLarge,
    /// A `Propose` state exceeded [`Limits::max_segments`]. The name is
    /// kept for wire compatibility.
    /// [retry: never — the daemon's limits are fixed for its lifetime]
    BatchTooLarge,
    /// A session op named a session that is not open.
    /// [retry: conditional — valid after an `OpenDelta` re-establishes it]
    UnknownSession,
    /// The request named an invalid session id or config.
    /// [retry: never — the request itself is wrong]
    InvalidRequest,
    /// The per-request evaluation deadline passed before scoring.
    /// [retry: always — no state changed; the retry re-evaluates]
    Timeout,
    /// Persisting the session checkpoint failed, or a checkpoint on disk
    /// could not be resumed. The `retryable` flag tells the two apart: a
    /// failed persist applied nothing and may be retried; an unreadable
    /// or unverifiable checkpoint is refused for good.
    /// [retry: conditional — retryable after a failed persist, which
    /// applied nothing; never for an unreadable checkpoint]
    PersistFailed,
    /// The daemon is shutting down (or a chaos kill point fired).
    /// [retry: conditional — against the restarted daemon, not this one]
    ShuttingDown,
    /// `Commit` named a digest with no matching pending proposal (e.g.
    /// the daemon restarted since the propose). Re-send the `Propose`,
    /// then retry the commit.
    /// [retry: conditional — only after re-proposing the same state]
    NoPendingProposal,
}

/// Session counters reported by `Stat` (and embedded in `Opened`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStat {
    /// Commits over the session's lifetime (across restarts). The name
    /// is kept for wire compatibility.
    pub evals_done: u64,
    /// Remaining commit budget; `0` with a zero-budget config means
    /// unlimited.
    pub budget_left: u64,
    /// Commit idempotency records currently retained.
    pub completed: u64,
}

/// The response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponsePayload {
    /// `OpenDelta` succeeded.
    Opened {
        /// Whether the session was resumed from a checkpoint on disk.
        resumed: bool,
        /// Counters at open time.
        stat: SessionStat,
    },
    /// `Propose` succeeded; the proposal is pending in the session.
    Proposed {
        /// FNV-1a digest of the proposed state's canonical JSON
        /// ([`state_digest`](irgrid_fleet::state_digest)); pass it to
        /// `Commit`.
        digest: String,
        /// The proposal's congestion score (exact Q32 delta pipeline).
        score: f64,
    },
    /// `Commit` succeeded; the proposal is now the committed snapshot,
    /// durably persisted.
    Committed {
        /// Digest of the now-committed state.
        digest: String,
        /// The committed score.
        score: f64,
        /// Monotone commit counter (1 for the session's first commit).
        commit_seq: u64,
    },
    /// `Undo` succeeded; any pending proposal was discarded.
    Undone {
        /// The committed score (`0.0` before the first commit).
        score: f64,
    },
    /// `Stat` succeeded.
    Stats {
        /// The counters.
        stat: SessionStat,
    },
    /// `Close` succeeded.
    Closed,
    /// `Ping` reply.
    Pong,
    /// `Shutdown` acknowledged; the daemon stops accepting.
    Bye,
    /// The request failed.
    Error {
        /// The failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// Whether resending the identical frame can succeed.
        retryable: bool,
    },
}

/// One daemon response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request id this answers (empty when the frame was too broken
    /// to recover an id).
    pub id: String,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// `true` when this is a recorded `Commit` ack replayed for an
    /// idempotent retry (same request id and digest).
    pub replayed: bool,
    /// The body.
    pub payload: ResponsePayload,
}

impl Response {
    /// A success response with the given payload.
    #[must_use]
    pub fn ok(id: &str, payload: ResponsePayload) -> Response {
        Response {
            id: id.to_owned(),
            ok: true,
            replayed: false,
            payload,
        }
    }

    /// An error response.
    #[must_use]
    pub fn error(
        id: &str,
        kind: ErrorKind,
        message: impl Into<String>,
        retryable: bool,
    ) -> Response {
        Response {
            id: id.to_owned(),
            ok: false,
            replayed: false,
            payload: ResponsePayload::Error {
                kind,
                message: message.into(),
                retryable,
            },
        }
    }
}

/// Validates a session id: `[A-Za-z0-9_-]{1,64}` (safe as a file stem).
#[must_use]
pub fn valid_session_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{
        parse_request_payload, parse_response_payload, recover_payload_id, response_frame,
        FrameCodec, FramePayload,
    };

    /// A response as the daemon frames it in JSONL, and the line parsed
    /// back the way a client reads it.
    fn jsonl_roundtrip(response: &Response) -> Response {
        let frame = String::from_utf8(response_frame(FrameCodec::Jsonl, response)).expect("utf-8");
        let line = frame.strip_suffix('\n').expect("newline-terminated");
        parse_response_payload(&FramePayload::Jsonl(line.to_owned())).expect("parse")
    }

    fn parse_line(line: &str) -> Result<Request, String> {
        parse_request_payload(&FramePayload::Jsonl(line.to_owned()))
    }

    #[test]
    fn request_roundtrip() {
        let request = Request {
            id: "r-1".into(),
            session: "alice".into(),
            op: RequestOp::Propose {
                state: FloorplanState {
                    chip: [600, 400],
                    segments: vec![[0, 0, 10, 20], [5, 5, 600, 400]],
                },
            },
        };
        let text = serde_json::to_string(&request).expect("serialize");
        let back = parse_line(&text).expect("parse");
        assert_eq!(request, back);
    }

    #[test]
    fn response_roundtrip_and_frame_shape() {
        let response = Response::ok(
            "r-2",
            ResponsePayload::Proposed {
                digest: "abc".into(),
                score: 1.5,
            },
        );
        let frame = String::from_utf8(response_frame(FrameCodec::Jsonl, &response)).expect("utf-8");
        assert!(frame.ends_with('\n'));
        assert_eq!(frame.matches('\n').count(), 1);
        assert_eq!(jsonl_roundtrip(&response), response);
    }

    #[test]
    fn delta_ops_and_payloads_roundtrip() {
        let state = FloorplanState {
            chip: [600, 400],
            segments: vec![[0, 0, 10, 20]],
        };
        for op in [
            RequestOp::OpenDelta {
                config: SessionConfig::default_config(),
            },
            RequestOp::Propose {
                state: state.clone(),
            },
            RequestOp::Commit {
                digest: "abcd".into(),
            },
            RequestOp::Undo,
        ] {
            let request = Request {
                id: "d-1".into(),
                session: "delta".into(),
                op,
            };
            let text = serde_json::to_string(&request).expect("serialize");
            let back = parse_line(&text).expect("parse");
            assert_eq!(request, back);
        }
        for payload in [
            ResponsePayload::Proposed {
                digest: "abcd".into(),
                score: 1.25,
            },
            ResponsePayload::Committed {
                digest: "abcd".into(),
                score: 1.25,
                commit_seq: 3,
            },
            ResponsePayload::Undone { score: 0.5 },
        ] {
            let response = Response::ok("d-2", payload);
            assert_eq!(jsonl_roundtrip(&response), response);
        }
    }

    #[test]
    fn error_kinds_roundtrip() {
        for kind in [
            ErrorKind::Backpressure,
            ErrorKind::BudgetExhausted,
            ErrorKind::MalformedFrame,
            ErrorKind::FrameTooLarge,
            ErrorKind::BatchTooLarge,
            ErrorKind::UnknownSession,
            ErrorKind::InvalidRequest,
            ErrorKind::Timeout,
            ErrorKind::PersistFailed,
            ErrorKind::ShuttingDown,
            ErrorKind::NoPendingProposal,
        ] {
            let response = Response::error("x", kind, "m", true);
            assert_eq!(jsonl_roundtrip(&response), response);
        }
    }

    #[test]
    fn session_id_validation() {
        assert!(valid_session_id("alice-01_B"));
        assert!(!valid_session_id(""));
        assert!(!valid_session_id("has space"));
        assert!(!valid_session_id("dot.dot"));
        assert!(!valid_session_id("../escape"));
        assert!(!valid_session_id(&"x".repeat(65)));
    }

    #[test]
    fn recover_id_from_partial_frames() {
        let recover = |line: &str| recover_payload_id(&FramePayload::Jsonl(line.to_owned()));
        assert_eq!(recover(r#"{"id":"r9","op":"Nonsense"}"#), "r9");
        assert_eq!(recover("not json at all"), "");
        assert_eq!(recover(r#"{"op":"Ping"}"#), "");
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "null",
            "[1,2,3]",
            r#"{"id":"a","session":"s","op":{"Propose":{"state":"nope"}}}"#,
            r#"{"id":"a","session":"s"}"#,
            // The full session's open op and the batch scoring op are gone.
            r#"{"id":"a","session":"s","op":{"Open":{"config":{"pitch_um":30,"budget":0,"cache_capacity":8}}}}"#,
            r#"{"id":"a","session":"s","op":{"Evaluate":{"states":[{"chip":[600,400],"segments":[]}]}}}"#,
        ] {
            assert!(parse_line(bad).is_err(), "frame {bad:?} must not parse");
        }
    }
}
