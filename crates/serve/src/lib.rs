//! `irgrid-serve` — a fault-tolerant congestion-evaluation daemon.
//!
//! The annealing stack scores floorplans in-process; this crate turns the
//! same evaluation engine into a long-running service: concurrent
//! clients hold named sessions, each wrapping the irregular-grid model
//! (or, for delta sessions, a warm
//! [`IrDeltaEvaluator`](irgrid_core::IrDeltaEvaluator)) plus a score
//! cache, and drive it with JSONL (or negotiated length-prefixed
//! binary, [`frame`]) request frames over a Unix (or TCP) socket.
//!
//! Two session kinds share one session table: `Open` sessions score
//! independent batches with `IrregularGridModel::evaluate`, and `OpenDelta`
//! sessions ([`delta`]) hold a session-resident incremental evaluator
//! driven move-by-move with `Propose`/`Commit`/`Undo` — the daemon-side
//! mirror of the annealer's inner loop, bit-identical to a full rebuild
//! by construction.
//!
//! The design goal is *robustness you can prove*, not raw throughput:
//!
//! - **Crash consistency.** Every session mutation is persisted with the
//!   workspace's tmp+fsync+rename discipline before the client sees the
//!   response; a killed daemon resumes every session bit-identically
//!   ([`store`], [`session`]).
//! - **Idempotent retries.** `Evaluate` responses are recorded in a
//!   bounded per-session ring keyed by request id and batch digest, so a
//!   client that resends after any retryable failure converges on the
//!   same final state as an uninterrupted run ([`manager`]).
//! - **Bounded everything.** Frames, batches, sessions, and connections
//!   all have hard limits with explicit typed refusals — backpressure is
//!   visible, queues never grow without bound ([`protocol::Limits`]).
//! - **Graceful degradation.** Under load the scoring model steps down
//!   the ladder irregular-grid → L/Z-shape → fixed-grid, flagged
//!   `degraded: true`, before load sheds as `Backpressure`
//!   ([`manager::DegradePolicy`]).
//! - **Deterministic chaos.** A seeded fault injector ([`chaos`])
//!   exercises every persistence boundary with I/O errors, torn writes,
//!   and simulated kills — replayable byte for byte from its seed, and
//!   enabled only by `--chaos` or the test API.
//!
//! Everything below the socket layer is clock-free: wall time lives only
//! in [`server`] (timeouts) and [`client`] (retry backoff), which keeps
//! the evaluation path inside the workspace's determinism lint scope.
//!
//! See DESIGN.md §3e for the architecture and protocol grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod delta;
pub mod frame;
pub mod manager;
pub mod protocol;
pub mod server;
pub mod session;
pub mod store;

pub use cache::SharedScoreCache;
pub use chaos::{Chaos, ChaosConfig};
pub use client::{Client, ClientError};
pub use delta::{DeltaSession, DeltaSessionState, DELTA_MODEL_NAME};
pub use frame::{FrameCodec, BINARY_MAGIC};
pub use manager::{DegradePolicy, SessionManager};
pub use protocol::{
    ErrorKind, EvalResult, FloorplanState, Limits, Request, RequestOp, Response, ResponsePayload,
    SessionConfig, SessionStat, PROTOCOL_VERSION,
};
pub use server::{serve, ServerHandle, ServerOptions, Transport};
pub use store::{KillSwitch, SnapshotStore, StoreError};
