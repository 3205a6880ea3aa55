//! `irgrid-serve` — a fault-tolerant congestion-evaluation daemon.
//!
//! The annealing stack scores floorplans in-process; this crate turns the
//! same evaluation engine into a long-running service: concurrent
//! clients hold named sessions and drive them with JSONL (or negotiated
//! length-prefixed binary, [`frame`]) request frames over a Unix (or TCP)
//! socket.
//!
//! There is one session kind ([`session`]), opened with `OpenDelta`. It
//! holds a warm session-resident
//! [`IrDeltaEvaluator`](irgrid_core::IrDeltaEvaluator) driven
//! move-by-move with `Propose`/`Commit`/`Undo` — the daemon-side mirror of
//! the annealer's inner loop, bit-identical to a full rebuild by
//! construction. `Propose` is the one scoring op: followed by `Undo` it
//! is a read-only score. Every request is scored afresh; the daemon
//! keeps no score cache (DESIGN.md §3g says why).
//!
//! The design goal is *robustness you can prove*, not raw throughput:
//!
//! - **Crash consistency.** Every commit is durable before the client
//!   sees the response: one checksummed record appended to the session's
//!   commit log and fsynced, or, when the log would outgrow the snapshot,
//!   the whole snapshot rewritten with the workspace's
//!   tmp+fsync+rename discipline. A killed daemon resumes every session
//!   bit-identically ([`store`], [`session`]).
//! - **Idempotent retries.** `Commit` acks are recorded in a bounded
//!   per-session ring keyed by request id and digest, and every other op
//!   is read-only or pure, so a client that resends after any retryable
//!   failure converges on the same final state as an uninterrupted run
//!   ([`manager`]).
//! - **Bounded everything.** Frames, states, sessions, and connections
//!   all have hard limits with explicit typed refusals — backpressure is
//!   visible, queues never grow without bound ([`protocol::Limits`]).
//! - **Load shedding.** Every served score comes from the
//!   irregular-grid engine; past a threshold of in-flight `Propose`
//!   requests the daemon refuses work with retryable `Backpressure`
//!   instead of queueing it ([`manager::DegradePolicy`]).
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

pub mod chaos;
pub mod client;
pub mod frame;
pub mod manager;
pub mod protocol;
pub mod server;
pub mod session;
pub mod store;

pub use chaos::{Chaos, ChaosConfig};
pub use client::{Client, ClientError};
pub use frame::{FrameCodec, BINARY_MAGIC};
pub use manager::{DegradePolicy, SessionManager};
pub use protocol::{
    ErrorKind, FloorplanState, Limits, Request, RequestOp, Response, ResponsePayload,
    SessionConfig, SessionStat,
};
pub use server::{serve, ServerHandle, ServerOptions, Transport};
pub use session::{Session, SessionState};
pub use store::{KillSwitch, SnapshotStore, StoreError};
