//! `irgrid-fleet` — a deterministic multi-replica annealing orchestrator.
//!
//! The DATE 2004 paper's results come from batches of independently
//! seeded annealing runs ("every test case is performed 20 times using
//! different random number generator seeds"). This crate turns that
//! protocol into a supervised subsystem: a fixed-size worker pool over
//! [`std::thread::scope`] runs many replicas of one
//! [`Problem`](irgrid_anneal::Problem) concurrently, with per-replica
//! checkpoints, propagated cancellation and deadlines, crash recovery
//! from a single atomic manifest, and a deterministic JSONL telemetry
//! stream.
//!
//! # Determinism contract
//!
//! For a fixed [`FleetConfig`] and problem, the fleet's outcome — best
//! state, best cost, exchange trace, and the full telemetry event
//! sequence — is **bit-identical** for any worker count and across any
//! pause/kill + resume cycle. Three disciplines make that true:
//!
//! 1. **Pure segments.** Replicas advance in rounds of
//!    [`FleetConfig::sync_every`] temperature steps via
//!    [`RunControl::with_step_budget`](irgrid_anneal::RunControl::with_step_budget);
//!    a segment's output is a pure function of its input checkpoint, so
//!    it does not matter which worker runs it or when.
//! 2. **A dedicated exchange RNG.** Temperature-ladder exchange decisions
//!    ([`ExchangeMode::Ladder`]) happen on the supervisor thread at round
//!    barriers, in fixed replica order, driven by their own
//!    [`ChaCha8Rng`](rand_chacha::ChaCha8Rng) stream — never by worker
//!    timing.
//! 3. **Supervisor-ordered effects.** Telemetry events and persistence
//!    are emitted by the supervisor in replica order at round boundaries;
//!    workers never write shared state except their own result slot.
//!
//! # Problem factories
//!
//! The supervisor is generic over a *problem factory* `Fn() -> P` called
//! once per worker: problems with interior scratch (such as
//! `FloorplanProblem`'s delta-path state) are not `Sync`, so
//! every worker builds its own instance. Factories must produce
//! **cost-identical** problems — the same state must score the same cost
//! bits in every instance — which holds for any deterministic
//! construction (the floorplanner's calibration walk is seeded).
//!
//! # Quickstart
//!
//! ```
//! use irgrid_anneal::{Annealer, Problem, Schedule};
//! use irgrid_fleet::{ExchangeMode, Fleet, FleetConfig, FleetOptions};
//! use rand::Rng;
//!
//! struct Bowl;
//! impl Problem for Bowl {
//!     type State = i64;
//!     fn initial_state(&self) -> i64 { 1000 }
//!     fn cost(&self, s: &i64) -> f64 { ((s - 7) * (s - 7)) as f64 }
//!     fn perturb<R: Rng>(&self, s: &mut i64, rng: &mut R) {
//!         *s += rng.gen_range(-10..=10);
//!     }
//! }
//!
//! let fleet = Fleet::new(
//!     Annealer::new(Schedule::quick()),
//!     FleetConfig {
//!         replicas: 4,
//!         workers: 2,
//!         mode: ExchangeMode::Ladder,
//!         ..FleetConfig::default()
//!     },
//! )?;
//! let outcome = fleet.run(|| Bowl, &FleetOptions::default())?;
//! assert!(outcome.complete);
//! assert!((outcome.best - 7).abs() <= 2);
//! # Ok::<(), irgrid_fleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod exchange;
mod manifest;
pub mod pool;
mod replica;
mod supervisor;
mod telemetry;

pub use config::{ExchangeMode, FleetConfig, FleetError};
pub use exchange::ExchangeDecision;
pub use manifest::{state_digest, FleetManifest, MANIFEST_FILE, MANIFEST_VERSION, TELEMETRY_FILE};
pub use replica::{ReplicaPhase, ReplicaRecord, SegmentOutcome};
pub use supervisor::{Fleet, FleetOptions, FleetOutcome, ReplicaSummary};
pub use telemetry::{FleetEvent, TelemetryLog};
