//! A seeded simulated-annealing engine.
//!
//! The DATE 2004 paper's floorplanner is "based on simulated annealing
//! algorithm with normalized Polish expression" (§5). This crate provides
//! the annealing half: a generic engine with the classic geometric cooling
//! schedule, an adaptive initial temperature derived from the average
//! uphill move (Wong–Liu style), and — crucially for the paper's
//! Experiment 2 — a per-temperature snapshot log of the locally optimized
//! intermediate solutions.
//!
//! # Examples
//!
//! Annealing a toy one-dimensional problem, which has only a full cost
//! and so runs through the [`FullCostDelta`] adapter:
//!
//! ```
//! use irgrid_anneal::{Annealer, FullCostDelta, Problem, RunOptions, Schedule};
//! use rand::Rng;
//!
//! struct Parabola;
//!
//! impl Problem for Parabola {
//!     type State = f64;
//!     fn initial_state(&self) -> f64 {
//!         100.0
//!     }
//!     fn cost(&self, s: &f64) -> f64 {
//!         (s - 3.0) * (s - 3.0)
//!     }
//!     fn perturb<R: Rng>(&self, s: &mut f64, rng: &mut R) {
//!         *s += rng.gen_range(-1.0..1.0);
//!     }
//! }
//!
//! let annealer = Annealer::new(Schedule::default());
//! let result = annealer.run(&FullCostDelta::new(&Parabola), 42, RunOptions::default())?;
//! assert!((result.best - 3.0).abs() < 1.0);
//! # Ok::<(), irgrid_anneal::AnnealError>(())
//! ```
//!
//! # One loop
//!
//! [`Annealer::run`] is the only entry point, and it drives the
//! incremental [`DeltaProblem`] move protocol: per move one `propose`,
//! then `commit` or `undo`. Problems that can re-evaluate cost in
//! O(changed components) implement [`DeltaProblem`] themselves; any other
//! [`Problem`] runs through [`FullCostDelta`], whose `propose` is a
//! clone, a perturbation and a full cost.
//!
//! # Fault tolerance
//!
//! Long runs can be made interruptible and restartable through
//! [`RunOptions`]:
//!
//! * [`RunOptions::control`] carries a [`RunControl`] with a wall-clock
//!   deadline, a [`CancelToken`], and/or move and step budgets; the
//!   partial result reports *why* it stopped via [`StopReason`].
//! * [`RunOptions::checkpoints`] receives a serializable [`Checkpoint`]
//!   on a configurable cadence, and [`RunOptions::resume`] continues from
//!   one **bit-identically** — same best state, cost, and statistics as
//!   the uninterrupted run.
//! * Non-finite costs are surfaced as typed [`AnnealError`]s (at startup)
//!   or a graceful [`StopReason::CostError`] (mid-run) instead of
//!   corrupting the best state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod control;
mod engine;
mod schedule;

pub use checkpoint::{
    staging_path, sync_dir, write_atomic, Checkpoint, CheckpointIoError, FORMAT_VERSION,
};
pub use control::{AnnealError, CancelToken, RunControl, StopReason};
pub use engine::{
    AnnealResult, AnnealStats, Annealer, DeltaProblem, FullCostDelta, Problem, RunOptions,
    TemperatureSnapshot,
};
pub use schedule::{Schedule, ScheduleError};
