//! `irgrid` — the Irregular-Grid floorplan congestion model (DATE 2004)
//! and the complete floorplanning stack it is evaluated in.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`geom`] — micron geometry ([`irgrid_geom`]);
//! * [`netlist`] — circuits, benchmarks, MST decomposition
//!   ([`irgrid_netlist`]);
//! * [`floorplan`] — normalized Polish expressions, packing, pins,
//!   wirelength ([`irgrid_floorplan`]);
//! * [`anneal`] — the simulated-annealing engine ([`irgrid_anneal`]);
//! * [`fleet`] — deterministic multi-replica annealing orchestration
//!   ([`irgrid_fleet`]);
//! * [`congestion`] — the fixed-grid baseline and the Irregular-Grid
//!   model ([`irgrid_core`]);
//! * [`models`] — structural congestion predictors: pin density, net
//!   demand, Rent's rule, span demand ([`irgrid_models`]);
//! * [`serve`] — the fault-tolerant congestion-evaluation daemon
//!   ([`irgrid_serve`]);
//! * [`floorplanner`] — the composition: a routability-driven annealing
//!   floorplanner with cost `α·Area + β·Wire + γ·Congestion` (§5 of the
//!   paper).
//!
//! # Quickstart
//!
//! Optimize a benchmark floorplan with congestion in the loop and judge
//! the result with the paper's 10 µm fixed-grid judging model:
//!
//! ```
//! use irgrid::congestion::{CongestionModel, FixedGridModel, IrregularGridModel};
//! use irgrid::floorplanner::{FloorplanProblem, Weights};
//! use irgrid::anneal::{Annealer, RunOptions, Schedule};
//! use irgrid::geom::Um;
//! use irgrid::netlist::generator::CircuitGenerator;
//!
//! let circuit = CircuitGenerator::new("demo", 8, 20).seed(1).generate()?;
//! let problem = FloorplanProblem::new(
//!     &circuit,
//!     Um(30),
//!     Weights::balanced(),
//!     Some(IrregularGridModel::new(Um(30))),
//! );
//! let result = Annealer::new(Schedule::quick()).run(&problem, 7, RunOptions::default())?;
//! let eval = problem.evaluate(&result.best);
//! assert!(eval.placement.check_consistency().is_none());
//!
//! // Judge with the reference model.
//! let judging = FixedGridModel::judging();
//! let judged = judging.evaluate(&eval.placement.chip(), &eval.segments);
//! assert!(judged >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Incremental evaluation
//!
//! [`Annealer::run`](anneal::Annealer::run) drives the incremental move
//! protocol: the [`FloorplanProblem`](floorplanner::FloorplanProblem)
//! re-evaluates only the nets each move touched, and the Irregular-Grid
//! model scores them through its exact fixed-point delta session
//! ([`congestion::IrDeltaEvaluator`], wired in via
//! [`congestion::DeltaCongestion`]), with results that are bit-identical
//! to from-scratch evaluation of every visited floorplan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod floorplanner;
pub mod viz;

/// Micron geometry primitives (re-export of [`irgrid_geom`]).
pub mod geom {
    pub use irgrid_geom::*;
}

/// Circuits, benchmarks and MST decomposition (re-export of
/// [`irgrid_netlist`]).
pub mod netlist {
    pub use irgrid_netlist::*;
}

/// Slicing floorplans (re-export of [`irgrid_floorplan`]).
pub mod floorplan {
    pub use irgrid_floorplan::*;
}

/// Simulated annealing (re-export of [`irgrid_anneal`]).
pub mod anneal {
    pub use irgrid_anneal::*;
}

/// Deterministic multi-replica annealing orchestration (re-export of
/// [`irgrid_fleet`]): worker pools, temperature-ladder exchange, crash
/// recovery, and run telemetry. The per-worker problem factory is a
/// closure that builds a [`floorplanner::FloorplanProblem`] from the
/// same inputs on every call.
pub mod fleet {
    pub use irgrid_fleet::*;
}

/// Congestion models (re-export of [`irgrid_core`]).
pub mod congestion {
    pub use irgrid_core::*;
}

/// Structural congestion predictors — pin density, standard/weighted
/// net demand, Rent's-rule demand, span demand (re-export of
/// [`irgrid_models`]): the cheap baselines the `repro compare-all`
/// harness races against the probabilistic models and routed ground
/// truth.
pub mod models {
    pub use irgrid_models::*;
}

/// The capacitated global router used as validation ground truth
/// (re-export of [`irgrid_route`]).
pub mod route {
    pub use irgrid_route::*;
}

/// The fault-tolerant congestion-evaluation daemon and its JSONL client
/// (re-export of [`irgrid_serve`]): concurrent sessions over a
/// Unix or TCP socket with checkpointing, idempotent retries, load
/// shedding, and deterministic fault injection.
pub mod serve {
    pub use irgrid_serve::*;
}
