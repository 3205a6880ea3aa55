//! Slicing floorplans for the `irgrid` workspace.
//!
//! The DATE 2004 paper embeds its congestion model in "a floorplanner
//! based on simulated annealing algorithm with normalized Polish
//! expression" — the classic Wong–Liu formulation (DAC 1986). This crate
//! provides that substrate:
//!
//! * [`PolishExpr`] — normalized Polish expressions with the balloting
//!   invariant and the three Wong–Liu perturbation moves (M1/M2/M3);
//! * [`pack`](fn@pack) — slicing-tree packing with 90° module rotation via
//!   Stockmeyer-style shape lists, producing a [`Placement`];
//! * [`PinPlacer`] — the intersection-to-intersection pin placement of
//!   Sham & Young (ISPD 2002), which the paper reuses: pins sit on module
//!   boundaries at routing-grid intersections;
//! * wirelength — total Manhattan MST length over all nets (§5).
//!
//! # Examples
//!
//! ```
//! use irgrid_floorplan::{pack, PolishExpr};
//! use irgrid_netlist::mcnc::McncCircuit;
//!
//! let circuit = McncCircuit::Apte.circuit();
//! let expr = PolishExpr::initial(circuit.modules().len());
//! let placement = pack(&expr, &circuit);
//! // Every module fits in the chip and none overlap.
//! assert!(placement.chip().area() >= circuit.total_module_area());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pack;
mod pins;
mod placement;
mod polish;
mod repr;
mod seqpair;
mod wire;

pub use pack::pack;
pub use pins::PinPlacer;
pub use placement::Placement;
pub use polish::{Cut, Element, Move, PolishExpr};
pub use repr::FloorplanRepr;
pub use seqpair::SequencePair;
pub use wire::{
    net_pins, net_segments, segments_wirelength, total_wirelength, two_pin_segments,
    two_pin_segments_with, Decomposition, NetScratch,
};
