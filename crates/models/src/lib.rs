//! Structural congestion predictors — the cheap baselines the
//! probabilistic models are judged against.
//!
//! The probabilistic models in [`irgrid_core`] count monotone routes;
//! the predictors here never look at routes at all. Each one maps a
//! *structural* property of the placed netlist — where the pins are, how
//! large the net bounding boxes are, how Rent's rule says demand scales
//! with pin count — onto the unit grid and scores the floorplan with the
//! same top-10 % rule the paper uses. They are the classic early-stage
//! estimators an industrial flow runs first, and the baselines the
//! paper's Table 2/3 claim ("a route-counting model predicts routed
//! congestion better") must beat to mean anything. The
//! `repro compare-all` harness judges every one of them against routed
//! ground truth.
//!
//! All five implement [`CongestionModel`] (scalar score, usable as a
//! floorplanner cost term) and [`SpatialCongestion`] (per-cell raster,
//! usable for map-level validation):
//!
//! * [`PinDensityModel`] — pins per grid cell;
//! * [`NetDemandModel`] — one unit of wiring demand per net, spread
//!   uniformly over its bounding box;
//! * [`WeightedNetDemandModel`] — like net demand, but each net carries
//!   its expected L-route wirelength (the RUDY estimator of Spindler &
//!   Johannes);
//! * [`RentDemandModel`] — per-cell pin counts mapped through a Rent's
//!   rule power law;
//! * [`SpanDemandModel`] — per-axis track demand: a net needs one
//!   horizontal track somewhere in its row span and one vertical track
//!   somewhere in its column span.
//!
//! Each predictor fills one [`irgrid_core::UnitGridMap`], the map the
//! fixed-grid and L/Z models fill too, and scores it with
//! [`irgrid_core::score::TOP_FRACTION`]. Every predictor is deterministic
//! (pure functions of `(chip, segments)`, fixed iteration order, no wall
//! clock, no hashing) and allocation-disciplined: one map-sized buffer
//! per evaluation, nothing per segment.
//!
//! # Examples
//!
//! ```
//! use irgrid_core::{CongestionModel, SpatialCongestion};
//! use irgrid_geom::{Point, Rect, Um};
//! use irgrid_models::{NetDemandModel, PinDensityModel};
//!
//! let chip = Rect::from_origin_size(Point::ORIGIN, Um(300), Um(300));
//! let segments = vec![(Point::new(Um(15), Um(15)), Point::new(Um(255), Um(255)))];
//! let pins = PinDensityModel::new(Um(30));
//! assert!(pins.evaluate(&chip, &segments) > 0.0);
//! let demand = NetDemandModel::new(Um(30)).raster(&chip, &segments);
//! assert_eq!((demand.cols(), demand.rows()), (10, 10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod net_demand;
mod pin_density;
mod rent;
mod span;

pub use net_demand::{NetDemandModel, WeightedNetDemandModel};
pub use pin_density::PinDensityModel;
pub use rent::RentDemandModel;
pub use span::SpanDemandModel;

// Re-exported so downstream code can bound generics on the traits the
// predictors implement without a separate irgrid-core dependency.
pub use irgrid_core::{CongestionModel, SpatialCongestion};
