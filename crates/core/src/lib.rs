//! Probabilistic congestion models for floorplanning — a reproduction of
//! *“A New Effective Congestion Model in Floorplan Design”* (Hsieh &
//! Hsieh, DATE 2004).
//!
//! Two models estimate where routing will congest a floorplan, both based
//! on counting the shortest monotone Manhattan routes of each 2-pin net:
//!
//! * [`FixedGridModel`] — the prior art (§3, after Lou et al. and
//!   Sham & Young): a uniform evaluation grid; one probability per grid
//!   cell per net. With a 10 µm pitch it doubles as the paper's
//!   **judging model**.
//! * [`IrregularGridModel`] — the paper's contribution (§4): the chip is
//!   partitioned by the cutting lines induced by the nets' routing
//!   ranges; each *IR-grid* is scored with one constant-time evaluation
//!   (Theorem 1 normal approximation, integrated in closed form and
//!   summed in exact fixed point), concentrating effort where routing
//!   ranges overlap.
//!
//! # Examples
//!
//! Scoring a floorplan's 2-pin segments with both models:
//!
//! ```
//! use irgrid_core::{CongestionModel, FixedGridModel, IrregularGridModel};
//! use irgrid_geom::{Point, Rect, Um};
//!
//! let chip = Rect::from_origin_size(Point::ORIGIN, Um(600), Um(600));
//! let segments = vec![
//!     (Point::new(Um(30), Um(30)), Point::new(Um(540), Um(540))),
//!     (Point::new(Um(30), Um(540)), Point::new(Um(540), Um(30))),
//! ];
//! let fixed = FixedGridModel::new(Um(30)).evaluate(&chip, &segments);
//! let irregular = IrregularGridModel::new(Um(30)).evaluate(&chip, &segments);
//! assert!(fixed > 0.0 && irregular > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod edit;
pub mod theory;

mod fixed;
mod grid;
pub mod irregular;
mod lz;
mod map;
pub mod num;
mod routing;
pub mod score;

pub use fixed::{CellArithmetic, FixedGridModel};
pub use grid::UnitGrid;
pub use irregular::{
    ApproxConfig, Evaluator, IrCongestionMap, IrDeltaEvaluator, IrregularGridModel, WorkCounters,
};
pub use lz::LzShapeModel;
pub use map::UnitGridMap;
pub use routing::{NetType, RoutingRange};

use irgrid_geom::{Point, Rect};

/// A congestion estimator usable as a floorplanner cost term.
///
/// Implemented by both [`FixedGridModel`] and [`IrregularGridModel`];
/// the floorplanner (see the `irgrid` facade crate) is generic over it,
/// which is how the paper's Experiments 1–3 swap models. Kept
/// object-safe — reporting code compares `dyn CongestionModel`s.
pub trait CongestionModel {
    /// Scores a floorplan: `chip` is the packed bounding box (lower-left
    /// at the origin), `segments` the MST-decomposed 2-pin nets. Higher
    /// is more congested.
    fn evaluate(&self, chip: &Rect, segments: &[(Point, Point)]) -> f64;

    /// A human-readable model name for reports.
    fn name(&self) -> String;
}

/// A congestion model whose estimate is a spatial *picture*, not just a
/// scalar score: the per-cell values on the chip's unit grid at the
/// model's pitch.
///
/// This is the contract the `repro compare-all` harness evaluates
/// against routed ground truth — per-cell correlation, scale-free MAE
/// and hotspot overlap all need the estimate resolved onto the same
/// grid the router reports usage on. Kept object-safe so harnesses can
/// hold a heterogeneous `Vec<Box<dyn SpatialCongestion>>` spanning the
/// probabilistic models and the structural predictors (`irgrid-models`).
pub trait SpatialCongestion: CongestionModel {
    /// The model's per-cell congestion estimate rasterized onto the
    /// unit grid of `chip` at the model's pitch, row-major. The raster
    /// dimensions equal `UnitGrid::new(chip, pitch)`'s `cols × rows`.
    fn raster(&self, chip: &Rect, segments: &[(Point, Point)]) -> analysis::Raster;
}

/// An incremental (delta) evaluation session minted by
/// [`DeltaCongestion`]: the session keeps the committed floorplan's
/// evaluation state alive and scores a *proposed* floorplan by updating
/// only what changed, with an accept/reject protocol matching a
/// simulated-annealing move loop.
///
/// # Protocol
///
/// `rebase` installs a floorplan as the committed state (full build).
/// Each move then calls `propose_edits` with the [`edit::Splice`]s that
/// turn the committed segment list into the proposal's, or `propose`
/// with the proposal's whole list, which diffs it against the committed
/// list in one linear pass and calls `propose_edits`. The caller follows
/// up with exactly one of `commit` (the proposal becomes the committed
/// state) or `undo` (the proposal is discarded; `undo` without a pending
/// proposal is a no-op returning the committed cost).
///
/// # Exactness
///
/// A proposal must be **bit-identical** to a from-scratch rebuild: for
/// any proposal, its cost (and the session's congestion totals) equal
/// what `rebase` on a *fresh* session would produce for the same list,
/// however the edits that led there were cut. Implementations achieve
/// this with integer (fixed-point) accumulation — see
/// [`num::quantize_probability`] — not with tolerances. A fresh `rebase`
/// is also what [`CongestionModel::evaluate`] computes, so the
/// incremental and one-shot scores are the same bits.
///
/// Object-safe so problem types can hold `Box<dyn DeltaCongestionSession>`
/// without growing extra generic parameters.
pub trait DeltaCongestionSession: std::fmt::Debug {
    /// Full build: installs `segments` on `chip` as the committed state
    /// and returns its cost. Discards any pending proposal.
    fn rebase(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64;

    /// The committed segment list (empty before the first `rebase` or
    /// `commit`): the list `propose_edits`'s splices index.
    fn committed_segments(&self) -> &[(Point, Point)];

    /// Scores the committed segment list with `edits` applied, on
    /// `chip`, incrementally against the committed state, and returns
    /// the proposal's cost. Replaces any pending proposal; does not
    /// change the committed state.
    ///
    /// # Panics
    ///
    /// Panics if the edits do not fit the committed list (see
    /// [`edit::check`]).
    fn propose_edits(&mut self, chip: &Rect, edits: &[edit::Splice<'_>]) -> f64;

    /// Scores a proposed floorplan given as its whole segment list: one
    /// linear [`edit::diff`] against the committed list, then
    /// [`propose_edits`](Self::propose_edits).
    fn propose(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        let edits = edit::diff(self.committed_segments(), segments);
        self.propose_edits(chip, &edits)
    }

    /// Promotes the pending proposal to committed state (no-op when no
    /// proposal is pending).
    fn commit(&mut self);

    /// Discards the pending proposal and returns the committed cost.
    fn undo(&mut self) -> f64;
}

/// A congestion model that can mint incremental [`DeltaCongestionSession`]s.
///
/// The floorplanner's delta move path requires this bound; its
/// full-evaluation path works with any [`CongestionModel`].
pub trait DeltaCongestion: CongestionModel {
    /// The delta session type this model mints. `'static` so sessions
    /// can live behind `Box<dyn DeltaCongestionSession>`.
    type DeltaSession: DeltaCongestionSession + 'static;

    /// Creates a fresh delta session with no committed state (the first
    /// `rebase` or `propose` performs a full build).
    fn delta_session(&self) -> Self::DeltaSession;
}

/// A trivial [`DeltaCongestionSession`] for models without incremental
/// state: every proposal applies its edits to a copy of the committed
/// list and runs a full [`CongestionModel::evaluate`], and `undo`
/// replays the remembered committed cost. Exactness is immediate — the
/// "incremental" path *is* the from-scratch path.
#[derive(Debug, Clone)]
pub struct StatelessDeltaSession<M> {
    model: M,
    committed: Vec<(Point, Point)>,
    committed_cost: f64,
    /// The pending proposal's list and cost.
    proposed: Vec<(Point, Point)>,
    proposed_cost: Option<f64>,
}

impl<M: CongestionModel> StatelessDeltaSession<M> {
    /// Wraps a model (usually a cheap copy of it).
    pub fn new(model: M) -> StatelessDeltaSession<M> {
        StatelessDeltaSession {
            model,
            committed: Vec::new(),
            committed_cost: 0.0,
            proposed: Vec::new(),
            proposed_cost: None,
        }
    }
}

impl<M: CongestionModel + std::fmt::Debug> DeltaCongestionSession for StatelessDeltaSession<M> {
    fn rebase(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.committed.clear();
        self.committed.extend_from_slice(segments);
        self.committed_cost = self.model.evaluate(chip, segments);
        self.proposed_cost = None;
        self.committed_cost
    }

    fn committed_segments(&self) -> &[(Point, Point)] {
        &self.committed
    }

    fn propose_edits(&mut self, chip: &Rect, edits: &[edit::Splice<'_>]) -> f64 {
        self.proposed.clone_from(&self.committed);
        let applied = edit::apply(&mut self.proposed, edits);
        assert!(
            applied.is_ok(),
            "proposed edits do not fit the committed list: {applied:?}"
        );
        let cost = self.model.evaluate(chip, &self.proposed);
        self.proposed_cost = Some(cost);
        cost
    }

    fn commit(&mut self) {
        if let Some(cost) = self.proposed_cost.take() {
            std::mem::swap(&mut self.committed, &mut self.proposed);
            self.committed_cost = cost;
        }
    }

    fn undo(&mut self) -> f64 {
        self.proposed_cost = None;
        self.committed_cost
    }
}
