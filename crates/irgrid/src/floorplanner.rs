//! The routability-driven annealing floorplanner (§5).
//!
//! The paper's experimental floorplanner minimizes
//! `α·Area + β·Wirelength + γ·Congestion` over normalized Polish
//! expressions by simulated annealing. [`FloorplanProblem`] wires the
//! workspace pieces together: packing, intersection-to-intersection pin
//! placement, MST decomposition, and a pluggable [`CongestionModel`].
//!
//! Objective terms are normalized by random-walk averages sampled at
//! construction, so the weights express *relative* importance regardless
//! of circuit scale — without this, area (µm², ~10⁷) would drown
//! congestion (~10⁻¹).

use irgrid_anneal::{DeltaProblem, Problem};
use irgrid_core::edit::Splice;
use irgrid_core::{CongestionModel, DeltaCongestion, DeltaCongestionSession};
use std::cell::RefCell;
use std::fmt;

use irgrid_floorplan::{
    segments_wirelength, two_pin_segments, Decomposition, FloorplanRepr, NetScratch, PinPlacer,
    Placement, PolishExpr,
};
use irgrid_geom::{Point, Um};
use irgrid_netlist::Circuit;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Objective weights `(α, β, γ)` for area, wirelength and congestion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Area weight α.
    pub area: f64,
    /// Wirelength weight β.
    pub wire: f64,
    /// Congestion weight γ.
    pub congestion: f64,
}

impl Weights {
    /// Equal weight on all three objectives — used by the paper's
    /// Experiment 1 congestion-aware floorplanner.
    #[must_use]
    pub fn balanced() -> Weights {
        Weights {
            area: 1.0,
            wire: 1.0,
            congestion: 1.0,
        }
    }

    /// Area + wirelength only (γ = 0) — the paper's Experiment 1
    /// baseline floorplanner.
    #[must_use]
    pub fn area_wire() -> Weights {
        Weights {
            area: 1.0,
            wire: 1.0,
            congestion: 0.0,
        }
    }

    /// The calibrated routability mix used to reproduce Table 2:
    /// `(1, 1, 0.5)`. The paper does not state its α/β/γ; with the
    /// random-walk normalization used here, γ = 0.5 reproduces the
    /// paper's trade-off character (substantial judged-congestion
    /// reduction at a modest area/wire penalty) — see the calibration
    /// notes in EXPERIMENTS.md.
    #[must_use]
    pub fn routability() -> Weights {
        Weights {
            area: 1.0,
            wire: 1.0,
            congestion: 0.5,
        }
    }

    /// Congestion only — the paper's Experiments 2 and 3.
    #[must_use]
    pub fn congestion_only() -> Weights {
        Weights {
            area: 0.0,
            wire: 0.0,
            congestion: 1.0,
        }
    }
}

/// A typed error constructing a [`FloorplanProblem`].
///
/// Returned by [`FloorplanProblem::try_new`]; the panicking constructors
/// format these into their messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FloorplanError {
    /// The pin/congestion grid pitch is not positive.
    NonPositivePitch(Um),
    /// A weight is negative (or NaN).
    NegativeWeights(Weights),
    /// An objective came back non-finite during the calibration walk —
    /// annealing over it would silently corrupt costs.
    NonFiniteCalibration {
        /// Which objective misbehaved: `"area"`, `"wirelength"`, or
        /// `"congestion"`.
        objective: &'static str,
        /// The non-finite average observed.
        value: f64,
    },
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::NonPositivePitch(pitch) => {
                write!(f, "grid pitch must be positive, got {pitch}")
            }
            FloorplanError::NegativeWeights(weights) => {
                write!(f, "weights must be non-negative, got {weights:?}")
            }
            FloorplanError::NonFiniteCalibration { objective, value } => write!(
                f,
                "calibration walk produced a non-finite {objective} average ({value})"
            ),
        }
    }
}

impl std::error::Error for FloorplanError {}

/// A full evaluation of one floorplan candidate.
#[derive(Debug, Clone)]
pub struct FloorplanEval {
    /// The packed placement.
    pub placement: Placement,
    /// The MST-decomposed 2-pin segments (input to congestion models).
    pub segments: Vec<(Point, Point)>,
    /// Chip area in µm².
    pub area_um2: f64,
    /// Total wirelength in µm.
    pub wirelength_um: f64,
    /// The congestion model's score (0 when no model is attached).
    pub congestion: f64,
    /// The combined, normalized annealing cost.
    pub cost: f64,
}

/// The annealing problem: a circuit plus objective configuration.
///
/// See the [crate-level quickstart](crate) for an end-to-end example.
#[derive(Debug)]
pub struct FloorplanProblem<'c, M: CongestionModel, R = PolishExpr> {
    circuit: &'c Circuit,
    placer: PinPlacer,
    weights: Weights,
    congestion: Option<M>,
    /// Retained state of the incremental ([`DeltaProblem`]) evaluation
    /// path; `None` until the first `rebase`. Boxed dynamically so the
    /// struct does not need `M: DeltaCongestion` — the delta path is
    /// opt-in per model.
    delta: RefCell<Option<DeltaState<R>>>,
    area_scale: f64,
    wire_scale: f64,
    congestion_scale: f64,
}

/// Committed state of the incremental evaluation: the placed floorplan,
/// each net's wirelength and where its segments start, plus the
/// congestion model's retained delta session, which holds the segments.
/// `propose` applies a move eagerly, decomposes the changed nets into
/// `proposed` and records what it overwrote in `journal` and
/// `saved_nets`; `undo` plays them back. Every buffer here is reused
/// from move to move.
#[derive(Debug)]
struct DeltaState<R> {
    session: Option<Box<dyn DeltaCongestionSession>>,
    /// Module index → indices of the nets that pin it.
    module_nets: Vec<Vec<usize>>,
    /// Per-net dedup marks, all false between proposals.
    net_mark: Vec<bool>,
    /// Index of each net's first segment in the session's committed list,
    /// then the list's length: net `n` holds the segments from
    /// `net_start[n]` up to `net_start[n + 1]`. The list holds the nets'
    /// segments back to back in net order — the order
    /// [`two_pin_segments`] produces, so the session scores the list a
    /// from-scratch evaluation would.
    net_start: Vec<usize>,
    /// Per-net Manhattan wirelength; integer µm, so incremental updates
    /// are exact and order-independent.
    net_wire: Vec<Um>,
    wire_total: Um,
    placement: Placement,
    /// Pin-placement and Prim buffers shared by every re-decomposed net.
    scratch: NetScratch,
    /// The nets the pending move re-decomposes, ascending.
    changed_nets: Vec<usize>,
    /// The re-decomposed nets' new segments, back to back.
    proposed: Vec<(Point, Point)>,
    /// Per re-decomposed net of the pending move: `(net, old wirelength,
    /// end of its new segments in proposed)`.
    saved_nets: Vec<(usize, Um, usize)>,
    journal: Option<Journal<R>>,
}

/// What one `propose` overwrote besides the re-decomposed nets'
/// wirelengths, for exact rollback on `undo`.
#[derive(Debug)]
struct Journal<R> {
    prev_repr: R,
    prev_placement: Placement,
    prev_wire_total: Um,
}

impl<'c, M: CongestionModel> FloorplanProblem<'c, M, PolishExpr> {
    /// Creates a problem for `circuit` with pins and congestion evaluated
    /// at `pitch`, over normalized Polish expressions (the paper's
    /// slicing representation).
    ///
    /// Normalization scales are estimated from a short deterministic
    /// random walk (32 perturbations), so two problems over the same
    /// circuit have identical costs.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive or a weight is negative.
    #[must_use]
    pub fn new(
        circuit: &'c Circuit,
        pitch: Um,
        weights: Weights,
        congestion: Option<M>,
    ) -> FloorplanProblem<'c, M, PolishExpr> {
        FloorplanProblem::with_representation(circuit, pitch, weights, congestion)
    }

    /// Like [`FloorplanProblem::new`], but returns a typed
    /// [`FloorplanError`] instead of panicking on invalid parameters or a
    /// non-finite calibration.
    pub fn try_new(
        circuit: &'c Circuit,
        pitch: Um,
        weights: Weights,
        congestion: Option<M>,
    ) -> Result<FloorplanProblem<'c, M, PolishExpr>, FloorplanError> {
        FloorplanProblem::try_with_representation(circuit, pitch, weights, congestion)
    }
}

impl<'c, M: CongestionModel, R: FloorplanRepr> FloorplanProblem<'c, M, R> {
    /// Creates a problem over an arbitrary floorplan representation
    /// (e.g. [`irgrid_floorplan::SequencePair`] for non-slicing
    /// floorplans).
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive or a weight is negative.
    #[must_use]
    pub fn with_representation(
        circuit: &'c Circuit,
        pitch: Um,
        weights: Weights,
        congestion: Option<M>,
    ) -> FloorplanProblem<'c, M, R> {
        match FloorplanProblem::try_with_representation(circuit, pitch, weights, congestion) {
            Ok(problem) => problem,
            // irgrid-lint: allow(P1): documented panicking wrapper; try_with_representation is the typed path
            Err(err) => panic!("{err}"),
        }
    }

    /// Like [`FloorplanProblem::with_representation`], but returns a typed
    /// [`FloorplanError`] instead of panicking on invalid parameters or a
    /// non-finite calibration.
    pub fn try_with_representation(
        circuit: &'c Circuit,
        pitch: Um,
        weights: Weights,
        congestion: Option<M>,
    ) -> Result<FloorplanProblem<'c, M, R>, FloorplanError> {
        if pitch <= Um::ZERO {
            return Err(FloorplanError::NonPositivePitch(pitch));
        }
        // `>= 0.0` also rejects NaN weights.
        if !(weights.area >= 0.0 && weights.wire >= 0.0 && weights.congestion >= 0.0) {
            return Err(FloorplanError::NegativeWeights(weights));
        }
        let mut problem = FloorplanProblem {
            circuit,
            placer: PinPlacer::new(pitch),
            weights,
            congestion,
            delta: RefCell::new(None),
            area_scale: 1.0,
            wire_scale: 1.0,
            congestion_scale: 1.0,
        };
        problem.calibrate()?;
        Ok(problem)
    }

    /// The circuit being floorplanned.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Samples a deterministic random walk to set the normalization
    /// scales to the average magnitude of each objective. A non-finite
    /// average (a NaN-producing congestion model, an overflowing
    /// wirelength) is reported instead of being baked into every
    /// subsequent cost.
    fn calibrate(&mut self) -> Result<(), FloorplanError> {
        const SAMPLES: usize = 32;
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_ca1b);
        let mut repr = R::initial(self.circuit.modules().len());
        let (mut area_sum, mut wire_sum, mut cgt_sum) = (0.0, 0.0, 0.0);
        for _ in 0..SAMPLES {
            repr.perturb(&mut rng);
            let eval = self.measure(&repr, self.weights.congestion > 0.0);
            area_sum += eval.area_um2;
            wire_sum += eval.wirelength_um;
            cgt_sum += eval.congestion;
        }
        let n = SAMPLES as f64;
        for (objective, sum) in [
            ("area", area_sum),
            ("wirelength", wire_sum),
            ("congestion", cgt_sum),
        ] {
            let value = sum / n;
            if !value.is_finite() {
                return Err(FloorplanError::NonFiniteCalibration { objective, value });
            }
        }
        self.area_scale = (area_sum / n).max(f64::MIN_POSITIVE);
        self.wire_scale = (wire_sum / n).max(f64::MIN_POSITIVE);
        self.congestion_scale = (cgt_sum / n).max(f64::MIN_POSITIVE);
        Ok(())
    }

    /// The single place → decompose → measure pipeline behind both the
    /// hot loop ([`Problem::cost`], `score_congestion` false when γ = 0)
    /// and the reporting path ([`FloorplanProblem::evaluate`], always
    /// scored) — one code path, so the two cannot drift.
    fn measure(&self, repr: &R, score_congestion: bool) -> FloorplanEval {
        let placement = repr.place(self.circuit);
        let segments = two_pin_segments(self.circuit, &placement, &self.placer);
        let area = placement.area().as_f64();
        let wire = segments_wirelength(&segments).as_f64();
        let congestion = match &self.congestion {
            Some(model) if score_congestion => model.evaluate(&placement.chip(), &segments),
            _ => 0.0,
        };
        let cost = self.combine(area, wire, congestion);
        FloorplanEval {
            placement,
            segments,
            area_um2: area,
            wirelength_um: wire,
            congestion,
            cost,
        }
    }

    /// Fully evaluates an expression, returning the placement and all
    /// objective values. Use this on the annealer's best state to report
    /// results; the annealing loop itself goes through [`Problem::cost`].
    #[must_use]
    pub fn evaluate(&self, repr: &R) -> FloorplanEval {
        self.measure(repr, true)
    }

    fn combine(&self, area: f64, wire: f64, congestion: f64) -> f64 {
        self.weights.area * area / self.area_scale
            + self.weights.wire * wire / self.wire_scale
            + self.weights.congestion * congestion / self.congestion_scale
    }
}

impl<'c, M: CongestionModel, R: FloorplanRepr> Problem for FloorplanProblem<'c, M, R> {
    type State = R;

    fn initial_state(&self) -> R {
        R::initial(self.circuit.modules().len())
    }

    /// Congestion is skipped (scored 0) when γ = 0 — it would not affect
    /// the cost.
    fn cost(&self, state: &R) -> f64 {
        self.measure(state, self.weights.congestion > 0.0).cost
    }

    fn perturb<G: rand::Rng>(&self, state: &mut R, rng: &mut G) {
        state.perturb(rng);
    }
}

impl<'c, M: DeltaCongestion, R: FloorplanRepr> FloorplanProblem<'c, M, R> {
    /// Recomputes one net's pins and segments against `placement`,
    /// appends the segments to `segments`, and returns the net's
    /// wirelength — the per-net unit of work both `rebase` (all nets) and
    /// `propose` (changed nets only) go through, so the two cannot drift.
    fn decompose_net(
        &self,
        net_index: usize,
        placement: &Placement,
        scratch: &mut NetScratch,
        segments: &mut Vec<(Point, Point)>,
    ) -> Um {
        let members = self.circuit.nets()[net_index]
            .pins()
            .iter()
            .map(|&m| placement.module_rect(m));
        scratch.decompose(members, &self.placer, Decomposition::Mst, segments)
    }

    /// The combined cost of the pending placement and wirelength, given
    /// its congestion score.
    fn delta_cost(&self, delta: &DeltaState<R>, congestion: f64) -> f64 {
        let area = delta.placement.area().as_f64();
        self.combine(area, delta.wire_total.as_f64(), congestion)
    }
}

/// The incremental evaluation path (§5 made fast): a move re-decomposes
/// only the nets pinned to modules whose placed rectangle changed, and
/// the congestion model's [`DeltaCongestionSession`] re-scores only the
/// routing ranges that moved. Available when the congestion model
/// implements [`DeltaCongestion`].
///
/// The delta cost is bit-identical to [`Problem::cost`] for any weights:
/// area and wirelength are exact integer sums on both paths, and the
/// session's `propose` equals the model's `evaluate` (a fresh `rebase`)
/// bit for bit.
impl<'c, M: DeltaCongestion, R: FloorplanRepr> DeltaProblem for FloorplanProblem<'c, M, R> {
    fn rebase(&self, state: &R) -> f64 {
        let placement = state.place(self.circuit);
        let nets = self.circuit.nets();
        let mut module_nets = vec![Vec::new(); self.circuit.modules().len()];
        for (n, net) in nets.iter().enumerate() {
            for &m in net.pins() {
                module_nets[m.index()].push(n);
            }
        }
        let session = match &self.congestion {
            Some(model) if self.weights.congestion > 0.0 => {
                Some(Box::new(model.delta_session()) as Box<dyn DeltaCongestionSession>)
            }
            _ => None,
        };
        let mut delta = DeltaState {
            session,
            module_nets,
            net_mark: vec![false; nets.len()],
            net_start: vec![0],
            net_wire: Vec::with_capacity(nets.len()),
            wire_total: Um::ZERO,
            placement,
            scratch: NetScratch::default(),
            changed_nets: Vec::new(),
            proposed: Vec::new(),
            saved_nets: Vec::new(),
            journal: None,
        };
        // Every net straight into the one list the session scores.
        let mut segments = Vec::new();
        for n in 0..nets.len() {
            let wire = self.decompose_net(n, &delta.placement, &mut delta.scratch, &mut segments);
            delta.wire_total += wire;
            delta.net_wire.push(wire);
            delta.net_start.push(segments.len());
        }
        let congestion = match delta.session.as_mut() {
            Some(session) => session.rebase(&delta.placement.chip(), &segments),
            None => 0.0,
        };
        let cost = self.delta_cost(&delta, congestion);
        *self.delta.borrow_mut() = Some(delta);
        cost
    }

    fn propose<G: rand::Rng>(&self, state: &mut R, rng: &mut G) -> f64 {
        if self.delta.borrow().is_none() {
            // Defensive: the engine rebases before the first propose, but
            // a hand-driven protocol might not.
            let _ = self.rebase(state);
        }
        let prev_repr = state.clone();
        state.perturb(rng);

        let mut guard = self.delta.borrow_mut();
        let Some(delta) = guard.as_mut() else {
            // Unreachable after the rebase above; a non-finite cost makes
            // the engine stop with `StopReason::CostError` rather than
            // anneal over garbage.
            return f64::NAN;
        };
        let placement = state.place(self.circuit);
        let changed = delta.placement.changed_modules(&placement);
        delta.changed_nets.clear();
        for &module in &changed {
            for &n in &delta.module_nets[module] {
                if !delta.net_mark[n] {
                    delta.net_mark[n] = true;
                    delta.changed_nets.push(n);
                }
            }
        }
        delta.changed_nets.sort_unstable();

        let prev_wire_total = delta.wire_total;
        let prev_placement = std::mem::replace(&mut delta.placement, placement);
        delta.proposed.clear();
        delta.saved_nets.clear();
        for &n in &delta.changed_nets {
            delta.net_mark[n] = false;
            let old_wire = delta.net_wire[n];
            let wire =
                self.decompose_net(n, &delta.placement, &mut delta.scratch, &mut delta.proposed);
            delta.saved_nets.push((n, old_wire, delta.proposed.len()));
            delta.net_wire[n] = wire;
            delta.wire_total += wire - old_wire;
        }

        // One splice per re-decomposed net whose segments changed, at
        // the net's place in the session's committed list.
        let congestion = match delta.session.as_mut() {
            Some(session) => {
                let committed = session.committed_segments();
                let mut edits = Vec::with_capacity(delta.saved_nets.len());
                let mut begin = 0;
                for &(n, _, end) in &delta.saved_nets {
                    let old = &committed[delta.net_start[n]..delta.net_start[n + 1]];
                    let new = &delta.proposed[begin..end];
                    if old != new {
                        edits.push(Splice {
                            start: delta.net_start[n],
                            remove: old.len(),
                            insert: new,
                        });
                    }
                    begin = end;
                }
                session.propose_edits(&delta.placement.chip(), &edits)
            }
            None => 0.0,
        };
        let cost = self.delta_cost(delta, congestion);
        delta.journal = Some(Journal {
            prev_repr,
            prev_placement,
            prev_wire_total,
        });
        cost
    }

    fn commit(&self) {
        let mut guard = self.delta.borrow_mut();
        let Some(delta) = guard.as_mut() else { return };
        if delta.journal.take().is_none() {
            return;
        }
        if let Some(session) = delta.session.as_mut() {
            session.commit();
        }
        // A net whose segment count changed moves the starts of every net
        // after it: recount from the first such net, each re-decomposed
        // net by its segments in `proposed`, every other by its old start.
        let mut begin = 0;
        let mut counts = delta
            .saved_nets
            .iter()
            .map(|&(n, _, end)| (n, end - std::mem::replace(&mut begin, end)))
            .peekable();
        let starts = &mut delta.net_start;
        while counts
            .next_if(|&(n, count)| starts[n + 1] - starts[n] == count)
            .is_some()
        {}
        let Some(&(first, _)) = counts.peek() else {
            return;
        };
        let mut old_start = starts[first];
        for n in first..starts.len() - 1 {
            let old_end = starts[n + 1];
            let count = counts
                .next_if(|&(changed, _)| changed == n)
                .map_or(old_end - old_start, |(_, count)| count);
            starts[n + 1] = starts[n] + count;
            old_start = old_end;
        }
    }

    fn undo(&self, state: &mut R) {
        let mut guard = self.delta.borrow_mut();
        let Some(delta) = guard.as_mut() else { return };
        let Some(journal) = delta.journal.take() else {
            return;
        };
        *state = journal.prev_repr;
        delta.placement = journal.prev_placement;
        delta.wire_total = journal.prev_wire_total;
        for &(n, wire, _) in &delta.saved_nets {
            delta.net_wire[n] = wire;
        }
        if let Some(session) = delta.session.as_mut() {
            let _ = session.undo();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid_anneal::{AnnealResult, Annealer, FullCostDelta, RunOptions, Schedule};
    use irgrid_core::{FixedGridModel, IrregularGridModel};
    use irgrid_netlist::generator::CircuitGenerator;

    fn anneal<P: DeltaProblem>(
        annealer: &Annealer,
        problem: &P,
        seed: u64,
    ) -> AnnealResult<P::State> {
        annealer
            .run(problem, seed, RunOptions::default())
            .expect("finite costs")
    }

    fn small_circuit() -> Circuit {
        CircuitGenerator::new("t", 8, 16)
            .total_area_um2(1.0e6)
            .seed(3)
            .generate()
            .expect("valid")
    }

    #[test]
    fn cost_is_normalized_near_weight_sum() {
        let circuit = small_circuit();
        let problem = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights::balanced(),
            Some(IrregularGridModel::new(Um(30))),
        );
        // The initial state's cost should be in the ballpark of the
        // random-walk average, i.e. around α + β + γ = 3.
        let cost = problem.cost(&problem.initial_state());
        assert!((0.5..6.0).contains(&cost), "cost {cost}");
    }

    #[test]
    fn annealing_improves_cost() {
        let circuit = small_circuit();
        let problem = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights::area_wire(),
            None::<FixedGridModel>,
        );
        let initial_cost = problem.cost(&problem.initial_state());
        let result = anneal(&Annealer::new(Schedule::quick()), &problem, 11);
        assert!(
            result.best_cost < initial_cost,
            "best {} vs initial {initial_cost}",
            result.best_cost
        );
        let eval = problem.evaluate(&result.best);
        assert!(eval.placement.check_consistency().is_none());
    }

    #[test]
    fn gamma_zero_skips_congestion_in_cost_but_reports_it() {
        let circuit = small_circuit();
        let problem = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights::area_wire(),
            Some(IrregularGridModel::new(Um(30))),
        );
        let expr = problem.initial_state();
        let eval = problem.evaluate(&expr);
        // evaluate() reports congestion even when γ = 0...
        assert!(eval.congestion > 0.0);
        // ...but the annealing cost ignores it.
        let (area, wire, _) = (eval.area_um2, eval.wirelength_um, eval.congestion);
        let expected = problem.combine(area, wire, 0.0);
        let cost = problem.cost(&expr);
        assert!((cost - expected).abs() < 1e-9);
    }

    #[test]
    fn deterministic_runs() {
        let circuit = small_circuit();
        let problem = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights::balanced(),
            Some(IrregularGridModel::new(Um(30))),
        );
        let annealer = Annealer::new(Schedule::quick());
        let a = anneal(&annealer, &FullCostDelta::new(&problem), 5);
        let b = anneal(&annealer, &FullCostDelta::new(&problem), 5);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.stats, b.stats);
        // With γ > 0 the native run still makes the same decisions.
        let native = anneal(&annealer, &problem, 5);
        assert_eq!(native.best, a.best);
        assert_eq!(native.best_cost.to_bits(), a.best_cost.to_bits());
        assert_eq!(native.stats, a.stats);
    }

    /// Runs a one-module circuit through the whole floorplanner with
    /// `model` on representation `R`: an annealing run, its evaluation,
    /// and a few delta moves, each checked against a fresh rebase.
    fn run_single_module<M, R>(circuit: &Circuit, model: Option<M>)
    where
        M: DeltaCongestion + Clone,
        R: FloorplanRepr,
    {
        let label = format!(
            "{} on {}",
            model.as_ref().map_or("no model".to_owned(), |m| m.name()),
            std::any::type_name::<R>()
        );
        let make = || -> FloorplanProblem<'_, M, R> {
            FloorplanProblem::with_representation(
                circuit,
                Um(30),
                Weights::balanced(),
                model.clone(),
            )
        };
        let problem = make();
        let result = anneal(&Annealer::new(Schedule::quick()), &problem, 1);
        let eval = problem.evaluate(&result.best);
        assert_eq!(eval.area_um2, 5000.0, "{label}");
        assert_eq!(eval.wirelength_um, 0.0, "{label}");
        assert_eq!(eval.congestion, 0.0, "{label}");

        let scratch = make();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut state = problem.initial_state();
        let _ = problem.rebase(&state);
        for step in 0..4 {
            let proposed = problem.propose(&mut state, &mut rng);
            assert_eq!(
                proposed.to_bits(),
                scratch.rebase(&state).to_bits(),
                "{label}, step {step}"
            );
            if step % 2 == 0 {
                problem.commit();
            } else {
                problem.undo(&mut state);
            }
        }
    }

    #[test]
    fn single_module_circuit_is_stable() {
        use irgrid_core::LzShapeModel;
        use irgrid_floorplan::SequencePair;
        let circuit = Circuit::new(
            "one",
            vec![irgrid_netlist::Module::new("m", Um(100), Um(50)).expect("valid")],
            vec![],
        )
        .expect("valid");
        run_single_module::<FixedGridModel, PolishExpr>(&circuit, None);
        run_single_module::<FixedGridModel, SequencePair>(&circuit, None);
        let irregular = Some(IrregularGridModel::new(Um(30)));
        run_single_module::<_, PolishExpr>(&circuit, irregular);
        run_single_module::<_, SequencePair>(&circuit, irregular);
        let fixed = Some(FixedGridModel::new(Um(30)));
        run_single_module::<_, PolishExpr>(&circuit, fixed);
        run_single_module::<_, SequencePair>(&circuit, fixed);
        let lz = Some(LzShapeModel::new(Um(30)));
        run_single_module::<_, PolishExpr>(&circuit, lz);
        run_single_module::<_, SequencePair>(&circuit, lz);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let circuit = small_circuit();
        let _ = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights {
                area: -1.0,
                wire: 1.0,
                congestion: 1.0,
            },
            None::<FixedGridModel>,
        );
    }

    #[test]
    fn try_new_returns_typed_errors() {
        let circuit = small_circuit();
        let err =
            FloorplanProblem::<FixedGridModel>::try_new(&circuit, Um(0), Weights::balanced(), None)
                .unwrap_err();
        assert_eq!(err, FloorplanError::NonPositivePitch(Um(0)));

        let bad = Weights {
            area: f64::NAN,
            wire: 1.0,
            congestion: 1.0,
        };
        let err =
            FloorplanProblem::<FixedGridModel>::try_new(&circuit, Um(30), bad, None).unwrap_err();
        assert!(matches!(err, FloorplanError::NegativeWeights(_)));

        assert!(FloorplanProblem::<FixedGridModel>::try_new(
            &circuit,
            Um(30),
            Weights::balanced(),
            None
        )
        .is_ok());
    }

    /// A congestion model that always scores NaN.
    #[derive(Debug, Clone)]
    struct NanModel;

    impl irgrid_core::CongestionModel for NanModel {
        fn evaluate(&self, _: &irgrid_geom::Rect, _: &[(Point, Point)]) -> f64 {
            f64::NAN
        }
        fn name(&self) -> String {
            "nan".into()
        }
    }

    #[test]
    fn nan_congestion_model_is_caught_at_calibration() {
        let circuit = small_circuit();
        let err = FloorplanProblem::try_new(&circuit, Um(30), Weights::balanced(), Some(NanModel))
            .unwrap_err();
        assert!(matches!(
            err,
            FloorplanError::NonFiniteCalibration {
                objective: "congestion",
                ..
            }
        ));
    }

    /// The factory contract of `Fleet::run` and the worker pool: problems
    /// built from the same inputs score every state to identical cost
    /// bits, so each worker can build its own.
    #[test]
    fn problems_built_from_the_same_inputs_score_identical_cost_bits() {
        let circuit = small_circuit();
        let build = || {
            FloorplanProblem::new(
                &circuit,
                Um(30),
                Weights::balanced(),
                Some(IrregularGridModel::new(Um(30))),
            )
        };
        let (a, b) = (build(), build());
        let state = a.initial_state();
        assert_eq!(a.cost(&state).to_bits(), b.cost(&state).to_bits());
    }

    #[test]
    fn sequence_pair_representation_anneals() {
        use irgrid_floorplan::SequencePair;
        let circuit = small_circuit();
        let problem: FloorplanProblem<'_, IrregularGridModel, SequencePair> =
            FloorplanProblem::with_representation(
                &circuit,
                Um(30),
                Weights::balanced(),
                Some(IrregularGridModel::new(Um(30))),
            );
        let initial = problem.cost(&<SequencePair as irgrid_floorplan::FloorplanRepr>::initial(
            circuit.modules().len(),
        ));
        let result = anneal(&Annealer::new(Schedule::quick()), &problem, 9);
        assert!(result.best_cost <= initial);
        let eval = problem.evaluate(&result.best);
        assert!(eval.placement.check_consistency().is_none());
        assert!(eval.area_um2 >= circuit.total_module_area().as_f64());
    }

    #[test]
    fn gamma_zero_native_run_is_bit_identical_to_full_cost_run() {
        // With γ = 0 the delta cost function coincides with the full cost
        // function exactly (integer wirelength sums are exact in f64), so
        // the native delta run must reproduce the full-cost run bit for
        // bit.
        let circuit = small_circuit();
        let problem = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights::area_wire(),
            Some(IrregularGridModel::new(Um(30))),
        );
        let annealer = Annealer::new(Schedule::quick());
        for seed in [2, 11, 23] {
            let plain = anneal(&annealer, &FullCostDelta::new(&problem), seed);
            let delta = anneal(&annealer, &problem, seed);
            assert_eq!(plain.best, delta.best, "seed {seed}");
            assert_eq!(plain.best_cost.to_bits(), delta.best_cost.to_bits());
            assert_eq!(plain.stats, delta.stats);
            assert_eq!(plain.stop_reason, delta.stop_reason);
        }
    }

    #[test]
    fn propose_is_bit_identical_to_fresh_rebase() {
        // Drive the move protocol by hand with a mix of accepts and
        // rejects; after every propose, a from-scratch rebase on an
        // identical second problem must reproduce the incremental cost
        // bit for bit.
        use rand::SeedableRng;
        let circuit = small_circuit();
        let make = || {
            FloorplanProblem::new(
                &circuit,
                Um(30),
                Weights::routability(),
                Some(IrregularGridModel::new(Um(30))),
            )
        };
        let incremental = make();
        let scratch = make();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xd311a);
        let mut state = incremental.initial_state();
        let rebased = incremental.rebase(&state);
        assert_eq!(rebased.to_bits(), scratch.rebase(&state).to_bits());
        for step in 0..60 {
            let before = state.clone();
            let proposed = incremental.propose(&mut state, &mut rng);
            assert_eq!(
                proposed.to_bits(),
                scratch.rebase(&state).to_bits(),
                "step {step}: incremental cost drifted from from-scratch"
            );
            // Reject two of every three moves to exercise long undo chains.
            if step % 3 == 0 {
                incremental.commit();
            } else {
                incremental.undo(&mut state);
                assert_eq!(
                    incremental.cost(&before).to_bits(),
                    incremental.cost(&state).to_bits(),
                    "step {step}: undo failed to restore the state"
                );
            }
        }
    }

    #[test]
    fn commits_that_change_a_nets_segment_count_stay_exact() {
        // Pitch-multiple modules joined by 2-pin nets: members that abut
        // share a pin, so the net's zero-length segment is dropped and
        // its count moves between 0 and 1, which moves the starts of
        // every later net in the session's committed list.
        use irgrid_netlist::{Module, ModuleId, Net};
        use rand::Rng;
        let modules = (0..8)
            .map(|k| Module::new(format!("m{k}"), Um(60), Um(60 * (1 + k % 2))).expect("valid"))
            .collect();
        let pairs = (0..7)
            .map(|k| (k, k + 1))
            .chain([(0, 4), (2, 6), (1, 5), (3, 7)]);
        let nets = pairs
            .map(|(a, b)| Net::new(format!("n{a}_{b}"), vec![ModuleId(a), ModuleId(b)]))
            .collect::<Result<_, _>>()
            .expect("valid");
        let circuit = Circuit::new("abutting", modules, nets).expect("valid");
        let make = || {
            FloorplanProblem::new(
                &circuit,
                Um(30),
                Weights::balanced(),
                Some(IrregularGridModel::new(Um(30))),
            )
        };
        let (incremental, scratch) = (make(), make());
        let mut rng = ChaCha8Rng::seed_from_u64(0xab07);
        let mut state = incremental.initial_state();
        let _ = incremental.rebase(&state);
        let mut totals = std::collections::BTreeSet::new();
        for step in 0..3000 {
            let proposed = incremental.propose(&mut state, &mut rng);
            if rng.gen_range(0..3) == 0 {
                incremental.undo(&mut state);
                continue;
            }
            incremental.commit();
            assert_eq!(
                proposed.to_bits(),
                scratch.rebase(&state).to_bits(),
                "step {step}"
            );
            let guard = incremental.delta.borrow();
            let delta = guard.as_ref().expect("rebased");
            let committed = delta.session.as_ref().expect("γ > 0").committed_segments();
            assert_eq!(
                committed,
                &incremental.evaluate(&state).segments[..],
                "step {step}"
            );
            assert_eq!(
                delta.net_start.last(),
                Some(&committed.len()),
                "step {step}"
            );
            totals.insert(committed.len());
        }
        assert!(totals.len() > 1, "no commit changed the total: {totals:?}");
    }

    #[test]
    fn sequence_pair_delta_protocol_matches_scratch() {
        use irgrid_floorplan::SequencePair;
        use rand::SeedableRng;
        let circuit = small_circuit();
        let make = || -> FloorplanProblem<'_, IrregularGridModel, SequencePair> {
            FloorplanProblem::with_representation(
                &circuit,
                Um(30),
                Weights::balanced(),
                Some(IrregularGridModel::new(Um(30))),
            )
        };
        let incremental = make();
        let scratch = make();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut state = incremental.initial_state();
        let _ = incremental.rebase(&state);
        for step in 0..40 {
            let proposed = incremental.propose(&mut state, &mut rng);
            assert_eq!(
                proposed.to_bits(),
                scratch.rebase(&state).to_bits(),
                "step {step}"
            );
            if step % 2 == 0 {
                incremental.undo(&mut state);
            } else {
                incremental.commit();
            }
        }
    }

    #[test]
    fn delta_run_is_deterministic_and_consistent() {
        let circuit = small_circuit();
        let problem = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights::routability(),
            Some(IrregularGridModel::new(Um(30))),
        );
        let annealer = Annealer::new(Schedule::quick());
        let a = anneal(&annealer, &problem, 5);
        let b = anneal(&annealer, &problem, 5);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.stats, b.stats);
        let eval = problem.evaluate(&a.best);
        assert!(eval.placement.check_consistency().is_none());
    }

    #[test]
    fn representations_share_the_cost_definition() {
        use irgrid_floorplan::SequencePair;
        // The same placement scored through either problem type must give
        // comparable magnitudes: both are normalized to ~weight-sum.
        let circuit = small_circuit();
        let slicing = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights::balanced(),
            Some(IrregularGridModel::new(Um(30))),
        );
        let seqpair: FloorplanProblem<'_, IrregularGridModel, SequencePair> =
            FloorplanProblem::with_representation(
                &circuit,
                Um(30),
                Weights::balanced(),
                Some(IrregularGridModel::new(Um(30))),
            );
        let a = slicing.cost(&slicing.initial_state());
        let b = seqpair.cost(&seqpair.initial_state());
        assert!((0.3..8.0).contains(&a), "slicing cost {a}");
        assert!((0.3..8.0).contains(&b), "sequence-pair cost {b}");
    }
}
