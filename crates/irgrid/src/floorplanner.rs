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
use irgrid_core::{CongestionModel, DeltaCongestion, DeltaCongestionSession};
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;

use irgrid_floorplan::{
    net_segments, segments_wirelength, two_pin_segments, Decomposition, FloorplanRepr, PinPlacer,
    Placement, PolishExpr,
};
use irgrid_geom::{Point, Rect, Um};
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
    repr: PhantomData<R>,
}

/// Committed state of the incremental evaluation: the placed floorplan
/// decomposed per net, plus the congestion model's retained delta session.
/// `propose` applies a move eagerly and records what it overwrote in
/// `journal`; `undo` plays the journal back.
#[derive(Debug)]
struct DeltaState<R> {
    session: Option<Box<dyn DeltaCongestionSession>>,
    /// Module index → indices of the nets that pin it.
    module_nets: Vec<Vec<usize>>,
    /// Per-net dedup marks, all false between proposals.
    net_mark: Vec<bool>,
    /// Per-net 2-pin segments of the committed (or pending) placement.
    net_segments: Vec<Vec<(Point, Point)>>,
    /// Per-net Manhattan wirelength; integer µm, so incremental updates
    /// are exact and order-independent.
    net_wire: Vec<Um>,
    wire_total: Um,
    placement: Placement,
    /// Flattened segments in net order — the same order
    /// [`two_pin_segments`] produces, so the session scores the same
    /// list a from-scratch evaluation would.
    flat: Vec<(Point, Point)>,
    journal: Option<Journal<R>>,
}

/// `(net index, segments, wirelength)` of one re-decomposed net.
type SavedNet = (usize, Vec<(Point, Point)>, Um);

/// Everything one `propose` overwrote, for exact rollback on `undo`.
#[derive(Debug)]
struct Journal<R> {
    prev_repr: R,
    prev_placement: Placement,
    /// One entry per net the move re-decomposed.
    prev_nets: Vec<SavedNet>,
    prev_wire_total: Um,
    session_proposed: bool,
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
            repr: PhantomData,
        };
        problem.calibrate()?;
        Ok(problem)
    }

    /// The circuit being floorplanned.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The attached congestion model, if any.
    #[must_use]
    pub fn congestion_model(&self) -> Option<&M> {
        self.congestion.as_ref()
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
        let wire: f64 = segments
            .iter()
            .map(|(a, b)| a.manhattan_distance(*b).as_f64())
            .sum(); // irgrid-lint: allow(D2): serial in-order sum over the segment Vec; order fixed by net decomposition
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

/// A `Sync` recipe for building cost-identical [`FloorplanProblem`]s.
///
/// [`FloorplanProblem`] itself is not `Sync` — its delta-path state
/// lives in a `RefCell` — so it cannot be shared across the
/// worker threads of an [`irgrid_fleet`] run. A spec captures the
/// construction inputs instead; each worker calls
/// [`build`](FloorplanSpec::build) to mint its own problem instance.
/// Construction is deterministic (the normalization calibration walk is
/// seeded), so every instance scores any given state to identical cost
/// bits — exactly the factory contract the fleet supervisor requires.
#[derive(Debug, Clone)]
pub struct FloorplanSpec<'c, M: CongestionModel + Clone, R: FloorplanRepr = PolishExpr> {
    circuit: &'c Circuit,
    pitch: Um,
    weights: Weights,
    congestion: Option<M>,
    repr: PhantomData<R>,
}

impl<'c, M: CongestionModel + Clone, R: FloorplanRepr> FloorplanSpec<'c, M, R> {
    /// Creates a spec, validating the parameters by building (and
    /// discarding) one problem instance.
    pub fn new(
        circuit: &'c Circuit,
        pitch: Um,
        weights: Weights,
        congestion: Option<M>,
    ) -> Result<FloorplanSpec<'c, M, R>, FloorplanError> {
        let _probe: FloorplanProblem<'c, M, R> =
            FloorplanProblem::try_with_representation(circuit, pitch, weights, congestion.clone())?;
        Ok(FloorplanSpec {
            circuit,
            pitch,
            weights,
            congestion,
            repr: PhantomData,
        })
    }

    /// Builds one problem instance. Every instance built from the same
    /// spec is cost-identical.
    #[must_use]
    pub fn build(&self) -> FloorplanProblem<'c, M, R> {
        match FloorplanProblem::try_with_representation(
            self.circuit,
            self.pitch,
            self.weights,
            self.congestion.clone(),
        ) {
            Ok(problem) => problem,
            // irgrid-lint: allow(P1): construction is deterministic and the
            // identical inputs were validated by `FloorplanSpec::new`
            Err(err) => panic!("validated floorplan spec failed to build: {err}"),
        }
    }

    /// The circuit this spec floorplans.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        self.circuit
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
    /// Recomputes one net's pins, segments, and wirelength against
    /// `placement` — the per-net unit of work both `rebase` (all nets)
    /// and `propose` (changed nets only) go through, so the two cannot
    /// drift.
    fn decompose_net(&self, net_index: usize, placement: &Placement) -> (Vec<(Point, Point)>, Um) {
        let members: Vec<Rect> = self.circuit.nets()[net_index]
            .pins()
            .iter()
            .map(|&m| placement.module_rect(m))
            .collect();
        let pins = self.placer.place_net(&members);
        let segments = net_segments(&pins, Decomposition::Mst);
        let wire = segments_wirelength(&segments);
        (segments, wire)
    }

    /// Scores the pending flat segment list: congestion through the delta
    /// session (when one is attached) plus the combined cost.
    fn delta_cost(&self, delta: &mut DeltaState<R>, propose: bool) -> (f64, bool) {
        let chip = delta.placement.chip();
        delta.flat.clear();
        for segments in &delta.net_segments {
            delta.flat.extend_from_slice(segments);
        }
        let (congestion, session_used) = match delta.session.as_mut() {
            Some(session) if propose => (session.propose(&chip, &delta.flat), true),
            Some(session) => (session.rebase(&chip, &delta.flat), true),
            None => (0.0, false),
        };
        let area = delta.placement.area().as_f64();
        let cost = self.combine(area, delta.wire_total.as_f64(), congestion);
        (cost, session_used)
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
            net_segments: Vec::with_capacity(nets.len()),
            net_wire: Vec::with_capacity(nets.len()),
            wire_total: Um::ZERO,
            placement,
            flat: Vec::new(),
            journal: None,
        };
        for n in 0..nets.len() {
            let (segments, wire) = self.decompose_net(n, &delta.placement);
            delta.wire_total += wire;
            delta.net_segments.push(segments);
            delta.net_wire.push(wire);
        }
        let (cost, _) = self.delta_cost(&mut delta, false);
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
        let mut changed_nets: Vec<usize> = Vec::new();
        for &module in &changed {
            for &n in &delta.module_nets[module] {
                if !delta.net_mark[n] {
                    delta.net_mark[n] = true;
                    changed_nets.push(n);
                }
            }
        }
        changed_nets.sort_unstable();

        let prev_wire_total = delta.wire_total;
        let prev_placement = std::mem::replace(&mut delta.placement, placement);
        let mut prev_nets = Vec::with_capacity(changed_nets.len());
        for &n in &changed_nets {
            delta.net_mark[n] = false;
            let (segments, wire) = self.decompose_net(n, &delta.placement);
            let old_segments = std::mem::replace(&mut delta.net_segments[n], segments);
            let old_wire = std::mem::replace(&mut delta.net_wire[n], wire);
            delta.wire_total += wire - old_wire;
            prev_nets.push((n, old_segments, old_wire));
        }

        let (cost, session_proposed) = self.delta_cost(delta, true);
        delta.journal = Some(Journal {
            prev_repr,
            prev_placement,
            prev_nets,
            prev_wire_total,
            session_proposed,
        });
        cost
    }

    fn commit(&self) {
        let mut guard = self.delta.borrow_mut();
        if let Some(delta) = guard.as_mut() {
            if let Some(journal) = delta.journal.take() {
                if journal.session_proposed {
                    if let Some(session) = delta.session.as_mut() {
                        session.commit();
                    }
                }
            }
        }
    }

    fn undo(&self, state: &mut R) {
        let mut guard = self.delta.borrow_mut();
        if let Some(delta) = guard.as_mut() {
            if let Some(journal) = delta.journal.take() {
                *state = journal.prev_repr;
                delta.placement = journal.prev_placement;
                delta.wire_total = journal.prev_wire_total;
                for (n, segments, wire) in journal.prev_nets {
                    delta.net_segments[n] = segments;
                    delta.net_wire[n] = wire;
                }
                if journal.session_proposed {
                    if let Some(session) = delta.session.as_mut() {
                        let _ = session.undo();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid_anneal::{Annealer, Schedule};
    use irgrid_core::{FixedGridModel, IrregularGridModel};
    use irgrid_netlist::generator::CircuitGenerator;

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
        let result = Annealer::new(Schedule::quick()).run(&problem, 11);
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
        let a = annealer.run(&problem, 5);
        let b = annealer.run(&problem, 5);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_cost, b.best_cost);
    }

    #[test]
    fn single_module_circuit_is_stable() {
        let circuit = Circuit::new(
            "one",
            vec![irgrid_netlist::Module::new("m", Um(100), Um(50)).expect("valid")],
            vec![],
        )
        .expect("valid");
        let problem = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights::balanced(),
            None::<FixedGridModel>,
        );
        let result = Annealer::new(Schedule::quick()).run(&problem, 1);
        let eval = problem.evaluate(&result.best);
        assert_eq!(eval.area_um2, 5000.0);
        assert_eq!(eval.wirelength_um, 0.0);
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

    #[test]
    fn spec_builds_cost_identical_problems() {
        let circuit = small_circuit();
        let spec: FloorplanSpec<'_, IrregularGridModel> = FloorplanSpec::new(
            &circuit,
            Um(30),
            Weights::balanced(),
            Some(IrregularGridModel::new(Um(30))),
        )
        .expect("valid spec");
        let a = spec.build();
        let b = spec.build();
        let state = a.initial_state();
        assert_eq!(
            a.cost(&state).to_bits(),
            b.cost(&state).to_bits(),
            "instances from one spec must score identical cost bits"
        );
    }

    #[test]
    fn spec_rejects_what_try_new_rejects() {
        let circuit = small_circuit();
        let err = FloorplanSpec::<FixedGridModel>::new(&circuit, Um(0), Weights::balanced(), None)
            .unwrap_err();
        assert_eq!(err, FloorplanError::NonPositivePitch(Um(0)));
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
        let result = Annealer::new(Schedule::quick()).run(&problem, 9);
        assert!(result.best_cost <= initial);
        let eval = problem.evaluate(&result.best);
        assert!(eval.placement.check_consistency().is_none());
        assert!(eval.area_um2 >= circuit.total_module_area().as_f64());
    }

    #[test]
    fn gamma_zero_delta_run_is_bit_identical_to_plain_run() {
        // With γ = 0 the delta cost function coincides with the full cost
        // function exactly (integer wirelength sums are exact in f64), so
        // the delta loop must reproduce the plain loop bit for bit.
        let circuit = small_circuit();
        let problem = FloorplanProblem::new(
            &circuit,
            Um(30),
            Weights::area_wire(),
            Some(IrregularGridModel::new(Um(30))),
        );
        let annealer = Annealer::new(Schedule::quick());
        for seed in [2, 11, 23] {
            let plain = annealer.run(&problem, seed);
            let delta = annealer.run_delta(&problem, seed);
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
        let a = annealer.run_delta(&problem, 5);
        let b = annealer.run_delta(&problem, 5);
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
