//! The SA phases: Metropolis move loops over
//! `FloorplanProblem<IrregularGridModel>`, once through the delta
//! protocol (`propose` → `commit`/`undo`) and once through the full one
//! (`perturb` + `cost`), plus the traced stage-by-stage replay of both.
//!
//! A pass runs every chain from the start floorplan; chain `c` draws its
//! moves and accept decisions from streams seeded by the run seed and
//! `c`, so every pass repeats the identical move sequence, and each move
//! is timed on its own.

use std::hint::black_box;
use std::time::Instant;

use irgrid::anneal::{DeltaProblem, Problem};
use irgrid::congestion::{
    CongestionModel, DeltaCongestion, DeltaCongestionSession, IrregularGridModel,
};
use irgrid::floorplan::{
    net_segments, segments_wirelength, two_pin_segments, Decomposition, FloorplanRepr, PinPlacer,
    Placement, PolishExpr,
};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::{Point, Rect, Um};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::gates::{self, GateError};
use crate::inputs::{stream_seed, Input, Sizes, Stream};
use crate::report::Record;
use crate::stats;
use crate::trace::Tracer;

/// The problem every SA phase drives.
pub type Floorplan<'c> = FloorplanProblem<'c, IrregularGridModel>;

/// Probe moves behind the Metropolis temperature.
const PROBE_MOVES: usize = 64;

/// Builds the problem and scores the start floorplan with its first
/// `rebase`; returns the problem and the seconds that took.
pub fn set_up(input: &Input) -> (Floorplan<'_>, f64) {
    let clock = Instant::now();
    let problem = FloorplanProblem::new(
        &input.circuit,
        input.pitch,
        Weights::routability(),
        Some(IrregularGridModel::new(input.pitch)),
    );
    black_box(problem.rebase(&input.start));
    (problem, clock.elapsed().as_secs_f64())
}

/// One chain's outcome.
struct Chain {
    /// Seconds each move took.
    move_s: Vec<f64>,
    decisions: Vec<bool>,
    final_cost: f64,
    state: PolishExpr,
}

/// What a traced delta replay counts; identical in every pass.
#[derive(Debug, Clone, Copy, Default)]
struct Replayed {
    changed_modules: usize,
    changed_nets: usize,
}

fn rngs(seed: u64, chain: usize) -> (ChaCha8Rng, ChaCha8Rng) {
    let chain = chain as u64;
    (
        ChaCha8Rng::seed_from_u64(stream_seed(seed, Stream::Moves(chain))),
        ChaCha8Rng::seed_from_u64(stream_seed(seed, Stream::Accept(chain))),
    )
}

/// The SA phases of one run, calibrated and verified.
pub struct Anneal<'a, 'c> {
    problem: &'a Floorplan<'c>,
    input: &'a Input,
    sizes: Sizes,
    seed: u64,
    /// Metropolis temperature: ¼ of the median uphill Δ of
    /// [`PROBE_MOVES`] probe moves from the start floorplan.
    t: f64,
    /// `cost` of the start floorplan, where every full chain begins.
    start_cost: f64,
    delta: Vec<Chain>,
    full: Vec<Chain>,
    replayed: Replayed,
}

impl<'a, 'c> Anneal<'a, 'c> {
    /// Calibrates the temperature and runs one untimed pass of each
    /// loop; the delta one is the verification pass.
    ///
    /// # Errors
    ///
    /// A checkpoint `propose` that differs from a fresh `rebase`, an
    /// inconsistent final placement, or a pass that does not repeat.
    pub fn prepare(
        problem: &'a Floorplan<'c>,
        input: &'a Input,
        sizes: Sizes,
        seed: u64,
        record: &mut Record,
    ) -> Result<Anneal<'a, 'c>, GateError> {
        let base = problem.rebase(&input.start);
        let mut state = input.start.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(seed, Stream::Probe));
        let deltas: Vec<f64> = (0..PROBE_MOVES)
            .map(|_| {
                let cost = problem.propose(&mut state, &mut rng);
                problem.undo(&mut state);
                cost - base
            })
            .collect();
        let mut anneal = Anneal {
            problem,
            input,
            sizes,
            seed,
            t: stats::metropolis_temperature(&deltas)?,
            start_cost: problem.cost(&input.start),
            delta: Vec::new(),
            full: Vec::new(),
            replayed: Replayed::default(),
        };
        record.ops.ok(PROBE_MOVES);

        for chain in 0..sizes.delta_chains {
            let verified = anneal.delta_chain(chain, Some(sizes.checkpoint_every))?;
            anneal.delta.push(verified);
        }
        for chain in 0..sizes.full_chains {
            anneal.full.push(anneal.full_chain(chain));
        }
        // The O(n²) overlap check runs on each loop's last chain only.
        for (what, chain) in [("delta", &anneal.delta), ("full", &anneal.full)] {
            if let Some(last) = chain.last() {
                let placement = last.state.place(&input.circuit);
                gates::consistent(
                    &format!("{what} chain final placement"),
                    placement.check_consistency(),
                )?;
            }
        }
        record.ops.ok(anneal.delta_moves() + anneal.full_moves());
        Ok(anneal)
    }

    /// One delta chain from the start floorplan. With `verify`, every
    /// `every`-th committed move is followed by a from-scratch `rebase`
    /// of the committed state, which must score its `propose` bit for
    /// bit; the chain then continues on the rebuilt state.
    fn delta_chain(&self, chain: usize, verify: Option<usize>) -> Result<Chain, GateError> {
        let problem = self.problem;
        let mut current = problem.rebase(&self.input.start);
        let mut state = self.input.start.clone();
        let (mut move_rng, mut accept_rng) = rngs(self.seed, chain);
        let moves = self.sizes.delta_moves;
        let mut decisions = Vec::with_capacity(moves);
        let mut move_s = Vec::with_capacity(moves);
        let mut committed = 0_usize;
        for _ in 0..moves {
            let clock = Instant::now();
            let cost = problem.propose(&mut state, &mut move_rng);
            let accept = stats::metropolis_accept(cost - current, self.t, accept_rng.gen::<f64>());
            if accept {
                problem.commit();
            } else {
                problem.undo(&mut state);
            }
            move_s.push(clock.elapsed().as_secs_f64());
            decisions.push(accept);
            if accept {
                current = cost;
                committed += 1;
                if let Some(every) = verify {
                    if (committed - 1) % every == 0 {
                        let scratch = problem.rebase(&state);
                        gates::same_bits("delta propose vs a fresh rebase", cost, scratch)?;
                    }
                }
            }
        }
        gates::holds(current.is_finite(), || {
            format!("delta chain cost {current}")
        })?;
        Ok(Chain {
            move_s,
            decisions,
            final_cost: current,
            state,
        })
    }

    /// One full chain from the start floorplan: clone, `perturb`, `cost`.
    fn full_chain(&self, chain: usize) -> Chain {
        let problem = self.problem;
        let mut state = self.input.start.clone();
        let mut current = self.start_cost;
        let (mut move_rng, mut accept_rng) = rngs(self.seed, chain);
        let moves = self.sizes.full_moves;
        let mut decisions = Vec::with_capacity(moves);
        let mut move_s = Vec::with_capacity(moves);
        for _ in 0..moves {
            let clock = Instant::now();
            let mut candidate = state.clone();
            problem.perturb(&mut candidate, &mut move_rng);
            let cost = problem.cost(&candidate);
            let accept = stats::metropolis_accept(cost - current, self.t, accept_rng.gen::<f64>());
            if accept {
                state = candidate;
                current = cost;
            }
            move_s.push(clock.elapsed().as_secs_f64());
            decisions.push(accept);
        }
        Chain {
            move_s,
            decisions,
            final_cost: current,
            state,
        }
    }

    /// A timed delta pass: the seconds of each move of every chain (each
    /// chain's initial `rebase` is not timed).
    ///
    /// # Errors
    ///
    /// A chain that did not repeat its verified decisions and final cost.
    pub fn delta_pass(&self, record: &mut Record) -> Result<Vec<f64>, GateError> {
        let mut move_s = Vec::with_capacity(self.delta_moves());
        for (chain, verified) in self.delta.iter().enumerate() {
            let timed = self.delta_chain(chain, None)?;
            gates::holds(timed.decisions == verified.decisions, || {
                format!("delta chain {chain} diverged from its verification pass")
            })?;
            gates::same_bits(
                "delta chain final cost",
                timed.final_cost,
                verified.final_cost,
            )?;
            move_s.extend(timed.move_s);
        }
        record.ops.ok(self.delta_moves());
        Ok(move_s)
    }

    /// A timed full pass: the seconds of each move of every chain.
    ///
    /// # Errors
    ///
    /// A chain that did not repeat its first pass.
    pub fn full_pass(&self, record: &mut Record) -> Result<Vec<f64>, GateError> {
        let mut move_s = Vec::with_capacity(self.full_moves());
        for (chain, first) in self.full.iter().enumerate() {
            let timed = self.full_chain(chain);
            gates::holds(timed.decisions == first.decisions, || {
                format!("full chain {chain} diverged from its first pass")
            })?;
            gates::same_bits("full chain final cost", timed.final_cost, first.final_cost)?;
            move_s.extend(timed.move_s);
        }
        record.ops.ok(self.full_moves());
        Ok(move_s)
    }

    fn delta_moves(&self) -> usize {
        self.sizes.delta_chains * self.sizes.delta_moves
    }

    fn full_moves(&self) -> usize {
        self.sizes.full_chains * self.sizes.full_moves
    }

    /// Records `sa_delta_moves_per_s` and `sa_full_moves_per_s` from each
    /// move's fastest pass.
    pub fn record(&self, delta_move_s: &[f64], full_move_s: &[f64], record: &mut Record) {
        record.e2e.put(
            "sa_delta_moves_per_s",
            delta_move_s.len() as f64 / delta_move_s.iter().sum::<f64>(),
            "1/s",
        );
        record.e2e.put(
            "sa_full_moves_per_s",
            full_move_s.len() as f64 / full_move_s.iter().sum::<f64>(),
            "1/s",
        );
    }

    /// One traced pass: replays every chain of both loops stage by stage,
    /// each move in a span whose id is its position in the pass. The
    /// first pass also checks the replay against the problem.
    ///
    /// # Errors
    ///
    /// A checkpoint whose replayed segments differ from the problem's.
    pub fn trace_pass(
        &mut self,
        pass: usize,
        tracer: &mut Tracer,
        record: &mut Record,
    ) -> Result<(), GateError> {
        let mut replay = DeltaReplay::new(self.input);
        for (chain, verified) in self.delta.iter().enumerate() {
            replay.chain(self, chain, &verified.decisions, pass == 0, tracer)?;
        }
        self.replayed = replay.counts;
        for (chain, first) in self.full.iter().enumerate() {
            self.replay_full(chain, &first.decisions, tracer);
        }
        record.ops.ok(self.delta_moves() + self.full_moves());
        Ok(())
    }

    /// Records the anneal layer metrics from the traced passes, against
    /// the untraced moves' fastest passes.
    pub fn record_trace(
        &self,
        delta_move_s: &[f64],
        full_move_s: &[f64],
        tracer: &Tracer,
        record: &mut Record,
    ) {
        let delta = tracer.fastest("anneal.delta_move");
        let full = tracer.fastest("anneal.full_move");
        let rebase = tracer.fastest("core.rebase");
        let moves = self.delta_moves();
        assert_eq!(delta.items, moves, "every delta move is replayed");
        assert_eq!(full.items, self.full_moves(), "every full move is replayed");

        let layers = &mut record.layers;
        for (metric, span) in [
            ("floorplan.perturb_us", "floorplan.perturb"),
            ("floorplan.place_us", "floorplan.place"),
            ("floorplan.changed_modules_us", "floorplan.changed_modules"),
            ("floorplan.decompose_us", "floorplan.decompose"),
            ("core.propose_us", "core.propose"),
            ("core.commit_us", "core.commit"),
            ("core.undo_us", "core.undo"),
        ] {
            layers.put(metric, delta.per_item_us(span), "us");
        }
        layers.put(
            "floorplan.two_pin_segments_us",
            full.per_item_us("floorplan.two_pin_segments"),
            "us",
        );
        layers.put(
            "core.evaluate_ms",
            full.per_item_us("core.evaluate") / 1e3,
            "ms",
        );
        layers.put("core.rebase_ms", rebase.total_per_item_us() / 1e3, "ms");

        layers.put(
            "floorplan.changed_module_fraction",
            self.replayed.changed_modules as f64
                / (moves * self.input.circuit.modules().len()) as f64,
            "ratio",
        );
        layers.put(
            "floorplan.changed_nets_per_move",
            self.replayed.changed_nets as f64 / moves as f64,
            "count",
        );
        let accepted: usize = self
            .delta
            .iter()
            .map(|chain| chain.decisions.iter().filter(|&&a| a).count())
            .sum();
        layers.put(
            "anneal.accept_ratio",
            accepted as f64 / moves as f64,
            "ratio",
        );

        // The stages are every span under a move but the move's own
        // self time, which is the replay's bookkeeping.
        let untraced_us = mean_us(delta_move_s);
        let stage_us = delta.total_per_item_us() - delta.per_item_us("anneal.delta_move");
        layers.put("irgrid.unattributed_us", untraced_us - stage_us, "us");
        layers.put("reconcile_ratio", stage_us / untraced_us, "ratio");
        let untraced_full_us = mean_us(full_move_s);
        let full_stage_us = full.total_per_item_us() - full.per_item_us("anneal.full_move");
        layers.put(
            "irgrid.unattributed_full_us",
            untraced_full_us - full_stage_us,
            "us",
        );
        layers.put(
            "full_reconcile_ratio",
            full_stage_us / untraced_full_us,
            "ratio",
        );
        let untraced_s: f64 = delta_move_s.iter().chain(full_move_s).sum();
        layers.put(
            "trace_overhead_ratio",
            (delta.total_ns + full.total_ns) as f64 / 1e9 / untraced_s,
            "ratio",
        );
    }

    /// Replays one full chain stage by stage.
    fn replay_full(&self, chain: usize, decisions: &[bool], tracer: &mut Tracer) {
        let circuit = &self.input.circuit;
        let placer = PinPlacer::new(self.input.pitch);
        let model = IrregularGridModel::new(self.input.pitch);
        let mut state = self.input.start.clone();
        let (mut move_rng, _) = rngs(self.seed, chain);
        for (i, &accept) in decisions.iter().enumerate() {
            let id = (chain * self.sizes.full_moves + i) as u64;
            let root = tracer.begin("anneal.full_move", id);
            let mut candidate = state.clone();
            tracer.span("floorplan.perturb", id, || {
                FloorplanRepr::perturb(&mut candidate, &mut move_rng);
            });
            let placement = tracer.span("floorplan.place", id, || candidate.place(circuit));
            let segments = tracer.span("floorplan.two_pin_segments", id, || {
                two_pin_segments(circuit, &placement, &placer)
            });
            let wire: i64 = segments
                .iter()
                .map(|(a, b)| a.manhattan_distance(*b).0)
                .sum();
            black_box((placement.area(), wire));
            tracer.span("core.evaluate", id, || {
                black_box(model.evaluate(&placement.chip(), &segments))
            });
            if accept {
                state = candidate;
            }
            tracer.end(root);
        }
    }
}

/// The per-net unit of work the problem's delta path does for every
/// changed net: pins, MST segments, wirelength.
fn decompose(input: &Input, placer: &PinPlacer, net: usize, placement: &Placement) -> NetSegments {
    let members: Vec<Rect> = input.circuit.nets()[net]
        .pins()
        .iter()
        .map(|&m| placement.module_rect(m))
        .collect();
    let pins = placer.place_net(&members);
    let segments = net_segments(&pins, Decomposition::Mst);
    let wire = segments_wirelength(&segments);
    (segments, wire)
}

type NetSegments = (Vec<(Point, Point)>, Um);

/// The stage-by-stage replay of delta chains: what the problem's delta
/// path does, with each stage called from here, in its own span.
struct DeltaReplay<'a> {
    input: &'a Input,
    placer: PinPlacer,
    model: IrregularGridModel,
    module_nets: Vec<Vec<usize>>,
    /// Every net's decomposition on the start floorplan.
    start_nets: Vec<NetSegments>,
    counts: Replayed,
}

impl<'a> DeltaReplay<'a> {
    fn new(input: &'a Input) -> DeltaReplay<'a> {
        let circuit = &input.circuit;
        let mut module_nets = vec![Vec::new(); circuit.modules().len()];
        for (n, net) in circuit.nets().iter().enumerate() {
            for &m in net.pins() {
                module_nets[m.index()].push(n);
            }
        }
        let placer = PinPlacer::new(input.pitch);
        let start_nets = (0..circuit.nets().len())
            .map(|n| decompose(input, &placer, n, &input.placement))
            .collect();
        DeltaReplay {
            input,
            placer,
            model: IrregularGridModel::new(input.pitch),
            module_nets,
            start_nets,
            counts: Replayed::default(),
        }
    }

    /// Replays one chain's moves and accept decisions. With `verify`, at
    /// every `checkpoint_every`-th committed move the replay's flattened
    /// segments must equal the problem's own.
    fn chain(
        &mut self,
        anneal: &Anneal<'_, '_>,
        chain: usize,
        decisions: &[bool],
        verify: bool,
        tracer: &mut Tracer,
    ) -> Result<(), GateError> {
        let input = self.input;
        let circuit = &input.circuit;
        let mut placement = input.placement.clone();
        let mut per_net = self.start_nets.clone();
        let mut flat: Vec<(Point, Point)> = per_net
            .iter()
            .flat_map(|(s, _)| s.iter().copied())
            .collect();
        let mut session = self.model.delta_session();
        let chip = placement.chip();
        tracer.span("core.rebase", chain as u64, || {
            black_box(session.rebase(&chip, &flat))
        });

        let mut state = input.start.clone();
        let (mut move_rng, _) = rngs(anneal.seed, chain);
        let mut mark = vec![false; circuit.nets().len()];
        let mut committed = 0_usize;
        for (i, &accept) in decisions.iter().enumerate() {
            let id = (chain * anneal.sizes.delta_moves + i) as u64;
            let root = tracer.begin("anneal.delta_move", id);
            let previous = state.clone();
            tracer.span("floorplan.perturb", id, || {
                FloorplanRepr::perturb(&mut state, &mut move_rng);
            });
            let next = tracer.span("floorplan.place", id, || state.place(circuit));
            let changed = tracer.span("floorplan.changed_modules", id, || {
                placement.changed_modules(&next)
            });
            let mut touched = Vec::new();
            for &module in &changed {
                for &n in &self.module_nets[module] {
                    if !mark[n] {
                        mark[n] = true;
                        touched.push(n);
                    }
                }
            }
            touched.sort_unstable();
            for &n in &touched {
                mark[n] = false;
            }
            let placer = &self.placer;
            let fresh: Vec<_> = tracer.span("floorplan.decompose", id, || {
                touched
                    .iter()
                    .map(|&n| decompose(input, placer, n, &next))
                    .collect()
            });
            self.counts.changed_modules += changed.len();
            self.counts.changed_nets += touched.len();
            let saved: Vec<_> = touched
                .iter()
                .zip(fresh)
                .map(|(&n, net)| (n, std::mem::replace(&mut per_net[n], net)))
                .collect();
            flat.clear();
            for (segments, _) in &per_net {
                flat.extend_from_slice(segments);
            }
            let chip = next.chip();
            tracer.span("core.propose", id, || {
                black_box(session.propose(&chip, &flat))
            });
            if accept {
                tracer.span("core.commit", id, || session.commit());
                placement = next;
            } else {
                tracer.span("core.undo", id, || black_box(session.undo()));
                state = previous;
                for (n, net) in saved {
                    per_net[n] = net;
                }
            }
            tracer.end(root);
            if accept && verify {
                committed += 1;
                if (committed - 1) % anneal.sizes.checkpoint_every == 0 {
                    let expected = anneal.problem.evaluate(&state).segments;
                    gates::same_segments("replayed segments vs the problem's", &flat, &expected)?;
                }
            }
        }
        Ok(())
    }
}

/// The mean of `seconds`, in microseconds.
fn mean_us(seconds: &[f64]) -> f64 {
    stats::mean(seconds) * 1e6
}
