//! Workloads, their sizes, and the inputs they run on.

use irgrid::anneal::Problem;
use irgrid::congestion::IrregularGridModel;
use irgrid::floorplan::{pack, two_pin_segments, FloorplanRepr, PinPlacer, Placement, PolishExpr};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::{Point, Um};
use irgrid::netlist::generator::CircuitGenerator;
use irgrid::netlist::mcnc::McncCircuit;
use irgrid::netlist::Circuit;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats;

/// One set of inputs. Every workload runs the same four phases (delta
/// and full SA loops, served moves, map builds) on its own circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MCNC ami49 at the paper pitch, from a quick area+wire anneal: core
    /// scoring is almost all of an SA move, and per-request overhead
    /// most of a served move.
    Ami49,
    /// A 10k-module / 15k-net synthetic, stirred and pitched at chip/64:
    /// packing and net re-decomposition rival core scoring, set-up pays
    /// the normalisation walk's float map builds, and maps are large.
    Syn10k,
}

/// Run length the sizes below are calibrated to: roughly the seconds of
/// timed work in one run on a 2-CPU host. `--seconds` scales the number
/// of rounds by `seconds / REFERENCE_SECONDS`; the work inside a round
/// never changes, so both sides of a comparison repeat identical work.
pub const REFERENCE_SECONDS: f64 = 30.0;

/// How much work a workload repeats.
///
/// A run is a sequence of rounds, each timing one pass of every phase,
/// so every item's passes are spread over the whole run: the host slows
/// by up to half for seconds at a time, and an item's fastest pass is
/// then one taken outside those stretches.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rounds; each times one delta pass, one full pass, the maps
    /// passes and one served pass.
    pub rounds: usize,
    /// Set-ups timed for `setup_s`, spread over the run.
    pub setups: usize,
    /// Independent delta-loop chains per pass, each from the start
    /// floorplan with its own seeded move and accept streams. Many short
    /// chains keep the work of a pass nearly the same from seed to seed:
    /// a long chain's cost follows wherever its seed walks it.
    pub delta_chains: usize,
    /// Delta moves (`propose` → `commit`/`undo`) per chain.
    pub delta_moves: usize,
    /// Independent full-loop chains per pass, as `delta_chains`.
    pub full_chains: usize,
    /// Full moves (`perturb` + `cost`) per chain.
    pub full_moves: usize,
    /// The verification pass re-scores every this-many-th committed move
    /// from scratch.
    pub checkpoint_every: usize,
    /// Map-suite passes and Irregular-Grid map builds per round.
    pub maps_per_round: usize,
    /// Served moves per pass; a multiple of three, so a pass holds whole
    /// commit-commit-undo blocks.
    pub served_moves: usize,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 2] = [Workload::Ami49, Workload::Syn10k];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ami49 => "ami49",
            Workload::Syn10k => "syn10k",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sizes. `--quick` uses tiny counts with every gate
    /// still on; otherwise the round count scales with `seconds`.
    #[must_use]
    pub fn sizes(self, quick: bool, seconds: f64) -> Sizes {
        if quick {
            // 60 served moves hold 20 undos, the fewest whose median
            // keeps 10 samples beyond it.
            return Sizes {
                rounds: 2,
                setups: 1,
                delta_chains: 2,
                delta_moves: 6,
                full_chains: 2,
                full_moves: 1,
                checkpoint_every: 2,
                maps_per_round: 1,
                served_moves: 60,
            };
        }
        let rounds = |count: usize| -> usize {
            ((count as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(1)
        };
        match self {
            // 600 served moves hold 200 undos, so every served op
            // supports p95 with ≥ 10 samples beyond it.
            Workload::Ami49 => Sizes {
                rounds: rounds(8),
                setups: 5,
                delta_chains: 20,
                delta_moves: 12,
                full_chains: 20,
                full_moves: 4,
                checkpoint_every: 2,
                maps_per_round: 6,
                served_moves: 600,
            },
            // A served syn10k move ships the whole 25k-segment state and
            // costs ≈ 35 ms, so a pass serves 60 moves and the served
            // tails are p75 (the median for the 20 undos). Set-up
            // (≈ 13 s, three times) is over half of this workload's run.
            Workload::Syn10k => Sizes {
                rounds: rounds(6),
                setups: 3,
                delta_chains: 8,
                delta_moves: 5,
                full_chains: 2,
                full_moves: 1,
                checkpoint_every: 2,
                maps_per_round: 1,
                served_moves: 60,
            },
        }
    }
}

/// The seed of everything that sets a workload's size: the synthetic
/// circuit, the stir, the ami49 fixture anneal, and the probe moves
/// behind the Metropolis temperature. These are fixed so that runs with
/// different `--seed`s measure the same floorplans; the run seed varies
/// only the move streams.
const REFERENCE_SEED: u64 = 1;

/// Independent RNG streams.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Synthetic circuit generation (reference seed).
    Circuit,
    /// The syn10k stir walk (reference seed).
    Stir,
    /// The ami49 fixture anneal (reference seed).
    Fixture,
    /// Temperature-calibration probe moves (reference seed).
    Probe,
    /// One SA chain's move proposals (run seed).
    Moves(u64),
    /// One SA chain's accept draws (run seed).
    Accept(u64),
    /// The served client's nudges and undo positions (run seed).
    Client,
}

/// The seed of `stream`: derived from the run seed for move streams,
/// from [`REFERENCE_SEED`] for everything else.
#[must_use]
pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    let (base, tag) = match stream {
        Stream::Circuit => (REFERENCE_SEED, 1),
        Stream::Stir => (REFERENCE_SEED, 2),
        Stream::Fixture => (REFERENCE_SEED, 3),
        Stream::Probe => (REFERENCE_SEED, 4),
        Stream::Moves(chain) => (seed, 1 << 16 | chain),
        Stream::Accept(chain) => (seed, 2 << 16 | chain),
        Stream::Client => (seed, 3 << 16),
    };
    base.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Input {
    /// The circuit.
    pub circuit: Circuit,
    /// Pin, congestion and raster pitch.
    pub pitch: Um,
    /// The floorplan every SA chain starts from.
    pub start: PolishExpr,
    /// `start`, packed.
    pub placement: Placement,
    /// `start`'s 2-pin segments: the served initial state and the maps
    /// phase's input.
    pub segments: Vec<(Point, Point)>,
}

impl Input {
    /// Generates the inputs of `workload`.
    ///
    /// # Errors
    ///
    /// The generator's error, when the synthetic circuit is invalid.
    pub fn generate(workload: Workload) -> Result<Input, String> {
        let (circuit, start, pitch) = match workload {
            Workload::Ami49 => {
                let circuit = McncCircuit::Ami49.circuit();
                let pitch = Um(McncCircuit::Ami49.paper_grid_pitch_um());
                let start = fixture_anneal(&circuit, pitch);
                (circuit, start, pitch)
            }
            Workload::Syn10k => {
                let circuit = CircuitGenerator::new("syn-10k", 10_000, 15_000)
                    .seed(stream_seed(REFERENCE_SEED, Stream::Circuit))
                    .generate()
                    .map_err(|err| format!("syn10k circuit: {err}"))?;
                let start = stirred(&circuit);
                // The comparison harness's synthetic pitch: the chip side
                // over 64, floored at the paper's 30 µm.
                let chip = pack(&start, &circuit).chip();
                let pitch = Um((chip.width().0.max(chip.height().0) / 64).max(30));
                (circuit, start, pitch)
            }
        };
        let placement = start.place(&circuit);
        let segments = two_pin_segments(&circuit, &placement, &PinPlacer::new(pitch));
        Ok(Input {
            circuit,
            pitch,
            start,
            placement,
            segments,
        })
    }
}

/// The initial Polish expression stirred by a random walk, as the
/// comparison harness builds its synthetic floorplans.
fn stirred(circuit: &Circuit) -> PolishExpr {
    let n = circuit.modules().len();
    let mut expr = PolishExpr::initial(n);
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(REFERENCE_SEED, Stream::Stir));
    for _ in 0..(4 * n).min(20_000) {
        // The trait method: `PolishExpr::perturb(Move, ..)` shadows it.
        FloorplanRepr::perturb(&mut expr, &mut rng);
    }
    expr
}

/// A quick area+wire anneal (60 temperatures × 60 moves, cooling 0.8)
/// driven through the `Problem` trait, so small MCNC circuits start from
/// a floorplan a floorplanner would emit rather than a degenerate strip.
fn fixture_anneal(circuit: &Circuit, pitch: Um) -> PolishExpr {
    let problem = FloorplanProblem::new(
        circuit,
        pitch,
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(REFERENCE_SEED, Stream::Fixture));
    let mut state = problem.initial_state();
    let mut cost = problem.cost(&state);
    let mut uphill = Vec::new();
    for _ in 0..64 {
        let mut probe = state.clone();
        problem.perturb(&mut probe, &mut rng);
        let delta = problem.cost(&probe) - cost;
        if delta > 0.0 {
            uphill.push(delta);
        }
    }
    // Start where a typical uphill move is accepted with probability
    // 0.95, as the annealer's own schedule does.
    let mut t = if uphill.is_empty() {
        1.0
    } else {
        stats::median(&uphill) / (1.0_f64 / 0.95).ln()
    };
    let (mut best, mut best_cost) = (state.clone(), cost);
    for _ in 0..60 {
        for _ in 0..60 {
            let mut candidate = state.clone();
            problem.perturb(&mut candidate, &mut rng);
            let candidate_cost = problem.cost(&candidate);
            if stats::metropolis_accept(candidate_cost - cost, t, rng.gen::<f64>()) {
                state = candidate;
                cost = candidate_cost;
                if cost < best_cost {
                    best = state.clone();
                    best_cost = cost;
                }
            }
        }
        t *= 0.8;
    }
    best
}
