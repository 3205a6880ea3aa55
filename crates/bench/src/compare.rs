//! `compare-all` — the standing accuracy-vs-speed harness (extension).
//!
//! Every congestion predictor in the workspace — the probabilistic
//! generations the paper discusses (fixed-grid, L/Z ensemble,
//! Irregular-Grid) and the five structural baselines from
//! `irgrid-models` — is raced over the same floorplans against *routed*
//! ground truth from two independent substrates: the PathFinder
//! negotiation router and the monotone-staircase early router. Each
//! model's per-cell demand raster is compared with each router's
//! per-cell usage raster (same pitch) on three scale-free metrics:
//! Pearson correlation, mean absolute error after mean-rescaling, and
//! top-10 % hotspot Jaccard overlap.
//!
//! Circuits: the MCNC suite plus `netlist::generator` synthetics at
//! 1 k / 10 k / 50 k modules (`--quick`: apte + the 1 k synthetic). The
//! ranked frontier — models not dominated in (mean Pearson, build
//! time) — lands in `BENCH_models.json` together with the measured
//! staircase-vs-PathFinder speed ratios.

use std::time::Instant;

use irgrid::congestion::analysis::Raster;
use irgrid::congestion::{FixedGridModel, IrregularGridModel, LzShapeModel, SpatialCongestion};
use irgrid::floorplan::{pack, two_pin_segments, PinPlacer, PolishExpr};
use irgrid::geom::{Point, Rect, Um};
use irgrid::models::{
    NetDemandModel, PinDensityModel, RentDemandModel, SpanDemandModel, WeightedNetDemandModel,
};
use irgrid::netlist::generator::CircuitGenerator;
use irgrid::netlist::mcnc::McncCircuit;
use irgrid::netlist::Circuit;
use irgrid::route::{GlobalRouter, RouterConfig, StaircaseConfig, StaircaseRouter};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::common::{die, Args};
use crate::metrics;
use crate::report;

const HOTSPOT_FRACTION: f64 = 0.1;

/// One model raster vs one routed ground truth.
#[derive(Debug, Clone, Copy, Serialize)]
struct Agreement {
    pearson: f64,
    scaled_mae: f64,
    hotspot_jaccard: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ModelRow {
    model: String,
    build_ms: f64,
    vs_pathfinder: Agreement,
    vs_staircase: Agreement,
}

#[derive(Debug, Clone, Serialize)]
struct CircuitReport {
    circuit: String,
    modules: usize,
    segments: usize,
    pitch_um: i64,
    grid: String,
    pathfinder_ms: f64,
    pathfinder_overflow: u64,
    staircase_ms: f64,
    staircase_cuts: usize,
    staircase_speedup: f64,
    models: Vec<ModelRow>,
}

#[derive(Debug, Clone, Serialize)]
struct RankEntry {
    model: String,
    mean_pearson: f64,
    mean_scaled_mae: f64,
    mean_hotspot_jaccard: f64,
    mean_build_ms: f64,
    on_frontier: bool,
}

#[derive(Debug, Clone, Serialize)]
struct CompareReport {
    mode: String,
    hotspot_fraction: f64,
    circuits: Vec<CircuitReport>,
    /// Models ranked by mean Pearson (over circuits and both routers),
    /// best first.
    ranking: Vec<RankEntry>,
    /// The accuracy-vs-speed Pareto frontier: models no other model
    /// beats on both mean Pearson and build time.
    ranked_frontier: Vec<String>,
    /// Does the Irregular-Grid model beat every structural predictor on
    /// at least one accuracy metric, aggregated over the MCNC circuits?
    irregular_beats_structural_on_mcnc: bool,
    /// Same claim aggregated over the `syn-*` circuits — the regime the
    /// paper's model is for (large instances where uniform bounding-box
    /// spreading stops approximating real route distributions).
    irregular_beats_structural_on_synthetics: bool,
    /// Measured staircase-vs-PathFinder wall-clock ratio on the largest
    /// synthetic routed (the 10 k-module circuit in full mode).
    staircase_speedup_largest_synthetic: f64,
}

/// The model zoo at a given pitch, probabilistic and structural.
fn model_zoo(pitch: Um) -> Vec<Box<dyn SpatialCongestion>> {
    vec![
        Box::new(FixedGridModel::new(pitch)),
        Box::new(LzShapeModel::new(pitch)),
        Box::new(IrregularGridModel::new(pitch)),
        Box::new(PinDensityModel::new(pitch)),
        Box::new(NetDemandModel::new(pitch)),
        Box::new(WeightedNetDemandModel::new(pitch)),
        Box::new(RentDemandModel::new(pitch)),
        Box::new(SpanDemandModel::new(pitch)),
    ]
}

/// Model keys that are structural predictors (for the MCNC ranking
/// check). Matches the `name()` prefix before the pitch suffix.
const STRUCTURAL: [&str; 5] = [
    "pin-density",
    "net-demand",
    "weighted-net-demand",
    "rent-demand",
    "span-demand",
];

const IRREGULAR: &str = "irregular-grid";

/// Strips the pitch suffix (`"irregular-grid 30um"` → `"irregular-grid"`)
/// so rows aggregate across circuits with different pitches.
fn model_key(name: &str) -> String {
    name.split_whitespace().next().unwrap_or(name).to_string()
}

/// A deterministic reference floorplan: the initial Polish expression
/// stirred by a fixed-seed random walk, then packed. No annealing — at
/// 50 k modules the stir stays O(n), and with hundreds of modules the
/// law of large numbers keeps the packing aspect ratio reasonable.
fn stirred_floorplan(circuit: &Circuit) -> PolishExpr {
    let n = circuit.modules().len();
    let mut expr = PolishExpr::initial(n);
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0_a11);
    for _ in 0..(4 * n).min(20_000) {
        expr.perturb_random(&mut rng);
    }
    expr
}

/// MCNC circuits are small enough that an un-annealed packing is
/// degenerate (apte random-packs into a ~3:1 strip), which would judge
/// the predictors on geometry no floorplanner would emit. A quick
/// area+wire anneal gives a realistic reference floorplan in well under
/// a second.
fn annealed_floorplan(circuit: &Circuit) -> PolishExpr {
    let problem = irgrid::floorplanner::FloorplanProblem::new(
        circuit,
        Um(30),
        irgrid::floorplanner::Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    irgrid::anneal::Annealer::new(irgrid::anneal::Schedule::quick())
        .run(&problem, 8, irgrid::anneal::RunOptions::default())
        .expect("finite costs")
        .best
}

/// The comparison pitch: the paper's pitch for MCNC circuits; for
/// synthetics, the chip side over 64 (so router grids stay tractable at
/// 50 k modules), floored at the paper's 30 µm.
fn synthetic_pitch(chip: &Rect) -> Um {
    Um((chip.width().0.max(chip.height().0) / 64).max(30))
}

struct Prepared {
    name: String,
    modules: usize,
    pitch: Um,
    chip: Rect,
    module_rects: Vec<Rect>,
    segments: Vec<(Point, Point)>,
}

fn prepare_mcnc(bench: McncCircuit) -> Prepared {
    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());
    eprintln!("[compare-all] preparing {bench} (anneal)...");
    let expr = annealed_floorplan(&circuit);
    let placement = pack(&expr, &circuit);
    let segments = two_pin_segments(&circuit, &placement, &PinPlacer::new(pitch));
    Prepared {
        name: bench.to_string(),
        modules: circuit.modules().len(),
        pitch,
        chip: placement.chip(),
        module_rects: placement.module_rects().to_vec(),
        segments,
    }
}

fn prepare_synthetic(modules: usize) -> Prepared {
    let name = format!("syn-{}k", modules / 1000);
    eprintln!("[compare-all] preparing {name} (generate)...");
    let circuit = CircuitGenerator::new(name.clone(), modules, modules * 3 / 2)
        .seed(0x5ca1e + modules as u64)
        .generate()
        .unwrap_or_else(|e| die(&format!("synthetic circuit {name}: {e}")));
    eprintln!("[compare-all] preparing {name} (stir)...");
    let expr = stirred_floorplan(&circuit);
    eprintln!("[compare-all] preparing {name} (pack)...");
    let placement = pack(&expr, &circuit);
    let pitch = synthetic_pitch(&placement.chip());
    eprintln!("[compare-all] preparing {name} (segments)...");
    let segments = two_pin_segments(&circuit, &placement, &PinPlacer::new(pitch));
    Prepared {
        name,
        modules,
        pitch,
        chip: placement.chip(),
        module_rects: placement.module_rects().to_vec(),
        segments,
    }
}

/// Edge capacity that yields real but bounded contention: ~3× the
/// average per-edge demand of L-routed nets (tighter caps saturate
/// negotiation on the dense synthetics and turn the ground truth into
/// overflow noise).
fn router_capacity(prepared: &Prepared) -> u32 {
    let grid = irgrid::congestion::UnitGrid::new(&prepared.chip, prepared.pitch);
    let lower: u64 = prepared
        .segments
        .iter()
        .map(|&(a, b)| {
            let (ax, ay) = grid.cell_of(a);
            let (bx, by) = grid.cell_of(b);
            ((ax - bx).abs() + (ay - by).abs()) as u64
        })
        .sum();
    let edges = (2 * grid.cols() * grid.rows()) as u64;
    ((lower * 3) / edges.max(1)).max(3) as u32
}

/// Rescales values to mean 1 so scaled-MAE is comparable *across*
/// models reporting in different units (Pearson and Jaccard are scale
/// invariant anyway). All-zero maps are left untouched.
fn normalized(values: &[f64]) -> Vec<f64> {
    let m = values.iter().sum::<f64>() / values.len().max(1) as f64;
    if m <= 0.0 {
        return values.to_vec();
    }
    values.iter().map(|&v| v / m).collect()
}

fn agreement(model: &Raster, routed: &Raster) -> Agreement {
    let fatal = |e: metrics::MetricError| -> f64 { die(&format!("compare-all metrics: {e}")) };
    let a = normalized(model.values());
    let b = normalized(routed.values());
    Agreement {
        pearson: metrics::pearson(&a, &b).unwrap_or_else(fatal),
        scaled_mae: metrics::scaled_mae(&a, &b).unwrap_or_else(fatal),
        hotspot_jaccard: metrics::hotspot_jaccard(&a, &b, HOTSPOT_FRACTION).unwrap_or_else(fatal),
    }
}

fn run_circuit(prepared: &Prepared) -> CircuitReport {
    let grid = irgrid::congestion::UnitGrid::new(&prepared.chip, prepared.pitch);
    eprintln!(
        "[compare-all] {}: {} modules, {} segments, {}x{} bins @ {}",
        prepared.name,
        prepared.modules,
        prepared.segments.len(),
        grid.cols(),
        grid.rows(),
        prepared.pitch,
    );

    let capacity = router_capacity(prepared);
    let pathfinder = GlobalRouter::new(RouterConfig {
        pitch: prepared.pitch,
        edge_capacity: capacity,
        max_iterations: 5,
        ..RouterConfig::default()
    });
    let t = Instant::now();
    let routed = pathfinder.route(&prepared.chip, &prepared.segments);
    let pathfinder_ms = t.elapsed().as_secs_f64() * 1000.0;
    let pathfinder_raster = routed.grid.cell_usage_raster();

    let stair = StaircaseRouter::new(StaircaseConfig {
        pitch: prepared.pitch,
        ..StaircaseConfig::default()
    });
    let t = Instant::now();
    let stair_result = stair.route(&prepared.chip, &prepared.module_rects, &prepared.segments);
    let staircase_ms = t.elapsed().as_secs_f64() * 1000.0;
    let staircase_raster = stair_result.usage.raster();

    let mut models = Vec::new();
    for model in model_zoo(prepared.pitch) {
        let t = Instant::now();
        let raster = model.raster(&prepared.chip, &prepared.segments);
        let build_ms = t.elapsed().as_secs_f64() * 1000.0;
        models.push(ModelRow {
            model: model_key(&model.name()),
            build_ms,
            vs_pathfinder: agreement(&raster, &pathfinder_raster),
            vs_staircase: agreement(&raster, &staircase_raster),
        });
    }

    CircuitReport {
        circuit: prepared.name.clone(),
        modules: prepared.modules,
        segments: prepared.segments.len(),
        pitch_um: prepared.pitch.0,
        grid: format!("{}x{}", grid.cols(), grid.rows()),
        pathfinder_ms,
        pathfinder_overflow: routed.total_overflow,
        staircase_ms,
        staircase_cuts: stair_result.cut_count,
        staircase_speedup: pathfinder_ms / staircase_ms.max(1e-9),
        models,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn build_ranking(circuits: &[CircuitReport]) -> Vec<RankEntry> {
    let keys: Vec<String> = circuits
        .first()
        .map(|c| c.models.iter().map(|m| m.model.clone()).collect())
        .unwrap_or_default();
    let mut entries: Vec<RankEntry> = keys
        .iter()
        .map(|key| {
            let rows: Vec<&ModelRow> = circuits
                .iter()
                .flat_map(|c| c.models.iter().filter(|m| &m.model == key))
                .collect();
            let both = |f: &dyn Fn(&Agreement) -> f64| -> Vec<f64> {
                rows.iter()
                    .flat_map(|r| [f(&r.vs_pathfinder), f(&r.vs_staircase)])
                    .collect()
            };
            RankEntry {
                model: key.clone(),
                mean_pearson: mean(&both(&|a| a.pearson)),
                mean_scaled_mae: mean(&both(&|a| a.scaled_mae)),
                mean_hotspot_jaccard: mean(&both(&|a| a.hotspot_jaccard)),
                mean_build_ms: mean(&rows.iter().map(|r| r.build_ms).collect::<Vec<_>>()),
                on_frontier: false,
            }
        })
        .collect();

    // Pareto frontier in (mean Pearson ↑, build time ↓).
    for i in 0..entries.len() {
        let dominated = entries.iter().enumerate().any(|(j, other)| {
            j != i
                && other.mean_pearson >= entries[i].mean_pearson
                && other.mean_build_ms <= entries[i].mean_build_ms
                && (other.mean_pearson > entries[i].mean_pearson
                    || other.mean_build_ms < entries[i].mean_build_ms)
        });
        entries[i].on_frontier = !dominated;
    }
    entries.sort_by(|a, b| b.mean_pearson.total_cmp(&a.mean_pearson));
    entries
}

/// Aggregated over the selected circuits (`synthetic` picks the
/// `syn-*` subset, otherwise MCNC): does the Irregular-Grid model beat
/// *every* structural predictor on at least one accuracy metric? An
/// accuracy metric here is one of the six (Pearson, scaled MAE, hotspot
/// Jaccard) × (PathFinder, staircase) combinations — the two ground
/// truths measure different things (achievable routing vs structural
/// pressure), so their agreements are not averaged together.
fn irregular_beats_structural(circuits: &[CircuitReport], synthetic: bool) -> bool {
    let selected: Vec<&CircuitReport> = circuits
        .iter()
        .filter(|c| c.circuit.starts_with("syn-") == synthetic)
        .collect();
    if selected.is_empty() {
        return false;
    }
    let metric_mean = |key: &str, f: &dyn Fn(&ModelRow) -> f64| -> f64 {
        let values: Vec<f64> = selected
            .iter()
            .flat_map(|c| c.models.iter().filter(|m| m.model == key))
            .map(f)
            .collect();
        mean(&values)
    };
    let beats_all = |f: &dyn Fn(&ModelRow) -> f64, higher_is_better: bool| -> bool {
        let ir = metric_mean(IRREGULAR, f);
        STRUCTURAL.iter().all(|s| {
            let sv = metric_mean(s, f);
            if higher_is_better {
                ir > sv
            } else {
                ir < sv
            }
        })
    };
    beats_all(&|m| m.vs_pathfinder.pearson, true)
        || beats_all(&|m| m.vs_staircase.pearson, true)
        || beats_all(&|m| m.vs_pathfinder.hotspot_jaccard, true)
        || beats_all(&|m| m.vs_staircase.hotspot_jaccard, true)
        || beats_all(&|m| m.vs_pathfinder.scaled_mae, false)
        || beats_all(&|m| m.vs_staircase.scaled_mae, false)
}

pub fn run(args: &Args) {
    let quick = args.has("--quick");
    let out = args.value("--out").unwrap_or("BENCH_models.json");

    let prepared: Vec<Prepared> = if quick {
        vec![prepare_mcnc(McncCircuit::Apte), prepare_synthetic(1000)]
    } else {
        let mut all: Vec<Prepared> = McncCircuit::ALL.into_iter().map(prepare_mcnc).collect();
        all.push(prepare_synthetic(1000));
        all.push(prepare_synthetic(10_000));
        all.push(prepare_synthetic(50_000));
        all
    };

    let circuits: Vec<CircuitReport> = prepared.iter().map(run_circuit).collect();

    println!("\n=== compare-all: predictors vs routed ground truth ===");
    for c in &circuits {
        println!(
            "\n{} ({} modules, {} segments, {} bins @ {}um) — \
             pathfinder {:.1} ms (overflow {}), staircase {:.2} ms ({:.0}x)",
            c.circuit,
            c.modules,
            c.segments,
            c.grid,
            c.pitch_um,
            c.pathfinder_ms,
            c.pathfinder_overflow,
            c.staircase_ms,
            c.staircase_speedup,
        );
        println!(
            "  {:<22} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "model", "build ms", "r(PF)", "mae(PF)", "J(PF)", "r(SC)", "mae(SC)", "J(SC)"
        );
        for m in &c.models {
            println!(
                "  {:<22} {:>9.3} {:>8.4} {:>8.3} {:>8.4} {:>8.4} {:>8.3} {:>8.4}",
                m.model,
                m.build_ms,
                m.vs_pathfinder.pearson,
                m.vs_pathfinder.scaled_mae,
                m.vs_pathfinder.hotspot_jaccard,
                m.vs_staircase.pearson,
                m.vs_staircase.scaled_mae,
                m.vs_staircase.hotspot_jaccard,
            );
        }
    }

    let ranking = build_ranking(&circuits);
    let ranked_frontier: Vec<String> = ranking
        .iter()
        .filter(|e| e.on_frontier)
        .map(|e| e.model.clone())
        .collect();
    let irregular_wins_mcnc = irregular_beats_structural(&circuits, false);
    let irregular_wins_syn = irregular_beats_structural(&circuits, true);
    let largest_speedup = circuits
        .iter()
        .filter(|c| c.circuit.starts_with("syn-"))
        .max_by_key(|c| c.modules)
        .map_or(0.0, |c| c.staircase_speedup);

    println!("\nranking (mean Pearson over circuits x both routers):");
    for e in &ranking {
        println!(
            "  {:<22} r={:.4} mae={:.3} J={:.4} build={:.3} ms{}",
            e.model,
            e.mean_pearson,
            e.mean_scaled_mae,
            e.mean_hotspot_jaccard,
            e.mean_build_ms,
            if e.on_frontier { "  [frontier]" } else { "" },
        );
    }
    println!(
        "\naccuracy-vs-speed frontier: {}",
        ranked_frontier.join(", ")
    );
    println!(
        "irregular-grid beats every structural predictor on >=1 metric: \
         mcnc {irregular_wins_mcnc}, synthetics {irregular_wins_syn}"
    );
    println!("staircase speedup on largest synthetic: {largest_speedup:.0}x");

    let report = CompareReport {
        mode: if quick { "quick" } else { "full" }.into(),
        hotspot_fraction: HOTSPOT_FRACTION,
        circuits,
        ranking,
        ranked_frontier,
        irregular_beats_structural_on_mcnc: irregular_wins_mcnc,
        irregular_beats_structural_on_synthetics: irregular_wins_syn,
        staircase_speedup_largest_synthetic: largest_speedup,
    };
    println!();
    report::emit(out, &report);
}
