//! `compare-all` — the standing accuracy harness (extension).
//!
//! Every congestion predictor in the workspace — the probabilistic
//! generations the paper discusses (fixed-grid, L/Z ensemble,
//! Irregular-Grid) and the five structural baselines from
//! `irgrid-models` — is judged over the same floorplans against *routed*
//! ground truth from two independent substrates: the PathFinder
//! negotiation router and the monotone-staircase early router. Each
//! model's per-cell demand raster is compared with each router's
//! per-cell usage raster (same pitch) on three scale-free metrics:
//! Pearson correlation, mean absolute error after mean-rescaling, and
//! top-10 % hotspot Jaccard overlap.
//!
//! Circuits: the MCNC suite plus `netlist::generator` synthetics at
//! 1 k / 10 k / 50 k modules (`--quick`: apte + the 1 k synthetic). The
//! models, ranked by mean Pearson, land in `BENCH_models.json`. Nothing
//! in the report is timed, so it is a function of the code and the
//! flags: two runs write byte-identical files. Per-model speed is the
//! benchmark package's map suite (`models.*_ms`, `core.*_raster_ms` and
//! `route.staircase_ms` in `benchmark/baseline.json`).

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
    pathfinder_overflow: u64,
    staircase_cuts: usize,
    models: Vec<ModelRow>,
}

#[derive(Debug, Clone, Serialize)]
struct RankEntry {
    model: String,
    mean_pearson: f64,
    mean_scaled_mae: f64,
    mean_hotspot_jaccard: f64,
}

#[derive(Debug, Clone, Serialize)]
struct CompareReport {
    mode: String,
    hotspot_fraction: f64,
    circuits: Vec<CircuitReport>,
    /// Models ranked by mean Pearson (over circuits and both routers),
    /// best first.
    ranking: Vec<RankEntry>,
    /// Does the Irregular-Grid model beat every structural predictor on
    /// at least one accuracy metric, aggregated over the MCNC circuits?
    irregular_beats_structural_on_mcnc: bool,
    /// Same claim aggregated over the `syn-*` circuits — the regime the
    /// paper's model is for (large instances where uniform bounding-box
    /// spreading stops approximating real route distributions).
    irregular_beats_structural_on_synthetics: bool,
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
    let routed = pathfinder.route(&prepared.chip, &prepared.segments);
    let pathfinder_raster = routed.grid.cell_usage_raster();

    let stair = StaircaseRouter::new(StaircaseConfig {
        pitch: prepared.pitch,
        ..StaircaseConfig::default()
    });
    let stair_result = stair.route(&prepared.chip, &prepared.module_rects, &prepared.segments);
    let staircase_raster = stair_result.usage.raster();

    let mut models = Vec::new();
    for model in model_zoo(prepared.pitch) {
        let raster = model.raster(&prepared.chip, &prepared.segments);
        models.push(ModelRow {
            model: model_key(&model.name()),
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
        pathfinder_overflow: routed.total_overflow,
        staircase_cuts: stair_result.cut_count,
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
            }
        })
        .collect();
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
             pathfinder overflow {}, staircase cuts {}",
            c.circuit,
            c.modules,
            c.segments,
            c.grid,
            c.pitch_um,
            c.pathfinder_overflow,
            c.staircase_cuts,
        );
        println!(
            "  {:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "model", "r(PF)", "mae(PF)", "J(PF)", "r(SC)", "mae(SC)", "J(SC)"
        );
        for m in &c.models {
            println!(
                "  {:<22} {:>8.4} {:>8.3} {:>8.4} {:>8.4} {:>8.3} {:>8.4}",
                m.model,
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
    let irregular_wins_mcnc = irregular_beats_structural(&circuits, false);
    let irregular_wins_syn = irregular_beats_structural(&circuits, true);

    println!("\nranking (mean Pearson over circuits x both routers):");
    for e in &ranking {
        println!(
            "  {:<22} r={:.4} mae={:.3} J={:.4}",
            e.model, e.mean_pearson, e.mean_scaled_mae, e.mean_hotspot_jaccard,
        );
    }
    println!(
        "irregular-grid beats every structural predictor on >=1 metric: \
         mcnc {irregular_wins_mcnc}, synthetics {irregular_wins_syn}"
    );

    let report = CompareReport {
        mode: if quick { "quick" } else { "full" }.into(),
        hotspot_fraction: HOTSPOT_FRACTION,
        circuits,
        ranking,
        irregular_beats_structural_on_mcnc: irregular_wins_mcnc,
        irregular_beats_structural_on_synthetics: irregular_wins_syn,
    };
    println!();
    report::emit(out, &report);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nothing in a row is timed, so preparing and scoring one circuit
    /// twice gives the same serialized row, byte for byte.
    #[test]
    fn a_circuit_row_is_a_function_of_its_inputs() {
        let row = || {
            let report = run_circuit(&prepare_synthetic(200));
            serde_json::to_string(&report).expect("report serializes")
        };
        assert_eq!(row(), row());
    }

    /// An agreement whose scaled MAE and Jaccard follow its Pearson, so
    /// one number says how well a model did.
    fn agree(pearson: f64) -> Agreement {
        Agreement {
            pearson,
            scaled_mae: 1.0 - pearson,
            hotspot_jaccard: pearson / 2.0,
        }
    }

    /// A circuit report holding only model rows
    /// `(model, vs_pathfinder, vs_staircase)`.
    fn report(circuit: &str, rows: &[(&str, Agreement, Agreement)]) -> CircuitReport {
        CircuitReport {
            circuit: circuit.into(),
            modules: 0,
            segments: 0,
            pitch_um: 30,
            grid: "1x1".into(),
            pathfinder_overflow: 0,
            staircase_cuts: 0,
            models: rows
                .iter()
                .map(|&(model, pf, sc)| ModelRow {
                    model: model.into(),
                    vs_pathfinder: pf,
                    vs_staircase: sc,
                })
                .collect(),
        }
    }

    #[test]
    fn ranking_orders_models_by_mean_pearson_over_circuits_and_routers() {
        // `b` has the best single agreement but the worst mean.
        let circuits = [
            report(
                "apte",
                &[
                    ("a", agree(0.25), agree(0.5)),
                    ("b", agree(1.0), agree(0.0)),
                    ("c", agree(0.5), agree(0.5)),
                ],
            ),
            report(
                "syn-1k",
                &[
                    ("a", agree(0.75), agree(0.5)),
                    ("b", agree(0.0), agree(0.0)),
                    ("c", agree(0.75), agree(0.75)),
                ],
            ),
        ];
        let ranking = build_ranking(&circuits);
        let order: Vec<(&str, f64, f64, f64)> = ranking
            .iter()
            .map(|e| {
                (
                    e.model.as_str(),
                    e.mean_pearson,
                    e.mean_scaled_mae,
                    e.mean_hotspot_jaccard,
                )
            })
            .collect();
        assert_eq!(
            order,
            [
                ("c", 0.625, 0.375, 0.3125),
                ("a", 0.5, 0.5, 0.25),
                ("b", 0.25, 0.75, 0.125)
            ]
        );
    }

    /// The five structural predictors at `structural` (rent-demand at
    /// `rent`) and the Irregular-Grid model at `irregular`, all against
    /// PathFinder; every staircase agreement is `agree(0.5)`.
    fn zoo_rows(
        irregular: Agreement,
        structural: Agreement,
        rent: Agreement,
    ) -> Vec<(&'static str, Agreement, Agreement)> {
        let mut rows: Vec<(&str, Agreement, Agreement)> = STRUCTURAL
            .iter()
            .map(|&s| {
                let pf = if s == "rent-demand" { rent } else { structural };
                (s, pf, agree(0.5))
            })
            .collect();
        rows.push((IRREGULAR, irregular, agree(0.5)));
        rows
    }

    #[test]
    fn irregular_must_beat_every_structural_predictor_on_one_metric() {
        let base = agree(0.5);
        let claim = |irregular, rent| {
            irregular_beats_structural(&[report("apte", &zoo_rows(irregular, base, rent))], false)
        };
        let sharper = Agreement {
            hotspot_jaccard: 0.5,
            ..base
        };
        let closer = Agreement {
            scaled_mae: 0.25,
            ..base
        };
        // Ties on every metric are no win.
        assert!(!claim(base, base));
        // One metric beaten against all five suffices, and a lower
        // scaled MAE counts as better.
        assert!(claim(sharper, base));
        assert!(claim(closer, base));
        // One structural predictor matching it on that metric cancels it.
        assert!(!claim(sharper, sharper));
        assert!(!claim(closer, closer));
    }

    #[test]
    fn irregular_claims_read_only_their_own_circuits() {
        let base = agree(0.5);
        let better = agree(0.75);
        let circuits = [
            report("apte", &zoo_rows(base, base, base)),
            report("syn-1k", &zoo_rows(better, base, base)),
        ];
        assert!(!irregular_beats_structural(&circuits, false));
        assert!(irregular_beats_structural(&circuits, true));
        // With no circuit of the kind there is nothing to claim.
        assert!(!irregular_beats_structural(&circuits[1..], false));
    }

    #[test]
    fn the_zoo_holds_the_irregular_model_and_every_structural_predictor() {
        let keys: Vec<String> = model_zoo(Um(30))
            .iter()
            .map(|m| model_key(&m.name()))
            .collect();
        assert_eq!(model_key("irregular-grid 30um"), IRREGULAR);
        assert_eq!(keys.len(), 8);
        for key in STRUCTURAL.iter().chain([&IRREGULAR]) {
            assert_eq!(
                keys.iter().filter(|k| k == key).count(),
                1,
                "{key} in {keys:?}"
            );
        }
    }

    #[test]
    fn normalized_rescales_to_mean_one_and_keeps_zero_maps() {
        assert_eq!(normalized(&[1.0, 3.0]), [0.5, 1.5]);
        assert_eq!(normalized(&[0.0, 0.0]), [0.0, 0.0]);
        assert!(normalized(&[]).is_empty());
    }

    #[test]
    fn synthetic_pitch_is_the_longer_side_over_64_floored_at_30um() {
        let chip = |w, h| Rect::from_origin_size(Point::ORIGIN, Um(w), Um(h));
        assert_eq!(synthetic_pitch(&chip(6400, 100)), Um(100));
        assert_eq!(synthetic_pitch(&chip(100, 6400)), Um(100));
        assert_eq!(synthetic_pitch(&chip(640, 640)), Um(30));
    }
}
