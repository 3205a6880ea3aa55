//! Router-validation experiment (extension beyond the paper).
//!
//! The paper validates its estimates against a finer *estimator* (the
//! 10 µm judging model). The stronger check is an actual router: an
//! estimate is good exactly when it predicts where routing will congest.
//! This experiment scores a set of random floorplans with every model
//! generation the paper discusses — the L/Z ensemble (reference `[3]`),
//! the fixed-grid monotone-ensemble model (reference `[4]`), and the
//! Irregular-Grid model (§4) — and correlates each with the routed
//! top-edge usage and total overflow of a negotiated-congestion global
//! router.

use irgrid::congestion::score::TOP_FRACTION;
use irgrid::congestion::{CongestionModel, FixedGridModel, IrregularGridModel, LzShapeModel};
use irgrid::floorplan::{pack, two_pin_segments, PinPlacer, PolishExpr};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;
use irgrid::route::{GlobalRouter, RouterConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::common::die;
use crate::metrics;

/// Pearson, with input defects fatal: validate builds both series
/// itself, so a defect is a bug, not user error.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    metrics::pearson(a, b).unwrap_or_else(|e| die(&format!("validate correlation: {e}")))
}

pub fn run(bench: McncCircuit, floorplans: usize) {
    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());
    let placer = PinPlacer::new(pitch);
    eprintln!("[validate] {bench}: routing {floorplans} random floorplans...");

    let models: Vec<(&str, Box<dyn CongestionModel>)> = vec![
        (
            "lz-shape (Lou et al. [3])",
            Box::new(LzShapeModel::new(pitch)),
        ),
        (
            "fixed-grid (Sham-Young [4])",
            Box::new(FixedGridModel::new(pitch)),
        ),
        (
            "fixed-grid judging 10um",
            Box::new(FixedGridModel::judging()),
        ),
        (
            "irregular-grid (this paper)",
            Box::new(IrregularGridModel::new(pitch)),
        ),
    ];
    // Capacity chosen so typical floorplans route with real contention
    // (non-trivial overflow/detours) — otherwise there is nothing for the
    // estimates to predict.
    let router = GlobalRouter::new(RouterConfig {
        pitch,
        edge_capacity: 3,
        ..RouterConfig::default()
    });

    // Sample many random floorplans, then keep a same-area cohort: the
    // models predict *where* congestion concentrates for a given packing
    // scale, so comparing floorplans of wildly different chip areas would
    // conflate density normalization with arrangement quality.
    let mut rng = ChaCha8Rng::seed_from_u64(0x7a11_da7e);
    let mut expr = PolishExpr::initial(circuit.modules().len());
    let mut candidates = Vec::new();
    for _ in 0..floorplans * 6 {
        for _ in 0..10 {
            expr.perturb_random(&mut rng);
        }
        let placement = pack(&expr, &circuit);
        candidates.push(placement);
    }
    candidates.sort_by_key(|p| p.area().0);
    // The tightest-area window of `floorplans` consecutive candidates.
    let start = (0..=candidates.len() - floorplans)
        .min_by_key(|&i| candidates[i + floorplans - 1].area().0 - candidates[i].area().0)
        .expect("enough candidates");
    let cohort = &candidates[start..start + floorplans];

    let mut estimates: Vec<Vec<f64>> = vec![Vec::new(); models.len()];
    let (mut routed_top, mut routed_overflow, mut routed_detour) =
        (Vec::new(), Vec::new(), Vec::new());
    for placement in cohort {
        let chip = placement.chip();
        let segments = two_pin_segments(&circuit, placement, &placer);
        for (slot, (_, model)) in estimates.iter_mut().zip(&models) {
            slot.push(model.evaluate(&chip, &segments));
        }
        let result = router.route(&chip, &segments);
        routed_top.push(result.grid.top_fraction_usage(TOP_FRACTION));
        routed_overflow.push(result.total_overflow as f64);
        routed_detour.push(result.detour_edges(&segments) as f64);
    }
    let area_lo = cohort.first().expect("non-empty").area().as_mm2();
    let area_hi = cohort.last().expect("non-empty").area().as_mm2();

    println!("\n=== Router validation ({bench}, {floorplans} random floorplans, capacity 3) ===");
    println!("same-area cohort: chip areas {area_lo:.2}..{area_hi:.2} mm^2");
    println!(
        "{:<30} {:>18} {:>16} {:>14}",
        "model", "corr(top-10% use)", "corr(overflow)", "corr(detour)"
    );
    for (i, (name, _)) in models.iter().enumerate() {
        println!(
            "{:<30} {:>18.4} {:>16.4} {:>14.4}",
            name,
            pearson(&estimates[i], &routed_top),
            pearson(&estimates[i], &routed_overflow),
            pearson(&estimates[i], &routed_detour),
        );
    }
    println!(
        "\nrouted stats: top-10% usage {:.2}..{:.2}, overflow {:.0}..{:.0}, detours {:.0}..{:.0}",
        routed_top.iter().copied().fold(f64::MAX, f64::min),
        routed_top.iter().copied().fold(f64::MIN, f64::max),
        routed_overflow.iter().copied().fold(f64::MAX, f64::min),
        routed_overflow.iter().copied().fold(f64::MIN, f64::max),
        routed_detour.iter().copied().fold(f64::MAX, f64::min),
        routed_detour.iter().copied().fold(f64::MIN, f64::max),
    );
}
