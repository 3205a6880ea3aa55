//! Figure 9 (Experiment 2): correctness of the Irregular-Grid estimate.
//!
//! The floorplanner optimizes *only* the IR-grid congestion cost on
//! ami33; at each temperature-dropping step the locally optimized
//! solution is extracted and scored three ways: the IR model at 30 µm
//! (curve A), the judging fixed model at 10 µm (curve B, scaled ×2.5 in
//! the paper), and the judging fixed model at 50 µm (curve C). The
//! paper's claim: "the slopes of curve A and B are more similar than the
//! slopes of curve A and C".

use irgrid::anneal::{Annealer, Schedule};
use irgrid::congestion::{CongestionModel, FixedGridModel, IrregularGridModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

use crate::common::Mode;

/// Pearson correlation of step-to-step differences — the "slope
/// similarity" of two curves.
fn slope_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let da: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let db: Vec<f64> = b.windows(2).map(|w| w[1] - w[0]).collect();
    let n = da.len() as f64;
    let (ma, mb) = (da.iter().sum::<f64>() / n, db.iter().sum::<f64>() / n);
    let mut num = 0.0;
    let (mut va, mut vb) = (0.0, 0.0);
    for i in 0..da.len() {
        let (xa, xb) = (da[i] - ma, db[i] - mb);
        num += xa * xb;
        va += xa * xa;
        vb += xb * xb;
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    num / (va.sqrt() * vb.sqrt())
}

/// The figure's annealing seed.
pub const SEED: u64 = 1;

/// Anneals `bench` on the IR congestion cost alone with annealing seed
/// `seed` and scores up to 20 evenly spaced temperature snapshots:
/// curves A (IR model), B (10 µm judge) and C (50 µm judge).
pub fn curves(mode: &Mode, bench: McncCircuit, seed: u64) -> [Vec<f64>; 3] {
    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());
    eprintln!("[figure9] {bench}: congestion-only annealing with snapshots...");

    let problem = FloorplanProblem::new(
        &circuit,
        pitch,
        Weights::congestion_only(),
        Some(IrregularGridModel::new(pitch)),
    );
    let schedule = Schedule {
        snapshot_per_temperature: true,
        ..mode.schedule
    };
    let result = Annealer::new(schedule).run(&problem, seed);

    // Pick up to 20 evenly spaced temperature snapshots, as in the paper.
    let snapshots = &result.snapshots;
    let take = snapshots.len().min(20);
    let idx = |k: usize| (k * (snapshots.len() - 1)) / (take - 1).max(1);

    let judging10 = FixedGridModel::new(Um(10));
    let judging50 = FixedGridModel::new(Um(50));
    let ir = IrregularGridModel::new(pitch);

    let (mut curve_a, mut curve_b, mut curve_c) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..take {
        // The paper extracts "the intermediate solution at each
        // temperature-dropping step, which is also a locally-optimized
        // solution" — the current state, not the best-so-far.
        let snap = &snapshots[idx(k)];
        let eval = problem.evaluate(&snap.current_state);
        let chip = eval.placement.chip();
        curve_a.push(ir.evaluate(&chip, &eval.segments));
        curve_b.push(judging10.evaluate(&chip, &eval.segments));
        curve_c.push(judging50.evaluate(&chip, &eval.segments));
    }
    [curve_a, curve_b, curve_c]
}

pub fn run(mode: &Mode, bench: McncCircuit) {
    let [curve_a, curve_b, curve_c] = curves(mode, bench, SEED);
    let take = curve_a.len();

    println!("\n=== Figure 9: IR model vs judging models across temperature steps ({bench}) ===");
    println!("mode: {}", mode.label);
    println!(
        "{:>4} {:>14} {:>18} {:>18}",
        "step", "A: IR 30um", "B: judging 10um", "C: judging 50um"
    );
    for k in 0..take {
        println!(
            "{:>4} {:>14.5} {:>18.6} {:>18.5}",
            k + 1,
            curve_a[k],
            curve_b[k],
            curve_c[k]
        );
    }

    let rho_ab = slope_correlation(&curve_a, &curve_b);
    let rho_ac = slope_correlation(&curve_a, &curve_c);
    println!("\nslope correlation A-B (IR vs 10um judge): {rho_ab:.4}");
    println!("slope correlation A-C (IR vs 50um judge): {rho_ac:.4}");

    // The paper aligns the curves by scaling before comparing shapes
    // (it multiplies curve B by 2.5); the scale-free equivalent is the
    // RMS distance between standardized curves.
    let zrms = |a: &[f64], b: &[f64]| -> f64 {
        let z = |v: &[f64]| -> Vec<f64> {
            let n = v.len() as f64;
            let mean = v.iter().sum::<f64>() / n;
            let sd = (v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt();
            v.iter().map(|x| (x - mean) / sd.max(1e-12)).collect()
        };
        let (za, zb) = (z(a), z(b));
        (za.iter()
            .zip(&zb)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            / za.len() as f64)
            .sqrt()
    };
    let rms_ab = zrms(&curve_a, &curve_b);
    let rms_ac = zrms(&curve_a, &curve_c);
    println!("standardized-curve RMS distance A-B: {rms_ab:.4}");
    println!("standardized-curve RMS distance A-C: {rms_ac:.4}");
    println!(
        "paper's claim (curve A tracks B more closely than C): {}",
        if rms_ab <= rms_ac || rho_ab >= rho_ac {
            "REPRODUCED"
        } else {
            "NOT reproduced on this run"
        }
    );
}
