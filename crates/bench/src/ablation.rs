//! Ablations of the Irregular-Grid design choices called out in
//! DESIGN.md: Theorem 1 vs exact Formula 3, the Simpson interval count
//! of the quadrature fallback, cutting-line merging, continuity
//! correction, and the fixed-grid baseline's arithmetic mode.

use std::time::Instant;

use irgrid::anneal::{Annealer, Schedule};
use irgrid::congestion::{
    ApproxConfig, CellArithmetic, CongestionModel, Evaluator, FixedGridModel, IrregularGridModel,
};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::{Point, Um};
use irgrid::netlist::mcnc::McncCircuit;

/// Times `model.evaluate` over `reps` repetitions, returning (cost, ms).
fn time_model<M: CongestionModel>(
    model: &M,
    chip: &irgrid::geom::Rect,
    segments: &[(Point, Point)],
    reps: usize,
) -> (f64, f64) {
    let start = Instant::now();
    let mut cost = 0.0;
    for _ in 0..reps {
        cost = model.evaluate(chip, segments);
    }
    (cost, start.elapsed().as_secs_f64() * 1000.0 / reps as f64)
}

pub fn run(bench: McncCircuit) {
    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());
    eprintln!("[ablation] {bench}: producing a reference floorplan...");
    let problem = FloorplanProblem::new(
        &circuit,
        pitch,
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let result = Annealer::new(Schedule::quick()).run(&problem, 2);
    let eval = problem.evaluate(&result.best);
    let chip = eval.placement.chip();
    let segments = &eval.segments;
    let reps = 50;

    println!(
        "\n=== Ablation on {bench} ({} segments, chip {:.2} mm^2) ===",
        segments.len(),
        chip.area().as_mm2()
    );

    // Reference: exact Formula 3 scoring.
    let exact_model = IrregularGridModel::new(pitch).with_evaluator(Evaluator::Exact);
    let (exact_cost, exact_ms) = time_model(&exact_model, &chip, segments, reps);
    // The closed-form exit rows ignore the interval count; only the
    // extreme rows that fall back to Simpson (`ExitKind::Quad`) use it,
    // so this column is expected to be nearly flat.
    println!("\n(a) Simpson intervals of the extreme-row fallback (reference: exact Formula 3 = {exact_cost:.5}, {exact_ms:.3} ms):");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "intervals", "cost", "rel err", "eval (ms)"
    );
    for intervals in [2usize, 4, 6, 8, 16, 32] {
        let model = IrregularGridModel::new(pitch).with_approx_config(ApproxConfig {
            simpson_intervals: intervals,
            continuity_correction: true,
        });
        let (cost, ms) = time_model(&model, &chip, segments, reps);
        println!(
            "{:>10} {:>12.5} {:>12.4} {:>12.3}",
            intervals,
            cost,
            (cost - exact_cost).abs() / exact_cost.max(1e-12),
            ms
        );
    }

    // Continuity correction.
    println!("\n(b) continuity correction (±0.5 integration bounds):");
    for (label, correction) in [
        ("on (default)", true),
        ("off (paper's literal bounds)", false),
    ] {
        let model = IrregularGridModel::new(pitch).with_approx_config(ApproxConfig {
            simpson_intervals: 6,
            continuity_correction: correction,
        });
        let (cost, ms) = time_model(&model, &chip, segments, reps);
        println!(
            "  {:<30} cost {:>10.5} (rel err vs exact {:>7.4}), {:>7.3} ms",
            label,
            cost,
            (cost - exact_cost).abs() / exact_cost.max(1e-12),
            ms
        );
    }

    // Cutting-line merging.
    println!("\n(c) Algorithm step 2 line merging:");
    for (label, merge) in [
        ("on (default, 2x pitch)", true),
        ("off (dedup only)", false),
    ] {
        let model = if merge {
            IrregularGridModel::new(pitch)
        } else {
            IrregularGridModel::new(pitch).without_line_merging()
        };
        let map = model.congestion_map(&chip, segments);
        let (cost, ms) = time_model(&model, &chip, segments, reps);
        println!(
            "  {:<30} {:>6} IR-grids, cost {:>10.5}, {:>7.3} ms",
            label,
            map.ir_cell_count(),
            cost,
            ms
        );
    }

    // Fixed-grid arithmetic (timing-fidelity of the Table 5 baseline).
    println!("\n(d) fixed-grid baseline arithmetic at 50x50 um:");
    for (label, arithmetic) in [
        ("amortized ln-factorial table", CellArithmetic::TableLookup),
        ("per-cell ln_gamma (2002-era)", CellArithmetic::PerCellGamma),
    ] {
        let model = FixedGridModel::new(Um(50)).with_arithmetic(arithmetic);
        let (cost, ms) = time_model(&model, &chip, segments, reps);
        println!("  {:<30} cost {:>10.5}, {:>7.3} ms", label, cost, ms);
    }

    // Representation: slicing (the paper) vs sequence pair.
    println!("\n(f) floorplan representation (area+wire annealing, seed 2):");
    {
        use irgrid::floorplan::{PolishExpr, SequencePair};
        let annealer = Annealer::new(Schedule::quick());
        let slicing: FloorplanProblem<'_, IrregularGridModel, PolishExpr> =
            FloorplanProblem::with_representation(&circuit, pitch, Weights::area_wire(), None);
        let t = Instant::now();
        let r = annealer.run(&slicing, 2);
        let slicing_eval = slicing.evaluate(&r.best);
        let slicing_t = t.elapsed().as_secs_f64();
        let seqpair: FloorplanProblem<'_, IrregularGridModel, SequencePair> =
            FloorplanProblem::with_representation(&circuit, pitch, Weights::area_wire(), None);
        let t = Instant::now();
        let r = annealer.run(&seqpair, 2);
        let seqpair_eval = seqpair.evaluate(&r.best);
        let seqpair_t = t.elapsed().as_secs_f64();
        println!(
            "  {:<30} area {:>7.3} mm^2, wire {:>8.0} um, {:>5.1} s",
            "Polish expression (slicing)",
            slicing_eval.area_um2 / 1e6,
            slicing_eval.wirelength_um,
            slicing_t
        );
        println!(
            "  {:<30} area {:>7.3} mm^2, wire {:>8.0} um, {:>5.1} s",
            "sequence pair (non-slicing)",
            seqpair_eval.area_um2 / 1e6,
            seqpair_eval.wirelength_um,
            seqpair_t
        );
    }

    // Multi-pin decomposition: MST (the paper) vs star.
    println!("\n(e) multi-pin net decomposition:");
    let placer = irgrid::floorplan::PinPlacer::new(pitch);
    for (label, decomposition) in [
        (
            "MST (paper, Section 5)",
            irgrid::floorplan::Decomposition::Mst,
        ),
        (
            "star from centroid hub",
            irgrid::floorplan::Decomposition::Star,
        ),
    ] {
        let segs = irgrid::floorplan::two_pin_segments_with(
            &circuit,
            &eval.placement,
            &placer,
            decomposition,
        );
        let wire: i64 = segs.iter().map(|(a, b)| a.manhattan_distance(*b).0).sum();
        let ir_cost = IrregularGridModel::new(pitch).evaluate(&chip, &segs);
        println!(
            "  {:<30} {:>4} segments, wire {:>8} um, IR cost {:>8.5}",
            label,
            segs.len(),
            wire,
            ir_cost
        );
    }
}
