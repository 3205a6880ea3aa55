//! Whole-model evaluation latency: the quantity Experiment 3's run-time
//! columns are made of. One evaluation = one congestion score of a fixed
//! benchmark floorplan.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use irgrid::anneal::{Annealer, RunOptions, Schedule};
use irgrid::congestion::{
    CellArithmetic, CongestionModel, Evaluator, FixedGridModel, IrregularGridModel,
};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::{Point, Rect, Um};
use irgrid::netlist::mcnc::McncCircuit;

/// One annealed floorplan per benchmark, shared by all model benches.
fn floorplan(bench: McncCircuit) -> (Rect, Vec<(Point, Point)>) {
    let circuit = bench.circuit();
    let problem = FloorplanProblem::new(
        &circuit,
        Um(bench.paper_grid_pitch_um()),
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let result = Annealer::new(Schedule::quick())
        .run(&problem, 4, RunOptions::default())
        .expect("finite costs");
    let eval = problem.evaluate(&result.best);
    (eval.placement.chip(), eval.segments)
}

fn bench_fixed_pitch_sweep(c: &mut Criterion) {
    let (chip, segments) = floorplan(McncCircuit::Ami33);
    let mut group = c.benchmark_group("fixed_grid_ami33");
    for pitch in [100i64, 50, 30, 10] {
        let model = FixedGridModel::new(Um(pitch));
        group.bench_with_input(BenchmarkId::new("table", pitch), &model, |b, m| {
            b.iter(|| m.evaluate(black_box(&chip), black_box(&segments)))
        });
        let gamma_model =
            FixedGridModel::new(Um(pitch)).with_arithmetic(CellArithmetic::PerCellGamma);
        group.bench_with_input(BenchmarkId::new("gamma", pitch), &gamma_model, |b, m| {
            b.iter(|| m.evaluate(black_box(&chip), black_box(&segments)))
        });
    }
    group.finish();
}

fn bench_irregular_evaluators(c: &mut Criterion) {
    let (chip, segments) = floorplan(McncCircuit::Ami33);
    let mut group = c.benchmark_group("irregular_ami33");
    let approx = IrregularGridModel::new(Um(30));
    group.bench_function("theorem1", |b| {
        b.iter(|| approx.evaluate(black_box(&chip), black_box(&segments)))
    });
    let exact = IrregularGridModel::new(Um(30)).with_evaluator(Evaluator::Exact);
    group.bench_function("exact_formula3", |b| {
        b.iter(|| exact.evaluate(black_box(&chip), black_box(&segments)))
    });
    let unmerged = IrregularGridModel::new(Um(30)).without_line_merging();
    group.bench_function("theorem1_no_merge", |b| {
        b.iter(|| unmerged.evaluate(black_box(&chip), black_box(&segments)))
    });
    group.finish();
}

fn bench_circuit_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_scaling");
    group.sample_size(20);
    for bench in McncCircuit::ALL {
        let (chip, segments) = floorplan(bench);
        let pitch = Um(bench.paper_grid_pitch_um());
        let ir = IrregularGridModel::new(pitch);
        group.bench_with_input(
            BenchmarkId::new("irregular", bench.name()),
            &(&chip, &segments),
            |b, (chip, segments)| b.iter(|| ir.evaluate(black_box(chip), black_box(segments))),
        );
        let fixed = FixedGridModel::new(Um(50));
        group.bench_with_input(
            BenchmarkId::new("fixed50", bench.name()),
            &(&chip, &segments),
            |b, (chip, segments)| b.iter(|| fixed.evaluate(black_box(chip), black_box(segments))),
        );
    }
    group.finish();
}

fn bench_judging_model(c: &mut Criterion) {
    // The 10 um judging model runs once per final solution; still worth
    // tracking because Experiment 1 judges 2 x 20 x 5 floorplans.
    let (chip, segments) = floorplan(McncCircuit::Hp);
    let judging = FixedGridModel::judging();
    let mut group = c.benchmark_group("judging_model");
    group.sample_size(10);
    group.bench_function("hp_10um", |b| {
        b.iter(|| judging.evaluate(black_box(&chip), black_box(&segments)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fixed_pitch_sweep,
    bench_irregular_evaluators,
    bench_circuit_scaling,
    bench_judging_model
);
criterion_main!(benches);
