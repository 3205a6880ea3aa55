//! Irregular-Grid engine microbenchmarks: what the `congestion-perf`
//! subcommand reports as one number, broken down per configuration and
//! workload size. Fixtures are synthetic segment sets (deterministic
//! LCG) so the benches measure the evaluator, not the annealer. The
//! exact Formula 3 evaluator is timed on ami33 in `congestion_models`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use irgrid::congestion::{CongestionModel, IrregularGridModel};
use irgrid::geom::{Point, Rect, Um};

/// `(label, segment count, chip extent in µm)` — small fits one IR-grid
/// handful, large approaches an ami49-scale map.
const SIZES: [(&str, usize, i64); 3] = [
    ("small", 12, 900),
    ("medium", 80, 3000),
    ("large", 250, 9000),
];

/// Deterministic pseudo-random segments; the fixture must not drift
/// between benchmark runs.
fn synthetic_segments(n: usize, extent: i64) -> Vec<(Point, Point)> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64).rem_euclid(extent)
    };
    (0..n)
        .map(|_| {
            (
                Point::new(Um(next()), Um(next())),
                Point::new(Um(next()), Um(next())),
            )
        })
        .collect()
}

fn chip(extent: i64) -> Rect {
    Rect::from_origin_size(Point::ORIGIN, Um(extent), Um(extent))
}

/// One-shot `evaluate` (a fresh session per call) across workload sizes.
fn bench_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("congestion_eval");
    for (label, n, extent) in SIZES {
        let chip = chip(extent);
        let segments = synthetic_segments(n, extent - 10);
        let model = IrregularGridModel::new(Um(30));
        group.bench_with_input(
            BenchmarkId::new("fresh", label),
            &segments,
            |b, segments| b.iter(|| model.evaluate(black_box(&chip), black_box(segments))),
        );
    }
    group.finish();
}

/// Full map extraction (cuts + dequantized totals); compare with
/// `congestion_eval/fresh/medium`, the cost-only evaluation.
fn bench_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("congestion_map");
    let (label, n, extent) = SIZES[1];
    let chip = chip(extent);
    let segments = synthetic_segments(n, extent - 10);
    let model = IrregularGridModel::new(Um(30));
    group.bench_with_input(BenchmarkId::new("map", label), &segments, |b, segments| {
        b.iter(|| model.congestion_map(black_box(&chip), black_box(segments)))
    });
    group.finish();
}

criterion_group!(benches, bench_evaluate, bench_map);
criterion_main!(benches);
