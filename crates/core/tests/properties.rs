//! Property-based tests for the congestion models' mathematical
//! invariants.

use irgrid_core::irregular::{block_probability_approx, block_probability_exact, ApproxConfig};
use irgrid_core::num::{binomial_u128, LnFactorials};
use irgrid_core::score::{top_area_fraction_mean, top_fraction_mean};
use irgrid_core::{
    CongestionModel, DeltaCongestion, DeltaCongestionSession, Evaluator, FixedGridModel,
    IrregularGridModel, NetType, RoutingRange, SpatialCongestion, UnitGrid,
};
use irgrid_geom::{Point, Rect, Um};
use proptest::prelude::*;

fn arb_net_type() -> impl Strategy<Value = NetType> {
    prop_oneof![Just(NetType::TypeI), Just(NetType::TypeII)]
}

/// Routing ranges up to 40x40 cells (keeps brute-force path DP in u128).
fn arb_range() -> impl Strategy<Value = RoutingRange> {
    (1i64..40, 1i64..40, arb_net_type())
        .prop_map(|(g1, g2, t)| RoutingRange::from_cells(0, 0, g1, g2, t))
}

/// A valid block inside the given range dimensions.
fn arb_block(g1: i64, g2: i64) -> impl Strategy<Value = (i64, i64, i64, i64)> {
    (0..g1, 0..g2)
        .prop_flat_map(move |(x1, y1)| (x1..g1, y1..g2).prop_map(move |(x2, y2)| (x1, x2, y1, y2)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn formula2_probabilities_in_unit_interval(range in arb_range()) {
        let lf = LnFactorials::up_to(range.max_factorial_arg() + 2);
        for x in 0..range.g1() {
            for y in 0..range.g2() {
                let p = range.cell_probability(&lf, x, y);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "P({x},{y}) = {p}");
            }
        }
    }

    #[test]
    fn formula2_diagonals_sum_to_one(range in arb_range()) {
        // Each monotone route crosses every anti-diagonal of its range
        // exactly once.
        let lf = LnFactorials::up_to(range.max_factorial_arg() + 2);
        let (g1, g2) = (range.g1(), range.g2());
        for d in 0..(g1 + g2 - 1) {
            let sum: f64 = (0..g1)
                .filter_map(|x| {
                    let y = match range.net_type() {
                        NetType::TypeI => d - x,
                        NetType::TypeII => g2 - 1 - (d - x),
                    };
                    range.contains_local(x, y).then(|| range.cell_probability(&lf, x, y))
                })
                .sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "diagonal {d}: {sum}");
        }
    }

    #[test]
    fn formula3_matches_single_cells(range in arb_range()) {
        let lf = LnFactorials::up_to(range.max_factorial_arg() + 2);
        // Sample a few cells rather than the full quadratic sweep.
        for (x, y) in [(0, 0), (range.g1() - 1, range.g2() - 1), (range.g1() / 2, range.g2() / 2)] {
            let block = block_probability_exact(&range, &lf, x, x, y, y);
            let cell = range.cell_probability(&lf, x, y);
            prop_assert!((block - cell).abs() < 1e-9, "({x},{y}): {block} vs {cell}");
        }
    }

    #[test]
    fn formula3_monotone_under_block_growth(
        (range, block) in arb_range().prop_flat_map(|r| {
            let (g1, g2) = (r.g1(), r.g2());
            (Just(r), arb_block(g1, g2))
        })
    ) {
        let lf = LnFactorials::up_to(range.max_factorial_arg() + 2);
        let (x1, x2, y1, y2) = block;
        let p = block_probability_exact(&range, &lf, x1, x2, y1, y2);
        prop_assert!((0.0..=1.0).contains(&p));
        // Growing the block in any legal direction never lowers P.
        if x1 > 0 {
            let bigger = block_probability_exact(&range, &lf, x1 - 1, x2, y1, y2);
            prop_assert!(bigger >= p - 1e-9, "grow left: {bigger} < {p}");
        }
        if x2 < range.g1() - 1 {
            let bigger = block_probability_exact(&range, &lf, x1, x2 + 1, y1, y2);
            prop_assert!(bigger >= p - 1e-9, "grow right: {bigger} < {p}");
        }
        if y2 < range.g2() - 1 {
            let bigger = block_probability_exact(&range, &lf, x1, x2, y1, y2 + 1);
            prop_assert!(bigger >= p - 1e-9, "grow up: {bigger} < {p}");
        }
    }

    #[test]
    fn formula3_full_range_is_one(range in arb_range()) {
        let lf = LnFactorials::up_to(range.max_factorial_arg() + 2);
        let p = block_probability_exact(&range, &lf, 0, range.g1() - 1, 0, range.g2() - 1);
        prop_assert!((p - 1.0).abs() < 1e-9, "full range P = {p}");
    }

    #[test]
    fn theorem1_tracks_formula3(
        (range, block) in (8i64..40, 8i64..40, arb_net_type())
            .prop_map(|(g1, g2, t)| RoutingRange::from_cells(0, 0, g1, g2, t))
            .prop_flat_map(|r| {
                let (g1, g2) = (r.g1(), r.g2());
                (Just(r), arb_block(g1, g2))
            })
    ) {
        // Skip pin blocks (handled by step 3.1, not the approximation)
        // and blocks containing the §4.5 error-making cells. The
        // production model never evaluates the latter either: merging
        // cutting lines at twice the pitch guarantees every boundary
        // IR-grid is at least two cells wide/tall, so an error cell always
        // shares its IR-grid with the adjacent pin and is scored 1.
        let (x1, x2, y1, y2) = block;
        let (g1, g2) = (range.g1(), range.g2());
        let mut excluded: Vec<(i64, i64)> = range.pin_cells().to_vec();
        match range.net_type() {
            NetType::TypeI => {
                excluded.extend([(0, 0), (g1 - 2, g2 - 1), (g1 - 1, g2 - 2), (g1 - 1, g2 - 1)]);
            }
            NetType::TypeII => {
                excluded.extend([(0, g2 - 1), (g1 - 2, 0), (g1 - 1, 1), (g1 - 1, 0)]);
            }
        }
        let touches = excluded
            .iter()
            .any(|&(px, py)| (x1..=x2).contains(&px) && (y1..=y2).contains(&py));
        prop_assume!(!touches);
        let lf = LnFactorials::up_to(range.max_factorial_arg() + 2);
        let exact = block_probability_exact(&range, &lf, x1, x2, y1, y2);
        let approx = block_probability_approx(&range, x1, x2, y1, y2, &ApproxConfig::default());
        // The paper's bound is 0.05 per Function value; block sums stay
        // within a slightly looser absolute envelope.
        prop_assert!(
            (exact - approx).abs() < 0.08,
            "block [{x1},{x2}]x[{y1},{y2}] of {}x{} {:?}: exact {exact} vs approx {approx}",
            range.g1(), range.g2(), range.net_type()
        );
    }

    #[test]
    fn exact_binomial_symmetry_and_bounds(n in 0u64..80, k in 0u64..80) {
        let c = binomial_u128(n, k);
        if k > n {
            prop_assert_eq!(c, 0);
        } else {
            prop_assert_eq!(c, binomial_u128(n, n - k));
            prop_assert!(c >= 1);
        }
    }

    #[test]
    fn top_fraction_mean_bounds(values in prop::collection::vec(0.0f64..100.0, 1..50),
                                permille in 1u32..=1000) {
        let frac = permille as f64 / 1000.0;
        let m = top_fraction_mean(&values, frac);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!(m <= max + 1e-9);
        prop_assert!(m >= mean - 1e-9, "top-{frac} mean {m} below plain mean {mean}");
    }

    #[test]
    fn top_area_fraction_mean_bounds(
        cells in prop::collection::vec((0.0f64..10.0, 0.1f64..10.0), 1..40),
        permille in 1u32..=1000,
    ) {
        let frac = permille as f64 / 1000.0;
        let m = top_area_fraction_mean(&cells, frac);
        let max = cells.iter().map(|&(d, _)| d).fold(f64::MIN, f64::max);
        prop_assert!(m <= max + 1e-9);
        prop_assert!(m >= 0.0);
        // Monotone in the fraction: a wider window dilutes or keeps.
        if frac < 0.9 {
            let wider = top_area_fraction_mean(&cells, (frac + 0.1).min(1.0));
            prop_assert!(wider <= m + 1e-9, "wider window {wider} > {m}");
        }
    }
}

/// The intervals merged cut lines can cut a `g`-cell axis into: merged
/// cuts lie at least two cells apart, so an interval is at least two
/// cells wide, and so is each gap it leaves at either end of the axis
/// unless that gap is empty.
fn merged_axis_intervals(g: i64) -> Vec<(i64, i64)> {
    let tileable = |gap: i64| gap == 0 || gap >= 2;
    (0..g)
        .flat_map(|x1| (x1 + 1..g).map(move |x2| (x1, x2)))
        .filter(|&(x1, x2)| tileable(x1) && tileable(g - 1 - x2))
        .collect()
}

#[test]
fn theorem1_tracks_formula3_on_every_merged_block_near_exact_threshold() {
    // The engine scores a range with Theorem 1 once g1 + g2 exceeds
    // `exact_threshold` (10). Sweep every non-pin block merged cut lines
    // can produce on ranges with 11 <= g1 + g2 <= 20, both net types.
    // Thin ranges deviate most: 0.1039 on the 4x16 type I block
    // [0,1]x[3,15], above the 0.08 of `theorem1_tracks_formula3`.
    const BOUND: f64 = 0.11;
    let config = ApproxConfig::default();
    let mut blocks = 0;
    let mut worst = (0.0f64, String::new());
    for sum in 11..=20 {
        for g1 in 2..=sum - 2 {
            let g2 = sum - g1;
            for net_type in [NetType::TypeI, NetType::TypeII] {
                let range = RoutingRange::from_cells(0, 0, g1, g2, net_type);
                let lf = LnFactorials::up_to(range.max_factorial_arg() + 2);
                let pins = range.pin_cells();
                for &(x1, x2) in &merged_axis_intervals(g1) {
                    for &(y1, y2) in &merged_axis_intervals(g2) {
                        let pin_block = pins
                            .iter()
                            .any(|&(px, py)| (x1..=x2).contains(&px) && (y1..=y2).contains(&py));
                        if pin_block {
                            continue;
                        }
                        blocks += 1;
                        let exact = block_probability_exact(&range, &lf, x1, x2, y1, y2);
                        let approx = block_probability_approx(&range, x1, x2, y1, y2, &config);
                        let deviation = (exact - approx).abs();
                        if deviation > worst.0 {
                            worst = (
                                deviation,
                                format!("{g1}x{g2} {net_type:?} block [{x1},{x2}]x[{y1},{y2}]"),
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(blocks, 44_462, "the sweep covers every merged block");
    assert!(
        worst.0 < BOUND,
        "Theorem 1 deviates by {} on the {}",
        worst.0,
        worst.1
    );
}

/// Segment-level invariants of the two full models.
mod model_invariants {
    use super::*;

    fn arb_segments() -> impl Strategy<Value = Vec<(Point, Point)>> {
        prop::collection::vec(
            ((0i64..900, 0i64..900), (0i64..900, 0i64..900)).prop_map(|((ax, ay), (bx, by))| {
                (Point::new(Um(ax), Um(ay)), Point::new(Um(bx), Um(by)))
            }),
            1..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn fixed_mass_counts_expected_crossings(segments in arb_segments()) {
            // Total probability mass = sum over nets of (g1 + g2 - 1):
            // each net crosses one cell per anti-diagonal of its range.
            let chip = Rect::from_origin_size(Point::ORIGIN, Um(900), Um(900));
            let grid = UnitGrid::new(&chip, Um(30));
            let map = FixedGridModel::new(Um(30)).congestion_map(&chip, &segments);
            let expected: f64 = segments
                .iter()
                .map(|&(a, b)| {
                    let r = RoutingRange::from_segment(&grid, a, b);
                    (r.g1() + r.g2() - 1) as f64
                })
                .sum();
            prop_assert!(
                (map.total_mass() - expected).abs() < 1e-6 * expected.max(1.0),
                "mass {} vs expected {expected}",
                map.total_mass()
            );

            // Each net alone, through the `Raster` path: its map sums to 1
            // on every anti-diagonal of its routing range.
            for &(a, b) in &segments {
                let raster = FixedGridModel::new(Um(30)).raster(&chip, &[(a, b)]);
                let r = RoutingRange::from_segment(&grid, a, b);
                let (g1, g2) = (r.g1(), r.g2());
                for d in 0..(g1 + g2 - 1) {
                    let sum: f64 = (0..g1)
                        .filter_map(|x| {
                            let y = match r.net_type() {
                                NetType::TypeI => d - x,
                                NetType::TypeII => g2 - 1 - (d - x),
                            };
                            r.contains_local(x, y).then(|| {
                                let cell = (r.y0() + y) * grid.cols() + r.x0() + x;
                                raster.values()[usize::try_from(cell).expect("in-grid cell")]
                            })
                        })
                        .sum();
                    prop_assert!((sum - 1.0).abs() < 1e-9, "{:?} diagonal {d}: {sum}", r);
                }
            }
        }

        #[test]
        fn models_are_permutation_invariant(segments in arb_segments()) {
            // The fixed grid is equal up to float summation order; the
            // Irregular-Grid sums are exact integers, so equal bit for bit.
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
            let chip = Rect::from_origin_size(Point::ORIGIN, Um(900), Um(900));
            let mut reversed = segments.clone();
            reversed.reverse();
            let fixed = FixedGridModel::new(Um(30));
            let (a, b) = (
                fixed.evaluate(&chip, &segments),
                fixed.evaluate(&chip, &reversed),
            );
            prop_assert!(close(a, b), "fixed: {a} vs {b}");
            let ir = IrregularGridModel::new(Um(30));
            let (a, b) = (ir.evaluate(&chip, &segments), ir.evaluate(&chip, &reversed));
            prop_assert_eq!(a.to_bits(), b.to_bits(), "irregular: {} vs {}", a, b);
        }

        #[test]
        fn pin_swap_invariance(ax in 0i64..900, ay in 0i64..900, bx in 0i64..900, by in 0i64..900) {
            // (a, b) and (b, a) describe the same net.
            let chip = Rect::from_origin_size(Point::ORIGIN, Um(900), Um(900));
            let s1 = vec![(Point::new(Um(ax), Um(ay)), Point::new(Um(bx), Um(by)))];
            let s2 = vec![(Point::new(Um(bx), Um(by)), Point::new(Um(ax), Um(ay)))];
            let fixed = FixedGridModel::new(Um(30));
            prop_assert_eq!(fixed.evaluate(&chip, &s1), fixed.evaluate(&chip, &s2));
            let ir = IrregularGridModel::new(Um(30));
            prop_assert_eq!(ir.evaluate(&chip, &s1), ir.evaluate(&chip, &s2));
        }

        #[test]
        fn one_shot_scores_are_a_fresh_rebase(
            segments in arb_segments(),
            exact in prop_oneof![Just(false), Just(true)],
        ) {
            // `evaluate`, the map's cost and a warm session's proposal
            // are the same bits: one engine scores every path.
            let chip = Rect::from_origin_size(Point::ORIGIN, Um(900), Um(900));
            let mut model = IrregularGridModel::new(Um(30));
            if exact {
                model = model.with_evaluator(Evaluator::Exact);
            }
            let one_shot = model.evaluate(&chip, &segments);
            prop_assert_eq!(
                model.congestion_map(&chip, &segments).cost().to_bits(),
                one_shot.to_bits()
            );
            let mut warm = model.delta_session();
            let mut doubled = segments.clone();
            doubled.extend(segments.iter().copied());
            warm.rebase(&chip, &doubled);
            prop_assert_eq!(warm.propose(&chip, &segments).to_bits(), one_shot.to_bits());
        }

        #[test]
        fn ir_cost_scales_linearly_with_duplicated_nets(segments in arb_segments()) {
            // Duplicating every net doubles every IR-grid total, hence the
            // density metric exactly doubles (the partition is unchanged).
            let chip = Rect::from_origin_size(Point::ORIGIN, Um(900), Um(900));
            let ir = IrregularGridModel::new(Um(30));
            let once = ir.evaluate(&chip, &segments);
            let mut doubled = segments.clone();
            doubled.extend(segments.iter().copied());
            let twice = ir.evaluate(&chip, &doubled);
            prop_assert!(
                (twice - 2.0 * once).abs() < 1e-9 * once.max(1.0),
                "{twice} vs 2x{once}"
            );
        }
    }
}
