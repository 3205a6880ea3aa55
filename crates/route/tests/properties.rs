//! Property-based tests for the global router.

use irgrid_geom::{Point, Rect, Um};
use irgrid_route::{GlobalRouter, RouterConfig};
use proptest::prelude::*;

fn arb_segments() -> impl Strategy<Value = Vec<(Point, Point)>> {
    prop::collection::vec(
        ((0i64..600, 0i64..600), (0i64..600, 0i64..600)).prop_map(|((ax, ay), (bx, by))| {
            (Point::new(Um(ax), Um(ay)), Point::new(Um(bx), Um(by)))
        }),
        1..14,
    )
}

fn router(capacity: u32) -> GlobalRouter {
    GlobalRouter::new(RouterConfig {
        pitch: Um(30),
        edge_capacity: capacity,
        ..RouterConfig::default()
    })
}

fn chip() -> Rect {
    Rect::from_origin_size(Point::ORIGIN, Um(600), Um(600))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn usage_equals_routed_edges(segments in arb_segments(), capacity in 1u32..6) {
        let result = router(capacity).route(&chip(), &segments);
        let grid = &result.grid;
        let mut usage = 0u64;
        for y in 0..grid.grid().rows() {
            for x in 0..grid.grid().cols() - 1 {
                usage += u64::from(grid.h_edge(x, y).usage);
            }
        }
        for y in 0..grid.grid().rows() - 1 {
            for x in 0..grid.grid().cols() {
                usage += u64::from(grid.v_edge(x, y).usage);
            }
        }
        prop_assert_eq!(usage, result.routed_edges);
    }

    #[test]
    fn routed_length_at_least_manhattan(segments in arb_segments()) {
        let result = router(4).route(&chip(), &segments);
        // detour_edges computes routed - lower bound; it must not wrap.
        let lower: u64 = segments
            .iter()
            .map(|&(a, b)| {
                let (ax, ay) = result.grid.cell_of(a);
                let (bx, by) = result.grid.cell_of(b);
                ((ax - bx).abs() + (ay - by).abs()) as u64
            })
            .sum();
        prop_assert!(result.routed_edges >= lower);
        prop_assert_eq!(result.detour_edges(&segments), result.routed_edges - lower);
    }

    #[test]
    fn deterministic_across_runs(segments in arb_segments(), capacity in 1u32..6) {
        let a = router(capacity).route(&chip(), &segments);
        let b = router(capacity).route(&chip(), &segments);
        prop_assert_eq!(a.routed_edges, b.routed_edges);
        prop_assert_eq!(a.total_overflow, b.total_overflow);
        prop_assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn generous_capacity_routes_without_overflow(segments in arb_segments()) {
        // Capacity >= net count can always absorb everything on the
        // shortest paths.
        let result = router(14).route(&chip(), &segments);
        prop_assert_eq!(result.total_overflow, 0);
        prop_assert_eq!(result.iterations, 1);
    }

    #[test]
    fn overflow_monotone_in_capacity(segments in arb_segments()) {
        let tight = router(1).route(&chip(), &segments);
        let mid = router(2).route(&chip(), &segments);
        let loose = router(8).route(&chip(), &segments);
        prop_assert!(loose.total_overflow <= mid.total_overflow);
        // Negotiation is heuristic, so strict monotonicity between
        // adjacent capacities is not guaranteed; a generous bound guards
        // against inverted accounting.
        prop_assert!(mid.total_overflow <= tight.total_overflow + 2);
    }

    #[test]
    fn overflow_counts_match_grid(segments in arb_segments(), capacity in 1u32..4) {
        let result = router(capacity).route(&chip(), &segments);
        prop_assert_eq!(result.total_overflow, result.grid.total_overflow());
        if result.total_overflow == 0 {
            prop_assert_eq!(result.grid.overflowed_edges(), 0);
        } else {
            prop_assert!(result.grid.overflowed_edges() > 0);
        }
        prop_assert!(result.grid.peak_usage() >= capacity || result.total_overflow == 0);
    }
}

mod staircase_properties {
    use super::*;
    use irgrid_core::UnitGrid;
    use irgrid_route::{StaircaseConfig, StaircaseRouter};

    /// A deterministic pseudo-placement: full-height blocks with
    /// channels, so the cut tree has real structure to find.
    fn modules() -> Vec<Rect> {
        vec![
            Rect::from_origin_size(Point::new(Um(0), Um(0)), Um(140), Um(280)),
            Rect::from_origin_size(Point::new(Um(160), Um(0)), Um(130), Um(130)),
            Rect::from_origin_size(Point::new(Um(160), Um(150)), Um(130), Um(130)),
            Rect::from_origin_size(Point::new(Um(310), Um(0)), Um(280), Um(280)),
            Rect::from_origin_size(Point::new(Um(0), Um(300)), Um(280), Um(290)),
            Rect::from_origin_size(Point::new(Um(300), Um(300)), Um(290), Um(290)),
        ]
    }

    fn staircase(seed: u64) -> StaircaseRouter {
        StaircaseRouter::new(StaircaseConfig {
            pitch: Um(30),
            seed,
            ..StaircaseConfig::default()
        })
    }

    fn pt(x: i64, y: i64) -> Point {
        Point::new(Um(x), Um(y))
    }

    /// A degenerate input: `(label, chip, segments)`.
    type Case = (&'static str, Rect, Vec<(Point, Point)>);

    fn degenerate_cases() -> Vec<Case> {
        let square = chip();
        let strip = Rect::from_origin_size(Point::ORIGIN, Um(6000), Um(30));
        let tiny = Rect::from_origin_size(Point::ORIGIN, Um(10), Um(7));
        vec![
            ("no segments", square, vec![]),
            (
                "zero-length segment",
                square,
                vec![(pt(100, 100), pt(100, 100))],
            ),
            (
                "every endpoint in one bin",
                square,
                vec![
                    (pt(31, 31), pt(59, 59)),
                    (pt(35, 50), pt(50, 35)),
                    (pt(40, 40), pt(40, 58)),
                ],
            ),
            (
                "endpoints on the far chip edge",
                square,
                vec![
                    (pt(600, 600), pt(0, 0)),
                    (pt(600, 300), pt(300, 600)),
                    (pt(600, 0), pt(600, 600)),
                ],
            ),
            (
                "10x7 chip at pitch 30",
                tiny,
                vec![(pt(0, 0), pt(10, 7)), (pt(5, 0), pt(5, 7))],
            ),
            (
                "6000x30 strip",
                strip,
                vec![
                    (pt(0, 0), pt(6000, 30)),
                    (pt(100, 15), pt(5900, 15)),
                    (pt(3000, 0), pt(3000, 30)),
                ],
            ),
        ]
    }

    #[test]
    fn staircase_survives_degenerate_inputs() {
        for (label, chip, segments) in degenerate_cases() {
            let grid = UnitGrid::new(&chip, Um(30));
            let centre = pt(chip.width().0 / 2, chip.height().0 / 2);
            let module_sets = [
                ("no modules", vec![]),
                (
                    "a zero-area module",
                    vec![Rect::from_origin_size(centre, Um(0), Um(0))],
                ),
                ("one chip-sized module", vec![chip]),
            ];
            let split = segments
                .iter()
                .filter(|&&(a, b)| grid.cell_of(a) != grid.cell_of(b))
                .count();
            for (modules_label, modules) in &module_sets {
                let result = staircase(0).route(&chip, modules, &segments);
                let case = format!("{label} with {modules_label}");
                assert_eq!(result.cut_count + 1, result.leaf_count, "{case}");
                assert_eq!(result.routed_nets, split, "{case}");
                assert_eq!(*result.usage.grid(), grid, "{case}");
                let total: u64 = result.usage.counts().iter().sum();
                assert_eq!(total, result.routed_bins, "{case}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn usage_map_is_bit_identical_across_runs(
            segments in arb_segments(),
            seed in 0u64..8,
        ) {
            let a = staircase(seed).route(&chip(), &modules(), &segments);
            let b = staircase(seed).route(&chip(), &modules(), &segments);
            prop_assert_eq!(a.usage.counts(), b.usage.counts());
            prop_assert_eq!(a.routed_bins, b.routed_bins);
            prop_assert_eq!(a.cut_count, b.cut_count);
        }

        #[test]
        fn usage_map_is_independent_of_net_order(
            segments in arb_segments(),
            rotation in 0usize..14,
            seed in 0u64..8,
        ) {
            let baseline = staircase(seed).route(&chip(), &modules(), &segments);
            let mut reordered = segments.clone();
            reordered.reverse();
            let split = rotation % reordered.len().max(1);
            reordered.rotate_left(split);
            let shuffled = staircase(seed).route(&chip(), &modules(), &reordered);
            prop_assert_eq!(baseline.usage.counts(), shuffled.usage.counts());
            prop_assert_eq!(baseline.routed_bins, shuffled.routed_bins);
        }

        #[test]
        fn usage_conserves_routed_bins(segments in arb_segments(), seed in 0u64..8) {
            let result = staircase(seed).route(&chip(), &modules(), &segments);
            let total: u64 = result.usage.counts().iter().sum();
            prop_assert_eq!(total, result.routed_bins);
            prop_assert!(result.cut_count + 1 == result.leaf_count);
        }
    }
}
