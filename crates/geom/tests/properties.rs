//! Property-based tests for the geometry primitives.

use irgrid_geom::{Point, Rect, Um};
use proptest::prelude::*;

fn arb_um() -> impl Strategy<Value = Um> {
    (-1_000_000i64..1_000_000).prop_map(Um)
}

fn arb_point() -> impl Strategy<Value = Point> {
    (arb_um(), arb_um()).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Rect::from_corner_points(a, b))
}

proptest! {
    #[test]
    fn manhattan_distance_triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.manhattan_distance(c) <= a.manhattan_distance(b) + b.manhattan_distance(c));
    }

    #[test]
    fn manhattan_distance_symmetry(a in arb_point(), b in arb_point()) {
        prop_assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        prop_assert_eq!(a.manhattan_distance(a), Um::ZERO);
    }

    #[test]
    fn rect_intersection_commutes(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
    }

    #[test]
    fn rect_intersection_contained_in_both(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
        }
    }

    #[test]
    fn rect_intersection_holds_exactly_the_common_points(
        a in arb_rect(),
        b in arb_rect(),
        p in arb_point(),
    ) {
        // Sample near the rectangles too, where the closed edges matter.
        let near = Point::new(a.ll().x + Um(p.x.0 % 4), b.ur().y - Um(p.y.0 % 4));
        for q in [p, near, a.ll(), a.ur(), b.ll(), b.ur()] {
            let in_both = a.contains(q) && b.contains(q);
            prop_assert_eq!(a.intersection(&b).is_some_and(|i| i.contains(q)), in_both);
        }
    }

    #[test]
    fn rect_contains_rect_iff_intersection_is_inner(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.contains_rect(&b), a.intersection(&b) == Some(b));
        prop_assert!(a.contains_rect(&a));
        prop_assert_eq!(a.intersection(&a), Some(a));
    }

    #[test]
    fn rect_hull_contains_both(a in arb_rect(), b in arb_rect()) {
        let h = a.hull(&b);
        prop_assert!(h.contains_rect(&a));
        prop_assert!(h.contains_rect(&b));
    }

    #[test]
    fn rect_hull_is_the_smallest_cover(a in arb_rect(), b in arb_rect()) {
        let h = a.hull(&b);
        prop_assert_eq!(h, b.hull(&a));
        // Every edge of the hull is an edge of one of the two.
        prop_assert!(h.ll().x == a.ll().x || h.ll().x == b.ll().x);
        prop_assert!(h.ll().y == a.ll().y || h.ll().y == b.ll().y);
        prop_assert!(h.ur().x == a.ur().x || h.ur().x == b.ur().x);
        prop_assert!(h.ur().y == a.ur().y || h.ur().y == b.ur().y);
        if a.contains_rect(&b) {
            prop_assert_eq!(h, a);
        }
    }

    #[test]
    fn rect_area_matches_extents(r in arb_rect()) {
        prop_assert_eq!(r.area(), r.width() * r.height());
        prop_assert!(r.area().0 >= 0);
    }

    #[test]
    fn rect_contains_own_corners_and_center(r in arb_rect()) {
        prop_assert!(r.contains(r.ll()));
        prop_assert!(r.contains(r.ur()));
        prop_assert!(r.contains(r.center()));
    }

    #[test]
    fn routing_range_contains_both_pins(a in arb_point(), b in arb_point()) {
        let range = Rect::from_corner_points(a, b);
        prop_assert!(range.contains(a));
        prop_assert!(range.contains(b));
        // The half-perimeter of the range is the Manhattan distance.
        prop_assert_eq!(range.width() + range.height(), a.manhattan_distance(b));
    }

    #[test]
    fn div_ceil_floor_bracket(v in 0i64..10_000_000, pitch in 1i64..10_000) {
        let v = Um(v);
        let pitch_um = Um(pitch);
        let up = v.div_ceil(pitch_um);
        let down = v.div_floor(pitch_um);
        prop_assert!(down <= up);
        prop_assert!(up - down <= 1);
        prop_assert!(Um(pitch * up) >= v);
        prop_assert!(Um(pitch * down) <= v);
    }
}
