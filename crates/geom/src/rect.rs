//! Axis-aligned rectangles.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Point, Um, UmArea};

/// An axis-aligned rectangle, closed on all four sides.
///
/// Rectangles may be degenerate in either axis: the routing range of a
/// 2-pin net whose pins are horizontally aligned is a zero-height rectangle
/// (the paper's "line" case), and a net whose pins coincide is a single
/// point.
///
/// # Examples
///
/// ```
/// use irgrid_geom::{Point, Rect, Um};
///
/// let r = Rect::from_corner_points(
///     Point::new(Um(10), Um(40)),
///     Point::new(Um(30), Um(0)),
/// );
/// assert_eq!(r.ll(), Point::new(Um(10), Um(0)));
/// assert_eq!(r.ur(), Point::new(Um(30), Um(40)));
/// assert_eq!(r.area().0, 20 * 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    ll: Point,
    ur: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    ///
    /// Panics if `ll` is not component-wise ≤ `ur`.
    #[must_use]
    pub fn new(ll: Point, ur: Point) -> Rect {
        assert!(
            ll.x <= ur.x && ll.y <= ur.y,
            "lower-left corner {ll} must not exceed upper-right corner {ur}"
        );
        Rect { ll, ur }
    }

    /// Creates the bounding box of two arbitrary corner points.
    ///
    /// This is exactly the "routing range" construction of the paper: the
    /// bounding box of a 2-pin net's pins.
    #[must_use]
    pub fn from_corner_points(a: Point, b: Point) -> Rect {
        Rect {
            ll: a.min(b),
            ur: a.max(b),
        }
    }

    /// Creates a rectangle from its origin and extents.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    #[must_use]
    pub fn from_origin_size(origin: Point, width: Um, height: Um) -> Rect {
        assert!(
            width >= Um::ZERO && height >= Um::ZERO,
            "rect extents must be non-negative, got {width} x {height}"
        );
        Rect {
            ll: origin,
            ur: Point::new(origin.x + width, origin.y + height),
        }
    }

    /// Lower-left corner.
    #[must_use]
    pub fn ll(&self) -> Point {
        self.ll
    }

    /// Upper-right corner.
    #[must_use]
    pub fn ur(&self) -> Point {
        self.ur
    }

    /// Width (`ur.x - ll.x`).
    #[must_use]
    pub fn width(&self) -> Um {
        self.ur.x - self.ll.x
    }

    /// Height (`ur.y - ll.y`).
    #[must_use]
    pub fn height(&self) -> Um {
        self.ur.y - self.ll.y
    }

    /// Area in µm².
    #[must_use]
    pub fn area(&self) -> UmArea {
        self.width() * self.height()
    }

    /// Center point, rounded down to integer micrometers.
    #[must_use]
    pub fn center(&self) -> Point {
        Point::new(self.ll.x + self.width() / 2, self.ll.y + self.height() / 2)
    }

    /// Whether the rectangle has zero area (a line or a point).
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.width() == Um::ZERO || self.height() == Um::ZERO
    }

    /// Whether `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        self.ll.x <= p.x && p.x <= self.ur.x && self.ll.y <= p.y && p.y <= self.ur.y
    }

    /// Whether `other` lies entirely within `self` (boundaries may touch).
    #[must_use]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains(other.ll) && self.contains(other.ur)
    }

    /// The overlap with `other`, or `None` if they are disjoint.
    ///
    /// Rectangles that merely touch overlap in a degenerate rectangle.
    #[must_use]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let ll = self.ll.max(other.ll);
        let ur = self.ur.min(other.ur);
        (ll.x <= ur.x && ll.y <= ur.y).then_some(Rect { ll, ur })
    }

    /// Whether `self` and `other` overlap with positive area.
    #[must_use]
    pub fn overlaps_area(&self, other: &Rect) -> bool {
        self.intersection(other).is_some_and(|r| !r.is_degenerate())
    }

    /// The smallest rectangle covering both `self` and `other`.
    #[must_use]
    pub fn hull(&self, other: &Rect) -> Rect {
        Rect {
            ll: self.ll.min(other.ll),
            ur: self.ur.max(other.ur),
        }
    }

    /// Translates by `(dx, dy)`.
    #[must_use]
    pub fn translated(&self, dx: Um, dy: Um) -> Rect {
        let d = Point::new(dx, dy);
        Rect {
            ll: self.ll + d,
            ur: self.ur + d,
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.ll, self.ur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::new(Point::new(Um(x0), Um(y0)), Point::new(Um(x1), Um(y1)))
    }

    #[test]
    fn from_corner_points_normalizes() {
        let r = Rect::from_corner_points(Point::new(Um(5), Um(1)), Point::new(Um(2), Um(9)));
        assert_eq!(r, rect(2, 1, 5, 9));
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn new_rejects_inverted_corners() {
        let _ = rect(5, 0, 4, 1);
    }

    #[test]
    fn extent_accessors() {
        let r = rect(1, 2, 4, 10);
        assert_eq!(r.width(), Um(3));
        assert_eq!(r.height(), Um(8));
        assert_eq!(r.area(), UmArea(24));
        assert_eq!(r.center(), Point::new(Um(2), Um(6)));
    }

    #[test]
    fn degenerate_shapes() {
        assert!(rect(0, 0, 0, 5).is_degenerate()); // vertical line
        assert!(rect(0, 0, 5, 0).is_degenerate()); // horizontal line
        assert!(rect(3, 3, 3, 3).is_degenerate()); // point
        assert!(!rect(0, 0, 1, 1).is_degenerate());
    }

    #[test]
    fn containment() {
        let outer = rect(0, 0, 10, 10);
        // Closed on every edge.
        for (x, y) in [(0, 0), (10, 10), (0, 10), (10, 0), (5, 5)] {
            assert!(outer.contains(Point::new(Um(x), Um(y))), "({x}, {y})");
        }
        for (x, y) in [(-1, 5), (11, 5), (5, -1), (5, 11)] {
            assert!(!outer.contains(Point::new(Um(x), Um(y))), "({x}, {y})");
        }
        assert!(outer.contains_rect(&rect(1, 1, 9, 9)));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&rect(1, 1, 11, 9)));
        assert!(!outer.contains_rect(&rect(-1, 1, 9, 9)));
        // A point rectangle contains exactly itself.
        let point = rect(4, 4, 4, 4);
        assert!(point.contains_rect(&point));
        assert!(!point.contains(Point::new(Um(4), Um(5))));
    }

    #[test]
    fn intersection_and_overlap() {
        let a = rect(0, 0, 10, 10);
        let b = rect(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(rect(5, 5, 10, 10)));
        assert!(a.overlaps_area(&b));
        // Touching edge: degenerate overlap, no positive-area overlap.
        let c = rect(10, 0, 20, 10);
        assert_eq!(a.intersection(&c), Some(rect(10, 0, 10, 10)));
        assert!(!a.overlaps_area(&c));
        // Touching corners: a point.
        assert_eq!(
            a.intersection(&rect(10, 10, 20, 20)),
            Some(rect(10, 10, 10, 10))
        );
        // Disjoint, and overlapping in one axis only.
        assert_eq!(a.intersection(&rect(11, 11, 12, 12)), None);
        assert_eq!(a.intersection(&rect(2, 11, 8, 12)), None);
    }

    #[test]
    fn contains_rect_checks_each_axis() {
        let outer = rect(0, 0, 10, 10);
        // Inside in x, outside in y (and the reverse).
        assert!(!outer.contains_rect(&rect(1, 1, 9, 11)));
        assert!(!outer.contains_rect(&rect(1, -1, 9, 9)));
        assert!(!outer.contains_rect(&rect(-1, 1, 9, 9)));
        assert!(!outer.contains_rect(&rect(1, 1, 11, 9)));
        // Lines flush with an edge are inside.
        assert!(outer.contains_rect(&rect(0, 0, 0, 10)));
        assert!(outer.contains_rect(&rect(0, 10, 10, 10)));
    }

    #[test]
    fn degenerate_intersections() {
        // A horizontal and a vertical line cross in a point.
        assert_eq!(
            rect(0, 5, 10, 5).intersection(&rect(3, 0, 3, 10)),
            Some(rect(3, 5, 3, 5))
        );
        // Collinear lines overlap in a line.
        assert_eq!(
            rect(0, 5, 10, 5).intersection(&rect(4, 5, 20, 5)),
            Some(rect(4, 5, 10, 5))
        );
        // Parallel lines one unit apart do not meet.
        assert_eq!(rect(0, 5, 10, 5).intersection(&rect(0, 6, 10, 6)), None);
        // A point meets a rectangle in itself exactly when it is inside.
        let point = rect(10, 4, 10, 4);
        assert_eq!(rect(0, 0, 10, 10).intersection(&point), Some(point));
        assert_eq!(rect(0, 0, 9, 10).intersection(&point), None);
    }

    #[test]
    fn hull_and_translate() {
        let h = rect(0, 0, 1, 1).hull(&rect(5, 7, 6, 9));
        assert_eq!(h, rect(0, 0, 6, 9));
        assert_eq!(
            rect(0, 0, 1, 1).translated(Um(3), Um(-2)),
            rect(3, -2, 4, -1)
        );
    }
}
