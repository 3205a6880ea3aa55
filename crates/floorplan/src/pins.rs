//! Pin placement: the intersection-to-intersection scheme.
//!
//! Following Sham & Young (ISPD 2002), which the paper adopts (§2, §5),
//! pins are placed on routing-grid intersections once module positions are
//! known. The Irregular-Grid construction additionally relies on pins
//! lying on cutting lines, which holds by construction because routing
//! ranges are pin bounding boxes.
//!
//! Concretely, for every net we compute the net's center of gravity (mean
//! of member-module centers) and place each member's pin at the grid
//! intersection nearest to the projection of that center onto the module
//! rectangle. This is deterministic, keeps pins on (or in) their modules,
//! and pulls pins toward the net — the behaviour the
//! intersection-to-intersection method is used for in [4].

use irgrid_geom::{Point, Rect, Um};
use serde::{Deserialize, Serialize};

/// Deterministic pin placer with a configurable grid pitch.
///
/// # Examples
///
/// ```
/// use irgrid_floorplan::PinPlacer;
/// use irgrid_geom::{Point, Rect, Um};
///
/// let placer = PinPlacer::new(Um(10));
/// let module = Rect::from_origin_size(Point::new(Um(0), Um(0)), Um(35), Um(35));
/// // Target far to the upper right: pin lands on the module's corner
/// // region, snapped to the 10 um grid.
/// let pin = placer.pin(&module, Point::new(Um(100), Um(100)));
/// assert_eq!(pin, Point::new(Um(30), Um(30)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PinPlacer {
    pitch: Um,
}

impl PinPlacer {
    /// Creates a placer snapping pins to intersections of a `pitch`-spaced
    /// grid.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn new(pitch: Um) -> PinPlacer {
        assert!(pitch > Um::ZERO, "grid pitch must be positive, got {pitch}");
        PinPlacer { pitch }
    }

    /// The grid pitch.
    #[must_use]
    pub fn pitch(&self) -> Um {
        self.pitch
    }

    /// Places the pin of `module` for a net whose center of gravity is
    /// `target`: project `target` onto the module, then snap to the
    /// nearest grid intersection that still lies on the module.
    #[must_use]
    pub fn pin(&self, module: &Rect, target: Point) -> Point {
        let projected = Point::new(
            clamp(target.x, module.ll().x, module.ur().x),
            clamp(target.y, module.ll().y, module.ur().y),
        );
        Point::new(
            snap_within(projected.x, self.pitch, module.ll().x, module.ur().x),
            snap_within(projected.y, self.pitch, module.ll().y, module.ur().y),
        )
    }

    /// Places all pins of one net given its member modules' rectangles.
    ///
    /// Returns one pin per member, in member order. Empty input gives an
    /// empty result.
    #[must_use]
    pub fn place_net(&self, members: &[Rect]) -> Vec<Point> {
        let mut pins = Vec::with_capacity(members.len());
        self.place_net_into(members, &mut pins);
        pins
    }

    /// Like [`place_net`](Self::place_net), but replaces the contents of
    /// `pins`, reusing its capacity.
    pub(crate) fn place_net_into(&self, members: &[Rect], pins: &mut Vec<Point>) {
        pins.clear();
        if members.is_empty() {
            return;
        }
        // Net center of gravity over member-module centers.
        let n = members.len() as i64;
        let sum = members
            .iter()
            .map(Rect::center)
            .fold(Point::ORIGIN, |acc, p| acc + p);
        let cog = Point::new(sum.x / n, sum.y / n);
        pins.extend(members.iter().map(|r| self.pin(r, cog)));
    }
}

fn clamp(v: Um, lo: Um, hi: Um) -> Um {
    v.max(lo).min(hi)
}

/// Rounds `v` to the nearest multiple of `pitch` that stays within
/// `[lo, hi]`; if no multiple lies in the range (module narrower than one
/// pitch), returns the unsnapped clamped value.
fn snap_within(v: Um, pitch: Um, lo: Um, hi: Um) -> Um {
    let half = Um(pitch.0 / 2);
    let snapped = Um(((v + half).0.div_euclid(pitch.0)) * pitch.0);
    if snapped >= lo && snapped <= hi {
        return snapped;
    }
    // Try the nearest multiples on either side.
    let below = Um(v.0.div_euclid(pitch.0) * pitch.0);
    let above = below + pitch;
    if below >= lo && below <= hi {
        below
    } else if above >= lo && above <= hi {
        above
    } else {
        clamp(v, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::new(Point::new(Um(x0), Um(y0)), Point::new(Um(x1), Um(y1)))
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_rejected() {
        let _ = PinPlacer::new(Um(0));
    }

    #[test]
    fn pin_stays_on_module() {
        let placer = PinPlacer::new(Um(30));
        let module = rect(100, 100, 250, 180);
        for target in [
            Point::new(Um(0), Um(0)),
            Point::new(Um(1000), Um(1000)),
            Point::new(Um(150), Um(150)),
            Point::new(Um(99), Um(181)),
        ] {
            let pin = placer.pin(&module, target);
            assert!(
                module.contains(pin),
                "pin {pin} off module for target {target}"
            );
        }
    }

    #[test]
    fn pin_snaps_to_pitch_when_possible() {
        let placer = PinPlacer::new(Um(30));
        let module = rect(100, 100, 250, 180);
        let pin = placer.pin(&module, Point::new(Um(171), Um(140)));
        assert_eq!(pin.x.0 % 30, 0);
        assert_eq!(pin.y.0 % 30, 0);
        assert_eq!(pin, Point::new(Um(180), Um(150)));
    }

    #[test]
    fn narrow_module_keeps_clamped_position() {
        let placer = PinPlacer::new(Um(100));
        // Module narrower than the pitch and not straddling a multiple.
        let module = rect(110, 110, 150, 150);
        let pin = placer.pin(&module, Point::new(Um(500), Um(0)));
        assert_eq!(pin, Point::new(Um(150), Um(110)));
    }

    #[test]
    fn place_net_uses_center_of_gravity() {
        let placer = PinPlacer::new(Um(10));
        // Two modules left and right; pins face each other.
        let a = rect(0, 0, 40, 40);
        let b = rect(200, 0, 240, 40);
        let pins = placer.place_net(&[a, b]);
        assert_eq!(pins.len(), 2);
        // COG is at x=120: a's pin on its right edge, b's on its left edge.
        assert_eq!(pins[0].x, Um(40));
        assert_eq!(pins[1].x, Um(200));
    }

    #[test]
    fn place_net_empty_input() {
        assert!(PinPlacer::new(Um(10)).place_net(&[]).is_empty());
    }

    #[test]
    fn pins_identical_for_identical_inputs() {
        let placer = PinPlacer::new(Um(25));
        let members = [rect(0, 0, 50, 50), rect(100, 100, 160, 130)];
        assert_eq!(placer.place_net(&members), placer.place_net(&members));
    }

    #[test]
    fn snap_within_prefers_nearest() {
        assert_eq!(snap_within(Um(14), Um(10), Um(0), Um(100)), Um(10));
        assert_eq!(snap_within(Um(15), Um(10), Um(0), Um(100)), Um(20));
        // Out-of-range nearest multiple falls back to a neighbour.
        assert_eq!(snap_within(Um(14), Um(10), Um(12), Um(100)), Um(20));
        // No multiple in range at all.
        assert_eq!(snap_within(Um(14), Um(100), Um(12), Um(18)), Um(14));
    }
}
