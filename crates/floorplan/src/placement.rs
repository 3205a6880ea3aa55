//! The result of packing a slicing floorplan.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Bound::{Excluded, Unbounded};

use irgrid_geom::{Rect, Um, UmArea};
use irgrid_netlist::ModuleId;
use serde::{Deserialize, Serialize};

/// A packed floorplan: one rectangle per module plus the chip bounding box.
///
/// Produced by [`pack`](crate::pack); all rectangles are pairwise
/// non-overlapping (positive-area overlaps) and contained in the chip —
/// guaranteed by the slicing construction and re-checked by
/// [`Placement::check_consistency`] in tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    rects: Vec<Rect>,
    rotated: Vec<bool>,
    chip: Rect,
}

impl Placement {
    pub(crate) fn from_parts(rects: Vec<Rect>, rotated: Vec<bool>, chip: Rect) -> Placement {
        debug_assert_eq!(rects.len(), rotated.len());
        Placement {
            rects,
            rotated,
            chip,
        }
    }

    /// The placed rectangle of a module.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the packed circuit.
    #[must_use]
    pub fn module_rect(&self, id: ModuleId) -> Rect {
        self.rects[id.index()]
    }

    /// Whether a module was rotated 90° from its netlist orientation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn is_rotated(&self, id: ModuleId) -> bool {
        self.rotated[id.index()]
    }

    /// All module rectangles, indexable by [`ModuleId::index`].
    #[must_use]
    pub fn module_rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The chip bounding box (lower-left at the origin).
    #[must_use]
    pub fn chip(&self) -> Rect {
        self.chip
    }

    /// Chip area — the floorplanner's area objective.
    #[must_use]
    pub fn area(&self) -> UmArea {
        self.chip.area()
    }

    /// Dead space: chip area minus total module area.
    #[must_use]
    pub fn dead_space(&self) -> UmArea {
        self.area() - self.rects.iter().map(Rect::area).sum::<UmArea>()
    }

    /// The modules whose placed rectangle or rotation differs from
    /// `other`, as sorted module indices. The incremental evaluator's
    /// move-diff primitive: after a perturbation is re-packed, only the
    /// nets touching these modules need re-decomposing.
    ///
    /// Placements of different module counts are incomparable; every
    /// module index of `self` is reported changed in that case.
    #[must_use]
    pub fn changed_modules(&self, other: &Placement) -> Vec<usize> {
        if self.rects.len() != other.rects.len() {
            return (0..self.rects.len()).collect();
        }
        (0..self.rects.len())
            .filter(|&i| self.rects[i] != other.rects[i] || self.rotated[i] != other.rotated[i])
            .collect()
    }

    /// Verifies structural soundness: every module inside the chip and no
    /// two modules overlapping with positive area. Returns a description
    /// of a violation, if any; the overlapping pair it names may differ
    /// from the first pair in index order. `O(n log n)`: a sweep over x
    /// that keeps the modules spanning the sweep position ordered by y.
    #[must_use]
    pub fn check_consistency(&self) -> Option<String> {
        for (i, r) in self.rects.iter().enumerate() {
            if !self.chip.contains_rect(r) {
                return Some(format!("module {i} at {r} escapes chip {}", self.chip));
            }
        }
        // A degenerate rectangle overlaps nothing with positive area, and
        // its empty y-span would break the ordering argument below.
        let mut by_start: Vec<usize> = (0..self.rects.len())
            .filter(|&i| !self.rects[i].is_degenerate())
            .collect();
        by_start.sort_by_key(|&i| self.rects[i].ll().x);
        let mut spanning: BTreeSet<(Um, usize)> = BTreeSet::new();
        let mut by_end: BinaryHeap<Reverse<(Um, usize)>> = BinaryHeap::new();
        for i in by_start {
            let r = &self.rects[i];
            // Touching edges do not overlap: a module ending at or before
            // `r` starts leaves first.
            while let Some(&Reverse((end, j))) = by_end.peek() {
                if end > r.ll().x {
                    break;
                }
                by_end.pop();
                spanning.remove(&(self.rects[j].ll().y, j));
            }
            // Until the first overlap the spanning modules are pairwise
            // y-disjoint, so `r` overlaps one of them only if it overlaps
            // its y-predecessor or y-successor.
            let y = r.ll().y;
            let below = spanning.range(..=(y, usize::MAX)).next_back();
            let above = spanning
                .range((Excluded((y, usize::MAX)), Unbounded))
                .next();
            for &(_, j) in below.into_iter().chain(above) {
                if self.rects[j].overlaps_area(r) {
                    return Some(format!(
                        "modules {} and {} overlap: {} vs {}",
                        i.min(j),
                        i.max(j),
                        self.rects[i.min(j)],
                        self.rects[i.max(j)]
                    ));
                }
            }
            spanning.insert((y, i));
            by_end.push(Reverse((r.ur().x, i)));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid_geom::{Point, Um};

    fn rect(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::new(Point::new(Um(x0), Um(y0)), Point::new(Um(x1), Um(y1)))
    }

    #[test]
    fn accessors() {
        let p = Placement::from_parts(
            vec![rect(0, 0, 5, 5), rect(5, 0, 10, 4)],
            vec![false, true],
            rect(0, 0, 10, 5),
        );
        assert_eq!(p.module_rect(ModuleId(1)), rect(5, 0, 10, 4));
        assert!(p.is_rotated(ModuleId(1)));
        assert!(!p.is_rotated(ModuleId(0)));
        assert_eq!(p.area(), UmArea(50));
        assert_eq!(p.dead_space(), UmArea(50 - 25 - 20));
        assert!(p.check_consistency().is_none());
    }

    #[test]
    fn changed_modules_diffs_rects_and_rotation() {
        let a = Placement::from_parts(
            vec![rect(0, 0, 5, 5), rect(5, 0, 10, 4), rect(0, 5, 3, 8)],
            vec![false, true, false],
            rect(0, 0, 10, 8),
        );
        assert!(a.changed_modules(&a).is_empty());

        let moved = Placement::from_parts(
            vec![rect(0, 0, 5, 5), rect(5, 1, 10, 5), rect(0, 5, 3, 8)],
            vec![false, true, false],
            rect(0, 0, 10, 8),
        );
        assert_eq!(a.changed_modules(&moved), vec![1]);

        let respun = Placement::from_parts(
            vec![rect(0, 0, 5, 5), rect(5, 0, 10, 4), rect(0, 5, 3, 8)],
            vec![true, true, false],
            rect(0, 0, 10, 8),
        );
        assert_eq!(a.changed_modules(&respun), vec![0]);

        let shorter = Placement::from_parts(vec![rect(0, 0, 5, 5)], vec![false], rect(0, 0, 5, 5));
        assert_eq!(a.changed_modules(&shorter), vec![0, 1, 2]);
    }

    #[test]
    fn consistency_detects_overlap() {
        let p = Placement::from_parts(
            vec![rect(0, 0, 5, 5), rect(4, 0, 9, 5)],
            vec![false, false],
            rect(0, 0, 10, 5),
        );
        assert!(p.check_consistency().expect("overlap").contains("overlap"));
    }

    #[test]
    fn consistency_detects_escape() {
        let p = Placement::from_parts(vec![rect(0, 0, 11, 5)], vec![false], rect(0, 0, 10, 5));
        assert!(p.check_consistency().expect("escape").contains("escapes"));
    }

    /// The `O(n²)` check the sweep replaced, kept as its reference:
    /// every pair of modules compared.
    fn pairwise_overlap(p: &Placement) -> Option<(usize, usize)> {
        let rects = p.module_rects();
        (0..rects.len())
            .flat_map(|i| ((i + 1)..rects.len()).map(move |j| (i, j)))
            .find(|&(i, j)| rects[i].overlaps_area(&rects[j]))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// On small lattice rectangles, where overlaps, shared edges,
        /// nesting, identical and degenerate rectangles all occur, the
        /// sweep finds an overlap exactly when the pairwise check does,
        /// and the pair it names does overlap.
        #[test]
        fn sweep_agrees_with_the_pairwise_check(
            spans in proptest::collection::vec((0i64..6, 0i64..6, 0i64..4, 0i64..4), 1..10),
        ) {
            let rects: Vec<Rect> = spans
                .iter()
                .map(|&(x, y, w, h)| rect(x, y, x + w, y + h))
                .collect();
            let p = Placement::from_parts(rects.clone(), vec![false; rects.len()], rect(0, 0, 9, 9));
            let found = p.check_consistency();
            proptest::prop_assert_eq!(found.is_some(), pairwise_overlap(&p).is_some(), "{:?}", found);
            if let Some(message) = found {
                let named: Vec<usize> = message
                    .trim_start_matches("modules ")
                    .split(" overlap")
                    .next()
                    .expect("pair")
                    .split(" and ")
                    .map(|k| k.parse().expect("index"))
                    .collect();
                proptest::prop_assert!(rects[named[0]].overlaps_area(&rects[named[1]]), "{}", message);
            }
        }
    }
}
