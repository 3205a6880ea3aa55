//! Cutting-line extraction and merging (§4.2 and Algorithm step 2).
//!
//! Every routing range contributes two vertical and two horizontal cutting
//! lines (its boundaries); the chip boundary always cuts. Lines closer
//! than twice the unit-grid pitch are merged — the paper's Algorithm
//! step 2 — which both bounds the IR-grid count and guarantees that the
//! error-making cells of §4.5 (always adjacent to a pin) end up in the
//! same IR-grid as the pin itself, where the probability is assigned 1
//! without evaluating the approximation.
//!
//! All positions here are in *unit-cell* coordinates: a cut at position
//! `c` is the grid line between cell columns `c - 1` and `c`, so cuts run
//! from 0 to `cols` inclusive.

/// Builds the merged, sorted cut positions for one axis.
///
/// `boundary` is the grid extent on this axis (`cols` or `rows`);
/// `raw_cuts` are the range-boundary positions; `min_gap` is the merge
/// threshold in cells (the paper uses 2 = twice the grid pitch; 1 merges
/// nothing beyond exact duplicates).
///
/// The result always starts at 0 and ends at `boundary`, with consecutive
/// cuts at least `min_gap` apart (except possibly the final interval,
/// which is kept at least 1 wide).
#[cfg(test)] // production paths use the in-place variant below
pub(crate) fn merged_cuts(
    boundary: i64,
    raw_cuts: impl IntoIterator<Item = i64>,
    min_gap: i64,
) -> Vec<i64> {
    let mut scratch: Vec<i64> = raw_cuts.into_iter().collect();
    let mut kept = Vec::new();
    merged_cuts_into(boundary, &mut scratch, min_gap, &mut kept);
    kept
}

/// In-place variant of [`merged_cuts`] for the evaluation engine: `scratch`
/// holds the raw cut positions (consumed: sorted and filtered in place)
/// and `kept` receives the merged result, both reusing their existing
/// capacity so the steady state allocates nothing.
pub(crate) fn merged_cuts_into(
    boundary: i64,
    scratch: &mut Vec<i64>,
    min_gap: i64,
    kept: &mut Vec<i64>,
) {
    debug_assert!(boundary >= 1, "grid must have at least one cell");
    debug_assert!(min_gap >= 1, "merge threshold must be at least one cell");
    scratch.retain(|&c| c > 0 && c < boundary);
    scratch.sort_unstable();
    scratch.dedup();

    kept.clear();
    kept.push(0);
    for &c in scratch.iter() {
        // irgrid-lint: allow(P1): `kept` is re-seeded with 0 immediately above
        if c - kept.last().expect("kept starts non-empty") >= min_gap {
            kept.push(c);
        }
    }
    // Close with the boundary; drop interior cuts that crowd it.
    // irgrid-lint: allow(P1): the `len() > 1` guard keeps `kept` non-empty
    while kept.len() > 1 && boundary - kept.last().expect("non-empty") < min_gap {
        kept.pop();
    }
    kept.push(boundary);
}

/// Locates the nearest cut to `pos`, returning its index (ties go to the
/// lower cut, keeping snapping deterministic).
pub(crate) fn nearest_cut_index(cuts: &[i64], pos: i64) -> usize {
    debug_assert!(!cuts.is_empty());
    match cuts.binary_search(&pos) {
        Ok(i) => i,
        Err(i) => {
            if i == 0 {
                0
            } else if i == cuts.len() {
                cuts.len() - 1
            } else if pos - cuts[i - 1] <= cuts[i] - pos {
                i - 1
            } else {
                i
            }
        }
    }
}

/// Snaps a cell span `[lo, hi]` (hi exclusive, in cells) to cut indices,
/// guaranteeing a non-empty span: returns `(ilo, ihi)` with `ilo < ihi`
/// into `cuts`.
pub(crate) fn snap_span(cuts: &[i64], lo: i64, hi: i64) -> (usize, usize) {
    debug_assert!(cuts.len() >= 2, "cuts always include both boundaries");
    let mut ilo = nearest_cut_index(cuts, lo);
    let mut ihi = nearest_cut_index(cuts, hi);
    if ilo > ihi {
        std::mem::swap(&mut ilo, &mut ihi);
    }
    if ilo == ihi {
        // Collapsed span: widen toward the side the original span leaned.
        if ihi + 1 < cuts.len() {
            ihi += 1;
        } else {
            ilo -= 1;
        }
    }
    (ilo, ihi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_always_present() {
        assert_eq!(merged_cuts(10, [], 2), vec![0, 10]);
        assert_eq!(merged_cuts(1, [], 2), vec![0, 1]);
    }

    #[test]
    fn interior_cuts_kept_when_spaced() {
        assert_eq!(merged_cuts(10, [3, 6], 2), vec![0, 3, 6, 10]);
    }

    #[test]
    fn close_cuts_merge() {
        // 3 and 4 are closer than 2 cells: 4 dropped.
        assert_eq!(merged_cuts(10, [3, 4, 8], 2), vec![0, 3, 8, 10]);
    }

    #[test]
    fn cuts_near_lower_boundary_merge() {
        assert_eq!(merged_cuts(10, [1, 5], 2), vec![0, 5, 10]);
    }

    #[test]
    fn cuts_near_upper_boundary_merge() {
        assert_eq!(merged_cuts(10, [5, 9], 2), vec![0, 5, 10]);
    }

    #[test]
    fn duplicates_dedup() {
        assert_eq!(merged_cuts(10, [5, 5, 5], 1), vec![0, 5, 10]);
    }

    #[test]
    fn out_of_range_cuts_ignored() {
        assert_eq!(merged_cuts(10, [-3, 0, 10, 14, 5], 2), vec![0, 5, 10]);
    }

    #[test]
    fn min_gap_one_keeps_all_distinct() {
        assert_eq!(merged_cuts(10, [1, 2, 3], 1), vec![0, 1, 2, 3, 10]);
    }

    #[test]
    fn gaps_respect_threshold() {
        let cuts = merged_cuts(100, (1..100).step_by(3), 5);
        for pair in cuts.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(gap >= 1, "gap {gap}");
        }
        // All interior gaps except possibly the last respect min_gap.
        for pair in cuts[..cuts.len() - 1].windows(2) {
            assert!(
                pair[1] - pair[0] >= 5,
                "interior gap {} too small",
                pair[1] - pair[0]
            );
        }
    }

    #[test]
    fn nearest_cut_basics() {
        let cuts = [0, 4, 9, 15];
        assert_eq!(nearest_cut_index(&cuts, 0), 0);
        assert_eq!(nearest_cut_index(&cuts, 4), 1);
        assert_eq!(nearest_cut_index(&cuts, 6), 1); // tie 4 vs 9? |6-4|=2,|9-6|=3 -> 4
        assert_eq!(nearest_cut_index(&cuts, 7), 2);
        assert_eq!(nearest_cut_index(&cuts, 100), 3);
        assert_eq!(nearest_cut_index(&cuts, -5), 0);
        // Exact tie goes low: 2 is equidistant from 0 and 4.
        assert_eq!(nearest_cut_index(&cuts, 2), 0);
    }

    #[test]
    fn snap_span_never_collapses() {
        let cuts = [0, 4, 9, 15];
        assert_eq!(snap_span(&cuts, 3, 10), (1, 2));
        // Span entirely inside one interval: widened.
        let (a, b) = snap_span(&cuts, 5, 6);
        assert!(a < b);
        // Span at the very top.
        let (a, b) = snap_span(&cuts, 15, 15);
        assert_eq!((a, b), (2, 3));
        // Span at the very bottom.
        let (a, b) = snap_span(&cuts, 0, 0);
        assert_eq!((a, b), (0, 1));
    }
}
