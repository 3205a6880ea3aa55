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

/// Builds the merged, sorted cut positions for one axis by sorting the
/// raw cuts: the oracle the engine's [`merged_cuts_from_counts`] is
/// tested against.
///
/// `boundary` is the grid extent on this axis (`cols` or `rows`);
/// `raw_cuts` are the range-boundary positions; `min_gap` is the merge
/// threshold in cells (the paper uses 2 = twice the grid pitch; 1 merges
/// nothing beyond exact duplicates).
///
/// The result always starts at 0 and ends at `boundary`, with consecutive
/// cuts at least `min_gap` apart (except possibly the final interval,
/// which is kept at least 1 wide).
#[cfg(test)]
pub(crate) fn merged_cuts(
    boundary: i64,
    raw_cuts: impl IntoIterator<Item = i64>,
    min_gap: i64,
) -> Vec<i64> {
    let mut interior: Vec<i64> = raw_cuts
        .into_iter()
        .filter(|&c| c > 0 && c < boundary)
        .collect();
    interior.sort_unstable();
    interior.dedup();
    let mut kept = vec![0];
    for c in interior {
        if c - kept[kept.len() - 1] >= min_gap {
            kept.push(c);
        }
    }
    while kept.len() > 1 && boundary - kept[kept.len() - 1] < min_gap {
        kept.pop();
    }
    kept.push(boundary);
    kept
}

/// The merged cuts of one axis from its boundary counts: `counts[c]` is
/// how many range boundaries lie at cut position `c`, for `c` in
/// `0..=boundary`. The merge depends only on which positions hold a
/// boundary, so one walk over the counts gives what sorting the raw
/// cuts gives ([`merged_cuts`]), and `kept` receives it, reusing its
/// capacity.
pub(crate) fn merged_cuts_from_counts(counts: &[usize], min_gap: i64, kept: &mut Vec<i64>) {
    debug_assert!(counts.len() >= 2, "grid must have at least one cell");
    debug_assert!(min_gap >= 1, "merge threshold must be at least one cell");
    let boundary = counts.len() as i64 - 1;
    kept.clear();
    kept.push(0);
    let mut last = 0;
    for (c, &count) in (0_i64..).zip(&counts[..counts.len() - 1]).skip(1) {
        if count > 0 && c - last >= min_gap {
            kept.push(c);
            last = c;
        }
    }
    // Close with the boundary; drop interior cuts that crowd it.
    while kept.len() > 1 && boundary - kept[kept.len() - 1] < min_gap {
        kept.pop();
    }
    kept.push(boundary);
}

/// Locates the nearest cut to `pos`, returning its index (ties go to the
/// lower cut, keeping snapping deterministic): the binary search the
/// engine's [`nearest_cut_table`] is tested against.
#[cfg(test)]
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
/// into `cuts`. The binary-search form of [`snap_span_in`], kept as its
/// oracle.
#[cfg(test)]
pub(crate) fn snap_span(cuts: &[i64], lo: i64, hi: i64) -> (usize, usize) {
    debug_assert!(cuts.len() >= 2, "cuts always include both boundaries");
    widen(
        nearest_cut_index(cuts, lo),
        nearest_cut_index(cuts, hi),
        cuts.len(),
    )
}

/// The index of the cut nearest to every unit position `0..=boundary`
/// (ties go to the lower cut, keeping snapping deterministic), into
/// `table`: snapping a span then costs two lookups, not two binary
/// searches. `cuts` are merged cuts, from 0 to `boundary`.
pub(crate) fn nearest_cut_table(cuts: &[i64], table: &mut Vec<usize>) {
    debug_assert!(cuts.len() >= 2, "cuts always include both boundaries");
    table.clear();
    let mut i = 0;
    for pos in 0..=cuts[cuts.len() - 1] {
        while i + 1 < cuts.len() && cuts[i + 1] <= pos {
            i += 1;
        }
        // `cuts[i] <= pos`, and `pos < cuts[i + 1]` unless `pos` is the
        // boundary.
        let up = i + 1 < cuts.len() && pos - cuts[i] > cuts[i + 1] - pos;
        table.push(if up { i + 1 } else { i });
    }
}

/// Snaps a cell span `[lo, hi]` (hi exclusive, in cells, inside the
/// grid) to cut indices through a [`nearest_cut_table`], guaranteeing a
/// non-empty span: returns `(ilo, ihi)` with `ilo < ihi`.
pub(crate) fn snap_span_in(nearest: &[usize], lo: i64, hi: i64) -> (usize, usize) {
    let at = |pos: i64| nearest[usize::try_from(pos).unwrap_or(usize::MAX)];
    widen(at(lo), at(hi), nearest[nearest.len() - 1] + 1)
}

/// Orders two snapped cut indices and widens a collapsed span toward
/// the side the original span leaned, inside `0..cuts`.
fn widen(mut ilo: usize, mut ihi: usize, cuts: usize) -> (usize, usize) {
    if ilo > ihi {
        std::mem::swap(&mut ilo, &mut ihi);
    }
    if ilo == ihi {
        if ihi + 1 < cuts {
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

    proptest::proptest! {
        /// The counts walk keeps exactly the cuts the sort keeps.
        #[test]
        fn counts_walk_equals_the_sorted_merge(
            boundary in 1i64..80,
            raw in proptest::collection::vec(0i64..80, 0..40),
            min_gap in 1i64..4,
        ) {
            let mut counts = vec![0; boundary as usize + 1];
            for &c in raw.iter().filter(|&&c| c <= boundary) {
                counts[c as usize] += 1;
            }
            let mut kept = vec![7];
            merged_cuts_from_counts(&counts, min_gap, &mut kept);
            let inside = raw.iter().copied().filter(|&c| c <= boundary);
            proptest::prop_assert_eq!(kept, merged_cuts(boundary, inside, min_gap));
        }
    }

    proptest::proptest! {
        /// Snapping through the table gives the binary search's spans.
        #[test]
        fn table_snapping_equals_the_binary_search(
            boundary in 1i64..60,
            raw in proptest::collection::vec(0i64..60, 0..20),
            min_gap in 1i64..4,
            (a, b) in (0i64..60, 0i64..60),
        ) {
            let cuts = merged_cuts(boundary, raw, min_gap);
            let mut table = vec![9];
            nearest_cut_table(&cuts, &mut table);
            for pos in 0..=boundary {
                proptest::prop_assert_eq!(table[pos as usize], nearest_cut_index(&cuts, pos));
            }
            let (lo, hi) = (a.min(b) % (boundary + 1), a.max(b) % (boundary + 1));
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            proptest::prop_assert_eq!(snap_span_in(&table, lo, hi), snap_span(&cuts, lo, hi));
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
