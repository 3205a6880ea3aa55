//! Congestion scoring: the "top 10 % most congested" metrics.
//!
//! The fixed-grid model scores a floorplan as the *average of the top 10 %
//! most congested grids* (§3). The Irregular-Grid model scores the
//! *average congestion of the top 10 % most congested area units* (§4.3,
//! Algorithm step 5): IR-grids differ in size, so their totals are first
//! converted to per-area densities and then area-weighted.

/// The paper's scoring fraction: every congestion model scores a
/// floorplan by its top 10 % most congested grids or area units.
pub const TOP_FRACTION: f64 = 0.1;

/// Mean of the largest `fraction` of `values` (the fixed-grid score).
///
/// At least one value is always taken for a non-empty input; an empty
/// input scores 0 (an empty chip is uncongested).
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use irgrid_core::score::top_fraction_mean;
///
/// let cells = vec![0.0, 1.0, 2.0, 10.0, 4.0, 0.5, 0.2, 0.1, 3.0, 0.3];
/// // Top 10% of 10 cells = the single largest.
/// assert_eq!(top_fraction_mean(&cells, 0.1), 10.0);
/// ```
#[must_use]
pub fn top_fraction_mean(values: &[f64], fraction: f64) -> f64 {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1], got {fraction}"
    );
    if values.is_empty() {
        return 0.0;
    }
    let take = ((values.len() as f64 * fraction).ceil() as usize).clamp(1, values.len());
    // Select the `take` largest values, then sort only those. Values
    // equal under `total_cmp` have equal bits, so the sum below adds the
    // same numbers in the same order as a sort of every value would.
    let mut top = values.to_vec();
    if take < top.len() {
        top.select_nth_unstable_by(take - 1, |a, b| b.total_cmp(a));
        top.truncate(take);
    }
    top.sort_by(|a, b| b.total_cmp(a));
    // irgrid-lint: allow(D2): serial in-order sum over the sorted top slice; one fixed order
    top.iter().sum::<f64>() / take as f64
}

/// Area-weighted mean density over the most congested `fraction` of the
/// total area (the Irregular-Grid score).
///
/// `cells` holds `(density, area)` pairs. Cells are taken in decreasing
/// density order until `fraction` of the total area is covered; the last
/// cell is taken partially so exactly the target area is averaged.
/// Cells of equal density are taken in their order in `cells`.
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]` or any area is negative.
///
/// # Examples
///
/// ```
/// use irgrid_core::score::top_area_fraction_mean;
///
/// // One hot small cell (density 10, area 1) in a cool chip (area 9).
/// let cells = vec![(10.0, 1.0), (0.0, 9.0)];
/// // Top 10% of area (= 1.0) is exactly the hot cell.
/// assert_eq!(top_area_fraction_mean(&cells, 0.1), 10.0);
/// // Top 20% of area averages the hot cell with an equal amount of cool.
/// assert_eq!(top_area_fraction_mean(&cells, 0.2), 5.0);
/// ```
#[must_use]
pub fn top_area_fraction_mean(cells: &[(f64, f64)], fraction: f64) -> f64 {
    top_area_fraction_mean_with(cells, fraction, &mut Vec::new())
}

/// Window size below which the selection stops narrowing and sorts.
const SELECT_WINDOW: usize = 16;

/// [`top_area_fraction_mean`] with a caller-owned index buffer, so a
/// reused buffer scores without allocating.
///
/// Only the cells the fraction can reach are sorted. A selection in
/// linear expected time narrows `order` to a prefix of the visiting
/// order that covers the target area: every cell left out is less dense
/// than every cell kept. The kept cells are sorted by decreasing density
/// and then by index, which is the order the definition visits them in,
/// so every product and sum happens in the same order and the result is
/// the same bits. Should rounding leave area to take after them, the
/// rest follow in the same order.
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]` or any area is negative.
#[must_use]
pub fn top_area_fraction_mean_with(
    cells: &[(f64, f64)],
    fraction: f64,
    order: &mut Vec<usize>,
) -> f64 {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1], got {fraction}"
    );
    let total_area: f64 = cells
        .iter()
        .map(|&(_, a)| {
            assert!(a >= 0.0, "cell areas must be non-negative, got {a}");
            a
        })
        .sum(); // irgrid-lint: allow(D2): serial in-order area sum over the caller's slice
    if total_area <= 0.0 {
        return 0.0;
    }
    let target = total_area * fraction;
    order.clear();
    order.extend(0..cells.len());
    // `order[..lo]` holds cells denser than the window `order[lo..hi]`
    // with `above` area; `order[hi..]` holds cells less dense than it.
    let (mut lo, mut hi, mut above) = (0, order.len(), 0.0);
    while hi - lo > SELECT_WINDOW {
        let pivot = cells[order[lo + (hi - lo) / 2]].0;
        let (denser, equal, denser_area, equal_area) =
            partition_around(&mut order[lo..hi], cells, pivot);
        if above + denser_area >= target {
            hi = lo + denser;
        } else if above + denser_area + equal_area >= target {
            hi = lo + denser + equal;
            break;
        } else {
            above += denser_area + equal_area;
            lo += denser + equal;
        }
    }
    let visiting = |&i: &usize, &j: &usize| cells[j].0.total_cmp(&cells[i].0).then(i.cmp(&j));
    let (kept, rest) = order.split_at_mut(hi);
    kept.sort_unstable_by(visiting);
    let mut remaining = target;
    let mut weighted = 0.0;
    for &i in kept.iter() {
        let (density, area) = cells[i];
        let take = area.min(remaining);
        weighted += density * take;
        remaining -= take;
        if remaining <= 0.0 {
            return weighted / target;
        }
    }
    rest.sort_unstable_by(visiting);
    for &i in rest.iter() {
        let (density, area) = cells[i];
        let take = area.min(remaining);
        weighted += density * take;
        remaining -= take;
        if remaining <= 0.0 {
            break;
        }
    }
    weighted / target
}

/// Partitions `order` into cells denser than `pivot`, cells as dense,
/// and cells less dense, in that order (densities compared by
/// `total_cmp`). Returns the first two parts' sizes and areas.
fn partition_around(
    order: &mut [usize],
    cells: &[(f64, f64)],
    pivot: f64,
) -> (usize, usize, f64, f64) {
    let (mut denser, mut next, mut less) = (0, 0, order.len());
    let (mut denser_area, mut equal_area) = (0.0, 0.0);
    while next < less {
        let (density, area) = cells[order[next]];
        match density.total_cmp(&pivot) {
            std::cmp::Ordering::Greater => {
                order.swap(denser, next);
                denser += 1;
                next += 1;
                denser_area += area;
            }
            std::cmp::Ordering::Equal => {
                next += 1;
                equal_area += area;
            }
            std::cmp::Ordering::Less => {
                less -= 1;
                order.swap(next, less);
            }
        }
    }
    (denser, next - denser, denser_area, equal_area)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`top_fraction_mean`] by sorting every value: the oracle.
    fn sorted_top_fraction_mean(values: &[f64], fraction: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let take = ((values.len() as f64 * fraction).ceil() as usize).clamp(1, values.len());
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        sorted[..take].iter().sum::<f64>() / take as f64
    }

    /// [`top_area_fraction_mean`] by stable-sorting every cell: the
    /// oracle.
    fn sorted_top_area_fraction_mean(cells: &[(f64, f64)], fraction: f64) -> f64 {
        let total_area: f64 = cells.iter().map(|&(_, a)| a).sum();
        if total_area <= 0.0 {
            return 0.0;
        }
        let target = total_area * fraction;
        let mut sorted = cells.to_vec();
        sorted.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut remaining = target;
        let mut weighted = 0.0;
        for &(density, area) in &sorted {
            let take = area.min(remaining);
            weighted += density * take;
            remaining -= take;
            if remaining <= 0.0 {
                break;
            }
        }
        weighted / target
    }

    /// Densities drawn from a few repeated values and areas that are
    /// often zero, so ties and empty cells are common.
    fn arb_cells() -> impl Strategy<Value = Vec<(f64, f64)>> {
        let density = prop_oneof![(0u8..6).prop_map(|k| f64::from(k) * 0.25), 0.0f64..3.0,];
        let area = prop_oneof![Just(0.0), (1u8..9).prop_map(f64::from), 0.0f64..5.0];
        proptest::collection::vec((density, area), 0..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Selection gives the sorting oracles' bits, both scores.
        #[test]
        fn selection_equals_the_sorting_oracles_bit_for_bit(
            cells in arb_cells(),
            fraction in prop_oneof![Just(1.0), Just(TOP_FRACTION), 0.0001f64..=1.0],
        ) {
            let mut order = vec![3, 1];
            prop_assert_eq!(
                top_area_fraction_mean_with(&cells, fraction, &mut order).to_bits(),
                sorted_top_area_fraction_mean(&cells, fraction).to_bits()
            );
            prop_assert_eq!(
                top_area_fraction_mean(&cells, fraction).to_bits(),
                sorted_top_area_fraction_mean(&cells, fraction).to_bits()
            );
            let values: Vec<f64> = cells.iter().map(|&(density, _)| density).collect();
            prop_assert_eq!(
                top_fraction_mean(&values, fraction).to_bits(),
                sorted_top_fraction_mean(&values, fraction).to_bits()
            );
        }
    }

    #[test]
    fn top_fraction_takes_at_least_one() {
        assert_eq!(top_fraction_mean(&[3.0, 1.0], 0.1), 3.0);
    }

    #[test]
    fn top_fraction_full_is_plain_mean() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((top_fraction_mean(&v, 1.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn top_fraction_empty_is_zero() {
        assert_eq!(top_fraction_mean(&[], 0.1), 0.0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn top_fraction_rejects_zero_fraction() {
        let _ = top_fraction_mean(&[1.0], 0.0);
    }

    #[test]
    fn top_fraction_is_monotone_in_values() {
        let low = [1.0, 1.0, 1.0, 1.0, 1.0];
        let high = [1.0, 1.0, 1.0, 1.0, 9.0];
        assert!(top_fraction_mean(&high, 0.2) > top_fraction_mean(&low, 0.2));
    }

    #[test]
    fn area_weighted_partial_last_cell() {
        // density 4 on area 2, density 1 on area 8; top 30% area = 3:
        // 2 units of density 4 + 1 unit of density 1 -> (8 + 1)/3 = 3.
        let cells = [(4.0, 2.0), (1.0, 8.0)];
        assert!((top_area_fraction_mean(&cells, 0.3) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn area_weighted_uniform_matches_density() {
        let cells = [(2.5, 1.0), (2.5, 5.0), (2.5, 0.5)];
        assert!((top_area_fraction_mean(&cells, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn area_weighted_empty_or_zero_area() {
        assert_eq!(top_area_fraction_mean(&[], 0.1), 0.0);
        assert_eq!(top_area_fraction_mean(&[(5.0, 0.0)], 0.1), 0.0);
    }

    #[test]
    fn area_weighted_equal_cells_reduces_to_top_fraction() {
        // With equal areas the two metrics agree when the fraction selects
        // whole cells.
        let densities = [5.0, 1.0, 3.0, 2.0];
        let cells: Vec<(f64, f64)> = densities.iter().map(|&d| (d, 1.0)).collect();
        assert!(
            (top_area_fraction_mean(&cells, 0.5) - top_fraction_mean(&densities, 0.5)).abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn area_weighted_rejects_negative_area() {
        let _ = top_area_fraction_mean(&[(1.0, -1.0)], 0.1);
    }
}
