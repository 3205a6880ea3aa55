//! Congestion scoring: the "top 10 % most congested" metrics.
//!
//! The fixed-grid model scores a floorplan as the *average of the top 10 %
//! most congested grids* (§3). The Irregular-Grid model scores the
//! *average congestion of the top 10 % most congested area units* (§4.3,
//! Algorithm step 5): IR-grids differ in size, so their totals are first
//! converted to per-area densities and then area-weighted.

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
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    // irgrid-lint: allow(D2): serial in-order sum over the sorted top slice; one fixed order
    sorted[..take].iter().sum::<f64>() / take as f64
}

/// Area-weighted mean density over the most congested `fraction` of the
/// total area (the Irregular-Grid score).
///
/// `cells` holds `(density, area)` pairs. Cells are taken in decreasing
/// density order until `fraction` of the total area is covered; the last
/// cell is taken partially so exactly the target area is averaged.
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
    let mut sorted = cells.to_vec();
    top_area_fraction_mean_in_place(&mut sorted, fraction)
}

/// [`top_area_fraction_mean`] sorting the caller's buffer in place, so a
/// reused buffer can be scored without allocating. Identical result
/// (same stable sort, same accumulation order).
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]` or any area is negative.
#[must_use]
pub fn top_area_fraction_mean_in_place(cells: &mut [(f64, f64)], fraction: f64) -> f64 {
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
    cells.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut remaining = target;
    let mut weighted = 0.0;
    for &(density, area) in cells.iter() {
        let take = area.min(remaining);
        weighted += density * take;
        remaining -= take;
        if remaining <= 0.0 {
            break;
        }
    }
    weighted / target
}

#[cfg(test)]
mod tests {
    use super::*;

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
