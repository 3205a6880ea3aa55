//! Order statistics over timed passes and latency samples, and the
//! Metropolis rule the anneal loops use.
//!
//! Every timed phase repeats identical work in several passes spread over
//! the run, and times each item of it (a move, a build, a request) in
//! every pass. An item's cost is its fastest pass ([`fastest`]): the host
//! this benchmark is sized for alternates between two speeds for seconds
//! at a time, which moves a median over passes by 20 % from run to run,
//! while the sum of per-item minima repeats within a few percent. The
//! work is deterministic, so no pass can be faster than the work itself.

/// The tail percentiles a latency may be reported at, highest first. A
/// sample set reports the first one that keeps at least
/// [`MIN_BEYOND`] samples beyond it.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median: the middle value, or the mean of the two middle values
/// of an even count.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so the spreads printed here match the ones a
/// Python reader computes from the same runs.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let data = sorted(values);
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4_usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The nearest-rank `p`-th percentile of `values` and how many samples
/// lie beyond it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "percentile of no values");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let data = sorted(values);
    let rank = (p * data.len() as f64 / 100.0).ceil() as usize;
    let rank = rank.clamp(1, data.len());
    (data[rank - 1], data.len() - rank)
}

/// The highest percentile of [`TAIL_LADDER`] that `count` samples
/// support, i.e. that leaves at least [`MIN_BEYOND`] samples beyond it.
///
/// # Errors
///
/// Fails loudly when even the median leaves fewer than [`MIN_BEYOND`]
/// samples beyond it.
pub fn tail_percentile(count: usize) -> Result<f64, String> {
    for p in TAIL_LADDER {
        let rank = (p * count as f64 / 100.0).ceil() as usize;
        if count > 0 && count - rank.clamp(1, count) >= MIN_BEYOND {
            return Ok(p);
        }
    }
    Err(format!(
        "{count} latency samples support no reported percentile: the median needs \
         {MIN_BEYOND} samples beyond it"
    ))
}

/// The Metropolis temperature the anneal loops run at: a quarter of the
/// median uphill cost change among probe moves, so a typical uphill move
/// is accepted with probability e⁻⁴ and the loop mixes commits and
/// undos.
///
/// # Errors
///
/// Fails when no probe move went uphill.
pub fn metropolis_temperature(deltas: &[f64]) -> Result<f64, String> {
    let uphill: Vec<f64> = deltas.iter().copied().filter(|&d| d > 0.0).collect();
    if uphill.is_empty() {
        return Err(format!(
            "none of {} probe moves went uphill; no temperature to calibrate",
            deltas.len()
        ));
    }
    Ok(median(&uphill) / 4.0)
}

/// The Metropolis acceptance test for a cost change `delta` at
/// temperature `t`, given a uniform draw `u` in `[0, 1)`. Downhill and
/// flat moves are always accepted.
#[must_use]
pub fn metropolis_accept(delta: f64, t: f64, u: f64) -> bool {
    delta <= 0.0 || u < (-delta / t).exp()
}

/// Each item's fastest time over `passes`, which time the same items in
/// the same order.
///
/// # Panics
///
/// Panics on no passes or passes of different lengths — a bug in the
/// caller, since every pass repeats identical work.
#[must_use]
pub fn fastest(passes: &[Vec<f64>]) -> Vec<f64> {
    let (first, rest) = passes.split_first().expect("fastest of no passes");
    let mut best = first.clone();
    for pass in rest {
        assert_eq!(pass.len(), best.len(), "passes time different items");
        for (slot, &time) in best.iter_mut().zip(pass) {
            *slot = slot.min(time);
        }
    }
    best
}

/// The arithmetic mean; 0 for no values.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_with_ties() {
        assert_eq!(median(&[2.0, 2.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[7.0, 7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            [2.75, 5.5, 8.25]
        );
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
    }

    #[test]
    fn quartiles_with_ties() {
        // statistics.quantiles([1, 1, 1, 5], n=4) == [1.0, 1.0, 4.0]
        assert_eq!(quartiles(&[1.0, 5.0, 1.0, 1.0]), [1.0, 1.0, 4.0]);
        assert_eq!(quartiles(&[3.0; 6]), [3.0, 3.0, 3.0]);
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), (990.0, 10));
        assert_eq!(percentile(&values, 50.0), (500.0, 500));
        assert_eq!(percentile(&values, 100.0), (1000.0, 0));
        assert_eq!(percentile(&[4.0, 4.0, 1.0], 50.0), (4.0, 1));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1200), Ok(99.0));
        assert_eq!(tail_percentile(1000), Ok(99.0));
        assert_eq!(tail_percentile(999), Ok(95.0));
        assert_eq!(tail_percentile(200), Ok(95.0));
        assert_eq!(tail_percentile(199), Ok(90.0));
        assert_eq!(tail_percentile(21), Ok(50.0));
        assert_eq!(tail_percentile(20), Ok(50.0));
        assert!(tail_percentile(19).is_err());
        assert!(tail_percentile(0).is_err());
        for count in [20, 57, 200, 611, 1000, 3600] {
            let p = tail_percentile(count).expect("supported");
            let values: Vec<f64> = (0..count).map(|v| v as f64).collect();
            assert!(percentile(&values, p).1 >= MIN_BEYOND, "{count} at p{p}");
        }
    }

    #[test]
    fn temperature_is_a_quarter_of_the_median_uphill_move() {
        let deltas = [-1.0, 0.0, 0.4, 0.8, 1.2, -3.0];
        assert_eq!(metropolis_temperature(&deltas), Ok(0.2));
        assert_eq!(metropolis_temperature(&[0.5, 0.5, 0.5, 2.0]), Ok(0.125));
        assert!(metropolis_temperature(&[-1.0, 0.0]).is_err());
        assert!(metropolis_temperature(&[]).is_err());
    }

    #[test]
    fn metropolis_accepts_downhill_and_weighs_uphill() {
        assert!(metropolis_accept(-1.0, 0.1, 0.999));
        assert!(metropolis_accept(0.0, 0.1, 0.999));
        // e^-1 ≈ 0.368
        assert!(metropolis_accept(0.1, 0.1, 0.3));
        assert!(!metropolis_accept(0.1, 0.1, 0.4));
    }

    #[test]
    fn fastest_takes_each_items_minimum() {
        let passes = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.0],
            vec![9.0, 1.5, 6.0],
        ];
        assert_eq!(fastest(&passes), [2.0, 1.0, 5.0]);
        assert_eq!(fastest(&passes[..1]), passes[0]);
        // A slow stretch in one pass does not move the result.
        let slowed: Vec<f64> = passes[1].iter().map(|t| t * 1.5).collect();
        assert_eq!(
            fastest(&[passes[0].clone(), slowed, passes[1].clone()]),
            [2.0, 1.0, 5.0]
        );
    }

    #[test]
    #[should_panic(expected = "different items")]
    fn fastest_refuses_passes_of_different_work() {
        let _ = fastest(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
