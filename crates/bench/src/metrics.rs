//! Shared agreement metrics over paired score vectors.
//!
//! `sweep` and `validate` each used to carry a private Pearson
//! implementation; `compare-all` adds two more metrics. They live here
//! once, with hostile-input handling: empty or mismatched inputs are
//! typed errors, and degenerate statistics (zero variance, all-zero
//! references) return defined sentinels instead of NaN so report JSON
//! never contains non-finite garbage.
//!
//! They compare plain slices: per-floorplan scores, or the values of
//! two rasters on the same grid (`heatmap`, `compare-all`). Zero
//! variance ⇒ correlation 0, MAE scales the second argument to the
//! first's mean, hotspot sets take the top-`fraction` indices by value.

use std::fmt;

/// Why a metric could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricError {
    /// Both inputs are empty.
    Empty,
    /// The inputs have different lengths.
    LengthMismatch {
        /// Length of the first series.
        left: usize,
        /// Length of the second series.
        right: usize,
    },
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::Empty => write!(f, "metric inputs are empty"),
            MetricError::LengthMismatch { left, right } => {
                write!(f, "metric inputs differ in length: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for MetricError {}

fn check(a: &[f64], b: &[f64]) -> Result<(), MetricError> {
    if a.len() != b.len() {
        return Err(MetricError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(MetricError::Empty);
    }
    Ok(())
}

/// Pearson correlation of two equal-length series.
///
/// Zero variance on either side means correlation is undefined; this
/// returns the sentinel `0.0` (no evidence of agreement) rather than
/// NaN.
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64, MetricError> {
    check(a, b)?;
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let (mut va, mut vb) = (0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        num += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return Ok(0.0);
    }
    Ok(num / (va.sqrt() * vb.sqrt()))
}

/// Mean absolute error after rescaling `b` to `a`'s mean.
///
/// The models report in different units; rescaling makes the error
/// scale-free. A zero-mean `b` cannot be rescaled and is compared as-is.
pub fn scaled_mae(a: &[f64], b: &[f64]) -> Result<f64, MetricError> {
    check(a, b)?;
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let scale = if mb == 0.0 { 1.0 } else { ma / mb };
    let total: f64 = a.iter().zip(b).map(|(&x, &y)| (x - y * scale).abs()).sum();
    Ok(total / n)
}

/// Jaccard overlap of the two series' top-`fraction` index sets.
///
/// Both sets always contain at least one index, so the result is a
/// well-defined value in `[0, 1]`.
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]`.
pub fn hotspot_jaccard(a: &[f64], b: &[f64], fraction: f64) -> Result<f64, MetricError> {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1], got {fraction}"
    );
    check(a, b)?;
    let top_set = |values: &[f64]| -> Vec<usize> {
        let take = ((values.len() as f64 * fraction).ceil() as usize).clamp(1, values.len());
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&i, &j| values[j].total_cmp(&values[i]));
        let mut top = idx[..take].to_vec();
        top.sort_unstable();
        top
    };
    let ta = top_set(a);
    let tb = top_set(b);
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ta.len() && j < tb.len() {
        match ta[i].cmp(&tb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = ta.len() + tb.len() - inter;
    Ok(inter as f64 / union as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_matches_hand_computation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let anti: Vec<f64> = b.iter().map(|&x| -x).collect();
        assert!((pearson(&a, &anti).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_is_the_sentinel_not_nan() {
        let flat = [5.0, 5.0, 5.0];
        let ramp = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&flat, &ramp), Ok(0.0));
        assert_eq!(pearson(&ramp, &flat), Ok(0.0));
        assert_eq!(pearson(&flat, &flat), Ok(0.0));
    }

    #[test]
    fn empty_inputs_are_typed_errors_not_panics() {
        assert_eq!(pearson(&[], &[]), Err(MetricError::Empty));
        assert_eq!(scaled_mae(&[], &[]), Err(MetricError::Empty));
        assert_eq!(hotspot_jaccard(&[], &[], 0.1), Err(MetricError::Empty));
    }

    #[test]
    fn mismatched_lengths_are_typed_errors_not_panics() {
        let short = [1.0];
        let long = [1.0, 2.0];
        let expected = MetricError::LengthMismatch { left: 1, right: 2 };
        assert_eq!(pearson(&short, &long), Err(expected));
        assert_eq!(scaled_mae(&short, &long), Err(expected));
        assert_eq!(hotspot_jaccard(&short, &long, 0.1), Err(expected));
    }

    #[test]
    fn scaled_mae_is_scale_free() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        assert!(scaled_mae(&a, &b).unwrap().abs() < 1e-12);
        let zero = [0.0, 0.0, 0.0];
        // Zero-mean reference compares as-is: mean |a|.
        assert!((scaled_mae(&a, &zero).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hotspot_jaccard_rewards_matching_peaks() {
        let a = [0.0, 1.0, 9.0, 2.0];
        let same_peak = [1.0, 0.0, 7.0, 3.0];
        let other_peak = [9.0, 1.0, 0.0, 2.0];
        assert_eq!(hotspot_jaccard(&a, &same_peak, 0.25), Ok(1.0));
        assert_eq!(hotspot_jaccard(&a, &other_peak, 0.25), Ok(0.0));
    }

    #[test]
    fn errors_format_for_reports() {
        assert_eq!(MetricError::Empty.to_string(), "metric inputs are empty");
        assert_eq!(
            MetricError::LengthMismatch { left: 3, right: 5 }.to_string(),
            "metric inputs differ in length: 3 vs 5"
        );
    }
}
