//! Correctness gates. Each workload checks its outputs with these, outside
//! the timed passes; the first failure aborts the run with exit code 2
//! before any metric is printed.

use std::fmt;

use irgrid::geom::Point;

/// A failed correctness gate: what was checked and how it went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateError(pub String);

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "correctness gate failed: {}", self.0)
    }
}

impl From<String> for GateError {
    fn from(message: String) -> GateError {
        GateError(message)
    }
}

/// The result type every gate returns.
pub type Gate = Result<(), GateError>;

/// Two scores must be equal bit for bit.
pub fn same_bits(what: &str, got: f64, want: f64) -> Gate {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(GateError(format!(
            "{what}: {got:?} (bits {:016x}) != {want:?} (bits {:016x})",
            got.to_bits(),
            want.to_bits()
        )))
    }
}

/// Two value lists (rasters, map totals) must be equal bit for bit.
pub fn same_values(what: &str, got: &[f64], want: &[f64]) -> Gate {
    if got.len() != want.len() {
        return Err(GateError(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        )));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(GateError(format!(
            "{what}: value {i} is {:?}, expected {:?}",
            got[i], want[i]
        ))),
    }
}

/// Two segment lists must be equal, in order.
pub fn same_segments(what: &str, got: &[(Point, Point)], want: &[(Point, Point)]) -> Gate {
    if got == want {
        return Ok(());
    }
    let first = got.iter().zip(want).position(|(a, b)| a != b);
    Err(GateError(format!(
        "{what}: {} segments vs {} expected, first difference at {first:?}",
        got.len(),
        want.len()
    )))
}

/// A raster's dimensions must equal the unit grid's.
pub fn raster_shape(what: &str, got: (usize, usize), grid: (usize, usize)) -> Gate {
    if got == grid {
        Ok(())
    } else {
        Err(GateError(format!(
            "{what}: raster is {}x{}, unit grid is {}x{}",
            got.0, got.1, grid.0, grid.1
        )))
    }
}

/// Every cell must be finite and non-negative.
pub fn finite_non_negative(what: &str, values: &[f64]) -> Gate {
    match values.iter().position(|v| !v.is_finite() || *v < 0.0) {
        None => Ok(()),
        Some(i) => Err(GateError(format!("{what}: cell {i} is {:?}", values[i]))),
    }
}

/// A placement consistency report (`Placement::check_consistency`) must
/// be clean.
pub fn consistent(what: &str, report: Option<String>) -> Gate {
    match report {
        None => Ok(()),
        Some(problem) => Err(GateError(format!("{what}: {problem}"))),
    }
}

/// A condition that must hold, with the message to report when it does
/// not.
pub fn holds(condition: bool, message: impl FnOnce() -> String) -> Gate {
    if condition {
        Ok(())
    } else {
        Err(GateError(message()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid::geom::Um;

    #[test]
    fn same_bits_fires_on_a_flipped_bit() {
        assert!(same_bits("score", 1.25, 1.25).is_ok());
        let corrupted = f64::from_bits(1.25_f64.to_bits() ^ 1);
        assert!(same_bits("score", corrupted, 1.25).is_err());
        // Bit equality, not float equality: -0.0 and NaN are caught.
        assert!(same_bits("score", -0.0, 0.0).is_err());
        assert!(same_bits("score", f64::NAN, 1.0).is_err());
    }

    #[test]
    fn same_values_fires_on_a_changed_cell_or_length() {
        let good = vec![0.5, 1.0, 2.0];
        assert!(same_values("raster", &good, &good).is_ok());
        let mut corrupted = good.clone();
        corrupted[1] = f64::from_bits(corrupted[1].to_bits() + 1);
        assert!(same_values("raster", &corrupted, &good).is_err());
        assert!(same_values("raster", &good[..2], &good).is_err());
    }

    #[test]
    fn same_segments_fires_on_a_moved_endpoint() {
        let p = |x, y| Point::new(Um(x), Um(y));
        let good = vec![(p(0, 0), p(30, 60)), (p(5, 5), p(90, 10))];
        assert!(same_segments("flat", &good, &good).is_ok());
        let mut corrupted = good.clone();
        corrupted[1].1 = p(91, 10);
        assert!(same_segments("flat", &corrupted, &good).is_err());
        assert!(same_segments("flat", &good[..1], &good).is_err());
    }

    #[test]
    fn raster_shape_fires_on_a_wrong_dimension() {
        assert!(raster_shape("fixed", (10, 7), (10, 7)).is_ok());
        assert!(raster_shape("fixed", (7, 10), (10, 7)).is_err());
    }

    #[test]
    fn finite_non_negative_fires_on_nan_infinity_and_negatives() {
        assert!(finite_non_negative("cells", &[0.0, 3.5]).is_ok());
        for bad in [f64::NAN, f64::INFINITY, -1e-9] {
            assert!(finite_non_negative("cells", &[0.0, bad]).is_err(), "{bad}");
        }
    }

    #[test]
    fn consistent_fires_on_a_reported_overlap() {
        assert!(consistent("placement", None).is_ok());
        assert!(consistent("placement", Some("modules 1 and 2 overlap".into())).is_err());
    }

    #[test]
    fn holds_fires_on_a_false_condition() {
        assert!(holds(true, || unreachable!()).is_ok());
        assert_eq!(
            holds(false, || "op failed".into()),
            Err(GateError("op failed".into()))
        );
    }
}
