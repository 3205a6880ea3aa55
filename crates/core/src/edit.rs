//! Edits of a segment list: the form in which a move tells a
//! [`DeltaCongestionSession`](crate::DeltaCongestionSession) what it
//! changed.
//!
//! A move is a set of [`Splice`]s against the committed list. Every
//! index refers to the list as it is before any splice of the set
//! applies, and the splices come in ascending, non-overlapping order. A
//! session that receives edits need not compare the lists itself, so a
//! move that changes a few segments of a long list costs a few segments.
//! [`diff`] recovers edits from two whole lists in one linear pass.

use std::fmt;

use irgrid_geom::Point;

/// One edit of a list: the `remove` items at `start` give way to
/// `insert`.
///
/// # Examples
///
/// ```
/// use irgrid_core::edit::{apply, check, diff, Splice};
///
/// let mut list = vec![1, 2, 3, 4];
/// let edits = [Splice { start: 1, remove: 2, insert: &[7][..] }];
/// assert_eq!(check(list.len(), &edits), Ok(3));
/// apply(&mut list, &edits).expect("fits");
/// assert_eq!(list, [1, 7, 4]);
/// assert_eq!(diff(&[1, 7, 4], &[1, 8, 4]), [Splice { start: 1, remove: 1, insert: &[8][..] }]);
/// // Overlapping splices do not fit, and change nothing.
/// let overlapping = [edits[0], Splice { start: 2, remove: 1, insert: &[][..] }];
/// assert!(apply(&mut list, &overlapping).is_err());
/// assert_eq!(list, [1, 7, 4]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splice<'a, T = (Point, Point)> {
    /// Index of the first item replaced.
    pub start: usize,
    /// How many items are replaced.
    pub remove: usize,
    /// The items put in their place.
    pub insert: &'a [T],
}

/// A splice that starts before the end of the one before it, or
/// reaches past the end of the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceError {
    /// The offending splice's start.
    pub start: usize,
    /// The offending splice's remove count.
    pub remove: usize,
    /// The length of the list the splices edit.
    pub len: usize,
    /// The end of the splice before it (0 for the first).
    pub floor: usize,
}

impl fmt::Display for SpliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "splice of {} at {} does not fit {} segments after index {}",
            self.remove, self.start, self.len, self.floor
        )
    }
}

impl std::error::Error for SpliceError {}

/// The splices that turn `from` into `to`, from one linear pass: the
/// runs of changed indices when the lengths are equal, otherwise one
/// splice between the common prefix and the common suffix. Equal lists
/// give no splice.
#[must_use]
pub fn diff<'a, T: PartialEq>(from: &[T], to: &'a [T]) -> Vec<Splice<'a, T>> {
    if from.len() == to.len() {
        let mut splices = Vec::new();
        let mut run: Option<usize> = None;
        for (index, (old, new)) in from.iter().zip(to).enumerate() {
            match (old == new, run) {
                (false, None) => run = Some(index),
                (true, Some(start)) => {
                    splices.push(Splice {
                        start,
                        remove: index - start,
                        insert: &to[start..index],
                    });
                    run = None;
                }
                _ => {}
            }
        }
        if let Some(start) = run {
            splices.push(Splice {
                start,
                remove: to.len() - start,
                insert: &to[start..],
            });
        }
        return splices;
    }
    let prefix = from.iter().zip(to).take_while(|(a, b)| a == b).count();
    let suffix = from[prefix..]
        .iter()
        .rev()
        .zip(to[prefix..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    vec![Splice {
        start: prefix,
        remove: from.len() - prefix - suffix,
        insert: &to[prefix..to.len() - suffix],
    }]
}

/// Checks that `splices` fit a list of `len` items: ascending,
/// non-overlapping and inside it. Returns the list's length after them.
///
/// # Errors
///
/// The first splice that does not fit.
pub fn check<T>(len: usize, splices: &[Splice<'_, T>]) -> Result<usize, SpliceError> {
    let (mut floor, mut after) = (0, len);
    for splice in splices {
        match splice.start.checked_add(splice.remove) {
            Some(end) if splice.start >= floor && end <= len => {
                floor = end;
                after = after - splice.remove + splice.insert.len();
            }
            _ => {
                return Err(SpliceError {
                    start: splice.start,
                    remove: splice.remove,
                    len,
                    floor,
                })
            }
        }
    }
    Ok(after)
}

/// Applies `splices`, whose indices refer to `list` as it is before any
/// of them, in place. A splice that keeps its length moves nothing else.
///
/// # Errors
///
/// A splice that does not fit ([`check`]); `list` is then untouched.
pub fn apply<T: Clone>(list: &mut Vec<T>, splices: &[Splice<'_, T>]) -> Result<(), SpliceError> {
    check(list.len(), splices)?;
    // Last first, so every start still indexes the original list.
    for splice in splices.iter().rev() {
        list.splice(
            splice.start..splice.start + splice.remove,
            splice.insert.iter().cloned(),
        );
    }
    Ok(())
}
