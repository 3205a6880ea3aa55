//! Serializable annealing checkpoints.
//!
//! A [`Checkpoint`] captures the complete engine state at a
//! temperature-step boundary — current and best states with their costs,
//! the cooling position, run statistics, accumulated snapshots, and the
//! exact RNG state. Feeding it back through
//! [`RunOptions::resume`](crate::RunOptions::resume) continues the run
//! **bit-identically**: the resumed run produces the same best state,
//! cost, and statistics as an uninterrupted run with the same
//! `(problem, seed)`.
//!
//! # Format stability
//!
//! Checkpoints are plain JSON with a `version` field, currently
//! [`FORMAT_VERSION`]. They are portable across processes and machines
//! but only within the same library version lineage: resuming validates
//! the version and the schedule and refuses mismatches rather than
//! silently diverging. Checkpoints are *not* a long-term archival format.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::engine::{AnnealStats, TemperatureSnapshot};
use crate::Schedule;

/// The checkpoint format version this library writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// The staging file [`write_atomic`] writes before renaming it over
/// `path`: `path` with its extension replaced by `tmp`.
#[must_use]
pub fn staging_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Atomically replaces `path` with `bytes`, the one durable writer of
/// the workspace: creates the [`staging_path`], writes `bytes`, syncs
/// the file, closes it and renames it over `path`. A crash at any point
/// leaves the old file or the new one, and at worst a torn staging file
/// that readers never open. The parent directory is not synced after the
/// rename, so a power loss can still undo the rename.
///
/// # Errors
///
/// The file that failed — the staging file, or `path` when the rename
/// failed — with the I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), (PathBuf, std::io::Error)> {
    let tmp = staging_path(path);
    let staged = fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()
    });
    if let Err(err) = staged {
        return Err((tmp, err));
    }
    fs::rename(&tmp, path).map_err(|err| (path.to_owned(), err))
}

/// Complete engine state at a temperature-step boundary.
///
/// Emitted by [`Annealer::run`](crate::Annealer::run) to
/// [`RunOptions::checkpoints`](crate::RunOptions::checkpoints) on the
/// cadence set by
/// [`RunControl::with_checkpoint_every`](crate::RunControl::with_checkpoint_every);
/// consumed through [`RunOptions::resume`](crate::RunOptions::resume).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint<S> {
    /// Checkpoint format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// The seed the run started from.
    pub seed: u64,
    /// The schedule the run was started with. Resume validates this
    /// against the resuming annealer's schedule.
    pub schedule: Schedule,
    /// The adaptive initial temperature (resume must not re-estimate it).
    pub initial_temperature: f64,
    /// The temperature the *next* step will run at.
    pub temperature: f64,
    /// Completed temperature steps (equals `stats.temperatures`).
    pub steps_done: usize,
    /// The walker's current state.
    pub current: S,
    /// Cost of [`current`](Checkpoint::current).
    pub current_cost: f64,
    /// Best state seen so far.
    pub best: S,
    /// Cost of [`best`](Checkpoint::best).
    pub best_cost: f64,
    /// Statistics accumulated so far.
    pub stats: AnnealStats,
    /// Per-temperature snapshots accumulated so far (empty unless the
    /// schedule enables them).
    pub snapshots: Vec<TemperatureSnapshot<S>>,
    /// The exact RNG state at the boundary.
    pub rng: ChaCha8Rng,
}

impl<S: Serialize> Checkpoint<S> {
    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        // irgrid-lint: allow(P1): serializing a plain owned data struct cannot fail
        serde_json::to_string_pretty(self).expect("checkpoint serialization is infallible")
    }

    /// Atomically writes the checkpoint to `path` through
    /// [`write_atomic`], so a crash mid-write never leaves a truncated
    /// checkpoint behind.
    pub fn write_file(&self, path: &Path) -> Result<(), CheckpointIoError> {
        write_atomic(path, self.to_json().as_bytes()).map_err(|(path, source)| {
            CheckpointIoError::Io {
                path: path.display().to_string(),
                source,
            }
        })
    }
}

impl<S: Deserialize> Checkpoint<S> {
    /// Parses a checkpoint from JSON text.
    pub fn from_json(text: &str) -> Result<Self, CheckpointIoError> {
        serde_json::from_str(text).map_err(|err| CheckpointIoError::Parse(err.to_string()))
    }

    /// Reads a checkpoint from a file written by
    /// [`write_file`](Checkpoint::write_file).
    pub fn read_file(path: &Path) -> Result<Self, CheckpointIoError> {
        let text = fs::read_to_string(path).map_err(|source| CheckpointIoError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Self::from_json(&text)
    }
}

/// Error reading or writing a checkpoint file.
#[derive(Debug)]
pub enum CheckpointIoError {
    /// Filesystem failure.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file's contents did not parse as a checkpoint.
    Parse(String),
}

impl fmt::Display for CheckpointIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointIoError::Io { path, source } => {
                write!(f, "checkpoint i/o failed for `{path}`: {source}")
            }
            CheckpointIoError::Parse(why) => write!(f, "checkpoint did not parse: {why}"),
        }
    }
}

impl std::error::Error for CheckpointIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointIoError::Io { source, .. } => Some(source),
            CheckpointIoError::Parse(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_checkpoint() -> Checkpoint<i64> {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // Advance mid-block so serialization must capture intra-block
        // position too.
        for _ in 0..13 {
            use rand::RngCore;
            rng.next_u32();
        }
        Checkpoint {
            version: FORMAT_VERSION,
            seed: 7,
            schedule: Schedule::quick(),
            initial_temperature: 123.456,
            temperature: 45.6,
            steps_done: 11,
            current: -3,
            current_cost: 99.5,
            best: 4,
            best_cost: 12.25,
            stats: AnnealStats {
                temperatures: 11,
                accepted: 420,
                rejected: 240,
                initial_temperature: 123.456,
                final_temperature: 45.6,
            },
            snapshots: vec![],
            rng,
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let checkpoint = sample_checkpoint();
        let text = checkpoint.to_json();
        let back: Checkpoint<i64> = Checkpoint::from_json(&text).expect("parse");
        assert_eq!(checkpoint, back);
    }

    #[test]
    fn rng_stream_survives_roundtrip() {
        let checkpoint = sample_checkpoint();
        let back: Checkpoint<i64> = Checkpoint::from_json(&checkpoint.to_json()).expect("parse");
        let mut original = checkpoint.rng;
        let mut restored = back.rng;
        use rand::RngCore;
        for _ in 0..100 {
            assert_eq!(original.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn file_roundtrip_and_atomic_write() {
        let dir = std::env::temp_dir().join("irgrid_checkpoint_test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ckpt.json");
        let checkpoint = sample_checkpoint();
        checkpoint.write_file(&path).expect("write");
        // The temporary staging file must not linger.
        assert!(!path.with_extension("tmp").exists());
        let back: Checkpoint<i64> = Checkpoint::read_file(&path).expect("read");
        assert_eq!(checkpoint, back);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_failed_atomic_write_names_the_staging_file() {
        let path = std::env::temp_dir()
            .join("irgrid_no_such_dir")
            .join("ckpt.json");
        let err = sample_checkpoint().write_file(&path).unwrap_err();
        let CheckpointIoError::Io { path: named, .. } = err else {
            panic!("expected an i/o error, got {err}");
        };
        assert_eq!(named, staging_path(&path).display().to_string());
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = Checkpoint::<i64>::from_json("{ not json").unwrap_err();
        assert!(matches!(err, CheckpointIoError::Parse(_)));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Checkpoint::<i64>::read_file(Path::new("/nonexistent/ckpt.json")).unwrap_err();
        assert!(matches!(err, CheckpointIoError::Io { .. }));
    }
}
