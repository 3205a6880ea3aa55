//! Fleet configuration and the crate's error type.

use std::fmt;

use irgrid_anneal::AnnealError;
use serde::{Deserialize, Serialize};

/// How replicas relate to each other while the fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExchangeMode {
    /// A multi-start portfolio: replicas never interact; the fleet is a
    /// deterministic parallel version of the paper's N-seed protocol.
    Independent,
    /// Parallel-tempering-style replica exchange: at every round barrier
    /// adjacent replicas (ordered by index, alternating even/odd pairings
    /// per round) may swap their *current* walker states via a Metropolis
    /// test on their temperatures and costs, driven by the dedicated
    /// exchange RNG.
    Ladder,
}

impl fmt::Display for ExchangeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExchangeMode::Independent => "independent",
            ExchangeMode::Ladder => "ladder",
        })
    }
}

/// Static description of a fleet: how many replicas, how they are seeded,
/// how often they synchronize, and how many workers drive them.
///
/// Everything except [`workers`](FleetConfig::workers) affects the
/// result; `workers` only affects wall-clock time. The config is embedded
/// in the crash-recovery manifest and validated on resume, so a resumed
/// fleet cannot silently diverge from the run that wrote the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of annealing replicas (≥ 1). Replica `k` runs seed
    /// [`seed0`](FleetConfig::seed0)` + k`.
    pub replicas: usize,
    /// Worker threads in the pool (≥ 1). Any value produces bit-identical
    /// results; excluded from manifest equality for that reason.
    pub workers: usize,
    /// First replica seed.
    pub seed0: u64,
    /// Temperature steps per synchronization round (≥ 1). Checkpoints,
    /// exchange decisions, and telemetry are emitted at these
    /// boundaries.
    pub sync_every: usize,
    /// Replica interaction mode.
    pub mode: ExchangeMode,
    /// Seed of the dedicated exchange RNG (independent of every replica
    /// RNG stream).
    pub exchange_seed: u64,
}

impl Default for FleetConfig {
    /// Four independent-seeded replicas exchanging every 5 steps on as
    /// many workers as replicas.
    fn default() -> FleetConfig {
        FleetConfig {
            replicas: 4,
            workers: 4,
            seed0: 0,
            sync_every: 5,
            mode: ExchangeMode::Independent,
            exchange_seed: 0x1adde2,
        }
    }
}

impl FleetConfig {
    /// Checks the parameter ranges, returning the first violation.
    pub fn validated(&self) -> Result<(), FleetError> {
        if self.replicas == 0 {
            return Err(FleetError::Config("replicas must be positive"));
        }
        if self.workers == 0 {
            return Err(FleetError::Config("workers must be positive"));
        }
        if self.sync_every == 0 {
            return Err(FleetError::Config("sync_every must be positive"));
        }
        Ok(())
    }

    /// Whether `other` describes the same *result* as `self`: everything
    /// but the worker count must match. Used to validate resumes.
    #[must_use]
    pub fn result_compatible(&self, other: &FleetConfig) -> bool {
        let FleetConfig {
            replicas,
            workers: _,
            seed0,
            sync_every,
            mode,
            exchange_seed,
        } = *self;
        replicas == other.replicas
            && seed0 == other.seed0
            && sync_every == other.sync_every
            && mode == other.mode
            && exchange_seed == other.exchange_seed
    }

    /// The annealing seed of replica `k`.
    #[must_use]
    pub fn replica_seed(&self, k: usize) -> u64 {
        self.seed0.wrapping_add(k as u64)
    }
}

/// A typed error from fleet orchestration.
#[derive(Debug)]
pub enum FleetError {
    /// A [`FleetConfig`] parameter is out of range.
    Config(&'static str),
    /// A replica's annealing run failed with a typed error (broken cost
    /// function, corrupt embedded checkpoint). The fleet aborts: costs
    /// cannot be trusted.
    Anneal {
        /// Which replica failed.
        replica: usize,
        /// The underlying error.
        source: AnnealError,
    },
    /// Reading or writing the manifest or the telemetry file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The manifest file did not parse.
    ManifestParse(String),
    /// The manifest was written by an incompatible format version.
    ManifestVersion {
        /// Version found in the manifest.
        found: u32,
        /// Version this library writes and reads.
        expected: u32,
    },
    /// The manifest's config or schedule does not match the resuming
    /// fleet's; resuming would not reproduce the original run.
    ManifestMismatch {
        /// Which aspect disagreed: `"config"` or `"schedule"`.
        what: &'static str,
    },
    /// `resume` was requested but the run directory has no manifest.
    NothingToResume {
        /// The directory searched.
        dir: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(why) => write!(f, "invalid fleet config: {why}"),
            FleetError::Anneal { replica, source } => {
                write!(f, "replica {replica} failed: {source}")
            }
            FleetError::Io { path, source } => write!(f, "fleet i/o failed for `{path}`: {source}"),
            FleetError::ManifestParse(why) => write!(f, "fleet manifest did not parse: {why}"),
            FleetError::ManifestVersion { found, expected } => write!(
                f,
                "fleet manifest version {found} is not supported (expected {expected})"
            ),
            FleetError::ManifestMismatch { what } => write!(
                f,
                "fleet manifest {what} differs from this fleet's; resuming would not \
                 reproduce the original run"
            ),
            FleetError::NothingToResume { dir } => {
                write!(f, "no fleet manifest to resume in `{dir}`")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Anneal { source, .. } => Some(source),
            FleetError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(FleetConfig::default().validated().is_ok());
    }

    #[test]
    fn zero_fields_are_rejected() {
        for bad in [
            FleetConfig {
                replicas: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                workers: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                sync_every: 0,
                ..FleetConfig::default()
            },
        ] {
            assert!(matches!(bad.validated(), Err(FleetError::Config(_))));
        }
    }

    #[test]
    fn worker_count_does_not_affect_result_compatibility() {
        let a = FleetConfig::default();
        let b = FleetConfig { workers: 16, ..a };
        assert!(a.result_compatible(&b));
        let c = FleetConfig { seed0: 9, ..a };
        assert!(!a.result_compatible(&c));
        let d = FleetConfig {
            mode: ExchangeMode::Ladder,
            ..a
        };
        assert!(!a.result_compatible(&d));
    }

    #[test]
    fn replica_seeds_are_consecutive() {
        let config = FleetConfig {
            seed0: 100,
            ..FleetConfig::default()
        };
        assert_eq!(config.replica_seed(0), 100);
        assert_eq!(config.replica_seed(3), 103);
    }

    #[test]
    fn config_survives_serde() {
        let config = FleetConfig {
            mode: ExchangeMode::Ladder,
            ..FleetConfig::default()
        };
        let value = serde::Serialize::to_value(&config);
        let back: FleetConfig = serde::Deserialize::from_value(&value).expect("roundtrip");
        assert_eq!(config, back);
    }
}
