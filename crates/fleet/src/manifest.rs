//! The fleet's crash-recovery manifest.
//!
//! All mutable fleet state — every replica's checkpoint or terminal
//! result, the exchange RNG, the exchange trace, and the telemetry
//! history — is committed as **one** atomically written JSON file at
//! every round barrier. A crash therefore never leaves the run directory
//! torn across files: either the barrier committed (the manifest names
//! it) or it did not (the manifest still names the previous barrier and
//! the interrupted round is simply re-run). The manifest is the only
//! file that holds replica state, so it is the source of truth.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use irgrid_anneal::{write_atomic, Schedule};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::config::{FleetConfig, FleetError};
use crate::exchange::ExchangeDecision;
use crate::replica::ReplicaRecord;
use crate::telemetry::FleetEvent;

/// The manifest format version this library writes and reads.
pub const MANIFEST_VERSION: u32 = 1;

/// File name of the manifest inside a fleet run directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// File name of the JSONL telemetry mirror inside a fleet run directory.
pub const TELEMETRY_FILE: &str = "telemetry.jsonl";

/// Complete fleet state at a committed round barrier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetManifest<S> {
    /// Manifest format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// The configuration the fleet was started with. Resume validates
    /// result compatibility (everything but the worker count).
    pub config: FleetConfig,
    /// The annealing schedule shared by every replica.
    pub schedule: Schedule,
    /// Rounds committed so far.
    pub rounds_done: usize,
    /// The exchange RNG exactly as it stood after the last committed
    /// round's exchanges.
    pub exchange_rng: ChaCha8Rng,
    /// Every replica's lifecycle state at the barrier.
    pub replicas: Vec<ReplicaRecord<S>>,
    /// All exchange decisions so far, in decision order.
    pub trace: Vec<ExchangeDecision>,
    /// The full telemetry history, replayed into the JSONL mirror on
    /// resume.
    pub events: Vec<FleetEvent>,
}

impl<S: Serialize> FleetManifest<S> {
    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        // irgrid-lint: allow(P1): serializing a plain owned data struct cannot fail
        serde_json::to_string_pretty(self).expect("manifest serialization is infallible")
    }

    /// Atomically writes the manifest through
    /// [`irgrid_anneal::write_atomic`]. A crash mid-write leaves the
    /// previous manifest intact.
    pub fn write_file(&self, path: &Path) -> Result<(), FleetError> {
        write_atomic(path, self.to_json().as_bytes()).map_err(|(path, source)| FleetError::Io {
            path: path.display().to_string(),
            source,
        })
    }
}

impl<S: Deserialize> FleetManifest<S> {
    /// Parses a manifest from JSON text.
    pub fn from_json(text: &str) -> Result<Self, FleetError> {
        serde_json::from_str(text).map_err(|err| FleetError::ManifestParse(err.to_string()))
    }

    /// Reads a manifest written by [`write_file`](FleetManifest::write_file).
    ///
    /// Corruption of any kind — truncation, trailing garbage, bytes that
    /// are not UTF-8 — surfaces as [`FleetError::ManifestParse`], never a
    /// panic and never a partially loaded manifest. Only a file that
    /// cannot be read at all is an [`FleetError::Io`].
    pub fn read_file(path: &Path) -> Result<Self, FleetError> {
        let bytes = fs::read(path).map_err(|source| FleetError::Io {
            path: path.display().to_string(),
            source,
        })?;
        let text = String::from_utf8(bytes)
            .map_err(|_| FleetError::ManifestParse("manifest is not valid UTF-8".to_owned()))?;
        Self::from_json(&text)
    }
}

impl<S> FleetManifest<S> {
    /// Validates that this manifest can continue a fleet with `config`
    /// and `schedule`: matching format version, result-compatible
    /// config, identical schedule, and a consistent replica count.
    pub fn validate(&self, config: &FleetConfig, schedule: &Schedule) -> Result<(), FleetError> {
        if self.version != MANIFEST_VERSION {
            return Err(FleetError::ManifestVersion {
                found: self.version,
                expected: MANIFEST_VERSION,
            });
        }
        if !self.config.result_compatible(config) {
            return Err(FleetError::ManifestMismatch { what: "config" });
        }
        if self.schedule != *schedule {
            return Err(FleetError::ManifestMismatch { what: "schedule" });
        }
        if self.replicas.len() != config.replicas {
            return Err(FleetError::ManifestMismatch { what: "config" });
        }
        Ok(())
    }
}

/// An FNV-1a digest of a JSON-serializable state, reported in bench
/// summaries so two runs can be compared for bit-identity without
/// embedding whole floorplans.
#[must_use]
pub fn state_digest<S: Serialize>(state: &S) -> String {
    // The JSON text is hashed as it is printed, never held whole.
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    let hashed = serde_json::to_writer(&mut hash, state);
    // irgrid-lint: allow(P1): hashing cannot fail, so neither can the write
    hashed.expect("digest serialization is infallible");
    let mut out = String::with_capacity(16);
    // irgrid-lint: allow(P1): write! to a String is infallible
    write!(out, "{:016x}", hash.0).expect("writing to a String cannot fail");
    out
}

/// A 64-bit FNV-1a hash over the bytes written to it.
struct Fnv1a(u64);

impl std::io::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExchangeMode;
    use crate::replica::ReplicaPhase;
    use irgrid_anneal::{AnnealStats, StopReason};
    use rand::SeedableRng;

    fn sample() -> FleetManifest<i64> {
        FleetManifest {
            version: MANIFEST_VERSION,
            config: FleetConfig {
                replicas: 2,
                mode: ExchangeMode::Ladder,
                ..FleetConfig::default()
            },
            schedule: Schedule::quick(),
            rounds_done: 3,
            exchange_rng: ChaCha8Rng::seed_from_u64(11),
            replicas: vec![
                ReplicaRecord {
                    seed: 0,
                    phase: ReplicaPhase::Pending,
                },
                ReplicaRecord {
                    seed: 1,
                    phase: ReplicaPhase::Finished {
                        reason: StopReason::Converged,
                        best: 7,
                        best_cost: 0.5,
                        stats: AnnealStats::default(),
                    },
                },
            ],
            trace: vec![ExchangeDecision {
                round: 1,
                lower: 0,
                upper: 1,
                cost_lower: 2.0,
                cost_upper: 1.0,
                temp_lower: 8.0,
                temp_upper: 4.0,
                unit: 0.75,
                accepted: false,
            }],
            events: vec![FleetEvent::ReplicaStarted {
                replica: 0,
                seed: 0,
            }],
        }
    }

    #[test]
    fn manifest_roundtrips_through_file() {
        let dir = std::env::temp_dir().join("irgrid_fleet_manifest_test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(MANIFEST_FILE);
        let manifest = sample();
        manifest.write_file(&path).expect("write");
        let back: FleetManifest<i64> = FleetManifest::read_file(&path).expect("read");
        assert_eq!(manifest, back);
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_rejects_version_config_schedule_and_count_drift() {
        let manifest = sample();
        let config = manifest.config;
        let schedule = manifest.schedule;
        assert!(manifest.validate(&config, &schedule).is_ok());
        assert!(manifest
            .validate(
                &FleetConfig {
                    workers: 16,
                    ..config
                },
                &schedule
            )
            .is_ok());

        let mut wrong_version = manifest.clone();
        wrong_version.version = 99;
        assert!(matches!(
            wrong_version.validate(&config, &schedule),
            Err(FleetError::ManifestVersion { found: 99, .. })
        ));

        assert!(matches!(
            manifest.validate(&FleetConfig { seed0: 5, ..config }, &schedule),
            Err(FleetError::ManifestMismatch { what: "config" })
        ));

        assert!(matches!(
            manifest.validate(&config, &Schedule::default()),
            Err(FleetError::ManifestMismatch { what: "schedule" })
        ));

        let mut short = manifest.clone();
        short.replicas.pop();
        assert!(matches!(
            short.validate(&config, &schedule),
            Err(FleetError::ManifestMismatch { what: "config" })
        ));
    }

    #[test]
    fn corrupt_manifest_is_a_parse_error() {
        let err = FleetManifest::<i64>::from_json("{not json").expect_err("must fail");
        assert!(matches!(err, FleetError::ManifestParse(_)));
    }

    #[test]
    fn every_byte_level_truncation_fails_cleanly_and_never_loads_partially() {
        let json = sample().to_json();
        assert!(json.is_ascii(), "byte slicing below assumes ASCII output");
        for len in 0..json.len() {
            let torn = &json[..len];
            match FleetManifest::<i64>::from_json(torn) {
                Err(FleetError::ManifestParse(_)) => {}
                Err(other) => panic!("truncation at {len} gave a non-parse error: {other:?}"),
                Ok(_) => panic!("truncation at {len} of {} still parsed", json.len()),
            }
        }
        assert_eq!(
            FleetManifest::<i64>::from_json(&json).expect("full text parses"),
            sample()
        );
    }

    #[test]
    fn trailing_garbage_after_a_valid_manifest_is_rejected() {
        let json = sample().to_json();
        for garbage in ["x", "{}", "null", " \n[1,2]", "}"] {
            let err = FleetManifest::<i64>::from_json(&format!("{json}{garbage}"))
                .expect_err("trailing bytes must fail");
            assert!(matches!(err, FleetError::ManifestParse(_)), "{garbage:?}");
        }
    }

    #[test]
    fn non_utf8_bytes_on_disk_are_a_parse_error_not_a_panic() {
        let dir = std::env::temp_dir().join("irgrid_fleet_manifest_utf8_test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = sample().to_json().into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE, 0x00]);
        fs::write(&path, &bytes).expect("write corrupt bytes");
        let err = FleetManifest::<i64>::read_file(&path).expect_err("must fail");
        assert!(matches!(err, FleetError::ManifestParse(_)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tmp_from_a_crashed_write_never_shadows_the_committed_manifest() {
        let dir = std::env::temp_dir().join("irgrid_fleet_manifest_torn_test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(MANIFEST_FILE);

        let committed = sample();
        committed.write_file(&path).expect("commit round N");

        // Simulate a crash halfway through committing round N+1: the
        // sibling tmp holds a truncated next manifest and the rename
        // never happened.
        let mut next = committed.clone();
        next.rounds_done += 1;
        let next_json = next.to_json();
        fs::write(
            path.with_extension("tmp"),
            &next_json[..next_json.len() / 2],
        )
        .expect("write torn tmp");

        // Resume reads the committed barrier untouched — the torn round
        // is simply replayed.
        let back: FleetManifest<i64> = FleetManifest::read_file(&path).expect("read");
        assert_eq!(back, committed);
        assert_eq!(back.rounds_done, committed.rounds_done);

        // And the replayed round's commit overwrites the torn tmp.
        next.write_file(&path).expect("recommit round N+1");
        let back: FleetManifest<i64> = FleetManifest::read_file(&path).expect("reread");
        assert_eq!(back, next);
        assert!(!path.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_distinguishes_states_and_is_stable() {
        let a = state_digest(&vec![1i64, 2, 3]);
        let b = state_digest(&vec![1i64, 2, 3]);
        let c = state_digest(&vec![3i64, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }
}
