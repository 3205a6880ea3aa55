//! Deterministic fault injection.
//!
//! Every robustness claim the daemon makes is only as good as the faults
//! it was tested under, so the fault injector is part of the product: a
//! seeded, *pure* decision function consulted at every persistence and
//! protocol boundary. Determinism matters more than realism here — a
//! chaos run that loses a session must be replayable byte for byte from
//! its seed.
//!
//! # Why decisions are derived, not streamed
//!
//! A single shared RNG stream would make fault placement depend on thread
//! interleaving (whichever connection consults first draws first). Each
//! decision is instead computed from an independent ChaCha8 stream seeded
//! by `(seed, site, key, index)`: the *k*-th consultation of a given site
//! for a given session always gets the same answer, no matter how
//! connections interleave. The injector is therefore lock-free, `Sync`,
//! and reproducible under any scheduler.
//!
//! Sites in the daemon (production sites live in [`REGISTERED_SITES`];
//! `frame.read` is consulted only from test harnesses):
//!
//! | site              | key        | faults                         |
//! |-------------------|------------|--------------------------------|
//! | `persist.session` | session id | io-error, torn write, kill     |
//! | `persist.log`     | session id | io-error, torn record, kill    |
//! | `delta.commit`    | session id | io-error, kill (pre-persist)   |
//! | `frame.read`      | session id | (tests) stall, malformed frame |
//!
//! A `Kill` decision simulates SIGKILL at a persistence boundary: the
//! store writes a *torn prefix* of the staged temporary file (a snapshot)
//! or of the appended record (the commit log) and then trips the
//! daemon's kill switch — no further writes anywhere, ever — exactly the
//! on-disk picture a power cut leaves behind.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The central chaos-site registry: every *production* consult site
/// string, in consultation-boundary order. `irgrid-lint` rule S2 checks
/// both directions against this table — a consult site missing here is a
/// typo that silently disables fault injection, and an entry no
/// production code consults is a dead site overstating chaos coverage.
pub const REGISTERED_SITES: &[&str] = &[
    "persist.session", // SnapshotStore::write, one consult per snapshot write
    "persist.log",     // SnapshotStore::append, one consult per commit-log append
    "delta.commit",    // SessionManager delta commit, consulted before persist
];

/// Per-site fault probabilities, in parts per million of consultations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Probability of a plain `IoError` fault.
    pub io_error_ppm: u32,
    /// Probability of a torn write (partial temp file, then an error).
    pub torn_ppm: u32,
    /// Probability of a simulated kill at the boundary.
    pub kill_ppm: u32,
}

impl ChaosConfig {
    /// The default mix used by `--chaos`: aggressive enough that a short
    /// smoke run hits every fault class, survivable enough that clients
    /// with retries always finish.
    #[must_use]
    pub fn default_mix() -> ChaosConfig {
        ChaosConfig {
            io_error_ppm: 60_000,
            torn_ppm: 40_000,
            kill_ppm: 15_000,
        }
    }
}

/// What the injector decided for one consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    None,
    /// Fail the operation with an injected I/O error.
    IoError,
    /// Write only `keep_per_mille`/1000 of the staged bytes, then fail.
    Torn {
        /// Fraction of the payload to keep, in thousandths (0..=999).
        keep_per_mille: u32,
    },
    /// Simulate a crash at this boundary: torn prefix, then a daemon-wide
    /// kill switch.
    Kill {
        /// Fraction of the payload written before the "crash".
        keep_per_mille: u32,
    },
}

/// The seeded fault injector. `Chaos::off()` is free: every decision is
/// [`FaultDecision::None`] without touching an RNG.
#[derive(Debug, Clone, Copy)]
pub struct Chaos {
    seed: Option<u64>,
    epoch: u64,
    config: ChaosConfig,
}

/// FNV-1a over a byte string, the workspace's standard cheap stable hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Chaos {
    /// No fault injection (production default).
    #[must_use]
    pub fn off() -> Chaos {
        Chaos {
            seed: None,
            epoch: 0,
            config: ChaosConfig::default_mix(),
        }
    }

    /// Seeded injection with the default probability mix.
    #[must_use]
    pub fn seeded(seed: u64) -> Chaos {
        Chaos {
            seed: Some(seed),
            epoch: 0,
            config: ChaosConfig::default_mix(),
        }
    }

    /// Seeded injection with explicit probabilities.
    #[must_use]
    pub fn with_config(seed: u64, config: ChaosConfig) -> Chaos {
        Chaos {
            seed: Some(seed),
            epoch: 0,
            config,
        }
    }

    /// Sets the boot epoch, giving each daemon lifetime its own fault
    /// stream. Restart harnesses bump this on every restart: a session's
    /// per-write consultation index restarts at 0 with the process, and
    /// without an epoch the exact decision that killed the daemon would
    /// replay on the same write after recovery, forever. Still fully
    /// deterministic — placement is a pure function of
    /// `(seed, epoch, site, key, index)`.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Chaos {
        self.epoch = epoch;
        self
    }

    /// Whether injection is enabled at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.seed.is_some()
    }

    /// The decision for the `index`-th consultation of `site` for `key`.
    ///
    /// Pure: the same `(seed, site, key, index)` always returns the same
    /// decision, on any thread, in any order.
    #[must_use]
    pub fn decide(&self, site: &str, key: &str, index: u64) -> FaultDecision {
        let Some(seed) = self.seed else {
            return FaultDecision::None;
        };
        let mixed = seed
            ^ fnv1a(site.as_bytes()).rotate_left(17)
            ^ fnv1a(key.as_bytes()).rotate_left(41)
            ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ self.epoch.wrapping_mul(0xd6e8_feb8_6659_fd93);
        let mut rng = ChaCha8Rng::seed_from_u64(mixed);
        let draw = rng.next_u32() % 1_000_000;
        let keep_per_mille = rng.next_u32() % 1000;
        let ChaosConfig {
            io_error_ppm,
            torn_ppm,
            kill_ppm,
        } = self.config;
        if draw < kill_ppm {
            FaultDecision::Kill { keep_per_mille }
        } else if draw < kill_ppm + torn_ppm {
            FaultDecision::Torn { keep_per_mille }
        } else if draw < kill_ppm + torn_ppm + io_error_ppm {
            FaultDecision::IoError
        } else {
            FaultDecision::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_never_faults() {
        let chaos = Chaos::off();
        for index in 0..1000 {
            assert_eq!(
                chaos.decide("persist.session", "s", index),
                FaultDecision::None
            );
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let chaos = Chaos::seeded(7);
        let forward: Vec<FaultDecision> = (0..200)
            .map(|i| chaos.decide("persist.session", "alice", i))
            .collect();
        let backward: Vec<FaultDecision> = (0..200)
            .rev()
            .map(|i| chaos.decide("persist.session", "alice", i))
            .collect();
        let reversed: Vec<FaultDecision> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn sites_and_keys_get_independent_streams() {
        let chaos = Chaos::with_config(
            3,
            ChaosConfig {
                io_error_ppm: 300_000,
                torn_ppm: 300_000,
                kill_ppm: 300_000,
            },
        );
        let a: Vec<FaultDecision> = (0..64)
            .map(|i| chaos.decide("persist.session", "a", i))
            .collect();
        let b: Vec<FaultDecision> = (0..64)
            .map(|i| chaos.decide("persist.session", "b", i))
            .collect();
        let c: Vec<FaultDecision> = (0..64)
            .map(|i| chaos.decide("frame.read", "a", i))
            .collect();
        assert_ne!(a, b, "keys must not share a fault stream");
        assert_ne!(a, c, "sites must not share a fault stream");
    }

    #[test]
    fn default_mix_produces_every_fault_class() {
        let chaos = Chaos::seeded(11);
        let mut saw = (false, false, false, false);
        for index in 0..20_000 {
            match chaos.decide("persist.session", "mix", index) {
                FaultDecision::None => saw.0 = true,
                FaultDecision::IoError => saw.1 = true,
                FaultDecision::Torn { .. } => saw.2 = true,
                FaultDecision::Kill { .. } => saw.3 = true,
            }
        }
        assert!(saw.0 && saw.1 && saw.2 && saw.3, "mix {saw:?} incomplete");
    }

    #[test]
    fn epochs_change_the_stream() {
        let base = Chaos::seeded(5);
        let rebooted = Chaos::seeded(5).with_epoch(1);
        let a: Vec<FaultDecision> = (0..256)
            .map(|i| base.decide("persist.session", "s", i))
            .collect();
        let b: Vec<FaultDecision> = (0..256)
            .map(|i| rebooted.decide("persist.session", "s", i))
            .collect();
        assert_ne!(a, b, "each boot epoch must draw a fresh fault stream");
    }

    #[test]
    fn seeds_change_the_stream() {
        let a: Vec<FaultDecision> = (0..256)
            .map(|i| Chaos::seeded(1).decide("persist.session", "s", i))
            .collect();
        let b: Vec<FaultDecision> = (0..256)
            .map(|i| Chaos::seeded(2).decide("persist.session", "s", i))
            .collect();
        assert_ne!(a, b);
    }
}
