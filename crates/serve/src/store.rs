//! Crash-safe session persistence: atomic snapshot writes, synced
//! commit-log appends, fault hooks, and hardened loads that treat
//! anything torn as absent.
//!
//! A session has two files in the state directory: its snapshot,
//! `<session>.session.json`, and its commit log, `<session>.session.log`.
//!
//! - **Snapshots** go through [`irgrid_anneal::write_atomic`], the
//!   writer annealing checkpoints and fleet manifests use: it stages the
//!   full payload in a sibling `*.tmp`, `fsync`s it, renames it over the
//!   target and syncs the directory. A crash at any point leaves either
//!   the old complete snapshot or the new complete snapshot — never a
//!   mixture — and at worst a torn `*.tmp` that loads ignore. A session
//!   writes one at birth and when a commit compacts its log.
//! - **Commit-log records** are appended and synced with `fdatasync`
//!   (`SnapshotStore::append`); creating a log syncs the directory
//!   once. An append first cuts the log back to the end of its last
//!   whole record, so the torn tail of a failed append is gone before
//!   the retry writes, and the retry writes the bytes a clean run writes.
//!
//! Every write consults the [`Chaos`] injector first (`persist.session`
//! for snapshots, `persist.log` for appends). An injected `IoError` fails
//! before touching the filesystem; `Torn` writes only a prefix and fails
//! (a prefix of the staged `*.tmp`, or a torn last record in the log,
//! which recovery cuts); `Kill` writes a prefix and trips the daemon-wide
//! [`KillSwitch`] — after which every store operation fails fast with
//! [`StoreError::Killed`], modeling a process that is simply gone.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use irgrid_anneal::{staging_path, sync_dir, write_atomic};

use crate::chaos::{Chaos, FaultDecision};

/// A daemon-wide "the process is dead" flag, tripped by a chaos `Kill`
/// decision (or a real shutdown) and checked before every store write.
///
/// In-process tests use it to model SIGKILL without aborting the test
/// runner: once tripped, nothing is persisted anymore, and the test
/// "restarts the daemon" by building a fresh server over the same state
/// directory.
#[derive(Debug, Clone, Default)]
pub struct KillSwitch {
    flag: Arc<AtomicBool>,
}

impl KillSwitch {
    /// A fresh, untripped switch.
    #[must_use]
    pub fn new() -> KillSwitch {
        KillSwitch::default()
    }

    /// Trips the switch. Idempotent; visible to all clones.
    pub fn trip(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the switch has been tripped.
    #[must_use]
    pub fn is_tripped(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Error from a store operation.
#[derive(Debug)]
pub enum StoreError {
    /// A real (or injected) filesystem failure; the target snapshot is
    /// untouched and the operation may be retried.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The daemon's kill switch is tripped (chaos kill or shutdown); no
    /// further writes will succeed in this process lifetime.
    Killed,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "snapshot i/o failed for `{path}`: {source}")
            }
            StoreError::Killed => write!(f, "daemon kill switch tripped"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Killed => None,
        }
    }
}

fn injected(kind: &str) -> std::io::Error {
    std::io::Error::other(format!("injected chaos fault: {kind}"))
}

/// The session snapshot store rooted at one state directory.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
    chaos: Chaos,
    kill: KillSwitch,
    /// Injected faults drawn so far (all classes), shared across clones.
    /// Chaos tests assert on this to prove they actually exercised
    /// faults; absorbed retries are invisible at the client.
    faults: Arc<AtomicU64>,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store under `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: &Path, chaos: Chaos, kill: KillSwitch) -> Result<SnapshotStore, StoreError> {
        fs::create_dir_all(dir).map_err(|source| StoreError::Io {
            path: dir.display().to_string(),
            source,
        })?;
        Ok(SnapshotStore {
            dir: dir.to_owned(),
            chaos,
            kill,
            faults: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The kill switch shared with the daemon.
    #[must_use]
    pub fn kill_switch(&self) -> &KillSwitch {
        &self.kill
    }

    /// Injected faults drawn over this store's lifetime (all clones).
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// The snapshot path for a session id.
    #[must_use]
    pub fn path_for(&self, session_id: &str) -> PathBuf {
        self.dir.join(format!("{session_id}.session.json"))
    }

    /// The commit-log path for a session id.
    #[must_use]
    pub fn log_path_for(&self, session_id: &str) -> PathBuf {
        self.dir.join(format!("{session_id}.session.log"))
    }

    /// Consults the chaos injector at a non-write boundary — e.g. the
    /// `delta.commit` point between staging a commit and persisting it.
    /// Nothing is staged on disk: `IoError`/`Torn` decisions fail the
    /// operation (target snapshot untouched, retry allowed), `Kill`
    /// trips the daemon-wide kill switch, exactly as a fault drawn
    /// inside [`write`](Self::write) would.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on an injected fault; [`StoreError::Killed`]
    /// when the kill switch is (or just got) tripped.
    pub fn consult(&self, site: &str, key: &str, index: u64) -> Result<(), StoreError> {
        if self.kill.is_tripped() {
            return Err(StoreError::Killed);
        }
        match self.chaos.decide(site, key, index) {
            FaultDecision::None => Ok(()),
            FaultDecision::IoError | FaultDecision::Torn { .. } => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                Err(StoreError::Io {
                    path: format!("<{site}>"),
                    source: injected(site),
                })
            }
            FaultDecision::Kill { .. } => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                self.kill.trip();
                Err(StoreError::Killed)
            }
        }
    }

    /// Atomically writes `payload` as the snapshot for `session_id`.
    ///
    /// `write_seq` is the session's monotonically increasing write
    /// counter — the chaos consultation index, so fault placement is a
    /// pure function of the session's own history.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on real or injected failure (target snapshot
    /// intact either way); [`StoreError::Killed`] when the kill switch
    /// is (or just got) tripped.
    pub fn write(&self, session_id: &str, payload: &str, write_seq: u64) -> Result<(), StoreError> {
        if self.kill.is_tripped() {
            return Err(StoreError::Killed);
        }
        let path = self.path_for(session_id);
        let tmp = staging_path(&path);
        let io = |source| StoreError::Io {
            path: tmp.display().to_string(),
            source,
        };

        let bytes = payload.as_bytes();
        match self.chaos.decide("persist.session", session_id, write_seq) {
            FaultDecision::None => {}
            FaultDecision::IoError => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                return Err(io(injected("io-error")));
            }
            FaultDecision::Torn { keep_per_mille } => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                let keep = torn_len(bytes.len(), keep_per_mille);
                let _ = fs::write(&tmp, &bytes[..keep]);
                return Err(io(injected("torn-write")));
            }
            FaultDecision::Kill { keep_per_mille } => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                let keep = torn_len(bytes.len(), keep_per_mille);
                let _ = fs::write(&tmp, &bytes[..keep]);
                self.kill.trip();
                return Err(StoreError::Killed);
            }
        }

        write_atomic(&path, bytes).map_err(|(path, source)| StoreError::Io {
            path: path.display().to_string(),
            source,
        })
    }

    /// Appends one commit-log record for `session_id` and syncs its data.
    ///
    /// `at` is where the log's whole records end: bytes past it, the
    /// torn tail of a failed append, are cut first. A log that does not
    /// exist yet is created, and the directory synced. `write_seq` is the
    /// chaos consultation index, as for [`write`](Self::write).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on real or injected failure (the whole records
    /// before `at` intact either way); [`StoreError::Killed`] when the
    /// kill switch is (or just got) tripped.
    pub(crate) fn append(
        &self,
        session_id: &str,
        record: &str,
        at: u64,
        write_seq: u64,
    ) -> Result<(), StoreError> {
        if self.kill.is_tripped() {
            return Err(StoreError::Killed);
        }
        let path = self.log_path_for(session_id);
        let io = |source| StoreError::Io {
            path: path.display().to_string(),
            source,
        };
        let bytes = record.as_bytes();
        let torn = match self.chaos.decide("persist.log", session_id, write_seq) {
            FaultDecision::None => None,
            FaultDecision::IoError => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                return Err(io(injected("io-error")));
            }
            FaultDecision::Torn { keep_per_mille } => Some((keep_per_mille, false)),
            FaultDecision::Kill { keep_per_mille } => Some((keep_per_mille, true)),
        };
        let opened = self.open_log(&path, at);
        let Some((keep_per_mille, kill)) = torn else {
            return opened
                .and_then(|mut log| {
                    log.write_all(bytes)?;
                    log.sync_data()
                })
                .map_err(io);
        };
        self.faults.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut log) = opened {
            let _ = log.write_all(&bytes[..torn_len(bytes.len(), keep_per_mille)]);
        }
        if kill {
            self.kill.trip();
            return Err(StoreError::Killed);
        }
        Err(io(injected("torn-write")))
    }

    /// Opens the commit log at `path` for appending at byte `at`,
    /// creating it (and syncing the directory) when it does not exist.
    /// A log shorter than `at` has lost whole records: it is refused,
    /// never padded.
    fn open_log(&self, path: &Path, at: u64) -> std::io::Result<File> {
        let log = match OpenOptions::new().append(true).open(path) {
            Ok(log) => log,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                let log = OpenOptions::new().append(true).create(true).open(path)?;
                sync_dir(&self.dir)?;
                log
            }
            Err(err) => return Err(err),
        };
        let len = log.metadata()?.len();
        if len < at {
            return Err(std::io::Error::other(format!(
                "the commit log holds {len} bytes, fewer than its {at} bytes of whole records"
            )));
        }
        if len > at {
            log.set_len(at)?;
        }
        Ok(log)
    }

    /// Reads the commit log for `session_id`; a missing log reads empty.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] for real read failures other than
    /// not-found.
    pub fn read_log(&self, session_id: &str) -> Result<Vec<u8>, StoreError> {
        let path = self.log_path_for(session_id);
        match fs::read(&path) {
            Ok(bytes) => Ok(bytes),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(source) => Err(StoreError::Io {
                path: path.display().to_string(),
                source,
            }),
        }
    }

    /// Cuts the commit log for `session_id` back to its first `len`
    /// bytes: to 0 when a compaction or a birth empties it, or to its
    /// last whole record on resume. A missing or shorter log is left as
    /// it is. The cut is not synced: bytes it leaves behind after a power
    /// loss are cut again, by the next append or the next resume.
    ///
    /// # Errors
    ///
    /// [`StoreError::Killed`] when the kill switch is tripped;
    /// [`StoreError::Io`] for real failures other than not-found.
    pub(crate) fn cut_log(&self, session_id: &str, len: u64) -> Result<(), StoreError> {
        if self.kill.is_tripped() {
            return Err(StoreError::Killed);
        }
        let path = self.log_path_for(session_id);
        let cut = match OpenOptions::new().write(true).open(&path) {
            Ok(log) => log.metadata().and_then(|meta| {
                if meta.len() > len {
                    log.set_len(len)
                } else {
                    Ok(())
                }
            }),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(err) => Err(err),
        };
        cut.map_err(|source| StoreError::Io {
            path: path.display().to_string(),
            source,
        })
    }

    /// Reads the snapshot for `session_id`, if one exists. Torn staging
    /// files (`*.tmp`) are never read.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] for real read failures other than
    /// not-found (not-found is `Ok(None)`).
    pub fn read(&self, session_id: &str) -> Result<Option<String>, StoreError> {
        let path = self.path_for(session_id);
        match fs::read_to_string(&path) {
            Ok(text) => Ok(Some(text)),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(source) => Err(StoreError::Io {
                path: path.display().to_string(),
                source,
            }),
        }
    }

    /// Deletes the snapshot for `session_id` (and any torn staging file),
    /// then its commit log. The snapshot goes first: a log left behind
    /// alone is never read, and the session's next birth empties it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Killed`] when the kill switch is tripped;
    /// [`StoreError::Io`] for real failures other than not-found.
    pub fn remove(&self, session_id: &str) -> Result<(), StoreError> {
        if self.kill.is_tripped() {
            return Err(StoreError::Killed);
        }
        let path = self.path_for(session_id);
        let _ = fs::remove_file(staging_path(&path));
        for path in [path, self.log_path_for(session_id)] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
                Err(source) => {
                    return Err(StoreError::Io {
                        path: path.display().to_string(),
                        source,
                    })
                }
            }
        }
        Ok(())
    }

    /// Lists the session ids with a complete snapshot on disk, sorted.
    /// Torn staging files and foreign files are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory cannot be read.
    pub fn list(&self) -> Result<Vec<String>, StoreError> {
        let entries = fs::read_dir(&self.dir).map_err(|source| StoreError::Io {
            path: self.dir.display().to_string(),
            source,
        })?;
        let mut ids = Vec::new();
        for entry in entries.filter_map(Result::ok) {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".session.json") else {
                continue;
            };
            if crate::protocol::valid_session_id(stem) {
                ids.push(stem.to_owned());
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }
}

/// Length of the kept prefix of a torn write.
fn torn_len(len: usize, keep_per_mille: u32) -> usize {
    // Never the full payload: a torn write that kept everything would be
    // indistinguishable from success (modulo the missing rename, which
    // this models too — tmp complete, rename never happened).
    let kept = len.saturating_mul(keep_per_mille as usize) / 1000;
    kept.min(len.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;

    fn temp_store(tag: &str, chaos: Chaos) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!("irgrid_serve_store_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::open(&dir, chaos, KillSwitch::new()).expect("open store")
    }

    #[test]
    fn write_read_roundtrip_and_no_tmp_litter() {
        let store = temp_store("roundtrip", Chaos::off());
        store.write("alice", "{\"x\":1}", 0).expect("write");
        assert_eq!(store.read("alice").expect("read"), Some("{\"x\":1}".into()));
        assert!(!store.path_for("alice").with_extension("tmp").exists());
        assert_eq!(store.list().expect("list"), vec!["alice".to_owned()]);
        store.remove("alice").expect("remove");
        assert_eq!(store.read("alice").expect("read"), None);
        assert!(store.list().expect("list").is_empty());
    }

    #[test]
    fn injected_io_error_leaves_previous_snapshot_intact() {
        // io_error_ppm = 1_000_000: every write fails.
        let all_fail = Chaos::with_config(
            1,
            ChaosConfig {
                io_error_ppm: 1_000_000,
                torn_ppm: 0,
                kill_ppm: 0,
            },
        );
        let dir = std::env::temp_dir().join("irgrid_serve_store_ioerr");
        let _ = fs::remove_dir_all(&dir);
        let clean = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("open");
        clean.write("s", "old", 0).expect("seed write");
        let faulty = SnapshotStore::open(&dir, all_fail, KillSwitch::new()).expect("open");
        let err = faulty.write("s", "new", 1).expect_err("must fail");
        assert!(matches!(err, StoreError::Io { .. }));
        assert_eq!(clean.read("s").expect("read"), Some("old".into()));
    }

    #[test]
    fn torn_write_leaves_previous_snapshot_and_partial_tmp() {
        let all_torn = Chaos::with_config(
            2,
            ChaosConfig {
                io_error_ppm: 0,
                torn_ppm: 1_000_000,
                kill_ppm: 0,
            },
        );
        let dir = std::env::temp_dir().join("irgrid_serve_store_torn");
        let _ = fs::remove_dir_all(&dir);
        let clean = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("open");
        clean.write("s", "old-complete-snapshot", 0).expect("seed");
        let faulty = SnapshotStore::open(&dir, all_torn, KillSwitch::new()).expect("open");
        let payload = "new-snapshot-that-tears";
        let err = faulty.write("s", payload, 1).expect_err("must tear");
        assert!(matches!(err, StoreError::Io { .. }));
        // The real snapshot is byte-for-byte the old one.
        assert_eq!(
            clean.read("s").expect("read"),
            Some("old-complete-snapshot".into())
        );
        // The torn tmp is a strict prefix, and list() ignores it.
        let tmp = faulty.path_for("s").with_extension("tmp");
        if tmp.exists() {
            let torn = fs::read_to_string(&tmp).expect("tmp readable");
            assert!(torn.len() < payload.len());
            assert!(payload.starts_with(&torn));
        }
        assert_eq!(faulty.list().expect("list"), vec!["s".to_owned()]);
    }

    #[test]
    fn kill_trips_switch_and_blocks_all_further_writes() {
        let all_kill = Chaos::with_config(
            3,
            ChaosConfig {
                io_error_ppm: 0,
                torn_ppm: 0,
                kill_ppm: 1_000_000,
            },
        );
        let store = temp_store("kill", all_kill);
        let err = store.write("s", "doomed", 0).expect_err("must kill");
        assert!(matches!(err, StoreError::Killed));
        assert!(store.kill_switch().is_tripped());
        // Even a would-be-clean write now fails fast.
        let err = store.write("other", "x", 0).expect_err("killed daemon");
        assert!(matches!(err, StoreError::Killed));
        assert_eq!(store.read("s").expect("read"), None);
    }

    #[test]
    fn torn_len_never_keeps_everything() {
        for len in [0usize, 1, 2, 100] {
            for ppm in [0u32, 1, 500, 999] {
                let kept = torn_len(len, ppm);
                if len == 0 {
                    assert_eq!(kept, 0);
                } else {
                    assert!(kept < len, "len={len} ppm={ppm} kept={kept}");
                }
            }
        }
    }

    #[test]
    fn list_skips_foreign_and_invalid_names() {
        let store = temp_store("list", Chaos::off());
        store.write("good-1", "{}", 0).expect("write");
        fs::write(store.path_for("x").with_extension("tmp"), "torn").expect("tmp");
        fs::write(
            store
                .path_for("ignored")
                .parent()
                .expect("dir")
                .join("README"),
            "not a session",
        )
        .expect("write");
        fs::write(
            store
                .path_for("ignored")
                .parent()
                .expect("dir")
                .join("has space.session.json"),
            "{}",
        )
        .expect("write");
        assert_eq!(store.list().expect("list"), vec!["good-1".to_owned()]);
    }

    #[test]
    fn appends_cut_a_torn_tail_so_a_retry_writes_what_a_clean_run_writes() {
        let records = ["first record\n", "second record\n", "third record\n"];
        let clean = temp_store("append_clean", Chaos::off());
        let mut at = 0;
        for (seq, record) in records.iter().enumerate() {
            clean.append("s", record, at, seq as u64).expect("append");
            at += record.len() as u64;
        }
        assert_eq!(
            clean.read_log("s").expect("read"),
            records.concat().as_bytes()
        );
        assert!(
            clean.list().expect("list").is_empty(),
            "a log alone is not listed"
        );

        // Every append tears first, then a clean retry appends at the
        // same offset.
        let torn = Chaos::with_config(
            5,
            ChaosConfig {
                io_error_ppm: 0,
                torn_ppm: 1_000_000,
                kill_ppm: 0,
            },
        );
        let dir = std::env::temp_dir().join("irgrid_serve_store_append_torn");
        let _ = fs::remove_dir_all(&dir);
        let faulty = SnapshotStore::open(&dir, torn, KillSwitch::new()).expect("open");
        let healthy = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("open");
        let mut at = 0;
        for (seq, record) in records.iter().enumerate() {
            let err = faulty
                .append("s", record, at, seq as u64)
                .expect_err("torn");
            assert!(matches!(err, StoreError::Io { .. }));
            let log = healthy.read_log("s").expect("read");
            assert!(
                log.len() as u64 >= at,
                "whole records survive a torn append"
            );
            healthy.append("s", record, at, seq as u64).expect("retry");
            at += record.len() as u64;
        }
        assert_eq!(
            healthy.read_log("s").expect("read"),
            clean.read_log("s").expect("read")
        );

        // Cutting trims only what lies past `len`; a missing log is fine.
        healthy.cut_log("s", 99).expect("no-op");
        healthy.cut_log("s", records[0].len() as u64).expect("cut");
        assert_eq!(healthy.read_log("s").expect("read"), records[0].as_bytes());
        healthy.cut_log("absent", 0).expect("absent log");
        assert!(!healthy.log_path_for("absent").exists());
    }

    #[test]
    fn a_killed_append_leaves_a_torn_record_and_blocks_further_writes() {
        let all_kill = Chaos::with_config(
            4,
            ChaosConfig {
                io_error_ppm: 0,
                torn_ppm: 0,
                kill_ppm: 1_000_000,
            },
        );
        let dir = std::env::temp_dir().join("irgrid_serve_store_append_kill");
        let _ = fs::remove_dir_all(&dir);
        let clean = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("open");
        clean.append("s", "whole\n", 0, 0).expect("append");
        let killed = SnapshotStore::open(&dir, all_kill, KillSwitch::new()).expect("open");
        let record = "a record long enough to tear somewhere inside\n";
        let err = killed.append("s", record, 6, 1).expect_err("kill");
        assert!(matches!(err, StoreError::Killed));
        assert!(killed.kill_switch().is_tripped());
        let log = clean.read_log("s").expect("read");
        assert!(log.starts_with(b"whole\n"));
        assert!(record.as_bytes().starts_with(&log[6..]));
        assert!(log.len() < 6 + record.len(), "the record is torn");
        for err in [
            killed.append("s", record, 6, 2).expect_err("dead"),
            killed.cut_log("s", 6).expect_err("dead"),
        ] {
            assert!(matches!(err, StoreError::Killed));
        }
    }

    #[test]
    fn an_append_past_the_end_of_the_log_is_refused() {
        let store = temp_store("append_short", Chaos::off());
        store.append("s", "record\n", 0, 0).expect("append");
        let err = store.append("s", "next\n", 99, 1).expect_err("gap");
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert_eq!(store.read_log("s").expect("read"), b"record\n");
    }

    #[test]
    fn remove_deletes_the_log_too() {
        let store = temp_store("remove_log", Chaos::off());
        store.write("s", "{}", 0).expect("write");
        store.append("s", "record\n", 0, 1).expect("append");
        store.remove("s").expect("remove");
        assert!(!store.path_for("s").exists());
        assert!(!store.log_path_for("s").exists());
        assert!(store.read_log("s").expect("read").is_empty());
    }
}
