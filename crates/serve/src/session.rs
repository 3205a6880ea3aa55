//! One client's session: the serve-side wrapper around a
//! session-resident [`IrDeltaEvaluator`].
//!
//! A session pairs a small **persistent** record ([`SessionState`]) with
//! deterministic runtime machinery. The contract is move-shaped:
//! `Propose` scores one candidate against the committed floorplan through
//! the exact Q32 delta pipeline (the same bits as a fresh rebase),
//! `Commit` makes the pending proposal the new committed state, and
//! `Undo` drops it. Only `Commit` mutates persistent state; `Propose` and
//! `Undo` are pure, which is what lets the daemon skip a persist
//! round-trip on the (overwhelmingly common) rejected-move path, and
//! makes `Propose` then `Undo` a read-only score.
//!
//! # Persistence: a snapshot and a commit log
//!
//! A session lives on disk as two files: the snapshot
//! (`<session>.session.json`, the pretty-printed [`SessionState`]) and
//! the **commit log** (`<session>.session.log`). A commit appends one
//! record to the log: its sequence number, request id, digest, score,
//! fingerprint and chip, and the [`Splice`]s that turn the committed
//! segment list into the new one. Each record is one line,
//! `<checksum> <json>\n`, where the checksum is the 16-hex FNV-1a of the
//! JSON text. A commit rewrites the snapshot instead, and empties the
//! log, when the log plus its record would outgrow the last snapshot:
//! the first commit of a session, a whole-state change, and about one
//! commit in `snapshot bytes / record bytes` otherwise.
//!
//! # Crash recovery
//!
//! The snapshot stores the committed [`FloorplanState`] plus a bounded
//! **commit journal** whose tail pins the committed map's identity: the
//! commit's score bits and a fingerprint of the evaluator's exact cut
//! vectors and Q32 totals ([`IrDeltaEvaluator::committed_fingerprint`]).
//! [`Session::resume`] replays the commit log onto the snapshot, then
//! [`Session::from_state`] replays the committed state through a fresh
//! evaluator and refuses to resume unless both match — a restored
//! session is therefore *verified* bit-identical to the one that
//! persisted, not assumed. A torn last record is an unacknowledged
//! commit and is cut; a whole record that fails its checksum, skips a
//! sequence number or splices out of range is corruption and is refused.
//!
//! # Commit ordering
//!
//! Commits are split into [`Session::prepare_commit`] (pure: builds the
//! record, or the next snapshot when the commit compacts) and
//! [`Session::apply_commit`] (advances the evaluator and the record).
//! The manager persists *between* the two, so a failed persist leaves
//! both the evaluator and the pending proposal untouched and the client
//! can simply retry the commit — no rollback path exists because nothing
//! was mutated.

use irgrid_anneal::RunControl;
use irgrid_core::edit;
use irgrid_core::{DeltaCongestion, DeltaCongestionSession, IrDeltaEvaluator, IrregularGridModel};
use irgrid_fleet::state_digest;
use irgrid_geom::{Point, Rect, Um};
use serde::{Deserialize, Serialize, Serializer};

use crate::chaos::fnv1a;
use crate::protocol::{ErrorKind, FloorplanState, SessionConfig, SessionStat};

/// Snapshot format version written by this library. Version 2 snapshots
/// have a commit log beside them; version 1 snapshots (irgrid ≤ 0.23)
/// still resume, and their next commit rewrites them as version 2.
pub const SNAPSHOT_VERSION: u32 = 2;

/// One committed move, oldest first in the journal. The tail record
/// pins the committed map: recovery re-derives the map from the stored
/// [`FloorplanState`] and must reproduce `score` bit for bit and
/// `fingerprint` exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommitRecord {
    /// 1-based commit sequence number (== `commits_done` at commit time).
    pub seq: u64,
    /// Digest of the committed state.
    pub digest: String,
    /// The committed map's cost, bit-exact.
    pub score: f64,
    /// 16-hex-char fingerprint of the committed snapshot's cut vectors,
    /// Q32 totals, and cost bits (hex so the u64 never rides through a
    /// JSON float).
    pub fingerprint: String,
}

/// One remembered `Commit` response, for idempotent retries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedCommit {
    /// The client's request id.
    pub request_id: String,
    /// The digest the commit was issued against; a retry must match it.
    pub digest: String,
    /// The recorded score, replayed verbatim.
    pub score: f64,
    /// The recorded commit sequence number.
    pub seq: u64,
}

/// The persistent part of a session — everything crash recovery needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionState {
    /// Snapshot format version ([`SNAPSHOT_VERSION`], or 1 for a
    /// snapshot an older daemon wrote that no commit has rewritten yet).
    pub version: u32,
    /// The session id, cross-checked on load.
    pub session_id: String,
    /// The fixed configuration from `OpenDelta`. `budget` counts
    /// *commits* (proposes and undos are free).
    pub config: SessionConfig,
    /// Commits over the session's lifetime.
    pub commits_done: u64,
    /// The committed floorplan (`None` until the first commit).
    pub committed: Option<FloorplanState>,
    /// Bounded commit journal, oldest first; the tail verifies recovery.
    pub journal: Vec<CommitRecord>,
    /// Idempotency ring for commits, oldest first.
    pub completed: Vec<CompletedCommit>,
}

impl SessionState {
    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        // irgrid-lint: allow(P1): serializing a plain owned data struct cannot fail
        serde_json::to_string_pretty(self).expect("session snapshot serialization is infallible")
    }

    /// Parses a snapshot, validating version, id, and journal shape.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the text is torn/garbage or
    /// internally inconsistent (version, id, pitch, or a journal that
    /// does not agree with `commits_done`/`committed`).
    pub fn from_json(text: &str, expect_id: &str) -> Result<SessionState, String> {
        let state: SessionState =
            serde_json::from_str(text).map_err(|err| format!("snapshot did not parse: {err}"))?;
        if !(1..=SNAPSHOT_VERSION).contains(&state.version) {
            return Err(format!(
                "snapshot version {} unsupported (this daemon reads versions 1 to \
                 {SNAPSHOT_VERSION})",
                state.version
            ));
        }
        if state.session_id != expect_id {
            return Err(format!(
                "snapshot names session `{}`, expected `{expect_id}`",
                state.session_id
            ));
        }
        if state.config.pitch_um <= 0 {
            return Err("snapshot config has a non-positive pitch".to_owned());
        }
        if state.commits_done == 0 {
            if state.committed.is_some() || !state.journal.is_empty() {
                return Err("snapshot has commit data but commits_done = 0".to_owned());
            }
        } else {
            if state.committed.is_none() {
                return Err(format!(
                    "snapshot records {} commit(s) but no committed state",
                    state.commits_done
                ));
            }
            let Some(tail) = state.journal.last() else {
                return Err("snapshot has commits but an empty journal".to_owned());
            };
            if tail.seq != state.commits_done {
                return Err(format!(
                    "journal tail seq {} does not match commits_done {}",
                    tail.seq, state.commits_done
                ));
            }
            let increasing = state.journal.windows(2).all(|w| w[0].seq < w[1].seq);
            if !increasing || state.journal.iter().any(|r| r.seq == 0) {
                return Err("journal seq numbers are not strictly increasing from 1".to_owned());
            }
        }
        if state.completed.iter().any(|r| r.seq > state.commits_done) {
            return Err("completed ring references a commit past commits_done".to_owned());
        }
        Ok(state)
    }

    /// Applies one commit-log record: the next commit, as
    /// [`Session::apply_commit`] applied it.
    fn replay(&mut self, record: LogRecord, ring: usize) -> Result<(), String> {
        Splice::apply_to(&mut self.committed, record.chip, &record.splices)?;
        let journal = CommitRecord {
            seq: record.seq,
            digest: record.digest.clone(),
            score: record.score,
            fingerprint: record.fingerprint,
        };
        let completed = CompletedCommit {
            request_id: record.request_id,
            digest: record.digest,
            score: record.score,
            seq: record.seq,
        };
        self.push_commit(journal, completed, ring);
        Ok(())
    }

    /// Counts commit `journal.seq` and pushes its entries onto both
    /// rings, evicting the oldest entries past `ring`.
    fn push_commit(&mut self, journal: CommitRecord, completed: CompletedCommit, ring: usize) {
        self.commits_done = journal.seq;
        push_bounded(&mut self.journal, journal, ring);
        push_bounded(&mut self.completed, completed, ring);
    }
}

/// Pushes `item` onto a bounded ring, evicting the oldest entries past
/// `bound`.
fn push_bounded<T>(ring: &mut Vec<T>, item: T, bound: usize) {
    ring.push(item);
    let excess = ring.len().saturating_sub(bound);
    ring.drain(..excess);
}

/// One edit of a segment list: replace the `remove` segments at `start`
/// with `insert`. A commit-log record carries the splices that turn the
/// committed segment list into the newly committed one; indices refer
/// to the list before any of them applies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Splice {
    /// Index of the first segment replaced.
    pub start: u64,
    /// How many segments are replaced.
    pub remove: u64,
    /// The segments put in their place.
    pub insert: Vec<[i64; 4]>,
}

impl Splice {
    /// The splices that turn `from` into `to`, from one linear pass
    /// ([`edit::diff`]): the runs of changed indices when the counts
    /// are equal, otherwise one splice between the common prefix and the
    /// common suffix. Equal lists give no splice.
    #[cfg(test)]
    pub(crate) fn diff(from: &[[i64; 4]], to: &[[i64; 4]]) -> Vec<Splice> {
        edit::diff(from, to).iter().map(Splice::owned).collect()
    }

    /// An owned copy of an edit.
    fn owned(edit: &edit::Splice<'_, [i64; 4]>) -> Splice {
        Splice {
            start: edit.start as u64,
            remove: edit.remove as u64,
            insert: edit.insert.to_vec(),
        }
    }

    /// Applies `splices`, whose indices refer to `segments` as it is
    /// before any of them, in place ([`edit::apply`]).
    ///
    /// # Errors
    ///
    /// A splice that starts before the end of the previous one or
    /// reaches past the list; `segments` is then untouched.
    pub(crate) fn apply_all(
        segments: &mut Vec<[i64; 4]>,
        splices: &[Splice],
    ) -> Result<(), String> {
        let edits: Vec<edit::Splice<'_, [i64; 4]>> = splices
            .iter()
            .map(|splice| edit::Splice {
                start: usize::try_from(splice.start).unwrap_or(usize::MAX),
                remove: usize::try_from(splice.remove).unwrap_or(usize::MAX),
                insert: &splice.insert,
            })
            .collect();
        edit::apply(segments, &edits).map_err(|err| err.to_string())
    }

    /// Moves a committed state (none before the first commit) to `chip`
    /// with `splices` applied.
    ///
    /// # Errors
    ///
    /// A splice that does not fit; `committed` is then untouched.
    fn apply_to(
        committed: &mut Option<FloorplanState>,
        chip: [i64; 2],
        splices: &[Splice],
    ) -> Result<(), String> {
        let state = committed.get_or_insert_with(|| FloorplanState {
            chip,
            segments: Vec::new(),
        });
        Splice::apply_all(&mut state.segments, splices)?;
        state.chip = chip;
        Ok(())
    }
}

/// One commit as the commit log stores it: what the commit changed, not
/// the whole state.
#[derive(Debug, Serialize, Deserialize)]
struct LogRecord {
    seq: u64,
    request_id: String,
    digest: String,
    score: f64,
    fingerprint: String,
    chip: [i64; 2],
    splices: Vec<Splice>,
}

/// Frames `record` as one commit-log line: the 16-hex FNV-1a checksum of
/// its compact JSON, a space, the JSON, and a newline.
fn frame_record(record: &LogRecord) -> Result<String, String> {
    let json = serde_json::to_string(record).map_err(|err| err.to_string())?;
    Ok(format!("{:016x} {json}\n", fnv1a(json.as_bytes())))
}

/// Reads one commit-log line, without its newline.
fn read_record(line: &[u8]) -> Result<LogRecord, String> {
    let (Some(checksum), Some(b' ')) = (line.get(..16), line.get(16)) else {
        return Err("no checksum prefix".to_owned());
    };
    let json = std::str::from_utf8(&line[17..]).map_err(|_| "not UTF-8".to_owned())?;
    if format!("{:016x}", fnv1a(json.as_bytes())).as_bytes() != checksum {
        return Err("checksum mismatch".to_owned());
    }
    serde_json::from_str(json).map_err(|err| format!("did not parse: {err}"))
}

/// Replays a commit log onto `state`: every whole record past the
/// snapshot, in order. Returns the length of the log to keep: the end of
/// the last record replayed. Records at or below the snapshot's
/// `commits_done` (left over from a compaction interrupted after its
/// rename) and a last record cut short (a torn append) lie past it.
fn replay_log(state: &mut SessionState, log: &[u8], ring: usize) -> Result<usize, String> {
    let (mut at, mut kept, mut leftovers) = (0, 0, false);
    while let Some(newline) = log[at..].iter().position(|&byte| byte == b'\n') {
        let end = at + newline + 1;
        let record = read_record(&log[at..end - 1])
            .map_err(|why| format!("commit log record at byte {at}: {why}"))?;
        let next = state.commits_done + 1;
        if record.seq < next && kept == 0 {
            leftovers = true;
        } else if record.seq != next || leftovers {
            return Err(format!(
                "commit log record at byte {at} has seq {}, expected {next}",
                record.seq
            ));
        } else {
            state
                .replay(record, ring)
                .map_err(|why| format!("commit log record at byte {at}: {why}"))?;
            kept = end;
        }
        at = end;
    }
    Ok(kept)
}

/// The snapshot a compacting commit writes: the session record as
/// [`Session::apply_commit`] will leave it, printed from borrowed parts
/// so that nothing clones the record. Prints the bytes
/// [`SessionState::to_json`] prints for that record.
struct Staged<'a> {
    state: &'a SessionState,
    committed: &'a FloorplanState,
    journal: &'a CommitRecord,
    completed: &'a CompletedCommit,
    ring: usize,
}

impl Serialize for Staged<'_> {
    fn serialize(&self, out: &mut dyn Serializer) {
        let state = self.state;
        out.map(7);
        out.key("version");
        SNAPSHOT_VERSION.serialize(out);
        out.key("session_id");
        state.session_id.serialize(out);
        out.key("config");
        state.config.serialize(out);
        out.key("commits_done");
        self.journal.seq.serialize(out);
        out.key("committed");
        self.committed.serialize(out);
        out.key("journal");
        bounded_with(out, &state.journal, self.journal, self.ring);
        out.key("completed");
        bounded_with(out, &state.completed, self.completed, self.ring);
        out.end();
    }
}

/// Prints `ring` with `pushed` pushed onto it and bounded as
/// [`push_bounded`] bounds it.
fn bounded_with<T: Serialize>(out: &mut dyn Serializer, ring: &[T], pushed: &T, bound: usize) {
    let skip = (ring.len() + 1).saturating_sub(bound).min(ring.len());
    out.seq(ring.len() + 1 - skip);
    for item in &ring[skip..] {
        item.serialize(out);
    }
    pushed.serialize(out);
    out.end();
}

/// A failed evaluation, mapped to a protocol error by the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalFailure {
    /// The protocol error class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Whether resending the identical request can succeed.
    pub retryable: bool,
}

impl EvalFailure {
    fn new(kind: ErrorKind, message: impl Into<String>, retryable: bool) -> EvalFailure {
        EvalFailure {
            kind,
            message: message.into(),
            retryable,
        }
    }
}

/// The proposal currently armed for commit. Mirrors the evaluator's
/// internal proposal: the splices that turn the committed segment list
/// into the proposed one, which are also what the commit logs.
#[derive(Debug, Clone)]
struct PendingProposal {
    chip: [i64; 2],
    splices: Vec<Splice>,
    digest: String,
    score: f64,
}

impl PendingProposal {
    /// Moves `committed` to the state this proposal's commit leaves.
    fn apply_to(&self, committed: &mut Option<FloorplanState>) {
        if let Err(why) = Splice::apply_to(committed, self.chip, &self.splices) {
            unreachable!("a proposal's splices are diffed from the committed list: {why}")
        }
    }
}

/// A live session: persistent record plus the session-resident
/// [`IrDeltaEvaluator`].
#[derive(Debug)]
pub struct Session {
    /// The persistent record, as the snapshot and the commit log on
    /// disk hold it together.
    pub state: SessionState,
    evaluator: IrDeltaEvaluator,
    completed_ring: usize,
    pending: Option<PendingProposal>,
    /// Bytes of the snapshot on disk.
    snapshot_bytes: u64,
    /// Bytes of the whole records in the commit log on disk.
    log_bytes: u64,
}

/// What [`Session::prepare_commit`] decided.
#[derive(Debug)]
pub enum CommitOutcome {
    /// The request id was already recorded; replay the remembered ack
    /// (nothing to persist or apply).
    Replayed {
        /// Recorded state digest.
        digest: String,
        /// Recorded score, bit-exact.
        score: f64,
        /// Recorded commit sequence number.
        seq: u64,
    },
    /// A new commit: persist [`PreparedCommit::write`], then
    /// [`apply_commit`](Session::apply_commit).
    Prepared(PreparedCommit),
}

/// What a prepared commit writes before it applies.
#[derive(Debug, PartialEq, Eq)]
pub enum CommitWrite {
    /// Append this framed record to the commit log, whose whole records
    /// end at byte `at`, and sync it.
    Append {
        /// The record, one newline-terminated line.
        record: String,
        /// Where the log's whole records end.
        at: u64,
    },
    /// Write this snapshot atomically, then empty the commit log.
    Compact {
        /// The next snapshot's text.
        snapshot: String,
    },
}

/// A commit that has been validated and staged but not yet applied: the
/// entries it pushes onto the two rings and what it writes. The session
/// is untouched until [`Session::apply_commit`] consumes this.
#[derive(Debug)]
pub struct PreparedCommit {
    journal: CommitRecord,
    completed: CompletedCommit,
    write: CommitWrite,
}

impl PreparedCommit {
    /// What the manager must persist before applying.
    #[must_use]
    pub fn write(&self) -> &CommitWrite {
        &self.write
    }
}

impl Session {
    /// Creates a fresh session for `config`.
    #[must_use]
    pub fn create(session_id: &str, config: SessionConfig, completed_ring: usize) -> Session {
        let state = SessionState {
            version: SNAPSHOT_VERSION,
            session_id: session_id.to_owned(),
            config,
            commits_done: 0,
            committed: None,
            journal: Vec::new(),
            completed: Vec::new(),
        };
        Session::from_state(state, completed_ring)
            .unwrap_or_else(|why| unreachable!("fresh session state cannot fail recovery: {why}"))
    }

    /// The snapshot a new session is born with, which the manager
    /// persists before acknowledging `OpenDelta`.
    #[must_use]
    pub fn birth_snapshot(&mut self) -> String {
        let text = self.state.to_json();
        self.snapshot_bytes = text.len() as u64;
        text
    }

    /// Rebuilds a session around recovered persistent state, replaying
    /// the committed floorplan through a fresh evaluator and verifying
    /// it against the journal tail.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the committed state is
    /// unparseable geometry or the replayed map's cost bits or
    /// fingerprint disagree with what the journal recorded — a loud
    /// refusal, since serving from a diverged map would silently break
    /// the bit-identity contract.
    pub fn from_state(state: SessionState, completed_ring: usize) -> Result<Session, String> {
        let pitch = Um(state.config.pitch_um.max(1));
        let mut evaluator = IrregularGridModel::new(pitch).delta_session();
        if let Some(committed) = &state.committed {
            let (chip, segments) = to_geometry(committed, pitch)
                .map_err(|why| format!("recovered committed state is invalid: {why}"))?;
            let cost = evaluator.rebase(&chip, &segments);
            let tail = state
                .journal
                .last()
                .ok_or_else(|| "committed state without a journal tail".to_owned())?;
            if cost.to_bits() != tail.score.to_bits() {
                return Err(format!(
                    "replayed committed map cost {cost:?} (bits {:016x}) does not match \
                     journal tail score {:?} (bits {:016x})",
                    cost.to_bits(),
                    tail.score,
                    tail.score.to_bits()
                ));
            }
            let fingerprint = format!("{:016x}", evaluator.committed_fingerprint());
            if fingerprint != tail.fingerprint {
                return Err(format!(
                    "replayed committed map fingerprint {fingerprint} does not match \
                     journal tail fingerprint {}",
                    tail.fingerprint
                ));
            }
        }
        Ok(Session {
            evaluator,
            completed_ring: completed_ring.max(1),
            pending: None,
            state,
            snapshot_bytes: 0,
            log_bytes: 0,
        })
    }

    /// Resumes a session from its snapshot (`snapshot`, of
    /// `snapshot_bytes` bytes on disk) and its commit log: replays the
    /// log's records past the snapshot, then verifies the result as
    /// [`from_state`](Self::from_state) does. Returns the session and the
    /// length the log must be cut to; past it lie a torn last record
    /// and records the snapshot already holds.
    ///
    /// # Errors
    ///
    /// A whole log record with a bad checksum, an unexpected sequence
    /// number or a splice out of range, or a failed verification.
    pub fn resume(
        mut snapshot: SessionState,
        snapshot_bytes: usize,
        log: &[u8],
        completed_ring: usize,
    ) -> Result<(Session, usize), String> {
        let ring = completed_ring.max(1);
        let kept = replay_log(&mut snapshot, log, ring)?;
        let mut session = Session::from_state(snapshot, ring)?;
        session.snapshot_bytes = snapshot_bytes as u64;
        session.log_bytes = kept as u64;
        Ok((session, kept))
    }

    /// The budget control this session's config induces (`budget`
    /// bounds commits; 0 means unlimited).
    #[must_use]
    pub fn budget_control(&self) -> RunControl {
        let control = RunControl::unlimited();
        if self.state.config.budget > 0 {
            control.with_move_budget(self.state.config.budget)
        } else {
            control
        }
    }

    /// Current counters. `evals_done` reports commits — the only
    /// budget-metered operation.
    #[must_use]
    pub fn stat(&self) -> SessionStat {
        let budget = self.state.config.budget;
        SessionStat {
            evals_done: self.state.commits_done,
            budget_left: budget.saturating_sub(self.state.commits_done),
            completed: self.state.completed.len() as u64,
        }
    }

    /// The recorded commit ack for `request_id`, if any.
    #[must_use]
    pub fn recorded(&self, request_id: &str) -> Option<&CompletedCommit> {
        self.state
            .completed
            .iter()
            .find(|record| record.request_id == request_id)
    }

    /// The digest of the pending proposal, if one is armed.
    #[must_use]
    pub fn pending_digest(&self) -> Option<&str> {
        self.pending.as_ref().map(|pending| pending.digest.as_str())
    }

    /// Scores one candidate against the committed floorplan and arms it
    /// for commit, returning its `(digest, score)`. Pure with respect to
    /// persistent state — nothing to persist, nothing to record.
    ///
    /// The candidate is diffed against the committed segment list once;
    /// the evaluator scores those splices, and the commit logs them. On
    /// the committed chip only the inserted segments are bounds-checked:
    /// the others passed when they were proposed.
    ///
    /// # Errors
    ///
    /// [`EvalFailure`] on invalid geometry or an expired deadline.
    pub fn propose(
        &mut self,
        state: &FloorplanState,
        control: &RunControl,
    ) -> Result<(String, f64), EvalFailure> {
        let invalid = |why| EvalFailure::new(ErrorKind::InvalidRequest, why, false);
        let chip = check_chip(state.chip, self.pitch()).map_err(invalid)?;
        let committed = self.state.committed.as_ref();
        let edits = edit::diff(
            committed.map_or(&[][..], |committed| &committed.segments[..]),
            &state.segments,
        );
        if committed.is_some_and(|committed| committed.chip == state.chip) {
            // Where each splice's segments land in the proposed list.
            let (mut removed, mut inserted) = (0, 0);
            for splice in &edits {
                let at = splice.start - removed + inserted;
                for (index, segment) in (at..).zip(splice.insert) {
                    check_segment(index, segment, state.chip).map_err(invalid)?;
                }
                (removed, inserted) = (removed + splice.remove, inserted + splice.insert.len());
            }
        } else {
            for (index, segment) in state.segments.iter().enumerate() {
                check_segment(index, segment, state.chip).map_err(invalid)?;
            }
        }
        if control.deadline_hit() || control.cancel_hit() {
            return Err(EvalFailure::new(
                ErrorKind::Timeout,
                "per-request evaluation deadline passed before scoring",
                true,
            ));
        }
        let digest = state_digest(state);
        let inserted: Vec<(Point, Point)> = edits
            .iter()
            .flat_map(|splice| splice.insert.iter().map(to_points))
            .collect();
        let mut at = 0;
        let splices: Vec<edit::Splice<'_>> = edits
            .iter()
            .map(|splice| {
                let insert = &inserted[at..at + splice.insert.len()];
                at += splice.insert.len();
                edit::Splice {
                    start: splice.start,
                    remove: splice.remove,
                    insert,
                }
            })
            .collect();
        let score = self.evaluator.propose_edits(&chip, &splices);
        self.pending = Some(PendingProposal {
            chip: state.chip,
            splices: edits.iter().map(Splice::owned).collect(),
            digest: digest.clone(),
            score,
        });
        Ok((digest, score))
    }

    /// The session's unit-grid pitch.
    fn pitch(&self) -> Um {
        Um(self.state.config.pitch_um.max(1))
    }

    /// Validates a commit and stages what it writes without mutating
    /// the session: the commit-log record, or the next snapshot when the
    /// log plus the record would outgrow the last snapshot (or the
    /// snapshot on disk has an older version). The manager persists the
    /// [`PreparedCommit::write`], then calls
    /// [`apply_commit`](Self::apply_commit); on persist failure it
    /// simply drops the [`PreparedCommit`] and the pending proposal stays
    /// armed for a retry.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::NoPendingProposal`] when no proposal (or a
    /// different one) is armed, [`ErrorKind::BudgetExhausted`] when the
    /// commit budget is spent, [`ErrorKind::InvalidRequest`] when a
    /// recorded request id is retried with a different digest,
    /// [`ErrorKind::PersistFailed`] when the record does not print.
    pub fn prepare_commit(
        &self,
        request_id: &str,
        digest: &str,
    ) -> Result<CommitOutcome, EvalFailure> {
        if let Some(record) = self.recorded(request_id) {
            if record.digest != digest {
                return Err(EvalFailure::new(
                    ErrorKind::InvalidRequest,
                    format!(
                        "request id `{request_id}` was recorded for digest {} but retried \
                         with {digest}",
                        record.digest
                    ),
                    false,
                ));
            }
            return Ok(CommitOutcome::Replayed {
                digest: record.digest.clone(),
                score: record.score,
                seq: record.seq,
            });
        }
        let Some(pending) = &self.pending else {
            return Err(EvalFailure::new(
                ErrorKind::NoPendingProposal,
                "no pending proposal in this session (propose, then commit)",
                false,
            ));
        };
        if pending.digest != digest {
            return Err(EvalFailure::new(
                ErrorKind::NoPendingProposal,
                format!(
                    "pending proposal has digest {}, not {digest} (propose, then commit)",
                    pending.digest
                ),
                false,
            ));
        }
        if self.budget_control().budget_hit(self.state.commits_done) {
            return Err(EvalFailure::new(
                ErrorKind::BudgetExhausted,
                format!(
                    "budget {} cannot cover another commit after {}",
                    self.state.config.budget, self.state.commits_done
                ),
                false,
            ));
        }
        let seq = self.state.commits_done + 1;
        let journal = CommitRecord {
            seq,
            digest: pending.digest.clone(),
            score: pending.score,
            // The proposal's fingerprint IS the post-commit committed
            // fingerprint (commit only swaps buffers), which is what
            // lets the record be persisted before the commit applies.
            fingerprint: format!("{:016x}", self.evaluator.proposed_fingerprint()),
        };
        let completed = CompletedCommit {
            request_id: request_id.to_owned(),
            digest: pending.digest.clone(),
            score: pending.score,
            seq,
        };
        let record = frame_record(&LogRecord {
            seq,
            request_id: request_id.to_owned(),
            digest: pending.digest.clone(),
            score: pending.score,
            fingerprint: journal.fingerprint.clone(),
            chip: pending.chip,
            splices: pending.splices.clone(),
        });
        let unprintable = |why: String| {
            EvalFailure::new(
                ErrorKind::PersistFailed,
                format!("commit {seq} did not print: {why}"),
                false,
            )
        };
        let record = record.map_err(unprintable)?;
        let write = if self.state.version == SNAPSHOT_VERSION
            && self.log_bytes + record.len() as u64 <= self.snapshot_bytes
        {
            CommitWrite::Append {
                record,
                at: self.log_bytes,
            }
        } else {
            let mut next = self.state.committed.clone();
            pending.apply_to(&mut next);
            let Some(next) = next else {
                unreachable!("applying a proposal leaves a committed state")
            };
            let staged = Staged {
                state: &self.state,
                committed: &next,
                journal: &journal,
                completed: &completed,
                ring: self.completed_ring,
            };
            let snapshot = serde_json::to_string_pretty(&staged)
                .map_err(|err| unprintable(err.to_string()))?;
            CommitWrite::Compact { snapshot }
        };
        Ok(CommitOutcome::Prepared(PreparedCommit {
            journal,
            completed,
            write,
        }))
    }

    /// Applies a persisted commit: advances the evaluator's committed
    /// snapshot, moves the pending state in, pushes both rings and
    /// notes what was written. Returns the `(digest, score, seq)` ack.
    pub fn apply_commit(&mut self, prepared: PreparedCommit) -> (String, f64, u64) {
        let Some(pending) = self.pending.take() else {
            unreachable!("a commit is prepared from the armed proposal, under the session lock")
        };
        self.evaluator.commit();
        self.state.version = SNAPSHOT_VERSION;
        pending.apply_to(&mut self.state.committed);
        let ack = (
            prepared.journal.digest.clone(),
            prepared.journal.score,
            prepared.journal.seq,
        );
        self.state
            .push_commit(prepared.journal, prepared.completed, self.completed_ring);
        match prepared.write {
            CommitWrite::Append { record, .. } => self.log_bytes += record.len() as u64,
            CommitWrite::Compact { snapshot } => {
                self.snapshot_bytes = snapshot.len() as u64;
                self.log_bytes = 0;
            }
        }
        ack
    }

    /// Drops any pending proposal and returns the committed cost (0
    /// before the first commit). Pure with respect to persistent state.
    pub fn undo(&mut self) -> f64 {
        self.pending = None;
        self.evaluator.undo()
    }
}

/// The most unit-grid cells a session scores along either axis of a
/// chip. Scoring allocates per axis in proportion to the grid (boundary
/// counts, log-factorial tables), so a state of a few hundred bytes
/// with an enormous chip could otherwise make the daemon allocate
/// without bound. 65 536 is about 170 times the largest axis of the
/// benchmark workloads (389 cells on ami49's start floorplan).
pub const MAX_GRID_CELLS_PER_AXIS: i64 = 65_536;

/// Validates a wire chip: a positive extent whose unit grid at `pitch`
/// stays within [`MAX_GRID_CELLS_PER_AXIS`] on both axes.
fn check_chip([width, height]: [i64; 2], pitch: Um) -> Result<Rect, String> {
    if width <= 0 || height <= 0 {
        return Err(format!("chip extent {width}x{height} is not positive"));
    }
    let cells = |side: i64| (side - 1) / pitch.0 + 1;
    let (cols, rows) = (cells(width), cells(height));
    if cols > MAX_GRID_CELLS_PER_AXIS || rows > MAX_GRID_CELLS_PER_AXIS {
        return Err(format!(
            "chip extent {width}x{height} at pitch {} is a {cols}x{rows} unit grid, past the \
             bound of {MAX_GRID_CELLS_PER_AXIS} cells per axis",
            pitch.0
        ));
    }
    Ok(Rect::from_origin_size(Point::ORIGIN, Um(width), Um(height)))
}

/// Validates segment `index` of a state against its chip.
fn check_segment(index: usize, &[x1, y1, x2, y2]: &[i64; 4], chip: [i64; 2]) -> Result<(), String> {
    let [width, height] = chip;
    for (axis, value, max) in [
        ("x", x1, width),
        ("y", y1, height),
        ("x", x2, width),
        ("y", y2, height),
    ] {
        if value < 0 || value > max {
            return Err(format!(
                "segment {index}: {axis} coordinate {value} outside chip 0..={max}"
            ));
        }
    }
    Ok(())
}

/// A wire segment as model geometry.
fn to_points(&[x1, y1, x2, y2]: &[i64; 4]) -> (Point, Point) {
    (Point::new(Um(x1), Um(y1)), Point::new(Um(x2), Um(y2)))
}

/// Converts a wire state into model geometry at `pitch`, validating the
/// chip and every segment.
fn to_geometry(state: &FloorplanState, pitch: Um) -> Result<(Rect, Vec<(Point, Point)>), String> {
    let chip = check_chip(state.chip, pitch)?;
    for (index, segment) in state.segments.iter().enumerate() {
        check_segment(index, segment, state.chip)?;
    }
    Ok((chip, state.segments.iter().map(to_points).collect()))
}

#[cfg(test)]
impl Session {
    /// The next session record as irgrid ≤ 0.23 staged it for every
    /// commit — clone the record, move the proposed `state` in, push and
    /// trim both rings — kept as the reference the snapshot plus the
    /// replayed commit log must reproduce.
    fn reference_next(&self, request_id: &str, state: &FloorplanState) -> SessionState {
        let pending = self.pending.as_ref().expect("an armed proposal");
        let seq = self.state.commits_done + 1;
        let mut next = self.state.clone();
        next.commits_done = seq;
        next.committed = Some(state.clone());
        next.journal.push(CommitRecord {
            seq,
            digest: pending.digest.clone(),
            score: pending.score,
            fingerprint: format!("{:016x}", self.evaluator.proposed_fingerprint()),
        });
        while next.journal.len() > self.completed_ring {
            next.journal.remove(0);
        }
        next.completed.push(CompletedCommit {
            request_id: request_id.to_owned(),
            digest: pending.digest.clone(),
            score: pending.score,
            seq,
        });
        while next.completed.len() > self.completed_ring {
            next.completed.remove(0);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid_core::CongestionModel;

    fn demo_states(count: usize) -> Vec<FloorplanState> {
        (0..count)
            .map(|k| {
                let k = k as i64;
                FloorplanState {
                    chip: [600, 600],
                    segments: vec![
                        [30 + k * 7, 30, 540, 540 - k * 5],
                        [30, 540, 540 - k * 3, 30],
                        [10, 10 + k, 590, 300],
                    ],
                }
            })
            .collect()
    }

    fn session() -> Session {
        Session::create("t", SessionConfig::default_config(), 8)
    }

    /// Score of `state` through a fresh from-scratch delta rebase — the
    /// reference the serving path must match bit for bit.
    fn fresh_rebase(state: &FloorplanState) -> f64 {
        let (chip, segments) = to_geometry(state, Um(30)).expect("geometry");
        let model = IrregularGridModel::new(Um(30));
        model.delta_session().rebase(&chip, &segments)
    }

    fn commit(session: &mut Session, request_id: &str, digest: &str) -> (String, f64, u64) {
        match session.prepare_commit(request_id, digest).expect("prepare") {
            CommitOutcome::Prepared(prepared) => session.apply_commit(prepared),
            CommitOutcome::Replayed { digest, score, seq } => (digest, score, seq),
        }
    }

    #[test]
    fn propose_commit_undo_lifecycle() {
        let mut session = session();
        let states = demo_states(2);

        let (d1, s1) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        assert_eq!(s1.to_bits(), fresh_rebase(&states[0]).to_bits());
        assert_eq!(session.pending_digest(), Some(d1.as_str()));

        let (digest, score, seq) = commit(&mut session, "r1", &d1);
        assert_eq!((digest.as_str(), seq), (d1.as_str(), 1));
        assert_eq!(score.to_bits(), s1.to_bits());
        assert_eq!(session.state.commits_done, 1);
        assert_eq!(session.pending_digest(), None);
        assert_eq!(session.state.journal.last().expect("tail").seq, 1);

        // Rejected move: propose, then undo back to the committed cost.
        let (_, s2) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose 2");
        assert_ne!(s2.to_bits(), s1.to_bits());
        assert_eq!(session.undo().to_bits(), s1.to_bits());
        assert_eq!(session.state.commits_done, 1, "undo persists nothing");
    }

    #[test]
    fn commit_without_matching_proposal_is_refused() {
        let mut session = session();
        let states = demo_states(2);
        let err = session
            .prepare_commit("r1", "feedbeef00000000")
            .expect_err("nothing pending");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);

        let (d1, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        let err = session
            .prepare_commit("r1", "feedbeef00000000")
            .expect_err("wrong digest");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);
        // The armed proposal survives the refusal.
        assert_eq!(session.pending_digest(), Some(d1.as_str()));
    }

    #[test]
    fn a_new_propose_replaces_the_armed_one() {
        let mut session = session();
        let states = demo_states(2);
        let (d1, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose 1");
        let (d2, s2) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose 2");
        assert_ne!(d1, d2);
        assert_eq!(session.pending_digest(), Some(d2.as_str()));
        // Scored against the committed state, not the superseded proposal.
        assert_eq!(s2.to_bits(), fresh_rebase(&states[1]).to_bits());

        let err = session
            .prepare_commit("r1", &d1)
            .expect_err("superseded proposal");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);
        let (digest, score, seq) = commit(&mut session, "r1", &d2);
        assert_eq!((digest.as_str(), seq), (d2.as_str(), 1));
        assert_eq!(score.to_bits(), s2.to_bits());
        assert_eq!(session.undo().to_bits(), s2.to_bits(), "committed cost");
    }

    #[test]
    fn undo_disarms_the_proposal_and_reports_the_committed_cost() {
        let mut session = session();
        let states = demo_states(2);
        assert_eq!(
            session.undo().to_bits(),
            0.0f64.to_bits(),
            "nothing committed"
        );
        let (d0, s0) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r0", &d0);

        let (d1, _) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose");
        assert_eq!(session.undo().to_bits(), s0.to_bits());
        assert_eq!(session.pending_digest(), None);
        let err = session
            .prepare_commit("r1", &d1)
            .expect_err("an undone proposal cannot commit");
        assert_eq!(err.kind, ErrorKind::NoPendingProposal);
        // A second undo, with nothing armed, changes nothing.
        assert_eq!(session.undo().to_bits(), s0.to_bits());
        assert_eq!(session.state.commits_done, 1);
    }

    #[test]
    fn commit_replay_is_idempotent_and_digest_checked() {
        let mut session = session();
        let states = demo_states(1);
        let (d1, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        let first = commit(&mut session, "r1", &d1);
        // Retry with the same id: replayed ack, no second commit.
        let outcome = session.prepare_commit("r1", &d1).expect("replay");
        let CommitOutcome::Replayed { digest, score, seq } = outcome else {
            panic!("expected a replayed ack");
        };
        assert_eq!(
            (digest, score.to_bits(), seq),
            (first.0, first.1.to_bits(), first.2)
        );
        assert_eq!(session.state.commits_done, 1);
        // Same id, different digest: loud refusal.
        let err = session
            .prepare_commit("r1", "feedbeef00000000")
            .expect_err("digest mismatch on replay");
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn budget_meters_commits_not_proposes() {
        let config = SessionConfig {
            budget: 1,
            ..SessionConfig::default_config()
        };
        let mut session = Session::create("b", config, 8);
        let states = demo_states(2);
        // Proposes and undos are free.
        for _ in 0..3 {
            for state in &states {
                session
                    .propose(state, &RunControl::unlimited())
                    .expect("free propose");
                session.undo();
            }
        }
        let (d1, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r1", &d1);
        assert_eq!(session.stat().budget_left, 0);
        let (d2, _) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose 2");
        let err = session
            .prepare_commit("r2", &d2)
            .expect_err("budget exhausted");
        assert_eq!(err.kind, ErrorKind::BudgetExhausted);
        assert!(!err.retryable);
        assert_eq!(session.state.commits_done, 1);
    }

    #[test]
    fn an_exhausted_budget_still_serves_propose_and_undo() {
        let config = SessionConfig {
            budget: 1,
            ..SessionConfig::default_config()
        };
        let mut session = Session::create("b", config, 8);
        let states = demo_states(3);
        let (d0, s0) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r0", &d0);
        assert_eq!(session.stat().budget_left, 0);

        // Read-only work is never metered: propose then undo still
        // scores every state...
        for state in &states {
            let (_, score) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose past the budget");
            assert_eq!(score.to_bits(), fresh_rebase(state).to_bits());
            assert_eq!(session.undo().to_bits(), s0.to_bits());
        }
        // ...and a proposal still arms; only its commit is refused, and
        // the refusal leaves it armed.
        let (d1, s1) = session
            .propose(&states[1], &RunControl::unlimited())
            .expect("propose past the budget");
        assert_eq!(s1.to_bits(), fresh_rebase(&states[1]).to_bits());
        let err = session.prepare_commit("r1", &d1).expect_err("budget spent");
        assert_eq!(err.kind, ErrorKind::BudgetExhausted);
        assert_eq!(session.pending_digest(), Some(d1.as_str()));
        assert_eq!(session.undo().to_bits(), s0.to_bits());
        assert_eq!(session.stat().evals_done, 1);
    }

    #[test]
    fn failed_persist_leaves_commit_retryable() {
        let mut session = session();
        let states = demo_states(1);
        let (d1, s1) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        // Prepare, then "fail the persist" by dropping the prepared
        // commit: nothing was mutated, so the retry succeeds.
        let CommitOutcome::Prepared(prepared) = session.prepare_commit("r1", &d1).expect("prepare")
        else {
            panic!("fresh id cannot replay");
        };
        drop(prepared);
        assert_eq!(session.state.commits_done, 0);
        assert_eq!(session.pending_digest(), Some(d1.as_str()));
        let (_, score, seq) = commit(&mut session, "r1", &d1);
        assert_eq!((score.to_bits(), seq), (s1.to_bits(), 1));
    }

    #[test]
    fn snapshot_roundtrip_and_validation() {
        let mut session = session();
        let states = demo_states(2);
        for (k, state) in states.iter().enumerate() {
            let (digest, _) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            commit(&mut session, &format!("r{k}"), &digest);
        }
        let json = session.state.to_json();
        let back = SessionState::from_json(&json, "t").expect("parse");
        assert_eq!(back, session.state);
        assert_eq!(
            back.journal[1].score.to_bits(),
            session.state.journal[1].score.to_bits(),
            "scores survive bit-exactly"
        );

        assert!(SessionState::from_json(&json, "other").is_err());
        assert!(SessionState::from_json("{torn", "t").is_err());
        let mut wrong = session.state.clone();
        wrong.version = 99;
        assert!(SessionState::from_json(&wrong.to_json(), "t").is_err());
        let mut torn = session.state.clone();
        torn.journal.clear();
        assert!(
            SessionState::from_json(&torn.to_json(), "t").is_err(),
            "commits without a journal tail are refused"
        );
    }

    #[test]
    fn resumed_session_is_verified_and_continues_bit_identically() {
        let states = demo_states(3);

        // Uninterrupted reference: three commits in one lifetime.
        let mut reference = session();
        for (k, state) in states.iter().enumerate() {
            let (digest, _) = reference
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            commit(&mut reference, &format!("r{k}"), &digest);
        }

        // Interrupted: two commits, snapshot, "restart", third commit.
        let mut first = session();
        for (k, state) in states[..2].iter().enumerate() {
            let (digest, _) = first
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            commit(&mut first, &format!("r{k}"), &digest);
        }
        let snapshot = first.state.to_json();
        let recovered = SessionState::from_json(&snapshot, "t").expect("parse");
        let mut resumed = Session::from_state(recovered, 8).expect("verified");
        let (digest, _) = resumed
            .propose(&states[2], &RunControl::unlimited())
            .expect("propose");
        commit(&mut resumed, "r2", &digest);

        assert_eq!(resumed.state, reference.state, "recovered state diverged");
        assert_eq!(
            resumed.state.to_json(),
            reference.state.to_json(),
            "snapshots must be byte-identical"
        );
    }

    #[test]
    fn resume_refuses_a_diverged_committed_state() {
        let mut session = session();
        let states = demo_states(1);
        let (digest, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r1", &digest);
        // Tamper with the committed floorplan but keep the journal: the
        // replayed map no longer matches the recorded identity. The move
        // is several grid pitches, so the congestion map really changes
        // (a sub-pitch nudge could legitimately snap to the same map).
        let mut tampered = session.state.clone();
        let committed = tampered.committed.as_mut().expect("committed");
        committed.segments[0][0] += 120;
        let err = Session::from_state(tampered, 8).expect_err("diverged state must be refused");
        assert!(
            err.contains("does not match"),
            "error should name the mismatch: {err}"
        );
    }

    #[test]
    fn a_proposal_matches_the_stateless_model_bit_for_bit() {
        let mut session = session();
        let states = demo_states(3);
        let (d0, _) = session
            .propose(&states[0], &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "r0", &d0);
        // Scored against a committed state, each proposal still equals
        // the stateless model's score of the state alone.
        let model = IrregularGridModel::new(Um(30));
        for state in &states {
            let (_, score) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            session.undo();
            let (chip, segments) = to_geometry(state, Um(30)).expect("geometry");
            let expected = model.evaluate(&chip, &segments);
            assert_eq!(score.to_bits(), expected.to_bits());
            assert_eq!(score.to_bits(), fresh_rebase(state).to_bits());
        }
        assert_eq!(session.state.commits_done, 1);
    }

    #[test]
    fn repeat_proposals_return_identical_bits() {
        let mut session = session();
        let states = demo_states(2);
        for state in &states {
            let first = session
                .propose(state, &RunControl::unlimited())
                .expect("first");
            let second = session
                .propose(state, &RunControl::unlimited())
                .expect("second");
            assert_eq!(first.0, second.0);
            assert_eq!(first.1.to_bits(), second.1.to_bits());
        }
    }

    #[test]
    fn invalid_geometry_is_rejected_atomically() {
        let mut session = session();
        let (armed, _) = session
            .propose(&demo_states(1)[0], &RunControl::unlimited())
            .expect("propose");
        let bad = FloorplanState {
            chip: [100, 100],
            segments: vec![[0, 0, 101, 50]],
        };
        let err = session
            .propose(&bad, &RunControl::unlimited())
            .expect_err("out-of-chip coordinate");
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        assert_eq!(session.pending_digest(), Some(armed.as_str()));

        let err = to_geometry(
            &FloorplanState {
                chip: [0, 100],
                segments: vec![],
            },
            Um(30),
        )
        .expect_err("degenerate chip");
        assert!(err.contains("not positive"));
    }

    #[test]
    fn a_grid_past_the_bound_is_refused_before_scoring() {
        let mut session = session();
        let (armed, _) = session
            .propose(&demo_states(1)[0], &RunControl::unlimited())
            .expect("propose");
        let side = MAX_GRID_CELLS_PER_AXIS * 30;
        for (chip, refused) in [([side, 600], false), ([600, side + 1], true)] {
            let state = FloorplanState {
                chip,
                segments: vec![[0, 0, 600, 600]],
            };
            match session.propose(&state, &RunControl::unlimited()) {
                Ok(_) => assert!(!refused, "{chip:?} is past the bound"),
                Err(err) => {
                    assert!(refused, "{chip:?}: {err:?}");
                    assert_eq!(err.kind, ErrorKind::InvalidRequest);
                    assert!(!err.retryable);
                    assert_eq!(
                        err.message,
                        "chip extent 600x1966081 at pitch 30 is a 20x65537 unit grid, past \
                         the bound of 65536 cells per axis"
                    );
                    assert_eq!(session.pending_digest(), Some(armed.as_str()));
                }
            }
            session.undo();
            let _ = session.propose(&demo_states(1)[0], &RunControl::unlimited());
        }
    }

    #[test]
    fn on_the_committed_chip_only_inserted_segments_are_checked_with_the_same_text() {
        let mut session = session();
        let state = wide_state(24, 0, [900, 800]);
        let (digest, _) = session
            .propose(&state, &RunControl::unlimited())
            .expect("propose");
        commit(&mut session, "c0", &digest);
        // Segments 3 and 17 leave the chip; 3 is the first the list holds.
        let mut bad = state.clone();
        bad.segments[17][2] = 901;
        bad.segments[3][3] = -1;
        let full = to_geometry(&bad, Um(30)).expect_err("out of the chip");
        let err = session
            .propose(&bad, &RunControl::unlimited())
            .expect_err("out of the chip");
        assert_eq!(err.message, full);
        assert_eq!(
            err.message,
            "segment 3: y coordinate -1 outside chip 0..=800"
        );
        // An inserted segment after a removal is named by its new index.
        let mut shifted = state.clone();
        shifted.segments.remove(1);
        shifted.segments[9][0] = 950;
        let full = to_geometry(&shifted, Um(30)).expect_err("out of the chip");
        let err = session
            .propose(&shifted, &RunControl::unlimited())
            .expect_err("out of the chip");
        assert_eq!(
            (err.message.as_str(), err.kind),
            (full.as_str(), ErrorKind::InvalidRequest)
        );
        assert!(
            err.message.starts_with("segment 9: x coordinate 950"),
            "{}",
            err.message
        );
    }

    #[test]
    fn expired_deadline_aborts_before_scoring() {
        let mut session = session();
        let states = demo_states(2);
        let expired = RunControl::unlimited().with_time_limit(std::time::Duration::ZERO);
        for state in &states {
            let err = session
                .propose(state, &expired)
                .expect_err("deadline already passed");
            assert_eq!(err.kind, ErrorKind::Timeout);
            assert!(err.retryable);
        }
        assert_eq!(session.pending_digest(), None);
    }

    #[test]
    fn commit_ring_and_journal_are_bounded() {
        let mut session = Session::create("r", SessionConfig::default_config(), 2);
        for (k, state) in demo_states(4).iter().enumerate() {
            let (digest, _) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            commit(&mut session, &format!("req-{k}"), &digest);
        }
        assert_eq!(session.state.completed.len(), 2);
        assert_eq!(session.state.journal.len(), 2);
        assert!(session.recorded("req-0").is_none(), "oldest evicted");
        assert_eq!(session.recorded("req-3").expect("newest kept").seq, 4);
    }

    #[test]
    fn completed_ring_is_bounded_and_replayable() {
        let mut session = Session::create("r", SessionConfig::default_config(), 2);
        let mut acks = Vec::new();
        for (k, state) in demo_states(4).iter().enumerate() {
            let (digest, _) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            acks.push(commit(&mut session, &format!("req-{k}"), &digest));
        }
        // The kept acks replay verbatim, also after a snapshot round trip.
        let text = session.state.to_json();
        let resumed = Session::from_state(SessionState::from_json(&text, "r").expect("parse"), 2)
            .expect("verified");
        for live in [&session, &resumed] {
            for (k, ack) in acks.iter().enumerate().skip(2) {
                let outcome = live
                    .prepare_commit(&format!("req-{k}"), &ack.0)
                    .expect("replay");
                let CommitOutcome::Replayed { digest, score, seq } = outcome else {
                    panic!("req-{k} should replay");
                };
                assert_eq!(
                    (digest.as_str(), score.to_bits(), seq),
                    (ack.0.as_str(), ack.1.to_bits(), ack.2)
                );
            }
            // An evicted id is forgotten: with nothing armed it is a new
            // commit without a proposal, never a stale replay.
            let err = live
                .prepare_commit("req-0", &acks[0].0)
                .expect_err("evicted");
            assert_eq!(err.kind, ErrorKind::NoPendingProposal);
        }
    }

    /// A session's files, as the manager writes them.
    #[derive(Default)]
    struct Disk {
        snapshot: String,
        log: Vec<u8>,
        appends: usize,
        compactions: usize,
    }

    impl Disk {
        fn persist(&mut self, write: &CommitWrite) {
            match write {
                CommitWrite::Append { record, at } => {
                    self.log.truncate(*at as usize);
                    self.log.extend_from_slice(record.as_bytes());
                    self.appends += 1;
                }
                CommitWrite::Compact { snapshot } => {
                    self.snapshot.clone_from(snapshot);
                    self.log.clear();
                    self.compactions += 1;
                }
            }
        }

        /// Resumes from the files with `log` as the commit log; returns
        /// the session and the log length resume keeps.
        fn resume_with(&self, log: &[u8], ring: usize) -> (Session, usize) {
            let state = SessionState::from_json(&self.snapshot, "s").expect("snapshot parses");
            Session::resume(state, self.snapshot.len(), log, ring).expect("resumes")
        }
    }

    /// `count` segments on a 900×800 chip; `shift` moves one endpoint of
    /// segment `shift % count`.
    fn wide_state(count: usize, shift: i64, chip: [i64; 2]) -> FloorplanState {
        let mut segments: Vec<[i64; 4]> = (0..count as i64)
            .map(|k| {
                [
                    10 + 17 * k % 600,
                    20 + 29 * k % 500,
                    650 - 13 * k % 300,
                    700 - k,
                ]
            })
            .collect();
        let index = shift.unsigned_abs() as usize % count;
        segments[index][0] = (segments[index][0] + 31 * shift).rem_euclid(chip[0]);
        FloorplanState { chip, segments }
    }

    #[test]
    fn snapshot_plus_replayed_log_equals_the_reference_staging_byte_for_byte() {
        const RING: usize = 3;
        let mut session = Session::create("s", SessionConfig::default_config(), RING);
        let mut disk = Disk {
            snapshot: session.birth_snapshot(),
            ..Disk::default()
        };
        // One-endpoint nudges, a chip change, segment counts going up
        // and down, and a return to an earlier state.
        let mut script: Vec<FloorplanState> =
            (0..14).map(|k| wide_state(24, k, [900, 800])).collect();
        script.push(wide_state(24, 13, [950, 800]));
        script.push(wide_state(30, 2, [950, 800]));
        script.push(wide_state(21, 2, [950, 800]));
        script.extend((3..9).map(|k| wide_state(21, k, [950, 800])));
        script.push(wide_state(24, 0, [900, 800]));
        for (k, state) in script.iter().enumerate() {
            let request_id = format!("c{k}");
            let (digest, _) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            let reference = session.reference_next(&request_id, state);
            let CommitOutcome::Prepared(prepared) = session
                .prepare_commit(&request_id, &digest)
                .expect("prepare")
            else {
                panic!("a fresh id cannot replay");
            };
            let log_before = disk.log.clone();
            disk.persist(prepared.write());
            let compacted = matches!(prepared.write(), CommitWrite::Compact { .. });
            if compacted {
                assert_eq!(
                    disk.snapshot,
                    reference.to_json(),
                    "commit {k}: staged bytes"
                );
            }
            session.apply_commit(prepared);
            assert_eq!(session.state.to_json(), reference.to_json(), "commit {k}");

            let (resumed, kept) = disk.resume_with(&disk.log, RING);
            assert_eq!(
                kept,
                disk.log.len(),
                "commit {k}: a clean log is kept whole"
            );
            assert_eq!(resumed.state.to_json(), reference.to_json(), "commit {k}");
            if compacted {
                // Interrupted after the rename: the old records are left
                // over, and resume cuts all of them.
                let (resumed, kept) = disk.resume_with(&log_before, RING);
                assert_eq!(kept, 0, "commit {k}: leftovers are cut");
                assert_eq!(resumed.state.to_json(), reference.to_json(), "commit {k}");
            }
            // A resumed session stages the next commit exactly as the
            // live one does.
            if let Some(next) = script.get(k + 1) {
                let (mut resumed, _) = disk.resume_with(&disk.log, RING);
                let (live_digest, _) = session
                    .propose(next, &RunControl::unlimited())
                    .expect("propose");
                resumed
                    .propose(next, &RunControl::unlimited())
                    .expect("propose");
                let stage = |session: &Session| match session
                    .prepare_commit("next", &live_digest)
                    .expect("prepare")
                {
                    CommitOutcome::Prepared(prepared) => prepared.write,
                    CommitOutcome::Replayed { .. } => panic!("a fresh id cannot replay"),
                };
                assert_eq!(stage(&resumed), stage(&session), "commit {k}");
                session.undo();
            }
        }
        assert_eq!(session.state.journal.len(), RING, "the rings evicted");
        assert!(disk.compactions >= 3, "{} compactions", disk.compactions);
        assert!(disk.appends >= 10, "{} appends", disk.appends);
    }

    #[test]
    fn a_one_endpoint_commit_appends_a_one_segment_record() {
        let mut session = Session::create("s", SessionConfig::default_config(), 8);
        let mut disk = Disk {
            snapshot: session.birth_snapshot(),
            ..Disk::default()
        };
        for (k, state) in [wide_state(24, 0, [900, 800]), wide_state(24, 5, [900, 800])]
            .iter()
            .enumerate()
        {
            let (digest, _) = session
                .propose(state, &RunControl::unlimited())
                .expect("propose");
            let CommitOutcome::Prepared(prepared) = session
                .prepare_commit(&format!("c{k}"), &digest)
                .expect("prepare")
            else {
                panic!("fresh id");
            };
            disk.persist(prepared.write());
            session.apply_commit(prepared);
        }
        // The first commit compacts; the nudge appends one splice of one
        // segment.
        assert_eq!((disk.compactions, disk.appends), (1, 1));
        let line = &disk.log[..disk.log.len() - 1];
        let record = read_record(line).expect("a whole record");
        assert_eq!(record.seq, 2);
        assert_eq!(record.splices.len(), 1);
        assert_eq!((record.splices[0].start, record.splices[0].remove), (5, 1));
        assert_eq!(
            record.splices[0].insert,
            vec![wide_state(24, 5, [900, 800]).segments[5]]
        );
    }

    #[test]
    fn splices_diff_and_apply_round_trip() {
        let list = |values: &[i64]| -> Vec<[i64; 4]> { values.iter().map(|&v| [v; 4]).collect() };
        let cases: &[(&[i64], &[i64], usize)] = &[
            (&[], &[], 0),
            (&[1, 2, 3], &[1, 2, 3], 0),
            (&[1, 2, 3, 4, 5], &[9, 2, 8, 8, 5], 2),
            (&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 6], 1),
            (&[], &[1, 2], 1),
            (&[1, 2], &[], 1),
            (&[1, 2, 3], &[1, 7, 7, 7, 3], 1),
            (&[1, 2, 2, 3], &[1, 2, 3], 1),
            (&[1, 2, 3], &[4, 1, 2, 3], 1),
        ];
        for &(from, to, count) in cases {
            let (from, to) = (list(from), list(to));
            let splices = Splice::diff(&from, &to);
            assert_eq!(splices.len(), count, "{from:?} -> {to:?}: {splices:?}");
            let mut applied = from.clone();
            Splice::apply_all(&mut applied, &splices).expect("fits");
            assert_eq!(applied, to);
        }
        // Out of range, overlapping and overflowing splices are refused,
        // and leave the list untouched.
        let splice = |start, remove| Splice {
            start,
            remove,
            insert: Vec::new(),
        };
        for bad in [
            vec![splice(2, 2)],
            vec![splice(4, 0)],
            vec![splice(1, 1), splice(0, 1)],
            vec![splice(0, 2), splice(1, 1)],
            vec![splice(u64::MAX, 2)],
        ] {
            let mut segments = list(&[1, 2, 3]);
            assert!(Splice::apply_all(&mut segments, &bad).is_err(), "{bad:?}");
            assert_eq!(segments, list(&[1, 2, 3]));
        }
    }

    /// A session committed `commits` times (the first compacting) and
    /// the files it left.
    fn logged_session(commits: i64) -> (Session, Disk) {
        let mut session = Session::create("s", SessionConfig::default_config(), 8);
        let mut disk = Disk {
            snapshot: session.birth_snapshot(),
            ..Disk::default()
        };
        for k in 0..commits {
            let (digest, _) = session
                .propose(&wide_state(24, k, [900, 800]), &RunControl::unlimited())
                .expect("propose");
            let CommitOutcome::Prepared(prepared) = session
                .prepare_commit(&format!("c{k}"), &digest)
                .expect("prepare")
            else {
                panic!("fresh id");
            };
            disk.persist(prepared.write());
            session.apply_commit(prepared);
        }
        assert_eq!(disk.compactions, 1, "one compaction, then appends");
        (session, disk)
    }

    #[test]
    fn a_torn_last_record_is_cut_and_corrupt_records_are_refused() {
        let (session, disk) = logged_session(4);
        let ends: Vec<usize> = disk
            .log
            .iter()
            .enumerate()
            .filter(|(_, &byte)| byte == b'\n')
            .map(|(at, _)| at + 1)
            .collect();
        assert_eq!(ends.len(), 3);
        let refused = |log: &[u8]| {
            let state = SessionState::from_json(&disk.snapshot, "s").expect("parse");
            Session::resume(state, disk.snapshot.len(), log, 8).expect_err("corrupt")
        };

        // A torn last record resumes at the commit before it.
        let (resumed, kept) = disk.resume_with(&disk.log[..disk.log.len() - 1], 8);
        assert_eq!((kept, resumed.state.commits_done), (ends[1], 3));

        // A flipped byte inside a whole record fails its checksum.
        let mut flipped = disk.log.clone();
        flipped[ends[0] + 40] ^= 1;
        assert!(refused(&flipped).contains("checksum mismatch"));

        // A missing record is a seq gap.
        let mut gap = disk.log[..ends[0]].to_vec();
        gap.extend_from_slice(&disk.log[ends[1]..]);
        assert!(refused(&gap).contains("expected 3"), "{}", refused(&gap));

        // A record whose splice does not fit, under a valid checksum.
        let mut record = read_record(&disk.log[..ends[0] - 1]).expect("whole");
        record.splices[0].start = 999;
        let mut out_of_range = frame_record(&record).expect("prints").into_bytes();
        out_of_range.extend_from_slice(&disk.log[ends[0]..]);
        assert!(refused(&out_of_range).contains("does not fit"));

        // A record repeated after the one it repeats is out of order.
        let mut repeated = disk.log.clone();
        repeated.extend_from_slice(&disk.log[..ends[0]]);
        assert!(refused(&repeated).contains("has seq 2, expected 5"));
        assert_eq!(session.state.commits_done, 4);
    }
}
