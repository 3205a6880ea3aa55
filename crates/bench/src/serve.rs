//! `repro serve-bench` — robustness smoke for the `irgrid-serve` daemon,
//! written to `BENCH_serve.json`.
//!
//! Starts an in-process daemon on a Unix socket, drives it with N
//! concurrent synthetic clients (default 8) each playing a deterministic
//! script of moves — `Propose`, then `Commit` (or `Undo` for every third
//! move) — and reports the robustness counters CI asserts on:
//! `corrupted_sessions` (must be 0), `replayed_responses`,
//! `injected_faults`, and `restarts`. Its
//! `moves_per_s` is a smoke figure; served throughput and latency are
//! measured by the `benchmark/` package.
//!
//! With `--chaos SEED` the daemon runs under the default fault mix
//! (I/O errors, torn writes, kills); a supervisor loop restarts the
//! daemon — same state directory, bumped chaos epoch — whenever an
//! injected kill fires, and clients retry per protocol. Every commit
//! persists, so the final snapshot audit must still find every session
//! intact with exactly its scripted `commits_done`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use irgrid::serve::{
    serve, Chaos, ChaosConfig, Client, DegradePolicy, ErrorKind, FloorplanState, KillSwitch,
    Limits, Request, RequestOp, Response, ResponsePayload, ServerHandle, ServerOptions,
    SessionConfig, SessionManager, SnapshotStore, Transport,
};

use crate::common::{die, flag_value, Mode};

/// Retry attempts per `Client::call` before the outer loop reconnects.
const CALL_ATTEMPTS: u32 = 8;
/// Outer-loop bound per request; far beyond what any survivable chaos
/// mix needs, small enough that a genuine wedge fails fast.
const MAX_TRIES: usize = 3_000;

#[derive(Debug, Serialize)]
struct Report {
    clients: usize,
    steps_per_client: usize,
    workers: usize,
    chaos_seed: Option<u64>,
    /// Completed moves (a `Propose` plus its `Commit` or `Undo`).
    moves: u64,
    wall_s: f64,
    moves_per_s: f64,
    replayed_responses: u64,
    injected_faults: u64,
    restarts: u64,
    sessions: usize,
    corrupted_sessions: usize,
}

/// Per-client tallies returned by each worker thread.
#[derive(Debug, Default)]
struct ClientTally {
    moves: u64,
    replayed: u64,
}

fn session_config() -> SessionConfig {
    SessionConfig {
        pitch_um: 30,
        budget: 0,
        cache_capacity: 64,
    }
}

/// The floorplan client `c` proposes at script step `s`; every state
/// carries 3 segments.
fn state_for(client: usize, step: usize) -> FloorplanState {
    let (c, s) = (client as i64, step as i64);
    FloorplanState {
        chip: [900, 800],
        segments: vec![
            [10 + 17 * c + 5 * s, 12, 880 - 7 * s, 780 - 13 * c],
            [15, 780 - 11 * s, 870 - 3 * c, 20],
            [450, 16, 440 - 15 * c, 790 - 4 * s],
        ],
    }
}

/// Whether script step `step` is rejected (`Undo`) rather than accepted
/// (`Commit`): every third move, as in the serve chaos suite.
fn rejected(step: usize) -> bool {
    step % 3 == 2
}

struct Daemon {
    handle: ServerHandle,
    kill: KillSwitch,
}

fn start_daemon(
    socket: &Path,
    state_dir: &Path,
    chaos: Chaos,
    workers: usize,
) -> Result<Daemon, String> {
    let kill = KillSwitch::new();
    let store = SnapshotStore::open(state_dir, chaos, kill.clone())
        .map_err(|err| format!("cannot open state dir {}: {err}", state_dir.display()))?;
    let manager = Arc::new(SessionManager::new(
        store,
        Limits::default(),
        DegradePolicy::default(),
        workers,
    ));
    let handle = serve(
        Transport::Unix(socket.to_path_buf()),
        manager,
        ServerOptions::default(),
    )
    .map_err(|err| format!("cannot serve on {}: {err}", socket.display()))?;
    Ok(Daemon { handle, kill })
}

/// How one attempt at a scripted move ended.
enum Attempt {
    Done,
    /// A transport failure, exhausted retries, or a lost pending
    /// proposal: re-run the whole move — `Propose` is pure and `Commit`
    /// is idempotent.
    Retry,
    /// The daemon restarted and forgot the live session: re-send
    /// `OpenDelta` (an idempotent resume) first.
    Reopen,
}

/// Sends `request`, or backs off and drops the connection when the
/// transport died (kill mid-request) or retries ran out while the
/// supervisor restarts the daemon.
fn send(connection: &mut Client, request: &Request) -> Option<Response> {
    match connection.call(request, CALL_ATTEMPTS) {
        Ok(response) => Some(response),
        Err(_) => {
            connection.disconnect();
            std::thread::sleep(Duration::from_millis(5));
            None
        }
    }
}

fn terminal(client: usize, request: &Request, payload: &ResponsePayload) -> ! {
    die(&format!(
        "client {client}: request {} failed terminally: {payload:?}",
        request.id
    ))
}

/// One attempt at scripted move `step`: propose, then commit or undo.
/// Request ids are stable per step, so a commit whose reply was lost
/// replays from the idempotency ring on re-send.
fn attempt_move(
    connection: &mut Client,
    session: &str,
    client: usize,
    step: usize,
    tally: &mut ClientTally,
) -> Attempt {
    let propose = Request {
        id: format!("b{client}-propose-{step}"),
        session: session.to_owned(),
        op: RequestOp::Propose {
            state: state_for(client, step),
        },
    };
    let Some(response) = send(connection, &propose) else {
        return Attempt::Retry;
    };
    let digest = match &response.payload {
        ResponsePayload::Proposed { digest, .. } => digest.clone(),
        ResponsePayload::Error {
            kind: ErrorKind::UnknownSession,
            ..
        } => return Attempt::Reopen,
        other => terminal(client, &propose, other),
    };
    let followup = Request {
        id: format!("b{client}-settle-{step}"),
        session: session.to_owned(),
        op: if rejected(step) {
            RequestOp::Undo
        } else {
            RequestOp::Commit { digest }
        },
    };
    let Some(response) = send(connection, &followup) else {
        return Attempt::Retry;
    };
    match &response.payload {
        ResponsePayload::Committed { .. } | ResponsePayload::Undone { .. } => {
            if response.replayed {
                tally.replayed += 1;
            }
            tally.moves += 1;
            Attempt::Done
        }
        ResponsePayload::Error {
            kind: ErrorKind::UnknownSession,
            ..
        } => Attempt::Reopen,
        // The daemon restarted between propose and commit (the pending
        // proposal is volatile): re-propose, then re-commit.
        ResponsePayload::Error {
            kind: ErrorKind::NoPendingProposal,
            ..
        } => Attempt::Retry,
        other => terminal(client, &followup, other),
    }
}

/// One client thread: open the session, then play every scripted move,
/// retrying through chaos (reconnects, re-opens after a daemon restart)
/// until each move completes.
fn run_client(socket: PathBuf, client: usize, steps: usize) -> ClientTally {
    let session = format!("bench-{client}");
    let open = Request {
        id: format!("b{client}-open"),
        session: session.clone(),
        op: RequestOp::OpenDelta {
            config: session_config(),
        },
    };
    let mut connection = Client::new(Transport::Unix(socket));
    let mut tally = ClientTally::default();
    let mut opened = false;
    let mut step = 0;
    let mut tries = 0;
    while step < steps {
        tries += 1;
        if tries > MAX_TRIES {
            die(&format!("client {client}: move {step} wedged"));
        }
        if !opened {
            match send(&mut connection, &open) {
                Some(response) if response.ok => opened = true,
                Some(response) => terminal(client, &open, &response.payload),
                None => continue,
            }
        }
        match attempt_move(&mut connection, &session, client, step, &mut tally) {
            Attempt::Done => {
                step += 1;
                tries = 0;
            }
            Attempt::Retry => {}
            Attempt::Reopen => opened = false,
        }
    }
    tally
}

/// Audits the final state directory: every session snapshot must parse
/// and report exactly the commit count its script performed.
fn audit_sessions(state_dir: &Path, clients: usize, steps: usize) -> (usize, usize) {
    let store = SnapshotStore::open(state_dir, Chaos::off(), KillSwitch::new())
        .unwrap_or_else(|err| die(&format!("audit: cannot reopen state dir: {err}")));
    let ids = store
        .list()
        .unwrap_or_else(|err| die(&format!("audit: cannot list sessions: {err}")));
    let expected_commits = (0..steps).filter(|&step| !rejected(step)).count() as i64;
    let mut corrupted = 0;
    for id in &ids {
        let Ok(Some(text)) = store.read(id) else {
            corrupted += 1;
            continue;
        };
        let Ok(value) = serde_json::from_str::<serde::Value>(&text) else {
            corrupted += 1;
            continue;
        };
        if value.get("commits_done") != Some(&serde::Value::Int(expected_commits)) {
            corrupted += 1;
        }
    }
    if ids.len() != clients {
        corrupted += clients.abs_diff(ids.len());
    }
    (ids.len(), corrupted)
}

/// Entry point for `repro serve-bench`.
pub fn run(mode: &Mode, args: &[String]) {
    let clients: usize = flag_value(args, "--clients")
        .map_or(8, |text| {
            text.parse()
                .unwrap_or_else(|_| die(&format!("--clients `{text}` is not a count")))
        })
        .max(1);
    let steps: usize = flag_value(args, "--steps")
        .map_or(16, |text| {
            text.parse()
                .unwrap_or_else(|_| die(&format!("--steps `{text}` is not a count")))
        })
        .max(1);
    let chaos_seed: Option<u64> = flag_value(args, "--chaos").map(|text| {
        text.parse()
            .unwrap_or_else(|_| die(&format!("--chaos `{text}` is not a seed")))
    });
    let out_path = flag_value(args, "--out").unwrap_or("BENCH_serve.json");
    let workers = mode.jobs;

    let scratch = std::env::temp_dir().join(format!("irgrid_serve_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .unwrap_or_else(|err| die(&format!("cannot create {}: {err}", scratch.display())));
    let socket = scratch.join("irgrid-serve.sock");
    let state_dir = scratch.join("state");

    let chaos_for = |epoch: u64| match chaos_seed {
        Some(seed) => Chaos::with_config(seed, ChaosConfig::default_mix()).with_epoch(epoch),
        None => Chaos::off(),
    };

    println!(
        "serve-bench: {clients} clients x {steps} moves, workers={workers}, chaos={chaos_seed:?}"
    );
    let mut daemon =
        start_daemon(&socket, &state_dir, chaos_for(0), workers).unwrap_or_else(|err| die(&err));

    let start = Instant::now();
    let finished = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..clients)
        .map(|client| {
            let socket = socket.clone();
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                let tally = run_client(socket, client, steps);
                finished.fetch_add(1, Ordering::SeqCst);
                tally
            })
        })
        .collect();

    // Supervisor: restart the daemon (fresh kill switch, bumped chaos
    // epoch, same state directory) whenever an injected kill fires.
    let mut restarts: u64 = 0;
    let mut injected_faults: u64 = 0;
    while finished.load(Ordering::SeqCst) < clients {
        if daemon.kill.is_tripped() {
            injected_faults += daemon.handle.manager().injected_faults();
            daemon.handle.manager().request_shutdown();
            daemon.handle.join();
            restarts += 1;
            daemon = start_daemon(&socket, &state_dir, chaos_for(restarts), workers)
                .unwrap_or_else(|err| die(&err));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut tallies = ClientTally::default();
    for thread in threads {
        let tally = thread.join().unwrap_or_else(|_| {
            die("a client thread panicked");
        });
        tallies.moves += tally.moves;
        tallies.replayed += tally.replayed;
    }
    let wall_s = start.elapsed().as_secs_f64();
    injected_faults += daemon.handle.manager().injected_faults();
    daemon.handle.manager().request_shutdown();
    daemon.handle.join();

    let (sessions, corrupted_sessions) = audit_sessions(&state_dir, clients, steps);

    let report = Report {
        clients,
        steps_per_client: steps,
        workers,
        chaos_seed,
        moves: tallies.moves,
        wall_s,
        moves_per_s: tallies.moves as f64 / wall_s,
        replayed_responses: tallies.replayed,
        injected_faults,
        restarts,
        sessions,
        corrupted_sessions,
    };
    crate::report::emit(out_path, &report);
    let _ = std::fs::remove_dir_all(&scratch);
    if corrupted_sessions != 0 {
        die(&format!(
            "{corrupted_sessions} corrupted session(s) after the run — robustness bug"
        ));
    }
}
