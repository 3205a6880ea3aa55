//! Chaos suite: synthetic clients drive the daemon through injected
//! I/O errors, torn writes, and simulated kills, and the final state
//! must be **byte-identical** to an uninterrupted run.
//!
//! The core harness runs the same deterministic client scripts twice:
//!
//! 1. against a clean daemon (chaos off) — the reference run;
//! 2. against a chaotic daemon, restarting it (fresh process model: new
//!    kill switch, bumped chaos epoch, same state directory) every time
//!    an injected kill fires, with clients retrying per protocol.
//!
//! Afterwards every session snapshot in the chaotic state directory must
//! equal the reference snapshot byte for byte — zero lost sessions, zero
//! corrupted sessions, zero double-counted commits. A session's snapshot
//! carries the committed floorplan, the commit journal (sequence, digest,
//! score, map fingerprint), and the commit idempotency ring — all of
//! which must survive kills at the `delta.commit` site and at the persist
//! boundary, byte for byte.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use irgrid_serve::{
    serve, Chaos, ChaosConfig, Client, ClientError, DegradePolicy, ErrorKind, FloorplanState,
    KillSwitch, Limits, Request, RequestOp, ResponsePayload, ServerHandle, ServerOptions,
    SessionConfig, SessionManager, SnapshotStore, Transport,
};

const CLIENTS: usize = 4;
const CONCURRENT_CLIENTS: usize = 8;
const STEPS: usize = 12;
const ATTEMPTS_PER_ROUND: u32 = 4;
const MAX_RESTARTS: usize = 200;
/// Attempts at one script step before a client thread gives up; far
/// beyond what the chaos mix needs, small enough that a wedge fails.
const MAX_TRIES_PER_STEP: usize = 3_000;
/// Seeds the `--chaos` mix of the concurrent test; under it at least
/// one session draws a kill in the daemon's first lifetime.
const CONCURRENT_CHAOS_SEED: u64 = 42;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irgrid_serve_chaos_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> SessionConfig {
    SessionConfig {
        pitch_um: 30,
        budget: 0,
        cache_capacity: 32,
    }
}

/// The deterministic geometry client `c` evaluates at script step `s`.
fn states_for(client: usize, step: usize) -> Vec<FloorplanState> {
    let (c, s) = (client as i64, step as i64);
    let count = 1 + (client + step) % 2;
    (0..count as i64)
        .map(|k| FloorplanState {
            chip: [700, 600],
            segments: vec![
                [20 + 13 * c + 7 * s + k, 15, 680 - 9 * s, 585 - 11 * c],
                [20, 585 - 7 * s, 680 - 5 * c - k, 15],
                [350, 10 + 3 * k, 350 + 17 * c, 590],
            ],
        })
        .collect()
}

struct TestDaemon {
    handle: ServerHandle,
    kill: KillSwitch,
}

fn start_daemon(state_dir: &Path, chaos: Chaos, workers: usize) -> TestDaemon {
    start_daemon_on(
        Transport::Tcp("127.0.0.1:0".to_owned()),
        state_dir,
        chaos,
        workers,
    )
}

fn start_daemon_on(
    transport: Transport,
    state_dir: &Path,
    chaos: Chaos,
    workers: usize,
) -> TestDaemon {
    let kill = KillSwitch::new();
    let store = SnapshotStore::open(state_dir, chaos, kill.clone()).expect("open store");
    let manager = Arc::new(SessionManager::new(
        store,
        Limits::default(),
        DegradePolicy::default(),
        workers,
    ));
    let handle = serve(transport, manager, ServerOptions::default()).expect("serve");
    TestDaemon { handle, kill }
}

fn stop_daemon(daemon: TestDaemon) {
    daemon.handle.manager().request_shutdown();
    daemon.handle.join();
}

fn snapshots(state_dir: &Path) -> BTreeMap<String, String> {
    let store = SnapshotStore::open(state_dir, Chaos::off(), KillSwitch::new()).expect("open");
    let mut map = BTreeMap::new();
    for id in store.list().expect("list") {
        let text = store.read(&id).expect("read").expect("snapshot exists");
        map.insert(id, text);
    }
    map
}

fn delta_session_name(client: usize) -> String {
    format!("delta-{client}")
}

fn delta_open(client: usize) -> Request {
    Request {
        id: format!("d{client}-open"),
        session: delta_session_name(client),
        op: RequestOp::OpenDelta { config: config() },
    }
}

/// The single move-candidate state client `c` proposes at step `s`.
fn delta_state_for(client: usize, step: usize) -> FloorplanState {
    states_for(client, step).remove(0)
}

/// Whether step `s` is a rejected move (propose → undo) or an accepted
/// one (propose → commit).
fn step_is_rejected(step: usize) -> bool {
    step % 3 == 2
}

/// How one attempt at a delta step (or reopen) ended.
enum StepOutcome {
    Done,
    /// Transient failure (transport, retries exhausted, lost pending):
    /// re-run the whole step — propose is pure, commit is idempotent.
    Retry,
    /// The daemon restarted and forgot the live session: re-send
    /// `OpenDelta` (which resumes and verifies the checkpoint) first.
    Reopen,
}

/// Runs one full delta step — propose, then commit or undo — recording
/// every score it sees. Request ids are stable per step, so a commit
/// whose reply was lost replays from the idempotency ring on re-send.
fn drive_delta_step(
    client: &mut Client,
    client_index: usize,
    step: usize,
    attempts: u32,
    scores: &mut BTreeMap<String, f64>,
) -> StepOutcome {
    let session = delta_session_name(client_index);
    let propose = Request {
        id: format!("d{client_index}-prop-{step}"),
        session: session.clone(),
        op: RequestOp::Propose {
            state: delta_state_for(client_index, step),
        },
    };
    let response = match client.call(&propose, attempts) {
        Ok(response) => response,
        Err(ClientError::Transport(_) | ClientError::RetriesExhausted(_)) => {
            return StepOutcome::Retry;
        }
        Err(err) => panic!("protocol violation under chaos: {err}"),
    };
    let digest = match &response.payload {
        ResponsePayload::Proposed { digest, score } => {
            scores.insert(propose.id.clone(), *score);
            digest.clone()
        }
        ResponsePayload::Error {
            kind: ErrorKind::UnknownSession,
            ..
        } => return StepOutcome::Reopen,
        other => panic!("non-retryable propose failure: {other:?}"),
    };

    let followup = if step_is_rejected(step) {
        Request {
            id: format!("d{client_index}-undo-{step}"),
            session,
            op: RequestOp::Undo,
        }
    } else {
        Request {
            id: format!("d{client_index}-commit-{step}"),
            session,
            op: RequestOp::Commit { digest },
        }
    };
    let response = match client.call(&followup, attempts) {
        Ok(response) => response,
        Err(ClientError::Transport(_) | ClientError::RetriesExhausted(_)) => {
            return StepOutcome::Retry;
        }
        Err(err) => panic!("protocol violation under chaos: {err}"),
    };
    match &response.payload {
        ResponsePayload::Committed { score, .. } | ResponsePayload::Undone { score } => {
            scores.insert(followup.id.clone(), *score);
            StepOutcome::Done
        }
        ResponsePayload::Error {
            kind: ErrorKind::UnknownSession,
            ..
        } => StepOutcome::Reopen,
        // The daemon restarted between propose and commit: the pending
        // proposal is volatile by design. Re-propose, then re-commit.
        ResponsePayload::Error {
            kind: ErrorKind::NoPendingProposal,
            ..
        } => StepOutcome::Retry,
        other => panic!("non-retryable {} failure: {other:?}", followup.id),
    }
}

/// Runs the delta scripts of the first `clients` clients to completion
/// against a clean daemon.
fn delta_reference_run(state_dir: &Path, clients: usize) -> BTreeMap<String, f64> {
    let daemon = start_daemon(state_dir, Chaos::off(), 1);
    let mut scores = BTreeMap::new();
    for client_index in 0..clients {
        let mut client = Client::new(daemon.handle.transport().clone());
        let opened = client.call(&delta_open(client_index), 3).expect("open");
        assert!(opened.ok, "{opened:?}");
        for step in 0..STEPS {
            match drive_delta_step(&mut client, client_index, step, 3, &mut scores) {
                StepOutcome::Done => {}
                _ => panic!("clean delta run must not fault (client {client_index} step {step})"),
            }
        }
    }
    stop_daemon(daemon);
    scores
}

/// Drives every delta script against a chaotic daemon, restarting on
/// kills, with the full retry contract (reopen on `UnknownSession`,
/// re-propose on `NoPendingProposal`, resend on anything retryable).
fn delta_chaotic_run(state_dir: &Path, seed: u64) -> (BTreeMap<String, f64>, usize, u64) {
    let mix = ChaosConfig {
        io_error_ppm: 150_000,
        torn_ppm: 100_000,
        kill_ppm: 60_000,
    };
    let chaos_for = |epoch: u64| Chaos::with_config(seed, mix).with_epoch(epoch);
    let mut daemon = start_daemon(state_dir, chaos_for(0), 1);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::new(daemon.handle.transport().clone()))
        .collect();
    let mut positions = [0usize; CLIENTS];
    let mut opened = [false; CLIENTS];
    let mut scores: BTreeMap<String, f64> = BTreeMap::new();
    let mut restarts = 0usize;
    let mut injected_faults = 0u64;

    while positions.iter().any(|&p| p < STEPS) {
        for client_index in 0..CLIENTS {
            if positions[client_index] >= STEPS {
                continue;
            }
            if !opened[client_index] {
                match clients[client_index].call(&delta_open(client_index), ATTEMPTS_PER_ROUND) {
                    Ok(response) if response.ok => opened[client_index] = true,
                    Ok(response) => panic!("delta reopen refused: {response:?}"),
                    Err(ClientError::Transport(_) | ClientError::RetriesExhausted(_)) => continue,
                    Err(err) => panic!("protocol violation under chaos: {err}"),
                }
            }
            match drive_delta_step(
                &mut clients[client_index],
                client_index,
                positions[client_index],
                ATTEMPTS_PER_ROUND,
                &mut scores,
            ) {
                StepOutcome::Done => positions[client_index] += 1,
                StepOutcome::Retry => {}
                StepOutcome::Reopen => opened[client_index] = false,
            }
        }

        if daemon.kill.is_tripped() {
            restarts += 1;
            assert!(
                restarts <= MAX_RESTARTS,
                "daemon not making progress after {restarts} restarts"
            );
            injected_faults += daemon.handle.manager().injected_faults();
            stop_daemon(daemon);
            daemon = start_daemon(state_dir, chaos_for(restarts as u64), 1);
            let transport = daemon.handle.transport().clone();
            clients = (0..CLIENTS)
                .map(|_| Client::new(transport.clone()))
                .collect();
            opened = [false; CLIENTS];
        }
    }

    injected_faults += daemon.handle.manager().injected_faults();
    stop_daemon(daemon);
    (scores, restarts, injected_faults)
}

#[test]
fn chaotic_delta_sessions_converge_to_the_uninterrupted_state_byte_for_byte() {
    let reference_dir = temp_dir("delta_reference");
    let reference = delta_reference_run(&reference_dir, CLIENTS);
    let reference_snapshots = snapshots(&reference_dir);
    assert_eq!(reference_snapshots.len(), CLIENTS);

    let chaotic_dir = temp_dir("delta_chaotic");
    let (scores, restarts, injected_faults) = delta_chaotic_run(&chaotic_dir, 0x0DE17A);
    assert!(
        injected_faults > 0,
        "chaos seed injected nothing; the suite is not exercising faults"
    );
    eprintln!("delta chaos run: {injected_faults} injected fault(s), {restarts} restart(s)");

    // Committed maps, commit journals (digests, scores, map
    // fingerprints), and idempotency rings: all byte-identical.
    let chaotic_snapshots = snapshots(&chaotic_dir);
    assert_eq!(
        chaotic_snapshots.keys().collect::<Vec<_>>(),
        reference_snapshots.keys().collect::<Vec<_>>()
    );
    for (id, reference_text) in &reference_snapshots {
        assert_eq!(
            &chaotic_snapshots[id], reference_text,
            "delta session `{id}` diverged from the uninterrupted run"
        );
    }

    // Every propose/commit/undo score matches the clean run bit for bit.
    for (request_id, want) in &reference {
        let got = scores
            .get(request_id)
            .unwrap_or_else(|| panic!("chaotic run never completed {request_id}"));
        assert_eq!(
            want.to_bits(),
            got.to_bits(),
            "score diverged for {request_id}"
        );
    }
}

#[test]
fn killed_delta_daemon_recovers_committed_map_and_journal_bit_identically() {
    // The focused propose → kill → restart scenario, with the kill
    // injected deterministically at the dedicated `delta.commit` site
    // (after the commit is staged, before anything durable changes).
    let continuous_dir = temp_dir("delta_kill_continuous");
    let mut continuous_scores = BTreeMap::new();
    {
        let daemon = start_daemon(&continuous_dir, Chaos::off(), 1);
        let mut client = Client::new(daemon.handle.transport().clone());
        assert!(client.call(&delta_open(0), 3).expect("open").ok);
        for step in 0..STEPS {
            assert!(matches!(
                drive_delta_step(&mut client, 0, step, 3, &mut continuous_scores),
                StepOutcome::Done
            ));
        }
        stop_daemon(daemon);
    }

    let interrupted_dir = temp_dir("delta_kill_interrupted");
    let half = STEPS / 2;
    let mut recovered_scores = BTreeMap::new();
    {
        let daemon = start_daemon(&interrupted_dir, Chaos::off(), 1);
        let mut client = Client::new(daemon.handle.transport().clone());
        assert!(client.call(&delta_open(0), 3).expect("open").ok);
        for step in 0..half {
            assert!(matches!(
                drive_delta_step(&mut client, 0, step, 3, &mut recovered_scores),
                StepOutcome::Done
            ));
        }
        // A manager whose every chaos consultation draws a kill: the
        // propose succeeds (pure, no store traffic), and the commit dies
        // at the `delta.commit` site with nothing staged on disk.
        let kill_all = Chaos::with_config(
            2,
            ChaosConfig {
                io_error_ppm: 0,
                torn_ppm: 0,
                kill_ppm: 1_000_000,
            },
        );
        let kill_store =
            SnapshotStore::open(&interrupted_dir, kill_all, daemon.kill.clone()).expect("store");
        let killed_manager = Arc::new(SessionManager::new(
            kill_store,
            Limits::default(),
            DegradePolicy::default(),
            1,
        ));
        let control = irgrid_anneal::RunControl::unlimited();
        let reopened = killed_manager.handle(&delta_open(0), &control);
        assert!(reopened.ok, "{reopened:?}");
        let before = snapshots(&interrupted_dir);
        let propose = Request {
            id: format!("d0-prop-{half}"),
            session: delta_session_name(0),
            op: RequestOp::Propose {
                state: delta_state_for(0, half),
            },
        };
        let proposed = killed_manager.handle(&propose, &control);
        assert!(proposed.ok, "propose is pure, kill cannot touch it");
        let ResponsePayload::Proposed { digest, .. } = &proposed.payload else {
            panic!("payload {proposed:?}");
        };
        let commit = Request {
            id: format!("d0-commit-{half}"),
            session: delta_session_name(0),
            op: RequestOp::Commit {
                digest: digest.clone(),
            },
        };
        let refused = killed_manager.handle(&commit, &control);
        assert!(!refused.ok, "kill-injected commit must fail: {refused:?}");
        assert!(daemon.kill.is_tripped(), "delta.commit site must kill");
        assert_eq!(
            snapshots(&interrupted_dir),
            before,
            "the killed commit must leave the snapshot untouched"
        );
        stop_daemon(daemon);
    }
    // "Reboot" over the same state directory and finish the script. The
    // resume path rebuilds the evaluator, replays the committed map, and
    // verifies cost bits + map fingerprint before serving; the whole
    // interrupted step re-runs (the pending proposal was volatile).
    {
        let daemon = start_daemon(&interrupted_dir, Chaos::off(), 1);
        let mut client = Client::new(daemon.handle.transport().clone());
        assert!(client.call(&delta_open(0), 3).expect("reopen").ok);
        for step in half..STEPS {
            assert!(matches!(
                drive_delta_step(&mut client, 0, step, 3, &mut recovered_scores),
                StepOutcome::Done
            ));
        }
        stop_daemon(daemon);
    }

    assert_eq!(
        snapshots(&interrupted_dir),
        snapshots(&continuous_dir),
        "post-kill delta recovery diverged from the continuous run"
    );
    for (request_id, want) in &continuous_scores {
        assert_eq!(
            want.to_bits(),
            recovered_scores[request_id].to_bits(),
            "score diverged for {request_id}"
        );
    }
}

/// Opens every client's session on `daemon` and evaluates its whole
/// script of batches there, each on the first attempt. Returns every
/// result's score, keyed by request id and batch position.
fn evaluate_scripts(daemon: &TestDaemon) -> BTreeMap<String, f64> {
    let mut scores = BTreeMap::new();
    for client_index in 0..CLIENTS {
        let mut client = Client::new(daemon.handle.transport().clone());
        let opened = client.call(&delta_open(client_index), 1).expect("open");
        assert!(opened.ok, "{opened:?}");
        for step in 0..STEPS {
            let request = Request {
                id: format!("e{client_index}-{step}"),
                session: delta_session_name(client_index),
                op: RequestOp::Evaluate {
                    states: states_for(client_index, step),
                },
            };
            let response = client.call(&request, 1).expect("evaluate needs no retry");
            let ResponsePayload::Evaluated { results } = &response.payload else {
                panic!("payload {response:?}");
            };
            for (k, result) in results.iter().enumerate() {
                scores.insert(format!("{}#{k}", request.id), result.score);
            }
        }
    }
    scores
}

#[test]
fn chaotic_daemon_serves_evaluates_without_faults_or_writes() {
    // Evaluate is read-only, so it never reaches a chaos site: under a
    // mix that faults or kills most persists, an Evaluate-only workload
    // on resumed sessions never fails, never writes, and scores exactly
    // what a clean daemon scores.
    let dir = temp_dir("evaluate_only");
    let clean = start_daemon(&dir, Chaos::off(), 1);
    let reference = evaluate_scripts(&clean);
    stop_daemon(clean);
    let before = snapshots(&dir);
    assert_eq!(
        before.len(),
        CLIENTS,
        "the clean daemon created every session"
    );

    let chaos = Chaos::with_config(
        7,
        ChaosConfig {
            io_error_ppm: 500_000,
            torn_ppm: 300_000,
            kill_ppm: 200_000,
        },
    );
    let chaotic = start_daemon(&dir, chaos, 2);
    let scores = evaluate_scripts(&chaotic);
    assert_eq!(chaotic.handle.manager().injected_faults(), 0);
    assert!(!chaotic.kill.is_tripped());
    stop_daemon(chaotic);

    assert_eq!(
        snapshots(&dir),
        before,
        "an evaluate wrote to the state dir"
    );
    assert_eq!(scores.len(), reference.len());
    for (id, want) in &reference {
        assert_eq!(
            want.to_bits(),
            scores[id].to_bits(),
            "score diverged for {id}"
        );
    }
}

#[test]
fn evaluates_interleaved_with_moves_leave_sessions_byte_identical() {
    // Evaluate never touches a session's evaluator or pending proposal:
    // a second connection evaluating on every session while its owner
    // proposes, commits and undoes must leave the snapshots and move
    // scores of the moves alone.
    let reference_dir = temp_dir("interleaved_reference");
    let reference = delta_reference_run(&reference_dir, CLIENTS);

    let dir = temp_dir("interleaved");
    let daemon = start_daemon(&dir, Chaos::off(), 2);
    let transport = daemon.handle.transport().clone();
    let scores = std::sync::Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for client_index in 0..CLIENTS {
            let opened = Client::new(transport.clone())
                .call(&delta_open(client_index), 3)
                .expect("open");
            assert!(opened.ok, "{opened:?}");
            let scores = &scores;
            let mover = transport.clone();
            scope.spawn(move || {
                let mut client = Client::new(mover);
                let mut own = BTreeMap::new();
                for step in 0..STEPS {
                    assert!(
                        matches!(
                            drive_delta_step(&mut client, client_index, step, 3, &mut own),
                            StepOutcome::Done
                        ),
                        "client {client_index} step {step} did not complete"
                    );
                }
                scores.lock().expect("scores").extend(own);
            });
            let reader = transport.clone();
            scope.spawn(move || {
                let mut client = Client::new(reader);
                for round in 0..2 * STEPS {
                    let request = Request {
                        id: format!("e{client_index}-{round}"),
                        session: delta_session_name(client_index),
                        op: RequestOp::Evaluate {
                            states: states_for(client_index, round % STEPS),
                        },
                    };
                    let response = client.call(&request, 3).expect("evaluate");
                    assert!(response.ok, "{response:?}");
                }
            });
        }
    });
    stop_daemon(daemon);

    assert_eq!(
        snapshots(&dir),
        snapshots(&reference_dir),
        "interleaved evaluates changed a session"
    );
    let scores = scores.into_inner().expect("scores");
    assert_eq!(scores.len(), reference.len());
    for (request_id, want) in &reference {
        assert_eq!(
            want.to_bits(),
            scores[request_id].to_bits(),
            "score diverged for {request_id}"
        );
    }
}

/// Plays client `client_index`'s whole delta script against whatever
/// daemon listens on `transport`, riding out injected faults and
/// supervised restarts: reconnect after a failed round, reopen after
/// `UnknownSession`, re-propose after `NoPendingProposal`. A failed
/// round drops the connection and backs off, so a killed daemon's
/// connection threads see the client leave and the daemon can stop.
fn drive_script_through_restarts(
    transport: Transport,
    client_index: usize,
) -> BTreeMap<String, f64> {
    let mut client = Client::new(transport);
    let mut scores = BTreeMap::new();
    let mut opened = false;
    let mut step = 0;
    let mut tries = 0;
    while step < STEPS {
        tries += 1;
        assert!(
            tries <= MAX_TRIES_PER_STEP,
            "client {client_index} step {step} made no progress"
        );
        let outcome = if opened {
            drive_delta_step(
                &mut client,
                client_index,
                step,
                ATTEMPTS_PER_ROUND,
                &mut scores,
            )
        } else {
            match client.call(&delta_open(client_index), ATTEMPTS_PER_ROUND) {
                Ok(response) if response.ok => {
                    opened = true;
                    continue;
                }
                Ok(response) => panic!("delta reopen refused: {response:?}"),
                Err(ClientError::Transport(_) | ClientError::RetriesExhausted(_)) => {
                    StepOutcome::Retry
                }
                Err(err) => panic!("protocol violation under chaos: {err}"),
            }
        };
        match outcome {
            StepOutcome::Done => {
                step += 1;
                tries = 0;
            }
            StepOutcome::Retry => {
                client.disconnect();
                std::thread::sleep(Duration::from_millis(5));
            }
            StepOutcome::Reopen => opened = false,
        }
    }
    scores
}

#[test]
fn concurrent_chaotic_clients_lose_no_sessions() {
    // One thread per client over a Unix socket, against a daemon under
    // the `--chaos` mix (I/O errors, torn writes, kills). The main
    // thread supervises: whenever an injected kill trips, it restarts
    // the daemon on the same socket and state directory with a bumped
    // epoch. Every session must end byte-identical to a clean run of
    // the same scripts, and every score must match bit for bit.
    let reference_dir = temp_dir("concurrent_reference");
    let reference = delta_reference_run(&reference_dir, CONCURRENT_CLIENTS);
    let reference_snapshots = snapshots(&reference_dir);
    assert_eq!(reference_snapshots.len(), CONCURRENT_CLIENTS);

    let dir = temp_dir("concurrent");
    let state_dir = dir.join("state");
    let transport = Transport::Unix(dir.join("irgrid-serve.sock"));
    let chaos_for = |epoch: usize| Chaos::seeded(CONCURRENT_CHAOS_SEED).with_epoch(epoch as u64);
    let (scores, restarts, injected_faults) = std::thread::scope(|scope| {
        let mut daemon = start_daemon_on(transport.clone(), &state_dir, chaos_for(0), 2);
        let threads: Vec<_> = (0..CONCURRENT_CLIENTS)
            .map(|client_index| {
                let transport = transport.clone();
                scope.spawn(move || drive_script_through_restarts(transport, client_index))
            })
            .collect();
        let mut restarts = 0;
        let mut injected_faults = 0;
        while !threads.iter().all(|thread| thread.is_finished()) {
            if daemon.kill.is_tripped() {
                restarts += 1;
                assert!(
                    restarts <= MAX_RESTARTS,
                    "daemon not making progress after {restarts} restarts"
                );
                injected_faults += daemon.handle.manager().injected_faults();
                stop_daemon(daemon);
                daemon = start_daemon_on(transport.clone(), &state_dir, chaos_for(restarts), 2);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        injected_faults += daemon.handle.manager().injected_faults();
        stop_daemon(daemon);
        let mut scores = BTreeMap::new();
        for thread in threads {
            scores.extend(thread.join().expect("client thread"));
        }
        (scores, restarts, injected_faults)
    });
    eprintln!("concurrent chaos run: {injected_faults} injected fault(s), {restarts} restart(s)");
    assert!(
        injected_faults > 0,
        "chaos seed injected nothing; the test is not exercising faults"
    );
    assert!(
        restarts > 0,
        "no injected kill fired; the test is not exercising restarts"
    );

    let recovered = snapshots(&state_dir);
    assert_eq!(
        recovered.keys().collect::<Vec<_>>(),
        reference_snapshots.keys().collect::<Vec<_>>(),
        "a session was lost"
    );
    for (id, reference_text) in &reference_snapshots {
        assert_eq!(
            &recovered[id], reference_text,
            "session `{id}` diverged from the clean run"
        );
    }
    assert_eq!(scores.len(), reference.len());
    for (request_id, want) in &reference {
        assert_eq!(
            want.to_bits(),
            scores[request_id].to_bits(),
            "score diverged for {request_id}"
        );
    }
}

#[test]
fn a_saturated_daemon_sheds_scoring_and_a_default_daemon_serves_it() {
    let dir = temp_dir("shed");
    let store = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
    // reject_at 0: a request's own slot already reaches the threshold,
    // so every Evaluate and Propose is refused.
    let manager = Arc::new(SessionManager::new(
        store,
        Limits::default(),
        DegradePolicy { reject_at: 0 },
        1,
    ));
    let handle = serve(
        Transport::Tcp("127.0.0.1:0".to_owned()),
        manager,
        ServerOptions::default(),
    )
    .expect("serve");
    let mut client = Client::new(handle.transport().clone());
    let evaluate = Request {
        id: "d0-eval".to_owned(),
        session: delta_session_name(0),
        op: RequestOp::Evaluate {
            states: states_for(0, 0),
        },
    };
    let propose = Request {
        id: "d0-prop".to_owned(),
        session: delta_session_name(0),
        op: RequestOp::Propose {
            state: delta_state_for(0, 0),
        },
    };
    assert!(client.call(&delta_open(0), 3).expect("open").ok);
    let before = snapshots(&dir);
    for request in [&evaluate, &propose] {
        let refused = client.call_once(request).expect("transport");
        assert!(
            matches!(
                refused.payload,
                ResponsePayload::Error {
                    kind: ErrorKind::Backpressure,
                    retryable: true,
                    ..
                }
            ),
            "{refused:?}"
        );
    }
    assert_eq!(
        snapshots(&dir),
        before,
        "a refused request changed a session"
    );
    handle.manager().request_shutdown();
    handle.join();

    // A default daemon over the same state dir serves both requests.
    let daemon = start_daemon(&dir, Chaos::off(), 1);
    let mut client = Client::new(daemon.handle.transport().clone());
    let reopened = client.call(&delta_open(0), 3).expect("reopen");
    assert!(
        matches!(
            reopened.payload,
            ResponsePayload::Opened { resumed: true, .. }
        ),
        "{reopened:?}"
    );
    let evaluated = client.call(&evaluate, 3).expect("evaluate");
    assert!(
        matches!(&evaluated.payload, ResponsePayload::Evaluated { results } if results.len() == 1),
        "{evaluated:?}"
    );
    let proposed = client.call(&propose, 3).expect("propose");
    let ResponsePayload::Proposed { digest, .. } = proposed.payload else {
        panic!("payload {proposed:?}");
    };
    let commit = Request {
        id: "d0-commit".to_owned(),
        session: delta_session_name(0),
        op: RequestOp::Commit { digest },
    };
    let committed = client.call(&commit, 3).expect("commit");
    assert!(
        matches!(
            committed.payload,
            ResponsePayload::Committed { commit_seq: 1, .. }
        ),
        "{committed:?}"
    );
    stop_daemon(daemon);
}
