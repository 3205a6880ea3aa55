//! `repro serve-bench` — sustained-throughput and robustness report for
//! the `irgrid-serve` daemon, written to `BENCH_serve.json`.
//!
//! Starts an in-process daemon on a Unix socket, drives it with N
//! concurrent synthetic clients (default 8) each playing a deterministic
//! script of moves — `Propose`, then `Commit` (or `Undo` for every third
//! move) — and reports sustained moves/s plus the robustness counters CI
//! asserts on: `corrupted_sessions` (must be 0), `degraded_responses`,
//! `replayed_responses`, `injected_faults`, and `restarts`.
//!
//! With `--chaos SEED` the daemon runs under the default fault mix
//! (I/O errors, torn writes, kills); a supervisor loop restarts the
//! daemon — same state directory, bumped chaos epoch — whenever an
//! injected kill fires, and clients retry per protocol. Every commit
//! persists, so the final snapshot audit must still find every session
//! intact with exactly its scripted `commits_done`.
//!
//! With `--delta` the report additionally benchmarks incremental serving
//! on an annealed ami49 floorplan: one warm move sequence (a single
//! segment nudged per step) is driven once as one-state `Evaluate`
//! requests (every move scored from scratch, the baseline) and once as
//! `Propose` + `Commit`/`Undo` per move over binary framing, each on its
//! own session. Every checked `Propose` score must be bit-identical to a
//! from-scratch rebase through a fresh local delta session
//! (`delta_equivalent`); the command aborts rather than report a
//! mismatching build. The incremental-over-full throughput ratio is
//! reported, not gated.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use irgrid::anneal::{Annealer, RunOptions, Schedule};
use irgrid::congestion::{DeltaCongestion, DeltaCongestionSession, IrregularGridModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::{Point, Rect, Um};
use irgrid::netlist::mcnc::McncCircuit;
use irgrid::serve::{
    serve, Chaos, ChaosConfig, Client, DegradePolicy, ErrorKind, FloorplanState, FrameCodec,
    KillSwitch, Limits, Request, RequestOp, Response, ResponsePayload, ServerHandle, ServerOptions,
    SessionConfig, SessionManager, SnapshotStore, Transport,
};

use crate::common::{die, flag_value, Mode};

/// Retry attempts per `Client::call` before the outer loop reconnects.
const CALL_ATTEMPTS: u32 = 8;
/// Outer-loop bound per request; far beyond what any survivable chaos
/// mix needs, small enough that a genuine wedge fails fast.
const MAX_TRIES: usize = 3_000;
/// `--delta`: leading moves whose `Propose` scores are re-checked
/// bit-for-bit against a fresh local delta-session rebase.
const DELTA_CHECKED_MOVES: usize = 8;

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
    degraded_responses: u64,
    replayed_responses: u64,
    injected_faults: u64,
    restarts: u64,
    sessions: usize,
    corrupted_sessions: usize,
    /// Runtime re-check that every checked `--delta` `Propose` score is
    /// bit-identical to a from-scratch local delta-session rebase; the
    /// bench aborts on a mismatch instead of reporting `false`. `None`
    /// without `--delta`.
    delta_equivalent: Option<bool>,
    /// Moves whose scores were bit-checked against the local reference.
    delta_checked_moves: Option<usize>,
    /// Warm move-sequence length driven through both serving paths.
    delta_moves: Option<usize>,
    /// Baseline: moves/s via one-state `Evaluate` requests.
    full_moves_per_s: Option<f64>,
    /// Moves/s via `Propose` + `Commit`/`Undo` requests.
    delta_moves_per_s: Option<f64>,
    /// `delta_moves_per_s / full_moves_per_s`.
    delta_speedup_vs_full: Option<f64>,
}

/// Per-client tallies returned by each worker thread.
#[derive(Debug, Default)]
struct ClientTally {
    moves: u64,
    degraded: u64,
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
        ResponsePayload::Proposed { digest, .. } => {
            if response.degraded {
                tally.degraded += 1;
            }
            digest.clone()
        }
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
        // proposal is volatile), or the proposal was degraded and never
        // armed: re-propose, then re-commit.
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

/// Everything `--delta` measures; folded into the report as `Option`s.
struct DeltaOutcome {
    checked: usize,
    moves: usize,
    full_moves_per_s: f64,
    delta_moves_per_s: f64,
    speedup: f64,
}

/// An annealed ami49 floorplan as a protocol state — the same fixture
/// recipe `congestion-perf` uses, translated so the chip's lower-left
/// corner sits at the protocol origin and clamped into the chip extent.
/// Returns the state and the circuit's paper grid pitch in µm.
fn ami49_state() -> (FloorplanState, i64) {
    let circuit = McncCircuit::Ami49;
    let netlist = circuit.circuit();
    let pitch = circuit.paper_grid_pitch_um();
    let problem = FloorplanProblem::new(
        &netlist,
        Um(pitch),
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let run = Annealer::new(Schedule::quick())
        .run(&problem, 4, RunOptions::default())
        .expect("finite costs");
    let eval = problem.evaluate(&run.best);
    let (chip, segments): (Rect, Vec<(Point, Point)>) = (eval.placement.chip(), eval.segments);
    let (dx, dy) = (chip.ll().x.0, chip.ll().y.0);
    let extent = [chip.width().0, chip.height().0];
    let segments = segments
        .iter()
        .map(|(a, b)| {
            [
                (a.x.0 - dx).clamp(0, extent[0]),
                (a.y.0 - dy).clamp(0, extent[1]),
                (b.x.0 - dx).clamp(0, extent[0]),
                (b.y.0 - dy).clamp(0, extent[1]),
            ]
        })
        .collect();
    (
        FloorplanState {
            chip: extent,
            segments,
        },
        pitch,
    )
}

/// The deterministic warm move for `step`: nudge one endpoint of one
/// segment within the chip, leaving every other segment untouched —
/// the move shape the delta evaluator is built for.
fn mutated(committed: &FloorplanState, step: usize) -> FloorplanState {
    let mut next = committed.clone();
    let index = (step * 7 + 3) % next.segments.len();
    let s = step as i64;
    let [width, height] = next.chip;
    let segment = &mut next.segments[index];
    segment[0] = (segment[0] + 131 * (s + 1)).rem_euclid(width + 1);
    segment[1] = (segment[1] + 89 * (s + 2)).rem_euclid(height + 1);
    next
}

/// Scores `state` through a fresh from-scratch delta-session rebase —
/// the reference every served `Propose` score must match bit for bit.
fn local_reference_score(state: &FloorplanState, pitch: i64) -> f64 {
    let chip = Rect::from_origin_size(Point::ORIGIN, Um(state.chip[0]), Um(state.chip[1]));
    let segments: Vec<(Point, Point)> = state
        .segments
        .iter()
        .map(|&[x1, y1, x2, y2]| (Point::new(Um(x1), Um(y1)), Point::new(Um(x2), Um(y2))))
        .collect();
    IrregularGridModel::new(Um(pitch))
        .delta_session()
        .rebase(&chip, &segments)
}

fn delta_request(session: &str, id: String, op: RequestOp) -> Request {
    Request {
        id,
        session: session.to_owned(),
        op,
    }
}

/// Sends `request` on the chaos-free delta bench daemon and returns the
/// payload; any refusal or transport failure here is a bench bug.
fn must_call(client: &mut Client, request: &Request) -> ResponsePayload {
    match client.call(request, CALL_ATTEMPTS) {
        Ok(response) if response.ok => response.payload,
        Ok(response) => die(&format!(
            "delta bench: request {} refused: {:?}",
            request.id, response.payload
        )),
        Err(err) => die(&format!(
            "delta bench: request {} failed: {err}",
            request.id
        )),
    }
}

/// Benchmarks incremental serving against the one-state `Evaluate`
/// baseline on one chaos-free daemon, then asserts bit-identity (vs a
/// fresh local rebase). See the module docs for the workload shape.
fn bench_incremental_serving(scratch: &Path, workers: usize, moves: usize) -> DeltaOutcome {
    let socket = scratch.join("irgrid-serve-delta.sock");
    let state_dir = scratch.join("delta-state");
    let daemon =
        start_daemon(&socket, &state_dir, Chaos::off(), workers).unwrap_or_else(|err| die(&err));

    let (initial, pitch) = ami49_state();
    let config = SessionConfig {
        pitch_um: pitch,
        budget: 0,
        cache_capacity: 64,
    };
    println!(
        "serve-bench --delta: ami49, {} segments, pitch {pitch} um, {moves} warm moves",
        initial.segments.len()
    );

    // The shared trajectory: proposed state + accept/reject per move.
    // Every third move is rejected, mirroring the chaos suite's script.
    let mut committed = initial.clone();
    let mut trajectory: Vec<(FloorplanState, bool)> = Vec::with_capacity(moves);
    for step in 0..moves {
        let proposed = mutated(&committed, step);
        let accepted = step % 3 != 2;
        if accepted {
            committed = proposed.clone();
        }
        trajectory.push((proposed, accepted));
    }

    // Baseline: one one-state `Evaluate` request per move, every state
    // scored from scratch, warmed with an untimed evaluation.
    let full_session = "delta-bench-full";
    let mut full = Client::new(Transport::Unix(socket.clone()));
    must_call(
        &mut full,
        &delta_request(
            full_session,
            "f-open".to_owned(),
            RequestOp::OpenDelta { config },
        ),
    );
    must_call(
        &mut full,
        &delta_request(
            full_session,
            "f-warm".to_owned(),
            RequestOp::Evaluate {
                states: vec![initial.clone()],
            },
        ),
    );
    let full_start = Instant::now();
    for (move_index, (proposed, _)) in trajectory.iter().enumerate() {
        let payload = must_call(
            &mut full,
            &delta_request(
                full_session,
                format!("f-eval-{move_index}"),
                RequestOp::Evaluate {
                    states: vec![proposed.clone()],
                },
            ),
        );
        if !matches!(payload, ResponsePayload::Evaluated { .. }) {
            die(&format!(
                "delta bench: full evaluate {move_index} returned {payload:?}"
            ));
        }
    }
    let full_s = full_start.elapsed().as_secs_f64();

    // Incremental moves over binary framing: `Propose` every move,
    // `Commit` accepted ones, `Undo` rejected ones. Seeded with an untimed
    // initial commit so the timed loop measures warm incremental moves.
    let delta_session = "delta-bench-delta";
    let mut delta = Client::with_codec(Transport::Unix(socket), FrameCodec::Binary);
    must_call(
        &mut delta,
        &delta_request(
            delta_session,
            "d-open".to_owned(),
            RequestOp::OpenDelta { config },
        ),
    );
    let seed_digest = match must_call(
        &mut delta,
        &delta_request(
            delta_session,
            "d-seed-propose".to_owned(),
            RequestOp::Propose {
                state: initial.clone(),
            },
        ),
    ) {
        ResponsePayload::Proposed { digest, .. } => digest,
        other => die(&format!("delta bench: seed propose returned {other:?}")),
    };
    must_call(
        &mut delta,
        &delta_request(
            delta_session,
            "d-seed-commit".to_owned(),
            RequestOp::Commit {
                digest: seed_digest,
            },
        ),
    );

    let mut proposed_scores: Vec<f64> = Vec::with_capacity(moves);
    let delta_start = Instant::now();
    for (move_index, (proposed, accepted)) in trajectory.iter().enumerate() {
        let (digest, score) = match must_call(
            &mut delta,
            &delta_request(
                delta_session,
                format!("d-propose-{move_index}"),
                RequestOp::Propose {
                    state: proposed.clone(),
                },
            ),
        ) {
            ResponsePayload::Proposed { digest, score } => (digest, score),
            other => die(&format!(
                "delta bench: propose {move_index} returned {other:?}"
            )),
        };
        proposed_scores.push(score);
        if *accepted {
            match must_call(
                &mut delta,
                &delta_request(
                    delta_session,
                    format!("d-commit-{move_index}"),
                    RequestOp::Commit { digest },
                ),
            ) {
                ResponsePayload::Committed {
                    score: committed_score,
                    ..
                } => {
                    if committed_score.to_bits() != score.to_bits() {
                        die(&format!(
                            "delta bench: commit {move_index} score diverged from its propose"
                        ));
                    }
                }
                other => die(&format!(
                    "delta bench: commit {move_index} returned {other:?}"
                )),
            }
        } else {
            let payload = must_call(
                &mut delta,
                &delta_request(
                    delta_session,
                    format!("d-undo-{move_index}"),
                    RequestOp::Undo,
                ),
            );
            if !matches!(payload, ResponsePayload::Undone { .. }) {
                die(&format!(
                    "delta bench: undo {move_index} returned {payload:?}"
                ));
            }
        }
    }
    let delta_s = delta_start.elapsed().as_secs_f64();

    daemon.handle.manager().request_shutdown();
    daemon.handle.join();

    // Bit-identity, checked after the clocks stop so the local rebases
    // don't pollute the delta timing: every checked served score must
    // equal a from-scratch rebase of the same state, bit for bit.
    let checked = DELTA_CHECKED_MOVES.min(moves);
    for (move_index, (proposed, _)) in trajectory.iter().take(checked).enumerate() {
        let reference = local_reference_score(proposed, pitch);
        let served = proposed_scores[move_index];
        if served.to_bits() != reference.to_bits() {
            die(&format!(
                "delta bench: move {move_index} served score {served:?} (bits {:016x}) != \
                 fresh-rebase reference {reference:?} (bits {:016x}) — bit-identity broken",
                served.to_bits(),
                reference.to_bits()
            ));
        }
    }

    let full_moves_per_s = moves as f64 / full_s;
    let delta_moves_per_s = moves as f64 / delta_s;
    let speedup = delta_moves_per_s / full_moves_per_s;
    println!(
        "serve-bench --delta: full {full_moves_per_s:.1} moves/s, delta {delta_moves_per_s:.1} \
         moves/s, speedup {speedup:.2}x, {checked} moves bit-checked"
    );
    DeltaOutcome {
        checked,
        moves,
        full_moves_per_s,
        delta_moves_per_s,
        speedup,
    }
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
    let delta = args.iter().any(|a| a == "--delta");
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
        tallies.degraded += tally.degraded;
        tallies.replayed += tally.replayed;
    }
    let wall_s = start.elapsed().as_secs_f64();
    injected_faults += daemon.handle.manager().injected_faults();
    daemon.handle.manager().request_shutdown();
    daemon.handle.join();

    let (sessions, corrupted_sessions) = audit_sessions(&state_dir, clients, steps);

    // --delta: benchmark the delta serving path on its own chaos-free
    // daemon (separate socket and state dir inside the same scratch).
    // The warm move sequence scales with --steps so the CI smoke stays
    // fast while a full run measures a longer steady state.
    let delta_outcome =
        delta.then(|| bench_incremental_serving(&scratch, workers, (steps * 4).max(24)));

    let report = Report {
        clients,
        steps_per_client: steps,
        workers,
        chaos_seed,
        moves: tallies.moves,
        wall_s,
        moves_per_s: tallies.moves as f64 / wall_s,
        degraded_responses: tallies.degraded,
        replayed_responses: tallies.replayed,
        injected_faults,
        restarts,
        sessions,
        corrupted_sessions,
        // `bench_incremental_serving` died on any bit mismatch, so reaching this
        // point with an outcome means the equivalence check passed.
        delta_equivalent: delta_outcome.as_ref().map(|_| true),
        delta_checked_moves: delta_outcome.as_ref().map(|o| o.checked),
        delta_moves: delta_outcome.as_ref().map(|o| o.moves),
        full_moves_per_s: delta_outcome.as_ref().map(|o| o.full_moves_per_s),
        delta_moves_per_s: delta_outcome.as_ref().map(|o| o.delta_moves_per_s),
        delta_speedup_vs_full: delta_outcome.as_ref().map(|o| o.speedup),
    };
    crate::report::emit(out_path, &report);
    let _ = std::fs::remove_dir_all(&scratch);
    if corrupted_sessions != 0 {
        die(&format!(
            "{corrupted_sessions} corrupted session(s) after the run — robustness bug"
        ));
    }
}
