//! The served phase: an in-process `irgrid-serve` daemon on a Unix
//! socket, driven by one annealer-like client in a closed loop — it sends
//! each request only after the previous reply arrived.
//!
//! Every move nudges one segment endpoint of the client's committed
//! state, sends `Propose`, then `Commit` or `Undo` (two commits and one
//! undo per block of three moves, at seeded positions), over binary
//! framing. A pass first commits the initial state again, then replays
//! the identical move stream, so every pass sends identical requests and
//! each request is timed in every pass. The traced run feeds the same
//! stream through an in-process twin `SessionManager` to split a request
//! into codec, handler and transport time.
//!
//! One client, not two: on the 2-vCPU host two concurrent clients flip
//! between scheduling regimes that move commit p50 by 2.3× and undo p50
//! by 18× from run to run, while a single client's latencies repeat.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use irgrid::anneal::RunControl;
use irgrid::congestion::{DeltaCongestion, DeltaCongestionSession, IrregularGridModel};
use irgrid::geom::{Point, Rect, Um};
use irgrid::serve::frame::{
    parse_request_payload, parse_response_payload, read_frame, request_frame, response_frame,
};
use irgrid::serve::{
    serve, Chaos, Client, DegradePolicy, FloorplanState, FrameCodec, KillSwitch, Limits, Request,
    RequestOp, Response, ResponsePayload, ServerHandle, ServerOptions, SessionConfig,
    SessionManager, SnapshotStore, Transport,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;

use crate::gates::{self, Gate, GateError};
use crate::inputs::{stream_seed, Input, Stream};
use crate::report::Record;
use crate::stats;
use crate::trace::Tracer;

/// The daemon's socket, relative to the run's scratch directory (a
/// relative path keeps it under the Unix socket path limit wherever the
/// checkout lives).
const SOCKET: &str = "serve.sock";

/// The session the client opens.
const SESSION: &str = "annealer";

/// The twin manager's state directory; its snapshot is the payload whose
/// writes are timed.
const TWIN_DIR: &str = "twin-state";

/// Snapshot writes timed per traced pass for `serve.store.write_us`.
const STORE_WRITES: usize = 8;

/// A served syn10k state is ≈ 1 MB in binary framing, over the daemon's
/// 1 MiB default; the frame bound is a deployment setting.
fn limits() -> Limits {
    Limits {
        max_frame_bytes: 8 << 20,
        ..Limits::default()
    }
}

/// The three move ops whose latency is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Propose,
    Commit,
    Undo,
}

impl Op {
    const ALL: [Op; 3] = [Op::Propose, Op::Commit, Op::Undo];

    fn name(self) -> &'static str {
        match self {
            Op::Propose => "propose",
            Op::Commit => "commit",
            Op::Undo => "undo",
        }
    }

    /// The traced request's outermost span.
    fn span(self) -> &'static str {
        match self {
            Op::Propose => "serve.propose",
            Op::Commit => "serve.commit",
            Op::Undo => "serve.undo",
        }
    }
}

fn state_of(input: &Input) -> Result<FloorplanState, GateError> {
    let chip = input.placement.chip();
    gates::holds(chip.ll() == Point::ORIGIN, || {
        format!("packed chip {chip} is not at the origin")
    })?;
    Ok(FloorplanState {
        chip: [chip.width().0, chip.height().0],
        segments: input
            .segments
            .iter()
            .map(|(a, b)| [a.x.0, a.y.0, b.x.0, b.y.0])
            .collect(),
    })
}

fn geometry(state: &FloorplanState) -> (Rect, Vec<(Point, Point)>) {
    let chip = Rect::from_origin_size(Point::ORIGIN, Um(state.chip[0]), Um(state.chip[1]));
    let segments = state
        .segments
        .iter()
        .map(|&[x1, y1, x2, y2]| (Point::new(Um(x1), Um(y1)), Point::new(Um(x2), Um(y2))))
        .collect();
    (chip, segments)
}

/// A fresh local delta-session rebase: the reference every checked
/// served score must equal bit for bit.
fn local_score(state: &FloorplanState, pitch: Um) -> f64 {
    let (chip, segments) = geometry(state);
    IrregularGridModel::new(pitch)
        .delta_session()
        .rebase(&chip, &segments)
}

/// The client's seeded move stream. Every script of one run proposes the
/// same moves; `tag` keeps the request ids of different passes apart, as
/// the daemon replays a commit whose id it has seen.
struct Script {
    rng: ChaCha8Rng,
    tag: String,
    pitch: i64,
    initial: FloorplanState,
    committed: FloorplanState,
    committed_score: f64,
    next_move: usize,
    /// Position of the undo within the current block of three moves.
    undo_at: usize,
}

impl Script {
    fn new(seed: u64, tag: impl Into<String>, pitch: Um, initial: &FloorplanState) -> Script {
        Script {
            rng: ChaCha8Rng::seed_from_u64(stream_seed(seed, Stream::Client)),
            tag: tag.into(),
            pitch: pitch.0,
            initial: initial.clone(),
            committed: initial.clone(),
            committed_score: 0.0,
            next_move: 0,
            undo_at: 0,
        }
    }

    fn id(&self, what: &str) -> String {
        format!("{}.{what}", self.tag)
    }

    /// The next move's index and proposal — the committed state with one
    /// segment endpoint nudged by up to four pitches — and whether it
    /// will be committed. Each block of three moves has one undo at a
    /// seeded position, so commit and undo counts are exact.
    fn next(&mut self) -> (usize, FloorplanState, bool) {
        let index = self.next_move;
        self.next_move += 1;
        if index % 3 == 0 {
            self.undo_at = self.rng.gen_range(0..3);
        }
        let mut proposed = self.committed.clone();
        let [width, height] = proposed.chip;
        let segment = self.rng.gen_range(0..proposed.segments.len());
        let end = 2 * self.rng.gen_range(0..2_usize);
        let segment = &mut proposed.segments[segment];
        segment[end] = (segment[end] + self.rng.gen_range(-4..=4_i64) * self.pitch).clamp(0, width);
        segment[end + 1] =
            (segment[end + 1] + self.rng.gen_range(-4..=4_i64) * self.pitch).clamp(0, height);
        (index, proposed, index % 3 != self.undo_at)
    }
}

fn request(id: String, op: RequestOp) -> Request {
    Request {
        id,
        session: SESSION.to_owned(),
        op,
    }
}

/// Where requests go: the socket client or the twin manager.
type Call<'a> = dyn FnMut(&Request) -> Result<Response, GateError> + 'a;

/// Where a pass's move requests go, with their op and their position in
/// the pass: `send(op, index, request)`.
type Send<'a> = dyn FnMut(Op, u64, &Request) -> Result<Response, GateError> + 'a;

/// Proposals whose served score is re-checked against [`local_score`]:
/// the first 16 and every 100th.
fn checked(move_index: usize) -> bool {
    move_index < 16 || move_index % 100 == 0
}

fn expect(response: &Response, ok: impl FnOnce(&ResponsePayload) -> bool) -> Result<(), GateError> {
    gates::holds(response.ok && ok(&response.payload), || {
        format!("request {} answered {:?}", response.id, response.payload)
    })
}

/// Opens the delta session.
fn open(config: SessionConfig, call: &mut Call<'_>) -> Result<(), GateError> {
    let opened = call(&request("open".into(), RequestOp::OpenDelta { config }))?;
    expect(&opened, |p| matches!(p, ResponsePayload::Opened { .. }))
}

/// Commits the script's initial state, where every pass starts.
fn rewind(script: &mut Script, call: &mut Call<'_>) -> Result<(), GateError> {
    let proposed = call(&request(
        script.id("seed"),
        RequestOp::Propose {
            state: script.initial.clone(),
        },
    ))?;
    let ResponsePayload::Proposed { digest, score } = proposed.payload else {
        return Err(GateError(format!(
            "seed propose answered {:?}",
            proposed.payload
        )));
    };
    let committed = call(&request(
        script.id("seed-commit"),
        RequestOp::Commit { digest },
    ))?;
    let ResponsePayload::Committed { score: acked, .. } = committed.payload else {
        return Err(GateError(format!(
            "seed commit answered {:?}",
            committed.payload
        )));
    };
    gates::same_bits("seed commit vs its propose", acked, score)?;
    script.committed = script.initial.clone();
    script.committed_score = score;
    Ok(())
}

/// Plays `moves` moves of `script` through `send`. Every op must
/// succeed, every `Commit` must ack its `Propose`'s score and every
/// `Undo` the committed one; checked proposals are collected into
/// `checks` for the local-rebase gate.
fn play(
    script: &mut Script,
    moves: usize,
    send: &mut Send<'_>,
    mut checks: Option<&mut Vec<(FloorplanState, f64)>>,
) -> Result<(), GateError> {
    for _ in 0..moves {
        let (i, proposed, commit) = script.next();
        let index = 2 * i as u64;
        let propose = request(
            script.id(&format!("p{i}")),
            RequestOp::Propose { state: proposed },
        );
        let response = send(Op::Propose, index, &propose)?;
        let RequestOp::Propose { state: proposed } = propose.op else {
            unreachable!("built as a propose");
        };
        let ResponsePayload::Proposed { digest, score } = response.payload else {
            return Err(GateError(format!(
                "propose {i} answered {:?}",
                response.payload
            )));
        };
        if let Some(checks) = checks.as_deref_mut().filter(|_| checked(i)) {
            checks.push((proposed.clone(), score));
        }
        if commit {
            let commit = request(script.id(&format!("c{i}")), RequestOp::Commit { digest });
            let response = send(Op::Commit, index + 1, &commit)?;
            let ResponsePayload::Committed { score: acked, .. } = response.payload else {
                return Err(GateError(format!(
                    "commit {i} answered {:?}",
                    response.payload
                )));
            };
            gates::same_bits("commit ack vs its propose", acked, score)?;
            script.committed = proposed;
            script.committed_score = score;
        } else {
            let undo = request(script.id(&format!("u{i}")), RequestOp::Undo);
            let response = send(Op::Undo, index + 1, &undo)?;
            let ResponsePayload::Undone { score: acked } = response.payload else {
                return Err(GateError(format!(
                    "undo {i} answered {:?}",
                    response.payload
                )));
            };
            gates::same_bits(
                "undo ack vs the committed score",
                acked,
                script.committed_score,
            )?;
        }
    }
    Ok(())
}

fn call(client: &mut Client, request: &Request) -> Result<Response, GateError> {
    let response = client
        .call_once(request)
        .map_err(|err| GateError(format!("request {}: {err}", request.id)))?;
    expect(&response, |_| true)?;
    Ok(response)
}

fn config(input: &Input) -> SessionConfig {
    SessionConfig {
        pitch_um: input.pitch.0,
        budget: 0,
        cache_capacity: 64,
    }
}

/// A running daemon and its connected client.
struct Daemon {
    handle: ServerHandle,
    client: Client,
}

impl Daemon {
    /// Starts a daemon on `socket` with a fresh state directory, opens
    /// the client's session and commits the initial state.
    fn start(
        socket: &str,
        state_dir: &Path,
        input: &Input,
        initial: &FloorplanState,
        seed: u64,
    ) -> Result<Daemon, GateError> {
        let store = SnapshotStore::open(state_dir, Chaos::off(), KillSwitch::new())
            .map_err(|err| GateError(format!("state dir {}: {err}", state_dir.display())))?;
        let manager = Arc::new(SessionManager::new(
            store,
            limits(),
            DegradePolicy::default(),
            1,
        ));
        let handle = serve(
            Transport::Unix(PathBuf::from(socket)),
            manager,
            ServerOptions::default(),
        )
        .map_err(|err| GateError(format!("cannot serve on {socket}: {err}")))?;
        let mut daemon = Daemon {
            handle,
            client: Client::with_codec(Transport::Unix(PathBuf::from(socket)), FrameCodec::Binary),
        };
        let client = &mut daemon.client;
        let mut script = Script::new(seed, "setup", input.pitch, initial);
        let opened = open(config(input), &mut |r| call(client, r))
            .and_then(|()| rewind(&mut script, &mut |r| call(client, r)));
        if let Err(err) = opened {
            daemon.stop();
            return Err(err);
        }
        Ok(daemon)
    }

    /// Disconnects the client, shuts the daemon down and waits for its
    /// threads.
    fn stop(self) {
        drop(self.client);
        self.handle.manager().request_shutdown();
        self.handle.join();
    }
}

/// Latencies by op, in milliseconds, in request order.
type Latencies = [Vec<f64>; 3];

/// The served phase of one run: a live daemon and the latencies of its
/// timed passes.
pub struct Served<'a> {
    input: &'a Input,
    seed: u64,
    initial: FloorplanState,
    daemon: Daemon,
    moves: usize,
    /// Passes played, the warm-up included.
    played: usize,
    passes: Vec<Latencies>,
    checks: Vec<(FloorplanState, f64)>,
}

impl<'a> Served<'a> {
    /// Starts the daemon and commits the initial state (timed: the
    /// set-up), then plays one untimed warm-up pass of `moves` moves,
    /// whose checked proposals the local-rebase gate re-scores.
    ///
    /// # Errors
    ///
    /// A failed op or a wrong ack, as in [`Served::pass`].
    pub fn start(
        input: &'a Input,
        moves: usize,
        seed: u64,
        record: &mut Record,
    ) -> Result<(Served<'a>, f64), GateError> {
        let initial = state_of(input)?;
        let clock = Instant::now();
        let daemon = Daemon::start(SOCKET, Path::new("state"), input, &initial, seed)?;
        let setup_s = clock.elapsed().as_secs_f64();
        record.ops.ok(3);
        let mut served = Served {
            input,
            seed,
            initial,
            daemon,
            moves,
            played: 0,
            passes: Vec::new(),
            checks: Vec::new(),
        };
        served.replay(true, record)?;
        Ok((served, setup_s))
    }

    /// Times one more set-up — a second daemon on its own socket and
    /// state directory — and stops it.
    ///
    /// # Errors
    ///
    /// A failed op while opening the session.
    pub fn time_setup(&self, attempt: usize, record: &mut Record) -> Result<f64, GateError> {
        let clock = Instant::now();
        let daemon = Daemon::start(
            "setup.sock",
            Path::new(&format!("setup-state-{attempt}")),
            self.input,
            &self.initial,
            self.seed,
        )?;
        let seconds = clock.elapsed().as_secs_f64();
        daemon.stop();
        record.ops.ok(3);
        Ok(seconds)
    }

    /// Rewinds the session and plays one pass; returns its latencies.
    /// With `check`, the pass's checked proposals join the local-rebase
    /// gate's list.
    fn replay(&mut self, check: bool, record: &mut Record) -> Result<Latencies, GateError> {
        let tag = format!("{}", self.played);
        self.played += 1;
        let mut script = Script::new(self.seed, tag, self.input.pitch, &self.initial);
        let client = &mut self.daemon.client;
        rewind(&mut script, &mut |r| call(client, r))?;
        let mut latencies_ms = Latencies::default();
        let mut checks = Vec::new();
        play(
            &mut script,
            self.moves,
            &mut |op, _, r| {
                let clock = Instant::now();
                let response = call(client, r)?;
                latencies_ms[op as usize].push(clock.elapsed().as_secs_f64() * 1e3);
                Ok(response)
            },
            check.then_some(&mut checks),
        )?;
        self.checks.extend(checks);
        record.ops.ok(2 + 2 * self.moves);
        Ok(latencies_ms)
    }

    /// A timed pass.
    ///
    /// # Errors
    ///
    /// A failed op, or a `Commit` or `Undo` that acks the wrong score.
    pub fn pass(&mut self, record: &mut Record) -> Result<(), GateError> {
        let latencies = self.replay(false, record)?;
        self.passes.push(latencies);
        Ok(())
    }

    /// Stops the daemon, checks the warm-up pass's proposals against
    /// fresh local rebases, and records the served metrics from each
    /// request's fastest pass: throughput over the summed round trips,
    /// and per-op p50 and tail.
    ///
    /// # Errors
    ///
    /// A checked proposal that differs from a fresh local rebase, or too
    /// few samples for a reported percentile.
    pub fn finish(self, record: &mut Record) -> Result<ServedSummary, GateError> {
        self.daemon.stop();
        for (state, score) in &self.checks {
            gates::same_bits(
                "served propose vs a fresh local rebase",
                *score,
                local_score(state, self.input.pitch),
            )?;
        }
        let fastest_ms = Op::ALL.map(|op| {
            let passes: Vec<Vec<f64>> = self
                .passes
                .iter()
                .map(|pass| pass[op as usize].clone())
                .collect();
            stats::fastest(&passes)
        });
        let wait_s = fastest_ms.iter().flatten().sum::<f64>() / 1e3;
        record
            .e2e
            .put("served_moves_per_s", self.moves as f64 / wait_s, "1/s");
        for op in Op::ALL {
            let samples = &fastest_ms[op as usize];
            let tail = stats::tail_percentile(samples.len())
                .map_err(|why| GateError(format!("{} latency: {why}", op.name())))?;
            // An undo round trip is ≈ 15 µs of wake-ups and framing, and
            // moves with the host's scheduling from run to run by more
            // than the end-to-end bound; it is reported as a layer metric.
            let metrics = if op == Op::Undo {
                &mut record.layers
            } else {
                &mut record.e2e
            };
            metrics.put(
                format!("{}_p50_ms", op.name()),
                stats::percentile(samples, 50.0).0,
                "ms",
            );
            metrics.put(
                format!("{}_tail_ms", op.name()),
                stats::percentile(samples, tail).0,
                "ms",
            );
            record.info(format!("{}_tail_percentile", op.name()), Value::Float(tail));
            record.info(
                format!("{}_samples", op.name()),
                Value::UInt(samples.len() as u64),
            );
        }
        Ok(ServedSummary {
            round_trip_us: fastest_ms.map(|samples| stats::mean(&samples) * 1e3),
        })
    }
}

/// What the traced run needs from the untraced served phase.
pub struct ServedSummary {
    /// Mean client round trip per op over each request's fastest pass,
    /// microseconds.
    round_trip_us: [f64; 3],
}

/// Encodes a request in `codec` and decodes it as the daemon does.
fn request_codec(codec: FrameCodec, request: &Request) -> Result<Request, GateError> {
    let frame = request_frame(codec, request);
    let payload = read_frame(
        &mut frame.as_slice(),
        codec,
        limits().max_frame_bytes,
        &mut || true,
    )
    .map_err(|err| GateError(format!("request frame: {err:?}")))?;
    parse_request_payload(&payload).map_err(GateError)
}

/// Encodes a response in `codec` and decodes it as the client does.
fn response_codec(codec: FrameCodec, response: &Response) -> Result<Response, GateError> {
    let frame = response_frame(codec, response);
    let payload = read_frame(
        &mut frame.as_slice(),
        codec,
        limits().max_frame_bytes,
        &mut || true,
    )
    .map_err(|err| GateError(format!("response frame: {err:?}")))?;
    parse_response_payload(&payload).map_err(GateError)
}

/// A frame must decode to what was encoded.
fn round_trips<T: PartialEq>(codec: FrameCodec, id: &str, decoded: &T, sent: &T) -> Gate {
    gates::holds(decoded == sent, || {
        format!("{codec:?} frame of {id} did not round-trip")
    })
}

/// One request through the twin in the daemon's order — request codec,
/// handler, response codec — each in its own span, under the op's span.
/// A propose's JSONL round trip follows in a span of its own. The
/// round-trip gates run outside the codec spans; a failed one ends the
/// run, open spans and all.
fn twin_request(
    manager: &SessionManager,
    op: Op,
    index: u64,
    request: &Request,
    tracer: &mut Tracer,
) -> Result<Response, GateError> {
    let binary = FrameCodec::Binary;
    let root = tracer.begin(op.span(), index);
    let decoded = tracer.span("serve.codec.binary", index, || {
        request_codec(binary, request)
    })?;
    round_trips(binary, &request.id, &decoded, request)?;
    let response = tracer.span("serve.handle", index, || {
        manager.handle(&decoded, &RunControl::unlimited())
    });
    let delivered = tracer.span("serve.codec.binary", index, || {
        response_codec(binary, &response)
    })?;
    round_trips(binary, &request.id, &delivered, &response)?;
    tracer.end(root);
    if op == Op::Propose {
        let jsonl = FrameCodec::Jsonl;
        let (decoded, answered) = tracer.span("serve.codec.propose.jsonl", index, || {
            Ok::<_, GateError>((
                request_codec(jsonl, request)?,
                response_codec(jsonl, &delivered)?,
            ))
        })?;
        round_trips(jsonl, &request.id, &decoded, request)?;
        round_trips(jsonl, &request.id, &answered, &delivered)?;
    }
    expect(&delivered, |_| true)?;
    Ok(delivered)
}

/// The traced side of the served phase: the twin manager and the store
/// its snapshot writes are timed on.
pub struct ServeTrace {
    manager: SessionManager,
    writer: SnapshotStore,
    snapshot_bytes: usize,
    passes: usize,
}

impl ServeTrace {
    /// Opens the twin's session.
    ///
    /// # Errors
    ///
    /// A state directory that cannot be opened, or a refused open.
    pub fn open(input: &Input, record: &mut Record) -> Result<ServeTrace, GateError> {
        let store = SnapshotStore::open(Path::new(TWIN_DIR), Chaos::off(), KillSwitch::new())
            .map_err(|err| GateError(format!("twin state dir: {err}")))?;
        let writer = SnapshotStore::open(Path::new("write-state"), Chaos::off(), KillSwitch::new())
            .map_err(|err| GateError(format!("write-bench state dir: {err}")))?;
        let manager = SessionManager::new(store, limits(), DegradePolicy::default(), 1);
        open(config(input), &mut |r| twin_call(&manager, r))?;
        record.ops.ok(1);
        Ok(ServeTrace {
            manager,
            writer,
            snapshot_bytes: 0,
            passes: 0,
        })
    }

    /// One traced pass: the untraced phase's request stream through the
    /// twin, snapshot writes of the twin's snapshot, and the core delta
    /// propose on the same states.
    ///
    /// # Errors
    ///
    /// As [`Served::pass`], plus a frame that does not round-trip.
    pub fn pass(
        &mut self,
        input: &Input,
        seed: u64,
        moves: usize,
        tracer: &mut Tracer,
        record: &mut Record,
    ) -> Result<(), GateError> {
        let manager = &self.manager;
        let initial = state_of(input)?;
        let mut script = Script::new(seed, format!("{}", self.passes), input.pitch, &initial);
        self.passes += 1;
        rewind(&mut script, &mut |r| twin_call(manager, r))?;
        play(
            &mut script,
            moves,
            &mut |op, index, request| twin_request(manager, op, index, request, tracer),
            None,
        )?;
        record.ops.ok(2 + 2 * moves);

        let snapshot = SnapshotStore::open(Path::new(TWIN_DIR), Chaos::off(), KillSwitch::new())
            .and_then(|store| store.read(SESSION))
            .map_err(|err| GateError(format!("twin snapshot: {err}")))?
            .ok_or_else(|| GateError("the twin session left no snapshot".into()))?;
        self.snapshot_bytes = snapshot.len();
        for write in 0..STORE_WRITES as u64 {
            let seq = self.passes as u64 * STORE_WRITES as u64 + write;
            tracer
                .span("serve.store.write", write, || {
                    self.writer.write("w", &snapshot, seq)
                })
                .map_err(|err| GateError(format!("snapshot write: {err}")))?;
        }
        record.ops.ok(STORE_WRITES);

        // The core's share: the same proposals through a local delta
        // session.
        let mut script = Script::new(seed, "core", input.pitch, &initial);
        let (chip, segments) = geometry(&initial);
        let mut session = IrregularGridModel::new(input.pitch).delta_session();
        session.rebase(&chip, &segments);
        for _ in 0..moves {
            let (i, proposed, commit) = script.next();
            let (chip, segments) = geometry(&proposed);
            tracer.span("core.served_propose", i as u64, || {
                session.propose(&chip, &segments)
            });
            if commit {
                session.commit();
                script.committed = proposed;
            } else {
                session.undo();
            }
        }
        record.ops.ok(moves);
        Ok(())
    }

    /// Records the serve layer metrics from the traced passes.
    pub fn record(&self, served: &ServedSummary, tracer: &Tracer, record: &mut Record) {
        for op in Op::ALL {
            let split = tracer.fastest(op.span());
            // Two codec spans per request: the request's and the response's.
            let handle_us = split.per_item_us("serve.handle");
            let codec_us = split.per_item_us("serve.codec.binary");
            record
                .layers
                .put(format!("serve.handle_us.{}", op.name()), handle_us, "us");
            record.layers.put(
                format!("serve.codec_us.{}.binary", op.name()),
                codec_us,
                "us",
            );
            record.layers.put(
                format!("serve.transport_us.{}", op.name()),
                served.round_trip_us[op as usize] - handle_us - codec_us,
                "us",
            );
        }
        record.layers.put(
            "serve.codec_us.propose.jsonl",
            tracer
                .fastest("serve.codec.propose.jsonl")
                .total_per_item_us(),
            "us",
        );
        record.layers.put(
            "serve.store.write_us",
            tracer.fastest("serve.store.write").total_per_item_us(),
            "us",
        );
        record
            .layers
            .put("serve.snapshot_bytes", self.snapshot_bytes as f64, "bytes");
        record.layers.put(
            "core.served_propose_us",
            tracer.fastest("core.served_propose").total_per_item_us(),
            "us",
        );
    }
}

fn twin_call(manager: &SessionManager, request: &Request) -> Result<Response, GateError> {
    let response = manager.handle(request, &RunControl::unlimited());
    expect(&response, |_| true)?;
    Ok(response)
}
