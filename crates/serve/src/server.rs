//! The socket front end: accept loop, codec negotiation, and connection
//! threads.
//!
//! This module is the daemon's *only* wall-clock boundary. Socket read
//! timeouts and per-request deadlines are chosen here and handed to the
//! [`SessionManager`] as an opaque [`RunControl`]; everything below this
//! layer is clock-free and therefore deterministic.
//!
//! Frames are read through the shared bounded reader in
//! [`frame`](crate::frame) — the same code path the client uses — so the
//! frame limit is enforced before buffering on both ends. Each
//! connection starts in JSONL framing and may switch to length-prefixed
//! binary frames by sending [`BINARY_MAGIC`](crate::frame::BINARY_MAGIC)
//! as its first bytes; the choice is per-connection and permanent.
//!
//! Connections are one thread each, bounded by
//! [`Limits::max_clients`](crate::protocol::Limits): the accept loop
//! counts live connections and answers excess connects with a single
//! `Backpressure` frame before closing — explicit refusal, never an
//! unbounded accept queue. Each pass of the accept loop joins the
//! connection threads that have finished, so a long-lived daemon holds
//! the stacks of its live connections only.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration; // irgrid-lint: allow(D1): transport layer owns all socket timeouts

use irgrid_anneal::RunControl;

use crate::frame::{
    is_blank, negotiate, parse_request_payload, read_frame, recover_payload_id, response_frame,
    FrameCodec, FrameReadError,
};
use crate::manager::SessionManager;
use crate::protocol::{ErrorKind, Response};

/// How long a connection thread blocks on a read before re-checking the
/// shutdown flag.
const POLL_READ: Duration = Duration::from_millis(50);

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// A Unix-domain socket at this path (the default).
    Unix(PathBuf),
    /// A TCP socket (fallback for hosts without Unix sockets), e.g.
    /// `127.0.0.1:9917`.
    Tcp(String),
}

/// Server tuning that lives above the manager: per-request deadline.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Wall-clock budget per request; `None` means no deadline.
    pub request_timeout: Option<Duration>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            request_timeout: Some(Duration::from_secs(30)),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(Some(timeout)),
            Stream::Tcp(s) => s.set_read_timeout(Some(timeout)),
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A running daemon; dropping the handle does **not** stop it — call
/// [`ServerHandle::join`] after a `Shutdown` request (or
/// [`SessionManager::request_shutdown`]).
pub struct ServerHandle {
    manager: Arc<SessionManager>,
    accept_thread: Option<thread::JoinHandle<()>>,
    transport: Transport,
}

impl ServerHandle {
    /// The shared manager (tests use it to trip shutdown directly).
    #[must_use]
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Where the daemon is listening.
    #[must_use]
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// Waits for the accept loop (and so all connection threads it
    /// spawned and joined) to finish. Call after requesting shutdown.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Transport::Unix(path) = &self.transport {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Binds the transport and spawns the accept loop.
///
/// # Errors
///
/// Returns the bind error (address in use, bad path, ...).
pub fn serve(
    transport: Transport,
    manager: Arc<SessionManager>,
    options: ServerOptions,
) -> std::io::Result<ServerHandle> {
    let listener = match &transport {
        Transport::Unix(path) => {
            remove_stale_socket(path)?;
            Listener::Unix(UnixListener::bind(path)?)
        }
        Transport::Tcp(address) => Listener::Tcp(TcpListener::bind(address.as_str())?),
    };
    // Non-blocking accept so the loop can poll the shutdown flag.
    match &listener {
        Listener::Unix(l) => l.set_nonblocking(true)?,
        Listener::Tcp(l) => l.set_nonblocking(true)?,
    }
    let bound = match (&transport, &listener) {
        (Transport::Tcp(_), Listener::Tcp(l)) => Transport::Tcp(l.local_addr()?.to_string()),
        _ => transport.clone(),
    };

    let accept_manager = Arc::clone(&manager);
    let accept_thread = thread::Builder::new()
        .name("irgrid-serve-accept".to_owned())
        .spawn(move || accept_loop(&listener, &accept_manager, options))?;

    Ok(ServerHandle {
        manager,
        accept_thread: Some(accept_thread),
        transport: bound,
    })
}

/// Unlinks a leftover socket file only if nothing is listening on it.
fn remove_stale_socket(path: &Path) -> std::io::Result<()> {
    if !path.exists() {
        return Ok(());
    }
    if UnixStream::connect(path).is_ok() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            format!("`{}` already has a live daemon", path.display()),
        ));
    }
    std::fs::remove_file(path)
}

fn accept_loop(listener: &Listener, manager: &Arc<SessionManager>, options: ServerOptions) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut connection_threads = Vec::new();
    loop {
        reap_finished(&mut connection_threads);
        if manager.shutting_down() {
            break;
        }
        let accepted = match listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        let stream = match accepted {
            Ok(stream) => stream,
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_READ);
                continue;
            }
            Err(_) => continue,
        };

        if live.load(Ordering::Acquire) >= manager.limits().max_clients {
            refuse(stream);
            continue;
        }

        live.fetch_add(1, Ordering::AcqRel);
        let thread_live = Arc::clone(&live);
        let manager = Arc::clone(manager);
        let spawned = thread::Builder::new()
            .name("irgrid-serve-conn".to_owned())
            .spawn(move || {
                connection_loop(stream, &manager, options);
                thread_live.fetch_sub(1, Ordering::AcqRel);
            });
        match spawned {
            Ok(handle) => connection_threads.push(handle),
            Err(_) => {
                live.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
    for handle in connection_threads {
        let _ = handle.join();
    }
}

/// Joins and drops the handles of finished threads and keeps the running
/// ones. A finished thread that is never joined keeps its stack mapped.
fn reap_finished(threads: &mut Vec<thread::JoinHandle<()>>) {
    let mut index = 0;
    while index < threads.len() {
        if threads[index].is_finished() {
            let _ = threads.swap_remove(index).join();
        } else {
            index += 1;
        }
    }
}

/// Answers an over-limit connect with one Backpressure frame and closes.
/// Refusal happens before codec negotiation, so it is always JSONL — a
/// binary client sees a short unparseable read and treats it as a
/// transport failure, which its retry loop already handles.
fn refuse(mut stream: Stream) {
    let response = Response::error(
        "",
        ErrorKind::Backpressure,
        "client limit reached; retry later",
        true,
    );
    let _ = stream.write_all(&response_frame(FrameCodec::Jsonl, &response));
}

fn connection_loop(stream: Stream, manager: &Arc<SessionManager>, options: ServerOptions) {
    if stream.set_read_timeout(POLL_READ).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let max_frame = manager.limits().max_frame_bytes;
    let mut keep_waiting = || !manager.shutting_down();

    // A connection's very first bytes pick its framing; a client may
    // legitimately connect and idle, so the wait polls shutdown like
    // every other read.
    let codec = match negotiate(&mut reader, &mut keep_waiting) {
        Ok(codec) => codec,
        Err(_) => return,
    };

    // Once shutdown is flagged the connection closes after answering the
    // frame it holds (`Bye`, a retryable `ShuttingDown`, or whatever the
    // frame got): a client that sends back to back never lets a read
    // idle long enough for the poll above to see the flag, and would
    // otherwise keep `ServerHandle::join` waiting. Clients reconnect.
    while !manager.shutting_down() {
        let response = match read_frame(&mut reader, codec, max_frame, &mut keep_waiting) {
            Ok(payload) if is_blank(&payload) => continue,
            Ok(payload) => match parse_request_payload(&payload) {
                Ok(request) => {
                    let control = match options.request_timeout {
                        Some(limit) => RunControl::unlimited().with_time_limit(limit),
                        None => RunControl::unlimited(),
                    };
                    manager.handle(&request, &control)
                }
                Err(why) => Response::error(
                    &recover_payload_id(&payload),
                    ErrorKind::MalformedFrame,
                    format!("unparseable request frame: {why}"),
                    false,
                ),
            },
            // The reader is past the line: report and keep the connection.
            Err(FrameReadError::InvalidUtf8) => Response::error(
                "",
                ErrorKind::MalformedFrame,
                "unparseable request frame: invalid utf-8",
                false,
            ),
            // The reader already resynced past the oversized frame;
            // report and keep the connection.
            Err(FrameReadError::TooLarge) => Response::error(
                "",
                ErrorKind::FrameTooLarge,
                format!("frame exceeds {max_frame} bytes"),
                false,
            ),
            Err(_) => return,
        };
        if writer.write_all(&response_frame(codec, &response)).is_err() {
            return;
        }
        let _ = writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Chaos;
    use crate::frame::{message_frame, parse_response_payload, request_frame, BINARY_MAGIC};
    use crate::manager::DegradePolicy;
    use crate::protocol::{Limits, Request, RequestOp, ResponsePayload};
    use crate::store::{KillSwitch, SnapshotStore};
    use std::io::BufRead;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    fn temp_server(tag: &str, limits: Limits) -> ServerHandle {
        let dir = std::env::temp_dir().join(format!("irgrid_serve_srv_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("store");
        let manager = Arc::new(SessionManager::new(
            store,
            limits,
            DegradePolicy::default(),
            1,
        ));
        serve(
            Transport::Tcp("127.0.0.1:0".to_owned()),
            manager,
            ServerOptions::default(),
        )
        .expect("serve")
    }

    fn connect(handle: &ServerHandle) -> TcpStream {
        let Transport::Tcp(address) = handle.transport() else {
            panic!("tcp expected");
        };
        TcpStream::connect(address.as_str()).expect("connect")
    }

    fn roundtrip(stream: &mut TcpStream, frame: &str) -> Response {
        stream.write_all(frame.as_bytes()).expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        serde_json::from_str(line.trim_end()).expect("parse response")
    }

    fn simple(id: &str, op: RequestOp) -> Request {
        Request {
            id: id.into(),
            session: String::new(),
            op,
        }
    }

    fn binary_roundtrip(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        request: &Request,
    ) -> Response {
        stream
            .write_all(&request_frame(FrameCodec::Binary, request))
            .expect("send");
        let payload = read_frame(reader, FrameCodec::Binary, 1 << 20, &mut || true)
            .unwrap_or_else(|err| panic!("binary reply: {err:?}"));
        parse_response_payload(&payload).expect("parse response")
    }

    #[test]
    fn ping_shutdown_over_tcp() {
        let handle = temp_server("ping", Limits::default());
        let mut stream = connect(&handle);
        let pong = roundtrip(
            &mut stream,
            "{\"id\":\"p1\",\"session\":\"\",\"op\":\"Ping\"}\n",
        );
        assert!(pong.ok, "{pong:?}");
        let bye = roundtrip(
            &mut stream,
            "{\"id\":\"p2\",\"session\":\"\",\"op\":\"Shutdown\"}\n",
        );
        assert!(bye.ok);
        handle.join();
    }

    #[test]
    fn malformed_and_oversized_frames_get_typed_errors_not_disconnects() {
        let handle = temp_server(
            "badframes",
            Limits {
                max_frame_bytes: 256,
                ..Limits::default()
            },
        );
        let mut stream = connect(&handle);

        let bad = roundtrip(&mut stream, "{\"id\":\"b1\",\"nope\":true}\n");
        assert!(!bad.ok);
        assert_eq!(bad.id, "b1", "id recovered from the broken frame");
        assert!(matches!(
            bad.payload,
            ResponsePayload::Error {
                kind: ErrorKind::MalformedFrame,
                ..
            }
        ));

        let huge = format!("{{\"id\":\"b2\",\"pad\":\"{}\"}}\n", "x".repeat(512));
        let too_large = roundtrip(&mut stream, &huge);
        assert!(matches!(
            too_large.payload,
            ResponsePayload::Error {
                kind: ErrorKind::FrameTooLarge,
                ..
            }
        ));

        // The connection survived both: a normal request still works.
        let pong = roundtrip(
            &mut stream,
            "{\"id\":\"b3\",\"session\":\"\",\"op\":\"Ping\"}\n",
        );
        assert!(pong.ok);

        roundtrip(
            &mut stream,
            "{\"id\":\"b4\",\"session\":\"\",\"op\":\"Shutdown\"}\n",
        );
        handle.join();
    }

    /// Sends one raw JSONL frame and reads the reply line.
    fn raw_roundtrip(stream: &mut TcpStream, frame: &[u8]) -> Response {
        stream.write_all(frame).expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        serde_json::from_str(line.trim_end()).expect("parse response")
    }

    #[test]
    fn deep_and_invalid_utf8_jsonl_frames_are_malformed_and_the_connection_keeps_serving() {
        let handle = temp_server("deep_utf8", Limits::default());
        let mut stream = connect(&handle);
        let ping = b"{\"id\":\"ok\",\"session\":\"\",\"op\":\"Ping\"}\n";
        let mut deep = vec![b'['; 10_000];
        deep.push(b'\n');
        // The same nesting under a field no request reads: skipping it is
        // bounded too.
        let mut deep_unknown = b"{\"id\":\"u\",\"session\":\"\",\"op\":\"Ping\",\"x\":".to_vec();
        deep_unknown.extend_from_slice(&deep);
        let invalid = b"{\"id\":\"\xFF\",\"session\":\"\",\"op\":\"Ping\"}\n";
        // A wrong-typed value of 589 KB: its refusal quotes only its
        // head, so the reply fits the 1 MiB frames a default client reads.
        let ids: Vec<String> = (0..100_000).map(|k: u32| k.to_string()).collect();
        let long = format!(
            "{{\"id\":[{}],\"session\":\"\",\"op\":\"Ping\"}}\n",
            ids.join(",")
        );
        assert_eq!(long.len(), 588_924);
        for bad in [&deep[..], &deep_unknown[..], &invalid[..], long.as_bytes()] {
            stream.write_all(bad).expect("send");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let reply = read_frame(
                &mut reader,
                FrameCodec::Jsonl,
                Limits::default().max_frame_bytes,
                &mut || true,
            )
            .expect("a reply a default client reads");
            let refused = parse_response_payload(&reply).expect("parse response");
            assert!(
                matches!(
                    refused.payload,
                    ResponsePayload::Error {
                        kind: ErrorKind::MalformedFrame,
                        retryable: false,
                        ..
                    }
                ),
                "{refused:?}"
            );
            let pong = raw_roundtrip(&mut stream, ping);
            assert!(matches!(pong.payload, ResponsePayload::Pong), "{pong:?}");
        }
        handle.manager().request_shutdown();
        handle.join();
    }

    #[test]
    fn a_removed_evaluate_frame_is_malformed_in_both_codecs_and_the_connection_keeps_serving() {
        // The batch scoring op, as a client of an older daemon frames it.
        let evaluate: serde::Value = serde_json::from_str(
            r#"{"id":"e1","session":"alice","op":{"Evaluate":{"states":[{"chip":[600,400],"segments":[[0,0,10,20]]}]}}}"#,
        )
        .expect("json");
        let handle = temp_server("evaluate", Limits::default());
        for codec in [FrameCodec::Jsonl, FrameCodec::Binary] {
            let mut stream = connect(&handle);
            if codec == FrameCodec::Binary {
                stream.write_all(&BINARY_MAGIC).expect("magic");
            }
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut call = |frame: Vec<u8>| {
                stream.write_all(&frame).expect("send");
                let payload = read_frame(&mut reader, codec, 1 << 20, &mut || true)
                    .unwrap_or_else(|err| panic!("{codec:?} reply: {err:?}"));
                parse_response_payload(&payload).expect("parse response")
            };
            let refused = call(message_frame(codec, &evaluate));
            assert_eq!(refused.id, "e1", "{codec:?}");
            assert!(
                matches!(
                    refused.payload,
                    ResponsePayload::Error {
                        kind: ErrorKind::MalformedFrame,
                        retryable: false,
                        ..
                    }
                ),
                "{codec:?}: {refused:?}"
            );
            let pong = call(request_frame(codec, &simple("e2", RequestOp::Ping)));
            assert!(matches!(pong.payload, ResponsePayload::Pong), "{codec:?}");
        }
        handle.manager().request_shutdown();
        handle.join();
    }

    #[test]
    fn the_daemon_reads_request_fields_as_before_in_both_codecs() {
        let tree = |text: String| -> serde::Value { serde_json::from_str(&text).expect("json") };
        let handle = temp_server("field_semantics", Limits::default());
        for codec in [FrameCodec::Jsonl, FrameCodec::Binary] {
            let session = format!("fields-{codec:?}");
            let mut stream = connect(&handle);
            if codec == FrameCodec::Binary {
                stream.write_all(&BINARY_MAGIC).expect("magic");
            }
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut call = |text: String| {
                stream
                    .write_all(&message_frame(codec, &tree(text)))
                    .expect("send");
                let payload = read_frame(&mut reader, codec, 1 << 20, &mut || true)
                    .unwrap_or_else(|err| panic!("{codec:?} reply: {err:?}"));
                parse_response_payload(&payload).expect("parse response")
            };
            let opened = call(format!(
                r#"{{"id":"o","session":"{session}","op":{{"OpenDelta":{{"config":{{"pitch_um":30,"budget":0,"cache_capacity":8}}}}}}}}"#
            ));
            assert!(opened.ok, "{codec:?}: {opened:?}");
            let plain = call(format!(
                r#"{{"id":"p1","session":"{session}","op":{{"Propose":{{"state":{{"chip":[700,600],"segments":[[20,15,680,585]]}}}}}}}}"#
            ));
            // Fields in another order, unknown fields holding containers,
            // and a second `chip` that loses to the first.
            let varied = call(format!(
                r#"{{"op":{{"Propose":{{"state":{{"extra":{{"deep":[[1],{{"x":null}}]}},"chip":[700,600],"segments":[[20,15,680,585]],"chip":[1,1]}}}}}},"note":[1,[2,[3]]],"session":"{session}","id":"p2"}}"#
            ));
            match (&plain.payload, &varied.payload) {
                (
                    ResponsePayload::Proposed { digest, score },
                    ResponsePayload::Proposed {
                        digest: varied_digest,
                        score: varied_score,
                    },
                ) => {
                    assert_eq!(digest, varied_digest, "{codec:?}");
                    assert_eq!(score.to_bits(), varied_score.to_bits(), "{codec:?}");
                }
                other => panic!("{codec:?}: {other:?}"),
            }
            // A missing field is refused by name.
            let refused = call(r#"{"op":"Ping"}"#.to_owned());
            match &refused.payload {
                ResponsePayload::Error {
                    kind: ErrorKind::MalformedFrame,
                    message,
                    ..
                } => assert!(
                    message.contains("missing field `id` for Request"),
                    "{codec:?}: {message}"
                ),
                other => panic!("{codec:?}: {other:?}"),
            }
            // Unit variants are strings and payload variants single-entry
            // maps; the other way round is refused.
            for op in [
                r#"{"Ping":null}"#,
                r#""Propose""#,
                r#"{"Commit":{"digest":"d"},"Undo":null}"#,
            ] {
                let refused = call(format!(r#"{{"id":"v","session":"{session}","op":{op}}}"#));
                assert_eq!(refused.id, "v", "{codec:?} {op}");
                assert!(
                    matches!(
                        refused.payload,
                        ResponsePayload::Error {
                            kind: ErrorKind::MalformedFrame,
                            ..
                        }
                    ),
                    "{codec:?} {op}: {refused:?}"
                );
            }
            let pong = call(r#"{"id":"z","session":"","op":"Ping"}"#.to_owned());
            assert!(matches!(pong.payload, ResponsePayload::Pong), "{codec:?}");
        }
        handle.manager().request_shutdown();
        handle.join();
    }

    #[test]
    fn a_state_past_the_grid_bound_is_refused_in_both_codecs_and_the_connection_keeps_serving() {
        use crate::protocol::{FloorplanState, SessionConfig};
        use crate::session::MAX_GRID_CELLS_PER_AXIS;
        let handle = temp_server("grid_bound", Limits::default());
        for codec in [FrameCodec::Jsonl, FrameCodec::Binary] {
            let session = format!("grid-{codec:?}");
            let mut stream = connect(&handle);
            if codec == FrameCodec::Binary {
                stream.write_all(&BINARY_MAGIC).expect("magic");
            }
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut call = |id: &str, op: RequestOp| {
                let request = Request {
                    id: id.into(),
                    session: session.clone(),
                    op,
                };
                stream
                    .write_all(&request_frame(codec, &request))
                    .expect("send");
                let payload = read_frame(&mut reader, codec, 1 << 20, &mut || true)
                    .unwrap_or_else(|err| panic!("{codec:?} reply: {err:?}"));
                parse_response_payload(&payload).expect("parse response")
            };
            let config = SessionConfig::default_config();
            let opened = call("o", RequestOp::OpenDelta { config });
            assert!(opened.ok, "{codec:?}: {opened:?}");
            let propose = |side: i64| RequestOp::Propose {
                state: FloorplanState {
                    chip: [side, 600],
                    segments: vec![[0, 0, side, 600], [side / 2, 10, 20, 590]],
                },
            };
            // A side of 2^40 µm asks for a 36 650 387 593-column grid.
            let refused = call("far", propose(1 << 40));
            match &refused.payload {
                ResponsePayload::Error {
                    kind: ErrorKind::InvalidRequest,
                    message,
                    retryable: false,
                } => assert!(
                    message.contains("36650387593x20 unit grid")
                        && message.contains("65536 cells per axis"),
                    "{codec:?}: {message}"
                ),
                other => panic!("{codec:?}: {other:?}"),
            }
            let pong = call("ping", RequestOp::Ping);
            assert!(matches!(pong.payload, ResponsePayload::Pong), "{codec:?}");
            // A grid of exactly the bound is scored, one cell more is not.
            let at_bound = call("at", propose(MAX_GRID_CELLS_PER_AXIS * 30));
            assert!(
                matches!(at_bound.payload, ResponsePayload::Proposed { .. }),
                "{codec:?}: {at_bound:?}"
            );
            let past = call("past", propose(MAX_GRID_CELLS_PER_AXIS * 30 + 1));
            assert!(
                matches!(
                    past.payload,
                    ResponsePayload::Error {
                        kind: ErrorKind::InvalidRequest,
                        retryable: false,
                        ..
                    }
                ),
                "{codec:?}: {past:?}"
            );
        }
        handle.manager().request_shutdown();
        handle.join();
    }

    #[test]
    fn reaping_joins_finished_threads_and_keeps_running_ones() {
        let (release, wait) = mpsc::channel::<()>();
        let running = thread::spawn(move || {
            let _ = wait.recv();
        });
        let mut threads: Vec<_> = (0..3).map(|_| thread::spawn(|| {})).collect();
        while !threads.iter().all(|handle| handle.is_finished()) {
            thread::yield_now();
        }
        threads.insert(1, running);
        reap_finished(&mut threads);
        assert_eq!(threads.len(), 1, "the finished threads were joined");
        assert!(!threads[0].is_finished(), "the running thread was kept");
        reap_finished(&mut threads);
        assert_eq!(threads.len(), 1, "a running thread is never joined");
        release.send(()).expect("release");
        threads.remove(0).join().expect("the kept thread joins");
    }

    #[test]
    fn binary_framing_negotiates_and_roundtrips() {
        let handle = temp_server("binary", Limits::default());
        let mut stream = connect(&handle);
        stream.write_all(&BINARY_MAGIC).expect("magic");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        let pong = binary_roundtrip(&mut stream, &mut reader, &simple("p1", RequestOp::Ping));
        assert!(pong.ok, "{pong:?}");
        assert!(matches!(pong.payload, ResponsePayload::Pong));

        // An OpenDelta exchange over binary frames.
        let open = Request {
            id: "p2".into(),
            session: "alice".into(),
            op: RequestOp::OpenDelta {
                config: crate::protocol::SessionConfig::default_config(),
            },
        };
        let opened = binary_roundtrip(&mut stream, &mut reader, &open);
        assert!(opened.ok, "{opened:?}");

        let bye = binary_roundtrip(&mut stream, &mut reader, &simple("p3", RequestOp::Shutdown));
        assert!(bye.ok);
        handle.join();
    }

    #[test]
    fn oversized_binary_frames_get_typed_errors_not_disconnects() {
        let handle = temp_server(
            "binhuge",
            Limits {
                max_frame_bytes: 256,
                ..Limits::default()
            },
        );
        let mut stream = connect(&handle);
        stream.write_all(&BINARY_MAGIC).expect("magic");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        // A request whose binary frame exceeds the 256-byte limit.
        let fat = Request {
            id: "h1".into(),
            session: "x".repeat(400),
            op: RequestOp::Ping,
        };
        let frame = request_frame(FrameCodec::Binary, &fat);
        assert!(frame.len() > 256 + 4, "fixture must exceed the limit");
        stream.write_all(&frame).expect("send");
        let payload = read_frame(&mut reader, FrameCodec::Binary, 1 << 20, &mut || true)
            .unwrap_or_else(|err| panic!("reply: {err:?}"));
        let refusal = parse_response_payload(&payload).expect("parse");
        assert!(matches!(
            refusal.payload,
            ResponsePayload::Error {
                kind: ErrorKind::FrameTooLarge,
                ..
            }
        ));

        // The connection resynced: a normal request still works.
        let pong = binary_roundtrip(&mut stream, &mut reader, &simple("h2", RequestOp::Ping));
        assert!(pong.ok);
        binary_roundtrip(&mut stream, &mut reader, &simple("h3", RequestOp::Shutdown));
        handle.join();
    }

    /// Flags shutdown while one client sends `Ping` back to back over
    /// `codec`, and requires `join` to return within a bounded wait. A
    /// watchdog thread joins, so a connection that outlives the flag
    /// fails the test instead of hanging it.
    fn back_to_back_client_cannot_hold_shutdown_open(tag: &str, codec: FrameCodec) {
        let handle = temp_server(tag, Limits::default());
        let mut stream = connect(&handle);
        if codec == FrameCodec::Binary {
            stream.write_all(&BINARY_MAGIC).expect("magic");
        }
        let stop = Arc::new(AtomicBool::new(false));
        let client_stop = Arc::clone(&stop);
        let (first_tx, first_rx) = mpsc::channel();
        let client = thread::spawn(move || {
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let ping = request_frame(codec, &simple("busy", RequestOp::Ping));
            let mut answered = 0_usize;
            while !client_stop.load(Ordering::Acquire) {
                if stream.write_all(&ping).is_err() {
                    break;
                }
                // A read error is the daemon closing the connection.
                if read_frame(&mut reader, codec, 1 << 20, &mut || true).is_err() {
                    break;
                }
                answered += 1;
                if answered == 1 {
                    let _ = first_tx.send(());
                }
            }
            answered
        });
        first_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the client is answered before shutdown");
        handle.manager().request_shutdown();

        let (joined_tx, joined_rx) = mpsc::channel();
        let watchdog = thread::spawn(move || {
            handle.join();
            let _ = joined_tx.send(());
        });
        let joined = joined_rx.recv_timeout(Duration::from_secs(5));
        // Release the client either way, so a failure cannot hang.
        stop.store(true, Ordering::Release);
        watchdog.join().expect("watchdog");
        assert!(client.join().expect("client") >= 1);
        assert!(
            joined.is_ok(),
            "join did not return within 5 s while a client kept sending"
        );
    }

    #[test]
    fn a_jsonl_client_sending_back_to_back_cannot_hold_shutdown_open() {
        back_to_back_client_cannot_hold_shutdown_open("busy_jsonl", FrameCodec::Jsonl);
    }

    #[test]
    fn a_binary_client_sending_back_to_back_cannot_hold_shutdown_open() {
        back_to_back_client_cannot_hold_shutdown_open("busy_binary", FrameCodec::Binary);
    }

    #[test]
    fn client_limit_refuses_with_backpressure() {
        let handle = temp_server(
            "climit",
            Limits {
                max_clients: 1,
                ..Limits::default()
            },
        );
        // First connection occupies the only slot...
        let mut first = connect(&handle);
        let pong = roundtrip(
            &mut first,
            "{\"id\":\"c1\",\"session\":\"\",\"op\":\"Ping\"}\n",
        );
        assert!(pong.ok);
        // ...the second gets one Backpressure frame and EOF.
        let second = connect(&handle);
        let mut reader = BufReader::new(second);
        let mut line = String::new();
        reader.read_line(&mut line).expect("refusal frame");
        let refusal: Response = serde_json::from_str(line.trim_end()).expect("parse");
        assert!(matches!(
            refusal.payload,
            ResponsePayload::Error {
                kind: ErrorKind::Backpressure,
                retryable: true,
                ..
            }
        ));
        roundtrip(
            &mut first,
            "{\"id\":\"c2\",\"session\":\"\",\"op\":\"Shutdown\"}\n",
        );
        handle.join();
    }

    #[test]
    fn unix_socket_end_to_end() {
        let dir = std::env::temp_dir().join("irgrid_serve_srv_unix");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let socket = dir.join("daemon.sock");
        let store = SnapshotStore::open(&dir.join("state"), Chaos::off(), KillSwitch::new())
            .expect("store");
        let manager = Arc::new(SessionManager::new(
            store,
            Limits::default(),
            DegradePolicy::default(),
            1,
        ));
        let handle = serve(
            Transport::Unix(socket.clone()),
            manager,
            ServerOptions::default(),
        )
        .expect("serve");

        let mut stream = UnixStream::connect(&socket).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        // The removed full-session `Open` op is a malformed frame; the
        // connection survives it.
        stream
            .write_all(
                b"{\"id\":\"u0\",\"session\":\"alice\",\"op\":{\"Open\":{\"config\":{\"pitch_um\":30,\"budget\":0,\"cache_capacity\":8}}}}\n",
            )
            .expect("send");
        reader.read_line(&mut line).expect("reply");
        let refused: Response = serde_json::from_str(line.trim_end()).expect("parse");
        assert_eq!(refused.id, "u0");
        assert!(matches!(
            refused.payload,
            ResponsePayload::Error {
                kind: ErrorKind::MalformedFrame,
                retryable: false,
                ..
            }
        ));
        line.clear();
        stream
            .write_all(
                b"{\"id\":\"u1\",\"session\":\"alice\",\"op\":{\"OpenDelta\":{\"config\":{\"pitch_um\":30,\"budget\":0,\"cache_capacity\":8}}}}\n",
            )
            .expect("send");
        reader.read_line(&mut line).expect("reply");
        let opened: Response = serde_json::from_str(line.trim_end()).expect("parse");
        assert!(opened.ok, "{opened:?}");

        stream
            .write_all(b"{\"id\":\"u2\",\"session\":\"\",\"op\":\"Shutdown\"}\n")
            .expect("send");
        line.clear();
        reader.read_line(&mut line).expect("reply");
        handle.join();
        assert!(!socket.exists(), "socket unlinked on join");
    }
}
