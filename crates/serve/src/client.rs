//! The reference client for the daemon.
//!
//! This is the client the chaos tests and the benchmark package's served
//! workload share. Its retry loop implements the
//! protocol's contract: any response marked `retryable` may be resent
//! verbatim: the idempotency ring guarantees a retried `Commit` never
//! double-counts, and every other op is read-only or pure. Transport
//! failures (daemon killed mid-request) reconnect and resend the same
//! frame for the same reason.
//!
//! The client reads responses through the same bounded frame reader as
//! the server ([`frame`](crate::frame)) — a hostile or broken daemon
//! cannot make it buffer an unbounded line — and speaks either framing:
//! [`Client::with_codec`] with [`FrameCodec::Binary`] sends the magic
//! preamble on connect and switches the whole connection to
//! length-prefixed binary frames.
//!
//! Like the server's transport layer, this file is connection-side code:
//! the only wall-clock it touches is retry backoff.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration; // irgrid-lint: allow(D1): client retry backoff is connection-layer wall-clock

use crate::frame::{
    parse_response_payload, read_frame, request_frame, FrameCodec, FrameReadError, BINARY_MAGIC,
};
use crate::protocol::{Limits, Request, Response, ResponsePayload};
use crate::server::Transport;

/// Why a client call failed for good.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed and reconnecting kept failing.
    Transport(std::io::Error),
    /// The daemon's reply was not a valid response frame.
    Protocol(String),
    /// Every attempt got a retryable error; the last response is inside.
    RetriesExhausted(Box<Response>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(err) => write!(f, "transport failed: {err}"),
            ClientError::Protocol(why) => write!(f, "protocol violation: {why}"),
            ClientError::RetriesExhausted(response) => {
                write!(
                    f,
                    "retries exhausted; last response: {:?}",
                    response.payload
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

enum ClientStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.read(buf),
            ClientStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.write(buf),
            ClientStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.flush(),
            ClientStream::Tcp(s) => s.flush(),
        }
    }
}

/// A connected (or lazily reconnecting) daemon client.
pub struct Client {
    transport: Transport,
    codec: FrameCodec,
    /// Response frames larger than this are a protocol violation.
    max_frame_bytes: usize,
    connection: Option<(ClientStream, BufReader<ClientStream>)>,
}

impl Client {
    /// A JSONL client for `transport`; connects lazily on first call.
    #[must_use]
    pub fn new(transport: Transport) -> Client {
        Client::with_codec(transport, FrameCodec::Jsonl)
    }

    /// A client speaking the given framing. Binary clients send the
    /// negotiation magic as the first bytes of every (re)connection.
    #[must_use]
    pub fn with_codec(transport: Transport, codec: FrameCodec) -> Client {
        Client {
            transport,
            codec,
            max_frame_bytes: Limits::default().max_frame_bytes,
            connection: None,
        }
    }

    /// The framing this client speaks.
    #[must_use]
    pub fn codec(&self) -> FrameCodec {
        self.codec
    }

    fn connect(&mut self) -> std::io::Result<()> {
        if self.connection.is_some() {
            return Ok(());
        }
        let (mut writer, reader) = match &self.transport {
            Transport::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                let clone = stream.try_clone()?;
                (ClientStream::Unix(stream), ClientStream::Unix(clone))
            }
            Transport::Tcp(address) => {
                let stream = TcpStream::connect(address.as_str())?;
                let clone = stream.try_clone()?;
                (ClientStream::Tcp(stream), ClientStream::Tcp(clone))
            }
        };
        if self.codec == FrameCodec::Binary {
            writer.write_all(&BINARY_MAGIC)?;
        }
        self.connection = Some((writer, BufReader::new(reader)));
        Ok(())
    }

    /// Drops the connection so the next call reconnects.
    pub fn disconnect(&mut self) {
        self.connection = None;
    }

    /// Sends one request and reads its response. No retries.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the socket fails (the connection
    /// is dropped so the next call reconnects), [`ClientError::Protocol`]
    /// when the reply is not a response frame.
    pub fn call_once(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.connect().map_err(ClientError::Transport)?;
        let codec = self.codec;
        let max = self.max_frame_bytes;
        // irgrid-lint: allow(P1): connect() above just guaranteed the connection
        let (writer, reader) = self.connection.as_mut().expect("connected");

        let frame = request_frame(codec, request);
        let send = writer.write_all(&frame).and_then(|()| writer.flush());
        if let Err(err) = send {
            self.disconnect();
            return Err(ClientError::Transport(err));
        }

        // Bounded read: the client never buffers more than the frame
        // limit of a response, however broken the peer.
        match read_frame(reader, codec, max, &mut || true) {
            Ok(payload) => {
                let response = parse_response_payload(&payload)
                    .map_err(|why| ClientError::Protocol(format!("bad response frame: {why}")))?;
                if response.id != request.id && !response.id.is_empty() {
                    return Err(ClientError::Protocol(format!(
                        "response id `{}` does not match request id `{}`",
                        response.id, request.id
                    )));
                }
                Ok(response)
            }
            Err(FrameReadError::TooLarge) => {
                self.disconnect();
                Err(ClientError::Protocol(format!(
                    "daemon sent a response frame over {max} bytes"
                )))
            }
            Err(FrameReadError::Closed | FrameReadError::Aborted) => {
                self.disconnect();
                Err(ClientError::Transport(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                )))
            }
            Err(FrameReadError::Transport(err)) => {
                self.disconnect();
                Err(ClientError::Transport(err))
            }
            Err(FrameReadError::InvalidUtf8) => {
                self.disconnect();
                Err(ClientError::Protocol(
                    "daemon sent a response frame that is not utf-8".to_owned(),
                ))
            }
        }
    }

    /// Sends a request, retrying retryable errors and transport failures
    /// (with reconnect) up to `attempts` times total.
    ///
    /// This is the loop that makes chaos survivable: an injected
    /// `PersistFailed` rolled the daemon back, so resending the identical
    /// frame either re-does the work or replays the recorded response —
    /// both converge on the uninterrupted outcome.
    ///
    /// # Errors
    ///
    /// The terminal [`ClientError`] after `attempts` tries, or
    /// immediately for non-retryable error responses (those are returned
    /// as `Ok` — the caller inspects `response.ok`).
    pub fn call(&mut self, request: &Request, attempts: u32) -> Result<Response, ClientError> {
        let mut last_transport: Option<ClientError> = None;
        let mut last_response: Option<Response> = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(u64::from(attempt.min(20))));
            }
            match self.call_once(request) {
                Ok(response) => {
                    let retryable = matches!(
                        response.payload,
                        ResponsePayload::Error {
                            retryable: true,
                            ..
                        }
                    );
                    if !retryable {
                        return Ok(response);
                    }
                    last_response = Some(response);
                }
                Err(ClientError::Transport(err)) => {
                    last_transport = Some(ClientError::Transport(err));
                }
                Err(err) => return Err(err),
            }
        }
        if let Some(response) = last_response {
            return Err(ClientError::RetriesExhausted(Box::new(response)));
        }
        // irgrid-lint: allow(P1): attempts >= 1, so one arm above always ran
        Err(last_transport.expect("at least one attempt happened"))
    }
}
