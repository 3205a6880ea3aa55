//! Frame transport: bounded JSONL lines and the negotiated
//! length-prefixed binary framing.
//!
//! Both the daemon ([`server`](crate::server)) and the
//! [`Client`](crate::Client) read frames through [`read_frame`], so the
//! frame bound ([`Limits::max_frame_bytes`](crate::Limits)) is enforced
//! *before buffering* on both ends: an oversized frame is drained in
//! bounded chunks and reported as [`FrameReadError::TooLarge`] without
//! ever holding more than one `BufRead` buffer of it in memory. (PR 6's
//! client read responses with an unbounded `read_line`; that path is
//! gone.)
//!
//! # Negotiation
//!
//! A connection starts in JSONL mode. A client that wants binary frames
//! sends the 8-byte [`BINARY_MAGIC`] preamble as its very first bytes;
//! the server peeks the first byte (`{` or whitespace means JSONL — a
//! JSON request can never start with `I`) and switches the whole
//! connection. The choice is per-connection and permanent.
//!
//! # Binary frame layout
//!
//! ```text
//! frame   := u32-le payload-length, payload
//! payload := value
//! value   := 0x00                      (null)
//!          | 0x01 | 0x02               (false / true)
//!          | 0x03 i64-le               (int)
//!          | 0x04 u64-le               (uint)
//!          | 0x05 f64-bits-le          (float, bit-exact)
//!          | 0x06 u32-le utf8-bytes    (string)
//!          | 0x07 u32-le value*        (sequence)
//!          | 0x08 u32-le (string value)*  (map, field order preserved)
//! ```
//!
//! The payload is written from the message's serializer events — the
//! same events the JSONL codec prints — so the two framings are
//! bit-equivalent in content (floats travel as raw bits in both: the JSON
//! writer round-trips `f64` exactly). Both decode straight into the
//! message type through `serde::Deserializer`, with no value tree between:
//! JSONL through `serde_json::from_str`, binary through a byte cursor that
//! keeps one entry per open container, never reserves room for more
//! elements than the bytes left can hold, and reports a malformation
//! ahead of any type error, as if the whole payload were read first.

use std::fmt;
use std::io::BufRead;

use serde::{DeError, Deserialize, Deserializer, Serialize, Serializer, Token};

use crate::protocol::{Request, Response};

/// First bytes of a connection that opts into binary framing.
pub const BINARY_MAGIC: [u8; 8] = *b"IRGBIN1\n";

/// Nesting depth bound for binary decoding (a hostile frame could
/// otherwise grow the cursor's stack of open containers without bound);
/// protocol values are ≤ 6 deep.
const MAX_DEPTH: usize = 64;

/// How frames are laid out on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameCodec {
    /// One JSON object per `\n`-terminated line (the default).
    #[default]
    Jsonl,
    /// Length-prefixed binary value frames.
    Binary,
}

/// One received frame, still encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePayload {
    /// A complete JSONL line (without the newline).
    Jsonl(String),
    /// A complete binary payload (without the length prefix).
    Binary(Vec<u8>),
}

/// Why [`read_frame`] returned no frame.
#[derive(Debug)]
pub enum FrameReadError {
    /// The frame exceeded the limit. The stream has been resynced past
    /// the offending frame (JSONL: skipped to the newline; binary: the
    /// declared payload drained in chunks), so the connection can
    /// continue with a typed `FrameTooLarge` reply.
    TooLarge,
    /// Clean end of stream between frames.
    Closed,
    /// The `keep_waiting` callback asked to stop (server shutdown).
    Aborted,
    /// A JSONL line was not valid UTF-8. The stream is past the line, so
    /// the connection can continue with a typed `MalformedFrame` reply,
    /// as for a binary frame with invalid UTF-8 in a string.
    InvalidUtf8,
    /// Hard transport error; the connection is unusable.
    Transport(std::io::Error),
}

/// Fills the reader's buffer, handling read-timeout polling: on
/// `WouldBlock`/`TimedOut` the `keep_waiting` callback decides whether
/// to keep blocking (clients) or abort (server shutdown).
fn fill<'a, R: BufRead>(
    reader: &'a mut R,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<&'a [u8], FrameReadError> {
    loop {
        // Polonius workaround: probe with a non-borrow-extending call
        // first, then do the real fill_buf outside the error path.
        match reader.fill_buf() {
            Ok(_) => break,
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                if !keep_waiting() {
                    return Err(FrameReadError::Aborted);
                }
            }
            Err(err) => return Err(FrameReadError::Transport(err)),
        }
    }
    reader.fill_buf().map_err(FrameReadError::Transport)
}

/// Reads one frame of at most `max` bytes in the connection's codec.
///
/// # Errors
///
/// [`FrameReadError::TooLarge`] for an over-limit frame (stream
/// resynced, connection survives), [`FrameReadError::Closed`] on clean
/// EOF, [`FrameReadError::Aborted`] when `keep_waiting` returns false
/// during a read timeout, [`FrameReadError::Transport`] otherwise.
pub fn read_frame<R: BufRead>(
    reader: &mut R,
    codec: FrameCodec,
    max: usize,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<FramePayload, FrameReadError> {
    match codec {
        FrameCodec::Jsonl => read_jsonl_frame(reader, max, keep_waiting).map(FramePayload::Jsonl),
        FrameCodec::Binary => {
            read_binary_frame(reader, max, keep_waiting).map(FramePayload::Binary)
        }
    }
}

/// Reads one `\n`-terminated line, enforcing `max` before buffering.
fn read_jsonl_frame<R: BufRead>(
    reader: &mut R,
    max: usize,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<String, FrameReadError> {
    let mut line = Vec::new();
    loop {
        let buffer = fill(reader, keep_waiting)?;
        if buffer.is_empty() {
            // EOF. A partial unterminated line is a torn frame; drop it.
            return Err(FrameReadError::Closed);
        }
        let (chunk, terminated) = match buffer.iter().position(|&b| b == b'\n') {
            Some(newline) => (newline + 1, true),
            None => (buffer.len(), false),
        };
        if line.len() + chunk > max {
            // Consume to the newline (or all buffered) so the connection
            // can resync on the next frame — without ever accumulating
            // the oversized line.
            reader.consume(chunk);
            if terminated {
                return Err(FrameReadError::TooLarge);
            }
            loop {
                let buffer = fill(reader, keep_waiting)?;
                if buffer.is_empty() {
                    return Err(FrameReadError::Closed);
                }
                match buffer.iter().position(|&b| b == b'\n') {
                    Some(newline) => {
                        reader.consume(newline + 1);
                        return Err(FrameReadError::TooLarge);
                    }
                    None => {
                        let len = buffer.len();
                        reader.consume(len);
                    }
                }
            }
        }
        line.extend_from_slice(&buffer[..chunk]);
        reader.consume(chunk);
        if terminated {
            let mut text = String::from_utf8(line).map_err(|_| FrameReadError::InvalidUtf8)?;
            let trimmed = text.trim_end_matches(['\n', '\r']).len();
            text.truncate(trimmed);
            return Ok(text);
        }
    }
}

/// Reads exactly `want` bytes through the polling fill. `sink` receives
/// each chunk; pass a draining sink to discard oversized payloads
/// without buffering them.
fn read_exact_chunked<R: BufRead>(
    reader: &mut R,
    mut want: usize,
    keep_waiting: &mut dyn FnMut() -> bool,
    sink: &mut dyn FnMut(&[u8]),
) -> Result<(), FrameReadError> {
    while want > 0 {
        let buffer = fill(reader, keep_waiting)?;
        if buffer.is_empty() {
            return Err(FrameReadError::Closed);
        }
        let take = buffer.len().min(want);
        sink(&buffer[..take]);
        reader.consume(take);
        want -= take;
    }
    Ok(())
}

/// Reads one length-prefixed binary frame, enforcing `max` against the
/// declared length *before* reading the payload.
fn read_binary_frame<R: BufRead>(
    reader: &mut R,
    max: usize,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<Vec<u8>, FrameReadError> {
    // The length prefix. EOF before any prefix byte is a clean close;
    // EOF inside it is a torn frame, also treated as close (parity with
    // the JSONL reader's torn-line handling).
    let mut prefix = [0_u8; 4];
    let mut got = 0_usize;
    while got < prefix.len() {
        let buffer = fill(reader, keep_waiting)?;
        if buffer.is_empty() {
            return Err(FrameReadError::Closed);
        }
        let take = buffer.len().min(prefix.len() - got);
        prefix[got..got + take].copy_from_slice(&buffer[..take]);
        reader.consume(take);
        got += take;
    }
    let declared = u32::from_le_bytes(prefix) as usize;
    if declared > max {
        // Refuse before buffering: drain the declared payload in
        // `BufRead`-buffer-sized chunks so the connection can resync.
        read_exact_chunked(reader, declared, keep_waiting, &mut |_| {})?;
        return Err(FrameReadError::TooLarge);
    }
    let mut payload = Vec::with_capacity(declared);
    read_exact_chunked(reader, declared, keep_waiting, &mut |chunk| {
        payload.extend_from_slice(chunk);
    })?;
    Ok(payload)
}

/// Server-side codec negotiation: peeks the connection's first byte and
/// consumes the [`BINARY_MAGIC`] preamble when present.
///
/// # Errors
///
/// Propagates [`read_frame`]-style errors; a first byte of `I` followed
/// by a non-magic sequence is a [`FrameReadError::Transport`] error
/// (the peer speaks neither framing).
pub fn negotiate<R: BufRead>(
    reader: &mut R,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<FrameCodec, FrameReadError> {
    let buffer = fill(reader, keep_waiting)?;
    if buffer.is_empty() {
        return Err(FrameReadError::Closed);
    }
    if buffer[0] != BINARY_MAGIC[0] {
        return Ok(FrameCodec::Jsonl);
    }
    let mut magic = [0_u8; BINARY_MAGIC.len()];
    let mut got = 0_usize;
    while got < magic.len() {
        let buffer = fill(reader, keep_waiting)?;
        if buffer.is_empty() {
            return Err(FrameReadError::Closed);
        }
        let take = buffer.len().min(magic.len() - got);
        magic[got..got + take].copy_from_slice(&buffer[..take]);
        reader.consume(take);
        got += take;
    }
    if magic == BINARY_MAGIC {
        Ok(FrameCodec::Binary)
    } else {
        Err(FrameReadError::Transport(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "first bytes are neither JSON nor the binary-framing magic",
        )))
    }
}

/// Writes serializer events in the binary layout.
struct BinaryWriter<'a>(&'a mut Vec<u8>);

impl Serializer for BinaryWriter<'_> {
    fn null(&mut self) {
        self.0.push(0x00);
    }

    fn bool(&mut self, value: bool) {
        self.0.push(if value { 0x02 } else { 0x01 });
    }

    fn int(&mut self, value: i64) {
        self.0.push(0x03);
        self.0.extend_from_slice(&value.to_le_bytes());
    }

    fn uint(&mut self, value: u64) {
        self.0.push(0x04);
        self.0.extend_from_slice(&value.to_le_bytes());
    }

    fn float(&mut self, value: f64) {
        self.0.push(0x05);
        self.0.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    fn str(&mut self, value: &str) {
        self.0.push(0x06);
        encode_bytes(value.as_bytes(), self.0);
    }

    fn seq(&mut self, len: usize) {
        self.0.push(0x07);
        self.0.extend_from_slice(&encode_len(len));
    }

    fn map(&mut self, len: usize) {
        self.0.push(0x08);
        self.0.extend_from_slice(&encode_len(len));
    }

    fn key(&mut self, key: &str) {
        encode_bytes(key.as_bytes(), self.0);
    }

    fn end(&mut self) {}
}

/// A length as the layout writes it: u32, little-endian.
fn encode_len(len: usize) -> [u8; 4] {
    // Frames are bounded to max_frame_bytes (< 4 GiB) long before any
    // collection could exceed u32.
    // irgrid-lint: allow(P1): lengths inside a bounded frame fit u32
    let len = u32::try_from(len).expect("frame collection length fits u32");
    len.to_le_bytes()
}

fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&encode_len(bytes.len()));
    out.extend_from_slice(bytes);
}

/// Why a binary payload did not decode, and at which byte. It is small
/// and `Copy`, and becomes text only when a frame is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DecodeError {
    at: usize,
    what: Malformed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Malformed {
    /// The payload ends before a field of this many bytes.
    Truncated(usize),
    InvalidUtf8,
    TooDeep,
    UnknownTag(u8),
    /// Bytes follow the value.
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.what {
            Malformed::Truncated(need) => {
                write!(f, "truncated frame: need {need} bytes at {}", self.at)
            }
            Malformed::InvalidUtf8 => write!(f, "invalid utf-8 in the string at {}", self.at),
            Malformed::TooDeep => write!(f, "frame nests deeper than {MAX_DEPTH}"),
            Malformed::UnknownTag(tag) => {
                write!(f, "unknown value tag 0x{tag:02x} at {}", self.at)
            }
            Malformed::Trailing(count) => write!(f, "{count} trailing bytes after the value"),
        }
    }
}

/// A byte cursor over one binary payload: the [`Deserializer`] its
/// messages decode from, one container level per entry of `open` rather
/// than one call.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Open sequences and maps, innermost last.
    open: Vec<Open>,
    /// The malformation that stopped decoding, if one did.
    failed: Option<DecodeError>,
}

/// A sequence or map the cursor is inside.
#[derive(Debug, Clone, Copy)]
struct Open {
    map: bool,
    /// Elements or entries whose value is not yet read. The count alone
    /// answers `more`, so a reader of an announced length need not ask.
    left: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor {
            bytes,
            at: 0,
            open: Vec::new(),
            failed: None,
        }
    }

    fn fail(&self, what: Malformed) -> DecodeError {
        DecodeError { at: self.at, what }
    }

    /// Keeps a malformation for [`decode`] to report, and passes up the
    /// [`DeError`] the trait returns in its place.
    fn carry<T>(&mut self, read: Result<T, DecodeError>) -> Result<T, DeError> {
        read.map_err(|err| {
            self.failed = Some(err);
            DeError::new(err.to_string())
        })
    }

    fn take(&mut self, count: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .at
            .checked_add(count)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.fail(Malformed::Truncated(count)))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut array = [0_u8; N];
        array.copy_from_slice(self.take(N)?);
        Ok(array)
    }

    fn take_u32(&mut self) -> Result<u32, DecodeError> {
        self.take_array().map(u32::from_le_bytes)
    }

    fn take_u64(&mut self) -> Result<u64, DecodeError> {
        self.take_array().map(u64::from_le_bytes)
    }

    fn take_str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.take_u32()? as usize;
        let start = self.at;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError {
            at: start,
            what: Malformed::InvalidUtf8,
        })
    }

    /// The head of the next value: an element or entry value of the
    /// innermost open container, if there is one. A value inside more
    /// than [`MAX_DEPTH`] containers is refused before its tag is read.
    fn token(&mut self) -> Result<Token, DecodeError> {
        if self.open.len() > MAX_DEPTH {
            return Err(self.fail(Malformed::TooDeep));
        }
        let tag = self.take(1)?[0];
        if let Some(parent) = self.open.last_mut() {
            debug_assert!(parent.left > 0, "a value past its container's end");
            parent.left = parent.left.saturating_sub(1);
        }
        Ok(match tag {
            0x00 => Token::Null,
            0x01 => Token::Bool(false),
            0x02 => Token::Bool(true),
            0x03 => Token::Int(self.take_array().map(i64::from_le_bytes)?),
            0x04 => Token::UInt(self.take_u64()?),
            0x05 => Token::Float(f64::from_bits(self.take_u64()?)),
            0x06 => Token::Str(self.take_str()?.to_owned()),
            0x07 | 0x08 => {
                let map = tag == 0x08;
                let left = self.take_u32()? as usize;
                self.open.push(Open { map, left });
                if map {
                    Token::Map(Some(left))
                } else {
                    Token::Seq(Some(left))
                }
            }
            other => {
                self.at -= 1;
                return Err(self.fail(Malformed::UnknownTag(other)));
            }
        })
    }

    /// Whether the innermost open container has another element or
    /// entry, closing it if not; `None` when it is not of the kind asked
    /// for.
    fn advance(&mut self, map: bool) -> Option<bool> {
        match self.open.last() {
            Some(open) if open.map == map => {
                let another = open.left > 0;
                if !another {
                    self.open.pop();
                }
                Some(another)
            }
            _ => None,
        }
    }

    /// Checks that no bytes follow the value.
    fn end(&self) -> Result<(), DecodeError> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            trailing => Err(self.fail(Malformed::Trailing(trailing))),
        }
    }
}

impl Deserializer for Cursor<'_> {
    fn next(&mut self) -> Result<Token, DeError> {
        let read = self.token();
        self.carry(read)
    }

    fn null(&mut self) -> Result<bool, DeError> {
        // Too deep, truncated and unknown tags are left for `next`.
        let null = self.open.len() <= MAX_DEPTH && self.bytes.get(self.at) == Some(&0x00);
        if null {
            self.next()?;
        }
        Ok(null)
    }

    fn more(&mut self) -> Result<bool, DeError> {
        self.advance(false)
            .ok_or_else(|| DeError::new("no sequence is open"))
    }

    fn key(&mut self) -> Result<Option<&str>, DeError> {
        match self.advance(true) {
            Some(true) => {
                let read = self.take_str();
                self.carry(read).map(Some)
            }
            Some(false) => Ok(None),
            None => Err(DeError::new("no map is open")),
        }
    }

    fn room(&self) -> usize {
        self.bytes.len() - self.at
    }
}

/// Decodes one binary payload as a `T`.
///
/// # Errors
///
/// Returns a description of the malformation (truncation, bad tag, bad
/// UTF-8, over-deep nesting, trailing garbage), or, for a well-formed
/// payload, the error `T` refused it with.
fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let mut cursor = Cursor::new(bytes);
    let read = T::deserialize(&mut cursor);
    if let Some(err) = cursor.failed {
        return Err(err.to_string());
    }
    match read {
        Ok(value) => cursor.end().map(|()| value).map_err(|err| err.to_string()),
        Err(err) => {
            // Report the type error only for a well-formed payload: read
            // it again, structurally, and let a malformation win.
            let mut check = Cursor::new(bytes);
            let malformed = match check.skip() {
                Ok(()) => check.end().err(),
                Err(_) => check.failed,
            };
            Err(malformed.map_or_else(|| err.to_string(), |err| err.to_string()))
        }
    }
}

/// Encodes any protocol message as one frame in the given codec.
pub(crate) fn message_frame<T: Serialize>(codec: FrameCodec, message: &T) -> Vec<u8> {
    match codec {
        FrameCodec::Jsonl => {
            let mut frame = Vec::new();
            let serialized = serde_json::to_writer(&mut frame, message);
            // irgrid-lint: allow(P1): writing into a Vec cannot fail
            serialized.expect("message serialization is infallible");
            frame.push(b'\n');
            frame
        }
        FrameCodec::Binary => {
            // The length prefix is patched in once the payload is written.
            let mut frame = vec![0; 4];
            message.serialize(&mut BinaryWriter(&mut frame));
            let prefix = encode_len(frame.len() - 4);
            frame[..4].copy_from_slice(&prefix);
            frame
        }
    }
}

/// Encodes a [`Request`] as one frame.
#[must_use]
pub fn request_frame(codec: FrameCodec, request: &Request) -> Vec<u8> {
    message_frame(codec, request)
}

/// Encodes a [`Response`] as one frame.
#[must_use]
pub fn response_frame(codec: FrameCodec, response: &Response) -> Vec<u8> {
    message_frame(codec, response)
}

/// Decodes a received frame as a `T`.
fn decode_payload<T: Deserialize>(payload: &FramePayload) -> Result<T, String> {
    match payload {
        FramePayload::Jsonl(line) => serde_json::from_str(line).map_err(|err| err.to_string()),
        FramePayload::Binary(bytes) => decode(bytes),
    }
}

/// Parses a received frame as a [`Request`].
///
/// # Errors
///
/// Returns the parse failure text for a `MalformedFrame` reply.
pub fn parse_request_payload(payload: &FramePayload) -> Result<Request, String> {
    decode_payload(payload)
}

/// Parses a received frame as a [`Response`].
///
/// # Errors
///
/// Returns the parse failure text.
pub fn parse_response_payload(payload: &FramePayload) -> Result<Response, String> {
    decode_payload(payload)
}

/// The one field [`recover_payload_id`] reads.
#[derive(Deserialize)]
struct RequestId {
    id: String,
}

/// Best-effort recovery of the `id` field from a frame that failed to
/// parse as a full [`Request`], so the error reply can be matched.
#[must_use]
pub fn recover_payload_id(payload: &FramePayload) -> String {
    decode_payload::<RequestId>(payload).map_or_else(|_| String::new(), |read| read.id)
}

/// Whether an empty frame should be skipped (blank JSONL lines keep the
/// connection; binary frames are never blank-skippable).
#[must_use]
pub fn is_blank(payload: &FramePayload) -> bool {
    match payload {
        FramePayload::Jsonl(line) => line.trim().is_empty(),
        FramePayload::Binary(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{FloorplanState, RequestOp, ResponsePayload, SessionConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use serde::Value;
    use std::io::BufReader;

    fn keep() -> impl FnMut() -> bool {
        || true
    }

    /// The tree encoder the event writer replaced, kept as the reference
    /// its bytes are checked against.
    fn encode_value(value: &Value, out: &mut Vec<u8>) {
        match value {
            Value::Null => out.push(0x00),
            Value::Bool(false) => out.push(0x01),
            Value::Bool(true) => out.push(0x02),
            Value::Int(v) => {
                out.push(0x03);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::UInt(v) => {
                out.push(0x04);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Float(v) => {
                out.push(0x05);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::Str(text) => {
                out.push(0x06);
                encode_bytes(text.as_bytes(), out);
            }
            Value::Seq(items) => {
                out.push(0x07);
                out.extend_from_slice(&encode_len(items.len()));
                for item in items {
                    encode_value(item, out);
                }
            }
            Value::Map(entries) => {
                out.push(0x08);
                out.extend_from_slice(&encode_len(entries.len()));
                for (key, item) in entries {
                    encode_bytes(key.as_bytes(), out);
                    encode_value(item, out);
                }
            }
        }
    }

    /// The tree decoder the streamed one replaced, kept as the reference
    /// its answers are checked against: one call per container level.
    fn take_value(cursor: &mut Cursor<'_>, depth: usize) -> Result<Value, DecodeError> {
        if depth > MAX_DEPTH {
            return Err(cursor.fail(Malformed::TooDeep));
        }
        let tag = cursor.take(1)?[0];
        Ok(match tag {
            0x00 => Value::Null,
            0x01 => Value::Bool(false),
            0x02 => Value::Bool(true),
            0x03 => Value::Int(cursor.take_array().map(i64::from_le_bytes)?),
            0x04 => Value::UInt(cursor.take_u64()?),
            0x05 => Value::Float(f64::from_bits(cursor.take_u64()?)),
            0x06 => Value::Str(cursor.take_str()?.to_owned()),
            0x07 | 0x08 => {
                let count = cursor.take_u32()? as usize;
                // Bound pre-allocation by what the payload can hold.
                let capacity = count.min(cursor.bytes.len() - cursor.at);
                if tag == 0x08 {
                    let mut entries = Vec::with_capacity(capacity);
                    for _ in 0..count {
                        let key = cursor.take_str()?.to_owned();
                        entries.push((key, take_value(cursor, depth + 1)?));
                    }
                    Value::Map(entries)
                } else {
                    let mut items = Vec::with_capacity(capacity);
                    for _ in 0..count {
                        items.push(take_value(cursor, depth + 1)?);
                    }
                    Value::Seq(items)
                }
            }
            other => {
                cursor.at -= 1;
                return Err(cursor.fail(Malformed::UnknownTag(other)));
            }
        })
    }

    /// A payload decoded into a tree by the reference decoder.
    fn tree_decode(bytes: &[u8]) -> Result<Value, String> {
        let mut cursor = Cursor::new(bytes);
        take_value(&mut cursor, 0)
            .and_then(|value| cursor.end().map(|()| value))
            .map_err(|err| err.to_string())
    }

    /// `value` framed by the reference encoder.
    fn tree_frame(value: &Value) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_value(value, &mut payload);
        let mut frame = encode_len(payload.len()).to_vec();
        frame.extend_from_slice(&payload);
        frame
    }

    /// A random value up to `depth` levels deep: the scalar edge cases,
    /// strings that need escapes, and empty and nested sequences and maps.
    fn generate(rng: &mut ChaCha8Rng, depth: u32) -> Value {
        const FLOATS: [f64; 9] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            -2.2e-308,
            1e300,
            0.06857669456518374,
            -1.25,
        ];
        const STRINGS: [&str; 5] = ["", "id", "\"q\" \\ b", "\n\t\u{1}\u{1f}", "é 日 😀"];
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.gen_range(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::Int([i64::MIN, i64::MAX, -1, rng.gen()][rng.gen_range(0..4)]),
            3 => Value::UInt([u64::MAX, 0, rng.gen()][rng.gen_range(0..3)]),
            4 => Value::Float(if rng.gen() {
                FLOATS[rng.gen_range(0..FLOATS.len())]
            } else {
                f64::from_bits(rng.gen())
            }),
            5 => Value::Str(STRINGS[rng.gen_range(0..STRINGS.len())].to_owned()),
            6 => Value::Seq(
                (0..rng.gen_range(0..4))
                    .map(|_| generate(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..rng.gen_range(0..4))
                    .map(|i| {
                        (
                            STRINGS[i % STRINGS.len()].to_owned(),
                            generate(rng, depth - 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    fn demo_request() -> Request {
        Request {
            id: "r-1".into(),
            session: "alice".into(),
            op: RequestOp::Propose {
                state: FloorplanState {
                    chip: [600, 400],
                    segments: vec![[0, 0, 10, 20], [5, 5, 600, 400]],
                },
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The binary frame written from events equals the reference
        /// encoder's frame of the same value, byte for byte, and the
        /// JSONL frame is the JSON text plus a newline.
        #[test]
        fn streamed_frames_match_the_tree_encoder(seed in 0u64..u64::MAX) {
            let value = generate(&mut ChaCha8Rng::seed_from_u64(seed), 4);
            proptest::prop_assert_eq!(message_frame(FrameCodec::Binary, &value), tree_frame(&value));
            let mut line = serde_json::to_string(&value).expect("json").into_bytes();
            line.push(b'\n');
            proptest::prop_assert_eq!(message_frame(FrameCodec::Jsonl, &value), line);
        }
    }

    /// A `Propose` with an id that needs escapes, and its `Proposed`
    /// answer.
    fn pinned_messages() -> (Request, Response) {
        let request = Request {
            id: "pin \"1\" \u{e9}".into(),
            session: "legacy-delta".into(),
            op: RequestOp::Propose {
                state: FloorplanState {
                    chip: [700, 600],
                    segments: vec![[90, 15, 600, 500], [20, 500, 600, 15], [-350, 10, 400, 590]],
                },
            },
        };
        let response = Response::ok(
            "pin \"1\" \u{e9}",
            ResponsePayload::Proposed {
                digest: "4fce5a18d186eed2".into(),
                score: 0.06857669456518374,
            },
        );
        (request, response)
    }

    /// Frames of [`pinned_messages`] as irgrid 0.21 wrote them.
    const PINNED_REQUEST_JSONL: &[u8] = b"{\"id\":\"pin \\\"1\\\" \xc3\xa9\",\"session\":\"legacy-delta\",\"op\":{\"Propose\":{\"state\":{\"chip\":[700,600],\"segments\":[[90,15,600,500],[20,500,600,15],[-350,10,400,590]]}}}}\n";
    const PINNED_RESPONSE_JSONL: &[u8] = b"{\"id\":\"pin \\\"1\\\" \xc3\xa9\",\"ok\":true,\"replayed\":false,\"payload\":{\"Proposed\":{\"digest\":\"4fce5a18d186eed2\",\"score\":0.06857669456518374}}}\n";
    const PINNED_REQUEST_BINARY: &[u8] = b"\n\x01\x00\x00\x08\x03\x00\x00\x00\x02\x00\x00\x00id\x06\n\x00\x00\x00pin \"1\" \xc3\xa9\x07\x00\x00\x00session\x06\x0c\x00\x00\x00legacy-delta\x02\x00\x00\x00op\x08\x01\x00\x00\x00\x07\x00\x00\x00Propose\x08\x01\x00\x00\x00\x05\x00\x00\x00state\x08\x02\x00\x00\x00\x04\x00\x00\x00chip\x07\x02\x00\x00\x00\x03\xbc\x02\x00\x00\x00\x00\x00\x00\x03X\x02\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00segments\x07\x03\x00\x00\x00\x07\x04\x00\x00\x00\x03Z\x00\x00\x00\x00\x00\x00\x00\x03\x0f\x00\x00\x00\x00\x00\x00\x00\x03X\x02\x00\x00\x00\x00\x00\x00\x03\xf4\x01\x00\x00\x00\x00\x00\x00\x07\x04\x00\x00\x00\x03\x14\x00\x00\x00\x00\x00\x00\x00\x03\xf4\x01\x00\x00\x00\x00\x00\x00\x03X\x02\x00\x00\x00\x00\x00\x00\x03\x0f\x00\x00\x00\x00\x00\x00\x00\x07\x04\x00\x00\x00\x03\xa2\xfe\xff\xff\xff\xff\xff\xff\x03\n\x00\x00\x00\x00\x00\x00\x00\x03\x90\x01\x00\x00\x00\x00\x00\x00\x03N\x02\x00\x00\x00\x00\x00\x00";
    const PINNED_RESPONSE_BINARY: &[u8] = b"\x80\x00\x00\x00\x08\x04\x00\x00\x00\x02\x00\x00\x00id\x06\n\x00\x00\x00pin \"1\" \xc3\xa9\x02\x00\x00\x00ok\x02\x08\x00\x00\x00replayed\x01\x07\x00\x00\x00payload\x08\x01\x00\x00\x00\x08\x00\x00\x00Proposed\x08\x02\x00\x00\x00\x06\x00\x00\x00digest\x06\x10\x00\x00\x004fce5a18d186eed2\x05\x00\x00\x00score\x05\xdd\xdcl\x04>\x8e\xb1?";

    #[test]
    fn pinned_frames_keep_their_bytes() {
        let (request, response) = pinned_messages();
        for (codec, request_bytes, response_bytes) in [
            (
                FrameCodec::Jsonl,
                PINNED_REQUEST_JSONL,
                PINNED_RESPONSE_JSONL,
            ),
            (
                FrameCodec::Binary,
                PINNED_REQUEST_BINARY,
                PINNED_RESPONSE_BINARY,
            ),
        ] {
            assert_eq!(request_frame(codec, &request), request_bytes, "{codec:?}");
            assert_eq!(
                response_frame(codec, &response),
                response_bytes,
                "{codec:?}"
            );
            // And the derived events equal the reference encoder's walk of
            // the derived tree.
            if codec == FrameCodec::Binary {
                assert_eq!(tree_frame(&request.to_value()), request_bytes);
                assert_eq!(tree_frame(&response.to_value()), response_bytes);
            }
        }
    }

    #[test]
    fn binary_value_roundtrip_is_bit_exact() {
        let request = demo_request();
        let frame = request_frame(FrameCodec::Binary, &request);
        assert_eq!(decode::<Request>(&frame[4..]).expect("decode"), request);
        let back = decode::<Value>(&frame[4..]).expect("decode");
        assert_eq!(back, tree_decode(&frame[4..]).expect("reference decode"));
        assert_eq!(Request::from_value(&back).expect("from value"), request);

        // Floats travel as raw bits: a value JSON would print lossily
        // rounds nowhere in binary.
        let tricky = Value::Float(f64::from_bits(0x3FF0_0000_0000_0001));
        let mut bytes = Vec::new();
        encode_value(&tricky, &mut bytes);
        match decode::<Value>(&bytes).expect("decode") {
            Value::Float(f) => assert_eq!(f.to_bits(), 0x3FF0_0000_0000_0001),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn binary_decode_rejects_malformed_frames() {
        assert!(decode::<Value>(&[]).is_err(), "empty payload");
        assert!(decode::<Value>(&[0xFF]).is_err(), "unknown tag");
        assert!(decode::<Value>(&[0x03, 1, 2]).is_err(), "truncated int");
        assert!(decode::<Value>(&[0x00, 0x00]).is_err(), "trailing garbage");
        // String declaring more bytes than present.
        assert!(decode::<Value>(&[0x06, 10, 0, 0, 0, b'a']).is_err());
        // A nesting bomb: seqs of seqs past MAX_DEPTH.
        let mut bomb = vec![[0x07_u8, 1, 0, 0, 0]; 80]
            .into_iter()
            .flatten()
            .collect::<Vec<u8>>();
        bomb.push(0x00);
        let deep = decode::<Value>(&bomb).expect_err("over-deep nesting");
        assert!(deep.contains("deeper than 64"), "{deep}");

        // The same bomb under a key a request does not read: skipping it
        // is bounded too.
        let mut payload = b"\x08\x04\x00\x00\x00".to_vec();
        for (key, value) in [
            ("id", &b"\x06\x01\x00\x00\x00r"[..]),
            ("session", b"\x06\x00\x00\x00\x00"),
            ("op", b"\x06\x04\x00\x00\x00Ping"),
            ("unknown", &bomb),
        ] {
            payload.extend_from_slice(&encode_len(key.len()));
            payload.extend_from_slice(key.as_bytes());
            payload.extend_from_slice(value);
        }
        let err = parse_request_payload(&FramePayload::Binary(payload)).expect_err("deep unknown");
        assert!(err.contains("deeper than 64"), "{err}");

        // A `Propose` whose `segments` announces u32::MAX elements in a
        // frame under 100 bytes: refused as truncated, having reserved no
        // more room than the payload can hold.
        let segments = Value::Map(vec![("segments".into(), Value::Seq(Vec::new()))]);
        let propose = Value::Map(vec![("state".into(), segments)]);
        let request = Value::Map(vec![
            ("id".into(), Value::Str("r".into())),
            ("session".into(), Value::Str("s".into())),
            ("op".into(), Value::Map(vec![("Propose".into(), propose)])),
        ]);
        let mut frame = message_frame(FrameCodec::Binary, &request);
        assert!(frame.len() < 100, "{} bytes", frame.len());
        let at = frame.len() - 4;
        frame[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_and_parse(&frame, true).expect_err("announced u32::MAX segments");
        assert!(err.contains("truncated frame"), "{err}");
    }

    fn demo_proposed() -> Response {
        Response::ok(
            "r-1",
            ResponsePayload::Proposed {
                digest: "abcd".into(),
                score: 1.25,
            },
        )
    }

    /// The binary `Propose` request frame (`request`) or `Proposed`
    /// response frame.
    fn binary_frame(request: bool) -> Vec<u8> {
        if request {
            request_frame(FrameCodec::Binary, &demo_request())
        } else {
            response_frame(FrameCodec::Binary, &demo_proposed())
        }
    }

    /// Reads `bytes` as one binary frame and parses it as a request or a
    /// response; any failure comes back as its text.
    fn read_and_parse(bytes: &[u8], request: bool) -> Result<(), String> {
        let mut reader = BufReader::new(bytes);
        let payload = read_frame(&mut reader, FrameCodec::Binary, 1 << 20, &mut keep())
            .map_err(|err| format!("{err:?}"))?;
        if request {
            parse_request_payload(&payload).map(drop)
        } else {
            parse_response_payload(&payload).map(drop)
        }
    }

    /// [`read_and_parse`] through the reference tree decoder and
    /// `from_value`.
    fn read_and_parse_by_tree(bytes: &[u8], request: bool) -> Result<(), String> {
        let mut reader = BufReader::new(bytes);
        let payload = read_frame(&mut reader, FrameCodec::Binary, 1 << 20, &mut keep())
            .map_err(|err| format!("{err:?}"))?;
        let FramePayload::Binary(bytes) = payload else {
            unreachable!("a binary read gives a binary payload")
        };
        let tree = tree_decode(&bytes)?;
        let parsed = if request {
            Request::from_value(&tree).map(drop)
        } else {
            Response::from_value(&tree).map(drop)
        };
        parsed.map_err(|err| err.to_string())
    }

    #[test]
    fn every_truncation_of_a_binary_frame_is_a_typed_error() {
        for request in [true, false] {
            let frame = binary_frame(request);
            assert_eq!(read_and_parse(&frame, request), Ok(()));
            for cut in 0..frame.len() {
                // The stream ends inside the frame...
                assert!(read_and_parse(&frame[..cut], request).is_err(), "cut {cut}");
                // ...or a whole frame carries a truncated payload.
                if let Some(len) = cut.checked_sub(4) {
                    let mut reframed = encode_len(len).to_vec();
                    reframed.extend_from_slice(&frame[4..cut]);
                    assert!(
                        read_and_parse(&reframed, request).is_err(),
                        "payload cut {cut}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// One flipped byte anywhere in either frame reads and parses to
        /// a message or a typed error, never a panic: the one the
        /// reference tree decoder and `from_value` give, message for
        /// message.
        #[test]
        fn single_byte_flips_never_panic(at in 0usize..4096, flip in 1u8..=255, request in 0u8..2) {
            let request = request == 1;
            let mut frame = binary_frame(request);
            let at = at % frame.len();
            frame[at] ^= flip;
            proptest::prop_assert_eq!(
                read_and_parse(&frame, request),
                read_and_parse_by_tree(&frame, request)
            );
        }
    }

    #[test]
    fn request_and_response_frames_roundtrip_in_both_codecs() {
        let request = demo_request();
        let response = demo_proposed();
        for codec in [FrameCodec::Jsonl, FrameCodec::Binary] {
            let bytes = request_frame(codec, &request);
            let mut reader = BufReader::new(bytes.as_slice());
            let payload = read_frame(&mut reader, codec, 1 << 20, &mut keep()).expect("frame");
            assert_eq!(parse_request_payload(&payload).expect("parse"), request);

            let bytes = response_frame(codec, &response);
            let mut reader = BufReader::new(bytes.as_slice());
            let payload = read_frame(&mut reader, codec, 1 << 20, &mut keep()).expect("frame");
            assert_eq!(parse_response_payload(&payload).expect("parse"), response);
        }
    }

    #[test]
    fn negotiation_picks_the_codec_from_the_first_bytes() {
        let mut jsonl = BufReader::new(&b"{\"id\":\"a\"}\n"[..]);
        assert!(matches!(
            negotiate(&mut jsonl, &mut keep()),
            Ok(FrameCodec::Jsonl)
        ));
        // The JSONL bytes were not consumed.
        let payload =
            read_frame(&mut jsonl, FrameCodec::Jsonl, 1 << 20, &mut keep()).expect("frame");
        assert_eq!(payload, FramePayload::Jsonl("{\"id\":\"a\"}".into()));

        let mut framed = BINARY_MAGIC.to_vec();
        framed.extend_from_slice(&request_frame(FrameCodec::Binary, &demo_request()));
        let mut binary = BufReader::new(framed.as_slice());
        assert!(matches!(
            negotiate(&mut binary, &mut keep()),
            Ok(FrameCodec::Binary)
        ));
        let payload =
            read_frame(&mut binary, FrameCodec::Binary, 1 << 20, &mut keep()).expect("frame");
        assert_eq!(
            parse_request_payload(&payload).expect("parse"),
            demo_request()
        );

        let mut broken = BufReader::new(&b"IRGNOPE\n"[..]);
        assert!(matches!(
            negotiate(&mut broken, &mut keep()),
            Err(FrameReadError::Transport(_))
        ));
    }

    #[test]
    fn oversized_frames_are_refused_and_resynced_in_both_codecs() {
        // JSONL: a long line, then a small valid one.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(format!("{{\"pad\":\"{}\"}}\n", "x".repeat(512)).as_bytes());
        bytes.extend_from_slice(b"{\"id\":\"ok\"}\n");
        let mut reader = BufReader::with_capacity(16, bytes.as_slice());
        assert!(matches!(
            read_frame(&mut reader, FrameCodec::Jsonl, 64, &mut keep()),
            Err(FrameReadError::TooLarge)
        ));
        let next = read_frame(&mut reader, FrameCodec::Jsonl, 64, &mut keep()).expect("resync");
        assert_eq!(next, FramePayload::Jsonl("{\"id\":\"ok\"}".into()));

        // Binary: declared length over the limit is drained, next frame
        // parses. The tiny BufReader capacity proves the payload is
        // never held whole.
        let mut bytes = tree_frame(&Value::Str("y".repeat(512)));
        bytes.extend_from_slice(&tree_frame(&Value::Bool(true)));
        let mut reader = BufReader::with_capacity(16, bytes.as_slice());
        assert!(matches!(
            read_frame(&mut reader, FrameCodec::Binary, 64, &mut keep()),
            Err(FrameReadError::TooLarge)
        ));
        let next = read_frame(&mut reader, FrameCodec::Binary, 64, &mut keep()).expect("resync");
        assert_eq!(
            decode::<Value>(&match next {
                FramePayload::Binary(b) => b,
                other => panic!("expected binary, got {other:?}"),
            })
            .expect("decode"),
            Value::Bool(true)
        );
    }

    #[test]
    fn just_under_the_limit_passes() {
        let line = format!("{}\n", "a".repeat(63));
        let mut reader = BufReader::new(line.as_bytes());
        assert!(read_frame(&mut reader, FrameCodec::Jsonl, 64, &mut keep()).is_ok());

        let config_request = Request {
            id: "x".into(),
            session: "s".into(),
            op: RequestOp::OpenDelta {
                config: SessionConfig::default_config(),
            },
        };
        let frame = request_frame(FrameCodec::Binary, &config_request);
        let payload_len = frame.len() - 4;
        let mut reader = BufReader::new(frame.as_slice());
        let payload = read_frame(&mut reader, FrameCodec::Binary, payload_len, &mut keep())
            .expect("exactly at the limit passes");
        assert_eq!(
            parse_request_payload(&payload).expect("parse"),
            config_request
        );
    }

    #[test]
    fn eof_between_frames_is_closed_not_error() {
        let mut reader = BufReader::new(&b""[..]);
        assert!(matches!(
            read_frame(&mut reader, FrameCodec::Jsonl, 64, &mut keep()),
            Err(FrameReadError::Closed)
        ));
        let mut reader = BufReader::new(&b""[..]);
        assert!(matches!(
            read_frame(&mut reader, FrameCodec::Binary, 64, &mut keep()),
            Err(FrameReadError::Closed)
        ));
        // Torn binary prefix: also a close.
        let mut reader = BufReader::new(&[0x05_u8, 0x00][..]);
        assert!(matches!(
            read_frame(&mut reader, FrameCodec::Binary, 64, &mut keep()),
            Err(FrameReadError::Closed)
        ));
    }
}
