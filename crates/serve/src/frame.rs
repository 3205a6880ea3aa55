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
//! The payload is the request/response's serde value tree — the same
//! tree the JSONL codec prints — so the two framings are bit-equivalent
//! in content (floats travel as raw bits in both: the JSON writer
//! round-trips `f64` exactly).

use std::io::BufRead;

use serde::{Deserialize, Serialize, Value};

use crate::protocol::{Request, Response};

/// First bytes of a connection that opts into binary framing.
pub const BINARY_MAGIC: [u8; 8] = *b"IRGBIN1\n";

/// Nesting depth bound for binary decoding (a hostile frame could
/// otherwise recurse the stack); protocol values are ≤ 6 deep.
const MAX_DEPTH: u32 = 64;

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
            let text = String::from_utf8_lossy(&line).into_owned();
            return Ok(text.trim_end_matches(['\n', '\r']).to_owned());
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

/// Encodes a serde value tree in the binary layout.
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
            encode_len(items.len(), out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(0x08);
            encode_len(entries.len(), out);
            for (key, item) in entries {
                encode_bytes(key.as_bytes(), out);
                encode_value(item, out);
            }
        }
    }
}

fn encode_len(len: usize, out: &mut Vec<u8>) {
    // Frames are bounded to max_frame_bytes (< 4 GiB) long before any
    // collection could exceed u32.
    // irgrid-lint: allow(P1): lengths inside a bounded frame fit u32
    let len = u32::try_from(len).expect("frame collection length fits u32");
    out.extend_from_slice(&len.to_le_bytes());
}

fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    encode_len(bytes.len(), out);
    out.extend_from_slice(bytes);
}

/// A byte cursor for binary decoding.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, count: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(count)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("truncated frame: need {count} bytes at {}", self.at))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn take_u32(&mut self) -> Result<u32, String> {
        let bytes = self.take(4)?;
        // irgrid-lint: allow(P1): take(4) returned exactly 4 bytes
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn take_u64(&mut self) -> Result<u64, String> {
        let bytes = self.take(8)?;
        // irgrid-lint: allow(P1): take(8) returned exactly 8 bytes
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn take_string(&mut self) -> Result<String, String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|err| format!("invalid utf-8 in frame: {err}"))
    }

    fn take_value(&mut self, depth: u32) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("frame nests deeper than {MAX_DEPTH}"));
        }
        let tag = self.take(1)?[0];
        Ok(match tag {
            0x00 => Value::Null,
            0x01 => Value::Bool(false),
            0x02 => Value::Bool(true),
            0x03 => Value::Int(i64::from_le_bytes(
                // irgrid-lint: allow(P1): take(8) returned exactly 8 bytes
                self.take(8)?.try_into().expect("8 bytes"),
            )),
            0x04 => Value::UInt(self.take_u64()?),
            0x05 => Value::Float(f64::from_bits(self.take_u64()?)),
            0x06 => Value::Str(self.take_string()?),
            0x07 => {
                let count = self.take_u32()? as usize;
                // Bound pre-allocation by what the payload can hold.
                let mut items = Vec::with_capacity(count.min(self.bytes.len() - self.at));
                for _ in 0..count {
                    items.push(self.take_value(depth + 1)?);
                }
                Value::Seq(items)
            }
            0x08 => {
                let count = self.take_u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(self.bytes.len() - self.at));
                for _ in 0..count {
                    let key = self.take_string()?;
                    entries.push((key, self.take_value(depth + 1)?));
                }
                Value::Map(entries)
            }
            other => return Err(format!("unknown value tag 0x{other:02x}")),
        })
    }
}

/// Decodes one binary payload into a serde value tree.
///
/// # Errors
///
/// Returns a description of the malformation (truncation, bad tag, bad
/// UTF-8, over-deep nesting, trailing garbage).
pub fn decode_value(bytes: &[u8]) -> Result<Value, String> {
    let mut cursor = Cursor { bytes, at: 0 };
    let value = cursor.take_value(0)?;
    if cursor.at != bytes.len() {
        return Err(format!(
            "{} trailing bytes after the value",
            bytes.len() - cursor.at
        ));
    }
    Ok(value)
}

/// Encodes any protocol message as one frame in the given codec.
fn message_frame<T: Serialize>(codec: FrameCodec, message: &T) -> Vec<u8> {
    match codec {
        FrameCodec::Jsonl => {
            let serialized = serde_json::to_string(message);
            // irgrid-lint: allow(P1): serializing a plain owned data struct cannot fail
            let mut text = serialized.expect("message serialization is infallible");
            text.push('\n');
            text.into_bytes()
        }
        FrameCodec::Binary => {
            let mut payload = Vec::new();
            encode_value(&message.to_value(), &mut payload);
            let mut frame = Vec::with_capacity(payload.len() + 4);
            encode_len(payload.len(), &mut frame);
            frame.extend_from_slice(&payload);
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

fn payload_value(payload: &FramePayload) -> Result<Value, String> {
    match payload {
        FramePayload::Jsonl(line) => serde_json::from_str(line).map_err(|err| err.to_string()),
        FramePayload::Binary(bytes) => decode_value(bytes),
    }
}

/// Parses a received frame as a [`Request`].
///
/// # Errors
///
/// Returns the parse failure text for a `MalformedFrame` reply.
pub fn parse_request_payload(payload: &FramePayload) -> Result<Request, String> {
    let value = payload_value(payload)?;
    Request::from_value(&value).map_err(|err| err.to_string())
}

/// Parses a received frame as a [`Response`].
///
/// # Errors
///
/// Returns the parse failure text.
pub fn parse_response_payload(payload: &FramePayload) -> Result<Response, String> {
    let value = payload_value(payload)?;
    Response::from_value(&value).map_err(|err| err.to_string())
}

/// Best-effort recovery of the `id` field from a frame that failed to
/// parse as a full [`Request`], so the error reply can be matched.
#[must_use]
pub fn recover_payload_id(payload: &FramePayload) -> String {
    match payload_value(payload) {
        Ok(value) => match value.get("id") {
            Some(Value::Str(id)) => id.clone(),
            _ => String::new(),
        },
        Err(_) => String::new(),
    }
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
    use std::io::BufReader;

    fn keep() -> impl FnMut() -> bool {
        || true
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

    #[test]
    fn binary_value_roundtrip_is_bit_exact() {
        let request = demo_request();
        let mut payload = Vec::new();
        encode_value(&request.to_value(), &mut payload);
        let back = decode_value(&payload).expect("decode");
        assert_eq!(Request::from_value(&back).expect("from value"), request);

        // Floats travel as raw bits: a value JSON would print lossily
        // rounds nowhere in binary.
        let tricky = Value::Float(f64::from_bits(0x3FF0_0000_0000_0001));
        let mut bytes = Vec::new();
        encode_value(&tricky, &mut bytes);
        match decode_value(&bytes).expect("decode") {
            Value::Float(f) => assert_eq!(f.to_bits(), 0x3FF0_0000_0000_0001),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn binary_decode_rejects_malformed_frames() {
        assert!(decode_value(&[]).is_err(), "empty payload");
        assert!(decode_value(&[0xFF]).is_err(), "unknown tag");
        assert!(decode_value(&[0x03, 1, 2]).is_err(), "truncated int");
        assert!(decode_value(&[0x00, 0x00]).is_err(), "trailing garbage");
        // String declaring more bytes than present.
        assert!(decode_value(&[0x06, 10, 0, 0, 0, b'a']).is_err());
        // A nesting bomb: seqs of seqs past MAX_DEPTH.
        let mut bomb = vec![[0x07_u8, 1, 0, 0, 0]; 80]
            .into_iter()
            .flatten()
            .collect::<Vec<u8>>();
        bomb.push(0x00);
        assert!(decode_value(&bomb).is_err(), "over-deep nesting");
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
                    let mut reframed = Vec::new();
                    encode_len(len, &mut reframed);
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
        /// a message or a typed error, never a panic.
        #[test]
        fn single_byte_flips_never_panic(at in 0usize..4096, flip in 1u8..=255, request in 0u8..2) {
            let request = request == 1;
            let mut frame = binary_frame(request);
            let at = at % frame.len();
            frame[at] ^= flip;
            let _ = read_and_parse(&frame, request);
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
        let mut huge = Vec::new();
        encode_value(&Value::Str("y".repeat(512)), &mut huge);
        let mut bytes = Vec::new();
        encode_len(huge.len(), &mut bytes);
        bytes.extend_from_slice(&huge);
        let mut small = Vec::new();
        encode_value(&Value::Bool(true), &mut small);
        encode_len(small.len(), &mut bytes);
        bytes.extend_from_slice(&small);
        let mut reader = BufReader::with_capacity(16, bytes.as_slice());
        assert!(matches!(
            read_frame(&mut reader, FrameCodec::Binary, 64, &mut keep()),
            Err(FrameReadError::TooLarge)
        ));
        let next = read_frame(&mut reader, FrameCodec::Binary, 64, &mut keep()).expect("resync");
        assert_eq!(
            decode_value(&match next {
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
