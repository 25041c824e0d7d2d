//! Wire protocol: length-prefixed JSON frames, optional raw payload
//! tails, and the error vocabulary.
//!
//! Every message — request or response — starts with one **frame**: a
//! 4-byte big-endian `u32` payload length followed by that many bytes of
//! UTF-8 JSON. Frames larger than [`MAX_FRAME`] are rejected before the
//! payload is read, so a hostile length prefix cannot make the server
//! allocate 4 GiB. A frame is always handed to the transport as one
//! buffer (prefix and payload in a single `write`), and both ends run
//! their sockets with `TCP_NODELAY`: a frame split across two small
//! segments would sit in Nagle's algorithm until the peer's delayed ACK.
//!
//! # Raw payload tails
//!
//! Region bytes do not have to travel as text. A frame whose JSON object
//! carries [`TAIL_FIELD`] (`"payload_bytes": n`) is followed on the wire
//! by exactly `n` raw bytes — arbitrary bytes, not UTF-8, not
//! length-prefixed again. The rules:
//!
//! * **Who may send one.** A client on `write` (the tail is the bytes to
//!   store); the server on the `data` reply to a `read` that asked for
//!   `"raw": true`. Any other request that announces a tail is answered
//!   `bad_request`.
//! * **Cap.** `n` is held to the same [`MAX_FRAME`] limit as a frame and
//!   is checked off the parsed header, before a byte of the tail is
//!   buffered or allocated for ([`tail_len`]). A non-integer
//!   `payload_bytes` is a framing error like a bad length prefix: the
//!   reader cannot know where the next frame starts, so it answers and
//!   closes.
//! * **Sync.** A reader that has parsed a header always consumes the
//!   announced tail, whether or not the request is then refused, so the
//!   next frame on the connection starts where it should. A connection
//!   that ends inside a tail is [`FrameError::Truncated`].
//!
//! Lowercase hex strings ([`to_hex`] / [`from_hex`], a `"hex"` field)
//! remain the compatibility form for peers that write JSON by hand: a
//! `write` carries either `hex` or a tail, and a `read` without `raw`
//! answers `{"type":"data","hex":...}` exactly as before.
//!
//! # Requests and responses
//!
//! Requests are JSON objects with a `"type"` field; an optional `"id"`
//! field of any JSON shape is echoed verbatim on the matching response so
//! clients can pipeline. Responses are objects whose `"type"` is either a
//! result kind, `"error"` (with `code` and `message`), or `"overloaded"`
//! (admission queue full — retry later).

use crate::json::Json;
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload, requests and responses alike
/// (16 MiB — comfortably above the largest region transfer the bench
/// clients make, far below an allocation-of-death).
pub const MAX_FRAME: u32 = 16 << 20;

/// The header field announcing a raw tail: `"payload_bytes": n` means `n`
/// raw bytes follow the frame (see the module docs).
pub const TAIL_FIELD: &str = "payload_bytes";

/// Error codes carried in `{"type":"error","code":...}` responses.
///
/// Codes are stable protocol surface; messages are human-readable detail
/// and may change.
pub mod codes {
    /// Frame length prefix, announced tail length, or a response the server
    /// built exceeded [`super::MAX_FRAME`].
    pub const OVERSIZED_FRAME: &str = "oversized_frame";
    /// Connection ended mid-frame.
    pub const TRUNCATED_FRAME: &str = "truncated_frame";
    /// Frame payload was not valid UTF-8.
    pub const BAD_UTF8: &str = "bad_utf8";
    /// Frame payload was not valid JSON.
    pub const BAD_JSON: &str = "bad_json";
    /// Request `"type"` not recognised.
    pub const UNKNOWN_TYPE: &str = "unknown_type";
    /// Required field missing or of the wrong shape.
    pub const BAD_REQUEST: &str = "bad_request";
    /// `session` does not name an open session on this server.
    pub const NO_SUCH_SESSION: &str = "no_such_session";
    /// Kernel-language compilation failed in `open_session`.
    pub const COMPILE_ERROR: &str = "compile_error";
    /// Shared-region allocation failed.
    pub const ALLOC_FAILED: &str = "alloc_failed";
    /// A kernel trapped during a launch.
    pub const TRAP: &str = "trap";
    /// Launch named a kernel class the session's source does not define.
    pub const NO_SUCH_KERNEL: &str = "no_such_kernel";
    /// `parallel_reduce` on a class without a `join` method.
    pub const NO_JOIN: &str = "no_join";
    /// Static analysis found race/safety errors and the session's gate is
    /// `deny`. The error response carries the full report under a
    /// `diagnostics` field.
    pub const ANALYSIS_DENIED: &str = "analysis_denied";
    /// The session asked for the native JIT backend on a host where it is
    /// not available (the backend is x86-64 Linux only).
    pub const NATIVE_UNSUPPORTED: &str = "native_unsupported";
    /// The request sat in the admission queue past its `deadline_ms`.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// A region read/write faulted (bad address, wrong space).
    pub const REGION_FAULT: &str = "region_fault";
    /// Server is draining; no new work is admitted.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The request's tenant is over its admission quota (max inflight or
    /// queue share). Distinct from `overloaded`: the queue had room, but
    /// this tenant is not allowed to take more of it.
    pub const QUOTA_EXCEEDED: &str = "quota_exceeded";
    /// The server failed while handling the request (a handler panicked).
    /// The request's effects are unknown; a session it held locked is
    /// closed.
    pub const INTERNAL_ERROR: &str = "internal_error";
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Transport error underneath the framing.
    Io(io::Error),
    /// The peer closed the connection mid-frame (inside the length prefix,
    /// the payload, or an announced tail).
    Truncated,
    /// The length prefix or the announced tail length exceeded
    /// [`MAX_FRAME`] (lengths beyond `u32` saturate).
    Oversized(u32),
    /// The payload was not valid UTF-8.
    BadUtf8,
    /// [`TAIL_FIELD`] was present but not a non-negative integer, so the
    /// position of the next frame is unknown.
    BadTail,
}

impl FrameError {
    /// The protocol error code a server should answer with before closing
    /// the connection.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            FrameError::Io(_) | FrameError::Truncated => codes::TRUNCATED_FRAME,
            FrameError::Oversized(_) => codes::OVERSIZED_FRAME,
            FrameError::BadUtf8 => codes::BAD_UTF8,
            FrameError::BadTail => codes::BAD_REQUEST,
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Truncated => f.write_str("connection closed mid-frame"),
            FrameError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::BadUtf8 => f.write_str("frame payload is not valid UTF-8"),
            FrameError::BadTail => write!(f, "`{TAIL_FIELD}` must be a non-negative integer"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Read one frame. `Ok(None)` means the peer closed the connection cleanly
/// at a frame boundary; mid-frame EOF is [`FrameError::Truncated`].
///
/// # Errors
///
/// [`FrameError`] on transport errors, truncation, an oversized length
/// prefix, or a non-UTF-8 payload.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, FrameError> {
    let mut header = [0u8; 4];
    // Distinguish clean EOF (0 bytes of header) from truncation.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload).map(Some).map_err(|_| FrameError::BadUtf8)
}

/// The length of the raw tail that `head` announces, `None` when it
/// announces none. Checked against [`MAX_FRAME`] here, off the parsed
/// header, so no caller buffers or allocates for a length it has not seen
/// pass.
///
/// # Errors
///
/// [`FrameError::Oversized`] over the cap, [`FrameError::BadTail`] when the
/// field is not a non-negative integer.
pub fn tail_len(head: &Json) -> Result<Option<usize>, FrameError> {
    let Some(field) = head.get(TAIL_FIELD) else { return Ok(None) };
    let n = field.as_u64().ok_or(FrameError::BadTail)?;
    if n > u64::from(MAX_FRAME) {
        return Err(FrameError::Oversized(u32::try_from(n).unwrap_or(u32::MAX)));
    }
    Ok(Some(n as usize))
}

/// Read the raw tail that `head` (a frame just read from `r` and parsed)
/// announces; `None` when it announces none. Call it for every frame,
/// wanted or not: the tail is part of the byte stream.
///
/// # Errors
///
/// See [`tail_len`]; [`FrameError::Truncated`] when the stream ends inside
/// the tail.
pub fn read_tail(r: &mut impl Read, head: &Json) -> Result<Option<Vec<u8>>, FrameError> {
    let Some(n) = tail_len(head)? else { return Ok(None) };
    let mut tail = vec![0u8; n];
    r.read_exact(&mut tail)?;
    Ok(Some(tail))
}

fn oversized(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("{len} bytes exceed the {MAX_FRAME}-byte frame limit"),
    )
}

/// The one frame builder: append a length prefix and `body`'s text to
/// `buf`. The prefix is reserved first, the text is formatted straight
/// behind it, then the length is patched in — prefix and payload are one
/// contiguous buffer and reach the socket in one `write`. On error `buf`
/// is left as it was.
fn push_frame(buf: &mut Vec<u8>, body: &dyn fmt::Display) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    write!(buf, "{body}")?;
    let len = buf.len() - start - 4;
    match u32::try_from(len).ok().filter(|&l| l <= MAX_FRAME) {
        Some(l) => {
            buf[start..start + 4].copy_from_slice(&l.to_be_bytes());
            Ok(())
        }
        None => {
            buf.truncate(start);
            Err(oversized(len))
        }
    }
}

/// Write one frame (length prefix + payload) with a single `write_all`.
/// The caller flushes.
///
/// # Errors
///
/// `InvalidInput` when the payload exceeds [`MAX_FRAME`]; otherwise
/// transport errors.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    write_one(w, &payload)
}

fn write_one(w: &mut impl Write, body: &dyn fmt::Display) -> io::Result<()> {
    let mut buf = Vec::new();
    push_frame(&mut buf, body)?;
    w.write_all(&buf)
}

/// Serialize and send one JSON message as a frame (a single `write_all`),
/// flushing the stream.
///
/// # Errors
///
/// See [`write_frame`].
pub fn send(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    write_one(w, msg)?;
    w.flush()
}

/// Render one JSON message to its on-wire bytes (length prefix included).
///
/// The event-loop server stages responses in per-connection outboxes and
/// writes them when the socket reports writable; this produces the exact
/// bytes [`send`] would have written. A message over [`MAX_FRAME`] cannot
/// be sent at all; it renders as an `oversized_frame` error response
/// carrying the message's `id` instead, so the peer waiting on that id
/// gets an answer rather than silence.
#[must_use]
pub fn frame_bytes(msg: &Json) -> Vec<u8> {
    let mut buf = Vec::new();
    if let Err(e) = push_frame(&mut buf, msg) {
        let refusal = error_response(
            codes::OVERSIZED_FRAME,
            &format!("response not sent: {e}"),
            msg.get("id"),
        );
        push_frame(&mut buf, &refusal).expect("an error response fits a frame");
    }
    buf
}

/// Render `head` plus a raw tail to on-wire bytes: [`TAIL_FIELD`] is added
/// to `head` (which must be an object), and `tail` is copied once, behind
/// the frame, into the same buffer.
///
/// # Errors
///
/// `InvalidInput` when the frame or the tail exceeds [`MAX_FRAME`].
pub fn frame_with_tail(mut head: Json, tail: &[u8]) -> io::Result<Vec<u8>> {
    if tail.len() > MAX_FRAME as usize {
        return Err(oversized(tail.len()));
    }
    if let Json::Obj(fields) = &mut head {
        fields.push((TAIL_FIELD.to_string(), tail.len().into()));
    }
    let mut buf = Vec::with_capacity(tail.len() + 128);
    push_frame(&mut buf, &head)?;
    buf.extend_from_slice(tail);
    Ok(buf)
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Value of each byte as a hex digit, `0xff` for bytes that are not one.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xffu8; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Lowercase hex encoding of raw region bytes.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len() * 2];
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair[0] = HEX_DIGITS[usize::from(b >> 4)];
        pair[1] = HEX_DIGITS[usize::from(b & 0xf)];
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decode a hex string produced by [`to_hex`] (case-insensitive).
///
/// # Errors
///
/// A description of the offending character or an odd-length input.
pub fn from_hex(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("hex string has odd length".to_string());
    }
    let mut out = vec![0u8; hex.len() / 2];
    for (byte, pair) in out.iter_mut().zip(hex.as_bytes().chunks_exact(2)) {
        let (hi, lo) = (HEX_VALUES[usize::from(pair[0])], HEX_VALUES[usize::from(pair[1])]);
        if (hi | lo) == 0xff {
            return Err(format!("invalid hex digit in `{}{}`", pair[0] as char, pair[1] as char));
        }
        *byte = hi << 4 | lo;
    }
    Ok(out)
}

/// Build an `{"type":"error"}` response, echoing the request `id` when the
/// request carried one.
#[must_use]
pub fn error_response(code: &str, message: &str, id: Option<&Json>) -> Json {
    let mut fields = vec![
        ("type".to_string(), Json::str("error")),
        ("code".to_string(), Json::str(code)),
        ("message".to_string(), Json::str(message)),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), id.clone()));
    }
    Json::Obj(fields)
}

/// Build an `{"type":"error"}` response that additionally carries a
/// structured `diagnostics` payload (e.g. the static-analysis report
/// behind an [`codes::ANALYSIS_DENIED`] refusal).
#[must_use]
pub fn error_response_detailed(
    code: &str,
    message: &str,
    diagnostics: Json,
    id: Option<&Json>,
) -> Json {
    let mut resp = error_response(code, message, id);
    if let Json::Obj(fields) = &mut resp {
        fields.push(("diagnostics".to_string(), diagnostics));
    }
    resp
}

/// Attach the echoed request `id` to a response under construction.
#[must_use]
pub fn with_id(mut response: Json, id: Option<&Json>) -> Json {
    if let (Json::Obj(fields), Some(id)) = (&mut response, id) {
        fields.push(("id".to_string(), id.clone()));
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\":\"ping\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"type\":\"ping\"}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at boundary");
    }

    #[test]
    fn truncated_header_and_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        // Cut inside the payload.
        let mut r = &buf[..buf.len() - 2];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Cut inside the header.
        let mut r = &buf[..2];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_prefix_rejected_without_reading_payload() {
        let mut buf = (MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadUtf8)));
    }

    /// A sink that counts `write` calls and takes whatever it is given.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_reaches_the_transport_in_one_write() {
        // Prefix and payload in separate writes are separate TCP segments,
        // and the second waits out the peer's delayed ACK of the first.
        let mut w = CountingWriter { writes: 0, bytes: Vec::new() };
        write_frame(&mut w, "{\"type\":\"ping\"}").unwrap();
        assert_eq!(w.writes, 1, "write_frame");
        let msg = Json::obj(vec![("type", Json::str("ping")), ("id", 7u64.into())]);
        send(&mut w, &msg).unwrap();
        assert_eq!(w.writes, 2, "send");
        let mut r = &w.bytes[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"type\":\"ping\"}"));
        assert_eq!(read_frame(&mut r).unwrap(), Some(msg.to_string()));
        assert_eq!(frame_bytes(&msg), w.bytes[w.bytes.len() - 4 - msg.to_string().len()..]);
    }

    #[test]
    fn oversized_response_becomes_an_error_frame_with_the_same_id() {
        let id = Json::Num(41.0);
        let huge = Json::obj(vec![
            ("type", Json::str("data")),
            ("hex", Json::Str("0".repeat(MAX_FRAME as usize + 1))),
            ("id", id.clone()),
        ]);
        let frame = frame_bytes(&huge);
        assert!(!frame.is_empty(), "an empty outbox entry leaves the client waiting forever");
        let payload = read_frame(&mut &frame[..]).unwrap().expect("one whole frame");
        let resp = parse(&payload).unwrap();
        assert_eq!(resp.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(resp.get("code").and_then(Json::as_str), Some(codes::OVERSIZED_FRAME));
        assert_eq!(resp.get("id"), Some(&id));
        // The fallible writers refuse instead, and write nothing.
        let mut w = CountingWriter { writes: 0, bytes: Vec::new() };
        assert!(send(&mut w, &huge).is_err());
        assert_eq!(w.writes, 0);
    }

    #[test]
    fn tails_round_trip_and_keep_the_stream_in_sync() {
        let head = Json::obj(vec![("type", Json::str("write")), ("id", 1u64.into())]);
        let tail = [0xff, 0x00, 0xfe, b'{', 0x80];
        let mut wire = frame_with_tail(head, &tail).unwrap();
        wire.extend_from_slice(&frame_with_tail(Json::obj(vec![]), &[]).unwrap());
        write_frame(&mut wire, "{\"type\":\"ping\"}").unwrap();
        let mut r = &wire[..];
        let first = parse(&read_frame(&mut r).unwrap().unwrap()).unwrap();
        assert_eq!(first.get(TAIL_FIELD).and_then(Json::as_u64), Some(5));
        assert_eq!(read_tail(&mut r, &first).unwrap().as_deref(), Some(&tail[..]));
        let empty = parse(&read_frame(&mut r).unwrap().unwrap()).unwrap();
        assert_eq!(read_tail(&mut r, &empty).unwrap().as_deref(), Some(&[][..]), "zero-length");
        let ping = parse(&read_frame(&mut r).unwrap().unwrap()).unwrap();
        assert_eq!(read_tail(&mut r, &ping).unwrap(), None, "no tail announced");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at boundary");
        // Cut inside the tail.
        let mut r = &wire[..wire.len() - 30];
        let first = parse(&read_frame(&mut r).unwrap().unwrap()).unwrap();
        let mut cut = &r[..3];
        assert!(matches!(read_tail(&mut cut, &first), Err(FrameError::Truncated)));
    }

    #[test]
    fn announced_tail_length_is_checked_off_the_header() {
        let announce = |v: Json| Json::obj(vec![(TAIL_FIELD, v)]);
        assert_eq!(tail_len(&Json::obj(vec![])).unwrap(), None);
        assert_eq!(tail_len(&announce(u64::from(MAX_FRAME).into())).unwrap(), Some(16 << 20));
        for over in [u64::from(MAX_FRAME) + 1, 1 << 40] {
            // Nothing is read (an empty reader would be `Truncated`).
            let mut empty: &[u8] = &[];
            assert!(matches!(
                read_tail(&mut empty, &announce(over.into())),
                Err(FrameError::Oversized(_))
            ));
        }
        for bad in [Json::Num(-1.0), Json::Num(1.5), Json::str("9"), Json::Null] {
            assert!(matches!(tail_len(&announce(bad)), Err(FrameError::BadTail)));
        }
        assert!(frame_with_tail(Json::obj(vec![]), &vec![0; MAX_FRAME as usize + 1]).is_err());
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(to_hex(&[0x0f, 0xa0]), "0fa0");
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "bad digit");
        assert_eq!(from_hex("0Fa0").unwrap(), [0x0f, 0xa0], "case-insensitive");
        assert!(from_hex("éé").is_err(), "non-ASCII bytes are not digits");
    }

    #[test]
    fn detailed_error_carries_diagnostics() {
        let diags = Json::Arr(vec![Json::str("finding")]);
        let e = error_response_detailed(codes::ANALYSIS_DENIED, "denied", diags.clone(), None);
        assert_eq!(e.get("code").and_then(Json::as_str), Some(codes::ANALYSIS_DENIED));
        assert_eq!(e.get("diagnostics"), Some(&diags));
    }

    #[test]
    fn error_response_echoes_id() {
        let id = Json::Num(7.0);
        let e = error_response(codes::BAD_JSON, "nope", Some(&id));
        assert_eq!(e.get("code").and_then(Json::as_str), Some(codes::BAD_JSON));
        assert_eq!(e.get("id"), Some(&id));
        assert!(error_response(codes::BAD_JSON, "nope", None).get("id").is_none());
    }
}
