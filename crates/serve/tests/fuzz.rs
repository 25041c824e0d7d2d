//! Fuzz/property battery for the frame codec and the event-loop server's
//! connection state machine.
//!
//! Two layers:
//!
//! * **Pure codec properties** — `write_frame`/`read_frame` round-trips
//!   (including coalesced frames and split reads), raw payload tails of
//!   arbitrary bytes, hex codec round-trips, and `parse` totality over
//!   arbitrary input.
//! * **Live-server properties** — a shared server is bombarded with
//!   random bytes, mutated frames, and pathologically split/coalesced
//!   valid traffic, with and without raw tails. The contract under fuzz: every byte sequence the
//!   server emits is well-framed JSON, every violation is answered with a
//!   structured error (or a clean close), and the connection never
//!   wedges — a bounded read timeout converts "no answer" into a failure.
//!
//! The proptest shim is deterministic (seeded per test name), so CI runs
//! a fixed, reproducible battery; the total across properties is kept at
//! 1000+ cases.

use concord_serve::json::{parse, Json};
use concord_serve::protocol::{
    frame_with_tail, from_hex, read_frame, read_tail, to_hex, write_frame, FrameError, MAX_FRAME,
};
use concord_serve::{Client, ServeConfig, Server, SessionOptions};
use proptest::prelude::*;
use std::io::{BufReader, Cursor, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// One server shared by every live-traffic property: hundreds of
/// connections against a single event loop is itself part of the test.
fn server_addr() -> SocketAddr {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let config = ServeConfig { workers: 2, queue_depth: 16, ..ServeConfig::default() };
            Server::bind(&config).expect("bind fuzz server")
        })
        .addr()
}

/// Read every frame the server sends until it closes the connection.
/// Panics if the server wedges (read timeout), closes mid-frame, or emits
/// anything that is not valid JSON.
fn drain_frames(stream: TcpStream) -> Vec<Json> {
    drain_tailed(stream).into_iter().map(|(frame, _)| frame).collect()
}

/// [`drain_frames`], keeping the raw tail each frame announces.
fn drain_tailed(stream: TcpStream) -> Vec<(Json, Option<Vec<u8>>)> {
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    loop {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => {
                let frame = parse(&payload).expect("server emitted invalid JSON");
                let tail = read_tail(&mut reader, &frame).expect("server cut a tail short");
                out.push((frame, tail));
            }
            Ok(None) => return out,
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("server wedged: no response or close within the timeout")
            }
            Err(e) => panic!("server emitted a malformed frame: {e}"),
        }
    }
}

/// Every response frame must be structured: an object with a string
/// `type`. Anything else means the server leaked garbage under fuzz.
fn assert_structured(frames: &[Json]) {
    for f in frames {
        let ty = f.get("type").and_then(Json::as_str);
        assert!(ty.is_some(), "response frame without a string `type`: {f:?}");
    }
}

/// A valid `ping` frame with an id, as raw wire bytes.
fn ping_bytes(id: u64) -> Vec<u8> {
    let msg = Json::obj(vec![("type", Json::str("ping")), ("id", id.into())]);
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg.to_string()).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Frames round-trip through the codec, one at a time and coalesced.
    #[test]
    fn frame_roundtrip(a in "[ -~]{0,300}", b in "[ -~]{0,120}") {
        let mut wire = Vec::new();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut r = Cursor::new(wire);
        prop_assert_eq!(read_frame(&mut r).unwrap().unwrap(), a);
        prop_assert_eq!(read_frame(&mut r).unwrap().unwrap(), b);
        prop_assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after both frames");
    }

    /// A raw tail carries arbitrary bytes (invalid UTF-8, bytes that look
    /// like frames) and leaves the stream at the next frame, whether the
    /// reader wanted the tail or not.
    #[test]
    fn tail_roundtrip(tail in collection::vec(any::<u8>(), 0..300), next in "[ -~]{0,60}") {
        let head = Json::obj(vec![("type", Json::str("write")), ("note", next.as_str().into())]);
        let mut wire = frame_with_tail(head.clone(), &tail).unwrap();
        write_frame(&mut wire, &next).unwrap();
        let mut r = Cursor::new(wire);
        let got = parse(&read_frame(&mut r).unwrap().unwrap()).unwrap();
        prop_assert_eq!(got.get("note"), head.get("note"));
        prop_assert_eq!(read_tail(&mut r, &got).unwrap(), Some(tail));
        prop_assert_eq!(read_frame(&mut r).unwrap().unwrap(), next);
        prop_assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after the tail's successor");
    }

    /// The hex payload codec round-trips arbitrary bytes, and decoding
    /// arbitrary strings is total (structured `Err`, never a panic).
    #[test]
    fn hex_roundtrip(bytes in collection::vec(any::<u8>(), 0..64), junk in "[ -~]{0,32}") {
        let hex = to_hex(&bytes);
        prop_assert_eq!(from_hex(&hex).unwrap(), bytes);
        let _ = from_hex(&junk); // must not panic
    }

    /// JSON parsing is total over arbitrary printable input.
    #[test]
    fn parse_is_total(s in "[ -~\\n\\t]{0,200}") {
        let _ = parse(&s); // Ok or Err, never a panic
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(75))]

    /// A truncated frame read hits `Truncated`, not a panic or a hang.
    #[test]
    fn truncated_reads_are_structured(payload in "[ -~]{1,80}", cut in any::<u64>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let cut = 1 + (cut as usize) % (wire.len() - 1);
        let mut r = Cursor::new(&wire[..cut]);
        match read_frame(&mut r) {
            Err(FrameError::Truncated) => {}
            other => panic!("expected Truncated for a {cut}-byte prefix, got {other:?}"),
        }
    }

    /// Oversized length prefixes are refused without allocating.
    #[test]
    fn oversized_prefixes_are_refused(extra in any::<u32>()) {
        let len = MAX_FRAME.saturating_add(extra.max(1));
        let mut r = Cursor::new(len.to_be_bytes().to_vec());
        match read_frame(&mut r) {
            Err(FrameError::Oversized(got)) => assert_eq!(got, len),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Pure random bytes: the server answers with structured errors (or
    /// nothing, if the garbage never completes a frame) and always closes
    /// the connection after our half-close — it never panics, never emits
    /// garbage, never wedges.
    #[test]
    fn random_bytes_never_wedge_the_server(bytes in collection::vec(any::<u8>(), 0..128)) {
        let stream = TcpStream::connect(server_addr()).unwrap();
        let mut w = stream.try_clone().unwrap();
        let _ = w.write_all(&bytes);
        let _ = w.flush();
        let _ = stream.shutdown(Shutdown::Write);
        assert_structured(&drain_frames(stream));
    }

    /// Mutated valid traffic: take well-formed ping frames and corrupt
    /// them (bit flips, truncation, duplicated header bytes, garbage
    /// prefixes). Same contract as raw garbage.
    #[test]
    fn mutated_frames_get_structured_errors(
        kind in 0u8..4,
        pos in any::<u64>(),
        byte in any::<u8>(),
        id in any::<u64>(),
    ) {
        let mut wire = ping_bytes(id);
        let pos = (pos as usize) % wire.len();
        match kind {
            0 => wire[pos] ^= byte | 1,            // corrupt one byte
            1 => wire.truncate(pos.max(1)),        // cut the tail off
            2 => wire.insert(pos, byte),           // shift the framing
            3 => {
                let mut prefixed = vec![byte, byte.wrapping_add(1)];
                prefixed.extend_from_slice(&wire); // garbage before the header
                wire = prefixed;
            }
            _ => unreachable!(),
        }
        let stream = TcpStream::connect(server_addr()).unwrap();
        let mut w = stream.try_clone().unwrap();
        let _ = w.write_all(&wire);
        let _ = w.flush();
        let _ = stream.shutdown(Shutdown::Write);
        assert_structured(&drain_frames(stream));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(125))]

    /// Valid traffic under pathological delivery: several pings serialized
    /// back to back, then re-chunked at arbitrary boundaries (splitting
    /// length prefixes, coalescing adjacent frames). Every ping must be
    /// answered with its own pong regardless of packetization.
    #[test]
    fn split_and_coalesced_pings_all_answer(
        n in 1u64..6,
        cuts in collection::vec(any::<u64>(), 0..8),
    ) {
        let mut wire = Vec::new();
        for id in 0..n {
            wire.extend_from_slice(&ping_bytes(id));
        }
        let mut bounds: Vec<usize> = cuts.iter().map(|c| (*c as usize) % wire.len()).collect();
        bounds.push(0);
        bounds.push(wire.len());
        bounds.sort_unstable();
        bounds.dedup();
        let stream = TcpStream::connect(server_addr()).unwrap();
        let mut w = stream.try_clone().unwrap();
        for pair in bounds.windows(2) {
            // One write per chunk: the loop sees torn headers and payload
            // fragments exactly as a hostile packetizer would produce them.
            w.write_all(&wire[pair[0]..pair[1]]).unwrap();
            w.flush().unwrap();
        }
        let _ = stream.shutdown(Shutdown::Write);
        let frames = drain_frames(stream);
        assert_structured(&frames);
        let mut pongs: Vec<u64> = frames
            .iter()
            .filter(|f| f.get("type").and_then(Json::as_str) == Some("pong"))
            .filter_map(|f| f.get("id").and_then(Json::as_u64))
            .collect();
        pongs.sort_unstable();
        prop_assert_eq!(pongs, (0..n).collect::<Vec<u64>>(), "every ping answered exactly once");
    }
}

/// A session on the shared server with one 512-byte block: `(session,
/// addr)`. The connection that opened it is returned too — sessions die
/// with their connection.
fn fuzz_session() -> (Client, u64, u64) {
    const SRC: &str = "class K { public: int* out; void operator()(int i) { out[i] = i; } };";
    let mut client = Client::connect(server_addr()).unwrap();
    let s = client.open_session(SRC, &SessionOptions::default()).unwrap().session;
    let addr = client.malloc(s, 512).unwrap();
    (client, s, addr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Raw tails through a live server: arbitrary bytes written as a tail
    /// come back byte for byte as a tail, through the client library.
    #[test]
    fn served_tails_round_trip(bytes in collection::vec(any::<u8>(), 0..512)) {
        let (mut client, s, addr) = fuzz_session();
        client.write(s, addr, &bytes).unwrap();
        prop_assert_eq!(client.read(s, addr, bytes.len() as u64).unwrap(), bytes);
    }

    /// Tailed traffic under pathological delivery: a raw `write`, a raw
    /// `read` (of bytes stored beforehand — the two may run on different
    /// workers, in either order) and a ping, serialized back to back and
    /// re-chunked at arbitrary boundaries — or, every fourth case, one
    /// byte per write — so prefixes, headers and tails all arrive torn
    /// and coalesced. Every request is answered and both tails are intact.
    #[test]
    fn split_and_coalesced_tails_all_answer(
        bytes in collection::vec(any::<u8>(), 0..96),
        cuts in collection::vec(any::<u64>(), 0..8),
        mode in 0u8..4,
    ) {
        let (mut owner, s, addr) = fuzz_session();
        let stored: Vec<u8> = bytes.iter().rev().copied().collect();
        owner.write(s, addr, &stored).unwrap();
        let request = |ty: &str, id: u64, at: u64, extra: Vec<(&str, Json)>| {
            let mut fields = vec![
                ("type", Json::str(ty)),
                ("session", s.into()),
                ("addr", at.into()),
                ("id", id.into()),
            ];
            fields.extend(extra);
            Json::obj(fields)
        };
        let mut wire = frame_with_tail(request("write", 1, addr + 256, Vec::new()), &bytes).unwrap();
        let read =
            request("read", 2, addr, vec![("len", bytes.len().into()), ("raw", true.into())]);
        write_frame(&mut wire, &read.to_string()).unwrap();
        wire.extend_from_slice(&ping_bytes(3));
        let mut bounds: Vec<usize> = if mode == 0 {
            (0..wire.len()).collect()
        } else {
            cuts.iter().map(|c| (*c as usize) % wire.len()).collect()
        };
        bounds.push(0);
        bounds.push(wire.len());
        bounds.sort_unstable();
        bounds.dedup();
        // Sessions belong to their opening connection only for reaping;
        // any connection may address them.
        let stream = TcpStream::connect(server_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut w = stream.try_clone().unwrap();
        for pair in bounds.windows(2) {
            w.write_all(&wire[pair[0]..pair[1]]).unwrap();
        }
        let _ = stream.shutdown(Shutdown::Write);
        let frames = drain_tailed(stream);
        let by_id = |id: u64| {
            frames.iter().find(|(f, _)| f.get("id").and_then(Json::as_u64) == Some(id))
        };
        let ty = |id: u64| by_id(id).and_then(|(f, _)| f.get("type").and_then(Json::as_str));
        prop_assert_eq!(frames.len(), 3, "one reply per request");
        prop_assert_eq!(ty(1), Some("ok"));
        prop_assert_eq!(ty(2), Some("data"));
        prop_assert_eq!(ty(3), Some("pong"));
        prop_assert_eq!(by_id(2).and_then(|(_, t)| t.clone()), Some(stored));
        prop_assert_eq!(owner.read(s, addr + 256, bytes.len() as u64).unwrap(), bytes);
    }
}
