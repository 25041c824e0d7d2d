//! Protocol-robustness tests: hostile and malformed input must yield
//! structured error responses — never a panic, never a wedged connection.

mod common;

use common::{code, start_server, ty, RawConn, DOUBLE, SUM};
use concord_serve::json::Json;
use concord_serve::protocol::MAX_FRAME;
use concord_serve::{Client, Launch, SessionHandle, SessionOptions};

#[test]
fn truncated_frame_yields_error_then_close() {
    let server = start_server(1, 4);
    let mut conn = RawConn::connect(server.addr());
    // Header promises 100 bytes; deliver 3 and vanish.
    let mut bytes = 100u32.to_be_bytes().to_vec();
    bytes.extend_from_slice(b"abc");
    conn.send_bytes(&bytes);
    conn.shutdown_write();
    let resp = conn.recv().expect("structured error before close");
    assert_eq!(ty(&resp), "error");
    assert_eq!(code(&resp), "truncated_frame");
    assert!(conn.recv().is_none(), "connection closed after framing error");
    assert!(server.stats().connections >= 1, "server survived");
    server.join();
}

#[test]
fn oversized_length_prefix_is_refused_without_allocation() {
    let server = start_server(1, 4);
    let mut conn = RawConn::connect(server.addr());
    conn.send_bytes(&(MAX_FRAME + 1).to_be_bytes());
    let resp = conn.recv().expect("structured error before close");
    assert_eq!(code(&resp), "oversized_frame");
    assert!(conn.recv().is_none());
    // The server is still fully operational for the next client.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.ping().is_ok());
    server.join();
}

#[test]
fn invalid_utf8_payload_yields_error() {
    let server = start_server(1, 4);
    let mut conn = RawConn::connect(server.addr());
    let mut bytes = 4u32.to_be_bytes().to_vec();
    bytes.extend_from_slice(&[0xff, 0xfe, 0x80, 0x00]);
    conn.send_bytes(&bytes);
    let resp = conn.recv().expect("structured error before close");
    assert_eq!(code(&resp), "bad_utf8");
    assert!(conn.recv().is_none());
    server.join();
}

#[test]
fn malformed_json_keeps_the_connection_usable() {
    let server = start_server(1, 4);
    let mut conn = RawConn::connect(server.addr());
    conn.send("this is not json");
    let resp = conn.recv().expect("error response");
    assert_eq!(code(&resp), "bad_json");
    // Framing was intact, so the connection keeps working.
    conn.send(r#"{"type":"ping","id":1}"#);
    assert_eq!(ty(&conn.recv_id(1)), "pong");
    server.join();
}

#[test]
fn unknown_and_missing_types_are_structured_errors() {
    let server = start_server(1, 4);
    let mut conn = RawConn::connect(server.addr());
    conn.send(r#"{"type":"frobnicate","id":7}"#);
    let resp = conn.recv_id(7);
    assert_eq!(code(&resp), "unknown_type");
    conn.send(r#"{"no_type_here":true,"id":8}"#);
    let resp = conn.recv_id(8);
    assert_eq!(code(&resp), "bad_request");
    conn.send(r#"{"type":"sleep","ms":1,"deadline_ms":"soon","id":9}"#);
    let resp = conn.recv_id(9);
    assert_eq!(code(&resp), "bad_request");
    server.join();
}

#[test]
fn session_and_launch_errors_come_back_typed() {
    let server = start_server(1, 8);
    let mut client = Client::connect(server.addr()).unwrap();
    // Operating on a session that never existed.
    let err = client.malloc(999, 8).unwrap_err();
    assert_eq!(err.code(), Some("no_such_session"));
    // Source that does not compile.
    let err = client
        .open_session("class Broken { this is not the kernel language", &SessionOptions::default())
        .unwrap_err();
    assert_eq!(err.code(), Some("compile_error"));
    // A healthy session, then launch-level failures.
    let s = client.open_session(DOUBLE, &SessionOptions::default()).unwrap();
    let body = client.malloc(s.session, 16).unwrap();
    let err = client.parallel_for(s.session, &Launch::new("Nope", body, 4)).unwrap_err();
    assert_eq!(err.code(), Some("no_such_kernel"));
    let err = client.parallel_reduce(s.session, &Launch::new("Double", body, 4)).unwrap_err();
    assert_eq!(err.code(), Some("no_join"), "Double has no join method");
    let err = client
        .parallel_for(s.session, &Launch::new("Double", body, 4).target("warp9"))
        .unwrap_err();
    assert_eq!(err.to_string(), BAD_TARGET);
    let err = client.parallel_worklist(s.session, "Double", body, &[0], Some("warp9")).unwrap_err();
    assert_eq!(err.to_string(), BAD_TARGET);
    // The connection survived every error.
    assert!(client.ping().is_ok());
    server.join();
}

/// The one bad-target error every launch field parser returns.
const BAD_TARGET: &str =
    "server error bad_request: bad target `warp9` (expected cpu|gpu|auto|native|hybrid[:f])";

#[test]
fn region_faults_and_bad_payloads_are_rejected() {
    let server = start_server(1, 8);
    let mut client = Client::connect(server.addr()).unwrap();
    let s = client.open_session(SUM, &SessionOptions::default()).unwrap();
    // Out-of-bounds read faults instead of leaking server memory. (The
    // address stays below 2^53 — larger integers are not representable on
    // the wire and would be refused as bad_request instead.)
    let err = client.read(s.session, 1 << 40, 8).unwrap_err();
    assert_eq!(err.code(), Some("region_fault"));
    // Null write faults.
    let err = client.write(s.session, 0, &[1]).unwrap_err();
    assert_eq!(err.code(), Some("region_fault"));
    // Oversized read is refused before touching the region.
    let addr = client.malloc(s.session, 64).unwrap();
    let err = client.read(s.session, addr, u64::from(MAX_FRAME)).unwrap_err();
    assert_eq!(err.code(), Some("bad_request"));
    // Bad hex payload (raw call: the client API cannot produce this).
    let err = client
        .call(Json::obj(vec![
            ("type", Json::str("write")),
            ("session", s.session.into()),
            ("addr", addr.into()),
            ("hex", Json::str("zz")),
        ]))
        .unwrap_err();
    assert_eq!(err.code(), Some("bad_request"));
    // Bogus session parameters are refused at open.
    let opts =
        SessionOptions { system: Some("mainframe".to_string()), ..SessionOptions::default() };
    let err = client.open_session(DOUBLE, &opts).unwrap_err();
    assert_eq!(err.code(), Some("bad_request"));
    let opts = SessionOptions { region_bytes: Some(u64::MAX), ..SessionOptions::default() };
    let err = client.open_session(DOUBLE, &opts).unwrap_err();
    assert_eq!(err.code(), Some("bad_request"));
    let opts = SessionOptions { target: Some("warp9".to_string()), ..SessionOptions::default() };
    let err = client.open_session(DOUBLE, &opts).unwrap_err();
    assert_eq!(err.to_string(), BAD_TARGET, "bad session-default target is refused at open");
    assert!(client.ping().is_ok());
    server.join();
}

#[test]
fn an_off_analysis_gate_is_refused_at_open() {
    // The gate has two levels; `off` was one until it stopped skipping any
    // walk the scheduler needs.
    let server = start_server(1, 8);
    let mut client = Client::connect(server.addr()).unwrap();
    let opts = SessionOptions { analysis: Some("off".to_string()), ..SessionOptions::default() };
    let err = client.open_session(DOUBLE, &opts).unwrap_err();
    assert_eq!(
        err.to_string(),
        "server error bad_request: unknown analysis gate `off` (expected warn|deny)"
    );
    assert!(client.ping().is_ok());
    server.join();
}

#[test]
fn kernel_trap_is_reported_not_fatal() {
    let server = start_server(1, 8);
    let mut s = SessionHandle::connect(server.addr(), DOUBLE, &SessionOptions::default()).unwrap();
    // A body whose `out` pointer is null makes the kernel trap on its
    // first store; the session (and server) must survive.
    let body = s.malloc(16).unwrap();
    let err = s.parallel_for(&Launch::new("Double", body, 4).target("cpu")).unwrap_err();
    assert_eq!(err.code(), Some("trap"), "got: {err}");
    // Same session still works once the body is valid.
    let out = s.malloc(4 * 4).unwrap();
    s.write_ptr(body, out).unwrap();
    let report = s.parallel_for(&Launch::new("Double", body, 4).target("cpu")).unwrap();
    assert!(report.exec_seconds > 0.0);
    assert_eq!(s.read_i32(out + 8).unwrap(), 5, "out[2] = 2*2+1");
    server.join();
}

/// A raw connection with one open `Double` session and a 64-byte block.
fn raw_session(addr: std::net::SocketAddr) -> (RawConn, u64, u64) {
    let mut conn = RawConn::connect(addr);
    let open = Json::obj(vec![
        ("type", Json::str("open_session")),
        ("source", DOUBLE.into()),
        ("id", 100u64.into()),
    ]);
    conn.send(&open.to_string());
    let sid = conn.recv_id(100).get("session").and_then(Json::as_u64).expect("session id");
    conn.send(&format!(r#"{{"type":"malloc","session":{sid},"bytes":64,"id":101}}"#));
    let addr = conn.recv_id(101).get("addr").and_then(Json::as_u64).expect("addr");
    (conn, sid, addr)
}

#[test]
fn hex_peers_get_the_replies_they_always_got() {
    // A peer that writes JSON by hand never hears of payload tails: hex
    // `write` and plain `read` answer with exactly the pre-tail bytes.
    let server = start_server(1, 8);
    let (mut conn, sid, addr) = raw_session(server.addr());
    conn.send(&format!(
        r#"{{"type":"write","session":{sid},"addr":{addr},"hex":"00ff7f80","id":1}}"#
    ));
    assert_eq!(conn.recv().unwrap().to_string(), r#"{"type":"ok","id":1}"#);
    conn.send(&format!(r#"{{"type":"read","session":{sid},"addr":{addr},"len":4,"id":2}}"#));
    assert_eq!(conn.recv().unwrap().to_string(), r#"{"type":"data","hex":"00ff7f80","id":2}"#);
    // Both encodings are one handler over one region: bytes written as a
    // tail read back as hex, and bytes written as hex read back raw.
    let write =
        format!(r#"{{"type":"write","session":{sid},"addr":{addr},"payload_bytes":3,"id":3}}"#);
    conn.send_with_tail(&write, &[0xfe, 0x00, 0xc3]);
    assert_eq!(conn.recv().unwrap().to_string(), r#"{"type":"ok","id":3}"#);
    conn.send(&format!(r#"{{"type":"read","session":{sid},"addr":{addr},"len":4,"id":4}}"#));
    assert_eq!(conn.recv().unwrap().to_string(), r#"{"type":"data","hex":"fe00c380","id":4}"#);
    conn.send(&format!(
        r#"{{"type":"read","session":{sid},"addr":{addr},"len":4,"raw":true,"id":5}}"#
    ));
    let (head, tail) = conn.recv_tailed().unwrap();
    assert_eq!(head.to_string(), r#"{"type":"data","id":5,"payload_bytes":4}"#);
    assert_eq!(tail.as_deref(), Some(&[0xfe, 0x00, 0xc3, 0x80][..]));
    // Ambiguous or malformed selections are refused, not guessed at.
    let both = format!(
        r#"{{"type":"write","session":{sid},"addr":{addr},"hex":"00","payload_bytes":1,"id":6}}"#
    );
    conn.send_with_tail(&both, &[1]);
    assert_eq!(code(&conn.recv_id(6)), "bad_request");
    conn.send(&format!(
        r#"{{"type":"read","session":{sid},"addr":{addr},"len":4,"raw":"yes","id":7}}"#
    ));
    assert_eq!(code(&conn.recv_id(7)), "bad_request");
    server.join();
}

#[test]
fn raw_tails_round_trip_at_every_length() {
    let server = start_server(1, 8);
    let mut client = Client::connect(server.addr()).unwrap();
    let s = client.open_session(DOUBLE, &SessionOptions::default()).unwrap().session;
    let addr = client.malloc(s, 256 << 10).unwrap();
    for len in [0usize, 1, 256 << 10] {
        // Every byte value, invalid UTF-8 included, and a length-dependent
        // phase so a stale buffer cannot pass.
        let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
        client.write(s, addr, &bytes).unwrap();
        assert_eq!(client.read(s, addr, len as u64).unwrap(), bytes, "{len}-byte round trip");
    }
    server.join();
}

#[test]
fn oversized_tail_is_refused_off_the_header() {
    let server = start_server(1, 4);
    let mut conn = RawConn::connect(server.addr());
    // Only the header is sent: the refusal cannot have waited for (or
    // buffered) a byte of the announced tail.
    conn.send(&format!(
        r#"{{"type":"write","session":1,"addr":64,"payload_bytes":{},"id":1}}"#,
        u64::from(MAX_FRAME) + 1
    ));
    let resp = conn.recv().expect("structured error before close");
    assert_eq!(code(&resp), "oversized_frame");
    assert!(conn.recv().is_none(), "connection closed after framing error");
    // A tail length that is no length at all loses the stream the same way.
    let mut conn = RawConn::connect(server.addr());
    conn.send(r#"{"type":"write","session":1,"addr":64,"payload_bytes":"many","id":1}"#);
    assert_eq!(code(&conn.recv().expect("structured error before close")), "bad_request");
    assert!(conn.recv().is_none());
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.ping().is_ok(), "server survived");
    server.join();
}

#[test]
fn disconnect_inside_a_tail_is_truncated_and_reaps_the_session() {
    let server = start_server(1, 8);
    let (mut conn, sid, addr) = raw_session(server.addr());
    assert_eq!(server.stats().sessions, 1);
    let write =
        format!(r#"{{"type":"write","session":{sid},"addr":{addr},"payload_bytes":32,"id":1}}"#);
    conn.send_with_tail(&write, b"abc");
    conn.shutdown_write();
    let resp = conn.recv().expect("structured error before close");
    assert_eq!(ty(&resp), "error");
    assert_eq!(code(&resp), "truncated_frame");
    assert!(conn.recv().is_none(), "connection closed after framing error");
    common::wait_until("the dead connection's session to be reaped", || {
        server.stats().sessions == 0
    });
    server.join();
}

#[test]
fn tail_on_a_verb_that_takes_none_is_refused_and_consumed() {
    let server = start_server(1, 8);
    let (mut conn, sid, addr) = raw_session(server.addr());
    // The tail looks like a frame of its own; were it left in the stream
    // the server would answer a second ping (id 66) instead of skipping it.
    let mut decoy = Vec::new();
    concord_serve::protocol::write_frame(&mut decoy, r#"{"type":"ping","id":66}"#).unwrap();
    let ping = format!(r#"{{"type":"ping","payload_bytes":{},"id":1}}"#, decoy.len());
    conn.send_with_tail(&ping, &decoy);
    let malloc = format!(
        r#"{{"type":"malloc","session":{sid},"bytes":8,"payload_bytes":{},"id":2}}"#,
        decoy.len()
    );
    conn.send_with_tail(&malloc, &decoy);
    conn.send(&format!(r#"{{"type":"read","session":{sid},"addr":{addr},"len":1,"id":3}}"#));
    // Both refusals are inline, so the replies keep the request order; a
    // pong with id 66 anywhere means a tail was parsed as a frame.
    let bad_ping = conn.recv().expect("reply to the ping");
    assert_eq!(
        (code(&bad_ping), bad_ping.get("id").and_then(Json::as_u64)),
        ("bad_request", Some(1))
    );
    let bad_malloc = conn.recv().expect("reply to the malloc");
    assert_eq!(
        (code(&bad_malloc), bad_malloc.get("id").and_then(Json::as_u64)),
        ("bad_request", Some(2))
    );
    let data = conn.recv().expect("the next frame on the connection is still answered");
    assert_eq!((ty(&data), data.get("id").and_then(Json::as_u64)), ("data", Some(3)));
    server.join();
}

#[test]
fn client_skips_a_foreign_raw_reply_together_with_its_tail() {
    use concord_serve::protocol::{frame_with_tail, read_frame, read_tail, send};
    use std::io::Write;
    // A scripted peer: before each reply it interleaves a `data` reply to
    // some other request, whose tail is bytes that would parse as a frame.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut decoy = Vec::new();
        concord_serve::protocol::write_frame(&mut decoy, r#"{"type":"pong","id":1}"#).unwrap();
        for _ in 0..2 {
            let payload = read_frame(&mut reader).unwrap().expect("a request");
            let req = concord_serve::json::parse(&payload).unwrap();
            assert_eq!(read_tail(&mut reader, &req).unwrap(), None);
            let id = req.get("id").cloned().expect("client requests carry ids");
            let foreign = Json::obj(vec![("type", Json::str("data")), ("id", 9_999u64.into())]);
            stream.write_all(&frame_with_tail(foreign, &decoy).unwrap()).unwrap();
            match req.get("type").and_then(Json::as_str) {
                Some("read") => {
                    let ours = Json::obj(vec![("type", Json::str("data")), ("id", id)]);
                    stream.write_all(&frame_with_tail(ours, &[0xff, 0xc0, 0x00]).unwrap()).unwrap();
                }
                _ => send(&mut stream, &Json::obj(vec![("type", Json::str("pong")), ("id", id)]))
                    .unwrap(),
            }
        }
    });
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.read(1, 64, 3).unwrap(), [0xff, 0xc0, 0x00]);
    // Had the skipped tail been left in the stream, its bytes would now be
    // read as the (wrong) answer to this ping, or as garbage.
    assert!(client.ping().is_ok());
    peer.join().unwrap();
}
