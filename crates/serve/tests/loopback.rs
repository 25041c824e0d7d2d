//! End-to-end loopback tests: concurrent clients, artifact-cache sharing,
//! byte-identical agreement with direct in-process execution, backpressure,
//! deadlines, and graceful drain.
//!
//! Everything asserted here is deterministic under any
//! `CONCORD_HOST_THREADS` setting — CI byte-diffs this suite's output
//! between 1 and 8 host threads.

mod common;

use common::{code, start_server, ty, wait_until, RawConn, DOUBLE, SUM};
use concord_energy::SystemConfig;
use concord_ir::types::AddrSpace;
use concord_runtime::{Concord, Options, Target};
use concord_serve::json::Json;
use concord_serve::{Client, Launch, SessionHandle, SessionOptions};
use concord_svm::CpuAddr;

const DOUBLE_N: u32 = 64;
const SUM_N: u32 = 128;

/// Run the `Double` workload through a served session; returns the output
/// buffer's raw bytes.
fn served_double(addr: std::net::SocketAddr, target: &str) -> Vec<u8> {
    let mut s = SessionHandle::connect(addr, DOUBLE, &SessionOptions::default())
        .expect("open Double session");
    let out = s.malloc(u64::from(DOUBLE_N) * 4).unwrap();
    let body = s.malloc(16).unwrap();
    s.write_ptr(body, out).unwrap();
    s.write_i32(body + 8, DOUBLE_N as i32).unwrap();
    let report = s
        .parallel_for(&Launch::new("Double", body, DOUBLE_N).target(target))
        .expect("launch Double");
    assert!(report.exec_seconds > 0.0, "per-request report has timings");
    assert!(report.joules > 0.0, "per-request report has energy");
    s.read(out, u64::from(DOUBLE_N) * 4).unwrap()
}

/// The same workload run directly in-process (no server).
fn direct_double(target: Target) -> Vec<u8> {
    let mut cc = Concord::new(SystemConfig::ultrabook(), DOUBLE, Options::default()).unwrap();
    let out = cc.malloc(u64::from(DOUBLE_N) * 4).unwrap();
    let body = cc.malloc(16).unwrap();
    cc.region_mut().write_ptr(body, out).unwrap();
    cc.region_mut().write_i32(body.offset(8), DOUBLE_N as i32).unwrap();
    cc.parallel_for_hetero("Double", body, DOUBLE_N, target).unwrap();
    cc.region().read_bytes(out.0, AddrSpace::Cpu, u64::from(DOUBLE_N) * 4).unwrap().to_vec()
}

/// Run the `Sum` reduction through a served session; returns the
/// accumulator's raw bytes.
fn served_sum(addr: std::net::SocketAddr, target: &str) -> Vec<u8> {
    let mut s =
        SessionHandle::connect(addr, SUM, &SessionOptions::default()).expect("open Sum session");
    let data = s.malloc(u64::from(SUM_N) * 4).unwrap();
    for i in 0..SUM_N {
        s.write_f32(data + u64::from(i) * 4, (i % 5) as f32).unwrap();
    }
    let body = s.malloc(16).unwrap();
    s.write_ptr(body, data).unwrap();
    s.write_f32(body + 8, 0.0).unwrap();
    let report =
        s.parallel_reduce(&Launch::new("Sum", body, SUM_N).target(target)).expect("launch Sum");
    assert!(report.exec_seconds > 0.0);
    s.read(body + 8, 4).unwrap()
}

fn direct_sum(target: Target) -> Vec<u8> {
    let mut cc = Concord::new(SystemConfig::ultrabook(), SUM, Options::default()).unwrap();
    let data = cc.malloc(u64::from(SUM_N) * 4).unwrap();
    for i in 0..SUM_N {
        cc.region_mut().write_f32(CpuAddr(data.0 + u64::from(i) * 4), (i % 5) as f32).unwrap();
    }
    let body = cc.malloc(16).unwrap();
    cc.region_mut().write_ptr(body, data).unwrap();
    cc.region_mut().write_f32(body.offset(8), 0.0).unwrap();
    cc.parallel_reduce_hetero("Sum", body, SUM_N, target).unwrap();
    cc.region().read_bytes(body.0 + 8, AddrSpace::Cpu, 4).unwrap().to_vec()
}

#[test]
fn four_concurrent_clients_share_cache_and_match_direct_execution() {
    let server = start_server(4, 64);
    let addr = server.addr();
    // Four clients, two per kernel source, mixed targets and construct
    // kinds — the pairs exercise cross-client artifact-cache sharing.
    let (a, b, c, d) = std::thread::scope(|scope| {
        let a = scope.spawn(move || served_double(addr, "cpu"));
        let b = scope.spawn(move || served_double(addr, "gpu"));
        let c = scope.spawn(move || served_sum(addr, "cpu"));
        let d = scope.spawn(move || served_sum(addr, "auto"));
        (a.join().unwrap(), b.join().unwrap(), c.join().unwrap(), d.join().unwrap())
    });
    // Byte-identical to direct in-process execution of the same programs.
    assert_eq!(a, direct_double(Target::Cpu), "served cpu Double differs from direct");
    assert_eq!(b, direct_double(Target::Gpu), "served gpu Double differs from direct");
    assert_eq!(c, direct_sum(Target::Cpu), "served cpu Sum differs from direct");
    assert_eq!(d, direct_sum(Target::Auto), "served auto Sum differs from direct");
    // Two distinct sources, four sessions: the artifact cache compiled each
    // source exactly once (the miss path holds the cache lock across the
    // compile), so exactly two cross-client hits occurred.
    let stats = server.stats();
    assert_eq!(stats.cache_entries, 2, "one entry per distinct source");
    assert_eq!(stats.cache_misses, 2, "each source compiled once");
    assert_eq!(stats.cache_hits, 2, "each second session hit the cache");
    server.join();
}

#[test]
fn native_session_default_target_matches_direct_cpu_bytes() {
    if !concord_native::supported() {
        return;
    }
    let server = start_server(2, 16);
    // `target` in the session options becomes the default for launches
    // that omit their own target — this session never names a target on a
    // launch, yet runs on the native JIT backend.
    let opts = SessionOptions { target: Some("native".to_string()), ..SessionOptions::default() };
    let mut s = SessionHandle::connect(server.addr(), DOUBLE, &opts).expect("open native session");
    let out = s.malloc(u64::from(DOUBLE_N) * 4).unwrap();
    let body = s.malloc(16).unwrap();
    s.write_ptr(body, out).unwrap();
    s.write_i32(body + 8, DOUBLE_N as i32).unwrap();
    let report =
        s.parallel_for(&Launch::new("Double", body, DOUBLE_N)).expect("native default launch");
    assert!(report.exec_seconds > 0.0);
    let served = s.read(out, u64::from(DOUBLE_N) * 4).unwrap();
    assert_eq!(served, direct_double(Target::Cpu), "served native differs from direct cpu");
    // A launch-level target still overrides the session default.
    let report2 = s
        .parallel_for(&Launch::new("Double", body, DOUBLE_N).target("cpu"))
        .expect("cpu override launch");
    assert!(report2.exec_seconds > 0.0);
    server.join();
}

#[test]
fn second_session_pays_no_jit_for_shared_artifacts() {
    let server = start_server(1, 16);
    let addr = server.addr();
    let run = |expect_jit: bool| {
        let mut s = SessionHandle::connect(addr, DOUBLE, &SessionOptions::default()).unwrap();
        let out = s.malloc(u64::from(DOUBLE_N) * 4).unwrap();
        let body = s.malloc(16).unwrap();
        s.write_ptr(body, out).unwrap();
        let r = s.parallel_for(&Launch::new("Double", body, DOUBLE_N).target("gpu")).unwrap();
        if expect_jit {
            assert!(r.jit_seconds > 0.0, "first GPU launch pays JIT");
        } else {
            assert_eq!(r.jit_seconds, 0.0, "cached session reuses the JIT artifact");
        }
    };
    run(true);
    run(false);
    let stats = server.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    server.join();
}

#[test]
fn saturated_queue_answers_overloaded_instead_of_blocking() {
    let server = start_server(1, 1);
    let addr = server.addr();
    let mut pipeline = RawConn::connect(addr);
    let mut control = Client::connect(addr).unwrap();
    // Occupy the single worker, then wait (via the inline control plane)
    // until it has dequeued the gate job and the queue is empty again.
    pipeline.send(r#"{"type":"sleep","ms":400,"id":1}"#);
    wait_until("worker to pick up the gate job", || {
        let s = server.stats();
        s.admitted == 1 && s.queued == 0
    });
    // Fill the depth-1 queue, then overflow it twice.
    pipeline.send(r#"{"type":"sleep","ms":1,"id":2}"#);
    wait_until("queue to fill", || server.stats().admitted == 2);
    pipeline.send(r#"{"type":"sleep","ms":1,"id":3}"#);
    pipeline.send(r#"{"type":"sleep","ms":1,"id":4}"#);
    assert_eq!(ty(&pipeline.recv_id(3)), "overloaded");
    assert_eq!(ty(&pipeline.recv_id(4)), "overloaded");
    // The admitted jobs still complete normally.
    assert_eq!(ty(&pipeline.recv_id(1)), "ok");
    assert_eq!(ty(&pipeline.recv_id(2)), "ok");
    assert_eq!(server.stats().rejected, 2);
    // `completed` ticks just after the response is flushed; give it a beat.
    wait_until("completions to be counted", || server.stats().completed == 2);
    assert!(control.ping().is_ok(), "control plane stayed responsive throughout");
    server.join();
}

#[test]
fn zero_deadline_is_exceeded_at_dequeue() {
    let server = start_server(1, 16);
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .call(Json::obj(vec![
            ("type", Json::str("sleep")),
            ("ms", 1u64.into()),
            ("deadline_ms", 0u64.into()),
        ]))
        .expect_err("a zero deadline is over before any worker can dequeue");
    assert_eq!(err.code(), Some("deadline_exceeded"), "got: {err}");
    assert_eq!(server.stats().deadline_missed, 1);
    wait_until("deadline misses still complete the request", || server.stats().completed == 1);
    server.join();
}

#[test]
fn generous_deadline_executes_normally() {
    let server = start_server(1, 16);
    let mut s = SessionHandle::connect(server.addr(), DOUBLE, &SessionOptions::default()).unwrap();
    let out = s.malloc(u64::from(DOUBLE_N) * 4).unwrap();
    let body = s.malloc(16).unwrap();
    s.write_ptr(body, out).unwrap();
    let launch = Launch::new("Double", body, DOUBLE_N).target("cpu").deadline_ms(60_000);
    let report = s.parallel_for(&launch).expect("well within deadline");
    assert!(report.exec_seconds > 0.0);
    server.join();
}

#[test]
fn graceful_shutdown_drains_every_queued_request() {
    let server = start_server(1, 16);
    let mut pipeline = RawConn::connect(server.addr());
    // Gate the single worker, queue two more jobs behind it, then ask for
    // shutdown while they are still queued.
    pipeline.send(r#"{"type":"sleep","ms":300,"id":1}"#);
    wait_until("worker to pick up the gate job", || {
        let s = server.stats();
        s.admitted == 1 && s.queued == 0
    });
    pipeline.send(r#"{"type":"sleep","ms":1,"id":2}"#);
    pipeline.send(r#"{"type":"sleep","ms":1,"id":3}"#);
    wait_until("jobs to queue", || server.stats().admitted == 3);
    pipeline.send(r#"{"type":"shutdown","id":10}"#);
    assert_eq!(ty(&pipeline.recv_id(10)), "shutting_down");
    // Work arriving after the shutdown frame is refused, not queued.
    pipeline.send(r#"{"type":"sleep","ms":1,"id":4}"#);
    let late = pipeline.recv_id(4);
    assert_eq!(ty(&late), "error");
    assert_eq!(code(&late), "shutting_down");
    // The drain still runs everything admitted before the shutdown.
    assert_eq!(ty(&pipeline.recv_id(1)), "ok");
    assert_eq!(ty(&pipeline.recv_id(2)), "ok");
    assert_eq!(ty(&pipeline.recv_id(3)), "ok");
    wait_until("every admitted request to execute", || server.stats().completed == 3);
    assert_eq!(server.stats().deadline_missed, 0);
    server.join();
}

#[test]
fn one_connection_multiplexes_independent_sessions() {
    let server = start_server(2, 16);
    let mut client = Client::connect(server.addr()).unwrap();
    let s1 = client.open_session(DOUBLE, &SessionOptions::default()).unwrap();
    let s2 = client.open_session(SUM, &SessionOptions::default()).unwrap();
    assert_ne!(s1.session, s2.session);
    // Both sessions usable, independently addressed.
    let a1 = client.malloc(s1.session, 64).unwrap();
    let a2 = client.malloc(s2.session, 64).unwrap();
    client.write(s1.session, a1, &[1, 2, 3]).unwrap();
    client.write(s2.session, a2, &[9, 9, 9]).unwrap();
    assert_eq!(client.read(s1.session, a1, 3).unwrap(), vec![1, 2, 3]);
    assert_eq!(client.read(s2.session, a2, 3).unwrap(), vec![9, 9, 9]);
    client.close_session(s1.session).unwrap();
    let err = client.malloc(s1.session, 8).unwrap_err();
    assert_eq!(err.code(), Some("no_such_session"));
    assert_eq!(client.read(s2.session, a2, 1).unwrap(), vec![9], "s2 unaffected");
    server.join();
}

#[test]
fn small_requests_cost_no_transport_stall() {
    // 300 sequential round trips on one connection. A frame split across
    // two writes on a socket without TCP_NODELAY waits ~40 ms per round
    // trip for the peer's delayed ACK (> 13 s here); without the stall the
    // whole sequence is a few tens of milliseconds.
    let server = start_server(1, 16);
    let mut client = Client::connect(server.addr()).unwrap();
    let s = client.open_session(DOUBLE, &SessionOptions::default()).unwrap().session;
    let slot = client.malloc(s, 4).unwrap();
    let start = std::time::Instant::now();
    for _ in 0..200 {
        client.ping().unwrap();
    }
    for i in 0..50u32 {
        client.write(s, slot, &i.to_le_bytes()).unwrap();
        assert_eq!(client.read(s, slot, 4).unwrap(), i.to_le_bytes());
    }
    let elapsed = start.elapsed();
    assert!(elapsed < std::time::Duration::from_secs(2), "300 round trips took {elapsed:?}");
    server.join();
}

#[test]
fn disconnect_reaps_connection_scoped_sessions() {
    let server = start_server(1, 16);
    {
        let _session =
            SessionHandle::connect(server.addr(), DOUBLE, &SessionOptions::default()).unwrap();
        wait_until("session to open", || server.stats().sessions == 1);
    } // handle drops, socket closes
    wait_until("session to be reaped on disconnect", || server.stats().sessions == 0);
    server.join();
}

/// Deliberately racy `parallel_for` body: every work item read-modify-
/// writes the same uniform slot (CA104 at Error severity).
const RACY: &str = r#"
    class RacyHistogram {
    public:
        int* bins;
        void operator()(int i) { bins[0] = bins[0] + 1; }
    };
"#;

#[test]
fn deny_gate_refuses_racy_session_with_structured_diagnostics() {
    let server = start_server(1, 16);
    let mut conn = RawConn::connect(server.addr());
    let req = Json::obj(vec![
        ("type", Json::str("open_session")),
        ("source", Json::str(RACY)),
        ("analysis", Json::str("deny")),
        ("id", 1u64.into()),
    ]);
    conn.send(&req.to_string());
    let resp = conn.recv_id(1);
    assert_eq!(ty(&resp), "error", "{resp}");
    assert_eq!(code(&resp), "analysis_denied", "{resp}");
    // The refusal is structured, not prose: the full analysis report rides
    // along under `diagnostics`.
    let report = resp.get("diagnostics").expect("structured diagnostics attached");
    assert!(
        report.get("kernel").and_then(Json::as_str).is_some_and(|k| k.contains("RacyHistogram")),
        "{resp}"
    );
    let findings = report.get("diagnostics").and_then(Json::as_arr).expect("findings array");
    assert!(
        findings.iter().any(|f| f.get("lint").and_then(Json::as_str) == Some("CA104")),
        "expected a CA104 finding: {resp}"
    );
    // The same source is admitted under the default (warn) gate, and the
    // racy launch still runs — deny is opt-in per session.
    let opts = SessionOptions::default();
    let mut s = SessionHandle::connect(server.addr(), RACY, &opts).expect("warn session opens");
    let bins = s.malloc(4).unwrap();
    let body = s.malloc(8).unwrap();
    s.write_ptr(body, bins).unwrap();
    s.parallel_for(&Launch::new("RacyHistogram", body, 8).target("cpu"))
        .expect("warn gate surfaces findings but launches");
    server.join();
}

#[test]
fn deny_gate_blocks_for_launch_of_reduce_class_at_launch_time() {
    let server = start_server(1, 16);
    let opts = SessionOptions { analysis: Some("deny".to_string()), ..SessionOptions::default() };
    // Sum is clean under its intended convention, so the deny-gated open
    // pre-screen admits it and a parallel_reduce launch works end-to-end.
    let mut s = SessionHandle::connect(server.addr(), SUM, &opts).expect("reduce-clean source");
    let data = s.malloc(u64::from(SUM_N) * 4).unwrap();
    for i in 0..SUM_N {
        s.write_f32(data + u64::from(i) * 4, 1.0).unwrap();
    }
    let body = s.malloc(16).unwrap();
    s.write_ptr(body, data).unwrap();
    s.write_f32(body + 8, 0.0).unwrap();
    s.parallel_reduce(&Launch::new("Sum", body, SUM_N).target("cpu"))
        .expect("deny gate admits the clean reduce launch");
    assert_eq!(
        s.read(body + 8, 4).unwrap(),
        (SUM_N as f32).to_le_bytes().to_vec(),
        "reduction still computes under the deny gate"
    );
    // Racing the same accumulator body through parallel_for is exactly the
    // bug class the per-launch gate exists for.
    let err = s
        .parallel_for(&Launch::new("Sum", body, SUM_N).target("cpu"))
        .expect_err("for-launch of a reduce accumulator must be denied");
    assert_eq!(err.code(), Some("analysis_denied"), "{err}");
    server.join();
}

/// Guarded chain kernel for the worklist verb: ten rounds of a one-item
/// frontier, so both the drained bytes and the round schedule are easy
/// to pin.
const CHAIN: &str = r#"
    class Chain {
    public:
        int* val;
        void operator()(int v) {
            if (v < 9) {
                if (val[v+1] == 0) {
                    val[v+1] = val[v] + 1;
                    push(v+1);
                }
            }
        }
    };
"#;

#[test]
fn worklist_drain_through_the_server_matches_direct_execution() {
    let server = start_server(2, 16);
    let mut s = SessionHandle::connect(server.addr(), CHAIN, &SessionOptions::default())
        .expect("open Chain session");
    let val = s.malloc(10 * 4).unwrap();
    s.write_i32(val, 1).unwrap();
    let body = s.malloc(8).unwrap();
    s.write_ptr(body, val).unwrap();

    // Empty seed: zero rounds, nothing moves.
    let empty = s.parallel_worklist("Chain", body, &[], Some("gpu")).expect("empty drain");
    assert_eq!(empty.rounds(), 0);

    let outcome = s.parallel_worklist("Chain", body, &[0], Some("gpu")).expect("drain");
    assert_eq!(outcome.frontier_sizes, vec![1u32; 10], "one item per round");
    assert!(outcome.report.on_gpu, "gpu target drains on the gpu");
    let served = s.read(val, 10 * 4).unwrap();

    // The same drain run directly in-process must agree byte for byte.
    let direct = {
        let mut cc = Concord::new(SystemConfig::ultrabook(), CHAIN, Options::default()).unwrap();
        let val = cc.malloc(10 * 4).unwrap();
        cc.region_mut().write_i32(val, 1).unwrap();
        let body = cc.malloc(8).unwrap();
        cc.region_mut().write_ptr(body, val).unwrap();
        let r = cc.parallel_worklist_hetero("Chain", body, &[0], Target::Gpu).unwrap();
        assert_eq!(r.frontier_sizes, vec![1u32; 10]);
        cc.region().read_bytes(val.0, AddrSpace::Cpu, 10 * 4).unwrap().to_vec()
    };
    assert_eq!(served, direct, "served drain diverges from direct execution");

    // Malformed seeds are request errors, not session poison.
    let mut c = Client::connect(server.addr()).expect("second client");
    let opened = c.open_session(CHAIN, &SessionOptions::default()).expect("open");
    let err = c
        .call(Json::obj(vec![
            ("type", Json::str("parallel_worklist")),
            ("session", opened.session.into()),
            ("class", Json::str("Chain")),
            ("body", body.into()),
            ("seed", Json::Arr(vec![Json::Num(1.5)])),
        ]))
        .expect_err("fractional seed item refused");
    assert_eq!(err.code(), Some("bad_request"), "{err}");
    c.close_session(opened.session).expect("close second session");

    // The session still works after the refused request.
    let again = s.parallel_worklist("Chain", body, &[0], Some("cpu")).expect("drain again");
    assert_eq!(again.frontier_sizes, vec![1], "chain saturated: round 0 pushes nothing");
    s.close().expect("close");
    server.join();
}
