//! Loopback tests for the dependency-aware launch path in the service:
//! `parallel_batch` requests routed through the session's launch graph,
//! the overlap/stall counters on the `stats` frame, and the pre-launch
//! deadline re-check after the session-lock wait.
//!
//! Everything asserted here is deterministic under any
//! `CONCORD_HOST_THREADS` setting — the graph's wave counters are
//! scheduling facts, not wall-clock ones.

mod common;

use common::{code, start_server, ty, wait_until, RawConn, DOUBLE};
use concord_serve::json::Json;
use concord_serve::{BatchEntry, Client, Launch, SessionHandle, SessionOptions};

const N: u32 = 64;

/// Two kernels over the same body layout: `Double` writes fresh values,
/// `Inc` read-modify-writes them — so launches of the two over one buffer
/// conflict (Order), while launches over disjoint buffers are independent.
const DOUBLE_INC: &str = r#"
    class Double {
    public:
        int* out; int n;
        void operator()(int i) { out[i] = i * 2 + 1; }
    };
    class Inc {
    public:
        int* out; int n;
        void operator()(int i) { out[i] = out[i] + 1; }
    };
"#;

/// Allocate a kernel body aimed at `out` for an `N`-element launch.
fn body_at(s: &mut SessionHandle, out: u64) -> u64 {
    let body = s.malloc(16).unwrap();
    s.write_ptr(body, out).unwrap();
    s.write_i32(body + 8, N as i32).unwrap();
    body
}

/// Allocate a `(out, body)` pair for an `N`-element launch.
fn alloc_pair(s: &mut SessionHandle) -> (u64, u64) {
    let out = s.malloc(u64::from(N) * 4).unwrap();
    (out, body_at(s, out))
}

/// **One** `2 * N`-element output allocation with a body aimed at each
/// half: `(out, body_lo, body_hi)`.
fn alloc_halves(s: &mut SessionHandle) -> (u64, u64, u64) {
    let out = s.malloc(u64::from(N) * 8).unwrap();
    let body_lo = body_at(s, out);
    let body_hi = body_at(s, out + u64::from(N) * 4);
    (out, body_lo, body_hi)
}

fn report_fields(r: &concord_runtime::OffloadReport) -> String {
    format!("{r:?}")
}

#[test]
fn independent_batch_waves_and_matches_serial_launches() {
    // Two servers so both sessions see a cold artifact cache: the serial
    // reference and the batch run must pay identical JIT charges for their
    // reports to be comparable field-by-field.
    let serial_server = start_server(2, 16);
    let batch_server = start_server(2, 16);

    // Reference: the same two launches as individual blocking requests.
    let mut serial =
        SessionHandle::connect(serial_server.addr(), DOUBLE, &SessionOptions::default()).unwrap();
    let (out_a_s, body_a_s) = alloc_pair(&mut serial);
    let (out_b_s, body_b_s) = alloc_pair(&mut serial);
    let r1 = serial.parallel_for(&Launch::new("Double", body_a_s, N).target("cpu")).unwrap();
    let r2 = serial.parallel_for(&Launch::new("Double", body_b_s, N).target("gpu")).unwrap();
    let bytes_a_s = serial.read(out_a_s, u64::from(N) * 4).unwrap();
    let bytes_b_s = serial.read(out_b_s, u64::from(N) * 4).unwrap();

    // One batch request: a cpu launch and a gpu launch over provably
    // disjoint buffers — the graph waves them under one fence pair.
    let mut batch =
        SessionHandle::connect(batch_server.addr(), DOUBLE, &SessionOptions::default()).unwrap();
    let (out_a, body_a) = alloc_pair(&mut batch);
    let (out_b, body_b) = alloc_pair(&mut batch);
    let outcome = batch
        .parallel_batch(
            &[
                BatchEntry::new("Double", body_a, N).target("cpu"),
                BatchEntry::new("Double", body_b, N).target("gpu"),
            ],
            None,
        )
        .unwrap();
    assert_eq!(outcome.overlapped, 1, "disjoint cpu+gpu launches form one overlap wave");
    assert_eq!(outcome.conflict_stalls, 0);
    assert_eq!(outcome.reports.len(), 2);
    let b1 = outcome.reports[0].as_ref().expect("cpu launch succeeds");
    let b2 = outcome.reports[1].as_ref().expect("gpu launch succeeds");
    assert_eq!(report_fields(b1), report_fields(&r1), "cpu report identical to serial");
    assert_eq!(report_fields(b2), report_fields(&r2), "gpu report identical to serial");

    // Byte-identical outputs, and the allocation sequences matched too.
    assert_eq!((out_a, out_b), (out_a_s, out_b_s), "same allocation sequence");
    assert_eq!(batch.read(out_a, u64::from(N) * 4).unwrap(), bytes_a_s);
    assert_eq!(batch.read(out_b, u64::from(N) * 4).unwrap(), bytes_b_s);

    // Range granularity: the same cpu + gpu pair over the two halves of
    // **one** allocation. A block-granular footprint sees one block written
    // twice and serializes the pair behind a conflict stall; the symbolic
    // range pass proves the halves disjoint, so they still wave.
    let (shared_s, lo_s, hi_s) = alloc_halves(&mut serial);
    serial.parallel_for(&Launch::new("Double", lo_s, N).target("cpu")).unwrap();
    serial.parallel_for(&Launch::new("Double", hi_s, N).target("gpu")).unwrap();
    let shared_bytes_s = serial.read(shared_s, u64::from(N) * 8).unwrap();
    let (shared, lo, hi) = alloc_halves(&mut batch);
    let halves = batch
        .parallel_batch(
            &[
                BatchEntry::new("Double", lo, N).target("cpu"),
                BatchEntry::new("Double", hi, N).target("gpu"),
            ],
            None,
        )
        .unwrap();
    assert!(halves.reports.iter().all(Result::is_ok));
    assert_eq!(halves.overlapped, 1, "halves of one allocation are proven disjoint and wave");
    assert_eq!(halves.conflict_stalls, 0, "a stall here means block-granular footprints");
    assert_eq!(batch.read(shared, u64::from(N) * 8).unwrap(), shared_bytes_s);

    // Same halves, both on the gpu: consecutive gpu launches share one
    // fence pair only when their footprints are provably independent.
    batch.write(shared, &vec![0u8; N as usize * 8]).unwrap();
    let gpu_halves = batch
        .parallel_batch(
            &[
                BatchEntry::new("Double", lo, N).target("gpu"),
                BatchEntry::new("Double", hi, N).target("gpu"),
            ],
            None,
        )
        .unwrap();
    assert!(gpu_halves.reports.iter().all(Result::is_ok));
    assert!(gpu_halves.fences_elided >= 1, "disjoint gpu halves batch under one fence pair");
    assert_eq!(gpu_halves.conflict_stalls, 0, "a stall here means block-granular footprints");
    assert_eq!(batch.read(shared, u64::from(N) * 8).unwrap(), shared_bytes_s);

    // The overlaps surface on the server's stats frame.
    let stats = batch_server.stats();
    assert_eq!(stats.overlapped, 2, "graph overlaps aggregated into server stats");
    assert_eq!(stats.conflict_stalls, 0);
    assert_eq!(stats.inflight, 0, "nothing left running");
    let mut control = Client::connect(batch_server.addr()).unwrap();
    let frame = control.stats().unwrap();
    assert_eq!(frame.get("overlapped").and_then(Json::as_u64), Some(2));
    assert_eq!(frame.get("conflict_stalls").and_then(Json::as_u64), Some(0));
    assert_eq!(frame.get("inflight").and_then(Json::as_u64), Some(0));
    serial_server.join();
    batch_server.join();
}

#[test]
fn conflicting_batch_serializes_with_a_stall_and_stays_correct() {
    let server = start_server(2, 16);
    let mut s =
        SessionHandle::connect(server.addr(), DOUBLE_INC, &SessionOptions::default()).unwrap();
    let (out, body) = alloc_pair(&mut s);
    // `Double` writes the buffer `Inc` read-modify-writes: a cpu+gpu pair
    // over the *same* block is an Order conflict — the graph must refuse
    // the wave (counting a stall) and run both in submission order.
    let outcome = s
        .parallel_batch(
            &[
                BatchEntry::new("Double", body, N).target("cpu"),
                BatchEntry::new("Inc", body, N).target("gpu"),
            ],
            None,
        )
        .unwrap();
    assert_eq!(outcome.overlapped, 0, "conflicting launches must not wave");
    assert_eq!(outcome.conflict_stalls, 1, "the refused wave is counted");
    assert!(outcome.reports.iter().all(Result::is_ok));
    for i in 0..N {
        let got = s.read_i32(out + u64::from(i) * 4).unwrap();
        assert_eq!(got, i as i32 * 2 + 2, "Double then Inc, in submission order");
    }
    assert_eq!(server.stats().conflict_stalls, 1, "stall aggregated into server stats");
    server.join();
}

#[test]
fn batch_continues_past_a_trapping_entry() {
    let server = start_server(2, 16);
    let mut s = SessionHandle::connect(server.addr(), DOUBLE, &SessionOptions::default()).unwrap();
    // First entry's body has a null `out` pointer: its launch traps. The
    // second entry is healthy and must still run (the same semantics a
    // serial client loop that ignores errors would get).
    let bad_body = s.malloc(16).unwrap();
    s.write_i32(bad_body + 8, N as i32).unwrap();
    let (out, body) = alloc_pair(&mut s);
    let outcome = s
        .parallel_batch(
            &[
                BatchEntry::new("Double", bad_body, N).target("cpu"),
                BatchEntry::new("Double", body, N).target("cpu"),
            ],
            None,
        )
        .unwrap();
    let err = outcome.reports[0].as_ref().expect_err("null-out launch traps");
    assert_eq!(err.code(), Some("trap"), "{err}");
    assert!(outcome.reports[1].is_ok(), "later entry still executes");
    assert_eq!(s.read_i32(out).unwrap(), 1, "healthy launch wrote its output");
    server.join();
}

#[test]
fn empty_and_malformed_batches_are_refused_atomically() {
    let server = start_server(2, 16);
    let mut s = SessionHandle::connect(server.addr(), DOUBLE, &SessionOptions::default()).unwrap();
    let err = s.parallel_batch(&[], None).expect_err("empty batch is a bad request");
    assert_eq!(err.code(), Some("bad_request"), "{err}");
    // A malformed trailing entry refuses the whole batch — the well-formed
    // first entry must not have run (its output stays zero).
    let (out, body) = alloc_pair(&mut s);
    let mut conn = RawConn::connect(server.addr());
    conn.send(&format!(
        r#"{{"type":"parallel_batch","session":{},"launches":[
            {{"class":"Double","body":{body},"n":{N}}},
            {{"class":"Double","n":{N}}}],"id":7}}"#,
        s.session()
    ));
    let resp = conn.recv_id(7);
    assert_eq!(ty(&resp), "error", "{resp}");
    assert_eq!(code(&resp), "bad_request", "{resp}");
    assert_eq!(s.read_i32(out).unwrap(), 0, "no entry of a refused batch runs");
    server.join();
}

#[test]
fn deadline_is_rechecked_after_the_session_lock_wait() {
    let server = start_server(2, 16);
    let mut setup = Client::connect(server.addr()).unwrap();
    let opened = setup.open_session(DOUBLE, &SessionOptions::default()).unwrap();
    let sid = opened.session;
    let out = setup.malloc(sid, u64::from(N) * 4).unwrap();
    let body = setup.malloc(sid, 16).unwrap();
    setup.write_ptr(sid, body, out).unwrap();

    // Gate: a session-locking sleep occupies the session mutex. The launch
    // behind it dequeues immediately (two workers), passes the admission
    // deadline check, then waits out its deadline on the session lock —
    // the pre-launch re-check must refuse it with time-in-queue detail.
    let base = server.stats().admitted;
    let mut pipeline = RawConn::connect(server.addr());
    pipeline.send(&format!(r#"{{"type":"sleep","ms":800,"session":{sid},"id":1}}"#));
    wait_until("gate to hold the session lock", || {
        let s = server.stats();
        s.admitted == base + 1 && s.queued == 0
    });
    pipeline.send(&format!(
        r#"{{"type":"parallel_for","session":{sid},"class":"Double","body":{body},
            "n":{N},"target":"cpu","deadline_ms":150,"id":2}}"#
    ));
    // Both responses land around the same instant (the gate releases the
    // lock the launch is refused under), in either order — collect both
    // rather than recv_id, which would discard whichever comes first.
    let mut gate_resp = None;
    let mut launch_resp = None;
    while gate_resp.is_none() || launch_resp.is_none() {
        let r = pipeline.recv().expect("connection closed awaiting responses");
        match r.get("id").and_then(Json::as_u64) {
            Some(1) => gate_resp = Some(r),
            Some(2) => launch_resp = Some(r),
            other => panic!("unexpected response id {other:?}: {r}"),
        }
    }
    let resp = launch_resp.unwrap();
    assert_eq!(ty(&resp), "error", "{resp}");
    assert_eq!(code(&resp), "deadline_exceeded", "{resp}");
    let queued_ms = resp
        .get("diagnostics")
        .and_then(|d| d.get("queued_ms"))
        .and_then(Json::as_u64)
        .expect("time-in-queue detail attached");
    assert!(queued_ms >= 150, "lock wait dominates: {queued_ms} ms");
    assert_eq!(server.stats().deadline_missed, 1);
    assert_eq!(setup.read(sid, out, 4).unwrap(), vec![0, 0, 0, 0], "refused launch never ran");
    // The gate's sleep itself completed fine.
    assert_eq!(ty(&gate_resp.unwrap()), "ok");
    server.join();
}
