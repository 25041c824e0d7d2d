//! The two served workloads. An in-process `concord-serve` on loopback,
//! two client connections in a closed loop: each sends its next request
//! only after the reply to the last, as callers of an offload service do.

use crate::gen::{le_bytes, stream, Rng};
use crate::harness::{fold_parity, Outcome, Recorder, RunCfg, SETUPS};
use crate::metrics::{LayerValues, SERVE_CLASSES};
use crate::programs::{
    double_add, double_body, double_expected, options, read_bytes, sum_body, sum_data, system,
    write_bytes, HOST_THREADS, KERNELS,
};
use crate::spans::{per_pass_median_ns, Span, Spans};
use crate::stats::{median, median_seconds};
use concord_runtime::{Concord, OffloadReport, Target};
use concord_serve::json::{parse, Json};
use concord_serve::protocol::{frame_bytes, from_hex, read_frame, to_hex};
use concord_serve::server::report_json;
use concord_serve::{BatchEntry, Client, Launch, ServeConfig, Server, ServerStats, SessionOptions};
use concord_trace::TraceConfig;
use concord_workloads::graph::road_network;
use concord_workloads::worklist::FrontierBfs;
use concord_workloads::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;

/// One client connection with its session set up.
trait Conn: Send {
    fn classes(&self) -> Vec<String>;
    /// One pass: every op class once, timed into `rec` and checked.
    fn cycle(&mut self, rec: &mut Recorder, spans: &Spans);
}

struct Served<C> {
    rec: Recorder,
    setup_s: f64,
    spans: Vec<Vec<Span>>,
    overhead: f64,
    window_s: f64,
    /// Server counters when the window opened and when it closed.
    stats: (ServerStats, ServerStats),
    conns: Vec<C>,
    server: Server,
}

impl<C> Served<C> {
    /// Close the connections, drain the server, and hand over the rest.
    fn into_outcome(self, layers: LayerValues) -> Outcome {
        drop(self.conns);
        self.server.join();
        Outcome { rec: self.rec, setup_s: self.setup_s, spans: self.spans, layers, fatal: None }
    }

    /// Per-pass span medians over all connections. The served spans are
    /// flat (no parents), so the per-thread lists can simply be joined.
    fn span_medians(&self) -> BTreeMap<String, f64> {
        let all: Vec<Span> = self.spans.iter().flatten().cloned().collect();
        per_pass_median_ns(&all)
    }

    fn server_counters(&self, out: &mut LayerValues) {
        let (before, after) = &self.stats;
        out.set("serve.admitted", (after.admitted - before.admitted) as f64);
        out.set("serve.completed", (after.completed - before.completed) as f64);
        out.set("serve.rejected", (after.rejected - before.rejected) as f64);
        out.set("serve.deadline_missed", (after.deadline_missed - before.deadline_missed) as f64);
        out.set("serve.cache_hits", (after.cache_hits - before.cache_hits) as f64);
        out.set("serve.cache_misses", (after.cache_misses - before.cache_misses) as f64);
        out.set(
            "serve.hazard_serialized",
            (after.hazard_serialized - before.hazard_serialized) as f64,
        );
    }
}

/// Bind, connect and warm up `SETUPS` times, then let every connection
/// cycle until the window closes. As in [`crate::harness::drive`], a
/// traced run keeps spans on odd passes only.
fn serve<C: Conn>(cfg: RunCfg, connect: impl Fn(SocketAddr, usize) -> C + Sync) -> Served<C> {
    let epoch = Instant::now();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live: Option<(Server, Vec<C>)> = None;
    let mut warm_ups = (0, 0);
    for _ in 0..SETUPS {
        if let Some((server, conns)) = live.take() {
            drop(conns);
            server.join();
        }
        let start = Instant::now();
        let config = ServeConfig { workers: WORKERS, ..ServeConfig::default() };
        let server = Server::bind(&config).expect("bind loopback server");
        let addr = server.addr();
        let conns: Vec<(C, Recorder)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|i| {
                    let connect = &connect;
                    scope.spawn(move || {
                        let mut conn = connect(addr, i);
                        let mut warm = Recorder::new(&conn.classes());
                        conn.cycle(&mut warm, &Spans::unkept());
                        (conn, warm)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
        });
        setups.push(start.elapsed().as_secs_f64());
        warm_ups.0 += conns.iter().map(|(_, w)| w.attempted).sum::<u64>();
        warm_ups.1 += conns.iter().map(|(_, w)| w.failed).sum::<u64>();
        live = Some((server, conns.into_iter().map(|(c, _)| c).collect()));
    }
    let (server, mut conns) = live.expect("SETUPS > 0");

    let before = server.stats();
    let window = Instant::now();
    let deadline = window + cfg.window;
    let streams: Vec<([Recorder; 2], Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                scope.spawn(move || {
                    let spans = Spans::new(epoch);
                    let classes = conn.classes();
                    let mut by_parity = [Recorder::new(&classes), Recorder::new(&classes)];
                    let mut pass = 0usize;
                    while pass < 2 || Instant::now() < deadline {
                        // Pass ids are unique across connections, so span
                        // medians are per pass of one connection.
                        let id = (pass * CONNECTIONS + i) as u32;
                        spans.begin_pass(id, cfg.trace && pass % 2 == 1);
                        conn.cycle(&mut by_parity[pass % 2], &spans);
                        by_parity[pass % 2].end_pass();
                        pass += 1;
                    }
                    (by_parity, spans.into_spans())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let window_s = window.elapsed().as_secs_f64();
    let stats = (before, server.stats());

    let mut merged: Option<[Recorder; 2]> = None;
    let mut spans = Vec::new();
    for ([even, odd], kept) in streams {
        spans.push(kept);
        match &mut merged {
            None => merged = Some([even, odd]),
            Some([all_even, all_odd]) => {
                all_even.join(even);
                all_odd.join(odd);
            }
        }
    }
    let (mut rec, overhead) = fold_parity(merged.expect("CONNECTIONS > 0"));
    rec.attempted += warm_ups.0;
    rec.failed += warm_ups.1;
    Served { rec, setup_s: median(&mut setups), spans, overhead, window_s, stats, conns, server }
}

/// The codec in memory, on one request of the workload and the `raw`
/// bytes it carries: JSON text, hex payload, and a whole frame out and
/// back in.
fn codec_probes(request: &Json, raw: &[u8], out: &mut LayerValues) {
    let text = request.to_string();
    let mb = text.len() as f64 / 1e6;
    let encode = median_seconds(50, || {
        black_box(black_box(request).to_string());
    });
    let parse_s = median_seconds(50, || {
        black_box(parse(black_box(&text)).expect("own request parses"));
    });
    out.set("serve.json_encode_mb_per_s", mb / encode);
    out.set("serve.json_parse_mb_per_s", mb / parse_s);
    let hex = to_hex(raw);
    let raw_mb = raw.len() as f64 / 1e6;
    let hex_encode = median_seconds(50, || {
        black_box(to_hex(black_box(raw)));
    });
    let hex_decode = median_seconds(50, || {
        black_box(from_hex(black_box(&hex)).expect("own hex decodes"));
    });
    out.set("serve.hex_encode_mb_per_s", raw_mb / hex_encode);
    out.set("serve.hex_decode_mb_per_s", raw_mb / hex_decode);
    let roundtrip = median_seconds(50, || {
        let frame = frame_bytes(black_box(request));
        let payload = read_frame(&mut frame.as_slice()).expect("own frame reads");
        black_box(parse(&payload.expect("a frame")).expect("own frame parses"));
    });
    out.set("serve.frame_roundtrip_us", roundtrip * 1e6);
}

// ---------------------------------------------------------------------------
// serve_small
// ---------------------------------------------------------------------------

const N: u32 = 256;
const GRID: usize = 16;
const VERTICES: u64 = (GRID * GRID) as u64;

/// Byte offsets inside a session's output block.
const OUT_FOR: u64 = 0;
const OUT_BATCH: u64 = OUT_FOR + N as u64 * 4;
const LEVELS: u64 = OUT_BATCH + N as u64 * 4;
const SUM_BODY: u64 = LEVELS + VERTICES * 4;
const BLOCK: u64 = SUM_BODY + 16;

/// Byte offsets inside a session's body block: three `Double` bodies, the
/// `FrontierBFS` body, and the 4-byte slot of the `rw` class.
const BODY_FOR: u64 = 0;
const BODY_BATCH: [u64; 2] = [16, 32];
const BODY_BFS: u64 = 48;
const RW_SLOT: u64 = 72;
const BODIES: u64 = 80;

/// Everything `serve_small` generates from the seed.
struct SmallInputs {
    source: String,
    add: i32,
    data: Vec<f32>,
    row_off: Vec<i32>,
    cols: Vec<i32>,
}

impl SmallInputs {
    fn new(seed: u64) -> SmallInputs {
        let g = road_network(GRID, GRID, seed);
        let row_off = g.row_offsets().iter().map(|&o| o as i32).collect();
        let cols = g.adj.iter().flatten().map(|&(v, _)| v as i32).collect();
        SmallInputs {
            source: format!("{KERNELS}\n{}", FrontierBfs.spec().source),
            add: double_add(seed),
            data: sum_data(seed, N),
            row_off,
            cols,
        }
    }

    fn unvisited() -> Vec<u8> {
        let mut levels = vec![-1i32; VERTICES as usize];
        levels[0] = 0;
        le_bytes(&levels)
    }
}

/// What the output block must hold after one cycle, from the same
/// launches executed in-process through `Concord`.
struct SmallExpected {
    out_for: Vec<u8>,
    out_batch: Vec<u8>,
    levels: Vec<u8>,
    acc: Vec<u8>,
    frontier_sizes: Vec<u32>,
    /// Median host seconds of each launch kind (traced run only).
    direct_s: [f64; 4],
}

fn run_in_process(inputs: &SmallInputs, time: bool) -> SmallExpected {
    let opts = options(HOST_THREADS, TraceConfig::default());
    let mut cc = Concord::new(system(), &inputs.source, opts).expect("session source compiles");
    let block = cc.malloc(BLOCK).expect("alloc");
    write_bytes(&mut cc, block.offset(LEVELS), &SmallInputs::unvisited());
    let upload = |cc: &mut Concord, vals: &[i32]| {
        let a = cc.malloc(vals.len() as u64 * 4).expect("alloc");
        write_bytes(cc, a, &le_bytes(vals));
        a
    };
    let row_off = upload(&mut cc, &inputs.row_off);
    let cols = upload(&mut cc, &inputs.cols);
    let body_for = double_body(&mut cc, block.offset(OUT_FOR), inputs.add);
    let body_batch = [0, u64::from(N) * 2]
        .map(|half| double_body(&mut cc, block.offset(OUT_BATCH + half), inputs.add));
    let sum = sum_body(&mut cc, &inputs.data);
    let bfs = cc.malloc(24).expect("alloc");
    for (i, target) in [row_off, cols, block.offset(LEVELS)].into_iter().enumerate() {
        cc.region_mut().write_ptr(bfs.offset(i as u64 * 8), target).expect("write body");
    }

    let reps = if time { 31 } else { 1 };
    let mut frontier_sizes = Vec::new();
    let direct_s = [
        median_seconds(reps, || {
            cc.parallel_for_hetero("Double", body_for, N, Target::Auto).expect("for");
        }),
        median_seconds(reps, || {
            cc.region_mut().write_f32(sum.offset(8), 0.0).expect("reset acc");
            cc.parallel_reduce_hetero("Sum", sum, N, Target::Auto).expect("reduce");
        }),
        median_seconds(reps, || {
            let ids = [(body_batch[0], Target::Cpu), (body_batch[1], Target::Gpu)]
                .map(|(body, t)| cc.submit_for("Double", body, N / 2, t).expect("submit"));
            cc.complete_all();
            for id in ids {
                cc.complete(id).expect("batch launch");
            }
        }),
        median_seconds(reps, || {
            write_bytes(&mut cc, block.offset(LEVELS), &SmallInputs::unvisited());
            let r = cc.parallel_worklist_hetero("FrontierBFS", bfs, &[0], Target::Auto);
            frontier_sizes = r.expect("worklist").frontier_sizes;
        }),
    ];
    SmallExpected {
        out_for: read_bytes(&cc, block.offset(OUT_FOR), u64::from(N) * 4),
        out_batch: read_bytes(&cc, block.offset(OUT_BATCH), u64::from(N) * 4),
        levels: read_bytes(&cc, block.offset(LEVELS), VERTICES * 4),
        acc: read_bytes(&cc, sum.offset(8), 4),
        frontier_sizes,
        direct_s,
    }
}

struct SmallConn<'a> {
    client: Client,
    sid: u64,
    inputs: &'a SmallInputs,
    expected: &'a SmallExpected,
    block: u64,
    bodies: u64,
    /// The output block before any launch of a cycle: zeros, unvisited
    /// levels, and the `Sum` body with a zero accumulator.
    reset: Vec<u8>,
    order: Vec<usize>,
    span_names: Vec<String>,
    rw_values: Rng,
    batch_overlapped: u64,
    batch_fences_elided: u64,
}

impl<'a> SmallConn<'a> {
    fn connect(
        addr: SocketAddr,
        index: usize,
        seed: u64,
        inputs: &'a SmallInputs,
        expected: &'a SmallExpected,
    ) -> SmallConn<'a> {
        let mut c = Client::connect(addr).expect("connect");
        let sid = c.open_session(&inputs.source, &SessionOptions::default()).expect("open").session;
        let mut upload = |bytes: &[u8]| {
            let a = c.malloc(sid, bytes.len() as u64).expect("malloc");
            c.write(sid, a, bytes).expect("upload");
            a
        };
        let data = upload(&inputs.data.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>());
        let row_off = upload(&le_bytes(&inputs.row_off));
        let cols = upload(&le_bytes(&inputs.cols));
        // Scalar body fields in one upload, then the pointers.
        let mut image = vec![0u8; BODIES as usize];
        for body in [BODY_FOR, BODY_BATCH[0], BODY_BATCH[1]] {
            image[body as usize + 8..body as usize + 12].copy_from_slice(&inputs.add.to_le_bytes());
        }
        let bodies = upload(&image);
        let block = c.malloc(sid, BLOCK).expect("malloc");
        for (at, target) in [
            (bodies + BODY_FOR, block + OUT_FOR),
            (bodies + BODY_BATCH[0], block + OUT_BATCH),
            (bodies + BODY_BATCH[1], block + OUT_BATCH + u64::from(N) * 2),
            (bodies + BODY_BFS, row_off),
            (bodies + BODY_BFS + 8, cols),
            (bodies + BODY_BFS + 16, block + LEVELS),
            (block + SUM_BODY, data),
        ] {
            c.write_ptr(sid, at, target).expect("write_ptr");
        }
        // The reset image carries the `Sum` body's pointer as the server
        // stored it, so resetting the block keeps the body intact.
        let sum_body = c.read(sid, block + SUM_BODY, 16).expect("read body");
        let mut reset = vec![0u8; LEVELS as usize];
        reset.extend(SmallInputs::unvisited());
        reset.extend(&sum_body[..8]);
        reset.extend([0u8; 8]);

        let mut order: Vec<usize> = (0..SERVE_CLASSES.len()).collect();
        Rng::new(seed, stream::CLASS_ORDER + 16 * index as u64).shuffle(&mut order);
        SmallConn {
            client: c,
            sid,
            inputs,
            expected,
            block,
            bodies,
            reset,
            order,
            span_names: SERVE_CLASSES.iter().map(|c| format!("serve.class_p50_ms.{c}")).collect(),
            rw_values: Rng::new(seed, stream::RW_VALUES + 16 * index as u64),
            batch_overlapped: 0,
            batch_fences_elided: 0,
        }
    }

    /// Send the request(s) of one op class; whether every reply was the
    /// expected one. Output bytes are checked at the end of the cycle.
    fn request(&mut self, class: usize) -> bool {
        let (c, sid) = (&mut self.client, self.sid);
        let launched = |r: &OffloadReport| r.exec_seconds > 0.0;
        match SERVE_CLASSES[class] {
            "ping" => c.ping().is_ok(),
            "for" => c
                .parallel_for(sid, &Launch::new("Double", self.bodies + BODY_FOR, N))
                .is_ok_and(|r| launched(&r)),
            "reduce" => c
                .parallel_reduce(sid, &Launch::new("Sum", self.block + SUM_BODY, N))
                .is_ok_and(|r| launched(&r)),
            "batch" => {
                let entries = [
                    BatchEntry::new("Double", self.bodies + BODY_BATCH[0], N / 2).target("cpu"),
                    BatchEntry::new("Double", self.bodies + BODY_BATCH[1], N / 2).target("gpu"),
                ];
                let Ok(outcome) = c.parallel_batch(sid, &entries, None) else { return false };
                self.batch_overlapped += outcome.overlapped;
                self.batch_fences_elided += outcome.fences_elided;
                outcome.reports.iter().all(|r| r.as_ref().is_ok_and(launched))
            }
            "worklist" => c
                .parallel_worklist(sid, "FrontierBFS", self.bodies + BODY_BFS, &[0], None)
                .is_ok_and(|o| o.frontier_sizes == self.expected.frontier_sizes),
            "rw" => {
                let value = self.rw_values.next_u64().to_le_bytes();
                let slot = self.bodies + RW_SLOT;
                c.write(sid, slot, &value[..4]).is_ok()
                    && c.read(sid, slot, 4).is_ok_and(|got| got == value[..4])
            }
            "open_close" => {
                let opened = c.open_session(&self.inputs.source, &SessionOptions::default());
                opened.is_ok_and(|s| s.cache_hit && c.close_session(s.session).is_ok())
            }
            other => unreachable!("no request for class `{other}`"),
        }
    }
}

impl Conn for SmallConn<'_> {
    fn classes(&self) -> Vec<String> {
        SERVE_CLASSES.iter().map(|c| c.to_string()).collect()
    }

    /// Reset the output block (untimed), send every class once in this
    /// connection's order, then read the block back (untimed) and hold
    /// each launch class to the bytes the in-process launch produced.
    fn cycle(&mut self, rec: &mut Recorder, spans: &Spans) {
        let reset = self.client.write(self.sid, self.block, &self.reset).is_ok();
        let mut sent = Vec::with_capacity(self.order.len());
        for class in self.order.clone() {
            spans.next_op();
            let name = self.span_names[class].clone();
            let (ok, elapsed) = spans.time(&name, || self.request(class));
            sent.push((class, elapsed, ok));
        }
        let got = self.client.read(self.sid, self.block, BLOCK).unwrap_or_default();
        let e = self.expected;
        let holds =
            |at: u64, want: &[u8]| got.get(at as usize..at as usize + want.len()) == Some(want);
        for (class, elapsed, ok) in sent {
            let output = match SERVE_CLASSES[class] {
                "for" => holds(OUT_FOR, &e.out_for),
                "batch" => holds(OUT_BATCH, &e.out_batch),
                "worklist" => holds(LEVELS, &e.levels),
                "reduce" => holds(SUM_BODY + 8, &e.acc),
                _ => true,
            };
            rec.op(class, elapsed, reset && ok && output);
        }
    }
}

pub fn serve_small(cfg: RunCfg) -> Outcome {
    let inputs = SmallInputs::new(cfg.seed);
    let expected = run_in_process(&inputs, cfg.trace);
    assert_eq!(expected.out_for, double_expected(N, inputs.add), "in-process reference");
    let served = serve(cfg, |addr, i| SmallConn::connect(addr, i, cfg.seed, &inputs, &expected));
    let mut layers = LayerValues::new();
    if cfg.trace {
        layers.set_from_spans(&served.span_medians());
        layers.set("bench.trace_overhead_ratio", served.overhead);
        layers.set("bench.p90_ms", served.rec.p90_ms());
        served.server_counters(&mut layers);
        let sum = |f: fn(&SmallConn) -> u64| served.conns.iter().map(f).sum::<u64>() as f64;
        layers.set("serve.batch_overlapped", sum(|c| c.batch_overlapped));
        layers.set("serve.batch_fences_elided", sum(|c| c.batch_fences_elided));
        for (kind, s) in ["for", "reduce", "batch", "worklist"].iter().zip(expected.direct_s) {
            layers.set(&format!("serve.direct_exec_us.{kind}"), s * 1e6);
        }
        // The `for` request and the block it fills, through the codec.
        let request = Json::obj(vec![
            ("type", Json::str("parallel_for")),
            ("session", 1u64.into()),
            ("class", "Double".into()),
            ("body", served.conns[0].bodies.into()),
            ("n", u64::from(N).into()),
            ("id", 1u64.into()),
        ]);
        codec_probes(&request, &expected.out_for, &mut layers);
        let reply = Json::obj(vec![
            ("type", Json::str("report")),
            ("report", report_json(&OffloadReport::default())),
            ("id", 1u64.into()),
        ]);
        let reply_s = median_seconds(50, || {
            let frame = frame_bytes(black_box(&reply));
            let payload = read_frame(&mut frame.as_slice()).expect("own frame reads");
            black_box(parse(&payload.expect("a frame")).expect("own frame parses"));
        });
        // What is left of a `for` request once the codec (request and
        // reply) and the launch itself are taken out: transport, admission
        // queue and session lock.
        let codec_ms = layers.get("serve.frame_roundtrip_us") / 1e3 + reply_s * 1e3;
        let direct_ms = layers.get("serve.direct_exec_us.for") / 1e3;
        let residual = layers.get("serve.class_p50_ms.for") - codec_ms - direct_ms;
        layers.set("serve.residual_ms", residual);
    }
    served.into_outcome(layers)
}

// ---------------------------------------------------------------------------
// serve_bulk
// ---------------------------------------------------------------------------

const BULK_INTS: u32 = 64 << 10;
const BULK_BYTES: u64 = BULK_INTS as u64 * 4;
const BULK_CLASSES: [&str; 3] = ["write", "launch", "read"];

struct BulkConn {
    client: Client,
    sid: u64,
    data: u64,
    body: u64,
    payload: Vec<i32>,
    ops: i32,
}

impl BulkConn {
    fn connect(addr: SocketAddr, index: usize, seed: u64) -> BulkConn {
        let mut c = Client::connect(addr).expect("connect");
        let opts = SessionOptions { target: Some("native".to_string()), ..Default::default() };
        let sid = c.open_session(KERNELS, &opts).expect("open").session;
        let data = c.malloc(sid, BULK_BYTES).expect("malloc");
        let body = c.malloc(sid, 8).expect("malloc");
        c.write_ptr(sid, body, data).expect("write_ptr");
        // 20-bit values: `v * 3 + 7` cannot overflow.
        let mut rng = Rng::new(seed, stream::BULK_PAYLOAD + 16 * index as u64);
        let payload = (0..BULK_INTS).map(|_| rng.range(0, (1 << 20) - 1)).collect();
        BulkConn { client: c, sid, data, body, payload, ops: 0 }
    }
}

impl Conn for BulkConn {
    fn classes(&self) -> Vec<String> {
        BULK_CLASSES.iter().map(|c| c.to_string()).collect()
    }

    /// One op: upload 256 KiB, transform it in place with one launch over
    /// the 65 536 ints, read it back, and check every byte.
    fn cycle(&mut self, rec: &mut Recorder, spans: &Spans) {
        // A fresh first word per op, so stale bytes cannot pass.
        self.ops += 1;
        self.payload[0] = self.ops & 0xF_FFFF;
        let upload = le_bytes(&self.payload);
        let want = le_bytes(&self.payload.iter().map(|v| v * 3 + 7).collect::<Vec<_>>());
        let (c, sid) = (&mut self.client, self.sid);
        spans.next_op();
        let (wrote, t_write) =
            spans.time("serve.write_p50_ms", || c.write(sid, self.data, &upload).is_ok());
        let (ran, t_launch) = spans.time("serve.launch64k_p50_ms", || {
            c.parallel_for(sid, &Launch::new("Scale", self.body, BULK_INTS)).is_ok()
        });
        let (got, t_read) = spans.time("serve.read_p50_ms", || c.read(sid, self.data, BULK_BYTES));
        let ok = wrote && ran && got.is_ok_and(|bytes| bytes == want);
        for (class, elapsed) in [t_write, t_launch, t_read].into_iter().enumerate() {
            rec.op(class, elapsed, ok);
        }
    }
}

pub fn serve_bulk(cfg: RunCfg) -> Outcome {
    let served = serve(cfg, |addr, i| BulkConn::connect(addr, i, cfg.seed));
    let mut layers = LayerValues::new();
    if cfg.trace {
        layers.set_from_spans(&served.span_medians());
        layers.set("bench.trace_overhead_ratio", served.overhead);
        layers.set("bench.p90_ms", served.rec.p90_ms());
        served.server_counters(&mut layers);
        let moved = 2.0 * BULK_BYTES as f64 * served.rec.passes.len() as f64;
        layers.set("serve.bulk_mb_per_s", moved / 1e6 / served.window_s);
        let upload = le_bytes(&served.conns[0].payload);
        let request = Json::obj(vec![
            ("type", Json::str("write")),
            ("session", 1u64.into()),
            ("addr", served.conns[0].data.into()),
            ("hex", to_hex(&upload).into()),
            ("id", 1u64.into()),
        ]);
        codec_probes(&request, &upload, &mut layers);
    }
    served.into_outcome(layers)
}
