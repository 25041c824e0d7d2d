//! What every workload shares: the sample recorder, the end-to-end
//! metric definitions, and the result line.

use crate::metrics::{LayerValues, END_TO_END};
use crate::spans::{per_pass_median_ns, Span, Spans};
use crate::stats::{geomean, median, percentile};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// How long [`settle`] keeps the host threads busy.
const SETTLE: Duration = Duration::from_secs(2);

/// Keep both host threads busy for [`SETTLE`] before anything is set up
/// or measured, so that every run starts from the same machine state
/// whatever ran before it. Virtual machines of the kind this benchmark
/// runs on change state after about a second with every core busy, and
/// change back after a few idle seconds; between the two states passes
/// bound by thread wake-ups (`small_launches`) differ by half and bulk
/// codec work (`serve_bulk`) by a fifth, in opposite directions. The
/// workloads that are sensitive to the state neither enter nor leave it
/// on their own, so without this their numbers depend on the run before.
pub fn settle() {
    let until = Instant::now() + SETTLE;
    std::thread::scope(|scope| {
        for _ in 0..crate::programs::HOST_THREADS {
            scope.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// What the command line fixes for one run.
#[derive(Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub rec: Recorder,
    pub setup_s: f64,
    /// Kept spans, one list per recording thread (traced run only).
    pub spans: Vec<Vec<Span>>,
    /// Workload-supplied per-layer values (traced run only).
    pub layers: LayerValues,
    /// Set when the run must not be reported at all, e.g. a simulated
    /// statistic differed between two passes.
    pub fatal: Option<String>,
}

/// An in-process workload: a fixed list of op classes, run once each per
/// pass.
pub trait InProc {
    fn classes(&self) -> Vec<String>;
    /// Run every op class once: time it into `rec`, check its output.
    fn pass(&mut self, rec: &mut Recorder, spans: &Spans);
    /// Per-layer values beyond the span medians already in `out`:
    /// counters the product reports, probes of single layers, and values
    /// derived from other metrics. Traced run only.
    fn layers(&mut self, rec: &Recorder, out: &mut LayerValues);
    /// See [`Outcome::fatal`].
    fn fatal(&self) -> Option<String> {
        None
    }
}

/// Set up `SETUPS` times (input generation, compile, upload, one warm-up
/// pass), then run passes until the window closes. In a traced run only
/// odd passes keep spans, so the even ones give the untraced reference
/// for `bench.trace_overhead_ratio` under identical conditions.
pub fn drive<W: InProc>(cfg: RunCfg, make: impl Fn(&Spans) -> W) -> Outcome {
    let spans = Spans::new(Instant::now());
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    let mut warm_ups = (0, 0);
    for k in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        // Each set-up is a pass of its own to the span medians; its
        // warm-up pass keeps no spans, so cold runs stay out of them.
        spans.begin_pass(u32::MAX - k as u32, cfg.trace);
        let mut w = make(&spans);
        spans.begin_pass(0, false);
        let mut warm = Recorder::new(&w.classes());
        w.pass(&mut warm, &spans);
        setups.push(start.elapsed().as_secs_f64());
        workload = Some(w);
        warm_ups.0 += warm.attempted;
        warm_ups.1 += warm.failed;
    }
    let mut w = workload.expect("SETUPS > 0");
    let classes = w.classes();
    let mut by_parity = [Recorder::new(&classes), Recorder::new(&classes)];
    let deadline = Instant::now() + cfg.window;
    let mut pass = 0u32;
    while pass < 2 || Instant::now() < deadline {
        let odd = (pass % 2) as usize;
        spans.begin_pass(pass, cfg.trace && odd == 1);
        w.pass(&mut by_parity[odd], &spans);
        by_parity[odd].end_pass();
        pass += 1;
    }
    let kept = spans.into_spans();
    let (mut rec, overhead) = fold_parity(by_parity);
    let mut layers = LayerValues::new();
    if cfg.trace {
        layers.set_from_spans(&per_pass_median_ns(&kept));
        layers.set("bench.trace_overhead_ratio", overhead);
        layers.set("bench.p90_ms", rec.p90_ms());
        w.layers(&rec, &mut layers);
    }
    // Warm-up ops are checked like any other; they count, untimed.
    rec.attempted += warm_ups.0;
    rec.failed += warm_ups.1;
    let fatal = w.fatal();
    drop(w);
    Outcome { rec, setup_s: median(&mut setups), spans: vec![kept], layers, fatal }
}

/// Fold the even (never traced) and odd (traced in a traced run) passes
/// of one stream back together; also the odd passes' `geomean_ms` over
/// the even ones', the tracing overhead.
pub fn fold_parity([even, odd]: [Recorder; 2]) -> (Recorder, f64) {
    let overhead = odd.geomean_ms() / even.geomean_ms();
    let mut rec = even;
    rec.extend(odd);
    (rec, overhead)
}

/// Latency samples of one load stream (the in-process driver, or one
/// client connection), by op class.
#[derive(Clone)]
pub struct Recorder {
    pub classes: Vec<String>,
    /// Seconds per successful op, by class.
    pub latencies: Vec<Vec<f64>>,
    /// Timed seconds of each pass in which every op succeeded.
    pub passes: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Load streams folded into this recorder.
    streams: u32,
    pass_seconds: f64,
    pass_clean: bool,
}

impl Recorder {
    pub fn new(classes: &[String]) -> Recorder {
        Recorder {
            classes: classes.to_vec(),
            latencies: vec![Vec::new(); classes.len()],
            passes: Vec::new(),
            attempted: 0,
            failed: 0,
            streams: 1,
            pass_seconds: 0.0,
            pass_clean: true,
        }
    }

    /// Account one op. A failed, refused or mis-verified op counts as
    /// failed and contributes no latency sample.
    pub fn op(&mut self, class: usize, elapsed: Duration, ok: bool) {
        self.attempted += 1;
        if ok {
            let s = elapsed.as_secs_f64();
            self.latencies[class].push(s);
            self.pass_seconds += s;
        } else {
            self.failed += 1;
            self.pass_clean = false;
        }
    }

    pub fn end_pass(&mut self) {
        if self.pass_clean {
            self.passes.push(self.pass_seconds);
        }
        self.pass_seconds = 0.0;
        self.pass_clean = true;
    }

    /// Fold in more samples of the same stream.
    pub fn extend(&mut self, other: Recorder) {
        for (mine, theirs) in self.latencies.iter_mut().zip(other.latencies) {
            mine.extend(theirs);
        }
        self.passes.extend(other.passes);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Fold in a stream that ran beside this one.
    pub fn join(&mut self, other: Recorder) {
        self.streams += other.streams;
        self.extend(other);
    }

    pub fn class_medians(&self) -> Vec<f64> {
        self.latencies.iter().map(|l| median(&mut l.clone())).collect()
    }

    /// Geometric mean over the op classes of each class's median, in ms.
    pub fn geomean_ms(&self) -> f64 {
        geomean(&self.class_medians()) * 1e3
    }

    /// Geometric mean over the op classes of each class's p90, in ms: the
    /// highest percentile with at least ten samples beyond it at the
    /// sample counts the six workloads reach.
    pub fn p90_ms(&self) -> f64 {
        let p90s: Vec<f64> = (self.latencies.iter())
            .map(|l| {
                let mut sorted = l.clone();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, 0.9)
            })
            .collect();
        geomean(&p90s) * 1e3
    }
}

/// Values of the end-to-end metrics, in [`END_TO_END`] order. Timings
/// are medians.
pub fn end_to_end(rec: &Recorder, setup_s: f64) -> [f64; END_TO_END.len()] {
    let ops: usize = rec.latencies.iter().map(Vec::len).sum();
    let busy: f64 = rec.latencies.iter().flatten().sum();
    [
        setup_s,
        rec.geomean_ms(),
        median(&mut rec.passes.clone()) * 1e3,
        // Each stream is a closed loop, so its rate is ops over the time
        // its ops took; benchmark-side checking between ops is left out.
        f64::from(rec.streams) * ops as f64 / busy,
    ]
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
         \"metrics\":{{{}}}}}",
        rows.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_serve::json::{parse, Json};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn failed_ops_count_and_leave_no_sample() {
        let mut r = Recorder::new(&["a".to_string(), "b".to_string()]);
        r.op(0, ms(10), true);
        r.op(1, ms(40), true);
        r.end_pass();
        r.op(0, ms(10), true);
        r.op(1, ms(999), false);
        r.end_pass();
        assert_eq!((r.attempted, r.failed), (4, 1));
        assert_eq!(r.latencies[1], vec![0.040]);
        assert_eq!(r.passes, vec![0.050], "a pass with a failed op is not a pass sample");
        assert!((r.geomean_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_adds_parallel_streams_but_not_more_samples_of_one() {
        let classes = ["a".to_string()];
        let mut one = Recorder::new(&classes);
        one.op(0, ms(100), true);
        let mut more = Recorder::new(&classes);
        more.op(0, ms(100), true);
        let rate = |r: &Recorder| end_to_end(r, 1.0)[3];
        let mut same = one.clone();
        same.extend(more.clone());
        assert!((rate(&same) - 10.0).abs() < 1e-9);
        one.join(more);
        assert!((rate(&one) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_round_trips_through_a_json_parser() {
        let mut r = Recorder::new(&["a".to_string()]);
        r.op(0, ms(3), true);
        r.end_pass();
        let metrics: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .zip(end_to_end(&r, 0.25))
            .map(|((n, u), v)| (n.to_string(), v, *u))
            .collect();
        let doc = parse(&result_line(true, 1, 0, &metrics)).unwrap();
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
        let m = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let row = m.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(row.get("unit").and_then(Json::as_str), Some(unit));
            assert!(row.get("value").and_then(Json::as_f64).unwrap() > 0.0);
        }
        let setup = m.get("setup_s").unwrap().get("value").and_then(Json::as_f64);
        assert_eq!(setup, Some(0.25));
    }
}
