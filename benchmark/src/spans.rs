//! Benchmark-side spans around every call into a product layer.
//!
//! A span's name is the per-layer metric it feeds (`native.run_ms.BTree`);
//! the part before the first dot is the layer. Spans are kept in memory
//! and written as Chrome trace JSON when the run ends. Every call is
//! timed whether or not spans are being kept, so the traced and untraced
//! paths run the same code apart from the push onto the span list.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call. `parent` indexes the recorder's own span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operation the span belongs to; every span of one op shares it.
    pub op: u64,
    /// Pass (one cycle over all op classes) the op belongs to.
    pub pass: u32,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

#[derive(Default)]
struct Inner {
    keep: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    pass: u32,
}

/// Per-thread span recorder. All recorders of a run share one `epoch`.
pub struct Spans {
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans { epoch, inner: RefCell::new(Inner::default()) }
    }

    /// A recorder that only times: for set-up and probes outside a run's
    /// passes.
    pub fn unkept() -> Spans {
        Spans::new(Instant::now())
    }

    /// Start pass `pass`, keeping its spans only when `keep` is set.
    pub fn begin_pass(&self, pass: u32, keep: bool) {
        let mut i = self.inner.borrow_mut();
        i.pass = pass;
        i.keep = keep;
    }

    /// Whether the current pass keeps its spans.
    pub fn keeping(&self) -> bool {
        self.inner.borrow().keep
    }

    /// Start the next operation: spans opened from here on share its id.
    pub fn next_op(&self) {
        self.inner.borrow_mut().op += 1;
    }

    /// Time `f`; when spans are kept, also record the call as a child of
    /// the innermost open span.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let opened = {
            let mut i = self.inner.borrow_mut();
            i.keep.then(|| {
                let idx = i.spans.len();
                let span = Span {
                    name: name.to_string(),
                    start_ns: 0,
                    end_ns: 0,
                    parent: i.open.last().copied(),
                    op: i.op,
                    pass: i.pass,
                };
                i.spans.push(span);
                i.open.push(idx);
                idx
            })
        };
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        if let Some(idx) = opened {
            let mut i = self.inner.borrow_mut();
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            i.spans[idx].start_ns = start_ns;
            i.spans[idx].end_ns = start_ns + elapsed.as_nanos() as u64;
            i.open.pop();
        }
        (value, elapsed)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// For each span name: the median over kept passes of the self time the
/// name accumulated in one pass, in nanoseconds.
pub fn per_pass_median_ns(spans: &[Span]) -> BTreeMap<String, f64> {
    let own = self_times_ns(spans);
    let mut sums: BTreeMap<&str, BTreeMap<u32, f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *sums.entry(&s.name).or_default().entry(s.pass).or_default() += ns as f64;
    }
    sums.into_iter()
        .map(|(name, passes)| {
            let mut per_pass: Vec<f64> = passes.into_values().collect();
            (name.to_string(), crate::stats::median(&mut per_pass))
        })
        .collect()
}

/// Per layer: calls, total and self milliseconds over all kept spans.
pub fn layer_table(threads: &[Vec<Span>]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut table: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            let row = table.entry(s.layer().to_string()).or_default();
            row.0 += 1;
            row.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
            row.2 += own as f64 / 1e6;
        }
    }
    table
}

/// Chrome trace-event JSON (`chrome://tracing`, <https://ui.perfetto.dev>):
/// one complete (`X`) event per span, one `tid` per recorder.
pub fn chrome_json(threads: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        for s in spans {
            if !first {
                out.push(',');
            }
            first = false;
            // Span names are metric names: letters, digits, `_`, `.`, `-`
            // only, so they need no JSON escaping.
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"pass\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                tid,
                s.op,
                s.pass,
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, pass: u32) -> Span {
        Span { name: name.to_string(), start_ns: start, end_ns: end, parent, op: 1, pass }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("bench.op", 0, 100, None, 0),
            span("compiler.a_ms", 10, 40, Some(0), 0), // sibling 1
            span("native.b_ms", 50, 90, Some(0), 0),   // sibling 2
            span("ir.c_ms", 55, 65, Some(2), 0),       // nested in sibling 2
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn per_pass_median_sums_within_a_pass_then_takes_the_median() {
        let spans = vec![
            span("x.t_ms", 0, 10, None, 0),
            span("x.t_ms", 20, 30, None, 0),
            span("x.t_ms", 0, 50, None, 1),
            span("x.t_ms", 0, 30, None, 2),
        ];
        assert_eq!(per_pass_median_ns(&spans)["x.t_ms"], 30.0);
    }

    #[test]
    fn recorder_links_children_and_skips_unkept_passes() {
        let rec = Spans::new(Instant::now());
        rec.begin_pass(0, false);
        rec.time("a.skipped_ms", || ());
        rec.begin_pass(1, true);
        rec.next_op();
        rec.time("a.outer_ms", || {
            rec.time("b.inner_ms", || ());
        });
        rec.time("a.after_ms", || ());
        let spans = rec.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a.outer_ms", "b.inner_ms", "a.after_ms"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.pass == 1 && s.op == 1 && s.end_ns >= s.start_ns));
        assert_eq!(spans[1].layer(), "b");
        assert!(chrome_json(&[spans]).contains("\"cat\":\"b\""));
    }
}
