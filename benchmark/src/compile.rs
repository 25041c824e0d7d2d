//! The `compile` workload: compile layers only, no kernel executes.

use crate::harness::{InProc, Recorder};
use crate::metrics::LayerValues;
use crate::programs::{all_programs, options, system, HOST_THREADS};
use crate::spans::Spans;
use concord_analyze::Mode;
use concord_compiler::{lower_for_gpu, optimize_for_cpu, GpuArtifact, GpuConfig};
use concord_frontend::LoweredProgram;
use concord_ir::codec::{decode_exact, encode_to_vec};
use concord_ir::Module;
use concord_runtime::{ArtifactCache, Concord};
use concord_trace::TraceConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// Counts of one cold compile, summed over the 13 programs of a pass.
#[derive(Default, Clone, Copy)]
struct Counts {
    src_bytes: usize,
    insts_out_cpu: usize,
    insts_out_gpu: usize,
    translations_inserted: usize,
    devirtualized: usize,
    findings: usize,
    code_bytes: usize,
}

/// What must be identical on every cold compile of one program. Sizes
/// and counts, not bytes: the encoded artifact of one source differs in
/// record order from compile to compile (hash-map iteration), and the
/// native code bytes are not reachable from outside `concord-native`.
#[derive(PartialEq)]
struct Fingerprint {
    artifact_len: usize,
    code_len: usize,
    insts: [usize; 2],
}

fn placed_insts(m: &Module) -> usize {
    m.functions.iter().map(concord_ir::Function::placed_inst_count).sum()
}

/// All 13 programs, three op classes each: `cold` (every compile layer in
/// turn), `disk` (open over a fresh cache on a populated directory) and
/// `warm` (open over a hot in-memory cache).
pub struct Compile {
    sources: Vec<(&'static str, &'static str)>,
    gpu_config: GpuConfig,
    dir: PathBuf,
    hot: ArtifactCache,
    first: Vec<Option<Fingerprint>>,
    counts: Counts,
}

impl Compile {
    pub fn new() -> Compile {
        static NEXT_DIR: AtomicU32 = AtomicU32::new(0);
        let dir = crate::out_dir().join(format!(
            "cache-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let sources: Vec<_> = all_programs()
            .iter()
            .map(|w| {
                let s = w.spec();
                (s.name, s.source)
            })
            .collect();
        let hot = ArtifactCache::new();
        let disk = ArtifactCache::with_disk(&dir).expect("create cache directory");
        let opts = options(HOST_THREADS, TraceConfig::default());
        for (name, source) in &sources {
            for cache in [&hot, &disk] {
                Concord::new_with_cache(system(), source, opts, cache)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
        assert_eq!(disk.disk_writes(), sources.len() as u64, "disk cache populated");
        let first = sources.iter().map(|_| None).collect();
        let gpu_config = GpuConfig::all(system().gpu.eus);
        Compile { sources, gpu_config, dir, hot, first, counts: Counts::default() }
    }

    /// Every compile layer in turn, each call in a span of its own, then
    /// (untimed) the artifact codec round trip and the determinism check.
    fn cold(&mut self, i: usize, spans: &Spans) -> (Duration, bool) {
        let source = self.sources[i].1;
        let gpu_config = self.gpu_config;
        type Compiled = (LoweredProgram, GpuArtifact, usize, usize, usize);
        let (compiled, elapsed) = spans.time("bench.cold_ms", || -> Result<Compiled, String> {
            let (program, _) =
                spans.time("frontend.compile_ms", || concord_frontend::compile(source));
            let mut program = program.map_err(|e| e.to_string())?;
            let (gpu, _) =
                spans.time("compiler.gpu_lower_ms", || lower_for_gpu(&program.module, gpu_config));
            let (cpu_stats, _) =
                spans.time("compiler.cpu_opt_ms", || optimize_for_cpu(&mut program.module));
            let (findings, _) = spans.time("analyze.kernel_ms", || {
                program
                    .kernels
                    .iter()
                    .map(|k| {
                        let mode = if k.join_fn.is_some() { Mode::Reduce } else { Mode::For };
                        concord_analyze::analyze_kernel(&program.module, k.operator_fn, mode)
                            .diagnostics
                            .len()
                    })
                    .sum::<usize>()
            });
            let (native, _) =
                spans.time("native.codegen_ms", || concord_native::compile(&program.module));
            let code_len = native.map_err(|e| e.to_string())?.code_len();
            Ok((program, gpu, cpu_stats.devirtualized, findings, code_len))
        });
        let (program, gpu, cpu_devirtualized, findings, code_len) = match compiled {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{}: {e}", self.sources[i].0);
                return (elapsed, false);
            }
        };
        let insts = [placed_insts(&program.module), placed_insts(&gpu.module)];
        self.counts.src_bytes += source.len();
        self.counts.insts_out_cpu += insts[0];
        self.counts.insts_out_gpu += insts[1];
        self.counts.translations_inserted += gpu.stats.translations_inserted;
        self.counts.devirtualized += gpu.stats.devirtualized + cpu_devirtualized;
        self.counts.findings += findings;
        self.counts.code_bytes += code_len;

        // What the disk cache stores: program, then GPU artifact.
        let (encoded, _) =
            spans.time("ir.encode_ms", || [encode_to_vec(&program), encode_to_vec(&gpu)]);
        let (decoded, _) = spans.time("ir.decode_ms", || {
            let program = decode_exact::<LoweredProgram>(&encoded[0]);
            let gpu = decode_exact::<GpuArtifact>(&encoded[1]);
            program.and_then(|p| gpu.map(|g| (p, g)))
        });
        let round_trips =
            decoded.is_ok_and(|(p, g)| [encode_to_vec(&p), encode_to_vec(&g)] == encoded);
        let artifact_len = encoded.iter().map(Vec::len).sum();
        let print = Fingerprint { artifact_len, code_len, insts };
        let repeats = match &self.first[i] {
            Some(first) => *first == print,
            None => {
                self.first[i] = Some(print);
                true
            }
        };
        (elapsed, round_trips && repeats)
    }

    /// Open over a fresh cache on the populated directory: artifact
    /// decode and checksum, no compile.
    fn disk(&self, i: usize, spans: &Spans) -> (Duration, bool) {
        let opts = options(HOST_THREADS, TraceConfig::default());
        let (ok, elapsed) = spans.time("runtime.cache_disk_open_ms", || {
            let Ok(cache) = ArtifactCache::with_disk(&self.dir) else { return false };
            Concord::new_with_cache(system(), self.sources[i].1, opts, &cache).is_ok()
                && cache.disk_hits() == 1
                && cache.compiles() == 0
        });
        (elapsed, ok)
    }

    /// Open over the hot in-memory cache.
    fn warm(&self, i: usize, spans: &Spans) -> (Duration, bool) {
        let opts = options(HOST_THREADS, TraceConfig::default());
        let hits = self.hot.hits();
        let (opened, elapsed) = spans.time("runtime.cache_warm_open_us", || {
            Concord::new_with_cache(system(), self.sources[i].1, opts, &self.hot).is_ok()
        });
        (elapsed, opened && self.hot.hits() == hits + 1)
    }
}

impl Drop for Compile {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl InProc for Compile {
    fn classes(&self) -> Vec<String> {
        self.sources
            .iter()
            .flat_map(|(n, _)| [format!("cold.{n}"), format!("disk.{n}"), format!("warm.{n}")])
            .collect()
    }

    fn pass(&mut self, rec: &mut Recorder, spans: &Spans) {
        self.counts = Counts::default();
        for i in 0..self.sources.len() {
            spans.next_op();
            let (elapsed, ok) = self.cold(i, spans);
            rec.op(3 * i, elapsed, ok);
            spans.next_op();
            let (elapsed, ok) = self.disk(i, spans);
            rec.op(3 * i + 1, elapsed, ok);
            spans.next_op();
            let (elapsed, ok) = self.warm(i, spans);
            rec.op(3 * i + 2, elapsed, ok);
            if spans.keeping() {
                // `Concord::new` whole; `layers` takes the compile layers
                // out of it. Not an op, so traced passes only.
                let opts = options(HOST_THREADS, TraceConfig::default());
                let source = self.sources[i].1;
                let (cc, _) = spans.time("runtime.new_ms", || Concord::new(system(), source, opts));
                cc.expect("compiled a moment ago");
            }
        }
    }

    fn layers(&mut self, _rec: &Recorder, out: &mut LayerValues) {
        let c = self.counts;
        out.set("frontend.src_bytes", c.src_bytes as f64);
        out.set("compiler.insts_out_cpu", c.insts_out_cpu as f64);
        out.set("compiler.insts_out_gpu", c.insts_out_gpu as f64);
        out.set("compiler.translations_inserted", c.translations_inserted as f64);
        out.set("compiler.devirtualized", c.devirtualized as f64);
        out.set("analyze.findings", c.findings as f64);
        out.set("native.code_bytes", c.code_bytes as f64);
        let artifact_bytes: u64 = std::fs::read_dir(&self.dir)
            .map(|d| d.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
            .unwrap_or(0);
        out.set("ir.artifact_bytes", artifact_bytes as f64);
        let compile_layers =
            ["frontend.compile_ms", "compiler.gpu_lower_ms", "compiler.cpu_opt_ms"];
        let compiling: f64 = compile_layers.iter().map(|n| out.get(n)).sum();
        out.set("runtime.new_ms", out.get("runtime.new_ms") - compiling);
    }
}
