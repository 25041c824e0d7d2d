//! The metric registry: every name the benchmark may report, with its
//! unit. `/BENCHMARK.json` lists the same names (a test keeps the two in
//! step); the layer of a per-layer metric is the part before the first dot.

use std::collections::BTreeMap;

/// The six one-launch Table-1 programs of `native_exec`.
pub const ONE_LAUNCH: [&str; 6] =
    ["BarnesHut", "BTree", "ClothPhysics", "FaceDetect", "Raytracer", "SkipList"];
/// The many-launch programs of `small_launches`.
pub const MANY_LAUNCH: [&str; 7] =
    ["BFS", "SSSP", "ConnectedComponent", "FrontierBFS", "WorklistCC", "DeltaSSSP", "KCore"];
/// All nine Table-1 programs, in the paper's order.
pub const TABLE1: [&str; 9] = [
    "BarnesHut",
    "BFS",
    "BTree",
    "ClothPhysics",
    "ConnectedComponent",
    "FaceDetect",
    "Raytracer",
    "SkipList",
    "SSSP",
];
/// Request classes of `serve_small`.
pub const SERVE_CLASSES: [&str; 7] =
    ["ping", "for", "reduce", "batch", "worklist", "rw", "open_close"];

/// End-to-end metrics; every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("geomean_ms", "ms"), ("pass_ms", "ms"), ("ops_per_s", "1/s")];

/// Per-layer metrics, reported by the traced run. A workload that does
/// not exercise a metric's layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    let each = |prefix: &str, names: &[&str]| -> Vec<String> {
        names.iter().map(|n| format!("{prefix}.{n}")).collect()
    };

    add("frontend.compile_ms", "ms");
    add("frontend.src_bytes", "count");

    add("compiler.gpu_lower_ms", "ms");
    add("compiler.cpu_opt_ms", "ms");
    add("compiler.insts_out_cpu", "count");
    add("compiler.insts_out_gpu", "count");
    add("compiler.translations_inserted", "count");
    add("compiler.devirtualized", "count");

    add("analyze.kernel_ms", "ms");
    add("analyze.findings", "count");

    add("native.codegen_ms", "ms");
    add("native.code_bytes", "count");
    for n in each("native.run_ms", &ONE_LAUNCH) {
        add(&n, "ms");
    }
    add("native.ns_per_item.light", "ns");
    add("native.ns_per_item.reduce", "ns");
    add("native.launch_fixed_us", "us");

    add("ir.encode_ms", "ms");
    add("ir.decode_ms", "ms");
    add("ir.artifact_bytes", "count");

    add("runtime.new_ms", "ms");
    add("runtime.cache_warm_open_us", "us");
    add("runtime.cache_disk_open_ms", "ms");
    add("runtime.launch_fixed_us.cpu", "us");
    add("runtime.launch_fixed_us.gpu", "us");
    add("runtime.pair_submit_complete_us", "us");
    add("runtime.graph.overlapped", "count");
    add("runtime.graph.fences_elided", "count");
    add("runtime.graph.conflict_stalls", "count");
    add("runtime.worklist_round_us", "us");
    add("runtime.worklist_rounds", "count");
    add("runtime.hazard_serialized", "count");
    for n in each("runtime.small_ms", &MANY_LAUNCH) {
        add(&n, "ms");
    }

    add("pool.map_dispatch_us", "us");
    add("pool.ht_speedup_geomean", "ratio");

    for n in each("cpusim.run_ms", &TABLE1) {
        add(&n, "ms");
    }
    add("cpusim.insts", "count");
    add("cpusim.insts_per_host_s", "1/s");

    for n in each("gpusim.run_ms", &TABLE1) {
        add(&n, "ms");
    }
    add("gpusim.insts", "count");
    add("gpusim.insts_per_host_s", "1/s");
    add("gpusim.transactions", "count");
    add("gpusim.contended", "count");
    add("gpusim.translations", "count");
    add("gpusim.busy_fraction", "ratio");
    add("gpusim.sim_speedup_geomean", "ratio");

    add("energy.cpu_joules", "J");
    add("energy.gpu_joules", "J");
    add("energy.sim_savings_geomean", "ratio");

    add("svm.alloc_free_ns", "ns");
    add("svm.write_mb_per_s", "MB/s");
    add("svm.shadow_apply_ns_per_op", "ns");

    add("workloads.build_ms", "ms");

    add("serve.json_parse_mb_per_s", "MB/s");
    add("serve.json_encode_mb_per_s", "MB/s");
    add("serve.hex_encode_mb_per_s", "MB/s");
    add("serve.hex_decode_mb_per_s", "MB/s");
    add("serve.frame_roundtrip_us", "us");
    for n in each("serve.class_p50_ms", &SERVE_CLASSES) {
        add(&n, "ms");
    }
    add("serve.write_p50_ms", "ms");
    add("serve.read_p50_ms", "ms");
    add("serve.launch64k_p50_ms", "ms");
    add("serve.bulk_mb_per_s", "MB/s");
    for n in each("serve.direct_exec_us", &["for", "reduce", "batch", "worklist"]) {
        add(&n, "us");
    }
    add("serve.residual_ms", "ms");
    add("serve.admitted", "count");
    add("serve.completed", "count");
    add("serve.rejected", "count");
    add("serve.deadline_missed", "count");
    add("serve.cache_hits", "count");
    add("serve.cache_misses", "count");
    add("serve.batch_overlapped", "count");
    add("serve.batch_fences_elided", "count");
    add("serve.hazard_serialized", "count");

    add("trace.enabled_overhead_ratio", "ratio");
    add("bench.trace_overhead_ratio", "ratio");
    add("bench.p90_ms", "ms");
    add("bench.peak_rss_mb", "MB");
    m
}

/// Values of the per-layer metrics of one traced run, every registered
/// name present (0 until set).
pub struct LayerValues(BTreeMap<String, (f64, &'static str)>);

impl LayerValues {
    pub fn new() -> LayerValues {
        LayerValues(per_layer().into_iter().map(|(name, unit)| (name, (0.0, unit))).collect())
    }

    /// # Panics
    ///
    /// On a name that is not registered: a typo in the benchmark itself.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.get_mut(name).unwrap_or_else(|| panic!("unregistered metric `{name}`")).0 = value;
    }

    /// Set every registered metric that has a span of its own name from
    /// the spans' per-pass medians, converted to the metric's unit.
    pub fn set_from_spans(&mut self, per_pass_median_ns: &BTreeMap<String, f64>) {
        for (name, ns) in per_pass_median_ns {
            let per_unit = match self.0.get(name) {
                Some((_, "ms")) => 1e6,
                Some((_, "us")) => 1e3,
                Some((_, "ns")) => 1.0,
                _ => continue,
            };
            self.set(name, ns / per_unit);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name].0
    }

    /// `(name, value, unit)` of every registered metric.
    pub fn rows(&self) -> Vec<(String, f64, &'static str)> {
        self.0.iter().map(|(name, (value, unit))| (name.clone(), *value, *unit)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_serve::json::{parse, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let own = |rows: Vec<(String, &str)>| -> Vec<(String, String)> {
            rows.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            declared(&doc, "end_to_end"),
            own(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect())
        );
        assert_eq!(declared(&doc, "per_layer"), own(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn registry_fits_the_contract() {
        let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        assert!(names.iter().all(|n| n.len() <= 64));
    }

    #[test]
    fn span_medians_land_in_the_metric_unit() {
        let mut v = LayerValues::new();
        let spans = BTreeMap::from([
            ("frontend.compile_ms".to_string(), 2.5e6),
            ("runtime.worklist_round_us".to_string(), 4e3),
            ("bench.op".to_string(), 1.0),
        ]);
        v.set_from_spans(&spans);
        assert_eq!(v.get("frontend.compile_ms"), 2.5);
        assert_eq!(v.get("runtime.worklist_round_us"), 4.0);
        assert_eq!(v.get("native.codegen_ms"), 0.0);
    }
}
