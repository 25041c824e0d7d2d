//! The shape of the paper's results, read from the checked-in
//! `paper-expected.json` (the output of the `paper` binary, which CI
//! regenerates and diffs).
//!
//! EXPERIMENTS.md carries no simulated number: it states each result's
//! shape in prose and cites the file. Every such claim is asserted here,
//! the deviations from the paper included, so a regenerated file that
//! breaks one fails this test until the prose is rewritten with it.

use concord_bench::geomean;
use concord_serve::json::{parse, Json};

const CONFIGS: [&str; 4] = ["GPU", "GPU+PTROPT", "GPU+L3OPT", "GPU+ALL"];

fn doc() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../paper-expected.json");
    let text = std::fs::read_to_string(path).expect("paper-expected.json is checked in");
    parse(&text).expect("paper-expected.json parses")
}

fn rows<'a>(doc: &'a Json, section: &str) -> &'a [Json] {
    doc.get(section).and_then(Json::as_arr).unwrap_or_else(|| panic!("no `{section}` section"))
}

fn text<'a>(row: &'a Json, field: &str) -> &'a str {
    row.get(field).and_then(Json::as_str).unwrap_or_else(|| panic!("no string `{field}`"))
}

fn num(row: &Json, field: &str) -> f64 {
    row.get(field).and_then(Json::as_f64).unwrap_or_else(|| panic!("no number `{field}`"))
}

/// `(workload, metric)` of one Figures 7–10 column, in file order.
fn column<'a>(doc: &'a Json, system: &str, config: &str, metric: &str) -> Vec<(&'a str, f64)> {
    rows(doc, "fig7_to_10")
        .iter()
        .filter(|r| text(r, "system") == system && text(r, "config") == config)
        .map(|r| (text(r, "workload"), num(r, metric)))
        .collect()
}

fn value(col: &[(&str, f64)], workload: &str) -> f64 {
    col.iter().find(|(w, _)| *w == workload).unwrap_or_else(|| panic!("no {workload}")).1
}

fn column_geomean(doc: &Json, system: &str, config: &str, metric: &str) -> f64 {
    geomean(column(doc, system, config, metric).into_iter().map(|(_, v)| v))
}

/// Workloads sorted by `metric`, lowest first.
fn ranked<'a>(doc: &'a Json, system: &str, config: &str, metric: &str) -> Vec<&'a str> {
    let mut col = column(doc, system, config, metric);
    col.sort_by(|a, b| a.1.total_cmp(&b.1));
    col.into_iter().map(|(w, _)| w).collect()
}

#[test]
fn one_workload_list_drives_every_figure_and_every_row_verified() {
    let doc = doc();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("concord-paper/v1"));
    let names = |section| rows(&doc, section).iter().map(|r| text(r, "workload")).collect();
    let table1: Vec<&str> = names("table1");
    assert_eq!(table1.len(), 9);
    assert_eq!(names("fig6"), table1);
    for system in ["ultrabook", "desktop"] {
        let cpu: Vec<&str> =
            column(&doc, system, "CPU", "speedup").into_iter().map(|(w, _)| w).collect();
        assert_eq!(cpu, table1, "{system}");
        for config in CONFIGS {
            assert_eq!(column(&doc, system, config, "speedup").len(), 9, "{system} {config}");
        }
    }
    assert_eq!(rows(&doc, "fig7_to_10").len(), 2 * 9 * 5);
    for row in rows(&doc, "fig7_to_10") {
        assert_eq!(row.get("verified"), Some(&Json::Bool(true)), "{row}");
        assert_eq!(text(row, "scale"), "small");
    }
    assert_eq!(rows(&doc, "svm_overhead").len(), 4);
}

#[test]
fn table1_shared_workloads_keep_the_papers_origins_and_data_structures() {
    let doc = doc();
    let paper = [
        ("BarnesHut", "In-house", "tree"),
        ("BFS", "Galois", "graph"),
        ("BTree", "Rodinia", "tree"),
        ("ClothPhysics", "Intel", "graph"),
        ("FaceDetect", "OpenCV", "cascade"),
        ("Raytracer", "In-house", "graph"),
        ("SkipList", "In-house", "linked-list"),
        ("SSSP", "Galois", "graph"),
    ];
    for (workload, origin, data_structure) in paper {
        let row = rows(&doc, "table1").iter().find(|r| text(r, "workload") == workload);
        let row = row.unwrap_or_else(|| panic!("no {workload}"));
        assert!(text(row, "origin").starts_with(origin), "{row}");
        assert_eq!(text(row, "data_structure"), data_structure, "{row}");
    }
}

#[test]
fn table1_clothphysics_is_the_one_parallel_reduce_user() {
    let doc = doc();
    let reducers: Vec<&str> = rows(&doc, "table1")
        .iter()
        .filter(|r| text(r, "construct") == "parallel_reduce_hetero")
        .map(|r| text(r, "workload"))
        .collect();
    assert_eq!(reducers, ["ClothPhysics"]);
}

#[test]
fn fig6_every_kernel_is_over_a_quarter_control_and_memory_and_clothphysics_least() {
    let doc = doc();
    let mut shares: Vec<(&str, f64)> = rows(&doc, "fig6")
        .iter()
        .map(|r| {
            let irregular = num(r, "control") + num(r, "memory");
            (text(r, "workload"), irregular / (irregular + num(r, "other")))
        })
        .collect();
    assert!(shares.iter().all(|(_, s)| *s > 0.25), "{shares:?}");
    shares.sort_by(|a, b| a.1.total_cmp(&b.1));
    assert_eq!(shares[0].0, "ClothPhysics", "{shares:?}");
}

#[test]
fn every_ultrabook_configuration_speeds_every_workload_up() {
    let doc = doc();
    for config in CONFIGS {
        for (w, s) in column(&doc, "ultrabook", config, "speedup") {
            assert!(s > 1.0, "{config} {w}: {s}");
        }
    }
}

#[test]
fn raytracer_has_the_largest_speedup_and_energy_savings_on_both_systems() {
    let doc = doc();
    for system in ["ultrabook", "desktop"] {
        for config in CONFIGS {
            for metric in ["speedup", "energy_savings"] {
                let best = *ranked(&doc, system, config, metric).last().unwrap();
                assert_eq!(best, "Raytracer", "{system} {config} {metric}");
            }
        }
    }
}

#[test]
fn desktop_barneshut_is_slower_on_the_gpu_yet_saves_energy() {
    let doc = doc();
    for config in CONFIGS {
        let speedup = value(&column(&doc, "desktop", config, "speedup"), "BarnesHut");
        let savings = value(&column(&doc, "desktop", config, "energy_savings"), "BarnesHut");
        assert!(speedup < 1.0 && savings > 1.0, "{config}: {speedup} {savings}");
    }
}

#[test]
fn desktop_speedups_collapse_to_about_one_but_energy_still_saves() {
    let doc = doc();
    for config in CONFIGS {
        let desktop = column_geomean(&doc, "desktop", config, "speedup");
        assert!(desktop < column_geomean(&doc, "ultrabook", config, "speedup"), "{config}");
        assert!((0.8..1.25).contains(&desktop), "{config}: {desktop}");
        assert!(column_geomean(&doc, "desktop", config, "energy_savings") > 1.0, "{config}");
    }
}

#[test]
fn desktop_energy_winners_the_paper_names_save_more_than_the_geomean() {
    let doc = doc();
    let col = column(&doc, "desktop", "GPU+ALL", "energy_savings");
    let mean = column_geomean(&doc, "desktop", "GPU+ALL", "energy_savings");
    for w in ["BFS", "Raytracer", "SkipList", "BTree"] {
        assert!(value(&col, w) > mean, "{w}");
    }
    // Deviation: ClothPhysics, which the paper gives no desktop anchor,
    // ranks third, ahead of SkipList and BTree.
    let top = ranked(&doc, "desktop", "GPU+ALL", "energy_savings");
    assert_eq!(top[top.len() - 3..], ["ClothPhysics", "BFS", "Raytracer"]);
}

#[test]
fn ptropt_geomean_beats_gpu_on_both_systems() {
    let doc = doc();
    for system in ["ultrabook", "desktop"] {
        for metric in ["speedup", "energy_savings"] {
            let gpu = column_geomean(&doc, system, "GPU", metric);
            let ptropt = column_geomean(&doc, system, "GPU+PTROPT", metric);
            assert!(ptropt > gpu, "{system} {metric}: {ptropt} vs {gpu}");
        }
    }
}

#[test]
fn sec5_3_l3opt_is_neutral_alone_and_with_ptropt() {
    let doc = doc();
    let near = |a: f64, b: f64| (a / b - 1.0).abs() < 0.02;
    for system in ["ultrabook", "desktop"] {
        let g = |config| column_geomean(&doc, system, config, "speedup");
        assert!(near(g("GPU+L3OPT"), g("GPU")), "{system}");
        assert!(near(g("GPU+ALL"), g("GPU+PTROPT")), "{system}");
    }
}

#[test]
fn sec5_3_ptropt_helps_facedetect_and_raytracer_but_not_skiplist() {
    let doc = doc();
    for system in ["ultrabook", "desktop"] {
        let gpu = column(&doc, system, "GPU", "speedup");
        let ptropt = column(&doc, system, "GPU+PTROPT", "speedup");
        let gain = |w| value(&ptropt, w) / value(&gpu, w);
        assert!(gain("FaceDetect") > 1.05 && gain("Raytracer") > 1.05, "{system}");
        assert!((gain("SkipList") - 1.0).abs() < 0.005, "{system}: {}", gain("SkipList"));
    }
}

#[test]
fn deviation_the_weakest_and_the_energy_losers_are_worklistcc_and_sssp() {
    let doc = doc();
    // Paper: FaceDetect is among the weakest and the only energy loser.
    assert_eq!(ranked(&doc, "ultrabook", "GPU+ALL", "speedup")[..2], ["WorklistCC", "SSSP"]);
    let losers = |system, config| -> Vec<&str> {
        let col = column(&doc, system, config, "energy_savings");
        col.into_iter().filter(|(_, s)| *s < 1.0).map(|(w, _)| w).collect()
    };
    assert_eq!(losers("ultrabook", "GPU"), ["WorklistCC"]);
    assert!(losers("ultrabook", "GPU+ALL").is_empty());
    assert_eq!(losers("desktop", "GPU"), ["WorklistCC", "SSSP"]);
    assert_eq!(losers("desktop", "GPU+ALL"), ["WorklistCC", "SSSP"]);
}

#[test]
fn deviation_ultrabook_magnitudes_exceed_the_papers() {
    let doc = doc();
    // Paper: about 2.5x on average; Raytracer 9.88x faster, 6.04x less energy.
    assert!(column_geomean(&doc, "ultrabook", "GPU+ALL", "speedup") > 2.5);
    assert!(value(&column(&doc, "ultrabook", "GPU+ALL", "speedup"), "Raytracer") > 9.88);
    assert!(value(&column(&doc, "ultrabook", "GPU+ALL", "energy_savings"), "Raytracer") > 6.04);
}

#[test]
fn sec5_4_svm_overhead_grows_with_image_size_and_is_not_mostly_translations() {
    let doc = doc();
    let rows = rows(&doc, "svm_overhead");
    let overheads: Vec<f64> = rows.iter().map(|r| num(r, "overhead_pct")).collect();
    assert!(overheads.windows(2).all(|w| w[0] < w[1]), "{overheads:?}");
    assert!(overheads[0] > 0.0);
    // Deviation: the paper measures at most 6% at its largest image.
    assert!(overheads[3] > 6.0);
    for r in rows {
        let extra_insts = num(r, "concord_insts") - num(r, "flat_insts");
        let extra_translations = num(r, "concord_translations") - num(r, "flat_translations");
        assert!(extra_insts > 0.0 && extra_translations > 0.0, "{r}");
        assert!(extra_translations < 0.1 * extra_insts, "{r}");
    }
}
