//! End-to-end analyzer tests: compile kernel-language sources through the
//! real frontend + CPU pipeline, then assert the expected lints fire (and
//! that clean kernels stay clean).

use concord_analyze::{analyze_kernel, Lint, Mode, Severity};
use concord_ir::{FuncId, Module};

/// Compile `src`, run the CPU optimization pipeline (the analyzer's
/// documented precondition: CSE canonicalizes address computations), and
/// return the module plus the operator function of `class`.
fn compile(src: &str, class: &str) -> (Module, FuncId) {
    let program = concord_frontend::compile(src).expect("fixture compiles");
    let mut module = program.module.clone();
    concord_compiler::optimize_for_cpu(&mut module);
    let op = program.kernel(class).expect("kernel class exists").operator_fn;
    (module, op)
}

const RACY_HISTOGRAM: &str = include_str!("../fixtures/racy_histogram.cc");
const ESCAPING_REDUCE: &str = include_str!("../fixtures/escaping_reduce.cc");

#[test]
fn racy_histogram_flags_uniform_rmw() {
    let (module, op) = compile(RACY_HISTOGRAM, "RacyHistogram");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(report.has_errors(), "report: {}", report.to_text());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::UniformRmw && d.severity == Severity::Error),
        "expected CA104, got: {}",
        report.to_text()
    );
}

#[test]
fn escaping_reduce_flags_accumulator_escape() {
    let (module, op) = compile(ESCAPING_REDUCE, "EscapingSum");
    let report = analyze_kernel(&module, op, Mode::Reduce);
    assert!(report.has_errors(), "report: {}", report.to_text());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::AccumulatorEscape && d.severity == Severity::Error),
        "expected CA105, got: {}",
        report.to_text()
    );
}

#[test]
fn affine_stores_are_clean() {
    // The paper's Figure 1 list-building loop: out-of-place affine stores,
    // stride 8 >= width 8.
    let src = r#"
        struct Node { Node* next; };
        class LoopBody {
        public:
            Node* nodes;
            void operator()(int i) { nodes[i].next = &(nodes[i+1]); }
        };
    "#;
    let (module, op) = compile(src, "LoopBody");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(report.diagnostics.is_empty(), "expected clean report, got: {}", report.to_text());
}

#[test]
fn narrow_stride_flags_overlap() {
    // Every item stores 4 bytes at byte offset `i`: stride 1 < width 4,
    // so neighbouring work items overlap. The pointer->long->pointer round
    // trip also checks that provenance rides through integers (no CA106).
    let src = r#"
        class Overlap {
        public:
            int* out;
            void operator()(int i) { *(int*)((long)out + i) = i; }
        };
    "#;
    let (module, op) = compile(src, "Overlap");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::OverlappingStores && d.severity == Severity::Error),
        "expected CA101, got: {}",
        report.to_text()
    );
}

#[test]
fn plain_reduce_accumulation_is_clean() {
    // The canonical sum reduction: per-worker accumulation into the staged
    // body copy is the intended pattern and must not be flagged.
    let src = r#"
        class Sum {
        public:
            float* data; float acc;
            void operator()(int i) { acc += data[i]; }
            void join(Sum* other) { acc += other->acc; }
        };
    "#;
    let (module, op) = compile(src, "Sum");
    let report = analyze_kernel(&module, op, Mode::Reduce);
    assert!(report.diagnostics.is_empty(), "expected clean report, got: {}", report.to_text());
}

#[test]
fn same_reduce_body_raced_under_for_is_flagged() {
    // Launching a reduce-style accumulator body as a parallel_for races on
    // the shared `acc` field.
    let src = r#"
        class Sum {
        public:
            float* data; float acc;
            void operator()(int i) { acc += data[i]; }
            void join(Sum* other) { acc += other->acc; }
        };
    "#;
    let (module, op) = compile(src, "Sum");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(report.has_errors(), "expected CA104 under For mode: {}", report.to_text());
}

#[test]
fn atomic_rmw_is_not_flagged_as_race() {
    let src = r#"
        class AtomicHist {
        public:
            int* bins;
            void operator()(int i) { atomic_add(&bins[0], 1); }
        };
    "#;
    let (module, op) = compile(src, "AtomicHist");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(
        !report.has_errors(),
        "atomics are the sanctioned fix and must pass: {}",
        report.to_text()
    );
}

#[test]
fn uniform_flag_store_is_note_only() {
    // The BFS/SSSP "changed" convergence flag: every work item writes the
    // same constant to the same slot. Benign by convention -> Note.
    let src = r#"
        class Flag {
        public:
            int* changed;
            void operator()(int i) { changed[0] = 1; }
        };
    "#;
    let (module, op) = compile(src, "Flag");
    let report = analyze_kernel(&module, op, Mode::For);
    assert_eq!(report.max_severity(), Some(Severity::Note), "{}", report.to_text());
}

#[test]
fn unknown_index_store_is_warning() {
    // Data-dependent scatter (BFS frontier update): not provably disjoint,
    // but not provably racy either -> Warning, launchable under Deny.
    let src = r#"
        class Scatter {
        public:
            int* idx; int* out;
            void operator()(int i) { out[idx[i]] = i; }
        };
    "#;
    let (module, op) = compile(src, "Scatter");
    let report = analyze_kernel(&module, op, Mode::For);
    assert_eq!(report.max_severity(), Some(Severity::Warning), "{}", report.to_text());
    assert!(
        report.diagnostics.iter().any(|d| d.lint == Lint::UnprovableStoreIndex),
        "{}",
        report.to_text()
    );
}

#[test]
fn report_json_is_well_formed() {
    let (module, op) = compile(RACY_HISTOGRAM, "RacyHistogram");
    let report = analyze_kernel(&module, op, Mode::For);
    let json = report.to_json();
    assert!(json.contains("\"lint\":\"CA104\""), "{json}");
    assert!(json.contains("\"mode\":\"for\""), "{json}");
}

const RACY_PUSH_ALIAS: &str = include_str!("../fixtures/racy_push_alias.cc");

#[test]
fn guarded_worklist_push_stays_launchable_under_deny() {
    // The canonical guarded-monotone worklist body (frontier BFS): the
    // data-dependent store is a Warning at worst, and the push itself —
    // an injective append into the runtime-owned frontier queue — adds
    // no finding, so the kernel launches under a `Deny` gate.
    let src = r#"
        class Frontier {
        public:
            int* level; int* off; int* adj; int next;
            void operator()(int v) {
                for (int e = off[v]; e < off[v + 1]; e = e + 1) {
                    int w = adj[e];
                    if (level[w] < 0) {
                        level[w] = next;
                        push(w);
                    }
                }
            }
        };
    "#;
    let (module, op) = compile(src, "Frontier");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(!report.has_errors(), "guarded push must pass Deny: {}", report.to_text());
    assert!(
        !report.diagnostics.iter().any(|d| d.lint == Lint::PointerPush),
        "index pushes carry no pointer provenance: {}",
        report.to_text()
    );
}

#[test]
fn racy_push_alias_flags_pointer_push() {
    let (module, op) = compile(RACY_PUSH_ALIAS, "RacyPushAlias");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(report.has_errors(), "report: {}", report.to_text());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::PointerPush && d.severity == Severity::Error),
        "expected CA107, got: {}",
        report.to_text()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::UniformRmw && d.severity == Severity::Error),
        "the aliasing race itself must still be flagged: {}",
        report.to_text()
    );
}

const REDUNDANT_ATOMIC: &str = include_str!("../fixtures/redundant_atomic.cc");
const WIDENED_CALLEE_ATOMIC: &str = include_str!("../fixtures/widened_callee_atomic.cc");

#[test]
fn per_item_atomic_is_redundant() {
    let (module, op) = compile(REDUNDANT_ATOMIC, "PrivateTally");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(
        report.diagnostics.iter().any(|d| d.lint == Lint::RedundantAtomic),
        "expected CA109, got: {}",
        report.to_text()
    );
}

#[test]
fn widened_callee_atomic_is_not_claimed_private() {
    // The callee is walked once per argument tuple of the caller's
    // fixpoint: the narrow early counter ranges give bounded, injective
    // records, the widened one an unbounded record. CA109 is a "must"
    // claim, so one unbounded record of the atomic withholds it; and the
    // infinite bound must not overflow on the way (a debug build panics
    // on that).
    let (module, op) = compile(WIDENED_CALLEE_ATOMIC, "Down");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(
        !report.diagnostics.iter().any(|d| d.lint == Lint::RedundantAtomic),
        "the widened record is unbounded, so CA109 must not fire: {}",
        report.to_text()
    );
    let a = concord_analyze::AccessBase::Field { offset: 0 };
    assert!(
        report.access.records.iter().any(|r| r.base == a && r.footprint.is_none()),
        "the widened context's record falls back to the whole allocation: {:?}",
        report.access
    );
}

const CROSS_ROOT_DIFFERENCE: &str = include_str!("../fixtures/cross_root_difference.cc");

#[test]
fn a_pointer_rebuilt_from_two_roots_is_opaque() {
    // `out + ((long)in - (long)out)` lands in `in`'s allocation: a record
    // on `out`, bounded or not, would hide the write from the scheduler.
    let (module, op) = compile(CROSS_ROOT_DIFFERENCE, "Relocate");
    let report = analyze_kernel(&module, op, Mode::For);
    assert!(report.access.opaque, "summary: {:?}", report.access);
}
