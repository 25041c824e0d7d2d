//! End-to-end access-summary tests: compile kernel-language sources
//! through the real frontend + CPU pipeline, then assert the per-operand
//! read/write/accumulate summaries `analyze_kernel` reports.

use concord_analyze::{analyze_kernel, AccessBase, AccessMode, AccessPattern, Lint, Mode};
use concord_ir::{FuncId, Module};

fn compile(src: &str, class: &str) -> (Module, FuncId) {
    let program = concord_frontend::compile(src).expect("fixture compiles");
    let mut module = program.module.clone();
    concord_compiler::optimize_for_cpu(&mut module);
    let op = program.kernel(class).expect("kernel class exists").operator_fn;
    (module, op)
}

#[test]
fn elementwise_for_kernel_summarizes_affine_write() {
    let src = r#"
        class Double {
        public:
            int* out; int n;
            void operator()(int i) { out[i] = i * 2 + 1; }
        };
    "#;
    let (module, op) = compile(src, "Double");
    let s = analyze_kernel(&module, op, Mode::For).access;
    assert!(!s.opaque, "summary: {s:?}");
    // The store lands on the pointee of the field at +0, affine stride 4.
    let out = AccessBase::Field { offset: 0 };
    assert_eq!(s.mode_of(out), Some(AccessMode::Write), "summary: {s:?}");
    let w = s.records.iter().find(|r| r.base == out && r.mode == AccessMode::Write).unwrap();
    assert_eq!(w.pattern, AccessPattern::Affine { stride: 4 });
    assert_eq!(w.width, 4);
    // Loading `out` from the body is a body read.
    assert_eq!(s.mode_of(AccessBase::Body), Some(AccessMode::Read), "summary: {s:?}");
}

#[test]
fn reduce_kernel_reads_data_and_keeps_accumulator_private() {
    let src = r#"
        class Sum {
        public:
            float* data; float acc;
            void operator()(int i) { acc += data[i]; }
            void join(Sum* other) { acc += other->acc; }
        };
    "#;
    let (module, op) = compile(src, "Sum");
    let s = analyze_kernel(&module, op, Mode::Reduce).access;
    assert!(!s.opaque, "summary: {s:?}");
    let data = AccessBase::Field { offset: 0 };
    assert_eq!(s.mode_of(data), Some(AccessMode::Read), "summary: {s:?}");
    // The staged accumulator writes are launch-private: no write records
    // at all, and nothing on the body base.
    assert!(
        s.records.iter().all(|r| r.mode == AccessMode::Read),
        "staged-copy accesses must not summarize as shared writes: {s:?}"
    );
    assert_eq!(s.mode_of(AccessBase::Body), None, "summary: {s:?}");
}

#[test]
fn data_dependent_indexing_is_opaque() {
    // `ranks[order[i]]`: the store base is loaded through another load —
    // a data-dependent address the summary cannot root at an operand.
    let src = r#"
        class Scatter {
        public:
            int* order; int* ranks;
            void operator()(int i) { ranks[order[i]] = i; }
        };
    "#;
    let (module, op) = compile(src, "Scatter");
    let s = analyze_kernel(&module, op, Mode::For).access;
    // The *write address* depends on loaded data but is still rooted at
    // the `ranks` field; its pattern must be Unknown (whole allocation).
    let ranks = AccessBase::Field { offset: 8 };
    assert_eq!(s.mode_of(ranks), Some(AccessMode::Write), "summary: {s:?}");
    let w = s.records.iter().find(|r| r.base == ranks && r.mode == AccessMode::Write).unwrap();
    assert_eq!(w.pattern, AccessPattern::Unknown, "summary: {s:?}");
    assert!(!s.opaque, "field-rooted unknown-pattern access stays non-opaque: {s:?}");
}

#[test]
fn pointer_chasing_is_opaque() {
    // Traversing `node->next` dereferences a pointer loaded from another
    // allocation: no operand root, so the summary must go opaque.
    let src = r#"
        struct Node { Node* next; int val; };
        class Chase {
        public:
            Node* head; int* out;
            void operator()(int i) {
                Node* n = head->next;
                out[i] = n->val;
            }
        };
    "#;
    let (module, op) = compile(src, "Chase");
    let s = analyze_kernel(&module, op, Mode::For).access;
    assert!(s.opaque, "double indirection must be opaque: {s:?}");
}

#[test]
fn atomic_updates_summarize_as_accumulate() {
    let src = r#"
        class Histogram {
        public:
            int* bins; int* data;
            void operator()(int i) { atomic_add(&bins[data[i] & 7], 1); }
        };
    "#;
    let (module, op) = compile(src, "Histogram");
    let s = analyze_kernel(&module, op, Mode::For).access;
    assert!(!s.opaque, "summary: {s:?}");
    let bins = AccessBase::Field { offset: 0 };
    assert_eq!(s.mode_of(bins), Some(AccessMode::Accumulate), "summary: {s:?}");
    let data = AccessBase::Field { offset: 8 };
    assert_eq!(s.mode_of(data), Some(AccessMode::Read), "summary: {s:?}");
}

#[test]
fn accumulate_is_weaker_than_write() {
    // Mixing a plain store and an atomic on the same base: the strongest
    // mode must win so the scheduler orders, not coalesces.
    let src = r#"
        class Mixed {
        public:
            int* out;
            void operator()(int i) {
                out[i] = 0;
                atomic_add(&out[0], 1);
            }
        };
    "#;
    let (module, op) = compile(src, "Mixed");
    let s = analyze_kernel(&module, op, Mode::For).access;
    let out = AccessBase::Field { offset: 0 };
    assert_eq!(s.mode_of(out), Some(AccessMode::Write), "summary: {s:?}");
    assert!(s.records.iter().any(|r| r.base == out && r.mode == AccessMode::Accumulate));
}

#[test]
fn hazard_is_exactly_a_ca108_finding() {
    // The one CA108 predicate: the summary's verdict is the finding's
    // presence, on the hazardous fixture and on a clean elementwise kernel.
    let stencil = include_str!("../fixtures/cross_item_read.cc");
    let clean = "class Double { public: int* out; void operator()(int i) { out[i] = i; } };";
    for (src, class, want) in [(stencil, "StencilShift", true), (clean, "Double", false)] {
        let (module, op) = compile(src, class);
        let report = analyze_kernel(&module, op, Mode::For);
        let ca108 = report.diagnostics.iter().any(|d| d.lint == Lint::CrossItemReadHazard);
        assert_eq!((report.access.hazard, ca108), (want, want), "{class}: {}", report.to_text());
    }
}
