//! The dependency-aware launch graph behind [`Concord::submit_for`] /
//! [`Concord::complete`](crate::Concord::complete), which every `for` and
//! reduce launch enters, the blocking constructs included.
//!
//! Run serially, every construct takes its own fence pair and runs
//! strictly after the one before. This module holds the bookkeeping that
//! lets the runtime do better *without changing a single output byte*:
//! every submitted launch carries a [`Footprint`] —
//! the set of shared-region byte ranges it may touch, each tagged with
//! the strongest [`AccessMode`] the static summary inferred — and a
//! pairwise [`Conflict`] test decides what the drain loop may do:
//!
//! * [`Conflict::Independent`] — no byte one launch writes is read or
//!   written by the other: the launches may execute concurrently
//!   (snapshot-and-log, commit in submission order) or share a fence
//!   pair.
//! * [`Conflict::Coalesce`] — the launches overlap only through
//!   commutative accumulation (`atomic_add`/`atomic_min`): they must
//!   still execute in submission order, but may share one fence pair.
//! * [`Conflict::Order`] — anything involving a write, or a read against
//!   an accumulate: full serialization, own fence pairs, exactly the
//!   serial path.
//!
//! Footprints are *range-granular*: an access whose per-item byte range
//! the analyzer bounded symbolically (`stride * id + [lo, hi)`) is swept
//! over the launch's `[0, n)` iteration space, anchored at the live base
//! pointer and clamped to the allocation that backs it, so two launches
//! over disjoint halves of one block prove independent; an unbounded
//! access widens to its whole backing allocation. A launch whose accesses
//! could not all be resolved (opaque summary, unresolvable field pointer,
//! gated operations) gets an opaque footprint that conflicts with
//! everything — it degrades to exactly the serial behaviour.
//!
//! [`Concord::submit_for`]: crate::Concord::submit_for

use concord_analyze::AccessMode;
use concord_ir::FuncId;
use concord_svm::{CpuAddr, WorkKind};
use std::collections::VecDeque;

use crate::scheduler::Target;
use crate::Gated;

/// Identifier of a submitted launch, in submission order. Returned by
/// [`Concord::submit_for`](crate::Concord::submit_for) and redeemed at
/// [`Concord::complete`](crate::Concord::complete).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LaunchId(pub u64);

impl std::fmt::Display for LaunchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "launch#{}", self.0)
    }
}

/// One resolved byte range of a footprint: the half-open region
/// `[lo, hi)` of shared-region address space, touched with `mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootRange {
    /// First byte (absolute CPU-space address, inclusive).
    pub lo: u64,
    /// One past the last byte (exclusive).
    pub hi: u64,
    /// Strongest access mode inferred for this range.
    pub mode: AccessMode,
}

/// What the drain loop may do with two launches, from their footprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// Provably disjoint writes: concurrent execution is byte-identical
    /// to serial execution.
    Independent,
    /// Overlap only through commutative accumulation: ordered execution,
    /// but one fence pair may cover both launches.
    Coalesce,
    /// A real dependency: full serialization in submission order.
    Order,
}

/// The set of shared-region blocks one launch may touch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Footprint {
    /// True when the launch's accesses could not all be resolved to
    /// allocation blocks: the launch conservatively conflicts with
    /// everything (and with every host access).
    pub opaque: bool,
    /// Resolved block ranges. Ranges may overlap each other (e.g. the
    /// body block appears once per inferred mode); the conflict test is
    /// pairwise and does not require canonical form.
    pub ranges: Vec<FootRange>,
}

impl Footprint {
    /// The footprint that conflicts with everything.
    #[must_use]
    pub fn opaque() -> Self {
        Footprint { opaque: true, ranges: Vec::new() }
    }

    /// Does this footprint touch any byte of `[lo, hi)` in any mode?
    /// Host-side writes and frees must order against *reads* too (the
    /// serial program ran the launch before the host op).
    #[must_use]
    pub fn touches(&self, lo: u64, hi: u64) -> bool {
        self.opaque || self.ranges.iter().any(|r| r.lo < hi && lo < r.hi)
    }

    /// Does this footprint write (or accumulate into) any byte of
    /// `[lo, hi)`? An opaque footprint may write anywhere.
    #[must_use]
    pub fn writes(&self, lo: u64, hi: u64) -> bool {
        let write = |r: &&FootRange| r.mode != AccessMode::Read;
        self.opaque || self.ranges.iter().filter(write).any(|r| r.lo < hi && lo < r.hi)
    }

    /// The conflict between this launch and a later one.
    #[must_use]
    pub fn conflict(&self, other: &Footprint) -> Conflict {
        if self.opaque || other.opaque {
            return Conflict::Order;
        }
        let mut worst = Conflict::Independent;
        for a in &self.ranges {
            for b in &other.ranges {
                if a.hi <= b.lo || b.hi <= a.lo {
                    continue;
                }
                match (a.mode, b.mode) {
                    (AccessMode::Read, AccessMode::Read) => {}
                    (AccessMode::Accumulate, AccessMode::Accumulate) => {
                        worst = Conflict::Coalesce;
                    }
                    _ => return Conflict::Order,
                }
            }
        }
        worst
    }
}

/// Scheduling counters of one launch graph, exposed through
/// [`Concord::graph_stats`](crate::Concord::graph_stats) and the serving
/// layer's `stats` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Launches submitted to the graph.
    pub submitted: u64,
    /// Launches executed (drained from the graph).
    pub completed: u64,
    /// Launches that executed concurrently with another launch (counted
    /// per overlap wave).
    pub overlapped: u64,
    /// Times a launch could not join a wave because of an ordering
    /// conflict with an earlier pending launch.
    pub conflict_stalls: u64,
    /// Launches that joined a shared-fence batch through a
    /// [`Conflict::Coalesce`] relationship.
    pub coalesced: u64,
    /// Fence pairs elided by batching consecutive GPU launches under one
    /// pair (mirrors the region's `fences_elided` counter).
    pub fences_elided: u64,
}

/// One admitted construct invocation: everything the offload pipeline
/// needs to run it, every fact decided once, at admission. `kind` is a
/// template — a reduction's scratch slots are filled in per device part
/// when the launch executes.
pub(crate) struct Launch<'a> {
    pub class: String,
    pub func: FuncId,
    pub kind: WorkKind<'a>,
    pub body: CpuAddr,
    pub n: u32,
    pub target: Target,
    pub gpu_allowed: bool,
    /// Order-dependence verdicts; a launch gated on any device never
    /// waves with anything.
    pub gated: Gated,
    /// What the drain loop orders the launch by; opaque when gated.
    pub footprint: Footprint,
    /// CA108: the native chunks run in order.
    pub hazard: bool,
    /// No write of the launch can land in the body's block: native chunks
    /// load the body's fields once.
    pub body_invariant: bool,
}

/// A submitted-but-not-yet-executed launch.
pub(crate) struct PendingLaunch {
    pub id: u64,
    pub launch: Launch<'static>,
}

/// The submission-ordered queue of pending launches plus its counters.
#[derive(Default)]
pub(crate) struct LaunchGraph {
    pending: VecDeque<PendingLaunch>,
    stats: GraphStats,
    next_id: u64,
}

impl LaunchGraph {
    pub(crate) fn submit(&mut self, launch: Launch<'static>) -> LaunchId {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.submitted += 1;
        self.pending.push_back(PendingLaunch { id, launch });
        LaunchId(id)
    }

    /// Pop the next launch in submission order.
    pub(crate) fn pop(&mut self) -> Option<PendingLaunch> {
        let p = self.pending.pop_front();
        if p.is_some() {
            self.stats.completed += 1;
        }
        p
    }

    pub(crate) fn pending(&self) -> &VecDeque<PendingLaunch> {
        &self.pending
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    pub(crate) fn has(&self, id: u64) -> bool {
        self.pending.iter().any(|p| p.id == id)
    }

    /// Whether any pending launch's footprint touches `[lo, hi)`: while
    /// one does, the queue must keep draining before a host write to that
    /// range.
    pub(crate) fn touches(&self, lo: u64, hi: u64) -> bool {
        self.pending.iter().any(|p| p.launch.footprint.touches(lo, hi))
    }

    pub(crate) fn stats(&self) -> GraphStats {
        self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut GraphStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(ranges: &[(u64, u64, AccessMode)]) -> Footprint {
        Footprint {
            opaque: false,
            ranges: ranges.iter().map(|&(lo, hi, mode)| FootRange { lo, hi, mode }).collect(),
        }
    }

    #[test]
    fn disjoint_blocks_are_independent() {
        let a = fp(&[(0, 64, AccessMode::Write), (100, 200, AccessMode::Read)]);
        let b = fp(&[(64, 100, AccessMode::Write), (100, 200, AccessMode::Read)]);
        assert_eq!(a.conflict(&b), Conflict::Independent);
    }

    #[test]
    fn shared_reads_are_independent() {
        let a = fp(&[(0, 64, AccessMode::Read)]);
        let b = fp(&[(0, 64, AccessMode::Read)]);
        assert_eq!(a.conflict(&b), Conflict::Independent);
    }

    #[test]
    fn overlapping_write_orders() {
        let a = fp(&[(0, 64, AccessMode::Write)]);
        for mode in [AccessMode::Read, AccessMode::Accumulate, AccessMode::Write] {
            let b = fp(&[(32, 96, mode)]);
            assert_eq!(a.conflict(&b), Conflict::Order, "write vs {mode:?}");
        }
    }

    #[test]
    fn accumulate_pairs_coalesce_but_read_against_accumulate_orders() {
        let acc = fp(&[(0, 64, AccessMode::Accumulate)]);
        assert_eq!(acc.conflict(&acc.clone()), Conflict::Coalesce);
        let rd = fp(&[(0, 64, AccessMode::Read)]);
        assert_eq!(acc.conflict(&rd), Conflict::Order);
        assert_eq!(rd.conflict(&acc), Conflict::Order);
    }

    #[test]
    fn opaque_conflicts_with_everything_and_touches_everything() {
        let op = Footprint::opaque();
        let rd = fp(&[(1000, 1064, AccessMode::Read)]);
        assert_eq!(op.conflict(&rd), Conflict::Order);
        assert_eq!(rd.conflict(&op), Conflict::Order);
        assert_eq!(op.conflict(&op.clone()), Conflict::Order);
        assert!(op.touches(0, 1));
    }

    #[test]
    fn touches_is_any_mode_any_overlap() {
        let a = fp(&[(64, 128, AccessMode::Read)]);
        assert!(a.touches(0, 65));
        assert!(a.touches(127, 200));
        assert!(!a.touches(0, 64));
        assert!(!a.touches(128, 256));
    }

    #[test]
    fn writes_is_write_or_accumulate_overlap() {
        let a = fp(&[(0, 64, AccessMode::Read), (64, 128, AccessMode::Accumulate)]);
        assert!(!a.writes(0, 64), "a read is not a write");
        assert!(a.writes(100, 101));
        assert!(!a.writes(128, 256));
        assert!(Footprint::opaque().writes(0, 1), "an opaque footprint may write anywhere");
    }

    #[test]
    fn coalesce_only_when_no_order_pair_exists() {
        // Same accumulate range, but one launch also writes a block the
        // other reads: the write wins and the pair must order.
        let a = fp(&[(0, 64, AccessMode::Accumulate), (64, 128, AccessMode::Write)]);
        let b = fp(&[(0, 64, AccessMode::Accumulate), (64, 128, AccessMode::Read)]);
        assert_eq!(a.conflict(&b), Conflict::Order);
    }
}
