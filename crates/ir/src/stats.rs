//! Static IR statistics: the irregularity measurement behind Figure 6.
//!
//! The paper classifies IR operations as control-flow, memory, or other, and
//! reports the percentage of control + memory operations as a static proxy
//! for irregularity (§5.1, Figure 6).

use crate::function::{Function, Module};
use crate::inst::{FuncId, Op};

/// Static operation counts for one function or kernel closure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Control-flow operations (branches, calls, phis, returns).
    pub control: usize,
    /// Memory operations (loads, stores, allocas, atomics).
    pub memory: usize,
    /// Everything else (arithmetic, casts, constants...).
    pub other: usize,
}

impl OpStats {
    /// Total number of classified operations.
    pub fn total(&self) -> usize {
        self.control + self.memory + self.other
    }

    /// Percentage of control-flow operations (0–100).
    pub fn control_pct(&self) -> f64 {
        percent(self.control, self.total())
    }

    /// Percentage of memory operations (0–100).
    pub fn memory_pct(&self) -> f64 {
        percent(self.memory, self.total())
    }

    /// Combined irregularity indicator: control + memory percentage.
    pub fn irregularity_pct(&self) -> f64 {
        self.control_pct() + self.memory_pct()
    }
}

fn percent(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * n as f64 / total as f64
    }
}

impl std::ops::Add for OpStats {
    type Output = OpStats;
    fn add(self, rhs: OpStats) -> OpStats {
        OpStats {
            control: self.control + rhs.control,
            memory: self.memory + rhs.memory,
            other: self.other + rhs.other,
        }
    }
}

fn classify(op: &Op, stats: &mut OpStats) {
    // Constants and parameters are not "operations" in the paper's sense;
    // they do not lower to executed instructions.
    if matches!(op, Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstNull | Op::Param(_)) {
        return;
    }
    if op.is_memory() {
        stats.memory += 1;
    } else if op.is_control() {
        stats.control += 1;
    } else {
        stats.other += 1;
    }
}

/// Statistics for a single function.
pub fn function_stats(f: &Function) -> OpStats {
    let mut s = OpStats::default();
    for b in f.block_ids() {
        for &i in &f.block(b).insts {
            classify(&f.inst(i).op, &mut s);
        }
    }
    s
}

/// Statistics over a kernel and everything it can transitively call,
/// including all possible virtual-call targets (class-hierarchy analysis).
pub fn kernel_closure_stats(m: &Module, entry: FuncId) -> OpStats {
    m.reachable_functions(&[entry])
        .into_iter()
        .fold(OpStats::default(), |total, f| total + function_stats(m.function(f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, ICmp};
    use crate::types::{AddrSpace, Type};

    #[test]
    fn classification_counts() {
        let mut b =
            FunctionBuilder::new("f", vec![Type::Ptr(AddrSpace::Cpu), Type::I32], Type::Void);
        let p = b.param(0);
        let n = b.param(1);
        let v = b.load(p, Type::I32); // memory
        let s = b.bin(BinOp::Add, v, n); // other
        b.store(p, s); // memory
        let z = b.i32(0); // not counted
        let c = b.icmp(ICmp::Sgt, s, z); // other
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(c, t, e); // control
        b.switch_to(t);
        b.ret(None); // control
        b.switch_to(e);
        b.ret(None); // control
        let st = function_stats(&b.build());
        assert_eq!(st.memory, 2);
        assert_eq!(st.control, 3);
        assert_eq!(st.other, 2);
        assert_eq!(st.total(), 7);
        assert!((st.memory_pct() - 2.0 / 7.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OpStats::default();
        assert_eq!(s.total(), 0);
        assert_eq!(s.irregularity_pct(), 0.0);
    }

    #[test]
    fn closure_follows_direct_calls() {
        let mut m = Module::new();
        let mut callee = FunctionBuilder::new("callee", vec![Type::I32], Type::I32);
        let p = callee.param(0);
        let one = callee.i32(1);
        let s = callee.bin(BinOp::Add, p, one);
        callee.ret(Some(s));
        let callee_id = m.add_function(callee.build());
        let mut caller = FunctionBuilder::new("caller", vec![Type::I32], Type::I32);
        let p = caller.param(0);
        let r = caller.call(callee_id, vec![p], Type::I32);
        caller.ret(Some(r));
        let caller_id = m.add_function(caller.build());
        let st = kernel_closure_stats(&m, caller_id);
        // caller: call (control), ret (control); callee: add (other), ret (control)
        assert_eq!(st.control, 3);
        assert_eq!(st.other, 1);
    }
}
