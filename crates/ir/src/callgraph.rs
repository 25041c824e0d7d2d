//! The call graph of a module: which functions a call can reach.
//!
//! Devirtualization, the analyzer's class-hierarchy widening, the
//! frontend's recursion check, the Figure 6 closure statistics, the
//! order-dependence verdict ([`crate::analysis::uses_gated_ops`]) and the
//! simulators' decoder ask here; each keeps its own per-function question.

use crate::function::{Function, Module};
use crate::inst::{FuncId, Op};
use crate::types::ClassId;

impl Module {
    /// All classes equal to or (transitively) derived from `base`.
    ///
    /// This is the class-hierarchy analysis used by devirtualization (§3.2):
    /// the possible dynamic types of a receiver of static class `base`.
    pub fn subclasses_of(&self, base: ClassId) -> Vec<ClassId> {
        (0..self.classes.len() as u32)
            .map(ClassId)
            .filter(|&c| self.derives_from(c, base))
            .collect()
    }

    /// Whether `c` is `base` or transitively derives from it.
    pub fn derives_from(&self, c: ClassId, base: ClassId) -> bool {
        if c == base {
            return true;
        }
        self.class(c).bases.iter().any(|&b| self.derives_from(b, base))
    }

    /// The possible targets of a virtual call through `slot` on a receiver
    /// of static class `static_class`: one `(class, function)` pair per
    /// subclass whose vtable has the slot, in class-id order. Classes that
    /// inherit an implementation name the same function.
    pub fn virtual_targets(&self, static_class: ClassId, slot: u32) -> Vec<(ClassId, FuncId)> {
        self.subclasses_of(static_class)
            .into_iter()
            .filter_map(|c| self.class(c).vtable.get(slot as usize).map(|&f| (c, f)))
            .collect()
    }

    /// The functions `f` can call: each direct callee and each possible
    /// target of each virtual call ([`Module::virtual_targets`]), over the
    /// instructions placed in blocks, in block and instruction order, each
    /// once at its first occurrence.
    pub fn callees(&self, f: FuncId) -> Vec<FuncId> {
        let mut out = Vec::new();
        let mut add = |g: FuncId| {
            if !out.contains(&g) {
                out.push(g);
            }
        };
        for op in placed_ops(self.function(f)) {
            match op {
                Op::Call { callee, .. } => add(*callee),
                Op::CallVirtual { static_class, slot, .. } => {
                    self.virtual_targets(*static_class, *slot).into_iter().for_each(|(_, g)| add(g))
                }
                _ => {}
            }
        }
        out
    }

    /// `roots` and every function they can transitively call
    /// ([`Module::callees`]), each once, in depth-first preorder.
    pub fn reachable_functions(&self, roots: &[FuncId]) -> Vec<FuncId> {
        let mut seen = vec![false; self.functions.len()];
        let mut order = Vec::new();
        let mut work: Vec<FuncId> = roots.iter().rev().copied().collect();
        while let Some(f) = work.pop() {
            if std::mem::replace(&mut seen[f.0 as usize], true) {
                continue;
            }
            order.push(f);
            work.extend(self.callees(f).into_iter().rev());
        }
        order
    }

    /// The functions a launch of `roots` can execute: the functions they
    /// reach ([`Module::reachable_functions`]), or the whole module once one
    /// of those places a virtual call. A kernel may store any function id
    /// over an installed vtable slot, and dispatch calls whichever function
    /// of the module it names, so what must hold for every function a
    /// launch runs (the order-dependence verdict, the simulators' decoded
    /// functions) covers every function as soon as a virtual call can
    /// execute. A devirtualized call site, a chain of direct calls, does not.
    pub fn execution_closure(&self, roots: &[FuncId]) -> Vec<FuncId> {
        let reached = self.reachable_functions(roots);
        let dispatches = |&f: &FuncId| {
            placed_ops(self.function(f)).any(|op| matches!(op, Op::CallVirtual { .. }))
        };
        if reached.iter().any(dispatches) {
            (0..self.functions.len() as u32).map(FuncId).collect()
        } else {
            reached
        }
    }
}

/// The operations placed in `f`'s blocks, in block and instruction order.
fn placed_ops(f: &Function) -> impl Iterator<Item = &Op> {
    f.block_ids().flat_map(move |b| f.block(b).insts.iter().map(move |&i| &f.inst(i).op))
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::function::{ClassInfo, Module};
    use crate::inst::{FuncId, Op};
    use crate::types::{AddrSpace, ClassId, StructDef, Type};

    /// `Base` (slot 0: `f0`), `Mid: Base` (inherits `f0`) and `Leaf: Mid`
    /// (overrides it with `f1`). `caller` calls `f1`, then slot 0 on a
    /// `Base*`; nothing calls `lone`.
    fn module() -> (Module, FuncId) {
        let mut m = Module::new();
        let def =
            StructDef { name: "Base".into(), fields: vec![], size: 8, align: 8, class_id: None };
        let layout = m.add_struct(def);
        let mut leaf = |name: &str| {
            let mut b = FunctionBuilder::new(name, vec![Type::Ptr(AddrSpace::Cpu)], Type::Void);
            b.ret(None);
            m.add_function(b.build())
        };
        let (f0, f1, _lone) = (leaf("f0"), leaf("f1"), leaf("lone"));
        let class = |name: &str, bases: Vec<ClassId>, f: FuncId| ClassInfo {
            name: name.into(),
            layout,
            bases,
            vtable: vec![f],
        };
        let base = m.add_class(class("Base", vec![], f0));
        let mid = m.add_class(class("Mid", vec![base], f0));
        m.add_class(class("Leaf", vec![mid], f1));
        let mut b = FunctionBuilder::new("caller", vec![Type::Ptr(AddrSpace::Cpu)], Type::Void);
        let obj = b.param(0);
        b.call(f1, vec![obj], Type::Void);
        b.call_virtual(base, 0, obj, vec![], Type::Void);
        b.ret(None);
        let caller = m.add_function(b.build());
        (m, caller)
    }

    #[test]
    fn targets_in_class_order_and_callees_at_first_occurrence() {
        let (m, caller) = module();
        let pairs = [(0, 0), (1, 0), (2, 1)].map(|(c, f)| (ClassId(c), FuncId(f)));
        assert_eq!(m.virtual_targets(ClassId(0), 0), pairs);
        assert_eq!(m.virtual_targets(ClassId(1), 0), pairs[1..]);
        assert!(m.virtual_targets(ClassId(0), 1).is_empty());
        assert_eq!(m.callees(caller), [FuncId(1), FuncId(0)]);
        assert_eq!(m.reachable_functions(&[caller]), [caller, FuncId(1), FuncId(0)]);
    }

    #[test]
    fn execution_closure_widens_only_at_a_placed_virtual_call() {
        let (mut m, caller) = module();
        assert_eq!(m.execution_closure(&[caller]), (0..4).map(FuncId).collect::<Vec<_>>());
        // Devirtualization leaves a rewritten site's old op in the arena,
        // out of every block: it can no longer execute.
        let f = m.function_mut(caller);
        f.blocks[0].insts.retain(|&i| !matches!(f.insts[i.0 as usize].op, Op::CallVirtual { .. }));
        assert_eq!(m.execution_closure(&[caller]), [caller, FuncId(1)]);
    }
}
