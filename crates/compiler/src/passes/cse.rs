//! Common subexpression elimination over dominating pure expressions.
//!
//! §4 of the paper lists sub-expression elimination among the classical
//! optimizations needed to exploit the GPU's large register file. Address
//! arithmetic (gep chains) and repeated pointer translations are the main
//! beneficiaries here: lazy SVM lowering emits one `cpu_to_gpu` per
//! dereference, and CSE merges translations of the same pointer that share
//! a dominating occurrence.

use concord_ir::analysis::DomTree;
use concord_ir::function::Function;
use concord_ir::inst::{BlockId, Op, ValueId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Bin(u8, ValueId, ValueId),
    Icmp(u8, ValueId, ValueId),
    Fcmp(u8, ValueId, ValueId),
    Cast(u8, ValueId, concord_ir::Type),
    Gep(ValueId, ValueId),
    CpuToGpu(ValueId),
    GpuToCpu(ValueId),
    Select(ValueId, ValueId, ValueId),
    ConstInt(i64, concord_ir::Type),
}

fn key_of(f: &Function, v: ValueId) -> Option<Key> {
    let inst = f.inst(v);
    Some(match &inst.op {
        Op::Bin(op, a, b) => Key::Bin(*op as u8, *a, *b),
        Op::Icmp(p, a, b) => Key::Icmp(*p as u8, *a, *b),
        Op::Fcmp(p, a, b) => Key::Fcmp(*p as u8, *a, *b),
        Op::Cast(op, a) => Key::Cast(*op as u8, *a, inst.ty),
        Op::Gep { base, offset } => Key::Gep(*base, *offset),
        Op::CpuToGpu(a) => Key::CpuToGpu(*a),
        Op::GpuToCpu(a) => Key::GpuToCpu(*a),
        Op::Select(c, a, b) => Key::Select(*c, *a, *b),
        Op::ConstInt(i) => Key::ConstInt(*i, inst.ty),
        _ => return None,
    })
}

/// Run dominator-based CSE. Returns the number of instructions replaced.
///
/// One walk over the dominator tree, with one table of the expressions
/// available in the current block (its dominators' and its own so far) and
/// a log of the keys each block added, removed when its subtree is done.
pub fn run(f: &mut Function) -> usize {
    // Division can trap; folding two identical divisions is still fine
    // (same operands → same trap), so Bin covers it safely.
    let dom = DomTree::compute(f);
    let mut avail: HashMap<Key, ValueId> = HashMap::new();
    let mut added: Vec<Key> = Vec::new();
    // The blocks on the tree path to the current one, each with the length
    // `added` had when it was entered.
    let mut scopes: Vec<(BlockId, usize)> = Vec::new();
    let mut replace: HashMap<ValueId, ValueId> = HashMap::new();
    for &b in dom.preorder() {
        while let Some(&(top, mark)) = scopes.last() {
            if dom.dominates(top, b) {
                break;
            }
            for key in added.drain(mark..) {
                avail.remove(&key);
            }
            scopes.pop();
        }
        scopes.push((b, added.len()));
        for i in 0..f.block(b).insts.len() {
            let id = f.block(b).insts[i];
            // Rewrite operands through pending replacements first so chains
            // of CSE'd values canonicalize.
            f.inst_mut(id).op.map_operands(|v| *replace.get(&v).unwrap_or(&v));
            let Some(key) = key_of(f, id) else { continue };
            match avail.entry(key) {
                Entry::Occupied(existing) => {
                    replace.insert(id, *existing.get());
                }
                Entry::Vacant(slot) => {
                    slot.insert(id);
                    added.push(key);
                }
            }
        }
    }
    if replace.is_empty() {
        return 0;
    }
    // Final rewrite of every instruction (including phis in other blocks),
    // and the replaced instructions leave their blocks.
    f.replace_all_uses(&replace, &[]);
    replace.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_ir::builder::FunctionBuilder;
    use concord_ir::inst::BinOp;
    use concord_ir::types::{AddrSpace, Type};

    #[test]
    fn merges_identical_arithmetic() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.param(0);
        let y = b.param(1);
        let s1 = b.bin(BinOp::Add, x, y);
        let s2 = b.bin(BinOp::Add, x, y);
        let m = b.bin(BinOp::Mul, s1, s2);
        b.ret(Some(m));
        let mut f = b.build();
        assert_eq!(run(&mut f), 1);
        assert!(concord_ir::verify::verify_function(&f).is_ok());
        // Mul now squares the single surviving add.
        if let Op::Bin(BinOp::Mul, a, bb) = f.inst(m).op {
            assert_eq!(a, bb);
        } else {
            panic!("mul disappeared");
        }
    }

    #[test]
    fn merges_repeated_translations() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr(AddrSpace::Cpu)], Type::I32);
        let p = b.param(0);
        let t1 = b.cpu_to_gpu(p);
        let v1 = b.load(t1, Type::I32);
        let t2 = b.cpu_to_gpu(p);
        let v2 = b.load(t2, Type::I32);
        let s = b.bin(BinOp::Add, v1, v2);
        b.ret(Some(s));
        let mut f = b.build();
        assert_eq!(run(&mut f), 1, "second translation should fold into the first");
        assert!(concord_ir::verify::verify_function(&f).is_ok());
    }

    #[test]
    fn does_not_merge_loads() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr(AddrSpace::Cpu)], Type::I32);
        let p = b.param(0);
        let v1 = b.load(p, Type::I32);
        let sevens = b.i32(7);
        b.store(p, sevens);
        let v2 = b.load(p, Type::I32); // must NOT merge with v1 across the store
        let s = b.bin(BinOp::Add, v1, v2);
        b.ret(Some(s));
        let mut f = b.build();
        run(&mut f);
        let loads = f.insts.iter().filter(|i| matches!(i.op, Op::Load(_))).count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn respects_dominance() {
        // Expressions in sibling branches must not CSE into each other.
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I1], Type::I32);
        let x = b.param(0);
        let c = b.param(1);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(c, t, e);
        b.switch_to(t);
        let one_t = b.i32(1);
        let a1 = b.bin(BinOp::Add, x, one_t);
        b.br(j);
        b.switch_to(e);
        let one_e = b.i32(1);
        let a2 = b.bin(BinOp::Add, x, one_e);
        b.br(j);
        b.switch_to(j);
        let ph = b.phi(Type::I32, vec![(t, a1), (e, a2)]);
        b.ret(Some(ph));
        let mut f = b.build();
        run(&mut f);
        assert!(concord_ir::verify::verify_function(&f).is_ok());
        // The two adds live in sibling blocks: neither dominates the other.
        // (The i32 1 constants likewise.) Phi must still reference two
        // distinct values or a legitimately dominating one — verify covers
        // structural sanity; here we check the adds survived.
        let adds = f.insts.iter().filter(|i| matches!(i.op, Op::Bin(BinOp::Add, ..))).count();
        assert_eq!(adds, 2);
    }
}
