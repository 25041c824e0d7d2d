//! IR verifier: structural invariants every pass must preserve.

use crate::analysis::DomTree;
use crate::function::{Function, Module};
use crate::inst::{BlockId, Op};
use crate::types::Type;
use std::collections::HashSet;
use std::fmt;

/// A verifier failure, with enough context to locate the bug.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Function where the violation was found.
    pub function: String,
    /// Block where the violation was found, if block-local.
    pub block: Option<BlockId>,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            Some(b) => write!(f, "verify error in {} at {}: {}", self.function, b, self.message),
            None => write!(f, "verify error in {}: {}", self.function, self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify a single function.
///
/// Checks:
/// * every block ends in exactly one terminator, which is its last instruction;
/// * no instruction appears in more than one block;
/// * branch targets are valid block ids, and none is the entry block: the
///   entry has no predecessors, which every pass may assume (register
///   promotion renames from it; CFG simplification never merges it away);
/// * phi nodes appear only at the head of a block and cover exactly the
///   block's predecessors;
/// * operands refer to instructions that exist;
/// * in every reachable block, each operand is a placed instruction whose
///   definition dominates the use; a phi input dominates the end of its
///   incoming predecessor (unreachable predecessors are exempt);
/// * stores and loads use pointer operands; `CpuToGpu`/`GpuToCpu` operate on
///   pointers of the correct space.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    let err = |block: Option<BlockId>, message: String| VerifyError {
        function: f.name.clone(),
        block,
        message,
    };
    let mut placed: HashSet<u32> = HashSet::new();
    let preds = f.predecessors();
    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        if insts.is_empty() {
            return Err(err(Some(b), "empty block".into()));
        }
        for (pos, &id) in insts.iter().enumerate() {
            if id.0 as usize >= f.insts.len() {
                return Err(err(Some(b), format!("instruction {id} out of range")));
            }
            if !placed.insert(id.0) {
                return Err(err(Some(b), format!("instruction {id} placed twice")));
            }
            let inst = f.inst(id);
            let is_last = pos == insts.len() - 1;
            if inst.op.is_terminator() != is_last {
                return Err(err(
                    Some(b),
                    format!("terminator placement violation at {id}: mid-block terminator or non-terminator tail"),
                ));
            }
            for target in inst.op.successors() {
                if target.0 as usize >= f.blocks.len() {
                    return Err(err(Some(b), format!("branch to missing block {target}")));
                }
                if target == f.entry() {
                    return Err(err(Some(b), format!("branch to the entry block {target}")));
                }
            }
            for opnd in inst.op.operands() {
                if opnd.0 as usize >= f.insts.len() {
                    return Err(err(Some(b), format!("operand {opnd} of {id} out of range")));
                }
            }
            match &inst.op {
                Op::Phi(incoming) => {
                    // Phis must be at the head of the block (after other phis).
                    let head_ok = insts[..pos].iter().all(|&p| matches!(f.inst(p).op, Op::Phi(_)));
                    if !head_ok {
                        return Err(err(Some(b), format!("phi {id} not at block head")));
                    }
                    let mut seen: HashSet<BlockId> = HashSet::new();
                    for &(pred, _) in incoming {
                        if !seen.insert(pred) {
                            return Err(err(
                                Some(b),
                                format!("phi {id} has duplicate predecessor {pred}"),
                            ));
                        }
                        if !preds[&b].contains(&pred) {
                            return Err(err(
                                Some(b),
                                format!("phi {id} names non-predecessor {pred}"),
                            ));
                        }
                    }
                    let expected: HashSet<BlockId> = preds[&b].iter().copied().collect();
                    if seen != expected {
                        return Err(err(
                            Some(b),
                            format!(
                                "phi {id} covers {} of {} predecessors",
                                seen.len(),
                                expected.len()
                            ),
                        ));
                    }
                }
                Op::Load(p) => {
                    if !f.inst(*p).ty.is_ptr() {
                        return Err(err(Some(b), format!("load {id} from non-pointer {p}")));
                    }
                    if inst.ty == Type::Void {
                        return Err(err(Some(b), format!("load {id} of void")));
                    }
                }
                Op::Store { ptr, .. } if !f.inst(*ptr).ty.is_ptr() => {
                    return Err(err(Some(b), format!("store {id} to non-pointer {ptr}")));
                }
                Op::Gep { base, .. } if !f.inst(*base).ty.is_ptr() => {
                    return Err(err(Some(b), format!("gep {id} on non-pointer {base}")));
                }
                Op::CpuToGpu(v) => {
                    let vt = f.inst(*v).ty;
                    if vt != Type::Ptr(crate::types::AddrSpace::Cpu) {
                        return Err(err(
                            Some(b),
                            format!("cpu_to_gpu {id} applied to {vt}, expected ptr(cpu)"),
                        ));
                    }
                }
                Op::GpuToCpu(v) => {
                    let vt = f.inst(*v).ty;
                    if vt != Type::Ptr(crate::types::AddrSpace::Gpu) {
                        return Err(err(
                            Some(b),
                            format!("gpu_to_cpu {id} applied to {vt}, expected ptr(gpu)"),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    verify_dominance(f).map_err(|(b, message)| err(Some(b), message))
}

/// The dominance half of [`verify_function`], on a structurally valid
/// function.
fn verify_dominance(f: &Function) -> Result<(), (BlockId, String)> {
    let dom = DomTree::compute(f);
    let mut def: Vec<Option<(BlockId, usize)>> = vec![None; f.insts.len()];
    for b in f.block_ids() {
        for (pos, &id) in f.block(b).insts.iter().enumerate() {
            def[id.0 as usize] = Some((b, pos));
        }
    }
    for &b in &dom.rpo {
        for (pos, &id) in f.block(b).insts.iter().enumerate() {
            if let Op::Phi(incoming) = &f.inst(id).op {
                for &(pred, v) in incoming {
                    let ok = match def[v.0 as usize] {
                        Some((db, _)) => dom.dominates(db, pred),
                        None => false,
                    };
                    if dom.rpo_index(pred).is_some() && !ok {
                        return Err((b, format!("phi {id} input {v} does not dominate {pred}")));
                    }
                }
                continue;
            }
            let mut early = None;
            f.inst(id).op.for_each_operand(|v| {
                let ok = match def[v.0 as usize] {
                    Some((db, dpos)) if db == b => dpos < pos,
                    Some((db, _)) => dom.dominates(db, b),
                    None => false,
                };
                if !ok && early.is_none() {
                    early = Some(v);
                }
            });
            if let Some(v) = early {
                return Err((b, format!("{id} uses {v} before its definition")));
            }
        }
    }
    Ok(())
}

/// Verify every function in a module, plus module-level invariants
/// (vtable slots refer to existing functions; class layouts exist).
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for c in &m.classes {
        for f in &c.vtable {
            if f.0 as usize >= m.functions.len() {
                return Err(VerifyError {
                    function: format!("<class {}>", c.name),
                    block: None,
                    message: format!("vtable slot refers to missing function {f}"),
                });
            }
        }
        if c.layout.0 as usize >= m.structs.len() {
            return Err(VerifyError {
                function: format!("<class {}>", c.name),
                block: None,
                message: "class layout refers to missing struct".into(),
            });
        }
    }
    for f in &m.functions {
        verify_function(f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{ICmp, ValueId};
    use crate::types::{AddrSpace, Type};

    #[test]
    fn well_formed_function_passes() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        b.ret(Some(p));
        assert!(verify_function(&b.build()).is_ok());
    }

    #[test]
    fn missing_terminator_fails() {
        let b = FunctionBuilder::new("f", vec![Type::I32], Type::Void);
        let e = verify_function(&b.build()).unwrap_err();
        assert!(e.message.contains("terminator"));
    }

    #[test]
    fn empty_block_fails() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.new_block();
        b.ret(None);
        let e = verify_function(&b.build()).unwrap_err();
        assert!(e.message.contains("empty block"));
    }

    #[test]
    fn phi_must_cover_predecessors() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let z = b.i32(0);
        let c = b.icmp(ICmp::Sgt, p, z);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(c, t, e);
        b.switch_to(t);
        let one = b.i32(1);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        // Phi only covers one of two predecessors.
        let x = b.phi(Type::I32, vec![(t, one)]);
        b.ret(Some(x));
        let err = verify_function(&b.build()).unwrap_err();
        assert!(err.message.contains("predecessors"), "{}", err.message);
    }

    #[test]
    fn load_from_non_pointer_fails() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let v = b.load(p, Type::I32);
        b.ret(Some(v));
        let e = verify_function(&b.build()).unwrap_err();
        assert!(e.message.contains("non-pointer"));
    }

    #[test]
    fn cpu_to_gpu_requires_cpu_pointer() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr(AddrSpace::Gpu)], Type::Void);
        let p = b.param(0);
        let _ = b.cpu_to_gpu(p);
        b.ret(None);
        let e = verify_function(&b.build()).unwrap_err();
        assert!(e.message.contains("cpu_to_gpu"));
    }

    #[test]
    fn branch_to_missing_block_fails() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.br(crate::inst::BlockId(7));
        let e = verify_function(&b.build()).unwrap_err();
        assert!(e.message.contains("missing block"));
    }

    #[test]
    fn a_branch_to_the_entry_block_fails() {
        // bb0: condbr %c, bb1, bb2; bb1: br bb0; bb2: ret
        let mut b = FunctionBuilder::new("f", vec![Type::I1], Type::Void);
        let c = b.param(0);
        let back = b.new_block();
        let exit = b.new_block();
        b.cond_br(c, back, exit);
        b.switch_to(back);
        b.br(BlockId(0));
        b.switch_to(exit);
        b.ret(None);
        let e = verify_function(&b.build()).unwrap_err();
        assert_eq!(e.block, Some(back));
        assert!(e.message.contains("entry block"), "{e}");
    }

    #[test]
    fn operand_out_of_range_fails() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.emit(crate::inst::Op::Ret(Some(ValueId(99))), Type::Void);
        let e = verify_function(&b.build()).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn a_use_before_its_definition_fails() {
        // `s = a + b` placed ahead of `a` in the same block.
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let one = b.i32(1);
        let a = b.bin(crate::inst::BinOp::Add, p, one);
        let s = b.bin(crate::inst::BinOp::Add, a, a);
        b.ret(Some(s));
        let mut f = b.build();
        let insts = &mut f.blocks[0].insts;
        let (ia, is) = (insts.iter().position(|&v| v == a), insts.iter().position(|&v| v == s));
        insts.swap(ia.unwrap(), is.unwrap());
        let e = verify_function(&f).unwrap_err();
        assert!(e.message.contains("before its definition"), "{}", e.message);
    }

    #[test]
    fn a_use_in_a_block_its_definition_does_not_dominate_fails() {
        // The definition sits on one arm of a branch, the use after the join.
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let z = b.i32(0);
        let c = b.icmp(ICmp::Sgt, p, z);
        let (t, j) = (b.new_block(), b.new_block());
        b.cond_br(c, t, j);
        b.switch_to(t);
        let x = b.bin(crate::inst::BinOp::Add, p, p);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(x));
        let e = verify_function(&b.build()).unwrap_err();
        assert!(e.message.contains("before its definition"), "{}", e.message);
    }

    #[test]
    fn a_phi_input_must_dominate_its_predecessor_and_unreachable_blocks_are_exempt() {
        // A loop: the latch's value feeds the header phi (fine), and an
        // unreachable block may use anything.
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let entry = b.current_block();
        let p = b.param(0);
        let (head, body, exit, dead) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
        b.br(head);
        b.switch_to(head);
        let i = b.phi(Type::I32, vec![]);
        let c = b.icmp(ICmp::Slt, i, p);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let one = b.i32(1);
        let next = b.bin(crate::inst::BinOp::Add, i, one);
        b.br(head);
        b.switch_to(exit);
        b.ret(Some(i));
        b.switch_to(dead);
        let w = b.bin(crate::inst::BinOp::Add, next, next);
        b.ret(Some(w));
        let mut f = b.build();
        f.inst_mut(i).op = Op::Phi(vec![(entry, p), (body, next)]);
        assert_eq!(verify_function(&f), Ok(()));
        // `next` does not dominate the entry edge.
        f.inst_mut(i).op = Op::Phi(vec![(entry, next), (body, next)]);
        let e = verify_function(&f).unwrap_err();
        assert!(e.message.contains("does not dominate"), "{}", e.message);
    }

    #[test]
    fn module_vtable_bounds_checked() {
        let mut m = Module::new();
        let layout = m.add_struct(crate::types::StructDef {
            name: "S".into(),
            fields: vec![],
            size: 8,
            align: 8,
            class_id: None,
        });
        m.add_class(crate::function::ClassInfo {
            name: "C".into(),
            layout,
            bases: vec![],
            vtable: vec![crate::inst::FuncId(3)],
        });
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("missing function"));
    }
}
