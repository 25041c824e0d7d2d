//! Dead code elimination.
//!
//! Removes side-effect-free instructions whose results are never used.
//! This is the pass that makes the hybrid pointer-translation strategy of
//! §4.1 work: the SVM lowering creates a GPU twin for *every* shared-pointer
//! definition, and DCE deletes the twins (and chains of dead pointer
//! arithmetic) that no dereference ever consumed.

use concord_ir::function::Function;
use concord_ir::{Op, ValueId};

/// Run DCE on one function. Returns the number of instructions removed.
///
/// Use counts over the placed instructions, and a worklist of removable
/// instructions whose count is zero: removing one decrements its operands,
/// which may join the worklist. The removed set is the fixpoint of
/// "drop every unused removable instruction", reached in one sweep; a dead
/// cycle (a phi feeding itself) keeps its uses and stays, as it always
/// did.
pub fn run(f: &mut Function) -> usize {
    let n = f.insts.len();
    let mut uses = vec![0u32; n];
    let mut placed = vec![false; n];
    for block in &f.blocks {
        for &i in &block.insts {
            placed[i.0 as usize] = true;
            f.insts[i.0 as usize].op.for_each_operand(|v| uses[v.0 as usize] += 1);
        }
    }
    // Params stay: their ids are the function's ABI.
    let removable = |v: ValueId| {
        let op = &f.insts[v.0 as usize].op;
        !op.has_side_effects() && !matches!(op, Op::Param(_))
    };
    let mut work: Vec<ValueId> = f
        .blocks
        .iter()
        .flat_map(|b| b.insts.iter().copied())
        .filter(|&i| uses[i.0 as usize] == 0 && removable(i))
        .collect();
    let mut dead = vec![false; n];
    let mut removed = 0;
    while let Some(i) = work.pop() {
        dead[i.0 as usize] = true;
        removed += 1;
        f.insts[i.0 as usize].op.for_each_operand(|v| {
            let u = &mut uses[v.0 as usize];
            *u -= 1;
            if *u == 0 && placed[v.0 as usize] && removable(v) {
                work.push(v);
            }
        });
    }
    if removed > 0 {
        for block in &mut f.blocks {
            block.insts.retain(|i| !dead[i.0 as usize]);
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_ir::builder::FunctionBuilder;
    use concord_ir::inst::BinOp;
    use concord_ir::types::{AddrSpace, Type};

    #[test]
    fn removes_unused_chain() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let one = b.i32(1);
        let dead1 = b.bin(BinOp::Add, p, one);
        let _dead2 = b.bin(BinOp::Mul, dead1, dead1);
        b.ret(Some(p));
        let mut f = b.build();
        let removed = run(&mut f);
        assert_eq!(removed, 3); // const, add, mul
        assert!(concord_ir::verify::verify_function(&f).is_ok());
    }

    #[test]
    fn keeps_side_effects() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr(AddrSpace::Cpu)], Type::Void);
        let p = b.param(0);
        let v = b.i32(7);
        b.store(p, v);
        b.ret(None);
        let mut f = b.build();
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn keeps_trapping_division() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::Void);
        let x = b.param(0);
        let y = b.param(1);
        let _div = b.bin(BinOp::SDiv, x, y); // may trap; must stay
        b.ret(None);
        let mut f = b.build();
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn removes_unused_translation_twins() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr(AddrSpace::Cpu)], Type::Void);
        let p = b.param(0);
        let _twin = b.cpu_to_gpu(p); // never dereferenced
        b.ret(None);
        let mut f = b.build();
        assert_eq!(run(&mut f), 1);
    }
}
