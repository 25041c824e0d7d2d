//! Functions, basic blocks, and modules.

use crate::inst::{BlockId, FuncId, Op, Successors, ValueId};
use crate::types::{ClassId, StructDef, StructId, Type};
use std::collections::HashMap;

/// One instruction in a function's arena: an operation plus its result type
/// ([`Type::Void`] for instructions that produce no value).
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Result type.
    pub ty: Type,
}

/// A basic block: a straight-line instruction sequence ending in a terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Instruction ids in execution order. The last one is the terminator
    /// once the block is complete.
    pub insts: Vec<ValueId>,
}

/// What kind of kernel entry point a function is, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Body of a `parallel_for_hetero` (the `operator()` method).
    ForBody,
    /// `join` method of a `parallel_reduce_hetero` body.
    ReduceJoin,
}

/// An IR function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types. Parameters are materialized as [`Op::Param`]
    /// instructions at the start of the entry block.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
    /// Instruction arena; indices are [`ValueId`]s.
    pub insts: Vec<Inst>,
    /// Basic blocks; indices are [`BlockId`]s. Block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Set when the function is a kernel entry point.
    pub kernel: Option<KernelKind>,
    /// For methods: the class that owns this function.
    pub owner_class: Option<ClassId>,
}

impl Function {
    /// Create an empty function with one (entry) block and parameter
    /// instructions already materialized.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret: Type) -> Self {
        let mut f = Function {
            name: name.into(),
            params: params.clone(),
            ret,
            insts: Vec::new(),
            blocks: vec![Block::default()],
            kernel: None,
            owner_class: None,
        };
        for (i, ty) in params.iter().enumerate() {
            let id = f.push_inst(Op::Param(i as u32), *ty);
            f.blocks[0].insts.push(id);
        }
        f
    }

    /// The entry block id (always `bb0`).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Append an instruction to the arena (not to any block) and return its id.
    pub fn push_inst(&mut self, op: Op, ty: Type) -> ValueId {
        let id = ValueId(self.insts.len() as u32);
        self.insts.push(Inst { op, ty });
        id
    }

    /// The instruction defining `v`.
    pub fn inst(&self, v: ValueId) -> &Inst {
        &self.insts[v.0 as usize]
    }

    /// Mutable access to the instruction defining `v`.
    pub fn inst_mut(&mut self, v: ValueId) -> &mut Inst {
        &mut self.insts[v.0 as usize]
    }

    /// The block with id `b`.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Mutable access to block `b`.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.0 as usize]
    }

    /// Ids of all blocks, in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// The terminator instruction id of block `b`, if the block is complete.
    pub fn terminator(&self, b: BlockId) -> Option<ValueId> {
        let last = *self.block(b).insts.last()?;
        self.inst(last).op.is_terminator().then_some(last)
    }

    /// Successor blocks of `b`, in terminator order.
    pub fn successors(&self, b: BlockId) -> Successors {
        match self.terminator(b) {
            Some(t) => self.inst(t).op.successors(),
            None => Successors::NONE,
        }
    }

    /// The predecessors of every block, indexed by block id. Each list is
    /// in ascending block order, and a block that branches to the same
    /// target twice appears there twice, back to back: the order of every
    /// phi's incoming list. A branch to a missing block (which the verifier
    /// reports) is left out.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for s in self.successors(b) {
                if let Some(p) = preds.get_mut(s.0 as usize) {
                    p.push(b);
                }
            }
        }
        preds
    }

    /// Replace every use of each key of `replace` with its value, following
    /// chains (`a → b` and `b → c` send the uses of `a` to `c`), in every
    /// instruction of the arena, placed or not. Then drop the replaced ids,
    /// and the ids in `dead`, from their blocks. Chains are resolved once,
    /// so the cost is linear in the arena plus the map.
    ///
    /// # Panics
    ///
    /// If `replace` has a cycle.
    pub fn replace_all_uses(&mut self, replace: &HashMap<ValueId, ValueId>, dead: &[ValueId]) {
        if replace.is_empty() && dead.is_empty() {
            return;
        }
        let n = self.insts.len();
        let mut to: Vec<u32> = (0..n as u32).collect();
        let mut drop = vec![false; n];
        for (&from, &v) in replace {
            to[from.0 as usize] = v.0;
            drop[from.0 as usize] = true;
        }
        for &d in dead {
            drop[d.0 as usize] = true;
        }
        for &from in replace.keys() {
            let mut root = from.0;
            let mut steps = 0;
            while to[root as usize] != root {
                root = to[root as usize];
                steps += 1;
                assert!(steps <= replace.len(), "replacement cycle through {from}");
            }
            // Path compression: later chains through this one stop at once.
            let mut v = from.0;
            while to[v as usize] != root {
                let next = to[v as usize];
                to[v as usize] = root;
                v = next;
            }
        }
        for inst in &mut self.insts {
            inst.op.map_operands(|v| ValueId(to[v.0 as usize]));
        }
        for block in &mut self.blocks {
            block.insts.retain(|i| !drop[i.0 as usize]);
        }
    }

    /// Total number of instructions placed in blocks.
    pub fn placed_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A class's vtable: method function ids by slot, plus hierarchy links.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    /// Source-level class name.
    pub name: String,
    /// The struct layout for instances of this class.
    pub layout: StructId,
    /// Direct base classes (for class-hierarchy analysis).
    pub bases: Vec<ClassId>,
    /// Vtable: slot index → implementing function.
    pub vtable: Vec<FuncId>,
}

/// A compilation unit: struct layouts, class hierarchy, and functions.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Struct layouts; indices are [`StructId`]s.
    pub structs: Vec<StructDef>,
    /// Polymorphic classes; indices are [`ClassId`]s.
    pub classes: Vec<ClassInfo>,
    /// Functions; indices are [`FuncId`]s.
    pub functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a struct layout, returning its id.
    pub fn add_struct(&mut self, def: StructDef) -> StructId {
        let id = StructId(self.structs.len() as u32);
        self.structs.push(def);
        id
    }

    /// Add a class, returning its id.
    pub fn add_class(&mut self, info: ClassInfo) -> ClassId {
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(info);
        id
    }

    /// Add a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// The function with id `f`.
    pub fn function(&self, f: FuncId) -> &Function {
        &self.functions[f.0 as usize]
    }

    /// Mutable access to function `f`.
    pub fn function_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.functions[f.0 as usize]
    }

    /// Find a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// The struct layout with id `s`.
    pub fn struct_def(&self, s: StructId) -> &StructDef {
        &self.structs[s.0 as usize]
    }

    /// The class with id `c`.
    pub fn class(&self, c: ClassId) -> &ClassInfo {
        &self.classes[c.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn two_block_function() -> Function {
        // bb0: %0 = param 0; br bb1
        // bb1: %2 = add %0, %0; ret %2
        let mut f = Function::new("f", vec![Type::I32], Type::I32);
        let p = ValueId(0);
        let br = f.push_inst(Op::Br(BlockId(1)), Type::Void);
        f.blocks[0].insts.push(br);
        f.blocks.push(Block::default());
        let add = f.push_inst(Op::Bin(BinOp::Add, p, p), Type::I32);
        let ret = f.push_inst(Op::Ret(Some(add)), Type::Void);
        f.blocks[1].insts.extend([add, ret]);
        f
    }

    #[test]
    fn params_are_materialized() {
        let f = Function::new("f", vec![Type::I32, Type::F32], Type::Void);
        assert_eq!(f.insts.len(), 2);
        assert_eq!(f.inst(ValueId(0)).op, Op::Param(0));
        assert_eq!(f.inst(ValueId(1)).ty, Type::F32);
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn successors_and_predecessors() {
        let f = two_block_function();
        assert_eq!(*f.successors(BlockId(0)), [BlockId(1)]);
        assert!(f.successors(BlockId(1)).is_empty());
        let preds = f.predecessors();
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn terminator_detection() {
        let f = two_block_function();
        assert!(f.terminator(BlockId(0)).is_some());
        let empty = Function::new("g", vec![], Type::Void);
        assert!(empty.terminator(BlockId(0)).is_none());
    }

    #[test]
    fn replace_all_uses_follows_chains_everywhere_and_drops_the_replaced() {
        // bb0: %0 = param; %1 = add %0, %0; %2 = add %1, %1; %3 = add %2, %2; ret %3
        let mut f = Function::new("f", vec![Type::I32], Type::I32);
        let p = ValueId(0);
        let a = f.push_inst(Op::Bin(BinOp::Add, p, p), Type::I32);
        let b = f.push_inst(Op::Bin(BinOp::Add, a, a), Type::I32);
        let c = f.push_inst(Op::Bin(BinOp::Add, b, b), Type::I32);
        let ret = f.push_inst(Op::Ret(Some(c)), Type::Void);
        f.blocks[0].insts.extend([a, b, c, ret]);
        // Detached: in the arena, in no block.
        let detached = f.push_inst(Op::Bin(BinOp::Add, c, b), Type::I32);
        let replace: HashMap<ValueId, ValueId> = [(c, b), (b, a)].into_iter().collect();
        f.replace_all_uses(&replace, &[]);
        assert_eq!(f.blocks[0].insts, vec![p, a, ret]);
        assert_eq!(f.inst(ret).op, Op::Ret(Some(a)));
        assert_eq!(f.inst(detached).op, Op::Bin(BinOp::Add, a, a));
        f.replace_all_uses(&HashMap::new(), &[a]);
        assert_eq!(f.blocks[0].insts, vec![p, ret]);
    }

    #[test]
    #[should_panic(expected = "replacement cycle")]
    fn replace_all_uses_rejects_a_cycle() {
        let mut f = two_block_function();
        let replace: HashMap<ValueId, ValueId> =
            [(ValueId(2), ValueId(3)), (ValueId(3), ValueId(2))].into_iter().collect();
        f.replace_all_uses(&replace, &[]);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let f = Function::new("kernel_body", vec![], Type::Void);
        let id = m.add_function(f);
        assert_eq!(m.function_by_name("kernel_body"), Some(id));
        assert_eq!(m.function_by_name("missing"), None);
    }

    #[test]
    fn class_hierarchy_analysis() {
        let mut m = Module::new();
        let layout = m.add_struct(StructDef {
            name: "S".into(),
            fields: vec![],
            size: 8,
            align: 8,
            class_id: None,
        });
        let base =
            m.add_class(ClassInfo { name: "Shape".into(), layout, bases: vec![], vtable: vec![] });
        let mid = m.add_class(ClassInfo {
            name: "Round".into(),
            layout,
            bases: vec![base],
            vtable: vec![],
        });
        let leaf = m.add_class(ClassInfo {
            name: "Sphere".into(),
            layout,
            bases: vec![mid],
            vtable: vec![],
        });
        let other =
            m.add_class(ClassInfo { name: "Light".into(), layout, bases: vec![], vtable: vec![] });
        assert!(m.derives_from(leaf, base));
        assert!(!m.derives_from(other, base));
        assert_eq!(m.subclasses_of(base), vec![base, mid, leaf]);
        assert_eq!(m.subclasses_of(other), vec![other]);
    }
}
