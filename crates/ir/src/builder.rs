//! Ergonomic construction of IR functions.
//!
//! [`FunctionBuilder`] wraps a [`Function`] with an insertion point, so
//! frontends and tests can emit straight-line code and control flow without
//! manual arena bookkeeping.

use crate::function::Function;
use crate::inst::{BinOp, BlockId, CastOp, FCmp, FuncId, ICmp, Intrinsic, Op, ValueId};
use crate::types::{AddrSpace, ClassId, Type};

/// Builder positioned at the end of one block of a function under
/// construction.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cursor: BlockId,
}

impl FunctionBuilder {
    /// Start building a function; the cursor is at the entry block, after
    /// the parameter instructions.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret: Type) -> Self {
        let func = Function::new(name, params, ret);
        let cursor = func.entry();
        FunctionBuilder { func, cursor }
    }

    /// Value of the `i`-th parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> ValueId {
        assert!(i < self.func.params.len(), "parameter index out of range");
        ValueId(i as u32)
    }

    /// Create a new, empty block (does not move the cursor).
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Default::default());
        id
    }

    /// Move the cursor to the end of `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cursor = b;
    }

    /// The block the cursor is in.
    pub fn current_block(&self) -> BlockId {
        self.cursor
    }

    /// Whether the current block already has a terminator.
    pub fn is_terminated(&self) -> bool {
        self.func.terminator(self.cursor).is_some()
    }

    /// Append a raw op with a result type at the cursor.
    pub fn emit(&mut self, op: Op, ty: Type) -> ValueId {
        debug_assert!(
            self.func.terminator(self.cursor).is_none(),
            "emitting into a terminated block"
        );
        let id = self.func.push_inst(op, ty);
        self.func.block_mut(self.cursor).insts.push(id);
        id
    }

    /// Integer constant of the given type.
    pub fn const_int(&mut self, v: i64, ty: Type) -> ValueId {
        self.emit(Op::ConstInt(v), ty)
    }

    /// `i32` constant.
    pub fn i32(&mut self, v: i32) -> ValueId {
        self.const_int(v as i64, Type::I32)
    }

    /// `i64` constant.
    pub fn i64(&mut self, v: i64) -> ValueId {
        self.const_int(v, Type::I64)
    }

    /// `f32` constant.
    pub fn f32(&mut self, v: f32) -> ValueId {
        self.emit(Op::ConstFloat(v as f64), Type::F32)
    }

    /// `f64` constant.
    pub fn f64(&mut self, v: f64) -> ValueId {
        self.emit(Op::ConstFloat(v), Type::F64)
    }

    /// Null pointer in address space `sp`.
    pub fn null(&mut self, sp: AddrSpace) -> ValueId {
        self.emit(Op::ConstNull, Type::Ptr(sp))
    }

    /// Two-operand arithmetic; result has the type of `lhs`.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let ty = self.func.inst(lhs).ty;
        self.emit(Op::Bin(op, lhs, rhs), ty)
    }

    /// Integer comparison producing `i1`.
    pub fn icmp(&mut self, pred: ICmp, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.emit(Op::Icmp(pred, lhs, rhs), Type::I1)
    }

    /// Float comparison producing `i1`.
    pub fn fcmp(&mut self, pred: FCmp, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.emit(Op::Fcmp(pred, lhs, rhs), Type::I1)
    }

    /// Conversion to `to`.
    pub fn cast(&mut self, op: CastOp, v: ValueId, to: Type) -> ValueId {
        self.emit(Op::Cast(op, v), to)
    }

    /// `cond ? a : b`.
    pub fn select(&mut self, cond: ValueId, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.func.inst(a).ty;
        self.emit(Op::Select(cond, a, b), ty)
    }

    /// Reserve private memory.
    pub fn alloca(&mut self, size: u64, align: u64) -> ValueId {
        self.emit(Op::Alloca { size, align }, Type::Ptr(AddrSpace::Private))
    }

    /// Load a value of type `ty` from `ptr`.
    pub fn load(&mut self, ptr: ValueId, ty: Type) -> ValueId {
        self.emit(Op::Load(ptr), ty)
    }

    /// Store `val` through `ptr`.
    pub fn store(&mut self, ptr: ValueId, val: ValueId) {
        self.emit(Op::Store { ptr, val }, Type::Void);
    }

    /// Pointer plus dynamic byte offset.
    pub fn gep(&mut self, base: ValueId, offset: ValueId) -> ValueId {
        let ty = self.func.inst(base).ty;
        self.emit(Op::Gep { base, offset }, ty)
    }

    /// Pointer plus constant byte offset (emits the constant).
    pub fn gep_const(&mut self, base: ValueId, offset: u64) -> ValueId {
        let off = self.i64(offset as i64);
        self.gep(base, off)
    }

    /// Translate CPU-space pointer to GPU space.
    pub fn cpu_to_gpu(&mut self, v: ValueId) -> ValueId {
        self.emit(Op::CpuToGpu(v), Type::Ptr(AddrSpace::Gpu))
    }

    /// Translate GPU-space pointer to CPU space.
    pub fn gpu_to_cpu(&mut self, v: ValueId) -> ValueId {
        self.emit(Op::GpuToCpu(v), Type::Ptr(AddrSpace::Cpu))
    }

    /// SSA phi with the given incoming edges; all values must share `ty`.
    pub fn phi(&mut self, ty: Type, incoming: Vec<(BlockId, ValueId)>) -> ValueId {
        self.emit(Op::Phi(incoming), ty)
    }

    /// Direct call.
    pub fn call(&mut self, callee: FuncId, args: Vec<ValueId>, ret: Type) -> ValueId {
        self.emit(Op::Call { callee, args }, ret)
    }

    /// Virtual call through slot `slot` of the receiver's vtable.
    pub fn call_virtual(
        &mut self,
        static_class: ClassId,
        slot: u32,
        obj: ValueId,
        args: Vec<ValueId>,
        ret: Type,
    ) -> ValueId {
        self.emit(Op::CallVirtual { static_class, slot, obj, args }, ret)
    }

    /// Intrinsic call.
    pub fn intrinsic(&mut self, i: Intrinsic, args: Vec<ValueId>, ret: Type) -> ValueId {
        self.emit(Op::IntrinsicCall(i, args), ret)
    }

    /// Unconditional branch terminator.
    pub fn br(&mut self, target: BlockId) {
        self.emit(Op::Br(target), Type::Void);
    }

    /// Conditional branch terminator.
    pub fn cond_br(&mut self, cond: ValueId, then_bb: BlockId, else_bb: BlockId) {
        self.emit(Op::CondBr(cond, then_bb, else_bb), Type::Void);
    }

    /// Return terminator.
    pub fn ret(&mut self, v: Option<ValueId>) {
        self.emit(Op::Ret(v), Type::Void);
    }

    /// Finish and take the function.
    pub fn build(self) -> Function {
        self.func
    }

    /// Read access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line() {
        let mut b = FunctionBuilder::new("add1", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let one = b.i32(1);
        let sum = b.bin(BinOp::Add, p, one);
        b.ret(Some(sum));
        let f = b.build();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 4); // param, const, add, ret
        assert!(f.terminator(BlockId(0)).is_some());
    }

    #[test]
    fn diamond_with_phi() {
        // if (p != 0) x = 1 else x = 2; return x
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let p = b.param(0);
        let zero = b.i32(0);
        let cond = b.icmp(ICmp::Ne, p, zero);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let join = b.new_block();
        b.cond_br(cond, then_bb, else_bb);
        b.switch_to(then_bb);
        let one = b.i32(1);
        b.br(join);
        b.switch_to(else_bb);
        let two = b.i32(2);
        b.br(join);
        b.switch_to(join);
        let x = b.phi(Type::I32, vec![(then_bb, one), (else_bb, two)]);
        b.ret(Some(x));
        let f = b.build();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(*f.successors(BlockId(0)), [then_bb, else_bb]);
        let preds = f.predecessors();
        assert_eq!(preds[join.0 as usize].len(), 2);
    }

    #[test]
    fn gep_preserves_address_space() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr(AddrSpace::Gpu)], Type::Void);
        let p = b.param(0);
        let q = b.gep_const(p, 16);
        assert_eq!(b.func().inst(q).ty, Type::Ptr(AddrSpace::Gpu));
        b.ret(None);
    }

    #[test]
    #[should_panic(expected = "parameter index out of range")]
    fn param_bounds() {
        let b = FunctionBuilder::new("f", vec![], Type::Void);
        let _ = b.param(0);
    }
}
