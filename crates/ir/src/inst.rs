//! Instruction set of the Concord IR.
//!
//! The IR is in SSA form: every instruction that produces a value defines a
//! fresh [`ValueId`]; `phi` nodes merge values at control-flow joins.
//! Terminators end basic blocks.

use crate::types::ClassId;
use std::fmt;

/// SSA value: index of the defining instruction in a function's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Basic block index within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Function index within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Two-operand arithmetic and bitwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division. Division by zero traps.
    SDiv,
    /// Unsigned division. Division by zero traps.
    UDiv,
    /// Signed remainder. Division by zero traps.
    SRem,
    /// Unsigned remainder. Division by zero traps.
    URem,
    FAdd,
    FSub,
    FMul,
    FDiv,
    And,
    Or,
    Xor,
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
}

impl BinOp {
    /// Whether the operation is floating-point.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
        }
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ICmp {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl ICmp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ICmp::Eq => "eq",
            ICmp::Ne => "ne",
            ICmp::Slt => "slt",
            ICmp::Sle => "sle",
            ICmp::Sgt => "sgt",
            ICmp::Sge => "sge",
            ICmp::Ult => "ult",
            ICmp::Ule => "ule",
            ICmp::Ugt => "ugt",
            ICmp::Uge => "uge",
        }
    }
}

/// Floating-point comparison predicates (ordered semantics: NaN compares
/// false except for `Ne`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmp {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

impl FCmp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FCmp::Oeq => "oeq",
            FCmp::One => "one",
            FCmp::Olt => "olt",
            FCmp::Ole => "ole",
            FCmp::Ogt => "ogt",
            FCmp::Oge => "oge",
        }
    }
}

/// Value conversions between IR types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Integer zero-extension (or no-op to same width).
    Zext,
    /// Integer sign-extension.
    Sext,
    /// Integer truncation.
    Trunc,
    /// Float → signed integer (round toward zero).
    FpToSi,
    /// Signed integer → float.
    SiToFp,
    /// Float width change.
    FpCast,
    /// Pointer → i64 (keeps the bit pattern).
    PtrToInt,
    /// i64 → pointer. The result type carries the address space.
    IntToPtr,
    /// Reinterpret a pointer in a different address space *without* changing
    /// its numeric value. Only used internally by tests; real space changes
    /// go through `CpuToGpu`/`GpuToCpu`.
    PtrCast,
}

impl CastOp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Zext => "zext",
            CastOp::Sext => "sext",
            CastOp::Trunc => "trunc",
            CastOp::FpToSi => "fptosi",
            CastOp::SiToFp => "sitofp",
            CastOp::FpCast => "fpcast",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
            CastOp::PtrCast => "ptrcast",
        }
    }
}

/// Built-in operations with device-specific implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// Global work-item id of the current invocation (i32).
    GlobalId,
    /// Total number of work-items (i32).
    GlobalSize,
    /// Work-item id within the work-group (i32).
    LocalId,
    /// Work-group id (i32).
    GroupId,
    /// Work-group execution barrier (void).
    Barrier,
    /// Atomic `*ptr += v`, returns the old value (i32).
    AtomicAddI32,
    /// Atomic `*ptr = min(*ptr, v)`, returns the old value (i32).
    AtomicMinI32,
    /// Atomic compare-and-swap on i32: `(ptr, expected, new)`, returns old.
    AtomicCasI32,
    /// `sqrt` (f32).
    Sqrt,
    /// `fabs` (f32).
    FAbs,
    /// `floor` (f32).
    Floor,
    /// Float minimum (f32, propagates the non-NaN operand).
    FMin,
    /// Float maximum (f32).
    FMax,
    /// `exp` (f32).
    Exp,
    /// `pow` (f32, f32).
    Pow,
    /// Signed integer minimum (i32).
    SMin,
    /// Signed integer maximum (i32).
    SMax,
    /// Device-side allocation from the shared region's device heap
    /// (the §2.1 restriction the paper plans to lift; implemented here).
    /// `(size: i32) -> ptr(cpu)`; returns null when the heap is exhausted.
    DeviceMalloc,
    /// Worklist push: `(item: i32) -> void`. Appends `item` to the next
    /// frontier of the enclosing `parallel_worklist_hetero` construct.
    /// Pushes land in a per-chunk segment merged at commit into a sorted,
    /// deduplicated frontier, so the drain order is deterministic on every
    /// target at any host-thread count. Traps outside a worklist launch.
    WlPush,
}

impl Intrinsic {
    /// Name used in source and printed IR.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::GlobalId => "global_id",
            Intrinsic::GlobalSize => "global_size",
            Intrinsic::LocalId => "local_id",
            Intrinsic::GroupId => "group_id",
            Intrinsic::Barrier => "barrier",
            Intrinsic::AtomicAddI32 => "atomic_add",
            Intrinsic::AtomicMinI32 => "atomic_min",
            Intrinsic::AtomicCasI32 => "atomic_cas",
            Intrinsic::Sqrt => "sqrtf",
            Intrinsic::FAbs => "fabsf",
            Intrinsic::Floor => "floorf",
            Intrinsic::FMin => "fminf",
            Intrinsic::FMax => "fmaxf",
            Intrinsic::Exp => "expf",
            Intrinsic::Pow => "powf",
            Intrinsic::SMin => "min",
            Intrinsic::SMax => "max",
            Intrinsic::DeviceMalloc => "device_malloc",
            Intrinsic::WlPush => "push",
        }
    }

    /// Whether this intrinsic reads or writes memory.
    pub fn is_memory(self) -> bool {
        matches!(
            self,
            Intrinsic::AtomicAddI32
                | Intrinsic::AtomicMinI32
                | Intrinsic::AtomicCasI32
                | Intrinsic::DeviceMalloc
                | Intrinsic::WlPush
        )
    }
}

/// An IR operation. Instructions that produce a value have a non-void type
/// recorded in [`Inst::ty`](crate::function::Inst).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// The `i`-th function parameter. Always materialized at the top of the
    /// entry block by the builder.
    Param(u32),
    /// Integer constant (value stored sign-extended; type gives width).
    ConstInt(i64),
    /// Floating constant.
    ConstFloat(f64),
    /// Null pointer constant in the instruction's address space.
    ConstNull,
    /// Two-operand arithmetic.
    Bin(BinOp, ValueId, ValueId),
    /// Integer comparison producing `i1`.
    Icmp(ICmp, ValueId, ValueId),
    /// Float comparison producing `i1`.
    Fcmp(FCmp, ValueId, ValueId),
    /// Type conversion; result type is the instruction type.
    Cast(CastOp, ValueId),
    /// `cond ? a : b` without control flow.
    Select(ValueId, ValueId, ValueId),
    /// Reserve `size` bytes of private memory; yields `ptr(private)`.
    Alloca {
        /// Bytes to reserve.
        size: u64,
        /// Alignment in bytes.
        align: u64,
    },
    /// Load a value of the instruction's type from a pointer.
    Load(ValueId),
    /// Store `val` through `ptr`.
    Store {
        /// Destination pointer.
        ptr: ValueId,
        /// Value to store.
        val: ValueId,
    },
    /// Pointer + byte offset, same address space as `base`.
    Gep {
        /// Base pointer.
        base: ValueId,
        /// Byte offset (i64).
        offset: ValueId,
    },
    /// Translate a CPU-space pointer to GPU space (adds `svm_const`).
    CpuToGpu(ValueId),
    /// Translate a GPU-space pointer back to CPU space.
    GpuToCpu(ValueId),
    /// SSA merge: `(pred_block, value)` pairs covering all predecessors.
    Phi(Vec<(BlockId, ValueId)>),
    /// Direct call.
    Call {
        /// Callee.
        callee: FuncId,
        /// Argument values.
        args: Vec<ValueId>,
    },
    /// Virtual method call through the object's vtable.
    ///
    /// `static_class` is the class of the pointer's static type; `slot` the
    /// vtable slot of the method. The devirtualization pass replaces this
    /// with an inline test sequence over the possible targets, because
    /// integrated GPUs have no function pointers (§3.2).
    CallVirtual {
        /// Static class of the receiver expression.
        static_class: ClassId,
        /// Vtable slot index of the method.
        slot: u32,
        /// Receiver object pointer (first argument).
        obj: ValueId,
        /// Remaining arguments.
        args: Vec<ValueId>,
    },
    /// Built-in operation.
    IntrinsicCall(Intrinsic, Vec<ValueId>),
    /// Unconditional branch (terminator).
    Br(BlockId),
    /// Conditional branch on an `i1` (terminator).
    CondBr(ValueId, BlockId, BlockId),
    /// Function return (terminator).
    Ret(Option<ValueId>),
    /// Trap: reaching this is a bug (terminator).
    Unreachable,
}

impl Op {
    /// Whether this op terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Br(_) | Op::CondBr(..) | Op::Ret(_) | Op::Unreachable)
    }

    /// Whether this op reads or writes memory (used by CSE/DCE and the
    /// Figure-6 static irregularity statistics).
    pub fn is_memory(&self) -> bool {
        match self {
            Op::Load(_) | Op::Store { .. } | Op::Alloca { .. } => true,
            Op::IntrinsicCall(i, _) => i.is_memory(),
            _ => false,
        }
    }

    /// Whether this op is a control-flow operation (terminators, calls, phi).
    pub fn is_control(&self) -> bool {
        self.is_terminator()
            || matches!(self, Op::Call { .. } | Op::CallVirtual { .. } | Op::Phi(_))
    }

    /// Whether this op has side effects and must not be removed by DCE even
    /// if its result is unused.
    pub fn has_side_effects(&self) -> bool {
        match self {
            Op::Store { .. }
            | Op::Call { .. }
            | Op::CallVirtual { .. }
            | Op::Br(_)
            | Op::CondBr(..)
            | Op::Ret(_)
            | Op::Unreachable => true,
            Op::IntrinsicCall(i, _) => i.is_memory() || matches!(i, Intrinsic::Barrier),
            // Division can trap, keep it.
            Op::Bin(op, ..) => {
                matches!(op, BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem)
            }
            _ => false,
        }
    }

    /// All SSA operands of this op.
    pub fn operands(&self) -> Vec<ValueId> {
        let mut v = Vec::new();
        self.for_each_operand(|u| v.push(u));
        v
    }

    /// Call `f` on every SSA operand, in [`Op::operands`] order, without
    /// allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Op::Param(_)
            | Op::ConstInt(_)
            | Op::ConstFloat(_)
            | Op::ConstNull
            | Op::Alloca { .. }
            | Op::Br(_)
            | Op::Unreachable => {}
            Op::Bin(_, a, b) | Op::Icmp(_, a, b) | Op::Fcmp(_, a, b) => {
                f(*a);
                f(*b);
            }
            Op::Cast(_, v) | Op::Load(v) | Op::CpuToGpu(v) | Op::GpuToCpu(v) => f(*v),
            Op::Select(c, a, b) => {
                f(*c);
                f(*a);
                f(*b);
            }
            Op::Store { ptr, val } => {
                f(*ptr);
                f(*val);
            }
            Op::Gep { base, offset } => {
                f(*base);
                f(*offset);
            }
            Op::Phi(incoming) => incoming.iter().for_each(|(_, v)| f(*v)),
            Op::Call { args, .. } | Op::IntrinsicCall(_, args) => args.iter().for_each(|a| f(*a)),
            Op::CallVirtual { obj, args, .. } => {
                f(*obj);
                args.iter().for_each(|a| f(*a));
            }
            Op::CondBr(c, ..) => f(*c),
            Op::Ret(v) => v.iter().for_each(|v| f(*v)),
        }
    }

    /// Rewrite every operand through `f` (used by transformation passes).
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Op::Param(_)
            | Op::ConstInt(_)
            | Op::ConstFloat(_)
            | Op::ConstNull
            | Op::Alloca { .. }
            | Op::Br(_)
            | Op::Unreachable => {}
            Op::Bin(_, a, b) | Op::Icmp(_, a, b) | Op::Fcmp(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::Cast(_, v) | Op::Load(v) | Op::CpuToGpu(v) | Op::GpuToCpu(v) => *v = f(*v),
            Op::Select(c, a, b) => {
                *c = f(*c);
                *a = f(*a);
                *b = f(*b);
            }
            Op::Store { ptr, val } => {
                *ptr = f(*ptr);
                *val = f(*val);
            }
            Op::Gep { base, offset } => {
                *base = f(*base);
                *offset = f(*offset);
            }
            Op::Phi(incoming) => {
                for (_, v) in incoming.iter_mut() {
                    *v = f(*v);
                }
            }
            Op::Call { args, .. } | Op::IntrinsicCall(_, args) => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
            Op::CallVirtual { obj, args, .. } => {
                *obj = f(*obj);
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
            Op::CondBr(c, ..) => *c = f(*c),
            Op::Ret(v) => {
                if let Some(v) = v {
                    *v = f(*v);
                }
            }
        }
    }

    /// Successor blocks if this is a terminator.
    pub fn successors(&self) -> Successors {
        match *self {
            Op::Br(b) => Successors::one(b),
            Op::CondBr(_, t, e) => Successors { blocks: [t, e], len: 2 },
            _ => Successors::NONE,
        }
    }
}

/// The successor blocks of a terminator, in terminator order: at most two,
/// held inline. Derefs to `&[BlockId]` and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successors {
    blocks: [BlockId; 2],
    len: u8,
}

impl Successors {
    /// No successors (`ret`, `unreachable`, an unterminated block).
    pub(crate) const NONE: Successors = Successors { blocks: [BlockId(0); 2], len: 0 };

    /// The single successor `b`.
    pub(crate) fn one(b: BlockId) -> Successors {
        Successors { blocks: [b, b], len: 1 }
    }
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];
    fn deref(&self) -> &[BlockId] {
        &self.blocks[..usize::from(self.len)]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(usize::from(self.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_classification() {
        assert!(Op::Br(BlockId(0)).is_terminator());
        assert!(Op::Ret(None).is_terminator());
        assert!(Op::Unreachable.is_terminator());
        assert!(!Op::ConstInt(1).is_terminator());
    }

    #[test]
    fn memory_classification() {
        assert!(Op::Load(ValueId(0)).is_memory());
        assert!(Op::Store { ptr: ValueId(0), val: ValueId(1) }.is_memory());
        assert!(Op::IntrinsicCall(Intrinsic::AtomicAddI32, vec![]).is_memory());
        assert!(!Op::Bin(BinOp::Add, ValueId(0), ValueId(1)).is_memory());
    }

    #[test]
    fn operand_traversal() {
        let op = Op::Select(ValueId(1), ValueId(2), ValueId(3));
        assert_eq!(op.operands(), vec![ValueId(1), ValueId(2), ValueId(3)]);
        let mut op = op;
        op.map_operands(|v| ValueId(v.0 + 10));
        assert_eq!(op.operands(), vec![ValueId(11), ValueId(12), ValueId(13)]);
    }

    #[test]
    fn virtual_call_operands_include_receiver() {
        let op = Op::CallVirtual {
            static_class: ClassId(0),
            slot: 1,
            obj: ValueId(5),
            args: vec![ValueId(6)],
        };
        assert_eq!(op.operands(), vec![ValueId(5), ValueId(6)]);
        assert!(op.is_control());
        assert!(op.has_side_effects());
    }

    #[test]
    fn successors_of_terminators() {
        assert_eq!(*Op::Br(BlockId(3)).successors(), [BlockId(3)]);
        assert_eq!(
            *Op::CondBr(ValueId(0), BlockId(1), BlockId(2)).successors(),
            [BlockId(1), BlockId(2)]
        );
        assert!(Op::Ret(None).successors().is_empty());
    }

    #[test]
    fn division_has_side_effects() {
        assert!(Op::Bin(BinOp::SDiv, ValueId(0), ValueId(1)).has_side_effects());
        assert!(!Op::Bin(BinOp::Add, ValueId(0), ValueId(1)).has_side_effects());
    }
}
