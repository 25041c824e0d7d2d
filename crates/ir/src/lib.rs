//! # concord-ir
//!
//! Typed SSA intermediate representation for the Concord reproduction
//! (Barik et al., *Efficient Mapping of Irregular C++ Applications to
//! Integrated GPUs*, CGO 2014).
//!
//! The IR sits between the C++-like kernel language (`concord-frontend`)
//! and the two execution substrates (CPU and GPU simulators). Its
//! distinguishing features, inherited from the paper's design:
//!
//! * **Address-space-qualified opaque pointers** ([`types::AddrSpace`]):
//!   CPU virtual addresses, GPU surface-relative addresses, per-work-item
//!   private memory, and work-group local memory.
//! * **Explicit SVM translation instructions** (`CpuToGpu`/`GpuToCpu` in
//!   [`inst::Op`]): the software shared-virtual-memory design stores all
//!   pointers in CPU representation; GPU code must translate before
//!   dereferencing. Where those translations go is the subject of the
//!   paper's §4.1 optimization.
//! * **First-class virtual calls** (`Op::CallVirtual`) that a compiler pass
//!   must devirtualize before GPU execution, because integrated GPUs have no
//!   function pointers (§3.2).
//!
//! ## Example
//!
//! ```
//! use concord_ir::builder::FunctionBuilder;
//! use concord_ir::inst::BinOp;
//! use concord_ir::types::Type;
//!
//! let mut b = FunctionBuilder::new("add1", vec![Type::I32], Type::I32);
//! let p = b.param(0);
//! let one = b.i32(1);
//! let sum = b.bin(BinOp::Add, p, one);
//! b.ret(Some(sum));
//! let f = b.build();
//! assert!(concord_ir::verify::verify_function(&f).is_ok());
//! ```

pub mod analysis;
pub mod builder;
pub mod callgraph;
pub mod codec;
pub mod eval;
pub mod function;
pub mod inst;
pub mod printer;
pub mod stats;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use function::{Block, ClassInfo, Function, Inst, KernelKind, Module};
pub use inst::{BinOp, BlockId, CastOp, FCmp, FuncId, ICmp, Intrinsic, Op, ValueId};
pub use types::{AddrSpace, ClassId, Field, StructDef, StructId, Type};
