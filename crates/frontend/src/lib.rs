//! # concord-frontend
//!
//! Compiler frontend for the Concord kernel language — the C++ subset the
//! paper's workloads are written in. Supports classes, single and multiple
//! inheritance, virtual functions, operator and function overloading,
//! pointers into shared virtual memory, and the two data-parallel entry
//! points (`operator()(int)` bodies and `join` reduction methods).
//!
//! Pipeline: [`lexer`] → [`parser`] → [`lower`] (type checking + AST→IR).
//!
//! GPU restrictions from §2.1 of the paper are enforced here: recursion
//! (other than eliminable direct tail recursion) and calls through
//! expressions produce [`diag::RestrictionWarning`]s / errors, and the
//! runtime falls back to CPU execution for affected kernels.
//!
//! ## Example
//!
//! ```
//! let src = r#"
//!     struct Node { Node* next; };
//!     class LoopBody {
//!     public:
//!         Node* nodes;
//!         void operator()(int i) { nodes[i].next = &(nodes[i+1]); }
//!     };
//! "#;
//! let compiled = concord_frontend::compile(src)?;
//! assert_eq!(compiled.kernels[0].class_name, "LoopBody");
//! # Ok::<(), concord_frontend::diag::CompileError>(())
//! ```

pub mod ast;
pub mod codec;
pub mod diag;
pub mod lexer;
pub mod lower;
pub mod parser;
mod types;

pub use diag::{CompileError, RestrictionWarning};
pub use lower::{KernelInfo, LoweredProgram, SourceInfo};

/// Compile kernel-language source to a lowered, verified IR module.
///
/// # Errors
///
/// Lexing, parsing, or type errors.
pub fn compile(src: &str) -> Result<LoweredProgram, CompileError> {
    let program = parser::parse(src)?;
    let lowered = lower::lower(&program, src)?;
    debug_assert!(
        concord_ir::verify::verify_module(&lowered.module).is_ok(),
        "frontend produced unverifiable IR: {:?}",
        concord_ir::verify::verify_module(&lowered.module)
    );
    Ok(lowered)
}
