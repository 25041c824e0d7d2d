//! Scalar evaluation semantics shared by the CPU and GPU simulators.
//!
//! Both simulators interpret the same IR; only memory, scheduling, and
//! timing differ. This module defines the runtime [`Value`] representation
//! and pure instruction semantics (arithmetic, comparisons, casts, math
//! intrinsics).
//!
//! `eval_bin`, `eval_icmp`, `eval_fcmp` and `eval_cast` are
//! `#[inline(always)]`: each simulator calls them once per simulated
//! instruction from its interpreter loop in another crate, where a call
//! out of line costs more than the evaluation (`ci.sh` keeps the
//! attribute).

use crate::inst::{BinOp, CastOp, FCmp, ICmp};
use crate::types::{AddrSpace, Type};
use std::fmt;

/// A dynamic value produced during interpretation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (all widths; stored sign-extended to 64 bits).
    I(i64),
    /// Floating point (f32 values are kept rounded to f32 precision).
    F(f64),
    /// Pointer with its address space tag.
    Ptr(u64, AddrSpace),
}

impl Value {
    /// Interpret as integer.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an integer (a type-confusion bug).
    #[inline]
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            other => panic!("expected integer value, got {other:?}"),
        }
    }

    /// Interpret as float.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a float.
    #[inline]
    pub fn as_f(self) -> f64 {
        match self {
            Value::F(v) => v,
            other => panic!("expected float value, got {other:?}"),
        }
    }

    /// Interpret as a pointer, returning `(address, space)`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a pointer.
    #[inline]
    pub fn as_ptr(self) -> (u64, AddrSpace) {
        match self {
            Value::Ptr(a, sp) => (a, sp),
            other => panic!("expected pointer value, got {other:?}"),
        }
    }

    /// Truthiness for `i1` conditions.
    #[inline]
    pub fn as_bool(self) -> bool {
        self.as_i() != 0
    }

    /// Zero value of a type.
    pub fn zero(ty: Type) -> Value {
        match ty {
            Type::F32 | Type::F64 => Value::F(0.0),
            Type::Ptr(sp) => Value::Ptr(0, sp),
            _ => Value::I(0),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I(v) => write!(f, "{v}"),
            Value::F(v) => write!(f, "{v}"),
            Value::Ptr(a, sp) => write!(f, "{sp}:{a:#x}"),
        }
    }
}

/// A runtime fault during interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Memory access outside the mapped region, or through a null pointer.
    BadAddress {
        /// The faulting address.
        addr: u64,
        /// The address space of the faulting pointer.
        space: AddrSpace,
    },
    /// The GPU dereferenced a pointer it cannot resolve: a CPU-space pointer
    /// that was never translated. This is the fault the SVM lowering pass
    /// exists to prevent (§3.1).
    WrongAddressSpace {
        /// Space the pointer was in.
        found: AddrSpace,
        /// Space the executing device expected.
        expected: AddrSpace,
    },
    /// `unreachable` executed.
    Unreachable,
    /// A virtual call could not be dispatched (vtable pointer did not match
    /// any known class), or the GPU hit an un-devirtualized indirect call.
    BadVirtualDispatch {
        /// The vtable address read from the object.
        vptr: u64,
    },
    /// Call stack exceeded the configured limit (the paper forbids
    /// non-tail recursion on the device; this enforces it dynamically too).
    StackOverflow,
    /// An intrinsic was called with malformed arguments.
    BadIntrinsic(&'static str),
    /// The interpreter's step budget was exhausted (runaway loop guard).
    StepLimitExceeded {
        /// Name of the kernel (entry function) that was executing.
        kernel: String,
        /// Global work-item id that exhausted its budget (-1 when the trap
        /// occurred outside any work-item context, e.g. a plain call).
        global_id: i64,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DivideByZero => f.write_str("integer division by zero"),
            Trap::BadAddress { addr, space } => {
                write!(f, "bad {space} address {addr:#x}")
            }
            Trap::WrongAddressSpace { found, expected } => write!(
                f,
                "dereferenced a {found}-space pointer where {expected} space was required \
                 (missing SVM pointer translation)"
            ),
            Trap::Unreachable => f.write_str("unreachable executed"),
            Trap::BadVirtualDispatch { vptr } => {
                write!(f, "virtual dispatch failed for vtable pointer {vptr:#x}")
            }
            Trap::StackOverflow => f.write_str("call stack limit exceeded"),
            Trap::BadIntrinsic(name) => write!(f, "malformed intrinsic call: {name}"),
            Trap::StepLimitExceeded { kernel, global_id } => write!(
                f,
                "interpreter step budget exhausted in kernel `{kernel}` (global work-item {global_id})"
            ),
        }
    }
}

impl Trap {
    /// Re-tag a step-limit trap with the launch kernel's name. The raise
    /// site only knows the function executing when the budget ran out
    /// (possibly a helper); the launch boundary knows the kernel entry.
    /// Other trap kinds pass through unchanged.
    #[must_use]
    pub fn with_kernel(self, kernel: &str) -> Trap {
        match self {
            Trap::StepLimitExceeded { global_id, .. } => {
                Trap::StepLimitExceeded { kernel: kernel.to_string(), global_id }
            }
            other => other,
        }
    }
}

impl std::error::Error for Trap {}

#[inline]
fn wrap_int(v: i64, ty: Type) -> i64 {
    match ty {
        Type::I1 => v & 1,
        Type::I8 => v as i8 as i64,
        Type::I16 => v as i16 as i64,
        Type::I32 => v as i32 as i64,
        _ => v,
    }
}

#[inline]
fn round_float(v: f64, ty: Type) -> f64 {
    if ty == Type::F32 {
        v as f32 as f64
    } else {
        v
    }
}

/// Evaluate a binary operation. `ty` is the result type (controls integer
/// wrapping width and float precision).
///
/// # Errors
///
/// Returns [`Trap::DivideByZero`] for zero divisors in integer
/// division/remainder.
#[inline(always)]
pub fn eval_bin(op: BinOp, lhs: Value, rhs: Value, ty: Type) -> Result<Value, Trap> {
    if op.is_float() {
        let (a, b) = (lhs.as_f(), rhs.as_f());
        let r = match op {
            BinOp::FAdd => a + b,
            BinOp::FSub => a - b,
            BinOp::FMul => a * b,
            BinOp::FDiv => a / b,
            _ => unreachable!(),
        };
        return Ok(Value::F(round_float(r, ty)));
    }
    // Pointer arithmetic: Gep is the normal path, but allow add/sub on a
    // pointer and an integer, preserving the space (used by lowered code).
    if let (Value::Ptr(a, sp), Value::I(b)) = (lhs, rhs) {
        let r = match op {
            BinOp::Add => a.wrapping_add(b as u64),
            BinOp::Sub => a.wrapping_sub(b as u64),
            _ => panic!("unsupported pointer arithmetic {op:?}"),
        };
        return Ok(Value::Ptr(r, sp));
    }
    let (a, b) = (lhs.as_i(), rhs.as_i());
    let r = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::SDiv => {
            if b == 0 {
                return Err(Trap::DivideByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::UDiv => {
            if b == 0 {
                return Err(Trap::DivideByZero);
            }
            ((a as u64) / (b as u64)) as i64
        }
        BinOp::SRem => {
            if b == 0 {
                return Err(Trap::DivideByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::URem => {
            if b == 0 {
                return Err(Trap::DivideByZero);
            }
            ((a as u64) % (b as u64)) as i64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::LShr => {
            let width = (ty.size() * 8) as u32;
            let ua = (a as u64) & (u64::MAX >> (64 - width));
            (ua.wrapping_shr(b as u32)) as i64
        }
        BinOp::AShr => wrap_int(a, ty).wrapping_shr(b as u32),
        _ => unreachable!(),
    };
    Ok(Value::I(wrap_int(r, ty)))
}

/// Evaluate an integer comparison (also works for pointers of the same
/// space, comparing addresses).
#[inline(always)]
pub fn eval_icmp(pred: ICmp, lhs: Value, rhs: Value) -> Value {
    let (a, b) = match (lhs, rhs) {
        (Value::Ptr(a, _), Value::Ptr(b, _)) => (a as i64, b as i64),
        (Value::Ptr(a, _), Value::I(b)) => (a as i64, b),
        (Value::I(a), Value::Ptr(b, _)) => (a, b as i64),
        _ => (lhs.as_i(), rhs.as_i()),
    };
    let r = match pred {
        ICmp::Eq => a == b,
        ICmp::Ne => a != b,
        ICmp::Slt => a < b,
        ICmp::Sle => a <= b,
        ICmp::Sgt => a > b,
        ICmp::Sge => a >= b,
        ICmp::Ult => (a as u64) < (b as u64),
        ICmp::Ule => (a as u64) <= (b as u64),
        ICmp::Ugt => (a as u64) > (b as u64),
        ICmp::Uge => (a as u64) >= (b as u64),
    };
    Value::I(r as i64)
}

/// Evaluate a floating comparison with ordered semantics.
#[inline(always)]
pub fn eval_fcmp(pred: FCmp, lhs: Value, rhs: Value) -> Value {
    let (a, b) = (lhs.as_f(), rhs.as_f());
    let r = match pred {
        FCmp::Oeq => a == b,
        FCmp::One => a != b && !a.is_nan() && !b.is_nan(),
        FCmp::Olt => a < b,
        FCmp::Ole => a <= b,
        FCmp::Ogt => a > b,
        FCmp::Oge => a >= b,
    };
    Value::I(r as i64)
}

/// Evaluate a cast from a value of type `from` to type `to`.
#[inline(always)]
pub fn eval_cast(op: CastOp, v: Value, from: Type, to: Type) -> Value {
    match op {
        CastOp::Zext => {
            // Values are stored sign-extended, so mask to the *source* width
            // first to get the unsigned reading, then wrap to the target.
            let raw = v.as_i();
            let width = (from.size() * 8) as u32;
            let masked = if width >= 64 { raw } else { raw & ((1i64 << width) - 1) };
            Value::I(wrap_int(masked, to))
        }
        CastOp::Sext => Value::I(wrap_int(v.as_i(), to)),
        CastOp::Trunc => Value::I(wrap_int(v.as_i(), to)),
        CastOp::FpToSi => {
            let f = v.as_f();
            let clamped = if f.is_nan() { 0.0 } else { f };
            Value::I(wrap_int(clamped as i64, to))
        }
        CastOp::SiToFp => Value::F(round_float(v.as_i() as f64, to)),
        CastOp::FpCast => Value::F(round_float(v.as_f(), to)),
        CastOp::PtrToInt => {
            let (a, _) = v.as_ptr();
            Value::I(wrap_int(a as i64, to))
        }
        CastOp::IntToPtr => {
            let sp = to.addr_space().expect("inttoptr target must be a pointer");
            Value::Ptr(v.as_i() as u64, sp)
        }
        CastOp::PtrCast => {
            let (a, _) = v.as_ptr();
            let sp = to.addr_space().expect("ptrcast target must be a pointer");
            Value::Ptr(a, sp)
        }
    }
}

// ---- math intrinsics ----
//
// The one definition of what the math intrinsics compute, called by both
// simulators and by the native backend's helpers. Operands arrive as the
// backends hold them (floats as f64, integers as i64); a float result is
// computed in f64 and rounded through f32, the source language's `float`.

/// `sqrtf`.
#[inline]
#[must_use]
pub fn sqrtf(x: f64) -> f64 {
    x.sqrt() as f32 as f64
}

/// `fabsf`.
#[inline]
#[must_use]
pub fn fabsf(x: f64) -> f64 {
    x.abs() as f32 as f64
}

/// `floorf`.
#[inline]
#[must_use]
pub fn floorf(x: f64) -> f64 {
    x.floor() as f32 as f64
}

/// `expf`.
#[inline]
#[must_use]
pub fn expf(x: f64) -> f64 {
    x.exp() as f32 as f64
}

/// `powf`.
#[inline]
#[must_use]
pub fn powf(x: f64, y: f64) -> f64 {
    x.powf(y) as f32 as f64
}

/// `fminf`, with Rust's `f64::min` NaN semantics: a NaN operand yields
/// the other one.
#[inline]
#[must_use]
pub fn fminf(x: f64, y: f64) -> f64 {
    x.min(y) as f32 as f64
}

/// `fmaxf`, NaN semantics as [`fminf`].
#[inline]
#[must_use]
pub fn fmaxf(x: f64, y: f64) -> f64 {
    x.max(y) as f32 as f64
}

/// Signed integer minimum.
#[inline]
#[must_use]
pub fn smin(a: i64, b: i64) -> i64 {
    a.min(b)
}

/// Signed integer maximum.
#[inline]
#[must_use]
pub fn smax(a: i64, b: i64) -> i64 {
    a.max(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_wrapping_at_width() {
        let r = eval_bin(BinOp::Add, Value::I(i32::MAX as i64), Value::I(1), Type::I32).unwrap();
        assert_eq!(r, Value::I(i32::MIN as i64));
        let r = eval_bin(BinOp::Mul, Value::I(200), Value::I(2), Type::I8).unwrap();
        assert_eq!(r, Value::I((400i64 as i8) as i64));
    }

    #[test]
    fn division_traps() {
        assert_eq!(
            eval_bin(BinOp::SDiv, Value::I(1), Value::I(0), Type::I32),
            Err(Trap::DivideByZero)
        );
        assert_eq!(
            eval_bin(BinOp::URem, Value::I(1), Value::I(0), Type::I32),
            Err(Trap::DivideByZero)
        );
        assert_eq!(
            eval_bin(BinOp::SDiv, Value::I(7), Value::I(2), Type::I32).unwrap(),
            Value::I(3)
        );
    }

    #[test]
    fn float_f32_rounding() {
        // 0.1 is not representable; f32 arithmetic must round.
        let r = eval_bin(BinOp::FAdd, Value::F(0.1), Value::F(0.2), Type::F32).unwrap();
        assert_eq!(r.as_f(), (0.1f32 + 0.2f32) as f64);
        let r64 = eval_bin(BinOp::FAdd, Value::F(0.1), Value::F(0.2), Type::F64).unwrap();
        assert_eq!(r64.as_f(), 0.1 + 0.2);
    }

    #[test]
    fn pointer_plus_int() {
        let p = Value::Ptr(0x1000, AddrSpace::Gpu);
        let r = eval_bin(BinOp::Add, p, Value::I(16), Type::Ptr(AddrSpace::Gpu)).unwrap();
        assert_eq!(r, Value::Ptr(0x1010, AddrSpace::Gpu));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_icmp(ICmp::Slt, Value::I(-1), Value::I(0)), Value::I(1));
        assert_eq!(eval_icmp(ICmp::Ult, Value::I(-1), Value::I(0)), Value::I(0));
        assert_eq!(
            eval_icmp(ICmp::Eq, Value::Ptr(4, AddrSpace::Cpu), Value::Ptr(4, AddrSpace::Cpu)),
            Value::I(1)
        );
        // Null check: pointer vs integer 0.
        assert_eq!(eval_icmp(ICmp::Ne, Value::Ptr(0, AddrSpace::Cpu), Value::I(0)), Value::I(0));
        assert_eq!(eval_fcmp(FCmp::Olt, Value::F(1.0), Value::F(2.0)), Value::I(1));
        assert_eq!(eval_fcmp(FCmp::Oeq, Value::F(f64::NAN), Value::F(f64::NAN)), Value::I(0));
        assert_eq!(eval_fcmp(FCmp::One, Value::F(f64::NAN), Value::F(1.0)), Value::I(0));
    }

    #[test]
    fn casts() {
        assert_eq!(
            eval_cast(CastOp::Trunc, Value::I(0x1_0000_0001), Type::I64, Type::I32),
            Value::I(1)
        );
        assert_eq!(eval_cast(CastOp::SiToFp, Value::I(3), Type::I32, Type::F32), Value::F(3.0));
        assert_eq!(eval_cast(CastOp::FpToSi, Value::F(3.9), Type::F32, Type::I32), Value::I(3));
        assert_eq!(eval_cast(CastOp::FpToSi, Value::F(-3.9), Type::F32, Type::I32), Value::I(-3));
        assert_eq!(
            eval_cast(CastOp::FpToSi, Value::F(f64::NAN), Type::F64, Type::I32),
            Value::I(0)
        );
        assert_eq!(
            eval_cast(
                CastOp::PtrToInt,
                Value::Ptr(0x42, AddrSpace::Cpu),
                Type::Ptr(AddrSpace::Cpu),
                Type::I64
            ),
            Value::I(0x42)
        );
        assert_eq!(
            eval_cast(CastOp::IntToPtr, Value::I(0x42), Type::I64, Type::Ptr(AddrSpace::Gpu)),
            Value::Ptr(0x42, AddrSpace::Gpu)
        );
    }

    #[test]
    fn zext_masks_source_width() {
        // -1 as i32 (stored sign-extended) zero-extends to 0xFFFF_FFFF.
        assert_eq!(
            eval_cast(CastOp::Zext, Value::I(-1), Type::I32, Type::I64),
            Value::I(0xFFFF_FFFF)
        );
        assert_eq!(eval_cast(CastOp::Zext, Value::I(-1), Type::I8, Type::I32), Value::I(255));
        assert_eq!(eval_cast(CastOp::Zext, Value::I(1), Type::I1, Type::I32), Value::I(1));
    }

    #[test]
    fn shifts_respect_width() {
        // lshr on i32 must not bring in high garbage from the i64 storage.
        let r = eval_bin(BinOp::LShr, Value::I(-1), Value::I(1), Type::I32).unwrap();
        assert_eq!(r, Value::I(wrap_int(0x7fff_ffff, Type::I32)));
    }

    #[test]
    #[should_panic(expected = "expected integer")]
    fn type_confusion_panics() {
        let _ = Value::F(1.0).as_i();
    }
}
