//! Compact binary serialization for IR values.
//!
//! The serving layer spills compiled artifacts to disk so that restarted or
//! sibling processes reuse compiles instead of re-running the frontend and
//! the GPU lowering pipeline. There is no external serialization dependency
//! in this workspace, so artifacts are written with this hand-rolled codec:
//! little-endian fixed-width scalars, `u32` length-prefixed strings and
//! sequences, and one `u8` tag per enum variant.
//!
//! The format is *not* self-describing — readers and writers must agree on
//! the layout — so on-disk consumers (the runtime's artifact store) prefix
//! payloads with a format-version word and refuse mismatches. Decoding is
//! total: any truncated, oversized, or out-of-range input yields a
//! [`DecodeError`] rather than a panic or an unbounded allocation, which is
//! what lets the disk cache treat corrupt entries as evictable instead of
//! fatal.
//!
//! Composite values implement [`Codec`]; container impls (`Vec`, `Option`,
//! tuples) compose so downstream crates (frontend, compiler) can encode
//! their own wrappers with the same primitives.

use crate::function::{Block, ClassInfo, Function, Inst, KernelKind, Module};
use crate::inst::{BinOp, BlockId, CastOp, FCmp, FuncId, ICmp, Intrinsic, Op, ValueId};
use crate::types::{AddrSpace, ClassId, Field, StructDef, StructId, Type};
use std::fmt;

/// FNV-1a 64-bit hash over raw bytes. Used by the on-disk artifact store to
/// checksum entries and by the compile cache to key source text; kept here
/// so every crate in the persistence path agrees on one implementation.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Decoding failure: what was being read and where the input went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset in the input at which the failure was detected.
    pub offset: usize,
    /// Human-readable description (expected item, bad tag value, …).
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Append-only byte buffer with fixed-layout write helpers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Write an `f64` as its IEEE-754 bit pattern (NaN payloads survive).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a `u32` length prefix followed by UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with no length prefix (caller frames them).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over encoded bytes with bounds-checked read helpers.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed all input.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Build a [`DecodeError`] at the current offset.
    pub fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError { offset: self.pos, message: message.into() }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "unexpected end of input reading {what} ({n} bytes needed, {} left)",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool; any byte other than 0/1 is an error.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Read a length prefix, bounding it by the bytes actually remaining so
    /// corrupt input can never trigger an oversized allocation.
    // Not a container length: this *consumes* a length prefix from the
    // stream, so the container-style `is_empty` pairing doesn't apply.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self
                .err(format!("length {n} exceeds remaining input ({} bytes)", self.remaining())));
        }
        Ok(n)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len()?;
        let bytes = self.take(n, "string body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("string is not valid UTF-8"))
    }
}

/// Fixed-layout binary encoding. `decode` must accept exactly what `encode`
/// produced and reject everything else with a [`DecodeError`].
pub trait Codec: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut ByteWriter);
    /// Read one value from `r`, advancing the cursor past it.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError>;
}

/// Encode a value into a fresh byte vector.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decode a value that must consume the entire input.
pub fn decode_exact<T: Codec>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_done() {
        return Err(r.err(format!("{} trailing bytes after value", r.remaining())));
    }
    Ok(v)
}

impl Codec for u32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.u32(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.u32()
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut ByteWriter) {
        w.bool(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.bool()
    }
}

impl Codec for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.str(self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.str()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(r.err(format!("invalid Option tag {t}"))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.u32(self.len() as u32);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let n = r.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

macro_rules! id_codec {
    ($($name:ident),*) => {$(
        impl Codec for $name {
            fn encode(&self, w: &mut ByteWriter) {
                w.u32(self.0);
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
                Ok($name(r.u32()?))
            }
        }
    )*};
}
id_codec!(ValueId, BlockId, FuncId, StructId, ClassId);

/// One tag byte per unit variant, both directions generated from one table
/// so the mappings cannot drift apart.
macro_rules! tag_codec {
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl Codec for $ty {
            fn encode(&self, w: &mut ByteWriter) {
                w.u8(match self { $($ty::$variant => $tag),* });
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
                match r.u8()? {
                    $($tag => Ok($ty::$variant),)*
                    t => Err(r.err(format!(concat!("invalid ", stringify!($ty), " tag {}"), t))),
                }
            }
        }
    };
}

tag_codec!(AddrSpace { Cpu = 0, Gpu = 1, Private = 2, Local = 3 });
tag_codec!(BinOp {
    Add = 0,
    Sub = 1,
    Mul = 2,
    SDiv = 3,
    UDiv = 4,
    SRem = 5,
    URem = 6,
    FAdd = 7,
    FSub = 8,
    FMul = 9,
    FDiv = 10,
    And = 11,
    Or = 12,
    Xor = 13,
    Shl = 14,
    LShr = 15,
    AShr = 16,
});
tag_codec!(ICmp {
    Eq = 0,
    Ne = 1,
    Slt = 2,
    Sle = 3,
    Sgt = 4,
    Sge = 5,
    Ult = 6,
    Ule = 7,
    Ugt = 8,
    Uge = 9,
});
tag_codec!(FCmp { Oeq = 0, One = 1, Olt = 2, Ole = 3, Ogt = 4, Oge = 5 });
tag_codec!(CastOp {
    Zext = 0,
    Sext = 1,
    Trunc = 2,
    FpToSi = 3,
    SiToFp = 4,
    FpCast = 5,
    PtrToInt = 6,
    IntToPtr = 7,
    PtrCast = 8,
});
tag_codec!(Intrinsic {
    GlobalId = 0,
    GlobalSize = 1,
    LocalId = 2,
    GroupId = 3,
    Barrier = 4,
    AtomicAddI32 = 5,
    AtomicMinI32 = 6,
    AtomicCasI32 = 7,
    Sqrt = 8,
    FAbs = 9,
    Floor = 10,
    FMin = 11,
    FMax = 12,
    Exp = 13,
    Pow = 14,
    SMin = 15,
    SMax = 16,
    DeviceMalloc = 17,
    WlPush = 18,
});
tag_codec!(KernelKind { ForBody = 0, ReduceJoin = 1 });

impl Codec for Type {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Type::Void => w.u8(0),
            Type::I1 => w.u8(1),
            Type::I8 => w.u8(2),
            Type::I16 => w.u8(3),
            Type::I32 => w.u8(4),
            Type::I64 => w.u8(5),
            Type::F32 => w.u8(6),
            Type::F64 => w.u8(7),
            Type::Ptr(sp) => {
                w.u8(8);
                sp.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => Type::Void,
            1 => Type::I1,
            2 => Type::I8,
            3 => Type::I16,
            4 => Type::I32,
            5 => Type::I64,
            6 => Type::F32,
            7 => Type::F64,
            8 => Type::Ptr(AddrSpace::decode(r)?),
            t => return Err(r.err(format!("invalid Type tag {t}"))),
        })
    }
}

impl Codec for Op {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Op::Param(i) => {
                w.u8(0);
                w.u32(*i);
            }
            Op::ConstInt(v) => {
                w.u8(1);
                w.i64(*v);
            }
            Op::ConstFloat(v) => {
                w.u8(2);
                w.f64(*v);
            }
            Op::ConstNull => w.u8(3),
            Op::Bin(op, a, b) => {
                w.u8(4);
                op.encode(w);
                a.encode(w);
                b.encode(w);
            }
            Op::Icmp(p, a, b) => {
                w.u8(5);
                p.encode(w);
                a.encode(w);
                b.encode(w);
            }
            Op::Fcmp(p, a, b) => {
                w.u8(6);
                p.encode(w);
                a.encode(w);
                b.encode(w);
            }
            Op::Cast(op, v) => {
                w.u8(7);
                op.encode(w);
                v.encode(w);
            }
            Op::Select(c, a, b) => {
                w.u8(8);
                c.encode(w);
                a.encode(w);
                b.encode(w);
            }
            Op::Alloca { size, align } => {
                w.u8(9);
                w.u64(*size);
                w.u64(*align);
            }
            Op::Load(v) => {
                w.u8(10);
                v.encode(w);
            }
            Op::Store { ptr, val } => {
                w.u8(11);
                ptr.encode(w);
                val.encode(w);
            }
            Op::Gep { base, offset } => {
                w.u8(12);
                base.encode(w);
                offset.encode(w);
            }
            Op::CpuToGpu(v) => {
                w.u8(13);
                v.encode(w);
            }
            Op::GpuToCpu(v) => {
                w.u8(14);
                v.encode(w);
            }
            Op::Phi(incoming) => {
                w.u8(15);
                incoming.encode(w);
            }
            Op::Call { callee, args } => {
                w.u8(16);
                callee.encode(w);
                args.encode(w);
            }
            Op::CallVirtual { static_class, slot, obj, args } => {
                w.u8(17);
                static_class.encode(w);
                w.u32(*slot);
                obj.encode(w);
                args.encode(w);
            }
            Op::IntrinsicCall(i, args) => {
                w.u8(18);
                i.encode(w);
                args.encode(w);
            }
            Op::Br(b) => {
                w.u8(19);
                b.encode(w);
            }
            Op::CondBr(c, t, e) => {
                w.u8(20);
                c.encode(w);
                t.encode(w);
                e.encode(w);
            }
            Op::Ret(v) => {
                w.u8(21);
                v.encode(w);
            }
            Op::Unreachable => w.u8(22),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => Op::Param(r.u32()?),
            1 => Op::ConstInt(r.i64()?),
            2 => Op::ConstFloat(r.f64()?),
            3 => Op::ConstNull,
            4 => Op::Bin(BinOp::decode(r)?, ValueId::decode(r)?, ValueId::decode(r)?),
            5 => Op::Icmp(ICmp::decode(r)?, ValueId::decode(r)?, ValueId::decode(r)?),
            6 => Op::Fcmp(FCmp::decode(r)?, ValueId::decode(r)?, ValueId::decode(r)?),
            7 => Op::Cast(CastOp::decode(r)?, ValueId::decode(r)?),
            8 => Op::Select(ValueId::decode(r)?, ValueId::decode(r)?, ValueId::decode(r)?),
            9 => Op::Alloca { size: r.u64()?, align: r.u64()? },
            10 => Op::Load(ValueId::decode(r)?),
            11 => Op::Store { ptr: ValueId::decode(r)?, val: ValueId::decode(r)? },
            12 => Op::Gep { base: ValueId::decode(r)?, offset: ValueId::decode(r)? },
            13 => Op::CpuToGpu(ValueId::decode(r)?),
            14 => Op::GpuToCpu(ValueId::decode(r)?),
            15 => Op::Phi(Vec::decode(r)?),
            16 => Op::Call { callee: FuncId::decode(r)?, args: Vec::decode(r)? },
            17 => Op::CallVirtual {
                static_class: ClassId::decode(r)?,
                slot: r.u32()?,
                obj: ValueId::decode(r)?,
                args: Vec::decode(r)?,
            },
            18 => Op::IntrinsicCall(Intrinsic::decode(r)?, Vec::decode(r)?),
            19 => Op::Br(BlockId::decode(r)?),
            20 => Op::CondBr(ValueId::decode(r)?, BlockId::decode(r)?, BlockId::decode(r)?),
            21 => Op::Ret(Option::decode(r)?),
            22 => Op::Unreachable,
            t => return Err(r.err(format!("invalid Op tag {t}"))),
        })
    }
}

impl Codec for Inst {
    fn encode(&self, w: &mut ByteWriter) {
        self.op.encode(w);
        self.ty.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Inst { op: Op::decode(r)?, ty: Type::decode(r)? })
    }
}

impl Codec for Block {
    fn encode(&self, w: &mut ByteWriter) {
        self.insts.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Block { insts: Vec::decode(r)? })
    }
}

impl Codec for Function {
    fn encode(&self, w: &mut ByteWriter) {
        self.name.encode(w);
        self.params.encode(w);
        self.ret.encode(w);
        self.insts.encode(w);
        self.blocks.encode(w);
        self.kernel.encode(w);
        self.owner_class.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Function {
            name: String::decode(r)?,
            params: Vec::decode(r)?,
            ret: Type::decode(r)?,
            insts: Vec::decode(r)?,
            blocks: Vec::decode(r)?,
            kernel: Option::decode(r)?,
            owner_class: Option::decode(r)?,
        })
    }
}

impl Codec for Field {
    fn encode(&self, w: &mut ByteWriter) {
        self.name.encode(w);
        self.ty.encode(w);
        w.u64(self.count);
        w.u64(self.offset);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Field {
            name: String::decode(r)?,
            ty: Type::decode(r)?,
            count: r.u64()?,
            offset: r.u64()?,
        })
    }
}

impl Codec for StructDef {
    fn encode(&self, w: &mut ByteWriter) {
        self.name.encode(w);
        self.fields.encode(w);
        w.u64(self.size);
        w.u64(self.align);
        self.class_id.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(StructDef {
            name: String::decode(r)?,
            fields: Vec::decode(r)?,
            size: r.u64()?,
            align: r.u64()?,
            class_id: Option::decode(r)?,
        })
    }
}

impl Codec for ClassInfo {
    fn encode(&self, w: &mut ByteWriter) {
        self.name.encode(w);
        self.layout.encode(w);
        self.bases.encode(w);
        self.vtable.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(ClassInfo {
            name: String::decode(r)?,
            layout: StructId::decode(r)?,
            bases: Vec::decode(r)?,
            vtable: Vec::decode(r)?,
        })
    }
}

impl Codec for Module {
    fn encode(&self, w: &mut ByteWriter) {
        self.structs.encode(w);
        self.classes.encode(w);
        self.functions.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Module {
            structs: Vec::decode(r)?,
            classes: Vec::decode(r)?,
            functions: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn sample_module() -> Module {
        let mut m = Module::new();
        let layout = m.add_struct(StructDef {
            name: "Node".into(),
            fields: vec![
                Field { name: "next".into(), ty: Type::Ptr(AddrSpace::Cpu), count: 1, offset: 0 },
                Field { name: "vals".into(), ty: Type::F32, count: 4, offset: 8 },
            ],
            size: 24,
            align: 8,
            class_id: Some(ClassId(0)),
        });
        m.add_class(ClassInfo {
            name: "Node".into(),
            layout,
            bases: vec![],
            vtable: vec![FuncId(0)],
        });
        let mut b = FunctionBuilder::new("body", vec![Type::Ptr(AddrSpace::Cpu)], Type::Void);
        let p = b.param(0);
        let gid = b.intrinsic(Intrinsic::GlobalId, vec![], Type::I32);
        let off = b.cast(CastOp::Sext, gid, Type::I64);
        let slot = b.gep(p, off);
        let v = b.load(slot, Type::F32);
        let two = b.f32(2.0);
        let dbl = b.bin(BinOp::FMul, v, two);
        b.store(slot, dbl);
        b.ret(None);
        let mut f = b.build();
        f.kernel = Some(KernelKind::ForBody);
        f.owner_class = Some(ClassId(0));
        m.add_function(f);
        m
    }

    #[test]
    fn module_roundtrip_is_identical() {
        let m = sample_module();
        let bytes = encode_to_vec(&m);
        let back: Module = decode_exact(&bytes).expect("roundtrip decodes");
        assert_eq!(back.structs, m.structs);
        assert_eq!(back.functions.len(), m.functions.len());
        for (a, b) in m.functions.iter().zip(back.functions.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.params, b.params);
            assert_eq!(a.ret, b.ret);
            assert_eq!(a.insts, b.insts);
            assert_eq!(a.blocks, b.blocks);
            assert_eq!(a.kernel, b.kernel);
            assert_eq!(a.owner_class, b.owner_class);
        }
        assert_eq!(back.classes.len(), m.classes.len());
        assert_eq!(back.classes[0].vtable, m.classes[0].vtable);
    }

    #[test]
    fn all_op_variants_roundtrip() {
        let v = ValueId(7);
        let ops = vec![
            Op::Param(3),
            Op::ConstInt(-42),
            Op::ConstFloat(2.5),
            Op::ConstNull,
            Op::Bin(BinOp::AShr, v, ValueId(8)),
            Op::Icmp(ICmp::Uge, v, v),
            Op::Fcmp(FCmp::Oge, v, v),
            Op::Cast(CastOp::PtrCast, v),
            Op::Select(v, ValueId(1), ValueId(2)),
            Op::Alloca { size: 64, align: 16 },
            Op::Load(v),
            Op::Store { ptr: v, val: ValueId(9) },
            Op::Gep { base: v, offset: ValueId(2) },
            Op::CpuToGpu(v),
            Op::GpuToCpu(v),
            Op::Phi(vec![(BlockId(1), ValueId(4)), (BlockId(2), ValueId(5))]),
            Op::Call { callee: FuncId(6), args: vec![v, ValueId(1)] },
            Op::CallVirtual { static_class: ClassId(2), slot: 1, obj: v, args: vec![ValueId(3)] },
            Op::IntrinsicCall(Intrinsic::DeviceMalloc, vec![v]),
            Op::Br(BlockId(4)),
            Op::CondBr(v, BlockId(1), BlockId(2)),
            Op::Ret(Some(v)),
            Op::Ret(None),
            Op::Unreachable,
        ];
        for op in ops {
            let bytes = encode_to_vec(&op);
            let back: Op = decode_exact(&bytes).expect("op decodes");
            assert_eq!(back, op);
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let m = sample_module();
        let bytes = encode_to_vec(&m);
        for cut in 0..bytes.len() {
            let err = decode_exact::<Module>(&bytes[..cut]);
            assert!(err.is_err(), "truncation at {cut} must fail to decode");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX); // a Vec claiming four billion elements
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = r.len().unwrap_err();
        assert!(err.message.contains("exceeds remaining input"), "{err}");
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(decode_exact::<Type>(&[99]).is_err());
        assert!(decode_exact::<Op>(&[0xff]).is_err());
        assert!(decode_exact::<Option<u32>>(&[2]).is_err());
        assert!(decode_exact::<bool>(&[7]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&Op::ConstNull);
        bytes.push(0);
        assert!(decode_exact::<Op>(&bytes).is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn nan_float_constants_survive() {
        let op = Op::ConstFloat(f64::NAN);
        let bytes = encode_to_vec(&op);
        let back: Op = decode_exact(&bytes).unwrap();
        match back {
            Op::ConstFloat(v) => assert!(v.is_nan()),
            other => panic!("expected ConstFloat, got {other:?}"),
        }
    }
}
