//! Binary serialization of lowered programs for the on-disk artifact cache.
//!
//! Builds on the primitive layer in [`concord_ir::codec`]; see that module
//! for the format conventions (little-endian scalars, `u32` length
//! prefixes, one tag byte per enum variant, total decoding). A lowered
//! program persists as its IR module (the one struct layout it carries),
//! its kernel entry points, its restriction warnings and its source
//! statistics. The impls live here because the types do: the orphan rule
//! puts an impl of [`Codec`] beside the type it encodes.

use crate::diag::RestrictionWarning;
use crate::lower::{KernelInfo, LoweredProgram, SourceInfo};
use concord_ir::codec::{ByteReader, ByteWriter, Codec, DecodeError};
use concord_ir::{FuncId, Module};

impl Codec for KernelInfo {
    fn encode(&self, w: &mut ByteWriter) {
        self.class_name.encode(w);
        self.operator_fn.encode(w);
        self.join_fn.encode(w);
        w.u64(self.body_size);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(KernelInfo {
            class_name: String::decode(r)?,
            operator_fn: FuncId::decode(r)?,
            join_fn: Option::decode(r)?,
            body_size: r.u64()?,
        })
    }
}

impl Codec for SourceInfo {
    fn encode(&self, w: &mut ByteWriter) {
        w.u32(self.total_lines);
        w.u32(self.device_lines);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(SourceInfo { total_lines: r.u32()?, device_lines: r.u32()? })
    }
}

impl Codec for RestrictionWarning {
    fn encode(&self, w: &mut ByteWriter) {
        self.function.encode(w);
        self.message.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(RestrictionWarning { function: String::decode(r)?, message: String::decode(r)? })
    }
}

impl Codec for LoweredProgram {
    fn encode(&self, w: &mut ByteWriter) {
        self.module.encode(w);
        self.kernels.encode(w);
        self.warnings.encode(w);
        self.source_info.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(LoweredProgram {
            module: Module::decode(r)?,
            kernels: Vec::decode(r)?,
            warnings: Vec::decode(r)?,
            source_info: SourceInfo::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_ir::codec::{decode_exact, encode_to_vec};

    const SOURCE: &str = r#"
        class Body {
        public:
            float* out;
            int n;
            virtual float scale(float v) { return v * 2.0f; }
            void operator()(int i) {
                out[i] = scale(out[i]) + 1.0f;
            }
        };
    "#;

    #[test]
    fn lowered_program_roundtrip_preserves_everything_observable() {
        let prog = crate::compile(SOURCE).expect("compiles");
        let bytes = encode_to_vec(&prog);
        let back: LoweredProgram = decode_exact(&bytes).expect("decodes");

        // The IR module, the one struct layout the artifact carries, is
        // structurally identical.
        assert_eq!(back.module.structs, prog.module.structs);
        assert_eq!(back.module.classes.len(), prog.module.classes.len());
        for (a, b) in prog.module.classes.iter().zip(back.module.classes.iter()) {
            assert_eq!(
                (&a.name, a.layout, &a.bases, &a.vtable),
                (&b.name, b.layout, &b.bases, &b.vtable)
            );
        }
        assert_eq!(back.module.functions.len(), prog.module.functions.len());
        for (a, b) in prog.module.functions.iter().zip(back.module.functions.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.insts, b.insts);
            assert_eq!(a.blocks, b.blocks);
            assert_eq!(a.kernel, b.kernel);
        }

        // Kernel metadata survives.
        assert_eq!(back.kernels.len(), prog.kernels.len());
        assert_eq!(back.kernels[0].class_name, prog.kernels[0].class_name);
        assert_eq!(back.kernels[0].operator_fn, prog.kernels[0].operator_fn);
        assert_eq!(back.kernels[0].join_fn, prog.kernels[0].join_fn);
        assert_eq!(back.kernels[0].body_size, prog.kernels[0].body_size);
        assert_eq!(back.source_info.total_lines, prog.source_info.total_lines);
        assert_eq!(back.source_info.device_lines, prog.source_info.device_lines);
        assert_eq!(back.warnings.len(), prog.warnings.len());
    }

    #[test]
    fn truncated_program_fails_to_decode() {
        let prog = crate::compile(SOURCE).expect("compiles");
        let bytes = encode_to_vec(&prog);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_exact::<LoweredProgram>(&bytes[..cut]).is_err());
        }
    }
}
