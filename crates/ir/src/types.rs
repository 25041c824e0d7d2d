//! Type system for the Concord IR.
//!
//! The IR is typed but uses *opaque* pointers qualified by an address space,
//! mirroring the paper's distinction between CPU virtual addresses, GPU
//! virtual addresses (surface-relative), per-thread private memory, and
//! on-chip local memory. Loads and stores carry the accessed value type.

use std::fmt;

/// Address space of a pointer value.
///
/// The software-SVM design of the paper (§3.1) hinges on the fact that the
/// CPU and GPU have *different* virtual address representations for the same
/// physical shared memory. A pointer stored in memory is always in [`Cpu`]
/// representation (the SVM invariant); GPU code must translate it with
/// `CpuToGpu` before dereferencing.
///
/// [`Cpu`]: AddrSpace::Cpu
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddrSpace {
    /// CPU virtual address into the shared region.
    Cpu,
    /// GPU virtual address (binding-table surface offset form).
    Gpu,
    /// Per-work-item private memory (stack-allocated objects).
    Private,
    /// Work-group local memory (used for hierarchical reductions).
    Local,
}

impl fmt::Display for AddrSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddrSpace::Cpu => "cpu",
            AddrSpace::Gpu => "gpu",
            AddrSpace::Private => "private",
            AddrSpace::Local => "local",
        };
        f.write_str(s)
    }
}

/// A first-class IR type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// No value (function return only).
    Void,
    /// Boolean (comparison results).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// Opaque pointer in the given address space.
    Ptr(AddrSpace),
}

impl Type {
    /// Size of a value of this type in bytes when stored in memory.
    ///
    /// Pointers are stored as 8 bytes regardless of address space (the paper
    /// notes the scheme generalizes to mixed widths as long as the shared
    /// region fits; we use a uniform 64-bit representation).
    ///
    /// # Panics
    ///
    /// Panics for [`Type::Void`], which has no storage size.
    #[inline]
    pub fn size(self) -> u64 {
        match self {
            Type::Void => panic!("void has no size"),
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 | Type::F32 => 4,
            Type::I64 | Type::F64 | Type::Ptr(_) => 8,
        }
    }

    /// Natural alignment in bytes.
    pub fn align(self) -> u64 {
        self.size()
    }

    /// Whether this is any integer type (including `i1`).
    pub fn is_int(self) -> bool {
        matches!(self, Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64)
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Whether this is a pointer type in any address space.
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// The address space if this is a pointer type.
    pub fn addr_space(self) -> Option<AddrSpace> {
        match self {
            Type::Ptr(sp) => Some(sp),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => f.write_str("void"),
            Type::I1 => f.write_str("i1"),
            Type::I8 => f.write_str("i8"),
            Type::I16 => f.write_str("i16"),
            Type::I32 => f.write_str("i32"),
            Type::I64 => f.write_str("i64"),
            Type::F32 => f.write_str("f32"),
            Type::F64 => f.write_str("f64"),
            Type::Ptr(sp) => write!(f, "ptr({sp})"),
        }
    }
}

/// A field of a [`StructDef`]: name, type, and byte offset within the struct.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Source-level field name.
    pub name: String,
    /// Field value type. Inline arrays are modeled by `count > 1`.
    pub ty: Type,
    /// Number of consecutive elements (1 for scalars).
    pub count: u64,
    /// Byte offset from the start of the struct.
    pub offset: u64,
}

/// Memory layout of a source-level struct or class.
///
/// Classes with virtual methods have an implicit vtable-pointer field at
/// offset 0, added by the frontend. Multiple inheritance is modeled by
/// flattening base-class fields at their base offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Source-level type name.
    pub name: String,
    /// All fields in offset order (including flattened base-class fields).
    pub fields: Vec<Field>,
    /// Total size in bytes (including padding).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Class id in the module's class hierarchy, if this is a polymorphic
    /// class (has or inherits virtual methods).
    pub class_id: Option<ClassId>,
}

impl StructDef {
    /// Look up a field by name, returning it with its byte offset.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// Index of a struct layout in a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// Index of a polymorphic class in a module's class hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

impl fmt::Display for StructId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%struct.{}", self.0)
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class.{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_alignment() {
        assert_eq!(Type::I1.size(), 1);
        assert_eq!(Type::I8.size(), 1);
        assert_eq!(Type::I16.size(), 2);
        assert_eq!(Type::I32.size(), 4);
        assert_eq!(Type::I64.size(), 8);
        assert_eq!(Type::F32.size(), 4);
        assert_eq!(Type::F64.size(), 8);
        assert_eq!(Type::Ptr(AddrSpace::Cpu).size(), 8);
        assert_eq!(Type::Ptr(AddrSpace::Gpu).align(), 8);
    }

    #[test]
    #[should_panic(expected = "void has no size")]
    fn void_has_no_size() {
        let _ = Type::Void.size();
    }

    #[test]
    fn classification() {
        assert!(Type::I32.is_int());
        assert!(!Type::F32.is_int());
        assert!(Type::F64.is_float());
        assert!(Type::Ptr(AddrSpace::Gpu).is_ptr());
        assert_eq!(Type::Ptr(AddrSpace::Private).addr_space(), Some(AddrSpace::Private));
        assert_eq!(Type::I32.addr_space(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::Ptr(AddrSpace::Cpu).to_string(), "ptr(cpu)");
        assert_eq!(Type::F32.to_string(), "f32");
        assert_eq!(AddrSpace::Local.to_string(), "local");
    }

    #[test]
    fn struct_field_lookup() {
        let def = StructDef {
            name: "Node".into(),
            fields: vec![
                Field { name: "next".into(), ty: Type::Ptr(AddrSpace::Cpu), count: 1, offset: 0 },
                Field { name: "val".into(), ty: Type::F32, count: 1, offset: 8 },
            ],
            size: 16,
            align: 8,
            class_id: None,
        };
        assert_eq!(def.field("val").unwrap().offset, 8);
        assert!(def.field("missing").is_none());
    }
}
