//! Semantic types and struct/class layout computation.
//!
//! Layout rules follow the common vtable ABI the paper assumes (§3.2):
//!
//! * A polymorphic class (one that declares or inherits virtual methods) has
//!   a vtable pointer at offset 0.
//! * Single inheritance places the base sub-object at offset 0, so upcasts
//!   on the primary chain are free.
//! * Multiple inheritance flattens additional bases at increasing offsets;
//!   only the *first* base may be polymorphic (the primary base), which is
//!   sufficient for the paper's workloads and keeps vtable slots consistent
//!   along the primary chain.

use crate::ast::{StructDecl, TypeExpr};
use crate::diag::{CompileError, Span};
use concord_ir::types::{AddrSpace, Field, StructDef, Type as IrType};
use concord_ir::{ClassId, FuncId, StructId};
use std::collections::HashMap;

/// A resolved semantic type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum STy {
    /// `void`.
    Void,
    /// `bool`.
    Bool,
    /// `int`.
    Int,
    /// `uint`.
    UInt,
    /// `long`.
    Long,
    /// `float`.
    Float,
    /// `double`.
    Double,
    /// A struct/class value.
    Struct(usize),
    /// Pointer.
    Ptr(Box<STy>),
}

impl STy {
    /// The IR type a scalar of this semantic type lowers to.
    ///
    /// # Panics
    ///
    /// Panics for struct values (aggregates have no scalar IR type) —
    /// callers must special-case aggregates.
    pub fn ir(&self) -> IrType {
        match self {
            STy::Void => IrType::Void,
            STy::Bool => IrType::I1,
            STy::Int | STy::UInt => IrType::I32,
            STy::Long => IrType::I64,
            STy::Float => IrType::F32,
            STy::Double => IrType::F64,
            STy::Ptr(_) => IrType::Ptr(AddrSpace::Cpu),
            STy::Struct(_) => panic!("struct value has no scalar IR type"),
        }
    }

    /// Whether this is any numeric type.
    pub fn is_numeric(&self) -> bool {
        matches!(self, STy::Bool | STy::Int | STy::UInt | STy::Long | STy::Float | STy::Double)
    }

    /// Whether this is an integer type.
    pub fn is_integer(&self) -> bool {
        matches!(self, STy::Bool | STy::Int | STy::UInt | STy::Long)
    }

    /// Whether this is a floating type.
    pub fn is_floating(&self) -> bool {
        matches!(self, STy::Float | STy::Double)
    }

    /// Whether this is unsigned.
    pub fn is_unsigned(&self) -> bool {
        matches!(self, STy::UInt)
    }

    /// Struct index if this is a struct value or pointer-to-struct.
    pub fn struct_index(&self) -> Option<usize> {
        match self {
            STy::Struct(i) => Some(*i),
            STy::Ptr(inner) => match **inner {
                STy::Struct(i) => Some(i),
                _ => None,
            },
            _ => None,
        }
    }
}

/// A method signature bound into a struct.
#[derive(Debug, Clone)]
pub struct MethodSig {
    /// Unqualified method name (`operator()`, `join`, ...).
    pub name: String,
    /// IR function implementing it.
    pub func: FuncId,
    /// Parameter semantic types (excluding `this` and sret).
    pub params: Vec<STy>,
    /// Return semantic type.
    pub ret: STy,
    /// Declared or inherited-virtual.
    pub is_virtual: bool,
    /// Vtable slot, for virtual methods.
    pub slot: Option<u32>,
    /// Struct index that *defines* this implementation.
    pub owner: usize,
    /// Byte offset to adjust `this` when calling through a derived pointer
    /// (non-zero only for methods of non-primary bases).
    pub this_offset: u64,
}

/// A field as the type checker sees it (semantic type preserved).
#[derive(Debug, Clone)]
pub struct SemaField {
    /// Field name.
    pub name: String,
    /// Semantic type (struct-typed for inline aggregates).
    pub ty: STy,
    /// Element count (>1 for inline arrays).
    pub count: u64,
    /// Byte offset within the struct.
    pub offset: u64,
}

/// Semantic information about one struct/class.
#[derive(Debug, Clone)]
pub struct StructInfo {
    /// Source name.
    pub name: String,
    /// Layout id in the IR module.
    pub sid: StructId,
    /// Size in bytes.
    pub size: u64,
    /// All direct bases as `(struct index, byte offset)`.
    pub bases: Vec<(usize, u64)>,
    /// Fields with semantic types (own + flattened base fields).
    pub sema_fields: Vec<SemaField>,
    /// Methods callable on this struct (own + inherited, own first).
    pub methods: Vec<MethodSig>,
    /// Class id if polymorphic.
    pub class_id: Option<ClassId>,
    /// Vtable: slot → (method name, implementing function).
    pub vtable: Vec<(String, FuncId)>,
}

impl StructInfo {
    /// Find methods by name (own definitions shadow inherited ones).
    pub fn methods_named(&self, name: &str) -> Vec<&MethodSig> {
        self.methods.iter().filter(|m| m.name == name).collect()
    }

    /// Find a field by name.
    pub fn field(&self, name: &str) -> Option<&SemaField> {
        self.sema_fields.iter().find(|f| f.name == name)
    }
}

/// The resolved type environment of a translation unit.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    /// Struct infos, parallel to the IR module's struct table.
    pub structs: Vec<StructInfo>,
    by_name: HashMap<String, usize>,
}

impl TypeEnv {
    /// Create an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a struct by name.
    pub fn lookup(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// The info for struct index `i`.
    pub fn info(&self, i: usize) -> &StructInfo {
        &self.structs[i]
    }

    /// Mutable info for struct index `i`.
    pub fn info_mut(&mut self, i: usize) -> &mut StructInfo {
        &mut self.structs[i]
    }

    /// Resolve a source type expression.
    ///
    /// # Errors
    ///
    /// Unknown type names.
    pub fn resolve(&self, t: &TypeExpr, span: Span) -> Result<STy, CompileError> {
        Ok(match t {
            TypeExpr::Void => STy::Void,
            TypeExpr::Bool => STy::Bool,
            TypeExpr::Int => STy::Int,
            TypeExpr::UInt => STy::UInt,
            TypeExpr::Long => STy::Long,
            TypeExpr::Float => STy::Float,
            TypeExpr::Double => STy::Double,
            TypeExpr::Named(n) => {
                let idx = self
                    .lookup(n)
                    .ok_or_else(|| CompileError::new(span, format!("unknown type `{n}`")))?;
                STy::Struct(idx)
            }
            TypeExpr::Ptr(inner) => STy::Ptr(Box::new(self.resolve(inner, span)?)),
        })
    }

    /// Size in bytes of a semantic type.
    pub fn size_of(&self, t: &STy) -> u64 {
        match t {
            STy::Void => 0,
            STy::Struct(i) => self.structs[*i].size,
            other => other.ir().size(),
        }
    }

    /// Alignment in bytes of a semantic type.
    pub fn align_of(&self, t: &STy) -> u64 {
        match t {
            STy::Void => 1,
            STy::Struct(i) => 8.min(self.structs[*i].size.max(1)),
            other => other.ir().align(),
        }
    }

    /// Pre-declare a struct name so pointer fields can reference it (and
    /// itself) before its layout is computed. Returns the struct index.
    pub fn declare_struct(&mut self, name: &str, module: &mut concord_ir::Module) -> usize {
        let sid = module.add_struct(StructDef {
            name: name.to_string(),
            fields: Vec::new(),
            size: 0,
            align: 8,
            class_id: None,
        });
        let idx = self.structs.len();
        self.structs.push(StructInfo {
            name: name.to_string(),
            sid,
            size: 0,
            bases: Vec::new(),
            sema_fields: Vec::new(),
            methods: Vec::new(),
            class_id: None,
            vtable: Vec::new(),
        });
        self.by_name.insert(name.to_string(), idx);
        idx
    }

    /// Compute a pre-declared struct's layout, flattening bases and
    /// reserving a vptr slot when the class is polymorphic. Methods are
    /// attached later.
    ///
    /// # Errors
    ///
    /// Unknown base names, non-primary polymorphic bases, unknown field
    /// types, incomplete inline member types.
    pub fn fill_struct(
        &mut self,
        idx: usize,
        decl: &StructDecl,
        module: &mut concord_ir::Module,
        will_be_polymorphic: bool,
    ) -> Result<(), CompileError> {
        let mut fields: Vec<Field> = Vec::new();
        let mut sema_fields: Vec<SemaField> = Vec::new();
        let mut bases: Vec<(usize, u64)> = Vec::new();
        let mut offset: u64 = 0;
        // Primary-chain vptr: present if this class or its primary base is
        // polymorphic.
        let mut has_vptr = false;
        for (i, base_name) in decl.bases.iter().enumerate() {
            let bidx = self.lookup(base_name).ok_or_else(|| {
                CompileError::new(decl.span, format!("unknown base class `{base_name}`"))
            })?;
            let binfo = &self.structs[bidx];
            if binfo.size == 0 {
                return Err(CompileError::new(
                    decl.span,
                    format!("base class `{base_name}` is incomplete (declare it first)"),
                ));
            }
            let base_is_poly = binfo.field("__vptr").is_some_and(|f| f.offset == 0);
            if i > 0 && base_is_poly {
                return Err(CompileError::new(
                    decl.span,
                    format!(
                        "non-primary polymorphic base `{base_name}`: only the first base class may have virtual methods"
                    ),
                ));
            }
            let base_off = align_to(offset, 8);
            bases.push((bidx, base_off));
            if i == 0 && base_is_poly {
                has_vptr = true;
            }
            // Flatten base fields at adjusted offsets.
            let bdef = module.struct_def(binfo.sid).clone();
            for f in &bdef.fields {
                fields.push(Field {
                    name: f.name.clone(),
                    ty: f.ty,
                    count: f.count,
                    offset: base_off + f.offset,
                });
            }
            for f in binfo.sema_fields.clone() {
                sema_fields.push(SemaField { offset: base_off + f.offset, ..f });
            }
            offset = base_off + binfo.size;
        }
        if will_be_polymorphic && !has_vptr {
            // New polymorphic root: vptr at offset 0, everything shifts.
            assert!(offset == 0 || bases.is_empty(), "polymorphic root with bases handled above");
            if offset == 0 && bases.is_empty() {
                fields.push(Field {
                    name: "__vptr".into(),
                    ty: IrType::Ptr(AddrSpace::Cpu),
                    count: 1,
                    offset: 0,
                });
                sema_fields.push(SemaField {
                    name: "__vptr".into(),
                    ty: STy::Ptr(Box::new(STy::Void)),
                    count: 1,
                    offset: 0,
                });
                offset = 8;
                has_vptr = true;
            } else {
                return Err(CompileError::new(
                    decl.span,
                    "a class introducing virtual methods must either have no bases or a polymorphic primary base",
                ));
            }
        }
        for f in &decl.fields {
            let sty = self.resolve(&f.ty, f.span)?;
            let count = f.array_len.unwrap_or(1);
            match sty {
                STy::Struct(inner) => {
                    // Inline struct member: flatten its fields.
                    let iinfo = &self.structs[inner];
                    if iinfo.size == 0 {
                        return Err(CompileError::new(
                            f.span,
                            format!("inline member of incomplete type `{}`", iinfo.name),
                        ));
                    }
                    if iinfo.class_id.is_some() {
                        return Err(CompileError::new(
                            f.span,
                            "polymorphic classes cannot be inline members; use a pointer",
                        ));
                    }
                    let isize = iinfo.size;
                    let idef = module.struct_def(iinfo.sid).clone();
                    offset = align_to(offset, 8);
                    for rep in 0..count {
                        for inner_f in &idef.fields {
                            fields.push(Field {
                                name: format!(
                                    "{}{}.{}",
                                    f.name,
                                    if count > 1 { format!("[{rep}]") } else { String::new() },
                                    inner_f.name
                                ),
                                ty: inner_f.ty,
                                count: inner_f.count,
                                offset: offset + rep * isize + inner_f.offset,
                            });
                        }
                    }
                    sema_fields.push(SemaField {
                        name: f.name.clone(),
                        ty: STy::Struct(inner),
                        count,
                        offset,
                    });
                    offset += isize * count;
                }
                STy::Void => {
                    return Err(CompileError::new(f.span, "field of type void"));
                }
                ref scalar => {
                    let ir = scalar.ir();
                    offset = align_to(offset, ir.align());
                    fields.push(Field { name: f.name.clone(), ty: ir, count, offset });
                    sema_fields.push(SemaField {
                        name: f.name.clone(),
                        ty: scalar.clone(),
                        count,
                        offset,
                    });
                    offset += ir.size() * count;
                }
            }
        }
        let size = align_to(offset.max(1), 8);
        let sid = self.structs[idx].sid;
        module.structs[sid.0 as usize] = StructDef {
            name: decl.name.clone(),
            fields,
            size,
            align: 8,
            class_id: None, // patched when the class id is assigned
        };
        let info = &mut self.structs[idx];
        info.size = size;
        info.bases = bases;
        info.sema_fields = sema_fields;
        let _ = has_vptr;
        Ok(())
    }

    /// Byte offset of (possibly transitive) base `target` within `derived`,
    /// if `derived` derives from it.
    pub fn base_offset(&self, derived: usize, target: usize) -> Option<u64> {
        if derived == target {
            return Some(0);
        }
        for &(b, off) in &self.structs[derived].bases {
            if let Some(inner) = self.base_offset(b, target) {
                return Some(off + inner);
            }
        }
        None
    }
}

/// Round `v` up to a multiple of `align`.
pub fn align_to(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Declare and fill one struct, as `lower` does in two passes.
    fn register(
        env: &mut TypeEnv,
        decl: &StructDecl,
        module: &mut concord_ir::Module,
        poly: bool,
    ) -> Result<usize, CompileError> {
        let idx = env.declare_struct(&decl.name, module);
        env.fill_struct(idx, decl, module, poly)?;
        Ok(idx)
    }

    fn env_for(src: &str) -> (TypeEnv, concord_ir::Module) {
        let prog = parse(src).unwrap();
        let mut env = TypeEnv::new();
        let mut module = concord_ir::Module::new();
        for s in prog.structs() {
            let poly = s.methods.iter().any(|m| m.is_virtual);
            register(&mut env, s, &mut module, poly).unwrap();
        }
        (env, module)
    }

    #[test]
    fn simple_layout() {
        let (env, m) = env_for("struct Node { Node* next; float x; int k; };");
        let i = env.lookup("Node").unwrap();
        let def = m.struct_def(env.info(i).sid);
        assert_eq!(def.field("next").unwrap().offset, 0);
        assert_eq!(def.field("x").unwrap().offset, 8);
        assert_eq!(def.field("k").unwrap().offset, 12);
        assert_eq!(def.size, 16);
    }

    #[test]
    fn array_fields() {
        let (env, m) = env_for("struct S { float w[4]; int n; };");
        let def = m.struct_def(env.info(0).sid);
        assert_eq!(def.field("w").unwrap().count, 4);
        assert_eq!(def.field("n").unwrap().offset, 16);
        assert_eq!(def.size, 24);
    }

    #[test]
    fn polymorphic_class_gets_vptr() {
        let (env, m) =
            env_for("class Shape { public: float r; virtual float area() { return 0.0f; } };");
        let def = m.struct_def(env.info(0).sid);
        assert_eq!(def.field("__vptr").unwrap().offset, 0);
        assert_eq!(def.field("r").unwrap().offset, 8);
    }

    #[test]
    fn single_inheritance_offsets() {
        let (env, m) =
            env_for("class A { public: int x; }; class B : public A { public: int y; };");
        let b = env.lookup("B").unwrap();
        let def = m.struct_def(env.info(b).sid);
        assert_eq!(def.field("x").unwrap().offset, 0);
        assert_eq!(def.field("y").unwrap().offset, 8);
        assert_eq!(env.base_offset(b, env.lookup("A").unwrap()), Some(0));
    }

    #[test]
    fn multiple_inheritance_offsets() {
        let (env, m) = env_for(
            "class A { public: int x; }; class B { public: int y; }; class C : public A, public B { public: int z; };",
        );
        let c = env.lookup("C").unwrap();
        let def = m.struct_def(env.info(c).sid);
        assert_eq!(def.field("x").unwrap().offset, 0);
        let a_size = env.info(env.lookup("A").unwrap()).size;
        assert_eq!(def.field("y").unwrap().offset, a_size);
        assert_eq!(env.base_offset(c, env.lookup("B").unwrap()), Some(a_size));
    }

    #[test]
    fn non_primary_polymorphic_base_rejected() {
        let prog = parse(
            "class A { public: int x; }; class P { public: virtual int f() { return 0; } }; class C : public A, public P { public: int z; };",
        )
        .unwrap();
        let mut env = TypeEnv::new();
        let mut module = concord_ir::Module::new();
        let decls: Vec<_> = prog.structs().collect();
        register(&mut env, decls[0], &mut module, false).unwrap();
        register(&mut env, decls[1], &mut module, true).unwrap();
        let err = register(&mut env, decls[2], &mut module, false).unwrap_err();
        assert!(err.message.contains("non-primary polymorphic"));
    }

    #[test]
    fn inline_struct_members_flatten() {
        let (env, m) = env_for("struct V { float x; float y; }; struct P { V pos; int id; };");
        let p = env.lookup("P").unwrap();
        let def = m.struct_def(env.info(p).sid);
        assert_eq!(def.field("pos.x").unwrap().offset, 0);
        assert_eq!(def.field("pos.y").unwrap().offset, 4);
        assert_eq!(def.field("id").unwrap().offset, 8);
        let agg = env.info(p).field("pos").unwrap();
        assert_eq!(agg.ty, STy::Struct(env.lookup("V").unwrap()));
        assert_eq!(agg.offset, 0);
    }

    #[test]
    fn sty_conversions() {
        assert_eq!(STy::Int.ir(), IrType::I32);
        assert_eq!(STy::Ptr(Box::new(STy::Float)).ir(), IrType::Ptr(AddrSpace::Cpu));
        assert!(STy::UInt.is_unsigned());
        assert!(STy::Double.is_floating());
        assert_eq!(STy::Ptr(Box::new(STy::Struct(3))).struct_index(), Some(3));
    }
}
