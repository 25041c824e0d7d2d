//! AST → IR lowering with integrated type checking.
//!
//! Locals are lowered as private-memory allocas (the register-promotion
//! pass in `concord-compiler` later rewrites scalar locals into SSA values —
//! the "aggressive register promotion" of §4). All source-level pointers
//! are CPU-space shared pointers, per the SVM model; only allocas are
//! statically private.

use crate::ast::*;
use crate::diag::{CompileError, RestrictionWarning, Span};
use crate::types::{MethodSig, STy, TypeEnv};
use concord_ir::builder::FunctionBuilder;
use concord_ir::inst::{
    BinOp as IrBin, BlockId, CastOp, FCmp, FuncId, ICmp, Intrinsic, Op, ValueId,
};
use concord_ir::types::{AddrSpace, Type as IrType};
use concord_ir::{KernelKind, Module};
use std::collections::HashMap;

/// A kernel entry point discovered in the program.
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// Name of the body class.
    pub class_name: String,
    /// The `operator()(int)` function.
    pub operator_fn: FuncId,
    /// The `join` function, when the class supports reduction.
    pub join_fn: Option<FuncId>,
    /// Size of the body object in bytes.
    pub body_size: u64,
}

/// Signature of a lowered function, indexed by [`FuncId`] while lowering.
#[derive(Debug, Clone)]
struct FnSig {
    /// Display name.
    name: String,
    /// Semantic parameter types (excluding `this`/sret).
    params: Vec<STy>,
    /// Semantic return type.
    ret: STy,
    /// Whether the IR function takes an sret pointer as its first param.
    has_sret: bool,
}

/// Source-size statistics (the Table 1 analogue).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceInfo {
    /// Total lines in the translation unit.
    pub total_lines: u32,
    /// Lines inside kernel (`operator()`/`join`) method bodies.
    pub device_lines: u32,
}

/// Result of lowering a translation unit. The IR module's struct table is
/// the one layout description it carries: the type environment and the
/// signature table are locals of [`lower`].
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    /// The IR module.
    pub module: Module,
    /// Kernel entry points.
    pub kernels: Vec<KernelInfo>,
    /// GPU-restriction warnings (§2.1): affected kernels fall back to CPU.
    pub warnings: Vec<RestrictionWarning>,
    /// Static source statistics.
    pub source_info: SourceInfo,
}

impl LoweredProgram {
    /// Find a kernel by its body-class name.
    pub fn kernel(&self, class_name: &str) -> Option<&KernelInfo> {
        self.kernels.iter().find(|k| k.class_name == class_name)
    }
}

/// Lower a parsed program to IR.
///
/// # Errors
///
/// Type errors, unresolved names, and violations of hard language rules.
/// (Soft GPU restrictions become [`RestrictionWarning`]s instead.)
pub fn lower(program: &Program, src: &str) -> Result<LoweredProgram, CompileError> {
    let mut env = TypeEnv::new();
    let mut module = Module::new();

    // Pass 1a: declare all struct names (so pointer fields may reference
    // any struct, including the one being defined), then compute layouts in
    // declaration order (bases and inline members before use).
    let mut poly_flags: HashMap<String, bool> = HashMap::new();
    for s in program.structs() {
        env.declare_struct(&s.name, &mut module);
    }
    for s in program.structs() {
        let inherits_poly =
            s.bases.first().map(|b| poly_flags.get(b).copied().unwrap_or(false)).unwrap_or(false);
        let own_virtual = s.methods.iter().any(|m| m.is_virtual);
        let poly = own_virtual || inherits_poly;
        poly_flags.insert(s.name.clone(), poly);
        let idx = env.lookup(&s.name).expect("declared above");
        env.fill_struct(idx, s, &mut module, poly && !inherits_poly)?;
    }

    // Pass 1b: assign ClassIds to polymorphic structs (in order, so base
    // class ids precede derived ones).
    for s in program.structs() {
        if poly_flags[&s.name] {
            let idx = env.lookup(&s.name).expect("registered above");
            let sid = env.info(idx).sid;
            let bases = env.info(idx).bases.clone();
            let class_bases: Vec<concord_ir::ClassId> =
                bases.iter().filter_map(|&(b, _)| env.info(b).class_id).collect();
            let cid = module.add_class(concord_ir::ClassInfo {
                name: s.name.clone(),
                layout: sid,
                bases: class_bases,
                vtable: Vec::new(),
            });
            env.info_mut(idx).class_id = Some(cid);
            module.structs[sid.0 as usize].class_id = Some(cid);
        }
    }

    // Pass 1c: declare all functions and methods (placeholder bodies).
    let mut sigs: Vec<FnSig> = Vec::new();
    let mut free_funcs: HashMap<String, Vec<FuncId>> = HashMap::new();
    let mut method_decls: Vec<(usize, FuncDecl, FuncId)> = Vec::new();
    let mut func_decls: Vec<(FuncDecl, FuncId)> = Vec::new();
    for decl in &program.decls {
        match decl {
            Decl::Func(f) => {
                let fid = declare_function(&env, &mut module, &mut sigs, f, None)?;
                free_funcs.entry(f.name.clone()).or_default().push(fid);
                func_decls.push((f.clone(), fid));
            }
            Decl::Struct(s) => {
                let idx = env.lookup(&s.name).expect("registered above");
                for m in &s.methods {
                    let fid = declare_function(&env, &mut module, &mut sigs, m, Some(idx))?;
                    method_decls.push((idx, m.clone(), fid));
                }
            }
        }
    }

    // Pass 1d: bind methods into structs and build vtables.
    for s in program.structs() {
        let idx = env.lookup(&s.name).expect("registered above");
        // Start from the primary base's vtable and inherited methods.
        let (mut vtable, mut inherited): (Vec<(String, FuncId)>, Vec<MethodSig>) =
            match env.info(idx).bases.first() {
                Some(&(b, 0)) => (env.info(b).vtable.clone(), adjust_inherited(&env, b, 0)),
                Some(_) | None => (Vec::new(), Vec::new()),
            };
        // Non-primary bases contribute (offset-adjusted) methods only.
        for &(b, off) in env.info(idx).bases.iter().skip(1) {
            inherited.extend(adjust_inherited(&env, b, off));
        }
        let mut own: Vec<MethodSig> = Vec::new();
        for (midx, m, fid) in method_decls.iter().filter(|(i, ..)| *i == idx) {
            let params: Vec<STy> =
                m.params.iter().map(|p| env.resolve(&p.ty, m.span)).collect::<Result<_, _>>()?;
            let ret = env.resolve(&m.ret, m.span)?;
            // A method is virtual if declared so or if it overrides a slot.
            let existing_slot = vtable.iter().position(|(n, _)| n == &m.name);
            let is_virtual = m.is_virtual || existing_slot.is_some();
            let slot = if is_virtual {
                match existing_slot {
                    Some(s) => {
                        vtable[s].1 = *fid;
                        Some(s as u32)
                    }
                    None => {
                        vtable.push((m.name.clone(), *fid));
                        Some((vtable.len() - 1) as u32)
                    }
                }
            } else {
                None
            };
            own.push(MethodSig {
                name: m.name.clone(),
                func: *fid,
                params,
                ret,
                is_virtual,
                slot,
                owner: *midx,
                this_offset: 0,
            });
        }
        // Inherited virtual methods keep their slots; drop inherited entries
        // that this class overrides (same name).
        inherited.retain(|im| !own.iter().any(|om| om.name == im.name));
        let mut methods = own;
        methods.extend(inherited);
        env.info_mut(idx).methods = methods;
        env.info_mut(idx).vtable = vtable.clone();
        if let Some(cid) = env.info(idx).class_id {
            module.classes[cid.0 as usize].vtable = vtable.into_iter().map(|(_, f)| f).collect();
        }
    }

    // Pass 2: lower bodies.
    let mut device_lines = 0u32;
    for (f, fid) in &func_decls {
        let lowered = Lowerer::run(&env, &sigs, &free_funcs, f, *fid, None)?;
        module.functions[fid.0 as usize] = lowered;
    }
    for (idx, m, fid) in &method_decls {
        let lowered = Lowerer::run(&env, &sigs, &free_funcs, m, *fid, Some(*idx))?;
        module.functions[fid.0 as usize] = lowered;
    }

    // Kernel discovery: classes with `void operator()(int)`.
    let mut kernels = Vec::new();
    for s in program.structs() {
        let idx = env.lookup(&s.name).expect("registered");
        let info = env.info(idx);
        let op = info
            .methods_named("operator()")
            .into_iter()
            .find(|m| m.params == vec![STy::Int] && m.ret == STy::Void && m.owner == idx);
        let Some(op) = op else { continue };
        let join = info
            .methods_named("join")
            .into_iter()
            .find(|m| {
                m.ret == STy::Void && m.params.len() == 1 && m.params[0].struct_index() == Some(idx)
            })
            .map(|m| m.func);
        module.functions[op.func.0 as usize].kernel = Some(KernelKind::ForBody);
        if let Some(j) = join {
            module.functions[j.0 as usize].kernel = Some(KernelKind::ReduceJoin);
        }
        kernels.push(KernelInfo {
            class_name: s.name.clone(),
            operator_fn: op.func,
            join_fn: join,
            body_size: info.size,
        });
        for m in &s.methods {
            if m.name == "operator()" || m.name == "join" {
                device_lines += body_line_count(m);
            }
        }
    }

    // Restriction check (§2.1): recursion anywhere in a kernel's closure.
    let warnings = check_restrictions(&module, &kernels, &sigs);

    let source_info = SourceInfo { total_lines: src.lines().count() as u32, device_lines };
    Ok(LoweredProgram { module, kernels, warnings, source_info })
}

fn adjust_inherited(env: &TypeEnv, base: usize, off: u64) -> Vec<MethodSig> {
    env.info(base)
        .methods
        .iter()
        .map(|m| MethodSig { this_offset: m.this_offset + off, ..m.clone() })
        .collect()
}

fn body_line_count(m: &FuncDecl) -> u32 {
    let mut max = m.span.line;
    fn walk_stmts(stmts: &[Stmt], max: &mut u32) {
        for s in stmts {
            match s {
                Stmt::Local { span, init, .. } => {
                    *max = (*max).max(span.line);
                    if let Some(e) = init {
                        walk_expr(e, max);
                    }
                }
                Stmt::Expr(e) => walk_expr(e, max),
                Stmt::If(c, a, b) => {
                    walk_expr(c, max);
                    walk_stmts(a, max);
                    walk_stmts(b, max);
                }
                Stmt::While(c, b) => {
                    walk_expr(c, max);
                    walk_stmts(b, max);
                }
                Stmt::For { init, cond, step, body } => {
                    if let Some(i) = init {
                        walk_stmts(std::slice::from_ref(i), max);
                    }
                    if let Some(c) = cond {
                        walk_expr(c, max);
                    }
                    if let Some(st) = step {
                        walk_expr(st, max);
                    }
                    walk_stmts(body, max);
                }
                Stmt::Return(e, span) => {
                    *max = (*max).max(span.line);
                    if let Some(e) = e {
                        walk_expr(e, max);
                    }
                }
                Stmt::Break(span) | Stmt::Continue(span) => *max = (*max).max(span.line),
                Stmt::Block(b) => walk_stmts(b, max),
            }
        }
    }
    fn walk_expr(e: &Expr, max: &mut u32) {
        *max = (*max).max(e.span.line);
        match &e.kind {
            ExprKind::Binary(_, a, b)
            | ExprKind::Assign(a, b)
            | ExprKind::CompoundAssign(_, a, b)
            | ExprKind::Index(a, b) => {
                walk_expr(a, max);
                walk_expr(b, max);
            }
            ExprKind::Unary(_, a) | ExprKind::Cast(_, a) => walk_expr(a, max),
            ExprKind::Ternary(a, b, c) => {
                walk_expr(a, max);
                walk_expr(b, max);
                walk_expr(c, max);
            }
            ExprKind::IncDec { target, .. } => walk_expr(target, max),
            ExprKind::Call(_, args) => args.iter().for_each(|a| walk_expr(a, max)),
            ExprKind::MethodCall { recv, args, .. } => {
                walk_expr(recv, max);
                args.iter().for_each(|a| walk_expr(a, max));
            }
            ExprKind::Field { recv, .. } => walk_expr(recv, max),
            _ => {}
        }
    }
    walk_stmts(&m.body, &mut max);
    max - m.span.line + 1
}

/// Build the IR-level signature and a placeholder function.
fn declare_function(
    env: &TypeEnv,
    module: &mut Module,
    sigs: &mut Vec<FnSig>,
    decl: &FuncDecl,
    method_of: Option<usize>,
) -> Result<FuncId, CompileError> {
    let ret = env.resolve(&decl.ret, decl.span)?;
    let params: Vec<STy> =
        decl.params.iter().map(|p| env.resolve(&p.ty, decl.span)).collect::<Result<_, _>>()?;
    let has_sret = matches!(ret, STy::Struct(_));
    let mut ir_params: Vec<IrType> = Vec::new();
    if has_sret {
        ir_params.push(IrType::Ptr(AddrSpace::Private));
    }
    if method_of.is_some() {
        ir_params.push(IrType::Ptr(AddrSpace::Cpu)); // this
    }
    for p in &params {
        ir_params.push(match p {
            STy::Struct(_) => IrType::Ptr(AddrSpace::Cpu), // byval copy pointer
            other => other.ir(),
        });
    }
    let ir_ret = if has_sret { IrType::Void } else { ret.ir() };
    let display_name = match method_of {
        Some(idx) => format!("{}::{}", env.info(idx).name, decl.name),
        None => decl.name.clone(),
    };
    let mut placeholder = concord_ir::Function::new(display_name.clone(), ir_params, ir_ret);
    // Placeholder terminator so the module stays verifiable mid-compilation.
    let term = placeholder.push_inst(Op::Unreachable, IrType::Void);
    placeholder.blocks[0].insts.push(term);
    placeholder.owner_class = method_of.and_then(|i| env.info(i).class_id);
    let fid = module.add_function(placeholder);
    sigs.push(FnSig { name: display_name, params, ret, has_sret });
    Ok(fid)
}

/// Detect (mutual) recursion reachable from kernels; recursion is a GPU
/// restriction (§2.1) that triggers CPU fallback. Direct tail recursion has
/// already been rewritten into loops by the lowerer and does not count.
fn check_restrictions(
    module: &Module,
    kernels: &[KernelInfo],
    sigs: &[FnSig],
) -> Vec<RestrictionWarning> {
    let mut warnings = Vec::new();
    for k in kernels {
        for root in std::iter::once(k.operator_fn).chain(k.join_fn) {
            if let Some(cycle_fn) = find_recursion(module, root) {
                warnings.push(RestrictionWarning {
                    function: sigs[cycle_fn.0 as usize].name.clone(),
                    message: "recursion is not supported on the GPU".into(),
                });
            }
        }
    }
    warnings
}

fn find_recursion(module: &Module, root: FuncId) -> Option<FuncId> {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Unseen,
        Active,
        Done,
    }
    fn dfs(module: &Module, f: FuncId, state: &mut Vec<St>) -> Option<FuncId> {
        match state[f.0 as usize] {
            St::Active => return Some(f),
            St::Done => return None,
            St::Unseen => {}
        }
        state[f.0 as usize] = St::Active;
        for c in module.callees(f) {
            if let Some(hit) = dfs(module, c, state) {
                return Some(hit);
            }
        }
        state[f.0 as usize] = St::Done;
        None
    }
    let mut state = vec![St::Unseen; module.functions.len()];
    dfs(module, root, &mut state)
}

// ---------------------------------------------------------------------------
// Per-function lowering
// ---------------------------------------------------------------------------

/// An evaluated expression: either a scalar SSA value or a memory place.
#[derive(Debug, Clone)]
enum RV {
    Val(ValueId, STy),
    Place { ptr: ValueId, ty: STy },
}

#[derive(Debug, Clone)]
struct LocalVar {
    ptr: ValueId,
    ty: STy,
    /// Element count when declared as a fixed array (arrays decay to
    /// pointers on use).
    array_len: Option<u64>,
}

struct LoopCtx {
    break_to: BlockId,
    continue_to: BlockId,
}

struct Lowerer<'a> {
    env: &'a TypeEnv,
    sigs: &'a [FnSig],
    free_funcs: &'a HashMap<String, Vec<FuncId>>,
    b: FunctionBuilder,
    scopes: Vec<HashMap<String, LocalVar>>,
    loops: Vec<LoopCtx>,
    /// Current function id (for tail-recursion rewriting).
    self_id: FuncId,
    /// Owning struct for methods.
    method_of: Option<usize>,
    /// `this` value for methods.
    this_val: Option<ValueId>,
    /// Alloca slots holding the parameters, for tail-call rewriting.
    param_slots: Vec<ValueId>,
    /// Block the rewritten tail call jumps to.
    body_entry: BlockId,
    ret_ty: STy,
    /// sret destination pointer, when returning a struct.
    sret: Option<ValueId>,
}

impl<'a> Lowerer<'a> {
    fn run(
        env: &TypeEnv,
        sigs: &[FnSig],
        free_funcs: &HashMap<String, Vec<FuncId>>,
        decl: &FuncDecl,
        fid: FuncId,
        method_of: Option<usize>,
    ) -> Result<concord_ir::Function, CompileError> {
        let sig = &sigs[fid.0 as usize];
        let mut ir_params: Vec<IrType> = Vec::new();
        if sig.has_sret {
            ir_params.push(IrType::Ptr(AddrSpace::Private));
        }
        if method_of.is_some() {
            ir_params.push(IrType::Ptr(AddrSpace::Cpu));
        }
        for p in &sig.params {
            ir_params.push(match p {
                STy::Struct(_) => IrType::Ptr(AddrSpace::Cpu),
                other => other.ir(),
            });
        }
        let ir_ret = if sig.has_sret { IrType::Void } else { sig.ret.ir() };
        let b = FunctionBuilder::new(sig.name.clone(), ir_params, ir_ret);
        let mut lw = Lowerer {
            env,
            sigs,
            free_funcs,
            b,
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
            self_id: fid,
            method_of,
            this_val: None,
            param_slots: Vec::new(),
            body_entry: BlockId(0),
            ret_ty: sig.ret.clone(),
            sret: None,
        };
        let mut pi = 0usize;
        if sig.has_sret {
            lw.sret = Some(lw.b.param(pi));
            pi += 1;
        }
        if method_of.is_some() {
            lw.this_val = Some(lw.b.param(pi));
            pi += 1;
        }
        // Spill scalar parameters to allocas (register promotion will lift
        // them back); struct byval params bind directly to their copy.
        for (i, pty) in sig.params.iter().enumerate() {
            let pv = lw.b.param(pi + i);
            let name = decl.params[i].name.clone();
            match pty {
                STy::Struct(_) => {
                    lw.scopes[0]
                        .insert(name, LocalVar { ptr: pv, ty: pty.clone(), array_len: None });
                    lw.param_slots.push(pv);
                }
                other => {
                    let slot = lw.b.alloca(other.ir().size(), other.ir().align());
                    lw.b.store(slot, pv);
                    lw.scopes[0]
                        .insert(name, LocalVar { ptr: slot, ty: other.clone(), array_len: None });
                    lw.param_slots.push(slot);
                }
            }
        }
        // Body entry block: target for rewritten tail-recursive calls.
        let body = lw.b.new_block();
        lw.b.br(body);
        lw.b.switch_to(body);
        lw.body_entry = body;
        lw.stmts(&decl.body)?;
        if !lw.b.is_terminated() {
            if matches!(lw.ret_ty, STy::Void) || sig.has_sret {
                lw.b.ret(None);
            } else {
                // Falling off the end of a value-returning function.
                let z = lw.b.emit(Op::ConstInt(0), IrType::I32);
                let (z, _) = lw.convert(z, &STy::Int, &lw.ret_ty.clone(), decl.span)?;
                lw.b.ret(Some(z));
            }
        }
        let mut f = lw.b.build();
        f.kernel = None;
        f.owner_class = method_of.and_then(|i| env.info(i).class_id);
        Ok(f)
    }

    // ---- helpers ----

    fn lookup_var(&self, name: &str) -> Option<LocalVar> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn ir_of(&self, t: &STy) -> IrType {
        t.ir()
    }

    /// Force a scalar rvalue out of an evaluated expression.
    fn scalar(&mut self, rv: RV, span: Span) -> Result<(ValueId, STy), CompileError> {
        match rv {
            RV::Val(v, t) => Ok((v, t)),
            RV::Place { ptr, ty } => match ty {
                STy::Struct(_) => {
                    Err(CompileError::new(span, "expected a scalar value, found a struct"))
                }
                t => {
                    let v = self.b.load(ptr, t.ir());
                    Ok((v, t))
                }
            },
        }
    }

    /// A place (address) for an expression result, materializing struct
    /// rvalues into temporaries when needed.
    fn place(&mut self, rv: RV, span: Span) -> Result<(ValueId, STy), CompileError> {
        match rv {
            RV::Place { ptr, ty } => Ok((ptr, ty)),
            RV::Val(_, STy::Struct(_)) => {
                unreachable!("struct rvalues are always places")
            }
            RV::Val(..) => Err(CompileError::new(span, "expression is not addressable")),
        }
    }

    fn memcpy(&mut self, dst: ValueId, src: ValueId, size: u64) {
        debug_assert!(size.is_multiple_of(8), "struct sizes are 8-byte multiples");
        for off in (0..size).step_by(8) {
            let s = self.b.gep_const(src, off);
            let v = self.b.load(s, IrType::I64);
            let d = self.b.gep_const(dst, off);
            self.b.store(d, v);
        }
    }

    /// Numeric/pointer implicit conversion. Returns the converted value.
    fn convert(
        &mut self,
        v: ValueId,
        from: &STy,
        to: &STy,
        span: Span,
    ) -> Result<(ValueId, STy), CompileError> {
        if from == to {
            return Ok((v, to.clone()));
        }
        let out = match (from, to) {
            // Integer ↔ integer.
            (a, b) if a.is_integer() && b.is_integer() => {
                let (fi, ti) = (a.ir(), b.ir());
                if fi == ti {
                    v
                } else if ti.size() > fi.size() {
                    let op = if a.is_unsigned() || *a == STy::Bool {
                        CastOp::Zext
                    } else {
                        CastOp::Sext
                    };
                    self.b.cast(op, v, ti)
                } else {
                    self.b.cast(CastOp::Trunc, v, ti)
                }
            }
            // Integer → float.
            (a, b) if a.is_integer() && b.is_floating() => self.b.cast(CastOp::SiToFp, v, b.ir()),
            // Float → integer.
            (a, b) if a.is_floating() && b.is_integer() => self.b.cast(CastOp::FpToSi, v, b.ir()),
            // Float ↔ float.
            (a, b) if a.is_floating() && b.is_floating() => self.b.cast(CastOp::FpCast, v, b.ir()),
            // Pointer conversions.
            (STy::Ptr(fin), STy::Ptr(tin)) => {
                match (fin.as_ref(), tin.as_ref()) {
                    (STy::Struct(fs), STy::Struct(ts)) if fs != ts => {
                        if let Some(off) = self.env.base_offset(*fs, *ts) {
                            // Upcast: derived* → base*.
                            self.b.gep_const(v, off)
                        } else if let Some(off) = self.env.base_offset(*ts, *fs) {
                            // Downcast: base* → derived*.
                            let negoff = self.b.i64(-(off as i64));
                            self.b.gep(v, negoff)
                        } else {
                            v // reinterpret unrelated pointer
                        }
                    }
                    _ => v,
                }
            }
            // Pointer → bool (null test).
            (STy::Ptr(_), STy::Bool) => {
                let z = self.b.i64(0);
                self.b.icmp(ICmp::Ne, v, z)
            }
            // Pointer ↔ integer.
            (STy::Ptr(_), b) if b.is_integer() => {
                let as64 = self.b.cast(CastOp::PtrToInt, v, IrType::I64);
                if b.ir() == IrType::I64 {
                    as64
                } else {
                    self.b.cast(CastOp::Trunc, as64, b.ir())
                }
            }
            (a, STy::Ptr(_)) if a.is_integer() => {
                let wide = if a.ir() == IrType::I64 {
                    v
                } else {
                    self.b.cast(CastOp::Sext, v, IrType::I64)
                };
                self.b.cast(CastOp::IntToPtr, wide, IrType::Ptr(AddrSpace::Cpu))
            }
            _ => {
                return Err(CompileError::new(
                    span,
                    format!("no conversion from {from:?} to {to:?}"),
                ))
            }
        };
        Ok((out, to.clone()))
    }

    fn is_convertible(&self, from: &STy, to: &STy) -> bool {
        if from == to {
            return true;
        }
        match (from, to) {
            (a, b) if a.is_numeric() && b.is_numeric() => true,
            (STy::Ptr(_), STy::Ptr(_)) => true,
            (STy::Ptr(_), STy::Bool) => true,
            (STy::Ptr(_), b) if b.is_integer() => true,
            (a, STy::Ptr(_)) if a.is_integer() => true,
            _ => false,
        }
    }

    /// Lower an expression to an `i1` condition.
    fn cond(&mut self, e: &Expr) -> Result<ValueId, CompileError> {
        let rv = self.expr(e)?;
        let (v, t) = self.scalar(rv, e.span)?;
        Ok(match t {
            STy::Bool => v,
            STy::Ptr(_) => {
                let z = self.b.i64(0);
                self.b.icmp(ICmp::Ne, v, z)
            }
            t if t.is_floating() => {
                let z = self.b.emit(Op::ConstFloat(0.0), t.ir());
                self.b.fcmp(FCmp::One, v, z)
            }
            t => {
                let z = self.b.emit(Op::ConstInt(0), t.ir());
                self.b.icmp(ICmp::Ne, v, z)
            }
        })
    }

    // ---- statements ----

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            if self.b.is_terminated() {
                break; // dead code after return/break/continue
            }
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Block(inner) => {
                self.scopes.push(HashMap::new());
                self.stmts(inner)?;
                self.scopes.pop();
                Ok(())
            }
            Stmt::Local { ty, name, array_len, init, span } => {
                let sty = self.env.resolve(ty, *span)?;
                if matches!(sty, STy::Void) {
                    return Err(CompileError::new(*span, "variable of type void"));
                }
                let elem_size = self.env.size_of(&sty);
                let total = elem_size * array_len.unwrap_or(1);
                let slot = self.b.alloca(total.max(1), self.env.align_of(&sty));
                if let Some(init) = init {
                    if array_len.is_some() {
                        return Err(CompileError::new(
                            *span,
                            "array initializers are not supported",
                        ));
                    }
                    let rv = self.expr(init)?;
                    self.assign_into(slot, &sty, rv, init.span)?;
                }
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), LocalVar { ptr: slot, ty: sty, array_len: *array_len });
                Ok(())
            }
            Stmt::Expr(e) => {
                let _ = self.expr(e)?;
                Ok(())
            }
            Stmt::If(c, then_s, else_s) => {
                let cv = self.cond(c)?;
                let tb = self.b.new_block();
                let eb = self.b.new_block();
                let join = self.b.new_block();
                self.b.cond_br(cv, tb, eb);
                self.b.switch_to(tb);
                self.scopes.push(HashMap::new());
                self.stmts(then_s)?;
                self.scopes.pop();
                if !self.b.is_terminated() {
                    self.b.br(join);
                }
                self.b.switch_to(eb);
                self.scopes.push(HashMap::new());
                self.stmts(else_s)?;
                self.scopes.pop();
                if !self.b.is_terminated() {
                    self.b.br(join);
                }
                self.b.switch_to(join);
                // If both arms terminated, the join block is unreachable but
                // must still be well-formed.
                if self.b.func().block(join).insts.is_empty() {
                    // keep building into it; subsequent stmts land here
                }
                Ok(())
            }
            Stmt::While(c, body) => {
                let header = self.b.new_block();
                let body_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(header);
                self.b.switch_to(header);
                let cv = self.cond(c)?;
                self.b.cond_br(cv, body_bb, exit);
                self.b.switch_to(body_bb);
                self.loops.push(LoopCtx { break_to: exit, continue_to: header });
                self.scopes.push(HashMap::new());
                self.stmts(body)?;
                self.scopes.pop();
                self.loops.pop();
                if !self.b.is_terminated() {
                    self.b.br(header);
                }
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::For { init, cond, step, body } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let header = self.b.new_block();
                let body_bb = self.b.new_block();
                let step_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(header);
                self.b.switch_to(header);
                match cond {
                    Some(c) => {
                        let cv = self.cond(c)?;
                        self.b.cond_br(cv, body_bb, exit);
                    }
                    None => self.b.br(body_bb),
                }
                self.b.switch_to(body_bb);
                self.loops.push(LoopCtx { break_to: exit, continue_to: step_bb });
                self.scopes.push(HashMap::new());
                self.stmts(body)?;
                self.scopes.pop();
                self.loops.pop();
                if !self.b.is_terminated() {
                    self.b.br(step_bb);
                }
                self.b.switch_to(step_bb);
                if let Some(step) = step {
                    let _ = self.expr(step)?;
                }
                self.b.br(header);
                self.b.switch_to(exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(e, span) => {
                match (e, self.ret_ty.clone()) {
                    (None, STy::Void) => self.b.ret(None),
                    (None, _) => return Err(CompileError::new(*span, "missing return value")),
                    (Some(e), STy::Void) => {
                        return Err(CompileError::new(e.span, "returning a value from void"))
                    }
                    (Some(e), ret_ty) => {
                        // Direct tail recursion → loop (§2.1: tail recursion
                        // is eliminated at compile time).
                        if let ExprKind::Call(name, args) = &e.kind {
                            if self.try_tail_call(name, args, *span)? {
                                return Ok(());
                            }
                        }
                        let rv = self.expr(e)?;
                        if let STy::Struct(si) = ret_ty {
                            let sret = self.sret.expect("sret set for struct returns");
                            let (src, _) = self.place(rv, e.span)?;
                            let size = self.env.info(si).size;
                            self.memcpy(sret, src, size);
                            self.b.ret(None);
                        } else {
                            let (v, t) = self.scalar(rv, e.span)?;
                            let (v, _) = self.convert(v, &t, &ret_ty, e.span)?;
                            self.b.ret(Some(v));
                        }
                    }
                }
                Ok(())
            }
            Stmt::Break(span) => {
                let Some(ctx) = self.loops.last() else {
                    return Err(CompileError::new(*span, "`break` outside a loop"));
                };
                let target = ctx.break_to;
                self.b.br(target);
                Ok(())
            }
            Stmt::Continue(span) => {
                let Some(ctx) = self.loops.last() else {
                    return Err(CompileError::new(*span, "`continue` outside a loop"));
                };
                let target = ctx.continue_to;
                self.b.br(target);
                Ok(())
            }
        }
    }

    /// Rewrite `return f(args)` where `f` is the current function into
    /// parameter stores plus a jump back to the body entry.
    fn try_tail_call(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<bool, CompileError> {
        if self.method_of.is_some() {
            return Ok(false);
        }
        let Some(cands) = self.free_funcs.get(name) else { return Ok(false) };
        if !cands.contains(&self.self_id) {
            return Ok(false);
        }
        let sig = &self.sigs[self.self_id.0 as usize];
        if sig.params.len() != args.len() || sig.params.iter().any(|p| matches!(p, STy::Struct(_)))
        {
            return Ok(false);
        }
        // Evaluate all arguments before overwriting any parameter slot.
        let mut vals = Vec::new();
        let param_tys = sig.params.to_vec();
        for (a, pty) in args.iter().zip(&param_tys) {
            let rv = self.expr(a)?;
            let (v, t) = self.scalar(rv, a.span)?;
            let (v, _) = self.convert(v, &t, pty, span)?;
            vals.push(v);
        }
        let slots = self.param_slots.clone();
        for (slot, v) in slots.into_iter().zip(vals) {
            self.b.store(slot, v);
        }
        let target = self.body_entry;
        self.b.br(target);
        Ok(true)
    }

    /// Store an evaluated rvalue into a destination place.
    fn assign_into(
        &mut self,
        dst: ValueId,
        dst_ty: &STy,
        rv: RV,
        span: Span,
    ) -> Result<(), CompileError> {
        match dst_ty {
            STy::Struct(si) => {
                let (src, src_ty) = self.place(rv, span)?;
                if src_ty != *dst_ty {
                    return Err(CompileError::new(span, "struct assignment type mismatch"));
                }
                let size = self.env.info(*si).size;
                self.memcpy(dst, src, size);
            }
            t => {
                let (v, vt) = self.scalar(rv, span)?;
                let (v, _) = self.convert(v, &vt, t, span)?;
                self.b.store(dst, v);
            }
        }
        Ok(())
    }

    // ---- expressions ----

    fn expr(&mut self, e: &Expr) -> Result<RV, CompileError> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let id = self.b.i32(*v as i32);
                // Literals wider than i32 become longs.
                if *v > i32::MAX as i64 || *v < i32::MIN as i64 {
                    let id = self.b.i64(*v);
                    Ok(RV::Val(id, STy::Long))
                } else {
                    Ok(RV::Val(id, STy::Int))
                }
            }
            ExprKind::FloatLit(v, is_f32) => {
                if *is_f32 {
                    let id = self.b.f32(*v as f32);
                    Ok(RV::Val(id, STy::Float))
                } else {
                    // Unsuffixed literals are doubles in C++, but nearly all
                    // kernel arithmetic is f32; keep double only when huge.
                    let id = self.b.f64(*v);
                    Ok(RV::Val(id, STy::Double))
                }
            }
            ExprKind::BoolLit(v) => {
                let id = self.b.const_int(*v as i64, IrType::I1);
                Ok(RV::Val(id, STy::Bool))
            }
            ExprKind::Null => {
                let id = self.b.null(AddrSpace::Cpu);
                Ok(RV::Val(id, STy::Ptr(Box::new(STy::Void))))
            }
            ExprKind::This => {
                let Some(this) = self.this_val else {
                    return Err(CompileError::new(e.span, "`this` outside a method"));
                };
                let idx = self.method_of.expect("method_of set with this_val");
                Ok(RV::Val(this, STy::Ptr(Box::new(STy::Struct(idx)))))
            }
            ExprKind::Ident(name) => {
                if let Some(v) = self.lookup_var(name) {
                    if v.array_len.is_some() {
                        // Arrays decay to element pointers.
                        return Ok(RV::Val(v.ptr, STy::Ptr(Box::new(v.ty))));
                    }
                    return Ok(RV::Place { ptr: v.ptr, ty: v.ty });
                }
                // Implicit member of `this`.
                if let (Some(idx), Some(this)) = (self.method_of, self.this_val) {
                    if let Some(f) = self.env.info(idx).field(name).cloned() {
                        let addr = self.b.gep_const(this, f.offset);
                        if f.count > 1 && !matches!(f.ty, STy::Struct(_)) {
                            return Ok(RV::Val(addr, STy::Ptr(Box::new(f.ty))));
                        }
                        return Ok(RV::Place { ptr: addr, ty: f.ty });
                    }
                }
                Err(CompileError::new(e.span, format!("unknown identifier `{name}`")))
            }
            ExprKind::Field { recv, through_ptr, field } => {
                let (base, sidx) = self.receiver_addr(recv, *through_ptr)?;
                let info = self.env.info(sidx);
                let f = info.field(field).cloned().ok_or_else(|| {
                    CompileError::new(e.span, format!("no field `{field}` in `{}`", info.name))
                })?;
                let addr = self.b.gep_const(base, f.offset);
                if f.count > 1 && !matches!(f.ty, STy::Struct(_)) {
                    return Ok(RV::Val(addr, STy::Ptr(Box::new(f.ty))));
                }
                Ok(RV::Place { ptr: addr, ty: f.ty })
            }
            ExprKind::Index(base, idx) => {
                let base_rv = self.expr(base)?;
                let (bv, bt) = match base_rv {
                    RV::Place { ptr, ty: STy::Struct(_) } => {
                        return Err(CompileError::new(
                            base.span,
                            format!("cannot index a struct value (at {ptr:?})"),
                        ))
                    }
                    rv => self.scalar(rv, base.span)?,
                };
                let STy::Ptr(elem) = bt else {
                    return Err(CompileError::new(base.span, "indexing a non-pointer"));
                };
                let idx_rv = self.expr(idx)?;
                let (iv, it) = self.scalar(idx_rv, idx.span)?;
                let (iv, _) = self.convert(iv, &it, &STy::Long, idx.span)?;
                let size = self.env.size_of(&elem);
                let sz = self.b.i64(size as i64);
                let off = self.b.bin(IrBin::Mul, iv, sz);
                let addr = self.b.gep(bv, off);
                Ok(RV::Place { ptr: addr, ty: (*elem).clone() })
            }
            ExprKind::Unary(op, inner) => self.unary(*op, inner, e.span),
            ExprKind::Binary(op, a, bq) => self.binary(*op, a, bq, e.span),
            ExprKind::Ternary(c, a, bq) => self.ternary(c, a, bq, e.span),
            ExprKind::Assign(lhs, rhs) => {
                let rv = self.expr(rhs)?;
                let lhs_rv = self.expr(lhs)?;
                let (dst, dst_ty) = self.place(lhs_rv, lhs.span)?;
                self.assign_into(dst, &dst_ty.clone(), rv, e.span)?;
                Ok(RV::Place { ptr: dst, ty: dst_ty })
            }
            ExprKind::CompoundAssign(op, lhs, rhs) => {
                let lhs_rv = self.expr(lhs)?;
                let (dst, dst_ty) = self.place(lhs_rv, lhs.span)?;
                let cur = self.b.load(dst, self.ir_of(&dst_ty));
                let rhs_rv = self.expr(rhs)?;
                let (rv, rt) = self.scalar(rhs_rv, rhs.span)?;
                let (res, res_ty) = self.scalar_binop(*op, cur, dst_ty.clone(), rv, rt, e.span)?;
                let (res, _) = self.convert(res, &res_ty, &dst_ty, e.span)?;
                self.b.store(dst, res);
                Ok(RV::Place { ptr: dst, ty: dst_ty })
            }
            ExprKind::IncDec { delta, prefix, target } => {
                let t_rv = self.expr(target)?;
                let (dst, dst_ty) = self.place(t_rv, target.span)?;
                let cur = self.b.load(dst, self.ir_of(&dst_ty));
                let next = match &dst_ty {
                    STy::Ptr(elem) => {
                        let step = self.env.size_of(elem) as i64 * delta;
                        let s = self.b.i64(step);
                        self.b.gep(cur, s)
                    }
                    t if t.is_floating() => {
                        let one = self.b.emit(Op::ConstFloat(*delta as f64), t.ir());
                        self.b.bin(IrBin::FAdd, cur, one)
                    }
                    t => {
                        let one = self.b.emit(Op::ConstInt(*delta), t.ir());
                        self.b.bin(IrBin::Add, cur, one)
                    }
                };
                self.b.store(dst, next);
                Ok(RV::Val(if *prefix { next } else { cur }, dst_ty))
            }
            ExprKind::Cast(te, inner) => {
                let to = self.env.resolve(te, e.span)?;
                let rv = self.expr(inner)?;
                let (v, from) = self.scalar(rv, inner.span)?;
                let (v, t) = self.convert(v, &from, &to, e.span)?;
                Ok(RV::Val(v, t))
            }
            ExprKind::Call(name, args) => self.call(name, args, e.span),
            ExprKind::MethodCall { recv, through_ptr, method, args } => {
                self.method_call(recv, *through_ptr, method, args, e.span)
            }
        }
    }

    /// Resolve a method-call / field-access receiver to (address, struct).
    fn receiver_addr(
        &mut self,
        recv: &Expr,
        through_ptr: bool,
    ) -> Result<(ValueId, usize), CompileError> {
        let rv = self.expr(recv)?;
        if through_ptr {
            let (v, t) = self.scalar(rv, recv.span)?;
            let Some(sidx) = t.struct_index() else {
                return Err(CompileError::new(recv.span, "`->` on a non-struct pointer"));
            };
            Ok((v, sidx))
        } else {
            let (ptr, t) = self.place(rv, recv.span)?;
            let STy::Struct(sidx) = t else {
                return Err(CompileError::new(recv.span, "`.` on a non-struct value"));
            };
            Ok((ptr, sidx))
        }
    }

    fn unary(&mut self, op: UnaryOp, inner: &Expr, span: Span) -> Result<RV, CompileError> {
        match op {
            UnaryOp::Deref => {
                let rv = self.expr(inner)?;
                let (v, t) = self.scalar(rv, inner.span)?;
                let STy::Ptr(elem) = t else {
                    return Err(CompileError::new(span, "dereferencing a non-pointer"));
                };
                Ok(RV::Place { ptr: v, ty: *elem })
            }
            UnaryOp::AddrOf => {
                let rv = self.expr(inner)?;
                let (ptr, ty) = self.place(rv, inner.span)?;
                Ok(RV::Val(ptr, STy::Ptr(Box::new(ty))))
            }
            UnaryOp::Neg => {
                let rv = self.expr(inner)?;
                let (v, t) = self.scalar(rv, inner.span)?;
                if t.is_floating() {
                    let z = self.b.emit(Op::ConstFloat(0.0), t.ir());
                    Ok(RV::Val(self.b.bin(IrBin::FSub, z, v), t))
                } else if t.is_integer() {
                    let z = self.b.emit(Op::ConstInt(0), t.ir());
                    Ok(RV::Val(self.b.bin(IrBin::Sub, z, v), t))
                } else {
                    Err(CompileError::new(span, "negating a non-numeric value"))
                }
            }
            UnaryOp::Not => {
                let c = self.cond(inner)?;
                let one = self.b.const_int(1, IrType::I1);
                Ok(RV::Val(self.b.bin(IrBin::Xor, c, one), STy::Bool))
            }
            UnaryOp::BitNot => {
                let rv = self.expr(inner)?;
                let (v, t) = self.scalar(rv, inner.span)?;
                if !t.is_integer() {
                    return Err(CompileError::new(span, "`~` on a non-integer"));
                }
                let m1 = self.b.emit(Op::ConstInt(-1), t.ir());
                Ok(RV::Val(self.b.bin(IrBin::Xor, v, m1), t))
            }
        }
    }

    fn usual_conversions(
        &mut self,
        av: ValueId,
        at: STy,
        bv: ValueId,
        bt: STy,
        span: Span,
    ) -> Result<(ValueId, ValueId, STy), CompileError> {
        fn rank(t: &STy) -> u8 {
            match t {
                STy::Bool => 0,
                STy::Int => 1,
                STy::UInt => 2,
                STy::Long => 3,
                STy::Float => 4,
                STy::Double => 5,
                _ => 6,
            }
        }
        let common = if rank(&at) >= rank(&bt) { at.clone() } else { bt.clone() };
        let (av, _) = self.convert(av, &at, &common, span)?;
        let (bv, _) = self.convert(bv, &bt, &common, span)?;
        Ok((av, bv, common))
    }

    fn scalar_binop(
        &mut self,
        op: BinaryOp,
        av: ValueId,
        at: STy,
        bv: ValueId,
        bt: STy,
        span: Span,
    ) -> Result<(ValueId, STy), CompileError> {
        // Pointer arithmetic and comparisons.
        if let STy::Ptr(elem) = &at {
            match op {
                BinaryOp::Add | BinaryOp::Sub if bt.is_integer() => {
                    let (bi, _) = self.convert(bv, &bt, &STy::Long, span)?;
                    let size = self.env.size_of(elem) as i64;
                    let sz = self.b.i64(size);
                    let mut off = self.b.bin(IrBin::Mul, bi, sz);
                    if op == BinaryOp::Sub {
                        let z = self.b.i64(0);
                        off = self.b.bin(IrBin::Sub, z, off);
                    }
                    return Ok((self.b.gep(av, off), at));
                }
                BinaryOp::Sub if matches!(bt, STy::Ptr(_)) => {
                    let ai = self.b.cast(CastOp::PtrToInt, av, IrType::I64);
                    let bi = self.b.cast(CastOp::PtrToInt, bv, IrType::I64);
                    let diff = self.b.bin(IrBin::Sub, ai, bi);
                    let size = self.env.size_of(elem).max(1) as i64;
                    let sz = self.b.i64(size);
                    return Ok((self.b.bin(IrBin::SDiv, diff, sz), STy::Long));
                }
                BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge => {
                    let pred = match op {
                        BinaryOp::Eq => ICmp::Eq,
                        BinaryOp::Ne => ICmp::Ne,
                        BinaryOp::Lt => ICmp::Ult,
                        BinaryOp::Le => ICmp::Ule,
                        BinaryOp::Gt => ICmp::Ugt,
                        _ => ICmp::Uge,
                    };
                    return Ok((self.b.icmp(pred, av, bv), STy::Bool));
                }
                _ => return Err(CompileError::new(span, "unsupported pointer operation")),
            }
        }
        if matches!(bt, STy::Ptr(_)) {
            // int + ptr
            if op == BinaryOp::Add && at.is_integer() {
                return self.scalar_binop(op, bv, bt, av, at, span);
            }
            if matches!(op, BinaryOp::Eq | BinaryOp::Ne) {
                let pred = if op == BinaryOp::Eq { ICmp::Eq } else { ICmp::Ne };
                return Ok((self.b.icmp(pred, av, bv), STy::Bool));
            }
            return Err(CompileError::new(span, "unsupported pointer operation"));
        }
        let (av, bv, t) = self.usual_conversions(av, at, bv, bt, span)?;
        let is_f = t.is_floating();
        let unsigned = t.is_unsigned();
        let out = match op {
            BinaryOp::Add => (self.b.bin(if is_f { IrBin::FAdd } else { IrBin::Add }, av, bv), t),
            BinaryOp::Sub => (self.b.bin(if is_f { IrBin::FSub } else { IrBin::Sub }, av, bv), t),
            BinaryOp::Mul => (self.b.bin(if is_f { IrBin::FMul } else { IrBin::Mul }, av, bv), t),
            BinaryOp::Div => {
                let op = if is_f {
                    IrBin::FDiv
                } else if unsigned {
                    IrBin::UDiv
                } else {
                    IrBin::SDiv
                };
                (self.b.bin(op, av, bv), t)
            }
            BinaryOp::Rem => {
                if is_f {
                    return Err(CompileError::new(span, "`%` on floating values"));
                }
                (self.b.bin(if unsigned { IrBin::URem } else { IrBin::SRem }, av, bv), t)
            }
            BinaryOp::BitAnd => (self.b.bin(IrBin::And, av, bv), t),
            BinaryOp::BitOr => (self.b.bin(IrBin::Or, av, bv), t),
            BinaryOp::BitXor => (self.b.bin(IrBin::Xor, av, bv), t),
            BinaryOp::Shl => (self.b.bin(IrBin::Shl, av, bv), t),
            BinaryOp::Shr => {
                (self.b.bin(if unsigned { IrBin::LShr } else { IrBin::AShr }, av, bv), t)
            }
            BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge
            | BinaryOp::Eq
            | BinaryOp::Ne => {
                let v = if is_f {
                    let pred = match op {
                        BinaryOp::Lt => FCmp::Olt,
                        BinaryOp::Le => FCmp::Ole,
                        BinaryOp::Gt => FCmp::Ogt,
                        BinaryOp::Ge => FCmp::Oge,
                        BinaryOp::Eq => FCmp::Oeq,
                        _ => FCmp::One,
                    };
                    self.b.fcmp(pred, av, bv)
                } else {
                    let pred = match (op, unsigned) {
                        (BinaryOp::Lt, false) => ICmp::Slt,
                        (BinaryOp::Le, false) => ICmp::Sle,
                        (BinaryOp::Gt, false) => ICmp::Sgt,
                        (BinaryOp::Ge, false) => ICmp::Sge,
                        (BinaryOp::Lt, true) => ICmp::Ult,
                        (BinaryOp::Le, true) => ICmp::Ule,
                        (BinaryOp::Gt, true) => ICmp::Ugt,
                        (BinaryOp::Ge, true) => ICmp::Uge,
                        (BinaryOp::Eq, _) => ICmp::Eq,
                        (_, _) => ICmp::Ne,
                    };
                    self.b.icmp(pred, av, bv)
                };
                (v, STy::Bool)
            }
            BinaryOp::And | BinaryOp::Or => unreachable!("short-circuit handled earlier"),
        };
        Ok(out)
    }

    fn binary(&mut self, op: BinaryOp, a: &Expr, b: &Expr, span: Span) -> Result<RV, CompileError> {
        // Short-circuit logic.
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            let ca = self.cond(a)?;
            // The short-circuit constant must dominate the phi, so emit it
            // in the block that branches (before the terminator).
            let shortv = self.b.const_int(if op == BinaryOp::And { 0 } else { 1 }, IrType::I1);
            let from = self.b.current_block();
            let rhs_bb = self.b.new_block();
            let join = self.b.new_block();
            if op == BinaryOp::And {
                self.b.cond_br(ca, rhs_bb, join);
            } else {
                self.b.cond_br(ca, join, rhs_bb);
            }
            self.b.switch_to(rhs_bb);
            let cb = self.cond(b)?;
            let rhs_end = self.b.current_block();
            self.b.br(join);
            self.b.switch_to(join);
            let v = self.b.phi(IrType::I1, vec![(from, shortv), (rhs_end, cb)]);
            Ok(RV::Val(v, STy::Bool))
        } else {
            let a_rv = self.expr(a)?;
            // Operator overloading on struct operands.
            if let RV::Place { ty: STy::Struct(sidx), ptr } = &a_rv {
                let mname = match op {
                    BinaryOp::Add => Some("operator+"),
                    BinaryOp::Sub => Some("operator-"),
                    BinaryOp::Mul => Some("operator*"),
                    BinaryOp::Div => Some("operator/"),
                    _ => None,
                };
                if let Some(mname) = mname {
                    let (sidx, ptr) = (*sidx, *ptr);
                    let b_rv = self.expr(b)?;
                    return self.dispatch_method(
                        sidx,
                        ptr,
                        mname,
                        vec![(b_rv, b.span)],
                        span,
                        false,
                    );
                }
            }
            let (av, at) = self.scalar(a_rv, a.span)?;
            let b_rv = self.expr(b)?;
            let (bv, bt) = self.scalar(b_rv, b.span)?;
            let (v, t) = self.scalar_binop(op, av, at, bv, bt, span)?;
            Ok(RV::Val(v, t))
        }
    }

    fn ternary(&mut self, c: &Expr, a: &Expr, b: &Expr, span: Span) -> Result<RV, CompileError> {
        let cv = self.cond(c)?;
        let tb = self.b.new_block();
        let eb = self.b.new_block();
        let join = self.b.new_block();
        self.b.cond_br(cv, tb, eb);
        // Then branch.
        self.b.switch_to(tb);
        let a_rv = self.expr(a)?;
        // Struct-valued ternary: copy into a shared temp.
        if let RV::Place { ty: STy::Struct(sidx), ptr: aptr } = a_rv {
            let size = self.env.info(sidx).size;
            // The temp alloca must be in a block dominating both arms;
            // emitting it here (then-arm) would not dominate the else-arm, so
            // copy both arms into a temp allocated... we instead allocate in
            // the then block and the else block separately and phi the ptr.
            let a_end = self.b.current_block();
            self.b.br(join);
            self.b.switch_to(eb);
            let b_rv = self.expr(b)?;
            let (bptr, bty) = self.place(b_rv, b.span)?;
            if bty != STy::Struct(sidx) {
                return Err(CompileError::new(span, "ternary arms have different types"));
            }
            let b_end = self.b.current_block();
            self.b.br(join);
            self.b.switch_to(join);
            let ptr =
                self.b.phi(IrType::Ptr(AddrSpace::Private), vec![(a_end, aptr), (b_end, bptr)]);
            let _ = size;
            return Ok(RV::Place { ptr, ty: STy::Struct(sidx) });
        }
        let (av, at) = self.scalar(a_rv, a.span)?;
        let a_end = self.b.current_block();
        self.b.br(join);
        // Else branch.
        self.b.switch_to(eb);
        let b_rv = self.expr(b)?;
        let (bv, bt) = self.scalar(b_rv, b.span)?;
        // Unify types; conversions emitted in the else block are fine for
        // the else value, but the then value must already match. Use the
        // simple rule: convert the else value to the then type.
        let (bv, _) = self.convert(bv, &bt, &at, span)?;
        let b_end = self.b.current_block();
        self.b.br(join);
        self.b.switch_to(join);
        let v = self.b.phi(at.ir(), vec![(a_end, av), (b_end, bv)]);
        Ok(RV::Val(v, at))
    }

    // ---- calls ----

    fn intrinsic_of(name: &str) -> Option<(Intrinsic, usize, STy)> {
        Some(match name {
            "sqrtf" => (Intrinsic::Sqrt, 1, STy::Float),
            "fabsf" => (Intrinsic::FAbs, 1, STy::Float),
            "floorf" => (Intrinsic::Floor, 1, STy::Float),
            "expf" => (Intrinsic::Exp, 1, STy::Float),
            "fminf" => (Intrinsic::FMin, 2, STy::Float),
            "fmaxf" => (Intrinsic::FMax, 2, STy::Float),
            "powf" => (Intrinsic::Pow, 2, STy::Float),
            "min" => (Intrinsic::SMin, 2, STy::Int),
            "max" => (Intrinsic::SMax, 2, STy::Int),
            "atomic_add" => (Intrinsic::AtomicAddI32, 2, STy::Int),
            "atomic_min" => (Intrinsic::AtomicMinI32, 2, STy::Int),
            "atomic_cas" => (Intrinsic::AtomicCasI32, 3, STy::Int),
            "device_malloc" => (Intrinsic::DeviceMalloc, 1, STy::Ptr(Box::new(STy::Void))),
            "push" => (Intrinsic::WlPush, 1, STy::Void),
            "global_id" => (Intrinsic::GlobalId, 0, STy::Int),
            "global_size" => (Intrinsic::GlobalSize, 0, STy::Int),
            "local_id" => (Intrinsic::LocalId, 0, STy::Int),
            "group_id" => (Intrinsic::GroupId, 0, STy::Int),
            "barrier" => (Intrinsic::Barrier, 0, STy::Void),
            _ => return None,
        })
    }

    fn call(&mut self, name: &str, args: &[Expr], span: Span) -> Result<RV, CompileError> {
        // Intrinsics first.
        if let Some((intr, arity, ret)) = Self::intrinsic_of(name) {
            if args.len() != arity {
                return Err(CompileError::new(
                    span,
                    format!("`{name}` expects {arity} arguments, got {}", args.len()),
                ));
            }
            let mut vals = Vec::new();
            for a in args {
                let rv = self.expr(a)?;
                let (v, t) = self.scalar(rv, a.span)?;
                // Float intrinsics take f32; integer intrinsics i32;
                // atomics take (ptr, i32...).
                let v = match (&intr, &t) {
                    (
                        Intrinsic::AtomicAddI32 | Intrinsic::AtomicMinI32 | Intrinsic::AtomicCasI32,
                        STy::Ptr(_),
                    ) => v,
                    (i, t) if !i.is_memory() && matches!(ret, STy::Float) => {
                        self.convert(v, t, &STy::Float, a.span)?.0
                    }
                    (_, t) => self.convert(v, t, &STy::Int, a.span)?.0,
                };
                vals.push(v);
            }
            let id = self.b.intrinsic(intr, vals, ret.ir());
            return Ok(RV::Val(id, ret));
        }
        // Free functions with overload resolution.
        if let Some(cands) = self.free_funcs.get(name) {
            let mut arg_rvs = Vec::new();
            for a in args {
                arg_rvs.push((self.expr(a)?, a.span));
            }
            let fid = self.resolve_overload(cands, &arg_rvs, span, name)?;
            return self.emit_call(fid, None, arg_rvs, span);
        }
        // Implicit method call on `this`.
        if let (Some(idx), Some(this)) = (self.method_of, self.this_val) {
            if !self.env.info(idx).methods_named(name).is_empty() {
                let mut arg_rvs = Vec::new();
                for a in args {
                    arg_rvs.push((self.expr(a)?, a.span));
                }
                return self.dispatch_method(idx, this, name, arg_rvs, span, true);
            }
        }
        Err(CompileError::new(span, format!("unknown function `{name}`")))
    }

    fn arg_ty(&self, rv: &RV) -> STy {
        match rv {
            RV::Val(_, t) => t.clone(),
            RV::Place { ty, .. } => ty.clone(),
        }
    }

    fn resolve_overload(
        &self,
        cands: &[FuncId],
        args: &[(RV, Span)],
        span: Span,
        name: &str,
    ) -> Result<FuncId, CompileError> {
        let mut best: Option<(i32, FuncId)> = None;
        let mut ambiguous = false;
        for &fid in cands {
            let sig = &self.sigs[fid.0 as usize];
            if sig.params.len() != args.len() {
                continue;
            }
            let mut score = 0;
            let mut ok = true;
            for ((rv, _), pty) in args.iter().zip(&sig.params) {
                let at = self.arg_ty(rv);
                if at == *pty {
                    score += 2;
                } else if self.is_convertible(&at, pty) {
                    score += 1;
                } else {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            match best {
                Some((bs, _)) if bs == score => ambiguous = true,
                Some((bs, _)) if bs > score => {}
                _ => {
                    best = Some((score, fid));
                    ambiguous = false;
                }
            }
        }
        match best {
            Some((_, fid)) if !ambiguous => Ok(fid),
            Some(_) => Err(CompileError::new(span, format!("ambiguous call to `{name}`"))),
            None => Err(CompileError::new(
                span,
                format!("no matching overload for `{name}` with {} arguments", args.len()),
            )),
        }
    }

    fn method_call(
        &mut self,
        recv: &Expr,
        through_ptr: bool,
        method: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<RV, CompileError> {
        let (base, sidx) = self.receiver_addr(recv, through_ptr)?;
        let mut arg_rvs = Vec::new();
        for a in args {
            arg_rvs.push((self.expr(a)?, a.span));
        }
        self.dispatch_method(sidx, base, method, arg_rvs, span, true)
    }

    /// Resolve and emit a method call (virtual or direct).
    fn dispatch_method(
        &mut self,
        sidx: usize,
        this: ValueId,
        method: &str,
        args: Vec<(RV, Span)>,
        span: Span,
        allow_virtual: bool,
    ) -> Result<RV, CompileError> {
        let info = self.env.info(sidx);
        let cands: Vec<MethodSig> = info.methods_named(method).into_iter().cloned().collect();
        if cands.is_empty() {
            return Err(CompileError::new(
                span,
                format!("no method `{method}` on `{}`", info.name),
            ));
        }
        // Overload resolution among methods.
        let mut best: Option<(i32, MethodSig)> = None;
        for m in cands {
            if m.params.len() != args.len() {
                continue;
            }
            let mut score = 0;
            let mut ok = true;
            for ((rv, _), pty) in args.iter().zip(&m.params) {
                let at = self.arg_ty(rv);
                if at == *pty {
                    score += 2;
                } else if self.is_convertible(&at, pty) {
                    score += 1;
                } else {
                    ok = false;
                    break;
                }
            }
            if ok && best.as_ref().is_none_or(|(bs, _)| score > *bs) {
                best = Some((score, m));
            }
        }
        let Some((_, m)) = best else {
            return Err(CompileError::new(
                span,
                format!("no matching overload for method `{method}`"),
            ));
        };
        let adjusted_this =
            if m.this_offset != 0 { self.b.gep_const(this, m.this_offset) } else { this };
        if allow_virtual && m.is_virtual {
            let class = self.env.info(sidx).class_id.expect("virtual method on class");
            let slot = m.slot.expect("virtual method has a slot");
            self.emit_virtual_call(class, slot, adjusted_this, m, args, span)
        } else {
            self.emit_call(m.func, Some(adjusted_this), args, span)
        }
    }

    /// Lower call arguments per the byval/sret conventions and emit.
    fn emit_call(
        &mut self,
        fid: FuncId,
        this: Option<ValueId>,
        args: Vec<(RV, Span)>,
        span: Span,
    ) -> Result<RV, CompileError> {
        let sig = self.sigs[fid.0 as usize].clone();
        let mut ir_args: Vec<ValueId> = Vec::new();
        let mut sret_tmp = None;
        if sig.has_sret {
            let STy::Struct(si) = &sig.ret else { unreachable!() };
            let size = self.env.info(*si).size;
            let tmp = self.b.alloca(size, 8);
            sret_tmp = Some(tmp);
            ir_args.push(tmp);
        }
        if let Some(t) = this {
            ir_args.push(t);
        }
        for ((rv, aspan), pty) in args.into_iter().zip(&sig.params) {
            match pty {
                STy::Struct(si) => {
                    let (src, sty) = self.place(rv, aspan)?;
                    if sty != *pty {
                        return Err(CompileError::new(aspan, "struct argument type mismatch"));
                    }
                    let size = self.env.info(*si).size;
                    let copy = self.b.alloca(size, 8);
                    self.memcpy(copy, src, size);
                    ir_args.push(copy);
                }
                pty => {
                    let (v, t) = self.scalar(rv, aspan)?;
                    let (v, _) = self.convert(v, &t, pty, aspan)?;
                    ir_args.push(v);
                }
            }
        }
        let ret_ir = if sig.has_sret { IrType::Void } else { sig.ret.ir() };
        let call = self.b.call(fid, ir_args, ret_ir);
        let _ = span;
        match sret_tmp {
            Some(tmp) => Ok(RV::Place { ptr: tmp, ty: sig.ret.clone() }),
            None if matches!(sig.ret, STy::Void) => Ok(RV::Val(call, STy::Void)),
            None => Ok(RV::Val(call, sig.ret.clone())),
        }
    }

    fn emit_virtual_call(
        &mut self,
        class: concord_ir::ClassId,
        slot: u32,
        this: ValueId,
        m: MethodSig,
        args: Vec<(RV, Span)>,
        span: Span,
    ) -> Result<RV, CompileError> {
        // sret + byval marshalling must happen once, before the dispatch.
        let mut ir_args: Vec<ValueId> = Vec::new();
        let mut sret_tmp = None;
        if matches!(m.ret, STy::Struct(_)) {
            let STy::Struct(si) = &m.ret else { unreachable!() };
            let size = self.env.info(*si).size;
            let tmp = self.b.alloca(size, 8);
            sret_tmp = Some(tmp);
            ir_args.push(tmp);
        }
        for ((rv, aspan), pty) in args.into_iter().zip(&m.params) {
            match pty {
                STy::Struct(si) => {
                    let (src, sty) = self.place(rv, aspan)?;
                    if sty != *pty {
                        return Err(CompileError::new(aspan, "struct argument type mismatch"));
                    }
                    let size = self.env.info(*si).size;
                    let copy = self.b.alloca(size, 8);
                    self.memcpy(copy, src, size);
                    ir_args.push(copy);
                }
                pty => {
                    let (v, t) = self.scalar(rv, aspan)?;
                    let (v, _) = self.convert(v, &t, pty, aspan)?;
                    ir_args.push(v);
                }
            }
        }
        let ret_ir = if sret_tmp.is_some() { IrType::Void } else { m.ret.ir() };
        let call = self.b.call_virtual(class, slot, this, ir_args, ret_ir);
        let _ = span;
        match sret_tmp {
            Some(tmp) => Ok(RV::Place { ptr: tmp, ty: m.ret.clone() }),
            None if matches!(m.ret, STy::Void) => Ok(RV::Val(call, STy::Void)),
            None => Ok(RV::Val(call, m.ret.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lower_src(src: &str) -> LoweredProgram {
        let prog = parse(src).unwrap();
        lower(&prog, src).unwrap()
    }

    #[test]
    fn figure1_lowers_and_verifies() {
        let lp = lower_src(
            r#"
            struct Node { Node* next; };
            class LoopBody {
            public:
                Node* nodes;
                void operator()(int i) {
                    nodes[i].next = &(nodes[i+1]);
                }
            };
            "#,
        );
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
        assert_eq!(lp.kernels.len(), 1);
        assert_eq!(lp.kernels[0].class_name, "LoopBody");
        assert!(lp.kernels[0].join_fn.is_none());
        assert!(lp.warnings.is_empty());
    }

    #[test]
    fn reduce_kernel_detected() {
        let lp = lower_src(
            r#"
            class Sum {
            public:
                float* data; float acc;
                void operator()(int i) { acc += data[i]; }
                void join(Sum* other) { acc += other->acc; }
            };
            "#,
        );
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
        assert!(lp.kernels[0].join_fn.is_some());
    }

    #[test]
    fn virtual_calls_lower_to_callvirtual() {
        let lp = lower_src(
            r#"
            class Shape {
            public:
                float r;
                virtual float area() { return 0.0f; }
            };
            class Circle : public Shape {
            public:
                float area() { return 3.14f * r * r; }
            };
            class K {
            public:
                Shape* s; float out;
                void operator()(int i) { out = s->area(); }
            };
            "#,
        );
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
        let kf = lp.kernel("K").unwrap().operator_fn;
        let f = lp.module.function(kf);
        let has_vcall = f.insts.iter().any(|i| matches!(i.op, Op::CallVirtual { .. }));
        assert!(has_vcall, "expected a virtual call:\n{}", concord_ir::printer::print_function(f));
        // Circle overrides slot 0.
        assert_eq!(lp.module.classes.len(), 2);
        assert_ne!(lp.module.classes[0].vtable[0], lp.module.classes[1].vtable[0]);
    }

    #[test]
    fn recursion_triggers_warning() {
        let lp = lower_src(
            r#"
            int fib(int n) {
                if (n < 2) return n;
                return fib(n-1) + fib(n-2);
            }
            class K {
            public:
                int out;
                void operator()(int i) { out = fib(i); }
            };
            "#,
        );
        assert_eq!(lp.warnings.len(), 1);
        assert!(lp.warnings[0].message.contains("recursion"));
    }

    /// The cycle closes only through the class hierarchy: `Chain::depth`
    /// calls `depth()` on a `Node*`, whose possible targets include itself.
    #[test]
    fn recursion_through_a_virtual_override_triggers_warning() {
        let lp = lower_src(
            r#"
            class Node {
            public:
                Node* next;
                virtual int depth() { return 0; }
            };
            class Chain : public Node {
            public:
                int depth() { return 1 + next->depth(); }
            };
            class K {
            public:
                Node* n; int out;
                void operator()(int i) { out = n->depth(); }
            };
            "#,
        );
        assert_eq!(lp.warnings.len(), 1, "{:?}", lp.warnings);
        assert_eq!(lp.warnings[0].function, "Chain::depth");
        assert_eq!(lp.warnings[0].message, "recursion is not supported on the GPU");
    }

    #[test]
    fn tail_recursion_becomes_loop() {
        let lp = lower_src(
            r#"
            int gcd(int a, int b) {
                if (b == 0) return a;
                return gcd(b, a % b);
            }
            class K {
            public:
                int x; int y; int out;
                void operator()(int i) { out = gcd(x, y); }
            };
            "#,
        );
        assert!(lp.warnings.is_empty(), "tail recursion should be eliminated: {:?}", lp.warnings);
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }

    #[test]
    fn operator_overloading_resolves() {
        let lp = lower_src(
            r#"
            struct vec3 {
                float x; float y; float z;
                vec3 operator+(vec3 o) {
                    vec3 r;
                    r.x = x + o.x; r.y = y + o.y; r.z = z + o.z;
                    return r;
                }
                float dot(vec3 o) { return x*o.x + y*o.y + z*o.z; }
            };
            class K {
            public:
                float out;
                void operator()(int i) {
                    vec3 a; vec3 b;
                    a.x = 1.0f; a.y = 2.0f; a.z = 3.0f;
                    b.x = 4.0f; b.y = 5.0f; b.z = 6.0f;
                    vec3 c = a + b;
                    out = c.dot(a);
                }
            };
            "#,
        );
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }

    #[test]
    fn short_circuit_and_ternary() {
        let lp = lower_src(
            r#"
            class K {
            public:
                int* data; int n; int out;
                void operator()(int i) {
                    if (i < n && data[i] > 0) { out = data[i] > 100 ? 100 : data[i]; }
                    out = (i > 0 || n > 0) ? out : 0;
                }
            };
            "#,
        );
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }

    #[test]
    fn multiple_inheritance_method_this_adjustment() {
        let lp = lower_src(
            r#"
            class A { public: int x; int getx() { return x; } };
            class B { public: int y; int gety() { return y; } };
            class C : public A, public B {
            public:
                int z;
                int sum() { return getx() + gety() + z; }
            };
            "#,
        );
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let prog = parse("void f() { x = 1; }").unwrap();
        let err = lower(&prog, "").unwrap_err();
        assert!(err.message.contains("unknown identifier"));
    }

    #[test]
    fn break_outside_loop_is_an_error() {
        let prog = parse("void f() { break; }").unwrap();
        let err = lower(&prog, "").unwrap_err();
        assert!(err.message.contains("outside a loop"));
    }

    #[test]
    fn type_mismatch_in_struct_assignment() {
        let prog = parse("struct A { int x; }; struct B { int y; }; void f() { A a; B b; a = b; }")
            .unwrap();
        let err = lower(&prog, "").unwrap_err();
        assert!(err.message.contains("mismatch"));
    }

    #[test]
    fn atomics_and_intrinsics_lower() {
        let lp = lower_src(
            r#"
            class K {
            public:
                int* dist; float* w;
                void operator()(int i) {
                    int old = atomic_min(&dist[i], 5);
                    w[i] = sqrtf(fmaxf(w[i], 0.0f));
                }
            };
            "#,
        );
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }

    #[test]
    fn source_info_counts_device_lines() {
        let src = r#"
            class K {
            public:
                int out;
                void operator()(int i) {
                    out = i;
                    out += 1;
                }
            };
        "#;
        let lp = lower_src(src);
        assert!(lp.source_info.device_lines >= 3);
        assert!(lp.source_info.total_lines >= 9);
    }

    #[test]
    fn local_arrays_decay() {
        let lp = lower_src(
            r#"
            class K {
            public:
                int out;
                void operator()(int i) {
                    int stack[8];
                    stack[0] = i;
                    int top = 1;
                    while (top > 0) { top--; out = stack[top]; }
                }
            };
            "#,
        );
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let lp = lower_src(
            r#"
            struct Node { Node* next; float v; };
            class K {
            public:
                Node* nodes; float out;
                void operator()(int i) {
                    Node* p = nodes + i;
                    out = p->v + (p+1)->v;
                }
            };
            "#,
        );
        assert!(concord_ir::verify::verify_module(&lp.module).is_ok());
    }
}
