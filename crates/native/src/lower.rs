//! Lowering from optimized `concord-ir` to x86-64 machine code.
//!
//! Every function becomes a native function with this internal convention:
//!
//! ```text
//! extern "sysv64" fn(env: *mut Env /* rdi */, args: *const u64 /* rsi */) -> u64
//! ```
//!
//! `args` points at the raw 64-bit bit patterns of the parameters (pointers
//! are raw addresses, floats are `f64` bits); the return value is likewise
//! the raw bits of the result. Inside a function:
//!
//! * `r15` pins the [`Env`] pointer, `r14` pins `CPU_BASE`, `rbp` is the
//!   frame pointer. `rbx`/`r12`/`r13` and `xmm2`–`xmm15` are the
//!   register-allocation pools (see [`crate::regalloc`]). `r11` holds the
//!   step budget left (`Env::steps`, written back around every call and
//!   on return); in a kernel `rdi` and `rsi` hold its chunk's item index
//!   and instruction tally. The other caller-saved registers are scratch.
//! * Each value lives where [`crate::regalloc`] put it for its whole life:
//!   a register of its class, a frame slot, or nowhere (constants are
//!   immediates or RIP-relative literals at each use). Phi edges are one
//!   sequentialized parallel move; a compare feeding only its block's
//!   branch becomes `cmp`+`jcc`.
//! * Traps never unwind: a trap stub records a code plus payload words in
//!   the environment and returns through every active frame, each one
//!   restoring the private stack pointer it saved on entry. The launch
//!   driver turns the cells back into the interpreter's `Trap` value.
//!   Trap stubs, address-classification slow paths and literals sit after
//!   the function body, so hot paths run without taken jumps.
//!
//! A `ForBody` kernel has a second entry, the **chunk entry**, which the
//! launch driver calls once per chunk with no arguments: the function's
//! body is emitted once, and the chunk entry runs it for every work item
//! of the chunk described in the [`Env`].
//!
//! * The chunk entry is `xor rsi, rsi` three bytes before the normal entry
//!   (so it, not the normal entry, is the 16-aligned one): the prologue
//!   runs once per chunk. A null argument pointer means a chunk. A
//!   kernel's prologue stores where its `ret` goes in a frame cell, the
//!   **return cell**: the shared exit when it was called (a kernel reached
//!   by a direct, virtual or recursive call), the **latch** in a chunk.
//! * The loop head publishes the item index as `global_id`, refills
//!   `steps` from `budget` and sets the parameters — `arg0`, and the item
//!   id or its frontier entry. The latch adds the item's instructions to
//!   the tally and loops until `item_end`, then leaves through the shared
//!   exit, which writes `steps` and the tally back. There are two
//!   latches, one per item source (the id, or a worklist round's
//!   frontier), and the prologue points the return cell at one of them
//!   once per chunk.
//! * **Body fields once per chunk.** `field_promote` leaves a kernel's
//!   never-stored field loads at the head of its entry block (see
//!   `regalloc::body_field_prefix`); their values keep their homes for the
//!   whole function. When the launch writes nothing in the body's block
//!   (`Env::body_invariant`, decided by the runtime from the kernel's
//!   access summary), the prologue points the chunk's later items past
//!   those loads: they charge the entry block's full length, as the first
//!   item did, and resume after the loads. Otherwise every item enters
//!   the entry block at its top.
//! * Per-item state needs no reset: an item that returns has restored the
//!   private stack pointer and the call depth and set no trap, so every
//!   item gets the same private frame. A trap leaves through the shared
//!   exit as always, ending the chunk at the trapped item; a trap in the
//!   prologue happens before the first item.
//!
//! Interpreter parity is the design center — the differential battery
//! demands byte-identical region output and identical traps:
//!
//! * The step budget is pre-charged per block (`sub r11, len`; trap when
//!   negative), which traps on exactly the same launches as the
//!   interpreter's per-instruction check.
//! * Address-space classification is by range, exactly as the
//!   interpreter classifies every pointer it dereferences: below
//!   `CPU_BASE` is private, `[CPU_BASE, GPU_BASE)` is shared CPU space,
//!   above is GPU space. The fused check `addr - CPU_BASE <= region_len - size`
//!   dispatches the hot shared-CPU case in two instructions. (Pointer
//!   *tags* exist only in the interpreter; IR that manufactures a
//!   mistagged pointer via `inttoptr` could diverge, but the frontend
//!   never emits such IR — see DESIGN.md.)
//! * Pointer-typed stores to shared memory replicate `write_val`'s
//!   encode-before-resolve order: the stored value's space is checked
//!   before the target address's bounds.
//! * Division, shifts, narrow-int wrapping, float-through-`f32` rounding
//!   and NaN-sensitive intrinsics all mirror `concord_ir::eval` — the
//!   NaN-asymmetric `FMin`/`FMax` and the saturating `FpToSi` go through
//!   tiny Rust helpers so the semantics are identical by construction.
//!   Float ops keep the interpreter's operand order, so a NaN result
//!   carries the same payload.

use crate::asm::{Alu, Asm, Cc, Label, Mem, Opnd, Reg, Sse, XOpnd, Xmm};
use crate::env::{
    h_device_malloc, h_exp, h_f2i, h_floor, h_fmax, h_fmin, h_pow, h_wl_push, Env, MAX_DEPTH,
    OFF_ARG0, OFF_BODY_INVARIANT, OFF_BUDGET, OFF_CLASS_COUNT, OFF_CODE_PTRS, OFF_DEPTH,
    OFF_GLOBAL_ID, OFF_GLOBAL_SIZE, OFF_GPU_BASE, OFF_INSTS, OFF_ITEMS, OFF_ITEM_END,
    OFF_LIMIT_CPU, OFF_LIMIT_PRIV, OFF_LOCAL_ID, OFF_NFUNCS, OFF_PRIV_BASE, OFF_PRIV_LEN,
    OFF_PRIV_SP, OFF_REGION_BASE, OFF_STEPS, OFF_TRAP_A, OFF_TRAP_B, OFF_TRAP_CODE, PRIVATE_BASE,
    TRAP_BAD_ADDRESS, TRAP_BAD_DISPATCH, TRAP_DIV_ZERO, TRAP_STACK_OVERFLOW, TRAP_STEP_LIMIT,
    TRAP_UNREACHABLE, TRAP_WRONG_SPACE,
};
use crate::regalloc::{allocate, is_call, is_float, Loc};
use crate::CompileError;
use concord_cpusim::program::frame_layout;
use concord_ir::inst::{BinOp, CastOp, FCmp, ICmp, Intrinsic, Op};
use concord_ir::types::{AddrSpace, Type};
use concord_ir::{BlockId, Function, KernelKind, Module, ValueId};
use concord_svm::{CPU_BASE, SVM_CONST, VTABLE_MAGIC};

/// Space payload codes shared with [`Env::take_trap`].
const SPACE_CPU: i64 = 0;
const SPACE_GPU: i64 = 1;
const SPACE_PRIVATE: i64 = 2;
const SPACE_LOCAL: i64 = 3;

/// Frame slot `i` is `[rbp - SLOT_BASE - 8i]`, below the five saved
/// registers and three fixed cells (`rbp-48` saved private sp, `rbp-56`
/// private frame base, `rbp-64` virtual-call target).
const SLOT_BASE: i32 = 72;

/// A lowered module: one flat code image plus the entry offsets of every
/// function, indexed by `FuncId`.
pub(crate) struct Lowered {
    /// Machine code for all functions.
    pub code: Vec<u8>,
    /// Byte offset of each function's entry point.
    pub offsets: Vec<usize>,
    /// Byte offset of each `ForBody` function's chunk entry.
    pub chunk_offsets: Vec<Option<usize>>,
}

/// Lower every function in `module`.
pub(crate) fn lower_module(module: &Module) -> Result<Lowered, CompileError> {
    let mut a = Asm::new();
    let mut offsets = Vec::with_capacity(module.functions.len());
    let mut chunk_offsets = Vec::with_capacity(module.functions.len());
    for f in &module.functions {
        a.align(16);
        let (entry, chunk) = FnLower::new(&mut a, f)?.emit()?;
        offsets.push(entry);
        chunk_offsets.push(chunk);
    }
    Ok(Lowered { code: a.finish(), offsets, chunk_offsets })
}

fn log2_size(ty: Type) -> i32 {
    match ty.size() {
        1 => 0,
        2 => 1,
        4 => 2,
        _ => 3,
    }
}

fn slot(i: u32) -> Mem {
    Mem::b(Reg::Rbp, -(SLOT_BASE + 8 * i as i32))
}

/// When a branch is taken, after a compare.
#[derive(Debug, Clone, Copy)]
enum Jcc {
    If(Cc),
    /// Ordered and equal: ZF set, PF clear.
    OrdEq,
    /// Unordered or unequal: the complement of [`Jcc::OrdEq`].
    UnordNe,
}

impl Jcc {
    fn not(self) -> Jcc {
        match self {
            Jcc::If(cc) => Jcc::If(cc.not()),
            Jcc::OrdEq => Jcc::UnordNe,
            Jcc::UnordNe => Jcc::OrdEq,
        }
    }
}

/// The out-of-line half of one access's address classification.
struct SlowPath {
    entry: Label,
    resume: Label,
    addr: Reg,
    lg: i32,
}

/// Per-function lowering state.
struct FnLower<'a> {
    a: &'a mut Asm,
    f: &'a Function,
    loc: Vec<Loc>,
    order: Vec<BlockId>,
    alloca_off: Vec<u64>,
    frame_size: u64,
    labels: Vec<Label>,
    /// Each block's position after its step pre-charge.
    charged: Vec<Label>,
    /// The block laid out after the one being emitted.
    next: Option<BlockId>,
    /// The instruction being emitted.
    cur: ValueId,
    /// `-arg_base + 8j` is outgoing call argument `j`.
    arg_base: i32,
    /// `sub rsp, frame` amount (keeps `rsp % 16 == 0` in the body).
    frame: i32,
    slow: Vec<SlowPath>,
    /// RIP-relative literals: raw bits and their labels, in first-use order.
    lits: Vec<(i64, Label)>,
    /// A `ForBody` function's frame cell holding where its `ret` goes:
    /// the shared exit when it was called, the latch in a chunk.
    ret_cell: Option<Mem>,
    /// The item loop's latches: finish one work item, start the next,
    /// in a `for` launch and in a worklist round.
    latch: Label,
    latch_wl: Label,
    /// Leading entry-block instructions that load body fields (see
    /// `regalloc::body_field_prefix`); `reenter` follows them.
    prefix: usize,
    reenter: Label,
    /// Frame cell holding where a chunk's later items enter: the entry
    /// block, or `reenter` when the body is invariant.
    entry_cell: Mem,
    t_div: Label,
    t_bad: Label,
    t_was: Label,
    t_unreach: Label,
    t_bvd: Label,
    t_so: Label,
    t_steps: Label,
    bail: Label,
}

impl<'a> FnLower<'a> {
    fn new(a: &'a mut Asm, f: &'a Function) -> Result<Self, CompileError> {
        let alloc = allocate(f);
        let kernel = f.kernel == Some(KernelKind::ForBody);
        let prefix = alloc.prefix;
        let slots = alloc.slots + u32::from(kernel) + u32::from(prefix > 0);
        let (alloca_off, frame_size) = frame_layout(f);
        let nargs = f
            .insts
            .iter()
            .map(|inst| match &inst.op {
                Op::Call { args, .. } => args.len(),
                Op::CallVirtual { args, .. } => args.len() + 1,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let arg_base = i64::from(SLOT_BASE) + 8 * i64::from(slots) + 8 * nargs as i64;
        // Usable frame bytes start at rbp-48 (below the 5 pushed registers);
        // keep rsp 16-aligned in the body: frame ≡ 8 (mod 16).
        let mut frame = arg_base - 40;
        if frame % 16 != 8 {
            frame += 8;
        }
        let (Ok(arg_base), Ok(frame)) = (i32::try_from(arg_base), i32::try_from(frame)) else {
            return Err(CompileError::TooLarge(f.name.clone()));
        };
        if frame_size > i32::MAX as u64 {
            return Err(CompileError::TooLarge(f.name.clone()));
        }
        Ok(FnLower {
            labels: f.blocks.iter().map(|_| a.label()).collect(),
            charged: f.blocks.iter().map(|_| a.label()).collect(),
            t_div: a.label(),
            t_bad: a.label(),
            t_was: a.label(),
            t_unreach: a.label(),
            t_bvd: a.label(),
            t_so: a.label(),
            t_steps: a.label(),
            bail: a.label(),
            latch: a.label(),
            latch_wl: a.label(),
            ret_cell: kernel.then(|| slot(alloc.slots)),
            prefix,
            reenter: a.label(),
            entry_cell: slot(alloc.slots + 1),
            a,
            f,
            loc: alloc.loc,
            order: alloc.order,
            alloca_off,
            frame_size,
            next: None,
            cur: ValueId(0),
            arg_base,
            frame,
            slow: Vec::new(),
            lits: Vec::new(),
        })
    }

    // ---- value access ----

    fn loc(&self, v: ValueId) -> Loc {
        self.loc[v.0 as usize]
    }

    fn argslot(&self, j: usize) -> Mem {
        Mem::b(Reg::Rbp, -self.arg_base + 8 * j as i32)
    }

    /// A RIP-relative literal holding `bits`.
    fn lit(&mut self, bits: i64) -> Mem {
        let l = match self.lits.iter().find(|&&(b, _)| b == bits) {
            Some(&(_, l)) => l,
            None => {
                let l = self.a.label();
                self.lits.push((bits, l));
                l
            }
        };
        Mem::lit(l)
    }

    /// The raw bits at `at` in a general register: its own, or `want`
    /// after a load. The caller must not clobber the result unless it
    /// equals `want`.
    fn gpr_at(&mut self, at: Loc, want: Reg) -> Reg {
        match at {
            Loc::Gpr(r) => r,
            Loc::Xmm(x) => {
                self.a.movq_rx(want, x);
                want
            }
            Loc::Slot(i) => {
                self.a.mov_rm(want, slot(i));
                want
            }
            Loc::Const(c) => {
                self.a.mov_ri(want, c);
                want
            }
            Loc::None | Loc::Fused => panic!("{} reads a value with no home", self.cur),
        }
    }

    fn gpr(&mut self, v: ValueId, want: Reg) -> Reg {
        self.gpr_at(self.loc(v), want)
    }

    /// Force `v` into `dst` (a register the caller may clobber).
    fn gpr_into(&mut self, v: ValueId, dst: Reg) {
        let r = self.gpr(v, dst);
        if r != dst {
            self.a.mov_rr(dst, r);
        }
    }

    /// `v` as the second operand of an integer op: its register, its
    /// slot, an imm32, or `want` holding a wide constant.
    fn opnd(&mut self, v: ValueId, want: Reg) -> Opnd {
        match self.loc(v) {
            Loc::Slot(i) => Opnd::M(slot(i)),
            Loc::Const(c) if i32::try_from(c).is_ok() => Opnd::I(c as i32),
            at => Opnd::R(self.gpr_at(at, want)),
        }
    }

    /// The float at `at` as an SSE source operand.
    fn xopnd_at(&mut self, at: Loc) -> XOpnd {
        match at {
            Loc::Xmm(x) => XOpnd::X(x),
            Loc::Slot(i) => XOpnd::M(slot(i)),
            Loc::Const(c) => XOpnd::M(self.lit(c)),
            _ => panic!("{} reads a float with no float home", self.cur),
        }
    }

    fn xopnd(&mut self, v: ValueId) -> XOpnd {
        self.xopnd_at(self.loc(v))
    }

    /// Float `v` in an xmm register: its own, or `want` after a load.
    fn xmm(&mut self, v: ValueId, want: Xmm) -> Xmm {
        match self.xopnd(v) {
            XOpnd::X(x) => x,
            m => {
                self.a.sse(Sse::MovSd, want, m);
                want
            }
        }
    }

    fn xmm_into(&mut self, v: ValueId, dst: Xmm) {
        let x = self.xmm(v, dst);
        if x != dst {
            self.a.sse(Sse::MovApd, dst, XOpnd::X(x));
        }
    }

    /// The register to compute `id` into: its own, or `scratch`. It may
    /// be the register of an operand that dies at `id`.
    fn dst(&self, id: ValueId, scratch: Reg) -> Reg {
        match self.loc(id) {
            Loc::Gpr(r) => r,
            _ => scratch,
        }
    }

    fn xdst(&self, id: ValueId, scratch: Xmm) -> Xmm {
        match self.loc(id) {
            Loc::Xmm(x) => x,
            _ => scratch,
        }
    }

    /// Move raw bits between two homes (`rax` is the temporary for a
    /// memory-to-memory move).
    fn mov(&mut self, dst: Loc, src: Loc) {
        match dst {
            Loc::Gpr(d) => {
                let r = self.gpr_at(src, d);
                if r != d {
                    self.a.mov_rr(d, r);
                }
            }
            Loc::Xmm(d) => match src {
                Loc::Gpr(r) => self.a.movq_xr(d, r),
                Loc::Xmm(x) if x == d => {}
                _ => {
                    let s = self.xopnd_at(src);
                    let op = if matches!(s, XOpnd::X(_)) { Sse::MovApd } else { Sse::MovSd };
                    self.a.sse(op, d, s);
                }
            },
            Loc::Slot(i) => self.store(slot(i), src),
            Loc::None | Loc::Const(_) | Loc::Fused => unreachable!("not a destination"),
        }
    }

    /// Store the raw bits at `src` to memory.
    fn store(&mut self, m: Mem, src: Loc) {
        match src {
            Loc::Xmm(x) => self.a.movsd_mx(m, x),
            Loc::Const(c) if i32::try_from(c).is_ok() => self.a.mov_mi(m, c as i32),
            _ => {
                let r = self.gpr_at(src, Reg::Rax);
                self.a.mov_mr(m, r);
            }
        }
    }

    /// Store the raw bits of `id`, computed in `r`, to `id`'s home.
    fn put(&mut self, id: ValueId, r: Reg) {
        match self.loc(id) {
            Loc::None => {}
            at => self.mov(at, Loc::Gpr(r)),
        }
    }

    /// Store float `id`, computed in `x`, to `id`'s home.
    fn xput(&mut self, id: ValueId, x: Xmm) {
        match self.loc(id) {
            Loc::None => {}
            at => self.mov(at, Loc::Xmm(x)),
        }
    }

    /// `wrap_int`: sign-extend the low `ty` bits (and mask to one bit for
    /// `i1`), the invariant every interpreter result maintains.
    fn wrap(&mut self, r: Reg, ty: Type) {
        match ty {
            Type::I1 => self.a.alu_ri(Alu::And, r, 1),
            Type::I8 => self.a.movsx8_rr(r, r),
            Type::I16 => self.a.movsx16_rr(r, r),
            Type::I32 => self.a.movsxd_rr(r, r),
            _ => {}
        }
    }

    /// Zero out everything above the low `ty` bits (the `LShr`/`Zext`
    /// source mask).
    fn mask_low(&mut self, r: Reg, ty: Type) {
        match ty {
            Type::I1 => self.a.alu_ri(Alu::And, r, 1),
            Type::I8 => self.a.movzx8_rr(r, r),
            Type::I16 => self.a.movzx16_rr(r, r),
            Type::I32 => self.a.mov_rr32(r, r),
            _ => {}
        }
    }

    /// Round-through-`f32` when the result type demands it.
    fn round_f32(&mut self, ty: Type, x: Xmm) {
        if ty == Type::F32 {
            self.a.sse(Sse::Sd2Ss, x, XOpnd::X(x));
            self.a.sse(Sse::Ss2Sd, x, XOpnd::X(x));
        }
    }

    fn env(&self, off: i32) -> Mem {
        Mem::b(Reg::R15, off)
    }

    // ---- function skeleton ----

    /// Emit the function; returns the offsets of its entry and, for a
    /// kernel, of its chunk entry.
    fn emit(mut self) -> Result<(usize, Option<usize>), CompileError> {
        let chunk = self.ret_cell.map(|_| {
            let at = self.a.here();
            // The chunk entry: no argument pointer, then the entry proper.
            self.a.alu_rr(Alu::Xor, Reg::Rsi, Reg::Rsi);
            at
        });
        let entry = self.a.here();
        self.prologue();
        let f = self.f;
        let order = std::mem::take(&mut self.order);
        for (i, &b) in order.iter().enumerate() {
            self.next = order.get(i + 1).copied();
            self.a.bind(self.labels[b.0 as usize]);
            let insts = &f.block(b).insts;
            // Pre-charge the whole block against the step budget; traps on
            // exactly the launches where the interpreter's per-instruction
            // `budget == 0` check fires.
            let next = self.forward(b).map_or(0, |t| f.block(t).insts.len());
            self.charge(insts.len() + next);
            self.a.bind(self.charged[b.0 as usize]);
            for (j, &id) in insts.iter().enumerate() {
                self.cur = id;
                self.emit_inst(b, id)?;
                if b == f.entry() && j + 1 == self.prefix {
                    // A later item of an invariant body enters here: it
                    // charges the entry block as the first item did and
                    // skips the field loads.
                    let resume = self.a.label();
                    self.a.jmp(resume);
                    self.a.bind(self.reenter);
                    self.charge(insts.len());
                    self.a.bind(resume);
                }
            }
        }
        self.stubs();
        Ok((entry, chunk))
    }

    fn prologue(&mut self) {
        let a = &mut *self.a;
        a.push(Reg::Rbp);
        a.mov_rr(Reg::Rbp, Reg::Rsp);
        for r in [Reg::Rbx, Reg::R12, Reg::R13, Reg::R14, Reg::R15] {
            a.push(r);
        }
        a.alu_ri(Alu::Sub, Reg::Rsp, self.frame);
        a.mov_rr(Reg::R15, Reg::Rdi);
        // Load the loop state the shared exit writes back before any trap
        // can fire: the step budget left and, in a kernel, the instruction
        // tally (its argument pointer moves to rdx).
        a.mov_rm(Reg::R11, Mem::b(Reg::R15, OFF_STEPS));
        let args = if self.ret_cell.is_some() {
            a.mov_rr(Reg::Rdx, Reg::Rsi);
            a.mov_rm(Reg::Rsi, Mem::b(Reg::R15, OFF_INSTS));
            Reg::Rdx
        } else {
            Reg::Rsi
        };
        a.mov_ri(Reg::R14, CPU_BASE as i64);
        // Save the private sp for the unwind path *before* any trap can
        // fire, so `bail` always restores a meaningful value.
        a.mov_rm(Reg::Rax, Mem::b(Reg::R15, OFF_PRIV_SP));
        a.mov_mr(Mem::b(Reg::Rbp, -48), Reg::Rax);
        // Call-depth guard (`depth > MAX_DEPTH` → StackOverflow).
        a.cmp_mi(Mem::b(Reg::R15, OFF_DEPTH), MAX_DEPTH as i32);
        a.jcc(Cc::G, self.t_so);
        // Push the private frame: base = align16(sp), sp = base + size.
        a.alu_ri(Alu::Add, Reg::Rax, 15);
        a.alu_ri(Alu::And, Reg::Rax, -16);
        a.mov_rr(Reg::Rcx, Reg::Rax);
        a.alu_ri(Alu::Add, Reg::Rcx, PRIVATE_BASE as i32);
        a.mov_mr(Mem::b(Reg::Rbp, -56), Reg::Rcx);
        if self.frame_size > 0 {
            a.alu_ri(Alu::Add, Reg::Rax, self.frame_size as i32);
        }
        a.alu_rm(Alu::Cmp, Reg::Rax, Mem::b(Reg::R15, OFF_PRIV_LEN));
        a.jcc(Cc::A, self.t_so);
        a.mov_mr(Mem::b(Reg::R15, OFF_PRIV_SP), Reg::Rax);
        let params = self.f.params.len();
        let Some(cell) = self.ret_cell else {
            (0..params).for_each(|i| self.load_param(i, Mem::b(args, 8 * i as i32), Reg::Rax));
            return;
        };
        // A kernel's argument pointer is null in a chunk. Its `ret` leaves
        // when it was called and finishes the item in a chunk.
        let entry = self.labels[self.f.entry().0 as usize];
        let chunk = self.a.label();
        self.a.test_rr(args, args);
        self.a.jcc(Cc::E, chunk);
        self.a.lea(Reg::Rax, Mem::lit(self.bail));
        self.a.mov_mr(cell, Reg::Rax);
        (0..params).for_each(|i| self.load_param(i, Mem::b(args, 8 * i as i32), Reg::Rax));
        self.a.jmp(entry);
        self.a.bind(chunk);
        self.a.lea(Reg::Rax, Mem::lit(self.latch));
        self.a.lea(Reg::Rcx, Mem::lit(self.latch_wl));
        self.a.cmp_mi(self.env(OFF_ITEMS), 0);
        self.a.cmovcc(Cc::Ne, Reg::Rax, Reg::Rcx);
        self.a.mov_mr(cell, Reg::Rax);
        if self.prefix > 0 {
            // Later items skip the body-field loads when no write of the
            // launch lands in the body's block.
            self.a.lea(Reg::Rax, Mem::lit(entry));
            self.a.lea(Reg::Rcx, Mem::lit(self.reenter));
            self.a.cmp_mi(self.env(OFF_BODY_INVARIANT), 0);
            self.a.cmovcc(Cc::Ne, Reg::Rax, Reg::Rcx);
            self.a.mov_mr(self.entry_cell, Reg::Rax);
        }
        self.a.mov_rm(Reg::Rdi, self.env(OFF_GLOBAL_ID));
        self.item_start(None);
    }

    /// Load parameter `i`'s raw bits from `m` into its home; `tmp` carries
    /// them to a frame slot.
    fn load_param(&mut self, i: usize, m: Mem, tmp: Reg) {
        match self.loc(ValueId(i as u32)) {
            Loc::Gpr(r) => self.a.mov_rm(r, m),
            Loc::Xmm(x) => self.a.sse(Sse::MovSd, x, XOpnd::M(m)),
            Loc::Slot(s) => {
                self.a.mov_rm(tmp, m);
                self.a.mov_mr(slot(s), tmp);
            }
            _ => {}
        }
    }

    /// The head of a chunk's item loop, with the item index in `rdi`:
    /// publish it as `global_id`, refill the step budget, then load the
    /// parameters — `arg0`, and the item's own id or, in a worklist round
    /// (`frontier`; `None` tests `Env::items`), its frontier entry
    /// sign-extended.
    fn item_start(&mut self, frontier: Option<bool>) {
        let item = (self.f.params.len() > 1).then(|| self.loc(ValueId(1)));
        let a = &mut *self.a;
        a.mov_mr(Mem::b(Reg::R15, OFF_GLOBAL_ID), Reg::Rdi);
        a.mov_rm(Reg::R11, Mem::b(Reg::R15, OFF_BUDGET));
        if let Some(home) = item.filter(|&l| l != Loc::None) {
            let items = Mem::b(Reg::R15, OFF_ITEMS);
            let from = match frontier {
                Some(false) => Reg::Rdi,
                Some(true) => {
                    a.mov_rm(Reg::Rcx, items);
                    a.movsxd_rm(Reg::Rax, Mem::bi4(Reg::Rcx, Reg::Rdi));
                    Reg::Rax
                }
                None => {
                    let have = a.label();
                    a.mov_rr(Reg::Rax, Reg::Rdi);
                    a.mov_rm(Reg::Rcx, items);
                    a.test_rr(Reg::Rcx, Reg::Rcx);
                    a.jcc(Cc::E, have);
                    a.movsxd_rm(Reg::Rax, Mem::bi4(Reg::Rcx, Reg::Rdi));
                    a.bind(have);
                    Reg::Rax
                }
            };
            self.mov(home, Loc::Gpr(from));
        }
        if !self.f.params.is_empty() {
            self.load_param(0, self.env(OFF_ARG0), Reg::Rcx);
        }
    }

    /// The block `b` branches to when `b` does nothing else, unless that
    /// block only branches too: `b` then charges both blocks and jumps
    /// past its successor's charge. The two checks run back to back
    /// either way, with nothing observable between them, so a trap is
    /// the same trap.
    fn forward(&self, b: BlockId) -> Option<BlockId> {
        let only_br = |b: BlockId| match self.f.block(b).insts.as_slice() {
            &[t] => match self.f.inst(t).op {
                Op::Br(to) => Some(to),
                _ => None,
            },
            _ => None,
        };
        only_br(b).filter(|&t| t != b && only_br(t).is_none())
    }

    /// Pre-charge a block of `len` instructions against the step budget.
    fn charge(&mut self, len: usize) {
        self.a.alu_ri(Alu::Sub, Reg::R11, len as i32);
        self.a.jcc(Cc::S, self.t_steps);
    }

    /// Trap stubs, the shared return path, the slow paths and literals.
    /// Trap stubs expect their payload in `rax` (+ `rcx` for the two-word
    /// traps).
    fn stubs(&mut self) {
        let (code_cell, a_cell, b_cell) =
            (self.env(OFF_TRAP_CODE), self.env(OFF_TRAP_A), self.env(OFF_TRAP_B));
        for sp in std::mem::take(&mut self.slow) {
            self.slow_path(sp);
        }
        let a = &mut *self.a;
        for (label, code) in [
            (self.t_div, TRAP_DIV_ZERO),
            (self.t_unreach, TRAP_UNREACHABLE),
            (self.t_so, TRAP_STACK_OVERFLOW),
            (self.t_steps, TRAP_STEP_LIMIT),
        ] {
            a.bind(label);
            a.mov_mi(code_cell, code as i32);
            a.jmp(self.bail);
        }
        a.bind(self.t_bad);
        a.mov_mr(a_cell, Reg::Rax);
        a.mov_mr(b_cell, Reg::Rcx);
        a.mov_mi(code_cell, TRAP_BAD_ADDRESS as i32);
        a.jmp(self.bail);
        a.bind(self.t_was);
        a.mov_mr(a_cell, Reg::Rax);
        a.mov_mr(b_cell, Reg::Rcx);
        a.mov_mi(code_cell, TRAP_WRONG_SPACE as i32);
        a.jmp(self.bail);
        a.bind(self.t_bvd);
        a.mov_mr(a_cell, Reg::Rax);
        a.mov_mi(code_cell, TRAP_BAD_DISPATCH as i32);
        a.jmp(self.bail);
        if self.ret_cell.is_some() {
            // The item loop's latches: tally the finished item's
            // instructions, then start the next item or leave the chunk.
            let entry = self.labels[self.f.entry().0 as usize];
            for (latch, frontier) in [(self.latch, false), (self.latch_wl, true)] {
                let a = &mut *self.a;
                a.bind(latch);
                a.alu_rm(Alu::Add, Reg::Rsi, Mem::b(Reg::R15, OFF_BUDGET));
                a.alu_rr(Alu::Sub, Reg::Rsi, Reg::R11);
                a.alu_ri(Alu::Add, Reg::Rdi, 1);
                a.alu_rm(Alu::Cmp, Reg::Rdi, Mem::b(Reg::R15, OFF_ITEM_END));
                a.jcc(Cc::Ge, self.bail);
                self.item_start(Some(frontier));
                if self.prefix > 0 {
                    self.a.jmp_m(self.entry_cell);
                } else {
                    self.a.jmp(entry);
                }
            }
        }
        // Shared exit: write the loop state back, pop the private frame,
        // restore saved registers.
        let a = &mut *self.a;
        a.bind(self.bail);
        a.mov_mr(Mem::b(Reg::R15, OFF_STEPS), Reg::R11);
        if self.ret_cell.is_some() {
            a.mov_mr(Mem::b(Reg::R15, OFF_INSTS), Reg::Rsi);
        }
        a.mov_rm(Reg::Rcx, Mem::b(Reg::Rbp, -48));
        a.mov_mr(Mem::b(Reg::R15, OFF_PRIV_SP), Reg::Rcx);
        a.lea(Reg::Rsp, Mem::b(Reg::Rbp, -40));
        for r in [Reg::R15, Reg::R14, Reg::R13, Reg::R12, Reg::Rbx, Reg::Rbp] {
            a.pop(r);
        }
        a.ret();
        if !self.lits.is_empty() {
            a.align(8);
            for &(bits, l) in &self.lits {
                a.bind(l);
                a.data64(bits as u64);
            }
        }
    }

    // ---- control flow ----

    /// The parallel move of the edge `from -> to`: one `(destination,
    /// source)` per live phi of `to` whose input is not already home.
    fn edge(&self, from: BlockId, to: BlockId) -> Vec<(Loc, Loc)> {
        let mut moves = Vec::new();
        for &p in &self.f.block(to).insts {
            let Op::Phi(incoming) = &self.f.inst(p).op else { break };
            let dst = self.loc(p);
            let (_, src) = incoming
                .iter()
                .find(|(b, _)| *b == from)
                .expect("verifier guarantees an incoming value per predecessor");
            if dst != Loc::None && self.loc(*src) != dst {
                moves.push((dst, self.loc(*src)));
            }
        }
        moves
    }

    /// Sequentialize a parallel move: emit any move whose destination no
    /// pending move still reads; when only cycles remain, park one
    /// destination's value in a scratch (`xmm0` or `rcx`) and redirect
    /// its readers. Destinations are distinct, so each cycle unwinds
    /// completely before the next one needs the scratch.
    fn emit_moves(&mut self, mut moves: Vec<(Loc, Loc)>) {
        while !moves.is_empty() {
            let free = (0..moves.len()).find(|&i| moves.iter().all(|&(_, s)| s != moves[i].0));
            match free {
                Some(i) => {
                    let (d, s) = moves.remove(i);
                    self.mov(d, s);
                }
                None => {
                    let d = moves[0].0;
                    let park = if matches!(d, Loc::Xmm(_)) {
                        Loc::Xmm(Xmm::X0)
                    } else {
                        Loc::Gpr(Reg::Rcx)
                    };
                    self.mov(park, d);
                    for m in &mut moves {
                        if m.1 == d {
                            m.1 = park;
                        }
                    }
                }
            }
        }
    }

    /// `jmp` to `t` unless it is laid out next.
    fn jump_to(&mut self, t: BlockId) {
        if self.next != Some(t) {
            self.a.jmp(self.labels[t.0 as usize]);
        }
    }

    fn jump_if(&mut self, j: Jcc, l: Label) {
        match j {
            Jcc::If(cc) => self.a.jcc(cc, l),
            Jcc::OrdEq => {
                let skip = self.a.label();
                self.a.jcc(Cc::P, skip);
                self.a.jcc(Cc::E, l);
                self.a.bind(skip);
            }
            Jcc::UnordNe => {
                self.a.jcc(Cc::P, l);
                self.a.jcc(Cc::Ne, l);
            }
        }
    }

    fn emit_condbr(&mut self, b: BlockId, c: ValueId, t: BlockId, e: BlockId) {
        let cond = if self.loc(c) == Loc::Fused {
            self.compare(c)
        } else {
            match self.loc(c) {
                Loc::Slot(i) => self.a.cmp_mi(slot(i), 0),
                _ => {
                    let r = self.gpr(c, Reg::Rax);
                    self.a.test_rr(r, r);
                }
            }
            Jcc::If(Cc::Ne)
        };
        // The edge into the block laid out next goes last, so it falls
        // through; the other one is a conditional jump, through its moves
        // if it has any.
        let (mut first, mut last) = ((t, cond), (e, cond.not()));
        if self.next == Some(t) {
            std::mem::swap(&mut first, &mut last);
        }
        let (to, when) = first;
        let moves = self.edge(b, to);
        if moves.is_empty() {
            self.jump_if(when, self.labels[to.0 as usize]);
        } else {
            let skip = self.a.label();
            self.jump_if(when.not(), skip);
            self.emit_moves(moves);
            self.a.jmp(self.labels[to.0 as usize]);
            self.a.bind(skip);
        }
        let moves = self.edge(b, last.0);
        self.emit_moves(moves);
        self.jump_to(last.0);
    }

    /// Set the flags for compare `c` and say when it holds.
    fn compare(&mut self, c: ValueId) -> Jcc {
        match self.f.inst(c).op {
            Op::Icmp(p, l, r) => {
                let lr = self.gpr(l, Reg::Rax);
                let ro = self.opnd(r, Reg::Rcx);
                self.a.alu(Alu::Cmp, lr, ro);
                Jcc::If(match p {
                    ICmp::Eq => Cc::E,
                    ICmp::Ne => Cc::Ne,
                    ICmp::Slt => Cc::L,
                    ICmp::Sle => Cc::Le,
                    ICmp::Sgt => Cc::G,
                    ICmp::Sge => Cc::Ge,
                    ICmp::Ult => Cc::B,
                    ICmp::Ule => Cc::Be,
                    ICmp::Ugt => Cc::A,
                    ICmp::Uge => Cc::Ae,
                })
            }
            Op::Fcmp(p, l, r) => {
                // `ucomisd a, b` sets ZF/PF/CF (all three on unordered);
                // swapping the operands turns Olt/Ole into the
                // unordered-false `a`/`ae` conditions, exactly as
                // `eval_fcmp` defines them.
                let (first, second, j) = match p {
                    FCmp::Oeq => (l, r, Jcc::OrdEq),
                    FCmp::One => (l, r, Jcc::If(Cc::Ne)),
                    FCmp::Olt => (r, l, Jcc::If(Cc::A)),
                    FCmp::Ole => (r, l, Jcc::If(Cc::Ae)),
                    FCmp::Ogt => (l, r, Jcc::If(Cc::A)),
                    FCmp::Oge => (l, r, Jcc::If(Cc::Ae)),
                };
                let x = self.xmm(first, Xmm::X0);
                let s = self.xopnd(second);
                self.a.sse(Sse::UcomiSd, x, s);
                j
            }
            _ => unreachable!("{c} is not a compare"),
        }
    }

    // ---- instruction dispatch ----

    fn emit_inst(&mut self, b: BlockId, id: ValueId) -> Result<(), CompileError> {
        let f = self.f;
        let inst = f.inst(id);
        let ty = inst.ty;
        match &inst.op {
            // Entry parameters were loaded by the prologue; phi
            // destinations are written by predecessor edge moves;
            // constants are materialized where they are read.
            Op::Param(_) | Op::Phi(_) | Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstNull => {}
            &Op::Bin(op, l, r) => self.emit_bin(id, op, l, r, ty),
            Op::Icmp(..) | Op::Fcmp(..) => {
                if !matches!(self.loc(id), Loc::Fused | Loc::None) {
                    let j = self.compare(id);
                    self.set(id, j);
                }
            }
            &Op::Cast(op, v) => self.emit_cast(id, op, v, ty),
            &Op::Select(c, t, e) => {
                self.gpr_into(c, Reg::Rcx);
                self.gpr_into(e, Reg::Rax);
                let rt = self.gpr(t, Reg::Rdx);
                self.a.test_rr(Reg::Rcx, Reg::Rcx);
                self.a.cmovcc(Cc::Ne, Reg::Rax, rt);
                self.put(id, Reg::Rax);
            }
            Op::Alloca { .. } => {
                let off = self.alloca_off[id.0 as usize];
                let d = self.dst(id, Reg::Rax);
                self.a.mov_rm(d, Mem::b(Reg::Rbp, -56));
                if off > 0 {
                    self.a.alu_ri(Alu::Add, d, off as i32);
                }
                self.put(id, d);
            }
            &Op::Load(p) => {
                if !self.static_local_trap(p) {
                    self.emit_load(id, p, ty);
                }
            }
            &Op::Store { ptr, val } => {
                if self.static_local_trap(ptr) {
                    return Ok(());
                }
                let vty = f.inst(val).ty;
                if matches!(vty, Type::Ptr(_)) {
                    self.emit_store_ptr(ptr, val);
                } else {
                    self.emit_store_plain(ptr, val, vty);
                }
            }
            &Op::Gep { base, offset } => self.emit_bin(id, BinOp::Add, base, offset, ty),
            &Op::CpuToGpu(p) => {
                self.gpr_into(p, Reg::Rax);
                let done = self.a.label();
                self.a.test_rr(Reg::Rax, Reg::Rax);
                self.a.jcc(Cc::E, done);
                self.a.alu_rr(Alu::Cmp, Reg::Rax, Reg::R14);
                self.a.jcc(Cc::B, done);
                self.a.alu_rm(Alu::Cmp, Reg::Rax, self.env(OFF_GPU_BASE));
                self.a.jcc(Cc::Ae, done);
                self.a.mov_ri(Reg::Rcx, SVM_CONST as i64);
                self.a.alu_rr(Alu::Add, Reg::Rax, Reg::Rcx);
                self.a.bind(done);
                self.put(id, Reg::Rax);
            }
            &Op::GpuToCpu(p) => {
                self.gpr_into(p, Reg::Rax);
                let done = self.a.label();
                self.a.alu_rm(Alu::Cmp, Reg::Rax, self.env(OFF_GPU_BASE));
                self.a.jcc(Cc::B, done);
                self.a.mov_ri(Reg::Rcx, SVM_CONST as i64);
                self.a.alu_rr(Alu::Sub, Reg::Rax, Reg::Rcx);
                self.a.bind(done);
                self.put(id, Reg::Rax);
            }
            Op::Call { callee, args } => {
                for (j, &arg) in args.iter().enumerate() {
                    let m = self.argslot(j);
                    self.store(m, self.loc(arg));
                }
                self.a.mov_rm(Reg::Rax, self.env(OFF_CODE_PTRS));
                self.emit_call_common(Mem::b(Reg::Rax, 8 * callee.0 as i32));
                if ty != Type::Void {
                    self.put(id, Reg::Rax);
                }
            }
            Op::CallVirtual { slot: vslot, obj, args, .. } => {
                self.emit_call_virtual(id, *vslot, *obj, args, ty);
            }
            Op::IntrinsicCall(intr, args) => self.emit_intrinsic(id, *intr, args, ty)?,
            &Op::Br(t) => {
                let moves = self.edge(b, t);
                self.emit_moves(moves);
                if self.forward(b) == Some(t) {
                    self.a.jmp(self.charged[t.0 as usize]);
                } else {
                    self.jump_to(t);
                }
            }
            &Op::CondBr(c, t, e) => self.emit_condbr(b, c, t, e),
            &Op::Ret(v) => {
                if let Some(v) = v {
                    self.gpr_into(v, Reg::Rax);
                }
                match self.ret_cell {
                    // Back to the caller, or on to the chunk's next item.
                    Some(cell) => self.a.jmp_m(cell),
                    None => self.a.jmp(self.bail),
                }
            }
            Op::Unreachable => self.a.jmp(self.t_unreach),
        }
        Ok(())
    }

    /// Materialize the outcome of the compare just emitted as `id`'s
    /// 0/1 value.
    fn set(&mut self, id: ValueId, j: Jcc) {
        match j {
            Jcc::If(cc) => {
                self.a.setcc(cc, Reg::Rax);
                self.a.movzx8_rr(Reg::Rax, Reg::Rax);
            }
            Jcc::OrdEq => {
                self.a.setcc(Cc::E, Reg::Rax);
                self.a.movzx8_rr(Reg::Rax, Reg::Rax);
                self.a.setcc(Cc::Np, Reg::Rcx);
                self.a.movzx8_rr(Reg::Rcx, Reg::Rcx);
                self.a.alu_rr(Alu::And, Reg::Rax, Reg::Rcx);
            }
            Jcc::UnordNe => unreachable!("no compare produces it"),
        }
        self.put(id, Reg::Rax);
    }

    // ---- arithmetic ----

    fn emit_bin(&mut self, id: ValueId, op: BinOp, l: ValueId, r: ValueId, ty: Type) {
        use BinOp::*;
        match op {
            FAdd | FSub | FMul | FDiv => {
                let sse = match op {
                    FAdd => Sse::AddSd,
                    FSub => Sse::SubSd,
                    FMul => Sse::MulSd,
                    _ => Sse::DivSd,
                };
                // `l` is always the destination operand (NaN payloads
                // follow it), so an `r` that dies into the result's
                // register is read from there before the result is built
                // in xmm0.
                let mut d = self.xdst(id, Xmm::X0);
                if self.loc(r) == Loc::Xmm(d) {
                    d = Xmm::X0;
                }
                self.xmm_into(l, d);
                let s = self.xopnd(r);
                self.a.sse(sse, d, s);
                self.round_f32(ty, d);
                self.xput(id, d);
            }
            Add | Sub | Mul | And | Or | Xor => {
                let d = self.dst(id, Reg::Rax);
                let alu = |a: &mut Asm, d: Reg, s: Opnd| match op {
                    Mul => a.imul(d, s),
                    Add => a.alu(Alu::Add, d, s),
                    Sub => a.alu(Alu::Sub, d, s),
                    And => a.alu(Alu::And, d, s),
                    Or => a.alu(Alu::Or, d, s),
                    _ => a.alu(Alu::Xor, d, s),
                };
                let sum = match (op, self.loc(l), self.loc(r)) {
                    (Add, Loc::Gpr(x), Loc::Gpr(y)) => Some(Mem::bi(x, y)),
                    (Add, Loc::Gpr(x), Loc::Const(c)) | (Add, Loc::Const(c), Loc::Gpr(x)) => {
                        i32::try_from(c).ok().map(|c| Mem::b(x, c))
                    }
                    _ => None,
                };
                if let Some(m) = sum {
                    self.a.lea(d, m);
                } else if self.loc(r) == Loc::Gpr(d) {
                    // `r` dies into the result's register: `d = r op l`,
                    // or `d = -r + l` for a subtraction of another value
                    // (`l == r` reads `d` itself, so `sub d, d` is right).
                    let s = self.opnd(l, Reg::Rcx);
                    if op == Sub && l != r {
                        self.a.neg(d);
                        self.a.alu(Alu::Add, d, s);
                    } else {
                        alu(self.a, d, s);
                    }
                } else {
                    let s = self.opnd(r, Reg::Rcx);
                    self.gpr_into(l, d);
                    alu(self.a, d, s);
                }
                self.wrap(d, ty);
                self.put(id, d);
            }
            SDiv | SRem => {
                self.gpr_into(r, Reg::Rcx);
                self.gpr_into(l, Reg::Rax);
                self.a.test_rr(Reg::Rcx, Reg::Rcx);
                self.a.jcc(Cc::E, self.t_div);
                // b == -1 bypasses idiv: `INT_MIN / -1` must wrap, not #DE.
                self.a.alu_ri(Alu::Cmp, Reg::Rcx, -1);
                let lgo = self.a.label();
                let ldone = self.a.label();
                self.a.jcc(Cc::Ne, lgo);
                if op == SDiv {
                    self.a.neg(Reg::Rax);
                } else {
                    self.a.mov_ri(Reg::Rax, 0);
                }
                self.a.jmp(ldone);
                self.a.bind(lgo);
                self.a.cqo();
                self.a.idiv(Reg::Rcx);
                if op == SRem {
                    self.a.mov_rr(Reg::Rax, Reg::Rdx);
                }
                self.a.bind(ldone);
                self.wrap(Reg::Rax, ty);
                self.put(id, Reg::Rax);
            }
            UDiv | URem => {
                self.gpr_into(r, Reg::Rcx);
                self.gpr_into(l, Reg::Rax);
                self.a.test_rr(Reg::Rcx, Reg::Rcx);
                self.a.jcc(Cc::E, self.t_div);
                self.a.alu_rr(Alu::Xor, Reg::Rdx, Reg::Rdx);
                self.a.div(Reg::Rcx);
                if op == URem {
                    self.a.mov_rr(Reg::Rax, Reg::Rdx);
                }
                self.wrap(Reg::Rax, ty);
                self.put(id, Reg::Rax);
            }
            Shl | LShr | AShr => {
                // The hardware masks a 64-bit shift count to its low six
                // bits, as `wrapping_shl`/`wrapping_shr` do.
                let count = match self.loc(r) {
                    Loc::Const(c) => Some((c & 63) as u8),
                    _ => None,
                };
                if count.is_none() {
                    self.gpr_into(r, Reg::Rcx);
                }
                let d = self.dst(id, Reg::Rax);
                self.gpr_into(l, d);
                match op {
                    LShr => self.mask_low(d, ty),
                    AShr => self.wrap(d, ty),
                    _ => {}
                }
                match (op, count) {
                    (Shl, Some(n)) => self.a.shl_i(d, n),
                    (Shl, None) => self.a.shl_cl(d),
                    (LShr, Some(n)) => self.a.shr_i(d, n),
                    (LShr, None) => self.a.shr_cl(d),
                    (_, Some(n)) => self.a.sar_i(d, n),
                    (_, None) => self.a.sar_cl(d),
                }
                self.wrap(d, ty);
                self.put(id, d);
            }
        }
    }

    fn emit_cast(&mut self, id: ValueId, op: CastOp, v: ValueId, to: Type) {
        let from = self.f.inst(v).ty;
        match op {
            CastOp::Zext | CastOp::Sext | CastOp::Trunc | CastOp::PtrToInt => {
                let d = self.dst(id, Reg::Rax);
                self.gpr_into(v, d);
                if op == CastOp::Zext {
                    self.mask_low(d, from);
                }
                self.wrap(d, to);
                self.put(id, d);
            }
            CastOp::IntToPtr | CastOp::PtrCast => {
                let d = self.dst(id, Reg::Rax);
                self.gpr_into(v, d);
                self.put(id, d);
            }
            CastOp::FpToSi => {
                self.xmm_into(v, Xmm::X0);
                self.call_helper(h_f2i as extern "C" fn(f64) -> i64 as usize, None);
                self.wrap(Reg::Rax, to);
                self.put(id, Reg::Rax);
            }
            CastOp::SiToFp => {
                let r = self.gpr(v, Reg::Rax);
                let d = self.xdst(id, Xmm::X0);
                self.a.cvtsi2sd(d, r);
                self.round_f32(to, d);
                self.xput(id, d);
            }
            CastOp::FpCast => {
                let d = self.xdst(id, Xmm::X0);
                self.xmm_into(v, d);
                self.round_f32(to, d);
                self.xput(id, d);
            }
        }
    }

    // ---- memory ----

    /// If the pointer's *static* type is `local` space, emit the
    /// interpreter's unconditional `WrongAddressSpace { Local, Cpu }`.
    fn static_local_trap(&mut self, p: ValueId) -> bool {
        if self.f.inst(p).ty == Type::Ptr(AddrSpace::Local) {
            self.a.mov_ri(Reg::Rax, SPACE_LOCAL);
            self.a.mov_ri(Reg::Rcx, SPACE_CPU);
            self.a.jmp(self.t_was);
            true
        } else {
            false
        }
    }

    /// Range-classify the address in `addr` for a `2^lg`-byte access,
    /// leaving `rdx` = host base and `rcx` = in-bounds offset. The shared
    /// CPU case falls straight through; private and GPU addresses take
    /// the out-of-line [`SlowPath`], which returns here, and
    /// out-of-bounds addresses trap there with the interpreter's space
    /// payload. Clobbers rcx/rdx only.
    fn classify(&mut self, addr: Reg, lg: i32) {
        assert!(addr != Reg::Rcx && addr != Reg::Rdx, "classify clobbers rcx/rdx");
        let (entry, resume) = (self.a.label(), self.a.label());
        let a = &mut *self.a;
        a.mov_rr(Reg::Rcx, addr);
        a.alu_rr(Alu::Sub, Reg::Rcx, Reg::R14);
        a.alu_rm(Alu::Cmp, Reg::Rcx, Mem::b(Reg::R15, OFF_LIMIT_CPU + 8 * lg));
        a.jcc(Cc::A, entry);
        a.mov_rm(Reg::Rdx, Mem::b(Reg::R15, OFF_REGION_BASE));
        a.bind(resume);
        self.slow.push(SlowPath { entry, resume, addr, lg });
    }

    fn slow_path(&mut self, sp: SlowPath) {
        let SlowPath { entry, resume, addr, lg } = sp;
        let a = &mut *self.a;
        let gpu = a.label();
        let bad_cpu = a.label();
        let bad_priv = a.label();
        let bad_gpu = a.label();
        a.bind(entry);
        a.alu_rm(Alu::Cmp, addr, Mem::b(Reg::R15, OFF_GPU_BASE));
        a.jcc(Cc::Ae, gpu);
        a.alu_rr(Alu::Cmp, addr, Reg::R14);
        a.jcc(Cc::Ae, bad_cpu);
        // Private space (everything below CPU_BASE, including null).
        a.mov_rr(Reg::Rcx, addr);
        a.alu_ri(Alu::Sub, Reg::Rcx, PRIVATE_BASE as i32);
        a.alu_rm(Alu::Cmp, Reg::Rcx, Mem::b(Reg::R15, OFF_LIMIT_PRIV + 8 * lg));
        a.jcc(Cc::A, bad_priv);
        a.mov_rm(Reg::Rdx, Mem::b(Reg::R15, OFF_PRIV_BASE));
        a.jmp(resume);
        a.bind(gpu);
        a.mov_rr(Reg::Rcx, addr);
        a.alu_rm(Alu::Sub, Reg::Rcx, Mem::b(Reg::R15, OFF_GPU_BASE));
        a.alu_rm(Alu::Cmp, Reg::Rcx, Mem::b(Reg::R15, OFF_LIMIT_CPU + 8 * lg));
        a.jcc(Cc::A, bad_gpu);
        a.mov_rm(Reg::Rdx, Mem::b(Reg::R15, OFF_REGION_BASE));
        a.jmp(resume);
        for (label, space) in
            [(bad_cpu, SPACE_CPU), (bad_priv, SPACE_PRIVATE), (bad_gpu, SPACE_GPU)]
        {
            a.bind(label);
            if addr != Reg::Rax {
                a.mov_rr(Reg::Rax, addr);
            }
            a.mov_ri(Reg::Rcx, space);
            a.jmp(self.t_bad);
        }
    }

    /// Load `ty` through `p` into `id`'s home: ints sign-extended like
    /// `mem_read`, floats widened to f64.
    fn emit_load(&mut self, id: ValueId, p: ValueId, ty: Type) {
        let addr = self.gpr(p, Reg::Rax);
        self.classify(addr, log2_size(ty));
        let m = Mem::bi(Reg::Rdx, Reg::Rcx);
        if is_float(ty) {
            let d = self.xdst(id, Xmm::X0);
            if ty == Type::F32 {
                self.a.sse(Sse::MovSs, d, XOpnd::M(m));
                self.a.sse(Sse::Ss2Sd, d, XOpnd::X(d));
            } else {
                self.a.sse(Sse::MovSd, d, XOpnd::M(m));
            }
            self.xput(id, d);
        } else {
            let d = self.dst(id, Reg::Rax);
            match ty {
                Type::I1 | Type::I8 => self.a.movsx8_rm(d, m),
                Type::I16 => self.a.movsx16_rm(d, m),
                Type::I32 => self.a.movsxd_rm(d, m),
                _ => self.a.mov_rm(d, m),
            }
            self.put(id, d);
        }
    }

    fn emit_store_plain(&mut self, ptr: ValueId, val: ValueId, vty: Type) {
        enum Val {
            R(Reg),
            X(Xmm),
            I(i64),
        }
        let size = vty.size();
        let v = match (self.loc(val), vty) {
            (Loc::Const(c), Type::F32) => {
                Val::I(i64::from((f64::from_bits(c as u64) as f32).to_bits()))
            }
            (Loc::Const(c), _) if size < 8 || i32::try_from(c).is_ok() => Val::I(c),
            (_, Type::F32) => {
                let x = self.xmm(val, Xmm::X0);
                self.a.sse(Sse::Sd2Ss, Xmm::X0, XOpnd::X(x));
                Val::X(Xmm::X0)
            }
            (_, Type::F64) => Val::X(self.xmm(val, Xmm::X0)),
            _ => Val::R(self.gpr(val, Reg::R8)),
        };
        let addr = self.gpr(ptr, Reg::Rax);
        self.classify(addr, log2_size(vty));
        let m = Mem::bi(Reg::Rdx, Reg::Rcx);
        match v {
            Val::I(c) => self.a.mov_mi_sized(m, c, size),
            Val::X(x) if vty == Type::F32 => self.a.movss_mx(m, x),
            Val::X(x) => self.a.movsd_mx(m, x),
            Val::R(r) => match size {
                1 => self.a.mov_mr8(m, r),
                2 => self.a.mov_mr16(m, r),
                4 => self.a.mov_mr32(m, r),
                _ => self.a.mov_mr(m, r),
            },
        }
    }

    /// Pointer-typed store: `write_val` checks the *stored value's*
    /// space before resolving the target address when the target is
    /// shared memory (private frames accept any pointer).
    fn emit_store_ptr(&mut self, ptr: ValueId, val: ValueId) {
        self.gpr_into(val, Reg::R8);
        self.gpr_into(ptr, Reg::Rax);
        let a_gpu = self.a.label();
        let a_cpu = self.a.label();
        let val_priv = self.a.label();
        let val_gpu = self.a.label();
        let bad_cpu = self.a.label();
        let bad_priv = self.a.label();
        let bad_gpu = self.a.label();
        let done = self.a.label();
        let lg = 3; // pointers are 8 bytes

        let a = &mut *self.a;
        a.alu_rm(Alu::Cmp, Reg::Rax, Mem::b(Reg::R15, OFF_GPU_BASE));
        a.jcc(Cc::Ae, a_gpu);
        a.alu_rr(Alu::Cmp, Reg::Rax, Reg::R14);
        a.jcc(Cc::Ae, a_cpu);
        // Private target: no value-space check (`mem_write` stores raw).
        a.mov_rr(Reg::Rcx, Reg::Rax);
        a.alu_ri(Alu::Sub, Reg::Rcx, PRIVATE_BASE as i32);
        a.alu_rm(Alu::Cmp, Reg::Rcx, Mem::b(Reg::R15, OFF_LIMIT_PRIV + 8 * lg));
        a.jcc(Cc::A, bad_priv);
        a.mov_rm(Reg::Rdx, Mem::b(Reg::R15, OFF_PRIV_BASE));
        a.mov_mr(Mem::bi(Reg::Rdx, Reg::Rcx), Reg::R8);
        a.jmp(done);
        // Shared CPU target: value check, then bounds.
        a.bind(a_cpu);
        a.test_rr(Reg::R8, Reg::R8);
        let cpu_ok = a.label();
        a.jcc(Cc::E, cpu_ok);
        a.alu_rr(Alu::Cmp, Reg::R8, Reg::R14);
        a.jcc(Cc::B, val_priv);
        a.alu_rm(Alu::Cmp, Reg::R8, Mem::b(Reg::R15, OFF_GPU_BASE));
        a.jcc(Cc::Ae, val_gpu);
        a.bind(cpu_ok);
        a.mov_rr(Reg::Rcx, Reg::Rax);
        a.alu_rr(Alu::Sub, Reg::Rcx, Reg::R14);
        a.alu_rm(Alu::Cmp, Reg::Rcx, Mem::b(Reg::R15, OFF_LIMIT_CPU + 8 * lg));
        a.jcc(Cc::A, bad_cpu);
        a.mov_rm(Reg::Rdx, Mem::b(Reg::R15, OFF_REGION_BASE));
        a.mov_mr(Mem::bi(Reg::Rdx, Reg::Rcx), Reg::R8);
        a.jmp(done);
        // Shared GPU target: same value check, GPU-relative bounds.
        a.bind(a_gpu);
        a.test_rr(Reg::R8, Reg::R8);
        let gpu_ok = a.label();
        a.jcc(Cc::E, gpu_ok);
        a.alu_rr(Alu::Cmp, Reg::R8, Reg::R14);
        a.jcc(Cc::B, val_priv);
        a.alu_rm(Alu::Cmp, Reg::R8, Mem::b(Reg::R15, OFF_GPU_BASE));
        a.jcc(Cc::Ae, val_gpu);
        a.bind(gpu_ok);
        a.mov_rr(Reg::Rcx, Reg::Rax);
        a.alu_rm(Alu::Sub, Reg::Rcx, Mem::b(Reg::R15, OFF_GPU_BASE));
        a.alu_rm(Alu::Cmp, Reg::Rcx, Mem::b(Reg::R15, OFF_LIMIT_CPU + 8 * lg));
        a.jcc(Cc::A, bad_gpu);
        a.mov_rm(Reg::Rdx, Mem::b(Reg::R15, OFF_REGION_BASE));
        a.mov_mr(Mem::bi(Reg::Rdx, Reg::Rcx), Reg::R8);
        a.jmp(done);
        // WrongAddressSpace { found, expected: Cpu }.
        a.bind(val_priv);
        a.mov_ri(Reg::Rax, SPACE_PRIVATE);
        a.mov_ri(Reg::Rcx, SPACE_CPU);
        a.jmp(self.t_was);
        a.bind(val_gpu);
        a.mov_ri(Reg::Rax, SPACE_GPU);
        a.mov_ri(Reg::Rcx, SPACE_CPU);
        a.jmp(self.t_was);
        a.bind(bad_cpu);
        a.mov_ri(Reg::Rcx, SPACE_CPU);
        a.jmp(self.t_bad);
        a.bind(bad_priv);
        a.mov_ri(Reg::Rcx, SPACE_PRIVATE);
        a.jmp(self.t_bad);
        a.bind(bad_gpu);
        a.mov_ri(Reg::Rcx, SPACE_GPU);
        a.jmp(self.t_bad);
        a.bind(done);
    }

    // ---- calls ----

    /// Shared call tail: rdi/rsi setup, depth bracket, indirect call
    /// through `target`, trap propagation. `target` must not involve
    /// rdi/rsi.
    fn emit_call_common(&mut self, target: Mem) {
        debug_assert!(is_call(&self.f.inst(self.cur).op), "allocator missed call {}", self.cur);
        self.spill_loop_state();
        let a = &mut *self.a;
        a.mov_rr(Reg::Rdi, Reg::R15);
        a.lea(Reg::Rsi, Mem::b(Reg::Rbp, -self.arg_base));
        a.alu_mi(Alu::Add, Mem::b(Reg::R15, OFF_DEPTH), 1);
        a.call_m(target);
        a.alu_mi(Alu::Sub, Mem::b(Reg::R15, OFF_DEPTH), 1);
        self.reload_loop_state();
        self.a.cmp_mi(self.env(OFF_TRAP_CODE), 0);
        self.a.jcc(Cc::Ne, self.bail);
    }

    /// Write the loop state (see `regalloc::LOOP_STATE`) back to the
    /// environment before a call clobbers it: the callee reads and charges
    /// `steps` there.
    fn spill_loop_state(&mut self) {
        self.a.mov_mr(self.env(OFF_STEPS), Reg::R11);
        if self.ret_cell.is_some() {
            self.a.mov_mr(self.env(OFF_INSTS), Reg::Rsi);
        }
    }

    /// Reload the loop state after a call.
    fn reload_loop_state(&mut self) {
        self.a.mov_rm(Reg::R11, self.env(OFF_STEPS));
        if self.ret_cell.is_some() {
            self.a.mov_rm(Reg::Rsi, self.env(OFF_INSTS));
            self.a.mov_rm(Reg::Rdi, self.env(OFF_GLOBAL_ID));
        }
    }

    fn emit_call_virtual(
        &mut self,
        id: ValueId,
        vslot: u32,
        obj: ValueId,
        args: &[ValueId],
        ty: Type,
    ) {
        // vptr = 8-byte load through the full memory path (same traps as
        // any other load).
        if self.static_local_trap(obj) {
            return;
        }
        let addr = self.gpr(obj, Reg::Rax);
        self.classify(addr, 3);
        self.a.mov_rm(Reg::Rax, Mem::bi(Reg::Rdx, Reg::Rcx));
        // Validate: region-offset aligned to the vtable stride, class in
        // range, magic word intact — else BadVirtualDispatch { vptr }.
        let slot_disp = 16 + 8 * vslot as i32;
        let a = &mut *self.a;
        a.mov_rr(Reg::Rcx, Reg::Rax);
        a.alu_rr(Alu::Sub, Reg::Rcx, Reg::R14);
        a.mov_rr(Reg::Rdx, Reg::Rcx);
        a.alu_ri(Alu::And, Reg::Rdx, 127);
        a.jcc(Cc::Ne, self.t_bvd);
        a.mov_rr(Reg::Rdx, Reg::Rcx);
        a.shr_i(Reg::Rdx, 7);
        a.alu_rm(Alu::Cmp, Reg::Rdx, Mem::b(Reg::R15, OFF_CLASS_COUNT));
        a.jcc(Cc::Ae, self.t_bvd);
        a.alu_rm(Alu::Cmp, Reg::Rcx, Mem::b(Reg::R15, OFF_LIMIT_CPU + 24));
        a.jcc(Cc::A, self.t_bvd);
        a.mov_rm(Reg::Rdx, Mem::b(Reg::R15, OFF_REGION_BASE));
        a.mov_rm(Reg::R8, Mem::bi(Reg::Rdx, Reg::Rcx));
        a.mov_ri(Reg::R9, VTABLE_MAGIC);
        a.alu_rr(Alu::Cmp, Reg::R8, Reg::R9);
        a.jcc(Cc::Ne, self.t_bvd);
        // Slot read is a plain region read in the interpreter — bounds
        // failures surface as BadAddress { slot address, Cpu }.
        a.alu_ri(Alu::Add, Reg::Rcx, slot_disp);
        a.alu_ri(Alu::Add, Reg::Rax, slot_disp);
        a.alu_rm(Alu::Cmp, Reg::Rcx, Mem::b(Reg::R15, OFF_LIMIT_CPU + 24));
        let slot_oob = a.label();
        a.jcc(Cc::A, slot_oob);
        a.mov_rm(Reg::R8, Mem::bi(Reg::Rdx, Reg::Rcx));
        a.alu_ri(Alu::Sub, Reg::Rax, slot_disp);
        // A function id outside the module can only come from IR that
        // scribbled over an installed vtable; refuse to jump to garbage.
        a.alu_rm(Alu::Cmp, Reg::R8, Mem::b(Reg::R15, OFF_NFUNCS));
        a.jcc(Cc::Ae, self.t_bvd);
        a.mov_mr(Mem::b(Reg::Rbp, -64), Reg::R8);
        let after = a.label();
        a.jmp(after);
        a.bind(slot_oob);
        a.mov_ri(Reg::Rcx, SPACE_CPU);
        a.jmp(self.t_bad);
        a.bind(after);
        // Stage `this` + declared arguments, then call through the table.
        for (j, &arg) in std::iter::once(&obj).chain(args).enumerate() {
            let m = self.argslot(j);
            self.store(m, self.loc(arg));
        }
        self.a.mov_rm(Reg::Rax, self.env(OFF_CODE_PTRS));
        self.a.mov_rm(Reg::Rcx, Mem::b(Reg::Rbp, -64));
        self.emit_call_common(Mem::bi8(Reg::Rax, Reg::Rcx, 0));
        if ty != Type::Void {
            self.put(id, Reg::Rax);
        }
    }

    /// `movabs rax, helper; call rax` — process-static Rust helpers
    /// following the C ABI: float arguments already staged in xmm0/xmm1,
    /// or `(env, arg)` in rdi/rsi, staged here after the loop state is
    /// written back.
    fn call_helper(&mut self, addr: usize, arg: Option<ValueId>) {
        debug_assert!(is_call(&self.f.inst(self.cur).op), "allocator missed call {}", self.cur);
        self.spill_loop_state();
        if let Some(v) = arg {
            self.gpr_into(v, Reg::Rsi);
            self.a.mov_rr(Reg::Rdi, Reg::R15);
        }
        self.a.mov_ri(Reg::Rax, addr as i64);
        self.a.call_r(Reg::Rax);
        self.reload_loop_state();
    }

    // ---- intrinsics ----

    fn emit_intrinsic(
        &mut self,
        id: ValueId,
        intr: Intrinsic,
        args: &[ValueId],
        ty: Type,
    ) -> Result<(), CompileError> {
        use Intrinsic::*;
        let arg = |i: usize| -> Result<ValueId, CompileError> {
            args.get(i).copied().ok_or(CompileError::MalformedIntrinsic(intr.name()))
        };
        match intr {
            GlobalId | GlobalSize | LocalId | GroupId => {
                // The work-group index is the global id on the CPU path.
                let off = match intr {
                    GlobalId | GroupId => OFF_GLOBAL_ID,
                    GlobalSize => OFF_GLOBAL_SIZE,
                    _ => OFF_LOCAL_ID,
                };
                let d = self.dst(id, Reg::Rax);
                self.a.mov_rm(d, self.env(off));
                self.put(id, d);
            }
            Barrier => {
                if ty != Type::Void {
                    self.a.mov_ri(Reg::Rax, 0);
                    self.put(id, Reg::Rax);
                }
            }
            Sqrt => {
                let s = self.xopnd(arg(0)?);
                let d = self.xdst(id, Xmm::X0);
                self.a.sse(Sse::SqrtSd, d, s);
                self.round_f32(Type::F32, d);
                self.xput(id, d);
            }
            FAbs => {
                self.gpr_into(arg(0)?, Reg::Rax);
                self.a.mov_ri(Reg::Rcx, i64::MAX);
                self.a.alu_rr(Alu::And, Reg::Rax, Reg::Rcx);
                let d = self.xdst(id, Xmm::X0);
                self.a.movq_xr(d, Reg::Rax);
                self.round_f32(Type::F32, d);
                self.xput(id, d);
            }
            Floor | Exp => {
                self.xmm_into(arg(0)?, Xmm::X0);
                let h = if intr == Floor { h_floor } else { h_exp };
                self.call_helper(h as extern "C" fn(f64) -> f64 as usize, None);
                self.xput(id, Xmm::X0);
            }
            Pow | FMin | FMax => {
                self.xmm_into(arg(0)?, Xmm::X0);
                self.xmm_into(arg(1)?, Xmm::X1);
                let h = match intr {
                    Pow => h_pow,
                    FMin => h_fmin,
                    _ => h_fmax,
                };
                self.call_helper(h as extern "C" fn(f64, f64) -> f64 as usize, None);
                self.xput(id, Xmm::X0);
            }
            SMin | SMax => {
                self.gpr_into(arg(0)?, Reg::Rax);
                let r = self.gpr(arg(1)?, Reg::Rcx);
                self.a.alu_rr(Alu::Cmp, Reg::Rax, r);
                self.a.cmovcc(if intr == SMin { Cc::G } else { Cc::L }, Reg::Rax, r);
                self.put(id, Reg::Rax);
            }
            DeviceMalloc => {
                let h = h_device_malloc as extern "C" fn(*mut Env, i64) -> u64;
                self.call_helper(h as usize, Some(arg(0)?));
                self.put(id, Reg::Rax);
            }
            WlPush => {
                self.call_helper(h_wl_push as extern "C" fn(*mut Env, i64) as usize, Some(arg(0)?));
                // A null sink records TRAP_WL_PUSH; bail like a trapped
                // callee.
                self.a.cmp_mi(self.env(OFF_TRAP_CODE), 0);
                self.a.jcc(Cc::Ne, self.bail);
            }
            AtomicAddI32 | AtomicMinI32 | AtomicCasI32 => {
                self.emit_atomic(id, intr, args)?;
            }
        }
        Ok(())
    }

    /// i32 atomics: classify like a 4-byte access, then a `lock`-prefixed
    /// sequence whose final memory bytes and returned old value match
    /// `apply_rmw` over sign-extended i64 operands. `AtomicCasI32` only
    /// ever runs on the serial path (it is a gated op), so a plain
    /// read-modify-write replicates `apply_rmw`'s full-width compare.
    fn emit_atomic(
        &mut self,
        id: ValueId,
        intr: Intrinsic,
        args: &[ValueId],
    ) -> Result<(), CompileError> {
        let arg = |i: usize| -> Result<ValueId, CompileError> {
            args.get(i).copied().ok_or(CompileError::MalformedIntrinsic(intr.name()))
        };
        let ptr = arg(0)?;
        if self.static_local_trap(ptr) {
            return Ok(());
        }
        self.gpr_into(arg(1)?, Reg::R9);
        if intr == Intrinsic::AtomicCasI32 {
            self.gpr_into(arg(2)?, Reg::R10);
        }
        let addr = self.gpr(ptr, Reg::Rax);
        self.classify(addr, 2);
        let m = Mem::bi(Reg::Rdx, Reg::Rcx);
        let a = &mut *self.a;
        match intr {
            Intrinsic::AtomicAddI32 => {
                a.mov_rr32(Reg::R8, Reg::R9);
                a.lock_xadd32(m, Reg::R8);
                a.movsxd_rr(Reg::Rax, Reg::R8);
            }
            Intrinsic::AtomicMinI32 => {
                // Skip the store when no improvement — byte-identical to
                // the interpreter's unconditional write of min(old, a).
                let retry = a.label();
                let ldone = a.label();
                a.movsxd_rm(Reg::Rax, m);
                a.bind(retry);
                a.alu_rr(Alu::Cmp, Reg::R9, Reg::Rax);
                a.jcc(Cc::Ge, ldone);
                a.mov_rr32(Reg::R8, Reg::R9);
                a.lock_cmpxchg32(m, Reg::R8);
                a.jcc(Cc::E, ldone);
                a.movsxd_rr(Reg::Rax, Reg::Rax);
                a.jmp(retry);
                a.bind(ldone);
            }
            _ => {
                let ldone = a.label();
                a.movsxd_rm(Reg::Rax, m);
                a.alu_rr(Alu::Cmp, Reg::Rax, Reg::R9);
                a.jcc(Cc::Ne, ldone);
                a.mov_mr32(m, Reg::R10);
                a.bind(ldone);
            }
        }
        self.put(id, Reg::Rax);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_ir::builder::FunctionBuilder;

    #[test]
    fn lowers_a_small_module() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("add", vec![Type::I64, Type::I64], Type::I64);
        let a = fb.param(0);
        let b = fb.param(1);
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        m.add_function(fb.build());
        let lowered = lower_module(&m).unwrap();
        assert_eq!(lowered.offsets.len(), 1);
        assert_eq!(lowered.offsets[0], 0);
        assert!(!lowered.code.is_empty());
        // Entry must start with `push rbp`.
        assert_eq!(lowered.code[0], 0x55);
    }

    #[test]
    fn function_entries_are_aligned() {
        let mut m = Module::new();
        for i in 0..3 {
            let mut fb = FunctionBuilder::new(format!("f{i}"), vec![Type::I64], Type::I64);
            let a = fb.param(0);
            let c = fb.i64(i);
            let s = fb.bin(BinOp::Add, a, c);
            fb.ret(Some(s));
            m.add_function(fb.build());
        }
        let lowered = lower_module(&m).unwrap();
        assert_eq!(lowered.chunk_offsets, vec![None; 3], "no ForBody, no chunk entry");
        for off in lowered.offsets {
            assert_eq!(off % 16, 0);
        }
    }

    #[test]
    fn a_kernel_has_one_body_behind_two_entries() {
        let mut m = Module::new();
        let ptr = Type::Ptr(AddrSpace::Cpu);
        for name in ["helper", "kernel"] {
            let mut fb = FunctionBuilder::new(name, vec![ptr, Type::I32], Type::Void);
            fb.ret(None);
            m.add_function(fb.build());
        }
        m.functions[1].kernel = Some(KernelKind::ForBody);
        let lowered = lower_module(&m).unwrap();
        let chunk = lowered.chunk_offsets[1].expect("a ForBody has a chunk entry");
        assert_eq!(lowered.chunk_offsets[0], None);
        assert_eq!(chunk % 16, 0);
        // `xor rsi, rsi`, then the entry proper: `push rbp`.
        assert_eq!(lowered.code[chunk..chunk + 4], [0x48, 0x33, 0xF6, 0x55]);
        assert_eq!(lowered.offsets[1], chunk + 3);
    }
}
