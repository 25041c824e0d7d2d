//! A small x86-64 instruction encoder.
//!
//! Emits exactly the subset of the ISA the lowering in [`crate::lower`]
//! needs: 64-bit ALU forms, sign/zero-extending loads, truncating stores,
//! scalar SSE float ops in both precisions over all sixteen xmm registers,
//! `lock`-prefixed read-modify-writes, rel32 branches with label fixups,
//! and RIP-relative literals. Everything uses explicit ModRM/SIB/REX encoding; there is no
//! instruction database — each method writes its own bytes, and the unit
//! tests pin the encodings against independently assembled reference
//! sequences (`objdump -D -b binary -m i386:x86-64`).

/// General-purpose registers, numbered as in the ModRM register field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs, dead_code)] // complete register file; not every reg is allocated
pub enum Reg {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    fn lo(self) -> u8 {
        self as u8 & 7
    }
    fn hi(self) -> bool {
        self as u8 >= 8
    }
}

/// SSE registers; xmm8–15 take a REX bit like r8–r15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Xmm {
    X0 = 0,
    X1 = 1,
    X2 = 2,
    X3 = 3,
    X4 = 4,
    X5 = 5,
    X6 = 6,
    X7 = 7,
    X8 = 8,
    X9 = 9,
    X10 = 10,
    X11 = 11,
    X12 = 12,
    X13 = 13,
    X14 = 14,
    X15 = 15,
}

impl Xmm {
    fn lo(self) -> u8 {
        self as u8 & 7
    }
    fn hi(self) -> bool {
        self as u8 >= 8
    }
}

/// Condition codes (the low nibble of the 0F 8x/9x/4x opcode families).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)] // full condition-code table
pub enum Cc {
    B = 0x2,
    Ae = 0x3,
    E = 0x4,
    Ne = 0x5,
    Be = 0x6,
    A = 0x7,
    S = 0x8,
    Ns = 0x9,
    P = 0xA,
    Np = 0xB,
    L = 0xC,
    Ge = 0xD,
    Le = 0xE,
    G = 0xF,
}

impl Cc {
    /// The complementary condition (x86 pairs them by the low bit).
    pub fn not(self) -> Cc {
        match self {
            Cc::B => Cc::Ae,
            Cc::Ae => Cc::B,
            Cc::E => Cc::Ne,
            Cc::Ne => Cc::E,
            Cc::Be => Cc::A,
            Cc::A => Cc::Be,
            Cc::S => Cc::Ns,
            Cc::Ns => Cc::S,
            Cc::P => Cc::Np,
            Cc::Np => Cc::P,
            Cc::L => Cc::Ge,
            Cc::Ge => Cc::L,
            Cc::Le => Cc::G,
            Cc::G => Cc::Le,
        }
    }
}

/// Two-operand integer ALU ops in the `op r64, r/m64` form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Alu {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Cmp,
}

impl Alu {
    /// Opcode for `op reg, r/m` and the /digit for the `81 /n imm32` form.
    fn enc(self) -> (u8, u8) {
        match self {
            Alu::Add => (0x03, 0),
            Alu::Or => (0x0B, 1),
            Alu::And => (0x23, 4),
            Alu::Sub => (0x2B, 5),
            Alu::Xor => (0x33, 6),
            Alu::Cmp => (0x3B, 7),
        }
    }
}

/// Scalar SSE/SSE2 operations in the `op xmm, xmm/m` form: `sd` on
/// binary64, `ss` on binary32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Sse {
    AddSd,
    SubSd,
    MulSd,
    DivSd,
    UcomiSd,
    AddSs,
    SubSs,
    MulSs,
    DivSs,
    SqrtSs,
    UcomiSs,
    /// `cvtsd2ss` (double → single).
    Sd2Ss,
    /// `cvtss2sd` (single → double).
    Ss2Sd,
    /// `movsd` load (merging when the source is a register).
    MovSd,
    /// `movss` load.
    MovSs,
    /// `movapd`: the full-register copy between xmm registers.
    MovApd,
}

impl Sse {
    /// Mandatory prefix (none for `ucomiss`) and the opcode byte after
    /// `0F`.
    fn enc(self) -> (&'static [u8], u8) {
        match self {
            Sse::AddSd => (&[0xF2], 0x58),
            Sse::SubSd => (&[0xF2], 0x5C),
            Sse::MulSd => (&[0xF2], 0x59),
            Sse::DivSd => (&[0xF2], 0x5E),
            Sse::UcomiSd => (&[0x66], 0x2E),
            Sse::AddSs => (&[0xF3], 0x58),
            Sse::SubSs => (&[0xF3], 0x5C),
            Sse::MulSs => (&[0xF3], 0x59),
            Sse::DivSs => (&[0xF3], 0x5E),
            Sse::SqrtSs => (&[0xF3], 0x51),
            Sse::UcomiSs => (&[], 0x2E),
            Sse::Sd2Ss => (&[0xF2], 0x5A),
            Sse::Ss2Sd => (&[0xF3], 0x5A),
            Sse::MovSd => (&[0xF2], 0x10),
            Sse::MovSs => (&[0xF3], 0x10),
            Sse::MovApd => (&[0x66], 0x28),
        }
    }
}

/// A memory operand: `[base + index*scale + disp]`, or `[rip + label]`.
#[derive(Debug, Clone, Copy)]
pub struct Mem {
    base: Reg,
    index: Option<(Reg, u8)>,
    disp: i32,
    /// RIP-relative to this label (base/index/disp unused).
    lit: Option<Label>,
}

impl Mem {
    /// `[base + disp]`.
    pub fn b(base: Reg, disp: i32) -> Mem {
        Mem { base, index: None, disp, lit: None }
    }

    /// `[base + index]` (scale 1, no displacement).
    pub fn bi(base: Reg, index: Reg) -> Mem {
        assert!(index != Reg::Rsp, "rsp cannot be an index register");
        Mem { base, index: Some((index, 0)), disp: 0, lit: None }
    }

    /// `[base + index*4]`.
    pub fn bi4(base: Reg, index: Reg) -> Mem {
        assert!(index != Reg::Rsp, "rsp cannot be an index register");
        Mem { base, index: Some((index, 2)), disp: 0, lit: None }
    }

    /// `[base + index*8 + disp]`.
    pub fn bi8(base: Reg, index: Reg, disp: i32) -> Mem {
        assert!(index != Reg::Rsp, "rsp cannot be an index register");
        Mem { base, index: Some((index, 3)), disp, lit: None }
    }

    /// `[rip + l]`: data bound at `l` in the same image. Only for
    /// instructions whose displacement is their last field (no trailing
    /// immediate), so the rel32 fixup is relative to the instruction end.
    pub fn lit(l: Label) -> Mem {
        Mem { base: Reg::Rax, index: None, disp: 0, lit: Some(l) }
    }
}

/// The second operand of an integer ALU op.
#[derive(Debug, Clone, Copy)]
pub enum Opnd {
    /// A register.
    R(Reg),
    /// A memory operand.
    M(Mem),
    /// A sign-extended 32-bit immediate.
    I(i32),
}

/// The source operand of an SSE op.
#[derive(Debug, Clone, Copy)]
pub enum XOpnd {
    /// An xmm register.
    X(Xmm),
    /// A memory operand.
    M(Mem),
}

/// A forward-referencable code position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// The instruction stream under construction.
#[derive(Debug, Default)]
pub struct Asm {
    code: Vec<u8>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
}

impl Asm {
    /// Fresh empty stream.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Current length (== offset of the next emitted byte).
    pub fn here(&self) -> usize {
        self.code.len()
    }

    /// Pad with `int3` until the position is a multiple of `n` (function
    /// entry and literal alignment; the padding is never executed).
    pub fn align(&mut self, n: usize) {
        while !self.code.len().is_multiple_of(n) {
            self.code.push(0xCC);
        }
    }

    /// Allocate an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `l` to the current position.
    pub fn bind(&mut self, l: Label) {
        debug_assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.code.len());
    }

    /// Resolve all rel32 fixups and return the finished image.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Vec<u8> {
        for &(pos, l) in &self.fixups {
            let target = self.labels[l.0].expect("unbound label");
            let rel = (target as i64 - (pos as i64 + 4)) as i32;
            self.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        self.code
    }

    fn byte(&mut self, b: u8) {
        self.code.push(b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.code.extend_from_slice(bs);
    }

    fn i32le(&mut self, v: i32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Eight raw data bytes (a literal; see [`Mem::lit`]).
    pub fn data64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// REX prefix; omitted when no bit is set and not forced.
    fn rex(&mut self, w: bool, r: bool, x: bool, b: bool, force: bool) {
        let v = 0x40 | (u8::from(w) << 3) | (u8::from(r) << 2) | (u8::from(x) << 1) | u8::from(b);
        if v != 0x40 || force {
            self.byte(v);
        }
    }

    /// ModRM (+SIB, +disp) for a register `reg` (field value, low 3 bits)
    /// against memory operand `m`.
    fn modrm_mem(&mut self, reg: u8, m: &Mem) {
        if let Some(l) = m.lit {
            self.byte((reg << 3) | 5);
            self.fixups.push((self.code.len(), l));
            self.i32le(0);
            return;
        }
        let need_sib = m.index.is_some() || m.base.lo() == 4;
        // rbp/r13 as base cannot use mod=00; force a disp8 of zero.
        let (modb, disp8) = if m.disp == 0 && m.base.lo() != 5 {
            (0u8, false)
        } else if i8::try_from(m.disp).is_ok() {
            (0x40u8, true)
        } else {
            (0x80u8, false)
        };
        let rm = if need_sib { 4 } else { m.base.lo() };
        self.byte(modb | (reg << 3) | rm);
        if need_sib {
            let (ilo, scale) = match m.index {
                Some((i, s)) => (i.lo(), s),
                None => (4, 0), // no index
            };
            self.byte((scale << 6) | (ilo << 3) | m.base.lo());
        }
        if modb == 0x40 {
            if disp8 {
                self.byte(m.disp as i8 as u8);
            } else {
                self.byte(0);
            }
        } else if modb == 0x80 {
            self.i32le(m.disp);
        }
    }

    /// Generic `prefixes rex opcode modrm` against memory. `force_rex`
    /// selects spl/bpl/sil/dil instead of ah/ch/dh/bh in byte forms.
    #[allow(clippy::too_many_arguments)]
    fn op_m_rex(
        &mut self,
        prefixes: &[u8],
        w: bool,
        opcode: &[u8],
        reg: u8,
        reg_hi: bool,
        m: &Mem,
        force_rex: bool,
    ) {
        self.bytes(prefixes);
        let x = m.index.map(|(i, _)| i.hi()).unwrap_or(false);
        self.rex(w, reg_hi, x, m.base.hi(), force_rex);
        self.bytes(opcode);
        self.modrm_mem(reg, m);
    }

    fn op_m(&mut self, prefixes: &[u8], w: bool, opcode: &[u8], reg: u8, reg_hi: bool, m: &Mem) {
        self.op_m_rex(prefixes, w, opcode, reg, reg_hi, m, false);
    }

    /// `op_m` for a form with an immediate after the displacement, which a
    /// RIP-relative fixup would not account for.
    fn op_m_imm(&mut self, prefixes: &[u8], w: bool, opcode: &[u8], digit: u8, m: &Mem) {
        assert!(m.lit.is_none(), "RIP-relative operand before an immediate");
        self.op_m(prefixes, w, opcode, digit, false, m);
    }

    /// Generic `prefixes rex opcode modrm` register-register.
    fn op_r(&mut self, prefixes: &[u8], w: bool, opcode: &[u8], reg: u8, reg_hi: bool, rm: Reg) {
        self.bytes(prefixes);
        self.rex(w, reg_hi, false, rm.hi(), false);
        self.bytes(opcode);
        self.byte(0xC0 | (reg << 3) | rm.lo());
    }

    // ---- moves ----

    /// `mov dst, imm` — `C7` sign-extended imm32 when it fits, else movabs.
    pub fn mov_ri(&mut self, dst: Reg, v: i64) {
        if let Ok(v32) = i32::try_from(v) {
            self.op_r(&[], true, &[0xC7], 0, false, dst);
            self.i32le(v32);
        } else {
            self.rex(true, false, false, dst.hi(), false);
            self.byte(0xB8 + dst.lo());
            self.bytes(&v.to_le_bytes());
        }
    }

    /// `mov dst, src` (64-bit).
    pub fn mov_rr(&mut self, dst: Reg, src: Reg) {
        self.op_r(&[], true, &[0x8B], dst.lo(), dst.hi(), src);
    }

    /// `mov dst, qword [m]`.
    pub fn mov_rm(&mut self, dst: Reg, m: Mem) {
        self.op_m(&[], true, &[0x8B], dst.lo(), dst.hi(), &m);
    }

    /// `mov qword [m], src`.
    pub fn mov_mr(&mut self, m: Mem, src: Reg) {
        self.op_m(&[], true, &[0x89], src.lo(), src.hi(), &m);
    }

    /// `mov dword [m], src32`.
    pub fn mov_mr32(&mut self, m: Mem, src: Reg) {
        self.op_m(&[], false, &[0x89], src.lo(), src.hi(), &m);
    }

    /// `mov word [m], src16`.
    pub fn mov_mr16(&mut self, m: Mem, src: Reg) {
        self.op_m(&[0x66], false, &[0x89], src.lo(), src.hi(), &m);
    }

    /// `mov byte [m], src8` (the low byte of any register: sil/dil take
    /// an empty REX).
    pub fn mov_mr8(&mut self, m: Mem, src: Reg) {
        let force = matches!(src, Reg::Rsp | Reg::Rbp | Reg::Rsi | Reg::Rdi);
        self.op_m_rex(&[], false, &[0x88], src.lo(), src.hi(), &m, force);
    }

    /// `mov qword [m], imm32` (sign-extended).
    pub fn mov_mi(&mut self, m: Mem, v: i32) {
        self.op_m_imm(&[], true, &[0xC7], 0, &m);
        self.i32le(v);
    }

    /// Store the low `size` (1, 2, 4 or 8) bytes of `v`; `v` must fit in
    /// a sign-extended imm32 when `size` is 8.
    pub fn mov_mi_sized(&mut self, m: Mem, v: i64, size: u64) {
        match size {
            1 => {
                self.op_m_imm(&[], false, &[0xC6], 0, &m);
                self.byte(v as u8);
            }
            2 => {
                self.op_m_imm(&[0x66], false, &[0xC7], 0, &m);
                self.bytes(&(v as u16).to_le_bytes());
            }
            4 => {
                self.op_m_imm(&[], false, &[0xC7], 0, &m);
                self.i32le(v as i32);
            }
            _ => {
                let v = i32::try_from(v).expect("qword immediate store needs an imm32");
                self.mov_mi(m, v);
            }
        }
    }

    /// `movsx dst, byte [m]`.
    pub fn movsx8_rm(&mut self, dst: Reg, m: Mem) {
        self.op_m(&[], true, &[0x0F, 0xBE], dst.lo(), dst.hi(), &m);
    }

    /// `movsx dst, word [m]`.
    pub fn movsx16_rm(&mut self, dst: Reg, m: Mem) {
        self.op_m(&[], true, &[0x0F, 0xBF], dst.lo(), dst.hi(), &m);
    }

    /// `movsxd dst, dword [m]`.
    pub fn movsxd_rm(&mut self, dst: Reg, m: Mem) {
        self.op_m(&[], true, &[0x63], dst.lo(), dst.hi(), &m);
    }

    /// `movsxd dst, src32` (sign-extend low 32 bits of src).
    pub fn movsxd_rr(&mut self, dst: Reg, src: Reg) {
        self.op_r(&[], true, &[0x63], dst.lo(), dst.hi(), src);
    }

    /// `movsx dst, src8`.
    pub fn movsx8_rr(&mut self, dst: Reg, src: Reg) {
        self.op_r(&[], true, &[0x0F, 0xBE], dst.lo(), dst.hi(), src);
    }

    /// `movsx dst, src16`.
    pub fn movsx16_rr(&mut self, dst: Reg, src: Reg) {
        self.op_r(&[], true, &[0x0F, 0xBF], dst.lo(), dst.hi(), src);
    }

    /// `movzx dst, src8`.
    pub fn movzx8_rr(&mut self, dst: Reg, src: Reg) {
        self.op_r(&[], true, &[0x0F, 0xB6], dst.lo(), dst.hi(), src);
    }

    /// `movzx dst, src16`.
    pub fn movzx16_rr(&mut self, dst: Reg, src: Reg) {
        self.op_r(&[], true, &[0x0F, 0xB7], dst.lo(), dst.hi(), src);
    }

    /// `mov dst32, src32` — zero-extends the high half.
    pub fn mov_rr32(&mut self, dst: Reg, src: Reg) {
        self.op_r(&[], false, &[0x8B], dst.lo(), dst.hi(), src);
    }

    // ---- ALU ----

    /// `op dst, src` (64-bit).
    pub fn alu_rr(&mut self, op: Alu, dst: Reg, src: Reg) {
        let (opc, _) = op.enc();
        self.op_r(&[], true, &[opc], dst.lo(), dst.hi(), src);
    }

    /// `op dst, qword [m]`.
    pub fn alu_rm(&mut self, op: Alu, dst: Reg, m: Mem) {
        let (opc, _) = op.enc();
        self.op_m(&[], true, &[opc], dst.lo(), dst.hi(), &m);
    }

    /// `op dst, imm32` (sign-extended).
    pub fn alu_ri(&mut self, op: Alu, dst: Reg, v: i32) {
        let (_, digit) = op.enc();
        self.op_r(&[], true, &[0x81], digit, false, dst);
        self.i32le(v);
    }

    /// `op dst, src` for any second-operand form.
    pub fn alu(&mut self, op: Alu, dst: Reg, src: Opnd) {
        match src {
            Opnd::R(r) => self.alu_rr(op, dst, r),
            Opnd::M(m) => self.alu_rm(op, dst, m),
            Opnd::I(v) => self.alu_ri(op, dst, v),
        }
    }

    /// `op qword [m], imm32` (sign-extended).
    pub fn alu_mi(&mut self, op: Alu, m: Mem, v: i32) {
        let (_, digit) = op.enc();
        self.op_m_imm(&[], true, &[0x81], digit, &m);
        self.i32le(v);
    }

    /// `cmp qword [m], imm32`.
    pub fn cmp_mi(&mut self, m: Mem, v: i32) {
        self.alu_mi(Alu::Cmp, m, v);
    }

    /// `imul dst, src` (64-bit) for any second-operand form
    /// (`imul dst, dst, imm32` for an immediate).
    pub fn imul(&mut self, dst: Reg, src: Opnd) {
        match src {
            Opnd::R(r) => self.op_r(&[], true, &[0x0F, 0xAF], dst.lo(), dst.hi(), r),
            Opnd::M(m) => self.op_m(&[], true, &[0x0F, 0xAF], dst.lo(), dst.hi(), &m),
            Opnd::I(v) => {
                self.op_r(&[], true, &[0x69], dst.lo(), dst.hi(), dst);
                self.i32le(v);
            }
        }
    }

    /// `neg dst` (64-bit).
    pub fn neg(&mut self, dst: Reg) {
        self.op_r(&[], true, &[0xF7], 3, false, dst);
    }

    /// `cqo` — sign-extend rax into rdx:rax.
    pub fn cqo(&mut self) {
        self.bytes(&[0x48, 0x99]);
    }

    /// `idiv src` (64-bit).
    pub fn idiv(&mut self, src: Reg) {
        self.op_r(&[], true, &[0xF7], 7, false, src);
    }

    /// `div src` (64-bit unsigned).
    pub fn div(&mut self, src: Reg) {
        self.op_r(&[], true, &[0xF7], 6, false, src);
    }

    /// `shl dst, cl`.
    pub fn shl_cl(&mut self, dst: Reg) {
        self.op_r(&[], true, &[0xD3], 4, false, dst);
    }

    /// `shr dst, cl`.
    pub fn shr_cl(&mut self, dst: Reg) {
        self.op_r(&[], true, &[0xD3], 5, false, dst);
    }

    /// `sar dst, cl`.
    pub fn sar_cl(&mut self, dst: Reg) {
        self.op_r(&[], true, &[0xD3], 7, false, dst);
    }

    /// `shl dst, imm8`.
    pub fn shl_i(&mut self, dst: Reg, n: u8) {
        self.op_r(&[], true, &[0xC1], 4, false, dst);
        self.byte(n);
    }

    /// `shr dst, imm8`.
    pub fn shr_i(&mut self, dst: Reg, n: u8) {
        self.op_r(&[], true, &[0xC1], 5, false, dst);
        self.byte(n);
    }

    /// `sar dst, imm8`.
    pub fn sar_i(&mut self, dst: Reg, n: u8) {
        self.op_r(&[], true, &[0xC1], 7, false, dst);
        self.byte(n);
    }

    /// `test dst, src` (64-bit).
    pub fn test_rr(&mut self, a: Reg, b: Reg) {
        self.op_r(&[], true, &[0x85], b.lo(), b.hi(), a);
    }

    /// `setcc dst8` (low byte; callers movzx afterwards).
    pub fn setcc(&mut self, cc: Cc, dst: Reg) {
        assert!((dst as u8) < 4, "setcc targets a REX-free low register");
        self.op_r(&[], false, &[0x0F, 0x90 + cc as u8], 0, false, dst);
    }

    /// `cmovcc dst, src` (64-bit).
    pub fn cmovcc(&mut self, cc: Cc, dst: Reg, src: Reg) {
        self.op_r(&[], true, &[0x0F, 0x40 + cc as u8], dst.lo(), dst.hi(), src);
    }

    /// `lea dst, [m]`.
    pub fn lea(&mut self, dst: Reg, m: Mem) {
        self.op_m(&[], true, &[0x8D], dst.lo(), dst.hi(), &m);
    }

    // ---- stack / control flow ----

    /// `push reg`.
    pub fn push(&mut self, r: Reg) {
        self.rex(false, false, false, r.hi(), false);
        self.byte(0x50 + r.lo());
    }

    /// `pop reg`.
    pub fn pop(&mut self, r: Reg) {
        self.rex(false, false, false, r.hi(), false);
        self.byte(0x58 + r.lo());
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.byte(0xC3);
    }

    /// `call qword [m]`.
    pub fn call_m(&mut self, m: Mem) {
        self.op_m(&[], false, &[0xFF], 2, false, &m);
    }

    /// `jmp qword [m]`.
    pub fn jmp_m(&mut self, m: Mem) {
        self.op_m(&[], false, &[0xFF], 4, false, &m);
    }

    /// `jmp label` (rel32).
    pub fn jmp(&mut self, l: Label) {
        self.byte(0xE9);
        self.fixups.push((self.code.len(), l));
        self.i32le(0);
    }

    /// `jcc label` (rel32).
    pub fn jcc(&mut self, cc: Cc, l: Label) {
        self.bytes(&[0x0F, 0x80 + cc as u8]);
        self.fixups.push((self.code.len(), l));
        self.i32le(0);
    }

    // ---- atomics ----

    /// `lock xadd dword [m], src32` — src receives the old value.
    pub fn lock_xadd32(&mut self, m: Mem, src: Reg) {
        self.op_m(&[0xF0], false, &[0x0F, 0xC1], src.lo(), src.hi(), &m);
    }

    /// `lock cmpxchg dword [m], src32` — compares against eax.
    pub fn lock_cmpxchg32(&mut self, m: Mem, src: Reg) {
        self.op_m(&[0xF0], false, &[0x0F, 0xB1], src.lo(), src.hi(), &m);
    }

    // ---- SSE scalar ----

    /// `op dst, src` for a scalar SSE op.
    pub fn sse(&mut self, op: Sse, dst: Xmm, src: XOpnd) {
        let (pfx, opc) = op.enc();
        match src {
            XOpnd::X(s) => {
                self.bytes(pfx);
                self.rex(false, dst.hi(), false, s.hi(), false);
                self.bytes(&[0x0F, opc]);
                self.byte(0xC0 | (dst.lo() << 3) | s.lo());
            }
            XOpnd::M(m) => self.op_m(pfx, false, &[0x0F, opc], dst.lo(), dst.hi(), &m),
        }
    }

    /// `movsd qword [m], x`.
    pub fn movsd_mx(&mut self, m: Mem, x: Xmm) {
        self.op_m(&[0xF2], false, &[0x0F, 0x11], x.lo(), x.hi(), &m);
    }

    /// `movss dword [m], x`.
    pub fn movss_mx(&mut self, m: Mem, x: Xmm) {
        self.op_m(&[0xF3], false, &[0x0F, 0x11], x.lo(), x.hi(), &m);
    }

    /// `cvtsi2sd dst, src64`.
    pub fn cvtsi2sd(&mut self, dst: Xmm, src: Reg) {
        self.byte(0xF2);
        self.rex(true, dst.hi(), false, src.hi(), false);
        self.bytes(&[0x0F, 0x2A]);
        self.byte(0xC0 | (dst.lo() << 3) | src.lo());
    }

    /// `movq dst64, xsrc`.
    pub fn movq_rx(&mut self, dst: Reg, src: Xmm) {
        self.byte(0x66);
        self.rex(true, src.hi(), false, dst.hi(), false);
        self.bytes(&[0x0F, 0x7E]);
        self.byte(0xC0 | (src.lo() << 3) | dst.lo());
    }

    /// `movq xdst, src64`.
    pub fn movq_xr(&mut self, dst: Xmm, src: Reg) {
        self.byte(0x66);
        self.rex(true, dst.hi(), false, src.hi(), false);
        self.bytes(&[0x0F, 0x6E]);
        self.byte(0xC0 | (dst.lo() << 3) | src.lo());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(f: impl FnOnce(&mut Asm)) -> Vec<u8> {
        let mut a = Asm::new();
        f(&mut a);
        a.finish()
    }

    #[test]
    fn mov_encodings_match_reference() {
        // mov rax, rcx  => 48 8b c1
        assert_eq!(enc(|a| a.mov_rr(Reg::Rax, Reg::Rcx)), vec![0x48, 0x8B, 0xC1]);
        // mov r8, [r15+16] => 4d 8b 47 10
        assert_eq!(enc(|a| a.mov_rm(Reg::R8, Mem::b(Reg::R15, 16))), vec![0x4D, 0x8B, 0x47, 0x10]);
        // mov [rbp-8], rax => 48 89 45 f8
        assert_eq!(enc(|a| a.mov_mr(Mem::b(Reg::Rbp, -8), Reg::Rax)), vec![0x48, 0x89, 0x45, 0xF8]);
        // movabs rax, 0x4000_0000_0000 => 48 b8 ...
        assert_eq!(
            enc(|a| a.mov_ri(Reg::Rax, 0x4000_0000_0000)),
            vec![0x48, 0xB8, 0, 0, 0, 0, 0, 0x40, 0, 0]
        );
        // mov rax, 5 (imm32 form) => 48 c7 c0 05 00 00 00
        assert_eq!(enc(|a| a.mov_ri(Reg::Rax, 5)), vec![0x48, 0xC7, 0xC0, 5, 0, 0, 0]);
        // mov byte [rdx+rcx], sil => 40 88 34 0a ; mov byte [rdx+rcx], bl => 88 1c 0a
        assert_eq!(
            enc(|a| a.mov_mr8(Mem::bi(Reg::Rdx, Reg::Rcx), Reg::Rsi)),
            vec![0x40, 0x88, 0x34, 0x0A]
        );
        assert_eq!(
            enc(|a| a.mov_mr8(Mem::bi(Reg::Rdx, Reg::Rcx), Reg::Rbx)),
            vec![0x88, 0x1C, 0x0A]
        );
    }

    #[test]
    fn immediate_stores_by_width() {
        // mov byte [rdx+rcx], 0xfe => c6 04 0a fe
        assert_eq!(
            enc(|a| a.mov_mi_sized(Mem::bi(Reg::Rdx, Reg::Rcx), -2, 1)),
            vec![0xC6, 0x04, 0x0A, 0xFE]
        );
        // mov word [rdx+rcx], 0x1234 => 66 c7 04 0a 34 12
        assert_eq!(
            enc(|a| a.mov_mi_sized(Mem::bi(Reg::Rdx, Reg::Rcx), 0x1234, 2)),
            vec![0x66, 0xC7, 0x04, 0x0A, 0x34, 0x12]
        );
        // mov dword [rdx+rcx], -1 => c7 04 0a ff ff ff ff
        assert_eq!(
            enc(|a| a.mov_mi_sized(Mem::bi(Reg::Rdx, Reg::Rcx), -1, 4)),
            vec![0xC7, 0x04, 0x0A, 0xFF, 0xFF, 0xFF, 0xFF]
        );
        // mov qword [rbp-72], 7 => 48 c7 45 b8 07 00 00 00
        assert_eq!(
            enc(|a| a.mov_mi_sized(Mem::b(Reg::Rbp, -72), 7, 8)),
            vec![0x48, 0xC7, 0x45, 0xB8, 7, 0, 0, 0]
        );
    }

    #[test]
    fn sib_and_disp_forms() {
        // mov rax, [rdx+rcx] => 48 8b 04 0a
        assert_eq!(
            enc(|a| a.mov_rm(Reg::Rax, Mem::bi(Reg::Rdx, Reg::Rcx))),
            vec![0x48, 0x8B, 0x04, 0x0A]
        );
        // mov rax, [rcx+r8*8+16] => 4a 8b 44 c1 10
        assert_eq!(
            enc(|a| a.mov_rm(Reg::Rax, Mem::bi8(Reg::Rcx, Reg::R8, 16))),
            vec![0x4A, 0x8B, 0x44, 0xC1, 0x10]
        );
        // mov rax, [rbp] needs disp8=0 => 48 8b 45 00
        assert_eq!(enc(|a| a.mov_rm(Reg::Rax, Mem::b(Reg::Rbp, 0))), vec![0x48, 0x8B, 0x45, 0x00]);
        // mov rax, [rsp] needs a SIB => 48 8b 04 24
        assert_eq!(enc(|a| a.mov_rm(Reg::Rax, Mem::b(Reg::Rsp, 0))), vec![0x48, 0x8B, 0x04, 0x24]);
        // large disp: mov rax, [rdi+0x12345] => 48 8b 87 45 23 01 00
        assert_eq!(
            enc(|a| a.mov_rm(Reg::Rax, Mem::b(Reg::Rdi, 0x12345))),
            vec![0x48, 0x8B, 0x87, 0x45, 0x23, 0x01, 0x00]
        );
        // lea r12, [rbx+r13] => 4e 8d 24 2b ; lea rbx, [r13+8] => 49 8d 5d 08
        assert_eq!(
            enc(|a| a.lea(Reg::R12, Mem::bi(Reg::Rbx, Reg::R13))),
            vec![0x4E, 0x8D, 0x24, 0x2B]
        );
        assert_eq!(enc(|a| a.lea(Reg::Rbx, Mem::b(Reg::R13, 8))), vec![0x49, 0x8D, 0x5D, 0x08]);
        // movsxd rax, dword [rcx+rax*4] => 48 63 04 81
        assert_eq!(
            enc(|a| a.movsxd_rm(Reg::Rax, Mem::bi4(Reg::Rcx, Reg::Rax))),
            vec![0x48, 0x63, 0x04, 0x81]
        );
    }

    #[test]
    fn alu_and_shift_forms() {
        // add rax, rbx => 48 03 c3
        assert_eq!(enc(|a| a.alu_rr(Alu::Add, Reg::Rax, Reg::Rbx)), vec![0x48, 0x03, 0xC3]);
        // sub rcx, 0x10 => 48 81 e9 10 00 00 00
        assert_eq!(
            enc(|a| a.alu_ri(Alu::Sub, Reg::Rcx, 0x10)),
            vec![0x48, 0x81, 0xE9, 0x10, 0, 0, 0]
        );
        // cmp rcx, [r15+40] => 49 3b 4f 28
        assert_eq!(
            enc(|a| a.alu_rm(Alu::Cmp, Reg::Rcx, Mem::b(Reg::R15, 40))),
            vec![0x49, 0x3B, 0x4F, 0x28]
        );
        // shl rax, cl => 48 d3 e0 ; sar rdx, cl => 48 d3 fa
        assert_eq!(enc(|a| a.shl_cl(Reg::Rax)), vec![0x48, 0xD3, 0xE0]);
        assert_eq!(enc(|a| a.sar_cl(Reg::Rdx)), vec![0x48, 0xD3, 0xFA]);
        // sar r12, 3 => 49 c1 fc 03
        assert_eq!(enc(|a| a.sar_i(Reg::R12, 3)), vec![0x49, 0xC1, 0xFC, 0x03]);
        // imul rax, rcx => 48 0f af c1
        assert_eq!(enc(|a| a.imul(Reg::Rax, Opnd::R(Reg::Rcx))), vec![0x48, 0x0F, 0xAF, 0xC1]);
        // imul r13, r13, 12 => 4d 69 ed 0c 00 00 00
        assert_eq!(enc(|a| a.imul(Reg::R13, Opnd::I(12))), vec![0x4D, 0x69, 0xED, 0x0C, 0, 0, 0]);
        // imul rbx, [rbp-80] => 48 0f af 5d b0
        assert_eq!(
            enc(|a| a.imul(Reg::Rbx, Opnd::M(Mem::b(Reg::Rbp, -80)))),
            vec![0x48, 0x0F, 0xAF, 0x5D, 0xB0]
        );
        // sub qword [r15+40], 7 => 49 81 6f 28 07 00 00 00
        assert_eq!(
            enc(|a| a.alu_mi(Alu::Sub, Mem::b(Reg::R15, 40), 7)),
            vec![0x49, 0x81, 0x6F, 0x28, 7, 0, 0, 0]
        );
    }

    #[test]
    fn control_flow_and_fixups() {
        // Forward jump over one byte of padding.
        let mut a = Asm::new();
        let l = a.label();
        a.jmp(l);
        a.ret();
        a.bind(l);
        a.ret();
        // e9 01 00 00 00 c3 c3
        assert_eq!(a.finish(), vec![0xE9, 1, 0, 0, 0, 0xC3, 0xC3]);

        // Backward conditional branch.
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.jcc(Cc::Ne, top);
        // 0f 85 fa ff ff ff (-6)
        assert_eq!(a.finish(), vec![0x0F, 0x85, 0xFA, 0xFF, 0xFF, 0xFF]);

        // Every condition's complement differs from it in the low bit.
        for cc in [Cc::B, Cc::E, Cc::Be, Cc::S, Cc::P, Cc::L, Cc::Le] {
            assert_eq!(cc.not() as u8, cc as u8 ^ 1);
            assert_eq!(cc.not().not(), cc);
        }
    }

    #[test]
    fn rip_relative_literals() {
        // addsd xmm9, [rip+lit] with the literal right after it:
        // f2 44 0f 58 0d 00 00 00 00, then the 8 data bytes.
        let mut a = Asm::new();
        let l = a.label();
        a.sse(Sse::AddSd, Xmm::X9, XOpnd::M(Mem::lit(l)));
        a.bind(l);
        a.data64(0x3FF0_0000_0000_0000);
        assert_eq!(
            a.finish(),
            vec![0xF2, 0x44, 0x0F, 0x58, 0x0D, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F]
        );
    }

    #[test]
    fn sse_and_atomic_forms() {
        // movsd xmm0, [rbp-16] => f2 0f 10 45 f0
        assert_eq!(
            enc(|a| a.sse(Sse::MovSd, Xmm::X0, XOpnd::M(Mem::b(Reg::Rbp, -16)))),
            vec![0xF2, 0x0F, 0x10, 0x45, 0xF0]
        );
        // addsd xmm0, xmm1 => f2 0f 58 c1
        assert_eq!(
            enc(|a| a.sse(Sse::AddSd, Xmm::X0, XOpnd::X(Xmm::X1))),
            vec![0xF2, 0x0F, 0x58, 0xC1]
        );
        // cvtsi2sd xmm0, rax => f2 48 0f 2a c0
        assert_eq!(enc(|a| a.cvtsi2sd(Xmm::X0, Reg::Rax)), vec![0xF2, 0x48, 0x0F, 0x2A, 0xC0]);
        // lock xadd [rdx+rcx], eax => f0 0f c1 04 0a
        assert_eq!(
            enc(|a| a.lock_xadd32(Mem::bi(Reg::Rdx, Reg::Rcx), Reg::Rax)),
            vec![0xF0, 0x0F, 0xC1, 0x04, 0x0A]
        );
        // lock cmpxchg [rdx], r8d => f0 44 0f b1 02
        assert_eq!(
            enc(|a| a.lock_cmpxchg32(Mem::b(Reg::Rdx, 0), Reg::R8)),
            vec![0xF0, 0x44, 0x0F, 0xB1, 0x02]
        );
        // movq rax, xmm0 => 66 48 0f 7e c0
        assert_eq!(enc(|a| a.movq_rx(Reg::Rax, Xmm::X0)), vec![0x66, 0x48, 0x0F, 0x7E, 0xC0]);
    }

    /// Every xmm8–15 form the lowering emits, checked against objdump's
    /// reading of the same bytes.
    #[test]
    fn extended_xmm_forms() {
        let x = |s| XOpnd::X(s);
        // Register-register ops: REX.R for the destination, REX.B for the
        // source.
        // addsd xmm8, xmm2 => f2 44 0f 58 c2
        assert_eq!(enc(|a| a.sse(Sse::AddSd, Xmm::X8, x(Xmm::X2))), [0xF2, 0x44, 0x0F, 0x58, 0xC2]);
        // subsd xmm3, xmm15 => f2 41 0f 5c df
        assert_eq!(
            enc(|a| a.sse(Sse::SubSd, Xmm::X3, x(Xmm::X15))),
            [0xF2, 0x41, 0x0F, 0x5C, 0xDF]
        );
        // mulsd xmm12, xmm13 => f2 45 0f 59 e5
        assert_eq!(
            enc(|a| a.sse(Sse::MulSd, Xmm::X12, x(Xmm::X13))),
            [0xF2, 0x45, 0x0F, 0x59, 0xE5]
        );
        // divsd xmm9, xmm0 => f2 44 0f 5e c8
        assert_eq!(enc(|a| a.sse(Sse::DivSd, Xmm::X9, x(Xmm::X0))), [0xF2, 0x44, 0x0F, 0x5E, 0xC8]);
        // ucomisd xmm14, xmm1 => 66 44 0f 2e f1
        assert_eq!(
            enc(|a| a.sse(Sse::UcomiSd, Xmm::X14, x(Xmm::X1))),
            [0x66, 0x44, 0x0F, 0x2E, 0xF1]
        );
        // cvtsd2ss xmm8, xmm8 => f2 45 0f 5a c0 ; cvtss2sd xmm8, xmm8 => f3 45 0f 5a c0
        assert_eq!(enc(|a| a.sse(Sse::Sd2Ss, Xmm::X8, x(Xmm::X8))), [0xF2, 0x45, 0x0F, 0x5A, 0xC0]);
        assert_eq!(enc(|a| a.sse(Sse::Ss2Sd, Xmm::X8, x(Xmm::X8))), [0xF3, 0x45, 0x0F, 0x5A, 0xC0]);
        // movapd xmm0, xmm15 => 66 41 0f 28 c7 ; movapd xmm15, xmm2 => 66 44 0f 28 fa
        assert_eq!(
            enc(|a| a.sse(Sse::MovApd, Xmm::X0, x(Xmm::X15))),
            [0x66, 0x41, 0x0F, 0x28, 0xC7]
        );
        assert_eq!(
            enc(|a| a.sse(Sse::MovApd, Xmm::X15, x(Xmm::X2))),
            [0x66, 0x44, 0x0F, 0x28, 0xFA]
        );
        // Memory forms with an extended base or index (REX.B / REX.X) and
        // an extended xmm (REX.R).
        // movsd xmm11, [r13+8] => f2 45 0f 10 5d 08
        assert_eq!(
            enc(|a| a.sse(Sse::MovSd, Xmm::X11, XOpnd::M(Mem::b(Reg::R13, 8)))),
            [0xF2, 0x45, 0x0F, 0x10, 0x5D, 0x08]
        );
        // movsd xmm9, [rdx+r9] => f2 46 0f 10 0c 0a
        assert_eq!(
            enc(|a| a.sse(Sse::MovSd, Xmm::X9, XOpnd::M(Mem::bi(Reg::Rdx, Reg::R9)))),
            [0xF2, 0x46, 0x0F, 0x10, 0x0C, 0x0A]
        );
        // movss xmm12, [r12+rcx] => f3 45 0f 10 24 0c
        assert_eq!(
            enc(|a| a.sse(Sse::MovSs, Xmm::X12, XOpnd::M(Mem::bi(Reg::R12, Reg::Rcx)))),
            [0xF3, 0x45, 0x0F, 0x10, 0x24, 0x0C]
        );
        // movsd [rbp-88], xmm13 => f2 44 0f 11 6d a8
        assert_eq!(
            enc(|a| a.movsd_mx(Mem::b(Reg::Rbp, -88), Xmm::X13)),
            [0xF2, 0x44, 0x0F, 0x11, 0x6D, 0xA8]
        );
        // movsd [rdx+r10], xmm8 => f2 46 0f 11 04 12
        assert_eq!(
            enc(|a| a.movsd_mx(Mem::bi(Reg::Rdx, Reg::R10), Xmm::X8)),
            [0xF2, 0x46, 0x0F, 0x11, 0x04, 0x12]
        );
        // movss [r12], xmm10 => f3 45 0f 11 14 24
        assert_eq!(
            enc(|a| a.movss_mx(Mem::b(Reg::R12, 0), Xmm::X10)),
            [0xF3, 0x45, 0x0F, 0x11, 0x14, 0x24]
        );
        // addsd xmm15, [rbp-96] => f2 44 0f 58 7d a0
        assert_eq!(
            enc(|a| a.sse(Sse::AddSd, Xmm::X15, XOpnd::M(Mem::b(Reg::Rbp, -96)))),
            [0xF2, 0x44, 0x0F, 0x58, 0x7D, 0xA0]
        );
        // movq in both directions: movq r12, xmm9 => 66 4d 0f 7e cc ;
        // movq xmm10, rax => 66 4c 0f 6e d0 ; movq xmm3, r13 => 66 49 0f 6e dd
        assert_eq!(enc(|a| a.movq_rx(Reg::R12, Xmm::X9)), [0x66, 0x4D, 0x0F, 0x7E, 0xCC]);
        assert_eq!(enc(|a| a.movq_xr(Xmm::X10, Reg::Rax)), [0x66, 0x4C, 0x0F, 0x6E, 0xD0]);
        assert_eq!(enc(|a| a.movq_xr(Xmm::X3, Reg::R13)), [0x66, 0x49, 0x0F, 0x6E, 0xDD]);
        // cvtsi2sd xmm13, rbx => f2 4c 0f 2a eb ; cvtsi2sd xmm8, r12 => f2 4d 0f 2a c4
        assert_eq!(enc(|a| a.cvtsi2sd(Xmm::X13, Reg::Rbx)), [0xF2, 0x4C, 0x0F, 0x2A, 0xEB]);
        assert_eq!(enc(|a| a.cvtsi2sd(Xmm::X8, Reg::R12)), [0xF2, 0x4D, 0x0F, 0x2A, 0xC4]);
    }

    /// The single-precision forms: `F3` where the double form has `F2`,
    /// and `ucomiss` without the `66` prefix of `ucomisd`.
    #[test]
    fn single_precision_forms() {
        let x = |s| XOpnd::X(s);
        // addss xmm0, xmm1 => f3 0f 58 c1 ; subss xmm3, xmm15 => f3 41 0f 5c df
        assert_eq!(enc(|a| a.sse(Sse::AddSs, Xmm::X0, x(Xmm::X1))), [0xF3, 0x0F, 0x58, 0xC1]);
        assert_eq!(
            enc(|a| a.sse(Sse::SubSs, Xmm::X3, x(Xmm::X15))),
            [0xF3, 0x41, 0x0F, 0x5C, 0xDF]
        );
        // mulss xmm12, xmm13 => f3 45 0f 59 e5 ; divss xmm9, xmm0 => f3 44 0f 5e c8
        assert_eq!(
            enc(|a| a.sse(Sse::MulSs, Xmm::X12, x(Xmm::X13))),
            [0xF3, 0x45, 0x0F, 0x59, 0xE5]
        );
        assert_eq!(enc(|a| a.sse(Sse::DivSs, Xmm::X9, x(Xmm::X0))), [0xF3, 0x44, 0x0F, 0x5E, 0xC8]);
        // sqrtss xmm10, xmm11 => f3 45 0f 51 d3
        assert_eq!(
            enc(|a| a.sse(Sse::SqrtSs, Xmm::X10, x(Xmm::X11))),
            [0xF3, 0x45, 0x0F, 0x51, 0xD3]
        );
        // ucomiss xmm0, xmm1 => 0f 2e c1 ; ucomiss xmm14, xmm1 => 44 0f 2e f1
        assert_eq!(enc(|a| a.sse(Sse::UcomiSs, Xmm::X0, x(Xmm::X1))), [0x0F, 0x2E, 0xC1]);
        assert_eq!(enc(|a| a.sse(Sse::UcomiSs, Xmm::X14, x(Xmm::X1))), [0x44, 0x0F, 0x2E, 0xF1]);
        // ucomiss xmm2, [rbp-80] => 0f 2e 55 b0 ; addss xmm15, [rbp-96] => f3 44 0f 58 7d a0
        assert_eq!(
            enc(|a| a.sse(Sse::UcomiSs, Xmm::X2, XOpnd::M(Mem::b(Reg::Rbp, -80)))),
            [0x0F, 0x2E, 0x55, 0xB0]
        );
        assert_eq!(
            enc(|a| a.sse(Sse::AddSs, Xmm::X15, XOpnd::M(Mem::b(Reg::Rbp, -96)))),
            [0xF3, 0x44, 0x0F, 0x58, 0x7D, 0xA0]
        );
        // cvtss2sd xmm0, dword [rdx+rcx] => f3 0f 5a 04 0a
        assert_eq!(
            enc(|a| a.sse(Sse::Ss2Sd, Xmm::X0, XOpnd::M(Mem::bi(Reg::Rdx, Reg::Rcx)))),
            [0xF3, 0x0F, 0x5A, 0x04, 0x0A]
        );
    }

    #[test]
    fn setcc_cmov_call() {
        // sete al => 0f 94 c0
        assert_eq!(enc(|a| a.setcc(Cc::E, Reg::Rax)), vec![0x0F, 0x94, 0xC0]);
        // cmovne rax, rcx => 48 0f 45 c1
        assert_eq!(enc(|a| a.cmovcc(Cc::Ne, Reg::Rax, Reg::Rcx)), vec![0x48, 0x0F, 0x45, 0xC1]);
        // call qword [rcx+8] => ff 51 08 ; call qword [r15+0x100] => 41 ff 97 00 01 00 00 ;
        // jmp qword [rbp-8] => ff 65 f8
        assert_eq!(enc(|a| a.call_m(Mem::b(Reg::Rcx, 8))), vec![0xFF, 0x51, 0x08]);
        assert_eq!(
            enc(|a| a.call_m(Mem::b(Reg::R15, 0x100))),
            vec![0x41, 0xFF, 0x97, 0x00, 0x01, 0x00, 0x00]
        );
        assert_eq!(enc(|a| a.jmp_m(Mem::b(Reg::Rbp, -8))), vec![0xFF, 0x65, 0xF8]);
        // push r12 / pop r12 => 41 54 / 41 5c
        assert_eq!(enc(|a| a.push(Reg::R12)), vec![0x41, 0x54]);
        assert_eq!(enc(|a| a.pop(Reg::R12)), vec![0x41, 0x5C]);
    }
}
