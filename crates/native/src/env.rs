//! The execution environment shared with generated code: one per chunk.
//!
//! Generated functions receive a pointer to an [`Env`] in `rdi` and pin it
//! in `r15` for their whole lifetime. Every field the machine code touches
//! is accessed at a fixed byte offset (the `OFF_*` constants), so the
//! struct is `repr(C)` and the offsets are pinned by a unit test.
//!
//! The launch driver describes one chunk here — its first item in
//! `global_id`, the end in `item_end`, the first kernel argument in `arg0`,
//! a worklist round's frontier in `items`, the per-item step budget in
//! `budget` and whether the body is invariant over the launch in
//! `body_invariant` — and makes one call to the kernel's chunk entry. The
//! item loop in generated code (see `lower.rs`) keeps the step counter,
//! the item index and the instruction tally in registers: it stores each
//! item's id to `global_id` as the item starts, and writes `steps` and
//! `insts` back around calls and when the chunk ends. The fields the
//! loop reads per item lie in the first 128 bytes, where an
//! `[r15 + disp8]` operand reaches them; fields generated code never or
//! rarely reads come last.
//!
//! The environment also carries the trap cells: generated code never
//! unwinds — on a fault it records a trap code plus payload words here and
//! returns through every active frame (each one restoring its private
//! stack pointer), and the launch driver reconstructs the interpreter's
//! [`Trap`] value from the cells. A trap ends the chunk, with `global_id`
//! naming the trapped item.

use concord_ir::eval::Trap;
use concord_ir::types::AddrSpace;
use concord_svm::{CPU_BASE, GPU_BASE};

/// Private memory bytes per core — matches the CPU simulator's
/// `PrivateMem::new(1 << 20)`.
pub const PRIVATE_BYTES: usize = 1 << 20;

/// Base address of the private space (same constant as the interpreter).
pub const PRIVATE_BASE: u64 = 0x1000_0000;

/// Call-depth limit — matches the interpreter's `max_depth` default.
pub const MAX_DEPTH: i64 = 64;

// Trap codes stored in `Env::trap_code`.
pub(crate) const TRAP_DIV_ZERO: u64 = 1;
pub(crate) const TRAP_BAD_ADDRESS: u64 = 2;
pub(crate) const TRAP_WRONG_SPACE: u64 = 3;
pub(crate) const TRAP_UNREACHABLE: u64 = 4;
pub(crate) const TRAP_BAD_DISPATCH: u64 = 5;
pub(crate) const TRAP_STACK_OVERFLOW: u64 = 6;
pub(crate) const TRAP_STEP_LIMIT: u64 = 7;
pub(crate) const TRAP_WL_PUSH: u64 = 8;

// Field offsets used by the code generator (see the layout test).
pub(crate) const OFF_REGION_BASE: i32 = 0;
pub(crate) const OFF_ARG0: i32 = 8;
pub(crate) const OFF_PRIV_BASE: i32 = 16;
pub(crate) const OFF_PRIV_LEN: i32 = 24;
pub(crate) const OFF_PRIV_SP: i32 = 32;
pub(crate) const OFF_STEPS: i32 = 40;
pub(crate) const OFF_GLOBAL_ID: i32 = 48;
pub(crate) const OFF_ITEM_END: i32 = 56;
pub(crate) const OFF_BUDGET: i32 = 64;
pub(crate) const OFF_ITEMS: i32 = 72;
pub(crate) const OFF_TRAP_CODE: i32 = 80;
pub(crate) const OFF_TRAP_A: i32 = 88;
pub(crate) const OFF_TRAP_B: i32 = 96;
pub(crate) const OFF_DEPTH: i32 = 104;
pub(crate) const OFF_CLASS_COUNT: i32 = 112;
pub(crate) const OFF_CODE_PTRS: i32 = 120;
pub(crate) const OFF_NFUNCS: i32 = 128;
pub(crate) const OFF_GPU_BASE: i32 = 136;
/// Four per-width region bounds `region_len - {1,2,4,8}`, indexed by
/// log2(access size).
pub(crate) const OFF_LIMIT_CPU: i32 = 144;
/// Same, for the private space.
pub(crate) const OFF_LIMIT_PRIV: i32 = 176;
/// Worklist push sink (`*mut Vec<i32>`), null outside worklist launches.
/// Generated code reaches the sink only through [`h_wl_push`], so the
/// offset is pinned by the layout test alone.
#[allow(dead_code)]
pub(crate) const OFF_WL_SINK: i32 = 208;
pub(crate) const OFF_INSTS: i32 = 216;
pub(crate) const OFF_GLOBAL_SIZE: i32 = 224;
pub(crate) const OFF_LOCAL_ID: i32 = 232;
pub(crate) const OFF_BODY_INVARIANT: i32 = 248;

/// Execution environment handed to generated code (one per chunk).
#[repr(C)]
#[derive(Debug)]
pub struct Env {
    /// Host pointer to byte 0 of the shared region.
    pub region_base: *mut u8,
    /// First kernel argument of every item in the chunk: the body, or a
    /// reduction's slot.
    pub arg0: u64,
    /// Host pointer to this core's private memory.
    pub priv_base: *mut u8,
    /// Private memory capacity in bytes.
    pub priv_len: u64,
    /// Private stack pointer (byte offset, not an address).
    pub priv_sp: u64,
    /// Remaining step budget of the current item; blocks pre-charge and
    /// trap when it would go negative (signed so the over-subtraction is
    /// visible). Generated code keeps it in `r11` and writes it here
    /// around calls and on return.
    pub steps: i64,
    /// The current work item (`global_id()`, and `group_id()`, which is
    /// the same on the CPU path); the chunk's first item on entry.
    pub global_id: i64,
    /// One past the chunk's last work item.
    pub item_end: i64,
    /// Step budget of each work item.
    pub budget: i64,
    /// A worklist round's frontier, indexed by work item: item `i`'s
    /// argument is `items[i]`. Null otherwise, where it is `i` itself.
    pub items: *const i32,
    /// 0 = no trap; otherwise one of the `TRAP_*` codes.
    pub trap_code: u64,
    /// First trap payload word (faulting address, vptr, or space code).
    pub trap_a: u64,
    /// Second trap payload word (space code).
    pub trap_b: u64,
    /// Current call depth (incremented around each call).
    pub depth: i64,
    /// Installed vtable count (virtual-dispatch validation).
    pub class_count: u64,
    /// Table of absolute entry addresses, indexed by `FuncId`.
    pub code_ptrs: *const u64,
    /// Number of functions in `code_ptrs`.
    pub nfuncs: u64,
    /// `GPU_BASE`, kept in memory so generated code avoids 10-byte movabs
    /// in the classification slow path.
    pub gpu_base: u64,
    /// `region_len - size` for sizes 1/2/4/8 (fused range+bounds check).
    pub limit_cpu: [u64; 4],
    /// `priv_len - size` for sizes 1/2/4/8.
    pub limit_priv: [u64; 4],
    /// Next-frontier push segment of the enclosing worklist round; null
    /// outside `parallel_worklist_hetero` (where `push` traps).
    pub wl: *mut Vec<i32>,
    /// Instructions charged to the chunk's completed items (a trapped
    /// item's are left in `budget - steps`).
    pub insts: u64,
    /// Total work items in the launch (`global_size()`).
    pub global_size: i64,
    /// Index within the work-group (always 0 on the CPU path).
    pub local_id: i64,
    /// Shared region capacity in bytes.
    pub region_len: u64,
    /// Nonzero when no write of the launch can land in the body's block:
    /// the chunk then loads the kernel's body fields for its first item
    /// only (read once, at chunk entry).
    pub body_invariant: u64,
}

impl Env {
    /// Build an environment over `region` and `private` memory, with the
    /// work-item ids of a host call (all zero) and no chunk.
    ///
    /// # Panics
    ///
    /// Panics if the region is smaller than 16 bytes (too small to hold
    /// even the device-heap descriptor; the runtime never makes one).
    pub fn new(
        region: (*mut u8, usize),
        private: (*mut u8, usize),
        class_count: u64,
        code_ptrs: &[u64],
    ) -> Env {
        let (region_base, region_len) = region;
        let (priv_base, priv_len) = private;
        assert!(region_len >= 16, "shared region too small for native execution");
        assert!(priv_len >= 16, "private memory too small for native execution");
        let limits = |len: u64| [len - 1, len - 2, len - 4, len - 8];
        Env {
            region_base,
            arg0: 0,
            priv_base,
            priv_len: priv_len as u64,
            priv_sp: 0,
            steps: 0,
            global_id: 0,
            item_end: 0,
            budget: 0,
            items: std::ptr::null(),
            trap_code: 0,
            trap_a: 0,
            trap_b: 0,
            depth: 0,
            class_count,
            code_ptrs: code_ptrs.as_ptr(),
            nfuncs: code_ptrs.len() as u64,
            gpu_base: GPU_BASE,
            limit_cpu: limits(region_len as u64),
            limit_priv: limits(priv_len as u64),
            wl: std::ptr::null_mut(),
            insts: 0,
            global_size: 0,
            local_id: 0,
            region_len: region_len as u64,
            body_invariant: 0,
        }
    }

    /// Reconstruct the interpreter-parity [`Trap`] from the trap cells.
    /// `kernel` is the launch entry function's name (the interpreter
    /// re-tags step-limit traps with it via `Trap::with_kernel`).
    pub fn take_trap(&self, kernel: &str) -> Option<Trap> {
        let space = |code: u64| match code {
            0 => AddrSpace::Cpu,
            1 => AddrSpace::Gpu,
            3 => AddrSpace::Local,
            _ => AddrSpace::Private,
        };
        Some(match self.trap_code {
            0 => return None,
            TRAP_DIV_ZERO => Trap::DivideByZero,
            TRAP_BAD_ADDRESS => Trap::BadAddress { addr: self.trap_a, space: space(self.trap_b) },
            TRAP_WRONG_SPACE => {
                Trap::WrongAddressSpace { found: space(self.trap_a), expected: space(self.trap_b) }
            }
            TRAP_BAD_DISPATCH => Trap::BadVirtualDispatch { vptr: self.trap_a },
            TRAP_STACK_OVERFLOW => Trap::StackOverflow,
            TRAP_STEP_LIMIT => {
                Trap::StepLimitExceeded { kernel: kernel.to_string(), global_id: self.global_id }
            }
            TRAP_WL_PUSH => Trap::BadIntrinsic("push outside parallel_worklist_hetero"),
            _ => Trap::Unreachable,
        })
    }
}

// ---- helper functions called from generated code ----
//
// All of these follow the System V C ABI; their addresses are embedded in
// the generated code as 64-bit immediates (process-static, so compiled
// modules are safely shareable through the JIT artifact cache — anything
// per-context, like the region base, lives in `Env` instead).

/// `floorf` with the interpreter's round-through-f32 discipline.
pub(crate) extern "C" fn h_floor(x: f64) -> f64 {
    x.floor() as f32 as f64
}

/// `expf`.
pub(crate) extern "C" fn h_exp(x: f64) -> f64 {
    x.exp() as f32 as f64
}

/// `powf`.
pub(crate) extern "C" fn h_pow(x: f64, y: f64) -> f64 {
    x.powf(y) as f32 as f64
}

/// `fminf` — Rust `f64::min` NaN semantics, which `minsd` does not match.
pub(crate) extern "C" fn h_fmin(x: f64, y: f64) -> f64 {
    x.min(y) as f32 as f64
}

/// `fmaxf`.
pub(crate) extern "C" fn h_fmax(x: f64, y: f64) -> f64 {
    x.max(y) as f32 as f64
}

/// `FpToSi`: NaN → 0, then Rust's saturating float→int cast.
pub(crate) extern "C" fn h_f2i(x: f64) -> i64 {
    let clamped = if x.is_nan() { 0.0 } else { x };
    clamped as i64
}

/// `device_malloc`, replicating `SharedRegion::device_malloc` against the
/// raw region bytes: the cursor/limit descriptor lives in the last 16
/// bytes and holds absolute CPU-space addresses. Only ever executed on
/// the serial path (the op is gated), so plain reads/writes suffice.
pub(crate) extern "C" fn h_device_malloc(env: *mut Env, size: i64) -> u64 {
    // SAFETY: generated code passes the env it was launched with; the
    // region pointer outlives the launch (the driver borrows the region).
    let env = unsafe { &mut *env };
    let cell = env.region_len as usize - 16;
    // SAFETY: `Env::new` guarantees region_len >= 16.
    let (cursor, limit) = unsafe {
        let p = env.region_base.add(cell).cast::<u8>();
        let mut c = [0u8; 8];
        let mut l = [0u8; 8];
        std::ptr::copy_nonoverlapping(p, c.as_mut_ptr(), 8);
        std::ptr::copy_nonoverlapping(p.add(8), l.as_mut_ptr(), 8);
        (u64::from_le_bytes(c), u64::from_le_bytes(l))
    };
    if cursor == 0 {
        return 0; // heap not enabled
    }
    let base = cursor.div_ceil(16) * 16;
    let size = (size.max(0) as u64).max(1);
    if base + size > limit {
        return 0;
    }
    // SAFETY: same in-bounds descriptor cell as above.
    unsafe {
        let p = env.region_base.add(cell);
        std::ptr::copy_nonoverlapping((base + size).to_le_bytes().as_ptr(), p, 8);
    }
    base
}

/// `push(item)`: append to the bound next-frontier segment. With no
/// worklist launch active the sink is null — record [`TRAP_WL_PUSH`];
/// the generated code checks the trap cell after the call and bails.
pub(crate) extern "C" fn h_wl_push(env: *mut Env, item: i64) {
    // SAFETY: generated code passes the env it was launched with.
    let env = unsafe { &mut *env };
    if env.wl.is_null() {
        env.trap_code = TRAP_WL_PUSH;
        return;
    }
    // SAFETY: the launch driver keeps the segment alive and exclusively
    // bound to this env for the whole launch.
    unsafe { (*env.wl).push(item as i32) };
}

/// Compile-time check that `CPU_BASE` is the constant the fused
/// range+bounds check assumes (an address below it classifies private).
const _: () = assert!(CPU_BASE == 0x4000_0000_0000);

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::offset_of;

    #[test]
    fn env_offsets_match_codegen_constants() {
        assert_eq!(offset_of!(Env, region_base), OFF_REGION_BASE as usize);
        assert_eq!(offset_of!(Env, arg0), OFF_ARG0 as usize);
        assert_eq!(offset_of!(Env, priv_base), OFF_PRIV_BASE as usize);
        assert_eq!(offset_of!(Env, priv_len), OFF_PRIV_LEN as usize);
        assert_eq!(offset_of!(Env, priv_sp), OFF_PRIV_SP as usize);
        assert_eq!(offset_of!(Env, steps), OFF_STEPS as usize);
        assert_eq!(offset_of!(Env, global_id), OFF_GLOBAL_ID as usize);
        assert_eq!(offset_of!(Env, item_end), OFF_ITEM_END as usize);
        assert_eq!(offset_of!(Env, budget), OFF_BUDGET as usize);
        assert_eq!(offset_of!(Env, items), OFF_ITEMS as usize);
        assert_eq!(offset_of!(Env, trap_code), OFF_TRAP_CODE as usize);
        assert_eq!(offset_of!(Env, trap_a), OFF_TRAP_A as usize);
        assert_eq!(offset_of!(Env, trap_b), OFF_TRAP_B as usize);
        assert_eq!(offset_of!(Env, depth), OFF_DEPTH as usize);
        assert_eq!(offset_of!(Env, class_count), OFF_CLASS_COUNT as usize);
        assert_eq!(offset_of!(Env, code_ptrs), OFF_CODE_PTRS as usize);
        assert_eq!(offset_of!(Env, nfuncs), OFF_NFUNCS as usize);
        assert_eq!(offset_of!(Env, gpu_base), OFF_GPU_BASE as usize);
        assert_eq!(offset_of!(Env, limit_cpu), OFF_LIMIT_CPU as usize);
        assert_eq!(offset_of!(Env, limit_priv), OFF_LIMIT_PRIV as usize);
        assert_eq!(offset_of!(Env, wl), OFF_WL_SINK as usize);
        assert_eq!(offset_of!(Env, insts), OFF_INSTS as usize);
        assert_eq!(offset_of!(Env, global_size), OFF_GLOBAL_SIZE as usize);
        assert_eq!(offset_of!(Env, local_id), OFF_LOCAL_ID as usize);
        assert_eq!(offset_of!(Env, body_invariant), OFF_BODY_INVARIANT as usize);
        // What the item loop touches per item takes a one-byte
        // displacement.
        for off in [OFF_ARG0, OFF_GLOBAL_ID, OFF_ITEM_END, OFF_BUDGET, OFF_ITEMS] {
            assert!(off < 128, "item-loop field at {off}");
        }
    }

    #[test]
    fn trap_reconstruction() {
        let mut region = vec![0u8; 64];
        let mut privm = vec![0u8; 64];
        let ptrs: Vec<u64> = vec![];
        let mut env = Env::new(
            (region.as_mut_ptr(), region.len()),
            (privm.as_mut_ptr(), privm.len()),
            0,
            &ptrs,
        );
        assert!(env.take_trap("k").is_none());
        env.trap_code = TRAP_BAD_ADDRESS;
        env.trap_a = 0x123;
        env.trap_b = 2;
        assert_eq!(
            env.take_trap("k"),
            Some(Trap::BadAddress { addr: 0x123, space: AddrSpace::Private })
        );
        env.trap_code = TRAP_STEP_LIMIT;
        env.global_id = 7;
        assert_eq!(
            env.take_trap("mykernel"),
            Some(Trap::StepLimitExceeded { kernel: "mykernel".into(), global_id: 7 })
        );
    }

    #[test]
    fn device_malloc_helper_matches_region_semantics() {
        use concord_svm::SharedRegion;
        let mut region = SharedRegion::new(4096, 0);
        region.init_device_heap(concord_svm::CpuAddr(CPU_BASE + 1000), 600).unwrap();
        let expected1 = region.device_malloc(100).unwrap();
        let expected2 = region.device_malloc(3).unwrap();
        let exhausted = region.device_malloc(4096).unwrap();

        let mut region2 = SharedRegion::new(4096, 0);
        region2.init_device_heap(concord_svm::CpuAddr(CPU_BASE + 1000), 600).unwrap();
        let (base, len) = region2.raw_parts_mut();
        let mut privm = vec![0u8; 64];
        let ptrs: Vec<u64> = vec![];
        let mut env = Env::new((base, len), (privm.as_mut_ptr(), privm.len()), 0, &ptrs);
        let got1 = h_device_malloc(&mut env, 100);
        let got2 = h_device_malloc(&mut env, 3);
        let got3 = h_device_malloc(&mut env, 4096);
        assert_eq!(got1, expected1.0);
        assert_eq!(got2, expected2.0);
        assert_eq!(got3, exhausted.0);
    }
}
