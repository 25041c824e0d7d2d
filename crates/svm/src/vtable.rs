//! Vtables and global symbols in the shared region.
//!
//! §3.2 of the paper: to support virtual functions on the GPU, Concord
//! (a) moves the vtables and runtime-type information into the shared
//! region, and (b) shares the global symbols of the relevant virtual
//! functions between CPU and GPU through shared memory.
//!
//! The layout here is deterministic: class `c`'s vtable lives at
//! `CPU_BASE + c * VTABLE_STRIDE` inside the reserved area at the bottom of
//! the region. Because it is deterministic, the devirtualization pass can
//! embed the vtable addresses as compile-time constants in the inline test
//! sequence it generates — the analogue of the paper's constant binding
//! table entry.

use crate::region::{CpuAddr, SharedRegion, CPU_BASE};
use concord_ir::eval::Trap;
use concord_ir::types::ClassId;
use concord_ir::Module;

/// Bytes reserved per class vtable (magic word + class id + slot ids).
pub const VTABLE_STRIDE: u64 = 128;

/// Maximum vtable slots per class under the fixed stride.
pub const MAX_VTABLE_SLOTS: usize = 14;

const _: () = assert!(16 + 8 * MAX_VTABLE_SLOTS as u64 == VTABLE_STRIDE);

/// Magic word at slot 0 of every installed vtable. Public so execution
/// engines that compile dispatch inline (the native JIT backend) can embed
/// the same validation the interpreter performs in [`VtableArea::dispatch`].
pub const VTABLE_MAGIC: i64 = 0x7654_3210_c0c0;

/// Host-side view of the vtable area in the shared region.
#[derive(Debug, Clone, Default)]
pub struct VtableArea {
    class_count: u32,
    /// Function ids at or past this one name no function of the module.
    func_count: u32,
}

impl VtableArea {
    /// Bytes that must be reserved at the bottom of the region for a module
    /// with `class_count` polymorphic classes.
    pub fn reserve_for(class_count: usize) -> u64 {
        (class_count as u64) * VTABLE_STRIDE
    }

    /// Write every class's vtable into the reserved area. Called once at
    /// program startup, before any kernel runs. Slots past a class's own
    /// hold -1, which names no function: a call through a slot the
    /// object's class does not have traps as a scribbled slot does.
    ///
    /// # Errors
    ///
    /// Propagates memory faults if the reserved area is too small for the
    /// module's classes.
    ///
    /// # Panics
    ///
    /// Panics if a class has more than [`MAX_VTABLE_SLOTS`] virtual methods.
    pub fn install(region: &mut SharedRegion, module: &Module) -> Result<Self, Trap> {
        for (i, class) in module.classes.iter().enumerate() {
            assert!(
                class.vtable.len() <= MAX_VTABLE_SLOTS,
                "class {} exceeds {MAX_VTABLE_SLOTS} vtable slots",
                class.name
            );
            let base = Self::addr_of(ClassId(i as u32));
            region.write_i64(base, VTABLE_MAGIC)?;
            region.write_i64(base.offset(8), i as i64)?;
            let funcs = class.vtable.iter().map(|f| i64::from(f.0));
            for (slot, func) in
                funcs.chain(std::iter::repeat(-1)).take(MAX_VTABLE_SLOTS).enumerate()
            {
                region.write_i64(base.offset(16 + 8 * slot as u64), func)?;
            }
        }
        let (class_count, func_count) = (module.classes.len(), module.functions.len());
        Ok(VtableArea { class_count: class_count as u32, func_count: func_count as u32 })
    }

    /// CPU address of class `c`'s vtable. Deterministic; usable as a
    /// compile-time constant by the devirtualization pass.
    pub fn addr_of(c: ClassId) -> CpuAddr {
        CpuAddr(CPU_BASE + c.0 as u64 * VTABLE_STRIDE)
    }

    /// Reverse lookup: which class owns the vtable at `addr`?
    ///
    /// Used by the CPU interpreter for true dynamic dispatch (the CPU *can*
    /// use function pointers) and by diagnostics.
    pub fn class_of(&self, addr: CpuAddr) -> Option<ClassId> {
        let off = addr.0.checked_sub(CPU_BASE)?;
        if off % VTABLE_STRIDE != 0 {
            return None;
        }
        let idx = off / VTABLE_STRIDE;
        (idx < self.class_count as u64).then_some(ClassId(idx as u32))
    }

    /// Read a vtable slot (function id) through memory, validating the
    /// magic word and the id — this is how the CPU side dispatches.
    ///
    /// # Errors
    ///
    /// [`Trap::BadVirtualDispatch`] if `vptr` does not point at an installed
    /// vtable, or if the slot holds no function id of the installed module
    /// (a kernel stored over it).
    pub fn dispatch(
        &self,
        region: &SharedRegion,
        vptr: CpuAddr,
        slot: u32,
    ) -> Result<concord_ir::FuncId, Trap> {
        let bad = Trap::BadVirtualDispatch { vptr: vptr.0 };
        if self.class_of(vptr).is_none() || region.read_i64(vptr) != Ok(VTABLE_MAGIC) {
            return Err(bad);
        }
        let func = region.read_i64(vptr.offset(16 + 8 * slot as u64))?;
        u32::try_from(func).ok().filter(|&f| f < self.func_count).map(concord_ir::FuncId).ok_or(bad)
    }

    /// Number of installed class vtables.
    pub fn class_count(&self) -> u32 {
        self.class_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_ir::builder::FunctionBuilder;
    use concord_ir::types::{StructDef, Type};
    use concord_ir::{ClassInfo, Module};

    fn module_with_classes() -> Module {
        let mut m = Module::new();
        let layout = m.add_struct(StructDef {
            name: "Shape".into(),
            fields: vec![],
            size: 8,
            align: 8,
            class_id: None,
        });
        let mut f1 = FunctionBuilder::new("Shape::area", vec![], Type::F32);
        let z = f1.f32(0.0);
        f1.ret(Some(z));
        let f1 = m.add_function(f1.build());
        let mut f2 = FunctionBuilder::new("Circle::area", vec![], Type::F32);
        let z = f2.f32(2.5);
        f2.ret(Some(z));
        let f2 = m.add_function(f2.build());
        m.add_class(ClassInfo { name: "Shape".into(), layout, bases: vec![], vtable: vec![f1] });
        m.add_class(ClassInfo {
            name: "Circle".into(),
            layout,
            bases: vec![ClassId(0)],
            vtable: vec![f2],
        });
        m
    }

    #[test]
    fn install_and_dispatch() {
        let m = module_with_classes();
        let mut region = SharedRegion::new(65536, VtableArea::reserve_for(m.classes.len()));
        let area = VtableArea::install(&mut region, &m).unwrap();
        let circle_vt = VtableArea::addr_of(ClassId(1));
        assert_eq!(area.class_of(circle_vt), Some(ClassId(1)));
        let f = area.dispatch(&region, circle_vt, 0).unwrap();
        assert_eq!(m.function(f).name, "Circle::area");
    }

    #[test]
    fn dispatch_through_garbage_pointer_fails() {
        let m = module_with_classes();
        let mut region = SharedRegion::new(65536, VtableArea::reserve_for(m.classes.len()));
        let area = VtableArea::install(&mut region, &m).unwrap();
        // Misaligned.
        assert!(matches!(
            area.dispatch(&region, CpuAddr(CPU_BASE + 7), 0),
            Err(Trap::BadVirtualDispatch { .. })
        ));
        // Beyond installed classes.
        assert!(matches!(
            area.dispatch(&region, VtableArea::addr_of(ClassId(9)), 0),
            Err(Trap::BadVirtualDispatch { .. })
        ));
    }

    #[test]
    fn dispatch_of_a_scribbled_slot_fails() {
        let m = module_with_classes();
        let mut region = SharedRegion::new(65536, VtableArea::reserve_for(m.classes.len()));
        let area = VtableArea::install(&mut region, &m).unwrap();
        let circle_vt = VtableArea::addr_of(ClassId(1));
        for bogus in [m.functions.len() as i64, -1, i64::MAX] {
            region.write_i64(circle_vt.offset(16), bogus).unwrap();
            assert_eq!(
                area.dispatch(&region, circle_vt, 0),
                Err(Trap::BadVirtualDispatch { vptr: circle_vt.0 })
            );
        }
    }

    #[test]
    fn dispatch_past_the_class_slots_fails() {
        let m = module_with_classes();
        let mut region = SharedRegion::new(65536, VtableArea::reserve_for(m.classes.len()));
        let area = VtableArea::install(&mut region, &m).unwrap();
        let circle_vt = VtableArea::addr_of(ClassId(1));
        for slot in 1..MAX_VTABLE_SLOTS as u32 {
            assert_eq!(
                area.dispatch(&region, circle_vt, slot),
                Err(Trap::BadVirtualDispatch { vptr: circle_vt.0 })
            );
        }
    }

    #[test]
    fn vtable_addresses_are_deterministic() {
        assert_eq!(VtableArea::addr_of(ClassId(0)).0, CPU_BASE);
        assert_eq!(VtableArea::addr_of(ClassId(3)).0, CPU_BASE + 3 * VTABLE_STRIDE);
    }

    #[test]
    fn reserve_covers_all_classes() {
        assert_eq!(VtableArea::reserve_for(0), 0);
        assert_eq!(VtableArea::reserve_for(5), 5 * VTABLE_STRIDE);
    }
}
