//! Executable code buffers with a W^X lifecycle.
//!
//! The JIT needs a page-aligned allocation that is first writable (while
//! machine code is copied in) and then executable-but-not-writable for the
//! rest of its life. The workspace is std-only, so — exactly like the
//! daemon's `serve/src/signal.rs` — this calls the C entry points
//! (`mmap`/`mprotect`/`munmap`) through hand-rolled `extern "C"`
//! declarations instead of pulling in a bindings crate.
//!
//! Lifecycle: `ExecBuf::new(bytes)` maps fresh anonymous pages `RW`, the
//! constructor copies the code image in, flips the pages to `R+X` with
//! `mprotect`, and from then on the buffer is immutable. `Drop` unmaps.
//! The buffer is only constructible on the targets where the backend is
//! compiled at all (`x86_64` Linux); everywhere else the whole crate
//! degrades to [`crate::supported`] returning `false`.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use std::ffi::c_void;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const PROT_EXEC: i32 = 4;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_FAILED: usize = usize::MAX;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, length: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, length: usize) -> i32;
    }

    /// An immutable, executable machine-code image.
    #[derive(Debug)]
    pub struct ExecBuf {
        base: *mut u8,
        len: usize,
        code_len: usize,
    }

    // The mapping is written once during construction and read/executed
    // only thereafter; the raw pointer is what makes this non-auto.
    unsafe impl Send for ExecBuf {}
    unsafe impl Sync for ExecBuf {}

    impl ExecBuf {
        /// Map pages, copy `code` in, and seal the mapping `R+X`.
        ///
        /// Returns `None` if the kernel refuses the mapping (out of
        /// address space, or a hardened configuration that denies
        /// executable anonymous memory).
        pub fn new(code: &[u8]) -> Option<ExecBuf> {
            let len = code.len().max(1).div_ceil(4096) * 4096;
            // SAFETY: anonymous private mapping with no fixed address;
            // the kernel picks a fresh range that aliases nothing.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base as usize == MAP_FAILED || base.is_null() {
                return None;
            }
            let base = base.cast::<u8>();
            // SAFETY: `base..base+len` is exactly the fresh mapping above.
            unsafe {
                std::ptr::copy_nonoverlapping(code.as_ptr(), base, code.len());
            }
            // SAFETY: same range; drops W before adding X (W^X).
            let rc = unsafe { mprotect(base.cast(), len, PROT_READ | PROT_EXEC) };
            if rc != 0 {
                // SAFETY: unmapping the mapping created above.
                unsafe { munmap(base.cast(), len) };
                return None;
            }
            Some(ExecBuf { base, len, code_len: code.len() })
        }

        /// The code image, as copied in.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: the first `code_len` bytes of the live mapping were
            // initialized by `new` and are never written again (R+X).
            unsafe { std::slice::from_raw_parts(self.base, self.code_len) }
        }

        /// Absolute address of byte `off` of the image.
        pub fn addr_at(&self, off: usize) -> u64 {
            debug_assert!(off < self.len);
            self.base as u64 + off as u64
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping owned by this value.
            unsafe { munmap(self.base.cast(), self.len) };
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod imp {
    /// Stub on unsupported targets: never constructible, so the rest of
    /// the crate compiles unchanged while [`crate::supported`] is `false`.
    #[derive(Debug)]
    pub struct ExecBuf {
        never: std::convert::Infallible,
    }

    impl ExecBuf {
        /// Always `None` on unsupported targets.
        pub fn new(_code: &[u8]) -> Option<ExecBuf> {
            None
        }

        /// Unreachable (the type is uninhabited).
        pub fn addr_at(&self, _off: usize) -> u64 {
            match self.never {}
        }

        /// Unreachable (the type is uninhabited).
        pub fn bytes(&self) -> &[u8] {
            match self.never {}
        }
    }
}

pub use imp::ExecBuf;
