//! The GPU's shared, non-banked L3 cache with cross-EU same-line
//! contention tracking.
//!
//! §4.2: "The integrated GPUs use an unified L3 cache for all GPU cores...
//! This cache is not banked and thus suffers from contention among multiple
//! GPU cores trying to access the same data in a cache line at the same
//! time." The simulator models "at the same time" as: another EU touched
//! the same line in the same scheduling wave, at a nearby position in its
//! own access stream. Two EUs streaming an array in the same order collide
//! on every line; the §4.2 loop rotation de-phases them.

use concord_cpusim::Cache;
use concord_svm::GPU_BASE;

const RECENT_PER_LINE: usize = 8;

/// Lines per page of the contention history.
const PAGE_LINES: usize = 64;

/// Outcome of one L3 lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Access {
    /// Whether the line was resident.
    pub hit: bool,
    /// Whether another EU accessed the same line concurrently.
    pub contended: bool,
}

/// One line's recent (wave, eu, stream position) accesses: the first
/// `len` entries of a ring of [`RECENT_PER_LINE`].
#[derive(Debug, Clone, Copy, Default)]
struct Recent {
    len: u8,
    entries: [(u32, u32, u64); RECENT_PER_LINE],
}

/// Shared GPU L3.
#[derive(Debug)]
pub struct GpuL3 {
    cache: Cache,
    /// The contention history of the region's lines, by line offset from
    /// `GPU_BASE`, in pages of [`PAGE_LINES`] lines. A page exists once
    /// one of its lines was accessed since the last flush; the directory
    /// reaches only the highest such page.
    pages: Vec<Option<Box<[Recent; PAGE_LINES]>>>,
    /// Emptied pages, kept for reuse by later launches.
    spare: Vec<Box<[Recent; PAGE_LINES]>>,
    /// Directory indices of the pages that exist, in creation order.
    touched: Vec<usize>,
    /// Lines the current region spans (set at [`GpuL3::flush`]); the
    /// history covers only these. A line at or past this offset is only
    /// ever logged by a warp that traps on it, and nothing after that trap
    /// is replayed, so leaving it out changes no contention count.
    lines: u64,
    /// Window (in per-warp access-stream positions) within which two
    /// accesses in the same wave count as simultaneous.
    window: u64,
    hits: u64,
    misses: u64,
    contentions: u64,
}

impl GpuL3 {
    /// An L3 of `bytes` capacity with the given contention window. It
    /// tracks contention once [`GpuL3::flush`] has named a region.
    pub fn new(bytes: u64, window: u64) -> Self {
        GpuL3 {
            cache: Cache::new(bytes, 16),
            pages: Vec::new(),
            spare: Vec::new(),
            touched: Vec::new(),
            lines: 0,
            window,
            hits: 0,
            misses: 0,
            contentions: 0,
        }
    }

    /// Look up `addr` for EU `eu` in scheduling wave `wave`, at position
    /// `seq` of the requesting warp's access stream.
    pub fn access(&mut self, addr: u64, eu: u32, wave: u32, seq: u64) -> L3Access {
        let hit = self.cache.access(addr);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        let line = (addr >> 6).wrapping_sub(GPU_BASE >> 6);
        let contended = line < self.lines && self.record(line as usize, eu, wave, seq);
        if contended {
            self.contentions += 1;
        }
        L3Access { hit, contended }
    }

    /// Check line `line`'s history for a concurrent access by another EU,
    /// then log this access, keeping the most recent ones (ring
    /// overwrite).
    fn record(&mut self, line: usize, eu: u32, wave: u32, seq: u64) -> bool {
        let (page, at) = (line / PAGE_LINES, line % PAGE_LINES);
        if self.pages.len() <= page {
            self.pages.resize_with(page + 1, || None);
        }
        let recent = &mut self.pages[page].get_or_insert_with(|| {
            self.touched.push(page);
            self.spare.pop().unwrap_or_else(|| Box::new([Recent::default(); PAGE_LINES]))
        })[at];
        let len = recent.len as usize;
        let contended = recent.entries[..len]
            .iter()
            .any(|&(w, e, s)| w == wave && e != eu && s.abs_diff(seq) <= self.window);
        let slot = if len < RECENT_PER_LINE {
            recent.len += 1;
            len
        } else {
            (seq % RECENT_PER_LINE as u64) as usize
        };
        recent.entries[slot] = (wave, eu, seq);
        contended
    }

    /// L3 hit rate over all accesses.
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            1.0
        } else {
            self.hits as f64 / t as f64
        }
    }

    /// Number of contended accesses observed.
    pub fn contentions(&self) -> u64 {
        self.contentions
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Drop cached contents and the contention history (between kernels),
    /// and bound the history to a region of `capacity` bytes. Only the
    /// pages the last launch touched are cleared.
    pub fn flush(&mut self, capacity: u64) {
        self.cache.flush();
        for at in self.touched.drain(..) {
            let mut page = self.pages[at].take().expect("a touched page exists");
            page.iter_mut().for_each(|r| r.len = 0);
            self.spare.push(page);
        }
        self.lines = capacity.div_ceil(64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An L3 over a 1 MiB region, addressed from `GPU_BASE`.
    fn l3(window: u64) -> GpuL3 {
        let mut l3 = GpuL3::new(256 * 1024, window);
        l3.flush(1 << 20);
        l3
    }

    #[test]
    fn same_order_streams_contend() {
        let mut l3 = l3(32);
        // EU 0 and EU 1 walk the same 64 lines in the same order in wave 0.
        for (seq, i) in (0..64u64).enumerate() {
            l3.access(GPU_BASE + i * 64, 0, 0, seq as u64);
        }
        let mut contended = 0;
        for (seq, i) in (0..64u64).enumerate() {
            if l3.access(GPU_BASE + i * 64, 1, 0, seq as u64).contended {
                contended += 1;
            }
        }
        assert_eq!(contended, 64, "in-phase streams collide on every line");
    }

    #[test]
    fn rotated_streams_do_not_contend() {
        let mut l3 = l3(16);
        let n = 256u64;
        // EU 0 starts at 0; EU 1 starts at 128 (the §4.2 rotation).
        for seq in 0..n {
            l3.access(GPU_BASE + (seq % n) * 64, 0, 0, seq);
        }
        let mut contended = 0;
        for seq in 0..n {
            let line = (seq + 128) % n;
            if l3.access(GPU_BASE + line * 64, 1, 0, seq).contended {
                contended += 1;
            }
        }
        assert!(contended < 8, "rotated phases must avoid same-line concurrency: {contended}");
    }

    #[test]
    fn different_waves_do_not_contend() {
        let mut l3 = l3(32);
        l3.access(GPU_BASE, 0, 0, 0);
        let a = l3.access(GPU_BASE, 1, 1, 0); // other EU but a later wave
        assert!(!a.contended);
    }

    #[test]
    fn same_eu_never_contends_with_itself() {
        let mut l3 = l3(32);
        l3.access(GPU_BASE, 3, 0, 0);
        assert!(!l3.access(GPU_BASE, 3, 0, 1).contended);
    }

    #[test]
    fn hit_tracking() {
        let mut l3 = l3(32);
        assert!(!l3.access(GPU_BASE + 0x100, 0, 0, 0).hit);
        assert!(l3.access(GPU_BASE + 0x100, 0, 0, 1).hit);
        assert!(l3.hit_rate() > 0.4);
        l3.flush(1 << 20);
        assert!(!l3.access(GPU_BASE + 0x100, 0, 0, 2).hit);
    }

    #[test]
    fn flush_forgets_the_history_of_every_touched_page() {
        let mut l3 = l3(32);
        // Lines in the first and the last page of the region.
        let lines = [GPU_BASE, GPU_BASE + (1 << 20) - 64];
        for &a in &lines {
            l3.access(a, 0, 0, 0);
            assert!(l3.access(a, 1, 0, 0).contended);
        }
        l3.flush(1 << 20);
        for &a in &lines {
            assert!(!l3.access(a, 1, 0, 0).contended, "{a:#x} kept history across a flush");
        }
    }

    #[test]
    fn lines_past_the_region_are_cached_but_never_contend() {
        let mut l3 = l3(32);
        let past = GPU_BASE + (1 << 20);
        assert!(!l3.access(past, 0, 0, 0).hit);
        let again = l3.access(past, 1, 0, 0);
        assert!(again.hit && !again.contended);
        assert_eq!((l3.accesses(), l3.contentions()), (2, 0));
    }
}
