//! Set-associative LRU cache model (shared by both simulators' memory
//! hierarchies).

/// A set-associative cache with LRU replacement, tracking tags only.
#[derive(Debug, Clone)]
pub struct Cache {
    /// log2 of the line size.
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `sets × ways` tags; `u64::MAX` = invalid. LRU order per set is
    /// maintained by position (way 0 = most recent).
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache of `bytes` capacity with `ways` associativity and
    /// 64-byte lines. The set count, `bytes / 64 / ways` (at least one),
    /// must be a power of two, so a line's set is its low bits. Every
    /// shipped cache has one: 64 and 4096 or 8192 sets for the CPU L1 and
    /// LLC, 512 or 256 for the GPU L3.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two.
    pub fn new(bytes: u64, ways: usize) -> Self {
        let line = 64u64;
        let lines = (bytes / line).max(1) as usize;
        let sets = (lines / ways).max(1);
        assert!(sets.is_power_of_two(), "{sets} sets: the set count must be a power of two");
        Cache { line_shift: 6, sets, ways, tags: vec![u64::MAX; sets * ways], hits: 0, misses: 0 }
    }

    /// The cache line index of an address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Access `addr`; returns true on hit. Misses fill the line. Inlined
    /// into every simulated access, as the load path's other steps are.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = line as usize & (self.sets - 1);
        let base = set * self.ways;
        let ways = &mut self.tags[base..base + self.ways];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            // Move to MRU position.
            ways[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            ways.rotate_right(1);
            ways[0] = line;
            self.misses += 1;
            false
        }
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in [0, 1]; 1.0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Forget all cached lines but keep statistics.
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = Cache::new(32 * 1024, 8);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004), "same line");
        assert!(!c.access(0x2000));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Two-way cache with very few sets: force conflict.
        let mut c = Cache::new(256, 2); // 4 lines, 2 sets × 2 ways
                                        // Three lines mapping to the same set (stride = sets*64 = 128).
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(!c.access(256)); // evicts line 0
        assert!(!c.access(0), "line 0 was evicted");
        assert!(c.access(256), "line 256 is most recent");
    }

    #[test]
    fn working_set_smaller_than_cache_always_hits() {
        let mut c = Cache::new(32 * 1024, 8);
        for round in 0..4 {
            for addr in (0..16 * 1024u64).step_by(64) {
                let hit = c.access(addr);
                if round > 0 {
                    assert!(hit, "addr {addr:#x} should be resident");
                }
            }
        }
        assert!(c.hit_rate() > 0.7);
    }

    #[test]
    #[should_panic(expected = "the set count must be a power of two")]
    fn sets_that_are_not_a_power_of_two_are_refused() {
        // 48 lines in 8 ways: 6 sets.
        Cache::new(48 * 64, 8);
    }

    #[test]
    fn flush_clears_contents_keeps_stats() {
        let mut c = Cache::new(1024, 2);
        c.access(0);
        c.flush();
        assert!(!c.access(0));
        assert_eq!(c.misses(), 2);
    }
}
