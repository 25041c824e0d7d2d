//! Seeded input generation. Everything the benchmark itself generates
//! (payload bytes, kernel constants, the served graph, request order)
//! derives from `--seed` through this generator; the program under test
//! only ever sees the generated inputs.

/// SplitMix64: tiny, well-mixed, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// Generator for one named input `stream` of a run, so adding a new
    /// input does not shift the values of the existing ones.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough value in `[lo, hi]` (the ranges used are tiny
    /// against 2^64, so modulo bias is immaterial).
    pub fn range(&mut self, lo: i32, hi: i32) -> i32 {
        let span = (i64::from(hi) - i64::from(lo) + 1) as u64;
        (i64::from(lo) + (self.next_u64() % span) as i64) as i32
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Input streams, one per generated input.
pub mod stream {
    pub const KERNEL_CONSTANTS: u64 = 1;
    pub const REDUCE_DATA: u64 = 2;
    pub const CLASS_ORDER: u64 = 3;
    pub const BULK_PAYLOAD: u64 = 4;
    pub const RW_VALUES: u64 = 5;
}

/// Little-endian image of an `i32` array.
pub fn le_bytes(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let draw = |seed| {
            let mut r = Rng::new(seed, stream::BULK_PAYLOAD);
            let vals: Vec<i32> = (0..64).map(|_| r.range(0, 1 << 20)).collect();
            let mut order: Vec<usize> = (0..7).collect();
            Rng::new(seed, stream::CLASS_ORDER).shuffle(&mut order);
            (vals, order)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn streams_are_independent_and_ranges_hold() {
        let a = Rng::new(1, stream::KERNEL_CONSTANTS).next_u64();
        let b = Rng::new(1, stream::REDUCE_DATA).next_u64();
        assert_ne!(a, b);
        let mut r = Rng::new(3, stream::RW_VALUES);
        assert!((0..1000).all(|_| (2..=9).contains(&r.range(2, 9))));
        let mut order: Vec<usize> = (0..9).collect();
        r.shuffle(&mut order);
        order.sort_unstable();
        assert_eq!(order, (0..9).collect::<Vec<_>>());
    }
}
