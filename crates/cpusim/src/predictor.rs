//! Gshare branch predictor.
//!
//! §5.2.2 attributes the desktop CPU's resilience on irregular workloads
//! partly to "highly accurate branch predictors that handle control flow
//! divergence very well" — so the CPU timing model includes a real
//! predictor rather than a flat misprediction rate.

/// Gshare: global history XOR branch address indexes a table of 2-bit
/// saturating counters.
#[derive(Debug, Clone)]
pub struct Gshare {
    history: u64,
    history_bits: u32,
    counters: Vec<u8>,
    predictions: u64,
    mispredictions: u64,
}

impl Gshare {
    /// A predictor with `history_bits` of global history (table size
    /// `2^history_bits`).
    pub fn new(history_bits: u32) -> Self {
        Gshare {
            history: 0,
            history_bits,
            counters: vec![1; 1usize << history_bits], // weakly not-taken
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.history_bits) - 1;
        ((pc ^ self.history) & mask) as usize
    }

    /// Record a resolved branch; returns true if it was predicted
    /// correctly.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.counters[idx] >= 2;
        let correct = predicted == taken;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        // Update counter and history.
        if taken {
            self.counters[idx] = (self.counters[idx] + 1).min(3);
        } else {
            self.counters[idx] = self.counters[idx].saturating_sub(1);
        }
        let mask = (1u64 << self.history_bits) - 1;
        self.history = ((self.history << 1) | taken as u64) & mask;
        correct
    }

    /// Total branches observed.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Mispredicted branches.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction rate in [0, 1].
    #[cfg(test)]
    fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_loop_back_edges() {
        let mut g = Gshare::new(12);
        // A loop branch: taken 63 times, not taken once, repeatedly.
        for _ in 0..50 {
            for i in 0..64 {
                g.predict_and_update(0x40, i != 63);
            }
        }
        assert!(g.miss_rate() < 0.10, "loop branches must be well predicted: {}", g.miss_rate());
    }

    #[test]
    fn random_branches_hurt() {
        let mut g = Gshare::new(12);
        // Pseudo-random data-dependent branch (xorshift).
        let mut x = 0x9e3779b9u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            g.predict_and_update(0x80, x & 1 == 0);
        }
        assert!(g.miss_rate() > 0.3, "random branches cannot be predicted: {}", g.miss_rate());
    }

    #[test]
    fn alternating_pattern_is_learned() {
        let mut g = Gshare::new(12);
        for i in 0..4_000 {
            g.predict_and_update(0x10, i % 2 == 0);
        }
        assert!(g.miss_rate() < 0.1, "history should capture alternation: {}", g.miss_rate());
    }
}
