//! GAg branch predictor (Table 1: GAg with 1K entries).
//!
//! GAg indexes a table of 2-bit saturating counters purely by the global
//! branch history register — no per-branch address component.

/// Two-level adaptive predictor, GAg configuration.
pub struct GagPredictor {
    /// Global history register; low bits index the pattern table.
    ghr: u64,
    /// 2-bit saturating counters (0..=3; taken when >= 2).
    table: Vec<u8>,
    mask: u64,
    predictions: u64,
    mispredictions: u64,
}

impl GagPredictor {
    /// `entries` must be a power of two (Table 1: 1024).
    pub fn new(entries: usize) -> Self {
        let entries = entries.next_power_of_two().max(2);
        GagPredictor {
            ghr: 0,
            table: vec![2; entries], // weakly taken: loops predict well fast
            mask: (entries - 1) as u64,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predict the current branch, then update with the actual outcome.
    /// Returns `true` when the prediction was correct.
    pub fn predict_and_update(&mut self, taken: bool) -> bool {
        let idx = (self.ghr & self.mask) as usize;
        let predicted = self.table[idx] >= 2;
        if taken {
            if self.table[idx] < 3 {
                self.table[idx] += 1;
            }
        } else if self.table[idx] > 0 {
            self.table[idx] -= 1;
        }
        self.ghr = (self.ghr << 1) | taken as u64;
        self.predictions += 1;
        let correct = predicted == taken;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    pub fn misprediction_rate(&self) -> f64 {
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
    fn always_taken_converges() {
        let mut p = GagPredictor::new(1024);
        // After warmup, always-taken is always predicted.
        for _ in 0..20 {
            p.predict_and_update(true);
        }
        let before = p.mispredictions();
        for _ in 0..100 {
            assert!(p.predict_and_update(true));
        }
        assert_eq!(p.mispredictions(), before);
    }

    #[test]
    fn alternating_pattern_learned_by_history() {
        let mut p = GagPredictor::new(1024);
        // T,N,T,N... GAg keys on history, so after warmup each history
        // pattern maps to its own counter and the pattern is predictable.
        for i in 0..64 {
            p.predict_and_update(i % 2 == 0);
        }
        let before = p.mispredictions();
        for i in 64..164 {
            p.predict_and_update(i % 2 == 0);
        }
        assert_eq!(p.mispredictions(), before, "alternation fully learned");
    }

    #[test]
    fn loop_exit_mispredicts_boundedly() {
        let mut p = GagPredictor::new(1024);
        // 9-iteration loops: 8 taken + 1 not-taken. With 10 bits of
        // history, the exit becomes predictable after warmup.
        for _ in 0..200 {
            for i in 0..9 {
                p.predict_and_update(i != 8);
            }
        }
        assert!(
            p.misprediction_rate() < 0.10,
            "rate = {}",
            p.misprediction_rate()
        );
    }

    #[test]
    fn entries_rounded_to_power_of_two() {
        let p = GagPredictor::new(1000);
        assert_eq!(p.table.len(), 1024);
        let p2 = GagPredictor::new(0);
        assert_eq!(p2.table.len(), 2);
    }

    #[test]
    fn counters_saturate() {
        let mut p = GagPredictor::new(2);
        for _ in 0..10 {
            p.predict_and_update(true);
        }
        for _ in 0..10 {
            p.predict_and_update(false);
        }
        // No panic, counters stayed in range; stats consistent.
        assert_eq!(p.predictions(), 20);
        assert!(p.mispredictions() <= 20);
    }
}
