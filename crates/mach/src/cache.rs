//! Shared, timestamped cache hierarchy.
//!
//! Both SPT pipelines access the same hierarchy (the paper's cores share the
//! memory subsystem; separate L1s are "always coherent", which at this
//! timing fidelity is equivalent to a shared L1). Every access carries the
//! requesting pipeline's cycle timestamp to maintain the proper temporal
//! ordering between the two cycle counters, mirroring the paper's
//! trace-driven simulator that tags each cache and memory access with a
//! time stamp.

use crate::config::{CacheParams, CoreConfig};

/// One set-associative level with LRU replacement.
pub struct CacheLevel {
    params: CacheParams,
    /// tags[set * assoc + way]; `u64::MAX` means invalid.
    tags: Vec<u64>,
    /// Last-use recency per line, for LRU (internal monotonic tick; the
    /// caller's timestamp orders accesses *between* pipelines, arrival order
    /// orders them within the hierarchy).
    lru: Vec<u64>,
    sets: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl CacheLevel {
    pub fn new(params: CacheParams) -> Self {
        let sets = params.sets();
        CacheLevel {
            params,
            tags: vec![u64::MAX; sets * params.assoc],
            lru: vec![0; sets * params.assoc],
            sets,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_and_tag(&self, byte_addr: u64) -> (usize, u64) {
        let block = byte_addr / self.params.block_bytes as u64;
        ((block as usize) % self.sets, block)
    }

    /// Probe for `byte_addr` at time `now`; on miss, allocate the line
    /// (evicting LRU). Returns whether it hit.
    pub fn access(&mut self, byte_addr: u64, now: u64) -> bool {
        let _ = now; // temporal ordering is by arrival; recency by tick
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(byte_addr);
        let base = set * self.params.assoc;
        let ways = &mut self.tags[base..base + self.params.assoc];
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            self.lru[base + w] = tick;
            self.hits += 1;
            return true;
        }
        // Miss: fill an invalid way if one exists, else evict true LRU.
        let victim = (0..self.params.assoc)
            .find(|&w| self.tags[base + w] == u64::MAX)
            .unwrap_or_else(|| {
                (0..self.params.assoc)
                    .min_by_key(|&w| self.lru[base + w])
                    .expect("assoc >= 1")
            });
        self.tags[base + victim] = tag;
        self.lru[base + victim] = tick;
        self.misses += 1;
        false
    }

    pub fn latency(&self) -> u64 {
        self.params.latency
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Hit/miss counts for the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub l3_hits: u64,
    pub l3_misses: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }
}

/// The shared L1D/L2/L3 + memory hierarchy.
pub struct CacheSim {
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
    mem_latency: u64,
}

impl CacheSim {
    pub fn new(cfg: &CoreConfig) -> Self {
        CacheSim {
            l1: CacheLevel::new(cfg.l1d),
            l2: CacheLevel::new(cfg.l2),
            l3: CacheLevel::new(cfg.l3),
            mem_latency: cfg.mem_latency,
        }
    }

    /// Access the hierarchy for the data word at `word_addr` at time `now`.
    /// Returns the access latency in cycles. Stores allocate like loads
    /// (write-allocate) but their latency is hidden by the store pipeline;
    /// callers use the configured store latency for timing and call this for
    /// cache-state effects only.
    pub fn access(&mut self, word_addr: u64, now: u64) -> u64 {
        let byte = word_addr * 8;
        if self.l1.access(byte, now) {
            return self.l1.latency();
        }
        if self.l2.access(byte, now) {
            return self.l2.latency();
        }
        if self.l3.access(byte, now) {
            return self.l3.latency();
        }
        self.mem_latency
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            l1_hits: self.l1.hits(),
            l1_misses: self.l1.misses(),
            l2_hits: self.l2.hits(),
            l2_misses: self.l2.misses(),
            l3_hits: self.l3.hits(),
            l3_misses: self.l3.misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CoreConfig {
        let mut c = CoreConfig::default();
        // 2 sets x 2 ways x 64B blocks = 256B L1 for easy eviction tests.
        c.l1d = CacheParams {
            size_bytes: 256,
            assoc: 2,
            block_bytes: 64,
            latency: 1,
        };
        c.l2 = CacheParams {
            size_bytes: 1024,
            assoc: 2,
            block_bytes: 64,
            latency: 5,
        };
        c.l3 = CacheParams {
            size_bytes: 4096,
            assoc: 2,
            block_bytes: 128,
            latency: 12,
        };
        c
    }

    #[test]
    fn first_access_misses_to_memory_then_hits_l1() {
        let mut cs = CacheSim::new(&tiny_cfg());
        assert_eq!(cs.access(0, 0), 150);
        assert_eq!(cs.access(0, 1), 1);
        // Same 64B block: words 0..8 share a block.
        assert_eq!(cs.access(7, 2), 1);
        // Word 8 starts the next 64B block (miss in L1/L2), but its byte
        // address 64 is inside the 128B L3 block already fetched: L3 hit.
        assert_eq!(cs.access(8, 3), 12);
        // Word 16 (byte 128) is a fresh block everywhere: full miss.
        assert_eq!(cs.access(16, 4), 150);
    }

    #[test]
    fn lru_eviction_in_l1_falls_back_to_l2() {
        let mut cs = CacheSim::new(&tiny_cfg());
        // L1: 2 sets, set = block % 2. Blocks 0, 2, 4 all map to set 0
        // (2-way) so the third evicts the first.
        cs.access(0, 0); // block 0 -> set 0
        cs.access(16, 1); // block 2 -> set 0
        cs.access(32, 2); // block 4 -> set 0, evicts block 0 from L1
                          // Block 0 is still in L2 -> L2 hit latency.
        assert_eq!(cs.access(0, 3), 5);
    }

    #[test]
    fn stats_accumulate() {
        let mut cs = CacheSim::new(&tiny_cfg());
        cs.access(0, 0);
        cs.access(0, 1);
        cs.access(0, 2);
        let st = cs.stats();
        assert_eq!(st.l1_hits, 2);
        assert_eq!(st.l1_misses, 1);
        assert_eq!(st.accesses(), 3);
    }

    #[test]
    fn lru_prefers_least_recently_used_victim() {
        let p = CacheParams {
            size_bytes: 128,
            assoc: 2,
            block_bytes: 64,
            latency: 1,
        };
        // 1 set, 2 ways.
        let mut l = CacheLevel::new(p);
        assert!(!l.access(0, 0)); // block 0 way A
        assert!(!l.access(64, 1)); // block 1 way B
        assert!(l.access(0, 2)); // touch block 0 (now MRU)
        assert!(!l.access(128, 3)); // evicts block 1 (LRU)
        assert!(l.access(0, 4)); // block 0 still resident
        assert!(!l.access(64, 5)); // block 1 was evicted
    }

    #[test]
    fn table1_hierarchy_latencies() {
        let mut cs = CacheSim::new(&CoreConfig::default());
        assert_eq!(cs.access(1000, 0), 150); // cold
        assert_eq!(cs.access(1000, 1), 1); // L1
    }
}
