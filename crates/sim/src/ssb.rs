//! Speculative store buffer (SSB) and the speculative memory view.
//!
//! All stores by the speculative thread land in the SSB; speculative loads
//! first look up the SSB and only go to the shared cache/memory when no
//! matching store exists (§3, "Speculative Store Buffer"). On fast commit
//! the buffered stores are written back in program order; on kill or replay
//! they are discarded (replay re-executes stores against architectural
//! memory directly).
//!
//! The buffer is a generation-stamped direct-mapped array over the
//! word-addressed memory: slot `a` holds the latest speculative value for
//! address `a` plus the epoch it was written in. `clear` is a single epoch
//! bump — O(1), no rehash, no realloc — which matters because the SPT
//! machine clears an SSB on every fork, kill and commit. Stamps only
//! compare equal within one epoch; when the 32-bit epoch counter would
//! wrap, the whole array is hard-reset so stale stamps from 2^32 epochs
//! ago can never alias a fresh one.

use spt_interp::{MemView, Memory};

/// The speculative store buffer.
#[derive(Debug)]
pub struct Ssb {
    /// Per-word-address (epoch stamp, value). A slot is live iff its stamp
    /// equals the current epoch. Stamp 0 is never a valid epoch.
    slots: Vec<(u32, i64)>,
    epoch: u32,
    /// Program-order log for write-back.
    log: Vec<(u64, i64)>,
}

impl Default for Ssb {
    fn default() -> Self {
        Self::new()
    }
}

impl Ssb {
    pub fn new() -> Self {
        Ssb {
            slots: Vec::new(),
            epoch: 1,
            log: Vec::new(),
        }
    }

    /// A buffer pre-sized for a memory of `words` words, so no growth
    /// happens on the store path (cursor addresses are already wrapped to
    /// the memory size).
    pub fn with_words(words: usize) -> Self {
        Ssb {
            slots: vec![(0, 0); words],
            epoch: 1,
            log: Vec::new(),
        }
    }

    #[inline]
    fn grow_for(&mut self, addr: u64) {
        if addr as usize >= self.slots.len() {
            self.slots.resize(addr as usize + 1, (0, 0));
        }
    }

    pub fn store(&mut self, addr: u64, val: i64) {
        self.grow_for(addr);
        self.slots[addr as usize] = (self.epoch, val);
        self.log.push((addr, val));
    }

    /// Latest speculative value for `addr`, if any (store-to-load
    /// forwarding).
    #[inline]
    pub fn lookup(&self, addr: u64) -> Option<i64> {
        match self.slots.get(addr as usize) {
            Some(&(stamp, val)) if stamp == self.epoch => Some(val),
            _ => None,
        }
    }

    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        matches!(self.slots.get(addr as usize), Some(&(stamp, _)) if stamp == self.epoch)
    }

    /// Number of buffered stores (dynamic, incl. overwrites).
    pub fn len(&self) -> usize {
        self.log.len()
    }

    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Addresses of all outstanding stores, in program order (with
    /// duplicates). The N-core fabric checks these against downstream
    /// threads' load-address buffers when a thread's stores commit.
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.log.iter().map(|&(a, _)| a)
    }

    /// Write all outstanding stores back to memory in program order.
    pub fn drain_to(&mut self, mem: &mut Memory) {
        for &(addr, val) in &self.log {
            MemView::store(mem, addr, val);
        }
        self.clear();
    }

    /// Grow the slot array to cover a memory of `words` words (never
    /// shrinks). Combined with [`Ssb::clear`], this makes a buffer reused
    /// from the SPT run's thread free list observationally equal to
    /// [`Ssb::with_words`]`(words)`: new slots carry stamp 0 (never live)
    /// and old slots' stamps are dead behind the epoch bump.
    #[inline]
    pub fn ensure_words(&mut self, words: usize) {
        if self.slots.len() < words {
            self.slots.resize(words, (0, 0));
        }
    }

    /// Discard all buffered stores: one epoch bump. On epoch wrap the slot
    /// array is hard-reset, so a stamp written 2^32 epochs ago can never
    /// read as live again.
    pub fn clear(&mut self) {
        self.log.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.iter_mut().for_each(|s| *s = (0, 0));
            self.epoch = 1;
        }
    }

    /// Current epoch (exposed for the wrap test).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Jump the epoch counter — test hook to exercise the 2^32-epoch wrap
    /// without 2^32 `clear` calls.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// The speculative pipeline's view of memory: SSB overlay on architectural
/// memory. Loads forward from the SSB when possible; stores never reach
/// architectural state.
pub struct SpecMem<'a> {
    pub ssb: &'a mut Ssb,
    pub base: &'a mut Memory,
}

impl MemView for SpecMem<'_> {
    fn load(&mut self, addr: u64) -> i64 {
        match self.ssb.lookup(addr) {
            Some(v) => v,
            None => self.base.load(addr),
        }
    }

    fn store(&mut self, addr: u64, val: i64) {
        self.ssb.store(addr, val);
    }

    fn words(&self) -> usize {
        self.base.words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_to_load_forwarding() {
        let mut ssb = Ssb::new();
        let mut mem = Memory::new(8);
        mem.poke(3, 10);
        let mut view = SpecMem {
            ssb: &mut ssb,
            base: &mut mem,
        };
        assert_eq!(view.load(3), 10); // falls through to base
        view.store(3, 99);
        assert_eq!(view.load(3), 99); // forwarded
        let _ = view;
        assert_eq!(mem.peek(3), 10); // architectural state untouched
    }

    #[test]
    fn latest_store_wins() {
        let mut ssb = Ssb::new();
        ssb.store(1, 5);
        ssb.store(1, 7);
        assert_eq!(ssb.lookup(1), Some(7));
        assert_eq!(ssb.len(), 2);
    }

    #[test]
    fn drain_preserves_program_order() {
        let mut ssb = Ssb::new();
        let mut mem = Memory::new(8);
        ssb.store(2, 1);
        ssb.store(4, 2);
        ssb.store(2, 3); // overwrites the first
        ssb.drain_to(&mut mem);
        assert_eq!(mem.peek(2), 3);
        assert_eq!(mem.peek(4), 2);
        assert!(ssb.is_empty());
        assert!(!ssb.contains(2));
    }

    #[test]
    fn addrs_lists_program_order_with_duplicates() {
        let mut ssb = Ssb::new();
        ssb.store(2, 1);
        ssb.store(4, 2);
        ssb.store(2, 3);
        assert_eq!(ssb.addrs().collect::<Vec<_>>(), vec![2, 4, 2]);
    }

    #[test]
    fn clear_discards_everything() {
        let mut ssb = Ssb::new();
        ssb.store(1, 1);
        ssb.clear();
        assert!(ssb.is_empty());
        assert_eq!(ssb.lookup(1), None);
    }

    #[test]
    fn words_passes_through() {
        let mut ssb = Ssb::new();
        let mut mem = Memory::new(16);
        let view = SpecMem {
            ssb: &mut ssb,
            base: &mut mem,
        };
        assert_eq!(view.words(), 16);
    }

    #[test]
    fn presized_buffer_covers_word_range() {
        let mut ssb = Ssb::with_words(8);
        for a in 0..8u64 {
            assert_eq!(ssb.lookup(a), None);
            ssb.store(a, a as i64 + 100);
        }
        // Wrap boundary: the last word of the memory is a valid slot.
        assert_eq!(ssb.lookup(7), Some(107));
        assert_eq!(ssb.lookup(0), Some(100));
        ssb.clear();
        for a in 0..8u64 {
            assert_eq!(ssb.lookup(a), None);
        }
    }

    #[test]
    fn epoch_wrap_resets_stale_stamps() {
        let mut ssb = Ssb::with_words(4);
        ssb.store(2, 42);
        assert_eq!(ssb.lookup(2), Some(42));
        // Pretend 2^32 - 1 epochs of clears happened since that store.
        ssb.force_epoch(u32::MAX);
        ssb.store(1, 7);
        assert_eq!(ssb.lookup(1), Some(7));
        ssb.clear(); // wraps: hard reset, epoch restarts at 1
        assert_eq!(ssb.epoch(), 1);
        // Slot 2's ancient stamp (old epoch 1) must NOT read as live even
        // though the current epoch is 1 again.
        assert_eq!(ssb.lookup(2), None);
        assert_eq!(ssb.lookup(1), None);
        // And the buffer still works after the wrap.
        ssb.store(3, 9);
        assert_eq!(ssb.lookup(3), Some(9));
        assert!(ssb.contains(3));
    }
}
