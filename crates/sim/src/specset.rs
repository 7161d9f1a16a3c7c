//! Flat containers for per-thread speculation state.
//!
//! The SPT machine consults its dependence-tracking sets on every
//! speculative instruction: live-in reads, spec-written registers,
//! post-fork writes, the load-address buffer, violated addresses. Hash
//! sets put a hasher and a probe sequence on that per-cycle path; the
//! containers here are either plain bitsets (registers are small dense
//! indices) or generation-stamped arrays (addresses are pre-wrapped to
//! the word-addressed memory size), so membership is one indexed load
//! and a reset is an epoch bump.
//!
//! All of them iterate deterministically — bitsets in ascending register
//! order, stamped lists in insertion order — so nothing here perturbs the
//! simulators' bit-exact results or trace bytes.

/// Bitset over register indices (ascending iteration order).
#[derive(Debug, Default, Clone)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn insert(&mut self, r: u32) {
        let w = (r / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (r % 64);
    }

    #[inline]
    pub fn remove(&mut self, r: u32) {
        if let Some(w) = self.words.get_mut((r / 64) as usize) {
            *w &= !(1u64 << (r % 64));
        }
    }

    #[inline]
    pub fn contains(&self, r: u32) -> bool {
        match self.words.get((r / 64) as usize) {
            Some(w) => w & (1u64 << (r % 64)) != 0,
            None => false,
        }
    }

    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub fn extend_from_slice(&mut self, regs: &[u32]) {
        for &r in regs {
            self.insert(r);
        }
    }

    /// Registers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                // Compute in usize: `wi as u32 * 64` overflows for word
                // indices ≥ 2^26 (registers in the last words of a
                // maximal set), even though the final index fits u32.
                Some((wi * 64 + b as usize) as u32)
            })
        })
    }

    /// `self ∩ other` as a fresh set.
    pub fn intersection(&self, other: &RegSet) -> RegSet {
        let n = self.words.len().min(other.words.len());
        RegSet {
            words: (0..n).map(|i| self.words[i] & other.words[i]).collect(),
        }
    }

    /// Backing bitset words (bit `r % 64` of word `r / 64`), for word-wise
    /// intersection against cursor dirty-word masks.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// `self ∪ other` as a sorted register list.
    pub fn union_sorted(&self, other: &RegSet) -> Vec<u32> {
        let mut out = Vec::new();
        self.union_sorted_into(other, &mut out);
        out
    }

    /// [`RegSet::union_sorted`] appending into a caller-owned buffer, so
    /// hot paths can recycle the allocation across calls.
    pub fn union_sorted_into(&self, other: &RegSet, out: &mut Vec<u32>) {
        let n = self.words.len().max(other.words.len());
        for wi in 0..n {
            let mut bits = self.words.get(wi).copied().unwrap_or(0)
                | other.words.get(wi).copied().unwrap_or(0);
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                // Same usize-first arithmetic as `iter` (see above).
                out.push((wi * 64 + b as usize) as u32);
            }
        }
    }
}

/// Value-based register dependence check restricted to dirty words
/// (DESIGN.md §3h): the violation set `{r ∈ live_in : fork_val(r) ≠
/// now[r]}` over the lazily captured live-in list of `(register,
/// fork-time value)` pairs. A clear dirty bit proves the register still
/// holds its fork-time value (the cursor sets the bit on every write and
/// the mask was cleared at the fork), so skipping the compare cannot drop
/// a violation — this returns exactly the set the full per-live-in
/// compare would. A dirty slice shorter than the register range reads the
/// missing words as clean.
pub fn dirty_value_check(dirty: &[u64], live_in_vals: &[(u32, i64)], now: &[i64]) -> RegSet {
    let mut v = RegSet::new();
    // Clean frame — the common case on the fast-commit path: nothing can
    // differ, skip the per-live-in walk outright.
    if dirty.iter().all(|&w| w == 0) {
        return v;
    }
    for &(r, fv) in live_in_vals {
        let w = dirty.get((r / 64) as usize).copied().unwrap_or(0);
        if w & (1u64 << (r % 64)) != 0 && fv != now[r as usize] {
            v.insert(r);
        }
    }
    v
}

/// Per-call-depth register marks: the replay checker's "updated" set,
/// keyed by `(frame depth, register)`.
///
/// Epoch-wrap audit: unlike [`AddrMembers`] and the speculative store
/// buffer, this container carries **no** generation counters — levels are
/// plain bitsets, and the replay checker builds a fresh `DepthRegSet` per
/// replay rather than epoch-clearing a long-lived one — so there is no
/// 2^32-epoch aliasing hazard here, even in a daemon that simulates
/// forever. If a pooled/stamped variant is ever introduced, it must adopt
/// the wrap hard-reset discipline those containers use.
#[derive(Debug, Default)]
pub struct DepthRegSet {
    levels: Vec<RegSet>,
}

impl DepthRegSet {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn level_mut(&mut self, depth: u32) -> &mut RegSet {
        let d = depth as usize;
        if d >= self.levels.len() {
            self.levels.resize_with(d + 1, RegSet::new);
        }
        &mut self.levels[d]
    }

    pub fn insert(&mut self, depth: u32, r: u32) {
        self.level_mut(depth).insert(r);
    }

    pub fn remove(&mut self, depth: u32, r: u32) {
        if let Some(l) = self.levels.get_mut(depth as usize) {
            l.remove(r);
        }
    }

    #[inline]
    pub fn contains(&self, depth: u32, r: u32) -> bool {
        match self.levels.get(depth as usize) {
            Some(l) => l.contains(r),
            None => false,
        }
    }

    /// Install `set` as the marks of `depth` (seeding from a violation
    /// set).
    pub fn seed_level(&mut self, depth: u32, set: RegSet) {
        *self.level_mut(depth) = set;
    }
}

/// Generation-stamped membership set over word addresses. `clear` is an
/// epoch bump; on 32-bit epoch wrap the stamp array is hard-reset so a
/// stamp from 2^32 epochs ago can never read as live (same discipline as
/// the speculative store buffer).
#[derive(Debug)]
pub struct AddrMembers {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Default for AddrMembers {
    fn default() -> Self {
        Self::new()
    }
}

impl AddrMembers {
    pub fn new() -> Self {
        AddrMembers {
            stamps: Vec::new(),
            epoch: 1,
        }
    }

    #[inline]
    pub fn insert(&mut self, addr: u64) {
        let a = addr as usize;
        if a >= self.stamps.len() {
            self.stamps.resize(a + 1, 0);
        }
        self.stamps[a] = self.epoch;
    }

    #[inline]
    pub fn remove(&mut self, addr: u64) {
        if let Some(s) = self.stamps.get_mut(addr as usize) {
            *s = 0;
        }
    }

    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        matches!(self.stamps.get(addr as usize), Some(&s) if s == self.epoch)
    }

    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Current epoch (exposed for the wrap test).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Jump the epoch counter — test hook for the 2^32-epoch wrap.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// Stamped address set that also keeps a deduplicated insertion-order
/// list of its members (for deterministic iteration). No removal.
#[derive(Debug, Default)]
pub struct AddrList {
    members: AddrMembers,
    items: Vec<u64>,
}

impl AddrList {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, addr: u64) {
        if !self.members.contains(addr) {
            self.members.insert(addr);
            self.items.push(addr);
        }
    }

    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.members.contains(addr)
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Members in insertion order (no duplicates).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.items.iter().copied()
    }

    pub fn clear(&mut self) {
        self.members.clear();
        self.items.clear();
    }

    /// Jump the inner epoch counter — test hook for the 2^32-epoch wrap
    /// (parity with [`AddrMembers::force_epoch`]).
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.members.force_epoch(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regset_insert_contains_remove() {
        let mut s = RegSet::new();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(64);
        s.insert(200);
        assert!(s.contains(3) && s.contains(64) && s.contains(200));
        assert!(!s.contains(4) && !s.contains(1000));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 200]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn regset_set_algebra_is_sorted() {
        let mut a = RegSet::new();
        let mut b = RegSet::new();
        a.extend_from_slice(&[1, 65, 7]);
        b.extend_from_slice(&[65, 2, 7, 300]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![7, 65]);
        assert_eq!(a.union_sorted(&b), vec![1, 2, 7, 65, 300]);
        // Intersection across unequal word counts truncates safely.
        assert!(!a.intersection(&b).contains(300));
    }

    #[test]
    fn regset_last_word_of_a_maximal_set() {
        // Boundary: the highest register index lives in word 2^26 - 1,
        // where the old `wi as u32 * 64` multiply overflowed u32 (a
        // panic in debug builds). Bit index math must widen to usize
        // first and only then narrow the finished sum.
        let mut s = RegSet::new();
        s.insert(u32::MAX);
        s.insert(u32::MAX - 1);
        s.insert(0);
        assert!(s.contains(u32::MAX) && s.contains(u32::MAX - 1));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![0, u32::MAX - 1, u32::MAX]
        );
        assert_eq!(
            s.union_sorted(&RegSet::new()),
            vec![0, u32::MAX - 1, u32::MAX]
        );
        let mut other = RegSet::new();
        other.insert(u32::MAX);
        assert_eq!(
            s.intersection(&other).iter().collect::<Vec<_>>(),
            vec![u32::MAX]
        );
    }

    /// The unfiltered check: every live-in pair whose fork-time value
    /// differs from `now`. `dirty_value_check` must agree with it
    /// whenever the dirty mask covers every changed register.
    fn full_compare(live: &[(u32, i64)], now: &[i64]) -> Vec<u32> {
        let mut v = RegSet::new();
        for &(r, fv) in live {
            if fv != now[r as usize] {
                v.insert(r);
            }
        }
        v.iter().collect()
    }

    #[test]
    fn dirty_value_check_matches_full_compare() {
        use proptest::prelude::*;

        // Pinned input: an all-dirty mask, and a mask covering exactly the
        // changed registers (the cursor invariant: changed ⊆ dirty).
        let now = [1i64, 9, 3, 8, 5];
        let live = [(0u32, 1i64), (1, 2), (3, 4), (4, 5)];
        assert_eq!(full_compare(&live, &now), vec![1, 3]);
        for mask in [!0u64, 0b01010] {
            let v = dirty_value_check(&[mask], &live, &now);
            assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 3]);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            fn random_cases(
                now in prop::collection::vec(-3..3i64, 1..200),
                picks in prop::collection::vec((0..200u32, any::<bool>(), -3..3i64), 0..40),
                noise in prop::collection::vec(any::<u64>(), 0..5),
            ) {
                // Live-in pairs over registers of `now`; about half keep
                // their fork-time value, the rest draw a (possibly equal)
                // new one.
                let live: Vec<(u32, i64)> = picks
                    .iter()
                    .map(|&(r, same, v)| {
                        let r = r % now.len() as u32;
                        (r, if same { now[r as usize] } else { v })
                    })
                    .collect();
                // Dirty mask: random extra bits over every changed register.
                let mut dirty = noise.clone();
                for &(r, fv) in &live {
                    if fv != now[r as usize] {
                        let w = (r / 64) as usize;
                        if dirty.len() <= w {
                            dirty.resize(w + 1, 0);
                        }
                        dirty[w] |= 1 << (r % 64);
                    }
                }
                let got: Vec<u32> = dirty_value_check(&dirty, &live, &now).iter().collect();
                prop_assert_eq!(got, full_compare(&live, &now));
            }
        }
        random_cases();
    }

    #[test]
    fn dirty_value_check_clean_frame_flags_nothing() {
        let now = [1i64, 2, 3];
        // Values deliberately mismatched: a clean mask must suppress the
        // compare even when the captured value differs.
        let live = [(0u32, 7i64), (1, 7), (2, 7)];
        let v = dirty_value_check(&[0u64], &live, &now);
        assert!(v.is_empty());
        // A live-in register beyond the dirty slice reads its word as
        // clean rather than indexing out of bounds (`now` is indexed only
        // for dirty registers).
        let wide = [(200u32, 7i64)];
        let v2 = dirty_value_check(&[!0u64], &wide, &now);
        assert!(v2.is_empty());
    }

    #[test]
    fn dirty_value_check_spans_words() {
        let mut now = vec![0i64; 130];
        now[70] = 1;
        now[128] = 2;
        let live = [(70u32, 0i64), (100, 0), (128, 0)];
        let dirty = [0u64, 1 << (70 - 64), 1 << (128 - 128)];
        let v = dirty_value_check(&dirty, &live, &now);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![70, 128]);
    }

    #[test]
    fn depth_regset_tracks_levels_independently() {
        let mut s = DepthRegSet::new();
        s.insert(0, 5);
        s.insert(3, 5);
        assert!(s.contains(0, 5));
        assert!(!s.contains(1, 5));
        assert!(s.contains(3, 5));
        s.remove(3, 5);
        assert!(!s.contains(3, 5));
        // Removing at a depth never touched is a no-op.
        s.remove(9, 1);
        let mut seed = RegSet::new();
        seed.insert(8);
        s.seed_level(2, seed);
        assert!(s.contains(2, 8));
    }

    #[test]
    fn addr_members_epoch_reset() {
        let mut s = AddrMembers::new();
        s.insert(5);
        assert!(s.contains(5));
        s.clear();
        assert!(!s.contains(5));
        s.insert(2);
        s.remove(2);
        assert!(!s.contains(2));
    }

    #[test]
    fn addr_members_epoch_wrap_hard_resets() {
        let mut s = AddrMembers::new();
        s.insert(1); // stamped with epoch 1
        s.force_epoch(u32::MAX);
        s.clear(); // wraps -> hard reset, epoch back to 1
        assert_eq!(s.epoch(), 1);
        assert!(!s.contains(1), "ancient stamp must not alias a new epoch");
        s.insert(1);
        assert!(s.contains(1));
    }

    #[test]
    fn addr_list_epoch_wrap_hard_resets() {
        let mut s = AddrList::new();
        s.insert(7); // stamped with epoch 1
        s.force_epoch(u32::MAX);
        s.clear(); // wraps -> inner stamps hard-reset
        assert!(!s.contains(7), "ancient stamp must not alias a new epoch");
        assert!(s.is_empty());
        s.insert(7);
        assert!(s.contains(7));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn addr_list_dedups_and_preserves_order() {
        let mut s = AddrList::new();
        s.insert(9);
        s.insert(2);
        s.insert(9);
        assert!(s.contains(9) && s.contains(2));
        assert!(!s.contains(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![9, 2]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(9));
    }
}
