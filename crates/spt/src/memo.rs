//! The one rule every memo table follows: at-most-once cells, bounded by
//! least-recently-used eviction of completed entries.
//!
//! Each [`crate::Sweep`] phase shard and the daemon's response memo is a
//! [`MemoTable`]. A lookup returns the key's `Arc<OnceLock<V>>`; callers
//! run `get_or_init` on it outside the table lock, so concurrent requests
//! for one key share one computation. The table holds at most
//! [`MEMO_CAP`] entries: inserting a new key into a full table first
//! evicts the least recently used entry whose cell is initialized. An
//! in-flight cell is never evicted, so a waiter never loses the
//! computation it is coalescing with; only while more than `MEMO_CAP`
//! cells are in flight at once does a table hold more. Evicting an entry
//! only forgets it: a later lookup recomputes it (or reloads it from the
//! disk store, when one is attached) and counts as a miss.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// Most entries one memo table holds. One engine running all twelve
/// experiments at one scale needs at most 58 entries in any table, and a
/// benchmark sweep repetition at most 40, so no experiment evicts; only
/// one-off keys (a daemon's `eval` requests with fresh fuel values) do.
pub const MEMO_CAP: usize = 64;

struct Slot<V> {
    cell: Arc<OnceLock<V>>,
    /// Lookup tick of the latest use; the smallest is the LRU entry.
    used: u64,
}

struct Entries<K, V> {
    map: HashMap<K, Slot<V>>,
    tick: u64,
}

/// A content-keyed table of at-most-once cells holding at most
/// [`MEMO_CAP`] completed entries (see the module docs).
pub struct MemoTable<K, V> {
    entries: Mutex<Entries<K, V>>,
}

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> Self {
        MemoTable {
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }
}

impl<K: Copy + Eq + Hash, V> MemoTable<K, V> {
    /// The cell for `key`, marked most recently used, and whether the key
    /// was already in the table. A new key entering a full table evicts
    /// the least recently used completed entry first.
    pub fn cell(&self, key: K) -> (Arc<OnceLock<V>>, bool) {
        let mut e = self.entries.lock().expect("a memo table update panicked");
        e.tick += 1;
        let tick = e.tick;
        if let Some(slot) = e.map.get_mut(&key) {
            slot.used = tick;
            return (slot.cell.clone(), true);
        }
        // Ticks are unique, so the victim does not depend on map order.
        // More than one eviction only after a burst of in-flight cells
        // pushed the table past the cap.
        while e.map.len() >= MEMO_CAP {
            let lru = e
                .map
                .iter()
                .filter(|(_, s)| s.cell.get().is_some())
                .min_by_key(|(_, s)| s.used)
                .map(|(k, _)| *k);
            match lru {
                Some(k) => e.map.remove(&k),
                None => break,
            };
        }
        let cell = Arc::new(OnceLock::new());
        e.map.insert(
            key,
            Slot {
                cell: cell.clone(),
                used: tick,
            },
        );
        (cell, false)
    }

    /// Entries currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().unwrap().map.len()
    }

    /// True if `key` is held, without marking it used.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.entries.lock().unwrap().map.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_table_of_in_flight_cells_grows_past_the_cap_then_shrinks_back() {
        let t: MemoTable<u64, u64> = MemoTable::default();
        let cells: Vec<_> = (0..MEMO_CAP as u64 + 3).map(|k| t.cell(k).0).collect();
        assert_eq!(t.len(), MEMO_CAP + 3);
        for c in &cells {
            c.get_or_init(|| 0);
        }
        t.cell(9999).0.get_or_init(|| 0);
        assert_eq!(t.len(), MEMO_CAP);
        assert!(t.contains(&9999) && t.contains(&(MEMO_CAP as u64 + 2)));
        assert!(!t.contains(&3) && t.contains(&4));
    }

    #[test]
    fn a_panicking_computation_leaves_the_cell_empty_and_the_table_usable() {
        // Cells are initialized outside the table lock, so a computation
        // that panics cannot poison the table, and the next lookup of its
        // key computes again.
        let t: MemoTable<u64, u64> = MemoTable::default();
        let (cell, _) = t.cell(1);
        let panicked = std::panic::catch_unwind(|| cell.get_or_init(|| panic!("compute bug")));
        assert!(panicked.is_err());
        let (again, preexisting) = t.cell(1);
        assert!(preexisting && again.get().is_none());
        assert_eq!(*again.get_or_init(|| 7), 7);
        assert_eq!(t.len(), 1);
    }
}
