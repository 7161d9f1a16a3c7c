//! Allocation audit of a store hit: `DiskStore::load_raw` matches the
//! entry header and checks the payload bytes in place, so a hit makes the
//! same small number of allocations whatever the payload's size or shape.
//! The test swaps in a counting global allocator (scoped to this test
//! binary) and loads a 0.9 KB and a 29 KB experiment payload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spt::{run_experiment, DiskStore, ExperimentRequest, RunConfig, Sweep, ToJson};
use spt_workloads::Scale;

/// Counts allocation *events* (alloc + realloc) per thread. Thread-local
/// so the harness's other threads can't perturb the measurement;
/// `try_with` keeps the shim total during TLS teardown.
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; the counter allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's guarantees on `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System`; the caller's guarantees pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

/// Most allocations one hit may make: 10 today, among them the entry
/// path, the file buffer, the expected header and the returned
/// `Arc<str>`. Each payload counts the fewest over three loads, so a
/// lazily initialized runtime structure cannot count against one of them.
const MAX_HIT_ALLOCS: u64 = 16;

#[test]
fn a_store_hit_allocates_the_same_few_times_for_any_payload() {
    let dir = std::env::temp_dir().join(format!("spt-store-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).unwrap();
    let (sweep, cfg) = (Sweep::sequential(), RunConfig::default());
    let mut counts = Vec::new();
    for (key, name) in ["fig1", "spt_explain"].into_iter().enumerate() {
        let req = ExperimentRequest::new(name, Scale::Test);
        let body = run_experiment(&sweep, &req, &cfg).unwrap().to_json().dump();
        store.save_raw("response", key as u64, &body);
        let events = (0..3)
            .map(|_| {
                let before = alloc_events();
                let hit = std::hint::black_box(store.load_raw("response", key as u64));
                let events = alloc_events() - before;
                assert_eq!(hit.as_deref(), Some(body.as_str()), "{name}");
                events
            })
            .min()
            .unwrap();
        counts.push((name, body.len(), events));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (small, large) = (&counts[0], &counts[1]);
    assert!(
        small.1 < 1500 && large.1 > 20_000,
        "payload sizes drifted: {counts:?}"
    );
    assert_eq!(
        small.2, large.2,
        "a hit's allocations depend on the payload: {counts:?}"
    );
    assert!(small.2 <= MAX_HIT_ALLOCS, "{counts:?}");
}
