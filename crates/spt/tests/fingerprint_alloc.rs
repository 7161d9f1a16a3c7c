//! Allocation audit of the memo key: every sweep phase lookup, hits
//! included, fingerprints its program, so `program_fingerprint` must walk
//! the program in place rather than render it. The test swaps in a
//! counting global allocator (scoped to this test binary) and fingerprints
//! every Small suite program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spt::sweep::program_fingerprint;
use spt_workloads::{suite, Scale};

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

#[test]
fn fingerprinting_a_program_does_not_allocate() {
    for w in &suite(Scale::Small) {
        let before = alloc_events();
        let fp = std::hint::black_box(program_fingerprint(std::hint::black_box(&w.program)));
        let events = alloc_events() - before;
        assert_eq!(events, 0, "{}: fingerprint {fp:016x} allocated", w.name);
    }
}
