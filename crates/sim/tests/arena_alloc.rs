//! Steady-state allocation audit: once a [`SimArena`] is warm, re-running
//! the same simulation must perform (near-)zero heap allocations — every
//! buffer the run needs comes back out of the arena. The test swaps in a
//! counting global allocator (scoped to this test binary) and compares the
//! cold first run against the warm second run on the same arena.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spt_mach::MachineConfig;
use spt_sim::{LoopAnnot, LoopAnnotations, SimArena, SptSim};
use spt_sir::{BinOp, BlockId, Program, ProgramBuilder};
use spt_trace::NullSink;

/// Counts allocation *events* (alloc + realloc) per thread. Thread-local
/// so the harness's other threads can't perturb the measurement;
/// `try_with` keeps the shim total during TLS teardown.
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

/// Independent-iteration loop with forks, private stores, and enough
/// work per iteration to exercise the spec-state pool and both caches.
fn parallel_loop(n: i64, work: usize) -> (Program, LoopAnnotations) {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let i = f.reg();
    let nn = f.reg();
    let body = f.new_block();
    let exit = f.new_block();
    f.const_(i, 0);
    f.const_(nn, n);
    f.jmp(body);
    f.switch_to(body);
    let cur = f.reg();
    f.mov(cur, i);
    f.addi(i, i, 1);
    f.spt_fork(body);
    let mut acc = f.reg();
    f.mov(acc, cur);
    for _ in 0..work {
        let nx = f.reg();
        f.bin(BinOp::Add, nx, acc, acc);
        acc = nx;
    }
    f.store(acc, cur, 0);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.br(c, body, exit);
    f.switch_to(exit);
    f.spt_kill();
    f.ret(Some(i));
    let id = f.finish();
    let prog = pb.finish(id, n as usize + 4);
    let annots = LoopAnnotations {
        loops: vec![LoopAnnot {
            id: 0,
            func: id,
            blocks: vec![BlockId(1)],
            fork_start: Some(BlockId(1)),
        }],
    };
    (prog, annots)
}

/// Run the kernel cold then warm on one arena; return
/// (cold allocations, warm allocations).
fn measure(iters: i64) -> (u64, u64) {
    let (prog, annots) = parallel_loop(iters, 6);
    let cfg = MachineConfig {
        cores: 4,
        ..MachineConfig::default()
    };
    let mut arena = SimArena::new();
    let sim = SptSim::new(&prog, cfg, annots);

    let before_cold = alloc_events();
    let (cold, mem) = sim.run_in(&mut arena, 5_000_000, &mut NullSink);
    arena.put_mem(mem);
    let cold_allocs = alloc_events() - before_cold;

    let before_warm = alloc_events();
    let (warm, mem) = sim.run_in(&mut arena, 5_000_000, &mut NullSink);
    arena.put_mem(mem);
    let warm_allocs = alloc_events() - before_warm;

    // Same program, same config: the runs must agree exactly (the arena
    // may not change results), and the kernel must actually speculate.
    assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    assert!(cold.forks > 0, "kernel must actually speculate");
    (cold_allocs, warm_allocs)
}

#[test]
fn warm_arena_rerun_is_allocation_free_in_steady_state() {
    let (cold_small, warm_small) = measure(64);
    let (_, warm_big) = measure(1024);

    // The warm rerun lives off retained buffers: a small fixed number of
    // allocations (the report's own output vectors plus per-run locals —
    // those belong to the caller, not the arena), far below the cold run,
    // and — the steady-state claim — independent of iteration count.
    assert!(
        warm_small <= 32,
        "warm rerun allocated {warm_small} times (cold: {cold_small})"
    );
    assert!(
        warm_small * 4 <= cold_small,
        "warm rerun ({warm_small}) not clearly cheaper than cold ({cold_small})"
    );
    assert!(
        warm_big <= warm_small + 8,
        "warm allocations grow with iteration count: {warm_small} @64 vs {warm_big} @1024"
    );
}
