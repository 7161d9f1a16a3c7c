//! Allocation audit: one SPT run builds its memory, cache, cores and
//! cursors once, and each fork takes its thread buffers from the run's
//! free list of finished threads, so a run's heap allocation count must
//! not depend on how many times it forks. The test swaps in a counting
//! global allocator (scoped to this test binary) and compares runs of the
//! same kernel at different trip counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spt_mach::MachineConfig;
use spt_sim::{LoopAnnot, LoopAnnotations, SptSim};
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
/// work per iteration to exercise the thread free list and both caches.
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

/// Run the kernel for `iters` iterations on a 4-core fabric; return
/// (forks, allocation events of the run itself).
fn measure(iters: i64) -> (u64, u64) {
    let (prog, annots) = parallel_loop(iters, 6);
    let cfg = MachineConfig {
        cores: 4,
        ..MachineConfig::default()
    };
    let sim = SptSim::new(&prog, cfg, annots);
    let before = alloc_events();
    let (rep, mem) = sim.run_in(5_000_000, &mut NullSink);
    let allocs = alloc_events() - before;
    assert!(!rep.out_of_fuel, "{iters} iterations ran out of fuel");
    assert_eq!(rep.ret, Some(iters));
    drop(mem);
    (rep.forks, allocs)
}

#[test]
fn spt_run_allocations_do_not_grow_with_forks() {
    let runs: Vec<(u64, u64)> = [64, 256, 1024, 4096].into_iter().map(measure).collect();
    for w in runs.windows(2) {
        assert!(w[1].0 > w[0].0, "forks must grow with trip count: {runs:?}");
    }
    // (forks, allocations) per run: the allocation count is the same at
    // every fork count.
    let first = runs[0].1;
    assert!(
        runs.iter().all(|&(_, a)| a == first),
        "allocations grow with forks: {runs:?}"
    );
}
