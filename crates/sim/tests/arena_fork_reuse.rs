//! Fork-buffer reuse is counted: every fork checks its speculative-thread
//! buffers out of the arena's free list, so a warm rerun reports each of
//! them as a reuse, not as nothing. The arena counters are process-wide,
//! so this binary holds this one test only.

use spt_mach::MachineConfig;
use spt_sim::{arena_stats, ArenaStats, LoopAnnot, LoopAnnotations, SimArena, SptSim};
use spt_sir::{BinOp, BlockId, Program, ProgramBuilder};
use spt_trace::NullSink;

/// A loop whose every iteration forks the next one.
fn forking_loop(n: i64) -> (Program, LoopAnnotations) {
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
    let acc = f.reg();
    f.bin(BinOp::Add, acc, cur, cur);
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

fn delta(before: ArenaStats, after: ArenaStats) -> (u64, u64) {
    (after.reuse - before.reuse, after.fresh - before.fresh)
}

#[test]
fn a_warm_rerun_counts_its_fork_buffers_as_reused() {
    let (prog, annots) = forking_loop(64);
    let cores = 4;
    let cfg = MachineConfig {
        cores,
        ..MachineConfig::default()
    };
    let mut arena = SimArena::new();
    let sim = SptSim::new_in(&mut arena, 7, &prog, cfg, annots);
    // Per run: memory, cache, the main cursor's buffers and one pipeline
    // core per fabric core, plus one buffer set per fork.
    let components = 3 + cores as u64;

    let before = arena_stats();
    let (cold, mem) = sim.run_in(&mut arena, 1_000_000, &mut NullSink);
    arena.put_mem(mem);
    let (cold_reuse, cold_fresh) = delta(before, arena_stats());
    assert!(cold.forks > 1, "the kernel must fork more than once");
    assert_eq!(cold_reuse + cold_fresh, components + cold.forks);
    // A cold run constructs at most one buffer set per ring core; later
    // forks reuse a finished thread's.
    let ring_cores = cores as u64 - 1;
    assert!(cold_fresh <= components + ring_cores);
    assert!(cold_reuse >= cold.forks - ring_cores);

    let before = arena_stats();
    let (warm, mem) = sim.run_in(&mut arena, 1_000_000, &mut NullSink);
    arena.put_mem(mem);
    let (warm_reuse, warm_fresh) = delta(before, arena_stats());
    assert_eq!(warm.forks, cold.forks);
    assert_eq!(warm_fresh, 0, "a warm rerun constructs nothing");
    assert_eq!(warm_reuse, components + warm.forks);
}
