//! Reset-vs-fresh lockstep: every run through a *warm* [`SimArena`] must be
//! observationally identical to the same run through a brand-new arena —
//! same report, same trace bytes. The warm path exercises every `reset`
//! method (memory, caches, predictor, scoreboard, cursor slab, SSB, memo,
//! spec-state pool); the fresh path is the trivially-correct construction
//! they all claim equivalence with.

use proptest::prelude::*;
use spt_mach::MachineConfig;
use spt_sim::{simulate_baseline_in, LoopAnnot, LoopAnnotations, SimArena, SptSim};
use spt_sir::{BinOp, BlockId, Program, ProgramBuilder};
use spt_trace::{NullSink, StreamSink};

const FUEL: u64 = 5_000_000;

/// Independent iterations: induction advanced pre-fork, body private.
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
    (prog, one_loop_annot(id))
}

/// Serial chain through `acc`: every speculative thread is violated.
fn serial_loop(n: i64, work: usize) -> (Program, LoopAnnotations) {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let i = f.reg();
    let nn = f.reg();
    let acc = f.reg();
    let body = f.new_block();
    let exit = f.new_block();
    f.const_(i, 0);
    f.const_(nn, n);
    f.const_(acc, 1);
    f.jmp(body);
    f.switch_to(body);
    f.addi(i, i, 1);
    f.spt_fork(body);
    for _ in 0..work {
        let one = f.const_reg(1);
        let t = f.reg();
        f.bin(BinOp::Add, t, acc, one);
        f.mov(acc, t);
    }
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.br(c, body, exit);
    f.switch_to(exit);
    f.spt_kill();
    f.ret(Some(acc));
    let id = f.finish();
    let prog = pb.finish(id, 4);
    (prog, one_loop_annot(id))
}

/// Iteration i stores mem[i+1]; iteration i+1 loads it early: a true
/// cross-iteration memory dependence (SSB / LAB / replay paths).
fn chained_store_loop(n: i64) -> (Program, LoopAnnotations) {
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
    let v = f.reg();
    f.load(v, cur, 0);
    let t = f.reg();
    let one = f.const_reg(1);
    f.bin(BinOp::Add, t, v, one);
    f.store(t, cur, 1);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.br(c, body, exit);
    f.switch_to(exit);
    f.spt_kill();
    let out = f.reg();
    let basen = f.const_reg(n);
    f.load(out, basen, 0);
    f.ret(Some(out));
    let id = f.finish();
    let prog = pb.finish(id, n as usize + 24);
    (prog, one_loop_annot(id))
}

/// Several helper functions called from the loop body: exercises the
/// decoded-program function table and call-frame depth beyond what the
/// single-function kernels touch.
fn multi_func_loop(n: i64) -> (Program, LoopAnnotations) {
    let mut pb = ProgramBuilder::new();
    // helper k: x -> x*2 + k, built before main so main can call them.
    let mut helpers = Vec::new();
    for k in 0..4i64 {
        let mut h = pb.func("helper", 1);
        let x = h.param(0);
        let t = h.reg();
        h.bin(BinOp::Add, t, x, x);
        let kk = h.const_reg(k);
        let r = h.reg();
        h.bin(BinOp::Add, r, t, kk);
        h.ret(Some(r));
        helpers.push(h.finish());
    }
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
    let mut v = f.reg();
    f.mov(v, cur);
    for &h in &helpers {
        let r = f.reg();
        f.call(h, &[v], Some(r));
        v = r;
    }
    f.store(v, cur, 0);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.br(c, body, exit);
    f.switch_to(exit);
    f.spt_kill();
    f.ret(Some(i));
    let id = f.finish();
    let prog = pb.finish(id, n as usize + 4);
    (prog, one_loop_annot(id))
}

fn one_loop_annot(func: spt_sir::FuncId) -> LoopAnnotations {
    LoopAnnotations {
        loops: vec![LoopAnnot {
            id: 0,
            func,
            blocks: vec![BlockId(1)],
            fork_start: Some(BlockId(1)),
        }],
    }
}

fn cfg(cores: usize) -> MachineConfig {
    MachineConfig {
        cores,
        ..MachineConfig::default()
    }
}

/// Run one SPT item through `arena` and return (report debug string,
/// trace bytes). The Debug string covers every report field, so equality
/// on it is equality on the whole report.
fn spt_run(
    arena: &mut SimArena,
    prog: &Program,
    annots: &LoopAnnotations,
    cores: usize,
) -> (String, Vec<u8>) {
    let sim = SptSim::new(prog, cfg(cores), annots.clone());
    let mut sink = StreamSink::new(Vec::new());
    let (rep, mem) = sim.run_in(arena, FUEL, &mut sink);
    arena.put_mem(mem);
    (format!("{rep:?}"), sink.into_inner())
}

fn baseline_run(arena: &mut SimArena, prog: &Program, annots: &LoopAnnotations) -> String {
    let (rep, mem) = simulate_baseline_in(arena, prog, &cfg(1).core, annots, FUEL, &mut NullSink);
    arena.put_mem(mem);
    format!("{rep:?}")
}

/// Drive `items` (each labelled by an id for the failure message) through
/// one warm arena and, in lockstep, each item through its own fresh arena;
/// every pair must match exactly.
fn assert_lockstep(items: &[(u64, Program, LoopAnnotations, usize)]) {
    let mut warm = SimArena::new();
    for (id, prog, annots, cores) in items {
        let (fresh_rep, fresh_trace) = spt_run(&mut SimArena::new(), prog, annots, *cores);
        let (warm_rep, warm_trace) = spt_run(&mut warm, prog, annots, *cores);
        assert_eq!(warm_rep, fresh_rep, "SPT report diverged on item {id}");
        assert_eq!(warm_trace, fresh_trace, "trace bytes diverged on item {id}");

        let fresh_base = baseline_run(&mut SimArena::new(), prog, annots);
        let warm_base = baseline_run(&mut warm, prog, annots);
        assert_eq!(
            warm_base, fresh_base,
            "baseline report diverged on item {id}"
        );
    }
}

/// Pinned: a later item with *more functions* than anything the arena has
/// seen must not inherit stale decode or frame state.
#[test]
fn warm_arena_handles_program_with_more_functions() {
    let (small, sa) = parallel_loop(24, 4);
    let (multi, ma) = multi_func_loop(32);
    assert_lockstep(&[(1, small, sa, 4), (2, multi, ma, 4)]);
}

/// Pinned: a later item with a *larger memory image* must see every word
/// of the new image, not a stale prefix or leftover suffix.
#[test]
fn warm_arena_handles_growing_then_shrinking_memory() {
    let (small, sa) = parallel_loop(16, 4);
    let (big, ba) = parallel_loop(256, 4);
    let items = vec![
        (10, small.clone(), sa.clone(), 2),
        (11, big, ba, 2),
        (10, small, sa, 2),
    ];
    assert_lockstep(&items);
}

/// Pinned: deeper scoreboard/replay churn (violating loops) after a
/// fast-commit-only item, then back: generation stamps must isolate runs.
#[test]
fn warm_arena_handles_deeper_scoreboard_and_replay_use() {
    let (par, pa) = parallel_loop(40, 2);
    let (ser, sea) = serial_loop(48, 10);
    let (chain, ca) = chained_store_loop(40);
    let items = vec![
        (20, par.clone(), pa.clone(), 2),
        (21, ser, sea, 8),
        (22, chain, ca, 4),
        (20, par, pa, 2),
    ];
    assert_lockstep(&items);
}

/// Pinned: the sweep's actual access pattern — one program swept over the
/// core counts of the paper's scaling figure.
#[test]
fn warm_arena_core_sweep_matches_fresh() {
    let (prog, annots) = chained_store_loop(32);
    let items: Vec<_> = [2usize, 4, 8]
        .iter()
        .map(|&c| (30u64, prog.clone(), annots.clone(), c))
        .collect();
    assert_lockstep(&items);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random 3-item sweeps over the three kernel shapes: warm-arena runs
    /// must equal fresh-arena runs item for item, byte for byte.
    #[test]
    fn prop_warm_arena_is_bit_identical_to_fresh(
        seq in proptest::collection::vec(
            (0usize..3, 8i64..64, 1usize..10, prop_oneof![Just(2usize), Just(4), Just(8)]),
            1..4,
        ),
    ) {
        let items: Vec<_> = seq
            .iter()
            .enumerate()
            .map(|(idx, &(kind, n, work, cores))| {
                let (prog, annots) = match kind {
                    0 => parallel_loop(n, work),
                    1 => serial_loop(n, work),
                    _ => chained_store_loop(n),
                };
                (idx as u64, prog, annots, cores)
            })
            .collect();
        assert_lockstep(&items);
    }
}
