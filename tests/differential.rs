//! Differential oracle: random SIR programs are pushed through the full
//! profile → compile → SPT-simulate pipeline and every stage is checked
//! against the reference interpreter running the *original* program.
//!
//! For each generated program the oracle asserts:
//!
//! 1. the transformed program, on the plain interpreter, produces the same
//!    return value, the same final memory image, and the same stream of
//!    architecturally-executed store events (addr, value) as the original;
//! 2. the SPT fabric running the transformed program at N ∈ {2, 4, 8}
//!    cores commits the same return value and final memory image
//!    (speculative stores drain through the SRB, so any mis-commit shows
//!    up here), and the N=2 machine is bit-deterministic: traced and
//!    untraced runs agree on cycles and counters, and trace bytes are
//!    stable across runs with no ring-fork events;
//! 3. the baseline single-core simulator running the original program also
//!    matches (its timing model must not perturb architectural state).
//!
//! Register state is summarized by the returned checksum: programs xor all
//! live registers into the return value, so a silently-clobbered register
//! diverges the oracle.

use proptest::prelude::*;
use spt::{original_annotations, spt_annotations, CompileOptions, MachineConfig};
use spt_compiler::compile;
use spt_interp::{run_with, Memory};
use spt_sim::{simulate_baseline_in, SptSim};
use spt_sir::{BinOp, Program, ProgramBuilder, Reg};
use spt_trace::NullSink;

const FUEL: u64 = 2_000_000;
const N_REGS: u32 = 5;
const MEM: usize = 24;

/// Loop-body statement alphabet, weighted toward memory traffic so the
/// differential actually exercises store buffering and commit.
#[derive(Clone, Debug)]
enum Stmt {
    Alu(u8, u8, u8, u8),
    Load(u8, u8, u8),
    Store(u8, u8, u8),
    GuardedStore(u8, u8, u8, u8),
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0..6u8, 0..N_REGS as u8, 0..N_REGS as u8, 0..N_REGS as u8)
            .prop_map(|(o, d, a, b)| Stmt::Alu(o, d, a, b)),
        (0..N_REGS as u8, 0..N_REGS as u8, 0..6u8).prop_map(|(d, b, o)| Stmt::Load(d, b, o)),
        (0..N_REGS as u8, 0..N_REGS as u8, 0..6u8).prop_map(|(s, b, o)| Stmt::Store(s, b, o)),
        (0..N_REGS as u8, 0..N_REGS as u8, 0..N_REGS as u8, 0..6u8)
            .prop_map(|(g, s, b, o)| Stmt::GuardedStore(g, s, b, o)),
    ]
}

fn op_of(c: u8) -> BinOp {
    [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Xor,
        BinOp::And,
        BinOp::Or,
        BinOp::Mul,
    ][c as usize % 6]
}

/// A counted loop over a random body; the exit block folds every register
/// and a sample of memory into the returned checksum.
fn build(body: &[Stmt], trip: u8) -> Program {
    let mut pb = ProgramBuilder::new();
    for a in 0..MEM as u64 {
        pb.datum(a, (a as i64 + 3) * 7);
    }
    let mut f = pb.func("main", 0);
    let regs: Vec<Reg> = (0..N_REGS).map(|_| f.reg()).collect();
    let i = f.reg();
    let nn = f.reg();
    let bodyb = f.new_block();
    let exit = f.new_block();
    for (k, r) in regs.iter().enumerate() {
        f.const_(*r, k as i64 + 1);
    }
    f.const_(i, 0);
    f.const_(nn, trip as i64);
    f.jmp(bodyb);
    f.switch_to(bodyb);
    for s in body {
        match *s {
            Stmt::Alu(o, d, a, b) => f.bin(
                op_of(o),
                regs[d as usize % regs.len()],
                regs[a as usize % regs.len()],
                regs[b as usize % regs.len()],
            ),
            Stmt::Load(d, b, o) => f.load(
                regs[d as usize % regs.len()],
                regs[b as usize % regs.len()],
                o as i64,
            ),
            Stmt::Store(s2, b, o) => f.store(
                regs[s2 as usize % regs.len()],
                regs[b as usize % regs.len()],
                o as i64,
            ),
            Stmt::GuardedStore(g, s2, b, o) => {
                f.guard_when(regs[g as usize % regs.len()]);
                f.store(
                    regs[s2 as usize % regs.len()],
                    regs[b as usize % regs.len()],
                    o as i64,
                );
                f.unguard();
            }
        }
    }
    f.addi(i, i, 1);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.br(c, bodyb, exit);
    f.switch_to(exit);
    let sum = f.reg();
    f.const_(sum, 0);
    for r in &regs {
        let t = f.reg();
        f.bin(BinOp::Xor, t, sum, *r);
        f.mov(sum, t);
    }
    for a in 0..6i64 {
        let base = f.const_reg(a * 7 % MEM as i64);
        let v = f.reg();
        f.load(v, base, 0);
        let t = f.reg();
        f.bin(BinOp::Add, t, sum, v);
        f.mov(sum, t);
    }
    f.ret(Some(sum));
    let id = f.finish();
    pb.finish(id, MEM)
}

fn lenient_opts() -> CompileOptions {
    let mut o = CompileOptions::default();
    o.min_coverage = 0.0;
    o.min_trip = 1.0;
    o.min_body = 1.0;
    o.min_speedup = 0.0;
    o.profile_fuel = FUEL;
    o
}

fn words(mem: &Memory) -> Vec<i64> {
    (0..mem.len() as u64).map(|a| mem.peek(a)).collect()
}

/// Architecturally-executed store events, in program order.
fn store_trace(prog: &Program, fuel: u64) -> (Option<i64>, Vec<i64>, Vec<(u64, i64)>) {
    let mut stores = Vec::new();
    let (res, mem) = run_with(prog, fuel, |ev| {
        if ev.executed {
            if let Some(m) = ev.mem {
                if m.is_store {
                    stores.push((m.addr, m.value));
                }
            }
        }
    });
    assert!(!res.out_of_fuel, "reference run must terminate");
    (res.ret, words(&mem), stores)
}

/// The full oracle on one concrete program.
///
/// `ctx` (the generated body and trip count, `Debug`-printed) is woven
/// into every assertion message so a proptest failure reproduces in one
/// command: paste the printed body/trip into a deterministic
/// `check_differential` call like the fixed smoke cases below.
fn check_differential(body: &[Stmt], trip: u8) {
    let ctx = format!("body={body:?} trip={trip}");
    let prog = build(body, trip);
    prog.verify().unwrap();

    // Stage 0: the reference — sequential interpretation of the original.
    let (ref_ret, ref_mem, ref_stores) = store_trace(&prog, FUEL);

    // Stage 1: compile, then re-interpret the transformed program.
    let compiled = compile(&prog, &lenient_opts());
    compiled.program.verify().unwrap();
    let (t_ret, t_mem, t_stores) = store_trace(&compiled.program, FUEL);
    assert_eq!(t_ret, ref_ret, "transformed return value diverged [{ctx}]");
    assert_eq!(t_mem, ref_mem, "transformed final memory diverged [{ctx}]");
    assert_eq!(
        t_stores, ref_stores,
        "transformed store stream diverged [{ctx}]"
    );

    // Stage 2: the SPT fabric on the transformed program, at every fabric
    // width. N=2 is the paper machine; wider rings must commit the same
    // architectural state.
    let machine = MachineConfig::default();
    let annots = spt_annotations(&compiled);
    for cores in [2usize, 4, 8] {
        let mut m = machine.clone();
        m.cores = cores;
        let sim = SptSim::new(&compiled.program, m, annots.clone());
        let (spt_rep, spt_mem) = sim.run_in(FUEL, &mut NullSink);
        assert!(
            !spt_rep.out_of_fuel,
            "SPT simulation must terminate (cores={cores}) [{ctx}]"
        );
        assert_eq!(
            spt_rep.ret, ref_ret,
            "SPT-committed return value diverged (cores={cores}) [{ctx}]"
        );
        assert_eq!(
            words(&spt_mem),
            ref_mem,
            "SPT-committed memory diverged (cores={cores}) [{ctx}]"
        );
    }

    // Stage 2b: the N=2 fabric is bit-identical to the default machine —
    // same cycles, same counters, same trace bytes. (MachineConfig's
    // default IS two cores, so this pins the fabric generalization to the
    // dual-pipeline behaviour the goldens were recorded against.)
    let sim = SptSim::new(&compiled.program, machine.clone(), annots.clone());
    let untraced = sim.run(FUEL);
    let mut sink_a = spt_trace::RingBufferSink::unbounded();
    let (traced, _) = sim.run_in(FUEL, &mut sink_a);
    assert_eq!(
        traced.cycles, untraced.cycles,
        "tracing perturbed timing [{ctx}]"
    );
    assert_eq!(traced.instrs, untraced.instrs, "[{ctx}]");
    assert_eq!(traced.forks, untraced.forks, "[{ctx}]");
    assert_eq!(traced.fast_commits, untraced.fast_commits, "[{ctx}]");
    assert_eq!(traced.replays, untraced.replays, "[{ctx}]");
    assert_eq!(traced.kills, untraced.kills, "[{ctx}]");
    assert_eq!(
        traced.divergence_kills, untraced.divergence_kills,
        "[{ctx}]"
    );
    assert_eq!(traced.spec_misspec, untraced.spec_misspec, "[{ctx}]");
    let mut sink_b = spt_trace::RingBufferSink::unbounded();
    let _ = sim.run_in(FUEL, &mut sink_b);
    let bytes_a: String = sink_a.records().map(spt_trace::jsonl).collect();
    let bytes_b: String = sink_b.records().map(spt_trace::jsonl).collect();
    assert_eq!(
        bytes_a, bytes_b,
        "N=2 trace bytes must be deterministic [{ctx}]"
    );
    // No ring-fork events may ever appear on the two-core machine.
    assert!(
        !bytes_a.contains("ring_fork"),
        "N=2 must never emit ring forks [{ctx}]"
    );

    // Stage 3: the baseline timing model on the original program.
    let base_annots = original_annotations(&prog, &compiled);
    let (base_rep, base_mem) =
        simulate_baseline_in(&prog, &machine.core, &base_annots, FUEL, &mut NullSink);
    assert!(
        !base_rep.out_of_fuel,
        "baseline simulation must terminate [{ctx}]"
    );
    assert_eq!(
        base_rep.ret, ref_ret,
        "baseline return value diverged [{ctx}]"
    );
    assert_eq!(
        words(&base_mem),
        ref_mem,
        "baseline final memory diverged [{ctx}]"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random store-heavy loops agree across interp, compiled interp,
    /// SPT machine, and baseline machine.
    #[test]
    fn pipeline_matches_reference_interpreter(
        body in prop::collection::vec(stmt(), 1..12),
        trip in 1..15u8,
    ) {
        check_differential(&body, trip);
    }
}

/// Deterministic smoke case: a store-per-iteration reduction loop.
#[test]
fn differential_fixed_store_loop() {
    check_differential(
        &[
            Stmt::Load(0, 1, 2),
            Stmt::Alu(0, 1, 0, 2),
            Stmt::Store(1, 3, 1),
            Stmt::GuardedStore(2, 0, 4, 3),
        ],
        9,
    );
}

/// Deterministic smoke case: guarded stores only fire on some iterations.
#[test]
fn differential_fixed_guarded_loop() {
    check_differential(
        &[
            Stmt::Alu(2, 3, 3, 1),
            Stmt::GuardedStore(3, 2, 0, 1),
            Stmt::Load(4, 2, 0),
            Stmt::Alu(1, 0, 4, 3),
        ],
        12,
    );
}
