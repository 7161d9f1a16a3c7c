//! Property tests for the SPT simulator's architectural correctness.
//!
//! The central contract of the SPT architecture (§3): *no matter where the
//! compiler places `spt_fork`, execution preserves sequential semantics* —
//! the dependence checkers catch every violation and the recovery
//! mechanisms repair it. So we generate random loop bodies (statement
//! soup: ALU ops, loads, stores, guards over a small memory region, with
//! arbitrary cross-iteration dependences) and insert the fork at an
//! arbitrary position — including positions no sane compiler would pick —
//! and require the SPT machine to produce exactly the sequential result
//! under every recovery policy and checking mode.

use proptest::prelude::*;
use spt_interp::run;
use spt_mach::{MachineConfig, RecoveryKind, RegCheckPolicy};
use spt_sim::{LoopAnnot, LoopAnnotations, SptSim};
use spt_sir::{BinOp, BlockId, Program, ProgramBuilder, Reg};
use spt_trace::NullSink;

const FUEL: u64 = 2_000_000;
const N_REGS: u32 = 6;
const MEM: usize = 32;

/// One random statement of the loop body.
#[derive(Clone, Debug)]
enum Stmt {
    Alu {
        op: u8,
        dst: u8,
        a: u8,
        b: u8,
    },
    Load {
        dst: u8,
        base: u8,
        off: u8,
    },
    Store {
        src: u8,
        base: u8,
        off: u8,
    },
    GuardedAlu {
        g: u8,
        op: u8,
        dst: u8,
        a: u8,
        b: u8,
    },
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0..6u8, 0..N_REGS as u8, 0..N_REGS as u8, 0..N_REGS as u8)
            .prop_map(|(op, dst, a, b)| Stmt::Alu { op, dst, a, b }),
        (0..N_REGS as u8, 0..N_REGS as u8, 0..8u8).prop_map(|(dst, base, off)| Stmt::Load {
            dst,
            base,
            off
        }),
        (0..N_REGS as u8, 0..N_REGS as u8, 0..8u8).prop_map(|(src, base, off)| Stmt::Store {
            src,
            base,
            off
        }),
        (
            0..N_REGS as u8,
            0..6u8,
            0..N_REGS as u8,
            0..N_REGS as u8,
            0..N_REGS as u8
        )
            .prop_map(|(g, op, dst, a, b)| Stmt::GuardedAlu { g, op, dst, a, b }),
    ]
}

fn alu_op(code: u8) -> BinOp {
    match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Xor,
        3 => BinOp::And,
        4 => BinOp::Mul,
        _ => BinOp::Or,
    }
}

/// Build: init regs; loop `trip` times over the random body with the fork
/// inserted at `fork_at`; kill on exit; return a checksum of regs + memory.
fn build(body: &[Stmt], trip: u8, fork_at: usize, inits: &[i64]) -> Program {
    let mut pb = ProgramBuilder::new();
    for a in 0..MEM as u64 {
        pb.datum(a, (a as i64) * 3 - 7);
    }
    let mut f = pb.func("main", 0);
    // r0..r5 working registers, then counter/limit.
    let regs: Vec<Reg> = (0..N_REGS).map(|_| f.reg()).collect();
    let i = f.reg();
    let nn = f.reg();
    let bodyb = f.new_block();
    let exit = f.new_block();
    for (k, r) in regs.iter().enumerate() {
        f.const_(*r, inits[k % inits.len()]);
    }
    f.const_(i, 0);
    f.const_(nn, trip as i64);
    f.jmp(bodyb);
    f.switch_to(bodyb);
    let fork_at = fork_at.min(body.len());
    for (k, s) in body.iter().enumerate() {
        if k == fork_at {
            f.spt_fork(bodyb);
        }
        match *s {
            Stmt::Alu { op, dst, a, b } => f.bin(
                alu_op(op),
                regs[dst as usize % regs.len()],
                regs[a as usize % regs.len()],
                regs[b as usize % regs.len()],
            ),
            Stmt::Load { dst, base, off } => f.load(
                regs[dst as usize % regs.len()],
                regs[base as usize % regs.len()],
                off as i64,
            ),
            Stmt::Store { src, base, off } => f.store(
                regs[src as usize % regs.len()],
                regs[base as usize % regs.len()],
                off as i64,
            ),
            Stmt::GuardedAlu { g, op, dst, a, b } => {
                f.guard_when(regs[g as usize % regs.len()]);
                f.bin(
                    alu_op(op),
                    regs[dst as usize % regs.len()],
                    regs[a as usize % regs.len()],
                    regs[b as usize % regs.len()],
                );
                f.unguard();
            }
        }
    }
    if fork_at >= body.len() {
        f.spt_fork(bodyb);
    }
    f.addi(i, i, 1);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.br(c, bodyb, exit);
    f.switch_to(exit);
    f.spt_kill();
    // Checksum registers and a memory sample.
    let sum = f.reg();
    f.const_(sum, 0);
    for r in &regs {
        let t = f.reg();
        f.bin(BinOp::Xor, t, sum, *r);
        f.mov(sum, t);
    }
    for a in 0..4 {
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

fn spt_result(prog: &Program, cfg: MachineConfig) -> (Option<i64>, bool) {
    let annots = LoopAnnotations {
        loops: vec![LoopAnnot {
            id: 0,
            func: prog.entry,
            blocks: vec![BlockId(1)],
            fork_start: Some(BlockId(1)),
        }],
    };
    let rep = SptSim::new(prog, cfg, annots).run(FUEL);
    (rep.ret, rep.out_of_fuel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any fork position, any body: SPT == sequential (default config).
    #[test]
    fn arbitrary_fork_preserves_semantics(
        body in prop::collection::vec(stmt_strategy(), 1..14),
        trip in 1..12u8,
        fork_at in 0..14usize,
        inits in prop::collection::vec(-4..20i64, 1..4),
    ) {
        let prog = build(&body, trip, fork_at, &inits);
        prog.verify().unwrap();
        let (seq, _) = run(&prog, FUEL);
        prop_assume!(!seq.out_of_fuel);
        let (got, oof) = spt_result(&prog, MachineConfig::default());
        prop_assert!(!oof, "SPT ran out of fuel");
        prop_assert_eq!(got, seq.ret);
    }

    /// All recovery policies and checking modes agree with sequential.
    #[test]
    fn all_policies_preserve_semantics(
        body in prop::collection::vec(stmt_strategy(), 1..10),
        trip in 1..10u8,
        fork_at in 0..10usize,
    ) {
        let prog = build(&body, trip, fork_at, &[3, -1]);
        let (seq, _) = run(&prog, FUEL);
        prop_assume!(!seq.out_of_fuel);
        for rec in [RecoveryKind::SrxFc, RecoveryKind::SrxOnly, RecoveryKind::Squash] {
            for chk in [RegCheckPolicy::ValueBased, RegCheckPolicy::MarkBased] {
                let mut m = MachineConfig::default();
                m.recovery = rec;
                m.reg_check = chk;
                let (got, oof) = spt_result(&prog, m);
                prop_assert!(!oof);
                prop_assert_eq!(got, seq.ret, "policy {:?}/{:?}", rec, chk);
            }
        }
    }

    /// Tiny speculation result buffers never break correctness.
    #[test]
    fn small_srb_preserves_semantics(
        body in prop::collection::vec(stmt_strategy(), 1..10),
        trip in 1..10u8,
        fork_at in 0..10usize,
        srb in 2..32usize,
    ) {
        let prog = build(&body, trip, fork_at, &[5]);
        let (seq, _) = run(&prog, FUEL);
        prop_assume!(!seq.out_of_fuel);
        let mut m = MachineConfig::default();
        m.srb_entries = srb;
        let (got, oof) = spt_result(&prog, m);
        prop_assert!(!oof);
        prop_assert_eq!(got, seq.ret);
    }

    /// Widening the fabric never changes architectural state: for any
    /// body/fork placement and N ∈ {2, 4, 8}, the final memory image and
    /// return value match the sequential interpretation word for word.
    #[test]
    fn fabric_width_preserves_memory(
        body in prop::collection::vec(stmt_strategy(), 1..10),
        trip in 1..10u8,
        fork_at in 0..10usize,
    ) {
        let prog = build(&body, trip, fork_at, &[3, -1]);
        let (seq, seq_mem) = run(&prog, FUEL);
        prop_assume!(!seq.out_of_fuel);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: prog.entry,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        for cores in [2usize, 4, 8] {
            let mut m = MachineConfig::default();
            m.cores = cores;
            let sim = SptSim::new(&prog, m, annots.clone());
            let (rep, mem) = sim.run_in(FUEL, &mut NullSink);
            prop_assert!(!rep.out_of_fuel, "cores={}", cores);
            prop_assert_eq!(rep.ret, seq.ret, "cores={}", cores);
            for a in 0..MEM as u64 {
                prop_assert_eq!(mem.peek(a), seq_mem.peek(a), "cores={} addr={}", cores, a);
            }
        }
    }

    /// The report's invariants hold on arbitrary runs.
    #[test]
    fn report_invariants(
        body in prop::collection::vec(stmt_strategy(), 1..10),
        trip in 1..10u8,
        fork_at in 0..10usize,
    ) {
        let prog = build(&body, trip, fork_at, &[2, 9]);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: prog.entry,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        let rep = SptSim::new(&prog, MachineConfig::default(), annots).run(FUEL);
        prop_assert!(rep.fast_commits + rep.replays <= rep.forks + 1);
        prop_assert!(rep.fast_commit_ratio() >= 0.0 && rep.fast_commit_ratio() <= 1.0);
        prop_assert!(rep.misspeculation_ratio() >= 0.0 && rep.misspeculation_ratio() <= 1.0);
        prop_assert!(rep.breakdown.total() <= rep.cycles + 2);
        prop_assert!(rep.spec_misspec <= rep.spec_instrs_checked);
    }
}
