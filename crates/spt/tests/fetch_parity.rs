//! Fetch parity, suite-wide.
//!
//! The cursor fetches with one index: each frame carries a `pc` into the
//! program-wide decoded code array, and a branch, call or fork sets it from
//! a target resolved at decode time. Every suite program at test scale,
//! original and SPT-transformed, runs here on a plain cursor, and at each
//! step two things must hold:
//!
//! * the fetched instruction is `dec.func(f).inst_at(block, idx)` of the
//!   position before the step, where the position comes from a shadow
//!   stack advanced from the tree-form program and each step's outcome
//!   alone (never from the cursor or the decoded targets);
//! * every issue fact the decoder computed once equals its definition in
//!   terms of the decoded op.
//!
//! At every executed `spt_fork` a forked cursor must sit at the start
//! block's first instruction as well.

use spt::compiler::compile;
use spt::interp::{Cursor, DecOp, DecodedInst, DecodedProgram, Loc, Memory, Step};
use spt::sir::{BlockId, Op, Program, Terminator};
use spt::workloads::{suite, Scale};
use spt::RunConfig;

/// The decoded code array is walked once per step: keep each entry at 80
/// bytes.
const _: () = assert!(std::mem::size_of::<DecodedInst>() <= 80);

/// Steps per program before the check gives up on it (test-scale programs
/// finish well inside it).
const MAX_STEPS: u64 = 5_000_000;

/// The issue facts of `st` must equal their definitions over the decoded
/// op.
fn assert_facts(st: &Step, ctx: &str) {
    let inst = st.inst();
    let op = inst.op;
    let dst = match op {
        DecOp::Const { dst, .. }
        | DecOp::Un { dst, .. }
        | DecOp::Bin { dst, .. }
        | DecOp::Load { dst, .. } => Some(dst),
        _ => None,
    };
    assert_eq!(inst.dst(), dst, "dst [{ctx}]");
    if !matches!(op, DecOp::Ret { .. }) {
        assert_eq!(st.dst(), dst.filter(|_| st.executed), "step dst [{ctx}]");
    }
    assert_eq!(
        st.is_store(),
        matches!(op, DecOp::Store { .. }),
        "store [{ctx}]"
    );
    assert_eq!(st.is_ret(), matches!(op, DecOp::Ret { .. }), "ret [{ctx}]");
    assert_eq!(
        st.is_cond_branch(),
        matches!(op, DecOp::Br { .. }),
        "conditional branch [{ctx}]"
    );
    let fork = match op {
        DecOp::SptFork { start } if st.executed => Some(start),
        _ => None,
    };
    assert_eq!(st.fork(), fork, "fork [{ctx}]");
    assert_eq!(
        st.kill(),
        st.executed && matches!(op, DecOp::SptKill),
        "kill [{ctx}]"
    );
    let extra = match op {
        DecOp::Nop { units } if st.executed => units.saturating_sub(1),
        _ => 0,
    };
    assert_eq!(st.extra_slots(), extra, "extra slots [{ctx}]");
    let branch = match op {
        DecOp::Jmp { target, .. } => Some((false, true, Some(target))),
        DecOp::Br {
            taken, not_taken, ..
        } => Some((
            true,
            st.taken,
            Some(if st.taken { taken } else { not_taken }),
        )),
        DecOp::Ret { .. } => Some((false, true, None)),
        _ => None,
    };
    assert_eq!(
        st.branch().map(|b| (b.conditional, b.taken, b.target)),
        branch,
        "branch [{ctx}]"
    );
}

/// Run `prog` on a cursor, checking fetch parity and the issue facts at
/// every step; returns the step count and the executed forks.
fn check_program(prog: &Program, ctx: &str) -> (u64, u64) {
    let dec = DecodedProgram::new(prog);
    let mut mem = Memory::for_program(prog);
    let mut cur = Cursor::at_entry(&dec);
    let entry = prog.func(prog.entry);
    let mut shadow = vec![Loc {
        func: prog.entry,
        block: entry.entry,
        idx: 0,
    }];
    let (mut steps, mut forks) = (0, 0);
    while steps < MAX_STEPS {
        let Some(&at) = shadow.last() else {
            assert!(cur.is_halted(), "cursor runs past the entry return [{ctx}]");
            break;
        };
        let ctx = format!("{ctx} step {steps} at {at:?}");
        let df = dec.func(at.func);
        let want = df.inst_at(at.block, at.idx as usize);
        assert_eq!(cur.loc(), Some(at), "position [{ctx}]");
        assert_eq!(cur.pc(), Some(df.block_pc(at.block) + at.idx), "pc [{ctx}]");
        let st = cur.step(&mut mem).expect("a live cursor steps");
        steps += 1;
        assert!(std::ptr::eq(st.inst(), want), "fetched instruction [{ctx}]");
        assert_eq!(st.loc(), at, "step position [{ctx}]");
        assert_facts(&st, &ctx);

        // Advance the shadow from the tree form and the step's outcome.
        let f = prog.func(at.func);
        let block = f.block(at.block);
        let top = shadow.last_mut().expect("a frame");
        if (at.idx as usize) < block.insts.len() {
            top.idx += 1;
            if let Op::Call { callee, .. } = block.insts[at.idx as usize].op {
                if st.executed {
                    shadow.push(Loc {
                        func: callee,
                        block: prog.func(callee).entry,
                        idx: 0,
                    });
                }
            }
            if let Some(start) = st.fork() {
                assert_fork_lands(&dec, &cur, at.func, start, &ctx);
                forks += 1;
            }
        } else {
            match block.term {
                Terminator::Jmp(target) => *top = jump(at, target),
                Terminator::Br {
                    taken, not_taken, ..
                } => *top = jump(at, if st.taken { taken } else { not_taken }),
                Terminator::Ret(_) => {
                    shadow.pop();
                }
            }
        }
    }
    (steps, forks)
}

fn jump(at: Loc, block: BlockId) -> Loc {
    Loc {
        func: at.func,
        block,
        idx: 0,
    }
}

/// A cursor forked to `start` fetches the start block's first
/// instruction next.
fn assert_fork_lands(
    dec: &DecodedProgram,
    parent: &Cursor,
    func: spt::sir::FuncId,
    start: BlockId,
    ctx: &str,
) {
    let spec = parent.fork_speculative(start);
    let want = dec.func(func).inst_at(start, 0);
    assert_eq!(
        spec.loc(),
        Some(Loc {
            func,
            block: start,
            idx: 0
        }),
        "fork [{ctx}]"
    );
    assert!(
        std::ptr::eq(spec.next_inst().expect("live fork"), want),
        "fork fetch [{ctx}]"
    );
}

#[test]
fn every_step_fetches_the_instruction_its_position_names() {
    let cfg = RunConfig::default();
    let mut forks = 0;
    for w in suite(Scale::Test) {
        let compiled = compile(&w.program, &cfg.compile);
        for (prog, kind) in [(&w.program, "original"), (&compiled.program, "transformed")] {
            let (steps, f) = check_program(prog, &format!("{} {kind}", w.name));
            assert!(
                steps > 0 && steps < MAX_STEPS,
                "{} {kind}: {steps} steps",
                w.name
            );
            forks += f;
        }
    }
    assert!(forks > 0, "the transformed suite must fork");
}
