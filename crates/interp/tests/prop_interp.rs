//! Property tests for the interpreter: determinism, totality (no panics on
//! arbitrary address arithmetic), and the fork/adopt context contract used
//! by the SPT simulator.

use proptest::prelude::*;
use spt_interp::mem::wrap_addr;
use spt_interp::{
    run, run_with, Branch, Cursor, DecodedProgram, EvKind, Event, MemRef, MemView, Memory, SrcSet,
    Step,
};
use spt_sir::{
    BinOp, BlockId, FuncId, LatClass, Op, Program, ProgramBuilder, Reg, Terminator, UnOp,
};

const FUEL: u64 = 200_000;

#[derive(Clone, Debug)]
enum S {
    Const(u8, i64),
    Bin(u8, u8, u8, u8),
    Un(u8, u8, u8),
    Load(u8, u8, i8),
    Store(u8, u8, i8),
}

fn stmt() -> impl Strategy<Value = S> {
    prop_oneof![
        (0..5u8, any::<i64>()).prop_map(|(d, v)| S::Const(d, v)),
        (0..18u8, 0..5u8, 0..5u8, 0..5u8).prop_map(|(o, d, a, b)| S::Bin(o, d, a, b)),
        (0..3u8, 0..5u8, 0..5u8).prop_map(|(o, d, s)| S::Un(o, d, s)),
        (0..5u8, 0..5u8, any::<i8>()).prop_map(|(d, b, o)| S::Load(d, b, o)),
        (0..5u8, 0..5u8, any::<i8>()).prop_map(|(s, b, o)| S::Store(s, b, o)),
    ]
}

fn binop(c: u8) -> BinOp {
    use BinOp::*;
    [
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
        Min, Max,
    ][c as usize % 18]
}

fn unop(c: u8) -> UnOp {
    [UnOp::Neg, UnOp::Not, UnOp::Mov][c as usize % 3]
}

fn straightline(body: &[S], mem_words: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let regs: Vec<Reg> = (0..5).map(|_| f.reg()).collect();
    for (k, r) in regs.iter().enumerate() {
        f.const_(*r, k as i64);
    }
    for s in body {
        match *s {
            S::Const(d, v) => f.const_(regs[d as usize % 5], v),
            S::Bin(o, d, a, b) => f.bin(
                binop(o),
                regs[d as usize % 5],
                regs[a as usize % 5],
                regs[b as usize % 5],
            ),
            S::Un(o, d, s2) => f.un(unop(o), regs[d as usize % 5], regs[s2 as usize % 5]),
            S::Load(d, b, o) => f.load(regs[d as usize % 5], regs[b as usize % 5], o as i64),
            S::Store(s2, b, o) => f.store(regs[s2 as usize % 5], regs[b as usize % 5], o as i64),
        }
    }
    f.ret(Some(regs[0]));
    let id = f.finish();
    pb.finish(id, mem_words)
}

/// A counted loop whose body is a random straight-line block, with the
/// induction in a separate header block.
fn loop_over(body: &[S], trip: u8, mem_words: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let regs: Vec<Reg> = (0..5).map(|_| f.reg()).collect();
    let i = f.reg();
    let nn = f.reg();
    let header = f.new_block();
    let bodyb = f.new_block();
    let exit = f.new_block();
    for (k, r) in regs.iter().enumerate() {
        f.const_(*r, k as i64);
    }
    f.const_(i, 0);
    f.const_(nn, trip as i64);
    f.jmp(header);
    f.switch_to(header);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.addi(i, i, 1);
    f.br(c, bodyb, exit);
    f.switch_to(bodyb);
    for s in body {
        match *s {
            S::Const(d, v) => f.const_(regs[d as usize % 5], v),
            S::Bin(o, d, a, b) => f.bin(
                binop(o),
                regs[d as usize % 5],
                regs[a as usize % 5],
                regs[b as usize % 5],
            ),
            S::Un(o, d, s2) => f.un(unop(o), regs[d as usize % 5], regs[s2 as usize % 5]),
            S::Load(d, b, o) => f.load(regs[d as usize % 5], regs[b as usize % 5], o as i64),
            S::Store(s2, b, o) => f.store(regs[s2 as usize % 5], regs[b as usize % 5], o as i64),
        }
    }
    f.jmp(header);
    f.switch_to(exit);
    f.ret(Some(regs[0]));
    let id = f.finish();
    pb.finish(id, mem_words)
}

/// A counted loop that calls a generated straight-line leaf every
/// iteration: multi-frame coverage for the register-slab layout (the leaf
/// frame is repeatedly allocated on and truncated off the slab).
fn call_program(body: &[S], trip: u8, mem_words: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let leaf = pb.declare("leaf", 1);
    let mut f = pb.func("main", 0);
    let i = f.reg();
    let nn = f.reg();
    let acc = f.reg();
    let header = f.new_block();
    let bodyb = f.new_block();
    let exit = f.new_block();
    f.const_(i, 0);
    f.const_(nn, trip as i64);
    f.const_(acc, 0);
    f.jmp(header);
    f.switch_to(header);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.addi(i, i, 1);
    f.br(c, bodyb, exit);
    f.switch_to(bodyb);
    let r = f.reg();
    f.call(leaf, &[i], Some(r));
    f.bin(BinOp::Add, acc, acc, r);
    f.jmp(header);
    f.switch_to(exit);
    f.ret(Some(acc));
    let main = f.finish();
    let mut g = pb.build(leaf);
    let mut regs = vec![g.param(0)];
    for _ in 1..5 {
        regs.push(g.reg());
    }
    for (k, r) in regs.iter().enumerate().skip(1) {
        g.const_(*r, k as i64);
    }
    for s in body {
        match *s {
            S::Const(d, v) => g.const_(regs[d as usize % 5], v),
            S::Bin(o, d, a, b) => g.bin(
                binop(o),
                regs[d as usize % 5],
                regs[a as usize % 5],
                regs[b as usize % 5],
            ),
            S::Un(o, d, s2) => g.un(unop(o), regs[d as usize % 5], regs[s2 as usize % 5]),
            S::Load(d, b, o) => g.load(regs[d as usize % 5], regs[b as usize % 5], o as i64),
            S::Store(s2, b, o) => g.store(regs[s2 as usize % 5], regs[b as usize % 5], o as i64),
        }
    }
    g.ret(Some(regs[0]));
    g.finish();
    pb.finish(main, mem_words)
}

/// One activation record of the reference interpreter: the pre-slab
/// layout, a register `Vec` per frame.
struct RefFrame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    regs: Vec<i64>,
    ret_dst: Option<Reg>,
}

/// Independent tree-walking reference interpreter over the *un-decoded*
/// program, with `Vec<Frame>`-of-`Vec<i64>` register files — the legacy
/// cursor layout, reimplemented from the SIR semantics rather than shared
/// code. The lockstep properties compare the arena-slab cursor against it
/// after every step, fork and adopt.
struct RefCursor<'p> {
    prog: &'p Program,
    frames: Vec<RefFrame>,
    halted: bool,
    ret_val: Option<i64>,
}

impl<'p> RefCursor<'p> {
    fn at_entry(prog: &'p Program) -> Self {
        let f = prog.func(prog.entry);
        RefCursor {
            prog,
            frames: vec![RefFrame {
                func: prog.entry,
                block: f.entry,
                idx: 0,
                regs: vec![0; f.n_regs as usize],
                ret_dst: None,
            }],
            halted: false,
            ret_val: None,
        }
    }

    fn fork_speculative(&self, start: BlockId) -> RefCursor<'p> {
        let mut frames: Vec<RefFrame> = self
            .frames
            .iter()
            .map(|fr| RefFrame {
                func: fr.func,
                block: fr.block,
                idx: fr.idx,
                regs: fr.regs.clone(),
                ret_dst: fr.ret_dst,
            })
            .collect();
        let top = frames.last_mut().expect("fork from live cursor");
        top.block = start;
        top.idx = 0;
        RefCursor {
            prog: self.prog,
            frames,
            halted: false,
            ret_val: None,
        }
    }

    /// Execute one statement or terminator; `false` once halted.
    fn step(&mut self, mem: &mut Memory) -> bool {
        if self.halted {
            return false;
        }
        let fr = self.frames.last_mut().expect("live cursor has a frame");
        let block = self.prog.func(fr.func).block(fr.block);
        if fr.idx < block.insts.len() {
            let inst = &block.insts[fr.idx];
            fr.idx += 1;
            if let Some(g) = inst.guard {
                if !g.passes(fr.regs[g.reg.index()]) {
                    return true;
                }
            }
            match &inst.op {
                Op::Const { dst, imm } => fr.regs[dst.index()] = *imm,
                Op::Un { op, dst, src } => fr.regs[dst.index()] = op.eval(fr.regs[src.index()]),
                Op::Bin { op, dst, a, b } => {
                    fr.regs[dst.index()] = op.eval(fr.regs[a.index()], fr.regs[b.index()])
                }
                Op::Load { dst, base, off } => {
                    let addr = wrap_addr(fr.regs[base.index()].wrapping_add(*off), mem.words());
                    fr.regs[dst.index()] = MemView::load(mem, addr);
                }
                Op::Store { src, base, off } => {
                    let addr = wrap_addr(fr.regs[base.index()].wrapping_add(*off), mem.words());
                    let v = fr.regs[src.index()];
                    MemView::store(mem, addr, v);
                }
                Op::Call { callee, args, ret } => {
                    let g = self.prog.func(*callee);
                    let mut regs = vec![0i64; g.n_regs as usize];
                    for (i, a) in args.iter().enumerate() {
                        regs[i] = fr.regs[a.index()];
                    }
                    let nf = RefFrame {
                        func: *callee,
                        block: g.entry,
                        idx: 0,
                        regs,
                        ret_dst: *ret,
                    };
                    self.frames.push(nf);
                }
                Op::SptFork { .. } | Op::SptKill | Op::Nop { .. } => {}
            }
        } else {
            match block.term {
                Terminator::Jmp(t) => {
                    fr.block = t;
                    fr.idx = 0;
                }
                Terminator::Br {
                    cond,
                    taken,
                    not_taken,
                } => {
                    let t = if fr.regs[cond.index()] != 0 {
                        taken
                    } else {
                        not_taken
                    };
                    fr.block = t;
                    fr.idx = 0;
                }
                Terminator::Ret(val) => {
                    let v = val.map(|r| fr.regs[r.index()]);
                    let ret_dst = fr.ret_dst;
                    self.frames.pop();
                    if let Some(caller) = self.frames.last_mut() {
                        if let (Some(dst), Some(v)) = (ret_dst, v) {
                            caller.regs[dst.index()] = v;
                        }
                    } else {
                        self.halted = true;
                        self.ret_val = v;
                    }
                }
            }
        }
        true
    }
}

/// Assert the arena-slab cursor and `regs_at` equal the reference frames
/// at every call-stack level.
fn assert_regs_match(cur: &Cursor, rc: &RefCursor, ctx: &str) {
    assert_eq!(cur.depth(), rc.frames.len(), "depth diverged [{ctx}]");
    for lvl in 0..cur.depth() {
        assert_eq!(
            cur.regs_at(lvl),
            &rc.frames[lvl].regs[..],
            "registers diverged at level {lvl} [{ctx}]"
        );
    }
}

/// Run the arena cursor and the reference interpreter in lockstep over
/// `prog`: after every step the full register state at every call-stack
/// level must match; periodically fork both at the current block and adopt
/// into a scratch cursor, checking those registers too. Returns the final
/// return value.
fn lockstep_against_reference(prog: &Program) -> Option<i64> {
    prog.verify().unwrap();
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);
    let mut rc = RefCursor::at_entry(prog);
    let mut mem_a = Memory::for_program(prog);
    let mut mem_b = Memory::for_program(prog);
    let mut steps = 0u64;
    loop {
        let a = cur.step(&mut mem_a).is_some();
        let b = rc.step(&mut mem_b);
        assert_eq!(a, b, "halt divergence at step {steps}");
        if !a {
            break;
        }
        steps += 1;
        assert!(steps < FUEL, "runaway program");
        assert_regs_match(&cur, &rc, &format!("step {steps}"));
        if steps % 13 == 5 && !cur.is_halted() {
            // Fork both at the current top block: forked contexts match.
            let blk = cur.loc().expect("live cursor").block;
            let fa = cur.fork_speculative(blk);
            let fb = rc.fork_speculative(blk);
            assert_regs_match(&fa, &fb, &format!("fork at step {steps}"));
            // Commit (adopt) into a scratch cursor: adopted context
            // matches too.
            let mut scratch = Cursor::at_entry(&dec);
            scratch.adopt(&cur);
            assert_regs_match(&scratch, &rc, &format!("adopt at step {steps}"));
        }
    }
    assert_eq!(cur.return_value(), rc.ret_val, "return value diverged");
    for a in 0..mem_a.len() as u64 {
        assert_eq!(mem_a.peek(a), mem_b.peek(a), "memory diverged at {a}");
    }
    cur.return_value()
}

/// A statement of the record-semantics programs: a plain statement, a
/// six-argument call (more than [`SrcSet::MAX_SRCS`]), or an SPT marker;
/// each may carry a guard `(register, expect)`.
#[derive(Clone, Debug)]
enum R {
    S(S),
    Call(u8, u8),
    Fork,
    Kill,
    Nop(u8),
}

fn rstmt() -> impl Strategy<Value = (R, Option<(u8, bool)>)> {
    let r = prop_oneof![
        stmt().prop_map(R::S),
        (0..5u8, 0..5u8).prop_map(|(a, d)| R::Call(a, d)),
        Just(R::Fork),
        Just(R::Kill),
        (0..4u8).prop_map(R::Nop),
    ];
    let guard = prop_oneof![Just(None), (0..5u8, any::<bool>()).prop_map(Some)];
    (r, guard)
}

/// A counted loop over a random, partly guarded body that calls a
/// six-parameter leaf, forks and kills: every step kind the cursor has.
fn record_program(body: &[(R, Option<(u8, bool)>)], trip: u8, mem_words: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let leaf = pb.declare("leaf", 6);
    let mut f = pb.func("main", 0);
    let regs: Vec<Reg> = (0..5).map(|_| f.reg()).collect();
    let i = f.reg();
    let nn = f.reg();
    let header = f.new_block();
    let bodyb = f.new_block();
    let exit = f.new_block();
    for (k, r) in regs.iter().enumerate() {
        f.const_(*r, k as i64 - 1);
    }
    f.const_(i, 0);
    f.const_(nn, trip as i64);
    f.jmp(header);
    f.switch_to(header);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.addi(i, i, 1);
    f.br(c, bodyb, exit);
    f.switch_to(bodyb);
    let r = |k: u8| regs[k as usize % 5];
    for (st, guard) in body {
        match guard {
            Some((g, true)) => f.guard_when(r(*g)),
            Some((g, false)) => f.guard_unless(r(*g)),
            None => {}
        }
        match *st {
            R::S(S::Const(d, v)) => f.const_(r(d), v),
            R::S(S::Bin(o, d, a, b)) => f.bin(binop(o), r(d), r(a), r(b)),
            R::S(S::Un(o, d, s2)) => f.un(unop(o), r(d), r(s2)),
            R::S(S::Load(d, b, o)) => f.load(r(d), r(b), o as i64),
            R::S(S::Store(s2, b, o)) => f.store(r(s2), r(b), o as i64),
            R::Call(a, d) => {
                let args: Vec<Reg> = (0..6).map(|k| r(a + k)).collect();
                f.call(leaf, &args, Some(r(d)));
            }
            R::Fork => f.spt_fork(bodyb),
            R::Kill => f.spt_kill(),
            R::Nop(u) => f.nop(u as u32),
        }
        f.unguard();
    }
    f.jmp(header);
    f.switch_to(exit);
    f.ret(Some(regs[0]));
    let main = f.finish();
    let mut g = pb.build(leaf);
    let ps: Vec<Reg> = (0..6).map(|k| g.param(k)).collect();
    let out = g.reg();
    g.bin(BinOp::Sub, out, ps[0], ps[5]);
    g.bin(BinOp::Add, out, out, ps[3]);
    g.ret(Some(out));
    g.finish();
    pb.finish(main, mem_words)
}

/// The [`Event`] a step must describe, derived independently from the
/// tree-form program and the machine state just before the step: the
/// frame's registers, its return destination, and memory.
fn expected_event(prog: &Program, cur: &Cursor, mem: &Memory) -> Event {
    let pos = cur.position().expect("live cursor");
    let depth = (cur.depth() - 1) as u32;
    let regs = cur.regs_at(cur.depth() - 1);
    let val = |r: Reg| regs[r.index()];
    let addr = |base: Reg, off: i64| wrap_addr(val(base).wrapping_add(off), mem.len());
    match pos {
        EvKind::Inst { func, sref } => {
            let inst = prog.func(func).inst(sref);
            let mut e = Event::blank(pos, inst.lat_class(), depth);
            if let Some(g) = inst.guard {
                e.srcs.push(g.reg);
                if !g.passes(val(g.reg)) {
                    e.executed = false;
                    return e;
                }
            }
            match &inst.op {
                Op::Const { imm, .. } => e.dst_val = *imm,
                Op::Un { op, src, .. } => e.dst_val = op.eval(val(*src)),
                Op::Bin { op, a, b, .. } => e.dst_val = op.eval(val(*a), val(*b)),
                Op::Load { base, off, .. } => {
                    let a = addr(*base, *off);
                    e.dst_val = mem.peek(a);
                    e.mem = Some(MemRef {
                        addr: a,
                        is_store: false,
                        value: e.dst_val,
                    });
                }
                Op::Store { src, base, off } => {
                    e.mem = Some(MemRef {
                        addr: addr(*base, *off),
                        is_store: true,
                        value: val(*src),
                    })
                }
                Op::Call { args, .. } => e.srcs = args.iter().copied().collect(),
                Op::SptFork { start } => e.fork = Some(*start),
                Op::SptKill => e.kill = true,
                Op::Nop { units } => e.extra_slots = units.saturating_sub(1),
            }
            if !matches!(inst.op, Op::Call { .. }) {
                e.srcs = inst
                    .guard
                    .map(|g| g.reg)
                    .into_iter()
                    .chain(inst.srcs())
                    .collect();
                e.dst = inst.dst();
            }
            e
        }
        EvKind::Term { func, block } => {
            let mut e = Event::blank(pos, LatClass::Alu, depth);
            let branch = |conditional, taken, target| {
                Some(Branch {
                    conditional,
                    taken,
                    target,
                })
            };
            match prog.func(func).block(block).term {
                Terminator::Jmp(t) => e.branch = branch(false, true, Some(t)),
                Terminator::Br {
                    cond,
                    taken,
                    not_taken,
                } => {
                    e.srcs.push(cond);
                    let t = val(cond) != 0;
                    e.branch = branch(true, t, Some(if t { taken } else { not_taken }));
                }
                Terminator::Ret(r) => {
                    e.branch = branch(false, true, None);
                    if let Some(r) = r {
                        e.srcs.push(r);
                        if depth > 0 {
                            if let Some(dst) = cur.top().ret_dst {
                                e.dst = Some(dst);
                                e.dst_val = val(r);
                            }
                        }
                    }
                }
            }
            e
        }
    }
}

/// Step `prog` to completion, checking every [`Step`] against the
/// tree-form statement it executed (see `records_match_tree_form`).
fn check_records(prog: &Program) -> Result<(), TestCaseError> {
    prog.verify().unwrap();
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);
    let mut mem = Memory::for_program(prog);
    let mut steps = 0u64;
    while !cur.is_halted() {
        let want = expected_event(prog, &cur, &mem);
        let rec: Step = cur.step(&mut mem).expect("not halted");
        steps += 1;
        prop_assert!(steps < FUEL, "runaway program");
        let ctx = format!("step {steps} at {:?}", want.kind);
        prop_assert_eq!(rec.pos(), want.kind, "position [{}]", &ctx);
        prop_assert_eq!(rec.depth, want.depth, "depth [{}]", &ctx);
        prop_assert_eq!(rec.executed, want.executed, "executed [{}]", &ctx);
        // Latency class: the tree form's (`Alu` for terminators).
        prop_assert_eq!(rec.lat(), want.lat, "latency class [{}]", &ctx);
        // Timing operands, as a multiset: only the guard when suppressed,
        // an executed call's first MAX_SRCS arguments without the guard,
        // otherwise sources plus guard.
        let mut got: Vec<Reg> = rec.srcs().to_vec();
        let mut exp: Vec<Reg> = match want.kind {
            EvKind::Inst { func, sref } => {
                let inst = prog.func(func).inst(sref);
                match (&inst.op, rec.executed) {
                    (_, false) => vec![inst.guard.expect("suppressed means guarded").reg],
                    (Op::Call { args, .. }, true) => {
                        args.iter().copied().take(SrcSet::MAX_SRCS).collect()
                    }
                    (_, true) => inst.srcs_with_guard(),
                }
            }
            EvKind::Term { func, block } => match prog.func(func).block(block).term {
                Terminator::Br { cond, .. } => vec![cond],
                Terminator::Ret(r) => r.into_iter().collect(),
                Terminator::Jmp(_) => vec![],
            },
        };
        got.sort();
        exp.sort();
        prop_assert_eq!(got, exp, "timing operands [{}]", &ctx);
        // Destination: the tree form's, except for calls (whose value lands
        // at the callee's return).
        if let EvKind::Inst { func, sref } = want.kind {
            let inst = prog.func(func).inst(sref);
            let tree = if !rec.executed || inst.is_call() {
                None
            } else {
                inst.dst()
            };
            prop_assert_eq!(rec.dst(), tree, "destination [{}]", &ctx);
        }
        prop_assert_eq!(rec.dst(), want.dst, "destination [{}]", &ctx);
        // Memory: the wrapped `base + off` address and the value moved.
        prop_assert_eq!(rec.mem(), want.mem, "memory access [{}]", &ctx);
        // Branch outcome: the condition register's value before the step.
        prop_assert_eq!(rec.branch(), want.branch, "branch [{}]", &ctx);
        prop_assert_eq!(
            rec.taken,
            want.branch.is_some_and(|b| b.conditional && b.taken)
        );
        prop_assert_eq!(rec.fork(), want.fork, "fork [{}]", &ctx);
        prop_assert_eq!(rec.kill(), want.kill, "kill [{}]", &ctx);
        prop_assert_eq!(rec.slots(), want.slots(), "issue slots [{}]", &ctx);
        prop_assert_eq!(rec.is_call(), want.is_call(), "call [{}]", &ctx);
        prop_assert_eq!(rec.is_ret(), want.is_ret(), "ret [{}]", &ctx);
        prop_assert_eq!(rec.dst_depth(), want.dst_depth(), "dst depth [{}]", &ctx);
        // The on-demand Event is exactly the independently derived one.
        prop_assert_eq!(rec.event(), want, "event [{}]", &ctx);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary straight-line programs run to completion without panicking
    /// (wrapping arithmetic, total division, modular addressing), and two
    /// runs agree exactly.
    #[test]
    fn total_and_deterministic(
        body in prop::collection::vec(stmt(), 0..40),
        mem_words in 1..64usize,
    ) {
        let prog = straightline(&body, mem_words);
        prog.verify().unwrap();
        let (r1, m1) = run(&prog, FUEL);
        let (r2, m2) = run(&prog, FUEL);
        prop_assert!(!r1.out_of_fuel);
        prop_assert_eq!(r1.ret, r2.ret);
        prop_assert_eq!(r1.steps, r2.steps);
        for a in 0..mem_words as u64 {
            prop_assert_eq!(m1.peek(a), m2.peek(a));
        }
    }

    /// The observer sees exactly `steps` events, and every store lands at
    /// an in-range address.
    #[test]
    fn observer_and_addresses(
        body in prop::collection::vec(stmt(), 0..30),
        mem_words in 1..32usize,
    ) {
        let prog = straightline(&body, mem_words);
        let mut events = 0u64;
        let mut bad_addr = false;
        let (res, _) = run_with(&prog, FUEL, |ev| {
            events += 1;
            if let Some(m) = ev.mem {
                if m.addr as usize >= mem_words {
                    bad_addr = true;
                }
            }
        });
        prop_assert_eq!(events, res.steps);
        prop_assert!(!bad_addr, "memory access outside the wrapped range");
    }

    /// Forked cursors are faithful copies: stepping the fork with the same
    /// memory as a fresh clone of the original yields identical state, and
    /// adopt() transfers everything.
    #[test]
    fn fork_and_adopt_contract(
        body in prop::collection::vec(stmt(), 1..30),
        split in 0..30usize,
    ) {
        let prog = straightline(&body, 16);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        for _ in 0..split.min(body.len()) {
            cur.step(&mut mem);
        }
        // Fork at the current block start: positions equal, registers equal.
        let spec = cur.fork_speculative(cur.loc().unwrap().block);
        prop_assert_eq!(spec.top_regs(), cur.top_regs());
        prop_assert_eq!(spec.loc().unwrap().idx, 0);
        let mut adopted = Cursor::at_entry(&dec);
        adopted.adopt(&cur);
        prop_assert_eq!(adopted.position(), cur.position());
        prop_assert_eq!(adopted.depth(), cur.depth());
        prop_assert_eq!(adopted.top_regs(), cur.top_regs());
    }

    /// The arena-slab cursor is indistinguishable from the legacy
    /// `Vec<Frame>`-of-`Vec<i64>` reference interpreter: registers equal at
    /// every call-stack level after every step, fork and adopt, over
    /// generated loops.
    #[test]
    fn arena_matches_reference_interpreter(
        body in prop::collection::vec(stmt(), 1..25),
        trip in 1..10u8,
        mem_words in 1..32usize,
    ) {
        lockstep_against_reference(&loop_over(&body, trip, mem_words));
    }

    /// Same lockstep property across call/return boundaries: leaf frames
    /// are repeatedly pushed onto and truncated off the slab.
    #[test]
    fn arena_matches_reference_across_calls(
        body in prop::collection::vec(stmt(), 1..20),
        trip in 1..8u8,
        mem_words in 1..32usize,
    ) {
        lockstep_against_reference(&call_program(&body, trip, mem_words));
    }

    /// Guard-suppressed statements have no architectural effect.
    #[test]
    fn suppressed_statements_inert(v in any::<i64>()) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let p = f.reg();
        let x = f.reg();
        let addr = f.const_reg(1);
        f.const_(p, 0); // guard always false
        f.const_(x, v);
        f.guard_when(p);
        f.const_(x, v.wrapping_add(1));
        f.store(x, addr, 0);
        f.unguard();
        f.ret(Some(x));
        let id = f.finish();
        let prog = pb.finish(id, 4);
        let (res, mem) = run(&prog, FUEL);
        prop_assert_eq!(res.ret, Some(v));
        prop_assert_eq!(mem.peek(1), 0);
    }

    /// Every step record agrees with the tree-form statement it executed:
    /// position, latency class, timing operands, destination, memory
    /// address, branch outcome, fork/kill and slots, and its on-demand
    /// `Event` equals one derived independently from the tree form.
    #[test]
    fn records_match_tree_form(
        body in prop::collection::vec(rstmt(), 1..24),
        trip in 1..6u8,
        mem_words in 1..32usize,
    ) {
        check_records(&record_program(&body, trip, mem_words))?;
    }
}

/// Pinned stride-boundary case: a register count that is exactly a power
/// of two, so the frame fills its slab chunk with no padding and the last
/// register sits on the chunk (and dirty-word) boundary.
#[test]
fn regression_reg_count_exactly_one_stride() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let regs: Vec<Reg> = (0..64).map(|_| f.reg()).collect();
    for (k, r) in regs.iter().enumerate() {
        f.const_(*r, k as i64 + 1);
    }
    // Touch both boundary registers of the frame: index 63 is the top bit
    // of the single dirty word and the last word of the slab chunk.
    f.bin(BinOp::Add, regs[0], regs[0], regs[63]);
    f.bin(BinOp::Add, regs[0], regs[0], regs[32]);
    f.store(regs[0], regs[1], 0);
    f.ret(Some(regs[0]));
    let id = f.finish();
    let prog = pb.finish(id, 4);
    let dec = DecodedProgram::new(&prog);
    assert_eq!(dec.frame_stride(), 64, "64 regs must not round up");
    let ret = lockstep_against_reference(&prog);
    assert_eq!(ret, Some(1 + 64 + 33));
}

/// Pinned slab-growth case: recursion depth far beyond any initial
/// capacity, so frames are repeatedly allocated at slab growth edges on
/// the way down and truncated off on the way back up.
#[test]
fn regression_call_depth_grows_slab() {
    // f(n) = n <= 0 ? 0 : n + f(n - 1), called with n = 40.
    let mut pb = ProgramBuilder::new();
    let fid = pb.declare("f", 1);
    let mut m = pb.func("main", 0);
    let a = m.const_reg(40);
    let r = m.reg();
    m.call(fid, &[a], Some(r));
    m.ret(Some(r));
    let main = m.finish();
    let mut g = pb.build(fid);
    let n = g.param(0);
    let z = g.reg();
    let c = g.reg();
    let rec = g.new_block();
    let base = g.new_block();
    g.const_(z, 0);
    g.bin(BinOp::CmpLe, c, n, z);
    g.br(c, base, rec);
    g.switch_to(rec);
    let n1 = g.reg();
    g.addi(n1, n, -1);
    let s = g.reg();
    g.call(fid, &[n1], Some(s));
    let out = g.reg();
    g.bin(BinOp::Add, out, n, s);
    g.ret(Some(out));
    g.switch_to(base);
    g.ret(Some(z));
    g.finish();
    let prog = pb.finish(main, 4);
    let ret = lockstep_against_reference(&prog);
    assert_eq!(ret, Some((1..=40).sum::<i64>()));
}
