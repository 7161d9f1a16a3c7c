//! Whole-program profiling: loop statistics and reach probabilities.

use crate::context::{LoopContextTracker, LoopKey};
use spt_interp::{Cursor, DecodedProgram, EvKind, Memory};
use spt_sir::{BlockId, FuncId, LoopId, Program, StmtRef};
use std::collections::HashMap;

/// Dynamic statistics for one static loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopDyn {
    pub invocations: u64,
    pub iterations: u64,
    /// Dynamic instructions executed under the loop (including callees and
    /// nested loops — this is the paper's "loop body size" notion, which
    /// lets gap's occasionally-huge hot loop show up as such).
    pub dyn_instrs: u64,
}

impl LoopDyn {
    /// Average dynamic body size (instructions per iteration).
    pub fn avg_body_size(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.dyn_instrs as f64 / self.iterations as f64
        }
    }

    /// Average trip count per invocation.
    pub fn avg_trip(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.iterations as f64 / self.invocations as f64
        }
    }
}

/// Guard pass/fail counts (reach probability of a predicated statement).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardCount {
    pub pass: u64,
    pub fail: u64,
}

impl GuardCount {
    pub fn prob(&self) -> f64 {
        let n = self.pass + self.fail;
        if n == 0 {
            1.0
        } else {
            self.pass as f64 / n as f64
        }
    }
}

/// Whole-program profile.
#[derive(Clone, Debug, Default)]
pub struct ProgramProfile {
    /// Total dynamic instructions (statements + terminators).
    pub total_instrs: u64,
    pub loops: HashMap<LoopKey, LoopDyn>,
    /// Guard outcomes per predicated statement.
    pub guards: HashMap<(FuncId, StmtRef), GuardCount>,
    /// Conditional-branch outcomes per block: (taken, not taken).
    pub branches: HashMap<(FuncId, BlockId), (u64, u64)>,
    /// Per function: times called (entry counts once).
    pub func_calls: HashMap<FuncId, u64>,
    /// Per function: dynamic instructions executed within it, *inclusive*
    /// of its callees — what a call site actually costs.
    pub func_instrs: HashMap<FuncId, u64>,
    pub ret: Option<i64>,
    pub out_of_fuel: bool,
}

impl ProgramProfile {
    /// Fraction of total dynamic instructions spent under `key`.
    pub fn coverage(&self, key: LoopKey) -> f64 {
        if self.total_instrs == 0 {
            return 0.0;
        }
        self.loops
            .get(&key)
            .map(|l| l.dyn_instrs as f64 / self.total_instrs as f64)
            .unwrap_or(0.0)
    }

    /// Taken probability of the conditional branch ending `block`.
    pub fn taken_prob(&self, func: FuncId, block: BlockId) -> f64 {
        match self.branches.get(&(func, block)) {
            Some(&(t, n)) if t + n > 0 => t as f64 / (t + n) as f64,
            _ => 0.5,
        }
    }

    /// Guard pass probability of a statement (1.0 if unguarded/unseen).
    pub fn guard_prob(&self, func: FuncId, sref: StmtRef) -> f64 {
        self.guards
            .get(&(func, sref))
            .map(|g| g.prob())
            .unwrap_or(1.0)
    }

    /// Average dynamic cost (instructions, inclusive of callees) of one
    /// call to `func`, if it was ever called.
    pub fn avg_call_cost(&self, func: FuncId) -> Option<f64> {
        let calls = *self.func_calls.get(&func)?;
        if calls == 0 {
            return None;
        }
        Some(*self.func_instrs.get(&func)? as f64 / calls as f64)
    }
}

/// Flat statement numbering of every function: `starts[f][b]` is the
/// index of block `b`'s first statement within function `f`, and the last
/// element of `starts[f]` is the function's statement count.
pub(crate) fn stmt_numbering(prog: &Program) -> Vec<Vec<usize>> {
    prog.funcs
        .iter()
        .map(|f| {
            let mut next = 0;
            let mut starts: Vec<usize> = f
                .blocks
                .iter()
                .map(|b| {
                    next += b.insts.len();
                    next - b.insts.len()
                })
                .collect();
            starts.push(next);
            starts
        })
        .collect()
}

/// Run the program once, collecting loop statistics and reach
/// probabilities.
///
/// The walk keeps dense per-function, per-loop, per-block and
/// per-statement counters and folds them into the profile's maps once at
/// the end. Inclusive instruction counts (per function on the call stack,
/// per loop on the loop stack) are charged by step stamps: a frame or loop
/// invocation is charged the steps between its entry and its exit, so no
/// step walks either stack.
pub fn profile_program(prog: &Program, max_steps: u64) -> ProgramProfile {
    let mut tracker = LoopContextTracker::new(prog);
    let mut mem = Memory::for_program(prog);
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);

    let n_funcs = prog.funcs.len();
    let mut func_calls = vec![0u64; n_funcs];
    let mut func_instrs = vec![0u64; n_funcs];
    let mut loops = vec![LoopDyn::default(); tracker.n_loops()];
    let stmt_starts = stmt_numbering(prog);
    let mut guards: Vec<Vec<GuardCount>> = stmt_starts
        .iter()
        .map(|starts| vec![GuardCount::default(); starts[starts.len() - 1]])
        .collect();
    let mut branches: Vec<Vec<(u64, u64)>> = prog
        .funcs
        .iter()
        .map(|f| vec![(0, 0); f.blocks.len()])
        .collect();

    // Call stack of (function, steps before its first charged step); a
    // frame is charged for every step up to and including its `ret`.
    let mut fstack: Vec<(FuncId, u64)> = vec![(prog.entry, 0)];
    func_calls[prog.entry.index()] += 1;
    // Active loop invocations, mirroring the tracker's stack, as (dense
    // loop index, steps before its first charged step); an invocation is
    // charged from the step that enters it up to the step before the one
    // that leaves it.
    let mut lstack: Vec<(usize, u64)> = Vec::new();

    let mut steps = 0u64;
    while steps < max_steps {
        let Some(ev) = cur.step(&mut mem) else { break };
        steps += 1;

        if ev.is_call() {
            if let EvKind::Inst { func, sref } = ev.kind {
                if let spt_sir::Op::Call { callee, .. } = &prog.func(func).inst(sref).op {
                    fstack.push((*callee, steps));
                    func_calls[callee.index()] += 1;
                }
            }
        } else if ev.is_ret() {
            if let Some((fid, since)) = fstack.pop() {
                func_instrs[fid.index()] += steps - since;
            }
        }

        let tr = tracker.observe(&ev);
        for _ in &tr.exited {
            let (li, since) = lstack.pop().expect("exit of a tracked loop");
            loops[li].dyn_instrs += steps - 1 - since;
        }
        if let Some(key) = tr.entered {
            let li = tracker.loop_index(key).expect("tracked loop");
            loops[li].invocations += 1;
            lstack.push((li, steps - 1));
        }
        if let Some(key) = tr.iterated {
            loops[tracker.loop_index(key).expect("tracked loop")].iterations += 1;
        }

        match ev.kind {
            EvKind::Inst { func, sref } => {
                if prog.func(func).inst(sref).guard.is_some() {
                    let fi = func.index();
                    let g =
                        &mut guards[fi][stmt_starts[fi][sref.block.index()] + sref.index as usize];
                    if ev.executed {
                        g.pass += 1;
                    } else {
                        g.fail += 1;
                    }
                }
            }
            EvKind::Term { func, block } => {
                if let Some(b) = ev.branch {
                    if b.conditional {
                        let e = &mut branches[func.index()][block.index()];
                        if b.taken {
                            e.0 += 1;
                        } else {
                            e.1 += 1;
                        }
                    }
                }
            }
        }
    }
    for (fid, since) in fstack {
        func_instrs[fid.index()] += steps - since;
    }
    for (li, since) in lstack {
        loops[li].dyn_instrs += steps - since;
    }

    // Fold the dense counters into the profile's maps: an entry exists
    // exactly for what the walk observed.
    let mut p = ProgramProfile {
        total_instrs: steps,
        ret: cur.return_value(),
        out_of_fuel: !cur.is_halted(),
        ..ProgramProfile::default()
    };
    for fid in prog.func_ids() {
        let fi = fid.index();
        if func_calls[fi] > 0 {
            p.func_calls.insert(fid, func_calls[fi]);
        }
        if func_instrs[fi] > 0 {
            p.func_instrs.insert(fid, func_instrs[fi]);
        }
        for (b, &(t, n)) in branches[fi].iter().enumerate() {
            if t + n > 0 {
                p.branches.insert((fid, BlockId(b as u32)), (t, n));
            }
        }
        for (b, blk) in prog.func(fid).blocks.iter().enumerate() {
            for i in 0..blk.insts.len() {
                let g = guards[fi][stmt_starts[fi][b] + i];
                if g.pass + g.fail > 0 {
                    p.guards
                        .insert((fid, StmtRef::new(BlockId(b as u32), i)), g);
                }
            }
        }
        for (l, dynstats) in loops[tracker.loops_of(fid)].iter().enumerate() {
            if dynstats.invocations > 0 {
                let key = LoopKey {
                    func: fid,
                    loop_id: LoopId(l as u32),
                };
                p.loops.insert(key, dynstats.clone());
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::{BinOp, LoopId, ProgramBuilder};

    /// Loop of n iterations with a guarded statement passing ~half the time.
    fn guarded_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.const_reg(n);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(body);
        f.switch_to(body);
        f.addi(i, i, 1);
        let one = f.const_reg(1);
        let parity = f.reg();
        f.bin(BinOp::And, parity, i, one);
        let x = f.reg();
        f.guard_when(parity);
        f.const_(x, 5);
        f.unguard();
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(i));
        let id = f.finish();
        pb.finish(id, 0)
    }

    #[test]
    fn loop_stats_and_coverage() {
        let prog = guarded_loop(100);
        let p = profile_program(&prog, 1_000_000);
        assert!(!p.out_of_fuel);
        assert_eq!(p.loops.len(), 1);
        let (key, l) = p.loops.iter().next().unwrap();
        assert_eq!(l.invocations, 1);
        assert_eq!(l.iterations, 100);
        assert!(
            l.avg_body_size() >= 5.0 && l.avg_body_size() <= 12.0,
            "body size {}",
            l.avg_body_size()
        );
        assert_eq!(l.avg_trip(), 100.0);
        // Nearly all instructions are inside the loop.
        assert!(p.coverage(*key) > 0.9);
    }

    #[test]
    fn guard_probability_measured() {
        let prog = guarded_loop(100);
        let p = profile_program(&prog, 1_000_000);
        let (&(func, sref), g) = p
            .guards
            .iter()
            .next()
            .expect("one guarded statement profiled");
        assert_eq!(g.pass + g.fail, 100);
        // Parity of 1..=100 is 1 for 50 values.
        assert_eq!(g.pass, 50);
        assert!((p.guard_prob(func, sref) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn branch_taken_probability() {
        let prog = guarded_loop(50);
        let p = profile_program(&prog, 1_000_000);
        // The loop branch: 49 taken (continue), 1 not taken.
        let (&(func, block), &(t, n)) = p.branches.iter().next().unwrap();
        assert_eq!(t, 49);
        assert_eq!(n, 1);
        assert!((p.taken_prob(func, block) - 0.98).abs() < 1e-9);
        // Unknown branch defaults to 0.5.
        assert_eq!(p.taken_prob(FuncId(9), BlockId(9)), 0.5);
    }

    #[test]
    fn unknown_loop_coverage_zero() {
        let prog = guarded_loop(10);
        let p = profile_program(&prog, 1_000_000);
        let missing = LoopKey {
            func: FuncId(3),
            loop_id: LoopId(9),
        };
        assert_eq!(p.coverage(missing), 0.0);
    }
}
