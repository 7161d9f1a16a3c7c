//! Tracking which loops are active during interpretation.

use spt_interp::Step;
use spt_sir::{analyze_loops, FuncId, LoopForest, LoopId, Program};
use std::ops::Range;

/// Identifies a static loop across the whole program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopKey {
    pub func: FuncId,
    pub loop_id: LoopId,
}

/// One active loop execution.
#[derive(Clone, Debug)]
pub struct ActiveLoop {
    pub key: LoopKey,
    /// Frame depth at which the loop executes.
    pub depth: u32,
    /// Iterations observed in this invocation so far.
    pub iters: u64,
}

/// Maintains the stack of active loops (across nesting and calls) from the
/// step stream, and reports loop entry / iteration / exit transitions.
pub struct LoopContextTracker {
    /// Per-function loop tables, indexed by `FuncId`.
    funcs: Vec<FuncLoops>,
    /// Loops in the whole program (the range of [`Self::loop_index`]).
    n_loops: usize,
    stack: Vec<ActiveLoop>,
    /// Frame depth of the previous step.
    last_depth: u32,
}

/// One function's loops, with per-block tables so observing a step is
/// plain indexing.
struct FuncLoops {
    forest: LoopForest,
    /// `header_of[b]`: the loop whose header is block `b`, if any.
    header_of: Vec<Option<LoopId>>,
    /// Dense index of this function's first loop.
    first_loop: usize,
}

/// What a single step did to the loop context.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopTransition {
    /// Loops exited by this step (innermost first).
    pub exited: Vec<(LoopKey, u64)>,
    /// Loop entered by this step.
    pub entered: Option<LoopKey>,
    /// Loop that began a new iteration (incl. the first on entry).
    pub iterated: Option<LoopKey>,
}

impl LoopContextTracker {
    pub fn new(prog: &Program) -> Self {
        let mut funcs = Vec::with_capacity(prog.funcs.len());
        let mut n_loops = 0;
        for fid in prog.func_ids() {
            let f = prog.func(fid);
            let (_, _, forest) = analyze_loops(f);
            let mut header_of = vec![None; f.blocks.len()];
            for l in &forest.loops {
                header_of[l.header.index()] = Some(l.id);
            }
            let first_loop = n_loops;
            n_loops += forest.loops.len();
            funcs.push(FuncLoops {
                forest,
                header_of,
                first_loop,
            });
        }
        LoopContextTracker {
            funcs,
            n_loops,
            stack: Vec::new(),
            last_depth: u32::MAX,
        }
    }

    /// Number of loops in the program: dense per-loop tables indexed by
    /// [`Self::loop_index`] have this length.
    pub(crate) fn n_loops(&self) -> usize {
        self.n_loops
    }

    /// The dense indices of `func`'s loops, in `LoopId` order.
    pub(crate) fn loops_of(&self, func: FuncId) -> Range<usize> {
        let fl = &self.funcs[func.index()];
        fl.first_loop..fl.first_loop + fl.forest.loops.len()
    }

    /// Dense index in `0..n_loops()` of a loop of the program, `None` for
    /// a key naming no loop of it.
    pub(crate) fn loop_index(&self, key: LoopKey) -> Option<usize> {
        let fl = self.funcs.get(key.func.index())?;
        (key.loop_id.index() < fl.forest.loops.len()).then(|| fl.first_loop + key.loop_id.index())
    }

    /// The innermost active loop, if any.
    pub fn current(&self) -> Option<&ActiveLoop> {
        self.stack.last()
    }

    /// All active loops, outermost first.
    pub fn active(&self) -> &[ActiveLoop] {
        &self.stack
    }

    /// Feed one step; returns the loop transitions it caused. Steps must
    /// arrive in execution order, every one of them: the tracker infers
    /// block continuity from the previous step.
    #[inline(always)]
    pub fn observe(&mut self, ev: &Step) -> LoopTransition {
        let mut tr = LoopTransition::default();
        // A step past a block's first position (statement or terminator),
        // in the same frame as the previous step, continues that step's
        // block: it can neither leave a loop nor begin an iteration.
        let loc = ev.loc();
        let same_frame = std::mem::replace(&mut self.last_depth, ev.depth) == ev.depth;
        if same_frame && loc.idx > 0 {
            return tr;
        }
        let (func, block) = (loc.func, loc.block);

        // Exits: shallower frame, or same frame outside the loop's blocks.
        while let Some(top) = self.stack.last() {
            let l = self.funcs[top.key.func.index()].forest.get(top.key.loop_id);
            let exited = ev.depth < top.depth
                || (ev.depth == top.depth && (func != top.key.func || !l.contains(block)));
            if exited {
                let t = self.stack.pop().expect("non-empty");
                tr.exited.push((t.key, t.iters));
            } else {
                break;
            }
        }

        // Entry / iteration at a header's first position: its first
        // statement, or the terminator of an empty header.
        if loc.idx == 0 {
            if let Some(lid) = self.funcs[func.index()].header_of[block.index()] {
                let key = LoopKey { func, loop_id: lid };
                match self.stack.last_mut() {
                    Some(top) if top.key == key && top.depth == ev.depth => {
                        top.iters += 1;
                        tr.iterated = Some(key);
                    }
                    _ => {
                        self.stack.push(ActiveLoop {
                            key,
                            depth: ev.depth,
                            iters: 1,
                        });
                        tr.entered = Some(key);
                        tr.iterated = Some(key);
                    }
                }
            }
        }
        tr
    }

    /// Pop everything (end of program), reporting final exits.
    pub fn finish(&mut self) -> Vec<(LoopKey, u64)> {
        let mut out = Vec::new();
        while let Some(t) = self.stack.pop() {
            out.push((t.key, t.iters));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_interp::{Cursor, DecodedProgram, Memory};
    use spt_sir::{BinOp, ProgramBuilder};

    fn counted_loop(n: i64) -> Program {
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
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(i));
        let id = f.finish();
        pb.finish(id, 0)
    }

    fn drive(prog: &Program) -> (u64, Vec<(LoopKey, u64)>) {
        let mut tracker = LoopContextTracker::new(prog);
        let mut mem = Memory::for_program(prog);
        let dec = DecodedProgram::new(prog);
        let mut cur = Cursor::at_entry(&dec);
        let mut iters = 0;
        let mut exits = Vec::new();
        while let Some(ev) = cur.step(&mut mem) {
            let tr = tracker.observe(&ev);
            if tr.iterated.is_some() {
                iters += 1;
            }
            exits.extend(tr.exited);
        }
        exits.extend(tracker.finish());
        (iters, exits)
    }

    #[test]
    fn counts_iterations_of_counted_loop() {
        let prog = counted_loop(7);
        let (iters, exits) = drive(&prog);
        assert_eq!(iters, 7);
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].1, 7);
    }

    #[test]
    fn single_iteration_loop() {
        let prog = counted_loop(1);
        let (iters, exits) = drive(&prog);
        assert_eq!(iters, 1);
        assert_eq!(exits[0].1, 1);
    }

    #[test]
    fn nested_loops_tracked_independently() {
        // outer 3 iterations x inner 4 iterations.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let j = f.reg();
        let ni = f.const_reg(3);
        let nj = f.const_reg(4);
        let outer = f.new_block();
        let inner = f.new_block();
        let tail = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(outer);
        f.switch_to(outer);
        f.const_(j, 0);
        f.jmp(inner);
        f.switch_to(inner);
        f.addi(j, j, 1);
        let cj = f.reg();
        f.bin(BinOp::CmpLt, cj, j, nj);
        f.br(cj, inner, tail);
        f.switch_to(tail);
        f.addi(i, i, 1);
        let ci = f.reg();
        f.bin(BinOp::CmpLt, ci, i, ni);
        f.br(ci, outer, exit);
        f.switch_to(exit);
        f.ret(None);
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (iters, exits) = drive(&prog);
        // outer: 3 iterations; inner: 3 invocations x 4 iterations = 12.
        assert_eq!(iters, 3 + 12);
        // inner exits 3 times with 4 iters each, outer once with 3.
        let mut inner_exits = 0;
        let mut outer_exit = 0;
        for (_, n) in exits {
            if n == 4 {
                inner_exits += 1;
            } else if n == 3 {
                outer_exit += 1;
            }
        }
        assert_eq!(inner_exits, 3);
        assert_eq!(outer_exit, 1);
    }

    #[test]
    fn loop_with_call_keeps_context() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare("leaf", 1);
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.const_reg(5);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(body);
        f.switch_to(body);
        let r = f.reg();
        f.call(leaf, &[i], Some(r));
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        let mut g = pb.build(leaf);
        let p = g.param(0);
        let out = g.reg();
        g.bin(BinOp::Mul, out, p, p);
        g.ret(Some(out));
        g.finish();
        let prog = pb.finish(main, 0);
        let mut tracker = LoopContextTracker::new(&prog);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let mut deepest_in_loop = 0u32;
        while let Some(ev) = cur.step(&mut mem) {
            tracker.observe(&ev);
            if tracker.current().is_some() {
                deepest_in_loop = deepest_in_loop.max(ev.depth);
            }
        }
        // Callee instructions (depth 1) executed under the loop context.
        assert_eq!(deepest_in_loop, 1);
    }
}
