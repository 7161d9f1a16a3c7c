//! The steppable interpreter.

use crate::decode::{DecOp, DecodedInst, DecodedProgram, Loc};
use crate::event::EvKind;
use crate::mem::{wrap_addr, MemView};
use crate::step::Step;
use spt_sir::{BlockId, FuncId, Reg};

/// One activation record's control state. Register values live in the
/// cursor's slab (see [`Cursor`]), not in the frame, so frames are plain
/// `Copy` metadata and cloning a call stack never chases per-frame heap
/// allocations.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    pub func: FuncId,
    /// Code index ([`DecodedProgram::inst`]) of the next statement or
    /// terminator this frame executes.
    pub pc: u32,
    /// Where the caller wants this frame's return value.
    pub ret_dst: Option<Reg>,
    /// This frame's register chunk starts at `slab[base]` (stride words,
    /// per the function's [`crate::decode::DecodedFunc::stride`]).
    base: u32,
    /// This frame's dirty mask starts at `dirty[dbase]`.
    dbase: u32,
}

/// The heap buffers of a [`Cursor`], detached from any decoded program's
/// lifetime so a `SimArena` can retain the allocations across runs
/// (DESIGN.md §3i). Contents are meaningless between runs — only the
/// capacities matter; [`Cursor::empty_in`] clears before reuse.
#[derive(Debug, Default)]
pub struct CursorParts {
    frames: Vec<Frame>,
    slab: Vec<i64>,
    dirty: Vec<u64>,
}

impl CursorParts {
    /// Approximate retained heap bytes (arena telemetry).
    pub fn approx_bytes(&self) -> usize {
        self.frames.capacity() * std::mem::size_of::<Frame>()
            + self.slab.capacity() * std::mem::size_of::<i64>()
            + self.dirty.capacity() * std::mem::size_of::<u64>()
    }
}

/// Write register `$r` of the frame with slab base `$base` / dirty base
/// `$dbase`, marking its dirty bit.
macro_rules! write_reg {
    ($self:ident, $base:expr, $dbase:expr, $r:expr, $v:expr) => {{
        let r = $r;
        $self.last_overwritten = $self.slab[$base + r];
        $self.slab[$base + r] = $v;
        $self.dirty[$dbase + (r >> 6)] |= 1u64 << (r & 63);
    }};
}

/// A steppable interpreter with an explicit call stack.
///
/// `step` executes exactly one statement or terminator and describes it as
/// a [`Step`]. Cloning a cursor clones the whole execution context (all
/// frames and register files) — that is precisely the register-context copy
/// the SPT architecture performs at `spt_fork`.
///
/// The cursor runs over a [`DecodedProgram`] — one pre-flattened code
/// array with operands, latency classes, issue facts and branch and callee
/// targets resolved at decode time. Each frame carries a `pc` into that
/// array, so fetching the next instruction is one index (`code[pc]`) and a
/// branch, call or fork sets the `pc` from a decode-time target; stepping
/// never walks the tree form.
///
/// # Register slab
///
/// All register files live in one arena-backed slab: each frame occupies a
/// contiguous chunk of `slab` sized by its function's decode-time stride
/// (`n_regs` rounded up to a power of two, see
/// [`crate::decode::DecodedFunc::stride`]), at the offset recorded in
/// [`Frame`]. Slots past a function's `n_regs` are padding, kept zero so
/// whole-cursor copies stay deterministic. Fork and adopt are therefore
/// three flat memcpys (frames, slab, dirty) instead of a clone per frame,
/// and a `ret` is a pair of truncates.
///
/// # Dirty-word masks
///
/// Alongside the slab, `dirty` holds one mask word group per frame
/// (`dwords` words, bit `r` ↔ register `r`). Every register write sets the
/// bit; nothing else does. Fresh frames start all-dirty (conservative);
/// [`Cursor::clear_dirty_at`] rebases a frame's mask, after which a clear
/// bit proves the register still holds its value from clear time. The SPT
/// machine clears the fork-level mask at each fork, so its value-based
/// register check only has to compare dirty words against the fork-time
/// values its threads capture at first read.
#[derive(Debug)]
pub struct Cursor<'p> {
    dec: &'p DecodedProgram,
    frames: Vec<Frame>,
    /// Register arena: frame `i` at `[frames[i].base, frames[i].base +
    /// stride(frames[i].func))`; chunks are stacked in frame order.
    slab: Vec<i64>,
    /// Per-frame dirty masks, stacked the same way at `frames[i].dbase`.
    dirty: Vec<u64>,
    halted: bool,
    ret_val: Option<i64>,
    /// Value the most recent register write displaced (scratch for the SPT
    /// machine's lazy live-in capture: when one statement both reads and
    /// writes a register, the pre-write value is recovered from here).
    last_overwritten: i64,
    /// Register value the most recent `ret` passed out of its frame
    /// (scratch: a `ret` pops and truncates its frame before the caller of
    /// [`Cursor::step`] can read the operand back).
    last_ret_read: i64,
}

impl<'p> Clone for Cursor<'p> {
    fn clone(&self) -> Self {
        Cursor {
            dec: self.dec,
            frames: self.frames.clone(),
            slab: self.slab.clone(),
            dirty: self.dirty.clone(),
            halted: self.halted,
            ret_val: self.ret_val,
            last_overwritten: self.last_overwritten,
            last_ret_read: self.last_ret_read,
        }
    }

    /// Allocation-reusing clone. Fork/adopt on the SPT hot path clone
    /// cursors millions of times; `Vec::clone_from` turns each of the
    /// three copies into a memcpy into existing capacity.
    fn clone_from(&mut self, src: &Self) {
        self.dec = src.dec;
        self.frames.clone_from(&src.frames);
        self.slab.clone_from(&src.slab);
        self.dirty.clone_from(&src.dirty);
        self.halted = src.halted;
        self.ret_val = src.ret_val;
        self.last_overwritten = src.last_overwritten;
        self.last_ret_read = src.last_ret_read;
    }
}

impl<'p> Cursor<'p> {
    fn empty(dec: &'p DecodedProgram) -> Self {
        Cursor {
            dec,
            frames: Vec::new(),
            slab: Vec::new(),
            dirty: Vec::new(),
            halted: false,
            ret_val: None,
            last_overwritten: 0,
            last_ret_read: 0,
        }
    }

    /// Append a frame at the entry of `func`: a zeroed stride-sized slab
    /// chunk (padding beyond `n_regs` stays deterministically zero) and an
    /// all-dirty mask (conservative until the next
    /// [`Cursor::clear_dirty_at`]).
    fn push_frame(&mut self, func: FuncId) {
        let df = self.dec.func(func);
        let base = self.slab.len() as u32;
        let dbase = self.dirty.len() as u32;
        self.slab.resize(self.slab.len() + df.stride(), 0);
        self.dirty
            .resize(self.dirty.len() + df.dirty_words(), !0u64);
        self.frames.push(Frame {
            func,
            pc: df.entry_pc(),
            ret_dst: None,
            base,
            dbase,
        });
    }

    /// A cursor positioned at the program's entry function.
    pub fn at_entry(dec: &'p DecodedProgram) -> Self {
        Cursor::at_entry_in(dec, CursorParts::default())
    }

    /// [`Cursor::at_entry`] reusing the heap buffers in `parts` — the
    /// arena path (DESIGN.md §3i). The cleared-then-refilled buffers hold
    /// exactly what fresh construction would: `push_frame` zero-fills the
    /// slab chunk and all-ones-fills the dirty words it appends.
    pub fn at_entry_in(dec: &'p DecodedProgram, parts: CursorParts) -> Self {
        let mut cur = Cursor::empty_in(dec, parts);
        cur.push_frame(dec.entry());
        cur
    }

    /// A cursor positioned at an arbitrary function (used by tests and by
    /// loop-region simulation).
    pub fn at_func(dec: &'p DecodedProgram, func: FuncId, args: &[i64]) -> Self {
        let n_params = dec.func(func).n_params() as usize;
        let mut cur = Cursor::empty(dec);
        cur.push_frame(func);
        for (i, &a) in args.iter().enumerate().take(n_params) {
            cur.slab[i] = a;
        }
        cur
    }

    /// A frameless cursor over `dec` reusing `parts`' allocations. Callers
    /// must position it (`push_frame` via the `at_*` constructors, or
    /// [`Cursor::fork_speculative_into`], which overwrites every field)
    /// before stepping it.
    pub fn empty_in(dec: &'p DecodedProgram, mut parts: CursorParts) -> Self {
        parts.frames.clear();
        parts.slab.clear();
        parts.dirty.clear();
        Cursor {
            dec,
            frames: parts.frames,
            slab: parts.slab,
            dirty: parts.dirty,
            halted: false,
            ret_val: None,
            last_overwritten: 0,
            last_ret_read: 0,
        }
    }

    /// Detach this cursor's heap buffers for cross-run reuse. Contents are
    /// dead once detached — only the allocations are retained.
    pub fn into_parts(self) -> CursorParts {
        CursorParts {
            frames: self.frames,
            slab: self.slab,
            dirty: self.dirty,
        }
    }

    /// The decoded program this cursor executes.
    pub fn decoded(&self) -> &'p DecodedProgram {
        self.dec
    }

    /// Clone this execution context and reposition the top frame at `start`
    /// — the hardware fork: copy the register context, begin at the
    /// start-point.
    pub fn fork_speculative(&self, start: BlockId) -> Cursor<'p> {
        let mut c = self.clone();
        c.repoint(start);
        c
    }

    /// [`Cursor::fork_speculative`] into an existing cursor, reusing its
    /// frame, slab and dirty-mask allocations.
    pub fn fork_speculative_into(&self, start: BlockId, dst: &mut Cursor<'p>) {
        dst.clone_from(self);
        dst.repoint(start);
    }

    fn repoint(&mut self, start: BlockId) {
        let top = self.frames.last_mut().expect("fork from live cursor");
        top.pc = self.dec.func(top.func).block_pc(start);
        self.halted = false;
        self.ret_val = None;
    }

    /// Replace this cursor's execution context with `other`'s (the commit of
    /// a speculative thread: the speculative register context becomes
    /// architectural). Dirty masks transfer with the registers.
    pub fn adopt(&mut self, other: &Cursor<'p>) {
        self.frames.clone_from(&other.frames);
        self.slab.clone_from(&other.slab);
        self.dirty.clone_from(&other.dirty);
        self.halted = other.halted;
        self.ret_val = other.ret_val;
    }

    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Value displaced by the most recent register write. Lets a caller
    /// recover the pre-write value of a register that one statement both
    /// read and wrote — the SPT machine's lazy live-in capture needs
    /// exactly that.
    #[inline]
    pub fn last_overwritten(&self) -> i64 {
        self.last_overwritten
    }

    /// Operand value of the most recent value-carrying `ret`. The `ret`
    /// pops and truncates its frame before [`Cursor::step`] returns, so
    /// this is the only way to read that operand back afterwards.
    #[inline]
    pub fn last_ret_read(&self) -> i64 {
        self.last_ret_read
    }

    /// The entry function's return value once halted.
    pub fn return_value(&self) -> Option<i64> {
        self.ret_val
    }

    #[inline]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    pub fn top(&self) -> &Frame {
        self.frames.last().expect("live cursor has a frame")
    }

    /// Registers of the innermost frame: the full stride-sized slab chunk
    /// (padding included, always zero).
    #[inline]
    pub fn top_regs(&self) -> &[i64] {
        let fr = self.top();
        let base = fr.base as usize;
        &self.slab[base..base + self.dec.func(fr.func).stride()]
    }

    /// Register file of the frame at `level` (0 = outermost), `n_regs`
    /// long.
    pub fn regs_at(&self, level: usize) -> &[i64] {
        let fr = &self.frames[level];
        let n = self.dec.func(fr.func).n_regs() as usize;
        let base = fr.base as usize;
        &self.slab[base..base + n]
    }

    /// Dirty-word mask of the frame at `level`: bit `r` set means register
    /// `r` may have been written since the last [`Cursor::clear_dirty_at`]
    /// on that frame (fresh frames start all-dirty). A clear bit proves
    /// the register value is unchanged since the clear — the contrapositive
    /// the SPT value-based register check uses to skip clean words.
    #[inline]
    pub fn dirty_words_at(&self, level: usize) -> &[u64] {
        let fr = &self.frames[level];
        let dbase = fr.dbase as usize;
        &self.dirty[dbase..dbase + self.dec.func(fr.func).dirty_words()]
    }

    /// Rebase the dirty mask of the frame at `level` to all-clean. The SPT
    /// machine calls this at fork time on the parent's fork-level frame, so
    /// the mask accumulates exactly the writes since the fork — the
    /// reference point for the fork-time values its threads capture lazily.
    #[inline]
    pub fn clear_dirty_at(&mut self, level: usize) {
        let fr = &self.frames[level];
        let dbase = fr.dbase as usize;
        self.dirty[dbase..dbase + self.dec.func(fr.func).dirty_words()].fill(0);
    }

    /// Blend `src`'s frame-`level` registers into this cursor's same frame:
    /// every register whose bit is **not** set in `keep_words` (a bitset in
    /// [`crate::decode`]-independent `u64` words, bit `r` ↔ register `r`)
    /// takes `src`'s value; kept registers stay. Dirty bits are set only
    /// for registers whose value actually changes. This is the fast-commit
    /// register merge: the committing speculative cursor keeps its
    /// spec-written registers and takes the main thread's values elsewhere,
    /// then the main cursor adopts it wholesale — same result as
    /// adopt-then-restore, without the per-commit register snapshot.
    pub fn merge_frame_from(&mut self, src: &Cursor<'p>, level: usize, keep_words: &[u64]) {
        let fr = self.frames[level];
        debug_assert_eq!(fr.func, src.frames[level].func);
        debug_assert_eq!(fr.base, src.frames[level].base);
        let df = self.dec.func(fr.func);
        let (stride, dwords) = (df.stride(), df.dirty_words());
        let (base, dbase) = (fr.base as usize, fr.dbase as usize);
        for wi in 0..dwords {
            // Mask off padding bits so the loop never touches slots past
            // the stride (padding is zero on both sides anyway).
            let valid = if stride >= (wi + 1) * 64 {
                !0u64
            } else {
                (1u64 << (stride & 63)) - 1
            };
            let mut take = !keep_words.get(wi).copied().unwrap_or(0) & valid;
            while take != 0 {
                let b = take.trailing_zeros() as usize;
                take &= take - 1;
                let r = wi * 64 + b;
                let v = src.slab[base + r];
                if self.slab[base + r] != v {
                    self.slab[base + r] = v;
                    self.dirty[dbase + wi] |= 1u64 << b;
                }
            }
        }
    }

    /// Code index of the instruction `step` executes next (`None` once
    /// halted).
    #[inline]
    pub fn pc(&self) -> Option<u32> {
        if self.halted {
            return None;
        }
        self.frames.last().map(|fr| fr.pc)
    }

    /// Whether the cursor's next instruction is the one at code index
    /// `pc`: one compare. The SPT scheduler asks this once per
    /// main-pipeline step (arrival at a start-point) and once per replayed
    /// SRB entry (control divergence).
    #[inline(always)]
    pub fn at_pc(&self, pc: u32) -> bool {
        !self.halted && self.frames.last().is_some_and(|fr| fr.pc == pc)
    }

    /// The instruction `step` executes next.
    #[inline]
    pub fn next_inst(&self) -> Option<&'p DecodedInst> {
        self.pc().map(|pc| self.dec.inst(pc))
    }

    /// Static position of the next instruction.
    #[inline]
    pub fn loc(&self) -> Option<Loc> {
        self.next_inst().map(|i| i.loc)
    }

    /// Current static position: the event kind `step` would produce next.
    #[inline]
    pub fn position(&self) -> Option<EvKind> {
        self.next_inst().map(|i| i.pos())
    }

    /// Execute one statement or terminator and describe it as a [`Step`].
    /// Returns `None` once halted.
    ///
    /// Generic over the memory view so each concrete view (architectural
    /// [`crate::Memory`], the SPT store-buffer view) gets a monomorphic
    /// copy with its loads and stores inlined — the per-step virtual
    /// dispatch was measurable on the simulator hot path. Always inlined:
    /// the callers' hot loops only shed the record's unused fields once
    /// it is built in place.
    #[inline(always)]
    pub fn step<M: MemView + ?Sized>(&mut self, mem: &mut M) -> Option<Step<'p>> {
        if self.halted {
            return None;
        }
        let dec = self.dec;
        let depth = (self.frames.len() - 1) as u32;
        let fr = self.frames.last_mut().expect("live cursor has a frame");
        let (base, dbase) = (fr.base as usize, fr.dbase as usize);
        let inst = dec.inst(fr.pc);
        fr.pc += 1;
        let mut st = Step::new(inst, depth);

        // Guard evaluation.
        if let Some(g) = inst.guard {
            if !g.passes(self.slab[base + g.reg.index()]) {
                st.executed = false;
                return Some(st);
            }
        }

        match inst.op {
            DecOp::Const { dst, imm } => {
                write_reg!(self, base, dbase, dst.index(), imm);
                st.val = imm;
            }
            DecOp::Un { op, dst, src } => {
                let v = op.eval(self.slab[base + src.index()]);
                write_reg!(self, base, dbase, dst.index(), v);
                st.val = v;
            }
            DecOp::Bin { op, dst, a, b } => {
                let v = op.eval(self.slab[base + a.index()], self.slab[base + b.index()]);
                write_reg!(self, base, dbase, dst.index(), v);
                st.val = v;
            }
            DecOp::Load { dst, base: b, off } => {
                let addr = wrap_addr(self.slab[base + b.index()].wrapping_add(off), mem.words());
                let v = mem.load(addr);
                write_reg!(self, base, dbase, dst.index(), v);
                st.val = v;
                st.addr = Some(addr);
            }
            DecOp::Store { src, base: b, off } => {
                let addr = wrap_addr(self.slab[base + b.index()].wrapping_add(off), mem.words());
                let v = self.slab[base + src.index()];
                mem.store(addr, v);
                st.val = v;
                st.addr = Some(addr);
            }
            DecOp::Call { callee, args, ret } => {
                let cf = dec.func(callee);
                let (args, stride) = (dec.operands(args), cf.stride());
                // New frame: zeroed callee-stride chunk, args copied
                // across the split, all-dirty mask.
                let new_base = self.slab.len();
                let new_dbase = self.dirty.len();
                self.slab.resize(new_base + stride, 0);
                let (lo, hi) = self.slab.split_at_mut(new_base);
                for (i, a) in args.iter().enumerate() {
                    hi[i] = lo[base + a.index()];
                }
                self.dirty.resize(new_dbase + cf.dirty_words(), !0u64);
                self.frames.push(Frame {
                    func: callee,
                    pc: cf.entry_pc(),
                    ret_dst: ret,
                    base: new_base as u32,
                    dbase: new_dbase as u32,
                });
            }
            DecOp::SptFork { .. } | DecOp::SptKill | DecOp::Nop { .. } => {}
            DecOp::Jmp { target_pc, .. } => fr.pc = target_pc,
            DecOp::Br {
                cond,
                taken_pc,
                not_taken_pc,
                ..
            } => {
                let is_taken = self.slab[base + cond.index()] != 0;
                fr.pc = if is_taken { taken_pc } else { not_taken_pc };
                st.taken = is_taken;
            }
            DecOp::Ret { val } => {
                let v = val.map(|r| self.slab[base + r.index()]);
                if let Some(v) = v {
                    // The pop below truncates this frame out of the
                    // slab; preserve the operand for post-step readers.
                    self.last_ret_read = v;
                }
                let ret_dst = fr.ret_dst;
                self.frames.pop();
                self.slab.truncate(base);
                self.dirty.truncate(dbase);
                if let Some(caller) = self.frames.last() {
                    if let (Some(dst), Some(v)) = (ret_dst, v) {
                        let (cbase, cdbase) = (caller.base as usize, caller.dbase as usize);
                        write_reg!(self, cbase, cdbase, dst.index(), v);
                        st.set_ret_dst(dst);
                        st.val = v;
                    }
                } else {
                    self.halted = true;
                    self.ret_val = v;
                }
            }
        }
        Some(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Memory;
    use spt_sir::{BinOp, Program, ProgramBuilder, StmtRef};

    fn sum_loop_program() -> Program {
        // sum = Σ i for i = 1..=5, stored to mem[0]
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let sum = f.reg();
        let n = f.reg();
        let base = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(sum, 0);
        f.const_(n, 5);
        f.const_(base, 0);
        f.jmp(body);
        f.switch_to(body);
        f.addi(i, i, 1);
        f.bin(BinOp::Add, sum, sum, i);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, n);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.store(sum, base, 0);
        f.ret(Some(sum));
        let id = f.finish();
        pb.finish(id, 4)
    }

    fn run_to_halt(prog: &Program) -> (Memory, Option<i64>, usize) {
        let mut mem = Memory::for_program(prog);
        let dec = DecodedProgram::new(prog);
        let mut cur = Cursor::at_entry(&dec);
        let mut steps = 0;
        while cur.step(&mut mem).is_some() {
            steps += 1;
            assert!(steps < 100_000, "runaway program");
        }
        let rv = cur.return_value();
        (mem, rv, steps)
    }

    #[test]
    fn sum_loop_computes_15() {
        let prog = sum_loop_program();
        prog.verify().unwrap();
        let (mem, rv, _) = run_to_halt(&prog);
        assert_eq!(rv, Some(15));
        assert_eq!(mem.peek(0), 15);
    }

    #[test]
    fn events_report_branch_outcomes() {
        let prog = sum_loop_program();
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let mut taken = 0;
        let mut not_taken = 0;
        while let Some(ev) = cur.step(&mut mem) {
            if let Some(b) = ev.branch() {
                if b.conditional {
                    if b.taken {
                        taken += 1;
                    } else {
                        not_taken += 1;
                    }
                }
            }
        }
        assert_eq!(taken, 4); // back edges for i=1..4
        assert_eq!(not_taken, 1); // exit
    }

    #[test]
    fn call_and_return_value_flow() {
        let mut pb = ProgramBuilder::new();
        let sq = pb.declare("square", 1);
        let mut f = pb.func("main", 0);
        let a = f.const_reg(6);
        let r = f.reg();
        f.call(sq, &[a], Some(r));
        f.ret(Some(r));
        let main = f.finish();
        let mut g = pb.build(sq);
        let p0 = g.param(0);
        let out = g.reg();
        g.bin(BinOp::Mul, out, p0, p0);
        g.ret(Some(out));
        g.finish();
        let prog = pb.finish(main, 0);
        prog.verify().unwrap();
        let (_, rv, _) = run_to_halt(&prog);
        assert_eq!(rv, Some(36));
    }

    #[test]
    fn call_events_change_depth() {
        let mut pb = ProgramBuilder::new();
        let id_fn = pb.declare("id", 1);
        let mut f = pb.func("main", 0);
        let a = f.const_reg(3);
        let r = f.reg();
        f.call(id_fn, &[a], Some(r));
        f.ret(Some(r));
        let main = f.finish();
        let mut g = pb.build(id_fn);
        let p0 = g.param(0);
        g.ret(Some(p0));
        g.finish();
        let prog = pb.finish(main, 0);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let mut max_depth = 0;
        while let Some(ev) = cur.step(&mut mem) {
            max_depth = max_depth.max(ev.depth);
        }
        assert_eq!(max_depth, 1);
        assert_eq!(cur.return_value(), Some(3));
    }

    #[test]
    fn guard_false_suppresses_effect() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("g", 0);
        let p = f.reg();
        let x = f.reg();
        f.const_(p, 0);
        f.const_(x, 1);
        f.guard_when(p);
        f.const_(x, 99);
        f.unguard();
        f.ret(Some(x));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let mut mem = Memory::new(1);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let mut suppressed = 0;
        while let Some(ev) = cur.step(&mut mem) {
            if !ev.executed {
                suppressed += 1;
                assert_eq!(ev.dst(), None);
            }
        }
        assert_eq!(suppressed, 1);
        assert_eq!(cur.return_value(), Some(1));
    }

    #[test]
    fn fork_speculative_copies_context() {
        let prog = sum_loop_program();
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        // Execute the 4 consts + jmp (5 steps: 4 insts include addi's const..)
        for _ in 0..4 {
            cur.step(&mut mem);
        }
        let spec = cur.fork_speculative(BlockId(1));
        let at = spec.loc().unwrap();
        assert_eq!((at.block, at.idx), (BlockId(1), 0));
        assert_eq!(spec.pc(), Some(dec.func(at.func).block_pc(BlockId(1))));
        assert_eq!(spec.top_regs(), cur.top_regs());
        assert!(!spec.is_halted());
    }

    #[test]
    fn fork_into_reuses_and_matches_fork() {
        let prog = sum_loop_program();
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        for _ in 0..4 {
            cur.step(&mut mem);
        }
        let fresh = cur.fork_speculative(BlockId(1));
        // Recycle a dead cursor from elsewhere in the program's execution.
        let mut recycled = Cursor::at_entry(&dec);
        recycled.step(&mut mem);
        cur.fork_speculative_into(BlockId(1), &mut recycled);
        assert_eq!(recycled.position(), fresh.position());
        assert_eq!(recycled.top_regs(), fresh.top_regs());
        assert_eq!(recycled.depth(), fresh.depth());
        assert!(!recycled.is_halted());
    }

    #[test]
    fn adopt_transfers_state() {
        let prog = sum_loop_program();
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut a = Cursor::at_entry(&dec);
        let mut b = Cursor::at_entry(&dec);
        for _ in 0..6 {
            b.step(&mut mem);
        }
        a.adopt(&b);
        assert_eq!(a.position(), b.position());
        assert_eq!(a.top_regs(), b.top_regs());
    }

    #[test]
    fn position_tracks_next_step() {
        let prog = sum_loop_program();
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let pos = cur.position().unwrap();
        assert!(matches!(pos, EvKind::Inst { sref, .. } if sref == StmtRef::new(BlockId(0), 0)));
        // Step through all four consts; next is the jmp terminator.
        for _ in 0..4 {
            cur.step(&mut mem);
        }
        assert!(
            matches!(cur.position().unwrap(), EvKind::Term { block, .. } if block == BlockId(0))
        );
    }

    #[test]
    fn fork_and_kill_are_reported() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("m", 0);
        let b1 = f.new_block();
        f.spt_fork(b1);
        f.spt_kill();
        f.jmp(b1);
        f.switch_to(b1);
        f.ret(None);
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let mut mem = Memory::new(1);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let e1 = cur.step(&mut mem).unwrap();
        assert_eq!(e1.fork(), Some(BlockId(1)));
        let e2 = cur.step(&mut mem).unwrap();
        assert!(e2.kill());
    }

    #[test]
    fn load_store_events_carry_addresses() {
        let mut pb = ProgramBuilder::new();
        pb.datum(2, 77);
        let mut f = pb.func("m", 0);
        let base = f.const_reg(2);
        let v = f.reg();
        f.load(v, base, 0);
        f.store(v, base, 1);
        f.ret(Some(v));
        let id = f.finish();
        let prog = pb.finish(id, 8);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let mut seen = vec![];
        while let Some(ev) = cur.step(&mut mem) {
            if let Some(m) = ev.mem() {
                seen.push((m.addr, m.is_store, m.value));
            }
        }
        assert_eq!(seen, vec![(2, false, 77), (3, true, 77)]);
        assert_eq!(mem.peek(3), 77);
    }

    #[test]
    fn negative_addresses_wrap() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("m", 0);
        let base = f.const_reg(-1);
        let v = f.const_reg(5);
        f.store(v, base, 0);
        f.ret(None);
        let id = f.finish();
        let prog = pb.finish(id, 8);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        while cur.step(&mut mem).is_some() {}
        assert_eq!(mem.peek(7), 5);
    }

    #[test]
    fn dirty_mask_set_on_writes_cleared_explicitly() {
        let prog = sum_loop_program();
        let dec = DecodedProgram::new(&prog);
        // 5 regs → stride 8 (next power of two), one mask word.
        assert_eq!(dec.frame_stride(), 8);
        assert_eq!(dec.dirty_words_per_frame(), 1);
        let mut mem = Memory::for_program(&prog);
        let mut cur = Cursor::at_entry(&dec);
        // Fresh frames are conservatively all-dirty.
        assert_eq!(cur.dirty_words_at(0), &[!0u64]);
        cur.clear_dirty_at(0);
        assert_eq!(cur.dirty_words_at(0), &[0]);
        cur.step(&mut mem); // const i   (reg 0)
        assert_eq!(cur.dirty_words_at(0), &[0b1]);
        cur.step(&mut mem); // const sum (reg 1)
        assert_eq!(cur.dirty_words_at(0), &[0b11]);
    }

    #[test]
    fn ret_write_marks_caller_dirty() {
        // main: a = 6 (reg 0); r = square(a) (reg 1); the Ret-driven write
        // of r must mark the caller frame dirty even after a clear.
        let mut pb = ProgramBuilder::new();
        let sq = pb.declare("square", 1);
        let mut f = pb.func("main", 0);
        let a = f.const_reg(6);
        let r = f.reg();
        f.call(sq, &[a], Some(r));
        f.ret(Some(r));
        let main = f.finish();
        let mut g = pb.build(sq);
        let p0 = g.param(0);
        let out = g.reg();
        g.bin(BinOp::Mul, out, p0, p0);
        g.ret(Some(out));
        g.finish();
        let prog = pb.finish(main, 0);
        let mut mem = Memory::new(1);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        while cur.depth() < 2 {
            cur.step(&mut mem);
        }
        cur.clear_dirty_at(0);
        while cur.depth() > 1 {
            cur.step(&mut mem);
        }
        // Back in main: only r (reg 1) was written at level 0.
        assert_eq!(cur.dirty_words_at(0), &[0b10]);
        assert_eq!(cur.regs_at(0)[1], 36);
    }

    #[test]
    fn clone_from_overwrites_stale_dirty_masks() {
        let prog = sum_loop_program();
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        for _ in 0..4 {
            cur.step(&mut mem);
        }
        cur.clear_dirty_at(0);
        // Recycle a cursor whose mask is all-dirty; fork_into must copy
        // the source's clean mask over it, not merge.
        let mut recycled = Cursor::at_entry(&dec);
        recycled.step(&mut mem);
        assert_eq!(recycled.dirty_words_at(0), &[!0u64]);
        cur.fork_speculative_into(BlockId(1), &mut recycled);
        assert_eq!(recycled.dirty_words_at(0), &[0]);
        // Adopt copies masks the same way.
        let mut other = Cursor::at_entry(&dec);
        other.adopt(&cur);
        assert_eq!(other.dirty_words_at(0), &[0]);
    }

    #[test]
    fn merge_frame_from_blends_and_marks_changes() {
        let prog = sum_loop_program();
        let dec = DecodedProgram::new(&prog);
        let mut mem = Memory::for_program(&prog);
        let mut a = Cursor::at_entry(&dec);
        let mut b = Cursor::at_entry(&dec);
        // b: i=0, sum=0, n=5, base=0, c=0 after the consts — only n (reg 2)
        // differs from a's all-zero frame.
        for _ in 0..3 {
            b.step(&mut mem);
        }
        a.clear_dirty_at(0);
        // Keeping reg 2 suppresses the only differing register: no value
        // changes, so no dirty bits.
        a.merge_frame_from(&b, 0, &[0b100]);
        assert_eq!(a.dirty_words_at(0), &[0]);
        assert_eq!(a.regs_at(0)[2], 0);
        // Keeping nothing takes n=5 and dirties exactly that register.
        a.merge_frame_from(&b, 0, &[0]);
        assert_eq!(a.regs_at(0)[2], 5);
        assert_eq!(a.dirty_words_at(0), &[0b100]);
        // Merging again is idempotent: values already equal, mask clear.
        a.clear_dirty_at(0);
        a.merge_frame_from(&b, 0, &[]);
        assert_eq!(a.dirty_words_at(0), &[0]);
    }

    #[test]
    fn call_reuses_slab_slot_with_zero_padding() {
        // call → ret → call: the second callee frame lands on the same
        // slab chunk the first one used; its padding and registers must be
        // re-zeroed, not inherited.
        let mut pb = ProgramBuilder::new();
        let one = pb.declare("one", 0);
        let zero = pb.declare("zero", 0);
        let mut f = pb.func("main", 0);
        let r1 = f.reg();
        let r2 = f.reg();
        f.call(one, &[], Some(r1));
        f.call(zero, &[], Some(r2));
        f.ret(Some(r2));
        let main = f.finish();
        let mut g = pb.build(one);
        let v = g.const_reg(41);
        g.ret(Some(v));
        g.finish();
        let mut h = pb.build(zero);
        let w = h.reg(); // never written: must read as 0, not 41
        h.ret(Some(w));
        h.finish();
        let prog = pb.finish(main, 0);
        prog.verify().unwrap();
        let (_, rv, _) = run_to_halt(&prog);
        assert_eq!(rv, Some(0));
    }
}
