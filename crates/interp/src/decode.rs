//! Pre-decoded instruction streams.
//!
//! [`DecodedProgram`] flattens the whole program into **one** contiguous
//! array of [`DecodedInst`] — function after function, each block's
//! statements followed by its terminator — so a code position is a single
//! global index, the `pc` a cursor frame carries. Everything the hot loops
//! need is resolved ahead of time:
//!
//! * each function is a range of that array plus a range of the
//!   program-wide block-start table, so fetching the next instruction is
//!   one index and a branch or call sets the `pc` from a target resolved
//!   at decode time;
//! * an instruction's issue facts (destination, store/return/fork/kill/
//!   conditional-branch flags, extra issue slots) are computed once here,
//!   so a [`crate::Step`] reads a field instead of re-matching [`DecOp`];
//! * operand registers (sources *plus* guard, in dependence-analysis
//!   order) live in one program-wide operand pool and are exposed as
//!   slices — no `Vec` allocation per lookup, unlike
//!   [`spt_sir::Inst::srcs`];
//! * latency classes, positions and the issue model's timing operands are
//!   pre-computed per statement, so a [`crate::Step`] can refer to them
//!   instead of copying them;
//! * a call reads its callee's entry `pc` and frame stride from the
//!   callee's one [`DecodedFunc`] record, so the call payload stays small
//!   and every [`DecodedInst`] stays at 80 bytes.
//!
//! Decoding is a pure function of the program: one pass over the static
//! code, amortized over millions of interpreted steps. The decoded form
//! never changes execution semantics (the original tree form remains the
//! source of truth for compilation and display).

use crate::event::{EvKind, SrcSet};
use spt_sir::{BinOp, BlockId, FuncId, Guard, Inst, LatClass, Op, Program, Reg, StmtRef, UnOp};

/// Range into the program's operand pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpRange {
    start: u32,
    len: u16,
}

impl OpRange {
    fn push(pool: &mut Vec<Reg>, regs: impl IntoIterator<Item = Reg>) -> OpRange {
        let start = pool.len() as u32;
        pool.extend(regs);
        OpRange {
            start,
            len: (pool.len() - start as usize) as u16,
        }
    }

    #[inline]
    fn slice<'a>(&self, pool: &'a [Reg]) -> &'a [Reg] {
        &pool[self.start as usize..self.start as usize + self.len as usize]
    }
}

/// Decoded operation payload. Mirrors [`Op`] but is `Copy`: call argument
/// lists live in the operand pool, and branch targets are pre-resolved to
/// code indices.
#[derive(Clone, Copy, Debug)]
pub enum DecOp {
    Const {
        dst: Reg,
        imm: i64,
    },
    Un {
        op: UnOp,
        dst: Reg,
        src: Reg,
    },
    Bin {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Load {
        dst: Reg,
        base: Reg,
        off: i64,
    },
    Store {
        src: Reg,
        base: Reg,
        off: i64,
    },
    Call {
        callee: FuncId,
        args: OpRange,
        ret: Option<Reg>,
    },
    SptFork {
        start: BlockId,
    },
    SptKill,
    Nop {
        units: u32,
    },
    /// Block terminators (the last entry of every block's code).
    Jmp {
        target: BlockId,
        /// Code index of `target`'s first instruction.
        target_pc: u32,
    },
    Br {
        cond: Reg,
        taken: BlockId,
        not_taken: BlockId,
        /// Code indices of `taken` and `not_taken`.
        taken_pc: u32,
        not_taken_pc: u32,
    },
    Ret {
        val: Option<Reg>,
    },
}

/// A static code position: statement `idx` of `block` in `func`, where
/// `idx` equal to the block's statement count is its terminator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Loc {
    pub func: FuncId,
    pub block: BlockId,
    pub idx: u32,
}

/// [`DecodedInst`] issue-fact flags.
const HAS_DST: u8 = 1;
const STORE: u8 = 1 << 1;
const RET: u8 = 1 << 2;
const FORK: u8 = 1 << 3;
const KILL: u8 = 1 << 4;
const COND_BRANCH: u8 = 1 << 5;
const TERM: u8 = 1 << 6;

/// One pre-decoded statement or terminator.
#[derive(Clone, Copy, Debug)]
pub struct DecodedInst {
    pub op: DecOp,
    pub guard: Option<Guard>,
    /// Pre-computed [`Inst::lat_class`] ([`LatClass::Alu`] for
    /// terminators).
    pub lat: LatClass,
    pub loc: Loc,
    /// Operands the issue model waits on when the statement executes: the
    /// guard then the sources, or for a call its first
    /// [`SrcSet::MAX_SRCS`] arguments and no guard (the first `n_timing`
    /// entries; a plain array rather than a [`SrcSet`] keeps this
    /// descriptor at 80 bytes).
    timing: [Reg; SrcSet::MAX_SRCS],
    n_timing: u8,
    /// Precise operands: sources plus guard ([`Inst::srcs_with_guard`]
    /// order: sources first, guard last), or a terminator's branch
    /// condition or returned register.
    srcs: OpRange,
    /// Destination register, meaningful under the `HAS_DST` flag.
    dst: Reg,
    /// `units - 1` of a `Nop { units }`, 0 otherwise.
    extra_slots: u32,
    /// Issue facts derived from `op` at decode time (the flag constants
    /// above).
    flags: u8,
}

/// Pin the descriptor's size: the code array is walked once per
/// interpreted step on every simulator and profiler hot path.
const _: () = assert!(std::mem::size_of::<DecodedInst>() <= 80);

impl DecodedInst {
    /// Assemble an instruction and decode its issue facts from `op`, once.
    fn new(op: DecOp, guard: Option<Guard>, lat: LatClass, loc: Loc, srcs: OpRange) -> Self {
        let (dst, mut flags) = match op {
            DecOp::Const { dst, .. }
            | DecOp::Un { dst, .. }
            | DecOp::Bin { dst, .. }
            | DecOp::Load { dst, .. } => (dst, HAS_DST),
            DecOp::Store { .. } => (Reg(0), STORE),
            DecOp::SptFork { .. } => (Reg(0), FORK),
            DecOp::SptKill => (Reg(0), KILL),
            DecOp::Br { .. } => (Reg(0), COND_BRANCH),
            DecOp::Ret { .. } => (Reg(0), RET),
            DecOp::Call { .. } | DecOp::Nop { .. } | DecOp::Jmp { .. } => (Reg(0), 0),
        };
        if matches!(op, DecOp::Jmp { .. } | DecOp::Br { .. } | DecOp::Ret { .. }) {
            flags |= TERM;
        }
        let extra_slots = match op {
            DecOp::Nop { units } => units.saturating_sub(1),
            _ => 0,
        };
        DecodedInst {
            op,
            guard,
            lat,
            loc,
            timing: [Reg(0); SrcSet::MAX_SRCS],
            n_timing: 0,
            srcs,
            dst,
            extra_slots,
            flags,
        }
    }

    /// Set the timing operands to the first [`SrcSet::MAX_SRCS`] of
    /// `regs` (the same truncation [`SrcSet::push`] applies).
    fn with_timing(mut self, regs: impl IntoIterator<Item = Reg>) -> Self {
        for r in regs.into_iter().take(SrcSet::MAX_SRCS) {
            self.timing[self.n_timing as usize] = r;
            self.n_timing += 1;
        }
        self
    }

    /// Is this a block terminator?
    #[inline(always)]
    pub fn is_term(&self) -> bool {
        self.flags & TERM != 0
    }

    /// Static position as an [`EvKind`].
    #[inline]
    pub fn pos(&self) -> EvKind {
        let Loc { func, block, idx } = self.loc;
        if self.is_term() {
            EvKind::Term { func, block }
        } else {
            EvKind::Inst {
                func,
                sref: StmtRef { block, index: idx },
            }
        }
    }

    /// Register an executed statement writes ([`Inst::dst`], except that a
    /// call has none: its result lands when the callee returns).
    #[inline(always)]
    pub fn dst(&self) -> Option<Reg> {
        (self.flags & HAS_DST != 0).then_some(self.dst)
    }

    /// Is this a store?
    #[inline(always)]
    pub fn is_store(&self) -> bool {
        self.flags & STORE != 0
    }

    /// Is this a return?
    #[inline(always)]
    pub fn is_ret(&self) -> bool {
        self.flags & RET != 0
    }

    /// Is this an `spt_fork`?
    #[inline(always)]
    pub fn is_fork(&self) -> bool {
        self.flags & FORK != 0
    }

    /// Is this an `spt_kill`?
    #[inline(always)]
    pub fn is_kill(&self) -> bool {
        self.flags & KILL != 0
    }

    /// Is this a conditional branch?
    #[inline(always)]
    pub fn is_cond_branch(&self) -> bool {
        self.flags & COND_BRANCH != 0
    }

    /// Extra issue slots when executed: `units - 1` for a
    /// `Nop { units }`, 0 otherwise.
    #[inline(always)]
    pub fn extra_slots(&self) -> u32 {
        self.extra_slots
    }

    /// See the `timing` field.
    #[inline(always)]
    pub fn timing_srcs(&self) -> &[Reg] {
        &self.timing[..self.n_timing as usize]
    }
}

/// One entry of the program-wide block-start table.
#[derive(Clone, Copy, Debug)]
struct BlockInfo {
    /// Code index of the block's first instruction.
    start: u32,
    /// Statement count of the block; its terminator sits at `start + len`.
    len: u32,
}

/// One function's shape: its frame layout and its range of the
/// program-wide block table (which in turn bounds its range of the code
/// array).
#[derive(Debug)]
struct FuncInfo {
    entry: BlockId,
    n_regs: u32,
    n_params: u32,
    /// Slab chunk size of this function's frames (see
    /// [`DecodedFunc::stride`]).
    stride: u32,
    /// Index of block 0 in the block table.
    first_block: u32,
    n_blocks: u32,
    /// Code index of the entry block's first instruction.
    entry_pc: u32,
}

/// A view of one function of a [`DecodedProgram`]: its frame shape and
/// positional access to its code.
#[derive(Clone, Copy, Debug)]
pub struct DecodedFunc<'a> {
    dec: &'a DecodedProgram,
    info: &'a FuncInfo,
}

impl<'a> DecodedFunc<'a> {
    /// Entry block.
    #[inline]
    pub fn entry(&self) -> BlockId {
        self.info.entry
    }

    /// Register count.
    #[inline]
    pub fn n_regs(&self) -> u32 {
        self.info.n_regs
    }

    /// Parameter count ([`spt_sir::Func::n_params`], captured at decode
    /// time so entering a function needs no tree-form lookup).
    #[inline]
    pub fn n_params(&self) -> u32 {
        self.info.n_params
    }

    /// Slab chunk size of this function's frames in the cursor register
    /// slab: `n_regs` rounded up to a power of two (≥ 1), fixed at decode
    /// time. Padding slots beyond `n_regs` stay zero.
    #[inline]
    pub fn stride(&self) -> usize {
        self.info.stride as usize
    }

    /// `u64` dirty-mask words per frame of this function: `stride / 64`,
    /// rounded up (one bit per slab register, padding included).
    #[inline]
    pub fn dirty_words(&self) -> usize {
        (self.info.stride as usize).div_ceil(64)
    }

    /// `block`'s entry in the program-wide table; a block id past this
    /// function's blocks panics rather than reading another function's.
    #[inline]
    fn block(&self, block: BlockId) -> BlockInfo {
        let first = self.info.first_block as usize;
        self.dec.blocks[first..first + self.info.n_blocks as usize][block.index()]
    }

    /// Code index of the entry block's first instruction: where a call
    /// starts its frame.
    #[inline(always)]
    pub fn entry_pc(&self) -> u32 {
        self.info.entry_pc
    }

    /// Code index of the first instruction of `block`.
    #[inline]
    pub fn block_pc(&self, block: BlockId) -> u32 {
        self.block(block).start
    }

    /// Number of statements in `block`.
    #[inline]
    pub fn block_len(&self, block: BlockId) -> usize {
        self.block(block).len as usize
    }

    /// The decoded statement at `sref`.
    #[inline]
    pub fn inst(&self, sref: StmtRef) -> &'a DecodedInst {
        self.inst_at(sref.block, sref.index as usize)
    }

    /// Statement `idx` of `block`, or its terminator at `idx ==
    /// block_len(block)`.
    #[inline]
    pub fn inst_at(&self, block: BlockId, idx: usize) -> &'a DecodedInst {
        let b = self.block(block);
        debug_assert!(idx <= b.len as usize);
        &self.dec.code[b.start as usize + idx]
    }

    /// The decoded terminator of `block`.
    #[inline]
    pub fn term(&self, block: BlockId) -> &'a DecodedInst {
        self.inst_at(block, self.block_len(block))
    }

    /// Sources-including-guard of the statement at `sref` (same order as
    /// [`Inst::srcs_with_guard`]).
    #[inline]
    pub fn srcs_with_guard(&self, sref: StmtRef) -> &'a [Reg] {
        self.dec.srcs(self.inst(sref))
    }

    /// Operand registers of the terminator of `block` (the branch
    /// condition or returned register; empty otherwise).
    #[inline]
    pub fn term_srcs(&self, block: BlockId) -> &'a [Reg] {
        self.dec.srcs(self.term(block))
    }
}

/// A program's decoded instruction stream. Owns every byte it needs (no
/// borrow of the source [`Program`]).
#[derive(Debug)]
pub struct DecodedProgram {
    entry: FuncId,
    /// The only code array: every function's blocks, function after
    /// function, each block's statements followed by its terminator. A
    /// cursor frame's `pc` indexes it.
    code: Vec<DecodedInst>,
    /// The block-start table, function after function.
    blocks: Vec<BlockInfo>,
    /// Operand registers of every instruction and call.
    pool: Vec<Reg>,
    funcs: Vec<FuncInfo>,
    /// Largest per-function frame stride (see
    /// [`DecodedProgram::frame_stride`]).
    frame_stride: u32,
}

impl DecodedProgram {
    /// Decode every function of `prog`.
    pub fn new(prog: &Program) -> Self {
        // Pass 1: lay out the block-start table, so every branch target
        // and callee entry has its code index before any code is decoded.
        let mut blocks = Vec::with_capacity(prog.funcs.iter().map(|f| f.blocks.len()).sum());
        let mut funcs = Vec::with_capacity(prog.funcs.len());
        let mut pc = 0u32;
        for f in &prog.funcs {
            let first_block = blocks.len();
            for b in &f.blocks {
                let len = b.insts.len() as u32;
                blocks.push(BlockInfo { start: pc, len });
                pc += len + 1;
            }
            funcs.push(FuncInfo {
                entry: f.entry,
                n_regs: f.n_regs,
                n_params: f.n_params,
                stride: f.n_regs.next_power_of_two(),
                first_block: first_block as u32,
                n_blocks: f.blocks.len() as u32,
                entry_pc: blocks[first_block + f.entry.index()].start,
            });
        }
        let frame_stride = funcs.iter().map(|f| f.stride).max().unwrap_or(1);
        let mut dec = DecodedProgram {
            entry: prog.entry,
            code: Vec::with_capacity(pc as usize),
            blocks,
            pool: Vec::new(),
            funcs,
            frame_stride,
        };
        // Pass 2: decode, in exactly the layout pass 1 computed.
        for (fi, f) in prog.funcs.iter().enumerate() {
            let func = FuncId(fi as u32);
            for (bi, b) in f.blocks.iter().enumerate() {
                let block = BlockId(bi as u32);
                debug_assert_eq!(dec.code.len() as u32, dec.func(func).block_pc(block));
                for (idx, inst) in b.insts.iter().enumerate() {
                    let loc = Loc {
                        func,
                        block,
                        idx: idx as u32,
                    };
                    let d = dec.decode_inst(inst, loc);
                    dec.code.push(d);
                }
                let loc = Loc {
                    func,
                    block,
                    idx: b.insts.len() as u32,
                };
                let d = dec.decode_term(b.term, loc);
                dec.code.push(d);
            }
        }
        dec
    }

    /// Entry function of the program ([`Program::entry`], captured at
    /// decode time).
    #[inline]
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// Largest per-function frame stride in the program (each function's
    /// `n_regs` rounded up to a power of two — see [`DecodedFunc::stride`]).
    /// Frames occupy per-function-sized chunks of the cursor slab; this is
    /// the worst case, useful for capacity estimates and tests.
    #[inline]
    pub fn frame_stride(&self) -> usize {
        self.frame_stride as usize
    }

    /// `u64` dirty-mask words of the widest frame: `frame_stride / 64`,
    /// rounded up (one bit per slab register, padding included).
    #[inline]
    pub fn dirty_words_per_frame(&self) -> usize {
        (self.frame_stride as usize).div_ceil(64)
    }

    #[inline]
    pub fn func(&self, id: FuncId) -> DecodedFunc<'_> {
        DecodedFunc {
            dec: self,
            info: &self.funcs[id.index()],
        }
    }

    /// The instruction at code index `pc`.
    #[inline(always)]
    pub fn inst(&self, pc: u32) -> &DecodedInst {
        &self.code[pc as usize]
    }

    /// The whole code array (index = `pc`).
    #[inline]
    pub fn code(&self) -> &[DecodedInst] {
        &self.code
    }

    /// Operand registers of a range (call arguments, source sets).
    #[inline]
    pub fn operands(&self, r: OpRange) -> &[Reg] {
        r.slice(&self.pool)
    }

    /// Precise operands of a statement or terminator (see
    /// [`DecodedInst`]'s `srcs` field), without allocating: the
    /// replacement for re-deriving [`Inst::srcs_with_guard`] (a step's own
    /// [`crate::Step::srcs`] are capacity-limited for timing).
    #[inline]
    pub fn srcs(&self, inst: &DecodedInst) -> &[Reg] {
        inst.srcs.slice(&self.pool)
    }

    fn decode_inst(&mut self, inst: &Inst, loc: Loc) -> DecodedInst {
        let op = match &inst.op {
            Op::Const { dst, imm } => DecOp::Const {
                dst: *dst,
                imm: *imm,
            },
            Op::Un { op, dst, src } => DecOp::Un {
                op: *op,
                dst: *dst,
                src: *src,
            },
            Op::Bin { op, dst, a, b } => DecOp::Bin {
                op: *op,
                dst: *dst,
                a: *a,
                b: *b,
            },
            Op::Load { dst, base, off } => DecOp::Load {
                dst: *dst,
                base: *base,
                off: *off,
            },
            Op::Store { src, base, off } => DecOp::Store {
                src: *src,
                base: *base,
                off: *off,
            },
            Op::Call { callee, args, ret } => DecOp::Call {
                callee: *callee,
                args: OpRange::push(&mut self.pool, args.iter().copied()),
                ret: *ret,
            },
            Op::SptFork { start } => DecOp::SptFork { start: *start },
            Op::SptKill => DecOp::SptKill,
            Op::Nop { units } => DecOp::Nop { units: *units },
        };
        let srcs = OpRange::push(&mut self.pool, inst.srcs_with_guard());
        let d = DecodedInst::new(op, inst.guard, inst.lat_class(), loc, srcs);
        match &inst.op {
            Op::Call { args, .. } => d.with_timing(args.iter().copied()),
            _ => d.with_timing(inst.guard.map(|g| g.reg).into_iter().chain(inst.srcs())),
        }
    }

    fn decode_term(&mut self, term: spt_sir::Terminator, loc: Loc) -> DecodedInst {
        use spt_sir::Terminator;
        let f = self.func(loc.func);
        let (op, read) = match term {
            Terminator::Jmp(target) => (
                DecOp::Jmp {
                    target,
                    target_pc: f.block_pc(target),
                },
                None,
            ),
            Terminator::Br {
                cond,
                taken,
                not_taken,
            } => (
                DecOp::Br {
                    cond,
                    taken,
                    not_taken,
                    taken_pc: f.block_pc(taken),
                    not_taken_pc: f.block_pc(not_taken),
                },
                Some(cond),
            ),
            Terminator::Ret(val) => (DecOp::Ret { val }, val),
        };
        let srcs = OpRange::push(&mut self.pool, read);
        DecodedInst::new(op, None, LatClass::Alu, loc, srcs).with_timing(read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::{ProgramBuilder, Terminator};

    fn call_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("sq", 2);
        let mut f = pb.func("main", 0);
        let a = f.const_reg(6);
        let b = f.const_reg(7);
        let r = f.reg();
        f.call(callee, &[a, b], Some(r));
        f.ret(Some(r));
        let main = f.finish();
        let mut g = pb.build(callee);
        let p0 = g.param(0);
        let p1 = g.param(1);
        let out = g.reg();
        g.bin(BinOp::Mul, out, p0, p1);
        g.ret(Some(out));
        g.finish();
        pb.finish(main, 0)
    }

    #[test]
    fn decode_matches_tree_shape() {
        let prog = call_program();
        let dec = DecodedProgram::new(&prog);
        for (fi, f) in prog.funcs.iter().enumerate() {
            let df = dec.func(FuncId(fi as u32));
            assert_eq!(df.entry(), f.entry);
            assert_eq!(df.n_regs(), f.n_regs);
            for (bi, b) in f.blocks.iter().enumerate() {
                let bid = BlockId(bi as u32);
                assert_eq!(df.block_len(bid), b.insts.len());
                match (b.term, df.term(bid).op) {
                    (Terminator::Jmp(t), DecOp::Jmp { target, target_pc }) => {
                        assert_eq!(t, target);
                        assert_eq!(target_pc, df.block_pc(t));
                    }
                    (
                        Terminator::Br {
                            cond,
                            taken,
                            not_taken,
                        },
                        DecOp::Br {
                            cond: c,
                            taken: t,
                            not_taken: n,
                            taken_pc,
                            not_taken_pc,
                        },
                    ) => {
                        assert_eq!((cond, taken, not_taken), (c, t, n));
                        assert_eq!((taken_pc, not_taken_pc), (df.block_pc(t), df.block_pc(n)));
                    }
                    (Terminator::Ret(v), DecOp::Ret { val }) => assert_eq!(v, val),
                    (t, d) => panic!("terminator {t:?} decoded as {d:?}"),
                }
                assert_eq!(df.term(bid).loc.idx as usize, b.insts.len());
                for (ii, inst) in b.insts.iter().enumerate() {
                    let sref = StmtRef::new(bid, ii);
                    let d = df.inst(sref);
                    assert_eq!(d.lat, inst.lat_class());
                    assert_eq!(d.guard, inst.guard);
                    assert_eq!(df.srcs_with_guard(sref), &inst.srcs_with_guard()[..]);
                }
            }
        }
    }

    #[test]
    fn call_metadata_pre_resolved() {
        let prog = call_program();
        let dec = DecodedProgram::new(&prog);
        let (main_id, mainf) = prog.func_by_name("main").unwrap();
        let (callee_id, cf) = prog.func_by_name("sq").unwrap();
        let df = dec.func(main_id);
        let call_sref = mainf
            .stmts()
            .find(|(_, i)| i.is_call())
            .map(|(s, _)| s)
            .unwrap();
        match df.inst(call_sref).op {
            DecOp::Call { callee, args, .. } => {
                assert_eq!(callee, callee_id);
                let callee = dec.func(callee);
                let entry = dec.inst(callee.entry_pc()).loc;
                assert_eq!(
                    (entry.func, entry.block, entry.idx),
                    (callee_id, cf.entry, 0)
                );
                assert_eq!(callee.stride() as u32, cf.n_regs.next_power_of_two());
                assert_eq!(dec.operands(args).len(), 2);
            }
            ref other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn term_srcs_follow_terminator_kind() {
        let prog = call_program();
        let dec = DecodedProgram::new(&prog);
        let (main_id, mainf) = prog.func_by_name("main").unwrap();
        let df = dec.func(main_id);
        for bid in mainf.block_ids() {
            match mainf.block(bid).term {
                Terminator::Br { cond, .. } => assert_eq!(df.term_srcs(bid), &[cond]),
                Terminator::Ret(Some(r)) => assert_eq!(df.term_srcs(bid), &[r]),
                _ => assert!(df.term_srcs(bid).is_empty()),
            }
        }
    }

    #[test]
    fn position_of_handles_empty_blocks() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("m", 0);
        let empty = f.new_block();
        f.const_reg(1);
        f.jmp(empty);
        f.switch_to(empty);
        f.ret(None);
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let dec = DecodedProgram::new(&prog);
        // The first thing executed in a block sits at index 0: block 1
        // ("empty") holds only a terminator, which is therefore there.
        let df = dec.func(id);
        assert_eq!(
            df.inst_at(BlockId(1), 0).pos(),
            EvKind::Term {
                func: id,
                block: BlockId(1)
            }
        );
        assert!(matches!(
            df.inst_at(BlockId(0), 0).pos(),
            EvKind::Inst { .. }
        ));
    }

    #[test]
    fn one_code_array_function_after_function() {
        let prog = call_program();
        let dec = DecodedProgram::new(&prog);
        let mut pc = 0;
        for (fi, f) in prog.funcs.iter().enumerate() {
            let df = dec.func(FuncId(fi as u32));
            assert_eq!(df.entry_pc(), df.block_pc(f.entry));
            for (bi, b) in f.blocks.iter().enumerate() {
                let block = BlockId(bi as u32);
                assert_eq!(df.block_pc(block), pc);
                for idx in 0..=b.insts.len() {
                    let d = dec.inst(pc);
                    assert!(std::ptr::eq(df.inst_at(block, idx), d));
                    assert_eq!((d.loc.func, d.loc.block), (FuncId(fi as u32), block));
                    assert_eq!(d.loc.idx as usize, idx);
                    pc += 1;
                }
            }
        }
        assert_eq!(pc as usize, dec.code().len());
    }

    #[test]
    fn issue_facts_follow_the_op() {
        let prog = call_program();
        let dec = DecodedProgram::new(&prog);
        for d in dec.code() {
            let dst = match d.op {
                DecOp::Const { dst, .. }
                | DecOp::Un { dst, .. }
                | DecOp::Bin { dst, .. }
                | DecOp::Load { dst, .. } => Some(dst),
                _ => None,
            };
            assert_eq!(d.dst(), dst);
            assert_eq!(d.is_store(), matches!(d.op, DecOp::Store { .. }));
            assert_eq!(d.is_ret(), matches!(d.op, DecOp::Ret { .. }));
            assert_eq!(d.is_cond_branch(), matches!(d.op, DecOp::Br { .. }));
            assert_eq!(d.is_fork(), matches!(d.op, DecOp::SptFork { .. }));
            assert_eq!(d.is_kill(), matches!(d.op, DecOp::SptKill));
            assert_eq!(d.extra_slots(), 0);
        }
    }
}
