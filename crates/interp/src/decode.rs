//! Pre-decoded instruction streams.
//!
//! [`DecodedProgram`] flattens every function's blocks into one contiguous
//! array of [`DecodedInst`] per function — each block's statements followed
//! by its terminator — with everything the hot loops need resolved ahead
//! of time:
//!
//! * operand registers (sources *plus* guard, in dependence-analysis
//!   order) live in a per-function operand pool and are exposed as slices
//!   — no `Vec` allocation per lookup, unlike [`spt_sir::Inst::srcs`];
//! * latency classes, positions and the issue model's timing operands are
//!   pre-computed per statement, so a [`crate::Step`] can refer to them
//!   instead of copying them;
//! * calls carry the callee's entry block and register-file size, so a
//!   call executes without chasing `Program::func`.
//!
//! Decoding is a pure function of the program: one pass over the static
//! code, amortized over millions of interpreted steps. The decoded form
//! never changes execution semantics (the original tree form remains the
//! source of truth for compilation and display).

use crate::event::{EvKind, SrcSet};
use spt_sir::{BinOp, BlockId, FuncId, Guard, Inst, LatClass, Op, Program, Reg, StmtRef, UnOp};

/// Range into a function's operand pool.
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
/// lists live in the operand pool, and callee metadata is pre-resolved.
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
        args: OpRange,
        ret: Option<Reg>,
        callee: FuncId,
        callee_entry: BlockId,
        /// Callee's slab chunk size ([`DecodedFunc::stride`]), so a call
        /// pushes a frame without chasing the callee's decoded function.
        callee_stride: u32,
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
    },
    Br {
        cond: Reg,
        taken: BlockId,
        not_taken: BlockId,
    },
    Ret {
        val: Option<Reg>,
    },
}

/// A static code position: statement `idx` of `block` in `func`, where
/// `idx` equal to the block's statement count is its terminator (the
/// cursor frame's own convention).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Loc {
    pub func: FuncId,
    pub block: BlockId,
    pub idx: u32,
}

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
}

impl DecodedInst {
    /// Is this a block terminator?
    #[inline]
    pub fn is_term(&self) -> bool {
        matches!(
            self.op,
            DecOp::Jmp { .. } | DecOp::Br { .. } | DecOp::Ret { .. }
        )
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
    #[inline]
    pub fn dst(&self) -> Option<Reg> {
        match self.op {
            DecOp::Const { dst, .. }
            | DecOp::Un { dst, .. }
            | DecOp::Bin { dst, .. }
            | DecOp::Load { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// See the `timing` field.
    #[inline]
    pub fn timing_srcs(&self) -> &[Reg] {
        &self.timing[..self.n_timing as usize]
    }
}

/// Per-block index into a function's flat code array.
#[derive(Clone, Copy, Debug)]
struct BlockInfo {
    /// First instruction in the function's flat code array.
    start: u32,
    /// Statement count of the block; its terminator sits at `start + len`.
    len: u32,
}

/// One function's decoded streams.
#[derive(Debug)]
pub struct DecodedFunc {
    pub entry: BlockId,
    pub n_regs: u32,
    /// Parameter count ([`spt_sir::Func::n_params`], captured at decode
    /// time so entering a function needs no tree-form lookup).
    pub n_params: u32,
    /// Slab chunk size of this function's frames: `n_regs` rounded up to a
    /// power of two (≥ 1), fixed at decode time. Padding slots beyond
    /// `n_regs` stay zero.
    stride: u32,
    code: Vec<DecodedInst>,
    blocks: Vec<BlockInfo>,
    pool: Vec<Reg>,
}

impl DecodedFunc {
    /// Frame stride of this function in the cursor register slab (see the
    /// field doc).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride as usize
    }

    /// `u64` dirty-mask words per frame of this function: `stride / 64`,
    /// rounded up (one bit per slab register, padding included).
    #[inline]
    pub fn dirty_words(&self) -> usize {
        (self.stride as usize).div_ceil(64)
    }

    /// Number of statements in `block`.
    #[inline]
    pub fn block_len(&self, block: BlockId) -> usize {
        self.blocks[block.index()].len as usize
    }

    /// The decoded statement at `sref`.
    #[inline]
    pub fn inst(&self, sref: StmtRef) -> &DecodedInst {
        self.inst_at(sref.block, sref.index as usize)
    }

    /// Statement `idx` of `block`, or its terminator at `idx ==
    /// block_len(block)` — the cursor's inner-loop accessor.
    #[inline]
    pub fn inst_at(&self, block: BlockId, idx: usize) -> &DecodedInst {
        let b = &self.blocks[block.index()];
        &self.code[b.start as usize + idx]
    }

    /// The decoded terminator of `block`.
    #[inline]
    pub fn term(&self, block: BlockId) -> &DecodedInst {
        self.inst_at(block, self.block_len(block))
    }

    /// Operand registers of a range (call arguments, source sets).
    #[inline]
    pub fn operands(&self, r: OpRange) -> &[Reg] {
        r.slice(&self.pool)
    }

    /// Precise operands of a statement or terminator of this function
    /// (see [`DecodedInst`]'s `srcs` field), without allocating.
    #[inline]
    pub fn srcs(&self, inst: &DecodedInst) -> &[Reg] {
        inst.srcs.slice(&self.pool)
    }

    /// Sources-including-guard of the statement at `sref` (same order as
    /// [`Inst::srcs_with_guard`]).
    #[inline]
    pub fn srcs_with_guard(&self, sref: StmtRef) -> &[Reg] {
        self.srcs(self.inst(sref))
    }

    /// Operand registers of the terminator of `block` (the branch
    /// condition or returned register; empty otherwise).
    #[inline]
    pub fn term_srcs(&self, block: BlockId) -> &[Reg] {
        self.srcs(self.term(block))
    }
}

/// A program's decoded per-function instruction streams. Owns every byte
/// it needs (no borrow of the source [`Program`]), so a decoded program can
/// outlive the tree form and be cached across runs (DESIGN.md §3i).
#[derive(Debug)]
pub struct DecodedProgram {
    entry: FuncId,
    funcs: Vec<DecodedFunc>,
    /// Largest per-function frame stride (see
    /// [`DecodedProgram::frame_stride`]).
    frame_stride: u32,
}

impl DecodedProgram {
    /// Decode every function of `prog`.
    pub fn new(prog: &Program) -> Self {
        let funcs: Vec<DecodedFunc> = prog
            .funcs
            .iter()
            .enumerate()
            .map(|(i, f)| decode_func(prog, FuncId(i as u32), f))
            .collect();
        let frame_stride = funcs.iter().map(|f| f.stride).max().unwrap_or(1);
        DecodedProgram {
            entry: prog.entry,
            funcs,
            frame_stride,
        }
    }

    /// Entry function of the program ([`Program::entry`], captured at
    /// decode time).
    #[inline]
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// Approximate retained heap bytes of the decoded form (arena
    /// telemetry; not exact — counts the major pools only).
    pub fn approx_bytes(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| {
                f.code.len() * std::mem::size_of::<DecodedInst>()
                    + f.blocks.len() * std::mem::size_of::<BlockInfo>()
                    + f.pool.len() * std::mem::size_of::<Reg>()
            })
            .sum::<usize>()
            + self.funcs.len() * std::mem::size_of::<DecodedFunc>()
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
    pub fn func(&self, id: FuncId) -> &DecodedFunc {
        &self.funcs[id.index()]
    }

    /// Precise operand registers of the statement or terminator at a
    /// position, as a slice into the operand pool: the allocation-free
    /// replacement for re-deriving [`Inst::srcs_with_guard`] (a step's
    /// own [`crate::Step::srcs`] are capacity-limited for timing).
    #[inline]
    pub fn srcs_of(&self, kind: EvKind) -> &[Reg] {
        match kind {
            EvKind::Inst { func, sref } => self.func(func).srcs_with_guard(sref),
            EvKind::Term { func, block } => self.func(func).term_srcs(block),
        }
    }
}

fn decode_inst(prog: &Program, inst: &Inst, loc: Loc, pool: &mut Vec<Reg>) -> DecodedInst {
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
        Op::Call { callee, args, ret } => {
            let cf = prog.func(*callee);
            DecOp::Call {
                args: OpRange::push(pool, args.iter().copied()),
                ret: *ret,
                callee: *callee,
                callee_entry: cf.entry,
                callee_stride: cf.n_regs.next_power_of_two(),
            }
        }
        Op::SptFork { start } => DecOp::SptFork { start: *start },
        Op::SptKill => DecOp::SptKill,
        Op::Nop { units } => DecOp::Nop { units: *units },
    };
    let (timing, n_timing) = match &inst.op {
        Op::Call { args, .. } => timing_array(args.iter().copied()),
        _ => timing_array(inst.guard.map(|g| g.reg).into_iter().chain(inst.srcs())),
    };
    DecodedInst {
        op,
        guard: inst.guard,
        lat: inst.lat_class(),
        loc,
        timing,
        n_timing,
        srcs: OpRange::push(pool, inst.srcs_with_guard()),
    }
}

/// The first [`SrcSet::MAX_SRCS`] of `regs` as a timing-operand array
/// and its length (the same truncation [`SrcSet::push`] applies).
fn timing_array(regs: impl IntoIterator<Item = Reg>) -> ([Reg; SrcSet::MAX_SRCS], u8) {
    let mut out = [Reg(0); SrcSet::MAX_SRCS];
    let mut n = 0;
    for r in regs.into_iter().take(SrcSet::MAX_SRCS) {
        out[n] = r;
        n += 1;
    }
    (out, n as u8)
}

fn decode_term(term: spt_sir::Terminator, loc: Loc, pool: &mut Vec<Reg>) -> DecodedInst {
    use spt_sir::Terminator;
    let (op, read) = match term {
        Terminator::Jmp(target) => (DecOp::Jmp { target }, None),
        Terminator::Br {
            cond,
            taken,
            not_taken,
        } => (
            DecOp::Br {
                cond,
                taken,
                not_taken,
            },
            Some(cond),
        ),
        Terminator::Ret(val) => (DecOp::Ret { val }, val),
    };
    let (timing, n_timing) = timing_array(read);
    DecodedInst {
        op,
        guard: None,
        lat: LatClass::Alu,
        loc,
        timing,
        n_timing,
        srcs: OpRange::push(pool, read),
    }
}

fn decode_func(prog: &Program, fid: FuncId, f: &spt_sir::Func) -> DecodedFunc {
    let mut code = Vec::with_capacity(f.static_size() + f.blocks.len());
    let mut blocks = Vec::with_capacity(f.blocks.len());
    let mut pool = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        let block = BlockId(bi as u32);
        let start = code.len() as u32;
        for (idx, inst) in b.insts.iter().enumerate() {
            let loc = Loc {
                func: fid,
                block,
                idx: idx as u32,
            };
            code.push(decode_inst(prog, inst, loc, &mut pool));
        }
        let loc = Loc {
            func: fid,
            block,
            idx: b.insts.len() as u32,
        };
        code.push(decode_term(b.term, loc, &mut pool));
        blocks.push(BlockInfo {
            start,
            len: b.insts.len() as u32,
        });
    }
    DecodedFunc {
        entry: f.entry,
        n_regs: f.n_regs,
        n_params: f.n_params,
        stride: f.n_regs.next_power_of_two(),
        code,
        blocks,
        pool,
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
            assert_eq!(df.entry, f.entry);
            assert_eq!(df.n_regs, f.n_regs);
            for (bi, b) in f.blocks.iter().enumerate() {
                let bid = BlockId(bi as u32);
                assert_eq!(df.block_len(bid), b.insts.len());
                match (b.term, df.term(bid).op) {
                    (Terminator::Jmp(t), DecOp::Jmp { target }) => assert_eq!(t, target),
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
                        },
                    ) => assert_eq!((cond, taken, not_taken), (c, t, n)),
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
            DecOp::Call {
                args,
                callee,
                callee_entry,
                callee_stride,
                ..
            } => {
                assert_eq!(callee, callee_id);
                assert_eq!(callee_entry, cf.entry);
                assert_eq!(callee_stride, cf.n_regs.next_power_of_two());
                assert_eq!(df.operands(args).len(), 2);
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
}
