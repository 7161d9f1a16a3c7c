//! The cursor's per-step record.
//!
//! A [`Step`] describes one executed statement or terminator in two
//! halves: the *static* half (position, latency class, timing operands,
//! destination, extra issue slots, fork/kill, branch kind) is a reference
//! into the [`DecodedProgram`] the cursor runs over — its issue facts
//! decoded once there, so each accessor reads a field — and only the
//! *dynamic* half (executed, the value moved, the memory address, the
//! branch outcome, the call depth and a return's caller-frame
//! destination) is copied per step. The timing models, the speculation
//! machinery and the profilers all read it directly; the wider
//! [`Event`] is built from it on demand ([`Step::event`]) for observers
//! and tests.

use crate::decode::{DecOp, DecodedInst, DecodedProgram, Loc};
use crate::event::{Branch, EvKind, Event, MemRef};
use spt_sir::{BlockId, FuncId, LatClass, Reg, StmtRef};

/// One dynamic execution step (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct Step<'p> {
    inst: &'p DecodedInst,
    /// The value this step moved: the value written to its destination
    /// register (a return's value landing in the caller frame included),
    /// loaded, or stored; 0 when it moved none. A load's destination value
    /// and loaded value are the same value, and a store has no
    /// destination, so one field serves both.
    pub val: i64,
    /// Word address (already wrapped into range) of an executed load or
    /// store; `None` for every other step.
    pub addr: Option<u64>,
    /// Call-stack depth at which the step executed (entry frame = 0).
    pub depth: u32,
    /// A return's destination register in the caller frame, when the
    /// caller asked for the value and the return carried one.
    ret_dst: Option<Reg>,
    /// False when a guard suppressed the statement (it still occupies an
    /// issue slot, like a predicated-off Itanium instruction).
    pub executed: bool,
    /// Outcome of a conditional branch (false for every other step).
    pub taken: bool,
}

/// Pin the record's size: it is built and consumed once per interpreted
/// step on every simulator and profiler hot path.
const _: () = assert!(std::mem::size_of::<Step<'static>>() <= 48);

impl<'p> Step<'p> {
    /// An executed step of `inst` at `depth` with no dynamic effects; the
    /// cursor fills those in, and tests use it for synthetic steps.
    #[inline(always)]
    pub fn new(inst: &'p DecodedInst, depth: u32) -> Self {
        Step {
            inst,
            val: 0,
            addr: None,
            depth,
            ret_dst: None,
            executed: true,
            taken: false,
        }
    }

    #[inline(always)]
    pub(crate) fn set_ret_dst(&mut self, dst: Reg) {
        self.ret_dst = Some(dst);
    }

    /// The decoded statement or terminator this step executed.
    #[inline(always)]
    pub fn inst(&self) -> &'p DecodedInst {
        self.inst
    }

    /// Static code position.
    #[inline(always)]
    pub fn loc(&self) -> Loc {
        self.inst.loc
    }

    #[inline(always)]
    pub fn func(&self) -> FuncId {
        self.inst.loc.func
    }

    /// The block this step executed in.
    #[inline(always)]
    pub fn block(&self) -> BlockId {
        self.inst.loc.block
    }

    /// Static position as an [`EvKind`].
    #[inline]
    pub fn pos(&self) -> EvKind {
        self.inst.pos()
    }

    /// Static statement identity if this is a statement (not a
    /// terminator).
    #[inline]
    pub fn sref(&self) -> Option<StmtRef> {
        (!self.inst.is_term()).then_some(StmtRef {
            block: self.inst.loc.block,
            index: self.inst.loc.idx,
        })
    }

    #[inline(always)]
    pub fn lat(&self) -> LatClass {
        self.inst.lat
    }

    /// Registers the issue model waits on: only the guard when the guard
    /// suppressed the statement; for an executed call, its first
    /// [`crate::SrcSet::MAX_SRCS`] arguments and no guard; otherwise the
    /// sources plus the guard.
    #[inline(always)]
    pub fn srcs(&self) -> &'p [Reg] {
        if self.executed {
            self.inst.timing_srcs()
        } else {
            match &self.inst.guard {
                Some(g) => std::slice::from_ref(&g.reg),
                None => &[],
            }
        }
    }

    /// Every register the statement reads, whether or not it executed:
    /// sources plus guard with all call arguments, or a terminator's
    /// condition or returned register (the dependence checkers' operand
    /// set, unlike the capacity-limited [`Step::srcs`]).
    #[inline]
    pub fn operands(&self, dec: &'p DecodedProgram) -> &'p [Reg] {
        dec.srcs(self.inst)
    }

    /// Register written, if any: an executed statement's destination, or a
    /// return's destination in the caller frame.
    #[inline(always)]
    pub fn dst(&self) -> Option<Reg> {
        if self.executed {
            self.inst.dst().or(self.ret_dst)
        } else {
            None
        }
    }

    /// The memory effect of an executed load or store.
    #[inline(always)]
    pub fn mem(&self) -> Option<MemRef> {
        self.addr.map(|addr| MemRef {
            addr,
            is_store: self.is_store(),
            value: self.val,
        })
    }

    /// Is the statement a store (executed or not)?
    #[inline(always)]
    pub fn is_store(&self) -> bool {
        self.inst.is_store()
    }

    /// This step with its memory access hidden from the timing model: a
    /// speculative store that stays in the store buffer, or a load the
    /// buffer forwarded.
    #[inline(always)]
    pub fn without_mem(self) -> Self {
        Step { addr: None, ..self }
    }

    /// The control transfer a terminator performed.
    #[inline(always)]
    pub fn branch(&self) -> Option<Branch> {
        if !self.inst.is_term() {
            return None;
        }
        match self.inst.op {
            DecOp::Jmp { target, .. } => Some(Branch {
                conditional: false,
                taken: true,
                target: Some(target),
            }),
            DecOp::Br {
                taken, not_taken, ..
            } => Some(Branch {
                conditional: true,
                taken: self.taken,
                target: Some(if self.taken { taken } else { not_taken }),
            }),
            DecOp::Ret { .. } => Some(Branch {
                conditional: false,
                taken: true,
                target: None,
            }),
            _ => None,
        }
    }

    /// Was this a conditional branch? Its outcome is [`Step::taken`].
    #[inline(always)]
    pub fn is_cond_branch(&self) -> bool {
        self.inst.is_cond_branch()
    }

    /// `spt_fork` target, when this step executed a fork.
    #[inline(always)]
    pub fn fork(&self) -> Option<BlockId> {
        if !(self.executed && self.inst.is_fork()) {
            return None;
        }
        match self.inst.op {
            DecOp::SptFork { start } => Some(start),
            _ => None,
        }
    }

    /// True when this step executed an `spt_kill`.
    #[inline(always)]
    pub fn kill(&self) -> bool {
        self.executed && self.inst.is_kill()
    }

    /// Extra issue slots consumed (`units - 1` for an executed
    /// `Nop { units }`).
    #[inline(always)]
    pub fn extra_slots(&self) -> u32 {
        if self.executed {
            self.inst.extra_slots()
        } else {
            0
        }
    }

    /// Total issue slots this step occupies (≥ 1).
    #[inline(always)]
    pub fn slots(&self) -> u64 {
        1 + self.extra_slots() as u64
    }

    /// Is this a call (frame push)? Reads only the latency class, so a
    /// guard-suppressed call counts too.
    #[inline(always)]
    pub fn is_call(&self) -> bool {
        self.inst.lat == LatClass::Call
    }

    /// Is this a return (frame pop)?
    #[inline(always)]
    pub fn is_ret(&self) -> bool {
        self.inst.is_ret()
    }

    /// Call-stack depth of the destination register: the step's own depth
    /// except for returns, whose value lands in the caller frame.
    #[inline(always)]
    pub fn dst_depth(&self) -> u32 {
        if self.is_ret() {
            self.depth.saturating_sub(1)
        } else {
            self.depth
        }
    }

    /// The same step as a self-contained [`Event`].
    pub fn event(&self) -> Event {
        let dst = self.dst();
        Event {
            kind: self.pos(),
            lat: self.lat(),
            executed: self.executed,
            srcs: self.srcs().iter().copied().collect(),
            dst,
            dst_val: if dst.is_some() { self.val } else { 0 },
            depth: self.depth,
            mem: self.mem(),
            branch: self.branch(),
            fork: self.fork(),
            kill: self.kill(),
            extra_slots: self.extra_slots(),
        }
    }
}
