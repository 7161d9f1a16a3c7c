//! Self-contained descriptions of executed steps.
//!
//! An [`Event`] is the wide, owned form of a [`crate::Step`]: static
//! identity, operands, values produced, memory effects and branch
//! outcomes, all copied out of the decoded program. The cursor itself
//! returns the compact record; observers of [`crate::run_with`] and tests
//! get events built on demand with [`crate::Step::event`].

use spt_sir::{BlockId, FuncId, LatClass, Reg, StmtRef};

/// Inline set of source registers (operands incl. guard). Statements in SIR
/// read at most 3 registers except calls; calls record at most the first
/// `MAX_SRCS` argument registers, which is all the scoreboard timing model
/// needs (extra call arguments are register moves performed at the call).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SrcSet {
    regs: [Reg; Self::MAX_SRCS],
    len: u8,
}

impl SrcSet {
    pub const MAX_SRCS: usize = 4;

    pub fn new() -> Self {
        SrcSet {
            regs: [Reg(0); Self::MAX_SRCS],
            len: 0,
        }
    }

    pub fn push(&mut self, r: Reg) {
        if (self.len as usize) < Self::MAX_SRCS {
            self.regs[self.len as usize] = r;
            self.len += 1;
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn contains(&self, r: Reg) -> bool {
        self.as_slice().contains(&r)
    }
}

impl Default for SrcSet {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<Reg> for SrcSet {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> Self {
        let mut s = SrcSet::new();
        for r in iter {
            s.push(r);
        }
        s
    }
}

/// What kind of program point an event came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvKind {
    /// A statement (guarded instruction) at a static position.
    Inst { func: FuncId, sref: StmtRef },
    /// A block terminator.
    Term { func: FuncId, block: BlockId },
}

impl EvKind {
    pub fn func(&self) -> FuncId {
        match self {
            EvKind::Inst { func, .. } | EvKind::Term { func, .. } => *func,
        }
    }
}

/// A memory effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRef {
    /// Word address, already wrapped into range.
    pub addr: u64,
    pub is_store: bool,
    /// Value loaded or stored.
    pub value: i64,
}

/// A control transfer performed by a terminator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Branch {
    /// True for conditional branches (these exercise the branch predictor).
    pub conditional: bool,
    /// Outcome of a conditional branch; `true` for unconditional ones.
    pub taken: bool,
    /// Destination block (within the same function), if any. `None` for
    /// returns.
    pub target: Option<BlockId>,
}

/// One dynamic execution step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub kind: EvKind,
    pub lat: LatClass,
    /// False when a guard suppressed the statement (it still occupies an
    /// issue slot, like a predicated-off Itanium instruction).
    pub executed: bool,
    /// Registers read, including the guard register.
    pub srcs: SrcSet,
    /// Register written and the value written.
    pub dst: Option<Reg>,
    pub dst_val: i64,
    /// Call-stack depth at which the statement executed (entry frame = 0).
    pub depth: u32,
    pub mem: Option<MemRef>,
    pub branch: Option<Branch>,
    /// `spt_fork` target, when this event is a fork.
    pub fork: Option<BlockId>,
    /// True when this event is an `spt_kill`.
    pub kill: bool,
    /// Extra issue slots consumed (for `Nop { units }`, units-1 extra).
    pub extra_slots: u32,
}

impl Event {
    /// An event with no effects; building block for synthetic events in
    /// tests.
    pub fn blank(kind: EvKind, lat: LatClass, depth: u32) -> Self {
        Event {
            kind,
            lat,
            executed: true,
            srcs: SrcSet::new(),
            dst: None,
            dst_val: 0,
            depth,
            mem: None,
            branch: None,
            fork: None,
            kill: false,
            extra_slots: 0,
        }
    }

    /// Static statement identity if this is an instruction event.
    pub fn sref(&self) -> Option<StmtRef> {
        match self.kind {
            EvKind::Inst { sref, .. } => Some(sref),
            EvKind::Term { .. } => None,
        }
    }

    /// Total issue slots this event occupies (≥ 1).
    pub fn slots(&self) -> u64 {
        1 + self.extra_slots as u64
    }

    /// Call-stack depth of the *destination* register. Equal to the event's
    /// own depth except for returns, whose value lands in the caller frame.
    pub fn dst_depth(&self) -> u32 {
        match (self.kind, self.branch) {
            // A Term event with no target is a return: dst is caller-frame.
            (EvKind::Term { .. }, Some(b)) if b.target.is_none() => self.depth.saturating_sub(1),
            _ => self.depth,
        }
    }

    /// Is this event a return (frame pop)?
    pub fn is_ret(&self) -> bool {
        matches!((self.kind, self.branch), (EvKind::Term { .. }, Some(b)) if b.target.is_none())
    }

    /// Is this event a call (frame push)?
    pub fn is_call(&self) -> bool {
        self.lat == LatClass::Call
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srcset_push_and_query() {
        let mut s = SrcSet::new();
        assert!(s.is_empty());
        s.push(Reg(1));
        s.push(Reg(2));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Reg(1)));
        assert!(!s.contains(Reg(3)));
        assert_eq!(s.as_slice(), &[Reg(1), Reg(2)]);
    }

    #[test]
    fn srcset_saturates_at_capacity() {
        let mut s = SrcSet::new();
        for i in 0..10 {
            s.push(Reg(i));
        }
        assert_eq!(s.len(), SrcSet::MAX_SRCS);
        assert_eq!(s.as_slice(), &[Reg(0), Reg(1), Reg(2), Reg(3)]);
    }

    #[test]
    fn srcset_from_iterator() {
        let s: SrcSet = [Reg(5), Reg(6)].into_iter().collect();
        assert_eq!(s.as_slice(), &[Reg(5), Reg(6)]);
    }

    #[test]
    fn event_slots() {
        let mut e = Event::blank(
            EvKind::Term {
                func: FuncId(0),
                block: BlockId(0),
            },
            LatClass::Alu,
            0,
        );
        assert_eq!(e.slots(), 1);
        e.extra_slots = 3;
        assert_eq!(e.slots(), 4);
        assert_eq!(e.sref(), None);
    }

    #[test]
    fn event_kind_func() {
        let k = EvKind::Inst {
            func: FuncId(2),
            sref: StmtRef::new(BlockId(1), 0),
        };
        assert_eq!(k.func(), FuncId(2));
    }
}
