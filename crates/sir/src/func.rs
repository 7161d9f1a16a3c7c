//! Blocks, terminators, functions and programs.

use crate::inst::Inst;
use crate::types::{BlockId, FuncId, Reg, StmtRef};

/// How control leaves a basic block. Plain-old-data (`Copy`), so the
/// interpreter can read a terminator out of a block without cloning heap
/// state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Conditional branch: to `taken` if `cond != 0`, else `not_taken`.
    Br {
        cond: Reg,
        taken: BlockId,
        not_taken: BlockId,
    },
    /// Return from the function with an optional value.
    Ret(Option<Reg>),
}

impl Terminator {
    /// Successor blocks, in (taken, not-taken) order for branches.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jmp(b) => vec![*b],
            Terminator::Br {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Terminator::Ret(_) => vec![],
        }
    }

    /// The condition register, if this is a conditional branch.
    pub fn cond(&self) -> Option<Reg> {
        match self {
            Terminator::Br { cond, .. } => Some(*cond),
            _ => None,
        }
    }

    /// Rewrite block targets through `f`. Used by unrolling.
    pub fn rewrite_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jmp(b) => *b = f(*b),
            Terminator::Br {
                taken, not_taken, ..
            } => {
                *taken = f(*taken);
                *not_taken = f(*not_taken);
            }
            Terminator::Ret(_) => {}
        }
    }
}

/// A basic block: a list of guarded statements plus a terminator.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Block {
    pub insts: Vec<Inst>,
    pub term: Terminator,
}

impl Block {
    pub fn new(term: Terminator) -> Self {
        Block {
            insts: Vec::new(),
            term,
        }
    }
}

/// A function: an entry block, a CFG of blocks, and a register count.
///
/// The first `n_params` registers (`r0..`) are the function's parameters.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Func {
    pub name: String,
    pub blocks: Vec<Block>,
    pub entry: BlockId,
    pub n_regs: u32,
    pub n_params: u32,
}

impl Func {
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    pub fn inst(&self, s: StmtRef) -> &Inst {
        &self.blocks[s.block.index()].insts[s.index as usize]
    }

    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Allocate a fresh virtual register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.n_regs);
        self.n_regs += 1;
        r
    }

    /// Total static instruction count (excluding terminators).
    pub fn static_size(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Iterate all statements with their static identity.
    pub fn stmts(&self) -> impl Iterator<Item = (StmtRef, &Inst)> {
        self.blocks.iter().enumerate().flat_map(|(bi, b)| {
            b.insts
                .iter()
                .enumerate()
                .map(move |(ii, inst)| (StmtRef::new(BlockId(bi as u32), ii), inst))
        })
    }
}

/// A whole program: functions, an entry function, initial memory.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Program {
    pub funcs: Vec<Func>,
    pub entry: FuncId,
    /// Size of the word-addressed linear memory, in 8-byte words.
    pub mem_words: usize,
    /// Initial memory image: (word address, value) pairs applied over zeros.
    pub data: Vec<(u64, i64)>,
}

impl Program {
    pub fn func(&self, id: FuncId) -> &Func {
        &self.funcs[id.index()]
    }

    pub fn func_mut(&mut self, id: FuncId) -> &mut Func {
        &mut self.funcs[id.index()]
    }

    pub fn func_by_name(&self, name: &str) -> Option<(FuncId, &Func)> {
        self.funcs
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len() as u32).map(FuncId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Op;

    fn mini_func() -> Func {
        let mut b0 = Block::new(Terminator::Jmp(BlockId(1)));
        b0.insts.push(Inst::new(Op::Const {
            dst: Reg(0),
            imm: 1,
        }));
        let b1 = Block::new(Terminator::Ret(Some(Reg(0))));
        Func {
            name: "f".into(),
            blocks: vec![b0, b1],
            entry: BlockId(0),
            n_regs: 1,
            n_params: 0,
        }
    }

    #[test]
    fn successors() {
        assert_eq!(Terminator::Jmp(BlockId(3)).successors(), vec![BlockId(3)]);
        let br = Terminator::Br {
            cond: Reg(0),
            taken: BlockId(1),
            not_taken: BlockId(2),
        };
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(br.cond(), Some(Reg(0)));
        assert_eq!(Terminator::Ret(None).successors(), vec![]);
    }

    #[test]
    fn rewrite_targets() {
        let mut t = Terminator::Br {
            cond: Reg(0),
            taken: BlockId(1),
            not_taken: BlockId(2),
        };
        t.rewrite_targets(|b| BlockId(b.0 + 10));
        assert_eq!(t.successors(), vec![BlockId(11), BlockId(12)]);
    }

    #[test]
    fn func_accessors() {
        let mut f = mini_func();
        assert_eq!(f.static_size(), 1);
        assert_eq!(f.stmts().count(), 1);
        let (sref, inst) = f.stmts().next().unwrap();
        assert_eq!(sref, StmtRef::new(BlockId(0), 0));
        assert_eq!(inst.dst(), Some(Reg(0)));
        let r = f.fresh_reg();
        assert_eq!(r, Reg(1));
        assert_eq!(f.n_regs, 2);
    }

    #[test]
    fn program_lookup_by_name() {
        let p = Program {
            funcs: vec![mini_func()],
            entry: FuncId(0),
            mem_words: 16,
            data: vec![],
        };
        assert!(p.func_by_name("f").is_some());
        assert!(p.func_by_name("missing").is_none());
        assert_eq!(p.func_ids().count(), 1);
    }
}
