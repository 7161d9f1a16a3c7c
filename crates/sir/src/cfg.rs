//! Control-flow-graph utilities: predecessors, reachability, orderings.

use crate::func::Func;
use crate::types::BlockId;

/// Derived CFG facts for a function snapshot.
pub struct Cfg {
    pub preds: Vec<Vec<BlockId>>,
    pub succs: Vec<Vec<BlockId>>,
    /// Reverse postorder over reachable blocks (entry first).
    pub rpo: Vec<BlockId>,
    /// `rpo_index[b]` = position of `b` in `rpo`, or `usize::MAX` if
    /// unreachable.
    pub rpo_index: Vec<usize>,
}

impl Cfg {
    pub fn new(f: &Func) -> Self {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (i, b) in f.blocks.iter().enumerate() {
            let ss = b.term.successors();
            for s in &ss {
                preds[s.index()].push(BlockId(i as u32));
            }
            succs[i] = ss;
        }

        // Iterative postorder DFS from the entry.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        // Stack holds (block, next successor index to visit).
        let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
        visited[f.entry.index()] = true;
        while let Some((b, si)) = stack.last_mut() {
            let bs = *b;
            if let Some(&s) = succs[bs.index()].get(*si) {
                *si += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(bs);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }

        Cfg {
            preds,
            succs,
            rpo,
            rpo_index,
        }
    }

    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }

    pub fn n_blocks(&self) -> usize {
        self.succs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::Reg;

    /// diamond: 0 -> {1,2} -> 3
    fn diamond() -> (crate::func::Program, crate::types::FuncId) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("d", 0);
        let c = f.reg();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        f.const_(c, 1);
        f.br(c, b1, b2);
        f.switch_to(b1);
        f.jmp(b3);
        f.switch_to(b2);
        f.jmp(b3);
        f.switch_to(b3);
        f.ret(None);
        let id = f.finish();
        (pb.finish(id, 0), id)
    }

    #[test]
    fn diamond_preds_succs() {
        let (p, id) = diamond();
        let cfg = Cfg::new(p.func(id));
        assert_eq!(cfg.succs[0], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds[3], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds[0], Vec::<BlockId>::new());
    }

    #[test]
    fn rpo_entry_first_join_last() {
        let (p, id) = diamond();
        let cfg = Cfg::new(p.func(id));
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(*cfg.rpo.last().unwrap(), BlockId(3));
        assert_eq!(cfg.rpo.len(), 4);
        // RPO property: every block before its successors unless back edge.
        assert!(cfg.rpo_index[0] < cfg.rpo_index[1]);
        assert!(cfg.rpo_index[1] < cfg.rpo_index[3]);
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("u", 0);
        let dead = f.new_block();
        f.ret(None);
        f.switch_to(dead);
        f.ret(None);
        let id = f.finish();
        let p = pb.finish(id, 0);
        let cfg = Cfg::new(p.func(id));
        assert_eq!(cfg.rpo.len(), 1);
        assert!(cfg.is_reachable(BlockId(0)));
        assert!(!cfg.is_reachable(BlockId(1)));
    }

    #[test]
    fn self_loop() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("s", 0);
        let body = f.new_block();
        f.jmp(body);
        f.switch_to(body);
        let c = Reg(0);
        let _ = f.reg();
        f.br(c, body, body); // both edges to self; still a valid CFG
        let id = f.finish();
        let p = pb.finish(id, 0);
        let cfg = Cfg::new(p.func(id));
        assert_eq!(cfg.preds[1].len(), 3); // entry jmp + two self edges
        assert!(cfg.is_reachable(BlockId(1)));
    }
}
