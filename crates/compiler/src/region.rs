//! Region-based speculation — the paper's stated future work (§6):
//! *"Region-based speculation is believed to be a potential approach, which
//! tries to parallelize a sequential piece of code by executing its first
//! half and second half in parallel."*
//!
//! Given a straight-line block, find a split point that balances the two
//! halves while minimizing the computation in the second half that depends
//! on the first (the would-be misspeculation), then rebuild the block as
//!
//! ```text
//! X:  spt_fork B        // speculative pipeline starts the second half
//!     <first half>
//!     jmp B             // main arrives at the start-point -> check/commit
//! B:  <second half>
//!     <original terminator>
//! ```
//!
//! No `spt_kill` is needed: unlike loop speculation, the main thread always
//! reaches the start-point. Violations (second-half reads of first-half
//! results) are caught by the ordinary dependence checkers and repaired by
//! selective re-execution, so *any* split is architecturally safe; the
//! search only decides how profitable it is.

use crate::cost::{stmt_cost_with, CostParams};
use spt_sir::{Block, BlockId, FuncId, Inst, Op, Program, Terminator};
use std::collections::{HashMap, HashSet};

/// A chosen region split.
#[derive(Clone, Debug)]
pub struct RegionSplit {
    pub block: BlockId,
    /// Statements `[0, split_at)` form the first half.
    pub split_at: usize,
    pub first_cost: f64,
    pub second_cost: f64,
    /// Estimated second-half computation dependent on the first half.
    pub misspec_cost: f64,
    pub est_speedup: f64,
}

/// Conservative statement-level dependence test: does `b` read anything
/// `a` writes (register), or do they conflict through memory?
fn depends(a: &Inst, b: &Inst) -> bool {
    if let Some(d) = a.dst() {
        if b.srcs_with_guard().contains(&d) {
            return true;
        }
    }
    let mem_a = a.is_store() || a.is_call();
    let mem_b = b.is_load() || b.is_store() || b.is_call();
    mem_a && mem_b
}

/// Find the best split of `block`, if any split is estimated profitable.
pub fn find_region_split(
    prog: &Program,
    func: FuncId,
    block: BlockId,
    params: &CostParams,
    call_costs: &HashMap<FuncId, f64>,
) -> Option<RegionSplit> {
    let insts = &prog.func(func).block(block).insts;
    let n = insts.len();
    if n < 4 {
        return None;
    }
    // Statements already containing SPT markers are off limits.
    if insts
        .iter()
        .any(|i| matches!(i.op, Op::SptFork { .. } | Op::SptKill))
    {
        return None;
    }
    let costs: Vec<f64> = insts
        .iter()
        .map(|i| stmt_cost_with(i, prog, call_costs))
        .collect();
    let total: f64 = costs.iter().sum();

    let mut best: Option<RegionSplit> = None;
    for k in 1..n {
        let first: f64 = costs[..k].iter().sum();
        let second = total - first;
        // Second-half statements (transitively) dependent on the first half
        // re-execute during replay.
        let mut poisoned: HashSet<usize> = HashSet::new();
        let mut misspec = 0.0;
        for j in k..n {
            let dep = insts[..k].iter().any(|a| depends(a, &insts[j]))
                || insts[k..j]
                    .iter()
                    .enumerate()
                    .any(|(x, a)| poisoned.contains(&(k + x)) && depends(a, &insts[j]));
            if dep {
                poisoned.insert(j);
                misspec += costs[j];
            }
        }
        let t_spt = first.max(second) + params.fork_overhead + params.commit_overhead + misspec;
        let est = if t_spt > 0.0 { total / t_spt } else { 1.0 };
        let better = best.as_ref().is_none_or(|b| est > b.est_speedup);
        if better {
            best = Some(RegionSplit {
                block,
                split_at: k,
                first_cost: first,
                second_cost: second,
                misspec_cost: misspec,
                est_speedup: est,
            });
        }
    }
    best.filter(|b| b.est_speedup > 1.0)
}

/// Apply a split: carve the second half into a new block and insert the
/// fork. Returns the new block (the speculative start-point).
pub fn apply_region_split(prog: &mut Program, func: FuncId, split: &RegionSplit) -> BlockId {
    let f = prog.func_mut(func);
    let second_block = BlockId(f.blocks.len() as u32);
    let blk = f.block_mut(split.block);
    let tail: Vec<Inst> = blk.insts.split_off(split.split_at);
    let term = std::mem::replace(&mut blk.term, Terminator::Jmp(second_block));
    blk.insts.insert(
        0,
        Inst::new(Op::SptFork {
            start: second_block,
        }),
    );
    f.blocks.push(Block { insts: tail, term });
    second_block
}

/// Convenience: find and apply in one step.
pub fn speculate_region(
    prog: &mut Program,
    func: FuncId,
    block: BlockId,
    params: &CostParams,
    call_costs: &HashMap<FuncId, f64>,
) -> Option<(BlockId, RegionSplit)> {
    let split = find_region_split(prog, func, block, params, call_costs)?;
    let start = apply_region_split(prog, func, &split);
    Some((start, split))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_interp::run;
    use spt_mach::MachineConfig;
    use spt_sim::{simulate_baseline, LoopAnnotations, SptSim};
    use spt_sir::{BinOp, ProgramBuilder, Reg};

    const FUEL: u64 = 5_000_000;

    /// Two serial chains of `work` ops each in one region block, with all
    /// inputs (constants, addresses) defined in the entry block so the
    /// region's halves are genuinely independent unless `dependent`.
    fn two_chains(work: usize, dependent: bool) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let a0 = f.const_reg(3);
        let b0 = f.const_reg(5);
        let addr_a = f.const_reg(0);
        let addr_b = f.const_reg(8);
        let region = f.new_block();
        let tail = f.new_block();
        f.jmp(region);
        f.switch_to(region);
        // First chain.
        let mut a = a0;
        for _ in 0..work {
            let t = f.reg();
            f.bin(BinOp::Add, t, a, a0);
            a = t;
        }
        f.store(a, addr_a, 0);
        // Second chain — independent unless `dependent`, in which case it
        // starts from the first chain's result.
        let seed = if dependent { a } else { b0 };
        let mut b = seed;
        for _ in 0..work {
            let t = f.reg();
            f.bin(BinOp::Sub, t, b, b0);
            b = t;
        }
        f.store(b, addr_b, 1);
        f.jmp(tail);
        f.switch_to(tail);
        let va = f.reg();
        f.load(va, addr_a, 0);
        let vb = f.reg();
        f.load(vb, addr_b, 1);
        let out = f.reg();
        f.bin(BinOp::Xor, out, va, vb);
        f.ret(Some(out));
        let id = f.finish();
        pb.finish(id, 16)
    }

    fn run_spt(prog: &Program) -> (Option<i64>, u64) {
        let rep = SptSim::new(prog, MachineConfig::default(), LoopAnnotations::empty()).run(FUEL);
        assert!(!rep.out_of_fuel);
        (rep.ret, rep.cycles)
    }

    #[test]
    fn independent_halves_split_near_middle_and_speed_up() {
        let prog = two_chains(60, false);
        let (seq, _) = run(&prog, FUEL);
        let base = simulate_baseline(
            &prog,
            &MachineConfig::default().core,
            &LoopAnnotations::empty(),
            FUEL,
        );
        let mut prog2 = prog.clone();
        let (start, split) = speculate_region(
            &mut prog2,
            prog.entry,
            spt_sir::BlockId(1),
            &CostParams::default(),
            &HashMap::new(),
        )
        .expect("independent halves must be profitable");
        prog2.verify().unwrap();
        assert!(split.misspec_cost < 3.0, "misspec {}", split.misspec_cost);
        assert!(split.est_speedup > 1.5, "est {}", split.est_speedup);
        // The split is near the boundary between the chains.
        assert!(
            (split.first_cost - split.second_cost).abs() < split.first_cost,
            "roughly balanced: {} vs {}",
            split.first_cost,
            split.second_cost
        );
        let (got, cycles) = run_spt(&prog2);
        assert_eq!(got, seq.ret, "region speculation must preserve semantics");
        assert!(
            (cycles as f64) < 0.85 * base.cycles as f64,
            "SPT {} vs baseline {}",
            cycles,
            base.cycles
        );
        let _ = start;
    }

    #[test]
    fn dependent_halves_still_correct() {
        let prog = two_chains(30, true);
        let (seq, _) = run(&prog, FUEL);
        let mut prog2 = prog.clone();
        // Force a mid split even though it is unprofitable: apply directly.
        let split = RegionSplit {
            block: spt_sir::BlockId(1),
            split_at: prog.func(prog.entry).block(spt_sir::BlockId(1)).insts.len() / 2,
            first_cost: 0.0,
            second_cost: 0.0,
            misspec_cost: 0.0,
            est_speedup: 1.0,
        };
        apply_region_split(&mut prog2, prog.entry, &split);
        prog2.verify().unwrap();
        let (got, _) = run_spt(&prog2);
        assert_eq!(got, seq.ret, "violations must be detected and repaired");
    }

    #[test]
    fn fully_dependent_region_rejected() {
        let prog = two_chains(30, true);
        let split = find_region_split(
            &prog,
            prog.entry,
            spt_sir::BlockId(1),
            &CostParams::default(),
            &HashMap::new(),
        );
        // A serial chain through both halves leaves nothing to win.
        if let Some(s) = split {
            assert!(
                s.est_speedup < 1.4,
                "serial region should not look great: {}",
                s.est_speedup
            );
        }
    }

    #[test]
    fn tiny_blocks_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let r = f.const_reg(1);
        f.ret(Some(r));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        assert!(find_region_split(
            &prog,
            id,
            spt_sir::BlockId(0),
            &CostParams::default(),
            &HashMap::new()
        )
        .is_none());
    }

    #[test]
    fn split_program_shape() {
        let prog = two_chains(10, false);
        let mut prog2 = prog.clone();
        let (start, split) = speculate_region(
            &mut prog2,
            prog.entry,
            spt_sir::BlockId(1),
            &CostParams::default(),
            &HashMap::new(),
        )
        .unwrap();
        let f2 = prog2.func(prog.entry);
        // Region block: fork first, then first half, then jmp to the start.
        let b0 = f2.block(spt_sir::BlockId(1));
        assert!(matches!(b0.insts[0].op, Op::SptFork { .. }));
        assert_eq!(b0.term, Terminator::Jmp(start));
        assert_eq!(b0.insts.len() - 1, split.split_at);
        // The new block carries the original terminator (jmp to the tail).
        let b1 = f2.block(start);
        assert_eq!(b1.term, Terminator::Jmp(spt_sir::BlockId(2)));
        let _ = Reg(0);
    }
}
