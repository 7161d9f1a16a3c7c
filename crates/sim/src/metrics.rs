//! Loop annotations, per-loop cycle attribution, and report types.

use spt_interp::Step;
use spt_sir::{BlockId, FuncId};

/// A loop region of interest (one SPT loop, or any loop being profiled).
#[derive(Clone, Debug)]
pub struct LoopAnnot {
    /// Caller-chosen identifier (stable across baseline and SPT runs).
    pub id: usize,
    pub func: FuncId,
    /// Blocks belonging to the loop, sorted.
    pub blocks: Vec<BlockId>,
    /// The speculative start-point block, if this is a transformed SPT loop.
    pub fork_start: Option<BlockId>,
}

impl LoopAnnot {
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }
}

/// The set of annotated loops for a program (must be non-overlapping —
/// SPT loops never nest, enforced by compiler selection).
#[derive(Clone, Debug, Default)]
pub struct LoopAnnotations {
    pub loops: Vec<LoopAnnot>,
}

impl LoopAnnotations {
    pub fn empty() -> Self {
        Self::default()
    }

    /// The loop whose start-point is `block` in `func`, if any.
    pub fn by_fork_start(&self, func: FuncId, block: BlockId) -> Option<usize> {
        self.loops
            .iter()
            .position(|l| l.func == func && l.fork_start == Some(block))
    }
}

/// Attributes main-pipeline cycle deltas to the annotated loop currently
/// executing. Calls made from inside a loop are attributed to the loop;
/// leaving the loop's blocks at the loop's frame depth ends the region.
pub struct LoopCycleTracker<'a> {
    annots: &'a LoopAnnotations,
    /// `lookup[func][block]` = annot index owning that block, or
    /// [`NO_LOOP`]. `observe` runs once per main-pipeline step, so
    /// membership is one flat table read instead of a scan over the
    /// annotations with a binary search each (annotated loops never
    /// overlap, so the owning loop is unique).
    lookup: Vec<Vec<u16>>,
    /// (annot index, frame depth at entry)
    active: Option<(usize, u32)>,
    /// Cycles attributed per annot index.
    cycles: Vec<u64>,
    /// Dynamic instructions attributed per annot index.
    instrs: Vec<u64>,
}

/// Sentinel in [`LoopCycleTracker::lookup`]: block belongs to no loop.
const NO_LOOP: u16 = u16::MAX;

impl<'a> LoopCycleTracker<'a> {
    pub fn new(annots: &'a LoopAnnotations) -> Self {
        let n = annots.loops.len();
        let mut lookup: Vec<Vec<u16>> = Vec::new();
        for (i, l) in annots.loops.iter().enumerate() {
            let fi = l.func.index();
            if lookup.len() <= fi {
                lookup.resize_with(fi + 1, Vec::new);
            }
            let per = &mut lookup[fi];
            for &b in &l.blocks {
                let bi = b.index();
                if per.len() <= bi {
                    per.resize(bi + 1, NO_LOOP);
                }
                if per[bi] == NO_LOOP {
                    // First annotation wins, matching `LoopAnnotations::find`.
                    per[bi] = i as u16;
                }
            }
        }
        LoopCycleTracker {
            annots,
            lookup,
            active: None,
            cycles: vec![0; n],
            instrs: vec![0; n],
        }
    }

    /// The annot index owning `block` of `func`, if any (flat lookup;
    /// equivalent to `LoopAnnotations::find`).
    #[inline]
    fn loop_at(&self, func: FuncId, block: BlockId) -> Option<usize> {
        match self.lookup.get(func.index())?.get(block.index()) {
            Some(&i) if i != NO_LOOP => Some(i as usize),
            _ => None,
        }
    }

    /// Current loop annot index, if inside one.
    pub fn current(&self) -> Option<usize> {
        self.active.map(|(i, _)| i)
    }

    /// Observe one main-pipeline step and the cycle delta it caused.
    #[inline(always)]
    pub fn observe(&mut self, ev: &Step, cycle_delta: u64) {
        let (func, block) = (ev.func(), ev.block());
        // One flat membership lookup serves both the exit and entry checks
        // (a block belongs to at most one annotated loop).
        let here = self.loop_at(func, block);
        // Exit checks.
        if let Some((idx, depth)) = self.active {
            if ev.depth < depth || (ev.depth == depth && here != Some(idx)) {
                self.active = None;
            }
        }
        // Entry check (only at the step's own depth).
        if self.active.is_none() {
            if let Some(idx) = here {
                self.active = Some((idx, ev.depth));
            }
        }
        if let Some((idx, _)) = self.active {
            self.cycles[idx] += cycle_delta;
            self.instrs[idx] += 1;
        }
    }

    /// Attribute extra cycles (e.g. commit overhead) to the current loop.
    pub fn attribute_extra(&mut self, cycle_delta: u64) {
        if let Some((idx, _)) = self.active {
            self.cycles[idx] += cycle_delta;
        }
    }

    pub fn cycles(&self) -> &[u64] {
        &self.cycles
    }

    pub fn instrs(&self) -> &[u64] {
        &self.instrs
    }

    pub fn annotations(&self) -> &'a LoopAnnotations {
        self.annots
    }

    /// Fold the attributed cycles and instructions into per-loop stat
    /// rows (one row per annotation, in annotation order) — the common
    /// tail of both the baseline and SPT report paths.
    pub fn fold_into(&self, per_loop: &mut [PerLoopStats]) {
        for (i, pl) in per_loop.iter_mut().enumerate() {
            pl.cycles = self.cycles[i];
            pl.instrs = self.instrs[i];
        }
    }
}

/// Per-SPT-loop speculation statistics (Figure 8 inputs).
#[derive(Clone, Debug, Default)]
pub struct PerLoopStats {
    pub id: usize,
    /// Main-pipeline cycles attributed to the loop region.
    pub cycles: u64,
    /// Dynamic main-pipeline instructions in the region.
    pub instrs: u64,
    pub forks: u64,
    pub fast_commits: u64,
    pub replays: u64,
    /// Squash-kills: loop-exit `spt_kill` plus replay divergences.
    pub kills: u64,
    /// Speculatively executed instructions (SRB entries that reached a
    /// dependence check).
    pub spec_instrs: u64,
    /// Of those, instructions that were misspeculated and re-executed.
    pub spec_misspec: u64,
}

impl PerLoopStats {
    pub fn fast_commit_ratio(&self) -> f64 {
        if self.forks == 0 {
            0.0
        } else {
            self.fast_commits as f64 / self.forks as f64
        }
    }

    pub fn misspeculation_ratio(&self) -> f64 {
        if self.spec_instrs == 0 {
            0.0
        } else {
            self.spec_misspec as f64 / self.spec_instrs as f64
        }
    }
}

/// Per-core statistics of the speculation fabric (core 0 is the
/// architectural pipeline; cores 1..N-1 host speculative threads).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerCoreStats {
    /// Fabric core index.
    pub core: usize,
    /// Instructions issued by this core's pipeline (for speculative
    /// cores: speculative instructions, whether or not they committed).
    pub instrs: u64,
    /// Speculative threads spawned onto this core (always 0 for core 0).
    pub threads: u64,
    /// Threads hosted here that fast-committed.
    pub fast_commits: u64,
    /// Threads hosted here that went through replay.
    pub replays: u64,
    /// Threads hosted here that were killed, squashed, or divergence-
    /// killed.
    pub kills: u64,
}

impl PerCoreStats {
    /// Fraction of threads hosted on this core that fast-committed
    /// (0 for an idle core).
    pub fn fast_commit_ratio(&self) -> f64 {
        if self.threads == 0 {
            0.0
        } else {
            self.fast_commits as f64 / self.threads as f64
        }
    }

    /// Fraction of hosted threads whose work was (partly) wasted:
    /// replayed or killed (0 for an idle core).
    pub fn waste_ratio(&self) -> f64 {
        if self.threads == 0 {
            0.0
        } else {
            (self.replays + self.kills) as f64 / self.threads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_interp::DecodedProgram;
    use spt_sir::ProgramBuilder;

    /// A decoded program whose functions 0 and 1 each have blocks `0..10`,
    /// every one a bare terminator, so [`ev`] can stand a step anywhere.
    fn dec() -> DecodedProgram {
        let mut pb = ProgramBuilder::new();
        let g = pb.declare("g", 0);
        let mut f = pb.func("main", 0);
        for _ in 1..10 {
            let b = f.new_block();
            f.jmp(b);
            f.switch_to(b);
        }
        f.ret(None);
        let main = f.finish();
        let mut f = pb.build(g);
        for _ in 1..10 {
            let b = f.new_block();
            f.jmp(b);
            f.switch_to(b);
        }
        f.ret(None);
        f.finish();
        DecodedProgram::new(&pb.finish(main, 0))
    }

    fn ev(dec: &DecodedProgram, func: u32, block: u32, depth: u32) -> Step<'_> {
        Step::new(dec.func(FuncId(func)).term(BlockId(block)), depth)
    }

    fn annots() -> LoopAnnotations {
        LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 7,
                func: FuncId(0),
                blocks: vec![BlockId(2), BlockId(3)],
                fork_start: Some(BlockId(2)),
            }],
        }
    }

    #[test]
    fn attributes_cycles_inside_loop_blocks() {
        let a = annots();
        let d = dec();
        let mut t = LoopCycleTracker::new(&a);
        t.observe(&ev(&d, 0, 1, 0), 5); // outside
        assert_eq!(t.current(), None);
        t.observe(&ev(&d, 0, 2, 0), 3); // enter loop
        assert_eq!(t.current(), Some(0));
        t.observe(&ev(&d, 0, 3, 0), 2); // still inside
        t.observe(&ev(&d, 0, 1, 0), 4); // exit
        assert_eq!(t.current(), None);
        assert_eq!(t.cycles()[0], 5);
        assert_eq!(t.instrs()[0], 2);
    }

    #[test]
    fn callee_events_attributed_to_loop() {
        let a = annots();
        let d = dec();
        let mut t = LoopCycleTracker::new(&a);
        t.observe(&ev(&d, 0, 2, 0), 1); // enter loop at depth 0
        t.observe(&ev(&d, 1, 0, 1), 9); // inside a callee (deeper)
        assert_eq!(t.current(), Some(0));
        t.observe(&ev(&d, 0, 2, 0), 1); // back in loop
        t.observe(&ev(&d, 0, 9, 0), 1); // exit at same depth, other block
        assert_eq!(t.current(), None);
        assert_eq!(t.cycles()[0], 11);
    }

    #[test]
    fn returning_below_entry_depth_exits_loop() {
        let a = annots();
        let d = dec();
        let mut t = LoopCycleTracker::new(&a);
        t.observe(&ev(&d, 0, 2, 3), 1); // loop entered at depth 3
        t.observe(&ev(&d, 0, 0, 2), 1); // shallower: left the frame
        assert_eq!(t.current(), None);
        assert_eq!(t.cycles()[0], 1);
    }

    #[test]
    fn fork_start_lookup() {
        let a = annots();
        assert_eq!(a.by_fork_start(FuncId(0), BlockId(2)), Some(0));
        assert_eq!(a.by_fork_start(FuncId(0), BlockId(3)), None);
        assert_eq!(a.by_fork_start(FuncId(1), BlockId(2)), None);
    }

    #[test]
    fn ratios() {
        let s = PerLoopStats {
            forks: 10,
            fast_commits: 6,
            spec_instrs: 1000,
            spec_misspec: 12,
            ..Default::default()
        };
        assert!((s.fast_commit_ratio() - 0.6).abs() < 1e-9);
        assert!((s.misspeculation_ratio() - 0.012).abs() < 1e-9);
        let z = PerLoopStats::default();
        assert_eq!(z.fast_commit_ratio(), 0.0);
        assert_eq!(z.misspeculation_ratio(), 0.0);
    }

    #[test]
    fn per_core_ratios_guard_zero_denominators() {
        let idle = PerCoreStats {
            core: 3,
            ..Default::default()
        };
        assert_eq!(idle.fast_commit_ratio(), 0.0);
        assert_eq!(idle.waste_ratio(), 0.0);
        assert!(idle.fast_commit_ratio().is_finite());
        let busy = PerCoreStats {
            core: 1,
            threads: 8,
            fast_commits: 6,
            replays: 1,
            kills: 1,
            ..Default::default()
        };
        assert!((busy.fast_commit_ratio() - 0.75).abs() < 1e-9);
        assert!((busy.waste_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fold_into_copies_attribution() {
        let a = annots();
        let d = dec();
        let mut t = LoopCycleTracker::new(&a);
        t.observe(&ev(&d, 0, 2, 0), 3);
        t.observe(&ev(&d, 0, 3, 0), 2);
        let mut per_loop = vec![PerLoopStats {
            id: 7,
            forks: 5,
            ..Default::default()
        }];
        t.fold_into(&mut per_loop);
        assert_eq!(per_loop[0].cycles, 5);
        assert_eq!(per_loop[0].instrs, 2);
        assert_eq!(per_loop[0].forks, 5, "non-attribution fields untouched");
    }
}
