//! In-order issue engine: the per-pipeline timing model.
//!
//! One [`Engine`] models one in-order pipeline (Table 1: 6-wide issue,
//! 12-wide during replay). It consumes interpreter [`Step`] records in
//! program order and advances a cycle counter, stalling on operand readiness
//! (scoreboard), structural issue-width limits, and branch mispredictions
//! (GAg + 5-cycle penalty). Loads go to the shared cache hierarchy.
//!
//! Every idle gap is attributed to a stall class so the simulators can
//! produce the Figure 9 breakdown: *execution* (cycles with at least one
//! instruction issued), *pipeline stall* (operand latency, branch penalty,
//! SPT overheads), and *D-cache stall* (waiting on a load result).

use spt_interp::Step;
use spt_mach::{CacheSim, CoreConfig, GagPredictor, ProducerKind, Scoreboard};
use spt_sir::LatClass;

/// Why the pipeline was idle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    Pipeline,
    DCache,
}

/// Attribution of `pipe_stall` cycles to their proximate cause, so the
/// Figure 9 pipe-stall cells can be decomposed further.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Waiting out a branch-misprediction fetch redirect.
    pub fetch_gate: u64,
    /// Waiting on a non-load operand producer (ALU/mul/div latency).
    pub operand: u64,
    /// Explicit `advance_to` jumps (SPT overheads: RF copy, fast commit).
    pub advance: u64,
}

impl StallBreakdown {
    pub fn total(&self) -> u64 {
        self.fetch_gate + self.operand + self.advance
    }
}

/// Cycle accounting of one pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles in which at least one instruction issued.
    pub busy: u64,
    /// Idle cycles waiting on non-load producers, branch penalty, or SPT
    /// overheads (fork copy, fast commit).
    pub pipe_stall: u64,
    /// Idle cycles waiting on a load result.
    pub dcache_stall: u64,
    /// Cause attribution of `pipe_stall`; `stall.total() == pipe_stall`.
    pub stall: StallBreakdown,
}

impl CycleBreakdown {
    pub fn total(&self) -> u64 {
        self.busy + self.pipe_stall + self.dcache_stall
    }
}

/// One in-order pipeline.
pub struct Engine {
    cycle: u64,
    slots_used: u64,
    width: u64,
    /// No instruction may issue before this (branch-misprediction redirect).
    fetch_gate: u64,
    sb: Scoreboard,
    bp: GagPredictor,
    // accounting
    last_busy_cycle: u64,
    started: bool,
    breakdown: CycleBreakdown,
    instrs: u64,
    bp_lookups: u64,
    bp_mispredicts: u64,
}

impl Engine {
    pub fn new(cfg: &CoreConfig) -> Self {
        Engine {
            cycle: 0,
            slots_used: 0,
            width: cfg.issue_width,
            fetch_gate: 0,
            sb: Scoreboard::new(),
            bp: GagPredictor::new(cfg.bp_entries),
            last_busy_cycle: u64::MAX,
            started: false,
            breakdown: CycleBreakdown::default(),
            instrs: 0,
            bp_lookups: 0,
            bp_mispredicts: 0,
        }
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    pub fn breakdown(&self) -> CycleBreakdown {
        self.breakdown
    }

    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    pub fn bp_mispredicts(&self) -> u64 {
        self.bp_mispredicts
    }

    pub fn bp_lookups(&self) -> u64 {
        self.bp_lookups
    }

    /// Switch issue width (normal ↔ replay).
    pub fn set_width(&mut self, w: u64) {
        self.width = w.max(1);
    }

    /// Jump the cycle counter forward (SPT overheads: RF copy, fast
    /// commit); the skipped cycles are attributed as pipeline stalls.
    pub fn advance_to(&mut self, t: u64) {
        if t > self.cycle {
            let g = self.gap_to(t);
            self.breakdown.pipe_stall += g;
            self.breakdown.stall.advance += g;
            self.cycle = t;
            self.slots_used = 0;
        }
    }

    /// Earliest cycle at which an instruction at `depth` reading `regs`
    /// could issue, without issuing anything. Used by the SPT scheduler to
    /// model a *stalled* speculative pipeline: a speculative instruction
    /// whose operands are not ready yet has not issued, so an arriving main
    /// thread does not wait for it.
    pub fn ready_time(&self, depth: u32, regs: impl IntoIterator<Item = u32>) -> u64 {
        // `operands_ready_time` folds in the frame baseline and the floor,
        // so only the cycle counter and fetch gate remain to clamp.
        self.cycle
            .max(self.fetch_gate)
            .max(self.sb.operands_ready_time(depth, regs))
    }

    /// Upper bound of [`Engine::ready_time`] over *any* instruction at
    /// `depth`: cycle counter, fetch gate, and the scoreboard's whole-frame
    /// readiness bound. At or below `t`, the exact gate of the next
    /// instruction is provably ≤ `t` without its operand list.
    pub fn ready_bound(&self, depth: u32) -> u64 {
        self.cycle
            .max(self.fetch_gate)
            .max(self.sb.frame_ready_bound(depth))
    }

    /// Lower bound of [`Engine::ready_time`] that needs no operand list:
    /// the cycle counter, fetch gate and frame baseline alone. Lets the
    /// SPT scheduler prove "cannot issue by cycle `t`" without walking the
    /// next instruction's source registers.
    pub fn ready_floor(&self, depth: u32) -> u64 {
        self.cycle
            .max(self.fetch_gate)
            .max(self.sb.frame_baseline(depth))
    }

    /// Idle cycles between now and `t`, excluding the current cycle if an
    /// instruction already issued in it (it is counted as busy).
    fn gap_to(&self, t: u64) -> u64 {
        let mut gap = t - self.cycle;
        if self.started && self.last_busy_cycle == self.cycle {
            gap = gap.saturating_sub(1);
        }
        gap
    }

    /// All registers become ready at `t` (context copy).
    pub fn reset_context(&mut self, t: u64) {
        self.sb.reset_all(t);
    }

    /// Issue one step with full semantics: operand wait, issue-width
    /// limits, latency (loads via `cache`), branch prediction. Returns the
    /// completion cycle of the step's result.
    #[inline(always)]
    pub fn issue(&mut self, ev: &Step, cache: &mut CacheSim, cfg: &CoreConfig) -> u64 {
        // 1. Operand readiness (baseline + per-operand fold, frame located
        // once — see `Scoreboard::operands_ready`).
        let (ready, cause) = self
            .sb
            .operands_ready(ev.depth, ev.srcs().iter().map(|r| r.0));

        // 2. Earliest issue cycle.
        let start = self.cycle.max(ready).max(self.fetch_gate);
        if start > self.cycle {
            let gap = self.gap_to(start);
            // Attribute the dominant cause: fetch redirect counts as
            // pipeline; a load-produced operand as D-cache.
            if ready >= self.fetch_gate && cause == ProducerKind::Load {
                self.breakdown.dcache_stall += gap;
            } else {
                self.breakdown.pipe_stall += gap;
                if self.fetch_gate > ready {
                    self.breakdown.stall.fetch_gate += gap;
                } else {
                    self.breakdown.stall.operand += gap;
                }
            }
            self.cycle = start;
            self.slots_used = 0;
        }

        // 3. Structural: issue-width slots.
        let need = ev.slots();
        if self.slots_used + need > self.width {
            self.note_busy();
            self.cycle += 1;
            self.slots_used = 0;
        }
        self.note_busy();
        self.slots_used += need;
        self.instrs += 1;
        let at = self.cycle;

        // 4. Latency.
        let lat = self.latency_of(ev, at, cache, cfg);

        // 5. Scoreboard update.
        if let Some(dst) = ev.dst() {
            let kind = if ev.lat() == LatClass::Load && ev.executed {
                ProducerKind::Load
            } else {
                ProducerKind::Other
            };
            self.sb.set_ready(ev.dst_depth(), dst.0, at + lat, kind);
        }
        if ev.is_call() {
            // Callee frame registers become available when the call issues.
            self.sb.enter_frame(ev.depth + 1, at + lat);
        }
        if ev.is_ret() {
            self.sb.truncate_below(ev.dst_depth());
        }

        // 6. Branch prediction.
        if ev.is_cond_branch() {
            self.bp_lookups += 1;
            if !self.bp.predict_and_update(ev.taken) {
                self.bp_mispredicts += 1;
                self.fetch_gate = at + 1 + cfg.bp_penalty;
            }
        }

        at + lat
    }

    /// Commit one already-computed result from the speculation result
    /// buffer: consumes an issue slot at replay bandwidth, makes the
    /// destination ready immediately, performs no operand wait and no
    /// prediction.
    #[inline(always)]
    pub fn commit_slot(&mut self, ev: &Step) -> u64 {
        let need = ev.slots();
        if self.slots_used + need > self.width {
            self.note_busy();
            self.cycle += 1;
            self.slots_used = 0;
        }
        self.note_busy();
        self.slots_used += need;
        self.instrs += 1;
        if let Some(dst) = ev.dst() {
            self.sb
                .set_ready(ev.dst_depth(), dst.0, self.cycle, ProducerKind::Other);
        }
        self.cycle
    }

    fn note_busy(&mut self) {
        if !self.started || self.last_busy_cycle != self.cycle {
            self.breakdown.busy += 1;
            self.last_busy_cycle = self.cycle;
            self.started = true;
        }
    }

    #[inline(always)]
    fn latency_of(&self, ev: &Step, at: u64, cache: &mut CacheSim, cfg: &CoreConfig) -> u64 {
        if !ev.executed {
            return 1; // predicated-off: occupies the slot only
        }
        match ev.lat() {
            LatClass::Alu | LatClass::Spt | LatClass::Nop => cfg.lat_alu,
            LatClass::Mul => cfg.lat_mul,
            LatClass::Div => cfg.lat_div,
            LatClass::Call => cfg.lat_call,
            LatClass::Store => {
                if let Some(addr) = ev.addr {
                    // Stores allocate in the cache but their latency is
                    // hidden by the store pipeline.
                    cache.access(addr, at);
                }
                cfg.lat_store
            }
            LatClass::Load => {
                if let Some(addr) = ev.addr {
                    cache.access(addr, at)
                } else {
                    cfg.lat_alu
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_interp::{Cursor, DecodedProgram, Memory};
    use spt_sir::{BinOp, Program, ProgramBuilder};

    fn cfg() -> CoreConfig {
        CoreConfig::default()
    }

    /// Run a whole program through a single engine; return (cycles, instrs).
    fn time_program(prog: &Program) -> (u64, u64, CycleBreakdown) {
        let c = cfg();
        let mut eng = Engine::new(&c);
        let mut cache = CacheSim::new(&c);
        let mut mem = Memory::for_program(prog);
        let dec = DecodedProgram::new(prog);
        let mut cur = Cursor::at_entry(&dec);
        while let Some(ev) = cur.step(&mut mem) {
            eng.issue(&ev, &mut cache, &c);
        }
        (eng.cycle(), eng.instrs(), eng.breakdown())
    }

    fn straightline(n: usize) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("m", 0);
        // Independent constants: no data dependences.
        for _ in 0..n {
            let r = f.reg();
            f.const_(r, 1);
        }
        f.ret(None);
        let id = f.finish();
        pb.finish(id, 0)
    }

    #[test]
    fn independent_instructions_issue_six_wide() {
        // 60 independent consts + ret: ~11 cycles at width 6.
        let (cycles, instrs, _) = time_program(&straightline(60));
        assert_eq!(instrs, 61);
        assert!(cycles <= 12, "cycles = {cycles}");
        assert!(cycles >= 9);
    }

    #[test]
    fn dependent_chain_serializes() {
        // r_{i+1} = r_i + r_i: a serial dependence chain of 40 adds.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("m", 0);
        let mut prev = f.const_reg(1);
        for _ in 0..40 {
            let nxt = f.reg();
            f.bin(BinOp::Add, nxt, prev, prev);
            prev = nxt;
        }
        f.ret(Some(prev));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (cycles, _, _) = time_program(&prog);
        // Must take at least one cycle per chained add.
        assert!(cycles >= 40, "cycles = {cycles}");
    }

    #[test]
    fn mul_div_latencies_respected() {
        let c = cfg();
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("m", 0);
        let a = f.const_reg(5);
        let b = f.reg();
        f.bin(BinOp::Div, b, a, a);
        let d = f.reg();
        f.bin(BinOp::Add, d, b, b); // waits for div
        f.ret(Some(d));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (cycles, _, bd) = time_program(&prog);
        assert!(cycles >= c.lat_div, "cycles = {cycles}");
        assert!(bd.pipe_stall > 0, "div latency must appear as pipe stall");
    }

    #[test]
    fn cold_load_counts_dcache_stall() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("m", 0);
        let base = f.const_reg(0);
        let v = f.reg();
        f.load(v, base, 0);
        let d = f.reg();
        f.bin(BinOp::Add, d, v, v); // waits for the 150-cycle miss
        f.ret(Some(d));
        let id = f.finish();
        let prog = pb.finish(id, 8);
        let (cycles, _, bd) = time_program(&prog);
        assert!(cycles >= 150);
        assert!(bd.dcache_stall >= 140, "dcache_stall = {}", bd.dcache_stall);
    }

    #[test]
    fn breakdown_totals_are_consistent() {
        let (cycles, _, bd) = time_program(&straightline(100));
        // busy + stalls should approximate total cycles (within the final
        // in-flight window).
        assert!(bd.total() <= cycles + 2);
        assert!(bd.total() + 2 >= cycles);
        assert_eq!(bd.stall.total(), bd.pipe_stall);
    }

    #[test]
    fn advance_to_counts_pipeline_stall() {
        let c = cfg();
        let mut eng = Engine::new(&c);
        eng.advance_to(10);
        assert_eq!(eng.cycle(), 10);
        assert_eq!(eng.breakdown().pipe_stall, 10);
        assert_eq!(eng.breakdown().stall.advance, 10);
        eng.advance_to(5); // no-op backwards
        assert_eq!(eng.cycle(), 10);
    }

    #[test]
    fn commit_slot_uses_bandwidth_only() {
        let c = cfg();
        let mut eng = Engine::new(&c);
        eng.set_width(12);
        let prog = straightline(1);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let ev = cur.step(&mut mem).unwrap();
        // 24 commits at width 12 -> 2 cycles of bandwidth.
        for _ in 0..24 {
            eng.commit_slot(&ev);
        }
        assert!(eng.cycle() <= 2, "cycle = {}", eng.cycle());
        assert_eq!(eng.instrs(), 24);
    }

    #[test]
    fn branch_mispredict_applies_penalty() {
        let c = cfg();
        // Alternating unpredictable-at-first branch: ensure the engine ever
        // applies fetch gating (mispredicts > 0 on random-ish pattern).
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("m", 0);
        let i = f.reg();
        let n = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(n, 40);
        f.jmp(body);
        f.switch_to(body);
        f.addi(i, i, 1);
        // cond = i & 1 — alternates; plus loop branch.
        let one = f.const_reg(1);
        let parity = f.reg();
        f.bin(BinOp::And, parity, i, one);
        let c2 = f.reg();
        f.bin(BinOp::CmpLt, c2, i, n);
        f.br(c2, body, exit);
        f.switch_to(exit);
        f.ret(None);
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let mut eng = Engine::new(&c);
        let mut cache = CacheSim::new(&c);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        while let Some(ev) = cur.step(&mut mem) {
            eng.issue(&ev, &mut cache, &c);
        }
        assert!(eng.bp_lookups() >= 40);
        // The loop-exit branch at minimum mispredicts once.
        assert!(eng.bp_mispredicts() >= 1);
    }
}
