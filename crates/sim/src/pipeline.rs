//! One in-order pipeline core of the speculation fabric.
//!
//! [`PipelineCore`] wraps a timing [`Engine`] together with the per-pipe
//! stall bookkeeping that feeds `StallTransition` trace events, and
//! provides the canonical issue sequence — capture the breakdown, issue,
//! attribute the cycle delta, note the stall transition — that the
//! baseline simulator and every core of the SPT fabric previously
//! duplicated inline.

use crate::engine::{CycleBreakdown, Engine};
use crate::metrics::LoopCycleTracker;
use spt_interp::Step;
use spt_mach::{CacheSim, CoreConfig};
use spt_trace::{Pipe, StallClass, TraceEvent, TraceSink};

/// An in-order pipeline plus its trace-facing stall state.
pub struct PipelineCore {
    pub engine: Engine,
    pipe: Pipe,
    /// Last stall class reported for this pipe (trace-only state).
    last_stall: Option<StallClass>,
    /// Breakdown before the most recent issue and the cycle right after
    /// it, pending a [`PipelineCore::note_stall`].
    pending: Option<(CycleBreakdown, u64)>,
}

impl PipelineCore {
    pub fn new(cfg: &CoreConfig, pipe: Pipe) -> Self {
        PipelineCore {
            engine: Engine::new(cfg),
            pipe,
            last_stall: None,
            pending: None,
        }
    }

    /// Issue one step; returns the cycle delta it cost. The before/after
    /// breakdown is remembered for a later [`PipelineCore::note_stall`].
    #[inline(always)]
    pub fn issue(&mut self, ev: &Step, cache: &mut CacheSim, cfg: &CoreConfig) -> u64 {
        let before = self.engine.cycle();
        let before_bd = self.engine.breakdown();
        self.engine.issue(ev, cache, cfg);
        self.pending = Some((before_bd, self.engine.cycle()));
        self.engine.cycle() - before
    }

    /// [`PipelineCore::issue`] without the before/after breakdown capture:
    /// for untraced runs, where no [`PipelineCore::note_stall`] will ever
    /// consume it. Same engine mutation, so timing is identical.
    #[inline(always)]
    pub fn issue_quiet(&mut self, ev: &Step, cache: &mut CacheSim, cfg: &CoreConfig) -> u64 {
        let before = self.engine.cycle();
        self.engine.issue(ev, cache, cfg);
        self.engine.cycle() - before
    }

    /// Commit one already-computed SRB result at replay bandwidth;
    /// returns the cycle delta.
    #[inline(always)]
    pub fn commit_slot(&mut self, ev: &Step) -> u64 {
        let before = self.engine.cycle();
        self.engine.commit_slot(ev);
        self.engine.cycle() - before
    }

    /// Emit a `StallTransition` if the most recent issue attributed new
    /// idle cycles to a different stall class than last reported for this
    /// pipe. A no-op when nothing was issued since the last note.
    pub fn note_stall(&mut self, sink: &mut dyn TraceSink) {
        let Some((before, cycle)) = self.pending.take() else {
            return;
        };
        let after = self.engine.breakdown();
        let kind = if after.dcache_stall > before.dcache_stall {
            Some(StallClass::DCache)
        } else if after.pipe_stall > before.pipe_stall {
            Some(StallClass::Pipeline)
        } else {
            None
        };
        if let Some(k) = kind {
            if self.last_stall != Some(k) {
                self.last_stall = Some(k);
                sink.emit(
                    cycle,
                    TraceEvent::StallTransition {
                        pipe: self.pipe,
                        kind: k,
                    },
                );
            }
        }
    }

    /// The canonical main-pipeline step: issue, attribute the cycle delta
    /// to the loop tracker, and note any stall transition.
    #[inline(always)]
    pub fn step_issue(
        &mut self,
        ev: &Step,
        cache: &mut CacheSim,
        cfg: &CoreConfig,
        tracker: &mut LoopCycleTracker<'_>,
        sink: &mut dyn TraceSink,
    ) {
        let delta = self.issue(ev, cache, cfg);
        tracker.observe(ev, delta);
        if sink.enabled() {
            self.note_stall(sink);
        }
    }

    /// [`PipelineCore::step_issue`] for untraced runs: no breakdown
    /// capture, no stall note, no per-step virtual sink call.
    #[inline(always)]
    pub fn step_issue_quiet(
        &mut self,
        ev: &Step,
        cache: &mut CacheSim,
        cfg: &CoreConfig,
        tracker: &mut LoopCycleTracker<'_>,
    ) {
        let delta = self.issue_quiet(ev, cache, cfg);
        tracker.observe(ev, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LoopAnnotations;
    use spt_interp::{Cursor, DecodedProgram, Memory};
    use spt_sir::{BinOp, Program, ProgramBuilder};
    use spt_trace::RingBufferSink;

    fn loady_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("m", 0);
        let base = f.const_reg(0);
        let v = f.reg();
        f.load(v, base, 0);
        let d = f.reg();
        f.bin(BinOp::Add, d, v, v); // waits on the cold miss
        f.ret(Some(d));
        let id = f.finish();
        pb.finish(id, 8)
    }

    #[test]
    fn step_issue_matches_manual_sequence() {
        let cfg = CoreConfig::default();
        let prog = loady_program();
        let mut core = PipelineCore::new(&cfg, Pipe::Main);
        let mut cache = CacheSim::new(&cfg);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let annots = LoopAnnotations::empty();
        let mut tracker = LoopCycleTracker::new(&annots);
        let mut sink = RingBufferSink::unbounded();

        let mut manual = Engine::new(&cfg);
        let mut manual_cache = CacheSim::new(&cfg);
        let mut manual_mem = Memory::for_program(&prog);
        let mut manual_cur = Cursor::at_entry(&dec);

        while let Some(ev) = cur.step(&mut mem) {
            core.step_issue(&ev, &mut cache, &cfg, &mut tracker, &mut sink);
            let mev = manual_cur.step(&mut manual_mem).unwrap();
            manual.issue(&mev, &mut manual_cache, &cfg);
        }
        assert_eq!(core.engine.cycle(), manual.cycle());
        assert_eq!(core.engine.instrs(), manual.instrs());
        assert_eq!(core.engine.breakdown(), manual.breakdown());
    }

    #[test]
    fn stall_transitions_emitted_on_class_change_only() {
        let cfg = CoreConfig::default();
        let prog = loady_program();
        let mut core = PipelineCore::new(&cfg, Pipe::Spec);
        let mut cache = CacheSim::new(&cfg);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let annots = LoopAnnotations::empty();
        let mut tracker = LoopCycleTracker::new(&annots);
        let mut sink = RingBufferSink::unbounded();
        while let Some(ev) = cur.step(&mut mem) {
            core.step_issue(&ev, &mut cache, &cfg, &mut tracker, &mut sink);
        }
        // The cold load causes exactly one transition into DCache; repeat
        // stalls of the same class must not re-emit.
        let dcache: Vec<_> = sink
            .records()
            .filter(|r| {
                matches!(
                    r.ev,
                    TraceEvent::StallTransition {
                        pipe: Pipe::Spec,
                        kind: StallClass::DCache
                    }
                )
            })
            .collect();
        assert_eq!(dcache.len(), 1);
    }

    #[test]
    fn note_stall_without_issue_is_noop() {
        let cfg = CoreConfig::default();
        let mut core = PipelineCore::new(&cfg, Pipe::Main);
        let mut sink = RingBufferSink::unbounded();
        core.note_stall(&mut sink);
        assert_eq!(sink.records().count(), 0);
    }
}
