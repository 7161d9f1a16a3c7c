//! The SPT speculation-fabric simulator (§3 of the paper, generalized to
//! N cores).
//!
//! Execution model: core 0 (the main pipeline) always executes the main
//! program thread over architectural memory. When it executes `spt_fork`,
//! the register context is copied (1 cycle minimum) and a speculative
//! pipeline begins executing real code at the start-point over a private
//! speculative store buffer. There is no register communication or
//! synchronization between the threads; all speculative results go to the
//! thread's speculation result buffer (SRB) in program order, and a
//! speculative pipeline stalls when its SRB is full.
//!
//! At N=2 this is exactly the paper's dual-pipeline machine. With more
//! cores the fabric forms a ring of successive iterations (in the style of
//! Prophet's successor cores): when the *youngest* speculative thread
//! itself executes `spt_fork` and a ring core is free, the next iteration
//! starts there speculatively; a thread that reaches its successor's
//! start-point parks rather than re-executing the successor's work. A
//! speculative fork with no free core is dropped silently, exactly as the
//! two-core machine drops it.
//!
//! When the main thread arrives at the *oldest* thread's start-point, the
//! dependence checkers run:
//!
//! * register check — live-in registers read by the speculative thread vs.
//!   registers the main thread modified after the fork point (mark-based),
//!   or whose *values* changed between fork-point and start-point
//!   (value-based, the Table 1 default);
//! * memory check — the load address buffer (LAB) vs. main-thread store
//!   addresses issued before the start-point.
//!
//! What happens next is decided by the configured
//! [`RecoveryKind`](spt_mach::RecoveryKind)'s two predicates: under the
//! default (selective re-execution with fast commit), no violation →
//! *fast commit* — the speculative register context is copied back (5
//! cycles minimum), outstanding SSB stores are written back (and checked
//! against downstream threads' LABs), and the main thread resumes where
//! the speculative thread stopped; any violation → *replay* — the main
//! pipeline walks the SRB in program order at replay width (12),
//! committing correct results directly and re-executing only misspeculated
//! instructions. A replay or squash invalidates every downstream ring
//! thread (they forked from a context the recovery just rewrote).
//!
//! One run is a private `Fabric` value with one method per protocol
//! transition: `spawn` (a main-pipeline or ring fork), `step_ready_thread`
//! (a speculative pipeline catching up), `arrive` (the check, then commit,
//! squash or replay), `kill_ring` and `finish` (the report).

use crate::engine::{CycleBreakdown, Engine};
use crate::metrics::{LoopAnnotations, LoopCycleTracker, PerCoreStats, PerLoopStats};
use crate::pipeline::PipelineCore;
use crate::specset::{AddrList, AddrMembers, DepthRegSet, RegSet};
use crate::ssb::{SpecMem, Ssb};
use spt_interp::{Cursor, CursorParts, DecOp, DecodedProgram, Memory, Step};
use spt_mach::{CacheSim, CacheStats, MachineConfig, RegCheckPolicy};
use spt_sir::{BlockId, FuncId, Program};
use spt_trace::{NullSink, Pipe, TraceEvent, TraceSink};

/// Result of an SPT run.

#[derive(Clone, Debug)]
pub struct SptReport {
    /// Program execution time: main-pipeline cycles.
    pub cycles: u64,
    /// Instructions retired by the main pipeline (incl. replay commits).
    pub instrs: u64,
    pub breakdown: CycleBreakdown,
    pub cache: CacheStats,
    /// Speculative threads spawned (main-thread forks plus ring forks).
    pub forks: u64,
    /// Main-thread forks ignored because speculation was already running.
    pub forks_ignored: u64,
    pub fast_commits: u64,
    pub replays: u64,
    /// `spt_kill` + safety kills (loop exits) + downstream invalidations.
    pub kills: u64,
    /// Replay terminations due to control divergence.
    pub divergence_kills: u64,
    /// Speculatively executed instructions that reached a dependence check.
    pub spec_instrs_checked: u64,
    /// Speculatively executed instructions discarded by kills.
    pub spec_instrs_discarded: u64,
    /// Misspeculated instructions re-executed during replay.
    pub spec_misspec: u64,
    pub per_loop: Vec<PerLoopStats>,
    /// Per-fabric-core statistics (length = configured core count).
    pub per_core: Vec<PerCoreStats>,
    /// Main-pipeline branch predictor statistics.
    pub bp_mispredicts: u64,
    pub bp_lookups: u64,
    pub ret: Option<i64>,
    pub steps: u64,
    pub out_of_fuel: bool,
    /// Always 0: the block memo is gone, but the benchmark crate reads it.
    pub superstep_hits: u64,
    /// Always 0: the block memo is gone, but the benchmark crate reads it.
    pub superstep_misses: u64,
}

impl SptReport {
    /// Fraction of spawned speculative threads that fast-committed.
    pub fn fast_commit_ratio(&self) -> f64 {
        if self.forks == 0 {
            0.0
        } else {
            self.fast_commits as f64 / self.forks as f64
        }
    }

    /// Misspeculated fraction of all speculatively executed instructions.
    pub fn misspeculation_ratio(&self) -> f64 {
        let total = self.spec_instrs_checked + self.spec_instrs_discarded;
        if total == 0 {
            0.0
        } else {
            self.spec_misspec as f64 / total as f64
        }
    }

    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Fraction of speculative-core instructions relative to the whole
    /// fabric (0.0 when per-core stats are absent or empty).
    pub fn spec_core_instr_share(&self) -> f64 {
        let total: u64 = self.per_core.iter().map(|c| c.instrs).sum();
        if total == 0 {
            0.0
        } else {
            let spec: u64 = self.per_core.iter().skip(1).map(|c| c.instrs).sum();
            spec as f64 / total as f64
        }
    }
}

/// One speculation-result-buffer entry: what replay reads back of a
/// speculative step — its code index (for the control-divergence check),
/// whether it executed, the value it moved (destination value or stored
/// value, as in [`Step::val`]) and its memory access.
#[derive(Clone, Copy, Debug)]
struct SrbEntry {
    pc: u32,
    executed: bool,
    /// An executed load: `addr` is the word it read.
    load: bool,
    /// An executed store: `addr` and `val` are the word and value it
    /// wrote.
    store: bool,
    addr: u64,
    val: i64,
}

/// Pin the entry's size: a full 1024-entry SRB is 24 KiB per thread.
const _: () = assert!(std::mem::size_of::<SrbEntry>() <= 24);

impl SrbEntry {
    /// The entry of step `s`, which executed the instruction at `pc`.
    #[inline(always)]
    fn of(pc: u32, s: &Step) -> Self {
        let mem = s.addr.is_some();
        let store = s.is_store();
        SrbEntry {
            pc,
            executed: s.executed,
            load: mem && !store,
            store: mem && store,
            addr: s.addr.unwrap_or(0),
            val: s.val,
        }
    }
}

/// The heap buffers of one finished speculative thread, detached from the
/// decoded-program borrow so the run's thread free list can hold them.
/// Contents are dead; [`SpecState::acquire`] clears every field before
/// reuse.
#[derive(Default)]
struct SpecBufs {
    cursor: CursorParts,
    ssb: Ssb,
    lab: AddrMembers,
    srb: Vec<SrbEntry>,
    live_in_reads: RegSet,
    live_in_vals: Vec<(u32, i64)>,
    spec_written: RegSet,
    post_fork_writes: RegSet,
    violated_addrs: AddrList,
}

/// State of one live speculative thread.
struct SpecState<'p> {
    cursor: Cursor<'p>,
    /// Fabric core hosting this thread (1-based; core 0 is architectural).
    core: usize,
    ssb: Ssb,
    /// Load address buffer: speculative loads that went to cache/memory.
    lab: AddrMembers,
    srb: Vec<SrbEntry>,
    /// Fork-level registers read by the speculative thread before writing.
    live_in_reads: RegSet,
    /// `(register, fork-time value)` per live-in, captured lazily at the
    /// first read: a register this thread has not yet written still holds
    /// its fork-time value in the thread's own fork-level frame, so the
    /// capture replaces the eager whole-frame snapshot the fork path used
    /// to copy. Insertion order; exactly the members of `live_in_reads`.
    live_in_vals: Vec<(u32, i64)>,
    /// Fork-level registers written by the speculative thread.
    spec_written: RegSet,
    /// Fork-level registers written by the main thread post-fork (plus,
    /// for downstream ring threads, by committed predecessors).
    post_fork_writes: RegSet,
    /// Memory words where a post-fork store hit the LAB.
    violated_addrs: AddrList,
    /// Index of the frame that was live at the fork.
    fork_level: usize,
    /// `frames.len()` at fork (start-point depth).
    start_depth: usize,
    /// Code index of the start-point: the first statement (or the
    /// terminator of an empty block) of the forked block.
    start_pc: u32,
    /// Cached earliest main-pipeline cycle this thread's next instruction
    /// could issue (`u64::MAX` once halted). Refreshed after each of the
    /// thread's own steps (nothing else moves its cursor or engine).
    /// When `gate_exact` is false this is only a *lower bound* (engine
    /// cycle / fetch gate / frame baseline, no operand walk) — still
    /// sufficient to prove ineligibility whenever it exceeds the main
    /// cycle; [`SpecState::refine_gate`] upgrades it on demand.
    gate: u64,
    gate_exact: bool,
    stalled: bool,
    /// Annotated loop this fork belongs to, if known.
    loop_idx: Option<usize>,
    /// Cycle at which the fork issued (trace attribution).
    fork_cycle: u64,
}

impl<'p> SpecState<'p> {
    /// Fork a new thread from `parent` at block `start` onto fabric core
    /// `core`: pop a finished thread's buffers from `free` or construct
    /// them, then reset them once. Every reset is observationally fresh
    /// construction (the SSB grows to this run's memory: new slots carry
    /// stamp 0, old stamps are dead behind the epoch bump), so the hot
    /// fork path reuses register files, store-buffer slots and stamp
    /// tables instead of allocating.
    fn acquire(
        free: &mut Vec<SpecBufs>,
        parent: &Cursor<'p>,
        start: BlockId,
        mem_words: usize,
        core: usize,
        loop_idx: Option<usize>,
        fork_cycle: u64,
    ) -> Self {
        let b = free.pop().unwrap_or_default();
        let mut cursor = Cursor::empty_in(parent.decoded(), b.cursor);
        parent.fork_speculative_into(start, &mut cursor);
        let start_pc = cursor.pc().expect("a fork is live");
        let mut st = SpecState {
            cursor,
            core,
            ssb: b.ssb,
            lab: b.lab,
            srb: b.srb,
            live_in_reads: b.live_in_reads,
            live_in_vals: b.live_in_vals,
            spec_written: b.spec_written,
            post_fork_writes: b.post_fork_writes,
            violated_addrs: b.violated_addrs,
            fork_level: parent.depth() - 1,
            start_depth: parent.depth(),
            start_pc,
            gate: 0,
            gate_exact: false,
            stalled: false,
            loop_idx,
            fork_cycle,
        };
        st.ssb.clear();
        st.ssb.ensure_words(mem_words);
        st.lab.clear();
        st.srb.clear();
        st.live_in_reads.clear();
        st.live_in_vals.clear();
        st.spec_written.clear();
        st.post_fork_writes.clear();
        st.violated_addrs.clear();
        st
    }

    /// Retire this thread's heap buffers to the free list.
    fn into_bufs(self) -> SpecBufs {
        SpecBufs {
            cursor: self.cursor.into_parts(),
            ssb: self.ssb,
            lab: self.lab,
            srb: self.srb,
            live_in_reads: self.live_in_reads,
            live_in_vals: self.live_in_vals,
            spec_written: self.spec_written,
            post_fork_writes: self.post_fork_writes,
            violated_addrs: self.violated_addrs,
        }
    }

    /// Recompute the cached gate: the earliest cycle the next instruction
    /// could issue on this thread's own engine (`ready_time` is ≥ the
    /// engine's cycle, so one cached value subsumes the old `eng.cycle()
    /// ≤ main && ready ≤ main` pair). Only this thread's own steps change
    /// it — each thread owns its core's engine — so this runs once per
    /// step instead of once per scheduler scan.
    ///
    /// The gate is computed lazily against `by` (the frozen main cycle):
    /// a speculative pipeline usually runs *ahead* of the main one, and
    /// then [`Engine::ready_floor`] alone already exceeds `by` — the
    /// operand walk (the next instruction's operands + per-register
    /// scoreboard reads) is skipped and the floor is stored as an inexact
    /// lower bound. Scans that later see the bound at or below their main
    /// cycle refine it first via [`SpecState::refine_gate`], so
    /// eligibility decisions are unchanged.
    fn refresh_gate(&mut self, eng: &Engine, by: u64) {
        if self.cursor.is_halted() {
            self.gate = u64::MAX;
            self.gate_exact = true;
            return;
        }
        let depth = (self.cursor.depth() - 1) as u32;
        let floor = eng.ready_floor(depth);
        if floor > by || eng.ready_bound(depth) <= by {
            // Either the thread is provably not ready by `by`, or every
            // register of the frame is provably ready by then (so the
            // exact gate is ≤ `by` too and the thread stays eligible
            // without the operand walk). The floor stands in as the usual
            // inexact lower bound; the next scan refines it before
            // trusting the value.
            self.gate = floor;
            self.gate_exact = false;
        } else {
            self.gate_exact = false;
            self.refine_gate(eng);
        }
    }

    /// Upgrade a lazily-computed gate lower bound to the exact issue
    /// cycle. A no-op once exact; exactness persists until the thread's
    /// next own step (nothing else moves its engine or cursor).
    fn refine_gate(&mut self, eng: &Engine) {
        if !self.gate_exact {
            if let Some(inst) = self.cursor.next_inst() {
                let depth = (self.cursor.depth() - 1) as u32;
                let srcs = self.cursor.decoded().srcs(inst);
                self.gate = eng.ready_time(depth, srcs.iter().map(|r| r.0));
            }
            self.gate_exact = true;
        }
    }

    /// One speculative-pipeline step. Returns the fork request (`spt_fork`
    /// function and start block) if this step executed one.
    fn step(
        &mut self,
        core: &mut PipelineCore,
        cache: &mut CacheSim,
        mem: &mut Memory,
        cfg: &MachineConfig,
        traced: bool,
    ) -> Option<(FuncId, BlockId)> {
        let Some(pc) = self.cursor.pc() else {
            self.stalled = true;
            return None;
        };
        let mut view = SpecMem {
            ssb: &mut self.ssb,
            base: mem,
        };
        let ev = self.cursor.step(&mut view).expect("a live cursor steps");

        // Precise live-in tracking at the fork level, with lazy fork-value
        // capture: a register this thread has not yet written still holds
        // its fork-time value in its own fork-level frame (nothing else
        // writes a speculative cursor), so recording the value at first
        // read reconstructs the fork-time snapshot without a per-fork
        // whole-frame copy.
        if ev.depth as usize == self.fork_level {
            let dec = self.cursor.decoded();
            for r in ev.operands(dec) {
                if self.spec_written.contains(r.0) || self.live_in_reads.contains(r.0) {
                    continue;
                }
                self.live_in_reads.insert(r.0);
                let v = if self.cursor.depth() <= self.fork_level {
                    // A `ret` popped the fork frame before the operand
                    // could be read back; the only register a `ret` reads
                    // is the returned one, which the cursor preserves.
                    self.cursor.last_ret_read()
                } else if ev.dst() == Some(*r) {
                    // This statement overwrote the register it read
                    // (e.g. `i = i + 1`): the fork-time value is the one
                    // the write displaced.
                    self.cursor.last_overwritten()
                } else {
                    self.cursor.regs_at(self.fork_level)[r.index()]
                };
                self.live_in_vals.push((r.0, v));
            }
        }
        if let Some(dst) = ev.dst() {
            if ev.dst_depth() as usize == self.fork_level {
                self.spec_written.insert(dst.0);
            }
        }

        // LAB: record loads that went to cache/memory (not SSB-forwarded).
        // Speculative stores do not touch the cache until commit, and a
        // load the store buffer forwards costs one cycle without a cache
        // access: both issue with the memory access hidden.
        let mut tev = ev;
        if let Some(addr) = ev.addr {
            if ev.is_store() || self.ssb.contains(addr) {
                tev = ev.without_mem();
            } else {
                self.lab.insert(addr);
            }
        }
        if traced {
            core.issue(&tev, cache, &cfg.core);
        } else {
            core.issue_quiet(&tev, cache, &cfg.core);
        }

        self.srb.push(SrbEntry::of(pc, &ev));
        // Stall on a full SRB, on a halt, or (wrong-path safety) when the
        // thread returned out of the fork frame.
        if self.srb.len() >= cfg.srb_entries
            || self.cursor.depth() <= self.fork_level
            || self.cursor.is_halted()
        {
            self.stalled = true;
        }
        ev.fork().map(|start| (ev.func(), start))
    }
}

/// Who executed an `spt_fork`: the main pipeline, or the ring thread at
/// this index (always the youngest).
#[derive(Clone, Copy)]
enum Parent {
    Main,
    Ring(usize),
}

/// The counters of one run; [`Fabric::finish`] moves each into the
/// [`SptReport`] field of the same name.
#[derive(Default)]
struct Counters {
    steps: u64,
    forks: u64,
    forks_ignored: u64,
    fast_commits: u64,
    replays: u64,
    kills: u64,
    divergence_kills: u64,
    spec_instrs_checked: u64,
    spec_instrs_discarded: u64,
    spec_misspec: u64,
}

/// One run of the speculation fabric: the main pipeline, the ring of
/// speculative threads, and everything they account into. Each method
/// below is one transition of the protocol in the module docs.
struct Fabric<'p> {
    cfg: &'p MachineConfig,
    annots: &'p LoopAnnotations,
    sink: &'p mut dyn TraceSink,
    /// `sink.enabled()`, hoisted: a sink's enabled-ness never changes
    /// mid-run, so the per-step paths branch on a field instead of a
    /// virtual call.
    traced: bool,
    max_steps: u64,
    mem: Memory,
    cache: CacheSim,
    main: Cursor<'p>,
    main_core: PipelineCore,
    /// Cores 1..N-1, created once per run and reused across threads:
    /// `advance_to` + `reset_context` at each spawn model the RF copy,
    /// while each engine keeps accumulating its per-core statistics.
    spec_cores: Vec<PipelineCore>,
    /// Live speculative threads, oldest (next to be checked) first.
    ring: Vec<SpecState<'p>>,
    /// Count of leading ring threads known parked. A parked thread stays
    /// parked until it leaves the ring (arrival or kill), so the scan
    /// starts past them; `arrive` rolls it back by one and `kill_ring`
    /// to zero.
    lead: usize,
    /// The one thread free list: the buffers of every thread this run has
    /// finished. Empty at the start of each run.
    free: Vec<SpecBufs>,
    /// Scratch for the fork-level registers a fast-committed thread (or
    /// the main thread during its lifetime) wrote, refilled per commit
    /// so the steady state allocates nothing.
    committed_writes: Vec<u32>,
    tracker: LoopCycleTracker<'p>,
    per_loop: Vec<PerLoopStats>,
    per_core: Vec<PerCoreStats>,
    n: Counters,
    /// Trace-only state (untouched when the sink is disabled).
    srb_high_water: usize,
}

impl<'p> Fabric<'p> {
    /// Build every component of one run.
    fn new(sim: &'p SptSim<'_>, max_steps: u64, sink: &'p mut dyn TraceSink) -> Self {
        let cfg = &sim.cfg;
        let cores = cfg.cores.max(2);
        Fabric {
            cfg,
            annots: &sim.annots,
            traced: sink.enabled(),
            sink,
            max_steps,
            mem: Memory::for_program(sim.prog),
            cache: CacheSim::new(&cfg.core),
            main: Cursor::at_entry(&sim.dec),
            main_core: PipelineCore::new(&cfg.core, Pipe::Main),
            spec_cores: (1..cores)
                .map(|_| PipelineCore::new(&cfg.core, Pipe::Spec))
                .collect(),
            ring: Vec::new(),
            lead: 0,
            free: Vec::new(),
            committed_writes: Vec::new(),
            tracker: LoopCycleTracker::new(&sim.annots),
            per_loop: sim
                .annots
                .loops
                .iter()
                .map(|l| PerLoopStats {
                    id: l.id,
                    ..Default::default()
                })
                .collect(),
            per_core: (0..cores)
                .map(|c| PerCoreStats {
                    core: c,
                    ..Default::default()
                })
                .collect(),
            n: Counters::default(),
            srb_high_water: 0,
        }
    }

    /// Run until the main thread halts or the step budget is spent.
    fn run(&mut self) {
        while !self.main.is_halted() && self.n.steps < self.max_steps {
            if !self.step_ready_thread() {
                self.step_main();
            }
        }
    }

    /// A fork: `parent` executed `spt_fork` to block `start` of `func`.
    /// The new thread takes the lowest free ring core — core 1 whenever
    /// the ring is empty — once the register file is copied
    /// (`rf_copy_overhead` cycles after the parent's current cycle).
    fn spawn(&mut self, parent: Parent, func: FuncId, start: BlockId) {
        let core = (1..=self.spec_cores.len())
            .find(|c| !self.ring.iter().any(|s| s.core == *c))
            .expect("a spawn needs a free core");
        let (parent_cycle, fallback) = match parent {
            // Fall back to the enclosing annotated loop.
            Parent::Main => (self.main_core.engine.cycle(), self.tracker.current()),
            Parent::Ring(i) => {
                let p = &self.ring[i];
                (self.spec_cores[p.core - 1].engine.cycle(), p.loop_idx)
            }
        };
        let loop_idx = self.annots.by_fork_start(func, start).or(fallback);
        self.n.forks += 1;
        if let Some(li) = loop_idx {
            self.per_loop[li].forks += 1;
        }
        if self.traced {
            let ev = match parent {
                Parent::Main => TraceEvent::Fork {
                    loop_id: loop_idx,
                    func,
                    start_block: start,
                },
                Parent::Ring(_) => TraceEvent::RingFork {
                    loop_id: loop_idx,
                    core,
                    func,
                    start_block: start,
                },
            };
            self.sink.emit(parent_cycle, ev);
        }
        let t = parent_cycle + self.cfg.rf_copy_overhead;
        let eng = &mut self.spec_cores[core - 1].engine;
        eng.advance_to(t);
        eng.reset_context(t);
        self.per_core[core].threads += 1;
        let parent_cursor = match parent {
            Parent::Main => &mut self.main,
            Parent::Ring(i) => &mut self.ring[i].cursor,
        };
        let mut st = SpecState::acquire(
            &mut self.free,
            parent_cursor,
            start,
            self.mem.len(),
            core,
            loop_idx,
            parent_cycle,
        );
        // Rebase the parent's fork-level dirty mask to the fork instant:
        // from here on a clear bit proves the register still holds the
        // value the new thread lazily captures at first read, which is
        // exactly what the dirty-filtered value check relies on. A ring
        // parent's mask reaches the main cursor through its commit adopt.
        parent_cursor.clear_dirty_at(st.fork_level);
        st.refresh_gate(
            &self.spec_cores[core - 1].engine,
            self.main_core.engine.cycle(),
        );
        self.ring.push(st);
    }

    /// Let the speculative pipelines catch up in time: step the oldest
    /// thread whose next instruction could actually issue by the main
    /// cycle (an operand still in flight leaves the pipeline stalled, not
    /// running ahead of wall-clock), and keep stepping it while it stays
    /// eligible. Returns whether a thread stepped.
    fn step_ready_thread(&mut self) -> bool {
        let main_cycle = self.main_core.engine.cycle();
        while self.lead < self.ring.len() && self.ring[self.lead].stalled {
            self.lead += 1;
        }
        let mut step_idx = None;
        for (i, sp) in self.ring.iter_mut().enumerate().skip(self.lead) {
            // No park check here: a thread can only reach its successor's
            // start-point by stepping, and the batch loop checks after
            // every step (the successor's identity is fixed at its fork,
            // which the same batch also covers), so the scan would never
            // see an unparked thread at it.
            if !sp.stalled && sp.gate <= main_cycle {
                // A lazily-bounded gate at or below the main cycle proves
                // nothing yet. The frame-level readiness bound usually
                // settles it without the operand walk: when every register
                // of the frame is ready by the main cycle, so is the next
                // instruction's operand set (the gate stays an inexact
                // lower bound). Otherwise refine to the exact issue cycle
                // before committing.
                let eng = &self.spec_cores[sp.core - 1].engine;
                let eligible = sp.gate_exact
                    || eng.ready_bound((sp.cursor.depth() - 1) as u32) <= main_cycle
                    || {
                        sp.refine_gate(eng);
                        sp.gate <= main_cycle
                    };
                if eligible {
                    step_idx = Some(i);
                    break;
                }
            }
        }
        let Some(i) = step_idx else {
            return false;
        };
        // Batch: keep stepping thread `i` while it stays eligible. Every
        // thread before `i` was ineligible at scan time and stays so while
        // only `i` steps (each thread owns its core's engine, successors'
        // start-points are static and the main pipeline is idle here), so
        // re-scanning the prefix between steps is pure overhead; only
        // `i`'s own park/stall/gate conditions can change.
        loop {
            self.n.steps += 1;
            let sp = &mut self.ring[i];
            let core = &mut self.spec_cores[sp.core - 1];
            let fork_req = sp.step(core, &mut self.cache, &mut self.mem, self.cfg, self.traced);
            if self.traced {
                if sp.srb.len() > self.srb_high_water {
                    self.srb_high_water = sp.srb.len();
                    self.sink.emit(
                        core.engine.cycle(),
                        TraceEvent::SrbHighWater {
                            occupancy: self.srb_high_water,
                        },
                    );
                }
                core.note_stall(self.sink);
            }
            sp.refresh_gate(&core.engine, main_cycle);
            // A speculative thread's own `spt_fork`: the youngest thread
            // spawns the next iteration on a free ring core; with no free
            // core (always, at N=2) it is dropped silently.
            if let Some((func, start)) = fork_req {
                if i + 1 == self.ring.len() && self.ring.len() < self.spec_cores.len() {
                    self.spawn(Parent::Ring(i), func, start);
                }
            }
            if self.n.steps >= self.max_steps {
                break;
            }
            // Park check: the thread reached its successor's start-point,
            // so hold it rather than re-execute the successor's iteration.
            // Stepping is the only way to get there, so checking after
            // every step covers every park transition.
            if let [sp, nxt, ..] = &mut self.ring[i..] {
                if sp.cursor.depth() == nxt.start_depth && sp.cursor.at_pc(nxt.start_pc) {
                    sp.stalled = true;
                }
            }
            let sp = &self.ring[i];
            if sp.stalled || sp.gate > main_cycle {
                break;
            }
        }
        true
    }

    /// Step the main pipeline until something changes the ring: an
    /// arrival, a fork, a kill, or the first cycle a speculative thread
    /// could become eligible again.
    fn step_main(&mut self) {
        // No speculative thread can become eligible before `next_gate`:
        // gates, stall flags and park inputs change only when a
        // speculative thread steps, and none steps while the main pipeline
        // runs. Inexact gates are lower bounds of the true issue cycle, so
        // the minimum is still a sound batching horizon (worst case: an
        // early rescan that refines them).
        let next_gate = self.ring[self.lead..]
            .iter()
            .filter(|s| !s.stalled)
            .map(|s| s.gate)
            .min()
            .unwrap_or(u64::MAX);
        // The oldest thread's start-point is static for the whole batch
        // (every path that changes the ring returns), so hoist it out of
        // the per-step arrival check.
        let arrival = self.ring.first().map(|s| (s.start_pc, s.start_depth));
        loop {
            if let Some((pc, depth)) = arrival {
                if self.main.at_pc(pc) && self.main.depth() == depth {
                    self.arrive();
                    return;
                }
            }
            let Some(ev) = self.main.step(&mut self.mem) else {
                return;
            };
            self.n.steps += 1;
            let (cache, core_cfg) = (&mut self.cache, &self.cfg.core);
            if self.traced {
                let sink = &mut *self.sink;
                self.main_core
                    .step_issue(&ev, cache, core_cfg, &mut self.tracker, sink);
            } else {
                self.main_core
                    .step_issue_quiet(&ev, cache, core_cfg, &mut self.tracker);
            }

            if let Some(start) = ev.fork() {
                if self.ring.is_empty() {
                    self.spawn(Parent::Main, ev.func(), start);
                } else {
                    // Speculation is already running: the fork is ignored.
                    self.n.forks_ignored += 1;
                    if self.traced {
                        self.sink.emit(
                            self.main_core.engine.cycle(),
                            TraceEvent::ForkIgnored {
                                func: ev.func(),
                                start_block: start,
                            },
                        );
                    }
                }
                return;
            }
            if ev.kill() {
                self.kill_ring();
                return;
            }

            // Track main post-fork register writes and store-address checks
            // against every live thread. Most steps are neither an
            // executed store nor (under the mark-based policy) a register
            // write, so screen once before walking the ring.
            if !self.ring.is_empty() {
                let store = ev.addr.filter(|_| ev.is_store());
                let mark_write =
                    self.cfg.reg_check == RegCheckPolicy::MarkBased && ev.dst().is_some();
                if store.is_some() || mark_write {
                    for sp in self.ring.iter_mut() {
                        // Post-fork write marks feed only the mark-based
                        // register check; the value-based check reads the
                        // cursor's dirty masks and the thread's lazily
                        // captured fork values instead.
                        if let Some(dst) = ev.dst().filter(|_| mark_write) {
                            if ev.dst_depth() as usize == sp.fork_level {
                                sp.post_fork_writes.insert(dst.0);
                            }
                        }
                        if let Some(addr) = store {
                            if sp.lab.contains(addr) {
                                sp.violated_addrs.insert(addr);
                            }
                        }
                    }
                }
                // Safety: main left the fork frame without a kill. All ring
                // threads speculate iterations of the same loop frame, so
                // all of them are dead.
                if self.main.depth() < self.ring[0].start_depth {
                    self.kill_ring();
                    return;
                }
            }
            if self.n.steps >= self.max_steps || self.main_core.engine.cycle() >= next_gate {
                return;
            }
        }
    }

    /// The main thread reached the oldest thread's start-point: run the
    /// dependence checkers, then fast-commit, squash or replay the thread
    /// as `cfg.recovery` says. Anything but a fast commit rewrote the
    /// state the downstream ring forked from, so it kills the ring.
    fn arrive(&mut self) {
        let sp = self.ring.remove(0);
        self.lead = self.lead.saturating_sub(1);
        self.n.spec_instrs_checked += sp.srb.len() as u64;
        if let Some(li) = sp.loop_idx {
            self.per_loop[li].spec_instrs += sp.srb.len() as u64;
        }
        let violated_regs: RegSet = match self.cfg.reg_check {
            RegCheckPolicy::MarkBased => sp.live_in_reads.intersection(&sp.post_fork_writes),
            // The fork-level dirty mask was cleared at the fork, so only
            // registers in dirty words can hold a value differing from the
            // captured fork-time one; a clean frame compares nothing.
            RegCheckPolicy::ValueBased => crate::specset::dirty_value_check(
                self.main.dirty_words_at(sp.fork_level),
                &sp.live_in_vals,
                self.main.regs_at(sp.fork_level),
            ),
        };
        let violated = !violated_regs.is_empty() || !sp.violated_addrs.is_empty();
        let recovery = self.cfg.recovery;
        if !violated && recovery.fast_commit() {
            self.fast_commit(sp);
            return;
        }
        if violated && recovery.squash_on_violation() {
            self.squash(&sp);
        } else {
            self.replay(&sp, violated_regs);
        }
        self.free.push(sp.into_bufs());
        self.kill_ring();
    }

    /// Adopt a violation-free thread's context wholesale.
    fn fast_commit(&mut self, mut sp: SpecState<'p>) {
        let eng = &mut self.main_core.engine;
        let before = eng.cycle();
        let spec_cycle = self.spec_cores[sp.core - 1].engine.cycle();
        let t = before.max(spec_cycle) + self.cfg.fast_commit_overhead;
        eng.advance_to(t);
        eng.reset_context(t);
        self.tracker.attribute_extra(eng.cycle() - before);
        if !self.ring.is_empty() {
            // The committed thread's stores are becoming architectural:
            // any downstream thread that speculatively loaded one of those
            // words read a stale value. Under mark-based checking every
            // register the committed thread wrote also counts,
            // conservatively, as a post-fork write for its successors.
            let mark_based = self.cfg.reg_check == RegCheckPolicy::MarkBased;
            let written = &mut self.committed_writes;
            written.clear();
            if mark_based {
                sp.spec_written
                    .union_sorted_into(&sp.post_fork_writes, written);
            }
            for sp2 in self.ring.iter_mut() {
                for a in sp.ssb.addrs() {
                    if sp2.lab.contains(a) {
                        sp2.violated_addrs.insert(a);
                    }
                }
                if mark_based {
                    sp2.post_fork_writes.extend_from_slice(written);
                }
            }
        }
        sp.ssb.drain_to(&mut self.mem);
        // Commit the speculative context. The register copy-back is a
        // *merge* at the fork-level frame: registers the speculative
        // thread wrote take its values; registers it never wrote keep the
        // main thread's — the main thread's post-fork writes are
        // program-order earlier than the speculative code and are only
        // superseded by speculative writes (the hardware tracks
        // spec-written registers in its scoreboard for exactly this). A
        // committing cursor that ran through the outermost `ret` has
        // already popped the fork-level frame — adopt it wholesale and
        // skip the merge (there is no frame left to blend into).
        //
        // Main's values are blended into the committing cursor first, then
        // it is adopted wholesale, so no per-commit register snapshot is
        // needed.
        if sp.fork_level < sp.cursor.depth() {
            sp.cursor
                .merge_frame_from(&self.main, sp.fork_level, sp.spec_written.words());
        }
        self.main.adopt(&sp.cursor);
        self.n.fast_commits += 1;
        if let Some(li) = sp.loop_idx {
            self.per_loop[li].fast_commits += 1;
        }
        self.per_core[sp.core].fast_commits += 1;
        if self.traced {
            self.sink.emit(
                self.main_core.engine.cycle(),
                TraceEvent::FastCommit {
                    loop_id: sp.loop_idx,
                    fork_cycle: sp.fork_cycle,
                    srb_len: sp.srb.len(),
                },
            );
        }
        self.free.push(sp.into_bufs());
    }

    /// Trash all of a violated thread's results; main re-executes them
    /// normally. Tearing the thread down costs the same minimum
    /// thread-management overhead as any other end-of-speculation action.
    fn squash(&mut self, sp: &SpecState<'p>) {
        let eng = &mut self.main_core.engine;
        eng.advance_to(eng.cycle() + self.cfg.fast_commit_overhead);
        // Everything in the SRB was wasted.
        let wasted = sp.srb.len() as u64;
        self.n.spec_misspec += wasted;
        if let Some(li) = sp.loop_idx {
            self.per_loop[li].kills += 1;
            self.per_loop[li].spec_misspec += wasted;
        }
        self.per_core[sp.core].kills += 1;
        if self.traced {
            self.sink.emit(
                self.main_core.engine.cycle(),
                TraceEvent::Squash {
                    loop_id: sp.loop_idx,
                    fork_cycle: sp.fork_cycle,
                    srb_len: sp.srb.len(),
                },
            );
        }
    }

    /// Replay a violated thread with selective re-execution: walk its SRB
    /// in program order at replay width, committing correct results
    /// directly and re-executing only misspeculated instructions, until
    /// the SRB ends or control diverges from the speculated path.
    /// Switching the main pipeline into replay mode costs at least as much
    /// as a commit (drain + speculation-buffer synchronization) — this is
    /// what makes the fast-commit shortcut a shortcut.
    fn replay(&mut self, sp: &SpecState<'p>, violated_regs: RegSet) {
        let (cfg, dec) = (self.cfg, self.main.decoded());
        let check_cycle = self.main_core.engine.cycle();
        self.n.replays += 1;
        if let Some(li) = sp.loop_idx {
            self.per_loop[li].replays += 1;
        }
        self.per_core[sp.core].replays += 1;
        self.main_core
            .engine
            .advance_to(check_cycle + cfg.fast_commit_overhead);
        self.main_core.engine.set_width(cfg.replay_width);

        // Sorted violation lists for the trace (the sets drive recovery;
        // the trace needs a deterministic order).
        let (trace_regs, trace_addrs) = if self.traced {
            let mut addrs: Vec<u64> = sp.violated_addrs.iter().collect();
            addrs.sort_unstable();
            (violated_regs.iter().collect::<Vec<u32>>(), addrs)
        } else {
            (Vec::new(), Vec::new())
        };
        let mut committed_n = 0usize;
        let mut reexec_n = 0usize;

        let mut updated = DepthRegSet::new();
        updated.seed_level(sp.fork_level as u32, violated_regs);
        let mut updated_addrs = AddrMembers::new();
        for a in sp.violated_addrs.iter() {
            updated_addrs.insert(a);
        }

        // `processed` = SRB entries fully replayed before this iteration.
        for (processed, entry) in sp.srb.iter().enumerate() {
            if self.n.steps >= self.max_steps {
                break;
            }
            // Control divergence: the correct path no longer matches the
            // speculated one — kill and resume normal execution here.
            if !self.main.at_pc(entry.pc) {
                self.n.divergence_kills += 1;
                if let Some(li) = sp.loop_idx {
                    self.per_loop[li].kills += 1;
                }
                self.per_core[sp.core].kills += 1;
                if self.traced {
                    self.sink.emit(
                        self.main_core.engine.cycle(),
                        TraceEvent::DivergenceKill {
                            loop_id: sp.loop_idx,
                            committed: processed,
                        },
                    );
                }
                break;
            }
            let cev = self.main.step(&mut self.mem).expect("not halted");
            self.n.steps += 1;

            // Misspeculation determination (the dependence checkers of §3.2
            // plus scoreboard propagation during replay).
            let mut missp = entry.executed != cev.executed;
            if !missp && cev.executed {
                missp = cev
                    .operands(dec)
                    .iter()
                    .any(|r| updated.contains(cev.depth, r.0))
                    || (entry.load && updated_addrs.contains(entry.addr));
            }

            // Timing: commit correct results directly; re-execute the rest.
            let delta = if missp {
                self.n.spec_misspec += 1;
                reexec_n += 1;
                if let Some(li) = sp.loop_idx {
                    self.per_loop[li].spec_misspec += 1;
                }
                self.main_core.issue(&cev, &mut self.cache, &cfg.core)
            } else {
                committed_n += 1;
                self.main_core.commit_slot(&cev)
            };
            self.tracker.observe(&cev, delta);

            // Propagate "updated" marks. A non-store entry's `val` is its
            // destination value (0 without one), and an entry at the same
            // position as a destination-writing step is no store.
            if let Some(dst) = cev.dst() {
                let converged = cfg.reg_check == RegCheckPolicy::ValueBased
                    && cev.val == entry.val
                    && cev.executed == entry.executed;
                if missp && !converged {
                    updated.insert(cev.dst_depth(), dst.0);
                } else {
                    updated.remove(cev.dst_depth(), dst.0);
                }
            }
            if let Some(addr) = cev.addr.filter(|_| cev.is_store()) {
                let spec_val = entry.store.then_some(entry.val);
                if missp && spec_val != Some(cev.val) {
                    updated_addrs.insert(addr);
                } else {
                    updated_addrs.remove(addr);
                }
            }
            // Calls: a poisoned argument poisons the callee parameter.
            if let DecOp::Call { args, .. } = cev.inst().op {
                for (i, a) in dec.operands(args).iter().enumerate() {
                    if updated.contains(cev.depth, a.0) {
                        updated.insert(cev.depth + 1, i as u32);
                    }
                }
            }
        }

        self.main_core.engine.set_width(cfg.core.issue_width);
        if self.traced {
            self.sink.emit(
                self.main_core.engine.cycle(),
                TraceEvent::Replay {
                    loop_id: sp.loop_idx,
                    fork_cycle: sp.fork_cycle,
                    check_cycle,
                    srb_len: sp.srb.len(),
                    committed: committed_n,
                    reexecuted: reexec_n,
                    reg_violations: trace_regs,
                    mem_violations: trace_addrs,
                },
            );
        }
        // The SSB is discarded: replay wrote corrected values to memory
        // directly.
    }

    /// Discard every live speculative thread (oldest first), attributing
    /// a kill to each.
    fn kill_ring(&mut self) {
        let cycle = self.main_core.engine.cycle();
        for sp in self.ring.drain(..) {
            self.n.kills += 1;
            self.n.spec_instrs_discarded += sp.srb.len() as u64;
            if let Some(li) = sp.loop_idx {
                self.per_loop[li].kills += 1;
            }
            self.per_core[sp.core].kills += 1;
            if self.traced {
                self.sink.emit(
                    cycle,
                    TraceEvent::Kill {
                        loop_id: sp.loop_idx,
                        fork_cycle: sp.fork_cycle,
                        srb_len: sp.srb.len(),
                    },
                );
            }
            self.free.push(sp.into_bufs());
        }
        self.lead = 0;
    }

    /// Build the report; the final architectural memory is returned with
    /// it (see [`SptSim::run_in`]).
    fn finish(mut self) -> (SptReport, Memory) {
        self.tracker.fold_into(&mut self.per_loop);
        self.per_core[0].instrs = self.main_core.engine.instrs();
        for (stats, core) in self.per_core[1..].iter_mut().zip(&self.spec_cores) {
            stats.instrs = core.engine.instrs();
        }
        let Counters {
            steps,
            forks,
            forks_ignored,
            fast_commits,
            replays,
            kills,
            divergence_kills,
            spec_instrs_checked,
            spec_instrs_discarded,
            spec_misspec,
        } = self.n;
        // Threads still live at the end never reached a check.
        let live: u64 = self.ring.iter().map(|s| s.srb.len() as u64).sum();
        let eng = &self.main_core.engine;
        let report = SptReport {
            cycles: eng.cycle() + 1,
            instrs: eng.instrs(),
            breakdown: eng.breakdown(),
            cache: self.cache.stats(),
            forks,
            forks_ignored,
            fast_commits,
            replays,
            kills,
            divergence_kills,
            spec_instrs_checked,
            spec_instrs_discarded: spec_instrs_discarded + live,
            spec_misspec,
            per_loop: self.per_loop,
            per_core: self.per_core,
            bp_mispredicts: eng.bp_mispredicts(),
            bp_lookups: eng.bp_lookups(),
            ret: self.main.return_value(),
            steps,
            out_of_fuel: !self.main.is_halted() && steps >= self.max_steps,
            superstep_hits: 0,
            superstep_misses: 0,
        };
        (report, self.mem)
    }
}

/// The SPT machine.
pub struct SptSim<'p> {
    prog: &'p Program,
    /// Pre-decoded instruction streams — the form the hot loops execute.
    dec: DecodedProgram,
    cfg: MachineConfig,
    annots: LoopAnnotations,
}

impl<'p> SptSim<'p> {
    /// Decode `prog` once for this machine; every [`SptSim::run`] and
    /// [`SptSim::run_in`] on the sim shares that decode.
    pub fn new(prog: &'p Program, cfg: MachineConfig, annots: LoopAnnotations) -> Self {
        SptSim {
            prog,
            dec: DecodedProgram::new(prog),
            cfg,
            annots,
        }
    }

    /// Run the program to completion (or until `max_steps` interpreter steps
    /// across all pipelines).
    pub fn run(&self, max_steps: u64) -> SptReport {
        self.run_in(max_steps, &mut NullSink).0
    }

    /// The simulation loop proper: build this run's memory, cache, cores
    /// and cursor, then run with `sink` receiving one event per observable
    /// speculation action. The final architectural memory image is
    /// returned so differential tests can compare the committed state
    /// against a sequential interpretation word for word.
    pub fn run_in(&self, max_steps: u64, sink: &mut dyn TraceSink) -> (SptReport, Memory) {
        let mut fabric = Fabric::new(self, max_steps, sink);
        fabric.run();
        fabric.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::simulate_baseline;
    use crate::metrics::LoopAnnot;
    use spt_interp::run;
    use spt_mach::RecoveryKind;
    use spt_sir::{BinOp, ProgramBuilder};

    const FUEL: u64 = 5_000_000;

    /// A hand-transformed SPT loop mirroring Figure 1's shape:
    /// independent per-iteration work (on disjoint memory), induction
    /// variable advanced pre-fork -> perfectly parallel iterations.
    ///
    /// for i in 0..n { heavy(i); } with body = `work` dependent ALU ops and
    /// a store to mem[i].
    fn parallel_loop(n: i64, work: usize) -> (Program, LoopAnnotations) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(nn, n);
        f.jmp(body);
        f.switch_to(body);
        // pre-fork: advance the induction variable for the next iteration.
        let cur = f.reg();
        f.mov(cur, i);
        f.addi(i, i, 1);
        f.spt_fork(body);
        // post-fork: serial ALU chain on `cur` then a store (all private).
        let mut acc = f.reg();
        f.mov(acc, cur);
        for _ in 0..work {
            let nx = f.reg();
            f.bin(BinOp::Add, nx, acc, acc);
            acc = nx;
        }
        f.store(acc, cur, 0);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.spt_kill();
        f.ret(Some(i));
        let id = f.finish();
        let prog = pb.finish(id, n as usize + 4);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: id,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        (prog, annots)
    }

    /// A fully serial loop: acc = f(acc) each iteration (cross-iteration
    /// dependence read in the post-fork region -> every thread violated).
    fn serial_loop(n: i64, work: usize) -> (Program, LoopAnnotations) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.reg();
        let acc = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(nn, n);
        f.const_(acc, 1);
        f.jmp(body);
        f.switch_to(body);
        f.addi(i, i, 1);
        f.spt_fork(body);
        // post-fork: serial chain through acc (cross-iteration).
        for _ in 0..work {
            let one = f.const_reg(1);
            let t = f.reg();
            f.bin(BinOp::Add, t, acc, one);
            f.mov(acc, t);
        }
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.spt_kill();
        f.ret(Some(acc));
        let id = f.finish();
        let prog = pb.finish(id, 4);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: id,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        (prog, annots)
    }

    /// Loop where iteration i stores to mem[i+1] and iteration i+1 loads
    /// mem[i+1] early: a true cross-iteration memory dependence.
    fn chained_store_loop() -> (Program, LoopAnnotations) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(nn, 40);
        f.jmp(body);
        f.switch_to(body);
        let cur = f.reg();
        f.mov(cur, i);
        f.addi(i, i, 1);
        f.spt_fork(body);
        // post-fork: load mem[cur], add 1, store to mem[cur+1].
        let v = f.reg();
        f.load(v, cur, 0);
        let t = f.reg();
        let one = f.const_reg(1);
        f.bin(BinOp::Add, t, v, one);
        f.store(t, cur, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.spt_kill();
        let out = f.reg();
        let base40 = f.const_reg(40);
        f.load(out, base40, 0);
        f.ret(Some(out));
        let id = f.finish();
        let prog = pb.finish(id, 64);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: id,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        (prog, annots)
    }

    fn cfg_with_cores(cores: usize) -> MachineConfig {
        MachineConfig {
            cores,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn spt_preserves_sequential_semantics_parallel_loop() {
        let (prog, annots) = parallel_loop(50, 8);
        prog.verify().unwrap();
        let (seq, seq_mem) = run(&prog, FUEL);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert!(!rep.out_of_fuel);
        assert_eq!(rep.ret, seq.ret);
        // Architectural memory must match the sequential run: re-run
        // sequentially and compare a few cells.
        for a in 0..50 {
            let expect = seq_mem.peek(a);
            // The SPT sim consumed its own memory internally; validate via
            // return value + spot behaviour (stores were i*2^work).
            assert_eq!(expect, (a as i64) << 8);
        }
        assert!(rep.forks > 0);
        assert!(
            rep.fast_commit_ratio() > 0.8,
            "parallel loop should fast-commit; ratio = {}",
            rep.fast_commit_ratio()
        );
    }

    #[test]
    fn spt_speeds_up_parallel_loop() {
        let (prog, annots) = parallel_loop(200, 16);
        let base = simulate_baseline(&prog, &MachineConfig::default().core, &annots, FUEL);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert_eq!(rep.ret, base.ret);
        assert!(
            (rep.cycles as f64) < 0.8 * base.cycles as f64,
            "SPT {} vs baseline {}",
            rep.cycles,
            base.cycles
        );
    }

    #[test]
    fn spt_preserves_semantics_serial_loop() {
        let (prog, annots) = serial_loop(60, 6);
        prog.verify().unwrap();
        let (seq, _) = run(&prog, FUEL);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert_eq!(rep.ret, seq.ret);
        assert_eq!(rep.ret, Some(1 + 60 * 6));
        // Serial dependence: replays dominate, not fast commits.
        assert!(rep.replays > 0);
        assert!(
            rep.fast_commit_ratio() < 0.5,
            "ratio = {}",
            rep.fast_commit_ratio()
        );
        assert!(rep.spec_misspec > 0);
    }

    #[test]
    fn serial_loop_not_much_slower_than_baseline() {
        // Selective re-execution should keep the damage bounded.
        let (prog, annots) = serial_loop(100, 6);
        let base = simulate_baseline(&prog, &MachineConfig::default().core, &annots, FUEL);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert_eq!(rep.ret, base.ret);
        assert!(
            (rep.cycles as f64) < 1.6 * base.cycles as f64,
            "SPT {} vs baseline {}",
            rep.cycles,
            base.cycles
        );
    }

    #[test]
    fn kill_on_loop_exit_discards_speculation() {
        let (prog, annots) = parallel_loop(10, 4);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        // The final iteration's speculative thread runs off the loop end and
        // is killed by spt_kill (or superseded by a commit at the exit).
        assert!(rep.kills + rep.divergence_kills >= 1 || rep.forks == rep.fast_commits);
        assert!(!rep.out_of_fuel);
    }

    #[test]
    fn memory_violation_detected_and_repaired() {
        let (prog, annots) = chained_store_loop();
        prog.verify().unwrap();
        let (seq, _) = run(&prog, FUEL);
        assert_eq!(seq.ret, Some(40)); // mem[40] = 40 after the chain
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert_eq!(rep.ret, Some(40), "memory dependence must be honored");
        assert!(rep.replays > 0, "violations must trigger replay");
    }

    #[test]
    fn squash_policy_still_correct_but_slower_than_srx() {
        let (prog, annots) = serial_loop(80, 6);
        let mut cfg_squash = MachineConfig::default();
        cfg_squash.recovery = RecoveryKind::Squash;
        let rep_sq = SptSim::new(&prog, cfg_squash, annots.clone()).run(FUEL);
        let rep_srx = SptSim::new(&prog, MachineConfig::default(), annots).run(FUEL);
        assert_eq!(rep_sq.ret, rep_srx.ret);
        assert!(
            rep_sq.cycles >= rep_srx.cycles,
            "squash {} should not beat SRX {}",
            rep_sq.cycles,
            rep_srx.cycles
        );
    }

    #[test]
    fn srx_only_policy_replays_everything() {
        let (prog, annots) = parallel_loop(30, 4);
        let mut cfg = MachineConfig::default();
        cfg.recovery = RecoveryKind::SrxOnly;
        let rep = SptSim::new(&prog, cfg, annots).run(FUEL);
        assert_eq!(rep.fast_commits, 0);
        assert!(rep.replays > 0);
        assert_eq!(rep.ret, Some(30));
    }

    #[test]
    fn mark_based_checking_is_more_conservative() {
        // Value-based checking forgives silent re-writes of the same value;
        // mark-based does not. Loop writes `x = 7` every iteration and the
        // spec thread reads x post-fork.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.reg();
        let x = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(nn, 30);
        f.const_(x, 7);
        f.jmp(body);
        f.switch_to(body);
        f.addi(i, i, 1);
        f.spt_fork(body);
        let y = f.reg();
        f.bin(BinOp::Add, y, x, i); // reads x (live-in)
        f.store(y, i, 0);
        f.const_(x, 7); // main post-fork write, same value
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.spt_kill();
        f.ret(Some(x));
        let id = f.finish();
        let prog = pb.finish(id, 64);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: id,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        let rep_val = SptSim::new(&prog, MachineConfig::default(), annots.clone()).run(FUEL);
        let mut cfg_mark = MachineConfig::default();
        cfg_mark.reg_check = RegCheckPolicy::MarkBased;
        let rep_mark = SptSim::new(&prog, cfg_mark, annots).run(FUEL);
        assert_eq!(rep_val.ret, rep_mark.ret);
        assert!(
            rep_val.fast_commits > rep_mark.fast_commits,
            "value-based {} vs mark-based {}",
            rep_val.fast_commits,
            rep_mark.fast_commits
        );
    }

    #[test]
    fn tiny_srb_throttles_speculation() {
        let (prog, annots) = parallel_loop(50, 16);
        let mut cfg_small = MachineConfig::default();
        cfg_small.srb_entries = 8;
        let rep_small = SptSim::new(&prog, cfg_small, annots.clone()).run(FUEL);
        let rep_big = SptSim::new(&prog, MachineConfig::default(), annots).run(FUEL);
        assert_eq!(rep_small.ret, rep_big.ret);
        assert!(
            rep_small.cycles >= rep_big.cycles,
            "small SRB {} vs default {}",
            rep_small.cycles,
            rep_big.cycles
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_fold_matches_report() {
        for (prog, annots) in [serial_loop(60, 6), parallel_loop(50, 8)] {
            let sim = SptSim::new(&prog, MachineConfig::default(), annots);
            let rep = sim.run(FUEL);
            let mut sink = spt_trace::RingBufferSink::unbounded();
            let rep_t = sim.run_in(FUEL, &mut sink).0;
            // Tracing must not perturb timing or results.
            assert_eq!(rep.cycles, rep_t.cycles);
            assert_eq!(rep.instrs, rep_t.instrs);
            assert_eq!(rep.ret, rep_t.ret);
            // Folding the trace reproduces the report's counters.
            let fold = spt_trace::fold(sink.records());
            assert_eq!(fold.forks, rep.forks);
            assert_eq!(fold.forks_ignored, rep.forks_ignored);
            assert_eq!(fold.fast_commits, rep.fast_commits);
            assert_eq!(fold.replays, rep.replays);
            assert_eq!(fold.kills, rep.kills);
            assert_eq!(fold.divergence_kills, rep.divergence_kills);
        }
    }

    #[test]
    fn replay_events_name_the_violating_register() {
        let (prog, annots) = serial_loop(40, 6);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let mut sink = spt_trace::RingBufferSink::unbounded();
        let rep = sim.run_in(FUEL, &mut sink).0;
        assert!(rep.replays > 0);
        let fold = spt_trace::fold(sink.records());
        let l = &fold.per_loop[0];
        assert!(
            !l.reg_violations.is_empty(),
            "serial loop's cross-iteration register must be reported"
        );
        assert!(l.replay_lengths.count > 0);
        assert!(l.srb_occupancy.count > 0);
    }

    #[test]
    fn report_ratios_well_formed() {
        let (prog, annots) = parallel_loop(40, 8);
        let rep = SptSim::new(&prog, MachineConfig::default(), annots).run(FUEL);
        assert!(rep.fast_commit_ratio() >= 0.0 && rep.fast_commit_ratio() <= 1.0);
        assert!(rep.misspeculation_ratio() >= 0.0 && rep.misspeculation_ratio() <= 1.0);
        assert!(rep.ipc() > 0.0);
        assert_eq!(rep.per_loop.len(), 1);
        assert!(rep.per_loop[0].forks > 0);
        assert!(rep.per_loop[0].cycles > 0);
    }

    // ---- N-core fabric -----------------------------------------------------

    #[test]
    fn fabric_preserves_semantics_at_any_core_count() {
        let (prog, annots) = parallel_loop(50, 8);
        let (seq, seq_mem) = run(&prog, FUEL);
        for cores in [2usize, 3, 4, 8] {
            let sim = SptSim::new(&prog, cfg_with_cores(cores), annots.clone());
            let (rep, mem) = sim.run_in(FUEL, &mut NullSink);
            assert!(!rep.out_of_fuel, "cores={cores}");
            assert_eq!(rep.ret, seq.ret, "cores={cores}");
            for a in 0..54 {
                assert_eq!(mem.peek(a), seq_mem.peek(a), "cores={cores} addr={a}");
            }
        }
    }

    #[test]
    fn fabric_preserves_semantics_serial_loop_at_n4() {
        // Every iteration violates; replays roll back all ring successors.
        let (prog, annots) = serial_loop(60, 6);
        let rep = SptSim::new(&prog, cfg_with_cores(4), annots).run(FUEL);
        assert_eq!(rep.ret, Some(1 + 60 * 6));
        assert!(rep.replays > 0);
    }

    #[test]
    fn more_cores_do_not_degrade_parallel_loop() {
        let (prog, annots) = parallel_loop(200, 16);
        let rep2 = SptSim::new(&prog, cfg_with_cores(2), annots.clone()).run(FUEL);
        let rep4 = SptSim::new(&prog, cfg_with_cores(4), annots.clone()).run(FUEL);
        let rep8 = SptSim::new(&prog, cfg_with_cores(8), annots).run(FUEL);
        assert_eq!(rep2.ret, rep4.ret);
        assert_eq!(rep2.ret, rep8.ret);
        assert!(
            rep4.cycles <= rep2.cycles,
            "N=4 ({}) must not be slower than N=2 ({})",
            rep4.cycles,
            rep2.cycles
        );
        assert!(
            rep8.cycles <= rep4.cycles,
            "N=8 ({}) must not be slower than N=4 ({})",
            rep8.cycles,
            rep4.cycles
        );
        // Ring forks actually happened.
        assert!(rep4.forks > rep2.forks || rep4.fast_commits > rep2.fast_commits);
    }

    #[test]
    fn ring_forks_traced_and_fold_oracle_holds_at_n4() {
        let (prog, annots) = parallel_loop(80, 8);
        let sim = SptSim::new(&prog, cfg_with_cores(4), annots);
        let mut sink = spt_trace::RingBufferSink::unbounded();
        let rep = sim.run_in(FUEL, &mut sink).0;
        let ring_forks = sink
            .records()
            .filter(|r| matches!(r.ev, TraceEvent::RingFork { .. }))
            .count();
        assert!(ring_forks > 0, "N=4 parallel loop must ring-fork");
        // Every RingFork names a valid speculative core.
        for r in sink.records() {
            if let TraceEvent::RingFork { core, .. } = r.ev {
                assert!((1..4).contains(&core));
            }
        }
        // The fold-vs-report oracle holds with ring forks in the stream.
        let fold = spt_trace::fold(sink.records());
        assert_eq!(fold.forks, rep.forks);
        assert_eq!(fold.fast_commits, rep.fast_commits);
        assert_eq!(fold.replays, rep.replays);
        assert_eq!(fold.kills, rep.kills);
    }

    #[test]
    fn per_core_stats_populated() {
        let (prog, annots) = parallel_loop(50, 8);
        let rep2 = SptSim::new(&prog, cfg_with_cores(2), annots.clone()).run(FUEL);
        assert_eq!(rep2.per_core.len(), 2);
        assert_eq!(rep2.per_core[0].core, 0);
        assert_eq!(rep2.per_core[0].instrs, rep2.instrs);
        assert_eq!(rep2.per_core[0].threads, 0);
        assert_eq!(rep2.per_core[1].threads, rep2.forks);
        assert_eq!(rep2.per_core[1].fast_commits, rep2.fast_commits);
        assert!(rep2.per_core[1].instrs > 0);
        assert!(rep2.spec_core_instr_share() > 0.0);

        let rep4 = SptSim::new(&prog, cfg_with_cores(4), annots).run(FUEL);
        assert_eq!(rep4.per_core.len(), 4);
        let threads: u64 = rep4.per_core.iter().map(|c| c.threads).sum();
        assert_eq!(threads, rep4.forks);
        let outcomes: u64 = rep4
            .per_core
            .iter()
            .map(|c| c.fast_commits + c.replays + c.kills)
            .sum();
        // Every spawned thread is resolved exactly once (commit, replay,
        // squash, divergence, or kill).
        assert_eq!(outcomes, rep4.fast_commits + rep4.replays + rep4.kills);
    }

    #[test]
    fn mark_based_checking_stays_correct_at_n4() {
        let (prog, annots) = parallel_loop(40, 6);
        let mut cfg = cfg_with_cores(4);
        cfg.reg_check = RegCheckPolicy::MarkBased;
        let rep = SptSim::new(&prog, cfg, annots).run(FUEL);
        assert_eq!(rep.ret, Some(40));
    }

    #[test]
    fn cross_thread_memory_dependence_detected_at_n4() {
        // With 4 cores, downstream ring threads load words their
        // predecessors store, exercising the drained-SSB vs LAB check.
        let (prog, annots) = chained_store_loop();
        let rep = SptSim::new(&prog, cfg_with_cores(4), annots).run(FUEL);
        assert_eq!(
            rep.ret,
            Some(40),
            "cross-thread memory dependence must be honored"
        );
    }

    #[test]
    fn ring_loops_match_sequential_oracle_and_pinned_counters() {
        // Fast-commit-heavy, replay-heavy and memory-violating loops at
        // every ring width: the architectural outcome must equal the
        // sequential interpreter's, and the timing and outcome counters
        // are pinned (cycles, instrs, forks, fast commits, replays, kills,
        // misspeculated instructions).
        type Pinned = [u64; 7];
        let cases: Vec<(&str, Program, LoopAnnotations, [Pinned; 3])> = {
            let (p1, a1) = parallel_loop(60, 8);
            let (p2, a2) = serial_loop(50, 6);
            let (p3, a3) = chained_store_loop();
            vec![
                (
                    "parallel",
                    p1,
                    a1,
                    [
                        [518, 575, 30, 30, 0, 0, 0],
                        [309, 157, 41, 40, 0, 1, 0],
                        [254, 22, 49, 48, 0, 0, 0],
                    ],
                ),
                (
                    "serial",
                    p2,
                    a2,
                    [
                        [782, 1156, 25, 0, 25, 0, 275],
                        [782, 1156, 75, 0, 25, 50, 275],
                        [782, 1156, 175, 0, 25, 150, 275],
                    ],
                ),
                (
                    "chained-store",
                    p3,
                    a3,
                    [
                        [248, 407, 2, 0, 1, 1, 114],
                        [385, 316, 55, 13, 13, 29, 37],
                        [385, 316, 72, 13, 13, 46, 37],
                    ],
                ),
            ]
        };
        for (name, prog, annots, pinned) in &cases {
            let (seq, seq_mem) = spt_interp::run_with(prog, FUEL, |_| {});
            for (cores, want) in [2usize, 4, 8].into_iter().zip(pinned) {
                let sim = SptSim::new(prog, cfg_with_cores(cores), annots.clone());
                let (r, mem) = sim.run_in(FUEL, &mut NullSink);
                let ctx = format!("{name} @ {cores} cores");
                assert_eq!(r.ret, seq.ret, "{ctx}: ret");
                assert_eq!(mem, seq_mem, "{ctx}: final memory");
                let got = [
                    r.cycles,
                    r.instrs,
                    r.forks,
                    r.fast_commits,
                    r.replays,
                    r.kills,
                    r.spec_misspec,
                ];
                assert_eq!(&got, want, "{ctx}: pinned counters");
            }
        }
    }
}
