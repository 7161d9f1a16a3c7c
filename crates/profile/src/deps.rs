//! Cross-iteration dependence and value profiling for selected loops.
//!
//! For each profiled loop, every adjacent-iteration (distance-1) register or
//! memory dependence between static statements is counted, giving the
//! *dependence probability* annotations of the SPT cost model (§4.1). For
//! register dependences the profiler also counts how often the written
//! value actually *changed*, which is what the value-based register
//! dependence checker of §3.2 cares about.
//!
//! Statements executed inside functions called from the loop are attributed
//! to their loop-level call site — a dependence into a callee is a
//! dependence on the call statement as far as loop partitioning is
//! concerned (calls move as a unit).
//!
//! The same pass samples every loop-frame register at each iteration
//! boundary and fits a stride predictor (`x' = x + d`, `d = 0` being
//! last-value), producing the predictability data used by software value
//! prediction (§4.4).

use crate::context::{LoopContextTracker, LoopKey};
use crate::stats::stmt_numbering;
use spt_interp::{Cursor, DecodedProgram, Memory, Step};
use spt_sir::{LoopId, Program, StmtRef};
use std::cmp::Reverse;
use std::collections::HashMap;

/// Occurrence counts of one cross-iteration dependence edge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepCount {
    /// Iterations in which the dependence manifested.
    pub occurrences: u64,
    /// Of those, iterations where the source write changed the value
    /// (always equal to `occurrences` for memory dependences, which the SPT
    /// hardware checks by address).
    pub value_changed: u64,
}

/// Stride-predictability of one loop-frame register.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValuePattern {
    /// Iteration-boundary samples observed (≥ 1 apart).
    pub samples: u64,
    /// Most frequent successive difference.
    pub best_stride: i64,
    /// Samples matching `best_stride`.
    pub hits: u64,
}

impl ValuePattern {
    pub fn hit_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.hits as f64 / self.samples as f64
        }
    }
}

/// Dependence profile of one loop.
#[derive(Clone, Debug, Default)]
pub struct LoopDeps {
    /// Iterations observed across all invocations.
    pub iterations: u64,
    /// (writer stmt, reader stmt) -> counts, register dependences.
    pub reg_deps: HashMap<(StmtRef, StmtRef), DepCount>,
    /// (writer stmt, reader stmt) -> counts, memory dependences.
    pub mem_deps: HashMap<(StmtRef, StmtRef), DepCount>,
    /// Per loop-frame register: stride predictability.
    pub values: HashMap<u32, ValuePattern>,
}

impl LoopDeps {
    /// Probability that the given register dependence fires in an
    /// iteration.
    pub fn reg_prob(&self, edge: (StmtRef, StmtRef)) -> f64 {
        self.prob(self.reg_deps.get(&edge))
    }

    /// Probability weighted by value-changed (the value-based checker only
    /// trips when the value changed).
    pub fn reg_prob_value(&self, edge: (StmtRef, StmtRef)) -> f64 {
        match self.reg_deps.get(&edge) {
            Some(c) if self.iterations > 1 => c.value_changed as f64 / (self.iterations - 1) as f64,
            _ => 0.0,
        }
    }

    pub fn mem_prob(&self, edge: (StmtRef, StmtRef)) -> f64 {
        self.prob(self.mem_deps.get(&edge))
    }

    fn prob(&self, c: Option<&DepCount>) -> f64 {
        match c {
            Some(c) if self.iterations > 1 => c.occurrences as f64 / (self.iterations - 1) as f64,
            _ => 0.0,
        }
    }
}

/// Dependence profiles of all selected loops.
#[derive(Clone, Debug, Default)]
pub struct DepProfile {
    pub loops: HashMap<LoopKey, LoopDeps>,
}

/// Successive-difference histogram of one loop-frame register, capped at
/// 64 distinct strides. The count of the most recent stride is held aside
/// and settled into the map only when the stride changes, so a register
/// advancing by a steady stride costs no map lookup per sample.
#[derive(Default)]
struct StrideHist {
    counts: HashMap<i64, u64>,
    /// `(stride, unsettled count)`; the stride is always a key of `counts`.
    run: Option<(i64, u64)>,
}

impl StrideHist {
    fn add(&mut self, d: i64) {
        match &mut self.run {
            Some((last, n)) if *last == d => *n += 1,
            _ => {
                self.settle();
                if let Some(c) = self.counts.get_mut(&d) {
                    *c += 1;
                } else if self.counts.len() < 64 {
                    self.counts.insert(d, 1);
                } else {
                    return;
                }
                self.run = Some((d, 0));
            }
        }
    }

    fn settle(&mut self) {
        if let Some((d, n)) = self.run.take() {
            *self.counts.get_mut(&d).expect("run stride is counted") += n;
        }
    }

    fn clear(&mut self) {
        self.counts.clear();
        self.run = None;
    }
}

/// One cross-iteration dependence edge into a reader statement, as
/// counted by one loop invocation.
struct Edge {
    mem: bool,
    writer: StmtRef,
    reader: StmtRef,
    count: DepCount,
    /// Iteration that last counted this edge (per-iteration dedup).
    iter: u64,
}

/// Live profiling state for one active loop invocation.
///
/// Registers index the loop frame's register file and reader statements
/// the loop function's flat statement list; only memory addresses are
/// hashed. States are recycled across invocations, keeping their
/// allocations.
#[derive(Default)]
struct DepState {
    key: Option<LoopKey>,
    /// Dense loop index ([`LoopContextTracker::loop_index`]).
    slot: usize,
    depth: u32,
    iter: u64,
    /// Loop-level call site when executing inside a callee.
    callsite: Option<StmtRef>,
    /// reg -> (iteration of last write, writer stmt, value changed?)
    reg_writer: Vec<Option<(u64, StmtRef, bool)>>,
    /// Current register values (to detect silent re-writes).
    reg_vals: Vec<Option<i64>>,
    /// word addr -> (iteration of last store, writer stmt)
    mem_writer: HashMap<u64, (u64, StmtRef)>,
    /// Dependence edges by reader statement, and the readers with any.
    edges: Vec<Vec<Edge>>,
    readers: Vec<usize>,
    /// Value sampling at iteration boundaries.
    val_last: Vec<Option<i64>>,
    val_diffs: Vec<StrideHist>,
    val_samples: Vec<u64>,
}

impl DepState {
    /// Start a fresh invocation of `key` (dense index `slot`) at `depth`,
    /// whose function has `n_regs` registers and `n_stmts` statements.
    fn reset(&mut self, key: LoopKey, slot: usize, depth: u32, n_regs: usize, n_stmts: usize) {
        self.key = Some(key);
        self.slot = slot;
        self.depth = depth;
        self.iter = 0;
        self.callsite = None;
        self.reg_writer.clear();
        self.reg_writer.resize(n_regs, None);
        self.reg_vals.clear();
        self.reg_vals.resize(n_regs, None);
        self.mem_writer.clear();
        debug_assert!(self.readers.is_empty());
        self.edges.truncate(n_stmts.max(1));
        self.edges.resize_with(n_stmts.max(1), Vec::new);
        self.val_last.clear();
        self.val_last.resize(n_regs, None);
        self.val_diffs.iter_mut().for_each(StrideHist::clear);
        self.val_diffs
            .resize_with(n_regs.max(self.val_diffs.len()), StrideHist::default);
        self.val_samples.clear();
        self.val_samples.resize(n_regs, 0);
    }

    fn sample_values(&mut self, regs: &[i64]) {
        if regs.len() > self.val_last.len() {
            self.val_last.resize(regs.len(), None);
            self.val_samples.resize(regs.len(), 0);
            self.val_diffs.resize_with(regs.len(), StrideHist::default);
        }
        for (r, &v) in regs.iter().enumerate() {
            if let Some(prev) = self.val_last[r] {
                self.val_diffs[r].add(v.wrapping_sub(prev));
                self.val_samples[r] += 1;
            }
            self.val_last[r] = Some(v);
        }
    }

    /// Count one dependence `writer -> reader` at most once per iteration.
    /// `starts` is the loop function's [`stmt_numbering`], which buckets
    /// the edges by reader.
    fn count_edge(
        &mut self,
        starts: &[usize],
        mem: bool,
        writer: StmtRef,
        reader: StmtRef,
        changed: bool,
    ) {
        // Readers are loop-function statements, one per bucket; the modulo
        // only keeps a stray reader (a state outliving its frame under
        // recursion) in range.
        let ri = starts
            .get(reader.block.index())
            .map_or(0, |&b| b + reader.index as usize)
            % self.edges.len();
        let list = &mut self.edges[ri];
        let e = match list
            .iter()
            .position(|e| e.mem == mem && e.writer == writer && e.reader == reader)
        {
            Some(i) => &mut list[i],
            None => {
                if list.is_empty() {
                    self.readers.push(ri);
                }
                list.push(Edge {
                    mem,
                    writer,
                    reader,
                    count: DepCount::default(),
                    iter: u64::MAX,
                });
                list.last_mut().expect("just pushed")
            }
        };
        if e.iter != self.iter {
            e.iter = self.iter;
            e.count.occurrences += 1;
            if changed {
                e.count.value_changed += 1;
            }
        }
    }

    /// Merge this invocation's edges and value patterns into the loop's
    /// profile, leaving the state empty for reuse.
    fn flush(&mut self, deps: &mut LoopDeps) {
        for ri in self.readers.drain(..) {
            for e in self.edges[ri].drain(..) {
                let map = if e.mem {
                    &mut deps.mem_deps
                } else {
                    &mut deps.reg_deps
                };
                let d = map.entry((e.writer, e.reader)).or_default();
                d.occurrences += e.count.occurrences;
                d.value_changed += e.count.value_changed;
            }
        }
        for (r, &samples) in self.val_samples.iter().enumerate() {
            if samples == 0 {
                continue;
            }
            let h = &mut self.val_diffs[r];
            h.settle();
            let (best, hits) =
                best_stride(h.counts.iter().map(|(&d, &c)| (d, c))).unwrap_or((0, 0));
            let e = deps.values.entry(r as u32).or_default();
            e.samples += samples;
            // Merge: keep the globally dominant stride by hit count.
            if hits > e.hits || e.samples == samples {
                e.best_stride = best;
            }
            e.hits += hits;
        }
    }
}

/// The most frequent stride of a difference histogram, as `(stride,
/// count)`. Ties break toward the smaller `|stride|`, then the smaller
/// stride, so the choice never depends on the histogram's iteration order.
fn best_stride(hist: impl Iterator<Item = (i64, u64)>) -> Option<(i64, u64)> {
    hist.max_by_key(|&(d, c)| (c, Reverse(d.unsigned_abs()), Reverse(d)))
}

/// Profile cross-iteration dependences and value patterns for the selected
/// loops.
pub fn profile_loops(prog: &Program, selection: &[LoopKey], max_steps: u64) -> DepProfile {
    let mut tracker = LoopContextTracker::new(prog);
    let mut mem = Memory::for_program(prog);
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);
    // Per-loop accumulators by dense loop index; `selection` keys naming no
    // loop of the program are reported empty.
    let mut acc: Vec<Option<LoopDeps>> = vec![None; tracker.n_loops()];
    let mut out = DepProfile::default();
    for &k in selection {
        match tracker.loop_index(k) {
            Some(i) => acc[i] = Some(LoopDeps::default()),
            None => {
                out.loops.insert(k, LoopDeps::default());
            }
        }
    }
    let stmt_starts = stmt_numbering(prog);
    let mut states: Vec<DepState> = Vec::new();
    let mut spare: Vec<DepState> = Vec::new();

    let mut steps = 0u64;
    while steps < max_steps {
        // Values are sampled from the loop frame at iteration boundaries,
        // after observing `iterated`, using the cursor's current frame (the
        // header's first statement has not yet modified the frame
        // meaningfully for stride purposes).
        let Some(ev) = cur.step(&mut mem) else { break };
        steps += 1;
        let tr = tracker.observe(&ev);

        for (key, _) in &tr.exited {
            if let Some(pos) = states.iter().position(|s| s.key == Some(*key)) {
                let mut st = states.remove(pos);
                st.flush(acc[st.slot].as_mut().expect("selected"));
                spare.push(st);
            }
        }
        if let Some(key) = tr.entered {
            let slot = tracker.loop_index(key).expect("tracked loop");
            if acc[slot].is_some() {
                let n_regs = prog.func(key.func).n_regs as usize;
                let starts = &stmt_starts[key.func.index()];
                let mut st = spare.pop().unwrap_or_default();
                st.reset(key, slot, ev.depth, n_regs, starts[starts.len() - 1]);
                states.push(st);
            }
        }
        if let Some(key) = tr.iterated {
            if let Some(st) = states.iter_mut().find(|s| s.key == Some(key)) {
                st.iter += 1;
                acc[st.slot].as_mut().expect("selected").iterations += 1;
                if (ev.depth as usize) < cur.depth() + 1 {
                    // Sample loop-frame registers at the boundary.
                    st.sample_values(cur.regs_at(ev.depth as usize));
                }
            }
        }

        for st in &mut states {
            let starts = &stmt_starts[st.key.expect("live state").func.index()];
            observe_deps(&dec, starts, st, &ev);
        }
    }
    // Flush remaining states.
    for mut st in states {
        st.flush(acc[st.slot].as_mut().expect("selected"));
    }
    for fid in prog.func_ids() {
        for (l, slot) in tracker.loops_of(fid).enumerate() {
            if let Some(d) = acc[slot].take() {
                let key = LoopKey {
                    func: fid,
                    loop_id: LoopId(l as u32),
                };
                out.loops.insert(key, d);
            }
        }
    }
    out
}

/// Attribute one step to one loop's dependence state. `starts` is the
/// loop function's [`stmt_numbering`].
#[inline(always)]
fn observe_deps<'p>(dec: &'p DecodedProgram, starts: &[usize], st: &mut DepState, ev: &Step<'p>) {
    // Maintain the loop-level call-site attribution.
    if ev.depth == st.depth {
        st.callsite = None;
    }
    // The statement this step is attributed to, at loop level.
    let attributed: Option<StmtRef> = if ev.depth == st.depth {
        ev.sref()
    } else {
        st.callsite
    };

    // Register reads at the loop frame: cross-iteration check.
    if ev.depth == st.depth && ev.executed {
        for r in ev.operands(dec) {
            if let Some(&Some((w_iter, w_sref, changed))) = st.reg_writer.get(r.index()) {
                if w_iter + 1 == st.iter {
                    if let Some(r_sref) = attributed {
                        st.count_edge(starts, false, w_sref, r_sref, changed);
                    }
                }
            }
        }
    }

    // Register writes into the loop frame.
    if let Some(dst) = ev.dst() {
        if ev.dst_depth() == st.depth {
            let r = dst.index();
            if r >= st.reg_vals.len() {
                st.reg_vals.resize(r + 1, None);
                st.reg_writer.resize(r + 1, None);
            }
            let w_sref = if ev.depth == st.depth {
                ev.sref().or(st.callsite)
            } else {
                st.callsite
            };
            if let Some(w) = w_sref {
                let changed = st.reg_vals[r] != Some(ev.val);
                st.reg_writer[r] = Some((st.iter, w, changed));
            }
            st.reg_vals[r] = Some(ev.val);
        }
    }

    // Memory accesses anywhere under the loop.
    if let Some(addr) = ev.addr {
        if ev.is_store() {
            if let Some(w) = attributed {
                st.mem_writer.insert(addr, (st.iter, w));
            }
        } else if let Some(&(w_iter, w_sref)) = st.mem_writer.get(&addr) {
            if w_iter + 1 == st.iter {
                if let Some(r_sref) = attributed {
                    st.count_edge(starts, true, w_sref, r_sref, true);
                }
            }
        }
    }

    // Entering a callee from loop level: remember the call site.
    if ev.depth == st.depth && ev.is_call() {
        st.callsite = ev.sref();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::{analyze_loops, BinOp, BlockId, ProgramBuilder, Reg};

    /// acc = acc + i each iteration: a cross-iteration reg dep on acc, plus
    /// i is a stride-1 induction variable.
    fn reduction_loop(n: i64) -> (Program, LoopKey, Reg, Reg) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let acc = f.reg();
        let nn = f.const_reg(n);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(acc, 0);
        f.jmp(body);
        f.switch_to(body);
        f.bin(BinOp::Add, acc, acc, i);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(acc));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (_, _, forest) = analyze_loops(prog.func(id));
        let key = LoopKey {
            func: id,
            loop_id: forest.loops[0].id,
        };
        (prog, key, acc, i)
    }

    #[test]
    fn detects_cross_iteration_reg_dep() {
        let (prog, key, _acc, _i) = reduction_loop(50);
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let deps = &dp.loops[&key];
        assert_eq!(deps.iterations, 50);
        // acc written by stmt 0 of body (bb1), read by stmt 0 next iter.
        let acc_stmt = StmtRef::new(BlockId(1), 0);
        let c = deps
            .reg_deps
            .get(&(acc_stmt, acc_stmt))
            .expect("acc self-dependence found");
        assert_eq!(c.occurrences, 49);
        assert!((deps.reg_prob((acc_stmt, acc_stmt)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn induction_variable_is_stride_predictable() {
        let (prog, key, _acc, i) = reduction_loop(50);
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let vp = dp.loops[&key]
            .values
            .get(&i.0)
            .expect("induction var sampled");
        assert_eq!(vp.best_stride, 1);
        assert!(vp.hit_rate() > 0.95, "rate {}", vp.hit_rate());
    }

    #[test]
    fn memory_dependence_detected() {
        // Iteration i stores mem[0]; iteration i+1 loads mem[0].
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.const_reg(20);
        let zero = f.const_reg(0);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(body);
        f.switch_to(body);
        let v = f.reg();
        f.load(v, zero, 0);
        let t = f.reg();
        f.bin(BinOp::Add, t, v, i);
        f.store(t, zero, 0);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(i));
        let id = f.finish();
        let prog = pb.finish(id, 4);
        let (_, _, forest) = analyze_loops(prog.func(id));
        let key = LoopKey {
            func: id,
            loop_id: forest.loops[0].id,
        };
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let deps = &dp.loops[&key];
        assert!(
            !deps.mem_deps.is_empty(),
            "store->load cross-iteration dep expected"
        );
        let ((w, r), c) = deps.mem_deps.iter().next().unwrap();
        assert_eq!(c.occurrences, 19);
        assert!(w.block == BlockId(1) && r.block == BlockId(1));
        assert!((deps.mem_prob((*w, *r)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn callee_dep_attributed_to_call_site() {
        // Loop calls bump() which stores to mem[0] and next iteration calls
        // read() which loads mem[0]: dependence between the two call sites.
        let mut pb = ProgramBuilder::new();
        let bump = pb.declare("bump", 1);
        let read = pb.declare("read", 0);
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.const_reg(12);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(body);
        f.switch_to(body);
        let r0 = f.reg();
        f.call(read, &[], Some(r0)); // reads mem[0]
        f.call(bump, &[i], None); // writes mem[0]
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(i));
        let main = f.finish();
        let mut g = pb.build(bump);
        let p = g.param(0);
        let z = g.const_reg(0);
        g.store(p, z, 0);
        g.ret(None);
        g.finish();
        let mut h = pb.build(read);
        let z2 = h.const_reg(0);
        let v = h.reg();
        h.load(v, z2, 0);
        h.ret(Some(v));
        h.finish();
        let prog = pb.finish(main, 4);
        prog.verify().unwrap();
        let (_, _, forest) = analyze_loops(prog.func(main));
        let key = LoopKey {
            func: main,
            loop_id: forest.loops[0].id,
        };
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let deps = &dp.loops[&key];
        // The dep's endpoints must be loop-body statements (the call sites).
        let ((w, r), c) = deps
            .mem_deps
            .iter()
            .next()
            .expect("cross-iteration dep through calls");
        assert_eq!(w.block, BlockId(1));
        assert_eq!(r.block, BlockId(1));
        assert!(c.occurrences >= 10);
    }

    #[test]
    fn tied_strides_break_deterministically() {
        // x advances by 1, 2, 1, 2, ...: over 21 iterations the boundary
        // samples see stride 1 and stride 2 ten times each.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let x = f.reg();
        let s = f.reg();
        let three = f.const_reg(3);
        let nn = f.const_reg(21);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(x, 0);
        f.const_(s, 1);
        f.jmp(body);
        f.switch_to(body);
        f.bin(BinOp::Add, x, x, s);
        f.bin(BinOp::Sub, s, three, s);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(x));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (_, _, forest) = analyze_loops(prog.func(id));
        let key = LoopKey {
            func: id,
            loop_id: forest.loops[0].id,
        };
        for _ in 0..20 {
            let dp = profile_loops(&prog, &[key], 1_000_000);
            let vp = &dp.loops[&key].values[&x.0];
            assert_eq!((vp.samples, vp.best_stride, vp.hits), (20, 1, 10));
        }
        // Equal counts: smaller magnitude first, then the smaller stride.
        assert_eq!(
            best_stride([(3, 5), (-2, 5), (2, 5)].into_iter()),
            Some((-2, 5))
        );
        assert_eq!(best_stride([(3, 6), (-2, 5)].into_iter()), Some((3, 6)));
    }

    #[test]
    fn unselected_loop_not_profiled() {
        let (prog, key, ..) = reduction_loop(10);
        let other = LoopKey {
            func: key.func,
            loop_id: LoopId(99),
        };
        let dp = profile_loops(&prog, &[other], 1_000_000);
        assert!(dp.loops[&other].reg_deps.is_empty());
        assert_eq!(dp.loops[&other].iterations, 0);
    }

    #[test]
    fn silent_rewrites_counted_as_unchanged() {
        // x is rewritten with the same constant each iteration; y = x + 0
        // creates a dependence, but value_changed stays ~0.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let x = f.reg();
        let nn = f.const_reg(30);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(x, 7);
        f.jmp(body);
        f.switch_to(body);
        let y = f.reg();
        f.bin(BinOp::Add, y, x, i); // reads x
        f.const_(x, 7); // silently rewrites x
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(x));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (_, _, forest) = analyze_loops(prog.func(id));
        let key = LoopKey {
            func: id,
            loop_id: forest.loops[0].id,
        };
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let deps = &dp.loops[&key];
        let edge = deps
            .reg_deps
            .iter()
            .find(|((w, _), _)| w.index == 1) // the `x = 7` rewrite
            .map(|(e, _)| *e)
            .expect("x dep present");
        assert!(deps.reg_prob(edge) > 0.9);
        assert!(
            deps.reg_prob_value(edge) < 0.1,
            "value-based probability must be ~0, got {}",
            deps.reg_prob_value(edge)
        );
    }
}
