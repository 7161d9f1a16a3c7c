//! The parallel experiment engine.
//!
//! Every evaluation experiment (the figure sweeps, the suite evaluation,
//! the ablations) decomposes into per-benchmark work items whose phases —
//! profile, compile, baseline simulation, SPT simulation — are pure
//! functions of `(program, options/config, fuel)`. This module provides:
//!
//! * [`Sweep`] — a scoped worker pool (`std::thread::scope`, no external
//!   dependencies) that fans work items across `workers` threads while
//!   preserving item order in the results, so parallel and sequential runs
//!   are **bit-identical**;
//! * a content-keyed **memo cache**: each phase result is computed at most
//!   once per process for a given `(program fingerprint, config
//!   fingerprint, fuel)` key, no matter how many experiments share it
//!   (e.g. Figures 8 and 9 both consume the suite evaluation; the SRB
//!   ablation shares one compile across all buffer sizes). The memo lives
//!   in memory only; the `spt-serve` daemon persists whole responses in a
//!   [`DiskStore`](crate::DiskStore) above it;
//! * a structured-metrics layer — [`RunReport`], [`BenchRecord`],
//!   [`PhaseTimings`], [`MemoStats`] — recording per-phase wall-clock
//!   times and cache hit/miss counts, serializable as JSON via
//!   [`ToJson`].
//!
//! Determinism contract: all simulators are deterministic, cache values
//! are keyed purely by content, and *no timing data flows into results* —
//! wall-clock numbers live only in `RunReport`. Worker scheduling can
//! change which thread computes a value and how long phases take, never
//! what they produce.

use crate::json::{Json, ToJson};
use crate::memo::MemoTable;
use crate::solution::{original_annotations, spt_annotations, EvalOutcome, RunConfig};
use spt_compiler::{candidate_keys, compile_with_deps, CompileOptions, CompileResult};
use spt_mach::MachineConfig;
use spt_profile::{profile_loops, profile_program, DepProfile, ProgramProfile};
use spt_sim::{simulate_baseline, BaselineReport, LoopAnnotations, SptReport, SptSim};
use spt_sir::Program;
use spt_trace::NullSink;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Content fingerprints
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

use crate::store::fnv1a;

/// Content fingerprint of a program: FNV-1a over its derived `Hash`, which
/// visits every function, block, statement, the data image and the memory
/// size, without rendering or allocating anything.
///
/// Integers are fed in native byte order and lengths as `usize`, so the
/// value depends on the host's word size and endianness. That is fine for
/// an in-process memo key; program fingerprints never reach disk.
pub fn program_fingerprint(prog: &Program) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    prog.hash(&mut h);
    h.0
}

/// A `Hasher` that feeds [`fnv1a`]. Unlike `std`'s `RandomState` hashers
/// it is unseeded, so a fingerprint is the same in every process.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of any `Debug`-printable configuration. Derived `Debug`
/// names every field, so two configs collide only if structurally equal.
pub fn debug_fingerprint<T: std::fmt::Debug>(x: &T) -> u64 {
    fnv1a(FNV_OFFSET, format!("{x:?}").as_bytes())
}

/// Memo-cache key: `(program, config, extra, fuel)` fingerprints.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key(u64, u64, u64, u64);

// ---------------------------------------------------------------------------
// Memo cache
// ---------------------------------------------------------------------------

/// What one memoized phase lookup cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStamp {
    /// True if the value was already cached (or another worker computed it).
    pub hit: bool,
    /// Wall-clock milliseconds spent computing, 0.0 on a hit.
    pub ms: f64,
}

impl PhaseStamp {
    /// Provenance label for metrics: where this phase's value came from.
    pub fn provenance(&self) -> &'static str {
        if self.hit {
            "memo"
        } else {
            "computed"
        }
    }
}

/// Observer hook for phase completions.
///
/// Strictly one-way: implementations receive copies of observability
/// data (names, stamps, counters) and cannot feed anything back into
/// the sweep — which is what keeps goldens, deterministic JSON, and
/// trace bytes byte-identical whether an observer is attached or not.
/// Callbacks run on worker threads and must be cheap and non-blocking.
pub trait PhaseObserver: Send + Sync {
    /// One memoized phase lookup finished. `phase` is one of
    /// `"profile"`, `"compile"`, `"baseline_sim"`, `"spt_sim"` (the
    /// `MemoStats` JSON keys).
    fn phase_done(&self, phase: &'static str, stamp: PhaseStamp);
}

/// One phase's memo table: a [`MemoTable`] of `Arc<OnceLock<..>>` cells,
/// which guarantees at-most-once computation per key even when several
/// workers request it concurrently (the table lock is held only for the
/// entry lookup, and `get_or_init` serializes initialization per cell),
/// plus this phase's hit/miss counters. The table keeps at most
/// [`MEMO_CAP`](crate::MEMO_CAP) completed entries; a key evicted and
/// looked up again is recomputed and counts as a miss again.
struct Shard<T> {
    memo: MemoTable<Key, Arc<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            memo: MemoTable::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<T> Shard<T> {
    fn get_or_compute(&self, key: Key, f: impl FnOnce() -> T) -> (Arc<T>, PhaseStamp) {
        let (cell, _) = self.memo.cell(key);
        let t0 = Instant::now();
        let mut computed = false;
        let v = cell
            .get_or_init(|| {
                computed = true;
                Arc::new(f())
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (v, PhaseStamp { hit: false, ms })
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            (v, PhaseStamp { hit: true, ms: 0.0 })
        }
    }
}

/// Snapshot of the memo cache's hit/miss counters, per phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub profile_hits: u64,
    pub profile_misses: u64,
    pub compile_hits: u64,
    pub compile_misses: u64,
    pub baseline_hits: u64,
    pub baseline_misses: u64,
    pub spt_hits: u64,
    pub spt_misses: u64,
}

impl MemoStats {
    pub fn hits(&self) -> u64 {
        self.profile_hits + self.compile_hits + self.baseline_hits + self.spt_hits
    }

    pub fn misses(&self) -> u64 {
        self.profile_misses + self.compile_misses + self.baseline_misses + self.spt_misses
    }

    /// Counter deltas since an earlier snapshot (for per-experiment stats
    /// on a shared engine).
    pub fn since(&self, before: &MemoStats) -> MemoStats {
        MemoStats {
            profile_hits: self.profile_hits - before.profile_hits,
            profile_misses: self.profile_misses - before.profile_misses,
            compile_hits: self.compile_hits - before.compile_hits,
            compile_misses: self.compile_misses - before.compile_misses,
            baseline_hits: self.baseline_hits - before.baseline_hits,
            baseline_misses: self.baseline_misses - before.baseline_misses,
            spt_hits: self.spt_hits - before.spt_hits,
            spt_misses: self.spt_misses - before.spt_misses,
        }
    }
}

impl MemoStats {
    /// Inverse of [`ToJson::to_json`]; `None` on any missing field.
    pub fn from_json(j: &Json) -> Option<MemoStats> {
        let pair = |k: &str| -> Option<(u64, u64)> {
            let p = j.get(k)?;
            Some((p.get("hits")?.as_u64()?, p.get("misses")?.as_u64()?))
        };
        let (profile_hits, profile_misses) = pair("profile")?;
        let (compile_hits, compile_misses) = pair("compile")?;
        let (baseline_hits, baseline_misses) = pair("baseline_sim")?;
        let (spt_hits, spt_misses) = pair("spt_sim")?;
        Some(MemoStats {
            profile_hits,
            profile_misses,
            compile_hits,
            compile_misses,
            baseline_hits,
            baseline_misses,
            spt_hits,
            spt_misses,
        })
    }
}

impl ToJson for MemoStats {
    fn to_json(&self) -> Json {
        let pair = |h: u64, m: u64| Json::obj().with("hits", h).with("misses", m);
        Json::obj()
            .with("profile", pair(self.profile_hits, self.profile_misses))
            .with("compile", pair(self.compile_hits, self.compile_misses))
            .with(
                "baseline_sim",
                pair(self.baseline_hits, self.baseline_misses),
            )
            .with("spt_sim", pair(self.spt_hits, self.spt_misses))
    }
}

// ---------------------------------------------------------------------------
// Structured metrics
// ---------------------------------------------------------------------------

/// Wall-clock milliseconds per pipeline phase; 0.0 when the phase was a
/// cache hit or did not run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    pub profile_ms: f64,
    pub compile_ms: f64,
    pub baseline_ms: f64,
    pub spt_ms: f64,
}

impl PhaseTimings {
    pub fn total_ms(&self) -> f64 {
        self.profile_ms + self.compile_ms + self.baseline_ms + self.spt_ms
    }
}

impl ToJson for PhaseTimings {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("profile_ms", self.profile_ms)
            .with("compile_ms", self.compile_ms)
            .with("baseline_sim_ms", self.baseline_ms)
            .with("spt_sim_ms", self.spt_ms)
    }
}

/// Metrics for one work item (usually one benchmark, or one
/// benchmark × variant point in an ablation).
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    pub name: String,
    pub timings: PhaseTimings,
    /// Which phases were served from the memo cache.
    pub profile_hit: bool,
    pub compile_hit: bool,
    pub baseline_hit: bool,
    pub spt_hit: bool,
    /// Cycle stats, when the item ran the simulators.
    pub baseline_cycles: Option<u64>,
    pub spt_cycles: Option<u64>,
    pub speedup: Option<f64>,
    pub semantics_ok: Option<bool>,
    /// Always 0: the block memo is gone, but the benchmark crate sets it.
    pub superstep_hits: u64,
    /// Always 0: the block memo is gone, but the benchmark crate sets it.
    pub superstep_misses: u64,
}

impl BenchRecord {
    /// The record of one item from its profile, compile, baseline and SPT
    /// stamps (default stamps for phases it did not run) and, when it ran
    /// the simulators, their two reports. `semantics_ok` stays unset: only
    /// whole-pipeline evaluations check it.
    pub(crate) fn new(
        name: String,
        [p, c, b, s]: [PhaseStamp; 4],
        sims: Option<(&BaselineReport, &SptReport)>,
    ) -> BenchRecord {
        BenchRecord {
            name,
            timings: PhaseTimings {
                profile_ms: p.ms,
                compile_ms: c.ms,
                baseline_ms: b.ms,
                spt_ms: s.ms,
            },
            profile_hit: p.hit,
            compile_hit: c.hit,
            baseline_hit: b.hit,
            spt_hit: s.hit,
            baseline_cycles: sims.map(|(base, _)| base.cycles),
            spt_cycles: sims.map(|(_, spt)| spt.cycles),
            speedup: sims.map(|(base, spt)| base.cycles as f64 / spt.cycles as f64),
            ..Default::default()
        }
    }

    /// Inverse of [`ToJson::to_json`]; `None` on any missing field.
    pub fn from_json(j: &Json) -> Option<BenchRecord> {
        let t = j.get("timings")?;
        let hits = j.get("cache_hits")?;
        let opt_u64 = |k: &str| -> Option<u64> { j.get(k).and_then(Json::as_u64) };
        Some(BenchRecord {
            name: j.get("name")?.as_str()?.to_string(),
            timings: PhaseTimings {
                profile_ms: t.get("profile_ms")?.as_f64()?,
                compile_ms: t.get("compile_ms")?.as_f64()?,
                baseline_ms: t.get("baseline_sim_ms")?.as_f64()?,
                spt_ms: t.get("spt_sim_ms")?.as_f64()?,
            },
            profile_hit: hits.get("profile")?.as_bool()?,
            compile_hit: hits.get("compile")?.as_bool()?,
            baseline_hit: hits.get("baseline_sim")?.as_bool()?,
            spt_hit: hits.get("spt_sim")?.as_bool()?,
            baseline_cycles: opt_u64("baseline_cycles"),
            spt_cycles: opt_u64("spt_cycles"),
            speedup: j.get("speedup").and_then(Json::as_f64),
            semantics_ok: j.get("semantics_ok").and_then(Json::as_bool),
            ..Default::default()
        })
    }
}

impl ToJson for BenchRecord {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("timings", self.timings.to_json())
            .with(
                "cache_hits",
                Json::obj()
                    .with("profile", self.profile_hit)
                    .with("compile", self.compile_hit)
                    .with("baseline_sim", self.baseline_hit)
                    .with("spt_sim", self.spt_hit),
            )
            .with("baseline_cycles", self.baseline_cycles)
            .with("spt_cycles", self.spt_cycles)
            .with("speedup", self.speedup)
            .with("semantics_ok", self.semantics_ok)
    }
}

/// The observability record of one experiment run: wall-clock, worker
/// count, per-item records, and cache counters. Every `spt-bench` binary
/// can serialize one of these as machine-readable JSON next to its text
/// tables.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Experiment name (`"fig8"`, `"ablation_srb"`, ...).
    pub experiment: String,
    /// Worker threads the sweep ran with.
    pub workers: usize,
    /// End-to-end wall-clock of the experiment, milliseconds.
    pub wall_ms: f64,
    pub records: Vec<BenchRecord>,
    /// Cache activity during this experiment (deltas, not process totals).
    pub cache: MemoStats,
    /// Per-benchmark trace-histogram folds, present only on traced runs
    /// (see [`crate::trace`]): an object keyed by benchmark name.
    pub histograms: Option<Json>,
}

impl RunReport {
    /// Sum of per-phase compute time across records — the work a
    /// sequential run would serialize. `wall_ms` below this sum means the
    /// sweep overlapped work; the ratio is the parallel speedup.
    pub fn compute_ms(&self) -> f64 {
        self.records.iter().map(|r| r.timings.total_ms()).sum()
    }

    /// Simulated cycles actually executed during this run: baseline and
    /// SPT cycles of records whose simulation phase was a cache *miss*
    /// (hits replay a memoized result and simulate nothing).
    pub fn total_sim_cycles(&self) -> u64 {
        self.records
            .iter()
            .map(|r| {
                let b = if r.baseline_hit {
                    0
                } else {
                    r.baseline_cycles.unwrap_or(0)
                };
                let s = if r.spt_hit {
                    0
                } else {
                    r.spt_cycles.unwrap_or(0)
                };
                b + s
            })
            .sum()
    }

    /// Simulator throughput: executed simulated cycles per wall-clock
    /// second (0.0 for an instantaneous or simulation-free run).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.total_sim_cycles() as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }

    /// Inverse of [`ToJson::to_json`]: reconstruct a report from its JSON
    /// form. Derived quantities (`compute_ms`, `total_sim_cycles`, ...)
    /// are recomputed from the records, not read back. This is what lets
    /// a bench binary in `--server` mode treat the daemon's report exactly
    /// like a locally produced one.
    pub fn from_json(j: &Json) -> Option<RunReport> {
        Some(RunReport {
            experiment: j.get("experiment")?.as_str()?.to_string(),
            workers: j.get("workers")?.as_u64()? as usize,
            wall_ms: j.get("wall_ms")?.as_f64()?,
            records: j
                .get("records")?
                .as_array()?
                .iter()
                .map(BenchRecord::from_json)
                .collect::<Option<Vec<_>>>()?,
            cache: MemoStats::from_json(j.get("cache")?)?,
            histograms: j.get("histograms").cloned(),
        })
    }

    /// The timing-free projection of this report: experiment name plus,
    /// per record, only content-derived values (names, cycle counts,
    /// speedups, semantics checks). Two runs of the same experiment —
    /// direct or daemon-served, cold or from the warm store, at any worker
    /// count — must serialize this projection to identical bytes; the
    /// differential tests and the CI daemon smoke step diff exactly these.
    pub fn deterministic_json(&self) -> Json {
        Json::obj()
            .with("experiment", self.experiment.as_str())
            .with(
                "records",
                Json::Array(
                    self.records
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .with("name", r.name.as_str())
                                .with("baseline_cycles", r.baseline_cycles)
                                .with("spt_cycles", r.spt_cycles)
                                .with("speedup", r.speedup)
                                .with("semantics_ok", r.semantics_ok)
                        })
                        .collect(),
                ),
            )
    }

    /// One-line human summary (printed by the bench binaries).
    pub fn summary(&self) -> String {
        format!(
            "[{}] {} items in {:.0} ms wall ({:.0} ms compute) on {} workers; cache {} hits / {} misses",
            self.experiment,
            self.records.len(),
            self.wall_ms,
            self.compute_ms(),
            self.workers,
            self.cache.hits(),
            self.cache.misses()
        )
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("experiment", self.experiment.as_str())
            .with("workers", self.workers)
            .with("wall_ms", self.wall_ms)
            .with("compute_ms", self.compute_ms())
            .with("total_sim_cycles", self.total_sim_cycles())
            .with("sim_cycles_per_sec", self.sim_cycles_per_sec())
            .with("cache", self.cache.to_json())
            .with(
                "records",
                Json::Array(self.records.iter().map(ToJson::to_json).collect()),
            );
        if let Some(h) = &self.histograms {
            j = j.with("histograms", h.clone());
        }
        j
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Parallel experiment engine: a worker pool plus the process-wide memo
/// cache for the four pipeline phases.
pub struct Sweep {
    workers: usize,
    profiles: Shard<ProgramProfile>,
    /// Dependence profiles, an internal tier of the compile phase: keyed on
    /// what `profile_loops` reads — program, profile fuel and candidate
    /// loops — so compiles that differ only in their cost model (the
    /// core-count sweep, the compiler ablation) share one profiling run.
    deps: Shard<DepProfile>,
    compiles: Shard<CompileResult>,
    baselines: Shard<BaselineReport>,
    spts: Shard<SptReport>,
    /// Optional telemetry sink notified after each phase lookup and each
    /// evaluated item. Purely observational — see [`PhaseObserver`].
    observer: Option<Arc<dyn PhaseObserver>>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::auto()
    }
}

impl Sweep {
    /// An engine with exactly `workers` threads (min 1).
    pub fn new(workers: usize) -> Sweep {
        Sweep {
            workers: workers.max(1),
            profiles: Shard::default(),
            deps: Shard::default(),
            compiles: Shard::default(),
            baselines: Shard::default(),
            spts: Shard::default(),
            observer: None,
        }
    }

    /// Attach a telemetry observer. At most one; attaching replaces any
    /// previous observer.
    pub fn set_observer(&mut self, obs: Arc<dyn PhaseObserver>) {
        self.observer = Some(obs);
    }

    #[inline]
    fn observe_phase(&self, phase: &'static str, stamp: PhaseStamp) {
        if let Some(obs) = &self.observer {
            obs.phase_done(phase, stamp);
        }
    }

    /// Single-threaded engine (still memoizes).
    pub fn sequential() -> Sweep {
        Sweep::new(1)
    }

    /// One worker per unit of the machine's available parallelism.
    pub fn auto() -> Sweep {
        Sweep::new(default_workers())
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current cumulative cache counters.
    pub fn memo_stats(&self) -> MemoStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MemoStats {
            profile_hits: ld(&self.profiles.hits),
            profile_misses: ld(&self.profiles.misses),
            compile_hits: ld(&self.compiles.hits),
            compile_misses: ld(&self.compiles.misses),
            baseline_hits: ld(&self.baselines.hits),
            baseline_misses: ld(&self.baselines.misses),
            spt_hits: ld(&self.spts.hits),
            spt_misses: ld(&self.spts.misses),
        }
    }

    /// Per memo table (profile, dependence, compile, baseline, SPT): the
    /// entries held and the misses counted so far.
    #[cfg(test)]
    pub(crate) fn memo_census(&self) -> [(usize, u64); 5] {
        fn of<T>(s: &Shard<T>) -> (usize, u64) {
            (s.memo.len(), s.misses.load(Ordering::Relaxed))
        }
        [
            of(&self.profiles),
            of(&self.deps),
            of(&self.compiles),
            of(&self.baselines),
            of(&self.spts),
        ]
    }

    /// Fan `items` across the worker pool, preserving order: `result[i]`
    /// is `f(i, &items[i])` regardless of which worker ran it or when.
    /// With one worker (or one item) this runs inline on the caller's
    /// thread. A panic in any item propagates after all workers finish.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for _ in 0..self.workers.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i, &items[i]);
                    done.lock().unwrap().push((i, r));
                });
            }
        });
        let mut v = done.into_inner().unwrap();
        v.sort_by_key(|(i, _)| *i);
        v.into_iter().map(|(_, r)| r).collect()
    }

    // -- memoized pipeline phases ------------------------------------------

    /// Profile a program (memoized on program content + fuel).
    pub fn profile(&self, prog: &Program, fuel: u64) -> (Arc<ProgramProfile>, PhaseStamp) {
        let key = Key(program_fingerprint(prog), fuel, 0, 0);
        let (p, stamp) = self
            .profiles
            .get_or_compute(key, || profile_program(prog, fuel));
        self.observe_phase("profile", stamp);
        (p, stamp)
    }

    /// Compile a program (memoized on program content + options). The
    /// profiling pass inside compilation goes through the profile cache,
    /// so e.g. Figure 6 and a suite evaluation share one profile per
    /// benchmark; the dependence profile goes through its own cache keyed
    /// on the candidate loops, which no cost-model option changes. A
    /// compile miss's stamp includes the dependence lookup it paid for.
    /// Returns `(result, compile stamp, profile stamp)`.
    pub fn compile(
        &self,
        prog: &Program,
        opts: &CompileOptions,
    ) -> (Arc<CompileResult>, PhaseStamp, PhaseStamp) {
        let (profile, pstamp) = self.profile(prog, opts.profile_fuel);
        let fp = program_fingerprint(prog);
        let key = Key(fp, debug_fingerprint(opts), 0, 0);
        let (res, cstamp) = self.compiles.get_or_compute(key, || {
            let deps = self.dep_profile(prog, fp, opts, &profile);
            compile_with_deps(prog, opts, (*profile).clone(), &deps, &mut NullSink)
        });
        self.observe_phase("compile", cstamp);
        (res, cstamp, pstamp)
    }

    /// The dependence profile of the [`candidate_keys`] loops of `prog`
    /// (content fingerprint `fp`), memoized on what `profile_loops` reads:
    /// program, profile fuel and the sorted candidate keys. Both the
    /// memoized compile and the traced pipeline go through it.
    pub(crate) fn dep_profile(
        &self,
        prog: &Program,
        fp: u64,
        opts: &CompileOptions,
        profile: &ProgramProfile,
    ) -> Arc<DepProfile> {
        let mut keys = candidate_keys(prog, opts, profile);
        keys.sort_unstable();
        let dkey = Key(fp, opts.profile_fuel, debug_fingerprint(&keys), 0);
        self.deps
            .get_or_compute(dkey, || profile_loops(prog, &keys, opts.profile_fuel))
            .0
    }

    /// Baseline (sequential one-core) simulation, memoized on program
    /// content, the machine's core timing model, loop annotations and
    /// fuel. The baseline reads nothing of the speculation fabric, so
    /// machines that differ only there share one run; the annotations stay
    /// in the key because they decide which loop a cycle is charged to
    /// (DESIGN.md §3a).
    pub fn baseline(
        &self,
        prog: &Program,
        machine: &MachineConfig,
        annots: &LoopAnnotations,
        fuel: u64,
    ) -> (Arc<BaselineReport>, PhaseStamp) {
        let core = &machine.core;
        let key = Key(
            program_fingerprint(prog),
            debug_fingerprint(core),
            debug_fingerprint(annots),
            fuel,
        );
        self.sim_phase("baseline_sim", &self.baselines, key, || {
            simulate_baseline(prog, core, annots, fuel)
        })
    }

    /// SPT simulation of a (transformed) program on the whole machine,
    /// memoized on program content, machine config, loop annotations and
    /// fuel.
    pub fn spt_sim(
        &self,
        prog: &Program,
        machine: &MachineConfig,
        annots: &LoopAnnotations,
        fuel: u64,
    ) -> (Arc<SptReport>, PhaseStamp) {
        let key = Key(
            program_fingerprint(prog),
            debug_fingerprint(machine),
            debug_fingerprint(annots),
            fuel,
        );
        self.sim_phase("spt_sim", &self.spts, key, || {
            SptSim::new(prog, machine.clone(), annots.clone()).run(fuel)
        })
    }

    /// One simulation-phase lookup: the memo, else `run`.
    fn sim_phase<T>(
        &self,
        phase: &'static str,
        shard: &Shard<T>,
        key: Key,
        run: impl FnOnce() -> T,
    ) -> (Arc<T>, PhaseStamp) {
        let (r, stamp) = shard.get_or_compute(key, run);
        self.observe_phase(phase, stamp);
        (r, stamp)
    }

    /// The full evaluation pipeline for one program, phase by phase
    /// through the memo cache. Produces exactly what
    /// [`crate::solution::evaluate_program`] produces, plus the metrics
    /// record. Does **not** assert semantics — callers running inside
    /// worker threads collect outcomes first and assert on their own
    /// thread.
    pub fn evaluate(
        &self,
        name: &str,
        prog: &Program,
        cfg: &RunConfig,
    ) -> (EvalOutcome, BenchRecord) {
        let (compiled, cstamp, pstamp) = self.compile(prog, &cfg.compile);

        let base_annots = original_annotations(prog, &compiled);
        let (baseline, bstamp) = self.baseline(prog, &cfg.machine, &base_annots, cfg.fuel);

        let annots = spt_annotations(&compiled);
        let (spt, sstamp) = self.spt_sim(&compiled.program, &cfg.machine, &annots, cfg.fuel);

        let outcome = EvalOutcome {
            name: name.to_string(),
            baseline: (*baseline).clone(),
            spt: (*spt).clone(),
            compiled: (*compiled).clone(),
        };
        let mut record = BenchRecord::new(
            name.to_string(),
            [pstamp, cstamp, bstamp, sstamp],
            Some((&baseline, &spt)),
        );
        record.semantics_ok = Some(outcome.semantics_ok());
        (outcome, record)
    }

    /// Assemble a [`RunReport`] for an experiment that started at `t0`
    /// with cache counters `before`.
    pub(crate) fn report_since(
        &self,
        experiment: &str,
        t0: Instant,
        before: MemoStats,
        records: Vec<BenchRecord>,
    ) -> RunReport {
        RunReport {
            experiment: experiment.to_string(),
            workers: self.workers,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            records,
            cache: self.memo_stats().since(&before),
            histograms: None,
        }
    }
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::MEMO_CAP;
    use spt_mach::CoreConfig;
    use spt_sim::LoopAnnot;
    use spt_sir::{BinOp, BlockId, Guard, ProgramBuilder, Reg};
    use spt_workloads::kernels::array_map;
    use spt_workloads::{benchmark, Scale, BENCHMARK_NAMES};

    #[test]
    fn fingerprints_separate_programs_and_configs() {
        let a = array_map(64, 8);
        let b = array_map(65, 8);
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
        assert_eq!(
            program_fingerprint(&a),
            program_fingerprint(&array_map(64, 8))
        );

        // Pairs that differ in exactly one field the key must cover.
        let tweaked = |edit: &dyn Fn(&mut Program)| {
            let mut p = a.clone();
            edit(&mut p);
            program_fingerprint(&p)
        };
        let guarded =
            |g: Guard| move |p: &mut Program| p.funcs[0].blocks[1].insts[0].guard = Some(g);
        let fa = program_fingerprint(&a);
        assert_ne!(fa, tweaked(&|p| p.data[17].1 += 1), "data-image value");
        assert_ne!(fa, tweaked(&|p| p.mem_words += 1), "mem_words");
        let (when, unless) = (Guard::when(Reg(0)), Guard::unless(Reg(0)));
        assert_ne!(tweaked(&guarded(when)), tweaked(&guarded(unless)), "guard");
        assert_ne!(fa, tweaked(&guarded(when)), "guard vs none");
        assert_ne!(fa, tweaked(&|p| p.funcs[0].name.push('2')), "function name");

        // The fingerprint is unseeded, so it is the same in every process and
        // on every run: a seeded hasher would pass every check above. So would
        // a toolchain whose std `Hash` impls feed other bytes.
        assert_eq!(fa, 0x6bef_8285_ccb9_5a78);

        let m1 = MachineConfig::default();
        let mut m2 = MachineConfig::default();
        m2.srb_entries = 16;
        assert_ne!(debug_fingerprint(&m1), debug_fingerprint(&m2));
        // A fabric field leaves the core (the baseline's key) unchanged.
        assert_eq!(debug_fingerprint(&m1.core), debug_fingerprint(&m2.core));

        // Every nested core field reaches both the core's and the whole
        // machine's fingerprint.
        let core_edits: [&dyn Fn(&mut CoreConfig); 14] = [
            &|c| c.l1i.size_bytes *= 2,
            &|c| c.l1d.assoc *= 2,
            &|c| c.l2.latency += 1,
            &|c| c.l3.block_bytes *= 2,
            &|c| c.mem_latency += 1,
            &|c| c.issue_width += 1,
            &|c| c.rf_ports += 1,
            &|c| c.bp_entries *= 2,
            &|c| c.bp_penalty += 1,
            &|c| c.lat_alu += 1,
            &|c| c.lat_mul += 1,
            &|c| c.lat_div += 1,
            &|c| c.lat_store += 1,
            &|c| c.lat_call += 1,
        ];
        for (i, edit) in core_edits.iter().enumerate() {
            let mut m = MachineConfig::default();
            edit(&mut m.core);
            assert_ne!(
                debug_fingerprint(&m1.core),
                debug_fingerprint(&m.core),
                "core field {i}"
            );
            assert_ne!(
                debug_fingerprint(&m1),
                debug_fingerprint(&m),
                "machine via core field {i}"
            );
        }
    }

    /// `main` runs loop A (block 1), which calls `inner` on each
    /// iteration; `inner`'s loop B (block 1) runs only inside those calls.
    /// Returns the program and the annotations of A and B.
    fn loop_calling_loop() -> (Program, LoopAnnot, LoopAnnot) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("inner", 1);
        let n = f.param(0);
        let i = f.const_reg(0);
        let acc = f.const_reg(0);
        let (body, exit) = (f.new_block(), f.new_block());
        f.jmp(body);
        f.switch_to(body);
        f.bin(BinOp::Add, acc, acc, i);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, n);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(acc));
        let inner = f.finish();

        let mut f = pb.func("main", 0);
        let j = f.const_reg(0);
        let sum = f.const_reg(0);
        let n = f.const_reg(16);
        let (body, exit) = (f.new_block(), f.new_block());
        f.jmp(body);
        f.switch_to(body);
        let r = f.reg();
        f.call(inner, &[n], Some(r));
        f.bin(BinOp::Add, sum, sum, r);
        f.addi(j, j, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, j, n);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(sum));
        let main = f.finish();

        let annot = |id, func| LoopAnnot {
            id,
            func,
            blocks: vec![BlockId(1)],
            fork_start: None,
        };
        (pb.finish(main, 1), annot(0, main), annot(1, inner))
    }

    #[test]
    fn baseline_key_keeps_the_loop_selection() {
        // A cycle goes to the outermost annotated loop on the call stack,
        // the same exclusive rule the SPT side attributes by. So selected
        // loop B, reached only through calls from selected loop A, is
        // charged nothing, while B selected alone is charged: the
        // selection changes the result, so it must stay in the key.
        let (prog, a, b) = loop_calling_loop();
        let m = MachineConfig::default();
        let sw = Sweep::sequential();
        let both = LoopAnnotations {
            loops: vec![a, b.clone()],
        };
        let alone = LoopAnnotations {
            loops: vec![LoopAnnot { id: 0, ..b }],
        };
        let (with_a, _) = sw.baseline(&prog, &m, &both, 1_000_000);
        let (without_a, _) = sw.baseline(&prog, &m, &alone, 1_000_000);
        assert_eq!(with_a.ret, Some(16 * 120));
        assert!(with_a.loop_cycles[0] > 0);
        assert_eq!(with_a.loop_cycles[1], 0, "B runs only inside A's calls");
        assert!(without_a.loop_cycles[0] > 0, "B selected alone is charged");
        assert_eq!(with_a.cycles, without_a.cycles);
        assert_eq!(sw.memo_stats().baseline_misses, 2);
    }

    #[test]
    fn baseline_key_is_the_core_timing_model() {
        let prog = array_map(64, 8);
        let none = LoopAnnotations::empty();
        let table1 = MachineConfig::default();

        // Machines that differ only in the speculation fabric share one run.
        let sw = Sweep::sequential();
        let fabric = MachineConfig {
            srb_entries: 16,
            ..MachineConfig::default()
        };
        let (r1, _) = sw.baseline(&prog, &table1, &none, 5_000_000);
        let (r2, stamp) = sw.baseline(&prog, &fabric, &none, 5_000_000);
        assert!(stamp.hit && Arc::ptr_eq(&r1, &r2));
        assert_eq!(sw.memo_stats().baseline_misses, 1);

        // A core timing field is part of the key.
        let sw = Sweep::sequential();
        let mut slow = MachineConfig::default();
        slow.core.mem_latency += 50;
        let (r1, _) = sw.baseline(&prog, &table1, &none, 5_000_000);
        let (r2, _) = sw.baseline(&prog, &slow, &none, 5_000_000);
        assert_eq!(sw.memo_stats().baseline_misses, 2);
        assert!(r2.cycles > r1.cycles);
    }

    #[test]
    fn map_preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8] {
            let sw = Sweep::new(workers);
            let got = sw.map(&items, |_, &x| x * x);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn memo_computes_each_key_once() {
        let sw = Sweep::new(4);
        let prog = array_map(80, 8);
        // Hammer the same profile from many workers.
        let idxs: Vec<usize> = (0..16).collect();
        let fps: Vec<u64> = sw.map(&idxs, |_, _| {
            let (p, _) = sw.profile(&prog, 1_000_000);
            Arc::as_ptr(&p) as u64
        });
        // Everyone saw the same allocation.
        assert!(fps.windows(2).all(|w| w[0] == w[1]));
        let stats = sw.memo_stats();
        assert_eq!(stats.profile_misses, 1);
        assert_eq!(stats.profile_hits, 15);
    }

    #[test]
    fn memo_table_keeps_the_cap_and_the_recently_used_entry() {
        let sw = Sweep::sequential();
        let prog = array_map(16, 2);
        let (m, none) = (MachineConfig::default(), LoopAnnotations::empty());
        let run = |fuel| sw.baseline(&prog, &m, &none, fuel);
        let (first, _) = run(1_000_000);
        let hot = 2_000_000;
        run(hot);
        for i in 1..=MEMO_CAP as u64 + 8 {
            run(1_000_000 + i);
            assert!(run(hot).1.hit, "the most recently used entry survives");
        }
        assert!(sw.baselines.memo.len() <= MEMO_CAP);
        // The first key was evicted: it is recomputed, equal, and a miss.
        let misses = sw.memo_stats().baseline_misses;
        assert_eq!(misses, MEMO_CAP as u64 + 10);
        let (again, stamp) = run(1_000_000);
        assert!(!stamp.hit);
        assert_eq!(sw.memo_stats().baseline_misses, misses + 1);
        assert_eq!(again.to_json().dump(), first.to_json().dump());
    }

    #[test]
    fn in_flight_memo_entries_are_never_evicted() {
        let shard = &Shard::<u64>::default();
        let key = |i| Key(i, 0, 0, 0);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let slow = s.spawn(move || {
                shard.get_or_compute(key(0), || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    42
                })
            });
            started_rx.recv().unwrap();
            for i in 1..=2 * MEMO_CAP as u64 {
                shard.get_or_compute(key(i), || i);
            }
            assert!(shard.memo.contains(&key(0)));
            assert_eq!(shard.memo.len(), MEMO_CAP);
            // A second thread asking for the in-flight key joins its
            // computation instead of starting another.
            let waiter = s.spawn(move || shard.get_or_compute(key(0), || unreachable!()));
            release_tx.send(()).unwrap();
            let (a, sa) = slow.join().unwrap();
            let (b, sb) = waiter.join().unwrap();
            assert!(Arc::ptr_eq(&a, &b) && *a == 42);
            assert!(!sa.hit && sb.hit);
        });
        assert_eq!(
            shard.misses.load(Ordering::Relaxed),
            1 + 2 * MEMO_CAP as u64
        );
    }

    #[test]
    fn fig_scale_profiles_dependences_once_per_benchmark() {
        // Core count only reaches the compiler's cost model: each of the 30
        // (benchmark, cores) compiles is its own miss, but the 10
        // benchmarks' dependence profiles are computed once each.
        let sw = Sweep::sequential();
        let cfg = RunConfig::default();
        sw.fig_scale(&BENCHMARK_NAMES, &[2, 4, 8], Scale::Test, &cfg);
        assert_eq!(sw.memo_stats().compile_misses, 30);
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(ld(&sw.deps.misses), 10);
        assert_eq!(ld(&sw.deps.hits), 20);
    }

    #[test]
    fn traced_compile_shares_the_dependence_memo() {
        // The traced pipeline looks the dependence profile up in the same
        // memo as the untraced one: no second profiling run, and the same
        // compile result.
        let prog = benchmark("parsers", Scale::Test).program;
        let cfg = RunConfig::default();
        let sw = Sweep::sequential();
        let _ = sw.evaluate("parsers", &prog, &cfg);
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (misses, hits) = (ld(&sw.deps.misses), ld(&sw.deps.hits));
        assert_eq!(misses, 1);
        let (traced, _) = sw.trace_program("parsers", &prog, &cfg);
        assert_eq!(ld(&sw.deps.misses), misses, "traced compile re-profiled");
        assert_eq!(ld(&sw.deps.hits), hits + 1);
        let (compiled, _, _) = sw.compile(&prog, &cfg.compile);
        assert_eq!(
            format!("{:?}", traced.outcome.compiled),
            format!("{compiled:?}")
        );
    }

    #[test]
    fn evaluate_matches_direct_pipeline() {
        let prog = array_map(100, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;
        let sw = Sweep::sequential();
        let (a, record) = sw.evaluate("array_map", &prog, &cfg);
        let b = crate::solution::evaluate_program("array_map", &prog, &cfg);
        assert_eq!(a.baseline.cycles, b.baseline.cycles);
        assert_eq!(a.spt.cycles, b.spt.cycles);
        assert_eq!(a.baseline.ret, b.baseline.ret);
        assert_eq!(a.spt.ret, b.spt.ret);
        assert!(!record.compile_hit && !record.spt_hit);
        // Second evaluation: everything hits.
        let (_, r2) = sw.evaluate("array_map", &prog, &cfg);
        assert!(r2.profile_hit && r2.compile_hit && r2.baseline_hit && r2.spt_hit);
        assert_eq!(r2.timings.total_ms(), 0.0);
    }

    #[test]
    fn report_serializes_with_stable_schema() {
        let rep = RunReport {
            experiment: "demo".into(),
            workers: 2,
            wall_ms: 1.5,
            records: vec![BenchRecord {
                name: "b".into(),
                speedup: Some(1.25),
                baseline_cycles: Some(3000),
                spt_cycles: Some(1500),
                ..Default::default()
            }],
            cache: MemoStats::default(),
            histograms: None,
        };
        let s = rep.to_json().dump();
        for key in [
            "\"experiment\":\"demo\"",
            "\"workers\":2",
            "\"wall_ms\":1.5",
            "\"total_sim_cycles\":4500",
            "\"sim_cycles_per_sec\":3000000",
            "\"cache\":",
            "\"profile\":{\"hits\":0,\"misses\":0}",
            "\"records\":",
            "\"speedup\":1.25",
            "\"timings\":",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn observer_sees_phases_without_changing_results() {
        #[derive(Default)]
        struct Probe {
            events: Mutex<Vec<(&'static str, &'static str)>>,
        }
        impl PhaseObserver for Probe {
            fn phase_done(&self, phase: &'static str, stamp: PhaseStamp) {
                self.events
                    .lock()
                    .unwrap()
                    .push((phase, stamp.provenance()));
            }
        }

        let prog = array_map(100, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;

        let plain = Sweep::sequential();
        let (baseline_outcome, _) = plain.evaluate("array_map", &prog, &cfg);

        let probe = Arc::new(Probe::default());
        let mut sw = Sweep::sequential();
        sw.set_observer(probe.clone());
        let (o1, _) = sw.evaluate("array_map", &prog, &cfg);
        assert_eq!(
            o1.to_json().dump(),
            baseline_outcome.to_json().dump(),
            "observer must not perturb results"
        );
        {
            let ev = probe.events.lock().unwrap();
            for phase in ["profile", "compile", "baseline_sim", "spt_sim"] {
                assert!(
                    ev.contains(&(phase, "computed")),
                    "missing computed {phase} in {ev:?}"
                );
            }
        }
        // Second evaluation: every phase reports memo provenance.
        let _ = sw.evaluate("array_map", &prog, &cfg);
        let ev = probe.events.lock().unwrap();
        for phase in ["profile", "compile", "baseline_sim", "spt_sim"] {
            assert!(
                ev.contains(&(phase, "memo")),
                "missing memo {phase} in {ev:?}"
            );
        }
    }

    #[test]
    fn run_report_json_roundtrips() {
        let prog = array_map(64, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;
        let sw = Sweep::sequential();
        let (_, record) = sw.evaluate("array_map", &prog, &cfg);
        let rep = RunReport {
            experiment: "roundtrip".into(),
            workers: 3,
            wall_ms: 12.25,
            records: vec![record],
            cache: sw.memo_stats(),
            histograms: Some(Json::obj().with("k", 1u64)),
        };
        let back = RunReport::from_json(&rep.to_json()).expect("parses back");
        assert_eq!(back.to_json().dump(), rep.to_json().dump());
        assert_eq!(
            back.deterministic_json().dump(),
            rep.deterministic_json().dump()
        );
    }

    #[test]
    fn sim_cycle_throughput_counts_only_executed_phases() {
        let mut rep = RunReport {
            experiment: "demo".into(),
            workers: 1,
            wall_ms: 2000.0,
            records: vec![
                BenchRecord {
                    name: "ran".into(),
                    baseline_cycles: Some(100),
                    spt_cycles: Some(60),
                    ..Default::default()
                },
                BenchRecord {
                    name: "cached".into(),
                    baseline_hit: true,
                    spt_hit: true,
                    baseline_cycles: Some(100),
                    spt_cycles: Some(60),
                    ..Default::default()
                },
            ],
            cache: MemoStats::default(),
            histograms: None,
        };
        // Only the executed record's cycles count toward throughput.
        assert_eq!(rep.total_sim_cycles(), 160);
        assert_eq!(rep.sim_cycles_per_sec(), 80.0);
        rep.wall_ms = 0.0;
        assert_eq!(rep.sim_cycles_per_sec(), 0.0);
    }
}
