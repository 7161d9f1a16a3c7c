//! The two sweep workloads, driven through `Sweep::fig_scale` and
//! `Sweep::ablation_policies` with one worker.
//!
//! * `sweep_scale`: the 10 suite benchmarks × cores {2,4,8} — 30 computed
//!   compiles per rep, because the core count enters the compile options.
//! * `sweep_policies`: the 10 benchmarks × the four recovery/checking
//!   machines — 10 compiles and 40 SPT simulations per rep.
//!
//! Every rep runs on a fresh `Sweep`, so each one does the full work, right
//! after a calibration kernel that scales its time to the reference host
//! (see `host`). The seed only permutes the benchmark order. After timing,
//! each rep is checked by walking its items again on the same engine (every
//! lookup is then a memo hit): returns against the interpreter, and the
//! rep's name-sorted digest against the set-up rep's.

use crate::attr::{attribute, set_derived, SptRun};
use crate::check::{check_ret, digest};
use crate::host::Calibrator;
use crate::trace::Tracer;
use crate::{peak_rss_mb, ratio, Opts, Outcome, Rng};
use spt::compiler::{CompileOptions, CompileResult};
use spt::interp::RunResult;
use spt::mach::{MachineConfig, RecoveryKind, RegCheckPolicy};
use spt::service::FIG_SCALE_CORES;
use spt::sim::{arena_stats, BaselineReport, LoopAnnotations, SptReport};
use spt::workloads::{benchmark, Scale, Workload, BENCHMARK_NAMES};
use spt::{BenchRecord, MemoStats, PhaseStamp, PhaseTimings, RunConfig, RunReport, Sweep};
use std::sync::Arc;
use std::time::Instant;

/// The paper's headline: 15.6 % average two-core program speedup.
const PAPER_SPEEDUP_PCT: f64 = 15.6;

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Scale,
    Policies,
}

impl Kind {
    fn experiment(self) -> &'static str {
        match self {
            Kind::Scale => "fig_scale",
            Kind::Policies => "ablation_policies",
        }
    }

    /// Record-name suffix of the paper's configuration (two cores,
    /// selective re-execution with value-based checking).
    fn paper_suffix(self) -> &'static str {
        match self {
            Kind::Scale => "@cores2",
            Kind::Policies => "@SRX+FC value",
        }
    }
}

/// |mean program speedup of the records named `*suffix` − 15.6|, in
/// percentage points.
pub fn speedup_gap_pp(report: &RunReport, suffix: &str) -> f64 {
    let s: Vec<f64> = report
        .records
        .iter()
        .filter(|r| r.name.ends_with(suffix))
        .filter_map(|r| r.speedup)
        .collect();
    let mean = s.iter().sum::<f64>() / s.len().max(1) as f64;
    ((mean - 1.0) * 100.0 - PAPER_SPEEDUP_PCT).abs()
}

/// One compiler/machine point of an item, built exactly as the library
/// experiment builds it (the fidelity test holds the two to the same
/// digest).
struct Variant {
    label: String,
    copts: CompileOptions,
    machine: MachineConfig,
}

fn variants(kind: Kind, cfg: &RunConfig) -> Vec<Variant> {
    match kind {
        Kind::Scale => FIG_SCALE_CORES
            .iter()
            .map(|&n| {
                let mut copts = cfg.compile.clone();
                copts.cost.cores = n;
                let mut machine = cfg.machine.clone();
                machine.cores = n;
                Variant {
                    label: format!("cores{n}"),
                    copts,
                    machine,
                }
            })
            .collect(),
        Kind::Policies => {
            let m = &cfg.machine;
            [
                ("SRX+FC value", m.clone()),
                (
                    "SRX+FC mark",
                    MachineConfig {
                        reg_check: RegCheckPolicy::MarkBased,
                        ..m.clone()
                    },
                ),
                (
                    "SRX only",
                    MachineConfig {
                        recovery: RecoveryKind::SrxOnly,
                        ..m.clone()
                    },
                ),
                (
                    "Squash",
                    MachineConfig {
                        recovery: RecoveryKind::Squash,
                        ..m.clone()
                    },
                ),
            ]
            .into_iter()
            .map(|(label, machine)| Variant {
                label: label.to_string(),
                copts: cfg.compile.clone(),
                machine,
            })
            .collect()
        }
    }
}

/// One item of the benchmark's own walk, with what each phase returned.
struct Step {
    bench: usize,
    variant: usize,
    compiled: Arc<CompileResult>,
    annots: LoopAnnotations,
    base: Arc<BaselineReport>,
    spt: Arc<SptReport>,
    /// Stamps and span times of profile, compile, baseline, spt_sim.
    stamps: [PhaseStamp; 4],
    span_ms: [f64; 4],
}

/// Walk the experiment's items phase by phase through `sweep`, one span
/// per phase call. Profile is looked up before compile so the compile
/// span holds compilation alone.
fn walk(
    sweep: &Sweep,
    ws: &[Workload],
    vs: &[Variant],
    cfg: &RunConfig,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> (Vec<BenchRecord>, Vec<Step>) {
    let mut records = Vec::with_capacity(ws.len() * vs.len());
    let mut steps = Vec::with_capacity(ws.len() * vs.len());
    for (b, w) in ws.iter().enumerate() {
        for (v, var) in vs.iter().enumerate() {
            let item = (b * vs.len() + v) as u64;
            let id = tracer.open("item", parent, item);
            let ((_, pstamp), p_ms) = tracer.span("profile", Some(id), item, || {
                sweep.profile(&w.program, var.copts.profile_fuel)
            });
            let ((compiled, cstamp, _), c_ms) = tracer.span("compile", Some(id), item, || {
                sweep.compile(&w.program, &var.copts)
            });
            let annots = spt::spt_annotations(&compiled);
            let ((base, bstamp), b_ms) = tracer.span("baseline", Some(id), item, || {
                sweep.baseline(
                    &w.program,
                    &cfg.machine,
                    &LoopAnnotations::empty(),
                    cfg.fuel,
                )
            });
            let ((spt, sstamp), s_ms) = tracer.span("spt_sim", Some(id), item, || {
                sweep.spt_sim(&compiled.program, &var.machine, &annots, cfg.fuel)
            });
            tracer.close(id);
            records.push(BenchRecord {
                name: format!("{}@{}", w.name, var.label),
                timings: PhaseTimings {
                    profile_ms: pstamp.ms,
                    compile_ms: cstamp.ms,
                    baseline_ms: bstamp.ms,
                    spt_ms: sstamp.ms,
                },
                profile_hit: pstamp.hit,
                compile_hit: cstamp.hit,
                baseline_hit: bstamp.hit,
                spt_hit: sstamp.hit,
                baseline_cycles: Some(base.cycles),
                spt_cycles: Some(spt.cycles),
                speedup: Some(base.cycles as f64 / spt.cycles as f64),
                semantics_ok: None,
                superstep_hits: base.superstep_hits + spt.superstep_hits,
                superstep_misses: base.superstep_misses + spt.superstep_misses,
            });
            steps.push(Step {
                bench: b,
                variant: v,
                compiled,
                annots,
                base,
                spt,
                stamps: [pstamp, cstamp, bstamp, sstamp],
                span_ms: [p_ms, c_ms, b_ms, s_ms],
            });
        }
    }
    (records, steps)
}

/// The workload's fixed inputs: benchmark programs in seeded order, their
/// interpreter references, and the item variants.
struct Ctx {
    kind: Kind,
    scale: Scale,
    cfg: RunConfig,
    names: Vec<&'static str>,
    ws: Vec<Workload>,
    refs: Vec<RunResult>,
    vs: Vec<Variant>,
}

impl Ctx {
    fn new(kind: Kind, seed: u64, scale: Scale) -> Ctx {
        let cfg = RunConfig::default();
        let mut names = BENCHMARK_NAMES.to_vec();
        Rng::new(seed).shuffle(&mut names);
        let ws: Vec<Workload> = names.iter().map(|n| benchmark(n, scale)).collect();
        let refs = ws
            .iter()
            .map(|w| spt::interp::run(&w.program, cfg.fuel).0)
            .collect();
        let vs = variants(kind, &cfg);
        Ctx {
            kind,
            scale,
            cfg,
            names,
            ws,
            refs,
            vs,
        }
    }

    /// One rep of the library experiment on a fresh engine.
    fn rep(&self) -> (Sweep, RunReport) {
        let sweep = Sweep::new(1);
        let report = match self.kind {
            Kind::Scale => {
                sweep
                    .fig_scale(&self.names, &FIG_SCALE_CORES, self.scale, &self.cfg)
                    .1
            }
            Kind::Policies => {
                sweep
                    .ablation_policies(&self.names, self.scale, &self.cfg)
                    .1
            }
        };
        (sweep, report)
    }

    fn walk_report(&self, records: Vec<BenchRecord>) -> RunReport {
        RunReport {
            experiment: self.kind.experiment().to_string(),
            workers: 1,
            wall_ms: 0.0,
            records,
            cache: MemoStats::default(),
            histograms: None,
        }
    }

    fn check_steps(&self, steps: &[Step]) -> Result<(), String> {
        for s in steps {
            let what = format!("{}@{}", self.ws[s.bench].name, self.vs[s.variant].label);
            let r = &self.refs[s.bench];
            check_ret(
                &format!("{what} baseline"),
                s.base.ret,
                s.base.out_of_fuel,
                r,
            )?;
            check_ret(&format!("{what} spt"), s.spt.ret, s.spt.out_of_fuel, r)?;
        }
        Ok(())
    }

    /// Check a finished rep by walking its items again on its own engine:
    /// every lookup must hit the memo (the walk mirrors the experiment's
    /// keys), returns must match the interpreter, and both the rep's and
    /// the walk's digests must equal `expect`.
    fn check(&self, sweep: &Sweep, report: &RunReport, expect: u64) -> Result<(), String> {
        let before = sweep.memo_stats();
        let (records, steps) = walk(
            sweep,
            &self.ws,
            &self.vs,
            &self.cfg,
            &mut Tracer::new(),
            None,
        );
        let computed = sweep.memo_stats().since(&before).misses();
        if computed != 0 {
            return Err(format!(
                "check walk computed {computed} phases the rep did not"
            ));
        }
        self.check_steps(&steps)?;
        if digest(report) != expect {
            return Err(format!(
                "{} rep digest differs from the first rep",
                self.kind.experiment()
            ));
        }
        if digest(&self.walk_report(records)) != expect {
            return Err(format!(
                "{} walk digest differs from the rep",
                self.kind.experiment()
            ));
        }
        Ok(())
    }
}

/// The set-up: a warm-up rep on a fresh engine, timed, then checked. Its
/// digest is the one every later rep must reproduce.
fn setup(ctx: &Ctx, cal: &mut Calibrator, out: &mut Outcome) -> u64 {
    let t = cal.timed(|| ctx.rep());
    out.e2e.setup(&t);
    let (sweep, report) = t.value;
    let expect = digest(&report);
    out.tally.op(ctx.check(&sweep, &report, expect));
    out.e2e.speedup_gap_pp = speedup_gap_pp(&report, ctx.kind.paper_suffix());
    expect
}

pub fn run(kind: Kind, opts: &Opts, cal: &mut Calibrator) -> Outcome {
    let ctx = Ctx::new(kind, opts.seed, opts.scale());
    let mut out = Outcome::default();
    let expect = setup(&ctx, cal, &mut out);
    if opts.setup_only {
        return out;
    }
    if opts.trace {
        traced(&ctx, expect, &mut out);
        return out;
    }

    let start = Instant::now();
    while !opts.window_done(out.e2e.op_ms.len(), start) {
        let t = cal.timed(|| ctx.rep());
        out.e2e.rep(&t);
        let (sweep, report) = t.value;
        out.tally.op(ctx.check(&sweep, &report, expect));
    }
    out.e2e.peak_rss_mb = peak_rss_mb();
    out
}

/// The traced pass: one untraced rep for the overhead baseline, then the
/// benchmark's own walk with a span per phase call on a fresh engine,
/// then the attribution calls.
fn traced(ctx: &Ctx, expect: u64, out: &mut Outcome) {
    let t = Instant::now();
    let (sweep, report) = ctx.rep();
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    out.tally.op(ctx.check(&sweep, &report, expect));
    drop(sweep);

    let sweep = Sweep::new(1);
    let mut tracer = Tracer::new();
    let (memo0, arena0) = (sweep.memo_stats(), arena_stats());
    let t = Instant::now();
    let root = tracer.open("walk", None, 0);
    let (records, steps) = walk(&sweep, &ctx.ws, &ctx.vs, &ctx.cfg, &mut tracer, Some(root));
    tracer.close(root);
    let walk_ms = t.elapsed().as_secs_f64() * 1e3;
    let (memo, arena1) = (sweep.memo_stats().since(&memo0), arena_stats());
    out.tally.op(ctx.check_steps(&steps).and_then(|()| {
        if digest(&ctx.walk_report(records)) == expect {
            Ok(())
        } else {
            Err("traced walk digest differs from the rep".into())
        }
    }));

    let l = &mut out.layers;
    let (mut n, mut ms, mut lookup_ms) = ([0u64; 4], [0.0f64; 4], 0.0);
    let (mut loops, mut base_cycles, mut spt_cycles, mut ss_hits, mut ss_all) = (0, 0, 0, 0, 0);
    for s in &steps {
        for k in 0..4 {
            lookup_ms += s.span_ms[k] - s.stamps[k].ms;
            if !s.stamps[k].hit {
                n[k] += 1;
                ms[k] += s.span_ms[k];
            }
        }
        if !s.stamps[1].hit {
            loops += s.compiled.loops.len();
        }
        if !s.stamps[2].hit {
            base_cycles += s.base.cycles;
            ss_hits += s.base.superstep_hits;
            ss_all += s.base.superstep_hits + s.base.superstep_misses;
        }
        if !s.stamps[3].hit {
            spt_cycles += s.spt.cycles;
            ss_hits += s.spt.superstep_hits;
            ss_all += s.spt.superstep_hits + s.spt.superstep_misses;
        }
    }
    l.set("profile.ms", ms[0]);
    l.set("profile.computed", n[0] as f64);
    l.set("compiler.ms", ms[1]);
    l.set("compiler.computed", n[1] as f64);
    l.set("compiler.loops_selected", loops as f64);
    l.set("sim.baseline_ms", ms[2]);
    l.set("sim.spt_ms", ms[3]);
    l.set(
        "sim.superstep_hit_rate",
        ratio(ss_hits as f64, ss_all as f64),
    );
    let reuse = (arena1.reuse - arena0.reuse) as f64;
    l.set(
        "sim.arena_reuse_ratio",
        ratio(reuse, reuse + (arena1.fresh - arena0.fresh) as f64),
    );
    l.set("sweep.lookup_ms", lookup_ms);
    l.set(
        "sweep.memo_hit_ratio",
        ratio(memo.hits() as f64, (memo.hits() + memo.misses()) as f64),
    );
    l.set(
        "trace.overhead_pct",
        ratio(walk_ms - untraced_ms, untraced_ms) * 100.0,
    );

    // Attribution, outside the walk's spans: one original program per
    // benchmark, one direct SPT run per simulated item.
    let programs: Vec<_> = (0..ctx.ws.len())
        .filter_map(|b| {
            let s = steps.iter().find(|s| s.bench == b)?;
            Some((&ctx.ws[b].program, &*s.compiled))
        })
        .collect();
    let runs: Vec<SptRun> = steps
        .iter()
        .filter(|s| !s.stamps[3].hit)
        .map(|s| SptRun {
            prog: &s.compiled.program,
            machine: ctx.vs[s.variant].machine.clone(),
            annots: s.annots.clone(),
            expect_cycles: Some(s.spt.cycles),
        })
        .collect();
    attribute(&programs, &runs, &ctx.cfg, &mut tracer, l, &mut out.tally);
    set_derived(l, base_cycles, spt_cycles);
    out.spans = tracer.spans;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::chrome_json;

    /// The benchmark's own item walk must reproduce the library
    /// experiment exactly, for more than one item order, and its trace
    /// must pass the repository's Chrome trace validator.
    #[test]
    fn walk_reproduces_the_library_experiments() {
        for kind in [Kind::Scale, Kind::Policies] {
            for seed in [1, 2] {
                let ctx = Ctx::new(kind, seed, Scale::Test);
                let (_, report) = ctx.rep();
                let sweep = Sweep::new(1);
                let mut tracer = Tracer::new();
                let (records, steps) = walk(&sweep, &ctx.ws, &ctx.vs, &ctx.cfg, &mut tracer, None);
                assert_eq!(
                    digest(&ctx.walk_report(records)),
                    digest(&report),
                    "{kind:?} seed {seed}"
                );
                ctx.check_steps(&steps).unwrap();
                let text = chrome_json(&tracer.spans).pretty();
                let events = spt::validate_chrome_trace(&text).unwrap();
                assert_eq!(events, steps.len() * 5, "{kind:?} seed {seed}");
            }
        }
    }
}
