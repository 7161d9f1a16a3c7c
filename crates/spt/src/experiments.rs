//! The paper's evaluation experiments (Figures 6–9, Table 1, the Figure 1
//! case study, and the implied ablations), producing structured data that
//! the `spt-bench` binaries render.
//!
//! Every experiment is one method on [`Sweep`]: it fans per-benchmark
//! work across the engine's worker pool, reuses phase results through the
//! memo cache, and returns the experiment data together with a
//! [`RunReport`] of per-phase timings and cache counters. The SRB,
//! core-count and policy sweeps share one grid primitive that runs every
//! (benchmark, variant) item through compile, baseline and SPT
//! simulation.
//!
//! Parallel and sequential runs produce identical data: work items are
//! independent, results are collected in item order, and all timing
//! information is confined to the `RunReport`.

use crate::report::arithmetic_mean;
use crate::solution::{spt_annotations, EvalOutcome, RunConfig};
use crate::sweep::{BenchRecord, PhaseStamp, RunReport, Sweep};
use spt_compiler::{CompileOptions, CompileResult};
use spt_mach::{MachineConfig, RecoveryKind, RegCheckPolicy};
use spt_profile::ProgramProfile;
use spt_sim::LoopAnnotations;
use spt_workloads::{benchmark, kernels, suite, Scale, Workload};
use std::time::Instant;

/// Ablation A1 output: per benchmark, a series of (SRB size, speedup).
pub type SrbData = Vec<(String, Vec<(usize, f64)>)>;

/// Core-count sweep output: per benchmark, a series of (cores, speedup).
pub type ScaleData = Vec<(String, Vec<(usize, f64)>)>;

/// Labeled-ablation output: per benchmark, rows of (variant label, speedup).
pub type LabeledData = Vec<(String, Vec<(String, f64)>)>;

/// Figure 6: one benchmark's accumulative loop coverage vs body size.
#[derive(Clone, Debug)]
pub struct Fig6Series {
    pub name: String,
    /// (body-size limit, accumulative coverage in `[0, 1]`).
    pub points: Vec<(f64, f64)>,
}

/// The x-axis buckets of Figure 6 (log scale 1..1e6).
pub const FIG6_LIMITS: [f64; 9] = [
    10.0,
    30.0,
    100.0,
    300.0,
    1_000.0,
    3_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
];

fn fig6_points(prof: &ProgramProfile) -> Vec<(f64, f64)> {
    let mut loops: Vec<(f64, f64)> = prof
        .loops
        .iter()
        .map(|(k, d)| (d.avg_body_size(), prof.coverage(*k)))
        .collect();
    loops.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    FIG6_LIMITS
        .iter()
        .map(|&lim| {
            let cov: f64 = loops
                .iter()
                .filter(|(sz, _)| *sz <= lim)
                .map(|(_, c)| c)
                .sum();
            (lim, cov.min(1.0))
        })
        .collect()
}

/// Reference (non-memoized) Figure 6 computation, kept for the tests that
/// cross-check the sweep path against it.
#[cfg(test)]
fn fig6_one(w: &Workload, fuel: u64) -> Fig6Series {
    let prof = spt_profile::profile_program(&w.program, fuel);
    Fig6Series {
        name: w.name.to_string(),
        points: fig6_points(&prof),
    }
}

/// Figure 7: SPT loop count and coverage vs the maximum loop coverage under
/// the same size limit.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    pub name: String,
    pub max_coverage: f64,
    pub spt_coverage: f64,
    pub n_spt_loops: usize,
}

fn fig7_row(name: &str, compiled: &CompileResult) -> Fig7Row {
    let limit = if name == "gaps" { 2500.0 } else { 1000.0 };
    let max_coverage: f64 = compiled
        .profile
        .loops
        .iter()
        .filter(|(_, d)| d.avg_body_size() <= limit)
        .map(|(k, _)| compiled.profile.coverage(*k))
        .sum::<f64>()
        .min(1.0);
    let spt_coverage: f64 = compiled
        .loops
        .iter()
        .map(|l| l.coverage)
        .sum::<f64>()
        .min(1.0);
    Fig7Row {
        name: name.to_string(),
        max_coverage,
        spt_coverage,
        n_spt_loops: compiled.loops.len(),
    }
}

/// Figure 8: per-benchmark SPT loop-level performance.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    pub name: String,
    /// Cycle-weighted average speedup of the benchmark's SPT loops.
    pub avg_loop_speedup: f64,
    pub fast_commit_ratio: f64,
    pub misspeculation_ratio: f64,
    /// `spt_fork`s that arrived while a speculative thread was running.
    pub forks_ignored: u64,
    /// Replays cut short by control divergence.
    pub divergence_kills: u64,
}

/// Figure 9: per-benchmark program speedup with its breakdown.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    pub name: String,
    pub speedup: f64,
    /// Fractions of baseline time recovered per category.
    pub exec_contrib: f64,
    pub pipe_contrib: f64,
    pub dcache_contrib: f64,
}

/// A suite evaluation: outcomes in suite order, plus the run's metrics.
#[derive(Debug)]
pub struct SuiteRun {
    pub outcomes: Vec<EvalOutcome>,
    pub report: RunReport,
}

/// What a simulation grid item runs with: its compile options and its
/// machine.
type SimVariant = (CompileOptions, MachineConfig);

impl Sweep {
    /// Evaluate the full suite across the worker pool. Semantics of every
    /// benchmark are asserted on the calling thread, after collection.
    pub fn eval_suite(&self, scale: Scale, cfg: &RunConfig) -> SuiteRun {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws = suite(scale);
        let (outcomes, records): (Vec<EvalOutcome>, Vec<BenchRecord>) = self
            .map(&ws, |_, w| self.evaluate(w.name, &w.program, cfg))
            .into_iter()
            .unzip();
        for o in &outcomes {
            assert!(
                o.semantics_ok(),
                "{}: SPT run diverged from sequential semantics",
                o.name
            );
        }
        SuiteRun {
            outcomes,
            report: self.report_since("eval_suite", t0, before, records),
        }
    }

    /// Figure 6 across the worker pool (profile phase only).
    pub fn fig6(&self, scale: Scale, fuel: u64) -> (Vec<Fig6Series>, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws = suite(scale);
        let (series, records): (Vec<Fig6Series>, Vec<BenchRecord>) = self
            .map(&ws, |_, w| {
                let (prof, stamp) = self.profile(&w.program, fuel);
                let series = Fig6Series {
                    name: w.name.to_string(),
                    points: fig6_points(&prof),
                };
                let none = PhaseStamp::default();
                let stamps = [stamp, none, none, none];
                (series, BenchRecord::new(w.name.to_string(), stamps, None))
            })
            .into_iter()
            .unzip();
        (series, self.report_since("fig6", t0, before, records))
    }

    /// Figure 7 across the worker pool (profile + compile phases).
    pub fn fig7(&self, scale: Scale, cfg: &RunConfig) -> (Vec<Fig7Row>, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws = suite(scale);
        let (rows, records): (Vec<Fig7Row>, Vec<BenchRecord>) = self
            .map(&ws, |_, w| {
                let (compiled, cstamp, pstamp) = self.compile(&w.program, &cfg.compile);
                let none = PhaseStamp::default();
                let stamps = [pstamp, cstamp, none, none];
                (
                    fig7_row(w.name, &compiled),
                    BenchRecord::new(w.name.to_string(), stamps, None),
                )
            })
            .into_iter()
            .unzip();
        (rows, self.report_since("fig7", t0, before, records))
    }

    /// The Figure 1 case study through the engine.
    pub fn fig1_case_study(&self, nodes: usize, cfg: &RunConfig) -> (CaseStudy, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let prog = kernels::parser_free_loop(nodes);
        let (out, record) = self.evaluate("parser_free_loop", &prog, cfg);
        (
            case_study_of(out),
            self.report_since("fig1", t0, before, vec![record]),
        )
    }

    /// The grid primitive: one item per (benchmark, variant) pair across
    /// the worker pool, each turned by `item` into a record named
    /// `bench@label`. Returns, per benchmark, the items' speedups in
    /// variant order.
    fn grid<V: Sync>(
        &self,
        experiment: &str,
        bench_names: &[&str],
        scale: Scale,
        variants: &[(String, V)],
        item: impl Fn(String, &Workload, &V) -> BenchRecord + Sync,
    ) -> (Vec<Vec<f64>>, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws: Vec<Workload> = bench_names.iter().map(|n| benchmark(n, scale)).collect();
        let items: Vec<(&Workload, &(String, V))> = ws
            .iter()
            .flat_map(|w| variants.iter().map(move |v| (w, v)))
            .collect();
        let records = self.map(&items, |_, &(w, (label, v))| {
            item(format!("{}@{label}", w.name), w, v)
        });
        let n = variants.len();
        let speedups = (0..ws.len())
            .map(|b| {
                records[b * n..][..n]
                    .iter()
                    .filter_map(|r| r.speedup)
                    .collect()
            })
            .collect();
        (speedups, self.report_since(experiment, t0, before, records))
    }

    /// One item of the SRB, core-count and policy grids: compile with the
    /// variant's options, then simulate the original program on the
    /// baseline and the compiled one on SPT, both on the variant's
    /// machine. The baseline runs unannotated and its memo key holds only
    /// the machine's core, so the variants of a benchmark that change only
    /// the speculation fabric share one baseline run.
    fn sim_item(
        &self,
        name: String,
        w: &Workload,
        (copts, machine): &SimVariant,
        fuel: u64,
    ) -> BenchRecord {
        let (compiled, cstamp, pstamp) = self.compile(&w.program, copts);
        let (base, bstamp) = self.baseline(&w.program, machine, &LoopAnnotations::empty(), fuel);
        let annots = spt_annotations(&compiled);
        let (spt, sstamp) = self.spt_sim(&compiled.program, machine, &annots, fuel);
        BenchRecord::new(name, [pstamp, cstamp, bstamp, sstamp], Some((&base, &spt)))
    }

    /// Ablation A1: speculation result buffer size sweep, one grid item
    /// per (benchmark, SRB size) pair.
    pub fn ablation_srb(
        &self,
        bench_names: &[&str],
        sizes: &[usize],
        scale: Scale,
        cfg: &RunConfig,
    ) -> (SrbData, RunReport) {
        let variants: Vec<(String, SimVariant)> = sizes
            .iter()
            .map(|&s| {
                let machine = MachineConfig {
                    srb_entries: s,
                    ..cfg.machine.clone()
                };
                (format!("srb{s}"), (cfg.compile.clone(), machine))
            })
            .collect();
        let (speedups, report) = self.grid(
            "ablation_srb",
            bench_names,
            scale,
            &variants,
            |name, w, v| self.sim_item(name, w, v, cfg.fuel),
        );
        let data = bench_names
            .iter()
            .zip(speedups)
            .map(|(name, row)| (name.to_string(), sizes.iter().copied().zip(row).collect()))
            .collect();
        (data, report)
    }

    /// Core-count scaling sweep (the `fig_scale` experiment), one grid
    /// item per (benchmark, core count) pair. The compiler's cost model is
    /// told the fabric width (its partition search targets the deeper
    /// iteration pipeline) and the machine gets the matching number of
    /// cores.
    pub fn fig_scale(
        &self,
        bench_names: &[&str],
        core_counts: &[usize],
        scale: Scale,
        cfg: &RunConfig,
    ) -> (ScaleData, RunReport) {
        let variants: Vec<(String, SimVariant)> = core_counts
            .iter()
            .map(|&n| {
                let mut copts = cfg.compile.clone();
                copts.cost.cores = n;
                let machine = MachineConfig {
                    cores: n,
                    ..cfg.machine.clone()
                };
                (format!("cores{n}"), (copts, machine))
            })
            .collect();
        let (speedups, report) =
            self.grid("fig_scale", bench_names, scale, &variants, |name, w, v| {
                self.sim_item(name, w, v, cfg.fuel)
            });
        let data = bench_names
            .iter()
            .zip(speedups)
            .map(|(name, row)| {
                (
                    name.to_string(),
                    core_counts.iter().copied().zip(row).collect(),
                )
            })
            .collect();
        (data, report)
    }

    /// Ablations A2/A3: recovery mechanism and register checking policy,
    /// one grid item per (benchmark, machine variant) pair.
    pub fn ablation_policies(
        &self,
        bench_names: &[&str],
        scale: Scale,
        cfg: &RunConfig,
    ) -> (LabeledData, RunReport) {
        let variants = policy_variants(cfg);
        let (speedups, report) = self.grid(
            "ablation_policies",
            bench_names,
            scale,
            &variants,
            |name, w, v| self.sim_item(name, w, v, cfg.fuel),
        );
        (labeled(bench_names, &variants, speedups), report)
    }

    /// Ablation A4: compiler features (no SVP, no unroll, naive
    /// partition), one grid item per (benchmark, compiler variant) pair,
    /// each a full evaluation.
    pub fn ablation_compiler(
        &self,
        bench_names: &[&str],
        scale: Scale,
        cfg: &RunConfig,
    ) -> (LabeledData, RunReport) {
        let variants = compiler_variants(cfg);
        let (speedups, report) = self.grid(
            "ablation_compiler",
            bench_names,
            scale,
            &variants,
            |name, w, rc| self.evaluate(&name, &w.program, rc).1,
        );
        (labeled(bench_names, &variants, speedups), report)
    }
}

/// Pair each benchmark's per-variant speedups with the variant labels.
fn labeled<V>(
    bench_names: &[&str],
    variants: &[(String, V)],
    speedups: Vec<Vec<f64>>,
) -> LabeledData {
    bench_names
        .iter()
        .zip(speedups)
        .map(|(name, row)| {
            let labels = variants.iter().map(|(label, _)| label.clone());
            (name.to_string(), labels.zip(row).collect())
        })
        .collect()
}

pub fn fig8_rows(outcomes: &[EvalOutcome]) -> Vec<Fig8Row> {
    outcomes
        .iter()
        .map(|o| {
            let speedups = o.loop_speedups();
            let weights: Vec<f64> = o.baseline.loop_cycles.iter().map(|&c| c as f64).collect();
            let wsum: f64 = weights.iter().sum();
            let avg = if wsum > 0.0 {
                speedups
                    .iter()
                    .zip(&weights)
                    .map(|(s, w)| s * w)
                    .sum::<f64>()
                    / wsum
            } else {
                1.0
            };
            Fig8Row {
                name: o.name.clone(),
                avg_loop_speedup: avg,
                fast_commit_ratio: o.spt.fast_commit_ratio(),
                misspeculation_ratio: o.spt.misspeculation_ratio(),
                forks_ignored: o.spt.forks_ignored,
                divergence_kills: o.spt.divergence_kills,
            }
        })
        .collect()
}

pub fn fig9_rows(outcomes: &[EvalOutcome]) -> Vec<Fig9Row> {
    outcomes
        .iter()
        .map(|o| {
            let (e, p, d) = o.breakdown_contributions();
            Fig9Row {
                name: o.name.clone(),
                speedup: o.speedup(),
                exec_contrib: e,
                pipe_contrib: p,
                dcache_contrib: d,
            }
        })
        .collect()
}

/// The Figure 1 case study: the parser list-free loop.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    pub loop_speedup: f64,
    /// Fraction of speculatively executed instructions that were invalid
    /// (misspeculated or discarded).
    pub invalid_ratio: f64,
    /// Fraction of speculative threads that ran perfectly parallel
    /// (fast-committed without any violation).
    pub perfect_ratio: f64,
    pub outcome: EvalOutcome,
}

fn case_study_of(out: EvalOutcome) -> CaseStudy {
    let speedups = out.loop_speedups();
    let loop_speedup = speedups.first().copied().unwrap_or(out.speedup());
    let spec_total = out.spt.spec_instrs_checked + out.spt.spec_instrs_discarded;
    let invalid_ratio = if spec_total == 0 {
        0.0
    } else {
        (out.spt.spec_misspec + out.spt.spec_instrs_discarded) as f64 / spec_total as f64
    };
    CaseStudy {
        loop_speedup,
        invalid_ratio,
        perfect_ratio: out.spt.fast_commit_ratio(),
        outcome: out,
    }
}

/// The machine variants of ablations A2/A3 (recovery × register checking).
fn policy_variants(cfg: &RunConfig) -> Vec<(String, SimVariant)> {
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
    .map(|(label, machine)| (label.to_string(), (cfg.compile.clone(), machine)))
    .collect()
}

/// The compiler-feature variants of ablation A4.
fn compiler_variants(cfg: &RunConfig) -> Vec<(String, RunConfig)> {
    let mut no_svp = cfg.clone();
    no_svp.compile.enable_svp = false;
    let mut no_unroll = cfg.clone();
    no_unroll.compile.enable_unroll = false;
    let mut naive = cfg.clone();
    // "Naive partition": fork at the very top — emulated by forbidding any
    // motion (size bound 0).
    naive.compile.cost.size_bound_frac = 0.0;
    vec![
        ("full".into(), cfg.clone()),
        ("no-svp".into(), no_svp),
        ("no-unroll".into(), no_unroll),
        ("no-motion".into(), naive),
    ]
}

/// Average program speedup across outcomes (the paper's headline 15.6%).
pub fn average_speedup(outcomes: &[EvalOutcome]) -> f64 {
    arithmetic_mean(&outcomes.iter().map(|o| o.speedup()).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RunConfig {
        let mut c = RunConfig::default();
        c.fuel = 30_000_000;
        c
    }

    #[test]
    fn fig6_series_monotone_and_bounded() {
        let w = benchmark("gzips", Scale::Test);
        let s = fig6_one(&w, 30_000_000);
        let mut prev = 0.0;
        for (_, c) in &s.points {
            assert!(*c >= prev - 1e-12, "coverage must be non-decreasing");
            assert!(*c <= 1.0 + 1e-12);
            prev = *c;
        }
        // The final bucket captures the dominant loops.
        assert!(s.points.last().unwrap().1 > 0.3);
    }

    #[test]
    fn fig6_sweep_matches_direct() {
        let sw = Sweep::new(2);
        let (series, report) = sw.fig6(Scale::Test, 10_000_000);
        assert_eq!(series.len(), 10);
        assert_eq!(report.records.len(), 10);
        let direct = fig6_one(&benchmark("gzips", Scale::Test), 10_000_000);
        let via_sweep = series.iter().find(|s| s.name == "gzips").unwrap();
        assert_eq!(via_sweep.points, direct.points);
        // All ten benchmarks profiled exactly once.
        assert_eq!(report.cache.profile_misses, 10);
    }

    #[test]
    fn fig1_case_study_shape() {
        let cs = Sweep::new(2).fig1_case_study(400, &quick_cfg()).0;
        assert!(cs.outcome.semantics_ok());
        assert!(cs.loop_speedup > 1.1, "speedup {}", cs.loop_speedup);
        assert!(cs.invalid_ratio < 0.5);
        assert!(cs.perfect_ratio > 0.05);
    }

    #[test]
    fn fig7_reports_selection() {
        let rows = Sweep::new(2).fig7(Scale::Test, &quick_cfg()).0;
        assert_eq!(rows.len(), 10);
        let parsers = rows.iter().find(|r| r.name == "parsers").unwrap();
        assert!(parsers.n_spt_loops >= 1);
        assert!(parsers.spt_coverage <= parsers.max_coverage + 1e-9);
        let vortexs = rows.iter().find(|r| r.name == "vortexs").unwrap();
        assert!(vortexs.max_coverage < 0.5);
    }

    #[test]
    fn fig_scale_shares_baseline_and_does_not_degrade() {
        let sw = Sweep::new(2);
        let mut cfg = quick_cfg();
        cfg.fuel = 10_000_000;
        let (data, report) = sw.fig_scale(&["parsers"], &[2, 4], Scale::Test, &cfg);
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].1, {
            let again = sw.fig_scale(&["parsers"], &[2, 4], Scale::Test, &cfg).0;
            again[0].1.clone()
        });
        // One baseline simulation, shared across the two core counts.
        assert_eq!(report.cache.baseline_misses, 1);
        assert_eq!(report.cache.baseline_hits, 1);
        // Two distinct compiles (the cost model sees the core count) and
        // two distinct SPT simulations (the machine differs).
        assert_eq!(report.cache.compile_misses, 2);
        assert_eq!(report.cache.spt_misses, 2);
        // Wider fabric must not degrade the loop-dominated parser bench.
        let (_, s2) = data[0].1[0];
        let (_, s4) = data[0].1[1];
        assert!(s4 + 1e-9 >= s2, "cores=4 speedup {s4} < cores=2 {s2}");
    }

    #[test]
    fn ablation_srb_shares_compile_and_baseline() {
        // The SRB sizes and the four recovery/check machines change only
        // fabric fields, which neither the compile nor the baseline reads:
        // one compile and one baseline per benchmark, and a distinct SPT
        // simulation per item.
        let mut cfg = quick_cfg();
        cfg.fuel = 10_000_000;
        let benches = ["parsers", "mcfs"];
        let (srb, srb_report) =
            Sweep::new(2).ablation_srb(&benches, &[16, 1024], Scale::Test, &cfg);
        let (policies, policy_report) =
            Sweep::new(2).ablation_policies(&benches, Scale::Test, &cfg);
        let series = [
            (
                srb.iter().map(|(_, s)| s.len() as u64).collect::<Vec<_>>(),
                srb_report,
                2,
            ),
            (
                policies.iter().map(|(_, s)| s.len() as u64).collect(),
                policy_report,
                4,
            ),
        ];
        for (lens, report, per_bench) in series {
            assert_eq!(lens, [per_bench; 2]);
            assert_eq!(report.cache.compile_misses, 2);
            assert_eq!(report.cache.compile_hits, 2 * (per_bench - 1));
            assert_eq!(report.cache.baseline_misses, 2);
            assert_eq!(report.cache.baseline_hits, 2 * (per_bench - 1));
            assert_eq!(report.cache.spt_misses, 2 * per_bench);
        }
    }
}
