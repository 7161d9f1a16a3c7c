//! Named-experiment runner shared by the figure binaries and `spt-serve`.
//!
//! Every artifact of the evaluation section is addressable by name here:
//! a [`ExperimentRequest`] names an experiment plus its knobs, and
//! [`run_experiment`] produces the rendered table and the structured
//! [`RunReport`]. The `spt-bench` binaries in direct mode and the
//! `spt-serve` daemon both funnel through this one function, so a
//! daemon-served run is bit-identical to a local one by construction —
//! same sweep engine, same renderers, same report assembly.

use crate::json::{Json, ToJson};
use crate::report::{
    render_ablation_compiler, render_ablation_policies, render_ablation_srb, render_explain,
    render_fig1, render_fig5, render_fig6, render_fig7, render_fig8, render_fig9, render_fig_scale,
    render_table1,
};
use crate::solution::RunConfig;
use crate::sweep::{MemoStats, RunReport, Sweep};
use spt_mach::MachineConfig;
use spt_workloads::kernels::svp_loop;
use spt_workloads::{benchmark, suite, Scale, BENCHMARK_NAMES};
use std::time::Instant;

/// Every experiment [`run_experiment`] can serve, in presentation order.
pub const EXPERIMENT_NAMES: &[&str] = &[
    "table1",
    "fig1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig_scale",
    "ablation_srb",
    "ablation_recovery",
    "ablation_compiler",
    "spt_explain",
];

/// Core counts swept by the `fig_scale` experiment.
pub const FIG_SCALE_CORES: [usize; 3] = [2, 4, 8];

/// The wire name of a [`Scale`].
pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Parse a [`Scale`] wire name; inverse of [`scale_name`].
pub fn scale_from_name(s: &str) -> Option<Scale> {
    match s {
        "test" => Some(Scale::Test),
        "small" => Some(Scale::Small),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// A named experiment plus its knobs — the unit of work a daemon
/// request or a direct binary run names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentRequest {
    /// One of [`EXPERIMENT_NAMES`].
    pub name: String,
    /// Suite fidelity for experiments that sweep the benchmark suite.
    pub scale: Scale,
    /// `spt_explain` only: restrict to one benchmark.
    pub bench: Option<String>,
}

impl ExperimentRequest {
    pub fn new(name: &str, scale: Scale) -> Self {
        ExperimentRequest {
            name: name.to_string(),
            scale,
            bench: None,
        }
    }

    /// Decode a request from its wire form; `Err` names the defect.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let name = j
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("request missing string key \"experiment\"")?
            .to_string();
        if !EXPERIMENT_NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown experiment {name:?}; known: {EXPERIMENT_NAMES:?}"
            ));
        }
        let scale = match j.get("scale") {
            None => Scale::Small,
            Some(s) => {
                let s = s.as_str().ok_or("\"scale\" must be a string")?;
                scale_from_name(s).ok_or_else(|| format!("unknown scale {s:?}"))?
            }
        };
        let bench = match j.get("bench") {
            None | Some(Json::Null) => None,
            Some(b) => Some(b.as_str().ok_or("\"bench\" must be a string")?.to_string()),
        };
        Ok(ExperimentRequest { name, scale, bench })
    }
}

impl ToJson for ExperimentRequest {
    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("experiment", self.name.as_str())
            .with("scale", scale_name(self.scale));
        if let Some(b) = &self.bench {
            j = j.with("bench", b.as_str());
        }
        j
    }
}

/// What an experiment run produces: the rendered human-readable table
/// (exactly what the direct binary prints before its summary line) and
/// the structured metrics report.
#[derive(Clone, Debug)]
pub struct ExperimentOutput {
    pub table: String,
    pub report: RunReport,
}

impl ExperimentOutput {
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let table = j
            .get("table")
            .and_then(Json::as_str)
            .ok_or("output missing string key \"table\"")?
            .to_string();
        let report = j
            .get("report")
            .and_then(RunReport::from_json)
            .ok_or("output has no decodable \"report\"")?;
        Ok(ExperimentOutput { table, report })
    }
}

impl ToJson for ExperimentOutput {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("table", self.table.as_str())
            .with("report", self.report.to_json())
    }
}

/// Run the named experiment on `sweep`. Mirrors the corresponding
/// `spt-bench` binary's direct-mode logic exactly; `Err` is a
/// human-readable refusal (unknown experiment or bench filter), never
/// a panic, so a long-lived server survives bad requests.
pub fn run_experiment(
    sweep: &Sweep,
    req: &ExperimentRequest,
    cfg: &RunConfig,
) -> Result<ExperimentOutput, String> {
    let scale = req.scale;
    match req.name.as_str() {
        "table1" => {
            let t0 = Instant::now();
            let mach = MachineConfig::default();
            Ok(ExperimentOutput {
                table: render_table1(&mach),
                report: RunReport {
                    experiment: "table1".into(),
                    workers: 1,
                    wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    records: Vec::new(),
                    cache: MemoStats::default(),
                    histograms: None,
                },
            })
        }
        "fig1" => {
            let (cs, report) = sweep.fig1_case_study(2000, cfg);
            Ok(ExperimentOutput {
                table: render_fig1(&cs),
                report,
            })
        }
        "fig5" => {
            let t0 = Instant::now();
            let before = sweep.memo_stats();
            let prog = svp_loop(3000);
            let on_cfg = cfg.clone();
            let mut off_cfg = cfg.clone();
            off_cfg.compile.enable_svp = false;
            let configs = [("svp-off", off_cfg), ("svp-on", on_cfg)];
            let (outcomes, records): (Vec<_>, Vec<_>) = sweep
                .map(&configs, |_, (name, c)| sweep.evaluate(name, &prog, c))
                .into_iter()
                .unzip();
            Ok(ExperimentOutput {
                table: render_fig5(&outcomes[0], &outcomes[1]),
                report: sweep.report_since("fig5", t0, before, records),
            })
        }
        "fig6" => {
            let (series, report) = sweep.fig6(scale, 500_000_000);
            Ok(ExperimentOutput {
                table: render_fig6(&series),
                report,
            })
        }
        "fig7" => {
            let (rows, report) = sweep.fig7(scale, cfg);
            Ok(ExperimentOutput {
                table: render_fig7(&rows),
                report,
            })
        }
        "fig8" => {
            let run = sweep.eval_suite(scale, cfg);
            Ok(ExperimentOutput {
                table: render_fig8(&run.outcomes),
                report: run.report,
            })
        }
        "fig9" => {
            let run = sweep.eval_suite(scale, cfg);
            Ok(ExperimentOutput {
                table: render_fig9(&run.outcomes),
                report: run.report,
            })
        }
        "fig_scale" => {
            let names: Vec<&str> = suite(scale).iter().map(|w| w.name).collect();
            let (data, report) = sweep.fig_scale(&names, &FIG_SCALE_CORES, scale, cfg);
            Ok(ExperimentOutput {
                table: render_fig_scale(&FIG_SCALE_CORES, &data),
                report,
            })
        }
        "ablation_srb" => {
            let benches = ["parsers", "gccs", "mcfs"];
            let sizes = [16usize, 64, 256, 1024, 4096];
            let (data, report) = sweep.ablation_srb(&benches, &sizes, scale, cfg);
            Ok(ExperimentOutput {
                table: render_ablation_srb(&sizes, &data),
                report,
            })
        }
        "ablation_recovery" => {
            let benches = ["parsers", "gccs", "twolfs"];
            let (data, report) = sweep.ablation_policies(&benches, scale, cfg);
            Ok(ExperimentOutput {
                table: render_ablation_policies(&data),
                report,
            })
        }
        "ablation_compiler" => {
            let benches = ["parsers", "vprs", "gzips"];
            let (data, report) = sweep.ablation_compiler(&benches, scale, cfg);
            Ok(ExperimentOutput {
                table: render_ablation_compiler(&data),
                report,
            })
        }
        "spt_explain" => {
            let filter = req.bench.as_deref();
            let workloads: Vec<_> = suite(scale)
                .into_iter()
                .filter(|w| filter.is_none_or(|f| w.name == f))
                .collect();
            if workloads.is_empty() {
                return Err(format!(
                    "no benchmark named {:?}; known: {:?}",
                    filter.unwrap_or("<none>"),
                    BENCHMARK_NAMES
                ));
            }
            let t0 = Instant::now();
            let before = sweep.memo_stats();
            let pairs = sweep.map(&workloads, |_, w| {
                sweep.trace_program(w.name, &w.program, cfg)
            });
            let mut table = String::new();
            let mut records = Vec::with_capacity(pairs.len());
            let mut hists = Json::obj();
            for (run, rec) in &pairs {
                table.push_str(&render_explain(&run.outcome, &run.fold));
                table.push('\n');
                hists = hists.with(&run.trace.name, run.fold.to_json());
                records.push(rec.clone());
            }
            Ok(ExperimentOutput {
                table,
                report: RunReport {
                    experiment: "spt_explain".into(),
                    workers: sweep.workers(),
                    wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    records,
                    cache: sweep.memo_stats().since(&before),
                    histograms: Some(hists),
                },
            })
        }
        other => Err(format!(
            "unknown experiment {other:?}; known: {EXPERIMENT_NAMES:?}"
        )),
    }
}

/// The benchmark programs an experiment's `--trace` flag captures —
/// shared by the binaries so tracing behaves uniformly.
pub fn trace_workloads(req: &ExperimentRequest) -> Vec<(String, spt_sir::Program)> {
    match req.name.as_str() {
        "fig1" => vec![(
            "parser_free".to_string(),
            spt_workloads::kernels::parser_free_loop(2000),
        )],
        "fig5" => vec![("svp_loop".to_string(), svp_loop(3000))],
        "ablation_srb" => ["parsers", "gccs", "mcfs"]
            .iter()
            .map(|n| named_workload(n, req.scale))
            .collect(),
        "ablation_recovery" => ["parsers", "gccs", "twolfs"]
            .iter()
            .map(|n| named_workload(n, req.scale))
            .collect(),
        "ablation_compiler" => ["parsers", "vprs", "gzips"]
            .iter()
            .map(|n| named_workload(n, req.scale))
            .collect(),
        "spt_explain" => suite(req.scale)
            .into_iter()
            .filter(|w| req.bench.as_deref().is_none_or(|f| w.name == f))
            .map(|w| (w.name.to_string(), w.program))
            .collect(),
        // table1, fig6..fig9, fig_scale: the whole suite at the
        // requested scale.
        _ => suite(req.scale)
            .into_iter()
            .map(|w| (w.name.to_string(), w.program))
            .collect(),
    }
}

fn named_workload(name: &str, scale: Scale) -> (String, spt_sir::Program) {
    let w = benchmark(name, scale);
    (w.name.to_string(), w.program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RunConfig {
        let mut c = RunConfig::default();
        c.fuel = 20_000_000;
        c
    }

    #[test]
    fn request_json_roundtrips() {
        let mut req = ExperimentRequest::new("fig_scale", Scale::Full);
        req.bench = Some("parsers".into());
        let back = ExperimentRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
        // Defaults: scale omitted → Small, bench omitted → None.
        let j = Json::obj().with("experiment", "fig8");
        let d = ExperimentRequest::from_json(&j).unwrap();
        assert_eq!(d.scale, Scale::Small);
        assert_eq!(d.bench, None);
    }

    #[test]
    fn request_json_rejects_defects() {
        assert!(ExperimentRequest::from_json(&Json::obj()).is_err());
        let bad = Json::obj().with("experiment", "figx");
        assert!(ExperimentRequest::from_json(&bad).is_err());
        let bad = Json::obj().with("experiment", "fig8").with("scale", "huge");
        assert!(ExperimentRequest::from_json(&bad).is_err());
    }

    #[test]
    fn every_named_experiment_runs() {
        let sweep = Sweep::sequential();
        for name in EXPERIMENT_NAMES {
            let mut req = ExperimentRequest::new(name, Scale::Test);
            if *name == "spt_explain" {
                req.bench = Some("parsers".into());
            }
            let out =
                run_experiment(&sweep, &req, &cfg()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.table.is_empty(), "{name}: empty table");
            // The output round-trips through its wire form with the
            // deterministic surface intact.
            let back = ExperimentOutput::from_json(&out.to_json()).unwrap();
            assert_eq!(back.table, out.table);
            assert_eq!(
                back.report.deterministic_json().dump(),
                out.report.deterministic_json().dump()
            );
        }
    }

    #[test]
    fn baseline_census_per_experiment() {
        // Baseline memo misses each experiment adds on one sequential
        // engine. fig1 and fig5 run their own kernels, fig8 annotates every
        // benchmark by its selected loops, and fig_scale's unannotated runs
        // then serve ablation_srb and ablation_recovery, whose machines
        // differ from fig_scale's only in the speculation fabric. Two of
        // ablation_compiler's variants change a benchmark's selection.
        let sweep = Sweep::sequential();
        let mut census = Vec::new();
        for name in EXPERIMENT_NAMES {
            let mut req = ExperimentRequest::new(name, Scale::Test);
            if *name == "spt_explain" {
                req.bench = Some("parsers".into());
            }
            let before = sweep.memo_stats().baseline_misses;
            run_experiment(&sweep, &req, &RunConfig::default()).unwrap();
            census.push((*name, sweep.memo_stats().baseline_misses - before));
        }
        let expect = [
            ("table1", 0),
            ("fig1", 1),
            ("fig5", 2),
            ("fig6", 0),
            ("fig7", 0),
            ("fig8", 10),
            ("fig9", 0),
            ("fig_scale", 10),
            ("ablation_srb", 0),
            ("ablation_recovery", 0),
            ("ablation_compiler", 2),
            ("spt_explain", 0),
        ];
        assert_eq!(census, expect);
        assert_eq!(sweep.memo_stats().baseline_misses, 25);

        // The whole run's working set per memo table (profile, dependence,
        // compile, baseline, SPT) fits under the cap, so nothing was
        // evicted: each table holds one entry per miss.
        let misses: [u64; 5] = [22, 12, 42, 25, 58];
        assert_eq!(sweep.memo_census(), misses.map(|m| (m as usize, m)));
        assert!(misses.iter().all(|&m| m <= crate::MEMO_CAP as u64));
    }

    #[test]
    fn unknown_bench_filter_is_an_error_not_a_panic() {
        let sweep = Sweep::sequential();
        let mut req = ExperimentRequest::new("spt_explain", Scale::Test);
        req.bench = Some("nope".into());
        let err = run_experiment(&sweep, &req, &cfg()).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn serving_matches_direct_for_fig_scale() {
        // The tentpole's differential contract, at the library layer:
        // two independent engines (one standing in for the daemon, one
        // for the direct CLI) produce byte-identical deterministic
        // reports and tables.
        let req = ExperimentRequest::new("fig_scale", Scale::Test);
        let a = run_experiment(&Sweep::sequential(), &req, &cfg()).unwrap();
        let b = run_experiment(&Sweep::sequential(), &req, &cfg()).unwrap();
        assert_eq!(a.table, b.table);
        assert_eq!(
            a.report.deterministic_json().dump(),
            b.report.deterministic_json().dump()
        );
    }
}
