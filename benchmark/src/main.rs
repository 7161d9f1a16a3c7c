//! End-to-end and per-layer benchmark of the SPT reproduction: the sweep
//! engine (`Sweep::fig_scale`, `Sweep::ablation_policies`) and the
//! `spt-serve` daemon (`Server::start`, `client::request`), each checked
//! against an independent reference. See README.md for the workloads, the
//! metrics and the traced-run recipe.
//!
//! ```text
//! benchmark --workload <name|all> --seed <u64> [--seconds N] [--trace 0|1]
//!           [--json PATH] [--trace-out PATH] [--smoke] [--setup-only]
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — every end-to-end metric of BENCHMARK.json
//! (`--trace 0`) or every per-layer metric (`--trace 1`), each with its
//! value and unit.
//!
//! `benchmark --calibrate` is the calibration helper every workload run
//! starts for itself (see `host`).

mod attr;
mod check;
mod host;
mod serve;
mod sweeps;
mod trace;

use check::Tally;
use host::{Calibrator, Timed};
use spt::workloads::Scale;
use spt::Json;
use std::collections::BTreeMap;
use std::process::{exit, Command, Stdio};
use std::time::Instant;
use trace::Span;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "sweep_scale",
    "sweep_policies",
    "serve_mixed",
    "serve_restart",
];

/// Metric names, units and bounds come from here, so the declared metrics
/// and what the binary prints cannot drift apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Window length of `--smoke` serve workloads, seconds.
const SMOKE_SECONDS: f64 = 2.0;

/// Set-ups per untraced run; `setup_s` is their median. The first is the
/// one the window runs on; the others run afterwards, each in a fresh
/// child process (see [`repeat_setup`]).
const SETUP_RUNS: usize = 3;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// End-to-end metrics only: allowed worsening, as a share of the median.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |k: &str| -> &[Json] {
            doc.get(k)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json: no {k} list"))
        };
        let metrics = |k: &str| {
            list(k)
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    MetricSpec {
                        name: s("name"),
                        unit: s("unit"),
                        bound: m.get("bound").and_then(Json::as_f64),
                    }
                })
                .collect()
        };
        Spec {
            workloads: list("workloads")
                .iter()
                .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
                .collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// How one workload runs.
pub struct Opts {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// Test scale, one rep or a short window.
    pub smoke: bool,
    /// Run the set-up once, check it and stop: one set-up repetition, in a
    /// child process of an untraced run.
    pub setup_only: bool,
}

impl Opts {
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Test
        } else {
            Scale::Small
        }
    }

    /// Whether a rep-based window that started at `start` and has run
    /// `ops` reps is over.
    pub fn window_done(&self, ops: usize, start: Instant) -> bool {
        if self.smoke {
            ops >= 1
        } else {
            ops >= 3 && start.elapsed().as_secs_f64() >= self.seconds
        }
    }

    /// The command-line arguments that run `workload` with these options
    /// in a child process.
    fn child_args(&self, workload: &str) -> Vec<String> {
        let mut a: Vec<String> = ["--workload", workload, "--seed"].map(String::from).into();
        a.push(self.seed.to_string());
        a.extend(["--seconds".into(), self.seconds.to_string()]);
        a.extend(["--trace".into(), if self.trace { "1" } else { "0" }.into()]);
        if self.smoke {
            a.push("--smoke".into());
        }
        if self.setup_only {
            a.push("--setup-only".into());
        }
        a
    }
}

/// Raw end-to-end measurements of one untraced run.
#[derive(Default)]
pub struct E2e {
    /// One entry per set-up, seconds scaled to the reference host.
    pub setup_s: Vec<f64>,
    /// One entry per timed operation, ms: sweep reps scaled to the
    /// reference host, requests as the client observed them.
    pub op_ms: Vec<f64>,
    /// Every calibration kernel run of this process, ms.
    pub kernel_ms: Vec<f64>,
    /// `VmHWM` right after the timed window.
    pub peak_rss_mb: f64,
    pub speedup_gap_pp: f64,
}

impl E2e {
    /// Record a timed set-up.
    pub fn setup<R>(&mut self, t: &Timed<R>) {
        self.setup_s.push(t.scaled_s());
        self.kernel_ms.push(t.kernel_ms);
    }

    /// Record a timed sweep rep.
    pub fn rep<R>(&mut self, t: &Timed<R>) {
        self.op_ms.push(t.scaled_s() * 1e3);
        self.kernel_ms.push(t.kernel_ms);
    }
}

/// Per-layer values of a traced run, by BENCHMARK.json name. A layer the
/// workload does not exercise stays unset and reports 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub e2e: E2e,
    pub layers: Layers,
    pub spans: Vec<Span>,
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Linear-interpolated quantile; 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Deterministic generator for the seeded parts of the workloads
/// (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `VmHWM` of this process, MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cap glibc's malloc at one arena. Under the daemon's thread-per-connection
/// serving, the default per-thread arenas made `VmHWM` of identical runs
/// differ by up to a quarter, depending on which arenas the short-lived
/// connection threads landed in; with one arena it tracks what the process
/// holds.
fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` takes two integers and only changes allocator
        // tunables; glibc allows it at any time, and it runs here before
        // this process starts any thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Run one workload; in trace mode also validate its exported trace.
pub fn run_workload(name: &str, opts: &Opts) -> Outcome {
    let cal = &mut Calibrator::start();
    let mut out = match name {
        "sweep_scale" => sweeps::run(sweeps::Kind::Scale, opts, cal),
        "sweep_policies" => sweeps::run(sweeps::Kind::Policies, opts, cal),
        "serve_mixed" => serve::run(serve::Kind::Mixed, opts, cal),
        "serve_restart" => serve::run(serve::Kind::Restart, opts, cal),
        other => panic!("unknown workload {other:?}"),
    };
    if opts.trace {
        let text = trace::chrome_json(&out.spans).pretty();
        out.tally.op(spt::validate_chrome_trace(&text)
            .map(|_| ())
            .map_err(|e| format!("trace: {e}")));
    }
    out
}

/// Run this binary with `args`, wait for it, and parse its result line.
/// Returns the line and the child's whole stdout.
fn run_child(args: &[String]) -> Result<(Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run benchmark {}: {e}", args.join(" ")))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let line = stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .filter(|_| output.status.success())
        .ok_or_else(|| format!("benchmark {} produced no result", args.join(" ")))?;
    Ok((line, stdout))
}

/// The set-ups after the first, each in a fresh child process: repeated in
/// this process, a set-up would find the caches, thread-local simulator
/// arenas and allocator state the first one left behind, and would hide
/// exactly the set-up work the metric exists to show.
fn repeat_setup(workload: &str, opts: &Opts, out: &mut Outcome) {
    let child = Opts {
        setup_only: true,
        ..*opts
    };
    for _ in 1..SETUP_RUNS {
        let line = match run_child(&child.child_args(workload)) {
            Ok((line, _)) => line,
            Err(e) => {
                out.tally.op(Err(e));
                continue;
            }
        };
        out.tally.absorb(&line, "set-up child process");
        match line
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
        {
            Some(s) => out.e2e.setup_s.push(s),
            None => out
                .tally
                .op(Err("set-up child process printed no setup_s".into())),
        }
    }
}

/// One reported metric: its value and the samples it summarises.
struct Stat<'a> {
    spec: &'a MetricSpec,
    value: f64,
    samples: Vec<f64>,
}

impl Stat<'_> {
    /// The run's own spread, its samples' IQR relative to their median,
    /// exceeds the metric's bound: a comparison with this run cannot tell
    /// a regression from noise. A single sample has no spread of its own.
    fn noisy(&self) -> bool {
        let spread = quantile(&self.samples, 0.75) - quantile(&self.samples, 0.25);
        let rel = ratio(spread, median(&self.samples).abs());
        self.spec.bound.is_some_and(|b| rel > b)
    }

    fn detail(&self) -> Json {
        Json::obj()
            .with("value", self.value)
            .with("unit", self.spec.unit.as_str())
            .with("median", median(&self.samples))
            .with("q1", quantile(&self.samples, 0.25))
            .with("q3", quantile(&self.samples, 0.75))
            .with("n", self.samples.len())
            .with("bound", self.spec.bound)
            .with("noisy", self.noisy())
    }
}

fn stats<'a>(out: &Outcome, spec: &'a Spec, trace: bool) -> Vec<Stat<'a>> {
    if trace {
        for name in out.layers.0.keys() {
            assert!(
                spec.per_layer.iter().any(|m| m.name == *name),
                "per-layer metric {name} is not in BENCHMARK.json"
            );
        }
        return spec
            .per_layer
            .iter()
            .map(|m| {
                let v = out.layers.get(&m.name);
                Stat {
                    spec: m,
                    value: v,
                    samples: vec![v],
                }
            })
            .collect();
    }
    let e = &out.e2e;
    spec.end_to_end
        .iter()
        .map(|m| {
            let samples = match m.name.as_str() {
                "setup_s" => e.setup_s.clone(),
                "op_p50_ms" => e.op_ms.clone(),
                "peak_rss_mb" => vec![e.peak_rss_mb],
                "speedup_gap_pp" => vec![e.speedup_gap_pp],
                other => panic!("end-to-end metric {other} has no measurement"),
            };
            Stat {
                spec: m,
                value: median(&samples),
                samples,
            }
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`. A run
/// that checked nothing is not correct.
fn result_line(out: &Outcome, stats: &[Stat]) -> Json {
    let mut metrics = Json::obj();
    for s in stats {
        metrics = metrics.with(
            &s.spec.name,
            Json::obj()
                .with("value", s.value)
                .with("unit", s.spec.unit.as_str()),
        );
    }
    let failed = out.tally.failures.len() as u64;
    Json::obj()
        .with("correct", failed == 0 && out.tally.attempted > 0)
        .with("attempted", out.tally.attempted)
        .with("failed", failed)
        .with("metrics", metrics)
}

struct Args {
    workload: String,
    opts: Opts,
    json: Option<String>,
    trace_out: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: benchmark --workload <{}|all> --seed <u64> [--seconds N] [--trace 0|1] \
         [--json PATH] [--trace-out PATH] [--smoke] [--setup-only]",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args(spec: &Spec) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut json, mut trace_out, mut smoke, mut setup_only) = (None, None, false, false);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            "--setup-only" => {
                setup_only = true;
                continue;
            }
            _ => {}
        }
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => {
                seed = Some(v.parse().unwrap_or_else(|_| usage("--seed must be a u64")));
            }
            "--seconds" => match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 120.0 => seconds = Some(s),
                _ => usage("--seconds must be in (0, 120]"),
            },
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--json" => json = Some(v.clone()),
            "--trace-out" => trace_out = Some(v.clone()),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    if setup_only && (trace || workload == "all") {
        usage("--setup-only runs one workload untraced");
    }
    let seconds = if smoke {
        SMOKE_SECONDS
    } else {
        seconds.unwrap_or(spec.run_seconds)
    };
    Args {
        workload,
        opts: Opts {
            seed: seed.unwrap_or_else(|| usage("--seed is required")),
            seconds,
            trace,
            smoke,
            setup_only,
        },
        json,
        trace_out,
    }
}

/// `SPT_*` environment toggles in effect (they select runtime paths).
fn spt_env() -> Json {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SPT_"))
        .collect();
    vars.sort();
    vars.into_iter()
        .fold(Json::obj(), |j, (k, v)| j.with(&k, v))
}

fn write_file(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("benchmark: cannot write {path}: {e}");
        exit(1);
    }
}

fn main() {
    single_malloc_arena();
    if std::env::args().nth(1).as_deref() == Some(host::CALIBRATE_FLAG) {
        host::serve_kernel();
        return;
    }
    let spec = Spec::load();
    let args = parse_args(&spec);
    if args.workload == "all" {
        run_all(&args);
        return;
    }
    let o = &args.opts;
    let mut out = run_workload(&args.workload, o);
    if !o.trace && !o.setup_only {
        repeat_setup(&args.workload, o, &mut out);
    }
    let mut stats = stats(&out, &spec, o.trace);
    if o.setup_only {
        stats.retain(|s| s.spec.name == "setup_s");
    }

    println!(
        "[{}] seed {} · {} · {} ops attempted, {} failed",
        args.workload,
        o.seed,
        match (o.trace, o.setup_only) {
            (true, _) => "traced",
            (false, true) => "set-up only",
            (false, false) => "untraced",
        },
        out.tally.attempted,
        out.tally.failures.len()
    );
    for f in out.tally.failures.iter().take(10) {
        eprintln!("  FAILED: {f}");
    }
    for s in &stats {
        println!(
            "  {:<28} {:>14.4} {:<10} (n={}, q1 {:.4}, q3 {:.4}{})",
            s.spec.name,
            s.value,
            s.spec.unit,
            s.samples.len(),
            quantile(&s.samples, 0.25),
            quantile(&s.samples, 0.75),
            if s.noisy() { ", noisy" } else { "" }
        );
    }
    let kernel = &out.e2e.kernel_ms;
    if !kernel.is_empty() {
        println!(
            "  calibration kernel {:.2} ms median (n={}, reference {} ms)",
            median(kernel),
            kernel.len(),
            host::REFERENCE_MS
        );
    }
    if o.trace {
        println!("  self time by span:");
        for (name, count, total, own) in trace::self_times(&out.spans) {
            println!("    {name:<20} {count:>6} spans {total:>10.2} ms total {own:>10.2} ms self");
        }
        if let Some(path) = &args.trace_out {
            write_file(path, &trace::chrome_json(&out.spans).pretty());
        }
    }
    let line = result_line(&out, &stats);
    if let Some(path) = &args.json {
        let detail = stats
            .iter()
            .fold(Json::obj(), |j, s| j.with(&s.spec.name, s.detail()));
        let doc = Json::obj()
            .with("workload", args.workload.as_str())
            .with("seed", o.seed)
            .with("seconds", o.seconds)
            .with("trace", o.trace)
            .with("smoke", o.smoke)
            .with("env", spt_env())
            .with(
                "kernel_ms",
                Json::obj()
                    .with("reference", host::REFERENCE_MS)
                    .with("median", median(kernel))
                    .with("q1", quantile(kernel, 0.25))
                    .with("q3", quantile(kernel, 0.75))
                    .with("n", kernel.len()),
            )
            .with(
                "correct",
                line.get("correct").cloned().unwrap_or(Json::Null),
            )
            .with("attempted", out.tally.attempted)
            .with("failed", out.tally.failures.len())
            .with("failures", Json::array(out.tally.failures.clone()))
            .with("metrics", detail);
        write_file(path, &doc.pretty());
    }
    println!("{}", line.dump());
}

/// `--workload all`: each workload in a child process of its own (so
/// `peak_rss_mb` is per workload), one after another. Prints the children's
/// output, then one combined result line with `<workload>/<metric>` keys.
fn run_all(args: &Args) {
    let o = &args.opts;
    let (mut attempted, mut failed, mut metrics, mut details) = (0, 0, Json::obj(), Json::obj());
    for w in WORKLOADS {
        let mut a = o.child_args(w);
        let child_json = args.json.as_ref().map(|p| format!("{p}.{w}"));
        if let Some(p) = &child_json {
            a.extend(["--json".into(), p.clone()]);
        }
        if let Some(p) = &args.trace_out {
            a.extend(["--trace-out".into(), format!("{p}.{w}")]);
        }
        let (line, stdout) = run_child(&a).unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            exit(1);
        });
        print!("{stdout}");
        attempted += line.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += line.get("failed").and_then(Json::as_u64).unwrap_or(1);
        if let Some(Json::Object(ms)) = line.get("metrics") {
            for (k, v) in ms {
                metrics = metrics.with(&format!("{w}/{k}"), v.clone());
            }
        }
        if let Some(p) = &child_json {
            let doc = std::fs::read_to_string(p)
                .ok()
                .and_then(|t| Json::parse(&t).ok())
                .unwrap_or(Json::Null);
            details = details.with(w, doc);
            let _ = std::fs::remove_file(p);
        }
    }
    if let Some(p) = &args.json {
        write_file(p, &details.pretty());
    }
    let line = Json::obj()
        .with("correct", failed == 0 && attempted > 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{}", line.dump());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_is_within_its_limits() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, WORKLOADS);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names = std::collections::HashSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name, 64), "bad metric name {:?}", m.name);
            assert!(names.insert(m.name.clone()), "duplicate metric {}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&b), "{} bound {b}", m.name);
            assert!(
                b <= setup.bound.unwrap(),
                "{} bound {b} above setup_s's",
                m.name
            );
        }
    }

    /// The benchmark is a workspace of its own, so the repository's release
    /// profile does not apply to it; its copy must stay identical.
    #[test]
    fn release_profile_matches_the_repository() {
        fn profile(toml: &str) -> Vec<&str> {
            toml.lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let ours = profile(include_str!("../Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, profile(include_str!("../../Cargo.toml")));
    }

    #[test]
    fn noisy_when_the_runs_own_iqr_exceeds_the_bound() {
        let spec = MetricSpec {
            name: "op_p50_ms".into(),
            unit: "ms".into(),
            bound: Some(0.1),
        };
        let stat = |samples: Vec<f64>| Stat {
            spec: &spec,
            value: median(&samples),
            samples,
        };
        // IQR 100..130 around a median of 115: 26 %.
        let wide: Vec<f64> = (0..40).map(|i| 100.0 + f64::from(i % 4) * 10.0).collect();
        assert!(stat(wide).noisy());
        let narrow: Vec<f64> = (0..40).map(|i| 100.0 + f64::from(i % 4)).collect();
        assert!(!stat(narrow).noisy());
        assert!(!stat(vec![42.0]).noisy());
    }

    #[test]
    fn a_run_that_checked_nothing_is_not_correct() {
        let spec = Spec::load();
        let out = Outcome::default();
        let line = result_line(&out, &stats(&out, &spec, false));
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(0));
    }
}
