//! The two daemon workloads, driven through `spt_serve::Server::start` and
//! `spt_serve::client::request` in this process.
//!
//! * `serve_mixed`: one daemon on a fresh store; two closed-loop clients,
//!   each opening a new connection per request and waiting for its reply.
//!   The seeded mix is 70 % memo-hit `experiment` requests over seven
//!   test-scale keys, 20 % test-scale `eval` with a fuel no earlier
//!   request used (so each is computed and written to the store), and
//!   10 % `ping`.
//! * `serve_restart`: set-up fills a store with 15 responses; then, until
//!   the window ends, a daemon starts on that store, two clients fetch all
//!   15 keys once in seeded order (each must be `served=store`), and the
//!   daemon shuts down.
//!
//! Served payloads are checked against direct-mode `spt::run_experiment`,
//! and `eval` returns against the sequential interpreter.

use crate::attr::{attribute, set_derived, SptRun};
use crate::check::{check_eval, check_experiment, check_ping, Tally};
use crate::host::Calibrator;
use crate::sweeps::speedup_gap_pp;
use crate::trace::{Span, Tracer};
use crate::{median, peak_rss_mb, quantile, ratio, Opts, Outcome, Rng};
use spt::interp::RunResult;
use spt::sim::{arena_stats, ArenaStats};
use spt::workloads::{suite, Scale, Workload, BENCHMARK_NAMES};
use spt::{
    BenchRecord, DiskStore, ExperimentOutput, ExperimentRequest, Json, MemoStats, RunConfig, Sweep,
    EXPERIMENT_NAMES,
};
use spt_metrics::{parse_exposition, quantile_from_cumulative, Scrape};
use spt_serve::client::{request_with_timeout, Response};
use spt_serve::{Request, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Load generators: two clients, one connection each at a time (the host
/// has two CPUs).
const CLIENTS: usize = 2;
/// Bound on one request/response exchange; far above any request here.
const TIMEOUT: Duration = Duration::from_secs(60);
/// `serve_mixed`'s memo-hit keys (test scale). `fig_scale` gives the
/// speedup gap.
const MIXED_KEYS: [&str; 7] = [
    "fig1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig_scale",
    "ablation_recovery",
];
/// `serve_restart`'s small-scale keys, beside all twelve experiments at
/// test scale.
const RESTART_SMALL_KEYS: [&str; 3] = ["fig8", "fig_scale", "ablation_recovery"];

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Mixed,
    Restart,
}

/// One experiment key: its wire request and its direct-mode output.
struct Key {
    body: Json,
    reference: ExperimentOutput,
}

fn requests(kind: Kind, smoke: bool) -> Vec<ExperimentRequest> {
    let test = |n: &&str| ExperimentRequest::new(n, Scale::Test);
    match kind {
        Kind::Mixed => MIXED_KEYS.iter().map(test).collect(),
        Kind::Restart => {
            let mut reqs: Vec<_> = EXPERIMENT_NAMES.iter().map(test).collect();
            // Smoke mode stays at test scale, where these would repeat keys.
            if !smoke {
                reqs.extend(
                    RESTART_SMALL_KEYS
                        .iter()
                        .map(|n| ExperimentRequest::new(n, Scale::Small)),
                );
            }
            reqs
        }
    }
}

/// Direct-mode outputs of `reqs`, on one engine of their own.
fn references(reqs: Vec<ExperimentRequest>, cfg: &RunConfig) -> Result<Vec<Key>, String> {
    let sweep = Sweep::new(1);
    reqs.into_iter()
        .map(|req| {
            let reference = spt::run_experiment(&sweep, &req, cfg)?;
            Ok(Key {
                body: Request::Experiment(req).to_json(),
                reference,
            })
        })
        .collect()
}

/// The index of the largest-scale `fig_scale` key (the speedup gap's source).
fn gap_key(keys: &[Key]) -> Option<usize> {
    keys.iter()
        .rposition(|k| k.reference.report.experiment == "fig_scale")
}

/// The speedup gap from a served `fig_scale` payload.
fn served_gap(resp: &Result<Response, String>) -> Option<f64> {
    let out = ExperimentOutput::from_json(&resp.as_ref().ok()?.payload).ok()?;
    Some(speedup_gap_pp(&out.report, "@cores2"))
}

/// Store directories under the working directory, removed on drop.
struct Scratch(PathBuf);

const SCRATCH_ROOT: &str = ".bench_scratch";

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(SCRATCH_ROOT).join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's directory is left in it.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// Start a daemon on the store at `dir`; returns it with its start time.
fn start(dir: &Path) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.to_path_buf()),
        workers: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    Ok((server, t.elapsed().as_secs_f64() * 1e3))
}

/// Fetch every key once, in seeded order, as one client; returns the
/// responses by key index.
fn fetch_all(addr: &str, keys: &[Key], rng: &mut Rng) -> Vec<(usize, Result<Response, String>)> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .map(|k| (k, request_with_timeout(addr, &keys[k].body, TIMEOUT)))
        .collect()
}

/// Check the set-up's responses against direct mode, and take the speedup
/// gap from the served `fig_scale` payload.
fn check_setup(resps: &[(usize, Result<Response, String>)], keys: &[Key], out: &mut Outcome) {
    let gap = gap_key(keys);
    for (k, r) in resps {
        out.tally
            .op(check_experiment(r, &keys[*k].reference, false));
        if Some(*k) == gap {
            out.e2e.speedup_gap_pp = served_gap(r).unwrap_or(0.0);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Ping,
    Hit,
    Eval,
    Store,
}

impl Class {
    fn span_name(self) -> &'static str {
        match self {
            Class::Ping => "req.ping",
            Class::Hit => "req.hit",
            Class::Eval => "req.eval",
            Class::Store => "req.store",
        }
    }
}

/// One client-observed request, µs since the window's origin.
struct Sample {
    class: Class,
    client: usize,
    start_us: u64,
    end_us: u64,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e3
    }
}

/// What one client saw in a window.
#[derive(Default)]
struct ClientOut {
    samples: Vec<Sample>,
    tally: Tally,
    coalesced: u64,
    /// `record`s of the `eval` responses, by benchmark index.
    evals: Vec<(usize, Option<BenchRecord>)>,
}

impl ClientOut {
    /// Send `body`, time it against `origin`, and check it with `check`.
    fn send(
        &mut self,
        addr: &str,
        body: &Json,
        class: Class,
        client: usize,
        origin: Instant,
        check: impl FnOnce(&Result<Response, String>) -> Result<(), String>,
    ) -> Result<Response, String> {
        let start_us = origin.elapsed().as_micros() as u64;
        let resp = request_with_timeout(addr, body, TIMEOUT);
        let end_us = origin.elapsed().as_micros() as u64;
        self.samples.push(Sample {
            class,
            client,
            start_us,
            end_us,
        });
        self.tally.op(check(&resp));
        if matches!(&resp, Ok(r) if r.served == "coalesced") {
            self.coalesced += 1;
        }
        resp
    }
}

/// Everything one window produced.
struct Window {
    origin: Instant,
    secs: f64,
    clients: Vec<ClientOut>,
    /// Daemon start times, ms.
    start_ms: Vec<f64>,
    /// Daemon-side snapshots of traced windows: (before, after) per daemon
    /// lifetime; `None` before means the daemon started inside the window.
    snaps: Vec<(Option<Snap>, Snap)>,
    arena: (ArenaStats, ArenaStats),
}

impl Window {
    fn new(n_clients: usize) -> Window {
        Window {
            origin: Instant::now(),
            secs: 0.0,
            clients: (0..n_clients).map(|_| ClientOut::default()).collect(),
            start_ms: Vec::new(),
            snaps: Vec::new(),
            arena: (arena_stats(), arena_stats()),
        }
    }

    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flat_map(|c| c.samples.iter())
    }

    fn ops_per_s(&self) -> f64 {
        ratio(self.samples().count() as f64, self.secs)
    }

    fn client_p50(&self, class: Option<Class>) -> f64 {
        let v: Vec<f64> = self
            .samples()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(Sample::ms)
            .collect();
        median(&v)
    }

    fn finish(&mut self) {
        self.secs = self.origin.elapsed().as_secs_f64();
        self.arena.1 = arena_stats();
    }

    /// Move the clients' check results into `tally`.
    fn drain_tally(&mut self, tally: &mut Tally) {
        for c in &mut self.clients {
            tally.merge(std::mem::take(&mut c.tally));
        }
    }
}

/// The daemon's own view, scraped through its `metrics` and `stats` ops.
struct Snap {
    scrape: Scrape,
    stats: Json,
}

fn snap(addr: &str) -> Result<Snap, String> {
    let m = request_with_timeout(addr, &Request::Metrics.to_json(), TIMEOUT)?;
    let text = m.payload.as_str().ok_or("metrics payload is not text")?;
    let scrape = parse_exposition(text)?;
    let stats = request_with_timeout(addr, &Request::Stats.to_json(), TIMEOUT)?.payload;
    Ok(Snap { scrape, stats })
}

impl Snap {
    fn value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.scrape.value(name, labels).unwrap_or(0.0)
    }

    fn memo(&self) -> MemoStats {
        self.stats
            .get("memo_cache")
            .and_then(MemoStats::from_json)
            .unwrap_or_default()
    }

    fn store(&self, key: &str) -> f64 {
        self.stats
            .get("store")
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Request-latency bucket counts over the series whose labels pass
    /// `keep`.
    fn latency(&self, keep: &dyn Fn(&spt_metrics::Sample) -> bool) -> Hist {
        let mut hist = Hist::default();
        let mut prev: BTreeMap<String, f64> = BTreeMap::new();
        let buckets = self
            .scrape
            .samples
            .iter()
            .filter(|s| s.name == "spt_request_latency_us_bucket" && keep(s));
        for s in buckets {
            let series: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let bound = match s.label("le") {
                Some("+Inf") | None => f64::INFINITY,
                Some(le) => le.parse().unwrap_or(f64::INFINITY),
            };
            // Buckets are cumulative and rendered only where the count
            // changes, so consecutive differences are the bucket counts.
            let before = prev.insert(series.join(","), s.value).unwrap_or(0.0);
            *hist.0.entry(bound.to_bits()).or_default() += s.value - before;
        }
        hist
    }
}

/// Request-latency histogram: bucket upper bound in µs (as `f64` bits,
/// which order like the values for non-negative bounds) → count.
#[derive(Default)]
struct Hist(BTreeMap<u64, f64>);

impl Hist {
    fn p50_ms(&self) -> f64 {
        let mut cum = 0.0;
        let steps: Vec<(f64, f64)> = self
            .0
            .iter()
            .map(|(b, c)| {
                cum += c;
                (f64::from_bits(*b), cum)
            })
            .collect();
        quantile_from_cumulative(&steps, 0.5) / 1e3
    }
}

/// Σ over daemon lifetimes of `f(after) − f(before)`.
fn delta(snaps: &[(Option<Snap>, Snap)], f: impl Fn(&Snap) -> f64) -> f64 {
    snaps
        .iter()
        .map(|(b, a)| f(a) - b.as_ref().map_or(0.0, &f))
        .sum()
}

/// The latency histogram of what the daemons served inside the window.
fn delta_hist(snaps: &[(Option<Snap>, Snap)], keep: &dyn Fn(&spt_metrics::Sample) -> bool) -> Hist {
    let mut h = Hist::default();
    for (b, a) in snaps {
        for (sign, snap) in [(1.0, Some(a)), (-1.0, b.as_ref())] {
            for (bound, c) in snap.map(|s| s.latency(keep).0).unwrap_or_default() {
                *h.0.entry(bound).or_default() += sign * c;
            }
        }
    }
    h
}

/// Client streams differ per client and per window.
fn client_rng(seed: u64, window: u64, client: usize) -> Rng {
    Rng::new(seed ^ (window << 32) ^ ((client as u64 + 1) << 48))
}

pub fn run(kind: Kind, opts: &Opts, cal: &mut Calibrator) -> Outcome {
    let mut out = Outcome::default();
    let cfg = RunConfig::default();
    let result = Scratch::new(match kind {
        Kind::Mixed => "serve_mixed",
        Kind::Restart => "serve_restart",
    })
    .and_then(|scratch| {
        let keys = references(requests(kind, opts.smoke), &cfg)?;
        match kind {
            Kind::Mixed => mixed(opts, cal, &cfg, &scratch.0, &keys, &mut out),
            Kind::Restart => restart(opts, cal, &scratch.0, &keys, &mut out),
        }
    });
    if let Err(e) = result {
        out.tally.op(Err(e));
    }
    out
}

/// Untraced: the window's requests are the end-to-end samples. Traced: an
/// untraced half window (the overhead baseline), then a traced half
/// window whose spans and daemon scrapes give the per-layer metrics.
fn measure(
    opts: &Opts,
    out: &mut Outcome,
    window: impl Fn(f64, u64, bool) -> Result<Window, String>,
) -> Result<Option<(Window, Tracer)>, String> {
    if !opts.trace {
        let mut w = window(opts.seconds, 0, false)?;
        w.drain_tally(&mut out.tally);
        out.e2e.op_ms = w.samples().map(Sample::ms).collect();
        return Ok(None);
    }
    let mut untraced = window(opts.seconds / 2.0, 0, false)?;
    untraced.drain_tally(&mut out.tally);
    let mut w = window(opts.seconds / 2.0, 1, true)?;
    w.drain_tally(&mut out.tally);

    let mut tracer = Tracer::starting_at(w.origin);
    let mut spans = vec![Span {
        name: "window",
        start_us: 0,
        end_us: (w.secs * 1e6) as u64,
        parent: None,
        item: 0,
        tid: 0,
    }];
    spans.extend(w.samples().enumerate().map(|(i, s)| Span {
        name: s.class.span_name(),
        start_us: s.start_us,
        end_us: s.end_us,
        parent: Some(0),
        item: i as u64,
        tid: 1 + s.client as u64,
    }));
    tracer.adopt(spans, None);

    let l = &mut out.layers;
    // The workload's own requests, not the scrapes.
    let requests =
        |s: &spt_metrics::Sample| matches!(s.label("op"), Some("ping" | "experiment" | "eval"));
    let server_all = delta_hist(&w.snaps, &requests).p50_ms();
    let all_ms: Vec<f64> = w.samples().map(Sample::ms).collect();
    l.set("serve.req_p99_ms", quantile(&all_ms, 0.99));
    l.set("serve.req_per_s", w.ops_per_s());
    l.set("serve.ping_p50_ms", w.client_p50(Some(Class::Ping)));
    l.set("serve.hit_p50_ms", w.client_p50(Some(Class::Hit)));
    l.set("serve.compute_p50_ms", w.client_p50(Some(Class::Eval)));
    l.set("serve.handle_p50_ms", server_all);
    l.set("serve.wait_ms", w.client_p50(None) - server_all);
    l.set("serve.restart_ms", median(&w.start_ms));
    l.set(
        "serve.coalesced",
        w.clients.iter().map(|c| c.coalesced).sum::<u64>() as f64,
    );
    l.set(
        "store.served_p50_ms",
        delta_hist(&w.snaps, &|s| s.label("served") == Some("store")).p50_ms(),
    );
    l.set("store.writes", delta(&w.snaps, |s| s.store("writes")));
    l.set("store.rejects", delta(&w.snaps, |s| s.store("rejects")));
    let hits = delta(&w.snaps, |s| s.memo().hits() as f64);
    let lookups = hits + delta(&w.snaps, |s| s.memo().misses() as f64);
    l.set("sweep.memo_hit_ratio", ratio(hits, lookups));
    for (phase, ms, computed) in [
        ("profile", "profile.ms", Some("profile.computed")),
        ("compile", "compiler.ms", Some("compiler.computed")),
        ("baseline_sim", "sim.baseline_ms", None),
        ("spt_sim", "sim.spt_ms", None),
    ] {
        l.set(
            ms,
            delta(&w.snaps, |s| {
                s.value("spt_sweep_phase_ms_total", &[("phase", phase)])
            }),
        );
        if let Some(computed) = computed {
            l.set(
                computed,
                delta(&w.snaps, |s| {
                    s.value(
                        "spt_sweep_phase_total",
                        &[("phase", phase), ("provenance", "computed")],
                    )
                }),
            );
        }
    }
    let ss_hits = delta(&w.snaps, |s| s.value("spt_superstep_hits_total", &[]));
    let ss_all = ss_hits + delta(&w.snaps, |s| s.value("spt_superstep_misses_total", &[]));
    l.set("sim.superstep_hit_rate", ratio(ss_hits, ss_all));
    let (a0, a1) = w.arena;
    let reuse = (a1.reuse - a0.reuse) as f64;
    l.set(
        "sim.arena_reuse_ratio",
        ratio(reuse, reuse + (a1.fresh - a0.fresh) as f64),
    );
    l.set(
        "trace.overhead_pct",
        ratio(untraced.ops_per_s() - w.ops_per_s(), w.ops_per_s()) * 100.0,
    );
    Ok(Some((w, tracer)))
}

/// Time `DiskStore::open` on the workload's store directory (median of 5).
fn store_open_ms(dir: &Path) -> f64 {
    let ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let _ = DiskStore::open(dir);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

fn mixed(
    opts: &Opts,
    cal: &mut Calibrator,
    cfg: &RunConfig,
    scratch: &Path,
    keys: &[Key],
    out: &mut Outcome,
) -> Result<(), String> {
    let programs: Vec<Workload> = suite(Scale::Test);
    let refs: Vec<RunResult> = programs
        .iter()
        .map(|w| spt::interp::run(&w.program, cfg.fuel).0)
        .collect();
    let dir = scratch.join("store");

    // Set-up: a daemon on a fresh store, with every key computed once.
    let t = cal.timed(|| -> Result<_, String> {
        let (server, start_ms) = start(&dir)?;
        let resps = fetch_all(server.addr(), keys, &mut Rng::new(opts.seed));
        Ok((server, start_ms, resps))
    });
    out.e2e.setup(&t);
    let (server, start_ms, resps) = t.value?;
    check_setup(&resps, keys, out);
    if opts.setup_only {
        server.shutdown();
        return Ok(());
    }
    let addr = server.addr().to_string();
    let fuel_seq = AtomicU64::new(1);

    let window = |secs: f64, n: u64, traced: bool| -> Result<Window, String> {
        let before = if traced { Some(snap(&addr)?) } else { None };
        let mut w = Window::new(0);
        w.start_ms = vec![start_ms];
        let origin = w.origin;
        w.clients = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (addr, fuel_seq, refs) = (&addr, &fuel_seq, &refs);
                    let mut rng = client_rng(opts.seed, n, c);
                    s.spawn(move || {
                        let mut co = ClientOut::default();
                        while origin.elapsed().as_secs_f64() < secs {
                            let roll = rng.below(100);
                            if roll < 70 {
                                let key = &keys[rng.below(keys.len())];
                                let _ = co.send(addr, &key.body, Class::Hit, c, origin, |r| {
                                    check_experiment(r, &key.reference, false)
                                });
                            } else if roll < 90 {
                                let b = rng.below(BENCHMARK_NAMES.len());
                                let fuel = cfg.fuel + fuel_seq.fetch_add(1, Ordering::Relaxed);
                                let body = Request::Eval {
                                    bench: BENCHMARK_NAMES[b].to_string(),
                                    scale: Scale::Test,
                                    fuel: Some(fuel),
                                }
                                .to_json();
                                let resp = co.send(addr, &body, Class::Eval, c, origin, |r| {
                                    check_eval(r, &refs[b])
                                });
                                let record = resp
                                    .ok()
                                    .and_then(|r| BenchRecord::from_json(r.payload.get("record")?));
                                co.evals.push((b, record));
                            } else {
                                let ping = Request::Ping.to_json();
                                let _ = co.send(addr, &ping, Class::Ping, c, origin, check_ping);
                            }
                        }
                        co
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        w.finish();
        if let Some(b) = before {
            w.snaps.push((Some(b), snap(&addr)?));
        }
        Ok(w)
    };
    let traced = measure(opts, out, window);
    server.shutdown();
    let traced = traced?;
    out.e2e.peak_rss_mb = peak_rss_mb();
    let Some((w, mut tracer)) = traced else {
        return Ok(());
    };

    // Attribution over the benchmarks the traced window evaluated.
    let mut benches: Vec<usize> = w
        .clients
        .iter()
        .flat_map(|c| c.evals.iter().map(|(b, _)| *b))
        .collect();
    benches.sort_unstable();
    benches.dedup();
    let compiled: Vec<_> = benches
        .iter()
        .map(|&b| spt::compiler::compile(&programs[b].program, &cfg.compile))
        .collect();
    let pairs: Vec<_> = benches
        .iter()
        .zip(&compiled)
        .map(|(&b, c)| (&programs[b].program, c))
        .collect();
    let runs: Vec<SptRun> = compiled
        .iter()
        .map(|c| SptRun {
            prog: &c.program,
            machine: cfg.machine.clone(),
            annots: spt::spt_annotations(c),
            expect_cycles: None,
        })
        .collect();
    let l = &mut out.layers;
    attribute(&pairs, &runs, cfg, &mut tracer, l, &mut out.tally);

    // Simulated cycles the daemon executed for the window's evals.
    let (mut base, mut spt) = (0, 0);
    for r in w
        .clients
        .iter()
        .flat_map(|c| c.evals.iter().filter_map(|(_, r)| r.as_ref()))
    {
        if !r.baseline_hit {
            base += r.baseline_cycles.unwrap_or(0);
        }
        if !r.spt_hit {
            spt += r.spt_cycles.unwrap_or(0);
        }
    }
    set_derived(l, base, spt);
    l.set("store.open_ms", store_open_ms(&dir));
    out.spans = tracer.spans;
    Ok(())
}

fn restart(
    opts: &Opts,
    cal: &mut Calibrator,
    scratch: &Path,
    keys: &[Key],
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = scratch.join("store");

    // Set-up: fill a fresh store with every response, through a daemon
    // that then shuts down (flushing the store).
    let t = cal.timed(|| -> Result<_, String> {
        let (server, _) = start(&dir)?;
        let resps = fetch_all(server.addr(), keys, &mut Rng::new(opts.seed));
        server.shutdown();
        Ok(resps)
    });
    out.e2e.setup(&t);
    let resps = t.value?;
    check_setup(&resps, keys, out);
    if opts.setup_only {
        return Ok(());
    }

    let window = |secs: f64, n: u64, traced: bool| -> Result<Window, String> {
        let mut rng = client_rng(opts.seed, n, 0);
        let mut w = Window::new(CLIENTS);
        let origin = w.origin;
        while origin.elapsed().as_secs_f64() < secs {
            let (server, ms) = start(&dir)?;
            w.start_ms.push(ms);
            let mut order: Vec<usize> = (0..keys.len()).collect();
            rng.shuffle(&mut order);
            let next = AtomicUsize::new(0);
            let addr = server.addr();
            std::thread::scope(|s| {
                for (c, co) in w.clients.iter_mut().enumerate() {
                    let (next, order) = (&next, &order);
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&k) = order.get(i) else { break };
                        let reference = &keys[k].reference;
                        let _ = co.send(addr, &keys[k].body, Class::Store, c, origin, |r| {
                            check_experiment(r, reference, true)
                        });
                    });
                }
            });
            if traced {
                w.snaps.push((None, snap(addr)?));
            }
            server.shutdown();
        }
        w.finish();
        Ok(w)
    };
    let traced = measure(opts, out, window)?;
    out.e2e.peak_rss_mb = peak_rss_mb();
    if let Some((_, tracer)) = traced {
        out.layers.set("store.open_ms", store_open_ms(&dir));
        out.spans = tracer.spans;
    }
    Ok(())
}
