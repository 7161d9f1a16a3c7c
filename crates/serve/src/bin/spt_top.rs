//! `spt-top` — a polling terminal dashboard for a running `spt-serve`
//! daemon's metrics endpoint.
//!
//! ```text
//! spt-top --addr 127.0.0.1:9464 [--interval-ms 1000] [--frames N]
//! spt-top --addr 127.0.0.1:9464 --once
//! ```
//!
//! Each frame scrapes `GET /metrics` (the daemon's `--metrics` HTTP
//! listener), validates the exposition, and diffs it against the
//! previous scrape to turn monotone counters into live rates: req/s,
//! windowed p50/p95/p99 latency, store and memo hit percentages,
//! per-phase compute milliseconds per second, byte throughput.
//!
//! `--once` scrapes a single time, validates, and prints the cumulative
//! totals without clearing the screen — that mode doubles as the
//! exposition validator in CI (exit 1 on any malformed scrape).

use spt_metrics::{parse_exposition, quantile_from_cumulative, validate_exposition, Scrape};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::exit;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: spt-top --addr HOST:PORT [--interval-ms N] [--frames N] [--once]\n\
         scrapes GET /metrics from a running `spt-serve --metrics` daemon"
    );
    exit(2);
}

/// One `GET /metrics` over a plain TCP socket; returns the body.
fn scrape(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let req = format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response: {raw:?}"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("scrape failed: {status}"));
    }
    Ok(body.to_string())
}

/// The request-latency histogram summed over every `{op,served}` series,
/// as Prometheus cumulative `(le, count)` pairs.
///
/// The exposition omits bucket lines whose cumulative count equals the
/// previous one, so different series emit different `le` sets; a
/// series' cumulative count at an unemitted bound equals its count at
/// the greatest emitted bound below it (that invariant is what makes
/// the omission sound). Summing therefore evaluates every series' step
/// function at the union of all bounds.
fn latency_cumulative(scrape: &Scrape) -> Vec<(f64, f64)> {
    let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for s in &scrape.samples {
        if s.name != "spt_request_latency_us_bucket" {
            continue;
        }
        let Some(le) = s.label("le") else { continue };
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            match le.parse() {
                Ok(b) => b,
                Err(_) => continue,
            }
        };
        let key: Vec<String> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        series
            .entry(key.join(","))
            .or_default()
            .push((bound, s.value));
    }
    let mut bounds: Vec<f64> = Vec::new();
    for cum in series.values_mut() {
        cum.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(b, _) in cum.iter() {
            if !bounds.contains(&b) {
                bounds.push(b);
            }
        }
    }
    bounds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    bounds
        .into_iter()
        .map(|b| {
            let total: f64 = series.values().map(|cum| step_value(cum, b)).sum();
            (b, total)
        })
        .collect()
}

/// Value of a sorted cumulative step function at bound `b` (0 before the
/// first emitted bound).
fn step_value(cum: &[(f64, f64)], b: f64) -> f64 {
    let mut v = 0.0;
    for &(bound, count) in cum {
        if bound <= b {
            v = count;
        } else {
            break;
        }
    }
    v
}

/// Pointwise difference of two cumulative step functions over the union
/// of their bounds — the *windowed* histogram between two scrapes.
fn delta_cumulative(prev: &[(f64, f64)], cur: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut bounds: Vec<f64> = cur.iter().chain(prev).map(|&(b, _)| b).collect();
    bounds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    bounds.dedup();
    bounds
        .into_iter()
        .map(|b| (b, (step_value(cur, b) - step_value(prev, b)).max(0.0)))
        .collect()
}

fn hit_pct(hits: f64, misses: f64) -> Option<f64> {
    let total = hits + misses;
    if total > 0.0 {
        Some(100.0 * hits / total)
    } else {
        None
    }
}

fn fmt_pct(p: Option<f64>) -> String {
    match p {
        Some(p) => format!("{p:5.1} %"),
        None => "  n/a  ".to_string(),
    }
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.1} ms", us / 1e3)
    } else {
        format!("{us:.0} us")
    }
}

const PHASES: [&str; 4] = ["profile", "compile", "baseline_sim", "spt_sim"];

/// Cumulative totals distilled from one scrape.
struct Frame {
    at: Instant,
    requests: f64,
    errors: f64,
    timeouts: f64,
    bytes_read: f64,
    bytes_written: f64,
    active_conns: f64,
    inflight: f64,
    store_hits: f64,
    store_misses: f64,
    store_writes: f64,
    store_rejects: f64,
    memo_hits: f64,
    memo_misses: f64,
    served: Vec<(String, f64)>,
    phase_ms: Vec<(String, f64)>,
    latency: Vec<(f64, f64)>,
    samples: usize,
}

impl Frame {
    fn from_scrape(scrape: &Scrape, samples: usize) -> Frame {
        let g = |name: &str| scrape.get(name).map_or(0.0, |s| s.value);
        Frame {
            at: Instant::now(),
            requests: scrape.sum("spt_requests_total"),
            errors: g("spt_errors_total"),
            timeouts: g("spt_timeouts_total"),
            bytes_read: g("spt_bytes_read_total"),
            bytes_written: g("spt_bytes_written_total"),
            active_conns: g("spt_active_connections"),
            inflight: g("spt_inflight_coalescing"),
            store_hits: g("spt_store_hits_total"),
            store_misses: g("spt_store_misses_total"),
            store_writes: g("spt_store_writes_total"),
            store_rejects: g("spt_store_rejects_total"),
            memo_hits: scrape.sum("spt_memo_hits_total"),
            memo_misses: scrape.sum("spt_memo_misses_total"),
            served: scrape
                .samples
                .iter()
                .filter(|s| s.name == "spt_responses_total")
                .filter_map(|s| Some((s.label("served")?.to_string(), s.value)))
                .fold(BTreeMap::<String, f64>::new(), |mut m, (k, v)| {
                    *m.entry(k).or_insert(0.0) += v;
                    m
                })
                .into_iter()
                .collect(),
            phase_ms: PHASES
                .iter()
                .map(|p| {
                    (
                        p.to_string(),
                        scrape
                            .value("spt_sweep_phase_ms_total", &[("phase", p)])
                            .unwrap_or(0.0),
                    )
                })
                .collect(),
            latency: latency_cumulative(scrape),
            samples,
        }
    }
}

/// Render one dashboard frame: cumulative state plus rates vs `prev`.
fn render(addr: &str, frame: &Frame, prev: Option<&Frame>, n: u64) -> String {
    let mut out = String::new();
    let dt = prev.map(|p| frame.at.duration_since(p.at).as_secs_f64());
    let rate = |cur: f64, before: f64| -> Option<f64> {
        match dt {
            Some(dt) if dt > 0.0 => Some(((cur - before) / dt).max(0.0)),
            _ => None,
        }
    };
    out.push_str(&format!(
        "spt-top — http://{addr}/metrics — frame {n} — {} samples\n\n",
        frame.samples
    ));

    let req_rate = prev.and_then(|p| rate(frame.requests, p.requests));
    out.push_str(&format!(
        "  requests   {}   total {:.0}, errors {:.0}, timeouts {:.0}\n",
        match req_rate {
            Some(r) => format!("{r:8.1} req/s"),
            None => "   (warming)".to_string(),
        },
        frame.requests,
        frame.errors,
        frame.timeouts
    ));

    // Windowed latency quantiles: quantiles of the delta histogram when
    // a previous frame exists, cumulative otherwise.
    let window = match prev {
        Some(p) => delta_cumulative(&p.latency, &frame.latency),
        None => frame.latency.clone(),
    };
    let seen = window.last().map_or(0.0, |&(_, c)| c);
    if seen > 0.0 {
        out.push_str(&format!(
            "  latency    p50 {}   p95 {}   p99 {}   ({} req {})\n",
            fmt_us(quantile_from_cumulative(&window, 0.50)),
            fmt_us(quantile_from_cumulative(&window, 0.95)),
            fmt_us(quantile_from_cumulative(&window, 0.99)),
            seen,
            if prev.is_some() { "window" } else { "lifetime" },
        ));
    } else {
        out.push_str("  latency    (no requests in window)\n");
    }

    out.push_str(&format!(
        "  conns      {:.0} active, {:.0} coalescing waits\n",
        frame.active_conns, frame.inflight
    ));
    let in_rate = prev.and_then(|p| rate(frame.bytes_read, p.bytes_read));
    let out_rate = prev.and_then(|p| rate(frame.bytes_written, p.bytes_written));
    out.push_str(&format!(
        "  bytes      in {}   out {}\n",
        match in_rate {
            Some(r) => format!("{:.1} KB/s", r / 1024.0),
            None => format!("{:.1} KB total", frame.bytes_read / 1024.0),
        },
        match out_rate {
            Some(r) => format!("{:.1} KB/s", r / 1024.0),
            None => format!("{:.1} KB total", frame.bytes_written / 1024.0),
        }
    ));

    out.push_str(&format!(
        "  store      hit {}   hits {:.0}, misses {:.0}, writes {:.0}, rejects {:.0}\n",
        fmt_pct(hit_pct(frame.store_hits, frame.store_misses)),
        frame.store_hits,
        frame.store_misses,
        frame.store_writes,
        frame.store_rejects
    ));
    out.push_str(&format!(
        "  memo       hit {}   hits {:.0}, misses {:.0}\n",
        fmt_pct(hit_pct(frame.memo_hits, frame.memo_misses)),
        frame.memo_hits,
        frame.memo_misses
    ));

    out.push_str("  phases     ");
    for (phase, ms) in &frame.phase_ms {
        let shown = match (prev, dt) {
            (Some(p), Some(dt)) if dt > 0.0 => {
                let before = p
                    .phase_ms
                    .iter()
                    .find(|(k, _)| k == phase)
                    .map_or(0.0, |(_, v)| *v);
                format!("{:.0} ms/s", ((ms - before) / dt).max(0.0))
            }
            _ => format!("{ms:.0} ms"),
        };
        out.push_str(&format!("{phase} {shown}   "));
    }
    out.push('\n');

    if !frame.served.is_empty() {
        out.push_str("  served     ");
        for (how, count) in &frame.served {
            out.push_str(&format!("{how} {count:.0}   "));
        }
        out.push('\n');
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut interval = Duration::from_millis(1000);
    let mut frames: u64 = 0; // 0 = run until interrupted
    let mut once = false;

    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            match args.get(*i) {
                Some(v) => v.clone(),
                None => {
                    eprintln!("flag {} needs a value", args[*i - 1]);
                    usage();
                }
            }
        };
        match args[i].as_str() {
            "--addr" => addr = Some(value(&mut i)),
            "--interval-ms" => match value(&mut i).parse::<u64>() {
                Ok(n) if n >= 1 => interval = Duration::from_millis(n),
                _ => {
                    eprintln!("--interval-ms needs a positive integer");
                    usage();
                }
            },
            "--frames" => match value(&mut i).parse::<u64>() {
                Ok(n) => frames = n,
                _ => {
                    eprintln!("--frames needs an integer");
                    usage();
                }
            },
            "--once" => once = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
        i += 1;
    }
    let Some(addr) = addr else {
        eprintln!("--addr HOST:PORT is required");
        usage();
    };
    if once {
        frames = 1;
    }

    let mut prev: Option<Frame> = None;
    let mut n: u64 = 0;
    loop {
        n += 1;
        let body = match scrape(&addr) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("spt-top: {e}");
                exit(1);
            }
        };
        let samples = match validate_exposition(&body) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("spt-top: invalid exposition: {e}");
                exit(1);
            }
        };
        let scrape = match parse_exposition(&body) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("spt-top: {e}");
                exit(1);
            }
        };
        let frame = Frame::from_scrape(&scrape, samples);
        if once {
            // Validator mode: machine-greppable cumulative totals.
            println!("spt-top: exposition OK ({samples} samples)");
            println!("spt_requests_total {:.0}", frame.requests);
            println!("spt_errors_total {:.0}", frame.errors);
            println!("spt_store_hits_total {:.0}", frame.store_hits);
            println!("spt_store_misses_total {:.0}", frame.store_misses);
            print!("{}", render(&addr, &frame, None, n));
            return;
        }
        // Clear screen + home, then the frame.
        print!("\x1b[2J\x1b[H{}", render(&addr, &frame, prev.as_ref(), n));
        let _ = std::io::stdout().flush();
        prev = Some(frame);
        if frames > 0 && n >= frames {
            return;
        }
        std::thread::sleep(interval);
    }
}
