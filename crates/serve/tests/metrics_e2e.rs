//! End-to-end tests of the telemetry plane: a metrics-enabled daemon
//! under mixed traffic must produce a valid Prometheus exposition from
//! both scrape paths (the `{"op":"metrics"}` wire op and the HTTP
//! listener), counters must be monotone across scrapes, and — the hard
//! invariant — metrics must be purely observational: results computed
//! with telemetry attached are byte-identical to results computed
//! without it.

use spt::{run_experiment, ExperimentOutput, ExperimentRequest, Json, RunConfig, Sweep, ToJson};
use spt_metrics::{parse_exposition, validate_exposition, Scrape};
use spt_serve::{client, ServeConfig, ServeMetrics, Server};
use spt_workloads::Scale;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start_with_metrics(cache: Option<std::path::PathBuf>) -> Server {
    Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: cache,
        workers: 2,
        read_timeout: Duration::from_secs(60),
        metrics: Some("127.0.0.1:0".into()),
    })
    .expect("daemon starts")
}

fn raw_request(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    reply
}

/// Scrape `GET /metrics` from the daemon's HTTP listener, as a
/// Prometheus server would.
fn http_scrape(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("HTTP head/body split");
    assert!(
        head.lines().next().unwrap_or("").contains(" 200 "),
        "scrape must return 200, got: {head}"
    );
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type declared"
    );
    body.to_string()
}

/// Scrape via the wire protocol (`{"op":"metrics"}`): the payload is the
/// exposition text as a JSON string.
fn wire_scrape(addr: &str) -> String {
    let resp = client::request(addr, &Json::obj().with("op", "metrics")).unwrap();
    resp.payload
        .as_str()
        .expect("metrics payload is a string")
        .to_string()
}

fn eval_body(bench: &str) -> Json {
    Json::obj()
        .with("op", "eval")
        .with("bench", bench)
        .with("scale", "test")
}

/// Sum of every sample of `name` whose labels include all of `want`.
fn sum_where(scrape: &Scrape, name: &str, want: &[(&str, &str)]) -> f64 {
    scrape
        .samples
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| want.iter().all(|(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value)
        .sum()
}

#[test]
fn scrapes_validate_and_counters_are_monotone() {
    let server = start_with_metrics(None);
    let addr = server.addr().to_string();
    let maddr = server
        .metrics_addr()
        .expect("metrics listener up")
        .to_string();

    // Mixed traffic: inline ops, a refusal, an eval computed then served
    // from memo, and an experiment.
    let _ = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    let bad = raw_request(&addr, "{\"op\":\"nope\"}");
    assert!(bad.contains("\"ok\":false"));
    let first = client::request(&addr, &eval_body("parsers")).unwrap();
    assert_eq!(first.served, "computed");
    let again = client::request(&addr, &eval_body("parsers")).unwrap();
    assert_eq!(again.served, "memo");
    let mut body = Json::obj().with("op", "experiment");
    if let Json::Object(pairs) = ExperimentRequest::new("fig8", Scale::Test).to_json() {
        for (k, v) in pairs {
            body = body.with(&k, v);
        }
    }
    let _ = client::request(&addr, &body).unwrap();

    // Both scrape paths return a valid exposition of the same registry.
    let via_wire = wire_scrape(&addr);
    let via_http = http_scrape(&maddr);
    validate_exposition(&via_wire).expect("wire exposition valid");
    validate_exposition(&via_http).expect("http exposition valid");

    let s1 = parse_exposition(&via_http).unwrap();
    assert!(
        s1.sum("spt_requests_total") >= 6.0,
        "all requests counted: {}",
        s1.sum("spt_requests_total")
    );
    assert!(
        sum_where(&s1, "spt_responses_total", &[("served", "memo")]) >= 1.0,
        "memo-served response recorded"
    );
    assert!(
        sum_where(&s1, "spt_responses_total", &[("op", "eval")]) >= 2.0,
        "eval responses recorded by op"
    );
    assert!(s1.sum("spt_errors_total") >= 1.0, "refusal counted");
    // Every response got a latency observation.
    assert_eq!(
        s1.sum("spt_request_latency_us_count"),
        s1.sum("spt_responses_total"),
        "latency histogram covers every response"
    );
    // The sweep observer saw real phase work.
    assert!(
        s1.sum("spt_sweep_phase_ms_total") > 0.0,
        "phase timings accumulated"
    );
    assert!(
        sum_where(&s1, "spt_sweep_phase_total", &[("provenance", "computed")]) >= 4.0,
        "computed phases observed"
    );

    // More traffic, then a second scrape: every *_total series present in
    // the first scrape must be present and no smaller in the second.
    let _ = client::request(&addr, &eval_body("gzips")).unwrap();
    let _ = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    let s2 = parse_exposition(&http_scrape(&maddr)).unwrap();
    let mut checked = 0;
    for a in &s1.samples {
        if !a.name.ends_with("_total") && !a.name.ends_with("_count") && !a.name.ends_with("_sum") {
            continue;
        }
        let b = s2
            .samples
            .iter()
            .find(|b| b.name == a.name && b.labels == a.labels)
            .unwrap_or_else(|| panic!("series {} {:?} vanished", a.name, a.labels));
        assert!(
            b.value >= a.value,
            "{} {:?} went backwards: {} -> {}",
            a.name,
            a.labels,
            a.value,
            b.value
        );
        checked += 1;
    }
    assert!(checked >= 10, "monotonicity check covered {checked} series");
    assert!(
        s2.sum("spt_requests_total") > s1.sum("spt_requests_total"),
        "request counter advanced"
    );
    server.shutdown();
}

#[test]
fn store_metrics_surface_disk_traffic() {
    let dir = std::env::temp_dir().join(format!("spt-metrics-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold daemon: computes and writes the store.
    let a = start_with_metrics(Some(dir.clone()));
    let cold = client::request(a.addr(), &eval_body("mcfs")).unwrap();
    assert_eq!(cold.served, "computed");
    // One computed eval is one response lookup and one response write:
    // the store holds whole responses only.
    let s = parse_exposition(&http_scrape(a.metrics_addr().unwrap())).unwrap();
    assert_eq!(s.sum("spt_store_writes_total"), 1.0, "one write per eval");
    assert_eq!(s.sum("spt_store_misses_total"), 1.0, "one cold miss");
    a.shutdown();

    // Warm daemon, same store: the hit shows up in the scrape.
    let b = start_with_metrics(Some(dir.clone()));
    let warm = client::request(b.addr(), &eval_body("mcfs")).unwrap();
    assert_eq!(warm.served, "store");
    let s = parse_exposition(&http_scrape(b.metrics_addr().unwrap())).unwrap();
    assert_eq!(s.sum("spt_store_hits_total"), 1.0, "one warm hit");
    assert_eq!(s.sum("spt_store_misses_total"), 0.0, "no warm miss");
    assert!(
        sum_where(&s, "spt_responses_total", &[("served", "store")]) >= 1.0,
        "store-served response labeled"
    );
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_listener_refuses_non_scrape_requests() {
    let server = start_with_metrics(None);
    let maddr = server.metrics_addr().unwrap().to_string();
    for (req, want) in [
        ("GET /nope HTTP/1.1\r\n\r\n", " 404 "),
        ("POST /metrics HTTP/1.1\r\n\r\n", " 405 "),
    ] {
        let mut stream = TcpStream::connect(&maddr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(req.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(
            raw.lines().next().unwrap_or("").contains(want),
            "{req:?} should get {want}, got: {raw}"
        );
    }
    server.shutdown();
}

/// The hard invariant of the telemetry plane: attaching the full metrics
/// observer changes no computed byte. The complete `fig_scale`
/// experiment and the traced suite must agree byte-for-byte between an
/// observed and an unobserved sweep.
#[test]
fn metrics_are_purely_observational() {
    let cfg = RunConfig::default();
    let req = ExperimentRequest::new("fig_scale", Scale::Test);

    let plain: ExperimentOutput = run_experiment(&Sweep::sequential(), &req, &cfg).unwrap();
    let metrics = ServeMetrics::new();
    let mut observed_sweep = Sweep::sequential();
    observed_sweep.set_observer(metrics.sweep_observer());
    let observed = run_experiment(&observed_sweep, &req, &cfg).unwrap();

    assert_eq!(plain.table, observed.table, "tables must be byte-identical");
    assert_eq!(
        plain.report.deterministic_json().dump(),
        observed.report.deterministic_json().dump(),
        "deterministic reports must be byte-identical"
    );
    // The observer really ran — this is a non-vacuous comparison.
    let rendered = metrics.render(&observed_sweep, None);
    let s = parse_exposition(&rendered).unwrap();
    assert!(
        s.sum("spt_sweep_phase_total") > 0.0,
        "observer saw phase completions"
    );

    // Trace export: cycle-stamped bytes are identical under observation.
    let (runs, _) = Sweep::sequential().trace_suite(Scale::Test, &cfg);
    let mut sw = Sweep::sequential();
    sw.set_observer(ServeMetrics::new().sweep_observer());
    let (runs_obs, _) = sw.trace_suite(Scale::Test, &cfg);
    let plain_traces: Vec<_> = runs.iter().map(|r| r.trace.clone()).collect();
    let obs_traces: Vec<_> = runs_obs.iter().map(|r| r.trace.clone()).collect();
    assert_eq!(
        spt::trace::chrome_trace(&plain_traces).pretty(),
        spt::trace::chrome_trace(&obs_traces).pretty(),
        "chrome trace bytes must be identical with metrics attached"
    );
}
