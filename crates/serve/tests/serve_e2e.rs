//! End-to-end tests of the `spt-serve` daemon over real sockets:
//! differential identity vs direct mode, in-flight coalescing, the warm
//! on-disk store across daemon restarts and defective entries, timeouts,
//! graceful shutdown, and the bounded connection-worker pool.

use spt::{run_experiment, ExperimentOutput, ExperimentRequest, Json, RunConfig, Sweep, ToJson};
use spt_serve::{client, ServeConfig, Server, MAX_CONNS, MAX_REQUEST_LINE};
use spt_workloads::Scale;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("spt-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config_for_tests() -> ServeConfig {
    ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: None,
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    }
}

fn start(cache: Option<PathBuf>) -> Server {
    Server::start(&ServeConfig {
        cache_dir: cache,
        ..config_for_tests()
    })
    .expect("daemon starts")
}

fn experiment_body(req: &ExperimentRequest) -> Json {
    let mut body = Json::obj().with("op", "experiment");
    if let Json::Object(pairs) = req.to_json() {
        for (k, v) in pairs {
            body = body.with(&k, v);
        }
    }
    body
}

/// One raw protocol exchange: send `line`, return the raw response line
/// (for byte-level comparisons the typed client would mask).
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

#[test]
fn ping_stats_and_refusals() {
    let server = start(None);
    let addr = server.addr().to_string();

    let pong = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));

    // Malformed lines and unknown ops come back as refusals, and the
    // daemon stays up.
    for bad in [
        "{",
        "{}",
        "{\"op\":\"nope\"}",
        "{\"op\":\"eval\",\"bench\":\"x\"}",
    ] {
        let reply = raw_request(&addr, bad);
        let doc = Json::parse(reply.trim()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        assert!(doc.get("error").is_some(), "{bad}");
    }

    let stats = client::request(&addr, &Json::obj().with("op", "stats")).unwrap();
    assert!(
        stats
            .payload
            .get("requests")
            .and_then(Json::as_u64)
            .unwrap()
            >= 5
    );
    assert_eq!(stats.payload.get("errors").and_then(Json::as_u64), Some(4));
    server.shutdown();
}

#[test]
fn served_experiment_is_identical_to_direct_mode() {
    let server = start(None);
    let addr = server.addr().to_string();
    // The acceptance contract: the full fig_scale suite, served vs
    // direct, must agree byte-for-byte on the deterministic surface.
    for name in ["fig_scale", "fig8"] {
        let req = ExperimentRequest::new(name, Scale::Test);
        let resp = client::request(&addr, &experiment_body(&req)).unwrap();
        let served = ExperimentOutput::from_json(&resp.payload).unwrap();
        let direct = run_experiment(&Sweep::sequential(), &req, &RunConfig::default()).unwrap();
        assert_eq!(served.table, direct.table, "{name}: tables differ");
        assert_eq!(
            served.report.deterministic_json().dump(),
            direct.report.deterministic_json().dump(),
            "{name}: deterministic reports differ"
        );
    }
    server.shutdown();
}

#[test]
fn eval_op_matches_direct_evaluation() {
    let server = start(None);
    let addr = server.addr().to_string();
    let body = Json::obj()
        .with("op", "eval")
        .with("bench", "parsers")
        .with("scale", "test");
    let resp = client::request(&addr, &body).unwrap();
    let w = spt_workloads::benchmark("parsers", Scale::Test);
    let (outcome, _) = Sweep::sequential().evaluate(w.name, &w.program, &RunConfig::default());
    assert_eq!(
        resp.payload.get("outcome").unwrap().dump(),
        outcome.to_json().dump()
    );
    assert!(resp.payload.get("record").is_some());
    server.shutdown();
}

#[test]
fn concurrent_duplicate_requests_return_identical_bytes() {
    let server = start(None);
    let addr = server.addr().to_string();

    // A small property sweep: for every request shape, a burst of
    // concurrent duplicates must (a) all get byte-identical response
    // lines and (b) trigger exactly one computation.
    let shapes = [
        ExperimentRequest::new("fig8", Scale::Test),
        ExperimentRequest::new("fig1", Scale::Test),
        ExperimentRequest::new("fig5", Scale::Test),
    ];
    for req in &shapes {
        let line = experiment_body(req).dump();
        let replies: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| raw_request(&addr, &line)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut computed = 0;
        for r in &replies {
            let doc = Json::parse(r.trim()).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
            let served = doc.get("served").and_then(Json::as_str).unwrap();
            assert!(
                ["computed", "coalesced", "memo"].contains(&served),
                "unexpected served={served}"
            );
            if served == "computed" {
                computed += 1;
            }
        }
        assert_eq!(computed, 1, "{}: exactly one computation", req.name);
        // Byte-identical modulo the served label (computed/coalesced/memo
        // legitimately differs per caller).
        let canon: Vec<String> = replies
            .iter()
            .map(|r| {
                let mut doc = Json::parse(r.trim()).unwrap();
                if let Json::Object(pairs) = &mut doc {
                    pairs.retain(|(k, _)| k != "served");
                }
                doc.dump()
            })
            .collect();
        for c in &canon {
            assert_eq!(c, &canon[0], "{}: divergent response bytes", req.name);
        }
    }
    server.shutdown();
}

#[test]
fn warm_store_survives_restart_and_is_10x_faster() {
    let dir = tmp_dir("warm");
    let req = ExperimentRequest::new("fig_scale", Scale::Test);
    let body = experiment_body(&req);

    // Cold daemon: computes, persists.
    let a = Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    })
    .unwrap();
    let t0 = Instant::now();
    let cold = client::request(a.addr(), &body).unwrap();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.served, "computed");
    a.shutdown();

    // Fresh daemon, same store: served from disk without simulating.
    let b = Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    })
    .unwrap();
    let t1 = Instant::now();
    let warm = client::request(b.addr(), &body).unwrap();
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(warm.served, "store");
    assert_eq!(
        warm.payload.dump(),
        cold.payload.dump(),
        "warm payload must be byte-identical to the cold one"
    );
    assert!(
        warm_ms * 10.0 <= cold_ms,
        "warm store must be ≥10× faster: cold {cold_ms:.1} ms vs warm {warm_ms:.1} ms"
    );
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_and_flushes_the_store() {
    let dir = tmp_dir("flush");
    let server = Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    })
    .unwrap();
    let addr = server.addr().to_string();
    let _ = client::request(
        &addr,
        &experiment_body(&ExperimentRequest::new("fig1", Scale::Test)),
    )
    .unwrap();
    // Protocol-level shutdown: daemon stops accepting, drains, flushes.
    let bye = client::request(&addr, &Json::obj().with("op", "shutdown")).unwrap();
    assert_eq!(bye.payload.as_str(), Some("shutting down"));
    server.wait();
    let meta = std::fs::read_to_string(dir.join("_meta.json")).expect("store flushed");
    let doc = Json::parse(&meta).unwrap();
    assert_eq!(
        doc.get("spt_store_schema").and_then(Json::as_u64),
        Some(spt::STORE_SCHEMA as u64)
    );
    // New connections are refused after shutdown.
    assert!(client::request(&addr, &Json::obj().with("op", "ping")).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connection_times_out_but_daemon_stays_healthy() {
    let server = Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: None,
        workers: 1,
        read_timeout: Duration::from_millis(200),
        metrics: None,
    })
    .unwrap();
    let addr = server.addr().to_string();
    // Open a connection and send nothing: the daemon's read timeout
    // reaps it instead of pinning a thread forever.
    let idle = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    // The daemon still answers new requests promptly.
    let pong = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));
    drop(idle);
    server.shutdown();
}

#[test]
fn oversized_request_line_is_refused_and_daemon_stays_healthy() {
    let server = start(None);
    let addr = server.addr().to_string();
    // A well-formed ping padded past the cap: the daemon must stop
    // buffering at the cap, refuse the line and close the connection.
    let pad = "x".repeat(MAX_REQUEST_LINE);
    let line = format!("{{\"op\":\"ping\",\"pad\":\"{pad}\"}}\n");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    // The daemon may close before the tail is sent; the reply is already
    // queued by then, so a failed write is not a failure here.
    let _ = stream.write_all(line.as_bytes());
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert_eq!(reply.trim(), r#"{"ok":false,"error":"too_large"}"#);

    let pong = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));
    let stats = client::request(&addr, &Json::obj().with("op", "stats")).unwrap();
    assert_eq!(
        stats.payload.get("errors").and_then(Json::as_u64),
        Some(1),
        "the refusal counts as an error"
    );
    server.shutdown();
}

#[test]
fn a_request_line_that_is_not_utf8_is_refused_and_the_connection_kept() {
    let server = start(None);
    let addr = server.addr().to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(b"{\"op\":\"ping\x80\"}\n{\"op\":\"ping\"}\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(
        reply.trim(),
        r#"{"ok":false,"error":"request line is not UTF-8"}"#
    );
    // Like any other undecodable line, it does not end the connection.
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(
        reply.trim(),
        r#"{"ok":true,"served":"computed","payload":"pong"}"#
    );
    drop(reader);

    let text = client::request(&addr, &Json::obj().with("op", "metrics")).unwrap();
    let scrape = spt_metrics::parse_exposition(text.payload.as_str().unwrap()).unwrap();
    assert_eq!(
        scrape.value("spt_requests_total", &[("op", "invalid")]),
        Some(1.0),
        "the refusal counts as a request"
    );
    assert_eq!(scrape.get("spt_errors_total").unwrap().value, 1.0);
    server.shutdown();
}

#[test]
fn a_deeply_nested_request_is_refused_and_daemon_stays_healthy() {
    // Under the line cap, but nested far past the parser's bound: the
    // recursive parse used to overflow the worker's stack and abort the
    // whole daemon.
    let server = start(None);
    let addr = server.addr().to_string();
    let reply = raw_request(&addr, &"[".repeat(MAX_REQUEST_LINE - 1));
    assert_eq!(
        reply.trim(),
        r#"{"ok":false,"error":"bad JSON: nesting deeper than 128 at offset 128"}"#
    );
    let pong = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));
    server.shutdown();
}

#[test]
fn unix_socket_transport_works() {
    let sock = std::env::temp_dir().join(format!("spt-serve-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let server = Server::start(&ServeConfig {
        listen: sock.to_str().unwrap().to_string(),
        cache_dir: None,
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    })
    .unwrap();
    let addr = sock.to_str().unwrap();
    let pong = client::request(addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));
    server.shutdown();
    assert!(!sock.exists(), "socket file removed on shutdown");
}

/// The three ways a daemon is told to stop.
#[derive(Clone, Copy, Debug)]
enum Stop {
    Shutdown,
    Drop,
    Op,
}

/// Stop `server` the `how` way on a helper thread, failing instead of
/// hanging if the daemon has not stopped within 10 s. `op_addr` is where
/// the `shutdown` op is sent.
fn stop(server: Server, how: Stop, op_addr: &str) {
    let op_addr = op_addr.to_string();
    let (done, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        match how {
            Stop::Shutdown => server.shutdown(),
            Stop::Drop => drop(server),
            Stop::Op => {
                let bye = client::request(&op_addr, &Json::obj().with("op", "shutdown")).unwrap();
                assert_eq!(bye.payload.as_str(), Some("shutting down"));
                server.wait();
            }
        }
        done.send(()).unwrap();
    });
    let waited = stopped.recv_timeout(Duration::from_secs(10));
    assert!(
        waited != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
        "{how:?} did not stop the daemon"
    );
    stopper.join().unwrap();
}

const STOPS: [Stop; 3] = [Stop::Shutdown, Stop::Drop, Stop::Op];

#[test]
fn every_stop_path_stops_a_tcp_daemon_with_no_traffic() {
    // Bound to all interfaces: the stop wake-up goes to loopback.
    for how in STOPS {
        let server = Server::start(&ServeConfig {
            listen: "0.0.0.0:0".into(),
            ..ServeConfig::default()
        })
        .unwrap();
        let port = server.addr().rsplit(':').next().unwrap().to_string();
        let loopback = format!("127.0.0.1:{port}");
        stop(server, how, &loopback);
        assert!(TcpStream::connect(&loopback).is_err(), "{how:?}");
    }
}

#[test]
fn every_stop_path_stops_a_unix_socket_daemon_with_no_traffic() {
    for how in STOPS {
        let sock =
            std::env::temp_dir().join(format!("spt-serve-e2e-{}-{how:?}.sock", std::process::id()));
        let addr = sock.to_str().unwrap().to_string();
        let server = Server::start(&ServeConfig {
            listen: addr.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        stop(server, how, &addr);
        assert!(!sock.exists(), "{how:?}: socket file removed");
    }
}

#[test]
fn every_stop_path_stops_a_metrics_daemon_with_no_traffic() {
    for how in STOPS {
        let server = Server::start(&ServeConfig {
            metrics: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        })
        .unwrap();
        let (addr, maddr) = (
            server.addr().to_string(),
            server.metrics_addr().unwrap().to_string(),
        );
        stop(server, how, &addr);
        assert!(TcpStream::connect(&maddr).is_err(), "{how:?}");
    }
}

#[test]
fn a_fresh_connection_per_request_waits_for_nothing() {
    // The benchmark's clients open a connection per request. A listener
    // that polled for connections every 25 ms would need 2.5 s here.
    let server = start(None);
    let addr = server.addr().to_string();
    let t0 = Instant::now();
    for _ in 0..100 {
        let pong = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
        assert_eq!(pong.payload.as_str(), Some("pong"));
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "100 pings took {took:?}");
    server.shutdown();
}

#[test]
fn evicted_responses_come_back_from_the_store() {
    // More unique-fuel evals than the response memo holds: the oldest is
    // evicted and served from the store, byte-identical, while a key
    // touched between the evals stays in memory.
    let dir = tmp_dir("evict");
    let server = start(Some(dir.clone()));
    let addr = server.addr().to_string();
    let eval = |fuel: Option<u64>| {
        let mut body = Json::obj()
            .with("op", "eval")
            .with("bench", "parsers")
            .with("scale", "test");
        if let Some(f) = fuel {
            body = body.with("fuel", f);
        }
        client::request(&addr, &body).unwrap()
    };
    let fuel = RunConfig::default().fuel;
    let first = eval(Some(fuel + 1));
    assert_eq!(first.served, "computed");
    for i in 2..=70 {
        assert_eq!(eval(Some(fuel + i)).served, "computed");
        let hot = eval(None);
        assert_eq!(hot.served, if i == 2 { "computed" } else { "memo" });
    }
    let again = eval(Some(fuel + 1));
    assert_eq!(again.served, "store");
    assert_eq!(again.payload.dump(), first.payload.dump());
    assert_eq!(eval(None).served, "memo");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `good`, a store entry, with its payload replaced by `payload` and the
/// checksum recomputed over it, as a colliding or hostile writer would.
fn forge(good: &str, payload: &str) -> String {
    let head = good.find("\"check\":\"").unwrap() + "\"check\":\"".len();
    let sum = spt::store::fingerprint_bytes(payload.as_bytes());
    format!("{}{sum:016x}\",\"payload\":{payload}}}", &good[..head])
}

#[test]
fn a_defective_store_entry_is_recomputed_and_overwritten() {
    let dir = tmp_dir("defects");
    let line = r#"{"op":"eval","bench":"parsers","scale":"test"}"#;
    // The eval's outcome; its record carries wall-clock timings.
    let outcome = |reply: &str| {
        let doc = Json::parse(reply.trim()).unwrap();
        let served = doc
            .get("served")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        (
            served,
            doc.get("payload").unwrap().get("outcome").unwrap().dump(),
        )
    };
    let rejects = |addr: &str| {
        let stats = client::request(addr, &Json::obj().with("op", "stats")).unwrap();
        stats
            .payload
            .get("store")
            .and_then(|s| s.get("rejects"))
            .and_then(Json::as_u64)
    };
    let server = start(Some(dir.clone()));
    let (served, computed) = outcome(&raw_request(server.addr(), line));
    assert_eq!(served, "computed");
    server.shutdown();
    let name = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .find(|n| n.starts_with("response-"))
        .expect("the response was stored");
    let key =
        u64::from_str_radix(&name["response-".len()..name.len() - ".json".len()], 16).unwrap();
    let entry = dir.join(&name);
    let good = std::fs::read_to_string(&entry).unwrap();
    let payload_at = good.find("\"payload\":").unwrap() + "\"payload\":".len();
    let payload = &good[payload_at..good.len() - 1];
    let key_at = good.find("\"key\":\"").unwrap() + "\"key\":\"".len();

    let flip = |i: usize| {
        let mut bytes = good.clone().into_bytes();
        bytes[i] = if bytes[i] == b'0' { b'1' } else { b'0' };
        bytes
    };
    let defects: Vec<(&str, Vec<u8>)> = vec![
        (
            "truncated by one byte",
            good.as_bytes()[..good.len() - 1].to_vec(),
        ),
        (
            "truncated to half",
            good.as_bytes()[..good.len() / 2].to_vec(),
        ),
        ("flipped payload byte", flip(payload_at + payload.len() / 2)),
        ("wrong key", flip(key_at)),
        (
            "wrong kind",
            good.replacen("\"kind\":\"response\"", "\"kind\":\"baseline\"", 1)
                .into_bytes(),
        ),
        (
            "raw newline, checksum recomputed",
            forge(&good, &payload.replacen(',', ",\n", 1)).into_bytes(),
        ),
        (
            "invalid JSON, checksum recomputed",
            forge(&good, &payload[..payload.len() - 1]).into_bytes(),
        ),
    ];
    let store = spt::DiskStore::open(&dir).unwrap();
    for (what, bytes) in defects {
        assert_ne!(bytes, good.as_bytes(), "{what}");
        std::fs::write(&entry, &bytes).unwrap();
        assert_eq!(store.load_raw("response", key), None, "{what}");
        let server = start(Some(dir.clone()));
        let (served, again) = outcome(&raw_request(server.addr(), line));
        assert_eq!((served.as_str(), &again), ("computed", &computed), "{what}");
        assert_eq!(rejects(server.addr()), Some(1), "{what}");
        server.shutdown();
        assert!(
            store.load_raw("response", key).is_some(),
            "{what}: not overwritten"
        );
    }
    // The healed entry is served from the store.
    let server = start(Some(dir.clone()));
    let (served, stored) = outcome(&raw_request(server.addr(), line));
    assert_eq!((served.as_str(), &stored), ("store", &computed));
    assert_eq!(rejects(server.addr()), Some(0));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn ping(addr: &str) -> Result<client::Response, String> {
    client::request(addr, &Json::obj().with("op", "ping"))
}

/// The live connection-worker count, read through the `metrics` op.
fn conn_workers(addr: &str) -> f64 {
    let text = client::request(addr, &Json::obj().with("op", "metrics")).unwrap();
    let scrape = spt_metrics::parse_exposition(text.payload.as_str().unwrap()).unwrap();
    scrape
        .get("spt_conn_workers")
        .expect("gauge exported")
        .value
}

#[test]
fn a_connection_past_the_cap_is_busy_and_the_pool_recovers() {
    let server = start(None);
    let addr = server.addr().to_string();
    // Each held, silent connection pins one worker until it closes.
    let held: Vec<TcpStream> = (0..MAX_CONNS)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    let extra = TcpStream::connect(&addr).expect("connect");
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = String::new();
    BufReader::new(extra).read_line(&mut reply).unwrap();
    assert_eq!(reply.trim(), r#"{"ok":false,"error":"busy"}"#);

    // The workers park again once they see their connections close; until
    // one has, a new connection may still be turned away.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    let pong = loop {
        match ping(&addr) {
            Ok(pong) => break pong,
            Err(e) => {
                assert_eq!(e, "busy");
                assert!(Instant::now() < deadline, "pool never freed a worker");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    assert_eq!(pong.payload.as_str(), Some("pong"));
    // The pool grew to the cap and no further.
    assert_eq!(conn_workers(&addr), MAX_CONNS as f64);
    let stats = client::request(&addr, &Json::obj().with("op", "stats")).unwrap();
    let errors = stats.payload.get("errors").and_then(Json::as_u64).unwrap();
    assert!(errors >= 1, "a busy refusal counts as an error");
    server.shutdown();
}

/// `(spt_conn_workers, spt_conn_idle_workers)`, scraped from the HTTP
/// metrics listener, which no pool worker serves.
fn pool_gauges(metrics_addr: &str) -> (f64, f64) {
    let mut stream = TcpStream::connect(metrics_addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {metrics_addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (_, body) = raw.split_once("\r\n\r\n").expect("HTTP head/body split");
    let scrape = spt_metrics::parse_exposition(body).unwrap();
    let gauge = |name: &str| scrape.get(name).expect("gauge exported").value;
    (gauge("spt_conn_workers"), gauge("spt_conn_idle_workers"))
}

#[test]
fn sequential_connections_reuse_their_workers() {
    // No thread per connection: 200 fresh connections, one after the
    // other, are served by the one worker that parks after each. Each
    // ping waits until every live worker is parked, so it can never
    // arrive while the last one is still on its way back to the pool.
    let server = Server::start(&ServeConfig {
        metrics: Some("127.0.0.1:0".into()),
        ..config_for_tests()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();
    let metrics_addr = server.metrics_addr().expect("metrics listener").to_string();
    for _ in 0..200 {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (live, idle) = pool_gauges(&metrics_addr);
            if idle == live {
                break;
            }
            assert!(Instant::now() < deadline, "{idle} of {live} workers parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ping(&addr).unwrap().payload.as_str(), Some("pong"));
    }
    let (workers, _) = pool_gauges(&metrics_addr);
    assert_eq!(workers, 1.0, "{workers} workers for sequential connections");
    server.shutdown();
}

#[test]
fn every_stop_path_wakes_parked_workers() {
    for how in STOPS {
        let server = start(None);
        let addr = server.addr().to_string();
        // Concurrent clients leave several workers parked.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..5 {
                        assert_eq!(ping(&addr).unwrap().payload.as_str(), Some("pong"));
                    }
                });
            }
        });
        assert!(conn_workers(&addr) >= 1.0);
        stop(server, how, &addr);
        assert!(TcpStream::connect(&addr).is_err(), "{how:?}");
    }
}
