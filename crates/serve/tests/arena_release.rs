//! A pooled connection worker must not keep simulator state between
//! connections: after a connection closes, its worker resets its
//! thread-local arena, exactly as an exiting thread drops one. Kept in a
//! test binary of its own because the retained-bytes gauge is
//! process-wide and other daemons' traffic would move it.

use spt::sim::arena_stats;
use spt::{Json, RunConfig};
use spt_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Send each line on one connection and return the reply lines.
fn exchange(addr: &str, lines: &[String]) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    lines
        .iter()
        .map(|line| {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Json::parse(reply.trim()).unwrap()
        })
        .collect()
}

#[test]
fn workers_release_their_arenas_between_connections() {
    let before = arena_stats().retained_bytes;
    let server = Server::start(&ServeConfig {
        workers: 1, // simulations run on the connection's own worker
        read_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();
    let fuel = RunConfig::default().fuel;
    let metrics = Json::obj().with("op", "metrics").dump();
    for i in 1..=20u64 {
        let eval = Json::obj()
            .with("op", "eval")
            .with("bench", "parsers")
            .with("scale", "test")
            .with("fuel", fuel + i)
            .dump();
        let replies = exchange(&addr, &[eval, metrics.clone()]);
        assert_eq!(
            replies[0].get("served").and_then(Json::as_str),
            Some("computed"),
            "eval {i}"
        );
        // While its connection is open, the worker holds the arena the
        // simulation ran on.
        let text = replies[1].get("payload").and_then(Json::as_str).unwrap();
        let scrape = spt_metrics::parse_exposition(text).unwrap();
        let held = scrape.get("spt_arena_retained_bytes").unwrap().value;
        assert!(held > before as f64, "eval {i}: no arena retained");
    }
    // Once the last connection has closed, the parked worker holds none.
    let deadline = Instant::now() + Duration::from_secs(5);
    while arena_stats().retained_bytes != before {
        assert!(
            Instant::now() < deadline,
            "parked workers still retain {} bytes (before the traffic: {before})",
            arena_stats().retained_bytes
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
