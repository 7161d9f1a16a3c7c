//! No connection worker outlives a stop. After a burst that grows the
//! worker pool to its cap — concurrent ping clients, [`MAX_CONNS`] held
//! connections and one refused `busy` — each way of stopping a daemon
//! must bring the process's thread count back to what it was before
//! [`Server::start`]. The `shutdown` op is sent to a daemon that has been
//! blocked in [`Server::wait`] since before the burst, as the `spt-serve`
//! binary is.
//!
//! The count is the number of entries in `/proc/self/task`, so this file
//! holds a single test: no other test's threads may run in its process.

use spt::Json;
use spt_serve::{client, ServeConfig, Server, MAX_CONNS};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a stopped daemon's threads may take to disappear, and how
/// long one stop may take.
const DEADLINE: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug)]
enum Stop {
    Shutdown,
    Drop,
    Op,
}

const STOPS: [Stop; 3] = [Stop::Shutdown, Stop::Drop, Stop::Op];

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Send `op` and return its payload, retrying while the pool is still at
/// its cap and answers `busy`. A daemon that stops answering fails the
/// test instead of hanging it.
fn request(addr: &str, op: &str) -> Json {
    let deadline = Instant::now() + DEADLINE;
    loop {
        match client::request_with_timeout(addr, &Json::obj().with("op", op), DEADLINE) {
            Ok(r) => return r.payload,
            Err(e) => {
                assert_eq!(e, "busy", "{op}");
                assert!(Instant::now() < deadline, "pool never freed a worker");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Grow the pool to its cap: 8 concurrent clients of 25 pings each, then
/// `MAX_CONNS` held connections and one more, answered `busy`.
fn burst(addr: &str) {
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..25 {
                    assert_eq!(request(addr, "ping").as_str(), Some("pong"));
                }
            });
        }
    });
    let held: Vec<TcpStream> = (0..MAX_CONNS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let extra = TcpStream::connect(addr).expect("connect");
    extra.set_read_timeout(Some(DEADLINE)).unwrap();
    let mut reply = String::new();
    BufReader::new(extra).read_line(&mut reply).unwrap();
    assert_eq!(reply.trim(), r#"{"ok":false,"error":"busy"}"#);
    drop(held);
}

/// Run a burst against a daemon, then stop it the `how` way, failing
/// instead of hanging if it has not stopped within [`DEADLINE`].
fn burst_and_stop(server: Server, how: Stop) {
    let addr = server.addr().to_string();
    let (done, stopped) = std::sync::mpsc::channel();
    let stop = move || {
        match how {
            Stop::Shutdown => server.shutdown(),
            Stop::Drop => drop(server),
            Stop::Op => server.wait(),
        }
        done.send(()).unwrap();
    };
    let stopper = match how {
        Stop::Op => {
            let waiter = std::thread::spawn(stop);
            burst(&addr);
            assert_eq!(request(&addr, "shutdown").as_str(), Some("shutting down"));
            waiter
        }
        Stop::Shutdown | Stop::Drop => {
            burst(&addr);
            std::thread::spawn(stop)
        }
    };
    assert!(
        stopped.recv_timeout(DEADLINE).is_ok(),
        "{how:?} did not stop the daemon"
    );
    stopper.join().unwrap();
}

#[test]
fn no_worker_outlives_a_stop() {
    for how in STOPS {
        let before = threads();
        let server = Server::start(&ServeConfig {
            read_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        })
        .expect("daemon starts");
        burst_and_stop(server, how);
        let deadline = Instant::now() + DEADLINE;
        loop {
            let now = threads();
            if now == before {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{how:?}: {now} threads after the stop, {before} before the start"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
