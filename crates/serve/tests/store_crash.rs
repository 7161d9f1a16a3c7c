//! Crash test for the daemon's disk store. The built `spt-serve` binary
//! runs as a child process on a temporary `--cache-dir` and is sent
//! computed `eval`s; the test SIGKILLs it at seeded points, some of them
//! while a request is computing, and restarts it on the same directory.
//! After every restart:
//! - no `.tmp-*` file survives the store's open;
//! - every reply carries the outcome a fresh in-process compute gives,
//!   byte for byte, and a reply served from the store or the memo is
//!   byte-identical to the reply that first carried its payload;
//! - no request panicked (`spt_panics_total` is 0).
//!
//! Only the test's own child is ever killed.

use spt::{Json, RunConfig, Sweep, ToJson};
use spt_serve::client;
use spt_workloads::Scale;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A running daemon child, killed when dropped. Its stdout stays open
/// for the child's whole life: a closed pipe would turn the daemon's
/// later prints into panics.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(dir: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spt-serve"))
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--cache-dir")
            .arg(dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn spt-serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("read the listening line");
        let addr = line
            .trim()
            .strip_prefix("spt-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            _stdout: stdout,
        }
    }

    fn kill(mut self) {
        self.child.kill().expect("SIGKILL the daemon");
        self.child.wait().expect("reap the daemon");
    }

    fn panics(&self) -> f64 {
        let resp = client::request(&self.addr, &Json::obj().with("op", "metrics")).unwrap();
        let text = resp.payload.as_str().expect("metrics payload is text");
        let scrape = spt_metrics::parse_exposition(text).unwrap();
        scrape.get("spt_panics_total").unwrap().value
    }
}

impl Drop for Daemon {
    /// A failed assertion must not leave the child running.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The request keys: a few benchmarks at test scale, each at two fuels,
/// so later rounds repeat keys that earlier rounds may have persisted.
const BENCHES: [&str; 3] = ["parsers", "mcfs", "gzips"];
const FUELS: [u64; 2] = [2_000_000, 3_000_000];

type Key = (&'static str, u64);

fn pick(rng: &mut Rng) -> Key {
    let b = BENCHES[rng.below(BENCHES.len() as u64) as usize];
    (b, FUELS[rng.below(FUELS.len() as u64) as usize])
}

fn eval_body((bench, fuel): Key) -> Json {
    Json::obj()
        .with("op", "eval")
        .with("bench", bench)
        .with("scale", "test")
        .with("fuel", fuel)
}

/// A tiny seeded generator (xorshift64), so the kill points are fixed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

fn tmp_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(".tmp-"))
        .collect()
}

/// The checks every reply must pass.
struct Oracle {
    /// `outcome` of a fresh in-process compute, per key.
    fresh: HashMap<Key, String>,
    /// The payload replies carry, per key: the last computed one, or the
    /// first one read back when no computed reply arrived.
    payload: HashMap<Key, String>,
}

impl Oracle {
    fn check(&mut self, key: Key, resp: &client::Response) {
        let fresh = self.fresh.entry(key).or_insert_with(|| {
            let w = spt_workloads::benchmark(key.0, Scale::Test);
            let mut cfg = RunConfig::default();
            cfg.fuel = key.1;
            let (outcome, _) = Sweep::sequential().evaluate(w.name, &w.program, &cfg);
            outcome.to_json().dump()
        });
        let outcome = resp.payload.get("outcome").expect("eval outcome").dump();
        assert_eq!(&outcome, fresh, "{key:?} served={}", resp.served);
        // A computed reply was persisted before it was sent, so every
        // later store or memo reply must repeat it.
        let payload = resp.payload.dump();
        match resp.served.as_str() {
            "computed" => {
                self.payload.insert(key, payload);
            }
            "store" | "memo" => {
                let earlier = self.payload.entry(key).or_insert_with(|| payload.clone());
                assert_eq!(&payload, earlier, "{key:?} served={}", resp.served);
            }
            other => panic!("{key:?}: unexpected provenance {other:?}"),
        }
    }
}

#[test]
fn killed_daemons_restart_on_a_clean_store() {
    let dir: PathBuf = std::env::temp_dir().join(format!("spt-store-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = Rng(0x5eed_2026_0031);
    let mut oracle = Oracle {
        fresh: HashMap::new(),
        payload: HashMap::new(),
    };

    for round in 0..6 {
        let daemon = Daemon::start(&dir);
        assert!(
            tmp_files(&dir).is_empty(),
            "round {round}: {:?}",
            tmp_files(&dir)
        );
        for _ in 0..1 + rng.below(2) {
            let k = pick(&mut rng);
            let resp = client::request(&daemon.addr, &eval_body(k)).unwrap();
            oracle.check(k, &resp);
        }
        assert_eq!(daemon.panics(), 0.0, "round {round}");

        // Kill idle in even rounds, and in odd ones a few milliseconds
        // into one more request; a reply that still arrives is checked
        // like any other.
        if round % 2 == 0 {
            daemon.kill();
        } else {
            let k = pick(&mut rng);
            let addr = daemon.addr.clone();
            let inflight = std::thread::spawn(move || client::request(&addr, &eval_body(k)));
            std::thread::sleep(Duration::from_millis(rng.below(8)));
            daemon.kill();
            if let Ok(resp) = inflight.join().unwrap() {
                oracle.check(k, &resp);
            }
        }
    }

    // A last daemon: every key, each checked against a fresh compute.
    let daemon = Daemon::start(&dir);
    assert!(tmp_files(&dir).is_empty(), "{:?}", tmp_files(&dir));
    for b in BENCHES {
        for f in FUELS {
            let resp = client::request(&daemon.addr, &eval_body((b, f))).unwrap();
            oracle.check((b, f), &resp);
        }
    }
    assert_eq!(daemon.panics(), 0.0);
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}
