//! `spt-serve` — the SPT pipeline as a persistent service.
//!
//! Every `spt-bench` binary today pays full process startup and a cold
//! memo cache per run, even though `spt::sweep` content-keys every phase
//! result. This crate keeps one warm [`Sweep`] engine, and an optional
//! on-disk [`DiskStore`] of whole responses, behind a socket:
//!
//! * **Protocol** — newline-delimited JSON over a TCP socket or a Unix
//!   domain socket (an address containing `/` is a socket path). One
//!   request per line; one response line per request; a connection may
//!   issue any number of requests.
//! * **Requests** — `{"op":"ping"}`, `{"op":"stats"}`,
//!   `{"op":"metrics"}` (Prometheus text exposition as a string payload),
//!   `{"op":"shutdown"}`, `{"op":"eval","bench":NAME,"scale":S,"fuel":N}`,
//!   and `{"op":"experiment","experiment":NAME,"scale":S,"bench":B?}`.
//! * **Responses** — `{"ok":true,"served":HOW,"payload":...}` on success
//!   (`served` is one of `computed`, `memo`, `store`, `coalesced`) or
//!   `{"ok":false,"error":MSG}`; a malformed request never kills the
//!   daemon, and a request whose handling panics is answered
//!   `{"ok":false,"error":"internal error"}`. A request line longer
//!   than [`MAX_REQUEST_LINE`] bytes is answered with
//!   `{"ok":false,"error":"too_large"}` and the connection is closed.
//! * **Connection workers** — connections are served by a pool of
//!   long-lived worker threads run as leader/followers: the one worker
//!   blocked in `accept` serves the connection it accepts, after passing
//!   the listener to a parked follower (or to a new worker, when none is
//!   parked and fewer than [`MAX_CONNS`] are serving). Past the cap a
//!   connection is answered `{"ok":false,"error":"busy"}` and closed.
//!   Each worker starts every connection on an empty simulator arena, as
//!   a fresh thread would.
//! * **Coalescing** — duplicate concurrent requests share one
//!   computation and receive byte-identical payloads (a per-request-key
//!   `OnceLock` in a [`MemoTable`], the same at-most-once, LRU-bounded
//!   table the sweep memo uses per phase). A memo or store hit is
//!   answered by splicing the cached payload bytes into the response
//!   line, without parsing them.
//! * **Warm store** — full response payloads are persisted in the
//!   [`DiskStore`] under the request fingerprint, so a repeated request
//!   after restart, or after its memo entry was evicted, is served from
//!   disk without simulating anything. This is the only disk tier: the
//!   sweep's phase memo stays in memory, and a computed request writes
//!   exactly one entry.
//! * **Timeouts & shutdown** — every connection has a read timeout.
//!   Listeners block in `accept`; a `shutdown` request, [`Server::shutdown`]
//!   or dropping the [`Server`] sets the stop flag and wakes each listener
//!   with a connection to its own address, so the daemon stops at once:
//!   the leading worker closes the pool, parked workers are woken, busy
//!   ones drain their connections, and once every worker is joined the
//!   store is flushed.
//!
//! * **Telemetry** — every daemon carries a [`ServeMetrics`] plane
//!   (request latency histograms by op × provenance, connection and
//!   coalescing gauges, store/memo counters, sweep phase timings),
//!   scrapeable via the `metrics` op or an optional HTTP listener
//!   ([`ServeConfig::metrics`]) serving `GET /metrics`. Metrics are
//!   observational only: payload bytes are identical with them on or off.
//!
//! Served results are bit-identical to direct `spt-bench` runs by
//! construction: both funnel through [`spt::service::run_experiment`].

use pool::{HandOff, Pool};
use spt::sim::SimArena;
use spt::sweep::debug_fingerprint;
use spt::{
    run_experiment, DiskStore, ExperimentRequest, Json, MemoTable, RunConfig, Sweep, ToJson,
};
use spt_workloads::BENCHMARK_NAMES;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub mod client;
mod http;
pub mod metrics;
mod pool;

pub use metrics::{ServeMetrics, SweepMetrics};
pub use pool::MAX_CONNS;

/// Pause after a failed `accept` (say, out of file descriptors), so the
/// loop cannot spin on an error that persists.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Bound on a stop wake-up's TCP connect; loopback connects at once.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Longest request line the daemon reads, newline included. Far above the
/// largest real request (well under 1 KiB); it bounds the memory one
/// client can make a connection worker buffer.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Configuration of one daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// `host:port` for TCP, or a filesystem path (contains `/`) for a
    /// Unix domain socket. TCP port `0` picks a free port; the bound
    /// address is reported by [`Server::addr`].
    pub listen: String,
    /// On-disk result store directory; `None` runs memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Sweep worker threads per request.
    pub workers: usize,
    /// Per-connection read timeout; also bounds shutdown drain time.
    pub read_timeout: Duration,
    /// Optional `host:port` for the HTTP metrics listener (`GET
    /// /metrics`, Prometheus text exposition). Port 0 picks a free port;
    /// the bound address is reported by [`Server::metrics_addr`]. `None`
    /// disables the listener — the `metrics` wire op still works.
    pub metrics: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            cache_dir: None,
            workers: 1,
            read_timeout: Duration::from_secs(300),
            metrics: None,
        }
    }
}

/// A request the daemon understands, decoded from one JSON line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Ping,
    Stats,
    /// Scrape the telemetry plane: Prometheus text exposition as a
    /// string payload.
    Metrics,
    Shutdown,
    /// Evaluate one named suite benchmark end to end.
    Eval {
        bench: String,
        scale: spt_workloads::Scale,
        fuel: Option<u64>,
    },
    /// Run a named experiment (the unit the figure binaries consume).
    Experiment(ExperimentRequest),
}

impl Request {
    /// Decode a request line; `Err` is the message sent back to the
    /// client.
    pub fn from_json(j: &Json) -> Result<Request, String> {
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request missing string key \"op\"")?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "eval" => {
                let bench = j
                    .get("bench")
                    .and_then(Json::as_str)
                    .ok_or("eval request missing string key \"bench\"")?
                    .to_string();
                if !BENCHMARK_NAMES.contains(&bench.as_str()) {
                    return Err(format!(
                        "unknown benchmark {bench:?}; known: {BENCHMARK_NAMES:?}"
                    ));
                }
                let scale = match j.get("scale") {
                    None => spt_workloads::Scale::Small,
                    Some(s) => {
                        let s = s.as_str().ok_or("\"scale\" must be a string")?;
                        spt::service::scale_from_name(s)
                            .ok_or_else(|| format!("unknown scale {s:?}"))?
                    }
                };
                let fuel = match j.get("fuel") {
                    None | Some(Json::Null) => None,
                    Some(f) => Some(f.as_u64().ok_or("\"fuel\" must be an unsigned integer")?),
                };
                Ok(Request::Eval { bench, scale, fuel })
            }
            "experiment" => Ok(Request::Experiment(ExperimentRequest::from_json(j)?)),
            other => Err(format!(
                "unknown op {other:?}; known: ping, stats, metrics, shutdown, eval, experiment"
            )),
        }
    }

    /// The canonical wire form — also the coalescing/store key input, so
    /// two requests that decode equal always share one computation.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj().with("op", "ping"),
            Request::Stats => Json::obj().with("op", "stats"),
            Request::Metrics => Json::obj().with("op", "metrics"),
            Request::Shutdown => Json::obj().with("op", "shutdown"),
            Request::Eval { bench, scale, fuel } => {
                let mut j = Json::obj()
                    .with("op", "eval")
                    .with("bench", bench.as_str())
                    .with("scale", spt::service::scale_name(*scale));
                if let Some(f) = fuel {
                    j = j.with("fuel", *f);
                }
                j
            }
            Request::Experiment(req) => {
                // Key order matters for the fingerprint: op first, then
                // the experiment request's own canonical order.
                let mut j = Json::obj().with("op", "experiment");
                if let Json::Object(pairs) = req.to_json() {
                    for (k, v) in pairs {
                        j = j.with(&k, v);
                    }
                }
                j
            }
        }
    }
}

/// How a successful response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Freshly computed by this request.
    Computed,
    /// Another thread computed it while we waited (in-flight coalescing).
    Coalesced,
    /// Found initialized in the in-memory response memo.
    Memo,
    /// Loaded from the on-disk store.
    Store,
}

impl Served {
    /// Every provenance, in counter-array order — the one place that
    /// order is defined.
    pub const ALL: [Served; 4] = [
        Served::Computed,
        Served::Coalesced,
        Served::Memo,
        Served::Store,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Served::Computed => "computed",
            Served::Coalesced => "coalesced",
            Served::Memo => "memo",
            Served::Store => "store",
        }
    }

    /// Index into a per-provenance counter array; `ALL[s.idx()] == s`.
    pub fn idx(self) -> usize {
        match self {
            Served::Computed => 0,
            Served::Coalesced => 1,
            Served::Memo => 2,
            Served::Store => 3,
        }
    }
}

type WorkResult = Result<Arc<str>, String>;

/// Where a stopping daemon connects to wake a listener blocked in
/// `accept`. The connection itself is the message: the woken loop sees
/// the stop flag and drops it unserved.
enum Wake {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl Wake {
    /// The address that reaches a TCP listener bound to `local`: the
    /// loopback address of its family when it is bound to all interfaces.
    fn tcp(mut local: SocketAddr) -> Wake {
        if local.ip().is_unspecified() {
            local.set_ip(match local {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Wake::Tcp(local)
    }

    fn send(&self) {
        // A failed connect means the listener is already gone.
        let _ = match self {
            Wake::Tcp(addr) => TcpStream::connect_timeout(addr, WAKE_TIMEOUT).map(drop),
            Wake::Unix(path) => UnixStream::connect(path).map(drop),
        };
    }
}

/// State shared by every connection worker.
pub(crate) struct Shared {
    sweep: Sweep,
    /// The response store under `--cache-dir`; `None` runs memory-only.
    store: Option<DiskStore>,
    run_cfg: RunConfig,
    /// `debug_fingerprint(&run_cfg)`, the run configuration's part of every
    /// request key, hashed once at start.
    run_cfg_key: u64,
    stop: AtomicBool,
    /// One wake-up per listener, sent once by [`Shared::request_stop`].
    wake: Vec<Wake>,
    read_timeout: Duration,
    pool: Pool,
    /// Every connection worker spawned, for [`Server`] to join.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Response memo + in-flight coalescing: request fingerprint → the
    /// serialized payload, computed at most once while held.
    responses: MemoTable<u64, WorkResult>,
    served: [AtomicU64; 4],
    requests: AtomicU64,
    errors: AtomicU64,
    metrics: Arc<ServeMetrics>,
}

impl Shared {
    /// True once the daemon is stopping.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Set the stop flag and, the first time, wake every listener blocked
    /// in `accept`.
    fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            for w in &self.wake {
                w.send();
            }
        }
    }

    fn count(&self, how: Served) {
        self.served[how.idx()].fetch_add(1, Ordering::Relaxed);
    }

    fn stats_json(&self) -> Json {
        let mut served = Json::obj();
        for how in Served::ALL {
            served = served.with(how.name(), self.served[how.idx()].load(Ordering::Relaxed));
        }
        let mut j = Json::obj()
            .with("requests", self.requests.load(Ordering::Relaxed))
            .with("errors", self.errors.load(Ordering::Relaxed))
            .with("served", served)
            .with("memo_cache", self.sweep.memo_stats().to_json());
        if let Some(st) = &self.store {
            j = j
                .with("store", st.stats().to_json())
                .with("store_dir", st.dir().display().to_string());
        }
        j
    }

    /// Current Prometheus exposition of the telemetry plane.
    pub(crate) fn metrics_text(&self) -> String {
        self.metrics.render(&self.sweep, self.store.as_ref())
    }

    /// The content fingerprint of a request: its canonical wire form
    /// chained with the run configuration, so a config change never
    /// serves a stale payload.
    fn request_key(&self, req: &Request) -> u64 {
        let h = spt::store::fingerprint_bytes(req.to_json().dump().as_bytes());
        spt::store::fnv1a(h, &self.run_cfg_key.to_le_bytes())
    }

    /// Serve `req`'s payload with at-most-once computation per key,
    /// layered over the on-disk store.
    fn serve(self: &Arc<Self>, req: &Request) -> (WorkResult, Served) {
        let key = self.request_key(req);
        let (cell, preexisting) = self.responses.cell(key);
        let already_done = cell.get().is_some();
        let mut how = if already_done {
            Served::Memo
        } else if preexisting {
            Served::Coalesced
        } else {
            Served::Computed
        };
        // A coalesced request is about to block on another thread's
        // computation: surface the wait on the in-flight gauge.
        let _wait = (how == Served::Coalesced).then(|| CoalesceWait::start(&self.metrics));
        let res = cell.get_or_init(|| {
            let (payload, from_store) = self.compute(req, key)?;
            if from_store {
                how = Served::Store;
            }
            Ok(payload)
        });
        (res.clone(), how)
    }

    /// The serialized payload for a cacheable request whose key is `key`,
    /// and whether it came from the on-disk store. A store hit is the
    /// entry's checked bytes as they are; a computed payload is dumped
    /// once, for both the memo cell and the store.
    fn compute(&self, req: &Request, key: u64) -> Result<(Arc<str>, bool), String> {
        let store = self.store.as_ref();
        if let Some(payload) = store.and_then(|st| st.load_raw("response", key)) {
            return Ok((payload, true));
        }
        let body = work(&self.sweep, &self.run_cfg, req)?.dump();
        if let Some(st) = store {
            st.save_raw("response", key, &body);
        }
        Ok((Arc::from(body), false))
    }
}

/// The payload of a cacheable request, computed on `sweep`.
fn work(sweep: &Sweep, run_cfg: &RunConfig, req: &Request) -> Result<Json, String> {
    match req {
        Request::Experiment(exp) => Ok(run_experiment(sweep, exp, run_cfg)?.to_json()),
        Request::Eval { bench, scale, fuel } => {
            let w = spt_workloads::benchmark(bench, *scale);
            let mut cfg = run_cfg.clone();
            if let Some(f) = fuel {
                cfg.fuel = *f;
            }
            let (outcome, record) = sweep.evaluate(w.name, &w.program, &cfg);
            Ok(Json::obj()
                .with("outcome", outcome.to_json())
                .with("record", record.to_json()))
        }
        // ping/stats/shutdown are answered inline, never cached.
        other => Err(format!("internal: {other:?} is not cacheable")),
    }
}

/// The two socket families behind the protocol listener.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(addr: &str) -> std::io::Result<(Listener, String)> {
        if addr.contains('/') {
            let path = PathBuf::from(addr);
            // A stale socket file from a previous run refuses rebinding.
            let _ = std::fs::remove_file(&path);
            let l = UnixListener::bind(&path)?;
            Ok((Listener::Unix(l, path), addr.to_string()))
        } else {
            let l = TcpListener::bind(addr)?;
            let bound = l.local_addr()?.to_string();
            Ok((Listener::Tcp(l), bound))
        }
    }

    fn wake(&self) -> std::io::Result<Wake> {
        Ok(match self {
            Listener::Tcp(l) => Wake::tcp(l.local_addr()?),
            Listener::Unix(_, path) => Wake::Unix(path.clone()),
        })
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accepted connection, TCP or Unix.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn configure(&self, read_timeout: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(Some(read_timeout))?;
                s.set_write_timeout(Some(read_timeout))
            }
            Conn::Unix(s) => {
                s.set_read_timeout(Some(read_timeout))?;
                s.set_write_timeout(Some(read_timeout))
            }
        }
    }

    /// Half-close: tell the peer nothing more will be sent.
    fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }
}

// Reads and writes go through shared references, as for the sockets
// themselves, so one connection is both the reader and the writer.
impl Read for &Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => (&*s).read(buf),
            Conn::Unix(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => (&*s).write(buf),
            Conn::Unix(s) => (&*s).write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => (&*s).flush(),
            Conn::Unix(s) => (&*s).flush(),
        }
    }
}

/// A running daemon. Dropping it shuts it down.
pub struct Server {
    addr: String,
    metrics_addr: Option<String>,
    shared: Arc<Shared>,
    /// Shared with every connection worker, and dropped (removing a Unix
    /// socket file) only once they are all joined and the store flushed.
    listener: Option<Arc<Listener>>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving in background threads. Returns once the
    /// socket (and the metrics listener, if configured) is listening.
    pub fn start(cfg: &ServeConfig) -> std::io::Result<Server> {
        let (listener, addr) = Listener::bind(&cfg.listen)?;
        let mut wake = vec![listener.wake()?];
        let scrape = match &cfg.metrics {
            Some(m) => {
                let l = TcpListener::bind(m)?;
                wake.push(Wake::tcp(l.local_addr()?));
                Some(l)
            }
            None => None,
        };
        let metrics = ServeMetrics::new();
        let store = cfg.cache_dir.as_ref().map(DiskStore::open).transpose()?;
        let mut sweep = Sweep::new(cfg.workers.max(1));
        sweep.set_observer(metrics.sweep_observer());
        let run_cfg = RunConfig::default();
        let shared = Arc::new(Shared {
            sweep,
            store,
            run_cfg_key: debug_fingerprint(&run_cfg),
            run_cfg,
            stop: AtomicBool::new(false),
            wake,
            read_timeout: cfg.read_timeout,
            pool: Pool::new(metrics.clone()),
            workers: Mutex::default(),
            responses: MemoTable::default(),
            served: Default::default(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            metrics,
        });
        let (metrics_addr, metrics_thread) = match scrape {
            Some(l) => {
                let bound = l.local_addr()?.to_string();
                let sh = shared.clone();
                let handle = std::thread::spawn(move || http::scrape_loop(l, &sh));
                (Some(bound), Some(handle))
            }
            None => (None, None),
        };
        let listener = Arc::new(listener);
        let server = Server {
            addr,
            metrics_addr,
            shared,
            listener: Some(listener.clone()),
            metrics_thread,
        };
        // The first worker leads: the pool starts with the lead taken. If
        // it cannot be spawned, dropping `server` stops the metrics
        // listener.
        spawn_worker(&server.shared, &listener)?;
        Ok(server)
    }

    /// The actual bound address (resolves TCP port 0).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The bound HTTP metrics address, when [`ServeConfig::metrics`] was
    /// set.
    pub fn metrics_addr(&self) -> Option<&str> {
        self.metrics_addr.as_deref()
    }

    /// True once a shutdown request has been received.
    pub fn stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Block until the daemon stops (shutdown request or [`Server::shutdown`]).
    pub fn wait(mut self) {
        self.join();
    }

    /// Stop accepting, drain in-flight connections, flush the store.
    pub fn shutdown(self) {
        drop(self); // `Drop` stops, drains and flushes.
    }

    /// Join every connection worker, then flush the store and drop the
    /// listener, then join the metrics listener. A worker records each
    /// worker it spawns before it exits, so the list runs empty only once
    /// every worker has been joined. The lock is released before each
    /// join: a leader still running must be able to record a spawn.
    fn join(&mut self) {
        loop {
            let next = lock(&self.shared.workers).pop();
            let Some(t) = next else { break };
            let _ = t.join();
        }
        if let Some(listener) = self.listener.take() {
            if let Some(st) = &self.shared.store {
                st.flush();
            }
            drop(listener);
        }
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.request_stop();
        self.join();
    }
}

/// The accept discipline both listeners share: block in `accept` and,
/// after every accept, check the stop flag. A stopping daemon wakes the
/// listener with a connection of its own ([`Shared::request_stop`]), which
/// is dropped here unserved. The only sleep is the back-off after a
/// failed `accept`. Returns what `serve` breaks with, or `None` once the
/// daemon stops.
pub(crate) fn accept_until_stop<C, T>(
    shared: &Shared,
    mut accept: impl FnMut() -> std::io::Result<C>,
    mut serve: impl FnMut(C) -> ControlFlow<T>,
) -> Option<T> {
    while !shared.stopping() {
        let accepted = accept();
        if shared.stopping() {
            break;
        }
        match accepted {
            Ok(conn) => {
                if let ControlFlow::Break(t) = serve(conn) {
                    return Some(t);
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
    None
}

/// Lock `m`, poisoned or not: nothing panics while holding these locks,
/// and a stopping daemon must still reach every worker.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Start a connection worker that leads first.
fn spawn_worker(shared: &Arc<Shared>, listener: &Arc<Listener>) -> std::io::Result<()> {
    let (sh, l) = (shared.clone(), listener.clone());
    let t = std::thread::Builder::new()
        .name("spt-conn".into())
        .spawn(move || worker(&sh, &l))?;
    lock(&shared.workers).push(t);
    Ok(())
}

/// A connection worker: lead until a connection is accepted and the lead
/// passed on, serve that connection, park as a follower, and again, until
/// the daemon stops. The worker that leads when it stops closes the pool.
fn worker(shared: &Arc<Shared>, listener: &Arc<Listener>) {
    while let Some(conn) = lead(shared, listener) {
        // A request's own panic is answered at the request boundary
        // (`catch_panic`); one anywhere else ends the connection, not the
        // worker (whose slot in the pool would otherwise stay counted).
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| handle_conn(&conn, shared)));
        // Start the next connection on an empty arena, as a fresh thread
        // would: a warm arena held per parked worker costs resident memory
        // and bought no compute time (DESIGN.md §3e).
        spt::sim::with_thread_arena(|a| *a = SimArena::new());
        if !shared.pool.follow(conn) {
            return;
        }
    }
    shared.pool.close();
}

/// Block in `accept` as the leader until a connection is accepted and the
/// lead handed off, and return that connection for this worker to serve;
/// `None` once the daemon stops. A connection past the cap is refused
/// `busy` here, and the lead kept.
fn lead(shared: &Arc<Shared>, listener: &Arc<Listener>) -> Option<Conn> {
    accept_until_stop(
        shared,
        || listener.accept(),
        |conn| match shared.pool.hand_off() {
            HandOff::Promoted => ControlFlow::Break(conn),
            HandOff::Spawn => {
                if spawn_worker(shared, listener).is_err() {
                    shared.pool.abdicate();
                }
                ControlFlow::Break(conn)
            }
            HandOff::Busy => {
                let t0 = Instant::now();
                respond(shared, &conn, refuse_undecoded(shared, "busy"), t0);
                ControlFlow::Continue(())
            }
        },
    )
}

/// Holds the in-flight coalescing gauge up while a request waits on
/// another's computation, and takes it down on every exit path, a panic
/// included.
struct CoalesceWait<'a>(&'a ServeMetrics);

impl<'a> CoalesceWait<'a> {
    fn start(metrics: &'a ServeMetrics) -> Self {
        metrics.coalesce_wait_start();
        CoalesceWait(metrics)
    }
}

impl Drop for CoalesceWait<'_> {
    fn drop(&mut self) {
        self.0.coalesce_wait_end();
    }
}

/// Decrements the active-connection gauge on every exit path.
struct ConnGuard<'a>(&'a ServeMetrics);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.conn_closed();
    }
}

/// Serve one connection: a loop of request line → response line.
fn handle_conn(conn: &Conn, shared: &Arc<Shared>) {
    if conn.configure(shared.read_timeout).is_err() {
        return;
    }
    shared.metrics.conn_opened();
    let _guard = ConnGuard(&shared.metrics);
    let mut reader = BufReader::new(conn);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match (&mut reader)
            .take(MAX_REQUEST_LINE as u64)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) => return, // client closed
            Ok(n) => shared.metrics.add_bytes_read(n as u64),
            Err(e) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    shared.metrics.timeout();
                }
                return; // timeout or broken pipe
            }
        }
        // An oversized line leaves its tail unread, so there is no next
        // request to resynchronize on: answer it, then close.
        let too_large = buf.len() == MAX_REQUEST_LINE && buf.last() != Some(&b'\n');
        let t0 = Instant::now();
        let reply = if too_large {
            refuse_undecoded(shared, "too_large")
        } else {
            match std::str::from_utf8(&buf) {
                Err(_) => refuse_undecoded(shared, "request line is not UTF-8"),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => handle_request(shared, line.trim()),
            }
        };
        if !respond(shared, conn, reply, t0) || too_large || shared.stopping() {
            return;
        }
    }
}

/// A response line with its `(op, served)` metric labels.
type Reply = (String, &'static str, &'static str);

/// Record `reply` (its latency counted from `t0`) and send it; false when
/// the client is gone.
fn respond(shared: &Shared, mut writer: &Conn, reply: Reply, t0: Instant) -> bool {
    let (mut line, op, served) = reply;
    shared
        .metrics
        .response(op, served, t0.elapsed().as_micros() as u64);
    line.push('\n');
    shared.metrics.add_bytes_written(line.len() as u64);
    writer.write_all(line.as_bytes()).is_ok() && writer.flush().is_ok()
}

/// A refusal line.
fn error_line(msg: &str) -> String {
    Json::obj().with("ok", false).with("error", msg).dump()
}

/// A success line around an already serialized payload. Splicing the
/// bytes gives exactly what dumping the envelope around the parsed
/// payload gives, because every cached payload is `dump` output and
/// `dump` is canonical.
fn payload_line(how: Served, payload: &str) -> String {
    let mut line = String::with_capacity(payload.len() + 48);
    line.push_str("{\"ok\":true,\"served\":\"");
    line.push_str(how.name());
    line.push_str("\",\"payload\":");
    line.push_str(payload);
    line.push('}');
    line
}

/// Count a request that never reached an op as an error and build its
/// refusal, labelled `invalid`.
fn refuse(shared: &Shared, msg: &str) -> Reply {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    shared.metrics.request("invalid");
    shared.metrics.error();
    (error_line(msg), "invalid", "error")
}

/// [`refuse`] a request whose line is not decoded (`too_large`, `busy`,
/// not UTF-8); it still counts as a request. After `too_large` and `busy`
/// the connection is closed, after a line that is not UTF-8 the next line
/// is read.
fn refuse_undecoded(shared: &Shared, msg: &str) -> Reply {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    refuse(shared, msg)
}

/// The metric label for a request's op — a closed set regardless of
/// what clients send (undecodable lines are all `invalid`).
fn op_label(req: &Request) -> &'static str {
    match req {
        Request::Ping => "ping",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
        Request::Eval { .. } => "eval",
        Request::Experiment(_) => "experiment",
    }
}

/// Decode, dispatch, and encode one request; never panics the daemon.
/// Returns the response line plus the `(op, served)` metric labels.
fn handle_request(shared: &Arc<Shared>, line: &str) -> Reply {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let req = match Json::parse(line)
        .map_err(|e| format!("bad JSON: {e}"))
        .and_then(|doc| Request::from_json(&doc))
    {
        Ok(r) => r,
        Err(e) => return refuse(shared, &e),
    };
    let op = op_label(&req);
    shared.metrics.request(op);
    catch_panic(shared, op, || answer(shared, req, op))
}

/// The request boundary: run `handle`, and answer a panic inside it with
/// `{"ok":false,"error":"internal error"}` instead of a closed connection.
/// The panic counts as an error and in `spt_panics_total`.
fn catch_panic(shared: &Shared, op: &'static str, handle: impl FnOnce() -> Reply) -> Reply {
    std::panic::catch_unwind(AssertUnwindSafe(handle)).unwrap_or_else(|_| {
        shared.errors.fetch_add(1, Ordering::Relaxed);
        shared.metrics.panic();
        shared.metrics.error();
        (error_line("internal error"), op, "error")
    })
}

/// Dispatch a decoded request and encode its response.
fn answer(shared: &Arc<Shared>, req: Request, op: &'static str) -> Reply {
    let payload = match req {
        Request::Ping => Json::from("pong"),
        Request::Stats => shared.stats_json(),
        Request::Metrics => Json::from(shared.metrics_text()),
        Request::Shutdown => {
            shared.request_stop();
            Json::from("shutting down")
        }
        cacheable => {
            let (result, how) = shared.serve(&cacheable);
            return match result {
                Ok(payload) => {
                    shared.count(how);
                    // Coalesced duplicates share one serialized payload,
                    // so their lines are byte-identical.
                    (payload_line(how, &payload), op, how.name())
                }
                Err(e) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.error();
                    (error_line(&e), op, "error")
                }
            };
        }
    };
    (
        payload_line(Served::Computed, &payload.dump()),
        op,
        "computed",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_forms_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Eval {
                bench: "parsers".into(),
                scale: spt_workloads::Scale::Test,
                fuel: Some(1_000_000),
            },
            Request::Experiment(ExperimentRequest::new("fig8", spt_workloads::Scale::Test)),
        ];
        for r in reqs {
            let back = Request::from_json(&r.to_json()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn served_indices_and_names_are_coherent() {
        for (i, how) in Served::ALL.into_iter().enumerate() {
            assert_eq!(how.idx(), i, "{}", how.name());
            assert_eq!(Served::ALL[how.idx()], how);
        }
        let names: Vec<&str> = Served::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["computed", "coalesced", "memo", "store"]);
    }

    #[test]
    fn spliced_payload_lines_match_parse_and_dump() {
        // The line a cached payload is answered with must be the bytes the
        // envelope built around the parsed payload dumps to: checked on
        // every test-scale experiment and one eval.
        let (sweep, cfg) = (Sweep::sequential(), RunConfig::default());
        let mut reqs: Vec<Request> = spt::EXPERIMENT_NAMES
            .iter()
            .map(|name| {
                let mut req = ExperimentRequest::new(name, spt_workloads::Scale::Test);
                if *name == "spt_explain" {
                    req.bench = Some("parsers".into());
                }
                Request::Experiment(req)
            })
            .collect();
        reqs.push(Request::Eval {
            bench: "parsers".into(),
            scale: spt_workloads::Scale::Test,
            fuel: None,
        });
        let dir = std::env::temp_dir().join(format!("spt-serve-splice-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        for (key, req) in reqs.iter().enumerate() {
            let payload = work(&sweep, &cfg, req).unwrap().dump();
            for how in Served::ALL {
                let tree = Json::obj()
                    .with("ok", true)
                    .with("served", how.name())
                    .with("payload", Json::parse(&payload).unwrap());
                assert_eq!(payload_line(how, &payload), tree.dump(), "{req:?}");
            }
            // A store hit serves the saved bytes themselves, which equal
            // the payload parsed out of the entry and dumped again.
            store.save_raw("response", key as u64, &payload);
            let raw = store.load_raw("response", key as u64).unwrap();
            assert_eq!(&*raw, payload, "{req:?}");
            let path = dir.join(format!("response-{key:016x}.json"));
            let entry = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            assert_eq!(entry.get("payload").unwrap().dump(), &*raw, "{req:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_request_is_answered_and_counted() {
        let server = Server::start(&ServeConfig::default()).unwrap();
        let shared = &server.shared;
        let (line, op, served) = catch_panic(shared, "eval", || panic!("handler bug"));
        assert_eq!(line, r#"{"ok":false,"error":"internal error"}"#);
        assert_eq!((op, served), ("eval", "error"));
        assert_eq!(shared.errors.load(Ordering::Relaxed), 1);
        let scrape = spt_metrics::parse_exposition(&shared.metrics_text()).unwrap();
        assert_eq!(scrape.get("spt_panics_total").unwrap().value, 1.0);
        // A handler that returns is passed through untouched.
        let ok = catch_panic(shared, "ping", || ("pong".into(), "ping", "computed"));
        assert_eq!(ok, ("pong".to_string(), "ping", "computed"));
        server.shutdown();
    }

    #[test]
    fn request_keys_keep_the_stored_formula() {
        // A response store written before the run-config fingerprint was
        // hashed once at start must stay valid: the key is still the
        // request's wire form chained with the `RunConfig` Debug hash.
        let server = Server::start(&ServeConfig::default()).unwrap();
        let req = Request::Eval {
            bench: "parsers".into(),
            scale: spt_workloads::Scale::Test,
            fuel: Some(1_000_000),
        };
        let wire = r#"{"op":"eval","bench":"parsers","scale":"test","fuel":1000000}"#;
        let old = spt::store::fnv1a(
            spt::store::fingerprint_bytes(wire.as_bytes()),
            &debug_fingerprint(&RunConfig::default()).to_le_bytes(),
        );
        assert_eq!(server.shared.request_key(&req), old);
        server.shutdown();
    }

    #[test]
    fn bad_requests_are_refusals() {
        for line in [
            "{",
            "{}",
            "{\"op\":\"nope\"}",
            "{\"op\":\"eval\"}",
            "{\"op\":\"eval\",\"bench\":\"nope\"}",
            "{\"op\":\"experiment\",\"experiment\":\"figx\"}",
        ] {
            let doc = Json::parse(line);
            let err = match doc {
                Err(_) => true,
                Ok(d) => Request::from_json(&d).is_err(),
            };
            assert!(err, "{line} should be rejected");
        }
    }
}
