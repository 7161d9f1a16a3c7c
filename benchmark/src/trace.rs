//! In-memory spans recorded by the benchmark around its calls into each
//! layer, exported as Chrome trace-event `X` events, plus per-name self
//! times (span duration minus the part its children cover).

use spt::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `item` ties a span to the work item (sweep item or
/// request sequence number) it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub item: u64,
    /// Trace-viewer thread: 0 for the main thread, `1 + client` for a
    /// serve client.
    pub tid: u64,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Span recorder. All timestamps are microseconds since `t0`.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::starting_at(Instant::now())
    }

    /// A recorder sharing an origin with others (one per serve client), so
    /// their spans merge onto one timeline.
    pub fn starting_at(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Open a span that [`Tracer::close`] ends; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, item: u64) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            item,
            tid: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Run `f` inside a span; returns its result and its wall time in
    /// milliseconds (measured at full clock resolution, not in span µs).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        item: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, item);
        let t = Instant::now();
        let r = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.close(id);
        (r, ms)
    }

    /// Append spans recorded elsewhere, re-parenting their roots under
    /// `parent`. Parent ids inside `spans` are shifted accordingly.
    pub fn adopt(&mut self, spans: Vec<Span>, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }
}

/// The spans as a Chrome trace-event document (`X` events, µs).
pub fn chrome_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj()
                .with("name", s.name)
                .with("ph", "X")
                .with("pid", 1u64)
                .with("tid", s.tid)
                .with("ts", s.start_us)
                .with("dur", s.dur_us())
                .with(
                    "args",
                    Json::obj()
                        .with("id", i)
                        .with("item", s.item)
                        .with("parent", s.parent.map(|p| p as u64)),
                )
        })
        .collect();
    Json::obj()
        .with("displayTimeUnit", "ms")
        .with("traceEvents", Json::Array(events))
}

/// Per span name: (count, total ms, self ms), sorted by self time,
/// largest first.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    let mut child_us = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us();
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&child_us) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us();
        e.2 += s.dur_us().saturating_sub(*kids);
    }
    let mut out: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, total, own))| (n, c, total as f64 / 1e3, own as f64 / 1e3))
        .collect();
    out.sort_by(|a, b| b.3.total_cmp(&a.3));
    out
}
