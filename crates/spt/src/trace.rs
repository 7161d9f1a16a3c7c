//! Trace capture and export for the evaluation pipeline.
//!
//! This module connects the [`spt_trace`] event layer to the experiment
//! engine and the JSON layer:
//!
//! * [`Sweep::trace_program`] runs the full pipeline (profile → traced
//!   compile → traced baseline → traced SPT simulation) capturing every
//!   event into ring buffers, and folds them into per-loop histograms;
//! * [`chrome_trace`] renders captured traces in the Chrome trace-event
//!   JSON format (loadable in Perfetto / `chrome://tracing`), with one
//!   process per benchmark pipeline, per-pipe threads, speculation spans
//!   and an SRB-occupancy counter track;
//! * [`validate_chrome_trace`] / [`validate_trace_jsonl`] check exported
//!   text against the schema (the CI trace-validation step).
//!
//! Determinism: every exported byte derives from cycle-stamped events and
//! the fixed benchmark order, so traces are byte-identical across sweep
//! worker counts — a property `tests/trace_determinism.rs` asserts.

use crate::json::{Json, ToJson};
use crate::solution::{original_annotations, spt_annotations, EvalOutcome, RunConfig};
use crate::sweep::program_fingerprint;
use crate::sweep::{BenchRecord, PhaseStamp, RunReport, Sweep};
use spt_compiler::compile_with_deps;
use spt_sim::{simulate_baseline_in, SptSim};
use spt_sir::Program;
use spt_trace::{
    fold, Histogram, LoopHistograms, Pipe, RingBufferSink, TraceEvent, TraceFold, TraceRecord,
};
use spt_workloads::{suite, Scale};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Histogram / fold JSON
// ---------------------------------------------------------------------------

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::obj()
            .with(
                "buckets",
                Json::Array(self.buckets.iter().map(|&b| Json::UInt(b)).collect()),
            )
            .with("count", self.count)
            .with("sum", self.sum)
            .with("max", self.max)
            .with("mean", self.mean())
    }
}

impl ToJson for LoopHistograms {
    fn to_json(&self) -> Json {
        let pairs = |v: &[(u64, u64)]| {
            Json::Array(
                v.iter()
                    .map(|&(k, n)| Json::obj().with("key", k).with("count", n))
                    .collect(),
            )
        };
        Json::obj()
            .with("loop", self.loop_id)
            .with("replay_lengths", self.replay_lengths.to_json())
            .with("srb_occupancy", self.srb_occupancy.to_json())
            .with("inter_fork_distance", self.inter_fork_distance.to_json())
            .with(
                "reg_violations",
                pairs(
                    &self
                        .reg_violations
                        .iter()
                        .map(|&(r, n)| (r as u64, n))
                        .collect::<Vec<_>>(),
                ),
            )
            .with("mem_violations", pairs(&self.mem_violations))
    }
}

impl ToJson for TraceFold {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("forks", self.forks)
            .with("forks_ignored", self.forks_ignored)
            .with("fast_commits", self.fast_commits)
            .with("replays", self.replays)
            .with("kills", self.kills)
            .with("divergence_kills", self.divergence_kills)
            .with("squashes", self.squashes)
            .with("srb_high_water", self.srb_high_water)
            .with("stall_transitions", self.stall_transitions)
            .with("loops_selected", self.loops_selected)
            .with("loops_rejected", self.loops_rejected)
            .with(
                "per_loop",
                Json::Array(self.per_loop.iter().map(ToJson::to_json).collect()),
            )
    }
}

// ---------------------------------------------------------------------------
// Captured traces
// ---------------------------------------------------------------------------

/// Every event stream one traced benchmark produces.
#[derive(Clone, Debug, Default)]
pub struct ProgramTrace {
    pub name: String,
    /// Compiler driver events (all cycle 0).
    pub compile: Vec<TraceRecord>,
    /// Baseline single-core stall transitions.
    pub baseline: Vec<TraceRecord>,
    /// SPT machine speculation events.
    pub spt: Vec<TraceRecord>,
}

impl ProgramTrace {
    /// Fold the compile + SPT streams into aggregate statistics. The
    /// baseline stream is excluded so the fold stays a differential
    /// oracle against `SptReport`'s counters (baseline contributes only
    /// stall transitions, which would pollute `stall_transitions`).
    pub fn fold(&self) -> TraceFold {
        fold(self.compile.iter().chain(self.spt.iter()))
    }

    /// All streams as JSONL, one record per line, streams separated by
    /// their origin in a `"stream"`-tagged header line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (stream, recs) in [
            ("compile", &self.compile),
            ("baseline", &self.baseline),
            ("spt", &self.spt),
        ] {
            out.push_str(&format!(
                "{{\"stream\":\"{stream}\",\"events\":{}}}\n",
                recs.len()
            ));
            for r in recs {
                out.push_str(&spt_trace::jsonl(r));
                out.push('\n');
            }
        }
        out
    }
}

/// One traced end-to-end evaluation.
#[derive(Clone, Debug)]
pub struct TraceRun {
    pub outcome: EvalOutcome,
    pub trace: ProgramTrace,
    pub fold: TraceFold,
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Thread ids within a pipeline process.
const TID_MAIN: u64 = 0;
const TID_SPEC: u64 = 1;
/// Process-id stride per benchmark: compiler, SPT machine, baseline core.
const PIDS_PER_BENCH: u64 = 3;

fn ev_base(name: &str, ph: &str, ts: u64, pid: u64, tid: u64) -> Json {
    Json::obj()
        .with("name", name)
        .with("ph", ph)
        .with("ts", ts)
        .with("pid", pid)
        .with("tid", tid)
}

fn meta(name: &str, pid: u64, tid: u64, value: &str) -> Json {
    ev_base(name, "M", 0, pid, tid).with("args", Json::obj().with("name", value))
}

fn instant(name: &str, ts: u64, pid: u64, tid: u64, args: Json) -> Json {
    ev_base(name, "I", ts, pid, tid)
        .with("s", "t")
        .with("args", args)
}

fn span(name: &str, ts: u64, dur: u64, pid: u64, tid: u64, args: Json) -> Json {
    ev_base(name, "X", ts, pid, tid)
        .with("dur", dur)
        .with("args", args)
}

fn counter(name: &str, ts: u64, pid: u64, args: Json) -> Json {
    ev_base(name, "C", ts, pid, TID_MAIN).with("args", args)
}

fn loop_json(loop_id: &Option<usize>) -> Json {
    match loop_id {
        Some(i) => Json::UInt(*i as u64),
        None => Json::Null,
    }
}

fn push_compile_events(out: &mut Vec<Json>, recs: &[TraceRecord], pid: u64) {
    for r in recs {
        let args = match &r.ev {
            TraceEvent::PartitionChosen {
                func,
                loop_id,
                cost,
                est_speedup,
                pre_size,
            } => Json::obj()
                .with("func", func.0)
                .with("loop", *loop_id)
                .with("cost", *cost)
                .with("est_speedup", *est_speedup)
                .with("pre_size", *pre_size),
            TraceEvent::LoopSelected {
                func,
                loop_id,
                est_speedup,
                coverage,
                unroll,
            } => Json::obj()
                .with("func", func.0)
                .with("loop", *loop_id)
                .with("est_speedup", *est_speedup)
                .with("coverage", *coverage)
                .with("unroll", *unroll),
            TraceEvent::LoopRejected {
                func,
                loop_id,
                reason,
            } => Json::obj()
                .with("func", func.0)
                .with("loop", *loop_id)
                .with("reason", reason.as_str()),
            other => Json::obj().with("event", other.name()),
        };
        out.push(instant(r.ev.name(), r.cycle, pid, TID_MAIN, args));
    }
}

fn push_sim_events(out: &mut Vec<Json>, recs: &[TraceRecord], pid: u64) {
    for r in recs {
        match &r.ev {
            TraceEvent::Fork {
                loop_id,
                func,
                start_block,
            } => out.push(instant(
                "fork",
                r.cycle,
                pid,
                TID_MAIN,
                Json::obj()
                    .with("loop", loop_json(loop_id))
                    .with("func", func.0)
                    .with("block", start_block.0),
            )),
            TraceEvent::ForkIgnored { func, start_block } => out.push(instant(
                "fork_ignored",
                r.cycle,
                pid,
                TID_MAIN,
                Json::obj()
                    .with("func", func.0)
                    .with("block", start_block.0),
            )),
            TraceEvent::FastCommit {
                loop_id,
                fork_cycle,
                srb_len,
            } => out.push(span(
                "speculate",
                *fork_cycle,
                r.cycle.saturating_sub(*fork_cycle),
                pid,
                TID_SPEC,
                Json::obj()
                    .with("outcome", "fast_commit")
                    .with("loop", loop_json(loop_id))
                    .with("srb_len", *srb_len),
            )),
            TraceEvent::Replay {
                loop_id,
                fork_cycle,
                check_cycle,
                srb_len,
                committed,
                reexecuted,
                reg_violations,
                mem_violations,
            } => out.push(span(
                "speculate",
                *fork_cycle,
                r.cycle.saturating_sub(*fork_cycle),
                pid,
                TID_SPEC,
                Json::obj()
                    .with("outcome", "replay")
                    .with("loop", loop_json(loop_id))
                    .with("check_cycle", *check_cycle)
                    .with("srb_len", *srb_len)
                    .with("committed", *committed)
                    .with("reexecuted", *reexecuted)
                    .with(
                        "reg_violations",
                        Json::Array(
                            reg_violations
                                .iter()
                                .map(|&v| Json::UInt(v as u64))
                                .collect(),
                        ),
                    )
                    .with(
                        "mem_violations",
                        Json::Array(mem_violations.iter().map(|&v| Json::UInt(v)).collect()),
                    ),
            )),
            TraceEvent::Kill {
                loop_id,
                fork_cycle,
                srb_len,
            } => out.push(span(
                "speculate",
                *fork_cycle,
                r.cycle.saturating_sub(*fork_cycle),
                pid,
                TID_SPEC,
                Json::obj()
                    .with("outcome", "kill")
                    .with("loop", loop_json(loop_id))
                    .with("srb_len", *srb_len),
            )),
            TraceEvent::Squash {
                loop_id,
                fork_cycle,
                srb_len,
            } => out.push(span(
                "speculate",
                *fork_cycle,
                r.cycle.saturating_sub(*fork_cycle),
                pid,
                TID_SPEC,
                Json::obj()
                    .with("outcome", "squash")
                    .with("loop", loop_json(loop_id))
                    .with("srb_len", *srb_len),
            )),
            TraceEvent::DivergenceKill { loop_id, committed } => out.push(instant(
                "divergence_kill",
                r.cycle,
                pid,
                TID_SPEC,
                Json::obj()
                    .with("loop", loop_json(loop_id))
                    .with("committed", *committed),
            )),
            TraceEvent::SrbHighWater { occupancy } => out.push(counter(
                "srb_occupancy",
                r.cycle,
                pid,
                Json::obj().with("entries", *occupancy),
            )),
            TraceEvent::StallTransition { pipe, kind } => {
                let tid = match pipe {
                    Pipe::Main => TID_MAIN,
                    Pipe::Spec => TID_SPEC,
                };
                out.push(instant(
                    &format!("stall:{}", kind.name()),
                    r.cycle,
                    pid,
                    tid,
                    Json::obj().with("class", kind.name()),
                ));
            }
            // Compiler events never appear in a sim stream; render them
            // generically rather than dropping them if they ever do.
            other => out.push(instant(
                other.name(),
                r.cycle,
                pid,
                TID_MAIN,
                Json::obj().with("event", other.name()),
            )),
        }
    }
}

/// Render captured traces as one Chrome trace-event JSON document.
///
/// Layout: benchmark `i` owns process ids `3i+1` (compiler), `3i+2`
/// (SPT machine: thread 0 = main pipe, thread 1 = spec pipe, plus the
/// `srb_occupancy` counter track) and `3i+3` (baseline core).
/// Timestamps are simulated cycles, durations likewise; speculation
/// episodes appear as complete (`X`) spans from fork to resolution.
pub fn chrome_trace(traces: &[ProgramTrace]) -> Json {
    let mut events = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let base = (i as u64) * PIDS_PER_BENCH + 1;
        let (pid_compile, pid_spt, pid_base) = (base, base + 1, base + 2);
        events.push(meta(
            "process_name",
            pid_compile,
            0,
            &format!("{}: compiler", t.name),
        ));
        events.push(meta(
            "process_name",
            pid_spt,
            0,
            &format!("{}: spt machine", t.name),
        ));
        events.push(meta(
            "process_name",
            pid_base,
            0,
            &format!("{}: baseline core", t.name),
        ));
        events.push(meta("thread_name", pid_spt, TID_MAIN, "main pipe"));
        events.push(meta("thread_name", pid_spt, TID_SPEC, "spec pipe"));
        events.push(meta("thread_name", pid_base, TID_MAIN, "pipe"));
        push_compile_events(&mut events, &t.compile, pid_compile);
        push_sim_events(&mut events, &t.spt, pid_spt);
        push_sim_events(&mut events, &t.baseline, pid_base);
    }
    Json::obj()
        .with("displayTimeUnit", "ms")
        .with("traceEvents", Json::Array(events))
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

/// Validate a Chrome trace-event JSON document; returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("missing traceEvents array")?;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if !matches!(ph, "M" | "X" | "I" | "C") {
            return Err(format!("event {i}: unknown phase {ph:?}"));
        }
        for key in ["name", "pid", "tid", "ts"] {
            let field = e
                .get(key)
                .ok_or_else(|| format!("event {i}: missing {key}"))?;
            let ok = match key {
                "name" => field.as_str().is_some(),
                _ => field.as_u64().is_some(),
            };
            if !ok {
                return Err(format!("event {i}: bad {key} type"));
            }
        }
        match ph {
            "X" => {
                e.get("dur")
                    .and_then(|d| d.as_u64())
                    .ok_or_else(|| format!("event {i}: X event missing dur"))?;
            }
            "C" => {
                let args = e
                    .get("args")
                    .ok_or_else(|| format!("event {i}: C event missing args"))?;
                match args {
                    Json::Object(pairs) if pairs.iter().any(|(_, v)| v.as_f64().is_some()) => {}
                    _ => return Err(format!("event {i}: C event needs a numeric arg")),
                }
            }
            "I" if e.get("s").and_then(|s| s.as_str()).is_none() => {
                return Err(format!("event {i}: I event missing scope"));
            }
            _ => {}
        }
    }
    Ok(events.len())
}

/// Known event names — the JSONL schema's `"ev"` discriminants.
pub const EVENT_NAMES: [&str; 13] = [
    "fork",
    "ring_fork",
    "fork_ignored",
    "fast_commit",
    "replay",
    "kill",
    "divergence_kill",
    "squash",
    "srb_high_water",
    "stall_transition",
    "partition_chosen",
    "loop_selected",
    "loop_rejected",
];

/// Validate a JSONL event stream (as produced by [`ProgramTrace::jsonl`]
/// or `spt_trace::StreamSink`); returns the event-line count. Lines with
/// a `"stream"` key are section headers and are checked only for parse.
pub fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if v.get("stream").is_some() {
            continue;
        }
        v.get("cycle")
            .and_then(|c| c.as_u64())
            .ok_or_else(|| format!("line {}: missing cycle", lineno + 1))?;
        let ev = v
            .get("ev")
            .and_then(|e| e.as_str())
            .ok_or_else(|| format!("line {}: missing ev", lineno + 1))?;
        if !EVENT_NAMES.contains(&ev) {
            return Err(format!("line {}: unknown event {ev:?}", lineno + 1));
        }
        n += 1;
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Traced pipeline
// ---------------------------------------------------------------------------

impl Sweep {
    /// Run the full evaluation pipeline for one program with tracing on,
    /// capturing every event. The program and dependence profiles go
    /// through the memo cache exactly as in [`Sweep::compile`]; the traced
    /// phases must run live to produce their event streams (reports are
    /// cached, events are not), so this is the `--trace` path, not the
    /// bulk-evaluation path.
    pub fn trace_program(
        &self,
        name: &str,
        prog: &Program,
        cfg: &RunConfig,
    ) -> (TraceRun, BenchRecord) {
        let (profile, pstamp) = self.profile(prog, cfg.compile.profile_fuel);
        let fp = program_fingerprint(prog);

        let mut csink = RingBufferSink::unbounded();
        let t = Instant::now();
        let deps = self.dep_profile(prog, fp, &cfg.compile, &profile);
        let compiled = compile_with_deps(prog, &cfg.compile, (*profile).clone(), &deps, &mut csink);
        let compile_ms = t.elapsed().as_secs_f64() * 1e3;

        let base_annots = original_annotations(prog, &compiled);
        let mut bsink = RingBufferSink::unbounded();
        let t = Instant::now();
        let (baseline, _) =
            simulate_baseline_in(prog, &cfg.machine.core, &base_annots, cfg.fuel, &mut bsink);
        let baseline_ms = t.elapsed().as_secs_f64() * 1e3;

        let annots = spt_annotations(&compiled);
        let mut ssink = RingBufferSink::unbounded();
        let t = Instant::now();
        let (spt, _) = SptSim::new(&compiled.program, cfg.machine.clone(), annots)
            .run_in(cfg.fuel, &mut ssink);
        let spt_ms = t.elapsed().as_secs_f64() * 1e3;

        let outcome = EvalOutcome {
            name: name.to_string(),
            baseline,
            spt,
            compiled,
        };
        let trace = ProgramTrace {
            name: name.to_string(),
            compile: csink.into_records(),
            baseline: bsink.into_records(),
            spt: ssink.into_records(),
        };
        let fold = trace.fold();
        let computed = |ms| PhaseStamp {
            ms,
            ..Default::default()
        };
        let mut record = BenchRecord::new(
            name.to_string(),
            [
                pstamp,
                computed(compile_ms),
                computed(baseline_ms),
                computed(spt_ms),
            ],
            Some((&outcome.baseline, &outcome.spt)),
        );
        record.semantics_ok = Some(outcome.semantics_ok());
        (
            TraceRun {
                outcome,
                trace,
                fold,
            },
            record,
        )
    }

    /// Trace the whole suite at `scale`. Runs fan out across the worker
    /// pool; results keep suite order, so the exported trace bytes are
    /// identical at any worker count. The returned report carries the
    /// per-benchmark histogram folds in its `histograms` field.
    pub fn trace_suite(&self, scale: Scale, cfg: &RunConfig) -> (Vec<TraceRun>, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws = suite(scale);
        let (runs, records): (Vec<TraceRun>, Vec<BenchRecord>) = self
            .map(&ws, |_, w| self.trace_program(w.name, &w.program, cfg))
            .into_iter()
            .unzip();
        let mut report = self.report_since("trace_suite", t0, before, records);
        let mut hists = Json::obj();
        for run in &runs {
            hists = hists.with(&run.trace.name, run.fold.to_json());
        }
        report.histograms = Some(hists);
        (runs, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_workloads::kernels::array_map;

    fn traced(n: usize) -> (TraceRun, BenchRecord) {
        let mut cfg = RunConfig::default();
        cfg.fuel = 20_000_000;
        let sw = Sweep::sequential();
        sw.trace_program("array_map", &array_map(n, 12), &cfg)
    }

    #[test]
    fn traced_pipeline_matches_untraced_and_captures_events() {
        let (run, rec) = traced(200);
        let mut cfg = RunConfig::default();
        cfg.fuel = 20_000_000;
        let plain = crate::solution::evaluate_program("array_map", &array_map(200, 12), &cfg);
        assert_eq!(run.outcome.baseline.cycles, plain.baseline.cycles);
        assert_eq!(run.outcome.spt.cycles, plain.spt.cycles);
        assert_eq!(run.outcome.spt.ret, plain.spt.ret);
        assert_eq!(rec.semantics_ok, Some(true));
        // The fold is a differential oracle against the report.
        assert_eq!(run.fold.forks, run.outcome.spt.forks);
        assert_eq!(run.fold.fast_commits, run.outcome.spt.fast_commits);
        assert_eq!(run.fold.replays, run.outcome.spt.replays);
        assert_eq!(run.fold.kills, run.outcome.spt.kills);
        assert!(!run.trace.compile.is_empty(), "compiler events captured");
        assert!(!run.trace.spt.is_empty(), "sim events captured");
    }

    #[test]
    fn chrome_export_validates_and_is_deterministic() {
        let (a, _) = traced(150);
        let (b, _) = traced(150);
        let ja = chrome_trace(std::slice::from_ref(&a.trace)).pretty();
        let jb = chrome_trace(std::slice::from_ref(&b.trace)).pretty();
        assert_eq!(ja, jb, "same run must export identical bytes");
        let n = validate_chrome_trace(&ja).expect("schema-valid");
        assert!(n > 10, "expected a real event stream, got {n}");
        assert!(ja.contains("\"srb_occupancy\""));
        assert!(ja.contains("\"fast_commit\""));
    }

    #[test]
    fn jsonl_export_validates() {
        let (run, _) = traced(120);
        let text = run.trace.jsonl();
        let n = validate_trace_jsonl(&text).expect("jsonl schema-valid");
        assert_eq!(
            n,
            run.trace.compile.len() + run.trace.baseline.len() + run.trace.spt.len()
        );
    }

    #[test]
    fn fold_json_has_per_loop_histograms() {
        let (run, _) = traced(200);
        let j = run.fold.to_json().dump();
        for key in [
            "\"per_loop\"",
            "\"replay_lengths\"",
            "\"inter_fork_distance\"",
            "\"srb_occupancy\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn validators_reject_malformed_input() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"Z\"}]}").is_err());
        assert!(validate_trace_jsonl("{\"cycle\":1}").is_err());
        assert!(validate_trace_jsonl("{\"cycle\":1,\"ev\":\"bogus\"}").is_err());
        assert_eq!(validate_trace_jsonl("{\"cycle\":1,\"ev\":\"fork\"}"), Ok(1));
    }
}
