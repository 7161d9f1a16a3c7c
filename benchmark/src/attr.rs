//! The attribution pass of a traced run: direct calls into single layers,
//! made after the workload's own pass and outside its spans, so each
//! layer's cost is timed on its own.
//!
//! * `spt_interp::run` on each original program (interp layer);
//! * `spt_profile::profile_loops` with the loops `compile` profiles
//!   (the dependence-profiling share of the compiler);
//! * `SptSim::new` and `SptSim::run` on each SPT item (simulator set-up
//!   vs the run itself), whose reports also give the modelled counters.

use crate::check::Tally;
use crate::trace::Tracer;
use crate::{ratio, Layers};
use spt::compiler::{CompileResult, RejectReason};
use spt::mach::MachineConfig;
use spt::profile::LoopKey;
use spt::sim::{LoopAnnotations, SptReport, SptSim};
use spt::sir::Program;
use spt::RunConfig;

/// One SPT simulation to repeat directly.
pub struct SptRun<'a> {
    pub prog: &'a Program,
    pub machine: MachineConfig,
    pub annots: LoopAnnotations,
    /// Cycles the workload's own run of this item reported, if known.
    pub expect_cycles: Option<u64>,
}

/// The loops `compile` hands to `profile_loops`: every loop that passed
/// the simple selection criteria, i.e. the selected ones plus every
/// rejection decided after dependence profiling.
fn dep_keys(c: &CompileResult) -> Vec<LoopKey> {
    let early = |r: &RejectReason| {
        matches!(
            r,
            RejectReason::LowCoverage(_)
                | RejectReason::ShortTrip(_)
                | RejectReason::BodyTooBig(_)
                | RejectReason::BodyTooSmall(_)
        )
    };
    c.loops
        .iter()
        .map(|l| l.key)
        .chain(
            c.rejected
                .iter()
                .filter(|(_, r)| !early(r))
                .map(|(k, _)| *k),
        )
        .collect()
}

/// Time each layer directly on `programs` (original program with its
/// compile result) and `runs`, and set the attribution metrics.
pub fn attribute(
    programs: &[(&Program, &CompileResult)],
    runs: &[SptRun],
    cfg: &RunConfig,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let profile_fuel = cfg.compile.profile_fuel;
    let (mut steps, mut interp_ms, mut dep_ms, mut dep_steps) = (0u64, 0.0, 0.0, 0u64);
    for (i, (prog, compiled)) in programs.iter().enumerate() {
        let ((res, _), ms) = tracer.span("attr.interp", None, i as u64, || {
            spt::interp::run(prog, cfg.fuel)
        });
        steps += res.steps;
        interp_ms += ms;
        let keys = dep_keys(compiled);
        let (_, ms) = tracer.span("attr.profile_loops", None, i as u64, || {
            spt::profile::profile_loops(prog, &keys, profile_fuel)
        });
        dep_ms += ms;
        // `profile_loops` interprets the whole program, capped by its fuel.
        dep_steps += res.steps.min(profile_fuel);
    }
    layers.set("interp.steps", steps as f64);
    layers.set("interp.msteps_per_s", ratio(steps as f64, interp_ms * 1e3));
    layers.set(
        "profile.dep_ms_per_run",
        ratio(dep_ms, programs.len() as f64),
    );
    layers.set(
        "profile.dep_msteps_per_s",
        ratio(dep_steps as f64, dep_ms * 1e3),
    );

    let (mut new_ms, mut run_ms) = (0.0, 0.0);
    let mut reports: Vec<SptReport> = Vec::with_capacity(runs.len());
    for (i, r) in runs.iter().enumerate() {
        let (sim, ms) = tracer.span("attr.spt_new", None, i as u64, || {
            SptSim::new(r.prog, r.machine.clone(), r.annots.clone())
        });
        new_ms += ms;
        let (rep, ms) = tracer.span("attr.spt_run", None, i as u64, || sim.run(cfg.fuel));
        run_ms += ms;
        if let Some(expect) = r.expect_cycles {
            tally.op(if rep.cycles == expect {
                Ok(())
            } else {
                Err(format!(
                    "direct SptSim run {i}: {} cycles, the sweep reported {expect}",
                    rep.cycles
                ))
            });
        }
        reports.push(rep);
    }
    layers.set("sim.spt_new_ms", new_ms);
    layers.set("sim.spt_run_ms", run_ms);
    set_modelled(&reports, layers);
}

/// Metrics derived from the phase times already set: host time per
/// simulated cycle over the cycles the computed phases executed, and the
/// share of compile time that dependence profiling accounts for.
pub fn set_derived(l: &mut Layers, base_cycles: u64, spt_cycles: u64) {
    let (base_ms, spt_ms) = (l.get("sim.baseline_ms"), l.get("sim.spt_ms"));
    let cycles = (base_cycles + spt_cycles) as f64;
    l.set("sim.cycles", cycles);
    l.set(
        "sim.baseline_ns_per_cycle",
        ratio(base_ms * 1e6, base_cycles as f64),
    );
    l.set(
        "sim.spt_ns_per_cycle",
        ratio(spt_ms * 1e6, spt_cycles as f64),
    );
    l.set("sim.mcycles_per_s", ratio(cycles, (base_ms + spt_ms) * 1e3));
    let dep_ms = l.get("profile.dep_ms_per_run");
    let (computed, ms) = (l.get("compiler.computed"), l.get("compiler.ms"));
    l.set("compiler.dep_share", ratio(dep_ms * computed, ms));
}

/// The modelled machine's counters, summed over `reports`.
fn set_modelled(reports: &[SptReport], layers: &mut Layers) {
    let sum = |f: fn(&SptReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let forks = sum(|r| r.forks);
    layers.set("sim.forks", forks);
    layers.set("sim.replays", sum(|r| r.replays));
    layers.set("sim.kills", sum(|r| r.kills));
    layers.set(
        "sim.fast_commit_ratio",
        ratio(sum(|r| r.fast_commits), forks),
    );
    layers.set(
        "sim.misspec_ratio",
        ratio(
            sum(|r| r.spec_misspec),
            sum(|r| r.spec_instrs_checked + r.spec_instrs_discarded),
        ),
    );
    layers.set(
        "sim.l1_hit_ratio",
        ratio(sum(|r| r.cache.l1_hits), sum(|r| r.cache.accesses())),
    );
    layers.set(
        "sim.bp_mispredict_ratio",
        ratio(sum(|r| r.bp_mispredicts), sum(|r| r.bp_lookups)),
    );
}
