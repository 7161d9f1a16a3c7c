//! Traced ≡ untraced, suite-wide.
//!
//! A trace sink observes the simulators; it must never steer them. Every
//! suite benchmark at test scale runs through the baseline
//! (`simulate_baseline_in`) and the SPT machine (`SptSim::run_in`) on the
//! fabric widths N ∈ {2, 4, 8} and on the four recovery/checking machines
//! of `ablation_policies`, once into a `NullSink` (the quiet issue path)
//! and once into a `RingBufferSink` (the traced one). The two full reports
//! (cycle breakdown, cache, per-loop and per-core statistics) must be
//! `Debug`-equal, and so must the final memory images. Every run that
//! finishes also conserves speculation outcomes: each fork ends exactly
//! once, and the per-core statistics sum to the fabric-wide counters.

use spt::compiler::compile;
use spt::sim::{simulate_baseline_in, PerCoreStats, SimArena, SptReport, SptSim};
use spt::tracing::{NullSink, RingBufferSink, TraceSink};
use spt::workloads::{suite, Scale};
use spt::{original_annotations, spt_annotations, MachineConfig, RecoveryKind, RegCheckPolicy};
use spt::{sweep::program_fingerprint, RunConfig};

/// The SPT machines under test: each fabric width with the default
/// policies, then the three non-default `ablation_policies` variants (the
/// fourth, SRX+FC with value-based checking, is the default machine).
fn machines(base: &MachineConfig) -> Vec<MachineConfig> {
    let mut ms: Vec<MachineConfig> = [2, 4, 8]
        .into_iter()
        .map(|cores| MachineConfig {
            cores,
            ..base.clone()
        })
        .collect();
    ms.push(MachineConfig {
        reg_check: RegCheckPolicy::MarkBased,
        ..base.clone()
    });
    ms.push(MachineConfig {
        recovery: RecoveryKind::SrxOnly,
        ..base.clone()
    });
    ms.push(MachineConfig {
        recovery: RecoveryKind::Squash,
        ..base.clone()
    });
    ms
}

/// Every fork ends exactly once: by a fast commit, a replay (a replay cut
/// short by control divergence also counts a kill on its core, hence the
/// `divergence_kills` correction), a squash or a kill — both of which count
/// as a per-core kill. And the per-core statistics partition the
/// fabric-wide counters.
fn assert_outcomes_conserved(r: &SptReport, ctx: &str) {
    let per_core = |f: fn(&PerCoreStats) -> u64| r.per_core.iter().map(f).sum::<u64>();
    assert_eq!(per_core(|c| c.threads), r.forks, "threads [{ctx}]");
    assert_eq!(
        per_core(|c| c.fast_commits),
        r.fast_commits,
        "fast commits [{ctx}]"
    );
    assert_eq!(per_core(|c| c.replays), r.replays, "replays [{ctx}]");
    assert_eq!(
        r.forks,
        r.fast_commits + r.replays + per_core(|c| c.kills) - r.divergence_kills,
        "every fork ends once [{ctx}]"
    );
}

#[test]
fn traced_and_untraced_runs_report_identically_across_the_suite() {
    let cfg = RunConfig::default();
    // One warm arena per side, as a sweep worker would keep.
    let mut quiet_arena = SimArena::new();
    let mut traced_arena = SimArena::new();
    let mut traced_events = 0usize;
    for w in suite(Scale::Test) {
        let compiled = compile(&w.program, &cfg.compile);
        let base_annots = original_annotations(&w.program, &compiled);
        let annots = spt_annotations(&compiled);
        let base_fp = program_fingerprint(&w.program);
        let spt_fp = program_fingerprint(&compiled.program);
        for m in machines(&cfg.machine) {
            let ctx = format!(
                "{} cores={} {:?}/{:?}",
                w.name, m.cores, m.recovery, m.reg_check
            );
            let run = |arena: &mut SimArena, sink: &mut dyn TraceSink| {
                let (b, bmem) = simulate_baseline_in(
                    arena,
                    base_fp,
                    &w.program,
                    &m.core,
                    &base_annots,
                    cfg.fuel,
                    sink,
                );
                let sim =
                    SptSim::new_in(arena, spt_fp, &compiled.program, m.clone(), annots.clone());
                let (s, smem) = sim.run_in(arena, cfg.fuel, sink);
                arena.put_decoded(spt_fp, sim.into_decoded());
                (format!("{b:?}"), bmem, s, smem)
            };
            let quiet = run(&mut quiet_arena, &mut NullSink);
            let mut ring = RingBufferSink::unbounded();
            let traced = run(&mut traced_arena, &mut ring);
            traced_events += ring.records().count();
            assert_eq!(quiet.0, traced.0, "baseline report [{ctx}]");
            assert!(quiet.1 == traced.1, "baseline memory [{ctx}]");
            assert_eq!(
                format!("{:?}", quiet.2),
                format!("{:?}", traced.2),
                "SPT report [{ctx}]"
            );
            if !quiet.2.out_of_fuel {
                assert_outcomes_conserved(&quiet.2, &ctx);
            }
            assert!(quiet.3 == traced.3, "SPT memory [{ctx}]");
        }
    }
    assert!(
        traced_events > 1000,
        "the traced side must actually trace ({traced_events} events)"
    );
}
