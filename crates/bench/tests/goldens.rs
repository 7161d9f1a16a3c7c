//! Golden-snapshot tests for every text artifact in `results/`.
//!
//! Each golden is the exact text a figure binary prints at `--scale test`
//! (minus the machine-dependent metrics footer). The test regenerates all
//! of them through one shared [`Sweep`] — the same engine the binaries use,
//! so the memo cache is exercised across experiments — and diffs against
//! the checked-in files. One golden is no binary's output:
//! `work_counts.txt` pins the simulator's deterministic work (interpreter
//! steps per pipeline, scheduler scans) over the `fig_scale` runs.
//!
//! To refresh after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p spt-bench --test goldens
//! ```

use spt::report::{
    render_ablation_compiler, render_ablation_policies, render_ablation_srb, render_explain,
    render_fig1, render_fig5, render_fig6, render_fig7, render_fig8, render_fig9, render_fig_scale,
    render_table1,
};
use spt::store::fnv1a;
use spt::trace::chrome_trace;
use spt::{spt_annotations, MachineConfig, RunConfig, Sweep};
use spt_compiler::candidate_keys;
use spt_profile::{profile_loops, profile_program, DepProfile, ProgramProfile};
use spt_workloads::kernels::svp_loop;
use spt_workloads::{benchmark, Scale, BENCHMARK_NAMES};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Compare `content` against the checked-in golden, or rewrite it when
/// `UPDATE_GOLDENS=1`. Returns the name on mismatch instead of panicking so
/// one run reports every stale golden.
fn check(name: &str, content: &str) -> Option<String> {
    let path = results_dir().join(name);
    if std::env::var("UPDATE_GOLDENS").as_deref() == Ok("1") {
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {name}: {e}"));
        return None;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    if want == content {
        None
    } else {
        eprintln!("=== golden mismatch: {name} ===");
        eprintln!("--- want ---\n{want}");
        eprintln!("--- got ---\n{content}");
        Some(name.to_string())
    }
}

#[test]
fn results_match_goldens() {
    let cfg = RunConfig::default();
    let sweep = Sweep::new(2);
    let mut stale = Vec::new();

    stale.extend(check(
        "table1.txt",
        &render_table1(&MachineConfig::default()),
    ));

    let (cs, _) = sweep.fig1_case_study(2000, &cfg);
    stale.extend(check("fig1.txt", &render_fig1(&cs)));

    // Figure 5 mirrors the binary: the x = bar(x) kernel with SVP off/on.
    let prog = svp_loop(3000);
    let on_cfg = cfg.clone();
    let mut off_cfg = cfg.clone();
    off_cfg.compile.enable_svp = false;
    let (off, _) = sweep.evaluate("svp-off", &prog, &off_cfg);
    let (on, _) = sweep.evaluate("svp-on", &prog, &on_cfg);
    stale.extend(check("fig5.txt", &render_fig5(&off, &on)));

    let (series, _) = sweep.fig6(Scale::Test, 500_000_000);
    stale.extend(check("fig6.txt", &render_fig6(&series)));

    let (rows, _) = sweep.fig7(Scale::Test, &cfg);
    stale.extend(check("fig7.txt", &render_fig7(&rows)));

    // fig8 and fig9 share one suite evaluation through the memo cache.
    let run = sweep.eval_suite(Scale::Test, &cfg);
    stale.extend(check("fig8.txt", &render_fig8(&run.outcomes)));
    stale.extend(check("fig9.txt", &render_fig9(&run.outcomes)));

    let sizes = [16usize, 64, 256, 1024, 4096];
    let (srb, _) = sweep.ablation_srb(&["parsers", "gccs", "mcfs"], &sizes, Scale::Test, &cfg);
    stale.extend(check(
        "ablation_srb.txt",
        &render_ablation_srb(&sizes, &srb),
    ));

    let (pol, _) = sweep.ablation_policies(&["parsers", "gccs", "twolfs"], Scale::Test, &cfg);
    stale.extend(check(
        "ablation_recovery.txt",
        &render_ablation_policies(&pol),
    ));

    let (comp, _) = sweep.ablation_compiler(&["parsers", "vprs", "gzips"], Scale::Test, &cfg);
    stale.extend(check(
        "ablation_compiler.txt",
        &render_ablation_compiler(&comp),
    ));

    // Core-count scaling sweep over the full suite, like the fig_scale
    // binary at --scale test.
    let cores = [2usize, 4, 8];
    let names: Vec<&str> = spt_workloads::suite(Scale::Test)
        .iter()
        .map(|w| w.name)
        .collect();
    let (scale_data, _) = sweep.fig_scale(&names, &cores, Scale::Test, &cfg);
    stale.extend(check(
        "fig_scale.txt",
        &render_fig_scale(&cores, &scale_data),
    ));
    stale.extend(check(
        "work_counts.txt",
        &render_work_counts(&sweep, &cores, &cfg),
    ));

    // Observability goldens: the spt-explain report and the Chrome trace
    // export for one benchmark. Both are pure functions of cycle-stamped
    // events, so they are as deterministic as the text tables above (the
    // trace golden is stored compact to keep the file small).
    let w = benchmark("parsers", Scale::Test);
    let (trun, _) = sweep.trace_program(w.name, &w.program, &cfg);
    stale.extend(check(
        "explain_parsers.txt",
        &render_explain(&trun.outcome, &trun.fold),
    ));
    let mut trace_json = chrome_trace(std::slice::from_ref(&trun.trace)).dump();
    trace_json.push('\n');
    stale.extend(check("trace_parsers.json", &trace_json));

    assert!(
        stale.is_empty(),
        "stale goldens: {stale:?} — refresh with \
         `UPDATE_GOLDENS=1 cargo test -p spt-bench --test goldens`"
    );
}

/// The speculation fabric's work in the `fig_scale` runs above: per suite
/// benchmark and core count, the interpreter steps of the main pipeline,
/// the speculative pipelines and the replay walks, and the scheduler's
/// searches of the ring, then the column totals. Every item is the same
/// memoized SPT run `fig_scale` made. Unlike wall-clock time these counts
/// are exact, so a change to the simulator's work shows here first.
fn render_work_counts(sweep: &Sweep, cores: &[usize], cfg: &RunConfig) -> String {
    let mut out = format!(
        "{:<8} {:>5} {:>10} {:>10} {:>10} {:>10}\n",
        "bench", "cores", "main", "spec", "replay", "scans"
    );
    let mut total = [0u64; 4];
    for w in spt_workloads::suite(Scale::Test) {
        for &n in cores {
            let mut copts = cfg.compile.clone();
            copts.cost.cores = n;
            let machine = MachineConfig {
                cores: n,
                ..cfg.machine.clone()
            };
            let (compiled, _, _) = sweep.compile(&w.program, &copts);
            let annots = spt_annotations(&compiled);
            let (r, _) = sweep.spt_sim(&compiled.program, &machine, &annots, cfg.fuel);
            let row = [
                r.steps - r.spec_steps - r.replay_steps,
                r.spec_steps,
                r.replay_steps,
                r.scans,
            ];
            out.push_str(&format!(
                "{:<8} {n:>5} {:>10} {:>10} {:>10} {:>10}\n",
                w.name, row[0], row[1], row[2], row[3]
            ));
            for (t, v) in total.iter_mut().zip(row) {
                *t += v;
            }
        }
    }
    out.push_str(&format!(
        "{:<8} {:>5} {:>10} {:>10} {:>10} {:>10}\n",
        "total", "", total[0], total[1], total[2], total[3]
    ));
    out
}

/// `m` with its keys in order, so its `Debug` rendering is deterministic.
fn sorted<K: Ord, V>(m: &HashMap<K, V>) -> BTreeMap<&K, &V> {
    m.iter().collect()
}

fn render_program_profile(p: &ProgramProfile) -> String {
    format!(
        "total={} ret={:?} out_of_fuel={}\nloops={:?}\nguards={:?}\nbranches={:?}\n\
         func_calls={:?}\nfunc_instrs={:?}\n",
        p.total_instrs,
        p.ret,
        p.out_of_fuel,
        sorted(&p.loops),
        sorted(&p.guards),
        sorted(&p.branches),
        sorted(&p.func_calls),
        sorted(&p.func_instrs),
    )
}

fn render_dep_profile(d: &DepProfile) -> String {
    let mut out = String::new();
    for (key, l) in sorted(&d.loops) {
        out.push_str(&format!(
            "{key:?} iterations={}\nreg_deps={:?}\nmem_deps={:?}\nvalues={:?}\n",
            l.iterations,
            sorted(&l.reg_deps),
            sorted(&l.mem_deps),
            sorted(&l.values),
        ));
    }
    out
}

fn digest(x: &impl Debug) -> String {
    format!(
        "{:016x}",
        fnv1a(0xcbf2_9ce4_8422_2325, format!("{x:?}").as_bytes())
    )
}

/// Pins the profilers' output: every suite benchmark's whole-program
/// profile and the dependence profile of its compile candidates, rendered
/// with all maps sorted and hashed. A profiler optimization must leave
/// these digests byte-identical.
#[test]
fn profile_digests_match() {
    let opts = RunConfig::default().compile;
    let mut lines = String::new();
    for name in BENCHMARK_NAMES {
        let w = benchmark(name, Scale::Test);
        let profile = profile_program(&w.program, opts.profile_fuel);
        let keys = candidate_keys(&w.program, &opts, &profile);
        let deps = profile_loops(&w.program, &keys, opts.profile_fuel);
        lines.push_str(&format!(
            "{name} candidates={} profile={} deps={}\n",
            keys.len(),
            digest(&render_program_profile(&profile)),
            digest(&render_dep_profile(&deps)),
        ));
    }
    assert!(
        check("profile_digests.txt", &lines).is_none(),
        "stale profile digests — refresh with \
         `UPDATE_GOLDENS=1 cargo test -p spt-bench --test goldens`"
    );
}
