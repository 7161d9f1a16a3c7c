//! Cross-crate integration below the facade level: hand-wired pipelines
//! exercising specific interactions (compiler output → simulator input,
//! policy ablations, annotation alignment).

use spt::RunConfig;
use spt_compiler::{compile, CompileOptions};
use spt_mach::{MachineConfig, RecoveryKind, RegCheckPolicy};
use spt_sim::{simulate_baseline, LoopAnnot, LoopAnnotations, SptSim};
use spt_workloads::kernels::array_map;
use spt_workloads::{benchmark, Scale};

const FUEL: u64 = 60_000_000;

fn annots(compiled: &spt_compiler::CompileResult) -> LoopAnnotations {
    LoopAnnotations {
        loops: compiled
            .loops
            .iter()
            .enumerate()
            .map(|(i, l)| LoopAnnot {
                id: i,
                func: l.func,
                blocks: vec![l.body_block],
                fork_start: Some(l.body_block),
            })
            .collect(),
    }
}

#[test]
fn recovery_policies_all_preserve_semantics() {
    let w = benchmark("gccs", Scale::Test);
    let compiled = compile(&w.program, &CompileOptions::default());
    let an = annots(&compiled);
    let base = simulate_baseline(
        &w.program,
        &MachineConfig::default().core,
        &LoopAnnotations::empty(),
        FUEL,
    );
    for rec in [
        RecoveryKind::SrxFc,
        RecoveryKind::SrxOnly,
        RecoveryKind::Squash,
    ] {
        let mut m = MachineConfig::default();
        m.recovery = rec;
        let rep = SptSim::new(&compiled.program, m, an.clone()).run(FUEL);
        assert_eq!(rep.ret, base.ret, "{rec:?} diverged");
        assert!(!rep.out_of_fuel);
    }
}

#[test]
fn selective_reexecution_beats_squash_on_the_suite_shape() {
    // The paper's key architectural claim: keeping correct speculative
    // results (SRX+FC) outperforms trashing them (squash).
    let w = benchmark("gccs", Scale::Test);
    let compiled = compile(&w.program, &CompileOptions::default());
    let an = annots(&compiled);
    let srx = SptSim::new(&compiled.program, MachineConfig::default(), an.clone()).run(FUEL);
    let mut m = MachineConfig::default();
    m.recovery = RecoveryKind::Squash;
    let squash = SptSim::new(&compiled.program, m, an).run(FUEL);
    assert!(
        srx.cycles <= squash.cycles,
        "SRX {} must not lose to squash {}",
        srx.cycles,
        squash.cycles
    );
}

#[test]
fn value_based_checking_fast_commits_at_least_as_often_as_mark_based() {
    let w = benchmark("twolfs", Scale::Test);
    let compiled = compile(&w.program, &CompileOptions::default());
    let an = annots(&compiled);
    let val = SptSim::new(&compiled.program, MachineConfig::default(), an.clone()).run(FUEL);
    let mut m = MachineConfig::default();
    m.reg_check = RegCheckPolicy::MarkBased;
    let mark = SptSim::new(&compiled.program, m, an).run(FUEL);
    assert_eq!(val.ret, mark.ret);
    assert!(
        val.fast_commits >= mark.fast_commits,
        "value {} vs mark {}",
        val.fast_commits,
        mark.fast_commits
    );
}

#[test]
fn per_loop_stats_align_across_baseline_and_spt() {
    let prog = array_map(400, 12);
    let out = spt::evaluate_program("align", &prog, &RunConfig::default());
    assert_eq!(
        out.baseline.loop_cycles.len(),
        out.spt.per_loop.len(),
        "annotation alignment"
    );
    for (i, pl) in out.spt.per_loop.iter().enumerate() {
        assert_eq!(pl.id, i);
        if pl.forks > 0 {
            assert!(pl.cycles > 0, "loop {i} has forks but no cycles");
        }
    }
}

#[test]
fn srb_sweep_monotone_enough() {
    // Bigger SRBs cannot make things dramatically worse.
    let w = benchmark("parsers", Scale::Test);
    let compiled = compile(&w.program, &CompileOptions::default());
    let an = annots(&compiled);
    let mut cycles = Vec::new();
    for srb in [16usize, 256, 1024] {
        let mut m = MachineConfig::default();
        m.srb_entries = srb;
        let rep = SptSim::new(&compiled.program, m, an.clone()).run(FUEL);
        cycles.push((srb, rep.cycles));
    }
    let c16 = cycles[0].1 as f64;
    let c1024 = cycles[2].1 as f64;
    assert!(
        c1024 <= c16 * 1.05,
        "default SRB {} vs tiny SRB {} cycles",
        c1024,
        c16
    );
}

#[test]
fn unrolling_benefits_tiny_bodies() {
    // gz_crc-style loop: 8-instr body. With unrolling the fork overhead is
    // amortized over 4 iterations.
    use spt_workloads::{emit_loop_func, DepPattern, LoopSpec, MemPattern};
    let mut pb = spt_sir::ProgramBuilder::new();
    let mut spec = LoopSpec::basic("tiny");
    spec.body_alu = 2;
    spec.body_loads = 1;
    spec.body_stores = 0;
    spec.dep = DepPattern::ReductionCheap;
    spec.mem = MemPattern::Array;
    let lf = emit_loop_func(&mut pb, &spec, 64, 512);
    let mut m = pb.func("main", 0);
    let t = m.const_reg(2000);
    let z = m.const_reg(0);
    let r = m.reg();
    m.call(lf, &[t, z], Some(r));
    m.ret(Some(r));
    let main = m.finish();
    let prog = pb.finish(main, 1024);

    let mut on = RunConfig::default();
    on.fuel = FUEL;
    let mut off = on.clone();
    off.compile.enable_unroll = false;
    let out_on = spt::evaluate_program("unroll-on", &prog, &on);
    let out_off = spt::evaluate_program("unroll-off", &prog, &off);
    assert!(out_on.semantics_ok() && out_off.semantics_ok());
    if let Some(l) = out_on.compiled.loops.first() {
        assert!(l.unroll > 1, "tiny body should unroll");
    }
    // Unrolling should not lose; usually it wins.
    assert!(
        out_on.speedup() > out_off.speedup() * 0.95,
        "unroll {} vs none {}",
        out_on.speedup(),
        out_off.speedup()
    );
}
