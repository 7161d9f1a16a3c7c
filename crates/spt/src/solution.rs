//! The end-to-end SPT evaluation pipeline.

use spt_compiler::{compile, CompileOptions, CompileResult};
use spt_mach::MachineConfig;
use spt_profile::LoopKey;
use spt_sim::{simulate_baseline, BaselineReport, LoopAnnot, LoopAnnotations, SptReport, SptSim};
use spt_sir::{analyze_loops, Program};
use spt_workloads::Workload;

/// Configuration of one evaluation run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub machine: MachineConfig,
    pub compile: CompileOptions,
    /// Interpreter-step budget for each simulation.
    pub fuel: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            machine: MachineConfig::default(),
            compile: CompileOptions::default(),
            fuel: 200_000_000,
        }
    }
}

/// Everything measured for one program.
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    pub name: String,
    /// The sequential program on one core (the paper's reference). Its
    /// `loop_cycles` are the cycles attributed to each selected loop's
    /// *original* form, aligned with `compiled.loops` order.
    pub baseline: BaselineReport,
    /// The SPT-compiled program on the two-core SPT machine.
    pub spt: SptReport,
    /// Compiler output (selected loops, rejections, profile).
    pub compiled: CompileResult,
}

impl EvalOutcome {
    /// Whole-program speedup (baseline time / SPT time).
    pub fn speedup(&self) -> f64 {
        if self.spt.cycles == 0 {
            return 1.0;
        }
        self.baseline.cycles as f64 / self.spt.cycles as f64
    }

    /// Per-selected-loop speedups (baseline loop cycles / SPT loop cycles).
    pub fn loop_speedups(&self) -> Vec<f64> {
        self.baseline
            .loop_cycles
            .iter()
            .zip(&self.spt.per_loop)
            .map(|(&b, s)| {
                if s.cycles == 0 {
                    1.0
                } else {
                    b as f64 / s.cycles as f64
                }
            })
            .collect()
    }

    /// Did the SPT run produce the sequential answer?
    pub fn semantics_ok(&self) -> bool {
        self.baseline.ret == self.spt.ret
    }

    /// Figure 9 breakdown: the speedup decomposed into reductions of
    /// execution, pipeline-stall and D-cache-stall cycles, each as a
    /// fraction of baseline time (positive = improvement).
    pub fn breakdown_contributions(&self) -> (f64, f64, f64) {
        let bt = self.baseline.cycles.max(1) as f64;
        let b = self.baseline.breakdown;
        let s = self.spt.breakdown;
        (
            (b.busy as f64 - s.busy as f64) / bt,
            (b.pipe_stall as f64 - s.pipe_stall as f64) / bt,
            (b.dcache_stall as f64 - s.dcache_stall as f64) / bt,
        )
    }
}

/// Annotations for the *transformed* program (SPT run).
pub fn spt_annotations(compiled: &CompileResult) -> LoopAnnotations {
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

/// Annotations locating the same loops in the *original* program (baseline
/// run), aligned with `compiled.loops`.
pub fn original_annotations(prog: &Program, compiled: &CompileResult) -> LoopAnnotations {
    let mut loops = Vec::new();
    for (i, info) in compiled.loops.iter().enumerate() {
        let f = prog.func(info.func);
        let (_, _, forest) = analyze_loops(f);
        let key: LoopKey = info.key;
        let blocks = forest
            .loops
            .iter()
            .find(|l| l.id == key.loop_id)
            .map(|l| l.blocks.clone())
            .unwrap_or_default();
        loops.push(LoopAnnot {
            id: i,
            func: info.func,
            blocks,
            fork_start: None,
        });
    }
    LoopAnnotations { loops }
}

/// Compile and evaluate one program end to end.
///
/// This is the reference implementation of the pipeline; the sweep
/// engine's memoized [`crate::sweep::Sweep::evaluate`] produces identical
/// outcomes phase by phase (a property the sweep tests assert).
pub fn evaluate_program(name: &str, prog: &Program, cfg: &RunConfig) -> EvalOutcome {
    let compiled = compile(prog, &cfg.compile);

    let base_annots = original_annotations(prog, &compiled);
    let baseline = simulate_baseline(prog, &cfg.machine.core, &base_annots, cfg.fuel);

    let annots = spt_annotations(&compiled);
    let sim = SptSim::new(&compiled.program, cfg.machine.clone(), annots);
    let spt = sim.run(cfg.fuel);

    EvalOutcome {
        name: name.to_string(),
        baseline,
        spt,
        compiled,
    }
}

/// Evaluate one suite workload.
pub fn evaluate_workload(w: &Workload, cfg: &RunConfig) -> EvalOutcome {
    evaluate_program(w.name, &w.program, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_workloads::kernels::{array_map, parser_free_loop};

    fn cfg() -> RunConfig {
        let mut c = RunConfig::default();
        c.fuel = 20_000_000;
        c
    }

    #[test]
    fn array_map_speeds_up_and_preserves_semantics() {
        let prog = array_map(300, 16);
        let out = evaluate_program("array_map", &prog, &cfg());
        assert!(
            out.semantics_ok(),
            "{:?} vs {:?}",
            out.baseline.ret,
            out.spt.ret
        );
        assert!(!out.spt.out_of_fuel);
        assert_eq!(out.compiled.loops.len(), 1);
        assert!(
            out.speedup() > 1.15,
            "speedup {} (fast commits {} / forks {})",
            out.speedup(),
            out.spt.fast_commits,
            out.spt.forks
        );
    }

    #[test]
    fn parser_case_study_matches_paper_shape() {
        // Figure 1: the list-free loop speeds up substantially; most
        // speculative work is correct.
        let prog = parser_free_loop(500);
        let out = evaluate_program("parser_free", &prog, &cfg());
        assert!(out.semantics_ok());
        assert!(out.spt.forks > 100);
        let speedups = out.loop_speedups();
        if !speedups.is_empty() {
            assert!(
                speedups[0] > 1.2,
                "parser loop speedup {} should be >20%",
                speedups[0]
            );
        }
        // Misspeculated fraction of speculative instructions is small.
        assert!(
            out.spt.misspeculation_ratio() < 0.30,
            "misspec ratio {}",
            out.spt.misspeculation_ratio()
        );
    }

    #[test]
    fn breakdown_contributions_sum_to_speedup_fraction() {
        let prog = array_map(300, 16);
        let out = evaluate_program("array_map", &prog, &cfg());
        let (e, p, d) = out.breakdown_contributions();
        let total_frac = 1.0 - out.spt.cycles as f64 / out.baseline.cycles as f64;
        let sum = e + p + d;
        assert!(
            (sum - total_frac).abs() < 0.08,
            "sum {sum} vs frac {total_frac}"
        );
    }

    #[test]
    fn loop_speedups_align_with_selection() {
        let prog = array_map(200, 12);
        let out = evaluate_program("array_map", &prog, &cfg());
        assert_eq!(out.loop_speedups().len(), out.compiled.loops.len());
        assert_eq!(out.baseline.loop_cycles.len(), out.compiled.loops.len());
    }
}
