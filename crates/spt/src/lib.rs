//! # SPT — Speculative Parallel Threading
//!
//! End-to-end reproduction of *"Speculative Parallel Threading Architecture
//! and Compilation"* (Li, Du, Yang, Lim, Ngai — ICPP Workshops 2005):
//! a two-core speculative-multithreading architecture with selective
//! re-execution recovery, and the cost-driven compiler that automatically
//! transforms sequential loops into speculative parallel (SPT) loops.
//!
//! ## Quickstart
//!
//! ```
//! use spt::{evaluate_program, RunConfig};
//! use spt_workloads::kernels::array_map;
//!
//! let program = array_map(64, 12);
//! let outcome = evaluate_program("demo", &program, &RunConfig::default());
//! assert_eq!(outcome.baseline.ret, outcome.spt.ret); // same semantics
//! assert!(outcome.speedup() > 1.0); // parallel loop benefits
//! ```
//!
//! The pipeline is: profile the sequential program → cost-driven loop
//! selection and transformation ([`spt_compiler::compile`]) → simulate the
//! original program on the baseline core and the transformed program on the
//! 2-core SPT machine ([`spt_sim`]) → compare.
//!
//! The `spt-bench` crate regenerates every table and figure of the paper's
//! evaluation section on the synthetic SPECint2000 suite
//! ([`spt_workloads::suite()`]).

pub mod experiments;
pub mod json;
pub mod memo;
pub mod report;
pub mod service;
pub mod solution;
pub mod store;
pub mod sweep;
pub mod trace;

pub use json::{Json, ToJson};
pub use memo::{MemoTable, MEMO_CAP};
pub use service::{run_experiment, ExperimentOutput, ExperimentRequest, EXPERIMENT_NAMES};
pub use solution::{
    evaluate_program, evaluate_workload, original_annotations, spt_annotations, EvalOutcome,
    RunConfig,
};
pub use store::{DiskStore, StoreStats, STORE_SCHEMA};
pub use sweep::{
    BenchRecord, MemoStats, PhaseObserver, PhaseStamp, PhaseTimings, RunReport, Sweep,
};
pub use trace::{
    chrome_trace, validate_chrome_trace, validate_trace_jsonl, ProgramTrace, TraceRun,
};

// The typed event layer itself.
pub use spt_trace as tracing;

// Re-export the component crates under one roof.
pub use spt_compiler::{self as compiler, CompileOptions};
pub use spt_interp as interp;
pub use spt_mach::{self as mach, MachineConfig, RecoveryKind, RegCheckPolicy};
pub use spt_profile as profile;
pub use spt_sim::{self as sim, BaselineReport, SptReport};
pub use spt_sir as sir;
pub use spt_workloads as workloads;
