//! # SPT simulators
//!
//! Two execution-driven timing simulators over SIR programs:
//!
//! * [`baseline::simulate_baseline`] — one Itanium2-like in-order core
//!   running the sequential program; the paper's baseline reference.
//! * [`spt::SptSim`] — the SPT speculation fabric: an N-core ring of
//!   in-order pipelines (§3 of the paper describes N=2) where core 0 runs
//!   the architectural thread and cores 1..N-1 run successive speculative
//!   loop iterations, with `spt_fork` / `spt_kill`, per-core speculation
//!   result buffers, speculative store buffers, load address buffers,
//!   register and memory dependence checkers, and the recovery mechanism
//!   `MachineConfig::recovery` selects ([`spt_mach::RecoveryKind`]:
//!   selective re-execution with fast commit by default).
//!
//! Both simulators share the per-pipeline [`pipeline::PipelineCore`]
//! (timing engine + stall-transition trace state) and report the cycle
//! breakdown used by Figure 9 (execution, pipeline stall, D-cache stall)
//! plus the speculation statistics of Figure 8 (fast-commit ratio,
//! misspeculation ratio), per-loop attributions, and per-core fabric
//! statistics.

pub mod arena;
pub mod baseline;
pub mod engine;
pub mod metrics;
pub mod pipeline;
pub mod specset;
pub mod spt;
pub mod ssb;

pub use arena::{arena_stats, with_thread_arena, ArenaStats, SimArena};
pub use baseline::{simulate_baseline, simulate_baseline_in, BaselineReport};
pub use engine::{CycleBreakdown, Engine, StallBreakdown, StallKind};
pub use metrics::{LoopAnnot, LoopAnnotations, LoopCycleTracker, PerCoreStats, PerLoopStats};
pub use pipeline::PipelineCore;
pub use specset::{AddrList, AddrMembers, DepthRegSet, RegSet};
pub use spt::{SptReport, SptSim};
pub use ssb::{SpecMem, Ssb};
