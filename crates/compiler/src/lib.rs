//! # SPT compiler
//!
//! The cost-driven speculative parallelization framework of §4:
//!
//! 1. **Pass 1** ([`driver::compile`] internally): simple selection criteria
//!    (loop body size, trip count, coverage) pick loop candidates; each
//!    candidate is *linearized* — if-converted into a straight-line list of
//!    guarded statements ([`body`]) — optionally unrolled ([`unroll`]), its
//!    data-dependence graph built and annotated with profiled probabilities
//!    ([`ddg`]), and the optimal loop partition found by a bounded search
//!    over violation-candidate subsets ([`partition`]) using the
//!    misspeculation cost model ([`cost`], Equation 1 of the paper).
//! 2. **Pass 2**: all candidate partitions are evaluated together, good SPT
//!    loops selected, and the chosen loops transformed — code reordering
//!    with temporaries to break live ranges, `spt_fork` insertion at the
//!    partition boundary, `spt_kill` on loop exits, and software value
//!    prediction for critical unmovable dependences ([`transform`], §4.3–4.4).

pub mod body;
pub mod cost;
pub mod ddg;
pub mod driver;
pub mod partition;
pub mod region;
pub mod transform;
pub mod unroll;

pub use body::{linearize, LinearBody, LinearizeError};
pub use cost::{estimate_speedup, misspeculation_cost, stmt_cost, CostParams};
pub use ddg::{CrossDep, Ddg, IntraDep};
pub use driver::{
    candidate_keys, compile, compile_with_deps, CompileOptions, CompileResult, RejectReason,
    SptLoopInfo,
};
pub use partition::{search_partition, Partition};
pub use region::{apply_region_split, find_region_split, speculate_region, RegionSplit};
pub use transform::transform_loop;
pub use unroll::unroll_linear;
