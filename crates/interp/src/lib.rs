//! # SPT interpreter
//!
//! Sequential, *steppable* execution of SIR programs.
//!
//! The central type is [`Cursor`]: an explicit-call-stack interpreter that
//! executes one statement per [`Cursor::step`] call and reports what happened
//! as an [`Event`]. Both SPT simulators are built on cursors:
//!
//! * the baseline single-core simulator drives one cursor and feeds the
//!   events to its timing model;
//! * the SPT dual-pipeline simulator drives the *main* cursor over real
//!   memory, and on `spt_fork` clones it ([`Cursor::fork_speculative`]) to
//!   drive the *speculative* pipeline over a store-buffer overlay
//!   (any [`MemView`] implementation), exactly as the speculative processor
//!   of the paper executes real code against its speculative store buffer.
//!
//! Memory is a word-addressed linear array of `i64`; all addressing wraps
//! modulo the memory size so SIR execution is total (no traps), which keeps
//! speculative wrong-path execution well defined.

pub mod cursor;
pub mod decode;
pub mod event;
pub mod mem;
pub mod run;

pub use cursor::{Cursor, CursorParts, Frame};
pub use decode::{DecOp, DecodedFunc, DecodedInst, DecodedProgram, OpRange};
pub use event::{Branch, EvKind, Event, MemRef, SrcSet};
pub use mem::{MemView, Memory};
pub use run::{run, run_with, RunResult};
