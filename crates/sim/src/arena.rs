//! Per-run simulator state reuse (DESIGN.md §3i).
//!
//! [`SimArena`] owns every heap structure a simulation run needs —
//! architectural [`Memory`], cursor register-file slabs ([`CursorParts`]),
//! [`CacheSim`] level vectors, pipeline cores (scoreboard frame slots +
//! predictor tables), the speculative-thread buffer pool,
//! and a small LRU of [`DecodedProgram`]s — so a sweep worker can run
//! many (program, config, fuel) items without reconstructing any of them.
//! Components are *checked out* at run start (`take_*`) and returned at
//! run end (`put_*`); every checkout either pops a retained component and
//! resets it, or constructs a fresh one.
//!
//! **Bit-identical by construction:** each component's reset is
//! observationally equal to fresh construction (epoch/generation bumps
//! where the structure is stamped — `Ssb`, scoreboard — explicit
//! clear+refill elsewhere; see each component's `reset` doc). A fresh
//! arena's takes all construct fresh state through the same functions, so
//! a run on `SimArena::new()` is the reference a warm arena is checked
//! against (`tests/arena_equiv.rs`).

use crate::pipeline::PipelineCore;
use crate::specset::{AddrList, AddrMembers, RegSet};
use crate::spt::SrbEntry;
use crate::ssb::Ssb;
use spt_interp::{CursorParts, DecodedProgram, Memory};
use spt_mach::{CacheSim, CoreConfig};
use spt_sir::Program;
use spt_trace::Pipe;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Decoded programs retained per arena (the cores ∈ {2,4,8} runs of one
/// benchmark plus a little slack for interleaved baseline items).
const DECODE_CACHE_CAP: usize = 4;

/// Components handed out from a retained allocation (reset, not rebuilt).
static ARENA_REUSE: AtomicU64 = AtomicU64::new(0);
/// Components constructed fresh (empty arena or first run).
static ARENA_FRESH: AtomicU64 = AtomicU64::new(0);
/// Approximate bytes currently retained across all live arenas.
static ARENA_RETAINED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the arena telemetry counters (`spt-serve` `/metrics`,
/// `spt-top`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Component checkouts served from a retained allocation.
    pub reuse: u64,
    /// Component checkouts that constructed fresh state.
    pub fresh: u64,
    /// Approximate bytes retained across all live arenas right now.
    pub retained_bytes: u64,
}

/// Read the process-wide arena telemetry counters.
pub fn arena_stats() -> ArenaStats {
    ArenaStats {
        reuse: ARENA_REUSE.load(Ordering::Relaxed),
        fresh: ARENA_FRESH.load(Ordering::Relaxed),
        retained_bytes: ARENA_RETAINED_BYTES.load(Ordering::Relaxed),
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<SimArena> = RefCell::new(SimArena::new());
}

/// Run `f` with this thread's long-lived arena. Re-entrant calls (an
/// arena-routed run starting another inside `f`) fall back to an isolated
/// temporary arena rather than aliasing the borrowed one.
pub fn with_thread_arena<R>(f: impl FnOnce(&mut SimArena) -> R) -> R {
    THREAD_ARENA.with(|a| match a.try_borrow_mut() {
        Ok(mut arena) => f(&mut arena),
        Err(_) => f(&mut SimArena::new()),
    })
}

/// The heap buffers of one finished speculative thread, detached from the
/// run's decoded-program borrow so they can persist across runs. Contents
/// are dead; the SPT fork path clears every field before reuse.
#[derive(Default)]
pub(crate) struct SpecBufs {
    pub(crate) cursor: CursorParts,
    pub(crate) ssb: Ssb,
    pub(crate) lab: AddrMembers,
    pub(crate) srb: Vec<SrbEntry>,
    pub(crate) live_in_reads: RegSet,
    pub(crate) live_in_vals: Vec<(u32, i64)>,
    pub(crate) spec_written: RegSet,
    pub(crate) post_fork_writes: RegSet,
    pub(crate) violated_addrs: AddrList,
}

impl SpecBufs {
    /// A fork's checkout from the run's thread free list: pop a finished
    /// thread's buffers (a reuse) or construct them (fresh), counted like
    /// every other arena checkout.
    pub(crate) fn checkout(free: &mut Vec<SpecBufs>) -> SpecBufs {
        match free.pop() {
            Some(b) => {
                SimArena::reused();
                b
            }
            None => {
                SimArena::constructed();
                SpecBufs::default()
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        self.cursor.approx_bytes()
            + self.ssb.approx_bytes()
            + self.srb.capacity() * std::mem::size_of::<SrbEntry>()
            + self.live_in_vals.capacity() * std::mem::size_of::<(u32, i64)>()
    }
}

/// Reusable simulator state for one worker thread (see module docs).
#[derive(Default)]
pub struct SimArena {
    /// Decoded-program LRU, most recently used last.
    dec: Vec<(u64, DecodedProgram)>,
    mem: Option<Memory>,
    cache: Option<CacheSim>,
    cores: Vec<PipelineCore>,
    cursor_parts: Vec<CursorParts>,
    spec_bufs: Vec<SpecBufs>,
    /// Retained-bytes figure last published to the global gauge.
    published_bytes: u64,
}

impl SimArena {
    pub fn new() -> Self {
        SimArena::default()
    }

    fn reused() {
        ARENA_REUSE.fetch_add(1, Ordering::Relaxed);
    }

    fn constructed() {
        ARENA_FRESH.fetch_add(1, Ordering::Relaxed);
    }

    /// A decoded program previously [`SimArena::put_decoded`] under
    /// fingerprint `fp`, if still cached.
    pub fn take_decoded(&mut self, fp: u64) -> Option<DecodedProgram> {
        if let Some(i) = self.dec.iter().position(|(k, _)| *k == fp) {
            Self::reused();
            Some(self.dec.remove(i).1)
        } else {
            Self::constructed();
            None
        }
    }

    /// Retain a decoded program under fingerprint `fp`, dropping the least
    /// recently used decode when the small cache is full.
    pub fn put_decoded(&mut self, fp: u64, dec: DecodedProgram) {
        self.dec.retain(|(k, _)| *k != fp);
        if self.dec.len() >= DECODE_CACHE_CAP {
            self.dec.remove(0);
        }
        self.dec.push((fp, dec));
    }

    /// Architectural memory in exactly [`Memory::for_program`]`(prog)`
    /// state.
    pub fn take_mem(&mut self, prog: &Program) -> Memory {
        match self.mem.take() {
            Some(mut m) => {
                Self::reused();
                m.reset_for(prog);
                m
            }
            None => {
                Self::constructed();
                Memory::for_program(prog)
            }
        }
    }

    pub fn put_mem(&mut self, mem: Memory) {
        self.mem = Some(mem);
    }

    /// Cache hierarchy in exactly [`CacheSim::new`]`(cfg)` state.
    pub fn take_cache(&mut self, cfg: &CoreConfig) -> CacheSim {
        match self.cache.take() {
            Some(mut c) => {
                Self::reused();
                c.reset(cfg);
                c
            }
            None => {
                Self::constructed();
                CacheSim::new(cfg)
            }
        }
    }

    pub fn put_cache(&mut self, cache: CacheSim) {
        self.cache = Some(cache);
    }

    /// Pipeline core in exactly [`PipelineCore::new`]`(cfg, pipe)` state.
    pub fn take_core(&mut self, cfg: &CoreConfig, pipe: Pipe) -> PipelineCore {
        match self.cores.pop() {
            Some(mut c) => {
                Self::reused();
                c.reset(cfg, pipe);
                c
            }
            None => {
                Self::constructed();
                PipelineCore::new(cfg, pipe)
            }
        }
    }

    pub fn put_core(&mut self, core: PipelineCore) {
        self.cores.push(core);
    }

    /// Cursor heap buffers (empty from the caller's perspective; the
    /// cursor constructors clear before refilling).
    pub fn take_cursor_parts(&mut self) -> CursorParts {
        match self.cursor_parts.pop() {
            Some(p) => {
                Self::reused();
                p
            }
            None => {
                Self::constructed();
                CursorParts::default()
            }
        }
    }

    pub fn put_cursor_parts(&mut self, parts: CursorParts) {
        self.cursor_parts.push(parts);
    }

    /// The retained speculative-thread buffer sets: the SPT run's free
    /// list, handed back with [`SimArena::put_spec_bufs_pool`]. Handing
    /// the list over counts nothing; each fork's
    /// [`SpecBufs::checkout`] from it counts one reuse or one fresh
    /// construction.
    pub(crate) fn take_spec_bufs_pool(&mut self) -> Vec<SpecBufs> {
        std::mem::take(&mut self.spec_bufs)
    }

    pub(crate) fn put_spec_bufs_pool(&mut self, bufs: Vec<SpecBufs>) {
        self.spec_bufs = bufs;
    }

    fn approx_retained_bytes(&self) -> u64 {
        let mut b = 0usize;
        for (_, d) in &self.dec {
            b += d.approx_bytes();
        }
        if let Some(m) = &self.mem {
            b += m.approx_bytes();
        }
        if let Some(c) = &self.cache {
            b += c.approx_bytes();
        }
        for c in &self.cores {
            b += c.approx_bytes();
        }
        for p in &self.cursor_parts {
            b += p.approx_bytes();
        }
        for s in &self.spec_bufs {
            b += s.approx_bytes();
        }
        b as u64
    }

    /// Re-publish this arena's retained-bytes estimate to the global gauge
    /// (called at run end, after put-backs).
    pub fn publish_retained(&mut self) {
        let now = self.approx_retained_bytes();
        let delta = now.wrapping_sub(self.published_bytes);
        ARENA_RETAINED_BYTES.fetch_add(delta, Ordering::Relaxed);
        self.published_bytes = now;
    }
}

impl Drop for SimArena {
    fn drop(&mut self) {
        // Keep the global gauge honest when a worker thread (and its
        // thread-local arena) exits.
        ARENA_RETAINED_BYTES.fetch_sub(self.published_bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::ProgramBuilder;

    fn tiny_prog(mem_words: usize) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.datum(1, 41);
        let mut f = pb.func("m", 0);
        f.ret(None);
        let id = f.finish();
        pb.finish(id, mem_words)
    }

    #[test]
    fn take_mem_matches_fresh_construction() {
        let p8 = tiny_prog(8);
        let p4 = tiny_prog(4);
        let mut a = SimArena::new();
        let m = a.take_mem(&p8);
        assert_eq!(m, Memory::for_program(&p8));
        a.put_mem(m);
        // Shrinking program: retained memory must not leak old size or data.
        let m = a.take_mem(&p4);
        assert_eq!(m, Memory::for_program(&p4));
    }

    #[test]
    fn decode_cache_lru_evicts_oldest() {
        let p = tiny_prog(2);
        let mut a = SimArena::new();
        for fp in 0..=DECODE_CACHE_CAP as u64 {
            a.put_decoded(fp, DecodedProgram::new(&p));
        }
        assert!(a.take_decoded(0).is_none(), "oldest entry evicted");
        assert!(a.take_decoded(1).is_some());
    }

    #[test]
    fn retained_bytes_accounting_is_symmetric() {
        // The global gauge is shared with concurrently-running tests, so
        // assert on this arena's own published figure: publish records the
        // estimate it added, and Drop withdraws exactly that amount.
        let mut a = SimArena::new();
        a.put_mem(Memory::for_program(&tiny_prog(1024)));
        a.publish_retained();
        assert!(a.published_bytes >= 1024 * 8);
        a.put_cache(CacheSim::new(&CoreConfig::default()));
        a.publish_retained();
        assert!(a.published_bytes > 1024 * 8);
    }
}
