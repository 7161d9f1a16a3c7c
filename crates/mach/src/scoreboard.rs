//! Register scoreboard for in-order issue timing.
//!
//! Tracks, per (call-stack depth, register), the cycle at which the value
//! becomes available and what kind of instruction produced it — the latter
//! is what lets the simulators attribute operand-wait stalls to D-cache
//! misses vs. pipeline latency (the Figure 9 breakdown).
//!
//! The scoreboard sits on the per-issue hot path of both simulators, so a
//! frame is a generation-stamped flat array indexed by register number
//! rather than a hash map: `ready_at`/`set_ready` are one indexed load or
//! store, and clearing a frame (`enter_frame`, `reset_all`,
//! `truncate_below`) is a generation bump — O(1), no rehash. A slot is
//! live only when its stamp equals the frame's current generation; stamp 0
//! is never a valid generation, and when the 32-bit counter would wrap the
//! slot array is hard-reset so a stamp from 2^32 clears ago cannot alias a
//! fresh one.

/// What produced a register value (for stall attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProducerKind {
    /// Produced by a load — waiting on it is a D-cache stall.
    Load,
    /// Produced by any other instruction — waiting is a pipeline stall.
    Other,
}

/// One call-depth's register readiness: stamped slots plus the
/// frame-entry baseline.
#[derive(Debug)]
struct FrameSlots {
    /// slots[reg] = (stamp, ready_cycle, producer); live iff stamp == gen.
    slots: Vec<(u32, u64, ProducerKind)>,
    gen: u32,
    /// Frame-entry baseline (call-argument copy time), live iff
    /// `baseline_gen == gen`.
    baseline: u64,
    baseline_gen: u32,
}

impl FrameSlots {
    fn new() -> Self {
        FrameSlots {
            slots: Vec::new(),
            gen: 1,
            baseline: 0,
            baseline_gen: 0,
        }
    }

    #[inline]
    fn get(&self, reg: u32) -> Option<(u64, ProducerKind)> {
        match self.slots.get(reg as usize) {
            Some(&(stamp, t, k)) if stamp == self.gen => Some((t, k)),
            _ => None,
        }
    }

    #[inline]
    fn set(&mut self, reg: u32, cycle: u64, kind: ProducerKind) {
        let r = reg as usize;
        if r >= self.slots.len() {
            self.slots.resize(r + 1, (0, 0, ProducerKind::Other));
        }
        self.slots[r] = (self.gen, cycle, kind);
    }

    /// Drop all register entries and the baseline: one generation bump.
    /// On 32-bit wrap the slot array is hard-reset so ancient stamps can
    /// never read as live again.
    fn clear(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.slots
                .iter_mut()
                .for_each(|s| *s = (0, 0, ProducerKind::Other));
            self.baseline_gen = 0;
            self.gen = 1;
        }
    }
}

/// Per-frame-depth register readiness.
///
/// Registers with no entry are ready at the *floor*: the time of the most
/// recent whole-context copy (fork-time RF copy, commit-time copy-back), or
/// 0 initially.
#[derive(Default)]
pub struct Scoreboard {
    frames: Vec<FrameSlots>,
    floor: u64,
}

impl Scoreboard {
    pub fn new() -> Self {
        Self::default()
    }

    fn frame_mut(&mut self, depth: u32) -> &mut FrameSlots {
        let d = depth as usize;
        if self.frames.len() <= d {
            self.frames.resize_with(d + 1, FrameSlots::new);
        }
        &mut self.frames[d]
    }

    /// When is `reg` at `depth` ready, and who produced it? Accounts for the
    /// context-copy floor.
    #[inline]
    pub fn ready_at(&self, depth: u32, reg: u32) -> (u64, ProducerKind) {
        let (t, k) = self
            .frames
            .get(depth as usize)
            .and_then(|f| f.get(reg))
            .unwrap_or((0, ProducerKind::Other));
        if t >= self.floor {
            (t, k)
        } else {
            (self.floor, ProducerKind::Other)
        }
    }

    /// Record that `reg` at `depth` becomes ready at `cycle`.
    #[inline]
    pub fn set_ready(&mut self, depth: u32, reg: u32, cycle: u64, kind: ProducerKind) {
        self.frame_mut(depth).set(reg, cycle, kind);
    }

    /// Operand-wait fold over `regs` at `depth`: the latest readiness and
    /// the kind of the producer that set it, starting from the frame-entry
    /// baseline. Exactly equivalent to folding [`Scoreboard::ready_at`]
    /// over the registers (including its tie rule: an equal-time `Load`
    /// producer wins the attribution), but the frame is located once
    /// instead of per register — this runs once per issued event on the
    /// simulator hot path.
    #[inline]
    pub fn operands_ready(
        &self,
        depth: u32,
        regs: impl IntoIterator<Item = u32>,
    ) -> (u64, ProducerKind) {
        let frame = self.frames.get(depth as usize);
        let mut ready = frame
            .filter(|f| f.baseline_gen == f.gen)
            .map(|f| f.baseline)
            .unwrap_or(self.floor);
        let mut cause = ProducerKind::Other;
        for r in regs {
            let (t, k) = match frame.and_then(|f| f.get(r)) {
                Some((t, k)) if t >= self.floor => (t, k),
                _ => (self.floor, ProducerKind::Other),
            };
            if t > ready {
                ready = t;
                cause = k;
            } else if t == ready && k == ProducerKind::Load {
                cause = ProducerKind::Load;
            }
        }
        (ready, cause)
    }

    /// [`Scoreboard::operands_ready`] without the producer attribution:
    /// just the latest readiness cycle. For gate computations that never
    /// consume the stall cause.
    #[inline]
    pub fn operands_ready_time(&self, depth: u32, regs: impl IntoIterator<Item = u32>) -> u64 {
        let frame = self.frames.get(depth as usize);
        let mut ready = frame
            .filter(|f| f.baseline_gen == f.gen)
            .map(|f| f.baseline)
            .unwrap_or(0)
            .max(self.floor);
        for r in regs {
            if let Some((t, _)) = frame.and_then(|f| f.get(r)) {
                if t > ready {
                    ready = t;
                }
            }
        }
        ready
    }

    /// A new frame is entered at `depth`: its registers are fresh, written
    /// together by the call's argument copy at `cycle`.
    pub fn enter_frame(&mut self, depth: u32, cycle: u64) {
        let floor = self.floor;
        let f = self.frame_mut(depth);
        f.clear();
        // The frame's registers are available once the call issues; encode
        // that by leaving the slots empty (fall back to floor) unless the
        // call time is later than the floor — then record the baseline.
        if cycle > floor {
            f.baseline = cycle;
            f.baseline_gen = f.gen;
        }
    }

    /// Everything becomes ready at `cycle` (whole-context copy).
    pub fn reset_all(&mut self, cycle: u64) {
        for f in &mut self.frames {
            f.clear();
        }
        self.floor = cycle;
    }

    /// Drop state for frames deeper than `depth` (after returns). The frame
    /// storage itself is kept for reuse; only the generations advance.
    pub fn truncate_below(&mut self, depth: u32) {
        let keep = depth as usize + 1;
        for f in self.frames.iter_mut().skip(keep) {
            f.clear();
        }
    }

    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Current generation of `depth`'s frame (exposed for the wrap test).
    #[doc(hidden)]
    pub fn generation(&self, depth: u32) -> Option<u32> {
        self.frames.get(depth as usize).map(|f| f.gen)
    }

    /// Jump `depth`'s generation counter — test hook for the 2^32-clear
    /// wrap (parity with `Ssb::force_epoch` / `AddrMembers::force_epoch`).
    #[doc(hidden)]
    pub fn force_generation(&mut self, depth: u32, gen: u32) {
        self.frame_mut(depth).gen = gen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ready_at_zero() {
        let sb = Scoreboard::new();
        assert_eq!(sb.ready_at(0, 5), (0, ProducerKind::Other));
    }

    #[test]
    fn set_and_query() {
        let mut sb = Scoreboard::new();
        sb.set_ready(0, 3, 17, ProducerKind::Load);
        assert_eq!(sb.ready_at(0, 3), (17, ProducerKind::Load));
        assert_eq!(sb.ready_at(1, 3), (0, ProducerKind::Other));
    }

    #[test]
    fn enter_frame_clears_depth_and_sets_baseline() {
        let mut sb = Scoreboard::new();
        sb.set_ready(1, 0, 9, ProducerKind::Load);
        sb.enter_frame(1, 12);
        // Old per-register info gone; baseline is the call time.
        assert_eq!(sb.ready_at(1, 0), (0, ProducerKind::Other));
        assert_eq!(sb.operands_ready_time(1, []), 12);
    }

    #[test]
    fn reset_all_floors_everything() {
        let mut sb = Scoreboard::new();
        sb.set_ready(0, 1, 5, ProducerKind::Load);
        sb.reset_all(100);
        assert_eq!(sb.ready_at(0, 1), (100, ProducerKind::Other));
        assert_eq!(sb.ready_at(0, 2), (100, ProducerKind::Other));
        assert_eq!(sb.floor(), 100);
    }

    #[test]
    fn ready_after_floor_respects_later_writes() {
        let mut sb = Scoreboard::new();
        sb.reset_all(50);
        sb.set_ready(0, 1, 80, ProducerKind::Load);
        assert_eq!(sb.ready_at(0, 1), (80, ProducerKind::Load));
    }

    #[test]
    fn truncate_below_drops_deep_frames() {
        let mut sb = Scoreboard::new();
        sb.set_ready(3, 0, 9, ProducerKind::Other);
        sb.truncate_below(1);
        assert_eq!(sb.ready_at(3, 0), (0, ProducerKind::Other));
    }

    #[test]
    fn enter_frame_at_floor_keeps_floor_baseline() {
        let mut sb = Scoreboard::new();
        sb.reset_all(40);
        sb.enter_frame(2, 40); // not later than the floor: no baseline entry
        assert_eq!(sb.operands_ready_time(2, []), 40);
        sb.reset_all(60); // floor moves; stale baseline must not resurface
        assert_eq!(sb.operands_ready_time(2, []), 60);
    }

    #[test]
    fn generation_wrap_hard_resets_slots() {
        let mut sb = Scoreboard::new();
        // Stamped with generation 1 — the value a wrapped counter lands
        // back on, so without the hard reset this entry would alias.
        sb.set_ready(0, 3, 17, ProducerKind::Load);
        assert_eq!(sb.generation(0), Some(1));
        sb.force_generation(0, u32::MAX);
        sb.enter_frame(0, 0); // clear wraps the counter
        assert_eq!(sb.generation(0), Some(1));
        assert_eq!(
            sb.ready_at(0, 3),
            (0, ProducerKind::Other),
            "ancient stamp must not alias a new generation"
        );
        sb.set_ready(0, 3, 9, ProducerKind::Other);
        assert_eq!(sb.ready_at(0, 3), (9, ProducerKind::Other));
    }

    #[test]
    fn generation_wrap_drops_the_entry_baseline() {
        let mut sb = Scoreboard::new();
        sb.enter_frame(2, 30); // baseline stamped with the current gen
        assert_eq!(sb.operands_ready_time(2, []), 30);
        sb.force_generation(2, u32::MAX);
        sb.truncate_below(1); // clears depth 2, wrapping its counter
        assert_eq!(sb.generation(2), Some(1));
        assert_eq!(
            sb.operands_ready_time(2, []),
            0,
            "stale baseline must not resurface after the wrap"
        );
    }

    #[test]
    fn stale_entries_do_not_survive_clears() {
        let mut sb = Scoreboard::new();
        sb.set_ready(0, 1, 5, ProducerKind::Load);
        sb.enter_frame(0, 7);
        sb.enter_frame(0, 0); // clears again, baseline not re-armed
        assert_eq!(sb.ready_at(0, 1), (0, ProducerKind::Other));
        assert_eq!(sb.operands_ready_time(0, []), 0);
        sb.set_ready(0, 1, 9, ProducerKind::Other);
        assert_eq!(sb.ready_at(0, 1), (9, ProducerKind::Other));
    }
}
