//! Word-addressed linear memory and the memory-view abstraction.

use spt_sir::Program;

/// A view of memory that execution goes through.
///
/// The main thread executes over a plain [`Memory`]. The SPT simulator's
/// speculative pipeline executes over a store-buffer overlay (implemented in
/// `spt-sim`), so speculative stores never modify architectural state —
/// the defining property of the speculative store buffer in §3 of the paper.
pub trait MemView {
    /// Load the word at `addr` (already wrapped into range by the cursor).
    fn load(&mut self, addr: u64) -> i64;
    /// Store `val` to the word at `addr`.
    fn store(&mut self, addr: u64, val: i64);
    /// Number of addressable words (used by the cursor for wrapping).
    fn words(&self) -> usize;
}

/// Architectural memory: a flat array of 64-bit words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Memory {
    words: Vec<i64>,
}

impl Memory {
    /// Zero-filled memory of `n` words. A minimum of one word is always
    /// allocated so address wrapping is well defined.
    pub fn new(n: usize) -> Self {
        Memory {
            words: vec![0; n.max(1)],
        }
    }

    /// Memory initialized from a program's `mem_words` and data image.
    pub fn for_program(prog: &Program) -> Self {
        let mut m = Memory::new(prog.mem_words);
        m.apply_data(prog);
        m
    }

    fn apply_data(&mut self, prog: &Program) {
        let n = self.words.len();
        for &(addr, val) in &prog.data {
            self.words[(addr as usize) % n] = val;
        }
    }

    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        false // always ≥ 1 word
    }

    /// Direct (non-`MemView`) read, for tests and result inspection.
    pub fn peek(&self, addr: u64) -> i64 {
        self.words[(addr as usize) % self.words.len()]
    }

    /// Direct write, for test setup.
    pub fn poke(&mut self, addr: u64, val: i64) {
        let n = self.words.len();
        self.words[(addr as usize) % n] = val;
    }
}

impl MemView for Memory {
    #[inline]
    fn load(&mut self, addr: u64) -> i64 {
        self.words[addr as usize]
    }

    #[inline]
    fn store(&mut self, addr: u64, val: i64) {
        self.words[addr as usize] = val;
    }

    #[inline]
    fn words(&self) -> usize {
        self.words.len()
    }
}

/// Wrap a raw (possibly negative) effective address into a view's range.
#[inline]
pub fn wrap_addr(raw: i64, words: usize) -> u64 {
    raw.rem_euclid(words as i64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::ProgramBuilder;

    #[test]
    fn zero_init_and_poke_peek() {
        let mut m = Memory::new(8);
        assert_eq!(m.len(), 8);
        assert_eq!(m.peek(3), 0);
        m.poke(3, 42);
        assert_eq!(m.peek(3), 42);
    }

    #[test]
    fn minimum_one_word() {
        let m = Memory::new(0);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn for_program_applies_data() {
        let mut pb = ProgramBuilder::new();
        pb.datum(2, -5);
        pb.datum(5, 7);
        let mut f = pb.func("m", 0);
        f.ret(None);
        let id = f.finish();
        let p = pb.finish(id, 8);
        let m = Memory::for_program(&p);
        assert_eq!(m.peek(2), -5);
        assert_eq!(m.peek(5), 7);
        assert_eq!(m.peek(0), 0);
    }

    #[test]
    fn wrap_addr_handles_negative_and_overflow() {
        assert_eq!(wrap_addr(-1, 8), 7);
        assert_eq!(wrap_addr(9, 8), 1);
        assert_eq!(wrap_addr(0, 8), 0);
        assert_eq!(wrap_addr(i64::MIN, 8), 0);
    }

    #[test]
    fn memview_roundtrip() {
        let mut m = Memory::new(4);
        MemView::store(&mut m, 1, 99);
        assert_eq!(MemView::load(&mut m, 1), 99);
        assert_eq!(m.words(), 4);
    }
}
