//! Host-speed calibration for CPU-bound timings.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! a third over minutes: the same sweep rep takes 550 ms in one stretch and
//! 750 ms in the next, all of it user time, with no steal and no page
//! faults. A fixed kernel of this file's own slows down with it, because it
//! leans on what the simulator leans on: the allocator, hash and tree
//! tables a few MB large, and an interpreter loop of loads, stores and
//! data-dependent branches. Each CPU-bound span is therefore timed right
//! after one kernel run and scaled by `REFERENCE_MS / kernel`: it reads as
//! it would on a host where the kernel takes [`REFERENCE_MS`]. The kernel
//! calls nothing of the repository, so no change to the program under test
//! moves it.
//!
//! The kernel runs in a helper process, this binary with `--calibrate`, so
//! that its memory stays out of the workload's `peak_rss_mb`. It tracks the
//! host as closely from there as it does in the workload's own process.

use crate::Rng;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The kernel's time on the reference host, ms: its median on a two-vCPU
/// KVM guest of an Intel Xeon (family 6, model 207), so scaled times there
/// read about as measured.
pub const REFERENCE_MS: f64 = 100.0;

/// The helper's command-line flag.
pub const CALIBRATE_FLAG: &str = "--calibrate";

const MAP_KEYS: u64 = 200_000;
const TREE_KEYS: u64 = 100_000;
const SORT_LEN: usize = 500_000;
/// What [`tables`] returns.
const TABLES_SUM: u64 = MAP_KEYS * (MAP_KEYS - 1) / 2 + TREE_KEYS * (TREE_KEYS - 1) / 2;

/// The register machine's memory (4 MB), program length and run length.
/// The run takes about as long as [`tables`], so each phase weighs about
/// half of the kernel's time.
const MEM_WORDS: usize = 1 << 19;
const PROGRAM_LEN: usize = 2048;
const STEPS: usize = 14_000_000;

/// Distinct, scattered keys: multiplication by an odd constant is a
/// bijection on `u64`.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The kernel's first phase: grow a hash map and a B-tree one insert at a
/// time, probe them, and sort a vector. Returns the sum of every value it
/// looked up, and panics if the sort did not sort.
fn tables() -> u64 {
    let mut map = HashMap::new();
    for i in 0..MAP_KEYS {
        map.insert(key(i), i);
    }
    let mut sum: u64 = (0..MAP_KEYS).map(|i| map[&key(i)]).sum();
    drop(map);

    let mut tree = BTreeMap::new();
    for i in 0..TREE_KEYS {
        tree.insert(key(i), i);
    }
    sum += tree.values().sum::<u64>();
    drop(tree);

    let mut x = 1u64;
    let mut v: Vec<u64> = (0..SORT_LEN)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x
        })
        .collect();
    v.sort_unstable();
    assert!(v.windows(2).all(|w| w[0] <= w[1]), "calibration sort");
    sum
}

/// One instruction of the kernel's register machine.
#[derive(Clone, Copy)]
struct Insn {
    op: u8,
    a: u8,
    b: u8,
    imm: u32,
}

/// A fixed pseudo-random program.
fn program() -> Vec<Insn> {
    let mut rng = Rng::new(5);
    (0..PROGRAM_LEN)
        .map(|_| Insn {
            op: (rng.next_u64() % 8) as u8,
            a: (rng.next_u64() % 8) as u8,
            b: (rng.next_u64() % 8) as u8,
            imm: rng.next_u64() as u32,
        })
        .collect()
}

/// The kernel's second phase: run `prog` for [`STEPS`] instructions over
/// fresh memory. Returns a checksum of the final state.
fn interpret(prog: &[Insn]) -> u64 {
    let mut mem = vec![0u64; MEM_WORDS];
    let mask = MEM_WORDS - 1;
    let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0;
    for _ in 0..STEPS {
        let Insn { op, a, b, imm } = prog[pc];
        let (a, b) = (usize::from(a), usize::from(b));
        pc += 1;
        match op {
            0 => r[a] = r[a].wrapping_add(r[b]).wrapping_add(u64::from(imm)),
            1 => r[a] = mem[(r[b] as usize).wrapping_mul(imm as usize | 1) & mask],
            2 => mem[(r[a] as usize ^ imm as usize) & mask] = r[b],
            3 if r[a] & 3 == 0 => pc = imm as usize % prog.len(),
            4 => r[a] = r[a].wrapping_mul(r[b] | 1),
            5 => r[a] ^= r[b] >> 7,
            6 if r[a] < r[b] => pc = (pc + 3) % prog.len(),
            7 => r[a] = r[a].rotate_left(imm % 64),
            _ => {}
        }
        if pc >= prog.len() {
            pc = 0;
        }
    }
    r.iter().fold(mem[7], |h, &x| h.rotate_left(9) ^ x)
}

/// The kernel, with the checksum every run of its register machine must
/// reproduce.
struct Kernel {
    prog: Vec<Insn>,
    checksum: Option<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            prog: program(),
            checksum: None,
        }
    }

    /// One timed, checked run, ms.
    fn run_ms(&mut self) -> f64 {
        let t = Instant::now();
        let sum = black_box(tables());
        let state = black_box(interpret(&self.prog));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(sum, TABLES_SUM, "calibration tables");
        assert_eq!(
            *self.checksum.get_or_insert(state),
            state,
            "calibration interpreter"
        );
        ms
    }
}

/// The helper's main loop: one kernel run per line read from stdin, its
/// time printed as one line, until stdin closes. An untimed first run
/// faults in the helper's memory and code, which would otherwise slow the
/// first timed run alone.
pub fn serve_kernel() {
    let mut kernel = Kernel::new();
    kernel.run_ms();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let ms = match line {
            Ok(_) => kernel.run_ms(),
            Err(_) => return,
        };
        if writeln!(out, "{ms}").and_then(|()| out.flush()).is_err() {
            return;
        }
    }
}

/// A CPU-bound span, timed right after one kernel run.
pub struct Timed<R> {
    pub value: R,
    /// The span's wall time, seconds.
    pub raw_s: f64,
    /// The kernel run before it, ms.
    pub kernel_ms: f64,
}

impl<R> Timed<R> {
    /// The span's wall time scaled to the reference host, seconds.
    pub fn scaled_s(&self) -> f64 {
        self.raw_s * REFERENCE_MS / self.kernel_ms
    }
}

/// The running helper process. Dropping it closes the helper's stdin and
/// waits for it to end.
pub struct Calibrator {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Calibrator {
    pub fn start() -> Calibrator {
        let exe = std::env::current_exe().expect("cannot locate own executable");
        let mut child = Command::new(exe)
            .arg(CALIBRATE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("cannot start the calibration helper");
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("helper stdout"));
        Calibrator {
            child,
            stdin,
            stdout,
        }
    }

    /// One kernel run in the helper, ms.
    fn kernel_ms(&mut self) -> f64 {
        let stdin = self.stdin.as_mut().expect("helper stdin");
        writeln!(stdin, "run")
            .and_then(|()| stdin.flush())
            .expect("cannot reach the calibration helper");
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .expect("cannot read the calibration helper");
        line.trim()
            .parse()
            .unwrap_or_else(|_| panic!("calibration helper printed {line:?}"))
    }

    /// Run the kernel, then `f`, timing `f`.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> Timed<R> {
        let kernel_ms = self.kernel_ms();
        let t = Instant::now();
        let value = f();
        Timed {
            value,
            raw_s: t.elapsed().as_secs_f64(),
            kernel_ms,
        }
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_reference_kernel_time() {
        let t = Timed {
            value: (),
            raw_s: 0.6,
            kernel_ms: REFERENCE_MS * 1.5,
        };
        assert!((t.scaled_s() - 0.4).abs() < 1e-12);
    }

    /// The kernel checks itself: a second run must reproduce the first
    /// run's interpreter checksum.
    #[test]
    fn the_kernel_is_deterministic() {
        let mut kernel = Kernel::new();
        assert!(kernel.run_ms() > 0.0);
        assert!(kernel.run_ms() > 0.0);
        assert!(kernel.checksum.is_some());
    }
}
