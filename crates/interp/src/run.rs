//! Whole-program execution helpers.

use crate::cursor::Cursor;
use crate::decode::DecodedProgram;
use crate::event::Event;
use crate::mem::{MemView, Memory};
use crate::step::Step;
use spt_sir::Program;

/// Outcome of a complete sequential run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Dynamic statement+terminator count.
    pub steps: u64,
    /// Entry function's return value.
    pub ret: Option<i64>,
    /// True if the run hit the step limit instead of halting.
    pub out_of_fuel: bool,
}

/// Run a program to completion over fresh memory; `max_steps` bounds runaway
/// programs.
pub fn run(prog: &Program, max_steps: u64) -> (RunResult, Memory) {
    let mut mem = Memory::for_program(prog);
    let res = run_on(prog, &mut mem, max_steps, |_| {});
    (res, mem)
}

/// Run with an observer invoked on every step, as an [`Event`] built on
/// demand.
pub fn run_with(
    prog: &Program,
    max_steps: u64,
    mut obs: impl FnMut(&Event),
) -> (RunResult, Memory) {
    let mut mem = Memory::for_program(prog);
    let res = run_on(prog, &mut mem, max_steps, |s| obs(&s.event()));
    (res, mem)
}

/// Run over caller-provided memory with an observer of every step.
pub fn run_on(
    prog: &Program,
    mem: &mut dyn MemView,
    max_steps: u64,
    mut obs: impl FnMut(&Step),
) -> RunResult {
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);
    let mut steps = 0u64;
    while steps < max_steps {
        match cur.step(mem) {
            Some(st) => {
                steps += 1;
                obs(&st);
            }
            None => {
                return RunResult {
                    steps,
                    ret: cur.return_value(),
                    out_of_fuel: false,
                };
            }
        }
    }
    RunResult {
        steps,
        ret: None,
        out_of_fuel: !cur.is_halted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::{BinOp, ProgramBuilder};

    fn fib_program(n: i64) -> Program {
        // Iterative fibonacci.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let a = f.reg();
        let b = f.reg();
        let i = f.reg();
        let nn = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(a, 0);
        f.const_(b, 1);
        f.const_(i, 0);
        f.const_(nn, n);
        let c0 = f.reg();
        f.bin(BinOp::CmpLt, c0, i, nn);
        f.br(c0, body, exit);
        f.switch_to(body);
        let t = f.reg();
        f.bin(BinOp::Add, t, a, b);
        f.mov(a, b);
        f.mov(b, t);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(a));
        let id = f.finish();
        pb.finish(id, 0)
    }

    #[test]
    fn fib_10() {
        let prog = fib_program(10);
        let (res, _) = run(&prog, 1_000_000);
        assert_eq!(res.ret, Some(55));
        assert!(!res.out_of_fuel);
        assert!(res.steps > 10);
    }

    #[test]
    fn fib_0_runs_zero_iterations() {
        let prog = fib_program(0);
        let (res, _) = run(&prog, 1_000_000);
        assert_eq!(res.ret, Some(0));
    }

    #[test]
    fn out_of_fuel_detected() {
        // Infinite loop.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("inf", 0);
        let body = f.new_block();
        f.jmp(body);
        f.switch_to(body);
        f.jmp(body);
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (res, _) = run(&prog, 1000);
        assert!(res.out_of_fuel);
        assert_eq!(res.steps, 1000);
        assert_eq!(res.ret, None);
    }

    #[test]
    fn observer_sees_every_event() {
        let prog = fib_program(5);
        let mut count = 0u64;
        let (res, _) = run_with(&prog, 1_000_000, |_| count += 1);
        assert_eq!(count, res.steps);
    }
}
