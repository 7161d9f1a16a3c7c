//! Parameterized loop generation.

use spt_sir::{BinOp, FuncBuilder, FuncId, ProgramBuilder, Reg};

/// Cross-iteration dependence structure of a generated loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DepPattern {
    /// Only the induction variable carries across iterations (fully
    /// parallelizable after moving/cloning the increment).
    Induction,
    /// `acc += f(i)` with the accumulation early and cheap to satisfy.
    ReductionCheap,
    /// `acc = f(acc)` where f is the whole body chain — inherently serial.
    ReductionDeep,
    /// A guarded store+load to one global word firing with the given
    /// probability (bzip2-style indirect global updates through calls).
    RareUpdate(f64),
    /// Pointer chase through a scrambled in-memory list (parser/mcf).
    Chase,
    /// `x = call bar(x)` where bar returns `x + stride` — unmovable but
    /// value-predictable (the Figure 5 scenario).
    Predictable(i64),
}

/// Memory addressing behaviour of the loop's bulk accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemPattern {
    /// `a[i]`: sequential, cache-friendly.
    Array,
    /// `a[s*i]`: strided.
    Stride(usize),
    /// A hash-like scatter over the loop's region.
    Random,
}

/// One generated loop.
#[derive(Clone, Debug)]
pub struct LoopSpec {
    pub name: &'static str,
    /// Serial ALU chain operations per iteration.
    pub body_alu: usize,
    /// Bulk loads per iteration.
    pub body_loads: usize,
    /// Bulk stores per iteration.
    pub body_stores: usize,
    /// If nonzero, the body calls a helper of roughly this many
    /// instructions.
    pub call_size: usize,
    /// Iterations per invocation.
    pub trip: usize,
    pub dep: DepPattern,
    pub mem: MemPattern,
    /// If set, a slice of the ALU work is guarded and executes with ~this
    /// probability.
    pub guard_prob: Option<f64>,
}

impl LoopSpec {
    /// A small default spec (tests tweak fields from here).
    pub fn basic(name: &'static str) -> Self {
        LoopSpec {
            name,
            body_alu: 8,
            body_loads: 1,
            body_stores: 1,
            call_size: 0,
            trip: 100,
            dep: DepPattern::Induction,
            mem: MemPattern::Array,
            guard_prob: None,
        }
    }

    /// Approximate static body size in instructions.
    pub fn approx_body_size(&self) -> usize {
        self.body_alu
            + 2 * self.body_loads
            + 2 * self.body_stores
            + if self.call_size > 0 { 1 } else { 0 }
            + 8
    }
}

/// Emit the helper callee of `size` serial ALU instructions:
/// `fn helper(x) -> x + stride` with padding work.
fn emit_helper(pb: &mut ProgramBuilder, name: &str, size: usize, stride: i64) -> FuncId {
    let mut g = pb.func(name, 1);
    let p = g.param(0);
    let d = g.const_reg(stride);
    let r = g.reg();
    g.bin(BinOp::Add, r, p, d);
    // Padding: a serial chain that the result does not depend on.
    let mut t = g.const_reg(3);
    for _ in 0..size.saturating_sub(3) {
        let n = g.reg();
        g.bin(BinOp::Add, n, t, t);
        t = n;
    }
    g.ret(Some(r));
    g.finish()
}

/// Initialize a scrambled singly linked list in `[base, base + 2*len)`:
/// node i occupies 2 words (next, payload).
/// Returns the head-node address.
fn init_chain(pb: &mut ProgramBuilder, base: u64, len: usize) -> u64 {
    // Genuinely shuffled node placement: the next pointer must not be
    // stride-predictable, or software value prediction would trivialize
    // every pointer chase.
    let perm = crate::kernels::shuffled_permutation(len, base ^ 0x9e3779b97f4a7c15);
    let slot = |i: usize| base + 2 * perm[i] as u64;
    for i in 0..len {
        let addr = slot(i);
        let next = if i + 1 < len { slot(i + 1) as i64 } else { 0 };
        pb.datum(addr, next);
        pb.datum(addr + 1, (i % 97) as i64 + 1);
    }
    slot(0)
}

/// Emit one loop as a function `fn loop(trip, seed) -> acc`, returning its
/// id. The loop reads/writes `[region_base, region_base + region_words)`.
///
/// `seed` threads serial state across invocations (real integer programs
/// carry global state between calls): every iteration's work mixes it in,
/// so consecutive *invocations* are serially dependent even when the
/// loop's own iterations are parallel.
pub fn emit_loop_func(
    pb: &mut ProgramBuilder,
    spec: &LoopSpec,
    region_base: u64,
    region_words: usize,
) -> FuncId {
    // Helper first (if any).
    let stride = match spec.dep {
        DepPattern::Predictable(d) => d,
        _ => 1,
    };
    let helper = if spec.call_size > 0 || matches!(spec.dep, DepPattern::Predictable(_)) {
        Some(emit_helper(
            pb,
            &format!("{}_helper", spec.name),
            spec.call_size.max(4),
            stride,
        ))
    } else {
        None
    };
    // Chase loops keep their list in the lower half of the region and do
    // bulk accesses in the upper half so stores never corrupt the chain.
    let (bulk_base, bulk_words, chain_head) = if spec.dep == DepPattern::Chase {
        let head = init_chain(pb, region_base, (region_words / 4).max(2));
        (
            region_base + (region_words / 2) as u64,
            (region_words / 2).max(8),
            head,
        )
    } else {
        (region_base, region_words, region_base)
    };

    let mut f = pb.func(spec.name, 2);
    let trip = f.param(0);
    let seed = f.param(1);
    let i = f.reg();
    let acc = f.reg();
    let x = f.reg();
    let p = f.reg();
    let body = f.new_block();
    let exit = f.new_block();
    f.const_(i, 0);
    f.mov(acc, seed);
    f.const_(x, 0);
    f.const_(p, chain_head as i64);
    f.jmp(body);
    f.switch_to(body);

    emit_body(
        &mut f,
        spec,
        helper,
        bulk_base,
        bulk_words,
        BodyRegs {
            i,
            acc,
            x,
            p,
            trip,
            seed,
        },
    );

    // Latch.
    let cond = f.reg();
    match spec.dep {
        DepPattern::Chase => {
            let zero = f.const_reg(0);
            f.bin(BinOp::CmpNe, cond, p, zero);
        }
        _ => {
            f.bin(BinOp::CmpLt, cond, i, trip);
        }
    }
    f.br(cond, body, exit);
    f.switch_to(exit);
    f.ret(Some(acc));
    f.finish()
}

struct BodyRegs {
    i: Reg,
    acc: Reg,
    x: Reg,
    p: Reg,
    trip: Reg,
    seed: Reg,
}

fn emit_body(
    f: &mut FuncBuilder<'_>,
    spec: &LoopSpec,
    helper: Option<FuncId>,
    region_base: u64,
    region_words: usize,
    r: BodyRegs,
) {
    let BodyRegs {
        i,
        acc,
        x,
        p,
        trip,
        seed,
    } = r;
    let _ = trip;
    let region = region_words.max(4) as i64;

    // Address base for bulk accesses.
    let addr = f.reg();
    match spec.mem {
        MemPattern::Array => {
            let base = f.const_reg(region_base as i64);
            let idx = f.reg();
            let rr = f.const_reg(region);
            f.bin(BinOp::Rem, idx, i, rr);
            f.bin(BinOp::Add, addr, base, idx);
        }
        MemPattern::Stride(s) => {
            let base = f.const_reg(region_base as i64);
            let ss = f.const_reg(s as i64);
            let t = f.reg();
            f.bin(BinOp::Mul, t, i, ss);
            let rr = f.const_reg(region);
            let idx = f.reg();
            f.bin(BinOp::Rem, idx, t, rr);
            f.bin(BinOp::Add, addr, base, idx);
        }
        MemPattern::Random => {
            // LCG hash of i.
            let a = f.const_reg(1103515245);
            let c = f.const_reg(12345);
            let t = f.reg();
            f.bin(BinOp::Mul, t, i, a);
            let t2 = f.reg();
            f.bin(BinOp::Add, t2, t, c);
            let sh = f.const_reg(16);
            let t3 = f.reg();
            f.bin(BinOp::Shr, t3, t2, sh);
            let rr = f.const_reg(region);
            let idx = f.reg();
            f.bin(BinOp::Rem, idx, t3, rr);
            // rem of a negative is negative-safe here (t3 >= 0), but keep
            // addresses positive regardless:
            let abs = f.reg();
            let zero = f.const_reg(0);
            f.bin(BinOp::Max, abs, idx, zero);
            let base = f.const_reg(region_base as i64);
            f.bin(BinOp::Add, addr, base, abs);
        }
    }

    // Chase: the next pointer is loaded FIRST (as in parser's free loop,
    // Figure 1 — `c1 = c->next` precedes the frees), the pointer advance
    // `p = p_next` happens at the end of the body.
    let mut work_in = f.reg();
    let p_next = f.reg();
    if spec.dep == DepPattern::Chase {
        f.load(p_next, p, 0); // p_next = p->next (the critical recurrence)
        f.load(work_in, p, 1); // payload
        f.bin(BinOp::Xor, work_in, work_in, seed);
    } else {
        f.bin(BinOp::Xor, work_in, i, seed);
    }

    // Bulk loads.
    for k in 0..spec.body_loads {
        let v = f.reg();
        f.load(v, addr, k as i64 % 4);
        let t = f.reg();
        f.bin(BinOp::Add, t, work_in, v);
        work_in = t;
    }

    // Guarded section.
    let guard = spec.guard_prob.map(|prob| {
        // i-hash below threshold.
        let a = f.const_reg(2654435761);
        let h = f.reg();
        f.bin(BinOp::Mul, h, i, a);
        let sh = f.const_reg(24);
        let h2 = f.reg();
        f.bin(BinOp::Shr, h2, h, sh);
        let m = f.const_reg(255);
        let h3 = f.reg();
        f.bin(BinOp::And, h3, h2, m);
        let th = f.const_reg((prob * 256.0) as i64);
        let g = f.reg();
        f.bin(BinOp::CmpLt, g, h3, th);
        g
    });

    // ALU chain (the body's computation), partially guarded if requested.
    let mut v = work_in;
    let guarded_from = spec.body_alu / 2;
    for k in 0..spec.body_alu {
        if let (Some(g), true) = (guard, k == guarded_from) {
            f.guard_when(g);
        }
        let t = f.reg();
        let op = match k % 3 {
            0 => BinOp::Add,
            1 => BinOp::Xor,
            _ => BinOp::Sub,
        };
        f.bin(op, t, v, work_in);
        v = t;
    }
    f.unguard();

    // Call (if configured and not the Predictable pattern, which has its
    // own call below).
    if let Some(h) = helper {
        if spec.call_size > 0 && !matches!(spec.dep, DepPattern::Predictable(_)) {
            let rv = f.reg();
            f.call(h, &[v], Some(rv));
            let t = f.reg();
            f.bin(BinOp::Add, t, v, rv);
            v = t;
        }
    }

    // Bulk stores (to this iteration's slot — no cross-iteration conflict
    // except via Random collisions).
    for k in 0..spec.body_stores {
        f.store(v, addr, (k as i64 % 4) + 4);
    }

    // Dependence-pattern specifics.
    match spec.dep {
        DepPattern::Induction => {}
        DepPattern::ReductionCheap => {
            // acc += i early-computable value.
            f.bin(BinOp::Add, acc, acc, i);
        }
        DepPattern::ReductionDeep => {
            // acc = acc + v where v is the end of the body chain: the
            // recurrence closure is the whole body.
            let t = f.reg();
            f.bin(BinOp::Add, t, acc, v);
            f.mov(acc, t);
        }
        DepPattern::RareUpdate(prob) => {
            // Guarded read-modify-write of one global word.
            let a = f.const_reg(888888877);
            let h = f.reg();
            f.bin(BinOp::Mul, h, i, a);
            let sh = f.const_reg(20);
            let h2 = f.reg();
            f.bin(BinOp::Shr, h2, h, sh);
            let m = f.const_reg(1023);
            let h3 = f.reg();
            f.bin(BinOp::And, h3, h2, m);
            let th = f.const_reg((prob * 1024.0) as i64);
            let g = f.reg();
            f.bin(BinOp::CmpLt, g, h3, th);
            let gbase = f.const_reg(region_base as i64);
            f.guard_when(g);
            let old = f.reg();
            f.load(old, gbase, 0);
            let upd = f.reg();
            f.bin(BinOp::Add, upd, old, v);
            f.store(upd, gbase, 0);
            f.unguard();
        }
        DepPattern::Chase => {
            // Advance the pointer; accumulate payload-derived work.
            f.bin(BinOp::Add, acc, acc, v);
            f.mov(p, p_next);
        }
        DepPattern::Predictable(_) => {
            let h = helper.expect("Predictable loops have a helper");
            f.call(h, &[x], Some(x));
            f.bin(BinOp::Add, acc, acc, x);
        }
    }

    // Induction update last (counted loops).
    if spec.dep != DepPattern::Chase {
        f.addi(i, i, 1);
    }
    if spec.dep != DepPattern::ReductionDeep && spec.dep != DepPattern::Chase {
        // keep acc alive for counted non-reduction loops too
        if spec.dep == DepPattern::Induction {
            f.bin(BinOp::Xor, acc, acc, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_interp::{run, Cursor, DecodedProgram, Memory};
    use spt_sir::Program;

    fn run_loop(spec: &LoopSpec, trip: i64) -> (Program, i64) {
        let mut pb = ProgramBuilder::new();
        let lf = emit_loop_func(&mut pb, spec, 64, 256);
        let mut m = pb.func("main", 0);
        let t = m.const_reg(trip);
        let z = m.const_reg(0);
        let r = m.reg();
        m.call(lf, &[t, z], Some(r));
        m.ret(Some(r));
        let main = m.finish();
        let prog = pb.finish(main, 1024);
        prog.verify().unwrap();
        let (res, _) = run(&prog, 10_000_000);
        assert!(!res.out_of_fuel, "loop must terminate");
        (prog, res.ret.unwrap())
    }

    #[test]
    fn all_patterns_terminate_and_verify() {
        for dep in [
            DepPattern::Induction,
            DepPattern::ReductionCheap,
            DepPattern::ReductionDeep,
            DepPattern::RareUpdate(0.1),
            DepPattern::Chase,
            DepPattern::Predictable(2),
        ] {
            let mut s = LoopSpec::basic("l");
            s.dep = dep;
            if dep == DepPattern::Predictable(2) {
                s.call_size = 10;
            }
            let (_, _ret) = run_loop(&s, 50);
        }
    }

    #[test]
    fn reduction_cheap_accumulates() {
        let mut s = LoopSpec::basic("l");
        s.dep = DepPattern::ReductionCheap;
        let (_, ret) = run_loop(&s, 10);
        assert_eq!(ret, 45); // Σ 0..9
    }

    #[test]
    fn chase_traverses_whole_list() {
        let mut s = LoopSpec::basic("l");
        s.dep = DepPattern::Chase;
        s.body_alu = 0;
        s.body_loads = 0;
        s.body_stores = 0;
        // 256-word region -> 64 chain nodes, payload (i % 97) + 1.
        let (_, ret) = run_loop(&s, 0);
        let expect: i64 = (0..64).map(|i| (i % 97) + 1).sum();
        assert_eq!(ret, expect);
    }

    #[test]
    fn predictable_with_stride() {
        let mut s = LoopSpec::basic("l");
        s.dep = DepPattern::Predictable(3);
        s.call_size = 8;
        s.body_loads = 0;
        s.body_stores = 0;
        let (_, ret) = run_loop(&s, 5);
        // x: 3,6,9,12,15 accumulated.
        assert_eq!(ret, 3 + 6 + 9 + 12 + 15);
    }

    #[test]
    fn guard_prob_affects_execution() {
        let mut s = LoopSpec::basic("l");
        s.guard_prob = Some(0.3);
        s.body_alu = 10;
        let (prog, _) = run_loop(&s, 200);
        // Count suppressed events in a fresh run.
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let (mut pass, mut fail) = (0u64, 0u64);
        while let Some(ev) = cur.step(&mut mem) {
            if matches!(ev.kind, spt_interp::EvKind::Inst { .. }) {
                if ev.executed {
                    pass += 1;
                } else {
                    fail += 1;
                }
            }
        }
        assert!(fail > 100, "guarded-off work expected, fail = {fail}");
        assert!(pass > fail);
    }

    #[test]
    fn approx_body_size_reasonable() {
        let s = LoopSpec::basic("l");
        let sz = s.approx_body_size();
        assert!(sz > 8 && sz < 40);
    }

    #[test]
    fn rare_update_touches_global() {
        let mut s = LoopSpec::basic("l");
        s.dep = DepPattern::RareUpdate(0.5);
        let mut pb = ProgramBuilder::new();
        let lf = emit_loop_func(&mut pb, &s, 64, 256);
        let mut m = pb.func("main", 0);
        let t = m.const_reg(100);
        let z = m.const_reg(0);
        let r = m.reg();
        m.call(lf, &[t, z], Some(r));
        // Return the global word.
        let g = m.const_reg(64);
        let out = m.reg();
        m.load(out, g, 0);
        m.ret(Some(out));
        let main = m.finish();
        let prog = pb.finish(main, 1024);
        let (res, _) = run(&prog, 10_000_000);
        assert_ne!(res.ret, Some(0), "global must be updated sometimes");
    }
}
