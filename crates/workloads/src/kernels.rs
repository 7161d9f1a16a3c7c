//! Hand-written kernels reproducing the paper's running examples.

use spt_sir::{BinOp, FuncId, Program, ProgramBuilder};

/// The Figure 1 loop from `parser`: free a linked list node by node.
///
/// ```c
/// while (c != NULL) {
///     c1 = c->next;
///     free_Tconnector(c->c);
///     xfree(c, sizeof(Clause));
///     c = c1;
/// }
/// ```
///
/// The list is laid out scrambled in memory (real heap order); each node is
/// `[next, tconn_ptr]`, and the two "free" calls do deallocator-like work
/// (clearing words and updating a free-list head). The free-list-head
/// update is the rare conflicting dependence: most iterations it touches
/// disjoint memory, exactly the behaviour the paper reports (~80% of
/// threads violated *some*thing under mark checking, but 95% of
/// speculative work correct).
pub fn parser_free_loop(nodes: usize) -> Program {
    let n = nodes.max(2);
    let mut pb = ProgramBuilder::new();
    // Layout: [0] free-list head; [1..] arena. Node i lives at a genuinely
    // shuffled slot (heap order), so the next pointer is NOT
    // stride-predictable — the compiler must satisfy the recurrence by
    // moving `c1 = c->next` into the pre-fork region, as in Figure 1(b).
    let perm = shuffled_permutation(n, 0x5eed);
    let slot = |i: usize| 8 + 4 * perm[i] as u64;
    let tconn_base = 8 + 4 * n as u64;
    for i in 0..n {
        let a = slot(i);
        let next = if i + 1 < n { slot(i + 1) as i64 } else { 0 };
        pb.datum(a, next);
        pb.datum(a + 1, (tconn_base + 2 * i as u64) as i64); // c->c
        pb.datum(a + 2, i as i64 + 1);
        pb.datum(tconn_base + 2 * i as u64, i as i64);
    }

    // free_Tconnector(ptr): clear the connector words (store 0s) + ALU work.
    let free_tconn = {
        let mut g = pb.func("free_Tconnector", 1);
        let p = g.param(0);
        let z = g.const_reg(0);
        g.store(z, p, 0);
        g.store(z, p, 1);
        let mut t = g.const_reg(7);
        for _ in 0..10 {
            let x = g.reg();
            g.bin(BinOp::Add, x, t, t);
            t = x;
        }
        g.ret(None);
        g.finish()
    };
    // xfree(ptr): push the node onto the free list (head at word 0).
    let xfree = {
        let mut g = pb.func("xfree", 1);
        let p = g.param(0);
        let zero = g.const_reg(0);
        let head = g.reg();
        g.load(head, zero, 0); // old head
        g.store(head, p, 0); // node->next = old head
        g.store(p, zero, 0); // head = node
        let mut t = g.const_reg(3);
        for _ in 0..6 {
            let x = g.reg();
            g.bin(BinOp::Xor, x, t, t);
            t = x;
        }
        g.ret(None);
        g.finish()
    };

    let mut f = pb.func("main", 0);
    let c = f.reg();
    let freed = f.reg();
    let body = f.new_block();
    let exit = f.new_block();
    f.const_(c, slot(0) as i64);
    f.const_(freed, 0);
    f.jmp(body);
    f.switch_to(body);
    let c1 = f.reg();
    f.load(c1, c, 0); // c1 = c->next
    let tc = f.reg();
    f.load(tc, c, 1); // c->c
    f.call(free_tconn, &[tc], None);
    f.call(xfree, &[c], None);
    f.mov(c, c1); // c = c1
    f.addi(freed, freed, 1);
    let cond = f.reg();
    let zero = f.const_reg(0);
    f.bin(BinOp::CmpNe, cond, c, zero);
    f.br(cond, body, exit);
    f.switch_to(exit);
    f.ret(Some(freed));
    let main = f.finish();
    pb.finish(main, 8 + 4 * n + 2 * n + 16)
}

/// The Figure 5 loop: `while (x) { foo(x); x = bar(x); }` where `bar`
/// almost always increments x by 2 — unmovable (a call) but predictable.
pub fn svp_loop(iters: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let limit = 2 * iters as i64;
    // foo(x): consumer work.
    #[allow(clippy::disallowed_names)] // named after the paper's Figure 5
    let foo = {
        let mut g = pb.func("foo", 1);
        let p = g.param(0);
        let mut t = p;
        for _ in 0..12 {
            let x = g.reg();
            g.bin(BinOp::Add, x, t, p);
            t = x;
        }
        g.ret(Some(t));
        g.finish()
    };
    // bar(x): x + 2, with an occasional +4 hiccup (weak misprediction).
    let bar = {
        let mut g = pb.func("bar", 1);
        let p = g.param(0);
        // hiccup if x % 64 == 62 (rare).
        let m = g.const_reg(64);
        let r = g.reg();
        g.bin(BinOp::Rem, r, p, m);
        let c62 = g.const_reg(62);
        let isf = g.reg();
        g.bin(BinOp::CmpEq, isf, r, c62);
        let two = g.const_reg(2);
        let four = g.const_reg(4);
        let inc = g.reg();
        g.mov(inc, two);
        g.guard_when(isf);
        g.mov(inc, four);
        g.unguard();
        let out = g.reg();
        g.bin(BinOp::Add, out, p, inc);
        // Padding.
        let mut t = g.const_reg(5);
        for _ in 0..8 {
            let x = g.reg();
            g.bin(BinOp::Mul, x, t, t);
            t = x;
        }
        g.ret(Some(out));
        g.finish()
    };

    let mut f = pb.func("main", 0);
    let x = f.reg();
    let acc = f.reg();
    let body = f.new_block();
    let exit = f.new_block();
    f.const_(x, 2);
    f.const_(acc, 0);
    f.jmp(body);
    f.switch_to(body);
    let fr = f.reg();
    f.call(foo, &[x], Some(fr));
    f.bin(BinOp::Add, acc, acc, fr);
    f.call(bar, &[x], Some(x));
    let lim = f.const_reg(limit);
    let cond = f.reg();
    f.bin(BinOp::CmpLt, cond, x, lim);
    f.br(cond, body, exit);
    f.switch_to(exit);
    f.ret(Some(acc));
    let main = f.finish();
    pb.finish(main, 16)
}

/// A simple fully-parallel array kernel for quickstarts: `out[i] = f(a[i])`.
pub fn array_map(n: usize, work: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    for i in 0..n {
        pb.datum(i as u64, i as i64 + 1);
    }
    let mut f = pb.func("main", 0);
    let i = f.reg();
    let nn = f.const_reg(n as i64);
    let body = f.new_block();
    let exit = f.new_block();
    f.const_(i, 0);
    f.jmp(body);
    f.switch_to(body);
    let cur = f.reg();
    f.mov(cur, i);
    let v = f.reg();
    f.load(v, cur, 0);
    let mut t = v;
    for _ in 0..work {
        let x = f.reg();
        f.bin(BinOp::Add, x, t, v);
        t = x;
    }
    f.store(t, cur, n as i64);
    f.addi(i, i, 1);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.br(c, body, exit);
    f.switch_to(exit);
    f.ret(Some(i));
    let main = f.finish();
    pb.finish(main, 2 * n + 8)
}

/// Deterministic Fisher–Yates shuffle of 0..n with an xorshift generator.
pub(crate) fn shuffled_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed.max(1);
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}

/// Main function id of a single-function-entry kernel (always fn of entry).
pub fn entry_of(p: &Program) -> FuncId {
    p.entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_interp::run;

    #[test]
    fn parser_loop_frees_every_node() {
        let p = parser_free_loop(40);
        p.verify().unwrap();
        let (res, mem) = run(&p, 10_000_000);
        assert_eq!(res.ret, Some(40));
        // The free list head holds the last freed node (nonzero).
        assert_ne!(mem.peek(0), 0);
    }

    #[test]
    fn svp_loop_terminates_with_accumulation() {
        let p = svp_loop(100);
        p.verify().unwrap();
        let (res, _) = run(&p, 10_000_000);
        assert!(!res.out_of_fuel);
        assert!(res.ret.unwrap() > 0);
    }

    #[test]
    fn array_map_computes() {
        let p = array_map(16, 4);
        p.verify().unwrap();
        let (res, mem) = run(&p, 1_000_000);
        assert_eq!(res.ret, Some(16));
        // out[i] = a[i] * (work+1) = (i+1)*5
        assert_eq!(mem.peek(16), 5);
        assert_eq!(mem.peek(31), 80);
    }
}
