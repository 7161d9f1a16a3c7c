//! Region-based speculation — the paper's future-work proposal (§6),
//! implemented as an extension: a sequential piece of code is split and
//! its first and second halves run in parallel on the SPT machine.
//!
//! ```sh
//! cargo run --release -p spt --example region_speculation
//! ```

use spt::compiler::{find_region_split, speculate_region, CostParams};
use spt::mach::MachineConfig;
use spt::report::gain;
use spt::sim::{simulate_baseline, LoopAnnotations, SptSim};
use spt_sir::{BinOp, BlockId, Program, ProgramBuilder};
use std::collections::HashMap;

/// A straight-line "setup phase": initialize two independent tables.
fn setup_phase(work: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let seed_a = f.const_reg(7);
    let seed_b = f.const_reg(11);
    let base_a = f.const_reg(0);
    let base_b = f.const_reg(64);
    let region = f.new_block();
    let tail = f.new_block();
    f.jmp(region);
    f.switch_to(region);
    // Phase 1: fill table A with a serial recurrence.
    let mut a = seed_a;
    for k in 0..work {
        let t = f.reg();
        f.bin(BinOp::Add, t, a, seed_a);
        a = t;
        if k % 8 == 0 {
            f.store(a, base_a, (k / 8) as i64);
        }
    }
    // Phase 2: fill table B with an unrelated recurrence.
    let mut b = seed_b;
    for k in 0..work {
        let t = f.reg();
        f.bin(BinOp::Xor, t, b, seed_b);
        b = t;
        if k % 8 == 0 {
            f.store(b, base_b, (k / 8) as i64);
        }
    }
    f.jmp(tail);
    f.switch_to(tail);
    let out = f.reg();
    f.bin(BinOp::Xor, out, a, b);
    f.ret(Some(out));
    let id = f.finish();
    pb.finish(id, 256)
}

fn main() {
    let prog = setup_phase(120);
    prog.verify().unwrap();

    let split = find_region_split(
        &prog,
        prog.entry,
        BlockId(1),
        &CostParams::default(),
        &HashMap::new(),
    )
    .expect("the two phases are independent");
    println!("Region-based speculation (paper §6 future work)");
    println!("===============================================\n");
    println!(
        "chosen split: statement {} of {} — first half {:.0} cycles, \
         second half {:.0} cycles, estimated misspeculation {:.1}",
        split.split_at,
        prog.func(prog.entry).block(BlockId(1)).insts.len(),
        split.first_cost,
        split.second_cost,
        split.misspec_cost
    );
    println!("estimated speedup: {}", gain(split.est_speedup));

    let base = simulate_baseline(
        &prog,
        &MachineConfig::default().core,
        &LoopAnnotations::empty(),
        10_000_000,
    );
    let mut spec = prog.clone();
    speculate_region(
        &mut spec,
        prog.entry,
        BlockId(1),
        &CostParams::default(),
        &HashMap::new(),
    );
    spec.verify().unwrap();
    let rep =
        SptSim::new(&spec, MachineConfig::default(), LoopAnnotations::empty()).run(10_000_000);

    println!(
        "\nbaseline {} cycles -> SPT {} cycles: measured speedup {}",
        base.cycles,
        rep.cycles,
        gain(base.cycles as f64 / rep.cycles as f64)
    );
    println!(
        "semantics preserved: {} (seq {:?} vs SPT {:?})",
        base.ret == rep.ret,
        base.ret,
        rep.ret
    );
}
