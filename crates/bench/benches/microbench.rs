//! Criterion microbenchmarks for the SPT components themselves:
//! interpreter throughput, cache model, baseline and SPT simulator
//! throughput, and the compiler pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use spt_compiler::{compile, CompileOptions};
use spt_interp::{run, Cursor, DecodedProgram, Memory};
use spt_mach::{CacheSim, MachineConfig};
use spt_sim::{simulate_baseline, LoopAnnotations, SptSim};
use spt_workloads::kernels::{array_map, parser_free_loop};
use spt_workloads::{benchmark, Scale};

fn bench_interpreter(c: &mut Criterion) {
    let prog = array_map(256, 12);
    c.bench_function("interp/array_map_256", |b| {
        b.iter(|| {
            let (res, _) = run(&prog, 10_000_000);
            assert!(!res.out_of_fuel);
            res.steps
        })
    });
}

fn bench_cursor_step(c: &mut Criterion) {
    let prog = array_map(64, 8);
    // Decode outside the loop: programs are decoded once per run, stepped
    // millions of times — this times the steady-state stepping cost.
    let dec = DecodedProgram::new(&prog);
    c.bench_function("interp/cursor_steps", |b| {
        b.iter(|| {
            let mut mem = Memory::for_program(&prog);
            let mut cur = Cursor::at_entry(&dec);
            let mut n = 0u64;
            while cur.step(&mut mem).is_some() {
                n += 1;
            }
            n
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    c.bench_function("mach/cache_stream_64k", |b| {
        b.iter(|| {
            let mut cs = CacheSim::new(&cfg.core);
            let mut total = 0u64;
            for i in 0..65536u64 {
                total += cs.access(i % 8192, i);
            }
            total
        })
    });
}

fn bench_baseline_sim(c: &mut Criterion) {
    let prog = array_map(256, 12);
    let cfg = MachineConfig::default();
    c.bench_function("sim/baseline_array_map", |b| {
        b.iter(|| simulate_baseline(&prog, &cfg.core, &LoopAnnotations::empty(), 10_000_000).cycles)
    });
}

fn bench_spt_sim(c: &mut Criterion) {
    let prog = parser_free_loop(300);
    let compiled = compile(&prog, &CompileOptions::default());
    let annots = LoopAnnotations {
        loops: compiled
            .loops
            .iter()
            .enumerate()
            .map(|(i, l)| spt_sim::LoopAnnot {
                id: i,
                func: l.func,
                blocks: vec![l.body_block],
                fork_start: Some(l.body_block),
            })
            .collect(),
    };
    c.bench_function("sim/spt_parser_300", |b| {
        b.iter(|| {
            SptSim::new(&compiled.program, MachineConfig::default(), annots.clone())
                .run(10_000_000)
                .cycles
        })
    });
}

fn bench_compile(c: &mut Criterion) {
    let w = benchmark("gccs", Scale::Test);
    c.bench_function("compiler/compile_gccs", |b| {
        b.iter(|| compile(&w.program, &CompileOptions::default()).loops.len())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_interpreter, bench_cursor_step, bench_cache,
              bench_baseline_sim, bench_spt_sim, bench_compile
}
criterion_main!(benches);
