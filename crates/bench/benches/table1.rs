//! Criterion bench for E1: cost of one Table 1 kernel run per
//! configuration (host-side throughput of the whole pipeline:
//! compile + simulate + verify).

use criterion::{criterion_group, criterion_main, Criterion};

use alia_core::prelude::codegen::CodegenOptions;
use alia_core::prelude::isa::IsaMode;
use alia_core::prelude::sim::MachineConfig;
use alia_core::prelude::workloads::autoindy;
use alia_core::run_kernel;

fn bench_table1(c: &mut Criterion) {
    let suite = autoindy();
    let kernel = suite.iter().find(|k| k.name == "puwmod").expect("kernel");
    let opts = CodegenOptions::default();
    let mut g = c.benchmark_group("table1");
    g.bench_function("puwmod_a32_arm7", |b| {
        b.iter(|| run_kernel(kernel, MachineConfig::arm7_like(IsaMode::A32), &opts, 7, 64).unwrap())
    });
    g.bench_function("puwmod_t16_arm7", |b| {
        b.iter(|| run_kernel(kernel, MachineConfig::arm7_like(IsaMode::T16), &opts, 7, 64).unwrap())
    });
    g.bench_function("puwmod_t2_m3", |b| {
        b.iter(|| run_kernel(kernel, MachineConfig::m3_like(), &opts, 7, 64).unwrap())
    });
    g.finish();
    // Regenerate the actual table once per bench invocation.
    let t = alia_core::experiments::table1(7, 64).expect("experiment");
    println!("\n{t}");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_table1
}
criterion_main!(benches);
