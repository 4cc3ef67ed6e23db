//! Criterion bench for E13: the executed RTOS tier.
//!
//! Measures task-set lowering (compile + assemble + load), standalone
//! preemptive mission throughput (guest kernel + four workload tasks
//! on the bare machine), and the full in-network experiment, and prints
//! guest-cycle throughput figures.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use alia_core::experiments::{mission_tasks, rtos_exec_experiment};
use alia_core::prelude::rtos::exec::{build_guest_rtos, GuestRtosConfig};

fn bench_rtos_exec(c: &mut Criterion) {
    let tasks = mission_tasks();
    let standalone: Vec<_> = tasks.iter().filter(|t| t.tx_id.is_none()).cloned().collect();
    let config = GuestRtosConfig { tick_cycles: 2_000, total_ticks: 40, can: None };

    c.bench_function("rtos_lower_4_tasks", |b| {
        b.iter(|| build_guest_rtos(&standalone, &config).unwrap())
    });
    c.bench_function("rtos_mission_40_ticks", |b| {
        b.iter(|| {
            let mut g = build_guest_rtos(&standalone, &config).unwrap();
            g.machine.run(1_000_000)
        })
    });
    c.bench_function("rtos_network_e13", |b| b.iter(|| rtos_exec_experiment(8).unwrap()));

    // Guest-cycle throughput of the preempted mission, amortized over
    // repeated runs of one lowered image (snapshot-free: relower once,
    // rerun via fresh builds to keep runs independent).
    let mut g = build_guest_rtos(&standalone, &config).unwrap();
    let r = g.machine.run(1_000_000);
    let guest_cycles = r.cycles as f64;
    let runs = 50u32;
    let start = Instant::now();
    for _ in 0..runs {
        let mut g = build_guest_rtos(&standalone, &config).unwrap();
        g.machine.run(1_000_000);
    }
    let secs = start.elapsed().as_secs_f64();
    let mission_per_sec = f64::from(runs) / secs;
    let guest_mips = guest_cycles * f64::from(runs) / secs / 1.0e6;
    println!(
        "\nE13 executed RTOS: {guest_cycles:.0} guest cycles/mission, \
         {mission_per_sec:.1} missions/sec, {guest_mips:.1} guest Mcycles/sec \
         (lowering included)"
    );

    // Execution-only mission throughput: lower once, fork each run from
    // a snapshot so the wall clock measures pure simulation — the
    // number the execution paths (per-step interpreter and threaded
    // blocks) actually move.
    let snap = {
        let g = build_guest_rtos(&standalone, &config).unwrap();
        g.machine.snapshot()
    };
    let start = Instant::now();
    for _ in 0..runs {
        let mut m = snap.to_machine();
        m.run(1_000_000);
    }
    let exec_secs = start.elapsed().as_secs_f64();
    let exec_per_sec = f64::from(runs) / exec_secs;
    let exec_mcycles = guest_cycles * f64::from(runs) / exec_secs / 1.0e6;
    println!(
        "E13 executed RTOS (exec only, snapshot-forked): {exec_per_sec:.1} missions/sec, \
         {exec_mcycles:.1} guest Mcycles/sec"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_rtos_exec
}
criterion_main!(benches);
