//! Criterion bench for E12: the simulation farm's host-side scaling.
//!
//! Measures campaign throughput (forked soft-error runs per second) at
//! 1/2/4/8 workers over one shared base snapshot, prints the curve, and
//! cross-checks that the merged summary is identical at every worker
//! count. The 4-worker speedup is the farm's headline number; it is
//! asserted (≥2.5×) only when the host actually has 4 cores to offer —
//! on smaller hosts the curve is printed as measured and flagged in the
//! log.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use alia_core::experiments::farm_experiment;

/// Soft-error runs per scaling measurement — enough work to amortize
/// the base-topology build the experiment repeats per call.
const SCALE_RUNS: u32 = 96;

fn bench_campaign(c: &mut Criterion) {
    c.bench_function("farm_flip_24_runs_4t", |b| {
        b.iter(|| farm_experiment(24, 0, 4).unwrap())
    });
    c.bench_function("farm_sweep_8_runs_4t", |b| {
        b.iter(|| farm_experiment(0, 8, 4).unwrap())
    });

    let mut runs_per_sec = Vec::new();
    let mut summaries = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        // Best of three timed passes per worker count: the campaigns
        // are tens of milliseconds, so a single sample is at the mercy
        // of host scheduling noise.
        let mut best = 0.0f64;
        for pass in 0..3 {
            let start = Instant::now();
            let e = farm_experiment(SCALE_RUNS, 0, threads).expect("farm campaign");
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(e.flip.total(), SCALE_RUNS);
            best = best.max(f64::from(SCALE_RUNS) / secs);
            if pass == 0 {
                summaries.push(e);
            }
        }
        runs_per_sec.push((threads, best));
    }
    assert!(
        summaries.windows(2).all(|w| w[0] == w[1]),
        "the merged campaign summary must be identical at every worker count"
    );

    let rps_1t = runs_per_sec[0].1;
    let rps_4t = runs_per_sec[2].1;
    let speedup_4t = rps_4t / rps_1t;
    let host_cores =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("\nE12 farm scaling ({SCALE_RUNS} soft-error runs, {host_cores} host cores):");
    for &(threads, rps) in &runs_per_sec {
        println!("  {threads} worker(s): {rps:8.1} runs/sec ({:.2}x)", rps / rps_1t);
    }
    if host_cores >= 4 {
        assert!(
            speedup_4t >= 2.5,
            "4-worker campaign must scale at least 2.5x on a {host_cores}-core host \
             (measured {speedup_4t:.2}x)"
        );
    } else {
        println!("  ({host_cores} core(s) — speedup gate needs 4, printed as measured)");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_campaign
}
criterion_main!(benches);
