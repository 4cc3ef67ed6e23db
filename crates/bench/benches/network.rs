//! Criterion bench for E8/E10/E11: allocation study + §1/§4 table, the
//! executable multi-ECU exchange over the shared CAN wire, the 3-wire
//! gateway topology (multi-wire scheduling + DMA forwarding), and the
//! fault-injection degradation studies (error burst, babbling idiot).

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_network(c: &mut Criterion) {
    c.bench_function("virtual_multicore_8x4", |b| {
        b.iter(|| alia_core::experiments::network_experiment(8, 4).unwrap())
    });
    c.bench_function("multi_ecu_64_frames", |b| {
        b.iter(|| alia_core::experiments::multi_ecu_exchange(64).unwrap())
    });
    c.bench_function("gateway_3wire_16_frames", |b| {
        b.iter(|| alia_core::experiments::gateway_experiment(16).unwrap())
    });
    c.bench_function("error_burst_8_frames", |b| {
        b.iter(|| alia_core::experiments::error_burst_experiment(8, 11).unwrap())
    });
    c.bench_function("babbling_idiot_4_frames", |b| {
        b.iter(|| alia_core::experiments::babbling_idiot_experiment(4).unwrap())
    });
    let e = alia_core::experiments::network_experiment(8, 4).expect("experiment");
    println!("\n{e}");
    let m = alia_core::experiments::multi_ecu_exchange(64).expect("exchange");
    println!("\n{m}");
    let g = alia_core::experiments::gateway_experiment(16).expect("gateway topology");
    println!("\n{g}");
    assert_eq!(
        g.checksum,
        alia_core::experiments::gateway_checksum(16),
        "multi-wire scheduling must stay deterministic under the bench smoke"
    );

    let burst = alia_core::experiments::error_burst_experiment(8, 11).expect("burst");
    println!("\n{burst}");
    assert!(burst.graceful(), "fault smoke: burst degradation must stay graceful");
    let babble = alia_core::experiments::babbling_idiot_experiment(4).expect("babble");
    println!("\n{babble}");
    assert!(babble.contained(), "fault smoke: the babbler must be contained");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_network
}
criterion_main!(benches);
