//! Observability integration: the unified trace layer against the
//! whole stack. The semantic trace hash (every architectural category
//! — IRQ, WFI, wire, error, DMA, RTOS) must be bit-identical across
//! scheduler configurations, for the plain
//! gateway mission (E10), the fault-injected burst (E11), and the
//! executed-RTOS network (E13); the exporters must round-trip a real
//! mission trace; and campaign metrics must merge to the same snapshot
//! at any worker count.

use alia_core::experiments::{
    error_burst_experiment_traced, farm_experiment, gateway_experiment_traced,
    rtos_exec_experiment_traced,
};
use alia_core::prelude::obs::{category, chrome, vcd, EventKind, TraceSet};
use alia_core::prelude::sim::SystemConfig;

/// The scheduler sweep: quantum sizes through the middle of guest hot
/// loops, rotated service orders, and idle-stretch on and off — the
/// semantic trace stream must be bit-identical across all of it.
const SWEEP: [(Option<u64>, bool, bool); 6] = [
    (None, true, true),
    (None, false, false),
    (Some(41), false, true),
    (Some(97), true, false),
    (Some(131), false, true),
    (Some(1_000_000), false, true), // clamped to the min wire lookahead
];

fn sweep_configs() -> impl Iterator<Item = SystemConfig> {
    SWEEP
        .into_iter()
        .map(|(quantum, rotate_order, idle_stretch)| SystemConfig { quantum, rotate_order, idle_stretch })
}

/// The categories a trace exercises (union over all streams).
fn categories(set: &TraceSet) -> u32 {
    set.streams
        .iter()
        .flat_map(|s| s.events.iter())
        .fold(0, |acc, e| acc | e.kind.category())
}

#[test]
fn gateway_trace_is_bit_identical_across_the_sweep() {
    let (_, baseline) =
        gateway_experiment_traced(16, SystemConfig::default(), category::ALL).expect("completes");
    // The mission must actually light up the architectural categories
    // the hash pins — an empty trace is trivially "deterministic".
    let cats = categories(&baseline);
    for bit in [category::IRQ, category::WFI, category::WIRE, category::DMA, category::TIER] {
        assert!(cats & bit != 0, "missing {} events", category::name(bit));
    }
    let hash = baseline.fnv_hash(category::SEMANTIC);
    for cfg in sweep_configs() {
        let (_, t) = gateway_experiment_traced(16, cfg, category::ALL).expect("completes");
        assert_eq!(t.fnv_hash(category::SEMANTIC), hash, "config {cfg:?}");
    }
    // Same configuration twice: even the engine-internal categories
    // (tier, block, sched) replay bit-identically.
    let (_, again) =
        gateway_experiment_traced(16, SystemConfig::default(), category::ALL).expect("completes");
    assert_eq!(again.fnv_hash(category::ALL), baseline.fnv_hash(category::ALL));
}

#[test]
fn error_burst_trace_is_bit_identical_across_the_sweep_with_faults_active() {
    let (report, baseline) =
        error_burst_experiment_traced(8, 11, SystemConfig::default(), category::ALL)
            .expect("completes");
    assert!(report.consumed >= 1, "the burst must exercise real error frames");
    // Fault artifacts ride the trace: error frames (FrameTx with
    // data = false) and at least the stamps that drive them.
    let wire_errors = baseline
        .streams
        .iter()
        .flat_map(|s| s.events.iter())
        .filter(|e| matches!(e.kind, EventKind::FrameTx { data: false, .. }))
        .count();
    assert!(wire_errors >= 1, "error frames must appear in the wire streams");
    let hash = baseline.fnv_hash(category::SEMANTIC);
    for cfg in sweep_configs() {
        let (_, t) = error_burst_experiment_traced(8, 11, cfg, category::ALL).expect("completes");
        assert_eq!(t.fnv_hash(category::SEMANTIC), hash, "config {cfg:?}");
    }
}

#[test]
fn rtos_exec_trace_is_bit_identical_across_the_sweep() {
    let (_, baseline) =
        rtos_exec_experiment_traced(8, SystemConfig::default(), category::ALL).expect("completes");
    let kernel = baseline
        .streams
        .iter()
        .find(|s| s.label == "rtos.kernel")
        .expect("executed kernel stream present");
    assert!(
        kernel.events.iter().any(|e| matches!(e.kind, EventKind::Rtos { .. })),
        "kernel stream carries RTOS events"
    );
    let hash = baseline.fnv_hash(category::SEMANTIC);
    for cfg in sweep_configs() {
        let (_, t) = rtos_exec_experiment_traced(8, cfg, category::ALL).expect("completes");
        assert_eq!(t.fnv_hash(category::SEMANTIC), hash, "config {cfg:?}");
    }
}

#[test]
fn exporters_round_trip_a_real_mission_trace() {
    let (_, trace) =
        gateway_experiment_traced(16, SystemConfig::default(), category::ALL).expect("completes");
    // Chrome trace-event JSON: structurally valid, one process per
    // stream, and every retained event accounted for.
    let json = chrome::export(&trace);
    let summary = chrome::validate(&json).expect("exported chrome trace validates");
    assert_eq!(summary.processes.len(), trace.streams.len());
    assert_eq!(summary.instants + summary.completes, trace.total_events());
    // VCD: the derived waves survive export → parse exactly, and the
    // mission actually produces waves (sleep lines, wire ids).
    let signals = vcd::from_trace(&trace);
    assert!(signals.iter().any(|s| s.name.ends_with(".sleep")));
    assert!(signals.iter().any(|s| s.name.ends_with(".tx_id")));
    let parsed = vcd::parse(&vcd::export("1ns", "mission", &signals)).expect("parses");
    assert_eq!(parsed, signals);
}

#[test]
fn campaign_metrics_merge_identically_at_any_worker_count() {
    // The farm's merged snapshot folds per-run registries in key
    // order; counters add and gauges keep the max, so the fold is
    // associative + commutative and the worker count must not leak
    // into the totals.
    let one = farm_experiment(6, 8, 1).expect("completes");
    let four = farm_experiment(6, 8, 4).expect("completes");
    assert_eq!(one.digest, four.digest, "outcome digest is worker-count-independent");
    assert_eq!(one.metrics, four.metrics, "merged metrics are worker-count-independent");
    // The snapshot carries real campaign totals.
    let deliveries: u64 = one
        .metrics
        .entries
        .iter()
        .filter(|(n, _)| n.starts_with("wire.") && n.ends_with(".deliveries"))
        .filter_map(|(n, _)| one.metrics.counter(n))
        .sum();
    assert!(deliveries > 0, "campaign snapshot records wire deliveries");
}
