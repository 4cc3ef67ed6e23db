//! Observability integration: the unified trace layer against the
//! whole stack. The semantic trace hash (every architectural category
//! — IRQ, WFI, wire, error, DMA, RTOS) must be bit-identical across
//! scheduler configurations, for the plain
//! gateway mission (E10), the fault-injected burst (E11), and the
//! executed-RTOS network (E13); with the category mask empty the same
//! missions must record nothing; the exporters must round-trip a real
//! mission trace; and campaign metrics must merge to the same snapshot
//! at any worker count.

use alia_core::experiments::{
    error_burst_experiment_traced, farm_experiment, gateway_experiment_traced,
    rtos_exec_experiment_traced,
};
use alia_core::prelude::can::Delivery;
use alia_core::prelude::isa::{Assembler, IsaMode};
use alia_core::prelude::obs::{category, chrome, metrics, vcd, EventKind, TraceSet};
use alia_core::prelude::sim::{
    CanConfig, DeviceSpec, DmaConfig, IrqLatency, Machine, MachineConfig, StopReason, System,
    SystemConfig, SystemStop, CAN_BASE, DMA_BASE, SRAM_BASE,
};

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
    for bit in [category::IRQ, category::WFI, category::WIRE, category::DMA] {
        assert!(cats & bit != 0, "missing {} events", category::name(bit));
    }
    // Conservative pacing splits blocks at quantum boundaries, so its
    // trace carries engine events too (event-driven quanta may not).
    let conservative = SystemConfig { idle_stretch: false, ..SystemConfig::default() };
    let (_, paced) = gateway_experiment_traced(16, conservative, category::ALL).expect("completes");
    let cats = categories(&paced);
    for bit in [category::IRQ, category::WFI, category::WIRE, category::DMA, category::TIER] {
        assert!(cats & bit != 0, "missing {} events at {conservative:?}", category::name(bit));
    }
    let hash = baseline.fnv_hash(category::SEMANTIC);
    for cfg in sweep_configs() {
        let (_, t) = gateway_experiment_traced(16, cfg, category::ALL).expect("completes");
        assert_eq!(t.fnv_hash(category::SEMANTIC), hash, "config {cfg:?}");
    }
    // Same configuration twice: even the engine-internal categories
    // (tier, block, sched) replay bit-identically.
    for (cfg, first) in [(SystemConfig::default(), &baseline), (conservative, &paced)] {
        let (_, again) = gateway_experiment_traced(16, cfg, category::ALL).expect("completes");
        assert_eq!(again.fnv_hash(category::ALL), first.fnv_hash(category::ALL), "config {cfg:?}");
    }
}

/// A gateway whose DMA route raises its IRQ on forward, with a
/// 200-cycle store-and-forward latency: a producer on wire `a` sends
/// one frame, the gateway (asleep in WFI, counting IRQ 3 in `r5`)
/// forwards it to a consumer on wire `b`. Checks that the gateway's
/// metrics publish, then returns its IRQ stamps and both wires'
/// delivery logs.
fn irq_on_forward_mission(cfg: SystemConfig) -> (Vec<IrqLatency>, Vec<Vec<Delivery>>) {
    let asm = |src: &str| Assembler::new(IsaMode::T2).assemble(src).expect("assembles").bytes;
    let boot = |config: MachineConfig, main: &str| {
        let mut m = Machine::new(config);
        m.load_flash(0x100, &asm(main));
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let mut sys = System::with_config(cfg);
    let wa = sys.add_wire("a", 4);
    let wb = sys.add_wire("b", 4);
    let mut pconf = MachineConfig::m3_like();
    pconf.devices = vec![DeviceSpec::SharedCan(
        CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
        wa.clone(),
    )];
    sys.add_node(
        "producer",
        boot(
            pconf,
            "movw r0, #0x2000
             movt r0, #0x4000
             movw r1, #0x123
             str r1, [r0, #0]
             mov r1, #1
             str r1, [r0, #4]
             str r1, [r0, #8]
             str r1, [r0, #16]
             bkpt #0",
        ),
    );
    let mut gconf = MachineConfig::m3_like();
    gconf.devices = vec![DeviceSpec::Dma(
        DmaConfig { base: DMA_BASE, irq: 3, node_a: 7, node_b: 7, latency: 0 },
        wa.clone(),
        wb.clone(),
    )];
    // Route 0: enable | A->B | IRQ on forward (0b101), ids 0x100..=0x1FF;
    // FWD_LATENCY 200.
    let mut gw = boot(
        gconf,
        "movw r0, #0x4000
         movt r0, #0x4000
         movw r1, #200
         str r1, [r0, #4]
         movw r1, #0x100
         str r1, [r0, #0x44]
         movw r1, #0x1FF
         str r1, [r0, #0x48]
         mov r1, #5
         str r1, [r0, #0x40]
         mov r1, #1
         str r1, [r0, #0]
         sleep: wfi
         cmp r5, #1
         blt sleep
         bkpt #3",
    );
    gw.load_flash(0x200, &asm("add r5, r5, #1\n bx lr"));
    gw.load_flash(12, &0x200u32.to_le_bytes()); // vector: DMA (irq 3)
    let gw_node = sys.add_node("gateway", gw);
    let mut cconf = MachineConfig::m3_like();
    cconf.devices = vec![DeviceSpec::SharedCan(
        CanConfig { base: CAN_BASE, irq: 1, node: 1, ..CanConfig::default() },
        wb.clone(),
    )];
    let mut consumer = boot(cconf, "wfi\n bkpt #1");
    consumer.load_flash(0x200, &asm("bx lr"));
    consumer.load_flash(4, &0x200u32.to_le_bytes()); // vector: CAN RX (irq 1)
    sys.add_node("consumer", consumer);

    let r = sys.run(1_000_000);
    assert_eq!(r.reason, SystemStop::AllHalted, "{cfg:?}");
    let gateway = sys.node(gw_node).machine();
    assert_eq!(sys.node(gw_node).halted(), Some(StopReason::Bkpt(3)), "{cfg:?}");
    // An IRQ taken before its assertion stamp made this underflow.
    let mut reg = metrics::Registry::new();
    gateway.publish_metrics(&mut reg, "gw.");
    assert_eq!(reg.snapshot().counter("gw.irq.taken"), Some(1), "{cfg:?}");
    (gateway.latencies().to_vec(), vec![wa.delivery_log(), wb.delivery_log()])
}

#[test]
fn irq_on_forward_is_taken_at_the_forward_across_the_sweep() {
    let (irqs, logs) = irq_on_forward_mission(SystemConfig::default());
    let [src, fwd] = [&logs[0][0], &logs[1][0]];
    assert_eq!(fwd.frame.id.raw(), 0x123, "forwarded unchanged");
    assert_eq!(irqs.len(), 1, "one forward, one IRQ");
    let irq = irqs[0];
    assert_eq!(irq.irq, 3);
    // The IRQ asserts at the forward's exact enqueue cycle (arrival +
    // latency), and the core takes it no earlier.
    assert_eq!(irq.pend_cycle, src.completed_at * 4 + 200);
    assert_eq!(fwd.enqueued_at, irq.pend_cycle / 4, "the forward it reports");
    assert!(
        irq.entry_cycle >= irq.pend_cycle,
        "taken at {} before {}",
        irq.entry_cycle,
        irq.pend_cycle
    );
    for cfg in sweep_configs() {
        assert_eq!(irq_on_forward_mission(cfg), (irqs.clone(), logs.clone()), "config {cfg:?}");
    }
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
fn mask_zero_missions_record_no_events() {
    // With the category mask empty every tracing site must stay silent:
    // node streams (CPU, IRQ, CAN and the DMA gateways' events) and the
    // scheduler's. Wire streams and "rtos.kernel" are synthesized from
    // the wire and kernel logs whatever the mask, so they are not
    // recordings and are skipped.
    let synthesized = ["sensor", "backbone", "actuator", "rtos.kernel"];
    let cfg = SystemConfig::default();
    let missions = [
        ("E10", gateway_experiment_traced(16, cfg, 0).expect("completes").1),
        ("E11", error_burst_experiment_traced(8, 11, cfg, 0).expect("completes").1),
        ("E13", rtos_exec_experiment_traced(8, cfg, 0).expect("completes").1),
    ];
    for (mission, set) in &missions {
        let recorded: Vec<_> =
            set.streams.iter().filter(|s| !synthesized.contains(&s.label.as_str())).collect();
        let labels: Vec<&str> = recorded.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"gw1") && labels.contains(&"scheduler"), "{mission}: {labels:?}");
        for s in recorded {
            assert!(
                s.events.is_empty(),
                "{mission}: stream {} recorded {} events with the category mask empty",
                s.label,
                s.events.len()
            );
        }
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
