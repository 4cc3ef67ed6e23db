//! Multi-ECU integration: the `System` scheduler, the shared CAN wire
//! and the watchdog against the whole stack — guest programs, the
//! interrupt machinery, and the analytic side (RTA bounds over the
//! traffic the exchange actually produced).

use alia_core::experiments::{
    gateway_checksum, gateway_experiment, gateway_experiment_with, guest_can_exchange_checksum,
    multi_ecu_exchange, multi_ecu_watchdog,
};
use alia_core::prelude::*;
use can::{can_response_times, CanMessage};

#[test]
fn two_ecus_exchange_64_frames_guest_to_guest() {
    // The PR's acceptance scenario: >= 64 frames over the shared wire,
    // deterministic checksum, both nodes halting cleanly.
    let e = multi_ecu_exchange(64).expect("exchange completes");
    assert_eq!(e.frames_sent, 64);
    assert_eq!(e.frames_received, 64);
    assert_eq!(e.checksum, guest_can_exchange_checksum(64));
    assert_eq!(e.delivery_log.len(), 64);
    // Deliveries complete in time order and strictly after their
    // predecessors (one wire, non-preemptive frames).
    assert!(e.delivery_log.windows(2).all(|w| w[0].1 < w[1].1));
}

// Scheduler determinism (quantum sizes, node orderings) is covered by
// the six-configuration sweep in
// `alia_core::experiments::network::tests::multi_ecu_schedule_is_deterministic`.

#[test]
fn block_engine_keeps_quantum_size_independence() {
    // The block engine must never execute past a quantum boundary: with
    // chaining on (the default), per-node cycles, registers, IRQ stamps
    // and the delivery log must stay bit-identical across quantum sizes
    // — and identical to the uncached per-step reference (the engine
    // disabled on every node). The quantum sweep moves the `run_until`
    // bounds through the middle of the guests' hot blocks.
    use alia_core::prelude::sim::{
        CanConfig, DeviceSpec, Machine, MachineConfig, SharedCanBus, System, SystemConfig,
        SystemStop, TimerConfig, CAN_BASE, SRAM_BASE, TIMER_BASE,
    };
    use isa::{Assembler, IsaMode};

    let asm = |src: &str| Assembler::new(IsaMode::T2).assemble(src).unwrap().bytes;
    let build = |quantum: Option<u64>, blocks: bool| -> System {
        let mut sys = System::with_config(SystemConfig {
            quantum,
            ..SystemConfig::default()
        });
        let wire: SharedCanBus = sys.add_wire("can0", 4);
        let mut pconf = MachineConfig::m3_like();
        pconf.predecode = blocks;
        pconf.devices = vec![
            DeviceSpec::Timer(TimerConfig { base: TIMER_BASE, irq: 0, compare: 700 }),
            DeviceSpec::SharedCan(
                CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
                wire.clone(),
            ),
        ];
        let main_p = asm(
            "movw r0, #0x1000
             movt r0, #0x4000
             movw r1, #700
             str r1, [r0, #4]
             mov r1, #3
             str r1, [r0, #0]
             spin: add r3, r3, #1
             eor r5, r5, r3
             cmp r4, #8
             blt spin
             movw r0, #0
             movt r0, #0x4000
             str r4, [r0, #0]
             halt: b halt",
        );
        let tx_handler = asm(
            "movw r0, #0x2000
             movt r0, #0x4000
             cmp r4, #8
             bge done
             movw r1, #0x80
             add r1, r1, r4
             str r1, [r0, #0]
             mov r1, #4
             str r1, [r0, #4]
             str r3, [r0, #8]
             mov r1, #0
             str r1, [r0, #16]
             add r4, r4, #1
             done: bx lr",
        );
        let mut p = Machine::new(pconf);
        p.load_flash(0x100, &main_p);
        p.load_flash(0x200, &tx_handler);
        p.load_flash(0, &0x200u32.to_le_bytes());
        p.set_pc(0x100);
        p.cpu.set_sp(SRAM_BASE + 0x8000);
        sys.add_node("producer", p);

        let mut cconf = MachineConfig::m3_like();
        cconf.predecode = blocks;
        cconf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 1, ..CanConfig::default() },
            wire.clone(),
        )];
        let main_c = asm(
            "spin: add r3, r3, #1
             cmp r7, #8
             blt spin
             movw r0, #0
             movt r0, #0x4000
             str r6, [r0, #0]
             halt: b halt",
        );
        let rx_handler = asm(
            "movw r0, #0x2000
             movt r0, #0x4000
             rxloop: ldr r1, [r0, #20]
             cmp r1, #0
             beq rxdone
             ldr r1, [r0, #24]
             add r6, r6, r1
             ldr r1, [r0, #32]
             add r6, r6, r1
             str r1, [r0, #40]
             add r7, r7, #1
             b rxloop
             rxdone: bx lr",
        );
        let mut c = Machine::new(cconf);
        c.load_flash(0x100, &main_c);
        c.load_flash(0x200, &rx_handler);
        c.load_flash(4, &0x200u32.to_le_bytes());
        c.set_pc(0x100);
        c.cpu.set_sp(SRAM_BASE + 0x8000);
        sys.add_node("consumer", c);
        sys
    };

    let mut baseline = build(None, false); // per-step, default quanta
    let rb = baseline.run(10_000_000);
    assert_eq!(rb.reason, SystemStop::AllHalted);
    for (quantum, blocks) in [
        (None, true),
        (Some(41), true),
        (Some(97), true),
        (Some(150), true),
        (Some(1_000_000), true), // clamped to the wire lookahead
        (Some(97), false),
    ] {
        let mut sys = build(quantum, blocks);
        let r = sys.run(10_000_000);
        let what = format!("quantum={quantum:?} blocks={blocks}");
        assert_eq!(r.reason, rb.reason, "{what}");
        for i in 0..2 {
            assert_eq!(
                sys.node(i).halted(),
                baseline.node(i).halted(),
                "{what}: node {i} verdict"
            );
            assert_eq!(
                sys.node(i).cycles(),
                baseline.node(i).cycles(),
                "{what}: node {i} cycles"
            );
            assert_eq!(
                sys.node(i).machine().cpu.regs,
                baseline.node(i).machine().cpu.regs,
                "{what}: node {i} registers"
            );
            assert_eq!(
                sys.node(i).machine().latencies(),
                baseline.node(i).machine().latencies(),
                "{what}: node {i} IRQ stamps"
            );
        }
        assert_eq!(
            sys.wire_named("can0").unwrap().delivery_log(),
            baseline.wire_named("can0").unwrap().delivery_log(),
            "{what}: delivery log"
        );
        if blocks {
            let stats = sys.node(0).machine().predecode_stats();
            assert!(
                stats.block_hits > 0,
                "{what}: the producer's spin must dispatch blocks"
            );
        }
    }
}

#[test]
fn exchange_traffic_stays_within_its_analytic_bound() {
    // The producer ships one 4-byte frame every 600 cycles = 150 bit
    // times; CAN RTA for that single stream must bound the worst
    // latency the simulated wire actually produced.
    let e = multi_ecu_exchange(64).expect("completes");
    let stream = [CanMessage {
        id: 0x100,
        dlc: 4,
        extended: false,
        period: 150,
        jitter: 0,
        deadline: 150,
    }];
    let rta = can_response_times(&stream);
    assert!(rta[0].schedulable);
    let bound = rta[0].response.expect("bounded");
    // Per-frame wire latency from the delivery log: completion spacing
    // never exceeds the analytic response time plus the period.
    for pair in e.delivery_log.windows(2) {
        let gap_bits = (pair[1].1 - pair[0].1) / 4; // cycles -> bit times
        assert!(
            gap_bits <= bound + 150,
            "delivery gap {gap_bits} exceeds bound {bound} + period"
        );
    }
}

#[test]
fn gateway_topology_crosses_three_wires_cycle_exactly() {
    // The multi-bus acceptance scenario: frames originate on the sensor
    // wire and arrive on the actuator wire, DMA-forwarded twice and
    // id-rewritten per hop, with cycle-exact delivery stamps on every
    // wire.
    let e = gateway_experiment(12).expect("topology completes");
    assert_eq!(e.frames_delivered, 24);
    assert_eq!(e.checksum, gateway_checksum(12));
    assert_eq!(e.forwards, [24, 24], "both gateways forwarded every frame");
    assert_eq!(e.delivery_logs.len(), 3);
    // Per-wire id bands prove the rewrite happened at each hop.
    for (log, band) in e.delivery_logs.iter().zip([0x100u32, 0x300, 0x500]) {
        assert_eq!(log.len(), 24);
        assert!(
            log.iter().all(|(id, _)| *id == band || *id == band + 0x40),
            "wire band {band:#x}: {log:?}"
        );
        // Stamps are strictly increasing on one non-preemptive wire.
        assert!(log.windows(2).all(|w| w[0].1 < w[1].1));
    }
    // Causality: each hop's completion stamps trail the previous wire's.
    for k in 0..24 {
        assert!(e.delivery_logs[0][k].1 < e.delivery_logs[1][k].1);
        assert!(e.delivery_logs[1][k].1 < e.delivery_logs[2][k].1);
    }
}

#[test]
fn gateway_topology_is_deterministic_across_schedules() {
    // Per-node clocks, the sink checksum, every wire's delivery log,
    // the forward counters and the end-to-end latencies must be
    // bit-identical across quantum sizes, node service orders and the
    // idle-stretch — the multi-wire extension of the single-wire
    // determinism sweep.
    use alia_core::prelude::sim::SystemConfig;
    let baseline = gateway_experiment(10).expect("completes");
    assert_eq!(baseline.checksum, gateway_checksum(10));
    // Every node's clock is part of the signature — including the
    // gateways, which settle as parked-idle: the scheduler normalizes
    // parked clocks to the architectural sleep-entry cycle at
    // quiescence, so no exclusions are needed.
    assert_eq!(baseline.node_cycles.len(), 5);
    assert!(baseline.node_cycles.iter().all(|&c| c > 0), "all clocks architectural");
    for (quantum, rotate, stretch) in [
        (None, true, true),
        (None, false, false),
        (Some(41), false, true),
        (Some(97), true, false),
        (Some(131), false, true),
        (Some(1_000_000), false, true), // clamped to the min wire lookahead
    ] {
        let run = gateway_experiment_with(
            10,
            SystemConfig { quantum, rotate_order: rotate, idle_stretch: stretch },
        )
        .expect("completes");
        let what = format!("q={quantum:?} r={rotate} s={stretch}");
        assert_eq!(run.checksum, baseline.checksum, "{what}");
        assert_eq!(run.node_cycles, baseline.node_cycles, "{what}: node clocks");
        assert_eq!(run.delivery_logs, baseline.delivery_logs, "{what}: wire logs");
        assert_eq!(run.forwards, baseline.forwards, "{what}: forward counters");
        assert_eq!(run.end_to_end, baseline.end_to_end, "{what}: end-to-end");
        assert_eq!(run.frames_delivered, baseline.frames_delivered, "{what}");
    }
}

#[test]
fn gateway_scheduler_work_is_pinned_exactly() {
    // An exact gate on the scheduler's work counter, host-independent:
    // E10 at 16 frames takes exactly this many quanta with event-driven
    // boundaries, and exactly the conservative pacing count without
    // them. A quantum override caps the event-driven margin, so it
    // lands strictly in between — and none of it moves a result.
    use alia_core::prelude::sim::SystemConfig;
    const EVENT_DRIVEN: u64 = 129;
    const CONSERVATIVE: u64 = 363;
    let event = gateway_experiment_with(16, SystemConfig::default()).expect("completes");
    let paced = gateway_experiment_with(
        16,
        SystemConfig { idle_stretch: false, ..SystemConfig::default() },
    )
    .expect("completes");
    let capped = gateway_experiment_with(
        16,
        SystemConfig { quantum: Some(41), ..SystemConfig::default() },
    )
    .expect("completes");
    assert_eq!(event.quanta, EVENT_DRIVEN, "event-driven quanta");
    assert_eq!(paced.quanta, CONSERVATIVE, "conservative quanta");
    assert!(
        EVENT_DRIVEN < capped.quanta && capped.quanta < CONSERVATIVE,
        "a capped margin still varies the schedule: {} quanta",
        capped.quanta
    );
    assert_eq!(event.checksum, gateway_checksum(16));
    for run in [&paced, &capped] {
        assert_eq!(run.checksum, event.checksum);
        assert_eq!(run.node_cycles, event.node_cycles, "node clocks");
        assert_eq!(run.delivery_logs, event.delivery_logs, "wire logs");
    }
}

#[test]
fn gateway_traffic_stays_within_rta_bounds_on_every_wire() {
    // Executed worst latencies never exceed the per-wire analytic
    // response bounds (jitter inherited hop by hop), and executed
    // utilization lands within tolerance of the analytic offered load.
    let e = gateway_experiment(16).expect("completes");
    for w in &e.wires {
        assert!(w.schedulable, "wire {}: analytic set must be schedulable", w.name);
        assert!(
            w.within_bounds(),
            "wire {}: executed latency exceeded its bound: {:?}",
            w.name,
            w.worst_latencies
        );
        assert_eq!(w.worst_latencies.len(), 2, "wire {}: both streams observed", w.name);
        assert!(
            w.utilization >= 0.4 * w.analytic_utilization
                && w.utilization <= 1.5 * w.analytic_utilization,
            "wire {}: executed utilization {:.3} vs analytic {:.3}",
            w.name,
            w.utilization,
            w.analytic_utilization
        );
    }
    // The backbone runs twice as fast: its analytic utilization must be
    // about half the edge wires'.
    assert!(e.wires[1].analytic_utilization < e.wires[0].analytic_utilization);
}

#[test]
fn watchdog_scenarios_cover_both_verdicts() {
    let stalled = multi_ecu_watchdog(48, 9).expect("completes");
    assert!(stalled.stall_detected);
    assert_eq!(stalled.frames_received, 9);
    assert_eq!(stalled.consumer_code, 0xDEAD_0000 | 9);

    let healthy = multi_ecu_watchdog(48, 48).expect("completes");
    assert!(!healthy.stall_detected);
    assert_eq!(healthy.consumer_code, guest_can_exchange_checksum(48));
    assert_eq!(healthy.watchdog_bites, 0);
}
