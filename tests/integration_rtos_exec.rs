//! Executed-RTOS integration: the preemptive guest kernel inside the
//! gateway network must be bit-identical across every scheduler knob,
//! and its standalone (bare-machine) missions must replay exactly.

use alia_core::experiments::{
    mission_tasks, rtos_exec_checksum, rtos_exec_experiment, rtos_exec_experiment_with,
};
use alia_core::prelude::rtos::exec::{build_guest_rtos, ExecStats, GuestRtosConfig, GuestTask};
use alia_core::prelude::sim::SystemConfig;

#[test]
fn preemption_traces_are_bit_identical_across_schedules() {
    // The RTOS ECU's cycle-stamped preemption trace (hash, spans,
    // responses), the sink checksum and every node clock must not move
    // across quantum sizes, node service orders and the idle-stretch.
    let baseline = rtos_exec_experiment(8).expect("completes");
    assert_eq!(baseline.checksum, rtos_exec_checksum(8, baseline.tx_frames));
    assert!(baseline.stats.trace_len > 0);
    assert!(baseline.preemptions() > 0, "sweep must exercise preemption");
    assert_eq!(baseline.node_cycles.len(), 6);
    for (quantum, rotate, stretch) in [
        (None, true, true),
        (None, false, false),
        (Some(41), false, true),
        (Some(97), true, false),
        (Some(131), false, true),
        (Some(1_000_000), false, true), // clamped to the min wire lookahead
    ] {
        let run = rtos_exec_experiment_with(
            8,
            SystemConfig { quantum, rotate_order: rotate, idle_stretch: stretch },
        )
        .expect("completes");
        let what = format!("q={quantum:?} r={rotate} s={stretch}");
        assert_eq!(run.stats, baseline.stats, "{what}: preemption trace moved");
        assert_eq!(run.bounds, baseline.bounds, "{what}: bound reports moved");
        assert_eq!(run.checksum, baseline.checksum, "{what}: sink checksum");
        assert_eq!(run.node_cycles, baseline.node_cycles, "{what}: node clocks");
        assert_eq!(run.frames_delivered, baseline.frames_delivered, "{what}");
        assert!(run.quanta > 0, "{what}: scheduler really quantized");
    }
}

#[test]
fn executed_bounds_hold_for_every_task_in_the_network() {
    let e = rtos_exec_experiment(8).expect("completes");
    assert!(e.stats.tasks.len() >= 3, "at least three preemptable tasks");
    for b in &e.bounds {
        assert!(
            b.margin >= 0,
            "{}: executed {} exceeds analytic bound {}",
            b.name,
            b.executed,
            b.bound
        );
    }
    for w in &e.wires {
        assert!(w.within_bounds(), "wire {}: {:?}", w.name, w.worst_latencies);
    }
}

#[test]
fn standalone_missions_replay_bit_identically() {
    // The same task set lowered twice onto bare machines (no network,
    // no system scheduler) produces byte-identical traces — and the
    // mission tasks E13 uses are themselves replayable without the
    // CAN-transmitting member.
    let tasks: Vec<GuestTask> =
        mission_tasks().into_iter().filter(|t| t.tx_id.is_none()).collect();
    let config = GuestRtosConfig { tick_cycles: 2_000, total_ticks: 30, can: None };
    let run = |tasks: &[GuestTask]| {
        let mut g = build_guest_rtos(tasks, &config).expect("build");
        g.machine.run(1_000_000);
        let stats = ExecStats::from_machine(&g.machine, &g.layout).expect("trace");
        (g.machine.mmio().trace.clone(), stats)
    };
    let (trace_a, stats_a) = run(&tasks);
    let (trace_b, stats_b) = run(&tasks);
    assert_eq!(trace_a, trace_b, "raw trace words diverged");
    assert_eq!(stats_a, stats_b);
    assert!(stats_a.tasks.iter().all(|t| t.completions > 0));
}
