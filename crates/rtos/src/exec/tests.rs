//! End-to-end tests of the executed RTOS tier on a bare machine.

use alia_obs::{EventKind, RtosEventKind, TraceEvent};
use alia_sim::{Machine, StopReason, MMIO_TRACE};

use super::{build_guest_rtos, decode_trace, ExecStats, GuestRtos, GuestRtosConfig, GuestTask};

fn three_task_set() -> Vec<GuestTask> {
    // Highest priority first; the low-priority matrix job is sized to
    // straddle several ticks so real preemptions occur.
    vec![
        GuestTask::new("rspeed", 4, 8),
        GuestTask::new("a2time", 6, 8).with_offset(1),
        GuestTask::new("matrix", 12, 4).with_offset(2),
    ]
}

fn mission(tasks: &[GuestTask], tick_cycles: u32, total_ticks: u32) -> (GuestRtos, ExecStats) {
    let config = GuestRtosConfig { tick_cycles, total_ticks, can: None };
    let mut guest = build_guest_rtos(tasks, &config).expect("build");
    let horizon = u64::from(tick_cycles) * u64::from(total_ticks) * 4 + 1_000_000;
    let result = guest.machine.run(horizon);
    assert_eq!(
        result.reason,
        StopReason::MmioExit(guest.layout.expected_exit),
        "mission must drain and exit with the summed checksum accumulators"
    );
    let stats = ExecStats::from_machine(&guest.machine, &guest.layout).expect("trace consistent");
    (guest, stats)
}

#[test]
fn mission_completes_every_activation() {
    let tasks = three_task_set();
    let (guest, stats) = mission(&tasks, 2_000, 40);
    for (t, l) in stats.tasks.iter().zip(&guest.layout.tasks) {
        assert_eq!(t.activations, l.expected_activations, "{}", t.name);
        assert_eq!(t.completions, t.activations, "{}", t.name);
        assert_eq!(t.overruns, 0, "{}", t.name);
    }
    assert_eq!(stats.tick_fires.len() as u32, guest.layout.total_ticks);
}

#[test]
fn preemption_is_transparent_to_task_state() {
    // The accumulator equals completions x reference checksum only if
    // every preempted job resumed with intact registers and memory.
    let (_, stats) = mission(&three_task_set(), 2_000, 40);
    for t in &stats.tasks {
        assert_eq!(t.acc, t.expected_acc, "{}: checksum accumulator corrupted", t.name);
    }
    assert!(
        stats.tasks[2].preemptions > 0,
        "the long low-priority job must actually get preempted (got {:?})",
        stats.tasks.iter().map(|t| t.preemptions).collect::<Vec<_>>()
    );
}

#[test]
fn timer_fires_are_exactly_periodic() {
    let (guest, stats) = mission(&three_task_set(), 2_000, 40);
    let period = u64::from(guest.layout.tick_cycles);
    for w in stats.tick_fires.windows(2) {
        assert_eq!(w[1] - w[0], period, "tick fires must be back-to-back periodic");
    }
}

#[test]
fn executed_responses_stay_within_analytic_bounds() {
    let (guest, stats) = mission(&three_task_set(), 2_000, 40);
    let reports = stats.validate_bounds(&guest.layout).expect("analysis converges");
    assert_eq!(reports.len(), 3);
    for r in &reports {
        assert!(
            r.margin >= 0,
            "{}: executed {} exceeds analytic bound {}",
            r.name,
            r.executed,
            r.bound
        );
        assert!(r.executed > 0, "{}: response must be measured", r.name);
    }
}

#[test]
fn repeat_runs_are_bit_identical() {
    let (_, a) = mission(&three_task_set(), 2_000, 40);
    let (_, b) = mission(&three_task_set(), 2_000, 40);
    assert_eq!(a, b);
    assert!(a.trace_len > 0);
}

#[test]
fn mission_is_identical_with_the_engine_off() {
    // The per-step reference (the block engine off) against the engine
    // on: the run result, every IRQ latency and the distilled stats,
    // trace hash included, must be identical.
    let config = GuestRtosConfig { tick_cycles: 2_000, total_ticks: 40, can: None };
    let run = |engine: bool| {
        let mut guest = build_guest_rtos(&three_task_set(), &config).expect("build");
        guest.machine.set_predecode_enabled(engine);
        let result = guest.machine.run(1_000_000);
        assert_eq!(result.reason, StopReason::MmioExit(guest.layout.expected_exit));
        let stats =
            ExecStats::from_machine(&guest.machine, &guest.layout).expect("trace consistent");
        (result, stats, guest.machine)
    };
    let (r_on, stats_on, on) = run(true);
    let (r_off, stats_off, off) = run(false);
    assert_eq!(r_on, r_off, "run result");
    assert_eq!(on.latencies(), off.latencies(), "IRQ latencies");
    assert_eq!(stats_on, stats_off, "exec stats");
    assert!(on.predecode_stats().block_hits > 0, "the engine-on run must dispatch blocks");
    assert_eq!(off.predecode_stats().block_hits, 0, "the reference dispatched blocks");
}

#[test]
fn single_task_runs_unpreempted() {
    let tasks = vec![GuestTask::new("tblook", 5, 8)];
    let (_, stats) = mission(&tasks, 3_000, 30);
    assert_eq!(stats.tasks[0].preemptions, 0);
    assert!(stats.tasks[0].completions > 0);
    assert_eq!(stats.tasks[0].acc, stats.tasks[0].expected_acc);
}

#[test]
fn trace_decodes_with_expected_structure() {
    let (guest, _) = mission(&three_task_set(), 2_000, 40);
    let events = decode_trace(&guest.machine.mmio().trace).unwrap();
    let records: Vec<(RtosEventKind, u32)> = events
        .iter()
        .map(|e| match e.kind {
            EventKind::Rtos { kind, payload, .. } => (kind, payload),
            other => panic!("non-RTOS event {other:?}"),
        })
        .collect();
    let ticks = records.iter().filter(|r| r.0 == RtosEventKind::TickEnter).count();
    assert_eq!(ticks as u32, guest.layout.total_ticks);
    // Tick numbers in the payload count 1..=total.
    let last = records.iter().rev().find(|r| r.0 == RtosEventKind::TickEnter).unwrap();
    assert_eq!(last.1, guest.layout.total_ticks);
    let dispatches = records.iter().filter(|r| r.0 == RtosEventKind::Start).count();
    let completes = records.iter().filter(|r| r.0 == RtosEventKind::Complete).count();
    assert!(dispatches >= completes);
}

#[test]
fn trace_words_decode_to_the_obs_taxonomy() {
    use RtosEventKind as K;
    // (kind code, kind, carries the task nibble)
    let table = [
        (1, K::Activate, true),
        (2, K::Start, true),
        (3, K::Preempt, true),
        (4, K::Complete, true),
        (5, K::TickEnter, false),
        (6, K::TickExit, false),
        (7, K::SchedEnter, false),
        (8, K::SchedExit, false),
        (9, K::Idle, false),
        (10, K::Overrun, true),
    ];
    for (code, kind, per_task) in table {
        // Task nibble 0x5; the payload is the low 24 bits.
        let value = code << 28 | 0x5 << 24 | 0x00AB_CDEF;
        let events = decode_trace(&[(value, 42)]).unwrap();
        let task = if per_task { 0x5 } else { 0xFF };
        assert_eq!(
            events,
            vec![TraceEvent { cycle: 42, kind: EventKind::Rtos { kind, task, payload: 0x00AB_CDEF } }],
            "code {code}"
        );
    }
    for code in [0u32, 11, 12, 13, 14, 15] {
        assert!(decode_trace(&[(code << 28, 0)]).is_err(), "code {code} must be rejected");
    }
}

#[test]
fn activations_accounting_matches_closed_form() {
    let t = GuestTask::new("rspeed", 4, 8).with_offset(1);
    // Releases on ticks 2, 6, 10, ... strictly below the final tick.
    assert_eq!(t.activations(40), 10);
    assert_eq!(t.activations(3), 1);
    assert_eq!(t.activations(2), 0);
    assert_eq!(GuestTask::new("rspeed", 1, 8).activations(5), 4);
}

#[test]
fn builder_rejects_bad_configs() {
    let ok = GuestRtosConfig { tick_cycles: 2_000, total_ticks: 10, can: None };
    assert!(build_guest_rtos(&[], &ok).is_err(), "empty set");
    let unknown = vec![GuestTask::new("nosuch", 2, 4)];
    assert!(build_guest_rtos(&unknown, &ok).is_err(), "unknown kernel");
    let tx = vec![GuestTask::new("rspeed", 2, 4).with_tx(0x120)];
    assert!(build_guest_rtos(&tx, &ok).is_err(), "tx without CAN port");
    let tiny = GuestRtosConfig { tick_cycles: 10, total_ticks: 10, can: None };
    assert!(build_guest_rtos(&three_task_set(), &tiny).is_err(), "tick too small");
}

#[test]
fn stats_reject_foreign_machines() {
    let config = GuestRtosConfig { tick_cycles: 2_000, total_ticks: 10, can: None };
    let guest = build_guest_rtos(&three_task_set(), &config).unwrap();
    // A fresh machine has no trace and zeroed TCBs: structurally empty
    // stats (no activations) — not an error — but a machine with a
    // garbage trace word must be rejected.
    let mut foreign = Machine::m3_like();
    foreign.bus_write(MMIO_TRACE, 4, 0xF000_0000).expect("MMIO trace register is mapped");
    assert!(ExecStats::from_machine(&foreign, &guest.layout).is_err());
}

/// The E13 guest kernel image, pinned by length, FNV-1a and entry
/// points: at E13's own parameters (a tick every 2000 cycles; idle stack
/// below the four-task in-network set and the three-task standalone
/// set), and at the extremes of both inputs the `movw`/`movt` fix-ups
/// depend on (`tick_cycles` 100 and 65535; 1 and 8 tasks). An assembler
/// or kernel-generator change must not move a byte of it.
#[test]
fn e13_kernel_image_is_pinned() {
    use super::kernel_asm::{assemble_kernel, KernelParams};
    use super::{KERNEL_BASE, STACK_BASE, STACK_STRIDE};

    // (tasks, tick_cycles, length, FNV-1a, [main, tick, sched])
    let expected: [(u32, u32, usize, u64, [u32; 3]); 6] = [
        (4, 2_000, 0x454, 0x8bd1_4475_c57f_3667, [0x100, 0x1e4, 0x3e0]),
        (3, 2_000, 0x454, 0x0536_358e_578c_82e7, [0x100, 0x1e4, 0x3e0]),
        (1, 2_000, 0x454, 0x0572_e199_f8d6_8fe7, [0x100, 0x1e4, 0x3e0]),
        (8, 2_000, 0x454, 0xb5da_3ec2_8345_bee7, [0x100, 0x1e4, 0x3e0]),
        (3, 100, 0x454, 0x7834_5a7a_057e_9b74, [0x100, 0x1e4, 0x3e0]),
        (3, 65_535, 0x454, 0x57ac_30e8_e92e_c770, [0x100, 0x1e4, 0x3e0]),
    ];
    let actual: Vec<_> = expected
        .iter()
        .map(|&(tasks, tick_cycles, ..)| {
            let k = assemble_kernel(&KernelParams {
                base: KERNEL_BASE,
                tick_cycles,
                idle_stack_top: STACK_BASE - tasks * STACK_STRIDE,
            })
            .expect("kernel assembles");
            let mut fnv = alia_obs::Fnv::default();
            for &b in &k.bytes {
                fnv.u64(u64::from(b));
            }
            (
                tasks,
                tick_cycles,
                k.bytes.len(),
                fnv.finish(),
                [k.main, k.tick_handler, k.sched_handler],
            )
        })
        .collect();
    assert_eq!(actual, expected, "{actual:#x?}");
}

/// A fix-up site must hold its placeholder pair: a corrupted one, or one
/// already resolved, is an error rather than a silent overwrite.
#[test]
fn kernel_fixups_check_their_placeholder_pairs() {
    use super::kernel_asm::{resolve_fixups, source, KernelParams};
    use super::{KERNEL_BASE, STACK_BASE};
    use alia_isa::{Assembler, IsaMode};

    let params = KernelParams { base: KERNEL_BASE, tick_cycles: 2_000, idle_stack_top: STACK_BASE };
    let assemble = || Assembler::new(IsaMode::T2).assemble(&source(&params)).unwrap();
    let mut corrupted = assemble();
    let at = corrupted.symbols["sv_fix_idle"] as usize;
    corrupted.bytes[at + 5] ^= 1;
    assert_eq!(
        resolve_fixups(&mut corrupted, KERNEL_BASE),
        Err("fix-up `sv_fix_idle` does not hold `movw`/`movt r12, #0`".to_string())
    );
    let mut resolved = assemble();
    resolve_fixups(&mut resolved, KERNEL_BASE).unwrap();
    assert!(resolve_fixups(&mut resolved, KERNEL_BASE).is_err(), "resolved twice");
}
