//! E13 — the executed RTOS tier inside the gateway network.
//!
//! E10 ([`crate::experiments::gateway_experiment`]) runs the 3-wire
//! body network with single-loop guest firmware on every ECU. This
//! experiment replaces one edge node with a *preemptive* ECU: a
//! [`alia_rtos::exec`] guest kernel multiplexes four workload-kernel
//! tasks under timer-driven fixed-priority scheduling, and one of them
//! ships a CAN frame per completion onto the sensor wire, through both
//! gateways, to the sink.
//!
//! ```text
//! sensor0 ─┐
//! sensor1 ─┼─ sensor wire ── gw1 ── backbone ── gw2 ── actuator wire ── sink
//! rtos ECU ┘   (cpb 4)              (cpb 2)             (cpb 4)
//! ```
//!
//! The validation composes both analysis layers the paper's tooling
//! story rests on:
//!
//! 1. **CPU level** — every task's executed worst-case response (from
//!    the cycle-stamped preemption trace) must stay within the
//!    [`alia_rtos::response_time_analysis`] bound built from measured
//!    execution times and handler spans.
//! 2. **Network level** — the TX task's *CPU response bound* becomes
//!    the release jitter of its CAN stream (holistic composition), and
//!    every wire's executed worst latency must stay within the
//!    [`alia_can`] bus-level RTA bound.

use std::fmt;

use alia_can::{response_bound, CanMessage};
use alia_rtos::exec::{
    build_guest_rtos, decode_trace, BoundReport, CanPort, ExecStats, GuestRtos,
    GuestRtosConfig, GuestTask,
};
use alia_sim::{
    CanController, MachineConfig, Node, StopReason, System, SystemConfig, SystemStop,
};

use super::gateway::{
    asm_err, gateway_checksum, sensor_machine, gateway_machine, sink_machine, wire_report,
    wire_streams, WireReport, BACKBONE_CPB, EDGE_CPB, FWD_LATENCY, PERIOD_CYCLES, SENSOR_IDS,
};
use crate::CoreError;

/// CAN id of the RTOS ECU's TX task on the sensor wire — inside gw1's
/// `0x100..=0x17F` route window, so its frames reach the sink as
/// `0x520`.
pub const RTOS_TX_ID: u32 = 0x120;
/// Preemption tick period of the RTOS ECU, cycles.
pub const TICK_CYCLES: u32 = 2_000;
/// Mission length of the RTOS ECU, ticks.
pub const TOTAL_TICKS: u32 = 40;
/// Node id of the RTOS ECU on the sensor wire (sensors are 0/1).
const RTOS_NODE: usize = 2;

/// The four-task mission set lowered onto the RTOS ECU, highest
/// priority first. `canrdr` ships one frame per completion; `matrix`
/// is sized to straddle several ticks so real preemptions occur.
#[must_use]
pub fn mission_tasks() -> Vec<GuestTask> {
    vec![
        GuestTask::new("rspeed", 4, 8),
        GuestTask::new("a2time", 6, 8).with_offset(1),
        GuestTask::new("canrdr", 6, 8).with_offset(3).with_tx(RTOS_TX_ID),
        GuestTask::new("matrix", 12, 4).with_offset(2),
    ]
}

/// The E13 result: executed-vs-analytic at both layers.
#[derive(Debug, Clone, PartialEq)]
pub struct RtosExecExperiment {
    /// Frames each plain sensor was asked to ship.
    pub frames: u32,
    /// Frames the TX task shipped (one per completion).
    pub tx_frames: u32,
    /// Per-task executed worst response vs analytic bound.
    pub bounds: Vec<BoundReport>,
    /// Full decoded trace statistics of the RTOS ECU (the determinism
    /// signature: includes the FNV hash of the raw trace).
    pub stats: ExecStats,
    /// The sink's checksum (must equal [`rtos_exec_checksum`]).
    pub checksum: u32,
    /// Frames the sink drained (`2 * frames + tx_frames`).
    pub frames_delivered: u64,
    /// Per-wire executed-vs-analytic reports, in topology order.
    pub wires: Vec<WireReport>,
    /// Per-node local clocks at halt, in `add_node` order.
    pub node_cycles: Vec<u64>,
    /// Scheduler quanta executed.
    pub quanta: u64,
}

impl RtosExecExperiment {
    /// Whether every executed response (CPU level) and worst latency
    /// (network level) stays within its analytic bound.
    #[must_use]
    pub fn within_bounds(&self) -> bool {
        self.bounds.iter().all(|b| b.margin >= 0)
            && self.wires.iter().all(WireReport::within_bounds)
    }

    /// Total preemptions suffered across the task set.
    #[must_use]
    pub fn preemptions(&self) -> u64 {
        self.stats.tasks.iter().map(|t| u64::from(t.preemptions)).sum()
    }
}

impl fmt::Display for RtosExecExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "executed RTOS tier: {} tasks, {} preemptions, {} TX frames, \
             sink checksum {:#x} ({} delivered, {} quanta)",
            self.stats.tasks.len(),
            self.preemptions(),
            self.tx_frames,
            self.checksum,
            self.frames_delivered,
            self.quanta
        )?;
        writeln!(
            f,
            "{:<8} {:>5} {:>7} {:>10} {:>10} {:>8}  dominant",
            "task", "acts", "preempt", "executed", "bound", "margin"
        )?;
        for (t, b) in self.stats.tasks.iter().zip(&self.bounds) {
            writeln!(
                f,
                "{:<8} {:>5} {:>7} {:>10} {:>10} {:>8}  {:?}{}",
                b.name,
                t.activations,
                t.preemptions,
                b.executed,
                b.bound,
                b.margin,
                b.dominant,
                if b.margin >= 0 { "" } else { "  VIOLATED" }
            )?;
        }
        for w in &self.wires {
            writeln!(
                f,
                "wire {:<9} {:>3} frames, util {:>5.1}%{}",
                w.name,
                w.deliveries,
                w.utilization * 100.0,
                if w.within_bounds() { "" } else { "  VIOLATED" }
            )?;
        }
        write!(f, "trace: {} records, hash {:#018x}", self.stats.trace_len, self.stats.trace_hash)
    }
}

/// The sink's expected checksum: the two plain sensor streams
/// ([`gateway_checksum`]) plus the TX task's frames — actuator-wire id
/// `RTOS_TX_ID + 0x400` with payload words `1..=tx`.
#[must_use]
pub fn rtos_exec_checksum(frames: u32, tx: u32) -> u32 {
    gateway_checksum(frames)
        .wrapping_add(tx * (RTOS_TX_ID + 0x400))
        .wrapping_add(tx * (tx + 1) / 2)
}

/// The TX task's CAN stream as offered to one wire, with release
/// jitter composed from the upstream hops *and* the CPU-level response
/// bound.
fn rtos_stream(id_offset: u32, cpb: u64, jitter_cycles: u64, period_cycles: u64) -> CanMessage {
    let period = period_cycles / cpb;
    let jitter = jitter_cycles.div_ceil(cpb);
    CanMessage {
        id: RTOS_TX_ID + id_offset,
        dlc: 4,
        extended: false,
        period,
        jitter,
        deadline: period + jitter,
    }
}

/// Runs the executed-RTOS gateway topology with explicit scheduler
/// knobs — determinism tests sweep quantum sizes, node orderings and
/// idle-stretch and assert bit-identical results.
///
/// # Errors
///
/// Fails when assembly or task lowering fails, the system hits the
/// horizon, a node halts abnormally, the preemption trace is
/// structurally inconsistent, or the CPU-level analysis diverges.
///
/// # Panics
///
/// Panics when `frames` is 0 or the sink's total exceeds the 8-bit
/// compare immediate.
pub fn rtos_exec_experiment_with(
    frames: u32,
    scheduler: SystemConfig,
) -> Result<RtosExecExperiment, CoreError> {
    Ok(rtos_exec_experiment_traced(frames, scheduler, 0)?.0)
}

/// [`rtos_exec_experiment_with`] plus structured tracing: records under
/// the given [`alia_obs::category`] bitmask and returns the collected
/// [`alia_obs::TraceSet`] alongside the report. On top of the usual
/// per-node / per-wire / scheduler streams, the RTOS ECU's guest kernel
/// trace is re-emitted as a `"rtos.kernel"` stream of
/// [`alia_obs::EventKind::Rtos`] events on the same cycle timebase.
///
/// # Errors
///
/// Same contract as [`rtos_exec_experiment_with`].
///
/// # Panics
///
/// Same contract as [`rtos_exec_experiment_with`].
pub fn rtos_exec_experiment_traced(
    frames: u32,
    scheduler: SystemConfig,
    trace_mask: u32,
) -> Result<(RtosExecExperiment, alia_obs::TraceSet), CoreError> {
    let tasks = mission_tasks();
    let asm = asm_err(MachineConfig::m3_like().mode);
    let mut system = System::with_config(scheduler);
    let sensor = system.add_wire("sensor", EDGE_CPB);
    let backbone = system.add_wire("backbone", BACKBONE_CPB);
    let actuator = system.add_wire("actuator", EDGE_CPB);

    // The preemptive ECU: an unmatchable acceptance filter keeps the
    // other sensors' frames away from the guest kernel.
    let rtos_config = GuestRtosConfig {
        tick_cycles: TICK_CYCLES,
        total_ticks: TOTAL_TICKS,
        can: Some(CanPort {
            node: RTOS_NODE,
            wire: sensor.clone(),
            filter: Some((0x7FF, 0x7FF)),
        }),
    };
    let GuestRtos { machine, layout } = build_guest_rtos(&tasks, &rtos_config)
        .map_err(|e| CoreError::Run { what: format!("rtos lowering: {e}") })?;
    let tx_task = layout
        .tasks
        .iter()
        .position(|t| t.tx_id.is_some())
        .expect("mission set has a TX task");
    let tx_frames = layout.tasks[tx_task].expected_activations;
    let total = 2 * frames + tx_frames;
    assert!(frames > 0 && total <= 255, "sink total must fit an 8-bit compare immediate");

    system.add_node(
        "sensor0",
        sensor_machine(frames, SENSOR_IDS[0], 0, PERIOD_CYCLES, None, &sensor, &asm)?,
    );
    system.add_node(
        "sensor1",
        sensor_machine(frames, SENSOR_IDS[1], 1, PERIOD_CYCLES, None, &sensor, &asm)?,
    );
    let rtos = system.add_node("rtos", machine);
    system.add_node("gw1", gateway_machine(0x100, 0x17F, 0x300, 6, &sensor, &backbone, &asm)?);
    system.add_node("gw2", gateway_machine(0x300, 0x37F, 0x500, 7, &backbone, &actuator, &asm)?);
    let sink = system.add_node("sink", sink_machine(total, 0, None, &actuator, &asm)?);
    system.set_trace_mask(trace_mask);

    let run = system.run(50_000_000);
    if run.reason != SystemStop::AllHalted {
        return Err(CoreError::Run {
            what: format!(
                "rtos topology hit the horizon: {:?}",
                system
                    .nodes()
                    .iter()
                    .map(|n| (n.name().to_string(), n.halted()))
                    .collect::<Vec<_>>()
            ),
        });
    }
    if system.node(rtos).halted() != Some(StopReason::MmioExit(layout.expected_exit)) {
        return Err(CoreError::Run {
            what: format!(
                "rtos ECU exited with {:?}, want checksum sum {:#x}",
                system.node(rtos).halted(),
                layout.expected_exit
            ),
        });
    }
    let Some(StopReason::MmioExit(checksum)) = system.node(sink).halted() else {
        return Err(CoreError::Run {
            what: format!("sink stopped with {:?}", system.node(sink).halted()),
        });
    };
    system.settle_wires();

    // CPU level: decode the preemption trace, then check the executed
    // worst responses against the RTA bounds.
    let stats = ExecStats::from_machine(system.node(rtos).machine(), &layout)
        .map_err(|e| CoreError::Run { what: format!("rtos trace: {e}") })?;
    let bounds = stats
        .validate_bounds(&layout)
        .map_err(|e| CoreError::Run { what: format!("rtos bounds: {e}") })?;

    // Network level: the TX task's CPU bound is its stream's release
    // jitter on the sensor wire; downstream hops compose holistically
    // exactly as in E10.
    let cpu_jitter = bounds[tx_task].bound;
    let tx_period = u64::from(layout.tasks[tx_task].period_ticks) * u64::from(TICK_CYCLES);
    let mut s_streams = wire_streams(0, EDGE_CPB, [0, 0], PERIOD_CYCLES);
    s_streams.push(rtos_stream(0, EDGE_CPB, cpu_jitter, tx_period));
    let s_bound = |id: u32, j: u64| {
        j + response_bound(&s_streams, id).unwrap_or(0) * EDGE_CPB + FWD_LATENCY
    };
    let b_jitter =
        [s_bound(SENSOR_IDS[0], 0), s_bound(SENSOR_IDS[1], 0), s_bound(RTOS_TX_ID, cpu_jitter)];
    let mut b_streams =
        wire_streams(0x200, BACKBONE_CPB, [b_jitter[0], b_jitter[1]], PERIOD_CYCLES);
    b_streams.push(rtos_stream(0x200, BACKBONE_CPB, b_jitter[2], tx_period));
    let b_bound = |id: u32, j: u64| {
        j + response_bound(&b_streams, id + 0x200).unwrap_or(0) * BACKBONE_CPB + FWD_LATENCY
    };
    let a_jitter = [
        b_bound(SENSOR_IDS[0], b_jitter[0]),
        b_bound(SENSOR_IDS[1], b_jitter[1]),
        b_bound(RTOS_TX_ID, b_jitter[2]),
    ];
    let mut a_streams = wire_streams(0x400, EDGE_CPB, [a_jitter[0], a_jitter[1]], PERIOD_CYCLES);
    a_streams.push(rtos_stream(0x400, EDGE_CPB, a_jitter[2], tx_period));

    let wires = vec![
        wire_report(&sensor, &s_streams),
        wire_report(&backbone, &b_streams),
        wire_report(&actuator, &a_streams),
    ];
    // The guest kernel's own cycle-stamped trace re-joins the unified
    // stream as structured RTOS events (always emitted — the raw trace
    // exists regardless of the mask; hashing filters by category).
    let mut trace = system.trace_set();
    let kernel_events = decode_trace(&system.node(rtos).machine().mmio().trace)
        .map_err(|e| CoreError::Run { what: format!("rtos obs trace: {e}") })?;
    trace.push_stream("rtos.kernel", kernel_events);

    Ok((
        RtosExecExperiment {
            frames,
            tx_frames,
            bounds,
            stats,
            checksum,
            frames_delivered: system
                .node(sink)
                .machine()
                .bus
                .device::<CanController>()
                .map_or(0, CanController::rx_count),
            wires,
            node_cycles: system.nodes().iter().map(Node::cycles).collect(),
            quanta: run.quanta,
        },
        trace,
    ))
}

/// Runs the executed-RTOS gateway topology with default scheduling.
///
/// # Errors
///
/// Same contract as [`rtos_exec_experiment_with`].
pub fn rtos_exec_experiment(frames: u32) -> Result<RtosExecExperiment, CoreError> {
    rtos_exec_experiment_with(frames, SystemConfig::default())
}

/// One seed's mission in the jitter study: the task set re-lowered with
/// seed-derived activation phasings (and input data), run standalone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JitterPoint {
    /// The campaign seed.
    pub seed: u64,
    /// Activation offsets drawn for each task, in ticks.
    pub offsets: Vec<u32>,
    /// Executed worst response per task, cycles.
    pub worst_responses: Vec<u64>,
    /// Analytic bound per task, cycles (moves with the seed: the
    /// analysis is rebuilt from the seeded inputs' measured times).
    pub bounds: Vec<u64>,
    /// Smallest `bound - executed` margin across the set.
    pub min_margin: i64,
    /// Total preemptions suffered.
    pub preemptions: u64,
    /// FNV hash of the raw preemption trace.
    pub trace_hash: u64,
}

/// Per-task response-jitter aggregate over the whole campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskJitterRow {
    /// Workload kernel name.
    pub name: String,
    /// Smallest executed worst response observed across seeds.
    pub fastest: u64,
    /// Largest executed worst response observed across seeds.
    pub slowest: u64,
    /// Largest analytic bound across seeds (bounds move with the
    /// measured execution times of the seeded inputs).
    pub bound: u64,
}

impl TaskJitterRow {
    /// Observed response jitter: the executed worst-response spread the
    /// activation phasing induces.
    #[must_use]
    pub fn spread(&self) -> u64 {
        self.slowest - self.fastest
    }
}

/// The seed-swept executed-RTOS jitter study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtosJitterStudy {
    /// One point per seed, in seed order (campaign key order).
    pub points: Vec<JitterPoint>,
    /// Per-task aggregates, task-set order.
    pub rows: Vec<TaskJitterRow>,
}

impl RtosJitterStudy {
    /// Whether every seed's mission stayed within its analytic bounds.
    #[must_use]
    pub fn within_bounds(&self) -> bool {
        self.points.iter().all(|p| p.min_margin >= 0)
    }
}

impl fmt::Display for RtosJitterStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rtos jitter study: {} seeds, {}",
            self.points.len(),
            if self.within_bounds() { "all within bounds" } else { "BOUNDS VIOLATED" }
        )?;
        writeln!(f, "{:<8} {:>9} {:>9} {:>8} {:>9}", "task", "fastest", "slowest", "spread", "bound")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>9} {:>9} {:>8} {:>9}",
                r.name,
                r.fastest,
                r.slowest,
                r.spread(),
                r.bound
            )?;
        }
        let worst = self.points.iter().map(|p| p.min_margin).min().unwrap_or(0);
        write!(f, "tightest margin across the campaign: {worst} cycles")
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one jitter-study mission: the non-TX mission tasks re-phased
/// (offset drawn uniformly in `0..period`) and re-seeded from `seed`,
/// lowered standalone (no network) and validated against the analysis.
///
/// # Errors
///
/// Fails when lowering fails, the mission hits the horizon or exits
/// with the wrong checksum sum, or the trace is inconsistent.
pub fn rtos_jitter_point(seed: u64) -> Result<JitterPoint, CoreError> {
    let mut rng = seed;
    let tasks: Vec<GuestTask> = mission_tasks()
        .into_iter()
        .filter(|t| t.tx_id.is_none())
        .map(|t| {
            let offset = (splitmix(&mut rng) % u64::from(t.period_ticks)) as u32;
            let input_seed = splitmix(&mut rng);
            t.with_offset(offset).with_seed(input_seed)
        })
        .collect();
    let config =
        GuestRtosConfig { tick_cycles: TICK_CYCLES, total_ticks: TOTAL_TICKS, can: None };
    let GuestRtos { mut machine, layout } = build_guest_rtos(&tasks, &config)
        .map_err(|e| CoreError::Run { what: format!("seed {seed}: lowering: {e}") })?;
    let horizon = u64::from(TICK_CYCLES) * u64::from(TOTAL_TICKS) * 4 + 1_000_000;
    let result = machine.run(horizon);
    if result.reason != StopReason::MmioExit(layout.expected_exit) {
        return Err(CoreError::Run {
            what: format!("seed {seed}: mission stopped with {:?}", result.reason),
        });
    }
    let stats = ExecStats::from_machine(&machine, &layout)
        .map_err(|e| CoreError::Run { what: format!("seed {seed}: trace: {e}") })?;
    let bounds = stats
        .validate_bounds(&layout)
        .map_err(|e| CoreError::Run { what: format!("seed {seed}: bounds: {e}") })?;
    Ok(JitterPoint {
        seed,
        offsets: layout.tasks.iter().map(|t| t.offset_ticks).collect(),
        worst_responses: bounds.iter().map(|b| b.executed).collect(),
        bounds: bounds.iter().map(|b| b.bound).collect(),
        min_margin: bounds.iter().map(|b| b.margin).min().unwrap_or(0),
        preemptions: stats.tasks.iter().map(|t| u64::from(t.preemptions)).sum(),
        trace_hash: stats.trace_hash,
    })
}

/// Fans [`rtos_jitter_point`] over `seeds` on `threads` campaign
/// workers ([`crate::campaign::run_campaign`]): how much executed
/// response moves with activation phasing, and that no phasing ever
/// crosses the analytic bound (which assumes the critical instant, so
/// it dominates every phasing by construction).
///
/// # Errors
///
/// Propagates the first failed seed, by seed order.
pub fn rtos_jitter_study(seeds: &[u64], threads: usize) -> Result<RtosJitterStudy, CoreError> {
    let outcomes = crate::campaign::run_campaign(seeds, threads, |&s| rtos_jitter_point(s));
    let points = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    let names: Vec<String> = mission_tasks()
        .into_iter()
        .filter(|t| t.tx_id.is_none())
        .map(|t| t.kernel)
        .collect();
    let rows = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let responses = points.iter().map(|p| p.worst_responses[i]);
            TaskJitterRow {
                name: name.clone(),
                fastest: responses.clone().min().unwrap_or(0),
                slowest: responses.max().unwrap_or(0),
                bound: points.iter().map(|p| p.bounds[i]).max().unwrap_or(0),
            }
        })
        .collect();
    Ok(RtosJitterStudy { points, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mission_completes_inside_the_network() {
        let e = rtos_exec_experiment(8).expect("topology completes");
        assert!(e.stats.tasks.len() >= 3, "at least three preemptable tasks");
        for t in &e.stats.tasks {
            assert_eq!(t.completions, t.activations, "{}", t.name);
            assert_eq!(t.overruns, 0, "{}", t.name);
            assert_eq!(t.acc, t.expected_acc, "{}: checksum corrupted", t.name);
        }
        assert!(e.preemptions() > 0, "the mission must exercise preemption");
        assert_eq!(e.frames_delivered, u64::from(2 * e.frames + e.tx_frames));
        assert_eq!(e.checksum, rtos_exec_checksum(e.frames, e.tx_frames));
    }

    #[test]
    fn both_analysis_layers_hold() {
        let e = rtos_exec_experiment(8).expect("topology completes");
        assert!(e.within_bounds(), "{e}");
        for b in &e.bounds {
            assert!(b.executed > 0, "{}: response must be measured", b.name);
            assert!(b.margin >= 0, "{}: {} > bound {}", b.name, b.executed, b.bound);
        }
        // The TX stream really crossed all three wires.
        for (w, off) in e.wires.iter().zip([0u32, 0x200, 0x400]) {
            assert!(
                w.worst_latencies.iter().any(|(id, _, _)| *id == RTOS_TX_ID + off),
                "wire {} never carried the RTOS stream",
                w.name
            );
        }
        let s = e.to_string();
        assert!(s.contains("executed RTOS tier"));
        assert!(s.contains("canrdr"));
    }

    #[test]
    fn jitter_study_stays_bounded_and_thread_invariant() {
        let seeds: Vec<u64> = (0..6).map(|k| 0xA11A + k * 7).collect();
        let study = rtos_jitter_study(&seeds, 4).expect("campaign completes");
        assert_eq!(study.points.len(), 6);
        assert!(study.within_bounds(), "{study}");
        // Phasing must actually move the executed responses of the
        // preempted low-priority task.
        let low = study.rows.last().expect("rows");
        assert!(low.spread() > 0, "phasing never moved {}: {study}", low.name);
        assert!(study.rows.iter().all(|r| r.slowest <= r.bound), "{study}");
        // Campaign results are keyed: worker count cannot move them.
        let sequential = rtos_jitter_study(&seeds, 1).expect("completes");
        assert_eq!(study, sequential);
        // Distinct phasings produce distinct traces.
        let hashes: std::collections::HashSet<u64> =
            study.points.iter().map(|p| p.trace_hash).collect();
        assert!(hashes.len() > 1, "all seeds collapsed to one schedule");
    }

    #[test]
    fn checksum_is_closed_form() {
        // 2 frames/sensor, 6 TX completions: ids 0x500/0x540 carry
        // payloads 0..2, id 0x520 carries 1..=6.
        let expect: u32 = [0x500u32, 0x540]
            .iter()
            .map(|id| (0..2).map(|k| id + k).sum::<u32>())
            .sum::<u32>()
            + (1..=6).map(|k| 0x520 + k).sum::<u32>();
        assert_eq!(rtos_exec_checksum(2, 6), expect);
    }
}
