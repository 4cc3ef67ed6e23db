//! E11 — the degradation study: the gateway topology under injected
//! CAN faults.
//!
//! The paper's network story ([`crate::experiments::gateway`], E10)
//! validates executed traffic against analytic response-time bounds on
//! a *clean* wire. This experiment stresses the same 3-wire / 5-node
//! topology through `alia_can`'s fault layer and checks that both the
//! simulator and the analysis degrade the way CAN is designed to:
//!
//! * **Transient error burst** ([`error_burst_experiment`]): a seeded
//!   burst of bit errors lands on the sensor wire mid-traffic. Every
//!   corrupted frame costs an error frame and a retransmission — the
//!   executed worst latencies may exceed the clean bounds but must stay
//!   within Tindell's error-extended bounds
//!   ([`alia_can::response_bound_with_errors`]), no frame is lost (the
//!   sink checksum still closes), and traffic released after the burst
//!   settles back under the clean bounds: degrade, then recover.
//!
//! * **Babbling idiot** ([`babbling_idiot_experiment`]): a rogue
//!   station floods the sensor wire with a top-priority identifier.
//!   Its corrupted attempts march it through error-passive to bus-off
//!   (fault confinement removes it from the wire and purges its
//!   backlog), a second rogue's *valid* garbage is contained by the
//!   victims' guest-programmed acceptance filters and the gateway's
//!   routing table (counted, never forwarded), and once the wire is
//!   clean again the sensor streams meet their clean-traffic bounds
//!   end to end.
//!
//! * **Mid-mission recovery** ([`recovery_experiment`]): an executed
//!   station's own transmitter is marched to bus-off by a corrupt
//!   babble arm carrying its station id. The guest notices through its
//!   error IRQ and the `ERR_STATE` mirror, requests recovery through
//!   `ERR_RECOVER`, waits out the 128 × 11 recessive-bit interval,
//!   rejoins as error-active and only then flies its mission — every
//!   mission frame delivers, and post-rejoin latencies meet the
//!   clean-traffic response bounds.

use std::fmt;

use alia_can::{
    response_bound, response_bound_with_errors, BabbleArm, CanId, CanMessage, Delivery,
    ErrorState, FaultPlan, StateChange,
};
use alia_sim::{
    CanConfig, CanController, DeviceSpec, Dma, Machine, MachineConfig, StopReason, System,
    SystemConfig, SystemStop, TimerConfig, CAN_BASE, TIMER_BASE,
};

use crate::CoreError;

use super::gateway::{
    asm_err, boot, build_gateway_topology, gateway_checksum, sink_machine, wire_streams,
    GatewayTopology, EDGE_CPB, PERIOD_CYCLES, SENSOR_IDS,
};

/// Bit errors scheduled per burst.
const BURST_ERRORS: usize = 6;
/// Sensor pacing of the babbling-idiot run, cycles: long enough that
/// the storm (≈ 32 error frames plus the valid babble) concludes
/// before the first sensor release, so the victims' latencies measure
/// the *contained* wire.
const BABBLE_PERIOD_CYCLES: u64 = 16_000;
/// The corrupt babbler's station id on the sensor wire.
const BABBLER_NODE: usize = 2;
/// The valid-garbage babbler's station id on the sensor wire.
const GARBAGE_NODE: usize = 3;
/// The valid-garbage identifier (outprioritises both sensor streams,
/// matches no acceptance filter and no gateway route).
const GARBAGE_ID: u32 = 0x010;
/// Valid-garbage frames enqueued.
const GARBAGE_FRAMES: u32 = 6;

/// Per-stream worst latency against a bound, bit times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyVsBound {
    /// Raw identifier on the sensor wire.
    pub id: u32,
    /// Executed worst latency, bit times (0 with no deliveries in the
    /// window).
    pub worst: u64,
    /// The analytic bound, bit times.
    pub bound: u64,
}

impl LatencyVsBound {
    /// Whether the executed latency honours the bound.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.worst <= self.bound
    }
}

/// The transient-error-burst report.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBurstReport {
    /// Frames each sensor shipped.
    pub frames: u32,
    /// Burst seed.
    pub seed: u64,
    /// Burst window in sensor-wire bit times.
    pub window: (u64, u64),
    /// Bit errors scheduled.
    pub planned: usize,
    /// Injections that corrupted an in-flight frame.
    pub consumed: u64,
    /// Injections that expired on an idle wire.
    pub expired: u64,
    /// Error frames the sensor wire carried.
    pub error_frames: u64,
    /// Data deliveries that needed more than one attempt.
    pub retransmissions: u64,
    /// Whether the sink checksum still matched the closed form (no
    /// frame lost to the burst).
    pub checksum_ok: bool,
    /// Worst latency per stream over the whole run vs the
    /// error-extended bound ([`alia_can::response_bound_with_errors`]
    /// at [`ErrorBurstReport::error_frames`] errors).
    pub extended: Vec<LatencyVsBound>,
    /// Worst latency per stream for frames released after the burst
    /// settled (one period past the window) vs the clean bound.
    pub recovery: Vec<LatencyVsBound>,
    /// Whether any in-burst latency exceeded its clean bound — the
    /// visible degradation (seed-dependent; a burst may land softly).
    pub degraded: bool,
    /// The sensor wire's full delivery log as `(raw id, completion bit
    /// time, attempt, is_data)` — error frames and retransmission
    /// stamps included; the determinism signature.
    pub sensor_log: Vec<(u32, u64, u32, bool)>,
}

impl ErrorBurstReport {
    /// Whether the run degraded *gracefully*: every latency within the
    /// extended bound, post-burst traffic within the clean bound, and
    /// the checksum intact.
    #[must_use]
    pub fn graceful(&self) -> bool {
        self.checksum_ok
            && self.extended.iter().all(LatencyVsBound::ok)
            && self.recovery.iter().all(LatencyVsBound::ok)
    }
}

impl fmt::Display for ErrorBurstReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error burst: seed {} over bits [{}, {}): {} planned, {} consumed, {} expired, \
             {} error frames, {} retransmissions, checksum {}",
            self.seed,
            self.window.0,
            self.window.1,
            self.planned,
            self.consumed,
            self.expired,
            self.error_frames,
            self.retransmissions,
            if self.checksum_ok { "ok" } else { "BROKEN" }
        )?;
        for (label, rows) in [("extended", &self.extended), ("recovery", &self.recovery)] {
            for r in rows {
                writeln!(
                    f,
                    "  {label:<8} {:#x}: worst {} <= bound {} bits{}",
                    r.id,
                    r.worst,
                    r.bound,
                    if r.ok() { "" } else { "  VIOLATED" }
                )?;
            }
        }
        write!(
            f,
            "degrade: {}, recover: {}",
            if self.degraded { "visible" } else { "absorbed" },
            if self.recovery.iter().all(LatencyVsBound::ok) { "clean" } else { "FAILED" }
        )
    }
}

/// The babbling-idiot report.
#[derive(Debug, Clone, PartialEq)]
pub struct BabbleReport {
    /// Frames each sensor shipped.
    pub frames: u32,
    /// The corrupt babbler's final error state (must be
    /// [`ErrorState::BusOff`]).
    pub babbler_state: ErrorState,
    /// The corrupt babbler's final TEC.
    pub babbler_tec: u32,
    /// The babbler's error-state transitions, in wire order.
    pub transitions: Vec<StateChange>,
    /// Error frames the storm burned on the sensor wire.
    pub error_frames: u64,
    /// Frames fault confinement purged from the babbler's backlog at
    /// bus-off.
    pub purged: u64,
    /// Valid-garbage frames that delivered on the sensor wire.
    pub garbage_delivered: u64,
    /// Garbage frames each sensor ECU's acceptance filter rejected.
    pub rx_filtered: [u64; 2],
    /// Garbage deliveries the gateway engine refused to route.
    pub gateway_no_route: u64,
    /// Whether the sink checksum matched the closed form (no garbage
    /// leaked downstream, no sensor frame lost).
    pub checksum_ok: bool,
    /// Victim worst latencies vs *clean-traffic* bounds on the sensor
    /// wire — containment means the storm never taxes them.
    pub victims: Vec<LatencyVsBound>,
    /// The sensor wire's full delivery log as `(raw id, completion bit
    /// time, attempt, is_data)` — the determinism signature.
    pub sensor_log: Vec<(u32, u64, u32, bool)>,
}

impl BabbleReport {
    /// Whether the babbler was contained: driven to bus-off, garbage
    /// filtered and unrouted, victims within clean bounds, checksum
    /// intact.
    #[must_use]
    pub fn contained(&self) -> bool {
        self.babbler_state == ErrorState::BusOff
            && self.checksum_ok
            && self.gateway_no_route >= u64::from(GARBAGE_FRAMES)
            && self.rx_filtered.iter().all(|&n| n >= u64::from(GARBAGE_FRAMES))
            && self.victims.iter().all(LatencyVsBound::ok)
    }
}

impl fmt::Display for BabbleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "babbling idiot: node {BABBLER_NODE} reached {:?} (TEC {}) after {} error \
             frames; {} frames purged at bus-off",
            self.babbler_state, self.babbler_tec, self.error_frames, self.purged
        )?;
        for t in &self.transitions {
            writeln!(f, "  bit {:>6}: {:?} -> {:?}", t.at, t.from, t.to)?;
        }
        writeln!(
            f,
            "garbage id {GARBAGE_ID:#x}: {} delivered, filtered {}/{} at the sensors, \
             {} unrouted at the gateway, checksum {}",
            self.garbage_delivered,
            self.rx_filtered[0],
            self.rx_filtered[1],
            self.gateway_no_route,
            if self.checksum_ok { "ok" } else { "BROKEN" }
        )?;
        for r in &self.victims {
            writeln!(
                f,
                "  victim {:#x}: worst {} <= clean bound {} bits{}",
                r.id,
                r.worst,
                r.bound,
                if r.ok() { "" } else { "  VIOLATED" }
            )?;
        }
        write!(f, "contained: {}", self.contained())
    }
}

/// Drives a built topology to completion and returns the sink checksum.
fn drive_to_checksum(topo: &mut GatewayTopology) -> Result<u32, CoreError> {
    let run = topo.system.run(50_000_000);
    if run.reason != SystemStop::AllHalted {
        return Err(CoreError::Run {
            what: format!(
                "faulty topology hit the horizon: {:?}",
                topo.system
                    .nodes()
                    .iter()
                    .map(|n| (n.name().to_string(), n.halted()))
                    .collect::<Vec<_>>()
            ),
        });
    }
    let Some(StopReason::MmioExit(checksum)) = topo.system.node(topo.sink).halted() else {
        return Err(CoreError::Run {
            what: format!("sink stopped with {:?}", topo.system.node(topo.sink).halted()),
        });
    };
    topo.system.settle_wires();
    Ok(checksum)
}

/// The sensor wire's delivery log flattened to the determinism
/// signature tuple.
fn sensor_log(topo: &GatewayTopology) -> Vec<(u32, u64, u32, bool)> {
    topo.sensor
        .delivery_log()
        .iter()
        .map(|d| (d.frame.id.raw(), d.completed_at, d.attempt, d.is_data()))
        .collect()
}

/// Worst data-delivery latency of `id` on the sensor wire over
/// enqueue times in `[from, to)` bit times.
fn worst_in_window(topo: &GatewayTopology, id: u32, from: u64, to: u64) -> u64 {
    topo.sensor
        .delivery_log()
        .iter()
        .filter(|d| {
            d.is_data() && d.frame.id.raw() == id && (from..to).contains(&d.enqueued_at)
        })
        .map(alia_can::Delivery::latency)
        .max()
        .unwrap_or(0)
}

/// Runs the transient-error-burst study with explicit scheduler knobs
/// (the determinism sweep in `tests/integration_faults.rs` relies on
/// bit-identical reports across schedules).
///
/// # Errors
///
/// Fails when the topology does not complete or a node halts
/// abnormally.
///
/// # Panics
///
/// Panics when `frames` is not in `4..=100` (the recovery window needs
/// post-burst releases; the sink compares `2 * frames` against an
/// 8-bit immediate).
pub fn error_burst_experiment_with(
    frames: u32,
    seed: u64,
    scheduler: SystemConfig,
) -> Result<ErrorBurstReport, CoreError> {
    Ok(error_burst_experiment_traced(frames, seed, scheduler, 0)?.0)
}

/// [`error_burst_experiment_with`] plus structured tracing: records
/// under the given [`alia_obs::category`] bitmask (error frames and
/// state transitions land in the wire streams) and returns the
/// collected [`alia_obs::TraceSet`] alongside the report.
///
/// # Errors
///
/// Same contract as [`error_burst_experiment_with`].
///
/// # Panics
///
/// Same contract as [`error_burst_experiment_with`].
pub fn error_burst_experiment_traced(
    frames: u32,
    seed: u64,
    scheduler: SystemConfig,
    trace_mask: u32,
) -> Result<(ErrorBurstReport, alia_obs::TraceSet), CoreError> {
    assert!((4..=100).contains(&frames), "need post-burst releases and an 8-bit compare");
    let mut topo = build_gateway_topology(frames, PERIOD_CYCLES, None, None, scheduler)?;
    topo.system.set_trace_mask(trace_mask);

    // Sensor k's frame j is released at (j + 1) * period; the burst
    // covers the first half of the traffic window, starting inside the
    // first frames' service time.
    let period_bits = PERIOD_CYCLES / EDGE_CPB;
    let lo = period_bits + 100;
    let hi = lo + (u64::from(frames) / 2) * period_bits;
    let mut plan = FaultPlan::new();
    plan.add_error_burst(seed, lo, hi, BURST_ERRORS);
    topo.sensor.set_fault_plan(plan);

    let checksum = drive_to_checksum(&mut topo)?;

    let error_frames = topo.sensor.error_frames();
    let streams = wire_streams(0, EDGE_CPB, [0, 0], PERIOD_CYCLES);
    let settle = hi + period_bits;
    let mut extended = Vec::new();
    let mut recovery = Vec::new();
    let mut degraded = false;
    for id in SENSOR_IDS {
        let clean = response_bound(&streams, id).unwrap_or(0);
        let with_errors = response_bound_with_errors(&streams, id, error_frames).unwrap_or(0);
        let overall = worst_in_window(&topo, id, 0, u64::MAX);
        let after = worst_in_window(&topo, id, settle, u64::MAX);
        degraded |= worst_in_window(&topo, id, 0, settle) > clean;
        extended.push(LatencyVsBound { id, worst: overall, bound: with_errors });
        recovery.push(LatencyVsBound { id, worst: after, bound: clean });
    }
    let retransmissions = topo
        .sensor
        .delivery_log()
        .iter()
        .filter(|d| d.is_data() && d.attempt > 1)
        .count() as u64;
    Ok((
        ErrorBurstReport {
            frames,
            seed,
            window: (lo, hi),
            planned: BURST_ERRORS,
            consumed: topo.sensor.injections_consumed(),
            expired: topo.sensor.injections_expired(),
            error_frames,
            retransmissions,
            checksum_ok: checksum == gateway_checksum(frames),
            extended,
            recovery,
            degraded,
            sensor_log: sensor_log(&topo),
        },
        topo.system.trace_set(),
    ))
}

/// Runs the transient-error-burst study with default scheduling.
///
/// # Errors
///
/// Same contract as [`error_burst_experiment_with`].
pub fn error_burst_experiment(frames: u32, seed: u64) -> Result<ErrorBurstReport, CoreError> {
    error_burst_experiment_with(frames, seed, SystemConfig::default())
}

/// Runs the babbling-idiot study with explicit scheduler knobs.
///
/// # Errors
///
/// Fails when the topology does not complete or a node halts
/// abnormally.
///
/// # Panics
///
/// Panics when `frames` is 0 or exceeds 100.
pub fn babbling_idiot_experiment_with(
    frames: u32,
    scheduler: SystemConfig,
) -> Result<BabbleReport, CoreError> {
    // Victims accept only their own 0x1xx family; the sink accepts the
    // rewritten 0x5xx family. Both are programmed by guest code.
    let mut topo = build_gateway_topology(
        frames,
        BABBLE_PERIOD_CYCLES,
        Some((0x100, 0x700)),
        Some((0x500, 0x700)),
        scheduler,
    )?;

    let mut plan = FaultPlan::new();
    // The corrupt babbler: every attempt burns an error frame, +8 TEC
    // each — 16 attempts to error-passive, 32 to bus-off.
    plan.add_babbler(BabbleArm {
        node: BABBLER_NODE,
        id: CanId::Standard(0x008),
        dlc: 1,
        start: 40,
        period: 10,
        frames: 40,
        corrupt: true,
    });
    // The valid babbler: its garbage *delivers* — containment is the
    // receivers' filters and the gateway's routing table.
    plan.add_babbler(BabbleArm {
        node: GARBAGE_NODE,
        id: CanId::Standard(GARBAGE_ID as u16),
        dlc: 4,
        start: 50,
        period: 120,
        frames: GARBAGE_FRAMES,
        corrupt: false,
    });
    topo.sensor.set_fault_plan(plan);

    let checksum = drive_to_checksum(&mut topo)?;

    let streams = wire_streams(0, EDGE_CPB, [0, 0], BABBLE_PERIOD_CYCLES);
    let victims = SENSOR_IDS
        .map(|id| LatencyVsBound {
            id,
            worst: worst_in_window(&topo, id, 0, u64::MAX),
            bound: response_bound(&streams, id).unwrap_or(0),
        })
        .to_vec();
    let rx_filtered = [0usize, 1].map(|n| {
        topo.system
            .node(n)
            .machine()
            .bus
            .device::<CanController>()
            .map_or(0, CanController::rx_filtered)
    });
    Ok(BabbleReport {
        frames,
        babbler_state: topo.sensor.error_state(BABBLER_NODE),
        babbler_tec: topo.sensor.tec(BABBLER_NODE),
        transitions: topo
            .sensor
            .state_log()
            .into_iter()
            .filter(|c| c.node == BABBLER_NODE)
            .collect(),
        error_frames: topo.sensor.error_frames(),
        purged: topo.sensor.purged_tx(),
        garbage_delivered: topo
            .sensor
            .delivery_log()
            .iter()
            .filter(|d| d.is_data() && d.frame.id.raw() == GARBAGE_ID)
            .count() as u64,
        rx_filtered,
        gateway_no_route: topo
            .system
            .node(topo.gw1)
            .machine()
            .bus
            .device::<Dma>()
            .map_or(0, Dma::no_route),
        checksum_ok: checksum == gateway_checksum(frames),
        victims,
        sensor_log: sensor_log(&topo),
    })
}

/// Runs the babbling-idiot study with default scheduling.
///
/// # Errors
///
/// Same contract as [`babbling_idiot_experiment_with`].
pub fn babbling_idiot_experiment(frames: u32) -> Result<BabbleReport, CoreError> {
    babbling_idiot_experiment_with(frames, SystemConfig::default())
}

/// The recovering station's id on the mission wire.
const VICTIM_NODE: usize = 0;
/// The mission sink's station id.
const RECOVERY_SINK_NODE: usize = 1;
/// The mission stream's identifier.
const MISSION_ID: u32 = 0x123;
/// Mission pacing, cycles.
const MISSION_PERIOD_CYCLES: u64 = 2_000;

/// The mid-mission bus-off-recovery report.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Mission frames the victim shipped after rejoining.
    pub frames: u32,
    /// The victim's final error state (must be [`ErrorState::Active`]).
    pub victim_final: ErrorState,
    /// The victim's error-state transitions, in wire order — the full
    /// arc active → passive → bus-off → active.
    pub transitions: Vec<StateChange>,
    /// Error frames the fault storm burned on the wire.
    pub error_frames: u64,
    /// Bit time at which the victim rejoined as error-active (the
    /// bus-off → active stamp).
    pub rejoined_at: u64,
    /// Earliest mission-frame enqueue, bit times — at or after
    /// [`RecoveryReport::rejoined_at`]: the guest held its mission
    /// until the wire took it back.
    pub first_mission_enqueue: u64,
    /// Whether the sink checksum matched the closed form (every
    /// mission frame delivered exactly once).
    pub checksum_ok: bool,
    /// Worst mission latency vs the clean-traffic response bound —
    /// a recovered station flies at full service.
    pub mission: LatencyVsBound,
    /// The wire's full delivery log as `(raw id, completion bit time,
    /// attempt, is_data)` — the determinism signature.
    pub wire_log: Vec<(u32, u64, u32, bool)>,
}

impl RecoveryReport {
    /// Whether the station recovered cleanly: the full error-state arc
    /// observed, the mission held until rejoin, every frame delivered,
    /// latencies within the clean bound.
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.victim_final == ErrorState::Active
            && self.checksum_ok
            && self.mission.ok()
            && self.rejoined_at > 0
            && self.first_mission_enqueue >= self.rejoined_at
            && self
                .transitions
                .iter()
                .map(|c| (c.from, c.to))
                .eq([
                    (ErrorState::Active, ErrorState::Passive),
                    (ErrorState::Passive, ErrorState::BusOff),
                    (ErrorState::BusOff, ErrorState::Active),
                ])
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "recovery: node {VICTIM_NODE} ended {:?} after {} error frames, rejoined at bit \
             {}, first mission enqueue at bit {}, checksum {}",
            self.victim_final,
            self.error_frames,
            self.rejoined_at,
            self.first_mission_enqueue,
            if self.checksum_ok { "ok" } else { "BROKEN" }
        )?;
        for t in &self.transitions {
            writeln!(f, "  bit {:>6}: {:?} -> {:?}", t.at, t.from, t.to)?;
        }
        write!(
            f,
            "  mission {:#x}: worst {} <= clean bound {} bits{}",
            self.mission.id,
            self.mission.worst,
            self.mission.bound,
            if self.mission.ok() { "" } else { "  VIOLATED" }
        )
    }
}

/// The recovery sink's expected checksum: id plus payload `k` for each
/// mission frame.
fn recovery_checksum(frames: u32) -> u32 {
    (0..frames).map(|k| MISSION_ID + k).sum()
}

/// Builds the victim: a station whose guest sleeps through the fault
/// storm (woken by its error IRQ), requests `ERR_RECOVER` once the
/// `ERR_STATE` mirror reads bus-off, waits for error-active, and only
/// then starts its mission timer and ships `frames` frames.
fn victim_machine(
    frames: u32,
    wire: &alia_sim::SharedCanBus,
    asm: &impl Fn(&str) -> Result<Vec<u8>, CoreError>,
) -> Result<Machine, CoreError> {
    let mut config = MachineConfig::m3_like();
    config.devices = vec![
        DeviceSpec::Timer(TimerConfig {
            base: TIMER_BASE,
            irq: 0,
            compare: MISSION_PERIOD_CYCLES as u32,
        }),
        DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: VICTIM_NODE, ..CanConfig::default() },
            wire.clone(),
        ),
    ];
    // ERR_STATE (offset 48) mirrors 0 active / 1 passive / 2 bus-off;
    // any write to ERR_RECOVER (offset 60) requests recovery. The
    // error IRQ (line 4) wakes each WFI at the exact transition stamp.
    let main = asm(&format!(
        "movw r0, #0x2000
         movt r0, #0x4000
         offwait: wfi
         ldr r1, [r0, #48]
         cmp r1, #2
         bne offwait
         str r1, [r0, #60]
         onwait: wfi
         ldr r1, [r0, #48]
         cmp r1, #0
         bne onwait
         movw r0, #0x1000
         movt r0, #0x4000
         movw r1, #{MISSION_PERIOD_CYCLES}
         str r1, [r0, #4]
         mov r1, #3
         str r1, [r0, #0]
         sleep: wfi
         cmp r4, #{frames}
         blt sleep
         bkpt #0"
    ))?;
    let tick = asm(&format!(
        "movw r0, #0x2000
         movt r0, #0x4000
         cmp r4, #{frames}
         bge done
         movw r1, #{MISSION_ID}
         str r1, [r0, #0]
         mov r1, #4
         str r1, [r0, #4]
         str r4, [r0, #8]
         mov r1, #0
         str r1, [r0, #12]
         str r1, [r0, #16]
         add r4, r4, #1
         done: bx lr"
    ))?;
    let err_stub = asm("bx lr")?;
    let mut m = Machine::new(config);
    m.load_flash(0x200, &tick);
    m.load_flash(0x300, &err_stub);
    m.load_flash(0, &0x200u32.to_le_bytes()); // vector: timer (irq 0)
    m.load_flash(16, &0x300u32.to_le_bytes()); // vector: error state (irq 4)
    Ok(boot(m, &main))
}

/// Runs the mid-mission bus-off-recovery study with explicit scheduler
/// knobs (the determinism sweep relies on bit-identical reports).
///
/// # Errors
///
/// Fails when the system does not complete or a node halts abnormally.
///
/// # Panics
///
/// Panics when `frames` is not in `1..=100` (the guests compare it
/// against an 8-bit immediate).
pub fn recovery_experiment_with(
    frames: u32,
    scheduler: SystemConfig,
) -> Result<RecoveryReport, CoreError> {
    assert!((1..=100).contains(&frames), "frames must fit an 8-bit compare immediate");
    let asm = asm_err(MachineConfig::m3_like().mode);
    let mut system = System::with_config(scheduler);
    let wire = system.add_wire("mission", EDGE_CPB);
    system.add_node("victim", victim_machine(frames, &wire, &asm)?);
    let sink = system
        .add_node("sink", sink_machine(frames, RECOVERY_SINK_NODE, None, &wire, &asm)?);

    // The fault storm poses as the victim's own transmitter: every
    // corrupt attempt charges the victim's TEC (+8 each, 32 attempts
    // to bus-off); attempts past bus-off are confined.
    let mut plan = FaultPlan::new();
    plan.add_babbler(BabbleArm {
        node: VICTIM_NODE,
        id: CanId::Standard(0x008),
        dlc: 1,
        start: 40,
        period: 10,
        frames: 40,
        corrupt: true,
    });
    wire.set_fault_plan(plan);

    let run = system.run(50_000_000);
    if run.reason != SystemStop::AllHalted {
        return Err(CoreError::Run {
            what: format!(
                "recovery mission hit the horizon: {:?}",
                system
                    .nodes()
                    .iter()
                    .map(|n| (n.name().to_string(), n.halted()))
                    .collect::<Vec<_>>()
            ),
        });
    }
    let Some(StopReason::MmioExit(checksum)) = system.node(sink).halted() else {
        return Err(CoreError::Run {
            what: format!("sink stopped with {:?}", system.node(sink).halted()),
        });
    };
    system.settle_wires();

    let transitions: Vec<StateChange> = wire
        .state_log()
        .into_iter()
        .filter(|c| c.node == VICTIM_NODE)
        .collect();
    let rejoined_at = transitions
        .iter()
        .find(|c| c.from == ErrorState::BusOff && c.to == ErrorState::Active)
        .map_or(0, |c| c.at);
    let deliveries = wire.delivery_log();
    let mission: Vec<&Delivery> = deliveries
        .iter()
        .filter(|d| d.is_data() && d.frame.id.raw() == MISSION_ID)
        .collect();
    let streams = vec![CanMessage {
        id: MISSION_ID,
        dlc: 4,
        extended: false,
        period: MISSION_PERIOD_CYCLES / EDGE_CPB,
        jitter: 0,
        deadline: MISSION_PERIOD_CYCLES / EDGE_CPB,
    }];
    Ok(RecoveryReport {
        frames,
        victim_final: wire.error_state(VICTIM_NODE),
        transitions,
        error_frames: wire.error_frames(),
        rejoined_at,
        first_mission_enqueue: mission.iter().map(|d| d.enqueued_at).min().unwrap_or(0),
        checksum_ok: checksum == recovery_checksum(frames),
        mission: LatencyVsBound {
            id: MISSION_ID,
            worst: mission.iter().map(|d| d.latency()).max().unwrap_or(0),
            bound: response_bound(&streams, MISSION_ID).unwrap_or(0),
        },
        wire_log: deliveries
            .iter()
            .map(|d| (d.frame.id.raw(), d.completed_at, d.attempt, d.is_data()))
            .collect(),
    })
}

/// Runs the mid-mission bus-off-recovery study with default scheduling.
///
/// # Errors
///
/// Same contract as [`recovery_experiment_with`].
pub fn recovery_experiment(frames: u32) -> Result<RecoveryReport, CoreError> {
    recovery_experiment_with(frames, SystemConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_degrades_within_extended_bounds_and_recovers() {
        let r = error_burst_experiment(8, 11).expect("completes");
        assert_eq!(r.planned, BURST_ERRORS);
        assert!(r.consumed >= 1, "burst must corrupt at least one frame: {r}");
        assert!(
            (1..=r.consumed).contains(&r.error_frames),
            "one error frame consumes every injection under the corrupted attempt: {r}"
        );
        assert!(r.retransmissions >= 1);
        assert!(r.checksum_ok, "errors delay frames, never lose them");
        assert!(r.graceful(), "degradation exceeded the extended bounds: {r}");
        let s = r.to_string();
        assert!(s.contains("error burst"));
    }

    #[test]
    fn babbler_is_driven_to_bus_off_and_contained() {
        let r = babbling_idiot_experiment(4).expect("completes");
        assert_eq!(r.babbler_state, ErrorState::BusOff);
        assert_eq!(r.babbler_tec, 256, "TEC parks at the bus-off threshold");
        assert_eq!(r.error_frames, 32, "8 TEC per attempt, bus-off past 255");
        assert!(r.purged >= 1, "fault confinement empties the babbler's backlog");
        assert_eq!(
            r.transitions.iter().map(|c| (c.from, c.to)).collect::<Vec<_>>(),
            vec![
                (ErrorState::Active, ErrorState::Passive),
                (ErrorState::Passive, ErrorState::BusOff),
            ]
        );
        assert_eq!(r.garbage_delivered, u64::from(GARBAGE_FRAMES));
        assert_eq!(r.rx_filtered, [u64::from(GARBAGE_FRAMES); 2]);
        assert_eq!(r.gateway_no_route, u64::from(GARBAGE_FRAMES));
        assert!(r.contained(), "containment failed: {r}");
    }

    #[test]
    fn bus_off_station_recovers_and_flies_its_mission() {
        let r = recovery_experiment(6).expect("completes");
        assert_eq!(r.victim_final, ErrorState::Active, "the victim rejoined: {r}");
        assert_eq!(r.error_frames, 32, "8 TEC per corrupt attempt, bus-off past 255");
        assert_eq!(r.transitions.len(), 3, "active -> passive -> bus-off -> active: {r}");
        assert!(
            r.first_mission_enqueue > r.rejoined_at,
            "the guest held its mission until the wire took it back: {r}"
        );
        assert!(r.checksum_ok, "every mission frame delivered exactly once: {r}");
        assert!(r.mission.ok(), "a recovered station flies at full service: {r}");
        assert!(r.recovered(), "recovery failed: {r}");
        assert!(r.to_string().contains("recovery"));
    }
}
