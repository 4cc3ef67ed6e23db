//! E10 — the executed-guest allocation study: a multi-bus gateway
//! topology.
//!
//! The paper's §1/§4 story analyses networks of ECUs *analytically*
//! ([`crate::experiments::network_experiment`]). This experiment runs
//! the network: a 3-wire, 5-node body architecture — two sensor ECUs on
//! a sensor wire, a DMA gateway onto a faster backbone, a second
//! gateway onto an actuator wire, and a sink ECU — with every frame
//! produced by executed guest code, forwarded by guest-programmed DMA
//! routing tables, and validated per wire against the
//! `alia_can::rta` analytic bounds the paper's allocation machinery
//! rests on.
//!
//! ```text
//! sensor0 ─┐
//!          ├─ sensor wire ── gw1 (DMA) ── backbone ── gw2 (DMA) ── actuator wire ── sink
//! sensor1 ─┘   (cpb 4)                    (cpb 2)                    (cpb 4)
//! ```
//!
//! Sensor `i` ships `frames` 4-byte frames with fixed id (`0x100`,
//! `0x140`), payload word `k`, paced by its timer. Gateway 1 rewrites
//! `0x100..=0x17F` to `0x300 +`, gateway 2 rewrites `0x300..=0x37F` to
//! `0x500 +`; the sink checksums ids and payloads and exits when all
//! `2 * frames` arrive. Response-time bounds compose hop by hop in the
//! holistic style: a downstream stream inherits the upstream response
//! bound (plus the store-and-forward latency) as release jitter.

use std::fmt;

use alia_can::{can_utilization, response_bound, CanMessage};
use alia_isa::Assembler;
use alia_sim::{
    CanConfig, CanController, DeviceSpec, Dma, DmaConfig, Machine, MachineConfig, Node,
    SharedCanBus, StopReason, System, SystemConfig, SystemStop, CAN_BASE, DMA_BASE,
    SRAM_BASE, TIMER_BASE,
};

use crate::CoreError;

/// Cycles per CAN bit on the sensor and actuator wires.
pub(crate) const EDGE_CPB: u64 = 4;
/// Cycles per CAN bit on the backbone (a faster wire).
pub(crate) const BACKBONE_CPB: u64 = 2;
/// Timer period of each sensor ECU, cycles.
pub(crate) const PERIOD_CYCLES: u64 = 2_000;
/// Store-and-forward latency of each gateway engine, cycles.
pub(crate) const FWD_LATENCY: u64 = 200;
/// The two sensor streams' ids on each wire (sensor, backbone,
/// actuator) — gateways rewrite by `+0x200` per hop.
pub(crate) const SENSOR_IDS: [u32; 2] = [0x100, 0x140];

/// One wire of the topology: executed traffic vs the analytic oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// Wire name (`"sensor"`, `"backbone"`, `"actuator"`).
    pub name: String,
    /// Core cycles per CAN bit time on the wire.
    pub cycles_per_bit: u64,
    /// Deliveries the wire completed.
    pub deliveries: usize,
    /// Executed utilization over the active window (first enqueue to
    /// last completion).
    pub utilization: f64,
    /// Analytic utilization of the offered stream set
    /// ([`alia_can::can_utilization`]).
    pub analytic_utilization: f64,
    /// Per-id `(raw id, executed worst latency, analytic response
    /// bound)` in bit times. The executed value must never exceed the
    /// bound.
    pub worst_latencies: Vec<(u32, u64, Option<u64>)>,
    /// Whether the analytic stream set is schedulable on this wire.
    pub schedulable: bool,
}

impl WireReport {
    /// Whether every executed worst latency stays within its analytic
    /// bound (ids without an analytic stream — none in this topology —
    /// would fail closed).
    #[must_use]
    pub fn within_bounds(&self) -> bool {
        self.worst_latencies.iter().all(|(_, w, b)| b.is_some_and(|b| *w <= b))
    }
}

/// The gateway-topology experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayExperiment {
    /// Frames each sensor was asked to ship.
    pub frames: u32,
    /// The sink's checksum (its MMIO exit code) — deterministic, see
    /// [`gateway_checksum`].
    pub checksum: u32,
    /// Frames the sink drained from its RX FIFO (must be `2 * frames`).
    pub frames_delivered: u64,
    /// Frames forwarded by each gateway engine (gw1, gw2).
    pub forwards: [u64; 2],
    /// Per-wire executed-vs-analytic reports, in topology order.
    pub wires: Vec<WireReport>,
    /// End-to-end latencies in core cycles, one per delivered frame:
    /// sensor-wire enqueue to actuator-wire completion, correlated by
    /// (stream, payload).
    pub end_to_end: Vec<u64>,
    /// Per-node local clocks at halt, in `add_node` order (the
    /// determinism signature together with the delivery logs).
    /// Parked-idle nodes (`WfiIdle`) report the architectural
    /// sleep-entry cycle of their final WFI sleep — the scheduler
    /// normalizes parked clocks at quiescence, so every entry here is
    /// schedule-independent; no exclusions.
    pub node_cycles: Vec<u64>,
    /// Per-wire delivery logs as `(raw id, completion cycle)`.
    pub delivery_logs: Vec<Vec<(u32, u64)>>,
    /// Scheduler quanta executed.
    pub quanta: u64,
}

impl GatewayExperiment {
    /// Mean end-to-end latency in cycles (0 with no deliveries).
    #[must_use]
    pub fn end_to_end_mean(&self) -> f64 {
        if self.end_to_end.is_empty() {
            return 0.0;
        }
        self.end_to_end.iter().sum::<u64>() as f64 / self.end_to_end.len() as f64
    }
}

impl fmt::Display for GatewayExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gateway network: {} frames/sensor over 3 wires, sink checksum {:#x} \
             ({} delivered, forwards {}/{}, {} quanta)",
            self.frames,
            self.checksum,
            self.frames_delivered,
            self.forwards[0],
            self.forwards[1],
            self.quanta
        )?;
        writeln!(
            f,
            "{:<10} {:>4} {:>7} {:>10} {:>10}  worst vs bound (bits)",
            "wire", "cpb", "frames", "util", "analytic"
        )?;
        for w in &self.wires {
            let lat: Vec<String> = w
                .worst_latencies
                .iter()
                .map(|(id, worst, bound)| {
                    format!(
                        "{id:#x}:{worst}<={}",
                        bound.map_or_else(|| "?".into(), |b| b.to_string())
                    )
                })
                .collect();
            writeln!(
                f,
                "{:<10} {:>4} {:>7} {:>9.1}% {:>9.1}%  {}{}",
                w.name,
                w.cycles_per_bit,
                w.deliveries,
                w.utilization * 100.0,
                w.analytic_utilization * 100.0,
                lat.join(" "),
                if w.within_bounds() { "" } else { "  VIOLATED" }
            )?;
        }
        let (min, max) = (
            self.end_to_end.iter().min().copied().unwrap_or(0),
            self.end_to_end.iter().max().copied().unwrap_or(0),
        );
        write!(
            f,
            "end-to-end: min {min} / mean {:.0} / max {max} cycles over {} frames",
            self.end_to_end_mean(),
            self.end_to_end.len()
        )
    }
}

/// The sink's expected checksum: for each sensor stream `s` and frame
/// `k`, the actuator-wire id (`0x500 + 0x40 * s`) plus the payload `k`.
#[must_use]
pub fn gateway_checksum(frames: u32) -> u32 {
    SENSOR_IDS
        .iter()
        .map(|id| (0..frames).map(|k| id + 0x400 + k).sum::<u32>())
        .sum()
}

pub(crate) fn asm_err(
    mode: alia_isa::IsaMode,
) -> impl Fn(&str) -> Result<Vec<u8>, CoreError> {
    move |src: &str| {
        Assembler::new(mode)
            .assemble(src)
            .map(|o| o.bytes)
            .map_err(|e| CoreError::Run { what: format!("asm: {e}") })
    }
}

pub(crate) fn boot(mut m: Machine, main: &[u8]) -> Machine {
    m.load_flash(0x100, main);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

/// The guest prologue programming a controller's acceptance filter
/// (`ACC_ID`/`ACC_MASK` at offsets 64/68) — empty with no filter.
pub(crate) fn filter_prologue(filter: Option<(u32, u32)>) -> String {
    filter.map_or_else(String::new, |(fid, fmask)| {
        format!(
            "movw r0, #0x2000
             movt r0, #0x4000
             movw r1, #{fid}
             str r1, [r0, #64]
             movw r1, #{fmask}
             str r1, [r0, #68]
             "
        )
    })
}

/// A sensor ECU: a periodic timer (IRQ 0) paces one 4-byte frame with
/// fixed `id` and payload word `k` per compare match; the core sleeps
/// between ticks and exits with the sent count. An acceptance `filter`
/// (`(id, mask)` — guest-programmed before the timer starts) gates
/// what the RX path ever sees; `period_cycles` must fit a `movw`
/// immediate (< 65 536).
pub(crate) fn sensor_machine(
    frames: u32,
    id: u32,
    node: usize,
    period_cycles: u64,
    filter: Option<(u32, u32)>,
    wire: &SharedCanBus,
    asm: &impl Fn(&str) -> Result<Vec<u8>, CoreError>,
) -> Result<Machine, CoreError> {
    assert!(period_cycles < 65_536, "period must fit a movw immediate");
    let mut config = MachineConfig::m3_like();
    config.devices = vec![
        DeviceSpec::Timer(alia_sim::TimerConfig {
            base: TIMER_BASE,
            irq: 0,
            compare: period_cycles as u32,
        }),
        DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node, ..CanConfig::default() },
            wire.clone(),
        ),
    ];
    let acc = filter_prologue(filter);
    let main = asm(&format!(
        "{acc}movw r0, #0x1000
         movt r0, #0x4000
         movw r1, #{period_cycles}
         str r1, [r0, #4]
         mov r1, #3
         str r1, [r0, #0]
         sleep: wfi
         cmp r4, #{frames}
         blt sleep
         movw r0, #0
         movt r0, #0x4000
         str r4, [r0, #0]
         halt: b halt"
    ))?;
    let tick = asm(&format!(
        "movw r0, #0x2000
         movt r0, #0x4000
         cmp r4, #{frames}
         bge done
         movw r1, #{id}
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
    // The sensor wire is shared: this sensor also hears its peer's
    // frames. The RX handler (IRQ 1) drains and discards them — sensor
    // ECUs have no use for each other's samples.
    let drop_rx = asm(
        "movw r0, #0x2000
         movt r0, #0x4000
         drop: ldr r1, [r0, #20]
         cmp r1, #0
         beq done
         str r1, [r0, #40]
         b drop
         done: bx lr",
    )?;
    let mut m = Machine::new(config);
    m.load_flash(0x200, &tick);
    m.load_flash(0x300, &drop_rx);
    m.load_flash(0, &0x200u32.to_le_bytes()); // vector: timer (irq 0)
    m.load_flash(4, &0x300u32.to_le_bytes()); // vector: CAN RX (irq 1)
    Ok(boot(m, &main))
}

/// A gateway ECU: its guest programs one DMA route (`lo..=hi` from wire
/// A rewritten to `rewrite +`, store-and-forward [`FWD_LATENCY`]) and
/// parks in a WFI loop — the engine forwards while the core sleeps.
pub(crate) fn gateway_machine(
    lo: u32,
    hi: u32,
    rewrite: u32,
    node: usize,
    wire_a: &SharedCanBus,
    wire_b: &SharedCanBus,
    asm: &impl Fn(&str) -> Result<Vec<u8>, CoreError>,
) -> Result<Machine, CoreError> {
    let mut config = MachineConfig::m3_like();
    config.devices = vec![DeviceSpec::Dma(
        DmaConfig { base: DMA_BASE, irq: 3, node_a: node, node_b: node, latency: 0 },
        wire_a.clone(),
        wire_b.clone(),
    )];
    let main = asm(&format!(
        "movw r0, #0x4000
         movt r0, #0x4000
         movw r1, #{FWD_LATENCY}
         str r1, [r0, #4]
         movw r1, #{lo}
         str r1, [r0, #0x44]
         movw r1, #{hi}
         str r1, [r0, #0x48]
         movw r1, #{rewrite}
         movt r1, #0x8000
         str r1, [r0, #0x4C]
         mov r1, #1
         str r1, [r0, #0x40]
         str r1, [r0, #0]
         sleep: wfi
         b sleep"
    ))?;
    Ok(boot(Machine::new(config), &main))
}

/// The sink ECU: the RX handler (IRQ 1) drains the FIFO, checksumming
/// id + first payload word; the main loop sleeps until `total` frames
/// arrived, then exits with the checksum. An acceptance `filter` is
/// guest-programmed before the first sleep.
pub(crate) fn sink_machine(
    total: u32,
    node: usize,
    filter: Option<(u32, u32)>,
    wire: &SharedCanBus,
    asm: &impl Fn(&str) -> Result<Vec<u8>, CoreError>,
) -> Result<Machine, CoreError> {
    let mut config = MachineConfig::m3_like();
    config.devices = vec![DeviceSpec::SharedCan(
        CanConfig { base: CAN_BASE, irq: 1, node, ..CanConfig::default() },
        wire.clone(),
    )];
    let acc = filter_prologue(filter);
    let main = asm(&format!(
        "{acc}sleep: wfi
         cmp r7, #{total}
         blt sleep
         movw r0, #0
         movt r0, #0x4000
         str r6, [r0, #0]
         halt: b halt"
    ))?;
    let rx = asm(
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
    )?;
    let mut m = Machine::new(config);
    m.load_flash(0x200, &rx);
    m.load_flash(4, &0x200u32.to_le_bytes()); // vector: CAN RX (irq 1)
    Ok(boot(m, &main))
}

/// The analytic stream set offered to one wire of the topology: both
/// sensor streams at the wire's bit rate, with release jitter inherited
/// from the upstream hops (`jitter_cycles`, holistic composition) and
/// the sensors' pacing period in cycles.
pub(crate) fn wire_streams(
    id_base_offset: u32,
    cpb: u64,
    jitter_cycles: [u64; 2],
    period_cycles: u64,
) -> Vec<CanMessage> {
    SENSOR_IDS
        .iter()
        .zip(jitter_cycles)
        .map(|(id, j)| {
            let period = period_cycles / cpb;
            let jitter = j.div_ceil(cpb);
            CanMessage {
                id: id + id_base_offset,
                dlc: 4,
                extended: false,
                period,
                jitter,
                deadline: period + jitter,
            }
        })
        .collect()
}

pub(crate) fn wire_report(wire: &SharedCanBus, streams: &[CanMessage]) -> WireReport {
    // One RTA pass serves both the schedulability verdict and the
    // per-id bounds (the result vector is parallel to `streams`).
    let rta = alia_can::can_response_times(streams);
    let bound = |raw: u32| {
        streams.iter().position(|m| m.id == raw).and_then(|i| rta[i].response)
    };
    WireReport {
        name: wire.name().to_string(),
        cycles_per_bit: wire.cycles_per_bit(),
        deliveries: wire.deliveries_len(),
        utilization: wire.span_utilization().unwrap_or(0.0),
        analytic_utilization: can_utilization(streams),
        worst_latencies: wire
            .worst_latencies()
            .iter()
            .map(|(id, w)| (id.raw(), *w, bound(id.raw())))
            .collect(),
        schedulable: rta.iter().all(|r| r.schedulable),
    }
}

/// The 3-wire / 5-node topology, built but not yet run — the fault
/// experiments ([`crate::experiments::faulty_network`]) install a
/// `FaultPlan` on a wire before driving the system.
pub(crate) struct GatewayTopology {
    /// The scheduler holding all five nodes.
    pub(crate) system: System,
    /// The sensor wire (cpb [`EDGE_CPB`]).
    pub(crate) sensor: SharedCanBus,
    /// The backbone wire (cpb [`BACKBONE_CPB`]).
    pub(crate) backbone: SharedCanBus,
    /// The actuator wire (cpb [`EDGE_CPB`]).
    pub(crate) actuator: SharedCanBus,
    /// Node index of gateway 1 (sensor → backbone).
    pub(crate) gw1: usize,
    /// Node index of gateway 2 (backbone → actuator).
    pub(crate) gw2: usize,
    /// Node index of the sink ECU.
    pub(crate) sink: usize,
}

/// Builds the gateway topology: sensors paced at `period_cycles`,
/// optional guest-programmed acceptance filters on the sensor ECUs and
/// the sink.
///
/// # Panics
///
/// Panics when `frames` is 0 or exceeds 100 (the sink compares
/// `2 * frames` against an 8-bit immediate).
pub(crate) fn build_gateway_topology(
    frames: u32,
    period_cycles: u64,
    sensor_filter: Option<(u32, u32)>,
    sink_filter: Option<(u32, u32)>,
    scheduler: SystemConfig,
) -> Result<GatewayTopology, CoreError> {
    assert!(
        frames > 0 && frames <= 100,
        "2 * frames must fit an 8-bit compare immediate"
    );
    let asm = asm_err(MachineConfig::m3_like().mode);
    let mut system = System::with_config(scheduler);
    let sensor = system.add_wire("sensor", EDGE_CPB);
    let backbone = system.add_wire("backbone", BACKBONE_CPB);
    let actuator = system.add_wire("actuator", EDGE_CPB);

    system.add_node(
        "sensor0",
        sensor_machine(frames, SENSOR_IDS[0], 0, period_cycles, sensor_filter, &sensor, &asm)?,
    );
    system.add_node(
        "sensor1",
        sensor_machine(frames, SENSOR_IDS[1], 1, period_cycles, sensor_filter, &sensor, &asm)?,
    );
    let gw1 = system.add_node(
        "gw1",
        gateway_machine(0x100, 0x17F, 0x300, 6, &sensor, &backbone, &asm)?,
    );
    let gw2 = system.add_node(
        "gw2",
        gateway_machine(0x300, 0x37F, 0x500, 7, &backbone, &actuator, &asm)?,
    );
    let sink =
        system.add_node("sink", sink_machine(2 * frames, 0, sink_filter, &actuator, &asm)?);
    Ok(GatewayTopology { system, sensor, backbone, actuator, gw1, gw2, sink })
}

/// Runs the 3-wire / 5-node gateway topology with explicit scheduler
/// knobs — determinism tests sweep quantum sizes, node orderings and
/// the idle-stretch and assert bit-identical results.
///
/// # Errors
///
/// Fails when assembly fails, the system hits the horizon, or a node
/// halts abnormally.
///
/// # Panics
///
/// Panics when `frames` is 0 or exceeds 100 (the sink compares
/// `2 * frames` against an 8-bit immediate).
pub fn gateway_experiment_with(
    frames: u32,
    scheduler: SystemConfig,
) -> Result<GatewayExperiment, CoreError> {
    Ok(gateway_experiment_traced(frames, scheduler, 0)?.0)
}

/// [`gateway_experiment_with`] plus structured tracing: the run records
/// under the given [`alia_obs::category`] bitmask and returns the
/// collected [`alia_obs::TraceSet`] (one stream per node, per wire, and
/// the scheduler's own) alongside the report. Mask `0` records nothing
/// and costs one untaken branch per site.
///
/// # Errors
///
/// Same contract as [`gateway_experiment_with`].
///
/// # Panics
///
/// Same contract as [`gateway_experiment_with`].
pub fn gateway_experiment_traced(
    frames: u32,
    scheduler: SystemConfig,
    trace_mask: u32,
) -> Result<(GatewayExperiment, alia_obs::TraceSet), CoreError> {
    let GatewayTopology { mut system, sensor, backbone, actuator, gw1, gw2, sink } =
        build_gateway_topology(frames, PERIOD_CYCLES, None, None, scheduler)?;
    system.set_trace_mask(trace_mask);

    let run = system.run(50_000_000);
    if run.reason != SystemStop::AllHalted {
        return Err(CoreError::Run {
            what: format!(
                "gateway topology hit the horizon: {:?}",
                system.nodes().iter().map(|n| (n.name().to_string(), n.halted())).collect::<Vec<_>>()
            ),
        });
    }
    let Some(StopReason::MmioExit(checksum)) = system.node(sink).halted() else {
        return Err(CoreError::Run {
            what: format!("sink stopped with {:?}", system.node(sink).halted()),
        });
    };
    system.settle_wires();

    // Analytic oracles, hop by hop: downstream streams inherit the
    // upstream response bound (+ forwarding latency) as release jitter.
    let s_streams = wire_streams(0, EDGE_CPB, [0, 0], PERIOD_CYCLES);
    let s_bound = |i: usize| {
        response_bound(&s_streams, SENSOR_IDS[i]).unwrap_or(0) * EDGE_CPB + FWD_LATENCY
    };
    let b_jitter = [s_bound(0), s_bound(1)];
    let b_streams = wire_streams(0x200, BACKBONE_CPB, b_jitter, PERIOD_CYCLES);
    let b_bound = |i: usize| {
        b_jitter[i]
            + response_bound(&b_streams, SENSOR_IDS[i] + 0x200).unwrap_or(0) * BACKBONE_CPB
            + FWD_LATENCY
    };
    let a_streams = wire_streams(0x400, EDGE_CPB, [b_bound(0), b_bound(1)], PERIOD_CYCLES);

    // End-to-end: correlate each actuator delivery back to its
    // sensor-wire enqueue by (stream, payload word).
    let (sensor_log, actuator_log) = (sensor.delivery_log(), actuator.delivery_log());
    let mut end_to_end = Vec::new();
    for (s, id) in SENSOR_IDS.iter().enumerate() {
        for k in 0..frames {
            let src = sensor_log
                .iter()
                .find(|d| d.frame.id.raw() == *id && u32::from(d.frame.data[0]) == k % 256)
                .map(|d| d.enqueued_at * EDGE_CPB);
            let dst = actuator_log
                .iter()
                .find(|d| d.frame.id.raw() == id + 0x400 && u32::from(d.frame.data[0]) == k % 256)
                .map(|d| d.completed_at * EDGE_CPB);
            if let (Some(src), Some(dst)) = (src, dst) {
                end_to_end.push(dst - src);
            } else {
                return Err(CoreError::Run {
                    what: format!("frame {k} of stream {s} did not cross end to end"),
                });
            }
        }
    }

    let forwards = [gw1, gw2].map(|n| {
        system.node(n).machine().bus.device::<Dma>().map_or(0, Dma::forwarded)
    });
    let wires = vec![
        wire_report(&sensor, &s_streams),
        wire_report(&backbone, &b_streams),
        wire_report(&actuator, &a_streams),
    ];
    let delivery_logs: Vec<Vec<(u32, u64)>> = [&sensor, &backbone, &actuator]
        .iter()
        .map(|w| {
            w.delivery_log()
                .iter()
                .map(|d| (d.frame.id.raw(), d.completed_at * w.cycles_per_bit()))
                .collect()
        })
        .collect();
    let trace = system.trace_set();
    Ok((
        GatewayExperiment {
            frames,
            checksum,
            frames_delivered: system
                .node(sink)
                .machine()
                .bus
                .device::<CanController>()
                .map_or(0, CanController::rx_count),
            forwards,
            wires,
            end_to_end,
            node_cycles: system.nodes().iter().map(Node::cycles).collect(),
            delivery_logs,
            quanta: run.quanta,
        },
        trace,
    ))
}

/// Runs the gateway topology with default scheduling.
///
/// # Errors
///
/// Same contract as [`gateway_experiment_with`].
pub fn gateway_experiment(frames: u32) -> Result<GatewayExperiment, CoreError> {
    gateway_experiment_with(frames, SystemConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_cross_three_wires_end_to_end() {
        let e = gateway_experiment(8).expect("topology completes");
        assert_eq!(e.frames_delivered, 16);
        assert_eq!(e.checksum, gateway_checksum(8));
        assert_eq!(e.forwards, [16, 16]);
        assert_eq!(e.wires.len(), 3);
        for w in &e.wires {
            assert_eq!(w.deliveries, 16, "wire {}", w.name);
            assert!(w.schedulable, "wire {}", w.name);
            assert!(w.within_bounds(), "wire {}: {:?}", w.name, w.worst_latencies);
            assert!(w.utilization > 0.0, "wire {}", w.name);
        }
        assert_eq!(e.end_to_end.len(), 16);
        // Each frame crosses three wires and two store-and-forward hops:
        // the end-to-end latency is at least the sum of the three wire
        // times plus both latencies.
        let floor = 2 * FWD_LATENCY;
        assert!(e.end_to_end.iter().all(|&l| l > floor));
        let s = e.to_string();
        assert!(s.contains("gateway network"));
        assert!(s.contains("backbone"));
    }

    /// The E10 guest images at 16 frames per sensor (both sensors, both
    /// gateways, the sink; then a filtered sensor and sink as E11's
    /// filter studies program them), pinned by length and FNV-1a in
    /// assembly order: an assembler change must not move a byte.
    #[test]
    fn e10_images_are_pinned() {
        let images = std::cell::RefCell::new(Vec::new());
        let base = asm_err(MachineConfig::m3_like().mode);
        let asm = |src: &str| {
            let bytes = base(src)?;
            let mut fnv = alia_obs::Fnv::default();
            for &b in &bytes {
                fnv.u64(u64::from(b));
            }
            images.borrow_mut().push((bytes.len(), fnv.finish()));
            Ok(bytes)
        };
        let (a, b) = (SharedCanBus::named("a", EDGE_CPB), SharedCanBus::named("b", BACKBONE_CPB));
        let filter = Some((0x100, 0x7C0));
        sensor_machine(16, SENSOR_IDS[0], 0, PERIOD_CYCLES, None, &a, &asm).unwrap();
        sensor_machine(16, SENSOR_IDS[1], 1, PERIOD_CYCLES, None, &a, &asm).unwrap();
        gateway_machine(0x100, 0x17F, 0x300, 6, &a, &b, &asm).unwrap();
        gateway_machine(0x300, 0x37F, 0x500, 7, &b, &a, &asm).unwrap();
        sink_machine(32, 0, None, &a, &asm).unwrap();
        sensor_machine(16, SENSOR_IDS[0], 0, PERIOD_CYCLES, filter, &a, &asm).unwrap();
        sink_machine(32, 0, filter, &a, &asm).unwrap();
        let expected = [
            (36, 0x589a_867c_b54d_e7f8),
            (34, 0xa8ae_c274_43c9_2464),
            (20, 0x55f9_476a_c277_896c),
            (36, 0x589a_867c_b54d_e7f8),
            (34, 0xbffc_60c3_0a05_4424),
            (20, 0x55f9_476a_c277_896c),
            (46, 0x7850_f1e0_cb76_8ad5),
            (46, 0x2a53_e8a8_cfaa_f393),
            (18, 0xc912_979a_f0a7_e55d),
            (30, 0xca81_c45e_520c_dde4),
            (56, 0x02fa_3643_99c6_c97e),
            (34, 0xa8ae_c274_43c9_2464),
            (20, 0x55f9_476a_c277_896c),
            (38, 0xc531_361c_9e78_e55b),
            (30, 0xca81_c45e_520c_dde4),
        ];
        assert_eq!(images.into_inner(), expected);
    }

    /// E10 with the block engine off on every node (the per-step
    /// reference) against the engine on: the run result (quanta
    /// included), the semantic trace hash, each node's clock, halt
    /// reason, instruction count and IRQ latencies, and every wire's
    /// delivery log must be identical.
    #[test]
    fn e10_is_identical_with_the_engine_off() {
        let run = |engine: bool| {
            let mut topo =
                build_gateway_topology(16, PERIOD_CYCLES, None, None, SystemConfig::default())
                    .expect("topology builds");
            let system = &mut topo.system;
            for i in 0..system.nodes().len() {
                system.node_mut(i).machine_mut().set_predecode_enabled(engine);
            }
            system.set_trace_mask(alia_obs::category::ALL);
            let result = system.run(50_000_000);
            assert_eq!(result.reason, SystemStop::AllHalted, "engine {engine}");
            (result, topo.system)
        };
        let (r_on, on) = run(true);
        let (r_off, off) = run(false);
        assert_eq!(r_on, r_off, "run result");
        let semantic = |s: &System| s.trace_set().fnv_hash(alia_obs::category::SEMANTIC);
        assert_eq!(semantic(&on), semantic(&off), "semantic trace hash");
        for (a, b) in on.nodes().iter().zip(off.nodes()) {
            let what = a.name();
            assert_eq!(a.cycles(), b.cycles(), "{what}: cycles");
            assert_eq!(a.halted(), b.halted(), "{what}: halt reason");
            let (ma, mb) = (a.machine(), b.machine());
            assert_eq!(ma.instructions(), mb.instructions(), "{what}: instructions");
            assert_eq!(ma.latencies(), mb.latencies(), "{what}: IRQ latencies");
            assert_eq!(mb.predecode_stats().block_hits, 0, "{what}: reference dispatched blocks");
        }
        let hits: u64 = on.nodes().iter().map(|n| n.machine().predecode_stats().block_hits).sum();
        assert!(hits > 0, "the engine-on run must dispatch blocks");
        for (a, b) in on.wires().iter().zip(off.wires()) {
            assert_eq!(a.delivery_log(), b.delivery_log(), "wire {}: delivery log", a.name());
        }
    }

    #[test]
    fn checksum_is_closed_form() {
        let e = gateway_experiment(3).expect("completes");
        let expect: u32 = [0x500u32, 0x540]
            .iter()
            .map(|id| (0..3).map(|k| id + k).sum::<u32>())
            .sum();
        assert_eq!(e.checksum, expect);
        assert_eq!(gateway_checksum(3), expect);
    }
}
