//! The E10 3-wire / 5-ECU gateway topology, composed from the public
//! API in two timed steps: assembling the guest images
//! (`isa.assemble`) and constructing machines, wires and nodes
//! (`sim.build`).
//!
//! ```text
//! sensor0 ─┐
//!          ├─ sensor wire ── gw1 (DMA) ── backbone ── gw2 (DMA) ── actuator wire ── sink
//! sensor1 ─┘   (cpb 4)                    (cpb 2)                    (cpb 4)
//! ```
//!
//! The guest programs are the E10 firmware, so at the same parameters
//! the composed mission reproduces `gateway_experiment_with` bit for bit.

use alia_core::prelude::can::{response_bound_with_errors, CanMessage};
use alia_core::prelude::isa::Assembler;
use alia_core::prelude::sim::{
    CanConfig, DeviceSpec, Dma, DmaConfig, Machine, MachineConfig, SharedCanBus, System,
    SystemConfig, TimerConfig, CAN_BASE, DMA_BASE, SRAM_BASE, TIMER_BASE,
};

use crate::spans::Ctx;

/// Cycles per CAN bit on the sensor and actuator wires.
pub const EDGE_CPB: u64 = 4;
/// Cycles per CAN bit on the backbone.
pub const BACKBONE_CPB: u64 = 2;
/// Sensor timer period, cycles.
pub const PERIOD_CYCLES: u64 = 2_000;
/// Store-and-forward latency of each gateway engine, cycles.
pub const FWD_LATENCY: u64 = 200;
/// The two sensor streams' ids on the sensor wire.
pub const SENSOR_IDS: [u32; 2] = [0x100, 0x140];

/// Every guest image of one mission, assembled.
pub struct Images {
    /// Per sensor: main, timer handler, RX drain handler.
    sensors: [[Vec<u8>; 3]; 2],
    gateways: [Vec<u8>; 2],
    /// Sink main and RX handler.
    sink: [Vec<u8>; 2],
}

fn asm(src: &str) -> Result<Vec<u8>, String> {
    Assembler::new(MachineConfig::m3_like().mode)
        .assemble(src)
        .map(|o| o.bytes)
        .map_err(|e| format!("asm: {e}"))
}

fn sensor_images(frames: u32, id: u32) -> Result<[Vec<u8>; 3], String> {
    let main = asm(&format!(
        "movw r0, #0x1000
         movt r0, #0x4000
         movw r1, #{PERIOD_CYCLES}
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
    let drop_rx = asm("movw r0, #0x2000
         movt r0, #0x4000
         drop: ldr r1, [r0, #20]
         cmp r1, #0
         beq done
         str r1, [r0, #40]
         b drop
         done: bx lr")?;
    Ok([main, tick, drop_rx])
}

fn gateway_image(lo: u32, hi: u32, rewrite: u32) -> Result<Vec<u8>, String> {
    asm(&format!(
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
    ))
}

fn sink_images(total: u32) -> Result<[Vec<u8>; 2], String> {
    let main = asm(&format!(
        "sleep: wfi
         cmp r7, #{total}
         blt sleep
         movw r0, #0
         movt r0, #0x4000
         str r6, [r0, #0]
         halt: b halt"
    ))?;
    let rx = asm("movw r0, #0x2000
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
         rxdone: bx lr")?;
    Ok([main, rx])
}

/// Assembles every image of a `frames`-per-sensor mission.
pub fn assemble(frames: u32) -> Result<Images, String> {
    if frames == 0 || frames > 100 {
        return Err(format!(
            "{frames} frames: 2 * frames must fit the sink's 8-bit compare"
        ));
    }
    Ok(Images {
        sensors: [
            sensor_images(frames, SENSOR_IDS[0])?,
            sensor_images(frames, SENSOR_IDS[1])?,
        ],
        gateways: [
            gateway_image(0x100, 0x17F, 0x300)?,
            gateway_image(0x300, 0x37F, 0x500)?,
        ],
        sink: sink_images(2 * frames)?,
    })
}

fn boot(mut m: Machine, main: &[u8]) -> Machine {
    m.load_flash(0x100, main);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

/// Node indices in `add_node` order.
pub const GW_NODES: [usize; 2] = [2, 3];
pub const SINK_NODE: usize = 4;

/// Builds the machines, wires and nodes around assembled `images`.
pub fn build(images: &Images) -> System {
    let mut system = System::with_config(SystemConfig::default());
    let sensor = system.add_wire("sensor", EDGE_CPB);
    let backbone = system.add_wire("backbone", BACKBONE_CPB);
    let actuator = system.add_wire("actuator", EDGE_CPB);
    for (node, [main, tick, drop_rx]) in images.sensors.iter().enumerate() {
        let mut config = MachineConfig::m3_like();
        config.devices = vec![
            DeviceSpec::Timer(TimerConfig {
                base: TIMER_BASE,
                irq: 0,
                compare: PERIOD_CYCLES as u32,
            }),
            DeviceSpec::SharedCan(
                CanConfig {
                    base: CAN_BASE,
                    irq: 1,
                    node,
                    ..CanConfig::default()
                },
                sensor.clone(),
            ),
        ];
        let mut m = Machine::new(config);
        m.load_flash(0x200, tick);
        m.load_flash(0x300, drop_rx);
        m.load_flash(0, &0x200u32.to_le_bytes());
        m.load_flash(4, &0x300u32.to_le_bytes());
        system.add_node(format!("sensor{node}"), boot(m, main));
    }
    let hops: [(&str, usize, &SharedCanBus, &SharedCanBus); 2] = [
        ("gw1", 6, &sensor, &backbone),
        ("gw2", 7, &backbone, &actuator),
    ];
    for ((name, node, a, b), main) in hops.into_iter().zip(&images.gateways) {
        let mut config = MachineConfig::m3_like();
        config.devices = vec![DeviceSpec::Dma(
            DmaConfig {
                base: DMA_BASE,
                irq: 3,
                node_a: node,
                node_b: node,
                latency: 0,
            },
            a.clone(),
            b.clone(),
        )];
        system.add_node(name, boot(Machine::new(config), main));
    }
    let mut config = MachineConfig::m3_like();
    config.devices = vec![DeviceSpec::SharedCan(
        CanConfig {
            base: CAN_BASE,
            irq: 1,
            node: 0,
            ..CanConfig::default()
        },
        actuator.clone(),
    )];
    let mut m = Machine::new(config);
    m.load_flash(0x200, &images.sink[1]);
    m.load_flash(4, &0x200u32.to_le_bytes());
    system.add_node("sink", boot(m, &images.sink[0]));
    system
}

/// Assembles and builds a topology under the `isa.assemble` and
/// `sim.build` spans.
pub fn assemble_and_build(frames: u32, ctx: &mut Ctx) -> Result<System, String> {
    let images = ctx.span("isa.assemble", |_| assemble(frames))?;
    Ok(ctx.span("sim.build", |_| build(&images)))
}

/// The wire of `system` called `name`.
pub fn wire(system: &System, name: &str) -> Result<SharedCanBus, String> {
    system
        .wire_named(name)
        .cloned()
        .ok_or_else(|| format!("no {name} wire"))
}

/// Frames both gateway engines forwarded.
pub fn forwards(system: &System) -> u64 {
    GW_NODES
        .iter()
        .map(|&n| {
            system
                .node(n)
                .machine()
                .bus
                .device::<Dma>()
                .map_or(0, Dma::forwarded)
        })
        .sum()
}

/// Both sensor streams as offered to one wire, with release jitter
/// inherited from upstream hops (holistic composition).
fn wire_streams(id_offset: u32, cpb: u64, jitter_cycles: [u64; 2]) -> Vec<CanMessage> {
    SENSOR_IDS
        .iter()
        .zip(jitter_cycles)
        .map(|(id, j)| {
            let period = PERIOD_CYCLES / cpb;
            let jitter = j.div_ceil(cpb);
            CanMessage {
                id: id + id_offset,
                dlc: 4,
                extended: false,
                period,
                jitter,
                deadline: period + jitter,
            }
        })
        .collect()
}

/// Per-wire analytic stream sets, hop-composed as in E10: each
/// downstream stream inherits the upstream response bound plus the
/// store-and-forward latency as release jitter. With `sensor_errors`
/// error frames on the sensor wire, its bounds are Tindell's
/// error-extended ones and the extension propagates downstream as
/// jitter.
pub struct Oracle {
    /// `(wire name, stream set, per-stream bound in bit times)`.
    pub wires: Vec<(&'static str, Vec<CanMessage>, Vec<u64>)>,
}

pub fn oracle(sensor_errors: u64) -> Oracle {
    // With zero errors the extended bound is exactly `response_bound`.
    let bounds = |streams: &[CanMessage], errors: u64| -> Vec<u64> {
        streams
            .iter()
            .map(|m| response_bound_with_errors(streams, m.id, errors).unwrap_or(0))
            .collect()
    };
    let s = wire_streams(0, EDGE_CPB, [0, 0]);
    let s_b = bounds(&s, sensor_errors);
    let b_jitter = [0, 1].map(|i| s_b[i] * EDGE_CPB + FWD_LATENCY);
    let b = wire_streams(0x200, BACKBONE_CPB, b_jitter);
    let b_b = bounds(&b, 0);
    let a_jitter = [0, 1].map(|i| b_jitter[i] + b_b[i] * BACKBONE_CPB + FWD_LATENCY);
    let a = wire_streams(0x400, EDGE_CPB, a_jitter);
    let a_b = bounds(&a, 0);
    Oracle {
        wires: vec![
            ("sensor", s, s_b),
            ("backbone", b, b_b),
            ("actuator", a, a_b),
        ],
    }
}
