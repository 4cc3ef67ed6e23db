//! E8 — §1/§4: the "virtual multi-core" vision experiment.
//!
//! Compares the traditional fleet (heterogeneous legacy ISAs, every
//! function welded to its ECU) against the ISA-harmonized fleet with
//! distributed placement, reporting placement success, peak utilization,
//! fleet-wide code bytes and the schedulability of the CAN traffic that
//! migration induces.

use std::fmt;

use alia_can::{allocate, body_task_set, fleet, AllocationReport, Placement};
use alia_sim::{
    CanConfig, CanController, DeviceSpec, Machine, MachineConfig, StopReason, System,
    SystemConfig, SystemStop, Timer, TimerConfig, Watchdog, WatchdogConfig, CAN_BASE, SRAM_BASE,
    TIMER_BASE, WATCHDOG_BASE,
};

use super::gateway::asm_err;
use crate::CoreError;

/// The E8 result.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkExperiment {
    /// ECU count.
    pub nodes: usize,
    /// Tasks in the set.
    pub tasks: usize,
    /// Heterogeneous fleet, dedicated placement.
    pub dedicated: AllocationReport,
    /// Harmonized fleet, distributed placement.
    pub harmonized: AllocationReport,
}

impl fmt::Display for NetworkExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§1/§4 — virtual multi-core ({} ECUs, {} tasks)",
            self.nodes, self.tasks
        )?;
        writeln!(
            f,
            "{:<26} {:>8} {:>9} {:>10} {:>12} {:>10}",
            "fleet", "placed", "unplaced", "peak util", "code bytes", "bus util"
        )?;
        for (name, r) in [
            ("heterogeneous/dedicated", &self.dedicated),
            ("harmonized/distributed", &self.harmonized),
        ] {
            writeln!(
                f,
                "{:<26} {:>8} {:>9} {:>9.0}% {:>12} {:>9.1}%",
                name,
                r.placed,
                r.unplaced,
                r.peak_utilization * 100.0,
                r.code_bytes,
                r.bus_utilization.max(0.0) * 100.0
            )?;
        }
        Ok(())
    }
}

/// Runs the E8 experiment over `nodes` ECUs with `tasks_per_node`
/// functions each.
///
/// # Errors
///
/// Never fails today; returns `Result` for interface consistency.
pub fn network_experiment(
    nodes: usize,
    tasks_per_node: usize,
) -> Result<NetworkExperiment, CoreError> {
    let tasks = body_task_set(nodes, tasks_per_node);
    let dedicated = allocate(&fleet(nodes, false), &tasks, Placement::Dedicated);
    let harmonized = allocate(&fleet(nodes, true), &tasks, Placement::Distributed);
    Ok(NetworkExperiment { nodes, tasks: tasks.len(), dedicated, harmonized })
}

/// Result of the guest-driven CAN/timer exchange: a kernel on the
/// M3-class node sends and receives CAN frames and paces itself on
/// timer interrupts purely through loads and stores to the bus devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuestCanExchange {
    /// Frames the guest submitted through the TX registers.
    pub frames_sent: u64,
    /// Frames the guest drained from the RX FIFO.
    pub frames_received: u64,
    /// Checksum the guest accumulated over received ids and payloads
    /// (reported through the MMIO exit register).
    pub checksum: u32,
    /// Timer compare matches that interrupted the guest.
    pub timer_fires: u64,
    /// Interrupts the core actually took.
    pub irqs_taken: u64,
    /// Guest cycles for the whole exchange.
    pub cycles: u64,
    /// CAN wire utilization over the active window (first enqueue to
    /// last completion).
    pub bus_utilization: f64,
}

impl fmt::Display for GuestCanExchange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "guest-driven CAN exchange: {} sent / {} received in {} cycles \
             ({} timer IRQs, {} IRQs taken, wire {:.1}% busy, checksum {:#x})",
            self.frames_sent,
            self.frames_received,
            self.cycles,
            self.timer_fires,
            self.irqs_taken,
            self.bus_utilization * 100.0,
            self.checksum
        )
    }
}

/// The expected checksum of [`guest_can_exchange`]: the guest sums each
/// received frame's id (`0x100 + k`) and first payload word (`k`).
#[must_use]
pub fn guest_can_exchange_checksum(frames: u32) -> u32 {
    (0..frames).map(|k| 0x100 + k + k).sum()
}

/// Runs a guest program that exchanges `frames` CAN frames with itself
/// (loopback test mode) and paces transmission on a periodic timer —
/// every device interaction is a guest load or store; the host only
/// builds the machine, alone on its wire in a one-node [`System`], and
/// reads the result.
///
/// The timer IRQ handler stages and submits one frame per compare
/// match; the CAN RX IRQ handler drains the FIFO, accumulating the
/// checksum. The main loop spins until all frames have arrived, then
/// exits through the MMIO exit register with the checksum as the code.
///
/// # Errors
///
/// Fails when assembly fails or the exchange does not complete.
///
/// # Panics
///
/// Panics when `frames` exceeds 200 (the guest uses 8-bit compare
/// immediates).
pub fn guest_can_exchange(frames: u32) -> Result<GuestCanExchange, CoreError> {
    assert!(frames > 0 && frames <= 200, "frame count must fit an 8-bit immediate");
    // One node alone on its wire: only the scheduler advances a wire.
    let mut system = System::new();
    let wire = system.add_wire("can", 4);
    let mut config = MachineConfig::m3_like();
    config.devices = vec![
        DeviceSpec::Timer(TimerConfig { base: TIMER_BASE, irq: 0, compare: 1_000 }),
        DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 0, loopback: true, ..CanConfig::default() },
            wire.clone(),
        ),
    ];
    let asm = asm_err(config.mode);
    // Main: program the timer (COMPARE then CTRL = enable | periodic),
    // spin until the RX handler has counted all frames, exit with the
    // checksum.
    let main = asm(&format!(
        "movw r0, #0x1000
         movt r0, #0x4000
         movw r1, #1000
         str r1, [r0, #4]
         mov r1, #3
         str r1, [r0, #0]
         spin: cmp r7, #{frames}
         bne spin
         movw r0, #0
         movt r0, #0x4000
         str r6, [r0, #0]
         halt: b halt"
    ))?;
    // Timer handler: submit frame k with id 0x100+k and payload word k,
    // until `frames` have been sent.
    let timer_handler = asm(&format!(
        "movw r0, #0x2000
         movt r0, #0x4000
         cmp r4, #{frames}
         bge done
         movw r1, #0x100
         add r1, r1, r4
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
    // CAN RX handler: drain the FIFO, summing id + first payload word.
    let can_handler = asm(
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
    m.load_flash(0x100, &main);
    m.load_flash(0x200, &timer_handler);
    m.load_flash(0x300, &can_handler);
    m.load_flash(0, &0x200u32.to_le_bytes()); // vector: timer (irq 0)
    m.load_flash(4, &0x300u32.to_le_bytes()); // vector: CAN RX (irq 1)
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    let node = system.add_node("ecu", m);
    system.run(10_000_000);
    let node = system.node(node);
    let Some(StopReason::MmioExit(checksum)) = node.halted() else {
        return Err(CoreError::Run {
            what: format!(
                "exchange stopped with {:?} after {} cycles",
                node.halted(),
                node.cycles()
            ),
        });
    };
    let m = node.machine();
    let timer_fires = m.bus.device::<Timer>().expect("timer attached").fires();
    let can = m.bus.device::<CanController>().expect("CAN controller attached");
    // Settle the wire before reading utilization so frames the guest
    // enqueued through TX_GO are accounted for even if some were still
    // queued when the machine halted.
    wire.settle();
    Ok(GuestCanExchange {
        frames_sent: can.tx_count(),
        frames_received: can.rx_count(),
        checksum,
        timer_fires,
        irqs_taken: m.irq.taken,
        cycles: node.cycles(),
        bus_utilization: wire.span_utilization().unwrap_or(0.0),
    })
}

// ---------------------------------------------------------------------
// Multi-ECU: two machines, one shared wire
// ---------------------------------------------------------------------

/// Result of the two-ECU exchange over a [`alia_sim::SharedCanBus`]: a
/// producer ECU samples its timer and ships frames, a consumer ECU
/// checksums them — both guests written against the ordinary MMIO
/// register maps, scheduled by [`System`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiEcuExchange {
    /// Frames the producer was asked to ship.
    pub frames: u32,
    /// Frames the producer submitted through its TX registers.
    pub frames_sent: u64,
    /// Frames the consumer drained from its RX FIFO.
    pub frames_received: u64,
    /// Checksum the consumer accumulated (its MMIO exit code).
    pub checksum: u32,
    /// Producer guest cycles at halt.
    pub producer_cycles: u64,
    /// Consumer guest cycles at halt.
    pub consumer_cycles: u64,
    /// Shared-wire utilization over the active window (first enqueue to
    /// last completion), independent of the schedule.
    pub bus_utilization: f64,
    /// Scheduler quanta executed.
    pub quanta: u64,
    /// The wire's delivery log as `(raw id, completion cycle)` —
    /// determinism tests compare it across scheduler configurations.
    pub delivery_log: Vec<(u32, u64)>,
}

impl fmt::Display for MultiEcuExchange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "multi-ECU exchange: {} frames producer->consumer over the shared wire \
             (checksum {:#x}, producer {} / consumer {} cycles, wire {:.1}% busy, \
             {} quanta)",
            self.frames_received,
            self.checksum,
            self.producer_cycles,
            self.consumer_cycles,
            self.bus_utilization * 100.0,
            self.quanta
        )
    }
}

/// The producer ECU: a periodic timer (IRQ 0) paces one frame per
/// compare match; the main loop spins until all frames are sent, then
/// exits with the sent count.
fn producer_machine(
    frames: u32,
    wire: &alia_sim::SharedCanBus,
    asm: &impl Fn(&str) -> Result<Vec<u8>, CoreError>,
) -> Result<Machine, CoreError> {
    let mut config = MachineConfig::m3_like();
    config.devices = vec![
        DeviceSpec::Timer(TimerConfig { base: TIMER_BASE, irq: 0, compare: 600 }),
        DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
            wire.clone(),
        ),
    ];
    let main = asm(&format!(
        "movw r0, #0x1000
         movt r0, #0x4000
         movw r1, #600
         str r1, [r0, #4]
         mov r1, #3
         str r1, [r0, #0]
         spin: cmp r4, #{frames}
         bne spin
         movw r0, #0
         movt r0, #0x4000
         str r4, [r0, #0]
         halt: b halt"
    ))?;
    // Timer handler: submit frame k with id 0x100+k and payload word k.
    let timer_handler = asm(&format!(
        "movw r0, #0x2000
         movt r0, #0x4000
         cmp r4, #{frames}
         bge done
         movw r1, #0x100
         add r1, r1, r4
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
    let mut m = Machine::new(config);
    m.load_flash(0x100, &main);
    m.load_flash(0x200, &timer_handler);
    m.load_flash(0, &0x200u32.to_le_bytes()); // vector: timer (irq 0)
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    Ok(m)
}

/// The consumer ECU: the CAN RX handler (IRQ 1) drains the FIFO,
/// checksumming ids and payloads and kicking the watchdog; the watchdog
/// handler (IRQ 2, wired as NMI) exits with `0xDEAD0000 | received` if
/// the producer goes silent. The main loop spins until all expected
/// frames arrived, then exits with the checksum.
fn consumer_machine(
    frames: u32,
    wire: &alia_sim::SharedCanBus,
    watchdog_timeout: u32,
    asm: &impl Fn(&str) -> Result<Vec<u8>, CoreError>,
) -> Result<Machine, CoreError> {
    let mut config = MachineConfig::m3_like();
    config.devices = vec![
        DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 1, ..CanConfig::default() },
            wire.clone(),
        ),
        DeviceSpec::Watchdog(WatchdogConfig {
            base: WATCHDOG_BASE,
            irq: 2,
            timeout: watchdog_timeout,
        }),
    ];
    let main = asm(&format!(
        "movw r0, #0x3000
         movt r0, #0x4000
         mov r1, #1
         str r1, [r0, #0]
         spin: cmp r7, #{frames}
         bne spin
         movw r0, #0
         movt r0, #0x4000
         str r6, [r0, #0]
         halt: b halt"
    ))?;
    // CAN RX handler: drain the FIFO (id + first payload word into the
    // checksum), kick the watchdog once per drain.
    let can_handler = asm(
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
         rxdone: movw r0, #0x3000
         movt r0, #0x4000
         str r1, [r0, #8]
         bx lr",
    )?;
    // Watchdog handler: the peer stalled — exit with a marker code
    // carrying the frames received so far.
    let dog_handler = asm(
        "movw r1, #0
         movt r1, #0xDEAD
         orr r1, r1, r7
         movw r0, #0
         movt r0, #0x4000
         str r1, [r0, #0]
         stuck: b stuck",
    )?;
    let mut m = Machine::new(config);
    m.load_flash(0x100, &main);
    m.load_flash(0x300, &can_handler);
    m.load_flash(0x400, &dog_handler);
    m.load_flash(4, &0x300u32.to_le_bytes()); // vector: CAN RX (irq 1)
    m.load_flash(8, &0x400u32.to_le_bytes()); // vector: watchdog (irq 2)
    m.irq.nmi = Some(2); // the watchdog bite cannot be masked
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    Ok(m)
}

/// Runs the two-ECU exchange with explicit scheduler knobs — the
/// determinism tests sweep quantum sizes and node orderings and assert
/// bit-identical results.
///
/// # Errors
///
/// Fails when assembly fails or the exchange does not complete.
///
/// # Panics
///
/// Panics when `frames` is 0 or exceeds 200 (8-bit compare immediates
/// in the guests).
pub fn multi_ecu_exchange_with(
    frames: u32,
    scheduler: SystemConfig,
) -> Result<MultiEcuExchange, CoreError> {
    assert!(frames > 0 && frames <= 200, "frame count must fit an 8-bit immediate");
    let asm = asm_err(MachineConfig::m3_like().mode);
    let mut system = System::with_config(scheduler);
    let wire = system.add_wire("can0", 4);
    let producer = system.add_node("producer", producer_machine(frames, &wire, &asm)?);
    let consumer = system.add_node(
        "consumer",
        // Never bites here: the timeout outlives the whole exchange.
        consumer_machine(frames, &wire, u32::MAX, &asm)?,
    );
    let run = system.run(10_000_000);
    if run.reason != SystemStop::AllHalted {
        return Err(CoreError::Run {
            what: format!(
                "multi-ECU exchange hit the horizon: producer {:?}, consumer {:?}",
                system.node(producer).halted(),
                system.node(consumer).halted()
            ),
        });
    }
    let Some(StopReason::MmioExit(sent_code)) = system.node(producer).halted() else {
        return Err(CoreError::Run {
            what: format!("producer stopped with {:?}", system.node(producer).halted()),
        });
    };
    let Some(StopReason::MmioExit(checksum)) = system.node(consumer).halted() else {
        return Err(CoreError::Run {
            what: format!("consumer stopped with {:?}", system.node(consumer).halted()),
        });
    };
    debug_assert_eq!(sent_code, frames);
    wire.settle();
    let tx = system.node(producer).machine().bus.device::<CanController>();
    let rx = system.node(consumer).machine().bus.device::<CanController>();
    Ok(MultiEcuExchange {
        frames,
        frames_sent: tx.map_or(0, CanController::tx_count),
        frames_received: rx.map_or(0, CanController::rx_count),
        checksum,
        producer_cycles: system.node(producer).cycles(),
        consumer_cycles: system.node(consumer).cycles(),
        bus_utilization: wire.span_utilization().unwrap_or(0.0),
        quanta: run.quanta,
        delivery_log: wire
            .delivery_log()
            .iter()
            .map(|d| (d.frame.id.raw(), d.completed_at * wire.cycles_per_bit()))
            .collect(),
    })
}

/// Runs the two-ECU exchange with default scheduling: `frames` CAN
/// frames guest-to-guest over the shared wire. The expected checksum is
/// [`guest_can_exchange_checksum`] (the frame ids and payloads match
/// the single-machine loopback exchange).
///
/// # Errors
///
/// Same contract as [`multi_ecu_exchange_with`].
pub fn multi_ecu_exchange(frames: u32) -> Result<MultiEcuExchange, CoreError> {
    multi_ecu_exchange_with(frames, SystemConfig::default())
}

/// Result of the stalled-peer scenario: the producer ships only part of
/// what the consumer expects, and the consumer's watchdog detects the
/// silence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiEcuWatchdog {
    /// Frames the consumer expected.
    pub expected: u32,
    /// Frames the producer actually shipped before stalling.
    pub sent: u32,
    /// Whether the watchdog bit (it must iff `sent < expected`).
    pub stall_detected: bool,
    /// Frames the consumer received before the verdict.
    pub frames_received: u64,
    /// Watchdog expiries on the consumer.
    pub watchdog_bites: u64,
    /// The consumer's exit code (`0xDEAD0000 | received` on a stall,
    /// the checksum otherwise).
    pub consumer_code: u32,
}

impl fmt::Display for MultiEcuWatchdog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "multi-ECU watchdog: {}/{} frames before silence -> {} \
             (consumer exit {:#x}, {} bite(s))",
            self.sent,
            self.expected,
            if self.stall_detected { "stall detected" } else { "no stall" },
            self.consumer_code,
            self.watchdog_bites
        )
    }
}

/// Runs the stalled-peer scenario: the consumer expects `expected`
/// frames and arms its watchdog; the producer ships only `sent` before
/// going silent. With `sent < expected` the consumer's watchdog must
/// bite and report the stall through its NMI handler.
///
/// # Errors
///
/// Fails when assembly fails or neither node reaches a verdict.
///
/// # Panics
///
/// Panics when `expected` is 0, exceeds 200, or is smaller than `sent`.
pub fn multi_ecu_watchdog(expected: u32, sent: u32) -> Result<MultiEcuWatchdog, CoreError> {
    assert!(expected > 0 && expected <= 200, "frame count must fit an 8-bit immediate");
    assert!(sent <= expected, "the producer cannot send more than expected");
    let asm = asm_err(MachineConfig::m3_like().mode);
    let mut system = System::new();
    let wire = system.add_wire("can0", 4);
    // The producer is built to ship only `sent` frames and halt.
    let producer = system.add_node("producer", producer_machine(sent, &wire, &asm)?);
    // Inter-frame gap is 600 cycles; 20k cycles of silence is a stall.
    let consumer =
        system.add_node("consumer", consumer_machine(expected, &wire, 20_000, &asm)?);
    let run = system.run(10_000_000);
    if run.reason != SystemStop::AllHalted {
        return Err(CoreError::Run {
            what: format!(
                "watchdog scenario hit the horizon: producer {:?}, consumer {:?}",
                system.node(producer).halted(),
                system.node(consumer).halted()
            ),
        });
    }
    let Some(StopReason::MmioExit(consumer_code)) = system.node(consumer).halted() else {
        return Err(CoreError::Run {
            what: format!("consumer stopped with {:?}", system.node(consumer).halted()),
        });
    };
    let rx = system.node(consumer).machine().bus.device::<CanController>();
    let dog = system.node(consumer).machine().bus.device::<Watchdog>();
    Ok(MultiEcuWatchdog {
        expected,
        sent,
        stall_detected: consumer_code & 0xFFFF_0000 == 0xDEAD_0000,
        frames_received: rx.map_or(0, CanController::rx_count),
        watchdog_bites: dog.map_or(0, Watchdog::bites),
        consumer_code,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_exchange_is_fully_load_store_driven() {
        let e = guest_can_exchange(8).expect("exchange completes");
        assert_eq!(e.frames_sent, 8);
        assert_eq!(e.frames_received, 8);
        assert_eq!(e.checksum, guest_can_exchange_checksum(8));
        assert!(e.timer_fires >= 8, "one send per compare match");
        assert!(e.irqs_taken >= 16, "timer + RX interrupts both taken");
        assert!(e.bus_utilization > 0.0);
        let s = e.to_string();
        assert!(s.contains("guest-driven CAN exchange"));
    }

    #[test]
    fn guest_exchange_scales_with_frame_count() {
        let small = guest_can_exchange(2).expect("completes");
        let large = guest_can_exchange(16).expect("completes");
        assert_eq!(small.checksum, guest_can_exchange_checksum(2));
        assert_eq!(large.checksum, guest_can_exchange_checksum(16));
        assert!(large.cycles > small.cycles);
    }

    #[test]
    fn multi_ecu_exchange_crosses_the_shared_wire() {
        // Acceptance: a two-node System exchanges >= 64 frames
        // guest-to-guest with a deterministic checksum.
        let e = multi_ecu_exchange(64).expect("exchange completes");
        assert_eq!(e.frames_sent, 64);
        assert_eq!(e.frames_received, 64);
        assert_eq!(e.checksum, guest_can_exchange_checksum(64));
        assert_eq!(e.delivery_log.len(), 64);
        assert!(e.bus_utilization > 0.0, "guest traffic shows in utilization");
        assert!(e.quanta > 1, "the scheduler actually interleaved the nodes");
        assert!(e.to_string().contains("multi-ECU exchange"));
    }

    #[test]
    fn multi_ecu_schedule_is_deterministic() {
        // The same system under different quantum sizes and node
        // service orders must produce bit-identical per-node cycle
        // counts, checksums, delivery logs and wire utilization. Quanta
        // above the wire lookahead are clamped, so the oversized request
        // is safe too.
        let baseline = multi_ecu_exchange(24).expect("completes");
        for (quantum, rotate) in [
            (None, true),
            (Some(40), false),
            (Some(40), true),
            (Some(97), false),
            (Some(188), true),
            (Some(1_000_000), false),
        ] {
            let run = multi_ecu_exchange_with(
                24,
                SystemConfig { quantum, rotate_order: rotate, ..SystemConfig::default() },
            )
                .expect("completes");
            assert_eq!(run.checksum, baseline.checksum, "q={quantum:?} r={rotate}");
            assert_eq!(
                run.producer_cycles, baseline.producer_cycles,
                "q={quantum:?} r={rotate}"
            );
            assert_eq!(
                run.consumer_cycles, baseline.consumer_cycles,
                "q={quantum:?} r={rotate}"
            );
            assert_eq!(run.delivery_log, baseline.delivery_log, "q={quantum:?} r={rotate}");
            assert_eq!(run.frames_received, baseline.frames_received);
            assert_eq!(
                run.bus_utilization.to_bits(),
                baseline.bus_utilization.to_bits(),
                "q={quantum:?} r={rotate}"
            );
        }
    }

    #[test]
    fn watchdog_detects_a_stalled_producer() {
        let w = multi_ecu_watchdog(32, 10).expect("scenario completes");
        assert!(w.stall_detected);
        assert_eq!(w.frames_received, 10);
        assert_eq!(w.watchdog_bites, 1);
        assert_eq!(w.consumer_code, 0xDEAD_0000 | 10);
        assert!(w.to_string().contains("stall detected"));
    }

    #[test]
    fn watchdog_stays_quiet_when_the_producer_delivers() {
        let w = multi_ecu_watchdog(16, 16).expect("scenario completes");
        assert!(!w.stall_detected);
        assert_eq!(w.frames_received, 16);
        assert_eq!(w.watchdog_bites, 0);
        assert_eq!(w.consumer_code, guest_can_exchange_checksum(16));
    }

    #[test]
    fn harmonization_dominates() {
        let e = network_experiment(8, 4).expect("experiment runs");
        assert!(e.harmonized.placed > e.dedicated.placed);
        assert_eq!(e.harmonized.unplaced, 0);
        assert!(e.harmonized.bus_schedulable, "induced CAN traffic must stay schedulable");
        assert!(e.harmonized.peak_utilization <= 1.0 + 1e-9);
        let s = e.to_string();
        assert!(s.contains("virtual multi-core"));
    }
}
