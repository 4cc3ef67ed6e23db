//! Fuzz smoke over the device windows: random host loads and stores, at
//! every access width and at random offsets (unaligned and just past a
//! window included), into every device window of every node of a
//! multi-wire system, interleaved with bounded [`System::run`] steps.
//!
//! Every seed must finish without a host panic: a bad access ends in a
//! [`alia_sim::MemFault`], a register write only changes guest-visible
//! state. Rerunning a seed must reproduce every node's clock and halt
//! reason after every step.

use alia_isa::{Assembler, IsaMode};
use alia_sim::{
    CanConfig, DeviceSpec, DmaConfig, Machine, MachineConfig, SharedCanBus, StopReason, System,
    TimerConfig, WatchdogConfig, CAN_BASE, DMA_BASE, MMIO_BASE, SRAM_BASE, TIMER_BASE,
    WATCHDOG_BASE,
};

/// Every device window `(base, size)`: the instrumentation MMIO block,
/// timer, CAN controller, watchdog and DMA engine.
const WINDOWS: [(u32, u32); 5] = [
    (MMIO_BASE, 0x1000),
    (TIMER_BASE, 0x100),
    (CAN_BASE, 0x100),
    (WATCHDOG_BASE, 0x100),
    (DMA_BASE, 0x200),
];

/// `splitmix64`, seeded per run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A register value: half the time small (enable bits, short
    /// periods, route slots), otherwise any word.
    fn value(&mut self) -> u32 {
        if self.next() & 1 == 0 {
            self.below(64) as u32
        } else {
            self.next() as u32
        }
    }
}

/// A node spinning in a counting loop, every interrupt vectored to an
/// empty handler.
fn node(devices: Vec<DeviceSpec>) -> Machine {
    let asm = |src: &str| Assembler::new(IsaMode::T2).assemble(src).expect("assembles").bytes;
    let mut config = MachineConfig::m3_like();
    config.devices = devices;
    let irq_lines = config.irq_lines as u32;
    let mut m = Machine::new(config);
    m.load_flash(0x400, &asm("spin: add r0, r0, #1\n b spin"));
    m.load_flash(0x500, &asm("add r1, r1, #1\n bx lr"));
    for irq in 0..irq_lines {
        m.load_flash(irq * 4, &0x500u32.to_le_bytes());
    }
    m.set_pc(0x400);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

/// Three nodes on two wires that together carry every device kind: a
/// timer, CAN controllers (one in loopback), watchdogs, a DMA gateway
/// bridging the wires, and each node's MMIO block.
fn system() -> System {
    let mut sys = System::new();
    let a = sys.add_wire("a", 4);
    let b = sys.add_wire("b", 2);
    let can = |node, loopback, wire: &SharedCanBus| {
        DeviceSpec::SharedCan(CanConfig { node, loopback, ..CanConfig::default() }, wire.clone())
    };
    sys.add_node(
        "ecu_a",
        node(vec![
            DeviceSpec::Timer(TimerConfig::default()),
            can(0, true, &a),
            DeviceSpec::Watchdog(WatchdogConfig::default()),
        ]),
    );
    let dma = DmaConfig { node_a: 1, node_b: 1, ..DmaConfig::default() };
    sys.add_node(
        "gateway",
        node(vec![DeviceSpec::Dma(dma, a, b.clone()), DeviceSpec::Timer(TimerConfig::default())]),
    );
    sys.add_node(
        "ecu_b",
        node(vec![can(0, false, &b), DeviceSpec::Watchdog(WatchdogConfig::default())]),
    );
    sys
}

/// One fuzz run: `steps` rounds of up to sixteen random host accesses
/// followed by a bounded run. Returns every node's `(cycles, halt)`
/// after every step.
fn fuzz(seed: u64, steps: usize) -> Vec<Vec<(u64, Option<StopReason>)>> {
    let mut rng = Rng(seed);
    let mut sys = system();
    let mut history = Vec::with_capacity(steps);
    for _ in 0..steps {
        for _ in 0..=rng.below(16) {
            let n = rng.below(sys.nodes().len() as u64) as usize;
            let (base, size) = WINDOWS[rng.below(WINDOWS.len() as u64) as usize];
            // Mostly the register file (the first 0x140 bytes: the DMA
            // route slots end there), at any byte of a register;
            // sometimes anywhere in the window or just past its end.
            let off = if rng.below(4) == 0 {
                rng.below(u64::from(size) + 8)
            } else {
                4 * rng.below(u64::from(size.min(0x140)) / 4) + rng.below(4)
            };
            let addr = base + off as u32;
            let len = [1, 2, 4][rng.below(3) as usize];
            let m = sys.node_mut(n).machine_mut();
            if rng.next() & 1 == 0 {
                let _ = m.bus_read(addr, len);
            } else {
                let value = rng.value();
                let _ = m.bus_write(addr, len, value);
            }
        }
        let horizon = sys.now() + 1 + rng.below(4_000);
        sys.run(horizon);
        history.push(sys.nodes().iter().map(|n| (n.cycles(), n.halted())).collect());
    }
    history
}

#[test]
fn random_device_accesses_never_panic_and_replay_exactly() {
    for seed in [1, 2, 3, 42, 7919] {
        let first = fuzz(seed, 150);
        assert_eq!(fuzz(seed, 150), first, "seed {seed} did not replay");
    }
}
