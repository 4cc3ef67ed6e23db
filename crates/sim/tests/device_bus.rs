//! Device-bus integration: guest programs driving the timer and CAN
//! controller purely through loads and stores, plus regression coverage
//! for the unified remap point (sub-word accesses to flash-patched and
//! bit-band addresses take the same path as word accesses).

use alia_isa::{Assembler, IsaMode};
use alia_sim::{
    CanConfig, CanController, DeviceSpec, Machine, MachineConfig, PatchKind, StopReason, System,
    SystemStop, Timer, TimerConfig, BITBAND_BASE, SRAM_BASE, TIMER_BASE,
};

fn machine_with_devices(devices: Vec<DeviceSpec>, src: &str) -> Machine {
    let mut config = MachineConfig::m3_like();
    config.devices = devices;
    let out = Assembler::new(config.mode).assemble(src).expect("program assembles");
    let mut m = Machine::new(config);
    m.load_flash(0x100, &out.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

/// A one-node system: a machine running `src` whose CAN controller
/// (`config`) sits alone on a wire with `cycles_per_bit`. Only the
/// system advances the wire, so a lone controller still needs one.
fn can_node(config: CanConfig, cycles_per_bit: u64, src: &str) -> System {
    let mut sys = System::new();
    let wire = sys.add_wire("can", cycles_per_bit);
    sys.add_node("ecu", machine_with_devices(vec![DeviceSpec::SharedCan(config, wire)], src));
    sys
}

/// Node 0's CAN controller.
fn can(sys: &System) -> &CanController {
    sys.node(0).machine().bus.device::<CanController>().expect("controller attached")
}

#[test]
fn guest_arms_timer_and_takes_its_irq() {
    // The guest programs COMPARE and CTRL with stores, then spins; the
    // compare match interrupts it and the handler stops the machine.
    let src = "movw r0, #0x1000
         movt r0, #0x4000
         movw r1, #500
         str r1, [r0, #4]
         mov r1, #1
         str r1, [r0, #0]
         spin: b spin";
    let handler = Assembler::new(IsaMode::T2).assemble("bkpt #5").unwrap();
    let mut m = machine_with_devices(
        vec![DeviceSpec::Timer(TimerConfig { base: TIMER_BASE, irq: 0, compare: 999 })],
        src,
    );
    m.load_flash(0x300, &handler.bytes);
    m.load_flash(0, &0x300u32.to_le_bytes());
    let r = m.run(100_000);
    assert_eq!(r.reason, StopReason::Bkpt(5));
    let timer = m.bus.device::<Timer>().expect("timer attached");
    assert_eq!(timer.fires(), 1, "one-shot compare match");
    // Latency accounting measured from the programmed compare match.
    let lat = m.latencies()[0];
    assert!(lat.pend_cycle >= 500, "asserted at the compare match, got {}", lat.pend_cycle);
    assert!(lat.entry_cycle >= lat.pend_cycle);
}

#[test]
fn guest_timer_count_register_reads_remaining_cycles() {
    // Arm a long one-shot, read COUNT a few instructions later: the
    // remaining-cycle value must have decreased but stay positive.
    let src = "movw r0, #0x1000
         movt r0, #0x4000
         movw r1, #10000
         str r1, [r0, #4]
         mov r1, #1
         str r1, [r0, #0]
         nop
         nop
         ldr r2, [r0, #8]
         bkpt #0";
    let mut m = machine_with_devices(
        vec![DeviceSpec::Timer(TimerConfig::default())],
        src,
    );
    let r = m.run(100_000);
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let remaining = m.cpu.regs[2];
    assert!(remaining > 0 && remaining < 10_000, "COUNT read {remaining}");
}

#[test]
fn guest_loopback_can_frame_round_trip() {
    // Stage a frame with stores, submit it, spin on RX_STATUS with
    // loads, then read the frame back — no host-side CAN calls at all.
    // Polling mode: the guest masks the RX interrupt (`cpsid`) instead
    // of installing a handler.
    let src = "cpsid
         movw r0, #0x2000
         movt r0, #0x4000
         movw r1, #0x234
         str r1, [r0, #0]
         mov r1, #8
         str r1, [r0, #4]
         movw r1, #0x5678
         movt r1, #0x1234
         str r1, [r0, #8]
         movw r1, #0xBBAA
         movt r1, #0xDDCC
         str r1, [r0, #12]
         str r1, [r0, #16]
         wait: ldr r2, [r0, #20]
         cmp r2, #0
         beq wait
         ldr r3, [r0, #24]
         ldr r4, [r0, #28]
         ldr r5, [r0, #32]
         ldr r6, [r0, #36]
         str r2, [r0, #40]
         ldr r7, [r0, #20]
         bkpt #0";
    let config = CanConfig { loopback: true, ..CanConfig::default() };
    let mut sys = can_node(config, 3, src);
    assert_eq!(sys.run(1_000_000).reason, SystemStop::AllHalted);
    assert_eq!(sys.node(0).halted(), Some(StopReason::Bkpt(0)));
    let m = sys.node(0).machine();
    assert_eq!(m.cpu.regs[3], 0x234, "RX_ID");
    assert_eq!(m.cpu.regs[4], 8, "RX_DLC");
    assert_eq!(m.cpu.regs[5], 0x1234_5678, "RX_DATA0");
    assert_eq!(m.cpu.regs[6], 0xDDCC_BBAA, "RX_DATA1");
    assert_eq!(m.cpu.regs[7], 0, "FIFO drained after RX_POP");
    assert_eq!((can(&sys).tx_count(), can(&sys).rx_count()), (1, 1));
}

#[test]
fn forks_of_a_one_node_loopback_system_share_no_wire() {
    // A loopback guest exchanges one frame, then waits for the host to
    // put a TX id in r5 and sends a frame with it. Forked in that wait,
    // two systems with different ids must each receive exactly their
    // own frame: `System::fork` deep-copies the wire and rebinds the
    // controller, so one fork's traffic never reaches the other.
    let src = "cpsid
         movw r0, #0x2000
         movt r0, #0x4000
         movw r1, #0x100
         str r1, [r0, #0]
         mov r1, #0
         str r1, [r0, #4]
         str r1, [r0, #16]
         warm: ldr r2, [r0, #20]
         cmp r2, #0
         beq warm
         str r2, [r0, #40]
         idle: cmp r5, #0
         beq idle
         str r5, [r0, #0]
         str r1, [r0, #16]
         wait: ldr r2, [r0, #20]
         cmp r2, #0
         beq wait
         ldr r3, [r0, #24]
         str r2, [r0, #40]
         ldr r7, [r0, #20]
         bkpt #0";
    let (id_a, id_b) = (0x123u32, 0x124u32);
    let bits = |id: u32| {
        alia_can::CanFrame::new(alia_can::CanId::Standard(id as u16), &[]).wire_bits()
    };
    assert_eq!(bits(id_a), bits(id_b), "equal frame lengths, so equal cycle counts");
    let config = CanConfig { loopback: true, ..CanConfig::default() };
    let mut sys = can_node(config, 3, src);
    assert_eq!(sys.run(5_000).reason, SystemStop::Horizon, "parked in the id wait, before TX_GO");
    assert_eq!(can(&sys).rx_count(), 1, "warm-up frame received");
    let mut a = sys.fork();
    let mut b = sys;
    a.node_mut(0).machine_mut().cpu.regs[5] = id_a;
    b.node_mut(0).machine_mut().cpu.regs[5] = id_b;
    for (fork, id) in [(&mut a, id_a), (&mut b, id_b)] {
        assert_eq!(fork.run(1_000_000).reason, SystemStop::AllHalted);
        assert_eq!(fork.node(0).halted(), Some(StopReason::Bkpt(0)));
        let m = fork.node(0).machine();
        assert_eq!(m.cpu.regs[3], id, "received a frame it never sent");
        assert_eq!(m.cpu.regs[7], 0, "nothing else in the FIFO");
        assert_eq!((can(fork).tx_count(), can(fork).rx_count()), (2, 2));
        let log = can(fork).wire().delivery_log();
        let ids: Vec<u32> = log.iter().map(|d| d.frame.id.raw()).collect();
        assert_eq!(ids, vec![0x100, id], "the wire carried only this fork's frames");
    }
    assert_eq!(a.node(0).cycles(), b.node(0).cycles());
}

#[test]
fn host_injected_remote_frame_interrupts_the_guest() {
    // The host enqueues a frame from a remote node before the run; the
    // guest sleeps in a spin loop until the RX IRQ fires.
    let handler = Assembler::new(IsaMode::T2)
        .assemble(
            "movw r0, #0x2000
             movt r0, #0x4000
             ldr r1, [r0, #24]
             bkpt #1",
        )
        .unwrap();
    let config = CanConfig { loopback: false, ..CanConfig::default() };
    let mut sys = can_node(config, 5, "spin: b spin");
    let m = sys.node_mut(0).machine_mut();
    m.load_flash(0x300, &handler.bytes);
    m.load_flash(4, &0x300u32.to_le_bytes()); // vector for irq 1
    can(&sys).host_enqueue(10, 3, alia_can::CanFrame::new(alia_can::CanId::Standard(0x77), &[1]));
    assert_eq!(sys.run(1_000_000).reason, SystemStop::AllHalted);
    assert_eq!(sys.node(0).halted(), Some(StopReason::Bkpt(1)));
    assert_eq!(sys.node(0).machine().cpu.regs[1], 0x77, "handler read the remote frame's id");
}

#[test]
fn subword_reads_of_patched_flash_remap_identically() {
    // A remapped flash word must serve patched bytes at every access
    // width, with and without a data cache in the path (the unified
    // remap point regression).
    for config in [MachineConfig::m3_like(), MachineConfig::high_end_like()] {
        let mut m = Machine::new(config);
        let addr = 0x840;
        m.load_flash(addr, &0x1111_1111u32.to_le_bytes());
        m.patch.set(0, addr, PatchKind::Remap(0xAABB_CCDD)).unwrap();
        assert_eq!(m.bus_read(addr, 4).unwrap().0, 0xAABB_CCDD, "word");
        assert_eq!(m.bus_read(addr, 2).unwrap().0, 0xCCDD, "low half");
        assert_eq!(m.bus_read(addr + 2, 2).unwrap().0, 0xAABB, "high half");
        assert_eq!(m.bus_read(addr, 1).unwrap().0, 0xDD, "byte 0");
        assert_eq!(m.bus_read(addr + 1, 1).unwrap().0, 0xCC, "byte 1");
        assert_eq!(m.bus_read(addr + 3, 1).unwrap().0, 0xAA, "byte 3");
        // Hits counted once per access, same as the word path.
        assert_eq!(m.patch.hits, 6);
    }
}

#[test]
fn subword_guest_loads_from_patched_flash_remap() {
    // Same regression through actual guest ldrb/ldrh instructions.
    let template = |addr: u32| {
        format!(
            "movw r0, #{}
             movt r0, #{}
             ldrb r2, [r0, #0]
             ldrh r3, [r0, #2]
             ldr r4, [r0, #0]
             bkpt #0",
            addr & 0xFFFF,
            addr >> 16
        )
    };
    let addr = 0x900u32;
    let mut m = Machine::new(MachineConfig::m3_like());
    let out = Assembler::new(IsaMode::T2).assemble(&template(addr)).unwrap();
    m.load_flash(0x100, &out.bytes);
    m.load_flash(addr, &0x2222_2222u32.to_le_bytes());
    m.patch.set(1, addr, PatchKind::Remap(0xCAFE_F00D)).unwrap();
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    let r = m.run(100_000);
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert_eq!(m.cpu.regs[2], 0x0D, "ldrb");
    assert_eq!(m.cpu.regs[3], 0xCAFE, "ldrh of the high half");
    assert_eq!(m.cpu.regs[4], 0xCAFE_F00D, "ldr");
}

#[test]
fn bitband_accesses_hit_the_same_bit_at_every_width() {
    // Every access width through the alias maps to the same single bit
    // (the shared bit-band resolution point).
    let mut m = Machine::new(MachineConfig::m3_like());
    let bit = 11u32; // bit 3 of SRAM byte 1
    let alias = BITBAND_BASE + bit;
    for len in [1u32, 2, 4] {
        m.bus_write(alias, len, 1).unwrap();
        assert_eq!(m.sram.read(1, 1), 1 << 3, "width {len} set");
        assert_eq!(m.bus_read(alias, len).unwrap().0, 1, "width {len} read");
        m.bus_write(alias, len, 0).unwrap();
        assert_eq!(m.sram.read(1, 1), 0, "width {len} clear");
        assert_eq!(m.bus_read(alias, len).unwrap().0, 0);
    }
}

#[test]
fn device_state_survives_machine_clone() {
    // Machine (and its boxed devices) stay cloneable; clones diverge
    // independently.
    let mut config = MachineConfig::m3_like();
    config.devices = vec![DeviceSpec::Timer(TimerConfig::default())];
    let mut a = Machine::new(config);
    a.bus_write(TIMER_BASE + 4, 4, 100).unwrap();
    a.bus_write(TIMER_BASE, 4, 1).unwrap();
    let mut b = a.clone();
    let ra = a.run(50);
    let rb = b.run(50);
    assert_eq!(ra, rb, "clones replay identically");
}
