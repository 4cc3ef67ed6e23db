//! Region-boundary differential suite: the bus region-table classifier
//! must reproduce the seed's chain-of-range-compares classifier
//! byte-for-byte — every region edge swept ±4 bytes, all access widths,
//! fault behaviour included.
//!
//! The reference classifier below is a verbatim transcription of the
//! pre-bus `Machine::classify` if-chain (plus the fixed fault rules of
//! the old `data_read`/`data_write` match arms); the test drives the
//! real machine through its public classifier and host-driven bus
//! accessors and compares.

use alia_isa::{Assembler, IsaMode};
use alia_sim::{
    CanConfig, DeviceSpec, Machine, MachineConfig, MemFault, Region, SharedCanBus, StopReason,
    TimerConfig, BITBAND_BASE, CAN_BASE, FLASH_BASE, MMIO_BASE, SRAM_BASE, TCM_BASE, TIMER_BASE,
};

/// The seed's region classes (the instrumentation block was a dedicated
/// `Mmio` variant rather than a numbered device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefRegion {
    Flash,
    Tcm,
    Sram,
    BitBand,
    Mmio,
    Unmapped,
}

/// Verbatim transcription of the pre-bus `Machine::classify`.
fn reference_classify(config: &MachineConfig, addr: u32) -> RefRegion {
    if (FLASH_BASE..FLASH_BASE + config.flash.size).contains(&addr) {
        return RefRegion::Flash;
    }
    if (SRAM_BASE..SRAM_BASE + config.sram_size).contains(&addr) {
        return RefRegion::Sram;
    }
    if let Some(sz) = config.tcm_size {
        if (TCM_BASE..TCM_BASE + sz).contains(&addr) {
            return RefRegion::Tcm;
        }
    }
    if config.bitband
        && (BITBAND_BASE..BITBAND_BASE + config.sram_size.saturating_mul(8)).contains(&addr)
    {
        return RefRegion::BitBand;
    }
    if (MMIO_BASE..MMIO_BASE + 0x1000).contains(&addr) {
        return RefRegion::Mmio;
    }
    RefRegion::Unmapped
}

/// Maps the new classifier's answer onto the seed's classes. Device
/// index 0 is the instrumentation block (the seed's `Mmio` region);
/// higher indices did not exist in the seed and are handled separately.
fn as_ref_region(region: Region) -> RefRegion {
    match region {
        Region::Flash => RefRegion::Flash,
        Region::Tcm => RefRegion::Tcm,
        Region::Sram => RefRegion::Sram,
        Region::BitBand => RefRegion::BitBand,
        Region::Device(0) => RefRegion::Mmio,
        Region::Device(_) => panic!("seed-layout machine has exactly one device"),
        Region::Unmapped => RefRegion::Unmapped,
    }
}

fn presets() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("arm7_a32", MachineConfig::arm7_like(IsaMode::A32)),
        ("arm7_t16", MachineConfig::arm7_like(IsaMode::T16)),
        ("m3_t2", MachineConfig::m3_like()),
        ("high_end_t2", MachineConfig::high_end_like()),
    ]
}

/// Every region edge of a configuration: each `(label, boundary)` pair
/// is a first-byte-outside address; the sweep covers ±4 around it.
fn edges(config: &MachineConfig) -> Vec<(&'static str, u32)> {
    let mut e = vec![
        ("flash_start", FLASH_BASE),
        ("flash_end", FLASH_BASE + config.flash.size),
        ("sram_start", SRAM_BASE),
        ("sram_end", SRAM_BASE + config.sram_size),
        ("mmio_start", MMIO_BASE),
        ("mmio_end", MMIO_BASE + 0x1000),
    ];
    if let Some(sz) = config.tcm_size {
        e.push(("tcm_start", TCM_BASE));
        e.push(("tcm_end", TCM_BASE + sz));
    }
    if config.bitband {
        e.push(("bitband_start", BITBAND_BASE));
        e.push(("bitband_end", BITBAND_BASE + config.sram_size.saturating_mul(8)));
    }
    e
}

#[test]
fn classifier_matches_seed_chain_at_every_edge() {
    for (name, config) in presets() {
        let m = Machine::new(config.clone());
        for (label, boundary) in edges(&config) {
            for delta in -4i64..=4 {
                let addr = (i64::from(boundary) + delta) as u32;
                assert_eq!(
                    as_ref_region(m.classify(addr)),
                    reference_classify(&config, addr),
                    "{name}/{label}: classify({addr:#010x}) diverged from the seed chain"
                );
            }
        }
    }
}

#[test]
fn classifier_matches_seed_chain_across_the_map() {
    // Coarse full-map sweep: one probe per 64 KiB across the whole
    // 4 GiB space catches any mis-built table entry far from an edge.
    for (name, config) in presets() {
        let m = Machine::new(config.clone());
        let mut addr = 0u32;
        loop {
            assert_eq!(
                as_ref_region(m.classify(addr)),
                reference_classify(&config, addr),
                "{name}: classify({addr:#010x}) diverged"
            );
            let (next, overflow) = addr.overflowing_add(1 << 16);
            if overflow {
                break;
            }
            addr = next;
        }
    }
}

/// The seed's fault rules: which accesses succeed per region.
fn read_ok(region: RefRegion) -> bool {
    region != RefRegion::Unmapped
}

fn write_ok(region: RefRegion) -> bool {
    !matches!(region, RefRegion::Unmapped | RefRegion::Flash)
}

#[test]
fn fault_behaviour_matches_seed_rules_at_every_edge() {
    for (name, config) in presets() {
        for (label, boundary) in edges(&config) {
            for delta in -4i64..=4 {
                let addr = (i64::from(boundary) + delta) as u32;
                for len in [1u32, 2, 4] {
                    // Accesses straddling a region end indexed out of
                    // bounds in the seed (a host panic, not a fault);
                    // the contract is only defined within one region.
                    let last = match addr.checked_add(len - 1) {
                        Some(l) => l,
                        None => continue,
                    };
                    let region = reference_classify(&config, addr);
                    if reference_classify(&config, last) != region {
                        continue;
                    }
                    let mut m = Machine::new(config.clone());
                    let what = format!("{name}/{label}: {addr:#010x} len {len}");
                    assert_eq!(
                        m.bus_read(addr, len).is_ok(),
                        read_ok(region),
                        "{what}: read fault behaviour diverged"
                    );
                    let mut m = Machine::new(config.clone());
                    assert_eq!(
                        m.bus_write(addr, len, 0xA5).is_ok(),
                        write_ok(region),
                        "{what}: write fault behaviour diverged"
                    );
                }
            }
        }
    }
}

/// Runs `insn` as a guest with `r0 = addr` and `r1 = 0xA5A5_5A5A`,
/// after `setup` prepared the machine; returns the stopped machine.
fn run_access(
    config: &MachineConfig,
    insn: &str,
    addr: u32,
    setup: impl FnOnce(&mut Machine),
) -> (StopReason, Machine) {
    let src = format!(
        "movw r0, #{lo}
         movt r0, #{hi}
         movw r1, #0x5A5A
         movt r1, #0xA5A5
         {insn}
         bkpt #0",
        lo = addr & 0xFFFF,
        hi = addr >> 16
    );
    let prog = Assembler::new(config.mode).assemble(&src).expect("test program assembles");
    let mut m = Machine::new(config.clone());
    m.load_flash(0x100, &prog.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    setup(&mut m);
    let reason = m.run(10_000).reason;
    (reason, m)
}

/// Host-side image load into whichever memory holds `addr`.
fn load_at(m: &mut Machine, addr: u32, image: &[u8]) {
    match m.classify(addr) {
        Region::Flash => m.load_flash(addr, image),
        Region::Sram => m.load_sram(addr, image),
        Region::Tcm => m.tcm.as_mut().expect("tcm fitted").load(addr - TCM_BASE, image),
        other => panic!("{addr:#010x} is not memory: {other:?}"),
    }
}

#[test]
fn accesses_running_past_a_region_end_fault_instead_of_panicking() {
    // The bus used to check only an access's first byte, so a load or
    // store whose bytes ran past the end of flash, TCM or SRAM indexed
    // the memory array out of range and panicked the host. Each must
    // end in an unmapped fault at the access address.
    let m3 = MachineConfig::m3_like();
    let high_end = MachineConfig::high_end_like();
    let regions = [
        ("flash", &m3, FLASH_BASE + m3.flash.size),
        ("sram", &m3, SRAM_BASE + m3.sram_size),
        ("tcm", &high_end, TCM_BASE + high_end.tcm_size.expect("tcm fitted")),
    ];
    for (name, config, end) in regions {
        for (insn, len) in [("ldr r1, [r0]", 4), ("str r1, [r0]", 4), ("ldrh r1, [r0]", 2)] {
            for addr in end - len + 1..end {
                let (reason, mut m) = run_access(config, insn, addr, |_| {});
                let fault = StopReason::Fault(MemFault::Unmapped { addr });
                assert_eq!(reason, fault, "{name}: `{insn}` at {addr:#010x}");
                assert_eq!(m.bus_read(addr, len), Err(MemFault::Unmapped { addr }));
                assert_eq!(m.bus_write(addr, len, 0), Err(MemFault::Unmapped { addr }));
            }
        }
        // The last whole in-range word and halfword still load...
        let word = 0xDEAD_BEEFu32.to_le_bytes();
        let preload = |m: &mut Machine| load_at(m, end - 4, &word);
        let (reason, m) = run_access(config, "ldr r1, [r0]", end - 4, preload);
        assert_eq!((reason, m.cpu.regs[1]), (StopReason::Bkpt(0), 0xDEAD_BEEF), "{name}: word");
        let (reason, m) = run_access(config, "ldrh r1, [r0]", end - 2, preload);
        assert_eq!((reason, m.cpu.regs[1]), (StopReason::Bkpt(0), 0xDEAD), "{name}: halfword");
        // ...and, outside read-only flash, the last word still stores.
        let (reason, mut m) = run_access(config, "str r1, [r0]", end - 4, |_| {});
        if name == "flash" {
            assert_eq!(reason, StopReason::Fault(MemFault::Unmapped { addr: end - 4 }));
        } else {
            assert_eq!(reason, StopReason::Bkpt(0), "{name}: last word store");
            assert_eq!(m.bus_read(end - 4, 4), Ok((0xA5A5_5A5A, 1)), "{name}: stored word");
        }
    }
    // A 4-byte A32 fetch straddling the end of flash faults the same way.
    let mut m = Machine::arm7_like(IsaMode::A32);
    let end = FLASH_BASE + m.config.flash.size;
    m.set_pc(end - 2);
    assert_eq!(m.run(100).reason, StopReason::Fault(MemFault::Unmapped { addr: end - 2 }));
}

#[test]
fn attached_device_windows_classify_as_devices() {
    // New devices occupy addresses the seed left unmapped; everything
    // outside their windows must stay exactly as the seed had it.
    let mut config = MachineConfig::m3_like();
    config.devices = vec![
        DeviceSpec::Timer(TimerConfig::default()),
        DeviceSpec::SharedCan(
            CanConfig { irq: 1, loopback: true, ..CanConfig::default() },
            SharedCanBus::named("can", 4),
        ),
    ];
    let m = Machine::new(config.clone());
    assert_eq!(m.classify(TIMER_BASE), Region::Device(1));
    assert_eq!(m.classify(TIMER_BASE + 0xFF), Region::Device(1));
    assert_eq!(m.classify(CAN_BASE), Region::Device(2));
    for (label, boundary) in [
        ("timer_start", TIMER_BASE),
        ("timer_end", TIMER_BASE + 0x100),
        ("can_start", CAN_BASE),
        ("can_end", CAN_BASE + 0x100),
    ] {
        for delta in -4i64..=4 {
            let addr = (i64::from(boundary) + delta) as u32;
            match m.classify(addr) {
                Region::Device(i @ 1..) => assert!(
                    (1..=2).contains(&i)
                        && (TIMER_BASE..TIMER_BASE + 0x100).contains(&addr) == (i == 1)
                        && (CAN_BASE..CAN_BASE + 0x100).contains(&addr) == (i == 2),
                    "{label}: {addr:#010x} resolved to wrong device {i}"
                ),
                other => assert_eq!(
                    as_ref_region(other),
                    reference_classify(&config, addr),
                    "{label}: {addr:#010x} diverged outside device windows"
                ),
            }
        }
    }
}
