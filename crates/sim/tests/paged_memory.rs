//! The sparse page store behind flash, SRAM and TCM: 4 KiB pages
//! allocated on first write, absent pages reading as zero, forks copying
//! only the pages written. Covers accesses that straddle a page
//! boundary (host API and guest loads/stores), a memory smaller than
//! one page, and fork isolation in both directions, and pins the
//! resident footprint exactly.

use alia_isa::{Assembler, IsaMode};
use alia_sim::{Machine, MachineConfig, Sram, StopReason, System, Tcm, SRAM_BASE, TCM_BASE};

fn asm_machine(src: &str) -> Machine {
    let prog = Assembler::new(IsaMode::T2).assemble(src).expect("test program assembles");
    let mut m = Machine::m3_like();
    m.load_flash(0x100, &prog.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

#[test]
fn host_accesses_straddle_a_page_boundary() {
    let mut s = Sram::new(1 << 20);
    assert_eq!(s.resident_pages(), 0);
    s.write(0xFFE, 4, 0x1122_3344);
    assert_eq!(s.resident_pages(), 2, "a straddling word touches both pages");
    assert_eq!(s.read(0xFFE, 4), 0x1122_3344);
    assert_eq!(s.read(0xFFF, 2), 0x2233);
    assert_eq!(s.read(0x1000, 2), 0x1122);
    assert_eq!(s.read(0xFFC, 4), 0x3344_0000);
    s.write(0xFFF, 2, 0xBEEF);
    assert_eq!(s.read(0xFFE, 4), 0x11BE_EF44);
    assert_eq!(s.read(0xFFF, 4), 0x0011_BEEF);
    // The same through the machine's bus, which a guest access takes.
    let mut m = Machine::m3_like();
    m.bus_write(SRAM_BASE + 0xFFF, 4, 0xCAFE_F00D).expect("in range");
    assert_eq!(m.bus_read(SRAM_BASE + 0xFFF, 4).map(|(v, _)| v), Ok(0xCAFE_F00D));
    assert_eq!(m.bus_read(SRAM_BASE + 0xFFE, 2).map(|(v, _)| v), Ok(0x0D00));
    assert_eq!(m.bus_read(SRAM_BASE + 0x1000, 4).map(|(v, _)| v), Ok(0x00CA_FEF0));
    assert_eq!(m.resident_pages(), 2);
}

#[test]
fn guest_loads_and_stores_straddle_a_page_boundary() {
    let mut m = asm_machine(
        "movw r0, #0x0FFE
         movt r0, #0x2000
         movw r1, #0x3344
         movt r1, #0x1122
         str r1, [r0]
         ldr r2, [r0]
         add r3, r0, #1
         ldrh r4, [r3]
         movw r5, #0xBEEF
         strh r5, [r3]
         ldr r6, [r0]
         ldr r7, [r3]
         bkpt #0",
    );
    assert_eq!(m.run(10_000).reason, StopReason::Bkpt(0));
    assert_eq!(m.cpu.regs[2], 0x1122_3344, "word across 0xFFE..0x1002");
    assert_eq!(m.cpu.regs[4], 0x2233, "halfword across 0xFFF..0x1001");
    assert_eq!(m.cpu.regs[6], 0x11BE_EF44, "halfword store across the boundary");
    assert_eq!(m.cpu.regs[7], 0x0011_BEEF, "word at 0xFFF reads zeroes past the store");
    assert_eq!(m.read_sram_word(SRAM_BASE + 0x1000), 0x0000_11BE);
    // Flash page 0 (the program) and SRAM pages 0 and 1.
    assert_eq!(m.resident_pages(), 3);
}

#[test]
fn a_memory_smaller_than_a_page_has_one_partial_page() {
    let mut s = Sram::new(64);
    assert_eq!((s.len(), s.resident_pages()), (64, 0));
    assert_eq!(s.read(60, 4), 0, "absent page reads as zero");
    s.write(60, 4, 0x0102_0304);
    assert_eq!(s.read(60, 4), 0x0102_0304);
    assert_eq!(s.read(62, 2), 0x0102);
    assert_eq!(s.read(0, 4), 0);
    assert_eq!(s.resident_pages(), 1);
    let mut t = Tcm::new(64);
    t.write(60, 4, 0xCAFE_F00D);
    t.inject_bit_flip(60, 3);
    assert_eq!(t.read(60, 4).0, 0xCAFE_F00D, "repaired from the shadow page");
    assert_eq!(t.resident_pages(), 2, "one RAM page and one shadow page");
}

#[test]
#[should_panic(expected = "runs past the end")]
fn a_host_access_past_the_end_of_a_partial_page_panics() {
    let s = Sram::new(64);
    let _ = s.read(62, 4);
}

#[test]
fn a_fresh_machine_holds_no_guest_memory() {
    for config in [
        MachineConfig::arm7_like(IsaMode::A32),
        MachineConfig::m3_like(),
        MachineConfig::high_end_like(),
    ] {
        let m = Machine::new(config);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.clone().resident_pages(), 0);
    }
    // A TCM load fills the RAM page and its ECC shadow page.
    let mut m = Machine::high_end_like();
    m.tcm.as_mut().expect("tcm fitted").load(0x2000, &[1, 2, 3, 4]);
    assert_eq!(m.resident_pages(), 2);
    assert_eq!(m.bus_read(TCM_BASE + 0x2000, 4).map(|(v, _)| v), Ok(0x0403_0201));
}

/// Reads flash word 0x800 and stores it to SRAM at 0x2000_1000.
const COPY_FLASH_TO_SRAM: &str = "movw r0, #0x0800
     ldr r2, [r0]
     movw r3, #0x1000
     movt r3, #0x2000
     str r2, [r3]
     bkpt #0";

#[test]
fn untouched_pages_read_as_zero_after_a_fork() {
    let mut m = asm_machine(COPY_FLASH_TO_SRAM);
    m.load_flash(0x800, &0x1111_1111u32.to_le_bytes());
    assert_eq!(m.run(10_000).reason, StopReason::Bkpt(0));
    let fork = m.clone();
    assert_eq!(fork.resident_pages(), m.resident_pages());
    assert_eq!(fork.resident_pages(), 2, "flash page 0 and SRAM page 1");
    assert_eq!(fork.flash.peek(0x800, 4), 0x1111_1111);
    assert_eq!(fork.read_sram_word(SRAM_BASE + 0x1000), 0x1111_1111);
    for off in [0x1000, 0x8_0000, 0xF_FFFC] {
        assert_eq!(fork.flash.peek(off, 4), 0, "flash {off:#x}");
    }
    for off in [0, 0xFFC, 0x2000, 0xF_FFFC] {
        assert_eq!(fork.read_sram_word(SRAM_BASE + off), 0, "sram {off:#x}");
    }
}

#[test]
fn forks_are_isolated_in_both_directions() {
    // The E12 flip pattern: fork an unrun system, rewrite a flash word
    // in the fork, then run both sides; each guest copies the flash
    // word it sees into SRAM.
    let mut m = asm_machine(COPY_FLASH_TO_SRAM);
    m.load_flash(0x800, &0x1111_1111u32.to_le_bytes());
    let mut parent = System::new();
    parent.add_node("n", m);
    let pages = parent.node(0).machine().resident_pages();
    let mut fork = parent.fork();
    fork.node_mut(0).machine_mut().load_flash(0x800, &0x2222_2222u32.to_le_bytes());
    let flash = |s: &System| s.node(0).machine().flash.peek(0x800, 4);
    let sram = |s: &System| s.node(0).machine().read_sram_word(SRAM_BASE + 0x1000);
    assert_eq!(flash(&parent), 0x1111_1111, "a flash load in the fork stays in the fork");

    fork.run(100_000);
    assert_eq!(sram(&fork), 0x2222_2222, "the fork's guest read its own flash");
    assert_eq!(sram(&parent), 0, "the fork's guest store stays in the fork");
    assert_eq!(parent.node(0).machine().resident_pages(), pages);

    parent.run(100_000);
    assert_eq!(sram(&parent), 0x1111_1111, "the parent's guest read its own flash");
    assert_eq!(sram(&fork), 0x2222_2222, "the parent's guest store stays in the parent");
    assert_eq!(flash(&fork), 0x2222_2222);
}
