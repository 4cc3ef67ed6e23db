//! Machine-level scenario tests: assembled programs exercising the
//! executor paths the experiments rely on less directly.

use alia_isa::{Assembler, IsaMode};
use alia_sim::{Machine, MemFault, StopReason, SRAM_BASE};

fn run(mode: IsaMode, src: &str) -> Machine {
    let out = Assembler::new(mode).assemble(src).expect("assembles");
    let mut m = match mode {
        IsaMode::T2 => Machine::m3_like(),
        _ => Machine::arm7_like(mode),
    };
    m.load_flash(0x100, &out.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    let r = m.run(1_000_000);
    assert_eq!(r.reason, StopReason::Bkpt(0), "program must halt at bkpt: {src}");
    m
}

#[test]
fn pre_and_post_indexed_addressing_a32() {
    let m = run(
        IsaMode::A32,
        "mov r0, #0x20000000
         add r0, r0, #0x100
         mov r1, #11
         str r1, [r0], #4      ; post: store at +0x100, r0 -> +0x104
         mov r1, #22
         str r1, [r0, #4]!     ; pre: store at +0x108, r0 -> +0x108
         ldr r2, [r0], #-8     ; post: load 22, r0 -> +0x100
         ldr r3, [r0]
         bkpt #0",
    );
    assert_eq!(m.read_sram_word(0x2000_0100), 11);
    assert_eq!(m.read_sram_word(0x2000_0108), 22);
    assert_eq!(m.cpu.regs[2], 22);
    assert_eq!(m.cpu.regs[3], 11);
    assert_eq!(m.cpu.regs[0], 0x2000_0100);
}

#[test]
fn ldm_stm_writeback_roundtrip() {
    for mode in [IsaMode::A32, IsaMode::T2] {
        let m = run(
            mode,
            "mov r0, #0x20000000
             mov r1, #1
             mov r2, #2
             mov r3, #3
             stm r0!, {r1, r2, r3}
             mov r4, #0x20000000
             ldm r4!, {r5, r6, r7}
             bkpt #0",
        );
        assert_eq!(m.cpu.regs[5], 1, "{mode}");
        assert_eq!(m.cpu.regs[6], 2);
        assert_eq!(m.cpu.regs[7], 3);
        assert_eq!(m.cpu.regs[0], 0x2000_000C);
        assert_eq!(m.cpu.regs[4], 0x2000_000C);
    }
}

#[test]
fn tbh_dispatch() {
    // tbh over a 3-entry table; select case 2.
    // Layout: mov@0x100, tbh@0x102 (table base = 0x106), table 8 bytes,
    // case0@0x10E, case1@0x112, case2@0x116 -> entries 4, 6, 8 halfwords.
    let m = run(
        IsaMode::T2,
        "mov r0, #2
         tbh [pc, r0]
         .word 0x00060004
         .word 0x00000008
         case0: mov r1, #10
         bkpt #0
         case1: mov r1, #20
         bkpt #0
         case2: mov r1, #30
         bkpt #0",
    );
    assert_eq!(m.cpu.regs[1], 30);
}

#[test]
fn it_block_with_memory_ops() {
    let m = run(
        IsaMode::T2,
        "mov r0, #0x20000000
         mov r1, #77
         cmp r1, #77
         itt eq
         str r1, [r0]
         add r1, r1, #1
         bkpt #0",
    );
    assert_eq!(m.read_sram_word(SRAM_BASE), 77);
    assert_eq!(m.cpu.regs[1], 78);
}

#[test]
fn it_block_skips_memory_ops_when_false() {
    let m = run(
        IsaMode::T2,
        "mov r0, #0x20000000
         mov r1, #77
         str r1, [r0]
         cmp r1, #99
         itt eq
         str r1, [r0, #4]
         add r1, r1, #1
         bkpt #0",
    );
    assert_eq!(m.read_sram_word(SRAM_BASE + 4), 0, "skipped store must not land");
    assert_eq!(m.cpu.regs[1], 77);
}

#[test]
fn mla_and_wide_multiply() {
    let m = run(
        IsaMode::T2,
        "mov r0, #7
         mov r1, #9
         mov r2, #100
         mla r3, r0, r1, r2
         bkpt #0",
    );
    assert_eq!(m.cpu.regs[3], 163);
}

#[test]
fn unified_bus_data_access_breaks_flash_stream() {
    // On the von-Neumann ARM7-class machine even an SRAM store forces the
    // next fetch to be non-sequential.
    let mut m = Machine::arm7_like(IsaMode::A32);
    let out = Assembler::new(IsaMode::A32)
        .assemble(
            "mov r0, #0x20000000
             mov r1, #1
             str r1, [r0]
             nop
             nop
             bkpt #0",
        )
        .unwrap();
    m.load_flash(0x100, &out.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m.run(10_000);
    // At least: initial fetch + post-store fetch are non-sequential.
    assert!(m.flash.stats().non_sequential >= 2);
}

#[test]
fn harvard_bus_keeps_stream_across_sram_access() {
    let mut m = Machine::m3_like();
    let out = Assembler::new(IsaMode::T2)
        .assemble(
            "mov r0, #0x20000000
             mov r1, #1
             str r1, [r0]
             nop
             nop
             bkpt #0",
        )
        .unwrap();
    m.load_flash(0x100, &out.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m.run(10_000);
    // Only the initial fetch is non-sequential on the Harvard machine.
    assert_eq!(m.flash.stats().non_sequential, 1);
}

#[test]
fn hardware_interrupt_preserves_all_caller_saved_state() {
    // The handler trashes r0-r3 and r12; after return, main's registers
    // and flags are intact.
    let mut m = Machine::m3_like();
    let main = Assembler::new(IsaMode::T2)
        .assemble(
            "mov r0, #1
             mov r1, #2
             mov r2, #3
             mov r3, #4
             mov r4, #0
             wait: add r4, r4, #1
             cmp r4, #200
             blt wait              ; IRQ lands somewhere in this loop
             ite eq                ; loop exits with r4 == 200: eq holds
             mov r5, #111
             mov r5, #222
             bkpt #0",
        )
        .unwrap();
    let handler = Assembler::new(IsaMode::T2)
        .assemble(
            "mvn r0, r0
             mvn r1, r1
             mvn r2, r2
             mvn r3, r3
             mvn r12, r12
             cmp r0, #0          ; trash flags too
             bx lr",
        )
        .unwrap();
    m.load_flash(0x200, &main.bytes);
    m.load_flash(0x400, &handler.bytes);
    m.load_flash(0, &0x400u32.to_le_bytes());
    m.set_pc(0x200);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m.schedule_irq(60, 0);
    let r = m.run(100_000);
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert_eq!(m.cpu.regs[0], 1);
    assert_eq!(m.cpu.regs[1], 2);
    assert_eq!(m.cpu.regs[2], 3);
    assert_eq!(m.cpu.regs[3], 4);
    assert_eq!(m.cpu.regs[5], 111, "flags restored from the stacked PSR");
    assert_eq!(m.irq.taken, 1, "interrupt must actually have run");
}

#[test]
fn t16_literal_pool_loads_execute() {
    let m = run(
        IsaMode::T16,
        "ldr r0, [pc, #0]
         bkpt #0
         .align 4
         .word 0x0BADF00D",
    );
    assert_eq!(m.cpu.regs[0], 0x0BAD_F00D);
}

#[test]
fn deep_call_chain_with_stack_frames() {
    // bl nesting with pushes: fib(6) iteratively via calls.
    let m = run(
        IsaMode::T2,
        "main:
            mov r0, #6
            bl fib
            bkpt #0
         fib:                  ; returns fib(r0), clobbers r1-r3
            push {r4, r5, lr}
            mov r4, #0
            mov r5, #1
            loop:
            cmp r0, #0
            beq done
            add r3, r4, r5
            mov r4, r5
            mov r5, r3
            sub r0, r0, #1
            b loop
            done:
            mov r0, r4
            pop {r4, r5, pc}",
    );
    assert_eq!(m.cpu.regs[0], 8); // fib(6)
}

#[test]
fn branch_to_exc_return_sw_without_frame_faults_instead_of_panicking() {
    // 0xFFFF_FFF1 is the software-scheme exception-return value, but
    // with no software frame stacked it is an ordinary branch target:
    // the run must end in a fetch fault, never a host panic.
    let cases = [
        ("m3_like, engine on", IsaMode::T2, "movw r0, #0xfff1\n movt r0, #0xffff\n bx r0", true),
        ("m3_like, engine off", IsaMode::T2, "movw r0, #0xfff1\n movt r0, #0xffff\n bx r0", false),
        ("arm7_like A32", IsaMode::A32, "mvn r0, #14\n bx r0", true),
    ];
    for (name, mode, src, engine) in cases {
        let out = Assembler::new(mode).assemble(src).expect("assembles");
        let mut m = match mode {
            IsaMode::T2 => Machine::m3_like(),
            _ => Machine::arm7_like(mode),
        };
        m.set_predecode_enabled(engine);
        m.load_flash(0x100, &out.bytes);
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        let r = m.run(1_000);
        assert_eq!(
            r.reason,
            StopReason::Fault(MemFault::Unmapped { addr: 0xFFFF_FFF0 }),
            "{name}"
        );
    }
}
