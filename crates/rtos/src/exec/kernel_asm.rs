//! The guest kernel: generated T2 assembly for the tick handler, the
//! software scheduler handler, the task entry/exit wrappers and the
//! idle loop.
//!
//! Register conventions inside handlers (hardware stacking makes
//! `r0`-`r3`, `r12` and `lr` scratch): `r0` holds the kernel state
//! block pointer, `r1` the scan index / chosen task, `r12` the current
//! task, `r2`/`r3` scratch for memory and trace traffic. `r4`-`r11`
//! are only touched on an actual context switch (`stm`/`ldm` to the
//! TCB save area). Exception return reloads the `0xFFFF_FFF9` sentinel
//! into a scratch register and `bx`-es it, so `lr` is free inside
//! handlers.
//!
//! Absolute symbols (`task_entry`, `task_done`, `idle_entry` — needed
//! as exception-frame PC values and as the wrapper return address) are
//! loaded by five labelled `movw`/`movt` pairs that the source emits
//! with placeholder zeros. Both halves are fixed 4-byte T2 encodings
//! whatever their immediates, so the source is formatted and assembled
//! once, and each pair is then re-encoded in place with the symbol's
//! address from the symbol table.

use alia_isa::{encode, Assembled, Assembler, Cond, Instr, IsaMode, Reg};
use alia_sim::{EXC_RETURN_HW, MMIO_BASE, TIMER_BASE};

use super::KSTATE;

/// Combined `ldr`/`str` offsets from the `KSTATE + (i << 7)` pointer
/// the handlers carry: the per-task fields are the host-side [`tcb`]
/// offsets shifted by `TCB_OFF`, so host and guest agree by
/// construction.
mod off {
    use super::super::{tcb, TCB_OFF};

    pub const TICK_COUNT: u32 = 0;
    pub const CURRENT: u32 = 4;
    pub const TOTAL_TICKS: u32 = 8;
    pub const DONE: u32 = 12;
    pub const NTASKS: u32 = 16;
    pub const SAVED_SP: u32 = TCB_OFF + tcb::SAVED_SP;
    pub const STATE: u32 = TCB_OFF + tcb::STATE;
    pub const PERIOD: u32 = TCB_OFF + tcb::PERIOD;
    pub const COUNTDOWN: u32 = TCB_OFF + tcb::COUNTDOWN;
    pub const ENTRY: u32 = TCB_OFF + tcb::ENTRY;
    pub const ARG0: u32 = TCB_OFF + tcb::ARG0;
    pub const ARG1: u32 = TCB_OFF + tcb::ARG1;
    pub const ARG2: u32 = TCB_OFF + tcb::ARG2;
    pub const STACK_TOP: u32 = TCB_OFF + tcb::STACK_TOP;
    pub const ACC: u32 = TCB_OFF + tcb::ACC;
    pub const OVERRUNS: u32 = TCB_OFF + tcb::OVERRUNS;
    pub const ACTIVATIONS: u32 = TCB_OFF + tcb::ACTIVATIONS;
    pub const TX_ID: u32 = TCB_OFF + tcb::TX_ID;
    pub const TX_COUNT: u32 = TCB_OFF + tcb::TX_COUNT;
    pub const REGS: u32 = TCB_OFF + tcb::REGS;
}

const MMIO_TRACE_ADDR: u32 = MMIO_BASE + 8;
const MMIO_IRQ_SET_ADDR: u32 = MMIO_BASE + 12;
const MMIO_EXIT_ADDR: u32 = MMIO_BASE;
const CAN_BASE_ADDR: u32 = alia_sim::CAN_BASE;

/// Inputs to the kernel generator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelParams {
    /// Flash address the kernel is loaded at.
    pub base: u32,
    /// Tick period written to the timer COMPARE register.
    pub tick_cycles: u32,
    /// Initial SP for boot and for fabricated idle frames.
    pub idle_stack_top: u32,
}

/// The assembled kernel plus the addresses the builder needs.
#[derive(Debug, Clone)]
pub(crate) struct AssembledKernel {
    pub bytes: Vec<u8>,
    /// Boot entry (programs the timer, falls into the idle loop).
    pub main: u32,
    /// Tick handler address (vector word for [`super::TICK_IRQ`]).
    pub tick_handler: u32,
    /// Scheduler handler address (vector word for [`super::SCHED_IRQ`]).
    pub sched_handler: u32,
}

/// `movw`/`movt` pair materializing a 32-bit constant.
fn mov32(reg: &str, val: u32) -> String {
    format!("movw {reg}, #0x{:X}\n movt {reg}, #0x{:X}\n", val & 0xFFFF, val >> 16)
}

/// The register every absolute-symbol fix-up loads.
const FIXUP_REG: Reg = Reg::R12;

/// Each labelled `movw`/`movt` pair that loads an absolute kernel
/// symbol, with the symbol it loads.
const FIXUPS: [(&str, &str); 5] = [
    ("tk_fix_entry", "task_entry"),
    ("tk_fix_idle", "idle_entry"),
    ("sv_fix_entry", "task_entry"),
    ("sv_fix_idle", "idle_entry"),
    ("te_fix_done", "task_done"),
];

/// The fix-up pair labelled `label`: `movw`/`movt` of [`FIXUP_REG`]
/// with placeholder zeros, re-encoded by [`resolve_fixups`].
fn fixup(label: &str) -> String {
    format!("{label}:\n{}", mov32(&FIXUP_REG.to_string(), 0))
}

/// The encoded `movw`/`movt` pair loading `value` into [`FIXUP_REG`].
fn mov32_bytes(value: u32) -> Result<[u8; 8], String> {
    let mut out = [0u8; 8];
    let halves = [
        Instr::MovW { cond: Cond::Al, rd: FIXUP_REG, imm16: value as u16 },
        Instr::MovT { cond: Cond::Al, rd: FIXUP_REG, imm16: (value >> 16) as u16 },
    ];
    for (slot, instr) in out.chunks_exact_mut(4).zip(&halves) {
        slot.copy_from_slice(encode(instr, IsaMode::T2).map_err(|e| e.to_string())?.as_bytes());
    }
    Ok(out)
}

/// Emits a trace record `kind << 28 | task << 24 | payload` to
/// `MMIO_TRACE`; `task_reg` is OR-ed in shifted when given. Clobbers
/// `r2` and `r3`.
fn trace(kind: u32, task_reg: Option<&str>, payload: u32) -> String {
    assert!(payload < 1 << 16);
    let mut s = format!(
        "movw r3, #0x{:X}\n movt r3, #0x{:X}\n",
        payload,
        kind << 12
    );
    if let Some(t) = task_reg {
        s.push_str(&format!("orr r3, r3, {t}, lsl #24\n"));
    }
    s.push_str(&mov32("r2", MMIO_TRACE_ADDR));
    s.push_str("str r3, [r2, #0]\n");
    s
}

/// The scheduler: scan for the highest-priority runnable task, save the
/// outgoing context when it is genuinely running, dispatch fresh /
/// resume / idle. Emitted twice (tick + software handler) under
/// distinct label prefixes because SP may change mid-routine, ruling
/// out a `bl` helper. Expects `r0` = KSTATE; clobbers `r1`-`r3`, `r12`
/// and (on a switch) SP and `r4`-`r11`.
fn schedule(p: &str, idle_stack_top: u32) -> String {
    let mut s = String::new();
    // Scan: lowest index with state != 0 wins (index order = priority).
    s.push_str(&format!(
        "mov r1, #0
         ldr r12, [r0, #{ntasks}]
         {p}_scan:
         cmp r1, r12
         bge {p}_none
         add r2, r0, r1, lsl #7
         ldr r3, [r2, #{state}]
         cmp r3, #0
         bne {p}_found
         add r1, r1, #1
         b {p}_scan
         {p}_none:
         mov r1, #0xFF
         {p}_found:
         ldr r12, [r0, #{current}]
         cmp r1, r12
         bne {p}_switch
         cmp r1, #0xFF
         beq {p}_out
         add r2, r0, r12, lsl #7
         ldr r3, [r2, #{state}]
         cmp r3, #2
         beq {p}_out
",
        ntasks = off::NTASKS,
        state = off::STATE,
        current = off::CURRENT,
    ));
    // best == current but state == 1: the task completed and was
    // re-activated before its completion pend ran — fall through and
    // rebuild a fresh frame (skipping here would deadlock in the dead
    // spin context).
    s.push_str(&format!(
        "{p}_switch:
         cmp r12, #0xFF
         beq {p}_no_save
         add r2, r0, r12, lsl #7
         ldr r3, [r2, #{state}]
         cmp r3, #2
         bne {p}_no_save
         mov r3, sp
         str r3, [r2, #{saved_sp}]
",
        state = off::STATE,
        saved_sp = off::SAVED_SP,
    ));
    // Trace PREEMPT before clobbering r2 with the save-area pointer.
    s.push_str(&format!(
        "movw r3, #0
         movt r3, #0x3000
         orr r3, r3, r12, lsl #24
         add r2, r2, #{regs}
         stm r2, {{r4, r5, r6, r7, r8, r9, r10, r11}}
",
        regs = off::REGS,
    ));
    s.push_str(&mov32("r2", MMIO_TRACE_ADDR));
    s.push_str("str r3, [r2, #0]\n");
    s.push_str(&format!(
        "{p}_no_save:
         cmp r1, #0xFF
         beq {p}_idle
         add r2, r0, r1, lsl #7
         ldr r3, [r2, #{state}]
         cmp r3, #2
         beq {p}_resume
",
        state = off::STATE,
    ));
    // Fresh dispatch: fabricate an exception frame on the task stack —
    // [r0 r1 r2 r3 r12 lr pc psr] with the kernel args and task_entry.
    s.push_str(&format!(
        "ldr r3, [r2, #{stack_top}]
         sub r3, r3, #32
         ldr r12, [r2, #{arg0}]
         str r12, [r3, #0]
         ldr r12, [r2, #{arg1}]
         str r12, [r3, #4]
         ldr r12, [r2, #{arg2}]
         str r12, [r3, #8]
         mov r12, #0
         str r12, [r3, #12]
         str r12, [r3, #16]
         str r12, [r3, #20]
         str r12, [r3, #28]
",
        stack_top = off::STACK_TOP,
        arg0 = off::ARG0,
        arg1 = off::ARG1,
        arg2 = off::ARG2,
    ));
    s.push_str(&fixup(&format!("{p}_fix_entry")));
    s.push_str(&format!(
        "str r12, [r3, #24]
         mov r12, #2
         str r12, [r2, #{state}]
         mov sp, r3
",
        state = off::STATE,
    ));
    s.push_str(&trace(2, Some("r1"), 0));
    s.push_str(&format!("b {p}_store\n"));
    // Resume: reload r4-r11 and the saved frame pointer.
    s.push_str(&format!(
        "{p}_resume:
         add r3, r2, #{regs}
         ldm r3, {{r4, r5, r6, r7, r8, r9, r10, r11}}
         ldr r3, [r2, #{saved_sp}]
         mov sp, r3
",
        regs = off::REGS,
        saved_sp = off::SAVED_SP,
    ));
    s.push_str(&trace(2, Some("r1"), 1));
    s.push_str(&format!("b {p}_store\n"));
    // Nothing runnable: fabricate an idle frame (always rebuilt fresh —
    // idle context is never saved).
    s.push_str(&format!("{p}_idle:\n"));
    s.push_str(&mov32("r3", idle_stack_top - 32));
    s.push_str(
        "mov r12, #0
         str r12, [r3, #0]
         str r12, [r3, #4]
         str r12, [r3, #8]
         str r12, [r3, #12]
         str r12, [r3, #16]
         str r12, [r3, #20]
         str r12, [r3, #28]
",
    );
    s.push_str(&fixup(&format!("{p}_fix_idle")));
    s.push_str(
        "str r12, [r3, #24]
         mov sp, r3
",
    );
    s.push_str(&trace(9, None, 0));
    s.push_str(&format!(
        "{p}_store:
         str r1, [r0, #{current}]
         {p}_out:
",
        current = off::CURRENT,
    ));
    s
}

/// Builds the full kernel source, absolute-symbol loads as placeholder
/// fix-up pairs.
pub(crate) fn source(p: &KernelParams) -> String {
    let mut s = String::new();

    // --- boot ---
    s.push_str("main:\n");
    s.push_str(&mov32("r0", TIMER_BASE));
    s.push_str(&format!(
        "movw r1, #0x{:X}
         str r1, [r0, #4]
         mov r1, #3
         str r1, [r0, #0]
",
        p.tick_cycles
    ));

    // --- idle loop: poll `done`, then wait for every task to drain ---
    s.push_str("idle_entry:\n");
    s.push_str(&mov32("r0", KSTATE));
    s.push_str(&format!(
        "idle_loop:
         ldr r1, [r0, #{done}]
         cmp r1, #0
         beq idle_loop
         mov r1, #0
         ldr r12, [r0, #{ntasks}]
         idle_chk:
         cmp r1, r12
         bge idle_exit
         add r2, r0, r1, lsl #7
         ldr r3, [r2, #{state}]
         cmp r3, #0
         bne idle_loop
         add r1, r1, #1
         b idle_chk
         idle_exit:
         mov r1, #0
         mov r3, #0
         idle_sum:
         cmp r1, r12
         bge idle_out
         add r2, r0, r1, lsl #7
         ldr r2, [r2, #{acc}]
         add r3, r3, r2
         add r1, r1, #1
         b idle_sum
         idle_out:
",
        done = off::DONE,
        ntasks = off::NTASKS,
        state = off::STATE,
        acc = off::ACC,
    ));
    s.push_str(&mov32("r2", MMIO_EXIT_ADDR));
    s.push_str(
        "str r3, [r2, #0]
         idle_halt:
         b idle_halt
",
    );

    // --- task entry wrapper: frames dispatch here with the kernel args
    // in r0-r2; fetch the body address, point lr at task_done, jump ---
    s.push_str("task_entry:\n");
    s.push_str(&mov32("r3", KSTATE));
    s.push_str(&format!(
        "ldr r12, [r3, #{current}]
         add r3, r3, r12, lsl #7
         ldr r3, [r3, #{entry}]
",
        current = off::CURRENT,
        entry = off::ENTRY,
    ));
    s.push_str(&fixup("te_fix_done"));
    s.push_str(
        "mov lr, r12
         bx r3
",
    );

    // --- task completion: bank the checksum, optional CAN TX, then
    // retire (trace COMPLETE, state := 0, pend the scheduler) with
    // interrupts masked — a tick between COMPLETE and the state store
    // would otherwise save this dying context as a live preemption ---
    s.push_str("task_done:\n");
    s.push_str(&mov32("r1", KSTATE));
    s.push_str(&format!(
        "ldr r2, [r1, #{current}]
         add r1, r1, r2, lsl #7
         ldr r3, [r1, #{acc}]
         add r3, r3, r0
         str r3, [r1, #{acc}]
         ldr r3, [r1, #{tx_id}]
         cmp r3, #0
         beq td_no_tx
         ldr r0, [r1, #{tx_count}]
         add r0, r0, #1
         str r0, [r1, #{tx_count}]
",
        current = off::CURRENT,
        acc = off::ACC,
        tx_id = off::TX_ID,
        tx_count = off::TX_COUNT,
    ));
    s.push_str(&mov32("r12", CAN_BASE_ADDR));
    s.push_str(
        "str r3, [r12, #0]
         mov r3, #4
         str r3, [r12, #4]
         str r0, [r12, #8]
         mov r3, #0
         str r3, [r12, #12]
         str r3, [r12, #16]
         td_no_tx:
         cpsid
",
    );
    s.push_str(&trace(4, Some("r2"), 0));
    s.push_str(&format!(
        "mov r3, #0
         str r3, [r1, #{state}]
         str r3, [r1, #{saved_sp}]
",
        state = off::STATE,
        saved_sp = off::SAVED_SP,
    ));
    s.push_str(&mov32("r0", MMIO_IRQ_SET_ADDR));
    s.push_str(&format!(
        "mov r3, #{sched_irq}
         str r3, [r0, #0]
         cpsie
         td_spin:
         b td_spin
",
        sched_irq = super::SCHED_IRQ,
    ));

    // --- tick handler ---
    s.push_str("tick_handler:\n");
    s.push_str(&mov32("r0", KSTATE));
    s.push_str(&format!(
        "ldr r3, [r0, #{tick}]
         add r3, r3, #1
         str r3, [r0, #{tick}]
         movw r2, #0
         movt r2, #0x5000
         orr r3, r2, r3
",
        tick = off::TICK_COUNT,
    ));
    s.push_str(&mov32("r2", MMIO_TRACE_ADDR));
    s.push_str("str r3, [r2, #0]\n");
    s.push_str(&format!(
        "ldr r3, [r0, #{tick}]
         ldr r2, [r0, #{total}]
         cmp r3, r2
         blt tk_release
",
        tick = off::TICK_COUNT,
        total = off::TOTAL_TICKS,
    ));
    // Mission over: stop the timer, flag done, skip releases.
    s.push_str(&mov32("r2", TIMER_BASE));
    s.push_str(&format!(
        "mov r3, #0
         str r3, [r2, #0]
         mov r3, #1
         str r3, [r0, #{done}]
         b tk_sched
",
        done = off::DONE,
    ));
    // Release loop: countdown every task; zero means reload + activate
    // (or count an overrun when the previous job is still in flight).
    s.push_str(&format!(
        "tk_release:
         mov r1, #0
         ldr r12, [r0, #{ntasks}]
         tk_rel_loop:
         cmp r1, r12
         bge tk_sched
         add r2, r0, r1, lsl #7
         ldr r3, [r2, #{countdown}]
         sub r3, r3, #1
         str r3, [r2, #{countdown}]
         cmp r3, #0
         bne tk_rel_next
         ldr r3, [r2, #{period}]
         str r3, [r2, #{countdown}]
         ldr r3, [r2, #{state}]
         cmp r3, #0
         bne tk_overrun
         mov r3, #1
         str r3, [r2, #{state}]
         ldr r3, [r2, #{activations}]
         add r3, r3, #1
         str r3, [r2, #{activations}]
         movw r3, #0
         movt r3, #0x1000
         orr r3, r3, r1, lsl #24
",
        ntasks = off::NTASKS,
        countdown = off::COUNTDOWN,
        period = off::PERIOD,
        state = off::STATE,
        activations = off::ACTIVATIONS,
    ));
    s.push_str(&mov32("r2", MMIO_TRACE_ADDR));
    s.push_str(
        "str r3, [r2, #0]
         b tk_rel_next
",
    );
    s.push_str(&format!(
        "tk_overrun:
         ldr r3, [r2, #{overruns}]
         add r3, r3, #1
         str r3, [r2, #{overruns}]
         movw r3, #0
         movt r3, #0xA000
         orr r3, r3, r1, lsl #24
",
        overruns = off::OVERRUNS,
    ));
    s.push_str(&mov32("r2", MMIO_TRACE_ADDR));
    s.push_str(
        "str r3, [r2, #0]
         tk_rel_next:
         add r1, r1, #1
         b tk_rel_loop
         tk_sched:
",
    );
    s.push_str(&schedule("tk", p.idle_stack_top));
    s.push_str(&trace(6, None, 0));
    s.push_str(&mov32("r3", EXC_RETURN_HW));
    s.push_str("bx r3\n");

    // --- software scheduler handler (completion pend) ---
    s.push_str("sched_handler:\n");
    s.push_str(&mov32("r0", KSTATE));
    s.push_str(&trace(7, None, 0));
    s.push_str(&schedule("sv", p.idle_stack_top));
    s.push_str(&trace(8, None, 0));
    s.push_str(&mov32("r3", EXC_RETURN_HW));
    s.push_str("bx r3\n");

    s
}

/// Assembles the kernel at `p.base`: one assembly of the source, then
/// each absolute-symbol pair re-encoded in place.
pub(crate) fn assemble_kernel(p: &KernelParams) -> Result<AssembledKernel, String> {
    let mut out = Assembler::new(IsaMode::T2).assemble(&source(p)).map_err(|e| e.to_string())?;
    resolve_fixups(&mut out, p.base)?;
    let sym = |name: &str| p.base + out.symbols[name];
    Ok(AssembledKernel {
        main: sym("main"),
        tick_handler: sym("tick_handler"),
        sched_handler: sym("sched_handler"),
        bytes: out.bytes,
    })
}

/// Re-encodes every [`FIXUPS`] pair in `out`, the kernel assembled to
/// load at `base`, with its symbol's address.
///
/// # Errors
///
/// Fails when a label is missing or a site does not hold its
/// placeholder pair.
pub(crate) fn resolve_fixups(out: &mut Assembled, base: u32) -> Result<(), String> {
    let placeholder = mov32_bytes(0)?;
    for (site, target) in FIXUPS {
        let sym = |name: &str| {
            out.symbols.get(name).copied().ok_or_else(|| format!("kernel symbol `{name}` missing"))
        };
        let (at, value) = (sym(site)? as usize, base + sym(target)?);
        let slot = out
            .bytes
            .get_mut(at..at + placeholder.len())
            .filter(|slot| **slot == placeholder)
            .ok_or_else(|| {
                format!("fix-up `{site}` does not hold `movw`/`movt {FIXUP_REG}, #0`")
            })?;
        slot.copy_from_slice(&mov32_bytes(value)?);
    }
    Ok(())
}
