//! Differential tests: the threaded-code block engine must be
//! invisible.
//!
//! Every scenario runs with the execution engine on (the presets'
//! default) and off (`predecode` disabled: the uncached per-step
//! interpreter) and asserts bit-identical architectural outcomes:
//! `StopReason`, cycles, instruction counts, registers, flags, flash
//! streaming statistics, flash-patch accounting and the exact
//! per-interrupt pend/entry cycle stamps. Scenarios target the engine's
//! sharp edges specifically: superinstruction fusion patterns, IRQ
//! storms landing *between* the two halves of fused pairs, IT blocks
//! carried through the lowering (covered entries, splits and interrupts
//! landing mid-IT), self-modifying code rewriting the inside of a fused
//! pair of an installed block, `run_until` bounds splitting blocks
//! mid-flight, flash-patch toggles dropping installed blocks, and
//! device-revision stamps moving between a block's recording and its
//! chained successor dispatch.

use std::any::Any;

use alia_isa::{Assembler, IsaMode};
use alia_sim::{
    Device, DeviceCtx, Machine, MachineConfig, PatchKind, RunResult, StopReason, MMIO_BASE,
    SRAM_BASE,
};

/// Asserts both machines are architecturally identical right now,
/// including exact IRQ pend/entry stamps.
fn assert_state_eq(on: &Machine, off: &Machine, what: &str) {
    assert_eq!(on.cycles(), off.cycles(), "{what}: cycles diverged");
    assert_eq!(on.instructions(), off.instructions(), "{what}: instret diverged");
    assert_eq!(on.cpu.pc, off.cpu.pc, "{what}: pc diverged");
    assert_eq!(on.cpu.regs, off.cpu.regs, "{what}: registers diverged");
    assert_eq!(on.cpu.flags, off.cpu.flags, "{what}: flags diverged");
    assert_eq!(on.patch.hits, off.patch.hits, "{what}: patch hits diverged");
    assert_eq!(on.flash.stats(), off.flash.stats(), "{what}: flash stats diverged");
    assert_eq!(on.svc_count(), off.svc_count(), "{what}: svc count diverged");
    assert_eq!(on.latencies(), off.latencies(), "{what}: IRQ stamps diverged");
}

/// The per-step reference: `build()` with the execution engine off.
fn reference(build: &dyn Fn() -> Machine) -> Machine {
    let mut m = build();
    m.set_predecode_enabled(false);
    m
}

/// Runs the engine-on machine and the per-step reference to completion,
/// asserting bit-identity. Returns the reference result and the
/// engine-on machine (for stats assertions).
fn run_both(build: &dyn Fn() -> Machine, limit: u64, what: &str) -> (RunResult, Machine) {
    let mut base = reference(build);
    let r0 = base.run(limit);
    let mut on = build();
    assert!(on.predecode_enabled(), "{what}: presets enable the engine by default");
    let r = on.run(limit);
    assert_eq!(r, r0, "{what}: RunResult diverged");
    assert_state_eq(&on, &base, what);
    assert_eq!(base.predecode_stats().block_hits, 0, "{what}: reference dispatched blocks");
    (r0, on)
}

fn presets() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("arm7_a32", MachineConfig::arm7_like(IsaMode::A32)),
        ("arm7_t16", MachineConfig::arm7_like(IsaMode::T16)),
        ("m3_t2", MachineConfig::m3_like()),
        ("high_end_t2", MachineConfig::high_end_like()),
    ]
}

fn machine_with(config: &MachineConfig, src: &str) -> Machine {
    let out = Assembler::new(config.mode).assemble(src).expect("program assembles");
    let mut m = Machine::new(config.clone());
    m.load_flash(0x100, &out.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

// ---------------------------------------------------------------------
// Fusion-pattern programs
// ---------------------------------------------------------------------

/// `add`+`cmp` fusion (the loop-counter idiom) with a terminal `bne`.
const ALU_CMP_SRC: &str = "mov r0, #0
     mov r2, #200
     loop: add r0, r0, #1
     cmp r0, r2
     bne loop
     bkpt #0";

/// `cmp`+branch fusion: a `mov` spacer keeps the compare off the even
/// pair boundary the greedy fuser would otherwise give to `add`+`cmp`.
const CMP_B_SRC: &str = "mov r0, #0
     mov r2, #200
     loop: add r0, r0, #1
     mov r7, r7
     cmp r0, r2
     bne loop
     bkpt #0";

/// ALU+branch fusion: the loop body ends `add` + unconditional `b`
/// backedge, with the exit test fused `cmp`+`beq` at the head.
const ALU_B_SRC: &str = "mov r0, #0
     mov r2, #200
     head: cmp r0, r2
     beq done
     add r0, r0, #1
     b head
     done: bkpt #0";

/// `ldr`+ALU fusion (load-accumulate). Needs `movw`/`movt`, so it only
/// runs on the T2 presets.
fn ldr_alu_src() -> String {
    let template = |addr: u32| {
        format!(
            "movw r1, #{}
             movt r1, #{}
             mov r0, #0
             mov r6, #0
             loop: ldr r3, [r1, #0]
             add r6, r6, r3
             add r0, r0, #1
             cmp r0, #150
             bne loop
             bkpt #0
             .align 4
             lit: .word 7",
            addr & 0xFFFF,
            addr >> 16
        )
    };
    let probe = Assembler::new(IsaMode::T2).assemble(&template(0)).unwrap();
    let lit = 0x100 + probe.symbols["lit"];
    let out = template(lit);
    let check = Assembler::new(IsaMode::T2).assemble(&out).unwrap();
    assert_eq!(check.symbols, probe.symbols, "layout must be immediate-independent");
    out
}

#[test]
fn matrix_fusion_loops_identical_across_presets() {
    for (name, config) in presets() {
        for (pat, src) in
            [("alu_cmp", ALU_CMP_SRC), ("cmp_b", CMP_B_SRC), ("alu_b", ALU_B_SRC)]
        {
            let what = format!("{pat} on {name}");
            let (r, on) = run_both(&|| machine_with(&config, src), 1_000_000, &what);
            assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
            let stats = on.predecode_stats();
            assert!(stats.block_hits > 0, "{what}: block engine never ran");
            assert!(stats.fused_pairs > 0, "{what}: no pair fused");
        }
    }
}

#[test]
fn matrix_ldr_alu_fusion_identical() {
    let src = ldr_alu_src();
    for (name, config) in presets() {
        if config.mode != IsaMode::T2 {
            continue; // movw/movt address materialization is T2-only
        }
        let what = format!("ldr_alu on {name}");
        let (r, on) = run_both(&|| machine_with(&config, &src), 1_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        let stats = on.predecode_stats();
        assert!(stats.block_hits > 0, "{what}: block engine never ran");
        assert!(stats.fused_pairs > 0, "{what}: no pair fused");
        assert_eq!(on.cpu.regs[6], 150 * 7, "{what}: load-accumulate checksum");
    }
}

#[test]
fn matrix_generic_fallback_instructions_identical() {
    // Instructions the specializer leaves on the generic handler —
    // multiplies, bitfields, shifts, IT blocks — mixed into a hot loop:
    // the threaded block carries them via `h_generic` and must stay
    // bit-identical.
    let src = "mov r0, #0
         mov r2, #120
         mov r4, #3
         loop: add r0, r0, #1
         mul r5, r0, r4
         ubfx r6, r5, #1, #7
         lsl r7, r6, #2
         it eq
         add r8, r8, #1
         cmp r0, r2
         bne loop
         bkpt #0";
    let config = MachineConfig::m3_like();
    let (r, on) = run_both(&|| machine_with(&config, src), 1_000_000, "generic mix");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert!(on.predecode_stats().block_hits > 0);
}

// ---------------------------------------------------------------------
// IRQ storms landing between fused-pair halves
// ---------------------------------------------------------------------

/// Schedules a dense sweep of precise-cycle interrupts across a
/// fusion-pattern loop and asserts the pend/entry stamps are identical
/// with the engine on and off. The prime strides walk the pend
/// cycle through every phase of the loop period, so interrupts land
/// between the two halves of every fused pair.
fn irq_sweep(src: &str, what: &str) {
    for stride in [7u64, 11, 37] {
        let build = || {
            let main = Assembler::new(IsaMode::T2).assemble(src).unwrap();
            let handler =
                Assembler::new(IsaMode::T2).assemble("add r5, r5, #1\n bx lr").unwrap();
            let mut m = Machine::new(MachineConfig::m3_like());
            m.load_flash(0x100, &main.bytes);
            m.load_flash(0x300, &handler.bytes);
            m.load_flash(0, &0x300u32.to_le_bytes());
            m.set_pc(0x100);
            m.cpu.set_sp(SRAM_BASE + 0x8000);
            for k in 0..64u64 {
                m.schedule_irq(150 + stride * k, 0);
            }
            m
        };
        let what = format!("{what} stride {stride}");
        let (r, on) = run_both(&build, 10_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        let stats = on.predecode_stats();
        assert!(stats.block_hits > 0, "{what}: block engine never ran");
        // Same-line pends coalesce while the handler runs, so fewer
        // observations than schedules is expected — but the sweep must
        // have really stormed the loop.
        assert!(on.latencies().len() >= 16, "{what}: too few interrupts observed");
    }
}

#[test]
fn fused_alu_cmp_irq_storm_identical() {
    irq_sweep(ALU_CMP_SRC, "irq alu_cmp");
}

#[test]
fn fused_cmp_b_irq_storm_identical() {
    irq_sweep(CMP_B_SRC, "irq cmp_b");
}

#[test]
fn fused_alu_b_irq_storm_identical() {
    irq_sweep(ALU_B_SRC, "irq alu_b");
}

#[test]
fn fused_ldr_alu_irq_storm_identical() {
    irq_sweep(&ldr_alu_src(), "irq ldr_alu");
}

// ---------------------------------------------------------------------
// IT blocks carried through the lowering
// ---------------------------------------------------------------------

/// A hot T2 loop full of IT blocks: `ite`, `itt` and `it` headers with
/// their covered instructions, ending in an IT-covered backedge. `it`
/// joins blocks, so the whole body is one block whose covered entries
/// run on the generic handler.
fn it_loop_src(passes: u32) -> String {
    format!(
        "mov r0, #0
         mov r1, #0
         mov r2, #0
         mov r3, #{passes}
         loop: and r4, r0, #3
         cmp r4, #1
         ite eq
         add r1, r1, #3
         sub r1, r1, #1
         cmp r4, #2
         itt hi
         add r2, r2, r1
         eor r1, r1, r2
         tst r0, #4
         it ne
         add r2, r2, #7
         add r0, r0, #1
         cmp r0, r3
         it ne
         bne loop
         bkpt #0"
    )
}

/// Share of retired instructions that ran inside block dispatches.
fn threaded_share(m: &Machine) -> f64 {
    m.predecode_stats().threaded_instrs as f64 / m.instructions() as f64
}

#[test]
fn it_loops_run_threaded_and_identical_on_t2_presets() {
    let src = it_loop_src(400);
    for (name, config) in presets() {
        if config.mode != IsaMode::T2 {
            continue;
        }
        let what = format!("it loop on {name}");
        let (r, on) = run_both(&|| machine_with(&config, &src), 1_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        assert_ne!(on.cpu.regs[2], 0, "{what}: the predicated adds never ran");
        let share = threaded_share(&on);
        assert!(share >= 0.99, "{what}: only {:.1}% retired threaded", share * 100.0);
    }
}

#[test]
fn it_run_splits_and_irq_storm_identical() {
    // A `run_until` bound at every cycle splits the IT loop between
    // every pair of instructions, IT-covered ones included: a split
    // inside an IT run leaves the queue non-empty, so the gate hands
    // the rest of the run to the per-step path.
    let src = it_loop_src(24);
    let config = MachineConfig::m3_like();
    let build = || machine_with(&config, &src);
    let mut on = build();
    let mut off = reference(&build);
    let mut bound = 0u64;
    loop {
        bound += 1;
        let got = on.run_until(bound);
        let want = off.run_until(bound);
        assert_eq!(got, want, "bound {bound}: RunResult diverged");
        assert_state_eq(&on, &off, &format!("bound {bound}"));
        if want.reason != StopReason::CycleLimit {
            assert_eq!(want.reason, StopReason::Bkpt(0));
            break;
        }
    }
    assert!(on.predecode_stats().budget_splits > 100, "bounds must split dispatches");

    // Precise-cycle interrupts walked through every phase of the loop
    // period land between IT-covered instructions; entry clears the IT
    // queue on both paths, and the stamps must agree exactly.
    let handler = Assembler::new(IsaMode::T2).assemble("add r5, r5, #1\n bx lr").unwrap();
    let src = it_loop_src(600);
    for stride in [5u64, 13, 29] {
        let build = || {
            let mut m = machine_with(&config, &src);
            m.load_flash(0x400, &handler.bytes);
            m.load_flash(0, &0x400u32.to_le_bytes());
            for k in 0..48u64 {
                m.schedule_irq(300 + stride * k * 7, 0);
            }
            m
        };
        let what = format!("it storm stride {stride}");
        let (r, on) = run_both(&build, 10_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        assert!(on.latencies().len() >= 16, "{what}: too few interrupts observed");
        let share = threaded_share(&on);
        assert!(share >= 0.9, "{what}: only {:.1}% retired threaded", share * 100.0);
    }
}

// ---------------------------------------------------------------------
// Self-modifying code inside a fused pair of an installed block
// ---------------------------------------------------------------------

#[test]
fn smc_inside_fused_pair_of_promoted_block_identical() {
    // Two-phase SRAM program. Phase 1 (the first 12 passes) stores to a
    // scratch word, so the loop block stays valid and dispatches as
    // threaded code. At pass 12 the store target flips
    // to the `patched` instruction — the *first half of the fused
    // `add`+`cmp` pair* later in the same block. The armed store runs
    // inside the threaded block, moves the code-write generation, and
    // the engine must split before the now-stale fused pair executes;
    // the stored halfword alternates between `add r6, r6, #1` and
    // `add r6, r6, #5`, so a single stale execution shows in r6.
    let code_base = SRAM_BASE + 0x400;
    let scratch = SRAM_BASE + 0x100;
    let mode = IsaMode::T2;
    let enc = |src: &str| {
        let out = Assembler::new(mode).assemble(&format!("{src}\n nop")).unwrap();
        u32::from(u16::from_le_bytes([out.bytes[0], out.bytes[1]]))
    };
    let h0 = enc("add r6, r6, #1"); // the assembled original
    let h1 = enc("add r6, r6, #5");
    let passes = 28u32;
    let arm_at = 12u32;
    let template = |patched: u32| {
        format!(
            "movw r1, #{scratch_lo}
             movt r1, #{scratch_hi}
             movw r10, #{patched_lo}
             movt r10, #{patched_hi}
             movw r2, #{h1}
             movw r4, #{mask}
             mov r0, #0
             mov r6, #0
             b mloop
             arm: mov r1, r10
             b mloop
             mloop: strh r2, [r1, #0]
             eor r2, r2, r4
             add r0, r0, #1
             patched: add r6, r6, #1
             cmp r0, #{passes}
             beq done
             cmp r0, #{arm_at}
             beq arm
             b mloop
             done: bkpt #0",
            scratch_lo = scratch & 0xFFFF,
            scratch_hi = scratch >> 16,
            patched_lo = patched & 0xFFFF,
            patched_hi = patched >> 16,
            mask = h0 ^ h1,
        )
    };
    let probe = Assembler::new(mode).assemble(&template(0)).unwrap();
    let patched = code_base + probe.symbols["patched"];
    let out = Assembler::new(mode).assemble(&template(patched)).unwrap();
    assert_eq!(out.symbols, probe.symbols, "layout must be immediate-independent");
    let build = || {
        let mut m = Machine::new(MachineConfig::m3_like());
        m.load_sram(code_base, &out.bytes);
        m.set_pc(code_base);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (r, on) = run_both(&build, 1_000_000, "smc_fused");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let stats = on.predecode_stats();
    assert!(stats.block_hits > 0, "block engine never ran");
    assert!(stats.demotions > 0, "the armed store must drop the installed block");
    // Phase 1 runs the original +1; phase 2 alternates the two
    // encodings — at least one +5 must have executed.
    assert!(
        on.cpu.regs[6] > passes,
        "no rewritten encoding ever executed (r6 = {})",
        on.cpu.regs[6]
    );
}

// ---------------------------------------------------------------------
// run_until splits and flash-patch toggles mid-threaded-block
// ---------------------------------------------------------------------

#[test]
fn run_until_splits_and_patch_toggles_mid_threaded_block_identical() {
    // Bounded runs park execution mid-block (including mid-fused-pair
    // budget splits); between bounds the host toggles a flash-patch
    // remap over the loop's literal, which moves the generation stamp
    // and drops the installed block. Resuming must refetch under the
    // new generation with cycles identical to the per-step reference.
    let template = |addr: u32| {
        format!(
            "movw r2, #{}
             movt r2, #{}
             mov r0, #0
             mov r6, #0
             loop: ldr r1, [r2, #0]
             add r6, r6, r1
             add r0, r0, #1
             cmp r0, #200
             bne loop
             bkpt #0
             .align 4
             lit: .word 0x00000001",
            addr & 0xFFFF,
            addr >> 16
        )
    };
    let config = MachineConfig::m3_like();
    let probe = Assembler::new(config.mode).assemble(&template(0)).unwrap();
    let lit_addr = 0x100 + probe.symbols["lit"];
    let out = Assembler::new(config.mode).assemble(&template(lit_addr)).unwrap();
    let build = || {
        let mut m = Machine::new(config.clone());
        m.load_flash(0x100, &out.bytes);
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let mut base = reference(&build);
    let mut on = build();
    let bounds: Vec<u64> = (1..40).map(|i| 83 * i + (i % 7)).collect();
    for (i, bound) in bounds.iter().enumerate() {
        let want = base.run_until(*bound);
        let got = on.run_until(*bound);
        let tag = format!("bound[{i}]={bound}");
        assert_eq!(got, want, "{tag}: RunResult diverged");
        assert_state_eq(&on, &base, &tag);
        if want.reason != StopReason::CycleLimit {
            break;
        }
        // Toggle only every 8th bound: each toggle moves the stamp and
        // drops the blocks, so the loop needs quiet stretches to
        // re-record and dispatch between them.
        if i % 8 == 7 {
            let toggle = |m: &mut Machine| {
                if i % 16 == 7 {
                    m.patch.set(0, lit_addr, PatchKind::Remap(0x40)).unwrap();
                } else {
                    m.patch.clear(0).unwrap();
                }
            };
            toggle(&mut base);
            toggle(&mut on);
        }
    }
    let want = base.run(1_000_000);
    assert_eq!(want.reason, StopReason::Bkpt(0));
    let got = on.run(1_000_000);
    assert_eq!(got, want, "final run");
    assert_state_eq(&on, &base, "final");
    let stats = on.predecode_stats();
    assert!(stats.block_hits > 0, "block engine never ran");
    assert!(stats.demotions > 0, "patch toggles must drop installed blocks");
}

#[test]
fn toggling_threaded_mid_run_matches_disabled() {
    // Flipping the engine on/off between bounded runs (every disable
    // drops the installed blocks and any recording in flight; every
    // enable re-records from scratch) must stay identical to a
    // reference with the engine off for good. `step()` never enters
    // the block engine, so the toggling is driven through `run_until`
    // bounds instead.
    let src = "mov r0, #0
         mov r2, #2000
         loop: add r0, r0, #1
         cmp r0, r2
         bne loop
         bkpt #0";
    let config = MachineConfig::m3_like();
    let mut toggler = machine_with(&config, src);
    let mut reference = machine_with(&config, src);
    reference.set_predecode_enabled(false);
    let mut stop = None;
    for chunk in 0..10_000u64 {
        toggler.set_predecode_enabled(chunk % 3 != 2);
        let bound = 211 * (chunk + 1);
        let a = toggler.run_until(bound);
        let b = reference.run_until(bound);
        assert_eq!(a, b, "diverged at chunk {chunk}");
        assert_state_eq(&toggler, &reference, &format!("chunk {chunk}"));
        if a.reason != StopReason::CycleLimit {
            stop = Some(a.reason);
            break;
        }
    }
    assert_eq!(stop, Some(StopReason::Bkpt(0)));
    let stats = toggler.predecode_stats();
    assert!(stats.block_hits > 0, "on-chunks must dispatch blocks");
    assert!(stats.demotions > 0, "every disable must drop the hot block");
}

// ---------------------------------------------------------------------
// Device-revision stamps vs block chaining (satellite regression)
// ---------------------------------------------------------------------

/// A device whose revision counter moves on every register write — the
/// stand-in for any device state that can change what instruction
/// fetches observe.
#[derive(Debug, Clone, Default)]
struct RevDevice {
    rev: u64,
    last: u32,
    writes: u64,
}

const REV_DEVICE_BASE: u32 = MMIO_BASE + 0x8000;

impl Device for RevDevice {
    fn name(&self) -> &'static str {
        "revdev"
    }
    fn read32(&mut self, _off: u32, _ctx: &mut DeviceCtx<'_>) -> u32 {
        self.last
    }
    fn write32(&mut self, _off: u32, value: u32, _ctx: &mut DeviceCtx<'_>) {
        self.last = value;
        self.writes += 1;
        self.rev = self.rev.wrapping_add(1);
    }
    fn revision(&self) -> u64 {
        self.rev
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn rev_device_machine(src: &str) -> Machine {
    let out = Assembler::new(IsaMode::T2).assemble(src).unwrap();
    let mut m = Machine::new(MachineConfig::m3_like());
    m.bus.attach(REV_DEVICE_BASE, 0x100, Box::new(RevDevice::default()));
    m.bus.refresh_next_event();
    m.load_flash(0x100, &out.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

#[test]
fn device_revision_bump_between_record_and_chained_dispatch_identical() {
    // The guest bumps a device revision on every loop pass: each
    // chained successor dispatch happens under a stamp older than the
    // one its block was recorded with, so the chain hint must be
    // re-validated (split + re-record), never followed into a stale
    // block. Engine and reference must agree bit-for-bit, including the
    // device's own observed write stream.
    let src = format!(
        "movw r1, #{lo}
         movt r1, #{hi}
         mov r0, #0
         loop: str r0, [r1, #0]
         add r0, r0, #1
         ldr r3, [r1, #0]
         add r6, r6, r3
         cmp r0, #40
         bne loop
         bkpt #0",
        lo = REV_DEVICE_BASE & 0xFFFF,
        hi = REV_DEVICE_BASE >> 16,
    );
    let (r, on) = run_both(&|| rev_device_machine(&src), 1_000_000, "revdev");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let dev = on.bus.device::<RevDevice>().expect("device attached");
    assert_eq!(dev.writes, 40, "every pass must reach the device");
    assert_eq!(on.cpu.regs[6], (0..40).sum::<u32>(), "read-back checksum");
    // The revision moves mid-block, so every pass clears the cache and
    // re-records: each installed block is dropped before its next
    // dispatch could chain into it.
    let stats = on.predecode_stats();
    assert!(stats.blocks_promoted > 2, "revision churn must force re-records");
    assert_eq!(
        stats.block_hits, 0,
        "a block whose stamp moves every pass must never be dispatched"
    );
}

#[test]
fn host_side_revision_bump_demotes_promoted_block_identical() {
    // Host-side variant: the loop touches no device and runs threaded,
    // and *then* the host moves the device revision between steps —
    // exactly the window between a block's recording and its next
    // chained dispatch. The installed block must be invalidated, not
    // chained.
    let src = "mov r0, #0
         mov r2, #400
         loop: add r0, r0, #1
         cmp r0, r2
         bne loop
         bkpt #0";
    let build = || rev_device_machine(src);
    let mut on = build();
    let mut off = reference(&build);
    let bump = |m: &mut Machine| {
        let d = m.bus.device_mut::<RevDevice>().expect("device attached");
        d.rev = d.rev.wrapping_add(1);
        m.bus.refresh_next_event();
    };
    let mut stop = None;
    for chunk in 0..10_000u64 {
        // Long quiet stretches let the loop dispatch; each bump then
        // lands between a recording and its next chained dispatch.
        let bound = 449 * (chunk + 1);
        let a = on.run_until(bound);
        let b = off.run_until(bound);
        assert_eq!(a, b, "diverged at chunk {chunk}");
        assert_state_eq(&on, &off, &format!("chunk {chunk}"));
        if a.reason != StopReason::CycleLimit {
            stop = Some(a.reason);
            break;
        }
        bump(&mut on);
        bump(&mut off);
    }
    assert_eq!(stop, Some(StopReason::Bkpt(0)));
    let stats = on.predecode_stats();
    assert!(stats.block_hits > 0, "loop must dispatch before the first bump");
    assert!(stats.demotions > 0, "every bump must drop the installed blocks");
}

// ---------------------------------------------------------------------
// Randomized corpus
// ---------------------------------------------------------------------

#[test]
fn matrix_randomized_programs_identical() {
    // The deterministic xorshift ALU corpus from the earlier
    // differential suites, replayed against the per-step reference.
    let mut state = 0x0DDB_A11C_0FFE_E000u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let ops = ["add", "sub", "and", "orr", "eor"];
    let config = MachineConfig::m3_like();
    for trial in 0..4 {
        let mut src = String::from(
            "mov r0, #1\nmov r1, #2\nmov r2, #3\nmov r3, #4\nmov r7, #12\nloop:\n",
        );
        for _ in 0..60 {
            let op = ops[(next() % ops.len() as u64) as usize];
            let rd = next() % 7;
            let rn = next() % 7;
            if next() % 2 == 0 {
                let imm = next() % 256;
                let imm_op = if next() % 2 == 0 { "add" } else { "sub" };
                src.push_str(&format!("{imm_op} r{rd}, r{rd}, #{imm}\n"));
                let _ = (op, rn);
            } else {
                src.push_str(&format!("{op} r{rd}, r{rd}, r{rn}\n"));
            }
        }
        src.push_str("sub r7, r7, #1\ncmp r7, #0\nbne loop\nbkpt #0");
        let what = format!("matrix random[{trial}]");
        let (r, on) = run_both(&|| machine_with(&config, &src), 2_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        assert!(
            on.predecode_stats().block_hits > 0,
            "{what}: 12 passes must dispatch the body"
        );
    }
}

// ---------------------------------------------------------------------
// Stats and lifecycle
// ---------------------------------------------------------------------

#[test]
fn threaded_stats_report_promotion_and_demotion() {
    let src = "mov r0, #0
         mov r2, #300
         loop: add r0, r0, #1
         cmp r0, r2
         bne loop
         bkpt #0";
    let config = MachineConfig::m3_like();
    let mut m = machine_with(&config, src);
    assert!(m.predecode_enabled(), "presets enable the engine by default");
    let r = m.run(1_000_000);
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let stats = m.predecode_stats();
    assert!(stats.blocks_promoted >= 1, "the loop body must be installed");
    assert!(stats.fused_pairs >= 1, "add+cmp must fuse at install");
    assert!(
        stats.block_hits > stats.blocks_promoted,
        "installed blocks must dispatch more than once"
    );
    assert_eq!(stats.demotions, 0, "nothing invalidated this run");
    assert_eq!(stats.block_instrs, 0, "no entry-at-a-time tier is left");

    // Disabling the engine drops every installed block.
    m.set_predecode_enabled(false);
    let stats = m.predecode_stats();
    assert!(stats.demotions >= 1, "disable must drop installed blocks");

    // With the engine off, a fresh run dispatches and installs nothing.
    let mut m2 = machine_with(&config, src);
    m2.set_predecode_enabled(false);
    let r2 = m2.run(1_000_000);
    assert_eq!(r2, r, "engine off changed the run result");
    let s2 = m2.predecode_stats();
    assert_eq!(s2.block_hits, 0, "disabled engine must not dispatch");
    assert_eq!(s2.blocks_promoted, 0, "disabled engine must not install");
}
