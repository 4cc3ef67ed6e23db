//! Differential tests: the threaded-code block engine must be
//! invisible.
//!
//! Every scenario runs with the execution engine on (the presets'
//! default) and off (`predecode` disabled: the uncached per-step
//! interpreter) and asserts bit-identical architectural outcomes:
//! `StopReason`, cycles, instruction counts, registers, flags, flash
//! streaming statistics, flash-patch accounting, I-cache and D-cache
//! statistics and occupancy, MPU violations and the exact
//! per-interrupt pend/entry cycle stamps. Scenarios target the engine's
//! sharp edges specifically: superinstruction fusion patterns, IRQ
//! storms landing *between* the two halves of fused pairs, IT blocks
//! carried through the lowering (covered entries, splits and interrupts
//! landing mid-IT), self-modifying code rewriting the inside of a fused
//! pair of an installed block, `run_until` bounds splitting blocks
//! mid-flight, flash-patch toggles dropping installed blocks, device
//! loads and stores inside chained blocks, and cycle-dependent device
//! loads (pure ops) under a periodic timer. A seeded corpus of
//! the specialized shift, multiply and register-offset load/store forms
//! runs on all four presets, compared at every bound of a `run_until`
//! walk, next to directed cases for those handlers (a register-offset
//! store raising an IRQ or rewriting code mid-block) and for the fetch
//! plans (the fetch after a literal-pool load or an SRAM access, an
//! I-cache or deny-all MPU fitted under installed blocks). Random flash
//! bytes run the same walk on every preset, and must end in a
//! `StopReason`, never a host panic.

use alia_isa::{Assembler, IsaMode};
use alia_sim::{
    Cache, CacheConfig, Device, DeviceCtx, DeviceSpec, Machine, MachineConfig, MemFault, Mpu,
    MpuKind, PatchKind, Perms, RunResult, StopReason, TimerConfig, MMIO_BASE, MMIO_CYCLES,
    MMIO_IRQ_SET, SRAM_BASE, TIMER_BASE,
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
    let cache = |c: &Option<Cache>| c.as_ref().map(|c| (c.stats(), c.valid_lines()));
    assert_eq!(cache(&on.icache), cache(&off.icache), "{what}: I-cache diverged");
    assert_eq!(cache(&on.dcache), cache(&off.dcache), "{what}: D-cache diverged");
    let violations = |m: &Machine| m.mpu.as_ref().map(Mpu::violations);
    assert_eq!(violations(on), violations(off), "{what}: MPU violations diverged");
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
    // Multiplies, bitfields, shifts and an IT block mixed into a hot
    // loop: specialized handlers and fused register pairs next to the
    // IT-covered entries `h_generic` carries, all bit-identical.
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
// Device loads and stores inside chained blocks
// ---------------------------------------------------------------------

/// A plain data register: it latches the last word written and counts
/// the writes.
#[derive(Debug, Clone, Default)]
struct DataDevice {
    last: u32,
    writes: u64,
}

const DATA_DEVICE_BASE: u32 = MMIO_BASE + 0x8000;

impl Device for DataDevice {
    fn read32(&self, _off: u32, _now: u64, _active_irq: u32) -> u32 {
        self.last
    }
    fn write32(&mut self, _off: u32, value: u32, _ctx: &mut DeviceCtx<'_>) {
        self.last = value;
        self.writes += 1;
    }
}

fn data_device_machine(src: &str) -> Machine {
    let mut m = machine_with(&MachineConfig::m3_like(), src);
    m.bus.attach(DATA_DEVICE_BASE, 0x100, Box::new(DataDevice::default()));
    m
}

#[test]
fn device_store_and_load_in_a_threaded_loop_identical() {
    // The guest stores to and loads from a data device on every loop
    // pass. The store is an impure op inside the block, re-checked
    // after it runs; the load is pure (a device read has no side
    // effects), so only the cycle budget is compared after it. The loop
    // must still run threaded, and the engine and the reference must
    // agree bit-for-bit, including the device's own observed write
    // stream.
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
        lo = DATA_DEVICE_BASE & 0xFFFF,
        hi = DATA_DEVICE_BASE >> 16,
    );
    let (r, on) = run_both(&|| data_device_machine(&src), 1_000_000, "data device");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let dev = on.bus.device::<DataDevice>().expect("device attached");
    assert_eq!(dev.writes, 40, "every pass must reach the device");
    assert_eq!(on.cpu.regs[6], (0..40).sum::<u32>(), "read-back checksum");
    assert!(on.predecode_stats().block_hits > 0, "the device loop must run threaded");
}

#[test]
fn matrix_device_loads_under_a_periodic_timer_identical() {
    // Pure loads from device registers whose value depends on the
    // cycle of the access: the timer's COUNT, MMIO_CYCLES through an
    // immediate and a register offset, next to a stacked SRAM word,
    // each folded into r6. A periodic timer interrupts the loop, so its
    // next event bounds every dispatch: interrupts and `run_until`
    // bounds must land after the same load on the engine as on the
    // reference, and the fetch after each load must be timed alike. The
    // four-instruction prologue word-aligns the loop, so in T16 each
    // load shares a flash window with the `add` after it: on arm7's
    // unified bus the SRAM load breaks the stream inside that window.
    let src = "mov r6, #0
         mov r2, #3
         str r2, [r0, #0]
         push {r2}
         loop: ldr r3, [r0, #8]
         add r6, r6, r3
         ldr r3, [r5, #4]
         add r6, r6, r3
         ldr r3, [r5, r1]
         add r6, r6, r3
         ldr r3, [sp, #0]
         add r6, r6, r3
         sub r7, r7, #1
         cmp r7, #0
         bne loop
         bkpt #0";
    for (name, mut config) in presets() {
        let timer = TimerConfig { base: TIMER_BASE, irq: 0, compare: 53 };
        config.devices = vec![DeviceSpec::Timer(timer)];
        let handler = Assembler::new(config.mode).assemble("add r4, r4, #1\n bx lr").unwrap();
        let build = || {
            let mut m = machine_with(&config, src);
            m.load_flash(0x300, &handler.bytes);
            m.load_flash(0, &0x300u32.to_le_bytes());
            m.cpu.regs[0] = TIMER_BASE;
            m.cpu.regs[1] = MMIO_CYCLES - MMIO_BASE;
            m.cpu.regs[5] = MMIO_BASE;
            m.cpu.regs[7] = 400;
            m
        };
        let what = format!("device loads on {name}");
        run_both_bounded(&build, 31, 0.7, &what);
        let (_, on) = run_both(&build, 2_000_000, &what);
        assert!(on.latencies().len() >= 20, "{what}: the timer must interrupt the loop");
        let splits = on.predecode_stats().budget_splits;
        assert!(splits > 0, "{what}: timer events must split dispatches");
    }
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

#[test]
fn matrix_random_flash_bytes_identical() {
    // Random bytes at the entry point on every preset: whatever they
    // decode to (undefined encodings, faulting accesses, wild branches,
    // device stores), the engine and the per-step reference must agree
    // at every `run_until` bound, and every run must end in a
    // `StopReason`, never a host panic.
    const PROGRAMS: u64 = 128;
    const STRIDE: u64 = 97;
    const HORIZON: u64 = 300 * STRIDE;
    let (mut decode_errors, mut faults, mut block_hits) = (0, 0, 0);
    for (name, config) in presets() {
        for seed in 1..=PROGRAMS {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let bytes: Vec<u8> = (0..1024).map(|_| rng.next() as u8).collect();
            let build = || {
                let mut m = Machine::new(config.clone());
                m.load_flash(0x100, &bytes);
                m.set_pc(0x100);
                m.cpu.set_sp(SRAM_BASE + 0x8000);
                m
            };
            let what = format!("random flash {seed} on {name}");
            let mut on = build();
            let mut off = reference(&build);
            let mut bound = 0;
            while bound < HORIZON {
                bound += STRIDE;
                let got = on.run_until(bound);
                let want = off.run_until(bound);
                assert_eq!(got, want, "{what}: bound {bound}: RunResult diverged");
                assert_state_eq(&on, &off, &format!("{what}: bound {bound}"));
                match want.reason {
                    StopReason::CycleLimit => continue,
                    StopReason::DecodeError { .. } => decode_errors += 1,
                    StopReason::Fault(_) => faults += 1,
                    _ => {}
                }
                break;
            }
            block_hits += on.predecode_stats().block_hits;
        }
    }
    assert!(decode_errors > 0 && faults > 0, "the corpus must reach both error stops");
    assert!(block_hits > 0, "some random code must run threaded");
}

#[test]
fn it_al_with_an_else_slot_stops_with_a_decode_error() {
    // `ite al` (EC BF) then `nop`s and `bkpt`: AL has no inverse for the
    // else slot, so the form is UNPREDICTABLE and must not decode.
    let build = || {
        let mut m = Machine::m3_like();
        m.load_flash(0x100, &[0xEC, 0xBF, 0x00, 0xBF, 0x00, 0xBF, 0x00, 0xBE]);
        m.set_pc(0x100);
        m
    };
    let (r, _) = run_both(&build, 1_000, "ite al");
    assert_eq!(r.reason, StopReason::DecodeError { addr: 0x100 });
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

// ---------------------------------------------------------------------
// Specialized shifts, multiplies and register-offset loads/stores
// ---------------------------------------------------------------------

/// Register roles in the corpus and directed loops. Low registers
/// only, so every mode's narrow forms apply: r0-r3 data, r4 shift
/// amount, r5 buffer or device base, r6 index, r7 loop counter. The
/// host seeds them, so no program has to materialize a constant.
const BUF: u32 = SRAM_BASE + 0x1000;

/// The deterministic xorshift generator the corpora are drawn from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// Whether `mode` encodes `line` (the corpus keeps only the forms each
/// mode has: T16 has no rotate by immediate, no three-address register
/// shift or multiply and no shifted register offset; no narrow T16 form
/// sets flags).
fn encodes(mode: IsaMode, line: &str) -> bool {
    Assembler::new(mode).assemble(line).is_ok()
}

/// Forms the corpus covers, counted per program so no preset's corpus
/// can silently lose one.
#[derive(Debug, Default)]
struct Coverage {
    shift_imm: u32,
    shift_reg: u32,
    mul: u32,
    mem: u32,
    /// `ubfx`/`bfi` lines (T2 only).
    bits: u32,
    /// The literal pool: one word per literal-pool load, in order.
    pool: Vec<u32>,
}

/// Corpus line `k` (or two: an amount or index set-up plus its user)
/// for `mode`: the kinds take turns, and each prefers the drawn
/// three-address, flag-setting form, falling back to the two-address
/// or flagless one where the mode only has that.
fn corpus_lines(rng: &mut Rng, k: usize, mode: IsaMode, cov: &mut Coverage) -> Vec<String> {
    let first = |cands: &[String]| cands.iter().find(|l| encodes(mode, l)).cloned();
    let d = rng.next() % 4;
    let m = rng.next() % 4;
    let s = rng.pick(&["", "s"]);
    let sh = rng.pick(&["lsl", "lsr", "asr", "ror"]);
    match k % 8 {
        0 => {
            let amt = rng.pick(&[0u32, 1, 31, 32]);
            let cands = [
                format!("{sh}{s} r{d}, r{m}, #{amt}"),
                format!("{sh}{s} r{d}, r{d}, #{amt}"),
                format!("{sh} r{d}, r{m}, #{amt}"),
                format!("lsl r{d}, r{m}, #{}", amt.min(31)),
            ];
            let Some(l) = first(&cands) else { return Vec::new() };
            cov.shift_imm += 1;
            vec![l]
        }
        1 => {
            let amt = rng.pick(&[0u32, 1, 31, 32, 33, 255]);
            let cands = [
                format!("{sh}{s} r{d}, r{m}, r4"),
                format!("{sh}{s} r{d}, r{d}, r4"),
                format!("{sh} r{d}, r{d}, r4"),
            ];
            let Some(l) = first(&cands) else { return Vec::new() };
            cov.shift_reg += 1;
            vec![format!("mov r4, #{amt}"), l]
        }
        2 => {
            let n = rng.next() % 4;
            let cands = [
                format!("mul{s} r{d}, r{n}, r{m}"),
                format!("mul{s} r{d}, r{d}, r{m}"),
                format!("mul r{d}, r{d}, r{m}"),
            ];
            let Some(l) = first(&cands) else { return Vec::new() };
            cov.mul += 1;
            vec![l]
        }
        3 | 4 => {
            let (op, size) = rng.pick(&[
                ("ldr", 4u32),
                ("ldrb", 1),
                ("ldrh", 2),
                ("str", 4),
                ("strb", 1),
                ("strh", 2),
            ]);
            let k = rng.pick(&[0u32, 1, 2, 3]);
            let j = (rng.next() % 8) as u32;
            // Keep every access aligned: the index times 2^k is a
            // multiple of the access size.
            let idx = |k: u32| j * (size >> k).max(1);
            let cands = [
                (format!("{op} r{d}, [r5, r6, lsl #{k}]"), idx(k)),
                (format!("{op} r{d}, [r5, r6]"), idx(0)),
            ];
            let Some((l, i)) = cands.into_iter().find(|(l, _)| encodes(mode, l)) else {
                return Vec::new();
            };
            cov.mem += 1;
            vec![format!("mov r6, #{i}"), l]
        }
        6 => {
            // A literal-pool load (its offset resolved by
            // `corpus_src`), often used right away by an ALU op.
            let n = cov.pool.len();
            cov.pool.push(rng.next() as u32);
            let mut lines = vec![format!("lit{n}: ldr r{d}, [pc, #@{n}@]")];
            if rng.next().is_multiple_of(2) {
                lines.push(format!("add r{m}, r{m}, r{d}"));
            }
            lines
        }
        7 => {
            let lsb = rng.pick(&[0u32, 1, 7, 16, 31]);
            let width = rng.pick(&[1u32, 3, 8, 16, 32]).min(32 - lsb);
            let op = rng.pick(&["ubfx", "bfi"]);
            let l = format!("{op} r{d}, r{m}, #{lsb}, #{width}");
            if !encodes(mode, &l) {
                return Vec::new();
            }
            cov.bits += 1;
            vec![l]
        }
        _ => {
            // Mixers: fold the loop counter in and read the carry, so
            // flag and value differences propagate to the end state.
            let op = rng.pick(&["add", "eor", "adc"]);
            let src = if op == "add" { 7 } else { m };
            vec![format!("{op} r{d}, r{d}, r{src}")]
        }
    }
}

/// A corpus loop: `lines` body lines drawn from `seed`, run `passes`
/// times. Returns the source and what it covers.
fn corpus_src(mode: IsaMode, seed: u64, lines: usize) -> (String, Coverage) {
    let mut rng = Rng(seed);
    let mut cov = Coverage::default();
    let mut body = Vec::new();
    for k in 0.. {
        if body.len() >= lines {
            break;
        }
        body.extend(corpus_lines(&mut rng, k, mode, &mut cov));
    }
    let pool: String =
        cov.pool.iter().enumerate().map(|(n, v)| format!("pool{n}: .word {v}\n")).collect();
    let template = format!(
        "loop: {}
         sub r7, r7, #1
         cmp r7, #0
         bne loop
         bkpt #0
         .align 4
         {pool}",
        body.join("\n")
    );
    // Resolve each `@n@` literal offset from a probe assembly (the
    // layout does not depend on the offsets).
    let resolve = |offs: &dyn Fn(usize) -> u32| {
        (0..cov.pool.len()).fold(template.clone(), |src, n| {
            src.replace(&format!("@{n}@"), &offs(n).to_string())
        })
    };
    let probe = Assembler::new(mode).assemble(&resolve(&|_| 0)).expect("corpus assembles");
    let sym = |name: String| probe.symbols[&name];
    let src = resolve(&|n| sym(format!("pool{n}")) - ((sym(format!("lit{n}")) + mode.pc_bias()) & !3));
    let check = Assembler::new(mode).assemble(&src).expect("corpus assembles");
    assert_eq!(check.symbols, probe.symbols, "layout must be offset-independent");
    (src, cov)
}

/// A machine running `src` from 0x100 with r0-r3 seeded from `seed`,
/// r5 at the SRAM buffer and r7 counting `passes`.
fn seeded_machine(config: &MachineConfig, src: &str, seed: u64, passes: u32) -> Machine {
    let mut m = machine_with(config, src);
    let mut rng = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
    for r in 0..4 {
        m.cpu.regs[r] = rng.next() as u32;
    }
    m.cpu.regs[5] = BUF;
    m.cpu.regs[7] = passes;
    m
}

/// Runs `build` unbounded against the reference (asserting a threaded
/// share of at least `min_share`), then again under `run_until` bounds
/// every `stride` cycles, comparing the whole state at every bound so
/// flag and register values are checked mid-block too. Returns the
/// engine-on machine of the bounded walk.
fn run_both_bounded(
    build: &dyn Fn() -> Machine,
    stride: u64,
    min_share: f64,
    what: &str,
) -> Machine {
    let (r, on) = run_both(build, 2_000_000, what);
    assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
    assert!(on.predecode_stats().block_hits > 0, "{what}: block engine never ran");
    let share = threaded_share(&on);
    assert!(share >= min_share, "{what}: only {:.1}% retired threaded", share * 100.0);
    let mut on = build();
    let mut off = reference(build);
    let mut bound = 0u64;
    loop {
        bound += stride;
        let got = on.run_until(bound);
        let want = off.run_until(bound);
        assert_eq!(got, want, "{what}: bound {bound}: RunResult diverged");
        assert_state_eq(&on, &off, &format!("{what}: bound {bound}"));
        if want.reason != StopReason::CycleLimit {
            break;
        }
    }
    assert!(on.predecode_stats().budget_splits > 0, "{what}: bounds must split dispatches");
    on
}

#[test]
fn matrix_specialized_forms_corpus_identical() {
    // Seeded loops of shifted-register moves (every shift by immediate
    // 0, 1, 31 and 32 where the mode encodes it, by register amounts 0,
    // 1, 31, 32, 33 and 255, flag-setting where the mode has the form),
    // `mul`/`muls`, unsigned register-offset loads and stores
    // `[rn, rm, lsl #k]`, literal-pool loads and (T2) `ubfx`/`bfi`,
    // adjacent in every order the register-pair fusion meets, on every
    // preset.
    for (name, config) in presets() {
        for seed in [1u64, 0x5EED, 0xC0FF_EE00_D15E_A5E5] {
            let (src, cov) = corpus_src(config.mode, seed, 48);
            let what = format!("corpus {seed:#x} on {name}");
            let bits_ok = cov.bits > 0 || config.mode != IsaMode::T2;
            assert!(
                cov.shift_imm > 0
                    && cov.shift_reg > 0
                    && cov.mul > 0
                    && cov.mem > 0
                    && !cov.pool.is_empty()
                    && bits_ok,
                "{what}: corpus lost a form: {cov:?}"
            );
            let build = || seeded_machine(&config, &src, seed, 24);
            run_both_bounded(&build, 37, 0.95, &what);
        }
    }
}

/// Assembles `src` for `mode` with a `[pc, #off]` literal load at label
/// `ld` resolved to label `lit`: the offset is computed from a probe
/// assembly, whose layout must not depend on it.
fn with_literal(mode: IsaMode, src: &dyn Fn(u32) -> String) -> String {
    let probe = Assembler::new(mode).assemble(&src(0)).expect("probe assembles");
    let (ld, lit) = (probe.symbols["ld"], probe.symbols["lit"]);
    let base = (ld + mode.pc_bias()) & !3;
    let out = src(lit - base);
    let check = Assembler::new(mode).assemble(&out).expect("program assembles");
    assert_eq!(check.symbols, probe.symbols, "layout must be offset-independent");
    out
}

#[test]
fn matrix_register_offset_store_raises_irq_mid_block_identical() {
    // A register-offset store into the MMIO window's IRQ-set register
    // raises an interrupt from the middle of a threaded block: the
    // engine must split right after the store so the interrupt is taken
    // at the same instruction boundary, with the same stamps, as on the
    // per-step path.
    let src = "loop: add r0, r0, #1
         str r3, [r5, r6]
         add r2, r2, r0
         lsl r1, r2, #3
         eor r1, r1, r0
         sub r7, r7, #1
         cmp r7, #0
         bne loop
         bkpt #0";
    for (name, config) in presets() {
        let handler = Assembler::new(config.mode).assemble("add r4, r4, #1\n bx lr").unwrap();
        let build = || {
            let mut m = machine_with(&config, src);
            m.load_flash(0x300, &handler.bytes);
            m.load_flash(0, &0x300u32.to_le_bytes());
            m.cpu.regs[3] = 0; // the IRQ line
            m.cpu.regs[5] = MMIO_BASE;
            m.cpu.regs[6] = MMIO_IRQ_SET - MMIO_BASE;
            m.cpu.regs[7] = 40;
            m
        };
        let what = format!("irq store on {name}");
        run_both_bounded(&build, 29, 0.75, &what);
        let (_, on) = run_both(&build, 2_000_000, &what);
        assert_eq!(on.latencies().len(), 40, "{what}: every pass must take its interrupt");
        assert_eq!(on.cpu.regs[4], 40, "{what}: the handler must run every pass");
    }
}

#[test]
fn matrix_register_offset_store_rewrites_later_instruction_identical() {
    // SRAM code whose register-offset store (first into a scratch area,
    // from pass 12 on into the block itself) rewrites `patched`, three
    // instructions later in the same threaded block. The encoding
    // alternates between `add r3, r3, #1` and `add r3, r3, #5`, so a
    // single stale execution shows in r3.
    let code_base = SRAM_BASE + 0x400;
    let (passes, arm_at) = (28u32, 12u32);
    for (name, config) in presets() {
        let mode = config.mode;
        let enc = |src: &str| {
            let out = Assembler::new(mode).assemble(src).unwrap();
            let mut w = [0u8; 4];
            w[..out.bytes.len()].copy_from_slice(&out.bytes);
            u32::from_le_bytes(w)
        };
        let (h0, h1) = (enc("add r3, r3, #1"), enc("add r3, r3, #5"));
        let store = if mode == IsaMode::A32 { "str" } else { "strh" };
        let src = format!(
            "mloop: {store} r2, [r1, r6]
             eor r2, r2, r4
             add r0, r0, #1
             patched: add r3, r3, #1
             cmp r0, #{passes}
             beq done
             cmp r0, #{arm_at}
             bne mloop
             mov r1, r5
             b mloop
             done: bkpt #0"
        );
        let out = Assembler::new(mode).assemble(&src).unwrap();
        let build = || {
            let mut m = Machine::new(config.clone());
            m.load_sram(code_base, &out.bytes);
            m.set_pc(code_base);
            m.cpu.set_sp(SRAM_BASE + 0x8000);
            m.cpu.regs[1] = BUF; // scratch until armed
            m.cpu.regs[2] = h1;
            m.cpu.regs[4] = h0 ^ h1;
            m.cpu.regs[5] = code_base;
            m.cpu.regs[6] = out.symbols["patched"];
            m
        };
        let what = format!("smc store on {name}");
        let (r, on) = run_both(&build, 1_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        let stats = on.predecode_stats();
        assert!(stats.block_hits > 0, "{what}: block engine never ran");
        assert!(stats.demotions > 0, "{what}: the armed store must drop the block");
        assert!(on.cpu.regs[3] > passes, "{what}: no rewritten encoding executed");
    }
}

#[test]
fn matrix_fetch_after_literal_load_identical() {
    // A literal-pool load disturbs the flash prefetch stream, so the
    // fetch right after it refills whatever window was buffered before.
    for (name, config) in presets() {
        let src = with_literal(config.mode, &|off| {
            format!(
                "loop: add r0, r0, r7
                 ld: ldr r3, [pc, #{off}]
                 add r2, r2, r3
                 lsl r1, r2, #1
                 sub r7, r7, #1
                 cmp r7, #0
                 bne loop
                 bkpt #0
                 .align 4
                 lit: .word 0x01020304"
            )
        });
        let build = || seeded_machine(&config, &src, 7, 64);
        let what = format!("literal fetch on {name}");
        run_both_bounded(&build, 23, 0.95, &what);
    }
}

#[test]
fn matrix_fetch_after_sram_store_identical() {
    // On arm7's unified bus an SRAM load or store steals the bus from
    // the fetch stream, so the next fetch refills; on the Harvard cores
    // the window stays buffered. Register-offset forms throughout.
    let src = "loop: str r0, [r5, r6]
         add r0, r0, r7
         ldr r1, [r5, r6]
         add r2, r2, r1
         strb r2, [r5, r4]
         mul r3, r3, r1
         sub r7, r7, #1
         cmp r7, #0
         bne loop
         bkpt #0";
    for (name, config) in presets() {
        let build = || {
            let mut m = seeded_machine(&config, src, 11, 64);
            m.cpu.regs[4] = 9;
            m.cpu.regs[6] = 4;
            m
        };
        let what = format!("sram store fetch on {name}");
        run_both_bounded(&build, 31, 0.95, &what);
    }
}

// ---------------------------------------------------------------------
// Fitting an I-cache or MPU between runs
// ---------------------------------------------------------------------

/// The ALU loop the fitting tests run on the M3 preset.
const FIT_SRC: &str = "mov r0, #0
     mov r2, #500
     loop: add r0, r0, #1
     cmp r0, r2
     bne loop
     bkpt #0";

/// Runs `build` to cycle `at` on the engine and the reference, applies
/// `fit` to both, then runs both to the end.
fn fit_between_runs(
    build: &dyn Fn() -> Machine,
    at: u64,
    fit: &dyn Fn(&mut Machine),
    what: &str,
) -> (RunResult, Machine) {
    let mut on = build();
    let mut off = reference(build);
    assert_eq!(on.run_until(at), off.run_until(at), "{what}: first leg diverged");
    assert!(on.predecode_stats().block_hits > 0, "{what}: blocks must be installed first");
    fit(&mut on);
    fit(&mut off);
    let got = on.run(1_000_000);
    let want = off.run(1_000_000);
    assert_eq!(got, want, "{what}: RunResult diverged");
    assert_state_eq(&on, &off, what);
    (want, on)
}

#[test]
fn fitting_icache_between_runs_matches_reference() {
    // Blocks installed without an I-cache must not keep replaying
    // uncached flash timing once one is fitted.
    let build = || machine_with(&MachineConfig::m3_like(), FIT_SRC);
    let (r, _) = fit_between_runs(
        &build,
        1500,
        &|m| m.icache = Some(Cache::new(CacheConfig::default())),
        "icache fitted",
    );
    assert_eq!(r.reason, StopReason::Bkpt(0));
}

#[test]
fn fitting_deny_all_mpu_between_runs_matches_reference() {
    // A deny-all MPU fitted under installed blocks must fault the very
    // next fetch, as it does on the per-step path.
    let build = || machine_with(&MachineConfig::m3_like(), FIT_SRC);
    let (r, _) = fit_between_runs(
        &build,
        1500,
        &|m| {
            let mut mpu = Mpu::new(MpuKind::FineGrain);
            mpu.background_allowed = false;
            m.mpu = Some(mpu);
        },
        "deny-all mpu fitted",
    );
    assert!(
        matches!(r.reason, StopReason::Fault(MemFault::MpuViolation { write: false, .. })),
        "the first fetch after fitting must fault: {:?}",
        r.reason
    );
}

// ---------------------------------------------------------------------
// Whole-segment dispatch and the cached core's line plans
// ---------------------------------------------------------------------

/// A long register-only loop for `mode`, each line the first candidate
/// the mode encodes (lines no candidate encodes are left out): shifts
/// by an immediate and by a register (r4), `mul`, a fused ALU + `cmp`,
/// and the T2 `ubfx` (label `w0`) and `bfi` (label `w1`), always wide,
/// at the two halfword alignments. The handler counter r6 feeds the
/// loop, so an interrupt taken one instruction off shows in the
/// result. The prologue stores 3 through r0: the periodic timer's CTRL
/// register, or a scratch word. r7 counts the passes.
fn segment_loop_src(mode: IsaMode) -> String {
    let lines: &[&[&str]] = &[
        &["w0: ubfx r2, r1, #3, #7"],
        &["mov r5, r1"],
        &["w1: bfi r0, r2, #8, #4"],
        &["lsl r1, r3, #3"],
        &["lsr r2, r1, r4", "lsr r2, r2, r4"],
        &["mul r3, r3, r1", "mul r3, r1, r3"],
        &["add r1, r1, r2"],
        &["cmp r1, r2"],
        &["eor r0, r0, r3"],
        &["ror r3, r3, r4"],
        &["asr r2, r0, #5"],
        &["orr r3, r3, r6"],
        &["movw r5, #4321", "mov r5, #201"],
        &["sub r5, r5, r2"],
        &["add r3, r3, r5"],
        &["lsl r0, r0, #1"],
        &["eor r0, r0, r1"],
        &["add r2, r2, #77"],
    ];
    let body: Vec<&str> = lines
        .iter()
        .filter_map(|cands| {
            cands.iter().copied().find(|l| encodes(mode, l.split(": ").last().unwrap_or(l)))
        })
        .collect();
    format!(
        "mov r2, #3
         str r2, [r0, #0]
         mov r0, #1
         loop: {}
         sub r7, r7, #1
         cmp r7, #0
         bne loop
         bkpt #0",
        body.join("\n")
    )
}

/// A machine running [`segment_loop_src`] for `passes` passes, with
/// the timer handler `add r6, r6, #1; bx lr` at 0x300 when `config`
/// attaches a timer (r0 then points at its CTRL register).
fn segment_machine(config: &MachineConfig, passes: u32) -> Machine {
    let src = segment_loop_src(config.mode);
    let mut m = machine_with(config, &src);
    let timer = config.devices.iter().any(|d| matches!(d, DeviceSpec::Timer(_)));
    if timer {
        let handler = Assembler::new(config.mode).assemble("add r6, r6, #1\n bx lr").unwrap();
        m.load_flash(0x300, &handler.bytes);
        m.load_flash(0, &0x300u32.to_le_bytes());
    }
    m.cpu.regs[0] = if timer { TIMER_BASE } else { BUF };
    m.cpu.regs[1] = 0x1234_5678;
    m.cpu.regs[3] = 0x9E37_79B9;
    m.cpu.regs[4] = 5;
    m.cpu.regs[7] = passes;
    m
}

#[test]
fn matrix_register_segments_identical_at_every_bound() {
    // Long register-only loops under a periodic timer, compared with
    // the per-step reference at every bound of `run_until` walks with
    // prime strides, so bounds and timer events fall inside segments:
    // those must replay per op and split on the exact instruction,
    // while the segments clear of every bound run whole. On T2 the
    // loop body crosses a 32-byte I-cache line.
    let t2 = Assembler::new(IsaMode::T2).assemble(&segment_loop_src(IsaMode::T2)).unwrap();
    let (w0, w1) = (t2.symbols["w0"], t2.symbols["w1"]);
    assert_eq!((w0 ^ w1) & 2, 2, "the wide ops must sit at both halfword alignments");
    let (start, end) = (0x100 + t2.symbols["loop"], 0x100 + t2.bytes.len() as u32);
    assert_ne!(start >> 5, (end - 1) >> 5, "the T2 loop must cross an I-cache line");
    for (name, mut config) in presets() {
        let timer = TimerConfig { base: TIMER_BASE, irq: 0, compare: 97 };
        config.devices = vec![DeviceSpec::Timer(timer)];
        let build = || segment_machine(&config, 150);
        let what = format!("register segments on {name}");
        let (r, whole) = run_both(&build, 2_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        assert!(whole.latencies().len() >= 10, "{what}: the timer must interrupt the loop");
        let whole_seg = whole.predecode_stats().segment_instrs;
        assert!(whole_seg > 0, "{what}: no segment ran whole");
        for stride in [37, 41] {
            let what = format!("{what}, stride {stride}");
            let walked = run_both_bounded(&build, stride, 0.8, &what).predecode_stats();
            assert!(
                walked.segment_instrs > 0 && walked.segment_instrs < whole_seg,
                "{what}: {} of {whole_seg} instructions in whole segments: bounds must \
                 make some segments replay per op and leave others whole",
                walked.segment_instrs
            );
        }
    }
}

#[test]
fn high_end_icache_parity_errors_under_installed_blocks_identical() {
    // Data-RAM and tag-RAM parity errors injected into the I-cache lines
    // of installed blocks between `run_until` bounds: the first fetch of
    // every dispatch and every fetch to a new line look the cache up
    // live, so the engine meets each error at the same fetch as the
    // per-step reference, recovers alike and leaves the same lines.
    let build = || segment_machine(&MachineConfig::high_end_like(), 200);
    let mut on = build();
    let mut off = reference(&build);
    let (mut bound, mut k) = (0u64, 0usize);
    loop {
        bound += 43;
        let got = on.run_until(bound);
        let want = off.run_until(bound);
        assert_eq!(got, want, "bound {bound}: RunResult diverged");
        assert_state_eq(&on, &off, &format!("parity errors, bound {bound}"));
        if want.reason != StopReason::CycleLimit {
            break;
        }
        let (n, tag_ram) = (k % 3, k % 2 == 1);
        k += 1;
        let poisoned = on.icache.as_mut().unwrap().inject_error_in_nth_valid_line(n, tag_ram);
        let want = off.icache.as_mut().unwrap().inject_error_in_nth_valid_line(n, tag_ram);
        assert_eq!(poisoned, want, "bound {bound}: the caches hold different lines");
    }
    let stats = on.icache.as_ref().unwrap().stats();
    assert!(stats.parity_errors > 20, "only {} parity errors met", stats.parity_errors);
    let blocks = on.predecode_stats();
    assert!(blocks.block_hits > 0 && blocks.segment_instrs > 0, "{blocks:?}");
}

/// Fits a fine-grain MPU region with `perms` over the 32-byte granule
/// at the middle of the high-end core's segment loop after 1500 cycles,
/// and runs to the end on the engine and the reference.
fn high_end_mpu_region_mid_run(perms: Perms, what: &str) -> (RunResult, Machine) {
    let src = segment_loop_src(IsaMode::T2);
    let out = Assembler::new(IsaMode::T2).assemble(&src).unwrap();
    let (start, end) = (0x100 + out.symbols["loop"], 0x100 + out.bytes.len() as u32);
    let base = ((start + end) / 2) & !31;
    assert!(start < base && base < end, "{what}: the region must cut the loop");
    let build = || segment_machine(&MachineConfig::high_end_like(), 200);
    fit_between_runs(
        &build,
        1500,
        &|m| {
            m.mpu.as_mut().unwrap().add_region(base, 32, perms).unwrap();
        },
        what,
    )
}

#[test]
fn high_end_mpu_denying_part_of_the_hot_loop_faults_alike() {
    let (r, on) = high_end_mpu_region_mid_run(Perms::RW, "no-execute region");
    assert!(
        matches!(r.reason, StopReason::Fault(MemFault::MpuViolation { write: false, .. })),
        "the first fetch in the region must fault: {:?}",
        r.reason
    );
    assert_eq!(on.mpu.as_ref().unwrap().violations(), 1);
}

#[test]
fn high_end_mpu_region_covering_part_of_the_loop_runs_alike() {
    // Execute is allowed everywhere, but the region covers only part of
    // each block's code range: the range check cannot prove the block
    // and hands it to the per-step path, with the same results.
    let (r, on) = high_end_mpu_region_mid_run(Perms::RX, "partial execute region");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert_eq!(on.mpu.as_ref().unwrap().violations(), 0);
}
