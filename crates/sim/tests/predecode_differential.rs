//! Differential tests: the block engine's code cache must be invisible.
//!
//! Every scenario here runs twice — engine enabled (`predecode`, the
//! presets' default) and disabled — and asserts bit-identical
//! architectural outcomes: `StopReason`, `cycles`, `instructions`,
//! registers, flags, flash streaming statistics and flash-patch hit
//! accounting. Scenarios cover all three machine presets, IRQs (both
//! schemes), IT blocks, literal pools, flash-patch programming mid-run,
//! self-modifying SRAM code and randomized ALU programs.
//!
//! `Machine::step` never records or dispatches a block, so every
//! scenario drives `Machine::run` / `Machine::run_until`. Host-side
//! mutations (patch programming, component-level RAM writes, host SMC,
//! engine toggles) land at `run_until` bounds, after the engine-on
//! machine has dispatched cached blocks. The second half (`blocks_*`)
//! aims at the block engine's sharp edges: branchy control flow,
//! mid-block self-modifying code, flash-patch toggles landing mid-block
//! via a `run_until` split, and an IRQ storm paced by a precise-cycle
//! timer device — cycles, registers, stop reasons and exact IRQ
//! pend/entry stamps all bit-identical.

use alia_isa::{encode, Assembler, Instr, IsaMode, Operand2, Reg};
use alia_sim::{Machine, MachineConfig, PatchKind, StopReason, RunResult, SRAM_BASE};

/// Builds the pair: identical machines except for the engine setting.
fn pair(build: impl Fn() -> Machine) -> (Machine, Machine) {
    let mut on = build();
    on.set_predecode_enabled(true);
    let mut off = build();
    off.set_predecode_enabled(false);
    (on, off)
}

/// Asserts both machines are architecturally identical right now.
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

/// Runs both machines to completion and asserts identical results. The
/// engine-on machine must have dispatched at least one block, or the
/// differential exercised nothing.
fn run_both(on: &mut Machine, off: &mut Machine, limit: u64, what: &str) -> RunResult {
    let a = on.run(limit);
    let b = off.run(limit);
    assert_eq!(a, b, "{what}: RunResult diverged");
    assert_state_eq(on, off, what);
    assert!(
        on.predecode_stats().block_hits > 0 || a.instructions < 2,
        "{what}: block engine never dispatched — the differential exercised nothing"
    );
    assert_eq!(
        off.predecode_stats().block_hits,
        0,
        "{what}: disabled engine dispatched blocks"
    );
    a
}

/// A host-side mutation applied to both machines at a cycle bound.
type Event<'a> = (u64, &'a dyn Fn(&mut Machine));

/// Runs both machines with `run_until` to each event's cycle bound,
/// compares them there, checks that the engine-on machine dispatched a
/// block since the previous boundary (so the mutation lands on cached
/// code), applies the event to both, and finally runs both to
/// completion ([`run_both`]).
fn run_with_events(
    on: &mut Machine,
    off: &mut Machine,
    limit: u64,
    events: &[Event<'_>],
    what: &str,
) -> RunResult {
    let mut dispatched = 0;
    for (i, &(at, event)) in events.iter().enumerate() {
        let a = on.run_until(at);
        let b = off.run_until(at);
        assert_eq!(a, b, "{what}: run to event {i} diverged");
        assert_eq!(
            a.reason,
            StopReason::CycleLimit,
            "{what}: program ended before event {i}"
        );
        assert_state_eq(on, off, &format!("{what} (event {i}, cycle {at})"));
        let hits = on.predecode_stats().block_hits;
        assert!(
            hits > dispatched,
            "{what}: no block dispatched before event {i}"
        );
        dispatched = hits;
        event(on);
        event(off);
    }
    run_both(on, off, limit, what)
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

#[test]
fn alu_loop_identical_across_presets() {
    let src = "mov r0, #0
         mov r1, #200
         loop: add r0, r0, #1
         sub r1, r1, #1
         cmp r1, #0
         bne loop
         bkpt #0";
    for (name, config) in presets() {
        let (mut on, mut off) = pair(|| machine_with(&config, src));
        let r = run_both(&mut on, &mut off, 1_000_000, name);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{name}");
    }
}

#[test]
fn memory_stack_and_literals_identical() {
    // Loads, stores, push/pop in a loop, then a literal-pool load
    // (stream break). The literal offset is resolved with a two-pass
    // assembly over the layout symbols.
    let template = |off: i32| {
        format!(
            "movw r0, #0
             movt r0, #0x2000
             mov r7, #3
             loop: mov r1, #7
             str r1, [r0, #4]
             ldr r2, [r0, #4]
             push {{r1, r2}}
             pop {{r3, r4}}
             sub r7, r7, #1
             cmp r7, #0
             bne loop
             litload: ldr r5, [pc, #{off}]
             nop
             bkpt #0
             .align 4
             lit: .word 0xDEADBEEF"
        )
    };
    for (name, config) in presets() {
        if config.mode != IsaMode::T2 {
            continue;
        }
        let probe = Assembler::new(config.mode).assemble(&template(0)).unwrap();
        let base = (probe.symbols["litload"] + 4) & !3;
        let off = probe.symbols["lit"] as i32 - base as i32;
        let src = template(off);
        let out = Assembler::new(config.mode).assemble(&src).unwrap();
        assert_eq!(out.symbols, probe.symbols, "layout must be offset-independent");
        let (mut on, mut off_m) = pair(|| machine_with(&config, &src));
        let r = run_both(&mut on, &mut off_m, 1_000_000, name);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{name}");
        let mut check = machine_with(&config, &src);
        check.run(1_000_000);
        assert_eq!(check.cpu.regs[5], 0xDEAD_BEEF, "{name}: literal load landed wrong");
    }
}

#[test]
fn it_blocks_and_predication_identical() {
    let src = "mov r0, #5
         mov r2, #0
         loop: cmp r0, #3
         ite ge
         add r2, r2, #2
         sub r2, r2, #1
         sub r0, r0, #1
         cmp r0, #0
         bne loop
         bkpt #0";
    for (name, config) in presets() {
        if config.mode != IsaMode::T2 {
            continue;
        }
        let (mut on, mut off) = pair(|| machine_with(&config, src));
        run_both(&mut on, &mut off, 1_000_000, name);
    }
}

#[test]
fn a32_conditional_execution_identical() {
    let src = "mov r0, #10
         mov r1, #0
         loop: cmp r0, #5
         addgt r1, r1, #2
         addle r1, r1, #1
         sub r0, r0, #1
         cmp r0, #0
         bne loop
         bkpt #0";
    let config = MachineConfig::arm7_like(IsaMode::A32);
    let (mut on, mut off) = pair(|| machine_with(&config, src));
    run_both(&mut on, &mut off, 1_000_000, "a32_cond");
}

#[test]
fn interrupts_identical_under_both_schemes() {
    for (name, config) in presets() {
        let build = || {
            let main = Assembler::new(config.mode)
                .assemble("main: add r4, r4, #1\n cmp r4, #200\n bne main\n bkpt #0")
                .unwrap();
            let handler = Assembler::new(config.mode)
                .assemble("add r5, r5, #1\n bx lr")
                .unwrap();
            let mut m = Machine::new(config.clone());
            m.load_flash(0x100, &main.bytes);
            m.load_flash(0x400, &handler.bytes);
            m.load_flash(0, &0x400u32.to_le_bytes());
            m.set_pc(0x100);
            m.cpu.set_sp(SRAM_BASE + 0x8000);
            m.schedule_irq(60, 0);
            m.schedule_irq(200, 0);
            m
        };
        let (mut on, mut off) = pair(build);
        let r = run_both(&mut on, &mut off, 1_000_000, name);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{name}");
    }
}

#[test]
fn flash_patch_remap_programmed_mid_run_identical() {
    // The loop re-reads a flash word that gets remapped mid-run and
    // unmapped again; the block watermark doesn't cover data, but the
    // patch *revision* must drop the cached blocks either way.
    //
    // Two-pass assembly: first with placeholder immediates to learn the
    // literal's offset (instruction sizes don't depend on immediates),
    // then with the real address baked into movw/movt.
    let template = |addr: u32| {
        format!(
            "movw r2, #{}
             movt r2, #{}
             mov r0, #0
             mov r6, #0
             loop: ldr r1, [r2, #0]
             add r6, r6, r1
             add r0, r0, #1
             cmp r0, #40
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
    assert_eq!(out.symbols["lit"], probe.symbols["lit"], "layout must be immediate-independent");
    let build = || {
        let mut m = Machine::new(config.clone());
        m.load_flash(0x100, &out.bytes);
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (mut on, mut off) = pair(build);
    let set_patch: &dyn Fn(&mut Machine) =
        &|m| m.patch.set(0, lit_addr, PatchKind::Remap(0x100)).unwrap();
    let clear_patch: &dyn Fn(&mut Machine) = &|m| m.patch.clear(0).unwrap();
    let events: &[Event<'_>] = &[(150, set_patch), (400, clear_patch)];
    let r = run_with_events(&mut on, &mut off, 1_000_000, events, "patch_remap_mid_run");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let sum = on.cpu.regs[6];
    assert!(
        sum > 40 && sum < 40 * 0x100,
        "remap must cover some loads, not all: {sum}"
    );
}

#[test]
fn flash_patch_breakpoint_on_cached_instruction() {
    // Execute a loop long enough to cache it, then drop a breakpoint
    // patch onto an instruction *inside a cached block*.
    let src = "mov r0, #0
         loop: add r0, r0, #1
         target: add r0, r0, #2
         cmp r0, #0
         bne loop
         bkpt #0";
    let config = MachineConfig::m3_like();
    let out = Assembler::new(config.mode).assemble(src).unwrap();
    let target = (0x100 + out.symbols["target"]) & !3;
    let build = || {
        let mut m = Machine::new(config.clone());
        m.load_flash(0x100, &out.bytes);
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (mut on, mut off) = pair(build);
    let set_bp: &dyn Fn(&mut Machine) =
        &|m| m.patch.set(3, target, PatchKind::Breakpoint).unwrap();
    let r = run_with_events(
        &mut on,
        &mut off,
        100_000,
        &[(100, set_bp)],
        "patch_bp_mid_run",
    );
    assert_eq!(r.reason, StopReason::PatchBreakpoint { addr: target });
}

#[test]
fn self_modifying_sram_code_program_driven() {
    // Code runs *from SRAM* and rewrites one of its own instructions
    // (`mov r4, #1` -> `mov r4, #99`) after it has been executed (and
    // recorded into a block), then loops back through it. Two-pass
    // assembly bakes the target address and replacement encoding into
    // movw immediates (layout is immediate-independent).
    let code_base = SRAM_BASE + 0x100;
    let mode = IsaMode::T2;
    // Replacement `mov r4, #99` (narrow, 2 bytes), stored with strh so
    // the neighbouring instruction is untouched.
    let repl = encode(
        &Instr::Mov { s: false, cond: alia_isa::Cond::Al, rd: Reg::R4, op2: Operand2::Imm(99) },
        mode,
    )
    .unwrap();
    assert_eq!(repl.as_bytes().len(), 2, "narrow mov expected");
    let repl_halfword =
        u32::from(u16::from_le_bytes([repl.as_bytes()[0], repl.as_bytes()[1]]));
    let template = |target: u32, halfword: u32| {
        format!(
            "b start
             target: mov r4, #1
             b after
             start: mov r5, #0
             pass: add r5, r5, #1
             b target
             after: cmp r5, #2
             bge done
             movw r0, #{}
             movt r0, #{}
             movw r1, #{}
             strh r1, [r0, #0]
             b pass
             done: bkpt #0",
            target & 0xFFFF,
            target >> 16,
            halfword
        )
    };
    let probe = Assembler::new(mode).assemble(&template(0, 0)).unwrap();
    let target_addr = code_base + probe.symbols["target"];
    let out = Assembler::new(mode).assemble(&template(target_addr, repl_halfword)).unwrap();
    assert_eq!(out.symbols, probe.symbols, "layout must be immediate-independent");
    let build = || {
        let mut m = Machine::new(MachineConfig::m3_like());
        m.load_sram(code_base, &out.bytes);
        m.set_pc(code_base + out.symbols["start"]);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (mut on, mut off) = pair(build);
    let a = on.run(1_000_000);
    let b = off.run(1_000_000);
    assert_eq!(a, b, "SMC run diverged");
    assert_eq!(on.cpu.regs, off.cpu.regs, "SMC registers diverged");
    assert_eq!(a.reason, StopReason::Bkpt(0));
    // The second pass must have executed the *rewritten* instruction.
    assert_eq!(
        on.cpu.regs[4], 99,
        "a stale block served the old instruction"
    );
}

#[test]
fn direct_component_level_sram_write_invalidates() {
    // Mutating code through the *component-level* `Sram::write` API (the
    // pub `machine.sram` field, bypassing `Machine::write_sram_word`)
    // must also invalidate cached decode: `Sram::write` counts as a
    // host-side content mutation.
    let code_base = SRAM_BASE + 0x300;
    let src = "mov r0, #0
         loop: add r0, r0, #1
         target: add r6, r6, #1
         cmp r0, #30
         bne loop
         bkpt #0";
    let mode = IsaMode::T2;
    let out = Assembler::new(mode).assemble(src).unwrap();
    let target_addr = code_base + out.symbols["target"];
    let repl = Assembler::new(mode).assemble("add r6, r6, #5\n cmp r0, #30").unwrap();
    let word = u32::from_le_bytes(repl.bytes[..4].try_into().unwrap());
    let build = || {
        let mut m = Machine::new(MachineConfig::m3_like());
        m.load_sram(code_base, &out.bytes);
        m.set_pc(code_base);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (mut on, mut off) = pair(build);
    let rewrite: &dyn Fn(&mut Machine) =
        &|m| m.sram.write(target_addr - SRAM_BASE, 4, word);
    let r = run_with_events(
        &mut on,
        &mut off,
        100_000,
        &[(60, rewrite)],
        "component_sram_write",
    );
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert!(on.cpu.regs[6] > 30, "the rewritten instruction never ran");
}

#[test]
fn direct_component_level_tcm_write_invalidates() {
    // Same hole, TCM flavour: mutating code through the component-level
    // `Tcm::write` API must invalidate cached decode via `Tcm::revision`.
    use alia_sim::TCM_BASE;
    let code_base = TCM_BASE + 0x100;
    let src = "mov r0, #0
         loop: add r0, r0, #1
         target: add r6, r6, #1
         cmp r0, #30
         bne loop
         bkpt #0";
    let mode = IsaMode::T2;
    let out = Assembler::new(mode).assemble(src).unwrap();
    let target_off = (code_base - TCM_BASE) + out.symbols["target"];
    let repl = Assembler::new(mode).assemble("add r6, r6, #5\n cmp r0, #30").unwrap();
    let word = u32::from_le_bytes(repl.bytes[..4].try_into().unwrap());
    let build = || {
        let mut m = Machine::new(MachineConfig::high_end_like());
        m.tcm.as_mut().unwrap().load(code_base - TCM_BASE, &out.bytes);
        m.set_pc(code_base);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (mut on, mut off) = pair(build);
    let rewrite: &dyn Fn(&mut Machine) =
        &|m| {
            m.tcm.as_mut().unwrap().write(target_off, 4, word);
        };
    let r = run_with_events(
        &mut on,
        &mut off,
        100_000,
        &[(60, rewrite)],
        "component_tcm_write",
    );
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert!(on.cpu.regs[6] > 30, "the rewritten instruction never ran");
}

#[test]
fn self_modifying_sram_code_host_driven() {
    // Host rewrites an upcoming instruction mid-run via write_sram_word.
    let code_base = SRAM_BASE + 0x200;
    let src = "mov r0, #0
         loop: add r0, r0, #1
         target: add r7, r7, #1
         cmp r0, #60
         bne loop
         bkpt #0";
    let mode = IsaMode::T2;
    let out = Assembler::new(mode).assemble(src).unwrap();
    let target_addr = code_base + out.symbols["target"];
    assert_eq!(target_addr % 4, 0, "test wants an aligned word to rewrite");
    let build = || {
        let mut m = Machine::new(MachineConfig::m3_like());
        m.load_sram(code_base, &out.bytes);
        m.set_pc(code_base);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    // Replacement word: `add r7, r7, #3` + original `cmp r0, #60`.
    let repl = Assembler::new(mode).assemble("add r7, r7, #3\n cmp r0, #60").unwrap();
    let word = u32::from_le_bytes(repl.bytes[..4].try_into().unwrap());
    let (mut on, mut off) = pair(build);
    let rewrite: &dyn Fn(&mut Machine) = &|m| m.write_sram_word(target_addr, word);
    let r = run_with_events(&mut on, &mut off, 100_000, &[(100, rewrite)], "host_smc");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert!(on.cpu.regs[7] > 60, "the rewritten instruction never ran");
}

#[test]
fn toggling_predecode_mid_run_matches_disabled() {
    // The engine flips on and off at every `run_until` bound (a prime
    // stride, so the toggles wander through the loop body); each
    // engine-on stretch must dispatch cached blocks before the toggle
    // that drops them, and the whole run must match a reference with
    // the engine off for good.
    let src = "mov r0, #0
         mov r1, #300
         loop: add r0, r0, #3
         sub r1, r1, #1
         cmp r1, #0
         bne loop
         bkpt #0";
    let config = MachineConfig::m3_like();
    let mut toggler = machine_with(&config, src);
    let mut reference = machine_with(&config, src);
    reference.set_predecode_enabled(false);
    let mut dispatched = 0;
    let mut toggles = 0;
    let mut bound = 0;
    let stop = loop {
        bound += 97;
        let a = toggler.run_until(bound);
        let b = reference.run_until(bound);
        assert_eq!(a, b, "diverged at bound {bound}");
        assert_state_eq(&toggler, &reference, &format!("bound {bound}"));
        if a.reason != StopReason::CycleLimit {
            break a.reason;
        }
        let enabled = toggler.predecode_enabled();
        if enabled {
            let hits = toggler.predecode_stats().block_hits;
            assert!(
                hits > dispatched,
                "no block dispatched before the toggle at {bound}"
            );
            dispatched = hits;
        }
        toggler.set_predecode_enabled(!enabled);
        toggles += 1;
    };
    assert_eq!(stop, StopReason::Bkpt(0));
    assert!(
        toggles >= 4,
        "the run must span several on/off stretches, got {toggles}"
    );
    assert_eq!(reference.predecode_stats().block_hits, 0);
}

#[test]
fn randomized_alu_programs_identical() {
    // Deterministic xorshift; straight-line random ALU over r0-r6.
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let ops = ["add", "sub", "and", "orr", "eor"];
    for trial in 0..12 {
        // Random straight-line body, looped thrice so the second and
        // third passes run from cached blocks.
        let mut src = String::from(
            "mov r0, #1\nmov r1, #2\nmov r2, #3\nmov r3, #4\nmov r7, #3\nloop:\n",
        );
        for _ in 0..100 {
            let op = ops[(next() % ops.len() as u64) as usize];
            let rd = next() % 7;
            let rn = next() % 7;
            if next() % 2 == 0 {
                // T16's narrow immediate ALU forms only cover add/sub.
                let imm = next() % 256;
                let imm_op = if next() % 2 == 0 { "add" } else { "sub" };
                src.push_str(&format!("{imm_op} r{rd}, r{rd}, #{imm}\n"));
                let _ = (op, rn);
            } else {
                src.push_str(&format!("{op} r{rd}, r{rd}, r{rn}\n"));
            }
        }
        src.push_str("sub r7, r7, #1\ncmp r7, #0\nbne loop\nbkpt #0");
        for (name, config) in presets() {
            let (mut on, mut off) = pair(|| machine_with(&config, &src));
            let what = format!("random[{trial}] on {name}");
            let r = run_both(&mut on, &mut off, 1_000_000, &what);
            assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        }
    }
}

// ---------------------------------------------------------------------
// Block engine vs per-step execution
// ---------------------------------------------------------------------

#[test]
fn blocks_branchy_programs_identical_across_presets() {
    // Nested loops, calls and returns, conditional forward branches:
    // plenty of block exits, chain hops and partial blocks.
    let src = "mov r0, #0
         mov r5, #8
         outer: mov r6, #6
         inner: bl helper
         cmp r0, #40
         bgt skip
         add r0, r0, #2
         skip: sub r6, r6, #1
         cmp r6, #0
         bne inner
         sub r5, r5, #1
         cmp r5, #0
         bne outer
         bkpt #0
         helper: add r0, r0, #1
         bx lr";
    for (name, config) in presets() {
        if config.mode == alia_isa::IsaMode::T16 {
            continue; // bl/bx helper shape assembles for A32/T2 here
        }
        let (mut on, mut off) = pair(|| machine_with(&config, src));
        let r = run_both(&mut on, &mut off, 1_000_000, name);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{name}");
    }
}

#[test]
fn blocks_mid_block_smc_identical() {
    // Mid-block self-modifying code: every pass, SRAM code stores a new
    // encoding over an instruction that sits *later in the same basic
    // block* as the store (the stored halfword alternates between
    // `add r6, r6, #1` and `add r6, r6, #5` via an xor mask). Pass 0
    // records the block — the store lands on not-yet-decoded code, so
    // the recording survives and caches the *new* encoding, which is
    // exactly what pass 0 then executes. Pass 1 *dispatches* that
    // block: now the store hits the watermark, the generation stamp
    // moves mid-block, and the engine must split before the (stale)
    // cached target entry issues. The alternating checksum in r6 would
    // expose a single stale execution.
    let code_base = SRAM_BASE + 0x400;
    let mode = alia_isa::IsaMode::T2;
    let enc = |src: &str| {
        let out = Assembler::new(mode).assemble(&format!("{src}\n nop")).unwrap();
        u32::from(u16::from_le_bytes([out.bytes[0], out.bytes[1]]))
    };
    let h0 = enc("add r6, r6, #1"); // the assembled original
    let h1 = enc("add r6, r6, #5");
    let passes = 16u32;
    let template = |target: u32| {
        format!(
            "movw r1, #{}
             movt r1, #{}
             movw r2, #{h1}
             movw r4, #{}
             mov r0, #0
             b mloop
             mloop: strh r2, [r1, #0]
             eor r2, r2, r4
             target: add r6, r6, #1
             add r0, r0, #1
             cmp r0, #{passes}
             bne mloop
             bkpt #0",
            target & 0xFFFF,
            target >> 16,
            h0 ^ h1
        )
    };
    let probe = Assembler::new(mode).assemble(&template(0)).unwrap();
    let target = code_base + probe.symbols["target"];
    let out = Assembler::new(mode).assemble(&template(target)).unwrap();
    assert_eq!(out.symbols, probe.symbols, "layout must be immediate-independent");
    let build = || {
        let mut m = Machine::new(MachineConfig::m3_like());
        m.load_sram(code_base, &out.bytes);
        m.set_pc(code_base);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (mut on, mut off) = pair(build);
    let r = run_both(&mut on, &mut off, 1_000_000, "mid_block_smc");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    // Alternating +5 / +1, starting with the freshly stored +5.
    let expect = (passes / 2) * 5 + (passes / 2);
    let mut check = build();
    let rc = check.run(1_000_000);
    assert_eq!(rc.reason, StopReason::Bkpt(0));
    assert_eq!(check.cpu.regs[6], expect, "stale block served an old encoding");
}

#[test]
fn blocks_store_into_open_recording_identical() {
    // The loop's first pass is recorded as a block, and its store
    // rewrites an instruction the recorder has already captured
    // (`mov r4, #1` -> `mov r4, #99`) but not yet installed. The store
    // must discard the recording: installing it would serve the stale
    // `mov r4, #1` on the next pass. The prologue ends in `b loop`, so
    // `loop` starts a recording of its own.
    let code_base = SRAM_BASE + 0x100;
    let mode = IsaMode::T2;
    let repl = encode(
        &Instr::Mov {
            s: false,
            cond: alia_isa::Cond::Al,
            rd: Reg::R4,
            op2: Operand2::Imm(99),
        },
        mode,
    )
    .unwrap();
    assert_eq!(repl.as_bytes().len(), 2, "narrow mov expected");
    let halfword = u16::from_le_bytes([repl.as_bytes()[0], repl.as_bytes()[1]]);
    let template = |target: u32| {
        format!(
            "movw r0, #{}
             movt r0, #{}
             movw r1, #{halfword}
             mov r5, #0
             mov r6, #0
             b loop
             loop: add r5, r5, #1
             target: mov r4, #1
             store: strh r1, [r0]
             add r6, r6, r4
             cmp r5, #3
             bne loop
             bkpt #0",
            target & 0xFFFF,
            target >> 16
        )
    };
    let probe = Assembler::new(mode).assemble(&template(0)).unwrap();
    let target = code_base + probe.symbols["target"];
    let out = Assembler::new(mode).assemble(&template(target)).unwrap();
    assert_eq!(
        out.symbols, probe.symbols,
        "layout must be immediate-independent"
    );
    assert_eq!(
        out.symbols["store"] - out.symbols["target"],
        2,
        "narrow target expected"
    );
    let build = || {
        let mut m = Machine::new(MachineConfig::m3_like());
        m.load_sram(code_base, &out.bytes);
        m.set_pc(code_base);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (mut on, mut off) = pair(build);
    let a = on.run(1_000_000);
    let b = off.run(1_000_000);
    assert_eq!(a, b, "RunResult diverged");
    assert_state_eq(&on, &off, "store_into_open_recording");
    assert_eq!(a.reason, StopReason::Bkpt(0));
    assert_eq!(
        on.cpu.regs[6],
        1 + 99 + 99,
        "a stale recording served the old mov"
    );
}

#[test]
fn blocks_flash_patch_toggle_mid_block_identical() {
    // Host toggles a flash-patch remap while execution is split
    // mid-block by a `run_until` bound: resuming must refetch under the
    // new generation, with cycles identical to the per-step reference.
    // The odd bounds deliberately land inside the loop body's block.
    let template = |addr: u32| {
        format!(
            "movw r2, #{}
             movt r2, #{}
             mov r0, #0
             mov r6, #0
             loop: ldr r1, [r2, #0]
             add r6, r6, r1
             add r0, r0, #1
             cmp r0, #60
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
    let (mut on, mut off) = pair(build);
    for (i, bound) in [137u64, 421, 703, 997].iter().enumerate() {
        let a = on.run_until(*bound);
        let b = off.run_until(*bound);
        assert_eq!(a, b, "bounded run {i} diverged");
        assert_state_eq(&on, &off, &format!("bound {bound}"));
        if i % 2 == 0 {
            on.patch.set(0, lit_addr, PatchKind::Remap(0x40)).unwrap();
            off.patch.set(0, lit_addr, PatchKind::Remap(0x40)).unwrap();
        } else {
            on.patch.clear(0).unwrap();
            off.patch.clear(0).unwrap();
        }
    }
    let a = on.run(1_000_000);
    let b = off.run(1_000_000);
    assert_eq!(a, b, "final run diverged");
    assert_state_eq(&on, &off, "final");
    assert_eq!(a.reason, StopReason::Bkpt(0));
    assert!(on.cpu.regs[6] > 60, "some loads must have seen the remapped value");
}

#[test]
fn blocks_irq_storm_with_precise_timer_identical() {
    // A periodic compare-match timer hammers the hot loop with
    // interrupts stamped at exact cycles; the handler pops frames of
    // work. Block dispatch must split at every due compare match and
    // reproduce identical pend/entry stamps for all of them.
    use alia_sim::{DeviceSpec, TimerConfig, TIMER_BASE};
    let build = || {
        let mut config = MachineConfig::m3_like();
        config.devices = vec![DeviceSpec::Timer(TimerConfig {
            base: TIMER_BASE,
            irq: 0,
            compare: 97, // prime, so boundaries wander through the block
        })];
        let main = Assembler::new(config.mode)
            .assemble(
                "movw r0, #0x1000
                 movt r0, #0x4000
                 movw r1, #97
                 str r1, [r0, #4]
                 mov r1, #3
                 str r1, [r0, #0]
                 loop: add r2, r2, #1
                 add r3, r3, r2
                 eor r4, r4, r3
                 cmp r5, #50
                 blt loop
                 bkpt #0",
            )
            .unwrap();
        let handler = Assembler::new(config.mode)
            .assemble("add r5, r5, #1\n bx lr")
            .unwrap();
        let mut m = Machine::new(config);
        m.load_flash(0x100, &main.bytes);
        m.load_flash(0x300, &handler.bytes);
        m.load_flash(0, &0x300u32.to_le_bytes());
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (mut on, mut off) = pair(build);
    let r = run_both(&mut on, &mut off, 10_000_000, "irq_storm");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    // The storm really interacted with block dispatch: budget splits
    // fired on the engine-on machine.
    assert!(
        on.predecode_stats().budget_splits > 10,
        "timer events must split blocks at their exact cycles"
    );
}

#[test]
fn blocks_randomized_programs_identical() {
    // A second randomized straight-line ALU corpus, aimed at the block
    // engine (fewer passes, longer bodies).
    let mut state = 0xFEED_FACE_CAFE_BEEFu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let ops = ["add", "sub", "and", "orr", "eor"];
    for trial in 0..6 {
        let mut src = String::from(
            "mov r0, #1\nmov r1, #2\nmov r2, #3\nmov r3, #4\nmov r7, #4\nloop:\n",
        );
        for _ in 0..90 {
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
        for (name, config) in presets() {
            let (mut on, mut off) = pair(|| machine_with(&config, &src));
            let what = format!("blocks random[{trial}] on {name}");
            let r = run_both(&mut on, &mut off, 1_000_000, &what);
            assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        }
    }
}

#[test]
fn predecode_stats_report_hits() {
    let src = "mov r0, #0
         mov r1, #50
         loop: add r0, r0, #1
         sub r1, r1, #1
         cmp r1, #0
         bne loop
         bkpt #0";
    let config = MachineConfig::m3_like();

    // Stepping never records or dispatches a block.
    let mut m = machine_with(&config, src);
    let stop = loop {
        if let Some(stop) = m.step() {
            break stop;
        }
    };
    assert_eq!(stop, StopReason::Bkpt(0));
    let r = RunResult { reason: stop, cycles: m.cycles(), instructions: m.instructions() };
    let stats = m.predecode_stats();
    assert_eq!(stats.block_hits, 0, "stepping must not dispatch blocks");
    assert_eq!(
        stats.threaded_instrs, 0,
        "stepping must not retire threaded"
    );

    // `run`: the loop body is recorded once, then dispatched
    // block-to-block, retiring almost every instruction threaded.
    let mut m = machine_with(&config, src);
    let r2 = m.run(1_000_000);
    assert_eq!(r2, r, "block engine changed the run result");
    let stats = m.predecode_stats();
    assert!(stats.blocks_promoted >= 1, "loop body never installed");
    assert!(
        stats.chain_follows > 0,
        "the loop's back edge must chain block to block"
    );
    assert!(
        stats.threaded_instrs * 10 > r2.instructions * 9,
        "only {} of {} instructions retired threaded",
        stats.threaded_instrs,
        r2.instructions
    );
}
