//! Branch-relaxation stress: conditional branches beyond the narrow range
//! must relax (wide form in `T2`, inverted-skip pair in `T16`) and still
//! compute correctly.

use alia_codegen::{compile, CodegenOptions};
use alia_isa::IsaMode;
use alia_sim::{Machine, StopReason, SRAM_BASE};
use alia_tir::{BinOp, CmpKind, FlatMemory, FunctionBuilder, Interpreter, Module};

/// Builds a function whose `if` body is hundreds of instructions long, so
/// the conditional branch across it cannot use the ±252-byte narrow form.
fn long_if_module(filler: usize) -> Module {
    let mut b = FunctionBuilder::new("longif", 2);
    let x = b.param(0);
    let y = b.param(1);
    let acc = b.imm(1);
    let then_bb = b.new_block();
    let else_bb = b.new_block();
    let exit = b.new_block();
    b.cond_br(CmpKind::Ult, x, y, then_bb, else_bb);
    b.switch_to(then_bb);
    for i in 0..filler {
        b.bin_into(acc, BinOp::Add, acc, (i as u32).wrapping_mul(3) | 1);
        b.bin_into(acc, BinOp::Rotr, acc, 3u32);
    }
    b.br(exit);
    b.switch_to(else_bb);
    b.bin_into(acc, BinOp::Xor, acc, 0xFFFF_0000u32);
    b.br(exit);
    b.switch_to(exit);
    b.ret(Some(acc.into()));
    let mut m = Module::new();
    m.add_function(b.build());
    m
}

fn check(filler: usize, args: [u32; 2]) {
    check_module(&long_if_module(filler), "longif", args, &format!("filler {filler}"));
}

/// Compiles `name` in `module` for every mode, runs it on `args` and
/// compares the result with the interpreter's.
fn check_module(module: &Module, name: &str, args: [u32; 2], what: &str) {
    let (fid, _) = module.func_by_name(name).unwrap();
    let want = Interpreter::new(module, FlatMemory::new(0, 16)).run(fid, &args).expect("interp");
    for mode in IsaMode::ALL {
        let prog = compile(module, mode, &CodegenOptions::default())
            .unwrap_or_else(|e| panic!("compile {what} for {mode}: {e}"));
        let mut m = match mode {
            IsaMode::T2 => Machine::m3_like(),
            _ => Machine::arm7_like(mode),
        };
        m.load_flash(prog.base_addr, &prog.bytes);
        let bk = alia_isa::encode(&alia_isa::Instr::Bkpt { imm: 0 }, mode).unwrap();
        m.load_flash(0x10, bk.as_bytes());
        m.cpu.set_lr(0x10);
        m.cpu.regs[0] = args[0];
        m.cpu.regs[1] = args[1];
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m.set_pc(prog.entry_address(name));
        let r = m.run(50_000_000);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{mode} {what}");
        assert_eq!(m.cpu.regs[0], want, "{mode} {what}");
    }
}

#[test]
fn conditional_branches_relax_over_every_span() {
    // Spans chosen to straddle the narrow conditional range (~252 B), the
    // CBZ range (126 B) and the narrow unconditional range (~2 KB).
    for filler in [8usize, 30, 70, 200, 600] {
        check(filler, [1, 2]); // then-path
        check(filler, [5, 2]); // else-path
    }
}

/// Two count-down loops whose back edges test a register against zero.
/// On T2 each lowers to a `cbnz`, which cannot branch backwards, so
/// layout replaces both with `cmp` + `bne`: the second replacement lays
/// out the items the first one added.
#[test]
fn two_backward_zero_tests_fall_back_to_compare_and_branch() {
    let mut b = FunctionBuilder::new("loops", 2);
    let x = b.param(0);
    let y = b.param(1);
    let acc = b.imm(0);
    let first = b.new_block();
    let between = b.new_block();
    let second = b.new_block();
    let exit = b.new_block();
    b.br(first);
    b.switch_to(first);
    b.bin_into(acc, BinOp::Add, acc, x);
    b.bin_into(x, BinOp::Sub, x, 1u32);
    b.cond_br(CmpKind::Ne, x, 0u32, first, between);
    b.switch_to(between);
    b.bin_into(acc, BinOp::Rotr, acc, 3u32);
    b.br(second);
    b.switch_to(second);
    b.bin_into(acc, BinOp::Xor, acc, y);
    b.bin_into(y, BinOp::Sub, y, 1u32);
    b.cond_br(CmpKind::Ne, y, 0u32, second, exit);
    b.switch_to(exit);
    b.ret(Some(acc.into()));
    let mut module = Module::new();
    module.add_function(b.build());
    check_module(&module, "loops", [5, 7], "two count-down loops");
}

#[test]
fn t16_long_conditional_uses_inverted_pair() {
    // At filler 200 the T16 then-body is ~1 KB: the conditional branch
    // must have been relaxed, and the program must still fit and run.
    let module = long_if_module(200);
    let prog = compile(&module, IsaMode::T16, &CodegenOptions::default()).unwrap();
    // The body is ~200*2 narrow instructions plus prologue; just assert a
    // sane size envelope and successful execution (checked above).
    assert!(prog.code_size() > 600);
}

#[test]
fn deep_literal_pools_stay_in_range() {
    // Many distinct pool constants after a long body: the PC-relative
    // loads must still reach their pool entries.
    let mut b = FunctionBuilder::new("pools", 1);
    let x = b.param(0);
    let mut acc = b.copy(x);
    for i in 0..120u32 {
        acc = b.bin(BinOp::Xor, acc, 0x0101_0203u32.wrapping_mul(i + 1));
    }
    b.ret(Some(acc.into()));
    let mut module = Module::new();
    module.add_function(b.build());
    let (fid, _) = module.func_by_name("pools").unwrap();
    let want =
        Interpreter::new(&module, FlatMemory::new(0, 16)).run(fid, &[7]).expect("interp");
    for mode in [IsaMode::A32, IsaMode::T16] {
        let prog = compile(&module, mode, &CodegenOptions::default()).unwrap();
        let mut m = Machine::arm7_like(mode);
        m.load_flash(prog.base_addr, &prog.bytes);
        let bk = alia_isa::encode(&alia_isa::Instr::Bkpt { imm: 0 }, mode).unwrap();
        m.load_flash(0x10, bk.as_bytes());
        m.cpu.set_lr(0x10);
        m.cpu.regs[0] = 7;
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m.set_pc(prog.entry_address("pools"));
        let r = m.run(10_000_000);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{mode}");
        assert_eq!(m.cpu.regs[0], want, "{mode}");
    }
}
