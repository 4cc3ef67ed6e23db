//! TIR-to-machine lowering.
//!
//! Produces a list of [`Item`]s — instructions with symbolic branch targets
//! and literal references — that the layout pass turns into bytes. All
//! per-encoding idioms live here:
//!
//! * `T2` uses IT blocks for selects, `CBZ` for zero tests, `TBB` for
//!   switches, `MOVW`/`MOVT` (or a literal pool, selectable for the §2.2
//!   experiment) for constants, and native bit-field instructions;
//! * `A32` uses conditional execution, `LDR pc`-style jump tables, rotated
//!   immediates and literal pools;
//! * `T16` uses branch ladders, compare chains, two-address rewrites and
//!   literal pools — the code-density/performance trade the paper's
//!   Table 1 quantifies.

use alia_isa::{
    AddrMode, CmpOp, Cond, DpOp, Instr, IsaMode, MemSize, Operand2, Reg, RegList,
    ShiftOp,
};
use alia_tir::{
    AccessSize, BinOp, CmpKind, FuncId, Function, Inst, Operand, Terminator, UnOp, VReg,
};

use crate::alloc::{allocate, Allocation, Loc, RegPlan};
use crate::{CodegenError, CodegenOptions, ConstStrategy};

/// A lowering output element with symbolic references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A label definition.
    Label(u32),
    /// A fully-resolved instruction.
    Fixed(Instr),
    /// A branch to a label (relaxed by layout).
    Branch {
        /// Branch condition.
        cond: Cond,
        /// Target label.
        label: u32,
    },
    /// A compare-and-branch-zero to a label (`T2`; layout may fall back to
    /// `cmp` + branch).
    CbzBr {
        /// Branch when non-zero instead of zero.
        nonzero: bool,
        /// Register tested.
        rn: Reg,
        /// Target label.
        label: u32,
    },
    /// A call to another function (patched at link).
    Call {
        /// Callee.
        func: FuncId,
    },
    /// Load a 32-bit constant from the function's literal pool.
    LitLoad {
        /// Destination register.
        rt: Reg,
        /// Pool value.
        value: u32,
    },
    /// A `TBB` displacement table (one byte per target, padded to 2).
    ByteTable {
        /// Target labels, in case order.
        labels: Vec<u32>,
    },
    /// An absolute-address jump table (`A32`).
    WordTable {
        /// Target labels, in case order.
        labels: Vec<u32>,
    },
}

/// The lowered form of one function.
#[derive(Debug, Clone)]
pub struct LoweredFunction {
    /// Source-level name.
    pub name: String,
    /// Items in emission order.
    pub items: Vec<Item>,
    /// Number of labels allocated (ids `0..label_count`).
    pub label_count: u32,
}

struct Lowerer<'a> {
    f: &'a Function,
    alloc: Allocation,
    plan: RegPlan,
    mode: IsaMode,
    opts: &'a CodegenOptions,
    items: Vec<Item>,
    next_label: u32,
    /// label id for each TIR block
    block_labels: Vec<u32>,
    epilogue: u32,
    frame_words: u32,
}

/// Lowers one function (allocating registers internally).
///
/// # Errors
///
/// Returns [`CodegenError`] for constructs that cannot be lowered.
pub fn lower_function(
    f: &Function,
    mode: IsaMode,
    opts: &CodegenOptions,
) -> Result<LoweredFunction, CodegenError> {
    let plan = RegPlan::for_mode(mode);
    let alloc = allocate(f, &plan);
    let n_blocks = f.blocks.len() as u32;
    let mut lw = Lowerer {
        f,
        plan,
        mode,
        opts,
        items: Vec::new(),
        next_label: n_blocks + 1,
        block_labels: (0..n_blocks).collect(),
        epilogue: n_blocks,
        frame_words: 0,
        alloc,
    };
    lw.run()?;
    Ok(LoweredFunction {
        name: f.name.clone(),
        items: lw.items,
        label_count: lw.next_label,
    })
}

const AL: Cond = Cond::Al;

fn cond_of(kind: CmpKind) -> Cond {
    match kind {
        CmpKind::Eq => Cond::Eq,
        CmpKind::Ne => Cond::Ne,
        CmpKind::Slt => Cond::Lt,
        CmpKind::Sle => Cond::Le,
        CmpKind::Sgt => Cond::Gt,
        CmpKind::Sge => Cond::Ge,
        CmpKind::Ult => Cond::Cc,
        CmpKind::Ule => Cond::Ls,
        CmpKind::Ugt => Cond::Hi,
        CmpKind::Uge => Cond::Cs,
    }
}

impl Lowerer<'_> {
    fn s0(&self) -> Reg {
        self.plan.scratch0
    }

    fn s1(&self) -> Reg {
        self.plan.scratch1
    }

    fn emit(&mut self, i: Instr) {
        self.items.push(Item::Fixed(i));
    }

    fn new_label(&mut self) -> u32 {
        let l = self.next_label;
        self.next_label += 1;
        l
    }

    fn err(&self, msg: impl Into<String>) -> CodegenError {
        CodegenError { func: self.f.name.clone(), mode: self.mode, msg: msg.into() }
    }

    // ---------------- constants and operand helpers ----------------

    fn mov_imm_encodable(&self, v: u32) -> bool {
        match self.mode {
            IsaMode::T16 => v < 256,
            IsaMode::A32 => alia_isa::a32_imm_encodable(v),
            IsaMode::T2 => alia_isa::t2_imm_encodable(v),
        }
    }

    fn mvn_imm_encodable(&self, v: u32) -> bool {
        match self.mode {
            IsaMode::T16 => false,
            IsaMode::A32 => alia_isa::a32_imm_encodable(!v),
            IsaMode::T2 => alia_isa::t2_imm_encodable(!v),
        }
    }

    /// Materializes `v` into `dst` using the mode's constant strategy.
    fn materialize(&mut self, dst: Reg, v: u32) {
        if self.mov_imm_encodable(v) {
            self.emit(Instr::Mov { s: false, cond: AL, rd: dst, op2: Operand2::Imm(v) });
            return;
        }
        if self.mvn_imm_encodable(v) {
            self.emit(Instr::Mvn { s: false, cond: AL, rd: dst, op2: Operand2::Imm(!v) });
            return;
        }
        let strategy = match self.mode {
            IsaMode::T2 => self.opts.const_strategy,
            _ => ConstStrategy::LiteralPool,
        };
        match strategy {
            ConstStrategy::MovwMovt => {
                self.emit(Instr::MovW { cond: AL, rd: dst, imm16: v as u16 });
                if v >> 16 != 0 {
                    self.emit(Instr::MovT { cond: AL, rd: dst, imm16: (v >> 16) as u16 });
                }
            }
            ConstStrategy::LiteralPool if self.opts.synthesize_consts => {
                self.synthesize_const(dst, v);
            }
            ConstStrategy::LiteralPool => {
                self.items.push(Item::LitLoad { rt: dst, value: v });
            }
        }
    }

    /// Builds `v` from byte pieces — the fallback when a function body is
    /// so large its literal pool would fall out of PC-relative range.
    fn synthesize_const(&mut self, dst: Reg, v: u32) {
        if self.mode == IsaMode::T16 {
            // mov #b3; (lsl #8; add #b) x3 — all narrow forms.
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: dst,
                op2: Operand2::Imm(v >> 24),
            });
            for shift in [16u32, 8, 0] {
                self.emit(Instr::Mov {
                    s: false,
                    cond: AL,
                    rd: dst,
                    op2: Operand2::RegShiftImm(dst, ShiftOp::Lsl, 8),
                });
                let byte = v >> shift & 0xFF;
                if byte != 0 {
                    self.emit(Instr::Dp {
                        op: DpOp::Add,
                        s: false,
                        cond: AL,
                        rd: dst,
                        rn: dst,
                        op2: Operand2::Imm(byte),
                    });
                }
            }
        } else {
            // A32: mov #byte0, then orr rotated bytes (each encodable).
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: dst,
                op2: Operand2::Imm(v & 0xFF),
            });
            for shift in [8u32, 16, 24] {
                let piece = v & (0xFF << shift);
                if piece != 0 {
                    self.emit(Instr::Dp {
                        op: DpOp::Orr,
                        s: false,
                        cond: AL,
                        rd: dst,
                        rn: dst,
                        op2: Operand2::Imm(piece),
                    });
                }
            }
        }
    }

    /// Spill-slot address for slot `i` (word offsets from `sp`).
    fn spill_addr(&self, slot: u32) -> AddrMode {
        AddrMode::imm(Reg::SP, (slot * 4) as i32)
    }

    /// Reads `v` into a register, reloading spills into `fallback`.
    fn vreg_in(&mut self, v: VReg, fallback: Reg) -> Reg {
        match self.alloc.loc(v) {
            Loc::Reg(r) => r,
            Loc::Spill(slot) => {
                self.emit(Instr::Ldr {
                    cond: AL,
                    size: MemSize::Word,
                    signed: false,
                    rt: fallback,
                    addr: self.spill_addr(slot),
                });
                fallback
            }
        }
    }

    /// Puts an operand in a register (constants via `fallback`).
    fn operand_in(&mut self, o: Operand, fallback: Reg) -> Reg {
        match o {
            Operand::Reg(v) => self.vreg_in(v, fallback),
            Operand::Imm(c) => {
                self.materialize(fallback, c);
                fallback
            }
        }
    }

    /// Destination register for `v` (scratch0 when spilled); pair with
    /// [`Lowerer::finish_def`].
    fn def_reg(&self, v: VReg) -> Reg {
        match self.alloc.loc(v) {
            Loc::Reg(r) => r,
            Loc::Spill(_) => self.s0(),
        }
    }

    /// Stores a spilled definition back to its slot.
    fn finish_def(&mut self, v: VReg, computed_in: Reg) {
        if let Loc::Spill(slot) = self.alloc.loc(v) {
            self.emit(Instr::Str {
                cond: AL,
                size: MemSize::Word,
                rt: computed_in,
                addr: self.spill_addr(slot),
            });
        }
    }

    /// Emits `dst = src` between registers (no-op when equal).
    fn mov_reg(&mut self, dst: Reg, src: Reg) {
        if dst != src {
            self.emit(Instr::Mov { s: false, cond: AL, rd: dst, op2: Operand2::Reg(src) });
        }
    }

    // ---------------- data-processing emission ----------------

    /// Whether `v` is usable as a DP immediate for this op and mode.
    fn dp_imm_ok(&self, op: DpOp, rd: Reg, rn: Reg, v: u32) -> bool {
        match self.mode {
            IsaMode::A32 => alia_isa::a32_imm_encodable(v),
            IsaMode::T2 => alia_isa::t2_imm_encodable(v),
            IsaMode::T16 => match op {
                DpOp::Add | DpOp::Sub => {
                    (rd.is_low() && rn.is_low() && v < 8) || (rd == rn && rd.is_low() && v < 256)
                }
                _ => false,
            },
        }
    }

    /// Emits a three-address DP op, rewriting into the two-address narrow
    /// form where `T16` requires it.
    fn emit_dp(&mut self, op: DpOp, rd: Reg, rn: Reg, op2: Operand2) {
        if self.mode != IsaMode::T16 {
            self.emit(Instr::Dp { op, s: false, cond: AL, rd, rn, op2 });
            return;
        }
        match (op, op2) {
            // add/sub have native three-address narrow forms.
            (DpOp::Add | DpOp::Sub, Operand2::Reg(_) | Operand2::Imm(_)) => {
                self.emit(Instr::Dp { op, s: false, cond: AL, rd, rn, op2 });
            }
            (_, Operand2::Reg(rm)) => {
                if rd == rn {
                    self.emit(Instr::Dp { op, s: false, cond: AL, rd, rn, op2 });
                } else if rd == rm {
                    let commutative =
                        matches!(op, DpOp::And | DpOp::Orr | DpOp::Eor | DpOp::Adc);
                    if commutative {
                        self.emit(Instr::Dp {
                            op,
                            s: false,
                            cond: AL,
                            rd,
                            rn: rd,
                            op2: Operand2::Reg(rn),
                        });
                    } else {
                        // rd aliases rm: save rm, copy rn, operate.
                        let s = self.s0();
                        self.mov_reg(s, rm);
                        self.mov_reg(rd, rn);
                        self.emit(Instr::Dp {
                            op,
                            s: false,
                            cond: AL,
                            rd,
                            rn: rd,
                            op2: Operand2::Reg(s),
                        });
                    }
                } else {
                    self.mov_reg(rd, rn);
                    self.emit(Instr::Dp { op, s: false, cond: AL, rd, rn: rd, op2 });
                }
            }
            _ => unreachable!("T16 immediate forms are pre-checked by dp_imm_ok"),
        }
    }

    /// Lowers `dst = a <op> b` for the plain ALU subset.
    fn lower_alu(&mut self, op: DpOp, dst: VReg, a: Operand, b: Operand) {
        let rd = self.def_reg(dst);
        let ra = self.operand_in(a, self.s0());
        let op2 = match b {
            Operand::Imm(v) if self.dp_imm_ok(op, rd, ra, v) => Operand2::Imm(v),
            Operand::Imm(v) => {
                let s1 = self.s1();
                self.materialize(s1, v);
                Operand2::Reg(s1)
            }
            Operand::Reg(v) => Operand2::Reg(self.vreg_in(v, self.s1())),
        };
        self.emit_dp(op, rd, ra, op2);
        self.finish_def(dst, rd);
    }

    /// Lowers a shift (`dst = a shift b`).
    fn lower_shift(&mut self, sh: ShiftOp, dst: VReg, a: Operand, b: Operand) {
        let rd = self.def_reg(dst);
        match b {
            Operand::Imm(amt) => {
                let amt = amt & 0xFF;
                if amt == 0 {
                    let ra = self.operand_in(a, rd);
                    self.mov_reg(rd, ra);
                } else if amt >= 32 {
                    // TIR semantics: LSL/LSR go to zero; ASR saturates;
                    // ROR wraps mod 32.
                    match sh {
                        ShiftOp::Lsl | ShiftOp::Lsr => self.materialize(rd, 0),
                        ShiftOp::Asr => {
                            let ra = self.operand_in(a, self.s0());
                            self.emit(Instr::Mov {
                                s: false,
                                cond: AL,
                                rd,
                                op2: Operand2::RegShiftImm(ra, ShiftOp::Asr, 31),
                            });
                        }
                        ShiftOp::Ror => {
                            let ra = self.operand_in(a, self.s0());
                            let amt = (amt % 32) as u8;
                            if amt == 0 {
                                self.mov_reg(rd, ra);
                            } else {
                                self.emit_ror_imm(rd, ra, amt);
                            }
                        }
                    }
                } else {
                    let ra = self.operand_in(a, self.s0());
                    if sh == ShiftOp::Ror {
                        self.emit_ror_imm(rd, ra, amt as u8);
                    } else {
                        self.emit(Instr::Mov {
                            s: false,
                            cond: AL,
                            rd,
                            op2: Operand2::RegShiftImm(ra, sh, amt as u8),
                        });
                    }
                }
            }
            Operand::Reg(bv) => {
                let ra = self.operand_in(a, self.s0());
                let rb = self.vreg_in(bv, self.s1());
                if self.mode == IsaMode::T16 {
                    // two-address: rd = rd shift rb
                    if rd == rb {
                        let s = self.s1();
                        self.mov_reg(s, rb);
                        self.mov_reg(rd, ra);
                        self.emit(Instr::Mov {
                            s: false,
                            cond: AL,
                            rd,
                            op2: Operand2::RegShiftReg(rd, sh, s),
                        });
                    } else {
                        self.mov_reg(rd, ra);
                        self.emit(Instr::Mov {
                            s: false,
                            cond: AL,
                            rd,
                            op2: Operand2::RegShiftReg(rd, sh, rb),
                        });
                    }
                } else {
                    self.emit(Instr::Mov {
                        s: false,
                        cond: AL,
                        rd,
                        op2: Operand2::RegShiftReg(ra, sh, rb),
                    });
                }
            }
        }
        self.finish_def(dst, rd);
    }

    /// Rotate-right by immediate; `T16` has no narrow ROR-immediate so the
    /// amount goes through a scratch register.
    fn emit_ror_imm(&mut self, rd: Reg, ra: Reg, amt: u8) {
        if self.mode == IsaMode::T16 {
            let s = self.s1();
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: s,
                op2: Operand2::Imm(u32::from(amt)),
            });
            self.mov_reg(rd, ra);
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd,
                op2: Operand2::RegShiftReg(rd, ShiftOp::Ror, s),
            });
        } else {
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd,
                op2: Operand2::RegShiftImm(ra, ShiftOp::Ror, amt),
            });
        }
    }

    // ---------------- compares ----------------

    /// Whether `v` can be a compare immediate against `rn`.
    fn cmp_imm_ok(&self, rn: Reg, v: u32) -> bool {
        match self.mode {
            IsaMode::T16 => rn.is_low() && v < 256,
            IsaMode::A32 => alia_isa::a32_imm_encodable(v),
            IsaMode::T2 => alia_isa::t2_imm_encodable(v),
        }
    }

    /// Emits a flag-setting compare and returns the condition that is true
    /// when `kind(a, b)` holds.
    fn emit_cmp(&mut self, kind: CmpKind, a: Operand, b: Operand) -> Cond {
        let ra = self.operand_in(a, self.s0());
        let op2 = match b {
            Operand::Imm(v) if self.cmp_imm_ok(ra, v) => Operand2::Imm(v),
            Operand::Imm(v) => {
                let s1 = self.s1();
                self.materialize(s1, v);
                Operand2::Reg(s1)
            }
            Operand::Reg(v) => Operand2::Reg(self.vreg_in(v, self.s1())),
        };
        self.emit(Instr::Cmp { op: CmpOp::Cmp, cond: AL, rn: ra, op2 });
        cond_of(kind)
    }

    // ---------------- memory ----------------

    fn load_imm_range_ok(&self, size: AccessSize, signed: bool, base: Reg, off: i32) -> bool {
        match self.mode {
            IsaMode::A32 => {
                let max = if size == AccessSize::Word || (size == AccessSize::Byte && !signed) {
                    4096
                } else {
                    256
                };
                off.abs() < max
            }
            IsaMode::T2 => off.abs() < 1024,
            IsaMode::T16 => {
                if signed {
                    return false; // signed loads are register-form only
                }
                if base == Reg::SP {
                    return size == AccessSize::Word && (0..1024).contains(&off) && off % 4 == 0;
                }
                if !base.is_low() {
                    return false;
                }
                let scale = size.bytes() as i32;
                (0..32 * scale).contains(&off) && off % scale == 0
            }
        }
    }

    fn store_imm_range_ok(&self, size: AccessSize, base: Reg, off: i32) -> bool {
        self.load_imm_range_ok(size, false, base, off)
    }

    /// Resolves `[base_v + offset]` into an addressing mode, possibly
    /// using scratch registers. Leaves `scratch0` free for the data.
    fn resolve_addr(&mut self, base_v: VReg, offset: Operand, size: AccessSize, store: bool, signed: bool) -> AddrMode {
        let base_r = self.vreg_in(base_v, self.s1());
        match offset {
            Operand::Imm(v) => {
                let off = v as i32;
                let ok = if store {
                    self.store_imm_range_ok(size, base_r, off)
                } else {
                    self.load_imm_range_ok(size, signed, base_r, off)
                };
                if ok {
                    AddrMode::imm(base_r, off)
                } else if base_r == self.s1() {
                    // base already in s1: fold the offset into it via s0,
                    // then free s0 again.
                    let s0 = self.s0();
                    self.materialize(s0, v);
                    self.emit_dp(DpOp::Add, self.s1(), self.s1(), Operand2::Reg(s0));
                    AddrMode::imm(self.s1(), 0)
                } else {
                    let s1 = self.s1();
                    self.materialize(s1, v);
                    AddrMode::reg(base_r, s1, 0)
                }
            }
            Operand::Reg(ov) => {
                match self.alloc.loc(ov) {
                    Loc::Reg(r) => AddrMode::reg(base_r, r, 0),
                    Loc::Spill(slot) => {
                        if base_r == self.s1() {
                            let s0 = self.s0();
                            self.emit(Instr::Ldr {
                                cond: AL,
                                size: MemSize::Word,
                                signed: false,
                                rt: s0,
                                addr: self.spill_addr(slot),
                            });
                            self.emit_dp(DpOp::Add, self.s1(), self.s1(), Operand2::Reg(s0));
                            AddrMode::imm(self.s1(), 0)
                        } else {
                            let s1 = self.s1();
                            self.emit(Instr::Ldr {
                                cond: AL,
                                size: MemSize::Word,
                                signed: false,
                                rt: s1,
                                addr: self.spill_addr(slot),
                            });
                            AddrMode::reg(base_r, s1, 0)
                        }
                    }
                }
            }
        }
    }

    fn mem_size(size: AccessSize) -> MemSize {
        match size {
            AccessSize::Byte => MemSize::Byte,
            AccessSize::Half => MemSize::Half,
            AccessSize::Word => MemSize::Word,
        }
    }

    // ---------------- instruction dispatch ----------------

    fn lower_inst(&mut self, inst: &Inst) -> Result<(), CodegenError> {
        match inst {
            Inst::Const { dst, value } => {
                let rd = self.def_reg(*dst);
                self.materialize(rd, *value);
                self.finish_def(*dst, rd);
            }
            Inst::Copy { dst, src } => {
                let rd = self.def_reg(*dst);
                match *src {
                    Operand::Imm(v) => self.materialize(rd, v),
                    Operand::Reg(v) => {
                        let rs = self.vreg_in(v, rd);
                        self.mov_reg(rd, rs);
                    }
                }
                self.finish_def(*dst, rd);
            }
            Inst::Bin { op, dst, a, b } => self.lower_bin(*op, *dst, *a, *b)?,
            Inst::Un { op, dst, a } => self.lower_un(*op, *dst, *a),
            Inst::ExtractBits { dst, src, lsb, width, signed } => {
                self.lower_extract(*dst, *src, *lsb, *width, *signed);
            }
            Inst::InsertBits { dst, src, lsb, width } => {
                self.lower_insert(*dst, *src, *lsb, *width);
            }
            Inst::Select { dst, kind, a, b, t, f } => {
                self.lower_select(*dst, *kind, *a, *b, *t, *f);
            }
            Inst::Load { dst, size, signed, base, offset } => {
                let addr = self.resolve_addr(*base, *offset, *size, false, *signed);
                let rd = self.def_reg(*dst);
                self.emit(Instr::Ldr {
                    cond: AL,
                    size: Self::mem_size(*size),
                    signed: *signed,
                    rt: rd,
                    addr,
                });
                self.finish_def(*dst, rd);
            }
            Inst::Store { src, size, base, offset } => {
                let addr = self.resolve_addr(*base, *offset, *size, true, false);
                let rs = self.operand_in(*src, self.s0());
                self.emit(Instr::Str { cond: AL, size: Self::mem_size(*size), rt: rs, addr });
            }
            Inst::Call { dst, func, args } => {
                self.lower_call(*dst, *func, args);
            }
        }
        Ok(())
    }

    fn lower_bin(
        &mut self,
        op: BinOp,
        dst: VReg,
        a: Operand,
        b: Operand,
    ) -> Result<(), CodegenError> {
        match op {
            BinOp::Add => self.lower_alu(DpOp::Add, dst, a, b),
            BinOp::Sub => self.lower_alu(DpOp::Sub, dst, a, b),
            BinOp::And => self.lower_alu(DpOp::And, dst, a, b),
            BinOp::Or => self.lower_alu(DpOp::Orr, dst, a, b),
            BinOp::Xor => self.lower_alu(DpOp::Eor, dst, a, b),
            BinOp::Shl => self.lower_shift(ShiftOp::Lsl, dst, a, b),
            BinOp::Lshr => self.lower_shift(ShiftOp::Lsr, dst, a, b),
            BinOp::Ashr => self.lower_shift(ShiftOp::Asr, dst, a, b),
            BinOp::Rotr => self.lower_shift(ShiftOp::Ror, dst, a, b),
            BinOp::Mul => {
                let rd = self.def_reg(dst);
                let ra = self.operand_in(a, self.s0());
                let rb = self.operand_in(b, self.s1());
                if self.mode == IsaMode::T16 {
                    // narrow MUL is two-address
                    if rd == rb {
                        self.emit(Instr::Mul { s: false, cond: AL, rd, rn: rd, rm: ra });
                    } else {
                        self.mov_reg(rd, ra);
                        self.emit(Instr::Mul { s: false, cond: AL, rd, rn: rd, rm: rb });
                    }
                } else {
                    self.emit(Instr::Mul { s: false, cond: AL, rd, rn: ra, rm: rb });
                }
                self.finish_def(dst, rd);
            }
            BinOp::Sdiv | BinOp::Udiv => {
                if self.mode != IsaMode::T2 {
                    return Err(self.err(
                        "hardware divide reached a non-T2 target; run lower_soft_ops first",
                    ));
                }
                let rd = self.def_reg(dst);
                let ra = self.operand_in(a, self.s0());
                let rb = self.operand_in(b, self.s1());
                if op == BinOp::Sdiv {
                    self.emit(Instr::Sdiv { cond: AL, rd, rn: ra, rm: rb });
                } else {
                    self.emit(Instr::Udiv { cond: AL, rd, rn: ra, rm: rb });
                }
                self.finish_def(dst, rd);
            }
            BinOp::Srem | BinOp::Urem => {
                return Err(self.err("remainder reached codegen; run lower_soft_ops first"));
            }
        }
        Ok(())
    }

    fn lower_un(&mut self, op: UnOp, dst: VReg, a: Operand) {
        let rd = self.def_reg(dst);
        match op {
            UnOp::Neg => {
                let ra = self.operand_in(a, self.s0());
                if self.mode == IsaMode::T16 {
                    // no narrow RSB: 0 - a
                    let s1 = self.s1();
                    self.emit(Instr::Mov { s: false, cond: AL, rd: s1, op2: Operand2::Imm(0) });
                    self.emit(Instr::Dp {
                        op: DpOp::Sub,
                        s: false,
                        cond: AL,
                        rd,
                        rn: s1,
                        op2: Operand2::Reg(ra),
                    });
                } else {
                    self.emit(Instr::Dp {
                        op: DpOp::Rsb,
                        s: false,
                        cond: AL,
                        rd,
                        rn: ra,
                        op2: Operand2::Imm(0),
                    });
                }
            }
            UnOp::Not => {
                let ra = self.operand_in(a, self.s0());
                self.emit(Instr::Mvn { s: false, cond: AL, rd, op2: Operand2::Reg(ra) });
            }
            UnOp::ByteRev => {
                let ra = self.operand_in(a, self.s0());
                if self.mode == IsaMode::T2 {
                    self.emit(Instr::Rev { cond: AL, rd, rm: ra });
                } else {
                    self.emit_byte_rev(rd, ra);
                }
            }
            UnOp::BitRev => {
                debug_assert_eq!(self.mode, IsaMode::T2, "bitrev lowered earlier elsewhere");
                let ra = self.operand_in(a, self.s0());
                self.emit(Instr::Rbit { cond: AL, rd, rm: ra });
            }
            UnOp::SignExt8 | UnOp::SignExt16 => {
                let bits = if op == UnOp::SignExt8 { 8 } else { 16 };
                let ra = self.operand_in(a, self.s0());
                if self.mode == IsaMode::T2 {
                    self.emit(Instr::Sbfx { cond: AL, rd, rn: ra, lsb: 0, width: bits });
                } else {
                    let sh = 32 - bits;
                    self.emit(Instr::Mov {
                        s: false,
                        cond: AL,
                        rd,
                        op2: Operand2::RegShiftImm(ra, ShiftOp::Lsl, sh),
                    });
                    self.emit(Instr::Mov {
                        s: false,
                        cond: AL,
                        rd,
                        op2: Operand2::RegShiftImm(rd, ShiftOp::Asr, sh),
                    });
                }
            }
        }
        self.finish_def(dst, rd);
    }

    /// Generic byte-reverse for cores without `REV` (shift/mask network).
    ///
    /// Needs both scratches internally; when the destination *is* scratch0
    /// (spilled dst), a callee-saved register is borrowed with push/pop —
    /// safe because no spill-slot addressing happens inside the window.
    fn emit_byte_rev(&mut self, rd: Reg, ra: Reg) {
        let s0 = self.s0();
        if rd == s0 {
            let tmp = Reg::R4;
            let one: RegList = [tmp].into_iter().collect();
            self.emit(Instr::Push { cond: AL, regs: one });
            let src = if ra == s0 {
                // Move the operand out of s0 so the inner network may use
                // s0 as its mask register.
                self.mov_reg(tmp, ra);
                tmp
            } else {
                ra
            };
            self.emit_byte_rev_inner(tmp, src);
            self.mov_reg(s0, tmp);
            self.emit(Instr::Pop { cond: AL, regs: one });
            return;
        }
        self.emit_byte_rev_inner(rd, ra);
    }

    fn emit_byte_rev_inner(&mut self, rd: Reg, ra: Reg) {
        let s0 = self.s0();
        let s1 = self.s1();
        // s1 = (a >> 16) | (a << 16)  -- rotate by 16. Read `ra` before
        // anything touches s0 (a spilled operand may live there).
        if self.mode == IsaMode::A32 {
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: s1,
                op2: Operand2::RegShiftImm(ra, ShiftOp::Ror, 16),
            });
        } else {
            self.mov_reg(s1, ra);
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: s0,
                op2: Operand2::Imm(16),
            });
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: s1,
                op2: Operand2::RegShiftReg(s1, ShiftOp::Ror, s0),
            });
        }
        // Now swap bytes within halfwords:
        // rd = ((s1 & 0x00FF00FF) << 8) | ((s1 >> 8) & 0x00FF00FF)
        self.materialize(s0, 0x00FF_00FF);
        self.emit_dp(DpOp::And, rd, s1, Operand2::Reg(s0));
        // rd <<= 8 (two-address-friendly)
        self.emit(Instr::Mov {
            s: false,
            cond: AL,
            rd,
            op2: Operand2::RegShiftImm(rd, ShiftOp::Lsl, 8),
        });
        // s1 = (s1 >> 8) & 0x00FF00FF
        self.emit(Instr::Mov {
            s: false,
            cond: AL,
            rd: s1,
            op2: Operand2::RegShiftImm(s1, ShiftOp::Lsr, 8),
        });
        self.emit_dp(DpOp::And, s1, s1, Operand2::Reg(s0));
        self.emit_dp(DpOp::Orr, rd, rd, Operand2::Reg(s1));
    }

    fn lower_extract(&mut self, dst: VReg, src: Operand, lsb: u8, width: u8, signed: bool) {
        let rd = self.def_reg(dst);
        let rs = self.operand_in(src, self.s0());
        if self.mode == IsaMode::T2 {
            if signed {
                self.emit(Instr::Sbfx { cond: AL, rd, rn: rs, lsb, width });
            } else {
                self.emit(Instr::Ubfx { cond: AL, rd, rn: rs, lsb, width });
            }
        } else {
            // Two shifts: left to clear high bits, then right.
            let up = 32 - lsb - width;
            let down = 32 - width;
            if up == 0 {
                self.emit(Instr::Mov {
                    s: false,
                    cond: AL,
                    rd,
                    op2: Operand2::RegShiftImm(
                        rs,
                        if signed { ShiftOp::Asr } else { ShiftOp::Lsr },
                        down,
                    ),
                });
            } else {
                self.emit(Instr::Mov {
                    s: false,
                    cond: AL,
                    rd,
                    op2: Operand2::RegShiftImm(rs, ShiftOp::Lsl, up),
                });
                self.emit(Instr::Mov {
                    s: false,
                    cond: AL,
                    rd,
                    op2: Operand2::RegShiftImm(
                        rd,
                        if signed { ShiftOp::Asr } else { ShiftOp::Lsr },
                        down,
                    ),
                });
            }
        }
        self.finish_def(dst, rd);
    }

    fn lower_insert(&mut self, dst: VReg, src: Operand, lsb: u8, width: u8) {
        if self.mode == IsaMode::T2 {
            // dst is read-modify-write; BFI does it in one instruction.
            let rd = match self.alloc.loc(dst) {
                Loc::Reg(r) => r,
                Loc::Spill(_) => self.vreg_in(dst, self.s0()),
            };
            let rs = self.operand_in(src, self.s1());
            self.emit(Instr::Bfi { cond: AL, rd, rn: rs, lsb, width });
            self.finish_def(dst, rd);
            return;
        }
        // Mask-free scheme that tolerates every aliasing case (spilled
        // dst in s0, spilled src, src == dst): build the result in s1,
        // reading the unmodified dst (register or spill slot) twice.
        //
        //   s1  = (src << (32-w)) >> (32-w-lsb)      field bits in place
        //   s0  = dst >> (lsb+w) << (lsb+w)          high part    [if any]
        //   s1 |= s0
        //   s0  = dst << (32-lsb) >> (32-lsb)        low part     [if any]
        //   s1 |= s0
        //   dst = s1
        let s0 = self.s0();
        let s1 = self.s1();
        let rs = self.operand_in(src, s1);
        let up = 32 - width;
        self.emit(Instr::Mov {
            s: false,
            cond: AL,
            rd: s1,
            op2: Operand2::RegShiftImm(rs, ShiftOp::Lsl, up),
        });
        let down = 32 - width - lsb;
        if down > 0 {
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: s1,
                op2: Operand2::RegShiftImm(s1, ShiftOp::Lsr, down),
            });
        }
        // `read_dst` fetches the *original* dst value into s0 without
        // disturbing its home.
        let dst_loc = self.alloc.loc(dst);
        let read_dst = |lw: &mut Self| match dst_loc {
            Loc::Reg(r) => r,
            Loc::Spill(_) => lw.vreg_in(dst, s0),
        };
        if u32::from(lsb) + u32::from(width) < 32 {
            let r = read_dst(self);
            let k = lsb + width;
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: s0,
                op2: Operand2::RegShiftImm(r, ShiftOp::Lsr, k),
            });
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: s0,
                op2: Operand2::RegShiftImm(s0, ShiftOp::Lsl, k),
            });
            self.emit_dp(DpOp::Orr, s1, s1, Operand2::Reg(s0));
        }
        if lsb > 0 {
            let r = read_dst(self);
            let k = 32 - lsb;
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: s0,
                op2: Operand2::RegShiftImm(r, ShiftOp::Lsl, k),
            });
            self.emit(Instr::Mov {
                s: false,
                cond: AL,
                rd: s0,
                op2: Operand2::RegShiftImm(s0, ShiftOp::Lsr, k),
            });
            self.emit_dp(DpOp::Orr, s1, s1, Operand2::Reg(s0));
        }
        match dst_loc {
            Loc::Reg(r) => self.mov_reg(r, s1),
            Loc::Spill(slot) => self.emit(Instr::Str {
                cond: AL,
                size: MemSize::Word,
                rt: s1,
                addr: self.spill_addr(slot),
            }),
        }
    }

    fn lower_select(
        &mut self,
        dst: VReg,
        kind: CmpKind,
        a: Operand,
        b: Operand,
        t: Operand,
        f: Operand,
    ) {
        let rd_loc = self.alloc.loc(dst);
        // Fast predicated path: destination in a register and both arms
        // simple (register-resident or encodable immediates).
        let simple = |o: Operand, lw: &Lowerer<'_>| -> Option<Operand2> {
            match o {
                Operand::Imm(v) if lw.mov_imm_encodable(v) => Some(Operand2::Imm(v)),
                Operand::Reg(v) => match lw.alloc.loc(v) {
                    Loc::Reg(r) => Some(Operand2::Reg(r)),
                    Loc::Spill(_) => None,
                },
                Operand::Imm(_) => None,
            }
        };
        let fast = self.opts.predication
            && matches!(rd_loc, Loc::Reg(_))
            && simple(t, self).is_some()
            && simple(f, self).is_some()
            && self.mode != IsaMode::T16;
        if fast {
            let rd = self.def_reg(dst);
            let t_op = simple(t, self).expect("checked");
            let f_op = simple(f, self).expect("checked");
            let cond = self.emit_cmp(kind, a, b);
            match self.mode {
                IsaMode::A32 => {
                    self.emit(Instr::Mov { s: false, cond, rd, op2: t_op });
                    self.emit(Instr::Mov { s: false, cond: cond.inverted(), rd, op2: f_op });
                }
                IsaMode::T2 => {
                    self.emit(Instr::It { firstcond: cond, mask: 0, count: 2 });
                    self.emit(Instr::Mov { s: false, cond: AL, rd, op2: t_op });
                    self.emit(Instr::Mov { s: false, cond: AL, rd, op2: f_op });
                }
                IsaMode::T16 => unreachable!(),
            }
            return;
        }
        // General path: branch diamond.
        let else_l = self.new_label();
        let end_l = self.new_label();
        let cond = self.emit_cmp(kind, a, b);
        self.items.push(Item::Branch { cond: cond.inverted(), label: else_l });
        let rd = self.def_reg(dst);
        match t {
            Operand::Imm(v) => self.materialize(rd, v),
            Operand::Reg(v) => {
                let r = self.vreg_in(v, rd);
                self.mov_reg(rd, r);
            }
        }
        self.finish_def(dst, rd);
        self.items.push(Item::Branch { cond: AL, label: end_l });
        self.items.push(Item::Label(else_l));
        let rd = self.def_reg(dst);
        match f {
            Operand::Imm(v) => self.materialize(rd, v),
            Operand::Reg(v) => {
                let r = self.vreg_in(v, rd);
                self.mov_reg(rd, r);
            }
        }
        self.finish_def(dst, rd);
        self.items.push(Item::Label(end_l));
    }

    fn lower_call(&mut self, dst: Option<VReg>, func: FuncId, args: &[Operand]) {
        // Parallel-move arguments into r0..r3.
        #[derive(Clone, Copy)]
        enum Src {
            Reg(Reg),
            Spill(u32),
            Imm(u32),
        }
        let mut moves: Vec<(Reg, Src)> = Vec::new();
        for (i, a) in args.iter().enumerate() {
            let dst_r = Reg::new(i as u8);
            let src = match *a {
                Operand::Imm(v) => Src::Imm(v),
                Operand::Reg(v) => match self.alloc.loc(v) {
                    Loc::Reg(r) => Src::Reg(r),
                    Loc::Spill(s) => Src::Spill(s),
                },
            };
            moves.push((dst_r, src));
        }
        // Drop identity moves.
        moves.retain(|(d, s)| !matches!(s, Src::Reg(r) if r == d));
        let mut guard = 0;
        while !moves.is_empty() {
            guard += 1;
            assert!(guard < 64, "parallel move did not converge");
            let blocked = |d: Reg, moves: &[(Reg, Src)]| {
                moves.iter().any(|(_, s)| matches!(s, Src::Reg(r) if *r == d))
            };
            if let Some(pos) = (0..moves.len()).find(|&i| !blocked(moves[i].0, &moves)) {
                let (d, s) = moves.remove(pos);
                match s {
                    Src::Reg(r) => self.mov_reg(d, r),
                    Src::Imm(v) => self.materialize(d, v),
                    Src::Spill(slot) => self.emit(Instr::Ldr {
                        cond: AL,
                        size: MemSize::Word,
                        signed: false,
                        rt: d,
                        addr: self.spill_addr(slot),
                    }),
                }
            } else {
                // Cycle: rotate through scratch0.
                let (d, s) = moves[0];
                let s0 = self.s0();
                if let Src::Reg(r) = s {
                    self.mov_reg(s0, r);
                    moves[0] = (d, Src::Reg(s0));
                    // Any other move sourcing r is also redirected.
                    for m in moves.iter_mut().skip(1) {
                        if matches!(m.1, Src::Reg(x) if x == r) {
                            m.1 = Src::Reg(s0);
                        }
                    }
                } else {
                    unreachable!("only register moves can form cycles");
                }
            }
        }
        self.items.push(Item::Call { func });
        if let Some(d) = dst {
            match self.alloc.loc(d) {
                Loc::Reg(r) => self.mov_reg(r, Reg::R0),
                Loc::Spill(slot) => self.emit(Instr::Str {
                    cond: AL,
                    size: MemSize::Word,
                    rt: Reg::R0,
                    addr: self.spill_addr(slot),
                }),
            }
        }
    }

    // ---------------- terminators ----------------

    fn lower_term(
        &mut self,
        term: &Terminator,
        next_block: Option<alia_tir::BlockId>,
    ) -> Result<(), CodegenError> {
        match term {
            Terminator::Br { target } => {
                if Some(*target) != next_block {
                    let l = self.block_labels[target.0 as usize];
                    self.items.push(Item::Branch { cond: AL, label: l });
                }
            }
            Terminator::CondBr { kind, a, b, then_bb, else_bb } => {
                let then_l = self.block_labels[then_bb.0 as usize];
                let else_l = self.block_labels[else_bb.0 as usize];
                // CBZ/CBNZ fast path on T2 for zero compares.
                let zero_test = matches!(b, Operand::Imm(0))
                    && matches!(kind, CmpKind::Eq | CmpKind::Ne)
                    && self.mode == IsaMode::T2;
                if zero_test {
                    if let Operand::Reg(av) = a {
                        if let Loc::Reg(r) = self.alloc.loc(*av) {
                            if r.is_low() {
                                let eq_means = *kind == CmpKind::Eq;
                                if Some(*else_bb) == next_block {
                                    self.items.push(Item::CbzBr {
                                        nonzero: !eq_means,
                                        rn: r,
                                        label: then_l,
                                    });
                                    return Ok(());
                                }
                                if Some(*then_bb) == next_block {
                                    self.items.push(Item::CbzBr {
                                        nonzero: eq_means,
                                        rn: r,
                                        label: else_l,
                                    });
                                    return Ok(());
                                }
                            }
                        }
                    }
                }
                let cond = self.emit_cmp(*kind, *a, *b);
                if Some(*then_bb) == next_block {
                    self.items.push(Item::Branch { cond: cond.inverted(), label: else_l });
                } else if Some(*else_bb) == next_block {
                    self.items.push(Item::Branch { cond, label: then_l });
                } else {
                    self.items.push(Item::Branch { cond, label: then_l });
                    self.items.push(Item::Branch { cond: AL, label: else_l });
                }
            }
            Terminator::Switch { value, base, targets, default } => {
                self.lower_switch(*value, *base, targets, *default)?;
            }
            Terminator::Ret { value } => {
                if let Some(v) = value {
                    match *v {
                        Operand::Imm(c) => self.materialize(Reg::R0, c),
                        Operand::Reg(rv) => {
                            let r = self.vreg_in(rv, Reg::R0);
                            self.mov_reg(Reg::R0, r);
                        }
                    }
                }
                if next_block.is_some() {
                    self.items.push(Item::Branch { cond: AL, label: self.epilogue });
                }
            }
        }
        Ok(())
    }

    fn lower_switch(
        &mut self,
        value: VReg,
        base: u32,
        targets: &[alia_tir::BlockId],
        default: alia_tir::BlockId,
    ) -> Result<(), CodegenError> {
        let default_l = self.block_labels[default.0 as usize];
        let n = targets.len() as u32;
        if n > 200 {
            return Err(self.err("switch too large for table lowering"));
        }
        // idx = value - base, into s0.
        let s0 = self.s0();
        let rv = self.vreg_in(value, s0);
        if base == 0 {
            self.mov_reg(s0, rv);
        } else if self.dp_imm_ok(DpOp::Sub, s0, rv, base) {
            self.emit_dp(DpOp::Sub, s0, rv, Operand2::Imm(base));
        } else {
            let s1 = self.s1();
            self.materialize(s1, base);
            self.emit_dp(DpOp::Sub, s0, rv, Operand2::Reg(s1));
        }
        // Range check: unsigned idx >= n -> default.
        debug_assert!(self.cmp_imm_ok(s0, n) || n >= 256);
        if self.cmp_imm_ok(s0, n) {
            self.emit(Instr::Cmp { op: CmpOp::Cmp, cond: AL, rn: s0, op2: Operand2::Imm(n) });
        } else {
            let s1 = self.s1();
            self.materialize(s1, n);
            self.emit(Instr::Cmp {
                op: CmpOp::Cmp,
                cond: AL,
                rn: s0,
                op2: Operand2::Reg(s1),
            });
        }
        self.items.push(Item::Branch { cond: Cond::Cs, label: default_l });
        let labels: Vec<u32> =
            targets.iter().map(|t| self.block_labels[t.0 as usize]).collect();
        match self.mode {
            IsaMode::T2 => {
                // tbb [pc, s0]; table follows immediately.
                self.emit(Instr::Tbb { rn: Reg::PC, rm: s0 });
                self.items.push(Item::ByteTable { labels });
            }
            IsaMode::A32 => {
                // ldr pc, [pc, s0, lsl #2]; the slot at +4 pads to default.
                self.emit(Instr::Ldr {
                    cond: AL,
                    size: MemSize::Word,
                    signed: false,
                    rt: Reg::PC,
                    addr: AddrMode::reg(Reg::PC, s0, 2),
                });
                self.items.push(Item::Branch { cond: AL, label: default_l });
                self.items.push(Item::WordTable { labels });
            }
            IsaMode::T16 => {
                // Compare chain — the narrow encoding has no table branch.
                for (i, l) in labels.iter().enumerate() {
                    self.emit(Instr::Cmp {
                        op: CmpOp::Cmp,
                        cond: AL,
                        rn: s0,
                        op2: Operand2::Imm(i as u32),
                    });
                    self.items.push(Item::Branch { cond: Cond::Eq, label: *l });
                }
                self.items.push(Item::Branch { cond: AL, label: default_l });
            }
        }
        Ok(())
    }

    // ---------------- prologue / epilogue / driver ----------------

    fn push_list(&self) -> RegList {
        let mut list = self.alloc.used_callee_saved;
        if self.alloc.has_calls {
            list.insert(Reg::LR);
        }
        list
    }

    fn run(&mut self) -> Result<(), CodegenError> {
        self.frame_words = self.alloc.spill_slots;
        let push = self.push_list();
        if !push.is_empty() {
            self.emit(Instr::Push { cond: AL, regs: push });
        }
        if self.frame_words > 0 {
            let bytes = self.frame_words * 4;
            self.emit_sp_adjust(-(bytes as i32));
        }
        // Move parameters to their allocated homes. A parallel move: a
        // param's target register may be another param's incoming register,
        // so emit unblocked moves first and break cycles through scratch0.
        let mut moves: Vec<(Loc, Reg)> = Vec::new();
        for (i, p) in self.f.params.iter().enumerate() {
            let incoming = Reg::new(i as u8);
            let loc = self.alloc.loc(*p);
            if loc != Loc::Reg(incoming) {
                moves.push((loc, incoming));
            }
        }
        let mut guard = 0;
        while !moves.is_empty() {
            guard += 1;
            assert!(guard < 32, "entry parameter move did not converge");
            let blocked = |d: &Loc, moves: &[(Loc, Reg)]| match d {
                Loc::Reg(r) => moves.iter().any(|(_, s)| s == r),
                Loc::Spill(_) => false,
            };
            if let Some(pos) = (0..moves.len()).find(|&i| !blocked(&moves[i].0, &moves)) {
                let (loc, src) = moves.remove(pos);
                match loc {
                    Loc::Reg(r) => self.mov_reg(r, src),
                    Loc::Spill(slot) => self.emit(Instr::Str {
                        cond: AL,
                        size: MemSize::Word,
                        rt: src,
                        addr: self.spill_addr(slot),
                    }),
                }
            } else {
                // Cycle among registers: rotate through scratch0.
                let (_, src) = moves[0];
                let s0 = self.s0();
                self.mov_reg(s0, src);
                for m in &mut moves {
                    if m.1 == src {
                        m.1 = s0;
                    }
                }
            }
        }

        let blocks = &self.f.blocks;
        for (bi, block) in blocks.iter().enumerate() {
            let label = self.block_labels[bi];
            self.items.push(Item::Label(label));
            for inst in &block.insts {
                self.lower_inst(inst)?;
            }
            let next = blocks.get(bi + 1).map(|b| b.id);
            self.lower_term(&block.term, next)?;
        }

        // Epilogue.
        self.items.push(Item::Label(self.epilogue));
        if self.frame_words > 0 {
            let bytes = self.frame_words * 4;
            self.emit_sp_adjust(bytes as i32);
        }
        let mut pop = self.push_list();
        if self.alloc.has_calls {
            pop.remove(Reg::LR);
            pop.insert(Reg::PC);
            self.emit(Instr::Pop { cond: AL, regs: pop });
        } else {
            if !pop.is_empty() {
                self.emit(Instr::Pop { cond: AL, regs: pop });
            }
            self.emit(Instr::Bx { cond: AL, rm: Reg::LR });
        }
        Ok(())
    }

    fn emit_sp_adjust(&mut self, bytes: i32) {
        let op = if bytes < 0 { DpOp::Sub } else { DpOp::Add };
        let mag = bytes.unsigned_abs();
        // T16 has add/sub sp, #imm7*4 (0..508); larger frames iterate.
        let step = if self.mode == IsaMode::T16 { 508 } else { 4092 };
        let mut left = mag;
        while left > 0 {
            let k = left.min(step);
            self.emit(Instr::Dp {
                op,
                s: false,
                cond: AL,
                rd: Reg::SP,
                rn: Reg::SP,
                op2: Operand2::Imm(k),
            });
            left -= k;
        }
    }
}
