//! The semantic ALIA instruction set.
//!
//! [`Instr`] is the *semantic* form shared by all three encodings; whether a
//! given instruction is expressible in a mode (and at which width) is
//! decided by [`Instr::validate`] and [`Instr::size`].

use std::fmt;

use crate::{
    a32_imm_encodable, t2_imm_encodable, AddrMode, Cond, Index, IsaMode, MemSize, Offset,
    Operand2, Reg, RegList,
};

/// Two-operand data-processing operation (result-producing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DpOp {
    /// Bitwise AND.
    And = 0,
    /// Bitwise exclusive OR.
    Eor = 1,
    /// Subtract.
    Sub = 2,
    /// Reverse subtract (`rd = op2 - rn`).
    Rsb = 3,
    /// Add.
    Add = 4,
    /// Add with carry.
    Adc = 5,
    /// Subtract with carry.
    Sbc = 6,
    /// Bitwise inclusive OR.
    Orr = 7,
    /// Bit clear (`rd = rn & !op2`).
    Bic = 8,
}

impl DpOp {
    /// All data-processing operations.
    pub const ALL: [DpOp; 9] = [
        DpOp::And,
        DpOp::Eor,
        DpOp::Sub,
        DpOp::Rsb,
        DpOp::Add,
        DpOp::Adc,
        DpOp::Sbc,
        DpOp::Orr,
        DpOp::Bic,
    ];

    /// Decodes a 4-bit field.
    #[must_use]
    pub fn from_bits(bits: u8) -> Option<DpOp> {
        DpOp::ALL.get(bits as usize).copied()
    }

    /// The 4-bit encoding.
    #[must_use]
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            DpOp::And => "and",
            DpOp::Eor => "eor",
            DpOp::Sub => "sub",
            DpOp::Rsb => "rsb",
            DpOp::Add => "add",
            DpOp::Adc => "adc",
            DpOp::Sbc => "sbc",
            DpOp::Orr => "orr",
            DpOp::Bic => "bic",
        }
    }
}

/// Compare/test operation (flag-setting, no result register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CmpOp {
    /// Compare (`rn - op2`).
    Cmp = 0,
    /// Compare negative (`rn + op2`).
    Cmn = 1,
    /// Test bits (`rn & op2`).
    Tst = 2,
    /// Test equivalence (`rn ^ op2`).
    Teq = 3,
}

impl CmpOp {
    /// All compare operations.
    pub const ALL: [CmpOp; 4] = [CmpOp::Cmp, CmpOp::Cmn, CmpOp::Tst, CmpOp::Teq];

    /// Decodes a 2-bit field.
    #[must_use]
    pub fn from_bits(bits: u8) -> CmpOp {
        CmpOp::ALL[(bits & 3) as usize]
    }

    /// The 2-bit encoding.
    #[must_use]
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Cmp => "cmp",
            CmpOp::Cmn => "cmn",
            CmpOp::Tst => "tst",
            CmpOp::Teq => "teq",
        }
    }
}

/// An ALIA instruction in semantic form.
///
/// Branch-like `offset` fields are byte offsets relative to the
/// *instruction's own address*; the encoder converts to the PC-biased form.
/// Literal loads address `align4(addr + pc_bias) + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[allow(missing_docs)] // field meanings are given in each variant's doc line
pub enum Instr {
    /// Data-processing: `rd = rn <op> op2`.
    Dp { op: DpOp, s: bool, cond: Cond, rd: Reg, rn: Reg, op2: Operand2 },
    /// Move: `rd = op2`.
    Mov { s: bool, cond: Cond, rd: Reg, op2: Operand2 },
    /// Move NOT: `rd = !op2`.
    Mvn { s: bool, cond: Cond, rd: Reg, op2: Operand2 },
    /// Compare/test: sets flags from `rn <op> op2`.
    Cmp { op: CmpOp, cond: Cond, rn: Reg, op2: Operand2 },
    /// Move 16-bit immediate into the low half, zeroing the top (`T2`).
    MovW { cond: Cond, rd: Reg, imm16: u16 },
    /// Move 16-bit immediate into the top half, preserving the bottom (`T2`).
    MovT { cond: Cond, rd: Reg, imm16: u16 },
    /// Multiply: `rd = rn * rm`.
    Mul { s: bool, cond: Cond, rd: Reg, rn: Reg, rm: Reg },
    /// Multiply-accumulate: `rd = rn * rm + ra` (`A32`/`T2`).
    Mla { cond: Cond, rd: Reg, rn: Reg, rm: Reg, ra: Reg },
    /// Signed hardware divide (`T2` only): `rd = rn / rm`.
    Sdiv { cond: Cond, rd: Reg, rn: Reg, rm: Reg },
    /// Unsigned hardware divide (`T2` only).
    Udiv { cond: Cond, rd: Reg, rn: Reg, rm: Reg },
    /// Bit-field insert (`T2` only): copies `width` low bits of `rn` into
    /// `rd` at `lsb`.
    Bfi { cond: Cond, rd: Reg, rn: Reg, lsb: u8, width: u8 },
    /// Bit-field clear (`T2` only).
    Bfc { cond: Cond, rd: Reg, lsb: u8, width: u8 },
    /// Unsigned bit-field extract (`T2` only).
    Ubfx { cond: Cond, rd: Reg, rn: Reg, lsb: u8, width: u8 },
    /// Signed bit-field extract (`T2` only).
    Sbfx { cond: Cond, rd: Reg, rn: Reg, lsb: u8, width: u8 },
    /// Reverse bit order (`T2` only).
    Rbit { cond: Cond, rd: Reg, rm: Reg },
    /// Reverse byte order.
    Rev { cond: Cond, rd: Reg, rm: Reg },
    /// Load from memory.
    Ldr { cond: Cond, size: MemSize, signed: bool, rt: Reg, addr: AddrMode },
    /// Store to memory.
    Str { cond: Cond, size: MemSize, rt: Reg, addr: AddrMode },
    /// PC-relative literal load (word).
    LdrLit { cond: Cond, rt: Reg, offset: i32 },
    /// Load multiple, ascending from `rn`.
    Ldm { cond: Cond, rn: Reg, writeback: bool, regs: RegList },
    /// Store multiple, ascending from `rn`.
    Stm { cond: Cond, rn: Reg, writeback: bool, regs: RegList },
    /// Push onto the stack (descending).
    Push { cond: Cond, regs: RegList },
    /// Pop from the stack (ascending).
    Pop { cond: Cond, regs: RegList },
    /// Branch (possibly conditional).
    B { cond: Cond, offset: i32 },
    /// Branch with link (call).
    Bl { offset: i32 },
    /// Branch to register (return / indirect jump).
    Bx { cond: Cond, rm: Reg },
    /// Compare against zero and branch (`T2` only, forward only).
    Cbz { nonzero: bool, rn: Reg, offset: i32 },
    /// IT block header (`T2` only). `mask` bit *i* (LSB-first) gives the
    /// condition sense of the *i*-th following instruction beyond the first:
    /// `1` = then, `0` = else. `count` is 1..=4 total predicated instrs.
    It { firstcond: Cond, mask: u8, count: u8 },
    /// Table branch byte (`T2` only): `pc += 2 * mem8[rn + rm]`.
    Tbb { rn: Reg, rm: Reg },
    /// Table branch halfword (`T2` only): `pc += 2 * mem16[rn + 2*rm]`.
    Tbh { rn: Reg, rm: Reg },
    /// Supervisor call.
    Svc { imm: u8 },
    /// Breakpoint.
    Bkpt { imm: u8 },
    /// No operation.
    Nop,
    /// Disable interrupts (`cpsid i`).
    Cpsid,
    /// Enable interrupts (`cpsie i`).
    Cpsie,
    /// Wait for interrupt.
    Wfi,
}

/// An error describing why an instruction cannot be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeInstrError {
    /// The offending instruction, rendered.
    pub instr: String,
    /// Target mode.
    pub mode: IsaMode,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for EncodeInstrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot encode `{}` in {}: {}", self.instr, self.mode, self.reason)
    }
}

impl std::error::Error for EncodeInstrError {}

impl Instr {
    fn err(&self, mode: IsaMode, reason: impl Into<String>) -> EncodeInstrError {
        EncodeInstrError { instr: self.to_string(), mode, reason: reason.into() }
    }

    /// The condition field of this instruction ([`Cond::Al`] when it has
    /// none).
    #[must_use]
    pub fn cond(&self) -> Cond {
        match *self {
            Instr::Dp { cond, .. }
            | Instr::Mov { cond, .. }
            | Instr::Mvn { cond, .. }
            | Instr::Cmp { cond, .. }
            | Instr::MovW { cond, .. }
            | Instr::MovT { cond, .. }
            | Instr::Mul { cond, .. }
            | Instr::Mla { cond, .. }
            | Instr::Sdiv { cond, .. }
            | Instr::Udiv { cond, .. }
            | Instr::Bfi { cond, .. }
            | Instr::Bfc { cond, .. }
            | Instr::Ubfx { cond, .. }
            | Instr::Sbfx { cond, .. }
            | Instr::Rbit { cond, .. }
            | Instr::Rev { cond, .. }
            | Instr::Ldr { cond, .. }
            | Instr::Str { cond, .. }
            | Instr::LdrLit { cond, .. }
            | Instr::Ldm { cond, .. }
            | Instr::Stm { cond, .. }
            | Instr::Push { cond, .. }
            | Instr::Pop { cond, .. }
            | Instr::B { cond, .. }
            | Instr::Bx { cond, .. } => cond,
            _ => Cond::Al,
        }
    }

    /// Whether the instruction fits the narrow 16-bit encoding shared by
    /// `T16` and `T2`.
    ///
    /// The narrow repertoire mirrors classic Thumb: low registers,
    /// two-address arithmetic, 8-bit immediates, scaled 5-bit load/store
    /// offsets — plus `CBZ` and `IT` which only exist narrowly in `T2`.
    #[must_use]
    pub fn fits_narrow(&self) -> bool {
        // Conditions are not expressible narrowly except on branches.
        if self.cond() != Cond::Al && !matches!(self, Instr::B { .. }) {
            return false;
        }
        match *self {
            Instr::Dp { op, s, rd, rn, op2, .. } => {
                if s {
                    return false; // ALIA narrow ALU never sets flags
                }
                match op2 {
                    Operand2::Imm(v) => match op {
                        // add/sub rd, rn, #imm3 or rd, rd, #imm8
                        DpOp::Add | DpOp::Sub => {
                            (rd.is_low() && rn.is_low() && v < 8)
                                || (rd == rn && rd.is_low() && v < 256)
                                || (rd == rn && rd == Reg::SP && v < 512 && v % 4 == 0)
                        }
                        _ => false,
                    },
                    Operand2::Reg(rm) => match op {
                        // add/sub rd, rn, rm (3-address low)
                        DpOp::Add | DpOp::Sub => rd.is_low() && rn.is_low() && rm.is_low(),
                        // reverse-subtract has no narrow register form
                        DpOp::Rsb => false,
                        // two-address ALU: rd = rd op rm
                        _ => rd == rn && rd.is_low() && rm.is_low(),
                    },
                    Operand2::RegShiftImm(..) | Operand2::RegShiftReg(..) => false,
                }
            }
            Instr::Mov { s, rd, op2, .. } => {
                if s {
                    return false;
                }
                match op2 {
                    Operand2::Imm(v) => rd.is_low() && v < 256,
                    // mov rd, rm: any-to-any (hi-reg move exists narrowly)
                    Operand2::Reg(_) => true,
                    // shifts by immediate: low regs, amount 0..=31; the
                    // narrow format has no ROR-by-immediate slot
                    Operand2::RegShiftImm(rm, sh, amt) => {
                        sh != crate::ShiftOp::Ror && rd.is_low() && rm.is_low() && amt < 32
                    }
                    // shift by register: two-address low
                    Operand2::RegShiftReg(rm, _, rs) => {
                        rd == rm && rd.is_low() && rs.is_low()
                    }
                }
            }
            Instr::Mvn { s, rd, op2, .. } => {
                !s && matches!(op2, Operand2::Reg(rm) if rd.is_low() && rm.is_low())
            }
            Instr::Cmp { op, rn, op2, .. } => match op {
                CmpOp::Cmp => match op2 {
                    Operand2::Imm(v) => rn.is_low() && v < 256,
                    Operand2::Reg(_) => true, // hi-reg compare exists narrowly
                    _ => false,
                },
                CmpOp::Tst | CmpOp::Cmn => {
                    matches!(op2, Operand2::Reg(rm) if rn.is_low() && rm.is_low())
                }
                CmpOp::Teq => false,
            },
            Instr::Mul { s, rd, rn, rm, .. } => {
                // two-address: rd = rd * rm (rn must alias rd or rm commutes)
                !s && rd.is_low() && rm.is_low() && (rd == rn || rd == rm) && rn.is_low()
            }
            Instr::Rev { rd, rm, .. } => rd.is_low() && rm.is_low(),
            Instr::Ldr { size, signed, rt, addr, .. } => {
                if addr.index != Index::Offset || !rt.is_low() {
                    return false;
                }
                match addr.offset {
                    Offset::Imm(i) => {
                        if addr.base == Reg::SP {
                            return size == MemSize::Word
                                && !signed
                                && (0..1024).contains(&i)
                                && i % 4 == 0;
                        }
                        if !addr.base.is_low() || signed {
                            return false;
                        }
                        let scale = size.bytes() as i32;
                        (0..32 * scale).contains(&i) && i % scale == 0
                    }
                    Offset::Reg(rm, 0) => addr.base.is_low() && rm.is_low(),
                    Offset::Reg(..) => false,
                }
            }
            Instr::Str { size, rt, addr, .. } => {
                if addr.index != Index::Offset || !rt.is_low() {
                    return false;
                }
                match addr.offset {
                    Offset::Imm(i) => {
                        if addr.base == Reg::SP {
                            return size == MemSize::Word && (0..1024).contains(&i) && i % 4 == 0;
                        }
                        if !addr.base.is_low() {
                            return false;
                        }
                        let scale = size.bytes() as i32;
                        (0..32 * scale).contains(&i) && i % scale == 0
                    }
                    Offset::Reg(rm, 0) => addr.base.is_low() && rm.is_low(),
                    Offset::Reg(..) => false,
                }
            }
            Instr::LdrLit { rt, offset, .. } => rt.is_low() && (0..1024).contains(&offset),
            Instr::Ldm { rn, writeback, regs, .. } => {
                rn.is_low() && writeback && regs.all_low() && !regs.is_empty()
            }
            Instr::Stm { rn, writeback, regs, .. } => {
                rn.is_low() && writeback && regs.all_low() && !regs.is_empty()
            }
            Instr::Push { regs, .. } => {
                !regs.is_empty() && regs.bits() & !0x40FF == 0 // low regs + lr
            }
            Instr::Pop { regs, .. } => {
                !regs.is_empty() && regs.bits() & !0x80FF == 0 // low regs + pc
            }
            Instr::B { cond, offset } => {
                // Narrow branches store (offset - pc_bias)/2 in a signed
                // imm11 (unconditional) or imm8 (conditional) field.
                if cond == Cond::Al {
                    (-2044..=2050).contains(&offset) && offset % 2 == 0
                } else {
                    (-252..=258).contains(&offset) && offset % 2 == 0
                }
            }
            Instr::Cbz { rn, offset, .. } => {
                rn.is_low() && (4..=130).contains(&offset) && offset % 2 == 0
            }
            Instr::It { .. }
            | Instr::Svc { .. }
            | Instr::Bkpt { .. }
            | Instr::Nop
            | Instr::Cpsid
            | Instr::Cpsie
            | Instr::Wfi => true,
            Instr::Bx { .. } => true,
            _ => false,
        }
    }

    /// The immediate shift amount of a shifted-register operand or a
    /// register-offset address.
    fn shift_amount(&self) -> Option<u8> {
        match *self {
            Instr::Dp { op2, .. }
            | Instr::Mov { op2, .. }
            | Instr::Mvn { op2, .. }
            | Instr::Cmp { op2, .. } => match op2 {
                Operand2::RegShiftImm(_, _, amt) => Some(amt),
                _ => None,
            },
            Instr::Ldr { addr, .. } | Instr::Str { addr, .. } => match addr.offset {
                Offset::Reg(_, amt) => Some(amt),
                Offset::Imm(_) => None,
            },
            _ => None,
        }
    }

    /// Validates that the instruction is expressible in `mode`.
    ///
    /// # Errors
    ///
    /// Returns an [`EncodeInstrError`] describing the first violated
    /// constraint (wide-only operation in `T16`, condition outside `A32`,
    /// immediate not encodable, offset out of range, ...).
    pub fn validate(&self, mode: IsaMode) -> Result<(), EncodeInstrError> {
        // Immediate shift amounts: 5-bit fields in every encoding, and an
        // amount of 0 executes as no shift, so 32 and above have no
        // encoding (masking them would turn `lsr #32` into a move).
        if let Some(amt) = self.shift_amount().filter(|&amt| amt > 31) {
            return Err(self.err(mode, format!("shift amount {amt} out of range 0..=31")));
        }
        // Conditions: A32 anywhere; T16/T2 only on B (IT predication is a
        // separate mechanism handled by the executor, and predicated
        // instructions still carry `Cond::Al` in semantic form).
        if self.cond() != Cond::Al
            && mode != IsaMode::A32
            && !matches!(self, Instr::B { .. })
        {
            return Err(self.err(mode, "condition fields require A32 (use IT in T2)"));
        }
        let wide_only = matches!(
            self,
            Instr::MovW { .. }
                | Instr::MovT { .. }
                | Instr::Sdiv { .. }
                | Instr::Udiv { .. }
                | Instr::Bfi { .. }
                | Instr::Bfc { .. }
                | Instr::Ubfx { .. }
                | Instr::Sbfx { .. }
                | Instr::Rbit { .. }
                | Instr::Tbb { .. }
                | Instr::Tbh { .. }
                | Instr::Mla { .. }
        );
        match mode {
            IsaMode::T16 => {
                if wide_only && !matches!(self, Instr::Mla { .. }) {
                    return Err(self.err(mode, "wide-only operation unavailable in T16"));
                }
                if matches!(self, Instr::Mla { .. }) {
                    return Err(self.err(mode, "mla unavailable in T16"));
                }
                if matches!(self, Instr::Cbz { .. } | Instr::It { .. }) {
                    return Err(self.err(mode, "cbz/it require T2"));
                }
                if matches!(self, Instr::Bl { offset } if !(-4*1024*1024..4*1024*1024).contains(offset))
                {
                    return Err(self.err(mode, "bl offset out of range"));
                }
                if matches!(self, Instr::Bl { .. }) {
                    return Ok(()); // BL is the one wide T16 instruction
                }
                if !self.fits_narrow() {
                    return Err(self.err(mode, "does not fit the 16-bit encoding"));
                }
                Ok(())
            }
            IsaMode::T2 => {
                if matches!(self, Instr::Cmp { op: CmpOp::Teq, .. }) {
                    return Err(self.err(mode, "teq unavailable in T2"));
                }
                self.check_wide_fields(mode)
            }
            IsaMode::A32 => {
                if wide_only {
                    return Err(self.err(
                        mode,
                        "operation requires the T2 repertoire (ARMv6T2-era); the A32 profile models an ARM7-class core",
                    ));
                }
                if matches!(self, Instr::Cbz { .. } | Instr::It { .. }) {
                    return Err(self.err(mode, "cbz/it require T2"));
                }
                self.check_a32_fields()
            }
        }
    }

    /// Field-range checks for `A32` encodings.
    fn check_a32_fields(&self) -> Result<(), EncodeInstrError> {
        let mode = IsaMode::A32;
        match *self {
            Instr::Dp { op2: Operand2::Imm(v), .. }
            | Instr::Mov { op2: Operand2::Imm(v), .. }
            | Instr::Mvn { op2: Operand2::Imm(v), .. }
            | Instr::Cmp { op2: Operand2::Imm(v), .. }
                if !a32_imm_encodable(v) => {
                    return Err(self.err(mode, format!("immediate {v:#x} not a rotated imm8")));
                }
            Instr::Ldr { addr, size, signed, .. } => {
                let max = if size == MemSize::Word || (size == MemSize::Byte && !signed) {
                    4096
                } else {
                    256 // halfword/signed forms have imm8 range
                };
                if let Offset::Imm(i) = addr.offset {
                    if i.unsigned_abs() >= max {
                        return Err(self.err(mode, format!("offset {i} out of range")));
                    }
                }
            }
            Instr::Str { addr, size, .. } => {
                let max = if size == MemSize::Half { 256 } else { 4096 };
                if let Offset::Imm(i) = addr.offset {
                    if i.unsigned_abs() >= max {
                        return Err(self.err(mode, format!("offset {i} out of range")));
                    }
                }
            }
            Instr::LdrLit { offset, .. }
                if offset.unsigned_abs() >= 4096 => {
                    return Err(self.err(mode, "literal offset out of range"));
                }
            Instr::B { offset, .. } | Instr::Bl { offset } => {
                if offset % 4 != 0 {
                    return Err(self.err(mode, "branch offset must be word-aligned"));
                }
                if offset.unsigned_abs() >= 32 * 1024 * 1024 {
                    return Err(self.err(mode, "branch offset out of range"));
                }
            }
            Instr::Bfi { .. } => unreachable!("rejected as wide-only"),
            _ => {}
        }
        Ok(())
    }

    /// Field-range checks for the wide `T2` encodings (used when an
    /// instruction does not fit narrowly).
    fn check_wide_fields(&self, mode: IsaMode) -> Result<(), EncodeInstrError> {
        match *self {
            Instr::Dp { op2: Operand2::Imm(v), .. }
            | Instr::Mvn { op2: Operand2::Imm(v), .. }
            | Instr::Cmp { op2: Operand2::Imm(v), .. }
                if !self.fits_narrow() && !t2_imm_encodable(v) => {
                    return Err(
                        self.err(mode, format!("immediate {v:#x} not a T2 modified immediate"))
                    );
                }
            Instr::Mov { op2: Operand2::Imm(v), .. }
                if !self.fits_narrow() && !t2_imm_encodable(v) => {
                    return Err(self.err(
                        mode,
                        format!("immediate {v:#x} not a T2 modified immediate (use movw/movt)"),
                    ));
                }
            Instr::Dp { op2: Operand2::RegShiftReg(..), .. }
            | Instr::Mvn { op2: Operand2::RegShiftReg(..), .. }
            | Instr::Cmp { op2: Operand2::RegShiftReg(..), .. } => {
                return Err(self.err(mode, "register-shifted register requires A32"));
            }
            // Mov with a register-specified shift has a wide three-address
            // form in T2 (LSL.W/LSR.W/ASR.W/ROR.W rd, rm, rs).
            Instr::Mov { op2: Operand2::RegShiftReg(..), .. } => {}
            Instr::Ldr { addr, .. } | Instr::Str { addr, .. } => {
                if let Offset::Imm(i) = addr.offset {
                    if i.unsigned_abs() >= 1024 {
                        return Err(self.err(mode, format!("offset {i} exceeds wide imm range")));
                    }
                }
                if let Offset::Reg(_, s) = addr.offset {
                    if s > 3 {
                        return Err(self.err(mode, "register offset shift must be 0..=3"));
                    }
                }
            }
            Instr::LdrLit { offset, .. }
                if offset.unsigned_abs() >= 16 * 1024 => {
                    return Err(self.err(mode, "literal offset out of range"));
                }
            Instr::B { offset, .. } => {
                if offset % 2 != 0 {
                    return Err(self.err(mode, "branch offset must be halfword-aligned"));
                }
                if !(-131068..=131074).contains(&offset) {
                    return Err(self.err(mode, "wide branch offset out of range"));
                }
            }
            Instr::Bl { offset }
                if (offset % 2 != 0 || !(-2_097_148..=2_097_154).contains(&offset)) => {
                    return Err(self.err(mode, "bl offset out of range"));
                }
            Instr::Cbz { offset, .. }
                if (!(4..=130).contains(&offset) || offset % 2 != 0) => {
                    return Err(self.err(mode, "cbz offset must be 4..=130, even"));
                }
            Instr::It { mask, count, .. }
                if (!(1..=4).contains(&count) || mask >> (count - 1) != 0) => {
                    return Err(self.err(mode, "malformed IT block"));
                }
            // AL has no inverse for an else slot (ARM: UNPREDICTABLE).
            Instr::It { firstcond: Cond::Al, mask, count }
                if mask != (1 << (count - 1)) - 1 => {
                    return Err(self.err(mode, "IT AL cannot have an else slot"));
                }
            Instr::Bfi { lsb, width, .. }
            | Instr::Bfc { lsb, width, .. }
            | Instr::Ubfx { lsb, width, .. }
            | Instr::Sbfx { lsb, width, .. }
                if (width == 0 || u32::from(lsb) + u32::from(width) > 32) => {
                    return Err(self.err(mode, "bit-field out of range"));
                }
            _ => {}
        }
        Ok(())
    }

    /// The encoded size of this instruction in `mode`, in bytes.
    ///
    /// # Errors
    ///
    /// Returns an error when the instruction is not encodable in `mode`.
    pub fn size(&self, mode: IsaMode) -> Result<u32, EncodeInstrError> {
        self.validate(mode)?;
        Ok(match mode {
            IsaMode::A32 => 4,
            IsaMode::T16 => {
                if matches!(self, Instr::Bl { .. }) {
                    4
                } else {
                    2
                }
            }
            IsaMode::T2 => {
                if matches!(self, Instr::Bl { .. }) || !self.fits_narrow() {
                    4
                } else {
                    2
                }
            }
        })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn sfx(s: bool) -> &'static str {
            if s {
                "s"
            } else {
                ""
            }
        }
        match *self {
            Instr::Dp { op, s, cond, rd, rn, op2 } => {
                write!(f, "{}{}{} {rd}, {rn}, {op2}", op.mnemonic(), sfx(s), cond)
            }
            Instr::Mov { s, cond, rd, op2 } => match op2 {
                Operand2::RegShiftImm(rm, sh, amt) => {
                    write!(f, "{sh}{}{} {rd}, {rm}, #{amt}", sfx(s), cond)
                }
                Operand2::RegShiftReg(rm, sh, rs) => {
                    write!(f, "{sh}{}{} {rd}, {rm}, {rs}", sfx(s), cond)
                }
                _ => write!(f, "mov{}{} {rd}, {op2}", sfx(s), cond),
            },
            Instr::Mvn { s, cond, rd, op2 } => write!(f, "mvn{}{} {rd}, {op2}", sfx(s), cond),
            Instr::Cmp { op, cond, rn, op2 } => {
                write!(f, "{}{} {rn}, {op2}", op.mnemonic(), cond)
            }
            Instr::MovW { cond, rd, imm16 } => write!(f, "movw{cond} {rd}, #{imm16}"),
            Instr::MovT { cond, rd, imm16 } => write!(f, "movt{cond} {rd}, #{imm16}"),
            Instr::Mul { s, cond, rd, rn, rm } => {
                write!(f, "mul{}{} {rd}, {rn}, {rm}", sfx(s), cond)
            }
            Instr::Mla { cond, rd, rn, rm, ra } => write!(f, "mla{cond} {rd}, {rn}, {rm}, {ra}"),
            Instr::Sdiv { cond, rd, rn, rm } => write!(f, "sdiv{cond} {rd}, {rn}, {rm}"),
            Instr::Udiv { cond, rd, rn, rm } => write!(f, "udiv{cond} {rd}, {rn}, {rm}"),
            Instr::Bfi { cond, rd, rn, lsb, width } => {
                write!(f, "bfi{cond} {rd}, {rn}, #{lsb}, #{width}")
            }
            Instr::Bfc { cond, rd, lsb, width } => write!(f, "bfc{cond} {rd}, #{lsb}, #{width}"),
            Instr::Ubfx { cond, rd, rn, lsb, width } => {
                write!(f, "ubfx{cond} {rd}, {rn}, #{lsb}, #{width}")
            }
            Instr::Sbfx { cond, rd, rn, lsb, width } => {
                write!(f, "sbfx{cond} {rd}, {rn}, #{lsb}, #{width}")
            }
            Instr::Rbit { cond, rd, rm } => write!(f, "rbit{cond} {rd}, {rm}"),
            Instr::Rev { cond, rd, rm } => write!(f, "rev{cond} {rd}, {rm}"),
            Instr::Ldr { cond, size, signed, rt, addr } => {
                let suffix = match (size, signed) {
                    (MemSize::Word, _) => "",
                    (MemSize::Half, false) => "h",
                    (MemSize::Half, true) => "sh",
                    (MemSize::Byte, false) => "b",
                    (MemSize::Byte, true) => "sb",
                };
                write!(f, "ldr{suffix}{cond} {rt}, {addr}")
            }
            Instr::Str { cond, size, rt, addr } => {
                let suffix = match size {
                    MemSize::Word => "",
                    MemSize::Half => "h",
                    MemSize::Byte => "b",
                };
                write!(f, "str{suffix}{cond} {rt}, {addr}")
            }
            Instr::LdrLit { cond, rt, offset } => write!(f, "ldr{cond} {rt}, [pc, #{offset}]"),
            Instr::Ldm { cond, rn, writeback, regs } => {
                write!(f, "ldm{cond} {rn}{} {regs}", if writeback { "!," } else { "," })
            }
            Instr::Stm { cond, rn, writeback, regs } => {
                write!(f, "stm{cond} {rn}{} {regs}", if writeback { "!," } else { "," })
            }
            Instr::Push { cond, regs } => write!(f, "push{cond} {regs}"),
            Instr::Pop { cond, regs } => write!(f, "pop{cond} {regs}"),
            Instr::B { cond, offset } => write!(f, "b{cond} .{offset:+}"),
            Instr::Bl { offset } => write!(f, "bl .{offset:+}"),
            Instr::Bx { cond, rm } => write!(f, "bx{cond} {rm}"),
            Instr::Cbz { nonzero, rn, offset } => {
                write!(f, "cb{}z {rn}, .{offset:+}", if nonzero { "n" } else { "" })
            }
            Instr::It { firstcond, mask, count } => {
                let mut pat = String::new();
                for i in 0..count.saturating_sub(1) {
                    pat.push(if mask >> i & 1 != 0 { 't' } else { 'e' });
                }
                write!(f, "it{} {firstcond:?}", pat)?;
                Ok(())
            }
            Instr::Tbb { rn, rm } => write!(f, "tbb [{rn}, {rm}]"),
            Instr::Tbh { rn, rm } => write!(f, "tbh [{rn}, {rm}, lsl #1]"),
            Instr::Svc { imm } => write!(f, "svc #{imm}"),
            Instr::Bkpt { imm } => write!(f, "bkpt #{imm}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Cpsid => write!(f, "cpsid i"),
            Instr::Cpsie => write!(f, "cpsie i"),
            Instr::Wfi => write!(f, "wfi"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_low() -> Instr {
        Instr::Dp {
            op: DpOp::Add,
            s: false,
            cond: Cond::Al,
            rd: Reg::R0,
            rn: Reg::R1,
            op2: Operand2::Reg(Reg::R2),
        }
    }

    #[test]
    fn narrow_fit_three_address_add() {
        assert!(add_low().fits_narrow());
        let hi = Instr::Dp {
            op: DpOp::Add,
            s: false,
            cond: Cond::Al,
            rd: Reg::R8,
            rn: Reg::R1,
            op2: Operand2::Reg(Reg::R2),
        };
        assert!(!hi.fits_narrow());
    }

    #[test]
    fn narrow_two_address_rule_for_logic_ops() {
        let ok = Instr::Dp {
            op: DpOp::And,
            s: false,
            cond: Cond::Al,
            rd: Reg::R3,
            rn: Reg::R3,
            op2: Operand2::Reg(Reg::R4),
        };
        assert!(ok.fits_narrow());
        let three_addr = Instr::Dp {
            op: DpOp::And,
            s: false,
            cond: Cond::Al,
            rd: Reg::R3,
            rn: Reg::R2,
            op2: Operand2::Reg(Reg::R4),
        };
        assert!(!three_addr.fits_narrow());
    }

    #[test]
    fn sizes_by_mode() {
        let i = add_low();
        assert_eq!(i.size(IsaMode::A32).unwrap(), 4);
        assert_eq!(i.size(IsaMode::T16).unwrap(), 2);
        assert_eq!(i.size(IsaMode::T2).unwrap(), 2);

        let wide = Instr::Dp {
            op: DpOp::Add,
            s: false,
            cond: Cond::Al,
            rd: Reg::R8,
            rn: Reg::R9,
            op2: Operand2::Reg(Reg::R10),
        };
        assert_eq!(wide.size(IsaMode::A32).unwrap(), 4);
        assert!(wide.size(IsaMode::T16).is_err());
        assert_eq!(wide.size(IsaMode::T2).unwrap(), 4);
    }

    #[test]
    fn wide_ops_rejected_outside_t2() {
        let d = Instr::Sdiv { cond: Cond::Al, rd: Reg::R0, rn: Reg::R1, rm: Reg::R2 };
        assert!(d.validate(IsaMode::A32).is_err());
        assert!(d.validate(IsaMode::T16).is_err());
        assert!(d.validate(IsaMode::T2).is_ok());

        let w = Instr::MovW { cond: Cond::Al, rd: Reg::R0, imm16: 0x1234 };
        assert!(w.validate(IsaMode::A32).is_err());
        assert!(w.validate(IsaMode::T2).is_ok());
    }

    #[test]
    fn conditions_only_in_a32_or_branches() {
        let i = Instr::Dp {
            op: DpOp::Add,
            s: false,
            cond: Cond::Eq,
            rd: Reg::R0,
            rn: Reg::R0,
            op2: Operand2::Imm(1),
        };
        assert!(i.validate(IsaMode::A32).is_ok());
        assert!(i.validate(IsaMode::T16).is_err());
        assert!(i.validate(IsaMode::T2).is_err());

        let b = Instr::B { cond: Cond::Ne, offset: -8 };
        assert!(b.validate(IsaMode::T16).is_ok());
        assert!(b.validate(IsaMode::T2).is_ok());
    }

    #[test]
    fn a32_rejects_unencodable_immediates() {
        let i = Instr::Mov { s: false, cond: Cond::Al, rd: Reg::R0, op2: Operand2::Imm(0x12345) };
        assert!(i.validate(IsaMode::A32).is_err());
        let ok = Instr::Mov { s: false, cond: Cond::Al, rd: Reg::R0, op2: Operand2::Imm(0xFF00) };
        assert!(ok.validate(IsaMode::A32).is_ok());
    }

    #[test]
    fn t16_branch_ranges() {
        assert!(Instr::B { cond: Cond::Al, offset: 2050 }.fits_narrow());
        assert!(!Instr::B { cond: Cond::Al, offset: 2052 }.fits_narrow());
        assert!(Instr::B { cond: Cond::Eq, offset: -252 }.fits_narrow());
        assert!(!Instr::B { cond: Cond::Eq, offset: -254 }.fits_narrow());
        assert!(Instr::B { cond: Cond::Eq, offset: 258 }.fits_narrow());
        assert!(!Instr::B { cond: Cond::Eq, offset: 260 }.fits_narrow());
    }

    #[test]
    fn bl_is_always_four_bytes() {
        let bl = Instr::Bl { offset: 0x1000 };
        assert_eq!(bl.size(IsaMode::T16).unwrap(), 4);
        assert_eq!(bl.size(IsaMode::T2).unwrap(), 4);
        assert_eq!(bl.size(IsaMode::A32).unwrap(), 4);
    }

    #[test]
    fn push_pop_narrow_register_restrictions() {
        let p: RegList = [Reg::R4, Reg::R5, Reg::LR].into_iter().collect();
        assert!(Instr::Push { cond: Cond::Al, regs: p }.fits_narrow());
        let hi: RegList = [Reg::R8].into_iter().collect();
        assert!(!Instr::Push { cond: Cond::Al, regs: hi }.fits_narrow());
        let pc: RegList = [Reg::R4, Reg::PC].into_iter().collect();
        assert!(Instr::Pop { cond: Cond::Al, regs: pc }.fits_narrow());
    }

    #[test]
    fn display_smoke() {
        assert_eq!(add_low().to_string(), "add r0, r1, r2");
        let m = Instr::Mov {
            s: false,
            cond: Cond::Al,
            rd: Reg::R0,
            op2: Operand2::RegShiftImm(Reg::R1, crate::ShiftOp::Lsl, 2),
        };
        assert_eq!(m.to_string(), "lsl r0, r1, #2");
        assert_eq!(Instr::Nop.to_string(), "nop");
    }

    #[test]
    fn ldr_sp_relative_narrow() {
        let i = Instr::Ldr {
            cond: Cond::Al,
            size: MemSize::Word,
            signed: false,
            rt: Reg::R0,
            addr: AddrMode::imm(Reg::SP, 16),
        };
        assert!(i.fits_narrow());
        let far = Instr::Ldr {
            cond: Cond::Al,
            size: MemSize::Word,
            signed: false,
            rt: Reg::R0,
            addr: AddrMode::imm(Reg::SP, 1024),
        };
        assert!(!far.fits_narrow());
    }

    #[test]
    fn shift_amounts_above_31_are_rejected_in_every_mode() {
        use crate::ShiftOp;
        let mov = |amt| Instr::Mov {
            s: false,
            cond: Cond::Al,
            rd: Reg::R0,
            op2: Operand2::RegShiftImm(Reg::R1, ShiftOp::Lsr, amt),
        };
        let ldr = |amt| Instr::Ldr {
            cond: Cond::Al,
            size: MemSize::Word,
            signed: false,
            rt: Reg::R0,
            addr: AddrMode {
                base: Reg::R1,
                offset: Offset::Reg(Reg::R2, amt),
                index: Index::Offset,
            },
        };
        for mode in IsaMode::ALL {
            assert!(mov(31).validate(mode).is_ok(), "{mode}");
            for amt in [32, 40, 255] {
                let err = mov(amt).validate(mode).unwrap_err();
                assert_eq!(err.reason, format!("shift amount {amt} out of range 0..=31"), "{mode}");
                assert!(ldr(amt).validate(mode).is_err(), "{mode} ldr lsl #{amt}");
            }
        }
        assert!(ldr(31).validate(IsaMode::A32).is_ok());
    }

    #[test]
    fn the_most_negative_offset_is_out_of_range_in_every_mode() {
        // `i32::MIN.abs()` overflows: the range checks compare magnitudes.
        let post = AddrMode::post(Reg::R1, i32::MIN);
        let ldr = Instr::Ldr {
            cond: Cond::Al,
            size: MemSize::Word,
            signed: false,
            rt: Reg::R0,
            addr: post,
        };
        let str = Instr::Str { cond: Cond::Al, size: MemSize::Half, rt: Reg::R0, addr: post };
        let lit = Instr::LdrLit { cond: Cond::Al, rt: Reg::R0, offset: i32::MIN };
        for mode in IsaMode::ALL {
            for i in [ldr, str, lit] {
                assert!(i.validate(mode).is_err(), "{mode}: {i}");
            }
        }
    }

    #[test]
    fn cbz_range() {
        assert!(Instr::Cbz { nonzero: false, rn: Reg::R0, offset: 130 }.fits_narrow());
        assert!(!Instr::Cbz { nonzero: false, rn: Reg::R0, offset: 132 }.fits_narrow());
        assert!(!Instr::Cbz { nonzero: false, rn: Reg::R0, offset: -2 }.fits_narrow());
        assert!(!Instr::Cbz { nonzero: false, rn: Reg::R0, offset: 2 }.fits_narrow());
        assert!(Instr::Cbz { nonzero: true, rn: Reg::R7, offset: 4 }
            .validate(IsaMode::T2)
            .is_ok());
        assert!(Instr::Cbz { nonzero: true, rn: Reg::R7, offset: 4 }
            .validate(IsaMode::T16)
            .is_err());
    }
}
