//! Binary encoders for the three ALIA encodings.
//!
//! * `A32` uses layouts closely modelled on the classic ARM formats
//!   (data-processing with a 4-bit condition and flexible shifter operand,
//!   single/multiple data transfer, branch with 24-bit offset).
//! * `T16` uses layouts closely modelled on classic Thumb (16-bit
//!   halfwords), with `BL` as the single 32-bit instruction.
//! * `T2` reuses every `T16` narrow layout and adds wide (32-bit)
//!   instructions whose first halfword starts with the prefixes `0b11101`
//!   (wide data-processing) or `0b11110` (miscellaneous wide). The wide
//!   field packings are ALIA's own; they have the same field widths and
//!   therefore the same expressiveness as their Thumb-2 counterparts.
//!
//! All multi-byte units are little-endian; a wide Thumb instruction is
//! stored as two consecutive little-endian halfwords.

// Binary literals below group digits by instruction *field* boundaries,
// not uniform width; that is the readable form for encoding tables.
#![allow(clippy::unusual_byte_groupings)]

use crate::{
    a32_imm_encode, t2_imm_encode, AddrMode, CmpOp, Cond, DpOp, EncodeInstrError, Index, Instr,
    IsaMode, MemSize, Offset, Operand2, Reg, ShiftOp,
};

/// A single encoded instruction: up to four bytes plus its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedInstr {
    bytes: [u8; 4],
    len: u8,
}

impl EncodedInstr {
    fn halfword(hw: u16) -> EncodedInstr {
        let b = hw.to_le_bytes();
        EncodedInstr { bytes: [b[0], b[1], 0, 0], len: 2 }
    }

    fn word(w: u32) -> EncodedInstr {
        EncodedInstr { bytes: w.to_le_bytes(), len: 4 }
    }

    fn wide(hw1: u16, hw2: u16) -> EncodedInstr {
        let a = hw1.to_le_bytes();
        let b = hw2.to_le_bytes();
        EncodedInstr { bytes: [a[0], a[1], b[0], b[1]], len: 4 }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Encoded length in bytes (2 or 4).
    #[must_use]
    pub fn len(&self) -> u32 {
        u32::from(self.len)
    }

    /// Whether the encoding is empty (never; present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Wide-instruction opcode numbers in the `0b11110` miscellaneous class.
pub(crate) mod wop {
    pub const MOVW: u32 = 0;
    pub const MOVT: u32 = 1;
    pub const B: u32 = 2;
    pub const BL: u32 = 3;
    pub const BFI: u32 = 4;
    pub const BFC: u32 = 5;
    pub const UBFX: u32 = 6;
    pub const SBFX: u32 = 7;
    pub const SDIV: u32 = 8;
    pub const UDIV: u32 = 9;
    pub const MUL: u32 = 10;
    pub const MLA: u32 = 11;
    pub const RBIT: u32 = 12;
    pub const REV: u32 = 13;
    pub const TBB: u32 = 14;
    pub const TBH: u32 = 15;
    pub const LS_IMM_BASE: u32 = 16; // +0 ldr, +1 ldrb, +2 ldrh, +3 ldrsb, +4 ldrsh, +5 str, +6 strb, +7 strh
    pub const LS_REG_BASE: u32 = 24; // +0 ldr, +1 ldrb, +2 ldrh, +3 str, +4 strb, +5 strh, +6 ldrsb, +7 ldrsh
    pub const LDR_LIT: u32 = 32;
    pub const LDM: u32 = 33;
    pub const STM: u32 = 34;
    pub const PUSH: u32 = 35;
    pub const POP: u32 = 36;
}

fn a32_dp_bits(op: DpOp) -> u32 {
    match op {
        DpOp::And => 0,
        DpOp::Eor => 1,
        DpOp::Sub => 2,
        DpOp::Rsb => 3,
        DpOp::Add => 4,
        DpOp::Adc => 5,
        DpOp::Sbc => 6,
        DpOp::Orr => 12,
        DpOp::Bic => 14,
    }
}

pub(crate) fn a32_dp_from_bits(bits: u32) -> Option<DpOp> {
    Some(match bits {
        0 => DpOp::And,
        1 => DpOp::Eor,
        2 => DpOp::Sub,
        3 => DpOp::Rsb,
        4 => DpOp::Add,
        5 => DpOp::Adc,
        6 => DpOp::Sbc,
        12 => DpOp::Orr,
        14 => DpOp::Bic,
        _ => return None,
    })
}

fn shifter_operand(op2: Operand2) -> Option<(bool, u32)> {
    Some(match op2 {
        Operand2::Imm(v) => {
            let (rot, imm8) = a32_imm_encode(v)?;
            (true, u32::from(rot) << 8 | u32::from(imm8))
        }
        Operand2::Reg(rm) => (false, u32::from(rm.index())),
        Operand2::RegShiftImm(rm, sh, amt) => (
            false,
            u32::from(amt & 31) << 7 | u32::from(sh.bits()) << 5 | u32::from(rm.index()),
        ),
        Operand2::RegShiftReg(rm, sh, rs) => (
            false,
            u32::from(rs.index()) << 8
                | u32::from(sh.bits()) << 5
                | 1 << 4
                | u32::from(rm.index()),
        ),
    })
}

fn r(reg: Reg) -> u32 {
    u32::from(reg.index())
}

/// Encodes `instr` for `mode`.
///
/// # Errors
///
/// Returns an [`EncodeInstrError`] when the instruction is not expressible
/// in `mode` (see [`Instr::validate`]).
pub fn encode(instr: &Instr, mode: IsaMode) -> Result<EncodedInstr, EncodeInstrError> {
    instr.validate(mode)?;
    match mode {
        IsaMode::A32 => encode_a32(instr),
        IsaMode::T16 | IsaMode::T2 => {
            if matches!(instr, Instr::Bl { .. }) {
                return encode_wide(instr);
            }
            if instr.fits_narrow() {
                encode_narrow(instr)
            } else {
                debug_assert_eq!(mode, IsaMode::T2);
                encode_wide(instr)
            }
        }
    }
}

fn unsupported(instr: &Instr, mode: IsaMode, what: &str) -> EncodeInstrError {
    EncodeInstrError { instr: instr.to_string(), mode, reason: format!("unsupported: {what}") }
}

// ---------------------------------------------------------------------------
// A32
// ---------------------------------------------------------------------------

fn encode_a32(instr: &Instr) -> Result<EncodedInstr, EncodeInstrError> {
    let cond = u32::from(instr.cond().bits()) << 28;
    let w = match *instr {
        Instr::Dp { op, s, rd, rn, op2, .. } => {
            let (i, sh) = shifter_operand(op2)
                .ok_or_else(|| unsupported(instr, IsaMode::A32, "immediate"))?;
            cond | u32::from(i) << 25
                | a32_dp_bits(op) << 21
                | u32::from(s) << 20
                | r(rn) << 16
                | r(rd) << 12
                | sh
        }
        Instr::Mov { s, rd, op2, .. } => {
            let (i, sh) = shifter_operand(op2)
                .ok_or_else(|| unsupported(instr, IsaMode::A32, "immediate"))?;
            cond | u32::from(i) << 25 | 13 << 21 | u32::from(s) << 20 | r(rd) << 12 | sh
        }
        Instr::Mvn { s, rd, op2, .. } => {
            let (i, sh) = shifter_operand(op2)
                .ok_or_else(|| unsupported(instr, IsaMode::A32, "immediate"))?;
            cond | u32::from(i) << 25 | 15 << 21 | u32::from(s) << 20 | r(rd) << 12 | sh
        }
        Instr::Cmp { op, rn, op2, .. } => {
            let opbits = match op {
                CmpOp::Tst => 8,
                CmpOp::Teq => 9,
                CmpOp::Cmp => 10,
                CmpOp::Cmn => 11,
            };
            let (i, sh) = shifter_operand(op2)
                .ok_or_else(|| unsupported(instr, IsaMode::A32, "immediate"))?;
            cond | u32::from(i) << 25 | opbits << 21 | 1 << 20 | r(rn) << 16 | sh
        }
        Instr::Mul { s, rd, rn, rm, .. } => {
            cond | u32::from(s) << 20 | r(rd) << 16 | r(rm) << 8 | 0b1001 << 4 | r(rn)
        }
        Instr::Mla { rd, rn, rm, ra, .. } => {
            cond | 1 << 21 | r(rd) << 16 | r(ra) << 12 | r(rm) << 8 | 0b1001 << 4 | r(rn)
        }
        Instr::Ldr { size, signed, rt, addr, .. } => {
            return encode_a32_mem(instr, cond, true, size, signed, rt, addr);
        }
        Instr::Str { size, rt, addr, .. } => {
            return encode_a32_mem(instr, cond, false, size, false, rt, addr);
        }
        Instr::LdrLit { rt, offset, .. } => {
            let u = offset >= 0;
            let imm = offset.unsigned_abs();
            cond | 0b01 << 26
                | 1 << 24
                | u32::from(u) << 23
                | 1 << 20
                | r(Reg::PC) << 16
                | r(rt) << 12
                | imm
        }
        Instr::Ldm { rn, writeback, regs, .. } => {
            // LDMIA: P=0, U=1
            cond | 0b100 << 25
                | 1 << 23
                | u32::from(writeback) << 21
                | 1 << 20
                | r(rn) << 16
                | u32::from(regs.bits())
        }
        Instr::Stm { rn, writeback, regs, .. } => {
            cond | 0b100 << 25
                | 1 << 23
                | u32::from(writeback) << 21
                | r(rn) << 16
                | u32::from(regs.bits())
        }
        Instr::Push { regs, .. } => {
            // STMDB sp!: P=1, U=0, W=1
            cond | 0b100 << 25 | 1 << 24 | 1 << 21 | r(Reg::SP) << 16 | u32::from(regs.bits())
        }
        Instr::Pop { regs, .. } => {
            // LDMIA sp!: P=0, U=1, W=1, L=1
            cond | 0b100 << 25
                | 1 << 23
                | 1 << 21
                | 1 << 20
                | r(Reg::SP) << 16
                | u32::from(regs.bits())
        }
        Instr::B { offset, .. } => {
            let imm24 = ((offset - 8) >> 2) as u32 & 0x00FF_FFFF;
            cond | 0b101 << 25 | imm24
        }
        Instr::Bl { offset } => {
            let imm24 = ((offset - 8) >> 2) as u32 & 0x00FF_FFFF;
            cond | 0b101 << 25 | 1 << 24 | imm24
        }
        Instr::Bx { rm, .. } => cond | 0x012F_FF10 | r(rm),
        Instr::Svc { imm } => cond | 0b1111 << 24 | u32::from(imm),
        Instr::Bkpt { imm } => {
            cond | 0x0120_0070 | (u32::from(imm) & 0xF0) << 4 | u32::from(imm) & 0xF
        }
        Instr::Nop => cond | 0x0320_F000,
        Instr::Wfi => cond | 0x0320_F003,
        Instr::Cpsid => 0xF10C_0080,
        Instr::Cpsie => 0xF108_0080,
        Instr::Rev { rd, rm, .. } => cond | 0x06BF_0F30 | r(rd) << 12 | r(rm),
        _ => return Err(unsupported(instr, IsaMode::A32, "instruction class")),
    };
    Ok(EncodedInstr::word(w))
}

fn encode_a32_mem(
    instr: &Instr,
    cond: u32,
    load: bool,
    size: MemSize,
    signed: bool,
    rt: Reg,
    addr: AddrMode,
) -> Result<EncodedInstr, EncodeInstrError> {
    let (p, wbit) = match addr.index {
        Index::Offset => (1u32, 0u32),
        Index::PreIndex => (1, 1),
        Index::PostIndex => (0, 0), // post-index always writes back
    };
    // Word and unsigned byte use the single-data-transfer format.
    if size == MemSize::Word || (size == MemSize::Byte && !signed) {
        let b = u32::from(size == MemSize::Byte);
        let (i, u, off) = match addr.offset {
            Offset::Imm(v) => (0u32, u32::from(v >= 0), v.unsigned_abs()),
            Offset::Reg(rm, sh) => {
                (1, 1, u32::from(sh & 31) << 7 | u32::from(ShiftOp::Lsl.bits()) << 5 | r(rm))
            }
        };
        let w = cond | 0b01 << 26
            | i << 25
            | p << 24
            | u << 23
            | b << 22
            | wbit << 21
            | u32::from(load) << 20
            | r(addr.base) << 16
            | r(rt) << 12
            | off;
        return Ok(EncodedInstr::word(w));
    }
    // Halfword and signed transfers use the extended format.
    if addr.index == Index::PostIndex {
        return Err(unsupported(instr, IsaMode::A32, "post-indexed halfword/signed access"));
    }
    let (sbit, hbit) = match (size, signed) {
        (MemSize::Half, false) => (0u32, 1u32),
        (MemSize::Half, true) => (1, 1),
        (MemSize::Byte, true) => (1, 0),
        _ => unreachable!(),
    };
    let (immform, u, hi, lo) = match addr.offset {
        Offset::Imm(v) => {
            let a = v.unsigned_abs();
            (1u32, u32::from(v >= 0), a >> 4 & 0xF, a & 0xF)
        }
        Offset::Reg(rm, 0) => (0, 1, 0, r(rm)),
        Offset::Reg(..) => {
            return Err(unsupported(instr, IsaMode::A32, "shifted register halfword offset"))
        }
    };
    let w = cond | p << 24
        | u << 23
        | immform << 22
        | wbit << 21
        | u32::from(load) << 20
        | r(addr.base) << 16
        | r(rt) << 12
        | hi << 8
        | 1 << 7
        | sbit << 6
        | hbit << 5
        | 1 << 4
        | lo;
    Ok(EncodedInstr::word(w))
}

// ---------------------------------------------------------------------------
// Narrow (T16 / T2)
// ---------------------------------------------------------------------------

/// Narrow ALU opcode numbers (format `010000 op4 rm3 rd3`).
pub(crate) fn narrow_alu_bits(op: DpOp) -> Option<u16> {
    Some(match op {
        DpOp::And => 0,
        DpOp::Eor => 1,
        DpOp::Adc => 5,
        DpOp::Sbc => 6,
        DpOp::Orr => 12,
        DpOp::Bic => 14,
        // Add/Sub/Rsb use dedicated formats.
        DpOp::Add | DpOp::Sub | DpOp::Rsb => return None,
    })
}

pub(crate) fn narrow_alu_from_bits(bits: u16) -> Option<DpOp> {
    Some(match bits {
        0 => DpOp::And,
        1 => DpOp::Eor,
        5 => DpOp::Adc,
        6 => DpOp::Sbc,
        12 => DpOp::Orr,
        14 => DpOp::Bic,
        _ => return None,
    })
}

fn rl(reg: Reg) -> u16 {
    u16::from(reg.index() & 7)
}

pub(crate) fn it_field_encode(firstcond: Cond, mask: u8, count: u8) -> u16 {
    debug_assert!((1..=4).contains(&count));
    let c0 = u16::from(firstcond.bits() & 1);
    let mut field = 0u16;
    for i in 0..count - 1 {
        let then = mask >> i & 1 != 0;
        let bit = if then { c0 } else { 1 - c0 };
        field |= bit << (3 - i);
    }
    field |= 1 << (4 - count);
    field
}

/// The `(mask, count)` of an IT block's mask field, or `None` for a
/// field with no slots, or for an AL block with an else slot (AL has no
/// inverse; ARM makes that form UNPREDICTABLE).
pub(crate) fn it_field_decode(firstcond: Cond, field: u16) -> Option<(u8, u8)> {
    if field == 0 {
        return None;
    }
    let p = field.trailing_zeros() as u8; // 0..=3
    let count = 4 - p;
    let c0 = u16::from(firstcond.bits() & 1);
    let mut mask = 0u8;
    for i in 0..count - 1 {
        if field >> (3 - i) & 1 == c0 {
            mask |= 1 << i;
        }
    }
    if firstcond == Cond::Al && mask != (1 << (count - 1)) - 1 {
        return None;
    }
    Some((mask, count))
}

#[allow(clippy::too_many_lines)]
fn encode_narrow(instr: &Instr) -> Result<EncodedInstr, EncodeInstrError> {
    let hw: u16 = match *instr {
        Instr::Mov { rd, op2, .. } => match op2 {
            Operand2::Imm(v) => 0b001_00 << 11 | rl(rd) << 8 | v as u16,
            Operand2::Reg(rm) => {
                0b010001_10 << 8 | u16::from(rm.index()) << 4 | u16::from(rd.index())
            }
            Operand2::RegShiftImm(rm, sh, amt) => {
                debug_assert!(sh != ShiftOp::Ror);
                u16::from(sh.bits()) << 11 | u16::from(amt & 31) << 6 | rl(rm) << 3 | rl(rd)
            }
            Operand2::RegShiftReg(rm, sh, rs) => {
                debug_assert_eq!(rd, rm);
                let op4 = match sh {
                    ShiftOp::Lsl => 2,
                    ShiftOp::Lsr => 3,
                    ShiftOp::Asr => 4,
                    ShiftOp::Ror => 7,
                };
                0b010000 << 10 | op4 << 6 | rl(rs) << 3 | rl(rd)
            }
        },
        Instr::Mvn { rd, op2: Operand2::Reg(rm), .. } => {
            0b010000 << 10 | 15 << 6 | rl(rm) << 3 | rl(rd)
        }
        Instr::Dp { op, rd, rn, op2, .. } => match (op, op2) {
            (DpOp::Add | DpOp::Sub, Operand2::Imm(v)) => {
                let sub = op == DpOp::Sub;
                if rd == rn && rd == Reg::SP {
                    // add/sub sp, #imm7*4
                    0b1011_0000 << 8 | u16::from(sub) << 7 | (v / 4) as u16
                } else if rd == rn && v >= 8 {
                    // two-address imm8
                    let opc = if sub { 0b001_11 } else { 0b001_10 };
                    opc << 11 | rl(rd) << 8 | v as u16
                } else {
                    // three-address imm3
                    0b000_11 << 11
                        | 1 << 10
                        | u16::from(sub) << 9
                        | (v as u16) << 6
                        | rl(rn) << 3
                        | rl(rd)
                }
            }
            (DpOp::Add | DpOp::Sub, Operand2::Reg(rm)) => {
                let sub = op == DpOp::Sub;
                0b000_11 << 11 | u16::from(sub) << 9 | rl(rm) << 6 | rl(rn) << 3 | rl(rd)
            }
            (_, Operand2::Reg(rm)) => {
                let op4 = narrow_alu_bits(op)
                    .ok_or_else(|| unsupported(instr, IsaMode::T16, "ALU op"))?;
                debug_assert_eq!(rd, rn);
                0b010000 << 10 | op4 << 6 | rl(rm) << 3 | rl(rd)
            }
            _ => return Err(unsupported(instr, IsaMode::T16, "operand form")),
        },
        Instr::Cmp { op, rn, op2, .. } => match (op, op2) {
            (CmpOp::Cmp, Operand2::Imm(v)) => 0b001_01 << 11 | rl(rn) << 8 | v as u16,
            (CmpOp::Cmp, Operand2::Reg(rm)) => {
                0b010001_01 << 8 | u16::from(rm.index()) << 4 | u16::from(rn.index())
            }
            (CmpOp::Tst, Operand2::Reg(rm)) => 0b010000 << 10 | 8 << 6 | rl(rm) << 3 | rl(rn),
            (CmpOp::Cmn, Operand2::Reg(rm)) => 0b010000 << 10 | 11 << 6 | rl(rm) << 3 | rl(rn),
            _ => return Err(unsupported(instr, IsaMode::T16, "compare form")),
        },
        Instr::Mul { rd, rn, rm, .. } => {
            let other = if rd == rn { rm } else { rn };
            0b010000 << 10 | 13 << 6 | rl(other) << 3 | rl(rd)
        }
        Instr::Rev { rd, rm, .. } => {
            // custom slot in the misc space: 1011_1010_00 rm3 rd3
            0b1011_1010_00 << 6 | rl(rm) << 3 | rl(rd)
        }
        Instr::Ldr { size, rt, addr, .. } | Instr::Str { size, rt, addr, .. } => {
            let load = matches!(instr, Instr::Ldr { .. });
            let signed = matches!(instr, Instr::Ldr { signed: true, .. });
            match addr.offset {
                Offset::Imm(v) => {
                    if addr.base == Reg::SP {
                        0b1001 << 12 | u16::from(load) << 11 | rl(rt) << 8 | (v / 4) as u16
                    } else {
                        match size {
                            MemSize::Word => {
                                0b011_0 << 12
                                    | u16::from(load) << 11
                                    | ((v / 4) as u16) << 6
                                    | rl(addr.base) << 3
                                    | rl(rt)
                            }
                            MemSize::Byte => {
                                0b011_1 << 12
                                    | u16::from(load) << 11
                                    | (v as u16) << 6
                                    | rl(addr.base) << 3
                                    | rl(rt)
                            }
                            MemSize::Half => {
                                0b1000 << 12
                                    | u16::from(load) << 11
                                    | ((v / 2) as u16) << 6
                                    | rl(addr.base) << 3
                                    | rl(rt)
                            }
                        }
                    }
                }
                Offset::Reg(rm, 0) => {
                    let opc3: u16 = match (load, size, signed) {
                        (false, MemSize::Word, _) => 0b000,
                        (false, MemSize::Half, _) => 0b001,
                        (false, MemSize::Byte, _) => 0b010,
                        (true, MemSize::Byte, true) => 0b011,
                        (true, MemSize::Word, _) => 0b100,
                        (true, MemSize::Half, false) => 0b101,
                        (true, MemSize::Byte, false) => 0b110,
                        (true, MemSize::Half, true) => 0b111,
                    };
                    0b0101 << 12 | opc3 << 9 | rl(rm) << 6 | rl(addr.base) << 3 | rl(rt)
                }
                Offset::Reg(..) => {
                    return Err(unsupported(instr, IsaMode::T16, "shifted register offset"))
                }
            }
        }
        Instr::LdrLit { rt, offset, .. } => 0b01001 << 11 | rl(rt) << 8 | (offset / 4) as u16,
        Instr::Ldm { rn, regs, .. } => {
            0b1100 << 12 | 1 << 11 | rl(rn) << 8 | regs.bits() & 0xFF
        }
        Instr::Stm { rn, regs, .. } => 0b1100 << 12 | rl(rn) << 8 | regs.bits() & 0xFF,
        Instr::Push { regs, .. } => {
            0b1011_0100 << 8 | u16::from(regs.contains(Reg::LR)) << 8 | regs.bits() & 0xFF
        }
        Instr::Pop { regs, .. } => {
            0b1011_1100 << 8 | u16::from(regs.contains(Reg::PC)) << 8 | regs.bits() & 0xFF
        }
        Instr::B { cond: Cond::Al, offset } => {
            let imm11 = ((offset - 4) >> 1) as u16 & 0x7FF;
            0b11100 << 11 | imm11
        }
        Instr::B { cond, offset } => {
            let imm8 = ((offset - 4) >> 1) as u16 & 0xFF;
            0b1101 << 12 | u16::from(cond.bits()) << 8 | imm8
        }
        Instr::Bx { rm, .. } => 0b010001_11 << 8 | u16::from(rm.index()) << 4,
        Instr::Cbz { nonzero, rn, offset } => {
            let i6 = ((offset - 4) >> 1) as u16 & 0x3F;
            0b1011 << 12 | u16::from(nonzero) << 11 | (i6 >> 5) << 9 | 1 << 8 | (i6 & 31) << 3
                | rl(rn)
        }
        Instr::It { firstcond, mask, count } => {
            0b1011_1111 << 8 | u16::from(firstcond.bits()) << 4 | it_field_encode(firstcond, mask, count)
        }
        Instr::Svc { imm } => 0b1101_1111 << 8 | u16::from(imm),
        Instr::Bkpt { imm } => 0b1011_1110 << 8 | u16::from(imm),
        Instr::Nop => 0xBF00,
        Instr::Wfi => 0xBF30,
        Instr::Cpsid => 0xB672,
        Instr::Cpsie => 0xB662,
        _ => return Err(unsupported(instr, IsaMode::T16, "instruction class")),
    };
    Ok(EncodedInstr::halfword(hw))
}

// ---------------------------------------------------------------------------
// Wide (T2, plus BL in T16)
// ---------------------------------------------------------------------------

/// Packs a miscellaneous wide instruction: prefix `11110`, 6-bit opcode,
/// 21-bit payload.
fn misc_wide(op: u32, payload: u32) -> EncodedInstr {
    debug_assert!(op < 64 && payload < 1 << 21);
    let hw1 = 0b11110 << 11 | (op as u16) << 5 | (payload >> 16) as u16;
    let hw2 = payload as u16;
    EncodedInstr::wide(hw1, hw2)
}

/// Packs a wide data-processing instruction: prefix `11101`.
fn dp_wide(op4: u32, s: bool, rd: Reg, rn: Reg, form: u32, operand: u32) -> EncodedInstr {
    debug_assert!(op4 < 16 && form < 4 && operand < 1 << 12);
    let rn4 = r(rn);
    let hw1 = (0b11101u32 << 11
        | op4 << 7
        | u32::from(s) << 6
        | r(rd) << 2
        | rn4 >> 2) as u16;
    let hw2 = ((rn4 & 3) << 14 | form << 12 | operand) as u16;
    EncodedInstr::wide(hw1, hw2)
}

fn wide_operand(instr: &Instr, op2: Operand2) -> Result<(u32, u32), EncodeInstrError> {
    match op2 {
        Operand2::Imm(v) => {
            let f = t2_imm_encode(v)
                .ok_or_else(|| unsupported(instr, IsaMode::T2, "modified immediate"))?;
            Ok((0, u32::from(f)))
        }
        Operand2::Reg(rm) => Ok((1, r(rm))),
        Operand2::RegShiftImm(rm, sh, amt) => {
            Ok((1, u32::from(amt & 31) << 7 | u32::from(sh.bits()) << 5 | r(rm)))
        }
        // Form 2: register-specified shift (MOV only, checked by validate).
        Operand2::RegShiftReg(rm, sh, rs) => {
            Ok((2, u32::from(sh.bits()) << 8 | r(rs) << 4 | r(rm)))
        }
    }
}

#[allow(clippy::too_many_lines)]
fn encode_wide(instr: &Instr) -> Result<EncodedInstr, EncodeInstrError> {
    Ok(match *instr {
        Instr::Dp { op, s, rd, rn, op2, .. } => {
            let (form, operand) = wide_operand(instr, op2)?;
            dp_wide(a32_dp_bits(op), s, rd, rn, form, operand)
        }
        Instr::Mov { s, rd, op2, .. } => {
            let (form, operand) = wide_operand(instr, op2)?;
            dp_wide(13, s, rd, Reg::R0, form, operand)
        }
        Instr::Mvn { s, rd, op2, .. } => {
            let (form, operand) = wide_operand(instr, op2)?;
            dp_wide(15, s, rd, Reg::R0, form, operand)
        }
        Instr::Cmp { op, rn, op2, .. } => {
            let opbits = match op {
                CmpOp::Tst => 8,
                CmpOp::Teq => 9,
                CmpOp::Cmp => 10,
                CmpOp::Cmn => 11,
            };
            let (form, operand) = wide_operand(instr, op2)?;
            dp_wide(opbits, true, Reg::R0, rn, form, operand)
        }
        Instr::MovW { rd, imm16, .. } => misc_wide(wop::MOVW, r(rd) << 16 | u32::from(imm16)),
        Instr::MovT { rd, imm16, .. } => misc_wide(wop::MOVT, r(rd) << 16 | u32::from(imm16)),
        Instr::B { cond, offset } => {
            let imm17 = ((offset - 4) >> 1) as u32 & 0x1_FFFF;
            misc_wide(wop::B, u32::from(cond.bits()) << 17 | imm17)
        }
        Instr::Bl { offset } => {
            let imm21 = ((offset - 4) >> 1) as u32 & 0x1F_FFFF;
            misc_wide(wop::BL, imm21)
        }
        Instr::Bfi { rd, rn, lsb, width, .. } => misc_wide(
            wop::BFI,
            r(rd) << 14 | r(rn) << 10 | u32::from(lsb) << 5 | u32::from(width - 1),
        ),
        Instr::Bfc { rd, lsb, width, .. } => {
            misc_wide(wop::BFC, r(rd) << 10 | u32::from(lsb) << 5 | u32::from(width - 1))
        }
        Instr::Ubfx { rd, rn, lsb, width, .. } => misc_wide(
            wop::UBFX,
            r(rd) << 14 | r(rn) << 10 | u32::from(lsb) << 5 | u32::from(width - 1),
        ),
        Instr::Sbfx { rd, rn, lsb, width, .. } => misc_wide(
            wop::SBFX,
            r(rd) << 14 | r(rn) << 10 | u32::from(lsb) << 5 | u32::from(width - 1),
        ),
        Instr::Sdiv { rd, rn, rm, .. } => {
            misc_wide(wop::SDIV, r(rd) << 8 | r(rn) << 4 | r(rm))
        }
        Instr::Udiv { rd, rn, rm, .. } => {
            misc_wide(wop::UDIV, r(rd) << 8 | r(rn) << 4 | r(rm))
        }
        Instr::Mul { s, rd, rn, rm, .. } => {
            misc_wide(wop::MUL, u32::from(s) << 12 | r(rd) << 8 | r(rn) << 4 | r(rm))
        }
        Instr::Mla { rd, rn, rm, ra, .. } => {
            misc_wide(wop::MLA, r(ra) << 12 | r(rd) << 8 | r(rn) << 4 | r(rm))
        }
        Instr::Rbit { rd, rm, .. } => misc_wide(wop::RBIT, r(rd) << 4 | r(rm)),
        Instr::Rev { rd, rm, .. } => misc_wide(wop::REV, r(rd) << 4 | r(rm)),
        Instr::Tbb { rn, rm } => misc_wide(wop::TBB, r(rn) << 4 | r(rm)),
        Instr::Tbh { rn, rm } => misc_wide(wop::TBH, r(rn) << 4 | r(rm)),
        Instr::Ldr { size, signed, rt, addr, .. } => {
            encode_wide_mem(instr, true, size, signed, rt, addr)?
        }
        Instr::Str { size, rt, addr, .. } => {
            encode_wide_mem(instr, false, size, false, rt, addr)?
        }
        Instr::LdrLit { rt, offset, .. } => {
            misc_wide(wop::LDR_LIT, r(rt) << 16 | (offset as u32 & 0xFFFF))
        }
        Instr::Ldm { rn, writeback, regs, .. } => misc_wide(
            wop::LDM,
            u32::from(writeback) << 20 | r(rn) << 16 | u32::from(regs.bits()),
        ),
        Instr::Stm { rn, writeback, regs, .. } => misc_wide(
            wop::STM,
            u32::from(writeback) << 20 | r(rn) << 16 | u32::from(regs.bits()),
        ),
        Instr::Push { regs, .. } => misc_wide(wop::PUSH, u32::from(regs.bits())),
        Instr::Pop { regs, .. } => misc_wide(wop::POP, u32::from(regs.bits())),
        _ => return Err(unsupported(instr, IsaMode::T2, "wide instruction class")),
    })
}

fn encode_wide_mem(
    instr: &Instr,
    load: bool,
    size: MemSize,
    signed: bool,
    rt: Reg,
    addr: AddrMode,
) -> Result<EncodedInstr, EncodeInstrError> {
    match addr.offset {
        Offset::Imm(v) => {
            let k = match (load, size, signed) {
                (true, MemSize::Word, _) => 0,
                (true, MemSize::Byte, false) => 1,
                (true, MemSize::Half, false) => 2,
                (true, MemSize::Byte, true) => 3,
                (true, MemSize::Half, true) => 4,
                (false, MemSize::Word, _) => 5,
                (false, MemSize::Byte, _) => 6,
                (false, MemSize::Half, _) => 7,
            };
            let idx = match addr.index {
                Index::Offset => 0u32,
                Index::PreIndex => 1,
                Index::PostIndex => 2,
            };
            let imm11 = v as u32 & 0x7FF;
            Ok(misc_wide(
                wop::LS_IMM_BASE + k,
                r(rt) << 17 | r(addr.base) << 13 | idx << 11 | imm11,
            ))
        }
        Offset::Reg(rm, sh) => {
            if addr.index != Index::Offset {
                return Err(unsupported(instr, IsaMode::T2, "indexed register offset"));
            }
            let k = match (load, size, signed) {
                (true, MemSize::Word, _) => 0,
                (true, MemSize::Byte, false) => 1,
                (true, MemSize::Half, false) => 2,
                (false, MemSize::Word, _) => 3,
                (false, MemSize::Byte, _) => 4,
                (false, MemSize::Half, _) => 5,
                (true, MemSize::Byte, true) => 6,
                (true, MemSize::Half, true) => 7,
            };
            Ok(misc_wide(
                wop::LS_REG_BASE + k,
                r(rt) << 10 | r(addr.base) << 6 | r(rm) << 2 | u32::from(sh & 3),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegList;

    #[test]
    fn a32_is_always_four_bytes() {
        let i = Instr::Nop;
        let e = encode(&i, IsaMode::A32).unwrap();
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn narrow_vs_wide_selection_in_t2() {
        let narrow = Instr::Dp {
            op: DpOp::Add,
            s: false,
            cond: Cond::Al,
            rd: Reg::R0,
            rn: Reg::R1,
            op2: Operand2::Reg(Reg::R2),
        };
        assert_eq!(encode(&narrow, IsaMode::T2).unwrap().len(), 2);
        let wide = Instr::Dp {
            op: DpOp::Add,
            s: false,
            cond: Cond::Al,
            rd: Reg::R8,
            rn: Reg::R9,
            op2: Operand2::Reg(Reg::R10),
        };
        assert_eq!(encode(&wide, IsaMode::T2).unwrap().len(), 4);
    }

    #[test]
    fn wide_prefix_bits_are_reserved() {
        // Every narrow encoding must avoid first-halfword [15:11] in
        // {0b11101, 0b11110, 0b11111} so wide decode is unambiguous.
        let samples = [
            Instr::Nop,
            Instr::B { cond: Cond::Al, offset: 4 },
            Instr::B { cond: Cond::Eq, offset: 4 },
            Instr::Svc { imm: 1 },
            Instr::Bkpt { imm: 1 },
            Instr::Mov { s: false, cond: Cond::Al, rd: Reg::R0, op2: Operand2::Imm(5) },
        ];
        for i in samples {
            let e = encode(&i, IsaMode::T2).unwrap();
            if e.len() == 2 {
                let hw = u16::from_le_bytes([e.as_bytes()[0], e.as_bytes()[1]]);
                assert!(hw >> 11 < 0b11101, "{i}: {hw:#06x}");
            }
        }
    }

    #[test]
    fn it_field_roundtrip() {
        for cond in [Cond::Eq, Cond::Lt, Cond::Cs] {
            for count in 1..=4u8 {
                for mask in 0..(1u8 << (count - 1)) {
                    let f = it_field_encode(cond, mask, count);
                    let (m2, c2) = it_field_decode(cond, f).unwrap();
                    assert_eq!((m2, c2), (mask, count), "cond={cond:?}");
                }
            }
        }
    }

    #[test]
    fn bl_offset_encoding_t2() {
        let i = Instr::Bl { offset: 4096 };
        let e = encode(&i, IsaMode::T2).unwrap();
        assert_eq!(e.len(), 4);
        let hw1 = u16::from_le_bytes([e.as_bytes()[0], e.as_bytes()[1]]);
        assert_eq!(hw1 >> 11, 0b11110);
    }

    #[test]
    fn push_with_lr_narrow_bit() {
        let regs: RegList = [Reg::R4, Reg::LR].into_iter().collect();
        let e = encode(&Instr::Push { cond: Cond::Al, regs }, IsaMode::T16).unwrap();
        let hw = u16::from_le_bytes([e.as_bytes()[0], e.as_bytes()[1]]);
        assert_eq!(hw, 0b1011_0101_0001_0000);
    }
}
