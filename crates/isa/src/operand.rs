//! Instruction operands: shifts, flexible second operands and address modes.

use std::fmt;

use crate::Reg;

/// Barrel-shifter operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ShiftOp {
    /// Logical shift left.
    Lsl = 0,
    /// Logical shift right.
    Lsr = 1,
    /// Arithmetic shift right.
    Asr = 2,
    /// Rotate right.
    Ror = 3,
}

impl ShiftOp {
    /// Decodes a 2-bit shift-type field.
    #[must_use]
    pub fn from_bits(bits: u8) -> ShiftOp {
        match bits & 3 {
            0 => ShiftOp::Lsl,
            1 => ShiftOp::Lsr,
            2 => ShiftOp::Asr,
            _ => ShiftOp::Ror,
        }
    }

    /// The 2-bit encoding of this shift type.
    #[must_use]
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// Applies the shift to `value` by `amount` bits, returning the result
    /// and the shifter carry-out given the incoming carry.
    #[must_use]
    pub fn apply(self, value: u32, amount: u32, carry_in: bool) -> (u32, bool) {
        if amount == 0 {
            return (value, carry_in);
        }
        match self {
            ShiftOp::Lsl => {
                if amount >= 33 {
                    (0, false)
                } else if amount == 32 {
                    (0, value & 1 != 0)
                } else {
                    (value << amount, value >> (32 - amount) & 1 != 0)
                }
            }
            ShiftOp::Lsr => {
                if amount >= 33 {
                    (0, false)
                } else if amount == 32 {
                    (0, value >> 31 != 0)
                } else {
                    (value >> amount, value >> (amount - 1) & 1 != 0)
                }
            }
            ShiftOp::Asr => {
                if amount >= 32 {
                    let fill = if value >> 31 != 0 { u32::MAX } else { 0 };
                    (fill, value >> 31 != 0)
                } else {
                    (((value as i32) >> amount) as u32, value >> (amount - 1) & 1 != 0)
                }
            }
            ShiftOp::Ror => {
                let amt = amount % 32;
                if amt == 0 {
                    (value, value >> 31 != 0)
                } else {
                    (value.rotate_right(amt), value >> (amt - 1) & 1 != 0)
                }
            }
        }
    }
}

impl fmt::Display for ShiftOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ShiftOp::Lsl => "lsl",
            ShiftOp::Lsr => "lsr",
            ShiftOp::Asr => "asr",
            ShiftOp::Ror => "ror",
        };
        f.write_str(s)
    }
}

/// The flexible second operand of data-processing instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand2 {
    /// An immediate value. Encodability depends on the target ISA:
    /// `A32` accepts 8 bits rotated right by an even amount, `T2` accepts
    /// the modified-immediate patterns, `T16` accepts small unsigned values
    /// in specific forms.
    Imm(u32),
    /// A plain register.
    Reg(Reg),
    /// A register shifted by a constant.
    RegShiftImm(Reg, ShiftOp, u8),
    /// A register shifted by another register (`A32` only).
    RegShiftReg(Reg, ShiftOp, Reg),
}

impl Operand2 {
    /// The registers read by this operand.
    pub fn regs(&self) -> impl Iterator<Item = Reg> + '_ {
        let (a, b) = match *self {
            Operand2::Imm(_) => (None, None),
            Operand2::Reg(r) => (Some(r), None),
            Operand2::RegShiftImm(r, _, _) => (Some(r), None),
            Operand2::RegShiftReg(r, _, s) => (Some(r), Some(s)),
        };
        a.into_iter().chain(b)
    }
}

impl fmt::Display for Operand2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand2::Imm(v) => write!(f, "#{v}"),
            Operand2::Reg(r) => write!(f, "{r}"),
            Operand2::RegShiftImm(r, op, amt) => write!(f, "{r}, {op} #{amt}"),
            Operand2::RegShiftReg(r, op, rs) => write!(f, "{r}, {op} {rs}"),
        }
    }
}

impl From<Reg> for Operand2 {
    fn from(r: Reg) -> Operand2 {
        Operand2::Reg(r)
    }
}

impl From<u32> for Operand2 {
    fn from(v: u32) -> Operand2 {
        Operand2::Imm(v)
    }
}

/// Access size of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    Word,
}

impl MemSize {
    /// The access width in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            MemSize::Byte => 1,
            MemSize::Half => 2,
            MemSize::Word => 4,
        }
    }
}

/// Index mode of a load/store address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Index {
    /// `[rn, off]` — offset addressing, base unchanged.
    #[default]
    Offset,
    /// `[rn, off]!` — pre-indexed, base updated before the access.
    PreIndex,
    /// `[rn], off` — post-indexed, base updated after the access.
    PostIndex,
}

/// The offset part of a load/store address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Offset {
    /// A signed immediate byte offset.
    Imm(i32),
    /// A register optionally shifted left by a small constant.
    Reg(Reg, u8),
}

/// A load/store address: base register, offset and index mode.
///
/// # Examples
///
/// ```
/// use alia_isa::{AddrMode, Reg};
/// let a = AddrMode::imm(Reg::R1, 8);
/// assert_eq!(a.to_string(), "[r1, #8]");
/// let b = AddrMode::reg(Reg::R1, Reg::R2, 2);
/// assert_eq!(b.to_string(), "[r1, r2, lsl #2]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrMode {
    /// Base register.
    pub base: Reg,
    /// Offset applied to the base.
    pub offset: Offset,
    /// Index mode.
    pub index: Index,
}

impl AddrMode {
    /// Offset addressing with an immediate: `[base, #imm]`.
    #[must_use]
    pub fn imm(base: Reg, imm: i32) -> AddrMode {
        AddrMode { base, offset: Offset::Imm(imm), index: Index::Offset }
    }

    /// Offset addressing with a shifted register: `[base, rm, lsl #shift]`.
    #[must_use]
    pub fn reg(base: Reg, rm: Reg, shift: u8) -> AddrMode {
        AddrMode { base, offset: Offset::Reg(rm, shift), index: Index::Offset }
    }

    /// Pre-indexed immediate addressing: `[base, #imm]!`.
    #[must_use]
    pub fn pre(base: Reg, imm: i32) -> AddrMode {
        AddrMode { base, offset: Offset::Imm(imm), index: Index::PreIndex }
    }

    /// Post-indexed immediate addressing: `[base], #imm`.
    #[must_use]
    pub fn post(base: Reg, imm: i32) -> AddrMode {
        AddrMode { base, offset: Offset::Imm(imm), index: Index::PostIndex }
    }
}

impl fmt::Display for AddrMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = self.base;
        match (self.index, self.offset) {
            (Index::Offset, Offset::Imm(0)) => write!(f, "[{base}]"),
            (Index::Offset, Offset::Imm(i)) => write!(f, "[{base}, #{i}]"),
            (Index::Offset, Offset::Reg(r, 0)) => write!(f, "[{base}, {r}]"),
            (Index::Offset, Offset::Reg(r, s)) => write!(f, "[{base}, {r}, lsl #{s}]"),
            (Index::PreIndex, Offset::Imm(i)) => write!(f, "[{base}, #{i}]!"),
            (Index::PreIndex, Offset::Reg(r, 0)) => write!(f, "[{base}, {r}]!"),
            (Index::PreIndex, Offset::Reg(r, s)) => write!(f, "[{base}, {r}, lsl #{s}]!"),
            (Index::PostIndex, Offset::Imm(i)) => write!(f, "[{base}], #{i}"),
            (Index::PostIndex, Offset::Reg(r, 0)) => write!(f, "[{base}], {r}"),
            (Index::PostIndex, Offset::Reg(r, s)) => write!(f, "[{base}], {r}, lsl #{s}"),
        }
    }
}

/// Whether `value` is encodable as an `A32` data-processing immediate:
/// an 8-bit value rotated right by an even amount.
///
/// # Examples
///
/// ```
/// use alia_isa::a32_imm_encodable;
/// assert!(a32_imm_encodable(255));
/// assert!(a32_imm_encodable(0xFF00_0000));
/// assert!(!a32_imm_encodable(0x1234_5678));
/// ```
#[must_use]
pub fn a32_imm_encodable(value: u32) -> bool {
    a32_imm_encode(value).is_some()
}

/// Encodes an `A32` immediate as `(rot, imm8)` with
/// `value == imm8.rotate_right(rot * 2)`, or `None` if not encodable.
#[must_use]
pub fn a32_imm_encode(value: u32) -> Option<(u8, u8)> {
    for rot in 0..16u8 {
        let imm = value.rotate_left(u32::from(rot) * 2);
        if imm <= 0xFF {
            return Some((rot, imm as u8));
        }
    }
    None
}

/// Decodes an `A32` `(rot, imm8)` immediate field pair.
#[must_use]
pub fn a32_imm_decode(rot: u8, imm8: u8) -> u32 {
    u32::from(imm8).rotate_right(u32::from(rot & 0xF) * 2)
}

/// Whether `value` is encodable as a `T2` modified immediate.
///
/// The accepted patterns mirror Thumb-2: a plain byte `0x000000XY`, the
/// replications `0x00XY00XY`, `0xXY00XY00` and `0xXYXYXYXY`, or an 8-bit
/// value with its top bit set rotated into any position.
#[must_use]
pub fn t2_imm_encodable(value: u32) -> bool {
    t2_imm_encode(value).is_some()
}

/// Encodes a `T2` modified immediate into a 12-bit field, or `None`.
///
/// Field layout (our own packing, same expressiveness as Thumb-2):
/// `0b0000_xxxxxxxx` byte, `0b0001_xxxxxxxx`/`0b0010`/`0b0011` replications,
/// otherwise the top 5 bits are a rotation `8..=31` applied to `0b1xxxxxxx`.
#[must_use]
pub fn t2_imm_encode(value: u32) -> Option<u16> {
    if value <= 0xFF {
        return Some(value as u16);
    }
    let b = value & 0xFF;
    if value == b | b << 16 {
        return Some(0x100 | b as u16);
    }
    // pattern 0xXY00XY00: byte taken from bits 8..16
    let hb = value >> 8 & 0xFF;
    if value == (hb << 8 | hb << 24) {
        return Some(0x200 | hb as u16);
    }
    if value == b | b << 8 | b << 16 | b << 24 {
        return Some(0x300 | b as u16);
    }
    // Rotated form: 8-bit value with bit 7 set, rotated right by 8..=31.
    for rot in 8..32u32 {
        let unrot = value.rotate_left(rot);
        if (0x80..=0xFF).contains(&unrot) {
            return Some(((rot as u16) << 7) | (unrot as u16 & 0x7F));
        }
    }
    None
}

/// Decodes a 12-bit `T2` modified-immediate field produced by
/// [`t2_imm_encode`].
#[must_use]
pub fn t2_imm_decode(field: u16) -> u32 {
    let field = field & 0xFFF;
    let top5 = field >> 7;
    if top5 < 8 {
        let mode = field >> 8 & 3;
        let b = u32::from(field & 0xFF);
        match mode {
            0 => b,
            1 => b | b << 16,
            2 => b << 8 | b << 24,
            _ => b | b << 8 | b << 16 | b << 24,
        }
    } else {
        let rot = u32::from(top5);
        let imm8 = u32::from(field & 0x7F) | 0x80;
        imm8.rotate_right(rot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_apply_basics() {
        assert_eq!(ShiftOp::Lsl.apply(1, 4, false), (16, false));
        assert_eq!(ShiftOp::Lsr.apply(0x8000_0000, 31, false), (1, false));
        assert_eq!(ShiftOp::Asr.apply(0x8000_0000, 31, false).0, 0xFFFF_FFFF);
        assert_eq!(ShiftOp::Ror.apply(0b1011, 1, false).0, 0x8000_0005);
        // amount 0 passes through with carry preserved
        assert_eq!(ShiftOp::Lsr.apply(7, 0, true), (7, true));
    }

    #[test]
    fn shift_carry_out() {
        // LSL by 1 of 0x8000_0000 shifts bit 31 into carry.
        assert_eq!(ShiftOp::Lsl.apply(0x8000_0000, 1, false), (0, true));
        // LSR by 1 of 1 shifts bit 0 into carry.
        assert_eq!(ShiftOp::Lsr.apply(1, 1, false), (0, true));
        // ASR by 32+ saturates with sign.
        assert_eq!(ShiftOp::Asr.apply(0xFFFF_0000, 40, false), (u32::MAX, true));
    }

    #[test]
    fn a32_imm_examples() {
        assert!(a32_imm_encodable(0));
        assert!(a32_imm_encodable(0xFF));
        assert!(a32_imm_encodable(0x3F0));
        assert!(a32_imm_encodable(0xFF00_0000));
        assert!(a32_imm_encodable(0xF000_000F)); // rotation wraps
        assert!(!a32_imm_encodable(0x101));
        assert!(!a32_imm_encodable(0xFFFF));
    }

    #[test]
    fn a32_imm_roundtrip_exhaustive_bytes() {
        for imm8 in 0..=255u8 {
            for rot in 0..16u8 {
                let v = a32_imm_decode(rot, imm8);
                let (r2, i2) = a32_imm_encode(v).expect("must re-encode");
                assert_eq!(a32_imm_decode(r2, i2), v);
            }
        }
    }

    #[test]
    fn t2_imm_patterns() {
        assert_eq!(t2_imm_encode(0x12), Some(0x012));
        assert_eq!(t2_imm_decode(0x112), 0x0012_0012);
        assert_eq!(t2_imm_decode(0x212), 0x1200_1200);
        assert_eq!(t2_imm_decode(0x312), 0x1212_1212);
        assert!(t2_imm_encodable(0x0077_0077));
        assert!(t2_imm_encodable(0xAB00_AB00));
        assert!(t2_imm_encodable(0x4444_4444));
        assert!(t2_imm_encodable(0xFF00_0000));
        assert!(t2_imm_encodable(0x0003_FC00));
        assert!(!t2_imm_encodable(0x1234_5678));
        assert!(!t2_imm_encodable(0x0012_0013));
    }

    #[test]
    fn t2_imm_roundtrip_all_fields() {
        for field in 0..0x1000u16 {
            let v = t2_imm_decode(field);
            let f2 = t2_imm_encode(v).unwrap_or_else(|| panic!("0x{v:08x} must re-encode"));
            assert_eq!(t2_imm_decode(f2), v, "field 0x{field:03x}");
        }
    }

    #[test]
    fn t2_superset_of_a32_byte_patterns() {
        // Every plain byte and many rotations encodable in both.
        for v in [0u32, 1, 0x80, 0xFF, 0xFF00, 0x0FF0_0000] {
            assert!(a32_imm_encodable(v), "{v:#x}");
            assert!(t2_imm_encodable(v), "{v:#x}");
        }
    }

    #[test]
    fn addr_mode_display() {
        assert_eq!(AddrMode::imm(Reg::R0, 0).to_string(), "[r0]");
        assert_eq!(AddrMode::pre(Reg::SP, -8).to_string(), "[sp, #-8]!");
        assert_eq!(AddrMode::post(Reg::R2, 4).to_string(), "[r2], #4");
    }

    #[test]
    fn operand2_regs_iteration() {
        let o = Operand2::RegShiftReg(Reg::R1, ShiftOp::Lsl, Reg::R2);
        let rs: Vec<Reg> = o.regs().collect();
        assert_eq!(rs, vec![Reg::R1, Reg::R2]);
        assert_eq!(Operand2::Imm(5).regs().count(), 0);
    }
}
