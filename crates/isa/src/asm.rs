//! A small two-pass textual assembler for ALIA.
//!
//! Supported syntax (one item per line, `;` or `@` comments):
//!
//! ```text
//! loop:                     ; label
//!     movs r0, #0           ; instructions, ARM-flavoured syntax
//!     add  r1, r2, r3
//!     ldr  r4, [r5, #8]
//!     push {r4, r5, lr}
//!     bne  loop
//!     .word 0xDEADBEEF      ; literal data
//!     .align 4
//! ```
//!
//! Label references resolve for `b`, `bl` and `cbz`/`cbnz`; a label may
//! be defined once. `ldr rX, =label`-style literal loads are not
//! supported — use `.word` plus an explicit `ldr rX, [pc, #off]` or the
//! compiler crate, which manages literal pools automatically. That word
//! `ldr` is the only load or store that takes a `pc` base with an
//! immediate offset. A condition suffix on `bl`, `cbz`/`cbnz`,
//! `tbb`/`tbh`, `svc`, `bkpt`, `nop`, `wfi` or `cpsid`/`cpsie` is an
//! error, never silently dropped: their [`Instr`] forms carry no
//! condition, so this assembler cannot encode one (A32 itself defines
//! conditional `bl`, `svc`, `nop` and `wfi`; they are not modelled). An
//! immediate outside its field's range is an error that names the
//! value, never truncated: a shift amount (by immediate, or an address's
//! `lsl`) above 31 in any mode, a bit-field `lsb` above 31 or `width`
//! outside 1..=32, an `svc` or `bkpt` immediate above 255, an address
//! offset whose magnitude does not fit an `i32` (`#0xFFFFFFFC` is not
//! `#-4`).
//!
//! # One parse
//!
//! Guest firmware is assembled on every mission build (the E10 node
//! images, the E13 kernel once per lowering), so assembly is part of
//! each mission's set-up cost. Each source line is scanned once, over its
//! bytes, for its label colon, its comment, the end of its mnemonic and
//! the top-level commas between its operands. Mnemonics, condition
//! suffixes, registers and shift names are matched case-insensitively in
//! place, operands are kept as trimmed slices in a fixed array, a memory
//! operand's address is parsed from the source slice, and a branch keeps
//! its target label as a slice of the source. A line allocates only for
//! a label's name, for an address's register shift (matched lowercased,
//! so `lsl #0B1` is binary) and for an error.
//!
//! The symbol table is filled as labels are parsed, with the index of the
//! item each label precedes, and every branch target is resolved to an
//! item once, after the parse. Every instruction but a branch to a label
//! is encoded once, when the layout first sizes it. The T2 narrow/wide
//! branch layout (the mixed 16/32-bit encoding) then iterates over a size
//! array and an offset array alone: each round recomputes the offsets and
//! re-sizes the branches from them until no size changes (one round for
//! the E10 images, two for the E13 kernel). The symbols get their byte
//! offsets once, at the end.
//!
//! A source of `n` items and `b` branches costs O(n) to parse and emit
//! plus O(n + b) per layout round, and allocates five vectors, the symbol
//! table and one string per label. On a 2-core 2.1 GHz Xeon host the
//! 404-line E13 kernel assembles in about 0.11 ms, 0.28 µs a line.

use std::collections::HashMap;
use std::fmt;

use crate::{
    encode, AddrMode, CmpOp, Cond, DpOp, EncodedInstr, Index, Instr, IsaMode, MemSize, Offset,
    Operand2, Reg, RegList, ShiftOp,
};

/// An error raised while assembling source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn aerr(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError { line, msg: msg.into() }
}

/// One assembled item.
#[derive(Debug, Clone, Copy)]
enum Item {
    /// An instruction and, once laid out, its encoding: every
    /// instruction but a branch to a label is encoded exactly once.
    Instr {
        line: usize,
        instr: Instr,
        encoded: Option<EncodedInstr>,
    },
    Word(u32),
    Align {
        line: usize,
        align: u32,
    },
}

/// A label reference.
struct Branch<'a> {
    /// Index of the branch instruction's item.
    item: usize,
    label: &'a str,
    /// Index of the item the label precedes; `None` if it is undefined.
    dest: Option<usize>,
}

/// The output of [`Assembler::assemble`]: machine code plus a symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembled {
    /// Encoded bytes.
    pub bytes: Vec<u8>,
    /// Label name to byte-offset map.
    pub symbols: HashMap<String, u32>,
    /// The mode the code was assembled for.
    pub mode: IsaMode,
}

/// A two-pass assembler for a single ALIA mode.
///
/// # Examples
///
/// ```
/// use alia_isa::{Assembler, IsaMode};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let out = Assembler::new(IsaMode::T2).assemble(
///     "start:
///         mov r0, #0
///         add r0, r0, #1
///         cmp r0, #10
///         bne start
///         bx lr",
/// )?;
/// assert_eq!(out.symbols["start"], 0);
/// assert!(!out.bytes.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Assembler {
    mode: IsaMode,
}

impl Assembler {
    /// Creates an assembler targeting `mode`.
    #[must_use]
    pub fn new(mode: IsaMode) -> Assembler {
        Assembler { mode }
    }

    /// Assembles `source` into bytes with all labels resolved.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] on syntax errors, unknown mnemonics,
    /// undefined or twice-defined labels or instructions not encodable in
    /// the target mode.
    pub fn assemble(&self, source: &str) -> Result<Assembled, AsmError> {
        // Parse. Until layout, a symbol holds the index of the item its
        // label precedes (`items.len()` for one after the last item). A
        // line of code is rarely shorter than 16 bytes.
        let mut items = Vec::with_capacity(source.len() / 16);
        let mut symbols = HashMap::new();
        let mut branches = Vec::new();
        for (lineno, raw) in source.lines().enumerate() {
            let line = lineno + 1;
            let mut scanned = scan(raw);
            while let Scanned::Label(label, after) = scanned {
                if label.is_empty() || !label.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    return Err(aerr(line, format!("bad label `{label}`")));
                }
                let idx = u32::try_from(items.len()).map_err(|_| aerr(line, "too many items"))?;
                if symbols.insert(label.to_string(), idx).is_some() {
                    return Err(aerr(line, format!("duplicate label `{label}`")));
                }
                scanned = scan(after);
            }
            let Scanned::Code(code) = scanned else { unreachable!("labels are consumed above") };
            if code.text.is_empty() {
                continue;
            }
            let item = if let Some(rest) = code.text.strip_prefix(".word") {
                Item::Word(parse_imm_value(rest, line)?)
            } else if let Some(rest) = code.text.strip_prefix(".align") {
                Item::Align { line, align: parse_imm_value(rest, line)? }
            } else {
                let (instr, target) = parse_instr(&code, line)?;
                if let Some(label) = target {
                    branches.push(Branch { item: items.len(), label, dest: None });
                }
                Item::Instr { line, instr, encoded: None }
            };
            items.push(item);
        }
        for b in &mut branches {
            b.dest = symbols.get(b.label).map(|&idx| idx as usize);
        }

        // Layout, iterated to a fixed point. A T2 branch is narrow (2
        // bytes) or wide (4 bytes) depending on the resolved distance, and
        // the distance depends on every earlier size, so start from the
        // placeholder offsets the parse gave and re-size with resolved
        // offsets until nothing changes (sizes only grow, so this
        // converges).
        let mut sizes = Vec::with_capacity(items.len());
        for item in &mut items {
            sizes.push(match item {
                Item::Instr { line, instr, encoded } => {
                    if !matches!(instr, Instr::B { .. } | Instr::Bl { .. } | Instr::Cbz { .. }) {
                        *encoded = encode(instr, self.mode).ok();
                    }
                    match encoded {
                        Some(e) => e.len(),
                        // A branch, or an error: `size` reports what
                        // validation rejects now, emission the rest.
                        None => instr.size(self.mode).map_err(|e| aerr(*line, e.to_string()))?,
                    }
                }
                Item::Word(_) => 4,
                Item::Align { .. } => 0, // recomputed per round below
            });
        }
        let mut offsets = vec![0u32; items.len() + 1];
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > 64 {
                return Err(aerr(0, "branch layout did not converge"));
            }
            let mut pc = 0u32;
            for (idx, item) in items.iter().enumerate() {
                if let Item::Align { line, align } = *item {
                    if !align.is_power_of_two() {
                        return Err(aerr(line, "alignment must be a power of two"));
                    }
                    sizes[idx] = (align - pc % align) % align;
                }
                offsets[idx] = pc;
                pc += sizes[idx];
            }
            offsets[items.len()] = pc;
            let mut changed = false;
            for b in &branches {
                let Some(dest) = b.dest else { continue }; // emission reports it
                let Item::Instr { line, instr, .. } = items[b.item] else {
                    unreachable!("only instructions carry targets")
                };
                let rel = distance(&offsets, b.item, dest, line)?;
                // CBZ rejects offset 0: size it as the nearest valid one.
                let rel = if rel == 0 && matches!(instr, Instr::Cbz { .. }) { 4 } else { rel };
                let size = with_offset(instr, rel)
                    .size(self.mode)
                    .map_err(|e| aerr(line, e.to_string()))?;
                if size != sizes[b.item] {
                    sizes[b.item] = size;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Emit, patching each branch with its resolved distance.
        let mut bytes = Vec::with_capacity(offsets[items.len()] as usize);
        let mut pending = branches.iter().peekable();
        for (idx, item) in items.iter().enumerate() {
            match *item {
                Item::Word(v) => bytes.extend_from_slice(&v.to_le_bytes()),
                Item::Align { align, .. } => {
                    bytes.resize(bytes.len().next_multiple_of(align as usize), 0);
                }
                Item::Instr { encoded: Some(e), .. } => bytes.extend_from_slice(e.as_bytes()),
                Item::Instr { line, mut instr, encoded: None } => {
                    if let Some(b) = pending.next_if(|b| b.item == idx) {
                        let dest = b
                            .dest
                            .ok_or_else(|| aerr(line, format!("undefined label `{}`", b.label)))?;
                        instr = with_offset(instr, distance(&offsets, idx, dest, line)?);
                    }
                    let e = encode(&instr, self.mode).map_err(|e| aerr(line, e.to_string()))?;
                    bytes.extend_from_slice(e.as_bytes());
                }
            }
        }
        for offset in symbols.values_mut() {
            *offset = offsets[*offset as usize];
        }
        Ok(Assembled { bytes, symbols, mode: self.mode })
    }
}

/// The byte distance from item `from` to item `to`.
fn distance(offsets: &[u32], from: usize, to: usize, line: usize) -> Result<i32, AsmError> {
    i32::try_from(i64::from(offsets[to]) - i64::from(offsets[from]))
        .map_err(|_| aerr(line, "branch distance overflow"))
}

/// `branch` with its offset set to `rel`.
fn with_offset(mut branch: Instr, rel: i32) -> Instr {
    match &mut branch {
        Instr::B { offset, .. } | Instr::Bl { offset } | Instr::Cbz { offset, .. } => *offset = rel,
        _ => unreachable!("only branches carry targets"),
    }
    branch
}

/// `s` without `prefix`, which is matched ignoring ASCII case.
fn strip_prefix_ignore_case<'s>(s: &'s str, prefix: &str) -> Option<&'s str> {
    let head = s.as_bytes().get(..prefix.len())?;
    head.eq_ignore_ascii_case(prefix.as_bytes()).then(|| &s[prefix.len()..])
}

fn parse_imm_value(s: &str, line: usize) -> Result<u32, AsmError> {
    let s = s.trim().trim_start_matches('#');
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16)
    } else if let Some(bin) = s.strip_prefix("0b") {
        u32::from_str_radix(bin, 2)
    } else {
        s.parse()
    }
    .map_err(|_| aerr(line, format!("bad immediate `{s}`")))?;
    Ok(if neg { v.wrapping_neg() } else { v })
}

/// An immediate that must lie in `range` (it is stored in a `u8` field);
/// `what` names it in the error.
fn parse_imm_in(
    s: &str,
    line: usize,
    what: &str,
    range: std::ops::RangeInclusive<u8>,
) -> Result<u8, AsmError> {
    let v = parse_imm_value(s, line)?;
    u8::try_from(v)
        .ok()
        .filter(|v| range.contains(v))
        .ok_or_else(|| aerr(line, format!("{what} {v} out of range {range:?}")))
}

/// A signed address offset (`#-4`, `#0x10`). Its magnitude must fit an
/// `i32`: a large unsigned value is an error, not a negative offset.
fn parse_offset(s: &str, line: usize) -> Result<i32, AsmError> {
    let s = s.trim().trim_start_matches('#');
    let (sign, magnitude) = match s.strip_prefix('-') {
        Some(rest) => ("-", rest),
        None => ("", s),
    };
    let m = parse_imm_value(magnitude, line)?;
    i32::try_from(m)
        .map(|m| if sign.is_empty() { m } else { -m })
        .map_err(|_| aerr(line, format!("offset {sign}{m} out of range")))
}

/// An immediate shift amount: 0..=31 in every mode.
fn parse_shift_amount(s: &str, line: usize) -> Result<u8, AsmError> {
    parse_imm_in(s, line, "shift amount", 0..=31)
}

/// A register name, given trimmed.
fn parse_reg(s: &str, line: usize) -> Result<Reg, AsmError> {
    let alias = match s.as_bytes() {
        [a, b] => match [a.to_ascii_lowercase(), b.to_ascii_lowercase()] {
            [b's', b'p'] => Some(Reg::SP),
            [b'l', b'r'] => Some(Reg::LR),
            [b'p', b'c'] => Some(Reg::PC),
            [b'i', b'p'] => Some(Reg::R12),
            [b'f', b'p'] => Some(Reg::R11),
            _ => None,
        },
        _ => None,
    };
    alias
        .or_else(|| {
            strip_prefix_ignore_case(s, "r")
                .and_then(|n| n.parse::<u8>().ok())
                .and_then(Reg::try_new)
        })
        .ok_or_else(|| aerr(line, format!("bad register `{}`", s.to_ascii_lowercase())))
}

fn parse_reglist(s: &str, line: usize) -> Result<RegList, AsmError> {
    let inner = s
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| aerr(line, "expected {reg list}"))?;
    let mut list = RegList::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((a, b)) = part.split_once('-') {
            let lo = parse_reg(a.trim(), line)?;
            let hi = parse_reg(b.trim(), line)?;
            if lo.index() > hi.index() {
                return Err(aerr(line, format!("bad range `{part}`")));
            }
            for i in lo.index()..=hi.index() {
                list.insert(Reg::new(i));
            }
        } else {
            list.insert(parse_reg(part, line)?);
        }
    }
    Ok(list)
}

fn parse_operand2(parts: &[&str], line: usize) -> Result<Operand2, AsmError> {
    match parts {
        [imm] if imm.starts_with('#') => Ok(Operand2::Imm(parse_imm_value(imm, line)?)),
        [r] => Ok(Operand2::Reg(parse_reg(r, line)?)),
        [r, shift] => {
            let rm = parse_reg(r, line)?;
            let shift = shift.trim();
            let (op, rest) = [
                ("lsl", ShiftOp::Lsl),
                ("lsr", ShiftOp::Lsr),
                ("asr", ShiftOp::Asr),
                ("ror", ShiftOp::Ror),
            ]
            .into_iter()
            .find_map(|(name, op)| Some((op, strip_prefix_ignore_case(shift, name)?)))
            .ok_or_else(|| aerr(line, format!("bad shift `{shift}`")))?;
            let rest = rest.trim();
            if rest.starts_with('#') {
                Ok(Operand2::RegShiftImm(rm, op, parse_shift_amount(rest, line)?))
            } else {
                Ok(Operand2::RegShiftReg(rm, op, parse_reg(rest, line)?))
            }
        }
        _ => Err(aerr(line, "bad operand")),
    }
}

fn parse_addr(s: &str, line: usize) -> Result<AddrMode, AsmError> {
    // [rn], #imm  (post-index)
    if let Some((bracketed, rest)) = s.trim().split_once(']') {
        let inner = bracketed.strip_prefix('[').ok_or_else(|| aerr(line, "expected ["))?.trim();
        let rest = rest.trim();
        if let Some(offset_src) = rest.strip_prefix(',') {
            let base = parse_reg(inner, line)?;
            return Ok(AddrMode::post(base, parse_offset(offset_src, line)?));
        }
        let pre = rest == "!";
        let mut parts = inner.split(',').map(str::trim);
        let base = parse_reg(parts.next().ok_or_else(|| aerr(line, "empty address"))?, line)?;
        let offset = match parts.next() {
            None => Offset::Imm(0),
            Some(p) if p.starts_with('#') => Offset::Imm(parse_offset(p, line)?),
            Some(p) => {
                let rm = parse_reg(p, line)?;
                let sh = match parts.next() {
                    None => 0,
                    Some(sh) => {
                        let sh = sh.to_ascii_lowercase();
                        let amount = sh
                            .strip_prefix("lsl")
                            .ok_or_else(|| aerr(line, "only lsl allowed in addresses"))?;
                        parse_shift_amount(amount, line)?
                    }
                };
                Offset::Reg(rm, sh)
            }
        };
        let index = if pre { Index::PreIndex } else { Index::Offset };
        return Ok(AddrMode { base, offset, index });
    }
    Err(aerr(line, "bad address"))
}

/// What a base mnemonic assembles to.
#[derive(Debug, Clone, Copy)]
enum Op {
    Dp(DpOp),
    Mov,
    Mvn,
    Shift(ShiftOp),
    Cmp(CmpOp),
    MovW,
    MovT,
    Mul,
    Mla,
    Sdiv,
    Udiv,
    Bfi,
    Bfc,
    Ubfx,
    Sbfx,
    Rbit,
    Rev,
    Mem { load: bool, size: MemSize, signed: bool },
    Ldm,
    Stm,
    Push,
    Pop,
    B,
    Bl,
    Bx,
    Cbz { nonzero: bool },
    Tbb,
    Tbh,
    Svc,
    Bkpt,
    Nop,
    Wfi,
    Cpsid,
    Cpsie,
    It,
}

impl Op {
    /// The operation a lowercase base mnemonic names.
    fn of(base: &[u8]) -> Option<Op> {
        let load = |size, signed| Op::Mem { load: true, size, signed };
        let store = |size| Op::Mem { load: false, size, signed: false };
        Some(match base {
            b"and" => Op::Dp(DpOp::And),
            b"eor" => Op::Dp(DpOp::Eor),
            b"sub" => Op::Dp(DpOp::Sub),
            b"rsb" => Op::Dp(DpOp::Rsb),
            b"add" => Op::Dp(DpOp::Add),
            b"adc" => Op::Dp(DpOp::Adc),
            b"sbc" => Op::Dp(DpOp::Sbc),
            b"orr" => Op::Dp(DpOp::Orr),
            b"bic" => Op::Dp(DpOp::Bic),
            b"mov" => Op::Mov,
            b"mvn" => Op::Mvn,
            b"lsl" => Op::Shift(ShiftOp::Lsl),
            b"lsr" => Op::Shift(ShiftOp::Lsr),
            b"asr" => Op::Shift(ShiftOp::Asr),
            b"ror" => Op::Shift(ShiftOp::Ror),
            b"cmp" => Op::Cmp(CmpOp::Cmp),
            b"cmn" => Op::Cmp(CmpOp::Cmn),
            b"tst" => Op::Cmp(CmpOp::Tst),
            b"teq" => Op::Cmp(CmpOp::Teq),
            b"movw" => Op::MovW,
            b"movt" => Op::MovT,
            b"mul" => Op::Mul,
            b"mla" => Op::Mla,
            b"sdiv" => Op::Sdiv,
            b"udiv" => Op::Udiv,
            b"bfi" => Op::Bfi,
            b"bfc" => Op::Bfc,
            b"ubfx" => Op::Ubfx,
            b"sbfx" => Op::Sbfx,
            b"rbit" => Op::Rbit,
            b"rev" => Op::Rev,
            b"ldr" => load(MemSize::Word, false),
            b"ldrb" => load(MemSize::Byte, false),
            b"ldrh" => load(MemSize::Half, false),
            b"ldrsb" => load(MemSize::Byte, true),
            b"ldrsh" => load(MemSize::Half, true),
            b"str" => store(MemSize::Word),
            b"strb" => store(MemSize::Byte),
            b"strh" => store(MemSize::Half),
            b"ldm" => Op::Ldm,
            b"stm" => Op::Stm,
            b"push" => Op::Push,
            b"pop" => Op::Pop,
            b"b" => Op::B,
            b"bl" => Op::Bl,
            b"bx" => Op::Bx,
            b"cbz" => Op::Cbz { nonzero: false },
            b"cbnz" => Op::Cbz { nonzero: true },
            b"tbb" => Op::Tbb,
            b"tbh" => Op::Tbh,
            b"svc" => Op::Svc,
            b"bkpt" => Op::Bkpt,
            b"nop" => Op::Nop,
            b"wfi" => Op::Wfi,
            b"cpsid" => Op::Cpsid,
            b"cpsie" => Op::Cpsie,
            b"it" => Op::It,
            _ => return None,
        })
    }

    /// Whether an `s` after the base mnemonic sets the flags.
    fn sets_flags(self) -> bool {
        matches!(self, Op::Dp(_) | Op::Mov | Op::Mvn | Op::Mul | Op::Shift(_))
    }
}

/// Splits a mnemonic into (operation, set-flags, condition), ignoring
/// case. The longest base that leaves a valid suffix wins, so a
/// condition is never read as part of a shorter base: `bleq` is `bl` +
/// `eq` (rejected later: `Instr::Bl` carries no condition), while `bls` is
/// `b` + `ls` (`bl` + `s` is no mnemonic).
fn split_mnemonic(mn: &str) -> Option<(Op, bool, Cond)> {
    // No base plus `s` plus a condition is longer than eight bytes.
    let mut buf = [0u8; 8];
    let m = buf.get_mut(..mn.len())?;
    m.copy_from_slice(mn.as_bytes());
    m.make_ascii_lowercase();
    let cond = |suffix: &[u8]| match suffix {
        [] => Some(Cond::Al),
        _ => std::str::from_utf8(suffix).ok().and_then(Cond::from_mnemonic),
    };
    (1..=m.len().min(5)).rev().find_map(|n| {
        let op = Op::of(&m[..n])?;
        match &m[n..] {
            [b's', suffix @ ..] if op.sets_flags() => Some((op, true, cond(suffix)?)),
            suffix => Some((op, false, cond(suffix)?)),
        }
    })
}

/// One more than the most operands any form takes (four: `mla`, `bfi`,
/// or two registers and a shifted operand2), so a longer list is still
/// told apart from a valid one; operands after it are never read.
const MAX_OPERANDS: usize = 5;

/// One line (or what follows a label on it), scanned once.
enum Scanned<'a> {
    /// The trimmed text before the first `:`, and the text after it.
    Label(&'a str, &'a str),
    /// No label: the code before the comment.
    Code(Code<'a>),
}

/// A line's code: the text before its comment (`;` or `@`), trimmed,
/// split into a mnemonic and operands.
struct Code<'a> {
    text: &'a str,
    /// `text` up to its first whitespace.
    mnemonic: &'a str,
    /// The rest of `text`, trimmed.
    operands: &'a str,
    /// `operands` split at top-level commas (not inside `[]`/`{}`), each
    /// trimmed; an empty last one (a trailing comma) is dropped.
    parts: [&'a str; MAX_OPERANDS],
    len: usize,
    /// From the start of the second operand to the end of the last: a
    /// memory operand's address, which may hold a top-level comma itself
    /// (`[r1], #4`).
    tail: &'a str,
}

impl<'a> Code<'a> {
    fn ops(&self) -> &[&'a str] {
        &self.parts[..self.len]
    }
}

/// Scans `s` for its first `:`, its comment, the end of its mnemonic and
/// the top-level commas between its operands, in one pass over its bytes.
fn scan(s: &str) -> Scanned<'_> {
    let s = s.trim_start();
    let mnemonic_end =
        s.find(|c: char| c.is_whitespace() || matches!(c, ';' | '@' | ':')).unwrap_or(s.len());
    let mut parts = [""; MAX_OPERANDS];
    // Operands seen, where the second started and where the last ended.
    let (mut count, mut second, mut end) = (0, 0, 0);
    let mut push = |from: usize, to: usize| {
        if count == 1 {
            second = from;
        }
        end = to;
        if let Some(slot) = parts.get_mut(count) {
            *slot = s[from..to].trim();
        }
        count += 1;
    };
    // Where the current operand starts, and where the code ends.
    let (mut from, mut code_end) = (mnemonic_end, s.len());
    let mut depth = 0i32;
    for (i, c) in s.bytes().enumerate().skip(mnemonic_end) {
        match c {
            b';' | b'@' => {
                code_end = i;
                break;
            }
            b':' => return Scanned::Label(s[..i].trim_end(), &s[i + 1..]),
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                push(from, i);
                from = i + 1;
            }
            _ => {}
        }
    }
    let text = s[..code_end].trim_end();
    if !text[from..].trim().is_empty() {
        push(from, text.len());
    }
    Scanned::Code(Code {
        text,
        mnemonic: &text[..mnemonic_end],
        operands: text[mnemonic_end..].trim_start(),
        parts,
        len: count.min(MAX_OPERANDS),
        tail: if count >= 2 { s[second..end].trim() } else { "" },
    })
}

/// [`Cond::from_mnemonic`] ignoring case: condition names are two
/// letters (or empty, for `al`), so the lowercase copy lives on the
/// stack.
fn cond_ignore_case(s: &str) -> Option<Cond> {
    let mut buf = [0u8; 2];
    let lower = buf.get_mut(..s.len())?;
    lower.copy_from_slice(s.as_bytes());
    lower.make_ascii_lowercase();
    Cond::from_mnemonic(std::str::from_utf8(lower).ok()?)
}

/// An IT instruction: `mn` is `it` plus its then/else pattern (`ite`,
/// `itte`, ...), `first` names the first condition (any case), and
/// `bad_pattern` is the error for a letter other than `t` or `e`.
fn parse_it(
    mn: &str,
    first: &str,
    line: usize,
    bad_pattern: impl Fn() -> AsmError,
) -> Result<Instr, AsmError> {
    let firstcond = cond_ignore_case(first).ok_or_else(|| aerr(line, "bad IT condition"))?;
    let mut mask = 0u8;
    let mut count = 1u8;
    for (i, c) in mn.bytes().skip(2).enumerate() {
        match c.to_ascii_lowercase() {
            b't' => mask |= 1 << i,
            b'e' => {}
            _ => return Err(bad_pattern()),
        }
        count += 1;
    }
    Ok(Instr::It { firstcond, mask, count })
}

/// Parses one instruction line; a branch also returns its target label.
#[allow(clippy::too_many_lines)]
fn parse_instr<'a>(code: &Code<'a>, line: usize) -> Result<(Instr, Option<&'a str>), AsmError> {
    let (mn, rest) = (code.mnemonic, code.operands);
    let op_err = || aerr(line, format!("bad operands for `{mn}`: `{rest}`"));
    let reg = |s: &str| parse_reg(s, line);
    let imm = |s: &str| parse_imm_value(s, line);
    let lsb = |s: &str| parse_imm_in(s, line, "bit-field lsb", 0..=31);
    let width = |s: &str| parse_imm_in(s, line, "bit-field width", 1..=32);
    let unknown = || aerr(line, format!("unknown mnemonic `{mn}`"));
    let Some((op, s, cond)) = split_mnemonic(mn) else {
        // `it` variants like `ite`/`itt` are not base mnemonics.
        if mn.len() <= 4 && strip_prefix_ignore_case(mn, "it").is_some() {
            return Ok((parse_it(mn, code.parts[0], line, unknown)?, None));
        }
        return Err(unknown());
    };
    // Forms whose `Instr` carries no condition: a suffix would be
    // silently dropped.
    let unconditional = matches!(
        op,
        Op::Bl
            | Op::Cbz { .. }
            | Op::Tbb
            | Op::Tbh
            | Op::Svc
            | Op::Bkpt
            | Op::Nop
            | Op::Wfi
            | Op::Cpsid
            | Op::Cpsie
    );
    if unconditional && cond != Cond::Al {
        let msg = format!("`{mn}`: no condition suffix is supported on this instruction");
        return Err(aerr(line, msg));
    }

    let instr = match (op, code.ops()) {
        (Op::Dp(op), [rd, rn, tail @ ..]) if !tail.is_empty() => {
            Instr::Dp { op, s, cond, rd: reg(rd)?, rn: reg(rn)?, op2: parse_operand2(tail, line)? }
        }
        // two-address shorthand: add r0, r1  =>  add r0, r0, r1
        (Op::Dp(op), [rd, rn]) => {
            let rd = reg(rd)?;
            Instr::Dp { op, s, cond, rd, rn: rd, op2: parse_operand2(&[rn], line)? }
        }
        (Op::Mov, [rd, tail @ ..]) if !tail.is_empty() => {
            Instr::Mov { s, cond, rd: reg(rd)?, op2: parse_operand2(tail, line)? }
        }
        (Op::Mvn, [rd, tail @ ..]) if !tail.is_empty() => {
            Instr::Mvn { s, cond, rd: reg(rd)?, op2: parse_operand2(tail, line)? }
        }
        (Op::Shift(sh), [rd, rm, amt]) => {
            let (rd, rm) = (reg(rd)?, reg(rm)?);
            let op2 = if amt.starts_with('#') {
                Operand2::RegShiftImm(rm, sh, parse_shift_amount(amt, line)?)
            } else {
                Operand2::RegShiftReg(rm, sh, reg(amt)?)
            };
            Instr::Mov { s, cond, rd, op2 }
        }
        (Op::Cmp(op), [rn, tail @ ..]) if !tail.is_empty() => {
            Instr::Cmp { op, cond, rn: reg(rn)?, op2: parse_operand2(tail, line)? }
        }
        (Op::MovW | Op::MovT, [rd, v]) => {
            let rd = reg(rd)?;
            let imm16 = u16::try_from(imm(v)?).map_err(|_| aerr(line, "imm16 overflow"))?;
            if matches!(op, Op::MovW) {
                Instr::MovW { cond, rd, imm16 }
            } else {
                Instr::MovT { cond, rd, imm16 }
            }
        }
        (Op::Mul, [rd, rn, rm]) => Instr::Mul { s, cond, rd: reg(rd)?, rn: reg(rn)?, rm: reg(rm)? },
        (Op::Mla, [rd, rn, rm, ra]) => {
            Instr::Mla { cond, rd: reg(rd)?, rn: reg(rn)?, rm: reg(rm)?, ra: reg(ra)? }
        }
        (Op::Sdiv, [rd, rn, rm]) => Instr::Sdiv { cond, rd: reg(rd)?, rn: reg(rn)?, rm: reg(rm)? },
        (Op::Udiv, [rd, rn, rm]) => Instr::Udiv { cond, rd: reg(rd)?, rn: reg(rn)?, rm: reg(rm)? },
        (Op::Bfi, [rd, rn, l, w]) => {
            Instr::Bfi { cond, rd: reg(rd)?, rn: reg(rn)?, lsb: lsb(l)?, width: width(w)? }
        }
        (Op::Bfc, [rd, l, w]) => Instr::Bfc { cond, rd: reg(rd)?, lsb: lsb(l)?, width: width(w)? },
        (Op::Ubfx, [rd, rn, l, w]) => {
            Instr::Ubfx { cond, rd: reg(rd)?, rn: reg(rn)?, lsb: lsb(l)?, width: width(w)? }
        }
        (Op::Sbfx, [rd, rn, l, w]) => {
            Instr::Sbfx { cond, rd: reg(rd)?, rn: reg(rn)?, lsb: lsb(l)?, width: width(w)? }
        }
        (Op::Rbit, [rd, rm]) => Instr::Rbit { cond, rd: reg(rd)?, rm: reg(rm)? },
        (Op::Rev, [rd, rm]) => Instr::Rev { cond, rd: reg(rd)?, rm: reg(rm)? },
        (Op::Mem { load, size, signed }, [rt, _, ..]) => {
            let rt = reg(rt)?;
            let addr = parse_addr(code.tail, line)?;
            match addr.offset {
                // `[pc, #off]`, in any case, is the literal-pool load:
                // only a plain word `ldr` has that form.
                Offset::Imm(offset) if addr.base == Reg::PC => {
                    let word_load = load && size == MemSize::Word && !signed;
                    if !word_load || addr.index != Index::Offset {
                        return Err(aerr(
                            line,
                            format!("`{mn}` cannot take a pc base: only `ldr rt, [pc, #off]` loads a literal"),
                        ));
                    }
                    Instr::LdrLit { cond, rt, offset }
                }
                _ if load => Instr::Ldr { cond, size, signed, rt, addr },
                _ => Instr::Str { cond, size, rt, addr },
            }
        }
        (Op::Ldm | Op::Stm, [rn, list]) => {
            let (rn, writeback) = match rn.strip_suffix('!') {
                Some(r) => (reg(r.trim())?, true),
                None => (reg(rn)?, false),
            };
            let regs = parse_reglist(list, line)?;
            if matches!(op, Op::Ldm) {
                Instr::Ldm { cond, rn, writeback, regs }
            } else {
                Instr::Stm { cond, rn, writeback, regs }
            }
        }
        (Op::Push, [list]) => Instr::Push { cond, regs: parse_reglist(list, line)? },
        (Op::Pop, [list]) => Instr::Pop { cond, regs: parse_reglist(list, line)? },
        (Op::B, [label]) => return Ok((Instr::B { cond, offset: 0 }, Some(label))),
        (Op::Bl, [label]) => return Ok((Instr::Bl { offset: 0 }, Some(label))),
        (Op::Bx, [rm]) => Instr::Bx { cond, rm: reg(rm)? },
        // Offset 4 is a placeholder CBZ can encode (it rejects 0).
        (Op::Cbz { nonzero }, [rn, label]) => {
            return Ok((Instr::Cbz { nonzero, rn: reg(rn)?, offset: 4 }, Some(label)))
        }
        (Op::Tbb | Op::Tbh, [addr]) => match parse_addr(addr, line)? {
            AddrMode { base: rn, offset: Offset::Reg(rm, _), .. } => {
                if matches!(op, Op::Tbb) {
                    Instr::Tbb { rn, rm }
                } else {
                    Instr::Tbh { rn, rm }
                }
            }
            _ => return Err(op_err()),
        },
        (Op::Svc, [v]) => Instr::Svc { imm: parse_imm_in(v, line, "svc immediate", 0..=255)? },
        (Op::Bkpt, [v]) => Instr::Bkpt { imm: parse_imm_in(v, line, "bkpt immediate", 0..=255)? },
        (Op::Nop, _) => Instr::Nop,
        (Op::Wfi, _) => Instr::Wfi,
        (Op::Cpsid, _) => Instr::Cpsid,
        (Op::Cpsie, _) => Instr::Cpsie,
        // `it eq`; a condition suffix on `it` itself (`iteq eq`) is a bad pattern.
        (Op::It, _) => parse_it(mn, code.parts[0], line, || aerr(line, "bad IT pattern"))?,
        _ => return Err(op_err()),
    };
    Ok((instr, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;

    #[test]
    fn assemble_simple_loop() {
        let out = Assembler::new(IsaMode::T2)
            .assemble(
                "start:
                    mov r0, #0
                 loop:
                    add r0, r0, #1
                    cmp r0, #10
                    bne loop
                    bx lr",
            )
            .unwrap();
        assert_eq!(out.symbols["start"], 0);
        assert_eq!(out.symbols["loop"], 2);
        // Disassemble back and check the branch points at `loop`.
        let mut pc = 0usize;
        let mut found_branch = false;
        while pc < out.bytes.len() {
            let (i, len) = decode(&out.bytes[pc..], IsaMode::T2).unwrap();
            if let Instr::B { cond: Cond::Ne, offset } = i {
                assert_eq!(pc as i32 + offset, 2);
                found_branch = true;
            }
            pc += len as usize;
        }
        assert!(found_branch);
    }

    #[test]
    fn assemble_directives() {
        let out = Assembler::new(IsaMode::A32)
            .assemble(
                "entry: nop
                 .align 8
                 data: .word 0xDEADBEEF",
            )
            .unwrap();
        let data_off = out.symbols["data"] as usize;
        assert_eq!(data_off % 8, 0);
        assert_eq!(
            u32::from_le_bytes(out.bytes[data_off..data_off + 4].try_into().unwrap()),
            0xDEAD_BEEF
        );
    }

    #[test]
    fn error_on_unknown_mnemonic_and_label() {
        let a = Assembler::new(IsaMode::T2);
        assert!(a.assemble("frobnicate r0").is_err());
        assert!(a.assemble("b nowhere").is_err());
        let err = a.assemble("\n\nfrob r1").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn mode_constraints_reported() {
        // sdiv does not exist in A32.
        let a = Assembler::new(IsaMode::A32);
        assert!(a.assemble("sdiv r0, r1, r2").is_err());
        assert!(Assembler::new(IsaMode::T2).assemble("sdiv r0, r1, r2").is_ok());
    }

    #[test]
    fn memory_and_lists() {
        let out = Assembler::new(IsaMode::A32)
            .assemble(
                "ldr r0, [r1, #8]
                 strh r2, [r3]
                 push {r4-r6, lr}
                 pop {r4-r6, pc}
                 ldmia: ldm r0!, {r1, r2}",
            )
            .unwrap();
        assert_eq!(out.bytes.len(), 20);
    }

    #[test]
    fn conditional_and_flags_suffixes() {
        let out = Assembler::new(IsaMode::A32)
            .assemble(
                "addeq r0, r0, #1
                 subs r1, r1, #1
                 movhi r2, #0
                 bls done
                 done: bx lr",
            )
            .unwrap();
        let (i, _) = decode(&out.bytes[0..4], IsaMode::A32).unwrap();
        assert_eq!(i.cond(), Cond::Eq);
        let (i, _) = decode(&out.bytes[4..8], IsaMode::A32).unwrap();
        assert!(matches!(i, Instr::Dp { op: DpOp::Sub, s: true, .. }));
    }

    #[test]
    fn it_block_parsing() {
        let out = Assembler::new(IsaMode::T2)
            .assemble(
                "cmp r0, #0
                 ite eq
                 mov r1, #1
                 mov r1, #0",
            )
            .unwrap();
        let (i, _) = decode(&out.bytes[2..], IsaMode::T2).unwrap();
        assert_eq!(i, Instr::It { firstcond: Cond::Eq, mask: 0, count: 2 });
    }

    #[test]
    fn bad_alignment_is_reported_at_its_directive() {
        let err = Assembler::new(IsaMode::T2).assemble("nop\nnop\n.align 3\nnop").unwrap_err();
        assert_eq!(err, aerr(3, "alignment must be a power of two"));
        let err = Assembler::new(IsaMode::A32).assemble("x: .align 0").unwrap_err();
        assert_eq!(err, aerr(1, "alignment must be a power of two"));
    }

    #[test]
    fn a_label_defined_twice_is_rejected_at_its_second_definition() {
        let a = Assembler::new(IsaMode::T2);
        let err = a.assemble("a: nop\na: mov r0, #1\nb a").unwrap_err();
        assert_eq!(err, aerr(2, "duplicate label `a`"));
        let err = a.assemble("nop\nx: y: x: nop").unwrap_err();
        assert_eq!(err, aerr(2, "duplicate label `x`"));
        // Distinct labels on one item stay fine.
        assert!(a.assemble("x: y: nop\nb x\nb y").is_ok());
    }
}
