//! Layout: turns symbolic [`Item`]s into bytes, in two steps.
//!
//! [`size_function`] performs iterative branch relaxation (narrow → wide
//! → inverted-skip) and literal-pool placement (deduplicated, at the end
//! of the function). Sizes only ever grow between iterations, which
//! guarantees termination. Each round recomputes the item offsets and the
//! label table, a vector indexed by label id (ids are dense,
//! `0..label_count`), into buffers reused across rounds. No size depends
//! on the function's address, so a function is relaxed once.
//!
//! [`SizedFunction::emit`] then encodes the bytes at the function's
//! placed address: only absolute jump tables and `T16` synthesized long
//! jumps read it.

use alia_isa::{encode, Cond, Instr, IsaMode, Reg};
use alia_tir::FuncId;

use crate::lower::{Item, LoweredFunction};
use crate::CodegenError;

/// A call site awaiting the callee's final address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallReloc {
    /// Byte offset of the `BL` within the function.
    pub offset: u32,
    /// Callee.
    pub func: FuncId,
}

/// One function laid out to bytes (calls unresolved).
#[derive(Debug, Clone)]
pub struct LaidOutFunction {
    /// Function name.
    pub name: String,
    /// Encoded bytes (including the literal pool).
    pub bytes: Vec<u8>,
    /// Call relocations.
    pub relocs: Vec<CallReloc>,
    /// Bytes occupied by the literal pool.
    pub pool_bytes: u32,
    /// Instructions emitted (not counting pool/table data).
    pub instr_count: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BranchShape {
    /// Single branch instruction of the given size.
    Direct(u32),
    /// Inverted-condition skip over an unconditional branch (`T16` long
    /// conditional): sizes of (skip, branch).
    InvertedPair(u32, u32),
    /// Synthesize the absolute target address into scratch0 and
    /// `mov pc, scratch0` — the `T16` very-long-branch tier (scratches are
    /// dead at block boundaries). Payload: total bytes, including the
    /// inverted skip when the branch is conditional.
    SynthJump(u32),
}

fn err(f: &LoweredFunction, mode: IsaMode, msg: impl Into<String>) -> CodegenError {
    CodegenError { func: f.name.clone(), mode, msg: msg.into() }
}

/// One function relaxed for a mode: its items (with any `cbz` fallbacks
/// expanded), their final sizes and branch shapes, and its literal pool.
/// Everything but the address-dependent bytes is fixed; place it with
/// [`SizedFunction::size`] and encode it with [`SizedFunction::emit`].
#[derive(Debug, Clone)]
pub struct SizedFunction {
    f: LoweredFunction,
    mode: IsaMode,
    sizes: Vec<u32>,
    shapes: Vec<BranchShape>,
    pool: Vec<u32>,
}

impl SizedFunction {
    /// Size in bytes, a multiple of 4: code, word-alignment padding and
    /// literal pool.
    #[must_use]
    pub fn size(&self) -> u32 {
        let code: u32 = self.sizes.iter().sum();
        ((code + 3) & !3) + self.pool.len() as u32 * 4
    }

    /// Encodes the function placed at `func_addr` (absolute jump tables
    /// and `T16` synthesized jumps embed it); calls stay unresolved.
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError`] when an instruction cannot be encoded.
    pub fn emit(&self, func_addr: u32) -> Result<LaidOutFunction, CodegenError> {
        emit(&self.f, self.mode, func_addr, &self.sizes, &self.shapes, &self.pool)
    }
}

/// Relaxes one function for `mode`: branch shapes, literal-pool offsets
/// and `cbz` fallbacks are settled; the bytes are encoded later, at the
/// function's placed address, by [`SizedFunction::emit`].
///
/// # Errors
///
/// Returns [`CodegenError`] when a branch or literal cannot be encoded even
/// after relaxation.
pub fn size_function(mut f: LoweredFunction, mode: IsaMode) -> Result<SizedFunction, CodegenError> {
    let mut items = std::mem::take(&mut f.items);

    // Collect literal pool values (deduplicated, insertion order).
    let mut pool: Vec<u32> = Vec::new();
    for item in &items {
        if let Item::LitLoad { value, .. } = item {
            if !pool.contains(value) {
                pool.push(*value);
            }
        }
    }

    // Iteratively size items. `sizes[i]` is the byte size of item i;
    // branch shapes are tracked so emission matches sizing.
    let n = items.len();
    let mut sizes: Vec<u32> = vec![0; n];
    let mut shapes: Vec<BranchShape> = vec![BranchShape::Direct(0); n];
    // Initial minimal sizes.
    for (i, item) in items.iter().enumerate() {
        sizes[i] = match item {
            Item::Label(_) => 0,
            Item::Fixed(instr) => instr
                .size(mode)
                .map_err(|e| err(&f, mode, e.to_string()))?,
            Item::Branch { .. } => mode.min_instr_size(),
            Item::CbzBr { .. } => 2,
            Item::Call { .. } => 4,
            Item::LitLoad { .. } => mode.min_instr_size(),
            Item::ByteTable { labels } => (labels.len() as u32 + 1) & !1,
            Item::WordTable { labels } => labels.len() as u32 * 4,
        };
    }

    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut label_off = vec![u32::MAX; f.label_count as usize];
    let mut guard = 0;
    loop {
        guard += 1;
        if guard > 64 {
            return Err(err(&f, mode, "layout failed to converge"));
        }
        // Compute offsets and label offsets with current sizes; `items`
        // grows by one each time a `cbz` falls back to `cmp` + `b`.
        place(&items, &sizes, &mut offsets, &mut label_off);
        let n = items.len();
        let code_end = (offsets[n] + 3) & !3; // pool is word-aligned
        let pool_off = |v: u32| -> u32 {
            let idx = pool.iter().position(|&x| x == v).expect("pooled value") as u32;
            code_end + idx * 4
        };

        let mut changed = false;
        let mut converted: Option<(usize, Vec<Item>)> = None;
        for (i, item) in items.iter().enumerate() {
            let here = offsets[i];
            match item {
                Item::Branch { cond, label } => {
                    let target = label_off[*label as usize];
                    let rel = target as i64 - i64::from(here);
                    let shape = branch_shape(mode, *cond, rel);
                    match shape {
                        Some(s) => {
                            let sz = match s {
                                BranchShape::Direct(z) => z,
                                BranchShape::InvertedPair(a, b) => a + b,
                                BranchShape::SynthJump(z) => z,
                            };
                            if sz > sizes[i] {
                                sizes[i] = sz;
                                shapes[i] = s;
                                changed = true;
                            } else {
                                shapes[i] = s;
                            }
                        }
                        None => return Err(err(&f, mode, format!("branch out of range ({rel})"))),
                    }
                }
                Item::CbzBr { nonzero, rn, label } => {
                    let target = label_off[*label as usize];
                    let rel = target as i64 - i64::from(here);
                    if !(4..=130).contains(&rel) || rel % 2 != 0 {
                        // Fall back to cmp #0 + conditional branch.
                        let cond = if *nonzero { Cond::Ne } else { Cond::Eq };
                        converted = Some((
                            i,
                            vec![
                                Item::Fixed(Instr::Cmp {
                                    op: alia_isa::CmpOp::Cmp,
                                    cond: Cond::Al,
                                    rn: *rn,
                                    op2: alia_isa::Operand2::Imm(0),
                                }),
                                Item::Branch { cond, label: *label },
                            ],
                        ));
                        break;
                    }
                }
                Item::LitLoad { rt, value } => {
                    // literal address = align4(here + bias) + off
                    let lit = pool_off(*value);
                    let base = (here + mode.pc_bias()) & !3;
                    let off = lit as i64 - i64::from(base);
                    let sz = lit_load_size(mode, *rt, off)
                        .ok_or_else(|| err(&f, mode, format!("literal out of range ({off})")))?;
                    if sz > sizes[i] {
                        sizes[i] = sz;
                        changed = true;
                    }
                }
                Item::ByteTable { labels } => {
                    // Verify entries are representable.
                    let table_base = here;
                    for l in labels {
                        let rel = label_off[*l as usize] as i64 - i64::from(table_base);
                        if rel < 0 || rel / 2 > 255 || rel % 2 != 0 {
                            return Err(err(&f, mode, format!("tbb entry out of range ({rel})")));
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some((i, replacement)) = converted {
            let shape_fill = replacement.len();
            items.splice(i..=i, replacement);
            sizes.splice(i..=i, std::iter::repeat_n(2, shape_fill));
            shapes.splice(i..=i, std::iter::repeat_n(BranchShape::Direct(2), shape_fill));
            // re-enter the loop with fresh sizing for the new items
            for (k, item) in items.iter().enumerate() {
                if let Item::Fixed(instr) = item {
                    sizes[k] = instr.size(mode).map_err(|e| err(&f, mode, e.to_string()))?;
                }
            }
            continue;
        }
        if !changed {
            f.items = items;
            return Ok(SizedFunction { f, mode, sizes, shapes, pool });
        }
    }
}

/// Fills `offsets` with each item's byte offset (plus the end offset
/// after the last) and `label_off` with each placed label's.
fn place(items: &[Item], sizes: &[u32], offsets: &mut Vec<u32>, label_off: &mut [u32]) {
    offsets.clear();
    let mut at = 0u32;
    for (item, size) in items.iter().zip(sizes) {
        if let Item::Label(l) = item {
            label_off[*l as usize] = at;
        }
        offsets.push(at);
        at += size;
    }
    offsets.push(at);
}

fn branch_shape(mode: IsaMode, cond: Cond, rel: i64) -> Option<BranchShape> {
    match mode {
        IsaMode::A32 => {
            (rel % 4 == 0 && rel.abs() < 32 * 1024 * 1024).then_some(BranchShape::Direct(4))
        }
        IsaMode::T16 => {
            if rel % 2 != 0 {
                return None;
            }
            if cond == Cond::Al {
                if (-2044..=2050).contains(&rel) {
                    return Some(BranchShape::Direct(2));
                }
                // mov #b3 + (lsl + add) x3 + mov pc: 16 bytes.
                return Some(BranchShape::SynthJump(16));
            }
            if (-252..=258).contains(&rel) {
                return Some(BranchShape::Direct(2));
            }
            // Inverted skip (2 bytes) + unconditional (2 bytes): the
            // unconditional sits 2 bytes later, so its reach shifts.
            let rel2 = rel - 2;
            if (-2044..=2050).contains(&rel2) {
                return Some(BranchShape::InvertedPair(2, 2));
            }
            // Inverted skip over a 16-byte synthesized jump.
            Some(BranchShape::SynthJump(18))
        }
        IsaMode::T2 => {
            if rel % 2 != 0 {
                return None;
            }
            if cond == Cond::Al {
                if (-2044..=2050).contains(&rel) {
                    return Some(BranchShape::Direct(2));
                }
            } else if (-252..=258).contains(&rel) {
                return Some(BranchShape::Direct(2));
            }
            (-131068..=131074).contains(&rel).then_some(BranchShape::Direct(4))
        }
    }
}

fn lit_load_size(mode: IsaMode, rt: Reg, off: i64) -> Option<u32> {
    match mode {
        IsaMode::A32 => (off.abs() < 4096).then_some(4),
        IsaMode::T16 => ((0..1024).contains(&off) && off % 4 == 0 && rt.is_low()).then_some(2),
        IsaMode::T2 => {
            if (0..1024).contains(&off) && off % 4 == 0 && rt.is_low() {
                Some(2)
            } else {
                (off.abs() < 16 * 1024).then_some(4)
            }
        }
    }
}

#[allow(clippy::too_many_lines)]
fn emit(
    f: &LoweredFunction,
    mode: IsaMode,
    func_addr: u32,
    sizes: &[u32],
    shapes: &[BranchShape],
    pool: &[u32],
) -> Result<LaidOutFunction, CodegenError> {
    let items = &f.items;
    let mut offsets = Vec::with_capacity(items.len() + 1);
    let mut label_off = vec![u32::MAX; f.label_count as usize];
    place(items, sizes, &mut offsets, &mut label_off);
    let code_end = (offsets[items.len()] + 3) & !3;
    let mut bytes = Vec::with_capacity(code_end as usize + pool.len() * 4);
    let mut relocs = Vec::new();
    let mut instr_count = 0u32;
    let push = |bytes: &mut Vec<u8>, instr: &Instr| -> Result<(), CodegenError> {
        let e = encode(instr, mode).map_err(|e| err(f, mode, e.to_string()))?;
        bytes.extend_from_slice(e.as_bytes());
        Ok(())
    };
    for (i, item) in items.iter().enumerate() {
        let here = offsets[i];
        debug_assert_eq!(bytes.len() as u32, here, "layout drift at item {i}");
        match item {
            Item::Label(_) => {}
            Item::Fixed(instr) => {
                push(&mut bytes, instr)?;
                instr_count += 1;
            }
            Item::Branch { cond, label } => {
                let target = label_off[*label as usize];
                let rel = (target as i64 - i64::from(here)) as i32;
                match shapes[i] {
                    BranchShape::Direct(_) => {
                        push(&mut bytes, &Instr::B { cond: *cond, offset: rel })?;
                        instr_count += 1;
                    }
                    BranchShape::InvertedPair(skip_sz, _) => {
                        let skip = skip_sz as i32 + 2; // over the uncond branch
                        push(&mut bytes, &Instr::B { cond: cond.inverted(), offset: skip })?;
                        push(&mut bytes, &Instr::B { cond: Cond::Al, offset: rel - skip_sz as i32 })?;
                        instr_count += 2;
                    }
                    BranchShape::SynthJump(total) => {
                        if *cond != Cond::Al {
                            // Skip the 16-byte synth block when untaken.
                            push(
                                &mut bytes,
                                &Instr::B { cond: cond.inverted(), offset: total as i32 },
                            )?;
                            instr_count += 1;
                        }
                        let scratch = crate::alloc::RegPlan::for_mode(mode).scratch0;
                        let abs = func_addr + target;
                        push(
                            &mut bytes,
                            &Instr::Mov {
                                s: false,
                                cond: Cond::Al,
                                rd: scratch,
                                op2: alia_isa::Operand2::Imm(abs >> 24),
                            },
                        )?;
                        for shift in [16u32, 8, 0] {
                            push(
                                &mut bytes,
                                &Instr::Mov {
                                    s: false,
                                    cond: Cond::Al,
                                    rd: scratch,
                                    op2: alia_isa::Operand2::RegShiftImm(
                                        scratch,
                                        alia_isa::ShiftOp::Lsl,
                                        8,
                                    ),
                                },
                            )?;
                            push(
                                &mut bytes,
                                &Instr::Dp {
                                    op: alia_isa::DpOp::Add,
                                    s: false,
                                    cond: Cond::Al,
                                    rd: scratch,
                                    rn: scratch,
                                    op2: alia_isa::Operand2::Imm(abs >> shift & 0xFF),
                                },
                            )?;
                        }
                        push(
                            &mut bytes,
                            &Instr::Mov {
                                s: false,
                                cond: Cond::Al,
                                rd: alia_isa::Reg::PC,
                                op2: alia_isa::Operand2::Reg(scratch),
                            },
                        )?;
                        instr_count += 8;
                    }
                }
            }
            Item::CbzBr { nonzero, rn, label } => {
                let target = label_off[*label as usize];
                let rel = (target as i64 - i64::from(here)) as i32;
                push(&mut bytes, &Instr::Cbz { nonzero: *nonzero, rn: *rn, offset: rel })?;
                instr_count += 1;
            }
            Item::Call { func } => {
                relocs.push(CallReloc { offset: here, func: *func });
                // Placeholder BL; patched by the program assembler.
                push(&mut bytes, &Instr::Bl { offset: 4 })?;
                instr_count += 1;
            }
            Item::LitLoad { rt, value } => {
                let idx = pool.iter().position(|&x| x == *value).expect("pooled") as u32;
                let lit = code_end + idx * 4;
                let base = (here + mode.pc_bias()) & !3;
                let off = lit as i32 - base as i32;
                push(&mut bytes, &Instr::LdrLit { cond: Cond::Al, rt: *rt, offset: off })?;
                instr_count += 1;
            }
            Item::ByteTable { labels } => {
                for l in labels {
                    let rel = label_off[*l as usize] - here;
                    bytes.push((rel / 2) as u8);
                }
                if labels.len() % 2 != 0 {
                    bytes.push(0);
                }
            }
            Item::WordTable { labels } => {
                for l in labels {
                    let abs = func_addr + label_off[*l as usize];
                    bytes.extend_from_slice(&abs.to_le_bytes());
                }
            }
        }
    }
    while !(bytes.len() as u32).is_multiple_of(4) {
        bytes.push(0);
    }
    debug_assert_eq!(bytes.len() as u32, code_end);
    for v in pool {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    Ok(LaidOutFunction {
        name: f.name.clone(),
        bytes,
        relocs,
        pool_bytes: pool.len() as u32 * 4,
        instr_count,
    })
}
