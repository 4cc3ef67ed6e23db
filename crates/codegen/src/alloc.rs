//! Liveness analysis and linear-scan register allocation over TIR.
//!
//! Allocation runs *before* instruction selection: every virtual register
//! is mapped to either a physical register or a stack slot, and the
//! lowering pass inserts reloads/spills around individual instructions
//! using two reserved scratch registers. The allocatable pool differs per
//! encoding — `T16` can only address `r0..r7`, which is precisely the
//! register-pressure handicap the paper's Table 1 numbers reflect.
//!
//! # Dense data
//!
//! Vreg ids are dense (`0..vreg_count`), so every per-vreg table is a
//! vector indexed by id and every vreg set is a bitset of
//! `⌈vreg_count / 64⌉` words. Liveness is the usual backward dataflow
//! over four such rows per block (gen, kill, live-in, live-out), iterated
//! to its fixed point: a round costs one pass over the blocks with a few
//! word operations per row and successor, and allocates nothing. Live
//! ranges, use counts, parameter preferences and the final locations are
//! vectors indexed by vreg; the caller-saved and used register sets are
//! [`RegList`] masks. Instruction operands are visited in place, so no
//! vector is built per instruction. A function of `n` instructions, `b`
//! blocks and `v` vregs costs O(n + b·⌈v/64⌉) per dataflow round and
//! O(v log v) to order the intervals.
//!
//! The fixed point, the `(start, vreg)` interval order and the spill
//! choice depend only on the sets' contents, so the allocation (and every
//! byte the compiler emits from it) does not depend on how sets are
//! stored.

use alia_isa::{IsaMode, Reg, RegList};
use alia_tir::{BlockId, Function, Inst, Operand, Terminator, VReg};

/// Where a virtual register lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A physical register.
    Reg(Reg),
    /// A stack slot (word index from the spill area base).
    Spill(u32),
}

/// The register conventions for a target encoding.
#[derive(Debug, Clone)]
pub struct RegPlan {
    /// Registers handed to the allocator, in preference order
    /// (callee-saved first).
    pub allocatable: Vec<Reg>,
    /// Caller-saved subset (unusable across calls).
    pub caller_saved: RegList,
    /// First scratch register (always reserved).
    pub scratch0: Reg,
    /// Second scratch register (always reserved).
    pub scratch1: Reg,
}

impl RegPlan {
    /// The plan for `mode`.
    #[must_use]
    pub fn for_mode(mode: IsaMode) -> RegPlan {
        // `r3` serves as the second lowering scratch everywhere: its value
        // never needs to survive a TIR instruction, and keeping it out of
        // the pool costs a caller-saved register instead of a callee-saved
        // one — which matters for call-heavy loops (soft-divide kernels).
        let caller_saved = [Reg::R0, Reg::R1, Reg::R2].into_iter().collect();
        match mode {
            IsaMode::T16 => RegPlan {
                allocatable: vec![Reg::R4, Reg::R5, Reg::R6, Reg::R0, Reg::R1, Reg::R2],
                caller_saved,
                scratch0: Reg::R7,
                scratch1: Reg::R3,
            },
            IsaMode::A32 | IsaMode::T2 => RegPlan {
                allocatable: vec![
                    Reg::R4,
                    Reg::R5,
                    Reg::R6,
                    Reg::R7,
                    Reg::R8,
                    Reg::R9,
                    Reg::R10,
                    Reg::R11,
                    Reg::R0,
                    Reg::R1,
                    Reg::R2,
                ],
                caller_saved,
                scratch0: Reg::R12,
                scratch1: Reg::R3,
            },
        }
    }
}

/// The result of allocation for one function.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Location of each virtual register, indexed by vreg id.
    pub locs: Vec<Loc>,
    /// Number of spill slots used.
    pub spill_slots: u32,
    /// Callee-saved registers that must be preserved in the prologue.
    pub used_callee_saved: RegList,
    /// Whether the function makes calls (needs `lr` saved).
    pub has_calls: bool,
}

impl Allocation {
    /// Location of `v`.
    ///
    /// # Panics
    ///
    /// Panics for a register never seen by the allocator.
    #[must_use]
    pub fn loc(&self, v: VReg) -> Loc {
        *self.locs.get(v.0 as usize).unwrap_or_else(|| panic!("unallocated vreg {v}"))
    }
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    vreg: VReg,
    start: u32,
    end: u32,
    crosses_call: bool,
    /// Number of instruction-level touches — the spill heuristic protects
    /// frequently-used (loop-carried) values.
    uses: u32,
}

/// Calls `f` on every vreg `o` reads.
fn operand_use(o: Operand, f: &mut impl FnMut(VReg)) {
    if let Operand::Reg(v) = o {
        f(v);
    }
}

/// Calls `f` on every vreg `inst` reads, once per operand, and returns
/// the vreg it writes.
fn inst_uses_def(inst: &Inst, mut f: impl FnMut(VReg)) -> Option<VReg> {
    match inst {
        Inst::Const { dst, .. } => Some(*dst),
        Inst::Copy { dst, src } => {
            operand_use(*src, &mut f);
            Some(*dst)
        }
        Inst::Bin { dst, a, b, .. } => {
            operand_use(*a, &mut f);
            operand_use(*b, &mut f);
            Some(*dst)
        }
        Inst::Un { dst, a, .. } => {
            operand_use(*a, &mut f);
            Some(*dst)
        }
        Inst::ExtractBits { dst, src, .. } => {
            operand_use(*src, &mut f);
            Some(*dst)
        }
        Inst::InsertBits { dst, src, .. } => {
            // read-modify-write: dst is also a use
            f(*dst);
            operand_use(*src, &mut f);
            Some(*dst)
        }
        Inst::Select { dst, a, b, t, f: fv, .. } => {
            for o in [a, b, t, fv] {
                operand_use(*o, &mut f);
            }
            Some(*dst)
        }
        Inst::Load { dst, base, offset, .. } => {
            f(*base);
            operand_use(*offset, &mut f);
            Some(*dst)
        }
        Inst::Store { src, base, offset, .. } => {
            operand_use(*src, &mut f);
            f(*base);
            operand_use(*offset, &mut f);
            None
        }
        Inst::Call { dst, args, .. } => {
            for a in args {
                operand_use(*a, &mut f);
            }
            *dst
        }
    }
}

/// Calls `f` on every vreg `term` reads.
fn term_uses(term: &Terminator, mut f: impl FnMut(VReg)) {
    match term {
        Terminator::Br { .. } | Terminator::Ret { value: None } => {}
        Terminator::CondBr { a, b, .. } => {
            operand_use(*a, &mut f);
            operand_use(*b, &mut f);
        }
        Terminator::Switch { value, .. } => f(*value),
        Terminator::Ret { value: Some(v) } => operand_use(*v, &mut f),
    }
}

/// Calls `f` on every successor of `term`.
fn successors(term: &Terminator, mut f: impl FnMut(BlockId)) {
    match term {
        Terminator::Br { target } => f(*target),
        Terminator::CondBr { then_bb, else_bb, .. } => {
            f(*then_bb);
            f(*else_bb);
        }
        Terminator::Switch { targets, default, .. } => {
            targets.iter().copied().for_each(&mut f);
            f(*default);
        }
        Terminator::Ret { .. } => {}
    }
}

/// Vreg sets, one row of `words` 64-bit words per block, in one vector.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, vregs: u32) -> BitRows {
        let words = (vregs as usize).div_ceil(64);
        BitRows { words, bits: vec![0; rows * words] }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.bits[r * self.words..(r + 1) * self.words]
    }
}

fn contains(row: &[u64], v: VReg) -> bool {
    row[v.0 as usize / 64] & 1 << (v.0 % 64) != 0
}

fn insert(row: &mut [u64], v: VReg) {
    row[v.0 as usize / 64] |= 1 << (v.0 % 64);
}

/// Calls `f` on every member of `row`.
fn members(row: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Computes one conservative live interval per touched vreg, plus whether
/// the function makes calls. Instruction indices are assigned in block
/// order; a block occupies `[start, start + insts]`, its terminator last.
fn live_intervals(f: &Function) -> (Vec<Interval>, bool) {
    let n_blocks = f.blocks.len();

    // Per-block use/def sets for dataflow.
    let mut gen_sets = BitRows::new(n_blocks, f.vreg_count);
    let mut kill_sets = BitRows::new(n_blocks, f.vreg_count);
    for (bi, b) in f.blocks.iter().enumerate() {
        let (gen, kill) = (gen_sets.row_mut(bi), kill_sets.row_mut(bi));
        for inst in &b.insts {
            let def = inst_uses_def(inst, |u| {
                if !contains(kill, u) {
                    insert(gen, u);
                }
            });
            if let Some(d) = def {
                insert(kill, d);
            }
        }
        term_uses(&b.term, |u| {
            if !contains(kill, u) {
                insert(gen, u);
            }
        });
    }

    // Backward dataflow to fixpoint: out = ∪ in(succ), in = gen ∪ (out − kill).
    let words = gen_sets.words;
    let mut live_in = BitRows::new(n_blocks, f.vreg_count);
    let mut live_out = BitRows::new(n_blocks, f.vreg_count);
    let mut out = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..n_blocks).rev() {
            out.fill(0);
            successors(&f.blocks[bi].term, |s| {
                for (o, i) in out.iter_mut().zip(live_in.row(s.0 as usize)) {
                    *o |= i;
                }
            });
            let (gen, kill) = (gen_sets.row(bi), kill_sets.row(bi));
            let (inn, old_out) = (live_in.row_mut(bi), live_out.row_mut(bi));
            for w in 0..words {
                let new_in = gen[w] | (out[w] & !kill[w]);
                if new_in != inn[w] || out[w] != old_out[w] {
                    inn[w] = new_in;
                    old_out[w] = out[w];
                    changed = true;
                }
            }
        }
    }

    // Conservative single interval per vreg: `range[v]` is
    // `(u32::MAX, 0)` until `v` is first touched.
    let n = f.vreg_count as usize;
    let mut range = vec![(u32::MAX, 0u32); n];
    let mut use_count = vec![0u32; n];
    let mut call_sites: Vec<u32> = Vec::new();
    let touch = |range: &mut [(u32, u32)], v: usize, at: u32| {
        let r = &mut range[v];
        r.0 = r.0.min(at);
        r.1 = r.1.max(at);
    };
    // Parameters are live from index 0.
    for p in &f.params {
        touch(&mut range, p.0 as usize, 0);
    }
    let mut b_start = 0u32;
    for (bi, b) in f.blocks.iter().enumerate() {
        let b_end = b_start + b.insts.len() as u32; // terminator index
        members(live_in.row(bi), |v| touch(&mut range, v, b_start));
        members(live_out.row(bi), |v| touch(&mut range, v, b_end));
        for (ii, inst) in b.insts.iter().enumerate() {
            let at = b_start + ii as u32;
            let mut touch_use = |v: VReg| {
                touch(&mut range, v.0 as usize, at);
                use_count[v.0 as usize] += 1;
            };
            if let Some(d) = inst_uses_def(inst, &mut touch_use) {
                touch_use(d);
            }
            if matches!(inst, Inst::Call { .. }) {
                call_sites.push(at);
            }
        }
        term_uses(&b.term, |v| {
            touch(&mut range, v.0 as usize, b_end);
            use_count[v.0 as usize] += 1;
        });
        b_start = b_end + 1;
    }

    let intervals = range
        .iter()
        .zip(&use_count)
        .enumerate()
        .filter(|(_, (&(start, _), _))| start != u32::MAX)
        .map(|(v, (&(start, end), &uses))| Interval {
            vreg: VReg(v as u32),
            start,
            end,
            crosses_call: call_sites.iter().any(|&c| start <= c && c < end),
            uses,
        })
        .collect();
    (intervals, !call_sites.is_empty())
}

/// Runs linear-scan allocation for `f` under `plan`.
#[must_use]
pub fn allocate(f: &Function, plan: &RegPlan) -> Allocation {
    let (mut intervals, has_calls) = live_intervals(f);
    intervals.sort_by_key(|i| (i.start, i.vreg.0));

    // A vreg never touched (dead) keeps a throwaway slot-free location.
    let mut locs = vec![Loc::Reg(plan.scratch0); f.vreg_count as usize];
    let mut active: Vec<(Interval, Reg)> = Vec::new();
    let mut free: Vec<Reg> = plan.allocatable.clone();
    let mut spill_slots = 0u32;
    let mut used = RegList::new();

    // Parameter preference: if a parameter's incoming register is
    // allocatable and the interval permits, try it first.
    let mut param_pref: Vec<Option<Reg>> = vec![None; f.vreg_count as usize];
    for (i, p) in f.params.iter().enumerate() {
        param_pref[p.0 as usize] = Some(Reg::new(i as u8));
    }

    for interval in intervals {
        // Expire old intervals.
        active.retain(|(act, reg)| {
            if act.end < interval.start {
                free.push(*reg);
                false
            } else {
                true
            }
        });
        // Pick a register: honour caller-saved restrictions.
        let eligible = |r: &Reg| !(interval.crosses_call && plan.caller_saved.contains(*r));
        let choice = match param_pref[interval.vreg.0 as usize] {
            Some(p) if free.contains(&p) && eligible(&p) => {
                free.retain(|r| *r != p);
                Some(p)
            }
            _ => {
                let pos = free.iter().position(eligible);
                pos.map(|i| free.remove(i))
            }
        };
        let vreg = interval.vreg.0 as usize;
        match choice {
            Some(reg) => {
                locs[vreg] = Loc::Reg(reg);
                used.insert(reg);
                active.push((interval, reg));
            }
            None => {
                // Spill the least-used eligible interval (loop-carried
                // values have many touches and are kept in registers; a
                // spilled hot value costs a reload on every use).
                let candidate = active
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, r))| eligible(r))
                    .min_by_key(|(_, (act, _))| (act.uses, u32::MAX - act.end))
                    .map(|(i, _)| i);
                match candidate {
                    Some(i) if active[i].0.uses < interval.uses => {
                        let (victim, reg) = active.remove(i);
                        locs[victim.vreg.0 as usize] = Loc::Spill(spill_slots);
                        spill_slots += 1;
                        locs[vreg] = Loc::Reg(reg);
                        active.push((interval, reg));
                    }
                    _ => {
                        locs[vreg] = Loc::Spill(spill_slots);
                        spill_slots += 1;
                    }
                }
            }
        }
    }

    let used_callee_saved = RegList::from_bits(used.bits() & !plan.caller_saved.bits());
    Allocation { locs, spill_slots, used_callee_saved, has_calls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alia_tir::{BinOp, CmpKind, FunctionBuilder};

    fn simple_loop() -> Function {
        let mut b = FunctionBuilder::new("f", 2);
        let n = b.param(0);
        let m = b.param(1);
        let s = b.imm(0);
        let i = b.imm(0);
        let hdr = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(hdr);
        b.switch_to(hdr);
        b.cond_br(CmpKind::Ult, i, n, body, exit);
        b.switch_to(body);
        let t = b.bin(BinOp::Mul, i, m);
        b.bin_into(s, BinOp::Add, s, t);
        b.bin_into(i, BinOp::Add, i, 1u32);
        b.br(hdr);
        b.switch_to(exit);
        b.ret(Some(s.into()));
        b.build()
    }

    #[test]
    fn small_function_gets_registers_only() {
        let f = simple_loop();
        for mode in IsaMode::ALL {
            let plan = RegPlan::for_mode(mode);
            let a = allocate(&f, &plan);
            assert_eq!(a.spill_slots, 0, "{mode}");
            // Loop-carried vregs must be in registers.
            for v in 0..f.vreg_count {
                match a.loc(VReg(v)) {
                    Loc::Reg(r) => {
                        assert!(
                            plan.allocatable.contains(&r) || r == plan.scratch0,
                            "{mode}: vreg {v} in non-allocatable {r}"
                        );
                    }
                    Loc::Spill(_) => panic!("unexpected spill"),
                }
            }
        }
    }

    #[test]
    fn distinct_registers_for_overlapping_intervals() {
        let f = simple_loop();
        let a = allocate(&f, &RegPlan::for_mode(IsaMode::T2));
        // s, i, n all live simultaneously in the loop: distinct registers.
        let locs: Vec<Loc> =
            [0u32, 2, 3].iter().map(|v| a.loc(VReg(*v))).collect();
        for (i, x) in locs.iter().enumerate() {
            for y in &locs[i + 1..] {
                assert_ne!(x, y, "overlapping vregs share a location");
            }
        }
    }

    #[test]
    fn high_pressure_spills_on_t16_but_not_t2() {
        // 12 simultaneously-live values.
        let mut b = FunctionBuilder::new("wide", 1);
        let x = b.param(0);
        let vals: Vec<_> = (0..12).map(|i| b.bin(BinOp::Add, x, i as u32)).collect();
        let mut acc = b.imm(0);
        for v in vals {
            acc = b.bin(BinOp::Xor, acc, v);
        }
        b.ret(Some(acc.into()));
        let f = b.build();
        let t16 = allocate(&f, &RegPlan::for_mode(IsaMode::T16));
        let t2 = allocate(&f, &RegPlan::for_mode(IsaMode::T2));
        assert!(t16.spill_slots > 0, "T16 must spill under pressure");
        assert!(
            t2.spill_slots < t16.spill_slots,
            "T2's larger file must spill less"
        );
    }

    #[test]
    fn call_crossing_vregs_avoid_caller_saved() {
        let mut m = alia_tir::Module::new();
        let mut callee = FunctionBuilder::new("callee", 0);
        callee.ret(Some(1u32.into()));
        let callee_id = m.add_function(callee.build());

        let mut b = FunctionBuilder::new("caller", 1);
        let x = b.param(0);
        let kept = b.bin(BinOp::Add, x, 5u32); // live across the call
        let r = b.call(callee_id, &[]);
        let out = b.bin(BinOp::Add, kept, r);
        b.ret(Some(out.into()));
        let f = b.build();
        let plan = RegPlan::for_mode(IsaMode::T2);
        let a = allocate(&f, &plan);
        match a.loc(kept) {
            Loc::Reg(r) => assert!(!plan.caller_saved.contains(r), "{r} is caller-saved"),
            Loc::Spill(_) => {}
        }
        assert!(a.has_calls);
    }

    #[test]
    fn params_prefer_incoming_registers_in_leaves() {
        let mut b = FunctionBuilder::new("leaf", 2);
        let x = b.param(0);
        let y = b.param(1);
        let r = b.bin(BinOp::Add, x, y);
        b.ret(Some(r.into()));
        let f = b.build();
        let a = allocate(&f, &RegPlan::for_mode(IsaMode::T2));
        assert_eq!(a.loc(VReg(0)), Loc::Reg(Reg::R0));
        assert_eq!(a.loc(VReg(1)), Loc::Reg(Reg::R1));
    }
}
