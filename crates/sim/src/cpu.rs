//! Architectural CPU state and ALU helpers.

use alia_isa::{Cond, Flags, Operand2, Reg};
use std::collections::VecDeque;

/// Magic link-register value marking a hardware-stacked exception return.
pub const EXC_RETURN_HW: u32 = 0xFFFF_FFF9;
/// Magic link-register value marking a software-preamble handler return.
pub const EXC_RETURN_SW: u32 = 0xFFFF_FFF1;

/// Architectural register and flag state.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General-purpose registers; `regs[15]` is not used directly — see
    /// [`Cpu::pc`].
    pub regs: [u32; 16],
    /// Program counter (address of the next instruction to execute).
    pub pc: u32,
    /// Arithmetic flags.
    pub flags: Flags,
    /// Global interrupt disable (`cpsid i` sets, `cpsie i` clears).
    pub primask: bool,
    /// Outstanding IT-block conditions (front = next instruction's).
    pub it_queue: ItQueue,
    /// Depth of active exception handlers.
    pub handler_depth: u32,
}

/// Fixed-capacity queue of outstanding IT-block conditions.
///
/// An IT block predicates at most four instructions, so the queue lives
/// inline in the CPU state — executing an `it` instruction allocates
/// nothing (the seed used a `VecDeque`, a per-`it` heap allocation on the
/// interpreter hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItQueue {
    conds: [Cond; 4],
    len: u8,
    pos: u8,
}

impl Default for ItQueue {
    fn default() -> ItQueue {
        ItQueue { conds: [Cond::Al; 4], len: 0, pos: 0 }
    }
}

impl ItQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> ItQueue {
        ItQueue::default()
    }

    /// Replaces the queue with the expansion of an IT block: `firstcond`
    /// followed by `count - 1` then/else conditions per `mask` (LSB
    /// first, `1` = then).
    pub fn load(&mut self, firstcond: Cond, mask: u8, count: u8) {
        self.conds[0] = firstcond;
        let n = count.clamp(1, 4);
        for i in 0..n.saturating_sub(1) {
            self.conds[(i + 1) as usize] = if mask >> i & 1 != 0 {
                firstcond
            } else {
                firstcond.inverted()
            };
        }
        self.len = n;
        self.pos = 0;
    }

    /// Takes the next outstanding condition, if any.
    pub fn pop_front(&mut self) -> Option<Cond> {
        if self.pos == self.len {
            return None;
        }
        let c = self.conds[self.pos as usize];
        self.pos += 1;
        Some(c)
    }

    /// Discards all outstanding conditions.
    pub fn clear(&mut self) {
        self.len = 0;
        self.pos = 0;
    }

    /// Whether no conditions are outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.len
    }

    /// Outstanding condition count.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len - self.pos)
    }
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new()
    }
}

impl Cpu {
    /// A reset CPU: registers zero, flags clear, interrupts enabled.
    #[must_use]
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; 16],
            pc: 0,
            flags: Flags::default(),
            primask: false,
            it_queue: ItQueue::new(),
            handler_depth: 0,
        }
    }

    /// Reads a register; the PC reads as `pc + bias` per the ISA mode.
    #[must_use]
    pub fn read_reg(&self, r: Reg, pc_bias: u32) -> u32 {
        if r == Reg::PC {
            self.pc.wrapping_add(pc_bias)
        } else {
            self.regs[r.index() as usize]
        }
    }

    /// Writes a register. Writing the PC is handled by the machine (this
    /// method stores it like any register; callers check for `Reg::PC`).
    pub fn write_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index() as usize] = value;
    }

    /// The stack pointer.
    #[must_use]
    pub fn sp(&self) -> u32 {
        self.regs[13]
    }

    /// Sets the stack pointer.
    pub fn set_sp(&mut self, v: u32) {
        self.regs[13] = v;
    }

    /// The link register.
    #[must_use]
    pub fn lr(&self) -> u32 {
        self.regs[14]
    }

    /// Sets the link register.
    pub fn set_lr(&mut self, v: u32) {
        self.regs[14] = v;
    }

    /// Evaluates a flexible second operand, returning the value and the
    /// shifter carry-out.
    #[must_use]
    pub fn eval_operand2(&self, op2: Operand2, pc_bias: u32) -> (u32, bool) {
        match op2 {
            Operand2::Imm(v) => (v, self.flags.c),
            Operand2::Reg(r) => (self.read_reg(r, pc_bias), self.flags.c),
            Operand2::RegShiftImm(r, sh, amt) => {
                sh.apply(self.read_reg(r, pc_bias), u32::from(amt), self.flags.c)
            }
            Operand2::RegShiftReg(r, sh, rs) => {
                let amt = self.read_reg(rs, pc_bias) & 0xFF;
                sh.apply(self.read_reg(r, pc_bias), amt, self.flags.c)
            }
        }
    }

    /// Updates N and Z from `result`.
    pub fn set_nz(&mut self, result: u32) {
        self.flags.n = result >> 31 != 0;
        self.flags.z = result == 0;
    }
}

/// `a + b + carry_in`, returning `(result, carry_out, overflow)`.
#[must_use]
pub fn add_with_carry(a: u32, b: u32, carry_in: bool) -> (u32, bool, bool) {
    let unsigned = u64::from(a) + u64::from(b) + u64::from(carry_in);
    let result = unsigned as u32;
    let carry = unsigned > u64::from(u32::MAX);
    let signed = i64::from(a as i32) + i64::from(b as i32) + i64::from(carry_in);
    let overflow = signed != i64::from(result as i32);
    (result, carry, overflow)
}

/// Expands an IT block into a per-instruction condition list (reference
/// form used by tests and tools; the machine hot path uses
/// [`ItQueue::load`], which performs the same expansion in place).
#[must_use]
pub fn expand_it(firstcond: Cond, mask: u8, count: u8) -> VecDeque<Cond> {
    let mut q = VecDeque::with_capacity(count as usize);
    q.push_back(firstcond);
    for i in 0..count.saturating_sub(1) {
        if mask >> i & 1 != 0 {
            q.push_back(firstcond);
        } else {
            q.push_back(firstcond.inverted());
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use alia_isa::ShiftOp;

    #[test]
    fn add_with_carry_flag_semantics() {
        let (r, c, v) = add_with_carry(u32::MAX, 1, false);
        assert_eq!(r, 0);
        assert!(c);
        assert!(!v);
        let (r, c, v) = add_with_carry(0x7FFF_FFFF, 1, false);
        assert_eq!(r, 0x8000_0000);
        assert!(!c);
        assert!(v);
        // Subtraction via a + !b + 1: 5 - 3.
        let (r, c, v) = add_with_carry(5, !3, true);
        assert_eq!(r, 2);
        assert!(c); // no borrow
        assert!(!v);
        // 3 - 5 borrows.
        let (r, c, _) = add_with_carry(3, !5, true);
        assert_eq!(r, (-2i32) as u32);
        assert!(!c);
    }

    #[test]
    fn pc_reads_are_biased() {
        let mut cpu = Cpu::new();
        cpu.pc = 0x100;
        assert_eq!(cpu.read_reg(Reg::PC, 8), 0x108);
        assert_eq!(cpu.read_reg(Reg::PC, 4), 0x104);
        cpu.write_reg(Reg::R5, 99);
        assert_eq!(cpu.read_reg(Reg::R5, 8), 99);
    }

    #[test]
    fn it_queue_matches_expand_it() {
        for mask in 0..16u8 {
            for count in 1..=4u8 {
                let mut q = ItQueue::new();
                q.load(Cond::Eq, mask, count);
                assert_eq!(q.len(), count as usize);
                let mut reference = expand_it(Cond::Eq, mask, count);
                while let Some(c) = reference.pop_front() {
                    assert_eq!(q.pop_front(), Some(c));
                }
                assert!(q.is_empty());
                assert_eq!(q.pop_front(), None);
            }
        }
    }

    #[test]
    fn it_expansion() {
        // ITTE EQ -> eq, eq, ne ... mask bits (LSB first): [1, 0]
        let q = expand_it(Cond::Eq, 0b01, 3);
        assert_eq!(q, VecDeque::from(vec![Cond::Eq, Cond::Eq, Cond::Ne]));
        let q = expand_it(Cond::Lt, 0, 1);
        assert_eq!(q, VecDeque::from(vec![Cond::Lt]));
    }

    #[test]
    fn operand2_shifter_carry() {
        let mut cpu = Cpu::new();
        cpu.write_reg(Reg::R1, 0x8000_0001);
        let (v, c) = cpu.eval_operand2(Operand2::RegShiftImm(Reg::R1, ShiftOp::Lsl, 1), 4);
        assert_eq!(v, 2);
        assert!(c);
        cpu.flags.c = true;
        let (v, c) = cpu.eval_operand2(Operand2::Imm(7), 4);
        assert_eq!(v, 7);
        assert!(c); // immediate preserves carry
    }
}
