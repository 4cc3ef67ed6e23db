//! A fluent builder for TIR functions.

use crate::{
    AccessSize, BinOp, Block, BlockId, CmpKind, FuncId, Function, Inst, Operand, Terminator,
    UnOp, VReg,
};

/// Incrementally constructs a [`Function`].
///
/// Blocks are created with [`FunctionBuilder::new_block`] and selected with
/// [`FunctionBuilder::switch_to`]; instructions append to the current
/// block. Every block must be finished with exactly one terminator before
/// [`FunctionBuilder::build`].
///
/// # Examples
///
/// Build `fn triple(x) { return x * 3 }`:
///
/// ```
/// use alia_tir::{FunctionBuilder, BinOp};
/// let mut b = FunctionBuilder::new("triple", 1);
/// let x = b.param(0);
/// let r = b.bin(BinOp::Mul, x, 3u32);
/// b.ret(Some(r.into()));
/// let f = b.build();
/// assert_eq!(f.name, "triple");
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    params: Vec<VReg>,
    next_vreg: u32,
    blocks: Vec<PendingBlock>,
    current: usize,
}

#[derive(Debug)]
struct PendingBlock {
    id: BlockId,
    insts: Vec<Inst>,
    term: Option<Terminator>,
}

impl FunctionBuilder {
    /// Starts a function with `param_count` parameters (at most 4) and an
    /// entry block already selected.
    ///
    /// # Panics
    ///
    /// Panics if `param_count > 4` (the ALIA call convention passes
    /// arguments in `r0..r3`).
    #[must_use]
    pub fn new(name: impl Into<String>, param_count: usize) -> FunctionBuilder {
        assert!(param_count <= 4, "at most 4 parameters supported");
        let params: Vec<VReg> = (0..param_count as u32).map(VReg).collect();
        FunctionBuilder {
            name: name.into(),
            params,
            next_vreg: param_count as u32,
            blocks: vec![PendingBlock { id: BlockId(0), insts: Vec::new(), term: None }],
            current: 0,
        }
    }

    /// The `i`-th parameter register.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn param(&self, i: usize) -> VReg {
        self.params[i]
    }

    /// Allocates a fresh virtual register.
    pub fn vreg(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    /// Creates a new (unselected) block and returns its label.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(PendingBlock { id, insts: Vec::new(), term: None });
        id
    }

    /// Makes `block` the insertion point.
    ///
    /// # Panics
    ///
    /// Panics if the block is unknown or already terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        let idx = block.0 as usize;
        assert!(idx < self.blocks.len(), "unknown block {block}");
        assert!(self.blocks[idx].term.is_none(), "{block} already terminated");
        self.current = idx;
    }

    fn push(&mut self, inst: Inst) {
        let b = &mut self.blocks[self.current];
        assert!(b.term.is_none(), "block {} already terminated", b.id);
        b.insts.push(inst);
    }

    fn terminate(&mut self, term: Terminator) {
        let b = &mut self.blocks[self.current];
        assert!(b.term.is_none(), "block {} already terminated", b.id);
        b.term = Some(term);
    }

    /// `dst = value` into a fresh register.
    pub fn imm(&mut self, value: u32) -> VReg {
        let dst = self.vreg();
        self.push(Inst::Const { dst, value });
        dst
    }

    /// Copies `src` into a fresh register.
    pub fn copy(&mut self, src: impl Into<Operand>) -> VReg {
        let dst = self.vreg();
        self.push(Inst::Copy { dst, src: src.into() });
        dst
    }

    /// Reassigns an existing register: `dst = src`.
    pub fn assign(&mut self, dst: VReg, src: impl Into<Operand>) {
        self.push(Inst::Copy { dst, src: src.into() });
    }

    /// `fresh = a <op> b`.
    pub fn bin(&mut self, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        let dst = self.vreg();
        self.push(Inst::Bin { op, dst, a: a.into(), b: b.into() });
        dst
    }

    /// `dst = a <op> b` into an existing register.
    pub fn bin_into(
        &mut self,
        dst: VReg,
        op: BinOp,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) {
        self.push(Inst::Bin { op, dst, a: a.into(), b: b.into() });
    }

    /// `fresh = <op> a`.
    pub fn un(&mut self, op: UnOp, a: impl Into<Operand>) -> VReg {
        let dst = self.vreg();
        self.push(Inst::Un { op, dst, a: a.into() });
        dst
    }

    /// Bit-field extract into a fresh register.
    pub fn extract_bits(
        &mut self,
        src: impl Into<Operand>,
        lsb: u8,
        width: u8,
        signed: bool,
    ) -> VReg {
        let dst = self.vreg();
        self.push(Inst::ExtractBits { dst, src: src.into(), lsb, width, signed });
        dst
    }

    /// Bit-field insert (read-modify-write of `dst`).
    pub fn insert_bits(&mut self, dst: VReg, src: impl Into<Operand>, lsb: u8, width: u8) {
        self.push(Inst::InsertBits { dst, src: src.into(), lsb, width });
    }

    /// `fresh = cmp(a,b) ? t : f`.
    pub fn select(
        &mut self,
        kind: CmpKind,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        t: impl Into<Operand>,
        f: impl Into<Operand>,
    ) -> VReg {
        let dst = self.vreg();
        self.push(Inst::Select {
            dst,
            kind,
            a: a.into(),
            b: b.into(),
            t: t.into(),
            f: f.into(),
        });
        dst
    }

    /// Word load into a fresh register.
    pub fn load(&mut self, base: VReg, offset: impl Into<Operand>) -> VReg {
        self.load_sized(AccessSize::Word, false, base, offset)
    }

    /// Sized load into a fresh register.
    pub fn load_sized(
        &mut self,
        size: AccessSize,
        signed: bool,
        base: VReg,
        offset: impl Into<Operand>,
    ) -> VReg {
        let dst = self.vreg();
        self.push(Inst::Load { dst, size, signed, base, offset: offset.into() });
        dst
    }

    /// Word store.
    pub fn store(&mut self, base: VReg, offset: impl Into<Operand>, src: impl Into<Operand>) {
        self.store_sized(AccessSize::Word, base, offset, src);
    }

    /// Sized store.
    pub fn store_sized(
        &mut self,
        size: AccessSize,
        base: VReg,
        offset: impl Into<Operand>,
        src: impl Into<Operand>,
    ) {
        self.push(Inst::Store { src: src.into(), size, base, offset: offset.into() });
    }

    /// Calls `func`, returning the result register (always allocated).
    pub fn call(&mut self, func: FuncId, args: &[Operand]) -> VReg {
        assert!(args.len() <= 4, "at most 4 call arguments supported");
        let dst = self.vreg();
        self.push(Inst::Call { dst: Some(dst), func, args: args.to_vec() });
        dst
    }

    /// Unconditional branch terminator.
    pub fn br(&mut self, target: BlockId) {
        self.terminate(Terminator::Br { target });
    }

    /// Conditional branch terminator.
    pub fn cond_br(
        &mut self,
        kind: CmpKind,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        then_bb: BlockId,
        else_bb: BlockId,
    ) {
        self.terminate(Terminator::CondBr {
            kind,
            a: a.into(),
            b: b.into(),
            then_bb,
            else_bb,
        });
    }

    /// Switch terminator over `value - base` into `targets`.
    pub fn switch(&mut self, value: VReg, base: u32, targets: Vec<BlockId>, default: BlockId) {
        self.terminate(Terminator::Switch { value, base, targets, default });
    }

    /// Return terminator.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.terminate(Terminator::Ret { value });
    }

    /// Finishes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator.
    #[must_use]
    pub fn build(self) -> Function {
        let blocks = self
            .blocks
            .into_iter()
            .map(|b| Block {
                id: b.id,
                insts: b.insts,
                term: b.term.unwrap_or_else(|| panic!("block {} has no terminator", b.id)),
            })
            .collect();
        Function {
            name: self.name,
            params: self.params,
            vreg_count: self.next_vreg,
            blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_loop_structure() {
        // fn sum(n) { s = 0; for i in 0..n { s += i }; return s }
        let mut b = FunctionBuilder::new("sum", 1);
        let n = b.param(0);
        let s = b.imm(0);
        let i = b.imm(0);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        b.cond_br(CmpKind::Ult, i, n, body, exit);
        b.switch_to(body);
        b.bin_into(s, BinOp::Add, s, i);
        b.bin_into(i, BinOp::Add, i, 1u32);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(s.into()));
        let f = b.build();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.vreg_count, 3);
        assert!(matches!(f.blocks[1].term, Terminator::CondBr { .. }));
    }

    #[test]
    #[should_panic(expected = "no terminator")]
    fn unterminated_block_panics() {
        let b = FunctionBuilder::new("broken", 0);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut b = FunctionBuilder::new("double", 0);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    #[should_panic(expected = "at most 4 parameters")]
    fn too_many_params_panics() {
        let _ = FunctionBuilder::new("many", 5);
    }
}
