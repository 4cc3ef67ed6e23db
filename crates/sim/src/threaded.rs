//! The block engine's threaded code: every recorded block is lowered
//! here when `Machine::finish_record` installs it.
//!
//! Each [`Op`] is a pre-resolved handler function pointer plus decoded
//! operands (registers, immediates, access lengths, a memory-class
//! fetch plan), dispatched by a tight loop with no re-decode and no
//! generic match. The per-step interpreter is the only other execution
//! path: it fills blocks, takes interrupts, runs `wfi`/`bkpt` and
//! resumes after splits.
//!
//! Four mechanisms carry the speed:
//!
//! * **Handler specialization** — the dominant single instructions get
//!   dedicated handlers that touch exactly the state the instruction
//!   touches: ALU reg/imm (`add`/`sub`/`and`/`orr`/`eor`/`bic`),
//!   `mov`/`movw`, shifted-register moves (`lsl`/`lsr`/`asr`/`ror` by
//!   an immediate or a register amount, flag-setting or not), `mul`/
//!   `muls`, `ubfx`, `bfi`, `cmp`, direct branches, `cbz`/`cbnz`,
//!   unsigned `ldr`/`str` (word, byte, halfword) with an immediate or
//!   a register offset (`[rn, #imm]`, `[rn, rm, lsl #k]`), and the
//!   word literal-pool load, whose address is fixed at lowering.
//!   Register-only ops other than ALU and `mov` share one handler that
//!   matches on their [`RegOp`]; loads and stores match on their
//!   [`Ea`] addressing form. Everything else falls back to a generic
//!   handler that reuses [`Machine::issue`], so the lowering never has
//!   to be complete to be correct.
//! * **Superinstruction fusion** — the dominant dynamic pairs
//!   (`cmp`+branch, `alu`+`cmp`, `alu`+branch loop backedges,
//!   `ldr`+`alu` with any addressing form, and any two adjacent
//!   register-only ops — shift chains, shift+ALU, `mov`+`mul`...) are
//!   fused into single handlers, halving dispatch count on loop-shaped
//!   code. Both halves of every pair are pure, so a fused handler
//!   compares the cycle budget *between* its two halves, and interrupts
//!   and `run_until` bounds land on exactly the instruction boundary
//!   the per-step path puts them on.
//!   The register-pair handler runs both halves through one `match`
//!   on [`RegOp`]; one instantiation per pair of kinds measured
//!   slower (more code for the same dispatches).
//! * **Fetch-timing replay by plan** — in flash every fetch of a block
//!   gets a [`FetchPlan`] that replaces `Machine::fetch_timing`.
//!   Without an I-cache the plans replay the streaming-buffer walk: a
//!   fetch the builder proves window-resident is [`FetchPlan::Free`]
//!   (zero cycles, no state change); the refill of the window right
//!   after a known buffered one is [`FetchPlan::Seq`] (one sequential
//!   beat, no check); any other fetch that stays inside one window is
//!   [`FetchPlan::Window`], which refills the window unless the buffer
//!   already holds it — exactly what `fetch_timing` does for such a
//!   fetch, so it needs no knowledge of the buffered window and also
//!   covers block entry and the fetch after a load or store (the
//!   lowering's fetch model forgets the buffered window after every
//!   data access: a literal-pool load breaks the flash stream, and so
//!   does an SRAM access on a unified bus). With an I-cache they track
//!   its lines: a fetch to a new line, and the first fetch of every
//!   dispatch, is one live lookup ([`FetchPlan::Line`]); a fetch to the
//!   line of the fetch before it is a hit on the line the cache last
//!   touched ([`FetchPlan::LineHit`]). Only a fetch spanning windows
//!   from an unknown buffer state, or non-flash code, runs
//!   `fetch_timing` in full ([`FetchPlan::Slow`]). Which model a block
//!   was planned with (the I-cache's line size, or none) is part of
//!   the block cache's generation stamp. The plans skip the MPU's
//!   per-fetch execute check: [`dispatch`] checks the block's whole
//!   code range once instead (`Mpu::executes`), and hands a block it
//!   cannot prove executable to the per-step path.
//! * **Whole-segment dispatch** — the builder cuts each block into
//!   [`Segment`]s: runs of register-only ops whose every fetch but the
//!   head's first is static. When a segment's worst case fits under
//!   the cycle budget, [`dispatch`] runs it as one piece: the head's
//!   first fetch live, a precomputed summary of every other fetch once,
//!   then the ops' register halves. Otherwise the ops run one at a
//!   time, so a budget split still lands on the exact instruction.
//!
//! # IT blocks
//!
//! An `it` header joins its block like any other instruction. The
//! entries it covers are lowered onto the generic handler and never
//! fused: `Machine::issue` pops the IT queue for them exactly as the
//! per-step path does. The specialized handlers ignore the queue, which
//! is sound because of the one **dispatch gate** in [`dispatch`]: a
//! block runs — entered, chained or self-looping — only with an empty
//! IT queue and no latched exit code, so the queue can only fill inside
//! a dispatch by running one of the block's own `it` ops. Otherwise the
//! per-step path takes the next instruction.
//!
//! # Bit-identity contract
//!
//! The lowering is host-only: cycles, checksums, IRQ pend/entry
//! stamps, flash/patch statistics, cache statistics, MPU violations and
//! stop reasons are bit-identical
//! with the block engine on or off (`predecode` off is the uncached
//! per-step reference). After every *impure* op — one that can pend an
//! interrupt, raise a device signal, move the code-write generation,
//! touch `next_event` or set the exit code — the dispatch loop re-checks
//! everything the per-step dispatch could react to at that boundary
//! (see `Machine::exec_blocks`). After a *pure* op those re-checks are
//! vacuous, so only the cycle budget is compared (against a bound
//! recomputed after every impure op). Purity is classified
//! conservatively at build time. A single load is pure, since a device
//! register read has no side effects; a store, a multi-register load,
//! or anything that might exception-return is impure.
//!
//! Invalidation is the block cache's: threaded code lives in
//! `BlockCache` slots and dies with them (generation stamps, watermark
//! stores, evictions), counted as demotions.

use alia_isa::{AddrMode, Cond, DpOp, Index, Instr, IsaMode, Offset, Operand2, Reg, ShiftOp};

use crate::cache::Cache;
use crate::cpu::{add_with_carry, EXC_RETURN_HW, EXC_RETURN_SW};
use crate::machine::{width_mask, Machine, StopReason};
use crate::mem::{Access, FLASH_BASE};
use crate::predecode::{Entry, MAX_BLOCK_LEN};

/// A handler: executes one [`Op`] (one instruction or one fused pair)
/// against the machine and reports how the dispatch loop should
/// proceed.
pub(crate) type Handler = fn(&mut Machine, &Op, &ExecCtx) -> Ctl;

/// Handler outcome, consumed by [`dispatch`].
#[derive(Debug)]
pub(crate) enum Ctl {
    /// Straight-line: fell through to the next op.
    Next,
    /// Control transfer (or conditional fall-through past a terminal
    /// branch): leave the block and chain at the current PC.
    Exit,
    /// The cycle budget tripped between the halves of a fused pair:
    /// split, counting a budget split.
    SplitBudget,
    /// Execution stopped (fault, breakpoint, MMIO exit...).
    Stop(StopReason),
}

/// How a block dispatch ended, as seen by the chain loop in
/// `Machine::exec_blocks`.
#[derive(Debug)]
pub(crate) enum BlockExit {
    /// Block completed; chain at the current PC.
    Chain,
    /// The dispatch gate was closed at a block boundary (outstanding IT
    /// predication or a latched exit code): the per-step path takes the
    /// next instruction without a fresh IRQ drain, which would be a
    /// no-op there.
    Gate,
    /// Safety split back to the per-step path.
    Split,
    /// Budget split back to the per-step path (counted by the caller).
    SplitBudget,
    /// Execution stopped.
    Stop(StopReason),
}

/// Per-dispatch context: the dispatch loop updates it, the handlers
/// only read it.
#[derive(Debug)]
pub(crate) struct ExecCtx {
    /// `min(cycle_limit, sched_due, bus.next_event())`, recomputed
    /// after every impure op — the single compare pure ops make.
    pub(crate) bound: u64,
    /// Flash streaming-window size (bytes) for [`FetchPlan::Window`].
    pub(crate) window: u32,
    /// First fetch length: `mode.min_instr_size()`.
    pub(crate) flen: u32,
}

/// Precomputed replay of one `Machine::fetch_timing` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FetchPlan {
    /// No call at all (unused second-fetch slot of a narrow op).
    None,
    /// Statically window-resident: zero cycles, no state change.
    Free,
    /// A fetch whose only possible refill is the given window base (it
    /// lies inside that window, or the windows before it are provably
    /// resident): refill it with one live `Flash::access_timing` fetch
    /// unless `fetch_window` already holds it, then leave it buffered.
    Window(u32),
    /// The refill of the given window base, provably the window right
    /// after the buffered one: one sequential beat (the flash is at
    /// least 2 bytes wide, so a window is one beat), with no check and
    /// no `Flash::access_timing` call.
    Seq(u32),
    /// With an I-cache: a fetch on a line other than the previous
    /// fetch's, or the first fetch of a dispatch. One live
    /// `Cache::access`, plus the parity refetch `fetch_timing` makes.
    Line,
    /// With an I-cache: a fetch on the line of the fetch before it in
    /// the same dispatch, which that fetch left valid and clean. A hit
    /// on the line the cache last touched: 1 cycle.
    LineHit,
    /// Unplannable (non-flash code, a fetch spanning windows from an
    /// unknown buffer state): run `fetch_timing` in full.
    Slow,
}

/// ALU micro-operation kind shared by specialized and fused handlers.
/// Only the two-operand forms without carry-in participate; `adc`,
/// `sbc` and `rsb` stay on the generic handler.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AluKind {
    /// `rd = rn + op2`
    Add,
    /// `rd = rn - op2`
    Sub,
    /// `rd = rn & op2`
    And,
    /// `rd = rn | op2`
    Orr,
    /// `rd = rn ^ op2`
    Eor,
    /// `rd = rn & !op2`
    Bic,
}

/// The register-only operation a [`Half`] performs — what the
/// register handlers dispatch on (memory halves leave it unused).
#[derive(Debug, Clone, Copy)]
pub(crate) enum RegOp {
    /// [`AluKind`] data processing.
    Alu,
    /// `mov`/`movw` of a register or immediate.
    Mov,
    /// Shifted-register move by the immediate amount `imm`.
    ShiftImm,
    /// Shifted-register move by the bottom byte of `rn`.
    ShiftReg,
    /// `mul{s}`.
    Mul,
    /// `ubfx`: `rd = rn >> imm & len`.
    Ubfx,
    /// `bfi`: `rd = rd & !len | rn << imm & len`.
    Bfi,
    /// `cmp`: the flags of `rn - op2`.
    Cmp,
}

/// The addressing form of a memory [`Half`] (offset addressing, no
/// writeback).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ea {
    /// `[rn, #imm]`.
    Imm,
    /// `[rn, rm, lsl #imm]`.
    Reg,
    /// The absolute address `imm`: a literal-pool load, whose
    /// `pc`-relative address is fixed when the block is lowered.
    Abs,
}

/// Pre-resolved operands for one instruction (or one half of a fused
/// pair). Fields are only meaningful for the handler that reads them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Half {
    /// Register-only operation (register handlers).
    pub(crate) op: RegOp,
    /// Addressing form (memory handlers).
    pub(crate) ea: Ea,
    /// ALU kind (ALU handlers).
    pub(crate) kind: AluKind,
    /// Shift kind (shifted-register move handlers).
    pub(crate) sh: ShiftOp,
    /// Flag-setting (`s` suffix).
    pub(crate) s: bool,
    /// Second operand is `rm` (`true`) or `imm` (`false`).
    pub(crate) b_reg: bool,
    /// Destination register / `ldr`/`str` transfer register.
    pub(crate) rd: Reg,
    /// First operand register / memory base register / register shift
    /// amount / first multiplicand.
    pub(crate) rn: Reg,
    /// Register second operand / memory offset register / shifted
    /// register / second multiplicand.
    pub(crate) rm: Reg,
    /// Immediate second operand / memory offset (sign-extended) /
    /// offset register's left shift / absolute literal address / shift
    /// amount / bitfield `lsb`.
    pub(crate) imm: u32,
    /// Memory access length in bytes (`ldr`/`str` handlers) / bitfield
    /// mask (`ubfx`: `width` ones; `bfi`: shifted to `lsb`).
    pub(crate) len: u32,
}

impl Half {
    /// Placeholder for unused halves.
    pub(crate) const NONE: Half = Half {
        op: RegOp::Alu,
        ea: Ea::Imm,
        kind: AluKind::Add,
        sh: ShiftOp::Lsl,
        s: false,
        b_reg: false,
        rd: Reg::R0,
        rn: Reg::R0,
        rm: Reg::R0,
        imm: 0,
        len: 0,
    };
}

/// One threaded-code entry: a handler pointer plus everything it needs
/// pre-resolved. Covers one instruction, or two when fused.
#[derive(Debug, Clone)]
pub(crate) struct Op {
    /// The handler.
    pub(crate) run: Handler,
    /// The first (or only) instruction's recorded entry — the generic
    /// handler issues it; every handler charges its patch accounting.
    pub(crate) entry: Entry,
    /// Whether the whole op (both halves when fused) is pure: cannot
    /// pend an interrupt, raise a device signal, move the code-write
    /// generation, change `next_event`, or set the exit code. Pure ops get a
    /// single budget compare after execution instead of the full
    /// boundary check sequence.
    pub(crate) pure: bool,
    /// Total byte size (both halves when fused).
    pub(crate) size: u32,
    /// First-half byte size (== `size` when not fused).
    pub(crate) size1: u32,
    /// Fetch plans: first instruction's first call and (wide Thumb)
    /// second-halfword call.
    pub(crate) f1: FetchPlan,
    /// Second fetch call of the first instruction ([`FetchPlan::None`]
    /// when narrow or A32).
    pub(crate) f1b: FetchPlan,
    /// Fetch plans of the fused second instruction.
    pub(crate) f2: FetchPlan,
    /// Second fetch call of the fused second instruction.
    pub(crate) f2b: FetchPlan,
    /// First-instruction operands.
    pub(crate) a: Half,
    /// Fused-second-instruction operands.
    pub(crate) b: Half,
    /// Branch condition (terminal branch handlers, fused or not).
    pub(crate) cond2: Cond,
    /// Precomputed absolute branch target (`& !1` applied at build).
    pub(crate) target: u32,
    /// `cbz`/`cbnz` polarity.
    pub(crate) nonzero: bool,
    /// Flash-patch hit count of the fused second instruction.
    pub(crate) patch2: u8,
    /// Index in [`ThreadedBlock::segs`] of the segment this op heads
    /// ([`NO_SEGMENT`] for every other op).
    seg: u8,
}

/// [`Op::seg`] of an op that heads no segment.
const NO_SEGMENT: u8 = u8::MAX;

/// How a [`Segment`] ends, and (as `Option<Tail>` at build time) how an
/// op may join one: `Fall` for register-only ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// Register-only to the end: fall through to the next op.
    Fall,
    /// The block's terminal `b`.
    B,
    /// The block's terminal fused `cmp`/ALU + `b`: a register half,
    /// then the branch.
    RegB,
    /// The block's terminal `cbz`/`cbnz`.
    Cbz,
}

/// A straight-line run of at least two register-only ops (the block's
/// terminal branch may close it) whose every fetch but the head's first
/// is static: `Free`, `Seq` or `LineHit`. [`dispatch`] runs it whole
/// when its worst case fits under the cycle budget: the head's first
/// fetch live, this summary of every other fetch once, then the ops'
/// register halves. Such a run touches at most one I-cache line, so its
/// LRU touches apply in bulk exactly.
#[derive(Debug)]
struct Segment {
    /// One past the index of the segment's last op.
    end: usize,
    /// How the last op ends the segment.
    tail: Tail,
    /// Byte length: the head's PC plus this is the fall-through PC.
    bytes: u32,
    /// Cycles of the head instruction's second fetch call.
    head_b: u32,
    /// Fetch-overlap charge (`fc.saturating_sub(1)`) of every other
    /// instruction.
    fetch: u32,
    /// Instructions retired (a fused op counts two).
    instrs: u32,
    /// Flash-patch hits of all of them.
    patch_hits: u32,
    /// [`FetchPlan::Seq`] refills after the head's first fetch.
    seq: u32,
    /// The window the last of them leaves buffered.
    last_window: u32,
    /// [`FetchPlan::LineHit`] fetches after the head's first fetch.
    line_hits: u32,
    /// Upper bound on the cycles the segment charges: the head's first
    /// fetch at its dearest, every static charge, the issue cycles and
    /// a taken branch.
    worst: u64,
}

/// The threaded lowering of one recorded block (one `BlockCache` slot).
#[derive(Debug)]
pub(crate) struct ThreadedBlock {
    /// The ops, in program order (never empty).
    pub(crate) ops: Vec<Op>,
    /// The block's segments, in program order (see [`Segment`]).
    segs: Vec<Segment>,
    /// The block's start PC — the self-loop fast path in [`dispatch`]
    /// compares the exit PC against it.
    pub(crate) start: u32,
    /// One past the block's last code byte: `[start, end)` is what
    /// [`dispatch`] checks against a fitted MPU.
    end: u32,
    /// Alternate first op for self-loop iterations: identical to
    /// `ops[0]` except its first fetch plan assumes the streaming window
    /// or I-cache line the block itself leaves at its taken backedge (a
    /// `Free` or `LineHit` plan where the unknown entry state needs a
    /// `Window` check or a `Line` lookup). Only reached after a *pure*
    /// terminal exit: a branch, which accesses no data and so provably
    /// cannot disturb the fetch stream.
    pub(crate) loop_head: Op,
    /// Flash streaming-window size the fetch plans were built for.
    pub(crate) window: u32,
    /// First-fetch length (`mode.min_instr_size()`).
    pub(crate) flen: u32,
    /// Fused pairs selected at build time (stat reporting).
    pub(crate) fused: u32,
    /// [`FetchPlan::Free`] plans across the block's ops (fetch-plan
    /// mix reporting; the `loop_head` alternate entry is not counted).
    pub(crate) plans_free: u32,
    /// [`FetchPlan::Window`] plans across the block's ops.
    pub(crate) plans_window: u32,
    /// [`FetchPlan::Slow`] plans across the block's ops.
    pub(crate) plans_slow: u32,
}

impl ThreadedBlock {
    /// Instructions the block covers (a fused op covers two).
    pub(crate) fn instrs(&self) -> u32 {
        self.ops.len() as u32 + self.fused
    }
}

// ---------------------------------------------------------------------
// Dispatch loop
// ---------------------------------------------------------------------

macro_rules! try_ctl {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(stop) => return Ctl::Stop(stop),
        }
    };
}

/// Executes one block. The caller (`Machine::exec_blocks`) owns
/// chaining, stats and the per-chain snapshots; the loop owns the
/// dispatch gate and the per-op boundary checks (see the module docs
/// for why pure ops only compare the budget).
///
/// Returns the exit plus the number of *rounds* run: when the terminal
/// op is pure and branches back to the block's own start, the loop
/// restarts internally instead of returning `Chain` — skipping the
/// per-dispatch chain machinery (slot probe, context rebuild) the
/// caller would redo only to land back here. The retained `ctx.bound`
/// equals the rebuild (pure ops cannot move `Bus::next_event`, and the
/// limits are chain-constant). Every round, the first included, starts
/// at the dispatch gate, so a closed gate returns [`BlockExit::Gate`]
/// after zero rounds on entry. The caller charges one hit per round and
/// one chain follow per restart, matching the unrolled accounting. The
/// third value counts the instructions retired in whole segments.
///
/// At a segment head whose worst case stays under `ctx.bound`, the
/// whole segment runs as one piece ([`run_segment`]): none of the
/// budget compares inside it could trip, so splits and interrupt
/// latencies land where the per-op path puts them. Otherwise its ops
/// run one at a time, splitting on the exact instruction.
pub(crate) fn dispatch(
    m: &mut Machine,
    tb: &ThreadedBlock,
    cycle_limit: u64,
    sched_due: u64,
    cwg: u64,
) -> (BlockExit, u64, u64) {
    let mut ctx = ExecCtx {
        bound: cycle_limit.min(sched_due).min(m.bus.next_event()),
        window: tb.window,
        flen: tb.flen,
    };
    // One execute check over the whole code range replaces the per-fetch
    // MPU checks the plans skip. When it cannot prove every fetch
    // allowed, the per-step path takes the next instruction, faulting
    // and counting the violation at the same fetch as the reference.
    if let Some(mpu) = &m.mpu {
        if !mpu.executes(tb.start, tb.end) {
            return (BlockExit::Gate, 0, 0);
        }
    }
    let last = tb.ops.len() - 1;
    let mut rounds = 0u64;
    let mut seg_instrs = 0u64;
    'round: loop {
        // The dispatch gate. Specialized handlers skip the IT-queue pop
        // and pure ones never look at the exit code, so both must be
        // clear before any op runs.
        if !m.cpu.it_queue.is_empty() || m.bus.signals.exit_code.is_some() {
            return (BlockExit::Gate, rounds, seg_instrs);
        }
        rounds += 1;
        let mut ops = tb.ops.iter().enumerate();
        while let Some((idx, block_op)) = ops.next() {
            // Self-loop rounds enter with a statically known fetch
            // state: swap in the steady-state first op.
            let op = if rounds > 1 && idx == 0 { &tb.loop_head } else { block_op };
            if op.seg != NO_SEGMENT {
                let seg = &tb.segs[usize::from(op.seg)];
                if m.cycles + seg.worst < ctx.bound {
                    // Every op is pure and the budget cannot trip, so the
                    // boundary checks reduce to the self-loop test.
                    match run_segment(m, &tb.ops[idx..seg.end], op.f1, seg, &ctx) {
                        Ctl::Next => {
                            seg_instrs += u64::from(seg.instrs);
                            // Resume after the segment's last op.
                            ops.nth(seg.end - idx - 2);
                            continue;
                        }
                        Ctl::Exit => {
                            seg_instrs += u64::from(seg.instrs);
                            // A branch closes a segment only as the
                            // block's last op.
                            if m.cpu.pc == tb.start {
                                continue 'round;
                            }
                            return (BlockExit::Chain, rounds, seg_instrs);
                        }
                        Ctl::SplitBudget => return (BlockExit::SplitBudget, rounds, seg_instrs),
                        Ctl::Stop(r) => return (BlockExit::Stop(r), rounds, seg_instrs),
                    }
                }
            }
            match (op.run)(m, op, &ctx) {
                Ctl::Next => {
                    if op.pure {
                        if m.cycles >= ctx.bound {
                            return (BlockExit::SplitBudget, rounds, seg_instrs);
                        }
                    } else {
                        if !m.threaded_safety_ok(cwg) {
                            return (BlockExit::Split, rounds, seg_instrs);
                        }
                        ctx.bound = cycle_limit.min(sched_due).min(m.bus.next_event());
                        if m.cycles >= ctx.bound {
                            return (BlockExit::SplitBudget, rounds, seg_instrs);
                        }
                    }
                }
                Ctl::Exit => {
                    // Same boundary checks as Next, then chain.
                    if op.pure {
                        if m.cycles >= ctx.bound {
                            return (BlockExit::SplitBudget, rounds, seg_instrs);
                        }
                        // Self-loop fast path (see the function docs).
                        if idx == last && m.cpu.pc == tb.start {
                            continue 'round;
                        }
                    } else {
                        if !m.threaded_safety_ok(cwg) {
                            return (BlockExit::Split, rounds, seg_instrs);
                        }
                        if m.cycles >= cycle_limit.min(sched_due).min(m.bus.next_event()) {
                            return (BlockExit::SplitBudget, rounds, seg_instrs);
                        }
                    }
                    return (BlockExit::Chain, rounds, seg_instrs);
                }
                Ctl::SplitBudget => return (BlockExit::SplitBudget, rounds, seg_instrs),
                Ctl::Stop(r) => return (BlockExit::Stop(r), rounds, seg_instrs),
            }
        }
        return (BlockExit::Chain, rounds, seg_instrs);
    }
}

/// Runs the segment `ops` (its head first) as one piece: the head's
/// first fetch `f1` live (the self-loop round's steady-state plan, when
/// that is the head), the summary of every other fetch once, then the
/// ops' register halves in program order and the closing branch. The
/// caller has checked that the worst case fits under the budget.
fn run_segment(m: &mut Machine, ops: &[Op], f1: FetchPlan, seg: &Segment, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    let c = try_ctl!(plan_cycles(m, f1, pc, ctx.flen, ctx.window));
    m.cycles += u64::from((c + seg.head_b).saturating_sub(1) + seg.fetch);
    m.instret += u64::from(seg.instrs);
    m.patch.hits += u64::from(seg.patch_hits);
    if seg.seq > 0 {
        debug_assert_eq!(m.fetch_window, Some(seg.last_window - seg.seq * ctx.window));
        m.flash.stream_beats(u64::from(seg.seq), seg.last_window - FLASH_BASE);
        m.fetch_window = Some(seg.last_window);
    }
    if seg.line_hits > 0 {
        if let Some(ic) = &mut m.icache {
            ic.hit_last(pc - FLASH_BASE, u64::from(seg.line_hits));
        }
    }
    let (body, tail) = ops.split_at(ops.len() - usize::from(seg.tail != Tail::Fall));
    for op in body {
        reg_half(m, &op.a);
        if op.size != op.size1 {
            reg_half(m, &op.b);
        }
    }
    let next = pc.wrapping_add(seg.bytes);
    match (seg.tail, tail.first()) {
        (Tail::B, Some(op)) => branch_half(m, op, next),
        (Tail::RegB, Some(op)) => {
            reg_half(m, &op.a);
            branch_half(m, op, next);
        }
        (Tail::Cbz, Some(op)) => cbz_half(m, op, next),
        _ => {
            m.cpu.pc = next;
            return Ctl::Next;
        }
    }
    Ctl::Exit
}

// ---------------------------------------------------------------------
// Fetch-plan replay
// ---------------------------------------------------------------------

/// Replays one planned `fetch_timing` call, returning its cycles.
#[inline(always)]
fn plan_cycles(
    m: &mut Machine,
    plan: FetchPlan,
    addr: u32,
    len: u32,
    window: u32,
) -> Result<u32, StopReason> {
    match plan {
        FetchPlan::None => Ok(0),
        FetchPlan::Free => {
            // Statically resident: fetch_timing would walk the windows,
            // find every one buffered, and leave the final window — the
            // current one — buffered. Zero cycles, no state change.
            debug_assert_eq!(
                m.fetch_window,
                Some((addr + len - 1) & !(window - 1)),
                "Free fetch plan with a stale window"
            );
            Ok(0)
        }
        FetchPlan::Window(w) => {
            // The walk's only possible refill: one live access_timing
            // call keeps seq/nonseq selection, flash stats and stream
            // state identical to the full walk.
            if m.fetch_window == Some(w) {
                return Ok(0);
            }
            let c = m.flash.access_timing(w - FLASH_BASE, window, Access::Fetch);
            m.fetch_window = Some(w);
            Ok(c)
        }
        FetchPlan::Seq(w) => {
            debug_assert_eq!(m.fetch_window, Some(w - window), "Seq fetch plan off the stream");
            m.flash.stream_beats(1, w - FLASH_BASE);
            m.fetch_window = Some(w);
            Ok(m.flash.config().seq_cycles)
        }
        FetchPlan::Line => Ok(m.line_fetch(addr - FLASH_BASE)),
        FetchPlan::LineHit => {
            if let Some(ic) = &mut m.icache {
                ic.hit_last(addr - FLASH_BASE, 1);
            }
            Ok(1)
        }
        FetchPlan::Slow => match m.fetch_timing(addr, len) {
            Ok((c, _, _)) => Ok(c),
            Err(f) => Err(StopReason::Fault(f)),
        },
    }
}

/// Replays the fetch of one instruction (both calls for wide Thumb)
/// and its flash-patch accounting — the timing side of the per-step
/// path's `Machine::fetch_decode`, without reading bytes or decoding.
#[inline(always)]
fn fetch_instr(
    m: &mut Machine,
    f1: FetchPlan,
    f1b: FetchPlan,
    pc: u32,
    patch_hits: u8,
    ctx: &ExecCtx,
) -> Result<u32, StopReason> {
    let mut c = plan_cycles(m, f1, pc, ctx.flen, ctx.window)?;
    m.patch.hits += u64::from(patch_hits);
    if f1b != FetchPlan::None {
        c += plan_cycles(m, f1b, pc.wrapping_add(2), 2, ctx.window)?;
    }
    Ok(c)
}

/// Fetches + retires one instruction half: charges the fetch-overlap
/// cycles and the instruction count, exactly as `Machine::issue` does
/// before predication.
#[inline(always)]
fn retire_fetch(
    m: &mut Machine,
    f1: FetchPlan,
    f1b: FetchPlan,
    pc: u32,
    patch_hits: u8,
    ctx: &ExecCtx,
) -> Result<(), StopReason> {
    let fc = fetch_instr(m, f1, f1b, pc, patch_hits, ctx)?;
    m.cycles += u64::from(fc.saturating_sub(1));
    m.instret += 1;
    Ok(())
}

// ---------------------------------------------------------------------
// Semantic halves (shared by single and fused handlers)
// ---------------------------------------------------------------------

/// One ALU data-processing step: semantics and the 1-cycle issue cost.
/// With an immediate or plain-register second operand the shifter
/// carry-out equals the current carry flag, so flag updates reduce to
/// N/Z plus the adder's C/V — identical to the generic executor.
#[inline(always)]
fn alu_half(m: &mut Machine, h: &Half) {
    let a = m.cpu.read_reg(h.rn, 0);
    let b = if h.b_reg { m.cpu.read_reg(h.rm, 0) } else { h.imm };
    let (r, c, v) = match h.kind {
        AluKind::Add => add_with_carry(a, b, false),
        AluKind::Sub => add_with_carry(a, !b, true),
        AluKind::And => (a & b, m.cpu.flags.c, m.cpu.flags.v),
        AluKind::Orr => (a | b, m.cpu.flags.c, m.cpu.flags.v),
        AluKind::Eor => (a ^ b, m.cpu.flags.c, m.cpu.flags.v),
        AluKind::Bic => (a & !b, m.cpu.flags.c, m.cpu.flags.v),
    };
    if h.s {
        m.cpu.set_nz(r);
        m.cpu.flags.c = c;
        m.cpu.flags.v = v;
    }
    m.cpu.write_reg(h.rd, r);
    m.cycles += 1;
}

/// One `cmp` step: flags only, 1 cycle.
#[inline(always)]
fn cmp_half(m: &mut Machine, h: &Half) {
    let a = m.cpu.read_reg(h.rn, 0);
    let b = if h.b_reg { m.cpu.read_reg(h.rm, 0) } else { h.imm };
    let (r, c, v) = add_with_carry(a, !b, true);
    m.cpu.set_nz(r);
    m.cpu.flags.c = c;
    m.cpu.flags.v = v;
    m.cycles += 1;
}

/// The effective address of a memory half.
#[inline(always)]
fn mem_ea(m: &Machine, h: &Half) -> u32 {
    match h.ea {
        Ea::Imm => m.cpu.read_reg(h.rn, 0).wrapping_add(h.imm),
        Ea::Reg => m.cpu.read_reg(h.rn, 0).wrapping_add(m.cpu.read_reg(h.rm, 0) << h.imm),
        Ea::Abs => h.imm,
    }
}

/// One unsigned `ldr[b|h]` step (offset addressing, no writeback).
#[inline(always)]
fn ldr_half(m: &mut Machine, h: &Half) -> Result<(), StopReason> {
    let ea = mem_ea(m, h);
    let (v, c) = match m.data_read(ea, h.len) {
        Ok(t) => t,
        Err(f) => return Err(StopReason::Fault(f)),
    };
    m.cycles += 1 + u64::from(c) + u64::from(m.config.timing.load_internal);
    m.cpu.write_reg(h.rd, v);
    Ok(())
}

/// One `mov`/`movw` step: N/Z when flag-setting (C is the shifter's
/// carry-out, which for an unshifted operand is C itself), 1 cycle.
#[inline(always)]
fn mov_half(m: &mut Machine, h: &Half) {
    let v = if h.b_reg { m.cpu.read_reg(h.rm, 0) } else { h.imm };
    if h.s {
        m.cpu.set_nz(v);
    }
    m.cpu.write_reg(h.rd, v);
    m.cycles += 1;
}

/// One shifted-register move step by `amount`: the barrel shifter the
/// generic executor runs, with its carry-out into C when flag-setting.
/// The caller charges the issue cycles.
#[inline(always)]
fn shift_half(m: &mut Machine, h: &Half, amount: u32) {
    let (v, c) = h.sh.apply(m.cpu.read_reg(h.rm, 0), amount, m.cpu.flags.c);
    if h.s {
        m.cpu.set_nz(v);
        m.cpu.flags.c = c;
    }
    m.cpu.write_reg(h.rd, v);
}

/// One register-only step of any [`RegOp`], cycles included.
#[inline(always)]
fn reg_half(m: &mut Machine, h: &Half) {
    match h.op {
        RegOp::Alu => alu_half(m, h),
        RegOp::Mov => mov_half(m, h),
        RegOp::ShiftImm => {
            shift_half(m, h, h.imm);
            m.cycles += 1;
        }
        RegOp::ShiftReg => {
            // The amount is the bottom byte of `rn`; a register-specified
            // shift costs one cycle more.
            let amount = m.cpu.read_reg(h.rn, 0) & 0xFF;
            shift_half(m, h, amount);
            m.cycles += 2;
        }
        RegOp::Mul => {
            // N/Z only when flag-setting, `mul_cycles` to issue.
            let r = m.cpu.read_reg(h.rn, 0).wrapping_mul(m.cpu.read_reg(h.rm, 0));
            if h.s {
                m.cpu.set_nz(r);
            }
            m.cpu.write_reg(h.rd, r);
            m.cycles += 1 + u64::from(m.config.timing.mul_cycles - 1);
        }
        RegOp::Ubfx => {
            let v = m.cpu.read_reg(h.rn, 0) >> h.imm & h.len;
            m.cpu.write_reg(h.rd, v);
            m.cycles += 1;
        }
        RegOp::Bfi => {
            let old = m.cpu.read_reg(h.rd, 0);
            let v = m.cpu.read_reg(h.rn, 0) << h.imm & h.len;
            m.cpu.write_reg(h.rd, old & !h.len | v);
            m.cycles += 1;
        }
        RegOp::Cmp => cmp_half(m, h),
    }
}

/// The issue cycles [`reg_half`] charges for `h`, at most (a segment's
/// worst case).
fn reg_cycles(h: &Half, mul_cycles: u32) -> u64 {
    match h.op {
        RegOp::ShiftReg => 2,
        RegOp::Mul => 1 + u64::from(mul_cycles.wrapping_sub(1)),
        _ => 1,
    }
}

/// The terminal direct-branch step: evaluates the (possibly `AL`)
/// condition live, charging the skip/taken cycles the generic path
/// charges, and falls through to `next`. The caller has already
/// retired the fetch.
#[inline(always)]
fn branch_half(m: &mut Machine, op: &Op, next: u32) {
    m.cycles += 1;
    if op.cond2.eval(m.cpu.flags) {
        m.cycles += u64::from(m.config.timing.branch_taken_penalty);
        m.cpu.pc = op.target;
    } else {
        m.cpu.pc = next;
    }
}

/// The `cbz`/`cbnz` step, falling through to `next`.
#[inline(always)]
fn cbz_half(m: &mut Machine, op: &Op, next: u32) {
    m.cycles += 1;
    let v = m.cpu.read_reg(op.a.rn, 0);
    if (v == 0) != op.nonzero {
        m.cycles += u64::from(m.config.timing.branch_taken_penalty);
        m.cpu.pc = op.target;
    } else {
        m.cpu.pc = next;
    }
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

/// Fallback: plan-replayed fetch plus the shared issue sequence
/// (live predication, full executor). Anything the specializer skips
/// lands here, so the lowering never needs to be complete.
fn h_generic(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    let fc = try_ctl!(fetch_instr(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    let next_pc = pc.wrapping_add(op.entry.size);
    if let Some(stop) = m.issue(&op.entry, pc, fc) {
        return Ctl::Stop(stop);
    }
    if m.cpu.pc == next_pc { Ctl::Next } else { Ctl::Exit }
}

/// Specialized unconditional ALU reg/imm (`add`/`sub`/`and`/`orr`/
/// `eor`/`bic`, optional `s`, no PC operands).
fn h_alu(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    alu_half(m, &op.a);
    m.cpu.pc = pc.wrapping_add(op.size);
    Ctl::Next
}

/// Specialized unconditional `mov`/`movw` reg/imm (no PC operands).
fn h_mov(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    mov_half(m, &op.a);
    m.cpu.pc = pc.wrapping_add(op.size);
    Ctl::Next
}

/// Any other register-only [`RegOp`] (shifted-register moves, `mul`,
/// `ubfx`, `bfi`), unconditional, no PC operands.
fn h_reg(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    reg_half(m, &op.a);
    m.cpu.pc = pc.wrapping_add(op.size);
    Ctl::Next
}

/// Specialized unconditional `cmp` reg/imm.
fn h_cmp(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    cmp_half(m, &op.a);
    m.cpu.pc = pc.wrapping_add(op.size);
    Ctl::Next
}

/// Specialized direct branch (`b`, any condition, static non-EXC
/// target).
fn h_b(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    branch_half(m, op, pc.wrapping_add(op.size));
    Ctl::Exit
}

/// Specialized `cbz`/`cbnz`.
fn h_cbz(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    cbz_half(m, op, pc.wrapping_add(op.size));
    Ctl::Exit
}

/// Specialized unconditional `ldr` (unsigned, any [`Ea`] form: an
/// immediate or a shifted register offset with no PC operand, or a
/// word literal-pool load). Pure: even a device read has no side
/// effects.
fn h_ldr(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    try_ctl!(ldr_half(m, &op.a));
    m.cpu.pc = pc.wrapping_add(op.size);
    Ctl::Next
}

/// Specialized unconditional `str` (an immediate or a shifted register
/// offset, no PC operands). Impure: the store may touch a device or
/// code bytes.
fn h_str(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    let ea = mem_ea(m, &op.a);
    let v = m.cpu.read_reg(op.a.rd, 0);
    let c = match m.data_write(ea, op.a.len, v) {
        Ok(c) => c,
        Err(f) => return Ctl::Stop(StopReason::Fault(f)),
    };
    m.cycles += 1 + u64::from(c) + u64::from(m.config.timing.store_internal);
    m.cpu.pc = pc.wrapping_add(op.size);
    if let Some(code) = m.bus.signals.exit_code {
        return Ctl::Stop(StopReason::MmioExit(code));
    }
    Ctl::Next
}

/// Fused ALU + `cmp` (the `add`+`cmp` loop-counter idiom). Both halves
/// pure; the mid-pair boundary needs only the budget compare.
fn h_fused_alu_cmp(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    alu_half(m, &op.a);
    let pc2 = pc.wrapping_add(op.size1);
    m.cpu.pc = pc2;
    if m.cycles >= ctx.bound {
        return Ctl::SplitBudget;
    }
    try_ctl!(retire_fetch(m, op.f2, op.f2b, pc2, op.patch2, ctx));
    cmp_half(m, &op.b);
    m.cpu.pc = pc.wrapping_add(op.size);
    Ctl::Next
}

/// Fused `cmp` + conditional branch (the compare-and-loop backedge).
fn h_fused_cmp_b(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    cmp_half(m, &op.a);
    let pc2 = pc.wrapping_add(op.size1);
    m.cpu.pc = pc2;
    if m.cycles >= ctx.bound {
        return Ctl::SplitBudget;
    }
    try_ctl!(retire_fetch(m, op.f2, op.f2b, pc2, op.patch2, ctx));
    branch_half(m, op, pc.wrapping_add(op.size));
    Ctl::Exit
}

/// Fused flag-setting ALU + conditional branch (the `subs`+`bne`
/// countdown backedge).
fn h_fused_alu_b(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    alu_half(m, &op.a);
    let pc2 = pc.wrapping_add(op.size1);
    m.cpu.pc = pc2;
    if m.cycles >= ctx.bound {
        return Ctl::SplitBudget;
    }
    try_ctl!(retire_fetch(m, op.f2, op.f2b, pc2, op.patch2, ctx));
    branch_half(m, op, pc.wrapping_add(op.size));
    Ctl::Exit
}

/// Fused `ldr` (any [`Ea`] form) + ALU (pointer-chase, table lookup,
/// constant use, accumulate). Both halves pure; the mid-pair boundary
/// needs only the budget compare.
fn h_fused_ldr_alu(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    try_ctl!(ldr_half(m, &op.a));
    let pc2 = pc.wrapping_add(op.size1);
    m.cpu.pc = pc2;
    if m.cycles >= ctx.bound {
        return Ctl::SplitBudget;
    }
    try_ctl!(retire_fetch(m, op.f2, op.f2b, pc2, op.patch2, ctx));
    alu_half(m, &op.b);
    m.cpu.pc = pc.wrapping_add(op.size);
    Ctl::Next
}

/// Fused pair of register-only ops of any [`RegOp`]s (shift chains,
/// shift + ALU, ALU + ALU, `mov` + `mul`...). Both halves pure; the
/// mid-pair boundary needs only the budget compare.
fn h_fused_reg2(m: &mut Machine, op: &Op, ctx: &ExecCtx) -> Ctl {
    let pc = m.cpu.pc;
    try_ctl!(retire_fetch(m, op.f1, op.f1b, pc, op.entry.patch_hits, ctx));
    reg_half(m, &op.a);
    let pc2 = pc.wrapping_add(op.size1);
    m.cpu.pc = pc2;
    if m.cycles >= ctx.bound {
        return Ctl::SplitBudget;
    }
    try_ctl!(retire_fetch(m, op.f2, op.f2b, pc2, op.patch2, ctx));
    reg_half(m, &op.b);
    m.cpu.pc = pc.wrapping_add(op.size);
    Ctl::Next
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Static model of the fetch path, used to plan each `fetch_timing`
/// call at build time. Without an I-cache `cur` tracks the flash
/// streaming window the machine will hold at that point in the block,
/// when provable; with one it tracks the I-cache line of the previous
/// fetch.
struct FetchSim {
    window: u32,
    /// `log2` of the I-cache line size when an I-cache is fitted.
    line_shift: Option<u32>,
    /// Whether a refill may plan [`FetchPlan::Seq`]: a window is one
    /// flash beat.
    seq: bool,
    /// Statically known buffered window (`None` at block entry and
    /// after any data access or impure op — see [`breaks_stream`]), or
    /// the line of the previous fetch (`None` at block entry only:
    /// nothing but a fetch touches the I-cache).
    cur: Option<u32>,
    /// Whether planning applies at all: the block is flash code.
    plannable: bool,
}

impl FetchSim {
    /// Plans one `fetch_timing(addr, len)` call and advances the model.
    fn call(&mut self, addr: u32, len: u32) -> FetchPlan {
        if !self.plannable {
            return FetchPlan::Slow;
        }
        if let Some(shift) = self.line_shift {
            // `fetch_timing` looks up the line of the first byte only.
            let line = addr >> shift;
            return if self.cur.replace(line) == Some(line) {
                FetchPlan::LineHit
            } else {
                FetchPlan::Line
            };
        }
        let wm = self.window - 1;
        let first = addr & !wm;
        let fin = (addr + len - 1) & !wm;
        // After the walk the final window is buffered, whatever came
        // before.
        let Some(mut cur) = self.cur.replace(fin) else {
            // Unknown buffer state (block entry, after a data access): a
            // fetch inside one window refills it unless it is already
            // buffered — the `Window` check at run time.
            return if first == fin { FetchPlan::Window(fin) } else { FetchPlan::Slow };
        };
        // Replicate the fetch_timing window walk statically.
        let prev = cur;
        let mut w = first;
        let end = addr + len;
        let mut refills = 0u32;
        let mut refill_at = 0u32;
        while w < end {
            if cur != w {
                refills += 1;
                refill_at = w;
                cur = w;
            }
            w += self.window;
        }
        match refills {
            0 => FetchPlan::Free,
            // A single refill whose window is also the final buffered
            // window collapses to one live access_timing call (the
            // run-time check finds it unbuffered), or to one sequential
            // beat when it continues the stream of the buffered window
            // (`Machine::window_streams`).
            1 if refill_at == fin && self.seq && prev.wrapping_add(self.window) == fin => {
                FetchPlan::Seq(fin)
            }
            1 if refill_at == fin => FetchPlan::Window(fin),
            _ => FetchPlan::Slow,
        }
    }

    /// Forgets the buffered window (called after every op that
    /// [`breaks_stream`]). A data access never touches the I-cache, so
    /// the line model keeps its line.
    fn invalidate(&mut self) {
        if self.line_shift.is_none() {
            self.cur = None;
        }
    }
}

/// The specializer's view of one instruction: a pattern the fusion
/// and handler selection match on, its operands pre-resolved into a
/// [`Half`]. `Generic` runs through [`h_generic`] (still threaded —
/// just not specialized).
#[derive(Debug, Clone, Copy)]
enum Micro {
    /// A register-only op of any [`RegOp`].
    Reg(Half),
    /// `cmp` (a flag-setting ALU subtract with no destination).
    Cmp(Half),
    B { cond: Cond, target: u32 },
    Cbz { nonzero: bool, rn: Reg, target: u32 },
    /// An unsigned load.
    Ldr(Half),
    /// A store.
    Str(Half),
    Generic,
}

/// The half of an ALU op or `mov` whose second operand is `op2` (a
/// register or immediate; `None` for shifted or PC operands).
fn with_op2(h: Half, op2: Operand2) -> Option<Half> {
    match op2 {
        Operand2::Imm(imm) => Some(Half { imm, ..h }),
        Operand2::Reg(rm) if rm != Reg::PC => Some(Half { b_reg: true, rm, ..h }),
        _ => None,
    }
}

/// The half of an offset-addressed load or store of `len` bytes with
/// no PC operand (`None` for writeback forms and PC operands).
fn mem_half(rt: Reg, addr: AddrMode, len: u32) -> Option<Half> {
    if rt == Reg::PC || addr.base == Reg::PC || addr.index != Index::Offset {
        return None;
    }
    let h = Half { rd: rt, rn: addr.base, len, ..Half::NONE };
    match addr.offset {
        Offset::Imm(i) => Some(Half { imm: i as u32, ..h }),
        Offset::Reg(rm, k) if rm != Reg::PC => {
            Some(Half { ea: Ea::Reg, rm, imm: u32::from(k), ..h })
        }
        Offset::Reg(..) => None,
    }
}

/// A static branch target that must stay on the generic path: the
/// executor interprets these PC values as exception returns.
fn exc_target(target: u32) -> bool {
    target == EXC_RETURN_HW || target == EXC_RETURN_SW
}

/// Classifies one entry at `pc` (whose reads of the PC see `pc + bias`)
/// for specialization. Conservative: anything with PC operands (but a
/// literal-pool load's base), shifted ALU operands, conditions (beyond
/// the branch's own), carry-in arithmetic, sign extension or writeback
/// stays `Generic`.
fn classify(e: &Entry, pc: u32, bias: u32) -> Micro {
    let no_pc = |regs: &[Reg]| !regs.contains(&Reg::PC);
    match e.instr {
        Instr::B { cond, offset } => {
            let raw = pc.wrapping_add(offset as u32);
            if exc_target(raw) {
                return Micro::Generic;
            }
            Micro::B { cond, target: raw & !1 }
        }
        Instr::Cbz { nonzero, rn, offset } => {
            let raw = pc.wrapping_add(offset as u32);
            if exc_target(raw) || rn == Reg::PC {
                return Micro::Generic;
            }
            Micro::Cbz { nonzero, rn, target: raw & !1 }
        }
        _ if e.cond != Cond::Al => Micro::Generic,
        Instr::Dp { op, s, rd, rn, op2, .. } if no_pc(&[rd, rn]) => {
            let kind = match op {
                DpOp::Add => AluKind::Add,
                DpOp::Sub => AluKind::Sub,
                DpOp::And => AluKind::And,
                DpOp::Orr => AluKind::Orr,
                DpOp::Eor => AluKind::Eor,
                DpOp::Bic => AluKind::Bic,
                DpOp::Adc | DpOp::Sbc | DpOp::Rsb => return Micro::Generic,
            };
            with_op2(Half { kind, s, rd, rn, ..Half::NONE }, op2).map_or(Micro::Generic, Micro::Reg)
        }
        Instr::Mov { s, rd, op2, .. } if rd != Reg::PC => {
            let h = Half { s, rd, ..Half::NONE };
            match op2 {
                Operand2::RegShiftImm(rm, sh, n) if rm != Reg::PC => {
                    Micro::Reg(Half { op: RegOp::ShiftImm, sh, rm, imm: u32::from(n), ..h })
                }
                Operand2::RegShiftReg(rm, sh, rs) if no_pc(&[rm, rs]) => {
                    Micro::Reg(Half { op: RegOp::ShiftReg, sh, rm, rn: rs, ..h })
                }
                _ => with_op2(Half { op: RegOp::Mov, ..h }, op2).map_or(Micro::Generic, Micro::Reg),
            }
        }
        Instr::MovW { rd, imm16, .. } if rd != Reg::PC => {
            Micro::Reg(Half { op: RegOp::Mov, rd, imm: u32::from(imm16), ..Half::NONE })
        }
        Instr::Mul { s, rd, rn, rm, .. } if no_pc(&[rd, rn, rm]) => {
            Micro::Reg(Half { op: RegOp::Mul, s, rd, rn, rm, ..Half::NONE })
        }
        Instr::Ubfx { rd, rn, lsb, width, .. } if no_pc(&[rd, rn]) => {
            let (imm, len) = (u32::from(lsb), width_mask(width));
            Micro::Reg(Half { op: RegOp::Ubfx, rd, rn, imm, len, ..Half::NONE })
        }
        Instr::Bfi { rd, rn, lsb, width, .. } if no_pc(&[rd, rn]) => {
            let (imm, len) = (u32::from(lsb), width_mask(width) << lsb);
            Micro::Reg(Half { op: RegOp::Bfi, rd, rn, imm, len, ..Half::NONE })
        }
        Instr::Cmp { op: alia_isa::CmpOp::Cmp, rn, op2, .. } if rn != Reg::PC => {
            let h = Half { op: RegOp::Cmp, s: true, rn, ..Half::NONE };
            with_op2(h, op2).map_or(Micro::Generic, Micro::Cmp)
        }
        Instr::Ldr { size, signed: false, rt, addr, .. } => {
            mem_half(rt, addr, size.bytes()).map_or(Micro::Generic, Micro::Ldr)
        }
        Instr::LdrLit { rt, offset, .. } if rt != Reg::PC => {
            let imm = (pc.wrapping_add(bias) & !3).wrapping_add(offset as u32);
            Micro::Ldr(Half { ea: Ea::Abs, rd: rt, imm, len: 4, ..Half::NONE })
        }
        Instr::Str { size, rt, addr, .. } => {
            mem_half(rt, addr, size.bytes()).map_or(Micro::Generic, Micro::Str)
        }
        _ => Micro::Generic,
    }
}

/// Whether `instr` is *pure*: it cannot pend an interrupt, raise a
/// device signal, bump the code-write generation, change
/// `Bus::next_event`, or set the MMIO exit code.
/// After a pure op the safety re-checks are provably no-ops,
/// so the dispatch loop compares only the cycle budget. A single load
/// that cannot write the PC is pure: a device register read has no
/// side effects (`Device::read32` takes `&self`). Conservative
/// otherwise: stores, multi-register loads and anything that might
/// exception-return are impure.
fn is_pure(instr: &Instr, pc: u32) -> bool {
    match *instr {
        Instr::Dp { rd, .. } | Instr::Mov { rd, .. } => rd != Reg::PC,
        Instr::Ldr { rt, addr, .. } => {
            rt != Reg::PC && (addr.index == Index::Offset || addr.base != Reg::PC)
        }
        Instr::LdrLit { rt, .. } => rt != Reg::PC,
        Instr::Mvn { .. }
        | Instr::Cmp { .. }
        | Instr::MovW { .. }
        | Instr::MovT { .. }
        | Instr::Mul { .. }
        | Instr::Mla { .. }
        | Instr::Sdiv { .. }
        | Instr::Udiv { .. }
        | Instr::Bfi { .. }
        | Instr::Bfc { .. }
        | Instr::Ubfx { .. }
        | Instr::Sbfx { .. }
        | Instr::Rbit { .. }
        | Instr::Rev { .. }
        | Instr::It { .. }
        | Instr::Svc { .. }
        | Instr::Nop
        | Instr::Cpsid
        | Instr::Cpsie => true,
        Instr::B { offset, .. } | Instr::Bl { offset } | Instr::Cbz { offset, .. } => {
            !exc_target(pc.wrapping_add(offset as u32))
        }
        // Stores, Ldm/Pop (interruptible; the PC can be in the list),
        // Bx (dynamic target), Tbb/Tbh, Bkpt/Wfi (never in blocks), and
        // anything future: impure.
        _ => false,
    }
}

/// Whether the fetch-plan model must forget the buffered window after
/// `instr`: after every impure op, and after every load even though a
/// load is pure (a literal-pool load breaks the flash stream, and so
/// does an SRAM load on a unified bus).
fn breaks_stream(instr: &Instr, pc: u32) -> bool {
    !is_pure(instr, pc) || matches!(instr, Instr::Ldr { .. } | Instr::LdrLit { .. })
}

/// A selected fusion: handler plus the pieces the [`Op`] needs.
struct Fusion {
    run: Handler,
    a: Half,
    b: Half,
    cond2: Cond,
    target: u32,
    /// How the pair may join a segment.
    joins: Option<Tail>,
}

/// Whether a register half is an [`AluKind`] op (the ALU patterns).
fn is_alu(h: &Half) -> bool {
    matches!(h.op, RegOp::Alu)
}

/// Tries to fuse the pair `(m1, m2)`, in pattern priority order:
/// `cmp`+branch, ALU+branch (the `subs`+`bne` backedge), ALU+`cmp`,
/// `ldr`+ALU, then any two register-only ops.
fn fuse(m1: Micro, m2: Micro) -> Option<Fusion> {
    let fusion = |run, a, b, cond2, target, joins| Some(Fusion { run, a, b, cond2, target, joins });
    let (fall, reg_b) = (Some(Tail::Fall), Some(Tail::RegB));
    match (m1, m2) {
        (Micro::Cmp(a), Micro::B { cond, target }) => {
            fusion(h_fused_cmp_b, a, Half::NONE, cond, target, reg_b)
        }
        (Micro::Reg(a), Micro::B { cond, target }) if is_alu(&a) => {
            fusion(h_fused_alu_b, a, Half::NONE, cond, target, reg_b)
        }
        (Micro::Reg(a), Micro::Cmp(b)) if is_alu(&a) => {
            fusion(h_fused_alu_cmp, a, b, Cond::Al, 0, fall)
        }
        (Micro::Ldr(a), Micro::Reg(b)) if is_alu(&b) => {
            fusion(h_fused_ldr_alu, a, b, Cond::Al, 0, None)
        }
        (Micro::Reg(a), Micro::Reg(b)) => fusion(h_fused_reg2, a, b, Cond::Al, 0, fall),
        _ => None,
    }
}

/// How a single unfused op may join a segment.
fn joins(micro: &Micro) -> Option<Tail> {
    match micro {
        Micro::Reg(_) | Micro::Cmp(_) => Some(Tail::Fall),
        Micro::B { .. } => Some(Tail::B),
        Micro::Cbz { .. } => Some(Tail::Cbz),
        Micro::Ldr(_) | Micro::Str(_) | Micro::Generic => None,
    }
}

/// Cuts the block's ops into [`Segment`]s and marks each head's
/// [`Op::seg`]; `joins[k]` says how op `k` may join one. Allocates only
/// when the block has a segment.
fn segments(ops: &mut [Op], joins: &[Option<Tail>], m: &Machine, window: u32) -> Vec<Segment> {
    use FetchPlan::{Free, LineHit, None as NoCall, Seq, Slow};
    let fixed = |p: FetchPlan| matches!(p, NoCall | Free | Seq(_) | LineHit);
    // Maximal runs `[head, end)` of at least two ops: each op joins
    // (the branch only as the block's last op) and has static fetches
    // after its first; an op whose first fetch is dynamic (but not
    // `Slow`) may only head a run.
    let last = ops.len() - 1;
    let mut runs = [(0usize, 0usize); MAX_BLOCK_LEN / 2];
    let mut count = 0;
    let mut close = |head: Option<usize>, end: usize| {
        if let Some(h) = head.filter(|&h| end - h >= 2) {
            runs[count] = (h, end);
            count += 1;
        }
    };
    let mut head = None;
    for (k, op) in ops.iter().enumerate() {
        let member = joins[k].is_some_and(|t| t == Tail::Fall || k == last)
            && [op.f1b, op.f2, op.f2b].into_iter().all(fixed);
        if member && fixed(op.f1) {
            head = head.or(Some(k));
        } else {
            close(head, k);
            head = (member && op.f1 != Slow).then_some(k);
        }
    }
    close(head, ops.len());

    let flash = m.flash.config();
    let timing = &m.config.timing;
    // The head's first fetch at its dearest: an I-cache data-parity
    // error, then the refetch's miss and fill; or one window refill off
    // the stream.
    let head_fetch = match &m.icache {
        Some(ic) => 2 + ic.config().miss_penalty + ic.config().line / 4,
        None => {
            let beats = window.div_ceil(flash.width);
            flash.nonseq_cycles.max(flash.seq_cycles) + (beats - 1) * flash.seq_cycles
        }
    };
    let cost = |p: FetchPlan| match p {
        Seq(_) => flash.seq_cycles,
        LineHit => 1,
        _ => 0,
    };
    let taken = 1 + u64::from(timing.branch_taken_penalty);
    let mut segs = Vec::with_capacity(count);
    for &(h, end) in &runs[..count] {
        let mut seg = Segment {
            end,
            tail: Tail::Fall,
            bytes: 0,
            head_b: cost(ops[h].f1b),
            fetch: 0,
            instrs: 0,
            patch_hits: 0,
            seq: 0,
            last_window: 0,
            line_hits: 0,
            worst: 0,
        };
        let mut issue = 0u64;
        for (k, op) in ops[h..end].iter().enumerate() {
            let fused = op.size != op.size1;
            seg.bytes += op.size;
            seg.instrs += 1 + u32::from(fused);
            seg.patch_hits += u32::from(op.entry.patch_hits) + u32::from(op.patch2);
            if k > 0 {
                seg.fetch += (cost(op.f1) + cost(op.f1b)).saturating_sub(1);
            }
            if fused {
                seg.fetch += (cost(op.f2) + cost(op.f2b)).saturating_sub(1);
            }
            for plan in &[op.f1, op.f1b, op.f2, op.f2b][usize::from(k == 0)..] {
                match *plan {
                    Seq(w) => {
                        seg.seq += 1;
                        seg.last_window = w;
                    }
                    LineHit => seg.line_hits += 1,
                    _ => {}
                }
            }
            let half = |h: &Half| reg_cycles(h, timing.mul_cycles);
            seg.tail = joins[h + k].unwrap_or(Tail::Fall);
            issue += match seg.tail {
                Tail::Fall if fused => half(&op.a) + half(&op.b),
                Tail::Fall => half(&op.a),
                Tail::RegB => half(&op.a) + taken,
                Tail::B | Tail::Cbz => taken,
            };
        }
        seg.worst = u64::from(head_fetch + seg.head_b + seg.fetch) + issue;
        ops[h].seg = segs.len() as u8;
        segs.push(seg);
    }
    segs
}

/// Selects the specialized handler (and operand half) for a single
/// unfused instruction.
fn single(micro: Micro) -> (Handler, Half, Cond, u32, bool) {
    match micro {
        Micro::Reg(h) => {
            let run: Handler = match h.op {
                RegOp::Alu => h_alu,
                RegOp::Mov => h_mov,
                _ => h_reg,
            };
            (run, h, Cond::Al, 0, false)
        }
        Micro::Cmp(h) => (h_cmp, h, Cond::Al, 0, false),
        Micro::B { cond, target } => (h_b, Half::NONE, cond, target, false),
        Micro::Cbz { nonzero, rn, target } => {
            (h_cbz, Half { rn, ..Half::NONE }, Cond::Al, target, nonzero)
        }
        Micro::Ldr(h) => (h_ldr, h, Cond::Al, 0, false),
        Micro::Str(h) => (h_str, h, Cond::Al, 0, false),
        Micro::Generic => (h_generic, Half::NONE, Cond::Al, 0, false),
    }
}

/// Lowers a recorded block to threaded code. Returns `None` only for an
/// empty run: any other block lowers, with unspecialized entries on the
/// generic handler. Runs once per installed block, so it makes at most
/// two allocations (the op list and, when the block has any, its
/// segments).
pub(crate) fn build(start: u32, entries: &[Entry], m: &Machine) -> Option<ThreadedBlock> {
    let n = entries.len();
    if n == 0 {
        return None;
    }
    // The recorder caps runs at MAX_BLOCK_LEN (the width of the IT
    // bitmask below).
    debug_assert!(n <= MAX_BLOCK_LEN);
    let mode = m.config.mode;
    let flen = mode.min_instr_size();
    let flash_cfg = m.flash.config();
    let window = flash_cfg.width.max(2);
    let end = entries.iter().fold(start, |pc, e| pc.wrapping_add(e.size));
    // Fetch plans apply to flash code: with an I-cache they track its
    // lines, without one the streaming window (the code stamp covers
    // the I-cache geometry, so the model cannot go stale under an
    // installed block). `dispatch` checks the whole code range against
    // a fitted MPU before any op runs. Other code replays fetch_timing
    // in full, which is always correct.
    // (Flash occupies the bottom of the address space at FLASH_BASE =
    // 0, so `start` is in-region iff `end` stays under the flash top.)
    let plannable = end <= FLASH_BASE.wrapping_add(flash_cfg.size) && end >= start;
    let line_shift = m.icache.as_ref().map(Cache::line_shift);
    let seq = flash_cfg.width >= 2;
    let mut sim = FetchSim { window, line_shift, seq, cur: None, plannable };

    // Entries an `it` covers, one bit each. A covered `it` reloads the
    // queue, so its count replaces whatever the outer one had left.
    let mut covered = 0u64;
    let mut left = 0u8;
    for (k, e) in entries.iter().enumerate() {
        if left > 0 {
            covered |= 1 << k;
            left -= 1;
        }
        if let Instr::It { count, .. } = e.instr {
            left = count.clamp(1, 4);
        }
    }
    // Classifies entry `k` at `pc`: covered entries stay generic, which
    // also keeps them out of every fusion pattern.
    let bias = mode.pc_bias();
    let lower = |k: usize, pc: u32| {
        let e = &entries[k];
        let micro = if covered >> k & 1 != 0 { Micro::Generic } else { classify(e, pc, bias) };
        (micro, is_pure(&e.instr, pc))
    };
    // Plans one instruction's fetch calls (both for wide Thumb).
    let plan = |sim: &mut FetchSim, k: usize, pc: u32| {
        let f = sim.call(pc, flen);
        let fb = if mode != IsaMode::A32 && entries[k].size == 4 {
            sim.call(pc.wrapping_add(2), 2)
        } else {
            FetchPlan::None
        };
        (f, fb)
    };

    let mut ops = Vec::with_capacity(n);
    let mut tails = [None; MAX_BLOCK_LEN];
    let mut fused = 0u32;
    let mut pc = start;
    let mut cur = lower(0, start);
    let mut i = 0;
    while i < n {
        let (micro, pure) = cur;
        let size1 = entries[i].size;
        let pc2 = pc.wrapping_add(size1);
        let next = (i + 1 < n).then(|| lower(i + 1, pc2));
        let (f1, f1b) = plan(&mut sim, i, pc);
        if breaks_stream(&entries[i].instr, pc) {
            sim.invalidate();
        }
        if let Some((fu, pure2)) = next.and_then(|(m2, p2)| Some((fuse(micro, m2)?, p2))) {
            let (f2, f2b) = plan(&mut sim, i + 1, pc2);
            if breaks_stream(&entries[i + 1].instr, pc2) {
                sim.invalidate();
            }
            let size2 = entries[i + 1].size;
            tails[ops.len()] = fu.joins;
            ops.push(Op {
                run: fu.run,
                entry: entries[i],
                pure: pure && pure2,
                size: size1 + size2,
                size1,
                f1,
                f1b,
                f2,
                f2b,
                a: fu.a,
                b: fu.b,
                cond2: fu.cond2,
                target: fu.target,
                nonzero: false,
                patch2: entries[i + 1].patch_hits,
                seg: NO_SEGMENT,
            });
            fused += 1;
            i += 2;
            pc = pc2.wrapping_add(size2);
            if i < n {
                cur = lower(i, pc);
            }
            continue;
        }
        let (run, a, cond2, target, nonzero) = single(micro);
        tails[ops.len()] = joins(&micro);
        ops.push(Op {
            run,
            entry: entries[i],
            pure,
            size: size1,
            size1,
            f1,
            f1b,
            f2: FetchPlan::None,
            f2b: FetchPlan::None,
            a,
            b: Half::NONE,
            cond2,
            target,
            nonzero,
            patch2: 0,
            seg: NO_SEGMENT,
        });
        i += 1;
        pc = pc2;
        if let Some(nx) = next {
            cur = nx;
        }
    }

    let segs = segments(&mut ops, &tails[..n], m, window);
    // The steady-state entry plan for the self-loop fast path: replan
    // the first fetch assuming the window or line the block leaves at
    // its end (`sim.cur` — statically known whenever plannable and the
    // final planned call ran under a valid model). The dispatch loop
    // only uses it after a *pure* terminal exit (a branch: a pure load
    // never leaves the block), which cannot disturb the stream, so the
    // assumed state is exact at runtime. Every later plan of the op
    // depends only on the address of the fetch before it, so it stays
    // `ops[0]`'s (and so does the op's segment summary).
    let mut loop_head = ops[0].clone();
    loop_head.f1 = FetchSim { cur: sim.cur, ..sim }.call(start, flen);
    // Fetch-plan mix over the block's ops (every planned call: first
    // and second-halfword fetches of both halves of a fused pair).
    let (mut plans_free, mut plans_window, mut plans_slow) = (0u32, 0u32, 0u32);
    for op in &ops {
        for plan in [op.f1, op.f1b, op.f2, op.f2b] {
            match plan {
                FetchPlan::None => {}
                FetchPlan::Free | FetchPlan::LineHit => plans_free += 1,
                FetchPlan::Window(_) | FetchPlan::Seq(_) | FetchPlan::Line => plans_window += 1,
                FetchPlan::Slow => plans_slow += 1,
            }
        }
    }
    Some(ThreadedBlock {
        ops,
        segs,
        start,
        end,
        loop_head,
        window,
        flen,
        fused,
        plans_free,
        plans_window,
        plans_slow,
    })
}
