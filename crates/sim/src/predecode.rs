//! The code cache: recorded blocks of decoded instructions, lowered to
//! threaded code, plus the block engine's counters.
//!
//! `Machine::step` fetches and decodes every instruction it executes.
//! With the block engine on ([`crate::MachineConfig::predecode`]), the
//! per-step path also records the straight-line runs it retires, as
//! `Entry`s up to the next control transfer, and installs each
//! finished run in the `BlockCache`, lowered to threaded code
//! (`crates/sim/src/threaded.rs`). `Machine::run` dispatches those
//! blocks whole and, at a block exit, probes for the successor and
//! dispatches it too, so hot loops run block to block without
//! re-reading instruction bytes or re-running the decoder. The
//! block cache is the only code cache; the module and the switch keep
//! their historical `predecode` names.
//!
//! # Semantics preservation
//!
//! The cache changes *host* cost only. Everything the cycle model
//! observes is replayed by every threaded op:
//!
//! * fetch **timing** (flash streaming/prefetch state, I-cache lookups and
//!   parity recoveries, TCM hold-and-repair) — only the byte extraction
//!   and decode are skipped; the MPU execute check runs once per
//!   dispatch over the block's whole code range,
//! * **flash-patch accounting** — each entry remembers how many patch
//!   hits its fetch contributed, so `FlashPatch::hits` is identical; a
//!   patch breakpoint stops the per-step path before it is recorded,
//! * **condition evaluation** — IT-block and A32 predication read live CPU
//!   state, never the cache.
//!
//! # Invalidation
//!
//! Blocks are guarded by a *generation stamp* — the sum of revision
//! counters on everything that can change what bytes decode to:
//!
//! * [`crate::Flash::revision`] — flash image loads / host mutation,
//! * [`crate::FlashPatch::revision`] — patch slot programming (the patch
//!   unit is the one part of the machine that remaps code),
//! * [`crate::Sram::revision`] / [`crate::Tcm::revision`] — host-side RAM
//!   mutation (bulk loads, fault injection),
//! * the machine's *code-write generation*, bumped when a simulated store
//!   (including bit-band aliases) lands inside the cache's **watermark**
//!   — the address interval covered by installed blocks — or inside the
//!   run being recorded. Stores elsewhere (the overwhelmingly common
//!   case: data is data) cost a few compares,
//! * plus the fitted I-cache's line size, which decides what the
//!   lowered fetch plans track (flash windows or cache lines).
//!
//! A stamp mismatch clears the whole table on the next lookup. This is
//! deliberately coarse: correct first, cheap second — invalidation events
//! are rare compared to dispatches, and a full clear makes the
//! consistency argument one sentence long. Threaded code dies with the
//! slot that holds it.

use std::sync::Arc;

use alia_isa::{Cond, Instr};

use crate::threaded::ThreadedBlock;

/// One decoded instruction of a recorded run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// The decoded instruction.
    pub instr: Instr,
    /// Encoded size in bytes (2 or 4).
    pub size: u32,
    /// Precomputed `instr.cond()`.
    pub cond: Cond,
    /// Precomputed `matches!(instr, Instr::It { .. })`.
    pub is_it: bool,
    /// `FlashPatch::hits` increments this fetch contributes per step.
    pub patch_hits: u8,
}

impl Entry {
    /// An entry for a successfully decoded instruction.
    pub(crate) fn decoded(instr: Instr, size: u32, patch_hits: u8) -> Entry {
        Entry {
            instr,
            size,
            cond: instr.cond(),
            is_it: matches!(instr, Instr::It { .. }),
            patch_hits,
        }
    }
}

/// The block engine's counters (see [`crate::Machine::predecode_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Block executions (entry probes, chain follows and self-loop
    /// rounds all count — one per pass through a block).
    pub block_hits: u64,
    /// Block exits that entered their successor without leaving the
    /// block engine: a successor found by a probe inside the chain
    /// loop, or a self-loop restart.
    pub chain_follows: u64,
    /// Mid-block splits back to the per-step slow path because the
    /// cycle budget ran out (a due scheduled interrupt, a device event
    /// from `next_event`, or a `run_until` bound).
    pub budget_splits: u64,
    /// Recorded blocks installed in the block cache, each lowered to
    /// threaded code on install (see `crates/sim/src/threaded.rs`).
    pub blocks_promoted: u64,
    /// Superinstruction pairs fused across all installed blocks.
    pub fused_pairs: u64,
    /// Installed blocks dropped again (invalidation or eviction).
    pub demotions: u64,
    /// Instructions retired inside block dispatches (the occupancy
    /// numerator; everything else retired on the per-step path).
    pub threaded_instrs: u64,
    /// The part of `threaded_instrs` retired in whole-segment
    /// dispatches: runs of register-only ops whose fetch timing is
    /// charged once per run (see `crates/sim/src/threaded.rs`).
    pub segment_instrs: u64,
    /// Always 0: the entry-at-a-time block tier this counted is gone.
    /// Kept so reports that print a middle tier read an empty one.
    pub block_instrs: u64,
    /// Statically-free fetch plans across all installed blocks (fetch
    /// plan mix: the op's fetch is window-resident, zero cycles, or a
    /// hit on the I-cache line of the fetch before it).
    pub plans_free: u64,
    /// Window fetch plans across all installed blocks (one checked
    /// streaming refill replaces the full timing walk, one sequential
    /// beat refills the window after the buffered one, or one live
    /// I-cache lookup serves a fetch to a new line).
    pub plans_window: u64,
    /// Slow fetch plans across all installed blocks (unplannable —
    /// replay `fetch_timing` in full).
    pub plans_slow: u64,
}

impl PredecodeStats {
    /// Accumulates `other` into `self`, field by field — the one place
    /// that knows every counter, so aggregated reports cannot silently
    /// drop a newly added field.
    pub fn merge(&mut self, other: &PredecodeStats) {
        let PredecodeStats {
            block_hits,
            chain_follows,
            budget_splits,
            blocks_promoted,
            fused_pairs,
            demotions,
            threaded_instrs,
            segment_instrs,
            block_instrs,
            plans_free,
            plans_window,
            plans_slow,
        } = other;
        self.block_hits += block_hits;
        self.chain_follows += chain_follows;
        self.budget_splits += budget_splits;
        self.blocks_promoted += blocks_promoted;
        self.fused_pairs += fused_pairs;
        self.demotions += demotions;
        self.threaded_instrs += threaded_instrs;
        self.segment_instrs += segment_instrs;
        self.block_instrs += block_instrs;
        self.plans_free += plans_free;
        self.plans_window += plans_window;
        self.plans_slow += plans_slow;
    }
}

// ---------------------------------------------------------------------
// Block cache
// ---------------------------------------------------------------------

/// Slot count of the block cache (direct-mapped on the block's start
/// address).
const BLOCK_SLOTS: usize = 512;

/// Longest recorded block, in instructions. Blocks need not end in a
/// branch: a run that reaches this cap is installed as-is and chains to
/// its fall-through successor. The lowering tracks IT coverage in one
/// `u64` bit per instruction, hence the bound.
pub(crate) const MAX_BLOCK_LEN: usize = 64;

const _: () = assert!(MAX_BLOCK_LEN <= 64);

/// A cached block handed to the dispatcher: its slot (for profile
/// counts) and its threaded code.
pub(crate) type Resident = (usize, Arc<ThreadedBlock>);

/// One cached basic block, lowered to threaded code.
#[derive(Debug, Clone)]
struct Block {
    /// Start address, kept inline so probes never chase the code
    /// pointer.
    start: u32,
    /// The threaded lowering. Shared (`Arc`) so the dispatcher can run
    /// it while the machine is mutably borrowed, and so a machine's
    /// clone copies a pointer, not the code.
    code: Arc<ThreadedBlock>,
    /// Passes through this block (self-loop rounds included) — the
    /// profiler's per-block heat.
    dispatches: u64,
}

/// The basic-block cache: one generation stamp guards all blocks (a
/// mismatch clears the table), and a watermark over every cached
/// block's byte range feeds the store-path self-modifying-code check.
/// See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct BlockCache {
    /// Slot storage (`None` = empty), allocated lazily on the first
    /// insert.
    blocks: Vec<Option<Block>>,
    stamp: u64,
    /// Watermark over cached block bytes (inclusive; `lo > hi` = empty).
    lo: u32,
    hi: u32,
    /// The engine's counters, charged here and by the dispatcher.
    pub(crate) stats: PredecodeStats,
}

impl BlockCache {
    pub(crate) fn new() -> BlockCache {
        BlockCache {
            blocks: Vec::new(),
            stamp: 0,
            lo: u32::MAX,
            hi: 0,
            stats: PredecodeStats::default(),
        }
    }

    fn slot(pc: u32) -> usize {
        (pc >> 1) as usize & (BLOCK_SLOTS - 1)
    }

    /// Drops every block, counting each as a demotion.
    pub(crate) fn clear(&mut self) {
        let mut demoted = 0;
        for b in &mut self.blocks {
            demoted += u64::from(b.take().is_some());
        }
        self.stats.demotions += demoted;
        self.lo = u32::MAX;
        self.hi = 0;
    }

    /// Looks up the block starting at `pc` under generation `stamp`. A
    /// stamp change clears the table first.
    #[inline]
    pub(crate) fn lookup(&mut self, pc: u32, stamp: u64) -> Option<Resident> {
        if self.stamp != stamp {
            self.clear();
            self.stamp = stamp;
            return None;
        }
        self.probe(pc)
    }

    /// Probes for the block starting at `pc` without stamp validation
    /// (the caller has already validated this pass's stamp): one slot
    /// index plus a start-tag compare, so an evicted or aliasing block
    /// never answers for `pc`.
    #[inline]
    pub(crate) fn probe(&self, pc: u32) -> Option<Resident> {
        let slot = BlockCache::slot(pc);
        match self.blocks.get(slot) {
            Some(Some(b)) if b.start == pc => Some((slot, Arc::clone(&b.code))),
            _ => None,
        }
    }

    /// Installs `code`, lowered from a run recorded under generation
    /// `stamp` and covering the byte range `[pc, end]` (inclusive).
    /// Returns whether it was installed (a stale stamp drops it).
    pub(crate) fn insert(&mut self, pc: u32, end: u32, stamp: u64, code: ThreadedBlock) -> bool {
        if self.stamp != stamp {
            return false;
        }
        if self.blocks.is_empty() {
            self.blocks = vec![None; BLOCK_SLOTS];
        }
        self.lo = self.lo.min(pc);
        self.hi = self.hi.max(end);
        let stats = &mut self.stats;
        stats.blocks_promoted += 1;
        stats.fused_pairs += u64::from(code.fused);
        stats.plans_free += u64::from(code.plans_free);
        stats.plans_window += u64::from(code.plans_window);
        stats.plans_slow += u64::from(code.plans_slow);
        let slot = &mut self.blocks[BlockCache::slot(pc)];
        stats.demotions += u64::from(slot.is_some());
        *slot = Some(Block {
            start: pc,
            code: Arc::new(code),
            dispatches: 0,
        });
        true
    }

    /// Whether a write of `len` bytes at `addr` overlaps any cached
    /// block (the store-path self-modifying-code check).
    #[must_use]
    pub(crate) fn covers(&self, addr: u32, len: u32) -> bool {
        // An empty cache has lo > hi, which can never satisfy both bounds.
        addr <= self.hi && addr.saturating_add(len.max(1) - 1) >= self.lo
    }

    /// Charges `n` passes to the slot's per-block profile counter.
    #[inline]
    pub(crate) fn note_dispatch(&mut self, slot: usize, n: u64) {
        if let Some(b) = &mut self.blocks[slot] {
            b.dispatches += n;
        }
    }

    /// Per-block profile of every occupied slot:
    /// `(start, instruction count, dispatches, fused pairs)`. Unsorted —
    /// callers rank by whatever axis they report.
    pub(crate) fn profile(&self) -> Vec<(u32, u32, u64, u32)> {
        self.blocks
            .iter()
            .flatten()
            .map(|b| (b.start, b.code.instrs(), b.dispatches, b.code.fused))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache primed at generation `stamp` (the first lookup adopts it).
    fn block_cache(stamp: u64) -> BlockCache {
        let mut b = BlockCache::new();
        assert!(b.lookup(0x100, stamp).is_none());
        b
    }

    /// Lowers a run of NOPs at `(pc, size)` pairs and installs it,
    /// returning whether it landed.
    fn install(b: &mut BlockCache, stamp: u64, pcs: &[(u32, u32)]) -> bool {
        let m = crate::Machine::m3_like();
        let run: Vec<Entry> = pcs
            .iter()
            .map(|&(_, size)| Entry::decoded(Instr::Nop, size, 0))
            .collect();
        let start = pcs.first().map_or(0x100, |p| p.0);
        let end = pcs.last().map_or(start, |&(pc, size)| pc + size - 1);
        crate::threaded::build(start, &run, &m).is_some_and(|code| b.insert(start, end, stamp, code))
    }

    #[test]
    fn block_miss_insert_hit() {
        let mut b = block_cache(5);
        assert!(install(&mut b, 5, &[(0x100, 2), (0x102, 4)]));
        let (_, code) = b.lookup(0x100, 5).expect("block cached");
        assert_eq!(code.instrs(), 2);
        assert_eq!(b.stats.blocks_promoted, 1);
    }

    #[test]
    fn block_stamp_change_clears() {
        let mut b = block_cache(1);
        install(&mut b, 1, &[(0x100, 2)]);
        assert!(b.lookup(0x100, 2).is_none(), "new stamp invalidates");
        assert!(b.lookup(0x100, 2).is_none(), "block really gone");
        assert!(!b.covers(0x100, 2), "watermark cleared with the blocks");
        assert_eq!(b.stats.demotions, 1, "the dropped block counts as demoted");
        assert!(!install(&mut b, 1, &[(0x100, 2)]), "recording under the old stamp refused");
    }

    #[test]
    fn block_empty_runs_are_rejected() {
        let mut b = block_cache(1);
        assert!(!install(&mut b, 1, &[]), "empty blocks would never advance");
        assert!(b.lookup(0x100, 1).is_none());
    }

    #[test]
    fn block_watermark_covers_cached_ranges() {
        let mut b = block_cache(1);
        assert!(!b.covers(0x100, 4));
        install(&mut b, 1, &[(0x100, 4), (0x104, 4)]);
        assert!(b.covers(0x106, 1));
        assert!(b.covers(0xFE, 8), "straddling write detected");
        assert!(!b.covers(0x108, 4));
    }

    #[test]
    fn block_chain_links_verify_their_successor() {
        let mut b = block_cache(1);
        install(&mut b, 1, &[(0x100, 4)]);
        install(&mut b, 1, &[(0x200, 4)]);
        let succ = b.probe(0x200).expect("successor cached").0;
        assert!(b.probe(0x100).is_some_and(|r| r.0 != succ));
        // Evict the successor's slot with an aliasing block: the probe
        // must fail the start-tag compare instead of dispatching the
        // alias, and the alias answers only for its own start.
        let alias = 0x200 + 2 * BLOCK_SLOTS as u32;
        install(&mut b, 1, &[(alias, 4)]);
        assert!(b.probe(0x200).is_none(), "evicted successor fails safe");
        assert_eq!(b.probe(alias).map(|r| r.0), Some(succ), "alias took the slot");
        assert_eq!(b.stats.demotions, 1, "the eviction counts as a demotion");
    }
}
