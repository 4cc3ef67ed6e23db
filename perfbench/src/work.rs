//! What every workload shares: the seeded generator, the exact work
//! counters and the interface the run loop drives ops through.

use alia_core::prelude::sim::{Machine, PredecodeStats, System};

use crate::spans::Ctx;

/// `splitmix64`: advances `state` and returns the next output. The same
/// generator the E12/E13 recipes use to derive run parameters.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One `splitmix64` output for `seed` (stateless form).
pub fn mix(seed: u64) -> u64 {
    splitmix(&mut { seed })
}

/// Seeded generator for op lists.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ stream))
    }

    pub fn next(&mut self) -> u64 {
        splitmix(&mut self.0)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// `n` values in `lo..hi`, one uniform draw from each of `n` equal
    /// strata, in a seeded order: the values differ between seeds but
    /// their distribution barely does.
    pub fn stratified(&mut self, lo: u64, hi: u64, n: usize) -> Vec<u64> {
        let n64 = n as u64;
        let mut v: Vec<u64> = (0..n64)
            .map(|k| {
                let a = lo + (hi - lo) * k / n64;
                let b = (lo + (hi - lo) * (k + 1) / n64).max(a + 1);
                self.range(a, b)
            })
            .collect();
        self.shuffle(&mut v);
        v
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Host-independent work one op did. Two runs of one op must produce
/// identical values: under the bit-identity contract a change that moves
/// them changed the simulated program, not only its speed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Guest instructions retired, all nodes.
    pub instructions: u64,
    /// Simulated time advanced (global cycles for a system).
    pub cycles: u64,
    /// Scheduler quanta.
    pub quanta: u64,
    /// Wire events (data frames and error frames), all wires.
    pub deliveries: u64,
    /// Error frames, all wires.
    pub error_frames: u64,
    /// Data frames delivered, all wires.
    pub data_frames: u64,
    /// Transmission attempts behind those data frames.
    pub attempts: u64,
    /// Frames forwarded by DMA gateway engines.
    pub dma_forwards: u64,
    /// `System::fork` calls.
    pub forks: u64,
    /// RTOS task preemptions.
    pub preemptions: u64,
    /// Instructions retired in tier-2 block dispatches.
    pub tier2_instrs: u64,
    /// Instructions retired in tier-3 threaded dispatches.
    pub tier3_instrs: u64,
    pub blocks_promoted: u64,
    pub demotions: u64,
    pub budget_splits: u64,
    /// The op's checked result (checksum, outcome code or trace hash).
    pub signature: u64,
}

impl Work {
    pub fn add(&mut self, o: &Work) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.quanta += o.quanta;
        self.deliveries += o.deliveries;
        self.error_frames += o.error_frames;
        self.data_frames += o.data_frames;
        self.attempts += o.attempts;
        self.dma_forwards += o.dma_forwards;
        self.forks += o.forks;
        self.preemptions += o.preemptions;
        self.tier2_instrs += o.tier2_instrs;
        self.tier3_instrs += o.tier3_instrs;
        self.blocks_promoted += o.blocks_promoted;
        self.demotions += o.demotions;
        self.budget_splits += o.budget_splits;
        self.signature = self.signature.rotate_left(5) ^ o.signature;
    }

    /// Folds the block-engine counters of `stats` in.
    pub fn add_tiers(&mut self, stats: &PredecodeStats) {
        self.tier2_instrs += stats.block_instrs;
        self.tier3_instrs += stats.threaded_instrs;
        self.blocks_promoted += stats.blocks_promoted;
        self.demotions += stats.demotions;
        self.budget_splits += stats.budget_splits;
    }

    /// Instructions and tier counters of one machine.
    pub fn of_machine(m: &Machine) -> Work {
        let mut w = Work {
            instructions: m.instructions(),
            ..Work::default()
        };
        w.add_tiers(&m.predecode_stats());
        w
    }

    /// Instructions and tier counters summed over a system's nodes.
    pub fn of_nodes(sys: &System) -> Work {
        let mut w = Work::default();
        for n in sys.nodes() {
            w.add(&Work::of_machine(n.machine()));
        }
        w
    }

    /// Field-wise `self - base` of the counters that accumulate in
    /// nodes and wires, for a run forked from `base`.
    pub fn since(&self, base: &Work) -> Work {
        Work {
            instructions: self.instructions - base.instructions,
            deliveries: self.deliveries - base.deliveries,
            error_frames: self.error_frames - base.error_frames,
            data_frames: self.data_frames - base.data_frames,
            attempts: self.attempts - base.attempts,
            dma_forwards: self.dma_forwards - base.dma_forwards,
            tier2_instrs: self.tier2_instrs - base.tier2_instrs,
            tier3_instrs: self.tier3_instrs - base.tier3_instrs,
            blocks_promoted: self.blocks_promoted - base.blocks_promoted,
            demotions: self.demotions - base.demotions,
            budget_splits: self.budget_splits - base.budget_splits,
            ..*self
        }
    }

    /// Stable FNV-1a digest of every counter.
    pub fn digest(works: &[Work]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in works {
            for v in [
                w.instructions,
                w.cycles,
                w.quanta,
                w.deliveries,
                w.error_frames,
                w.data_frames,
                w.attempts,
                w.dma_forwards,
                w.forks,
                w.preemptions,
                w.tier2_instrs,
                w.tier3_instrs,
                w.blocks_promoted,
                w.demotions,
                w.budget_splits,
                w.signature,
            ] {
                for b in v.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        h
    }
}

/// A prepared workload: its seeded op list plus any shared state.
pub trait Workload: Sync {
    /// Ops in the list; a run cycles through them in order.
    fn len(&self) -> usize;
    /// Runs op `i` of the list and checks its output.
    fn run_op(&self, i: usize, ctx: &mut Ctx) -> Result<Work, String>;
    /// The fixed warm-up op run at the end of set-up.
    fn warm_up(&self, ctx: &mut Ctx) -> Result<Work, String>;
    /// Campaign workers running ops concurrently.
    fn workers(&self) -> usize {
        1
    }
    /// Short description of op `i` for failure reports.
    fn describe(&self, i: usize) -> String;
}
