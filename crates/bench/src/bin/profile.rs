//! Tier profiler: where does the guest's work run, tier by tier and
//! block by block?
//!
//! Runs the AutoIndy-6 suite on the M3-class (T2) preset and prints,
//! per kernel: the occupancy of the two tiers (what fraction of retired
//! guest instructions ran as threaded blocks, t3, and on the per-step
//! path, t1), the fusion and fetch-plan mix of the threaded code, the
//! share of instructions retired in whole segments (register-only runs
//! whose fetch timing is charged once per run), and the hottest
//! resident blocks with each one's share of the
//! instructions estimated to have retired in blocks (a weight from
//! dispatch counts, not a clock), then the suite aggregate. Nothing is
//! written to disk.
//!
//! ```text
//! cargo run --release -p alia-bench --bin profile
//! ```

use alia_core::prelude::codegen::CodegenOptions;
use alia_core::prelude::sim::{MachineConfig, PredecodeStats};
use alia_core::prelude::workloads::autoindy;
use alia_core::{profile_kernel, RunCache};

/// Hot-block rows printed per kernel.
const TOP_BLOCKS: usize = 5;

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn main() {
    alia_bench::header("profiler", "tier occupancy / block heat attribution");
    let config = MachineConfig::m3_like();
    let opts = CodegenOptions::default();
    let mut cache = RunCache::new();

    let mut agg = PredecodeStats::default();
    let mut total_instrs = 0u64;
    for kernel in autoindy() {
        let (run, blocks) =
            profile_kernel(&mut cache, &kernel, config.clone(), &opts, 7, 128).expect("kernel runs");
        let p = &run.predecode;
        agg.merge(p);
        total_instrs += run.instructions;

        let t3 = p.threaded_instrs;
        let t1 = run.instructions.saturating_sub(t3);
        println!(
            "\n{:<8} {:>9} instrs   tier occupancy: t3 {:.1}%  t1 {:.1}%",
            kernel.name,
            run.instructions,
            pct(t3, run.instructions),
            pct(t1, run.instructions),
        );
        let plans = p.plans_free + p.plans_window + p.plans_slow;
        println!(
            "         {} installed, {} fused pairs ({:.2} per block), \
             fetch plans: {:.1}% Free / {:.1}% Window / {:.1}% Slow, \
             {:.1}% of instrs in whole segments",
            p.blocks_promoted,
            p.fused_pairs,
            if p.blocks_promoted == 0 { 0.0 } else { p.fused_pairs as f64 / p.blocks_promoted as f64 },
            pct(p.plans_free, plans),
            pct(p.plans_window, plans),
            pct(p.plans_slow, plans),
            pct(p.segment_instrs, run.instructions),
        );
        let block_est: u64 = blocks.iter().map(|b| b.est_instructions).sum();
        for b in blocks.iter().take(TOP_BLOCKS) {
            println!(
                "         {:#010x} {:>3} insts  {:>8} dispatches  {:>2} fused  \
                 {:>5.1}% of est. block instrs",
                b.start,
                b.insts,
                b.dispatches,
                b.fused,
                pct(b.est_instructions, block_est),
            );
        }
    }

    let t3_pct = pct(agg.threaded_instrs, total_instrs);
    let t1_pct = (100.0 - t3_pct).max(0.0);
    println!(
        "\nsuite aggregate: t3 {t3_pct:.1}% / t1 {t1_pct:.1}% occupancy, \
         {} fused pairs over {} installed blocks",
        agg.fused_pairs, agg.blocks_promoted,
    );
}
