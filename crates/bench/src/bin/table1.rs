//! E1: regenerates Table 1 (and the Figure 1 scatter series).

fn main() {
    alia_bench::header("E1", "Table 1 / Figure 1 (Lyons, DATE 2005)");
    let t = alia_core::experiments::table1(7, 128).expect("experiment");
    println!("{t}");
    println!("paper reports (preliminary AutoIndy GM): ARM7/ARM 100%, ARM7/Thumb 79%, Cortex-M3/Thumb-2 137%");
    println!("paper reports (code size):               ARM7/ARM 100%, ARM7/Thumb 57%, Cortex-M3/Thumb-2 57%");
    println!("\nFigure 1 series (perf% , size%) per configuration:");
    for r in &t.rows {
        println!("  {:<22} ({:>5.1}%, {:>5.1}%)", r.config, r.perf_pct, r.size_pct);
    }
    let ab = alia_core::experiments::bus_width_ablation(7, 48).expect("ablation");
    println!("\n{ab}");
    let pred = alia_core::experiments::predication_ablation(7, 48).expect("ablation");
    println!("{pred}");
    println!("per-kernel cycle detail:");
    for r in &t.rows {
        for k in &r.kernels {
            let p = &k.predecode;
            println!(
                "  {:<6} {:<8} {:>9} cycles {:>6} bytes  \
                 blocks {}/{} hits ({} instrs in whole segments), {} chained, {} splits, {} demoted",
                r.mode,
                k.kernel,
                k.cycles,
                k.code_size,
                p.blocks_promoted,
                p.block_hits,
                p.segment_instrs,
                p.chain_follows,
                p.budget_splits,
                p.demotions,
            );
        }
    }
    let mut agg = alia_core::prelude::sim::PredecodeStats::default();
    for k in t.rows.iter().flat_map(|r| &r.kernels) {
        agg.merge(&k.predecode);
    }
    println!(
        "block engine over the suite: {} blocks installed ({} instrs in whole segments), {} dispatched \
         ({} chained from the previous block), {} budget splits, {} demotions",
        agg.blocks_promoted,
        agg.segment_instrs,
        agg.block_hits,
        agg.chain_follows,
        agg.budget_splits,
        agg.demotions
    );
    let plans = agg.plans_free + agg.plans_window + agg.plans_slow;
    let pct = |n: u64| if plans == 0 { 0.0 } else { 100.0 * n as f64 / plans as f64 };
    println!(
        "threaded fetch-plan mix over the suite: {} Free ({:.1}%), {} Window ({:.1}%), {} Slow ({:.1}%)",
        agg.plans_free,
        pct(agg.plans_free),
        agg.plans_window,
        pct(agg.plans_window),
        agg.plans_slow,
        pct(agg.plans_slow),
    );
}
