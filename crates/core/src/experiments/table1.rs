//! E1 — Table 1 / Figure 1: performance per MHz and code size of the
//! AutoIndy-6 suite across the three configurations.

use std::fmt;

use alia_codegen::CodegenOptions;
use alia_isa::IsaMode;
use alia_sim::MachineConfig;
use alia_workloads::autoindy;

use crate::runner::{geometric_mean, run_kernel_cached, RunCache};
use crate::CoreError;

/// One per-kernel measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMeasurement {
    /// Kernel name.
    pub kernel: &'static str,
    /// Cycles for the run.
    pub cycles: u64,
    /// Guest instructions retired.
    pub instructions: u64,
    /// Iterations (elements) processed.
    pub elems: u32,
    /// Program bytes.
    pub code_size: u32,
    /// Predecode / block-engine counters of the run.
    pub predecode: alia_sim::PredecodeStats,
}

/// One configuration row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Configuration label, e.g. `"ARM7-class (A32)"`.
    pub config: String,
    /// The encoding used.
    pub mode: IsaMode,
    /// Geometric-mean performance per MHz (iterations per kilocycle).
    pub gm_perf: f64,
    /// Performance as a percentage of the `A32` row.
    pub perf_pct: f64,
    /// Total code bytes over the suite.
    pub code_size: u32,
    /// Code size as a percentage of the `A32` row.
    pub size_pct: f64,
    /// The per-kernel detail.
    pub kernels: Vec<KernelMeasurement>,
}

/// The reproduced Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rows in the paper's order: `A32`, `T16`, `T2`.
    pub rows: Vec<Table1Row>,
    /// Input seed used.
    pub seed: u64,
    /// Elements per kernel.
    pub elems: u32,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1 — AutoIndy-6 geometric mean (seed {}, n {})", self.seed, self.elems)?;
        writeln!(f, "{:<24} {:>12} {:>8} | {:>10} {:>8}", "Processor / ISA", "GM perf/MHz", "(%)", "Code size", "(%)")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<24} {:>12.1} {:>7.0}% | {:>10} {:>7.0}%",
                r.config, r.gm_perf, r.perf_pct, r.code_size, r.size_pct
            )?;
        }
        Ok(())
    }
}

/// Runs the Table 1 experiment.
///
/// # Errors
///
/// Propagates compilation/run failures.
pub fn table1(seed: u64, elems: u32) -> Result<Table1, CoreError> {
    let configs: [(&str, MachineConfig); 3] = [
        ("ARM7-class (A32)", MachineConfig::arm7_like(IsaMode::A32)),
        ("ARM7-class (T16)", MachineConfig::arm7_like(IsaMode::T16)),
        ("M3-class   (T2)", MachineConfig::m3_like()),
    ];
    let opts = CodegenOptions::default();
    let suite = autoindy();
    // One cache across the whole table: interpreter checksums are shared
    // by all three configurations, compilations by configs of one mode.
    let mut cache = RunCache::new();
    let mut rows = Vec::new();
    for (label, config) in configs {
        let mut perfs = Vec::new();
        let mut total_size = 0u32;
        let mut kernels = Vec::new();
        for k in &suite {
            let run = run_kernel_cached(&mut cache, k, config.clone(), &opts, seed, elems)?;
            // iterations per kilocycle ~ "per MHz" at 1 cycle = 1 tick.
            perfs.push(f64::from(elems) * 1000.0 / run.cycles as f64);
            total_size += run.code_size;
            kernels.push(KernelMeasurement {
                kernel: k.name,
                cycles: run.cycles,
                instructions: run.instructions,
                elems,
                code_size: run.code_size,
                predecode: run.predecode,
            });
        }
        rows.push(Table1Row {
            config: label.to_string(),
            mode: config.mode,
            gm_perf: geometric_mean(&perfs),
            perf_pct: 0.0,
            code_size: total_size,
            size_pct: 0.0,
            kernels,
        });
    }
    let base_perf = rows[0].gm_perf;
    let base_size = rows[0].code_size;
    for r in &mut rows {
        r.perf_pct = r.gm_perf / base_perf * 100.0;
        r.size_pct = f64::from(r.code_size) / f64::from(base_size) * 100.0;
    }
    Ok(Table1 { rows, seed, elems })
}

/// Ablation: the original Thumb pitch — on a *16-bit* memory interface
/// the compressed encoding claws back the performance it loses on a
/// 32-bit bus, because every `A32` fetch needs two bus beats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusWidthAblation {
    /// T16 performance relative to A32 on a 32-bit flash interface.
    pub t16_rel_perf_bus32: f64,
    /// T16 performance relative to A32 on a 16-bit flash interface.
    pub t16_rel_perf_bus16: f64,
}

impl fmt::Display for BusWidthAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ablation — memory interface width (T16 perf relative to A32):")?;
        writeln!(f, "  32-bit flash interface: {:>5.1}%", self.t16_rel_perf_bus32 * 100.0)?;
        writeln!(f, "  16-bit flash interface: {:>5.1}%", self.t16_rel_perf_bus16 * 100.0)
    }
}

/// Runs the bus-width ablation over the AutoIndy-6 suite.
///
/// # Errors
///
/// Propagates compile/run failures.
pub fn bus_width_ablation(seed: u64, elems: u32) -> Result<BusWidthAblation, CoreError> {
    let opts = CodegenOptions::default();
    let suite = autoindy();
    // Flash width varies but the compiled program and checksum do not:
    // every run after the first four is pure simulation.
    let mut cache = RunCache::new();
    let mut rel = [0.0f64; 2];
    for (slot, width) in [(0usize, 4u32), (1, 2)] {
        let mut ratios = Vec::new();
        for k in &suite {
            let mut a32_cfg = MachineConfig::arm7_like(IsaMode::A32);
            a32_cfg.flash.width = width;
            let mut t16_cfg = MachineConfig::arm7_like(IsaMode::T16);
            t16_cfg.flash.width = width;
            let a32 = run_kernel_cached(&mut cache, k, a32_cfg, &opts, seed, elems)?;
            let t16 = run_kernel_cached(&mut cache, k, t16_cfg, &opts, seed, elems)?;
            ratios.push(a32.cycles as f64 / t16.cycles as f64);
        }
        rel[slot] = geometric_mean(&ratios);
    }
    Ok(BusWidthAblation { t16_rel_perf_bus32: rel[0], t16_rel_perf_bus16: rel[1] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let t = table1(7, 48).expect("experiment runs");
        assert_eq!(t.rows.len(), 3);
        let a32 = &t.rows[0];
        let t16 = &t.rows[1];
        let t2 = &t.rows[2];
        // Paper: ARM 100%, Thumb 79%, Thumb-2 137%.
        assert!((a32.perf_pct - 100.0).abs() < 1e-9);
        assert!(
            t16.perf_pct < 100.0,
            "T16 must be slower than A32, got {:.1}%",
            t16.perf_pct
        );
        assert!(
            t2.perf_pct > 100.0,
            "T2/M3 must beat A32/ARM7, got {:.1}%",
            t2.perf_pct
        );
        // Paper: Thumb and Thumb-2 both ~57% of ARM size.
        assert!(t16.size_pct < 75.0, "T16 size {:.1}%", t16.size_pct);
        assert!(t2.size_pct < 75.0, "T2 size {:.1}%", t2.size_pct);
        // Render.
        let s = t.to_string();
        assert!(s.contains("Table 1"));
    }

    #[test]
    fn table1_is_deterministic() {
        // Every field is a simulation outcome: no host measurement may
        // make two runs of one seed compare unequal.
        assert_eq!(table1(1, 16).expect("runs"), table1(1, 16).expect("runs"));
    }

    #[test]
    fn narrow_bus_closes_the_t16_gap() {
        let a = bus_width_ablation(3, 24).expect("ablation runs");
        // On a 16-bit interface every A32 fetch costs two beats: the
        // compressed encoding must recover substantially.
        assert!(
            a.t16_rel_perf_bus16 > a.t16_rel_perf_bus32 + 0.1,
            "bus16 {:.2} vs bus32 {:.2}",
            a.t16_rel_perf_bus16,
            a.t16_rel_perf_bus32
        );
    }
}
