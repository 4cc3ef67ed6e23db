//! Running compiled workloads on simulated machines, with cross-checking
//! against the golden interpreter.

use std::collections::HashMap;
use std::sync::Arc;

use alia_codegen::{compile, CodegenOptions, CompiledProgram};
use alia_isa::IsaMode;
use alia_sim::{Machine, MachineConfig, StopReason};
use alia_workloads::Kernel;

use crate::CoreError;

/// Address of the `bkpt #0` trampoline used as the return address of the
/// top-level call.
pub const TRAMPOLINE: u32 = 0x10;
/// Top of the stack given to workloads.
pub const STACK_TOP: u32 = alia_sim::SRAM_BASE + 0x8_0000;

/// The measured outcome of one kernel execution.
///
/// Equality compares the *simulation* outcome (checksum, cycles,
/// instructions, code size) and deliberately ignores the block-engine
/// counters, which describe how the host executed the run, not what it
/// computed.
#[derive(Debug, Clone, Copy)]
pub struct KernelRun {
    /// The kernel's checksum (cross-checked against the interpreter).
    pub checksum: u32,
    /// Cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Program image size in bytes (code + pools).
    pub code_size: u32,
    /// Predecode / block-engine counters of the run (engine metadata,
    /// ignored by equality).
    pub predecode: alia_sim::PredecodeStats,
}

impl PartialEq for KernelRun {
    fn eq(&self, other: &KernelRun) -> bool {
        self.checksum == other.checksum
            && self.cycles == other.cycles
            && self.instructions == other.instructions
            && self.code_size == other.code_size
    }
}

impl Eq for KernelRun {}

/// Compiles `kernel` for `mode` with `opts`.
///
/// # Errors
///
/// Propagates compiler failures.
pub fn compile_kernel(
    kernel: &Kernel,
    mode: IsaMode,
    opts: &CodegenOptions,
) -> Result<CompiledProgram, CoreError> {
    compile(&kernel.module, mode, opts).map_err(CoreError::from)
}

/// Memoization cache for the pure stages of the kernel pipeline:
/// compilation (keyed on `(kernel, mode, opts)`) and golden-interpreter
/// verification (keyed on `(kernel, seed, elems)`).
///
/// Sweep experiments (Table 1, the ablations, parameter scans) run the
/// same kernels over and over with only the machine configuration
/// varying; both stages are pure functions of their keys, so a shared
/// cache removes them from every run after the first.
///
/// Kernels are identified by name: the workload suite maps each name to
/// a fixed TIR module, so the name is a complete key within a process.
#[derive(Debug, Default)]
pub struct RunCache {
    programs: HashMap<(&'static str, IsaMode, CodegenOptions), Arc<CompiledProgram>>,
    checksums: HashMap<(&'static str, u64, u32), u32>,
    compile_hits: u64,
    interp_hits: u64,
}

impl RunCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> RunCache {
        RunCache::default()
    }

    /// Compiles `kernel` for `mode`/`opts`, memoized.
    ///
    /// # Errors
    ///
    /// Propagates compiler failures (which are not cached).
    pub fn compiled(
        &mut self,
        kernel: &Kernel,
        mode: IsaMode,
        opts: &CodegenOptions,
    ) -> Result<Arc<CompiledProgram>, CoreError> {
        if let Some(p) = self.programs.get(&(kernel.name, mode, *opts)) {
            self.compile_hits += 1;
            return Ok(Arc::clone(p));
        }
        let prog = Arc::new(compile_kernel(kernel, mode, opts)?);
        self.programs.insert((kernel.name, mode, *opts), Arc::clone(&prog));
        Ok(prog)
    }

    /// The golden-interpreter checksum for `(kernel, seed, elems)`,
    /// memoized.
    pub fn interp_checksum(&mut self, kernel: &Kernel, seed: u64, elems: u32) -> u32 {
        if let Some(&c) = self.checksums.get(&(kernel.name, seed, elems)) {
            self.interp_hits += 1;
            return c;
        }
        let c = kernel.run_interp(seed, elems);
        self.checksums.insert((kernel.name, seed, elems), c);
        c
    }

    /// Compilations served from the cache.
    #[must_use]
    pub fn compile_hits(&self) -> u64 {
        self.compile_hits
    }

    /// Interpreter verifications served from the cache.
    #[must_use]
    pub fn interp_hits(&self) -> u64 {
        self.interp_hits
    }
}

/// Prepares a machine with `prog` and the kernel's input loaded, ready to
/// run (pc, sp, args and the return trampoline are set).
#[must_use]
pub fn machine_for(
    config: MachineConfig,
    prog: &CompiledProgram,
    kernel: &Kernel,
    seed: u64,
    elems: u32,
) -> Machine {
    let mut m = Machine::new(config);
    m.load_flash(prog.base_addr, &prog.bytes);
    let bk = alia_isa::encode(&alia_isa::Instr::Bkpt { imm: 0 }, prog.mode)
        .expect("bkpt encodes in every mode");
    m.load_flash(TRAMPOLINE, bk.as_bytes());
    m.load_sram(alia_workloads::DATA_BASE, &kernel.input_bytes(seed, elems));
    let args = kernel.args(elems);
    for (i, a) in args.iter().enumerate() {
        m.cpu.regs[i] = *a;
    }
    m.cpu.set_sp(STACK_TOP);
    m.cpu.set_lr(TRAMPOLINE);
    m.set_pc(prog.entry_address(kernel.name));
    m
}

/// Runs `kernel` on a machine built from `config`, verifying the result
/// against the golden interpreter.
///
/// # Errors
///
/// Returns [`CoreError`] when compilation fails, the run does not halt at
/// the trampoline, or the checksum disagrees with the interpreter.
pub fn run_kernel(
    kernel: &Kernel,
    config: MachineConfig,
    opts: &CodegenOptions,
    seed: u64,
    elems: u32,
) -> Result<KernelRun, CoreError> {
    run_kernel_cached(&mut RunCache::new(), kernel, config, opts, seed, elems)
}

/// [`run_kernel`] with compilation and interpreter verification served
/// from `cache` — the entry point for sweep experiments that re-run the
/// same kernels under varying machine configurations.
///
/// # Errors
///
/// Same contract as [`run_kernel`].
pub fn run_kernel_cached(
    cache: &mut RunCache,
    kernel: &Kernel,
    config: MachineConfig,
    opts: &CodegenOptions,
    seed: u64,
    elems: u32,
) -> Result<KernelRun, CoreError> {
    run_kernel_inner(cache, kernel, config, opts, seed, elems).map(|(run, _)| run)
}

fn run_kernel_inner(
    cache: &mut RunCache,
    kernel: &Kernel,
    config: MachineConfig,
    opts: &CodegenOptions,
    seed: u64,
    elems: u32,
) -> Result<(KernelRun, Machine), CoreError> {
    let prog = cache.compiled(kernel, config.mode, opts)?;
    let mut m = machine_for(config, &prog, kernel, seed, elems);
    // Unbounded run, not `run_until`: a kernel that deadlocks in WFI
    // should fail fast with `WfiIdle` at its true cycle count, not park
    // until the 2e9-cycle horizon.
    let result = m.run(2_000_000_000);
    if result.reason != StopReason::Bkpt(0) {
        return Err(CoreError::Run {
            what: format!(
                "{} on {}: stopped with {:?} after {} cycles",
                kernel.name, prog.mode, result.reason, result.cycles
            ),
        });
    }
    let expect = cache.interp_checksum(kernel, seed, elems);
    if m.cpu.regs[0] != expect {
        return Err(CoreError::Run {
            what: format!(
                "{} on {}: checksum {:#x} != interpreter {expect:#x}",
                kernel.name, prog.mode, m.cpu.regs[0]
            ),
        });
    }
    let run = KernelRun {
        checksum: m.cpu.regs[0],
        cycles: result.cycles,
        instructions: result.instructions,
        code_size: prog.code_size(),
        predecode: m.predecode_stats(),
    };
    Ok((run, m))
}

/// One resident block's row in the profiler view (see
/// [`profile_kernel`]), hottest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockProfileRow {
    /// Block start PC.
    pub start: u32,
    /// Decoded instructions in the block.
    pub insts: u32,
    /// Passes through the block's threaded code (entries, chained
    /// entries and self-loop rounds).
    pub dispatches: u64,
    /// Superinstruction pairs fused into its threaded body.
    pub fused: u32,
    /// Estimated instructions retired inside the block
    /// (`dispatches × insts` — an attribution weight, not an exact
    /// count: early block exits retire fewer). No host time is
    /// attributed per block.
    pub est_instructions: u64,
}

/// [`run_kernel_cached`] plus the per-block profiler view: every block
/// resident in the block cache when the run halted, hottest (most
/// dispatched) first, with the instructions each is estimated to have
/// retired. Blocks evicted or invalidated mid-run are absent, and so
/// are their dispatch counts.
///
/// # Errors
///
/// Same contract as [`run_kernel`].
pub fn profile_kernel(
    cache: &mut RunCache,
    kernel: &Kernel,
    config: MachineConfig,
    opts: &CodegenOptions,
    seed: u64,
    elems: u32,
) -> Result<(KernelRun, Vec<BlockProfileRow>), CoreError> {
    let (run, m) = run_kernel_inner(cache, kernel, config, opts, seed, elems)?;
    let rows = m
        .block_profile()
        .into_iter()
        .map(|(start, insts, dispatches, fused)| BlockProfileRow {
            start,
            insts,
            dispatches,
            fused,
            est_instructions: dispatches * u64::from(insts),
        })
        .collect();
    Ok((run, rows))
}

/// Geometric mean of positive values.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alia_workloads::all_kernels;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn kernels_run_on_all_three_cores() {
        // One representative kernel on each core profile.
        let kernels = all_kernels();
        let k = kernels.iter().find(|k| k.name == "puwmod").unwrap();
        let opts = CodegenOptions::default();
        let a32 = run_kernel(k, MachineConfig::arm7_like(IsaMode::A32), &opts, 3, 16).unwrap();
        let t16 = run_kernel(k, MachineConfig::arm7_like(IsaMode::T16), &opts, 3, 16).unwrap();
        let t2 = run_kernel(k, MachineConfig::m3_like(), &opts, 3, 16).unwrap();
        assert_eq!(a32.checksum, t16.checksum);
        assert_eq!(a32.checksum, t2.checksum);
        assert!(t16.code_size < a32.code_size);
    }

    #[test]
    fn run_cache_hits_and_matches_uncached() {
        let kernels = all_kernels();
        let k = kernels.iter().find(|k| k.name == "tblook").unwrap();
        let opts = CodegenOptions::default();
        let mut cache = RunCache::new();
        let uncached = run_kernel(k, MachineConfig::m3_like(), &opts, 11, 24).unwrap();
        // Same kernel across several machine configs: compile memoizes
        // per mode, interp per (seed, elems).
        let a = run_kernel_cached(&mut cache, k, MachineConfig::m3_like(), &opts, 11, 24).unwrap();
        let b = run_kernel_cached(&mut cache, k, MachineConfig::high_end_like(), &opts, 11, 24)
            .unwrap();
        let c = run_kernel_cached(&mut cache, k, MachineConfig::m3_like(), &opts, 11, 24).unwrap();
        assert_eq!(a, uncached, "cached run must be bit-identical");
        assert_eq!(a, c, "repeat run must be bit-identical");
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(cache.compile_hits(), 2, "m3 + high_end share T2, repeat hits");
        assert_eq!(cache.interp_hits(), 2, "seed/elems shared across configs");
        // A different seed is a different interp key.
        let _ = run_kernel_cached(&mut cache, k, MachineConfig::m3_like(), &opts, 12, 24).unwrap();
        assert_eq!(cache.interp_hits(), 2);
    }

    #[test]
    fn every_kernel_on_every_core_is_identical_with_the_engine_off() {
        // The block engine's fetch plans and whole-segment dispatch are
        // host-only: every suite kernel on all four core profiles ends
        // with the same checksum, cycles, instructions, flash streaming
        // statistics and cache statistics as the per-step reference.
        let opts = CodegenOptions::default();
        let mut cache = RunCache::new();
        let profiles = [
            MachineConfig::arm7_like(IsaMode::A32),
            MachineConfig::arm7_like(IsaMode::T16),
            MachineConfig::m3_like(),
            MachineConfig::high_end_like(),
        ];
        let caches = |m: &Machine| {
            let stats = |c: &Option<alia_sim::Cache>| c.as_ref().map(|c| (c.stats(), c.valid_lines()));
            (stats(&m.icache), stats(&m.dcache))
        };
        for config in profiles {
            let mut segment_instrs = 0;
            for kernel in all_kernels() {
                let mut run = |predecode| {
                    let config = MachineConfig { predecode, ..config.clone() };
                    run_kernel_inner(&mut cache, &kernel, config, &opts, 5, 40).unwrap()
                };
                let (on, m_on) = run(true);
                let (off, m_off) = run(false);
                let what = format!("{} on {}", kernel.name, config.mode);
                assert_eq!(on, off, "{what}: checksum, cycles or instructions diverged");
                assert_eq!(m_on.flash.stats(), m_off.flash.stats(), "{what}: flash stats diverged");
                assert_eq!(caches(&m_on), caches(&m_off), "{what}: cache stats diverged");
                assert!(on.predecode.threaded_instrs > 0, "{what}: the engine never ran");
                assert_eq!(off.predecode.threaded_instrs, 0, "{what}: the reference ran blocks");
                segment_instrs += on.predecode.segment_instrs;
            }
            assert!(segment_instrs > 0, "{}: no segment ran whole", config.mode);
        }
    }

    #[test]
    fn divide_heavy_kernel_shows_t2_advantage() {
        // a2time does one divide per element; hardware divide plus better
        // load timing should put T2/M3 clearly ahead of A32/ARM7.
        let kernels = all_kernels();
        let k = kernels.iter().find(|k| k.name == "a2time").unwrap();
        let opts = CodegenOptions::default();
        let a32 = run_kernel(k, MachineConfig::arm7_like(IsaMode::A32), &opts, 3, 64).unwrap();
        let t2 = run_kernel(k, MachineConfig::m3_like(), &opts, 3, 64).unwrap();
        assert!(
            t2.cycles < a32.cycles,
            "T2/M3 ({}) should beat A32/ARM7 ({})",
            t2.cycles,
            a32.cycles
        );
    }
}
