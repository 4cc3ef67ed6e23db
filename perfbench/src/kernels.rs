//! `kernels`: one op is one verified kernel job, composed the way
//! `run_kernel` does it — compile, build a fresh machine, run to `bkpt`,
//! and compare against the golden interpreter.

use alia_core::prelude::codegen::CodegenOptions;
use alia_core::prelude::isa::IsaMode;
use alia_core::prelude::sim::{MachineConfig, StopReason};
use alia_core::prelude::workloads::{all_kernels, Kernel};
use alia_core::{compile_kernel, machine_for, run_kernel};

use crate::spans::Ctx;
use crate::work::{Rng, Work, Workload};

/// The core profiles a job is compiled for.
const PROFILES: [&str; 4] = ["arm7-a32", "arm7-t16", "m3-t2", "high-end-t2"];

fn profile(p: usize) -> MachineConfig {
    match p {
        0 => MachineConfig::arm7_like(IsaMode::A32),
        1 => MachineConfig::arm7_like(IsaMode::T16),
        2 => MachineConfig::m3_like(),
        _ => MachineConfig::high_end_like(),
    }
}

/// Short jobs per long job for each (kernel, profile) pair: short jobs
/// set the median, long jobs the tail.
const SHORT_PER_LONG: usize = 3;
/// Short-job element range per 256 default elements (`matrix` scales
/// down): tens of elements, bound by warm-up and tier promotion.
const SHORT_ELEMS: (u64, u64) = (28, 36);

/// Centre of each kernel's long-job element count: thousands of
/// elements (hundreds for the divide- and multiply-heavy kernels),
/// sized so every long job costs about the same host time. The tail
/// percentile then sits inside one cluster of similar jobs rather than
/// on the edge between cheap and costly kernels. Draws range ±1/16
/// around the centre.
fn long_elems(kernel: &str) -> u64 {
    match kernel {
        "a2time" => 640,
        "tblook" => 5_400,
        "ttsprk" => 850,
        "puwmod" => 4_300,
        "rspeed" => 820,
        "canrdr" => 3_800,
        "bitmnp" => 3_450,
        "matrix" => 80,
        _ => 2_048,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOp {
    pub kernel: usize,
    pub profile: usize,
    pub seed: u64,
    pub elems: u32,
}

/// The op list: every (kernel, profile) pair gets `SHORT_PER_LONG`
/// short jobs and one long one. Each kernel's element counts are drawn
/// stratified over their range and its input seeds freely, all from
/// `seed`; the list runs in a seeded order.
pub fn ops(seed: u64) -> Vec<KernelOp> {
    let kernels = all_kernels();
    let mut rng = Rng::new(seed, 0x4B45_524E);
    let mut ops = Vec::new();
    let n = PROFILES.len();
    for (k, kernel) in kernels.iter().enumerate() {
        let scale = u64::from(kernel.default_elems);
        let mut short = rng.stratified(
            SHORT_ELEMS.0 * scale / 256,
            SHORT_ELEMS.1 * scale / 256,
            n * SHORT_PER_LONG,
        );
        let centre = long_elems(kernel.name);
        let long = rng.stratified(centre * 15 / 16, centre * 17 / 16, n);
        for (p, long_elems) in long.into_iter().enumerate() {
            for elems in short.drain(..SHORT_PER_LONG).chain([long_elems]) {
                ops.push(KernelOp {
                    kernel: k,
                    profile: p,
                    seed: rng.next(),
                    elems: elems as u32,
                });
            }
        }
    }
    rng.shuffle(&mut ops);
    ops
}

pub struct Kernels {
    kernels: Vec<Kernel>,
    ops: Vec<KernelOp>,
    opts: CodegenOptions,
}

impl Kernels {
    pub fn new(seed: u64) -> Kernels {
        Kernels {
            kernels: all_kernels(),
            ops: ops(seed),
            opts: CodegenOptions::default(),
        }
    }

    fn job(&self, op: &KernelOp, ctx: &mut Ctx) -> Result<Work, String> {
        let kernel = &self.kernels[op.kernel];
        let config = profile(op.profile);
        let mode = config.mode;
        let prog = ctx
            .span("codegen.compile", |_| {
                compile_kernel(kernel, mode, &self.opts)
            })
            .map_err(|e| format!("compile: {e}"))?;
        let mut m = ctx.span("sim.build", |_| {
            machine_for(config, &prog, kernel, op.seed, op.elems)
        });
        let r = ctx.span("sim.exec", |_| m.run(2_000_000_000));
        ctx.count_insts(r.instructions);
        let expect = ctx.span("tir.interp", |_| kernel.run_interp(op.seed, op.elems));
        if r.reason != StopReason::Bkpt(0) {
            return Err(format!(
                "stopped with {:?} after {} cycles",
                r.reason, r.cycles
            ));
        }
        let checksum = m.cpu.regs[0];
        if checksum != expect {
            return Err(format!("checksum {checksum:#x} != interpreter {expect:#x}"));
        }
        let mut w = Work::of_machine(&m);
        w.cycles = r.cycles;
        w.signature = u64::from(checksum);
        Ok(w)
    }
}

impl Workload for Kernels {
    fn len(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&self, i: usize, ctx: &mut Ctx) -> Result<Work, String> {
        self.job(&self.ops[i], ctx)
    }

    fn warm_up(&self, ctx: &mut Ctx) -> Result<Work, String> {
        let op = KernelOp {
            kernel: 0,
            profile: 2,
            seed: 0,
            elems: 64,
        };
        self.job(&op, ctx)
    }

    fn describe(&self, i: usize) -> String {
        let op = &self.ops[i];
        format!(
            "{} on {} (seed {:#x}, {} elems)",
            self.kernels[op.kernel].name, PROFILES[op.profile], op.seed, op.elems
        )
    }
}

/// Composed jobs must reproduce `run_kernel` bit for bit: checksum,
/// cycles and instructions, for every kernel on a rotating profile at
/// its default element count.
pub fn cross_check() -> Result<(), String> {
    let bench = Kernels::new(0);
    for (k, kernel) in bench.kernels.iter().enumerate() {
        let op = KernelOp {
            kernel: k,
            profile: k % PROFILES.len(),
            seed: 7,
            elems: kernel.default_elems,
        };
        let ours = bench.job(&op, &mut Ctx::new(false, 0))?;
        let lib = run_kernel(kernel, profile(op.profile), &bench.opts, op.seed, op.elems)
            .map_err(|e| format!("run_kernel {}: {e}", kernel.name))?;
        let got = (ours.signature, ours.cycles, ours.instructions);
        let want = (u64::from(lib.checksum), lib.cycles, lib.instructions);
        if got != want {
            return Err(format!(
                "{} on {}: (checksum, cycles, instructions) {got:?} != run_kernel {want:?}",
                kernel.name, PROFILES[op.profile]
            ));
        }
    }
    Ok(())
}
