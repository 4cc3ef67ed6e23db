//! `rtos`: one op is one standalone E13 mission — the mission task set
//! re-phased and re-seeded by the `rtos_jitter_point` recipe, lowered by
//! `build_guest_rtos`, run, decoded by `ExecStats::from_machine` and
//! checked by `validate_bounds`.

use alia_core::experiments::{mission_tasks, rtos_jitter_point};
use alia_core::prelude::rtos::exec::{
    build_guest_rtos, ExecStats, GuestRtos, GuestRtosConfig, GuestTask,
};
use alia_core::prelude::sim::StopReason;

use crate::spans::Ctx;
use crate::work::{splitmix, Rng, Work, Workload};

/// E13's tick period and mission length.
const TICK_CYCLES: u32 = 2_000;
const TOTAL_TICKS: u32 = 40;
/// Missions per list.
const LIST_LEN: usize = 64;

/// The op list: one recipe seed per mission.
pub fn ops(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x7105);
    (0..LIST_LEN).map(|_| rng.next()).collect()
}

/// What the fidelity cross-check compares beyond the work counters.
pub struct MissionDetail {
    pub trace_hash: u64,
    pub worst_responses: Vec<u64>,
    pub bounds: Vec<u64>,
}

/// The recipe's task set for `seed`: the non-transmitting mission tasks
/// with seed-derived activation offsets and input seeds.
fn task_set(seed: u64) -> Vec<GuestTask> {
    let mut rng = seed;
    mission_tasks()
        .into_iter()
        .filter(|t| t.tx_id.is_none())
        .map(|t| {
            let offset = (splitmix(&mut rng) % u64::from(t.period_ticks)) as u32;
            let input_seed = splitmix(&mut rng);
            t.with_offset(offset).with_seed(input_seed)
        })
        .collect()
}

pub fn mission(seed: u64, ctx: &mut Ctx) -> Result<(Work, MissionDetail), String> {
    let tasks = task_set(seed);
    let config = GuestRtosConfig {
        tick_cycles: TICK_CYCLES,
        total_ticks: TOTAL_TICKS,
        can: None,
    };
    let GuestRtos {
        mut machine,
        layout,
    } = ctx
        .span("rtos.lower", |_| build_guest_rtos(&tasks, &config))
        .map_err(|e| format!("lowering: {e}"))?;
    let horizon = u64::from(TICK_CYCLES) * u64::from(TOTAL_TICKS) * 4 + 1_000_000;
    let result = ctx.span("sim.exec", |_| machine.run(horizon));
    ctx.count_insts(result.instructions);
    if result.reason != StopReason::MmioExit(layout.expected_exit) {
        return Err(format!("mission stopped with {:?}", result.reason));
    }
    let (stats, bounds) = ctx.span("rtos.analyse", |_| {
        let stats =
            ExecStats::from_machine(&machine, &layout).map_err(|e| format!("trace: {e}"))?;
        let bounds = stats
            .validate_bounds(&layout)
            .map_err(|e| format!("bounds: {e}"))?;
        Ok::<_, String>((stats, bounds))
    })?;
    for (t, b) in stats.tasks.iter().zip(&bounds) {
        if t.completions != t.activations || t.acc != t.expected_acc || b.margin < 0 {
            return Err(format!(
                "{}: {}/{} completions, acc {:#x} vs {:#x}, response {} vs bound {}",
                t.name, t.completions, t.activations, t.acc, t.expected_acc, b.executed, b.bound
            ));
        }
    }
    let mut work = Work::of_machine(&machine);
    work.cycles = result.cycles;
    work.preemptions = stats.tasks.iter().map(|t| u64::from(t.preemptions)).sum();
    work.signature = stats.trace_hash;
    let detail = MissionDetail {
        trace_hash: stats.trace_hash,
        worst_responses: bounds.iter().map(|b| b.executed).collect(),
        bounds: bounds.iter().map(|b| b.bound).collect(),
    };
    Ok((work, detail))
}

pub struct Rtos {
    ops: Vec<u64>,
}

impl Rtos {
    pub fn new(seed: u64) -> Rtos {
        Rtos { ops: ops(seed) }
    }
}

impl Workload for Rtos {
    fn len(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&self, i: usize, ctx: &mut Ctx) -> Result<Work, String> {
        mission(self.ops[i], ctx).map(|(w, _)| w)
    }

    fn warm_up(&self, ctx: &mut Ctx) -> Result<Work, String> {
        mission(0, ctx).map(|(w, _)| w)
    }

    fn describe(&self, i: usize) -> String {
        format!("recipe seed {:#x}", self.ops[i])
    }
}

/// Composed missions must reproduce `rtos_jitter_point` bit for bit:
/// trace hash, worst responses, bounds and preemptions.
pub fn cross_check() -> Result<(), String> {
    for seed in [0xA11A, 0xA121, 0xA128] {
        let (work, ours) = mission(seed, &mut Ctx::new(false, 0))?;
        let lib = rtos_jitter_point(seed).map_err(|e| e.to_string())?;
        if (
            ours.trace_hash,
            &ours.worst_responses,
            &ours.bounds,
            work.preemptions,
        ) != (
            lib.trace_hash,
            &lib.worst_responses,
            &lib.bounds,
            lib.preemptions,
        ) {
            return Err(format!(
                "rtos mission diverges from rtos_jitter_point({seed:#x})"
            ));
        }
    }
    Ok(())
}
