//! `can_missions`: one op is one executed mission on the E10 gateway
//! topology — assembled, built, run to completion and checked against
//! the sink's closed-form checksum and every wire's hop-composed RTA
//! bound (error-extended on the sensor wire under an E11 burst).

use alia_core::experiments::{
    error_burst_experiment_with, gateway_checksum, gateway_experiment_with,
};
use alia_core::prelude::can::{Delivery, FaultPlan};
use alia_core::prelude::sim::{StopReason, SystemConfig, SystemStop};

use crate::spans::Ctx;
use crate::topology::{self, assemble_and_build, wire, EDGE_CPB, PERIOD_CYCLES, SINK_NODE};
use crate::work::{Rng, Work, Workload};

/// Bit errors per burst, as in E11.
const BURST_ERRORS: usize = 6;
/// Burst window, sensor periods: E11's window at 8 frames, so every
/// burst has E11's error density.
const BURST_PERIODS: u64 = 4;
/// Missions per list: a quarter long, a third with a burst.
const LIST_LEN: usize = 48;
const SHORT_FRAMES: (u64, u64) = (3, 6);
const LONG_FRAMES: (u64, u64) = (56, 73);
/// Horizon for one mission, cycles (E10's).
const HORIZON: u64 = 50_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    pub seed: u64,
    /// Sensor periods between the first release and the window.
    pub offset: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissionOp {
    pub frames: u32,
    pub burst: Option<Burst>,
}

/// The op list: `LIST_LEN` missions, a quarter long. Frame counts are
/// drawn stratified over each length class; a third of each class
/// carries a burst with a seeded seed and offset; the list runs in a
/// seeded order.
pub fn ops(seed: u64) -> Vec<MissionOp> {
    let mut rng = Rng::new(seed, 0xCA4E);
    let long = LIST_LEN / 4;
    let mut frames = rng.stratified(SHORT_FRAMES.0, SHORT_FRAMES.1, LIST_LEN - long);
    frames.extend(rng.stratified(LONG_FRAMES.0, LONG_FRAMES.1, long));
    let mut ops: Vec<MissionOp> = frames
        .into_iter()
        .enumerate()
        .map(|(i, frames)| {
            let burst = (i % 3 == 0).then(|| Burst {
                seed: rng.next(),
                offset: rng.range(0, frames / 2 + 1),
            });
            MissionOp {
                frames: frames as u32,
                burst,
            }
        })
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// What the fidelity cross-checks compare beyond the work counters.
pub struct MissionDetail {
    pub node_cycles: Vec<u64>,
    /// Per-wire delivery logs, topology order.
    pub logs: Vec<Vec<Delivery>>,
    /// Sensor-wire bound per sensor stream, bit times.
    pub sensor_bounds: Vec<u64>,
    pub injections: (u64, u64),
}

/// Runs one mission under `ctx` and checks it.
pub fn mission(op: &MissionOp, ctx: &mut Ctx) -> Result<(Work, MissionDetail), String> {
    let mut system = assemble_and_build(op.frames, ctx)?;
    let sensor = wire(&system, "sensor")?;
    if let Some(b) = op.burst {
        let period_bits = PERIOD_CYCLES / EDGE_CPB;
        let lo = (1 + b.offset) * period_bits + 100;
        let mut plan = FaultPlan::new();
        plan.add_error_burst(b.seed, lo, lo + BURST_PERIODS * period_bits, BURST_ERRORS);
        sensor.set_fault_plan(plan);
    }
    let run = ctx.span("sim.system_run", |_| system.run(HORIZON));
    let mut work = Work::of_nodes(&system);
    ctx.count_insts(work.instructions);
    if run.reason != SystemStop::AllHalted {
        return Err(format!("hit the horizon at {} cycles", run.now));
    }
    let checksum = match system.node(SINK_NODE).halted() {
        Some(StopReason::MmioExit(c)) => c,
        other => return Err(format!("sink stopped with {other:?}")),
    };
    if checksum != gateway_checksum(op.frames) {
        return Err(format!(
            "sink checksum {checksum:#x} != {:#x}",
            gateway_checksum(op.frames)
        ));
    }
    system.settle_wires();

    let oracle = ctx.span("can.rta", |_| topology::oracle(sensor.error_frames()));
    let mut logs = Vec::new();
    for (name, streams, bounds) in &oracle.wires {
        let w = wire(&system, name)?;
        for (id, worst) in w.worst_latencies() {
            let bound = streams
                .iter()
                .position(|m| m.id == id.raw())
                .map(|i| bounds[i]);
            // An id with no analytic stream fails closed.
            if bound.is_none_or(|b| worst > b) {
                return Err(format!(
                    "{name} wire: id {:#x} worst {worst} bits exceeds bound {bound:?}",
                    id.raw()
                ));
            }
        }
        let log = w.delivery_log();
        work.deliveries += log.len() as u64;
        work.error_frames += w.error_frames();
        for d in log.iter().filter(|d| d.is_data()) {
            work.data_frames += 1;
            work.attempts += u64::from(d.attempt) + 1;
        }
        logs.push(log);
    }
    work.cycles = run.now;
    work.quanta = run.quanta;
    work.dma_forwards = topology::forwards(&system);
    work.signature = u64::from(checksum);
    let detail = MissionDetail {
        node_cycles: system.nodes().iter().map(|n| n.cycles()).collect(),
        logs,
        sensor_bounds: oracle.wires[0].2.clone(),
        injections: (sensor.injections_consumed(), sensor.injections_expired()),
    };
    Ok((work, detail))
}

pub struct Missions {
    ops: Vec<MissionOp>,
}

impl Missions {
    pub fn new(seed: u64) -> Missions {
        Missions { ops: ops(seed) }
    }
}

impl Workload for Missions {
    fn len(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&self, i: usize, ctx: &mut Ctx) -> Result<Work, String> {
        mission(&self.ops[i], ctx).map(|(w, _)| w)
    }

    fn warm_up(&self, ctx: &mut Ctx) -> Result<Work, String> {
        mission(
            &MissionOp {
                frames: 16,
                burst: None,
            },
            ctx,
        )
        .map(|(w, _)| w)
    }

    fn describe(&self, i: usize) -> String {
        format!("{:?}", self.ops[i])
    }
}

/// Composed missions must reproduce E10 and E11 bit for bit at their
/// default parameters.
pub fn cross_check() -> Result<(), String> {
    let ctx = &mut Ctx::new(false, 0);
    let (work, ours) = mission(
        &MissionOp {
            frames: 16,
            burst: None,
        },
        ctx,
    )?;
    let e10 = gateway_experiment_with(16, SystemConfig::default()).map_err(|e| e.to_string())?;
    let logs: Vec<Vec<(u32, u64)>> = ours
        .logs
        .iter()
        .zip([EDGE_CPB, topology::BACKBONE_CPB, EDGE_CPB])
        .map(|(log, cpb)| {
            log.iter()
                .map(|d| (d.frame.id.raw(), d.completed_at * cpb))
                .collect()
        })
        .collect();
    if (work.signature, &ours.node_cycles, work.quanta, &logs)
        != (
            u64::from(e10.checksum),
            &e10.node_cycles,
            e10.quanta,
            &e10.delivery_logs,
        )
    {
        return Err("E10 mission diverges from gateway_experiment_with(16)".into());
    }

    let (_, ours) = mission(
        &MissionOp {
            frames: 8,
            burst: Some(Burst {
                seed: 11,
                offset: 0,
            }),
        },
        ctx,
    )?;
    let e11 =
        error_burst_experiment_with(8, 11, SystemConfig::default()).map_err(|e| e.to_string())?;
    let sensor_log: Vec<(u32, u64, u32, bool)> = ours.logs[0]
        .iter()
        .map(|d| (d.frame.id.raw(), d.completed_at, d.attempt, d.is_data()))
        .collect();
    let bounds: Vec<u64> = e11.extended.iter().map(|r| r.bound).collect();
    // `mission` has already checked our sink checksum against the closed form.
    if !e11.checksum_ok
        || sensor_log != e11.sensor_log
        || ours.injections != (e11.consumed, e11.expired)
        || ours.sensor_bounds != bounds
    {
        return Err("E11 burst mission diverges from error_burst_experiment_with(8, 11)".into());
    }
    Ok(())
}
