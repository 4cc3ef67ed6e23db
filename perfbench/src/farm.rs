//! `farm`: one op is one E12 forked run. Set-up builds the soft-error
//! and fault-sweep bases and warms the first to its fork point; each op
//! forks a base, applies a seeded flash bit flip or a seeded error
//! burst, runs to the grace horizon, classifies the outcome and (for
//! sweep runs) publishes and merges its metrics, all as E12 does, on
//! `min(2, nproc)` campaign workers.

use std::sync::Mutex;

use alia_core::experiments::{farm_experiment, gateway_checksum};
use alia_core::prelude::can::{ErrorState, FaultPlan};
use alia_core::prelude::obs::metrics::{Registry, Snapshot};
use alia_core::prelude::sim::{StopReason, System, SystemRunResult, SystemStop};

use crate::spans::Ctx;
use crate::topology::{assemble_and_build, forwards, wire, EDGE_CPB, PERIOD_CYCLES, SINK_NODE};
use crate::work::{mix, Rng, Work, Workload};

/// The E12 recipe's constants.
const FARM_FRAMES: u32 = 4;
const FORK_POINT_CYCLES: u64 = 3_000;
const FLIP_HORIZON_CYCLES: u64 = 200_000;
const FLIP_WINDOW: (u32, u32) = (0x100, 0x340);
const SWEEP_BURST_BASE: u64 = 2;
const SWEEP_BURST_SPAN: u64 = 280;
const SWEEP_WINDOW_BITS: u64 = 6_000;
const SWEEP_HORIZON: u64 = 50_000_000;
/// Flash words in the flip window.
const FLIP_WORDS: u64 = ((FLIP_WINDOW.1 - FLIP_WINDOW.0) / 4) as u64;
/// Soft-error runs per list: one per (node, flash word, byte of the
/// word) the E12 recipe can target.
const FLIPS: usize = 5 * FLIP_WORDS as usize * 4;
/// Fault-sweep runs per list: three per burst size the recipe can draw.
const SWEEPS_PER_COUNT: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmOp {
    Flip(u64),
    Sweep(u64),
}

/// E12's soft-error target for `key`: `(node, flash offset, bit)`.
fn flip_target(key: u64) -> (usize, u32, u32) {
    let h = mix(0xE12_0000_0000 ^ key);
    let off = FLIP_WINDOW.0 + 4 * ((h >> 8) % FLIP_WORDS) as u32;
    ((h % 5) as usize, off, ((h >> 24) % 32) as u32)
}

/// E12's fault-sweep burst for `key`: `(error count, burst seed)`.
fn sweep_burst(key: u64) -> (u64, u64) {
    let h = mix(0x5EED_0000_0000 ^ key);
    (SWEEP_BURST_BASE + h % SWEEP_BURST_SPAN, mix(h))
}

/// Draws seeded keys, keeping each only while its stratum has quota, so
/// every list covers the recipe's strata evenly and the outcome mix (and
/// with it the cost mix) barely moves between seeds.
fn stratified_keys(
    rng: &mut Rng,
    strata: usize,
    per_stratum: usize,
    stratum: impl Fn(u64) -> usize,
) -> Vec<u64> {
    let mut quota = vec![per_stratum; strata];
    let mut keys = Vec::with_capacity(strata * per_stratum);
    while keys.len() < strata * per_stratum {
        let key = rng.next();
        let q = &mut quota[stratum(key)];
        if *q > 0 {
            *q -= 1;
            keys.push(key);
        }
    }
    keys
}

/// The op list: seeded soft-error keys covering every (node, word, byte)
/// target once and seeded sweep keys covering every burst size
/// `SWEEPS_PER_COUNT` times, in a seeded order.
pub fn ops(seed: u64) -> Vec<FarmOp> {
    let mut rng = Rng::new(seed, 0xFA12);
    let flips = stratified_keys(&mut rng, FLIPS, 1, |key| {
        let (node, off, bit) = flip_target(key);
        (node * FLIP_WORDS as usize + ((off - FLIP_WINDOW.0) / 4) as usize) * 4 + bit as usize / 8
    });
    let sweeps = stratified_keys(
        &mut rng,
        SWEEP_BURST_SPAN as usize,
        SWEEPS_PER_COUNT,
        |key| (sweep_burst(key).0 - SWEEP_BURST_BASE) as usize,
    );
    let mut ops: Vec<FarmOp> = flips
        .into_iter()
        .map(FarmOp::Flip)
        .chain(sweeps.into_iter().map(FarmOp::Sweep))
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// A warm base and its counters at the fork point.
struct Base {
    system: System,
    work: Work,
}

impl Base {
    fn new(system: System) -> Base {
        let mut work = Work::of_nodes(&system);
        count_wires(&system, &mut work);
        Base { system, work }
    }

    /// The work a forked run did past the fork point.
    fn work_since(&self, sys: &System, run: &SystemRunResult) -> Work {
        let mut w = Work::of_nodes(sys);
        count_wires(sys, &mut w);
        Work {
            cycles: run.now - self.system.now(),
            quanta: run.quanta - self.system.quanta(),
            forks: 1,
            ..w.since(&self.work)
        }
    }
}

fn count_wires(sys: &System, w: &mut Work) {
    for wire in sys.wires() {
        w.deliveries += wire.deliveries_len() as u64;
        w.error_frames += wire.error_frames();
        for i in 0..wire.deliveries_len() {
            if let Some(d) = wire.delivery(i).filter(|d| d.is_data()) {
                w.data_frames += 1;
                w.attempts += u64::from(d.attempt) + 1;
            }
        }
    }
    w.dma_forwards = forwards(sys);
}

fn severity(state: ErrorState) -> u64 {
    match state {
        ErrorState::Active => 0,
        ErrorState::Passive => 1,
        ErrorState::BusOff => 2,
    }
}

pub struct Farm {
    ops: Vec<FarmOp>,
    flip_base: Base,
    sweep_base: Base,
    workers: usize,
    /// Every sweep run's metrics, merged as E12 merges them.
    merged: Mutex<Snapshot>,
}

/// Outcome codes, E12's order.
const MASKED: u64 = 0;
const CORRUPTED: u64 = 1;
const HUNG: u64 = 2;

impl Farm {
    /// Builds both bases and warms the soft-error base to its fork
    /// point.
    pub fn new(seed: u64, ctx: &mut Ctx) -> Result<Farm, String> {
        let mut flip = assemble_and_build(FARM_FRAMES, ctx)?;
        let r = ctx.span("sim.system_run", |_| flip.run(FORK_POINT_CYCLES));
        if r.reason != SystemStop::Horizon {
            return Err(format!(
                "soft-error base died before its fork point: {:?}",
                r.reason
            ));
        }
        let sweep = assemble_and_build(FARM_FRAMES, ctx)?;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        Ok(Farm {
            ops: ops(seed),
            flip_base: Base::new(flip),
            sweep_base: Base::new(sweep),
            workers,
            merged: Mutex::new(Snapshot::default()),
        })
    }

    /// One soft-error run: flip one seed-derived bit in one node's flash
    /// image mid-mission, run out the mission, classify.
    fn flip(&self, key: u64, ctx: &mut Ctx) -> Result<Work, String> {
        let (node, off, bit) = flip_target(key);
        let base = &self.flip_base.system;
        let mut sys = ctx.span("sim.fork", |_| base.fork());
        let m = sys.node_mut(node).machine_mut();
        let word = m.flash.peek(off, 4);
        m.load_flash(off, &(word ^ (1 << bit)).to_le_bytes());
        let run = ctx.span("sim.system_run", |_| sys.run(FLIP_HORIZON_CYCLES));
        let mut work = self.flip_base.work_since(&sys, &run);
        ctx.count_insts(work.instructions);
        if base.node(node).machine().flash.peek(off, 4) != word {
            return Err(format!(
                "flip at {off:#x} on node {node} leaked into the base"
            ));
        }
        work.signature = if run.reason != SystemStop::AllHalted {
            HUNG
        } else if sys.node(SINK_NODE).halted()
            == Some(StopReason::MmioExit(gateway_checksum(FARM_FRAMES)))
        {
            MASKED
        } else {
            CORRUPTED
        };
        Ok(work)
    }

    /// One fault-seed run: land a seed-derived error burst on the
    /// sensor wire, run the mission out, publish and merge its metrics.
    /// Signature: `(burst count << 8) | (band << 1) | mission completed`.
    fn sweep(&self, key: u64, ctx: &mut Ctx) -> Result<Work, String> {
        let (count, burst_seed) = sweep_burst(key);
        let base = &self.sweep_base.system;
        let mut sys = ctx.span("sim.fork", |_| base.fork());
        let sensor = wire(&sys, "sensor")?;
        let lo = PERIOD_CYCLES / EDGE_CPB + 100;
        let mut plan = FaultPlan::new();
        plan.add_error_burst(burst_seed, lo, lo + SWEEP_WINDOW_BITS, count as usize);
        sensor.set_fault_plan(plan);
        let run = ctx.span("sim.system_run", |_| sys.run(SWEEP_HORIZON));
        let mut work = self.sweep_base.work_since(&sys, &run);
        ctx.count_insts(work.instructions);
        let completed = run.reason == SystemStop::AllHalted
            && sys.node(SINK_NODE).halted()
                == Some(StopReason::MmioExit(gateway_checksum(FARM_FRAMES)));
        let worst = [sensor.error_state(0), sensor.error_state(1)]
            .into_iter()
            .max_by_key(|&s| severity(s))
            .unwrap_or_default();
        if !completed && worst != ErrorState::BusOff {
            return Err(format!("mission lost frames without a bus-off ({worst:?})"));
        }
        let snap = ctx.span("obs.metrics", |_| {
            let mut reg = Registry::default();
            sys.publish_metrics(&mut reg);
            let snap = reg.snapshot();
            self.merged
                .lock()
                .expect("no worker panics holding the merge lock")
                .merge(&snap);
            snap
        });
        if snap.counter("wire.sensor.error_frames") != Some(sensor.error_frames()) {
            return Err("metrics registry disagrees with the wire's error-frame count".into());
        }
        work.signature = (count << 8) | (severity(worst) << 1) | u64::from(completed);
        Ok(work)
    }

    fn run(&self, op: FarmOp, ctx: &mut Ctx) -> Result<Work, String> {
        match op {
            FarmOp::Flip(key) => self.flip(key, ctx),
            FarmOp::Sweep(key) => self.sweep(key, ctx),
        }
    }
}

impl Workload for Farm {
    fn len(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&self, i: usize, ctx: &mut Ctx) -> Result<Work, String> {
        self.run(self.ops[i], ctx)
    }

    fn warm_up(&self, ctx: &mut Ctx) -> Result<Work, String> {
        self.flip(0, ctx)
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn describe(&self, i: usize) -> String {
        format!("{:?}", self.ops[i])
    }
}

/// Soft-error and fault-sweep runs over E12's key sets.
const CHECK_FLIPS: u64 = 48;
const CHECK_SWEEPS: u64 = 16;

/// Composed runs over E12's key set must reproduce `farm_experiment`:
/// outcome counts, incidence bands and the merged metrics snapshot.
pub fn cross_check() -> Result<(), String> {
    let ctx = &mut Ctx::new(false, 0);
    let farm = Farm::new(0, ctx)?;
    let mut flips = [0u32; 3];
    for key in 0..CHECK_FLIPS {
        flips[farm.flip(key, ctx)?.signature as usize] += 1;
    }
    let mut incidence = [0u32; 3];
    for key in 0..CHECK_SWEEPS {
        incidence[((farm.sweep(key, ctx)?.signature >> 1) & 3) as usize] += 1;
    }
    let e12 =
        farm_experiment(CHECK_FLIPS as u32, CHECK_SWEEPS as u32, 1).map_err(|e| e.to_string())?;
    let lib_flips = [e12.flip.masked, e12.flip.corrupted, e12.flip.hung];
    if flips != lib_flips || incidence != e12.incidence {
        return Err(format!(
            "E12 diverges: flips {flips:?} vs {lib_flips:?}, incidence {incidence:?} vs {:?}",
            e12.incidence
        ));
    }
    if *farm.merged.lock().expect("single-threaded here") != e12.metrics {
        return Err("E12 merged metrics snapshot diverges".into());
    }
    Ok(())
}
