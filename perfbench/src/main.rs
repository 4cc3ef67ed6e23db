//! Mission benchmark for the simulator stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels|can_missions|farm|rtos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a seeded op list run in a closed loop (the next op
//! starts when the last completes; `farm` runs `min(2, nproc)` campaign
//! workers) for `--seconds`. Every op's output is checked, panics are
//! caught and counted as failures, each op's exact work counters must
//! repeat whenever the op repeats, and the composed ops are cross-checked
//! against the library's own experiment entry points. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and, with `--trace 0`, the end-to-end metrics or, with `--trace 1`,
//! the per-layer metrics from host-time spans recorded around each call
//! into a layer. See `perfbench/README.md` for the metric map.

mod calib;
mod can;
mod farm;
mod kernels;
mod rtos;
mod spans;
mod topology;
mod work;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use alia_core::campaign::run_campaign;

use calib::{Probe, Reference};
use spans::{Ctx, SpanLog, NO_OP};
use work::{Work, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Fewest timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 10;
/// Failure messages echoed to standard error.
const FAILURES_SHOWN: usize = 5;

const WORKLOADS: [&str; 4] = ["kernels", "can_missions", "farm", "rtos"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Generates the op list and builds any shared state, then runs the
/// fixed warm-up op.
fn setup(workload: &str, seed: u64, ctx: &mut Ctx) -> Result<Box<dyn Workload>, String> {
    let w: Box<dyn Workload> = match workload {
        "kernels" => Box::new(kernels::Kernels::new(seed)),
        "can_missions" => Box::new(can::Missions::new(seed)),
        "farm" => Box::new(farm::Farm::new(seed, ctx)?),
        _ => Box::new(rtos::Rtos::new(seed)),
    };
    w.warm_up(ctx).map_err(|e| format!("warm-up op: {e}"))?;
    Ok(w)
}

/// The host-speed reference each workload's times are scaled by (see
/// `calib`).
fn reference(workload: &str) -> Reference {
    match workload {
        "kernels" => Reference::HotLoop,
        "farm" => Reference::Scatter,
        _ => Reference::Loops,
    }
}

fn cross_check(workload: &str) -> Result<(), String> {
    match workload {
        "kernels" => kernels::cross_check(),
        "can_missions" => can::cross_check(),
        "farm" => farm::cross_check(),
        _ => rtos::cross_check(),
    }
}

/// One op's outcome as the run loop sees it.
struct OpRun {
    index: usize,
    nanos: u64,
    result: Result<Work, String>,
    spans: Vec<spans::Span>,
}

fn run_one(w: &dyn Workload, index: usize, seq: u64, trace: bool) -> OpRun {
    let mut ctx = Ctx::new(trace, seq as u32);
    let t0 = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        ctx.span("op", |ctx| w.run_op(index, ctx))
    }));
    let nanos = t0.elapsed().as_nanos() as u64;
    let result = caught.unwrap_or_else(|payload| {
        ctx.spans.clear();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    });
    OpRun {
        index,
        nanos,
        result,
        spans: ctx.spans,
    }
}

/// One pass over the op list, as end-to-end figures scaled to the
/// reference host (see `calib`).
struct Pass {
    ops_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    mips: f64,
    mcycles_per_s: f64,
    /// Host time over reference-host time for this pass.
    slowdown: f64,
}

/// What a stretch of passes did.
#[derive(Default)]
struct Tally {
    ok: u64,
    failed: u64,
    wall_ns: u64,
    busy_ns: u64,
    work: Work,
    passes: Vec<Pass>,
    spans: SpanLog,
    failures: Vec<String>,
}

/// The run's view of the op list: each op's work on its first run, so
/// every repeat can be checked against it.
struct Runner<'a> {
    w: &'a dyn Workload,
    first: Vec<Option<Work>>,
    next: u64,
}

impl<'a> Runner<'a> {
    fn new(w: &'a dyn Workload) -> Runner<'a> {
        Runner {
            w,
            first: vec![None; w.len()],
            next: 0,
        }
    }

    /// Runs the listed ops on the campaign pool and books them; returns
    /// the wall time and the latencies of the ops that passed.
    fn run_batch(&mut self, indices: &[usize], trace: bool, tally: &mut Tally) -> (u64, Vec<u64>) {
        let w = self.w;
        let keys: Vec<(usize, u64)> = indices
            .iter()
            .enumerate()
            .map(|(k, &i)| (i, self.next + k as u64))
            .collect();
        self.next += indices.len() as u64;
        let t0 = Instant::now();
        let runs = run_campaign(&keys, w.workers(), |&(i, seq)| run_one(w, i, seq, trace));
        let wall_ns = t0.elapsed().as_nanos() as u64;
        tally.wall_ns += wall_ns;
        let latencies = runs
            .into_iter()
            .filter_map(|run| self.book(run, tally))
            .collect();
        (wall_ns, latencies)
    }

    /// Books one op; returns its latency when it passed.
    fn book(&mut self, run: OpRun, tally: &mut Tally) -> Option<u64> {
        tally.busy_ns += run.nanos;
        tally.spans.append(run.spans);
        let first = &mut self.first[run.index];
        let result = run.result.and_then(|work| match first {
            Some(prev) if *prev != work => Err(format!(
                "work counters changed on repeat: {work:?} vs first {prev:?}"
            )),
            _ => {
                *first = Some(work);
                Ok(work)
            }
        });
        match result {
            Ok(work) => {
                tally.ok += 1;
                tally.work.add(&work);
                Some(run.nanos)
            }
            Err(e) => {
                tally.failed += 1;
                if tally.failures.len() < FAILURES_SHOWN {
                    let op = self.w.describe(run.index);
                    tally.failures.push(format!("op {} ({op}): {e}", run.index));
                }
                None
            }
        }
    }

    /// One pass over the whole op list, in list order, between two
    /// reference probes. Every pass runs the same ops, so passes compare
    /// like for like.
    fn pass(&mut self, probe: &mut Probe, trace: bool, tally: &mut Tally) {
        let before = tally.work;
        let indices: Vec<usize> = (0..self.w.len()).collect();
        let p0 = probe.time_ns();
        let (wall_ns, mut lat) = self.run_batch(&indices, trace, tally);
        let p1 = probe.time_ns();
        let scale = probe.scale(p0, p1);
        lat.sort_unstable();
        let secs = wall_ns as f64 / 1e9 * scale;
        let ms = |q| {
            if lat.is_empty() {
                0.0
            } else {
                percentile(&lat, q) as f64 / 1e6 * scale
            }
        };
        tally.passes.push(Pass {
            ops_per_s: lat.len() as f64 / secs,
            p50_ms: ms(0.5),
            p90_ms: ms(0.9),
            mips: (tally.work.instructions - before.instructions) as f64 / secs / 1e6,
            mcycles_per_s: (tally.work.cycles - before.cycles) as f64 / secs / 1e6,
            slowdown: 1.0 / scale,
        });
    }

    /// Repeats the first op, so at least one repeat is always checked
    /// however few passes ran.
    fn repeat(&mut self) -> Tally {
        let mut tally = Tally::default();
        self.run_batch(&[0], false, &mut tally);
        tally
    }

    /// Sum of every list op's first-run counters.
    fn list_work(&self) -> Work {
        let mut total = Work::default();
        for w in self.first.iter().flatten() {
            total.add(w);
        }
        total
    }
}

/// Median of `v` (the mean of the middle two for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `(name, unit, value)` rows in output order.
type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Median over `t`'s passes of one per-pass figure.
fn pass_median(t: &Tally, f: impl Fn(&Pass) -> f64) -> f64 {
    median(t.passes.iter().map(f).collect())
}

/// End-to-end metrics: each rate and percentile is taken per whole pass
/// over the op list, scaled to the reference host, and the median over
/// passes is reported.
fn end_to_end(t: &Tally, setup_s: f64, rss_mb: f64) -> Metrics {
    vec![
        ("ops_per_s", "1/s", pass_median(t, |p| p.ops_per_s)),
        ("op_p50_ms", "ms", pass_median(t, |p| p.p50_ms)),
        ("op_p90_ms", "ms", pass_median(t, |p| p.p90_ms)),
        ("guest_mips", "MIPS", pass_median(t, |p| p.mips)),
        (
            "sim_mcycles_per_s",
            "Mcycles/s",
            pass_median(t, |p| p.mcycles_per_s),
        ),
        ("setup_s", "s", setup_s),
        ("peak_rss_mb", "MiB", rss_mb),
    ]
}

/// Per-layer metrics: host self time per op from the traced stretch,
/// exact per-op counts from the op list, campaign idle share from the
/// untraced stretch.
fn per_layer(
    traced: &Tally,
    untraced: &Tally,
    list: &Work,
    list_len: usize,
    workers: usize,
) -> Metrics {
    let layers = traced.spans.layers();
    let ops = traced.ok + traced.failed;
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let us = |name: &str| ratio(layer(name).self_ns, ops) / 1e3;
    let n = list_len as u64;
    let per_op = |v: u64| ratio(v, n);
    let pct = |v: u64| 100.0 * ratio(v, list.instructions);
    let tier1 = list.instructions - list.tier2_instrs - list.tier3_instrs;
    let exec = layer("sim.exec");
    let ops_per_s = |t: &Tally| pass_median(t, |p| p.ops_per_s);
    let idle = 1.0 - ratio(untraced.busy_ns, untraced.wall_ns * workers as u64);
    vec![
        ("codegen.compile_us", "us", us("codegen.compile")),
        ("tir.interp_us", "us", us("tir.interp")),
        ("isa.assemble_us", "us", us("isa.assemble")),
        ("sim.build_us", "us", us("sim.build")),
        ("sim.exec_us", "us", us("sim.exec")),
        (
            "sim.exec_mips",
            "MIPS",
            ratio(exec.insts * 1_000, exec.total_ns),
        ),
        ("sim.system_run_us", "us", us("sim.system_run")),
        (
            "sim.ns_per_quantum",
            "ns",
            ratio(layer("sim.system_run").total_ns, traced.work.quanta),
        ),
        ("sim.fork_us", "us", us("sim.fork")),
        ("can.rta_us", "us", us("can.rta")),
        ("obs.metrics_us", "us", us("obs.metrics")),
        ("rtos.lower_us", "us", us("rtos.lower")),
        ("rtos.analyse_us", "us", us("rtos.analyse")),
        ("core.campaign_idle_pct", "%", 100.0 * idle),
        (
            "trace.overhead_pct",
            "%",
            100.0 * (1.0 - ops_per_s(traced) / ops_per_s(untraced)),
        ),
        ("sim.tier1_pct", "%", pct(tier1)),
        ("sim.tier2_pct", "%", pct(list.tier2_instrs)),
        ("sim.tier3_pct", "%", pct(list.tier3_instrs)),
        ("sim.blocks_promoted", "count", per_op(list.blocks_promoted)),
        ("sim.demotions", "count", per_op(list.demotions)),
        ("sim.budget_splits", "count", per_op(list.budget_splits)),
        (
            "sim.instructions_per_op",
            "count",
            per_op(list.instructions),
        ),
        ("sim.cycles_per_op", "count", per_op(list.cycles)),
        ("sim.quanta_per_op", "count", per_op(list.quanta)),
        ("can.deliveries_per_op", "count", per_op(list.deliveries)),
        (
            "can.error_frames_per_op",
            "count",
            per_op(list.error_frames),
        ),
        (
            "can.attempts_per_frame",
            "ratio",
            ratio(list.attempts, list.data_frames),
        ),
        (
            "sim.dma_forwards_per_op",
            "count",
            per_op(list.dma_forwards),
        ),
        ("rtos.preemptions_per_op", "count", per_op(list.preemptions)),
    ]
}

/// The per-layer host-time table for standard error.
fn layer_table(title: &str, log: &SpanLog, ops: u64) {
    let layers = log.layers();
    let root_ns = log.root_ns().max(1);
    eprintln!("{title}");
    eprintln!(
        "  {:<18} {:>12} {:>12} {:>10} {:>8}",
        "span", "self us/op", "total us/op", "calls/op", "self %"
    );
    for (name, l) in &layers {
        eprintln!(
            "  {:<18} {:>12.3} {:>12.3} {:>10.3} {:>7.1}%",
            name,
            ratio(l.self_ns, ops) / 1e3,
            ratio(l.total_ns, ops) / 1e3,
            ratio(l.count, ops),
            100.0 * ratio(l.self_ns, root_ns),
        );
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            // JSON has no NaN or infinity (a run whose every op failed).
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Op panics are caught and counted; their messages go to the report.
    std::panic::set_hook(Box::new(|_| {}));

    let mut probe = Probe::new(reference(args.workload));
    // The measured workload's set-up, traced in a traced run.
    let (secs, w, setup_log) = match timed_setup(&args, args.trace, &mut probe) {
        Ok(done) => done,
        Err(e) => return fail_setup(&e),
    };
    let mut setup_secs = vec![secs];

    let mut runner = Runner::new(w.as_ref());
    let total = Duration::from_secs_f64(args.seconds);
    let mut untraced = Tally::default();
    // Whole passes until the time is up. A traced run alternates
    // untraced and traced passes, so host drift lands on both sides of
    // the tracing-overhead comparison alike.
    let mut traced = args.trace.then(Tally::default);
    let start = Instant::now();
    while start.elapsed() < total || setup_secs.len() < SETUP_REPS {
        if start.elapsed() < total {
            runner.pass(&mut probe, false, &mut untraced);
            if let Some(t) = traced.as_mut() {
                runner.pass(&mut probe, true, t);
            }
        }
        // Set-up is timed again after every pass (and its workload
        // dropped), so its samples span the run's host phases like the
        // passes do.
        match timed_setup(&args, false, &mut probe) {
            Ok((secs, ..)) => setup_secs.push(secs),
            Err(e) => return fail_setup(&e),
        }
    }
    let setup_s = median(setup_secs);
    let rss_mb = peak_rss_mb();
    let extra = runner.repeat();
    let fidelity = cross_check(args.workload);
    let list = runner.list_work();

    let mut all = vec![&untraced, &extra];
    all.extend(traced.as_ref());
    let attempted: u64 = all.iter().map(|t| t.ok + t.failed).sum();
    let failed: u64 = all.iter().map(|t| t.failed).sum();
    let correct = failed == 0 && fidelity.is_ok() && attempted > 0;

    eprintln!(
        "perfbench {} seed {}: {attempted} ops attempted, {failed} failed ({:.3}% failed), \
         fidelity cross-check {}",
        args.workload,
        args.seed,
        100.0 * ratio(failed, attempted),
        fidelity
            .as_ref()
            .map_or_else(|e| format!("FAILED: {e}"), |()| "ok".into())
    );
    for f in all.iter().flat_map(|t| &t.failures).take(FAILURES_SHOWN) {
        eprintln!("  failure: {f}");
    }
    let firsts: Vec<Work> = runner.first.iter().flatten().copied().collect();
    eprintln!(
        "  exact work over the {}-op list (digest {:#018x}): {list:?}",
        firsts.len(),
        Work::digest(&firsts)
    );

    let metrics = match &traced {
        None => end_to_end(&untraced, setup_s, rss_mb),
        Some(traced) => {
            let ops = traced.ok + traced.failed;
            layer_table(
                &format!("per-layer host time, traced stretch ({ops} ops)"),
                &traced.spans,
                ops,
            );
            layer_table("per-layer host time, set-up", &setup_log, 1);
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("{}.spans.csv", args.workload));
            if let Err(e) = traced.spans.write_csv(&path) {
                eprintln!("  could not write spans to {}: {e}", path.display());
            }
            per_layer(traced, &untraced, &list, w.len(), w.workers())
        }
    };
    let slowdowns: Vec<f64> = untraced.passes.iter().map(|p| p.slowdown).collect();
    eprintln!(
        "  host slowdown against the reference host: median {:.3}, range {:.3}..{:.3}; \
         unscaled median ops_per_s {:.4}",
        median(slowdowns.clone()),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        pass_median(&untraced, |p| p.ops_per_s / p.slowdown),
    );
    for (name, unit, v) in &metrics {
        let samples = if name.starts_with("op_p") {
            format!(
                "  (median of {} passes, {} ops)",
                untraced.passes.len(),
                untraced.ok
            )
        } else {
            String::new()
        };
        eprintln!("  {name:<24} {v:>14.4} {unit}{samples}");
    }
    println!("{}", json(correct, attempted, failed, &metrics));
}

/// One set-up between two reference probes: its seconds scaled to the
/// reference host, the prepared workload and its spans.
fn timed_setup(
    args: &Args,
    trace: bool,
    probe: &mut Probe,
) -> Result<(f64, Box<dyn Workload>, SpanLog), String> {
    let mut ctx = Ctx::new(trace, NO_OP);
    let p0 = probe.time_ns();
    let t0 = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        ctx.span("setup", |ctx| setup(args.workload, args.seed, ctx))
    }));
    let secs = t0.elapsed().as_secs_f64();
    let p1 = probe.time_ns();
    let secs = secs * probe.scale(p0, p1);
    let w = built.map_err(|_| "set-up panicked".to_string())??;
    let mut log = SpanLog::default();
    log.append(ctx.spans);
    Ok((secs, w, log))
}

fn fail_setup(e: &str) {
    eprintln!("perfbench: set-up failed: {e}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_are_pure_functions_of_the_seed() {
        assert_eq!(kernels::ops(5), kernels::ops(5));
        assert_ne!(kernels::ops(5), kernels::ops(6));
        assert_eq!(can::ops(5), can::ops(5));
        assert_ne!(can::ops(5), can::ops(6));
        assert_eq!(farm::ops(5), farm::ops(5));
        assert_ne!(farm::ops(5), farm::ops(6));
        assert_eq!(rtos::ops(5), rtos::ops(5));
        assert_ne!(rtos::ops(5), rtos::ops(6));
    }

    #[test]
    fn op_lists_keep_their_strata_across_seeds() {
        for seed in [1, 2, 3] {
            let long = kernels::ops(seed).iter().filter(|o| o.elems > 70).count();
            assert_eq!(long, kernels::ops(seed).len() / 4, "seed {seed}");
            let bursts = can::ops(seed).iter().filter(|o| o.burst.is_some()).count();
            assert_eq!(bursts, can::ops(seed).len() / 3, "seed {seed}");
            let sweeps = farm::ops(seed)
                .iter()
                .filter(|o| matches!(o, farm::FarmOp::Sweep(_)))
                .count();
            assert_eq!(sweeps, 3 * 280, "seed {seed}");
        }
    }

    #[test]
    fn work_counters_repeat_exactly() {
        for workload in WORKLOADS {
            let w = setup(workload, 3, &mut Ctx::new(false, NO_OP)).expect("set-up");
            let again = setup(workload, 3, &mut Ctx::new(false, NO_OP)).expect("set-up");
            for i in 0..3 {
                let a = w.run_op(i, &mut Ctx::new(false, 0)).expect("op runs");
                let b = again.run_op(i, &mut Ctx::new(true, 0)).expect("op runs");
                assert_eq!(a, b, "{workload} op {i}");
            }
        }
    }

    #[test]
    fn composed_ops_match_the_library() {
        for workload in WORKLOADS {
            cross_check(workload).unwrap_or_else(|e| panic!("{workload}: {e}"));
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json(true, 3, 0, &vec![("ops_per_s", "1/s", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"ops_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}"
        );
    }
}
