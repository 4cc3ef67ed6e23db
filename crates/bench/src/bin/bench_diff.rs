//! CI regression gate: diffs the freshly generated `BENCH_10.json`
//! against the committed `BENCH_9.json` baseline and fails on a >20%
//! regression of any shared performance key.
//!
//! ```text
//! cargo run -p alia-bench --bin bench_diff
//! ```
//!
//! Direction is inferred from the key name: `*_ms` keys are
//! lower-is-better (a run got slower); `*_mips`, `*_speedup` and
//! `*_runs_per_sec*` keys are higher-is-better (throughput dropped).
//! Other shared keys (headline facts like error-frame counts) are
//! reported but never gate — the experiments assert those exactly.

use alia_bench::{load_bench_json, BENCH_BASELINE_JSON, BENCH_JSON};

/// Tolerated slowdown before the diff fails (20%).
const TOLERANCE: f64 = 0.20;

/// Tolerance for derived `*_speedup` ratios. A speedup divides two
/// independently measured single-shot timings, so its relative
/// variance is roughly the sum of its components'; the components are
/// each gated at [`TOLERANCE`], and the ratio gets double headroom.
const RATIO_TOLERANCE: f64 = 0.40;

/// Gate direction of one metric, inferred from its key.
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    Informational,
}

fn direction(key: &str) -> Direction {
    if key.ends_with("_ms") {
        Direction::LowerIsBetter
    } else if key.ends_with("_mips") || key.contains("speedup") || key.contains("_runs_per_sec") {
        Direction::HigherIsBetter
    } else {
        Direction::Informational
    }
}

fn main() {
    let baseline = load_bench_json(BENCH_BASELINE_JSON);
    let fresh = load_bench_json(BENCH_JSON);
    if fresh.is_empty() {
        eprintln!("bench_diff: {BENCH_JSON} missing or empty — run the bench smokes first");
        std::process::exit(1);
    }

    let mut regressions = 0u32;
    println!("{:<44} {:>12} {:>12} {:>8}", "key", "baseline", "fresh", "delta");
    for (key, &new) in &fresh {
        let Some(&old) = baseline.get(key) else {
            println!("{key:<44} {:>12} {new:>12.4} {:>8}", "-", "new");
            continue;
        };
        let delta = if old.abs() > f64::EPSILON { (new - old) / old * 100.0 } else { 0.0 };
        let tol = if key.contains("speedup") { RATIO_TOLERANCE } else { TOLERANCE };
        let verdict = match direction(key) {
            Direction::LowerIsBetter if new > old * (1.0 + tol) => "REGRESSED",
            Direction::HigherIsBetter if new < old * (1.0 - tol) => "REGRESSED",
            Direction::Informational => "info",
            _ => "ok",
        };
        if verdict == "REGRESSED" {
            regressions += 1;
        }
        println!("{key:<44} {old:>12.4} {new:>12.4} {delta:>+7.1}% {verdict}");
    }
    for key in baseline.keys().filter(|k| !fresh.contains_key(*k)) {
        println!("{key:<44} {:>12} {:>12} {:>8}", "-", "-", "dropped");
    }

    if regressions > 0 {
        eprintln!("\nbench_diff: {regressions} key(s) regressed beyond tolerance");
        std::process::exit(1);
    }
    println!("\nbench_diff: no key regressed beyond tolerance");
}
