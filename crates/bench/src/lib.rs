//! # alia-bench — the table/figure regeneration harness
//!
//! Each binary regenerates one table or figure of the paper (see the
//! experiment table in [`alia_core::experiments`]) and prints the
//! measured rows next to the paper's reported values. The Criterion benches in `benches/` measure
//! the same experiments for host-side performance tracking.
//!
//! ```text
//! cargo run -p alia-bench --bin table1
//! cargo run -p alia-bench --bin fig2_mpu
//! cargo run -p alia-bench --bin fig4_interrupt
//! cargo run -p alia-bench --bin fig5_bitband
//! cargo run -p alia-bench --bin flash_literal
//! cargo run -p alia-bench --bin ldm_latency
//! cargo run -p alia-bench --bin soft_error
//! cargo run -p alia-bench --bin virtual_multicore
//! cargo run -p alia-bench --bin flash_patch
//! cargo run -p alia-bench --bin bench_diff
//! ```

use std::collections::BTreeMap;
use std::fs;

/// Prints a standard harness header.
pub fn header(experiment: &str, paper_ref: &str) {
    println!("=== {experiment} — reproducing {paper_ref} ===");
}

/// The machine-readable bench summary at the repository root. Flat,
/// line-oriented JSON — one `"section.metric": value` pair per line —
/// so CI can display and diff it without a JSON parser.
pub const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");

/// The previous PR's committed summary — the baseline the `bench_diff`
/// binary compares a fresh [`BENCH_JSON`] against.
pub const BENCH_BASELINE_JSON: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json");

/// Loads a flat bench summary from `path`, or an empty map when the
/// file is missing or unreadable.
#[must_use]
pub fn load_bench_json(path: &str) -> BTreeMap<String, f64> {
    fs::read_to_string(path).map(|t| parse_flat_json(&t)).unwrap_or_default()
}

/// Parses the flat JSON produced by [`record_bench_json`] (own format
/// only: one `"key": number` pair per line).
fn parse_flat_json(text: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else { continue };
        let key = key.trim().trim_matches('"');
        if key.is_empty() {
            continue;
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            map.insert(key.to_string(), v);
        }
    }
    map
}

/// Records `metrics` under `section` in [`BENCH_JSON`], merging with
/// whatever other sections are already there (each bench rewrites only
/// its own keys, so `sim_throughput` and `network` runs compose into
/// one file). Errors are printed, not propagated — a read-only
/// checkout must not fail a bench run.
pub fn record_bench_json(section: &str, metrics: &[(&str, f64)]) {
    let mut map = fs::read_to_string(BENCH_JSON)
        .map(|t| parse_flat_json(&t))
        .unwrap_or_default();
    map.retain(|k, _| !k.starts_with(&format!("{section}.")));
    for (name, value) in metrics {
        map.insert(format!("{section}.{name}"), *value);
    }
    let mut out = String::from("{\n");
    let mut first = true;
    for (k, v) in &map {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{k}\": {v}"));
    }
    out.push_str("\n}\n");
    match fs::write(BENCH_JSON, &out) {
        Ok(()) => println!("\nrecorded {} metric(s) under '{section}' in {BENCH_JSON}", metrics.len()),
        Err(e) => println!("\nBENCH_10.json not written ({e}) — continuing"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_round_trips_and_merges() {
        let text = "{\n  \"a.x\": 1.5,\n  \"b.y\": 2\n}\n";
        let map = parse_flat_json(text);
        assert_eq!(map.len(), 2);
        assert_eq!(map["a.x"], 1.5);
        assert_eq!(map["b.y"], 2.0);
        // Garbage lines are skipped, not fatal.
        let noisy = parse_flat_json("{\nnot json\n  \"k\": 3\n}");
        assert_eq!(noisy.len(), 1);
        assert_eq!(noisy["k"], 3.0);
    }
}
