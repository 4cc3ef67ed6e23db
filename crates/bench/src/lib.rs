//! # alia-bench — the table/figure regeneration harness
//!
//! Each binary regenerates one table or figure of the paper (see the
//! experiment table in [`alia_core::experiments`]) and prints the
//! measured rows next to the paper's reported values; `profile` prints
//! the block engine's work counters per kernel. None reads a clock or
//! writes a file. Host-performance claims are made with the mission
//! benchmark in `perfbench/` (see its README), judged by a same-host
//! A/B against the parent build.
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
//! cargo run -p alia-bench --bin profile
//! ```

/// Prints a standard harness header.
pub fn header(experiment: &str, paper_ref: &str) {
    println!("=== {experiment} — reproducing {paper_ref} ===");
}
