//! The executed RTOS tier: a preemptive guest kernel on a simulated
//! ECU inside the gateway network.
//!
//! Four workload-kernel tasks run under timer-driven fixed-priority
//! preemption on one ECU; one of them ships a CAN frame per completion
//! through both gateways to the sink. Every scheduling event is
//! cycle-stamped, and validation closes the loop at both layers: each
//! task's executed worst-case response stays within its
//! `rtos::analysis` RTA bound, and the TX stream's executed wire
//! latency stays within the `can::rta` bound with the CPU-level bound
//! inherited as release jitter (holistic composition).
//!
//! Run with: `cargo run -p alia-core --example rtos_network`

use alia_core::experiments::{
    rtos_exec_checksum, rtos_exec_experiment, rtos_exec_experiment_with, rtos_jitter_study,
};
use alia_core::prelude::sim::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The preemptive ECU inside the 3-wire network. ------------
    let e = rtos_exec_experiment(8)?;
    println!("{e}");
    assert_eq!(e.checksum, rtos_exec_checksum(8, e.tx_frames), "sink checksum is closed-form");
    assert!(e.preemptions() > 0, "the mission must exercise real preemption");

    // --- 2. Executed vs analytic, both layers. -----------------------
    assert!(e.within_bounds(), "executed responses exceeded analytic bounds");
    println!("\nevery executed WCRT and wire latency is within its analytic bound");

    // --- 3. Determinism: the preemption trace across schedules. ------
    let other = rtos_exec_experiment_with(
        8,
        SystemConfig { quantum: Some(53), rotate_order: true, idle_stretch: false },
    )?;
    assert_eq!(other.stats, e.stats, "preemption trace must be schedule-independent");
    assert_eq!(other.checksum, e.checksum);
    println!("preemption trace bit-identical across scheduler configurations");

    // --- 4. The activation-phasing jitter study. ---------------------
    let seeds: Vec<u64> = (0..4).map(|k| 0xBEEF + 13 * k).collect();
    let study = rtos_jitter_study(&seeds, 2)?;
    println!("\n{study}");
    assert!(study.within_bounds(), "no phasing may cross the critical-instant bound");
    Ok(())
}
