//! Multi-bus gateway network: the executed-guest allocation study.
//!
//! The paper's §1/§4 describes the vehicle as a network of ECUs on
//! several buses joined by gateways. This example runs that topology
//! for real: two sensor ECUs on a sensor wire, a DMA-gateway ECU onto a
//! faster backbone, a second gateway onto the actuator wire, and a sink
//! ECU — five nodes, three wires, every frame produced by executed
//! guest code and forwarded by guest-programmed DMA routing tables.
//! Each wire's executed worst latencies and utilization are
//! cross-checked against the `can::rta` analytic bounds, composed hop
//! by hop in the holistic style (downstream release jitter = upstream
//! response bound + store-and-forward latency).
//!
//! Run with: `cargo run -p alia-core --example gateway_network`

use alia_core::experiments::{gateway_checksum, gateway_experiment, gateway_experiment_with};
use alia_core::prelude::sim::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The 3-wire / 5-node topology with executed guests. -------
    let e = gateway_experiment(16)?;
    println!("{e}");
    assert_eq!(e.checksum, gateway_checksum(16), "the sink's checksum is deterministic");

    // --- 2. Executed vs analytic, per wire. --------------------------
    for w in &e.wires {
        assert!(w.schedulable, "wire {}: stream set must be schedulable", w.name);
        assert!(
            w.within_bounds(),
            "wire {}: executed latency exceeded its analytic bound",
            w.name
        );
    }
    println!("\nevery wire's executed worst latency is within its analytic bound");

    // --- 3. Determinism: the same topology under a different schedule.
    let other = gateway_experiment_with(
        16,
        SystemConfig { quantum: Some(53), rotate_order: true, idle_stretch: false },
    )?;
    assert_eq!(other.checksum, e.checksum);
    assert_eq!(other.delivery_logs, e.delivery_logs);
    assert_eq!(other.end_to_end, e.end_to_end);
    println!(
        "schedule-independence: quantum 53 + rotated order + no idle-stretch \
         reproduced every wire's delivery log bit-identically \
         ({} vs {} quanta)",
        other.quanta, e.quanta
    );
    Ok(())
}
