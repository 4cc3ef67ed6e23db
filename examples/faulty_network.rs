//! CAN fault injection: the degradation study on the gateway network.
//!
//! The clean gateway topology (`gateway_network` example) validates
//! executed traffic against analytic response bounds. This example
//! breaks the sensor wire on purpose, twice:
//!
//! 1. **Transient error burst** — seeded bit errors corrupt in-flight
//!    frames; every corruption costs an error frame and a
//!    retransmission. Latencies degrade but stay within Tindell's
//!    error-extended bounds, no frame is lost, and traffic released
//!    after the burst meets the clean bounds again.
//! 2. **Babbling idiot** — a rogue station floods the wire with a
//!    top-priority id. Its corrupted attempts drive it through
//!    error-passive to bus-off (fault confinement removes it), a
//!    second rogue's valid garbage is stopped by guest-programmed
//!    acceptance filters and the gateway routing table, and the victim
//!    streams still meet their clean-traffic bounds.
//!
//! Run with: `cargo run -p alia-core --example faulty_network`

use alia_can::ErrorState;
use alia_core::experiments::{
    babbling_idiot_experiment, error_burst_experiment, error_burst_experiment_with,
};
use alia_core::prelude::sim::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Transient error burst: degrade, then recover. ------------
    let burst = error_burst_experiment(8, 11)?;
    println!("{burst}\n");
    assert!(burst.consumed >= 1, "the burst must corrupt at least one frame");
    assert!(burst.graceful(), "degradation must respect the error-extended bounds");

    // --- 2. Babbling idiot: confinement and containment. -------------
    let babble = babbling_idiot_experiment(4)?;
    println!("{babble}\n");
    assert_eq!(babble.babbler_state, ErrorState::BusOff, "fault confinement fires");
    assert!(babble.contained(), "victims and checksum must ride out the storm");

    // --- 3. Faults are schedule-independent. -------------------------
    let other = error_burst_experiment_with(
        8,
        11,
        SystemConfig { quantum: Some(53), rotate_order: true, idle_stretch: false },
    )?;
    assert_eq!(other, burst);
    println!(
        "schedule-independence: quantum 53 + rotated order + no idle-stretch \
         reproduced every error frame, retransmission stamp and state \
         transition bit-identically"
    );
    Ok(())
}
