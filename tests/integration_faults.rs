//! Fault-injection integration: the CAN fault layer (error frames,
//! bus-off confinement, babbling-idiot arms) against the whole stack —
//! executed guests, gateways, acceptance filters — and the determinism
//! contract under faults: every fault-driven artifact (error-state
//! transitions, retransmission stamps, wire logs with error frames,
//! checksums) must be bit-identical across scheduler configurations.

use alia_can::ErrorState;
use alia_core::experiments::{
    babbling_idiot_experiment, babbling_idiot_experiment_with, error_burst_experiment,
    error_burst_experiment_with, recovery_experiment, recovery_experiment_with,
};
use alia_core::prelude::sim::SystemConfig;

/// The scheduler sweep: quantum sizes through the middle of guest hot
/// loops, rotated service orders, and idle-stretch on and off — fault
/// artifacts must be bit-identical across all of it.
const SWEEP: [(Option<u64>, bool, bool); 6] = [
    (None, true, true),
    (None, false, false),
    (Some(41), false, true),
    (Some(97), true, false),
    (Some(131), false, true),
    (Some(1_000_000), false, true), // clamped to the min wire lookahead
];

#[test]
fn error_burst_is_deterministic_across_schedules() {
    // The full report — wire log with error frames and per-attempt
    // stamps, injection counters, latency-vs-bound tables — is one
    // deep signature; any scheduler dependence in the fault path shows
    // up as a field mismatch.
    let baseline = error_burst_experiment(8, 11).expect("completes");
    assert!(baseline.consumed >= 1, "the sweep must exercise real error frames");
    assert!(baseline.sensor_log.iter().any(|(_, _, _, data)| !data), "log shows error frames");
    assert!(baseline.sensor_log.iter().any(|(_, _, attempt, data)| *data && *attempt > 1));
    for (quantum, rotate, stretch) in SWEEP {
        let run = error_burst_experiment_with(
            8,
            11,
            SystemConfig { quantum, rotate_order: rotate, idle_stretch: stretch },
        )
        .expect("completes");
        assert_eq!(run, baseline, "q={quantum:?} r={rotate} s={stretch}");
    }
}

#[test]
fn babbling_idiot_is_deterministic_across_schedules() {
    // Bus-off is reached through 32 wire-time-stamped transitions and a
    // queue purge — all of it must be schedule-independent, including
    // the exact transition stamps in the state log.
    let baseline = babbling_idiot_experiment(4).expect("completes");
    assert_eq!(baseline.babbler_state, ErrorState::BusOff);
    assert_eq!(baseline.transitions.len(), 2);
    for (quantum, rotate, stretch) in SWEEP {
        let run = babbling_idiot_experiment_with(
            4,
            SystemConfig { quantum, rotate_order: rotate, idle_stretch: stretch },
        )
        .expect("completes");
        assert_eq!(run, baseline, "q={quantum:?} r={rotate} s={stretch}");
    }
}

#[test]
fn mid_mission_recovery_is_deterministic_across_schedules() {
    // The recovery arc — error IRQ wakes, the guest's ERR_RECOVER
    // write, the 128 x 11-bit rejoin stamp, the held-back mission —
    // involves guest time, wire time and the scheduler at once; the
    // whole report must still be schedule-independent.
    let baseline = recovery_experiment(6).expect("completes");
    assert!(baseline.recovered(), "baseline must recover: {baseline}");
    for (quantum, rotate, stretch) in SWEEP {
        let run = recovery_experiment_with(
            6,
            SystemConfig { quantum, rotate_order: rotate, idle_stretch: stretch },
        )
        .expect("completes");
        assert_eq!(run, baseline, "q={quantum:?} r={rotate} s={stretch}");
    }
}

#[test]
fn burst_seeds_vary_but_never_break_the_contract() {
    // Different seeds land different bursts — placement varies, but
    // graceful degradation (extended bounds, recovery, checksum) is
    // seed-independent.
    let mut distinct = std::collections::HashSet::new();
    for seed in [3, 11, 29] {
        let r = error_burst_experiment(8, seed).expect("completes");
        assert!(r.graceful(), "seed {seed} broke graceful degradation: {r}");
        distinct.insert(r.sensor_log.clone());
    }
    assert!(distinct.len() > 1, "seeds must actually move the burst");
}
