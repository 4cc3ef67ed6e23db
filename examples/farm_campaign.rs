//! E12 — the simulation farm: a 1000-run soft-error Monte Carlo and a
//! fault-seed sweep over forked gateway snapshots.
//!
//! The base 3-wire / 5-node gateway topology is built and warmed once;
//! every campaign run `fork()`s it (copying only the memory pages the
//! base wrote, detaching the wires) and fans out over a worker pool. The merged summary is a
//! pure function of the run keys — bit-identical at any worker count —
//! which this example cross-checks before trusting the big campaign.
//!
//! Run with: `cargo run --release -p alia-core --example farm_campaign`

use alia_core::experiments::farm_experiment;
use alia_core::prelude::can::ErrorState;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Determinism cross-check first, on a small campaign: one worker
    // and eight workers must merge to the same summary, digest and all.
    let one = farm_experiment(64, 8, 1)?;
    let eight = farm_experiment(64, 8, 8)?;
    assert_eq!(one, eight, "the campaign summary must not depend on the worker pool");
    println!("warm-up: 64+8 runs merge identically at 1 and 8 workers\n");

    // The capstone campaign: 1000 soft-error runs and a 48-seed fault
    // sweep, fanned over four workers.
    let e = farm_experiment(1000, 48, 4)?;
    println!("{e}");

    assert_eq!(e.flip.total(), 1000);
    assert!(e.flip.masked > 0, "benign and pad flips must be masked");
    assert!(e.flip.corrupted + e.flip.hung > 0, "code flips must break some missions");
    assert_eq!(e.incidence.iter().sum::<u32>(), 48);
    assert!(
        e.incidence.iter().all(|&n| n > 0),
        "the sweep must populate all three confinement bands"
    );
    assert!(e.losses_only_at_bus_off, "only a bus-off purge may shed mission frames");
    assert_eq!(e.e11_band, ErrorState::BusOff);

    println!("\n1000 forked soft-error runs classified; the fault-seed sweep walked");
    println!("the sensors through all three confinement bands, and every lost");
    println!("mission frame is explained by a bus-off purge — E11's single storm");
    println!("is the degenerate bus-off point of this population.");
    Ok(())
}
