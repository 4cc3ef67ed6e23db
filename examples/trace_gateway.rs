//! Unified tracing end to end: the E10 gateway mission recorded as one
//! cycle-stamped structured event stream and exported for standard
//! viewers.
//!
//! Runs the 3-wire / 5-node gateway topology with every trace category
//! enabled, then:
//!
//! * exports the Chrome trace-event JSON (`gateway.trace.json`) — open
//!   it at <https://ui.perfetto.dev> to see per-node tracks of block
//!   fills, IRQ activity, WFI sleeps, DMA forwards and wire
//!   arbitration wins on one zoomable timeline;
//! * derives the signal-shaped slice as a VCD waveform (`gateway.vcd`)
//!   for GTKWave/Surfer;
//! * validates both files structurally by parsing them back, and
//!   cross-checks the semantic trace hash against a differently
//!   scheduled run (the recorded stream obeys the same determinism
//!   contract as the simulation itself).
//!
//! Run with: `cargo run -p alia-core --example trace_gateway`

use alia_core::experiments::{gateway_checksum, gateway_experiment_traced};
use alia_core::prelude::obs::{category, chrome, vcd};
use alia_core::prelude::sim::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The E10 mission, fully traced. ---------------------------
    let (e, trace) = gateway_experiment_traced(16, SystemConfig::default(), category::ALL)?;
    assert_eq!(e.checksum, gateway_checksum(16), "the traced run is still the E10 run");
    println!("{e}");
    println!(
        "\ntraced {} events over {} streams:",
        trace.total_events(),
        trace.streams.len()
    );
    for s in &trace.streams {
        println!("  {:<10} {:>6} events", s.label, s.events.len());
    }

    // --- 2. Chrome trace-event JSON (Perfetto / chrome://tracing). ---
    let json = chrome::export(&trace);
    std::fs::write("gateway.trace.json", &json)?;
    let summary = chrome::validate(&json).map_err(|e| format!("chrome trace invalid: {e}"))?;
    println!(
        "\ngateway.trace.json: {} processes, {} instants + {} spans — load it at ui.perfetto.dev",
        summary.processes.len(),
        summary.instants,
        summary.completes
    );

    // --- 3. VCD waveform (GTKWave / Surfer). -------------------------
    let signals = vcd::from_trace(&trace);
    let dump = vcd::export("1ns", "gateway", &signals);
    std::fs::write("gateway.vcd", &dump)?;
    let parsed = vcd::parse(&dump).map_err(|e| format!("vcd invalid: {e}"))?;
    assert_eq!(parsed, signals, "the VCD dump must round-trip exactly");
    println!(
        "gateway.vcd: {} signals, {} value changes",
        signals.len(),
        signals.iter().map(|s| s.changes.len()).sum::<usize>()
    );

    // --- 4. The trace is as deterministic as the simulation. ---------
    let semantic = trace.fnv_hash(category::SEMANTIC);
    let (_, other) = gateway_experiment_traced(
        16,
        SystemConfig { quantum: Some(53), rotate_order: true, idle_stretch: false },
        category::ALL,
    )?;
    assert_eq!(
        other.fnv_hash(category::SEMANTIC),
        semantic,
        "semantic trace hash must be schedule-independent"
    );
    println!(
        "\nsemantic trace hash {semantic:#018x} is bit-identical under quantum 53, \
         rotated order, no idle-stretch"
    );
    Ok(())
}
