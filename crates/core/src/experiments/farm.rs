//! E12 — the simulation farm: Monte-Carlo campaigns over forked
//! gateway snapshots.
//!
//! The paper's capstone experiments run *one* system to *one* verdict
//! (E10 clean traffic, E11 a single fault storm). E12 turns the same
//! executed 3-wire / 5-node gateway topology into a population study,
//! using the three farm layers built for it:
//!
//! * [`alia_sim::System::fork`] — the base topology is built and
//!   driven once to a mid-mission snapshot, then every campaign run
//!   forks it (copying only the memory pages written, detaching the
//!   wires) instead of re-assembling and re-warming the world;
//! * [`crate::campaign::run_campaign`] — runs fan out over a worker
//!   pool and merge into a key-ordered, thread-count-independent
//!   summary;
//! * the deterministic quantum scheduler — each forked run is
//!   bit-reproducible, so the whole campaign is one pure function of
//!   its run keys.
//!
//! Two campaigns ride the farm:
//!
//! * **Soft-error Monte Carlo** (reviving E7's theme on an *executed
//!   networked system*): each run flips one seed-derived bit in one
//!   node's flash image mid-mission and classifies the outcome —
//!   `masked` (the sink checksum still closes), `corrupted` (the
//!   mission completes wrongly or dies), or `hung` (the system never
//!   halts within the grace horizon).
//!
//! * **Fault-seed sweep** (E11's fault layer as a distribution): each
//!   run lands a seed-derived transient error burst on the sensor
//!   wire's executed traffic. Every corrupted attempt charges the
//!   transmitting *sensor ECU* +8 TEC and forces a retransmission, so
//!   burst intensity walks the victims through fault confinement —
//!   light bursts leave them error-active, heavier ones reach
//!   error-passive, and a dense enough burst drives a sensor to
//!   bus-off (which is the only outcome that sheds mission frames:
//!   confinement purges its backlog). The campaign reports the
//!   executed bus-off incidence distribution. E11's corrupt babbler is
//!   the degenerate point of this population: its attempts *always*
//!   retry to bus-off — here the storms land on executed stations and
//!   the outcome genuinely varies with the seed.

use std::fmt;

use alia_can::{ErrorState, FaultPlan};
use alia_sim::{StopReason, System, SystemConfig, SystemStop};

use crate::campaign::run_campaign;
use crate::CoreError;

use super::gateway::{build_gateway_topology, gateway_checksum, EDGE_CPB, PERIOD_CYCLES};

/// Mission frames per sensor in every campaign run.
const FARM_FRAMES: u32 = 4;
/// Cycle at which the soft-error base snapshot is taken — mid-mission:
/// the first sensor releases are on the wire, most are still to come.
const FORK_POINT_CYCLES: u64 = 3_000;
/// Grace horizon for one forked soft-error run, cycles. The clean
/// mission ends well under 20 000 cycles; a run still live here hung.
const FLIP_HORIZON_CYCLES: u64 = 200_000;
/// Flash window the bit flips land in: `[0x100, 0x340)` covers every
/// guest's main program and handlers (and some never-executed pad —
/// flips there must come back `masked`).
const FLIP_WINDOW: (u32, u32) = (0x100, 0x340);
/// Error injections of sweep seed `s`: `2 + mix(s) % 280`, spanning
/// burst intensities from shrugged-off to bus-off-inducing.
const SWEEP_BURST_BASE: u64 = 2;
const SWEEP_BURST_SPAN: u64 = 280;
/// Fixed burst window length, bit times — covers the mission's whole
/// traffic region (all four release slots plus retransmission
/// headroom), so the injection count is a pure density knob.
const SWEEP_WINDOW_BITS: u64 = 6_000;

/// `splitmix64` — the farm's seed-to-parameter mixer.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of one soft-error run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlipOutcome {
    /// The sink checksum closed — the flip was architecturally masked.
    Masked,
    /// The system halted but the mission failed (wrong checksum, or
    /// the sink never exited).
    Corrupted,
    /// The system was still live at the grace horizon.
    Hung,
}

/// Soft-error outcome counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipCounts {
    /// Runs whose sink checksum still closed.
    pub masked: u32,
    /// Runs that halted with a failed mission.
    pub corrupted: u32,
    /// Runs still live at the grace horizon.
    pub hung: u32,
}

impl FlipCounts {
    /// Total runs classified.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.masked + self.corrupted + self.hung
    }
}

/// The E12 farm-campaign result.
// No `Eq`: the merged metrics snapshot carries `f64` gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmExperiment {
    /// Soft-error Monte-Carlo runs.
    pub flip_runs: u32,
    /// Fault-seed sweep runs.
    pub sweep_runs: u32,
    /// Soft-error outcome distribution.
    pub flip: FlipCounts,
    /// Fault-seed incidence distribution: runs whose worst sensor
    /// station ended error-active, error-passive, bus-off.
    pub incidence: [u32; 3],
    /// Sweep runs whose sink checksum closed (the mission survived the
    /// burst).
    pub sweep_missions_completed: u32,
    /// Whether every failed mission is explained by a bus-off —
    /// equivalently, every run short of bus-off delivered all frames
    /// (errors delay CAN frames; only confinement sheds them).
    pub losses_only_at_bus_off: bool,
    /// The band E11's single-seed corrupt babbler lands in
    /// ([`ErrorState::BusOff`] — retransmission retries every corrupt
    /// attempt until confinement removes the station).
    pub e11_band: ErrorState,
    /// Order-sensitive fold of every run's outcome in key order — the
    /// campaign's determinism signature (identical at any worker
    /// count).
    pub digest: u64,
    /// Every sweep run's metrics registry merged in key order
    /// (counters add, gauges keep the max) — worker-count-independent
    /// like the digest, so campaign totals (deliveries, error frames,
    /// forwards, IRQ counts) come out of one snapshot instead of
    /// scattered per-run accessors.
    pub metrics: alia_obs::metrics::Snapshot,
}

impl fmt::Display for FarmExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E12 — simulation farm: {} soft-error runs, {} fault-seed runs (digest {:#018x})",
            self.flip_runs, self.sweep_runs, self.digest
        )?;
        writeln!(
            f,
            "  soft error: {} masked, {} corrupted, {} hung",
            self.flip.masked, self.flip.corrupted, self.flip.hung
        )?;
        writeln!(
            f,
            "  bus-off incidence: {} active, {} passive, {} bus-off \
             ({}/{} missions completed, losses {})",
            self.incidence[0],
            self.incidence[1],
            self.incidence[2],
            self.sweep_missions_completed,
            self.sweep_runs,
            if self.losses_only_at_bus_off { "only at bus-off" } else { "UNEXPLAINED" }
        )?;
        write!(f, "  E11's single seed is the degenerate {:?} point", self.e11_band)
    }
}

/// Confinement severity rank of a final station state.
fn severity(state: ErrorState) -> u8 {
    match state {
        ErrorState::Active => 0,
        ErrorState::Passive => 1,
        ErrorState::BusOff => 2,
    }
}

/// One soft-error run: fork the mid-mission base, flip one flash bit
/// in one node, run out the mission, classify.
fn flip_run(base: &System, seed: u64) -> FlipOutcome {
    let h = mix(0xE12_0000_0000 ^ seed);
    let node = (h % 5) as usize;
    let words = u64::from((FLIP_WINDOW.1 - FLIP_WINDOW.0) / 4);
    let off = FLIP_WINDOW.0 + 4 * ((h >> 8) % words) as u32;
    let bit = ((h >> 24) % 32) as u32;
    let mut sys = base.fork();
    let m = sys.node_mut(node).machine_mut();
    let word = m.flash.peek(off, 4);
    m.load_flash(off, &(word ^ (1 << bit)).to_le_bytes());
    let run = sys.run(FLIP_HORIZON_CYCLES);
    if run.reason != SystemStop::AllHalted {
        return FlipOutcome::Hung;
    }
    let sink = sys.nodes().len() - 1;
    match sys.node(sink).halted() {
        Some(StopReason::MmioExit(c)) if c == gateway_checksum(FARM_FRAMES) => {
            FlipOutcome::Masked
        }
        _ => FlipOutcome::Corrupted,
    }
}

/// One fault-seed run: fork the clean base, land a seed-derived error
/// burst on the sensor wire's executed traffic, run the mission out,
/// and report the burst intensity, the worst final sensor-station
/// error state, and whether the sink checksum closed.
fn sweep_run(base: &System, seed: u64) -> (u32, ErrorState, bool, alia_obs::metrics::Snapshot) {
    let h = mix(0x5EED_0000_0000 ^ seed);
    let count = SWEEP_BURST_BASE + h % SWEEP_BURST_SPAN;
    let mut sys = base.fork();
    let wire = sys.wire_named("sensor").expect("sensor wire").clone();
    // The window is fixed over the mission's traffic region (first
    // release to last, plus retransmission headroom) — only the count
    // varies, so intensity is a pure density knob.
    let lo = PERIOD_CYCLES / EDGE_CPB + 100;
    let hi = lo + SWEEP_WINDOW_BITS;
    let mut plan = FaultPlan::new();
    plan.add_error_burst(mix(h), lo, hi, count as usize);
    wire.set_fault_plan(plan);
    let run = sys.run(50_000_000);
    let sink = sys.nodes().len() - 1;
    let checksum_ok = run.reason == SystemStop::AllHalted
        && sys.node(sink).halted()
            == Some(StopReason::MmioExit(gateway_checksum(FARM_FRAMES)));
    let worst = [wire.error_state(0), wire.error_state(1)]
        .into_iter()
        .max_by_key(|&s| severity(s))
        .unwrap_or_default();
    let mut reg = alia_obs::metrics::Registry::default();
    sys.publish_metrics(&mut reg);
    (count as u32, worst, checksum_ok, reg.snapshot())
}

/// Runs the E12 farm campaign: `flip_runs` soft-error Monte-Carlo runs
/// and `sweep_runs` fault-seed runs, fanned over `threads` workers.
/// The returned summary is bit-identical at any worker count.
///
/// # Errors
///
/// Fails when a base topology cannot be built or driven to its
/// snapshot point.
pub fn farm_experiment(
    flip_runs: u32,
    sweep_runs: u32,
    threads: usize,
) -> Result<FarmExperiment, CoreError> {
    // Base 1 — soft-error Monte Carlo: built once, driven to the
    // mid-mission fork point; every run forks the warm snapshot.
    let mut flip_base =
        build_gateway_topology(FARM_FRAMES, PERIOD_CYCLES, None, None, SystemConfig::default())?;
    let r = flip_base.system.run(FORK_POINT_CYCLES);
    if r.reason != SystemStop::Horizon {
        return Err(CoreError::Run {
            what: format!("soft-error base died before its fork point: {:?}", r.reason),
        });
    }
    // Base 2 — fault-seed sweep: forked unrun (each run instruments
    // its own wire with a different burst opening at the first sensor
    // release, which would already be on the wire at the flip base's
    // fork point).
    let sweep_base =
        build_gateway_topology(FARM_FRAMES, PERIOD_CYCLES, None, None, SystemConfig::default())?;

    let flip_keys: Vec<u64> = (0..u64::from(flip_runs)).collect();
    let flip_outcomes = run_campaign(&flip_keys, threads, |&s| flip_run(&flip_base.system, s));
    let sweep_keys: Vec<u64> = (0..u64::from(sweep_runs)).collect();
    let sweep_outcomes =
        run_campaign(&sweep_keys, threads, |&s| sweep_run(&sweep_base.system, s));

    let mut flip = FlipCounts { masked: 0, corrupted: 0, hung: 0 };
    let mut digest = 0xFA12_FA12_FA12_FA12u64;
    for &o in &flip_outcomes {
        match o {
            FlipOutcome::Masked => flip.masked += 1,
            FlipOutcome::Corrupted => flip.corrupted += 1,
            FlipOutcome::Hung => flip.hung += 1,
        }
        digest = mix(digest ^ o as u64);
    }
    let mut incidence = [0u32; 3];
    let mut sweep_missions_completed = 0;
    let mut losses_only_at_bus_off = true;
    for (count, state, checksum_ok, _) in &sweep_outcomes {
        let band = severity(*state) as usize;
        incidence[band] += 1;
        sweep_missions_completed += u32::from(*checksum_ok);
        // Errors delay frames (retransmission) — only a bus-off purge
        // sheds them, so any failed mission must coincide with one.
        losses_only_at_bus_off &= *checksum_ok || *state == ErrorState::BusOff;
        digest = mix(digest ^ (u64::from(*count) << 8) ^ band as u64);
    }
    // Key-ordered merge — run_campaign returns results in key order at
    // any worker count, and the merge itself is associative and
    // commutative, so the fold is worker-count-independent.
    let metrics =
        alia_obs::metrics::Snapshot::merge_all(sweep_outcomes.iter().map(|(_, _, _, m)| m));
    Ok(FarmExperiment {
        flip_runs,
        sweep_runs,
        flip,
        incidence,
        sweep_missions_completed,
        losses_only_at_bus_off,
        e11_band: ErrorState::BusOff,
        digest,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_campaign_is_worker_count_independent() {
        let one = farm_experiment(24, 16, 1).expect("runs");
        for workers in [2, 4, 8] {
            let e = farm_experiment(24, 16, workers).expect("runs");
            assert_eq!(one, e, "the merged summary must not depend on the worker pool ({workers})");
        }
    }

    #[test]
    fn forks_copy_exactly_the_pages_each_node_wrote() {
        // A fresh machine holds no guest memory: a built E10 node holds
        // only the flash pages its images were loaded into, a warmed one
        // also the SRAM pages its guest stored to, and a fork copies
        // exactly those pages.
        let pages = |s: &System| -> Vec<usize> {
            s.nodes().iter().map(|n| n.machine().resident_pages()).collect()
        };
        let mut base =
            build_gateway_topology(FARM_FRAMES, PERIOD_CYCLES, None, None, SystemConfig::default())
                .expect("builds");
        assert_eq!(pages(&base.system), [1; 5]);
        assert_eq!(pages(&base.system.fork()), pages(&base.system));
        base.system.run(FORK_POINT_CYCLES);
        assert_eq!(pages(&base.system), [2, 2, 1, 1, 1], "the sensors have stacked an IRQ");
        assert_eq!(pages(&base.system.fork()), pages(&base.system));
        assert_eq!(base.system.run(FLIP_HORIZON_CYCLES).reason, SystemStop::AllHalted);
        // The DMA engines forward without their guests touching SRAM.
        assert_eq!(pages(&base.system), [2, 2, 1, 1, 2]);
        assert_eq!(pages(&base.system.fork()), pages(&base.system));
    }

    #[test]
    fn flip_outcomes_cover_the_population() {
        let e = farm_experiment(60, 0, 4).expect("runs");
        assert_eq!(e.flip.total(), 60);
        assert!(e.flip.masked > 0, "pad and benign flips must mask: {e}");
        assert!(
            e.flip.corrupted + e.flip.hung > 0,
            "code flips must visibly break some missions: {e}"
        );
    }

    #[test]
    fn sweep_populates_all_confinement_bands() {
        let e = farm_experiment(0, 48, 4).expect("runs");
        assert_eq!(e.incidence.iter().sum::<u32>(), 48);
        assert!(e.incidence.iter().all(|&n| n > 0), "48 seeds must hit all three bands: {e}");
        assert!(e.losses_only_at_bus_off, "a contained storm never sheds mission frames: {e}");
        assert!(
            e.sweep_missions_completed >= e.incidence[0] + e.incidence[1],
            "every run short of bus-off must deliver its mission: {e}"
        );
        assert_eq!(e.e11_band, ErrorState::BusOff);
        assert!(e.to_string().contains("incidence"));
    }
}

