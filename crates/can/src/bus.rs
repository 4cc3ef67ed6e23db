//! Event-driven CAN bus simulation: non-destructive bitwise arbitration
//! at frame boundaries, per-message latency accounting, and the fault
//! axis — error frames, fault-confinement counters and bus-off — driven
//! by a deterministic [`FaultPlan`].
//!
//! # The fault model, and why it stays deterministic
//!
//! A corrupted transmission is detected at the end of its stuffed data
//! bits (the CRC check) and signalled with an **error frame**: the wire
//! is occupied for the aborted frame's stuffed bits plus the error
//! flag/delimiter/interframe cost, the transmitter's TEC rises by 8,
//! every other registered station's REC rises by 1, and the frame is
//! requeued with its original enqueue stamp (latency accounting spans
//! the retransmissions). The error event's observable stamp is the
//! error frame's *completion*: at least `34 + 17` bits after the
//! transmission start — strictly more than [`MIN_WIRE_BITS`] — so every
//! fault event obeys the same lookahead contract as a clean delivery
//! and a quantum scheduler's boundaries can never slice one. Babble
//! arms enqueue at plan-fixed bit times, recoveries complete at
//! request-fixed bit times: every fault source is keyed to wire time,
//! never to host call order or scheduler quantum size.

use crate::error::{
    BabbleArm, ErrorState, FaultPlan, StateChange, BUS_OFF_RECOVERY_BITS,
    ERROR_FRAME_BITS_ACTIVE, ERROR_FRAME_BITS_PASSIVE,
};
use crate::frame::{CanFrame, CanId, MIN_WIRE_BITS, TRAILER_BITS};

/// A message queued for transmission.
#[derive(Debug, Clone, Copy)]
struct Pending {
    frame: CanFrame,
    /// `frame.wire_bits()`, computed once at enqueue.
    bits: u32,
    node: usize,
    enqueued_at: u64,
    seq: u64,
    /// Failed attempts so far (retransmissions keep the original
    /// `enqueued_at` and `seq`, so arbitration order is preserved).
    attempt: u32,
    /// Babble frames from a `corrupt` arm: every attempt errors.
    corrupt: bool,
}

impl Pending {
    fn new(frame: CanFrame, node: usize, enqueued_at: u64, seq: u64, corrupt: bool) -> Pending {
        Pending { frame, bits: frame.wire_bits(), node, enqueued_at, seq, attempt: 0, corrupt }
    }

    /// Whether `self` wins arbitration against `other`. Same-id ties
    /// break on (enqueue time, node, seq) rather than the global enqueue
    /// sequence alone, so arbitration is independent of the order in
    /// which a multi-node scheduler happens to service the controllers
    /// that enqueued within the same quantum. The order is total, so the
    /// winner does not depend on queue order either.
    fn beats(&self, other: &Pending) -> bool {
        if self.frame.id == other.frame.id {
            (self.enqueued_at, self.node, self.seq) < (other.enqueued_at, other.node, other.seq)
        } else {
            self.frame.id.wins_over(other.frame.id)
        }
    }
}

/// What a [`Delivery`] records: a completed data frame or a signalled
/// error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// The frame completed and receivers latch it.
    Data,
    /// The attempt was corrupted: the entry records the error frame
    /// (wire occupancy, completion stamp); no receiver latches the
    /// payload and the transmitter requeues unless it went bus-off.
    Error,
}

/// A wire event with its timing: a delivered data frame or an error
/// frame aborting an attempt. Both share the log so determinism sweeps
/// compare the complete wire history — stamps, kinds and attempt
/// numbers — verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The frame (for [`DeliveryKind::Error`]: the aborted frame).
    pub frame: CanFrame,
    /// Sending node.
    pub node: usize,
    /// Enqueue time (bit times) — retransmissions keep the original.
    pub enqueued_at: u64,
    /// Completion time (bit times): end of the frame, or end of the
    /// error frame for an aborted attempt.
    pub completed_at: u64,
    /// Data frame or error frame.
    pub kind: DeliveryKind,
    /// Failed attempts before this event (0 = first attempt).
    pub attempt: u32,
}

impl Delivery {
    /// Queue-to-completion latency in bit times (for a data frame this
    /// spans every failed attempt before it).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.completed_at - self.enqueued_at
    }

    /// Whether this is a completed data frame.
    #[must_use]
    pub fn is_data(&self) -> bool {
        self.kind == DeliveryKind::Data
    }
}

/// Per-station fault-confinement state.
#[derive(Debug, Clone, Copy)]
struct Station {
    node: usize,
    tec: u32,
    rec: u32,
    state: ErrorState,
}

/// Runtime state of one babble arm.
#[derive(Debug, Clone, Copy)]
struct ArmState {
    arm: BabbleArm,
    next_at: u64,
    sent: u32,
    /// Set for good when the arm's node goes bus-off.
    suspended: bool,
}

impl ArmState {
    fn live(&self) -> bool {
        !self.suspended && self.sent < self.arm.frames
    }
}

/// The shared bus: single broadcast medium, priority arbitration at
/// each idle point, and the CAN fault-confinement machinery — error
/// frames, TEC/REC counters, the error-active → error-passive →
/// bus-off state machine and bus-off recovery — exercised by an
/// installed [`FaultPlan`] (with no plan the wire is error-free). The
/// analysis side mirrors the same fault model through the
/// error-extended response bounds
/// ([`crate::response_bound_with_errors`]).
#[derive(Debug, Clone, Default)]
pub struct CanBus {
    /// Frames awaiting transmission, unordered: arbitration scans for
    /// the winner.
    queue: Vec<Pending>,
    seq: u64,
    now: u64,
    busy_until: u64,
    deliveries: Vec<Delivery>,
    busy_bits: u64,
    /// Scheduled bit-error instants not yet consumed or expired
    /// (sorted; drained front to back as transmissions are processed).
    injections: Vec<u64>,
    /// Next injection to examine (index into `injections`).
    inj_next: usize,
    arms: Vec<ArmState>,
    /// Stations sorted by node id (registered controllers plus every
    /// node that ever enqueued) — sorted so same-stamp REC transitions
    /// log in node order, independent of registration call order.
    stations: Vec<Station>,
    state_log: Vec<StateChange>,
    /// `(node, completes_at)` bus-off recoveries in flight.
    pending_recovery: Vec<(usize, u64)>,
    error_frames: u64,
    injections_consumed: u64,
    injections_expired: u64,
    rejected_tx: u64,
    purged_tx: u64,
}

impl CanBus {
    /// An idle bus at time zero.
    #[must_use]
    pub fn new() -> CanBus {
        CanBus::default()
    }

    /// Current time in bit times.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Installs a fault plan: its scheduled bit errors and babble arms
    /// take effect as wire time advances. Installing over traffic
    /// already processed only affects the future (instants in the past
    /// expire).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injections = plan.bit_errors().to_vec();
        self.inj_next = 0;
        self.arms = plan
            .babble()
            .iter()
            .map(|&arm| ArmState {
                next_at: arm.start,
                sent: 0,
                suspended: false,
                arm,
            })
            .collect();
    }

    /// Registers `node` as a station on the wire so its REC tracks
    /// observed errors even before it ever transmits. Transmitting
    /// auto-registers; attached MMIO controllers register explicitly.
    pub fn register_node(&mut self, node: usize) {
        self.station_index(node);
    }

    /// The index of `node`'s station, registering it first if needed.
    fn station_index(&mut self, node: usize) -> usize {
        self.stations.binary_search_by_key(&node, |s| s.node).unwrap_or_else(|pos| {
            self.stations.insert(pos, Station { node, tec: 0, rec: 0, state: ErrorState::Active });
            pos
        })
    }

    /// The station's error state at wire bit time `t`, derived from the
    /// logged transitions (per-station transitions are monotonic in
    /// time) and any recovery completing by `t`. This is exact for any
    /// `t` at or before the next unprocessed transmission could signal
    /// an error, which covers every enqueue a lookahead-bounded
    /// scheduler can issue.
    #[must_use]
    pub fn state_at(&self, node: usize, t: u64) -> ErrorState {
        if let Some(&(_, at)) = self.pending_recovery.iter().find(|(n, _)| *n == node) {
            if at <= t {
                return ErrorState::Active;
            }
        }
        self.state_log
            .iter()
            .rev()
            .find(|c| c.node == node && c.at <= t)
            .map_or(ErrorState::Active, |c| c.to)
    }

    /// The station's error state as of processed wire time.
    #[must_use]
    pub fn error_state(&self, node: usize) -> ErrorState {
        self.state_at(node, self.now)
    }

    /// The station's transmit error counter (0 for unknown stations).
    #[must_use]
    pub fn tec(&self, node: usize) -> u32 {
        self.stations
            .binary_search_by_key(&node, |s| s.node)
            .map_or(0, |i| self.stations[i].tec)
    }

    /// The station's receive error counter (0 for unknown stations).
    #[must_use]
    pub fn rec(&self, node: usize) -> u32 {
        self.stations
            .binary_search_by_key(&node, |s| s.node)
            .map_or(0, |i| self.stations[i].rec)
    }

    /// Every error-state transition so far, in the deterministic order
    /// the wire processed them (stamps in bit times). Determinism
    /// sweeps compare this log verbatim alongside the delivery log.
    #[must_use]
    pub fn state_log(&self) -> &[StateChange] {
        &self.state_log
    }

    /// Error frames signalled so far.
    #[must_use]
    pub fn error_frames(&self) -> u64 {
        self.error_frames
    }

    /// Scheduled bit errors consumed by a transmission.
    #[must_use]
    pub fn injections_consumed(&self) -> u64 {
        self.injections_consumed
    }

    /// Scheduled bit errors that expired on an idle wire.
    #[must_use]
    pub fn injections_expired(&self) -> u64 {
        self.injections_expired
    }

    /// Enqueues rejected because the node was bus-off.
    #[must_use]
    pub fn rejected_tx(&self) -> u64 {
        self.rejected_tx
    }

    /// Queued frames purged when their node went bus-off.
    #[must_use]
    pub fn purged_tx(&self) -> u64 {
        self.purged_tx
    }

    /// Requests bus-off recovery for `node` at bit time `at`: the
    /// station rejoins as error-active, counters cleared, once
    /// [`BUS_OFF_RECOVERY_BITS`] elapse (the 128 × 11 recessive-bit
    /// interval). No-op unless the node is bus-off at `at`; an earlier
    /// pending request is kept.
    pub fn request_recovery(&mut self, node: usize, at: u64) {
        if self.state_at(node, at) != ErrorState::BusOff {
            return;
        }
        if !self.pending_recovery.iter().any(|(n, _)| *n == node) {
            self.pending_recovery.push((node, at + BUS_OFF_RECOVERY_BITS));
        }
    }

    /// The next wire bit time at which the fault plan itself generates
    /// activity — a babble enqueue or a recovery completion — or `None`
    /// when the plan is quiet. Schedulers must not stretch a quantum
    /// past this point (the event must materialize on time), and a
    /// system is not quiescent while one is pending.
    #[must_use]
    pub fn next_fault_event(&self) -> Option<u64> {
        let arm = self.arms.iter().filter(|a| a.live()).map(|a| a.next_at).min();
        let rec = self.pending_recovery.iter().map(|&(_, at)| at).min();
        match (arm, rec) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (a, r) => a.or(r),
        }
    }

    /// The earliest enqueue stamp among the frames still queued (bit
    /// times), or `None` with an empty queue. No transmission not yet
    /// logged can start before `max(busy_until, this)` unless a new frame
    /// is enqueued or a babble arm fires ([`CanBus::next_fault_event`]).
    #[must_use]
    pub fn earliest_enqueue(&self) -> Option<u64> {
        self.queue.iter().map(|p| p.enqueued_at).min()
    }

    /// Queues `frame` from `node` at time `at` (bit times). A bus-off
    /// node's submissions are rejected (and counted) until its recovery
    /// completes.
    pub fn enqueue(&mut self, at: u64, node: usize, frame: CanFrame) {
        self.register_node(node);
        if self.state_at(node, at) == ErrorState::BusOff {
            self.rejected_tx += 1;
            return;
        }
        self.seq += 1;
        self.queue.push(Pending::new(frame, node, at, self.seq, false));
    }

    /// Applies every pending recovery completing at or before `t`, in
    /// `(stamp, node)` order, logging the bus-off → error-active
    /// transition at its exact completion stamp and clearing the
    /// station's counters.
    fn apply_recoveries_up_to(&mut self, t: u64) {
        while let Some(k) = (0..self.pending_recovery.len())
            .filter(|&k| self.pending_recovery[k].1 <= t)
            .min_by_key(|&k| (self.pending_recovery[k].1, self.pending_recovery[k].0))
        {
            let (node, at) = self.pending_recovery.swap_remove(k);
            let i = self.station_index(node);
            let s = &mut self.stations[i];
            s.tec = 0;
            s.rec = 0;
            s.state = ErrorState::Active;
            self.state_log.push(StateChange {
                at,
                node,
                from: ErrorState::BusOff,
                to: ErrorState::Active,
            });
        }
    }

    /// Enqueues every live babble-arm frame due at or before `t`.
    fn pump_arms(&mut self, t: u64) {
        for i in 0..self.arms.len() {
            loop {
                let a = self.arms[i];
                if !a.live() || a.next_at > t {
                    break;
                }
                self.seq += 1;
                self.queue.push(Pending::new(
                    a.arm.frame(a.sent),
                    a.arm.node,
                    a.next_at,
                    self.seq,
                    a.arm.corrupt,
                ));
                let st = &mut self.arms[i];
                st.sent += 1;
                st.next_at += st.arm.period.max(1);
            }
        }
    }

    /// The earliest bit time any live arm fires next.
    fn next_arm_at(&self) -> Option<u64> {
        self.arms.iter().filter(|a| a.live()).map(|a| a.next_at).min()
    }

    /// Logs a state transition for station `i` if its counters imply one.
    fn sync_state(&mut self, i: usize, at: u64) {
        let s = &mut self.stations[i];
        let to = ErrorState::from_counters(s.tec, s.rec);
        let (from, node) = (s.state, s.node);
        if to == from {
            return;
        }
        s.state = to;
        self.state_log.push(StateChange { at, node, from, to });
        if to == ErrorState::BusOff {
            // The station leaves the wire: purge its queued frames and
            // silence its babble arms for good.
            let before = self.queue.len();
            self.queue.retain(|p| p.node != node);
            self.purged_tx += (before - self.queue.len()) as u64;
            for a in &mut self.arms {
                if a.arm.node == node {
                    a.suspended = true;
                }
            }
        }
    }

    /// Runs until `horizon` bit times, transmitting queued frames,
    /// pumping babble arms and signalling planned errors.
    pub fn run(&mut self, horizon: u64) {
        while self.now < horizon {
            // Find the earliest moment any queued frame — or a babble
            // arm not yet pumped — is available.
            let next = match (self.earliest_enqueue(), self.next_arm_at()) {
                (Some(q), Some(a)) => q.min(a),
                (q, a) => match q.or(a) {
                    Some(n) => n,
                    None => break,
                },
            };
            let start = self.now.max(next).max(self.busy_until);
            if start >= horizon {
                break;
            }
            self.apply_recoveries_up_to(start);
            self.pump_arms(start);
            // Arbitration among frames available at `start`.
            let mut won: Option<usize> = None;
            for (i, p) in self.queue.iter().enumerate() {
                if p.enqueued_at <= start && won.is_none_or(|w| p.beats(&self.queue[w])) {
                    won = Some(i);
                }
            }
            let Some(winner) = won.map(|i| self.queue.swap_remove(i)) else {
                // An arm was due but its frames were rejected/purged and
                // nothing else is available: retry from the next event.
                self.now = self.now.max(start + 1);
                continue;
            };
            // Scheduled injections strictly before this transmission
            // found no frame in flight: they expire.
            while self.inj_next < self.injections.len()
                && self.injections[self.inj_next] < start
            {
                self.inj_next += 1;
                self.injections_expired += 1;
            }
            // The stuffed SOF..CRC portion is corruptible; instants
            // under it are all consumed by this one error frame.
            let data_bits = u64::from(winner.bits - TRAILER_BITS);
            let mut hit = winner.corrupt;
            while self.inj_next < self.injections.len()
                && self.injections[self.inj_next] < start + data_bits
            {
                self.inj_next += 1;
                self.injections_consumed += 1;
                hit = true;
            }
            if hit {
                // Error detected at the CRC check: the wire carries the
                // aborted bits plus the error frame; the stamp is the
                // error frame's completion (≥ start + 34 + 17 — always
                // past the lookahead, like any delivery).
                let ef = if self.state_at(winner.node, start) == ErrorState::Passive {
                    ERROR_FRAME_BITS_PASSIVE
                } else {
                    ERROR_FRAME_BITS_ACTIVE
                };
                let done = start + data_bits + u64::from(ef);
                debug_assert!(done - start > u64::from(MIN_WIRE_BITS));
                self.busy_bits += data_bits + u64::from(ef);
                self.error_frames += 1;
                self.deliveries.push(Delivery {
                    frame: winner.frame,
                    node: winner.node,
                    enqueued_at: winner.enqueued_at,
                    completed_at: done,
                    kind: DeliveryKind::Error,
                    attempt: winner.attempt,
                });
                // Fault confinement: transmitter +8, every other
                // registered station +1, transitions stamped at `done`.
                let tx = self.station_index(winner.node);
                self.stations[tx].tec += 8;
                self.sync_state(tx, done);
                for i in (0..self.stations.len()).filter(|&i| i != tx) {
                    self.stations[i].rec += 1;
                    self.sync_state(i, done);
                }
                // Automatic retransmission, unless the error tipped the
                // transmitter into bus-off (sync_state purged it).
                if self.state_at(winner.node, done) != ErrorState::BusOff {
                    self.queue.push(Pending { attempt: winner.attempt + 1, ..winner });
                }
                self.now = done;
                self.busy_until = done;
            } else {
                let bits = u64::from(winner.bits);
                let done = start + bits;
                self.busy_bits += bits;
                self.deliveries.push(Delivery {
                    frame: winner.frame,
                    node: winner.node,
                    enqueued_at: winner.enqueued_at,
                    completed_at: done,
                    kind: DeliveryKind::Data,
                    attempt: winner.attempt,
                });
                // Success: transmitter TEC −1, every other registered
                // station REC −1 (both floor at 0); a station whose
                // counters drop back under 128 rejoins error-active.
                for i in 0..self.stations.len() {
                    let s = &mut self.stations[i];
                    if s.node == winner.node {
                        s.tec = s.tec.saturating_sub(1);
                    } else {
                        s.rec = s.rec.saturating_sub(1);
                    }
                    self.sync_state(i, done);
                }
                self.now = done;
                self.busy_until = done;
            }
        }
        self.now = self.now.max(horizon);
        // Recoveries completing on an otherwise idle wire still
        // materialize (their state change carries the guest-visible
        // IRQ); the log order relative to error stamps is fixed by
        // transmission starts, not by where `horizon` falls.
        self.apply_recoveries_up_to(self.now);
    }

    /// Everything that happened on the wire so far: data deliveries and
    /// error frames, interleaved in completion order.
    #[must_use]
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Frames queued but not yet transmitted (controllers poll while
    /// this is nonzero).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The bit time at which the frame currently on the wire completes
    /// (equals the last completion when the wire is idle). A scheduler
    /// coordinating several attached controllers can extend its quantum
    /// to this point: no *new* arbitration decision can happen earlier.
    #[must_use]
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Transmits everything still queued, advancing time just far enough.
    ///
    /// MMIO CAN controllers run the bus lazily (only when ticked), so a
    /// guest that submits frames and halts can leave traffic queued and
    /// invisible to [`CanBus::utilization`] / [`CanBus::worst_latency`].
    /// Settling first makes those reports account for every frame the
    /// guest enqueued — the RTA comparisons then see guest traffic, not
    /// just host-injected frames. (Babble arms due before the drain
    /// point are pumped too; arms scheduled further out stay scheduled.)
    pub fn settle(&mut self) {
        while let Some(next) = self.earliest_enqueue() {
            // One frame transmits per horizon that clears its start time.
            let start = self.now.max(next).max(self.busy_until);
            self.run(start + 1);
        }
    }

    /// Bus utilization over the elapsed time (error frames count as
    /// busy bits — a degraded wire reads as *more* loaded).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.now == 0 {
            0.0
        } else {
            self.busy_bits as f64 / self.now as f64
        }
    }

    /// Worst latency observed for a given id, over completed **data**
    /// deliveries (a retransmitted frame's latency spans its failed
    /// attempts; the error frames themselves are not latencies).
    #[must_use]
    pub fn worst_latency(&self, id: CanId) -> Option<u64> {
        self.deliveries
            .iter()
            .filter(|d| d.is_data() && d.frame.id == id)
            .map(Delivery::latency)
            .max()
    }

    /// Worst observed latency for every distinct id over completed
    /// **data** deliveries — the per-wire snapshot a multi-wire
    /// validation compares against analytic response-time bounds.
    ///
    /// Ordering guarantee: one entry per distinct id, in **first-data-
    /// delivery order** (the order ids first completed on the wire) —
    /// deterministic for a deterministic schedule, so reports and
    /// sweeps may compare the vector verbatim without sorting.
    #[must_use]
    pub fn worst_latencies(&self) -> Vec<(CanId, u64)> {
        let mut out: Vec<(CanId, u64)> = Vec::new();
        for d in self.deliveries.iter().filter(|d| d.is_data()) {
            match out.iter_mut().find(|(id, _)| *id == d.frame.id) {
                Some((_, worst)) => *worst = (*worst).max(d.latency()),
                None => out.push((d.frame.id, d.latency())),
            }
        }
        out
    }

    /// Completed **data** deliveries for a given id (error frames and
    /// failed attempts are excluded).
    #[must_use]
    pub fn delivery_count(&self, id: CanId) -> usize {
        self.deliveries
            .iter()
            .filter(|d| d.is_data() && d.frame.id == id)
            .count()
    }

    /// Utilization over the *active* window — total busy bits divided by
    /// the span from the first enqueue to the last completion. Unlike
    /// [`CanBus::utilization`] (which divides by elapsed bus time and so
    /// dilutes under startup or drain idle), this matches the analytic
    /// steady-state [`crate::can_utilization`] of the offered load, up to
    /// edge effects of one period. `None` before the first delivery.
    #[must_use]
    pub fn span_utilization(&self) -> Option<f64> {
        let first = self.deliveries.iter().map(|d| d.enqueued_at).min()?;
        let last = self.deliveries.iter().map(|d| d.completed_at).max()?;
        (last > first).then(|| self.busy_bits as f64 / (last - first) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(id: u16, len: usize) -> CanFrame {
        CanFrame::new(CanId::Standard(id), &vec![0xA5; len])
    }

    #[test]
    fn single_frame_latency_is_wire_time() {
        let mut bus = CanBus::new();
        let f = frame(0x100, 4);
        bus.enqueue(10, 0, f);
        bus.run(10_000);
        assert_eq!(bus.deliveries().len(), 1);
        assert_eq!(bus.deliveries()[0].latency(), u64::from(f.wire_bits()));
        assert!(bus.deliveries()[0].is_data());
        assert_eq!(bus.deliveries()[0].attempt, 0);
    }

    #[test]
    fn arbitration_orders_by_priority() {
        let mut bus = CanBus::new();
        bus.enqueue(0, 0, frame(0x300, 2));
        bus.enqueue(0, 1, frame(0x100, 2));
        bus.enqueue(0, 2, frame(0x200, 2));
        bus.run(10_000);
        let ids: Vec<u32> = bus.deliveries().iter().map(|d| d.frame.id.raw()).collect();
        assert_eq!(ids, vec![0x100, 0x200, 0x300]);
    }

    #[test]
    fn non_preemptive_blocking() {
        // A low-priority frame already on the wire delays a later
        // high-priority one (the classic CAN blocking term).
        let mut bus = CanBus::new();
        let lo = frame(0x700, 8);
        let hi = frame(0x001, 1);
        bus.enqueue(0, 0, lo);
        bus.enqueue(1, 1, hi);
        bus.run(10_000);
        assert_eq!(bus.deliveries()[0].frame.id.raw(), 0x700);
        let hi_lat = bus.worst_latency(CanId::Standard(0x001)).unwrap();
        assert!(hi_lat >= u64::from(lo.wire_bits()) - 1);
    }

    #[test]
    fn utilization_reflects_load() {
        let mut bus = CanBus::new();
        for i in 0..10 {
            bus.enqueue(i * 1000, 0, frame(0x100, 8));
        }
        bus.run(10_000);
        let u = bus.utilization();
        assert!(u > 0.05 && u < 0.5, "{u}");
    }

    #[test]
    fn settle_accounts_for_queued_frames() {
        // Frames enqueued but never run (the MMIO-controller pattern when
        // a guest halts right after TX_GO) become visible to utilization
        // and worst_latency after settling.
        let mut bus = CanBus::new();
        bus.enqueue(0, 0, frame(0x100, 4));
        bus.enqueue(0, 1, frame(0x200, 8));
        assert_eq!(bus.utilization(), 0.0);
        assert_eq!(bus.worst_latency(CanId::Standard(0x200)), None);
        bus.settle();
        assert_eq!(bus.pending(), 0);
        assert_eq!(bus.deliveries().len(), 2);
        assert!(bus.utilization() > 0.9, "wire was busy back to back");
        assert!(bus.worst_latency(CanId::Standard(0x200)).is_some());
    }

    #[test]
    fn busy_until_tracks_the_wire() {
        let mut bus = CanBus::new();
        assert_eq!(bus.busy_until(), 0);
        let f = frame(0x100, 2);
        bus.enqueue(5, 0, f);
        bus.run(6); // starts the frame at bit 5
        assert_eq!(bus.busy_until(), 5 + u64::from(f.wire_bits()));
    }

    #[test]
    fn same_id_ties_break_independent_of_enqueue_order() {
        // Two nodes stage the same id in the same window: the earlier
        // enqueue wins, and for equal times the lower node id wins —
        // regardless of which enqueue call happened first host-side.
        let f = frame(0x123, 1);
        let mut a = CanBus::new();
        a.enqueue(4, 1, f);
        a.enqueue(2, 0, f);
        a.run(10_000);
        assert_eq!(a.deliveries()[0].node, 0, "earlier enqueue wins");
        let mut b = CanBus::new();
        b.enqueue(0, 1, f);
        b.enqueue(0, 0, f);
        b.run(10_000);
        assert_eq!(b.deliveries()[0].node, 0, "equal times: lower node id wins");
    }

    #[test]
    fn per_id_snapshots_and_span_utilization() {
        let mut bus = CanBus::new();
        bus.enqueue(0, 0, frame(0x100, 4));
        bus.enqueue(0, 1, frame(0x200, 2));
        bus.enqueue(500, 0, frame(0x100, 4));
        assert_eq!(bus.span_utilization(), None, "no deliveries yet");
        bus.run(10_000);
        let worst = bus.worst_latencies();
        assert_eq!(worst.len(), 2, "one entry per distinct id");
        assert_eq!(worst[0].0, CanId::Standard(0x100), "first-delivery order");
        assert_eq!(worst[0].1, bus.worst_latency(CanId::Standard(0x100)).unwrap());
        assert_eq!(worst[1].1, bus.worst_latency(CanId::Standard(0x200)).unwrap());
        assert_eq!(bus.delivery_count(CanId::Standard(0x100)), 2);
        assert_eq!(bus.delivery_count(CanId::Standard(0x200)), 1);
        let u = bus.span_utilization().unwrap();
        assert!(u > 0.0 && u <= 1.0, "{u}");
    }

    #[test]
    fn fifo_within_same_id() {
        let mut bus = CanBus::new();
        let f = frame(0x123, 1);
        bus.enqueue(0, 0, f);
        bus.enqueue(0, 1, f);
        bus.run(10_000);
        assert_eq!(bus.deliveries()[0].node, 0);
        assert_eq!(bus.deliveries()[1].node, 1);
    }

    #[test]
    fn worst_latencies_orders_by_first_data_delivery() {
        // The documented ordering guarantee: entries appear in the order
        // ids first completed a *data* delivery — here 0x200 completes
        // before 0x100 ever does (0x100's first attempt errors), so 0x200
        // leads even though 0x100 was enqueued first and wins priority.
        let mut plan = FaultPlan::new();
        plan.inject_bit_error(10); // corrupts the first transmission
        let mut bus = CanBus::new();
        bus.set_fault_plan(plan);
        bus.enqueue(0, 0, frame(0x100, 2));
        bus.enqueue(0, 1, frame(0x200, 2));
        bus.run(10_000);
        // 0x100 wins arbitration, errors, then loses nothing: it
        // retransmits and wins again (priority) — so 0x100's data
        // delivery still lands first. Force the order by checking the
        // log: error first, then 0x100, then 0x200.
        assert_eq!(bus.deliveries()[0].kind, DeliveryKind::Error);
        let worst = bus.worst_latencies();
        assert_eq!(worst.len(), 2);
        let first_data = bus.deliveries().iter().find(|d| d.is_data()).unwrap();
        assert_eq!(worst[0].0, first_data.frame.id, "first-data-delivery order");
    }

    #[test]
    fn injected_error_forces_retransmission() {
        let mut plan = FaultPlan::new();
        plan.inject_bit_error(20);
        let mut bus = CanBus::new();
        bus.set_fault_plan(plan);
        let f = frame(0x100, 4);
        bus.enqueue(0, 0, f);
        bus.enqueue(0, 1, frame(0x200, 2));
        bus.run(10_000);
        assert_eq!(bus.error_frames(), 1);
        assert_eq!(bus.injections_consumed(), 1);
        let log = bus.deliveries();
        assert_eq!(log[0].kind, DeliveryKind::Error);
        assert_eq!(log[0].frame.id.raw(), 0x100, "winner's attempt aborted");
        assert_eq!(log[0].attempt, 0);
        // The error frame occupies stuffed-data + flag/delimiter/IFS
        // bits, always beyond the scheduler lookahead.
        assert!(log[0].completed_at > u64::from(MIN_WIRE_BITS));
        // The retransmission wins the next arbitration (same priority)
        // and keeps its original enqueue stamp.
        let retx = log.iter().find(|d| d.is_data() && d.frame.id.raw() == 0x100).unwrap();
        assert_eq!(retx.attempt, 1);
        assert_eq!(retx.enqueued_at, 0, "latency spans the failed attempt");
        assert_eq!(retx.frame, f, "payload intact on retransmission");
        assert_eq!(bus.delivery_count(CanId::Standard(0x100)), 1);
        // Counters: one error (+8) then one success (−1).
        assert_eq!(bus.tec(0), 7);
        assert_eq!(bus.rec(1), 0, "receiver's +1 was repaid by two receptions");
        assert_eq!(bus.error_state(0), ErrorState::Active);
    }

    #[test]
    fn injections_on_an_idle_wire_expire() {
        let mut plan = FaultPlan::new();
        plan.inject_bit_error(50); // wire is idle here
        plan.inject_bit_error(5_000);
        let mut bus = CanBus::new();
        bus.set_fault_plan(plan);
        bus.enqueue(1_000, 0, frame(0x100, 1));
        bus.run(10_000);
        assert_eq!(bus.injections_expired(), 1, "instant 50 found no frame");
        assert_eq!(bus.injections_consumed(), 0, "instant 5000 is still ahead");
        assert_eq!(bus.error_frames(), 0);
        assert_eq!(bus.delivery_count(CanId::Standard(0x100)), 1);
    }

    #[test]
    fn corrupt_babbler_marches_to_bus_off() {
        // A corrupt arm's every attempt errors: TEC climbs by 8 per
        // attempt — passive past 127 (16 attempts), bus-off past 255
        // (32 attempts) — then the queue purges and the arm suspends.
        let mut plan = FaultPlan::new();
        plan.add_babbler(BabbleArm {
            node: 9,
            id: CanId::Standard(0x008),
            dlc: 2,
            start: 0,
            period: 10_000, // only the first frame ever fires
            frames: 4,
            corrupt: true,
        });
        let mut bus = CanBus::new();
        bus.register_node(0);
        bus.set_fault_plan(plan);
        bus.run(1_000_000);
        assert_eq!(bus.error_frames(), 32, "32 failed attempts reach TEC 256");
        assert_eq!(bus.tec(9), 256);
        assert_eq!(bus.error_state(9), ErrorState::BusOff);
        assert_eq!(bus.rec(0), 32, "the observer counted every error frame");
        assert_eq!(bus.error_state(0), ErrorState::Active);
        // State log: active → passive at attempt 16, passive → bus-off
        // at attempt 32, in stamp order.
        let transitions: Vec<(ErrorState, ErrorState)> = bus
            .state_log()
            .iter()
            .filter(|c| c.node == 9)
            .map(|c| (c.from, c.to))
            .collect();
        assert_eq!(
            transitions,
            vec![
                (ErrorState::Active, ErrorState::Passive),
                (ErrorState::Passive, ErrorState::BusOff)
            ]
        );
        // Passive error frames are longer (suspend penalty): the stride
        // between consecutive error stamps grows after the transition.
        let stamps: Vec<u64> = bus.deliveries().iter().map(|d| d.completed_at).collect();
        let early = stamps[1] - stamps[0];
        let late = stamps[20] - stamps[19];
        assert_eq!(late - early, 8, "suspend-transmission penalty");
        // No data delivery ever completed; later arm fires are
        // suspended, not queued.
        assert_eq!(bus.delivery_count(CanId::Standard(0x008)), 0);
        assert_eq!(bus.pending(), 0);
        assert_eq!(bus.next_fault_event(), None, "arm suspended for good");
    }

    #[test]
    fn bus_off_rejects_enqueues_until_recovery() {
        let mut plan = FaultPlan::new();
        plan.add_babbler(BabbleArm {
            node: 9,
            id: CanId::Standard(0x008),
            dlc: 0,
            start: 0,
            period: 1,
            frames: 1,
            corrupt: true,
        });
        let mut bus = CanBus::new();
        bus.set_fault_plan(plan);
        bus.run(100_000);
        assert_eq!(bus.error_state(9), ErrorState::BusOff);
        let off_at = bus.state_log().last().unwrap().at;
        // Submissions while bus-off are rejected and counted.
        bus.enqueue(off_at + 10, 9, frame(0x008, 1));
        assert_eq!(bus.rejected_tx(), 1);
        assert_eq!(bus.pending(), 0);
        // Recovery: request, wait 128×11 bits, rejoin error-active with
        // cleared counters; the transition is stamped at the exact
        // completion bit and visible via next_fault_event beforehand.
        bus.request_recovery(9, off_at + 100);
        let rejoin = off_at + 100 + BUS_OFF_RECOVERY_BITS;
        assert_eq!(bus.next_fault_event(), Some(rejoin));
        assert_eq!(bus.state_at(9, rejoin - 1), ErrorState::BusOff);
        assert_eq!(bus.state_at(9, rejoin), ErrorState::Active);
        bus.run(rejoin + 1);
        let last = *bus.state_log().last().unwrap();
        assert_eq!((last.at, last.node, last.to), (rejoin, 9, ErrorState::Active));
        assert_eq!(bus.tec(9), 0, "counters clear on rejoin");
        // And the node transmits again (enqueue at processed wire time —
        // the first run already advanced `now` past the rejoin stamp).
        bus.enqueue(bus.now(), 9, frame(0x100, 1));
        bus.run(bus.now() + 10_000);
        assert_eq!(bus.delivery_count(CanId::Standard(0x100)), 1);
    }

    #[test]
    fn valid_babble_frames_deliver_and_win_priority() {
        // A non-corrupt babbler floods a high-priority id: its garbage
        // delivers and blocks lower-priority traffic while it lasts.
        let mut plan = FaultPlan::new();
        plan.add_babbler(BabbleArm {
            node: 5,
            id: CanId::Standard(0x010),
            dlc: 2,
            start: 0,
            period: 50,
            frames: 3,
            corrupt: false,
        });
        let mut bus = CanBus::new();
        bus.set_fault_plan(plan);
        bus.enqueue(0, 0, frame(0x300, 2));
        bus.run(100_000);
        assert_eq!(bus.delivery_count(CanId::Standard(0x010)), 3);
        assert_eq!(bus.delivery_count(CanId::Standard(0x300)), 1);
        // The babble won every head-to-head arbitration.
        assert_eq!(bus.deliveries()[0].frame.id.raw(), 0x010);
        let victim = bus.deliveries().iter().find(|d| d.frame.id.raw() == 0x300).unwrap();
        assert!(victim.latency() > u64::from(frame(0x010, 2).wire_bits()));
        assert_eq!(bus.error_frames(), 0);
    }

    #[test]
    fn error_burst_degrades_then_recovers() {
        // Periodic traffic with a seeded burst in the middle: latencies
        // inflate under the burst, then return to the clean wire time.
        let f = frame(0x100, 4);
        let clean = u64::from(f.wire_bits());
        let mut plan = FaultPlan::new();
        // The k = 4 frame transmits over [2000, 2000 + data bits): a
        // burst window inside that interval is guaranteed to hit it.
        plan.add_error_burst(7, 2_000, 2_040, 4);
        let mut bus = CanBus::new();
        bus.set_fault_plan(plan);
        for k in 0..10u64 {
            bus.enqueue(k * 500, 0, f);
        }
        bus.run(100_000);
        assert_eq!(bus.delivery_count(CanId::Standard(0x100)), 10, "all recovered");
        assert!(bus.error_frames() >= 1, "burst hit in-flight frames");
        let data: Vec<&Delivery> =
            bus.deliveries().iter().filter(|d| d.is_data()).collect();
        let worst = data.iter().map(|d| d.latency()).max().unwrap();
        assert!(worst > clean, "burst inflated at least one latency");
        assert_eq!(data.last().unwrap().latency(), clean, "post-burst is clean");
        // tec decayed back: errors × 8 minus a success each delivery.
        assert!(bus.tec(0) < bus.error_frames() as u32 * 8);
    }
}
