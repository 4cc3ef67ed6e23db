//! Pluggable bus devices: a compare-match timer, a memory-mapped CAN
//! controller and a countdown watchdog.
//!
//! All are ordinary [`Device`] implementations attached through
//! [`crate::MachineConfig::devices`]; guest programs drive them purely
//! with loads and stores, and receive their events as interrupts — no
//! host-side calls are involved once the machine runs.
//!
//! A CAN controller ([`CanController::attached`]) transmits on a
//! [`SharedCanBus`] that only [`crate::System::run`] advances: even a
//! lone machine exchanging loopback frames with itself is a one-node
//! system.
//!
//! # Timer register map (word offsets from [`crate::TIMER_BASE`])
//!
//! | off | name    | read                      | write                        |
//! |-----|---------|---------------------------|------------------------------|
//! | 0   | CTRL    | bit0 enable, bit1 periodic| same bits; enabling arms the |
//! |     |         |                           | compare at `now + COMPARE`   |
//! | 4   | COMPARE | programmed period (cycles)| sets the period              |
//! | 8   | COUNT   | cycles until the next fire| —                            |
//! | 12  | STATUS  | fires since enable        | —                            |
//!
//! # CAN controller register map (word offsets from [`crate::CAN_BASE`])
//!
//! | off | name      | read                  | write                       |
//! |-----|-----------|-----------------------|-----------------------------|
//! | 0   | `TX_ID`   | staged id             | arbitration id (bit 31 = extended) |
//! | 4   | `TX_DLC`  | staged dlc            | payload length 0..=8        |
//! | 8   | `TX_DATA0`| staged bytes 0–3      | payload bytes 0–3           |
//! | 12  | `TX_DATA1`| staged bytes 4–7      | payload bytes 4–7           |
//! | 16  | `TX_GO`   | frames submitted      | any value submits the frame |
//! | 20  | `RX_STATUS`| RX FIFO depth        | —                           |
//! | 24  | `RX_ID`   | head frame id         | —                           |
//! | 28  | `RX_DLC`  | head frame dlc        | —                           |
//! | 32  | `RX_DATA0`| head bytes 0–3        | —                           |
//! | 36  | `RX_DATA1`| head bytes 4–7        | —                           |
//! | 40  | `RX_POP`  | frames received       | any value pops the head     |
//! | 44  | `RX_OVERFLOW` | deliveries dropped at a full FIFO (drop-newest) | — |
//! | 48  | `ERR_STATE` | 0 active / 1 passive / 2 bus-off | —            |
//! | 52  | `TEC`     | transmit error counter | —                          |
//! | 56  | `REC`     | receive error counter | —                           |
//! | 60  | `ERR_RECOVER` | 0                 | any value requests bus-off recovery |
//! | 64  | `ACC_ID`  | acceptance filter id  | sets the filter id          |
//! | 68  | `ACC_MASK`| acceptance filter mask| sets the mask (0 = accept all) |
//! | 72  | `RX_FILTERED` | deliveries rejected by the acceptance filter | — |
//!
//! The error registers (48–60) mirror the wire's fault-confinement state
//! **at guest time**: the controller derives TEC/REC/state by walking the
//! wire's delivery and state logs up to the current cycle, never by
//! reading the live bus counters (which may have been processed ahead of
//! the guest clock) — so a guest's reads are bit-identical across
//! scheduler quantum sizes. A state transition of this controller's node
//! raises `err_irq` at its exact wire stamp.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use alia_can::{
    CanBus, CanFrame, CanId, Delivery, DeliveryKind, ErrorState, FaultPlan, StateChange,
    MIN_WIRE_BITS,
};

use crate::bus::{Device, DeviceCtx};

// ---------------------------------------------------------------------
// Compare-match timer
// ---------------------------------------------------------------------

/// Static configuration of a [`Timer`] device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerConfig {
    /// Window base address (default [`crate::TIMER_BASE`]).
    pub base: u32,
    /// IRQ line raised on compare match.
    pub irq: u32,
    /// Reset value of the COMPARE register (guest-writable).
    pub compare: u32,
}

impl Default for TimerConfig {
    fn default() -> TimerConfig {
        TimerConfig { base: crate::TIMER_BASE, irq: 0, compare: 10_000 }
    }
}

/// A compare-match timer: counts machine cycles and raises its IRQ when
/// the programmed compare value elapses, one-shot or periodically.
#[derive(Debug, Clone)]
pub struct Timer {
    config: TimerConfig,
    compare: u32,
    enabled: bool,
    periodic: bool,
    next_fire: u64,
    fires: u64,
}

impl Timer {
    /// Builds a disarmed timer.
    #[must_use]
    pub fn new(config: TimerConfig) -> Timer {
        Timer {
            compare: config.compare,
            config,
            enabled: false,
            periodic: false,
            next_fire: u64::MAX,
            fires: 0,
        }
    }

    /// Number of compare matches since construction.
    #[must_use]
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> TimerConfig {
        self.config
    }
}

impl Device for Timer {
    fn read32(&self, off: u32, now: u64, _active_irq: u32) -> u32 {
        match off {
            0 => u32::from(self.enabled) | u32::from(self.periodic) << 1,
            4 => self.compare,
            8 if self.enabled => self.next_fire.saturating_sub(now) as u32,
            12 => self.fires as u32,
            _ => 0,
        }
    }

    fn write32(&mut self, off: u32, value: u32, ctx: &mut DeviceCtx<'_>) {
        match off {
            0 => {
                let enable = value & 1 != 0;
                self.periodic = value & 2 != 0;
                if enable && !self.enabled {
                    self.next_fire = ctx.now + u64::from(self.compare.max(1));
                }
                self.enabled = enable;
                if !enable {
                    self.next_fire = u64::MAX;
                }
            }
            4 => self.compare = value,
            _ => {}
        }
    }

    fn tick(&mut self, ctx: &mut DeviceCtx<'_>) {
        while self.enabled && self.next_fire <= ctx.now {
            let at = self.next_fire;
            self.fires += 1;
            ctx.signals.raise_irq_at(self.config.irq, at);
            if self.periodic {
                self.next_fire = at + u64::from(self.compare.max(1));
            } else {
                self.enabled = false;
                self.next_fire = u64::MAX;
            }
        }
    }

    fn next_event(&self) -> Option<u64> {
        self.enabled.then_some(self.next_fire)
    }
}

// ---------------------------------------------------------------------
// Shared CAN wire
// ---------------------------------------------------------------------

/// A CAN wire shared by several [`CanController`]s across machines: the
/// arbitrating [`alia_can::CanBus`] behind a clonable handle.
///
/// Controllers attach with [`CanController::attached`] (or
/// [`crate::DeviceSpec::SharedCan`]); each keeps its own TX staging
/// registers and RX FIFO while the wire state — pending queue,
/// arbitration, deliveries, `busy_until` — lives here. The wire is
/// advanced only at scheduler quantum boundaries ([`crate::System`]),
/// never by an attached controller, so arbitration sees every node's
/// enqueues for a window before deciding a winner and results are
/// independent of host iteration order.
///
/// Time on the wire is in CAN bit times; `cycles_per_bit` fixes the
/// core-clock ratio for *every* attached controller (a shared wire has
/// one bit rate).
///
/// Cloning the handle shares the wire (it is the attachment handle, not
/// a deep copy) — which also means cloning a `Machine` carrying a shared
/// controller yields a machine on the *same* wire.
/// [`crate::System::fork`] deep-copies wires with
/// [`SharedCanBus::fork_detached`] and rebinds the forked machines'
/// controllers so a forked system is fully independent of the original.
///
/// The wire state sits behind a `Mutex` so a prepared [`crate::System`]
/// can be shared by reference across campaign worker threads (each
/// forks it onto detached wires). Arbitration orders the pending queue
/// by `(id, enqueue time, node, per-node sequence)` — a total order
/// independent of host insertion order — and the wire itself is only
/// advanced in the scheduler's boundary phase.
#[derive(Debug, Clone)]
pub struct SharedCanBus {
    inner: Arc<Mutex<CanBus>>,
    cycles_per_bit: u64,
    name: Arc<str>,
}

impl SharedCanBus {
    /// A new idle wire with the given name and core-cycles-per-bit ratio
    /// (multi-wire topologies name their wires — `"sensor"`,
    /// `"backbone"` — and reports key on it).
    #[must_use]
    pub fn named(name: impl Into<String>, cycles_per_bit: u64) -> SharedCanBus {
        SharedCanBus {
            inner: Arc::new(Mutex::new(CanBus::new())),
            cycles_per_bit: cycles_per_bit.max(1),
            name: name.into().into(),
        }
    }

    /// A deep copy of the wire on a **new** identity: same name, same
    /// bit rate, and a byte-for-byte clone of the current bus state
    /// (pending queue, logs, stations, fault plan), but
    /// [`SharedCanBus::same_wire`] is false against the original —
    /// traffic on one never appears on the other. This is the wire half
    /// of [`crate::System::fork`].
    #[must_use]
    pub fn fork_detached(&self) -> SharedCanBus {
        SharedCanBus {
            inner: Arc::new(Mutex::new(self.inner.lock().unwrap().clone())),
            cycles_per_bit: self.cycles_per_bit,
            name: Arc::clone(&self.name),
        }
    }

    /// The wire's name (shared by every handle clone).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Core cycles per CAN bit time on this wire.
    #[must_use]
    pub fn cycles_per_bit(&self) -> u64 {
        self.cycles_per_bit
    }

    /// Whether two handles refer to the same physical wire.
    #[must_use]
    pub fn same_wire(&self, other: &SharedCanBus) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The scheduler lookahead in core cycles: no frame enqueued at
    /// cycle `t` can complete before `t + min_quantum_cycles()`, so
    /// quanta at or below this bound deliver cross-node frames
    /// cycle-accurately. The bound is [`alia_can::MIN_WIRE_BITS`] bit
    /// times minus the enqueue rounding slack: enqueue cycles
    /// floor-divide into bit times, letting a frame start up to
    /// `cycles_per_bit - 1` cycles "early" in bit units, and the
    /// guarantee must hold for any boundary alignment. Saturates at
    /// `u64::MAX` on very slow wires.
    #[must_use]
    pub fn min_quantum_cycles(&self) -> u64 {
        // MIN_WIRE_BITS * cpb - (cpb - 1), without the overflowing product.
        (u64::from(MIN_WIRE_BITS) - 1).saturating_mul(self.cycles_per_bit).saturating_add(1)
    }

    /// Runs arbitration and transmission up to core cycle `cycle` and
    /// returns the wire's [`WireView`], read under the same lock. Only
    /// [`crate::System::run`] calls it (and in-crate tests that play the
    /// scheduler).
    pub(crate) fn advance(&self, cycle: u64) -> WireView {
        let mut bus = self.inner.lock().unwrap();
        bus.run(cycle / self.cycles_per_bit);
        self.view_of(&bus)
    }

    /// The wire's current [`WireView`].
    pub(crate) fn view(&self) -> WireView {
        self.view_of(&self.inner.lock().unwrap())
    }

    fn view_of(&self, bus: &CanBus) -> WireView {
        let cycles = |bits: u64| bits.saturating_mul(self.cycles_per_bit);
        WireView {
            busy_until: cycles(bus.busy_until()),
            earliest_enqueue: bus.earliest_enqueue().map(cycles),
            next_fault: bus.next_fault_event().map(cycles),
            log_len: bus.deliveries().len() + bus.state_log().len(),
        }
    }

    /// Frames queued but not yet transmitted.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.inner.lock().unwrap().pending()
    }

    /// Number of deliveries completed so far.
    #[must_use]
    pub fn deliveries_len(&self) -> usize {
        self.inner.lock().unwrap().deliveries().len()
    }

    /// The `i`-th delivery, if completed.
    #[must_use]
    pub fn delivery(&self, i: usize) -> Option<Delivery> {
        self.inner.lock().unwrap().deliveries().get(i).copied()
    }

    /// A snapshot of the full delivery log (determinism tests compare
    /// these across scheduler configurations).
    #[must_use]
    pub fn delivery_log(&self) -> Vec<Delivery> {
        self.inner.lock().unwrap().deliveries().to_vec()
    }

    /// Worst observed queue-to-completion latency for `id`, bit times.
    #[must_use]
    pub fn worst_latency(&self, id: CanId) -> Option<u64> {
        self.inner.lock().unwrap().worst_latency(id)
    }

    /// Worst observed latency for every distinct id on the wire (bit
    /// times, first-delivery order) — the per-wire snapshot an
    /// executed-vs-analytic validation feeds to `alia_can::response_bound`.
    #[must_use]
    pub fn worst_latencies(&self) -> Vec<(CanId, u64)> {
        self.inner.lock().unwrap().worst_latencies()
    }

    /// Utilization over the active window (first enqueue to last
    /// completion) — comparable to the analytic steady-state utilization
    /// of the offered load, and independent of where the scheduler's
    /// quantum boundaries fell. `None` before the first delivery.
    #[must_use]
    pub fn span_utilization(&self) -> Option<f64> {
        self.inner.lock().unwrap().span_utilization()
    }

    /// Transmits everything still queued ([`CanBus::settle`]) so
    /// utilization and latency reports account for every guest-enqueued
    /// frame, even ones submitted just before a machine halted.
    pub fn settle(&self) {
        self.inner.lock().unwrap().settle();
    }

    /// Installs a [`FaultPlan`] on the wire: scheduled bit errors and
    /// babbling-idiot arms take effect as wire time advances.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.lock().unwrap().set_fault_plan(plan);
    }

    /// Registers a station on the wire (attached controllers do this
    /// automatically) so its REC observes errors before it transmits.
    pub fn register_node(&self, node: usize) {
        self.inner.lock().unwrap().register_node(node);
    }

    /// Requests bus-off recovery for `node` at core cycle `at_cycle`.
    pub fn request_recovery(&self, node: usize, at_cycle: u64) {
        self.inner.lock().unwrap().request_recovery(node, at_cycle / self.cycles_per_bit);
    }

    /// The station's error state as of processed wire time.
    #[must_use]
    pub fn error_state(&self, node: usize) -> ErrorState {
        self.inner.lock().unwrap().error_state(node)
    }

    /// The station's transmit error counter.
    #[must_use]
    pub fn tec(&self, node: usize) -> u32 {
        self.inner.lock().unwrap().tec(node)
    }

    /// The station's receive error counter.
    #[must_use]
    pub fn rec(&self, node: usize) -> u32 {
        self.inner.lock().unwrap().rec(node)
    }

    /// The `i`-th error-state transition, if logged.
    #[must_use]
    pub fn state_change(&self, i: usize) -> Option<StateChange> {
        self.inner.lock().unwrap().state_log().get(i).copied()
    }

    /// A snapshot of the error-state transition log (determinism sweeps
    /// compare these across scheduler configurations, like the delivery
    /// log).
    #[must_use]
    pub fn state_log(&self) -> Vec<StateChange> {
        self.inner.lock().unwrap().state_log().to_vec()
    }

    /// Error frames signalled on the wire so far.
    #[must_use]
    pub fn error_frames(&self) -> u64 {
        self.inner.lock().unwrap().error_frames()
    }

    /// Scheduled bit errors consumed by transmissions.
    #[must_use]
    pub fn injections_consumed(&self) -> u64 {
        self.inner.lock().unwrap().injections_consumed()
    }

    /// Scheduled bit errors that expired on an idle wire.
    #[must_use]
    pub fn injections_expired(&self) -> u64 {
        self.inner.lock().unwrap().injections_expired()
    }

    /// Enqueues rejected because the submitting node was bus-off.
    #[must_use]
    pub fn rejected_tx(&self) -> u64 {
        self.inner.lock().unwrap().rejected_tx()
    }

    /// Queued frames purged when their node went bus-off.
    #[must_use]
    pub fn purged_tx(&self) -> u64 {
        self.inner.lock().unwrap().purged_tx()
    }

    pub(crate) fn enqueue(&self, at_bits: u64, node: usize, frame: CanFrame) {
        self.inner.lock().unwrap().enqueue(at_bits, node, frame);
    }
}

/// What [`crate::System`] needs to know about a wire between quanta,
/// taken in one lock right after the wire ran to a boundary: the
/// boundary computation, the quiescence check and the re-arm decision
/// then read this copy and lock nothing. All stamps are core cycles.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WireView {
    /// Completion of the frame on the wire (or of the last one): no new
    /// arbitration starts earlier.
    pub(crate) busy_until: u64,
    /// The earliest enqueue stamp among the frames queued but not yet
    /// transmitted; `None` when nothing is queued.
    pub(crate) earliest_enqueue: Option<u64>,
    /// The next cycle the wire's fault plan acts by itself — a babble
    /// enqueue or a bus-off recovery completion
    /// ([`alia_can::CanBus::next_fault_event`]). No quantum boundary
    /// may skip past it, and a system with one pending is not
    /// quiescent.
    pub(crate) next_fault: Option<u64>,
    /// Delivery-log plus state-log length: when it grows, the wire's
    /// clients have something new to examine.
    pub(crate) log_len: usize,
}

// ---------------------------------------------------------------------
// Memory-mapped CAN controller
// ---------------------------------------------------------------------

/// Static configuration of a [`CanController`] device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanConfig {
    /// Window base address (default [`crate::CAN_BASE`]).
    pub base: u32,
    /// IRQ line raised when a frame lands in the RX FIFO.
    pub irq: u32,
    /// This controller's node id on the bus.
    pub node: usize,
    /// Whether the controller receives its own transmissions (loopback
    /// test mode — lets a single machine exchange frames with itself).
    pub loopback: bool,
    /// RX FIFO depth in frames. The overflow policy is **drop-newest**:
    /// a delivery arriving at a full FIFO is discarded (the FIFO's
    /// oldest frames are preserved — the guest drains in arrival order)
    /// and counted in the `RX_OVERFLOW` register; no RX interrupt is
    /// raised for a dropped frame.
    pub rx_capacity: usize,
    /// IRQ line raised when this node's error state changes
    /// (active ⇄ passive, → bus-off, recovery → active), stamped at the
    /// exact wire bit of the transition.
    pub err_irq: u32,
    /// Reset value of the `ACC_ID` acceptance-filter register
    /// (guest-writable at offset 64).
    pub filter_id: u32,
    /// Reset value of the `ACC_MASK` register (offset 68). A delivery is
    /// accepted when `(id & mask) == (filter_id & mask)`; a mask of 0
    /// accepts everything (the reset default).
    pub filter_mask: u32,
}

impl Default for CanConfig {
    fn default() -> CanConfig {
        CanConfig {
            base: crate::CAN_BASE,
            irq: 1,
            node: 0,
            loopback: false,
            rx_capacity: 16,
            err_irq: 4,
            filter_id: 0,
            filter_mask: 0,
        }
    }
}

/// A memory-mapped CAN controller on a [`SharedCanBus`]: guest stores
/// stage and submit TX frames, wire deliveries land in an RX FIFO and
/// raise the RX interrupt at the cycle the frame completes on the wire.
///
/// A clone stays on the same wire (the handle is the attachment, not
/// the wire state); [`crate::System::fork`] forks a whole topology onto
/// detached wire copies.
#[derive(Debug, Clone)]
pub struct CanController {
    config: CanConfig,
    wire: SharedCanBus,
    tx_id: u32,
    tx_dlc: u32,
    tx_data: [u32; 2],
    tx_count: u64,
    rx_fifo: VecDeque<CanFrame>,
    rx_count: u64,
    rx_overflows: u64,
    deliveries_seen: usize,
    /// Next cycle the controller wants a tick (`u64::MAX` = idle): the
    /// arrival of the first wire event not yet examined, armed by
    /// [`Device::note_wire_progress`].
    poll_at: u64,
    /// Guest-writable acceptance filter (ACC_ID / ACC_MASK).
    filter_id: u32,
    filter_mask: u32,
    rx_filtered: u64,
    /// Wire state-log entries absorbed so far (mirror cursor).
    state_seen: usize,
    /// Guest-time mirrors of the wire's fault-confinement registers —
    /// rebuilt from the delivery and state logs up to the current cycle,
    /// never read from the live bus (which may be ahead of guest time).
    tec_mirror: u32,
    rec_mirror: u32,
    err_state_mirror: ErrorState,
}

impl CanController {
    /// Builds an idle controller attached to `wire`, whose bit rate it
    /// runs at. `config.node` must be unique among the wire's stations.
    #[must_use]
    pub fn attached(config: CanConfig, wire: &SharedCanBus) -> CanController {
        // Register the station on its wire so REC tracks observed errors
        // from time zero (mirrors then agree with the bus counters).
        wire.register_node(config.node);
        CanController {
            config,
            wire: wire.clone(),
            tx_id: 0,
            tx_dlc: 0,
            tx_data: [0; 2],
            tx_count: 0,
            rx_fifo: VecDeque::new(),
            rx_count: 0,
            rx_overflows: 0,
            deliveries_seen: 0,
            poll_at: u64::MAX,
            filter_id: config.filter_id,
            filter_mask: config.filter_mask,
            rx_filtered: 0,
            state_seen: 0,
            tec_mirror: 0,
            rec_mirror: 0,
            err_state_mirror: ErrorState::Active,
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> CanConfig {
        self.config
    }

    /// Frames submitted by the guest so far.
    #[must_use]
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// Frames received into the FIFO so far.
    #[must_use]
    pub fn rx_count(&self) -> u64 {
        self.rx_count
    }

    /// Deliveries dropped because the RX FIFO was full (drop-newest
    /// overflow policy — see [`CanConfig::rx_capacity`]).
    #[must_use]
    pub fn rx_overflows(&self) -> u64 {
        self.rx_overflows
    }

    /// Deliveries rejected by the acceptance filter (they never entered
    /// the FIFO and raised no RX interrupt).
    #[must_use]
    pub fn rx_filtered(&self) -> u64 {
        self.rx_filtered
    }

    /// The node's error state as mirrored at guest time (`ERR_STATE`).
    #[must_use]
    pub fn error_state(&self) -> ErrorState {
        self.err_state_mirror
    }

    /// The guest-time TEC mirror (`TEC` register).
    #[must_use]
    pub fn tec(&self) -> u32 {
        self.tec_mirror
    }

    /// The guest-time REC mirror (`REC` register).
    #[must_use]
    pub fn rec(&self) -> u32 {
        self.rec_mirror
    }

    /// The wire the controller is attached to (utilization, latencies,
    /// delivery and state logs, fault plans).
    #[must_use]
    pub fn wire(&self) -> &SharedCanBus {
        &self.wire
    }

    /// Host-side traffic injection: enqueues `frame` from remote node
    /// `node` on the controller's wire at bit time `at_bits`. The frame
    /// is transmitted, and reaches the FIFO, when
    /// [`crate::System::run`] next runs the wire.
    pub fn host_enqueue(&self, at_bits: u64, node: usize, frame: CanFrame) {
        self.wire.enqueue(at_bits, node, frame);
    }

    /// Absorbs wire state-log entries stamped at or before `up_to`
    /// core cycles into the guest-time mirrors; a transition of this
    /// node raises the error IRQ at its exact stamp, and a bus-off →
    /// active recovery clears the counter mirrors (the wire cleared the
    /// real ones at the same stamp).
    fn absorb_state_changes(&mut self, up_to: u64, ctx: &mut DeviceCtx<'_>) {
        let cpb = self.wire.cycles_per_bit();
        while let Some(c) = self.wire.state_change(self.state_seen) {
            let at = c.at.saturating_mul(cpb);
            if at > up_to {
                break;
            }
            self.state_seen += 1;
            if c.node != self.config.node {
                continue;
            }
            self.err_state_mirror = c.to;
            if c.from == ErrorState::BusOff && c.to == ErrorState::Active {
                self.tec_mirror = 0;
                self.rec_mirror = 0;
            }
            ctx.signals.raise_irq_at(self.config.err_irq, at);
        }
    }

    fn staged_frame(&self) -> CanFrame {
        let mut data = [0u8; 8];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (self.tx_data[i / 4] >> (8 * (i % 4))) as u8;
        }
        let dlc = self.tx_dlc.min(8) as usize;
        let id = if self.tx_id & 1 << 31 != 0 {
            CanId::Extended(self.tx_id & 0x1FFF_FFFF)
        } else {
            CanId::Standard((self.tx_id & 0x7FF) as u16)
        };
        CanFrame::new(id, &data[..dlc])
    }

    fn frame_id_word(frame: &CanFrame) -> u32 {
        match frame.id {
            CanId::Standard(v) => u32::from(v),
            CanId::Extended(v) => v | 1 << 31,
        }
    }

    fn head_data_word(&self, word: usize) -> u32 {
        self.rx_fifo.front().map_or(0, |f| {
            let mut v = 0u32;
            for i in (0..4).rev() {
                v = v << 8 | u32::from(f.data[word * 4 + i]);
            }
            v
        })
    }

    /// Advances the controller to `now`, collecting what the wire has
    /// logged (the scheduler runs the wire at quantum boundaries):
    /// deliveries whose completion cycle has been reached land in the
    /// RX FIFO.
    fn advance(&mut self, now: u64, ctx: &mut DeviceCtx<'_>) {
        let cpb = self.wire.cycles_per_bit();
        self.poll_at = u64::MAX;
        while let Some(d) = self.wire.delivery(self.deliveries_seen) {
            let arrival = d.completed_at.saturating_mul(cpb);
            if arrival > now {
                // Completion is still in the future of the core clock;
                // re-tick exactly then.
                self.poll_at = arrival;
                break;
            }
            // Keep the mirrors in event order: state transitions stamped
            // before this delivery (e.g. a recovery reset) apply first.
            self.absorb_state_changes(arrival, ctx);
            self.deliveries_seen += 1;
            match d.kind {
                DeliveryKind::Error => {
                    // Mirror the wire's fault-confinement arithmetic at
                    // guest time: transmitter +8, every observer +1.
                    if d.node == self.config.node {
                        self.tec_mirror += 8;
                    } else {
                        self.rec_mirror += 1;
                    }
                    continue;
                }
                DeliveryKind::Data => {
                    if d.node == self.config.node {
                        self.tec_mirror = self.tec_mirror.saturating_sub(1);
                    } else {
                        self.rec_mirror = self.rec_mirror.saturating_sub(1);
                    }
                }
            }
            if self.config.loopback || d.node != self.config.node {
                let raw = Self::frame_id_word(&d.frame);
                if raw & self.filter_mask != self.filter_id & self.filter_mask {
                    // Acceptance filter: the frame never reaches the FIFO
                    // and raises no RX interrupt (but the REC mirror above
                    // still saw the reception, like real silicon).
                    self.rx_filtered += 1;
                } else if self.rx_fifo.len() >= self.config.rx_capacity.max(1) {
                    // Drop-newest: the FIFO keeps its oldest frames (the
                    // guest drains in arrival order); the new delivery is
                    // lost, counted, and raises no RX interrupt.
                    self.rx_overflows += 1;
                } else {
                    self.rx_fifo.push_back(d.frame);
                    self.rx_count += 1;
                    ctx.signals.raise_irq_at(self.config.irq, arrival);
                }
            }
        }
        self.absorb_state_changes(now, ctx);
    }
}

impl Device for CanController {
    fn read32(&self, off: u32, _now: u64, _active_irq: u32) -> u32 {
        match off {
            0 => self.tx_id,
            4 => self.tx_dlc,
            8 => self.tx_data[0],
            12 => self.tx_data[1],
            16 => self.tx_count as u32,
            20 => self.rx_fifo.len() as u32,
            24 => self.rx_fifo.front().map_or(0, Self::frame_id_word),
            28 => self.rx_fifo.front().map_or(0, |f| u32::from(f.dlc)),
            32 => self.head_data_word(0),
            36 => self.head_data_word(1),
            40 => self.rx_count as u32,
            44 => self.rx_overflows as u32,
            48 => self.err_state_mirror.as_u32(),
            52 => self.tec_mirror,
            56 => self.rec_mirror,
            64 => self.filter_id,
            68 => self.filter_mask,
            72 => self.rx_filtered as u32,
            _ => 0,
        }
    }

    fn write32(&mut self, off: u32, value: u32, ctx: &mut DeviceCtx<'_>) {
        match off {
            0 => self.tx_id = value,
            4 => self.tx_dlc = value,
            8 => self.tx_data[0] = value,
            12 => self.tx_data[1] = value,
            16 => {
                // The controller only enqueues: the scheduler runs the
                // wire and re-arms the tick for the delivery.
                let frame = self.staged_frame();
                self.wire.enqueue(ctx.now / self.wire.cycles_per_bit(), self.config.node, frame);
                self.tx_count += 1;
            }
            40 => {
                self.rx_fifo.pop_front();
            }
            60 => {
                // ERR_RECOVER: request bus-off recovery at the current
                // cycle; the wire rejoins the node (counters cleared,
                // error IRQ raised) once the recovery interval elapses.
                self.wire.request_recovery(self.config.node, ctx.now);
            }
            64 => self.filter_id = value,
            68 => self.filter_mask = value,
            _ => {}
        }
    }

    fn tick(&mut self, ctx: &mut DeviceCtx<'_>) {
        let now = ctx.now;
        self.advance(now, ctx);
    }

    fn next_event(&self) -> Option<u64> {
        (self.poll_at != u64::MAX).then_some(self.poll_at)
    }

    fn wire_attachments(&self) -> Vec<(SharedCanBus, usize)> {
        vec![(self.wire.clone(), self.config.node)]
    }

    /// Re-arms the tick at the arrival cycle of the first delivery — or
    /// own-node error-state transition — not yet examined, so frame
    /// reception and error IRQs stay cycle-accurate without the
    /// controller ever running its wire.
    fn note_wire_progress(&mut self) {
        let cpb = self.wire.cycles_per_bit();
        if let Some(d) = self.wire.delivery(self.deliveries_seen) {
            self.poll_at = self.poll_at.min(d.completed_at.saturating_mul(cpb));
        }
        let mut i = self.state_seen;
        while let Some(c) = self.wire.state_change(i) {
            if c.node == self.config.node {
                self.poll_at = self.poll_at.min(c.at.saturating_mul(cpb));
                break;
            }
            i += 1;
        }
    }

    fn rebind_wires(&mut self, from: &[SharedCanBus], to: &[SharedCanBus]) {
        if let Some(i) = from.iter().position(|w| w.same_wire(&self.wire)) {
            self.wire = to[i].clone();
        }
    }

    fn publish_metrics(&self, reg: &mut alia_obs::metrics::Registry, prefix: &str) {
        reg.counter(&format!("{prefix}can.tx_count"), self.tx_count);
        reg.counter(&format!("{prefix}can.rx_count"), self.rx_count);
        reg.counter(&format!("{prefix}can.rx_overflows"), self.rx_overflows);
        reg.counter(&format!("{prefix}can.rx_filtered"), self.rx_filtered);
        // Error counters are point-in-time values, not monotonic
        // totals: gauges, so campaign merges keep the worst case.
        reg.gauge(&format!("{prefix}can.tec"), f64::from(self.tec_mirror));
        reg.gauge(&format!("{prefix}can.rec"), f64::from(self.rec_mirror));
    }
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

/// Static configuration of a [`Watchdog`] device.
///
/// # Register map (word offsets from [`crate::WATCHDOG_BASE`])
///
/// | off | name    | read                      | write                      |
/// |-----|---------|---------------------------|----------------------------|
/// | 0   | CTRL    | bit0 enabled              | bit0 arms at `now+TIMEOUT` |
/// | 4   | TIMEOUT | countdown period (cycles) | sets the period            |
/// | 8   | KICK    | 0                         | any value restarts the countdown (ignored while disarmed — arm via CTRL first, and re-arm after a bite) |
/// | 12  | COUNT   | cycles until expiry       | —                          |
/// | 16  | STATUS  | expiries ("bites")        | —                          |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Window base address (default [`crate::WATCHDOG_BASE`]).
    pub base: u32,
    /// IRQ line raised on expiry. Wire it as the machine's NMI
    /// (`machine.irq.nmi`) for the classic can't-be-masked watchdog.
    pub irq: u32,
    /// Reset value of the TIMEOUT register (guest-writable).
    pub timeout: u32,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig { base: crate::WATCHDOG_BASE, irq: 2, timeout: 50_000 }
    }
}

/// A countdown watchdog: once armed, it must be kicked within TIMEOUT
/// cycles or it raises its (NMI-style) IRQ at the precise expiry cycle
/// and disarms. Multi-ECU scenarios use it to detect a stalled peer —
/// the guest kicks on every received frame, so a silent producer lets
/// the countdown run out.
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    timeout: u32,
    enabled: bool,
    deadline: u64,
    bites: u64,
}

impl Watchdog {
    /// Builds a disarmed watchdog.
    #[must_use]
    pub fn new(config: WatchdogConfig) -> Watchdog {
        Watchdog {
            timeout: config.timeout,
            config,
            enabled: false,
            deadline: u64::MAX,
            bites: 0,
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> WatchdogConfig {
        self.config
    }

    /// Expiries since construction.
    #[must_use]
    pub fn bites(&self) -> u64 {
        self.bites
    }
}

impl Device for Watchdog {
    fn read32(&self, off: u32, now: u64, _active_irq: u32) -> u32 {
        match off {
            0 => u32::from(self.enabled),
            4 => self.timeout,
            12 if self.enabled => self.deadline.saturating_sub(now) as u32,
            16 => self.bites as u32,
            _ => 0,
        }
    }

    fn write32(&mut self, off: u32, value: u32, ctx: &mut DeviceCtx<'_>) {
        match off {
            0 => {
                let enable = value & 1 != 0;
                if enable {
                    self.deadline = ctx.now + u64::from(self.timeout.max(1));
                } else {
                    self.deadline = u64::MAX;
                }
                self.enabled = enable;
            }
            4 => self.timeout = value,
            8 if self.enabled => {
                self.deadline = ctx.now + u64::from(self.timeout.max(1));
            }
            _ => {}
        }
    }

    fn tick(&mut self, ctx: &mut DeviceCtx<'_>) {
        if self.enabled && self.deadline <= ctx.now {
            let at = self.deadline;
            self.bites += 1;
            self.enabled = false;
            self.deadline = u64::MAX;
            ctx.signals.raise_irq_at(self.config.irq, at);
        }
    }

    fn next_event(&self) -> Option<u64> {
        self.enabled.then_some(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusSignals;

    fn ctx(now: u64, signals: &mut BusSignals) -> DeviceCtx<'_> {
        DeviceCtx { now, signals }
    }

    #[test]
    fn timer_fires_periodically() {
        let mut t = Timer::new(TimerConfig { base: crate::TIMER_BASE, irq: 5, compare: 100 });
        let mut s = BusSignals::default();
        assert_eq!(t.next_event(), None);
        t.write32(4, 50, &mut ctx(10, &mut s)); // COMPARE = 50
        t.write32(0, 3, &mut ctx(10, &mut s)); // enable | periodic
        assert_eq!(t.next_event(), Some(60));
        t.tick(&mut ctx(59, &mut s));
        assert!(s.timed_irqs.is_empty());
        t.tick(&mut ctx(125, &mut s));
        // Two fires elapsed: at 60 and 110, both stamped precisely.
        assert_eq!(s.timed_irqs, vec![(5, 60), (5, 110)]);
        assert_eq!(t.fires(), 2);
        assert_eq!(t.next_event(), Some(160));
        t.write32(0, 0, &mut ctx(130, &mut s)); // disable
        assert_eq!(t.next_event(), None);
    }

    #[test]
    fn timer_one_shot_disarms() {
        let mut t = Timer::new(TimerConfig::default());
        let mut s = BusSignals::default();
        t.write32(4, 20, &mut ctx(0, &mut s));
        t.write32(0, 1, &mut ctx(0, &mut s)); // enable, one-shot
        t.tick(&mut ctx(100, &mut s));
        assert_eq!(s.timed_irqs, vec![(0, 20)]);
        assert_eq!(t.next_event(), None);
        assert_eq!(t.read32(0, 100, 0), 0, "disarmed after firing");
    }

    /// Plays the scheduler for a lone attached controller: runs its
    /// wire to `wire_to`, then ticks the controller at guest time `now`.
    fn run_and_tick(c: &mut CanController, wire_to: u64, now: u64, s: &mut BusSignals) {
        c.wire().advance(wire_to);
        c.tick(&mut ctx(now, s));
    }

    #[test]
    fn can_loopback_round_trip() {
        let wire = SharedCanBus::named("can", 10);
        let mut c =
            CanController::attached(CanConfig { loopback: true, ..CanConfig::default() }, &wire);
        let mut s = BusSignals::default();
        c.write32(0, 0x123, &mut ctx(0, &mut s)); // TX_ID
        c.write32(4, 4, &mut ctx(0, &mut s)); // TX_DLC
        c.write32(8, 0xAABB_CCDD, &mut ctx(0, &mut s)); // TX_DATA0
        c.write32(16, 1, &mut ctx(0, &mut s)); // TX_GO
        assert_eq!(c.tx_count(), 1);
        assert_eq!(c.next_event(), None, "the controller never polls its wire");
        wire.advance(100_000);
        c.note_wire_progress();
        let now = c.next_event().expect("the delivery re-armed the tick");
        c.tick(&mut ctx(now, &mut s));
        assert_eq!(c.rx_count(), 1, "loopback receives its own frame");
        assert_eq!(c.read32(20, now, 0), 1, "RX_STATUS");
        assert_eq!(c.read32(24, now, 0), 0x123, "RX_ID");
        assert_eq!(c.read32(28, now, 0), 4, "RX_DLC");
        assert_eq!(c.read32(32, now, 0), 0xAABB_CCDD, "RX_DATA0");
        assert_eq!(s.timed_irqs, vec![(c.config().irq, now)], "IRQ stamped at completion");
        c.write32(40, 1, &mut ctx(now, &mut s)); // RX_POP
        assert_eq!(c.read32(20, now, 0), 0);
    }

    #[test]
    fn shared_wire_carries_frames_between_controllers() {
        // Producer and consumer controllers on one shared wire; the
        // "scheduler" here is the test: run the wire, notify, tick.
        let wire = SharedCanBus::named("can", 10);
        let mut tx = CanController::attached(CanConfig { node: 0, ..CanConfig::default() }, &wire);
        let mut rx = CanController::attached(CanConfig { node: 1, ..CanConfig::default() }, &wire);
        let mut s = BusSignals::default();
        tx.write32(0, 0x155, &mut ctx(0, &mut s)); // TX_ID
        tx.write32(4, 2, &mut ctx(0, &mut s)); // TX_DLC
        tx.write32(8, 0xBEEF, &mut ctx(0, &mut s)); // TX_DATA0
        tx.write32(16, 1, &mut ctx(0, &mut s)); // TX_GO
        assert_eq!(tx.next_event(), None, "shared TX does not self-poll");
        wire.advance(wire.min_quantum_cycles());
        rx.note_wire_progress();
        let arrival = rx.next_event().expect("delivery scheduled");
        rx.tick(&mut ctx(arrival, &mut s));
        assert_eq!(rx.rx_count(), 1);
        assert_eq!(rx.read32(24, arrival, 0), 0x155, "RX_ID");
        assert_eq!(rx.read32(32, arrival, 0), 0xBEEF, "RX_DATA0");
        // The sender sees its own frame pass without receiving it.
        tx.note_wire_progress();
        let own = tx.next_event().expect("own delivery examined");
        tx.tick(&mut ctx(own, &mut s));
        assert_eq!(tx.rx_count(), 0, "no loopback on the shared wire");
        assert!(wire.span_utilization().is_some_and(|u| u > 0.0));
    }

    #[test]
    fn watchdog_bites_at_the_precise_deadline() {
        let mut w = Watchdog::new(WatchdogConfig { base: crate::WATCHDOG_BASE, irq: 2, timeout: 100 });
        let mut s = BusSignals::default();
        assert_eq!(w.next_event(), None);
        w.write32(0, 1, &mut ctx(10, &mut s)); // arm
        assert_eq!(w.next_event(), Some(110));
        // A kick restarts the countdown.
        w.write32(8, 1, &mut ctx(50, &mut s));
        assert_eq!(w.next_event(), Some(150));
        w.tick(&mut ctx(149, &mut s));
        assert!(s.timed_irqs.is_empty());
        assert_eq!(w.read32(12, 149, 0), 1, "COUNT");
        w.tick(&mut ctx(200, &mut s));
        assert_eq!(s.timed_irqs, vec![(2, 150)], "stamped at the deadline");
        assert_eq!(w.bites(), 1);
        assert_eq!(w.next_event(), None, "disarmed after biting");
    }

    #[test]
    fn kicked_watchdog_never_bites() {
        let mut w = Watchdog::new(WatchdogConfig { timeout: 100, ..WatchdogConfig::default() });
        let mut s = BusSignals::default();
        w.write32(0, 1, &mut ctx(0, &mut s));
        for t in (0..1000).step_by(60) {
            w.write32(8, 1, &mut ctx(t, &mut s));
            w.tick(&mut ctx(t, &mut s));
        }
        assert_eq!(w.bites(), 0);
        assert!(s.timed_irqs.is_empty());
    }

    #[test]
    fn rx_fifo_overflow_drops_newest_and_counts() {
        // Four host-injected frames against a 2-deep FIFO: the first two
        // land (oldest preserved), the last two are dropped and counted,
        // and only the landed frames raise RX interrupts. Draining one
        // slot then makes the next delivery land again.
        let wire = SharedCanBus::named("can", 1);
        let mut c =
            CanController::attached(CanConfig { rx_capacity: 2, ..CanConfig::default() }, &wire);
        let mut s = BusSignals::default();
        for k in 0..4u16 {
            c.host_enqueue(u64::from(k) * 200, 7, CanFrame::new(CanId::Standard(0x40 + k), &[k as u8]));
        }
        run_and_tick(&mut c, 10_000, 10_000, &mut s);
        assert_eq!(c.read32(20, 10_000, 0), 2, "RX_STATUS capped at capacity");
        assert_eq!(c.rx_count(), 2, "only the landed frames count as received");
        assert_eq!(c.rx_overflows(), 2);
        assert_eq!(c.read32(44, 10_000, 0), 2, "RX_OVERFLOW register");
        assert_eq!(s.timed_irqs.len(), 2, "dropped frames raise no RX IRQ");
        assert_eq!(c.read32(24, 10_000, 0), 0x40, "oldest frame preserved at the head");
        c.write32(40, 1, &mut ctx(10_000, &mut s)); // RX_POP
        assert_eq!(c.read32(24, 10_000, 0), 0x41, "FIFO order intact");
        // Room again: a fifth frame lands instead of overflowing.
        c.host_enqueue(10_100, 7, CanFrame::new(CanId::Standard(0x50), &[9]));
        run_and_tick(&mut c, 20_000, 20_000, &mut s);
        assert_eq!(c.rx_count(), 3);
        assert_eq!(c.rx_overflows(), 2, "no further drops once drained");
    }

    #[test]
    fn acceptance_filter_rejects_and_counts() {
        let wire = SharedCanBus::named("can", 1);
        let mut c = CanController::attached(CanConfig::default(), &wire);
        let mut s = BusSignals::default();
        // Accept only ids matching 0x100 under mask 0x700.
        c.write32(64, 0x100, &mut ctx(0, &mut s)); // ACC_ID
        c.write32(68, 0x700, &mut ctx(0, &mut s)); // ACC_MASK
        c.host_enqueue(0, 7, CanFrame::new(CanId::Standard(0x123), &[1]));
        c.host_enqueue(200, 7, CanFrame::new(CanId::Standard(0x300), &[2]));
        c.host_enqueue(400, 7, CanFrame::new(CanId::Standard(0x155), &[3]));
        run_and_tick(&mut c, 10_000, 10_000, &mut s);
        assert_eq!(c.rx_count(), 2, "0x123 and 0x155 match the filter");
        assert_eq!(c.rx_filtered(), 1, "0x300 was rejected");
        assert_eq!(c.read32(72, 10_000, 0), 1, "RX_FILTERED");
        assert_eq!(s.timed_irqs.len(), 2, "filtered frames raise no RX IRQ");
        // Clearing the mask accepts everything again.
        c.write32(68, 0, &mut ctx(10_000, &mut s));
        c.host_enqueue(10_100, 7, CanFrame::new(CanId::Standard(0x300), &[4]));
        run_and_tick(&mut c, 20_000, 20_000, &mut s);
        assert_eq!(c.rx_count(), 3);
        assert_eq!(c.rx_filtered(), 1);
    }

    #[test]
    fn error_registers_mirror_the_wire_at_guest_time() {
        use alia_can::FaultPlan;
        let wire = SharedCanBus::named("can", 1);
        let mut c = CanController::attached(CanConfig::default(), &wire);
        let mut plan = FaultPlan::new();
        plan.inject_bit_error(10); // corrupts the guest's first TX
        wire.set_fault_plan(plan);
        let mut s = BusSignals::default();
        c.write32(0, 0x123, &mut ctx(0, &mut s)); // TX_ID
        c.write32(4, 1, &mut ctx(0, &mut s)); // TX_DLC
        c.write32(16, 1, &mut ctx(0, &mut s)); // TX_GO
        // The wire has already run past the error and the retransmission,
        // but the guest at cycle 5 must not see either.
        run_and_tick(&mut c, 10_000, 5, &mut s);
        assert!(wire.error_frames() == 1 && wire.tec(0) == 7, "the wire is ahead of the guest");
        assert_eq!(c.read32(52, 5, 0), 0, "error still ahead");
        c.tick(&mut ctx(10_000, &mut s));
        // One error (+8) then the successful retransmission (−1).
        assert_eq!(c.read32(52, 10_000, 0), 7, "TEC");
        assert_eq!(c.read32(56, 10_000, 0), 0, "REC");
        assert_eq!(c.read32(48, 10_000, 0), 0, "still error-active");
        assert_eq!(c.tec(), 7);
        assert_eq!(c.error_state(), ErrorState::Active);
    }

    #[test]
    fn can_ignores_own_frames_without_loopback() {
        let wire = SharedCanBus::named("can", 1);
        let mut c =
            CanController::attached(CanConfig { loopback: false, ..CanConfig::default() }, &wire);
        let mut s = BusSignals::default();
        c.write32(0, 0x10, &mut ctx(0, &mut s));
        c.write32(4, 1, &mut ctx(0, &mut s));
        c.write32(16, 1, &mut ctx(0, &mut s));
        // Remote traffic from node 7 interleaves.
        c.host_enqueue(0, 7, CanFrame::new(CanId::Standard(0x20), &[9]));
        run_and_tick(&mut c, 2000, 2000, &mut s);
        assert_eq!(wire.deliveries_len(), 2, "both frames crossed the wire");
        assert_eq!(c.rx_count(), 1, "only the remote frame is received");
        assert_eq!(c.read32(24, 2000, 0), 0x20);
    }
}
