//! The tracer core: typed events, category bitmask gating, ring
//! buffering, and deterministic stream hashing.
//!
//! ## Determinism contract
//!
//! Every producer records events in its own execution order, stamped
//! with its own guest-cycle clock. Collectors assemble streams in
//! topology order (node index, then wire index, then the scheduler
//! stream). Because each producer's execution is bit-identical across
//! quantum sizes and node orderings (the simulator's standing
//! determinism contract), the assembled [`TraceSet`] — and therefore
//! [`TraceSet::fnv_hash`] — is too, for every *architectural*
//! category. Two groups are artifacts of how the simulation is driven
//! rather than what the guest does, and legitimately differ across the
//! sweep: [`category::SCHED`] (quantum boundaries, idle stretches) and
//! the engine-internal [`category::TIER`]/[`category::BLOCK`] pair
//! (block recording and invalidation react to where `run_until` budget
//! boundaries fall, so a different quantum yields different splits and
//! fills while retiring the exact same instructions). Hash
//! with [`category::SEMANTIC`] when comparing configurations.

/// Event categories. Each is one bit of the tracer's recording mask;
/// a [`Tracer`] only stores events whose category bit is set, so the
/// disabled path is a single test-and-branch.
pub mod category {
    /// Block-engine transitions: demote / budget-split.
    pub const TIER: u32 = 1 << 0;
    /// Block-cache fills (recorded blocks lowered and installed).
    pub const BLOCK: u32 = 1 << 1;
    /// Interrupt pend / take.
    pub const IRQ: u32 = 1 << 2;
    /// WFI park / resume.
    pub const WFI: u32 = 1 << 3;
    /// Wire arbitration wins (frame completions, with attempt counts).
    pub const WIRE: u32 = 1 << 4;
    /// Error frames and error-state transitions.
    pub const ERROR: u32 = 1 << 5;
    /// Gateway DMA forwards and drops.
    pub const DMA: u32 = 1 << 6;
    /// Scheduler quantum boundaries and idle stretches. Excluded from
    /// [`SEMANTIC`]: these depend on the scheduler configuration.
    pub const SCHED: u32 = 1 << 7;
    /// RTOS kernel events re-emitted from the executed MMIO trace.
    pub const RTOS: u32 = 1 << 8;

    /// All categories.
    pub const ALL: u32 = TIER | BLOCK | IRQ | WFI | WIRE | ERROR | DMA | SCHED | RTOS;
    /// Execution-engine internals whose event streams depend on how
    /// the simulation is driven, not on what the guest does: scheduler
    /// quantum boundaries, and the block engine's fills / demotions /
    /// budget splits (block recording reacts to where `run_until`
    /// budget boundaries fall).
    pub const ENGINE: u32 = SCHED | TIER | BLOCK;
    /// All categories whose event streams are invariant across
    /// scheduler configurations (quantum size, node order, idle
    /// stretch): everything except [`ENGINE`].
    pub const SEMANTIC: u32 = ALL & !ENGINE;

    /// Human-readable name of a single category bit (lowest set bit of
    /// `bit` wins); used for Chrome-trace thread names.
    #[must_use]
    pub fn name(bit: u32) -> &'static str {
        match bit & bit.wrapping_neg() {
            TIER => "tier",
            BLOCK => "block",
            IRQ => "irq",
            WFI => "wfi",
            WIRE => "wire",
            ERROR => "error",
            DMA => "dma",
            SCHED => "sched",
            RTOS => "rtos",
            _ => "other",
        }
    }

    /// Stable thread-id index of a category bit (Chrome-trace `tid`).
    #[must_use]
    pub fn tid(bit: u32) -> u32 {
        (bit & bit.wrapping_neg()).trailing_zeros() + 1
    }
}

/// Why a gateway frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No routing-table entry matched the frame id.
    NoRoute,
    /// The bounded forward queue was full.
    QueueOverflow,
}

/// RTOS kernel event kinds: the executed guest kernel's trace taxonomy
/// (decoded by `alia_rtos::exec::decode_trace`), so the scheduler's
/// behavior rides the same stream as the hardware-level events. In
/// [`EventKind::Rtos`], the per-task kinds (`Activate`, `Start`,
/// `Preempt`, `Complete`, `Overrun`) carry the task index; the others
/// carry `0xFF`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtosEventKind {
    /// A job was released (moved to ready) by the tick.
    Activate,
    /// A task was dispatched onto the CPU: payload 0 for a job's first
    /// dispatch (fresh frame), 1 for resuming a preempted job.
    Start,
    /// A running job was switched out with its context saved.
    Preempt,
    /// A job completed (checksum banked, optional CAN TX done).
    Complete,
    /// Kernel tick handler entry (payload = tick number, 1-based).
    TickEnter,
    /// Kernel tick handler exit.
    TickExit,
    /// Scheduler (completion pend) handler entry.
    SchedEnter,
    /// Scheduler handler exit.
    SchedExit,
    /// The scheduler found nothing runnable and dispatched idle.
    Idle,
    /// A release found the task's previous job still in flight
    /// (released, not yet completed); the release is skipped and
    /// counted. Not a missed-deadline event.
    Overrun,
}

/// One structured trace event. The owning stream supplies the node
/// identity; the event carries the cycle stamp and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Installed blocks were dropped (invalidation or eviction).
    Demote {
        /// PC whose lookup/insert observed the demotion.
        pc: u32,
    },
    /// Block execution split back to the per-step path at a budget
    /// boundary (`run_until` limit inside a block).
    BudgetSplit {
        /// Block start PC.
        pc: u32,
    },
    /// A recorded basic block was installed in the block cache.
    BlockFill {
        /// Block start PC.
        pc: u32,
        /// Instruction count.
        len: u32,
    },
    /// An interrupt was pended (device assertion or software pend).
    IrqPend {
        /// IRQ number.
        irq: u32,
    },
    /// An interrupt was taken (vector entry).
    IrqTake {
        /// IRQ number.
        irq: u32,
        /// Entered via tail-chaining from a completing handler.
        tail_chained: bool,
    },
    /// The core parked in WFI (scheduler may skip its dead time).
    WfiPark,
    /// The core resumed from a parked WFI.
    WfiResume,
    /// A frame won arbitration and completed on a wire. The cycle
    /// stamp is the completion; `enqueued` allows duration rendering.
    FrameTx {
        /// CAN identifier.
        id: u32,
        /// Transmitting node index on the wire.
        node: u32,
        /// Enqueue cycle (wire clock).
        enqueued: u64,
        /// Transmission attempt (1 = first try; >1 after error
        /// retransmissions).
        attempt: u32,
        /// `true` for data frames, `false` for error frames (error
        /// frames carry [`category::ERROR`]).
        data: bool,
    },
    /// A controller's fault-confinement state changed.
    ErrorState {
        /// Node index on the wire.
        node: u32,
        /// New state: 0 = error-active, 1 = error-passive, 2 = bus-off.
        state: u8,
    },
    /// The gateway engine forwarded a frame.
    DmaForward {
        /// Matched route index.
        route: u32,
        /// Outgoing CAN identifier (after rewrite).
        id: u32,
    },
    /// The gateway engine dropped a frame.
    DmaDrop {
        /// Incoming CAN identifier.
        id: u32,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A scheduler quantum boundary was reached.
    Quantum {
        /// Boundary sequence number.
        index: u64,
    },
    /// The scheduler ended a quantum past its conservative lookahead
    /// pacing: at the earliest point a wire could complete a
    /// transmission not yet logged.
    IdleStretch {
        /// Cycle the quantum ends at.
        to: u64,
    },
    /// An RTOS kernel event re-emitted from the executed MMIO trace.
    Rtos {
        /// Kernel event kind.
        kind: RtosEventKind,
        /// Task index (`0xFF` when not task-scoped).
        task: u8,
        /// Kind-specific payload (job number, preemptor, ...).
        payload: u32,
    },
}

impl EventKind {
    /// The category bit this event records under.
    #[must_use]
    pub fn category(&self) -> u32 {
        match self {
            EventKind::Demote { .. } | EventKind::BudgetSplit { .. } => category::TIER,
            EventKind::BlockFill { .. } => category::BLOCK,
            EventKind::IrqPend { .. } | EventKind::IrqTake { .. } => category::IRQ,
            EventKind::WfiPark | EventKind::WfiResume => category::WFI,
            EventKind::FrameTx { data, .. } => {
                if *data {
                    category::WIRE
                } else {
                    category::ERROR
                }
            }
            EventKind::ErrorState { .. } => category::ERROR,
            EventKind::DmaForward { .. } | EventKind::DmaDrop { .. } => category::DMA,
            EventKind::Quantum { .. } | EventKind::IdleStretch { .. } => category::SCHED,
            EventKind::Rtos { .. } => category::RTOS,
        }
    }

    /// Short display name (Chrome-trace event name).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Demote { .. } => "Demote",
            EventKind::BudgetSplit { .. } => "BudgetSplit",
            EventKind::BlockFill { .. } => "BlockFill",
            EventKind::IrqPend { .. } => "IrqPend",
            EventKind::IrqTake { .. } => "IrqTake",
            EventKind::WfiPark => "WfiPark",
            EventKind::WfiResume => "WfiResume",
            EventKind::FrameTx { data: true, .. } => "FrameTx",
            EventKind::FrameTx { data: false, .. } => "ErrorFrame",
            EventKind::ErrorState { .. } => "ErrorState",
            EventKind::DmaForward { .. } => "DmaForward",
            EventKind::DmaDrop { .. } => "DmaDrop",
            EventKind::Quantum { .. } => "Quantum",
            EventKind::IdleStretch { .. } => "IdleStretch",
            EventKind::Rtos { kind, .. } => match kind {
                RtosEventKind::Activate => "ACTIVATE",
                RtosEventKind::Start => "START",
                RtosEventKind::Preempt => "PREEMPT",
                RtosEventKind::Complete => "COMPLETE",
                RtosEventKind::TickEnter => "TICK_ENTER",
                RtosEventKind::TickExit => "TICK_EXIT",
                RtosEventKind::SchedEnter => "SCHED_ENTER",
                RtosEventKind::SchedExit => "SCHED_EXIT",
                RtosEventKind::Idle => "IDLE",
                RtosEventKind::Overrun => "OVERRUN",
            },
        }
    }

    /// Folds a stable binary encoding of the payload into an FNV-1a
    /// accumulator. The encoding (tag byte, then fixed-width fields in
    /// declaration order) is part of the determinism contract: two
    /// event streams hash equal iff they are bit-identical.
    fn hash_into(&self, h: &mut Fnv) {
        match *self {
            EventKind::Demote { pc } => {
                h.byte(2);
                h.u64(u64::from(pc));
            }
            EventKind::BudgetSplit { pc } => {
                h.byte(3);
                h.u64(u64::from(pc));
            }
            EventKind::BlockFill { pc, len } => {
                h.byte(4);
                h.u64(u64::from(pc));
                h.u64(u64::from(len));
            }
            EventKind::IrqPend { irq } => {
                h.byte(5);
                h.u64(u64::from(irq));
            }
            EventKind::IrqTake { irq, tail_chained } => {
                h.byte(6);
                h.u64(u64::from(irq));
                h.byte(u8::from(tail_chained));
            }
            EventKind::WfiPark => h.byte(7),
            EventKind::WfiResume => h.byte(8),
            EventKind::FrameTx { id, node, enqueued, attempt, data } => {
                h.byte(9);
                h.u64(u64::from(id));
                h.u64(u64::from(node));
                h.u64(enqueued);
                h.u64(u64::from(attempt));
                h.byte(u8::from(data));
            }
            EventKind::ErrorState { node, state } => {
                h.byte(10);
                h.u64(u64::from(node));
                h.byte(state);
            }
            EventKind::DmaForward { route, id } => {
                h.byte(11);
                h.u64(u64::from(route));
                h.u64(u64::from(id));
            }
            EventKind::DmaDrop { id, reason } => {
                h.byte(12);
                h.u64(u64::from(id));
                h.byte(match reason {
                    DropReason::NoRoute => 0,
                    DropReason::QueueOverflow => 1,
                });
            }
            EventKind::Quantum { index } => {
                h.byte(13);
                h.u64(index);
            }
            EventKind::IdleStretch { to } => {
                h.byte(14);
                h.u64(to);
            }
            EventKind::Rtos { kind, task, payload } => {
                h.byte(15);
                h.byte(kind as u8);
                h.byte(task);
                h.u64(u64::from(payload));
            }
        }
    }
}

/// One cycle-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Guest-cycle stamp on the producer's clock.
    pub cycle: u64,
    /// The typed payload.
    pub kind: EventKind,
}

/// 64-bit FNV-1a accumulator: the one hash behind
/// [`TraceSet::fnv_hash`] and the executed RTOS kernel's raw-trace
/// fingerprint.
#[derive(Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(Self::BASIS)
    }
}

impl Fnv {
    const BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Folds in one byte.
    pub(crate) fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    /// Folds in each byte of `bytes`, in order.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Folds in the eight little-endian bytes of `v`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Default ring capacity: large enough for every current experiment's
/// full mission trace, small enough to bound memory on runaway loops.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A ring-buffered event recorder. Recording is guarded by a
/// per-category bitmask: with the mask clear the record path is one
/// load, one AND, one branch — nothing else — which is what keeps the
/// interpreter hot loops at parity when tracing is off.
#[derive(Debug, Clone)]
pub struct Tracer {
    mask: u32,
    cap: usize,
    /// Ring storage; once full, `head` marks the oldest slot.
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Tracer {
    /// Creates a tracer recording the categories in `mask`, with the
    /// default ring capacity.
    #[must_use]
    pub fn new(mask: u32) -> Self {
        Self::with_capacity(mask, DEFAULT_CAPACITY)
    }

    /// Creates a tracer with an explicit ring capacity (≥ 1).
    #[must_use]
    pub fn with_capacity(mask: u32, cap: usize) -> Self {
        Tracer { mask, cap: cap.max(1), events: Vec::new(), head: 0, dropped: 0 }
    }

    /// The recording mask.
    #[must_use]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Replaces the recording mask.
    pub fn set_mask(&mut self, mask: u32) {
        self.mask = mask;
    }

    /// Whether any category in `cat` is recorded. `#[inline]` so the
    /// disabled path folds to a single branch at call sites that guard
    /// extra bookkeeping work.
    #[inline]
    #[must_use]
    pub fn wants(&self, cat: u32) -> bool {
        self.mask & cat != 0
    }

    /// Records one event if its category is enabled. The mask test is
    /// first so the common (disabled) path returns immediately.
    #[inline]
    pub fn record(&mut self, cycle: u64, kind: EventKind) {
        if self.mask & kind.category() == 0 {
            return;
        }
        self.push(TraceEvent { cycle, kind });
    }

    /// Unconditionally appends to the ring (mask already checked).
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of events overwritten after the ring filled.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Clears the ring (mask unchanged).
    pub fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// One labeled event stream of a [`TraceSet`] — a node, a wire, or the
/// scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStream {
    /// Display label (node or wire name).
    pub label: String,
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
}

/// A complete collected trace: per-component streams in topology
/// order. Built by the collector (e.g. `System::trace_set`), consumed
/// by the exporters and the determinism hash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSet {
    /// The streams, in topology order (nodes, wires, scheduler).
    pub streams: Vec<TraceStream>,
}

impl TraceSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one labeled stream.
    pub fn push_stream(&mut self, label: &str, events: Vec<TraceEvent>) {
        self.streams.push(TraceStream { label: label.to_string(), events });
    }

    /// Total event count across all streams.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.streams.iter().map(|s| s.events.len()).sum()
    }

    /// FNV-1a hash of every event whose category is in `mask`, folded
    /// in stream order with the stream labels. Hashing with
    /// [`category::SEMANTIC`] is bit-identical across quantum sizes,
    /// node orderings and idle-stretch; [`category::ALL`] addition-
    /// ally pins the scheduler stream (identical only within one
    /// scheduler configuration).
    #[must_use]
    pub fn fnv_hash(&self, mask: u32) -> u64 {
        let mut h = Fnv::default();
        for s in &self.streams {
            h.bytes(s.label.as_bytes());
            h.byte(0);
            for ev in &s.events {
                if ev.kind.category() & mask == 0 {
                    continue;
                }
                h.u64(ev.cycle);
                ev.kind.hash_into(&mut h);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_fnv1a_64_known_answers() {
        for (input, want) in [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv::default();
            h.bytes(input.as_bytes());
            assert_eq!(h.finish(), want, "{input:?}");
        }
    }

    #[test]
    fn disabled_mask_records_nothing() {
        let mut t = Tracer::new(0);
        t.record(1, EventKind::WfiPark);
        t.record(2, EventKind::IrqPend { irq: 0 });
        assert!(t.is_empty());
        t.set_mask(category::IRQ);
        t.record(3, EventKind::WfiPark); // still filtered: wrong category
        t.record(4, EventKind::IrqPend { irq: 7 });
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0], TraceEvent { cycle: 4, kind: EventKind::IrqPend { irq: 7 } });
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = Tracer::with_capacity(category::ALL, 4);
        for i in 0..6u64 {
            t.record(i, EventKind::Quantum { index: i });
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<u64> = t.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4, 5]);
    }

    #[test]
    fn hash_is_order_and_payload_sensitive() {
        let mk = |evs: Vec<TraceEvent>| {
            let mut s = TraceSet::new();
            s.push_stream("n", evs);
            s.fnv_hash(category::ALL)
        };
        let a = TraceEvent { cycle: 1, kind: EventKind::IrqPend { irq: 1 } };
        let b = TraceEvent { cycle: 2, kind: EventKind::IrqTake { irq: 1, tail_chained: false } };
        assert_ne!(mk(vec![a, b]), mk(vec![b, a]));
        let b2 = TraceEvent { cycle: 2, kind: EventKind::IrqTake { irq: 1, tail_chained: true } };
        assert_ne!(mk(vec![a, b]), mk(vec![a, b2]));
        assert_eq!(mk(vec![a, b]), mk(vec![a, b]));
    }

    #[test]
    fn semantic_mask_ignores_scheduler_stream() {
        let base = vec![TraceEvent { cycle: 5, kind: EventKind::WfiPark }];
        let mut a = TraceSet::new();
        a.push_stream("n", base.clone());
        a.push_stream("scheduler", vec![TraceEvent { cycle: 1, kind: EventKind::Quantum { index: 0 } }]);
        let mut b = TraceSet::new();
        b.push_stream("n", base);
        b.push_stream(
            "scheduler",
            vec![
                TraceEvent { cycle: 1, kind: EventKind::Quantum { index: 0 } },
                TraceEvent { cycle: 2, kind: EventKind::Quantum { index: 1 } },
            ],
        );
        assert_eq!(a.fnv_hash(category::SEMANTIC), b.fnv_hash(category::SEMANTIC));
        assert_ne!(a.fnv_hash(category::ALL), b.fnv_hash(category::ALL));
    }

    #[test]
    fn category_mapping_is_total() {
        let evs = [
            EventKind::Demote { pc: 0 },
            EventKind::BlockFill { pc: 0, len: 1 },
            EventKind::IrqPend { irq: 0 },
            EventKind::WfiPark,
            EventKind::FrameTx { id: 0, node: 0, enqueued: 0, attempt: 1, data: true },
            EventKind::FrameTx { id: 0, node: 0, enqueued: 0, attempt: 1, data: false },
            EventKind::ErrorState { node: 0, state: 2 },
            EventKind::DmaForward { route: 0, id: 0 },
            EventKind::Quantum { index: 0 },
            EventKind::Rtos { kind: RtosEventKind::Start, task: 0, payload: 0 },
        ];
        for e in evs {
            let c = e.category();
            assert_eq!(c.count_ones(), 1, "{e:?}");
            assert!(category::ALL & c != 0);
            assert!(!category::name(c).is_empty());
        }
        assert_eq!(
            EventKind::FrameTx { id: 0, node: 0, enqueued: 0, attempt: 1, data: false }.category(),
            category::ERROR
        );
    }
}
