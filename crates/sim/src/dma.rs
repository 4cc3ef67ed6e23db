//! DMA frame-forwarding engine: a gateway between two CAN wires.
//!
//! A [`Dma`] device bridges two [`SharedCanBus`] wires without per-frame
//! CPU work: the guest programs a routing table once (id-range match,
//! optional id rewrite, direction, optional IRQ on forward) and the
//! engine then examines every delivery completing on either wire and
//! re-enqueues matches on the other wire after a store-and-forward
//! latency — all from device ticks, never from guest instructions. A
//! gateway ECU is typically a machine that programs its routes and
//! parks in a `wfi` loop; its core sleeps while the engine forwards.
//!
//! # Register map (offsets from [`crate::DMA_BASE`])
//!
//! Global registers:
//!
//! | off  | name          | read                    | write                  |
//! |------|---------------|-------------------------|------------------------|
//! | 0x00 | CTRL          | bit0 enable             | same                   |
//! | 0x04 | `FWD_LATENCY` | store-and-forward cycles| same                   |
//! | 0x08 | FORWARDED     | total frames forwarded  | —                      |
//! | 0x0C | DROPPED       | `NO_ROUTE` + `QUEUE_OVERFLOW` (legacy sum) | —   |
//! | 0x10 | `NO_ROUTE`    | frames no route matched | —                      |
//! | 0x14 | `QUEUE_OVERFLOW` | frames lost to a full forward queue | —       |
//! | 0x18 | `FWD_CAPACITY`| per-direction queue depth (reset 8) | same (min 1) |
//! | 0x1C | `FWD_POLICY`  | 0 drop-newest / 1 drop-lowest-priority | same    |
//!
//! [`DMA_ROUTES`] route slots at `0x40 + i * 0x20`:
//!
//! | off  | name    | read               | write                           |
//! |------|---------|--------------------|---------------------------------|
//! | +0x00| CTRL    | bits as written    | bit0 enable, bit1 direction (0 = A→B, 1 = B→A), bit2 IRQ on forward |
//! | +0x04| LO      | id-range low       | same (raw id, inclusive)        |
//! | +0x08| HI      | id-range high      | same (raw id, inclusive)        |
//! | +0x0C| REWRITE | as written         | bit31 enable; low 29 bits: forwarded id = base + (id − LO) |
//! | +0x10| COUNT   | frames via route   | —                               |
//!
//! # Timing, the forward queue, and determinism
//!
//! A delivery completing on wire A at core cycle `T` is examined by the
//! engine's tick at exactly `T` (the scheduler re-arms the tick through
//! [`Device::note_wire_progress`], like a CAN controller's RX path) and, on
//! a route match, handed to that direction's **bounded forward queue**.
//! The engine keeps at most one forward in flight per direction: the
//! head of an idle direction's queue is enqueued on the target wire
//! immediately at `T + FWD_LATENCY`, and each subsequent forward is
//! dispatched when the engine observes its previous forward complete on
//! the target wire (at `max(arrival + FWD_LATENCY, completion)` — both
//! exact wire stamps, never "whenever the tick ran"). A route match
//! arriving at a full queue is resolved by the `FWD_POLICY` register:
//! **drop-newest** (0, reset) discards the arriving frame;
//! **drop-lowest-priority** (1) evicts whichever frame — queued or
//! arriving — would lose CAN arbitration to all the others. Either way
//! the loss is counted in `QUEUE_OVERFLOW`, separately from the
//! `NO_ROUTE` count of frames no route matched (the legacy `DROPPED`
//! register reads their sum).
//!
//! Because deliveries materialized at a scheduler boundary always
//! complete at or after that boundary, a forward's enqueue time is never
//! in the past of the target wire, so multi-hop timing — including
//! queue occupancy and overflow decisions — is bit-identical for any
//! quantum size or node order. Error frames are protocol signalling,
//! not payloads: the engine never routes them, and an *own* forward
//! aborted by an error frame stays in flight (the wire retransmits it
//! automatically; the next queued forward waits its turn). The engine
//! stops when its host machine halts (devices of a halted node are no
//! longer ticked) — a powered-off gateway forwards nothing; and a
//! gateway node driven to bus-off stalls its direction until recovery
//! (its in-flight forward was purged with the node's queue).

use std::collections::VecDeque;

use alia_can::{CanFrame, CanId, DeliveryKind};

use crate::bus::{Device, DeviceCtx};
use crate::devices::SharedCanBus;

/// Number of route slots in a [`Dma`] engine's table.
pub const DMA_ROUTES: usize = 8;

/// Static configuration of a [`Dma`] gateway device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaConfig {
    /// Window base address (default [`crate::DMA_BASE`]).
    pub base: u32,
    /// IRQ line raised when a route with the IRQ-on-forward bit
    /// forwards a frame (stamped at the forward's enqueue cycle).
    pub irq: u32,
    /// The engine's CAN node id on wire A (must be unique there).
    pub node_a: usize,
    /// The engine's CAN node id on wire B (must be unique there).
    pub node_b: usize,
    /// Reset value of the `FWD_LATENCY` register: store-and-forward
    /// latency in core cycles between a frame completing on one wire
    /// and its forward being enqueued on the other.
    pub latency: u64,
}

impl Default for DmaConfig {
    fn default() -> DmaConfig {
        DmaConfig { base: crate::DMA_BASE, irq: 3, node_a: 0, node_b: 0, latency: 64 }
    }
}

/// One slot of the routing table.
#[derive(Debug, Clone, Copy, Default)]
struct Route {
    enabled: bool,
    /// `false`: matches deliveries on wire A, forwards to wire B.
    /// `true`: the reverse.
    b_to_a: bool,
    irq_on_forward: bool,
    lo: u32,
    hi: u32,
    /// Raw REWRITE register (bit31 = rewrite enable).
    rewrite: u32,
    count: u64,
}

impl Route {
    fn ctrl_word(self) -> u32 {
        u32::from(self.enabled)
            | u32::from(self.b_to_a) << 1
            | u32::from(self.irq_on_forward) << 2
    }
}

/// One frame waiting in a direction's forward queue.
#[derive(Debug, Clone, Copy)]
struct QueuedForward {
    /// Earliest dispatch cycle: the source delivery's completion plus
    /// the store-and-forward latency.
    ready_at: u64,
    frame: CanFrame,
    irq_on_forward: bool,
    /// Matched route index (trace reporting).
    route: u32,
}

/// The DMA frame-forwarding engine (see the module docs for the
/// register map and the timing contract).
#[derive(Debug, Clone)]
pub struct Dma {
    config: DmaConfig,
    wires: [SharedCanBus; 2],
    enabled: bool,
    latency: u64,
    routes: [Route; DMA_ROUTES],
    /// Deliveries examined so far on each wire (including its own
    /// forwards completing, which are skipped but must be consumed).
    seen: [usize; 2],
    /// Bounded forward queue per direction, indexed by *target* side.
    fwd_queue: [VecDeque<QueuedForward>; 2],
    /// Whether a forward is on (or queued for) the target wire and not
    /// yet observed complete, per target side.
    in_flight: [bool; 2],
    fwd_capacity: u32,
    fwd_policy: u32,
    forwarded: u64,
    no_route: u64,
    queue_overflows: u64,
    /// Next cycle the engine wants a tick (`u64::MAX` = idle).
    poll_at: u64,
    /// Structured event tracer (forwards and drops, stamped on the
    /// core-cycle clock). The engine processes deliveries at their
    /// exact arrival cycles (`poll_at` re-arms per arrival), so the
    /// recording order is schedule-independent.
    tracer: alia_obs::Tracer,
}

impl Dma {
    /// Builds a gateway engine between `wire_a` and `wire_b`. The engine
    /// starts disabled with an empty routing table; the guest (or host)
    /// programs and enables it through the register file.
    #[must_use]
    pub fn new(config: DmaConfig, wire_a: &SharedCanBus, wire_b: &SharedCanBus) -> Dma {
        assert!(
            !wire_a.same_wire(wire_b),
            "a DMA gateway must bridge two distinct wires"
        );
        Dma {
            latency: config.latency,
            config,
            wires: [wire_a.clone(), wire_b.clone()],
            enabled: false,
            routes: [Route::default(); DMA_ROUTES],
            seen: [0; 2],
            fwd_queue: [VecDeque::new(), VecDeque::new()],
            in_flight: [false; 2],
            fwd_capacity: 8,
            fwd_policy: 0,
            forwarded: 0,
            no_route: 0,
            queue_overflows: 0,
            poll_at: u64::MAX,
            tracer: alia_obs::Tracer::default(),
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> DmaConfig {
        self.config
    }

    /// Wire A's handle.
    #[must_use]
    pub fn wire_a(&self) -> &SharedCanBus {
        &self.wires[0]
    }

    /// Wire B's handle.
    #[must_use]
    pub fn wire_b(&self) -> &SharedCanBus {
        &self.wires[1]
    }

    /// The engine's node id on the given side (0 = wire A, 1 = wire B).
    #[must_use]
    pub fn node_on(&self, side: usize) -> usize {
        if side == 0 { self.config.node_a } else { self.config.node_b }
    }

    /// Total frames forwarded across all routes.
    #[must_use]
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Total frames lost: no matching route plus forward-queue overflow
    /// (the legacy `DROPPED` register reads this sum).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.no_route + self.queue_overflows
    }

    /// Frames examined while enabled that matched no route.
    #[must_use]
    pub fn no_route(&self) -> u64 {
        self.no_route
    }

    /// Frames lost because a direction's forward queue was full (under
    /// either overflow policy, exactly one frame is lost per overflow).
    #[must_use]
    pub fn queue_overflows(&self) -> u64 {
        self.queue_overflows
    }

    /// Frames forwarded through route `i`.
    #[must_use]
    pub fn route_count(&self, i: usize) -> u64 {
        self.routes[i].count
    }

    /// Examines deliveries on both wires up to core cycle `now`,
    /// forwarding route matches onto the opposite wire at their exact
    /// `arrival + FWD_LATENCY` cycle.
    fn advance(&mut self, now: u64, ctx: &mut DeviceCtx<'_>) {
        self.poll_at = u64::MAX;
        for side in 0..2 {
            loop {
                let wire = &self.wires[side];
                let Some(d) = wire.delivery(self.seen[side]) else { break };
                let arrival = d.completed_at.saturating_mul(wire.cycles_per_bit().max(1));
                if arrival > now {
                    // Completion still in the future of the core clock;
                    // re-tick exactly then.
                    self.poll_at = self.poll_at.min(arrival);
                    break;
                }
                self.seen[side] += 1;
                if d.node == self.node_on(side) {
                    // The engine's own forward: never routed back (the
                    // gateway does not echo). A completed *data* frame
                    // frees the direction for the next queued forward; an
                    // error frame keeps it in flight (the wire is already
                    // retransmitting the aborted forward).
                    if d.kind == DeliveryKind::Data {
                        self.in_flight[side] = false;
                        self.dispatch(side, arrival, ctx);
                    }
                    continue;
                }
                if d.kind != DeliveryKind::Data {
                    // Foreign error frames are protocol signalling, not
                    // payloads: consumed, never forwarded.
                    continue;
                }
                if self.enabled {
                    self.forward(side, d.frame, arrival, ctx);
                }
            }
        }
    }

    /// Routes one delivery that completed on `side` at core cycle
    /// `arrival`: first matching route wins (no match counts as
    /// `NO_ROUTE`); the match joins the target direction's bounded
    /// forward queue, subject to the overflow policy.
    fn forward(&mut self, side: usize, frame: CanFrame, arrival: u64, ctx: &mut DeviceCtx<'_>) {
        let raw = frame.id.raw();
        let matches = |r: &Route| {
            r.enabled && r.b_to_a == (side == 1) && r.lo <= raw && raw <= r.hi
        };
        let Some(i) = self.routes.iter().position(matches) else {
            self.no_route += 1;
            self.tracer.record(
                arrival,
                alia_obs::EventKind::DmaDrop { id: raw, reason: alia_obs::DropReason::NoRoute },
            );
            return;
        };
        let route = &mut self.routes[i];
        let out_raw = if route.rewrite & 1 << 31 != 0 {
            (route.rewrite & 0x1FFF_FFFF).wrapping_add(raw - route.lo)
        } else {
            raw
        };
        let id = match frame.id {
            CanId::Standard(_) => CanId::Standard((out_raw & 0x7FF) as u16),
            CanId::Extended(_) => CanId::Extended(out_raw & 0x1FFF_FFFF),
        };
        let out = CanFrame::new(id, &frame.data[..usize::from(frame.dlc.min(8))]);
        route.count += 1;
        let entry = QueuedForward {
            ready_at: arrival.saturating_add(self.latency),
            frame: out,
            irq_on_forward: route.irq_on_forward,
            route: i as u32,
        };
        let target = 1 - side;
        let cap = self.fwd_capacity.max(1) as usize;
        if self.fwd_queue[target].len() >= cap {
            self.queue_overflows += 1;
            // The overflow event carries the arriving frame's outgoing
            // id even under drop-lowest-priority (where the evicted
            // frame may be an older queued one): it names the overflow
            // occurrence, not the eviction victim.
            self.tracer.record(
                arrival,
                alia_obs::EventKind::DmaDrop {
                    id: out_raw,
                    reason: alia_obs::DropReason::QueueOverflow,
                },
            );
            if self.fwd_policy == 1 {
                // Drop-lowest-priority: evict whichever frame — queued
                // or arriving — loses CAN arbitration to all the others.
                let worst = self.fwd_queue[target]
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        if a.frame.id.wins_over(b.frame.id) {
                            std::cmp::Ordering::Less
                        } else {
                            std::cmp::Ordering::Greater
                        }
                    })
                    .map(|(i, f)| (i, f.frame.id));
                if let Some((wi, wid)) = worst {
                    if entry.frame.id.wins_over(wid) {
                        self.fwd_queue[target].remove(wi);
                        self.fwd_queue[target].push_back(entry);
                    }
                }
                // else: the arriving frame is itself the lowest priority
                // (or ties) — it is the one dropped.
            }
            // Drop-newest (policy 0): the arriving frame is discarded.
        } else {
            self.fwd_queue[target].push_back(entry);
        }
        self.dispatch(target, arrival, ctx);
    }

    /// Puts the head of `target`'s forward queue on the wire, if the
    /// direction is idle: enqueued at `max(ready_at, floor)` — `floor`
    /// is a deterministic wire stamp (the completion that freed the
    /// direction, or the arrival that filled an empty queue), so
    /// dispatch cycles never depend on when the tick happened to run.
    fn dispatch(&mut self, target: usize, floor: u64, ctx: &mut DeviceCtx<'_>) {
        if self.in_flight[target] {
            return;
        }
        let Some(f) = self.fwd_queue[target].pop_front() else { return };
        let at = f.ready_at.max(floor);
        let wire = &self.wires[target];
        wire.enqueue(at / wire.cycles_per_bit().max(1), self.node_on(target), f.frame);
        self.in_flight[target] = true;
        self.forwarded += 1;
        self.tracer
            .record(at, alia_obs::EventKind::DmaForward { route: f.route, id: f.frame.id.raw() });
        if f.irq_on_forward {
            ctx.signals.raise_irq_at(self.config.irq, at);
        }
    }
}

impl Device for Dma {
    fn read32(&self, off: u32, _now: u64, _active_irq: u32) -> u32 {
        match off {
            0x00 => u32::from(self.enabled),
            0x04 => self.latency as u32,
            0x08 => self.forwarded as u32,
            0x0C => self.dropped() as u32,
            0x10 => self.no_route as u32,
            0x14 => self.queue_overflows as u32,
            0x18 => self.fwd_capacity,
            0x1C => self.fwd_policy,
            o if (0x40..0x40 + 0x20 * DMA_ROUTES as u32).contains(&o) => {
                let r = &self.routes[((o - 0x40) / 0x20) as usize];
                match o & 0x1C {
                    0x00 => r.ctrl_word(),
                    0x04 => r.lo,
                    0x08 => r.hi,
                    0x0C => r.rewrite,
                    0x10 => r.count as u32,
                    _ => 0,
                }
            }
            _ => 0,
        }
    }

    fn write32(&mut self, off: u32, value: u32, ctx: &mut DeviceCtx<'_>) {
        let _ = ctx;
        match off {
            0x00 => self.enabled = value & 1 != 0,
            0x04 => self.latency = u64::from(value),
            0x18 => self.fwd_capacity = value.max(1),
            0x1C => self.fwd_policy = value & 1,
            o if (0x40..0x40 + 0x20 * DMA_ROUTES as u32).contains(&o) => {
                let r = &mut self.routes[((o - 0x40) / 0x20) as usize];
                match o & 0x1C {
                    0x00 => {
                        r.enabled = value & 1 != 0;
                        r.b_to_a = value & 2 != 0;
                        r.irq_on_forward = value & 4 != 0;
                    }
                    0x04 => r.lo = value,
                    0x08 => r.hi = value,
                    0x0C => r.rewrite = value,
                    _ => {}
                }
            }
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
        vec![
            (self.wires[0].clone(), self.config.node_a),
            (self.wires[1].clone(), self.config.node_b),
        ]
    }

    /// Re-arms the tick at the arrival cycle of the first delivery not
    /// yet examined on either side.
    fn note_wire_progress(&mut self) {
        for (side, wire) in self.wires.iter().enumerate() {
            if let Some(d) = wire.delivery(self.seen[side]) {
                let arrival = d.completed_at.saturating_mul(wire.cycles_per_bit().max(1));
                self.poll_at = self.poll_at.min(arrival);
            }
        }
    }

    fn rebind_wires(&mut self, from: &[SharedCanBus], to: &[SharedCanBus]) {
        for w in &mut self.wires {
            if let Some(i) = from.iter().position(|x| x.same_wire(w)) {
                *w = to[i].clone();
            }
        }
    }

    fn set_trace_mask(&mut self, mask: u32) {
        self.tracer.set_mask(mask);
    }

    fn tracer(&self) -> Option<&alia_obs::Tracer> {
        Some(&self.tracer)
    }

    fn publish_metrics(&self, reg: &mut alia_obs::metrics::Registry, prefix: &str) {
        reg.counter(&format!("{prefix}dma.forwarded"), self.forwarded);
        reg.counter(&format!("{prefix}dma.no_route"), self.no_route);
        reg.counter(&format!("{prefix}dma.queue_overflows"), self.queue_overflows);
        for (i, r) in self.routes.iter().enumerate() {
            if r.count > 0 {
                reg.counter(&format!("{prefix}dma.route{i}.count"), r.count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusSignals;
    use crate::devices::{CanConfig, CanController};

    fn ctx(now: u64, signals: &mut BusSignals) -> DeviceCtx<'_> {
        DeviceCtx { now, signals }
    }

    /// Programs route `i` host-side through the register file.
    fn program_route(d: &mut Dma, i: u32, ctrl: u32, lo: u32, hi: u32, rewrite: u32) {
        let mut s = BusSignals::default();
        let base = 0x40 + i * 0x20;
        d.write32(base + 0x04, lo, &mut ctx(0, &mut s));
        d.write32(base + 0x08, hi, &mut ctx(0, &mut s));
        d.write32(base + 0x0C, rewrite, &mut ctx(0, &mut s));
        d.write32(base, ctrl, &mut ctx(0, &mut s));
    }

    #[test]
    fn forwards_and_rewrites_across_wires() {
        // A source controller on wire A, a sink on wire B, the engine
        // bridging them. The test plays the scheduler: run the wires,
        // note progress, tick at the armed cycles.
        let wa = SharedCanBus::named("a", 4);
        let wb = SharedCanBus::named("b", 2);
        let mut src =
            CanController::attached(CanConfig { node: 0, ..CanConfig::default() }, &wa);
        let mut sink =
            CanController::attached(CanConfig { node: 1, ..CanConfig::default() }, &wb);
        let mut dma = Dma::new(
            DmaConfig { node_a: 5, node_b: 6, latency: 100, ..DmaConfig::default() },
            &wa,
            &wb,
        );
        let mut s = BusSignals::default();
        // Route 0: ids 0x100..=0x17F from A to B, rewritten to 0x300+.
        program_route(&mut dma, 0, 0b001, 0x100, 0x17F, 1 << 31 | 0x300);
        dma.write32(0, 1, &mut ctx(0, &mut s)); // global enable
        src.write32(0, 0x105, &mut ctx(0, &mut s)); // TX_ID
        src.write32(4, 2, &mut ctx(0, &mut s)); // TX_DLC
        src.write32(8, 0xBEEF, &mut ctx(0, &mut s)); // TX_DATA0
        src.write32(16, 1, &mut ctx(0, &mut s)); // TX_GO
        // Scheduler boundary: wire A arbitrates, the engine is armed at
        // the delivery's arrival cycle.
        wa.advance(wa.min_quantum_cycles());
        dma.note_wire_progress();
        let arrival = dma.next_event().expect("delivery to examine");
        dma.tick(&mut ctx(arrival, &mut s));
        assert_eq!(dma.forwarded(), 1);
        assert_eq!(dma.route_count(0), 1);
        assert_eq!(dma.dropped(), 0);
        assert_eq!(wb.pending(), 1, "forward enqueued on wire B");
        // Next boundary: wire B transmits the forward.
        wb.advance(arrival + 100 + wb.min_quantum_cycles() + wb.cycles_per_bit());
        let fwd = wb.delivery(0).expect("forward transmitted");
        assert_eq!(fwd.frame.id.raw(), 0x305, "rewritten: 0x300 + (0x105 - 0x100)");
        assert_eq!(fwd.node, 6, "sent as the engine's wire-B node");
        assert!(
            fwd.enqueued_at >= (arrival + 100) / wb.cycles_per_bit(),
            "store-and-forward latency respected"
        );
        // The sink receives it; the engine sees its own forward complete
        // on wire B and does not route it back.
        sink.note_wire_progress();
        let at = sink.next_event().expect("sink armed");
        sink.tick(&mut ctx(at, &mut s));
        assert_eq!(sink.rx_count(), 1);
        assert_eq!(sink.read32(24, at, 0), 0x305);
        assert_eq!(sink.read32(32, at, 0), 0xBEEF);
        dma.note_wire_progress();
        let own = dma.next_event().expect("own forward to consume");
        dma.tick(&mut ctx(own, &mut s));
        assert_eq!(dma.forwarded(), 1, "no echo of its own forward");
        assert_eq!(dma.next_event(), None, "everything examined");
    }

    #[test]
    fn unmatched_frames_drop_and_direction_is_honoured() {
        let wa = SharedCanBus::named("a", 1);
        let wb = SharedCanBus::named("b", 1);
        let mut dma = Dma::new(
            DmaConfig { node_a: 5, node_b: 6, latency: 0, ..DmaConfig::default() },
            &wa,
            &wb,
        );
        let mut s = BusSignals::default();
        // Route 0 only matches B->A traffic in 0x200..=0x2FF.
        program_route(&mut dma, 0, 0b011, 0x200, 0x2FF, 0);
        dma.write32(0, 1, &mut ctx(0, &mut s));
        // An A-side frame in that range matches nothing (wrong side).
        wa.enqueue(0, 0, CanFrame::new(CanId::Standard(0x210), &[1]));
        wa.advance(200);
        dma.note_wire_progress();
        dma.tick(&mut ctx(dma.next_event().unwrap(), &mut s));
        assert_eq!(dma.dropped(), 1);
        assert_eq!(dma.forwarded(), 0);
        // A B-side frame in range forwards to A without rewrite.
        wb.enqueue(0, 0, CanFrame::new(CanId::Standard(0x210), &[2]));
        wb.advance(200);
        dma.note_wire_progress();
        dma.tick(&mut ctx(dma.next_event().unwrap(), &mut s));
        assert_eq!(dma.forwarded(), 1);
        assert_eq!(wa.pending(), 1);
        wa.advance(400);
        let fwd = wa.delivery(1).expect("forwarded onto wire A");
        assert_eq!(fwd.frame.id.raw(), 0x210, "no rewrite configured");
        assert_eq!(fwd.node, 5);
    }

    #[test]
    fn disabled_engine_consumes_but_never_forwards() {
        let wa = SharedCanBus::named("a", 1);
        let wb = SharedCanBus::named("b", 1);
        let mut dma = Dma::new(DmaConfig::default(), &wa, &wb);
        let mut s = BusSignals::default();
        program_route(&mut dma, 0, 0b001, 0, 0x7FF, 0);
        // Global enable left off.
        wa.enqueue(0, 1, CanFrame::new(CanId::Standard(0x100), &[3]));
        wa.advance(200);
        dma.note_wire_progress();
        dma.tick(&mut ctx(dma.next_event().unwrap(), &mut s));
        assert_eq!(dma.forwarded(), 0);
        assert_eq!(dma.dropped(), 0, "disabled: not even counted as dropped");
        assert_eq!(wb.pending(), 0);
        assert_eq!(dma.next_event(), None, "deliveries are still consumed while disabled");
    }

    #[test]
    fn irq_on_forward_is_stamped_at_the_forward_cycle() {
        let wa = SharedCanBus::named("a", 1);
        let wb = SharedCanBus::named("b", 1);
        let mut dma = Dma::new(
            DmaConfig { irq: 7, node_a: 5, node_b: 6, latency: 250, ..DmaConfig::default() },
            &wa,
            &wb,
        );
        let mut s = BusSignals::default();
        program_route(&mut dma, 0, 0b101, 0, 0x7FF, 0); // enable | A->B | irq
        dma.write32(0, 1, &mut ctx(0, &mut s));
        wa.enqueue(0, 1, CanFrame::new(CanId::Standard(0x42), &[4]));
        wa.advance(200);
        dma.note_wire_progress();
        let arrival = dma.next_event().unwrap();
        dma.tick(&mut ctx(arrival, &mut s));
        assert_eq!(s.timed_irqs, vec![(7, arrival + 250)]);
    }

    #[test]
    fn drop_counters_split_no_route_vs_queue_overflow() {
        // Regression for the DROPPED split: NO_ROUTE and QUEUE_OVERFLOW
        // count separately, and the legacy 0x0C register reads their sum.
        let wa = SharedCanBus::named("a", 1);
        let wb = SharedCanBus::named("b", 1);
        let mut dma = Dma::new(
            DmaConfig { node_a: 5, node_b: 6, latency: 0, ..DmaConfig::default() },
            &wa,
            &wb,
        );
        let mut s = BusSignals::default();
        program_route(&mut dma, 0, 0b001, 0x100, 0x1FF, 0);
        dma.write32(0, 1, &mut ctx(0, &mut s));
        dma.write32(0x18, 1, &mut ctx(0, &mut s)); // FWD_CAPACITY = 1
        assert_eq!(dma.read32(0x18, 0, 0), 1);
        // Three route matches back to back (dispatch one, queue one,
        // overflow one — drop-newest) plus one unroutable id.
        for (k, id) in [0x100u16, 0x101, 0x102, 0x400].iter().enumerate() {
            wa.enqueue(k as u64 * 200, 0, CanFrame::new(CanId::Standard(*id), &[k as u8]));
        }
        wa.advance(2_000);
        dma.note_wire_progress();
        dma.tick(&mut ctx(2_000, &mut s));
        assert_eq!(dma.forwarded(), 1, "one in flight");
        assert_eq!(dma.no_route(), 1, "0x400 matched no route");
        assert_eq!(dma.queue_overflows(), 1, "0x102 hit the full queue");
        assert_eq!(dma.dropped(), 2);
        assert_eq!(dma.read32(0x10, 2_000, 0), 1, "NO_ROUTE");
        assert_eq!(dma.read32(0x14, 2_000, 0), 1, "QUEUE_OVERFLOW");
        assert_eq!(dma.read32(0x0C, 2_000, 0), 2, "legacy DROPPED = sum");
        assert_eq!(wb.pending(), 1, "one forward in flight on B while the next waits queued");
        // The in-flight forward completes on B; the queued one follows.
        wb.advance(4_000);
        dma.note_wire_progress();
        dma.tick(&mut ctx(4_000, &mut s));
        wb.advance(8_000);
        assert_eq!(dma.forwarded(), 2, "queued forward dispatched after the first");
        let ids: Vec<u32> = (0..2).map(|i| wb.delivery(i).unwrap().frame.id.raw()).collect();
        assert_eq!(ids, vec![0x100, 0x101], "0x102 was the one lost");
    }

    #[test]
    fn drop_lowest_priority_policy_evicts_the_weakest() {
        let wa = SharedCanBus::named("a", 1);
        let wb = SharedCanBus::named("b", 1);
        let mut dma = Dma::new(
            DmaConfig { node_a: 5, node_b: 6, latency: 0, ..DmaConfig::default() },
            &wa,
            &wb,
        );
        let mut s = BusSignals::default();
        program_route(&mut dma, 0, 0b001, 0x000, 0x7FF, 0);
        dma.write32(0, 1, &mut ctx(0, &mut s));
        dma.write32(0x18, 1, &mut ctx(0, &mut s)); // FWD_CAPACITY = 1
        dma.write32(0x1C, 1, &mut ctx(0, &mut s)); // drop-lowest-priority
        // 0x300 dispatches; 0x180 queues; 0x110 (highest priority)
        // arrives at the full queue and evicts 0x180; then 0x200 arrives
        // and is itself the weakest — dropped.
        for (k, id) in [0x300u16, 0x180, 0x110, 0x200].iter().enumerate() {
            wa.enqueue(k as u64 * 200, 0, CanFrame::new(CanId::Standard(*id), &[k as u8]));
        }
        wa.advance(2_000);
        dma.note_wire_progress();
        dma.tick(&mut ctx(2_000, &mut s));
        assert_eq!(dma.queue_overflows(), 2, "0x180 evicted, 0x200 rejected");
        wb.advance(4_000);
        dma.note_wire_progress();
        dma.tick(&mut ctx(4_000, &mut s));
        wb.advance(8_000);
        assert_eq!(dma.forwarded(), 2);
        let ids: Vec<u32> = (0..2).map(|i| wb.delivery(i).unwrap().frame.id.raw()).collect();
        assert_eq!(ids, vec![0x300, 0x110], "the high-priority newcomer survived");
    }

    #[test]
    #[should_panic(expected = "two distinct wires")]
    fn same_wire_on_both_sides_is_rejected() {
        let w = SharedCanBus::named("can", 4);
        let _ = Dma::new(DmaConfig::default(), &w, &w.clone());
    }
}
