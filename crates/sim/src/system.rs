//! Multi-ECU execution: N machines, N shared CAN wires, a deterministic
//! quantum scheduler.
//!
//! A [`System`] owns a set of [`Node`]s (a [`Machine`] plus its device
//! set and local cycle clock) and a set of named [`SharedCanBus`]
//! **wires** ([`System::add_wire`]) that nodes' CAN controllers attach
//! to ([`crate::DeviceSpec::SharedCan`]) and [`crate::Dma`] gateway
//! engines bridge ([`crate::DeviceSpec::Dma`]) — a network topology,
//! not just one bus. [`System::run`] advances the nodes in bounded
//! quanta:
//!
//! 1. every live node runs to the quantum boundary
//!    ([`Machine::run_until`] — WFI sleeps park at the boundary instead
//!    of overshooting it);
//! 2. every wire arbitrates and transmits everything enqueued up
//!    to the boundary — nothing else ever advances a wire;
//! 3. the clients — CAN controllers and DMA gateways — of every wire
//!    that logged something new are re-armed at the arrival cycle of
//!    their next delivery ([`crate::Device::note_wire_progress`]), so
//!    reception — FIFO push, RX interrupt, gateway forward — happens at
//!    the exact completion cycle inside a later quantum, through the
//!    ordinary device-tick machinery. A per-wire client registry, built
//!    at [`System::add_node`], names them; clients of wires that did not
//!    move are left alone (they are already armed for everything they
//!    have not examined).
//!
//! Step 2 also copies what the scheduler needs of each wire —
//! `busy_until`, earliest queued enqueue (none when the queue is
//! empty), next fault event, log length — under the one lock it takes,
//! so computing the next boundary and checking quiescence lock nothing.
//!
//! The scheduler reaches its wire clients only through the
//! [`crate::Device`] trait (attachments, re-arm, fork rebinding,
//! traces, metrics): it never names a device type.
//!
//! # Why this is deterministic
//!
//! The quantum never exceeds any wire's **lookahead**
//! ([`SharedCanBus::min_quantum_cycles`]): the minimum time any CAN
//! frame occupies a wire. The effective quantum is the minimum
//! lookahead over all wires, so a frame enqueued on *any* wire inside
//! quantum *k* cannot complete before the boundary of quantum *k+1* —
//! by the time that wire arbitrates it, every node has already enqueued
//! everything it could have contributed to that arbitration window, and
//! same-id ties break on `(enqueue time, node id)`, not host call
//! order. Transmission start times depend only on enqueue times and
//! prior wire state, never on where the boundaries fall, so per-node
//! cycle counts, checksums and every wire's delivery log are
//! bit-identical for *any* quantum at or below the lookahead and *any*
//! node service order ([`SystemConfig`] exposes both knobs precisely so
//! tests can prove it). When a wire is busy past the next boundary the
//! quantum may stretch to its `busy_until` — but only as far as the
//! *earliest* such point over all wires (`min` over wires of
//! `max(boundary, busy_until)`): an idle wire can start a new
//! arbitration at any moment, so no wire's stretch may leap over
//! another wire's decision point.
//!
//! That conservative pacing is the reference schedule
//! ([`SystemConfig::idle_stretch`] `= false`). By default quanta are
//! **event-driven**: each ends at the earliest point any wire could
//! complete a transmission not yet logged. For each wire, take the
//! earliest cycle such a transmission could *start*:
//! `max(busy_until, min(earliest queued enqueue, next fault event,
//! earliest cycle a live client node can act))`, where an awake client
//! can act now and a WFI-parked one not before its
//! [`Machine::next_local_event`] — parked, it executes nothing, and its
//! devices tick only at their own events. Only a client can put a frame
//! on a wire. Add the wire's lookahead; the boundary is the minimum over
//! wires. A boundary there cannot slice a delivery: every transmission
//! the wire starts in this quantum starts at or after that earliest
//! start, so it completes at or after the boundary — after every node
//! has run up to it. Every delivery *inside* the quantum was therefore
//! logged at an earlier boundary, its clients were re-armed for it
//! then, and any node it can wake (a parked client's `next_local_event`
//! includes the re-armed tick) was counted in the earliest start. Nodes
//! that are no wire's client never enter: they cannot affect a wire.
//! The event bound only ever lengthens a quantum (it is applied when it
//! lies past the conservative boundary), and is still clamped to fault
//! events and the horizon.
//!
//! Gateway forwarding composes with the same argument: a delivery
//! materialized at a boundary always completes at or after that
//! boundary, the gateway's tick examines it at exactly its completion
//! cycle, and the forward is enqueued on the far wire at an exact
//! `completion + latency` stamp — never earlier than the far wire has
//! been advanced. Multi-hop (wire → gateway → wire → gateway → wire)
//! timing is therefore boundary-independent end to end.
//!
//! # Determinism under faults
//!
//! An active [`alia_can::FaultPlan`] adds three event sources, each
//! keyed to wire bit time and none able to outrun the lookahead:
//!
//! * **error frames** occupy at least `34 + 17` bits from the aborted
//!   transmission's start — strictly more than a clean minimal frame —
//!   so an error's completion stamp (the observable event: TEC/REC
//!   bumps, state transitions, the retransmission's requeue) obeys the
//!   same "enqueued in quantum *k*, completes after boundary *k+1*"
//!   contract as any delivery;
//! * **babble arms** enqueue at plan-fixed bit times, pumped by the
//!   wire itself in wire-time order — host call order and boundary
//!   placement never enter;
//! * **bus-off recoveries** complete at request-fixed bit times,
//!   applied by the wire before any transmission that starts later.
//!
//! Because an idle wire with a live arm or pending recovery can
//! generate traffic (and guest-visible IRQs) without any node acting,
//! a wire's next fault event ([`alia_can::CanBus::next_fault_event`])
//! counts as a possible transmission start in the event bound, no
//! boundary may leap past it, and a system with one pending is not
//! quiescent. With that veto in place, delivery logs, error-state logs,
//! retransmission stamps and guest checksums are bit-identical across
//! quantum sizes, node orderings and both boundary policies — the fault
//! determinism sweep in `tests/integration_faults.rs` proves it.

use crate::devices::{SharedCanBus, WireView};
use crate::machine::{Machine, StopReason};

/// A machine participating in a [`System`]: the machine, its name, and
/// its halt state. The node's clock is the machine's cycle counter; the
/// scheduler advances it in quanta via [`Node::run_until`].
#[derive(Debug, Clone)]
pub struct Node {
    name: String,
    machine: Machine,
    halted: Option<StopReason>,
}

impl Node {
    /// Wraps `machine` as a schedulable node.
    #[must_use]
    pub fn new(name: impl Into<String>, machine: Machine) -> Node {
        Node { name: name.into(), machine, halted: None }
    }

    /// The node's name (diagnostics and reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wrapped machine.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the wrapped machine (loading images, reading
    /// results). Callers must not advance the machine directly while a
    /// `System` is scheduling it.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Why the node halted, if it has ([`StopReason::CycleLimit`] never
    /// halts a node — it only marks a quantum boundary).
    #[must_use]
    pub fn halted(&self) -> Option<StopReason> {
        self.halted
    }

    /// The node's local clock (machine cycles).
    ///
    /// A node that settled as parked-idle ([`StopReason::WfiIdle`])
    /// reports the architectural sleep-entry cycle of its final WFI
    /// sleep — the scheduler normalizes the parked clock when it
    /// declares quiescence, so *every* node's clock (parked-idle ones
    /// included) is bit-identical across quantum sizes, node orderings
    /// and boundary policies.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// Runs the node up to `cycle` (a bounded, resumable advance).
    /// Returns the halt reason if the node stopped for a reason other
    /// than the bound, now or previously.
    pub fn run_until(&mut self, cycle: u64) -> Option<StopReason> {
        if self.halted.is_none() && self.machine.cycles() < cycle {
            let r = self.machine.run_until(cycle);
            if r.reason != StopReason::CycleLimit {
                self.halted = Some(r.reason);
            }
        }
        self.halted
    }
}

/// Scheduler knobs. The defaults are always safe; the knobs exist so
/// determinism tests can vary the schedule and assert identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Quantum override in cycles. Clamped to the shared wire's
    /// lookahead ([`SharedCanBus::min_quantum_cycles`]) — larger values
    /// could deliver frames late. `None` uses the lookahead itself
    /// (or one whole-horizon quantum when no shared wire is attached).
    /// Under event-driven quanta it caps each wire's margin past the
    /// earliest possible transmission start instead.
    pub quantum: Option<u64>,
    /// Rotate the node service order every quantum instead of always
    /// starting at node 0. Results must not change either way.
    pub rotate_order: bool,
    /// Event-driven quanta (the default): each quantum ends at the
    /// earliest point any wire could complete a transmission not yet
    /// logged — past busy wires, sleeping nodes and idle stretches
    /// alike (see the module docs). `false` keeps conservative pacing
    /// at the lookahead, the reference schedule for determinism
    /// comparisons. Results must not change either way.
    pub idle_stretch: bool,
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig { quantum: None, rotate_order: false, idle_stretch: true }
    }
}

/// Why [`System::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemStop {
    /// Every node halted: exit, breakpoint, fault, or system-wide
    /// quiescence (all live nodes asleep in WFI with no local events
    /// and a quiet wire — each is marked [`StopReason::WfiIdle`]).
    AllHalted,
    /// The horizon was reached with at least one node still live.
    Horizon,
}

/// The outcome of [`System::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemRunResult {
    /// Why the run returned.
    pub reason: SystemStop,
    /// Global time reached (cycles).
    pub now: u64,
    /// Quanta executed (scheduler introspection).
    pub quanta: u64,
}

// Campaign workers fork a shared `&System` and run the fork on their
// own thread; this must keep compiling if anyone adds non-Send state
// to the machine stack.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Node>();
};

/// A wire client: device `device` (bus attachment index) of node `node`,
/// station `id` on the wire.
#[derive(Debug, Clone, Copy)]
struct Client {
    node: usize,
    device: usize,
    id: usize,
}

/// The scheduler's bookkeeping for one wire (parallel to
/// [`System::wires`]).
#[derive(Debug, Clone)]
struct WireState {
    /// Every device attached to the wire, registered at `add_node`
    /// ([`crate::Device::wire_attachments`]).
    clients: Vec<Client>,
    /// The wire as it stood after it last ran.
    view: WireView,
}

/// N nodes plus shared interconnects, advanced by a deterministic
/// event-driven quantum scheduler. See the module docs for the
/// scheduling contract.
#[derive(Debug, Default)]
pub struct System {
    nodes: Vec<Node>,
    wires: Vec<SharedCanBus>,
    wire_state: Vec<WireState>,
    config: SystemConfig,
    now: u64,
    quanta: u64,
    /// The scheduler's own tracer ([`alia_obs::category::SCHED`]:
    /// quantum boundaries, idle stretches). These events are an
    /// artifact of the scheduler configuration — excluded from
    /// [`alia_obs::category::SEMANTIC`] hashing by design.
    tracer: alia_obs::Tracer,
}

impl System {
    /// An empty system with default scheduling.
    #[must_use]
    pub fn new() -> System {
        System::default()
    }

    /// An empty system with explicit scheduler knobs.
    #[must_use]
    pub fn with_config(config: SystemConfig) -> System {
        System { config, ..System::default() }
    }

    /// Creates a named shared CAN wire, registers it with the scheduler
    /// and returns the attachment handle (pass it to
    /// [`crate::DeviceSpec::SharedCan`] for each participating
    /// controller, or to [`crate::DeviceSpec::Dma`] for a gateway
    /// engine). A system may carry any number of wires; the effective
    /// quantum is the minimum lookahead over all of them.
    ///
    /// # Panics
    ///
    /// Panics when a registered wire already carries `name` (reports key
    /// on wire names).
    pub fn add_wire(&mut self, name: impl Into<String>, cycles_per_bit: u64) -> SharedCanBus {
        let name = name.into();
        assert!(
            self.wires.iter().all(|w| w.name() != name),
            "duplicate wire name {name:?}"
        );
        let wire = SharedCanBus::named(name, cycles_per_bit);
        self.push_wire(wire.clone());
        wire
    }

    fn push_wire(&mut self, wire: SharedCanBus) {
        self.wire_state.push(WireState { clients: Vec::new(), view: wire.view() });
        self.wires.push(wire);
    }

    /// Adds a node and returns its index. Nodes join at the system's
    /// current time; machines must not have been run ahead of it.
    ///
    /// Every wire the machine's devices attach to — through shared CAN
    /// controllers or DMA gateway engines — is adopted into the
    /// system's wire set if not already registered (wires created
    /// standalone via [`SharedCanBus::named`] work exactly like ones
    /// from [`System::add_wire`]): a wire the scheduler does not
    /// service would never deliver a frame. Each attached device joins
    /// its wire's client registry; when a wire already has a log, the
    /// node's wire clients are re-armed once so they examine it.
    ///
    /// # Panics
    ///
    /// Panics when the machine was run ahead of system time, or when an
    /// attachment reuses a CAN node id already present **on the same
    /// wire** (receivers filter their own transmissions by node id, so
    /// a duplicate would silently drop every peer frame; the same id on
    /// *different* wires is fine).
    pub fn add_node(&mut self, name: impl Into<String>, machine: Machine) -> usize {
        assert!(
            machine.cycles() <= self.now,
            "a node must not join ahead of system time"
        );
        let node = self.nodes.len();
        let mut joins_a_log = false;
        for (device, d) in machine.bus.devices().iter().enumerate() {
            for (w, id) in d.dev.wire_attachments() {
                let wi = match self.wires.iter().position(|x| x.same_wire(&w)) {
                    Some(wi) => wi,
                    None => {
                        // Adoption must uphold the same invariant add_wire
                        // asserts: reports key on wire names.
                        assert!(
                            self.wires.iter().all(|x| x.name() != w.name()),
                            "adopted wire duplicates the name {:?} of a registered wire",
                            w.name()
                        );
                        self.push_wire(w.clone());
                        self.wires.len() - 1
                    }
                };
                let state = &mut self.wire_state[wi];
                assert!(
                    state.clients.iter().all(|c| c.id != id),
                    "duplicate CAN node id {id} on wire {:?}",
                    w.name()
                );
                state.clients.push(Client { node, device, id });
                joins_a_log |= state.view.log_len > 0;
            }
        }
        self.nodes.push(Node::new(name, machine));
        if joins_a_log {
            let bus = &mut self.nodes[node].machine.bus;
            for d in bus.devices_mut() {
                d.note_wire_progress();
            }
            bus.refresh_next_event();
        }
        node
    }

    /// The nodes.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node `i`.
    #[must_use]
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Mutable node `i` (setup and result extraction).
    pub fn node_mut(&mut self, i: usize) -> &mut Node {
        &mut self.nodes[i]
    }

    /// Every wire the scheduler services, in registration order.
    #[must_use]
    pub fn wires(&self) -> &[SharedCanBus] {
        &self.wires
    }

    /// The registered wire named `name`, if any.
    #[must_use]
    pub fn wire_named(&self, name: &str) -> Option<&SharedCanBus> {
        self.wires.iter().find(|w| w.name() == name)
    }

    /// Global time reached so far (cycles).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Quanta executed so far.
    #[must_use]
    pub fn quanta(&self) -> u64 {
        self.quanta
    }

    /// Transmits everything still queued on every wire
    /// ([`SharedCanBus::settle`]) so per-wire utilization and latency
    /// reports account for frames enqueued just before the run ended.
    pub fn settle_wires(&self) {
        for w in &self.wires {
            w.settle();
        }
    }

    /// The scheduler configuration.
    #[must_use]
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Sets the tracing category bitmask on the scheduler's own tracer
    /// and on every node's machine (which propagates to its DMA
    /// gateways). Pass [`alia_obs::category::ALL`] to record
    /// everything, `0` to disable tracing entirely (the default).
    pub fn set_trace_mask(&mut self, mask: u32) {
        self.tracer.set_mask(mask);
        for node in &mut self.nodes {
            node.machine.set_trace_mask(mask);
        }
    }

    /// Collects every recorded trace stream into one [`alia_obs::TraceSet`]:
    /// one stream per node (CPU-side events plus its DMA gateways'
    /// events, merged by cycle), one synthesized stream per wire
    /// (arbitration wins from the delivery log, error-state transitions
    /// from the state log — both deterministic, so the synthesized
    /// stream is too), and a final `"scheduler"` stream of quantum
    /// boundaries and idle stretches (config-dependent by design).
    ///
    /// Wire-log bit times are scaled to core cycles by each wire's
    /// `cycles_per_bit`, so all streams share one timebase.
    #[must_use]
    pub fn trace_set(&self) -> alia_obs::TraceSet {
        let mut set = alia_obs::TraceSet::default();
        for node in &self.nodes {
            let mut events: Vec<alia_obs::TraceEvent> =
                node.machine.tracer().events().to_vec();
            for dev in node.machine.bus.devices() {
                if let Some(t) = dev.dev.tracer() {
                    events.extend_from_slice(&t.events());
                }
            }
            // Machine and gateway events are each cycle-ordered; a
            // stable merge keeps the combined stream cycle-ordered with
            // CPU events first within a cycle.
            events.sort_by_key(|e| e.cycle);
            set.push_stream(node.name(), events);
        }
        for wire in &self.wires {
            let cpb = wire.cycles_per_bit();
            let mut events: Vec<alia_obs::TraceEvent> = Vec::new();
            for d in wire.delivery_log() {
                events.push(alia_obs::TraceEvent {
                    cycle: d.completed_at.saturating_mul(cpb),
                    kind: alia_obs::EventKind::FrameTx {
                        id: d.frame.id.raw(),
                        node: d.node as u32,
                        enqueued: d.enqueued_at.saturating_mul(cpb),
                        // `Delivery::attempt` counts *failed* attempts
                        // before this event; the trace reports the
                        // 1-based attempt ordinal.
                        attempt: d.attempt + 1,
                        data: d.kind == alia_can::DeliveryKind::Data,
                    },
                });
            }
            for s in wire.state_log() {
                events.push(alia_obs::TraceEvent {
                    cycle: s.at.saturating_mul(cpb),
                    kind: alia_obs::EventKind::ErrorState {
                        node: s.node as u32,
                        state: s.to as u8,
                    },
                });
            }
            events.sort_by_key(|e| e.cycle);
            set.push_stream(wire.name(), events);
        }
        set.push_stream("scheduler", self.tracer.events().to_vec());
        set
    }

    /// Publishes every node's and wire's metrics into `reg`:
    /// `node.<name>.*` for each machine (see
    /// [`Machine::publish_metrics`]) and `wire.<name>.*` counters and
    /// gauges for each CAN wire (deliveries, error frames, rejected /
    /// purged transmissions, and utilization over the active window,
    /// [`SharedCanBus::span_utilization`], 0 before the first delivery:
    /// independent of where quantum boundaries fell).
    pub fn publish_metrics(&self, reg: &mut alia_obs::metrics::Registry) {
        for node in &self.nodes {
            node.machine.publish_metrics(reg, &format!("node.{}.", node.name()));
        }
        for wire in &self.wires {
            let p = format!("wire.{}.", wire.name());
            reg.counter(&format!("{p}deliveries"), wire.deliveries_len() as u64);
            reg.counter(&format!("{p}error_frames"), wire.error_frames());
            reg.counter(&format!("{p}rejected_tx"), wire.rejected_tx());
            reg.counter(&format!("{p}purged_tx"), wire.purged_tx());
            reg.gauge(&format!("{p}utilization"), wire.span_utilization().unwrap_or(0.0));
        }
    }

    /// A fully independent deep copy of the whole topology: every node
    /// is cloned (a machine's clone copies only the memory pages it
    /// wrote — see [`Machine::resident_pages`]),
    /// every wire is deep-copied onto a new identity
    /// ([`SharedCanBus::fork_detached`]), and each forked node's shared
    /// CAN controllers and DMA gateway engines are rebound to the
    /// forked wires — matched by wire identity, so multi-wire
    /// topologies fork correctly. Traffic in the fork never appears on
    /// the original's wires or vice versa, and both systems continue
    /// bit-identically from the fork point given identical inputs.
    ///
    /// Forking a warmed-up topology costs microseconds (proportional to
    /// the written memory footprint, [`Machine::resident_pages`] per
    /// node), which is what makes campaign fan-out cheap: build and warm
    /// one system, fork it per run.
    #[must_use]
    pub fn fork(&self) -> System {
        let wires: Vec<SharedCanBus> =
            self.wires.iter().map(SharedCanBus::fork_detached).collect();
        let mut nodes = self.nodes.clone();
        for node in &mut nodes {
            for d in node.machine.bus.devices_mut() {
                d.rebind_wires(&self.wires, &wires);
            }
        }
        System {
            nodes,
            wires,
            wire_state: self.wire_state.clone(),
            config: self.config,
            now: self.now,
            quanta: self.quanta,
            tracer: self.tracer.clone(),
        }
    }

    /// The effective quantum in cycles: the configured override clamped
    /// to the **minimum lookahead over all wires** (a frame on the
    /// fastest-lookahead wire is the earliest anything enqueued this
    /// quantum could complete), or that minimum itself (`u64::MAX` with
    /// no wires — independent nodes need no boundaries).
    #[must_use]
    pub fn effective_quantum(&self) -> u64 {
        let lookahead = self
            .wires
            .iter()
            .map(SharedCanBus::min_quantum_cycles)
            .min()
            .unwrap_or(u64::MAX);
        self.config.quantum.unwrap_or(lookahead).min(lookahead).max(1)
    }

    /// The event-driven quantum boundary: for each wire, the earliest
    /// cycle a transmission not yet logged could start —
    /// `max(busy_until, min(earliest queued enqueue, next fault event,
    /// earliest cycle a live client node can act))`, where an awake
    /// client can act now and a WFI-parked one not before its
    /// [`Machine::next_local_event`] — plus the wire's lookahead (capped
    /// by [`SystemConfig::quantum`]); the minimum over all wires. `None`
    /// when no wire can ever carry another transmission without outside
    /// input.
    fn event_boundary(&self) -> Option<u64> {
        let mut boundary = u64::MAX;
        for (wire, state) in self.wires.iter().zip(&self.wire_state) {
            let view = &state.view;
            let mut start = view
                .earliest_enqueue
                .unwrap_or(u64::MAX)
                .min(view.next_fault.unwrap_or(u64::MAX));
            for c in &state.clients {
                let node = &self.nodes[c.node];
                if node.halted.is_none() {
                    let m = node.machine();
                    start = start.min(if m.wfi_parked() { m.next_local_event() } else { self.now });
                }
            }
            if start != u64::MAX {
                let lookahead = wire.min_quantum_cycles();
                let margin = self.config.quantum.map_or(lookahead, |q| q.min(lookahead)).max(1);
                boundary = boundary.min(start.max(view.busy_until).saturating_add(margin));
            }
        }
        (boundary != u64::MAX).then_some(boundary)
    }

    /// Stores wire `wi`'s fresh view and, when its log grew, re-arms its
    /// clients ([`crate::Device::note_wire_progress`]).
    fn update_view(&mut self, wi: usize, view: WireView) {
        let state = &mut self.wire_state[wi];
        let moved = view.log_len != state.view.log_len;
        state.view = view;
        if moved {
            for c in &state.clients {
                let bus = &mut self.nodes[c.node].machine.bus;
                if let Some(d) = bus.devices_mut().nth(c.device) {
                    d.note_wire_progress();
                }
                bus.refresh_next_event();
            }
        }
    }

    /// Advances the system to `horizon` (cycles) or until every node
    /// halts, delivering cross-node CAN frames cycle-accurately.
    pub fn run(&mut self, horizon: u64) -> SystemRunResult {
        let quantum = self.effective_quantum();
        // Host calls since the last run (fault plans, injected frames,
        // settles) may have moved a wire: start from fresh views.
        for wi in 0..self.wires.len() {
            let view = self.wires[wi].view();
            self.update_view(wi, view);
        }
        while self.now < horizon && self.nodes.iter().any(|n| n.halted.is_none()) {
            // Conservative boundary: never beyond the lookahead past
            // `now`, but stretched across busy wires — only to the
            // *earliest* per-wire decision point (`min` over wires of
            // `max(base, busy_until)`): a busy wire admits no new
            // arbitration before its `busy_until`, but an idle wire can
            // start one at any moment, so no single wire's stretch may
            // leap over another's.
            let base = self.now.saturating_add(quantum);
            let mut boundary = self
                .wire_state
                .iter()
                .map(|w| base.max(w.view.busy_until))
                .min()
                .unwrap_or(base);
            // Event-driven boundary: as far as the earliest point any
            // wire could complete a transmission not yet logged.
            if self.config.idle_stretch {
                if let Some(event) = self.event_boundary().filter(|&e| e > boundary) {
                    self.tracer.record(self.now, alia_obs::EventKind::IdleStretch { to: event });
                    boundary = event;
                }
            }
            let mut boundary = boundary.min(horizon);
            // Never leap over a wire's scheduled fault event (a babble
            // arm's next enqueue or a bus-off recovery completion): a
            // fault event can fire on an *idle* wire — landing the
            // boundary exactly on its stamp keeps the IRQs it raises
            // (and so parked nodes' wake cycles) bit-identical across
            // quantum sizes and boundary policies.
            for state in &self.wire_state {
                if let Some(fault) = state.view.next_fault {
                    if fault > self.now && fault < boundary {
                        boundary = fault;
                    }
                }
            }
            let boundary = boundary;
            // 1. Every live node runs to the boundary. The service
            // order is immaterial (nodes only interact through the
            // wires, which are parked until step 2: within a quantum a
            // node only appends to pending wire queues, arbitrated by a
            // host-order-independent total order at step 2, and reads
            // delivery/state log prefixes frozen since the last
            // boundary); `rotate_order` exists to prove that.
            let n = self.nodes.len();
            let offset = if self.config.rotate_order && n > 0 {
                (self.quanta as usize) % n
            } else {
                0
            };
            for i in 0..n {
                self.nodes[(i + offset) % n].run_until(boundary);
            }
            // 2. Every wire arbitrates everything enqueued this quantum.
            // 3. The clients (controllers, gateways) of every wire that
            //    logged something re-arm at their next delivery's arrival.
            for wi in 0..self.wires.len() {
                let view = self.wires[wi].advance(boundary);
                self.update_view(wi, view);
            }
            // Quiescence: when every wire is quiet (nothing queued, in
            // flight, or scheduled by a fault plan) and every live node
            // is parked in a WFI sleep with no local wakeup source, no
            // event can ever occur again — the nodes are idle exactly
            // as a lone machine reporting `WfiIdle` would be. Without
            // this, an all-idle system would spin one quantum at a time
            // to the horizon. A live babble arm or pending bus-off
            // recovery vetoes: the wire will act (and may raise IRQs)
            // without any node doing anything.
            let wire_quiet = self.wire_state.iter().all(|w| {
                w.view.earliest_enqueue.is_none()
                    && w.view.busy_until <= boundary
                    && w.view.next_fault.is_none()
            });
            if wire_quiet
                && self
                    .nodes
                    .iter()
                    .all(|n| n.halted.is_some() || n.machine.idle_parked())
            {
                for n in &mut self.nodes {
                    if n.halted.is_none() {
                        // The park point was a scheduler boundary; the
                        // architectural sleep-entry cycle is what the
                        // node's clock reports from here on (see
                        // `Node::cycles`).
                        n.machine.normalize_parked_clock();
                        n.halted = Some(StopReason::WfiIdle);
                    }
                }
            }
            self.tracer.record(boundary, alia_obs::EventKind::Quantum { index: self.quanta });
            self.now = boundary;
            self.quanta += 1;
        }
        let reason = if self.nodes.iter().all(|n| n.halted.is_some()) {
            SystemStop::AllHalted
        } else {
            SystemStop::Horizon
        };
        SystemRunResult { reason, now: self.now, quanta: self.quanta }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{CanConfig, CanController, TimerConfig};
    use crate::dma::Dma;
    use crate::machine::{DeviceSpec, MachineConfig};
    use crate::{CAN_BASE, SRAM_BASE, TIMER_BASE};
    use alia_isa::{Assembler, IsaMode};

    fn asm(src: &str) -> Vec<u8> {
        Assembler::new(IsaMode::T2).assemble(src).expect("assembles").bytes
    }

    fn machine(config: MachineConfig, main: &[u8]) -> Machine {
        let mut m = Machine::new(config);
        m.load_flash(0x100, main);
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    }

    #[test]
    fn independent_nodes_run_to_completion() {
        let mut sys = System::new();
        let count = |n: u32| {
            asm(&format!(
                "mov r0, #0
                 loop: add r0, r0, #1
                 cmp r0, #{n}
                 bne loop
                 bkpt #0"
            ))
        };
        sys.add_node("a", machine(MachineConfig::m3_like(), &count(10)));
        sys.add_node("b", machine(MachineConfig::m3_like(), &count(200)));
        let r = sys.run(1_000_000);
        assert_eq!(r.reason, SystemStop::AllHalted);
        assert_eq!(sys.node(0).halted(), Some(StopReason::Bkpt(0)));
        assert_eq!(sys.node(1).halted(), Some(StopReason::Bkpt(0)));
        assert_eq!(sys.node(0).machine().cpu.regs[0], 10);
        assert_eq!(sys.node(1).machine().cpu.regs[0], 200);
        assert!(sys.node(1).cycles() > sys.node(0).cycles());
        assert_eq!(r.quanta, 1, "no wire: a single whole-horizon quantum");
    }

    #[test]
    fn frames_cross_the_shared_wire_guest_to_guest() {
        // Producer: timer-paced TX of 4 frames, then exit. Consumer:
        // spins until its RX IRQ handler has drained 4 frames, then
        // exits with the checksum.
        let mut sys = System::new();
        let wire = sys.add_wire("can0", 4);
        let mut pconf = MachineConfig::m3_like();
        pconf.devices = vec![
            DeviceSpec::Timer(TimerConfig { base: TIMER_BASE, irq: 0, compare: 800 }),
            DeviceSpec::SharedCan(
                CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
                wire.clone(),
            ),
        ];
        let main_p = asm(
            "movw r0, #0x1000
             movt r0, #0x4000
             movw r1, #800
             str r1, [r0, #4]
             mov r1, #3
             str r1, [r0, #0]
             spin: cmp r4, #4
             bne spin
             movw r0, #0
             movt r0, #0x4000
             str r4, [r0, #0]
             halt: b halt",
        );
        let tx_handler = asm(
            "movw r0, #0x2000
             movt r0, #0x4000
             cmp r4, #4
             bge done
             movw r1, #0x100
             add r1, r1, r4
             str r1, [r0, #0]
             mov r1, #4
             str r1, [r0, #4]
             str r4, [r0, #8]
             mov r1, #0
             str r1, [r0, #12]
             str r1, [r0, #16]
             add r4, r4, #1
             done: bx lr",
        );
        let mut p = machine(pconf, &main_p);
        p.load_flash(0x200, &tx_handler);
        p.load_flash(0, &0x200u32.to_le_bytes());
        sys.add_node("producer", p);

        let mut cconf = MachineConfig::m3_like();
        cconf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 1, ..CanConfig::default() },
            wire.clone(),
        )];
        let main_c = asm(
            "spin: cmp r7, #4
             bne spin
             movw r0, #0
             movt r0, #0x4000
             str r6, [r0, #0]
             halt: b halt",
        );
        let rx_handler = asm(
            "movw r0, #0x2000
             movt r0, #0x4000
             rxloop: ldr r1, [r0, #20]
             cmp r1, #0
             beq rxdone
             ldr r1, [r0, #24]
             add r6, r6, r1
             ldr r1, [r0, #32]
             add r6, r6, r1
             str r1, [r0, #40]
             add r7, r7, #1
             b rxloop
             rxdone: bx lr",
        );
        let mut c = machine(cconf, &main_c);
        c.load_flash(0x200, &rx_handler);
        c.load_flash(4, &0x200u32.to_le_bytes());
        sys.add_node("consumer", c);

        let r = sys.run(10_000_000);
        assert_eq!(r.reason, SystemStop::AllHalted);
        let expected: u32 = (0..4).map(|k| 0x100 + k + k).sum();
        assert_eq!(sys.node(0).halted(), Some(StopReason::MmioExit(4)));
        assert_eq!(sys.node(1).halted(), Some(StopReason::MmioExit(expected)));
        assert_eq!(wire.deliveries_len(), 4);
        // RX interrupts were stamped at frame-completion cycles: the
        // consumer's observed latencies are the entry overhead, not a
        // quantum-boundary artifact.
        let lats = sys.node(1).machine().latencies();
        assert_eq!(lats.len(), 4);
        assert!(lats.iter().all(|l| l.entry_cycle - l.pend_cycle < 100));

        // The metrics registry is a uniform view over the same
        // counters the legacy accessors report — pin them equal so the
        // two can never drift.
        let mut reg = alia_obs::metrics::Registry::new();
        sys.publish_metrics(&mut reg);
        let snap = reg.snapshot();
        let find_can = |node: usize| {
            sys.node(node)
                .machine()
                .bus
                .devices()
                .iter()
                .enumerate()
                .find_map(|(i, d)| {
                    (&*d.dev as &dyn std::any::Any).downcast_ref::<CanController>().map(|c| (i, c))
                })
                .expect("node has a CAN controller")
        };
        let (pi, producer_can) = find_can(0);
        assert_eq!(
            snap.counter(&format!("node.producer.dev{pi}.can.tx_count")),
            Some(producer_can.tx_count())
        );
        let (ci, consumer_can) = find_can(1);
        assert_eq!(
            snap.counter(&format!("node.consumer.dev{ci}.can.rx_count")),
            Some(consumer_can.rx_count())
        );
        assert_eq!(consumer_can.rx_count(), 4);
        assert_eq!(snap.counter("wire.can0.deliveries"), Some(wire.deliveries_len() as u64));
        assert_eq!(snap.counter("wire.can0.error_frames"), Some(wire.error_frames()));
        for (i, node) in ["producer", "consumer"].iter().enumerate() {
            let m = sys.node(i).machine();
            assert_eq!(snap.counter(&format!("node.{node}.cycles")), Some(m.cycles()));
            assert_eq!(snap.counter(&format!("node.{node}.instructions")), Some(m.instructions()));
            let s = m.predecode_stats();
            assert_eq!(snap.counter(&format!("node.{node}.blocks.hits")), Some(s.block_hits));
            assert_eq!(
                snap.counter(&format!("node.{node}.blocks.promoted")),
                Some(s.blocks_promoted)
            );
            assert_eq!(
                snap.counter(&format!("node.{node}.irq.taken")),
                Some(m.latencies().len() as u64)
            );
        }
    }

    #[test]
    fn quiescent_wfi_system_halts_as_idle() {
        // Every live node asleep with no local events and a quiet wire:
        // the system must settle to AllHalted/WfiIdle, not spin one
        // quantum at a time until the horizon.
        let mut sys = System::new();
        let wire = sys.add_wire("can0", 4);
        let mut conf = MachineConfig::m3_like();
        conf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
            wire.clone(),
        )];
        sys.add_node("sleeper", machine(conf, &asm("wfi\n bkpt #0")));
        sys.add_node("done", machine(MachineConfig::m3_like(), &asm("bkpt #0")));
        let r = sys.run(100_000_000);
        assert_eq!(r.reason, SystemStop::AllHalted);
        assert_eq!(sys.node(0).halted(), Some(StopReason::WfiIdle));
        assert_eq!(sys.node(1).halted(), Some(StopReason::Bkpt(0)));
        assert!(r.quanta < 4, "settled immediately, not at the horizon");
    }

    #[test]
    fn babble_arm_wakes_a_parked_system_and_vetoes_quiescence() {
        // A wire with a live babble arm generates traffic (and RX
        // IRQs) while every node sleeps: event-driven quanta must land
        // on the arm's enqueues instead of leaping past them, quiescence
        // must not fire, and results equal conservative pacing's.
        let run = |idle_stretch: bool| {
            let mut sys = System::with_config(SystemConfig {
                idle_stretch,
                ..SystemConfig::default()
            });
            let wire = sys.add_wire("can0", 4);
            let mut plan = alia_can::FaultPlan::new();
            plan.add_babbler(alia_can::BabbleArm {
                node: 9,
                id: alia_can::CanId::Standard(0x010),
                dlc: 2,
                start: 2_000,
                period: 1_000,
                frames: 3,
                corrupt: false,
            });
            wire.set_fault_plan(plan);
            let mut conf = MachineConfig::m3_like();
            conf.devices = vec![DeviceSpec::SharedCan(
                CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
                wire.clone(),
            )];
            let main = asm(
                "sleep: wfi
                 cmp r7, #3
                 bne sleep
                 movw r0, #0
                 movt r0, #0x4000
                 str r7, [r0, #0]
                 halt: b halt",
            );
            let rx_handler = asm(
                "movw r0, #0x2000
                 movt r0, #0x4000
                 rxloop: ldr r1, [r0, #20]
                 cmp r1, #0
                 beq rxdone
                 ldr r1, [r0, #24]
                 add r6, r6, r1
                 str r1, [r0, #40]
                 add r7, r7, #1
                 b rxloop
                 rxdone: bx lr",
            );
            let mut m = machine(conf, &main);
            m.load_flash(0x200, &rx_handler);
            m.load_flash(4, &0x200u32.to_le_bytes());
            sys.add_node("victim", m);
            let r = sys.run(1_000_000);
            let stamps: Vec<u64> =
                (0..wire.deliveries_len()).map(|i| wire.delivery(i).unwrap().completed_at).collect();
            (r, sys.node(0).halted(), stamps)
        };
        let (r_on, halt_on, stamps_on) = run(true);
        let (r_off, halt_off, stamps_off) = run(false);
        for (r, halt, stamps) in [(&r_on, halt_on, &stamps_on), (&r_off, halt_off, &stamps_off)] {
            assert_eq!(r.reason, SystemStop::AllHalted);
            assert_eq!(
                halt,
                Some(StopReason::MmioExit(3)),
                "woken by babble frames, not parked idle"
            );
            assert_eq!(stamps.len(), 3);
        }
        assert_eq!(stamps_on, stamps_off, "delivery stamps are stretch-independent");
        assert!(r_on.quanta < r_off.quanta, "the stretch engaged between babble frames");
    }

    #[test]
    fn standalone_wire_is_adopted_at_add_node() {
        // A SharedCanBus built outside System::add_wire must still be
        // serviced by the scheduler.
        let wire = SharedCanBus::named("can", 4);
        let mut conf = MachineConfig::m3_like();
        conf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
            wire.clone(),
        )];
        let mut sys = System::new();
        sys.add_node("n0", machine(conf, &asm("bkpt #0")));
        assert!(sys.wire_named("can").is_some_and(|w| w.same_wire(&wire)));
    }

    #[test]
    #[should_panic(expected = "duplicate CAN node id")]
    fn duplicate_node_ids_are_rejected() {
        // Receivers filter their own transmissions by node id; two
        // controllers sharing an id would silently drop peer frames.
        let mut sys = System::new();
        let wire = sys.add_wire("can0", 4);
        let conf = |node| {
            let mut c = MachineConfig::m3_like();
            c.devices = vec![DeviceSpec::SharedCan(
                CanConfig { base: CAN_BASE, irq: 1, node, ..CanConfig::default() },
                wire.clone(),
            )];
            c
        };
        sys.add_node("a", machine(conf(0), &asm("bkpt #0")));
        sys.add_node("b", machine(conf(0), &asm("bkpt #0")));
    }

    #[test]
    fn second_wire_is_adopted_and_ids_are_per_wire() {
        // Multi-bus: a controller on a wire the system has never seen
        // joins the wire set, and node ids only collide *within* a
        // wire — the same id on two different wires is two different
        // stations.
        let mut sys = System::new();
        let w0 = sys.add_wire("body", 4);
        let other = SharedCanBus::named("powertrain", 8);
        let conf = |wire: &SharedCanBus| {
            let mut c = MachineConfig::m3_like();
            c.devices = vec![DeviceSpec::SharedCan(
                CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
                wire.clone(),
            )];
            c
        };
        sys.add_node("a", machine(conf(&w0), &asm("bkpt #0")));
        sys.add_node("b", machine(conf(&other), &asm("bkpt #0")));
        assert_eq!(sys.wires().len(), 2);
        assert!(sys.wire_named("powertrain").is_some_and(|w| w.same_wire(&other)));
        assert_eq!(sys.wire_named("body").unwrap().cycles_per_bit(), 4);
        // The effective quantum is governed by the tightest wire.
        assert_eq!(
            sys.effective_quantum(),
            w0.min_quantum_cycles().min(other.min_quantum_cycles())
        );
        assert_eq!(sys.effective_quantum(), w0.min_quantum_cycles());
    }

    #[test]
    fn very_slow_wire_does_not_overflow_the_lookahead() {
        // 46 * cycles_per_bit + 1 exceeds u64 here: the lookahead
        // saturates instead of panicking (or wrapping to a tiny quantum
        // in release builds), and a node transmitting on the wire runs
        // to the horizon.
        let mut sys = System::new();
        let wire = sys.add_wire("slow", u64::MAX / 8);
        assert_eq!(wire.min_quantum_cycles(), u64::MAX);
        let mut conf = MachineConfig::m3_like();
        conf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
            wire.clone(),
        )];
        let main = asm(
            "movw r0, #0x2000
             movt r0, #0x4000
             str r1, [r0, #16]
             spin: b spin",
        );
        sys.add_node("n0", machine(conf, &main));
        let r = sys.run(1_000);
        assert_eq!(r.reason, SystemStop::Horizon);
        assert_eq!(r.now, 1_000);
        assert_eq!(wire.pending() + wire.deliveries_len(), 1, "the frame reached the wire");
    }

    #[test]
    #[should_panic(expected = "duplicate wire name")]
    fn duplicate_wire_names_are_rejected() {
        let mut sys = System::new();
        let _ = sys.add_wire("body", 4);
        let _ = sys.add_wire("body", 8);
    }

    #[test]
    #[should_panic(expected = "adopted wire duplicates the name")]
    fn adoption_upholds_the_wire_name_invariant() {
        // A standalone wire (default name "can") arriving via add_node
        // must not slip past the name-uniqueness check add_wire enforces.
        let mut sys = System::new();
        let _registered = sys.add_wire("can", 4);
        let mut conf = MachineConfig::m3_like();
        conf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
            SharedCanBus::named("can", 4),
        )];
        sys.add_node("stray", machine(conf, &asm("bkpt #0")));
    }

    #[test]
    fn dma_gateway_bridges_two_wires_guest_to_guest() {
        // Producer ECU on the sensor wire, consumer ECU on the backbone,
        // a gateway ECU bridging them with a guest-programmed DMA route
        // (0x100..=0x1FF rewritten to 0x400+) — the gateway core parks
        // in WFI while the engine forwards.
        use crate::dma::DmaConfig;
        use crate::DMA_BASE;
        let mut sys = System::new();
        let wa = sys.add_wire("sensor", 4);
        let wb = sys.add_wire("backbone", 4);

        let mut pconf = MachineConfig::m3_like();
        pconf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
            wa.clone(),
        )];
        let main_p = asm(
            "movw r0, #0x2000
             movt r0, #0x4000
             movw r1, #0x123
             str r1, [r0, #0]
             mov r1, #1
             str r1, [r0, #4]
             mov r1, #0x55
             str r1, [r0, #8]
             str r1, [r0, #16]
             bkpt #0",
        );
        sys.add_node("producer", machine(pconf, &main_p));

        let mut gconf = MachineConfig::m3_like();
        gconf.devices = vec![DeviceSpec::Dma(
            DmaConfig { base: DMA_BASE, irq: 3, node_a: 7, node_b: 7, latency: 32 },
            wa.clone(),
            wb.clone(),
        )];
        let main_g = asm(
            "movw r0, #0x4000
             movt r0, #0x4000
             movw r1, #0x100
             str r1, [r0, #0x44]
             movw r1, #0x1FF
             str r1, [r0, #0x48]
             movw r1, #0x400
             movt r1, #0x8000
             str r1, [r0, #0x4C]
             mov r1, #1
             str r1, [r0, #0x40]
             str r1, [r0, #0]
             sleep: wfi
             b sleep",
        );
        sys.add_node("gateway", machine(gconf, &main_g));

        let mut cconf = MachineConfig::m3_like();
        cconf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 1, ..CanConfig::default() },
            wb.clone(),
        )];
        let mut c = machine(cconf, &asm("wfi\n bkpt #1"));
        c.load_flash(0x200, &asm("bx lr"));
        c.load_flash(4, &0x200u32.to_le_bytes());
        sys.add_node("consumer", c);

        let r = sys.run(1_000_000);
        assert_eq!(r.reason, SystemStop::AllHalted);
        assert_eq!(sys.node(0).halted(), Some(StopReason::Bkpt(0)));
        assert_eq!(sys.node(1).halted(), Some(StopReason::WfiIdle), "gateway parks");
        assert_eq!(sys.node(2).halted(), Some(StopReason::Bkpt(1)));
        let gw = sys.node(1).machine().bus.device::<Dma>().expect("engine");
        assert_eq!(gw.forwarded(), 1);
        assert_eq!(gw.route_count(0), 1);
        let d = wb.delivery(0).expect("forward crossed the backbone");
        assert_eq!(d.frame.id.raw(), 0x423, "rewritten: 0x400 + (0x123 - 0x100)");
        assert_eq!(d.frame.data[0], 0x55, "payload preserved");
        // The forward's enqueue respects the store-and-forward latency
        // after the sensor-wire completion.
        let src = wa.delivery(0).expect("sensor delivery");
        assert!(d.enqueued_at * 4 >= src.completed_at * 4 + 32);
        let rx = sys.node(2).machine().bus.device::<CanController>().unwrap();
        assert_eq!(rx.rx_count(), 1);
    }

    /// A WFI-paced exchange: the producer sleeps between timer ticks
    /// and ships one frame per wakeup; the consumer sleeps until its RX
    /// interrupt has counted `frames`. Between events the whole system
    /// is asleep, so event-driven quanta have real gaps to skip.
    fn sleepy_exchange(config: SystemConfig, frames: u32) -> System {
        let mut sys = System::with_config(config);
        let wire = sys.add_wire("can0", 4);
        let mut pconf = MachineConfig::m3_like();
        pconf.devices = vec![
            DeviceSpec::Timer(TimerConfig { base: TIMER_BASE, irq: 0, compare: 2_000 }),
            DeviceSpec::SharedCan(
                CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
                wire.clone(),
            ),
        ];
        let main_p = asm(&format!(
            "movw r0, #0x1000
             movt r0, #0x4000
             movw r1, #2000
             str r1, [r0, #4]
             mov r1, #3
             str r1, [r0, #0]
             sleep: wfi
             cmp r4, #{frames}
             blt sleep
             bkpt #0"
        ));
        let tick_handler = asm(&format!(
            "movw r0, #0x2000
             movt r0, #0x4000
             cmp r4, #{frames}
             bge done
             movw r1, #0x60
             add r1, r1, r4
             str r1, [r0, #0]
             mov r1, #2
             str r1, [r0, #4]
             str r4, [r0, #8]
             mov r1, #0
             str r1, [r0, #16]
             add r4, r4, #1
             done: bx lr"
        ));
        let mut p = machine(pconf, &main_p);
        p.load_flash(0x200, &tick_handler);
        p.load_flash(0, &0x200u32.to_le_bytes());
        sys.add_node("producer", p);

        let mut cconf = MachineConfig::m3_like();
        cconf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 1, ..CanConfig::default() },
            wire.clone(),
        )];
        let main_c = asm(&format!(
            "sleep: wfi
             cmp r7, #{frames}
             blt sleep
             movw r0, #0
             movt r0, #0x4000
             str r6, [r0, #0]
             halt: b halt"
        ));
        let rx_handler = asm(
            "movw r0, #0x2000
             movt r0, #0x4000
             rxloop: ldr r1, [r0, #20]
             cmp r1, #0
             beq rxdone
             ldr r1, [r0, #24]
             add r6, r6, r1
             str r1, [r0, #40]
             add r7, r7, #1
             b rxloop
             rxdone: bx lr",
        );
        let mut c = machine(cconf, &main_c);
        c.load_flash(0x200, &rx_handler);
        c.load_flash(4, &0x200u32.to_le_bytes());
        sys.add_node("consumer", c);
        sys
    }

    #[test]
    fn idle_stretch_matches_conservative_quanta() {
        // Event-driven quanta skip the gaps where every node sleeps and
        // no wire can start a transmission — with bit-identical per-node
        // cycles, registers and delivery logs, in far fewer quanta than
        // conservative pacing.
        let frames = 6u32;
        let mut base = sleepy_exchange(
            SystemConfig { idle_stretch: false, ..SystemConfig::default() },
            frames,
        );
        let rb = base.run(10_000_000);
        let mut fast = sleepy_exchange(SystemConfig::default(), frames);
        let rf = fast.run(10_000_000);
        assert_eq!(rb.reason, SystemStop::AllHalted);
        assert_eq!(rf.reason, rb.reason);
        for i in 0..2 {
            assert_eq!(fast.node(i).halted(), base.node(i).halted(), "node {i}");
            assert_eq!(fast.node(i).cycles(), base.node(i).cycles(), "node {i} cycles");
            assert_eq!(
                fast.node(i).machine().cpu.regs,
                base.node(i).machine().cpu.regs,
                "node {i} registers"
            );
            assert_eq!(
                fast.node(i).machine().latencies(),
                base.node(i).machine().latencies(),
                "node {i} IRQ stamps"
            );
        }
        assert_eq!(
            fast.wire_named("can0").unwrap().delivery_log(),
            base.wire_named("can0").unwrap().delivery_log()
        );
        assert_eq!(
            fast.node(1).halted(),
            Some(StopReason::MmioExit((0..frames).map(|k| 0x60 + k).sum())),
            "checksum of the delivered ids"
        );
        assert!(
            fast.quanta() * 2 < base.quanta(),
            "stretch must skip the all-asleep gaps ({} vs {} quanta)",
            fast.quanta(),
            base.quanta()
        );
    }

    #[test]
    fn rotated_service_order_is_bit_identical() {
        // The node service order inside a quantum must not move a
        // single bit: clocks, registers, IRQ stamps and the wire log
        // with the order rotated every quantum all equal the fixed
        // order's, at the lookahead quantum and at a small one.
        let frames = 6u32;
        let mut base = sleepy_exchange(SystemConfig::default(), frames);
        let rb = base.run(10_000_000);
        assert_eq!(rb.reason, SystemStop::AllHalted);
        for quantum in [None, Some(37)] {
            let config = SystemConfig { quantum, rotate_order: true, ..SystemConfig::default() };
            let mut rot = sleepy_exchange(config, frames);
            let rr = rot.run(10_000_000);
            assert_eq!(rr.reason, rb.reason, "q={quantum:?}");
            for i in 0..2 {
                assert_eq!(rot.node(i).halted(), base.node(i).halted(), "q={quantum:?} node {i}");
                assert_eq!(rot.node(i).cycles(), base.node(i).cycles(), "q={quantum:?} node {i}");
                assert_eq!(
                    rot.node(i).machine().cpu.regs,
                    base.node(i).machine().cpu.regs,
                    "q={quantum:?} node {i} registers"
                );
                assert_eq!(
                    rot.node(i).machine().latencies(),
                    base.node(i).machine().latencies(),
                    "q={quantum:?} node {i} IRQ stamps"
                );
            }
            assert_eq!(
                rot.wire_named("can0").unwrap().delivery_log(),
                base.wire_named("can0").unwrap().delivery_log(),
                "q={quantum:?}"
            );
        }
    }

    #[test]
    fn fork_mid_mission_is_independent_and_bit_identical() {
        let frames = 6u32;
        let mut sys = sleepy_exchange(SystemConfig::default(), frames);
        let r = sys.run(5_000);
        assert_eq!(r.reason, SystemStop::Horizon, "fork point is mid-mission");
        let mut clean = sys.fork();
        let mut dirty = sys.fork();
        // The forks live on their own wires: identical names, new
        // identities.
        assert_eq!(clean.wire_named("can0").unwrap().name(), sys.wire_named("can0").unwrap().name());
        assert!(!clean.wire_named("can0").unwrap().same_wire(sys.wire_named("can0").unwrap()));
        assert!(!clean.wire_named("can0").unwrap().same_wire(dirty.wire_named("can0").unwrap()));
        // Fork state starts where the original is.
        assert_eq!(clean.now(), sys.now());
        assert_eq!(clean.node(0).cycles(), sys.node(0).cycles());
        // An extra frame injected on the dirty fork's wire must never
        // leak into the original or the clean fork. It poses as the
        // producer (station 0) so only the consumer receives it.
        dirty.wire_named("can0").unwrap().enqueue(
            dirty.now() / 4 + 100,
            0,
            alia_can::CanFrame::new(alia_can::CanId::Standard(0x0F), &[0xEE]),
        );
        let r0 = sys.run(10_000_000);
        let r1 = clean.run(10_000_000);
        let r2 = dirty.run(10_000_000);
        assert_eq!(r0.reason, SystemStop::AllHalted);
        assert_eq!(r1, r0, "clean fork replays the original bit-identically");
        for i in 0..2 {
            assert_eq!(clean.node(i).halted(), sys.node(i).halted(), "node {i}");
            assert_eq!(clean.node(i).cycles(), sys.node(i).cycles(), "node {i} cycles");
            assert_eq!(
                clean.node(i).machine().cpu.regs,
                sys.node(i).machine().cpu.regs,
                "node {i} registers"
            );
        }
        assert_eq!(
            clean.wire_named("can0").unwrap().delivery_log(),
            sys.wire_named("can0").unwrap().delivery_log()
        );
        // The dirty fork saw one more delivery (its injected frame) and
        // a different consumer checksum — inputs diverged, so results
        // diverged; the original's log is unchanged.
        assert_eq!(r2.reason, SystemStop::AllHalted);
        assert_eq!(
            dirty.wire_named("can0").unwrap().deliveries_len(),
            sys.wire_named("can0").unwrap().deliveries_len() + 1
        );
        assert_ne!(
            dirty.node(1).machine().cpu.regs[6],
            sys.node(1).machine().cpu.regs[6],
            "the consumer checksum absorbed the injected frame"
        );
    }

    #[test]
    fn fork_rebinds_gateway_engine_wires() {
        // A forked multi-wire topology: the Dma engine's two wire
        // handles must point at the fork's wires, not the original's.
        use crate::dma::DmaConfig;
        use crate::DMA_BASE;
        let mut sys = System::new();
        let wa = sys.add_wire("sensor", 4);
        let wb = sys.add_wire("backbone", 4);
        let mut gconf = MachineConfig::m3_like();
        gconf.devices = vec![DeviceSpec::Dma(
            DmaConfig { base: DMA_BASE, irq: 3, node_a: 7, node_b: 7, latency: 32 },
            wa.clone(),
            wb.clone(),
        )];
        sys.add_node("gateway", machine(gconf, &asm("wfi\n bkpt #0")));
        let fork = sys.fork();
        let g = fork.node(0).machine().bus.device::<Dma>().expect("engine");
        assert!(g.wire_a().same_wire(fork.wire_named("sensor").unwrap()));
        assert!(g.wire_b().same_wire(fork.wire_named("backbone").unwrap()));
        assert!(!g.wire_a().same_wire(&wa), "fork left the original wire");
        assert!(!g.wire_b().same_wire(&wb));
        let orig = sys.node(0).machine().bus.device::<Dma>().expect("engine");
        assert!(orig.wire_a().same_wire(&wa), "original untouched");
    }

    #[test]
    fn parked_wfi_node_wakes_on_shared_frame() {
        // The consumer sleeps in WFI with no local events: only a frame
        // from the producer can wake it. The bounded scheduler must
        // park the sleep at quantum boundaries, then wake it at the
        // exact arrival cycle.
        let mut sys = System::new();
        let wire = sys.add_wire("can0", 4);
        let mut pconf = MachineConfig::m3_like();
        pconf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 0, ..CanConfig::default() },
            wire.clone(),
        )];
        let main_p = asm(
            "movw r0, #0x2000
             movt r0, #0x4000
             movw r1, #0x77
             str r1, [r0, #0]
             mov r1, #1
             str r1, [r0, #4]
             str r1, [r0, #8]
             str r1, [r0, #16]
             bkpt #0",
        );
        sys.add_node("producer", machine(pconf, &main_p));

        let mut cconf = MachineConfig::m3_like();
        cconf.devices = vec![DeviceSpec::SharedCan(
            CanConfig { base: CAN_BASE, irq: 1, node: 1, ..CanConfig::default() },
            wire.clone(),
        )];
        let main_c = asm("wfi\n bkpt #1");
        let rx_handler = asm("bx lr");
        let mut c = machine(cconf, &main_c);
        c.load_flash(0x200, &rx_handler);
        c.load_flash(4, &0x200u32.to_le_bytes());
        sys.add_node("consumer", c);

        let r = sys.run(1_000_000);
        assert_eq!(r.reason, SystemStop::AllHalted);
        assert_eq!(sys.node(1).halted(), Some(StopReason::Bkpt(1)));
        let d = wire.delivery(0).expect("frame crossed");
        let arrival = d.completed_at * 4;
        let lat = sys.node(1).machine().latencies()[0];
        assert_eq!(lat.pend_cycle, arrival, "woken at the exact arrival cycle");
    }

    #[test]
    fn a_parked_clients_timer_bounds_the_quantum() {
        // A slow wire holding a queued frame allows a quantum thousands
        // of cycles long, but a sleeping node on a fast wire has a
        // timer due long before that: it wakes, transmits, and its
        // frame must reach the receiver at the exact completion cycle —
        // every node and wire exactly as under conservative pacing.
        let run = |idle_stretch: bool| {
            let mut sys =
                System::with_config(SystemConfig { idle_stretch, ..SystemConfig::default() });
            let slow = sys.add_wire("slow", 40);
            let fast = sys.add_wire("fast", 4);
            let can = |node, wire: &SharedCanBus| {
                DeviceSpec::SharedCan(
                    CanConfig { base: CAN_BASE, irq: 1, node, ..CanConfig::default() },
                    wire.clone(),
                )
            };
            // Two 8-byte frames on the slow wire: one on the wire, one
            // queued behind it.
            let mut conf = MachineConfig::m3_like();
            conf.devices = vec![can(0, &slow)];
            let main = asm(
                "movw r0, #0x2000
                 movt r0, #0x4000
                 mov r1, #8
                 str r1, [r0, #4]
                 str r1, [r0, #16]
                 str r1, [r0, #16]
                 bkpt #0",
            );
            sys.add_node("slow_tx", machine(conf, &main));
            // Sleeps until its timer fires at ~300, then sends one frame
            // on the fast wire.
            let mut conf = MachineConfig::m3_like();
            conf.devices = vec![
                DeviceSpec::Timer(TimerConfig { base: TIMER_BASE, irq: 0, compare: 300 }),
                can(0, &fast),
            ];
            let main = asm(
                "movw r0, #0x1000
                 movt r0, #0x4000
                 movw r1, #300
                 str r1, [r0, #4]
                 mov r1, #1
                 str r1, [r0, #0]
                 sleep: wfi
                 cmp r4, #1
                 blt sleep
                 bkpt #1",
            );
            let tick = asm(
                "movw r0, #0x2000
                 movt r0, #0x4000
                 str r0, [r0, #16]
                 mov r4, #1
                 bx lr",
            );
            let mut m = machine(conf, &main);
            m.load_flash(0x200, &tick);
            m.load_flash(0, &0x200u32.to_le_bytes());
            sys.add_node("fast_tx", m);
            let mut conf = MachineConfig::m3_like();
            conf.devices = vec![can(1, &fast)];
            let mut m = machine(conf, &asm("wfi\n bkpt #2"));
            m.load_flash(0x200, &asm("bx lr"));
            m.load_flash(4, &0x200u32.to_le_bytes());
            sys.add_node("fast_rx", m);
            let r = sys.run(1_000_000);
            assert_eq!(r.reason, SystemStop::AllHalted);
            let nodes: Vec<_> = sys
                .nodes()
                .iter()
                .map(|n| (n.halted(), n.cycles(), n.machine().latencies().to_vec()))
                .collect();
            (r.quanta, nodes, slow.delivery_log(), fast.delivery_log())
        };
        let (q_event, nodes, slow_log, fast_log) = run(true);
        let (q_paced, paced_nodes, paced_slow, paced_fast) = run(false);
        assert_eq!(nodes, paced_nodes, "halt verdicts, clocks and IRQ stamps");
        assert_eq!((slow_log.len(), fast_log.len()), (1, 1), "the second slow frame stays queued");
        assert_eq!((&slow_log, &fast_log), (&paced_slow, &paced_fast), "wire logs");
        let rx = &nodes[2].2[0];
        assert_eq!(rx.pend_cycle, fast_log[0].completed_at * 4, "woken at the arrival");
        assert!(q_event < q_paced, "event-driven quanta engaged: {q_event} vs {q_paced}");
    }
}
