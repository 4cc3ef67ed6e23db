//! The system bus: region-table address decode and pluggable MMIO devices.
//!
//! The seed simulator resolved every memory access with a chain of range
//! compares inside `Machine` and serviced exactly one hard-wired MMIO
//! block. This module replaces both with a first-class bus:
//!
//! * a 16-entry **region table** indexed by `addr >> 28` — each entry
//!   holds up to two `(base, size, kind)` slots (SRAM and its bit-band
//!   alias share a nibble), so classification is two wrapping subtract +
//!   compare pairs instead of a branch chain, and regions larger than one
//!   nibble simply occupy several entries;
//! * a [`Device`] trait through which every non-RAM region is serviced.
//!   The instrumentation MMIO block, the compare-match timer and the
//!   memory-mapped CAN controller are all ordinary devices attached to
//!   windows inside the `0x4xxx_xxxx` nibble.
//!
//! # The `Device` contract
//!
//! * **Timing** — every device access costs one bus cycle on the machine
//!   side (plus the core's internal load/store cycles). Devices model
//!   time through [`Device::tick`], never by stalling the bus.
//! * **Widths** — a load of any width reads the whole register word
//!   through [`Device::read32`], unmasked; a store of any width writes
//!   its value to the whole register word through [`Device::write32`].
//!   Either way the device sees the word-aligned offset.
//! * **Reads cannot act** — [`Device::read32`] takes `&self`, the cycle
//!   and the IRQ being serviced, and nothing else: a register read
//!   changes no device state, raises no signal and cannot move
//!   [`Device::next_event`]. So the bus refreshes its cached next event
//!   only after a write, a tick or a scheduler-side notification, and
//!   the block engine runs a load as a pure op.
//! * **Ticking** — the machine calls [`Device::tick`] whenever the cycle
//!   counter reaches [`Device::next_event`]. A device with no timed
//!   behaviour returns `None` and is only touched by loads and stores.
//! * **IRQs** — [`Device::write32`] and [`Device::tick`] raise
//!   interrupts through [`DeviceCtx::signals`]:
//!   [`BusSignals::raise_irq`] for "pend at the next step boundary"
//!   (matching the legacy instrumentation semantics) and
//!   [`BusSignals::raise_irq_at`] for events with a precise assertion
//!   cycle (latency accounting measures from that cycle). These edge
//!   events are all the machine reads of a device's interrupts.
//! * **Code** — no device can change what instruction fetches return
//!   (a fetch from a device window faults, and a device reaches no
//!   memory), so the block cache's generation stamp has no device
//!   term. The flash-patch unit, the one remapper of code, is part of
//!   the machine and keeps its own term.
//! * **Wire clients** — devices on a [`crate::System`]'s scheduler-run
//!   CAN wires (shared CAN controllers, DMA gateway engines) implement
//!   [`Device::wire_attachments`], [`Device::note_wire_progress`] and
//!   [`Device::rebind_wires`]; devices with
//!   their own tracer or counters implement [`Device::set_trace_mask`],
//!   [`Device::tracer`] and [`Device::publish_metrics`]. Every one
//!   defaults to a no-op, so the scheduler and the machine reach these
//!   devices through the trait and never name a device type.
//! * **Typed access** — [`Any`] is a supertrait, so [`Bus::device`]
//!   downcasts an attached device to its type. There is no typed
//!   mutable access: the guest changes a device through its stores, and
//!   the scheduler through the trait's wire hooks, each followed by a
//!   refresh of the cached next event inside this crate.

use std::any::Any;
use std::fmt;

use crate::devices::SharedCanBus;
use crate::mem::{BITBAND_BASE, FLASH_BASE, MMIO_BASE, SRAM_BASE, TCM_BASE};

/// Memory region classes of the simulated address map, as resolved by
/// the bus region table — shared by the fetch, data-read and data-write
/// paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Wait-stated flash.
    Flash,
    /// Tightly-coupled memory (when fitted).
    Tcm,
    /// Single-cycle SRAM.
    Sram,
    /// Bit-band alias of SRAM (when fitted).
    BitBand,
    /// A bus device; the payload is its attachment index
    /// (index 0 is always the instrumentation MMIO block).
    Device(u8),
    /// No device.
    Unmapped,
}

/// What a region-table slot maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Flash,
    Tcm,
    Sram,
    BitBand,
    /// The device nibble: resolve against the attached device windows.
    DeviceSpace,
}

/// One `(base, size, kind)` slot of a region-table entry. `size == 0`
/// marks an empty slot (the wrapping-subtract compare can never match).
#[derive(Debug, Clone, Copy)]
struct RegionSlot {
    base: u32,
    size: u32,
    kind: SlotKind,
}

const EMPTY_SLOT: RegionSlot = RegionSlot { base: 0, size: 0, kind: SlotKind::Flash };

/// One entry of the 16-entry region table (one per `addr >> 28` nibble).
#[derive(Debug, Clone, Copy)]
struct RegionEntry {
    slots: [RegionSlot; 2],
}

/// Signals devices can raise towards the machine. Kept outside the
/// devices themselves so the hot loop can poll them without dynamic
/// dispatch.
#[derive(Debug, Clone, Default)]
pub struct BusSignals {
    /// Set when a device requests a halt; the machine stops with
    /// [`crate::StopReason::MmioExit`].
    pub exit_code: Option<u32>,
    /// IRQ numbers to pend at the next step boundary (assertion cycle =
    /// the drain cycle, matching the legacy `MMIO_IRQ_SET` semantics).
    pub irq_requests: Vec<u32>,
    /// `(irq, cycle)` events with a precise assertion cycle (timer
    /// compare matches, CAN frame completions, DMA forwards).
    pub timed_irqs: Vec<(u32, u64)>,
}

impl BusSignals {
    /// Requests a machine halt with `code`.
    pub fn request_exit(&mut self, code: u32) {
        self.exit_code = Some(code);
    }

    /// Pends `irq` at the next step boundary.
    pub fn raise_irq(&mut self, irq: u32) {
        self.irq_requests.push(irq);
    }

    /// Pends `irq` with assertion cycle `at` (latency accounting
    /// measures from it). A stamp still in the future of the machine's
    /// cycle counter when the event is drained waits in the machine's
    /// interrupt schedule and pends at `at`.
    pub fn raise_irq_at(&mut self, irq: u32, at: u64) {
        self.timed_irqs.push((irq, at));
    }
}

/// Context handed to [`Device::write32`] and [`Device::tick`]: the
/// machine-side state a device may observe or signal through. A read
/// gets only the cycle and the active IRQ (see [`Device::read32`]).
#[derive(Debug)]
pub struct DeviceCtx<'a> {
    /// The machine's cycle counter at the access/tick.
    pub now: u64,
    /// Signal sinks (exit requests, IRQ events).
    pub signals: &'a mut BusSignals,
}

/// Object-safe clone support for boxed devices.
pub trait DeviceClone {
    /// Clones the device into a new box.
    fn clone_box(&self) -> Box<dyn Device>;
}

impl<T: Device + Clone + 'static> DeviceClone for T {
    fn clone_box(&self) -> Box<dyn Device> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Device> {
    fn clone(&self) -> Box<dyn Device> {
        self.clone_box()
    }
}

/// A memory-mapped bus device. See the module docs for the contract
/// (timing, access widths, ticking, IRQ signaling).
///
/// `Send + Sync` are supertraits so a prepared [`crate::System`] —
/// devices included — can be *shared by reference* across
/// campaign workers that each [`crate::System::fork`] it and run the
/// fork on their own thread. Mutation
/// always happens through `&mut` (one worker owns one fork); shared
/// state such as [`crate::SharedCanBus`] sits behind `Arc<Mutex<..>>`.
pub trait Device: Any + fmt::Debug + DeviceClone + Send + Sync {
    /// Reads the register word at the word-aligned byte offset `off`,
    /// at cycle `now` while the machine services IRQ `active_irq`. A
    /// read has no side effects (see the module docs).
    fn read32(&self, off: u32, now: u64, active_irq: u32) -> u32;

    /// Writes `value` to the register word at the word-aligned byte
    /// offset `off`.
    fn write32(&mut self, off: u32, value: u32, ctx: &mut DeviceCtx<'_>);

    /// Advances device time to `ctx.now`, raising any due IRQ events
    /// through `ctx.signals`. Called when the machine's cycle counter
    /// reaches [`Device::next_event`]; the default does nothing.
    fn tick(&mut self, ctx: &mut DeviceCtx<'_>) {
        let _ = ctx;
    }

    /// The next cycle at which the device needs a [`Device::tick`],
    /// or `None` for purely reactive devices.
    fn next_event(&self) -> Option<u64> {
        None
    }

    /// The scheduler-advanced wires this device is a client of, as
    /// `(wire, node id)` attachments: one per CAN controller on a shared
    /// wire, one per side of a DMA gateway engine. [`crate::System`]
    /// adopts these wires, checks per-wire node-id uniqueness and
    /// registers the device as a client of each wire at `add_node`. The
    /// default is none.
    fn wire_attachments(&self) -> Vec<(SharedCanBus, usize)> {
        Vec::new()
    }

    /// Called by [`crate::System`] when a wire this device is a client
    /// of logged something new (a delivery or an error-state change) at
    /// a quantum boundary, and once when the device's node joins a wire
    /// that already has a log: the device re-arms its tick at the
    /// arrival cycle of the first wire event it has not examined yet.
    /// The caller then refreshes the bus's cached next event. The
    /// default does nothing.
    fn note_wire_progress(&mut self) {}

    /// Rebinds the device's wire attachments onto forked copies: `from`
    /// and `to` are parallel wire sets (the original system's and the
    /// fork's), matched by [`SharedCanBus::same_wire`]. Wires outside
    /// `from` stay as they are. [`crate::System::fork`] calls this on
    /// every forked device; the default does nothing.
    fn rebind_wires(&mut self, from: &[SharedCanBus], to: &[SharedCanBus]) {
        let _ = (from, to);
    }

    /// Sets the category mask of the device's own tracer, if it keeps
    /// one (see [`Device::tracer`]). The default does nothing.
    fn set_trace_mask(&mut self, mask: u32) {
        let _ = mask;
    }

    /// The device's own event tracer (devices that record on their own
    /// clock, like the DMA gateway engine); `None` by default.
    fn tracer(&self) -> Option<&alia_obs::Tracer> {
        None
    }

    /// Publishes the device's counters into `reg`, every key prefixed
    /// with `prefix`. The default publishes nothing.
    fn publish_metrics(&self, reg: &mut alia_obs::metrics::Registry, prefix: &str) {
        let _ = (reg, prefix);
    }
}

/// A device attached to the bus at a window of the device nibble.
#[derive(Debug, Clone)]
pub struct AttachedDevice {
    /// Window base address.
    pub base: u32,
    /// Window size in bytes.
    pub size: u32,
    /// The device itself.
    pub dev: Box<dyn Device>,
}

/// One entry of the sorted window index: device windows ordered by base
/// address, so per-access resolution is a binary search instead of a
/// linear scan of the attachment list.
#[derive(Debug, Clone, Copy)]
struct Window {
    base: u32,
    size: u32,
    /// Index into [`Bus::devices`] (attachment order, which is what
    /// [`Region::Device`] carries).
    device: u8,
}

/// The system bus: region table, attached devices and device signals.
#[derive(Debug, Clone)]
pub struct Bus {
    table: [RegionEntry; 16],
    devices: Vec<AttachedDevice>,
    /// Device windows sorted by base address ([`Bus::resolve_device`]).
    windows: Vec<Window>,
    /// Signals raised by devices, drained by the machine.
    pub signals: BusSignals,
    /// Cached minimum of the attached devices' [`Device::next_event`]
    /// (`u64::MAX` when no device has a timed event).
    next_event: u64,
}

impl Bus {
    /// Builds the region table for a machine layout. Regions wider than
    /// one 256 MiB nibble occupy every entry they cover.
    #[must_use]
    pub fn new(flash_size: u32, sram_size: u32, tcm_size: Option<u32>, bitband: bool) -> Bus {
        let mut bus = Bus {
            table: [RegionEntry { slots: [EMPTY_SLOT; 2] }; 16],
            devices: Vec::new(),
            windows: Vec::new(),
            signals: BusSignals::default(),
            next_event: u64::MAX,
        };
        bus.add_region(FLASH_BASE, flash_size, SlotKind::Flash);
        if let Some(sz) = tcm_size {
            bus.add_region(TCM_BASE, sz, SlotKind::Tcm);
        }
        bus.add_region(SRAM_BASE, sram_size, SlotKind::Sram);
        if bitband {
            bus.add_region(BITBAND_BASE, sram_size.saturating_mul(8), SlotKind::BitBand);
        }
        bus
    }

    /// Inserts `(base, size, kind)` into every nibble entry the region
    /// covers. Panics if a nibble already has two slots (the fixed
    /// memory map never does).
    fn add_region(&mut self, base: u32, size: u32, kind: SlotKind) {
        if size == 0 {
            return;
        }
        let first = base >> 28;
        let last = (base as u64 + u64::from(size) - 1).min(u32::MAX.into()) as u32 >> 28;
        for nib in first..=last {
            let entry = &mut self.table[nib as usize];
            let slot = entry
                .slots
                .iter_mut()
                .find(|s| s.size == 0 || (s.kind == kind && s.base == base))
                .expect("at most two regions per address nibble");
            *slot = RegionSlot { base, size, kind };
        }
    }

    /// Attaches `dev` at `[base, base + size)` and returns its index.
    /// Index 0 is reserved for the instrumentation MMIO block by
    /// machine construction. The window joins the `DeviceSpace` slot of
    /// its nibble; per-access resolution scans the (short) window list.
    pub fn attach(&mut self, base: u32, size: u32, dev: Box<dyn Device>) -> u8 {
        assert!(
            self.devices.len() < u8::MAX as usize,
            "device index space exhausted"
        );
        assert!(size > 0, "device window must be non-empty");
        // Grow (or create) the DeviceSpace slot of each covered nibble
        // to span the union of all windows in that nibble.
        let first = base >> 28;
        let last = (base as u64 + u64::from(size) - 1).min(u32::MAX.into()) as u32 >> 28;
        for nib in first..=last {
            let entry = &mut self.table[nib as usize];
            if let Some(s) = entry.slots.iter_mut().find(|s| {
                s.size > 0 && s.kind == SlotKind::DeviceSpace
            }) {
                let lo = s.base.min(base);
                let hi = (u64::from(s.base) + u64::from(s.size))
                    .max(u64::from(base) + u64::from(size));
                s.base = lo;
                s.size = (hi - u64::from(lo)) as u32;
            } else {
                let slot = entry
                    .slots
                    .iter_mut()
                    .find(|s| s.size == 0)
                    .expect("at most two regions per address nibble");
                *slot = RegionSlot { base, size, kind: SlotKind::DeviceSpace };
            }
        }
        let idx = self.devices.len() as u8;
        self.devices.push(AttachedDevice { base, size, dev });
        // Keep the window index sorted by base; windows must not overlap
        // (resolution would otherwise depend on attachment order).
        let pos = self.windows.partition_point(|w| w.base < base);
        let no_overlap = |w: &Window| {
            base >= w.base.saturating_add(w.size) || w.base >= base.saturating_add(size)
        };
        assert!(
            self.windows.get(pos.wrapping_sub(1)).is_none_or(no_overlap)
                && self.windows.get(pos).is_none_or(no_overlap),
            "device windows must not overlap"
        );
        self.windows.insert(pos, Window { base, size, device: idx });
        self.refresh_next_event();
        idx
    }

    /// Resolves an address to its region: one table index, at most two
    /// wrapping subtract + compare pairs, then (for device space only) a
    /// binary search of the device windows.
    #[must_use]
    #[inline]
    pub fn classify(&self, addr: u32) -> Region {
        self.classify_access(addr, 1)
    }

    /// Resolves an access of `len` bytes at `addr` — the one lookup the
    /// fetch, load and store paths make. It is [`Bus::classify`] plus a
    /// span check: a flash, TCM or SRAM access whose bytes run past the
    /// end of its region resolves to [`Region::Unmapped`], so the guest
    /// faults instead of the memory array being indexed out of range.
    /// Bit-band and device accesses resolve on their first byte (each
    /// names one SRAM bit or one device register).
    #[must_use]
    #[inline]
    pub fn classify_access(&self, addr: u32, len: u32) -> Region {
        let entry = &self.table[(addr >> 28) as usize];
        for s in &entry.slots {
            let off = addr.wrapping_sub(s.base);
            if off < s.size {
                return match s.kind {
                    SlotKind::Flash | SlotKind::Tcm | SlotKind::Sram if s.size - off < len => {
                        Region::Unmapped
                    }
                    SlotKind::Flash => Region::Flash,
                    SlotKind::Tcm => Region::Tcm,
                    SlotKind::Sram => Region::Sram,
                    SlotKind::BitBand => Region::BitBand,
                    SlotKind::DeviceSpace => self.resolve_device(addr),
                };
            }
        }
        Region::Unmapped
    }

    /// Resolves `addr` against the sorted window index: a binary search
    /// for the last window starting at or below `addr`, then one bounds
    /// check — O(log n) in the device count instead of a linear scan.
    #[inline]
    fn resolve_device(&self, addr: u32) -> Region {
        let i = self.windows.partition_point(|w| w.base <= addr);
        match self.windows.get(i.wrapping_sub(1)) {
            Some(w) if addr.wrapping_sub(w.base) < w.size => Region::Device(w.device),
            _ => Region::Unmapped,
        }
    }

    /// The attached devices.
    #[must_use]
    pub fn devices(&self) -> &[AttachedDevice] {
        &self.devices
    }

    /// Mutable access to the attached devices themselves (the scheduler
    /// uses this to notify every shared-bus controller after a wire
    /// advance). Deliberately yields only the devices, not their
    /// windows — window geometry is mirrored in the sorted resolution
    /// index and must stay immutable after [`Bus::attach`]. Mutation
    /// that (re)arms timed behaviour must be followed by
    /// [`Bus::refresh_next_event`].
    pub(crate) fn devices_mut(&mut self) -> impl Iterator<Item = &mut dyn Device> + '_ {
        self.devices.iter_mut().map(|d| &mut *d.dev as &mut dyn Device)
    }

    /// Typed access to the first attached device of type `T`.
    #[must_use]
    pub fn device<T: Device>(&self) -> Option<&T> {
        self.devices.iter().find_map(|d| (&*d.dev as &dyn Any).downcast_ref::<T>())
    }

    /// Recomputes the cached next-event cycle; call after mutating a
    /// device through [`Bus::devices_mut`].
    pub(crate) fn refresh_next_event(&mut self) {
        self.next_event = self
            .devices
            .iter()
            .filter_map(|d| d.dev.next_event())
            .min()
            .unwrap_or(u64::MAX);
    }

    /// The earliest cycle any device needs a tick (`u64::MAX` if none) —
    /// one compare per step in the hot loop.
    #[must_use]
    #[inline]
    pub fn next_event(&self) -> u64 {
        self.next_event
    }

    /// Performs a device load at `addr` (resolved against the window of
    /// device `idx`): every width reads the register word holding
    /// `addr`. A read changes nothing, so nothing is refreshed.
    #[must_use]
    pub fn device_read(&self, idx: u8, addr: u32, now: u64, active_irq: u32) -> u32 {
        let d = &self.devices[idx as usize];
        d.dev.read32((addr - d.base) & !3, now, active_irq)
    }

    /// Performs a device store at `addr`: every width writes `value` to
    /// the register word holding `addr`.
    pub fn device_write(&mut self, idx: u8, addr: u32, value: u32, now: u64) {
        let d = &mut self.devices[idx as usize];
        let off = (addr - d.base) & !3;
        let mut ctx = DeviceCtx { now, signals: &mut self.signals };
        d.dev.write32(off, value, &mut ctx);
        self.refresh_next_event();
    }

    /// Ticks every device whose [`Device::next_event`] is due at `now`
    /// and refreshes the cached next-event cycle.
    pub fn tick_devices(&mut self, now: u64) {
        for d in &mut self.devices {
            if d.dev.next_event().is_some_and(|at| at <= now) {
                let mut ctx = DeviceCtx { now, signals: &mut self.signals };
                d.dev.tick(&mut ctx);
            }
        }
        self.refresh_next_event();
    }
}

/// Default window base of the compare-match timer device.
pub const TIMER_BASE: u32 = MMIO_BASE + 0x1000;
/// Default window base of the memory-mapped CAN controller.
pub const CAN_BASE: u32 = MMIO_BASE + 0x2000;
/// Default window base of the watchdog device.
pub const WATCHDOG_BASE: u32 = MMIO_BASE + 0x3000;
/// Default window base of the DMA frame-forwarding gateway engine.
pub const DMA_BASE: u32 = MMIO_BASE + 0x4000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Mmio;

    #[test]
    fn table_matches_fixed_memory_map() {
        let bus = Bus::new(1 << 20, 1 << 20, Some(64 << 10), true);
        assert_eq!(bus.classify(FLASH_BASE), Region::Flash);
        assert_eq!(bus.classify(FLASH_BASE + (1 << 20) - 1), Region::Flash);
        assert_eq!(bus.classify(FLASH_BASE + (1 << 20)), Region::Unmapped);
        assert_eq!(bus.classify(TCM_BASE), Region::Tcm);
        assert_eq!(bus.classify(TCM_BASE + (64 << 10)), Region::Unmapped);
        assert_eq!(bus.classify(SRAM_BASE), Region::Sram);
        assert_eq!(bus.classify(BITBAND_BASE), Region::BitBand);
        assert_eq!(bus.classify(BITBAND_BASE + (1 << 23) - 1), Region::BitBand);
        assert_eq!(bus.classify(BITBAND_BASE + (1 << 23)), Region::Unmapped);
        assert_eq!(bus.classify(0x3000_0000), Region::Unmapped);
        assert_eq!(bus.classify(0xFFFF_FFFF), Region::Unmapped);
    }

    #[test]
    fn no_tcm_or_bitband_when_not_fitted() {
        let bus = Bus::new(1 << 20, 1 << 20, None, false);
        assert_eq!(bus.classify(TCM_BASE), Region::Unmapped);
        assert_eq!(bus.classify(BITBAND_BASE), Region::Unmapped);
    }

    #[test]
    fn device_windows_resolve_by_index() {
        let mut bus = Bus::new(1 << 20, 1 << 20, None, false);
        let m = bus.attach(MMIO_BASE, 0x1000, Box::new(Mmio::new()));
        let c = bus.attach(CAN_BASE, 0x100, Box::new(Mmio::new()));
        assert_eq!(m, 0);
        assert_eq!(c, 1);
        assert_eq!(bus.classify(MMIO_BASE + 8), Region::Device(0));
        assert_eq!(bus.classify(CAN_BASE + 4), Region::Device(1));
        // The hole between the two windows is unmapped even though the
        // DeviceSpace slot spans their union.
        assert_eq!(bus.classify(TIMER_BASE), Region::Unmapped);
        assert_eq!(bus.classify(CAN_BASE + 0x100), Region::Unmapped);
        assert_eq!(bus.classify(MMIO_BASE + 0x8000), Region::Unmapped);
    }

    #[test]
    fn many_windows_resolve_by_binary_search() {
        // ROADMAP item: ≥8 devices must still resolve correctly once the
        // linear window scan becomes a sorted-base binary search. Attach
        // out of base order to exercise the sorted insert.
        let mut bus = Bus::new(1 << 20, 1 << 20, None, false);
        let bases: [u32; 9] = [
            MMIO_BASE,
            MMIO_BASE + 0x7000,
            MMIO_BASE + 0x1000,
            MMIO_BASE + 0x5000,
            MMIO_BASE + 0x2000,
            MMIO_BASE + 0x8000,
            MMIO_BASE + 0x3000,
            MMIO_BASE + 0x6000,
            MMIO_BASE + 0x4000,
        ];
        let mut indices = Vec::new();
        for &base in &bases {
            indices.push(bus.attach(base, 0x100, Box::new(Mmio::new())));
        }
        for (&base, &idx) in bases.iter().zip(&indices) {
            assert_eq!(bus.classify(base), Region::Device(idx), "base {base:#x}");
            assert_eq!(bus.classify(base + 0xFF), Region::Device(idx), "top {base:#x}");
            assert_eq!(bus.classify(base + 0x100), Region::Unmapped, "past {base:#x}");
        }
        assert_eq!(bus.classify(MMIO_BASE - 4), Region::Unmapped);
        assert_eq!(bus.classify(MMIO_BASE + 0x8100), Region::Unmapped);
    }

    #[test]
    #[should_panic(expected = "device windows must not overlap")]
    fn overlapping_windows_are_rejected() {
        let mut bus = Bus::new(1 << 20, 1 << 20, None, false);
        bus.attach(MMIO_BASE, 0x1000, Box::new(Mmio::new()));
        bus.attach(MMIO_BASE + 0x800, 0x1000, Box::new(Mmio::new()));
    }

    #[test]
    fn signals_accumulate() {
        let mut s = BusSignals::default();
        s.raise_irq(3);
        s.raise_irq_at(1, 99);
        s.request_exit(7);
        assert_eq!(s.irq_requests, vec![3]);
        assert_eq!(s.timed_irqs, vec![(1, 99)]);
        assert_eq!(s.exit_code, Some(7));
    }
}
