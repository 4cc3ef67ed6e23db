//! The assembled machine: core + memory system + interrupt controller.
//!
//! [`Machine`] executes encoded ALIA programs cycle-approximately. Three
//! presets mirror the paper's cores: [`Machine::arm7_like`] (von-Neumann,
//! cacheless), [`Machine::m3_like`] (NVIC, bit-band, flash prefetch) and
//! [`Machine::high_end_like`] (caches, MPU, fault-tolerant RAM,
//! interruptible LDM).

use alia_isa::{decode_window, Flags, Instr, IsaMode, MemSize, Offset, Operand2, Reg};

use crate::bus::{Bus, Region};
use crate::cpu::{add_with_carry, Cpu, EXC_RETURN_HW, EXC_RETURN_SW};
use crate::devices::{
    CanConfig, CanController, SharedCanBus, Timer, TimerConfig, Watchdog, WatchdogConfig,
};
use crate::dma::{Dma, DmaConfig};
use crate::mem::{
    Access, Flash, FlashConfig, MemFault, Mmio, Sram, Tcm, BITBAND_BASE, FLASH_BASE, MMIO_BASE,
    SRAM_BASE, TCM_BASE,
};
use std::sync::Arc;

use crate::predecode::{BlockCache, Entry, PredecodeStats, MAX_BLOCK_LEN};
use crate::threaded::{self, BlockExit, ThreadedBlock};
use crate::{Cache, CacheConfig, CoreTiming, FlashPatch, IrqController, IrqStyle, Lookup, Mpu,
    MpuKind};

/// Read: the IRQ number currently being serviced (software-preamble
/// handlers use this to dispatch).
pub const MMIO_IRQ_ACTIVE: u32 = MMIO_BASE + 16;

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `bkpt #imm` was executed (normal program exit convention).
    Bkpt(u8),
    /// The program wrote the MMIO exit register.
    MmioExit(u32),
    /// `wfi` executed with no interrupt ever coming.
    WfiIdle,
    /// The cycle budget ran out.
    CycleLimit,
    /// A memory system fault.
    Fault(MemFault),
    /// Bytes at PC did not decode.
    DecodeError {
        /// The address that failed to decode.
        addr: u32,
    },
    /// A flash-patch breakpoint was hit.
    PatchBreakpoint {
        /// The patched address.
        addr: u32,
    },
}

/// The outcome of [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Why execution stopped.
    pub reason: StopReason,
    /// Total cycles consumed.
    pub cycles: u64,
    /// Instructions retired (skipped conditional instructions count).
    pub instructions: u64,
}

/// One interrupt service latency observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrqLatency {
    /// Interrupt line.
    pub irq: u32,
    /// Cycle at which the line was pended.
    pub pend_cycle: u64,
    /// Cycle at which the first handler instruction began.
    pub entry_cycle: u64,
    /// Whether the entry was tail-chained.
    pub tail_chained: bool,
}

/// A bus device to attach at machine construction (see
/// [`MachineConfig::devices`]). Index 0 on the bus is always the
/// instrumentation MMIO block; configured devices follow in order.
#[derive(Debug, Clone)]
pub enum DeviceSpec {
    /// A compare-match [`Timer`].
    Timer(TimerConfig),
    /// A memory-mapped [`CanController`] attached to a wire: every
    /// controller on one [`SharedCanBus`] arbitrates there, and only
    /// [`crate::System::run`] advances it (a lone machine exchanging
    /// loopback frames is a one-node system).
    SharedCan(CanConfig, SharedCanBus),
    /// A countdown [`Watchdog`] (NMI-style IRQ on expiry).
    Watchdog(WatchdogConfig),
    /// A [`Dma`] frame-forwarding gateway engine bridging two shared
    /// wires (wire A, then wire B) — the machine becomes a gateway ECU
    /// that forwards by routing table, without per-frame CPU work.
    Dma(DmaConfig, SharedCanBus, SharedCanBus),
}

/// Static machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Instruction encoding executed by the core.
    pub mode: IsaMode,
    /// Core timing parameters.
    pub timing: CoreTiming,
    /// Flash behaviour.
    pub flash: FlashConfig,
    /// SRAM size in bytes.
    pub sram_size: u32,
    /// TCM size in bytes, if fitted.
    pub tcm_size: Option<u32>,
    /// Instruction cache, if fitted.
    pub icache: Option<CacheConfig>,
    /// Data cache, if fitted.
    pub dcache: Option<CacheConfig>,
    /// MPU generation, if fitted.
    pub mpu: Option<MpuKind>,
    /// Interrupt scheme.
    pub irq_style: IrqStyle,
    /// Interrupt lines.
    pub irq_lines: usize,
    /// Whether the bit-band alias region is fitted.
    pub bitband: bool,
    /// Base address of the vector table (one word per line for the
    /// hardware scheme; a single vector for the software scheme).
    pub vector_base: u32,
    /// Whether the host-side block engine is enabled: [`Machine::run`]
    /// records straight-line runs, lowers them to threaded code and
    /// dispatches them whole ([`crate::predecode`], the one code cache).
    /// A pure host optimization: `false` runs every instruction on the
    /// per-step interpreter, and results are bit-identical either way.
    /// [`Machine::set_predecode_enabled`] flips it at runtime.
    pub predecode: bool,
    /// Bus devices to attach beyond the always-present instrumentation
    /// MMIO block (index 0).
    pub devices: Vec<DeviceSpec>,
}

impl MachineConfig {
    /// ARM7TDMI-class: von-Neumann, cacheless, software interrupt scheme.
    #[must_use]
    pub fn arm7_like(mode: IsaMode) -> MachineConfig {
        MachineConfig {
            mode,
            timing: CoreTiming::arm7_like(),
            // Zero-wait memory: the classic core runs at flash speed.
            flash: FlashConfig { seq_cycles: 1, nonseq_cycles: 1, ..FlashConfig::default() },
            sram_size: 1 << 20,
            tcm_size: None,
            icache: None,
            dcache: None,
            mpu: None,
            irq_style: IrqStyle::SoftwarePreamble,
            irq_lines: 32,
            bitband: false,
            vector_base: 0,
            predecode: true,
            devices: Vec::new(),
        }
    }

    /// Cortex-M3-class: Harvard, flash prefetch, NVIC, bit-band.
    #[must_use]
    pub fn m3_like() -> MachineConfig {
        MachineConfig {
            mode: IsaMode::T2,
            timing: CoreTiming::m3_like(),
            flash: FlashConfig::default(),
            sram_size: 1 << 20,
            tcm_size: None,
            icache: None,
            dcache: None,
            mpu: None,
            irq_style: IrqStyle::HardwareStacking,
            irq_lines: 32,
            bitband: true,
            vector_base: 0,
            predecode: true,
            devices: Vec::new(),
        }
    }

    /// ARM1156T2-class: caches, fine-grain MPU, TCM, interruptible LDM.
    #[must_use]
    pub fn high_end_like() -> MachineConfig {
        MachineConfig {
            mode: IsaMode::T2,
            timing: CoreTiming::high_end_like(),
            flash: FlashConfig { seq_cycles: 1, nonseq_cycles: 6, ..FlashConfig::default() },
            sram_size: 1 << 20,
            tcm_size: Some(64 << 10),
            icache: Some(CacheConfig::default()),
            dcache: Some(CacheConfig::default()),
            mpu: Some(MpuKind::FineGrain),
            irq_style: IrqStyle::HardwareStacking,
            irq_lines: 32,
            bitband: false,
            vector_base: 0,
            predecode: true,
            devices: Vec::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct SwFrame {
    ret_pc: u32,
    flags: Flags,
    primask: bool,
}

/// A basic block being recorded by the per-step path. Recording aborts
/// (the partial run is discarded) whenever execution leaves the
/// straight line — an interrupt, a generation-stamp change, a stop.
#[derive(Debug, Clone)]
struct BlockRec {
    start: u32,
    stamp: u64,
    /// Where the straight line must continue for the next entry to
    /// belong to this block.
    next_pc: u32,
    entries: Vec<Entry>,
}

/// Whether `instr` ends a basic block: control transfers, including
/// anything that *could* write the PC. IT headers join blocks (the
/// lowering keeps the entries they cover on the generic handler). The
/// classifier is a recording heuristic, not a safety boundary — the
/// block executor independently checks after every instruction whether
/// the PC left the straight line, so a misclassified transfer exits the
/// block rather than corrupting it.
fn ends_block(instr: &Instr) -> bool {
    match instr {
        Instr::B { .. }
        | Instr::Bl { .. }
        | Instr::Bx { .. }
        | Instr::Cbz { .. }
        | Instr::Tbb { .. }
        | Instr::Tbh { .. } => true,
        Instr::Dp { rd, .. } | Instr::Mov { rd, .. } => *rd == Reg::PC,
        Instr::Ldr { rt, .. } | Instr::LdrLit { rt, .. } => *rt == Reg::PC,
        Instr::Ldm { regs, .. } | Instr::Pop { regs, .. } => regs.contains(Reg::PC),
        _ => false,
    }
}

/// Instructions that never join a block and always run on the per-step
/// path: `wfi` fast-forwards the clock past scheduled events (the block
/// executor's cached interrupt horizon would go stale), and `bkpt`
/// always stops.
fn never_in_block(instr: &Instr) -> bool {
    matches!(instr, Instr::Wfi | Instr::Bkpt { .. })
}

/// A complete simulated machine.
///
/// `clone()` is how a machine is copied: CPU, memories, devices, IRQ
/// state, block cache and WFI-park state, so the copy runs
/// bit-identically to the original from that point, even when taken
/// mid-block or inside a parked WFI sleep. It copies only the memory
/// pages the machine wrote ([`Machine::resident_pages`]), so fanning a
/// warmed-up machine across a campaign costs microseconds per copy. A
/// CAN controller or DMA engine in the copy stays on the *same*
/// [`SharedCanBus`] (the handle is the attachment, not the wire state);
/// [`crate::System::fork`] forks a whole topology onto detached wires.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Static configuration.
    pub config: MachineConfig,
    /// Architectural state.
    pub cpu: Cpu,
    /// Flash memory.
    pub flash: Flash,
    /// SRAM.
    pub sram: Sram,
    /// TCM, if fitted.
    pub tcm: Option<Tcm>,
    /// The system bus: region table, attached devices, device signals.
    pub bus: Bus,
    /// Instruction cache, if fitted.
    pub icache: Option<Cache>,
    /// Data cache, if fitted.
    pub dcache: Option<Cache>,
    /// MPU, if fitted.
    pub mpu: Option<Mpu>,
    /// Interrupt controller.
    pub irq: IrqController,
    /// Flash patch unit.
    pub patch: FlashPatch,
    pub(crate) cycles: u64,
    pub(crate) instret: u64,
    pub(crate) fetch_window: Option<u32>,
    /// Scheduled interrupts, sorted descending so the earliest is `last()`
    /// and draining is an O(1) `pop`.
    irq_schedule: Vec<(u64, u32)>,
    pend_cycle: Vec<Option<u64>>,
    latencies: Vec<IrqLatency>,
    sw_frames: Vec<SwFrame>,
    active_irq: u32,
    svc_count: u64,
    icache_recoveries: u64,
    dcache_recoveries: u64,
    /// The basic-block cache: recorded straight-line runs, lowered to
    /// threaded code and dispatched whole by [`Machine::run`].
    blocks: BlockCache,
    /// Block under construction: per-step execution records the entries
    /// it retires until the run ends at a control transfer (see
    /// [`Machine::record_entry`]).
    block_rec: Option<BlockRec>,
    /// Recycled staging buffer for block recording (keeps repeated
    /// record attempts allocation-free).
    rec_spare: Vec<Entry>,
    /// Bumped whenever a simulated store lands inside the block-cache
    /// watermark or the run being recorded (self-modifying code); part
    /// of the block cache's generation stamp.
    code_write_gen: u64,
    /// Cycle bound of the current [`Machine::run_until`] call
    /// (`u64::MAX` outside bounded runs). Caps the WFI fast-forward so a
    /// bounded run never overshoots a scheduler quantum boundary.
    run_limit: u64,
    /// Set when a bounded run reached `run_limit` while asleep in WFI:
    /// the instruction is still in flight, and the next
    /// [`Machine::run`] / [`Machine::run_until`] re-enters the sleep
    /// instead of fetching. Cycle accounting is unchanged — a parked
    /// machine resumes exactly as if the sleep had never been split at
    /// the boundary.
    wfi_parked: bool,
    /// Cycle at which the current (or most recent) WFI sleep began —
    /// the architectural sleep-entry moment. A sleep that turns out to
    /// be terminal ([`StopReason::WfiIdle`], or a parked node in a
    /// quiescent [`crate::System`]) reports its clock here, so WfiIdle
    /// clocks never depend on where scheduler boundaries fell.
    wfi_entry: u64,
    /// Structured event tracer (tier transitions, block fills, IRQ
    /// pend/take, WFI park/resume). Off by default — every record site
    /// is guarded by the category mask, so the disabled interpreter
    /// paths stay at parity. See [`Machine::set_trace_mask`].
    tracer: alia_obs::Tracer,
}

impl Machine {
    /// Builds a machine from a configuration.
    #[must_use]
    pub fn new(config: MachineConfig) -> Machine {
        let mut bus = Bus::new(
            config.flash.size,
            config.sram_size,
            config.tcm_size,
            config.bitband,
        );
        bus.attach(MMIO_BASE, 0x1000, Box::new(Mmio::new()));
        for spec in &config.devices {
            match spec {
                DeviceSpec::Timer(c) => {
                    bus.attach(c.base, 0x100, Box::new(Timer::new(*c)));
                }
                DeviceSpec::SharedCan(c, wire) => {
                    bus.attach(c.base, 0x100, Box::new(CanController::attached(*c, wire)));
                }
                DeviceSpec::Watchdog(c) => {
                    bus.attach(c.base, 0x100, Box::new(Watchdog::new(*c)));
                }
                DeviceSpec::Dma(c, wire_a, wire_b) => {
                    // The route file spans 0x40 + DMA_ROUTES * 0x20.
                    bus.attach(c.base, 0x200, Box::new(Dma::new(*c, wire_a, wire_b)));
                }
            }
        }
        Machine {
            cpu: Cpu::new(),
            flash: Flash::new(config.flash),
            sram: Sram::new(config.sram_size),
            tcm: config.tcm_size.map(Tcm::new),
            bus,
            icache: config.icache.map(Cache::new),
            dcache: config.dcache.map(Cache::new),
            mpu: config.mpu.map(Mpu::new),
            irq: IrqController::new(config.irq_style, config.irq_lines),
            patch: FlashPatch::new(),
            cycles: 0,
            instret: 0,
            fetch_window: None,
            irq_schedule: Vec::new(),
            pend_cycle: vec![None; config.irq_lines],
            latencies: Vec::new(),
            sw_frames: Vec::new(),
            active_irq: 0,
            svc_count: 0,
            icache_recoveries: 0,
            dcache_recoveries: 0,
            blocks: BlockCache::new(),
            block_rec: None,
            rec_spare: Vec::new(),
            code_write_gen: 0,
            run_limit: u64::MAX,
            wfi_parked: false,
            wfi_entry: 0,
            tracer: alia_obs::Tracer::default(),
            config,
        }
    }

    /// The machine's structured event tracer.
    #[must_use]
    pub fn tracer(&self) -> &alia_obs::Tracer {
        &self.tracer
    }

    /// Sets the tracing category mask (see [`alia_obs::category`]) on
    /// the machine *and* on every traced device it owns (the gateway
    /// DMA engines keep their own tracers on their own clock —
    /// [`crate::Device::set_trace_mask`]).
    pub fn set_trace_mask(&mut self, mask: u32) {
        self.tracer.set_mask(mask);
        for dev in self.bus.devices_mut() {
            dev.set_trace_mask(mask);
        }
    }

    /// The instrumentation MMIO block (always attached at bus index 0).
    #[must_use]
    pub fn mmio(&self) -> &Mmio {
        self.bus.device::<Mmio>().expect("instrumentation MMIO always attached")
    }

    /// Shorthand: [`MachineConfig::arm7_like`].
    #[must_use]
    pub fn arm7_like(mode: IsaMode) -> Machine {
        Machine::new(MachineConfig::arm7_like(mode))
    }

    /// Shorthand: [`MachineConfig::m3_like`].
    #[must_use]
    pub fn m3_like() -> Machine {
        Machine::new(MachineConfig::m3_like())
    }

    /// Shorthand: [`MachineConfig::high_end_like`].
    #[must_use]
    pub fn high_end_like() -> Machine {
        Machine::new(MachineConfig::high_end_like())
    }

    /// Cycles consumed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instret
    }

    /// `svc` instructions executed.
    #[must_use]
    pub fn svc_count(&self) -> u64 {
        self.svc_count
    }

    /// Interrupt latency observations.
    #[must_use]
    pub fn latencies(&self) -> &[IrqLatency] {
        &self.latencies
    }

    /// Enables or disables the host-side block engine at runtime
    /// ([`MachineConfig::predecode`]). Toggling drops every cached block
    /// and any recording in flight; disabled, every instruction runs on
    /// the per-step interpreter. Results are bit-identical either way.
    pub fn set_predecode_enabled(&mut self, enabled: bool) {
        self.config.predecode = enabled;
        self.blocks.clear();
        self.discard_record();
    }

    /// Whether the block engine is currently enabled.
    #[must_use]
    pub fn predecode_enabled(&self) -> bool {
        self.config.predecode
    }

    /// The block engine's counters: installs, dispatches, chain
    /// follows, budget splits, fetch-plan mix, demotions and
    /// instructions retired threaded (and in whole segments).
    #[must_use]
    pub fn predecode_stats(&self) -> PredecodeStats {
        self.blocks.stats
    }

    /// Per-block execution profile: one entry per occupied block-cache
    /// slot as `(start pc, instruction count, dispatches)`, sorted by
    /// dispatch count descending.
    #[must_use]
    pub fn block_profile(&self) -> Vec<(u32, u32, u64)> {
        let mut v = self.blocks.profile();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        v
    }

    /// Publishes the machine's execution counters into `reg` under
    /// `prefix` (e.g. `node.gw1.`): cycle/instruction totals, the
    /// full [`PredecodeStats`] family, IRQ takes, and cache-recovery
    /// counts. Values are copies of the same counters the legacy
    /// accessors report — the registry is a uniform view, not a second
    /// source of truth.
    pub fn publish_metrics(&self, reg: &mut alia_obs::metrics::Registry, prefix: &str) {
        reg.counter(&format!("{prefix}cycles"), self.cycles);
        reg.counter(&format!("{prefix}instructions"), self.instret);
        let s = self.predecode_stats();
        reg.counter(&format!("{prefix}blocks.hits"), s.block_hits);
        reg.counter(&format!("{prefix}blocks.chain_follows"), s.chain_follows);
        reg.counter(&format!("{prefix}blocks.budget_splits"), s.budget_splits);
        reg.counter(&format!("{prefix}blocks.promoted"), s.blocks_promoted);
        reg.counter(&format!("{prefix}blocks.demotions"), s.demotions);
        reg.counter(&format!("{prefix}tier.threaded_instrs"), s.threaded_instrs);
        reg.counter(&format!("{prefix}plans.free"), s.plans_free);
        reg.counter(&format!("{prefix}plans.window"), s.plans_window);
        reg.counter(&format!("{prefix}plans.slow"), s.plans_slow);
        reg.counter(&format!("{prefix}irq.taken"), self.latencies.len() as u64);
        let latency = format!("{prefix}irq.latency");
        for l in &self.latencies {
            reg.observe(&latency, l.entry_cycle - l.pend_cycle);
        }
        reg.counter(&format!("{prefix}icache.recoveries"), self.icache_recoveries);
        reg.counter(&format!("{prefix}dcache.recoveries"), self.dcache_recoveries);
        // Device counters, keyed by bus index so multiple controllers
        // on one machine stay distinguishable.
        for (i, dev) in self.bus.devices().iter().enumerate() {
            dev.dev.publish_metrics(reg, &format!("{prefix}dev{i}."));
        }
    }

    /// Guest-memory pages the machine holds: the 4 KiB pages of flash,
    /// SRAM and TCM (RAM and ECC shadow) that an image load or a store
    /// has written. A fresh machine holds none; `clone()` copies exactly
    /// these.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.flash.resident_pages()
            + self.sram.resident_pages()
            + self.tcm.as_ref().map_or(0, Tcm::resident_pages)
    }

    /// Loads bytes into flash at `addr` (must be inside flash).
    pub fn load_flash(&mut self, addr: u32, image: &[u8]) {
        self.flash.load(addr - FLASH_BASE, image);
    }

    /// Loads bytes into SRAM at `addr`.
    pub fn load_sram(&mut self, addr: u32, image: &[u8]) {
        self.sram.load(addr - SRAM_BASE, image);
    }

    /// Reads a word from SRAM (test/benchmark helper).
    #[must_use]
    pub fn read_sram_word(&self, addr: u32) -> u32 {
        self.sram.read(addr - SRAM_BASE, 4)
    }

    /// Writes a word to SRAM (test/benchmark helper).
    pub fn write_sram_word(&mut self, addr: u32, value: u32) {
        self.note_code_write(addr, 4);
        self.sram.write_raw(addr - SRAM_BASE, 4, value);
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.cpu.pc = pc;
    }

    /// Schedules interrupt `irq` to assert at absolute cycle `cycle`.
    pub fn schedule_irq(&mut self, cycle: u64, irq: u32) {
        self.irq_schedule.push((cycle, irq));
        // Descending order: the earliest event sits at the end, so the
        // per-step drain below pops instead of shifting the whole vector.
        self.irq_schedule.sort_unstable_by(|a, b| b.cmp(a));
    }

    fn pend_irq(&mut self, irq: u32, asserted_at: u64) {
        self.irq.pend(irq);
        self.tracer.record(asserted_at, alia_obs::EventKind::IrqPend { irq });
        let slot = &mut self.pend_cycle[irq as usize];
        if slot.is_none() {
            // Latency is measured from the cycle the line was asserted,
            // not from when the core got around to sampling it.
            *slot = Some(asserted_at);
        }
    }

    fn drain_due_irqs(&mut self, now: u64) {
        while let Some(&(cycle, irq)) = self.irq_schedule.last() {
            if cycle > now {
                break;
            }
            self.irq_schedule.pop();
            self.pend_irq(irq, cycle);
        }
        // Devices with timed behaviour (timer compare matches, CAN frame
        // completions) tick only when due — one compare per step
        // otherwise.
        if now >= self.bus.next_event() {
            self.bus.tick_devices(now);
        }
        // Index loops instead of drain().collect(): no per-step
        // allocation. Step-boundary requests pend at the drain cycle
        // (legacy MMIO_IRQ_SET semantics)...
        let mut i = 0;
        while i < self.bus.signals.irq_requests.len() {
            let irq = self.bus.signals.irq_requests[i];
            i += 1;
            if (irq as usize) < self.config.irq_lines {
                self.pend_irq(irq, self.cycles);
            }
        }
        self.bus.signals.irq_requests.clear();
        // ...while timed events carry their own assertion cycle. One
        // stamped after `now` (a DMA IRQ-on-forward fires at the
        // forward's `arrival + latency` enqueue) waits in the schedule:
        // pending it now would let the core take it early.
        let mut i = 0;
        while i < self.bus.signals.timed_irqs.len() {
            let (irq, at) = self.bus.signals.timed_irqs[i];
            i += 1;
            if (irq as usize) >= self.config.irq_lines {
                continue;
            }
            if at > now {
                self.schedule_irq(at, irq);
            } else {
                self.pend_irq(irq, at);
            }
        }
        self.bus.signals.timed_irqs.clear();
    }

    // -----------------------------------------------------------------
    // Memory paths
    // -----------------------------------------------------------------

    /// Resolves an address to its memory region. Dispatch is a bus
    /// region-table lookup (`addr >> 28` index + bounds check), not a
    /// chain of range compares; see [`crate::bus`]. The fetch, data-read
    /// and data-write paths resolve whole accesses through the same
    /// table with [`Bus::classify_access`], which also faults an access
    /// running past the end of flash, TCM or SRAM.
    #[must_use]
    #[inline]
    pub fn classify(&self, addr: u32) -> Region {
        self.bus.classify(addr)
    }

    /// Host-driven bus read: performs a data read exactly as a guest
    /// load would — MPU checks, cache/flash timing state and device side
    /// effects included. Returns `(value, cycles)`.
    ///
    /// # Errors
    ///
    /// Returns the same [`MemFault`]s a guest load would raise.
    pub fn bus_read(&mut self, addr: u32, len: u32) -> Result<(u32, u32), MemFault> {
        self.data_read(addr, len)
    }

    /// Host-driven bus write: performs a data write exactly as a guest
    /// store would. Returns cycles.
    ///
    /// # Errors
    ///
    /// Returns the same [`MemFault`]s a guest store would raise.
    pub fn bus_write(&mut self, addr: u32, len: u32, value: u32) -> Result<u32, MemFault> {
        self.data_write(addr, len, value)
    }

    /// Charges the *timing* of fetching `len` instruction bytes at `addr`
    /// — MPU execute check, flash streaming / I-cache state, TCM
    /// hold-and-repair — without extracting flash bytes. Threaded ops
    /// replay it for every fetch, so block execution is cycle-identical
    /// to stepping. Returns `(cycles, region, tcm_value)`; the third
    /// element carries the TCM read's value (the repairing read is the
    /// access itself, so it is performed exactly once) and is zero for
    /// other regions.
    #[inline]
    pub(crate) fn fetch_timing(&mut self, addr: u32, len: u32) -> Result<(u32, Region, u32), MemFault> {
        debug_assert!(self.window_streams(), "buffered window off the flash stream");
        if let Some(mpu) = &mut self.mpu {
            if !mpu.check_execute(addr) {
                return Err(MemFault::MpuViolation { addr, write: false });
            }
        }
        match self.bus.classify_access(addr, len) {
            Region::Sram => Ok((self.sram.cycles, Region::Sram, 0)),
            Region::Tcm => {
                let tcm = self.tcm.as_mut().expect("classified Tcm");
                let (v, c) = tcm.read(addr - TCM_BASE, len);
                Ok((c, Region::Tcm, v))
            }
            Region::Flash => {
                let mut cycles = 0;
                if self.icache.is_some() {
                    cycles += self.line_fetch(addr - FLASH_BASE);
                } else {
                    // Streaming fetch through the window buffer.
                    let window = self.flash.config().width.max(2);
                    let mut w = addr & !(window - 1);
                    let end = addr + len;
                    while w < end {
                        if self.fetch_window != Some(w) {
                            cycles += self.flash.access_timing(w - FLASH_BASE, window, Access::Fetch);
                            self.fetch_window = Some(w);
                        }
                        w += window;
                    }
                    // Only the final window stays buffered.
                    self.fetch_window = Some((end - 1) & !(window - 1));
                }
                Ok((cycles, Region::Flash, 0))
            }
            Region::BitBand | Region::Device(_) | Region::Unmapped => {
                Err(MemFault::Unmapped { addr })
            }
        }
    }

    /// One I-cache lookup for the fetch at flash offset `off`, with the
    /// parity recovery: a data-RAM error invalidates the line and
    /// refetches it, transparently (§3.1.3). Returns the cycles (zero
    /// with no I-cache fitted; callers only use it with one). The
    /// block engine's `Line` fetch plans call it directly.
    pub(crate) fn line_fetch(&mut self, off: u32) -> u32 {
        let Some(ic) = &mut self.icache else { return 0 };
        let (lookup, c) = ic.access(off);
        if lookup != Lookup::DataError {
            return c;
        }
        self.icache_recoveries += 1;
        c + ic.access(off).1
    }

    /// The invariant the block engine's `Seq` fetch plans rest on: a
    /// buffered streaming window was the flash stream's last fetch, so
    /// the stream continues right after it. Every writer of either
    /// field keeps it (`fetch_timing`'s walk, the flash literal load,
    /// `break_fetch_stream`, and the plans themselves).
    fn window_streams(&self) -> bool {
        let window = self.flash.config().width.max(2);
        self.fetch_window.is_none_or(|w| self.flash.stream_next() == Some(w + window - FLASH_BASE))
    }

    /// Fetches `len` instruction bytes at `addr`. Returns
    /// `(raw, cycles, patched_breakpoint)`. The per-step path's fetch;
    /// threaded ops replay [`Machine::fetch_timing`] alone.
    fn fetch_mem(&mut self, addr: u32, len: u32) -> Result<(u32, u32, bool), MemFault> {
        let (cycles, region, tcm_value) = self.fetch_timing(addr, len)?;
        match region {
            Region::Sram => Ok((self.sram.read(addr - SRAM_BASE, len), cycles, false)),
            Region::Tcm => Ok((tcm_value, cycles, false)),
            Region::Flash => {
                let raw = self.flash.peek(addr - FLASH_BASE, len);
                let (patched, bp) = self.patch.apply(addr, len, raw);
                Ok((patched, cycles, bp))
            }
            // fetch_timing faulted above; keep the compiler honest.
            Region::BitBand | Region::Device(_) | Region::Unmapped => {
                Err(MemFault::Unmapped { addr })
            }
        }
    }

    /// The single remap point for flash *data* reads: raw bytes filtered
    /// through the flash-patch unit, identically for every access width
    /// and on both the cached and uncached paths.
    #[inline]
    fn flash_data_value(&mut self, addr: u32, len: u32) -> u32 {
        let raw = self.flash.peek(addr - FLASH_BASE, len);
        self.patch.apply(addr, len, raw).0
    }

    /// Resolves a bit-band alias address to `(sram_byte_offset, bit)` —
    /// shared by the read and write paths so every access width lands on
    /// the same bit.
    #[inline]
    fn bitband_target(addr: u32) -> (u32, u32) {
        let bit_index = addr - BITBAND_BASE;
        (bit_index / 8, bit_index % 8)
    }

    /// Performs a data read. Returns `(value, cycles)`.
    pub(crate) fn data_read(&mut self, addr: u32, len: u32) -> Result<(u32, u32), MemFault> {
        if let Some(mpu) = &mut self.mpu {
            if !mpu.check(addr, false, true) {
                return Err(MemFault::MpuViolation { addr, write: false });
            }
        }
        let region = self.bus.classify_access(addr, len);
        if let Region::Device(idx) = region {
            let v = self.bus.device_read(idx, addr, self.cycles, self.active_irq);
            return Ok((v, 1));
        }
        if region == Region::BitBand {
            let (byte, bit) = Machine::bitband_target(addr);
            let v = self.sram.read(byte, 1) >> bit & 1;
            return Ok((v, 1));
        }
        let mut cycles = 0;
        if let (Some(dc), Region::Flash | Region::Sram) = (&mut self.dcache, region) {
            let (lookup, c) = dc.access(addr);
            cycles += c;
            if lookup == Lookup::DataError {
                // Precise abort + software recovery, modelled as a charged
                // recovery sequence followed by a refill.
                self.dcache_recoveries += 1;
                let (_, c2) = dc.access(addr);
                cycles += c2 + 8; // recovery handler overhead
            }
            let v = if region == Region::Flash {
                // The patch unit sits on the flash data path regardless of
                // caching (the cache stores timing, not data).
                self.flash_data_value(addr, len)
            } else {
                self.sram.read(addr - SRAM_BASE, len)
            };
            return Ok((v, cycles));
        }
        match region {
            Region::Sram => {
                let v = self.sram.read(addr - SRAM_BASE, len);
                cycles += self.sram.cycles;
                if !self.config.timing.harvard {
                    // Unified bus: the data access steals the bus from the
                    // fetch stream.
                    self.break_fetch_stream();
                }
                Ok((v, cycles))
            }
            Region::Tcm => {
                let tcm = self.tcm.as_mut().expect("classified Tcm");
                let (v, c) = tcm.read(addr - TCM_BASE, len);
                Ok((v, c))
            }
            Region::Flash => {
                // Literal pool load: disturbs the prefetch stream (§2.2).
                let c = self.flash.access_timing(addr - FLASH_BASE, len, Access::Read);
                self.fetch_window = None;
                let v = self.flash_data_value(addr, len);
                Ok((v, c))
            }
            Region::BitBand | Region::Device(_) | Region::Unmapped => {
                Err(MemFault::Unmapped { addr })
            }
        }
    }

    /// Performs a data write. Returns cycles.
    pub(crate) fn data_write(&mut self, addr: u32, len: u32, value: u32) -> Result<u32, MemFault> {
        if let Some(mpu) = &mut self.mpu {
            if !mpu.check(addr, true, true) {
                return Err(MemFault::MpuViolation { addr, write: true });
            }
        }
        match self.bus.classify_access(addr, len) {
            Region::Device(idx) => {
                self.bus.device_write(idx, addr, value, self.cycles);
                Ok(1)
            }
            Region::BitBand => {
                // The paper's §3.2.3 mechanism: one store atomically sets or
                // clears a single bit, no read-modify-write, no IRQ masking.
                let (byte, bit) = Machine::bitband_target(addr);
                self.note_code_write(SRAM_BASE + byte, 1);
                let old = self.sram.read(byte, 1);
                let new = if value & 1 != 0 { old | 1 << bit } else { old & !(1 << bit) };
                self.sram.write_raw(byte, 1, new);
                Ok(1)
            }
            Region::Sram => {
                self.note_code_write(addr, len);
                self.sram.write_raw(addr - SRAM_BASE, len, value);
                if !self.config.timing.harvard {
                    self.break_fetch_stream();
                }
                Ok(self.sram.cycles)
            }
            Region::Tcm => {
                self.note_code_write(addr, len);
                let tcm = self.tcm.as_mut().expect("classified Tcm");
                Ok(tcm.write_raw(addr - TCM_BASE, len, value))
            }
            Region::Flash | Region::Unmapped => Err(MemFault::Unmapped { addr }),
        }
    }

    /// Self-modifying-code hook on the store path: a write that lands
    /// inside the block-cache watermark, or inside the run being
    /// recorded (`[start, next_pc)`: captured entries not yet
    /// installed), bumps the machine's code-write generation. That
    /// clears the block cache at its next lookup and makes the recorder
    /// discard the run. The block executor additionally re-checks this
    /// generation after every impure op, so a store that rewrites code
    /// *later in the currently executing block* splits back to the
    /// per-step path before the stale entry could issue.
    fn note_code_write(&mut self, addr: u32, len: u32) {
        let recorded =
            |rec: &BlockRec| addr < rec.next_pc && addr.saturating_add(len.max(1) - 1) >= rec.start;
        if self.blocks.covers(addr, len) || self.block_rec.as_ref().is_some_and(recorded) {
            self.code_write_gen = self.code_write_gen.wrapping_add(1);
        }
    }

    /// The block cache's generation stamp: the sum of the per-region
    /// revision counters — any change to what instruction bytes decode
    /// to moves this value. The top bits hold the fitted I-cache's
    /// `log2(line size) + 1` (zero with none): installed fetch plans
    /// track streaming windows without an I-cache and cache lines with
    /// one (see `crates/sim/src/threaded.rs`), so fitting, removing or
    /// regeometrying one between runs drops every block. An MPU takes
    /// no part: a dispatch checks the block's whole code range against
    /// the live MPU before any op runs (`Mpu::executes`). See
    /// [`crate::predecode`].
    #[inline]
    fn code_stamp(&self) -> u64 {
        let fitted = self.icache.as_ref().map_or(0, |c| u64::from(c.line_shift()) + 1) << 56;
        self.flash
            .revision()
            .wrapping_add(self.patch.revision())
            .wrapping_add(self.sram.revision())
            .wrapping_add(self.tcm.as_ref().map_or(0, Tcm::revision))
            .wrapping_add(self.code_write_gen)
            .wrapping_add(fitted)
    }

    fn break_fetch_stream(&mut self) {
        self.fetch_window = None;
        // A non-fetch bus transaction desequentializes flash.
        self.flash.break_stream();
    }

    // -----------------------------------------------------------------
    // Execution
    // -----------------------------------------------------------------

    /// Runs until a stop condition or `cycle_limit`.
    pub fn run(&mut self, cycle_limit: u64) -> RunResult {
        loop {
            if self.cycles >= cycle_limit {
                return self.result(StopReason::CycleLimit);
            }
            match self.advance(cycle_limit) {
                None => {}
                Some(reason) => return self.result(reason),
            }
        }
    }

    /// One unit of forward progress: a whole cached block (plus chained
    /// successors) when the block fast path is safe, otherwise one
    /// [`Machine::step`]. Results are bit-identical to stepping — see
    /// [`Machine::exec_blocks`] for the boundary contract.
    fn advance(&mut self, cycle_limit: u64) -> Option<StopReason> {
        if !self.config.predecode || self.wfi_parked {
            return self.step();
        }
        // Block-boundary IRQ sampling: drain once at block entry. Inside
        // a block the executor only bounds-checks — nothing can become
        // pending before one of its split conditions trips (see
        // exec_blocks). A fall-through to the per-step path reuses this
        // drain instead of repeating it.
        self.drain_due_irqs(self.cycles);
        if !self.irq.any_pending() {
            let pc = self.cpu.pc;
            let stamp = self.code_stamp();
            // Demotions happen inside the cache (stamp-change clears);
            // surface them as events by watching the counter across the
            // lookup. One mask test when tracing is off.
            let demote_base = self
                .tracer
                .wants(alia_obs::category::TIER)
                .then_some(self.blocks.stats.demotions);
            let looked_up = self.blocks.lookup(pc, stamp);
            if let Some(base) = demote_base {
                if self.blocks.stats.demotions > base {
                    self.tracer.record(self.cycles, alia_obs::EventKind::Demote { pc });
                }
            }
            if let Some((slot, code)) = looked_up {
                return self.exec_blocks(slot, code, stamp, cycle_limit);
            }
            self.ensure_record(pc, stamp);
        }
        // Interrupt entry (or a masked pending line) and block
        // recording are the per-step path's business.
        self.step_predrained()
    }

    /// The block engine: executes the cached block `code` (in `slot`),
    /// then chains through successors, until a stop, an exit with no
    /// cached successor, or a split back to the per-step path.
    ///
    /// # Why this is bit-identical to stepping
    ///
    /// Every op replays the per-step fetch timing and flash-patch
    /// accounting, and after every impure op the dispatcher re-checks
    /// everything the per-step dispatch could have reacted to at that
    /// boundary (pure ops provably cannot change any of it):
    ///
    /// * a pending interrupt (uncovered by `cpsie`, raised mid-`ldm`,
    ///   left by an exception return) — split; the slow path owns
    ///   interrupt entry;
    /// * undrained device signals (a store that made a device raise an
    ///   IRQ; a load cannot) — split; the next step's drain pends them
    ///   at the same boundary stepping would;
    /// * a guest-reachable generation-stamp change (a store inside the
    ///   cache watermark or the open recording) — split before the
    ///   next, possibly stale, op could issue;
    /// * the cycle budget: a due scheduled interrupt, a due device
    ///   event ([`crate::Bus::next_event`], read live because a guest
    ///   store can re-arm a timer mid-block), or the `run_until` bound
    ///   — split, so interrupt latency and quantum boundaries land on
    ///   the same instruction boundary stepping would put them on.
    ///
    /// Chained dispatch (a block exit probes for its successor and runs
    /// it straight away) is gated on the same checks, so a chain hop is
    /// exactly a block entry whose drain would have been a no-op. Every
    /// dispatch also passes the IT/exit-code gate in
    /// `threaded::dispatch`; when it is closed the per-step path takes
    /// the next instruction.
    fn exec_blocks(
        &mut self,
        mut slot: usize,
        mut code: Arc<ThreadedBlock>,
        stamp: u64,
        cycle_limit: u64,
    ) -> Option<StopReason> {
        // Bounds stable for the whole chain: the earliest scheduled
        // interrupt only changes through `drain_due_irqs` (not called in
        // here — `wfi` never joins a block), and host-side stamp
        // components cannot move while the guest runs.
        let sched_due = self.irq_schedule.last().map_or(u64::MAX, |&(c, _)| c);
        let cwg = self.code_write_gen;
        loop {
            let instret0 = self.instret;
            let (exit, rounds, seg_instrs) =
                threaded::dispatch(self, &code, cycle_limit, sched_due, cwg);
            // Self-loop rounds inside the dispatch stand for
            // dispatch-follow-redispatch passes of this chain loop:
            // charge the stats those passes would have charged.
            let stats = &mut self.blocks.stats;
            stats.block_hits += rounds;
            stats.chain_follows += rounds.saturating_sub(1);
            stats.threaded_instrs += self.instret - instret0;
            stats.segment_instrs += seg_instrs;
            self.blocks.note_dispatch(slot, rounds);
            match exit {
                BlockExit::Gate => return self.step_predrained(),
                BlockExit::Stop(stop) => return Some(stop),
                BlockExit::Split => return None,
                BlockExit::SplitBudget => {
                    self.blocks.stats.budget_splits += 1;
                    self.tracer
                        .record(self.cycles, alia_obs::EventKind::BudgetSplit { pc: code.start });
                    return None;
                }
                BlockExit::Chain => {}
            }
            // Block exit (taken branch or fall-through): dispatch the
            // cached successor, or record it.
            let target = self.cpu.pc;
            if let Some(next) = self.blocks.probe(target) {
                self.blocks.stats.chain_follows += 1;
                (slot, code) = next;
            } else {
                self.ensure_record(target, stamp);
                return None;
            }
        }
    }

    /// The block engine's safety conditions, checked by the dispatcher
    /// after every impure op (pure ops provably cannot change any input
    /// of this check). `false` means split back to the per-step path.
    pub(crate) fn threaded_safety_ok(&self, cwg: u64) -> bool {
        !self.irq.any_pending()
            && self.bus.signals.irq_requests.is_empty()
            && self.bus.signals.timed_irqs.is_empty()
            && self.code_write_gen == cwg
    }

    /// Starts recording a block at `pc` under generation `stamp` —
    /// unless a recording already in progress is about to continue
    /// through `pc` (a multi-instruction run reaches the recorder one
    /// step at a time; restarting here would cap every block at one
    /// entry). The per-step path feeds the recorder through
    /// [`Machine::record_entry`].
    fn ensure_record(&mut self, pc: u32, stamp: u64) {
        if let Some(rec) = &self.block_rec {
            if rec.next_pc == pc && rec.stamp == stamp {
                return;
            }
        }
        self.discard_record();
        let entries = std::mem::take(&mut self.rec_spare);
        self.block_rec = Some(BlockRec { start: pc, stamp, next_pc: pc, entries });
    }

    /// Feeds one fetched entry to the block recorder. Entries must
    /// arrive on the straight line (`pc == next_pc`) under the same
    /// generation stamp; anything else (an interrupt diverted
    /// execution, the stamp moved) discards the partial run.
    fn record_entry(&mut self, pc: u32, entry: &Entry) {
        let stamp = self.code_stamp();
        let Some(rec) = &mut self.block_rec else { return };
        if rec.next_pc != pc || rec.stamp != stamp {
            self.discard_record();
            return;
        }
        if never_in_block(&entry.instr) {
            self.finish_record();
            return;
        }
        rec.entries.push(*entry);
        rec.next_pc = pc.wrapping_add(entry.size);
        let done = ends_block(&entry.instr) || rec.entries.len() >= MAX_BLOCK_LEN;
        if done {
            self.finish_record();
        }
    }

    fn discard_record(&mut self) {
        if let Some(mut rec) = self.block_rec.take() {
            // Recycle the staging buffer: repeated record attempts stay
            // allocation-free.
            rec.entries.clear();
            self.rec_spare = rec.entries;
        }
    }

    /// Lowers the recorded run (if any) to threaded code and installs
    /// it in the block cache; recycles the staging buffer either way.
    fn finish_record(&mut self) {
        let Some(mut rec) = self.block_rec.take() else { return };
        if let Some(code) = threaded::build(rec.start, &rec.entries, self) {
            let end = rec.next_pc.wrapping_sub(1);
            let demote_base = self
                .tracer
                .wants(alia_obs::category::TIER)
                .then_some(self.blocks.stats.demotions);
            if self.blocks.insert(rec.start, end, rec.stamp, code) {
                self.tracer.record(
                    self.cycles,
                    alia_obs::EventKind::BlockFill {
                        pc: rec.start,
                        len: rec.entries.len() as u32,
                    },
                );
            }
            // Overwriting an occupied slot demotes its block.
            if let Some(base) = demote_base {
                if self.blocks.stats.demotions > base {
                    self.tracer
                        .record(self.cycles, alia_obs::EventKind::Demote { pc: rec.start });
                }
            }
        }
        rec.entries.clear();
        self.rec_spare = rec.entries;
    }

    /// Bounded run: like [`Machine::run`], but the bound is a *resumable
    /// boundary*, not an endpoint. A WFI sleep with no event due by
    /// `cycle_limit` parks at the bound (returning
    /// [`StopReason::CycleLimit`]) instead of fast-forwarding past it or
    /// declaring [`StopReason::WfiIdle`]; a later `run_until` resumes
    /// the sleep seamlessly. This is the node entry point of the
    /// multi-machine scheduler ([`crate::System`]): results are
    /// bit-identical no matter where the boundaries fall.
    pub fn run_until(&mut self, cycle_limit: u64) -> RunResult {
        self.run_limit = cycle_limit;
        let result = self.run(cycle_limit);
        self.run_limit = u64::MAX;
        result
    }

    /// Whether the machine is parked in a WFI sleep at a bounded-run
    /// boundary (see [`Machine::run_until`]): architecturally still
    /// inside the sleep, resumable, and unable to execute anything —
    /// in particular unable to enqueue CAN frames — before its next
    /// wakeup.
    #[must_use]
    pub fn wfi_parked(&self) -> bool {
        self.wfi_parked
    }

    /// The next cycle at which a *local* event is due: the earliest
    /// scheduled interrupt or device event (`u64::MAX` when none). For
    /// a parked machine ([`Machine::wfi_parked`]) this is the earliest
    /// cycle it could wake by itself — a multi-node scheduler uses it
    /// as the earliest cycle the node could put a frame on a wire.
    #[must_use]
    pub fn next_local_event(&self) -> u64 {
        let sched = self.irq_schedule.last().map_or(u64::MAX, |&(c, _)| c);
        sched.min(self.bus.next_event())
    }

    /// Whether the machine is parked in a WFI sleep with no local
    /// wakeup source (no scheduled interrupt, no device event): only an
    /// externally delivered event — e.g. a frame arriving on a shared
    /// CAN wire — could ever wake it. A multi-node scheduler uses this
    /// to recognize system-wide quiescence.
    #[must_use]
    pub fn idle_parked(&self) -> bool {
        self.wfi_parked && self.next_local_event() == u64::MAX
    }

    /// Rewinds a parked machine's clock to the architectural
    /// sleep-entry cycle. Called by [`crate::System`] when it declares
    /// quiescence: the park point was a scheduler boundary (a schedule
    /// artifact), while the sleep-entry cycle is determined purely by
    /// the guest's execution — so normalized WfiIdle clocks are
    /// bit-identical across quantum sizes, orderings and boundary policies.
    /// Must only be used on a terminal park (the node is being halted
    /// and will never resume).
    pub(crate) fn normalize_parked_clock(&mut self) {
        if self.wfi_parked {
            self.cycles = self.wfi_entry;
        }
    }

    fn result(&self, reason: StopReason) -> RunResult {
        RunResult { reason, cycles: self.cycles, instructions: self.instret }
    }

    /// Executes one instruction (or takes one interrupt). Returns a stop
    /// reason when the machine halts.
    pub fn step(&mut self) -> Option<StopReason> {
        if self.wfi_parked {
            // A bounded run split a WFI sleep at its boundary; resume
            // the sleep without re-fetching the instruction (no cycle
            // cost — the machine was never architecturally awake).
            self.wfi_parked = false;
            return self.sleep_until_irq();
        }
        self.drain_due_irqs(self.cycles);
        self.step_predrained()
    }

    /// [`Machine::step`] after the WFI-resume check and IRQ drain —
    /// the entry point for callers (the block engine's `advance`) that
    /// have just drained at this same cycle.
    fn step_predrained(&mut self) -> Option<StopReason> {
        // Interrupts are taken between instructions (and never nested).
        if self.cpu.handler_depth == 0 || self.irq.nmi.is_some_and(|n| self.irq.is_pending(n)) {
            if let Some(irq) = self.irq.highest_pending(self.cpu.primask) {
                if self.cpu.handler_depth == 0 || Some(irq) == self.irq.nmi {
                    self.take_interrupt(irq, false);
                    return None;
                }
            }
        }
        let pc = self.cpu.pc;
        let (entry, fetch_cycles) = match self.fetch_decode(pc) {
            Ok(t) => t,
            Err(stop) => return Some(stop),
        };
        if self.block_rec.is_some() {
            self.record_entry(pc, &entry);
        }
        self.issue(&entry, pc, fetch_cycles)
    }

    /// Issues one fetched entry: charges the fetch-overlap cycles,
    /// retires the instruction, evaluates live predication and executes.
    /// The single issue sequence shared by [`Machine::step`] and the
    /// block engine — the bit-identity contract lives here, so a change
    /// to issue semantics cannot drift between the two paths.
    #[inline]
    pub(crate) fn issue(&mut self, entry: &Entry, pc: u32, fetch_cycles: u32) -> Option<StopReason> {
        // Fetch overlaps execution in the pipeline: only the stall beyond
        // one cycle is charged (an ARM7 data-processing op is 1S total).
        self.cycles += u64::from(fetch_cycles.saturating_sub(1));
        self.instret += 1;

        // Predication: IT queue (T2) or per-instruction condition (A32).
        let predicated_cond = if entry.is_it { None } else { self.cpu.it_queue.pop_front() };
        let cond = predicated_cond.unwrap_or(entry.cond);
        if !cond.eval(self.cpu.flags) {
            // Skipped: costs the fetch plus one issue cycle.
            self.cycles += 1;
            self.cpu.pc = pc.wrapping_add(entry.size);
            return None;
        }
        self.exec(entry.instr, pc, entry.size)
    }

    /// The per-step fetch: narrow first, widen on demand, decode from a
    /// fixed 4-byte window (no heap). A flash-patch breakpoint on either
    /// halfword stops before anything is decoded.
    fn fetch_decode(&mut self, pc: u32) -> Result<(Entry, u32), StopReason> {
        let mode = self.config.mode;
        let first_len = mode.min_instr_size();
        let hits_before = self.patch.hits;
        let (raw, mut fetch_cycles, bp) = match self.fetch_mem(pc, first_len) {
            Ok(t) => t,
            Err(f) => return Err(StopReason::Fault(f)),
        };
        if bp {
            return Err(StopReason::PatchBreakpoint { addr: pc });
        }
        let mut window = raw;
        if mode != IsaMode::A32 && (raw as u16) >> 11 >= 0b11101 {
            let (raw2, c2, bp2) = match self.fetch_mem(pc + 2, 2) {
                Ok(t) => t,
                Err(f) => return Err(StopReason::Fault(f)),
            };
            if bp2 {
                return Err(StopReason::PatchBreakpoint { addr: pc + 2 });
            }
            fetch_cycles += c2;
            window = raw & 0xFFFF | raw2 << 16;
        }
        let (instr, isize) = match decode_window(window, mode) {
            Ok(t) => t,
            Err(_) => return Err(StopReason::DecodeError { addr: pc }),
        };
        let patch_hits = (self.patch.hits - hits_before) as u8;
        Ok((Entry::decoded(instr, isize, patch_hits), fetch_cycles))
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, instr: Instr, pc: u32, isize: u32) -> Option<StopReason> {
        let bias = self.config.mode.pc_bias();
        let timing = self.config.timing;
        let mut next_pc = pc.wrapping_add(isize);
        let mut cost = 1u64;
        macro_rules! mem_read {
            ($addr:expr, $len:expr) => {
                match self.data_read($addr, $len) {
                    Ok((v, c)) => {
                        cost += u64::from(c) + u64::from(timing.load_internal);
                        v
                    }
                    Err(f) => return Some(StopReason::Fault(f)),
                }
            };
        }
        macro_rules! mem_write {
            ($addr:expr, $len:expr, $v:expr) => {
                match self.data_write($addr, $len, $v) {
                    Ok(c) => cost += u64::from(c) + u64::from(timing.store_internal),
                    Err(f) => return Some(StopReason::Fault(f)),
                }
            };
        }

        let mut branch_target: Option<u32> = None;
        match instr {
            Instr::Dp { op, s, rd, rn, op2, .. } => {
                let (b, shc) = self.cpu.eval_operand2(op2, bias);
                if matches!(op2, Operand2::RegShiftReg(..)) {
                    cost += 1;
                }
                let a = self.cpu.read_reg(rn, bias);
                use alia_isa::DpOp::*;
                let (result, c, v) = match op {
                    And => (a & b, shc, self.cpu.flags.v),
                    Eor => (a ^ b, shc, self.cpu.flags.v),
                    Orr => (a | b, shc, self.cpu.flags.v),
                    Bic => (a & !b, shc, self.cpu.flags.v),
                    Add => add_with_carry(a, b, false),
                    Adc => add_with_carry(a, b, self.cpu.flags.c),
                    Sub => add_with_carry(a, !b, true),
                    Sbc => add_with_carry(a, !b, self.cpu.flags.c),
                    Rsb => add_with_carry(b, !a, true),
                };
                if s {
                    self.cpu.set_nz(result);
                    self.cpu.flags.c = c;
                    self.cpu.flags.v = v;
                }
                if rd == Reg::PC {
                    branch_target = Some(result);
                } else {
                    self.cpu.write_reg(rd, result);
                }
            }
            Instr::Mov { s, rd, op2, .. } => {
                let (v, shc) = self.cpu.eval_operand2(op2, bias);
                if matches!(op2, Operand2::RegShiftReg(..)) {
                    cost += 1;
                }
                if s {
                    self.cpu.set_nz(v);
                    self.cpu.flags.c = shc;
                }
                if rd == Reg::PC {
                    branch_target = Some(v);
                } else {
                    self.cpu.write_reg(rd, v);
                }
            }
            Instr::Mvn { s, rd, op2, .. } => {
                let (v, shc) = self.cpu.eval_operand2(op2, bias);
                let v = !v;
                if s {
                    self.cpu.set_nz(v);
                    self.cpu.flags.c = shc;
                }
                self.cpu.write_reg(rd, v);
            }
            Instr::Cmp { op, rn, op2, .. } => {
                let (b, shc) = self.cpu.eval_operand2(op2, bias);
                let a = self.cpu.read_reg(rn, bias);
                use alia_isa::CmpOp::*;
                match op {
                    Cmp => {
                        let (r, c, v) = add_with_carry(a, !b, true);
                        self.cpu.set_nz(r);
                        self.cpu.flags.c = c;
                        self.cpu.flags.v = v;
                    }
                    Cmn => {
                        let (r, c, v) = add_with_carry(a, b, false);
                        self.cpu.set_nz(r);
                        self.cpu.flags.c = c;
                        self.cpu.flags.v = v;
                    }
                    Tst => {
                        self.cpu.set_nz(a & b);
                        self.cpu.flags.c = shc;
                    }
                    Teq => {
                        self.cpu.set_nz(a ^ b);
                        self.cpu.flags.c = shc;
                    }
                }
            }
            Instr::MovW { rd, imm16, .. } => self.cpu.write_reg(rd, u32::from(imm16)),
            Instr::MovT { rd, imm16, .. } => {
                let old = self.cpu.read_reg(rd, bias);
                self.cpu.write_reg(rd, old & 0xFFFF | u32::from(imm16) << 16);
            }
            Instr::Mul { s, rd, rn, rm, .. } => {
                let r = self
                    .cpu
                    .read_reg(rn, bias)
                    .wrapping_mul(self.cpu.read_reg(rm, bias));
                cost += u64::from(timing.mul_cycles - 1);
                if s {
                    self.cpu.set_nz(r);
                }
                self.cpu.write_reg(rd, r);
            }
            Instr::Mla { rd, rn, rm, ra, .. } => {
                let r = self
                    .cpu
                    .read_reg(rn, bias)
                    .wrapping_mul(self.cpu.read_reg(rm, bias))
                    .wrapping_add(self.cpu.read_reg(ra, bias));
                cost += u64::from(timing.mul_cycles);
                self.cpu.write_reg(rd, r);
            }
            Instr::Sdiv { rd, rn, rm, .. } => {
                let a = self.cpu.read_reg(rn, bias) as i32;
                let b = self.cpu.read_reg(rm, bias) as i32;
                let q = if b == 0 { 0 } else { a.wrapping_div(b) };
                cost += u64::from(timing.div_cycles(a.unsigned_abs(), b.unsigned_abs()) - 1);
                self.cpu.write_reg(rd, q as u32);
            }
            Instr::Udiv { rd, rn, rm, .. } => {
                let a = self.cpu.read_reg(rn, bias);
                let b = self.cpu.read_reg(rm, bias);
                let q = a.checked_div(b).unwrap_or(0);
                cost += u64::from(timing.div_cycles(a, b) - 1);
                self.cpu.write_reg(rd, q);
            }
            Instr::Bfi { rd, rn, lsb, width, .. } => {
                let mask = width_mask(width) << lsb;
                let old = self.cpu.read_reg(rd, bias);
                let v = self.cpu.read_reg(rn, bias) << lsb & mask;
                self.cpu.write_reg(rd, old & !mask | v);
            }
            Instr::Bfc { rd, lsb, width, .. } => {
                let mask = width_mask(width) << lsb;
                let old = self.cpu.read_reg(rd, bias);
                self.cpu.write_reg(rd, old & !mask);
            }
            Instr::Ubfx { rd, rn, lsb, width, .. } => {
                let v = self.cpu.read_reg(rn, bias) >> lsb & width_mask(width);
                self.cpu.write_reg(rd, v);
            }
            Instr::Sbfx { rd, rn, lsb, width, .. } => {
                let mut v = self.cpu.read_reg(rn, bias) >> lsb & width_mask(width);
                if width < 32 && v >> (width - 1) & 1 != 0 {
                    v |= !width_mask(width);
                }
                self.cpu.write_reg(rd, v);
            }
            Instr::Rbit { rd, rm, .. } => {
                let v = self.cpu.read_reg(rm, bias).reverse_bits();
                self.cpu.write_reg(rd, v);
            }
            Instr::Rev { rd, rm, .. } => {
                let v = self.cpu.read_reg(rm, bias).swap_bytes();
                self.cpu.write_reg(rd, v);
            }
            Instr::Ldr { size, signed, rt, addr, .. } => {
                let (ea, wb) = self.effective_address(addr, bias);
                let len = size.bytes();
                let mut v = mem_read!(ea, len);
                if signed {
                    v = match size {
                        MemSize::Byte => v as u8 as i8 as i32 as u32,
                        MemSize::Half => v as u16 as i16 as i32 as u32,
                        MemSize::Word => v,
                    };
                }
                if let Some((reg, val)) = wb {
                    self.cpu.write_reg(reg, val);
                }
                if rt == Reg::PC {
                    branch_target = Some(v);
                } else {
                    self.cpu.write_reg(rt, v);
                }
            }
            Instr::Str { size, rt, addr, .. } => {
                let (ea, wb) = self.effective_address(addr, bias);
                let v = self.cpu.read_reg(rt, bias);
                mem_write!(ea, size.bytes(), v);
                if let Some((reg, val)) = wb {
                    self.cpu.write_reg(reg, val);
                }
            }
            Instr::LdrLit { rt, offset, .. } => {
                let base = (pc.wrapping_add(bias)) & !3;
                let ea = base.wrapping_add(offset as u32);
                let v = mem_read!(ea, 4);
                if rt == Reg::PC {
                    branch_target = Some(v);
                } else {
                    self.cpu.write_reg(rt, v);
                }
            }
            Instr::Ldm { rn, writeback, regs, .. } => {
                let mut addr = self.cpu.read_reg(rn, bias);
                // All reads complete before any register is written (a
                // mid-list fault must leave the register file untouched);
                // a register list holds at most 16 entries, so the staging
                // buffer lives on the stack.
                let mut loaded = [(Reg::R0, 0u32); 16];
                let mut nloaded = 0;
                for (i, r) in regs.iter().enumerate() {
                    // Interruptible LDM (§3.1.2): abandon and restart.
                    if timing.interruptible_ldm && i > 0 && self.irq_due_mid_instr(cost) {
                        self.cycles += cost;
                        self.cpu.pc = pc; // restart the LDM afterwards
                        let irq = self
                            .irq
                            .highest_pending(self.cpu.primask)
                            .expect("irq_due_mid_instr");
                        self.take_interrupt(irq, false);
                        return None;
                    }
                    let v = mem_read!(addr, 4);
                    loaded[nloaded] = (r, v);
                    nloaded += 1;
                    addr += 4;
                }
                for &(r, v) in &loaded[..nloaded] {
                    if r == Reg::PC {
                        branch_target = Some(v);
                    } else {
                        self.cpu.write_reg(r, v);
                    }
                }
                if writeback && !regs.contains(rn) {
                    self.cpu.write_reg(rn, addr);
                }
            }
            Instr::Stm { rn, writeback, regs, .. } => {
                let mut addr = self.cpu.read_reg(rn, bias);
                for r in regs.iter() {
                    let v = self.cpu.read_reg(r, bias);
                    mem_write!(addr, 4, v);
                    addr += 4;
                }
                if writeback {
                    self.cpu.write_reg(rn, addr);
                }
            }
            Instr::Push { regs, .. } => {
                let mut addr = self.cpu.sp() - 4 * regs.len();
                self.cpu.set_sp(addr);
                for r in regs.iter() {
                    let v = self.cpu.read_reg(r, bias);
                    mem_write!(addr, 4, v);
                    addr += 4;
                }
            }
            Instr::Pop { regs, .. } => {
                let mut addr = self.cpu.sp();
                for r in regs.iter() {
                    let v = mem_read!(addr, 4);
                    addr += 4;
                    if r == Reg::PC {
                        branch_target = Some(v);
                    } else {
                        self.cpu.write_reg(r, v);
                    }
                }
                self.cpu.set_sp(addr);
            }
            Instr::B { offset, .. } => {
                branch_target = Some(pc.wrapping_add(offset as u32));
            }
            Instr::Bl { offset } => {
                self.cpu.set_lr(pc.wrapping_add(isize));
                branch_target = Some(pc.wrapping_add(offset as u32));
            }
            Instr::Bx { rm, .. } => {
                branch_target = Some(self.cpu.read_reg(rm, bias));
            }
            Instr::Cbz { nonzero, rn, offset } => {
                let v = self.cpu.read_reg(rn, bias);
                if (v == 0) != nonzero {
                    branch_target = Some(pc.wrapping_add(offset as u32));
                }
            }
            Instr::It { firstcond, mask, count } => {
                self.cpu.it_queue.load(firstcond, mask, count);
            }
            Instr::Tbb { rn, rm } => {
                let base = self.cpu.read_reg(rn, bias);
                let idx = self.cpu.read_reg(rm, bias);
                let entry = mem_read!(base.wrapping_add(idx), 1);
                branch_target = Some(pc.wrapping_add(4).wrapping_add(entry * 2));
                cost += 1;
            }
            Instr::Tbh { rn, rm } => {
                let base = self.cpu.read_reg(rn, bias);
                let idx = self.cpu.read_reg(rm, bias);
                let entry = mem_read!(base.wrapping_add(idx * 2), 2);
                branch_target = Some(pc.wrapping_add(4).wrapping_add(entry * 2));
                cost += 1;
            }
            Instr::Svc { .. } => {
                self.svc_count += 1;
            }
            Instr::Bkpt { imm } => {
                self.cycles += cost;
                return Some(StopReason::Bkpt(imm));
            }
            Instr::Nop => {}
            Instr::Cpsid => self.cpu.primask = true,
            Instr::Cpsie => self.cpu.primask = false,
            Instr::Wfi => {
                self.cycles += cost;
                self.cpu.pc = next_pc;
                // The architectural moment the core goes to sleep; kept
                // so a sleep that never ends can report its clock here
                // instead of wherever a bounded run parked it. The
                // trace records this moment (and the actual wake in
                // `sleep_until_irq`), never the bounded-run boundary
                // parks — those are scheduler artifacts, and WFI events
                // must stay bit-identical across quantum configs.
                self.wfi_entry = self.cycles;
                self.tracer.record(self.cycles, alia_obs::EventKind::WfiPark);
                return self.sleep_until_irq();
            }
            // `Instr` is non_exhaustive; anything added later is a nop
            // until the executor learns it.
            _ => {}
        }

        self.cycles += cost;
        if let Some(target) = branch_target {
            if target == EXC_RETURN_HW {
                return self.exception_return_hw();
            }
            // Without a software frame this is an ordinary branch (to
            // an unmapped address), not an exception return.
            if target == EXC_RETURN_SW && !self.sw_frames.is_empty() {
                self.exception_return_sw();
                return None;
            }
            next_pc = target & !1;
            self.cycles += u64::from(timing.branch_taken_penalty);
        }
        self.cpu.pc = next_pc;
        if let Some(code) = self.bus.signals.exit_code {
            return Some(StopReason::MmioExit(code));
        }
        None
    }

    fn effective_address(
        &self,
        addr: alia_isa::AddrMode,
        bias: u32,
    ) -> (u32, Option<(Reg, u32)>) {
        let base = self.cpu.read_reg(addr.base, bias);
        let off = match addr.offset {
            Offset::Imm(i) => i as u32,
            Offset::Reg(rm, sh) => self.cpu.read_reg(rm, bias) << sh,
        };
        match addr.index {
            alia_isa::Index::Offset => (base.wrapping_add(off), None),
            alia_isa::Index::PreIndex => {
                let ea = base.wrapping_add(off);
                (ea, Some((addr.base, ea)))
            }
            alia_isa::Index::PostIndex => (base, Some((addr.base, base.wrapping_add(off)))),
        }
    }

    fn irq_due_mid_instr(&mut self, cost_so_far: u64) -> bool {
        self.drain_due_irqs(self.cycles + cost_so_far);
        self.cpu.handler_depth == 0
            && self.irq.highest_pending(self.cpu.primask).is_some()
    }

    fn sleep_until_irq(&mut self) -> Option<StopReason> {
        self.drain_due_irqs(self.cycles);
        if self.irq.highest_pending(self.cpu.primask).is_some() {
            // Awake: the sleep ends here (immediately, or at the
            // boundary a delivered wake event forced). The cycle is
            // schedule-independent — it fixes every later stamp the
            // determinism suites already pin.
            self.tracer.record(self.cycles, alia_obs::EventKind::WfiResume);
            return None;
        }
        // Fast-forward to the next scheduled interrupt or device event.
        let sched = self.irq_schedule.last().map(|&(cycle, _)| cycle);
        let device = self.bus.next_event();
        let target = match (sched, device) {
            (Some(s), u64::MAX) => Some(s),
            (Some(s), d) => Some(s.min(d)),
            (None, u64::MAX) => None,
            (None, d) => Some(d),
        };
        match target {
            Some(cycle) if cycle <= self.run_limit => {
                self.cycles = self.cycles.max(cycle);
                self.drain_due_irqs(self.cycles);
                self.tracer.record(self.cycles, alia_obs::EventKind::WfiResume);
                None
            }
            None if self.run_limit == u64::MAX => {
                // The sleep never ends: report the clock at the
                // architectural sleep-entry cycle, not wherever an
                // earlier bounded run happened to park it — WfiIdle
                // clocks are then schedule-independent everywhere.
                self.cycles = self.wfi_entry;
                Some(StopReason::WfiIdle)
            }
            _ => {
                // Bounded run: the next event (if any) lies beyond the
                // boundary. Park at the bound; the next step resumes
                // the sleep — a scheduler may deliver new events (e.g.
                // shared-bus frames) in between.
                self.cycles = self.cycles.max(self.run_limit);
                self.wfi_parked = true;
                None
            }
        }
    }

    fn take_interrupt(&mut self, irq: u32, tail_chained: bool) {
        self.irq.acknowledge(irq);
        self.active_irq = irq;
        let timing = self.irq.timing();
        let vector_addr = match self.irq.style() {
            IrqStyle::HardwareStacking => self.config.vector_base + 4 * irq,
            IrqStyle::SoftwarePreamble => self.config.vector_base,
        };
        let vector = self.flash.peek(vector_addr - FLASH_BASE, 4);
        match self.irq.style() {
            IrqStyle::HardwareStacking => {
                if tail_chained {
                    self.cycles += u64::from(timing.tail_chain);
                    self.irq.note_tail_chain();
                } else {
                    // Stack r0-r3, r12, lr, pc, psr — eight words; the cost
                    // is folded into `entry` (stacking and vector fetch
                    // proceed in parallel, §3.2.1).
                    let mut sp = self.cpu.sp();
                    let flags = flags_word(self.cpu.flags);
                    let frame = [
                        self.cpu.regs[0],
                        self.cpu.regs[1],
                        self.cpu.regs[2],
                        self.cpu.regs[3],
                        self.cpu.regs[12],
                        self.cpu.lr(),
                        self.cpu.pc,
                        flags,
                    ];
                    sp -= 32;
                    self.cpu.set_sp(sp);
                    for (i, w) in frame.iter().enumerate() {
                        let _ = self.data_write(sp + 4 * i as u32, 4, *w);
                    }
                    self.cycles += u64::from(timing.entry);
                }
                self.cpu.set_lr(EXC_RETURN_HW);
            }
            IrqStyle::SoftwarePreamble => {
                self.sw_frames.push(SwFrame {
                    ret_pc: self.cpu.pc,
                    flags: self.cpu.flags,
                    primask: self.cpu.primask,
                });
                self.cpu.primask = true;
                self.cpu.set_lr(EXC_RETURN_SW);
                self.cycles += u64::from(timing.entry);
            }
        }
        self.cpu.pc = vector & !1;
        self.cpu.it_queue.clear();
        if self.cpu.handler_depth == 0 || !tail_chained {
            self.cpu.handler_depth = 1;
        }
        let pend = self.pend_cycle[irq as usize].take().unwrap_or(self.cycles);
        self.latencies.push(IrqLatency {
            irq,
            pend_cycle: pend,
            entry_cycle: self.cycles,
            tail_chained,
        });
        self.tracer.record(self.cycles, alia_obs::EventKind::IrqTake { irq, tail_chained });
    }

    fn exception_return_hw(&mut self) -> Option<StopReason> {
        self.drain_due_irqs(self.cycles);
        if let Some(next) = self.irq.highest_pending(self.cpu.primask) {
            // Tail-chain: skip unstack + restack (Figure 4).
            self.take_interrupt(next, true);
            return None;
        }
        let timing = self.irq.timing();
        let sp = self.cpu.sp();
        let mut frame = [0u32; 8];
        for (i, slot) in frame.iter_mut().enumerate() {
            match self.data_read(sp + 4 * i as u32, 4) {
                Ok((v, _)) => *slot = v,
                Err(f) => return Some(StopReason::Fault(f)),
            }
        }
        self.cpu.regs[0] = frame[0];
        self.cpu.regs[1] = frame[1];
        self.cpu.regs[2] = frame[2];
        self.cpu.regs[3] = frame[3];
        self.cpu.regs[12] = frame[4];
        self.cpu.set_lr(frame[5]);
        self.cpu.pc = frame[6] & !1;
        self.cpu.flags = flags_from_word(frame[7]);
        self.cpu.set_sp(sp + 32);
        self.cycles += u64::from(timing.exit);
        self.cpu.handler_depth = 0;
        None
    }

    fn exception_return_sw(&mut self) {
        let timing = self.irq.timing();
        let frame = self.sw_frames.pop().expect("software exception return without frame");
        self.cpu.pc = frame.ret_pc;
        self.cpu.flags = frame.flags;
        self.cpu.primask = frame.primask;
        self.cycles += u64::from(timing.exit);
        self.cpu.handler_depth = self.cpu.handler_depth.saturating_sub(1);
        // No tail-chaining in the software scheme: a pending interrupt is
        // taken at the next step boundary, paying full exit + entry.
    }
}

/// The low `width` bits set (all 32 from 32 up).
pub(crate) fn width_mask(width: u8) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1 << width) - 1
    }
}

fn flags_word(f: Flags) -> u32 {
    u32::from(f.n) << 31 | u32::from(f.z) << 30 | u32::from(f.c) << 29 | u32::from(f.v) << 28
}

fn flags_from_word(w: u32) -> Flags {
    Flags { n: w >> 31 & 1 != 0, z: w >> 30 & 1 != 0, c: w >> 29 & 1 != 0, v: w >> 28 & 1 != 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatchKind;
    use alia_isa::Assembler;

    fn asm_machine(mode: IsaMode, src: &str) -> Machine {
        let out = Assembler::new(mode).assemble(src).expect("assembly failed");
        let mut m = match mode {
            IsaMode::A32 => Machine::arm7_like(IsaMode::A32),
            IsaMode::T16 => Machine::arm7_like(IsaMode::T16),
            IsaMode::T2 => Machine::m3_like(),
        };
        m.load_flash(0x100, &out.bytes);
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    }

    #[test]
    fn add_loop_t2() {
        let mut m = asm_machine(
            IsaMode::T2,
            "mov r0, #0
             mov r1, #10
             loop: add r0, r0, #1
             sub r1, r1, #1
             cmp r1, #0
             bne loop
             bkpt #0",
        );
        let r = m.run(100_000);
        assert_eq!(r.reason, StopReason::Bkpt(0));
        assert_eq!(m.cpu.regs[0], 10);
    }

    #[test]
    fn same_program_all_modes_same_result() {
        let src = "mov r0, #100
             mov r1, #7
             loop: sub r0, r0, r1
             cmp r0, #10
             bge loop
             bkpt #0";
        for mode in IsaMode::ALL {
            let mut m = asm_machine(mode, src);
            let r = m.run(100_000);
            assert_eq!(r.reason, StopReason::Bkpt(0), "{mode}");
            // 100, 93, ... descends by 7 until the first value below 10.
            assert_eq!(m.cpu.regs[0] as i32, 9, "{mode}");
        }
    }

    #[test]
    fn memory_and_stack() {
        let mut m = asm_machine(
            IsaMode::T2,
            "movw r0, #0
             movt r0, #0x2000
             mov r1, #42
             str r1, [r0, #4]
             ldr r2, [r0, #4]
             push {r1, r2}
             pop {r3, r4}
             bkpt #0",
        );
        let r = m.run(100_000);
        assert_eq!(r.reason, StopReason::Bkpt(0));
        assert_eq!(m.cpu.regs[2], 42);
        assert_eq!(m.cpu.regs[3], 42);
        assert_eq!(m.cpu.regs[4], 42);
        assert_eq!(m.read_sram_word(SRAM_BASE + 4), 42);
    }

    #[test]
    fn hardware_divide_runs_on_t2() {
        let mut m = asm_machine(
            IsaMode::T2,
            "mov r0, #100
             mov r1, #7
             sdiv r2, r0, r1
             udiv r3, r0, r1
             bkpt #0",
        );
        m.run(10_000);
        assert_eq!(m.cpu.regs[2], 14);
        assert_eq!(m.cpu.regs[3], 14);
    }

    #[test]
    fn it_block_predication() {
        let mut m = asm_machine(
            IsaMode::T2,
            "mov r0, #5
             cmp r0, #5
             ite eq
             mov r1, #1
             mov r1, #2
             bkpt #0",
        );
        m.run(10_000);
        assert_eq!(m.cpu.regs[1], 1);
    }

    #[test]
    fn a32_conditional_execution() {
        let mut m = asm_machine(
            IsaMode::A32,
            "mov r0, #5
             cmp r0, #9
             moveq r1, #1
             movne r1, #2
             bkpt #0",
        );
        m.run(10_000);
        assert_eq!(m.cpu.regs[1], 2);
    }

    #[test]
    fn bitband_atomic_set() {
        // Set bit 3 of SRAM byte 0 via the alias region.
        let mut m = asm_machine(
            IsaMode::T2,
            "movw r0, #3
             movt r0, #0x2200 ; alias of bit 3 of byte 0
             mov r1, #1
             str r1, [r0]
             bkpt #0",
        );
        m.run(10_000);
        assert_eq!(m.sram.read(0, 1), 0b1000);
    }

    #[test]
    fn interrupt_hardware_stacking_and_return() {
        // Vector table at 0: irq 0 vector -> 0x200.
        let mut m = Machine::m3_like();
        let main = Assembler::new(IsaMode::T2)
            .assemble("main: add r4, r4, #1\n b main")
            .unwrap();
        let handler = Assembler::new(IsaMode::T2)
            .assemble("add r5, r5, #1\n bx lr")
            .unwrap();
        m.load_flash(0x0, &[0u8; 4]); // vector 0 written below
        m.load_flash(0x100, &main.bytes);
        m.load_flash(0x200, &handler.bytes);
        m.load_flash(0, &0x200u32.to_le_bytes());
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m.schedule_irq(50, 0);
        let r = m.run(400);
        assert_eq!(r.reason, StopReason::CycleLimit);
        assert_eq!(m.cpu.regs[5], 1, "handler ran once");
        assert!(m.cpu.regs[4] > 10, "main kept running after return");
        assert_eq!(m.latencies().len(), 1);
        let lat = m.latencies()[0];
        assert!(lat.entry_cycle >= lat.pend_cycle + 12);
    }

    #[test]
    fn nmi_fires_despite_cpsid() {
        let mut m = Machine::m3_like();
        m.irq.nmi = Some(1);
        let main = Assembler::new(IsaMode::T2)
            .assemble("cpsid\nmain: add r4, r4, #1\n b main")
            .unwrap();
        let handler = Assembler::new(IsaMode::T2).assemble("mov r7, #99\n bkpt #7").unwrap();
        m.load_flash(0x100, &main.bytes);
        m.load_flash(0x200, &handler.bytes);
        m.load_flash(4, &0x200u32.to_le_bytes()); // vector for irq 1
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m.schedule_irq(40, 1);
        let r = m.run(10_000);
        assert_eq!(r.reason, StopReason::Bkpt(7));
        assert_eq!(m.cpu.regs[7], 99);
    }

    #[test]
    fn masked_irq_waits_for_cpsie() {
        let mut m = Machine::m3_like();
        let main = Assembler::new(IsaMode::T2)
            .assemble(
                "cpsid
                 mov r4, #0
                 spin: add r4, r4, #1
                 cmp r4, #20
                 bne spin
                 cpsie
                 b spin2
                 spin2: b spin2",
            )
            .unwrap();
        let handler = Assembler::new(IsaMode::T2).assemble("bkpt #9").unwrap();
        m.load_flash(0x100, &main.bytes);
        m.load_flash(0x200, &handler.bytes);
        m.load_flash(0, &0x200u32.to_le_bytes());
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m.schedule_irq(10, 0);
        let r = m.run(100_000);
        assert_eq!(r.reason, StopReason::Bkpt(9));
        // The IRQ had to wait until cpsie: latency >> entry cost.
        let lat = m.latencies()[0];
        assert!(lat.entry_cycle - lat.pend_cycle > 20);
    }

    #[test]
    fn wfi_fast_forwards_to_next_irq() {
        let mut m = Machine::m3_like();
        let main = Assembler::new(IsaMode::T2).assemble("wfi\n bkpt #1").unwrap();
        let handler = Assembler::new(IsaMode::T2).assemble("bx lr").unwrap();
        m.load_flash(0x100, &main.bytes);
        m.load_flash(0x200, &handler.bytes);
        m.load_flash(0, &0x200u32.to_le_bytes());
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m.schedule_irq(5000, 0);
        let r = m.run(100_000);
        assert_eq!(r.reason, StopReason::Bkpt(1));
        assert!(r.cycles >= 5000);
    }

    #[test]
    fn wfi_with_no_irq_idles() {
        let mut m = asm_machine(IsaMode::T2, "wfi");
        let r = m.run(1000);
        assert_eq!(r.reason, StopReason::WfiIdle);
    }

    /// A machine whose timer runs at `period` cycles, with a handler of
    /// tunable span (`work` loop iterations) on IRQ 0. The main loop
    /// programs COMPARE then CTRL and spins.
    fn timer_stress_machine(period: u32, work: u32) -> Machine {
        let mut config = MachineConfig::m3_like();
        config.devices = vec![DeviceSpec::Timer(crate::TimerConfig {
            base: crate::TIMER_BASE,
            irq: 0,
            compare: period,
        })];
        let main = Assembler::new(IsaMode::T2)
            .assemble(&format!(
                "movw r0, #0x1000
                 movt r0, #0x4000
                 movw r1, #{period}
                 str r1, [r0, #4]
                 mov r1, #3
                 str r1, [r0, #0]
                 spin: add r4, r4, #1
                 b spin"
            ))
            .unwrap();
        let handler = Assembler::new(IsaMode::T2)
            .assemble(&format!(
                "add r5, r5, #1
                 mov r6, #{work}
                 w: cmp r6, #0
                 beq out
                 sub r6, r6, #1
                 b w
                 out: bx lr"
            ))
            .unwrap();
        let mut m = Machine::new(config);
        m.load_flash(0x100, &main.bytes);
        m.load_flash(0x200, &handler.bytes);
        m.load_flash(0, &0x200u32.to_le_bytes());
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    }

    #[test]
    fn small_period_timer_irqs_are_stamped_back_to_back() {
        // A short handler and a 96-cycle period: every compare match
        // must be serviced before the next, with the pend stamps
        // advancing by exactly the period — a missed or late reload
        // would skew the arithmetic progression.
        let mut m = timer_stress_machine(96, 0);
        m.run(20_000);
        let lats: Vec<_> = m.latencies().iter().filter(|l| l.irq == 0).collect();
        assert!(lats.len() > 100, "expected a long burst, got {}", lats.len());
        let first = lats[0].pend_cycle;
        for (k, l) in lats.iter().enumerate() {
            assert_eq!(
                l.pend_cycle,
                first + 96 * k as u64,
                "fire {k} pend stamp off the periodic grid"
            );
            assert!(
                l.entry_cycle - l.pend_cycle < 96,
                "fire {k} serviced after the next compare match"
            );
        }
        // Every fire the device counted became exactly one handler
        // entry (the final fire may still be in flight at the limit).
        let fires = m.bus.device::<crate::Timer>().expect("timer attached").fires();
        assert!(
            fires - lats.len() as u64 <= 1,
            "{} fires but {} entries: compare matches were lost",
            fires,
            lats.len()
        );
        assert_eq!(u64::from(m.cpu.regs[5]), lats.len() as u64, "handler count");
    }

    #[test]
    fn saturating_timer_tail_chains_without_losing_stamps() {
        // The handler span exceeds the 48-cycle period: each compare
        // match pends while the previous handler still runs, so entries
        // tail-chain back to back and the backlog collapses — the
        // device keeps firing on its precise grid regardless.
        let mut m = timer_stress_machine(48, 24);
        m.run(20_000);
        let lats: Vec<_> = m.latencies().iter().filter(|l| l.irq == 0).collect();
        assert!(lats.len() > 50, "expected sustained service, got {}", lats.len());
        assert!(
            lats.iter().filter(|l| l.tail_chained).count() > lats.len() / 2,
            "saturated line must tail-chain most entries"
        );
        assert_eq!(u64::from(m.cpu.regs[5]), lats.len() as u64, "handler count");
        // Saturation semantics: the pending bit collapses coincident
        // fires, so the device counts at least as many fires as the
        // core took entries — never fewer.
        let fires = m.bus.device::<crate::Timer>().expect("timer attached").fires();
        assert!(fires >= lats.len() as u64);
        // The main loop is starved but never corrupted.
        assert!(m.cpu.regs[4] < 200, "main loop should be nearly starved");
    }

    #[test]
    fn snapshot_mid_block_restores_bit_identically() {
        // A clone taken at a bound landing inside the hot loop's basic
        // block (warm block cache, recording in flight): the original,
        // a machine restored from the clone, and the clone itself must
        // all finish with identical cycles/instret/registers.
        let src = "mov r0, #0
             movw r1, #40000
             loop: add r0, r0, #1
             sub r1, r1, #1
             cmp r1, #0
             bne loop
             bkpt #0";
        let mut m = asm_machine(IsaMode::T2, src);
        let r = m.run_until(12_345);
        assert_eq!(r.reason, StopReason::CycleLimit, "the clone point is mid-run");
        let snap = m.clone();
        let mut fork = snap.clone();
        let r_orig = m.run(10_000_000);
        let r_fork = fork.run(10_000_000);
        assert_eq!(r_orig.reason, StopReason::Bkpt(0));
        assert_eq!(r_fork, r_orig);
        assert_eq!(fork.cycles(), m.cycles());
        assert_eq!(fork.instructions(), m.instructions());
        assert_eq!(fork.cpu.regs, m.cpu.regs);
        // Assigning the kept copy back rewinds the finished machine to
        // the clone point, and the rerun is bit-identical again.
        m = snap.clone();
        assert_eq!(m.cycles(), snap.cycles());
        let r_again = m.run(10_000_000);
        assert_eq!(r_again, r_orig);
        assert_eq!(m.cpu.regs, fork.cpu.regs);
    }

    #[test]
    fn snapshot_forks_diverge_on_divergent_inputs() {
        // Two clones of one machine, one of them with a poked SRAM cell
        // the guest reads *after* the fork point: results must differ —
        // the forks share no storage (the page copy is a real copy).
        let src = "movw r0, #0x0040
             movt r0, #0x2000
             movw r1, #2000
             loop: sub r1, r1, #1
             cmp r1, #0
             bne loop
             ldr r2, [r0]
             movw r3, #2000
             add r2, r2, r3
             bkpt #0";
        let mut m = asm_machine(IsaMode::T2, src);
        m.run_until(500);
        let mut a = m.clone();
        let mut b = m.clone();
        b.sram.write(0x40, 4, 1000);
        a.run(1_000_000);
        b.run(1_000_000);
        assert_eq!(a.cpu.regs[2], 2000);
        assert_eq!(b.cpu.regs[2], 3000, "fork b saw its own poked input");
        // The original is unaffected by either fork.
        m.run(1_000_000);
        assert_eq!(m.cpu.regs[2], 2000);
    }

    #[test]
    fn snapshot_of_wfi_parked_machine_resumes_exactly() {
        // Park a timer-paced sleep at a bounded-run boundary, clone the
        // parked machine, and check the clone wakes at the same
        // cycle with the same IRQ latency stamps as the original.
        let main = "movw r0, #0x1000
             movt r0, #0x4000
             movw r1, #5000
             str r1, [r0, #4]
             mov r1, #1
             str r1, [r0, #0]
             wfi
             bkpt #0";
        let build = || {
            let mut config = MachineConfig::m3_like();
            config.devices = vec![DeviceSpec::Timer(crate::TimerConfig {
                base: crate::TIMER_BASE,
                irq: 0,
                compare: 5000,
            })];
            let out = Assembler::new(IsaMode::T2).assemble(main).expect("assembles");
            let handler = Assembler::new(IsaMode::T2).assemble("bx lr").expect("assembles");
            let mut m = Machine::new(config);
            m.load_flash(0x100, &out.bytes);
            m.load_flash(0x200, &handler.bytes);
            m.load_flash(0, &0x200u32.to_le_bytes());
            m.set_pc(0x100);
            m.cpu.set_sp(SRAM_BASE + 0x8000);
            m
        };
        let mut m = build();
        let r = m.run_until(1_000);
        assert_eq!(r.reason, StopReason::CycleLimit);
        assert!(m.wfi_parked(), "the bound split the sleep");
        let mut fork = m.clone();
        assert!(fork.wfi_parked(), "park state travels with the clone");
        let r_orig = m.run(1_000_000);
        let r_fork = fork.run(1_000_000);
        assert_eq!(r_orig.reason, StopReason::Bkpt(0));
        assert_eq!(r_fork, r_orig);
        assert_eq!(fork.latencies(), m.latencies());
        assert_eq!(fork.cycles(), m.cycles());
    }

    #[test]
    fn mpu_violation_faults() {
        let mut m = Machine::high_end_like();
        let prog = Assembler::new(IsaMode::T2)
            .assemble(
                "movw r0, #0
                 movt r0, #0x2000
                 mov r1, #1
                 str r1, [r0]
                 bkpt #0",
            )
            .unwrap();
        m.load_flash(0x100, &prog.bytes);
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        {
            let mpu = m.mpu.as_mut().unwrap();
            mpu.background_allowed = false;
            // Code is executable, stack is RW, but SRAM word 0 is not mapped.
            mpu.add_region(0, 0x1000, crate::Perms::RX).unwrap();
            mpu.add_region(SRAM_BASE + 0x7000, 0x1000, crate::Perms::RW).unwrap();
        }
        let r = m.run(10_000);
        assert!(matches!(
            r.reason,
            StopReason::Fault(MemFault::MpuViolation { write: true, .. })
        ));
    }

    #[test]
    fn literal_pool_load_breaks_flash_stream() {
        // ldr r0, [pc, #...] from flash data: the next fetch pays
        // non-sequential timing.
        let mut m = Machine::m3_like();
        // Layout: nop@0x100, ldr@0x102 (literal base = align4(0x102+4) =
        // 0x104), nop@0x104, nop@0x106, bkpt@0x108, pad, word@0x10C ->
        // offset = 0x10C - 0x104 = 8.
        let prog = Assembler::new(IsaMode::T2)
            .assemble(
                "nop
                 ldr r0, [pc, #8]
                 nop
                 nop
                 bkpt #0
                 .align 4
                 .word 0x12345678",
            )
            .unwrap();
        m.load_flash(0x100, &prog.bytes);
        m.set_pc(0x100);
        m.run(10_000);
        assert_eq!(m.cpu.regs[0], 0x1234_5678);
        assert!(m.flash.stats().data_accesses >= 1);
        assert!(m.flash.stats().non_sequential >= 2);
    }

    #[test]
    fn flash_patch_remaps_literal_data(){
        let mut m = Machine::m3_like();
        // ldr@0x100: literal base = align4(0x100+4) = 0x104, which is
        // exactly where the word lands after bkpt@0x102 -> offset 0.
        let prog = Assembler::new(IsaMode::T2)
            .assemble(
                "ldr r0, [pc, #0]
                 bkpt #0
                 .align 4
                 lit: .word 0x11111111",
            )
            .unwrap();
        let lit_addr = 0x100 + prog.symbols["lit"];
        m.load_flash(0x100, &prog.bytes);
        m.patch.set(0, lit_addr, PatchKind::Remap(0x2222_2222)).unwrap();
        m.set_pc(0x100);
        m.run(10_000);
        assert_eq!(m.cpu.regs[0], 0x2222_2222);
    }

    #[test]
    fn patch_breakpoint_stops_fetch() {
        let mut m = Machine::m3_like();
        let prog = Assembler::new(IsaMode::T2)
            .assemble("nop\nnop\ntarget: nop\n bkpt #0")
            .unwrap();
        let target = 0x100 + prog.symbols["target"];
        m.load_flash(0x100, &prog.bytes);
        m.patch.set(0, target & !3, PatchKind::Breakpoint).unwrap();
        m.set_pc(0x100);
        let r = m.run(10_000);
        assert!(matches!(r.reason, StopReason::PatchBreakpoint { .. }));
    }
}
