//! # alia-sim — cycle-approximate simulator for the ALIA cores
//!
//! This crate models the three core design points of Lyons, *"Meeting the
//! Embedded Design Needs of Automotive Applications"* (DATE 2005), plus
//! every memory-system mechanism the paper evaluates:
//!
//! * wait-stated **flash with a streaming prefetch buffer** whose stream is
//!   broken by literal-pool data fetches (§2.2),
//! * **caches with parity** and invalidate-refetch / precise-abort soft-
//!   error recovery, and **TCM with ECC hold-and-repair** (§3.1.3),
//! * classic 4 KB-granule and re-engineered **fine-grain MPUs** (§3.1.1),
//! * **software-preamble and hardware-stacking interrupt schemes** with
//!   tail-chaining and an optional NMI line (§3.2.1, §3.1.2),
//! * the **bit-band alias region** for single-store atomic bit access
//!   (§3.2.3),
//! * an 8-slot **flash patch / breakpoint unit** (§3.2.2), and
//! * an **interruptible, re-startable LDM/STM** option (§3.1.2).
//!
//! # The device bus
//!
//! Every memory access is dispatched through a region table ([`bus`]):
//! 16 entries indexed by `addr >> 28`, each with per-slot bounds, so
//! classification is a table lookup instead of a range-compare chain.
//! Non-RAM regions are serviced through the pluggable [`Device`] trait;
//! machines always carry the instrumentation [`Mmio`] block and can
//! attach a compare-match [`Timer`], a countdown [`Watchdog`], a
//! [`Dma`] gateway engine and a memory-mapped [`CanController`]
//! (wrapping `alia_can`) via [`MachineConfig::devices`] — guest
//! programs drive them purely with loads and stores and receive their
//! events as interrupts. See `ARCHITECTURE.md` for the full contract
//! (timing, access widths, ticking, IRQ signaling).
//!
//! # Multi-ECU systems and the network subsystem
//!
//! [`System`] ([`system`]) scales execution from one machine to a
//! network topology: N [`Node`]s (machine + devices + local clock), a
//! set of named [`SharedCanBus`] wires ([`System::add_wire`]) that
//! nodes' CAN controllers arbitrate on, [`Dma`] gateway engines
//! ([`dma`]) that forward frames between wires by guest-programmed
//! routing tables (id-range match, rewrite, store-and-forward latency —
//! no per-frame CPU work), and a deterministic quantum scheduler whose
//! results are independent of quantum size and node service order even
//! across multi-hop gateway paths. Only [`System::run`] advances a
//! wire: a CAN controller on a lone machine is a one-node system. A
//! countdown [`Watchdog`] device (NMI-style expiry IRQ, guest-kickable)
//! covers the classic stalled-peer detection scenario.
//!
//! # Host performance
//!
//! The interpreter is built to run "as fast as the hardware allows"
//! without changing a single reported cycle:
//!
//! * **Threaded blocks** ([`predecode`], the one code cache):
//!   straight-line runs the per-step path records are lowered to
//!   threaded code (pre-resolved handlers, fused instruction pairs,
//!   planned fetch timing) when installed, and [`Machine::run`]
//!   dispatches them whole and, at each exit, probes for the successor
//!   block and dispatches it in turn. Hot code never
//!   re-reads instruction bytes or re-runs the table decoder; only the
//!   *timing* side of each fetch (flash streaming, I-cache, TCM repair)
//!   is replayed, by plans precomputed per fetch, and the MPU's execute
//!   check runs once per dispatch over the block's code range. Runs of
//!   register-only instructions whose fetches are static after the
//!   first are charged their fetch timing once per run, not once per
//!   fetch, whenever the run's worst case fits under the cycle budget
//!   (whole-segment dispatch). IT blocks lower too: covered instructions keep
//!   the per-step issue sequence, and a block only runs with an empty
//!   IT queue. The cache invalidates on flash loads, flash-patch
//!   programming, host-side RAM mutation and self-modifying stores
//!   (tracked on the store path by an address watermark over installed
//!   blocks plus the run being recorded).
//! * **Per-step interpreter**: `Machine::step` fetches and decodes
//!   every instruction. It records blocks, takes interrupts, runs
//!   `wfi`/`bkpt` and resumes after splits; with the engine off it runs
//!   everything and is the reference: cycle counts, `FlashPatch::hits`,
//!   flash and cache statistics and `StopReason`s are bit-identical
//!   with the engine on or off
//!   ([`Machine::set_predecode_enabled`], the one host-only switch).
//! * **Zero-allocation hot loop**: `Machine::step` performs no heap
//!   allocation apart from a guest store's first write to a memory page
//!   — decode reads a fixed 4-byte window (`alia_isa::decode_window`),
//!   LDM staging uses a fixed register buffer, IT blocks expand into an
//!   inline [`ItQueue`], and the IRQ drain is allocation-free.
//! * **Sparse paged memory arrays**: flash, SRAM and TCM are tables of
//!   4 KiB pages, each allocated on its first write; absent pages read
//!   as zero. [`Machine::new`] allocates no guest memory, and a
//!   machine's `clone()` or a [`System::fork`] copies only the pages
//!   written so far
//!   ([`Machine::resident_pages`]), whatever the configured sizes.
//!
//! Host performance is judged with the mission benchmark in
//! `perfbench/`.
//!
//! # Examples
//!
//! ```
//! use alia_isa::{Assembler, IsaMode};
//! use alia_sim::{Machine, StopReason};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Assembler::new(IsaMode::T2).assemble(
//!     "mov r0, #0
//!      mov r1, #5
//!      loop: add r0, r0, r1
//!      sub r1, r1, #1
//!      cmp r1, #0
//!      bne loop
//!      bkpt #0",
//! )?;
//! let mut m = Machine::m3_like();
//! m.load_flash(0x100, &program.bytes);
//! m.set_pc(0x100);
//! let result = m.run(10_000);
//! assert_eq!(result.reason, StopReason::Bkpt(0));
//! assert_eq!(m.cpu.regs[0], 15);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
mod cache;
mod cpu;
pub mod devices;
pub mod dma;
mod irq;
mod machine;
mod mem;
mod mpu;
mod patch;
pub mod predecode;
pub mod system;
mod threaded;
mod timing;

pub use bus::{
    AttachedDevice, Bus, BusSignals, Device, DeviceClone, DeviceCtx, Region, CAN_BASE,
    DMA_BASE, TIMER_BASE, WATCHDOG_BASE,
};
pub use cache::{Cache, CacheConfig, CacheStats, Lookup};
pub use cpu::{
    add_with_carry, expand_it, Cpu, ItQueue, EXC_RETURN_HW, EXC_RETURN_SW,
};
pub use devices::{
    CanConfig, CanController, SharedCanBus, Timer, TimerConfig, Watchdog, WatchdogConfig,
};
pub use dma::{Dma, DmaConfig, DMA_ROUTES};
pub use irq::{IrqController, IrqStyle, IrqTiming};
pub use machine::{
    DeviceSpec, IrqLatency, Machine, MachineConfig, RunResult, StopReason, MMIO_IRQ_ACTIVE,
};
pub use predecode::PredecodeStats;
pub use system::{Node, System, SystemConfig, SystemRunResult, SystemStop};
pub use mem::{
    Access, Flash, FlashConfig, FlashStats, MemFault, Mmio, Sram, Tcm, BITBAND_BASE, FLASH_BASE,
    MMIO_BASE, MMIO_CYCLES, MMIO_EXIT, MMIO_IRQ_SET, MMIO_TRACE, SRAM_BASE, TCM_BASE,
};
pub use mpu::{Mpu, MpuError, MpuKind, MpuRegion, Perms};
pub use patch::{FlashPatch, PatchError, PatchKind};
pub use timing::{CoreKind, CoreTiming};
