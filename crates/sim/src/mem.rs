//! The simulated memory system: flash, SRAM, TCM, bit-band alias and MMIO.
//!
//! Addresses follow a Cortex-M-like convention:
//!
//! | Region   | Base          | Notes                                      |
//! |----------|---------------|--------------------------------------------|
//! | Flash    | `0x0000_0000` | wait-stated, streaming prefetch buffer     |
//! | TCM      | `0x1000_0000` | single-cycle, optional ECC hold-and-repair |
//! | SRAM     | `0x2000_0000` | single-cycle                               |
//! | Bit-band | `0x2200_0000` | byte-per-bit alias of SRAM (paper §3.2.3)  |
//! | MMIO     | `0x4000_0000` | experiment instrumentation registers       |
//!
//! The flash model is the heart of the paper's §2.2 experiment: accesses
//! that continue the current stream cost [`FlashConfig::seq_cycles`], any
//! other access costs [`FlashConfig::nonseq_cycles`] *and* restarts the
//! stream — so a literal-pool data fetch in the middle of an instruction
//! stream is charged twice: once for itself and once by un-streaming the
//! next fetch.
//!
//! Flash, SRAM and the TCM (its RAM and its ECC shadow) store their bytes
//! in one sparse table of 4 KiB pages: a page is allocated, zeroed, on
//! its first write, and an absent page reads as zero. A machine holds
//! only the pages its image loads and guest stores touched
//! ([`crate::Machine::resident_pages`]), so building one allocates no
//! guest memory, and a machine's `clone()` and
//! [`crate::System::fork`] copy just those pages.

use std::collections::BTreeSet;
use std::fmt;

/// Page granularity of the guest-memory store (4 KiB).
const PAGE_SHIFT: u32 = 12;
/// Bytes per page.
const PAGE: usize = 1 << PAGE_SHIFT;

/// Sparse byte store behind every memory array (flash, SRAM, the TCM and
/// its ECC shadow): a table of 4 KiB pages.
///
/// A page is allocated, zeroed, on its first write; an absent page reads
/// as zero. A fresh store therefore holds no guest memory, the derived
/// `Clone` copies only the pages written so far, and drop just frees
/// them — so building, cloning and forking a machine cost what its
/// guest wrote, not the size of its address space.
///
/// Accesses take one table index: an access inside one page reads or
/// writes that page directly; one that straddles a page boundary goes
/// byte by byte. An access running past the end of the store panics
/// like slice indexing — the bus faults guest accesses before they get
/// here ([`crate::Bus::classify_access`]), so only host misuse can.
#[derive(Debug, Clone)]
struct Pages {
    table: Vec<Option<Box<[u8; PAGE]>>>,
    len: u32,
}

impl Pages {
    fn new(len: u32) -> Pages {
        Pages { table: vec![None; (len as usize).div_ceil(PAGE)], len }
    }

    /// Pages allocated so far.
    fn resident(&self) -> usize {
        self.table.iter().filter(|p| p.is_some()).count()
    }

    /// Checks that `off..off + len` lies inside the store and returns the
    /// offset of `off` within its page.
    #[inline]
    fn page_offset(&self, off: u32, len: u32) -> usize {
        assert!(
            u64::from(off) + u64::from(len) <= u64::from(self.len),
            "access of {len} bytes at {off:#x} runs past the end of a {:#x}-byte memory",
            self.len
        );
        off as usize & (PAGE - 1)
    }

    /// Little-endian read of `len` (at most 4) bytes at `off`.
    #[inline]
    fn read(&self, off: u32, len: u32) -> u32 {
        let o = self.page_offset(off, len);
        if o + len as usize > PAGE {
            return (0..len).rev().fold(0, |v, i| v << 8 | self.read(off + i, 1));
        }
        match &self.table[(off >> PAGE_SHIFT) as usize] {
            Some(page) => read_le(&page[o..], len),
            None => 0,
        }
    }

    /// Little-endian write of the low `len` (at most 4) bytes of `value`.
    #[inline]
    fn write(&mut self, off: u32, len: u32, value: u32) {
        let o = self.page_offset(off, len);
        if o + len as usize > PAGE {
            for i in 0..len {
                self.write(off + i, 1, value >> (8 * i));
            }
            return;
        }
        write_le(&mut self.page_mut(off)[o..], len, value);
    }

    /// Copies `image` in at byte offset `off`.
    fn load(&mut self, off: u32, image: &[u8]) {
        let end = u32::try_from(image.len()).ok().and_then(|n| off.checked_add(n));
        assert!(
            end.is_some_and(|end| end <= self.len),
            "image of {} bytes at {off:#x} does not fit a {:#x}-byte memory",
            image.len(),
            self.len
        );
        let (mut at, mut rest) = (off, image);
        while !rest.is_empty() {
            let o = at as usize & (PAGE - 1);
            let n = rest.len().min(PAGE - o);
            self.page_mut(at)[o..o + n].copy_from_slice(&rest[..n]);
            (at, rest) = (at + n as u32, &rest[n..]);
        }
    }

    /// The page holding `off`, allocated (zeroed) on first use.
    fn page_mut(&mut self, off: u32) -> &mut [u8; PAGE] {
        self.table[(off >> PAGE_SHIFT) as usize].get_or_insert_with(|| Box::new([0; PAGE]))
    }
}

/// Little-endian scalar read of `len` (at most 4) bytes at the start of
/// `bytes`.
#[inline]
fn read_le(bytes: &[u8], len: u32) -> u32 {
    match len {
        4 => u32::from_le_bytes(bytes[..4].try_into().expect("4-byte slice")),
        2 => u32::from(u16::from_le_bytes(bytes[..2].try_into().expect("2-byte slice"))),
        1 => u32::from(bytes[0]),
        _ => bytes[..len as usize].iter().rev().fold(0, |v, &b| v << 8 | u32::from(b)),
    }
}

/// Little-endian scalar write of the low `len` (at most 4) bytes of
/// `value` at the start of `bytes`.
#[inline]
fn write_le(bytes: &mut [u8], len: u32, value: u32) {
    match len {
        4 => bytes[..4].copy_from_slice(&value.to_le_bytes()),
        2 => bytes[..2].copy_from_slice(&(value as u16).to_le_bytes()),
        1 => bytes[0] = value as u8,
        _ => bytes[..len as usize].copy_from_slice(&value.to_le_bytes()[..len as usize]),
    }
}

/// Default flash base address.
pub const FLASH_BASE: u32 = 0x0000_0000;
/// Default TCM base address.
pub const TCM_BASE: u32 = 0x1000_0000;
/// Default SRAM base address.
pub const SRAM_BASE: u32 = 0x2000_0000;
/// Base of the bit-band alias region.
pub const BITBAND_BASE: u32 = 0x2200_0000;
/// Base of the instrumentation MMIO block.
pub const MMIO_BASE: u32 = 0x4000_0000;

/// Writing any value here halts the machine (used by bare-metal tests).
pub const MMIO_EXIT: u32 = MMIO_BASE;
/// Read: cycles executed so far (low 32 bits).
pub const MMIO_CYCLES: u32 = MMIO_BASE + 4;
/// Write: record a scalar observation (appended to a trace the host reads).
pub const MMIO_TRACE: u32 = MMIO_BASE + 8;
/// Write: assert the IRQ whose number is written.
pub const MMIO_IRQ_SET: u32 = MMIO_BASE + 12;

/// Why a memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// No device is mapped at the address.
    Unmapped {
        /// Faulting address.
        addr: u32,
    },
    /// The MPU rejected the access.
    MpuViolation {
        /// Faulting address.
        addr: u32,
        /// Whether the access was a write.
        write: bool,
    },
    /// A detected-but-uncorrectable error (parity hit on a D-cache line).
    ParityError {
        /// Faulting address.
        addr: u32,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { addr } => write!(f, "access to unmapped address {addr:#010x}"),
            MemFault::MpuViolation { addr, write } => write!(
                f,
                "mpu violation: {} at {addr:#010x}",
                if *write { "write" } else { "read" }
            ),
            MemFault::ParityError { addr } => write!(f, "parity error at {addr:#010x}"),
        }
    }
}

impl std::error::Error for MemFault {}

/// What kind of agent performs an access (affects flash streaming).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Instruction fetch.
    Fetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// Flash timing/behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashConfig {
    /// Size in bytes.
    pub size: u32,
    /// Cycles for an access that continues the current stream.
    pub seq_cycles: u32,
    /// Cycles for an access that breaks the stream.
    pub nonseq_cycles: u32,
    /// Physical interface width in bytes (2 or 4): a 4-byte access over a
    /// 2-byte interface costs two accesses.
    pub width: u32,
}

impl Default for FlashConfig {
    /// A 30–40 MHz-class embedded flash behind a prefetch buffer, per the
    /// paper's §2.2 description: streaming hides the wait states,
    /// non-sequential accesses pay them.
    fn default() -> FlashConfig {
        FlashConfig { size: 1 << 20, seq_cycles: 1, nonseq_cycles: 3, width: 4 }
    }
}

/// Counters exposed by the flash model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Accesses that continued the stream.
    pub sequential: u64,
    /// Accesses that broke the stream.
    pub non_sequential: u64,
    /// Data (non-fetch) accesses, e.g. literal-pool loads.
    pub data_accesses: u64,
}

/// Wait-stated flash with a streaming prefetch model.
#[derive(Debug, Clone)]
pub struct Flash {
    bytes: Pages,
    config: FlashConfig,
    stream_next: Option<u32>,
    stats: FlashStats,
    revision: u64,
}

impl Flash {
    /// Creates a flash of `config.size` zeroed bytes (no page resident).
    #[must_use]
    pub fn new(config: FlashConfig) -> Flash {
        Flash {
            bytes: Pages::new(config.size),
            config,
            stream_next: None,
            stats: FlashStats::default(),
            revision: 0,
        }
    }

    /// Content revision: bumped by every [`Flash::load`]. Consumers
    /// caching decoded views of flash (the machine's block cache)
    /// compare revisions to detect staleness.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Loads an image at byte offset `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit.
    pub fn load(&mut self, offset: u32, image: &[u8]) {
        self.bytes.load(offset, image);
        self.revision += 1;
    }

    /// 4 KiB pages written so far (see [`crate::Machine::resident_pages`]).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.bytes.resident()
    }

    /// The behaviour parameters.
    #[must_use]
    pub fn config(&self) -> FlashConfig {
        self.config
    }

    /// Streaming counters.
    #[must_use]
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    /// Performs an access of `len` bytes at byte offset `off`, returning
    /// `(value, cycles)`. The value is little-endian, zero-extended.
    pub fn access(&mut self, off: u32, len: u32, kind: Access) -> (u32, u32) {
        let cycles = self.access_timing(off, len, kind);
        (self.peek(off, len), cycles)
    }

    /// Timing-only access: advances the streaming state and counters
    /// exactly like [`Flash::access`] without extracting bytes. Used by
    /// the machine's fetch and data paths, which read the bytes through
    /// the flash-patch unit, and by cached blocks, which replay only
    /// the timing of instructions they already hold decoded.
    #[inline]
    pub fn access_timing(&mut self, off: u32, len: u32, kind: Access) -> u32 {
        // Avoid the division in the overwhelmingly common case of an
        // access no wider than the interface.
        let beats = if len <= self.config.width { 1 } else { len.div_ceil(self.config.width) };
        let mut cycles = 0;
        // First beat: sequential if it continues the stream.
        let seq = self.stream_next == Some(off);
        if seq {
            self.stats.sequential += 1;
            cycles += self.config.seq_cycles;
        } else {
            self.stats.non_sequential += 1;
            cycles += self.config.nonseq_cycles;
        }
        // Remaining beats stream.
        if beats > 1 {
            cycles += (beats - 1) * self.config.seq_cycles;
            self.stats.sequential += u64::from(beats - 1);
        }
        match kind {
            Access::Fetch => {
                // The stream follows the fetch pointer.
                self.stream_next = Some(off + len);
            }
            Access::Read | Access::Write => {
                // A data access (literal pool!) steals the flash interface
                // and invalidates the prefetch stream (paper §2.2).
                self.stats.data_accesses += 1;
                self.stream_next = None;
            }
        }
        cycles
    }

    /// Charges `beats` one-beat fetches that each continue the stream,
    /// the last at byte offset `last`: exactly what as many
    /// [`Flash::access_timing`] fetches of one interface width do when
    /// the caller has proved that each continues the stream (the block
    /// engine's `Seq` fetch plans). The caller charges the cycles,
    /// `seq_cycles` per beat.
    pub(crate) fn stream_beats(&mut self, beats: u64, last: u32) {
        let width = self.config.width;
        debug_assert!(width >= 2 && beats >= 1, "a streamed window is one beat");
        debug_assert_eq!(
            self.stream_next,
            Some(last + width - beats as u32 * width),
            "planned sequential fetch off the stream"
        );
        self.stats.sequential += beats;
        self.stream_next = Some(last + width);
    }

    /// Where the next fetch continues the stream (`None` after a data
    /// access or a stream break).
    pub(crate) fn stream_next(&self) -> Option<u32> {
        self.stream_next
    }

    /// Forces the next access to be non-sequential (a foreign bus
    /// transaction occurred on a unified bus).
    pub fn break_stream(&mut self) {
        self.stream_next = None;
    }

    /// Reads without affecting timing state.
    #[must_use]
    pub fn peek(&self, off: u32, len: u32) -> u32 {
        self.bytes.read(off, len)
    }
}

/// Single-cycle SRAM.
#[derive(Debug, Clone)]
pub struct Sram {
    bytes: Pages,
    /// Cycles per access.
    pub cycles: u32,
    revision: u64,
}

impl Sram {
    /// Creates `size` zeroed bytes of single-cycle RAM (no page
    /// resident).
    #[must_use]
    pub fn new(size: u32) -> Sram {
        Sram { bytes: Pages::new(size), cycles: 1, revision: 0 }
    }

    /// Loads an image at byte offset `off` (host-side bulk write; bumps
    /// [`Sram::revision`]).
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit.
    pub fn load(&mut self, off: u32, image: &[u8]) {
        self.bytes.load(off, image);
        self.revision += 1;
    }

    /// Host-side content revision: bumped by host writes ([`Sram::load`],
    /// [`Sram::write`]). Simulated stores are *not* counted here — the
    /// machine's block-cache watermark tracks them instead, keeping the
    /// store path cheap.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Size in bytes.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.bytes.len
    }

    /// Whether the RAM is empty (zero-sized).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.len == 0
    }

    /// 4 KiB pages written so far (see [`crate::Machine::resident_pages`]).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.bytes.resident()
    }

    /// Reads `len` bytes at offset `off` (little-endian).
    #[must_use]
    #[inline]
    pub fn read(&self, off: u32, len: u32) -> u32 {
        self.bytes.read(off, len)
    }

    /// Writes the low `len` bytes of `value` at offset `off`.
    ///
    /// This is the *host-side* entry point and conservatively counts as a
    /// content mutation (bumps [`Sram::revision`], invalidating any
    /// cached decoded view). The machine's own store path uses
    /// `Sram::write_raw` instead, guarded by its block-cache watermark.
    pub fn write(&mut self, off: u32, len: u32, value: u32) {
        self.revision += 1;
        self.write_raw(off, len, value);
    }

    /// Simulated-store write: no revision bump (the caller is responsible
    /// for code-coherence tracking — see `Machine::note_code_write`).
    pub(crate) fn write_raw(&mut self, off: u32, len: u32, value: u32) {
        self.bytes.write(off, len, value);
    }
}

/// Tightly-coupled memory with optional ECC "hold-and-repair" (§3.1.3).
///
/// A poisoned word is corrected in place the next time it is read: the
/// processor is stalled for [`Tcm::repair_cycles`] and execution continues
/// without an interrupt, exactly as the paper describes.
#[derive(Debug, Clone)]
pub struct Tcm {
    ram: Sram,
    /// Word offsets of poisoned words (soft errors are rare: usually
    /// empty).
    poisoned: BTreeSet<u32>,
    /// ECC-protected truth.
    shadow: Pages,
    /// Whether ECC protection is fitted.
    pub ecc: bool,
    /// Stall cycles for one hold-and-repair event.
    pub repair_cycles: u32,
    repairs: u64,
    revision: u64,
}

impl Tcm {
    /// Creates `size` bytes of TCM with ECC enabled.
    #[must_use]
    pub fn new(size: u32) -> Tcm {
        Tcm {
            ram: Sram::new(size),
            poisoned: BTreeSet::new(),
            shadow: Pages::new(size),
            ecc: true,
            repair_cycles: 4,
            repairs: 0,
            revision: 0,
        }
    }

    /// Number of hold-and-repair events so far.
    #[must_use]
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// 4 KiB pages written so far, RAM and ECC shadow together (see
    /// [`crate::Machine::resident_pages`]).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.ram.resident_pages() + self.shadow.resident()
    }

    /// Host-side content revision: bumped by out-of-band mutation
    /// ([`Tcm::load`], [`Tcm::write`], [`Tcm::inject_bit_flip`]).
    /// Simulated stores are tracked by the machine's block-cache
    /// watermark instead.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Flips bit `bit` of the word at offset `off`, marking it poisoned
    /// (a soft error).
    pub fn inject_bit_flip(&mut self, off: u32, bit: u32) {
        let word = self.ram.read(off & !3, 4) ^ (1 << (bit & 31));
        self.ram.write_raw(off & !3, 4, word);
        self.poisoned.insert(off & !3);
        self.revision += 1;
    }

    /// Whether the word containing `off` is currently poisoned.
    #[must_use]
    pub fn is_poisoned(&self, off: u32) -> bool {
        self.poisoned.contains(&(off & !3))
    }

    /// Reads with hold-and-repair; returns `(value, cycles)`.
    pub fn read(&mut self, off: u32, len: u32) -> (u32, u32) {
        let mut cycles = 1;
        let base = off & !3;
        if self.ecc && self.poisoned.remove(&base) {
            // Repair from the ECC shadow copy, stall, continue.
            self.ram.write_raw(base, 4, self.shadow.read(base, 4));
            self.repairs += 1;
            cycles += self.repair_cycles;
        }
        (self.ram.read(off, len), cycles)
    }

    /// Writes; keeps the ECC shadow in sync. Returns cycles.
    ///
    /// This is the *host-side* entry point and conservatively counts as a
    /// content mutation (bumps [`Tcm::revision`], invalidating any cached
    /// decoded view). The machine's own store path uses
    /// `Tcm::write_raw`, guarded by its block-cache watermark.
    pub fn write(&mut self, off: u32, len: u32, value: u32) -> u32 {
        self.revision += 1;
        self.write_raw(off, len, value)
    }

    /// Simulated-store write: no revision bump (the caller is responsible
    /// for code-coherence tracking — see `Machine::note_code_write`).
    pub(crate) fn write_raw(&mut self, off: u32, len: u32, value: u32) -> u32 {
        self.ram.write_raw(off, len, value);
        self.shadow.write(off, len, value);
        // A full-word write clears poison (the word is rewritten whole).
        if len == 4 {
            self.poisoned.remove(&(off & !3));
        }
        1
    }

    /// Loads an image and synchronizes the ECC shadow.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit.
    pub fn load(&mut self, off: u32, image: &[u8]) {
        self.ram.load(off, image);
        self.shadow.load(off, image);
        self.revision += 1;
    }
}

/// Instrumentation MMIO block — the bus device at [`MMIO_BASE`]
/// (attachment index 0 on every machine).
///
/// Register semantics are unchanged from the seed: writes to
/// [`MMIO_EXIT`] halt the machine, [`MMIO_TRACE`] appends a
/// `(value, cycle)` observation, [`MMIO_IRQ_SET`] pends an interrupt at
/// the next step boundary; reads of [`MMIO_CYCLES`] return the cycle
/// counter and [`crate::MMIO_IRQ_ACTIVE`] the IRQ being serviced. Exit
/// and IRQ requests travel through [`crate::BusSignals`] so the hot
/// loop polls them without dynamic dispatch.
#[derive(Debug, Clone, Default)]
pub struct Mmio {
    /// `(value, cycle)` pairs written to [`MMIO_TRACE`].
    pub trace: Vec<(u32, u64)>,
}

impl Mmio {
    /// Creates an empty MMIO block.
    #[must_use]
    pub fn new() -> Mmio {
        Mmio::default()
    }
}

impl crate::bus::Device for Mmio {
    fn read32(&self, off: u32, now: u64, active_irq: u32) -> u32 {
        match MMIO_BASE + off {
            MMIO_CYCLES => now as u32,
            crate::MMIO_IRQ_ACTIVE => active_irq,
            _ => 0,
        }
    }

    fn write32(&mut self, off: u32, value: u32, ctx: &mut crate::bus::DeviceCtx<'_>) {
        match MMIO_BASE + off {
            MMIO_EXIT => ctx.signals.request_exit(value),
            MMIO_TRACE => self.trace.push((value, ctx.now)),
            MMIO_IRQ_SET => ctx.signals.raise_irq(value),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_sequential_vs_nonsequential() {
        let mut f = Flash::new(FlashConfig { size: 4096, seq_cycles: 1, nonseq_cycles: 4, width: 4 });
        let (_, c0) = f.access(0, 4, Access::Fetch);
        assert_eq!(c0, 4); // cold
        let (_, c1) = f.access(4, 4, Access::Fetch);
        assert_eq!(c1, 1); // streaming
        let (_, c2) = f.access(64, 4, Access::Fetch);
        assert_eq!(c2, 4); // branch: stream broken
        assert_eq!(f.stats().sequential, 1);
        assert_eq!(f.stats().non_sequential, 2);
    }

    #[test]
    fn literal_pool_fetch_breaks_the_stream() {
        let mut f = Flash::new(FlashConfig::default());
        f.access(0, 4, Access::Fetch);
        f.access(4, 4, Access::Fetch);
        // Literal pool read from elsewhere in flash...
        let (_, c_data) = f.access(512, 4, Access::Read);
        assert_eq!(c_data, f.config().nonseq_cycles);
        // ...and the *next* fetch also pays the non-sequential cost.
        let (_, c_next) = f.access(8, 4, Access::Fetch);
        assert_eq!(c_next, f.config().nonseq_cycles);
        assert_eq!(f.stats().data_accesses, 1);
    }

    #[test]
    fn narrow_interface_doubles_beats() {
        let mut f = Flash::new(FlashConfig { size: 4096, seq_cycles: 1, nonseq_cycles: 3, width: 2 });
        // 4-byte fetch over a 16-bit interface: one non-seq + one seq beat.
        let (_, c) = f.access(0, 4, Access::Fetch);
        assert_eq!(c, 4);
        // 2-byte fetch: single beat.
        let (_, c) = f.access(4, 2, Access::Fetch);
        assert_eq!(c, 1);
    }

    #[test]
    fn flash_image_roundtrip() {
        let mut f = Flash::new(FlashConfig::default());
        f.load(16, &[0xAA, 0xBB, 0xCC, 0xDD]);
        assert_eq!(f.peek(16, 4), 0xDDCC_BBAA);
        assert_eq!(f.peek(18, 2), 0xDDCC);
    }

    #[test]
    fn sram_read_write() {
        let mut s = Sram::new(64);
        s.write(8, 4, 0x1122_3344);
        assert_eq!(s.read(8, 4), 0x1122_3344);
        assert_eq!(s.read(9, 1), 0x33);
        s.write(10, 2, 0xBEEF);
        assert_eq!(s.read(8, 4), 0xBEEF_3344);
    }

    #[test]
    fn tcm_hold_and_repair() {
        let mut t = Tcm::new(64);
        t.write(0, 4, 0xCAFE_F00D);
        t.inject_bit_flip(0, 7);
        assert!(t.is_poisoned(0));
        let (v, c) = t.read(0, 4);
        // Value is repaired, a stall was charged, no interrupt needed.
        assert_eq!(v, 0xCAFE_F00D);
        assert_eq!(c, 1 + t.repair_cycles);
        assert_eq!(t.repairs(), 1);
        // Subsequent read is clean and fast.
        let (v, c) = t.read(0, 4);
        assert_eq!(v, 0xCAFE_F00D);
        assert_eq!(c, 1);
    }

    #[test]
    fn tcm_without_ecc_returns_corrupt_data() {
        let mut t = Tcm::new(64);
        t.ecc = false;
        t.write(0, 4, 0xFFFF_FFFF);
        t.inject_bit_flip(0, 0);
        let (v, _) = t.read(0, 4);
        assert_eq!(v, 0xFFFF_FFFE);
        assert_eq!(t.repairs(), 0);
    }

    #[test]
    fn mmio_registers() {
        use crate::bus::{BusSignals, Device, DeviceCtx};
        let mut m = Mmio::new();
        let mut signals = BusSignals::default();
        let mut ctx = DeviceCtx { now: 9, signals: &mut signals };
        m.write32(MMIO_TRACE - MMIO_BASE, 42, &mut ctx);
        m.write32(MMIO_IRQ_SET - MMIO_BASE, 3, &mut ctx);
        m.write32(MMIO_EXIT - MMIO_BASE, 7, &mut ctx);
        assert_eq!(m.trace, vec![(42, 9)]);
        assert_eq!(m.read32(crate::MMIO_IRQ_ACTIVE - MMIO_BASE, 9, 2), 2);
        assert_eq!(m.read32(MMIO_CYCLES - MMIO_BASE, 1234, 0), 1234);
        assert_eq!(signals.irq_requests, vec![3]);
        assert_eq!(signals.exit_code, Some(7));
    }
}
