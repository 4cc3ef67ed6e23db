//! Memory protection units: the classic 4 KB-granule model and the
//! re-engineered fine-grain model of §3.1.1 / Figure 2.
//!
//! The paper's argument is quantitative: with 4 KB minimum power-of-two
//! regions, many small OSEK tasks cannot be isolated individually, and the
//! RAM wasted by rounding regions up is substantial. [`MpuKind`] captures
//! both design points; [`Mpu::plan_region`] computes the (base, size)
//! actually programmable for a requested range, which the Figure-2
//! experiment uses to measure waste.

use std::fmt;

/// Access permissions of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub execute: bool,
}

impl Perms {
    /// Read-only data.
    pub const RO: Perms = Perms { read: true, write: false, execute: false };
    /// Read-write data.
    pub const RW: Perms = Perms { read: true, write: true, execute: false };
    /// Executable code.
    pub const RX: Perms = Perms { read: true, write: false, execute: true };
    /// Everything.
    pub const RWX: Perms = Perms { read: true, write: true, execute: true };
}

/// Which MPU generation to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpuKind {
    /// Classic MPU: power-of-two sizes with a 4 KB floor, base aligned to
    /// size, 8 regions — "typically too large for systems which have
    /// limited memory resource" (§3.1.1).
    Classic,
    /// The re-engineered fine-grain MPU: 32-byte granules, base aligned to
    /// 32 bytes, 16 regions.
    FineGrain,
}

impl MpuKind {
    /// Number of programmable regions.
    #[must_use]
    pub fn region_count(self) -> usize {
        match self {
            MpuKind::Classic => 8,
            MpuKind::FineGrain => 16,
        }
    }

    /// Minimum region size in bytes.
    #[must_use]
    pub fn min_size(self) -> u32 {
        match self {
            MpuKind::Classic => 4096,
            MpuKind::FineGrain => 32,
        }
    }
}

/// A programmed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpuRegion {
    /// Base address (aligned per the MPU kind).
    pub base: u32,
    /// Size in bytes.
    pub size: u32,
    /// Permissions granted inside the region.
    pub perms: Perms,
}

/// Error programming an MPU region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpuError {
    /// All region slots are in use.
    OutOfRegions,
    /// The base/size combination violates the MPU's alignment rules.
    BadGeometry {
        /// Requested base.
        base: u32,
        /// Requested size.
        size: u32,
    },
}

impl fmt::Display for MpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpuError::OutOfRegions => write!(f, "all MPU region slots in use"),
            MpuError::BadGeometry { base, size } => {
                write!(f, "region base {base:#x}/size {size:#x} violates alignment rules")
            }
        }
    }
}

impl std::error::Error for MpuError {}

/// A memory protection unit.
///
/// # Examples
///
/// ```
/// use alia_sim::{Mpu, MpuKind, Perms};
/// let mut mpu = Mpu::new(MpuKind::FineGrain);
/// mpu.background_allowed = false;
/// mpu.add_region(0x2000_0000, 256, Perms::RW)?;
/// assert!(mpu.check(0x2000_0010, false, true));  // read ok
/// assert!(!mpu.check(0x2000_0100, false, true)); // outside: denied
/// # Ok::<(), alia_sim::MpuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mpu {
    kind: MpuKind,
    regions: Vec<MpuRegion>,
    /// When `true`, accesses that match no region are allowed (background
    /// map); when `false` they fault.
    pub background_allowed: bool,
    violations: u64,
}

impl Mpu {
    /// Creates an MPU with no programmed regions and a permissive
    /// background map.
    #[must_use]
    pub fn new(kind: MpuKind) -> Mpu {
        Mpu { kind, regions: Vec::new(), background_allowed: true, violations: 0 }
    }

    /// The modelled generation.
    #[must_use]
    pub fn kind(&self) -> MpuKind {
        self.kind
    }

    /// Currently programmed regions.
    #[must_use]
    pub fn regions(&self) -> &[MpuRegion] {
        &self.regions
    }

    /// Violations recorded by [`Mpu::check`].
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Computes the smallest programmable `(base, size)` covering
    /// `[want_base, want_base + want_size)` under this MPU's rules.
    ///
    /// For the classic MPU the size is rounded up to a power of two of at
    /// least 4 KB and the base rounded *down* to that size's alignment —
    /// then the size is grown again until the whole range fits. For the
    /// fine-grain MPU base and size round to 32-byte granules.
    #[must_use]
    pub fn plan_region(&self, want_base: u32, want_size: u32) -> (u32, u32) {
        match self.kind {
            MpuKind::FineGrain => {
                let base = want_base & !31;
                let end = (want_base + want_size + 31) & !31;
                (base, end - base)
            }
            MpuKind::Classic => {
                let mut size = want_size.max(1).next_power_of_two().max(4096);
                loop {
                    let base = want_base & !(size - 1);
                    if base + size >= want_base + want_size {
                        return (base, size);
                    }
                    size *= 2;
                }
            }
        }
    }

    /// Programs a region to cover `[base, base+size)` (rounded per
    /// [`Mpu::plan_region`]).
    ///
    /// # Errors
    ///
    /// Returns [`MpuError::OutOfRegions`] when all slots are used.
    pub fn add_region(&mut self, base: u32, size: u32, perms: Perms) -> Result<MpuRegion, MpuError> {
        if self.regions.len() >= self.kind.region_count() {
            return Err(MpuError::OutOfRegions);
        }
        let (b, s) = self.plan_region(base, size);
        let region = MpuRegion { base: b, size: s, perms };
        self.regions.push(region);
        Ok(region)
    }

    /// Programs a region with exact geometry (no rounding).
    ///
    /// # Errors
    ///
    /// Returns [`MpuError::BadGeometry`] if base/size violate the kind's
    /// alignment rules, or [`MpuError::OutOfRegions`].
    pub fn add_region_exact(
        &mut self,
        base: u32,
        size: u32,
        perms: Perms,
    ) -> Result<(), MpuError> {
        if self.regions.len() >= self.kind.region_count() {
            return Err(MpuError::OutOfRegions);
        }
        let ok = match self.kind {
            MpuKind::Classic => {
                size.is_power_of_two() && size >= 4096 && base.is_multiple_of(size)
            }
            MpuKind::FineGrain => size >= 32 && size.is_multiple_of(32) && base.is_multiple_of(32),
        };
        if !ok {
            return Err(MpuError::BadGeometry { base, size });
        }
        self.regions.push(MpuRegion { base, size, perms });
        Ok(())
    }

    /// Clears all regions (context switch).
    pub fn clear(&mut self) {
        self.regions.clear();
    }

    /// Checks an access; records and returns `false` on violation.
    pub fn check(&mut self, addr: u32, write: bool, _privileged: bool) -> bool {
        let hit = self.regions.iter().rev().find(|r| {
            addr >= r.base && (addr - r.base) < r.size
        });
        let allowed = match hit {
            Some(r) => {
                if write {
                    r.perms.write
                } else {
                    r.perms.read
                }
            }
            None => self.background_allowed,
        };
        if !allowed {
            self.violations += 1;
        }
        allowed
    }

    /// Checks an instruction fetch.
    pub fn check_execute(&mut self, addr: u32) -> bool {
        let hit = self
            .regions
            .iter()
            .rev()
            .find(|r| addr >= r.base && (addr - r.base) < r.size);
        let allowed = hit.map_or(self.background_allowed, |r| r.perms.execute);
        if !allowed {
            self.violations += 1;
        }
        allowed
    }

    /// Whether [`Mpu::check_execute`] passes for every address in
    /// `[start, end)`, so that those checks may be skipped (a passing
    /// check records nothing). Conservative and side-effect free: a
    /// region that overlaps the range only in part answers `false`
    /// unless a higher-priority region covers the whole range first.
    #[must_use]
    pub fn executes(&self, start: u32, end: u32) -> bool {
        let (start, end) = (u64::from(start), u64::from(end));
        for r in self.regions.iter().rev() {
            let (base, top) = (u64::from(r.base), u64::from(r.base) + u64::from(r.size));
            if base <= start && end <= top {
                return r.perms.execute;
            }
            if start < top && base < end {
                return false;
            }
        }
        self.background_allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_rounds_to_4k_power_of_two() {
        let mpu = Mpu::new(MpuKind::Classic);
        // A 100-byte stack at an odd address costs a full 4 KB region.
        let (b, s) = mpu.plan_region(0x2000_1234, 100);
        assert_eq!(s, 4096);
        assert_eq!(b % 4096, 0);
        assert!(b <= 0x2000_1234 && b + s >= 0x2000_1234 + 100);
        // A 5 KB buffer costs 8 KB.
        let (_, s) = mpu.plan_region(0x2000_0000, 5 * 1024);
        assert_eq!(s, 8192);
    }

    #[test]
    fn classic_grows_when_alignment_straddles() {
        let mpu = Mpu::new(MpuKind::Classic);
        // Range straddling a 4 KB boundary forces a bigger region.
        let (b, s) = mpu.plan_region(0x2000_0F00, 512);
        assert!(b + s >= 0x2000_0F00 + 512);
        assert!(s >= 4096);
        assert!(s.is_power_of_two());
    }

    #[test]
    fn fine_grain_rounds_to_32b() {
        let mpu = Mpu::new(MpuKind::FineGrain);
        let (b, s) = mpu.plan_region(0x2000_1234, 100);
        assert_eq!(b, 0x2000_1220);
        assert_eq!(s % 32, 0);
        assert!(s <= 160, "waste should be under two granules, got {s}");
    }

    #[test]
    fn region_slots_are_limited() {
        let mut mpu = Mpu::new(MpuKind::Classic);
        for i in 0..8 {
            mpu.add_region(i * 0x10000, 4096, Perms::RW).unwrap();
        }
        assert!(matches!(
            mpu.add_region(0x9_0000, 4096, Perms::RW),
            Err(MpuError::OutOfRegions)
        ));
    }

    #[test]
    fn permission_checks_and_violation_count() {
        let mut mpu = Mpu::new(MpuKind::FineGrain);
        mpu.background_allowed = false;
        mpu.add_region(0x2000_0000, 64, Perms::RO).unwrap();
        mpu.add_region(0x2000_0040, 64, Perms::RW).unwrap();
        assert!(mpu.check(0x2000_0000, false, false));
        assert!(!mpu.check(0x2000_0000, true, false)); // RO write
        assert!(mpu.check(0x2000_0040, true, false));
        assert!(!mpu.check(0x3000_0000, false, false)); // no background
        assert_eq!(mpu.violations(), 2);
    }

    #[test]
    fn execute_permission() {
        let mut mpu = Mpu::new(MpuKind::FineGrain);
        mpu.background_allowed = false;
        mpu.add_region(0, 1024, Perms::RX).unwrap();
        mpu.add_region(0x2000_0000, 1024, Perms::RW).unwrap();
        assert!(mpu.check_execute(0x100));
        assert!(!mpu.check_execute(0x2000_0100)); // data is not executable
    }

    #[test]
    fn range_execute_check_is_exact_or_conservative() {
        let mut mpu = Mpu::new(MpuKind::FineGrain);
        mpu.add_region(0, 0x400, Perms::RX).unwrap();
        mpu.add_region(0x200, 0x40, Perms::RW).unwrap(); // no-execute carve-out
        mpu.add_region(0x300, 0x20, Perms::RX).unwrap(); // re-allowed inside RX
        // Every range that answers true passes every per-address check
        // and records nothing.
        for start in (0..0x500).step_by(0x10) {
            for len in [2, 0x10, 0x40, 0x100] {
                let end = start + len;
                if mpu.executes(start, end) {
                    let mut probe = mpu.clone();
                    assert!((start..end).all(|a| probe.check_execute(a)), "{start:#x}+{len:#x}");
                    assert_eq!(probe.violations(), 0);
                }
            }
        }
        assert!(mpu.executes(0x100, 0x140));
        assert!(mpu.executes(0x300, 0x320));
        assert!(!mpu.executes(0x210, 0x220)); // denied in full
        assert!(!mpu.executes(0x1f0, 0x210)); // straddles the carve-out
        assert!(!mpu.executes(0x2f0, 0x310)); // allowed throughout, but in part
        assert!(mpu.executes(0x600, 0x700)); // background allowed
        mpu.background_allowed = false;
        assert!(!mpu.executes(0x600, 0x700));
        assert!(!mpu.executes(0x3f0, 0x410));
        assert_eq!(mpu.violations(), 0, "the range check records nothing");
    }

    #[test]
    fn exact_geometry_validation() {
        let mut c = Mpu::new(MpuKind::Classic);
        assert!(c.add_region_exact(0x1000, 4096, Perms::RW).is_ok());
        assert!(c.add_region_exact(0x1000, 2048, Perms::RW).is_err()); // < 4 KB
        assert!(c.add_region_exact(0x800, 4096, Perms::RW).is_err()); // misaligned
        let mut f = Mpu::new(MpuKind::FineGrain);
        assert!(f.add_region_exact(0x20, 32, Perms::RW).is_ok());
        assert!(f.add_region_exact(0x10, 32, Perms::RW).is_err());
    }

    #[test]
    fn later_regions_take_precedence() {
        let mut mpu = Mpu::new(MpuKind::FineGrain);
        mpu.add_region(0x2000_0000, 1024, Perms::RO).unwrap();
        mpu.add_region(0x2000_0100, 32, Perms::RW).unwrap(); // carve-out
        assert!(mpu.check(0x2000_0100, true, false));
        assert!(!mpu.check(0x2000_0000, true, false));
    }
}
