//! The flash patch and breakpoint unit (§3.2.2).
//!
//! Up to eight words of flash can be remapped on the fly — to new values
//! (calibration constants, code patches) or to breakpoints — without
//! reprogramming the flash array. The unit sits on the fetch and data-read
//! paths of the flash.

/// What a patch slot does when its address is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchKind {
    /// Substitute this word for the flash contents.
    Remap(u32),
    /// Treat a fetch from this word as a breakpoint.
    Breakpoint,
}

/// The flash patch unit: at most [`FlashPatch::SLOTS`] word-granular
/// entries.
///
/// # Examples
///
/// ```
/// use alia_sim::{FlashPatch, PatchKind};
/// let mut fp = FlashPatch::new();
/// fp.set(0, 0x100, PatchKind::Remap(0xCAFE_F00D))?;
/// assert_eq!(fp.lookup(0x100), Some(PatchKind::Remap(0xCAFE_F00D)));
/// assert_eq!(fp.lookup(0x104), None);
/// # Ok::<(), alia_sim::PatchError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlashPatch {
    entries: [Option<(u32, PatchKind)>; FlashPatch::SLOTS],
    /// Count of fetches/reads that were patched.
    pub hits: u64,
    active: u32,
    revision: u64,
}

/// Errors programming the patch unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchError {
    /// Slot index out of range.
    BadSlot {
        /// The offending slot.
        slot: usize,
    },
    /// Patch addresses must be word-aligned.
    Misaligned {
        /// The offending address.
        addr: u32,
    },
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::BadSlot { slot } => write!(f, "patch slot {slot} out of range"),
            PatchError::Misaligned { addr } => write!(f, "patch address {addr:#x} not word-aligned"),
        }
    }
}

impl std::error::Error for PatchError {}

impl FlashPatch {
    /// Number of remappable words, per the paper.
    pub const SLOTS: usize = 8;

    /// An empty unit.
    #[must_use]
    pub fn new() -> FlashPatch {
        FlashPatch::default()
    }

    /// Programming revision: bumped by every [`FlashPatch::set`] /
    /// [`FlashPatch::clear`]. Consumers caching patched views of flash
    /// (the machine's block cache) compare revisions to detect
    /// staleness.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Whether no slot is programmed (fast-path check on fetch/read).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    /// Programs slot `slot` to patch the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError`] for a bad slot or unaligned address.
    pub fn set(&mut self, slot: usize, addr: u32, kind: PatchKind) -> Result<(), PatchError> {
        if slot >= FlashPatch::SLOTS {
            return Err(PatchError::BadSlot { slot });
        }
        if !addr.is_multiple_of(4) {
            return Err(PatchError::Misaligned { addr });
        }
        if self.entries[slot].is_none() {
            self.active += 1;
        }
        self.entries[slot] = Some((addr, kind));
        self.revision += 1;
        Ok(())
    }

    /// Clears a slot.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::BadSlot`] for an out-of-range slot.
    pub fn clear(&mut self, slot: usize) -> Result<(), PatchError> {
        if slot >= FlashPatch::SLOTS {
            return Err(PatchError::BadSlot { slot });
        }
        if self.entries[slot].is_some() {
            self.active -= 1;
        }
        self.entries[slot] = None;
        self.revision += 1;
        Ok(())
    }

    /// Looks up the patch covering the word containing `addr`, if any
    /// (does not count a hit).
    #[must_use]
    pub fn lookup(&self, addr: u32) -> Option<PatchKind> {
        let word = addr & !3;
        self.entries.iter().flatten().find(|(a, _)| *a == word).map(|(_, k)| *k)
    }

    /// Applies patching to a value read from flash at `addr` (`len` 2 or
    /// 4): substitutes remapped bytes and reports breakpoints.
    ///
    /// Returns `(value, is_breakpoint)`.
    pub fn apply(&mut self, addr: u32, len: u32, raw: u32) -> (u32, bool) {
        if self.active == 0 {
            return (raw, false);
        }
        match self.lookup(addr) {
            None => (raw, false),
            Some(PatchKind::Breakpoint) => {
                self.hits += 1;
                (raw, true)
            }
            Some(PatchKind::Remap(v)) => {
                self.hits += 1;
                let byte_in_word = addr & 3;
                let shifted = v >> (8 * byte_in_word);
                let masked = match len {
                    1 => shifted & 0xFF,
                    2 => shifted & 0xFFFF,
                    _ => v,
                };
                (masked, false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remap_substitutes_words_and_halfwords() {
        let mut fp = FlashPatch::new();
        fp.set(0, 0x40, PatchKind::Remap(0xAABB_CCDD)).unwrap();
        assert_eq!(fp.apply(0x40, 4, 0).0, 0xAABB_CCDD);
        assert_eq!(fp.apply(0x40, 2, 0).0, 0xCCDD);
        assert_eq!(fp.apply(0x42, 2, 0).0, 0xAABB);
        assert_eq!(fp.apply(0x44, 4, 0x1234).0, 0x1234);
        assert_eq!(fp.hits, 3);
    }

    #[test]
    fn breakpoints_report() {
        let mut fp = FlashPatch::new();
        fp.set(3, 0x80, PatchKind::Breakpoint).unwrap();
        let (_, bp) = fp.apply(0x80, 2, 0xBF00);
        assert!(bp);
        let (_, bp) = fp.apply(0x84, 2, 0xBF00);
        assert!(!bp);
    }

    #[test]
    fn slot_limits_enforced() {
        let mut fp = FlashPatch::new();
        for s in 0..FlashPatch::SLOTS {
            fp.set(s, (s as u32) * 4, PatchKind::Breakpoint).unwrap();
        }
        assert!(fp.set(8, 0, PatchKind::Breakpoint).is_err());
        assert!(fp.set(0, 2, PatchKind::Breakpoint).is_err()); // unaligned
        fp.clear(0).unwrap();
        assert_eq!(fp.lookup(0), None);
    }
}
