//! Set-associative caches with parity-based soft-error detection.
//!
//! The high-end core of the paper (§3.1.3) fits fault-tolerant RAM to its
//! caches: an instruction-cache parity hit invalidates the line and
//! refetches; a data-cache parity hit raises a precise abort so software
//! can recover. Our caches are write-through with no write-allocate, which
//! makes "recover" equal to "invalidate and refetch" — the recovery path
//! the experiment measures.

/// Configuration of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Associativity (ways).
    pub ways: u32,
    /// Cycles charged on a miss before the line starts filling.
    pub miss_penalty: u32,
    /// Whether parity detection is fitted.
    pub parity: bool,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { size: 4096, line: 32, ways: 4, miss_penalty: 10, parity: true }
    }
}

/// Counters exposed by a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Parity errors detected.
    pub parity_errors: u64,
    /// Lines invalidated for error recovery.
    pub error_invalidations: u64,
}

#[derive(Debug, Clone)]
struct Line {
    valid: bool,
    tag: u32,
    lru: u64,
    poisoned: bool,
    tag_poisoned: bool,
}

/// What a cache lookup produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Hit; no extra memory traffic.
    Hit,
    /// Miss; the line was (re)filled.
    Miss,
    /// Parity error detected on the data RAM of a hit line; the line was
    /// invalidated. The caller refetches (I-cache) or recovers (D-cache).
    DataError,
    /// Parity error detected on the TAG RAM; per the paper this simply
    /// becomes a miss.
    TagError,
}

/// A set-associative, write-through cache model.
///
/// The cache stores no data (the backing store is always consulted for
/// values); it models *timing* and *error state*, which is all the
/// experiments need.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Every line, set by set: set `s` is `lines[s * ways..][..ways]`.
    lines: Vec<Line>,
    /// `log2(line size)`: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(set count)`: a line number's set is its low `set_shift`
    /// bits, its tag the rest.
    set_shift: u32,
    tick: u64,
    /// Index in `lines` of the line the last access hit or filled.
    last: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `line * ways`), or if the line size or the set count is not a
    /// power of two (set and tag are a shift and a mask of the address).
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        let n_lines = config.size / config.line;
        assert!(n_lines.is_multiple_of(config.ways), "bad cache geometry");
        let n_sets = n_lines / config.ways;
        assert!(
            config.line.is_power_of_two() && n_sets.is_power_of_two(),
            "cache line size and set count must be powers of two"
        );
        let line = Line { valid: false, tag: 0, lru: 0, poisoned: false, tag_poisoned: false };
        Cache {
            config,
            lines: vec![line; n_lines as usize],
            line_shift: config.line.trailing_zeros(),
            set_shift: n_sets.trailing_zeros(),
            tick: 0,
            last: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of valid lines (for tests and occupancy reporting).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// `log2(line size)`: two addresses share a line iff they agree
    /// above this many bits.
    #[must_use]
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// The ways of the set `addr` maps to, and the address's tag.
    fn set_and_tag(&self, addr: u32) -> (std::ops::Range<usize>, u32) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & ((1 << self.set_shift) - 1)) as usize;
        let ways = self.config.ways as usize;
        (set * ways..(set + 1) * ways, line_addr >> self.set_shift)
    }

    /// Looks up `addr`, updating LRU/miss state, returning the outcome and
    /// the cycles charged.
    pub fn access(&mut self, addr: u32) -> (Lookup, u32) {
        self.tick += 1;
        let parity = self.config.parity;
        let (set, tag) = self.set_and_tag(addr);
        let base = set.start;
        let lines = &mut self.lines[set];
        if let Some(way) = lines.iter().position(|l| l.valid && l.tag == tag) {
            let l = &mut lines[way];
            if parity && l.tag_poisoned {
                // TAG RAM error: treated as a miss (paper §3.1.3).
                l.valid = false;
                self.stats.parity_errors += 1;
                self.stats.error_invalidations += 1;
                // fall through to refill below
            } else if parity && l.poisoned {
                // Data RAM error: invalidate; caller decides recovery.
                l.valid = false;
                l.poisoned = false;
                self.stats.parity_errors += 1;
                self.stats.error_invalidations += 1;
                return (Lookup::DataError, 1);
            } else {
                l.lru = self.tick;
                self.stats.hits += 1;
                self.last = base + way;
                return (Lookup::Hit, 1);
            }
        }
        // Miss (or tag-error-as-miss): fill.
        let was_tag_error =
            parity && lines.iter().any(|l| !l.valid && l.tag == tag && l.tag_poisoned);
        self.stats.misses += 1;
        let tick = self.tick;
        let (way, victim) = lines
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .expect("cache has at least one way");
        self.last = base + way;
        victim.valid = true;
        victim.tag = tag;
        victim.lru = tick;
        victim.poisoned = false;
        victim.tag_poisoned = false;
        let fill = self.config.miss_penalty + self.config.line / 4;
        (if was_tag_error { Lookup::TagError } else { Lookup::Miss }, 1 + fill)
    }

    /// Charges `n` hits on the line the last access hit or filled,
    /// exactly as `n` successive [`Cache::access`] calls inside that
    /// line would: the tick advances by `n`, the line's LRU stamp
    /// becomes the final tick. The block engine's fetch plans use it
    /// for the fetches it proves stay on the line of the fetch before.
    pub(crate) fn hit_last(&mut self, addr: u32, n: u64) {
        debug_assert!(
            {
                let (set, tag) = self.set_and_tag(addr);
                let l = &self.lines[self.last];
                let clean = !self.config.parity || !l.poisoned && !l.tag_poisoned;
                set.contains(&self.last) && l.valid && l.tag == tag && clean
            },
            "line hit planned at {addr:#x}, off the last line"
        );
        self.tick += n;
        self.lines[self.last].lru = self.tick;
        self.stats.hits += n;
    }

    /// Whether `addr` currently hits (no state change).
    #[must_use]
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.lines[set].iter().any(|l| l.valid && l.tag == tag && !l.poisoned && !l.tag_poisoned)
    }

    /// Marks the line holding `addr` (if any) as having a data-RAM soft
    /// error. Returns whether a valid line was poisoned.
    pub fn inject_data_error(&mut self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        for l in &mut self.lines[set] {
            if l.valid && l.tag == tag {
                l.poisoned = true;
                return true;
            }
        }
        false
    }

    /// Marks the line holding `addr` (if any) as having a TAG-RAM soft
    /// error. Returns whether a valid line was poisoned.
    pub fn inject_tag_error(&mut self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        for l in &mut self.lines[set] {
            if l.valid && l.tag == tag {
                l.tag_poisoned = true;
                return true;
            }
        }
        false
    }

    /// Poisons the `n`-th valid line (deterministic campaign helper).
    /// Returns the line's reconstructed base address, if any.
    pub fn inject_error_in_nth_valid_line(&mut self, n: usize, tag_ram: bool) -> Option<u32> {
        let ways = self.config.ways as usize;
        let (idx, l) = self
            .lines
            .iter_mut()
            .enumerate()
            .filter(|(_, l)| l.valid)
            .nth(n)?;
        if tag_ram {
            l.tag_poisoned = true;
        } else {
            l.poisoned = true;
        }
        let line_addr = l.tag << self.set_shift | (idx / ways) as u32;
        Some(line_addr << self.line_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig { size: 256, line: 32, ways: 2, miss_penalty: 10, parity: true })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let (r, cy) = c.access(0x100);
        assert_eq!(r, Lookup::Miss);
        assert_eq!(cy, 1 + 10 + 8);
        let (r, cy) = c.access(0x104);
        assert_eq!(r, Lookup::Hit);
        assert_eq!(cy, 1);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small(); // 4 sets, 2 ways
        // Three lines mapping to the same set (set stride = 4 sets * 32B = 128B).
        c.access(0x000);
        c.access(0x080);
        c.access(0x000); // refresh LRU of line 0
        c.access(0x100); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn data_parity_error_invalidates_and_reports() {
        let mut c = small();
        c.access(0x40);
        assert!(c.inject_data_error(0x40));
        let (r, _) = c.access(0x44);
        assert_eq!(r, Lookup::DataError);
        assert!(!c.probe(0x40));
        // Next access refills cleanly.
        let (r, _) = c.access(0x40);
        assert_eq!(r, Lookup::Miss);
        let (r, _) = c.access(0x40);
        assert_eq!(r, Lookup::Hit);
        assert_eq!(c.stats().parity_errors, 1);
    }

    #[test]
    fn tag_parity_error_becomes_miss() {
        let mut c = small();
        c.access(0x40);
        assert!(c.inject_tag_error(0x40));
        let (r, _) = c.access(0x40);
        assert_eq!(r, Lookup::TagError);
        assert_eq!(c.stats().parity_errors, 1);
        let (r, _) = c.access(0x40);
        assert_eq!(r, Lookup::Hit);
    }

    #[test]
    fn parity_disabled_returns_silent_corruption() {
        let mut c = Cache::new(CacheConfig { parity: false, ..CacheConfig::default() });
        c.access(0x40);
        c.inject_data_error(0x40);
        // Without parity the poisoned line *hits* silently.
        let (r, _) = c.access(0x40);
        assert_eq!(r, Lookup::Hit);
        assert_eq!(c.stats().parity_errors, 0);
    }

    #[test]
    fn injection_misses_when_line_absent() {
        let mut c = small();
        assert!(!c.inject_data_error(0xF00));
        assert!(!c.inject_tag_error(0xF00));
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_set_count_is_rejected() {
        // 3 sets of 4 ways: the set index would need a division.
        let _ = Cache::new(CacheConfig { size: 384, ..CacheConfig::default() });
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_line_size_is_rejected() {
        let _ = Cache::new(CacheConfig { size: 384, line: 48, ..CacheConfig::default() });
    }

    #[test]
    fn nth_valid_line_targeting() {
        let mut c = small();
        // Three lines in three distinct sets (set stride is 32 bytes).
        c.access(0x000);
        c.access(0x020);
        c.access(0x040);
        let addr = c.inject_error_in_nth_valid_line(1, false);
        assert!(addr.is_some());
        assert_eq!(c.valid_lines(), 3);
        // Exactly one of the three addresses now reports an error.
        let mut errors = 0;
        for a in [0x000u32, 0x020, 0x040] {
            if matches!(c.access(a).0, Lookup::DataError) {
                errors += 1;
            }
        }
        assert_eq!(errors, 1);
    }
}
