//! Interrupt controllers: the paper's two design points.
//!
//! * [`IrqStyle::SoftwarePreamble`] — the classic scheme (§3.2.1): the
//!   core vectors to a handler which must save and restore context in
//!   software (`push`/`pop` instructions in the handler body), and
//!   back-to-back interrupts pay a full exit + entry.
//! * [`IrqStyle::HardwareStacking`] — the Cortex-M3-like scheme: the core
//!   stacks `r0-r3, r12, lr, pc, psr` in hardware while fetching the
//!   vector in parallel, and a pending interrupt at exit is *tail-chained*
//!   without restoring/re-saving context (Figure 4).

/// Interrupt handling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrqStyle {
    /// Software preamble/postamble; single shared vector per style of
    /// classic ARM7 cores.
    SoftwarePreamble,
    /// Hardware stacking with tail-chaining, per-interrupt vectors.
    HardwareStacking,
}

/// Timing parameters of the interrupt path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrqTiming {
    /// Hardware cycles on entry, before the first handler instruction
    /// (stacking + vector fetch + refill for the hardware scheme; flush +
    /// vector fetch for the software scheme).
    pub entry: u32,
    /// Hardware cycles on exit.
    pub exit: u32,
    /// Cycles for a tail-chained entry (hardware scheme only).
    pub tail_chain: u32,
}

impl IrqTiming {
    /// Cortex-M3-like numbers: 12-cycle entry/exit, 6-cycle tail-chain.
    #[must_use]
    pub fn hardware_default() -> IrqTiming {
        IrqTiming { entry: 12, exit: 12, tail_chain: 6 }
    }

    /// Classic-core numbers: pipeline refill on exception entry (3) plus
    /// the branch executed from the vector slot (3) and one more refill
    /// reaching the handler — the vector holds an *instruction*, not a
    /// pointer, on ARM7-class cores. The dominant cost (the software
    /// preamble) is executed by the handler itself.
    #[must_use]
    pub fn software_default() -> IrqTiming {
        IrqTiming { entry: 7, exit: 3, tail_chain: 0 }
    }
}

/// Per-interrupt configuration and pending state.
#[derive(Debug, Clone)]
pub struct IrqController {
    style: IrqStyle,
    timing: IrqTiming,
    pending: Vec<bool>,
    pending_count: usize,
    priority: Vec<u8>,
    enabled: Vec<bool>,
    /// IRQ number treated as non-maskable (the paper's NMI-on-FIQ for
    /// watchdogs, §3.1.2), if any.
    pub nmi: Option<u32>,
    /// Count of interrupts taken.
    pub taken: u64,
    /// Count of tail-chained entries.
    pub tail_chained: u64,
}

impl IrqController {
    /// Creates a controller with `lines` interrupt lines, all enabled at
    /// priority 128.
    #[must_use]
    pub fn new(style: IrqStyle, lines: usize) -> IrqController {
        let timing = match style {
            IrqStyle::SoftwarePreamble => IrqTiming::software_default(),
            IrqStyle::HardwareStacking => IrqTiming::hardware_default(),
        };
        IrqController {
            style,
            timing,
            pending: vec![false; lines],
            pending_count: 0,
            priority: vec![128; lines],
            enabled: vec![true; lines],
            nmi: None,
            taken: 0,
            tail_chained: 0,
        }
    }

    /// The scheme in use.
    #[must_use]
    pub fn style(&self) -> IrqStyle {
        self.style
    }

    /// The timing parameters.
    #[must_use]
    pub fn timing(&self) -> IrqTiming {
        self.timing
    }

    /// Number of interrupt lines.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.pending.len()
    }

    /// Sets a line's priority (lower value = more urgent).
    ///
    /// # Panics
    ///
    /// Panics on an unknown line.
    pub fn set_priority(&mut self, irq: u32, priority: u8) {
        self.priority[irq as usize] = priority;
    }

    /// Enables or disables a line.
    ///
    /// # Panics
    ///
    /// Panics on an unknown line.
    pub fn set_enabled(&mut self, irq: u32, enabled: bool) {
        self.enabled[irq as usize] = enabled;
    }

    /// Asserts (pends) an interrupt.
    ///
    /// # Panics
    ///
    /// Panics on an unknown line.
    pub fn pend(&mut self, irq: u32) {
        if !self.pending[irq as usize] {
            self.pending[irq as usize] = true;
            self.pending_count += 1;
        }
    }

    /// Whether a given line is pending.
    #[must_use]
    pub fn is_pending(&self, irq: u32) -> bool {
        self.pending.get(irq as usize).copied().unwrap_or(false)
    }

    /// Whether *any* line is pending, eligible or not — one load. The
    /// machine's block engine polls this after every instruction: a
    /// pending line (even masked or held off by `handler_depth`) sends
    /// execution back to the per-step path, which owns interrupt entry
    /// and samples eligibility in full. That keeps block-boundary IRQ
    /// sampling bit-identical to per-step sampling without replicating
    /// the priority/NMI/mask logic in the hot loop.
    #[must_use]
    #[inline]
    pub fn any_pending(&self) -> bool {
        self.pending_count != 0
    }

    /// Whether any eligible interrupt is pending. `masked` is the core's
    /// global interrupt-disable (PRIMASK / `cpsid`); the NMI line ignores
    /// it.
    #[must_use]
    pub fn highest_pending(&self, masked: bool) -> Option<u32> {
        // Fast path for the common steady state: nothing pending at all.
        if self.pending_count == 0 {
            return None;
        }
        let mut best: Option<u32> = None;
        for (i, (&p, &e)) in self.pending.iter().zip(&self.enabled).enumerate() {
            if !p || !e {
                continue;
            }
            let is_nmi = self.nmi == Some(i as u32);
            if masked && !is_nmi {
                continue;
            }
            // NMI always wins; otherwise lowest priority value, then lowest
            // line number.
            best = match best {
                None => Some(i as u32),
                Some(b) => {
                    let b_nmi = self.nmi == Some(b);
                    if is_nmi && !b_nmi {
                        Some(i as u32)
                    } else if !is_nmi && b_nmi {
                        Some(b)
                    } else if self.priority[i] < self.priority[b as usize] {
                        Some(i as u32)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }

    /// Acknowledges (takes) an interrupt: clears pending, counts it.
    ///
    /// # Panics
    ///
    /// Panics on an unknown line.
    pub fn acknowledge(&mut self, irq: u32) {
        if self.pending[irq as usize] {
            self.pending[irq as usize] = false;
            self.pending_count -= 1;
        }
        self.taken += 1;
    }

    /// Records a tail-chained entry.
    pub fn note_tail_chain(&mut self) {
        self.tail_chained += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_selection() {
        let mut c = IrqController::new(IrqStyle::HardwareStacking, 8);
        c.pend(3);
        c.pend(5);
        c.set_priority(5, 10);
        c.set_priority(3, 20);
        assert_eq!(c.highest_pending(false), Some(5));
        c.acknowledge(5);
        assert_eq!(c.highest_pending(false), Some(3));
    }

    #[test]
    fn masking_blocks_all_but_nmi() {
        let mut c = IrqController::new(IrqStyle::HardwareStacking, 8);
        c.pend(2);
        assert_eq!(c.highest_pending(true), None);
        c.nmi = Some(7);
        c.pend(7);
        assert_eq!(c.highest_pending(true), Some(7));
        // NMI beats everything even unmasked.
        c.set_priority(2, 0);
        assert_eq!(c.highest_pending(false), Some(7));
    }

    #[test]
    fn disabled_lines_do_not_fire() {
        let mut c = IrqController::new(IrqStyle::SoftwarePreamble, 4);
        c.pend(1);
        c.set_enabled(1, false);
        assert_eq!(c.highest_pending(false), None);
        c.set_enabled(1, true);
        assert_eq!(c.highest_pending(false), Some(1));
    }

    #[test]
    fn default_timings_differ_by_style() {
        let hw = IrqController::new(IrqStyle::HardwareStacking, 1);
        let sw = IrqController::new(IrqStyle::SoftwarePreamble, 1);
        assert!(hw.timing().entry > sw.timing().entry);
        assert_eq!(sw.timing().tail_chain, 0);
    }

    #[test]
    fn tie_breaks_by_line_number() {
        let mut c = IrqController::new(IrqStyle::HardwareStacking, 4);
        c.pend(2);
        c.pend(1);
        assert_eq!(c.highest_pending(false), Some(1));
    }
}
