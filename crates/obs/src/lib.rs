//! # alia-obs — cycle-stamped tracing and metrics
//!
//! The observability spine of the workspace: a zero-cost-when-disabled
//! structured event tracer plus a named metrics registry, with
//! exporters for Chrome trace-event JSON (Perfetto-loadable) and VCD
//! waveforms.
//!
//! The crate is dependency-free and knows nothing about the simulator:
//! producers (`alia-sim`, `alia-rtos`, `alia-core`) record
//! [`TraceEvent`]s into per-component [`Tracer`]s and publish counters
//! into a [`metrics::Registry`]; collectors assemble the per-component
//! streams into a [`TraceSet`] whose ordering is deterministic by
//! construction (streams are keyed by topology position, never by
//! host-thread interleaving), which is what makes the FNV stream hash
//! a differential-testing oracle across quantum sizes and node
//! orderings.
//!
//! ```
//! use alia_obs::{Tracer, EventKind, category, TraceSet};
//!
//! let mut t = Tracer::new(category::ALL);
//! t.record(100, EventKind::IrqPend { irq: 3 });
//! t.record(120, EventKind::IrqTake { irq: 3, tail_chained: false });
//!
//! let mut set = TraceSet::new();
//! set.push_stream("node0", t.events().to_vec());
//! assert_eq!(set.total_events(), 2);
//! let h = set.fnv_hash(category::SEMANTIC);
//! assert_ne!(h, 0);
//! let json = alia_obs::chrome::export(&set);
//! assert!(json.contains("IrqTake"));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod trace;
pub mod vcd;

pub use trace::{
    category, DropReason, EventKind, Fnv, RtosEventKind, TraceEvent, TraceSet, TraceStream,
    Tracer,
};
