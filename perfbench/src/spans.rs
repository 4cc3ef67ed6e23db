//! In-memory host-time spans recorded around each call into a layer.
//!
//! Every op gets its own [`Ctx`]. With tracing off a span is one branch
//! around the call; with tracing on it records name, start, end, parent
//! span and op id. Spans stay in memory until the run ends, when the
//! run loop merges them, computes each layer's self time (its span minus
//! the spans nested inside it) and writes them out.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Op id of spans recorded outside any op (set-up).
pub const NO_OP: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    /// Index of the enclosing span in the same list, or `NO_PARENT`.
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    /// Guest instructions retired inside the span (execution spans only).
    pub insts: u64,
}

/// Span recorder for one op.
#[derive(Debug)]
pub struct Ctx {
    on: bool,
    op: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Ctx {
    pub fn new(on: bool, op: u32) -> Ctx {
        Ctx {
            on,
            op,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start: now_ns(),
            end: 0,
            insts: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end = now_ns();
        out
    }

    /// Attributes `insts` retired guest instructions to the span that
    /// closed last.
    pub fn count_insts(&mut self, insts: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.insts = insts;
        }
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
    pub insts: u64,
}

/// All spans of a run, with parents re-indexed into one list.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Appends one op's spans.
    pub fn append(&mut self, spans: Vec<Span>) {
        let base = self.spans.len() as u32;
        self.spans.extend(spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time (span minus its children), total time, count and
    /// attributed instructions per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.self_ns += dur.saturating_sub(child);
            t.total_ns += dur;
            t.count += 1;
            t.insts += s.insts;
        }
        out
    }

    /// Total duration of the root spans (those with no parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes every span as one CSV line.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index,op,parent,name,start_ns,end_ns,insts")?;
        for (i, s) in self.spans.iter().enumerate() {
            let op = if s.op == NO_OP { -1 } else { i64::from(s.op) };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i},{op},{parent},{},{},{},{}",
                s.name, s.start, s.end, s.insts
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut ctx = Ctx::new(true, 3);
        ctx.span("op", |ctx| {
            ctx.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let mut log = SpanLog::default();
        log.append(ctx.spans);
        let layers = log.layers();
        let (op, inner) = (layers["op"], layers["inner"]);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(op.total_ns, op.self_ns + inner.total_ns);
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let mut ctx = Ctx::new(false, 0);
        let v = ctx.span("op", |ctx| ctx.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert!(ctx.spans.is_empty());
    }
}
