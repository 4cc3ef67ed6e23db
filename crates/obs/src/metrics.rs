//! Named metrics: counters, gauges and histograms with deterministic,
//! key-ordered snapshots.
//!
//! Producers publish into a [`Registry`] under dotted names
//! (`node.gw1.dma.forwarded`); consumers take a [`Snapshot`] — a
//! key-sorted list — and [`Snapshot::merge`] folds snapshots from
//! `run_campaign` workers into one digest (counters and histograms
//! add, gauges keep the maximum). Merging is associative and
//! commutative, so the fold is worker-count-independent.

use std::collections::BTreeMap;
use std::fmt;

/// Power-of-two bucket count: bucket `i` holds values whose bit length
/// is `i` (value 0 in bucket 0, 1 in bucket 1, 2..3 in bucket 2, ...).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Sample count.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Minimum sample (`u64::MAX` when empty).
    pub min: u64,
    /// Maximum sample.
    pub max: u64,
    /// Per-bit-length bucket counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }

    /// Mean sample value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }
}

/// One snapshotted metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter (merges by addition).
    Counter(u64),
    /// Point-in-time value (merges by maximum).
    Gauge(f64),
    /// Sample distribution (merges by pooling). Boxed: the bucket
    /// array would otherwise dominate every entry's size.
    Histogram(Box<Histogram>),
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Counter(v) => write!(f, "{v}"),
            MetricValue::Gauge(v) => write!(f, "{v}"),
            MetricValue::Histogram(h) => {
                write!(f, "n={} mean={:.1} min={} max={}", h.count, h.mean(), h.min, h.max)
            }
        }
    }
}

/// A live metrics registry. Names are dotted paths; each name holds
/// exactly one metric kind (re-registering with a different kind
/// panics — that is a producer bug, not an input condition).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: BTreeMap<String, MetricValue>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `name` (created at zero).
    ///
    /// # Panics
    /// If `name` already holds a non-counter metric.
    pub fn counter(&mut self, name: &str, v: u64) {
        match self.slot(name, || MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += v,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Sets the gauge `name` to `v`.
    ///
    /// # Panics
    /// If `name` already holds a non-gauge metric.
    pub fn gauge(&mut self, name: &str, v: f64) {
        match self.slot(name, || MetricValue::Gauge(v)) {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// Records one sample into the histogram `name` (created empty).
    ///
    /// # Panics
    /// If `name` already holds a non-histogram metric.
    pub fn observe(&mut self, name: &str, v: u64) {
        match self.slot(name, || MetricValue::Histogram(Box::default())) {
            MetricValue::Histogram(h) => h.observe(v),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// The metric `name`, inserted as `init()` when absent. The name is
    /// looked up first, so only an insert allocates its key.
    fn slot(&mut self, name: &str, init: impl FnOnce() -> MetricValue) -> &mut MetricValue {
        if !self.metrics.contains_key(name) {
            self.metrics.insert(name.to_string(), init());
        }
        self.metrics.get_mut(name).expect("inserted above")
    }

    /// Takes a key-ordered snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { entries: self.metrics.iter().map(|(k, v)| (k.clone(), v.clone())).collect() }
    }
}

/// A key-ordered list of metric values — the deterministic external
/// form of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Looks up one entry by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Reads a counter's value (`None` when absent or not a counter).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Folds `other` into `self`: counters and histograms add, gauges
    /// keep the maximum, disjoint keys union. Associative and
    /// commutative, so campaign workers can merge in any grouping.
    pub fn merge(&mut self, other: &Snapshot) {
        let mut out: Vec<(String, MetricValue)> = Vec::with_capacity(self.entries.len());
        let mut a = std::mem::take(&mut self.entries).into_iter().peekable();
        let mut b = other.entries.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.0.as_str().cmp(y.0.as_str()) {
                    std::cmp::Ordering::Less => out.push(a.next().unwrap()),
                    std::cmp::Ordering::Greater => {
                        let (k, v) = b.next().unwrap();
                        out.push((k.clone(), v.clone()));
                    }
                    std::cmp::Ordering::Equal => {
                        let (k, mut v) = a.next().unwrap();
                        let (_, w) = b.next().unwrap();
                        match (&mut v, w) {
                            (MetricValue::Counter(c), MetricValue::Counter(d)) => *c += d,
                            (MetricValue::Gauge(g), MetricValue::Gauge(h)) => *g = g.max(*h),
                            (MetricValue::Histogram(h), MetricValue::Histogram(i)) => h.merge(i),
                            (v, w) => panic!("metric {k} kind mismatch: {v:?} vs {w:?}"),
                        }
                        out.push((k, v));
                    }
                },
                (Some(_), None) => out.push(a.next().unwrap()),
                (None, Some(_)) => {
                    let (k, v) = b.next().unwrap();
                    out.push((k.clone(), v.clone()));
                }
                (None, None) => break,
            }
        }
        self.entries = out;
    }

    /// Merges an iterator of snapshots into one digest.
    #[must_use]
    pub fn merge_all<'a, I: IntoIterator<Item = &'a Snapshot>>(iter: I) -> Snapshot {
        let mut acc = Snapshot::default();
        for s in iter {
            acc.merge(s);
        }
        acc
    }

    /// Renders the snapshot as `name = value` lines (stable order).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            out.push_str(&format!("{k} = {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_key_ordered_and_lookup_works() {
        let mut r = Registry::new();
        r.counter("z.last", 3);
        r.counter("a.first", 1);
        r.gauge("m.mid", 2.5);
        let s = r.snapshot();
        let keys: Vec<&str> = s.entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a.first", "m.mid", "z.last"]);
        assert_eq!(s.counter("z.last"), Some(3));
        assert_eq!(s.counter("m.mid"), None);
        assert!(s.get("missing").is_none());
    }

    #[test]
    fn merge_is_grouping_independent() {
        let mk = |c: u64, g: f64, h: &[u64]| {
            let mut r = Registry::new();
            r.counter("c", c);
            r.gauge("g", g);
            for &v in h {
                r.observe("h", v);
            }
            r.snapshot()
        };
        let parts = [mk(1, 0.5, &[1, 8]), mk(2, 3.0, &[2]), mk(4, 1.0, &[100, 0])];
        // ((a+b)+c) == (a+(b+c)) == fold in reverse.
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right = parts[1].clone();
        right.merge(&parts[2]);
        let mut right2 = parts[0].clone();
        right2.merge(&right);
        assert_eq!(left, right2);
        let rev = Snapshot::merge_all(parts.iter().rev());
        assert_eq!(left, rev);
        assert_eq!(left.counter("c"), Some(7));
        assert_eq!(left.get("g"), Some(&MetricValue::Gauge(3.0)));
        match left.get("h") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 5);
                assert_eq!(h.sum, 111);
                assert_eq!(h.min, 0);
                assert_eq!(h.max, 100);
            }
            other => panic!("bad h: {other:?}"),
        }
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[64], 1); // u64::MAX
        assert_eq!(h.count, 6);
    }
}
