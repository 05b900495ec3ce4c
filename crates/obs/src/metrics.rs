//! The metric registry: counters, gauges, and log2-bucket histograms
//! with mergeable snapshots.
//!
//! Metrics are cheap shared atomics. Registration (`counter` / `gauge` /
//! `histogram`) takes a lock and may allocate; it happens once per call
//! site (the `counter!`-style macros cache the handle in a `static`).
//! Recording is one or two relaxed `fetch_add`s — safe in signal-free
//! hot paths and across threads.
//!
//! The registry flattens into a stable scalar view ([`Registry::export`])
//! that the PCP daemons serve as the `pmcd.obs.*` PMNS subtree: entries
//! are append-only and each entry kind flattens to a fixed number of
//! scalars, so a metric's flattened index — and therefore its wire
//! metric id — never changes once registered.
//!
//! Exported names are external API (dashboards, scrape rules and the
//! PMNS key on them), so every name a `counter!`/`gauge!`/`histogram!`
//! call site registers must appear in the workspace's `METRICS.md`;
//! [`catalogued`] checks that while the call site compiles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{Mutex, Rank};

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`, bucket 64 tops out at
/// `u64::MAX`. Exhaustive over all `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter: the one cell every event tally
/// in the workspace goes through (metric counters, the simulated nest,
/// core-PMU and InfiniBand counters, the daemon's own statistics).
///
/// Every access is `Relaxed`, and this is the one place that argues
/// why: a counter is an independent statistic. No reader orders other
/// memory against it, every reader tolerates (the simulated ones model)
/// a slightly stale value, and an atomic RMW cannot lose an increment,
/// so totals are exact once writers are quiescent. `add` compiles to a
/// single `fetch_add`, the cost a hardware counter increment has.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `v`, returning the previous total.
    #[inline]
    pub fn add(&self, v: u64) -> u64 {
        self.0.fetch_add(v, Ordering::Relaxed)
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value: last write wins, or moved up and down by
/// [`Gauge::add`]/[`Gauge::sub`]. Relaxed for the reason [`Counter`]
/// gives.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value by `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Lower the value by `v` (a caller pairs it with an earlier `add`).
    #[inline]
    pub fn sub(&self, v: u64) {
        self.0.fetch_sub(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (`i < HIST_BUCKETS`).
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`i < HIST_BUCKETS`).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log2-bucket histogram of `u64` samples (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        // Relaxed as for `Counter`; a snapshot may tear between count
        // and sum under concurrent recording.
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A copy of the current state. Under concurrent recording the sum
    /// and counts may tear by in-flight samples; with quiesced writers
    /// the snapshot is exact.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable histogram snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (see [`bucket_lower`]/[`bucket_upper`]).
    pub counts: [u64; HIST_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: [0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Fold `other` into `self`; merging per-thread snapshots is
    /// exactly equivalent to having recorded every sample into one
    /// histogram (the sum wraps mod 2^64, matching `fetch_add`).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.wrapping_add(*theirs);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, c| a.saturating_add(*c))
    }

    /// Number of samples strictly below `2^k` (exact: `2^k` is a bucket
    /// boundary). `k ≥ 64` returns the total count.
    pub fn count_below_pow2(&self, k: u32) -> u64 {
        let top = (k as usize).min(HIST_BUCKETS - 1);
        self.counts[..=top]
            .iter()
            .fold(0u64, |a, c| a.saturating_add(*c))
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (q in
    /// [0, 1]); 0 when empty. Resolution is one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(*c);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    pub fn max_bound(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .rev()
            .find(|(_, c)| **c != 0)
            .map(|(i, _)| bucket_upper(i))
            .unwrap_or(0)
    }
}

/// Shared handle to a registered metric.
#[derive(Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Owned snapshot of one registry entry (see [`Registry::entries`]).
#[derive(Clone, Debug)]
pub enum EntrySnapshot {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Full histogram snapshot (boxed: 65 buckets of counts).
    Histogram(Box<HistSnapshot>),
}

/// PCP-style semantics of one exported scalar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExportSemantics {
    /// Monotonically increasing (rate-convert to consume).
    Counter,
    /// Instantaneous value.
    Instant,
}

/// One scalar in the flattened export view.
#[derive(Clone, Debug)]
pub struct Exported {
    /// Dotted metric name (registry name plus `.count`-style suffixes
    /// for histograms).
    pub name: String,
    /// Current value.
    pub value: u64,
    /// Counter or instant.
    pub semantics: ExportSemantics,
}

/// Scalars each entry kind flattens to in [`Registry::export`].
fn flattened_width(slot: &Slot) -> usize {
    match slot {
        Slot::Counter(_) | Slot::Gauge(_) => 1,
        Slot::Histogram(_) => HIST_FLATTEN.len(),
    }
}

/// Histogram flattening: suffix, semantics, and extractor.
const HIST_FLATTEN: [(&str, ExportSemantics); 6] = [
    ("count", ExportSemantics::Counter),
    ("sum", ExportSemantics::Counter),
    ("p50", ExportSemantics::Instant),
    ("p90", ExportSemantics::Instant),
    ("p99", ExportSemantics::Instant),
    ("max", ExportSemantics::Instant),
];

fn hist_scalar(snap: &HistSnapshot, idx: usize) -> u64 {
    match idx {
        0 => snap.count(),
        1 => snap.sum,
        2 => snap.quantile(0.50),
        3 => snap.quantile(0.90),
        4 => snap.quantile(0.99),
        _ => snap.max_bound(),
    }
}

/// An append-only name → metric registry.
pub struct Registry {
    entries: Mutex<Vec<(&'static str, Slot)>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            entries: Mutex::new(Rank::OBS_ENTRIES, Vec::new()),
        }
    }

    fn get_or_insert(&self, name: &'static str, make: impl FnOnce() -> Slot) -> Slot {
        let mut entries = self.entries.lock();
        if let Some((_, slot)) = entries.iter().find(|(n, _)| *n == name) {
            return slot.clone();
        }
        let slot = make();
        entries.push((name, slot.clone()));
        slot
    }

    /// Get or register the counter `name`. If `name` is already
    /// registered as a different kind, a detached (unexported) metric
    /// is returned rather than panicking.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        match self.get_or_insert(name, || Slot::Counter(Arc::new(Counter::new()))) {
            Slot::Counter(c) => c,
            _ => Arc::new(Counter::new()),
        }
    }

    /// Get or register the gauge `name` (same collision policy).
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Slot::Gauge(Arc::new(Gauge::new()))) {
            Slot::Gauge(g) => g,
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Get or register the histogram `name` (same collision policy).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Slot::Histogram(Arc::new(Histogram::new()))) {
            Slot::Histogram(h) => h,
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Owned snapshots of every entry, in registration order.
    pub fn entries(&self) -> Vec<(&'static str, EntrySnapshot)> {
        let entries = self.entries.lock();
        entries
            .iter()
            .map(|(name, slot)| {
                let snap = match slot {
                    Slot::Counter(c) => EntrySnapshot::Counter(c.get()),
                    Slot::Gauge(g) => EntrySnapshot::Gauge(g.get()),
                    Slot::Histogram(h) => EntrySnapshot::Histogram(Box::new(h.snapshot())),
                };
                (*name, snap)
            })
            .collect()
    }

    /// The flattened scalar view. Indices into this vector are stable
    /// for the lifetime of the process: the registry is append-only and
    /// each entry kind contributes a fixed number of scalars.
    pub fn export(&self) -> Vec<Exported> {
        let entries = self.entries.lock();
        let mut out = Vec::new();
        for (name, slot) in entries.iter() {
            match slot {
                Slot::Counter(c) => out.push(Exported {
                    name: (*name).to_string(),
                    value: c.get(),
                    semantics: ExportSemantics::Counter,
                }),
                Slot::Gauge(g) => out.push(Exported {
                    name: (*name).to_string(),
                    value: g.get(),
                    semantics: ExportSemantics::Instant,
                }),
                Slot::Histogram(h) => {
                    let snap = h.snapshot();
                    for (idx, (suffix, semantics)) in HIST_FLATTEN.iter().enumerate() {
                        out.push(Exported {
                            name: format!("{name}.{suffix}"),
                            value: hist_scalar(&snap, idx),
                            semantics: *semantics,
                        });
                    }
                }
            }
        }
        out
    }

    /// Number of scalars [`Registry::export`] currently yields.
    pub fn flattened_len(&self) -> usize {
        let entries = self.entries.lock();
        entries.iter().map(|(_, s)| flattened_width(s)).sum()
    }
}

/// `METRICS.md`, the catalogue of every exported metric name.
const CATALOGUE: &[u8] = include_bytes!("../../../METRICS.md");

/// Whether `name` appears backtick-quoted anywhere in `METRICS.md`.
/// The metric macros evaluate this in a `const` block, so an
/// uncatalogued name fails the build at its call site, and a name that
/// is not a constant does not compile at all.
pub const fn catalogued(name: &str) -> bool {
    let (doc, name) = (CATALOGUE, name.as_bytes());
    if name.is_empty() {
        return false;
    }
    let mut at = 0;
    while at + name.len() + 2 <= doc.len() {
        if doc[at] == b'`' && doc[at + name.len() + 1] == b'`' {
            let mut i = 0;
            while i < name.len() && doc[at + 1 + i] == name[i] {
                i += 1;
            }
            if i == name.len() {
                return true;
            }
        }
        at += 1;
    }
    false
}

/// The process-wide registry exported as `pmcd.obs.*`.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_cover_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(64), u64::MAX);
        assert_eq!(bucket_lower(64), 1u64 << 63);
    }

    #[test]
    fn histogram_quantiles_and_counts() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        assert_eq!(s.sum, 101_105);
        // values < 4 (2^2): {0, 1, 1, 3} = 4 samples.
        assert_eq!(s.count_below_pow2(2), 4);
        assert_eq!(s.count_below_pow2(64), 7);
        assert!(s.quantile(0.5) >= 1);
        assert!(s.quantile(1.0) >= 100_000);
        assert!(s.max_bound() >= 100_000);
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn registry_export_indices_are_stable_across_appends() {
        let reg = Registry::new();
        reg.counter("a.count").add(3);
        reg.histogram("b.lat").record(9);
        let before = reg.export();
        assert_eq!(before.len(), 1 + HIST_FLATTEN.len());
        assert_eq!(before[0].name, "a.count");
        assert_eq!(before[0].value, 3);
        assert_eq!(before[0].semantics, ExportSemantics::Counter);
        assert_eq!(before[1].name, "b.lat.count");
        assert_eq!(before[1].value, 1);
        // Appending a new metric must not shift existing indices.
        reg.gauge("c.depth").set(5);
        let after = reg.export();
        assert_eq!(after.len(), before.len() + 1);
        for (i, e) in before.iter().enumerate() {
            assert_eq!(after[i].name, e.name);
        }
        assert_eq!(after[before.len()].name, "c.depth");
        assert_eq!(after[before.len()].semantics, ExportSemantics::Instant);
        assert_eq!(reg.flattened_len(), after.len());
    }

    #[test]
    fn same_name_returns_same_metric_and_kind_collisions_detach() {
        let reg = Registry::new();
        let c1 = reg.counter("x");
        let c2 = reg.counter("x");
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
        // Same name, wrong kind: detached instance, export unaffected.
        let g = reg.gauge("x");
        g.set(99);
        let export = reg.export();
        assert_eq!(export.len(), 1);
        assert_eq!(export[0].value, 2);
    }
}
