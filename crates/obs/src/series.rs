//! Ring-buffered time series fed by registry snapshots.
//!
//! A [`SeriesStore`] holds one bounded [`Series`] per metric name. Each
//! call to [`SeriesStore::observe`] appends one `(t_ns, value)` sample
//! per exported scalar, dropping the oldest sample of a series once its
//! ring is full. Timestamps are supplied by the caller — production
//! monitors pass wall-clock nanoseconds, tests pass a simulated clock —
//! so every derivation in [`crate::derive`] is deterministic and
//! unit-testable.
//!
//! The store is the substrate for live monitoring: `pmie`-style rate
//! rules ([`crate::derive::Monitor`]) and the derived lines of the
//! OpenMetrics exposition ([`crate::openmetrics`]) both read from it.

use std::collections::VecDeque;

use crate::metrics::{ExportSemantics, Exported};

/// One observation of a scalar metric at a caller-supplied time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Caller-supplied timestamp in nanoseconds (simulated or wall).
    pub t_ns: u64,
    /// The scalar value at that time.
    pub value: u64,
}

/// A bounded ring of samples for one metric.
#[derive(Clone, Debug)]
pub struct Series {
    name: String,
    semantics: ExportSemantics,
    samples: VecDeque<Sample>,
    capacity: usize,
}

impl Series {
    fn new(name: String, semantics: ExportSemantics, capacity: usize) -> Self {
        Series {
            name,
            semantics,
            samples: VecDeque::with_capacity(capacity.min(64)),
            capacity,
        }
    }

    /// Metric name this series tracks.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Counter (monotone, rate-convertible) or instant semantics.
    pub fn semantics(&self) -> ExportSemantics {
        self.semantics
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Oldest retained sample.
    pub fn oldest(&self) -> Option<Sample> {
        self.samples.front().copied()
    }

    /// Most recent sample.
    pub fn latest(&self) -> Option<Sample> {
        self.samples.back().copied()
    }

    /// All retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        self.samples.iter().copied()
    }

    /// Append a sample, evicting the oldest once the ring is full.
    /// Samples whose timestamp does not advance past the latest one are
    /// ignored — a series is strictly ordered in time by construction.
    pub fn push(&mut self, t_ns: u64, value: u64) {
        let _ = self.push_evicting(t_ns, value);
    }

    /// [`push`](Self::push), returning the sample the ring had to evict
    /// to make room (if any) so the caller can count it.
    pub fn push_evicting(&mut self, t_ns: u64, value: u64) -> Option<Sample> {
        if let Some(last) = self.samples.back() {
            if t_ns <= last.t_ns {
                return None;
            }
        }
        let evicted = if self.samples.len() == self.capacity {
            self.samples.pop_front()
        } else {
            None
        };
        self.samples.push_back(Sample { t_ns, value });
        evicted
    }

    /// Rebuild a series from already-ordered samples (e.g. a window
    /// queried out of compressed storage), so every [`crate::derive`]
    /// function applies to archived history exactly as it does to the
    /// live ring. Out-of-order samples are dropped by [`push`], same as
    /// live.
    pub fn from_samples(name: String, semantics: ExportSemantics, samples: &[Sample]) -> Self {
        let mut s = Series::new(name, semantics, samples.len().max(2));
        for p in samples {
            s.push(p.t_ns, p.value);
        }
        s
    }
}

/// A set of named series, one ring per metric. The rings hold only the
/// recent window the live rules need; whoever wants history ingests the
/// same snapshots into a `store::Store` and queries that (as the fleet
/// aggregator does).
#[derive(Clone, Debug)]
pub struct SeriesStore {
    capacity: usize,
    series: Vec<Series>,
    evicted: u64,
}

impl SeriesStore {
    /// A store whose series each retain at most `capacity` samples.
    /// `capacity` is clamped to at least 2 — every derivation needs a
    /// window, not a point.
    pub fn new(capacity: usize) -> Self {
        SeriesStore {
            capacity: capacity.max(2),
            series: Vec::new(),
            evicted: 0,
        }
    }

    /// Points evicted by full rings since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Append one sample at `t_ns` for every exported scalar, creating
    /// series on first sight. This is the periodic-snapshot feed:
    /// `store.observe(t_ns, &registry.export())`.
    pub fn observe(&mut self, t_ns: u64, exported: &[Exported]) {
        for e in exported {
            self.push(&e.name, e.semantics, t_ns, e.value);
        }
    }

    /// Append one sample to the series `name`, creating it on first use.
    /// When a full ring must evict its oldest point, that is reported
    /// (`obs.series.evicted` counter plus an instant event) rather than
    /// silent.
    pub fn push(&mut self, name: &str, semantics: ExportSemantics, t_ns: u64, value: u64) {
        let evicted = if let Some(s) = self.series.iter_mut().find(|s| s.name == name) {
            s.push_evicting(t_ns, value)
        } else {
            let mut s = Series::new(name.to_string(), semantics, self.capacity);
            s.push(t_ns, value);
            self.series.push(s);
            None
        };
        if let Some(sample) = evicted {
            self.evicted += 1;
            crate::counter!("obs.series.evicted").inc();
            crate::instant!("obs.series.evicted", sample.t_ns);
        }
    }

    /// The series for `name`, if any sample has been observed.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// All series, in first-observation order.
    pub fn iter(&self) -> impl Iterator<Item = &Series> {
        self.series.iter()
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_order() {
        let mut s = Series::new("x".into(), ExportSemantics::Counter, 3);
        for (t, v) in [(10, 1), (20, 2), (30, 3), (40, 4)] {
            s.push(t, v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.oldest(), Some(Sample { t_ns: 20, value: 2 }));
        assert_eq!(s.latest(), Some(Sample { t_ns: 40, value: 4 }));
        let ts: Vec<u64> = s.iter().map(|p| p.t_ns).collect();
        assert_eq!(ts, vec![20, 30, 40]);
    }

    #[test]
    fn non_advancing_timestamps_are_ignored() {
        let mut s = Series::new("x".into(), ExportSemantics::Instant, 4);
        s.push(100, 1);
        s.push(100, 2); // same instant: dropped
        s.push(90, 3); // going backwards: dropped
        s.push(101, 4);
        assert_eq!(s.len(), 2);
        assert_eq!(s.latest().unwrap().value, 4);
    }

    #[test]
    fn observe_feeds_every_exported_scalar() {
        let reg = crate::Registry::new();
        reg.counter("a").add(7);
        reg.gauge("b").set(3);
        let mut store = SeriesStore::new(8);
        store.observe(1_000, &reg.export());
        reg.counter("a").add(1);
        store.observe(2_000, &reg.export());
        assert_eq!(store.len(), 2);
        let a = store.get("a").unwrap();
        assert_eq!(a.semantics(), ExportSemantics::Counter);
        assert_eq!(a.oldest().unwrap().value, 7);
        assert_eq!(a.latest().unwrap().value, 8);
        assert_eq!(store.get("b").unwrap().latest().unwrap().value, 3);
        assert!(store.get("c").is_none());
    }

    #[test]
    fn capacity_is_clamped_to_a_window() {
        let store = SeriesStore::new(0);
        assert_eq!(store.capacity, 2);
    }

    #[test]
    fn eviction_is_counted_not_silent() {
        let mut store = SeriesStore::new(2);
        let before = crate::counter!("obs.series.evicted").get();
        for t in 1..=5u64 {
            store.push("lossy", ExportSemantics::Instant, t * 10, t);
        }
        // Ring kept 2 of 5; the 3 dropped points are reported.
        assert_eq!(store.evicted(), 3);
        assert_eq!(crate::counter!("obs.series.evicted").get() - before, 3);
        let kept = store.get("lossy").expect("series");
        assert_eq!(kept.len(), 2);
        assert_eq!(kept.oldest().map(|s| s.t_ns), Some(40));
    }
}
