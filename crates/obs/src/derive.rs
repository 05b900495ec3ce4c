//! Declarative derivations and threshold rules over time series.
//!
//! This is the reproduction's `pmie`: pure functions ([`rate`],
//! [`delta`], [`ewma`], [`aggregate_sum`]) over a [`Series`] window,
//! plus a [`Monitor`] that snapshots a registry export into a
//! [`SeriesStore`] on every [`Monitor::tick`] and evaluates declarative
//! [`Rule`]s against the updated windows. A firing rule emits a
//! structured `obs::instant!`-style alert event (label = rule name,
//! arg = observed value) and is returned to the caller as an [`Alert`].
//!
//! All time comes from the caller (`t_ns` parameters), so rules are
//! deterministic under simulated clocks: a unit test can replay an
//! exact sample sequence and assert which tick fires.

use crate::metrics::{ExportSemantics, Exported};
use crate::series::{Series, SeriesStore};

/// Window delta of a series: latest value minus oldest value.
///
/// For counter-semantics series the subtraction saturates at zero, so a
/// derivation over a monotone counter is always non-negative even if
/// the underlying process restarted mid-window. Instant series return a
/// signed delta. `None` until the window holds two samples.
pub fn delta(s: &Series) -> Option<i64> {
    let (first, last) = (s.oldest()?, s.latest()?);
    if s.len() < 2 {
        return None;
    }
    match s.semantics() {
        ExportSemantics::Counter => Some(last.value.saturating_sub(first.value) as i64),
        ExportSemantics::Instant => Some(last.value as i64 - first.value as i64),
    }
}

/// Window rate of a series in value-per-second: [`delta`] divided by
/// the window span. `None` until two samples exist; the series'
/// strictly increasing timestamps guarantee a positive span.
pub fn rate(s: &Series) -> Option<f64> {
    let d = delta(s)?;
    let span_ns = s.latest()?.t_ns - s.oldest()?.t_ns;
    Some(d as f64 / (span_ns as f64 / 1e9))
}

/// Time-aware exponentially weighted moving average of the sample
/// values, with decay constant `tau_ns`: a sample `dt` after the
/// previous one is blended with weight `1 - exp(-dt/tau)`. Seeded from
/// the oldest sample; `None` for an empty series.
pub fn ewma(s: &Series, tau_ns: u64) -> Option<f64> {
    let mut iter = s.iter();
    let first = iter.next()?;
    let mut avg = first.value as f64;
    let mut prev_t = first.t_ns;
    let tau = (tau_ns.max(1)) as f64;
    for p in iter {
        let dt = (p.t_ns - prev_t) as f64;
        let alpha = 1.0 - (-dt / tau).exp();
        avg += alpha * (p.value as f64 - avg);
        prev_t = p.t_ns;
    }
    Some(avg)
}

/// Sum of the latest values of every series whose name starts with
/// `prefix` and ends with `suffix` — the per-channel/per-socket
/// aggregation: `aggregate_sum(&store, "pmcd.obs.memsim.", ".bytes")`
/// folds all channels into one scalar. `None` when nothing matches.
pub fn aggregate_sum(store: &SeriesStore, prefix: &str, suffix: &str) -> Option<u64> {
    let mut sum = 0u64;
    let mut matched = false;
    for s in store.iter() {
        if s.name().starts_with(prefix) && s.name().ends_with(suffix) {
            if let Some(latest) = s.latest() {
                sum = sum.saturating_add(latest.value);
                matched = true;
            }
        }
    }
    matched.then_some(sum)
}

/// What a [`Rule`] tests against its metric's window.
#[derive(Clone, Copy, Debug)]
pub enum Predicate {
    /// Latest value strictly above the bound (e.g. a p99 over budget).
    ValueAbove(u64),
    /// Window [`rate`] strictly above the bound, in value/second
    /// (e.g. queue-shed rate > 0).
    RateAbove(f64),
    /// Window [`delta`] strictly above the bound.
    DeltaAbove(i64),
}

/// A declarative threshold rule over one metric's series.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Alert label; also the `obs::instant!` event label when firing.
    pub name: &'static str,
    /// Exported scalar name to watch (e.g.
    /// `"pmcd.fetch.latency_ns.p99"`).
    pub metric: &'static str,
    /// Condition on the metric's window.
    pub predicate: Predicate,
}

/// One firing of a rule at one tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Alert {
    /// [`Rule::name`] of the rule that fired.
    pub rule: &'static str,
    /// Metric the rule watched.
    pub metric: &'static str,
    /// Observed value (latest value, rate, or delta per the predicate).
    pub observed: f64,
    /// The bound it exceeded.
    pub threshold: f64,
    /// Tick timestamp at which it fired.
    pub t_ns: u64,
}

/// A live monitor: a series store plus threshold rules.
#[derive(Clone, Debug)]
pub struct Monitor {
    store: SeriesStore,
    rules: Vec<Rule>,
    alerts: Vec<Alert>,
}

impl Monitor {
    /// A monitor retaining `capacity` samples per series.
    pub fn new(capacity: usize, rules: Vec<Rule>) -> Self {
        Monitor {
            store: SeriesStore::new(capacity),
            rules,
            alerts: Vec::new(),
        }
    }

    /// Feed one registry snapshot taken at `t_ns` and evaluate every
    /// rule against the updated windows. Rules that fire are recorded
    /// in [`Monitor::alerts`], emitted as tracer instant events
    /// (label = rule name, arg = observed value truncated to u64), and
    /// returned.
    pub fn tick(&mut self, t_ns: u64, exported: &[Exported]) -> Vec<Alert> {
        self.store.observe(t_ns, exported);
        let mut fired = Vec::new();
        for rule in &self.rules {
            let Some(series) = self.store.get(rule.metric) else {
                continue;
            };
            let hit = match rule.predicate {
                Predicate::ValueAbove(bound) => series
                    .latest()
                    .filter(|p| p.value > bound)
                    .map(|p| (p.value as f64, bound as f64)),
                Predicate::RateAbove(bound) => {
                    rate(series).filter(|r| *r > bound).map(|r| (r, bound))
                }
                Predicate::DeltaAbove(bound) => delta(series)
                    .filter(|d| *d > bound)
                    .map(|d| (d as f64, bound as f64)),
            };
            if let Some((observed, threshold)) = hit {
                crate::trace::instant_event(rule.name, observed as u64);
                fired.push(Alert {
                    rule: rule.name,
                    metric: rule.metric,
                    observed,
                    threshold,
                    t_ns,
                });
            }
        }
        self.alerts.extend_from_slice(&fired);
        fired
    }

    /// The underlying series windows.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// Every alert fired since construction, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Derived scalars for exposition: one `<name>:rate` gauge per
    /// counter series with a full window, in store order.
    pub fn derived(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for s in self.store.iter() {
            if s.semantics() == ExportSemantics::Counter {
                if let Some(r) = rate(s) {
                    out.push((format!("{}:rate", s.name()), r));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn counter_series(points: &[(u64, u64)]) -> SeriesStore {
        let mut store = SeriesStore::new(points.len().max(2));
        for (t, v) in points {
            store.push("c", ExportSemantics::Counter, *t, *v);
        }
        store
    }

    #[test]
    fn delta_and_rate_over_counter_window() {
        let store = counter_series(&[(1_000_000_000, 100), (3_000_000_000, 700)]);
        let s = store.get("c").unwrap();
        assert_eq!(delta(s), Some(600));
        let r = rate(s).unwrap();
        assert!((r - 300.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn counter_reset_saturates_to_zero() {
        let store = counter_series(&[(1_000, 500), (2_000, 20)]);
        let s = store.get("c").unwrap();
        assert_eq!(delta(s), Some(0));
        assert_eq!(rate(s), Some(0.0));
    }

    #[test]
    fn single_sample_yields_no_derivation() {
        let store = counter_series(&[(1_000, 5)]);
        let s = store.get("c").unwrap();
        assert_eq!(delta(s), None);
        assert_eq!(rate(s), None);
        assert_eq!(ewma(s, 1_000), Some(5.0));
    }

    #[test]
    fn ewma_converges_toward_recent_values() {
        let mut store = SeriesStore::new(16);
        for i in 0..10u64 {
            let v = if i < 5 { 0 } else { 100 };
            store.push("g", ExportSemantics::Instant, (i + 1) * 1_000, v);
        }
        let s = store.get("g").unwrap();
        // dt == tau: each step closes ~63% of the gap toward 100.
        let e = ewma(s, 1_000).unwrap();
        assert!(e > 50.0 && e < 100.0, "{e}");
        // A huge tau barely moves off the seed.
        let slow = ewma(s, u64::MAX).unwrap();
        assert!(slow < 1.0, "{slow}");
    }

    #[test]
    fn aggregate_sums_matching_channels() {
        let mut store = SeriesStore::new(4);
        for ch in 0..4u64 {
            store.push(
                match ch {
                    0 => "mba.ch0.bytes",
                    1 => "mba.ch1.bytes",
                    2 => "mba.ch2.bytes",
                    _ => "mba.ch3.other",
                },
                ExportSemantics::Counter,
                1_000,
                10 * (ch + 1),
            );
        }
        assert_eq!(aggregate_sum(&store, "mba.", ".bytes"), Some(60));
        assert_eq!(aggregate_sum(&store, "nope.", ".bytes"), None);
    }

    /// The ISSUE's canonical rules, replayed on a simulated clock: the
    /// shed-rate rule must fire on exactly the tick where shedding
    /// starts, and never before.
    #[test]
    fn rules_fire_deterministically_under_simulated_clock() {
        let reg = Registry::new();
        let shed = reg.counter("pmcd.queue.shed");
        let p99 = reg.gauge("pmcd.fetch.latency_ns.p99");
        let mut mon = Monitor::new(
            8,
            vec![
                Rule {
                    name: "alert.queue.shedding",
                    metric: "pmcd.queue.shed",
                    predicate: Predicate::RateAbove(0.0),
                },
                Rule {
                    name: "alert.fetch.p99_over_budget",
                    metric: "pmcd.fetch.latency_ns.p99",
                    predicate: Predicate::ValueAbove(1_000_000),
                },
            ],
        );

        // t=1s: quiet baseline; single sample, no rate window yet.
        p99.set(80_000);
        assert!(mon.tick(1_000_000_000, &reg.export()).is_empty());
        // t=2s: still quiet.
        assert!(mon.tick(2_000_000_000, &reg.export()).is_empty());
        // t=3s: the queue sheds 5 requests and the p99 blows through
        // the 1 ms budget — both rules fire on this exact tick.
        shed.add(5);
        p99.set(4_000_000);
        let fired = mon.tick(3_000_000_000, &reg.export());
        assert_eq!(fired.len(), 2, "{fired:?}");
        assert_eq!(fired[0].rule, "alert.queue.shedding");
        assert!((fired[0].observed - 2.5).abs() < 1e-9, "{fired:?}");
        assert_eq!(fired[1].rule, "alert.fetch.p99_over_budget");
        assert_eq!(fired[1].t_ns, 3_000_000_000);
        // t=4s: no new sheds -> the window still contains the burst, so
        // the rate stays positive until it ages out of the ring.
        p99.set(80_000);
        let again = mon.tick(4_000_000_000, &reg.export());
        assert_eq!(again.len(), 1);
        assert_eq!(mon.alerts().len(), 3);
    }

    #[test]
    fn derived_exposes_counter_rates_only() {
        let reg = Registry::new();
        reg.counter("a.count").add(10);
        reg.gauge("b.depth").set(5);
        let mut mon = Monitor::new(4, Vec::new());
        mon.tick(1_000_000_000, &reg.export());
        reg.counter("a.count").add(10);
        mon.tick(2_000_000_000, &reg.export());
        let derived = mon.derived();
        assert_eq!(derived.len(), 1, "{derived:?}");
        assert_eq!(derived[0].0, "a.count:rate");
        assert!((derived[0].1 - 10.0).abs() < 1e-9, "{derived:?}");
    }
}
