//! Declarative derivations and threshold rules over sample windows.
//!
//! This is the reproduction's `pmie`: pure functions ([`rate`],
//! [`delta`], [`ewma`]) over a borrowed window — a `&[Sample]`, oldest
//! first, read with its metric's [`ExportSemantics`] — and a [`Monitor`]
//! that keeps one bounded [`Window`] per metric its [`Rule`]s name and
//! evaluates the rules on every [`Monitor::tick`]. A firing rule emits an
//! instant event (label = rule name, arg = observed value) and is
//! returned as an [`Alert`]. Stored history (`store::SeriesData`) runs
//! the same functions, so live and archived math cannot disagree.
//!
//! All time comes from the caller (`t_ns` parameters), so rules are
//! deterministic under simulated clocks: a unit test can replay an
//! exact sample sequence and assert which tick fires.

use std::collections::HashMap;

use crate::metrics::{ExportSemantics, Exported};
use crate::series::Sample;

/// Window delta: last value minus first value.
///
/// For counter semantics the subtraction saturates at zero, so a
/// derivation over a monotone counter is always non-negative even if
/// the underlying process restarted mid-window. Instant windows return
/// the signed distance, clamped into `i64`. `None` until the window
/// holds two samples.
pub fn delta(semantics: ExportSemantics, samples: &[Sample]) -> Option<i64> {
    let [first, .., last] = samples else {
        return None;
    };
    match semantics {
        ExportSemantics::Counter => Some(last.value.saturating_sub(first.value) as i64),
        ExportSemantics::Instant => {
            let d = i128::from(last.value) - i128::from(first.value);
            Some(d.clamp(i64::MIN.into(), i64::MAX.into()) as i64)
        }
    }
}

/// Window rate in value-per-second: [`delta`] divided by the window
/// span. `None` until two samples exist, or when the window's last
/// timestamp does not advance past its first.
pub fn rate(semantics: ExportSemantics, samples: &[Sample]) -> Option<f64> {
    let d = delta(semantics, samples)?;
    let (first, last) = (samples.first()?, samples.last()?);
    let span_ns = last.t_ns.checked_sub(first.t_ns).filter(|&s| s > 0)?;
    Some(d as f64 / (span_ns as f64 / 1e9))
}

/// Time-aware exponentially weighted moving average of the sample
/// values, with decay constant `tau_ns`: a sample `dt` after the
/// previous one is blended with weight `1 - exp(-dt/tau)`. Seeded from
/// the first sample; `None` for an empty window.
pub fn ewma(samples: &[Sample], tau_ns: u64) -> Option<f64> {
    let (first, rest) = samples.split_first()?;
    let mut avg = first.value as f64;
    let mut prev_t = first.t_ns;
    let tau = (tau_ns.max(1)) as f64;
    for p in rest {
        let dt = p.t_ns.saturating_sub(prev_t) as f64;
        let alpha = 1.0 - (-dt / tau).exp();
        avg += alpha * (p.value as f64 - avg);
        prev_t = p.t_ns;
    }
    Some(avg)
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

/// A declarative threshold rule over one metric's window.
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

/// The bounded window a [`Monitor`] keeps for one watched metric: its
/// newest samples, strictly increasing in time, and a count of the
/// older ones it dropped.
#[derive(Clone, Debug)]
pub struct Window {
    /// As last exported; unread while the window is empty.
    semantics: ExportSemantics,
    capacity: usize,
    /// The window is the last `capacity` entries. Older ones are
    /// dropped in bulk once the buffer holds twice that, so a push is
    /// amortised O(1) and the window is always one slice.
    buf: Vec<Sample>,
    evicted: u64,
}

impl Window {
    /// Retained samples, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.buf[self.buf.len().saturating_sub(self.capacity)..]
    }

    /// Samples dropped off the full window since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Append a sample, dropping the oldest once the window is full. A
    /// timestamp that does not advance past the latest is ignored. A
    /// dropped sample is reported (`obs.series.evicted` counter plus an
    /// instant event), never silent.
    fn push(&mut self, semantics: ExportSemantics, t_ns: u64, value: u64) {
        if self.buf.last().is_some_and(|p| t_ns <= p.t_ns) {
            return;
        }
        if self.buf.len() >= self.capacity {
            let dropped = self.buf[self.buf.len() - self.capacity];
            self.evicted += 1;
            crate::counter!("obs.series.evicted").inc();
            crate::instant!("obs.series.evicted", dropped.t_ns);
            if self.buf.len() == 2 * self.capacity {
                self.buf.drain(..self.capacity);
            }
        }
        self.semantics = semantics;
        self.buf.push(Sample { t_ns, value });
    }
}

/// A live monitor: threshold rules plus one window per metric they
/// name. Metrics no rule names are not retained — history is the
/// store's job.
#[derive(Clone, Debug)]
pub struct Monitor {
    rules: Vec<Rule>,
    windows: HashMap<&'static str, Window>,
    alerts: Vec<Alert>,
}

impl Monitor {
    /// A monitor retaining the newest `capacity` samples of each metric
    /// a rule names. `capacity` is clamped to at least 2 — every
    /// derivation needs a window, not a point.
    pub fn new(capacity: usize, rules: Vec<Rule>) -> Self {
        let window = Window {
            semantics: ExportSemantics::Instant,
            capacity: capacity.max(2),
            buf: Vec::new(),
            evicted: 0,
        };
        let windows = rules.iter().map(|r| (r.metric, window.clone())).collect();
        Monitor {
            rules,
            windows,
            alerts: Vec::new(),
        }
    }

    /// Feed one registry snapshot taken at `t_ns` into the watched
    /// windows and evaluate every rule against them. Rules that fire
    /// are recorded in [`Monitor::alerts`], emitted as tracer instant
    /// events (label = rule name, arg = observed value truncated to
    /// u64), and returned.
    pub fn tick(&mut self, t_ns: u64, exported: &[Exported]) -> Vec<Alert> {
        for e in exported {
            if let Some(w) = self.windows.get_mut(e.name.as_str()) {
                w.push(e.semantics, t_ns, e.value);
            }
        }
        let mut fired = Vec::new();
        for rule in &self.rules {
            let Some(w) = self.windows.get(rule.metric) else {
                continue;
            };
            let samples = w.samples();
            let hit = match rule.predicate {
                Predicate::ValueAbove(bound) => samples
                    .last()
                    .filter(|p| p.value > bound)
                    .map(|p| (p.value as f64, bound as f64)),
                Predicate::RateAbove(bound) => rate(w.semantics, samples)
                    .filter(|r| *r > bound)
                    .map(|r| (r, bound)),
                Predicate::DeltaAbove(bound) => delta(w.semantics, samples)
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

    /// The window kept for `metric`: `None` unless a rule names it and
    /// it has been exported at least once.
    pub fn window(&self, metric: &str) -> Option<&Window> {
        self.windows.get(metric).filter(|w| !w.buf.is_empty())
    }

    /// Every alert fired since construction, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn at(t_ns: u64, value: u64) -> Sample {
        Sample { t_ns, value }
    }

    /// A rule on `"x"` that never fires.
    const WATCH_X: Rule = Rule {
        name: "alert.test",
        metric: "x",
        predicate: Predicate::ValueAbove(u64::MAX),
    };

    #[test]
    fn delta_and_rate_over_counter_window() {
        let s = [at(1_000_000_000, 100), at(3_000_000_000, 700)];
        assert_eq!(delta(ExportSemantics::Counter, &s), Some(600));
        let r = rate(ExportSemantics::Counter, &s).unwrap();
        assert!((r - 300.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn counter_reset_saturates_to_zero() {
        let s = [at(1_000, 500), at(2_000, 20)];
        assert_eq!(delta(ExportSemantics::Counter, &s), Some(0));
        assert_eq!(rate(ExportSemantics::Counter, &s), Some(0.0));
    }

    #[test]
    fn single_sample_yields_no_derivation() {
        let s = [at(1_000, 5)];
        assert_eq!(delta(ExportSemantics::Counter, &s), None);
        assert_eq!(rate(ExportSemantics::Counter, &s), None);
        assert_eq!(ewma(&s, 1_000), Some(5.0));
        // A window whose time does not advance has no span to divide by.
        let stuck = [at(2_000, 5), at(1_000, 9)];
        assert_eq!(rate(ExportSemantics::Instant, &stuck), None);
    }

    #[test]
    fn ewma_converges_toward_recent_values() {
        let s: Vec<Sample> = (0..10u64)
            .map(|i| at((i + 1) * 1_000, if i < 5 { 0 } else { 100 }))
            .collect();
        // dt == tau: each step closes ~63% of the gap toward 100.
        let e = ewma(&s, 1_000).unwrap();
        assert!(e > 50.0 && e < 100.0, "{e}");
        // A huge tau barely moves off the seed.
        let slow = ewma(&s, u64::MAX).unwrap();
        assert!(slow < 1.0, "{slow}");
    }

    #[test]
    fn non_advancing_timestamps_are_ignored() {
        let reg = Registry::new();
        let mut mon = Monitor::new(4, vec![WATCH_X]);
        // Same instant, then going backwards: both dropped.
        for (t, v) in [(100, 1), (100, 2), (90, 3), (101, 4)] {
            reg.gauge("x").set(v);
            mon.tick(t, &reg.export());
        }
        assert_eq!(mon.window("x").unwrap().samples(), [at(100, 1), at(101, 4)]);
    }

    /// Capacity 0 clamps to a two-sample window, and a full window
    /// drops its oldest sample per push and reports each one. The only
    /// test here that evicts, so the global counter's delta is exact.
    #[test]
    fn eviction_is_counted_not_silent() {
        let reg = Registry::new();
        let mut mon = Monitor::new(0, vec![WATCH_X]);
        let before = crate::counter!("obs.series.evicted").get();
        for t in 1..=5u64 {
            reg.gauge("x").set(t);
            mon.tick(t * 10, &reg.export());
        }
        // The window kept the newest 2 of 5, in order; the 3 dropped
        // points are reported.
        let kept = mon.window("x").expect("window");
        assert_eq!(kept.samples(), [at(40, 4), at(50, 5)]);
        assert_eq!(kept.evicted(), 3);
        assert_eq!(crate::counter!("obs.series.evicted").get() - before, 3);
    }

    #[test]
    fn a_metric_no_rule_names_has_no_window() {
        let reg = Registry::new();
        reg.counter("x").add(1);
        reg.gauge("y").set(3);
        let mut mon = Monitor::new(8, vec![WATCH_X]);
        assert!(mon.window("x").is_none(), "nothing exported yet");
        mon.tick(1_000, &reg.export());
        mon.tick(2_000, &reg.export());
        assert_eq!(mon.window("x").map(|w| w.samples().len()), Some(2));
        assert!(mon.window("y").is_none());
    }

    /// The canonical rules, replayed on a simulated clock: the
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
}
