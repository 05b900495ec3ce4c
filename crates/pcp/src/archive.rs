//! Archive logging — the `pmlogger` side of PCP.
//!
//! On production systems PCP does not only serve live fetches: `pmlogger`
//! records metric samples into archives that tools later replay
//! (`pmdumplog`, retrospective pmchart sessions). Summit's system
//! telemetry relies on exactly this. The simulated analogue:
//!
//! * [`PmLogger`] samples a fixed metric set through any [`PmApi`]
//!   transport — the in-process `PcpContext` or a `pcp-wire` TCP client
//!   — on a cadence of its caller's clock (the caller pumps it with
//!   [`PmLogger::poll`] as its workload advances that clock — the logger
//!   decides whether a new sample is due). It owns no thread and never
//!   sleeps, so a simulated clock replays exactly.
//! * [`Archive`] stores the samples and supports the queries replay tools
//!   need: exact lookups, nearest-sample lookups, and rate conversion
//!   between consecutive samples (what `pmval -a` prints for counter
//!   semantics).

use crate::client::{PcpError, PmApi};
use crate::pmns::{InstanceId, MetricId};

/// One archived sample row.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchiveRecord {
    /// Simulated timestamp, seconds.
    pub time_s: f64,
    /// Metric values, in the logger's metric order.
    pub values: Vec<u64>,
}

/// A completed (or in-progress) metric archive.
#[derive(Clone, Debug, Default)]
pub struct Archive {
    metrics: Vec<(MetricId, InstanceId)>,
    records: Vec<ArchiveRecord>,
}

impl Archive {
    /// An empty archive for the given metric set, appended to via
    /// [`Archive::push`].
    pub fn new(metrics: Vec<(MetricId, InstanceId)>) -> Self {
        Archive {
            metrics,
            records: Vec::new(),
        }
    }

    /// Append a sample row. Records must arrive in non-decreasing time
    /// order; out-of-order rows are rejected so replay queries stay
    /// meaningful.
    pub fn push(&mut self, record: ArchiveRecord) {
        assert_eq!(
            record.values.len(),
            self.metrics.len(),
            "record width must match the archive's metric set"
        );
        if let Some(last) = self.records.last() {
            assert!(
                record.time_s >= last.time_s,
                "archive records must be time-ordered: {} after {}",
                record.time_s,
                last.time_s
            );
        }
        self.records.push(record);
    }

    /// The metric set this archive records.
    pub fn metrics(&self) -> &[(MetricId, InstanceId)] {
        &self.metrics
    }

    /// All records, in time order.
    pub fn records(&self) -> &[ArchiveRecord] {
        &self.records
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record at or immediately before `t` (replay semantics).
    pub fn at(&self, t: f64) -> Option<&ArchiveRecord> {
        self.records.iter().rev().find(|r| r.time_s <= t)
    }

    /// Check that metric column `idx` is monotonically non-decreasing
    /// across the archive — the invariant every counter-semantics metric
    /// must satisfy (the hardware counters are free-running and never
    /// reset mid-archive). Returns the first offending pair of record
    /// indices, or `None` if the column is monotone.
    pub fn counter_monotonic(&self, idx: usize) -> Option<(usize, usize)> {
        self.records
            .windows(2)
            .position(|w| w[1].values[idx] < w[0].values[idx])
            .map(|i| (i, i + 1))
    }
}

/// [`PmLogger::new`] refused a sampling interval that is not finite
/// and positive; carries the value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BadInterval(pub f64);

impl std::fmt::Display for BadInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interval_s must be finite and > 0, got {}", self.0)
    }
}

impl std::error::Error for BadInterval {}

/// A sampling logger over one PCP connection (any [`PmApi`] transport:
/// the in-process context or a `pcp-wire` TCP client).
pub struct PmLogger {
    ctx: Box<dyn PmApi>,
    interval_s: f64,
    /// `None` until the first sample, which the first `poll` takes.
    next_due: Option<f64>,
    archive: Archive,
}

impl PmLogger {
    /// Log `metrics` every `interval_s` of the caller's clock. The first
    /// sample is taken at the first `poll`.
    pub fn new(
        ctx: impl PmApi + 'static,
        metrics: Vec<(MetricId, InstanceId)>,
        interval_s: f64,
    ) -> Result<Self, BadInterval> {
        if !(interval_s.is_finite() && interval_s > 0.0) {
            return Err(BadInterval(interval_s));
        }
        Ok(PmLogger {
            ctx: Box::new(ctx),
            interval_s,
            next_due: None,
            archive: Archive::new(metrics),
        })
    }

    /// Offer the logger a chance to sample at time `now_s`. Returns
    /// whether a sample was recorded. (The caller pumps this from its
    /// progress points; the logger enforces the cadence.) A failed fetch
    /// records nothing and leaves the cadence as it was, so the next
    /// `poll` retries.
    pub fn poll(&mut self, now_s: f64) -> Result<bool, PcpError> {
        if self.next_due.is_some_and(|due| now_s < due) {
            return Ok(false);
        }
        let values = self.ctx.pm_fetch(&self.archive.metrics)?;
        self.archive.records.push(ArchiveRecord {
            time_s: now_s,
            values,
        });
        // Fixed cadence anchored at the schedule, not at the poll jitter;
        // a poll a whole interval or more late resynchronises instead of
        // bursting to catch up.
        self.next_due = Some(match self.next_due {
            Some(due) if now_s < due + self.interval_s => due + self.interval_s,
            _ => now_s + self.interval_s,
        });
        Ok(true)
    }

    /// Finish logging and hand over the archive.
    pub fn close(self) -> Archive {
        self.archive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PcpContext;
    use crate::daemon::{Pmcd, PmcdConfig};
    use crate::pmns::Pmns;
    use p9_arch::Machine;
    use p9_memsim::{Direction, SimMachine};

    fn setup() -> (SimMachine, Pmcd, Pmns) {
        let m = SimMachine::quiet(Machine::summit(), 77);
        let pmns = Pmns::for_machine(m.arch());
        let sockets = (0..m.num_sockets()).map(|s| m.socket_shared(s)).collect();
        let d = Pmcd::spawn_system(
            pmns.clone(),
            sockets,
            PmcdConfig {
                fetch_latency_s: 0.0,
            },
        )
        .expect("spawn pmcd");
        (m, d, pmns)
    }

    /// A transport whose fetch number `fail_on` (1-based; 0 never)
    /// fails; every other fetch returns its ordinal.
    struct Flaky {
        calls: std::sync::atomic::AtomicU64,
        fail_on: u64,
    }

    impl PmApi for Flaky {
        fn pm_lookup_name(&self, name: &str) -> Result<MetricId, PcpError> {
            Err(PcpError::NoSuchMetric(name.into()))
        }
        fn pm_get_desc(&self, _id: MetricId) -> Result<crate::pmns::MetricDesc, PcpError> {
            Err(PcpError::BadMetricId)
        }
        fn pm_get_children(&self, _prefix: &str) -> Result<Vec<String>, PcpError> {
            Ok(vec![])
        }
        fn pm_fetch(&self, requests: &[(MetricId, InstanceId)]) -> Result<Vec<u64>, PcpError> {
            let n = 1 + self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n == self.fail_on {
                return Err(PcpError::Disconnected);
            }
            Ok(vec![n; requests.len()])
        }
    }

    fn flaky_logger(fail_on: u64) -> PmLogger {
        let ctx = Flaky {
            calls: 0.into(),
            fail_on,
        };
        PmLogger::new(ctx, vec![(MetricId(0), InstanceId(87))], 1.0).unwrap()
    }

    fn read_metric(pmns: &Pmns) -> (MetricId, InstanceId) {
        (
            pmns.lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
                .unwrap(),
            pmns.instance_of_socket(0),
        )
    }

    #[test]
    fn logger_respects_cadence() {
        let (m, d, pmns) = setup();
        let ctx = PcpContext::connect(d.handle(), None);
        let mut logger = PmLogger::new(ctx, vec![read_metric(&pmns)], 1.0).unwrap();
        let shared = m.socket_shared(0);
        let mut taken = 0;
        for _ in 0..10 {
            shared.advance_seconds(0.4);
            if logger.poll(shared.now_seconds()).unwrap() {
                taken += 1;
            }
        }
        // Polls at 0.4 s steps, 1 Hz cadence anchored at the first sample
        // (t = 0.4): samples land at 0.4, 1.6, 2.4, 3.6.
        assert_eq!(taken, 4);
        assert_eq!(logger.close().len(), 4);
    }

    #[test]
    fn archive_replay() {
        let (m, d, pmns) = setup();
        let ctx = PcpContext::connect(d.handle(), None);
        let mut logger = PmLogger::new(ctx, vec![read_metric(&pmns)], 1.0).unwrap();
        let shared = m.socket_shared(0);

        // t=0: counter 0.  t=1: 64 B.  t=2: 192 B.
        logger.poll(shared.now_seconds()).unwrap();
        shared.counters().record_sector(0, Direction::Read);
        shared.advance_seconds(1.0);
        logger.poll(shared.now_seconds()).unwrap();
        shared.counters().record_sector(0, Direction::Read);
        shared.counters().record_sector(8, Direction::Read);
        shared.advance_seconds(1.0);
        logger.poll(shared.now_seconds()).unwrap();

        let archive = logger.close();
        assert_eq!(archive.len(), 3);
        assert_eq!(archive.at(0.5).unwrap().values, vec![0]);
        assert_eq!(archive.at(1.5).unwrap().values, vec![64]);
        assert!(archive.at(-0.1).is_none());
    }

    #[test]
    fn empty_archive_behaviour() {
        let (_m, d, pmns) = setup();
        let ctx = PcpContext::connect(d.handle(), None);
        let logger = PmLogger::new(ctx, vec![read_metric(&pmns)], 1.0).unwrap();
        let archive = logger.close();
        assert!(archive.is_empty());
        assert!(archive.at(100.0).is_none());
    }

    #[test]
    fn failed_fetch_appends_nothing_and_the_next_poll_retries() {
        let mut logger = flaky_logger(2);
        assert_eq!(logger.poll(0.0), Ok(true));
        assert_eq!(logger.poll(1.0), Err(PcpError::Disconnected));
        // The cadence did not advance: the retry at 1.2 is still due.
        assert_eq!(logger.poll(1.2), Ok(true));
        assert_eq!(logger.poll(1.5), Ok(false), "next due at 2.0");
        let archive = logger.close();
        let rows: Vec<(f64, u64)> = archive
            .records()
            .iter()
            .map(|r| (r.time_s, r.values[0]))
            .collect();
        assert_eq!(rows, vec![(0.0, 1), (1.2, 3)]);
    }

    #[test]
    fn a_late_poll_resynchronises_instead_of_bursting() {
        let mut logger = flaky_logger(0);
        assert_eq!(logger.poll(0.0), Ok(true));
        // Due at 1.0; 4.5 s late, so the next sample is due at 6.5, not
        // at 2.0, 3.0, ... in a burst.
        assert_eq!(logger.poll(5.5), Ok(true));
        assert_eq!(logger.poll(6.0), Ok(false));
        assert_eq!(logger.poll(6.5), Ok(true));
        // Less than a whole interval late keeps the anchor: due at 7.5.
        assert_eq!(logger.poll(8.2), Ok(true));
        assert_eq!(logger.poll(8.4), Ok(false));
        assert_eq!(logger.poll(8.5), Ok(true));
        assert_eq!(logger.close().len(), 5);
    }

    #[test]
    fn bad_interval_is_a_typed_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let ctx = Flaky {
                calls: 0.into(),
                fail_on: 0,
            };
            let got = PmLogger::new(ctx, vec![], bad);
            assert!(
                matches!(got, Err(BadInterval(s)) if s.to_bits() == bad.to_bits()),
                "interval_s = {bad} must be refused"
            );
        }
        assert_eq!(
            BadInterval(-1.0).to_string(),
            "interval_s must be finite and > 0, got -1"
        );
    }
}
