//! The one PMCD core behind both transports.
//!
//! The paper's claim is that a nest counter read *through the daemon*
//! equals a direct read, so what the daemon answers has exactly one
//! definition: [`FetchCore`]. It owns the PMNS, the socket handles, the
//! obs registry it exports and the daemon's operational counters, and is
//! the only implementation of `lookup`, `desc`, `children` and batch
//! `fetch`. The in-process [`crate::daemon::Pmcd`] calls those four
//! directly and the TCP `pcp_wire::PmcdServer` translates its PDUs into
//! them, so the two agree on every id, descriptor and value by
//! construction.
//!
//! Besides the hardware metrics of the [`Pmns`] the core serves two
//! reserved id ranges through the same paths:
//!
//! * [`SELF_METRIC_BASE`] — the daemon's own operational metrics
//!   (`pmcd.pdu.*`, `pmcd.client.*`, `pmcd.fetch.*`, `pmcd.queue.*`),
//!   one table for both transports. They exist from construction, so
//!   the first archive sample of a `pmlogger` schedule already contains
//!   the columns. Rows a transport never drives (`pmcd.client.*` and
//!   `pmcd.queue.*` in-process) read 0.
//! * [`OBS_METRIC_BASE`] — an [`obs::Registry`] flattened under
//!   `pmcd.obs.`: the process-global one, or a private registry when
//!   many daemons share a process (every fleet host). The registry is
//!   append-only and each entry flattens to a fixed number of scalars,
//!   so `OBS_METRIC_BASE + flattened index` is a stable metric id.
//!
//! The fetch-latency histogram is an [`obs::Histogram`] (log2 buckets);
//! the exported `lt_*` metrics are cumulative sample counts below
//! power-of-two nanosecond thresholds, named by the exact threshold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::metrics::{ExportSemantics, Exported};
use p9_memsim::machine::SocketShared;
use p9_memsim::Direction;

use crate::pmns::{InstanceId, MetricDesc, MetricId, MetricSemantics, Pmns};

/// Base of the reserved id range for the daemon's self-metrics. The PMNS
/// table indexes from zero, so anything at or above this base is a
/// `pmcd.*` operational metric.
pub const SELF_METRIC_BASE: u32 = 0x4000_0000;

/// Base of the reserved id range for the `pmcd.obs.*` registry export.
pub const OBS_METRIC_BASE: u32 = 0x4100_0000;

/// Name prefix under which the obs registry is exported.
pub const OBS_PREFIX: &str = "pmcd.obs.";

/// Where a self-metric row reads its value from.
#[derive(Clone, Copy)]
enum Source {
    PduIn,
    PduOut,
    PduError,
    ClientsCurrent,
    ClientsTotal,
    ClientsRejected,
    FetchCount,
    FetchLatencySum,
    /// Fetches that took `< 2^k` ns (cumulative).
    FetchLatencyBelowPow2(u32),
    /// The transport's live connection-queue depth.
    QueueDepth,
}

/// The self-metric table: name, units, semantics, value source. Metric
/// id = [`SELF_METRIC_BASE`] + index; the order is wire API (ids and
/// every host exposition depend on it). `pmcd.fetch.count` doubles as
/// the +inf latency bucket: every fetch lands in it.
#[rustfmt::skip] // one row per line: this is a table
const SELF_METRICS: [(&str, &str, MetricSemantics, Source); 15] = {
    use MetricSemantics::{Counter, Instant};
    use Source::*;
    [
        ("pmcd.pdu.in", "count", Counter, PduIn),
        ("pmcd.pdu.out", "count", Counter, PduOut),
        ("pmcd.pdu.error", "count", Counter, PduError),
        ("pmcd.client.current", "count", Instant, ClientsCurrent),
        ("pmcd.client.total", "count", Counter, ClientsTotal),
        ("pmcd.client.rejected", "count", Counter, ClientsRejected),
        ("pmcd.fetch.count", "count", Counter, FetchCount),
        ("pmcd.fetch.latency_ns.sum", "nanosecond", Counter, FetchLatencySum),
        ("pmcd.fetch.latency_ns.lt_1024", "count", Counter, FetchLatencyBelowPow2(10)),
        ("pmcd.fetch.latency_ns.lt_16384", "count", Counter, FetchLatencyBelowPow2(14)),
        ("pmcd.fetch.latency_ns.lt_131072", "count", Counter, FetchLatencyBelowPow2(17)),
        ("pmcd.fetch.latency_ns.lt_1048576", "count", Counter, FetchLatencyBelowPow2(20)),
        ("pmcd.fetch.latency_ns.lt_16777216", "count", Counter, FetchLatencyBelowPow2(24)),
        ("pmcd.queue.depth", "count", Instant, QueueDepth),
        ("pmcd.queue.shed", "count", Counter, ClientsRejected),
    ]
};

/// Increment one operational counter, returning the previous value.
#[inline]
fn bump(counter: &AtomicU64) -> u64 {
    // relaxed-ok: operational statistics; readers tolerate staleness and
    // no other memory is published through these counters.
    counter.fetch_add(1, Ordering::Relaxed)
}

/// Read one operational counter.
#[inline]
fn peek(counter: &AtomicU64) -> u64 {
    // relaxed-ok: statistic read; consumers expect free-running values.
    counter.load(Ordering::Relaxed)
}

/// The daemon's operational counters, updated lock-free by whichever
/// transport drives the core.
#[derive(Default)]
pub struct PmcdStats {
    pdu_in: AtomicU64,
    pdu_out: AtomicU64,
    pdu_error: AtomicU64,
    clients_current: AtomicU64,
    clients_total: AtomicU64,
    clients_rejected: AtomicU64,
    /// Fetch service times, log2-bucketed. Count and sum are read from
    /// the histogram — there are no separate counters to drift from it.
    fetch_hist: obs::Histogram,
}

impl PmcdStats {
    /// Count one request received (any kind).
    pub fn count_pdu_in(&self) {
        bump(&self.pdu_in);
    }

    /// Count one reply sent.
    pub fn count_pdu_out(&self) {
        bump(&self.pdu_out);
    }

    /// Count one malformed request or error reply.
    pub fn count_pdu_error(&self) {
        bump(&self.pdu_error);
    }

    /// A client connection was taken up; returns its 1-based client id.
    pub fn client_connected(&self) -> u64 {
        bump(&self.clients_current);
        bump(&self.clients_total) + 1
    }

    /// The connection counted by [`Self::client_connected`] ended.
    pub fn client_disconnected(&self) {
        // relaxed-ok: statistic decrement, pairs with the bump in
        // `client_connected`.
        self.clients_current.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was shed at the door (also `pmcd.queue.shed`).
    pub fn count_client_rejected(&self) {
        bump(&self.clients_rejected);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let fetch_latency = self.fetch_hist.snapshot();
        StatsSnapshot {
            pdu_in: peek(&self.pdu_in),
            pdu_out: peek(&self.pdu_out),
            pdu_error: peek(&self.pdu_error),
            clients_current: peek(&self.clients_current),
            clients_total: peek(&self.clients_total),
            clients_rejected: peek(&self.clients_rejected),
            fetch_count: fetch_latency.count(),
            fetch_latency_ns_sum: fetch_latency.sum,
            fetch_latency,
        }
    }

    fn value(&self, source: Source, queue_depth: u64) -> u64 {
        match source {
            Source::PduIn => peek(&self.pdu_in),
            Source::PduOut => peek(&self.pdu_out),
            Source::PduError => peek(&self.pdu_error),
            Source::ClientsCurrent => peek(&self.clients_current),
            Source::ClientsTotal => peek(&self.clients_total),
            Source::ClientsRejected => peek(&self.clients_rejected),
            Source::FetchCount => self.fetch_hist.snapshot().count(),
            Source::FetchLatencySum => self.fetch_hist.snapshot().sum,
            Source::FetchLatencyBelowPow2(k) => self.fetch_hist.snapshot().count_below_pow2(k),
            Source::QueueDepth => queue_depth,
        }
    }
}

/// A point-in-time copy of a daemon's operational counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub pdu_in: u64,
    pub pdu_out: u64,
    pub pdu_error: u64,
    pub clients_current: u64,
    pub clients_total: u64,
    pub clients_rejected: u64,
    pub fetch_count: u64,
    pub fetch_latency_ns_sum: u64,
    /// Full log2-bucket fetch service-time distribution. Mergeable
    /// across servers; quantiles via [`obs::HistSnapshot::quantile`].
    pub fetch_latency: obs::HistSnapshot,
}

fn obs_semantics(s: ExportSemantics) -> MetricSemantics {
    match s {
        ExportSemantics::Counter => MetricSemantics::Counter,
        ExportSemantics::Instant => MetricSemantics::Instant,
    }
}

/// Descriptor of an operational metric (channel and direction are
/// meaningless there; they read as channel 0 / Read, matching the wire
/// encoding).
fn operational_desc(
    id: MetricId,
    name: String,
    units: &'static str,
    semantics: MetricSemantics,
) -> MetricDesc {
    MetricDesc {
        id,
        name,
        semantics,
        units,
        channel: 0,
        direction: Direction::Read,
    }
}

/// Everything a PMCD answers, whatever the transport.
pub struct FetchCore {
    pmns: Pmns,
    sockets: Vec<Arc<SocketShared>>,
    /// Registry exported as `pmcd.obs.*`; `None` = the process-global
    /// one.
    registry: Option<Arc<obs::Registry>>,
    stats: PmcdStats,
}

impl FetchCore {
    /// A core over `sockets`, exporting `registry` (or the
    /// process-global obs registry) as `pmcd.obs.*`. All self-metrics
    /// start at zero.
    pub fn new(
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        registry: Option<Arc<obs::Registry>>,
    ) -> Self {
        FetchCore {
            pmns,
            sockets,
            registry,
            stats: PmcdStats::default(),
        }
    }

    /// The hardware name space (transports need its instance domain).
    pub fn pmns(&self) -> &Pmns {
        &self.pmns
    }

    /// The operational counters the transport drives.
    pub fn stats(&self) -> &PmcdStats {
        &self.stats
    }

    fn registry(&self) -> &obs::Registry {
        match &self.registry {
            Some(reg) => reg,
            None => obs::registry(),
        }
    }

    /// Resolve a metric name (`pmLookupName`).
    pub fn lookup(&self, name: &str) -> Option<MetricId> {
        if let Some(id) = self.pmns.lookup(name) {
            return Some(id);
        }
        if let Some(idx) = SELF_METRICS.iter().position(|row| row.0 == name) {
            return Some(MetricId(SELF_METRIC_BASE + idx as u32));
        }
        let bare = name.strip_prefix(OBS_PREFIX)?;
        self.registry()
            .export()
            .iter()
            .position(|e| e.name == bare)
            .map(|idx| MetricId(OBS_METRIC_BASE + idx as u32))
    }

    /// Metric descriptor (`pmLookupDesc`).
    pub fn desc(&self, id: MetricId) -> Option<MetricDesc> {
        if let Some(idx) = id.0.checked_sub(OBS_METRIC_BASE) {
            let entry = self.registry().export().into_iter().nth(idx as usize)?;
            return Some(operational_desc(
                id,
                format!("{OBS_PREFIX}{}", entry.name),
                "count",
                obs_semantics(entry.semantics),
            ));
        }
        if let Some(idx) = id.0.checked_sub(SELF_METRIC_BASE) {
            let &(name, units, semantics, _) = SELF_METRICS.get(idx as usize)?;
            return Some(operational_desc(id, name.to_owned(), units, semantics));
        }
        self.pmns.desc(id).cloned()
    }

    /// All metric names under a dotted prefix (`pmGetChildren`,
    /// flattened): hardware metrics, then self-metrics, then the
    /// registry export.
    pub fn children(&self, prefix: &str) -> Vec<String> {
        let under = |name: &str| prefix.is_empty() || name.starts_with(prefix);
        let mut names: Vec<String> = self
            .pmns
            .children(prefix)
            .into_iter()
            .map(str::to_owned)
            .collect();
        names.extend(
            SELF_METRICS
                .iter()
                .filter(|row| under(row.0))
                .map(|row| row.0.to_owned()),
        );
        names.extend(
            self.registry()
                .export()
                .iter()
                .map(|e| format!("{OBS_PREFIX}{}", e.name))
                .filter(|n| under(n)),
        );
        names
    }

    /// Fetch a batch of values (`pmFetch`); `None` marks an unknown
    /// metric or an invalid instance. `queue_depth` is the transport's
    /// live connection-queue depth (0 where there is no queue). The
    /// fetch is recorded in the latency histogram once, *after* its
    /// values are read — a fetch of `pmcd.fetch.count` reports the
    /// fetches completed before it.
    pub fn fetch(
        &self,
        requests: impl ExactSizeIterator<Item = (MetricId, InstanceId)>,
        queue_depth: u64,
    ) -> Vec<Option<u64>> {
        let _span = obs::span!("pmcd.fetch", requests.len() as u64);
        let start = std::time::Instant::now();
        // One registry export answers every `pmcd.obs.*` id in the
        // batch: re-exporting per request would let counters advance
        // mid-fetch and return torn batches (count moved, sum not).
        let mut obs_snap: Option<Vec<Exported>> = None;
        let values = requests
            .map(|(id, inst)| self.value(id, inst, queue_depth, &mut obs_snap))
            .collect();
        self.stats
            .fetch_hist
            .record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        values
    }

    /// The one `(metric, instance) → value` map of a PMCD. Nest values
    /// appear on each socket's publisher CPU, other valid CPUs read
    /// zero (matching the real perfevent export), invalid instances
    /// read `None`. Self-metrics and the registry export are
    /// instance-less: any instance reads the same value.
    fn value(
        &self,
        id: MetricId,
        inst: InstanceId,
        queue_depth: u64,
        obs_snap: &mut Option<Vec<Exported>>,
    ) -> Option<u64> {
        if let Some(idx) = id.0.checked_sub(OBS_METRIC_BASE) {
            let snap = obs_snap.get_or_insert_with(|| self.registry().export());
            return snap.get(idx as usize).map(|e| e.value);
        }
        if let Some(idx) = id.0.checked_sub(SELF_METRIC_BASE) {
            let row = SELF_METRICS.get(idx as usize)?;
            return Some(self.stats.value(row.3, queue_depth));
        }
        let desc = self.pmns.desc(id)?;
        if !self.pmns.valid_instance(inst) {
            return None;
        }
        match self.pmns.socket_of_instance(inst) {
            Some(socket) => self
                .sockets
                .get(socket)
                .map(|shared| shared.counters().channel(desc.channel, desc.direction)),
            None => Some(0),
        }
    }

    /// Render the daemon's OpenMetrics exposition: the self-metric
    /// table, then the registry export under `pmcd.obs.`, in one pass
    /// over one [`obs::Snapshot`] — the same scalars-plus-timestamp pair
    /// the store ingest and the archive scheduler consume.
    pub fn exposition(&self, scrape_ts_ns: u64, queue_depth: u64) -> String {
        use obs::openmetrics::{render, sanitize, MetricKind, OmSample, Value};
        let snap = obs::Snapshot::take(self.registry(), scrape_ts_ns);
        let mut samples: Vec<OmSample> =
            Vec::with_capacity(SELF_METRICS.len() + snap.scalars.len());
        for &(name, _units, semantics, source) in &SELF_METRICS {
            samples.push(OmSample::new(
                sanitize(name),
                match semantics {
                    MetricSemantics::Counter => MetricKind::Counter,
                    MetricSemantics::Instant => MetricKind::Gauge,
                },
                Value::Int(self.stats.value(source, queue_depth)),
            ));
        }
        for e in &snap.scalars {
            samples.push(OmSample::new(
                sanitize(&format!("{OBS_PREFIX}{}", e.name)),
                match e.semantics {
                    ExportSemantics::Counter => MetricKind::Counter,
                    ExportSemantics::Instant => MetricKind::Gauge,
                },
                Value::Int(e.value),
            ));
        }
        render(&samples, Some(snap.t_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p9_arch::Machine;
    use p9_memsim::SimMachine;

    fn core_with(registry: Option<Arc<obs::Registry>>) -> FetchCore {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let sockets = (0..m.num_sockets()).map(|s| m.socket_shared(s)).collect();
        FetchCore::new(Pmns::for_machine(m.arch()), sockets, registry)
    }

    /// The one table: names and order are wire API, bucket names state
    /// their exact threshold, and every row tracks the activity its
    /// source counts.
    #[test]
    fn self_metric_table_is_stable_and_tracks_activity() {
        let names: Vec<&str> = SELF_METRICS.iter().map(|row| row.0).collect();
        assert_eq!(
            names,
            [
                "pmcd.pdu.in",
                "pmcd.pdu.out",
                "pmcd.pdu.error",
                "pmcd.client.current",
                "pmcd.client.total",
                "pmcd.client.rejected",
                "pmcd.fetch.count",
                "pmcd.fetch.latency_ns.sum",
                "pmcd.fetch.latency_ns.lt_1024",
                "pmcd.fetch.latency_ns.lt_16384",
                "pmcd.fetch.latency_ns.lt_131072",
                "pmcd.fetch.latency_ns.lt_1048576",
                "pmcd.fetch.latency_ns.lt_16777216",
                "pmcd.queue.depth",
                "pmcd.queue.shed",
            ]
        );
        for (name, _, _, source) in SELF_METRICS {
            if let Source::FetchLatencyBelowPow2(k) = source {
                let threshold: u64 = name
                    .rsplit("lt_")
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("bucket name ends in its threshold");
                assert_eq!(threshold, 1u64 << k, "{name}");
            }
        }

        let core = core_with(None);
        let stats = core.stats();
        for (idx, (name, ..)) in SELF_METRICS.iter().enumerate() {
            let id = core.lookup(name).expect("table name resolves");
            assert_eq!(id, MetricId(SELF_METRIC_BASE + idx as u32));
            assert_eq!(core.desc(id).expect("desc").name, *name);
            assert_eq!(stats.value(SELF_METRICS[idx].3, 0), 0, "{name} starts at 0");
        }
        assert!(core.desc(MetricId(SELF_METRIC_BASE + 15)).is_none());

        stats.count_pdu_in();
        stats.count_pdu_out();
        stats.count_pdu_error();
        assert_eq!(stats.client_connected(), 1);
        assert_eq!(stats.client_connected(), 2);
        stats.client_disconnected();
        stats.count_client_rejected();
        stats.fetch_hist.record(900); // < 1024
        stats.fetch_hist.record(60_000); // < 131072
        stats.fetch_hist.record(100_000_000); // above all buckets

        // One batch: every value is read before the fetch records itself.
        let expect = [
            ("pmcd.pdu.in", 1),
            ("pmcd.pdu.out", 1),
            ("pmcd.pdu.error", 1),
            ("pmcd.client.current", 1),
            ("pmcd.client.total", 2),
            ("pmcd.client.rejected", 1),
            ("pmcd.fetch.count", 3), // the +inf bucket
            ("pmcd.fetch.latency_ns.sum", 900 + 60_000 + 100_000_000),
            ("pmcd.fetch.latency_ns.lt_1024", 1),
            ("pmcd.fetch.latency_ns.lt_16384", 1), // cumulative
            ("pmcd.fetch.latency_ns.lt_131072", 2),
            ("pmcd.fetch.latency_ns.lt_1048576", 2),
            ("pmcd.fetch.latency_ns.lt_16777216", 2),
            ("pmcd.queue.depth", 7),
            ("pmcd.queue.shed", 1),
        ];
        let batch = expect.map(|(name, _)| (core.lookup(name).expect(name), InstanceId(0)));
        assert_eq!(
            core.fetch(batch.into_iter(), 7),
            expect.map(|(_, v)| Some(v))
        );
        // The snapshot's distribution agrees with the scalar export.
        let snap = stats.snapshot();
        assert_eq!(snap.fetch_count, 4, "the batch above was recorded once");
        assert_eq!(snap.fetch_latency.count(), 4);
        assert_eq!(snap.clients_rejected, 1);
    }

    #[test]
    fn registry_is_exported_under_pmcd_obs() {
        let reg = Arc::new(obs::Registry::new());
        reg.counter("core.test_counter").add(17);
        let core = core_with(Some(reg));
        let id = core.lookup("pmcd.obs.core.test_counter").expect("resolves");
        assert_eq!(id, MetricId(OBS_METRIC_BASE));
        assert_eq!(
            core.fetch([(id, InstanceId(0))].into_iter(), 0),
            vec![Some(17)]
        );
        let desc = core.desc(id).expect("desc");
        assert_eq!(desc.name, "pmcd.obs.core.test_counter");
        assert_eq!(desc.semantics, MetricSemantics::Counter);
        assert!(core
            .children("pmcd")
            .contains(&"pmcd.obs.core.test_counter".to_owned()));
        assert!(core.lookup("pmcd.obs.nope").is_none());
        assert!(core.lookup("core.test_counter").is_none());
        assert!(core.desc(MetricId(OBS_METRIC_BASE + 1)).is_none());
    }
}
