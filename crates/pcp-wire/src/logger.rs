//! The sampling scheduler — `pmlogger` against a live server.
//!
//! `pcp_sim::PmLogger` is pumped by its caller on *simulated* time. A
//! networked PMCD has real wall-clock clients, so this scheduler runs a
//! background thread that fetches each configured metric set on its own
//! fixed wall-clock cadence and appends the samples to a
//! [`pcp_sim::Archive`] per schedule. Multiple schedules at different
//! intervals share one connection (one thread, one [`PmApi`] handle),
//! exactly like one `pmlogger` process recording several logging groups.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::sync::{Mutex, Rank};
use pcp_sim::pmns::{InstanceId, MetricId};
use pcp_sim::{Archive, ArchiveRecord, PcpError, PmApi};
use store::{Selector, SeriesKey, Store, StoreError};

/// One logging group: a named metric set sampled at a fixed cadence.
#[derive(Clone, Debug)]
pub struct ScheduleSpec {
    /// Archive name (e.g. `"nest-1hz"`).
    pub name: String,
    /// Metrics to fetch, one batched round trip per sample.
    pub metrics: Vec<(MetricId, InstanceId)>,
    /// Wall-clock sampling interval.
    pub interval: Duration,
}

struct Group {
    name: String,
    archive: Archive,
    interval: Duration,
    next_due: Duration,
    /// First error that stopped this group, if any.
    error: Option<PcpError>,
}

/// A running sampler. Dropping it stops the thread; [`stop`] returns the
/// recorded archives.
///
/// [`stop`]: SamplingScheduler::stop
pub struct SamplingScheduler {
    stop: Arc<AtomicBool>,
    /// The sample loop fetches and ingests while holding it.
    groups: Arc<Mutex<Vec<Group>>>,
    thread: Option<JoinHandle<()>>,
}

impl SamplingScheduler {
    /// Start sampling `specs` through `ctx`. Each group takes its first
    /// sample immediately, then every `interval` thereafter. Fails only
    /// if the OS refuses to spawn the sampling thread.
    pub fn start(
        ctx: impl PmApi + 'static,
        specs: Vec<ScheduleSpec>,
    ) -> Result<Self, std::io::Error> {
        Self::launch(ctx, specs, None)
    }

    /// [`start`](Self::start), with every sample *also* ingested into
    /// `store` as it is appended to the archive. Both writes share one
    /// timestamp (`time_s = t_ns / 1e9`, computed once per fetch), so
    /// the store-backed record stream is sample-identical to the log —
    /// see [`archive_from_store`].
    pub fn start_with_store(
        ctx: impl PmApi + 'static,
        specs: Vec<ScheduleSpec>,
        store: Arc<Store>,
    ) -> Result<Self, std::io::Error> {
        Self::launch(ctx, specs, Some(store))
    }

    fn launch(
        ctx: impl PmApi + 'static,
        specs: Vec<ScheduleSpec>,
        store: Option<Arc<Store>>,
    ) -> Result<Self, std::io::Error> {
        assert!(!specs.is_empty(), "scheduler needs at least one group");
        for s in &specs {
            assert!(
                s.interval > Duration::ZERO,
                "schedule {:?} must have a positive interval",
                s.name
            );
        }
        let groups: Vec<Group> = specs
            .into_iter()
            .map(|s| Group {
                name: s.name,
                archive: Archive::new(s.metrics),
                interval: s.interval,
                next_due: Duration::ZERO,
                error: None,
            })
            .collect();
        let groups = Arc::new(Mutex::new(Rank::WIRE_GROUPS, groups));
        let stop = Arc::new(AtomicBool::new(false));

        let t_groups = Arc::clone(&groups);
        let t_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("pmlogger".into())
            .spawn(move || sample_loop(Box::new(ctx), t_groups, t_stop, store))?;

        Ok(SamplingScheduler {
            stop,
            groups,
            thread: Some(thread),
        })
    }

    /// Stop sampling and hand over the archives, in schedule order. The
    /// second element carries the error that halted a group early, if any
    /// (its archive keeps the samples recorded before the failure).
    pub fn stop(mut self) -> Vec<(String, Archive, Option<PcpError>)> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let mut groups = self.groups.lock();
        groups
            .drain(..)
            .map(|g| (g.name, g.archive, g.error))
            .collect()
    }

    /// Number of samples recorded so far per group (for progress checks
    /// while the sampler runs).
    pub fn sample_counts(&self) -> Vec<(String, usize)> {
        let groups = self.groups.lock();
        groups
            .iter()
            .map(|g| (g.name.clone(), g.archive.len()))
            .collect()
    }
}

impl Drop for SamplingScheduler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The store key for one column of a logging group's archive: the
/// group is the metric name, the PMNS identity rides in labels.
fn series_key(group: &str, id: MetricId, inst: InstanceId) -> SeriesKey {
    SeriesKey::new(group)
        .with_label("metric", id.0.to_string())
        .with_label("inst", inst.0.to_string())
}

fn sample_loop(
    ctx: Box<dyn PmApi>,
    groups: Arc<Mutex<Vec<Group>>>,
    stop: Arc<AtomicBool>,
    store: Option<Arc<Store>>,
) {
    let epoch = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let now = epoch.elapsed();
        let mut next_wake = now + Duration::from_millis(50);
        {
            let mut groups = groups.lock();
            for g in groups.iter_mut() {
                if g.error.is_some() {
                    continue;
                }
                if now >= g.next_due {
                    // One timestamp per fetch, shared verbatim by the
                    // archive record and the store ingest, so the two
                    // histories agree by construction.
                    let t_ns = now.as_nanos() as u64;
                    match ctx.pm_fetch(g.archive.metrics()) {
                        Ok(values) => {
                            if let Some(store) = &store {
                                for ((id, inst), v) in g.archive.metrics().iter().zip(&values) {
                                    let _ = store.ingest(
                                        &series_key(&g.name, *id, *inst),
                                        obs::metrics::ExportSemantics::Counter,
                                        t_ns,
                                        *v,
                                    );
                                }
                            }
                            g.archive.push(ArchiveRecord {
                                time_s: t_ns as f64 / 1e9,
                                values,
                            });
                        }
                        Err(e) => {
                            g.error = Some(e);
                            continue;
                        }
                    }
                    // Cadence anchored at the schedule, not at poll
                    // jitter — same policy as PmLogger.
                    g.next_due += g.interval;
                    if g.next_due <= now {
                        // Fell behind (slow fetch): resynchronise rather
                        // than burst-sample to catch up.
                        g.next_due = now + g.interval;
                    }
                }
                next_wake = next_wake.min(g.next_due);
            }
        }
        let now = epoch.elapsed();
        if next_wake > now {
            // Short bounded sleeps keep stop() responsive.
            obs::sync::about_to_block("sample_loop sleep");
            std::thread::sleep((next_wake - now).min(Duration::from_millis(20)));
        }
    }
}

/// Rebuild a logging group's [`Archive`] out of the compressed store.
///
/// With [`SamplingScheduler::start_with_store`] every fetch lands in
/// both histories under one timestamp, so the rebuilt archive is
/// *sample-identical* to the wall-clock log: same record count, same
/// `time_s` (bit-for-bit — both sides compute `t_ns as f64 / 1e9`),
/// same values in the same column order.
pub fn archive_from_store(
    store: &Store,
    group: &str,
    metrics: Vec<(MetricId, InstanceId)>,
) -> Result<Archive, StoreError> {
    let mut columns: Vec<Vec<store::SeriesData>> = Vec::with_capacity(metrics.len());
    for (id, inst) in &metrics {
        let key = series_key(group, *id, *inst);
        let sel = Selector::metric(key.metric())
            .with_label("metric", id.0.to_string())
            .with_label("inst", inst.0.to_string());
        columns.push(store.query(&sel, 0, u64::MAX)?);
    }
    let rows = columns
        .first()
        .and_then(|c| c.first())
        .map_or(0, |d| d.samples.len());
    let mut archive = Archive::new(metrics);
    for row in 0..rows {
        let mut t_ns = None;
        let mut values = Vec::with_capacity(columns.len());
        for col in &columns {
            let Some(sample) = col.first().and_then(|d| d.samples.get(row)) else {
                return Err(StoreError::Corrupt("store columns have unequal lengths"));
            };
            if *t_ns.get_or_insert(sample.t_ns) != sample.t_ns {
                return Err(StoreError::Corrupt("store columns disagree on timestamps"));
            }
            values.push(sample.value);
        }
        archive.push(ArchiveRecord {
            time_s: t_ns.unwrap_or(0) as f64 / 1e9,
            values,
        });
    }
    Ok(archive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_sim::pmns::MetricDesc;

    /// A PmApi stub counting fetches; value = fetch ordinal.
    struct Stub {
        calls: std::sync::atomic::AtomicU64,
        fail_after: u64,
    }

    impl PmApi for Stub {
        fn pm_lookup_name(&self, name: &str) -> Result<MetricId, PcpError> {
            Err(PcpError::NoSuchMetric(name.into()))
        }
        fn pm_get_desc(&self, _id: MetricId) -> Result<MetricDesc, PcpError> {
            Err(PcpError::BadMetricId)
        }
        fn pm_get_children(&self, _prefix: &str) -> Result<Vec<String>, PcpError> {
            Ok(vec![])
        }
        fn pm_fetch(&self, requests: &[(MetricId, InstanceId)]) -> Result<Vec<u64>, PcpError> {
            let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            if n > self.fail_after {
                return Err(PcpError::Disconnected);
            }
            Ok(vec![n; requests.len()])
        }
    }

    fn spec(name: &str, ms: u64) -> ScheduleSpec {
        ScheduleSpec {
            name: name.into(),
            metrics: vec![(MetricId(0), InstanceId(87))],
            interval: Duration::from_millis(ms),
        }
    }

    #[test]
    fn samples_on_cadence_and_stops_cleanly() {
        let stub = Stub {
            calls: 0.into(),
            fail_after: u64::MAX,
        };
        let sched = SamplingScheduler::start(stub, vec![spec("fast", 10)]).expect("start");
        std::thread::sleep(Duration::from_millis(120));
        let mut out = sched.stop();
        let (name, archive, err) = out.remove(0);
        assert_eq!(name, "fast");
        assert!(err.is_none());
        // ~12 samples expected in 120 ms at 10 ms cadence; be generous to
        // scheduler jitter but require real progress and monotonic time.
        assert!(archive.len() >= 4, "only {} samples", archive.len());
        let times: Vec<f64> = archive.records().iter().map(|r| r.time_s).collect();
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn independent_cadences_per_group() {
        let stub = Stub {
            calls: 0.into(),
            fail_after: u64::MAX,
        };
        let sched = SamplingScheduler::start(stub, vec![spec("fast", 10), spec("slow", 1000)])
            .expect("start");
        std::thread::sleep(Duration::from_millis(150));
        let out = sched.stop();
        let fast = out.iter().find(|(n, _, _)| n == "fast").unwrap();
        let slow = out.iter().find(|(n, _, _)| n == "slow").unwrap();
        assert!(fast.1.len() > slow.1.len());
        assert_eq!(slow.1.len(), 1, "slow group samples once at t=0");
    }

    #[test]
    fn fetch_failure_halts_group_but_keeps_archive() {
        let stub = Stub {
            calls: 0.into(),
            fail_after: 3,
        };
        let sched = SamplingScheduler::start(stub, vec![spec("flaky", 5)]).expect("start");
        std::thread::sleep(Duration::from_millis(100));
        let mut out = sched.stop();
        let (_, archive, err) = out.remove(0);
        assert_eq!(archive.len(), 3);
        assert_eq!(err, Some(PcpError::Disconnected));
    }

    #[test]
    fn store_backed_archive_is_sample_identical_to_the_log() {
        let stub = Stub {
            calls: 0.into(),
            fail_after: u64::MAX,
        };
        let store = Arc::new(Store::default());
        let metrics = vec![(MetricId(3), InstanceId(0)), (MetricId(9), InstanceId(4))];
        let sched = SamplingScheduler::start_with_store(
            stub,
            vec![ScheduleSpec {
                name: "dual".into(),
                metrics: metrics.clone(),
                interval: Duration::from_millis(10),
            }],
            Arc::clone(&store),
        )
        .expect("start");
        std::thread::sleep(Duration::from_millis(120));
        let mut out = sched.stop();
        let (_, logged, err) = out.remove(0);
        assert!(err.is_none());
        assert!(logged.len() >= 4, "only {} samples", logged.len());

        let rebuilt = archive_from_store(&store, "dual", metrics).expect("rebuild");
        assert_eq!(rebuilt.len(), logged.len());
        for (a, b) in rebuilt.records().iter().zip(logged.records()) {
            // Bit-identical timestamps: both sides compute t_ns / 1e9
            // from the same u64, so exact f64 equality is required.
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn drop_without_stop_joins_thread() {
        let stub = Stub {
            calls: 0.into(),
            fail_after: u64::MAX,
        };
        let sched = SamplingScheduler::start(stub, vec![spec("g", 10)]).expect("start");
        drop(sched); // must not hang or leak the thread
    }
}
