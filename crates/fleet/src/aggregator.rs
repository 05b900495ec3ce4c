//! The federating aggregator: scrape fan-out, merge, re-exposition,
//! store ingest, fleet-level alerting — and always-on pass tracing
//! feeding the `/debug/*` diagnostics plane (DESIGN.md §16).
//!
//! Every [`Aggregator::scrape_pass`] mints a pass-level trace id and
//! hands each host scrape a child id (`obs::stitch::fanout_child_id`)
//! that rides the `Pdu::Exposition` frame (protocol v3). The pass body
//! is wrapped in phase spans (fan-out / merge / ingest); after the
//! pass closes, the aggregator drains its rings and stitches an
//! [`obs::stitch::FanoutTrace`] whose phase shares sum to the measured
//! pass wall time exactly and whose straggler host feeds the
//! `fleet.pass.straggler_ns` / `fleet.pass.skew_ratio` metrics.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::derive::{Monitor, Predicate, Rule};
use obs::openmetrics::{from_exported, render, MetricKind, Value};
use obs::stitch::{self, FanoutTrace};
use obs::sync::{Mutex, Rank};
use pcp_wire::pool::{BoundedQueue, Pop};
use pcp_wire::scrape::{HttpResponse, RequestHandler, CONTENT_TYPE};
use pcp_wire::{ScrapeListener, WireClient};
use store::{SeriesKey, Store, StoreConfig};

use crate::debug::{DebugPlane, PassRecord, DEFAULT_DEBUG_PASSES};
use crate::host::Fleet;
use crate::merge::{merge, HostScrape, MergeOutcome};
use crate::FleetError;

/// Samples the fleet [`Monitor`] keeps per watched metric.
const MONITOR_CAPACITY: usize = 128;

/// Aggregator tuning knobs.
#[derive(Clone, Debug)]
pub struct AggregatorConfig {
    /// Scrape fan-out workers (concurrent host connections).
    pub workers: usize,
    /// Per-connection I/O timeout for host scrapes.
    pub io_timeout: Duration,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            workers: 8,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// The outcome of one [`Aggregator::scrape_pass`].
#[derive(Clone, Debug)]
pub struct PassReport {
    /// Timestamp the pass was stamped with.
    pub t_ns: u64,
    /// Hosts scraped successfully.
    pub scraped: usize,
    /// Hostnames that failed to scrape this pass (dead, refused, or
    /// served an unparseable document).
    pub stale: Vec<String>,
    /// Series in the merged document.
    pub merged_series: usize,
    /// Kind conflicts dropped by the merge.
    pub kind_conflicts: u64,
    /// Alerts fired by the fleet monitor at this tick.
    pub alerts: Vec<obs::Alert>,
    /// The merged host-sample section, rendered without a timestamp —
    /// the deterministic part of the fleet document (fleet self-metrics
    /// carry wall-clock latencies and are appended separately).
    pub host_text: String,
    /// Samples ingested into the fleet store this pass.
    pub samples_ingested: u64,
    /// Pass-level trace id (child scrape ids are
    /// `stitch::fanout_child_id(pass_id, host_index)`).
    pub pass_id: u64,
    /// The stitched fan-out tree for this pass; `None` when the pass
    /// span was lost to ring eviction.
    pub trace: Option<FanoutTrace>,
}

/// One scrape target, fixed at aggregator construction so a killed
/// host keeps its slot (and its staleness identity).
struct Target {
    name: String,
    addr: SocketAddr,
    /// `fleet.host.stale.<name>` gauge: 1 while the last pass failed.
    stale: Arc<obs::Gauge>,
}

/// The federating aggregator over one [`Fleet`].
pub struct Aggregator {
    cfg: AggregatorConfig,
    targets: Vec<Target>,
    /// One scrape session per target, kept across passes: `None` until
    /// the first scrape and after any failure, so the next pass
    /// reconnects. Lent to a fan-out worker for the pass and handed back
    /// with its result — no lock.
    sessions: Vec<Option<WireClient>>,
    registry: Arc<obs::Registry>,
    scrape_ok: Arc<obs::Counter>,
    scrape_err: Arc<obs::Counter>,
    scrape_latency: Arc<obs::Histogram>,
    hosts_stale: Arc<obs::Gauge>,
    series_merged: Arc<obs::Gauge>,
    queue_shed: Arc<obs::Counter>,
    sim_bytes: Arc<obs::Counter>,
    straggler_ns: Arc<obs::Histogram>,
    skew_ratio: Arc<obs::Gauge>,
    prev_shed: u64,
    prev_sim_bytes: u64,
    monitor: Monitor,
    store: Arc<Store>,
    debug: Arc<DebugPlane>,
    /// The fleet document: written at the end of a pass, cloned out by
    /// the scrape provider.
    published: Arc<Mutex<String>>,
    listener: Option<ScrapeListener>,
}

impl Aggregator {
    /// Build an aggregator over `fleet`'s current hosts. Per-host
    /// staleness gauges and rules are registered in host index order,
    /// so the fleet registry's export layout is deterministic.
    pub fn new(fleet: &Fleet, cfg: AggregatorConfig) -> Self {
        let registry = Arc::new(obs::Registry::new());
        let scrape_ok = registry.counter("fleet.scrape.ok");
        let scrape_err = registry.counter("fleet.scrape.err");
        let scrape_latency = registry.histogram("fleet.scrape.latency_ns");
        let hosts_gauge = registry.gauge("fleet.hosts");
        let hosts_stale = registry.gauge("fleet.hosts.stale");
        let series_merged = registry.gauge("fleet.series.merged");
        let queue_shed = registry.counter("fleet.queue.shed");
        let sim_bytes = registry.counter("fleet.sim.bytes");
        let straggler_ns = registry.histogram("fleet.pass.straggler_ns");
        let skew_ratio = registry.gauge("fleet.pass.skew_ratio");

        let mut rules = vec![Rule {
            name: "alert.fleet.any_shedding",
            metric: "fleet.queue.shed",
            predicate: Predicate::RateAbove(0.0),
        }];
        let targets: Vec<Target> = fleet
            .hosts()
            .iter()
            .map(|h| {
                // Rule metrics are `&'static str`; one bounded leak per
                // host for the fleet's lifetime (same policy as the wire
                // client's units interning).
                let metric: &'static str =
                    Box::leak(format!("fleet.host.stale.{}", h.name()).into_boxed_str());
                rules.push(Rule {
                    name: "alert.fleet.host_stale",
                    metric,
                    predicate: Predicate::ValueAbove(0),
                });
                Target {
                    name: h.name().to_string(),
                    addr: h.addr(),
                    stale: registry.gauge(metric),
                }
            })
            .collect();
        hosts_gauge.set(targets.len() as u64);

        let store = Arc::new(Store::new(StoreConfig::default()));
        let debug = Arc::new(DebugPlane::new(DEFAULT_DEBUG_PASSES, Arc::clone(&store)));
        Aggregator {
            monitor: Monitor::new(MONITOR_CAPACITY, rules),
            cfg,
            sessions: targets.iter().map(|_| None).collect(),
            targets,
            registry,
            scrape_ok,
            scrape_err,
            scrape_latency,
            hosts_stale,
            series_merged,
            queue_shed,
            sim_bytes,
            straggler_ns,
            skew_ratio,
            prev_shed: 0,
            prev_sim_bytes: 0,
            store,
            debug,
            published: Arc::new(Mutex::new(Rank::FLEET_PUBLISHED, String::from("# EOF\n"))),
            listener: None,
        }
    }

    /// The fleet-level obs registry (`fleet.*` self-metrics).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// The fleet store every merged pass is ingested into.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Point host slot `index` at a different address. A fault-injection
    /// lever: tests retarget a slot at a listener that accepts but never
    /// answers to manufacture a straggler (or at a closed port to kill
    /// the host) without disturbing the slot's staleness identity. The
    /// slot's session to the old address is dropped.
    pub fn retarget_host(&mut self, index: usize, addr: SocketAddr) {
        if let Some(t) = self.targets.get_mut(index) {
            t.addr = addr;
            self.sessions[index] = None;
        }
    }

    /// Scrape one host over its session, connecting first if it has
    /// none, and parse strictly. Any failure — refused connection,
    /// protocol error, unparseable document — makes the host stale for
    /// this pass (the caller then drops the session, so the next pass
    /// reconnects). `trace_id` (the pass's fan-out child id for this
    /// slot) rides the Exposition frame so the host's own render span
    /// joins this pass's trace tree.
    fn scrape_one(
        &self,
        target: &Target,
        session: &mut Option<WireClient>,
        trace_id: u64,
    ) -> Result<HostScrape, String> {
        let client = match session {
            Some(client) => client,
            None => session.insert(
                WireClient::connect_with_timeout(target.addr, self.cfg.io_timeout)
                    .map_err(|e| format!("connect: {e:?}"))?,
            ),
        };
        let text = client
            .scrape_exposition_traced(trace_id)
            .map_err(|e| format!("scrape: {e:?}"))?;
        let parsed = obs::openmetrics::parse(&text).map_err(|e| format!("parse: {e}"))?;
        Ok(HostScrape {
            host: target.name.clone(),
            samples: parsed.samples,
        })
    }

    /// One federation pass at `t_ns`: fan scrapes out across the
    /// worker pool, merge deterministically, update fleet self-metrics,
    /// tick the monitor, ingest into the store, and publish the new
    /// fleet document.
    ///
    /// The whole pass runs under a `fleet.pass` span with
    /// `fleet.pass.fanout` / `.merge` / `.ingest` phase children, each
    /// host scrape under a `fleet.host.scrape` span carrying its
    /// fan-out child id, and the drained events are stitched into the
    /// report's [`FanoutTrace`] and recorded on the debug plane.
    pub fn scrape_pass(&mut self, t_ns: u64) -> PassReport {
        let pass_id = obs::trace::next_trace_id();
        let pass_span = obs::span!(stitch::PASS_SPAN, pass_id);

        // --- fan out ----------------------------------------------------
        let fanout_span = obs::span!(stitch::PASS_FANOUT_SPAN);
        let queue: BoundedQueue<(usize, Option<WireClient>)> =
            BoundedQueue::new(self.targets.len().max(1));
        for (i, session) in self.sessions.iter_mut().enumerate() {
            let _ = queue.try_push((i, session.take()));
        }
        queue.close();
        let workers = self.cfg.workers.max(1);
        let mut slots: Vec<Option<Result<HostScrape, String>>> =
            (0..self.targets.len()).map(|_| None).collect();
        let mut latencies: Vec<(usize, u64)> = Vec::with_capacity(self.targets.len());
        let done: Vec<_> = std::thread::scope(|scope| {
            let queue = &queue;
            let this = &*self;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            match queue.pop_timeout(Duration::from_millis(10)) {
                                Pop::Item((i, mut session)) => {
                                    let child = stitch::fanout_child_id(pass_id, i as u64);
                                    let started = Instant::now();
                                    let result = {
                                        let _host = obs::span!(stitch::HOST_SCRAPE_SPAN, child);
                                        this.scrape_one(&this.targets[i], &mut session, child)
                                    };
                                    if result.is_err() {
                                        obs::instant!(stitch::HOST_FAIL_INSTANT, child);
                                        // Whatever failed, the session is
                                        // suspect: the next pass re-dials.
                                        session = None;
                                    }
                                    let lat = started.elapsed().as_nanos().min(u64::MAX as u128);
                                    done.push((i, result, session, lat as u64));
                                }
                                Pop::TimedOut => {}
                                Pop::Closed => return done,
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().ok())
                .flatten()
                .collect()
        });
        for (i, result, session, lat) in done {
            slots[i] = Some(result);
            latencies.push((i, lat));
            self.sessions[i] = session;
        }
        drop(fanout_span);
        // Record latencies in host index order: the histogram is
        // order-insensitive, but deterministic iteration costs nothing.
        latencies.sort_unstable_by_key(|&(i, _)| i);
        for &(_, lat) in &latencies {
            self.scrape_latency.record(lat);
        }

        // --- classify ---------------------------------------------------
        let mut stale: Vec<String> = Vec::new();
        let scrapes: Vec<Option<HostScrape>> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(Ok(s)) => {
                    self.scrape_ok.inc();
                    self.targets[i].stale.set(0);
                    Some(s)
                }
                Some(Err(_)) | None => {
                    self.scrape_err.inc();
                    self.targets[i].stale.set(1);
                    stale.push(self.targets[i].name.clone());
                    None
                }
            })
            .collect();

        // --- merge ------------------------------------------------------
        let merge_span = obs::span!(stitch::PASS_MERGE_SPAN);
        let scraped = scrapes.iter().filter(|s| s.is_some()).count();
        let merged: MergeOutcome = merge(scrapes);
        let merged_series = merged.samples.len();
        let host_text = render(&merged.samples, None);
        self.series_merged.set(merged_series as u64);
        self.hosts_stale.set(stale.len() as u64);

        // Fold per-host monotone counters into fleet-level accumulators
        // (delta-accumulated: a dead host freezes its contribution
        // instead of deflating the fleet counter).
        let sum_of = |name: &str| -> u64 {
            merged
                .samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| match s.value {
                    Value::Int(v) => v,
                    Value::Float(_) => 0,
                })
                .sum()
        };
        let shed_now = sum_of("pmcd_queue_shed");
        self.queue_shed.add(shed_now.saturating_sub(self.prev_shed));
        self.prev_shed = self.prev_shed.max(shed_now);
        let sim_now = sum_of("pmcd_obs_host_sim_bytes");
        self.sim_bytes
            .add(sim_now.saturating_sub(self.prev_sim_bytes));
        self.prev_sim_bytes = self.prev_sim_bytes.max(sim_now);
        drop(merge_span);

        // --- store ingest -----------------------------------------------
        let ingest_span = obs::span!(stitch::PASS_INGEST_SPAN);
        let mut samples_ingested = 0u64;
        for s in merged.samples {
            let Value::Int(v) = s.value else {
                continue; // merged host docs are integer-only today
            };
            let key = SeriesKey::from_parts(s.name, s.labels);
            let semantics = match s.kind {
                MetricKind::Counter => obs::metrics::ExportSemantics::Counter,
                MetricKind::Gauge => obs::metrics::ExportSemantics::Instant,
            };
            if self.store.ingest(&key, semantics, t_ns, v).is_ok() {
                samples_ingested += 1;
            }
        }
        drop(ingest_span);

        // --- stitch -----------------------------------------------------
        // Close the pass span before draining so its record is in the
        // ring; everything below is bookkeeping outside the pass wall.
        drop(pass_span);
        // Keep only this pass's events (obs::stitch owns which ones
        // belong) and stitch them.
        let (events, trace) = stitch::stitch_pass(obs::trace::drain(), pass_id, self.targets.len());
        if let Some(t) = &trace {
            self.straggler_ns.record(t.straggler_ns());
            self.skew_ratio.set(t.skew_ratio_permille());
        }

        // --- monitor ----------------------------------------------------
        let snap = obs::Snapshot::take(&self.registry, t_ns);
        let alerts = self.monitor.tick(t_ns, &snap.scalars);

        // Fleet self-metrics ride along under host="fleet".
        let _ = self.store.ingest_snapshot("", &[("host", "fleet")], &snap);

        // --- publish ----------------------------------------------------
        let mut doc = String::with_capacity(host_text.len() + 1024);
        doc.push_str("# scrape_ts_ns ");
        doc.push_str(&t_ns.to_string());
        doc.push('\n');
        // Merged host section first, then fleet self-metrics — all
        // metric names stay unique (`fleet_*` never collides with the
        // sanitized `pmcd_*`/`perfevent_*` host names), so the full
        // document still passes the strict parser.
        doc.push_str(host_text.trim_end_matches("# EOF\n"));
        let fleet_section = render(&from_exported(&snap.scalars), None);
        doc.push_str(&fleet_section);
        {
            let mut published = self.published.lock();
            *published = doc;
        }

        self.debug.record_pass(PassRecord {
            pass_id,
            t_ns,
            scraped,
            stale: stale.len(),
            merged_series,
            samples_ingested,
            trace: trace.clone(),
            events,
        });

        PassReport {
            t_ns,
            scraped,
            stale,
            merged_series,
            kind_conflicts: merged.kind_conflicts,
            alerts,
            host_text,
            samples_ingested,
            pass_id,
            trace,
        }
    }

    /// The currently published fleet document (what `/metrics` serves).
    pub fn published(&self) -> String {
        self.published.lock().clone()
    }

    /// Expose the fleet document on `/metrics` (and `/`) plus the
    /// diagnostics plane on `/debug/*`, all from one HTTP listener.
    /// Returns the bound address; idempotent per aggregator (a second
    /// call replaces the listener).
    pub fn serve_http<A: std::net::ToSocketAddrs>(
        &mut self,
        addr: A,
    ) -> Result<SocketAddr, FleetError> {
        let published = Arc::clone(&self.published);
        let debug = Arc::clone(&self.debug);
        let handler: RequestHandler = Arc::new(move |path: &str, query: &str| {
            if path == "/metrics" || path == "/" {
                let doc = published.lock().clone();
                return Some(HttpResponse::ok(CONTENT_TYPE, doc));
            }
            debug.handle(path, query)
        });
        let listener = ScrapeListener::bind_handler(addr, handler, 2, 16)?;
        let bound = listener.local_addr();
        self.listener = Some(listener);
        Ok(bound)
    }
}
