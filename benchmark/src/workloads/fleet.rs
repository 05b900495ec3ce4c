//! `fleet_scrape`: the other use of the wire. 64 simulated hosts, an
//! `Aggregator` with 2 workers and otherwise default configuration
//! (always-on pass tracing is the shipped behaviour), and a closed loop
//! of `tick_traffic` + `scrape_pass`: a fresh connection per host
//! scrape, exposition render, a big payload, strict parse, relabel,
//! merge and a small store ingest.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fleet::{merge_parallel, merge_reference, relabel, Aggregator, AggregatorConfig, Fleet};
use fleet::{HostScrape, PassReport};
use obs::openmetrics;
use pcp_wire::{PmcdServer, ScrapeListener, WireClient, WireConfig};

use crate::harness::{ns_per_call, repeated_setup, Checks, Ctx, EndToEnd, Layers};
use crate::spans::Recorder;
use crate::stats::{median, tail_or_max, Batch};

const HOSTS: usize = 64;
const WORKERS: usize = 2;
const WARMUP_PASSES: u64 = 3;
const ROUNDS: u64 = 20;
/// Passes per round of a nominal-length run: 200 passes in all, so p95
/// has exactly ten samples beyond it.
const PASSES_PER_ROUND: u64 = 10;
/// Traced run: a quarter of the passes, plus the peeled single steps.
const TRACED_PASSES: u64 = 50;
const HOST_SCRAPES: u64 = 1_000;
const MERGES: u64 = 40;
const HTTP_GETS: u64 = 100;
const SEC: u64 = 1_000_000_000;

struct Env {
    fleet: Fleet,
    agg: Aggregator,
    /// Passes made so far (traffic tick and timestamp source).
    pass: u64,
}

fn config() -> AggregatorConfig {
    AggregatorConfig {
        workers: WORKERS,
        ..AggregatorConfig::default()
    }
}

impl Env {
    fn pass(&mut self) -> PassReport {
        self.pass += 1;
        self.fleet.tick_traffic(self.pass);
        self.agg.scrape_pass(self.pass * SEC)
    }
}

fn setup(ctx: &Ctx) -> Result<Env, String> {
    let fleet = Fleet::spawn(HOSTS, ctx.stream_seed(3)).map_err(|e| format!("spawn: {e}"))?;
    let agg = Aggregator::new(&fleet, config());
    let mut env = Env {
        fleet,
        agg,
        pass: 0,
    };
    for _ in 0..WARMUP_PASSES {
        let report = env.pass();
        if report.scraped != HOSTS {
            return Err(format!(
                "warm-up scraped {} of {HOSTS} hosts",
                report.scraped
            ));
        }
    }
    Ok(env)
}

/// Per-pass bookkeeping shared by both run forms.
#[derive(Default)]
struct PassChecks {
    merged_series: Option<usize>,
    passes: u64,
    ingested: u64,
}

impl PassChecks {
    fn pass(&mut self, report: &PassReport, checks: &mut Checks) {
        checks.ok(report.scraped as u64);
        for host in &report.stale {
            checks.check(false, || {
                format!("pass at {}: {host} not scraped", report.t_ns)
            });
        }
        let first = *self.merged_series.get_or_insert(report.merged_series);
        checks.check(report.merged_series == first, || {
            format!(
                "merged series changed: {} then {}",
                first, report.merged_series
            )
        });
        self.passes += 1;
        self.ingested += report.samples_ingested;
    }

    /// The store must have grown by exactly what the passes ingested:
    /// the merged host samples each pass reported, plus one snapshot of
    /// the fleet's own registry per pass (stored under `host="fleet"`).
    fn finish(&self, env: &Env, stored_before: u64, checks: &mut Checks) {
        let grown = env.agg.store().sample_count() - stored_before;
        let own = self.passes * env.agg.registry().flattened_len() as u64;
        checks.check(grown == self.ingested + own, || {
            format!(
                "store grew by {grown} samples; passes ingested {} + {own} of the fleet's own",
                self.ingested
            )
        });
    }
}

pub fn untraced(ctx: &Ctx, checks: &mut Checks) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    let (env, setups) = repeated_setup(3, || setup(ctx));
    e2e.setups_s = setups;
    let Some(mut env) = checks.result("set-up", env) else {
        return e2e;
    };
    let stored_before = env.agg.store().sample_count();
    let passes = ctx.scaled(PASSES_PER_ROUND);
    let mut book = PassChecks::default();
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let t_round = Instant::now();
        for _ in 0..passes {
            let report = e2e.op(|| env.pass());
            book.pass(&report, checks);
        }
        rounds.push(Batch {
            work: (passes * HOSTS as u64) as f64,
            seconds: t_round.elapsed().as_secs_f64(),
        });
    }
    e2e.set_from_batches(&rounds);
    book.finish(&env, stored_before, checks);
    e2e
}

fn http_get(addr: SocketAddr) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("response has no header/body split")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("status: {}", head.lines().next().unwrap_or("")));
    }
    Ok(body.to_owned())
}

pub fn traced(ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder) -> Layers {
    let mut layers = Layers::default();
    let (env, spawn_s) = rec.timed("fleet.spawn", 0, || setup(ctx));
    let Some(mut env) = checks.result("set-up", env) else {
        return layers;
    };
    layers.set("fleet.spawn_ms_per_host", spawn_s * 1e3 / HOSTS as f64);
    // Outside in: one worker step against one host, then relabel and
    // merge on captured documents, then whole passes.
    host_steps(&env, checks, rec, &mut layers);
    merge_costs(&env, checks, rec, &mut layers);
    full_passes(ctx, &mut env, checks, rec, &mut layers);
    if let Some(addr) = checks.result("serve_http", env.agg.serve_http("127.0.0.1:0")) {
        let mut get_ms = Vec::new();
        for i in 0..HTTP_GETS {
            let (body, s) = rec.timed("fleet.http_get", i, || http_get(addr));
            checks.result("GET fleet /metrics", body);
            get_ms.push(s * 1e3);
        }
        layers.set("fleet.http_get_p50_ms", median(&get_ms));
    }
    obs_costs(&env, rec, &mut layers);
    host_server_costs(ctx, checks, rec, &mut layers);
    layers
}

/// What one aggregator worker does for one host: connect, scrape over
/// the PDU channel, strict-parse.
fn host_steps(env: &Env, checks: &mut Checks, rec: &mut Recorder, layers: &mut Layers) {
    let addr = env.fleet.hosts()[0].addr();
    let (mut connect_us, mut scrape_us, mut step_us) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..HOST_SCRAPES {
        let open = rec.begin("fleet.host_scrape", i);
        let t = Instant::now();
        let (client, c) = rec.timed("pcp-wire.connect", i, || WireClient::connect(addr));
        let (text, s) = rec.timed("pcp-wire.scrape_pdu", i, || {
            client.and_then(|c| c.scrape_exposition())
        });
        let doc = rec.span("obs.parse", i, || {
            text.map_err(|e| e.to_string())
                .and_then(|t| openmetrics::parse(&t))
        });
        step_us.push(t.elapsed().as_secs_f64() * 1e6);
        rec.end(open);
        checks.result("host scrape", doc);
        connect_us.push(c * 1e6);
        scrape_us.push(s * 1e6);
    }
    layers.set("pcp-wire.connect_us", median(&connect_us));
    layers.set("pcp-wire.scrape_pdu_p50_us", median(&scrape_us));
    layers.set("fleet.host_scrape_p50_us", median(&step_us));
    layers.set("fleet.host_scrape_p99_us", tail_or_max(&step_us, 0.99));
}

/// Relabel, merge, render and strict-parse, on one captured document
/// per host.
fn merge_costs(env: &Env, checks: &mut Checks, rec: &mut Recorder, layers: &mut Layers) {
    let scrapes: Vec<Option<HostScrape>> = env
        .fleet
        .hosts()
        .iter()
        .map(|h| {
            let doc = WireClient::connect(h.addr())
                .and_then(|c| c.scrape_exposition())
                .map_err(|e| e.to_string())
                .and_then(|t| openmetrics::parse(&t));
            checks.result("capture host", doc).map(|doc| HostScrape {
                host: h.name().to_owned(),
                samples: doc.samples,
            })
        })
        .collect();
    let Some(one) = scrapes.iter().flatten().next() else {
        return;
    };
    let relabel_ns = rec.span("fleet.relabel", 0, || {
        ns_per_call(20, 200, || {
            std::hint::black_box(relabel(one.samples.clone(), &one.host));
        })
    });
    // `relabel` takes its samples by value, so the timed call clones
    // them; time the clone alone and take it off.
    let clone_ns = ns_per_call(20, 200, || {
        std::hint::black_box(one.samples.clone());
    });
    layers.set(
        "fleet.relabel_ns_per_series",
        (relabel_ns - clone_ns) / one.samples.len() as f64,
    );

    let host_series: usize = scrapes.iter().flatten().map(|s| s.samples.len()).sum();
    let (mut parallel_ns, mut reference_ns) = (Vec::new(), Vec::new());
    for i in 0..MERGES {
        let (m, s) = rec.timed("fleet.merge_parallel", i, || {
            merge_parallel(&scrapes, WORKERS)
        });
        parallel_ns.push(s * 1e9 / host_series as f64);
        let (r, s) = rec.timed("fleet.merge_reference", i, || merge_reference(&scrapes));
        reference_ns.push(s * 1e9 / host_series as f64);
        checks.check(m == r, || {
            "parallel merge differs from the reference".into()
        });
    }
    layers.set("fleet.merge_ns_per_series", median(&parallel_ns));
    layers.set("fleet.merge_ref_ns_per_series", median(&reference_ns));

    let merged = merge_reference(&scrapes).samples;
    let mut text = String::new();
    let render_ns = rec.span("obs.render", 0, || {
        ns_per_call(20, 5, || text = openmetrics::render(&merged, Some(SEC)))
    });
    let parse_ns = rec.span("obs.parse_merged", 0, || {
        ns_per_call(20, 5, || {
            std::hint::black_box(openmetrics::parse(&text).ok());
        })
    });
    layers.set("obs.render_ns_per_series", render_ns / merged.len() as f64);
    layers.set("obs.parse_ns_per_series", parse_ns / merged.len() as f64);
    let reparsed = openmetrics::parse(&text).map(|d| d.samples.len());
    checks.check(reparsed == Ok(merged.len()), || {
        format!("merged document re-parsed as {reparsed:?} series")
    });
}

/// Whole passes; the phase split is read from the aggregator's own
/// public `PassReport.trace`.
fn full_passes(
    ctx: &Ctx,
    env: &mut Env,
    checks: &mut Checks,
    rec: &mut Recorder,
    layers: &mut Layers,
) {
    let stored_before = env.agg.store().sample_count();
    let mut book = PassChecks::default();
    let (mut pass_ms, mut straggler_ms) = (Vec::new(), Vec::new());
    let (mut fanout, mut merge, mut ingest, mut total) = (0u64, 0u64, 0u64, 0u64);
    let (mut merged_series, mut stale_hosts) = (0, 0);
    for i in 0..ctx.scaled(TRACED_PASSES) {
        let (report, s) = rec.timed("fleet.pass", i, || env.pass());
        book.pass(&report, checks);
        pass_ms.push(s * 1e3);
        checks.check(report.trace.is_some(), || "pass carried no trace".into());
        if let Some(trace) = &report.trace {
            fanout += trace.phase("fanout");
            merge += trace.phase("merge");
            ingest += trace.phase("ingest");
            total += trace.total();
            straggler_ms.push(trace.straggler_ns() as f64 / 1e6);
        }
        merged_series = report.merged_series;
        stale_hosts += report.stale.len();
    }
    book.finish(env, stored_before, checks);
    let share = |part: u64| part as f64 / total.max(1) as f64;
    layers.set("fleet.pass_p50_ms", median(&pass_ms));
    layers.set("fleet.pass_p95_ms", tail_or_max(&pass_ms, 0.95));
    layers.set("fleet.pass_fanout_share", share(fanout));
    layers.set("fleet.pass_merge_share", share(merge));
    layers.set("fleet.pass_ingest_share", share(ingest));
    layers.set("fleet.straggler_p50_ms", median(&straggler_ms));
    layers.set("fleet.merged_series", merged_series as f64);
    layers.set("fleet.stale_hosts", stale_hosts as f64);
}

/// The obs primitives a pass leans on, timed alone.
fn obs_costs(env: &Env, rec: &mut Recorder, layers: &mut Layers) {
    let open = rec.begin("obs.primitives", 0);
    layers.set(
        "obs.span_ns",
        ns_per_call(20, 2_000, || {
            // obs-ok: the measurement itself.
            let _span = obs::span!("bench.obs.span", 0);
        }),
    );
    // Spans above went to the tracer's rings; empty them untimed.
    let _ = obs::trace::drain();
    let registry = env.agg.registry();
    layers.set(
        "obs.registry_export_us",
        ns_per_call(20, 50, || {
            std::hint::black_box(registry.export());
        }) / 1e3,
    );
    let exported = registry.export();
    let mut monitor = obs::Monitor::new(128, Vec::new());
    let mut t_ns = 0;
    layers.set(
        "obs.monitor_tick_us",
        ns_per_call(20, 50, || {
            t_ns += SEC;
            std::hint::black_box(monitor.tick(t_ns, &exported));
        }) / 1e3,
    );
    rec.end(open);
}

/// One host-shaped server on its own: exposition render, and the same
/// document over the HTTP sidecar instead of the PDU channel.
fn host_server_costs(ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder, layers: &mut Layers) {
    let machine = p9_memsim::SimMachine::quiet(p9_arch::Machine::tellico(), ctx.stream_seed(4));
    let pmns = pcp_sim::Pmns::for_machine(machine.arch());
    let sockets = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let config = WireConfig {
        workers: 1,
        ..WireConfig::default()
    };
    let server = PmcdServer::bind_system("127.0.0.1:0", pmns, sockets, config);
    let Some(server) = checks.result("bind host server", server) else {
        return;
    };
    layers.set(
        "pcp-wire.server_exposition_us",
        rec.span("pcp-wire.server_exposition", 0, || {
            ns_per_call(20, 200, || {
                std::hint::black_box(server.exposition());
            }) / 1e3
        }),
    );
    let listener = ScrapeListener::bind("127.0.0.1:0", &server);
    let Some(listener) = checks.result("bind scrape listener", listener) else {
        return;
    };
    let mut get_us = Vec::new();
    for i in 0..HTTP_GETS {
        let (body, s) = rec.timed("pcp-wire.scrape_http", i, || {
            http_get(listener.local_addr())
        });
        let parsed = body.and_then(|b| openmetrics::parse(&b));
        checks.result("GET host /metrics", parsed);
        get_us.push(s * 1e6);
    }
    layers.set("pcp-wire.scrape_http_p50_us", median(&get_us));
}
