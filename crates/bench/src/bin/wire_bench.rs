//! Throughput of the networked PMCD: concurrent loopback clients doing
//! batched fetch round-trips against one `pcp_wire::PmcdServer`.
//!
//! Reports per-client and aggregate round-trips/second plus the server's
//! own latency histogram (read back through the PMNS, so the benchmark
//! also exercises the self-metrics path). The run fails if the aggregate
//! rate drops below 1000 fetch round-trips/s — an order of magnitude
//! below what a loopback socket should sustain, so a failure means the
//! server is serialising or wedging somewhere.
//!
//! This benchmark measures real wall-clock throughput, so unlike the
//! figures it is *not* part of the deterministic `repro` catalog.
//!
//! The run also monitors itself: it binds a [`ScrapeListener`] next to
//! the PDU server, scrapes its own `/metrics` endpoint at the start and
//! end of the measure window, strict-parses both documents, and derives
//! per-second rates from the two snapshots through [`obs::Monitor`] —
//! the same pipeline an external Prometheus would run against us.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::metrics::{ExportSemantics, Exported};
use obs::openmetrics::{self, MetricKind, Value};
use p9_memsim::SimMachine;
use pcp_sim::{PmApi, Pmns};
use pcp_wire::{PmcdServer, ScrapeListener, WireClient, WireConfig};

const CLIENTS: usize = 8;
const WARMUP: Duration = Duration::from_millis(200);
const MEASURE: Duration = Duration::from_secs(2);
const MIN_AGGREGATE_RTPS: f64 = 1000.0;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wire_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let machine = SimMachine::quiet(p9_arch::Machine::summit(), 7);
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let server =
        PmcdServer::bind_system("127.0.0.1:0", pmns.clone(), sockets, WireConfig::default())
            .map_err(|e| format!("bind pmcd server: {e}"))?;
    let addr = server.local_addr();
    let scrape = ScrapeListener::bind("127.0.0.1:0", &server)
        .map_err(|e| format!("bind scrape listener: {e}"))?;

    // Each round trip fetches all 16 nest metrics of socket 0 in one
    // batch, the way PAPI reads an event set.
    let mut requests = Vec::new();
    for n in pmns.children("") {
        let id = pmns
            .lookup(n)
            .ok_or_else(|| format!("PMNS child {n} has no metric id"))?;
        requests.push((id, pmns.instance_of_socket(0)));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut scrapes: Vec<(u64, Vec<Exported>)> = Vec::new();
    let counts: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let requests = requests.clone();
                scope.spawn(move || -> Result<u64, String> {
                    let client = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let warm_end = Instant::now() + WARMUP;
                    while Instant::now() < warm_end {
                        client
                            .pm_fetch(&requests)
                            .map_err(|e| format!("warmup fetch: {e}"))?;
                    }
                    let mut n = 0u64;
                    // relaxed-ok: a stop flag read in a hot loop; the
                    // only consequence of a stale read is one extra fetch.
                    while !stop.load(Ordering::Relaxed) {
                        client
                            .pm_fetch(&requests)
                            .map_err(|e| format!("fetch: {e}"))?;
                        n += 1;
                    }
                    Ok(n)
                })
            })
            .collect();
        std::thread::sleep(WARMUP);
        // Bracket the measure window with two self-scrapes over HTTP:
        // the benchmark is its own first monitoring client.
        let t0 = Instant::now();
        let first = self_scrape(scrape.local_addr());
        std::thread::sleep(MEASURE.saturating_sub(t0.elapsed()));
        let second = self_scrape(scrape.local_addr());
        // relaxed-ok: nothing is published through the flag; workers only
        // need to observe it eventually.
        stop.store(true, Ordering::Relaxed);
        if let (Ok(a), Ok(b)) = (first, second) {
            scrapes = vec![a, b];
        }
        joins
            .into_iter()
            .map(|j| match j.join() {
                Ok(r) => r,
                Err(_) => Err("client thread panicked".into()),
            })
            .collect()
    });
    let counts = counts.into_iter().collect::<Result<Vec<u64>, String>>()?;

    let total: u64 = counts.iter().sum();
    let rtps = total as f64 / MEASURE.as_secs_f64();
    println!(
        "wire_bench: {CLIENTS} loopback clients, batch of {} metrics",
        requests.len()
    );
    for (i, n) in counts.iter().enumerate() {
        println!(
            "  client {i}: {n} round-trips ({:.0}/s)",
            *n as f64 / MEASURE.as_secs_f64()
        );
    }
    println!("  aggregate: {total} round-trips, {rtps:.0}/s");

    // Read the server's histogram back through the wire, like any client.
    let probe = WireClient::connect(addr).map_err(|e| format!("connect probe: {e}"))?;
    let hist = [
        "pmcd.fetch.count",
        "pmcd.fetch.latency_ns.lt_1024",
        "pmcd.fetch.latency_ns.lt_16384",
        "pmcd.fetch.latency_ns.lt_131072",
        "pmcd.fetch.latency_ns.lt_1048576",
        "pmcd.fetch.latency_ns.lt_16777216",
        "pmcd.fetch.latency_ns.sum",
        "pmcd.queue.depth",
        "pmcd.queue.shed",
    ];
    let mut ids = Vec::new();
    for n in hist {
        let id = probe
            .pm_lookup_name(n)
            .map_err(|e| format!("self metric {n}: {e}"))?;
        ids.push((id, pcp_sim::InstanceId(0)));
    }
    let vals = probe
        .pm_fetch(&ids)
        .map_err(|e| format!("self fetch: {e}"))?;
    println!("  server-side fetch latency histogram:");
    for (name, v) in hist.iter().zip(&vals) {
        println!("    {name:<42} {v}");
    }
    if vals[0] > 0 {
        println!(
            "    mean server-side fetch handling: {:.1} us",
            vals[6] as f64 / vals[0] as f64 / 1000.0
        );
    }

    // The two bracketing self-scrapes give every exported metric a
    // two-sample window; the Monitor derives per-second rates from them
    // exactly as an external Prometheus would, and its shed rule
    // cross-checks the floor gate from the server's own vantage point.
    let mut derived: Vec<(String, f64)> = Vec::new();
    match scrapes.as_slice() {
        [(t0, first), (t1, second)] => {
            let mut monitor = obs::Monitor::new(
                4,
                vec![obs::Rule {
                    name: "alert.scrape.shedding",
                    metric: "pmcd_obs_wire_scrape_shed",
                    predicate: obs::Predicate::RateAbove(0.0),
                }],
            );
            monitor.tick(*t0, first);
            monitor.tick(*t1, second);
            println!("  self-scrape derived rates over the measure window:");
            for (name, r) in monitor.derived() {
                if r > 0.0 {
                    println!("    {name:<42} {r:>10.1}/s");
                }
            }
            for a in monitor.alerts() {
                println!(
                    "  ALERT {}: {} = {:.2} > {:.2}",
                    a.rule, a.metric, a.observed, a.threshold
                );
            }
            derived = monitor.derived();
        }
        _ => println!("  (self-scrape failed; skipping derived rates)"),
    }

    write_bench_obs(&counts, &requests, &hist, &vals, rtps, &derived);

    if rtps < MIN_AGGREGATE_RTPS {
        return Err(format!(
            "aggregate {rtps:.0} fetch round-trips/s below the {MIN_AGGREGATE_RTPS} floor"
        ));
    }
    println!("PASS: >= {MIN_AGGREGATE_RTPS} aggregate fetch round-trips/s");

    repro_bench::obsreport::write_artifacts("wire_bench");
    Ok(())
}

/// One HTTP self-scrape: GET /metrics from our own sidecar, strict-parse
/// the document, and flatten it to `(scrape_ts_ns, registry snapshot)`
/// so an [`obs::Monitor`] can consume it like a local export. Float
/// gauges cannot happen here (every serverside sample is integral), so
/// any would be a protocol bug worth failing on.
fn self_scrape(addr: std::net::SocketAddr) -> Result<(u64, Vec<Exported>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect scrape: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .map_err(|e| format!("send scrape: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read scrape: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("scrape response has no header/body split")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "scrape refused: {}",
            head.lines().next().unwrap_or("")
        ));
    }
    let doc = openmetrics::parse(body).map_err(|e| format!("scrape document rejected: {e}"))?;
    let ts = doc
        .scrape_ts_ns
        .ok_or("scrape document lacks its timestamp")?;
    let mut snapshot = Vec::with_capacity(doc.samples.len());
    for s in doc.samples {
        let Value::Int(value) = s.value else {
            return Err(format!("non-integral serverside sample {}", s.name));
        };
        snapshot.push(Exported {
            name: s.name,
            value,
            semantics: match s.kind {
                MetricKind::Counter => ExportSemantics::Counter,
                MetricKind::Gauge => ExportSemantics::Instant,
            },
        });
    }
    Ok((ts, snapshot))
}

/// Emit `results/BENCH_obs.json`: throughput plus the server's own
/// queue-depth/shed-rate and fetch-latency self-metrics, as read back
/// over the wire, and the rates derived from the bracketing
/// self-scrapes. Hand-rolled JSON — the workspace has no serde.
fn write_bench_obs(
    counts: &[u64],
    requests: &[(pcp_sim::MetricId, pcp_sim::InstanceId)],
    hist_names: &[&str],
    hist_vals: &[u64],
    rtps: f64,
    derived: &[(String, f64)],
) {
    let total: u64 = counts.iter().sum();
    let secs = MEASURE.as_secs_f64();
    let shed = hist_names
        .iter()
        .position(|n| *n == "pmcd.queue.shed")
        .map_or(0, |i| hist_vals[i]);
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"clients\": {CLIENTS},\n"));
    json.push_str(&format!("  \"batch_metrics\": {},\n", requests.len()));
    json.push_str(&format!("  \"measure_seconds\": {secs},\n"));
    json.push_str(&format!("  \"total_round_trips\": {total},\n"));
    json.push_str(&format!("  \"aggregate_rtps\": {rtps:.1},\n"));
    json.push_str(&format!(
        "  \"shed_per_second\": {:.3},\n",
        shed as f64 / secs
    ));
    let per: Vec<String> = counts.iter().map(|n| n.to_string()).collect();
    json.push_str(&format!(
        "  \"per_client_round_trips\": [{}],\n",
        per.join(", ")
    ));
    json.push_str("  \"server_self_metrics\": {\n");
    for (i, (name, v)) in hist_names.iter().zip(hist_vals).enumerate() {
        let comma = if i + 1 < hist_names.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {v}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str("  \"self_scrape_rates_per_s\": {\n");
    for (i, (name, r)) in derived.iter().enumerate() {
        let comma = if i + 1 < derived.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {r:.3}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    if std::fs::create_dir_all("results").is_ok()
        && std::fs::write("results/BENCH_obs.json", &json).is_ok()
    {
        println!("  wrote results/BENCH_obs.json");
    }
}
