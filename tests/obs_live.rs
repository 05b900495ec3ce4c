//! Live-monitoring acceptance tests (ISSUE 5 tentpole):
//!
//! * the OpenMetrics exposition is byte-identical whether rendered
//!   in-process or scraped over TCP (modulo the `# scrape_ts_ns`
//!   header), under concurrent clients;
//! * every scraped document survives the strict in-repo parser, and a
//!   scraper's consecutive documents have monotone counters;
//! * the HTTP sidecar speaks enough HTTP for `curl` and rejects what it
//!   does not speak;
//! * a traced wire fetch stitches into one cross-process critical path
//!   whose component shares sum to the measured RTT exactly.
//!
//! The global obs registry is process-wide and some of its counters
//! (`wire.scrape.*`) are bumped by the listeners under test, so the
//! tests serialize on a static lock instead of racing each other's
//! scrape traffic.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use obs::openmetrics::{parse, strip_timestamp, Exposition, MetricKind, Value};
use p9_memsim::SimMachine;
use pcp_sim::pmns::{InstanceId, Pmns};
use pcp_sim::PmApi;
use pcp_wire::{PmcdServer, ScrapeListener, WireClient, WireConfig};

static SEQ: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_stack() -> (SimMachine, PmcdServer, ScrapeListener) {
    let machine = SimMachine::quiet(p9_arch::Machine::summit(), 7);
    let pmns = Pmns::for_machine(machine.arch());
    let sockets = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let server = PmcdServer::bind_system("127.0.0.1:0", pmns, sockets, WireConfig::default())
        .expect("bind server");
    let scrape = ScrapeListener::bind("127.0.0.1:0", &server).expect("bind scrape listener");
    (machine, server, scrape)
}

/// Minimal HTTP client: one GET, returns (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape listener");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, body.to_owned())
}

/// Strict-parse one exposition document or panic with the offender.
fn must_parse(doc: &str) -> Exposition {
    parse(doc).unwrap_or_else(|e| panic!("scraped document rejected: {e}\n{doc}"))
}

/// Every counter in `later` is at least its value in `earlier`.
fn assert_monotone(earlier: &Exposition, later: &Exposition) {
    for prev in &earlier.samples {
        if prev.kind != MetricKind::Counter {
            continue;
        }
        let Some(next) = later.samples.iter().find(|s| s.name == prev.name) else {
            panic!("counter {} vanished between scrapes", prev.name);
        };
        let (Value::Int(a), Value::Int(b)) = (prev.value, next.value) else {
            panic!("counter {} is not integral", prev.name);
        };
        assert!(b >= a, "counter {} went backwards: {a} -> {b}", prev.name);
    }
}

/// Tentpole acceptance: concurrent scrapers over both transports, every
/// document strictly parsed and per-scraper monotone; then, quiesced,
/// the in-process render and a TCP scrape agree byte for byte once the
/// timestamp header is stripped.
#[test]
fn exposition_parity_under_concurrent_clients() {
    let _guard = lock();
    let (machine, server, scrape) = start_stack();
    let pmns = Pmns::for_machine(machine.arch());
    let id = pmns
        .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
        .expect("nest metric resolves");
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Fetch traffic keeps the self-metric counters moving while the
        // scrapers read them.
        for _ in 0..3 {
            let stop = &stop;
            let addr = server.local_addr();
            scope.spawn(move || {
                let c = WireClient::connect(addr).expect("fetch client connects");
                while !stop.load(Ordering::Relaxed) {
                    c.pm_fetch(&[(id, InstanceId(87))]).expect("fetch");
                }
            });
        }
        let mut scrapers = Vec::new();
        for i in 0..4 {
            let pdu_addr = server.local_addr();
            let http_addr = scrape.local_addr();
            scrapers.push(scope.spawn(move || {
                let c = WireClient::connect(pdu_addr).expect("scrape client connects");
                let mut prev: Option<Exposition> = None;
                for round in 0..6 {
                    // Odd scrapers alternate transports; the documents
                    // must be interchangeable.
                    let doc = if (i + round) % 2 == 0 {
                        c.scrape_exposition().expect("pdu scrape")
                    } else {
                        let (status, body) = http_get(http_addr, "/metrics");
                        assert!(status.contains("200"), "{status}");
                        body
                    };
                    let parsed = must_parse(&doc);
                    assert!(
                        parsed.scrape_ts_ns.is_some(),
                        "scrape carries its timestamp"
                    );
                    assert!(
                        parsed.samples.iter().any(|s| s.name == "pmcd_fetch_count"),
                        "self-metrics present"
                    );
                    if let Some(prev) = &prev {
                        assert_monotone(prev, &parsed);
                    }
                    prev = Some(parsed);
                }
            }));
        }
        for s in scrapers {
            s.join().expect("scraper");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesced: nothing moves the counters now, so one TCP scrape and
    // one in-process render must agree exactly modulo the timestamp.
    let (status, tcp_doc) = http_get(scrape.local_addr(), "/metrics");
    assert!(status.contains("200"), "{status}");
    let local_doc = server.exposition();
    assert_eq!(
        strip_timestamp(&tcp_doc),
        strip_timestamp(&local_doc),
        "in-process and TCP expositions diverge"
    );
    // Both carry different timestamps but the same strict structure.
    assert_ne!(tcp_doc, String::new());
    must_parse(&local_doc);
}

/// The sidecar is honest HTTP: unknown routes 404, garbage 400, and the
/// happy path carries the OpenMetrics content type.
#[test]
fn scrape_listener_speaks_minimal_http() {
    let _guard = lock();
    let (_machine, server, scrape) = start_stack();
    let _ = &server;

    let (status, body) = http_get(scrape.local_addr(), "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    must_parse(&body);
    let (status, body) = http_get(scrape.local_addr(), "/");
    assert!(status.contains("200"), "{status}");
    must_parse(&body);

    let (status, _) = http_get(scrape.local_addr(), "/nope");
    assert!(status.contains("404"), "{status}");

    let mut stream = TcpStream::connect(scrape.local_addr()).expect("connect");
    stream
        .write_all(b"BREW /coffee HTCPCP/1.0\r\n\r\n")
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
}

/// A batch fetching the same obs counter twice must answer both slots
/// from one registry snapshot, even while another thread hammers the
/// counter (satellite: the old code re-exported the registry per
/// request and could return torn batches).
#[test]
fn obs_fetches_are_snapshot_coherent_within_a_batch() {
    let _guard = lock();
    let (_machine, server, _scrape) = start_stack();
    let counter = obs::registry().counter("obslive.torn_batch_probe");
    counter.add(1);
    let c = WireClient::connect(server.local_addr()).expect("connect");
    let id = c
        .pm_lookup_name("pmcd.obs.obslive.torn_batch_probe")
        .expect("obs metric resolves over the wire");

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                counter.inc();
            }
        });
        for _ in 0..200 {
            let values = c
                .pm_fetch(&[(id, InstanceId(0)), (id, InstanceId(0))])
                .expect("batch fetch");
            assert_eq!(
                values[0], values[1],
                "one batch answered from two registry states"
            );
        }
        stop.store(true, Ordering::Relaxed);
    });
}

/// Tentpole acceptance: the trace id stamped into the fetch PDU stitches
/// the client and server spans into one trace whose mechanical
/// decomposition conserves the measured RTT exactly, and the merged
/// event list round-trips through the strict Chrome parser.
#[test]
fn stitched_trace_decomposes_wire_fetch_latency() {
    let _guard = lock();
    let (machine, server, _scrape) = start_stack();
    let pmns = Pmns::for_machine(machine.arch());
    let id = pmns
        .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
        .expect("nest metric resolves");

    // Clean rings: the stitched document should hold only this traffic.
    drop(obs::drain());
    let c = WireClient::connect(server.local_addr()).expect("connect");
    for _ in 0..10 {
        c.pm_fetch(&[(id, InstanceId(87))]).expect("fetch");
    }
    let events = obs::drain();

    let ids = obs::stitch::trace_ids(&events);
    assert!(ids.len() >= 10, "expected 10 traced fetches, got {ids:?}");
    for tid in &ids {
        let path = obs::critical_path(&events, *tid)
            .unwrap_or_else(|| panic!("trace {tid} did not stitch"));
        let parts: u64 = path.rtt.parts().iter().map(|(_, v)| v).sum();
        assert_eq!(
            parts,
            path.rtt.total(),
            "decomposition must conserve the RTT exactly: {path:?}"
        );
        assert!(path.rtt.total() > 0, "{path:?}");
    }
    let mean = obs::stitch::mean_critical_path(&events).expect("mean path");
    let parts: u64 = mean.rtt.parts().iter().map(|(_, v)| v).sum();
    assert_eq!(parts, mean.rtt.total());
    // The server did real work on the critical path, not just wire.
    assert!(
        mean.rtt.get("server.fetch") + mean.rtt.get("server.dispatch") > 0,
        "{mean:?}"
    );

    // The merged two-process event list is a valid Chrome trace.
    let doc = obs::chrome::chrome_trace_json(&events);
    let parsed = obs::chrome::parse_chrome_trace(&doc).expect("strict chrome parse");
    assert_eq!(parsed.len(), events.len(), "every stitched event survives");
}
