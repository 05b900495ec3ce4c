//! Fleet federation integration tests: merge determinism under
//! hostile labels and arbitrary worker counts, end-to-end scrape
//! passes, the single-host fault drill, store ingest, and the
//! fleet-wide HTTP endpoint.

use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

use fleet::{
    host_name, merge_parallel, merge_reference, Aggregator, AggregatorConfig, Fleet, HostScrape,
};
use obs::openmetrics::{render, MetricKind, OmSample, Value};
use p9_memsim::machine::SocketShared;
use p9_memsim::NoiseConfig;
use pcp_sim::pmns::Pmns;
use pcp_wire::{PmcdServer, WireConfig};
use proptest::prelude::*;

const SEC: u64 = 1_000_000_000;

fn aggregator(fleet: &Fleet, workers: usize) -> Aggregator {
    Aggregator::new(
        fleet,
        AggregatorConfig {
            workers,
            ..AggregatorConfig::default()
        },
    )
}

// ---------------------------------------------------------------------------
// Merge determinism: parallel == sequential reference, byte for byte.
// ---------------------------------------------------------------------------

/// Hostile alphabet: every escaped byte, label/value syntax, a space
/// and a multi-byte char.
const HOSTILE: [char; 8] = ['\\', '"', '\n', ' ', ',', '}', '{', '\u{00e9}'];
const METRIC_NAMES: [&str; 4] = ["pdu_in", "queue_depth", "sim_bytes", "up"];

fn hostile_string(idx: &[u8]) -> String {
    idx.iter()
        .map(|&i| HOSTILE[i as usize % HOSTILE.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any set of host scrapes (hostile label values included, dead
    /// slots included) and any worker count 1..=8, the parallel merge
    /// renders byte-identically to the sequential reference merge.
    #[test]
    fn parallel_merge_is_byte_identical_to_reference(
        hosts in prop::collection::vec(
            // Per host: a dead flag (the vendored proptest has no
            // Option strategy) plus (metric idx, hostile value bytes).
            (
                any::<bool>(),
                prop::collection::vec(
                    (0usize..METRIC_NAMES.len(), prop::collection::vec(0u8..8, 0..6)),
                    0..5,
                ),
            ),
            0..6,
        ),
        workers in 1usize..=8,
    ) {
        let scrapes: Vec<Option<HostScrape>> = hosts
            .iter()
            .enumerate()
            .map(|(i, (dead, samples))| {
                if *dead {
                    return None;
                }
                Some(HostScrape {
                    host: host_name(i),
                    samples: samples
                        .iter()
                        .map(|(m, idx)| {
                            let kind = if *m % 2 == 0 { MetricKind::Counter } else { MetricKind::Gauge };
                            OmSample::new(METRIC_NAMES[*m], kind, Value::Int(*m as u64))
                                .with_label("v", hostile_string(idx))
                        })
                        .collect(),
                })
            })
            .collect();
        let reference = merge_reference(&scrapes);
        let parallel = merge_parallel(&scrapes, workers);
        prop_assert_eq!(
            render(&parallel.samples, None),
            render(&reference.samples, None)
        );
        prop_assert_eq!(parallel, reference);
    }
}

// ---------------------------------------------------------------------------
// End-to-end: scrape passes over a live fleet.
// ---------------------------------------------------------------------------

#[test]
fn clean_fleet_scrapes_everyone_and_raises_no_alerts() {
    let fleet = Fleet::spawn(4, 0xF1EE7).expect("spawn fleet");
    let mut agg = aggregator(&fleet, 4);
    fleet.tick_traffic(1);
    let r1 = agg.scrape_pass(SEC);
    assert_eq!(r1.scraped, 4);
    assert!(r1.stale.is_empty());
    assert!(r1.alerts.is_empty(), "clean pass alerted: {:?}", r1.alerts);
    assert_eq!(r1.kind_conflicts, 0);
    // Every host contributes the same per-host series set.
    assert_eq!(r1.merged_series % 4, 0);
    assert!(r1.merged_series >= 4 * 10);

    fleet.tick_traffic(2);
    let r2 = agg.scrape_pass(2 * SEC);
    assert_eq!(r2.scraped, 4);
    assert!(
        r2.alerts.is_empty(),
        "second clean pass alerted: {:?}",
        r2.alerts
    );
}

/// The fault drill, at unit size and at the 256-host scale the tier is
/// held to (DESIGN.md §14).
#[test]
fn killing_one_host_raises_exactly_that_hosts_staleness_alert() {
    for (hosts, workers, victim) in [(5, 8, 2), (256, 32, 128)] {
        let mut fleet = Fleet::spawn(hosts, 0xDEAD).expect("spawn fleet");
        let mut agg = aggregator(&fleet, workers);
        fleet.tick_traffic(1);
        let clean = agg.scrape_pass(SEC);
        assert_eq!(clean.scraped, hosts);
        assert!(clean.alerts.is_empty());

        fleet.kill_host(victim);
        fleet.tick_traffic(2);
        let faulted = agg.scrape_pass(2 * SEC);
        assert_eq!(faulted.scraped, hosts - 1);
        assert_eq!(faulted.stale, vec![host_name(victim)]);
        // Exactly one alert, and it names the victim — no other host trips.
        assert_eq!(
            faulted.alerts.len(),
            1,
            "expected exactly one alert, got {:?}",
            faulted.alerts
        );
        let stale_metric = format!("fleet.host.stale.{}", host_name(victim));
        assert_eq!(faulted.alerts[0].rule, "alert.fleet.host_stale");
        assert_eq!(faulted.alerts[0].metric, stale_metric);

        // The dead host stays stale and keeps alerting; the others never do.
        fleet.tick_traffic(3);
        let again = agg.scrape_pass(3 * SEC);
        assert_eq!(again.stale, vec![host_name(victim)]);
        for alert in &again.alerts {
            assert_eq!(alert.metric, stale_metric);
        }
    }
}

/// A standalone Tellico-shaped PMCD on `addr`, with a private registry.
fn standalone_pmcd(addr: std::net::SocketAddr) -> PmcdServer {
    let machine = p9_arch::Machine::tellico();
    let sockets = (0..machine.node.num_sockets())
        .map(|s| SocketShared::standalone(NoiseConfig::none(), s as u64 + 1, machine.clock_hz))
        .collect();
    PmcdServer::bind_system_with_registry(
        addr,
        Pmns::for_machine(&machine),
        sockets,
        WireConfig::default(),
        Some(Arc::new(obs::Registry::new())),
    )
    .expect("bind standalone pmcd")
}

/// The reconnect rule on real sockets: a session whose server went away
/// fails exactly its host for one pass, and the next pass re-dials the
/// address and scrapes over a fresh session.
#[test]
fn a_dropped_session_fails_one_pass_and_the_next_pass_reconnects() {
    let fleet = Fleet::spawn(3, 0x5E55).expect("spawn fleet");
    let mut agg = aggregator(&fleet, 2);
    let scrape_err = agg.registry().counter("fleet.scrape.err");

    let mut first = standalone_pmcd("127.0.0.1:0".parse().expect("loopback"));
    let addr = first.local_addr();
    agg.retarget_host(1, addr);
    let ok = agg.scrape_pass(SEC);
    assert_eq!(ok.scraped, 3);
    assert_eq!(first.stats().clients_total, 1, "one session opened");

    // Same address, new server: the session held over from the first
    // one is dead, and nothing has told the aggregator yet.
    first.shutdown();
    let second = standalone_pmcd(addr);
    let errors_before = scrape_err.get();
    let failed = agg.scrape_pass(2 * SEC);
    assert_eq!(failed.stale, vec![host_name(1)]);
    assert_eq!(scrape_err.get(), errors_before + 1);
    assert_eq!(
        second.stats().clients_total,
        0,
        "the dead session is not re-dialled mid-pass"
    );

    let back = agg.scrape_pass(3 * SEC);
    assert!(back.stale.is_empty(), "stale: {:?}", back.stale);
    assert_eq!(scrape_err.get(), errors_before + 1);
    assert_eq!(second.stats().clients_total, 1, "a fresh session");
    assert_eq!(
        second.stats().clients_current,
        1,
        "kept open for the next pass"
    );
}

#[test]
fn two_fresh_fleets_scrape_byte_identically_for_any_worker_count() {
    // Same seed, same pass, different fan-out widths: the merged host
    // section must be byte-identical (the determinism claim end to
    // end, wire included, not just the merge stage).
    let texts: Vec<String> = [1usize, 8]
        .iter()
        .map(|&workers| {
            let fleet = Fleet::spawn(3, 0x5EED).expect("spawn fleet");
            let mut agg = aggregator(&fleet, workers);
            fleet.tick_traffic(1);
            let report = agg.scrape_pass(SEC);
            assert_eq!(report.scraped, 3);
            report.host_text
        })
        .collect();
    assert_eq!(texts[0], texts[1]);
    assert!(texts[0].contains(r#"host="tellico-0002""#));
}

#[test]
fn merged_passes_land_in_the_store_queryable_by_host() {
    let fleet = Fleet::spawn(3, 0xCAFE).expect("spawn fleet");
    let mut agg = aggregator(&fleet, 3);
    for pass in 1..=3u64 {
        fleet.tick_traffic(pass);
        let r = agg.scrape_pass(pass * SEC);
        assert!(r.samples_ingested > 0);
    }
    // Per-host series carry the federation label.
    let sel = store::Selector::metric("pmcd_obs_host_sim_bytes").with_label("host", host_name(1));
    let points = agg.store().query(&sel, 0, u64::MAX).expect("query host 1");
    assert_eq!(points.len(), 1, "one series for host 1");
    assert_eq!(points[0].samples.len(), 3, "three passes ingested");
    let values: Vec<u64> = points[0].samples.iter().map(|s| s.value).collect();
    assert!(values.windows(2).all(|w| w[0] < w[1]), "monotone counter");
    // Fleet self-metrics ride along under host="fleet".
    let sel = store::Selector::metric("fleet.scrape.ok").with_label("host", "fleet");
    let points = agg.store().query(&sel, 0, u64::MAX).expect("query fleet");
    assert_eq!(points.len(), 1);
    assert_eq!(points[0].samples.last().map(|s| s.value), Some(9));
}

#[test]
fn fleet_metrics_endpoint_serves_the_published_document() {
    let fleet = Fleet::spawn(2, 0xBEEF).expect("spawn fleet");
    let mut agg = aggregator(&fleet, 2);
    let addr = agg.serve_http("127.0.0.1:0").expect("bind fleet listener");
    fleet.tick_traffic(1);
    let report = agg.scrape_pass(SEC);

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains(&report.host_text.replace("# EOF\n", "")[..40]));
    assert!(body.contains(r#"host="tellico-0001""#));
    assert!(body.contains("fleet_scrape_ok_total 2"));
    // The published fleet document itself parses under the strict
    // grammar (names from host and fleet sections never collide).
    let doc = agg.published();
    obs::openmetrics::parse(&doc).expect("fleet document parses");
}
