//! End-to-end diagnostics-plane tests: pass tracing over a live fleet
//! (exact wall-time conservation, straggler attribution under a
//! mid-pass stall) and the `/debug/*` HTTP surface (bounded,
//! deterministic, bit-for-bit equal to in-process queries).

use std::io::{Read as _, Write as _};
use std::sync::Mutex;
use std::time::Duration;

use fleet::{host_name, Aggregator, AggregatorConfig, Fleet, DEFAULT_DEBUG_PASSES};

const SEC: u64 = 1_000_000_000;

/// `scrape_pass` drains the process-global span rings; tests in this
/// binary run on parallel threads, so every test that scrapes holds
/// this lock to keep one pass's events from being drained by another.
static DRAIN_LOCK: Mutex<()> = Mutex::new(());

fn http_get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

#[test]
fn traced_pass_conserves_wall_time_end_to_end() {
    let _guard = DRAIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fleet = Fleet::spawn(6, 0x7ACE).expect("spawn fleet");
    let mut agg = Aggregator::new(
        &fleet,
        AggregatorConfig {
            workers: 3,
            ..AggregatorConfig::default()
        },
    );
    for pass in 1..=3u64 {
        fleet.tick_traffic(pass);
        let report = agg.scrape_pass(pass * SEC);
        assert_eq!(report.scraped, 6);
        let trace = report.trace.as_ref().expect("pass is traced");
        assert_eq!(trace.pass_id, report.pass_id);
        assert_ne!(report.pass_id, 0);

        // Exactness: phase shares sum to the measured wall time, and
        // every host's components sum to its chain — no time invented
        // or lost anywhere in the tree.
        let phases: u64 = trace.wall.parts().iter().map(|(_, v)| v).sum();
        assert_eq!(phases, trace.wall.total(), "phases must sum to wall");
        assert_eq!(trace.hosts.len(), 6, "every slot has a chain");
        for h in &trace.hosts {
            let parts: u64 = h.chain.parts().iter().map(|(_, v)| v).sum();
            assert_eq!(parts, h.chain.total(), "host {} components", h.host_index);
            assert!(h.ok, "clean pass: host {} ok", h.host_index);
            // A host that answered is charged its own render and codec
            // time; neither hides in `wire`.
            for spent in ["server.render", "codec"] {
                assert!(h.chain.get(spent) > 0, "host {} {spent}", h.host_index);
            }
            // Sessions persist: only the first pass opens one per host,
            // and a warm pass spends exactly nothing on connecting.
            let connect = h.chain.get("connect");
            if pass == 1 {
                assert!(connect > 0, "host {} opened its session", h.host_index);
            } else {
                assert_eq!(connect, 0, "pass {pass} host {} reconnected", h.host_index);
            }
        }
        // The straggler is the argmax chain, and skew is >= 1000 by
        // definition (max >= mean).
        let straggler = trace.straggler_share().expect("6 hosts -> straggler");
        let worst = straggler.chain.total();
        assert!(trace.hosts.iter().all(|h| h.chain.total() <= worst));
        assert!(trace.skew_ratio_permille() >= 1000);
    }
}

#[test]
fn mid_pass_stall_attributes_straggler_to_exactly_that_host() {
    let _guard = DRAIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fleet = Fleet::spawn(4, 0x57A11).expect("spawn fleet");
    let timeout = Duration::from_millis(200);
    let mut agg = Aggregator::new(
        &fleet,
        AggregatorConfig {
            workers: 4,
            io_timeout: timeout,
        },
    );
    fleet.tick_traffic(1);
    let clean = agg.scrape_pass(SEC);
    assert!(clean.stale.is_empty());

    // A listener that accepts (kernel backlog) but never answers: the
    // victim's scrape burns the full I/O timeout mid-pass while every
    // other host answers in microseconds.
    let stall = std::net::TcpListener::bind("127.0.0.1:0").expect("stall listener");
    agg.retarget_host(2, stall.local_addr().expect("stall addr"));
    fleet.tick_traffic(2);
    let report = agg.scrape_pass(2 * SEC);
    assert_eq!(report.stale, vec![host_name(2)]);

    let trace = report.trace.as_ref().expect("stalled pass still traced");
    let straggler = trace.straggler_share().map(|h| h.host_index);
    assert_eq!(straggler, Some(2), "straggler is the stalled slot");
    let victim = trace.straggler_share().expect("share");
    assert!(!victim.ok, "the straggler slot is marked failed");
    assert!(
        victim.chain.total() >= timeout.as_nanos() as u64 / 2,
        "victim chain ({} ns) reflects the stall",
        victim.chain.total()
    );
    // The stall is charged to the connect: the retarget dropped the
    // slot's session, and the stalled read is the CREDS handshake's (no
    // server render ever happened).
    assert_eq!(victim.chain.get("server.render"), 0);
    assert!(victim.chain.get("connect") >= timeout.as_nanos() as u64 / 2);
    for h in trace.hosts.iter().filter(|h| h.host_index != 2) {
        assert!(h.ok);
        assert!(h.chain.total() < victim.chain.total());
        assert!(
            h.chain.get("server.render") > 0,
            "only the victim never rendered"
        );
    }
    assert!(trace.skew_ratio_permille() > 2000, "stall shows up as skew");
}

#[test]
fn debug_endpoints_are_bounded_deterministic_and_match_in_process_queries() {
    let _guard = DRAIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fleet = Fleet::spawn(3, 0xDE8).expect("spawn fleet");
    let mut agg = Aggregator::new(
        &fleet,
        AggregatorConfig {
            workers: 3,
            ..AggregatorConfig::default()
        },
    );
    let addr = agg.serve_http("127.0.0.1:0").expect("bind");
    let mut reports = Vec::new();
    const K: usize = DEFAULT_DEBUG_PASSES;
    for pass in 1..=(K as u64 + 2) {
        fleet.tick_traffic(pass);
        reports.push(agg.scrape_pass(pass * SEC));
    }

    // Bounded: only the last K passes are retained.
    let (status, passes) = http_get(addr, "/debug/passes");
    assert_eq!(status, 200);
    assert!(passes.starts_with(&format!("# fleet passes (last {K} of up to {K})\n")));
    for (i, r) in reports.iter().enumerate() {
        let line = format!("pass {} ", r.pass_id);
        assert_eq!(
            i >= 2,
            passes.contains(&line),
            "pass {} in:\n{passes}",
            r.pass_id
        );
    }
    assert!(passes.contains("straggler host"));

    // Deterministic: repeated renders are byte-identical.
    assert_eq!(passes, http_get(addr, "/debug/passes").1);
    let (_, trace1) = http_get(addr, "/debug/trace");
    assert_eq!(trace1, http_get(addr, "/debug/trace").1);

    // The trace endpoint serves valid Chrome JSON with one pid lane per
    // host plus the aggregator lane.
    let parsed = obs::chrome::parse_chrome_trace(&trace1).expect("valid chrome doc");
    assert!(!parsed.is_empty());
    let pids: std::collections::BTreeSet<u64> = parsed.iter().map(|e| e.pid).collect();
    assert!(pids.contains(&1), "aggregator lane");
    assert!(pids.len() >= 2, "host lanes present: {pids:?}");

    // The flame endpoint folds the same events deterministically.
    let (status, flame) = http_get(addr, "/debug/flame");
    assert_eq!(status, 200);
    assert!(flame.contains("fleet.pass"));
    assert_eq!(flame, http_get(addr, "/debug/flame").1);

    // /debug/series answers bit-for-bit what an in-process store query
    // renders, derivation included.
    let sel = store::Selector::metric("pmcd_obs_host_sim_bytes").with_label("host", host_name(1));
    let t_to = reports.last().expect("K + 2 passes").t_ns;
    let reference = fleet::debug::render_series_data(
        &agg.store()
            .query(&sel, t_to - 4 * SEC, t_to)
            .expect("in-process query"),
        Some(store::Derivation::Rate),
    );
    let target = format!(
        "/debug/series?sel=pmcd_obs_host_sim_bytes%7Bhost%3D%22{}%22%7D&window={}&derive=rate",
        host_name(1),
        4 * SEC
    );
    let (status, body) = http_get(addr, &target);
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(body, reference, "HTTP answer must equal in-process query");

    // Unknown debug paths 404; bad queries 400.
    assert_eq!(http_get(addr, "/debug/nope").0, 404);
    assert_eq!(http_get(addr, "/debug/series?window=5").0, 400);
    // /metrics still serves the fleet document on the same listener.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("fleet_hosts 3"));
}
