//! Malformed-PDU storm against a live daemon (robustness satellite):
//! hostile clients flood the PMCD with every class of garbage frame the
//! codec rejects — bad magic, unknown version, unknown type, hostile
//! declared length, undecodable payload, truncated frame — while a
//! concurrent scraper keeps reading the exposition over both transports
//! (PDU `Exposition` and the HTTP sidecar). Required behaviour:
//!
//! * no worker panics and no hostile connection wedges the pool;
//! * every scrape captured mid-storm parses and is byte-identical to the
//!   quiescent render outside the operational counters that legitimately
//!   move (`pmcd.pdu.*`, client gauges, queue depth);
//! * every rejected frame is counted — `pmcd.pdu.error` grows by exactly
//!   the number of malformed frames sent, and the count is visible
//!   through the scrape itself;
//! * a valid client's nest-counter fetch is unperturbed by the storm.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use obs::openmetrics::{parse, strip_timestamp, Value};
use papi_repro::arch::Machine;
use papi_repro::memsim::SimMachine;
use papi_repro::pcp::{PmApi, Pmns};
use papi_repro::wire::pdu::{Pdu, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use papi_repro::wire::{PmcdServer, ScrapeListener, WireClient, WireConfig};

const HOSTILE_THREADS: usize = 3;
const ROUNDS_PER_THREAD: usize = 8;

/// One representative of every malformed-frame class the codec rejects.
/// Each is a mangling of a perfectly valid `Lookup` frame, so the only
/// thing wrong with a frame is the one field under test.
fn mangled_frames(max_payload: u32) -> Vec<Vec<u8>> {
    let valid = Pdu::Lookup {
        name: "perfevent".into(),
    }
    .encode();
    assert!(valid.len() > HEADER_LEN + 3);

    let mut bad_magic = valid.clone();
    bad_magic[0] = 0xde;
    bad_magic[1] = 0xad;

    let mut bad_version = valid.clone();
    bad_version[2] = 0x7f;

    let mut bad_type = valid.clone();
    bad_type[3] = 0xee;

    let mut oversized = valid.clone();
    oversized[4..8].copy_from_slice(&(max_payload + 1).to_be_bytes());

    // Valid header, undecodable payload: the declared length is honest
    // but the string length field inside points past the end.
    let mut garbage_payload = valid.clone();
    for b in &mut garbage_payload[HEADER_LEN..] {
        *b = 0xff;
    }

    // Valid header, payload cut short; the connection then drops, so the
    // server sees EOF mid-frame.
    let truncated = valid[..valid.len() - 3].to_vec();

    vec![
        bad_magic,
        bad_version,
        bad_type,
        oversized,
        garbage_payload,
        truncated,
    ]
}

/// Deliver one hostile frame: connect, write, half-close so the server
/// never stalls waiting for more, then drain whatever reply it sends
/// (an `Error{BadPdu}` frame) until the daemon hangs up.
fn hostile_hit(addr: SocketAddr, frame: &[u8]) {
    let mut stream = TcpStream::connect(addr).expect("hostile connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    // The daemon may reject and close before the write completes; a
    // broken pipe here is the server doing its job.
    let _ = stream.write_all(frame);
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 256];
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn http_scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("scrape connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: storm\r\nConnection: close\r\n\r\n")
        .expect("scrape request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("scrape read");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    response
        .split_once("\r\n\r\n")
        .expect("http body")
        .1
        .to_string()
}

/// Counters that legitimately move while a storm and a scraper run; every
/// other line of the exposition must stay byte-identical.
const MOVING: &[&str] = &[
    "pmcd_pdu_in",
    "pmcd_pdu_out",
    "pmcd_pdu_error",
    "pmcd_client_current",
    "pmcd_client_total",
    "pmcd_queue_depth",
    "pmcd_obs_wire_scrape_requests",
];

/// The storm-invariant portion of an exposition document, after proving
/// the whole document still parses as OpenMetrics.
fn quiescent_view(text: &str) -> String {
    parse(text).expect("exposition must parse even mid-storm");
    strip_timestamp(text)
        .lines()
        .filter(|l| {
            // Counter sample lines carry the `_total` render suffix that
            // their `# TYPE` lines do not; match either form.
            let name = l
                .trim_start_matches("# TYPE ")
                .split(['{', ' '])
                .next()
                .unwrap_or("");
            let bare = name.strip_suffix("_total").unwrap_or(name);
            !MOVING.contains(&name) && !MOVING.contains(&bare)
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn int_sample(text: &str, name: &str) -> u64 {
    let doc = parse(text).expect("exposition parses");
    match doc
        .samples
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no sample named {name}"))
        .value
    {
        Value::Int(v) => v,
        Value::Float(f) => panic!("{name} rendered as float {f}"),
    }
}

#[test]
fn malformed_pdu_storm_does_not_perturb_a_live_scrape() {
    let mut machine = SimMachine::quiet(Machine::summit(), 7);
    let region = machine.alloc(2 << 20);
    let base = region.base();
    machine.run_single(0, |core| core.load_seq(base, 2 << 20));

    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let mut server =
        PmcdServer::bind_system("127.0.0.1:0", pmns.clone(), sockets, WireConfig::default())
            .expect("bind pmcd server");
    let http = ScrapeListener::bind("127.0.0.1:0", &server).expect("bind scrape listener");

    let metric = pmns
        .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
        .expect("nest metric resolves");
    let inst = pmns.instance_of_socket(0);

    // Quiescent reference. The HTTP warm-up comes first so the sidecar's
    // always-on request counter exists in the registry before the
    // baseline — the storm comparison is then about values, never about
    // which series exist.
    let _warm_up = http_scrape(http.local_addr());
    let valid_client = WireClient::connect(server.local_addr()).expect("valid client");
    let nest_before = valid_client
        .pm_fetch(&[(metric, inst)])
        .expect("pre-storm fetch");
    assert!(nest_before[0] > 0, "no traffic behind the nest counter");
    let baseline = quiescent_view(&valid_client.scrape_exposition().expect("baseline scrape"));
    assert!(
        baseline.contains("pmcd_fetch_count") && baseline.contains("pmcd_client_rejected"),
        "baseline lost its invariant lines:\n{baseline}"
    );
    let errs_before = server.stats().pdu_error;

    // The storm: hostile floods and a live scraper, concurrently.
    let pdu_addr = server.local_addr();
    let http_addr = http.local_addr();
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let done = done.clone();
        std::thread::spawn(move || {
            let client = WireClient::connect(pdu_addr).expect("scraper connect");
            let mut texts = Vec::new();
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                texts.push(client.scrape_exposition().expect("scrape during storm"));
                texts.push(http_scrape(http_addr));
                std::thread::sleep(Duration::from_millis(1));
            }
            texts
        })
    };
    let frames = mangled_frames(DEFAULT_MAX_PAYLOAD);
    let hostiles: Vec<_> = (0..HOSTILE_THREADS)
        .map(|_| {
            let frames = frames.clone();
            std::thread::spawn(move || {
                for _ in 0..ROUNDS_PER_THREAD {
                    for frame in &frames {
                        hostile_hit(pdu_addr, frame);
                    }
                }
            })
        })
        .collect();
    for h in hostiles {
        h.join().expect("hostile thread panicked");
    }
    done.store(true, std::sync::atomic::Ordering::SeqCst);
    let storm_scrapes = scraper.join().expect("scraper thread panicked");
    assert!(
        storm_scrapes.len() >= 4,
        "scraper barely ran ({} scrapes)",
        storm_scrapes.len()
    );

    // Every mid-storm scrape parses and matches the quiescent render
    // byte for byte outside the moving counters.
    for (i, text) in storm_scrapes.iter().enumerate() {
        assert_eq!(
            quiescent_view(text),
            baseline,
            "scrape {i} of {} diverged from the quiescent render",
            storm_scrapes.len()
        );
    }

    // Every malformed frame was counted, none twice. The last hostile
    // thread may still be draining through a worker when join returns,
    // so give the counter a bounded moment to settle.
    let expected = errs_before + (HOSTILE_THREADS * ROUNDS_PER_THREAD * frames.len()) as u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().pdu_error < expected && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.stats().pdu_error,
        expected,
        "reject accounting drifted"
    );

    // The count is visible through the scrape itself, and the post-storm
    // document has settled back to the quiescent view.
    let post = valid_client.scrape_exposition().expect("post-storm scrape");
    assert_eq!(int_sample(&post, "pmcd_pdu_error"), expected);
    assert_eq!(quiescent_view(&post), baseline);

    // A valid client is unperturbed: same nest counter, same connection.
    let nest_after = valid_client
        .pm_fetch(&[(metric, inst)])
        .expect("post-storm fetch");
    assert_eq!(nest_before, nest_after, "storm perturbed a nest counter");

    server.shutdown();
}
