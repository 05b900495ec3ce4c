//! Daemon crash/restart mid-archive, end to end over the wire (ROADMAP
//! item 5c): a `SamplingScheduler` logs nest counters through a TCP
//! `WireClient` while the PMCD it talks to is killed and respawned over a
//! *fresh* machine (counters reset to zero, as after a host reboot). The
//! archive must come through gapless — no halted group, timestamps still
//! monotone, store parity intact — and counter-delta saturation must turn
//! the reset into a zero delta rather than an underflow.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use obs::metrics::ExportSemantics;
use papi_repro::arch::Machine;
use papi_repro::memsim::SimMachine;
use papi_repro::pcp::{InstanceId, MetricId, PcpError, Pmns};
use papi_repro::pcp::{MetricDesc, PmApi};
use papi_repro::wire::logger::archive_from_store;
use papi_repro::wire::{PmcdServer, SamplingScheduler, ScheduleSpec, WireClient, WireConfig};
use store::Store;

/// A `PmApi` that re-dials its (swappable) target on connection failure.
///
/// The scheduler halts a group permanently on the first fetch error, so a
/// logger that should survive a daemon restart must bring reconnection
/// with it — exactly what pmlogger does in real PCP deployments. Fetches
/// retry against the current target for a bounded grace window (far
/// longer than the respawn gap in this test), then give up with the
/// underlying error.
struct ReconnectingClient {
    target: Arc<Mutex<SocketAddr>>,
    conn: Mutex<Option<WireClient>>,
}

const RETRY_EVERY: Duration = Duration::from_millis(5);
const GIVE_UP_AFTER: Duration = Duration::from_secs(10);

impl ReconnectingClient {
    fn new(target: Arc<Mutex<SocketAddr>>) -> Self {
        ReconnectingClient {
            target,
            conn: Mutex::new(None),
        }
    }

    fn with_conn<T>(&self, op: impl Fn(&WireClient) -> Result<T, PcpError>) -> Result<T, PcpError> {
        let deadline = std::time::Instant::now() + GIVE_UP_AFTER;
        let mut last_err;
        loop {
            let attempt = {
                let mut conn = self.conn.lock().unwrap();
                if conn.is_none() {
                    let addr = *self.target.lock().unwrap();
                    match WireClient::connect(addr) {
                        Ok(c) => *conn = Some(c),
                        Err(e) => {
                            drop(conn);
                            last_err = e;
                            if std::time::Instant::now() > deadline {
                                return Err(last_err);
                            }
                            std::thread::sleep(RETRY_EVERY);
                            continue;
                        }
                    }
                }
                let result = op(conn.as_ref().expect("just connected"));
                if result.is_err() {
                    // Whatever happened, the connection is suspect: drop
                    // it so the next attempt re-dials the current target.
                    *conn = None;
                }
                result
            };
            match attempt {
                Ok(v) => return Ok(v),
                Err(e) => {
                    last_err = e;
                    if std::time::Instant::now() > deadline {
                        return Err(last_err);
                    }
                    std::thread::sleep(RETRY_EVERY);
                }
            }
        }
    }
}

impl PmApi for ReconnectingClient {
    fn pm_lookup_name(&self, name: &str) -> Result<MetricId, PcpError> {
        self.with_conn(|c| c.pm_lookup_name(name))
    }
    fn pm_get_desc(&self, id: MetricId) -> Result<MetricDesc, PcpError> {
        self.with_conn(|c| c.pm_get_desc(id))
    }
    fn pm_get_children(&self, prefix: &str) -> Result<Vec<String>, PcpError> {
        self.with_conn(|c| c.pm_get_children(prefix))
    }
    fn pm_fetch(&self, requests: &[(MetricId, InstanceId)]) -> Result<Vec<u64>, PcpError> {
        self.with_conn(|c| c.pm_fetch(requests))
    }
}

/// The sampling cadence. The kill lands wherever the sampler happens to
/// be: between samples its session is idle and shutdown closes it at
/// once, so the next fetch fails and re-dials; mid-fetch, the request is
/// answered first. Either way the scheduler must not halt the group.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

fn bind_server(machine: &SimMachine, pmns: &Pmns) -> PmcdServer {
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    PmcdServer::bind_system("127.0.0.1:0", pmns.clone(), sockets, WireConfig::default())
        .expect("bind pmcd server")
}

fn drive_traffic(machine: &mut SimMachine, bytes: u64) {
    let region = machine.alloc(bytes);
    let base = region.base();
    machine.run_single(0, |core| core.load_seq(base, bytes));
}

fn wait_for_samples(sched: &SamplingScheduler, group: &str, at_least: usize) -> usize {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let n = sched
            .sample_counts()
            .into_iter()
            .find(|(name, _)| name == group)
            .map(|(_, n)| n)
            .unwrap_or(0);
        if n >= at_least || std::time::Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn daemon_crash_and_respawn_yields_gapless_monotone_archive() {
    // Phase 1: a machine with real traffic behind a live PMCD.
    let mut machine1 = SimMachine::quiet(Machine::summit(), 11);
    drive_traffic(&mut machine1, 4 << 20);
    let pmns = Pmns::for_machine(machine1.arch());
    let mut server1 = bind_server(&machine1, &pmns);

    let metric = pmns
        .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
        .expect("nest metric resolves");
    let inst = pmns.instance_of_socket(0);

    let target = Arc::new(Mutex::new(server1.local_addr()));
    let store = Arc::new(Store::default());
    let metrics = vec![(metric, inst)];
    let sched = SamplingScheduler::start_with_store(
        ReconnectingClient::new(target.clone()),
        vec![ScheduleSpec {
            name: "chaos".into(),
            metrics: metrics.clone(),
            interval: SAMPLE_EVERY,
        }],
        store.clone(),
    )
    .expect("scheduler starts");

    let before_crash = wait_for_samples(&sched, "chaos", 3);
    assert!(before_crash >= 3, "no samples before crash");

    // Phase 2: kill the daemon mid-archive. In-flight fetches now fail
    // and the client spins in its reconnect loop.
    server1.shutdown();

    // Phase 3: respawn over a *fresh* machine — counters restart from
    // zero exactly like a rebooted host — and point the client at it.
    let mut machine2 = SimMachine::quiet(Machine::summit(), 12);
    let server2 = bind_server(&machine2, &pmns);
    *target.lock().unwrap() = server2.local_addr();
    drive_traffic(&mut machine2, 1 << 20);

    let after_restart = wait_for_samples(&sched, "chaos", before_crash + 3);
    assert!(
        after_restart >= before_crash + 3,
        "archive did not keep growing after the restart ({before_crash} -> {after_restart})"
    );

    let mut out = sched.stop();
    let (name, archive, err) = out.remove(0);
    assert_eq!(name, "chaos");
    assert!(err.is_none(), "group halted: {err:?}");

    // Gapless: every tick made it into one archive...
    assert!(archive.len() >= before_crash + 3);
    // ...with monotone timestamps right across the crash window.
    let times: Vec<f64> = archive.records().iter().map(|r| r.time_s).collect();
    assert!(
        times.windows(2).all(|w| w[1] > w[0]),
        "timestamps not strictly monotone across restart"
    );

    // The crash is visible in the raw values: machine1 had 4 MiB of
    // traffic behind the counters (512 KiB on channel 0, the one we
    // archive), machine2 starts near zero.
    let values: Vec<u64> = archive.records().iter().map(|r| r.values[0]).collect();
    let peak_before = *values.iter().max().unwrap();
    assert!(
        peak_before >= (4 << 20) / 8,
        "pre-crash counter never observed (peak {peak_before})"
    );
    assert!(
        values.windows(2).any(|w| w[1] < w[0]),
        "counter reset not captured — did the respawn actually happen?"
    );

    // Counter-delta saturation pins the reset to a zero delta: replaying
    // the archived samples through obs' window derivations (the same
    // path the live monitor uses) must never underflow or go negative.
    let mut ring = obs::SeriesStore::new(archive.len().max(2));
    for rec in archive.records() {
        ring.push(
            "chaos.nest.read",
            ExportSemantics::Counter,
            (rec.time_s * 1e9) as u64,
            rec.values[0],
        );
    }
    let series = ring.get("chaos.nest.read").expect("series exists");
    let samples: Vec<_> = series.iter().collect();
    for window in 2..=samples.len() {
        let mut sub = obs::SeriesStore::new(window);
        for s in &samples[samples.len() - window..] {
            sub.push("w", ExportSemantics::Counter, s.t_ns, s.value);
        }
        let sub_series = sub.get("w").expect("window series");
        let d = obs::derive::delta(sub_series).expect("delta over window");
        assert!(d >= 0, "saturating counter delta went negative: {d}");
        let r = obs::derive::rate(sub_series).expect("rate over window");
        assert!(r.is_finite() && r >= 0.0, "rate {r} over {window} samples");
    }

    // Store parity survives the crash too: the store-backed record
    // stream rebuilds the wall-clock log sample for sample.
    let rebuilt = archive_from_store(&store, "chaos", metrics).expect("rebuild from store");
    assert_eq!(rebuilt.len(), archive.len(), "store lost samples");
    for (a, b) in rebuilt.records().iter().zip(archive.records()) {
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.values, b.values);
    }
}
