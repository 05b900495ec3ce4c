//! Daemon crash/restart mid-archive, end to end over the wire (ROADMAP
//! item 5c): a `PmLogger` logs nest counters through a TCP `WireClient`
//! while the PMCD it talks to is killed and respawned over a *fresh*
//! machine (counters reset to zero, as after a host reboot). The test
//! thread pumps the logger on a virtual clock and kills the daemon
//! between two polls, so every run takes the same path. The archive must
//! come through gapless — every poll samples, timestamps strictly
//! increase — and counter-delta saturation must turn the reset into a
//! zero delta rather than an underflow.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use obs::metrics::ExportSemantics;
use obs::series::Sample;
use papi_repro::arch::Machine;
use papi_repro::memsim::SimMachine;
use papi_repro::pcp::{InstanceId, MetricId, PcpError, PmLogger, Pmns};
use papi_repro::pcp::{MetricDesc, PmApi};
use papi_repro::wire::{PmcdServer, WireClient, WireConfig};

/// A `PmApi` that re-dials its (swappable) target on connection failure.
///
/// `PmLogger` hands a failed fetch back to its caller, so a logger that
/// should survive a daemon restart must bring reconnection with it —
/// exactly what pmlogger does in real PCP deployments. An operation that
/// fails on the current connection re-dials the current target once and
/// is retried once.
struct ReconnectingClient {
    target: Arc<Mutex<SocketAddr>>,
    conn: Mutex<Option<WireClient>>,
}

impl ReconnectingClient {
    fn new(target: Arc<Mutex<SocketAddr>>) -> Self {
        ReconnectingClient {
            target,
            conn: Mutex::new(None),
        }
    }

    fn with_conn<T>(&self, op: impl Fn(&WireClient) -> Result<T, PcpError>) -> Result<T, PcpError> {
        let mut conn = self.conn.lock().unwrap();
        if let Some(c) = conn.as_ref() {
            if let Ok(v) = op(c) {
                return Ok(v);
            }
        }
        let addr = *self.target.lock().unwrap();
        op(conn.insert(WireClient::connect(addr)?))
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

/// The sampling cadence, in virtual seconds. The test advances its clock
/// by exactly this step per poll, so every poll is due.
const SAMPLE_EVERY_S: f64 = 0.1;
/// Polls on each side of the crash.
const POLLS_PER_PHASE: usize = 5;

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

/// Poll `POLLS_PER_PHASE` times, one cadence step apart, requiring a
/// sample from each.
fn pump(logger: &mut PmLogger, now_s: &mut f64) {
    for _ in 0..POLLS_PER_PHASE {
        let sampled = logger
            .poll(*now_s)
            .unwrap_or_else(|e| panic!("poll at t = {now_s} failed: {e}"));
        assert!(sampled, "poll at t = {now_s} took no sample");
        *now_s += SAMPLE_EVERY_S;
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
    let mut logger = PmLogger::new(
        ReconnectingClient::new(target.clone()),
        vec![(metric, inst)],
        SAMPLE_EVERY_S,
    )
    .expect("positive interval");
    let mut now_s = 0.0;
    pump(&mut logger, &mut now_s);

    // Phase 2: kill the daemon between two polls. Shutdown closes the
    // logger's idle session, so its next fetch fails and re-dials.
    server1.shutdown();

    // Phase 3: respawn over a *fresh* machine — counters restart from
    // zero exactly like a rebooted host — and point the client at it.
    let mut machine2 = SimMachine::quiet(Machine::summit(), 12);
    let server2 = bind_server(&machine2, &pmns);
    *target.lock().unwrap() = server2.local_addr();
    drive_traffic(&mut machine2, 1 << 20);
    pump(&mut logger, &mut now_s);

    // Gapless: every poll made it into one archive...
    let archive = logger.close();
    assert_eq!(archive.len(), 2 * POLLS_PER_PHASE);
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
    let samples: Vec<Sample> = archive
        .records()
        .iter()
        .map(|rec| Sample {
            t_ns: (rec.time_s * 1e9) as u64,
            value: rec.values[0],
        })
        .collect();
    for window in 2..=samples.len() {
        let sub = &samples[samples.len() - window..];
        let d = obs::derive::delta(ExportSemantics::Counter, sub).expect("delta over window");
        assert!(d >= 0, "saturating counter delta went negative: {d}");
        let r = obs::derive::rate(ExportSemantics::Counter, sub).expect("rate over window");
        assert!(r.is_finite() && r >= 0.0, "rate {r} over {window} samples");
    }
}
