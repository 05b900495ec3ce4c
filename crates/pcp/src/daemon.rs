//! The Performance Metrics Collector Daemon (PMCD).
//!
//! The daemon is a real OS thread. It is the *only* component on a Summit
//! node holding an elevated privilege token, and therefore the only path by
//! which an unprivileged client can observe the nest counters. Requests
//! arrive over a `std::sync::mpsc` channel; each request carries its own
//! response channel (a bounded rendezvous), mirroring PCP's PDU exchange.
//! (A *real* networked PMCD over TCP lives in the `pcp-wire` crate; this
//! in-process daemon remains the zero-infrastructure fallback.) What
//! the daemon answers is defined by [`FetchCore`]; the service loop here
//! is only the channel transport in front of it.
//!
//! Two fidelity knobs model the indirection the paper evaluates:
//!
//! * `fetch_latency_s` — wall time one fetch round-trip adds to the
//!   *requesting context's* measured window (daemon scheduling + PDU
//!   encode/decode). The PAPI PCP component accounts this when it reads.
//! * `fetch_touch` — when set, every fetch injects the daemon's own memory
//!   traffic into the socket counters (the daemon runs *on* the measured
//!   socket). Off by default; the PAPI layer injects start/stop overhead
//!   itself.

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::fetchcore::FetchCore;
use crate::pmns::{InstanceId, MetricDesc, MetricId, Pmns};
use p9_memsim::machine::SocketShared;
use p9_memsim::{PrivilegeError, PrivilegeToken};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct PmcdConfig {
    /// Seconds of simulated latency added per fetch round-trip.
    ///
    /// This is the *fallback* latency model, used only by the in-process
    /// transport ([`crate::client::PcpContext`]) where there is no real
    /// network hop to measure. The wire transport (`pcp-wire`) pays the
    /// actual socket round-trip instead and ignores this knob.
    pub fetch_latency_s: f64,
    /// Inject daemon memory traffic on each fetch.
    pub fetch_touch: bool,
}

impl Default for PmcdConfig {
    fn default() -> Self {
        PmcdConfig {
            // ~80 µs: a local-socket PDU round trip plus PMDA work.
            fetch_latency_s: 80e-6,
            fetch_touch: false,
        }
    }
}

impl PmcdConfig {
    /// Panic on configurations that would silently corrupt every
    /// measurement window (negative or NaN latency).
    pub fn validate(&self) {
        assert!(
            self.fetch_latency_s.is_finite() && self.fetch_latency_s >= 0.0,
            "PmcdConfig::fetch_latency_s must be finite and non-negative, got {}",
            self.fetch_latency_s
        );
    }
}

/// Requests a client can send (a trimmed PCP PDU set).
#[derive(Debug)]
pub enum Request {
    LookupName {
        name: String,
        reply: SyncSender<Option<MetricId>>,
    },
    Desc {
        id: MetricId,
        reply: SyncSender<Option<MetricDesc>>,
    },
    Children {
        prefix: String,
        reply: SyncSender<Vec<String>>,
    },
    Fetch {
        requests: Vec<(MetricId, InstanceId)>,
        reply: SyncSender<Vec<Option<u64>>>,
    },
    Shutdown,
}

/// A handle for connecting clients and shutting the daemon down.
#[derive(Clone)]
pub struct PmcdHandle {
    tx: Sender<Request>,
    config: PmcdConfig,
}

impl PmcdHandle {
    pub(crate) fn sender(&self) -> Sender<Request> {
        self.tx.clone()
    }

    /// The daemon's configuration (clients read the fetch latency).
    pub fn config(&self) -> &PmcdConfig {
        &self.config
    }
}

/// Why a daemon failed to start.
#[derive(Debug)]
pub enum PmcdError {
    /// The caller's token lacks elevation.
    Privilege(PrivilegeError),
    /// The OS refused to spawn the service thread.
    Spawn(std::io::Error),
}

impl std::fmt::Display for PmcdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmcdError::Privilege(e) => write!(f, "privilege: {e}"),
            PmcdError::Spawn(e) => write!(f, "spawn pmcd thread: {e}"),
        }
    }
}

impl std::error::Error for PmcdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PmcdError::Privilege(e) => Some(e),
            PmcdError::Spawn(e) => Some(e),
        }
    }
}

impl From<PrivilegeError> for PmcdError {
    fn from(e: PrivilegeError) -> Self {
        PmcdError::Privilege(e)
    }
}

/// The daemon itself (owns the service thread).
pub struct Pmcd {
    handle: PmcdHandle,
    thread: Option<JoinHandle<()>>,
}

impl Pmcd {
    /// Start a PMCD for the given sockets. Requires an elevated token —
    /// exactly like the real daemon, which is started by the system with
    /// the privileges ordinary users lack.
    pub fn spawn(
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        token: &PrivilegeToken,
        config: PmcdConfig,
    ) -> Result<Self, PmcdError> {
        token.require_elevated()?;
        config.validate();
        let (tx, rx) = channel::<Request>();
        let core = FetchCore::new(pmns, sockets, config.fetch_touch, None);
        let thread = std::thread::Builder::new()
            .name("pmcd".into())
            .spawn(move || service_loop(&core, &rx))
            .map_err(PmcdError::Spawn)?;
        Ok(Pmcd {
            handle: PmcdHandle { tx, config },
            thread: Some(thread),
        })
    }

    /// Start a PMCD as the *system* would: the system boot path mints the
    /// elevated token itself, so this succeeds even on machines where users
    /// are unprivileged. This is how Summit exposes nest counters to
    /// everyone. Privilege cannot fail here; thread spawning still can.
    pub fn spawn_system(
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        config: PmcdConfig,
    ) -> Result<Self, PmcdError> {
        Self::spawn(pmns, sockets, &PrivilegeToken::elevated(), config)
    }

    /// Handle for connecting clients.
    pub fn handle(&self) -> PmcdHandle {
        self.handle.clone()
    }
}

impl Drop for Pmcd {
    fn drop(&mut self) {
        let _ = self.handle.tx.send(Request::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The channel transport: one [`FetchCore`] call per request. Replies
/// go out on the request's own rendezvous channel; a client that hung
/// up before its reply is not an error.
fn service_loop(core: &FetchCore, rx: &Receiver<Request>) {
    let stats = core.stats();
    while let Ok(req) = rx.recv() {
        stats.count_pdu_in();
        match req {
            Request::LookupName { name, reply } => {
                let _ = reply.send(core.lookup(&name));
            }
            Request::Desc { id, reply } => {
                let _ = reply.send(core.desc(id));
            }
            Request::Children { prefix, reply } => {
                let _ = reply.send(core.children(&prefix));
            }
            Request::Fetch { requests, reply } => {
                // No connection queue in front of a channel: depth 0.
                let _ = reply.send(core.fetch(requests.into_iter(), 0));
            }
            Request::Shutdown => break,
        }
        stats.count_pdu_out();
    }
}

/// Create a rendezvous channel for one request/response exchange.
pub(crate) fn oneshot<T>() -> (SyncSender<T>, Receiver<T>) {
    sync_channel(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetchcore::{OBS_METRIC_BASE, SELF_METRIC_BASE};
    use p9_arch::Machine;
    use p9_memsim::{Direction, SimMachine};

    fn setup() -> (SimMachine, Pmcd) {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let sockets = (0..m.num_sockets()).map(|s| m.socket_shared(s)).collect();
        let d = Pmcd::spawn_system(pmns, sockets, PmcdConfig::default()).expect("spawn pmcd");
        (m, d)
    }

    fn roundtrip_fetch(d: &Pmcd, id: MetricId, inst: InstanceId) -> Option<u64> {
        let (tx, rx) = oneshot();
        d.handle()
            .sender()
            .send(Request::Fetch {
                requests: vec![(id, inst)],
                reply: tx,
            })
            .unwrap();
        rx.recv().unwrap()[0]
    }

    #[test]
    fn daemon_requires_elevation() {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let sockets = vec![m.socket_shared(0)];
        let err = Pmcd::spawn(
            pmns,
            sockets,
            &PrivilegeToken::user(),
            PmcdConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn fetch_returns_live_counter_values() {
        let (m, d) = setup();
        let pmns = Pmns::for_machine(m.arch());
        let id = pmns
            .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
            .unwrap();
        let inst = pmns.instance_of_socket(0);
        assert_eq!(roundtrip_fetch(&d, id, inst), Some(0));
        // Generate traffic on channel 0 (sector 0 -> channel 0).
        m.socket_shared(0)
            .counters()
            .record_sector(0, Direction::Read);
        assert_eq!(roundtrip_fetch(&d, id, inst), Some(64));
    }

    #[test]
    fn wrong_instance_reads_zero_and_invalid_is_none() {
        let (m, d) = setup();
        let pmns = Pmns::for_machine(m.arch());
        let id = pmns
            .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
            .unwrap();
        m.socket_shared(0)
            .counters()
            .record_sector(0, Direction::Read);
        // CPU 3 is a valid instance but not a nest publisher -> 0.
        assert_eq!(roundtrip_fetch(&d, id, InstanceId(3)), Some(0));
        // CPU 500 is not a valid instance -> None.
        assert_eq!(roundtrip_fetch(&d, id, InstanceId(500)), None);
    }

    #[test]
    fn sockets_are_independent() {
        let (m, d) = setup();
        let pmns = Pmns::for_machine(m.arch());
        let id = pmns
            .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value")
            .unwrap();
        m.socket_shared(1)
            .counters()
            .record_sector(0, Direction::Write);
        assert_eq!(roundtrip_fetch(&d, id, pmns.instance_of_socket(0)), Some(0));
        assert_eq!(
            roundtrip_fetch(&d, id, pmns.instance_of_socket(1)),
            Some(64)
        );
    }

    #[test]
    fn shutdown_on_drop_joins_thread() {
        let (_m, d) = setup();
        drop(d); // must not hang
    }

    /// Self-metrics are registered at daemon construction, so a logger's
    /// *first* sample already resolves and records the `pmcd.*` columns
    /// (previously they would only exist after the first client fetch).
    #[test]
    fn self_metrics_exist_from_construction_and_land_in_first_archive_sample() {
        use crate::archive::PmLogger;
        use crate::client::PcpContext;

        let (m, d) = setup();
        let ctx = PcpContext::connect(d.handle(), None);
        // Resolvable before any fetch has ever happened.
        let fetches = ctx.pm_lookup_name("pmcd.fetch.count").expect("lookup");
        assert!(fetches.0 >= SELF_METRIC_BASE);
        let desc = ctx.pm_get_desc(fetches).expect("desc");
        assert_eq!(desc.name, "pmcd.fetch.count");
        assert!(ctx
            .pm_get_children("pmcd")
            .expect("children")
            .iter()
            .any(|n| n == "pmcd.fetch.latency_ns.lt_1048576"));

        let pmns = Pmns::for_machine(m.arch());
        let nest = pmns
            .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
            .unwrap();
        let inst = pmns.instance_of_socket(0);
        let ctx2 = PcpContext::connect(d.handle(), None);
        let mut logger = PmLogger::new(ctx2, vec![(nest, inst), (fetches, InstanceId(0))], 1.0);
        assert!(logger.poll(0.0).expect("first sample"));
        assert!(logger.poll(1.0).expect("second sample"));
        let archive = logger.close();
        // First sample contains the column (value 0: a fetch reports the
        // fetches completed before it); the second has counted the first.
        assert_eq!(archive.records()[0].values[1], 0);
        assert_eq!(archive.records()[1].values[1], 1);
    }

    /// The global obs registry is fetchable through the in-process
    /// daemon under `pmcd.obs.*`.
    #[test]
    fn obs_registry_fetchable_through_daemon() {
        let (_m, d) = setup();
        obs::registry().counter("daemon.test_counter").add(5);
        let (tx, rx) = oneshot();
        d.handle()
            .sender()
            .send(Request::LookupName {
                name: "pmcd.obs.daemon.test_counter".into(),
                reply: tx,
            })
            .unwrap();
        let id = rx.recv().unwrap().expect("obs metric resolves");
        assert!(id.0 >= OBS_METRIC_BASE);
        assert_eq!(roundtrip_fetch(&d, id, InstanceId(0)), Some(5));
    }

    #[test]
    #[should_panic(expected = "fetch_latency_s")]
    fn negative_latency_rejected_at_construction() {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let _ = Pmcd::spawn_system(
            pmns,
            vec![m.socket_shared(0)],
            PmcdConfig {
                fetch_latency_s: -1e-6,
                fetch_touch: false,
            },
        );
    }

    #[test]
    #[should_panic(expected = "fetch_latency_s")]
    fn nan_latency_rejected_at_construction() {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let _ = Pmcd::spawn_system(
            pmns,
            vec![m.socket_shared(0)],
            PmcdConfig {
                fetch_latency_s: f64::NAN,
                fetch_touch: false,
            },
        );
    }
}

#[cfg(test)]
mod touch_tests {
    use super::*;
    use crate::client::PcpContext;
    use p9_arch::Machine;
    use p9_memsim::{NoiseConfig, SimMachine};

    /// With `fetch_touch` enabled, each fetch injects the daemon's own
    /// memory footprint into the measured socket — the "observer effect"
    /// knob of the indirection model.
    #[test]
    fn fetch_touch_injects_daemon_traffic() {
        let m = SimMachine::new(Machine::summit(), NoiseConfig::summit(), 55);
        let pmns = Pmns::for_machine(m.arch());
        let d = Pmcd::spawn_system(
            pmns.clone(),
            vec![m.socket_shared(0)],
            PmcdConfig {
                fetch_latency_s: 0.0,
                fetch_touch: true,
            },
        )
        .expect("spawn pmcd");
        let ctx = PcpContext::connect(d.handle(), None);
        let id = pmns
            .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
            .unwrap();
        let inst = pmns.instance_of_socket(0);
        let v1 = ctx.pm_fetch(&[(id, inst)]).unwrap()[0];
        let v2 = ctx.pm_fetch(&[(id, inst)]).unwrap()[0];
        assert!(v2 > v1, "each fetch must add daemon traffic: {v1} vs {v2}");
    }
}
