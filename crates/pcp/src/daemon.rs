//! The Performance Metrics Collector Daemon (PMCD), in process.
//!
//! The daemon is the *only* component on a Summit node holding an
//! elevated privilege token, so it is the only path by which an
//! unprivileged client sees the nest counters. Here that boundary is a
//! type: a [`Pmcd`] is built only with an elevated [`PrivilegeToken`].
//! It is then a `Clone` handle on the [`FetchCore`] that defines every
//! answer, which [`crate::client::PcpContext`] calls directly; the
//! indirection cost the paper evaluates is `fetch_latency_s`, charged to
//! the client's simulated clock per fetch. (`pcp-wire` is the TCP PMCD.)

use std::sync::Arc;

use crate::fetchcore::FetchCore;
use crate::pmns::Pmns;
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
}

impl Default for PmcdConfig {
    fn default() -> Self {
        PmcdConfig {
            // ~80 µs: a local-socket PDU round trip plus PMDA work.
            fetch_latency_s: 80e-6,
        }
    }
}

/// Why a daemon failed to start.
#[derive(Debug)]
pub enum PmcdError {
    /// The caller's token lacks elevation.
    Privilege(PrivilegeError),
    /// `fetch_latency_s` is negative or not finite: it would silently
    /// corrupt every measurement window.
    BadLatency(f64),
}

impl std::fmt::Display for PmcdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmcdError::Privilege(e) => write!(f, "privilege: {e}"),
            PmcdError::BadLatency(s) => {
                write!(f, "fetch_latency_s must be finite and >= 0, got {s}")
            }
        }
    }
}

impl std::error::Error for PmcdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PmcdError::Privilege(e) => Some(e),
            PmcdError::BadLatency(_) => None,
        }
    }
}

impl From<PrivilegeError> for PmcdError {
    fn from(e: PrivilegeError) -> Self {
        PmcdError::Privilege(e)
    }
}

/// The daemon: a handle on its [`FetchCore`]. Clones share the core, so
/// the daemon lives as long as any handle or connected client does.
#[derive(Clone)]
pub struct Pmcd {
    core: Arc<FetchCore>,
    fetch_latency_s: f64,
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
        let latency = config.fetch_latency_s;
        if !(latency.is_finite() && latency >= 0.0) {
            return Err(PmcdError::BadLatency(latency));
        }
        Ok(Pmcd {
            core: Arc::new(FetchCore::new(pmns, sockets, None)),
            fetch_latency_s: latency,
        })
    }

    /// Start a PMCD as the *system* would: the system boot path mints the
    /// elevated token itself, so this succeeds even on machines where users
    /// are unprivileged. This is how Summit exposes nest counters to
    /// everyone. Privilege cannot fail here; a bad config still can.
    pub fn spawn_system(
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        config: PmcdConfig,
    ) -> Result<Self, PmcdError> {
        Self::spawn(pmns, sockets, &PrivilegeToken::elevated(), config)
    }

    /// Handle for connecting clients: a clone sharing this daemon's core.
    pub fn handle(&self) -> Pmcd {
        self.clone()
    }

    /// Simulated seconds a client charges per fetch round-trip.
    pub(crate) fn fetch_latency_s(&self) -> f64 {
        self.fetch_latency_s
    }

    /// One request/reply exchange: `request` runs on the core, counted
    /// as one PDU in and one out, as a wire request is.
    pub(crate) fn serve<T>(&self, request: impl FnOnce(&FetchCore) -> T) -> T {
        let stats = self.core.stats();
        stats.count_pdu_in();
        let reply = request(&self.core);
        stats.count_pdu_out();
        reply
    }

    #[cfg(test)]
    pub(crate) fn stats(&self) -> crate::fetchcore::StatsSnapshot {
        self.core.stats().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetchcore::{OBS_METRIC_BASE, SELF_METRIC_BASE};
    use crate::pmns::{InstanceId, MetricId};
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
        d.serve(|core| core.fetch([(id, inst)].into_iter(), 0))[0]
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
        assert!(matches!(err, Err(PmcdError::Privilege(_))));
    }

    /// Nest values appear live on each socket's publisher CPU only:
    /// sockets do not mix, other valid CPUs read 0, invalid ones `None`.
    #[test]
    fn fetch_reads_live_counters_per_socket() {
        let (m, d) = setup();
        let pmns = Pmns::for_machine(m.arch());
        let read = pmns
            .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
            .unwrap();
        let write = pmns
            .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value")
            .unwrap();
        let (s0, s1) = (pmns.instance_of_socket(0), pmns.instance_of_socket(1));
        assert_eq!(roundtrip_fetch(&d, read, s0), Some(0));
        // Sector 0 -> channel 0: a read on socket 0, a write on socket 1.
        m.socket_shared(0)
            .counters()
            .record_sector(0, Direction::Read);
        m.socket_shared(1)
            .counters()
            .record_sector(0, Direction::Write);
        assert_eq!(roundtrip_fetch(&d, read, s0), Some(64));
        assert_eq!(roundtrip_fetch(&d, read, s1), Some(0));
        assert_eq!(roundtrip_fetch(&d, write, s0), Some(0));
        assert_eq!(roundtrip_fetch(&d, write, s1), Some(64));
        // CPU 3 is a valid instance but not a nest publisher -> 0.
        assert_eq!(roundtrip_fetch(&d, read, InstanceId(3)), Some(0));
        // CPU 500 is not a valid instance -> None.
        assert_eq!(roundtrip_fetch(&d, read, InstanceId(500)), None);
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
        let mut logger =
            PmLogger::new(ctx2, vec![(nest, inst), (fetches, InstanceId(0))], 1.0).unwrap();
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
        let id = d
            .serve(|core| core.lookup("pmcd.obs.daemon.test_counter"))
            .expect("obs metric resolves");
        assert!(id.0 >= OBS_METRIC_BASE);
        assert_eq!(roundtrip_fetch(&d, id, InstanceId(0)), Some(5));
    }

    #[test]
    fn bad_latency_is_a_typed_error() {
        let m = SimMachine::quiet(Machine::summit(), 1);
        for bad in [-1e-6, f64::NAN, f64::INFINITY] {
            let got = Pmcd::spawn_system(
                Pmns::for_machine(m.arch()),
                vec![m.socket_shared(0)],
                PmcdConfig {
                    fetch_latency_s: bad,
                },
            );
            assert!(
                matches!(got, Err(PmcdError::BadLatency(s)) if s.to_bits() == bad.to_bits()),
                "fetch_latency_s = {bad} must be refused"
            );
        }
    }
}
