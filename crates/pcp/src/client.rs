//! The unprivileged PCP client context.
//!
//! [`PcpContext`] mirrors the PMAPI calls the PAPI PCP component uses:
//! `pm_lookup_name`, `pm_get_desc`, `pm_get_children`, `pm_fetch`. The
//! client needs no privilege — the entire point of the PCP export — and
//! every fetch charges the daemon round-trip latency to the supplied
//! socket clock, modeling the indirection layer the paper studies.

use std::sync::Arc;

use crate::daemon::Pmcd;
use crate::pmns::{InstanceId, MetricDesc, MetricId};
use p9_memsim::machine::SocketShared;

/// Client-visible errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PcpError {
    /// The metric name does not exist in the PMNS.
    NoSuchMetric(String),
    /// The metric id is not valid.
    BadMetricId,
    /// The instance is outside the metric's instance domain.
    BadInstance,
    /// The connection to the daemon was lost. Produced only by
    /// networked transports such as `pcp-wire`.
    Disconnected,
    /// The transport misbehaved (malformed PDU, I/O error, timeout).
    /// Produced only by networked transports such as `pcp-wire`.
    Protocol(String),
}

impl std::fmt::Display for PcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcpError::NoSuchMetric(n) => write!(f, "no such metric: {n}"),
            PcpError::BadMetricId => write!(f, "invalid metric id"),
            PcpError::BadInstance => write!(f, "invalid instance"),
            PcpError::Disconnected => write!(f, "pmcd connection lost"),
            PcpError::Protocol(detail) => write!(f, "pcp protocol error: {detail}"),
        }
    }
}

impl std::error::Error for PcpError {}

/// The PMAPI operations every transport provides.
///
/// Two implementations exist: [`PcpContext`] (in-process daemon called
/// directly; charges the configured fallback latency to the simulated
/// clock) and `pcp_wire::WireClient` (a real TCP connection to
/// a `pcp_wire::PmcdServer`; pays the actual socket round-trip instead).
/// The PAPI PCP component is written against this trait so either
/// transport can back it unchanged.
pub trait PmApi: Send + Sync {
    /// Resolve a metric name (`pmLookupName`).
    fn pm_lookup_name(&self, name: &str) -> Result<MetricId, PcpError>;

    /// Metric descriptor (`pmLookupDesc`).
    fn pm_get_desc(&self, id: MetricId) -> Result<MetricDesc, PcpError>;

    /// Names under a prefix (`pmGetChildren`, flattened).
    fn pm_get_children(&self, prefix: &str) -> Result<Vec<String>, PcpError>;

    /// Fetch current values (`pmFetch`), one round trip for the group.
    fn pm_fetch(&self, requests: &[(MetricId, InstanceId)]) -> Result<Vec<u64>, PcpError>;

    /// Simulated seconds this transport charges per fetch round-trip.
    /// Zero for transports that pay a real (wall-clock) cost instead.
    fn fetch_latency_s(&self) -> f64 {
        0.0
    }
}

/// An unprivileged connection to the PMCD.
pub struct PcpContext {
    pmcd: Pmcd,
    /// Socket whose clock pays the fetch latency (the context's host
    /// socket). `None` for latency-free administrative contexts.
    host: Option<Arc<SocketShared>>,
}

impl PcpContext {
    /// Connect to a daemon. `host` is the socket the client process runs
    /// on; fetch latency is charged to its clock.
    pub fn connect(pmcd: Pmcd, host: Option<Arc<SocketShared>>) -> Self {
        PcpContext { pmcd, host }
    }
}

impl PmApi for PcpContext {
    fn pm_lookup_name(&self, name: &str) -> Result<MetricId, PcpError> {
        self.pmcd
            .serve(|core| core.lookup(name))
            .ok_or_else(|| PcpError::NoSuchMetric(name.to_owned()))
    }

    fn pm_get_desc(&self, id: MetricId) -> Result<MetricDesc, PcpError> {
        self.pmcd
            .serve(|core| core.desc(id))
            .ok_or(PcpError::BadMetricId)
    }

    fn pm_get_children(&self, prefix: &str) -> Result<Vec<String>, PcpError> {
        Ok(self.pmcd.serve(|core| core.children(prefix)))
    }

    /// One round trip for the whole group — PAPI batches all PCP events
    /// of an event set into a single fetch, and the round-trip latency
    /// is charged once.
    fn pm_fetch(&self, requests: &[(MetricId, InstanceId)]) -> Result<Vec<u64>, PcpError> {
        // No connection queue in front of a function call: depth 0.
        let values = self
            .pmcd
            .serve(|core| core.fetch(requests.iter().copied(), 0));
        if let Some(host) = &self.host {
            host.advance_seconds(self.pmcd.fetch_latency_s());
        }
        values
            .into_iter()
            .map(|v| v.ok_or(PcpError::BadInstance))
            .collect()
    }

    fn fetch_latency_s(&self) -> f64 {
        self.pmcd.fetch_latency_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::PmcdConfig;
    use crate::pmns::Pmns;
    use p9_arch::Machine;
    use p9_memsim::{Direction, SimMachine};

    fn setup(latency: f64) -> (SimMachine, Pmcd, PcpContext) {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let sockets: Vec<_> = (0..m.num_sockets()).map(|s| m.socket_shared(s)).collect();
        let d = Pmcd::spawn_system(
            pmns,
            sockets,
            PmcdConfig {
                fetch_latency_s: latency,
            },
        )
        .expect("spawn pmcd");
        let ctx = PcpContext::connect(d.handle(), Some(m.socket_shared(0)));
        (m, d, ctx)
    }

    #[test]
    fn lookup_fetch_roundtrip() {
        let (m, _d, ctx) = setup(0.0);
        let id = ctx
            .pm_lookup_name("perfevent.hwcounters.nest_mba2_imc.PM_MBA2_READ_BYTES.value")
            .unwrap();
        let desc = ctx.pm_get_desc(id).unwrap();
        assert_eq!(desc.channel, 2);
        // Sector 2 maps to channel 2.
        m.socket_shared(0)
            .counters()
            .record_sector(2, Direction::Read);
        let vals = ctx.pm_fetch(&[(id, InstanceId(87))]).unwrap();
        assert_eq!(vals, vec![64]);
    }

    /// Every PMAPI call is one request and one reply in the daemon's
    /// `pmcd.pdu.*` counters, failed lookups included.
    #[test]
    fn each_call_counts_one_pdu_each_way() {
        let (_m, d, ctx) = setup(0.0);
        let mut last = d.stats();
        let mut one_each_way = |what: &str| {
            let now = d.stats();
            assert_eq!(now.pdu_in - last.pdu_in, 1, "{what}: pdu.in");
            assert_eq!(now.pdu_out - last.pdu_out, 1, "{what}: pdu.out");
            last = now;
        };
        let name = "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value";
        let id = ctx.pm_lookup_name(name).unwrap();
        one_each_way("pm_lookup_name");
        assert!(ctx.pm_lookup_name("nope").is_err());
        one_each_way("pm_lookup_name (miss)");
        ctx.pm_get_desc(id).unwrap();
        one_each_way("pm_get_desc");
        ctx.pm_get_children("perfevent").unwrap();
        one_each_way("pm_get_children");
        ctx.pm_fetch(&[(id, InstanceId(87))]).unwrap();
        one_each_way("pm_fetch");
    }

    #[test]
    fn lookup_failure_is_reported() {
        let (_m, _d, ctx) = setup(0.0);
        match ctx.pm_lookup_name("perfevent.bogus") {
            Err(PcpError::NoSuchMetric(n)) => assert_eq!(n, "perfevent.bogus"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fetch_latency_charged_to_host_clock() {
        let (m, _d, ctx) = setup(1e-3);
        let id = ctx
            .pm_lookup_name("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
            .unwrap();
        let t0 = m.socket_shared(0).now_seconds();
        ctx.pm_fetch(&[(id, InstanceId(87))]).unwrap();
        let t1 = m.socket_shared(0).now_seconds();
        assert!(t1 - t0 >= 0.9e-3, "latency not charged: {}", t1 - t0);
    }

    #[test]
    fn children_listing_via_client() {
        let (_m, _d, ctx) = setup(0.0);
        let names = ctx
            .pm_get_children("perfevent.hwcounters.nest_mba5_imc")
            .unwrap();
        assert_eq!(names.len(), 2);
        assert!(names.iter().all(|n| n.contains("MBA5")));
    }

    #[test]
    fn batched_fetch_returns_all_values() {
        let (m, _d, ctx) = setup(0.0);
        let pmns = Pmns::for_machine(m.arch());
        let reqs: Vec<_> = (0..8)
            .map(|ch| {
                let id = pmns
                    .lookup(&format!(
                        "perfevent.hwcounters.nest_mba{ch}_imc.PM_MBA{ch}_READ_BYTES.value"
                    ))
                    .unwrap();
                (id, InstanceId(87))
            })
            .collect();
        for s in 0..16u64 {
            m.socket_shared(0)
                .counters()
                .record_sector(s, Direction::Read);
        }
        let vals = ctx.pm_fetch(&reqs).unwrap();
        assert_eq!(vals, vec![128; 8]);
    }
}
