//! Simulated hosts: one PMCD + registry + socket pair per host.

use std::net::SocketAddr;
use std::sync::Arc;

use p9_arch::Machine;
use p9_memsim::machine::SocketShared;
use p9_memsim::{Direction, NoiseConfig};
use pcp_sim::pmns::Pmns;
use pcp_wire::{PmcdServer, WireConfig};

use crate::FleetError;

/// Deterministic hostname of host `index`: `tellico-0000`,
/// `tellico-0001`, … (the testbed machine of the paper, by the rack).
pub fn host_name(index: usize) -> String {
    format!("tellico-{index:04}")
}

/// Per-host seed: a splitmix64 finalizer over the fleet seed and the
/// host index (the same mixer as the experiment runner's
/// `point_seed`), so host state is a pure function of
/// `(fleet seed, index)` — independent of spawn or scrape order.
pub fn host_seed(fleet_seed: u64, index: u64) -> u64 {
    let mut h = fleet_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1));
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Traffic volume host `index` records on pass `pass`, in bytes —
/// deterministic, distinct per host, never zero. Roughly 1–5 GiB per
/// pass so aggregate rates land in a realistic GB/s band.
pub fn host_pass_bytes(seed: u64, pass: u64) -> u64 {
    let mix = host_seed(seed, pass.wrapping_add(0x5EED));
    (1 << 30) + (mix % (4 << 30))
}

/// One simulated host: a Tellico-class node's nest-counter surface, a
/// private obs registry, and a networked PMCD serving both.
///
/// Heavyweight per-core cache hierarchies (`SimMachine`) are *not*
/// built — hundreds of hosts share one process, and the fleet tier
/// only reads each host's counter/DMA surface
/// ([`SocketShared::standalone`]).
pub struct SimHost {
    index: usize,
    name: String,
    seed: u64,
    sockets: Vec<Arc<SocketShared>>,
    registry: Arc<obs::Registry>,
    sim_bytes: Arc<obs::Counter>,
    sim_ticks: Arc<obs::Counter>,
    server: Option<PmcdServer>,
    addr: SocketAddr,
}

impl SimHost {
    /// Spawn host `index` from its derived seed: build its PMNS over a
    /// Tellico node, two standalone noise-free sockets, a private
    /// registry, and bind its PMCD on an ephemeral loopback port.
    pub fn spawn(index: usize, seed: u64) -> Result<Self, FleetError> {
        let machine = Machine::tellico();
        let pmns = Pmns::for_machine(&machine);
        let sockets: Vec<Arc<SocketShared>> = (0..machine.node.num_sockets())
            .map(|s| {
                SocketShared::standalone(
                    NoiseConfig::none(),
                    host_seed(seed, s as u64),
                    machine.clock_hz,
                )
            })
            .collect();
        let registry = Arc::new(obs::Registry::new());
        // Register in a fixed order so every host's exposition lists
        // the same scalars at the same positions.
        let sim_bytes = registry.counter("host.sim.bytes");
        let sim_ticks = registry.counter("host.sim.ticks");
        let config = WireConfig {
            // Two workers per host: one serves the aggregator's session,
            // which stays open across passes, and the other any other
            // client (debug tools, tests, probes), which would otherwise
            // queue behind that session forever. With the acceptor that
            // is 3 threads/host, ordinary process limits at 256 hosts.
            workers: 2,
            pending: 4,
        };
        let server = PmcdServer::bind_system_with_registry(
            "127.0.0.1:0",
            pmns,
            sockets.clone(),
            config,
            Some(Arc::clone(&registry)),
        )?;
        let addr = server.local_addr();
        Ok(SimHost {
            index,
            name: host_name(index),
            seed,
            sockets,
            registry,
            sim_bytes,
            sim_ticks,
            server: Some(server),
            addr,
        })
    }

    /// Host index within the fleet.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Deterministic hostname (`tellico-XXXX`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Address of this host's PMCD (stable even after [`SimHost::kill`],
    /// so a scraper of a dead host fails instead of blocking).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This host's private obs registry (exported as `pmcd.obs.*`).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Record one pass worth of deterministic simulated traffic:
    /// DMA-style bytes split across the two sockets' nest counters,
    /// plus a clock advance (noise-free, so counters move by exactly
    /// the recorded volume).
    pub fn tick_traffic(&self, pass: u64) {
        let bytes = host_pass_bytes(self.seed, pass);
        for (s, sock) in self.sockets.iter().enumerate() {
            let share = bytes / self.sockets.len() as u64;
            let dir = if (pass + s as u64).is_multiple_of(2) {
                Direction::Read
            } else {
                Direction::Write
            };
            sock.record_dma(share, dir);
            sock.advance_seconds(1.0);
        }
        self.sim_bytes.add(bytes);
        self.sim_ticks.inc();
    }

    /// Whether the host's PMCD is still serving.
    pub fn is_alive(&self) -> bool {
        self.server.is_some()
    }

    /// Kill this host's PMCD (the fault-injection lever): shuts the
    /// server down and drops it, so subsequent scrapes of
    /// [`SimHost::addr`] are refused. Idempotent.
    pub fn kill(&mut self) {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// A spawned fleet of simulated hosts.
pub struct Fleet {
    hosts: Vec<SimHost>,
}

impl Fleet {
    /// Spawn `n` hosts from `seed`. Host `i` gets seed
    /// [`host_seed`]`(seed, i)` and hostname [`host_name`]`(i)`.
    pub fn spawn(n: usize, seed: u64) -> Result<Self, FleetError> {
        let mut hosts = Vec::with_capacity(n);
        for i in 0..n {
            hosts.push(SimHost::spawn(i, host_seed(seed, i as u64))?);
        }
        Ok(Fleet { hosts })
    }

    /// Number of hosts (dead ones included).
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the fleet has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// All hosts, in index order.
    pub fn hosts(&self) -> &[SimHost] {
        &self.hosts
    }

    /// Host `i`, if it exists.
    pub fn host(&self, i: usize) -> Option<&SimHost> {
        self.hosts.get(i)
    }

    /// Record one deterministic traffic pass on every live host.
    pub fn tick_traffic(&self, pass: u64) {
        for h in &self.hosts {
            if h.is_alive() {
                h.tick_traffic(pass);
            }
        }
    }

    /// Kill host `i`'s PMCD (no-op for an unknown index).
    pub fn kill_host(&mut self, i: usize) {
        if let Some(h) = self.hosts.get_mut(i) {
            h.kill();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_names_are_deterministic_and_zero_padded() {
        assert_eq!(host_name(0), "tellico-0000");
        assert_eq!(host_name(17), "tellico-0017");
        assert_eq!(host_name(1023), "tellico-1023");
    }

    #[test]
    fn host_seeds_differ_and_are_reproducible() {
        let a = host_seed(42, 0);
        let b = host_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, host_seed(42, 0));
        assert_ne!(a, host_seed(43, 0));
    }

    #[test]
    fn spawned_host_serves_and_dies_on_kill() {
        let mut host = SimHost::spawn(3, host_seed(7, 3)).expect("spawn host");
        assert_eq!(host.name(), "tellico-0003");
        let client = pcp_wire::WireClient::connect(host.addr()).expect("connect");
        let text = client.scrape_exposition().expect("scrape");
        assert!(text.contains("pmcd_obs_host_sim_bytes_total 0"));
        drop(client);
        host.kill();
        assert!(!host.is_alive());
        assert!(pcp_wire::WireClient::connect(host.addr()).is_err());
        host.kill(); // idempotent
    }

    #[test]
    fn tick_traffic_moves_counters_deterministically() {
        let a = SimHost::spawn(0, host_seed(9, 0)).expect("spawn");
        let b = SimHost::spawn(0, host_seed(9, 0)).expect("spawn twin");
        a.tick_traffic(1);
        b.tick_traffic(1);
        let read =
            |h: &SimHost| -> Vec<obs::metrics::Exported> { obs::Registry::export(h.registry()) };
        assert_eq!(read(&a)[0].value, read(&b)[0].value);
        assert!(read(&a)[0].value >= 1 << 30);
    }
}
