//! A simulated Mellanox InfiniBand fabric.
//!
//! Summit nodes carry dual-rail ConnectX-5 EDR HCAs (`mlx5_0`, `mlx5_1`).
//! The paper monitors the extended port counter `port_recv_data` through
//! PAPI's `infiniband` component and observes jumps during the 3D-FFT's
//! two All2All exchange phases (Fig. 11).
//!
//! The model:
//!
//! * [`Port`] — per-port receive/transmit counters. Following the
//!   InfiniBand spec (and the sysfs `ports/1/counters` files PAPI reads),
//!   `port_recv_data` / `port_xmit_data` count **32-bit words**, i.e.
//!   octets divided by 4.
//! * [`Hca`] — a host channel adapter (two per node: the two rails).
//! * [`Fabric`] — the set of nodes; [`Fabric::alltoall`] moves the given
//!   number of bytes between every pair of distinct nodes, updates all
//!   port counters, and returns the modeled duration of the exchange
//!   (bottlenecked by per-node injection bandwidth across both rails).

use std::sync::Arc;

use obs::Counter;

/// EDR InfiniBand per-rail bandwidth (bytes/s), ~12.5 GB/s.
pub const RAIL_BW: f64 = 12.5e9;

/// One HCA port with extended counters.
#[derive(Debug, Default)]
pub struct Port {
    recv_words: Counter,
    xmit_words: Counter,
}

impl Port {
    /// Record `bytes` received (stored in 4-byte words, rounding down like
    /// the hardware counter).
    pub fn record_recv(&self, bytes: u64) {
        self.recv_words.add(bytes / 4);
    }

    /// Record `bytes` transmitted.
    pub fn record_xmit(&self, bytes: u64) {
        self.xmit_words.add(bytes / 4);
    }

    /// `port_recv_data`: received 32-bit words.
    pub fn recv_data(&self) -> u64 {
        self.recv_words.get()
    }

    /// `port_xmit_data`: transmitted 32-bit words.
    pub fn xmit_data(&self) -> u64 {
        self.xmit_words.get()
    }
}

/// A host channel adapter (`mlx5_<rail>`), one port each (port 1).
#[derive(Debug)]
pub struct Hca {
    /// Device name, e.g. `mlx5_0`.
    pub name: String,
    pub port: Port,
}

impl Hca {
    pub fn new(rail: usize) -> Self {
        Hca {
            name: format!("mlx5_{rail}"),
            port: Port::default(),
        }
    }
}

/// One node's network endpoint: its rails.
#[derive(Debug)]
pub struct NodeNic {
    pub hcas: Vec<Arc<Hca>>,
}

impl NodeNic {
    pub fn new(rails: usize) -> Self {
        NodeNic {
            hcas: (0..rails).map(|r| Arc::new(Hca::new(r))).collect(),
        }
    }

    /// Aggregate injection bandwidth of the node (bytes/s).
    pub fn bandwidth(&self) -> f64 {
        RAIL_BW * self.hcas.len() as f64
    }

    fn record_recv(&self, bytes: u64) {
        // Traffic stripes across rails.
        let per = bytes / self.hcas.len() as u64;
        for h in &self.hcas {
            h.port.record_recv(per);
        }
    }

    fn record_xmit(&self, bytes: u64) {
        let per = bytes / self.hcas.len() as u64;
        for h in &self.hcas {
            h.port.record_xmit(per);
        }
    }
}

/// The fabric: all nodes of the job.
#[derive(Debug)]
pub struct Fabric {
    nodes: Vec<NodeNic>,
}

impl Fabric {
    /// A fabric of `nodes` nodes with `rails` HCAs each.
    pub fn new(nodes: usize, rails: usize) -> Self {
        Fabric {
            nodes: (0..nodes).map(|_| NodeNic::new(rails)).collect(),
        }
    }

    /// A node's NIC.
    pub fn node(&self, i: usize) -> &NodeNic {
        &self.nodes[i]
    }

    /// All-to-all among `ranks_per_node`-rank nodes: every pair of distinct
    /// *ranks* exchanges `bytes_per_pair`. Rank pairs on the same node do
    /// not touch the fabric. Returns the exchange duration, bottlenecked by
    /// the busiest node's injection bandwidth.
    pub fn alltoall(&self, ranks_per_node: usize, bytes_per_pair: u64) -> f64 {
        let n_nodes = self.nodes.len();
        let total_ranks = n_nodes * ranks_per_node;
        if total_ranks <= 1 || n_nodes == 1 {
            return 0.0;
        }
        // Per node: its ranks send to every off-node rank.
        let off_node_peers = (total_ranks - ranks_per_node) as u64;
        let bytes_out_per_node = ranks_per_node as u64 * off_node_peers * bytes_per_pair;
        let mut max_t: f64 = 0.0;
        for node in &self.nodes {
            node.record_xmit(bytes_out_per_node);
            node.record_recv(bytes_out_per_node);
            max_t = max_t.max(bytes_out_per_node as f64 / node.bandwidth());
        }
        max_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_words_not_bytes() {
        let p = Port::default();
        p.record_recv(400);
        assert_eq!(p.recv_data(), 100);
        p.record_xmit(7); // rounds down
        assert_eq!(p.xmit_data(), 1);
    }

    #[test]
    fn alltoall_volume_accounting() {
        // 4 nodes x 2 ranks, 1 KiB per pair.
        let f = Fabric::new(4, 2);
        let t = f.alltoall(2, 1024);
        assert!(t > 0.0);
        // Each node: 2 ranks x 6 off-node peers x 1 KiB = 12 KiB out.
        let expect_words = (2 * 6 * 1024) / 4 / 2; // per rail (2 rails)
        for n in 0..4 {
            assert_eq!(f.node(n).hcas[0].port.xmit_data(), expect_words);
            assert_eq!(f.node(n).hcas[0].port.recv_data(), expect_words);
        }
    }

    #[test]
    fn single_node_alltoall_stays_off_fabric() {
        let f = Fabric::new(1, 2);
        let t = f.alltoall(8, 1 << 20);
        assert_eq!(t, 0.0);
        assert_eq!(f.node(0).hcas[0].port.recv_data(), 0);
    }

    #[test]
    fn duration_scales_with_volume() {
        let f = Fabric::new(2, 2);
        let t1 = f.alltoall(1, 1 << 20);
        let t2 = f.alltoall(1, 1 << 24);
        assert!(t2 > 10.0 * t1);
    }

    #[test]
    fn hca_names_match_event_strings() {
        let nic = NodeNic::new(2);
        assert_eq!(nic.hcas[0].name, "mlx5_0");
        assert_eq!(nic.hcas[1].name, "mlx5_1");
    }
}
