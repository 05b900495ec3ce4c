//! Cluster-scale measurement runs: one instrumented rank, full-fabric
//! traffic accounting.
//!
//! Summit assigns one MPI rank per socket and each socket has its own nest,
//! so the paper's per-rank measurements see exactly one rank's memory
//! traffic. All ranks execute the same re-sorting loops on same-shaped
//! pencils, so the instrumented rank (rank 0, on socket 0 of a fully
//! simulated node) is representative. The other ranks participate in the
//! model through (a) the network volume they inject during All2All phases
//! and (b) the synchronization time rank 0 spends in those collectives.

use crate::grid::ProcessGrid;
use crate::ib::Fabric;
use p9_memsim::SimMachine;

/// A cluster job: `grid.size()` ranks on `nodes` dual-socket nodes.
pub struct ClusterSim {
    machine: SimMachine,
    fabric: Fabric,
    grid: ProcessGrid,
    ranks_per_node: usize,
}

impl ClusterSim {
    /// Build a job on Summit-style nodes. `grid.size()` must be a multiple
    /// of `ranks_per_node` (2 on Summit: one rank per socket).
    pub fn new(machine: SimMachine, grid: ProcessGrid, ranks_per_node: usize) -> Self {
        assert!(ranks_per_node >= 1);
        assert_eq!(
            grid.size() % ranks_per_node,
            0,
            "ranks must fill whole nodes"
        );
        let nodes = grid.size() / ranks_per_node;
        let rails = machine.arch().node.ib_ports.max(1);
        ClusterSim {
            machine,
            fabric: Fabric::new(nodes, rails),
            grid,
            ranks_per_node,
        }
    }

    /// The process grid.
    pub fn grid(&self) -> ProcessGrid {
        self.grid
    }

    /// The instrumented rank's machine (rank 0 lives on socket 0).
    pub fn machine(&self) -> &SimMachine {
        &self.machine
    }

    /// Mutable access for running the instrumented rank's kernels.
    pub fn machine_mut(&mut self) -> &mut SimMachine {
        &mut self.machine
    }

    /// The fabric (for reading port counters).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Perform an all-to-all of `bytes_per_pair` between every pair of
    /// distinct ranks (the FFT transposes exchange within sub-groups; pass
    /// the effective per-pair volume). Updates every node's port counters
    /// and charges the exchange duration to the instrumented socket.
    pub fn alltoall(&mut self, bytes_per_pair: u64) -> f64 {
        let t = self.fabric.alltoall(self.ranks_per_node, bytes_per_pair);
        self.machine.socket_shared(0).advance_seconds(t);
        t
    }

    /// All-to-all within rank 0's grid *row* (the FFT's first exchange):
    /// `bytes_per_pair` between each pair of the `cols` row members. Other
    /// rows do the same concurrently; total fabric traffic is modeled for
    /// all of them.
    pub fn alltoall_rows(&mut self, bytes_per_pair: u64) -> f64 {
        // Every rank exchanges with (cols - 1) peers; scale to an effective
        // global pairwise volume so the fabric accounting covers all rows.
        let cols = self.grid.cols as u64;
        let all = self.grid.size() as u64;
        if cols <= 1 || all <= 1 {
            return 0.0;
        }
        let effective = bytes_per_pair * (cols - 1) / (all - 1);
        self.alltoall(effective.max(1))
    }

    /// All-to-all within rank 0's grid *column* (the FFT's second
    /// exchange).
    pub fn alltoall_cols(&mut self, bytes_per_pair: u64) -> f64 {
        let rows = self.grid.rows as u64;
        let all = self.grid.size() as u64;
        if rows <= 1 || all <= 1 {
            return 0.0;
        }
        let effective = bytes_per_pair * (rows - 1) / (all - 1);
        self.alltoall(effective.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p9_arch::Machine;

    fn cluster(rows: usize, cols: usize) -> ClusterSim {
        let m = SimMachine::quiet(Machine::summit(), 3);
        ClusterSim::new(m, ProcessGrid::new(rows, cols), 2)
    }

    #[test]
    fn alltoall_advances_clock_and_counters() {
        let mut c = cluster(2, 4);
        let t0 = c.machine().socket_shared(0).now_seconds();
        let dt = c.alltoall(1 << 20);
        assert!(dt > 0.0);
        let t1 = c.machine().socket_shared(0).now_seconds();
        assert!((t1 - t0 - dt).abs() < 1e-9);
        assert!(c.fabric().node(0).hcas[0].port.recv_data() > 0);
    }

    #[test]
    fn row_exchange_smaller_than_global() {
        let mut a = cluster(2, 4);
        let mut b = cluster(2, 4);
        let t_row = a.alltoall_rows(1 << 20);
        let t_all = b.alltoall(1 << 20);
        assert!(t_row < t_all);
    }

    #[test]
    #[should_panic]
    fn partial_nodes_rejected() {
        let m = SimMachine::quiet(Machine::summit(), 3);
        ClusterSim::new(m, ProcessGrid::new(1, 3), 2);
    }
}
