//! In-process communicator for numerical-correctness runs.
//!
//! All ranks' buffers live in one address space; collectives are memcpys.
//! This path carries *real data* (the distributed FFT is verified against a
//! naive DFT through it) and has no connection to the traffic simulator.

use crate::grid::ProcessGrid;

/// An in-process communicator over `grid.size()` ranks.
#[derive(Clone, Debug)]
pub struct LocalComm {
    grid: ProcessGrid,
}

impl LocalComm {
    pub fn new(grid: ProcessGrid) -> Self {
        LocalComm { grid }
    }

    pub fn grid(&self) -> ProcessGrid {
        self.grid
    }

    /// All-to-all among a subgroup of ranks. `bufs[i]` is rank
    /// `group[i]`'s send buffer, partitioned into `group.len()` equal
    /// chunks; chunk `j` of rank `group[i]` lands in chunk `i` of rank
    /// `group[j]`'s receive buffer. Buffers must all have the same length,
    /// divisible by the group size.
    ///
    /// Returns the receive buffers in group order.
    pub fn alltoall_group<T: Clone>(&self, group: &[usize], bufs: &[Vec<T>]) -> Vec<Vec<T>> {
        assert_eq!(group.len(), bufs.len());
        let p = group.len();
        let len = bufs[0].len();
        assert!(bufs.iter().all(|b| b.len() == len), "uneven buffers");
        assert_eq!(len % p, 0, "buffer not divisible by group size");
        let chunk = len / p;
        let mut out = vec![Vec::with_capacity(len); p];
        for (recv_out, _) in out.iter_mut().zip(group) {
            recv_out.clear();
        }
        for (i, out_i) in out.iter_mut().enumerate() {
            for buf in bufs {
                // receiver i gets chunk i from each sender, in sender order.
                out_i.extend_from_slice(&buf[i * chunk..(i + 1) * chunk]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alltoall_transposes_chunks() {
        let comm = LocalComm::new(ProcessGrid::new(1, 3));
        let group = [0, 1, 2];
        // Rank r sends [r*10 + j] as chunk j (chunk size 1).
        let bufs: Vec<Vec<u32>> = (0..3)
            .map(|r| vec![r * 10, r * 10 + 1, r * 10 + 2])
            .collect();
        let recv = comm.alltoall_group(&group, &bufs);
        assert_eq!(recv[0], vec![0, 10, 20]);
        assert_eq!(recv[1], vec![1, 11, 21]);
        assert_eq!(recv[2], vec![2, 12, 22]);
    }

    #[test]
    fn alltoall_with_multielement_chunks() {
        let comm = LocalComm::new(ProcessGrid::new(1, 2));
        let bufs = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]];
        let recv = comm.alltoall_group(&[0, 1], &bufs);
        assert_eq!(recv[0], vec![1, 2, 5, 6]);
        assert_eq!(recv[1], vec![3, 4, 7, 8]);
    }

    #[test]
    fn alltoall_is_involutive_for_symmetric_chunks() {
        // Applying alltoall twice restores the original buffers.
        let comm = LocalComm::new(ProcessGrid::new(2, 2));
        let group = [0, 1, 2, 3];
        let bufs: Vec<Vec<u64>> = (0..4u64)
            .map(|r| (0..8).map(|i| r * 100 + i).collect())
            .collect();
        let once = comm.alltoall_group(&group, &bufs);
        let twice = comm.alltoall_group(&group, &once);
        assert_eq!(twice, bufs);
    }

    #[test]
    #[should_panic]
    fn uneven_buffers_rejected() {
        let comm = LocalComm::new(ProcessGrid::new(1, 2));
        comm.alltoall_group(&[0, 1], &[vec![1, 2], vec![3]]);
    }
}
