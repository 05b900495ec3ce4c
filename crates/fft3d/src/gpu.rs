//! The GPU-accelerated 3D-FFT pipeline (Fig. 11).
//!
//! "The 1D-FFT phases entail host memory getting copied to the GPU — a
//! large amount of host memory being read; the batch of 1D-FFTs executed —
//! a spike in GPU power; and the results getting copied back to the host —
//! a large amount of host memory being written to."
//!
//! [`GpuFft3dRank`] drives one instrumented rank of an `r × c`-grid job:
//! three GPU 1-D-FFT phases, four CPU re-sorting phases and two All2All
//! exchanges, in the forward-transform order. Work is emitted in slabs,
//! and a caller-supplied callback runs after every slab — the profiler
//! hooks in there to sample its multi-component event set on a timeline.

use std::sync::Arc;

use crate::fft1d::fft_flops;
use crate::resort::{LocalDims, S1cfCombined, S2cf};
use ranksim::nvml::{GpuDevice, GpuOp};
use ranksim::ClusterSim;

/// The phase sequence of one forward transform.
pub const PHASES: [&str; 9] = [
    "fft-z", "resort-1", "a2a-1", "resort-2", "fft-y", "resort-3", "a2a-2", "resort-4", "fft-x",
];

/// One instrumented rank of the GPU 3D-FFT job.
pub struct GpuFft3dRank {
    n: usize,
    dims: LocalDims,
    resort1: S1cfCombined,
    resort3: S1cfCombined,
    merge2: S2cf,
    merge4: S2cf,
    gpu: Arc<GpuDevice>,
    /// Number of slabs each phase is divided into (profiler resolution).
    slabs: usize,
}

impl GpuFft3dRank {
    /// Set up the rank's buffers on the cluster's instrumented machine.
    pub fn new(cluster: &mut ClusterSim, gpu: Arc<GpuDevice>, n: usize, slabs: usize) -> Self {
        let grid = cluster.grid();
        let (r, c) = (grid.rows, grid.cols);
        let machine = cluster.machine_mut();
        let dims = LocalDims::for_grid(n, r, c);
        let resort1 = S1cfCombined::allocate(machine, dims);
        // Third resort: [z_loc][x_loc][y] -> [y][z_loc][x_loc].
        let dims3 = LocalDims::new(n / c, n / r, n);
        let resort3 = S1cfCombined::allocate(machine, dims3);
        let merge2 = S2cf::for_grid(machine, n, r, c);
        let merge4 = S2cf::for_grid(machine, n, r, c);
        GpuFft3dRank {
            n,
            dims,
            resort1,
            resort3,
            merge2,
            merge4,
            gpu,
            slabs: slabs.max(1),
        }
    }

    /// Per-rank pencil dims.
    pub fn dims(&self) -> LocalDims {
        self.dims
    }

    /// Run the forward transform, invoking `tick(phase_name)` after every
    /// slab of work (the profiler's sampling hook).
    pub fn run(&self, cluster: &mut ClusterSim, mut tick: impl FnMut(&str, &mut ClusterSim)) {
        let elems = self.dims.len() as u64;
        let bytes = self.dims.bytes();
        let lines = elems / self.n as u64;
        let grid = cluster.grid();

        // --- Phase: GPU 1-D FFT batches (z, later y and x). -------------
        let gpu_phase =
            |name: &str, cl: &mut ClusterSim, tick: &mut dyn FnMut(&str, &mut ClusterSim)| {
                let lines_per_slab = lines.div_ceil(self.slabs as u64);
                let mut done = 0u64;
                while done < lines {
                    let batch = lines_per_slab.min(lines - done);
                    let slab_bytes = batch * self.n as u64 * 16;
                    // Tick after each op so samplers see the phase's internal
                    // structure: host-read surge, power spike, host-write surge.
                    self.gpu.submit_sync(GpuOp::H2D { bytes: slab_bytes });
                    tick(name, cl);
                    self.gpu.submit_sync(GpuOp::Kernel {
                        flops: batch as f64 * fft_flops(self.n as u64),
                        mem_bytes: 2 * slab_bytes,
                    });
                    tick(name, cl);
                    self.gpu.submit_sync(GpuOp::D2H { bytes: slab_bytes });
                    done += batch;
                    tick(name, cl);
                }
            };

        gpu_phase("fft-z", cluster, &mut tick);

        // --- resort-1: S1CF (strided stores: ~2 reads per write). --------
        self.resort_phase("resort-1", &self.resort1, cluster, &mut tick);

        // --- a2a-1: row exchange. ----------------------------------------
        cluster.alltoall_rows(bytes / grid.cols as u64);
        tick("a2a-1", cluster);

        // --- resort-2: S2CF merge (1:1). ----------------------------------
        self.merge_phase("resort-2", &self.merge2, cluster, &mut tick);

        gpu_phase("fft-y", cluster, &mut tick);

        // --- resort-3: S1CF shape again. ----------------------------------
        self.resort_phase("resort-3", &self.resort3, cluster, &mut tick);

        // --- a2a-2: column exchange. ---------------------------------------
        cluster.alltoall_cols(bytes / grid.rows as u64);
        tick("a2a-2", cluster);

        // --- resort-4: S2CF merge. ------------------------------------------
        self.merge_phase("resort-4", &self.merge4, cluster, &mut tick);

        gpu_phase("fft-x", cluster, &mut tick);
    }

    fn resort_phase(
        &self,
        name: &str,
        resort: &S1cfCombined,
        cluster: &mut ClusterSim,
        tick: &mut impl FnMut(&str, &mut ClusterSim),
    ) {
        let planes = resort.dims.planes as u64;
        let per_slab = planes.div_ceil(self.slabs as u64);
        let mut p = 0;
        while p < planes {
            let hi = (p + per_slab).min(planes);
            cluster
                .machine_mut()
                .run_single(0, |core| resort.run_planes(core, p, hi));
            p = hi;
            tick(name, cluster);
        }
    }

    fn merge_phase(
        &self,
        name: &str,
        merge: &S2cf,
        cluster: &mut ClusterSim,
        tick: &mut impl FnMut(&str, &mut ClusterSim),
    ) {
        let planes = merge.p_n;
        let per_slab = planes.div_ceil(self.slabs as u64);
        let mut p = 0;
        while p < planes {
            let hi = (p + per_slab).min(planes);
            cluster
                .machine_mut()
                .run_single(0, |core| merge.run_planes(core, p, hi));
            p = hi;
            tick(name, cluster);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p9_arch::Machine;
    use p9_memsim::SimMachine;
    use ranksim::nvml::GpuParams;
    use ranksim::ProcessGrid;

    fn job(_n: usize, rows: usize, cols: usize) -> (ClusterSim, Arc<GpuDevice>) {
        let m = SimMachine::quiet(Machine::summit(), 61);
        let gpu = Arc::new(GpuDevice::new(0, GpuParams::default(), m.socket_shared(0)));
        let cluster = ClusterSim::new(m, ProcessGrid::new(rows, cols), 2);
        (cluster, gpu)
    }

    #[test]
    fn pipeline_visits_all_phases_in_order() {
        let (mut cluster, gpu) = job(64, 2, 4);
        let rank = GpuFft3dRank::new(&mut cluster, Arc::clone(&gpu), 64, 2);
        let mut seen = Vec::new();
        rank.run(&mut cluster, |phase, _| {
            if seen.last().map(String::as_str) != Some(phase) {
                seen.push(phase.to_owned());
            }
        });
        assert_eq!(seen, PHASES.to_vec());
    }

    #[test]
    fn gpu_phases_move_host_memory_and_spike_power() {
        let (mut cluster, gpu) = job(64, 2, 2);
        let rank = GpuFft3dRank::new(&mut cluster, Arc::clone(&gpu), 64, 2);
        let shared = cluster.machine().socket_shared(0);
        let r0 = shared.counters().total_read();
        rank.run(&mut cluster, |_, _| {});
        // Three H2D sweeps of the pencil -> at least 3x pencil bytes read.
        let pencil = rank.dims().bytes();
        let dr = shared.counters().total_read() - r0;
        assert!(dr as f64 >= 3.0 * pencil as f64, "reads {dr}");
        assert!(gpu.active_energy_j() > 0.0);
    }

    #[test]
    fn a2a_phases_touch_the_fabric() {
        let (mut cluster, gpu) = job(64, 2, 4);
        let rank = GpuFft3dRank::new(&mut cluster, Arc::clone(&gpu), 64, 2);
        rank.run(&mut cluster, |_, _| {});
        assert!(cluster.fabric().node(0).hcas[0].port.recv_data() > 0);
    }

    #[test]
    fn clock_advances_through_the_pipeline() {
        let (mut cluster, gpu) = job(64, 2, 2);
        let rank = GpuFft3dRank::new(&mut cluster, Arc::clone(&gpu), 64, 4);
        let shared = cluster.machine().socket_shared(0);
        let mut times = Vec::new();
        rank.run(&mut cluster, |_, cl| {
            times.push(cl.machine().socket_shared(0).now_seconds());
        });
        let _ = shared;
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
        assert!(*times.last().unwrap() > 0.0);
    }
}
