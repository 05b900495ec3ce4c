//! The instrumented three-phase QMC application (Fig. 12).
//!
//! The QMCPACK example problem runs VMC with no drift, VMC with drift,
//! then DMC. Each block of each phase does the *real* Monte Carlo work
//! (`vmc`/`dmc` modules) and drives the simulated hardware with the
//! corresponding activity:
//!
//! * walker-ensemble sweeps read and update the walker/observable arrays
//!   (host memory traffic — more per step for the drifted mover, which
//!   also evaluates the Green's function);
//! * wavefunction evaluations are offloaded as GPU kernels (power signal —
//!   heavier per-step kernels for the drift phase, bursty ones for DMC);
//! * DMC's branching triggers periodic walker-count exchanges with the
//!   other ranks (All2All on the fabric).
//!
//! The phases end up with visibly different signatures on the memory /
//! GPU-power / network timelines — the paper's point that "the different
//! stages in the execution of QMCPACK are distinguishable by monitoring
//! separate hardware components simultaneously".

use std::sync::Arc;

use p9_memsim::Region;
use ranksim::nvml::{GpuDevice, GpuOp};
use ranksim::ClusterSim;

use crate::dmc::{DmcParams, DmcSampler};
use crate::model::Trial;
use crate::vmc::VmcSampler;

/// Phase names in execution order.
pub const QMC_PHASES: [&str; 3] = ["vmc", "vmc-drift", "dmc"];

/// Per-phase block counts and sizes.
#[derive(Clone, Copy, Debug)]
pub struct QmcConfig {
    pub walkers: usize,
    pub blocks_per_phase: usize,
    pub steps_per_block: usize,
    pub alpha: f64,
    pub seed: u64,
}

impl Default for QmcConfig {
    fn default() -> Self {
        QmcConfig {
            walkers: 512,
            blocks_per_phase: 8,
            steps_per_block: 40,
            alpha: 0.85,
            seed: 2023,
        }
    }
}

/// Result summary of an instrumented run.
#[derive(Clone, Copy, Debug)]
pub struct QmcResult {
    pub vmc_energy: f64,
    pub vmc_drift_energy: f64,
    pub dmc_energy: f64,
}

/// The instrumented application.
pub struct QmcApp {
    cfg: QmcConfig,
    gpu: Arc<GpuDevice>,
    /// Walker ensemble backing store (positions + weights + observables).
    walker_buf: Region,
}

impl QmcApp {
    pub fn new(cluster: &mut ClusterSim, gpu: Arc<GpuDevice>, cfg: QmcConfig) -> Self {
        // 3 coords + energy + weight per walker, double precision, times a
        // generous factor for per-walker wavefunction state.
        let bytes = cfg.walkers as u64 * 8 * 64;
        let walker_buf = cluster.machine_mut().alloc(bytes);
        QmcApp {
            cfg,
            gpu,
            walker_buf,
        }
    }

    /// Emit one block's hardware activity: `passes` ensemble sweeps plus a
    /// GPU evaluation kernel sized by `flops_per_walker_step`. `tick` is
    /// invoked around the kernel so samplers catch the power plateau, not
    /// just the copy edges.
    fn block_activity(
        &self,
        cluster: &mut ClusterSim,
        population: usize,
        passes: u64,
        flops_per_walker_step: f64,
        phase: &str,
        tick: &mut impl FnMut(&str, &mut ClusterSim),
    ) {
        let bytes = (population as u64 * 8 * 64).min(self.walker_buf.len());
        let buf = self.walker_buf;
        cluster.machine_mut().run_single(0, |core| {
            for _ in 0..passes {
                core.load_seq(buf.base(), bytes);
                core.store_seq(buf.base(), bytes);
                core.compute(population as u64 * 50);
            }
        });
        // Walker state shuttles to the GPU for the wavefunction
        // evaluations and back with updated positions/energies — this DMA
        // is the phase's dominant host-memory signal (the walker arrays
        // themselves stay cache-resident between sweeps).
        self.gpu.submit_sync(GpuOp::H2D {
            bytes: bytes * passes,
        });
        tick(phase, cluster);
        self.gpu.submit_sync(GpuOp::Kernel {
            flops: flops_per_walker_step * population as f64 * self.cfg.steps_per_block as f64,
            mem_bytes: bytes * passes,
        });
        tick(phase, cluster);
        self.gpu.submit_sync(GpuOp::D2H { bytes });
    }

    /// Run the three phases, calling `tick(phase)` after every block.
    pub fn run(
        &self,
        cluster: &mut ClusterSim,
        mut tick: impl FnMut(&str, &mut ClusterSim),
    ) -> QmcResult {
        let cfg = self.cfg;
        let trial = Trial::new(cfg.alpha);

        // --- Phase 1: VMC, no drift. -----------------------------------
        let mut vmc = VmcSampler::new(trial, cfg.walkers, 0.3, false, cfg.seed);
        let mut vmc_energy = 0.0;
        for _ in 0..cfg.blocks_per_phase {
            let stats = vmc.run_block(cfg.steps_per_block);
            vmc_energy += stats.energy;
            self.block_activity(cluster, cfg.walkers, 2, 4.0e6, "vmc", &mut tick);
            tick("vmc", cluster);
        }
        vmc_energy /= cfg.blocks_per_phase as f64;

        // --- Phase 2: VMC with drift. ------------------------------------
        let mut vmc_d = VmcSampler::new(trial, cfg.walkers, 0.3, true, cfg.seed + 1);
        // Reuse the equilibrated ensemble.
        vmc_d.walkers.copy_from_slice(&vmc.walkers);
        let mut vmc_drift_energy = 0.0;
        for _ in 0..cfg.blocks_per_phase {
            let stats = vmc_d.run_block(cfg.steps_per_block);
            vmc_drift_energy += stats.energy;
            // Drifted moves evaluate forces and Green's functions: more
            // sweeps and heavier kernels.
            self.block_activity(cluster, cfg.walkers, 4, 9.0e6, "vmc-drift", &mut tick);
            tick("vmc-drift", cluster);
        }
        vmc_drift_energy /= cfg.blocks_per_phase as f64;

        // --- Phase 3: DMC. -------------------------------------------------
        let mut dmc = DmcSampler::new(
            trial,
            vmc_d.walkers.clone(),
            DmcParams {
                timestep: 0.01,
                target_population: cfg.walkers,
                feedback: 1.0,
            },
            cfg.seed + 2,
        );
        let mut dmc_energy = 0.0;
        for _ in 0..cfg.blocks_per_phase {
            let stats = dmc.run_block(cfg.steps_per_block);
            dmc_energy += stats.energy;
            // Branching varies the population; load balancing exchanges
            // walkers across ranks every block.
            self.block_activity(cluster, stats.population, 3, 6.0e6, "dmc", &mut tick);
            cluster.alltoall((stats.population as u64 * 32).max(1024));
            tick("dmc", cluster);
        }
        dmc_energy /= cfg.blocks_per_phase as f64;

        QmcResult {
            vmc_energy,
            vmc_drift_energy,
            dmc_energy,
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

    fn setup() -> (ClusterSim, Arc<GpuDevice>) {
        let m = SimMachine::quiet(Machine::summit(), 71);
        let gpu = Arc::new(GpuDevice::new(0, GpuParams::default(), m.socket_shared(0)));
        let cluster = ClusterSim::new(m, ProcessGrid::new(2, 2), 2);
        (cluster, gpu)
    }

    #[test]
    fn phases_run_in_order_and_produce_sane_energies() {
        let (mut cluster, gpu) = setup();
        let app = QmcApp::new(&mut cluster, gpu, QmcConfig::default());
        let mut seen = Vec::new();
        let result = app.run(&mut cluster, |phase, _| {
            if seen.last().map(String::as_str) != Some(phase) {
                seen.push(phase.to_owned());
            }
        });
        assert_eq!(seen, QMC_PHASES.to_vec());
        // Variational estimates sit at/above the ground state; DMC near it.
        assert!(result.vmc_energy > 1.45 && result.vmc_energy < 1.75);
        assert!(result.vmc_drift_energy > 1.45 && result.vmc_drift_energy < 1.75);
        assert!(
            (result.dmc_energy - 1.5).abs() < 0.1,
            "{}",
            result.dmc_energy
        );
    }

    #[test]
    fn phases_have_distinct_hardware_signatures() {
        let (mut cluster, gpu) = setup();
        let app = QmcApp::new(&mut cluster, gpu, QmcConfig::default());
        let shared = cluster.machine().socket_shared(0);
        let mut per_phase_reads = std::collections::HashMap::<String, u64>::new();
        let mut per_phase_ib = std::collections::HashMap::<String, u64>::new();
        let mut last_r = shared.counters().total_read();
        let mut last_ib = 0u64;
        app.run(&mut cluster, |phase, cl| {
            let r = cl.machine().socket_shared(0).counters().total_read();
            let ib = cl.fabric().node(0).hcas[0].port.recv_data();
            *per_phase_reads.entry(phase.into()).or_default() += r - last_r;
            *per_phase_ib.entry(phase.into()).or_default() += ib - last_ib;
            last_r = r;
            last_ib = ib;
        });
        // Drift phase moves more memory than plain VMC; only DMC talks to
        // the network.
        assert!(per_phase_reads["vmc-drift"] > per_phase_reads["vmc"]);
        assert_eq!(per_phase_ib["vmc"], 0);
        assert_eq!(per_phase_ib["vmc-drift"], 0);
        assert!(per_phase_ib["dmc"] > 0);
    }

    #[test]
    fn gpu_sees_kernel_energy() {
        let (mut cluster, gpu) = setup();
        let app = QmcApp::new(&mut cluster, Arc::clone(&gpu), QmcConfig::default());
        app.run(&mut cluster, |_, _| {});
        assert!(gpu.active_energy_j() > 0.0);
    }
}
