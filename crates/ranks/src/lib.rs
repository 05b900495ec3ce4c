//! # ranksim — the cluster a rank runs on
//!
//! The paper's 3D-FFT decomposes its data over a two-dimensional `r × c`
//! virtual processor grid, one MPI rank per POWER9 socket (two per node).
//! This crate provides that execution model — grid, collectives, IB
//! fabric, GPUs:
//!
//! * [`LocalComm`] — a *correctness* communicator: all ranks live in one
//!   process, data is exchanged by memcpy. The distributed FFT is validated
//!   numerically against a naive DFT through this path.
//! * [`ClusterSim`] — a *measurement* communicator: the paper profiles a
//!   single rank (each socket has its own nest, and Figs. 6–11 plot
//!   per-rank values), so one representative rank executes on a fully
//!   simulated socket while the collective traffic of *all* ranks is
//!   accounted on the [`ib::Fabric`] and the exchange time is charged
//!   to the instrumented socket's clock.
//! * [`ib`] — the Mellanox InfiniBand fabric and its port counters.
//! * [`nvml`] — the V100 GPU a rank offloads to, with NVML power telemetry.

pub mod cluster;
pub mod grid;
pub mod ib;
pub mod local;
pub mod nvml;

pub use cluster::ClusterSim;
pub use grid::ProcessGrid;
pub use local::LocalComm;
