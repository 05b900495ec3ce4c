//! # papi-repro — umbrella crate
//!
//! Reproduction of *"Memory Traffic and Complete Application Profiling with
//! PAPI Multi-Component Measurements"* (Barry, Jagode, Danalis, Dongarra) on
//! a fully simulated POWER9 / Summit software stack.
//!
//! This crate re-exports the workspace's public API surface so that
//! examples, integration tests and downstream users can depend on a single
//! crate. See the README for a tour and `DESIGN.md` for the system
//! inventory.
//!
//! * [`arch`] — POWER9 machine descriptions (Summit / Tellico).
//! * [`memsim`] — the memory-hierarchy + nest-counter simulator.
//! * [`pcp`] — the simulated Performance Co-Pilot daemon and client.
//! * [`wire`] — the networked PMCD: binary PDU protocol, multi-client TCP
//!   server, `WireClient` transport (which `pcp::PmLogger` records over).
//! * [`papi`] — the PAPI-style multi-component middleware (the paper's
//!   central artifact), including direct (privileged) nest counter access.
//! * [`kernels`] — GEMV / capped GEMV / GEMM benchmarks and their analytic
//!   traffic models.
//! * [`fft3d`] — the distributed, GPU-accelerated 3D-FFT mini-app.
//! * [`qmc`] — the QMCPACK-like Monte Carlo mini-app.
//! * [`ranks`] — the cluster a rank runs on: process grid, collectives,
//!   the InfiniBand fabric ([`ranks::ib`]) and GPUs ([`ranks::nvml`]).
//! * [`refute`] — the CounterPoint-style model-refutation harness.

pub use blas_kernels as kernels;
pub use fft3d;
pub use p9_arch as arch;
pub use p9_memsim as memsim;
pub use papi_sim as papi;
pub use pcp_sim as pcp;
pub use pcp_wire as wire;
pub use qmc_mini as qmc;
pub use ranksim as ranks;
pub use refute;
