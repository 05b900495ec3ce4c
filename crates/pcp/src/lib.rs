//! # pcp-sim — a simulated Performance Co-Pilot
//!
//! On Summit, ordinary users cannot read the nest (uncore) counters; IBM
//! exports them through the Performance Co-Pilot instead. The Performance
//! Metrics Collector Daemon (PMCD) runs **with** the privileges required to
//! program the nest PMU, and clients fetch metric values from the daemon
//! over a request/response protocol without any special permissions.
//!
//! This crate reproduces that architecture:
//!
//! * [`pmns`] — the Performance Metrics Name Space. Nest counters appear
//!   under `perfevent.hwcounters.nest_mba[0-7]_imc.PM_MBA[0-7]_{READ,WRITE}
//!   _BYTES.value`, exactly the names the paper's Table I lists, with a
//!   per-CPU instance domain (the nest metrics are exported on the last
//!   hardware thread of each socket: `cpu87` / `cpu175` on Summit).
//! * [`daemon`] — the PMCD: built only with an elevated
//!   [`p9_memsim::PrivilegeToken`], a `Clone` handle on the [`FetchCore`]
//!   over every socket's counters that clients call directly. (The
//!   `pcp-wire` crate provides the networked equivalent.)
//! * [`fetchcore`] — [`FetchCore`], the one definition of what a PMCD
//!   answers (lookup, desc, children, fetch, the `pmcd.*` self-metrics
//!   and the `pmcd.obs.*` registry export) behind both transports.
//! * [`client`] — `PcpContext`, the unprivileged client: `pm_lookup_name`,
//!   `pm_get_desc`, `pm_fetch`.
//! * [`archive`] — the `pmlogger` side: cadence-driven sampling into
//!   replayable archives with counter-rate queries.
//!
//! Because the daemon reads the very same [`p9_memsim::NestCounters`] the
//! direct `perf_uncore` path reads, measurements taken via PCP are exactly
//! as accurate as direct ones — which is the paper's headline conclusion,
//! and here it holds by construction *plus* the indirection cost the
//! model adds (the per-fetch latency charge).

// The no-panic gate (DESIGN.md §8.1): CI's clippy step fails on any of
// these outside test code.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod archive;
pub mod client;
pub mod daemon;
pub mod fetchcore;
pub mod pmns;

pub use archive::{Archive, ArchiveRecord, BadInterval, PmLogger};
pub use client::{PcpContext, PcpError, PmApi};
pub use daemon::{Pmcd, PmcdConfig, PmcdError};
pub use fetchcore::{FetchCore, StatsSnapshot, OBS_METRIC_BASE, SELF_METRIC_BASE};
pub use pmns::{InstanceId, MetricDesc, MetricId, MetricSemantics, Pmns};
