//! Fleet federation: a many-host monitoring tier over the PMCD wire.
//!
//! The paper profiles *one* node completely; a deployment has
//! thousands. This crate turns the per-node stack (obs registry →
//! networked PMCD → OpenMetrics exposition → store) into one
//! fleet-wide observability system, entirely in-process (DESIGN.md
//! §14):
//!
//! * [`Fleet::spawn`] brings up N simulated hosts. Each host is its
//!   own [`pcp_wire::PmcdServer`] over a distinct pair of simulated
//!   sockets ([`p9_memsim::machine::SocketShared::standalone`]) and
//!   its own private obs registry, all derived from a per-host
//!   splitmix seed ([`host_seed`]) so host state is a pure function of
//!   `(fleet seed, host index)`. Hostnames are deterministic:
//!   `tellico-0000`, `tellico-0001`, …
//! * An [`Aggregator`] shards scrapes across the hosts with a bounded
//!   worker pool (the same [`pcp_wire::pool::BoundedQueue`] discipline
//!   as the servers), pulls each host's exposition over the
//!   `Pdu::Exposition` channel, relabels every series with
//!   `host="tellico-XXXX"`, and merges the results into one document.
//!   The merge is one sequential fold over index-addressed slots, so
//!   the document does not depend on which worker scraped which host
//!   or when — the same determinism discipline as the parallel
//!   experiment runner.
//! * The merged document is re-exposed on one fleet-wide `/metrics`
//!   (via [`pcp_wire::ScrapeListener::bind_provider`]), ingested into
//!   a [`store::Store`], and fed to fleet-level rules on an
//!   [`obs::Monitor`] — any host shedding, per-host scrape staleness.
//!
//! * Every pass is traced end to end (DESIGN.md §16): the aggregator
//!   mints a pass-level trace id, each host scrape carries a fan-out
//!   child id over the wire (protocol v3), and the stitched
//!   [`obs::stitch::FanoutTrace`] — per-host RTT decomposition,
//!   straggler attribution, exact phase conservation — is served live
//!   from the bounded [`DebugPlane`] on `/debug/trace`, `/debug/flame`,
//!   `/debug/passes` and `/debug/series`.
//!
//! The thread-per-client reactor refactor needed to serve ≥10k scrape
//! clients stays a named follow-up (ROADMAP item 1); this tier fixes
//! the federation *semantics* that refactor will scale.

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

mod aggregator;
pub mod debug;
mod host;
mod merge;

pub use aggregator::{Aggregator, AggregatorConfig, PassReport};
pub use debug::{DebugPlane, PassRecord, DEFAULT_DEBUG_PASSES};
pub use host::{host_name, host_seed, Fleet, SimHost};
pub use merge::{merge, merge_parallel, merge_reference, relabel, HostScrape, MergeOutcome};

/// Why a fleet could not be spawned or served.
#[derive(Debug)]
pub enum FleetError {
    /// A host's PMCD failed to bind or spawn.
    Server(pcp_wire::ServerError),
    /// Binding the fleet-wide listener failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Server(e) => write!(f, "host server: {e}"),
            FleetError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Server(e) => Some(e),
            FleetError::Io(e) => Some(e),
        }
    }
}

impl From<pcp_wire::ServerError> for FleetError {
    fn from(e: pcp_wire::ServerError) -> Self {
        FleetError::Server(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}
