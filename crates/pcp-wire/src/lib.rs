//! # pcp-wire — a real networked PMCD
//!
//! The in-process daemon of `pcp-sim` models PCP's indirection with a
//! constant latency knob. This crate makes the indirection *real*: the
//! Performance Metrics Collector Daemon becomes a TCP server speaking a
//! length-prefixed binary PDU protocol (a trimmed mirror of PCP's
//! CREDS/LOOKUP/DESC/INSTANCE/FETCH/ERROR PDU set), and clients pay an
//! actual socket round-trip per fetch instead of an assumed 80 µs.
//!
//! * [`pdu`] — the versioned frame codec. Decoding is defensive: frames
//!   with a bad magic, unknown version, oversized length, or truncated
//!   payload are rejected with an error, never a panic or an unbounded
//!   allocation.
//! * [`pool`] — the one connection service behind both listeners below
//!   (accept loop, [`BoundedQueue`], named worker pool, shutdown), and
//!   the queue itself: a `std` mutex and condvar whose accept/shutdown
//!   contract (bounded Busy rejection, graceful drain-then-join) its
//!   tests run over 256 thread schedules each. A worker whose
//!   per-connection code panics closes that connection, counts
//!   `wire.worker.panics` and serves the next one.
//! * [`server`] — [`PmcdServer`]: serves each client from the bounded
//!   worker pool with read/write timeouts and per-fetch batch limits
//!   (backpressure), survives malformed input and mid-request
//!   disconnects, shuts down gracefully, and exports its own
//!   operational counters (`pmcd.*`) through the same PMNS it serves —
//!   the daemon profiles itself.
//! * [`scrape`] — [`ScrapeListener`]: an HTTP sidecar on the same
//!   service, serving the same OpenMetrics exposition as
//!   `Pdu::Exposition`, so `curl` and Prometheus can watch the daemon
//!   without speaking PDUs.
//! * [`client`] — [`WireClient`]: implements `pcp_sim::PmApi`, so the
//!   PAPI PCP component runs against either transport unchanged, and
//!   `pcp_sim::PmLogger` records archives over it on its caller's clock.
//!
//! Everything is `std`-only (threads + `std::net`); the crate builds and
//! tests hermetically with no external dependencies and no tokio.

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

pub mod client;
pub mod pdu;
pub mod pool;
pub mod scrape;
pub mod server;

pub use client::WireClient;
pub use pdu::{ErrorCode, Pdu, PduError, PROTOCOL_VERSION};
pub use pool::BoundedQueue;
pub use scrape::ScrapeListener;
pub use server::{PmcdServer, ServerError, StatsSnapshot, WireConfig};
