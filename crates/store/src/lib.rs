//! # store — a compressed time-series storage engine
//!
//! The paper's "complete application profiling" holds counter streams
//! over whole application runs; a fleet of simulated hosts multiplies
//! that into millions of series and days of retention. Neither the live
//! ring ([`obs::SeriesStore`]) nor a `pmlogger` archive (an uncompressed
//! row log) can carry that, so this crate is the storage tier underneath
//! the live path (DESIGN.md §12):
//!
//! * **Chunks** ([`chunk`]): Gorilla-style compression — delta-of-delta
//!   timestamps and XOR/varint values, byte-aligned and exact over the
//!   full `u64` range (values past 2^53 survive bit-for-bit).
//! * **Segments** ([`segment`]) on an in-memory FS ([`memfs`]):
//!   write-once files of many chunks; readers hold `Arc` handles that
//!   outlive file removal, the offline analogue of reading an mmap'd
//!   segment that compaction already unlinked.
//! * **Index** ([`index`]): series are `metric{label=value,…}` keys;
//!   queries select by metric glob + exact label matchers.
//! * **Engine** ([`engine`]): per-series ingest heads seal into chunks,
//!   chunks flush into segments, retention/compaction rewrites history
//!   without ever blocking concurrent readers or ingest.
//! * **Queries** ([`query`]): windowed samples plus rate/delta/ewma
//!   derivations that *reuse* [`obs::derive`], so archived and live
//!   math cannot diverge.
//!
//! The engine reports itself through `store.*` obs metrics (METRICS.md)
//! and carries the no-panic deny list below: every fallible path
//! returns a [`StoreError`].

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

pub mod chunk;
pub mod engine;
pub mod index;
pub mod memfs;
pub mod query;
pub mod segment;

pub use engine::{CompactStats, Store, StoreConfig, StoreStats};
pub use index::{glob_match, Selector, SeriesKey};
pub use query::{Derivation, SeriesData};

/// Typed errors for every fallible store path (the crate carries the
/// no-panic deny list, like the wire crates).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A sample's timestamp did not advance past the series' newest.
    OutOfOrder {
        /// Newest timestamp already ingested for the series.
        last_t_ns: u64,
        /// The rejected timestamp.
        t_ns: u64,
    },
    /// Tried to encode a chunk with no samples.
    EmptyChunk,
    /// An encoded payload failed validation.
    Corrupt(&'static str),
    /// A segment file name already exists (files are write-once).
    FileExists(String),
    /// A segment file is missing from the in-memory FS.
    NoSuchFile(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfOrder { last_t_ns, t_ns } => write!(
                f,
                "sample timestamp {t_ns} does not advance past {last_t_ns}"
            ),
            StoreError::EmptyChunk => write!(f, "cannot encode an empty chunk"),
            StoreError::Corrupt(why) => write!(f, "corrupt payload: {why}"),
            StoreError::FileExists(name) => write!(f, "file {name} already exists"),
            StoreError::NoSuchFile(name) => write!(f, "no such file {name}"),
        }
    }
}

impl std::error::Error for StoreError {}
