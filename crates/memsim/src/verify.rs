//! Shadow-accounting conservation checker, always on.
//!
//! The paper's argument rests on trusting the MBA byte counters, so the
//! simulator carries a *second*, independently maintained set of books and
//! the two must always agree:
//!
//! * Every core keeps a [`ShadowLedger`] counting 64-byte transactions per
//!   MBA channel, incremented beside (not inside) the core's pending
//!   per-channel counts, which it publishes to the nest counters at fence
//!   points. The two are never derived from each other.
//! * [`NestCounters`](crate::NestCounters) keeps a bulk-traffic shadow
//!   mirroring `record_bulk` (noise, DMA, measurement overhead) both
//!   per-channel and in total, which double-checks the channel-split
//!   arithmetic: the per-channel amounts must sum back to the requested
//!   byte count.
//!
//! After every simulated kernel,
//! [`SimMachine`](crate::SimMachine)`::verify_socket_conservation` asserts,
//! per channel:
//!
//! ```text
//! MBA bytes == SECTOR_BYTES x (demand fills + prefetch fills
//!                              + writebacks + bypass stores + RMW partials)
//!            + bulk bytes (noise / DMA / measurement overhead)
//! ```
//!
//! plus the per-core stats identity (shadow read transactions equal
//! `demand_misses + prefetch_fills`; shadow write transactions equal
//! `writebacks + bypass_writes + rmw_partials`) and counter monotonicity
//! across successive verification samples.
//!
//! The check runs after every simulated kernel in every build (one exact
//! pass over 8 channels x the socket's cores); the hot path pays one
//! shadow array increment per memory-level transaction.

use core::fmt;

use p9_arch::MBA_CHANNELS;

/// Why a conservation check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConservationError {
    /// A core's shadow transaction count disagrees with its `CoreStats`.
    CoreStats {
        core: usize,
        dir: &'static str,
        shadow_tx: u64,
        stats_tx: u64,
    },
    /// A channel counter disagrees with shadow sectors + bulk bytes.
    Channel {
        channel: usize,
        dir: &'static str,
        counter: u64,
        expected: u64,
    },
    /// `record_bulk`'s channel split does not sum to the requested bytes.
    BulkSplit {
        dir: &'static str,
        split_sum: u64,
        total: u64,
    },
    /// A counter moved backwards between verification samples.
    Monotonic {
        channel: usize,
        dir: &'static str,
        prev: u64,
        now: u64,
    },
}

impl fmt::Display for ConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConservationError::CoreStats {
                core,
                dir,
                shadow_tx,
                stats_tx,
            } => write!(
                f,
                "core {core}: shadow {dir} transactions {shadow_tx} != stats {stats_tx}"
            ),
            ConservationError::Channel {
                channel,
                dir,
                counter,
                expected,
            } => write!(
                f,
                "channel {channel} {dir}: counter {counter} B != shadow-expected {expected} B"
            ),
            ConservationError::BulkSplit {
                dir,
                split_sum,
                total,
            } => write!(
                f,
                "bulk {dir} split sums to {split_sum} B but {total} B were recorded"
            ),
            ConservationError::Monotonic {
                channel,
                dir,
                prev,
                now,
            } => write!(
                f,
                "channel {channel} {dir}: counter moved backwards ({prev} -> {now})"
            ),
        }
    }
}

impl std::error::Error for ConservationError {}

/// Per-core shadow transaction ledger. One entry per MBA channel and
/// direction; maintained beside every transaction the hierarchy records,
/// never reset (the live counters are free-running too).
#[derive(Debug, Default, Clone)]
pub struct ShadowLedger {
    reads: [u64; MBA_CHANNELS],
    writes: [u64; MBA_CHANNELS],
}

impl ShadowLedger {
    /// Count one 64-byte transaction on `sector`'s channel.
    #[inline(always)]
    pub(crate) fn record(&mut self, sector: u64, dir: crate::Direction) {
        let ch = crate::NestCounters::channel_of(sector);
        match dir {
            crate::Direction::Read => self.reads[ch] += 1,
            crate::Direction::Write => self.writes[ch] += 1,
        }
    }

    /// Shadow read-transaction counts per channel.
    pub fn reads(&self) -> &[u64; MBA_CHANNELS] {
        &self.reads
    }

    /// Shadow write-transaction counts per channel.
    pub fn writes(&self) -> &[u64; MBA_CHANNELS] {
        &self.writes
    }
}

/// Snapshot of the bulk-traffic shadow kept by `NestCounters`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkSnapshot {
    pub read_bytes: [u64; MBA_CHANNELS],
    pub write_bytes: [u64; MBA_CHANNELS],
    pub read_total: u64,
    pub write_total: u64,
}

impl BulkSnapshot {
    /// Check the double-entry invariant of `record_bulk`: the per-channel
    /// split must sum back to the bytes the callers asked to record.
    pub fn check_split(&self) -> Result<(), ConservationError> {
        let r: u64 = self.read_bytes.iter().sum();
        if r != self.read_total {
            return Err(ConservationError::BulkSplit {
                dir: "read",
                split_sum: r,
                total: self.read_total,
            });
        }
        let w: u64 = self.write_bytes.iter().sum();
        if w != self.write_total {
            return Err(ConservationError::BulkSplit {
                dir: "write",
                split_sum: w,
                total: self.write_total,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::counters::{Direction, NestCounters};
    use crate::machine::SimMachine;
    use p9_arch::Machine;

    fn quiet_tiny() -> SimMachine {
        SimMachine::quiet(Machine::tiny(64), 11)
    }

    #[test]
    fn kernel_traffic_is_conserved() {
        let mut m = quiet_tiny();
        let r = m.alloc(256 * 1024);
        // run_single already self-checks; the explicit call returns Ok too.
        m.run_single(0, |core| core.load_seq(r.base(), 256 * 1024));
        m.verify_socket_conservation(0).expect("conserved");
    }

    #[test]
    fn parallel_and_noise_traffic_is_conserved() {
        let mut m = SimMachine::new(Machine::tiny(64), crate::NoiseConfig::summit(), 9);
        let regions: Vec<_> = (0..4).map(|_| m.alloc(64 * 1024)).collect();
        let shared = m.socket_shared(0);
        shared.measurement_touch();
        m.run_parallel(0, 4, |tid, core| {
            core.store_seq(regions[tid].base(), 64 * 1024);
        });
        shared.measurement_touch();
        m.verify_socket_conservation(0).expect("conserved");
    }

    #[test]
    fn flush_and_reconfigure_traffic_is_conserved() {
        let mut m = quiet_tiny();
        let regions: Vec<_> = (0..2).map(|_| m.alloc(128 * 1024)).collect();
        let dirty = |tid: usize, core: &mut crate::CoreSim| {
            core.set_software_prefetch(true);
            core.store_seq(regions[tid].base(), 128 * 1024);
        };
        m.run_parallel(0, 2, dirty);
        m.flush_socket(0);
        m.verify_socket_conservation(0).expect("flush conserved");
        m.run_parallel(0, 2, dirty);
        // Re-sizing the L3 shares for one active core writes core 1's
        // dirty residue back, though core 1 does not run (no fence).
        m.run_single(0, |_| {});
        m.verify_socket_conservation(0).expect("conserved");
    }

    #[test]
    fn external_record_is_caught_as_broken_accounting() {
        let mut m = quiet_tiny();
        let r = m.alloc(4096);
        m.run_single(0, |core| core.load_seq(r.base(), 4096));
        // Deliberately broken accounting: a counter update that no shadow
        // ledger saw (as a buggy hierarchy path would produce).
        m.socket_shared(0)
            .counters()
            .record_sector(0, Direction::Read);
        let err = m.verify_socket_conservation(0).unwrap_err();
        assert!(
            matches!(err, super::ConservationError::Channel { dir: "read", .. }),
            "{err}"
        );
    }

    #[test]
    fn bulk_split_shadow_matches_totals() {
        let c = NestCounters::new();
        for bytes in [0u64, 1, 7, 8, 63, 64, 1000, 1 << 20] {
            c.record_bulk(bytes, Direction::Read);
            c.record_bulk(bytes / 3, Direction::Write);
        }
        c.bulk_shadow().check_split().expect("split conserved");
    }
}
