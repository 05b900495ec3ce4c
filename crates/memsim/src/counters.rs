//! Socket-level nest (uncore) counters.
//!
//! Each POWER9 socket exposes eight Memory Bus Agent channels; the nest IMC
//! publishes `PM_MBA[0-7]_READ_BYTES` and `PM_MBA[0-7]_WRITE_BYTES`, which
//! accumulate the bytes moved by every 64-byte memory transaction on that
//! channel — from *all* cores and processes on the socket. That socket-wide
//! scope is exactly why the counters require elevated privileges on real
//! systems, and why measurements contain other-process noise.
//!
//! Counters are atomics so that concurrently simulated cores, the background
//! noise process, and PCP daemon fetches on any thread can all touch them
//! without locks. Ordering is `Relaxed` throughout: the counters are statistics, and
//! every reader tolerates (indeed, models) slightly stale values.

// Under `--cfg loom` the atomics come from the vendored loom shim, whose
// wrappers inject preemption points so the concurrency models in
// `tests/loom_counters.rs` explore many interleavings.
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

use crate::SECTOR_BYTES;
use p9_arch::MBA_CHANNELS;

/// Direction of a memory transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Direction {
    Read,
    Write,
}

/// The per-socket MBA byte counters.
#[derive(Debug, Default)]
pub struct NestCounters {
    read_bytes: [AtomicU64; MBA_CHANNELS],
    write_bytes: [AtomicU64; MBA_CHANNELS],
    /// Independent books for `record_bulk` traffic (see [`crate::verify`]).
    bulk: BulkShadow,
}

/// Shadow accounting for bulk (noise / DMA / measurement-overhead) traffic:
/// mirrors `record_bulk` per channel and in total so the channel-split
/// arithmetic is double-entry checked.
#[derive(Debug, Default)]
struct BulkShadow {
    read_bytes: [AtomicU64; MBA_CHANNELS],
    write_bytes: [AtomicU64; MBA_CHANNELS],
    read_total: AtomicU64,
    write_total: AtomicU64,
}

/// A point-in-time copy of all sixteen counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    pub read_bytes: [u64; MBA_CHANNELS],
    pub write_bytes: [u64; MBA_CHANNELS],
}

impl CounterSnapshot {
    /// Total read bytes across channels.
    pub fn total_read(&self) -> u64 {
        self.read_bytes.iter().sum()
    }

    /// Total write bytes across channels.
    pub fn total_write(&self) -> u64 {
        self.write_bytes.iter().sum()
    }

    /// Channel-wise difference `self - earlier` (counters are monotonic).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for ch in 0..MBA_CHANNELS {
            out.read_bytes[ch] = self.read_bytes[ch] - earlier.read_bytes[ch];
            out.write_bytes[ch] = self.write_bytes[ch] - earlier.write_bytes[ch];
        }
        out
    }

    /// Counter value for one channel/direction.
    pub fn channel(&self, ch: usize, dir: Direction) -> u64 {
        match dir {
            Direction::Read => self.read_bytes[ch],
            Direction::Write => self.write_bytes[ch],
        }
    }
}

impl NestCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// MBA channel servicing `sector`. Real nest interleave distributes
    /// consecutive 64-byte granules round-robin across the eight channels.
    #[inline(always)]
    pub fn channel_of(sector: u64) -> usize {
        (sector % MBA_CHANNELS as u64) as usize
    }

    /// Record one 64-byte transaction touching `sector`.
    #[inline]
    pub fn record_sector(&self, sector: u64, dir: Direction) {
        let ch = Self::channel_of(sector);
        match dir {
            Direction::Read => &self.read_bytes[ch],
            Direction::Write => &self.write_bytes[ch],
        }
        // relaxed-ok: independent monotonic statistic; no reader orders
        // other memory against it, and the RMW itself cannot lose counts.
        .fetch_add(SECTOR_BYTES, Ordering::Relaxed);
    }

    /// Record `n` 64-byte transactions on channel `ch` with one atomic
    /// add — the batched equivalent of `n` [`Self::record_sector`] calls
    /// whose sectors all map to `ch`. The core hot path accumulates a
    /// sequential run's per-channel counts locally and flushes them here,
    /// so a 64 KiB streaming read costs 8 RMWs instead of 1024.
    #[inline]
    pub fn record_sectors(&self, ch: usize, dir: Direction, n: u64) {
        if n == 0 {
            return;
        }
        match dir {
            Direction::Read => &self.read_bytes[ch],
            Direction::Write => &self.write_bytes[ch],
        }
        // relaxed-ok: same independent-monotonic-statistic argument as
        // record_sector; a batched add cannot lose counts either.
        .fetch_add(n * SECTOR_BYTES, Ordering::Relaxed);
    }

    /// Record `bytes` of traffic spread evenly across channels (used by the
    /// background-noise process and by device DMA, where per-sector
    /// attribution is irrelevant).
    pub fn record_bulk(&self, bytes: u64, dir: Direction) {
        match dir {
            Direction::Read => &self.bulk.read_total,
            Direction::Write => &self.bulk.write_total,
        }
        // relaxed-ok: shadow totals are only compared after threads join.
        .fetch_add(bytes, Ordering::Relaxed);
        let per = bytes / MBA_CHANNELS as u64;
        let rem = bytes % MBA_CHANNELS as u64;
        for ch in 0..MBA_CHANNELS {
            let amount = per + u64::from((ch as u64) < rem);
            if amount > 0 {
                match dir {
                    Direction::Read => &self.read_bytes[ch],
                    Direction::Write => &self.write_bytes[ch],
                }
                // relaxed-ok: same monotonic-statistic argument as
                // record_sector; per-channel adds are independent.
                .fetch_add(amount, Ordering::Relaxed);
                match dir {
                    Direction::Read => &self.bulk.read_bytes[ch],
                    Direction::Write => &self.bulk.write_bytes[ch],
                }
                // relaxed-ok: shadow channel adds, compared only at rest.
                .fetch_add(amount, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot the bulk-traffic shadow books.
    pub fn bulk_shadow(&self) -> crate::verify::BulkSnapshot {
        let mut s = crate::verify::BulkSnapshot::default();
        for ch in 0..MBA_CHANNELS {
            // relaxed-ok: shadow loads; callers verify quiescent state.
            s.read_bytes[ch] = self.bulk.read_bytes[ch].load(Ordering::Relaxed);
            // relaxed-ok: shadow loads; callers verify quiescent state.
            s.write_bytes[ch] = self.bulk.write_bytes[ch].load(Ordering::Relaxed);
        }
        // relaxed-ok: shadow totals load, quiescent at verification time.
        s.read_total = self.bulk.read_total.load(Ordering::Relaxed);
        // relaxed-ok: shadow totals load, quiescent at verification time.
        s.write_total = self.bulk.write_total.load(Ordering::Relaxed);
        s
    }

    /// Read a single channel counter.
    pub fn channel(&self, ch: usize, dir: Direction) -> u64 {
        match dir {
            // relaxed-ok: free-running counter read; readers model stale
            // hardware counter reads and need no ordering with other state.
            Direction::Read => self.read_bytes[ch].load(Ordering::Relaxed),
            // relaxed-ok: same free-running counter read as above.
            Direction::Write => self.write_bytes[ch].load(Ordering::Relaxed),
        }
    }

    /// Snapshot all channels.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut s = CounterSnapshot::default();
        for ch in 0..MBA_CHANNELS {
            // relaxed-ok: snapshot of free-running statistics; channel
            // loads need not be mutually consistent (hardware reads aren't).
            s.read_bytes[ch] = self.read_bytes[ch].load(Ordering::Relaxed);
            // relaxed-ok: same snapshot-of-statistics argument as above.
            s.write_bytes[ch] = self.write_bytes[ch].load(Ordering::Relaxed);
        }
        s
    }

    /// Total read bytes.
    pub fn total_read(&self) -> u64 {
        self.snapshot().total_read()
    }

    /// Total write bytes.
    pub fn total_write(&self) -> u64 {
        self.snapshot().total_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_recording_increments_right_channel() {
        let c = NestCounters::new();
        c.record_sector(0, Direction::Read);
        c.record_sector(8, Direction::Read); // same channel (0), next stripe
        c.record_sector(3, Direction::Write);
        assert_eq!(c.channel(0, Direction::Read), 128);
        assert_eq!(c.channel(3, Direction::Write), 64);
        assert_eq!(c.total_read(), 128);
        assert_eq!(c.total_write(), 64);
    }

    #[test]
    fn sequential_sectors_balance_across_channels() {
        let c = NestCounters::new();
        for s in 0..8000u64 {
            c.record_sector(s, Direction::Read);
        }
        let snap = c.snapshot();
        for ch in 0..MBA_CHANNELS {
            assert_eq!(snap.read_bytes[ch], 1000 * SECTOR_BYTES);
        }
    }

    #[test]
    fn bulk_distributes_exactly() {
        let c = NestCounters::new();
        c.record_bulk(1000, Direction::Write);
        assert_eq!(c.total_write(), 1000);
        let snap = c.snapshot();
        let max = snap.write_bytes.iter().max().unwrap();
        let min = snap.write_bytes.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn snapshot_delta() {
        let c = NestCounters::new();
        c.record_sector(1, Direction::Read);
        let a = c.snapshot();
        c.record_sector(1, Direction::Read);
        c.record_sector(2, Direction::Write);
        let b = c.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.total_read(), 64);
        assert_eq!(d.total_write(), 64);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        use std::sync::Arc;
        let c = Arc::new(NestCounters::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.record_sector(t * 10_000 + i, Direction::Read);
                    }
                });
            }
        });
        assert_eq!(c.total_read(), 4 * 10_000 * SECTOR_BYTES);
    }
}
