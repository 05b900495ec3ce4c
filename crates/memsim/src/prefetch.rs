//! Per-core load-stream detection and prefetch.
//!
//! POWER9 cores track load streams in a stream table. Two kinds matter for
//! the paper's analysis:
//!
//! * **Sequential streams** (consecutive sectors): prefetched ahead; for the
//!   paper's traffic accounting these change *when* bytes move, not how
//!   many, except for a small overshoot at the end of an array.
//! * **Stride-N streams** (constant stride larger than one sector): "hardware
//!   may detect Stride-N streams in intervals when they access elements that
//!   map to sequential cache blocks" (Power ISA 3.0B). Their presence is
//!   what turns off cache-bypassing stores — the central mechanism behind
//!   the read-per-write behaviour in Sections III and IV.
//!
//! The engine keeps a small fully-associative table of candidate streams.
//! A stream is *confirmed* after `CONFIRMATIONS` consecutive accesses with
//! the same sector stride. Confirmed streams with `|stride| > 1` raise the
//! core's `stride_stream_active` condition, which decays once the stream
//! stops being touched (tracked with a per-engine access clock).

/// Accesses with the same stride needed before a stream is confirmed.
pub const CONFIRMATIONS: u8 = 3;

/// Number of stream-table entries (POWER9 tracks up to 16 streams).
pub const STREAM_SLOTS: usize = 16;

/// How many sectors ahead a confirmed stream prefetches.
pub const PREFETCH_DEPTH: u64 = 8;

/// A confirmed stream is considered stale after this many engine accesses
/// without being advanced, releasing its slot and its stride-active vote.
pub const STALE_AFTER: u64 = 4096;

#[derive(Clone, Copy, Debug)]
struct Stream {
    /// Sector of the most recent access in this stream.
    last: u64,
    /// Sector stride between consecutive accesses (0 = not yet known).
    stride: i64,
    /// Consecutive same-stride confirmations so far.
    confirms: u8,
    /// Engine clock of the last touch (for staleness / LRU).
    touched: u64,
    /// Valid entry.
    valid: bool,
    /// Stream position (in strides ahead of `last`) already covered by
    /// issued prefetches — each access only issues the *new* tail.
    pf_ahead: u8,
}

impl Stream {
    const INVALID: Stream = Stream {
        last: 0,
        stride: 0,
        confirms: 0,
        touched: 0,
        valid: false,
        pf_ahead: 0,
    };

    #[inline]
    fn confirmed(&self) -> bool {
        self.valid && self.confirms >= CONFIRMATIONS
    }

    #[inline]
    fn is_stride_n(&self) -> bool {
        self.confirmed() && self.stride.unsigned_abs() > 1
    }
}

/// What the engine asks the hierarchy to prefetch after one access: the
/// uncovered tail of a confirmed stream's window, i.e. the sectors
/// `from + stride * k` for `k` in `first..=PREFETCH_DEPTH` (at most
/// [`PREFETCH_DEPTH`] of them, exactly one in steady state). Building it
/// is free; stores take only its [`PrefetchWindow::look_ahead`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchWindow {
    from: u64,
    stride: i64,
    first: u64,
}

impl PrefetchWindow {
    const EMPTY: PrefetchWindow = PrefetchWindow {
        from: 0,
        stride: 0,
        first: PREFETCH_DEPTH + 1,
    };

    /// The sectors to prefetch (fetch into the cache if absent), nearest
    /// first. Targets below sector 0 do not exist and are skipped.
    #[inline]
    pub fn sectors(self) -> impl Iterator<Item = u64> {
        (self.first..=PREFETCH_DEPTH).filter_map(move |k| self.at(k))
    }

    /// Where the stream that produced this window will be `k` strides
    /// past the access that advanced it; `None` when the access advanced
    /// no confirmed stream or the stream runs out below sector 0. The
    /// hierarchy asks beyond [`PREFETCH_DEPTH`] to learn which tag set it
    /// will probe a few accesses from now.
    #[inline]
    pub fn look_ahead(self, k: u64) -> Option<u64> {
        if self.stride == 0 {
            return None;
        }
        self.at(k)
    }

    #[inline]
    fn at(self, k: u64) -> Option<u64> {
        let next = self.from as i64 + self.stride * k as i64;
        (next >= 0).then_some(next as u64)
    }
}

/// The per-core stream engine.
#[derive(Clone, Debug)]
pub struct PrefetchEngine {
    table: [Stream; STREAM_SLOTS],
    clock: u64,
    /// Largest stride (in sectors) the detector will track; larger jumps
    /// start a fresh candidate stream instead.
    max_stride: i64,
    /// Most-recently-matched slot: checked first (streams are bursty, so
    /// the common case is another access to the same stream).
    mru: usize,
}

impl Default for PrefetchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefetchEngine {
    pub fn new() -> Self {
        PrefetchEngine {
            table: [Stream::INVALID; STREAM_SLOTS],
            clock: 0,
            // 1 MiB worth of sectors: covers matrix-column strides of the
            // paper's largest problems.
            max_stride: (1 << 20) / crate::SECTOR_BYTES as i64,
            mru: 0,
        }
    }

    /// Rules 1 and 2 for one table entry: does `sector` re-touch or
    /// exactly continue stream `s`? `None` (nothing mutated) if neither.
    #[inline]
    fn continue_stream(s: &mut Stream, sector: u64, clock: u64) -> Option<PrefetchWindow> {
        if !s.valid {
            return None;
        }
        if s.last == sector {
            s.touched = clock;
            return Some(PrefetchWindow::EMPTY);
        }
        if s.stride == 0 || sector as i64 - s.last as i64 != s.stride {
            return None;
        }
        s.last = sector;
        s.touched = clock;
        s.confirms = s.confirms.saturating_add(1);
        if s.confirms < CONFIRMATIONS {
            return Some(PrefetchWindow::EMPTY);
        }
        // Advance the prefetch window: the stream moved one stride, so
        // issue only the uncovered tail (one sector per access in steady
        // state).
        let already = u64::from(s.pf_ahead.saturating_sub(1));
        s.pf_ahead = PREFETCH_DEPTH as u8;
        Some(PrefetchWindow {
            from: sector,
            stride: s.stride,
            first: already + 1,
        })
    }

    /// Observe a demand access (load or store) of `sector`; returns the
    /// prefetches to issue.
    ///
    /// Matching rules, in priority order:
    ///
    /// 1. *Same-sector reuse* (`last == sector`): refresh recency only —
    ///    spatial reuse inside a sector is invisible to the stream
    ///    detector, which watches cache-block transitions.
    /// 2. *Exact continuation* (`sector == last + stride`): advance the
    ///    stream and add a confirmation.
    /// 3. *Closest candidate*: the nearest stream within `max_stride` may
    ///    adopt the observed delta as its stride hypothesis — but only if
    ///    it has no hypothesis yet, or the new delta is strictly smaller in
    ///    magnitude (refining toward the local stream). Confirmed streams
    ///    are never destroyed by a non-matching access; interleaved streams
    ///    therefore separate into distinct entries.
    /// 4. Otherwise a fresh candidate entry is allocated.
    ///
    /// Rules 1 and 2 try the most-recently-matched entry first (streams
    /// are bursty, so that is the common case and it wins ties), then the
    /// table in slot order.
    pub fn observe(&mut self, sector: u64) -> PrefetchWindow {
        self.clock += 1;
        let clock = self.clock;

        if let Some(window) = Self::continue_stream(&mut self.table[self.mru], sector, clock) {
            return window;
        }

        let mut closest: Option<(usize, i64)> = None;
        for (i, s) in self.table.iter_mut().enumerate() {
            if let Some(window) = Self::continue_stream(s, sector, clock) {
                self.mru = i;
                return window;
            }
            if !s.valid {
                continue;
            }
            let delta = sector as i64 - s.last as i64;
            if delta.unsigned_abs() as i64 <= self.max_stride {
                let better = match closest {
                    None => true,
                    Some((_, bd)) => delta.abs() < bd.abs(),
                };
                if better {
                    closest = Some((i, delta));
                }
            }
        }

        // Rule 3: adopt / refine a stride hypothesis on the closest entry.
        if let Some((i, delta)) = closest {
            let s = &mut self.table[i];
            let adoptable =
                s.stride == 0 || (s.confirms < CONFIRMATIONS && delta.abs() < s.stride.abs());
            if adoptable {
                s.stride = delta;
                s.confirms = 1;
                s.last = sector;
                s.touched = clock;
                s.pf_ahead = 0;
                self.mru = i;
                return PrefetchWindow::EMPTY;
            }
        }

        // Rule 4: fresh candidate in the first-invalid / LRU slot.
        let slot = self.victim_slot();
        self.table[slot] = Stream {
            last: sector,
            stride: 0,
            confirms: 0,
            touched: clock,
            valid: true,
            pf_ahead: 0,
        };
        self.mru = slot;
        PrefetchWindow::EMPTY
    }

    fn victim_slot(&self) -> usize {
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, s) in self.table.iter().enumerate() {
            if !s.valid {
                return i;
            }
            if s.touched < oldest {
                oldest = s.touched;
                victim = i;
            }
        }
        victim
    }

    /// True when `sector` is the current position of a *confirmed
    /// sequential* stream (|stride| = 1 sector). The store engine uses
    /// this to recognize streaming stores: only such stores are eligible
    /// to bypass the cache (store-gather), everything else write-allocates.
    pub fn sequential_stream_at(&self, sector: u64) -> bool {
        self.table
            .iter()
            .any(|s| s.confirmed() && s.stride.unsigned_abs() == 1 && s.last == sector)
    }

    /// True while at least one confirmed stride-N (stride > 1 sector) load
    /// stream is live. Store-bypass is suppressed in this state.
    pub fn stride_stream_active(&self) -> bool {
        self.table
            .iter()
            .any(|s| s.is_stride_n() && self.clock.saturating_sub(s.touched) < STALE_AFTER)
    }

    /// Drop every tracked stream (e.g. between measured kernels).
    pub fn reset(&mut self) {
        self.table = [Stream::INVALID; STREAM_SLOTS];
        self.clock = 0;
        self.mru = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(engine: &mut PrefetchEngine, sectors: &[u64]) -> Vec<Vec<u64>> {
        sectors
            .iter()
            .map(|&s| engine.observe(s).sectors().collect())
            .collect()
    }

    fn drive_last(engine: &mut PrefetchEngine, sectors: &[u64]) -> PrefetchWindow {
        let windows = sectors.iter().map(|&s| engine.observe(s));
        windows.last().expect("at least one access")
    }

    #[test]
    fn sequential_stream_confirms_and_prefetches() {
        let mut e = PrefetchEngine::new();
        let reqs = drive(&mut e, &[100, 101, 102, 103, 104]);
        // After CONFIRMATIONS same-stride transitions we must prefetch.
        assert!(reqs[3].contains(&104) || reqs[3].contains(&105));
        assert!(
            !e.stride_stream_active(),
            "stride-1 is not a stride-N stream"
        );
    }

    #[test]
    fn strided_stream_sets_stride_active() {
        let mut e = PrefetchEngine::new();
        drive(&mut e, &[0, 64, 128, 192, 256]);
        assert!(e.stride_stream_active());
    }

    #[test]
    fn same_sector_reuse_does_not_break_stream() {
        let mut e = PrefetchEngine::new();
        drive(&mut e, &[10, 10, 10, 11, 11, 12, 12, 13, 14]);
        // Stream should confirm as sequential despite intra-sector repeats.
        assert!(!e.stride_stream_active());
        assert!(e.observe(15).sectors().next().is_some());
    }

    #[test]
    fn stride_active_decays_when_stream_stops() {
        let mut e = PrefetchEngine::new();
        drive(&mut e, &[0, 64, 128, 192, 256]);
        assert!(e.stride_stream_active());
        // Hammer widely scattered sectors (deltas far beyond max stride, no
        // constant stride) long enough for the strided stream to go stale.
        let noise: Vec<u64> = (0..STALE_AFTER + 10)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64)) >> 16)
            .collect();
        drive(&mut e, &noise);
        assert!(!e.stride_stream_active());
    }

    #[test]
    fn reset_clears_everything() {
        let mut e = PrefetchEngine::new();
        drive(&mut e, &[0, 64, 128, 192, 256]);
        e.reset();
        assert!(!e.stride_stream_active());
    }

    #[test]
    fn look_ahead_follows_the_confirmed_stream_only() {
        let mut e = PrefetchEngine::new();
        assert_eq!(PrefetchWindow::EMPTY.look_ahead(20), None);
        assert_eq!(e.observe(100).look_ahead(20), None, "unconfirmed");
        let up = drive_last(&mut e, &[101, 102, 103]);
        assert_eq!(up.look_ahead(20), Some(103 + 20));
        assert_eq!(e.observe(103).look_ahead(20), None, "re-touch");
        let down = drive_last(&mut e, &[9_000, 8_996, 8_992, 8_988]);
        assert_eq!(down.look_ahead(12), Some(8_988 - 4 * 12));
        assert_eq!(down.look_ahead(2_247), Some(0));
        assert_eq!(down.look_ahead(2_248), None, "below sector 0");
    }

    #[test]
    fn two_interleaved_streams_both_tracked() {
        let mut e = PrefetchEngine::new();
        // Interleave a sequential stream at 1000+ with a strided one at 0+.
        let mut pat = Vec::new();
        for i in 0..6u64 {
            pat.push(1000 + i);
            pat.push(i * 50);
        }
        drive(&mut e, &pat);
        assert!(e.stride_stream_active());
    }
}
