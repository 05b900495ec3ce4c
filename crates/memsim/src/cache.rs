//! A set-associative, write-back cache over 64-byte sectors.
//!
//! The cache is indexed by *sector number* (byte address / 64). Real POWER9
//! L3 slices hash addresses across sets; we use a multiplicative hash with
//! Lemire reduction, which both balances arbitrary strides across sets and
//! supports non-power-of-two set counts (needed for the variable-capacity
//! borrowed-L3 configuration).
//!
//! Replacement is true LRU within a set: each set's ways are ordered
//! most-recent-first and each way is one packed word (sector number plus
//! a dirty bit), so a probe scans one contiguous run of ≤ 20 words.
//!
//! What this costs the *host* is the design constraint, because a
//! 110 MiB simulated L3 is a 13.75 MiB tag array:
//!
//! * **A cache that was never inserted into owns no memory.** `new`
//!   records geometry only; the first insert allocates, and a probe of an
//!   unallocated cache is an out-of-range `get` — a miss. Ways are stored
//!   complemented (`sector ^ TAG`) so that the empty way is the word 0:
//!   the allocation is then `alloc_zeroed`, and of a large array only the
//!   sets a kernel touches ever become resident. (A non-zero sentinel
//!   is a fill that page-faults every core's whole array before the
//!   first access; zero alone is not enough, because the allocator
//!   memsets recycled heap — the laziness has to be the cache's.)
//! * **The hit on the most-recent way moves nothing.** Element-wise
//!   kernels hit the same sector eight times running; that probe reads
//!   and writes way 0 only. Deeper hits and inserts shift the set with a
//!   word loop that carries the displaced way in a register — for ≤ 20
//!   words a `memmove` *call* costs more than the moves.
//! * **[`sector_mix`] makes the tag array host-cache-hostile, on
//!   purpose.** Consecutive sectors land in unrelated sets, so a streamed
//!   sector is a dependent host-cache miss on a 160-byte set. The
//!   simulated stream engine knows which sector it will fetch a dozen
//!   accesses from now, and `SetAssocCache::host_prefetch` passes that
//!   on as a prefetch *instruction*: it must not block, and a plain read
//!   of the same words in its place measured 2× slower (2.5 s against
//!   1.2 s on a 1 GiB sequential load; 1.9 s with no hint at all).

/// Dirty flag, kept in the top bit of the packed way word.
const DIRTY: u64 = 1 << 63;

/// Sector-number mask (sectors are < 2^63). A way holds `sector ^ TAG`,
/// so the empty way — no valid sector — is 0.
const TAG: u64 = DIRTY - 1;

/// Full-avalanche mix (splitmix64 finalizer) of a sector number, shared
/// by every cache level: the hierarchy computes it once per access and
/// passes it to the `*_mixed` probe variants, so an L1→L2→L3 probe chain
/// hashes the address once instead of three times. A bare multiplicative
/// hash is NOT enough here: a constant-stride sector progression s + k·d
/// maps to the rotation sequence {k·frac(d·φ)}, and for strides where
/// d·φ is close to a low-denominator rational the progression piles onto
/// a few sets (e.g. the paper's N = 448 pencil stride of 112 sectors
/// hits 112·φ ≈ 63/256). Real L3 slices XOR-fold the address for the
/// same reason.
#[inline(always)]
pub fn sector_mix(sector: u64) -> u64 {
    let mut h = sector;
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h
}

/// Result of inserting a sector into the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evicted {
    /// No line was displaced.
    None,
    /// A clean sector was displaced.
    Clean(u64),
    /// A dirty sector was displaced and must be handled (written back or
    /// installed in the next level down).
    Dirty(u64),
}

/// A set-associative cache of sector numbers.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// `sets * ways` packed ways, each set ordered most-recent-first with
    /// its empty ways (0) at the tail — or no words at all until the
    /// first insert, and again after a [`Self::flush`].
    slots: Vec<u64>,
}

/// Put `word` in front of `ways` and move every way one place along,
/// returning the way that fell off the far end.
#[inline(always)]
fn shift_in<'a>(ways: impl IntoIterator<Item = &'a mut u64>, word: u64) -> u64 {
    ways.into_iter()
        .fold(word, |carry, w| std::mem::replace(w, carry))
}

#[inline(always)]
fn pack(sector: u64, dirty: bool) -> u64 {
    debug_assert!(sector < TAG);
    (sector ^ TAG) | if dirty { DIRTY } else { 0 }
}

/// What a way displaced by an insert held.
#[inline(always)]
fn evicted(way: u64) -> Evicted {
    if way & TAG == 0 {
        Evicted::None
    } else if way & DIRTY != 0 {
        Evicted::Dirty((way & TAG) ^ TAG)
    } else {
        Evicted::Clean(way ^ TAG)
    }
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn prefetch_line(word: &u64) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: the pointer comes from a reference into an in-bounds
    // sub-slice; a prefetch never faults and has no architectural effect.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(word).cast()) }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn prefetch_line(_: &u64) {}

impl SetAssocCache {
    /// Describe a cache of `capacity_bytes` with `ways` associativity over
    /// 64-byte sectors. The set count is `capacity / (64 * ways)`, clamped
    /// to at least one set. Nothing is allocated until the first insert.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let sets = ((capacity_bytes / (crate::SECTOR_BYTES * ways as u64)) as usize).max(1);
        SetAssocCache {
            sets,
            ways,
            slots: Vec::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * crate::SECTOR_BYTES
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Where in `slots` the set of a [`sector_mix`] lives (Lemire
    /// reduction: every level reduces the *same* mix to its own set
    /// count). Out of range while nothing has been inserted, so the
    /// bounds check of `get` doubles as that test.
    #[inline(always)]
    fn set_range(&self, mix: u64) -> std::ops::Range<usize> {
        let base = (((mix as u128) * (self.sets as u128)) >> 64) as usize * self.ways;
        base..base + self.ways
    }

    #[inline(always)]
    fn set(&self, mix: u64) -> Option<&[u64]> {
        self.slots.get(self.set_range(mix))
    }

    #[inline(always)]
    fn set_mut(&mut self, mix: u64) -> Option<&mut [u64]> {
        let range = self.set_range(mix);
        self.slots.get_mut(range)
    }

    /// The set an insert goes into, allocating the (zeroed: all empty)
    /// tag array on the first one.
    #[inline(always)]
    fn set_for_insert(&mut self, sector: u64, mix: u64) -> &mut [u64] {
        debug_assert_eq!(mix, sector_mix(sector));
        if self.slots.is_empty() {
            self.slots = vec![0; self.sets * self.ways];
        }
        let range = self.set_range(mix);
        let ways = &mut self.slots[range];
        debug_assert!(
            !ways.iter().any(|&w| w & TAG == sector ^ TAG),
            "inserting sector already present"
        );
        ways
    }

    /// Look up `sector`; on hit, refresh LRU and optionally set the dirty
    /// bit. Returns whether the sector was present.
    #[inline]
    pub fn access(&mut self, sector: u64, mark_dirty: bool) -> bool {
        self.access_mixed(sector, sector_mix(sector), mark_dirty)
    }

    /// [`Self::access`] with a caller-supplied [`sector_mix`] (the hot
    /// probe chain hashes once and shares the mix across levels).
    #[inline]
    pub fn access_mixed(&mut self, sector: u64, mix: u64, mark_dirty: bool) -> bool {
        debug_assert_eq!(mix, sector_mix(sector));
        let Some(ways) = self.set_mut(mix) else {
            return false;
        };
        debug_assert!(sector < TAG);
        let key = sector ^ TAG;
        let dirty = if mark_dirty { DIRTY } else { 0 };
        // Most-recent way first: that hit moves nothing.
        if ways[0] & TAG == key {
            ways[0] |= dirty;
            return true;
        }
        let Some(pos) = ways.iter().position(|&w| w & TAG == key) else {
            return false;
        };
        // Move to front (most recently used).
        let word = ways[pos] | dirty;
        shift_in(&mut ways[..=pos], word);
        true
    }

    /// Probe without touching LRU or dirty state.
    #[inline]
    pub fn contains(&self, sector: u64) -> bool {
        self.contains_mixed(sector, sector_mix(sector))
    }

    /// [`Self::contains`] with a caller-supplied [`sector_mix`].
    #[inline]
    pub fn contains_mixed(&self, sector: u64, mix: u64) -> bool {
        debug_assert_eq!(mix, sector_mix(sector));
        self.set(mix)
            .is_some_and(|ways| ways.iter().any(|&w| w & TAG == sector ^ TAG))
    }

    /// Insert `sector` as most-recently-used, evicting the LRU way if the
    /// set is full. The caller must have established the sector is absent
    /// (e.g. via a failed [`Self::access`]); inserting a present sector
    /// would create a duplicate.
    #[inline]
    pub fn insert(&mut self, sector: u64, dirty: bool) -> Evicted {
        self.insert_mixed(sector, sector_mix(sector), dirty)
    }

    /// [`Self::insert`] with a caller-supplied [`sector_mix`].
    #[inline]
    pub fn insert_mixed(&mut self, sector: u64, mix: u64, dirty: bool) -> Evicted {
        let ways = self.set_for_insert(sector, mix);
        evicted(shift_in(ways, pack(sector, dirty)))
    }

    /// Insert `sector` at mid-LRU depth instead of MRU — the insertion
    /// position real caches use for traffic they predict to be streaming
    /// (e.g. store-allocated write bursts), so it cannot push the whole
    /// reuse working set out.
    #[inline]
    pub fn insert_mid(&mut self, sector: u64, dirty: bool) -> Evicted {
        self.insert_mid_mixed(sector, sector_mix(sector), dirty)
    }

    /// [`Self::insert_mid`] with a caller-supplied [`sector_mix`].
    #[inline]
    pub fn insert_mid_mixed(&mut self, sector: u64, mix: u64, dirty: bool) -> Evicted {
        let ways = self.set_for_insert(sector, mix);
        // Empty ways live at the tail (all other operations preserve
        // this); with spare capacity the shift stops at the first of them
        // and nothing is evicted.
        let last = ways
            .iter()
            .position(|&w| w & TAG == 0)
            .unwrap_or(ways.len() - 1);
        let pos = (ways.len() / 2).min(last);
        evicted(shift_in(&mut ways[pos..=last], pack(sector, dirty)))
    }

    /// Set the dirty bit of `sector` if present, without refreshing its
    /// LRU position (a writeback merge, not a use).
    #[inline]
    pub fn touch_dirty(&mut self, sector: u64) -> bool {
        let way = self
            .set_mut(sector_mix(sector))
            .and_then(|ways| ways.iter_mut().find(|w| **w & TAG == sector ^ TAG));
        way.map(|w| *w |= DIRTY).is_some()
    }

    /// Remove `sector` if present, returning whether it was dirty.
    #[inline]
    pub fn remove(&mut self, sector: u64) -> Option<bool> {
        let ways = self.set_mut(sector_mix(sector))?;
        let pos = ways.iter().position(|&w| w & TAG == sector ^ TAG)?;
        // Close the gap from the tail, which gains an empty way.
        let removed = shift_in(ways[pos..].iter_mut().rev(), 0);
        Some(removed & DIRTY != 0)
    }

    /// Drop every resident sector, invoking `on_dirty` for each dirty
    /// one, and give the tag array back: a flushed cache is a
    /// never-inserted one.
    pub fn flush(&mut self, mut on_dirty: impl FnMut(u64)) {
        for w in std::mem::take(&mut self.slots) {
            if w & TAG != 0 && w & DIRTY != 0 {
                on_dirty((w & TAG) ^ TAG);
            }
        }
    }

    /// Number of resident sectors (O(capacity); for tests/diagnostics).
    pub fn resident(&self) -> usize {
        self.slots.iter().filter(|&&w| w & TAG != 0).count()
    }

    /// Hint the host's caches toward the set `sector` maps to, which the
    /// caller expects to probe about a dozen accesses from now. No
    /// architectural effect — see the module docs for why it is a
    /// prefetch and not a read.
    #[inline]
    pub(crate) fn host_prefetch(&self, sector: u64) {
        if let Some(ways) = self.set(sector_mix(sector)) {
            // One word per 64-byte line and the last: wherever in a line
            // the set starts, that is every line ≤ 24 ways span.
            let last = ways.len() - 1;
            for word in [0, last.min(8), last.min(16), last] {
                prefetch_line(&ways[word]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, sets_times_ways_sectors: u64) -> SetAssocCache {
        SetAssocCache::new(sets_times_ways_sectors * crate::SECTOR_BYTES, ways)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(4, 16);
        assert!(!c.access(42, false));
        assert_eq!(c.insert(42, false), Evicted::None);
        assert!(c.access(42, false));
        assert!(c.contains(42));
    }

    #[test]
    fn never_inserted_and_flushed_caches_are_empty() {
        let mut c = tiny(4, 16);
        for round in 0..2 {
            assert!(!c.access(42, true), "round {round}");
            assert!(!c.contains(42));
            assert!(!c.touch_dirty(42));
            assert_eq!(c.remove(42), None);
            assert_eq!(c.resident(), 0);
            c.flush(|s| panic!("nothing to write back, got {s}"));
            c.host_prefetch(42);
            // Second round: the same on a cache that held something.
            c.insert(42, true);
            let mut dirty = Vec::new();
            c.flush(|s| dirty.push(s));
            assert_eq!(dirty, vec![42]);
        }
        assert_eq!(c.insert(42, false), Evicted::None);
        assert!(c.contains(42));
    }

    #[test]
    fn hit_on_the_most_recent_way_still_marks_dirty() {
        let mut c = tiny(2, 2);
        c.insert(7, false);
        assert!(c.access(7, true)); // way 0: nothing moves
        c.insert(8, false);
        assert_eq!(c.insert(9, false), Evicted::Dirty(7));
    }

    #[test]
    fn lru_eviction_order() {
        // Single set, 2 ways: fill with a,b; touch a; insert c -> b evicted.
        let mut c = tiny(2, 2);
        assert_eq!(c.sets(), 1);
        c.insert(1, false);
        c.insert(2, false);
        assert!(c.access(1, false));
        match c.insert(3, false) {
            Evicted::Clean(t) => assert_eq!(t, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn dirty_state_tracked_through_lru_moves() {
        let mut c = tiny(4, 4);
        c.insert(10, false);
        c.insert(11, false);
        c.insert(12, false);
        assert!(c.access(10, true)); // dirty now
        assert!(c.access(11, false));
        assert!(c.access(12, false));
        // Fill the set; 10 is LRU and dirty.
        c.insert(13, false);
        match c.insert(14, false) {
            Evicted::Dirty(t) => assert_eq!(t, 10),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn remove_reports_dirty_and_compacts() {
        let mut c = tiny(4, 4);
        c.insert(7, true);
        c.insert(8, false);
        assert_eq!(c.remove(7), Some(true));
        assert_eq!(c.remove(7), None);
        assert!(c.contains(8));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn flush_reports_only_dirty() {
        let mut c = tiny(4, 8);
        c.insert(1, true);
        c.insert(2, false);
        c.insert(3, true);
        let mut dirty = Vec::new();
        c.flush(|s| dirty.push(s));
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 3]);
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn capacity_respected() {
        // 64 sectors capacity: inserting 65 distinct sectors must evict >= 1.
        let mut c = tiny(4, 64);
        let mut evictions = 0;
        for s in 0..65 {
            if !c.access(s, false) {
                match c.insert(s, false) {
                    Evicted::None => {}
                    _ => evictions += 1,
                }
            }
        }
        assert!(evictions >= 1);
        assert!(c.resident() <= 64);
    }

    #[test]
    fn dirty_bit_survives_access_without_mark() {
        let mut c = tiny(4, 4);
        c.insert(5, true);
        assert!(c.access(5, false)); // must not clear dirtiness
        let mut dirty = Vec::new();
        c.flush(|s| dirty.push(s));
        assert_eq!(dirty, vec![5]);
    }

    #[test]
    fn mark_dirty_on_access_upgrades() {
        let mut c = tiny(4, 4);
        c.insert(6, false);
        assert!(c.access(6, true));
        assert_eq!(c.remove(6), Some(true));
    }
}
