//! The per-core cache hierarchy: L1 → L2 → L3 → socket memory interface.
//!
//! Each simulated core owns private L1/L2 caches, a share of the socket L3
//! (sized when a workload starts, from the number of active cores — the
//! slice-borrowing model), a stream/prefetch engine and a store engine.
//! Memory-level transactions accumulate per channel in the core and are
//! published to the shared socket [`NestCounters`] at the same points as
//! its core events: every [`CoreSim::fence`], [`CoreSim::flush_caches`]
//! and [`CoreSim::configure_l3`].
//!
//! The hierarchy is managed (mostly) inclusively: L3 holds every cached
//! sector, a hit at any level refreshes that level's LRU state and
//! promotes the sector into L1, clean L1/L2 evictions are dropped (the L3
//! copy remains), and dirty evictions demote downward until they land on a
//! resident copy or reach memory. Effective capacity for a core is
//! therefore its L3 share exactly — matching the 5 MB / 110 MB capacity
//! arithmetic of the paper's Equations 3, 4 and 7 — and the hot simulation
//! path costs a single L3 tag probe per access.

use std::sync::Arc;

use crate::cache::{sector_mix, Evicted, SetAssocCache};
use crate::counters::{Direction, NestCounters};
use crate::machine::{CoreEvent, CoreEventCounters};
use crate::prefetch::{PrefetchEngine, PREFETCH_DEPTH};
use crate::store::{StoreEngine, StoreOutcome};
use crate::verify::ShadowLedger;
use crate::SECTOR_BYTES;
use p9_arch::MBA_CHANNELS;

/// How many accesses of a confirmed stream ahead of the L3 probe the host
/// is told which tag set that probe will scan. Not a tuning knob: 6 to
/// 32 measured the same (DESIGN.md §10.1); it only has to be more than a
/// host miss and less than the host L1's patience.
const HOST_PREFETCH_AHEAD: u64 = 12;

/// Cycle costs of the timing model. The numbers are round POWER9-flavoured
/// figures; the reproduction depends on their order of magnitude (runtime
/// grows with problem size, misses cost more than hits), not their exact
/// values.
#[derive(Clone, Copy, Debug)]
pub struct AccessCosts {
    /// Demand hit in L1.
    pub l1_hit: u64,
    /// Demand hit in L2 (promotion included).
    pub l2_hit: u64,
    /// Demand hit in L3 (promotion included).
    pub l3_hit: u64,
    /// Exposed latency of an unprefetched demand miss to memory.
    pub mem_lat: u64,
    /// Bandwidth occupancy per 64-byte memory transaction (charged to the
    /// issuing core for every transaction, including prefetches and
    /// writebacks).
    pub mem_bw: u64,
    /// A store absorbed by a write-combining buffer.
    pub store_buffered: u64,
}

impl Default for AccessCosts {
    fn default() -> Self {
        AccessCosts {
            l1_hit: 2,
            l2_hit: 8,
            l3_hit: 24,
            mem_lat: 120,
            mem_bw: 12,
            store_buffered: 1,
        }
    }
}

/// Switchable model mechanisms, for ablation studies. Defaults are the
/// full model; `repro --only ablation` regenerates key results with
/// each mechanism disabled to show what it contributes.
#[derive(Clone, Copy, Debug)]
pub struct ModelPolicy {
    /// Sequential store streams gather and bypass the cache (no RFO).
    /// Off: every store miss write-allocates.
    pub store_gather_bypass: bool,
    /// Streaming store-allocates insert at mid-LRU and writeback merges do
    /// not refresh LRU. Off: plain MRU insertion everywhere.
    pub anti_pollution: bool,
    /// The hardware stream prefetcher issues fills. Off: streams are still
    /// detected (the bypass rule needs them) but nothing is prefetched.
    pub hw_prefetch: bool,
}

impl Default for ModelPolicy {
    fn default() -> Self {
        ModelPolicy {
            store_gather_bypass: true,
            anti_pollution: true,
            hw_prefetch: true,
        }
    }
}

/// Statistics a core accumulates while executing a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    pub loads: u64,
    pub stores: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l3_hits: u64,
    pub demand_misses: u64,
    pub prefetch_fills: u64,
    pub bypass_writes: u64,
    pub rmw_partials: u64,
    pub store_allocates: u64,
    pub writebacks: u64,
}

/// One simulated core.
#[derive(Debug)]
pub struct CoreSim {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    prefetch: PrefetchEngine,
    stores: StoreEngine,
    counters: Arc<NestCounters>,
    /// Memory-level transactions since the last [`CoreSim::publish`], by
    /// direction (`Direction as usize`) and channel.
    pending: [[u64; MBA_CHANNELS]; 2],
    /// Socket-level core-event aggregation target (if wired).
    core_events: Option<Arc<CoreEventCounters>>,
    /// Stats already published to `core_events`.
    flushed: CoreStats,
    flushed_cycles: u64,
    costs: AccessCosts,
    policy: ModelPolicy,
    /// Cycle counter for this core.
    cycles: u64,
    /// `dcbtst`-style software-prefetch hint: while set, store misses take
    /// the allocate path regardless of stream state (the
    /// `-fprefetch-loop-arrays` compilation mode).
    sw_prefetch_stores: bool,
    stats: CoreStats,
    /// Independent second set of books for every sector this core records
    /// on the nest counters; checked after every kernel.
    shadow: ShadowLedger,
    /// Scratch buffer reused across calls to avoid per-access allocation.
    scratch_store: Vec<StoreOutcome>,
}

impl CoreSim {
    /// Build a core with the given cache capacities (bytes) and
    /// associativities, wired to `counters`.
    pub fn new(
        l1: (u64, usize),
        l2: (u64, usize),
        l3: (u64, usize),
        counters: Arc<NestCounters>,
        costs: AccessCosts,
    ) -> Self {
        CoreSim {
            l1: SetAssocCache::new(l1.0, l1.1),
            l2: SetAssocCache::new(l2.0, l2.1),
            l3: SetAssocCache::new(l3.0, l3.1),
            prefetch: PrefetchEngine::new(),
            stores: StoreEngine::new(),
            counters,
            pending: [[0; MBA_CHANNELS]; 2],
            core_events: None,
            flushed: CoreStats::default(),
            flushed_cycles: 0,
            costs,
            policy: ModelPolicy::default(),
            cycles: 0,
            sw_prefetch_stores: false,
            stats: CoreStats::default(),
            shadow: ShadowLedger::default(),
            scratch_store: Vec::with_capacity(8),
        }
    }

    /// Re-size this core's L3 share (the slice-borrowing model). Resident
    /// L3 contents are flushed — dirty sectors are written back.
    pub fn configure_l3(&mut self, capacity_bytes: u64, ways: usize) {
        self.write_back_l3(SetAssocCache::new(capacity_bytes, ways));
        self.publish();
    }

    /// Enable or disable the `dcbtst` software-prefetch store mode
    /// (`-fprefetch-loop-arrays`).
    pub fn set_software_prefetch(&mut self, enabled: bool) {
        self.sw_prefetch_stores = enabled;
    }

    /// Swap the model-mechanism policy (ablation studies).
    pub fn set_policy(&mut self, policy: ModelPolicy) {
        self.policy = policy;
    }

    /// Wire this core's statistics into a socket-level core-event
    /// aggregate (published at every [`CoreSim::fence`]).
    pub fn wire_core_events(&mut self, target: Arc<CoreEventCounters>) {
        self.core_events = Some(target);
    }

    /// The model-mechanism policy in effect.
    pub fn policy(&self) -> ModelPolicy {
        self.policy
    }

    /// True when a stride-N stream is live on this core (bypass suppressed).
    pub fn stride_stream_active(&self) -> bool {
        self.prefetch.stride_stream_active()
    }

    /// Cycle count accumulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Execution statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// The shadow transaction ledger.
    pub fn shadow(&self) -> &ShadowLedger {
        &self.shadow
    }

    /// Check this core's stats identity against its shadow ledger: shadow
    /// read transactions must equal `demand_misses + prefetch_fills`, and
    /// shadow write transactions must equal
    /// `writebacks + bypass_writes + rmw_partials`.
    pub fn verify_conservation(&self, core: usize) -> Result<(), crate::verify::ConservationError> {
        let shadow_reads: u64 = self.shadow.reads().iter().sum();
        let stats_reads = self.stats.demand_misses + self.stats.prefetch_fills;
        if shadow_reads != stats_reads {
            return Err(crate::verify::ConservationError::CoreStats {
                core,
                dir: "read",
                shadow_tx: shadow_reads,
                stats_tx: stats_reads,
            });
        }
        let shadow_writes: u64 = self.shadow.writes().iter().sum();
        let stats_writes =
            self.stats.writebacks + self.stats.bypass_writes + self.stats.rmw_partials;
        if shadow_writes != stats_writes {
            return Err(crate::verify::ConservationError::CoreStats {
                core,
                dir: "write",
                shadow_tx: shadow_writes,
                stats_tx: stats_writes,
            });
        }
        Ok(())
    }

    /// Account `cycles` of pure computation (FLOPs, address arithmetic…).
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Demand load of `len` bytes at byte address `addr`.
    #[inline]
    pub fn load(&mut self, addr: u64, len: u64) {
        debug_assert!(len > 0);
        self.stats.loads += 1;
        let first = addr / SECTOR_BYTES;
        let last = (addr + len - 1) / SECTOR_BYTES;
        for sector in first..=last {
            self.load_sector(sector);
        }
    }

    /// Sequential load of `len` bytes starting at `base` (bulk call:
    /// touches each sector once, trains the stream engine identically to a
    /// element-by-element sweep).
    pub fn load_seq(&mut self, base: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = base / SECTOR_BYTES;
        let last = (base + len - 1) / SECTOR_BYTES;
        self.stats.loads += (last - first) + 1;
        for sector in first..=last {
            self.load_sector(sector);
        }
    }

    /// Demand store of `len` bytes at `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, len: u64) {
        debug_assert!(len > 0);
        self.stats.stores += 1;
        let first = addr / SECTOR_BYTES;
        let last = (addr + len - 1) / SECTOR_BYTES;
        for sector in first..=last {
            let lo = addr.max(sector * SECTOR_BYTES);
            let hi = (addr + len).min((sector + 1) * SECTOR_BYTES);
            self.store_sector(sector, lo, hi);
        }
    }

    /// Sequential store of `len` bytes starting at `base`.
    pub fn store_seq(&mut self, base: u64, len: u64) {
        if len == 0 {
            return;
        }
        // Emit chunk stores so the WCB sees full sectors fill up.
        let mut addr = base;
        let end = base + len;
        while addr < end {
            let sector_end = (addr / SECTOR_BYTES + 1) * SECTOR_BYTES;
            let hi = end.min(sector_end);
            self.stats.stores += 1;
            self.store_sector(addr / SECTOR_BYTES, addr, hi);
            addr = hi;
        }
    }

    /// Flush pending write-combining buffers (end of a kernel region) and
    /// publish this core's traffic and statistics to the socket.
    pub fn fence(&mut self) {
        let mut out = std::mem::take(&mut self.scratch_store);
        out.clear();
        self.stores.drain(&mut out);
        self.apply_store_outcomes(&out);
        self.scratch_store = out;
        self.publish();
    }

    /// Publish everything since the last publish: the pending memory
    /// transactions to the socket's nest counters (one add per non-zero
    /// channel and direction), and the statistics delta to its core-event
    /// counters, whose mapping is the socket-aggregated view of the POWER
    /// core PMU: `PM_RUN_CYC` = cycles, `PM_LD_CMPL` /
    /// `PM_ST_CMPL` = completed loads/stores, `PM_LD_MISS_L1` = demand
    /// accesses satisfied beyond L1, `PM_DATA_FROM_MEMORY` = fills from
    /// memory (demand + prefetch).
    fn publish(&mut self) {
        for (dir, pending) in [Direction::Read, Direction::Write]
            .into_iter()
            .zip(&mut self.pending)
        {
            for (ch, n) in pending.iter_mut().enumerate() {
                self.counters.record_sectors(ch, dir, std::mem::take(n));
            }
        }
        let Some(target) = &self.core_events else {
            return;
        };
        let s = self.stats;
        let f = self.flushed;
        target.add(CoreEvent::RunCyc, self.cycles - self.flushed_cycles);
        target.add(CoreEvent::LdCmpl, s.loads - f.loads);
        target.add(CoreEvent::StCmpl, s.stores - f.stores);
        target.add(
            CoreEvent::LdMissL1,
            (s.l2_hits + s.l3_hits + s.demand_misses) - (f.l2_hits + f.l3_hits + f.demand_misses),
        );
        target.add(
            CoreEvent::DataFromMem,
            (s.demand_misses + s.prefetch_fills) - (f.demand_misses + f.prefetch_fills),
        );
        self.flushed = s;
        self.flushed_cycles = self.cycles;
    }

    /// Write back and drop everything cached (used by tests that need exact
    /// end-to-end byte accounting, and between independent experiments).
    pub fn flush_caches(&mut self) {
        self.fence();
        // Merge inner-level dirty sectors into L3 first so each dirty
        // sector is written back exactly once despite inclusion.
        let mut inner_dirty = Vec::new();
        self.l1.flush(|s| inner_dirty.push(s));
        self.l2.flush(|s| inner_dirty.push(s));
        for s in inner_dirty {
            if !self.l3.access(s, true) {
                if let Evicted::Dirty(v) = self.l3.insert(s, true) {
                    self.stats.writebacks += 1;
                    self.mem_write(v);
                }
            }
        }
        let empty = SetAssocCache::new(self.l3.capacity_bytes(), self.l3.ways());
        let wb = self.write_back_l3(empty);
        self.cycles += wb * self.costs.mem_bw;
        self.prefetch.reset();
        self.publish();
    }

    /// Forget all state without generating traffic (fresh process image).
    pub fn reset_cold(&mut self) {
        let l1 = (self.l1.capacity_bytes(), self.l1.ways());
        let l2 = (self.l2.capacity_bytes(), self.l2.ways());
        let l3 = (self.l3.capacity_bytes(), self.l3.ways());
        self.l1 = SetAssocCache::new(l1.0, l1.1);
        self.l2 = SetAssocCache::new(l2.0, l2.1);
        self.l3 = SetAssocCache::new(l3.0, l3.1);
        self.prefetch.reset();
        self.stores = StoreEngine::new();
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Record one memory-level transaction: counted in `pending` until the
    /// next [`CoreSim::publish`], and in the shadow ledger, separately.
    #[inline]
    fn record_tx(&mut self, sector: u64, dir: Direction) {
        self.pending[dir as usize][NestCounters::channel_of(sector)] += 1;
        self.shadow.record(sector, dir);
    }

    /// Replace the L3 with `next`, writing the old one's dirty sectors
    /// back to memory. Returns how many were written.
    fn write_back_l3(&mut self, next: SetAssocCache) -> u64 {
        let mut old = std::mem::replace(&mut self.l3, next);
        let mut wb = 0u64;
        old.flush(|s| {
            self.record_tx(s, Direction::Write);
            wb += 1;
        });
        self.stats.writebacks += wb;
        wb
    }

    #[inline]
    fn mem_read(&mut self, sector: u64, demand: bool) {
        self.record_tx(sector, Direction::Read);
        self.cycles += self.costs.mem_bw;
        if demand {
            self.cycles += self.costs.mem_lat;
            self.stats.demand_misses += 1;
        } else {
            self.stats.prefetch_fills += 1;
        }
    }

    #[inline]
    fn mem_write(&mut self, sector: u64) {
        self.record_tx(sector, Direction::Write);
        self.cycles += self.costs.mem_bw;
    }

    fn load_sector(&mut self, sector: u64) {
        let window = self.prefetch.observe(sector);
        // Tell the host's prefetcher what the simulated one just said. The
        // L3 probe that will miss the host's caches is the prefetch
        // tail's, `PREFETCH_DEPTH` strides out.
        if let Some(ahead) = window.look_ahead(PREFETCH_DEPTH + HOST_PREFETCH_AHEAD) {
            self.l3.host_prefetch(ahead);
        }
        self.demand_load_probe(sector);
        if self.policy.hw_prefetch {
            for p in window.sectors() {
                self.prefetch_sector(p);
            }
        }
    }

    /// The demand L1→L2→L3→memory probe chain of a load, sharing one
    /// [`sector_mix`] across every level's set lookup.
    #[inline]
    fn demand_load_probe(&mut self, sector: u64) {
        let mix = sector_mix(sector);
        if self.l1.access_mixed(sector, mix, false) {
            self.stats.l1_hits += 1;
            self.cycles += self.costs.l1_hit;
        } else if self.l2.access_mixed(sector, mix, false) {
            self.stats.l2_hits += 1;
            self.cycles += self.costs.l2_hit;
            self.install_l1_mixed(sector, mix, false);
        } else if self.l3.access_mixed(sector, mix, false) {
            self.stats.l3_hits += 1;
            self.cycles += self.costs.l3_hit;
            self.install_l1_mixed(sector, mix, false);
        } else {
            self.mem_read(sector, true);
            // A pending WCB entry for this sector merges into the fetched
            // line (store-to-load forwarding at the line fill).
            self.stores.invalidate(sector);
            self.install_l3_then_l1(sector, mix, false);
        }
    }

    /// Install a freshly fetched sector: into L3 (the inclusive outer
    /// level) and into L1 (where the demand hit it).
    fn install_l3_then_l1(&mut self, sector: u64, mix: u64, dirty: bool) {
        match self.l3.insert_mixed(sector, mix, false) {
            Evicted::None | Evicted::Clean(_) => {}
            Evicted::Dirty(v) => {
                self.stats.writebacks += 1;
                self.mem_write(v);
            }
        }
        self.install_l1_mixed(sector, mix, dirty);
    }

    fn store_sector(&mut self, sector: u64, lo: u64, hi: u64) {
        // Stores train the stream detector exactly like loads: POWER9
        // detects store streams too, and a strided *store* stream also
        // suppresses bypass (Listing 8's `out` incurs a read per write).
        // Store streams do not issue read prefetch (the allocate path
        // below performs its own fills); the window only says where the
        // stream goes. Every store miss scans the stored sector's own L3
        // set, bypassed or not.
        let window = self.prefetch.observe(sector);
        if let Some(ahead) = window.look_ahead(HOST_PREFETCH_AHEAD) {
            self.l3.host_prefetch(ahead);
        }

        let mix = sector_mix(sector);
        if self.l1.access_mixed(sector, mix, true) {
            self.stats.l1_hits += 1;
            self.cycles += self.costs.l1_hit;
            return;
        }
        if self.l2.access_mixed(sector, mix, true) {
            self.stats.l2_hits += 1;
            self.cycles += self.costs.l2_hit;
            self.install_l1_mixed(sector, mix, true);
            return;
        }
        if self.l3.access_mixed(sector, mix, true) {
            self.stats.l3_hits += 1;
            self.cycles += self.costs.l3_hit;
            self.install_l1_mixed(sector, mix, true);
            return;
        }

        // Stores write-allocate by default; only *streaming* stores — part
        // of a confirmed sequential store stream, on a core with no active
        // stride-N stream and no dcbtst hint — gather into full sectors
        // and bypass the cache (no read-for-ownership).
        let bypass_allowed = self.policy.store_gather_bypass
            && !self.sw_prefetch_stores
            && !self.prefetch.stride_stream_active()
            && self.prefetch.sequential_stream_at(sector);
        let mut out = std::mem::take(&mut self.scratch_store);
        out.clear();
        self.stores
            .store_miss(lo, hi - lo, bypass_allowed, &mut out);
        self.apply_store_outcomes(&out);
        self.scratch_store = out;
    }

    fn apply_store_outcomes(&mut self, outcomes: &[StoreOutcome]) {
        for &o in outcomes {
            match o {
                StoreOutcome::Buffered => {
                    self.cycles += self.costs.store_buffered;
                }
                StoreOutcome::BypassWrite(s) => {
                    self.stats.bypass_writes += 1;
                    self.mem_write(s);
                }
                StoreOutcome::PartialWrite(s) => {
                    self.stats.rmw_partials += 1;
                    self.mem_read(s, false);
                    self.mem_write(s);
                }
                StoreOutcome::Allocate(s) => {
                    self.stats.store_allocates += 1;
                    // With dcbtst software prefetch the allocate's read is
                    // issued ahead of the store and its latency is hidden
                    // (the -fprefetch-loop-arrays speedup of Fig. 7b);
                    // without it the read-for-ownership is a demand miss.
                    self.mem_read(s, !self.sw_prefetch_stores);
                    let mix = sector_mix(s);
                    // Store-allocated bursts are streaming traffic: insert
                    // at mid-LRU so they cannot flush the read working set.
                    match if self.policy.anti_pollution {
                        self.l3.insert_mid_mixed(s, mix, false)
                    } else {
                        self.l3.insert_mixed(s, mix, false)
                    } {
                        Evicted::None | Evicted::Clean(_) => {}
                        Evicted::Dirty(v) => {
                            self.stats.writebacks += 1;
                            self.mem_write(v);
                        }
                    }
                    self.install_l1_mixed(s, mix, true);
                }
            }
        }
    }

    /// Issue one hardware prefetch for sector `p`.
    #[inline]
    fn prefetch_sector(&mut self, p: u64) {
        let mix = sector_mix(p);
        if self.l1.contains_mixed(p, mix) {
            return;
        }
        // Prefetch promotes resident sectors to L1 (latency hiding,
        // no memory traffic) and fetches the rest from memory.
        if self.l2.access_mixed(p, mix, false) || self.l3.access_mixed(p, mix, false) {
            self.install_l1_mixed(p, mix, false);
            return;
        }
        self.mem_read(p, false);
        self.install_l3_then_l1(p, mix, false);
    }

    /// Put `sector` into L1. Clean victims are dropped (their L3 copy, if
    /// any, stays resident); dirty victims demote to L2.
    fn install_l1_mixed(&mut self, sector: u64, mix: u64, dirty: bool) {
        match self.l1.insert_mixed(sector, mix, dirty) {
            Evicted::None | Evicted::Clean(_) => {}
            Evicted::Dirty(v) => self.demote_dirty_l2(v),
        }
    }

    fn demote_dirty_l2(&mut self, sector: u64) {
        if self.l2.access(sector, true) {
            return;
        }
        match self.l2.insert(sector, true) {
            Evicted::None | Evicted::Clean(_) => {}
            Evicted::Dirty(v) => self.demote_dirty_l3(v),
        }
    }

    fn demote_dirty_l3(&mut self, sector: u64) {
        // A writeback merge is not a use: mark dirty without an LRU
        // refresh so streaming dirty data cannot keep itself resident.
        let present = if self.policy.anti_pollution {
            self.l3.touch_dirty(sector)
        } else {
            self.l3.access(sector, true)
        };
        if present {
            return;
        }
        match if self.policy.anti_pollution {
            self.l3.insert_mid(sector, true)
        } else {
            self.l3.insert(sector, true)
        } {
            Evicted::None | Evicted::Clean(_) => {}
            Evicted::Dirty(v) => {
                self.stats.writebacks += 1;
                self.mem_write(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_core(l3_bytes: u64) -> (CoreSim, Arc<NestCounters>) {
        let nest = Arc::new(NestCounters::new());
        let core = CoreSim::new(
            (4 * 1024, 8),
            (16 * 1024, 8),
            (l3_bytes, 16),
            Arc::clone(&nest),
            AccessCosts::default(),
        );
        (core, nest)
    }

    #[test]
    fn streaming_read_traffic_is_exact() {
        let (mut core, nest) = test_core(1 << 20);
        let bytes = 64 * 1024u64;
        core.load_seq(0, bytes);
        core.fence();
        // Every byte read exactly once; prefetch overshoot past the end is
        // bounded by the prefetch depth.
        let read = nest.total_read();
        assert!(read >= bytes, "read {read} < {bytes}");
        assert!(read <= bytes + 16 * SECTOR_BYTES, "read {read} overshoot");
        assert_eq!(nest.total_write(), 0);
    }

    #[test]
    fn streaming_write_bypasses_cache() {
        let (mut core, nest) = test_core(1 << 20);
        let bytes = 64 * 1024u64;
        // 8-byte sequential stores, like `y[i] = sum`. The first few
        // sectors write-allocate while the stream detector confirms the
        // store stream; everything after gathers and bypasses.
        for i in 0..bytes / 8 {
            core.store(i * 8, 8);
        }
        core.fence();
        let startup = 8 * crate::SECTOR_BYTES;
        assert!(
            nest.total_write() >= bytes - startup,
            "writes {} too low",
            nest.total_write()
        );
        assert!(
            nest.total_read() <= startup,
            "bypass stores must not read: {}",
            nest.total_read()
        );
    }

    #[test]
    fn strided_load_stream_forces_read_per_write() {
        let (mut core, nest) = test_core(1 << 20);
        // Establish a strided load stream (stride 4 sectors).
        for k in 0..64u64 {
            core.load(1 << 30 | (k * 4 * SECTOR_BYTES), 8);
        }
        assert!(core.stride_stream_active());
        core.fence();
        let before = nest.snapshot();
        for i in 0..1024u64 {
            core.store(i * 8, 8);
        }
        core.fence();
        core.flush_caches();
        let d = nest.snapshot().delta(&before);
        // Allocate path: ~8 KiB of RFO reads and ~8 KiB of writebacks.
        assert!(d.total_read() >= 8 * 1024, "reads {}", d.total_read());
        assert!(d.total_write() >= 8 * 1024, "writes {}", d.total_write());
    }

    #[test]
    fn software_prefetch_forces_allocation() {
        let (mut core, nest) = test_core(1 << 20);
        core.set_software_prefetch(true);
        for i in 0..1024u64 {
            core.store(i * 8, 8);
        }
        core.fence();
        core.flush_caches();
        let reads = nest.total_read();
        let writes = nest.total_write();
        assert!(reads >= 8 * 1024, "dcbtst must read the target: {reads}");
        assert!(writes >= 8 * 1024);
    }

    #[test]
    fn cache_hit_generates_no_traffic() {
        let (mut core, nest) = test_core(1 << 20);
        core.load_seq(0, 2048);
        core.fence();
        let before = nest.snapshot();
        core.load_seq(0, 2048); // all hits now
        core.fence();
        let d = nest.snapshot().delta(&before);
        assert_eq!(d.total_read(), 0);
        assert_eq!(d.total_write(), 0);
    }

    #[test]
    fn capacity_exceeded_causes_re_reads() {
        let (mut core, nest) = test_core(64 * 1024); // small L3
        let big = 1 << 20; // 1 MiB working set >> caches
        core.load_seq(0, big);
        core.fence();
        let first = nest.total_read();
        core.load_seq(0, big);
        core.fence();
        let second = nest.total_read() - first;
        // Second sweep must re-read nearly everything.
        assert!(second as f64 > 0.9 * big as f64, "second sweep {second}");
    }

    #[test]
    fn dirty_data_written_back_on_eviction() {
        let (mut core, nest) = test_core(64 * 1024);
        // Allocate-mode stores (software prefetch on) over 1 MiB.
        core.set_software_prefetch(true);
        let big = 1 << 20u64;
        for i in 0..big / 8 {
            core.store(i * 8, 8);
        }
        core.fence();
        // Most dirty sectors must already be evicted + written back.
        let w = nest.total_write();
        assert!(w as f64 > 0.8 * big as f64, "writebacks {w}");
    }

    #[test]
    fn configure_l3_flushes_dirty() {
        let (mut core, nest) = test_core(1 << 20);
        core.set_software_prefetch(true);
        for i in 0..512u64 {
            core.store(i * 8, 8);
        }
        core.fence();
        let before_w = nest.total_write();
        core.flush_caches();
        assert!(nest.total_write() > before_w);
    }

    #[test]
    fn cycles_accumulate_and_misses_cost_more() {
        let (mut core, _c) = test_core(1 << 20);
        core.load_seq(0, 64 * 1024);
        let cold = core.cycles();
        let start = core.cycles();
        core.load_seq(0, 64 * 1024);
        let warm = core.cycles() - start;
        assert!(cold > warm, "cold {cold} <= warm {warm}");
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let (mut core, _c) = test_core(1 << 20);
        core.load_seq(0, 4096);
        core.load_seq(0, 4096);
        let s = core.stats();
        assert!(s.l1_hits > 0);
        assert!(s.demand_misses > 0 || s.prefetch_fills > 0);
        assert_eq!(s.loads, 2 * (4096 / SECTOR_BYTES));
    }

    /// Every entry point reaches the nest counters through the one
    /// publish path: after each call and a fence, every channel holds
    /// exactly `SECTOR_BYTES x` the core's shadow ledger.
    #[test]
    fn every_entry_point_publishes_exactly_its_shadow() {
        type Step = (&'static str, fn(&mut CoreSim));
        let (mut core, nest) = test_core(64 * 1024);
        let steps: [Step; 6] = [
            ("load", |c| {
                (0..4096).for_each(|i| c.load(i * 3 * SECTOR_BYTES, 8))
            }),
            ("load_seq", |c| c.load_seq(1 << 30, 1 << 20)),
            ("store_seq", |c| c.store_seq(2 << 30, 1 << 20)),
            // Strided stores allocate: dirty sectors in every level.
            ("store", |c| {
                (0..2048).for_each(|i| c.store(i * 2 * SECTOR_BYTES, 8))
            }),
            ("configure_l3", |c| c.configure_l3(32 * 1024, 16)),
            ("flush_caches", CoreSim::flush_caches),
        ];
        let mut before = nest.snapshot();
        for (name, step) in steps {
            step(&mut core);
            core.fence();
            let now = nest.snapshot();
            assert_ne!(now, before, "{name} moved nothing");
            for ch in 0..MBA_CHANNELS {
                let shadow = core.shadow();
                assert_eq!(
                    now.read_bytes[ch],
                    SECTOR_BYTES * shadow.reads()[ch],
                    "{name} read"
                );
                assert_eq!(
                    now.write_bytes[ch],
                    SECTOR_BYTES * shadow.writes()[ch],
                    "{name} write"
                );
            }
            before = now;
        }
    }
}

#[cfg(test)]
mod dcbtst_timing_tests {
    use super::*;
    use crate::counters::NestCounters;
    use std::sync::Arc;

    /// Fig. 7b's effect: with dcbtst the allocate path's reads are
    /// prefetches (latency hidden), so the same store trace takes fewer
    /// cycles while moving identical bytes.
    #[test]
    fn software_prefetch_hides_allocate_latency() {
        let run = |sw: bool| {
            let nest = Arc::new(NestCounters::new());
            let mut core = CoreSim::new(
                (4 * 1024, 8),
                (16 * 1024, 8),
                (1 << 20, 16),
                Arc::clone(&nest),
                AccessCosts::default(),
            );
            core.set_software_prefetch(sw);
            // Strided stores: never a sequential stream, always allocate.
            for i in 0..4096u64 {
                core.store(i * 256, 8);
            }
            core.fence();
            (core.cycles(), nest.total_read(), nest.total_write())
        };
        let (cyc_demand, rd_demand, wr_demand) = run(false);
        let (cyc_sw, rd_sw, wr_sw) = run(true);
        assert_eq!(rd_demand, rd_sw, "traffic must not change");
        assert_eq!(wr_demand, wr_sw);
        assert!(
            cyc_sw * 2 < cyc_demand,
            "dcbtst must hide latency: {cyc_sw} vs {cyc_demand}"
        );
    }
}
