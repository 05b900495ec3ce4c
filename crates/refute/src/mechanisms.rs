//! The mechanism catalog: nine micro-kernels, each with a closed-form
//! per-channel traffic prediction derived from memsim's documented
//! semantics (DESIGN.md §15 walks through every model below).
//!
//! Shared facts the models lean on:
//! - sectors are 64 B and interleave over 8 channels (`channel = sector % 8`);
//! - regions are 64 KiB aligned, so every region starts on channel 0;
//! - the stream prefetcher needs 3 confirmations, runs 8 sectors ahead,
//!   and never adopts deltas beyond 1 MiB (16384 sectors);
//! - a quiet machine means the measurement window contains *only* the
//!   kernel's traffic (no noise, no measurement footprint, and a daemon
//!   fetch touches no memory).

use p9_memsim::counters::Direction;
use p9_memsim::{ModelPolicy, SimMachine, SECTOR_BYTES};

use crate::{sector_range_bytes, Band, Mechanism, Prepared, Traffic, CHANNELS};

/// Sectors the stream prefetcher overshoots past the end of a confirmed
/// unit-stride stream (= its lookahead depth).
const PREFETCH_DEPTH: u64 = 8;
/// Demand accesses a stream needs before the prefetcher confirms it.
const CONFIRMATIONS: u64 = 3;

// Footprints. Chosen so single-core runs fit the ~110 MiB effective L3
// (no capacity evictions unless a mechanism engineers them) while staying
// large enough that one mispredicted sector is far outside any band.
// The chase step must defeat the prefetcher's closest-candidate adoption
// against *all 16 slots*, i.e. every delta to each of the 16 preceding
// accesses must exceed the max adoptable stride (16384 sectors). With
// n = 393216 sectors and s = 20483, s*k for k = 1..=16 stays in
// (16384, n - 16384) without wrapping, so both signed wrap variants of
// every look-back delta are out of range.
const CHASE_BYTES: u64 = 24 << 20;
const CHASE_STEP: u64 = 20483;
const STREAM_BYTES: u64 = 4 << 20;
const LADDER_ACCESSES: u64 = 16384;
const LADDER_STRIDE_SECTORS: u64 = 8;
const STORE_BYTES: u64 = 4 << 20;
const WA_STORES: u64 = 8192;
const WA_STRIDE_SECTORS: u64 = 2;
const DCBTST_BYTES: u64 = 4 << 20;
const PRESSURE_ACTIVE: usize = 21;
const DMA_READ_BYTES: u64 = 6 << 20;
const DMA_WRITE_BYTES: u64 = 2 << 20;
const DMA_CORE_BYTES: u64 = 1 << 20;

fn first_sector(base: u64) -> u64 {
    base / SECTOR_BYTES
}

/// Mechanism 1 — Pointer chase: visit every sector of a 24 MiB region exactly once
/// in a permuted order whose distance to each of the 16 preceding
/// accesses exceeds the prefetcher's max adoptable stride — so *zero*
/// prefetches may fire and traffic is exactly one demand read per sector.
fn prep_pointer_chase(m: &mut SimMachine) -> Prepared {
    let region = m.alloc(CHASE_BYTES);
    let base = region.base();
    let n = CHASE_BYTES / SECTOR_BYTES;
    // gcd(CHASE_STEP, n) == 1 (n = 3 * 2^17; the step is odd and not a
    // multiple of 3), so i * step mod n enumerates every sector once.
    let prediction = Traffic {
        reads: sector_range_bytes(first_sector(base), n),
        writes: [0; CHANNELS],
    };
    Prepared {
        prediction,
        kernel: Box::new(move |m| {
            m.run_single(0, |core| {
                for i in 0..n {
                    let j = (i * CHASE_STEP) % n;
                    core.load(base + j * SECTOR_BYTES, 8);
                }
            });
        }),
    }
}

/// Mechanism 2 — Unit-stride streaming load: a sequential 4 MiB sweep trains the
/// stream prefetcher, which then runs exactly `PREFETCH_DEPTH` sectors
/// ahead — total reads are the region plus an 8-sector overshoot.
fn prep_unit_stride(m: &mut SimMachine) -> Prepared {
    let region = m.alloc(STREAM_BYTES);
    let base = region.base();
    let n = STREAM_BYTES / SECTOR_BYTES;
    let prediction = Traffic {
        reads: sector_range_bytes(first_sector(base), n + PREFETCH_DEPTH),
        writes: [0; CHANNELS],
    };
    Prepared {
        prediction,
        kernel: Box::new(move |m| {
            m.run_single(0, |core| core.load_seq(base, STREAM_BYTES));
        }),
    }
}

/// Mechanism 3 — Stride ladder: 16384 loads at a constant 8-sector stride land every
/// access — and every prefetch along the confirmed stride — on a single
/// channel (stride ≡ 0 mod 8), concentrating (n + 8) sectors there.
fn prep_stride_ladder(m: &mut SimMachine) -> Prepared {
    let span = LADDER_ACCESSES * LADDER_STRIDE_SECTORS * SECTOR_BYTES;
    let region = m.alloc(span);
    let base = region.base();
    let ch = (first_sector(base) % CHANNELS as u64) as usize;
    let mut reads = [0u64; CHANNELS];
    reads[ch] = (LADDER_ACCESSES + PREFETCH_DEPTH) * SECTOR_BYTES;
    let prediction = Traffic {
        reads,
        writes: [0; CHANNELS],
    };
    Prepared {
        prediction,
        kernel: Box::new(move |m| {
            m.run_single(0, |core| {
                for i in 0..LADDER_ACCESSES {
                    core.load(base + i * LADDER_STRIDE_SECTORS * SECTOR_BYTES, 8);
                }
            });
        }),
    }
}

/// Mechanism 4 — Streaming store with gather-bypass: a sequential full-sector store
/// sweep write-allocates only its first `CONFIRMATIONS` sectors (RFO
/// reads); from the confirming access onward stores bypass the cache.
/// After a flush every sector has been written exactly once.
fn prep_stream_store_bypass(m: &mut SimMachine) -> Prepared {
    let region = m.alloc(STORE_BYTES);
    let base = region.base();
    let n = STORE_BYTES / SECTOR_BYTES;
    let fs = first_sector(base);
    let mut reads = [0u64; CHANNELS];
    for k in 0..CONFIRMATIONS {
        reads[((fs + k) % CHANNELS as u64) as usize] += SECTOR_BYTES;
    }
    let prediction = Traffic {
        reads,
        writes: sector_range_bytes(fs, n),
    };
    Prepared {
        prediction,
        kernel: Box::new(move |m| {
            m.run_single(0, |core| {
                core.store_seq(base, STORE_BYTES);
                core.flush_caches();
            });
        }),
    }
}

/// Mechanism 5 — Write-allocate: partial stores at a 2-sector stride never look
/// sequential, so every store misses, RFO-reads its sector, dirties it,
/// and the flush writes it back — reads equal writes, confined to the
/// even channels.
fn prep_write_allocate(m: &mut SimMachine) -> Prepared {
    let span = WA_STORES * WA_STRIDE_SECTORS * SECTOR_BYTES;
    let region = m.alloc(span);
    let base = region.base();
    let fs = first_sector(base);
    let mut touched = [0u64; CHANNELS];
    for i in 0..WA_STORES {
        let s = fs + i * WA_STRIDE_SECTORS;
        touched[(s % CHANNELS as u64) as usize] += SECTOR_BYTES;
    }
    let prediction = Traffic {
        reads: touched,
        writes: touched,
    };
    Prepared {
        prediction,
        kernel: Box::new(move |m| {
            m.run_single(0, |core| {
                for i in 0..WA_STORES {
                    core.store(base + i * WA_STRIDE_SECTORS * SECTOR_BYTES, 8);
                }
                core.flush_caches();
            });
        }),
    }
}

/// Mechanism 6 — dcbtst-style software-prefetched stores: with store prefetch hints
/// active the gather-bypass is disqualified, so even a perfectly
/// sequential store sweep write-allocates every sector — reads equal
/// writes over the whole region, unlike mechanism 4.
fn prep_dcbtst_allocate(m: &mut SimMachine) -> Prepared {
    m.set_software_prefetch(0, true);
    let region = m.alloc(DCBTST_BYTES);
    let base = region.base();
    let n = DCBTST_BYTES / SECTOR_BYTES;
    let per_channel = sector_range_bytes(first_sector(base), n);
    let prediction = Traffic {
        reads: per_channel,
        writes: per_channel,
    };
    Prepared {
        prediction,
        kernel: Box::new(move |m| {
            m.run_single(0, |core| {
                core.store_seq(base, DCBTST_BYTES);
                core.flush_caches();
            });
        }),
    }
}

/// Mechanism 7 — Prefetch off: the same sequential sweep as mechanism 2 with the
/// hardware prefetcher disabled reads exactly the region — no overshoot.
/// Paired with mechanism 2 this pins the overshoot to the prefetcher.
fn prep_prefetch_off(m: &mut SimMachine) -> Prepared {
    m.set_policy(
        0,
        ModelPolicy {
            hw_prefetch: false,
            ..ModelPolicy::default()
        },
    );
    let region = m.alloc(STREAM_BYTES);
    let base = region.base();
    let n = STREAM_BYTES / SECTOR_BYTES;
    let prediction = Traffic {
        reads: sector_range_bytes(first_sector(base), n),
        writes: [0; CHANNELS],
    };
    Prepared {
        prediction,
        kernel: Box::new(move |m| {
            m.run_single(0, |core| core.load_seq(base, STREAM_BYTES));
        }),
    }
}

/// Mechanism 8 — Slice-borrowing cache pressure: with 21 active cores the measuring
/// core's L3 share shrinks to total/21; sweeping a footprint of 3x that
/// share twice forces the second sweep to miss (almost) everywhere, so
/// traffic is twice a single cold sweep. The hashed set index makes
/// capacity eviction statistical rather than enumerable, hence the only
/// non-exact band in the catalog (1%).
fn prep_slice_pressure(m: &mut SimMachine) -> Prepared {
    let share = m.l3_share(0, PRESSURE_ACTIVE);
    // Round to a whole number of channel stripes (512 B = one sector per
    // channel) so the per-channel split stays exact.
    let sweep = (3 * share).div_ceil(512) * 512;
    let region = m.alloc(sweep);
    let base = region.base();
    let n = sweep / SECTOR_BYTES;
    let once = sector_range_bytes(first_sector(base), n + PREFETCH_DEPTH);
    let mut reads = [0u64; CHANNELS];
    for ch in 0..CHANNELS {
        reads[ch] = 2 * once[ch];
    }
    let prediction = Traffic {
        reads,
        writes: [0; CHANNELS],
    };
    Prepared {
        prediction,
        kernel: Box::new(move |m| {
            m.run_parallel(0, PRESSURE_ACTIVE, |tid, core| {
                if tid == 0 {
                    core.load_seq(base, sweep);
                    core.load_seq(base, sweep);
                }
            });
        }),
    }
}

/// Mechanism 9 — DMA/bulk mix: device DMA traffic is accounted in bulk, split evenly
/// across channels in 512 B stripes, and must add linearly to concurrent
/// core traffic (prefetch disabled so the core term is exact).
fn prep_dma_bulk(m: &mut SimMachine) -> Prepared {
    m.set_policy(
        0,
        ModelPolicy {
            hw_prefetch: false,
            ..ModelPolicy::default()
        },
    );
    let region = m.alloc(DMA_CORE_BYTES);
    let base = region.base();
    let n = DMA_CORE_BYTES / SECTOR_BYTES;
    let core_reads = sector_range_bytes(first_sector(base), n);
    let mut reads = [0u64; CHANNELS];
    let mut writes = [0u64; CHANNELS];
    for ch in 0..CHANNELS {
        // Both DMA sizes are multiples of 512 B, so the bulk split is an
        // exact division with no remainder sectors.
        reads[ch] = DMA_READ_BYTES / CHANNELS as u64 + core_reads[ch];
        writes[ch] = DMA_WRITE_BYTES / CHANNELS as u64;
    }
    let prediction = Traffic { reads, writes };
    Prepared {
        prediction,
        kernel: Box::new(move |m| {
            let shared = m.socket_shared(0);
            shared.record_dma(DMA_READ_BYTES, Direction::Read);
            shared.record_dma(DMA_WRITE_BYTES, Direction::Write);
            m.run_single(0, |core| core.load_seq(base, DMA_CORE_BYTES));
        }),
    }
}

/// Every refutable mechanism, in catalog order. The `refute` repro
/// experiment iterates this slice; goldens key on `Mechanism::name`.
pub const CATALOG: &[Mechanism] = &[
    Mechanism {
        name: "pointer_chase",
        model: "each of 393216 sectors visited once in a permuted order keeping all 16 look-back deltas beyond max prefetch stride so reads = footprint exactly and writes = 0",
        band: Band::exact(),
        prepare: prep_pointer_chase,
    },
    Mechanism {
        name: "unit_stride",
        model: "sequential 4 MiB sweep reads region plus 8-sector prefetch overshoot; writes = 0",
        band: Band::exact(),
        prepare: prep_unit_stride,
    },
    Mechanism {
        name: "stride_ladder",
        model: "16384 loads at 8-sector stride pin (n + 8) sectors onto one channel; other channels silent",
        band: Band::exact(),
        prepare: prep_stride_ladder,
    },
    Mechanism {
        name: "stream_store_bypass",
        model: "sequential stores bypass after 3 confirmations: reads = 3 startup RFO sectors; writes = region exactly once",
        band: Band::exact(),
        prepare: prep_stream_store_bypass,
    },
    Mechanism {
        name: "write_allocate",
        model: "strided partial stores never bypass: every store RFO-reads and later writes back its sector on even channels only",
        band: Band::exact(),
        prepare: prep_write_allocate,
    },
    Mechanism {
        name: "dcbtst_allocate",
        model: "software store-prefetch disqualifies gather-bypass: sequential store sweep write-allocates everything so reads = writes = region",
        band: Band::exact(),
        prepare: prep_dcbtst_allocate,
    },
    Mechanism {
        name: "prefetch_off",
        model: "hw_prefetch=false removes the overshoot: sequential sweep reads exactly the region",
        band: Band::exact(),
        prepare: prep_prefetch_off,
    },
    Mechanism {
        name: "slice_pressure",
        model: "21 active cores shrink the L3 share; double sweep of 3x share costs two cold sweeps (1% band for hashed-set eviction statistics)",
        band: Band {
            rel: 0.01,
            abs_bytes: 4096,
        },
        prepare: prep_slice_pressure,
    },
    Mechanism {
        name: "dma_bulk",
        model: "bulk DMA splits evenly over 8 channels in 512 B stripes and adds linearly to unprefetched core reads",
        band: Band::exact(),
        prepare: prep_dma_bulk,
    },
];
