//! The store keeps every sealed byte once: a sealed chunk is a view into
//! its segment file, so the heap a flushed or compacted store holds is
//! its files plus a small per-chunk index, not the files plus a second
//! copy of every chunk. Measured with a counting global allocator
//! (live bytes requested, not RSS), so it repeats exactly.
//!
//! The shape is the benchmark's `store_rw`: 16 counter series × 500 000
//! samples at 1 ms, default config, seeded increments below 4096.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use obs::metrics::ExportSemantics;
use store::{SeriesKey, Store, StoreConfig};

struct CountingAllocator;

/// Bytes allocated and not yet freed, and the most there ever were.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call is forwarded unchanged to `System`, which meets
// the `GlobalAlloc` contract; the counters only observe the sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: our caller upholds this method's contract, which is `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: our caller upholds this method's contract, which is `System`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: our caller upholds this method's contract, which is `System`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: our caller upholds this method's contract, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const SERIES: usize = 16;
const SAMPLES: usize = 500_000;
const CADENCE_NS: u64 = 1_000_000;
/// Heap allowed per byte of segment file.
const BOUND: f64 = 1.5;

fn live() -> usize {
    LIVE.load(Ordering::SeqCst)
}

/// Single test on purpose: a sibling test allocating on another thread
/// would make the byte counts meaningless.
#[test]
fn the_store_holds_its_segment_bytes_once() {
    // Inputs first, so the baseline below already holds them.
    let keys: Vec<SeriesKey> = (0..SERIES)
        .map(|s| {
            SeriesKey::new(format!("mba.ch{}.bytes", s % 8)).with_label("host", format!("h{s}"))
        })
        .collect();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let deltas: Vec<Vec<u16>> = (0..SERIES)
        .map(|_| {
            (0..SAMPLES)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    (rng % 4096) as u16
                })
                .collect()
        })
        .collect();
    let mut values = [0u64; SERIES];

    let baseline = live();
    let store = Store::new(StoreConfig::default());
    for i in 0..SAMPLES {
        let t_ns = (i as u64 + 1) * CADENCE_NS;
        for ((key, series), value) in keys.iter().zip(&deltas).zip(&mut values) {
            *value += u64::from(series[i]);
            store
                .ingest(key, ExportSemantics::Counter, t_ns, *value)
                .expect("in-order ingest");
        }
    }
    store.flush().expect("flush");
    let total = (SERIES * SAMPLES) as u64;
    assert_eq!(store.sample_count(), total);

    let files_flushed = store.fs().live_bytes() as f64;
    let heap_flushed = (live() - baseline) as f64;
    PEAK.store(live(), Ordering::SeqCst);
    store.compact(u64::MAX).expect("compact");
    let heap_peak = (PEAK.load(Ordering::SeqCst) - baseline) as f64;
    let files_compacted = store.fs().live_bytes() as f64;
    let heap_compacted = (live() - baseline) as f64;
    assert_eq!(store.sample_count(), total);

    let flushed = heap_flushed / files_flushed;
    let compacted = heap_compacted / files_compacted;
    let peak = heap_peak / (files_flushed + files_compacted);
    let mib = |b: f64| b / f64::from(1u32 << 20);
    eprintln!(
        "store heap (MiB) / segment files (MiB): after flush {:.1} / {:.1} ({flushed:.2}x), \
         after compact {:.1} / {:.1} ({compacted:.2}x), compact peak {:.1} ({peak:.2}x of both)",
        mib(heap_flushed),
        mib(files_flushed),
        mib(heap_compacted),
        mib(files_compacted),
        mib(heap_peak),
    );
    assert!(
        flushed <= BOUND,
        "after flush the store holds {heap_flushed} B for {files_flushed} B of files ({flushed:.2}x)"
    );
    assert!(
        compacted <= BOUND,
        "after compact the store holds {heap_compacted} B for {files_compacted} B of files \
         ({compacted:.2}x)"
    );
    assert!(
        peak <= BOUND,
        "compact peaked at {heap_peak} B over {files_flushed} + {files_compacted} B of files \
         ({peak:.2}x)"
    );
}
