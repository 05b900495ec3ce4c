//! Proves the tracer's zero-allocation claim with a counting global
//! allocator: after a thread's ring exists and metrics are registered,
//! recording spans, instants, counters and histogram samples performs
//! no heap allocation at all.
//!
//! A ring starts as one small block and doubles when it is really full,
//! so growth allocates at most log2(8192 / first block) = 7 times per
//! ring — in `Ring::grow` (`crates/obs/src/trace.rs`), the producer's
//! cold path — and never again once the ring is at its ceiling. The
//! warm-up floods this thread's ring to that ceiling, so the measured
//! loop sees the steady state whatever it records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Single test on purpose: a sibling test allocating on another thread
/// would make the counter assertion meaningless.
#[test]
fn steady_state_recording_does_not_allocate() {
    // Startup: ring creation and growth to the ceiling, metric
    // registration, calibration — all allocation happens here, once.
    {
        let _span = obs::span!("noalloc.warmup");
        for _ in 0..=obs::trace::RING_CAPACITY {
            obs::instant!("noalloc.warmup_instant");
        }
    }
    // Metric names must be catalogued in METRICS.md; any two will do.
    obs::counter!("wire.debug.requests").inc();
    obs::histogram!("store.query.latency_ns").record(1);
    let _ = obs::clock::calibration();
    drop(obs::drain());

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    for i in 0..100_000u64 {
        let _span = obs::span!("noalloc.steady", i);
        obs::instant!("noalloc.steady_instant", i);
        obs::counter!("wire.debug.requests").inc();
        obs::histogram!("store.query.latency_ns").record(i & 0xFFFF);
    }
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state recording allocated {} times",
        after - before
    );

    // The records really were written (ring capacity worth of them,
    // rest counted as drops), and draining works afterwards.
    assert!(obs::dropped_records() > 0);
    let events = obs::drain();
    assert!(events.iter().any(|e| e.label == "noalloc.steady"));
    assert_eq!(
        obs::registry()
            .export()
            .iter()
            .find(|e| e.name == "wire.debug.requests")
            .expect("counter exported")
            .value,
        100_001
    );
}
