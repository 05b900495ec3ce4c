//! The zero-allocation span/event tracer.
//!
//! Every thread that records leases one ring of `Copy` records on its
//! first record and returns it to a free pool at thread exit, so
//! short-lived threads (scoped workers, request handlers) recycle
//! page-warm rings and the ring count is bounded by the peak number of
//! *concurrent* recorders. A ring costs what its thread records: it
//! starts as one `FIRST_BLOCK`-record block and doubles, on the
//! producer's cold path, only when it is really full — up to
//! [`RING_CAPACITY`], where new records are dropped and counted rather
//! than blocking. Ring creation (pool empty) and those at most
//! log2(`RING_CAPACITY` / `FIRST_BLOCK`) doublings are the only
//! allocations the tracer ever performs. Recording is a couple of
//! `rdtsc` reads plus an SPSC ring push: no locks, no heap, no
//! formatting.
//!
//! Draining ([`drain`]) walks every registered ring under a registry
//! lock (drains are serialized; recording proceeds concurrently),
//! converts raw ticks to nanoseconds via [`crate::clock::calibration`],
//! and returns time-sorted [`SpanEvent`]s ready for the exporters.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock;
use crate::sync::{Mutex, Rank};

/// Records in a ring's first block: 64 × 48-byte records = 3 KiB, what
/// a thread that records a handful of spans between drains (a fleet
/// host server) ever owns. Power of two, like every later size.
const FIRST_BLOCK: usize = 64;

/// Ceiling a ring doubles up to: 8192 × 48-byte records ≈ 384 KiB for a
/// thread that really records that much between drains. Beyond it new
/// records are dropped and counted.
pub const RING_CAPACITY: usize = 8192;

/// What a record represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A duration: entered at `start`, lasted `dur`.
    Span,
    /// A point event: `dur` is zero.
    Instant,
}

/// One fixed-size trace record as stored in the ring (raw ticks).
#[derive(Clone, Copy, Debug)]
struct Record {
    label: &'static str,
    start_ticks: u64,
    dur_ticks: u64,
    arg: u64,
    kind: Kind,
}

const EMPTY_RECORD: Record = Record {
    label: "",
    start_ticks: 0,
    dur_ticks: 0,
    arg: 0,
    kind: Kind::Instant,
};

/// A drained trace record with calibrated nanosecond timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static label given at the recording site.
    pub label: &'static str,
    /// Tracer-assigned thread id (1-based, in thread registration order).
    pub tid: u64,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (zero for [`Kind::Instant`]).
    pub dur_ns: u64,
    /// Free-form argument supplied at the recording site.
    pub arg: u64,
    /// Span or instant.
    pub kind: Kind,
}

/// SPSC ring: the owning thread is the only producer; drains (any
/// thread) are serialized by the ring-registry lock.
struct Ring {
    tid: u64,
    /// The current block; its length is the ring's capacity (a power of
    /// two, so the index is a mask). Replaced only by the producer in
    /// [`Ring::grow`], under the ring-registry lock.
    slots: UnsafeCell<Box<[UnsafeCell<Record>]>>,
    /// Records published by the producer.
    head: AtomicU64,
    /// Records consumed by the drainer.
    tail: AtomicU64,
    /// Producer's cached copy of `tail`, refreshed only when the ring
    /// looks full — the common-case push does no acquire load. Touched
    /// only by the owning thread.
    cached_tail: Cell<u64>,
    /// Records rejected because the ring was full.
    dropped: AtomicU64,
}

// SAFETY: slot access is disciplined — the producer writes only slots in
// [tail, tail+capacity) before releasing `head`; the drainer reads only
// slots in [tail, head) after acquiring `head`. The indices never alias.
// `cached_tail` is read and written only by the producer thread. The
// block itself is swapped only by the producer while it holds the
// ring-registry lock, and the drainer dereferences it only under that
// same lock, so neither side ever sees a block the other is replacing.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

fn new_block(capacity: usize) -> Box<[UnsafeCell<Record>]> {
    (0..capacity)
        .map(|_| UnsafeCell::new(EMPTY_RECORD))
        .collect()
}

impl Ring {
    fn new(tid: u64) -> Self {
        Ring {
            tid,
            slots: UnsafeCell::new(new_block(FIRST_BLOCK)),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            cached_tail: Cell::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer side; called only from the owning thread.
    #[inline]
    fn push(&self, rec: Record) {
        // relaxed-ok: head is written only by this thread (SPSC).
        let head = self.head.load(Ordering::Relaxed);
        // SAFETY: only this thread replaces the block (in `grow`, below),
        // so a shared borrow here cannot overlap a replacement.
        let mut slots: &[UnsafeCell<Record>] = unsafe { &*self.slots.get() };
        let mut tail = self.cached_tail.get();
        if head.wrapping_sub(tail) >= slots.len() as u64 {
            // Looks full against the cached tail: refresh from the real
            // consumer index before concluding the ring is actually full.
            tail = self.tail.load(Ordering::Acquire);
            self.cached_tail.set(tail);
            if head.wrapping_sub(tail) >= slots.len() as u64 {
                if slots.len() >= RING_CAPACITY {
                    // Full at the ceiling: drop-new keeps the oldest
                    // records, which preserves the enclosing-span
                    // structure exporters reconstruct.
                    // relaxed-ok: monotonic tally, read only at drain/report time.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                slots = self.grow(head);
            }
        }
        let idx = (head as usize) & (slots.len() - 1);
        // SAFETY: slot `idx` is outside [tail, head), so no concurrent
        // drain reads it; only this thread writes the ring.
        unsafe {
            *slots[idx].get() = rec;
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Producer side, really full below the ceiling: double the block.
    /// Holding the ring-registry lock excludes [`Ring::drain_into`], so
    /// `tail` stands still and nobody else is looking at the old block
    /// while the live `[tail, head)` records move to their slots in the
    /// new one. The only allocation after ring creation, at most
    /// log2(`RING_CAPACITY` / `FIRST_BLOCK`) times per ring.
    #[cold]
    fn grow(&self, head: u64) -> &[UnsafeCell<Record>] {
        let _no_drain = RINGS.lock();
        let tail = self.tail.load(Ordering::Acquire);
        self.cached_tail.set(tail);
        // SAFETY: this is the producer thread, which holds no other
        // borrow of the block (`push` re-derives its slice from the
        // return value), and the lock keeps the drainer out.
        let slots = unsafe { &mut *self.slots.get() };
        let mut grown = new_block(slots.len() * 2);
        let mut at = tail;
        while at != head {
            let to = (at as usize) & (grown.len() - 1);
            *grown[to].get_mut() = *slots[(at as usize) & (slots.len() - 1)].get_mut();
            at = at.wrapping_add(1);
        }
        *slots = grown;
        slots
    }

    /// Drain side; callers hold the ring-registry lock.
    fn drain_into(&self, out: &mut Vec<(u64, Record)>) {
        let head = self.head.load(Ordering::Acquire);
        // relaxed-ok: tail is written only under the registry lock the
        // caller holds; the producer only Acquire-loads it.
        let mut tail = self.tail.load(Ordering::Relaxed);
        // SAFETY: the block is replaced only under the registry lock the
        // caller holds.
        let slots: &[UnsafeCell<Record>] = unsafe { &*self.slots.get() };
        while tail != head {
            let idx = (tail as usize) & (slots.len() - 1);
            // SAFETY: slots in [tail, head) were published by the
            // Release store of `head` matched by the Acquire load above.
            out.push((self.tid, unsafe { *slots[idx].get() }));
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
    }
}

/// Free rings, returned by exited threads.
static RING_POOL: Mutex<Vec<Arc<Ring>>> = Mutex::new(Rank::OBS_RING_POOL, Vec::new());

/// Every ring ever created. Held for a push (registration), a walk of
/// the rings (drain) or one ring's block swap (growth) — which is what
/// keeps drains and growth apart.
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Rank::OBS_RINGS, Vec::new());

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Cached raw pointer to this thread's leased ring: null until the
    /// thread's first record. Const-init and `Drop`-free so every access
    /// compiles to a bare TLS load with no lazy-init or destructor
    /// bookkeeping on the hot path. The pointee is owned by the registry,
    /// which never removes rings, so the pointer stays valid for the
    /// process lifetime.
    static TL_RING: Cell<*const Ring> = const { Cell::new(std::ptr::null()) };

    /// The lease that backs `TL_RING`: keeps the pool informed. Its
    /// destructor runs at thread exit and returns the ring to the free
    /// pool, so short-lived threads (per-pass scoped workers, request
    /// handlers) recycle page-warm rings instead of growing the registry
    /// by one ring per thread forever.
    static TL_LEASE: Cell<Option<RingLease>> = const { Cell::new(None) };
}

/// Exclusive claim on one ring: exactly one live lease per ring, so the
/// SPSC producer role transfers cleanly from an exited thread to the
/// next leaser (the pool mutex orders the handoff).
struct RingLease(Arc<Ring>);

impl Drop for RingLease {
    fn drop(&mut self) {
        // The cell is const-init without a destructor, so it is still
        // accessible while other TLS destructors (this one) run.
        let _ = TL_RING.try_with(|cell| cell.set(std::ptr::null()));
        RING_POOL.lock().push(Arc::clone(&self.0));
    }
}

/// Lease a ring for the current thread and cache its pointer: reuse a
/// pooled ring from an exited thread if one is free, otherwise allocate
/// and register a new one.
#[cold]
fn register_ring(cell: &Cell<*const Ring>) -> *const Ring {
    clock::ensure_epoch();
    let pooled = RING_POOL.lock().pop();
    let ring = pooled.unwrap_or_else(|| {
        // relaxed-ok: unique-id handout, no ordering with other data.
        let ring = Arc::new(Ring::new(NEXT_TID.fetch_add(1, Ordering::Relaxed)));
        RINGS.lock().push(Arc::clone(&ring));
        ring
    });
    let ptr = Arc::as_ptr(&ring);
    cell.set(ptr);
    // Install the lease last; if TLS destruction is already past this
    // slot the lease drops immediately, returning the ring and clearing
    // the cell again — records that late are simply dropped.
    let _ = TL_LEASE.try_with(|lease| lease.set(Some(RingLease(ring))));
    ptr
}

/// Record through the thread-local ring. `try_with` so a record arriving
/// after the TLS slot is gone is silently dropped instead of aborting.
#[inline]
fn record(rec: Record) {
    let _ = TL_RING.try_with(|cell| {
        let mut ring = cell.get();
        if ring.is_null() {
            ring = register_ring(cell);
        }
        // SAFETY: the registry holds the owning `Arc` and never removes
        // rings, so a cached pointer is valid for the process lifetime;
        // the lease guarantees this thread is the only producer.
        unsafe { (*ring).push(rec) }
    });
}

/// RAII span: captures the start timestamp on construction and pushes
/// one complete record when dropped. Construction and drop each cost
/// one timestamp read; the drop adds one ring push.
#[must_use = "binding the guard to a name keeps the span open for the scope"]
pub struct SpanGuard {
    label: &'static str,
    arg: u64,
    start_ticks: u64,
}

impl SpanGuard {
    /// Open a span with no argument.
    #[inline]
    pub fn new(label: &'static str) -> Self {
        Self::with_arg(label, 0)
    }

    /// Open a span carrying a `u64` argument (shown in exporters).
    #[inline]
    pub fn with_arg(label: &'static str, arg: u64) -> Self {
        SpanGuard {
            label,
            arg,
            start_ticks: clock::now_ticks(),
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let end = clock::now_ticks();
        record(Record {
            label: self.label,
            start_ticks: self.start_ticks,
            dur_ticks: end.saturating_sub(self.start_ticks),
            arg: self.arg,
            kind: Kind::Span,
        });
    }
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Hand out a process-unique, non-zero trace id. Wire clients stamp
/// fetch PDUs with one so client and server spans stitch into a single
/// causally-linked trace (see [`crate::stitch`]); zero on the wire
/// means "not traced".
#[inline]
pub fn next_trace_id() -> u64 {
    // relaxed-ok: unique-id handout, no ordering with other data.
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Record a point event (used by the `instant!` macro).
#[inline]
pub fn instant_event(label: &'static str, arg: u64) {
    record(Record {
        label,
        start_ticks: clock::now_ticks(),
        dur_ticks: 0,
        arg,
        kind: Kind::Instant,
    });
}

/// Drain every ring into time-sorted events with calibrated nanosecond
/// timestamps. Concurrent recording continues unharmed; concurrent
/// drains serialize on the registry lock. Records pushed while the
/// drain runs may land in this drain or the next.
pub fn drain() -> Vec<SpanEvent> {
    let cal = clock::calibration();
    let mut raw: Vec<(u64, Record)> = Vec::new();
    {
        let rings = RINGS.lock();
        for ring in rings.iter() {
            ring.drain_into(&mut raw);
        }
    }
    let mut out: Vec<SpanEvent> = raw
        .into_iter()
        .map(|(tid, rec)| SpanEvent {
            label: rec.label,
            tid,
            start_ns: cal.ticks_to_ns(rec.start_ticks),
            dur_ns: cal.delta_ns(rec.dur_ticks),
            arg: rec.arg,
            kind: rec.kind,
        })
        .collect();
    out.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    out
}

/// Total records dropped (rings full) since startup, across all threads.
pub fn dropped_records() -> u64 {
    let rings = RINGS.lock();
    rings
        .iter()
        // relaxed-ok: monotonic tally read for reporting only.
        .map(|r| r.dropped.load(Ordering::Relaxed))
        .sum()
}

/// Number of threads that have recorded at least once.
pub fn ring_count() -> usize {
    RINGS.lock().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    // Test-private locks (serialising tests, parking the drainer) sit
    // outside the ranked order.
    use std::sync::Mutex;

    /// The rings and drain are process-global; tests that record and
    /// then drain must not interleave or they steal each other's events.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    impl Ring {
        fn capacity(&self) -> usize {
            // SAFETY: called by the ring's producer, or with it parked.
            unsafe { &*self.slots.get() }.len()
        }

        /// What [`drain`] does to one ring: `drain_into` under the
        /// registry lock.
        fn drain_locked(&self, out: &mut Vec<(u64, Record)>) {
            let _rings = RINGS.lock();
            self.drain_into(out);
        }
    }

    fn numbered(arg: u64) -> Record {
        Record {
            arg,
            ..EMPTY_RECORD
        }
    }

    #[test]
    fn span_guard_records_duration() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        const SPIN_TICKS: u64 = 200_000;
        {
            let _span = SpanGuard::with_arg("test.trace.outer", 7);
            let entered = clock::now_ticks();
            while clock::now_ticks().wrapping_sub(entered) < SPIN_TICKS {
                std::hint::spin_loop();
            }
            let _inner = SpanGuard::new("test.trace.inner");
        }
        instant_event("test.trace.marker", 42);
        let events = drain();
        let outer = events
            .iter()
            .find(|e| e.label == "test.trace.outer")
            .expect("outer span drained");
        assert_eq!(outer.kind, Kind::Span);
        assert_eq!(outer.arg, 7);
        let spun_ns = clock::calibration().delta_ns(SPIN_TICKS);
        assert!(
            outer.dur_ns >= spun_ns,
            "outer dur {} ns does not cover the {spun_ns} ns spun inside it",
            outer.dur_ns
        );
        let inner = events
            .iter()
            .find(|e| e.label == "test.trace.inner")
            .expect("inner span drained");
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.dur_ns <= outer.dur_ns);
        let marker = events
            .iter()
            .find(|e| e.label == "test.trace.marker")
            .expect("instant drained");
        assert_eq!(marker.kind, Kind::Instant);
        assert_eq!(marker.arg, 42);
        assert_eq!(marker.dur_ns, 0);
    }

    #[test]
    fn full_ring_drops_new_records_and_counts_them() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = drain();
        let before = dropped_records();
        for i in 0..(RING_CAPACITY as u64 + 500) {
            instant_event("test.trace.flood", i);
        }
        let after = dropped_records();
        assert!(
            after - before >= 400,
            "expected ≥400 new drops, got {}",
            after - before
        );
        let events = drain();
        let flood: Vec<_> = events
            .iter()
            .filter(|e| e.label == "test.trace.flood")
            .collect();
        assert!(flood.len() <= RING_CAPACITY);
        // Drop-new policy: the *oldest* records survive.
        assert!(flood.iter().any(|e| e.arg == 0));
        // The flood took this thread's ring to the ceiling, not past it.
        let ring = TL_RING.with(|cell| cell.get());
        // SAFETY: the registry keeps every leased ring alive.
        assert_eq!(unsafe { (*ring).capacity() }, RING_CAPACITY);
    }

    #[test]
    fn a_ring_drained_before_it_fills_stays_one_block() {
        // The fleet host-server shape: a few spans, then the pass drains.
        let ring = Ring::new(0);
        let mut out = Vec::new();
        for _round in 0..1000 {
            for i in 0..(FIRST_BLOCK as u64 - 1) {
                ring.push(numbered(i));
            }
            ring.drain_locked(&mut out);
        }
        assert_eq!(ring.capacity(), FIRST_BLOCK);
        assert_eq!(out.len(), 1000 * (FIRST_BLOCK - 1));
        assert_eq!(ring.dropped.load(Ordering::Acquire), 0);
    }

    #[test]
    fn growth_under_concurrent_drains_keeps_every_record_once_and_in_order() {
        let ring = Ring::new(0);
        // Parks the drainer so each block really fills: the producer
        // holds it while it pushes one record more than the block has.
        let park = Mutex::new(());
        let drains = AtomicU64::new(0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut pushed = 0u64;
        let mut push_next = || {
            ring.push(numbered(pushed));
            pushed += 1;
        };
        let mut steps = Vec::new();
        let drained = std::thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                let mut out = Vec::new();
                loop {
                    let last = done.load(Ordering::Acquire);
                    {
                        let _turn = park.lock().unwrap_or_else(|e| e.into_inner());
                        ring.drain_locked(&mut out);
                    }
                    drains.fetch_add(1, Ordering::Release);
                    if last {
                        return out;
                    }
                }
            });
            while ring.capacity() < RING_CAPACITY {
                let full = ring.capacity();
                {
                    let _parked = park.lock().unwrap_or_else(|e| e.into_inner());
                    while ring.capacity() == full {
                        push_next();
                    }
                }
                steps.push(ring.capacity());
                // Now race the freed drainer, with fewer records than
                // the new half holds so that only a parked fill grows.
                let seen = drains.load(Ordering::Acquire);
                for _ in 0..full / 2 {
                    push_next();
                }
                // At least one whole drain lands before the next fill.
                while drains.load(Ordering::Acquire) < seen + 2 {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
            drainer.join().expect("drainer")
        });
        let doublings: Vec<usize> = std::iter::successors(Some(FIRST_BLOCK * 2), |c| Some(c * 2))
            .take_while(|&c| c <= RING_CAPACITY)
            .collect();
        assert_eq!(steps, doublings, "one doubling per full block");
        assert_eq!(ring.dropped.load(Ordering::Acquire), 0);
        let args: Vec<u64> = drained.iter().map(|(_, rec)| rec.arg).collect();
        assert_eq!(args, (0..pushed).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread_records_are_all_drained() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = drain();
        // Hold every thread alive until all have recorded: a ring is
        // pooled for reuse only at thread exit, so concurrently-live
        // recorders are guaranteed distinct tid lanes.
        let gate = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let gate = &gate;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        instant_event("test.trace.mt", t * 1000 + i);
                    }
                    gate.wait();
                });
            }
        });
        let events = drain();
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.label == "test.trace.mt")
            .collect();
        assert_eq!(mine.len(), 400);
        // Each concurrently-recording thread got its own tid lane.
        let tids: std::collections::BTreeSet<u64> = mine.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn exited_threads_return_rings_to_the_pool_for_reuse() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = drain();
        let before = ring_count();
        // Strictly sequential short-lived recorders: each one's lease is
        // back in the pool before the next starts, so the registry must
        // not grow per thread (the old behaviour leaked 384 KiB per
        // exited thread, one fleet scrape-pass worker at a time).
        for i in 0..8u64 {
            std::thread::spawn(move || instant_event("test.trace.pool", i))
                .join()
                .expect("join recorder");
        }
        let after = ring_count();
        assert!(
            after <= before + 1,
            "sequential threads must reuse pooled rings: {before} -> {after}"
        );
        let events = drain();
        let mine = events
            .iter()
            .filter(|e| e.label == "test.trace.pool")
            .count();
        assert_eq!(mine, 8, "pooled rings lose no records");
    }
}
