//! The simulator's host memory follows what a kernel touches, not what
//! the machine could hold: a cache that was never inserted into owns no
//! memory, so a one-core kernel on a 42-core Summit node pays for one
//! core. Measured with a counting global allocator (bytes requested, not
//! RSS), so it repeats exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use p9_arch::Machine;
use p9_memsim::{SetAssocCache, SimMachine};

struct CountingAllocator;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const MIB: u64 = 1 << 20;

/// Bytes requested from the allocator while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_BYTES.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOC_BYTES.load(Ordering::SeqCst) - before)
}

/// Single test on purpose: a sibling test allocating on another thread
/// would make the byte counts meaningless.
#[test]
fn memory_follows_the_cores_that_ran() {
    // One core's tag arrays at the two L3 shares a Summit socket uses.
    let summit = Machine::summit();
    let tags =
        |l3_bytes: u64| (summit.l1d.capacity_bytes + summit.l2.capacity_bytes / 2 + l3_bytes) / 8;
    let lone = tags(summit.l3_effective_per_core(0, 1));
    let shared = tags(summit.l3_effective_per_core(0, 21));

    // A single-threaded kernel: one core's share of a 110 MiB L3, not 21
    // (which would be ~290 MiB).
    let (mut m, bytes) = allocated_by(|| {
        let mut m = SimMachine::quiet(Machine::summit(), 1);
        let r = m.alloc(64 * 1024);
        m.run_single(0, |c| c.load_seq(r.base(), 64 * 1024));
        m
    });
    assert!(bytes >= lone, "{bytes} B < one core's {lone} B");
    assert!(bytes < 32 * MIB, "run_single allocated {bytes} B");

    // 21 threads of which one touches memory: again one core's share.
    let r = m.alloc(64 * 1024);
    let ((), bytes) = allocated_by(|| {
        m.run_parallel(0, 21, |tid, c| {
            if tid == 0 {
                c.load_seq(r.base(), 64 * 1024);
            }
        });
    });
    assert!(bytes >= shared - tags(0), "{bytes} B < one L3 share");
    // Thread spawning allocates a little per thread; 21 L3 shares would
    // be 21x `shared`.
    assert!(bytes < 2 * shared, "run_parallel allocated {bytes} B");

    // The other 41 cores never ran: flushing or resetting them is free,
    // and core 0 only gives memory back.
    let ((), bytes) = allocated_by(|| m.flush_socket(0));
    assert_eq!(bytes, 0, "flush_socket allocated");
    let ((), bytes) = allocated_by(|| {
        m.reset_cold(0);
        m.flush_socket(1);
        m.reset_cold(1);
    });
    assert_eq!(bytes, 0, "reset_cold / an idle socket's flush allocated");

    // Probing a cache that was never inserted into allocates nothing,
    // however large it is.
    let (mut cache, bytes) = allocated_by(|| SetAssocCache::new(110 * MIB, 20));
    assert_eq!(bytes, 0, "SetAssocCache::new allocated");
    let ((), bytes) = allocated_by(|| {
        assert!(!cache.access(7, true));
        assert!(!cache.contains(7));
        assert!(!cache.touch_dirty(7));
        assert_eq!(cache.remove(7), None);
        assert_eq!(cache.resident(), 0);
        cache.flush(|_| unreachable!("nothing resident"));
    });
    assert_eq!(bytes, 0, "probing an empty cache allocated");
}
