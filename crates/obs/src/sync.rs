//! The one mutex of the concurrent core: every lock names its [`Rank`]
//! and, in every build with debug assertions (so every `cargo test`),
//! checks on each acquisition that the thread takes locks in strictly
//! increasing rank and blocks only under locks declared for it.
//!
//! The check is made by the lock itself, so it sees every path a test
//! or a seeded schedule actually runs — through trait objects and
//! closures alike — and nothing it does not run. Release
//! builds compile it out: a [`Mutex`] is then a `std::sync::Mutex`
//! whose `lock()` recovers poison (every critical section in the tree
//! leaves its data valid at each step, so a panicked holder loses
//! nothing a later reader depends on).
//!
//! A panic `lock order: taking X (rank a) while holding Y (rank b)` or
//! `<op> while holding X (rank a)` is this module refusing an
//! acquisition or a blocking call; fix the order or the declaration in
//! the table below, never the assertion.

use std::ops::{Deref, DerefMut};

/// A lock's place in the workspace's single total order.
#[derive(Clone, Copy, Debug)]
pub struct Rank {
    #[cfg_attr(
        not(debug_assertions),
        expect(dead_code, reason = "read only by the debug-build order check")
    )]
    level: u8,
    name: &'static str,
    /// May stay held while the thread blocks ([`about_to_block`]).
    #[cfg_attr(
        not(debug_assertions),
        expect(dead_code, reason = "read only by the debug-build order check")
    )]
    io: bool,
}

impl Rank {
    const fn new(level: u8, name: &'static str) -> Rank {
        Rank {
            level,
            name,
            io: false,
        }
    }

    /// Declare that this lock exists to be held across blocking calls.
    const fn held_across_io(self) -> Rank {
        Rank { io: true, ..self }
    }
}

/// The complete order (DESIGN.md §13 carries the same table). A thread
/// holding a lock may only take locks further down. `obs` is last
/// because any code may record a span or bump a counter under any
/// lock; the `memsim` and `bench` locks are leaves just before it.
impl Rank {
    /// `DebugPlane`'s pass-record ring and published fleet document.
    pub const FLEET_DEBUG_RING: Rank = Rank::new(11, "fleet.debug_ring");
    /// `WireClient`'s socket: serialises whole request/response exchanges.
    pub const WIRE_STREAM: Rank = Rank::new(21, "wire.stream").held_across_io();
    /// A connection-service worker's slot naming the connection it
    /// serves; `shutdown` closes that connection's read half under it.
    pub const WIRE_SERVING: Rank = Rank::new(22, "wire.serving");
    /// `Store`: one compaction/retention pass at a time; flushes ingest.
    pub const STORE_COMPACTING: Rank = Rank::new(30, "store.compacting");
    /// `Store`'s staging buffers; flushing seals chunks into `sealed`.
    pub const STORE_INGEST: Rank = Rank::new(31, "store.ingest");
    /// `Store`'s sealed-segment list; held to clone or swap the `Arc`.
    pub const STORE_SEALED: Rank = Rank::new(32, "store.sealed");
    /// `MemFs`'s file-name map.
    pub const STORE_FILES: Rank = Rank::new(33, "store.files");
    /// `SocketShared`'s noise generator.
    pub const MEMSIM_RNG: Rank = Rank::new(36, "memsim.rng");
    /// `SocketShared`'s last conservation-checked snapshot.
    pub const MEMSIM_LAST_VERIFIED: Rank = Rank::new(37, "memsim.last_verified");
    /// The experiment runner's per-point closures.
    pub const BENCH_JOBS: Rank = Rank::new(38, "bench.jobs");
    /// The experiment runner's per-point result slots.
    pub const BENCH_SLOTS: Rank = Rank::new(39, "bench.slots");
    /// `Registry`'s entry list.
    pub const OBS_ENTRIES: Rank = Rank::new(40, "obs.entries");
    /// The tracer's free-ring pool; a pool miss registers a fresh ring.
    pub const OBS_RING_POOL: Rank = Rank::new(41, "obs.ring_pool");
    /// The tracer's ring list; keeps drains and ring growth apart.
    pub const OBS_RINGS: Rank = Rank::new(42, "obs.rings");
}

/// A mutual-exclusion lock with a [`Rank`].
pub struct Mutex<T> {
    rank: Rank,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A lock at `rank` in the order.
    pub const fn new(rank: Rank, value: T) -> Self {
        Mutex {
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquire the lock, blocking until it is free. A lock poisoned by
    /// a panicked holder is recovered, not propagated.
    ///
    /// # Panics
    /// With debug assertions on, when this thread already holds a lock
    /// of the same or a later rank.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let lock = std::ptr::from_ref(self) as usize;
        #[cfg(debug_assertions)]
        held::acquire(lock, self.rank);
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            #[cfg(debug_assertions)]
            lock,
        }
    }
}

impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex")
            .field("rank", &self.rank.name)
            .finish_non_exhaustive()
    }
}

/// Holds a [`Mutex`] until dropped.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    /// Identity of the lock in this thread's held set.
    #[cfg(debug_assertions)]
    lock: usize,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        held::release(self.lock);
    }
}

/// Call where a thread is about to block — socket I/O, `accept`, a
/// condvar wait, a sleep. With debug assertions on, panics naming `op`
/// and the lock if the thread holds any lock not declared
/// `held_across_io` in the table.
#[inline]
pub fn about_to_block(op: &'static str) {
    #[cfg(debug_assertions)]
    held::assert_may_block(op);
    #[cfg(not(debug_assertions))]
    let _ = op;
}

/// The per-thread set of held ranked locks.
#[cfg(debug_assertions)]
mod held {
    use super::Rank;
    use std::cell::Cell;

    /// Deepest nesting the set can record; the order's longest chain
    /// that any code path takes today is four.
    const CAPACITY: usize = 8;

    thread_local! {
        /// Const-init and `Drop`-free, so it allocates nothing and is
        /// still there while other thread-local destructors run (the
        /// tracer returns its ring to the pool from one).
        static HELD: [Cell<Option<(usize, Rank)>>; CAPACITY] =
            const { [const { Cell::new(None) }; CAPACITY] };
    }

    pub(super) fn acquire(lock: usize, rank: Rank) {
        // `try_with` fails only after the slot's destruction, which a
        // `Drop`-free slot never reaches; skipping the check then is
        // the same answer as a release build's.
        let _ = HELD.try_with(|held| {
            for (_, below) in held.iter().filter_map(Cell::get) {
                assert!(
                    below.level < rank.level,
                    "lock order: taking {} (rank {}) while holding {} (rank {})",
                    rank.name,
                    rank.level,
                    below.name,
                    below.level
                );
            }
            let free = held.iter().find(|slot| slot.get().is_none());
            assert!(
                free.is_some(),
                "lock order: taking {} with {CAPACITY} ranked locks already held",
                rank.name
            );
            if let Some(slot) = free {
                slot.set(Some((lock, rank)));
            }
        });
    }

    /// Guards may drop in any order, so removal is by identity.
    pub(super) fn release(lock: usize) {
        let _ = HELD.try_with(|held| {
            if let Some(slot) = held
                .iter()
                .find(|slot| slot.get().is_some_and(|(l, _)| l == lock))
            {
                slot.set(None);
            }
        });
    }

    pub(super) fn assert_may_block(op: &str) {
        let _ = HELD.try_with(|held| {
            for (_, rank) in held.iter().filter_map(Cell::get) {
                assert!(
                    rank.io,
                    "{op} while holding {} (rank {})",
                    rank.name, rank.level
                );
            }
        });
    }

    #[cfg(test)]
    pub(super) fn count() -> usize {
        HELD.with(|held| held.iter().filter(|slot| slot.get().is_some()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_order_passes() {
        let a = Mutex::new(Rank::WIRE_STREAM, 1);
        let b = Mutex::new(Rank::STORE_INGEST, 2);
        let c = Mutex::new(Rank::OBS_RINGS, 3);
        let (ga, gb, gc) = (a.lock(), b.lock(), c.lock());
        assert_eq!(*ga + *gb + *gc, 6);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "lock order: taking store.ingest (rank 31) while holding store.sealed (rank 32)"
    )]
    fn inversion_panics_naming_both_locks() {
        let sealed = Mutex::new(Rank::STORE_SEALED, ());
        let ingest = Mutex::new(Rank::STORE_INGEST, ());
        let _sealed = sealed.lock();
        let _ingest = ingest.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "lock order: taking bench.slots (rank 39) while holding bench.slots (rank 39)"
    )]
    fn same_rank_reacquisition_panics() {
        let one = Mutex::new(Rank::BENCH_SLOTS, ());
        let other = Mutex::new(Rank::BENCH_SLOTS, ());
        let _one = one.lock();
        let _other = other.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn out_of_order_guard_drop_keeps_the_held_set_consistent() {
        let outer = Mutex::new(Rank::STORE_COMPACTING, ());
        let middle = Mutex::new(Rank::STORE_INGEST, ());
        let inner = Mutex::new(Rank::STORE_SEALED, ());
        let g_outer = outer.lock();
        let g_middle = middle.lock();
        let g_inner = inner.lock();
        drop(g_middle);
        assert_eq!(held::count(), 2);
        // The released rank can be taken again only above what is still
        // held: `files` is, `ingest` (below the held `sealed`) is not.
        drop(Mutex::new(Rank::STORE_FILES, ()).lock());
        drop(g_outer);
        drop(g_inner);
        assert_eq!(held::count(), 0);
        drop(middle.lock());
        assert_eq!(held::count(), 0);
    }

    #[test]
    fn blocking_is_allowed_only_under_locks_declared_for_it() {
        about_to_block("idle wait");
        let stream = Mutex::new(Rank::WIRE_STREAM, ());
        let _stream = stream.lock();
        about_to_block("exchange");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "write_pdu while holding store.ingest (rank 31)")]
    fn blocking_under_an_undeclared_lock_panics_naming_it() {
        let stream = Mutex::new(Rank::WIRE_STREAM, ());
        let ingest = Mutex::new(Rank::STORE_INGEST, ());
        let (_stream, _ingest) = (stream.lock(), ingest.lock());
        about_to_block("write_pdu");
    }

    #[test]
    fn a_lock_taken_in_a_thread_local_destructor_does_not_panic() {
        static POOL: Mutex<u32> = Mutex::new(Rank::OBS_RING_POOL, 0);
        struct Lease;
        impl Drop for Lease {
            fn drop(&mut self) {
                *POOL.lock() += 1;
            }
        }
        thread_local! {
            static LEASE: Lease = const { Lease };
        }
        std::thread::spawn(|| LEASE.with(|_| drop(Mutex::new(Rank::OBS_ENTRIES, ()).lock())))
            .join()
            .expect("the destructor's lock() must not panic");
        assert_eq!(*POOL.lock(), 1);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let m = std::sync::Arc::new(Mutex::new(Rank::MEMSIM_RNG, 0));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert!(m.inner.is_poisoned());
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }
}
