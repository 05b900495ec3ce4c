//! The worker-pool connection queue: a bounded MPMC queue with explicit
//! Busy rejection and graceful close.
//!
//! A plain `std` mutex and condvar. The server's accept/shutdown contract
//! — Busy shedding at capacity, a push racing `close()`, exactly-once
//! delivery of the backlog on shutdown — is tested by name in this
//! module, each property over many schedules on real threads.
//!
//! Semantics mirror the server's backpressure story:
//!
//! * [`BoundedQueue::try_push`] never blocks — a full queue returns the
//!   item back as [`PushError::Full`] so the accept loop can shed load at
//!   the door (`Error{Busy}`).
//! * [`BoundedQueue::pop_timeout`] blocks a worker until an item arrives,
//!   the timeout tick elapses (so the worker can notice the shutdown
//!   flag), or the queue is closed *and drained* — already-accepted
//!   connections are still served during a graceful shutdown.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a [`BoundedQueue::try_push`] did not enqueue; the item is handed
/// back in both cases.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — shed load.
    Full(T),
    /// The queue was closed — the server is shutting down.
    Closed(T),
}

/// Outcome of a [`BoundedQueue::pop_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The tick elapsed with the queue open but empty.
    TimedOut,
    /// The queue is closed and fully drained — the worker should exit.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    /// Outside the ranked order (`obs::sync`, which has no condvar): it
    /// is private to this module and its critical sections call nothing.
    state: Mutex<State<T>>,
    cond: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue without blocking. On success one waiting consumer is woken.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.cond.notify_one();
        Ok(())
    }

    /// Dequeue, waiting up to `timeout` for an item. A closed queue still
    /// yields its remaining items before reporting [`Pop::Closed`].
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        obs::sync::about_to_block("BoundedQueue::pop_timeout");
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = s.items.pop_front() {
                return Pop::Item(item);
            }
            if s.closed {
                return Pop::Closed;
            }
            let (guard, result) = self
                .cond
                .wait_timeout(s, timeout)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            if result.timed_out() {
                // One more non-blocking look: the notify may have raced
                // with the timeout.
                return match s.items.pop_front() {
                    Some(item) => Pop::Item(item),
                    None if s.closed => Pop::Closed,
                    None => Pop::TimedOut,
                };
            }
        }
    }

    /// Close the queue: further pushes fail, and consumers see
    /// [`Pop::Closed`] once the backlog drains. Idempotent.
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.closed = true;
        drop(s);
        self.cond.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Schedules each concurrency property runs over: fresh threads every
    /// time, so the OS interleaves them differently.
    const SCHEDULES: usize = 256;

    /// Long enough that a wait only ends via notify; every property closes
    /// the queue, so no schedule leaves a consumer waiting this long.
    const TICK: Duration = Duration::from_secs(30);

    #[test]
    fn push_pop_round_trip() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("push 1");
        q.try_push(2).expect("push 2");
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::TimedOut);
    }

    #[test]
    fn close_drains_backlog_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.try_push(7).expect("push");
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(7));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Closed);
    }

    /// Busy rejection: with the queue at capacity, concurrent pushes never
    /// block, never lose an item, and shed exactly the overflow as `Full`.
    #[test]
    fn capacity_overflow_is_rejected_not_blocked() {
        for _ in 0..SCHEDULES {
            let q = BoundedQueue::new(1);
            let accepted = thread::scope(|s| {
                let q = &q;
                let producers: Vec<_> = (0..3u64)
                    .map(|v| s.spawn(move || q.try_push(v).is_ok()))
                    .collect();
                producers
                    .into_iter()
                    .map(|h| h.join().expect("join producer"))
                    .filter(|&accepted| accepted)
                    .count()
            });
            // No consumer runs, so exactly one push fits and the other two
            // must have been shed with `Full` — under every schedule.
            assert_eq!(accepted, 1);
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn push_racing_close_is_accepted_or_cleanly_refused() {
        for _ in 0..SCHEDULES {
            let q = BoundedQueue::new(2);
            let accepted = thread::scope(|s| {
                let pusher = s.spawn(|| match q.try_push(1u64) {
                    Ok(()) => true,
                    Err(PushError::Closed(v)) => {
                        // The item comes back intact; the caller can reject
                        // the connection instead of dropping it silently.
                        assert_eq!(v, 1);
                        false
                    }
                    Err(PushError::Full(_)) => unreachable!("queue never fills"),
                });
                q.close();
                pusher.join().expect("join pusher")
            });
            // An accepted item survives the close (backlog drains first); a
            // refused one leaves the queue empty. Nothing in between.
            if accepted {
                assert_eq!(q.pop_timeout(TICK), Pop::Item(1));
            }
            assert_eq!(q.pop_timeout(TICK), Pop::Closed);
        }
    }

    /// Graceful shutdown: `close()` racing workers (some still draining,
    /// some already blocked in `pop_timeout`) never loses an accepted item
    /// and never strands a worker.
    #[test]
    fn shutdown_delivers_backlog_exactly_once_then_releases_workers() {
        for schedule in 0..SCHEDULES {
            let q = BoundedQueue::new(4);
            q.try_push(1u64).expect("push 1");
            q.try_push(2u64).expect("push 2");
            let mut delivered: Vec<u64> = thread::scope(|s| {
                let q = &q;
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(move || {
                            let mut got = Vec::new();
                            loop {
                                match q.pop_timeout(TICK) {
                                    Pop::Item(v) => got.push(v),
                                    Pop::TimedOut => {}
                                    Pop::Closed => return got,
                                }
                            }
                        })
                    })
                    .collect();
                // Every other schedule closes only once the backlog is
                // drained, so the workers are waiting (or about to).
                while schedule % 2 == 1 && !q.is_empty() {
                    thread::yield_now();
                }
                q.close();
                workers
                    .into_iter()
                    .flat_map(|h| h.join().expect("join worker"))
                    .collect()
            });
            delivered.sort_unstable();
            // Exactly-once delivery across both workers, and both workers
            // reached `Closed` (the joins above would hang otherwise).
            assert_eq!(delivered, vec![1, 2]);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(8));
        let total = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                let total = Arc::clone(&total);
                std::thread::spawn(move || loop {
                    match q.pop_timeout(Duration::from_millis(200)) {
                        Pop::Item(v) => {
                            // relaxed-ok: test tally, read after joins.
                            total.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                        }
                        Pop::TimedOut => {}
                        Pop::Closed => return,
                    }
                })
            })
            .collect();
        let mut pushed = 0u64;
        for v in 1..=100u64 {
            loop {
                match q.try_push(v) {
                    Ok(()) => {
                        pushed += v;
                        break;
                    }
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!("queue not closed"),
                }
            }
        }
        q.close();
        for c in consumers {
            c.join().expect("join consumer");
        }
        // relaxed-ok: read after every consumer joined.
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), pushed);
    }
}
