//! The worker-pool connection queue: a bounded MPMC queue with explicit
//! Busy rejection and graceful close.
//!
//! This replaces `std::sync::mpsc::sync_channel` in the server so the
//! accept/shutdown path is built from primitives the loom models in
//! `tests/loom_pool.rs` can schedule: under `--cfg loom` the mutex and
//! condvar come from the vendored loom shim, which injects preemption
//! points around every acquisition.
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
use std::time::Duration;

#[cfg(loom)]
use loom::sync::{Condvar, Mutex};
#[cfg(not(loom))]
use std::sync::{Condvar, Mutex};

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
    /// Outside the ranked order (`obs::sync`): the loom lane must model
    /// this lock, and its critical sections call nothing.
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

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

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

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop_timeout(Duration::from_secs(30)))
            })
            .collect();
        // Give the consumers a moment to block, then close.
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().expect("join consumer"), Pop::Closed);
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
