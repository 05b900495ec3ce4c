//! The connection service behind both transports, and its queue.
//!
//! [`BoundedQueue`] is a bounded MPMC queue with explicit Busy rejection
//! and graceful close — a plain `std` mutex and condvar:
//!
//! * [`BoundedQueue::try_push`] never blocks — a full queue returns the
//!   item back as [`PushError::Full`] so the accept loop can shed load at
//!   the door (`Error{Busy}`, HTTP `503`).
//! * [`BoundedQueue::pop`] blocks a worker until an item arrives or the
//!   queue is closed *and drained* — already-accepted connections are
//!   still served during a graceful shutdown, and closing wakes every
//!   waiter at once.
//!
//! Its accept/shutdown contract — Busy shedding at capacity, a push
//! racing `close()`, exactly-once delivery of the backlog on shutdown —
//! is tested by name in this module, each property over many schedules
//! on real threads.
//!
//! `Service` is the one lifecycle of a TCP listener in this crate, for
//! the PDU [`crate::PmcdServer`] and the HTTP [`crate::ScrapeListener`]
//! alike: one accept loop, one queue, a fixed pool of named workers and
//! one shutdown sequence. The transport supplies only what it does with
//! a connection (`serve`) and how it turns one away when the queue is
//! full (`shed`). A per-connection function that panics costs its own
//! connection only: the worker closes it, counts `wire.worker.panics`,
//! and goes back to the queue.

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use obs::sync::Rank;

use crate::server::WRITE_TIMEOUT;

/// Why a [`BoundedQueue::try_push`] did not enqueue; the item is handed
/// back in both cases.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — shed load.
    Full(T),
    /// The queue was closed — the server is shutting down.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    /// Outside the ranked order (`obs::sync`, which has no condvar): it
    /// is private to this queue and its critical sections call nothing.
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

    /// Dequeue, waiting until an item arrives. `None` once the queue is
    /// closed and its backlog drained — a closed queue still yields the
    /// items it held.
    pub fn pop(&self) -> Option<T> {
        obs::sync::about_to_block("BoundedQueue::pop");
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.cond.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue: further pushes fail, and [`BoundedQueue::pop`]
    /// returns `None` once the backlog drains. Idempotent.
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

/// Pause after an accept error. The ones that recur (EMFILE: out of
/// descriptors) would otherwise spin the acceptor until they clear.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// What the acceptor and the workers share.
struct Door {
    queue: Arc<BoundedQueue<TcpStream>>,
    shutdown: AtomicBool,
    /// One slot per worker: a `try_clone` of the connection it is
    /// serving, so [`Service::shutdown`] can close its read half.
    serving: Box<[obs::sync::Mutex<Option<TcpStream>>]>,
}

/// A listener with its accept loop, queue and worker pool; shut down
/// (and every thread joined) by [`Service::shutdown`] or on drop.
pub(crate) struct Service {
    local_addr: SocketAddr,
    door: Arc<Door>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Start `workers` threads named `{name}-worker-{i}` that each take
    /// connections off `queue` and run `serve` on them, and one
    /// `{name}-accept` thread that queues every connection `listener`
    /// accepts, handing it to `shed` instead when the queue is full.
    /// The queue is the caller's so it can report its depth.
    pub(crate) fn start(
        listener: TcpListener,
        name: &str,
        workers: usize,
        queue: Arc<BoundedQueue<TcpStream>>,
        serve: impl Fn(TcpStream) + Send + Sync + 'static,
        shed: impl Fn(TcpStream) + Send + 'static,
    ) -> std::io::Result<Self> {
        assert!(workers >= 1, "a service needs at least one worker");
        let door = Arc::new(Door {
            queue,
            shutdown: AtomicBool::new(false),
            serving: (0..workers)
                .map(|_| obs::sync::Mutex::new(Rank::WIRE_SERVING, None))
                .collect(),
        });
        let mut service = Service {
            local_addr: listener.local_addr()?,
            door: Arc::clone(&door),
            accept_thread: None,
            workers: Vec::with_capacity(workers),
        };
        let serve = Arc::new(serve);
        for i in 0..workers {
            let door = Arc::clone(&door);
            let serve = Arc::clone(&serve);
            // A failed spawn drops `service`, which joins the workers
            // already running.
            service.workers.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || work(&door, i, &*serve))?,
            );
        }
        service.accept_thread = Some(
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, &door, shed))?,
        );
        Ok(service)
    }

    /// The address the listener is bound to.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, close the read half of every connection being
    /// served, let the workers drain the queue, and join every thread.
    /// A request already received is still answered. Idempotent; also
    /// runs on drop.
    pub(crate) fn shutdown(&mut self) {
        self.door.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            wake_acceptor(self.local_addr);
            let _ = t.join();
        }
        // A worker registers its connection before it reads the flag, so
        // every connection is either closed here or by its own worker.
        for slot in self.door.serving.iter() {
            if let Some(stream) = slot.lock().as_ref() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        // With the accept loop gone nothing produces any more; closing
        // lets the workers drain the backlog and then exit.
        self.door.queue.close();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The one accept loop: block in `accept()`, queue each connection, and
/// hand it to `shed` when the queue is full. The shutdown flag is read
/// after every `accept()` returns, so the loop ends on the first
/// connection after it is set — which [`wake_acceptor`] supplies.
fn accept_loop(listener: &TcpListener, door: &Door, shed: impl Fn(TcpStream)) {
    loop {
        obs::sync::about_to_block("accept");
        let accepted = listener.accept();
        if door.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => match door.queue.try_push(stream) {
                Ok(()) => {}
                Err(PushError::Full(stream)) => shed(stream),
                Err(PushError::Closed(_)) => return,
            },
            Err(_) => {
                obs::counter!("wire.accept.errors").inc();
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

/// Make an [`accept_loop`] blocked on `local_addr` return, with one
/// throw-away connection (to loopback when the listener is bound to the
/// unspecified address). Set the loop's shutdown flag first.
fn wake_acceptor(local_addr: SocketAddr) {
    let mut addr = local_addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, WRITE_TIMEOUT);
}

/// Worker `slot`: serve queued connections one at a time until the
/// queue is closed and drained. A connection that cannot be registered
/// for the shutdown sweep is closed unserved; one whose `serve` panics
/// is closed and counted, and the worker carries on.
fn work(door: &Door, slot: usize, serve: &(dyn Fn(TcpStream) + Sync)) {
    let slot = &door.serving[slot];
    while let Some(stream) = door.queue.pop() {
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        // Register first, then read the flag: a shutdown that swept this
        // slot before the registration had already set it.
        *slot.lock() = Some(clone);
        if door.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Read);
        }
        if catch_unwind(AssertUnwindSafe(|| serve(stream))).is_err() {
            obs::counter!("wire.worker.panics").inc();
        }
        // The clone holds the socket open; drop it with the connection.
        *slot.lock() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::thread;

    /// Schedules each concurrency property runs over: fresh threads every
    /// time, so the OS interleaves them differently.
    const SCHEDULES: usize = 256;

    #[test]
    fn push_pop_round_trip() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("push 1");
        q.try_push(2).expect("push 2");
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_backlog_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.try_push(7).expect("push");
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
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
                assert_eq!(q.pop(), Some(1));
            }
            assert_eq!(q.pop(), None);
        }
    }

    /// Graceful shutdown: `close()` racing workers (some still draining,
    /// some already blocked in `pop`) never loses an accepted item
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
                            while let Some(v) = q.pop() {
                                got.push(v);
                            }
                            got
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
            // saw the queue closed (the joins above would hang otherwise).
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
                std::thread::spawn(move || {
                    while let Some(v) = q.pop() {
                        // A test tally, read after the joins.
                        total.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
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
        // Read after every consumer joined.
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), pushed);
    }

    /// A per-connection function that panics costs its own connection
    /// only: that client reads EOF, the one worker serves the next
    /// connection, the panic is counted, and shutdown still joins.
    #[test]
    fn a_panicking_connection_is_closed_and_its_worker_serves_the_next() {
        let first = AtomicBool::new(true);
        let serve = move |mut stream: TcpStream| {
            if first.swap(false, Ordering::SeqCst) {
                panic!("planted panic on the first connection");
            }
            let _ = stream.write_all(b"served");
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let queue = Arc::new(BoundedQueue::new(4));
        let mut service =
            Service::start(listener, "panic-test", 1, queue, serve, drop).expect("start");
        let panics = obs::counter!("wire.worker.panics").get();

        let mut first = TcpStream::connect(service.local_addr()).expect("connect first");
        // A hang guard only: the read must end in EOF long before it.
        first
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut got = Vec::new();
        let read = first.read_to_end(&mut got);
        assert!(read.is_ok(), "the first client was not closed: {read:?}");
        assert!(got.is_empty());

        let mut next = TcpStream::connect(service.local_addr()).expect("connect next");
        next.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut reply = String::new();
        next.read_to_string(&mut reply)
            .expect("next connection served");
        assert_eq!(reply, "served");
        assert!(obs::counter!("wire.worker.panics").get() > panics);
        service.shutdown();
    }
}
