//! The networked PMCD: a multi-client TCP server over the PDU protocol.
//!
//! Architecture (std only, no async runtime):
//!
//! * an **accept thread** blocks in `accept()` (`accept_loop`, the one
//!   accept loop of the crate, shared with [`crate::ScrapeListener`]).
//!   New connections go into a bounded queue; when every worker is busy
//!   and the queue is full the server answers `Error{Busy}` and closes —
//!   load is shed at the door instead of queueing unboundedly.
//! * a **bounded worker pool** (default 32 threads) pulls connections off
//!   the queue. One worker serves one client at a time, request by
//!   request, so each client has at most one fetch in flight; batch size
//!   is additionally capped by [`MAX_FETCH_BATCH`]. That pair
//!   of bounds is the backpressure story.
//! * [`PmcdServer::shutdown`] wakes the acceptor with one throw-away
//!   connection, closes the read half of every connection a worker is
//!   serving (a worker parked in `read` on an idle client sees EOF at
//!   once; a reply being written still goes out), drains the queue and
//!   joins every thread. The per-read timeout tick that remains is the
//!   slowloris guard only.
//! * a malformed PDU earns the offending client an `Error{BadPdu}` and a
//!   closed connection — other clients are unaffected, the server stays
//!   up. Disconnects mid-request are absorbed the same way.
//!
//! What the server answers — lookup, desc, children, fetch, the
//! `pmcd.*` self-metrics and the exposition — is defined once, in
//! [`pcp_sim::FetchCore`]; this module is the TCP transport in front of
//! it. The transport drives the core's operational counters (PDUs,
//! clients, sheds) and hands it the live accept-queue depth.

use std::io::Write as _;
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use obs::sync::{Mutex, Rank};
use p9_memsim::machine::SocketShared;
use p9_memsim::{Direction, PrivilegeError, PrivilegeToken};
use pcp_sim::pmns::{InstanceId, MetricId, MetricSemantics, Pmns};
use pcp_sim::FetchCore;
pub use pcp_sim::StatsSnapshot;

use crate::pdu::{
    read_pdu, write_pdu, ErrorCode, Pdu, WireError, DEFAULT_MAX_PAYLOAD, PROTOCOL_VERSION,
};
use crate::pool::{BoundedQueue, Pop, PushError};

/// Per-write timeout; a client that stops draining its socket is
/// disconnected rather than wedging a worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Per-read timeout tick on a served connection. Its one job is the
/// slowloris guard: a peer silent mid-frame for 50 ticks is dropped
/// (`pdu::read_pdu`). It is not an idle-disconnect timeout, and shutdown
/// does not wait on it.
const READ_TICK: Duration = Duration::from_millis(100);

/// How long an idle pool worker waits on the queue before looking again.
/// Closing the queue wakes every waiter at once, so nothing waits on it.
const WORKER_TICK: Duration = Duration::from_secs(1);

/// Pause after an accept error. The ones that recur (EMFILE: out of
/// descriptors) would otherwise spin the acceptor until they clear.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Largest number of `(metric, instance)` pairs in one fetch; a bigger
/// batch is answered `Error{TooLarge}` and the connection stays up.
pub const MAX_FETCH_BATCH: usize = 1024;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Worker threads — the maximum number of simultaneously served
    /// clients.
    pub workers: usize,
    /// Accepted connections that may wait for a free worker before the
    /// server starts answering `Error{Busy}`.
    pub pending: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            workers: 32,
            pending: 64,
        }
    }
}

/// Everything a worker needs to answer requests.
pub(crate) struct Shared {
    core: FetchCore,
    /// The accept queue, visible to workers so `pmcd.queue.depth` can be
    /// fetched like any other metric.
    queue: Arc<BoundedQueue<TcpStream>>,
    shutdown: AtomicBool,
    /// One slot per worker: a `try_clone` of the connection it is
    /// serving, so [`PmcdServer::shutdown`] can close its read half.
    serving: Box<[Mutex<Option<TcpStream>>]>,
}

impl Shared {
    /// The exposition served to `Pdu::Exposition`, the HTTP scrape
    /// listener and [`PmcdServer::exposition`] alike, so in-process and
    /// over-the-wire scrapes are byte-identical modulo the
    /// `# scrape_ts_ns` header.
    pub(crate) fn exposition(&self) -> String {
        self.core.exposition(unix_ns(), self.queue.len() as u64)
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServerError {
    /// The caller's token lacks elevation — binding the PMCD is the
    /// privileged side of the export.
    Privilege(PrivilegeError),
    /// Binding the listener or spawning a thread failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Privilege(e) => write!(f, "privilege: {e}"),
            ServerError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Privilege(e) => Some(e),
            ServerError::Io(e) => Some(e),
        }
    }
}

impl From<PrivilegeError> for ServerError {
    fn from(e: PrivilegeError) -> Self {
        ServerError::Privilege(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// The networked PMCD. Binding requires elevation, exactly like spawning
/// the in-process daemon — the server is the privileged side of the
/// export.
pub struct PmcdServer {
    shared: Arc<Shared>,
    queue: Arc<BoundedQueue<TcpStream>>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl PmcdServer {
    /// Bind and start serving. `addr` is typically `127.0.0.1:0` (the
    /// chosen port is available from [`PmcdServer::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        token: &PrivilegeToken,
        config: WireConfig,
    ) -> Result<Self, ServerError> {
        Self::bind_with_registry(addr, pmns, sockets, token, config, None)
    }

    /// [`PmcdServer::bind`], but exporting `registry` as `pmcd.obs.*`
    /// instead of the process-global obs registry. The fleet simulator
    /// runs hundreds of servers in one process; a private registry per
    /// server keeps each host's exposition independent of its
    /// neighbours (and of the test harness's own instrumentation).
    pub fn bind_with_registry<A: ToSocketAddrs>(
        addr: A,
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        token: &PrivilegeToken,
        config: WireConfig,
        registry: Option<Arc<obs::Registry>>,
    ) -> Result<Self, ServerError> {
        token.require_elevated()?;
        assert!(config.workers >= 1, "server needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let queue = Arc::new(BoundedQueue::new(config.pending));
        let shared = Arc::new(Shared {
            core: FetchCore::new(pmns, sockets, registry),
            queue: Arc::clone(&queue),
            shutdown: AtomicBool::new(false),
            serving: (0..config.workers)
                .map(|_| Mutex::new(Rank::WIRE_SERVING, None))
                .collect(),
        });

        let mut server = PmcdServer {
            shared: Arc::clone(&shared),
            queue: Arc::clone(&queue),
            local_addr,
            accept_thread: None,
            workers: Vec::with_capacity(config.workers),
        };

        for i in 0..config.workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("pmcd-worker-{i}"))
                .spawn(move || {
                    serve_queue(&shared.queue, |stream| serve_client(&shared, i, stream));
                });
            match handle {
                Ok(h) => server.workers.push(h),
                // Partial construction: `server` drops here, which joins
                // the workers already spawned.
                Err(e) => return Err(ServerError::Io(e)),
            }
        }

        let accept_thread = std::thread::Builder::new()
            .name("pmcd-accept".into())
            .spawn(move || {
                accept_loop(&listener, &shared.shutdown, &shared.queue, |stream| {
                    reject_busy(&shared, stream);
                });
            })
            .map_err(ServerError::Io)?;
        server.accept_thread = Some(accept_thread);

        Ok(server)
    }

    /// Bind as the *system* would (mints the elevated token itself) —
    /// mirrors `Pmcd::spawn_system`. Privilege cannot fail here, but the
    /// bind or thread spawns still can.
    pub fn bind_system<A: ToSocketAddrs>(
        addr: A,
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        config: WireConfig,
    ) -> Result<Self, ServerError> {
        Self::bind(addr, pmns, sockets, &PrivilegeToken::elevated(), config)
    }

    /// [`PmcdServer::bind_system`] with a private obs registry (see
    /// [`PmcdServer::bind_with_registry`]).
    pub fn bind_system_with_registry<A: ToSocketAddrs>(
        addr: A,
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        config: WireConfig,
        registry: Option<Arc<obs::Registry>>,
    ) -> Result<Self, ServerError> {
        Self::bind_with_registry(
            addr,
            pmns,
            sockets,
            &PrivilegeToken::elevated(),
            config,
            registry,
        )
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current operational counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.core.stats().snapshot()
    }

    /// Connections currently waiting for a free worker (also fetchable
    /// by any client as `pmcd.queue.depth`).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The OpenMetrics exposition this server would serve right now —
    /// the same renderer that answers `Pdu::Exposition` and the HTTP
    /// scrape listener, so an in-process call and a TCP scrape agree
    /// byte for byte modulo the `# scrape_ts_ns` header.
    pub fn exposition(&self) -> String {
        self.shared.exposition()
    }

    /// Shared state handle for sidecar listeners (see
    /// [`crate::scrape::ScrapeListener`]).
    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Stop accepting, finish in-flight requests, join every thread.
    /// Requests already sent are still answered, queued connections
    /// included (graceful drain); a client that is merely connected is
    /// not waited for — its next call sees the connection closed.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            wake_acceptor(self.local_addr);
            let _ = t.join();
        }
        // A worker registers its connection before it reads the flag, so
        // every connection is either closed here or by its own worker.
        for slot in self.shared.serving.iter() {
            if let Some(stream) = slot.lock().as_ref() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        // With the accept loop gone nothing produces any more; closing
        // lets workers drain the backlog and then exit.
        self.queue.close();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for PmcdServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The one accept loop, behind [`PmcdServer`] and
/// [`crate::ScrapeListener`] alike: block in `accept()`, queue each
/// connection for the worker pool, and hand it to `shed` when the queue
/// is full. `shutdown` is checked after every `accept()` returns, so the
/// loop ends on the first connection after it is set — which
/// [`wake_acceptor`] supplies.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    queue: &BoundedQueue<TcpStream>,
    shed: impl Fn(TcpStream),
) {
    loop {
        obs::sync::about_to_block("accept");
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => match queue.try_push(stream) {
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
pub(crate) fn wake_acceptor(local_addr: SocketAddr) {
    let mut addr = local_addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, WRITE_TIMEOUT);
}

/// The worker side of the pipeline: serve queued connections one at a
/// time until the queue is closed and drained.
pub(crate) fn serve_queue(queue: &BoundedQueue<TcpStream>, mut serve: impl FnMut(TcpStream)) {
    loop {
        match queue.pop_timeout(WORKER_TICK) {
            Pop::Item(stream) => serve(stream),
            Pop::TimedOut => {}
            Pop::Closed => return,
        }
    }
}

/// Shed load at the door: tell the client we are saturated and close.
fn reject_busy(shared: &Shared, mut stream: TcpStream) {
    shared.core.stats().count_client_rejected();
    obs::instant!("pmcd.shed", shared.queue.len() as u64);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let frame = Pdu::Error {
        code: ErrorCode::Busy,
        detail: "server at capacity".into(),
    }
    .encode();
    let _ = stream.write_all(&frame);
}

/// Serve one client connection to completion on worker `worker`. Never
/// panics on client misbehaviour: malformed frames, oversized lengths,
/// and mid-request disconnects all end *this* connection only.
fn serve_client(shared: &Shared, worker: usize, stream: TcpStream) {
    let slot = &shared.serving[worker];
    // Register first, then read the flag: a shutdown that swept this
    // slot before the registration had already set it.
    *slot.lock() = stream.try_clone().ok();
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let stats = shared.core.stats();
    let client_id = stats.client_connected();
    serve_client_inner(shared, stream, client_id);
    stats.client_disconnected();
    // The clone holds the socket open; drop it with the connection.
    *slot.lock() = None;
}

fn serve_client_inner(shared: &Shared, mut stream: TcpStream, client_id: u64) {
    let stats = shared.core.stats();
    if stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }

    let mut handshaken = false;
    loop {
        let pdu = match read_pdu(&mut stream, DEFAULT_MAX_PAYLOAD) {
            Ok(pdu) => pdu,
            Err(WireError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // An idle tick. Shutdown closes this connection's read
                // half instead of waiting here, unless its `try_clone`
                // failed and the sweep never saw it.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(WireError::Closed) | Err(WireError::Io(_)) => return,
            Err(WireError::Stalled) => {
                // Half a frame then silence: the stream cannot be
                // resynchronised, and the worker must not stay wedged.
                stats.count_pdu_error();
                let _ = write_pdu(
                    &mut stream,
                    &Pdu::Error {
                        code: ErrorCode::BadPdu,
                        detail: "stalled mid-frame".into(),
                    },
                );
                return;
            }
            Err(WireError::Pdu(e)) => {
                // Malformed input: tell the client why, then hang up.
                stats.count_pdu_error();
                let _ = write_pdu(
                    &mut stream,
                    &Pdu::Error {
                        code: ErrorCode::BadPdu,
                        detail: e.to_string(),
                    },
                );
                return;
            }
        };
        stats.count_pdu_in();

        // The CREDS exchange must come first and exactly once.
        let reply = if !handshaken {
            match pdu {
                Pdu::Creds {
                    version: PROTOCOL_VERSION,
                } => {
                    handshaken = true;
                    Pdu::CredsAck {
                        version: PROTOCOL_VERSION,
                        client_id,
                    }
                }
                Pdu::Creds { version } => Pdu::Error {
                    code: ErrorCode::BadVersion,
                    detail: format!(
                        "server speaks version {PROTOCOL_VERSION}, client sent {version}"
                    ),
                },
                _ => Pdu::Error {
                    code: ErrorCode::BadPdu,
                    detail: "first pdu must be CREDS".into(),
                },
            }
        } else {
            handle_request(shared, pdu)
        };

        let fatal = matches!(
            reply,
            Pdu::Error {
                code: ErrorCode::BadPdu | ErrorCode::BadVersion,
                ..
            }
        );
        if matches!(reply, Pdu::Error { .. }) {
            stats.count_pdu_error();
        }
        if write_pdu(&mut stream, &reply).is_err() {
            return; // client went away mid-reply
        }
        stats.count_pdu_out();
        if fatal {
            return;
        }
    }
}

/// Answer one post-handshake request: translate the PDU into the one
/// [`FetchCore`] call it stands for.
fn handle_request(shared: &Shared, pdu: Pdu) -> Pdu {
    let core = &shared.core;
    match pdu {
        Pdu::Lookup { name } => match core.lookup(&name) {
            Some(id) => Pdu::LookupResult { id: id.0 },
            None => Pdu::Error {
                code: ErrorCode::NoSuchMetric,
                detail: name,
            },
        },
        Pdu::Desc { id } => match core.desc(MetricId(id)) {
            Some(desc) => Pdu::DescResult {
                id,
                semantics: encode_semantics(desc.semantics),
                channel: desc.channel as u32,
                direction: encode_direction(desc.direction),
                units: desc.units.into(),
                name: desc.name,
            },
            None => Pdu::Error {
                code: ErrorCode::BadMetricId,
                detail: format!("metric id {id}"),
            },
        },
        Pdu::Children { prefix } => Pdu::ChildrenResult {
            names: core.children(&prefix),
        },
        Pdu::Fetch { trace_id, requests } => {
            // Echo the client's trace id as the span argument so the
            // drained rings stitch into one cross-process critical path
            // (obs::stitch matches client/server spans by this arg).
            let _server_span = obs::span!(obs::stitch::SERVER_FETCH_SPAN, trace_id);
            if requests.len() > MAX_FETCH_BATCH {
                return Pdu::Error {
                    code: ErrorCode::TooLarge,
                    detail: format!(
                        "fetch batch of {} exceeds limit {MAX_FETCH_BATCH}",
                        requests.len()
                    ),
                };
            }
            Pdu::FetchResult {
                values: core.fetch(
                    requests
                        .iter()
                        .map(|&(id, inst)| (MetricId(id), InstanceId(inst))),
                    shared.queue.len() as u64,
                ),
            }
        }
        Pdu::Exposition { trace_id } => {
            // Echo the scrape's fan-out child id as the render span's
            // arg so an aggregator's FanoutTrace charges this host's
            // server-side render time to the right slot (matched by
            // arg, so per-host clock skew cannot break the stitch).
            let _render_span =
                (trace_id != 0).then(|| obs::span!(obs::stitch::SERVER_SCRAPE_SPAN, trace_id));
            Pdu::ExpositionResult {
                text: shared.exposition(),
            }
        }
        // Anything else is a server-to-client PDU arriving backwards.
        // The detail names only its type: the PDU's own fields are the
        // peer's, and may not fit a reply string.
        other => Pdu::Error {
            code: ErrorCode::BadPdu,
            detail: format!("unexpected pdu type {:#04x}", other.type_tag()),
        },
    }
}

/// Wall-clock nanoseconds since the Unix epoch, for the scrape
/// timestamp header.
fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Wire encoding of [`MetricSemantics`]: 0 = counter, 1 = instant.
pub fn encode_semantics(s: MetricSemantics) -> u8 {
    match s {
        MetricSemantics::Counter => 0,
        MetricSemantics::Instant => 1,
    }
}

/// Inverse of [`encode_semantics`].
pub fn decode_semantics(v: u8) -> Option<MetricSemantics> {
    match v {
        0 => Some(MetricSemantics::Counter),
        1 => Some(MetricSemantics::Instant),
        _ => None,
    }
}

/// Wire encoding of [`Direction`]: 0 = read, 1 = write.
pub fn encode_direction(d: Direction) -> u8 {
    match d {
        Direction::Read => 0,
        Direction::Write => 1,
    }
}

/// Inverse of [`encode_direction`].
pub fn decode_direction(v: u8) -> Option<Direction> {
    match v {
        0 => Some(Direction::Read),
        1 => Some(Direction::Write),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p9_arch::Machine;
    use p9_memsim::SimMachine;

    fn start_server(config: WireConfig) -> (SimMachine, PmcdServer) {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let sockets = (0..m.num_sockets()).map(|s| m.socket_shared(s)).collect();
        let server =
            PmcdServer::bind_system("127.0.0.1:0", pmns, sockets, config).expect("bind server");
        (m, server)
    }

    #[test]
    fn bind_requires_elevation() {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let sockets = vec![m.socket_shared(0)];
        let err = PmcdServer::bind(
            "127.0.0.1:0",
            pmns,
            sockets,
            &PrivilegeToken::user(),
            WireConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let (_m, mut server) = start_server(WireConfig::default());
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let (_m, server) = start_server(WireConfig {
            workers: 2,
            ..WireConfig::default()
        });
        drop(server); // must not hang
    }

    /// The wake-up connect reaches a listener bound to every interface.
    #[test]
    fn server_bound_on_the_unspecified_address_shuts_down() {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let sockets = vec![m.socket_shared(0)];
        let mut server = PmcdServer::bind_system("0.0.0.0:0", pmns, sockets, WireConfig::default())
            .expect("bind 0.0.0.0");
        assert!(server.local_addr().ip().is_unspecified());
        server.shutdown();
    }

    /// Shutdown closes an idle client's session instead of waiting for
    /// it to hang up, and the client learns on its next call.
    #[test]
    fn shutdown_closes_an_idle_session_and_its_next_call_is_disconnected() {
        let (_m, mut server) = start_server(WireConfig {
            workers: 1,
            ..WireConfig::default()
        });
        let client = crate::WireClient::connect(server.local_addr()).expect("connect");
        client.scrape_exposition().expect("scrape before shutdown");
        server.shutdown();
        assert_eq!(
            client.scrape_exposition(),
            Err(pcp_sim::PcpError::Disconnected)
        );
    }
}
