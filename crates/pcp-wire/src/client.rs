//! [`WireClient`] — the TCP transport behind `pcp_sim::PmApi`.
//!
//! A `WireClient` is one connection to a [`crate::PmcdServer`]. It does
//! the CREDS handshake on connect and then issues one request/response
//! exchange per PMAPI call, serialised by an internal mutex (the real
//! `libpcp` context is likewise single-threaded per handle). Because it
//! implements [`PmApi`], the PAPI PCP component runs against it unchanged
//! — the only difference from the in-process [`pcp_sim::PcpContext`] is
//! that the round-trip cost is *real* wall-clock socket time, so
//! [`PmApi::fetch_latency_s`] reports zero simulated seconds.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use obs::sync::{Mutex, Rank};
use pcp_sim::pmns::{InstanceId, MetricDesc, MetricId};
use pcp_sim::{PcpError, PmApi};

use crate::pdu::{read_pdu, write_pdu, ErrorCode, Pdu, WireError, MAX_STRING, PROTOCOL_VERSION};
use crate::server::{decode_direction, decode_semantics};

/// Default per-call I/O timeout: long enough for a loaded loopback
/// server, short enough that a dead server fails the call instead of
/// wedging the measurement.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// An unprivileged TCP connection to a networked PMCD.
pub struct WireClient {
    /// Serialises whole PDU exchanges on the socket; both directions run
    /// under the connection's read/write timeouts, so a dead peer errors
    /// out instead of wedging whoever waits for the lock.
    stream: Mutex<TcpStream>,
    max_payload: u32,
    client_id: u64,
    peer: SocketAddr,
}

impl WireClient {
    /// Connect and complete the CREDS handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, PcpError> {
        Self::connect_with_timeout(addr, DEFAULT_IO_TIMEOUT)
    }

    /// Connect with a specific per-call read/write timeout. The whole
    /// exchange, handshake included, runs under one
    /// [`obs::stitch::CLIENT_CONNECT_SPAN`].
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        io_timeout: Duration,
    ) -> Result<Self, PcpError> {
        let _span = obs::span!(obs::stitch::CLIENT_CONNECT_SPAN);
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream.set_read_timeout(Some(io_timeout)).map_err(io_err)?;
        stream.set_write_timeout(Some(io_timeout)).map_err(io_err)?;
        let peer = stream.peer_addr().map_err(io_err)?;
        let client = WireClient {
            stream: Mutex::new(Rank::WIRE_STREAM, stream),
            max_payload: crate::pdu::DEFAULT_MAX_PAYLOAD,
            client_id: 0,
            peer,
        };
        match client.call(&Pdu::Creds {
            version: PROTOCOL_VERSION,
        })? {
            Pdu::CredsAck {
                version: PROTOCOL_VERSION,
                client_id,
            } => Ok(WireClient {
                client_id,
                ..client
            }),
            Pdu::CredsAck { version, .. } => Err(PcpError::Protocol(format!(
                "server answered with unsupported version {version}"
            ))),
            other => Err(unexpected(&other)),
        }
    }

    /// The server-assigned client id from the CREDS exchange.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Address of the server this client is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// One request/response round trip; an `Error` reply is the
    /// [`PcpError`] it stands for.
    fn call(&self, request: &Pdu) -> Result<Pdu, PcpError> {
        let mut stream = self.stream.lock();
        write_pdu(&mut *stream, request).map_err(wire_err)?;
        match read_pdu(&mut *stream, self.max_payload).map_err(wire_err)? {
            Pdu::Error { code, detail } => Err(server_error(code, detail)),
            reply => Ok(reply),
        }
    }

    /// Write raw bytes onto the connection, bypassing the codec. Exists
    /// for robustness tests that must send deliberately malformed frames;
    /// a correct client never needs it.
    pub fn send_raw(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut stream = self.stream.lock();
        stream.write_all(bytes)?;
        stream.flush()
    }

    /// Fetch the server's OpenMetrics text exposition over the PDU
    /// channel (the same document the HTTP scrape listener serves).
    pub fn scrape_exposition(&self) -> Result<String, PcpError> {
        self.scrape_exposition_traced(0)
    }

    /// Traced scrape: a non-zero `trace_id` rides the `Exposition`
    /// frame and is echoed as the arg of the server's
    /// render span, so a fleet aggregator's per-host child id stitches
    /// the client and server sides into one `obs::stitch::FanoutTrace`.
    pub fn scrape_exposition_traced(&self, trace_id: u64) -> Result<String, PcpError> {
        let _span = (trace_id != 0).then(|| obs::span!(obs::stitch::CLIENT_SCRAPE_SPAN, trace_id));
        match self.call(&Pdu::Exposition { trace_id })? {
            Pdu::ExpositionResult { text } => Ok(text),
            other => Err(unexpected(&other)),
        }
    }
}

fn io_err(e: std::io::Error) -> PcpError {
    PcpError::Protocol(format!("i/o error: {e}"))
}

fn wire_err(e: WireError) -> PcpError {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
    match e {
        WireError::Closed => PcpError::Disconnected,
        // A peer that closed (or reset) under a request is gone either
        // way; which of these the kernel reports depends on timing.
        WireError::Io(e)
            if matches!(
                e.kind(),
                UnexpectedEof | BrokenPipe | ConnectionReset | ConnectionAborted
            ) =>
        {
            PcpError::Disconnected
        }
        other => PcpError::Protocol(other.to_string()),
    }
}

fn unexpected(pdu: &Pdu) -> PcpError {
    PcpError::Protocol(format!("unexpected reply pdu: {pdu:?}"))
}

/// Map a server-side Error PDU onto the client error a `PcpContext`
/// caller would have seen in the same situation.
fn server_error(code: ErrorCode, detail: String) -> PcpError {
    match code {
        ErrorCode::NoSuchMetric => PcpError::NoSuchMetric(detail),
        ErrorCode::BadMetricId => PcpError::BadMetricId,
        ErrorCode::BadPdu | ErrorCode::BadVersion | ErrorCode::Busy | ErrorCode::TooLarge => {
            PcpError::Protocol(format!("{code:?}: {detail}"))
        }
    }
}

/// `MetricDesc.units` is `&'static str`, and a PMCD serves only these
/// three; any other string is a protocol error, never a new allocation
/// the peer can repeat without bound.
fn intern_units(units: &str) -> Result<&'static str, PcpError> {
    match units {
        "byte" => Ok("byte"),
        "count" => Ok("count"),
        "nanosecond" => Ok("nanosecond"),
        other => Err(PcpError::Protocol(format!("unknown units {other:?}"))),
    }
}

impl PmApi for WireClient {
    fn pm_lookup_name(&self, name: &str) -> Result<MetricId, PcpError> {
        // No PMNS name is this long, and the frame could not carry it.
        if name.len() > MAX_STRING {
            return Err(PcpError::NoSuchMetric(name.to_owned()));
        }
        match self.call(&Pdu::Lookup { name: name.into() })? {
            Pdu::LookupResult { id } => Ok(MetricId(id)),
            other => Err(unexpected(&other)),
        }
    }

    fn pm_get_desc(&self, id: MetricId) -> Result<MetricDesc, PcpError> {
        match self.call(&Pdu::Desc { id: id.0 })? {
            Pdu::DescResult {
                id,
                semantics,
                channel,
                direction,
                units,
                name,
            } => Ok(MetricDesc {
                id: MetricId(id),
                name,
                semantics: decode_semantics(semantics)
                    .ok_or_else(|| PcpError::Protocol(format!("bad semantics byte {semantics}")))?,
                units: intern_units(&units)?,
                channel: channel as usize,
                direction: decode_direction(direction)
                    .ok_or_else(|| PcpError::Protocol(format!("bad direction byte {direction}")))?,
            }),
            other => Err(unexpected(&other)),
        }
    }

    fn pm_get_children(&self, prefix: &str) -> Result<Vec<String>, PcpError> {
        // Nothing lives under a prefix longer than any PMNS name.
        if prefix.len() > MAX_STRING {
            return Ok(Vec::new());
        }
        match self.call(&Pdu::Children {
            prefix: prefix.into(),
        })? {
            Pdu::ChildrenResult { names } => Ok(names),
            other => Err(unexpected(&other)),
        }
    }

    fn pm_fetch(&self, requests: &[(MetricId, InstanceId)]) -> Result<Vec<u64>, PcpError> {
        let wire_reqs: Vec<(u32, u32)> = requests.iter().map(|&(m, i)| (m.0, i.0)).collect();
        // The trace id rides the fetch PDU so the server's handling span
        // can be stitched to this client span (obs::stitch).
        let trace_id = obs::trace::next_trace_id();
        let _span = obs::span!(obs::stitch::CLIENT_FETCH_SPAN, trace_id);
        match self.call(&Pdu::Fetch {
            trace_id,
            requests: wire_reqs,
        })? {
            Pdu::FetchResult { values } => {
                if values.len() != requests.len() {
                    return Err(PcpError::Protocol(format!(
                        "fetch result width {} for {} requests",
                        values.len(),
                        requests.len()
                    )));
                }
                // None marks an invalid instance — same surface behaviour
                // as PcpContext::pm_fetch.
                values
                    .into_iter()
                    .map(|v| v.ok_or(PcpError::BadInstance))
                    .collect()
            }
            other => Err(unexpected(&other)),
        }
    }

    // Wire fetches cost real wall-clock time, not simulated seconds, so
    // the default fetch_latency_s() of 0.0 is correct here.
}
