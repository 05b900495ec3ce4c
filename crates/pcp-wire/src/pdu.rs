//! The wire protocol: length-prefixed binary PDUs.
//!
//! Frame layout (all integers big-endian):
//!
//! ```text
//! +--------+---------+------+----------+------------------+
//! | magic  | version | type | reserved | payload length   |
//! | u16    | u8      | u8   | u16      | u16 (high) — see |
//! +--------+---------+------+----------+------------------+
//! ```
//!
//! Concretely: `magic: u16 = 0x5043` ("PC"), `version: u8`, `type: u8`,
//! `len: u32` — an 8-byte header followed by `len` payload bytes. The
//! decoder rejects frames whose `len` exceeds the negotiated maximum
//! *before* allocating, and every field read checks remaining bytes, so
//! truncated or hostile frames produce [`PduError`]s, never panics or
//! unbounded allocations. Strings are `u16`-length-prefixed UTF-8;
//! vectors are `u32`-count-prefixed with per-type caps.

use std::io::{self, Read, Write};

/// Frame magic: "PC".
pub const MAGIC: u16 = 0x5043;
/// The one protocol version this build speaks. Bumped on any layout
/// change; a frame header or `Creds` carrying any other version is
/// rejected with [`ErrorCode::BadVersion`]. `Fetch` and `Exposition`
/// both lead with an 8-byte trace-context id (0 = untraced).
pub const PROTOCOL_VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 8;
/// Default upper bound on a payload. Generous for a 16-metric namespace;
/// tight enough that a hostile length field cannot balloon memory.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;

/// Hard caps on variable-length fields (defense in depth beyond the
/// frame-level payload cap). A string's length must also fit its `u16`
/// prefix; callers that encode outside input check it against
/// [`MAX_STRING`] first.
pub(crate) const MAX_STRING: usize = 4096;
const MAX_FETCH: usize = 65_536;
const MAX_NAMES: usize = 65_536;
/// Cap on an exposition document — far above a realistic registry
/// (hundreds of metrics at ~64 bytes/line) but bounded.
const MAX_EXPOSITION: usize = 1 << 20;

/// PDU type tags.
const T_CREDS: u8 = 0x01;
const T_CREDS_ACK: u8 = 0x02;
const T_LOOKUP: u8 = 0x03;
const T_LOOKUP_RESULT: u8 = 0x04;
const T_DESC: u8 = 0x05;
const T_DESC_RESULT: u8 = 0x06;
const T_CHILDREN: u8 = 0x07;
const T_CHILDREN_RESULT: u8 = 0x08;
const T_FETCH: u8 = 0x0b;
const T_FETCH_RESULT: u8 = 0x0c;
const T_ERROR: u8 = 0x0d;
const T_EXPOSITION: u8 = 0x0e;
const T_EXPOSITION_RESULT: u8 = 0x0f;
/// Highest assigned type tag (the header decoder's range check).
const T_MAX: u8 = T_EXPOSITION_RESULT;

/// Error codes carried by [`Pdu::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    NoSuchMetric,
    BadMetricId,
    BadPdu,
    BadVersion,
    Busy,
    TooLarge,
}

impl ErrorCode {
    fn to_u32(self) -> u32 {
        match self {
            ErrorCode::NoSuchMetric => 1,
            ErrorCode::BadMetricId => 2,
            ErrorCode::BadPdu => 4,
            ErrorCode::BadVersion => 5,
            ErrorCode::Busy => 6,
            ErrorCode::TooLarge => 7,
        }
    }

    fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::NoSuchMetric,
            2 => ErrorCode::BadMetricId,
            4 => ErrorCode::BadPdu,
            5 => ErrorCode::BadVersion,
            6 => ErrorCode::Busy,
            7 => ErrorCode::TooLarge,
            _ => return None,
        })
    }
}

/// Decoded protocol data units.
#[derive(Clone, Debug, PartialEq)]
pub enum Pdu {
    /// Client hello: first PDU on every connection.
    Creds {
        version: u8,
    },
    /// Server reply to `Creds` with the assigned client id.
    CredsAck {
        version: u8,
        client_id: u64,
    },
    /// `pmLookupName`.
    Lookup {
        name: String,
    },
    LookupResult {
        id: u32,
    },
    /// `pmLookupDesc`.
    Desc {
        id: u32,
    },
    DescResult {
        id: u32,
        semantics: u8,
        channel: u32,
        direction: u8,
        units: String,
        name: String,
    },
    /// `pmGetChildren` (flattened subtree listing).
    Children {
        prefix: String,
    },
    ChildrenResult {
        names: Vec<String>,
    },
    /// `pmFetch`: batched `(metric id, instance)` reads. `trace_id`
    /// is the propagated span context: a non-zero id links the
    /// client's request span to the server's handling span so both
    /// sides stitch into one trace (`obs::stitch`); 0 means untraced.
    Fetch {
        trace_id: u64,
        requests: Vec<(u32, u32)>,
    },
    /// One slot per request; `None` marks a bad instance.
    FetchResult {
        values: Vec<Option<u64>>,
    },
    /// Request-level failure.
    Error {
        code: ErrorCode,
        detail: String,
    },
    /// Request the OpenMetrics text exposition of the server's merged
    /// metric view (self-metrics + obs registry). `trace_id` is the
    /// fan-out trace context; 0 means untraced.
    Exposition {
        trace_id: u64,
    },
    /// The exposition document (see `obs::openmetrics` for the
    /// grammar).
    ExpositionResult {
        text: String,
    },
}

/// Decode/transport failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PduError {
    /// Wrong magic — the peer is not speaking this protocol.
    BadMagic(u16),
    /// Version this implementation does not understand.
    BadVersion(u8),
    /// Unknown PDU type tag.
    BadType(u8),
    /// Declared payload length exceeds the permitted maximum.
    Oversized { len: u32, max: u32 },
    /// Payload ended before a declared field.
    Truncated,
    /// Payload longer than its fields (trailing garbage).
    TrailingBytes(usize),
    /// A counted field exceeds its hard cap.
    FieldTooLarge,
    /// Non-UTF-8 string payload.
    BadString,
    /// Invalid presence flag in a FetchResult slot.
    BadFlag(u8),
    /// Unknown error code in an Error PDU.
    BadErrorCode(u32),
}

impl std::fmt::Display for PduError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PduError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            PduError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            PduError::BadType(t) => write!(f, "unknown pdu type {t:#04x}"),
            PduError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds maximum {max}")
            }
            PduError::Truncated => write!(f, "truncated payload"),
            PduError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            PduError::FieldTooLarge => write!(f, "counted field exceeds its cap"),
            PduError::BadString => write!(f, "string field is not valid utf-8"),
            PduError::BadFlag(b) => write!(f, "invalid presence flag {b:#04x}"),
            PduError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
        }
    }
}

impl std::error::Error for PduError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_STRING);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

impl Pdu {
    /// The frame's type byte.
    pub(crate) fn type_tag(&self) -> u8 {
        match self {
            Pdu::Creds { .. } => T_CREDS,
            Pdu::CredsAck { .. } => T_CREDS_ACK,
            Pdu::Lookup { .. } => T_LOOKUP,
            Pdu::LookupResult { .. } => T_LOOKUP_RESULT,
            Pdu::Desc { .. } => T_DESC,
            Pdu::DescResult { .. } => T_DESC_RESULT,
            Pdu::Children { .. } => T_CHILDREN,
            Pdu::ChildrenResult { .. } => T_CHILDREN_RESULT,
            Pdu::Fetch { .. } => T_FETCH,
            Pdu::FetchResult { .. } => T_FETCH_RESULT,
            Pdu::Error { .. } => T_ERROR,
            Pdu::Exposition { .. } => T_EXPOSITION,
            Pdu::ExpositionResult { .. } => T_EXPOSITION_RESULT,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Pdu::Creds { version } => p.push(*version),
            Pdu::CredsAck { version, client_id } => {
                p.push(*version);
                put_u64(&mut p, *client_id);
            }
            Pdu::Lookup { name } => put_str(&mut p, name),
            Pdu::LookupResult { id } => put_u32(&mut p, *id),
            Pdu::Desc { id } => put_u32(&mut p, *id),
            Pdu::DescResult {
                id,
                semantics,
                channel,
                direction,
                units,
                name,
            } => {
                put_u32(&mut p, *id);
                p.push(*semantics);
                put_u32(&mut p, *channel);
                p.push(*direction);
                put_str(&mut p, units);
                put_str(&mut p, name);
            }
            Pdu::Children { prefix } => put_str(&mut p, prefix),
            Pdu::ChildrenResult { names } => {
                put_u32(&mut p, names.len() as u32);
                for n in names {
                    put_str(&mut p, n);
                }
            }
            Pdu::Fetch { trace_id, requests } => {
                put_u64(&mut p, *trace_id);
                put_u32(&mut p, requests.len() as u32);
                for &(id, inst) in requests {
                    put_u32(&mut p, id);
                    put_u32(&mut p, inst);
                }
            }
            Pdu::FetchResult { values } => {
                put_u32(&mut p, values.len() as u32);
                for v in values {
                    match v {
                        Some(x) => {
                            p.push(1);
                            put_u64(&mut p, *x);
                        }
                        None => p.push(0),
                    }
                }
            }
            Pdu::Error { code, detail } => {
                put_u32(&mut p, code.to_u32());
                put_str(&mut p, detail);
            }
            Pdu::Exposition { trace_id } => put_u64(&mut p, *trace_id),
            Pdu::ExpositionResult { text } => {
                debug_assert!(text.len() <= MAX_EXPOSITION);
                put_u32(&mut p, text.len() as u32);
                p.extend_from_slice(text.as_bytes());
            }
        }
        p
    }

    /// Encode the full frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let _span = obs::span!("wire.pdu.encode");
        let payload = self.payload();
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        put_u16(&mut frame, MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.push(self.type_tag());
        put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(&payload);
        frame
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PduError> {
        if self.remaining() < n {
            return Err(PduError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PduError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PduError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, PduError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PduError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_be_bytes(raw))
    }

    fn string(&mut self) -> Result<String, PduError> {
        let len = self.u16()? as usize;
        if len > MAX_STRING {
            return Err(PduError::FieldTooLarge);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PduError::BadString)
    }

    fn finish(self) -> Result<(), PduError> {
        if self.remaining() != 0 {
            return Err(PduError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Decoded header of an incoming frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    pub version: u8,
    pub type_tag: u8,
    pub payload_len: u32,
}

/// Parse and validate the 8-byte header. `max_payload` bounds the
/// declared length *before* any allocation happens.
pub fn decode_header(bytes: &[u8; HEADER_LEN], max_payload: u32) -> Result<FrameHeader, PduError> {
    let magic = u16::from_be_bytes([bytes[0], bytes[1]]);
    if magic != MAGIC {
        return Err(PduError::BadMagic(magic));
    }
    let version = bytes[2];
    if version != PROTOCOL_VERSION {
        return Err(PduError::BadVersion(version));
    }
    let type_tag = bytes[3];
    if !(T_CREDS..=T_MAX).contains(&type_tag) {
        return Err(PduError::BadType(type_tag));
    }
    let payload_len = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if payload_len > max_payload {
        return Err(PduError::Oversized {
            len: payload_len,
            max: max_payload,
        });
    }
    Ok(FrameHeader {
        version,
        type_tag,
        payload_len,
    })
}

/// Decode a payload for a validated header.
pub fn decode_payload(type_tag: u8, payload: &[u8]) -> Result<Pdu, PduError> {
    let _span = obs::span!("wire.pdu.decode", payload.len() as u64);
    let mut c = Cursor::new(payload);
    let pdu = match type_tag {
        T_CREDS => Pdu::Creds { version: c.u8()? },
        T_CREDS_ACK => Pdu::CredsAck {
            version: c.u8()?,
            client_id: c.u64()?,
        },
        T_LOOKUP => Pdu::Lookup { name: c.string()? },
        T_LOOKUP_RESULT => Pdu::LookupResult { id: c.u32()? },
        T_DESC => Pdu::Desc { id: c.u32()? },
        T_DESC_RESULT => Pdu::DescResult {
            id: c.u32()?,
            semantics: c.u8()?,
            channel: c.u32()?,
            direction: c.u8()?,
            units: c.string()?,
            name: c.string()?,
        },
        T_CHILDREN => Pdu::Children {
            prefix: c.string()?,
        },
        T_CHILDREN_RESULT => {
            let n = c.u32()? as usize;
            if n > MAX_NAMES {
                return Err(PduError::FieldTooLarge);
            }
            // Each name costs >= 2 bytes of payload; reject counts the
            // remaining bytes cannot possibly satisfy (pre-allocation guard).
            if n > c.remaining() / 2 + 1 {
                return Err(PduError::Truncated);
            }
            let mut names = Vec::with_capacity(n);
            for _ in 0..n {
                names.push(c.string()?);
            }
            Pdu::ChildrenResult { names }
        }
        T_FETCH => {
            let trace_id = c.u64()?;
            let n = c.u32()? as usize;
            if n > MAX_FETCH {
                return Err(PduError::FieldTooLarge);
            }
            if n > c.remaining() / 8 {
                return Err(PduError::Truncated);
            }
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                let id = c.u32()?;
                let inst = c.u32()?;
                requests.push((id, inst));
            }
            Pdu::Fetch { trace_id, requests }
        }
        T_FETCH_RESULT => {
            let n = c.u32()? as usize;
            if n > MAX_FETCH {
                return Err(PduError::FieldTooLarge);
            }
            if n > c.remaining() {
                return Err(PduError::Truncated);
            }
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                match c.u8()? {
                    0 => values.push(None),
                    1 => values.push(Some(c.u64()?)),
                    other => return Err(PduError::BadFlag(other)),
                }
            }
            Pdu::FetchResult { values }
        }
        T_ERROR => {
            let raw = c.u32()?;
            let code = ErrorCode::from_u32(raw).ok_or(PduError::BadErrorCode(raw))?;
            Pdu::Error {
                code,
                detail: c.string()?,
            }
        }
        T_EXPOSITION => Pdu::Exposition { trace_id: c.u64()? },
        T_EXPOSITION_RESULT => {
            let len = c.u32()? as usize;
            if len > MAX_EXPOSITION {
                return Err(PduError::FieldTooLarge);
            }
            let bytes = c.take(len)?;
            Pdu::ExpositionResult {
                text: String::from_utf8(bytes.to_vec()).map_err(|_| PduError::BadString)?,
            }
        }
        other => return Err(PduError::BadType(other)),
    };
    c.finish()?;
    Ok(pdu)
}

/// Decode one complete frame from a byte slice (header + payload).
pub fn decode_frame(frame: &[u8], max_payload: u32) -> Result<Pdu, PduError> {
    if frame.len() < HEADER_LEN {
        return Err(PduError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&frame[..HEADER_LEN]);
    let h = decode_header(&header, max_payload)?;
    let body = &frame[HEADER_LEN..];
    if body.len() < h.payload_len as usize {
        return Err(PduError::Truncated);
    }
    if body.len() > h.payload_len as usize {
        return Err(PduError::TrailingBytes(body.len() - h.payload_len as usize));
    }
    decode_payload(h.type_tag, body)
}

// ---------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------

/// Transport-level read/write failures.
#[derive(Debug)]
pub enum WireError {
    Io(io::Error),
    Pdu(PduError),
    /// Clean end-of-stream at a frame boundary.
    Closed,
    /// The peer stopped sending mid-frame for too many timeout ticks
    /// (slowloris guard).
    Stalled,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Pdu(e) => write!(f, "protocol error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Stalled => write!(f, "peer stalled mid-frame"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<PduError> for WireError {
    fn from(e: PduError) -> Self {
        WireError::Pdu(e)
    }
}

/// Write one frame.
pub fn write_pdu<W: Write>(w: &mut W, pdu: &Pdu) -> Result<(), WireError> {
    obs::sync::about_to_block("write_pdu");
    w.write_all(&pdu.encode())?;
    w.flush()?;
    Ok(())
}

/// Consecutive read-timeout ticks tolerated once a frame has started
/// before the peer is declared stalled.
const MAX_STALL_TICKS: u32 = 50;

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fill `buf` completely. `started` says whether earlier bytes of this
/// frame were already consumed; a timeout before any frame byte is
/// surfaced as `Io` (an idle tick the caller may ignore), while a timeout
/// *inside* a frame is tolerated for [`MAX_STALL_TICKS`] ticks and then
/// becomes [`WireError::Stalled`] — a peer that trickles half a frame
/// must not wedge a server worker, and resynchronising mid-stream is
/// impossible anyway.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], mut started: bool) -> Result<(), WireError> {
    let mut got = 0;
    let mut stalls = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if started || got > 0 {
                    WireError::Pdu(PduError::Truncated)
                } else {
                    WireError::Closed
                });
            }
            Ok(n) => {
                got += n;
                started = true;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if !started && got == 0 {
                    return Err(WireError::Io(e));
                }
                stalls += 1;
                if stalls > MAX_STALL_TICKS {
                    return Err(WireError::Stalled);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame. Returns [`WireError::Closed`] on EOF *before* any
/// header byte; EOF mid-frame is a protocol error, and a peer that stalls
/// mid-frame for too long earns [`WireError::Stalled`].
pub fn read_pdu<R: Read>(r: &mut R, max_payload: u32) -> Result<Pdu, WireError> {
    obs::sync::about_to_block("read_pdu");
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, false)?;
    let h = decode_header(&header, max_payload)?;
    let mut payload = vec![0u8; h.payload_len as usize];
    read_full(r, &mut payload, true)?;
    Ok(decode_payload(h.type_tag, &payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_pdus() -> Vec<Pdu> {
        vec![
            Pdu::Creds {
                version: PROTOCOL_VERSION,
            },
            Pdu::CredsAck {
                version: PROTOCOL_VERSION,
                client_id: 42,
            },
            Pdu::Lookup {
                name: "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value".into(),
            },
            Pdu::LookupResult { id: 7 },
            Pdu::Desc { id: 7 },
            Pdu::DescResult {
                id: 7,
                semantics: 0,
                channel: 3,
                direction: 1,
                units: "byte".into(),
                name: "a.b.c".into(),
            },
            Pdu::Children {
                prefix: "perfevent".into(),
            },
            Pdu::ChildrenResult {
                names: vec!["a.b".into(), "a.c".into()],
            },
            Pdu::Fetch {
                trace_id: 0,
                requests: vec![(0, 87), (1, 175)],
            },
            Pdu::Fetch {
                trace_id: u64::MAX,
                requests: vec![(7, 87)],
            },
            Pdu::FetchResult {
                values: vec![Some(64), None, Some(u64::MAX)],
            },
            Pdu::Error {
                code: ErrorCode::NoSuchMetric,
                detail: "perfevent.bogus".into(),
            },
            Pdu::Exposition { trace_id: 0 },
            Pdu::Exposition {
                trace_id: 0x0123_4567_89ab_cdef,
            },
            Pdu::ExpositionResult {
                text: "# TYPE pmcd_pdu_in counter\npmcd_pdu_in_total 3\n# EOF\n".into(),
            },
        ]
    }

    #[test]
    fn every_pdu_roundtrips() {
        for pdu in all_pdus() {
            let frame = pdu.encode();
            let back = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(back, pdu);
        }
    }

    #[test]
    fn every_truncation_is_rejected_without_panic() {
        for pdu in all_pdus() {
            let frame = pdu.encode();
            for cut in 0..frame.len() {
                let r = decode_frame(&frame[..cut], DEFAULT_MAX_PAYLOAD);
                assert!(r.is_err(), "{pdu:?} truncated to {cut} bytes decoded");
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = Pdu::LookupResult { id: 3 }.encode();
        // Rewrite the length field to a hostile value.
        frame[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        match decode_frame(&frame, DEFAULT_MAX_PAYLOAD) {
            Err(PduError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_PAYLOAD);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_magic_version_and_type_rejected() {
        let good = Pdu::LookupResult { id: 3 }.encode();

        let mut bad = good.clone();
        bad[0] = 0xff;
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(PduError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[2] = 99;
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(PduError::BadVersion(99))
        ));

        // 0x09 and 0x0a were the retired instance-domain query and reply.
        for tag in [0x09, 0x0a, 0x7f] {
            let mut bad = good.clone();
            bad[3] = tag;
            assert!(matches!(
                decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
                Err(PduError::BadType(t)) if t == tag
            ));
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut frame = Pdu::LookupResult { id: 3 }.encode();
        frame.push(0xaa);
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_PAYLOAD),
            Err(PduError::TrailingBytes(1))
        ));
    }

    #[test]
    fn hostile_counts_rejected() {
        // A Fetch claiming 2^32-1 entries in a 4-byte payload.
        let mut payload = Vec::new();
        super::put_u32(&mut payload, u32::MAX);
        let mut frame = Vec::new();
        super::put_u16(&mut frame, MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.push(T_FETCH);
        super::put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(&payload);
        assert!(decode_frame(&frame, DEFAULT_MAX_PAYLOAD).is_err());
    }

    /// Deterministic fuzz: random bytes through the frame decoder must
    /// never panic (they may or may not decode).
    #[test]
    fn random_bytes_never_panic_the_decoder() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..2000 {
            let len = (next() % 64) as usize;
            let mut buf = Vec::with_capacity(len);
            for _ in 0..len {
                buf.push(next() as u8);
            }
            // Half the rounds get a valid header prefix so payload
            // decoders are exercised too.
            if round % 2 == 0 && buf.len() >= HEADER_LEN {
                buf[0..2].copy_from_slice(&MAGIC.to_be_bytes());
                buf[2] = PROTOCOL_VERSION;
                buf[3] = T_CREDS + (buf[3] % (T_MAX - T_CREDS + 1));
                let plen = (buf.len() - HEADER_LEN) as u32;
                buf[4..8].copy_from_slice(&plen.to_be_bytes());
            }
            let _ = decode_frame(&buf, DEFAULT_MAX_PAYLOAD);
        }
    }

    #[test]
    fn oversized_exposition_rejected() {
        // A hand-built ExpositionResult whose inner length field claims
        // more than MAX_EXPOSITION (the frame itself stays small).
        let mut payload = Vec::new();
        super::put_u32(&mut payload, (MAX_EXPOSITION + 1) as u32);
        let mut frame = Vec::new();
        super::put_u16(&mut frame, MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.push(T_EXPOSITION_RESULT);
        super::put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(&payload);
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_PAYLOAD),
            Err(PduError::FieldTooLarge)
        ));
    }

    #[test]
    fn fetch_trace_id_rides_the_frame() {
        let pdu = Pdu::Fetch {
            trace_id: 0xdead_beef_0042,
            requests: vec![(3, 87)],
        };
        let frame = pdu.encode();
        match decode_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap() {
            Pdu::Fetch { trace_id, requests } => {
                assert_eq!(trace_id, 0xdead_beef_0042);
                assert_eq!(requests, vec![(3, 87)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exposition_trace_id_rides_the_frame() {
        let pdu = Pdu::Exposition {
            trace_id: 0xfeed_0042,
        };
        let frame = pdu.encode();
        assert_eq!(frame.len(), HEADER_LEN + 8, "the trace id is 8 bytes");
        assert_eq!(decode_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap(), pdu);
        // Untraced (id 0) has the same layout.
        let untraced = Pdu::Exposition { trace_id: 0 }.encode();
        assert_eq!(untraced.len(), HEADER_LEN + 8);
        // A missing or torn trace id (0..=7 bytes) does not decode.
        for cut in 0..8 {
            let mut torn = frame[..HEADER_LEN + cut].to_vec();
            torn[4..8].copy_from_slice(&(cut as u32).to_be_bytes());
            assert!(decode_frame(&torn, DEFAULT_MAX_PAYLOAD).is_err(), "{cut}");
        }
    }

    /// Exactly one version decodes: both neighbours of
    /// [`PROTOCOL_VERSION`] (the lower one is the retired v2) are
    /// `BadVersion`.
    #[test]
    fn both_neighbours_of_the_protocol_version_are_rejected() {
        let mut frame = Pdu::Exposition { trace_id: 0 }.encode();
        assert_eq!(frame[2], PROTOCOL_VERSION);
        assert!(decode_frame(&frame, DEFAULT_MAX_PAYLOAD).is_ok());
        for bad in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            frame[2] = bad;
            assert!(matches!(
                decode_frame(&frame, DEFAULT_MAX_PAYLOAD),
                Err(PduError::BadVersion(v)) if v == bad
            ));
        }
    }

    #[test]
    fn stream_reader_handles_split_frames() {
        let pdu = Pdu::Fetch {
            trace_id: 9,
            requests: vec![(1, 87)],
        };
        let frame = pdu.encode();
        // A reader that returns one byte at a time.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut r = OneByte(&frame, 0);
        assert_eq!(read_pdu(&mut r, DEFAULT_MAX_PAYLOAD).unwrap(), pdu);
        assert!(matches!(
            read_pdu(&mut r, DEFAULT_MAX_PAYLOAD),
            Err(WireError::Closed)
        ));
    }
}
