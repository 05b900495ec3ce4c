//! Gorilla-style chunk compression for one series.
//!
//! A [`Chunk`] is an immutable, byte-aligned encoding of a strictly
//! time-ordered run of `(t_ns, value)` samples:
//!
//! ```text
//! chunk      = varint(count) varint(t0) varint(v0) *delta
//! delta      = varint(zigzag(dod)) varint(value_xor)
//! dod        = (t[i] - t[i-1]) - (t[i-1] - t[i-2])      ; dt[-1] = 0
//! value_xor  = v[i] ^ v[i-1]
//! ```
//!
//! Timestamps compress as delta-of-delta (a fixed cadence costs one
//! byte per sample), values as the varint of the XOR against the
//! previous value (a slowly moving counter keeps only its changed low
//! bytes). Everything is exact `u64` arithmetic end to end, so values
//! beyond 2^53 — where an f64 path would silently round — survive the
//! round trip bit-for-bit.
//!
//! The encoder rejects non-advancing timestamps (`t <= last`): a chunk
//! is strictly increasing in time *by construction*, which is what lets
//! the delta-of-delta stay a signed 64-bit quantity and every reader
//! skip chunks by `[min_t, max_t]` alone.
//!
//! A chunk is a *view*: a shared `Arc<[u8]>`, the byte range of the
//! encoding inside it, and the `[min_t, max_t]`/count header. A freshly
//! sealed or merged chunk owns an exact-size buffer of its own; once its
//! segment is written the engine re-points it at the segment file's
//! bytes, and a decoded segment's chunks are views into the file from
//! the start, so every sealed byte is held once — in its file. The
//! range is checked where a view is made, never where it is read.

use std::ops::Range;
use std::sync::Arc;

use crate::StoreError;
use obs::series::Sample;

/// Bytes one sample occupies uncompressed (`u64` timestamp + `u64`
/// value) — the numerator of every compression-ratio figure.
pub const RAW_SAMPLE_BYTES: u64 = 16;

/// The widest gap between consecutive timestamps a chunk can encode:
/// the delta must fit the signed 64-bit delta-of-delta arithmetic.
pub(crate) const MAX_GAP_NS: u64 = i64::MAX.unsigned_abs();

/// Append `v` to `out` as a LEB128 varint (7 bits per byte, high bit =
/// continuation).
#[inline]
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint at `pos`, advancing it.
#[inline]
pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(StoreError::Corrupt("varint runs past end of chunk"));
        };
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(StoreError::Corrupt("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(StoreError::Corrupt("varint longer than 10 bytes"));
        }
    }
}

/// Map a signed delta-of-delta onto an unsigned varint domain.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// An immutable compressed run of samples from one series: a view of
/// its encoding inside a shared buffer (its own, or its segment file).
#[derive(Clone)]
pub struct Chunk {
    buf: Arc<[u8]>,
    /// Where the encoding lies in `buf`; inside it by construction.
    range: Range<usize>,
    min_t: u64,
    max_t: u64,
    count: u32,
}

/// Two chunks are equal when they encode the same samples, whichever
/// buffers they view.
impl PartialEq for Chunk {
    fn eq(&self, other: &Self) -> bool {
        (self.min_t, self.max_t, self.count) == (other.min_t, other.max_t, other.count)
            && self.bytes() == other.bytes()
    }
}

impl Eq for Chunk {}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk")
            .field("bytes", &self.bytes())
            .field("min_t", &self.min_t)
            .field("max_t", &self.max_t)
            .field("count", &self.count)
            .finish()
    }
}

impl Chunk {
    /// The encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        // Every constructor checked `range` against `buf`.
        self.buf.get(self.range.clone()).unwrap_or_default()
    }

    /// Timestamp of the first sample.
    pub fn min_t(&self) -> u64 {
        self.min_t
    }

    /// Timestamp of the last sample.
    pub fn max_t(&self) -> u64 {
        self.max_t
    }

    /// Number of samples.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// True when the chunk overlaps the inclusive window `[from, to]`.
    pub fn overlaps(&self, from: u64, to: u64) -> bool {
        self.min_t <= to && self.max_t >= from
    }

    /// Reconstruct a chunk from its encoded bytes. The header is
    /// re-derived by a full decode so a corrupt payload surfaces as a
    /// typed error here rather than at query time.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        let buf: Arc<[u8]> = bytes.into();
        Chunk::view(&buf, 0..buf.len())
    }

    /// The chunk encoded at `range` of `buf` (segment decode path),
    /// sharing `buf` instead of copying out of it; validated and its
    /// header derived exactly as in [`Chunk::from_bytes`].
    pub(crate) fn view(buf: &Arc<[u8]>, range: Range<usize>) -> Result<Self, StoreError> {
        let bytes = buf
            .get(range.clone())
            .ok_or(StoreError::Corrupt("chunk runs past end of segment"))?;
        let (mut min_t, mut max_t, mut count) = (0u64, 0u64, 0u64);
        walk(bytes, |s| {
            if count == 0 {
                min_t = s.t_ns;
            }
            max_t = s.t_ns;
            count += 1;
            true
        })?;
        let count = u32::try_from(count)
            .map_err(|_| StoreError::Corrupt("chunk sample count overflows u32"))?;
        Ok(Chunk {
            buf: Arc::clone(buf),
            range,
            min_t,
            max_t,
            count,
        })
    }

    /// This chunk as a view of `range` of `buf`, which must hold these
    /// very bytes there (the segment file it was just written into).
    /// The header carries over; the buffer it viewed before is released
    /// once nothing else holds it.
    pub(crate) fn moved_to(
        &self,
        buf: &Arc<[u8]>,
        range: Range<usize>,
    ) -> Result<Self, StoreError> {
        if buf.get(range.clone()) != Some(self.bytes()) {
            return Err(StoreError::Corrupt("chunk is not where its segment put it"));
        }
        Ok(Chunk {
            buf: Arc::clone(buf),
            range,
            ..*self
        })
    }

    /// Decode every sample, oldest first.
    pub fn samples(&self) -> Result<Vec<Sample>, StoreError> {
        let mut out = Vec::with_capacity(self.count as usize);
        walk(self.bytes(), |s| {
            out.push(s);
            true
        })?;
        Ok(out)
    }

    /// Hand every sample to `visit`, oldest first, stopping at the
    /// first error it returns.
    pub(crate) fn try_for_each(
        &self,
        mut visit: impl FnMut(Sample) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut failed = Ok(());
        walk(self.bytes(), |s| {
            failed = visit(s);
            failed.is_ok()
        })?;
        failed
    }

    /// Append the samples inside the inclusive window `[from, to]` to
    /// `out`, oldest first. A chunk wholly inside the window is appended
    /// without testing each sample against it; otherwise decoding stops
    /// once a sample reaches `to`, so a window ending mid-chunk does not
    /// pay for the rest.
    pub fn samples_in(&self, from: u64, to: u64, out: &mut Vec<Sample>) -> Result<(), StoreError> {
        if from <= self.min_t && self.max_t <= to {
            return walk(self.bytes(), |s| {
                out.push(s);
                true
            });
        }
        walk(self.bytes(), |s| {
            if s.t_ns >= from && s.t_ns <= to {
                out.push(s);
            }
            s.t_ns < to
        })
    }
}

/// Bytes ahead of a delta pair that let [`walk`] decode it from a fixed
/// window: two varints of at most [`FAST_VARINT`] bytes each fit.
const FAST_WINDOW: usize = 20;

/// The longest varint the fast path decodes: nine 7-bit groups carry 63
/// bits, so no shift can overflow and no byte needs the `u64` check.
const FAST_VARINT: usize = 9;

/// Decode a varint of at most [`FAST_VARINT`] bytes from a fixed window:
/// the value and its length, or `None` when it runs longer.
#[inline(always)]
fn fast_varint(w: &[u8; FAST_VARINT]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &byte) in w.iter().enumerate() {
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Where a walk stands between two delta pairs: the byte the next pair
/// starts at, and the last timestamp delta and timestamp.
#[derive(Clone, Copy)]
struct Cursor {
    pos: usize,
    dt: i64,
    t: u64,
}

/// The delta pair at `at` by the fast path: where the walk stands after
/// it, and the value XOR. `None` when fewer than [`FAST_WINDOW`] bytes
/// remain, a varint runs past [`FAST_VARINT`] bytes, or the timestamp
/// would not advance or would overflow: [`checked_step`] then decodes
/// the same pair and judges it.
#[inline(always)]
fn fast_step(bytes: &[u8], at: Cursor) -> Option<(Cursor, u64)> {
    let w: &[u8; FAST_WINDOW] = bytes.get(at.pos..)?.first_chunk()?;
    let (dod, a) = fast_varint(w.first_chunk()?)?;
    let (xor, b) = fast_varint(w.get(a..)?.first_chunk()?)?;
    let dt = at.dt.wrapping_add(unzigzag(dod));
    if dt <= 0 {
        return None;
    }
    let t = at.t.checked_add(dt.unsigned_abs())?;
    let pos = at.pos + a + b;
    Some((Cursor { pos, dt, t }, xor))
}

/// The delta pair at `at`, every byte bounds-checked: where the walk
/// stands after it and the value XOR, or the typed error of the first
/// thing wrong with the pair.
#[cold]
fn checked_step(bytes: &[u8], at: Cursor) -> Result<(Cursor, u64), StoreError> {
    let mut pos = at.pos;
    let dod = unzigzag(get_varint(bytes, &mut pos)?);
    let dt = at.dt.wrapping_add(dod);
    let step = u64::try_from(dt).map_err(|_| StoreError::Corrupt("negative timestamp delta"))?;
    if step == 0 {
        return Err(StoreError::Corrupt("zero timestamp delta"));
    }
    let t =
        at.t.checked_add(step)
            .ok_or(StoreError::Corrupt("timestamp overflows u64"))?;
    let xor = get_varint(bytes, &mut pos)?;
    Ok((Cursor { pos, dt, t }, xor))
}

/// Decode a chunk payload, handing each sample to `visit` oldest first
/// until it returns `false` or the payload ends. A walk that runs to the
/// end also validates that nothing trails the last sample.
///
/// The one decoder. Each delta pair is read by [`fast_step`] from a
/// fixed window, without a bounds check per byte; anything it does not
/// accept — the payload's last bytes, a 10-byte varint, a timestamp
/// that does not advance or overflows — is read again at the same
/// position by [`checked_step`], which raises the typed error if there
/// is one.
fn walk(bytes: &[u8], mut visit: impl FnMut(Sample) -> bool) -> Result<(), StoreError> {
    let mut pos = 0usize;
    let count = get_varint(bytes, &mut pos)?;
    if count == 0 {
        return Err(StoreError::Corrupt("chunk encodes zero samples"));
    }
    if count > bytes.len() as u64 {
        // Each encoded sample costs at least two bytes after the first;
        // a count beyond the payload size is corruption, not data.
        return Err(StoreError::Corrupt("chunk count exceeds payload size"));
    }
    let t = get_varint(bytes, &mut pos)?;
    let mut v = get_varint(bytes, &mut pos)?;
    if !visit(Sample { t_ns: t, value: v }) {
        return Ok(());
    }
    let mut at = Cursor { pos, dt: 0, t };
    for _ in 1..count {
        let xor;
        (at, xor) = match fast_step(bytes, at) {
            Some(step) => step,
            None => checked_step(bytes, at)?,
        };
        v ^= xor;
        if !visit(Sample {
            t_ns: at.t,
            value: v,
        }) {
            return Ok(());
        }
    }
    if at.pos != bytes.len() {
        return Err(StoreError::Corrupt("trailing bytes after last sample"));
    }
    Ok(())
}

/// The most bytes a chunk of `n` samples can encode to: a 5-byte count
/// (a `u32`), then a 10-byte varint for each of the first timestamp and
/// value and for both halves of every later pair.
fn max_encoded_len(n: usize) -> usize {
    5 + 20 * n
}

/// Encode `samples` (strictly increasing in time) into one chunk.
pub fn encode(samples: &[Sample]) -> Result<Chunk, StoreError> {
    encode_with(samples, &mut Vec::new())
}

/// [`encode`] through `bytes`, a scratch buffer the caller reuses
/// across seals: reserved once for the widest encoding, so it never
/// grows mid-encode, and the chunk owns one exact-size copy of it.
pub(crate) fn encode_with(samples: &[Sample], bytes: &mut Vec<u8>) -> Result<Chunk, StoreError> {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return Err(StoreError::EmptyChunk);
    };
    let count =
        u32::try_from(samples.len()).map_err(|_| StoreError::Corrupt("too many samples"))?;
    bytes.clear();
    bytes.reserve(max_encoded_len(samples.len()));
    put_varint(bytes, u64::from(count));
    put_varint(bytes, first.t_ns);
    put_varint(bytes, first.value);
    let mut prev = *first;
    let mut prev_dt = 0i64;
    for s in &samples[1..] {
        if s.t_ns <= prev.t_ns {
            return Err(StoreError::OutOfOrder {
                last_t_ns: prev.t_ns,
                t_ns: s.t_ns,
            });
        }
        let dt = i64::try_from(s.t_ns - prev.t_ns).map_err(|_| StoreError::TimestampGap {
            last_t_ns: prev.t_ns,
            t_ns: s.t_ns,
        })?;
        put_varint(bytes, zigzag(dt.wrapping_sub(prev_dt)));
        put_varint(bytes, s.value ^ prev.value);
        prev_dt = dt;
        prev = *s;
    }
    let buf: Arc<[u8]> = Arc::from(&bytes[..]);
    Ok(Chunk {
        range: 0..buf.len(),
        buf,
        min_t: first.t_ns,
        max_t: last.t_ns,
        count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t_ns: u64, value: u64) -> Sample {
        Sample { t_ns, value }
    }

    #[test]
    fn round_trips_typical_counter_series() {
        let samples: Vec<Sample> = (0..1000u64)
            .map(|i| s(1_000_000 + i * 250_000, 7_000 + i * i))
            .collect();
        let chunk = encode(&samples).unwrap();
        assert_eq!(chunk.count(), 1000);
        assert_eq!(chunk.min_t(), samples[0].t_ns);
        assert_eq!(chunk.max_t(), samples[999].t_ns);
        assert_eq!(chunk.samples().unwrap(), samples);
        // A fixed cadence must compress well below raw size.
        assert!((chunk.bytes().len() as u64) < RAW_SAMPLE_BYTES * 1000 / 3);
    }

    #[test]
    fn round_trips_values_beyond_f64_mantissa() {
        let samples = vec![
            s(10, u64::MAX),
            s(20, u64::MAX - 1),
            s(30, (1 << 53) + 1),
            s(40, 0),
            s(50, 1 << 63),
        ];
        let chunk = encode(&samples).unwrap();
        assert_eq!(chunk.samples().unwrap(), samples);
        let rebuilt = Chunk::from_bytes(chunk.bytes().to_vec()).unwrap();
        assert_eq!(rebuilt, chunk);
    }

    #[test]
    fn windowed_decode_is_the_filtered_full_decode() {
        let samples: Vec<Sample> = (1..=20u64).map(|i| s(i * 10, i * i)).collect();
        let chunk = encode(&samples).unwrap();
        // Whole chunk, mid-chunk both ends, between two samples, one
        // sample, before the first, after the last, inverted.
        for (from, to) in [
            (0, u64::MAX),
            (35, 142),
            (41, 49),
            (70, 70),
            (0, 9),
            (201, 900),
            (150, 50),
        ] {
            let mut got = vec![s(1, 1)];
            chunk.samples_in(from, to, &mut got).unwrap();
            let mut want = vec![s(1, 1)];
            want.extend(samples.iter().filter(|p| p.t_ns >= from && p.t_ns <= to));
            assert_eq!(got, want, "window [{from}, {to}]");
        }
    }

    #[test]
    fn rejects_non_advancing_timestamps() {
        let err = encode(&[s(10, 1), s(10, 2)]).unwrap_err();
        assert!(matches!(
            err,
            StoreError::OutOfOrder {
                last_t_ns: 10,
                t_ns: 10
            }
        ));
        assert!(encode(&[s(10, 1), s(5, 2)]).is_err());
        assert!(matches!(encode(&[]), Err(StoreError::EmptyChunk)));
        let far = 1 + MAX_GAP_NS + 1;
        assert_eq!(
            encode(&[s(1, 1), s(far, 2)]),
            Err(StoreError::TimestampGap {
                last_t_ns: 1,
                t_ns: far
            })
        );
        let widest = encode(&[s(1, 1), s(1 + MAX_GAP_NS, 2)]).unwrap();
        assert_eq!(widest.samples().unwrap()[1].t_ns, 1 + MAX_GAP_NS);
    }

    #[test]
    fn decode_rejects_corruption() {
        let chunk = encode(&[s(1, 2), s(3, 4), s(9, 5)]).unwrap();
        let good = chunk.bytes().to_vec();
        // Truncation at every prefix length must fail, never panic.
        for n in 0..good.len() {
            assert!(Chunk::from_bytes(good[..n].to_vec()).is_err(), "len {n}");
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(Chunk::from_bytes(long).is_err());
        // Zero-count payload.
        assert!(Chunk::from_bytes(vec![0]).is_err());
    }

    #[test]
    fn views_share_their_buffer_and_check_their_range() {
        let chunk = encode(&[s(1, 2), s(3, 4), s(9, 5)]).unwrap();
        let mut file = vec![0xee; 3];
        file.extend_from_slice(chunk.bytes());
        file.push(0xee);
        let file: Arc<[u8]> = file.into();
        let at = 3..3 + chunk.bytes().len();
        let viewed = Chunk::view(&file, at.clone()).unwrap();
        let moved = chunk.moved_to(&file, at.clone()).unwrap();
        assert_eq!((&viewed, &moved), (&chunk, &chunk));
        for c in [&viewed, &moved] {
            assert_eq!(c.bytes().as_ptr_range(), file[at.clone()].as_ptr_range());
        }
        // A range past the buffer, or one holding other bytes, is a
        // typed error.
        assert!(Chunk::view(&file, 3..file.len() + 1).is_err());
        assert!(chunk.moved_to(&file, 2..2 + chunk.bytes().len()).is_err());
        assert!(chunk.moved_to(&file, 4..file.len() + 1).is_err());
    }

    #[test]
    fn the_scratch_buffer_never_grows_during_an_encode() {
        // Values flipping every bit make each value XOR a 10-byte
        // varint, past three bytes a sample several times over.
        let widest: Vec<Sample> = (0..64u64)
            .map(|i| s((i + 1) * 1_000, if i % 2 == 0 { 0 } else { u64::MAX }))
            .collect();
        let mut scratch = Vec::new();
        let chunk = encode_with(&widest, &mut scratch).unwrap();
        assert_eq!(chunk.samples().unwrap(), widest);
        assert!(chunk.bytes().len() > 4 + 3 * widest.len());
        // Reserved once, exactly, and never reallocated: a buffer that
        // outgrew its reservation would have doubled.
        assert_eq!(scratch.capacity(), max_encoded_len(widest.len()));
        let (at, capacity) = (scratch.as_ptr(), scratch.capacity());
        for n in [1, 2, 17, 64] {
            encode_with(&widest[..n], &mut scratch).unwrap();
            assert_eq!((scratch.as_ptr(), scratch.capacity()), (at, capacity));
        }
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX, 1 << 63, (1 << 53) + 1] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // An 11-byte continuation run must be rejected.
        let mut pos = 0;
        assert!(get_varint(&[0x80; 11], &mut pos).is_err());
    }
}

#[cfg(test)]
mod differential;
