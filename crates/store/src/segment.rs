//! Segment files: the on-"disk" unit of the store.
//!
//! A segment is an immutable file holding many chunks from many series,
//! written once when the ingest staging area fills (or a compaction
//! rewrites history) and read concurrently ever after:
//!
//! ```text
//! segment  = magic("PSEG") u8(version) varint(entry_count) *entry
//! entry    = key semantics(u8) varint(chunk_len) chunk
//! key      = varint(metric_len) metric varint(label_count)
//!            *(varint(klen) k varint(vlen) v)
//! ```
//!
//! Every multi-byte integer is a LEB128 varint (shared with the chunk
//! codec) so the format has no endianness and truncation at any byte
//! offset decodes to a typed [`StoreError`], never a panic. The decoded
//! in-memory form ([`Segment`]) carries each entry's `[min_t, max_t]`
//! bounds — re-derived from the chunk payloads at open, so a corrupt
//! file is rejected at the door rather than at query time.
//!
//! A segment's chunks are views into its file: [`decode`] makes each
//! one over the file's `Arc<[u8]>` in the same validating walk, and a
//! segment the engine writes has its chunks re-pointed from their
//! staged buffers at the bytes [`MemFs::create`] returned, so the
//! store holds every sealed byte once. A reader that keeps a segment
//! keeps its file's bytes alive, removed or not.
//!
//! What makes a windowed query cost its window is derived at the same
//! moment and lives only in memory: the segment's own `[min_t, max_t]`,
//! so a query dismisses a segment outside its window with two
//! comparisons, and the *runs* — entries are ordered by (series, chunk
//! `min_t`), so each series is one contiguous, time-ordered slice and a
//! selector is evaluated once per series, not once per chunk. The
//! engine orders entries before [`encode`], so file order is memory
//! order; a version-1 file written in any other order is still
//! accepted and put in order at open.

use std::ops::Range;
use std::sync::Arc;

use obs::metrics::ExportSemantics;

use crate::chunk::{get_varint, put_varint, Chunk};
use crate::index::SeriesKey;
use crate::memfs::MemFs;
use crate::StoreError;

const MAGIC: &[u8; 4] = b"PSEG";
const VERSION: u8 = 1;

/// One chunk of one series inside a segment.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Identity of the series this chunk belongs to.
    pub key: SeriesKey,
    /// Counter or instant semantics, preserved for derivations.
    pub semantics: ExportSemantics,
    /// The compressed samples.
    pub chunk: Chunk,
}

impl Entry {
    /// Where this entry sorts inside a segment: by series, then time.
    fn order(&self) -> (&SeriesKey, u64) {
        (&self.key, self.chunk.min_t())
    }
}

/// A decoded immutable segment. Its chunks view its file's bytes and
/// keep them alive through the file's `Arc` handle (see [`MemFs`]), so
/// a segment outlives the removal of its file for as long as any
/// reader holds it.
#[derive(Clone, Debug)]
pub struct Segment {
    /// File name inside the store's [`crate::memfs::MemFs`].
    pub file: String,
    /// Encoded size in bytes.
    pub bytes: usize,
    /// Ordered by (series, chunk `min_t`).
    entries: Vec<Entry>,
    /// One index range of `entries` per series, in series order.
    runs: Vec<Range<usize>>,
    min_t: u64,
    max_t: u64,
    /// Total samples across all entries.
    samples: u64,
}

impl Segment {
    /// The in-memory form of `entries`, stored as `file` in `bytes`
    /// encoded bytes: derives the time bounds and the series runs, and
    /// puts entries that arrive out of (series, chunk `min_t`) order in
    /// order first (the engine's never do).
    pub fn new(file: String, bytes: usize, mut entries: Vec<Entry>) -> Self {
        if !entries.is_sorted_by_key(Entry::order) {
            entries.sort_by(|a, b| a.order().cmp(&b.order()));
        }
        let runs = entries
            .chunk_by(|a, b| a.key == b.key)
            .scan(0, |start, run| {
                let range = *start..*start + run.len();
                *start = range.end;
                Some(range)
            })
            .collect();
        let min_t = entries.iter().map(|e| e.chunk.min_t()).min();
        let max_t = entries.iter().map(|e| e.chunk.max_t()).max();
        let samples = entries.iter().map(|e| u64::from(e.chunk.count())).sum();
        Segment {
            file,
            bytes,
            entries,
            runs,
            min_t: min_t.unwrap_or(0),
            max_t: max_t.unwrap_or(0),
            samples,
        }
    }

    /// Every entry, ordered by (series, chunk `min_t`).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The entries one series at a time: each slice is every chunk of
    /// one series in this segment, oldest first.
    pub fn runs(&self) -> impl Iterator<Item = &[Entry]> {
        self.runs.iter().map(|r| &self.entries[r.clone()])
    }

    /// Total samples across all entries.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Oldest timestamp in the segment (0 when empty).
    pub fn min_t(&self) -> u64 {
        self.min_t
    }

    /// Newest timestamp in the segment (0 when empty).
    pub fn max_t(&self) -> u64 {
        self.max_t
    }

    /// True when some sample may fall inside the inclusive window
    /// `[from, to]`.
    pub fn overlaps(&self, from: u64, to: u64) -> bool {
        self.min_t <= to && self.max_t >= from
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, StoreError> {
    let len = get_varint(bytes, pos)?;
    let len = usize::try_from(len).map_err(|_| StoreError::Corrupt("string length over usize"))?;
    let end = pos
        .checked_add(len)
        .ok_or(StoreError::Corrupt("string length overflows"))?;
    if end > bytes.len() {
        return Err(StoreError::Corrupt("string runs past end of segment"));
    }
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| StoreError::Corrupt("string is not UTF-8"))?;
    *pos = end;
    Ok(s.to_owned())
}

fn semantics_byte(s: ExportSemantics) -> u8 {
    match s {
        ExportSemantics::Counter => 0,
        ExportSemantics::Instant => 1,
    }
}

fn semantics_from(b: u8) -> Result<ExportSemantics, StoreError> {
    match b {
        0 => Ok(ExportSemantics::Counter),
        1 => Ok(ExportSemantics::Instant),
        _ => Err(StoreError::Corrupt("unknown semantics byte")),
    }
}

/// Encode `entries` into segment file bytes.
pub fn encode(entries: &[Entry]) -> Vec<u8> {
    encode_reporting(entries, |_| {})
}

/// [`encode`], handing `chunk_at` each entry's chunk range inside the
/// file, in entry order.
fn encode_reporting(entries: &[Entry], mut chunk_at: impl FnMut(Range<usize>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * entries.len() + 16);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_varint(&mut out, entries.len() as u64);
    for e in entries {
        put_str(&mut out, e.key.metric());
        put_varint(&mut out, e.key.labels().len() as u64);
        for (k, v) in e.key.labels() {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out.push(semantics_byte(e.semantics));
        put_varint(&mut out, e.chunk.bytes().len() as u64);
        let start = out.len();
        out.extend_from_slice(e.chunk.bytes());
        chunk_at(start..out.len());
    }
    out
}

/// Write `entries`, already in (series, chunk `min_t`) order, as the
/// file `name` on `fs`, and return its segment with every chunk
/// re-pointed at the file's bytes: the buffers the chunks owned until
/// now are released, so the file is the one copy.
pub(crate) fn write(
    fs: &MemFs,
    name: String,
    mut entries: Vec<Entry>,
) -> Result<Segment, StoreError> {
    let mut ranges = Vec::with_capacity(entries.len());
    let bytes = encode_reporting(&entries, |range| ranges.push(range));
    let len = bytes.len();
    let file = fs.create(&name, bytes)?;
    for (e, range) in entries.iter_mut().zip(ranges) {
        e.chunk = e.chunk.moved_to(&file, range)?;
    }
    Ok(Segment::new(name, len, entries))
}

/// Decode a segment file. Every malformation — bad magic, unknown
/// version, truncation, corrupt chunk payloads — is a typed error.
pub fn decode(file: &str, bytes: &Arc<[u8]>) -> Result<Segment, StoreError> {
    if bytes.len() < MAGIC.len() + 1 || &bytes[..4] != MAGIC {
        return Err(StoreError::Corrupt("segment magic mismatch"));
    }
    if bytes[4] != VERSION {
        return Err(StoreError::Corrupt("unsupported segment version"));
    }
    let mut pos = 5usize;
    let count = get_varint(bytes, &mut pos)?;
    if count > bytes.len() as u64 {
        return Err(StoreError::Corrupt("entry count exceeds file size"));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let metric = get_str(bytes, &mut pos)?;
        let nlabels = get_varint(bytes, &mut pos)?;
        if nlabels > bytes.len() as u64 {
            return Err(StoreError::Corrupt("label count exceeds file size"));
        }
        let mut key = SeriesKey::new(metric);
        for _ in 0..nlabels {
            let k = get_str(bytes, &mut pos)?;
            let v = get_str(bytes, &mut pos)?;
            key = key.with_label(k, v);
        }
        let Some(&sem) = bytes.get(pos) else {
            return Err(StoreError::Corrupt("segment ends inside an entry"));
        };
        pos += 1;
        let semantics = semantics_from(sem)?;
        let clen = get_varint(bytes, &mut pos)?;
        let clen =
            usize::try_from(clen).map_err(|_| StoreError::Corrupt("chunk length over usize"))?;
        let end = pos
            .checked_add(clen)
            .ok_or(StoreError::Corrupt("chunk length overflows"))?;
        let chunk = Chunk::view(bytes, pos..end)?;
        pos = end;
        entries.push(Entry {
            key,
            semantics,
            chunk,
        });
    }
    if pos != bytes.len() {
        return Err(StoreError::Corrupt("trailing bytes after last entry"));
    }
    Ok(Segment::new(file.to_owned(), bytes.len(), entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::series::Sample;

    fn entry(metric: &str, host: &str, base: u64) -> Entry {
        let samples: Vec<Sample> = (0..100u64)
            .map(|i| Sample {
                t_ns: base + i * 1_000,
                value: i * 3,
            })
            .collect();
        Entry {
            key: SeriesKey::new(metric).with_label("host", host),
            semantics: ExportSemantics::Counter,
            chunk: crate::chunk::encode(&samples).unwrap(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let entries = vec![
            entry("mba.ch0.bytes", "h0", 1_000),
            entry("mba.ch1.bytes", "h1", 5_000),
        ];
        let bytes = encode(&entries);
        let arc: Arc<[u8]> = bytes.into();
        let seg = decode("seg-0", &arc).unwrap();
        assert_eq!(seg.entries().len(), 2);
        assert_eq!(seg.samples(), 200);
        for (a, b) in seg.entries().iter().zip(&entries) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.semantics, b.semantics);
            assert_eq!(a.chunk, b.chunk);
        }
        assert_eq!(seg.min_t(), 1_000);
        assert_eq!(seg.max_t(), 5_000 + 99 * 1_000);
    }

    /// What every reader relies on: each series is one contiguous run,
    /// runs are in series order, chunks inside a run are oldest first,
    /// and the bounds cover exactly the entries.
    fn assert_well_formed(seg: &Segment) {
        let entries = seg.entries();
        assert!(entries.is_sorted_by_key(Entry::order));
        let runs: Vec<&[Entry]> = seg.runs().collect();
        assert_eq!(runs.concat().len(), entries.len());
        for run in &runs {
            assert!(run.iter().all(|e| e.key == run[0].key));
        }
        assert!(runs.windows(2).all(|w| w[0][0].key < w[1][0].key));
        assert_eq!(
            seg.min_t(),
            entries.iter().map(|e| e.chunk.min_t()).min().unwrap()
        );
        assert_eq!(
            seg.max_t(),
            entries.iter().map(|e| e.chunk.max_t()).max().unwrap()
        );
    }

    #[test]
    fn ordered_entries_round_trip_in_order_with_bounds_and_runs() {
        let entries = vec![
            entry("mba.ch0.bytes", "h0", 1_000),
            entry("mba.ch0.bytes", "h0", 200_000),
            entry("mba.ch0.bytes", "h1", 1_000),
            entry("mba.ch1.bytes", "h0", 50_000),
            entry("mba.ch1.bytes", "h0", 300_000),
        ];
        let built = Segment::new("seg-0".into(), 0, entries.clone());
        let arc: Arc<[u8]> = encode(built.entries()).into();
        let seg = decode("seg-0", &arc).unwrap();
        assert_well_formed(&seg);
        for (a, b) in seg.entries().iter().zip(&entries) {
            assert_eq!((&a.key, &a.chunk), (&b.key, &b.chunk));
        }
        let runs: Vec<usize> = seg.runs().map(<[Entry]>::len).collect();
        assert_eq!(runs, [2, 1, 2]);
        assert_eq!((seg.min_t(), seg.max_t()), (1_000, 300_000 + 99_000));
        assert!(seg.overlaps(0, 1_000) && seg.overlaps(399_000, u64::MAX));
        assert!(!seg.overlaps(0, 999) && !seg.overlaps(399_001, u64::MAX));
    }

    #[test]
    fn unordered_file_is_put_in_order_at_open() {
        // A version-1 file in seal order: series interleaved, and one
        // series' chunks newest first.
        let entries = vec![
            entry("b", "h", 200_000),
            entry("a", "h", 1_000),
            entry("b", "h", 1_000),
            entry("a", "g", 7_000),
        ];
        let arc: Arc<[u8]> = encode(&entries).into();
        let seg = decode("old", &arc).unwrap();
        assert_well_formed(&seg);
        assert_eq!(seg.entries().len(), 4);
        assert_eq!(seg.samples(), 400);
        let runs: Vec<usize> = seg.runs().map(<[Entry]>::len).collect();
        assert_eq!(runs, [1, 1, 2]);
        let empty = Segment::new("none".into(), 0, Vec::new());
        assert_eq!(empty.runs().count(), 0);
    }

    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let bytes = encode(&[entry("m", "h", 10)]);
        for n in 0..bytes.len() {
            let arc: Arc<[u8]> = bytes[..n].to_vec().into();
            assert!(decode("t", &arc).is_err(), "accepted truncation at {n}");
        }
        let arc: Arc<[u8]> = bytes.clone().into();
        assert!(decode("ok", &arc).is_ok());
    }

    #[test]
    fn flipped_bytes_decode_well_formed_or_fail_typed() {
        let bytes = encode(&[
            entry("b", "h", 200_000),
            entry("a", "h", 1_000),
            entry("b", "h", 1_000),
        ]);
        for at in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut hostile = bytes.clone();
                hostile[at] ^= flip;
                let arc: Arc<[u8]> = hostile.into();
                if let Ok(seg) = decode("h", &arc) {
                    assert_well_formed(&seg);
                }
            }
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = encode(&[entry("m", "h", 10)]);
        bytes[0] = b'X';
        let arc: Arc<[u8]> = bytes.clone().into();
        assert!(decode("t", &arc).is_err());
        bytes[0] = b'P';
        bytes[4] = 99;
        let arc: Arc<[u8]> = bytes.into();
        assert!(decode("t", &arc).is_err());
    }
}
