//! The storage engine: ingest heads → sealed chunks → segment files,
//! with retention/compaction that never blocks readers.
//!
//! Write path: every series has a *head* (an uncompressed in-order
//! sample buffer) in a hash map keyed by the series' cached hash, so a
//! sample costs one lookup of one word, and a new series one insert.
//! When a head reaches `chunk_samples` it is sealed into an immutable
//! compressed [`Chunk`] — encoded into one scratch
//! buffer reused across seals, then copied once into a buffer of
//! exactly its size — and staged by series; when the staged bytes reach
//! `segment_bytes` the series with staged chunks are sorted by key and
//! drained — series order, and time order within a series — encoded
//! into one segment file on the in-memory FS, every chunk re-pointed at
//! its bytes in that file (its staged buffer freed), and the segment
//! appended to the published list — in place, unless a reader holds
//! the list. Out-of-order and zero-dt samples are rejected at the door
//! (`store.ingest.out_of_order`), and so is a
//! sample more than `i64::MAX` ns past its series' newest
//! (`store.ingest.gap_rejected`), so every structure downstream is
//! strictly time-ordered and encodable by construction.
//!
//! Read path: queries copy the matching head tails (one short lock; a
//! staged chunk is a shared view, so its copy is a refcount bump) and
//! clone the current `Arc` segment list (another short lock), then
//! decompress outside any lock — only the chunks of matching series
//! that overlap the window, in segments whose time bounds overlap it
//! (`store.query.segments_skipped`, `store.query.chunks_decoded`), so a
//! query costs its window, not the store. The selector is asked once
//! per distinct series, and every chunk to decode is listed before any
//! is, so each result is allocated once from its chunks' counts and
//! its order is checked where one block meets the next, not row by
//! row. Compaction streams one
//! series at a time (its surviving chunks, borrowed from the snapshot,
//! decoded oldest first into one buffer of a merged chunk's samples),
//! builds replacement segments off to the side and swaps the list in
//! one lock acquisition — readers holding the old list keep reading
//! the old immutable segments, whose bytes outlive their files (see
//! [`MemFs`]).
//!
//! So every sealed byte lives once: in its segment file, which the
//! chunks of a compacted or freshly written segment view exactly as a
//! decoded one's do (see [`segment`]); what the store
//! holds beside the files is its heads, its staged chunks and one
//! `Entry` per chunk.
//!
//! Retention is chunk-granular: a chunk is dropped only when its whole
//! `[min_t, max_t]` range is older than the cutoff, so a retention pass
//! never truncates a chunk mid-stream and replayed history always
//! starts on a chunk boundary.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use obs::metrics::ExportSemantics;
use obs::series::Sample;
use obs::sync::{Mutex, Rank};

use crate::chunk::{self, Chunk, MAX_GAP_NS, RAW_SAMPLE_BYTES};
use crate::index::{KeyHashBuilder, Selector, SeriesKey};
use crate::memfs::MemFs;
use crate::query::SeriesData;
use crate::segment::{self, Entry, Segment};
use crate::StoreError;

/// The not-yet-flushed part of one series inside a query window,
/// copied out from under the ingest lock.
struct Tail {
    key: SeriesKey,
    semantics: ExportSemantics,
    staged: Vec<Chunk>,
    head: Vec<Sample>,
}

/// One series a query returns: the blocks its rows are read from, in
/// the order they are appended, and how many rows they hold at most.
struct Plan<'a> {
    key: &'a SeriesKey,
    semantics: ExportSemantics,
    /// Sealed chunks in segment order, then staged chunks.
    chunks: Vec<&'a Chunk>,
    head: &'a [Sample],
    rows: usize,
}

impl<'a> Plan<'a> {
    fn new(key: &'a SeriesKey, semantics: ExportSemantics) -> Self {
        Plan {
            key,
            semantics,
            chunks: Vec::new(),
            head: &[],
            rows: 0,
        }
    }

    /// Read `chunk` after the blocks planned so far.
    fn add(&mut self, chunk: &'a Chunk) {
        self.rows += chunk.count() as usize;
        self.chunks.push(chunk);
    }

    /// The rows inside `[from, to]`, oldest first, in one buffer
    /// allocated at its final size.
    fn read(&self, from: u64, to: u64) -> Result<Vec<Sample>, StoreError> {
        let mut samples = Vec::with_capacity(self.rows);
        // Every chunk and every head is strictly increasing by
        // construction, so the rows are in order when each block starts
        // past the row before it. A compaction racing the segment walk
        // can interleave epochs; only then are the rows sorted and
        // duplicate timestamps dropped.
        let mut ordered = true;
        for chunk in &self.chunks {
            let start = samples.len();
            chunk.samples_in(from, to, &mut samples)?;
            ordered &= continues(&samples, start);
        }
        let start = samples.len();
        samples.extend_from_slice(self.head);
        ordered &= continues(&samples, start);
        if !ordered {
            samples.sort_by_key(|s| s.t_ns);
            samples.dedup_by_key(|s| s.t_ns);
        }
        Ok(samples)
    }
}

/// False when the block appended at `start` does not begin past the row
/// before it.
fn continues(samples: &[Sample], start: usize) -> bool {
    !matches!(
        start.checked_sub(1).and_then(|i| samples.get(i..=start)),
        Some([prev, next]) if next.t_ns <= prev.t_ns
    )
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Samples per sealed chunk (heads seal at this size).
    pub chunk_samples: usize,
    /// Staged compressed bytes that trigger a segment flush.
    pub segment_bytes: usize,
    /// Drop chunks wholly older than `now - retention_ns` on
    /// [`Store::compact`]; `None` retains forever.
    pub retention_ns: Option<u64>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            chunk_samples: 240,
            segment_bytes: 64 * 1024,
            retention_ns: None,
        }
    }
}

/// Per-series ingest head: the uncompressed tail of the series.
#[derive(Debug)]
struct Head {
    semantics: ExportSemantics,
    samples: Vec<Sample>,
    /// Newest timestamp ever ingested for this series — survives
    /// seals, so ordering is enforced across chunk boundaries too.
    last_t: Option<u64>,
    /// Where this series' sealed chunks wait in [`Ingest::staged`]. An
    /// index, not a `Vec` here: every sample ingested touches its
    /// head, the sealed chunks are touched once per `chunk_samples`.
    slot: usize,
}

/// Sealed chunks waiting for the next segment flush.
#[derive(Debug, Default)]
struct Staging {
    /// One list per series (indexed by [`Head::slot`]), oldest first:
    /// grouped as they are sealed, so a flush writes each series
    /// contiguously by sorting series only.
    chunks: Vec<Vec<Chunk>>,
    /// Bytes of all staged chunks together.
    bytes: usize,
    /// The buffer every seal encodes into; a sealed chunk owns an
    /// exact-size copy, freed when its segment file is written.
    scratch: Vec<u8>,
    /// Chunks sealed since the store was created.
    sealed: u64,
}

impl Staging {
    /// Seal `head`'s sample buffer into a chunk staged for the next
    /// segment flush.
    fn seal(&mut self, head: &mut Head) -> Result<(), StoreError> {
        let chunk = chunk::encode_with(&head.samples, &mut self.scratch)?;
        head.samples.clear();
        obs::counter!("store.chunk.sealed").inc();
        self.sealed += 1;
        self.bytes += chunk.bytes().len();
        self.chunks
            .get_mut(head.slot)
            .ok_or(StoreError::Corrupt("head has no staging slot"))?
            .push(chunk);
        Ok(())
    }
}

/// Everything the write path mutates, under one lock.
#[derive(Debug, Default)]
struct Ingest {
    heads: HashMap<SeriesKey, Head, KeyHashBuilder>,
    staging: Staging,
    next_seq: u64,
    out_of_order: u64,
    /// Segment files written by flushes since the store was created.
    segments_flushed: u64,
}

/// What one [`Store::compact`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Chunks whose whole time range fell past retention.
    pub chunks_dropped: u64,
    /// Samples inside those dropped chunks.
    pub samples_dropped: u64,
    /// Chunks rewritten into the replacement segments.
    pub chunks_rewritten: u64,
    /// Segment count before → after.
    pub segments_before: usize,
    /// Segment count after the pass.
    pub segments_after: usize,
}

/// The replacement segments one [`Store::compact`] pass writes.
struct Rewrite<'a> {
    fs: &'a MemFs,
    segment_bytes: usize,
    /// Sequence number of the next segment file.
    next_seq: u64,
    /// Merged chunks not yet written, in (series, time) order.
    pending: Vec<Entry>,
    pending_bytes: usize,
    /// The buffer every merged chunk encodes into.
    scratch: Vec<u8>,
    segments: Vec<Arc<Segment>>,
    chunks_rewritten: u64,
}

impl Rewrite<'_> {
    /// Encode `samples` of `key` as one merged chunk, writing a segment
    /// once the pending chunks reach `segment_bytes`.
    fn emit(
        &mut self,
        key: &SeriesKey,
        semantics: ExportSemantics,
        samples: &[Sample],
    ) -> Result<(), StoreError> {
        let chunk = chunk::encode_with(samples, &mut self.scratch)?;
        self.chunks_rewritten += 1;
        self.pending_bytes += chunk.bytes().len();
        self.pending.push(Entry {
            key: key.clone(),
            semantics,
            chunk,
        });
        if self.pending_bytes >= self.segment_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Write the pending chunks as one segment file.
    fn flush(&mut self) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let entries = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        let name = format!("seg-{:08}c.pseg", self.next_seq);
        self.next_seq += 1;
        let seg = segment::write(self.fs, name, entries)?;
        self.segments.push(Arc::new(seg));
        Ok(())
    }
}

/// Cumulative ingest-side totals (see also the `store.*` obs metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Samples accepted.
    pub samples: u64,
    /// Samples rejected for non-advancing timestamps.
    pub out_of_order: u64,
    /// Chunks sealed by ingest (compaction's merged chunks not counted).
    pub chunks_sealed: u64,
    /// Segment files written by flushes (compaction's rewrites not
    /// counted).
    pub segments_flushed: u64,
    /// Live compressed bytes on the in-memory FS.
    pub compressed_bytes: u64,
}

/// The compressed time-series store.
pub struct Store {
    cfg: StoreConfig,
    fs: MemFs,
    /// Staging buffers; flushing seals chunks into files and publishes
    /// the list while it is held.
    ingest: Mutex<Ingest>,
    /// The published immutable segment list. Readers clone the `Arc`
    /// and drop the lock; writers replace the whole list.
    sealed: Mutex<Arc<Vec<Arc<Segment>>>>,
    /// Serialises compaction passes (ingest and queries never wait on
    /// this); a pass flushes ingest and republishes while it is held.
    compacting: Mutex<()>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("cfg", &self.cfg)
            .field("segments", &self.segments().len())
            .finish()
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl Store {
    /// An empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        Store {
            cfg: StoreConfig {
                chunk_samples: cfg.chunk_samples.max(2),
                segment_bytes: cfg.segment_bytes.max(64),
                retention_ns: cfg.retention_ns,
            },
            fs: MemFs::new(),
            ingest: Mutex::new(Rank::STORE_INGEST, Ingest::default()),
            sealed: Mutex::new(Rank::STORE_SEALED, Arc::new(Vec::new())),
            compacting: Mutex::new(Rank::STORE_COMPACTING, ()),
        }
    }

    /// The engine configuration in effect.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// The underlying in-memory filesystem (segment files).
    pub fn fs(&self) -> &MemFs {
        &self.fs
    }

    /// Append one sample. The first sample of a series fixes its
    /// semantics; a timestamp that does not advance past the series'
    /// newest is rejected as [`StoreError::OutOfOrder`], and one more
    /// than `i64::MAX` ns past it as [`StoreError::TimestampGap`].
    pub fn ingest(
        &self,
        key: &SeriesKey,
        semantics: ExportSemantics,
        t_ns: u64,
        value: u64,
    ) -> Result<(), StoreError> {
        let mut ingest = self.ingest.lock();
        let ingest = &mut *ingest;
        let head = match ingest.heads.get_mut(key) {
            Some(head) => head,
            None => {
                let slot = ingest.staging.chunks.len();
                ingest.staging.chunks.push(Vec::new());
                ingest.heads.entry(key.clone()).or_insert(Head {
                    semantics,
                    samples: Vec::new(),
                    last_t: None,
                    slot,
                })
            }
        };
        if let Some(last) = head.last_t {
            if t_ns <= last {
                ingest.out_of_order += 1;
                obs::counter!("store.ingest.out_of_order").inc();
                return Err(StoreError::OutOfOrder {
                    last_t_ns: last,
                    t_ns,
                });
            }
            if t_ns - last > MAX_GAP_NS {
                obs::counter!("store.ingest.gap_rejected").inc();
                return Err(StoreError::TimestampGap {
                    last_t_ns: last,
                    t_ns,
                });
            }
        }
        head.last_t = Some(t_ns);
        head.samples.push(Sample { t_ns, value });
        obs::counter!("store.ingest.samples").inc();
        if head.samples.len() >= self.cfg.chunk_samples {
            ingest.staging.seal(head)?;
            if ingest.staging.bytes >= self.cfg.segment_bytes {
                self.flush_staging(ingest)?;
            }
        }
        Ok(())
    }

    /// Ingest one sample per scalar of a registry snapshot, under
    /// `prefix` + the scalar's exported name, with `labels` attached to
    /// every series. Scalars whose timestamp does not advance are
    /// skipped (counted by `store.ingest.out_of_order`) — the same
    /// policy as an [`obs::Monitor`] window, so live and stored agree —
    /// and so are those too far past their series' newest to encode
    /// (`store.ingest.gap_rejected`).
    pub fn ingest_snapshot(
        &self,
        prefix: &str,
        labels: &[(&str, &str)],
        snap: &obs::snapshot::Snapshot,
    ) -> Result<(), StoreError> {
        for e in &snap.scalars {
            let key = SeriesKey::from_parts(
                format!("{prefix}{}", e.name),
                labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            );
            match self.ingest(&key, e.semantics, snap.t_ns, e.value) {
                Ok(()) | Err(StoreError::OutOfOrder { .. } | StoreError::TimestampGap { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Seal every non-empty head into a chunk and write all staged
    /// chunks out as a segment, making the whole store content
    /// cold-readable. Idempotent when nothing is pending.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut ingest = self.ingest.lock();
        let ingest = &mut *ingest;
        for head in ingest.heads.values_mut() {
            if !head.samples.is_empty() {
                ingest.staging.seal(head)?;
            }
        }
        self.flush_staging(ingest)
    }

    /// Write the staged chunks as one segment file and publish it.
    /// Draining the staged lists series by series in key order is what
    /// orders the entries by (series, time): only the series with
    /// staged chunks are sorted, never a chunk. The published list is
    /// appended to in place, copied only while a reader holds it.
    fn flush_staging(&self, ingest: &mut Ingest) -> Result<(), StoreError> {
        let Ingest { heads, staging, .. } = ingest;
        let staged = &mut staging.chunks;
        let mut series: Vec<(&SeriesKey, &Head)> = heads
            .iter()
            .filter(|(_, head)| staged.get(head.slot).is_some_and(|s| !s.is_empty()))
            .collect();
        series.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut entries = Vec::with_capacity(staged.iter().map(Vec::len).sum());
        for (key, head) in series {
            let Some(chunks) = staged.get_mut(head.slot) else {
                continue;
            };
            entries.extend(chunks.drain(..).map(|chunk| Entry {
                key: key.clone(),
                semantics: head.semantics,
                chunk,
            }));
        }
        staging.bytes = 0;
        if entries.is_empty() {
            return Ok(());
        }
        let name = format!("seg-{:08}.pseg", ingest.next_seq);
        ingest.next_seq += 1;
        let seg = Arc::new(segment::write(&self.fs, name, entries)?);
        let mut sealed = self.sealed.lock();
        let list = Arc::make_mut(&mut sealed);
        list.push(seg);
        let live = list.len();
        drop(sealed);
        ingest.segments_flushed += 1;
        obs::counter!("store.segment.flushed").inc();
        obs::gauge!("store.segment.live").set(live as u64);
        obs::gauge!("store.bytes.compressed").set(self.fs.live_bytes());
        Ok(())
    }

    /// The published segment list (a consistent point-in-time view).
    pub fn segments(&self) -> Arc<Vec<Arc<Segment>>> {
        let sealed = self.sealed.lock();
        Arc::clone(&sealed)
    }

    /// Ingest/storage totals: live samples and bytes, and cumulative
    /// counts that compaction never lowers.
    pub fn stats(&self) -> StoreStats {
        let segments = self.segments();
        let ingest = self.ingest.lock();
        let head_samples: u64 = ingest.heads.values().map(|h| h.samples.len() as u64).sum();
        let sealed_samples: u64 = segments.iter().map(|s| s.samples()).sum();
        let staged_samples: u64 = ingest
            .staging
            .chunks
            .iter()
            .flatten()
            .map(|c| u64::from(c.count()))
            .sum();
        StoreStats {
            samples: head_samples + sealed_samples + staged_samples,
            out_of_order: ingest.out_of_order,
            chunks_sealed: ingest.staging.sealed,
            segments_flushed: ingest.segments_flushed,
            compressed_bytes: self.fs.live_bytes(),
        }
    }

    /// Live samples retained (heads + staged + sealed).
    pub fn sample_count(&self) -> u64 {
        self.stats().samples
    }

    /// Compression ratio achieved by the sealed tier: raw sample bytes
    /// over compressed segment-file bytes (`None` until something has
    /// been flushed).
    pub fn compression_ratio(&self) -> Option<f64> {
        let segments = self.segments();
        let raw: u64 = segments
            .iter()
            .map(|s| s.samples() * RAW_SAMPLE_BYTES)
            .sum();
        let compressed: u64 = segments.iter().map(|s| s.bytes as u64).sum();
        (compressed > 0).then(|| raw as f64 / compressed as f64)
    }

    /// Select series and return their samples inside the inclusive
    /// window `[t_from_ns, t_to_ns]`, oldest first, merging sealed
    /// chunks, staged chunks and live heads. Decompression happens
    /// outside every lock, and only of chunks the window overlaps.
    pub fn query(
        &self,
        sel: &Selector,
        t_from_ns: u64,
        t_to_ns: u64,
    ) -> Result<Vec<SeriesData>, StoreError> {
        obs::counter!("store.query.count").inc();
        let started = std::time::Instant::now();
        // Copy the matching tails (a staged chunk clone shares its bytes;
        // heads are small by construction). This must happen BEFORE the
        // segment list is cloned: a concurrent flush moves staged chunks
        // into a new segment, so tail-then-list can only double-see
        // samples (deduped below), never miss them.
        let tails: Vec<Tail> = {
            let ingest = self.ingest.lock();
            ingest
                .heads
                .iter()
                .filter(|(key, _)| sel.matches(key))
                .map(|(key, h)| Tail {
                    key: key.clone(),
                    semantics: h.semantics,
                    staged: ingest
                        .staging
                        .chunks
                        .get(h.slot)
                        .into_iter()
                        .flatten()
                        .filter(|c| c.overlaps(t_from_ns, t_to_ns))
                        .cloned()
                        .collect(),
                    head: h
                        .samples
                        .iter()
                        .filter(|s| s.t_ns >= t_from_ns && s.t_ns <= t_to_ns)
                        .copied()
                        .collect(),
                })
                .filter(|t| !t.staged.is_empty() || !t.head.is_empty())
                .collect()
        };
        let segments = self.segments();

        // Plan every result before decoding any: which chunks of which
        // series, and how many rows they hold at most, so each result is
        // allocated once at its final size. Each distinct key holds the
        // selector's verdict, reached once however many segments hold the
        // series: its plan, or `None` when the selector rejects it.
        let mut plans: BTreeMap<&SeriesKey, Option<Plan>> = BTreeMap::new();
        let mut segments_skipped = 0u64;
        for seg in segments.iter() {
            if !seg.overlaps(t_from_ns, t_to_ns) {
                segments_skipped += 1;
                continue;
            }
            for run in seg.runs() {
                // A run is one series, oldest chunk first: no chunk after
                // the first one that starts past the window can overlap it.
                let mut hits = run
                    .iter()
                    .take_while(|e| e.chunk.min_t() <= t_to_ns)
                    .filter(|e| e.chunk.max_t() >= t_from_ns)
                    .peekable();
                let Some(first) = hits.peek() else { continue };
                let verdict = plans.entry(&first.key).or_insert_with(|| {
                    sel.matches(&first.key)
                        .then(|| Plan::new(&first.key, first.semantics))
                });
                if let Some(plan) = verdict {
                    hits.for_each(|e| plan.add(&e.chunk));
                }
            }
        }
        // The tails were selected under the ingest lock.
        for tail in &tails {
            let plan = plans
                .entry(&tail.key)
                .or_default()
                .get_or_insert_with(|| Plan::new(&tail.key, tail.semantics));
            tail.staged.iter().for_each(|c| plan.add(c));
            plan.rows += tail.head.len();
            plan.head = &tail.head;
        }

        let (mut result, mut chunks_decoded) = (Vec::new(), 0u64);
        for plan in plans.values().flatten() {
            chunks_decoded += plan.chunks.len() as u64;
            let samples = plan.read(t_from_ns, t_to_ns)?;
            if !samples.is_empty() {
                result.push(SeriesData {
                    key: plan.key.clone(),
                    semantics: plan.semantics,
                    samples,
                });
            }
        }
        obs::counter!("store.query.segments_skipped").add(segments_skipped);
        obs::counter!("store.query.chunks_decoded").add(chunks_decoded);
        obs::histogram!("store.query.latency_ns").record(started.elapsed().as_nanos() as u64);
        Ok(result)
    }

    /// Retention + compaction: drop chunks wholly older than
    /// `now_ns - retention_ns`, merge surviving chunks per series, and
    /// rewrite them into fresh segment files. Readers are never
    /// blocked — they keep whatever segment list they already cloned —
    /// and ingest continues concurrently; segments flushed while the
    /// pass runs are preserved verbatim.
    pub fn compact(&self, now_ns: u64) -> Result<CompactStats, StoreError> {
        let _serialize = self.compacting.lock();
        obs::counter!("store.compact.runs").inc();
        let before = self.segments();
        let cutoff = self
            .cfg
            .retention_ns
            .map(|r| now_ns.saturating_sub(r))
            .unwrap_or(0);

        let mut stats = CompactStats {
            segments_before: before.len(),
            ..CompactStats::default()
        };
        // Borrow each series' surviving chunks from the snapshot, in
        // time order (segments are ordered, chunks within a series too).
        let mut survivors: BTreeMap<&SeriesKey, (ExportSemantics, Vec<&Chunk>)> = BTreeMap::new();
        for seg in before.iter() {
            for e in seg.entries() {
                if e.chunk.max_t() < cutoff {
                    stats.chunks_dropped += 1;
                    stats.samples_dropped += u64::from(e.chunk.count());
                    obs::counter!("store.compact.chunks_dropped").inc();
                    continue;
                }
                survivors
                    .entry(&e.key)
                    .or_insert_with(|| (e.semantics, Vec::new()))
                    .1
                    .push(&e.chunk);
            }
        }

        // Re-chunk each series into merged chunks (up to 4 input chunks
        // worth of samples each), decoding into one reused buffer and
        // emitting whenever it fills, and pack them into replacement
        // segments.
        let merged_chunk = self.cfg.chunk_samples * 4;
        let mut out = Rewrite {
            fs: &self.fs,
            segment_bytes: self.cfg.segment_bytes,
            next_seq: self.ingest.lock().next_seq,
            pending: Vec::new(),
            pending_bytes: 0,
            scratch: Vec::new(),
            segments: Vec::new(),
            chunks_rewritten: 0,
        };
        let mut buf: Vec<Sample> = Vec::with_capacity(merged_chunk);
        for (key, (semantics, chunks)) in survivors {
            for c in chunks {
                c.try_for_each(|s| {
                    buf.push(s);
                    if buf.len() < merged_chunk {
                        return Ok(());
                    }
                    out.emit(key, semantics, &buf)?;
                    buf.clear();
                    Ok(())
                })?;
            }
            if !buf.is_empty() {
                out.emit(key, semantics, &buf)?;
                buf.clear();
            }
        }
        out.flush()?;
        stats.chunks_rewritten = out.chunks_rewritten;

        // Publish: replace the snapshot's segments with the rewrite,
        // preserving any segment flushed after the snapshot was taken.
        let snapshot_files: std::collections::BTreeSet<&str> =
            before.iter().map(|s| s.file.as_str()).collect();
        {
            // Bump the shared sequence past what compaction consumed so
            // future ingest flushes never collide with rewrite names.
            let mut ingest = self.ingest.lock();
            ingest.next_seq = ingest.next_seq.max(out.next_seq);
        }
        let mut sealed = self.sealed.lock();
        let mut list = out.segments;
        for seg in sealed.iter() {
            if !snapshot_files.contains(seg.file.as_str()) {
                list.push(Arc::clone(seg));
            }
        }
        stats.segments_after = list.len();
        *sealed = Arc::new(list);
        drop(sealed);

        // Unlink the superseded files; concurrent readers holding the
        // old list keep their bytes alive through their handles.
        for seg in before.iter() {
            let _ = self.fs.remove(&seg.file);
        }
        obs::gauge!("store.segment.live").set(stats.segments_after as u64);
        obs::gauge!("store.bytes.compressed").set(self.fs.live_bytes());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(metric: &str) -> SeriesKey {
        SeriesKey::new(metric)
    }

    fn fill(store: &Store, metric: &str, n: u64) {
        let k = key(metric);
        for i in 0..n {
            store
                .ingest(&k, ExportSemantics::Counter, (i + 1) * 1_000, i * 7)
                .unwrap();
        }
    }

    #[test]
    fn ingest_seal_flush_query() {
        let store = Store::new(StoreConfig {
            chunk_samples: 10,
            segment_bytes: 64,
            retention_ns: None,
        });
        fill(&store, "m.a", 35);
        // 3 sealed chunks (30 samples) and a 5-sample head.
        assert_eq!(store.sample_count(), 35);
        let got = store.query(&Selector::metric("m.a"), 0, u64::MAX).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].samples.len(), 35);
        let ts: Vec<u64> = got[0].samples.iter().map(|s| s.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[1] > w[0]));
        // Window query trims to range.
        let win = store
            .query(&Selector::metric("m.a"), 5_000, 12_000)
            .unwrap();
        assert_eq!(win[0].samples.len(), 8);
    }

    #[test]
    fn out_of_order_is_rejected_across_seals() {
        let store = Store::new(StoreConfig {
            chunk_samples: 2,
            segment_bytes: 1 << 20,
            retention_ns: None,
        });
        let k = key("x");
        store.ingest(&k, ExportSemantics::Counter, 10, 1).unwrap();
        store.ingest(&k, ExportSemantics::Counter, 20, 2).unwrap();
        // Head sealed; same timestamp must still be rejected.
        let err = store.ingest(&k, ExportSemantics::Counter, 20, 3);
        assert!(matches!(err, Err(StoreError::OutOfOrder { .. })));
        store.ingest(&k, ExportSemantics::Counter, 21, 3).unwrap();
    }

    #[test]
    fn flush_makes_partial_heads_cold() {
        let store = Store::default();
        fill(&store, "m.b", 5);
        assert!(store.segments().is_empty());
        store.flush().unwrap();
        assert_eq!(store.segments().len(), 1);
        assert!(store.compression_ratio().is_some());
        let got = store.query(&Selector::metric("m.b"), 0, u64::MAX).unwrap();
        assert_eq!(got[0].samples.len(), 5);
        // Flushing again with nothing pending is a no-op.
        store.flush().unwrap();
        assert_eq!(store.segments().len(), 1);
    }

    #[test]
    fn retention_drops_whole_chunks_only() {
        let store = Store::new(StoreConfig {
            chunk_samples: 10,
            segment_bytes: 64,
            retention_ns: Some(20_000),
        });
        fill(&store, "m.c", 40);
        store.flush().unwrap();
        // now = 41_000; cutoff = 21_000. Chunks cover [1k..10k],
        // [11k..20k], [21k..30k], [31k..40k]: first two drop whole.
        let stats = store.compact(41_000).unwrap();
        assert_eq!(stats.chunks_dropped, 2);
        assert_eq!(stats.samples_dropped, 20);
        let got = store.query(&Selector::metric("m.c"), 0, u64::MAX).unwrap();
        assert_eq!(got[0].samples.len(), 20);
        assert_eq!(got[0].samples[0].t_ns, 21_000);
        // Old files are gone from the FS, new ones exist.
        assert!(store.fs().list().iter().all(|f| f.contains('c')));
    }

    #[test]
    fn compaction_merges_chunks_and_preserves_data() {
        let store = Store::new(StoreConfig {
            chunk_samples: 8,
            segment_bytes: 64,
            retention_ns: None,
        });
        fill(&store, "m.d", 64);
        store.flush().unwrap();
        let before = store.query(&Selector::metric("m.d"), 0, u64::MAX).unwrap();
        let stats = store.compact(u64::MAX).unwrap();
        assert_eq!(stats.chunks_dropped, 0);
        assert!(stats.chunks_rewritten < 8, "{stats:?}");
        let after = store.query(&Selector::metric("m.d"), 0, u64::MAX).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn published_segments_are_ordered_in_the_file_as_in_memory() {
        let store = Store::new(StoreConfig {
            chunk_samples: 4,
            segment_bytes: 200,
            retention_ns: None,
        });
        // `Segment::new` would put any entry order right in memory; the
        // engine's claim is that it never has to, because the file was
        // already written series by series, oldest chunk first.
        let check = |stage: &str| {
            let segments = store.segments();
            assert!(segments.len() > 3, "{stage}: {} segments", segments.len());
            for seg in segments.iter() {
                let file = store.fs().read(&seg.file).unwrap();
                assert_eq!(
                    segment::encode(seg.entries()),
                    &file[..],
                    "{stage}: {} is not in (series, time) order on disk",
                    seg.file
                );
                let series: Vec<&SeriesKey> = seg.runs().map(|run| &run[0].key).collect();
                assert!(series.windows(2).all(|w| w[0] < w[1]), "{stage}");
            }
        };
        // Interleaved like a sampling scheduler: seal order is
        // z, m, a, z, m, a, …, so grouping is the flush's doing.
        for i in 0..200u64 {
            for metric in ["z.last", "m.mid", "a.first"] {
                store
                    .ingest(&key(metric), ExportSemantics::Counter, (i + 1) * 1_000, i)
                    .unwrap();
            }
        }
        store.flush().unwrap();
        assert!(store.segments().iter().all(|seg| seg.runs().count() == 3));
        check("ingest-flushed");
        store.compact(u64::MAX).unwrap();
        check("compacted");
    }

    #[test]
    fn every_chunk_is_a_view_into_its_segment_file() {
        let store = Store::new(StoreConfig {
            chunk_samples: 4,
            segment_bytes: 200,
            retention_ns: None,
        });
        for i in 0..200u64 {
            for metric in ["z.last", "m.mid", "a.first"] {
                store
                    .ingest(&key(metric), ExportSemantics::Counter, (i + 1) * 1_000, i)
                    .unwrap();
            }
        }
        let inside = |stage: &str, seg: &Segment, file: &[u8]| {
            let file = file.as_ptr_range();
            for e in seg.entries() {
                let chunk = e.chunk.bytes().as_ptr_range();
                assert!(
                    file.start <= chunk.start && chunk.end <= file.end,
                    "{stage}: a chunk of {} lies outside its file",
                    seg.file
                );
            }
        };
        store.flush().unwrap();
        for stage in ["ingest-flushed", "compacted"] {
            let segments = store.segments();
            assert!(segments.len() > 3, "{stage}: {} segments", segments.len());
            for seg in segments.iter() {
                let file = store.fs().read(&seg.file).unwrap();
                inside(stage, seg, &file);
                let decoded = segment::decode(&seg.file, &file).unwrap();
                inside("decoded", &decoded, &file);
                assert_eq!(decoded.entries().len(), seg.entries().len());
                for (d, e) in decoded.entries().iter().zip(seg.entries()) {
                    assert_eq!(d.chunk, e.chunk, "{stage}: {}", seg.file);
                }
            }
            store.compact(u64::MAX).unwrap();
        }
    }

    #[test]
    fn a_flush_leaves_an_earlier_snapshot_as_it_was() {
        let store = Store::new(StoreConfig {
            chunk_samples: 4,
            segment_bytes: 64,
            retention_ns: None,
        });
        let files = |list: &[Arc<Segment>]| -> Vec<String> {
            list.iter().map(|seg| seg.file.clone()).collect()
        };
        fill(&store, "m.e", 40);
        store.flush().unwrap();
        let snapshot = store.segments();
        let seen = files(&snapshot);
        let k = key("m.e");
        for i in 40..80u64 {
            store
                .ingest(&k, ExportSemantics::Counter, (i + 1) * 1_000, i * 7)
                .unwrap();
        }
        store.flush().unwrap();
        assert_eq!(files(&snapshot), seen, "a reader's list changed under it");
        let now = store.segments();
        assert!(now.len() > snapshot.len());
        assert_eq!(files(&now[..seen.len()]), seen);
        // With no reader holding the list, a flush appends in place.
        let list = Arc::as_ptr(&now);
        drop((snapshot, now));
        fill(&store, "m.f", 9);
        store.flush().unwrap();
        assert_eq!(Arc::as_ptr(&store.segments()), list);
    }

    #[test]
    fn labels_route_queries() {
        let store = Store::default();
        for host in ["h0", "h1"] {
            let k = SeriesKey::new("fetch.count").with_label("host", host);
            for i in 0..4u64 {
                store
                    .ingest(&k, ExportSemantics::Counter, (i + 1) * 100, i)
                    .unwrap();
            }
        }
        let all = store
            .query(&Selector::metric("fetch.*"), 0, u64::MAX)
            .unwrap();
        assert_eq!(all.len(), 2);
        let one = store
            .query(
                &Selector::metric("fetch.*").with_label("host", "h1"),
                0,
                u64::MAX,
            )
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].key.label("host"), Some("h1"));
    }
}
