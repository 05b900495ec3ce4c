//! `StoreStats`' cumulative totals count events, not what is live:
//! `chunks_sealed` and `segments_flushed` advance exactly when the
//! `store.chunk.sealed` and `store.segment.flushed` counters do, and a
//! compaction, which merges chunks and rewrites segments, lowers
//! neither.
//!
//! The obs registry is process-global, so this is the only test in this
//! binary: nothing else seals or flushes while it runs and the deltas
//! are exact.

use obs::metrics::ExportSemantics;
use store::{SeriesKey, Store, StoreConfig};

#[test]
fn sealed_and_flushed_totals_match_the_counters_and_survive_compaction() {
    let sealed = obs::counter!("store.chunk.sealed");
    let flushed = obs::counter!("store.segment.flushed");
    let (sealed0, flushed0) = (sealed.get(), flushed.get());

    let store = Store::new(StoreConfig::default());
    let key = SeriesKey::new("stats.count").with_label("host", "h0");
    for i in 0..100_000u64 {
        store
            .ingest(&key, ExportSemantics::Counter, (i + 1) * 1_000, i * 3)
            .expect("in-order ingest");
    }
    store.flush().expect("flush");
    let after_flush = store.stats();
    assert_eq!(after_flush.samples, 100_000);
    assert_eq!(after_flush.chunks_sealed, sealed.get() - sealed0);
    assert_eq!(after_flush.segments_flushed, flushed.get() - flushed0);
    // 100 000 / 240 rounded up, and more than one segment.
    assert_eq!(after_flush.chunks_sealed, 417);
    assert!(after_flush.segments_flushed > 1, "{after_flush:?}");

    let pass = store.compact(u64::MAX).expect("compact");
    let live_chunks: usize = store.segments().iter().map(|s| s.entries().len()).sum();
    assert!(live_chunks < 417, "compaction merged nothing: {pass:?}");
    let after_compact = store.stats();
    assert_eq!(after_compact.samples, 100_000);
    assert_eq!(after_compact.chunks_sealed, after_flush.chunks_sealed);
    assert_eq!(after_compact.segments_flushed, after_flush.segments_flushed);
    assert_eq!(after_compact.chunks_sealed, sealed.get() - sealed0);
    assert_eq!(after_compact.segments_flushed, flushed.get() - flushed0);
}
