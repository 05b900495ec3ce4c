//! A windowed query costs its window, counted not timed: the store's
//! own `store.query.*` counters say how many segments the time bounds
//! dismissed and how many chunks were decompressed.
//!
//! The obs registry is process-global, so this is the only test in this
//! binary: nothing else queries while it runs and the deltas are exact.

use obs::metrics::ExportSemantics;
use store::{Selector, SeriesKey, Store, StoreConfig};

#[test]
fn window_inside_one_chunk_decodes_one_chunk_and_skips_every_other_segment() {
    const CHUNK: u64 = 10;
    const CHUNKS: u64 = 100;
    let store = Store::new(StoreConfig {
        chunk_samples: CHUNK as usize,
        segment_bytes: 64,
        retention_ns: None,
    });
    let key = SeriesKey::new("cost.count").with_label("host", "h0");
    for i in 0..CHUNK * CHUNKS {
        store
            .ingest(&key, ExportSemantics::Counter, (i + 1) * 1_000, i)
            .expect("in-order ingest");
    }
    store.flush().expect("flush");
    let segments = store.segments();
    assert!(segments.len() >= 20, "only {} segments", segments.len());
    let chunks: usize = segments.iter().map(|s| s.entries().len()).sum();
    assert_eq!(chunks as u64, CHUNKS);

    let skipped = obs::counter!("store.query.segments_skipped");
    let decoded = obs::counter!("store.query.chunks_decoded");
    let (skipped0, decoded0) = (skipped.get(), decoded.get());
    // Samples 503..=506 of chunk 50 (which holds 501..=510).
    let got = store
        .query(&Selector::metric("cost.*"), 503_000, 506_000)
        .expect("query");
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].samples.len(), 4);
    assert_eq!(decoded.get() - decoded0, 1);
    assert_eq!(skipped.get() - skipped0, segments.len() as u64 - 1);

    // A selector that matches nothing decodes nothing, whatever the
    // window; a window past the data skips every segment.
    let none = store
        .query(&Selector::metric("other.*"), 0, u64::MAX)
        .expect("query");
    assert!(none.is_empty());
    assert_eq!(decoded.get() - decoded0, 1);
    let (skipped1, decoded1) = (skipped.get(), decoded.get());
    let late = store
        .query(&Selector::metric("cost.*"), 2_000_000, u64::MAX)
        .expect("query");
    assert!(late.is_empty());
    assert_eq!(decoded.get(), decoded1);
    assert_eq!(skipped.get() - skipped1, segments.len() as u64);
}
