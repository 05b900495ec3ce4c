//! Tier-1 acceptance for the storage tier (DESIGN.md §12): the
//! compressed store holds the history of the same registry snapshots
//! the live monitoring ring sees, and the layers agree on timestamps
//! and values by construction.

use obs::metrics::{ExportSemantics, Registry};
use obs::{Monitor, Predicate, Rule, Snapshot};
use store::{Selector, SeriesKey, Store, StoreConfig, StoreError};

/// Registry snapshots ingested under a prefix+labels come back out of a
/// selector query with the snapshot's exact timestamps — the unified
/// snapshot→samples path end to end.
#[test]
fn registry_snapshots_flow_into_the_store_with_one_timestamp() {
    let reg = Registry::new();
    let traffic = reg.counter("memsim.mba.bytes");
    let store = Store::default();

    for tick in 1..=5u64 {
        traffic.add(1000 * tick);
        let snap = Snapshot::take(&reg, tick * 1_000_000_000);
        store
            .ingest_snapshot("pmcd.obs.", &[("host", "summit-17")], &snap)
            .expect("snapshot ingest");
    }
    store.flush().expect("flush");

    let got = store
        .query(
            &Selector::metric("pmcd.obs.memsim.*").with_label("host", "summit-17"),
            0,
            u64::MAX,
        )
        .expect("query");
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].key.metric(), "pmcd.obs.memsim.mba.bytes");
    assert_eq!(got[0].semantics, ExportSemantics::Counter);
    let ts: Vec<u64> = got[0].samples.iter().map(|s| s.t_ns).collect();
    assert_eq!(
        ts,
        (1..=5u64).map(|t| t * 1_000_000_000).collect::<Vec<_>>(),
        "stored timestamps are the snapshot timestamps, verbatim"
    );
    // Counter accumulates 1000*1 + ... + 1000*k.
    assert_eq!(got[0].samples[4].value, 1000 * 15);
    // The windowed rate over stored history uses the same obs::derive
    // math as the live monitor.
    let rate = got[0].derive(store::Derivation::Rate).expect("rate");
    assert!(rate > 0.0);
}

/// One series holder per job: the live `Monitor` keeps only the recent
/// ring its rules need (evictions counted, never silent), while the same
/// snapshots ingested straight into the `Store` keep the whole run — the
/// fleet aggregator's arrangement.
#[test]
fn live_monitor_ring_is_bounded_while_the_store_keeps_the_history() {
    let reg = Registry::new();
    let c = reg.counter("fleet.fetches");
    let store = Store::new(StoreConfig {
        chunk_samples: 4,
        segment_bytes: 64,
        retention_ns: None,
    });
    let storm = Rule {
        name: "alert.fleet.fetch_storm",
        metric: "fleet.fetches",
        predicate: Predicate::RateAbove(1e9),
    };
    let mut monitor = Monitor::new(3, vec![storm]);

    for tick in 1..=50u64 {
        c.add(7);
        let snap = Snapshot::take(&reg, tick * 1_000_000);
        monitor.tick(snap.t_ns, &snap.scalars);
        store
            .ingest_snapshot("", &[("host", "h0")], &snap)
            .expect("snapshot ingest");
    }

    // The ring holds only the newest 3 points and says what it dropped...
    let window = monitor.window("fleet.fetches").expect("live window");
    let ring = window.samples();
    assert_eq!(ring.len(), 3);
    assert_eq!(ring.first().map(|s| s.t_ns), Some(48_000_000));
    assert_eq!(window.evicted(), 47);
    // ...and the full 50-point history is in the store, same timestamps.
    let sel = Selector::metric("fleet.fetches").with_label("host", "h0");
    let full = &store.query(&sel, 0, u64::MAX).expect("query")[0].samples;
    assert_eq!(full.len(), 50);
    assert!(full.windows(2).all(|w| w[1].t_ns > w[0].t_ns));
    assert_eq!(full[0].value, 7);
    assert_eq!(full[49].value, 350);
    assert_eq!(full[47..], ring[..]);
    // An old-only window comes purely from compressed storage.
    let old = &store.query(&sel, 1_000_000, 10_000_000).expect("query")[0].samples;
    assert_eq!(old.len(), 10);
}

/// Retention-driven compaction keeps the store bounded while a fleet
/// keeps writing — and the surviving history is still exact.
#[test]
fn retention_bounds_a_long_run_without_corrupting_history() {
    let store = Store::new(StoreConfig {
        chunk_samples: 32,
        segment_bytes: 1024,
        retention_ns: Some(500_000),
    });
    let key = SeriesKey::new("long.count");
    for i in 1..=2_000u64 {
        store
            .ingest(&key, ExportSemantics::Counter, i * 1_000, i * 3)
            .expect("ingest");
    }
    store.flush().expect("flush");
    let before = store.fs().live_bytes();
    let stats = store.compact(2_000_000).expect("compact");
    assert!(stats.chunks_dropped > 0, "{stats:?}");
    assert!(store.fs().live_bytes() < before);

    let got = store
        .query(&Selector::metric("long.count"), 0, u64::MAX)
        .expect("query");
    let samples = &got[0].samples;
    // Whatever survived starts on a chunk boundary, is contiguous, and
    // every value is exactly what was written.
    assert!(!samples.is_empty());
    assert!(samples[0].t_ns >= 1_000);
    for w in samples.windows(2) {
        assert_eq!(w[1].t_ns, w[0].t_ns + 1_000);
    }
    for s in samples {
        assert_eq!(s.value, (s.t_ns / 1_000) * 3);
    }
    assert_eq!(samples[samples.len() - 1].t_ns, 2_000_000);
}

/// FNV-1a over every live segment file, name and bytes, in file-name
/// order: a change anywhere in the segment format, the entry order, the
/// chunk boundaries or the file naming moves it.
fn segment_digest(store: &Store) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut names = store.fs().list();
    names.sort();
    for name in names {
        eat(name.as_bytes());
        eat(&store.fs().read(&name).expect("listed file reads"));
    }
    h
}

/// The write path's output is pinned byte for byte: a seeded store of
/// labelled series — each key built with its labels in a different
/// order, series born mid-run, irregular cadences, chunks dropped by
/// retention and merged by compaction — must write exactly the segment
/// files it wrote when these digests were recorded.
#[test]
fn segment_files_are_byte_identical_to_the_recorded_digests() {
    let store = Store::new(StoreConfig {
        chunk_samples: 16,
        segment_bytes: 1024,
        retention_ns: Some(3_000_000),
    });
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let labels = [("host", "h"), ("chan", "c"), ("socket", "s")];
    let keys: Vec<SeriesKey> = (0..24usize)
        .map(|i| {
            let mut key = SeriesKey::new(format!("mba.m{}.bytes", i % 5));
            // Rotate the label insertion order per series.
            for j in 0..labels.len() {
                let (k, prefix) = labels[(i + j) % labels.len()];
                key = key.with_label(k, format!("{prefix}{}", (i * (j + 3)) % 7));
            }
            key
        })
        .collect();
    let mut last_t = vec![0u64; keys.len()];
    let mut values = vec![0u64; keys.len()];
    for tick in 0..600u64 {
        for (s, key) in keys.iter().enumerate() {
            // Series s is born at tick 10·s and skips a seeded tick in
            // eight.
            if tick < 10 * s as u64 || next() % 8 == 0 {
                continue;
            }
            last_t[s] = (tick + 1) * 10_000 + next() % 5_000;
            values[s] += next() % 100_000;
            let semantics = if s % 3 == 0 {
                ExportSemantics::Instant
            } else {
                ExportSemantics::Counter
            };
            store
                .ingest(key, semantics, last_t[s], values[s])
                .expect("ingest");
        }
    }
    store.flush().expect("flush");
    let flushed = segment_digest(&store);
    let stats = store.compact(6_010_000).expect("compact");
    let compacted = segment_digest(&store);
    assert!(
        stats.chunks_dropped > 0 && stats.chunks_rewritten > 0,
        "{stats:?}"
    );
    assert_eq!(
        (
            flushed,
            compacted,
            stats.segments_before,
            stats.segments_after
        ),
        (0x6ec6_c8bd_7b38_e2e2, 0xc573_c499_8699_f5b3, 52, 30),
        "segment digests after flush and after compaction"
    );
}

/// One sample whose gap past its series' newest exceeds what a chunk's
/// signed delta can hold is rejected at the door, naming both
/// timestamps — it must not be stored, and it must not wedge the flush
/// of every other series behind an encode error.
#[test]
fn a_timestamp_gap_over_i64_is_rejected_without_wedging_the_store() {
    let store = Store::new(StoreConfig {
        chunk_samples: 4,
        segment_bytes: 1 << 20,
        retention_ns: None,
    });
    let (a, b) = (SeriesKey::new("a.x"), SeriesKey::new("b.x"));
    store
        .ingest(&a, ExportSemantics::Counter, 1, 0)
        .expect("first a.x");
    for k in 1..=6u64 {
        let t_ns = (1u64 << 63) + 10 * k;
        let got = store.ingest(&a, ExportSemantics::Counter, t_ns, k);
        assert_eq!(
            got,
            Err(StoreError::TimestampGap { last_t_ns: 1, t_ns }),
            "a.x at {t_ns}"
        );
    }
    for t in 1..=10u64 {
        store
            .ingest(&b, ExportSemantics::Counter, t, t * 5)
            .expect("b.x");
    }
    assert_eq!(
        store.sample_count(),
        1 + 10,
        "rejected samples are not stored"
    );
    store.flush().expect("flush is not wedged by a.x");
    let segments = store.segments();
    assert!(
        segments
            .iter()
            .any(|seg| seg.entries().iter().any(|e| e.key == b)),
        "b.x reached a segment"
    );
    let got = store
        .query(&Selector::metric("b.x"), 0, u64::MAX)
        .expect("query");
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].samples.len(), 10);
}
