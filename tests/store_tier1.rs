//! Tier-1 acceptance for the storage tier (DESIGN.md §12): the
//! compressed store holds the history of the same registry snapshots
//! the live monitoring ring sees, and the layers agree on timestamps
//! and values by construction.

use obs::metrics::{ExportSemantics, Registry};
use obs::{Monitor, Predicate, Rule, Snapshot};
use store::{Selector, SeriesKey, Store, StoreConfig};

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
