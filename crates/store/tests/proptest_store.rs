//! Property-based acceptance tests for the storage engine: the full
//! write→compact→query pipeline must agree with a naive in-memory
//! reference over randomized series, including values past 2^53 (where
//! an f64-based codec would silently round) and counter resets landing
//! mid-chunk.

use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};

use proptest::prelude::*;

use obs::metrics::ExportSemantics;
use obs::series::Sample;
use store::{chunk, Selector, SeriesKey, Store, StoreConfig, StoreError};

/// Turn random positive time steps and arbitrary values into a strictly
/// time-ordered sample run.
fn samples_from(steps: &[(u64, u64)]) -> Vec<Sample> {
    let mut t = 0u64;
    steps
        .iter()
        .map(|&(dt, value)| {
            t += dt;
            Sample { t_ns: t, value }
        })
        .collect()
}

/// A selector paired with the naive predicate it must be equivalent to.
type NaiveSelector = (Selector, fn(&SeriesKey) -> bool);

fn selectors() -> Vec<NaiveSelector> {
    vec![
        (Selector::metric("prop.*"), |_| true),
        (Selector::metric("prop.series"), |k| {
            k.metric() == "prop.series"
        }),
        (Selector::metric("prop.series*"), |k| {
            k.metric().starts_with("prop.series")
        }),
        (Selector::metric("*s*x"), |k| k.metric() == "prop.seriesx"),
        (Selector::metric("prop.*").with_label("host", "h1"), |k| {
            k.label("host") == Some("h1")
        }),
        (
            Selector::metric("prop.series").with_label("host", "h0"),
            |k| k.metric() == "prop.series" && k.label("host") == Some("h0"),
        ),
        (Selector::metric("*").with_label("rack", "r0"), |_| false),
        (Selector::metric("prop"), |_| false),
    ]
}

/// Every selector over every window returns exactly the naive filter of
/// `reference` (sorted by key): matched series in key order, samples
/// inside the window, series with none left out.
fn queries_agree(
    store: &Store,
    reference: &[(SeriesKey, Vec<Sample>)],
    windows: &[(u64, u64)],
    stage: &str,
) -> Result<(), TestCaseError> {
    for (sel, naive) in selectors() {
        for &(from, to) in windows {
            let expected: Vec<(SeriesKey, Vec<Sample>)> = reference
                .iter()
                .filter(|(key, _)| naive(key))
                .map(|(key, samples)| {
                    let inside = samples
                        .iter()
                        .filter(|s| s.t_ns >= from && s.t_ns <= to)
                        .copied()
                        .collect::<Vec<_>>();
                    (key.clone(), inside)
                })
                .filter(|(_, inside)| !inside.is_empty())
                .collect();
            let got: Vec<(SeriesKey, Vec<Sample>)> = store
                .query(&sel, from, to)
                .expect("query")
                .into_iter()
                .map(|d| (d.key, d.samples))
                .collect();
            prop_assert!(
                got == expected,
                "{stage}: {sel:?} over [{from}, {to}]\n  got: {got:?}\n want: {expected:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunk encode→decode is the identity on any strictly ordered run,
    /// over the full u64 value range — delta-of-delta + XOR varints are
    /// exact, unlike any f64-mediated codec.
    #[test]
    fn chunk_round_trip_is_identity(
        steps in prop::collection::vec((1u64..1_000_000_000, 0u64..=u64::MAX), 1..300)
    ) {
        let samples = samples_from(&steps);
        let c = chunk::encode(&samples).expect("ordered run encodes");
        prop_assert_eq!(c.count() as usize, samples.len());
        prop_assert_eq!(c.min_t(), samples[0].t_ns);
        prop_assert_eq!(c.max_t(), samples[samples.len() - 1].t_ns);
        let back = c.samples().expect("own bytes decode");
        prop_assert_eq!(back, samples);
    }

    /// The full pipeline — ingest through small chunks and segments,
    /// flush, compact, query — returns exactly what a Vec would: for
    /// several series sharing a metric prefix, every selector and every
    /// window shape, while the data sits in heads and staged chunks,
    /// after it is flushed to segments, and after compaction.
    #[test]
    fn write_compact_query_agrees_with_naive_reference(
        steps in prop::collection::vec((1u64..1_000_000, 0u64..=u64::MAX), 1..400),
        more in prop::collection::vec(
            prop::collection::vec((1u64..1_000_000, 0u64..=u64::MAX), 0..150), 3),
        chunk_samples in 2usize..32,
        window in (0u64..500_000_000, 0u64..500_000_000),
        pick in 0usize..400,
    ) {
        let mut reference: Vec<(SeriesKey, Vec<Sample>)> = vec![
            (SeriesKey::new("prop.series").with_label("host", "h0"), samples_from(&steps)),
        ];
        for (key, steps) in [
            SeriesKey::new("prop.series").with_label("host", "h1"),
            SeriesKey::new("prop.seriesx").with_label("host", "h0"),
            SeriesKey::new("prop.other").with_label("host", "h1"),
        ].into_iter().zip(&more) {
            reference.push((key, samples_from(steps)));
        }
        reference.sort_by(|a, b| a.0.cmp(&b.0));

        // Every window shape against the first series' timeline: the
        // random one (mid-chunk at both ends), one sample, the gap
        // between two neighbours, before the first, after the last.
        let timeline = &reference.iter().find(|(k, _)| k.label("host") == Some("h0")
            && k.metric() == "prop.series").expect("first series").1;
        let at = timeline[pick % timeline.len()].t_ns;
        let next = timeline.get(pick % timeline.len() + 1).map_or(u64::MAX, |s| s.t_ns);
        let (first, last) = (timeline[0].t_ns, timeline[timeline.len() - 1].t_ns);
        let windows = [
            (window.0.min(window.1), window.0.max(window.1)),
            (at, at),
            (at + 1, next - 1),
            (0, first - 1),
            (last + 1, u64::MAX),
            (0, u64::MAX),
        ];

        let store = Store::new(StoreConfig {
            chunk_samples,
            segment_bytes: 256,
            retention_ns: None,
        });
        // Interleaved like a sampling scheduler, so segments mix series.
        let longest = reference.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        for i in 0..longest {
            for (key, samples) in &reference {
                if let Some(s) = samples.get(i) {
                    store.ingest(key, ExportSemantics::Counter, s.t_ns, s.value).expect("in-order ingest");
                }
            }
        }
        queries_agree(&store, &reference, &windows, "heads + staged")?;
        store.flush().expect("flush");
        queries_agree(&store, &reference, &windows, "flushed")?;
        store.compact(u64::MAX).expect("compact");
        queries_agree(&store, &reference, &windows, "compacted")?;

        // And the whole run survives verbatim.
        let all = store.query(&Selector::metric("prop.series").with_label("host", "h0"), 0, u64::MAX)
            .expect("query all");
        prop_assert_eq!(&all[0].samples, &samples_from(&steps));
        prop_assert_eq!(all[0].semantics, ExportSemantics::Counter);
    }

    /// Zero (or negative) time steps are rejected at every layer: the
    /// chunk codec refuses to encode them and ingest refuses to accept
    /// them, so decoded history is strictly ordered by construction.
    #[test]
    fn zero_dt_is_rejected(
        prefix in prop::collection::vec((1u64..1_000, 0u64..1_000), 1..20),
        dup_at in 0usize..20,
    ) {
        let mut samples = samples_from(&prefix);
        let dup = samples[dup_at.min(samples.len() - 1)];
        samples.push(dup); // same timestamp again: zero dt somewhere
        samples.sort_by_key(|s| s.t_ns);
        let rejected = matches!(
            chunk::encode(&samples),
            Err(StoreError::OutOfOrder { .. })
        );
        prop_assert!(rejected, "codec accepted a zero-dt run");

        let store = Store::default();
        let key = SeriesKey::new("dup");
        let last = samples[samples.len() - 1];
        store.ingest(&key, ExportSemantics::Instant, last.t_ns, last.value).expect("first in");
        let again = store.ingest(&key, ExportSemantics::Instant, last.t_ns, 7);
        let rejected = matches!(again, Err(StoreError::OutOfOrder { .. }));
        prop_assert!(rejected, "ingest accepted a non-advancing timestamp");
    }

    /// A key is its (metric, label set), whatever order the labels came
    /// in: keys built from the same parts in any order are `==`, hash
    /// alike and compare `Equal`, and two keys compare `Equal` exactly
    /// when their parts are equal — ordered as the parts are.
    #[test]
    fn key_identity_ignores_label_order(
        metric in 0usize..3,
        labels in prop::collection::vec((0usize..3, 0usize..3, any::<u64>()), 0..5),
        other_metric in 0usize..3,
        other_labels in prop::collection::vec((0usize..3, 0usize..3, any::<u64>()), 0..5),
    ) {
        // Small alphabets, so equal keys are common; one value per
        // label key; the third element is a shuffle rank.
        let parts = |metric: usize, labels: &[(usize, usize, u64)]| {
            let mut set: Vec<(String, String)> = Vec::new();
            for &(k, v, _) in labels {
                let k = ["a", "b", "host"][k].to_string();
                if !set.iter().any(|(have, _)| *have == k) {
                    set.push((k, ["", "x", "xy"][v].to_string()));
                }
            }
            let mut shuffled = set.clone();
            let rank = |k: &str| labels.iter().find(|l| ["a", "b", "host"][l.0] == k).map(|l| l.2);
            shuffled.sort_by_key(|(k, _)| rank(k));
            set.sort();
            (["m", "m.a", "z"][metric].to_string(), set, shuffled)
        };
        let build = |metric: &str, labels: &[(String, String)]| {
            labels
                .iter()
                .fold(SeriesKey::new(metric), |k, (l, v)| k.with_label(l.as_str(), v.as_str()))
        };
        let hasher = RandomState::new();
        let (metric, sorted, shuffled) = parts(metric, &labels);
        let a = build(&metric, &sorted);
        let b = build(&metric, &shuffled);
        let c = SeriesKey::from_parts(metric.clone(), shuffled.clone());
        for k in [&b, &c] {
            prop_assert_eq!(&a, k);
            prop_assert_eq!(hasher.hash_one(&a), hasher.hash_one(k));
            prop_assert_eq!(a.cmp(k), Ordering::Equal);
            prop_assert_eq!(k.labels(), &sorted[..]);
        }

        let (other_metric, other_sorted, other_shuffled) = parts(other_metric, &other_labels);
        let other = build(&other_metric, &other_shuffled);
        let mine = (metric.as_str(), &sorted[..]);
        let theirs = (other_metric.as_str(), &other_sorted[..]);
        prop_assert_eq!(a.cmp(&other), mine.cmp(&theirs));
        prop_assert_eq!(a == other, mine == theirs);
        if a == other {
            prop_assert_eq!(hasher.hash_one(&a), hasher.hash_one(&other));
        }
    }
}

/// The windows the query path treats specially agree with the naive
/// reference: windows that start or end exactly on a chunk's first or
/// last sample (a chunk wholly inside is appended without a per-sample
/// test), windows that lie only in the unsealed heads, and windows that
/// span sealed segment chunks, staged chunks and the heads at once.
#[test]
fn windows_on_chunk_edges_heads_and_staged_chunks_agree_with_naive_reference() {
    let store = Store::new(StoreConfig {
        chunk_samples: 8,
        segment_bytes: 300,
        retention_ns: None,
    });
    let keys = [
        SeriesKey::new("prop.series").with_label("host", "h0"),
        SeriesKey::new("prop.series").with_label("host", "h1"),
        SeriesKey::new("prop.seriesx").with_label("host", "h0"),
        SeriesKey::new("prop.other").with_label("host", "h1"),
    ];
    // Irregular steps and wide values, 8 · (25 + k) + 5 samples for
    // series k: every head holds 5 unsealed samples, and the longer
    // series seal their last chunks after the others, too few bytes to
    // fill a segment, so those stay staged.
    let mut reference: Vec<(SeriesKey, Vec<Sample>)> = keys
        .iter()
        .enumerate()
        .map(|(k, key)| {
            let steps: Vec<(u64, u64)> = (0..205 + 8 * k as u64)
                .map(|i| {
                    (
                        1 + (i * 7 + k as u64 * 3) % 11 * 1_000,
                        i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    )
                })
                .collect();
            (key.clone(), samples_from(&steps))
        })
        .collect();
    reference.sort_by(|a, b| a.0.cmp(&b.0));
    for i in 0..229 {
        for (key, samples) in &reference {
            if let Some(p) = samples.get(i) {
                store
                    .ingest(key, ExportSemantics::Counter, p.t_ns, p.value)
                    .expect("in-order ingest");
            }
        }
    }
    let total: u64 = reference.iter().map(|(_, s)| s.len() as u64).sum();
    let sealed: u64 = store.segments().iter().map(|seg| seg.samples()).sum();
    let heads = 4 * 5;
    assert!(
        sealed > 0 && sealed < total - heads,
        "want sealed, staged and head samples at once: {sealed} sealed of {total}"
    );

    // Chunk edges come from the flushed store, whose chunks are the
    // staged and sealed chunks above plus the heads sealed as they are.
    let probe = Store::new(store.config());
    for (key, samples) in &reference {
        for p in samples {
            probe
                .ingest(key, ExportSemantics::Counter, p.t_ns, p.value)
                .expect("in-order ingest");
        }
    }
    probe.flush().expect("flush");
    let mut windows = Vec::new();
    for seg in probe.segments().iter() {
        for e in seg.entries().iter().step_by(3) {
            let (lo, hi) = (e.chunk.min_t(), e.chunk.max_t());
            windows.extend([
                (lo, hi),
                (lo, lo),
                (hi, hi),
                (lo, u64::MAX),
                (0, hi),
                (lo + 1, hi - 1),
                (lo - 1, hi + 1),
            ]);
        }
    }
    // Only in the heads: every series' last five samples.
    let timeline = &reference[0].1;
    let head = &timeline[timeline.len() - 5..];
    windows.extend([
        (head[0].t_ns, head[4].t_ns),
        (head[2].t_ns, head[2].t_ns),
        (head[0].t_ns, u64::MAX),
    ]);
    // Across all three tiers.
    let first = timeline[0].t_ns;
    windows.extend([
        (0, u64::MAX),
        (first + 1, head[1].t_ns),
        (timeline[100].t_ns, head[3].t_ns),
    ]);

    queries_agree(&store, &reference, &windows, "sealed + staged + heads").expect("agrees");
    store.flush().expect("flush");
    queries_agree(&store, &reference, &windows, "flushed").expect("agrees");
    store.compact(u64::MAX).expect("compact");
    queries_agree(&store, &reference, &windows, "compacted").expect("agrees");
}

/// Values past 2^53 survive the pipeline bit-for-bit — the explicit
/// regression for codecs that route sample values through f64.
#[test]
fn values_past_2_pow_53_survive_exactly() {
    let big = (1u64 << 53) + 1; // first integer an f64 cannot hold
    let samples = [
        Sample {
            t_ns: 1_000,
            value: big,
        },
        Sample {
            t_ns: 2_000,
            value: u64::MAX - 1,
        },
        Sample {
            t_ns: 3_000,
            value: u64::MAX,
        },
        Sample {
            t_ns: 4_000,
            value: big + 12345,
        },
    ];
    let c = chunk::encode(&samples).expect("encode");
    assert_eq!(c.samples().expect("decode"), samples);

    let store = Store::new(StoreConfig {
        chunk_samples: 2,
        segment_bytes: 64,
        retention_ns: None,
    });
    let key = SeriesKey::new("huge");
    for s in &samples {
        store
            .ingest(&key, ExportSemantics::Counter, s.t_ns, s.value)
            .expect("ingest");
    }
    store.flush().expect("flush");
    let got = store
        .query(&Selector::metric("huge"), 0, u64::MAX)
        .expect("query");
    assert_eq!(got[0].samples, samples);
}

/// A counter reset landing mid-chunk: the XOR codec round-trips the
/// drop exactly, and the reused `obs::derive` delta saturates at zero
/// instead of going negative — same answer the live monitor gives.
#[test]
fn counter_reset_mid_chunk_survives_and_saturates() {
    let mut samples = Vec::new();
    for i in 0..10u64 {
        // Counter climbs, the process restarts at i == 6, counter
        // restarts near zero mid-chunk.
        let value = if i < 6 { 1_000 + i * 500 } else { (i - 6) * 40 };
        samples.push(Sample {
            t_ns: (i + 1) * 1_000_000,
            value,
        });
    }
    let store = Store::new(StoreConfig {
        chunk_samples: 10, // the whole run, reset included, in one chunk
        segment_bytes: 64,
        retention_ns: None,
    });
    let key = SeriesKey::new("resetting.count");
    for s in &samples {
        store
            .ingest(&key, ExportSemantics::Counter, s.t_ns, s.value)
            .expect("ingest");
    }
    store.flush().expect("flush");
    let got = store
        .query(&Selector::metric("resetting.count"), 0, u64::MAX)
        .expect("query");
    assert_eq!(got[0].samples, samples, "reset survives compression");
    // Window spanning the reset: latest (160) < oldest (1000), so the
    // counter delta saturates to zero rather than underflowing.
    assert_eq!(got[0].derive(store::Derivation::Delta), Some(0.0));
    assert_eq!(got[0].derive(store::Derivation::Rate), Some(0.0));
}
