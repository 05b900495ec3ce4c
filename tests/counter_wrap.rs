//! Counter-wrap edge cases: u64 counters within one delta of
//! `u64::MAX` driven through every layer that interprets them —
//! `obs::derive` window math, compressed store ingest/query, and
//! OpenMetrics render/parse. These tests *pin* the saturation
//! semantics:
//!
//! - counter deltas are `last.saturating_sub(first)` — a counter that
//!   goes backwards (daemon restart, wrap) derives as zero, never as an
//!   underflowed garbage value;
//! - storage and exposition carry `u64` values exactly at the extremes,
//!   so saturation happens in exactly one place (derivation), not
//!   silently in transport or at rest.

use obs::derive::{delta, rate};
use obs::metrics::ExportSemantics::{Counter, Instant};
use obs::openmetrics::{parse, render, strip_timestamp, MetricKind, OmSample, Value};
use obs::series::Sample;
use store::{Derivation, Selector, SeriesKey, Store};

fn window(samples: &[(u64, u64)]) -> Vec<Sample> {
    samples
        .iter()
        .map(|&(t_ns, value)| Sample { t_ns, value })
        .collect()
}

/// One step below the top of the range: the delta is exact.
#[test]
fn delta_one_below_max_is_exact() {
    let s = window(&[(1, u64::MAX - 1), (2, u64::MAX)]);
    assert_eq!(delta(Counter, &s), Some(1));
    let r = rate(Counter, &s).unwrap();
    assert!(r > 0.0 && r.is_finite());
}

/// A counter that falls off the top (wrap or daemon restart) saturates
/// to a zero delta — the pinned semantics that makes the crash/restart
/// archive (tests/chaos_wire.rs) derivable without special cases.
#[test]
fn delta_across_a_reset_saturates_to_zero() {
    let s = window(&[(1, u64::MAX), (2, 5)]);
    assert_eq!(
        delta(Counter, &s),
        Some(0),
        "reset must derive as zero, not underflow"
    );
    assert_eq!(rate(Counter, &s), Some(0.0));
}

/// Saturation is per-window, not per-step: a reset *inside* the window
/// still derives from endpoints only. first=MAX, ..., last=MAX-1 is a
/// backwards window end to end, so it saturates to zero even though the
/// counter moved forward after the reset.
#[test]
fn reset_inside_the_window_still_saturates_on_endpoints() {
    let s = window(&[(1, u64::MAX), (2, 10), (3, u64::MAX - 1)]);
    assert_eq!(delta(Counter, &s), Some(0));
}

/// Instant (gauge) semantics do NOT saturate — signed distance is the
/// point of an instant series. The two semantics must stay distinct.
#[test]
fn instant_series_keep_signed_deltas() {
    let s = window(&[(1, 100), (2, 40)]);
    assert_eq!(delta(Instant, &s), Some(-60));
}

/// A hostile gauge: two instants can sit further apart than `i64`
/// reaches. The signed distance is computed wide and clamped into
/// `i64`, never overflowed. Outside input reaches this: a host's
/// exposition gauge is stored as an instant series and derived by the
/// fleet's `/debug/series?derive=delta|rate`.
#[test]
fn instant_delta_across_the_sign_bit_is_exact_or_clamped() {
    let store = Store::default();
    let key = SeriesKey::new("wrap.hostile").with_label("host", "h0");
    for (t_ns, value) in [(1, 1 << 63), (2, 1)] {
        store.ingest(&key, Instant, t_ns, value).expect("ingest");
    }
    let got = store
        .query(&Selector::metric("wrap.hostile"), 0, u64::MAX)
        .expect("query");
    let exact = i64::MIN + 1; // 1 - 2^63 fits, just
    assert_eq!(got[0].derive(Derivation::Delta), Some(exact as f64));
    let r = got[0].derive(Derivation::Rate).expect("rate");
    assert!(r < 0.0 && r.is_finite(), "{r}");
    // Beyond the i64 range either way, the distance clamps.
    assert_eq!(
        delta(Instant, &window(&[(1, 0), (2, u64::MAX)])),
        Some(i64::MAX)
    );
    assert_eq!(
        delta(Instant, &window(&[(1, u64::MAX), (2, 0)])),
        Some(i64::MIN)
    );
}

/// Pinned limitation: `delta` returns `i64`, so a *forward* counter
/// delta wider than `i64::MAX` wraps in the cast (u64::MAX saturates the
/// subtraction, then reinterprets as -1). The simulator's byte counters
/// cannot move 2^63 in one window — this test documents the edge so a
/// future widening of the return type is a deliberate semantic change.
#[test]
fn full_range_forward_delta_wraps_in_the_i64_cast() {
    let s = window(&[(1, 0), (2, u64::MAX)]);
    assert_eq!(delta(Counter, &s), Some(-1));
}

/// The compressed store round-trips extreme u64 values exactly —
/// including across a sealed-chunk boundary, so both the head path and
/// the delta-of-delta/XOR codec see the top of the range.
#[test]
fn store_round_trips_values_at_the_top_of_the_range() {
    let store = Store::default();
    let key = SeriesKey::new("wrap.bytes").with_label("host", "h0");
    // Enough samples to seal at least one chunk with the default config,
    // oscillating within one delta of the top.
    let n = store.config().chunk_samples * 2 + 7;
    let mut want = Vec::with_capacity(n);
    for i in 0..n {
        let t_ns = 10 + i as u64;
        let value = u64::MAX - (i as u64 % 2);
        store.ingest(&key, Counter, t_ns, value).expect("ingest");
        want.push((t_ns, value));
    }
    store.flush().expect("flush");
    let got = store
        .query(&Selector::metric("wrap.bytes"), 0, u64::MAX)
        .expect("query");
    assert_eq!(got.len(), 1, "one series expected");
    let samples: Vec<(u64, u64)> = got[0].samples.iter().map(|s| (s.t_ns, s.value)).collect();
    assert_eq!(samples, want, "lossy codec at the top of the u64 range");
}

/// Monotone near-MAX ramps (the realistic wrap approach) also survive
/// the codec exactly.
#[test]
fn store_round_trips_a_ramp_into_max() {
    let store = Store::default();
    let key = SeriesKey::new("wrap.ramp");
    let n = 64u64;
    for i in 0..n {
        store
            .ingest(&key, Counter, 1 + i, u64::MAX - (n - 1) + i)
            .expect("ingest");
    }
    store.flush().expect("flush");
    let got = store
        .query(&Selector::metric("wrap.ramp"), 0, u64::MAX)
        .expect("query");
    let values: Vec<u64> = got[0].samples.iter().map(|s| s.value).collect();
    assert_eq!(values.last(), Some(&u64::MAX));
    assert!(values.windows(2).all(|w| w[1] == w[0] + 1));
}

/// OpenMetrics integers are exact at the extremes: render ∘ parse is the
/// identity for u64::MAX, and the value survives as `Int` (never
/// silently degraded to a lossy float).
#[test]
fn openmetrics_round_trips_u64_max_exactly() {
    let samples = vec![
        OmSample::new("wrap_total", MetricKind::Counter, Value::Int(u64::MAX))
            .with_label("chan", "0"),
        OmSample::new("wrap_total", MetricKind::Counter, Value::Int(u64::MAX - 1))
            .with_label("chan", "1"),
        OmSample::new("wrap_floor", MetricKind::Gauge, Value::Int(0)),
    ];
    let text = render(&samples, Some(123));
    let parsed = parse(&text).expect("render output parses");
    assert_eq!(parsed.scrape_ts_ns, Some(123));
    assert_eq!(parsed.samples, samples, "render/parse not an identity");
    // u64::MAX is not representable in f64; an exact text round-trip
    // proves no float path touched the value.
    assert!(text.contains(&u64::MAX.to_string()));
    // strip_timestamp keeps the values, drops only the scrape header.
    let stripped = strip_timestamp(&text);
    let reparsed = parse(&stripped).expect("stripped output parses");
    assert_eq!(reparsed.scrape_ts_ns, None);
    assert_eq!(reparsed.samples, samples);
}
