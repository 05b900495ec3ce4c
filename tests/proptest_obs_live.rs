//! Property-based tests for the live-monitoring layer: derivations over
//! randomized monotone series, and exposition render/parse round-trips
//! through the strict in-repo parser.

use proptest::prelude::*;

use obs::derive::{delta, ewma, rate, Monitor, Predicate, Rule};
use obs::metrics::{ExportSemantics, Exported};
use obs::openmetrics::{parse, render, sanitize, strip_timestamp, MetricKind, OmSample, Value};
use obs::series::Sample;

/// Build a monotone counter window from random non-negative increments
/// and random positive time steps.
fn counter_window(increments: &[(u64, u64)]) -> Vec<Sample> {
    let mut t = 0u64;
    let mut v = 0u64;
    increments
        .iter()
        .map(|&(dt, dv)| {
            t += dt;
            v = v.saturating_add(dv);
            Sample { t_ns: t, value: v }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over any monotone counter series, the window delta is exactly the
    /// sum of the retained increments and the rate is non-negative and
    /// consistent with delta / span.
    #[test]
    fn rate_and_delta_over_monotone_counters(
        increments in prop::collection::vec((1u64..1_000_000, 0u64..1_000_000), 2..64)
    ) {
        let s = counter_window(&increments);
        let (oldest, latest) = (s[0], s[s.len() - 1]);
        let d = delta(ExportSemantics::Counter, &s).expect("two samples give a delta");
        prop_assert!(d >= 0, "counter delta must be non-negative, got {d}");
        prop_assert_eq!(d as u64, latest.value - oldest.value, "delta is sum of window increments");
        let r = rate(ExportSemantics::Counter, &s).expect("two samples give a rate");
        prop_assert!(r >= 0.0, "counter rate must be non-negative, got {r}");
        let span_s = (latest.t_ns - oldest.t_ns) as f64 / 1e9;
        prop_assert!((r - d as f64 / span_s).abs() <= 1e-9 * (1.0 + r.abs()),
            "rate {r} inconsistent with delta {d} over {span_s}s");
        // EWMA stays inside the value envelope of the window.
        let e = ewma(&s, 1_000_000).expect("non-empty series");
        prop_assert!(e >= oldest.value as f64 - 1e-6 && e <= latest.value as f64 + 1e-6,
            "ewma {e} outside [{}, {}]", oldest.value, latest.value);
    }

    /// Non-advancing timestamps are dropped rather than poisoning a
    /// monitor's window: whatever lands in it keeps strictly increasing
    /// timestamps, so the rate denominator is always positive.
    #[test]
    fn series_timestamps_strictly_increase(
        steps in prop::collection::vec((0u64..3, 0u64..100), 2..48)
    ) {
        let rule = Rule { name: "alert.prop.g", metric: "g", predicate: Predicate::ValueAbove(u64::MAX) };
        let mut mon = Monitor::new(16, vec![rule]);
        let mut t = 1u64;
        for &(dt, value) in &steps {
            t += dt; // dt may be zero: a non-advancing clock
            let name = "g".to_string();
            mon.tick(t, &[Exported { name, value, semantics: ExportSemantics::Instant }]);
        }
        let s = mon.window("g").unwrap().samples();
        let times: Vec<u64> = s.iter().map(|p| p.t_ns).collect();
        for w in times.windows(2) {
            prop_assert!(w[0] < w[1], "timestamps not strictly increasing: {times:?}");
        }
        if s.len() >= 2 {
            prop_assert!(rate(ExportSemantics::Instant, s).is_some());
        }
    }

    /// render -> parse -> render is the identity on arbitrary sample
    /// lists: names survive sanitization, u64 counters survive exactly
    /// (beyond 2^53), and the Value variant (Int vs Float) is preserved.
    #[test]
    fn exposition_round_trips_through_strict_parser(
        raw in prop::collection::vec(
            (0u32..1000, any::<bool>(), any::<u64>(), -1e12f64..1e12),
            0..24
        ),
        ts_some in any::<bool>(),
        ts_val in any::<u64>(),
    ) {
        let ts = ts_some.then_some(ts_val);
        let mut samples: Vec<OmSample> = Vec::new();
        for (i, (seed, is_counter, int_val, float_val)) in raw.iter().enumerate() {
            // Dotted names with digits and varying shapes, unique by
            // index; sanitize maps them onto the exposition charset.
            let name = sanitize(&format!("live.{seed}.probe_{i}"));
            if samples.iter().any(|s| s.name == name) {
                continue; // the strict parser (rightly) rejects duplicates
            }
            let (kind, value) = if *is_counter {
                (MetricKind::Counter, Value::Int(*int_val))
            } else if int_val % 2 == 0 {
                (MetricKind::Gauge, Value::Int(*int_val))
            } else {
                (MetricKind::Gauge, Value::Float(*float_val))
            };
            samples.push(OmSample::new(name, kind, value));
        }
        let text = render(&samples, ts);
        let parsed = parse(&text).unwrap_or_else(|e| panic!("rejected own render: {e}\n{text}"));
        prop_assert_eq!(parsed.scrape_ts_ns, ts);
        prop_assert_eq!(&parsed.samples, &samples);
        prop_assert_eq!(render(&parsed.samples, parsed.scrape_ts_ns), text);
        // Stripping the timestamp is exactly "render without one".
        prop_assert_eq!(strip_timestamp(&text), render(&samples, None));
    }

    /// Labelled samples round-trip too, with hostile bytes in label
    /// values: backslashes, quotes and newlines render escaped and
    /// parse back to the original value. Strings are synthesised from
    /// byte choices because the vendored proptest shim has no string
    /// strategies.
    #[test]
    fn labelled_exposition_round_trips_with_hostile_values(
        raw in prop::collection::vec(
            prop::collection::vec(0u8..8, 0..12),
            1..12
        ),
        counters in prop::collection::vec(any::<bool>(), 12),
    ) {
        let alphabet = ['\\', '"', '\n', ' ', ',', '}', '{', '\u{00e9}'];
        let mut samples: Vec<OmSample> = Vec::new();
        for (i, choices) in raw.iter().enumerate() {
            let value: String = choices.iter().map(|&c| alphabet[c as usize]).collect();
            let kind = if counters[i % counters.len()] {
                MetricKind::Counter
            } else {
                MetricKind::Gauge
            };
            samples.push(
                OmSample::new(format!("fleet_probe_{i}"), kind, Value::Int(i as u64))
                    .with_label("host", format!("tellico-{i:04}"))
                    .with_label("v", value),
            );
        }
        let text = render(&samples, None);
        let parsed = parse(&text).unwrap_or_else(|e| panic!("rejected own render: {e}\n{text}"));
        prop_assert_eq!(&parsed.samples, &samples);
        prop_assert_eq!(render(&parsed.samples, None), text);
    }
}
