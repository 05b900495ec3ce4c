//! Observability under parallelism: the span tracer and the metric
//! registry are process-global, so a multi-worker repro run drains to
//! ONE coherent stream.
//!
//! * The merged span buffer must render to a Chrome trace that
//!   round-trips the strict parser in `obs::chrome` — worker threads
//!   interleave records, but every span still closes on its own thread.
//! * Registry counters fed from worker points must merge to exactly the
//!   sequential totals: addition commutes, interleaving must not.

use obs::chrome::{chrome_trace_json, parse_chrome_trace, parse_json};
use repro_bench::figures;
use repro_bench::runner::{run_experiments, Experiment, Point, PointOutput, RunnerError};
use repro_bench::{point_seed, System};

/// A small measured sweep: every point runs a real instrumented kernel
/// (so memsim/kernels spans fire) and feeds the registry.
fn instrumented_sweep(points_counter: &'static str, bytes_counter: &'static str) -> Experiment {
    let mut exp = Experiment::new("obs-sweep", "instrumented gemm sweep");
    for (i, n) in [24u64, 32, 48, 64].into_iter().enumerate() {
        let seed = point_seed(90, "obs-sweep", i as u64);
        exp.push(Point::run(format!("n={n}"), move || {
            let row = figures::gemm_point(System::Summit, 1, n, 1, seed).map_err(|e| {
                RunnerError::Point {
                    experiment: "obs-sweep".into(),
                    point: format!("n={n}"),
                    message: e.to_string(),
                }
            })?;
            obs::registry().counter(points_counter).inc();
            obs::registry().counter(bytes_counter).add(row.sim_bytes());
            Ok(PointOutput::with_bytes(row.csv_line(), row.sim_bytes()))
        }));
    }
    exp
}

/// Per-worker span records drain into one buffer that still renders a
/// valid, parseable Chrome trace.
#[test]
fn parallel_spans_render_one_valid_chrome_trace() {
    let _ = obs::drain(); // discard spans from other tests in this binary
    let report = run_experiments(
        vec![instrumented_sweep(
            "repro.test.points_trace",
            "repro.test.bytes_trace",
        )],
        4,
    );
    assert!(report.experiments[0].errors.is_empty());

    let events = obs::drain();
    assert!(!events.is_empty(), "an instrumented run must record spans");
    let doc = chrome_trace_json(&events);
    parse_json(&doc).expect("chrome trace is well-formed JSON");
    let parsed = parse_chrome_trace(&doc).expect("chrome trace round-trips the strict parser");
    assert!(
        !parsed.is_empty(),
        "round-tripped trace lost all {} events",
        events.len()
    );
}

/// Counters fed concurrently from 4 workers equal the 1-worker totals.
#[test]
fn registry_merge_matches_sequential_totals() {
    let count = |name: &str| -> u64 {
        obs::registry()
            .export()
            .into_iter()
            .find(|e| e.name == name)
            .map_or(0, |e| e.value)
    };

    let p0 = count("repro.test.points_merge");
    let b0 = count("repro.test.bytes_merge");
    let serial = run_experiments(
        vec![instrumented_sweep(
            "repro.test.points_merge",
            "repro.test.bytes_merge",
        )],
        1,
    );
    assert!(serial.experiments[0].errors.is_empty());
    let p_serial = count("repro.test.points_merge") - p0;
    let b_serial = count("repro.test.bytes_merge") - b0;
    assert_eq!(p_serial, 4, "one increment per point");
    assert!(b_serial > 0);

    let parallel = run_experiments(
        vec![instrumented_sweep(
            "repro.test.points_merge",
            "repro.test.bytes_merge",
        )],
        4,
    );
    assert!(parallel.experiments[0].errors.is_empty());
    let p_parallel = count("repro.test.points_merge") - p0 - p_serial;
    let b_parallel = count("repro.test.bytes_merge") - b0 - b_serial;

    assert_eq!(p_parallel, p_serial, "point counts merge identically");
    assert_eq!(b_parallel, b_serial, "byte totals merge identically");
    assert_eq!(
        serial.experiments[0].output, parallel.experiments[0].output,
        "instrumentation must not perturb the composed output"
    );
}
