//! One run of one workload: measure, check, and print the result object
//! as the last line of standard output.

use std::time::Instant;

use crate::harness::{ns_per_call, peak_rss_mib, Checks, Ctx};
use crate::json::{Json, JsonExt};
use crate::metrics::{self, END_TO_END};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads;

/// Where traced runs leave their span files.
pub const OUT_DIR: &str = "benchmark/out";

/// Cost of recording one span, measured on a scratch recorder.
fn span_cost_ns() -> f64 {
    let mut scratch = Recorder::new(true);
    ns_per_call(20, 10_000, || {
        let open = scratch.begin("bench.span_cost", 0);
        scratch.end(open);
    })
}

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn end_to_end(workload: &str, ctx: &Ctx, checks: &mut Checks) -> Option<Vec<Metric>> {
    let e2e = workloads::untraced(workload, ctx, checks)?;
    let values = [
        median(&e2e.setups_s),
        e2e.peak_rss_mib.unwrap_or_else(peak_rss_mib),
        e2e.wall_s,
        e2e.work_per_s,
        median(&e2e.op_us),
    ];
    Some(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_owned(), v, unit))
            .collect(),
    )
}

fn per_layer(workload: &str, ctx: &Ctx, checks: &mut Checks) -> Option<Vec<Metric>> {
    let span_ns = span_cost_ns();
    let mut rec = Recorder::new(true);
    let t = Instant::now();
    let mut layers = workloads::traced(workload, ctx, checks, &mut rec)?;
    let traced_s = t.elapsed().as_secs_f64();
    let spans = rec.spans().len() as f64;
    layers.set("bench.span_ns", span_ns);
    layers.set("bench.spans_recorded", spans);
    // The recorder's own cost as a share of the traced run. The suite
    // also reports the measured difference between the untraced and the
    // traced process (RESULT.json, `traced_vs_untraced`).
    layers.set(
        "bench.trace_overhead_share",
        spans * span_ns * 1e-9 / traced_s,
    );

    let path = format!("{OUT_DIR}/TRACE_{workload}.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, rec.to_json(workload).render_pretty()));
    checks.result(&path, written);

    let declared = metrics::per_layer();
    for (name, _) in &layers.0 {
        checks.check(declared.iter().any(|(n, _)| n == name), || {
            format!("{name} was measured but is not a declared per-layer metric")
        });
    }
    Some(
        declared
            .into_iter()
            .map(|(name, unit)| {
                // A layer this workload never calls did no work: 0.
                let v = layers
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, v, unit)
            })
            .collect(),
    )
}

/// Run `workload` once and print its result object. `Ok(true)` when
/// every operation and check passed.
pub fn run_one(workload: &str, ctx: &Ctx, trace: bool) -> Result<bool, String> {
    let mut checks = Checks::default();
    let values = if trace {
        per_layer(workload, ctx, &mut checks)
    } else {
        end_to_end(workload, ctx, &mut checks)
    }
    .ok_or_else(|| {
        format!(
            "unknown workload '{workload}' (known: {})",
            metrics::WORKLOADS.join(", ")
        )
    })?;
    for m in &checks.messages {
        eprintln!("stackbench: {workload}: FAILED {m}");
    }
    let metrics = Json::obj(values.into_iter().map(|(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    let result = Json::obj([
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Num(checks.attempted.max(1) as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(checks.failed == 0)
}
