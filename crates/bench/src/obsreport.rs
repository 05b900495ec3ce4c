//! Self-observability artifacts for the bench binaries.
//!
//! Each bench binary calls [`write_artifacts`] once at the end of its run.
//! When the stack was built with `--features obs` the tracer holds the
//! run's spans, and this writes a Chrome-trace JSON (loadable in
//! `chrome://tracing` / Perfetto) plus a folded-stack file (pipe into
//! `flamegraph.pl`) under `results/`. Without the feature nothing was
//! recorded and the call is a no-op, so call sites need no gating.

use std::fs;
use std::path::Path;

/// Drain the tracer and write `results/TRACE_<tag>.json` and
/// `results/FLAME_<tag>.folded`. Returns the number of events written.
pub fn write_artifacts(tag: &str) -> usize {
    let events = obs::drain();
    if events.is_empty() {
        return 0;
    }
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        return 0;
    }
    let trace = obs::chrome::chrome_trace_json(&events);
    let _ = fs::write(dir.join(format!("TRACE_{tag}.json")), trace);
    let folded = obs::flame::folded_stacks(&events);
    let _ = fs::write(dir.join(format!("FLAME_{tag}.folded")), folded);
    eprintln!(
        "# obs: {} events -> results/TRACE_{tag}.json, results/FLAME_{tag}.folded ({} dropped)",
        events.len(),
        obs::dropped_records(),
    );
    events.len()
}

/// Render the global metric registry as a live-dashboard table to
/// stderr (counters, gauges, histogram sparklines). Metrics are always
/// on, so this shows MBA accounting totals even without the feature.
pub fn print_dashboard() {
    eprint!("{}", obs::dashboard::render(obs::registry()));
}

/// The canonical live-monitoring rules (DESIGN.md §11), shared by the
/// repro runner, the live-monitor smoke binary and the golden-figure
/// suite: a clean run must never shed scrape requests nor let the
/// server-side fetch p99 cross one second.
pub fn canonical_rules() -> Vec<obs::Rule> {
    vec![
        obs::Rule {
            name: "alert.queue.shedding",
            metric: "wire.scrape.shed",
            predicate: obs::Predicate::RateAbove(0.0),
        },
        obs::Rule {
            name: "alert.fetch.p99_over_budget",
            metric: "pmcd.fetch.latency_ns.p99",
            predicate: obs::Predicate::ValueAbove(1_000_000_000),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_written_when_events_exist() {
        let tmp = std::env::temp_dir().join(format!("obsreport-test-{}", std::process::id()));
        fs::create_dir_all(&tmp).unwrap();
        let cwd = std::env::current_dir().unwrap();
        std::env::set_current_dir(&tmp).unwrap();

        {
            let _span = obs::trace::SpanGuard::new("obsreport.test");
        }
        let n = write_artifacts("test");
        // Other tests in this binary may have drained first; only check
        // the artifact when our span survived until the drain.
        if n > 0 {
            let doc = fs::read_to_string("results/TRACE_test.json").unwrap();
            assert!(obs::chrome::parse_chrome_trace(&doc).is_ok());
            assert!(fs::metadata("results/FLAME_test.folded").is_ok());
        }

        std::env::set_current_dir(cwd).unwrap();
        let _ = fs::remove_dir_all(&tmp);
    }
}
