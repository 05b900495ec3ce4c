//! Self-observability artifacts for `repro`.
//!
//! `repro` calls [`write_artifacts`] once at the end of its run: the
//! tracer holds the run's spans, and this writes a Chrome-trace JSON
//! (loadable in `chrome://tracing` / Perfetto) plus a folded-stack file
//! (pipe into `flamegraph.pl`) next to the experiment outputs.

use std::fs;
use std::path::Path;

/// Drain the tracer and write `<dir>/TRACE_<tag>.json` and
/// `<dir>/FLAME_<tag>.folded`. Returns the number of events written.
pub fn write_artifacts(dir: &Path, tag: &str) -> usize {
    let events = obs::drain();
    if events.is_empty() {
        return 0;
    }
    if fs::create_dir_all(dir).is_err() {
        return 0;
    }
    let trace_path = dir.join(format!("TRACE_{tag}.json"));
    let flame_path = dir.join(format!("FLAME_{tag}.folded"));
    let _ = fs::write(&trace_path, obs::chrome::chrome_trace_json(&events));
    let _ = fs::write(&flame_path, obs::flame::folded_stacks(&events));
    eprintln!(
        "# obs: {} events -> {}, {} ({} dropped)",
        events.len(),
        trace_path.display(),
        flame_path.display(),
        obs::dropped_records(),
    );
    events.len()
}

/// The canonical live-monitoring rules (DESIGN.md §11), which the
/// golden-figure suite holds silent over a whole catalog run: a clean
/// run must never shed scrape requests nor let the server-side fetch
/// p99 cross one second.
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

        // Nothing else in this binary drains, and draining first leaves
        // this thread's ring room for the span, so it must be written.
        drop(obs::drain());
        {
            let _span = obs::trace::SpanGuard::new("obsreport.test");
        }
        assert!(write_artifacts(&tmp, "test") > 0);
        let doc = fs::read_to_string(tmp.join("TRACE_test.json")).unwrap();
        let parsed = obs::chrome::parse_chrome_trace(&doc).unwrap();
        assert!(parsed.iter().any(|e| e.name == "obsreport.test"));
        let folded = fs::read_to_string(tmp.join("FLAME_test.folded")).unwrap();
        assert!(folded.contains("obsreport.test"));

        let _ = fs::remove_dir_all(&tmp);
    }
}
