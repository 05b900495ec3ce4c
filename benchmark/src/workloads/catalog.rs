//! `catalog_quick`: the product. The whole paper catalog in quick mode,
//! through `runner::run_experiments` at one worker. Every experiment's
//! output must equal its committed `results/GOLDEN_<tag>.json` under the
//! comparison rule of `tests/golden_figures.rs`, so the accuracy
//! statement is binary: error against the reference is zero, or the op
//! fails. The catalog's seeds are fixed by the goldens; `--seed` does not
//! apply here.

use repro_bench::runner::{run_experiments, Experiment, ExperimentReport, Point};
use repro_bench::{experiments, Args, Mode};

use crate::harness::{peak_rss_mib, pin_to_one_cpu, repeated_setup, Checks, Ctx, EndToEnd, Layers};
use crate::json::{parse_json, Json, JsonExt};
use crate::spans::Recorder;
use crate::stats::median;

/// Relative tolerance for numeric columns of measurement figures: the
/// model is deterministic, so this only absorbs float formatting.
const NUMERIC_REL_EPS: f64 = 1e-6;

/// Whole-catalog repetitions of an untraced run.
const REPS: usize = 3;

/// Fixed points timed for `bench.runner_us_per_fixed_point`.
const FIXED_POINTS: usize = 20_000;

fn is_measurement(tag: &str) -> bool {
    tag == "ablation" || (tag.starts_with("fig") && tag != "fig1")
}

fn tokens(line: &str) -> Vec<&str> {
    line.split(|c: char| c == ',' || c.is_whitespace())
        .filter(|t| !t.is_empty())
        .collect()
}

/// First difference between an experiment's output and its golden, or
/// `None` when they agree: text tokens exactly, numeric tokens of
/// measurement figures within [`NUMERIC_REL_EPS`].
fn golden_mismatch(tag: &str, got: &str, want: &str) -> Option<String> {
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    if got_lines.len() != want_lines.len() {
        return Some(format!(
            "{} lines, golden has {}",
            got_lines.len(),
            want_lines.len()
        ));
    }
    for (n, (g, w)) in got_lines.iter().zip(&want_lines).enumerate() {
        let (gt, wt) = (tokens(g), tokens(w));
        if gt.len() != wt.len() {
            return Some(format!("line {}: token count differs", n + 1));
        }
        for (a, b) in gt.iter().zip(&wt) {
            let close = match (a.parse::<f64>(), b.parse::<f64>()) {
                (Ok(x), Ok(y)) if is_measurement(tag) => {
                    x == y || (x - y).abs() <= NUMERIC_REL_EPS * x.abs().max(y.abs())
                }
                _ => false,
            };
            if a != b && !close {
                return Some(format!("line {}: '{a}' != golden '{b}'", n + 1));
            }
        }
    }
    None
}

/// One committed reference: the mode it was recorded in and its output,
/// or why it could not be read.
type Golden = Result<(Mode, String), String>;

/// The committed references, by tag.
struct Goldens(Vec<(&'static str, Golden)>);

fn load_goldens() -> Goldens {
    Goldens(
        experiments::TAGS
            .iter()
            .map(|&tag| {
                let path = format!("results/GOLDEN_{tag}.json");
                let output = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|doc| parse_json(&doc).map_err(|e| format!("{path}: {e}")))
                    .and_then(|doc| {
                        let mode = match doc.get("mode").and_then(Json::as_str) {
                            Some("quick") => Mode::Quick,
                            Some("full") => Mode::Full,
                            _ => Mode::Default,
                        };
                        doc.get("output")
                            .and_then(Json::as_str)
                            .map(|out| (mode, out.to_owned()))
                            .ok_or_else(|| format!("{path}: no output field"))
                    });
                (tag, output)
            })
            .collect(),
    )
}

fn check_experiment(er: &ExperimentReport, goldens: &Goldens, checks: &mut Checks) {
    let problem = if let Some(e) = er.errors.first() {
        Some(format!("runner error: {e}"))
    } else {
        match goldens.0.iter().find(|(t, _)| *t == er.tag) {
            Some((_, Ok((_, want)))) => golden_mismatch(er.tag, &er.output, want),
            Some((_, Err(e))) => Some(e.clone()),
            None => Some("no golden reference".into()),
        }
    };
    checks.check(problem.is_none(), || {
        format!("{}: {}", er.tag, problem.unwrap_or_default())
    });
}

/// Set-up: read and parse the goldens, then build the catalog's work
/// list — every experiment in the mode its golden was recorded in (quick
/// for all but the mode-independent `refute`), as the regression suite
/// does.
fn setup() -> (Goldens, Vec<Experiment>) {
    let goldens = load_goldens();
    let catalog = goldens
        .0
        .iter()
        .filter_map(|(tag, golden)| {
            let mode = golden.as_ref().map_or(Mode::Quick, |(mode, _)| *mode);
            experiments::build(tag, mode, &Args::default())
        })
        .collect();
    (goldens, catalog)
}

pub fn untraced(_ctx: &Ctx, checks: &mut Checks) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    // The experiments simulate 21 cores on 21 threads that take turns:
    // the process keeps one CPU busy wherever they run. On one CPU they
    // take the same time and the scheduler has nothing left to decide.
    checks.check(pin_to_one_cpu(), || "could not pin to one CPU".into());
    let ((goldens, mut catalog), setups) = repeated_setup(15, setup);
    e2e.setups_s = setups;
    // The catalog is one fixed piece of work, too long to repeat often,
    // so it is run REPS times and every experiment counts at its median.
    // Per experiment: tag, measured points, busy seconds of every pass.
    let mut timed: Vec<(&str, usize, Vec<f64>)> = vec![("", 0, Vec::new()); catalog.len()];
    for rep in 0..REPS {
        if rep > 0 {
            catalog = setup().1;
        }
        let report = run_experiments(std::mem::take(&mut catalog), 1);
        if rep == 0 {
            // The product runs the catalog once, so its peak is the first
            // pass's. The later passes are this benchmark's repetition, and
            // how much of the first pass's freed memory they can reuse is a
            // race between the 21-thread experiments for glibc's arenas:
            // the process-wide peak lands on 321, 500, 611 or 666 MiB.
            e2e.peak_rss_mib = Some(peak_rss_mib());
        }
        for (er, (tag, points, seconds)) in report.experiments.iter().zip(&mut timed) {
            // At one worker an experiment's busy time is its latency.
            (*tag, *points) = (er.tag, er.measured);
            seconds.push(er.busy_seconds);
            check_experiment(er, &goldens, checks);
        }
    }
    // The op is a measurement point. The runner reports busy time per
    // experiment, so a point counts at its experiment's mean.
    for (tag, points, seconds) in &timed {
        let s = median(seconds);
        eprintln!("stackbench: catalog_quick: {tag} median {s:.3} s, {points} points");
        e2e.wall_s += s;
        let per_point_us = s * 1e6 / (*points).max(1) as f64;
        e2e.op_us
            .extend(std::iter::repeat(per_point_us).take(*points));
    }
    e2e.work_per_s = e2e.op_us.len() as f64 / e2e.wall_s;
    e2e
}

/// The traced run times each experiment on its own, under its own span
/// (the runner reports no per-experiment wall clock, only busy time).
pub fn traced(_ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder) -> Layers {
    let mut layers = Layers::default();
    checks.check(pin_to_one_cpu(), || "could not pin to one CPU".into());
    let (goldens, catalog) = setup();
    let (mut points, mut seconds, mut sim_bytes) = (0usize, 0.0, 0u64);
    let open = rec.begin("bench.catalog", 0);
    for (i, exp) in catalog.into_iter().enumerate() {
        let tag = exp.tag;
        let (report, s) = rec.timed("bench.experiment", i as u64, || {
            run_experiments(vec![exp], 1)
        });
        for er in &report.experiments {
            check_experiment(er, &goldens, checks);
        }
        points += report.total_points();
        sim_bytes += report.total_sim_bytes();
        seconds += s;
        layers.set(format!("bench.experiment.{tag}_s"), s);
    }
    rec.end(open);
    layers.set("bench.points_per_s", points as f64 / seconds);
    // As the runner reports it: several experiments still account 0
    // simulated bytes (ROADMAP item 1), recorded here so the fix shows.
    layers.set("bench.catalog_sim_bytes", sim_bytes as f64);

    let mut fixed = Experiment::new("fixed", "runner overhead");
    for i in 0..FIXED_POINTS {
        fixed.push(Point::fixed(format!("# line {i}")));
    }
    let (report, s) = rec.timed("bench.runner_fixed_points", 0, || {
        run_experiments(vec![fixed], 1)
    });
    checks.check(report.experiments[0].points == FIXED_POINTS, || {
        "runner dropped fixed points".into()
    });
    layers.set(
        "bench.runner_us_per_fixed_point",
        s * 1e6 / FIXED_POINTS as f64,
    );
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_rule_is_exact_for_text_and_tolerant_for_measurements() {
        assert_eq!(golden_mismatch("table1", "a, b\n1.0", "a,  b\n1.0"), None);
        assert!(golden_mismatch("table1", "n,1.0000001", "n,1.0").is_some());
        assert_eq!(golden_mismatch("fig5", "n,1.0000001", "n,1.0"), None);
        assert!(golden_mismatch("fig5", "n,1.001", "n,1.0").is_some());
        assert!(golden_mismatch("fig1", "n,1.0000001", "n,1.0").is_some());
        assert!(golden_mismatch("fig5", "a\nb", "a").is_some());
        assert!(golden_mismatch("fig5", "a b", "a").is_some());
    }
}
