//! `repro` — reproduce every figure, table and study of the paper in
//! one parallel run.
//!
//! Shards the full catalog (12 figures, 2 tables, the ablation study and
//! the `papi_avail` listing) into independent sweep points and executes
//! them on a deterministic worker pool: every point builds its own
//! seeded `SimMachine`, so the composed experiment outputs are
//! byte-identical for any `--workers` value. Outputs land in
//! `results/<tag>.out`; run statistics (wall time per experiment,
//! points/s, simulated bytes/s — never part of experiment output) go to
//! `results/BENCH_repro.json`. `--only <tag>` with the per-figure knobs
//! (`--system`, `--mode`, `--seed`, `--runs`, …) is how a single figure
//! is regenerated.
//!
//! ```text
//! repro [--quick|--full] [--workers N] [--only fig2,fig5,…]
//!       [--out DIR] [--write-golden] [--check-baseline FILE]
//! ```
//!
//! `--write-golden` additionally records each experiment's output as
//! `results/GOLDEN_<tag>.json` — the committed references the
//! golden-figure regression suite (`tests/golden_figures.rs`) replays.
//! `--check-baseline` compares this run's wall time against a committed
//! `BENCH_baseline.json` and fails if it regressed by more than 25 %.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use repro_bench::runner::{self, json_escape, RunReport, RunnerError};
use repro_bench::{experiments, obsreport, Args, Mode};

/// Wall-time regression tolerance of `--check-baseline`.
const BASELINE_SLACK: f64 = 1.25;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> RunnerError {
    RunnerError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn run() -> Result<(), RunnerError> {
    let args = Args::parse();
    let mode = Mode::from_args(&args);
    let workers = args.get_usize("workers", default_workers());

    let only: Option<Vec<String>> = args.get("only").map(|s| {
        s.split(',')
            .map(|t| t.trim().to_owned())
            .filter(|t| !t.is_empty())
            .collect()
    });
    if let Some(only) = &only {
        for t in only {
            if !experiments::TAGS.contains(&t.as_str()) {
                return Err(RunnerError::Usage {
                    message: format!(
                        "unknown experiment tag '{t}' (known: {})",
                        experiments::TAGS.join(", ")
                    ),
                });
            }
        }
    }
    let tags: Vec<&'static str> = experiments::TAGS
        .iter()
        .copied()
        .filter(|t| only.as_ref().is_none_or(|o| o.iter().any(|x| x == t)))
        .collect();

    let exps: Vec<_> = tags
        .iter()
        .filter_map(|t| experiments::build(t, mode, &args))
        .collect();
    eprintln!(
        "repro: {} experiments, {} mode, {} workers",
        exps.len(),
        mode.name(),
        workers
    );

    // Live monitoring of the run itself (DESIGN.md §11): snapshot the
    // global registry before and after, derive run-window rates, and
    // evaluate the canonical threshold rules. A clean catalog execution
    // must never fire one. The tick timestamps are wall-clock — like
    // wall_seconds they feed only the bench artifact, never the
    // deterministic experiment outputs.
    let mut monitor = obs::Monitor::new(8, obsreport::canonical_rules());
    let live_t0 = Instant::now();
    monitor.tick(1, &obs::registry().export());

    let report = runner::run_experiments(exps, workers);

    monitor.tick(
        1 + live_t0.elapsed().as_nanos().max(1) as u64,
        &obs::registry().export(),
    );
    for alert in monitor.alerts() {
        eprintln!(
            "repro: ALERT {}: {} = {:.2} > {:.2}",
            alert.rule, alert.metric, alert.observed, alert.threshold
        );
    }
    eprintln!(
        "repro: live monitor tracked {} series, {} derived rates, {} alerts",
        monitor.store().len(),
        monitor.derived().len(),
        monitor.alerts().len()
    );

    let outdir = args.get_or("out", "results");
    let outdir = Path::new(&outdir);
    fs::create_dir_all(outdir).map_err(|e| io_err(outdir, e))?;
    for er in &report.experiments {
        let path = outdir.join(format!("{}.out", er.tag));
        fs::write(&path, &er.output).map_err(|e| io_err(&path, e))?;
    }
    if args.flag("write-golden") {
        for er in &report.experiments {
            if !er.errors.is_empty() {
                continue; // never freeze a failed run as a reference
            }
            let path = outdir.join(format!("GOLDEN_{}.json", er.tag));
            let doc = format!(
                "{{\"schema\":\"golden-figure-v1\",\"tag\":\"{}\",\"mode\":\"{}\",\"output\":\"{}\"}}\n",
                er.tag,
                mode.name(),
                json_escape(&er.output)
            );
            fs::write(&path, doc).map_err(|e| io_err(&path, e))?;
        }
        eprintln!(
            "repro: wrote {} golden references",
            report.experiments.len()
        );
    }

    let bench_path = outdir.join("BENCH_repro.json");
    fs::write(&bench_path, bench_json(&report, mode, &monitor))
        .map_err(|e| io_err(&bench_path, e))?;

    print_summary(&report);
    println!("wrote {}", bench_path.display());

    for er in &report.experiments {
        for e in &er.errors {
            eprintln!("repro: {e}");
        }
    }

    // A `--features obs` build leaves the run's spans as
    // results/TRACE_<tag>.json + FLAME_<tag>.folded, named after the
    // experiment when exactly one was selected.
    obsreport::write_artifacts(match only.as_deref() {
        Some([tag]) => tag,
        _ => "repro",
    });

    if let Some(baseline) = args.get("check-baseline") {
        check_baseline(Path::new(baseline), report.wall_seconds)?;
    }

    let failed = report.failed_tags();
    if !failed.is_empty() {
        return Err(RunnerError::Failed {
            experiments: failed,
        });
    }
    Ok(())
}

fn print_summary(report: &RunReport) {
    let busy: f64 = report.experiments.iter().map(|e| e.busy_seconds).sum();
    println!("tag          points   busy_s     sim_bytes        status");
    for er in &report.experiments {
        println!(
            "{:<12} {:<8} {:<10.3} {:<16} {}",
            er.tag,
            er.measured,
            er.busy_seconds,
            er.sim_bytes,
            if er.errors.is_empty() { "ok" } else { "FAILED" }
        );
    }
    let wall = report.wall_seconds.max(1e-9);
    println!(
        "total: {} points in {:.2}s with {} workers -> {:.1} points/s, {:.3e} sim bytes/s, {:.2}x vs serial",
        report.total_points(),
        report.wall_seconds,
        report.workers,
        report.total_points() as f64 / wall,
        report.total_sim_bytes() as f64 / wall,
        busy / wall,
    );
}

fn bench_json(report: &RunReport, mode: Mode, monitor: &obs::Monitor) -> String {
    let wall = report.wall_seconds.max(1e-9);
    let busy: f64 = report.experiments.iter().map(|e| e.busy_seconds).sum();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"bench-repro-v1\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", mode.name()));
    out.push_str(&format!("  \"workers\": {},\n", report.workers));
    out.push_str(&format!(
        "  \"wall_seconds\": {:.6},\n",
        report.wall_seconds
    ));
    out.push_str(&format!("  \"busy_seconds\": {busy:.6},\n"));
    out.push_str(&format!("  \"speedup_vs_serial\": {:.3},\n", busy / wall));
    out.push_str(&format!("  \"points\": {},\n", report.total_points()));
    out.push_str(&format!(
        "  \"points_per_sec\": {:.3},\n",
        report.total_points() as f64 / wall
    ));
    out.push_str(&format!("  \"sim_bytes\": {},\n", report.total_sim_bytes()));
    out.push_str(&format!(
        "  \"sim_bytes_per_sec\": {:.3e},\n",
        report.total_sim_bytes() as f64 / wall
    ));
    out.push_str(&format!("  \"live_series\": {},\n", monitor.store().len()));
    out.push_str(&format!("  \"live_alerts\": {},\n", monitor.alerts().len()));
    let derived = monitor.derived();
    out.push_str("  \"live_rates_per_s\": {\n");
    for (i, (name, r)) in derived.iter().enumerate() {
        let comma = if i + 1 < derived.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\": {r:.3}{comma}\n", json_escape(name)));
    }
    out.push_str("  },\n");
    out.push_str("  \"experiments\": [\n");
    for (i, er) in report.experiments.iter().enumerate() {
        let comma = if i + 1 < report.experiments.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"tag\": \"{}\", \"points\": {}, \"busy_seconds\": {:.6}, \"sim_bytes\": {}, \"failed\": {}}}{comma}\n",
            er.tag,
            er.measured,
            er.busy_seconds,
            er.sim_bytes,
            !er.errors.is_empty()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Gate this run's wall time against a committed baseline: fail when it
/// exceeds `baseline * BASELINE_SLACK`.
fn check_baseline(path: &Path, wall: f64) -> Result<(), RunnerError> {
    let doc = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let json = obs::chrome::parse_json(&doc).map_err(|e| io_err(path, e))?;
    let obs::chrome::Json::Obj(fields) = json else {
        return Err(io_err(path, "baseline is not a JSON object"));
    };
    let baseline = fields
        .iter()
        .find(|(k, _)| k == "wall_seconds")
        .and_then(|(_, v)| match v {
            obs::chrome::Json::Num(n) => Some(*n),
            _ => None,
        })
        .ok_or_else(|| io_err(path, "baseline has no numeric wall_seconds"))?;
    let limit = baseline * BASELINE_SLACK;
    if wall > limit {
        return Err(RunnerError::Regression { wall, limit });
    }
    eprintln!("repro: wall {wall:.2}s within baseline gate {limit:.2}s ({baseline:.2}s + 25%)");
    Ok(())
}
