//! `stackbench` — one benchmark for the whole stack. See README.md.
//!
//! ```text
//! stackbench --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//! stackbench [--seed N] [--seconds S] [--only W]             every workload: untraced, then traced
//! stackbench --repeat K [--seed N] [--seconds S] [--only W]  repeatability of the end-to-end metrics
//! stackbench --write-expected                                regenerate expected/memsim_*.json
//! ```

mod harness;
mod json;
mod metrics;
mod report;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use repro_bench::Args;

use harness::{Ctx, DEFAULT_SEED, NOMINAL_SECONDS};

fn main() -> ExitCode {
    let args = Args::parse();
    let seconds = args
        .get("seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(NOMINAL_SECONDS);
    let ctx = Ctx {
        seed: args.get_u64("seed", DEFAULT_SEED),
        seconds,
        write_expected: args.flag("write-expected"),
    };
    let outcome = if let Some(workload) = args.get("workload") {
        report::run_one(workload, &ctx, args.get("trace") == Some("1"))
    } else if ctx.write_expected {
        suite::write_expected(&ctx)
    } else if let Some(k) = args.get("repeat") {
        suite::repeat(&ctx, k.parse().unwrap_or(0), args.get("only"))
    } else {
        suite::run_all(&ctx, args.get("only"))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::from(2)
        }
    }
}
