//! Property tests for the parallel reproduction engine.
//!
//! **Scheduling determinism** — for random experiment subsets, seeds
//! and worker counts, the composed outputs of an N-worker pool are
//! byte-identical to the 1-worker reference. Every point builds its
//! own seeded machine, so this must hold for *any* interleaving.

use proptest::prelude::*;

use repro_bench::runner::{run_experiments, Experiment, Point, PointOutput, RunnerError};
use repro_bench::{experiments, figures, point_seed, Args, Mode, System};

/// Cheap catalog members: all-text experiments plus the small schematic,
/// so a case stays in the milliseconds even at 8 synthetic points.
const CHEAP_TAGS: &[&str] = &["fig1", "table1", "table2", "papi_avail"];

fn perr(point: String, e: impl std::fmt::Display) -> RunnerError {
    RunnerError::Point {
        experiment: "synthetic".into(),
        point,
        message: e.to_string(),
    }
}

/// A synthetic experiment of randomized GEMM/GEMV sweep points, built
/// the same way the registry builds the real figures.
fn synthetic(gemm_sizes: &[u64], gemv_sizes: &[u64], base_seed: u64) -> Experiment {
    let mut exp = Experiment::new("synthetic", "randomized gemm/gemv points");
    exp.push(Point::fixed("# synthetic sweep"));
    for (i, &n) in gemm_sizes.iter().enumerate() {
        let seed = point_seed(base_seed, "synthetic-gemm", i as u64);
        exp.push(Point::run(format!("gemm n={n}"), move || {
            let row = figures::gemm_point(System::Summit, 1, n, 1, seed)
                .map_err(|e| perr(format!("gemm n={n}"), e))?;
            Ok(PointOutput::with_bytes(row.csv_line(), row.sim_bytes()))
        }));
    }
    for (i, &m) in gemv_sizes.iter().enumerate() {
        let seed = point_seed(base_seed, "synthetic-gemv", i as u64);
        exp.push(Point::run(format!("gemv m={m}"), move || {
            let row = figures::gemv_point(System::Summit, 1, m, seed)
                .map_err(|e| perr(format!("gemv m={m}"), e))?;
            Ok(PointOutput::with_bytes(row.csv_line(), row.sim_bytes()))
        }));
    }
    exp
}

/// Build the randomized work list twice (points are single-shot
/// closures), run with 1 and with `workers` workers, return both
/// composed catalogs.
fn run_twice(
    subset: &[usize],
    gemm_sizes: &[u64],
    gemv_sizes: &[u64],
    seed: u64,
    workers: usize,
) -> (Vec<String>, Vec<String>) {
    let build = || -> Vec<Experiment> {
        let mut v: Vec<Experiment> = subset
            .iter()
            .filter_map(|&i| {
                experiments::build(
                    CHEAP_TAGS[i % CHEAP_TAGS.len()],
                    Mode::Quick,
                    &Args::default(),
                )
            })
            .collect();
        v.push(synthetic(gemm_sizes, gemv_sizes, seed));
        v
    };
    let outputs = |workers: usize| -> Vec<String> {
        let report = run_experiments(build(), workers);
        assert!(
            report.experiments.iter().all(|e| e.errors.is_empty()),
            "unexpected point errors"
        );
        report.experiments.into_iter().map(|e| e.output).collect()
    };
    (outputs(1), outputs(workers))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// N-worker output is byte-identical to the 1-worker reference, for
    /// random subsets, sweep shapes, seeds and pool widths.
    #[test]
    fn parallel_output_matches_serial(
        subset in prop::collection::vec(0usize..4, 1..4),
        gemm_sizes in prop::collection::vec(16u64..80, 1..4),
        gemv_sizes in prop::collection::vec(32u64..256, 1..4),
        seed in any::<u64>(),
        workers in 2usize..8,
    ) {
        let (serial, parallel) =
            run_twice(&subset, &gemm_sizes, &gemv_sizes, seed, workers);
        prop_assert_eq!(serial, parallel);
    }
}
