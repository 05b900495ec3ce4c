//! The parallel reproduction engine.
//!
//! An [`Experiment`] is an ordered list of [`Point`]s: static text
//! (headers, CSV column lines) and independent units of measurement
//! work. Every run point builds its own seeded `SimMachine` (see
//! [`crate::point_seed`]), so points share no state and the pool can
//! execute them in any order across any number of workers — the final
//! output is composed **in registration order** from the points' returned
//! strings, which makes an N-worker run byte-identical to a 1-worker run.
//! Wall-clock times never enter experiment output; they are quarantined
//! in the [`RunReport`], which `repro` prints as a summary table and the
//! benchmark's `catalog_quick` workload reads (`bench.experiment.*_s`).
//!
//! Failure model: a point that returns an error (or panics — the pool
//! catches unwinds) fails **its experiment only**. The remaining points
//! still run, the error is recorded in the experiment's report, and the
//! composed output carries a `# point … failed:` marker line in the
//! failed point's place.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use obs::sync::{Mutex, Rank};

/// Typed failure of a reproduction run.
#[derive(Debug, Clone)]
pub enum RunnerError {
    /// A measurement step inside a point returned an error (PAPI, PMCD
    /// spawn, profiler…). `message` preserves the source error's display.
    Point {
        experiment: String,
        point: String,
        message: String,
    },
    /// A point panicked; the pool caught the unwind.
    Panicked {
        experiment: String,
        point: String,
        message: String,
    },
    /// Reading or writing a results artifact failed.
    Io { path: String, message: String },
    /// Summary error: these experiments had failing points.
    Failed { experiments: Vec<String> },
    /// Bad command-line usage (unknown tag, unknown `--key`…).
    Usage { message: String },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Point {
                experiment,
                point,
                message,
            } => write!(f, "{experiment}/{point}: {message}"),
            RunnerError::Panicked {
                experiment,
                point,
                message,
            } => write!(f, "{experiment}/{point}: panicked: {message}"),
            RunnerError::Io { path, message } => write!(f, "{path}: {message}"),
            RunnerError::Failed { experiments } => {
                write!(f, "experiments failed: {}", experiments.join(", "))
            }
            RunnerError::Usage { message } => write!(f, "usage: {message}"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// What a run point produced: its slice of the experiment's output and
/// the bytes the simulator moved (throughput statistic only).
#[derive(Debug, Clone)]
pub struct PointOutput {
    pub text: String,
    pub sim_bytes: u64,
}

impl PointOutput {
    pub fn text(text: String) -> PointOutput {
        PointOutput { text, sim_bytes: 0 }
    }

    pub fn with_bytes(text: String, sim_bytes: u64) -> PointOutput {
        PointOutput { text, sim_bytes }
    }
}

type PointFn = Box<dyn FnOnce() -> Result<PointOutput, RunnerError> + Send>;

enum Work {
    /// Pre-rendered text (headers, column lines): no scheduling needed.
    Fixed(String),
    /// An independent measurement unit.
    Run(PointFn),
}

/// One schedulable unit of an experiment.
pub struct Point {
    label: String,
    work: Work,
}

impl Point {
    /// A static-text point (section header, CSV column line…). The
    /// trailing newline is appended here so builders pass bare lines.
    pub fn fixed(text: impl Into<String>) -> Point {
        let mut text = text.into();
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        Point {
            label: String::from("static"),
            work: Work::Fixed(text),
        }
    }

    /// An independent measurement point. `f` runs on some pool worker;
    /// its returned text (newline appended if missing) lands at this
    /// point's position in the experiment output.
    pub fn run(
        label: impl Into<String>,
        f: impl FnOnce() -> Result<PointOutput, RunnerError> + Send + 'static,
    ) -> Point {
        Point {
            label: label.into(),
            work: Work::Run(Box::new(f)),
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether this point carries measurement work (vs static text).
    pub fn is_measured(&self) -> bool {
        matches!(self.work, Work::Run(_))
    }
}

/// One experiment: a tag (`fig2`, `table1`, …), a human title, and its
/// ordered points.
pub struct Experiment {
    pub tag: &'static str,
    pub title: String,
    pub points: Vec<Point>,
}

impl Experiment {
    pub fn new(tag: &'static str, title: impl Into<String>) -> Experiment {
        Experiment {
            tag,
            title: title.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }
}

/// Per-experiment outcome.
pub struct ExperimentReport {
    pub tag: &'static str,
    pub title: String,
    /// The composed output, identical for every worker count.
    pub output: String,
    /// Total points (measured + static).
    pub points: usize,
    /// Measured points.
    pub measured: usize,
    /// Sum of the measured points' individual wall times. Under
    /// parallel execution experiments overlap, so this is busy time,
    /// not elapsed time.
    pub busy_seconds: f64,
    /// Simulated bytes moved by this experiment's points.
    pub sim_bytes: u64,
    /// Errors of failed points, in point order.
    pub errors: Vec<RunnerError>,
}

/// Outcome of a whole run.
pub struct RunReport {
    pub experiments: Vec<ExperimentReport>,
    pub workers: usize,
    pub wall_seconds: f64,
}

impl RunReport {
    pub fn total_points(&self) -> usize {
        self.experiments.iter().map(|e| e.measured).sum()
    }

    pub fn total_sim_bytes(&self) -> u64 {
        self.experiments.iter().map(|e| e.sim_bytes).sum()
    }

    pub fn failed_tags(&self) -> Vec<String> {
        self.experiments
            .iter()
            .filter(|e| !e.errors.is_empty())
            .map(|e| e.tag.to_owned())
            .collect()
    }
}

/// The result slot of one scheduled point.
struct Slot {
    result: Option<Result<PointOutput, RunnerError>>,
    seconds: f64,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Execute `experiments` on `workers` pool threads and compose each
/// experiment's output in registration order. `workers` is clamped to
/// at least 1; the output is independent of its value.
pub fn run_experiments(experiments: Vec<Experiment>, workers: usize) -> RunReport {
    let workers = workers.max(1);
    let t_start = Instant::now();

    // Flatten: (experiment index, point index) per schedulable job, the
    // closure store, and one result slot per job.
    let mut meta: Vec<(usize, usize)> = Vec::new();
    let mut jobs: Vec<Mutex<Option<PointFn>>> = Vec::new();
    let mut labels: Vec<(String, String)> = Vec::new(); // (tag, label)
    let mut skeleton: Vec<(usize, Vec<PointRender>)> = Vec::new();

    enum PointRender {
        Fixed(String),
        Job(usize),
    }

    for (ei, exp) in experiments.iter().enumerate() {
        skeleton.push((ei, Vec::with_capacity(exp.points.len())));
    }
    let mut experiments = experiments;
    for (ei, exp) in experiments.iter_mut().enumerate() {
        for (pi, point) in exp.points.drain(..).enumerate() {
            match point.work {
                Work::Fixed(text) => skeleton[ei].1.push(PointRender::Fixed(text)),
                Work::Run(f) => {
                    let job = jobs.len();
                    meta.push((ei, pi));
                    labels.push((exp.tag.to_owned(), point.label));
                    jobs.push(Mutex::new(Rank::BENCH_JOBS, Some(f)));
                    skeleton[ei].1.push(PointRender::Job(job));
                }
            }
        }
    }

    let slots: Vec<Mutex<Slot>> = (0..jobs.len())
        .map(|_| {
            Mutex::new(
                Rank::BENCH_SLOTS,
                Slot {
                    result: None,
                    seconds: 0.0,
                },
            )
        })
        .collect();

    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs.len().max(1)) {
            scope.spawn(|| loop {
                // A pure job-ticket counter: the claimed job's
                // closure is transferred through its Mutex (acquire /
                // release), so no other memory needs ordering with the
                // ticket RMW, and fetch_add cannot hand out duplicates.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let Some(f) = jobs[i].lock().take() else {
                    continue;
                };
                let t0 = Instant::now();
                let outcome = match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(r) => r,
                    Err(payload) => Err(RunnerError::Panicked {
                        experiment: labels[i].0.clone(),
                        point: labels[i].1.clone(),
                        message: panic_message(payload),
                    }),
                };
                let dt = t0.elapsed().as_secs_f64();
                let mut slot = slots[i].lock();
                slot.result = Some(outcome);
                slot.seconds = dt;
            });
        }
    });

    // Compose per-experiment output in registration order. Execution
    // order influenced only the Instant timings above, never this text.
    let mut reports = Vec::with_capacity(experiments.len());
    for (ei, renders) in skeleton {
        let exp = &experiments[ei];
        let mut output = String::new();
        let mut errors = Vec::new();
        let mut busy = 0.0;
        let mut sim_bytes = 0u64;
        let mut measured = 0usize;
        let total_points = renders.len();
        for render in renders {
            match render {
                PointRender::Fixed(text) => output.push_str(&text),
                PointRender::Job(job) => {
                    measured += 1;
                    let mut slot = slots[job].lock();
                    busy += slot.seconds;
                    match slot.result.take() {
                        Some(Ok(po)) => {
                            sim_bytes += po.sim_bytes;
                            output.push_str(&po.text);
                            if !po.text.is_empty() && !po.text.ends_with('\n') {
                                output.push('\n');
                            }
                        }
                        Some(Err(e)) => {
                            output.push_str(&format!("# point {} failed: {e}\n", labels[job].1));
                            errors.push(e);
                        }
                        None => {
                            let e = RunnerError::Point {
                                experiment: exp.tag.to_owned(),
                                point: labels[job].1.clone(),
                                message: String::from("point was never executed"),
                            };
                            output.push_str(&format!("# point {} failed: {e}\n", labels[job].1));
                            errors.push(e);
                        }
                    }
                }
            }
        }
        reports.push(ExperimentReport {
            tag: exp.tag,
            title: exp.title.clone(),
            output,
            points: total_points,
            measured,
            busy_seconds: busy,
            sim_bytes,
            errors,
        });
    }

    RunReport {
        experiments: reports,
        workers,
        wall_seconds: t_start.elapsed().as_secs_f64(),
    }
}

/// Escape `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_experiment(tag: &'static str, n: usize) -> Experiment {
        let mut exp = Experiment::new(tag, "test");
        exp.push(Point::fixed(format!("# {tag}")));
        for i in 0..n {
            exp.push(Point::run(format!("p{i}"), move || {
                Ok(PointOutput::with_bytes(format!("{tag},{i}"), 10))
            }));
        }
        exp
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let reference: Vec<String> = run_experiments(
            vec![counting_experiment("a", 7), counting_experiment("b", 3)],
            1,
        )
        .experiments
        .iter()
        .map(|e| e.output.clone())
        .collect();
        for workers in [2, 4, 8] {
            let outs: Vec<String> = run_experiments(
                vec![counting_experiment("a", 7), counting_experiment("b", 3)],
                workers,
            )
            .experiments
            .iter()
            .map(|e| e.output.clone())
            .collect();
            assert_eq!(outs, reference, "workers = {workers}");
        }
    }

    #[test]
    fn a_failing_point_fails_only_its_experiment() {
        let mut bad = Experiment::new("bad", "has a failure");
        bad.push(Point::run("ok", || Ok(PointOutput::text("fine".into()))));
        bad.push(Point::run("boom", || {
            Err(RunnerError::Point {
                experiment: "bad".into(),
                point: "boom".into(),
                message: "synthetic".into(),
            })
        }));
        bad.push(Point::run("after", || {
            Ok(PointOutput::text("still runs".into()))
        }));
        let report = run_experiments(vec![bad, counting_experiment("good", 2)], 3);
        assert_eq!(report.failed_tags(), vec!["bad".to_owned()]);
        let bad = &report.experiments[0];
        assert_eq!(bad.errors.len(), 1);
        assert!(bad.output.contains("fine"));
        assert!(bad.output.contains("# point boom failed:"));
        assert!(bad.output.contains("still runs"));
        assert!(report.experiments[1].errors.is_empty());
    }

    #[test]
    fn panics_are_contained_as_typed_errors() {
        let mut exp = Experiment::new("p", "panics");
        exp.push(Point::run("kaboom", || panic!("deliberate test panic")));
        let report = run_experiments(vec![exp], 2);
        let errs = &report.experiments[0].errors;
        assert_eq!(errs.len(), 1);
        match &errs[0] {
            RunnerError::Panicked { message, .. } => {
                assert!(message.contains("deliberate test panic"))
            }
            other => panic!("wrong error variant: {other:?}"),
        }
    }

    #[test]
    fn report_accounts_points_and_bytes() {
        let report = run_experiments(vec![counting_experiment("a", 5)], 2);
        assert_eq!(report.total_points(), 5);
        assert_eq!(report.total_sim_bytes(), 50);
        assert_eq!(report.experiments[0].points, 6); // + header
        assert!(report.wall_seconds >= 0.0);
    }

    #[test]
    fn json_escape_round_trips_through_the_obs_parser() {
        let nasty = "line1\nline2\t\"quoted\\path\"\r\u{1}";
        let doc = format!("{{\"s\":\"{}\"}}", json_escape(nasty));
        match obs::chrome::parse_json(&doc) {
            Ok(obs::chrome::Json::Obj(fields)) => {
                assert_eq!(fields[0].1, obs::chrome::Json::Str(nasty.to_owned()));
            }
            other => panic!("parse failed: {other:?}"),
        }
    }
}
