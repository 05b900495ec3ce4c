//! What every workload shares: the run context, pass/fail accounting,
//! the shape of an end-to-end result, and seeded input generation.

use std::time::Instant;

use crate::stats::{self, Batch};

/// The seed used when none is given; `expected/memsim_*.json` hold the
/// simulated byte counts for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// The run length the work sizes below were chosen at.
pub const NOMINAL_SECONDS: f64 = 10.0;

#[derive(Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub write_expected: bool,
}

impl Ctx {
    /// Scale a work size chosen for a [`NOMINAL_SECONDS`] run to this
    /// run's `--seconds`. Work is fixed per run, not time-boxed, so
    /// counts repeat exactly and a faster program finishes sooner.
    pub fn scaled(&self, nominal: u64) -> u64 {
        ((nominal as f64 * self.seconds / NOMINAL_SECONDS).round() as u64).max(1)
    }

    /// An independent seed for one named input stream.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        splitmix64(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// splitmix64: the one generator behind every seeded input.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream of seeded values.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Attempted and failed operations, correctness checks included: a
/// check that does not hold is a failed op, not a warning.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Count `n` operations that completed without error.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one operation or check; `why` is only evaluated on failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(why());
            }
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.messages.len() < 20 {
            self.messages
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Unwrap a result, counting an error as a failed op.
    pub fn result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// What an untraced run measured. Every workload fills every field, in
/// its own terms (README.md "What the slots mean per workload"). Both
/// `wall_s` and `work_per_s` are built from medians of repeated units,
/// never from one total, so an interference burst does not move them.
#[derive(Default)]
pub struct EndToEnd {
    /// Duration of each repetition of the workload's set-up.
    pub setups_s: Vec<f64>,
    /// Seconds the workload's fixed work takes: the sum, over its units
    /// of work, of each unit's median time.
    pub wall_s: f64,
    /// Work units per second.
    pub work_per_s: f64,
    /// Latency of every timed operation, microseconds.
    pub op_us: Vec<f64>,
    /// `VmHWM` where the workload read it itself, before repetitions
    /// that are the benchmark's and not the program's; `None` means the
    /// peak of the whole process.
    pub peak_rss_mib: Option<f64>,
}

impl EndToEnd {
    /// Time one operation: its latency joins `op_us`.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.op_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        out
    }

    /// For a workload that is one loop of equal-work batches: throughput
    /// is the median batch rate and the fixed work takes as long as that
    /// many median batches.
    pub fn set_from_batches(&mut self, batches: &[Batch]) {
        self.work_per_s = stats::median_batch_rate(batches);
        let seconds: Vec<f64> = batches.iter().map(|b| b.seconds).collect();
        self.wall_s = stats::median(&seconds) * batches.len() as f64;
    }
}

/// Per-layer metric values a traced run produced; names a workload
/// does not exercise are reported as 0 by `main`.
#[derive(Default)]
pub struct Layers(pub Vec<(String, f64)>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }
}

/// Run `setup` `times` times, dropping each environment before building
/// the next, and return the last one with every duration.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut durations = Vec::with_capacity(times);
    let mut env = None;
    for _ in 0..times.max(1) {
        drop(env.take());
        let t = Instant::now();
        env = Some(setup());
        durations.push(t.elapsed().as_secs_f64());
    }
    (env.expect("times.max(1) iterations ran"), durations)
}

/// Time `f` once, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median nanoseconds per call of `f` over `batches` batches of `per`
/// calls each.
pub fn ns_per_call(batches: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per {
                f();
            }
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    stats::median(&samples)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to the first CPU it is allowed on. Returns whether that worked.
///
/// A loopback request/reply pair between two threads runs in one of two
/// regimes on this kind of machine: both threads on one core (~10 us a
/// round trip, all of it this repository's code plus two context
/// switches) or one thread per core (~45 us, most of it the idle core's
/// wake-up). The scheduler flips between them within a run, which makes
/// an unpinned latency bimodal. One CPU selects the regime that measures
/// the code.
pub fn pin_to_one_cpu() -> bool {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: pid 0 is the calling thread; `mask` is `bytes` long,
    // writable, and outlives the call.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return false;
    };
    let lowest = mask[word] & mask[word].wrapping_neg();
    mask = [0; 16];
    mask[word] = lowest;
    // SAFETY: as above; the kernel only reads `bytes` bytes of `mask`.
    unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let a = Ctx {
            seed: 7,
            seconds: 10.0,
            write_expected: false,
        };
        assert_eq!(a.stream_seed(1), a.stream_seed(1));
        assert_ne!(a.stream_seed(1), a.stream_seed(2));
        let mut r1 = Rng::new(a.stream_seed(1));
        let mut r2 = Rng::new(a.stream_seed(1));
        let xs: Vec<u64> = (0..4).map(|_| r1.below(1000)).collect();
        let ys: Vec<u64> = (0..4).map(|_| r2.below(1000)).collect();
        assert_eq!(xs, ys);
        assert_eq!(a.scaled(400), 400);
        let short = Ctx { seconds: 2.5, ..a };
        assert_eq!(short.scaled(400), 100);
    }

    #[test]
    fn a_failed_check_is_a_failed_op() {
        let mut c = Checks::default();
        c.ok(3);
        c.check(true, || unreachable!());
        c.check(false, || "bytes differ".into());
        c.tally(10, 0, "reads");
        c.tally(10, 2, "reads");
        let r: Result<u8, String> = Err("refused".into());
        assert_eq!(c.result("connect", r), None);
        assert_eq!((c.attempted, c.failed), (26, 4));
        assert_eq!(
            c.messages,
            vec!["bytes differ", "reads: 2 of 10 failed", "connect: refused"]
        );
    }
}
