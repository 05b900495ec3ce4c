//! The measurement harness: repetitions, averaging, and the factored
//! execution scheme.
//!
//! The paper measures the *aggregate* traffic of `Repetitions(N)` kernel
//! executions inside one counter region and divides by the repetition
//! count, amortizing the noise of the measurement itself. Each repetition
//! uses fresh operands so no data is reused across repetitions.
//!
//! Simulating 500 repetitions of a large kernel trace would be pure waste:
//! under the simulator's model, repetitions on fresh operands produce
//! statistically identical traffic. The harness therefore supports a
//! **factored** mode (the default):
//!
//! 1. one unmeasured warm-up repetition (establishes steady-state cache
//!    contents, exactly like repetition 0 of a real run);
//! 2. one fully simulated, measured repetition → true traffic `T`,
//!    duration `t`;
//! 3. the remaining `R−1` repetitions are applied as `(R−1)·T` bytes of
//!    counter traffic plus `(R−1)·t` of clock advance — background noise
//!    for the extra time accrues through the normal clock path, and the
//!    region's start/stop overhead is injected by PAPI as usual.
//!
//! The same factoring handles batched kernels (`threads` identical
//! instances on disjoint operands): thread 0 is simulated with the
//! batch's L3 share and scaled by `threads`. One test checks both
//! reductions against full simulation, at one small size:
//! `quiet_factored_matches_full_simulation` below (GEMM N = 64, 3
//! threads, 4 repetitions; 5 % read / 25 % write tolerance). Nothing
//! checks the factoring at the cache bound, where one core with a
//! share and 21 contending cores could differ (ROADMAP item 9(a)).

use p9_memsim::{CoreSim, Direction, SimMachine};
use papi_sim::{EventSet, Papi, PapiError};

/// The nest event names used for a measurement (one per MBA channel).
#[derive(Clone, Debug)]
pub struct NestEvents {
    pub reads: Vec<String>,
    pub writes: Vec<String>,
}

impl NestEvents {
    /// Table I, Summit row: PCP events for socket 0.
    pub fn pcp(machine: &SimMachine) -> Self {
        let (reads, writes) = papi_sim::validate::pcp_nest_event_names(machine);
        NestEvents { reads, writes }
    }

    /// Table I, Tellico row: direct perf_uncore events.
    pub fn uncore() -> Self {
        let (reads, writes) = papi_sim::validate::uncore_nest_event_names();
        NestEvents { reads, writes }
    }
}

/// How to run a measurement.
#[derive(Clone, Copy, Debug)]
pub struct MeasureConfig {
    /// Repetitions inside the counter region (Equation 5 for the sweeps).
    pub reps: u32,
    /// Batch width: 1 = single-threaded kernel, 21 = one instance per
    /// usable Summit core.
    pub threads: usize,
    /// Use the factored scheme (see module docs). `false` fully simulates
    /// every repetition and thread — only viable for small problems.
    pub factored: bool,
}

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct TrafficSample {
    /// Average bytes read per repetition (aggregate over the batch).
    pub read_bytes: f64,
    /// Average bytes written per repetition (aggregate over the batch).
    pub write_bytes: f64,
    /// Simulated seconds per repetition.
    pub seconds_per_rep: f64,
    /// Repetitions that contributed.
    pub reps: u32,
}

/// Measure a kernel's nest traffic through PAPI on socket 0 of `machine`.
///
/// `make_kernel` allocates a fresh kernel instance (fresh operands) for
/// the given batch width; `run` is invoked as `run(&kernel, tid, core)`
/// for each batch thread.
pub fn measure_traffic<K>(
    machine: &mut SimMachine,
    papi: &Papi,
    events: &NestEvents,
    mut make_kernel: impl FnMut(&mut SimMachine, usize) -> K,
    run: impl Fn(&K, usize, &mut CoreSim) + Sync,
    cfg: &MeasureConfig,
) -> Result<TrafficSample, PapiError>
where
    K: Sync,
{
    if cfg.reps < 1 {
        return Err(PapiError::Invalid("MeasureConfig.reps must be >= 1".into()));
    }
    let _span = obs::span!("kernels.measure_traffic", cfg.reps as u64);
    let mut es = EventSet::new();
    for e in events.reads.iter().chain(&events.writes) {
        es.add_event(e)?;
    }
    let nr = events.reads.len();
    let shared = machine.socket_shared(0);
    let t_begin = shared.now_seconds();

    // Warm-up repetition (outside the measured region, like a real run's
    // first, discarded execution). In factored mode only thread 0's cache
    // state matters, so only thread 0 warms up.
    let warm = make_kernel(machine, cfg.threads);
    machine.run_parallel(0, cfg.threads, |tid, core| {
        if tid == 0 || !cfg.factored {
            run(&warm, tid, core);
        }
    });

    es.start(papi)?;
    let totals = if cfg.factored {
        // --- One measured repetition, then scale. -----------------------
        let kernel = make_kernel(machine, cfg.threads);
        let t0 = shared.now_seconds();
        let before = shared.counters().snapshot();
        machine.run_parallel(0, cfg.threads, |tid, core| {
            if tid == 0 {
                run(&kernel, 0, core);
            }
        });
        let delta = shared.counters().snapshot().delta(&before);
        let t_rep = shared.now_seconds() - t0;

        // Scale to the full batch and repetition count: the remaining
        // (threads x reps - 1) instances contribute identical traffic.
        let scale = cfg.threads as u64 * cfg.reps as u64 - 1;
        shared.record_dma(delta.total_read() * scale, Direction::Read);
        shared.record_dma(delta.total_write() * scale, Direction::Write);
        // Wall time: the batch runs its threads concurrently; repetitions
        // are serial.
        shared.advance_seconds(t_rep * (cfg.reps - 1) as f64);
        es.stop()?
    } else {
        // --- Full simulation of every repetition. -----------------------
        for _ in 0..cfg.reps {
            let kernel = make_kernel(machine, cfg.threads);
            machine.run_parallel(0, cfg.threads, |tid, core| run(&kernel, tid, core));
        }
        es.stop()?
    };

    let read_bytes: i64 = totals[..nr].iter().sum();
    let write_bytes: i64 = totals[nr..].iter().sum();
    let elapsed = shared.now_seconds() - t_begin;
    // The factored path injects scaled DMA traffic outside any kernel run,
    // so re-check conservation at the very end of the measurement window.
    machine.verify_socket_conservation(0)?;
    Ok(TrafficSample {
        read_bytes: read_bytes as f64 / cfg.reps as f64,
        write_bytes: write_bytes as f64 / cfg.reps as f64,
        seconds_per_rep: elapsed / cfg.reps as f64,
        reps: cfg.reps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::BatchedGemmTrace;
    use crate::model::gemm_expected;
    use p9_arch::Machine;
    use papi_sim::papi::setup_node;

    fn run_gemm(quiet: bool, n: u64, cfg: &MeasureConfig, seed: u64) -> TrafficSample {
        let mut m = if quiet {
            SimMachine::quiet(Machine::summit(), seed)
        } else {
            SimMachine::new(Machine::summit(), p9_memsim::NoiseConfig::summit(), seed)
        };
        let setup = setup_node(&m, Vec::new());
        let events = NestEvents::pcp(&m);
        measure_traffic(
            &mut m,
            &setup.papi,
            &events,
            |mach, threads| BatchedGemmTrace::allocate(mach, n, threads),
            |k, tid, core| k.run_thread(tid, core),
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn quiet_factored_matches_full_simulation() {
        let n = 64;
        let cfg_f = MeasureConfig {
            reps: 4,
            threads: 3,
            factored: true,
        };
        let cfg_s = MeasureConfig {
            factored: false,
            ..cfg_f
        };
        let f = run_gemm(true, n, &cfg_f, 77);
        let s = run_gemm(true, n, &cfg_s, 77);
        // Same model, same seeds: factored must agree with the full
        // simulation within the hash-placement variation of fresh buffers.
        let rd = (f.read_bytes - s.read_bytes).abs() / s.read_bytes;
        let wd = (f.write_bytes - s.write_bytes).abs() / s.write_bytes.max(1.0);
        assert!(rd < 0.05, "factored read deviates {rd}");
        assert!(wd < 0.25, "factored write deviates {wd}");
    }

    #[test]
    fn quiet_batched_gemm_matches_read_expectation() {
        let n = 160;
        let cfg = MeasureConfig {
            reps: 3,
            threads: 21,
            factored: true,
        };
        let s = run_gemm(true, n, &cfg, 78);
        let e = gemm_expected(n).batched(21);
        let ratio = s.read_bytes / e.read_bytes;
        assert!((0.9..1.2).contains(&ratio), "read ratio {ratio}");
        // With per-rep footprints far below the L3 share, dirty C data is
        // never evicted inside the measured region: writes stay near zero
        // (the counters see writebacks, not stores).
        assert!(
            s.write_bytes < 0.5 * e.write_bytes,
            "unexpected writes {}",
            s.write_bytes
        );
    }

    #[test]
    fn batched_gemm_writes_appear_once_footprint_exceeds_share() {
        // 3 x 640² doubles = 9.8 MB per repetition against a ~5.2 MB share:
        // each repetition's C is written back while the next one runs.
        let n = 640;
        let cfg = MeasureConfig {
            reps: 3,
            threads: 21,
            factored: true,
        };
        let s = run_gemm(true, n, &cfg, 78);
        let e = gemm_expected(n).batched(21);
        let wratio = s.write_bytes / e.write_bytes;
        assert!((0.6..1.4).contains(&wratio), "write ratio {wratio}");
        // Reads sit at or above the in-cache expectation here (the paper's
        // Eq. 3/4 divergence region starts at N = 467).
        assert!(
            s.read_bytes > 0.9 * e.read_bytes,
            "reads {} below expectation",
            s.read_bytes
        );
    }

    #[test]
    fn repetitions_suppress_noise() {
        let n = 96;
        let noisy_1 = run_gemm(
            false,
            n,
            &MeasureConfig {
                reps: 1,
                threads: 1,
                factored: true,
            },
            79,
        );
        let noisy_many = run_gemm(
            false,
            n,
            &MeasureConfig {
                reps: 400,
                threads: 1,
                factored: true,
            },
            79,
        );
        let e = gemm_expected(n);
        let err1 = (noisy_1.read_bytes - e.read_bytes).abs() / e.read_bytes;
        let err_many = (noisy_many.read_bytes - e.read_bytes).abs() / e.read_bytes;
        assert!(
            err_many < err1,
            "averaging must help: 1 rep {err1:.3}, 400 reps {err_many:.3}"
        );
        assert!(err_many < 0.25, "400-rep error still {err_many:.3}");
    }

    #[test]
    fn sample_reports_time() {
        let s = run_gemm(
            true,
            64,
            &MeasureConfig {
                reps: 2,
                threads: 1,
                factored: true,
            },
            80,
        );
        assert!(s.seconds_per_rep > 0.0);
        assert_eq!(s.reps, 2);
    }
}
