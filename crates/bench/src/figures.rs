//! Measurement drivers behind the experiments of the repro catalog.
//!
//! Every driver here measures **one sweep point** on a machine it builds
//! itself from the caller's seed (see [`crate::point_seed`]): points are
//! pure functions of their parameters, so the parallel runner can execute
//! them in any order — or all at once — and still compose bit-identical
//! figure output. Fallible steps return [`PapiError`] instead of
//! panicking; one failed point fails its experiment, not the process.

use blas_kernels::{
    measure_traffic, BatchedCappedGemvTrace, BatchedGemmTrace, MeasureConfig, NestEvents,
};
use fft3d::resort::ResortTrace;
use p9_memsim::SimMachine;
use papi_sim::{EventSet, PapiError};

use crate::System;

/// Allocate one resort trace at size `n` (fn pointer so points stay
/// `Send + 'static` without capturing).
pub type MakeResort = fn(&mut SimMachine, usize) -> Box<dyn ResortTrace>;

/// One row of a GEMM sweep (Figs. 2–4).
#[derive(Clone, Copy, Debug)]
pub struct GemmRow {
    pub n: u64,
    pub reps: u32,
    pub expected_read: f64,
    pub expected_write: f64,
    pub measured_read: f64,
    pub measured_write: f64,
}

/// Measure one GEMM sweep point on a fresh machine seeded with `seed`.
/// `threads = 1` for the single-threaded kernel, one per usable core for
/// the batched one.
pub fn gemm_point(
    system: System,
    threads: usize,
    n: u64,
    reps: u32,
    seed: u64,
) -> Result<GemmRow, PapiError> {
    let _span = obs::span!("bench.gemm_point", n);
    let (mut machine, setup) = crate::node(system, seed);
    let events = match system {
        System::Summit => NestEvents::pcp(&machine),
        System::Tellico => NestEvents::uncore(),
    };
    let cfg = MeasureConfig {
        reps,
        threads,
        factored: true,
    };
    let sample = measure_traffic(
        &mut machine,
        &setup.papi,
        &events,
        |mach, t| BatchedGemmTrace::allocate(mach, n, t),
        |k, tid, core| k.run_thread(tid, core),
        &cfg,
    )?;
    let expect = blas_kernels::gemm_expected(n).batched(threads);
    Ok(GemmRow {
        n,
        reps,
        expected_read: expect.read_bytes,
        expected_write: expect.write_bytes,
        measured_read: sample.read_bytes,
        measured_write: sample.write_bytes,
    })
}

/// One row of the capped-GEMV sweep (Fig. 5).
#[derive(Clone, Copy, Debug)]
pub struct GemvRow {
    pub m: u64,
    pub n: u64,
    pub reps: u32,
    pub expected_read: f64,
    pub expected_write: f64,
    pub measured_read: f64,
    pub measured_write: f64,
}

/// The capping width: square GEMV up to `M = 1280`, capped (fixed
/// `N = P = 1280`) beyond, per Section III.
pub const GEMV_CAP: u64 = 1280;

/// Measure one batched, capped GEMV point of Fig. 5.
pub fn gemv_point(system: System, threads: usize, m: u64, seed: u64) -> Result<GemvRow, PapiError> {
    let _span = obs::span!("bench.gemv_point", m);
    let (mut machine, setup) = crate::node(system, seed);
    let events = match system {
        System::Summit => NestEvents::pcp(&machine),
        System::Tellico => NestEvents::uncore(),
    };
    let n = m.min(GEMV_CAP);
    let reps = blas_kernels::repetitions(m);
    let cfg = MeasureConfig {
        reps,
        threads,
        factored: true,
    };
    let sample = measure_traffic(
        &mut machine,
        &setup.papi,
        &events,
        |mach, t| BatchedCappedGemvTrace::allocate(mach, m, n, t),
        |k, tid, core| k.run_thread(tid, core),
        &cfg,
    )?;
    let expect = blas_kernels::capped_gemv_expected(m, n).batched(threads);
    Ok(GemvRow {
        m,
        n,
        reps,
        expected_read: expect.read_bytes,
        expected_write: expect.write_bytes,
        measured_read: sample.read_bytes,
        measured_write: sample.write_bytes,
    })
}

/// One row of a re-sorting figure (Figs. 6–9): min/max over runs.
#[derive(Clone, Copy, Debug)]
pub struct ResortRow {
    pub n: usize,
    pub runs: usize,
    pub expected_read: f64,
    pub expected_write: f64,
    pub min_read: f64,
    pub max_read: f64,
    pub min_write: f64,
    pub max_write: f64,
    /// Per-16-byte-element read/write transactions (the paper's units).
    pub per_elem_read: f64,
    pub per_elem_write: f64,
    /// Mean simulated seconds per run (the Fig. 7b speedup shows here).
    pub seconds: f64,
}

/// Measure one re-sorting routine at size `n`, `runs` independent runs
/// with fresh buffers each (the paper reports min/max of 50 runs).
/// Routines run under the all-cores L3 share (the original loops are
/// OpenMP-parallel across the socket).
pub fn measure_resort(
    make: MakeResort,
    n: usize,
    prefetch: bool,
    runs: usize,
    seed: u64,
) -> Result<ResortRow, PapiError> {
    let _span = obs::span!("bench.resort_point", n as u64);
    let (mut machine, setup) = crate::node(System::Summit, seed);
    machine.set_software_prefetch(0, prefetch);
    let events = NestEvents::pcp(&machine);
    let mut es = EventSet::new();
    for e in events.reads.iter().chain(&events.writes) {
        es.add_event(e)?;
    }
    let nr = events.reads.len();
    let active = machine.arch().node.sockets[0].usable_cores;

    let runs = runs.max(1);
    let mut reads = Vec::with_capacity(runs);
    let mut writes = Vec::with_capacity(runs);
    let mut volume = 0u64;
    let mut expected = (0u64, 0u64);
    let mut seconds = 0.0;
    let shared = machine.socket_shared(0);
    for _ in 0..runs {
        let trace = make(&mut machine, n);
        volume = trace.volume();
        expected = trace.expected();
        es.start(&setup.papi)?;
        let t0 = shared.now_seconds();
        machine.run_parallel(0, active, |tid, core| {
            if tid == 0 {
                trace.run(core);
            }
        });
        seconds += shared.now_seconds() - t0;
        let vals = es.stop()?;
        reads.push(vals[..nr].iter().sum::<i64>() as f64);
        writes.push(vals[nr..].iter().sum::<i64>() as f64);
    }
    let seconds = seconds / runs as f64;

    let fold = |v: &[f64]| {
        (
            v.iter().cloned().fold(f64::INFINITY, f64::min),
            v.iter().cloned().fold(0.0, f64::max),
        )
    };
    let (min_read, max_read) = fold(&reads);
    let (min_write, max_write) = fold(&writes);
    let elems = volume as f64 / 16.0;
    Ok(ResortRow {
        n,
        runs,
        expected_read: expected.0 as f64,
        expected_write: expected.1 as f64,
        min_read,
        max_read,
        min_write,
        max_write,
        per_elem_read: (reads.iter().sum::<f64>() / runs as f64) / 16.0 / elems,
        per_elem_write: (writes.iter().sum::<f64>() / runs as f64) / 16.0 / elems,
        seconds,
    })
}

/// One row of the Fig. 10 bandwidth comparison.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthRow {
    pub routine: &'static str,
    pub n: usize,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub seconds: f64,
}

/// Run one resort routine at scale and report raw counter deltas and
/// simulated wall time (Fig. 10 derives bandwidth from these).
pub fn bandwidth_point(
    make: MakeResort,
    routine: &'static str,
    n: usize,
    seed: u64,
) -> BandwidthRow {
    let _span = obs::span!("bench.bandwidth_point", n as u64);
    let (mut machine, _setup) = crate::node(System::Summit, seed);
    let active = machine.arch().node.sockets[0].usable_cores;
    let trace = make(&mut machine, n);
    let shared = machine.socket_shared(0);
    let before = shared.counters().snapshot();
    let t0 = shared.now_seconds();
    machine.run_parallel(0, active, |tid, core| {
        if tid == 0 {
            trace.run(core);
        }
    });
    let d = shared.counters().snapshot().delta(&before);
    let dt = shared.now_seconds() - t0;
    BandwidthRow {
        routine,
        n,
        read_bytes: d.total_read(),
        write_bytes: d.total_write(),
        seconds: dt,
    }
}

/// Column header of the resort CSVs (Figs. 6–9).
pub const RESORT_CSV_COLUMNS: &str = "n,runs,expected_read,expected_write,min_read,max_read,min_write,max_write,reads_per_elem,writes_per_elem,seconds";

/// Column header of the GEMM CSVs (Figs. 2–4).
pub const GEMM_CSV_COLUMNS: &str =
    "n,reps,expected_read,expected_write,measured_read,measured_write,read_ratio,write_ratio";

/// Column header of the GEMV CSV (Fig. 5).
pub const GEMV_CSV_COLUMNS: &str =
    "m,n,reps,expected_read,expected_write,measured_read,measured_write,read_ratio,write_ratio";

/// Column header of the bandwidth CSV (Fig. 10).
pub const BANDWIDTH_CSV_COLUMNS: &str =
    "routine,n,read_bytes,write_bytes,seconds,bandwidth_GBps,reads_per_write";

/// The `# cache-region bounds …` comment line above GEMM CSVs.
pub fn gemm_bounds_line() -> String {
    let bounds = blas_kernels::gemm_cache_bounds(p9_arch::L3_PER_CORE_BYTES);
    format!(
        "# cache-region bounds (Eq. 3/4): N in [{}, {}]",
        bounds.0, bounds.1
    )
}

impl GemmRow {
    pub fn csv_line(&self) -> String {
        format!(
            "{},{},{:.0},{:.0},{:.0},{:.0},{:.3},{:.3}",
            self.n,
            self.reps,
            self.expected_read,
            self.expected_write,
            self.measured_read,
            self.measured_write,
            self.measured_read / self.expected_read,
            self.measured_write / self.expected_write,
        )
    }

    /// Bytes the simulator moved for this point (throughput statistic).
    pub fn sim_bytes(&self) -> u64 {
        (self.measured_read + self.measured_write) as u64
    }
}

impl GemvRow {
    pub fn csv_line(&self) -> String {
        format!(
            "{},{},{},{:.0},{:.0},{:.0},{:.0},{:.3},{:.3}",
            self.m,
            self.n,
            self.reps,
            self.expected_read,
            self.expected_write,
            self.measured_read,
            self.measured_write,
            self.measured_read / self.expected_read,
            self.measured_write / self.expected_write,
        )
    }

    /// Bytes the simulator moved for this point.
    pub fn sim_bytes(&self) -> u64 {
        (self.measured_read + self.measured_write) as u64
    }
}

impl ResortRow {
    pub fn csv_line(&self) -> String {
        format!(
            "{},{},{:.0},{:.0},{:.0},{:.0},{:.0},{:.0},{:.3},{:.3},{:.6}",
            self.n,
            self.runs,
            self.expected_read,
            self.expected_write,
            self.min_read,
            self.max_read,
            self.min_write,
            self.max_write,
            self.per_elem_read,
            self.per_elem_write,
            self.seconds
        )
    }

    /// Bytes the simulator moved for this point (sum over runs of the
    /// mean measured traffic).
    pub fn sim_bytes(&self) -> u64 {
        let mean = (self.min_read + self.max_read + self.min_write + self.max_write) / 2.0;
        (mean * self.runs as f64) as u64
    }
}

impl BandwidthRow {
    pub fn csv_line(&self) -> String {
        let moved = (self.read_bytes + self.write_bytes) as f64;
        format!(
            "{},{},{},{},{:.6},{:.3},{:.3}",
            self.routine,
            self.n,
            self.read_bytes,
            self.write_bytes,
            self.seconds,
            moved / self.seconds / 1e9,
            self.read_bytes as f64 / self.write_bytes.max(1) as f64,
        )
    }

    pub fn sim_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_point_is_deterministic_per_seed() {
        let a = gemm_point(System::Summit, 1, 64, 1, 42).unwrap();
        let b = gemm_point(System::Summit, 1, 64, 1, 42).unwrap();
        assert_eq!(a.csv_line(), b.csv_line());
        let c = gemm_point(System::Summit, 1, 64, 1, 43).unwrap();
        // Different seed, different noise: the measured columns move.
        assert_ne!(
            (a.measured_read, a.measured_write),
            (c.measured_read, c.measured_write)
        );
        assert_eq!(a.expected_read, c.expected_read);
    }

    #[test]
    fn csv_lines_have_the_documented_arity() {
        let r = gemm_point(System::Summit, 1, 64, 1, 1).unwrap();
        assert_eq!(
            r.csv_line().split(',').count(),
            GEMM_CSV_COLUMNS.split(',').count()
        );
        let v = gemv_point(System::Summit, 21, 128, 1).unwrap();
        assert_eq!(
            v.csv_line().split(',').count(),
            GEMV_CSV_COLUMNS.split(',').count()
        );
    }
}
