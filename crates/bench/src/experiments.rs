//! The experiment registry: every figure, table and study of the paper
//! as a declarative [`Experiment`] the parallel runner can execute.
//!
//! This is the single source of truth the `repro` orchestrator builds
//! from (`repro --only <tag>` runs one experiment and writes
//! `results/<tag>.out`). Each experiment decomposes into independent sweep points; a point's
//! machine seed derives from the experiment's base seed via
//! [`crate::point_seed`], so sequential and parallel execution produce
//! bit-identical output.

use std::fmt;
use std::sync::Arc;

use fft3d::gpu::GpuFft3dRank;
use fft3d::resort::{LocalDims, ResortTrace, S1cfCombined, S1cfNest1, S1cfNest2, S2cf};
use p9_memsim::{ModelPolicy, SimMachine};
use qmc_mini::app::{QmcApp, QmcConfig};
use ranksim::ib::NodeNic;
use ranksim::nvml::{GpuDevice, GpuParams};
use ranksim::{ClusterSim, ProcessGrid};

use crate::figures::{self, bandwidth_point, gemm_point, gemv_point, measure_resort, MakeResort};
use crate::profile::{self, Profiler, Timeline};
use crate::runner::{Experiment, Point, PointOutput, RunnerError};
use crate::{fft_sizes_for, gemm_sizes_for, gemv_sizes_for, header_lines, point_seed};
use crate::{Args, Mode, System};

/// Every registered experiment tag, in canonical (paper) order.
pub const TAGS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table1",
    "table2",
    "ablation",
    "papi_avail",
    "refute",
];

/// Map a point-level failure source into a typed runner error.
fn perr(tag: &'static str, label: &str, e: impl fmt::Display) -> RunnerError {
    RunnerError::Point {
        experiment: tag.to_owned(),
        point: label.to_owned(),
        message: e.to_string(),
    }
}

/// Build one experiment. Returns `None` for an unknown tag. `args`
/// supplies the two per-figure knobs, `--seed` and `--system`; sizes
/// and repetition counts follow `mode`.
pub fn build(tag: &str, mode: Mode, args: &Args) -> Option<Experiment> {
    match tag {
        "fig1" => Some(fig1()),
        "fig2" => Some(fig2(mode, args)),
        "fig3" => Some(gemm_adaptive(
            "fig3",
            System::Summit,
            21,
            "PCP",
            3,
            mode,
            args,
        )),
        "fig4" => Some(gemm_adaptive(
            "fig4",
            System::Tellico,
            16,
            "perf_uncore on Tellico",
            4,
            mode,
            args,
        )),
        "fig5" => Some(fig5(mode, args)),
        "fig6" => Some(resort_figure(
            "fig6",
            "S1CF loop nest 1",
            make_nest1,
            &[false, true],
            6,
            mode,
            args,
        )),
        "fig7" => Some(fig7(mode, args)),
        "fig8" => Some(fig8(mode, args)),
        "fig9" => Some(resort_figure(
            "fig9",
            "S2CF",
            make_s2cf,
            &[false, true],
            9,
            mode,
            args,
        )),
        "fig10" => Some(fig10(mode, args)),
        "fig11" => Some(fig11(mode, args)),
        "fig12" => Some(fig12(mode, args)),
        "table1" => Some(table1()),
        "table2" => Some(table2()),
        "ablation" => Some(ablation(mode)),
        "papi_avail" => Some(papi_avail(args)),
        "refute" => Some(refute_exp(args)),
        _ => None,
    }
}

// --- resort trace constructors (fn pointers keep points `Send`) -------

fn make_nest1(m: &mut SimMachine, n: usize) -> Box<dyn ResortTrace> {
    Box::new(S1cfNest1::allocate(m, LocalDims::for_grid(n, 2, 4)))
}

fn make_nest2(m: &mut SimMachine, n: usize) -> Box<dyn ResortTrace> {
    Box::new(S1cfNest2::allocate(m, LocalDims::for_grid(n, 2, 4)))
}

fn make_combined(m: &mut SimMachine, n: usize) -> Box<dyn ResortTrace> {
    Box::new(S1cfCombined::allocate(m, LocalDims::for_grid(n, 2, 4)))
}

fn make_s2cf(m: &mut SimMachine, n: usize) -> Box<dyn ResortTrace> {
    Box::new(S2cf::for_grid(m, n, 2, 4))
}

fn make_combined_4x8(m: &mut SimMachine, n: usize) -> Box<dyn ResortTrace> {
    Box::new(S1cfCombined::allocate(m, LocalDims::for_grid(n, 4, 8)))
}

fn make_s2cf_4x8(m: &mut SimMachine, n: usize) -> Box<dyn ResortTrace> {
    Box::new(S2cf::for_grid(m, n, 4, 8))
}

// --- Fig. 1 -----------------------------------------------------------

/// Figure 1: the capped-GEMV memory-usage schematic, rendered from the
/// actual kernel model. The shaded band is the allocated (capped) part of
/// matrix A (`P × N`, `P = min(M, N)`); the hatched area below is the
/// memory a plain GEMV of output size `M` would have needed.
fn fig1() -> Experiment {
    let (m, n) = (4096, 1280);
    let mut exp = Experiment::new("fig1", "Capped-GEMV memory-usage schematic");
    exp.push(Point::run("schematic", move || {
        Ok(PointOutput::text(fig1_text(m, n)))
    }));
    exp
}

fn fig1_text(m: u64, n: u64) -> String {
    use blas_kernels::CappedGemvTrace;
    let mut machine = SimMachine::summit(1);
    let t = CappedGemvTrace::allocate(&mut machine, m, n);
    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 1: capped GEMV memory usage (M = {m}, N = {n}, P = {})\n\n",
        t.p
    ));
    let width = 40usize;
    let rows = 16usize;
    let cap_rows = ((t.p as f64 / m as f64) * rows as f64).ceil().max(1.0) as usize;
    out.push_str("        x (N elements, read once)\n");
    out.push_str(&format!("   +{}+\n", "-".repeat(width)));
    for r in 0..rows.min(cap_rows) {
        let tag = if r == cap_rows / 2 {
            " A (allocated: P x N)"
        } else {
            ""
        };
        out.push_str(&format!("   |{}|{tag}\n", "#".repeat(width)));
    }
    for r in cap_rows..rows {
        let tag = if r == (cap_rows + rows) / 2 {
            " rows i >= P reuse row i mod P (never allocated)"
        } else {
            ""
        };
        out.push_str(&format!("   |{}|{tag}\n", "/ ".repeat(width / 2)));
    }
    out.push_str(&format!("   +{}+\n", "-".repeat(width)));
    out.push_str("        y (M elements, written once)\n\n");
    let full = m * n * 8;
    let capped = t.p * n * 8;
    out.push_str(&format!(
        "allocated A: {} MiB (vs {} MiB uncapped) -> {:.1}x saving at equal write traffic\n",
        capped >> 20,
        full >> 20,
        full as f64 / capped as f64
    ));
    out
}

// --- Figs. 2–4: GEMM sweeps -------------------------------------------

// A sweep section is genuinely 8-dimensional; bundling into a struct
// would only rename the arguments.
#[allow(clippy::too_many_arguments)]
fn push_gemm_rows(
    exp: &mut Experiment,
    tag: &'static str,
    system: System,
    threads: usize,
    reps_of: fn(u64) -> u32,
    sizes: &[u64],
    base_seed: u64,
    section: u64,
) {
    exp.push(Point::fixed(figures::gemm_bounds_line()));
    exp.push(Point::fixed(figures::GEMM_CSV_COLUMNS));
    for &n in sizes {
        let seed = point_seed(base_seed, tag, section * 1_000_000 + n);
        exp.push(Point::run(format!("n={n}"), move || {
            let row = gemm_point(system, threads, n, reps_of(n), seed)
                .map_err(|e| perr(tag, &format!("n={n}"), e))?;
            Ok(PointOutput::with_bytes(row.csv_line(), row.sim_bytes()))
        }));
    }
}

fn one_rep(_: u64) -> u32 {
    1
}

/// Figure 2: memory traffic of the single-threaded GEMM with **one
/// repetition**, measured via PCP on Summit (`--system summit`, Fig. 2a)
/// or via perf_uncore on Tellico (`--system tellico`, Fig. 2b).
///
/// Expected shape: small sizes dominated by noise; measurements approach
/// the 3N²/N² expectations only for larger problems, identically on both
/// measurement paths.
fn fig2(mode: Mode, args: &Args) -> Experiment {
    let system = System::from_arg(&args.get_or("system", "summit"));
    let sizes = gemm_sizes_for(mode);
    let seed = args.get_u64("seed", 2);
    let mut exp = Experiment::new("fig2", "Single-threaded GEMM, 1 repetition");
    exp.push(Point::fixed(header_lines(
        "Fig. 2: single-threaded GEMM, 1 repetition",
        &[
            ("system", system.name().into()),
            (
                "events",
                if system == System::Summit {
                    "pcp".into()
                } else {
                    "perf_uncore".into()
                },
            ),
            ("seed", seed.to_string()),
        ],
    )));
    push_gemm_rows(&mut exp, "fig2", system, 1, one_rep, &sizes, seed, 0);
    exp
}

/// Figs. 3 and 4: GEMM with the adaptive repetition scheme (Eq. 5),
/// single-threaded (a) vs batched (b, one GEMM per usable core), on
/// Summit/PCP (Fig. 3) or directly with perf_uncore on the Tellico
/// testbed (Fig. 4 — the single-thread divergence is not a PCP
/// artifact).
///
/// Expected shape: repetition averaging removes the noise floor; the
/// single-threaded kernel still drifts above the expectation with size and
/// shows NO jump at N≈809 (L3 slice borrowing gives it 110 MB), while the
/// batched kernel matches the expectation and jumps once each core's 5 MB
/// share is exceeded.
fn gemm_adaptive(
    tag: &'static str,
    system: System,
    batched_threads: usize,
    events_label: &str,
    default_seed: u64,
    mode: Mode,
    args: &Args,
) -> Experiment {
    let sizes = gemm_sizes_for(mode);
    let seed = args.get_u64("seed", default_seed);
    let fig_no = if tag == "fig3" { 3 } else { 4 };
    let scheme = if tag == "fig3" {
        "adaptive repetitions (Eq. 5), PCP".to_owned()
    } else {
        format!("adaptive repetitions, {events_label}")
    };
    let mut exp = Experiment::new(
        tag,
        format!("GEMM single vs batched, adaptive repetitions ({events_label})"),
    );
    let sections = [("single", 1), ("batched", batched_threads)];
    for (sec, (label, threads)) in sections.into_iter().enumerate() {
        exp.push(Point::fixed(header_lines(
            &format!("Fig. {fig_no} ({label}): GEMM, {scheme}"),
            &[("threads", threads.to_string()), ("seed", seed.to_string())],
        )));
        push_gemm_rows(
            &mut exp,
            tag,
            system,
            threads,
            blas_kernels::repetitions,
            &sizes,
            seed,
            sec as u64,
        );
        exp.push(Point::fixed("\n"));
    }
    exp
}

// --- Fig. 5: capped GEMV ----------------------------------------------

/// Figure 5: the batched, capped GEMV — square (`M = N = P`) up to the
/// capping point at 1280, capped (`N = P = 1280`) beyond; PCP events on
/// Summit (`--system summit`, Fig. 5a) or perf_uncore on Tellico
/// (`--system tellico`, Fig. 5b).
///
/// Expected shape: reads track `M·N + M + N` through the transition;
/// writes exceed the tiny `M` expectation until M reaches ~10⁴ (noise
/// floor), on both measurement paths.
fn fig5(mode: Mode, args: &Args) -> Experiment {
    let system = System::from_arg(&args.get_or("system", "summit"));
    let sizes = gemv_sizes_for(mode);
    let seed = args.get_u64("seed", 5);
    let threads = if system == System::Summit { 21 } else { 16 };
    let mut exp = Experiment::new("fig5", "Batched, capped GEMV");
    exp.push(Point::fixed(header_lines(
        "Fig. 5: batched, capped GEMV",
        &[
            ("system", system.name().into()),
            ("threads", threads.to_string()),
            ("cap (M=N=P transition)", figures::GEMV_CAP.to_string()),
            ("seed", seed.to_string()),
        ],
    )));
    exp.push(Point::fixed(figures::GEMV_CSV_COLUMNS));
    for &m in &sizes {
        let seed = point_seed(seed, "fig5", m);
        exp.push(Point::run(format!("m={m}"), move || {
            let row = gemv_point(system, threads, m, seed)
                .map_err(|e| perr("fig5", &format!("m={m}"), e))?;
            Ok(PointOutput::with_bytes(row.csv_line(), row.sim_bytes()))
        }));
    }
    exp
}

// --- Figs. 6–9: re-sorting sweeps -------------------------------------

fn resort_runs(mode: Mode) -> usize {
    if mode == Mode::Quick {
        1
    } else {
        2
    }
}

#[allow(clippy::too_many_arguments)]
fn push_resort_rows(
    exp: &mut Experiment,
    tag: &'static str,
    make: MakeResort,
    sizes: &[usize],
    prefetch: bool,
    runs: usize,
    base_seed: u64,
    section: u64,
) {
    exp.push(Point::fixed(figures::RESORT_CSV_COLUMNS));
    for &n in sizes {
        let seed = point_seed(base_seed, tag, section * 1_000_000 + n as u64);
        exp.push(Point::run(format!("n={n}"), move || {
            let row = measure_resort(make, n, prefetch, runs, seed)
                .map_err(|e| perr(tag, &format!("n={n}"), e))?;
            Ok(PointOutput::with_bytes(row.csv_line(), row.sim_bytes()))
        }));
    }
}

/// Figs. 6 and 9 share their shape: one routine on the 2×4 grid,
/// min/max over runs, a section without and (optionally) with
/// `-fprefetch-loop-arrays`.
///
/// Expected shape, Fig. 6 (S1CF loop nest 1, sequential copy
/// `in → tmp`): one read + one write per element without the flag
/// (stores bypass the cache); `dcbtst` adds a second read (of `tmp`).
/// Fig. 9 (S2CF, the post-exchange peer merge): the innermost traversal
/// dimension matches the innermost storage dimension, so the stride is
/// amortized: one read and one write per element; `dcbtst` adds the
/// extra read of `out`.
fn resort_figure(
    tag: &'static str,
    routine: &'static str,
    make: MakeResort,
    prefetch_variants: &[bool],
    default_seed: u64,
    mode: Mode,
    args: &Args,
) -> Experiment {
    let sizes = fft_sizes_for(mode);
    let runs = resort_runs(mode);
    let seed = args.get_u64("seed", default_seed);
    let fig_no = if tag == "fig6" { 6 } else { 9 };
    let mut exp = Experiment::new(tag, format!("{routine} memory traffic"));
    for (sec, &prefetch) in prefetch_variants.iter().enumerate() {
        exp.push(Point::fixed(header_lines(
            &format!(
                "Fig. {fig_no}{}: {routine}, {} -fprefetch-loop-arrays",
                if prefetch { 'b' } else { 'a' },
                if prefetch { "with" } else { "without" }
            ),
            &[("grid", "2x4".into()), ("runs", runs.to_string())],
        )));
        push_resort_rows(
            &mut exp, tag, make, &sizes, prefetch, runs, seed, sec as u64,
        );
        exp.push(Point::fixed("\n"));
    }
    exp
}

/// Figure 7: memory traffic of S1CF loop nest 2 (strided reads of `tmp`,
/// sequential writes of `out`), without (7a) and with (7b)
/// `-fprefetch-loop-arrays`.
///
/// Expected shape: one write per element throughout; reads rise from ~2
/// per element toward ~5 once N passes the Eq. 7 bound (~724 for a 5 MB
/// share and 8 ranks).
fn fig7(mode: Mode, args: &Args) -> Experiment {
    let sizes = fft_sizes_for(mode);
    let runs = resort_runs(mode);
    let seed = args.get_u64("seed", 7);
    let bound = fft3d::model::eq7_bound(p9_arch::L3_PER_CORE_BYTES, 8);
    let mut exp = Experiment::new("fig7", "S1CF loop nest 2 memory traffic");
    for (sec, prefetch) in [false, true].into_iter().enumerate() {
        exp.push(Point::fixed(header_lines(
            &format!(
                "Fig. 7{}: S1CF loop nest 2, {} -fprefetch-loop-arrays",
                if prefetch { 'b' } else { 'a' },
                if prefetch { "with" } else { "without" }
            ),
            &[
                ("grid", "2x4".into()),
                ("runs", runs.to_string()),
                ("eq7 bound", bound.to_string()),
            ],
        )));
        push_resort_rows(
            &mut exp, "fig7", make_nest2, &sizes, prefetch, runs, seed, sec as u64,
        );
        exp.push(Point::fixed("\n"));
    }
    exp
}

/// Figure 8: S1CF written as the combined loop nest (Listing 8):
/// sequential reads of `in`, strided writes of `out`.
///
/// Expected shape: two reads (in + out's read-for-ownership) and one
/// write per element — "significantly less reading than ... the original
/// S1CF".
fn fig8(mode: Mode, args: &Args) -> Experiment {
    let sizes = fft_sizes_for(mode);
    let runs = resort_runs(mode);
    let seed = args.get_u64("seed", 8);
    let mut exp = Experiment::new("fig8", "S1CF combined loop nest memory traffic");
    exp.push(Point::fixed(header_lines(
        "Fig. 8: S1CF combined loop nest, no additional compiler optimizations",
        &[("grid", "2x4".into()), ("runs", runs.to_string())],
    )));
    push_resort_rows(
        &mut exp,
        "fig8",
        make_combined,
        &sizes,
        false,
        runs,
        seed,
        0,
    );
    exp
}

// --- Fig. 10: bandwidth at scale --------------------------------------

/// Figure 10: S1CF vs. S2CF at scale — 16 nodes, 4×8 virtual processor
/// grid, N ∈ {1344, 2016}, no `-fprefetch-loop-arrays`.
///
/// Expected shape: S1CF moves ~2 reads per write, S2CF ~1 read per write,
/// and S2CF achieves the higher bandwidth thanks to the locality of its
/// access pattern.
fn fig10(mode: Mode, args: &Args) -> Experiment {
    let seed = args.get_u64("seed", 10);
    let (r, c) = (4usize, 8usize);
    let sizes: Vec<usize> = match mode {
        Mode::Quick => vec![672],
        // 1344 runs in seconds; 2016 is the paper's larger size.
        Mode::Default => vec![672, 1344],
        Mode::Full => vec![1344, 2016],
    };
    let mut exp = Experiment::new("fig10", "S1CF vs S2CF bandwidth at scale");
    exp.push(Point::fixed(header_lines(
        "Fig. 10: S1CF vs S2CF bandwidth, 16 nodes, 4x8 grid",
        &[
            ("grid", format!("{r}x{c}")),
            ("sizes", format!("{sizes:?}")),
            ("seed", seed.to_string()),
        ],
    )));
    exp.push(Point::fixed(figures::BANDWIDTH_CSV_COLUMNS));
    for &n in &sizes {
        for (ri, routine) in ["S1CF", "S2CF"].into_iter().enumerate() {
            let make = if ri == 0 {
                make_combined_4x8
            } else {
                make_s2cf_4x8
            };
            let seed = point_seed(seed, "fig10", n as u64 * 10 + ri as u64);
            exp.push(Point::run(format!("{routine} n={n}"), move || {
                let row = bandwidth_point(make, routine, n, seed);
                Ok(PointOutput::with_bytes(row.csv_line(), row.sim_bytes()))
            }));
        }
    }
    exp
}

// --- Figs. 11–12: multi-component profiles ----------------------------

/// A Summit cluster job on `grid` whose instrumented rank offloads to
/// GPU 0 of socket 0.
fn gpu_cluster(seed: u64, grid: ProcessGrid) -> (ClusterSim, Arc<GpuDevice>) {
    let machine = System::Summit.machine(seed);
    let gpu = Arc::new(GpuDevice::new(
        0,
        GpuParams::default(),
        machine.socket_shared(0),
    ));
    (ClusterSim::new(machine, grid, 2), gpu)
}

/// Profile one application run: wire PAPI over `cluster` and `gpu`,
/// sample [`profile::columns`] at every tick `run` gives, and render
/// the timeline followed by the trailer `run` returns. A failed sample
/// stops sampling and fails the point.
fn profile_point(
    tag: &'static str,
    mut cluster: ClusterSim,
    gpu: &Arc<GpuDevice>,
    run: impl FnOnce(&mut ClusterSim, &mut dyn FnMut(&str, &mut ClusterSim)) -> String,
) -> Result<PointOutput, RunnerError> {
    let papi = profile::cluster_papi(&cluster, gpu).map_err(|e| perr(tag, "pmcd", e))?;
    let mut profiler =
        Profiler::start(&papi, profile::columns()).map_err(|e| perr(tag, "profiler start", e))?;
    let mut tick_err = None;
    let trailer = run(&mut cluster, &mut |phase, cl| {
        let now = cl.machine().socket_shared(0).now_seconds();
        if tick_err.is_none() {
            tick_err = profiler.tick(phase, now).err();
        }
    });
    if let Some(e) = tick_err {
        return Err(perr(tag, "sample", e));
    }
    let timeline = profiler
        .finish()
        .map_err(|e| perr(tag, "profiler stop", e))?;
    let mut out = timeline_text(&timeline);
    out.push_str(&trailer);
    Ok(PointOutput::with_bytes(out, nest_bytes(cluster.machine())))
}

/// Nest bytes (reads + writes, every socket) `m` has moved since it was
/// built: the `sim_bytes` of a point that owns its machine.
fn nest_bytes(m: &SimMachine) -> u64 {
    (0..m.num_sockets())
        .map(|s| {
            let c = m.socket_shared(s).counters().snapshot();
            c.total_read() + c.total_write()
        })
        .sum()
}

fn timeline_text(timeline: &Timeline) -> String {
    let mut out = String::new();
    out.push_str(&timeline.to_csv());
    out.push('\n');
    out.push_str("# phase means:\n");
    out.push_str("phase,gpu_power_mW,mem_read_Bps,mem_write_Bps,ib_recv_words_ps\n");
    for (phase, means) in timeline.phase_summary() {
        out.push_str(&format!(
            "{phase},{:.0},{:.3e},{:.3e},{:.3e}\n",
            means[0], means[1], means[2], means[3]
        ));
    }
    out
}

/// Figure 11: the multi-component performance profile of a single rank of
/// the GPU-accelerated 3D-FFT — 32 nodes, 8×8 virtual processor grid;
/// host memory read/write traffic (PCP), GPU power (NVML) and InfiniBand
/// receive traffic monitored simultaneously through one PAPI event set.
///
/// Expected shape: each 1D-FFT phase shows a host-read surge (H2D), a GPU
/// power spike, then a host-write surge (D2H); re-sorting phases 1/3 show
/// ~2:1 read:write, phases 2/4 ~1:1 with higher bandwidth; the two
/// All2All phases are the only network activity.
fn fig11(mode: Mode, args: &Args) -> Experiment {
    let (n, slabs) = if mode == Mode::Quick {
        (448, 2)
    } else {
        (896, 6)
    };
    let seed = args.get_u64("seed", 11);
    let mut exp = Experiment::new("fig11", "Multi-component profile of a 3D-FFT rank");
    exp.push(Point::fixed(header_lines(
        "Fig. 11: performance profile of a single 3D-FFT rank",
        &[
            ("grid", "8x8 (32 nodes)".into()),
            ("N", n.to_string()),
            ("slabs per phase", slabs.to_string()),
        ],
    )));
    exp.push(Point::run("profile", move || fig11_profile(n, slabs, seed)));
    exp
}

fn fig11_profile(n: usize, slabs: usize, seed: u64) -> Result<PointOutput, RunnerError> {
    let (mut cluster, gpu) = gpu_cluster(seed, ProcessGrid::new(8, 8));
    let rank = GpuFft3dRank::new(&mut cluster, Arc::clone(&gpu), n, slabs);
    profile_point("fig11", cluster, &gpu, |cluster, tick| {
        rank.run(cluster, tick);
        String::new()
    })
}

/// Figure 12: the multi-component performance profile of a single
/// QMCPACK-style rank — VMC (no drift) → VMC (drift) → DMC, with host
/// memory traffic, GPU power and InfiniBand receive traffic monitored
/// simultaneously.
///
/// Expected shape: three visibly distinct regimes; the drifted VMC phase
/// moves more host memory and runs heavier GPU kernels; only DMC (walker
/// load balancing) touches the network.
fn fig12(mode: Mode, args: &Args) -> Experiment {
    let (walkers, blocks_per_phase, steps_per_block) = if mode == Mode::Quick {
        (256, 3, 10)
    } else {
        (1024, 10, 30)
    };
    let seed = args.get_u64("seed", 12);
    let cfg = QmcConfig {
        walkers,
        blocks_per_phase,
        steps_per_block,
        alpha: 0.85,
        seed,
    };
    let mut exp = Experiment::new("fig12", "Multi-component profile of a QMCPACK rank");
    exp.push(Point::fixed(header_lines(
        "Fig. 12: performance profile of a single QMCPACK rank",
        &[
            ("phases", "vmc, vmc-drift, dmc".into()),
            ("walkers", cfg.walkers.to_string()),
            ("blocks/phase", cfg.blocks_per_phase.to_string()),
        ],
    )));
    exp.push(Point::run("profile", move || fig12_profile(cfg)));
    exp
}

fn fig12_profile(cfg: QmcConfig) -> Result<PointOutput, RunnerError> {
    let (mut cluster, gpu) = gpu_cluster(cfg.seed, ProcessGrid::new(4, 4));
    let app = QmcApp::new(&mut cluster, Arc::clone(&gpu), cfg);
    profile_point("fig12", cluster, &gpu, |cluster, tick| {
        let result = app.run(cluster, tick);
        format!(
            "\n# physics check: E(vmc)={:.4}, E(vmc-drift)={:.4}, E(dmc)={:.4} (exact 1.5)\n",
            result.vmc_energy, result.vmc_drift_energy, result.dmc_energy
        )
    })
}

// --- Tables and listings ----------------------------------------------

/// Table I: the systems and the memory-traffic performance events
/// measured on each, as exposed by the running PAPI stack.
fn table1() -> Experiment {
    let mut exp = Experiment::new("table1", "Architectures and performance events");
    exp.push(Point::run("listing", || {
        Ok(PointOutput::text(table1_text()))
    }));
    exp
}

fn table1_text() -> String {
    let mut out = String::new();
    out.push_str("TABLE I: Architectures and Performance Events\n");
    out.push_str("system,arch,component,event\n");
    for system in [System::Summit, System::Tellico] {
        let (machine, setup) = crate::node(system, 1);
        let arch = "IBM POWER9";
        for status in setup.papi.component_status() {
            if !status.enabled {
                continue;
            }
            if status.name != "pcp" && status.name != "perf_uncore" {
                continue;
            }
            let Ok(comp) = setup.papi.component(&status.name) else {
                continue;
            };
            for ev in comp.list_events() {
                if ev.name.contains("BYTES") {
                    out.push_str(&format!(
                        "{},{},{},{}\n",
                        system.name(),
                        arch,
                        status.name,
                        ev.name
                    ));
                }
            }
        }
        // Also report the disabled path: the access-control story of the
        // paper (Summit users cannot take the direct route).
        for status in setup.papi.component_status() {
            if !status.enabled && status.name == "perf_uncore" {
                out.push_str(&format!(
                    "{},{},{},DISABLED ({})\n",
                    system.name(),
                    arch,
                    status.name,
                    status.reason.as_deref().unwrap_or("")
                ));
            }
        }
        drop(machine);
    }
    out
}

/// Table II: the supplemental performance events (GPU power via NVML,
/// InfiniBand port traffic) available on a Summit node with a fabric.
fn table2() -> Experiment {
    let mut exp = Experiment::new("table2", "Supplemental performance events");
    exp.push(Point::run("listing", || {
        Ok(PointOutput::text(table2_text()))
    }));
    exp
}

fn table2_text() -> String {
    use papi_sim::papi::setup_node;
    let machine = SimMachine::summit(1);
    // A two-rail node NIC, as on Summit.
    let nic = NodeNic::new(machine.arch().node.ib_ports);
    let setup = setup_node(&machine, nic.hcas);

    let mut out = String::new();
    out.push_str("TABLE II: Supplemental Performance Events\n");
    out.push_str("hardware,component,event,units\n");
    for status in setup.papi.component_status() {
        if !status.enabled || (status.name != "nvml" && status.name != "infiniband") {
            continue;
        }
        let Ok(comp) = setup.papi.component(&status.name) else {
            continue;
        };
        let hardware = match status.name.as_str() {
            "nvml" => "NVIDIA Tesla V100 GPU",
            _ => "Mellanox ConnectX-5 Ex",
        };
        for ev in comp.list_events() {
            out.push_str(&format!(
                "{hardware},{},{},{}\n",
                status.name, ev.name, ev.units
            ));
        }
    }
    out
}

// --- Ablation study ---------------------------------------------------

fn quiet() -> SimMachine {
    SimMachine::quiet(p9_arch::Machine::summit(), 101)
}

/// Run a resort trace under `policy` with the all-cores L3 share;
/// returns reads per 16-byte element and the nest bytes moved.
fn resort_per_element<T: ResortTrace>(
    make: impl FnOnce(&mut SimMachine) -> T,
    policy: ModelPolicy,
) -> (f64, u64) {
    let mut m = quiet();
    m.set_policy(0, policy);
    let t = make(&mut m);
    let shared = m.socket_shared(0);
    let before = shared.counters().snapshot();
    let active = m.arch().node.sockets[0].usable_cores;
    m.run_parallel(0, active, |tid, core| {
        if tid == 0 {
            t.run(core);
        }
    });
    m.flush_socket(0);
    let d = shared.counters().snapshot().delta(&before);
    let elems = t.volume() as f64 / 16.0;
    (
        d.total_read() as f64 / 16.0 / elems,
        d.total_read() + d.total_write(),
    )
}

/// Streaming-read cycles per sector under `policy`, and the nest bytes
/// moved.
fn stream_cycles(policy: ModelPolicy, bytes: u64) -> (f64, u64) {
    let mut m = quiet();
    m.set_policy(0, policy);
    let r = m.alloc(bytes);
    let mut cycles = 0;
    m.run_single(0, |core| {
        let c0 = core.cycles();
        core.load_seq(r.base(), bytes);
        cycles = core.cycles() - c0;
    });
    (cycles as f64 / (bytes / 64) as f64, nest_bytes(&m))
}

/// Ablation study: what each model mechanism contributes to the paper's
/// phenomena. For every switchable mechanism of
/// [`p9_memsim::ModelPolicy`], a diagnostic kernel is run with the
/// mechanism on and off and the headline quantity compared:
///
/// * `store_gather_bypass` — S1CF loop nest 1 (Fig. 6a): with the bypass,
///   ~1 read per element; without, every store write-allocates and the
///   routine looks like its `-fprefetch-loop-arrays` variant (~2 reads).
/// * `anti_pollution` — S1CF loop nest 2 just below the Eq. 7 bound
///   (Fig. 7a): with streaming-store mid-LRU insertion the `tmp` reuse
///   window survives up to the bound (sharp 2→5 crossover near N ≈ 724);
///   with naive MRU insertion the `out` stream erodes the window early
///   and the crossover smears to smaller N.
/// * `hw_prefetch` — a streaming read (GEMV row sweep): traffic is
///   unchanged, but the exposed miss latency (cycles) rises sharply
///   without prefetch.
fn ablation(mode: Mode) -> Experiment {
    let mut exp = Experiment::new("ablation", "Model-mechanism ablation study");
    exp.push(Point::fixed(
        "# Ablation study: model mechanisms vs the paper's phenomena",
    ));
    exp.push(Point::fixed("mechanism,metric,with,without,effect"));
    let on = ModelPolicy::default();
    // Quick mode shrinks the diagnostic problems so the whole study runs
    // in CI time; the mechanism contrasts survive the smaller footprints.
    let (nest1_n, nest2_n, stream_bytes) = match mode {
        Mode::Quick => (112, 560, 2u64 << 20),
        Mode::Default | Mode::Full => (224, 672, 8u64 << 20),
    };

    exp.push(Point::run("store_gather_bypass", move || {
        let off = ModelPolicy {
            store_gather_bypass: false,
            ..on
        };
        let dims = LocalDims::for_grid(nest1_n, 2, 4);
        let (r_on, b_on) = resort_per_element(|m| S1cfNest1::allocate(m, dims), on);
        let (r_off, b_off) = resort_per_element(|m| S1cfNest1::allocate(m, dims), off);
        Ok(PointOutput::with_bytes(
            format!(
                "store_gather_bypass,S1CF-nest1 reads/elem,{r_on:.2},{r_off:.2},\
                 bypass removes the read-for-ownership (Fig. 6a vs 6b)"
            ),
            b_on + b_off,
        ))
    }));

    exp.push(Point::run("anti_pollution", move || {
        let off = ModelPolicy {
            anti_pollution: false,
            ..on
        };
        let dims = LocalDims::for_grid(nest2_n, 2, 4);
        let (r_on, b_on) = resort_per_element(|m| S1cfNest2::allocate(m, dims), on);
        let (r_off, b_off) = resort_per_element(|m| S1cfNest2::allocate(m, dims), off);
        Ok(PointOutput::with_bytes(
            format!(
                "anti_pollution,S1CF-nest2 reads/elem near Eq.7 (N={nest2_n}),{r_on:.2},{r_off:.2},\
                 streaming stores flushing the tmp window would smear the Eq.7 crossover"
            ),
            b_on + b_off,
        ))
    }));

    exp.push(Point::run("hw_prefetch", move || {
        let off = ModelPolicy {
            hw_prefetch: false,
            ..on
        };
        let (c_on, b_on) = stream_cycles(on, stream_bytes);
        let (c_off, b_off) = stream_cycles(off, stream_bytes);
        Ok(PointOutput::with_bytes(
            format!(
                "hw_prefetch,stream-read cycles/sector,{c_on:.1},{c_off:.1},\
                 prefetch hides the demand-miss latency"
            ),
            b_on + b_off,
        ))
    }));
    exp
}

// --- papi_avail -------------------------------------------------------

/// `papi_avail`-style listing: component status and every native event
/// the running stack exposes, for either system.
fn papi_avail(args: &Args) -> Experiment {
    let system = System::from_arg(&args.get_or("system", "summit"));
    let mut exp = Experiment::new("papi_avail", "PAPI component and event listing");
    exp.push(Point::run("listing", move || {
        Ok(PointOutput::text(papi_avail_text(system)))
    }));
    exp
}

fn papi_avail_text(system: System) -> String {
    let (_machine, setup) = crate::node(system, 1);
    let mut out = String::new();
    out.push_str(&format!(
        "PAPI component availability on {}:\n",
        system.name()
    ));
    out.push_str(&format!("{:-<72}\n", ""));
    for s in setup.papi.component_status() {
        match (&s.enabled, &s.reason) {
            (true, _) => out.push_str(&format!("  {:<14} [enabled]\n", s.name)),
            (false, Some(r)) => out.push_str(&format!("  {:<14} [disabled: {r}]\n", s.name)),
            _ => {}
        }
    }
    out.push('\n');
    out.push_str("Native events:\n");
    out.push_str(&format!("{:-<72}\n", ""));
    for ev in setup.papi.list_all_events() {
        out.push_str(&format!("  {:<78} ({})\n", ev.name, ev.units));
    }
    out
}

// --- refute -----------------------------------------------------------

/// Columns of the refutation verdict table ([`refute::Verdict::csv_line`]).
const REFUTE_CSV_COLUMNS: &str = "mechanism,band_rel,band_abs_bytes,pred_read_bytes,\
                                  meas_read_bytes,pred_write_bytes,meas_write_bytes,\
                                  worst_err_bytes,worst_site,verdict";

/// The CounterPoint-style refutation catalog (DESIGN.md §15): every
/// mechanism of [`refute::CATALOG`] runs its micro-kernel through the
/// full PAPI → PCP → wire path and is judged against its closed-form
/// prediction. A contradiction is a *point error* — it fails the run
/// (and hence the golden gate), not just a row in the table.
fn refute_exp(args: &Args) -> Experiment {
    let base = args.get_u64("seed", 1);
    let mut exp = Experiment::new("refute", "Model-refutation verdict catalog");
    exp.push(Point::fixed(header_lines(
        "refute",
        &[
            ("mechanisms", refute::CATALOG.len().to_string()),
            ("path", "PAPI/PCP/wire".to_owned()),
            ("machine", "quiet Summit".to_owned()),
        ],
    )));
    exp.push(Point::fixed(REFUTE_CSV_COLUMNS));
    for (i, mech) in refute::CATALOG.iter().enumerate() {
        let seed = point_seed(base, "refute", i as u64);
        exp.push(Point::run(mech.name, move || {
            let mech = &refute::CATALOG[i];
            let v =
                refute::refute_mechanism(mech, seed).map_err(|e| perr("refute", mech.name, e))?;
            if !v.agrees {
                return Err(perr("refute", mech.name, v.detail()));
            }
            Ok(PointOutput::with_bytes(v.csv_line(), v.measured.total()))
        }));
    }
    exp.push(Point::fixed("\n# Models under test:"));
    for mech in refute::CATALOG {
        exp.push(Point::fixed(format!("#   {}: {}", mech.name, mech.model)));
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tag_builds() {
        let args = Args::default();
        for tag in TAGS {
            assert!(
                build(tag, Mode::Quick, &args).is_some(),
                "tag {tag} did not build"
            );
        }
        assert!(build("nonsense", Mode::Quick, &args).is_none());
    }

    #[test]
    fn quick_experiments_have_the_expected_shape() {
        let args = Args::default();
        let exp = build("fig2", Mode::Quick, &args).expect("fig2");
        // header + bounds + columns + one row per quick size.
        let measured = exp.points.iter().filter(|p| p.is_measured()).count();
        assert_eq!(measured, gemm_sizes_for(Mode::Quick).len());
        let exp = build("fig3", Mode::Quick, &args).expect("fig3");
        let measured = exp.points.iter().filter(|p| p.is_measured()).count();
        assert_eq!(measured, 2 * gemm_sizes_for(Mode::Quick).len());
    }

    #[test]
    fn seeds_differ_between_points_and_sections() {
        let a = point_seed(3, "fig3", 64);
        let b = point_seed(3, "fig3", 128);
        let c = point_seed(3, "fig3", 1_000_000 + 64);
        let d = point_seed(3, "fig4", 64);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
