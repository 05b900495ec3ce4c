//! `memsim_loads` and `memsim_stores`: the simulator itself, driven
//! through `SimMachine::run_single` on a quiet Summit machine.
//!
//! Every kernel runs on a fresh machine, so the modelled caches start
//! empty. Simulated bytes are read from `NestCounters` snapshots the
//! benchmark takes itself; they are deterministic, so the repetitions
//! must agree with each other exactly and, for the default seed, with
//! `expected/<workload>.json`.

use blas_kernels::{CappedGemvTrace, GemmTrace, MeasureConfig, NestEvents};
use fft3d::{LocalDims, ResortTrace, S1cfNest1, S1cfNest2, S2cf};
use p9_arch::MBA_CHANNELS;
use p9_memsim::hierarchy::CoreStats;
use p9_memsim::{CounterSnapshot, SimMachine, SECTOR_BYTES};

use crate::harness::{ns_per_call, splitmix64, timed, Checks, Ctx, EndToEnd, Layers, DEFAULT_SEED};
use crate::json::{parse_json, Json, JsonExt};
use crate::spans::Recorder;
use crate::stats::median;

/// Repetitions of every kernel in an untraced run.
const REPS: usize = 3;

const GIB: u64 = 1 << 30;
const GEMM_N: u64 = 448;
const GEMV_N: u64 = 6144;
const CHASE_BYTES: u64 = 64 << 20;
const CHASE_STEPS: u64 = 4 << 20;
const STORE_SEQ_BYTES: u64 = 512 << 20;
/// Allocating stores keep their lines: 256 MiB exceeds the ~110 MiB L3,
/// so this kernel also writes dirty lines back.
const DCBTST_BYTES: u64 = 256 << 20;
/// Every partial store opens a new sector (read-for-ownership); 2 Mi
/// dirty sectors are 128 MiB of cache, so the L3 writes some back.
const PARTIAL_STORES: u64 = 2 << 20;
const PARTIAL_STRIDE_SECTORS: u64 = 4;
const L1HIT_LOADS: u64 = 16 << 20;
const STRIDED_LOADS: u64 = 2 << 20;
const STRIDED_STRIDE_SECTORS: u64 = 8;

type Run = Box<dyn FnOnce(&mut SimMachine)>;

/// One benchmark kernel: `prepare` allocates operands on a fresh
/// machine and returns the closure that is timed. The traced run
/// reports its time as the per-layer metric `layer`, per `per`.
struct Kernel {
    name: &'static str,
    prepare: fn(&mut SimMachine, u64) -> Run,
    layer: &'static str,
    per: Per,
}

/// What a kernel's per-layer metric divides its run time by.
enum Per {
    /// Nothing: seconds for the whole kernel.
    Run,
    /// Nanoseconds per 64-byte sector it moved on the memory bus.
    SectorMoved,
    /// Nanoseconds per this many accesses it issued.
    Accesses(u64),
}

fn single(f: impl FnOnce(&mut p9_memsim::CoreSim) + 'static) -> Run {
    Box::new(move |m| m.run_single(0, f))
}

/// The chase step, from the seed: odd (so it enumerates all 2^20
/// sectors) and in the range where the distance to each of the 16
/// preceding accesses exceeds the prefetcher's largest adoptable stride
/// (16384 sectors), so no stream is ever adopted.
fn chase_step(seed: u64) -> u64 {
    16_385 + 2 * (splitmix64(seed) % 24_000)
}

fn prep_gemm(m: &mut SimMachine, _: u64) -> Run {
    let k = GemmTrace::allocate(m, GEMM_N);
    single(move |c| k.run(c))
}

fn prep_gemv(m: &mut SimMachine, _: u64) -> Run {
    let k = CappedGemvTrace::allocate(m, GEMV_N, GEMV_N);
    single(move |c| k.run(c))
}

fn prep_load_seq(m: &mut SimMachine, _: u64) -> Run {
    let base = m.alloc(GIB).base();
    single(move |c| c.load_seq(base, GIB))
}

fn prep_chase(m: &mut SimMachine, seed: u64) -> Run {
    let base = m.alloc(CHASE_BYTES).base();
    let n = CHASE_BYTES / SECTOR_BYTES;
    let step = chase_step(seed);
    single(move |c| {
        for i in 0..CHASE_STEPS {
            c.load(base + (i * step % n) * SECTOR_BYTES, 8);
        }
    })
}

fn prep_store_seq(m: &mut SimMachine, _: u64) -> Run {
    let base = m.alloc(STORE_SEQ_BYTES).base();
    single(move |c| c.store_seq(base, STORE_SEQ_BYTES))
}

fn prep_store_dcbtst(m: &mut SimMachine, _: u64) -> Run {
    m.set_software_prefetch(0, true);
    let base = m.alloc(DCBTST_BYTES).base();
    single(move |c| c.store_seq(base, DCBTST_BYTES))
}

fn prep_store_partial(m: &mut SimMachine, _: u64) -> Run {
    let stride = PARTIAL_STRIDE_SECTORS * SECTOR_BYTES;
    let base = m.alloc(PARTIAL_STORES * stride).base();
    single(move |c| {
        for i in 0..PARTIAL_STORES {
            c.store(base + i * stride, 8);
        }
    })
}

fn prep_s1cf_nest1(m: &mut SimMachine, _: u64) -> Run {
    let k = S1cfNest1::allocate(m, LocalDims::new(128, 128, 128));
    single(move |c| k.run(c))
}

fn prep_s1cf_nest2(m: &mut SimMachine, _: u64) -> Run {
    let k = S1cfNest2::allocate(m, LocalDims::new(128, 128, 128));
    single(move |c| k.run(c))
}

fn prep_s2cf(m: &mut SimMachine, _: u64) -> Run {
    let k = S2cf::for_grid(m, 512, 4, 4);
    single(move |c| k.run(c))
}

fn prep_l1hit(m: &mut SimMachine, _: u64) -> Run {
    let base = m.alloc(8 * SECTOR_BYTES).base();
    single(move |c| {
        for i in 0..L1HIT_LOADS {
            c.load(base + (i % 8) * SECTOR_BYTES, 8);
        }
    })
}

fn prep_strided(m: &mut SimMachine, _: u64) -> Run {
    let stride = STRIDED_STRIDE_SECTORS * SECTOR_BYTES;
    let base = m.alloc(STRIDED_LOADS * stride).base();
    single(move |c| {
        for i in 0..STRIDED_LOADS {
            c.load(base + i * stride, 8);
        }
    })
}

const LOADS: &[Kernel] = &[
    Kernel {
        name: "gemm448",
        prepare: prep_gemm,
        layer: "kernels.gemm448_s",
        per: Per::Run,
    },
    Kernel {
        name: "gemv6144",
        prepare: prep_gemv,
        layer: "kernels.gemv6144_s",
        per: Per::Run,
    },
    Kernel {
        name: "load_seq_1g",
        prepare: prep_load_seq,
        layer: "memsim.load_seq_ns_per_sector",
        per: Per::SectorMoved,
    },
    Kernel {
        name: "chase_64m",
        prepare: prep_chase,
        layer: "memsim.load_chase_ns",
        per: Per::Accesses(CHASE_STEPS),
    },
];

const STORES: &[Kernel] = &[
    Kernel {
        name: "store_seq_512m",
        prepare: prep_store_seq,
        layer: "memsim.store_seq_ns_per_sector",
        per: Per::SectorMoved,
    },
    Kernel {
        name: "store_dcbtst_256m",
        prepare: prep_store_dcbtst,
        layer: "memsim.store_dcbtst_ns_per_sector",
        per: Per::Accesses(DCBTST_BYTES / SECTOR_BYTES),
    },
    Kernel {
        name: "store_partial_2m",
        prepare: prep_store_partial,
        layer: "memsim.store_partial_ns",
        per: Per::Accesses(PARTIAL_STORES),
    },
    Kernel {
        name: "s1cf_nest1_128",
        prepare: prep_s1cf_nest1,
        layer: "fft3d.s1cf_nest1_s",
        per: Per::Run,
    },
    Kernel {
        name: "s1cf_nest2_128",
        prepare: prep_s1cf_nest2,
        layer: "fft3d.s1cf_nest2_s",
        per: Per::Run,
    },
    Kernel {
        name: "s2cf_512",
        prepare: prep_s2cf,
        layer: "fft3d.s2cf_s",
        per: Per::Run,
    },
];

/// Traced-run only: the read path's two remaining regimes.
const LOAD_PROBES: &[Kernel] = &[
    Kernel {
        name: "l1hit_16m",
        prepare: prep_l1hit,
        layer: "memsim.load_l1hit_ns",
        per: Per::Accesses(L1HIT_LOADS),
    },
    Kernel {
        name: "strided_2m",
        prepare: prep_strided,
        layer: "memsim.load_strided_ns",
        per: Per::Accesses(STRIDED_LOADS),
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Loads,
    Stores,
}

impl Side {
    fn kernels(self) -> &'static [Kernel] {
        match self {
            Side::Loads => LOADS,
            Side::Stores => STORES,
        }
    }

    pub fn workload(self) -> &'static str {
        match self {
            Side::Loads => "memsim_loads",
            Side::Stores => "memsim_stores",
        }
    }
}

/// One kernel execution on a fresh machine.
struct Execution {
    setup_s: f64,
    run_s: f64,
    traffic: CounterSnapshot,
    stats: CoreStats,
    machine: SimMachine,
}

fn execute(kernel: &Kernel, ctx: &Ctx, rec: &mut Recorder, op_id: u64) -> Execution {
    let open = rec.begin("memsim.machine_new", op_id);
    let ((mut machine, run), setup_s) = timed(|| {
        let mut m = SimMachine::quiet(p9_arch::Machine::summit(), ctx.stream_seed(op_id));
        let run = (kernel.prepare)(&mut m, ctx.stream_seed(0xC4A5E));
        (m, run)
    });
    rec.end(open);
    let counters = machine.socket_shared(0);
    let before = counters.counters().snapshot();
    let open = rec.begin(kernel.name, op_id);
    let ((), run_s) = timed(|| run(&mut machine));
    rec.end(open);
    let traffic = counters.counters().snapshot().delta(&before);
    let stats = machine.core_mut(0, 0).stats();
    Execution {
        setup_s,
        run_s,
        traffic,
        stats,
        machine,
    }
}

fn bytes(t: &CounterSnapshot) -> u64 {
    t.total_read() + t.total_write()
}

fn channels_json(v: &[u64; MBA_CHANNELS]) -> Json {
    Json::Arr(v.iter().map(|&b| Json::Num(b as f64)).collect())
}

fn expected_path(side: Side) -> String {
    format!("benchmark/expected/{}.json", side.workload())
}

fn expected_doc(side: Side, traffic: &[(&'static str, CounterSnapshot)]) -> Json {
    Json::obj([
        ("schema", Json::str("stackbench-expected-v1")),
        ("workload", Json::str(side.workload())),
        ("seed", Json::Num(DEFAULT_SEED as f64)),
        (
            "kernels",
            Json::obj(traffic.iter().map(|(name, t)| {
                (
                    *name,
                    Json::obj([
                        ("read_bytes", channels_json(&t.read_bytes)),
                        ("write_bytes", channels_json(&t.write_bytes)),
                    ]),
                )
            })),
        ),
    ])
}

/// Compare per-channel bytes with the committed reference (default seed
/// only; any other seed is covered by repetition agreement).
fn check_expected(side: Side, traffic: &[(&'static str, CounterSnapshot)], checks: &mut Checks) {
    let path = expected_path(side);
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|s| parse_json(&s));
    let Some(doc) = checks.result(&path, doc) else {
        return;
    };
    for (name, t) in traffic {
        let want = doc.get("kernels").and_then(|k| k.get(name));
        for (field, got) in [
            ("read_bytes", &t.read_bytes),
            ("write_bytes", &t.write_bytes),
        ] {
            let want: Option<Vec<f64>> = want
                .and_then(|k| k.get(field))
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect());
            let got: Vec<f64> = got.iter().map(|&b| b as f64).collect();
            checks.check(want.as_deref() == Some(&got[..]), || {
                format!("{name}.{field}: simulated {got:?}, expected {want:?}")
            });
        }
    }
}

pub fn untraced(side: Side, ctx: &Ctx, checks: &mut Checks) -> EndToEnd {
    let kernels = side.kernels();
    let mut e2e = EndToEnd::default();
    let mut rec = Recorder::new(false);
    let mut seconds: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    let mut first: Vec<Option<CounterSnapshot>> = vec![None; kernels.len()];
    // Repetition-major, so one interference burst cannot take out all
    // three samples of a kernel.
    for rep in 0..REPS {
        let mut setup_s = 0.0;
        for (k, kernel) in kernels.iter().enumerate() {
            let x = execute(kernel, ctx, &mut rec, (rep * kernels.len() + k) as u64);
            setup_s += x.setup_s;
            seconds[k].push(x.run_s);
            match &first[k] {
                None => {
                    first[k] = Some(x.traffic);
                    checks.ok(1);
                }
                Some(f) => checks.check(*f == x.traffic, || {
                    format!("{}: repetition {rep} moved different bytes", kernel.name)
                }),
            }
        }
        e2e.setups_s.push(setup_s);
    }
    let traffic: Vec<(&'static str, CounterSnapshot)> = kernels
        .iter()
        .zip(&first)
        .map(|(k, t)| (k.name, t.expect("every kernel ran")))
        .collect();
    if ctx.write_expected {
        let path = expected_path(side);
        let written = std::fs::write(&path, expected_doc(side, &traffic).render_pretty());
        checks.result(&path, written);
    } else if ctx.seed == DEFAULT_SEED {
        check_expected(side, &traffic, checks);
    }
    // An op is a kernel at its median time over the repetitions; the
    // fixed work is every kernel once; the rate is simulated bytes per
    // host second over that.
    for ((name, t), s) in traffic.iter().zip(&seconds) {
        eprintln!(
            "stackbench: {}: {name} median {:.3} s, {} sim bytes",
            side.workload(),
            median(s),
            bytes(t)
        );
        e2e.op_us.push(median(s) * 1e6);
        e2e.wall_s += median(s);
    }
    let sim_bytes: u64 = traffic.iter().map(|(_, t)| bytes(t)).sum();
    e2e.work_per_s = sim_bytes as f64 / e2e.wall_s;
    e2e
}

pub fn traced(side: Side, ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder) -> Layers {
    let mut layers = Layers::default();
    let mut total = CounterSnapshot::default();
    let mut stats = CoreStats::default();
    let mut machine_new_ms = Vec::new();
    let mut kernels_s = 0.0;
    let mut last_machine = None;
    let probes: &[Kernel] = if side == Side::Loads {
        LOAD_PROBES
    } else {
        &[]
    };
    for (k, kernel) in side.kernels().iter().chain(probes).enumerate() {
        let x = execute(kernel, ctx, rec, k as u64);
        checks.ok(1);
        machine_new_ms.push(x.setup_s * 1e3);
        let ns = x.run_s * 1e9;
        layers.set(
            kernel.layer,
            match kernel.per {
                Per::Run => x.run_s,
                Per::SectorMoved => ns / (bytes(&x.traffic) / SECTOR_BYTES) as f64,
                Per::Accesses(n) => ns / n as f64,
            },
        );
        if k < side.kernels().len() {
            for ch in 0..MBA_CHANNELS {
                total.read_bytes[ch] += x.traffic.read_bytes[ch];
                total.write_bytes[ch] += x.traffic.write_bytes[ch];
            }
            kernels_s += x.run_s;
            let s = x.stats;
            stats.loads += s.loads;
            stats.stores += s.stores;
            stats.l1_hits += s.l1_hits;
            stats.demand_misses += s.demand_misses;
            stats.prefetch_fills += s.prefetch_fills;
            stats.bypass_writes += s.bypass_writes;
            stats.rmw_partials += s.rmw_partials;
            stats.writebacks += s.writebacks;
        }
        last_machine = Some(x.machine);
    }
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    layers.set("memsim.kernels_s", kernels_s);
    layers.set("memsim.machine_new_ms", median(&machine_new_ms));
    layers.set("memsim.sim_read_bytes", total.total_read() as f64);
    layers.set("memsim.sim_write_bytes", total.total_write() as f64);
    layers.set(
        "memsim.l1_hit_share",
        share(stats.l1_hits, stats.loads + stats.stores),
    );
    layers.set(
        "memsim.prefetch_fill_share",
        share(
            stats.prefetch_fills,
            stats.prefetch_fills + stats.demand_misses,
        ),
    );
    layers.set(
        "memsim.bypass_write_share",
        share(
            stats.bypass_writes,
            stats.bypass_writes + stats.rmw_partials + stats.writebacks,
        ),
    );
    if side == Side::Loads {
        let mut m = last_machine.expect("at least one kernel ran");
        driver_overheads(&mut m, ctx, checks, rec, &mut layers);
    }
    layers
}

/// The fixed costs around a kernel: entering the simulator, reading the
/// counters, flushing, and the PAPI-measured factored GEMM the figure
/// sweeps are made of.
fn driver_overheads(
    m: &mut SimMachine,
    ctx: &Ctx,
    checks: &mut Checks,
    rec: &mut Recorder,
    layers: &mut Layers,
) {
    let open = rec.begin("memsim.driver_overheads", 0);
    layers.set(
        "memsim.run_single_us",
        ns_per_call(20, 1000, || m.run_single(0, |_| {})) / 1e3,
    );
    layers.set(
        "memsim.run_parallel21_us",
        ns_per_call(20, 10, || m.run_parallel(0, 21, |_, _| {})) / 1e3,
    );
    let shared = m.socket_shared(0);
    layers.set(
        "memsim.snapshot_ns",
        ns_per_call(20, 10_000, || {
            std::hint::black_box(shared.counters().snapshot());
        }),
    );
    // Flush caches a kernel has just filled (the strided probe's lines).
    let ((), flush_s) = rec.timed("memsim.flush_socket", 0, || m.flush_socket(0));
    layers.set("memsim.flush_socket_us", flush_s * 1e6);
    rec.end(open);

    let mut machine = SimMachine::quiet(p9_arch::Machine::summit(), ctx.stream_seed(0x6E0DE));
    let node = papi_sim::papi::setup_node(&machine, Vec::new());
    let events = NestEvents::pcp(&machine);
    let cfg = MeasureConfig {
        reps: 3,
        threads: 21,
        factored: true,
    };
    let (sample, s) = rec.timed("kernels.measure_traffic", 0, || {
        blas_kernels::measure_traffic(
            &mut machine,
            &node.papi,
            &events,
            |m, _| GemmTrace::allocate(m, 192),
            |k, _, core| k.run(core),
            &cfg,
        )
    });
    if let Some(sample) = checks.result("measure_traffic", sample) {
        checks.check(sample.read_bytes > 0.0, || {
            "measure_traffic read nothing".into()
        });
    }
    layers.set("kernels.measure_traffic_gemm_s", s);
}
