//! `wire_read`: the paper's measurement path. A `PmcdServer` on
//! loopback (2 workers), one persistent `WireClient` inside
//! `PcpComponent::with_client`, and the 16-event nest group (8 read + 8
//! write channels) read in a closed loop: the caller waits for every
//! reply, as a PAPI read does.
//!
//! Between batches a 1 MiB `load_seq` runs on the simulated machine and
//! the PAPI delta must equal the direct `NestCounters` delta on every
//! channel — the paper's headline, PCP == direct.

use std::sync::Arc;
use std::time::Instant;

use p9_memsim::machine::SocketShared;
use p9_memsim::{CounterSnapshot, SimMachine};
use papi_sim::components::PcpComponent;
use papi_sim::{Component, EventGroup, EventName, EventSet, Papi};
use pcp_sim::{InstanceId, MetricId, PcpContext, PmApi, Pmcd, PmcdConfig, Pmns};
use pcp_wire::pdu::{decode_frame, DEFAULT_MAX_PAYLOAD};
use pcp_wire::{Pdu, PmcdServer, WireClient, WireConfig};

use crate::harness::{ns_per_call, pin_to_one_cpu, repeated_setup, Checks, Ctx, EndToEnd, Layers};
use crate::spans::Recorder;
use crate::stats::{median, tail_or_max, Batch};

/// Twice the nominal run: this machine's interference bursts last up
/// to ~8 s (22 of 40 batches a third slower in one run of eight), and a
/// median of batches only ignores a burst that covers under half of them.
const BATCHES: u64 = 80;
/// Reads per batch of a nominal-length run.
const READS_PER_BATCH: u64 = 25_000;
const WARMUP_READS: usize = 2_000;
/// Traced run, first part: the untraced loop again, a span per read.
const TRACED_READS: u64 = 50_000;
/// Traced run, second part: rounds that time the same 16-value fetch at
/// four depths (codec, in-process, wire, PAPI), interleaved.
const TRACED_ROUNDS: u64 = 10_000;
/// Event-set lifecycles timed for `papi.add_event/start/stop`.
const LIFECYCLES: usize = 200;
const MIB: u64 = 1 << 20;

/// Everything a reader needs, built by one set-up.
struct Env {
    machine: SimMachine,
    sockets: Vec<Arc<SocketShared>>,
    pmns: Pmns,
    server: PmcdServer,
    group: Box<dyn EventGroup>,
    event_names: Vec<String>,
    /// Base of the buffer the between-batch loads walk.
    scratch: u64,
}

fn event_names(machine: &SimMachine) -> Vec<String> {
    let (reads, writes) = papi_sim::validate::pcp_nest_event_names(machine);
    reads.into_iter().chain(writes).collect()
}

fn setup(ctx: &Ctx) -> Result<Env, String> {
    let mut machine = SimMachine::quiet(p9_arch::Machine::summit(), ctx.stream_seed(1));
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let config = WireConfig {
        workers: 2,
        ..WireConfig::default()
    };
    let server = PmcdServer::bind_system("127.0.0.1:0", pmns.clone(), sockets.clone(), config)
        .map_err(|e| format!("bind pmcd server: {e}"))?;
    let client = WireClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let component = PcpComponent::with_client(client, pmns.clone(), sockets.clone());
    let event_names = event_names(&machine);
    let events = event_names
        .iter()
        .map(|n| EventName::parse(n).map_err(|e| format!("{n}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut group = component
        .create_group(&events)
        .map_err(|e| format!("create group: {e}"))?;
    group.start().map_err(|e| format!("start: {e}"))?;
    for _ in 0..WARMUP_READS {
        group.read().map_err(|e| format!("warm-up read: {e}"))?;
    }
    let scratch = machine.alloc(BATCHES * MIB).base();
    Ok(Env {
        machine,
        sockets,
        pmns,
        server,
        group,
        event_names,
        scratch,
    })
}

/// Move 1 MiB through the simulator and require that the PAPI deltas,
/// read through PCP over TCP, equal the direct counter deltas.
fn check_pcp_equals_direct(env: &mut Env, round: u64, checks: &mut Checks) {
    let counters = Arc::clone(&env.sockets[0]);
    let direct_before = counters.counters().snapshot();
    let Some(papi_before) = checks.result("read before load", env.group.read()) else {
        return;
    };
    let base = env.scratch + (round % BATCHES) * MIB;
    env.machine.run_single(0, |core| core.load_seq(base, MIB));
    let Some(papi_after) = checks.result("read after load", env.group.read()) else {
        return;
    };
    let direct: CounterSnapshot = counters.counters().snapshot().delta(&direct_before);
    let want: Vec<i64> = direct
        .read_bytes
        .iter()
        .chain(&direct.write_bytes)
        .map(|&b| b as i64)
        .collect();
    let got: Vec<i64> = papi_after
        .iter()
        .zip(&papi_before)
        .map(|(a, b)| a - b)
        .collect();
    checks.check(got == want && direct.total_read() >= MIB, || {
        format!("round {round}: PAPI-over-PCP deltas {got:?} != direct {want:?}")
    });
}

pub fn untraced(ctx: &Ctx, checks: &mut Checks) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    checks.check(pin_to_one_cpu(), || "could not pin to one CPU".into());
    let (env, setups) = repeated_setup(5, || setup(ctx));
    e2e.setups_s = setups;
    let Some(mut env) = checks.result("set-up", env) else {
        return e2e;
    };
    let reads = ctx.scaled(READS_PER_BATCH);
    let mut batches = Vec::new();
    for batch in 0..BATCHES {
        let t_batch = Instant::now();
        let mut failed = 0u64;
        for _ in 0..reads {
            let r = e2e.op(|| env.group.read());
            failed += u64::from(!matches!(r, Ok(v) if v.len() == 16));
        }
        batches.push(Batch {
            work: reads as f64,
            seconds: t_batch.elapsed().as_secs_f64(),
        });
        checks.tally(reads, failed, "reads");
        check_pcp_equals_direct(&mut env, batch, checks);
    }
    e2e.set_from_batches(&batches);
    let rejected = env.server.stats().clients_rejected;
    checks.check(rejected == 0, || {
        format!("server rejected {rejected} clients")
    });
    e2e
}

/// Time `f` under a span and return its duration in microseconds.
fn depth<T>(rec: &mut Recorder, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let (out, s) = rec.timed(name, op, f);
    (out, s * 1e6)
}

pub fn traced(ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder) -> Layers {
    let mut layers = Layers::default();
    checks.check(pin_to_one_cpu(), || "could not pin to one CPU".into());
    let Some(mut env) = checks.result("set-up", setup(ctx)) else {
        return layers;
    };
    // The inner depths, side by side with the PAPI group: a raw wire
    // client on its own connection, and an in-process daemon over the
    // same simulated sockets.
    let wire = checks.result("connect", WireClient::connect(env.server.local_addr()));
    let pmcd = checks.result(
        "spawn pmcd",
        Pmcd::spawn_system(env.pmns.clone(), env.sockets.clone(), PmcdConfig::default()),
    );
    let (Some(wire), Some(pmcd)) = (wire, pmcd) else {
        return layers;
    };
    let inproc = PcpContext::connect(pmcd.handle(), Some(Arc::clone(&env.sockets[0])));
    let cpu = env.pmns.instance_of_socket(0);
    let requests: Vec<(MetricId, InstanceId)> = env
        .pmns
        .children("")
        .iter()
        .filter_map(|n| env.pmns.lookup(n))
        .map(|id| (id, cpu))
        .collect();
    checks.check(requests.len() == 16, || {
        format!("{} nest metrics in the PMNS, expected 16", requests.len())
    });
    let fetch_pdu = Pdu::Fetch {
        trace_id: 0,
        requests: requests.iter().map(|(m, i)| (m.0, i.0)).collect(),
    };
    let result_pdu = Pdu::FetchResult {
        values: (0..16).map(|i| Some(1u64 << (2 * i + 8))).collect(),
    };
    let (fetch_frame, result_frame) = (fetch_pdu.encode(), result_pdu.encode());

    // The untraced run's own loop, so the two runs can be compared.
    let mut failed = 0u64;
    let tight: Vec<f64> = (0..ctx.scaled(TRACED_READS))
        .map(|i| {
            let (r, us) = depth(rec, "papi.read", i, || env.group.read());
            failed += u64::from(!matches!(r, Ok(v) if v.len() == 16));
            us
        })
        .collect();
    checks.tally(tight.len() as u64, failed, "traced reads");
    layers.set("papi.read_p50_us", median(&tight));
    layers.set("papi.read_p99_us", tail_or_max(&tight, 0.99));

    // Outside in, interleaved round-robin, so that every depth sees
    // the same machine state.
    let rounds = ctx.scaled(TRACED_ROUNDS);
    let mut us: [Vec<f64>; 7] = Default::default();
    let mut failed = 0u64;
    for round in 0..rounds {
        let open = rec.begin("wire_read.round", round);
        let (_, a) = depth(rec, "pcp-wire.pdu_fetch_encode", round, || {
            std::hint::black_box(fetch_pdu.encode())
        });
        let (d1, b) = depth(rec, "pcp-wire.pdu_fetch_decode", round, || {
            decode_frame(&fetch_frame, DEFAULT_MAX_PAYLOAD)
        });
        let (_, c) = depth(rec, "pcp-wire.pdu_result_encode", round, || {
            std::hint::black_box(result_pdu.encode())
        });
        let (d2, d) = depth(rec, "pcp-wire.pdu_result_decode", round, || {
            decode_frame(&result_frame, DEFAULT_MAX_PAYLOAD)
        });
        let (r1, e) = depth(rec, "pcp.fetch_inproc", round, || {
            inproc.pm_fetch(&requests)
        });
        let (r2, f) = depth(rec, "pcp-wire.fetch", round, || wire.pm_fetch(&requests));
        let (r3, g) = depth(rec, "papi.read_interleaved", round, || env.group.read());
        rec.end(open);
        for (slot, v) in us.iter_mut().zip([a, b, c, d, e, f, g]) {
            slot.push(v);
        }
        let ok = d1.as_ref() == Ok(&fetch_pdu)
            && d2.as_ref() == Ok(&result_pdu)
            && matches!(&r1, Ok(v) if v.len() == 16)
            && r1.as_ref().ok() == r2.as_ref().ok()
            && matches!(&r3, Ok(v) if v.len() == 16);
        failed += u64::from(!ok);
    }
    checks.tally(rounds, failed, "traced rounds");
    check_pcp_equals_direct(&mut env, 0, checks);

    let [enc_f, dec_f, enc_r, dec_r, inproc_us, rtt_us, read_us] = &us;
    let codec_us: f64 = [enc_f, dec_f, enc_r, dec_r].iter().map(|v| median(v)).sum();
    layers.set("pcp-wire.pdu_fetch_encode_ns", median(enc_f) * 1e3);
    layers.set("pcp-wire.pdu_fetch_decode_ns", median(dec_f) * 1e3);
    layers.set("pcp-wire.pdu_result_encode_ns", median(enc_r) * 1e3);
    layers.set("pcp-wire.pdu_result_decode_ns", median(dec_r) * 1e3);
    layers.set("pcp.fetch_inproc_p50_us", median(inproc_us));
    layers.set("pcp-wire.fetch_rtt_p50_us", median(rtt_us));
    layers.set("pcp-wire.fetch_rtt_p99_us", tail_or_max(rtt_us, 0.99));
    layers.set("pcp-wire.fetch_rtt_p999_us", tail_or_max(rtt_us, 0.999));
    // Outside in: what the wire adds beyond its codec, and what PAPI
    // adds beyond the wire fetch it makes.
    layers.set("pcp-wire.rtt_minus_codec_us", median(rtt_us) - codec_us);
    layers.set("papi.read_self_us", median(read_us) - median(rtt_us));
    layers.set(
        "pcp-wire.busy_rejects",
        env.server.stats().clients_rejected as f64,
    );

    // The server has two workers; free one for the lifecycle client.
    drop(wire);
    let name = env.pmns.children("")[0].to_owned();
    layers.set(
        "pcp.lookup_name_us",
        ns_per_call(20, 200, || {
            std::hint::black_box(inproc.pm_lookup_name(&name).ok());
        }) / 1e3,
    );
    lifecycle(&env, checks, rec, &mut layers);
    direct_read(ctx, checks, rec, &mut layers);
    layers
}

/// `PAPI_add_event` / `PAPI_start` / `PAPI_stop` of the 16-event set,
/// against a second TCP-backed component on the same server.
fn lifecycle(env: &Env, checks: &mut Checks, rec: &mut Recorder, layers: &mut Layers) {
    let Some(client) = checks.result("connect", WireClient::connect(env.server.local_addr()))
    else {
        return;
    };
    let mut papi = Papi::new();
    papi.register(Box::new(PcpComponent::with_client(
        client,
        env.pmns.clone(),
        env.sockets.clone(),
    )));
    let (mut add, mut start, mut stop) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    for i in 0..LIFECYCLES as u64 {
        let open = rec.begin("papi.lifecycle", i);
        let mut set = EventSet::new();
        let (added, us) = depth(rec, "papi.add_events", i, || {
            env.event_names.iter().all(|n| set.add_event(n).is_ok())
        });
        add.push(us / env.event_names.len() as f64);
        let (started, us) = depth(rec, "papi.start", i, || set.start(&papi));
        start.push(us);
        let (stopped, us) = depth(rec, "papi.stop", i, || set.stop());
        stop.push(us);
        rec.end(open);
        failed += u64::from(!(added && started.is_ok() && stopped.is_ok()));
    }
    checks.tally(LIFECYCLES as u64, failed, "event-set lifecycles");
    layers.set("papi.add_event_us", median(&add));
    layers.set("papi.start_us", median(&start));
    layers.set("papi.stop_us", median(&stop));
}

/// The paper's direct path: the same 16 counters through the
/// `perf_uncore` component on a machine whose user may read them (no
/// daemon, no socket).
fn direct_read(ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder, layers: &mut Layers) {
    let machine = SimMachine::quiet(p9_arch::Machine::tellico(), ctx.stream_seed(2));
    let node = papi_sim::papi::setup_node(&machine, Vec::new());
    let (reads, writes) = papi_sim::validate::uncore_nest_event_names();
    let mut set = EventSet::new();
    let added = reads
        .iter()
        .chain(&writes)
        .all(|n| set.add_event(n).is_ok());
    let started = set.start(&node.papi);
    checks.check(added && started.is_ok(), || {
        format!("direct uncore event set: added {added}, start {started:?}")
    });
    if started.is_err() {
        return;
    }
    let open = rec.begin("papi.read_direct", 0);
    let ns = ns_per_call(20, 1000, || {
        std::hint::black_box(set.read().ok());
    });
    rec.end(open);
    layers.set("papi.read_direct_us", ns / 1e3);
    checks.result("stop direct set", set.stop());
}
