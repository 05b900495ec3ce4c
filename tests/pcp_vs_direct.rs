//! The paper's headline claim: measurements taken via PCP are as accurate
//! as those taken directly from the hardware counters.
//!
//! On Tellico both paths are live simultaneously; we measure one kernel
//! through *both* at once and through each in isolation on identical
//! machines, and require agreement.

use papi_repro::kernels::GemmTrace;
use papi_repro::memsim::SimMachine;
use papi_repro::papi::papi::setup_node;
use papi_repro::papi::EventSet;

fn pcp_events() -> Vec<String> {
    // Tellico sockets expose 64 CPUs; the nest qualifier is cpu63.
    (0..8)
        .flat_map(|ch| {
            [
                format!(
                    "pcp:::perfevent.hwcounters.nest_mba{ch}_imc.PM_MBA{ch}_READ_BYTES.value:cpu63"
                ),
                format!(
                    "pcp:::perfevent.hwcounters.nest_mba{ch}_imc.PM_MBA{ch}_WRITE_BYTES.value:cpu63"
                ),
            ]
        })
        .collect()
}

fn uncore_events() -> Vec<String> {
    (0..8)
        .flat_map(|ch| {
            [
                format!("power9_nest_mba{ch}::PM_MBA{ch}_READ_BYTES:cpu=0"),
                format!("power9_nest_mba{ch}::PM_MBA{ch}_WRITE_BYTES:cpu=0"),
            ]
        })
        .collect()
}

/// Both paths read the same counters at the same instants: the deltas must
/// be *identical*, not merely close.
#[test]
fn simultaneous_pcp_and_direct_reads_agree_exactly() {
    let mut machine = SimMachine::quiet(papi_repro::arch::Machine::tellico(), 17);
    let setup = setup_node(&machine, Vec::new());

    let mut es_pcp = EventSet::new();
    for e in pcp_events() {
        es_pcp.add_event(&e).unwrap();
    }
    let mut es_direct = EventSet::new();
    for e in uncore_events() {
        es_direct.add_event(&e).unwrap();
    }

    let gemm = GemmTrace::allocate(&mut machine, 192);
    es_pcp.start(&setup.papi).unwrap();
    es_direct.start(&setup.papi).unwrap();
    machine.run_single(0, |core| gemm.run(core));
    // Read while still running (no stop-side overhead yet): both views of
    // the same instant must agree exactly.
    let direct = es_direct.read().unwrap();
    let pcp = es_pcp.read().unwrap();
    let d_total: i64 = direct.iter().sum();
    let p_total: i64 = pcp.iter().sum();
    assert_eq!(d_total, p_total, "pcp {pcp:?} vs direct {direct:?}");
    es_pcp.stop().unwrap();
    es_direct.stop().unwrap();
}

/// With realistic noise, the two paths measured on *identical but
/// independent* machines produce statistically equivalent results: same
/// expectation, same order of residual error (the noise is in the machine,
/// not the measurement path).
#[test]
fn isolated_paths_have_equivalent_accuracy() {
    let n = 512u64;
    let expect = papi_repro::kernels::gemm_expected(n).read_bytes;

    let measure = |use_pcp: bool| -> f64 {
        let mut machine = SimMachine::new(
            papi_repro::arch::Machine::tellico(),
            papi_repro::memsim::NoiseConfig::tellico(),
            23,
        );
        let setup = setup_node(&machine, Vec::new());
        let mut es = EventSet::new();
        let events = if use_pcp {
            pcp_events()
        } else {
            uncore_events()
        };
        for e in events {
            es.add_event(&e).unwrap();
        }
        // Warm-up + measured repetition, as the harness does.
        let warm = GemmTrace::allocate(&mut machine, n);
        machine.run_single(0, |core| warm.run(core));
        let t = GemmTrace::allocate(&mut machine, n);
        es.start(&setup.papi).unwrap();
        machine.run_single(0, |core| t.run(core));
        let vals = es.stop().unwrap();
        vals.iter().step_by(2).sum::<i64>() as f64
    };

    let via_pcp = measure(true);
    let via_direct = measure(false);
    let err_pcp = (via_pcp - expect).abs() / expect;
    let err_direct = (via_direct - expect).abs() / expect;
    // Neither path is an outlier relative to the other.
    assert!(
        (err_pcp - err_direct).abs() < 0.15,
        "pcp err {err_pcp:.3} vs direct err {err_direct:.3}"
    );
}

/// Transport equivalence: the same kernel measured through the in-process
/// `PcpContext` and through a `WireClient` talking TCP to a loopback
/// `PmcdServer` must report *identical* byte counts — the wire protocol
/// adds a real network hop but zero measurement error.
#[test]
fn wire_and_inprocess_transports_report_identical_byte_counts() {
    use papi_repro::papi::component::Component;
    use papi_repro::papi::components::PcpComponent;
    use papi_repro::papi::EventName;
    use papi_repro::pcp::{PcpContext, PmApi, Pmcd, PmcdConfig, Pmns};
    use papi_repro::wire::{PmcdServer, WireClient, WireConfig};

    let mut machine = SimMachine::quiet(papi_repro::arch::Machine::tellico(), 29);
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();

    // Both transports front the very same counters.
    let daemon = Pmcd::spawn_system(
        pmns.clone(),
        sockets.clone(),
        PmcdConfig {
            fetch_latency_s: 0.0,
            fetch_touch: false,
        },
    )
    .expect("spawn pmcd");
    let server = PmcdServer::bind_system(
        "127.0.0.1:0",
        pmns.clone(),
        sockets.clone(),
        WireConfig::default(),
    )
    .expect("bind pmcd server");

    let inproc = PcpComponent::with_client(
        PcpContext::connect(daemon.handle(), None),
        pmns.clone(),
        sockets.clone(),
    );
    let wire = PcpComponent::with_client(
        WireClient::connect(server.local_addr()).unwrap(),
        pmns.clone(),
        sockets.clone(),
    );

    let events: Vec<EventName> = pcp_events()
        .iter()
        .map(|e| EventName::parse(e).unwrap())
        .collect();
    let mut g_in = inproc.create_group(&events).unwrap();
    let mut g_wire = wire.create_group(&events).unwrap();

    g_in.start().unwrap();
    g_wire.start().unwrap();
    let gemm = GemmTrace::allocate(&mut machine, 160);
    machine.run_single(0, |core| gemm.run(core));
    let v_in = g_in.read().unwrap();
    let v_wire = g_wire.read().unwrap();
    assert_eq!(v_in, v_wire, "transports disagree");
    assert!(v_in.iter().sum::<i64>() > 0, "kernel produced no traffic");
    assert_eq!(g_in.stop().unwrap(), g_wire.stop().unwrap());

    // Raw PMAPI parity too: name resolution, descriptors, listings and
    // batched fetches agree metric-for-metric.
    let ctx = PcpContext::connect(daemon.handle(), None);
    let client = WireClient::connect(server.local_addr()).unwrap();
    let names = ctx.pm_get_children("perfevent").unwrap();
    assert_eq!(names, client.pm_get_children("perfevent").unwrap());
    let reqs: Vec<_> = names
        .iter()
        .map(|n| {
            let a = ctx.pm_lookup_name(n).unwrap();
            let b = client.pm_lookup_name(n).unwrap();
            assert_eq!(a, b, "{n}");
            assert_eq!(ctx.pm_get_desc(a).unwrap(), client.pm_get_desc(b).unwrap());
            (a, pmns.instance_of_socket(0))
        })
        .collect();
    assert_eq!(reqs.len(), 16, "the full nest event group");
    assert_eq!(
        ctx.pm_fetch(&reqs).unwrap(),
        client.pm_fetch(&reqs).unwrap()
    );

    // The daemon's own subtree too: both transports front one
    // `FetchCore` definition, so every `pmcd.*` name (self-metrics and
    // the registry export) has the same id and descriptor on both. The
    // registry is append-only and other tests in this process may grow
    // it, so the listings are compared on the fixed self-metric part
    // and every name of the first listing is then checked on both.
    let own = |names: Vec<String>| -> Vec<String> {
        names
            .into_iter()
            .filter(|n| !n.starts_with("pmcd.obs."))
            .collect()
    };
    let listed = ctx.pm_get_children("pmcd").unwrap();
    assert_eq!(
        own(listed.clone()),
        own(client.pm_get_children("pmcd").unwrap())
    );
    assert_eq!(own(listed.clone()).len(), 15);
    for name in &listed {
        let a = ctx.pm_lookup_name(name).unwrap();
        assert_eq!(a, client.pm_lookup_name(name).unwrap(), "{name}");
        assert_eq!(
            ctx.pm_get_desc(a).unwrap(),
            client.pm_get_desc(a).unwrap(),
            "{name}"
        );
    }
}

/// The PCP indirection has a *time* cost (daemon round-trips) even though
/// it has no accuracy cost.
#[test]
fn pcp_reads_cost_wall_time() {
    let machine = SimMachine::quiet(papi_repro::arch::Machine::tellico(), 5);
    let setup = setup_node(&machine, Vec::new());
    let shared = machine.socket_shared(0);

    let mut es = EventSet::new();
    for e in pcp_events() {
        es.add_event(&e).unwrap();
    }
    es.start(&setup.papi).unwrap();
    let t0 = shared.now_seconds();
    for _ in 0..10 {
        es.read().unwrap();
    }
    let dt_pcp = shared.now_seconds() - t0;
    es.stop().unwrap();

    let mut es = EventSet::new();
    for e in uncore_events() {
        es.add_event(&e).unwrap();
    }
    es.start(&setup.papi).unwrap();
    let t0 = shared.now_seconds();
    for _ in 0..10 {
        es.read().unwrap();
    }
    let dt_direct = shared.now_seconds() - t0;
    es.stop().unwrap();

    assert!(
        dt_pcp > dt_direct + 10.0 * 50e-6,
        "pcp {dt_pcp}s vs direct {dt_direct}s"
    );
}
