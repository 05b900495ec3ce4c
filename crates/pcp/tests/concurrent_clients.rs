//! The PMCD serves many unprivileged clients concurrently — on a real
//! system every monitoring tool on the node talks to the same daemon.
//!
//! Two daemons are exercised: the in-process daemon (`Pmcd`) and
//! the networked TCP server (`pcp_wire::PmcdServer`), including hostile
//! clients — malformed frames and mid-fetch disconnects must cost the
//! offender its connection and nobody else anything.

use p9_memsim::{Direction, SimMachine};
use pcp_sim::{InstanceId, PcpContext, PmApi, Pmcd, PmcdConfig, Pmns};
use pcp_wire::{PmcdServer, WireClient, WireConfig};

#[test]
fn many_clients_fetch_concurrently_and_consistently() {
    let machine = SimMachine::quiet(p9_arch::Machine::summit(), 73);
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let daemon =
        Pmcd::spawn_system(pmns.clone(), sockets, PmcdConfig::default()).expect("spawn pmcd");

    // Fixed traffic before any client connects.
    for s in 0..80u64 {
        machine
            .socket_shared(0)
            .counters()
            .record_sector(s, Direction::Read);
    }

    let id = pmns
        .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
        .unwrap();
    let handle = daemon.handle();
    let results: Vec<u64> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..8)
            .map(|_| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let ctx = PcpContext::connect(handle, None);
                    let mut last = 0;
                    for _ in 0..50 {
                        let v = ctx.pm_fetch(&[(id, InstanceId(87))]).unwrap()[0];
                        assert!(v >= last, "counter went backwards");
                        last = v;
                    }
                    last
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    // Channel 0 saw 10 of the 80 sectors: 640 bytes, same for everyone.
    assert!(results.iter().all(|&v| v == 640), "{results:?}");
}

#[test]
fn clients_can_outlive_each_other() {
    let machine = SimMachine::quiet(p9_arch::Machine::summit(), 74);
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let daemon =
        Pmcd::spawn_system(pmns.clone(), sockets, PmcdConfig::default()).expect("spawn pmcd");

    let c1 = PcpContext::connect(daemon.handle(), None);
    {
        let c2 = PcpContext::connect(daemon.handle(), None);
        assert!(c2.pm_get_children("perfevent").unwrap().len() == 16);
        drop(c2);
    }
    // First client still works after the second disconnected.
    let id = c1
        .pm_lookup_name("perfevent.hwcounters.nest_mba7_imc.PM_MBA7_WRITE_BYTES.value")
        .unwrap();
    assert_eq!(c1.pm_fetch(&[(id, InstanceId(87))]).unwrap(), vec![0]);

    // ...and after the daemon handle it connected through is dropped:
    // a client keeps the daemon alive.
    drop(daemon);
    let id = c1
        .pm_lookup_name("perfevent.hwcounters.nest_mba6_imc.PM_MBA6_WRITE_BYTES.value")
        .unwrap();
    machine
        .socket_shared(0)
        .counters()
        .record_sector(6, Direction::Write);
    assert_eq!(c1.pm_fetch(&[(id, InstanceId(87))]).unwrap(), vec![64]);
}

/// 16 concurrent TCP clients hammer the wire server while one client
/// sends a deliberately malformed PDU and another disconnects mid-fetch.
/// The server must stay up, the honest clients must see consistent
/// values, and a fresh client must still be served afterwards.
#[test]
fn wire_server_survives_hostile_clients_among_sixteen() {
    let machine = SimMachine::quiet(p9_arch::Machine::summit(), 75);
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let server = PmcdServer::bind_system(
        "127.0.0.1:0",
        pmns.clone(),
        sockets,
        WireConfig {
            workers: 20,
            ..WireConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    // Fixed traffic before any client connects: 80 sectors, 10 of which
    // land on channel 0 -> 640 bytes.
    for s in 0..80u64 {
        machine
            .socket_shared(0)
            .counters()
            .record_sector(s, Direction::Read);
    }
    let id = pmns
        .lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
        .unwrap();

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for i in 0..16 {
            joins.push(scope.spawn(move || match i {
                // Client 0: handshakes, then sends garbage (bad magic).
                0 => {
                    let c = WireClient::connect(addr).unwrap();
                    c.send_raw(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]).unwrap();
                    // The server must answer with a BadPdu error (or have
                    // already hung up) — never serve garbage silently.
                    assert!(c.pm_fetch(&[(id, InstanceId(87))]).is_err());
                }
                // Client 1: starts a fetch frame, then vanishes mid-frame.
                1 => {
                    let c = WireClient::connect(addr).unwrap();
                    // Header declaring an 84-byte Fetch payload, then only
                    // 4 payload bytes, then drop: a mid-fetch disconnect.
                    let mut partial =
                        vec![0x50, 0x43, pcp_wire::PROTOCOL_VERSION, 0x0b, 0, 0, 0, 84];
                    partial.extend_from_slice(&10u32.to_be_bytes());
                    c.send_raw(&partial).unwrap();
                    drop(c);
                }
                // Everyone else fetches honestly and checks the value.
                _ => {
                    let c = WireClient::connect(addr).unwrap();
                    for _ in 0..30 {
                        let v = c.pm_fetch(&[(id, InstanceId(87))]).unwrap();
                        assert_eq!(v, vec![640]);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    });

    // The server is still healthy: a fresh client gets served, and the
    // self-metrics recorded the carnage.
    let c = WireClient::connect(addr).unwrap();
    assert_eq!(c.pm_fetch(&[(id, InstanceId(87))]).unwrap(), vec![640]);
    let stats = server.stats();
    assert!(stats.clients_total >= 17, "{stats:?}");
    assert!(stats.pdu_error >= 1, "malformed pdu not counted: {stats:?}");
    assert_eq!(stats.clients_rejected, 0, "{stats:?}");
}

/// The wire server's own operational metrics are fetchable through the
/// same PMNS path as the hardware metrics.
#[test]
fn wire_server_self_metrics_fetchable() {
    let machine = SimMachine::quiet(p9_arch::Machine::summit(), 76);
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let server =
        PmcdServer::bind_system("127.0.0.1:0", pmns.clone(), sockets, WireConfig::default())
            .expect("bind server");
    let c = WireClient::connect(server.local_addr()).unwrap();

    // Generate some fetch traffic first.
    let id = pmns
        .lookup("perfevent.hwcounters.nest_mba3_imc.PM_MBA3_READ_BYTES.value")
        .unwrap();
    for _ in 0..5 {
        c.pm_fetch(&[(id, InstanceId(87))]).unwrap();
    }

    let pdu_in = c.pm_lookup_name("pmcd.pdu.in").unwrap();
    let fetches = c.pm_lookup_name("pmcd.fetch.count").unwrap();
    let lt_1ms = c
        .pm_lookup_name("pmcd.fetch.latency_ns.lt_1048576")
        .unwrap();
    let queue_depth = c.pm_lookup_name("pmcd.queue.depth").unwrap();
    let desc = c.pm_get_desc(pdu_in).unwrap();
    assert_eq!(desc.name, "pmcd.pdu.in");
    assert_eq!(desc.units, "count");

    let vals = c
        .pm_fetch(&[
            (pdu_in, InstanceId(0)),
            (fetches, InstanceId(0)),
            (lt_1ms, InstanceId(0)),
            (queue_depth, InstanceId(0)),
        ])
        .unwrap();
    assert!(vals[0] >= 6, "pdu.in {vals:?}"); // creds + lookups + fetches
    assert_eq!(vals[1], 5, "fetch.count {vals:?}");
    assert!(
        vals[2] <= vals[1],
        "histogram bucket exceeds total {vals:?}"
    );
    // One client, served synchronously: nothing is waiting right now.
    assert_eq!(vals[3], 0, "queue.depth {vals:?}");

    // The pmcd subtree appears in children listings alongside perfevent.
    let names = c.pm_get_children("pmcd").unwrap();
    assert!(names.contains(&"pmcd.pdu.in".to_string()));
    assert!(names.contains(&"pmcd.fetch.latency_ns.lt_1048576".to_string()));
    assert!(names.contains(&"pmcd.queue.depth".to_string()));
    // 16 nest metrics + the pmcd subtree. `>=` with containment rather
    // than an exact count: pmcd.obs.* entries may be registered by other
    // tests in this process at any time (the registry is append-only).
    let all = c.pm_get_children("").unwrap();
    assert!(all.len() >= 16 + names.len(), "{} names", all.len());
    for n in &names {
        assert!(all.contains(n), "root listing missing {n}");
    }
}

/// Acceptance check: a metric registered in the global obs registry is
/// fetchable through *both* transports — the in-process client and the
/// TCP wire — with identical ids and values.
#[test]
fn obs_metrics_identical_through_both_transports() {
    obs::registry()
        .counter("transport.parity_counter")
        .add(1234);

    let machine = SimMachine::quiet(p9_arch::Machine::summit(), 99);
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();

    let daemon = Pmcd::spawn_system(pmns.clone(), sockets.clone(), PmcdConfig::default())
        .expect("spawn daemon");
    let ctx = PcpContext::connect(daemon.handle(), None);
    let server = PmcdServer::bind_system("127.0.0.1:0", pmns, sockets, WireConfig::default())
        .expect("bind server");
    let wire = WireClient::connect(server.local_addr()).unwrap();

    let name = "pmcd.obs.transport.parity_counter";
    let id_in = ctx.pm_lookup_name(name).expect("in-process lookup");
    let id_wire = wire.pm_lookup_name(name).expect("wire lookup");
    assert_eq!(id_in, id_wire, "same reserved id through both transports");

    let v_in = ctx.pm_fetch(&[(id_in, InstanceId(0))]).unwrap()[0];
    let v_wire = wire.pm_fetch(&[(id_wire, InstanceId(0))]).unwrap()[0];
    assert_eq!(v_in, 1234);
    assert_eq!(v_in, v_wire, "same value through both transports");

    let d_in = ctx.pm_get_desc(id_in).expect("in-process desc");
    let d_wire = wire.pm_get_desc(id_wire).expect("wire desc");
    assert_eq!(d_in.name, name);
    assert_eq!(d_in.name, d_wire.name);
    assert_eq!(d_in.semantics, d_wire.semantics);
}
