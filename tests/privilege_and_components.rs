//! Access-control behaviour across the stack, and multi-component
//! EventSets over a running application.

use std::sync::Arc;

use papi_repro::memsim::{PrivilegeToken, SimMachine};
use papi_repro::papi::papi::setup_node;
use papi_repro::papi::{EventSet, PapiError};
use papi_repro::pcp::{Pmcd, PmcdConfig, Pmns};
use papi_repro::ranks::nvml::{GpuDevice, GpuParams};

/// The whole reason PCP exists: a Summit user cannot take the direct
/// path, but measures the very same counters through the daemon.
#[test]
fn summit_user_must_go_through_pcp() {
    let machine = SimMachine::quiet(papi_repro::arch::Machine::summit(), 61);
    let setup = setup_node(&machine, Vec::new());

    // Direct path: denied at event-set start.
    let mut direct = EventSet::new();
    direct
        .add_event("power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0")
        .unwrap();
    assert!(matches!(
        direct.start(&setup.papi),
        Err(PapiError::ComponentDisabled { .. })
    ));

    // PCP path: works without any privilege.
    let mut via_pcp = EventSet::new();
    via_pcp
        .add_event("pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value:cpu87")
        .unwrap();
    via_pcp.start(&setup.papi).unwrap();
    machine
        .socket_shared(0)
        .counters()
        .record_sector(0, papi_repro::memsim::Direction::Read);
    assert_eq!(via_pcp.stop().unwrap(), vec![64]);
}

/// A user cannot start their own privileged daemon…
#[test]
fn users_cannot_start_their_own_pmcd() {
    let machine = SimMachine::quiet(papi_repro::arch::Machine::summit(), 62);
    let pmns = Pmns::for_machine(machine.arch());
    let err = Pmcd::spawn(
        pmns,
        vec![machine.socket_shared(0)],
        &machine.privilege_token(), // a Summit user token
        PmcdConfig::default(),
    );
    assert!(err.is_err());
    // …while the user token on Tellico IS elevated and could.
    let tellico = SimMachine::quiet(papi_repro::arch::Machine::tellico(), 62);
    assert!(tellico.privilege_token().require_elevated().is_ok());
    let _ = PrivilegeToken::user();
}

/// One EventSet spanning three components, sampled while a GPU FFT
/// pipeline runs: every signal class must move.
#[test]
fn multi_component_eventset_observes_a_running_application() {
    use papi_repro::fft3d::gpu::GpuFft3dRank;
    use papi_repro::papi::components::{IbComponent, NvmlComponent, PcpComponent};
    use papi_repro::pcp::PcpContext;
    use papi_repro::ranks::{ClusterSim, ProcessGrid};

    let machine = SimMachine::quiet(papi_repro::arch::Machine::summit(), 63);
    let gpu = Arc::new(GpuDevice::new(
        0,
        GpuParams::default(),
        machine.socket_shared(0),
    ));
    let mut cluster = ClusterSim::new(machine, ProcessGrid::new(2, 4), 2);
    let rank = GpuFft3dRank::new(&mut cluster, Arc::clone(&gpu), 112, 2);

    let pmns = Pmns::for_machine(cluster.machine().arch());
    let sockets: Vec<_> = (0..cluster.machine().num_sockets())
        .map(|s| cluster.machine().socket_shared(s))
        .collect();
    let pmcd = Pmcd::spawn_system(pmns.clone(), sockets.clone(), PmcdConfig::default())
        .expect("spawn pmcd");
    let ctx = PcpContext::connect(pmcd.handle(), Some(cluster.machine().socket_shared(0)));
    let mut papi = papi_repro::papi::Papi::new();
    papi.register(Box::new(PcpComponent::new(ctx, pmns, sockets)));
    papi.register(Box::new(NvmlComponent::new(vec![Arc::clone(&gpu)])));
    papi.register(Box::new(IbComponent::new(
        cluster.fabric().node(0).hcas.clone(),
    )));

    // The instantaneous gauge goes first: the PCP fetch is a daemon
    // round-trip whose latency would advance the clock past short GPU
    // kernel segments before the gauge was sampled.
    let mut es = EventSet::new();
    es.add_event("nvml:::Tesla_V100-SXM2-16GB:device_0:power")
        .unwrap();
    es.add_event("pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value:cpu87")
        .unwrap();
    es.add_event("infiniband:::mlx5_0_1_ext:port_recv_data")
        .unwrap();
    es.start(&papi).unwrap();

    let mut saw_power_spike = false;
    rank.run(&mut cluster, |_, _| {
        let v = es.read().unwrap();
        if v[0] > 200_000 {
            saw_power_spike = true;
        }
    });
    let finals = es.stop().unwrap();
    assert!(finals[1] > 0, "memory traffic observed: {finals:?}");
    assert!(saw_power_spike, "GPU kernel power spike observed");
    assert!(finals[2] > 0, "network traffic observed: {finals:?}");
}

/// Mixed-component reads preserve per-event ordering.
#[test]
fn mixed_eventset_value_ordering() {
    let machine = SimMachine::quiet(papi_repro::arch::Machine::summit(), 64);
    let setup = setup_node(&machine, Vec::new());
    let mut es = EventSet::new();
    es.add_event("nvml:::Tesla_V100-SXM2-16GB:device_0:power")
        .unwrap();
    es.add_event("pcp:::perfevent.hwcounters.nest_mba3_imc.PM_MBA3_WRITE_BYTES.value:cpu87")
        .unwrap();
    es.add_event("nvml:::Tesla_V100-SXM2-16GB:device_1:power")
        .unwrap();
    es.start(&setup.papi).unwrap();
    machine
        .socket_shared(0)
        .counters()
        .record_sector(3, papi_repro::memsim::Direction::Write);
    let v = es.read().unwrap();
    assert_eq!(v[0], 52_000); // idle power, device 0
    assert_eq!(v[1], 64); // channel-3 write bytes
    assert_eq!(v[2], 52_000); // idle power, device 1
    es.stop().unwrap();
}
