//! The library handle: component registry and wiring helpers.

use std::sync::Arc;

use crate::component::{Component, EventInfo};
use crate::components::uncore::UncorePmu;
use crate::components::{CoreComponent, IbComponent, NvmlComponent, PcpComponent, UncoreComponent};
use crate::error::PapiError;
use p9_memsim::SimMachine;
use pcp_sim::{PcpContext, Pmcd, PmcdConfig, Pmns};
use ranksim::ib::Hca;
use ranksim::nvml::{GpuDevice, GpuParams};

/// Registration state of one component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentStatus {
    pub name: String,
    pub enabled: bool,
    /// Reason when disabled (mirrors `papi_component_avail` output).
    pub reason: Option<String>,
}

/// The PAPI library instance.
pub struct Papi {
    components: Vec<Box<dyn Component>>,
    status: Vec<ComponentStatus>,
}

impl Papi {
    /// An empty library; register components explicitly.
    pub fn new() -> Self {
        Papi {
            components: Vec::new(),
            status: Vec::new(),
        }
    }

    /// Register an enabled component.
    pub fn register(&mut self, c: Box<dyn Component>) {
        self.status.push(ComponentStatus {
            name: c.name().to_owned(),
            enabled: true,
            reason: None,
        });
        self.components.push(c);
    }

    /// Record a component that exists but cannot be used in this context
    /// (e.g. `perf_uncore` without privileges on Summit).
    pub fn register_disabled(&mut self, name: &str, reason: &str) {
        self.status.push(ComponentStatus {
            name: name.to_owned(),
            enabled: false,
            reason: Some(reason.to_owned()),
        });
    }

    /// Look up an enabled component by name.
    pub fn component(&self, name: &str) -> Result<&dyn Component, PapiError> {
        if let Some(c) = self.components.iter().find(|c| c.name() == name) {
            return Ok(c.as_ref());
        }
        if let Some(s) = self.status.iter().find(|s| s.name == name) {
            return Err(PapiError::ComponentDisabled {
                component: name.to_owned(),
                reason: s.reason.clone().unwrap_or_default(),
            });
        }
        Err(PapiError::NoSuchComponent(name.to_owned()))
    }

    /// Status of every known component (like `papi_component_avail`).
    pub fn component_status(&self) -> &[ComponentStatus] {
        &self.status
    }

    /// Enumerate every native event of every enabled component.
    pub fn list_all_events(&self) -> Vec<EventInfo> {
        self.components
            .iter()
            .flat_map(|c| c.list_events())
            .collect()
    }
}

impl Default for Papi {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything a fully wired node exposes: the PAPI instance plus the
/// devices behind it.
pub struct NodeSetup {
    pub papi: Papi,
    /// GPUs attached to socket 0, in device order.
    pub gpus: Vec<Arc<GpuDevice>>,
}

/// Wire a PAPI instance for `machine`, mirroring how the paper's two
/// systems differ:
///
/// * The PCP component is always available (the PMCD is started by the
///   system with its own elevated token).
/// * The `perf_uncore` component is enabled only where the *user* holds
///   elevated privileges — Tellico yes, Summit no (registered disabled).
/// * `nvml` appears when the node has GPUs; `infiniband` when the caller
///   supplies HCAs (cluster jobs).
pub fn setup_node(machine: &SimMachine, hcas: Vec<Arc<Hca>>) -> NodeSetup {
    let arch = machine.arch();
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();

    // PCP: system-started daemon plus an unprivileged client context.
    let pmns = Pmns::for_machine(arch);
    let pmcd = Pmcd::spawn_system(pmns.clone(), sockets.clone(), PmcdConfig::default())
        .expect("spawn pmcd");
    let ctx = PcpContext::connect(pmcd, Some(machine.socket_shared(0)));

    let mut papi = Papi::new();
    papi.register(Box::new(PcpComponent::new(ctx, pmns, sockets.clone())));

    // perf_uncore: gated on the user's privilege.
    let cpus: Vec<u32> = arch
        .node
        .sockets
        .iter()
        .map(|s| (s.physical_cores * s.smt) as u32)
        .collect();
    let pmu = Arc::new(UncorePmu::new(sockets.clone(), cpus));
    let uncore = UncoreComponent::new(pmu, machine.privilege_token(), sockets.clone());
    match uncore.probe() {
        Ok(()) => papi.register(Box::new(uncore)),
        Err(e) => papi.register_disabled("perf_uncore", &e.to_string()),
    }

    // core: socket-aggregated core-PMU events (no privilege needed).
    let core_sockets = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s).core_events_arc())
        .collect();
    papi.register(Box::new(CoreComponent::new(core_sockets)));

    // nvml: one device entry per GPU on socket 0 (the instrumented rank's
    // socket; Summit has 3 per socket).
    let gpus: Vec<Arc<GpuDevice>> = (0..arch.node.gpus_per_socket)
        .map(|i| {
            Arc::new(GpuDevice::new(
                i,
                GpuParams::default(),
                machine.socket_shared(0),
            ))
        })
        .collect();
    if !gpus.is_empty() {
        papi.register(Box::new(NvmlComponent::new(gpus.clone())));
    } else {
        papi.register_disabled("nvml", "no NVIDIA devices on this node");
    }

    // infiniband: present when the job runs on a fabric.
    if !hcas.is_empty() {
        papi.register(Box::new(IbComponent::new(hcas)));
    } else {
        papi.register_disabled("infiniband", "no HCAs configured");
    }

    NodeSetup { papi, gpus }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventset::EventSet;
    use p9_arch::Machine;
    use p9_memsim::Direction;

    #[test]
    fn summit_setup_disables_uncore_enables_pcp() {
        let m = SimMachine::quiet(Machine::summit(), 21);
        let setup = setup_node(&m, Vec::new());
        let status = setup.papi.component_status();
        let by_name = |n: &str| status.iter().find(|s| s.name == n).unwrap();
        assert!(by_name("pcp").enabled);
        assert!(!by_name("perf_uncore").enabled);
        assert!(by_name("perf_uncore")
            .reason
            .as_ref()
            .unwrap()
            .contains("elevated"));
        assert!(by_name("nvml").enabled);
        assert!(!by_name("infiniband").enabled);
    }

    #[test]
    fn tellico_setup_enables_both_nest_paths() {
        let m = SimMachine::quiet(Machine::tellico(), 21);
        let setup = setup_node(&m, Vec::new());
        let status = setup.papi.component_status();
        assert!(status.iter().find(|s| s.name == "pcp").unwrap().enabled);
        assert!(
            status
                .iter()
                .find(|s| s.name == "perf_uncore")
                .unwrap()
                .enabled
        );
        assert!(!status.iter().find(|s| s.name == "nvml").unwrap().enabled);
    }

    #[test]
    fn disabled_component_yields_ecmp() {
        let m = SimMachine::quiet(Machine::summit(), 21);
        let setup = setup_node(&m, Vec::new());
        let mut es = EventSet::new();
        es.add_event("power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0")
            .unwrap();
        match es.start(&setup.papi) {
            Err(PapiError::ComponentDisabled { component, .. }) => {
                assert_eq!(component, "perf_uncore")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_component_event_set_reads_in_order() {
        let m = SimMachine::quiet(Machine::summit(), 21);
        let setup = setup_node(&m, Vec::new());
        let mut es = EventSet::new();
        es.add_event("pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value:cpu87")
            .unwrap();
        es.add_event("nvml:::Tesla_V100-SXM2-16GB:device_0:power")
            .unwrap();
        es.add_event("pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value:cpu87")
            .unwrap();
        es.start(&setup.papi).unwrap();
        m.socket_shared(0)
            .counters()
            .record_sector(0, Direction::Read);
        m.socket_shared(0)
            .counters()
            .record_sector(8, Direction::Write);
        let v = es.read().unwrap();
        assert_eq!(v[0], 64); // pcp read bytes
        assert_eq!(v[1], 52_000); // idle GPU power in mW
        assert_eq!(v[2], 64); // pcp write bytes
        let v = es.stop().unwrap();
        assert_eq!(v[0], 64);
        assert!(!es.is_running());
    }

    #[test]
    fn eventset_lifecycle_errors() {
        let m = SimMachine::quiet(Machine::summit(), 21);
        let setup = setup_node(&m, Vec::new());
        let mut es = EventSet::new();
        assert!(matches!(es.start(&setup.papi), Err(PapiError::Invalid(_))));
        es.add_event("nvml:::Tesla_V100-SXM2-16GB:device_0:power")
            .unwrap();
        assert_eq!(es.read().unwrap_err(), PapiError::NotRunning);
        es.start(&setup.papi).unwrap();
        assert_eq!(es.start(&setup.papi).unwrap_err(), PapiError::IsRunning);
        assert_eq!(
            es.add_event("nvml:::Tesla_V100-SXM2-16GB:device_1:power")
                .unwrap_err(),
            PapiError::IsRunning
        );
        es.stop().unwrap();
    }

    #[test]
    fn unknown_component_reported() {
        let papi = Papi::new();
        assert!(matches!(
            papi.component("quantum"),
            Err(PapiError::NoSuchComponent(_))
        ));
    }

    #[test]
    fn event_listing_spans_components() {
        let m = SimMachine::quiet(Machine::summit(), 21);
        let setup = setup_node(&m, Vec::new());
        let all = setup.papi.list_all_events();
        // 32 pcp events + 10 core events (5 x 2 sockets) + 3 GPUs.
        assert_eq!(all.len(), 45);
    }
}
