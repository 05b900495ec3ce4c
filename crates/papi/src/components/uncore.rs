//! The `perf_uncore` component: direct, privileged nest-counter access.
//!
//! This is the Tellico path. On the testbed the study had elevated
//! privileges, so PAPI could program the nest IMC directly through
//! `perf_event`-style uncore PMUs — no PCP daemon in the path. The paper
//! defines the events "using the Nest IMC Memory Offsets" from the POWER9
//! PMU user's guide ([`events`]), addressed as:
//!
//! ```text
//! power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0
//! power9_nest_mba3::PM_MBA3_WRITE_BYTES:cpu=0
//! ```
//!
//! Opening a counter through the privileged PMU handle ([`pmu`]) without
//! an elevated [`p9_memsim::PrivilegeToken`] fails. On a machine where the
//! calling context lacks elevation (Summit users), group creation fails
//! with `PAPI_EPERM`, and [`crate::papi::Papi`] surfaces the component as
//! *disabled* — the exact situation that motivates the PCP component.

pub mod events;
pub mod pmu;

use std::sync::Arc;

use crate::component::{Component, EventGroup, EventInfo};
use crate::error::PapiError;
use crate::event::EventName;
use events::{parse_event_string, NEST_IMC_EVENTS};
use p9_memsim::machine::SocketShared;
use p9_memsim::PrivilegeToken;
pub use pmu::{UncoreCounter, UncoreError, UncorePmu};

/// The `perf_uncore` component.
pub struct UncoreComponent {
    pmu: Arc<UncorePmu>,
    token: PrivilegeToken,
    sockets: Vec<Arc<SocketShared>>,
}

impl UncoreComponent {
    pub fn new(
        pmu: Arc<UncorePmu>,
        token: PrivilegeToken,
        sockets: Vec<Arc<SocketShared>>,
    ) -> Self {
        UncoreComponent {
            pmu,
            token,
            sockets,
        }
    }

    /// Probe whether the calling context can use this component at all.
    pub fn probe(&self) -> Result<(), PapiError> {
        self.token
            .require_elevated()
            .map_err(|e| PapiError::Permission(e.to_string()))
    }
}

impl Component for UncoreComponent {
    fn name(&self) -> &'static str {
        "perf_uncore"
    }

    fn list_events(&self) -> Vec<EventInfo> {
        NEST_IMC_EVENTS
            .iter()
            .map(|def| EventInfo {
                name: format!("{}::{}:cpu=0", def.pmu, def.event),
                units: "byte",
                description: format!(
                    "nest IMC channel {} {} bytes (IMC offset {:#x})",
                    def.channel,
                    match def.direction {
                        p9_memsim::Direction::Read => "read",
                        p9_memsim::Direction::Write => "write",
                    },
                    def.imc_offset
                ),
            })
            .collect()
    }

    fn create_group(&self, events: &[EventName]) -> Result<Box<dyn EventGroup>, PapiError> {
        let mut counters = Vec::with_capacity(events.len());
        let mut touch_sockets: Vec<usize> = Vec::new();
        for ev in events {
            let (def, cpu) = parse_event_string(ev.payload())
                .ok_or_else(|| PapiError::NoSuchEvent(ev.raw().to_owned()))?;
            let c = self.pmu.open(def, cpu, &self.token).map_err(|e| match e {
                UncoreError::Permission(p) => PapiError::Permission(p.to_string()),
                UncoreError::BadCpu(c) => PapiError::Invalid(format!("bad cpu {c} in {ev}")),
            })?;
            if let Some(s) = self.pmu.socket_of_cpu(cpu) {
                if !touch_sockets.contains(&s) {
                    touch_sockets.push(s);
                }
            }
            counters.push(c);
        }
        let touch = touch_sockets
            .into_iter()
            .map(|s| Arc::clone(&self.sockets[s]))
            .collect();
        Ok(Box::new(UncoreGroup {
            counters,
            touch,
            baseline: None,
        }))
    }
}

struct UncoreGroup {
    counters: Vec<UncoreCounter>,
    touch: Vec<Arc<SocketShared>>,
    baseline: Option<Vec<u64>>,
}

impl UncoreGroup {
    fn snapshot(&self) -> Vec<u64> {
        self.counters.iter().map(UncoreCounter::read).collect()
    }

    fn delta(&self, now: &[u64]) -> Result<Vec<i64>, PapiError> {
        let base = self.baseline.as_ref().ok_or(PapiError::NotRunning)?;
        Ok(now
            .iter()
            .zip(base)
            .map(|(&n, &b)| n.wrapping_sub(b) as i64)
            .collect())
    }
}

impl EventGroup for UncoreGroup {
    fn start(&mut self) -> Result<(), PapiError> {
        if self.baseline.is_some() {
            return Err(PapiError::IsRunning);
        }
        self.baseline = Some(self.snapshot());
        // Start-path footprint lands inside the measured window.
        for s in &self.touch {
            s.measurement_touch();
        }
        Ok(())
    }

    fn read(&mut self) -> Result<Vec<i64>, PapiError> {
        let now = self.snapshot();
        self.delta(&now)
    }

    fn reset(&mut self) -> Result<(), PapiError> {
        if self.baseline.is_none() {
            return Err(PapiError::NotRunning);
        }
        self.baseline = Some(self.snapshot());
        Ok(())
    }

    fn stop(&mut self) -> Result<Vec<i64>, PapiError> {
        // Stop-path footprint precedes the final counter read.
        for s in &self.touch {
            s.measurement_touch();
        }
        let now = self.snapshot();
        let vals = self.delta(&now)?;
        self.baseline = None;
        Ok(vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p9_arch::Machine;
    use p9_memsim::{Direction, SimMachine};

    fn component(m: &SimMachine) -> UncoreComponent {
        let sockets: Vec<_> = (0..m.num_sockets()).map(|s| m.socket_shared(s)).collect();
        let cpus = m
            .arch()
            .node
            .sockets
            .iter()
            .map(|s| (s.physical_cores * s.smt) as u32)
            .collect();
        let pmu = Arc::new(UncorePmu::new(sockets.clone(), cpus));
        UncoreComponent::new(pmu, m.privilege_token(), sockets)
    }

    #[test]
    fn tellico_measures_deltas() {
        let m = SimMachine::quiet(Machine::tellico(), 9);
        let comp = component(&m);
        assert!(comp.probe().is_ok());
        let evs = [
            EventName::parse("power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0").unwrap(),
            EventName::parse("power9_nest_mba0::PM_MBA0_WRITE_BYTES:cpu=0").unwrap(),
        ];
        let mut g = comp.create_group(&evs).unwrap();
        g.start().unwrap();
        m.socket_shared(0)
            .counters()
            .record_sector(0, Direction::Read);
        m.socket_shared(0)
            .counters()
            .record_sector(8, Direction::Write);
        assert_eq!(g.stop().unwrap(), vec![64, 64]);
    }

    #[test]
    fn summit_users_are_denied() {
        let m = SimMachine::quiet(Machine::summit(), 9);
        let comp = component(&m);
        assert!(matches!(comp.probe(), Err(PapiError::Permission(_))));
        let ev = [EventName::parse("power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0").unwrap()];
        assert!(matches!(
            comp.create_group(&ev),
            Err(PapiError::Permission(_))
        ));
    }

    #[test]
    fn listed_events_resolve() {
        let m = SimMachine::quiet(Machine::tellico(), 9);
        let comp = component(&m);
        let evs = comp.list_events();
        assert_eq!(evs.len(), 16);
        for e in evs {
            let name = EventName::parse(&e.name).unwrap();
            assert!(comp.create_group(&[name]).is_ok(), "{}", e.name);
        }
    }

    #[test]
    fn unknown_event_is_enoevnt() {
        let m = SimMachine::quiet(Machine::tellico(), 9);
        let comp = component(&m);
        let ev = [EventName::parse("power9_nest_mba9::PM_MBA9_READ_BYTES:cpu=0").unwrap()];
        assert!(matches!(
            comp.create_group(&ev),
            Err(PapiError::NoSuchEvent(_))
        ));
    }
}
