//! The `infiniband` component: HCA port counters.
//!
//! Event form (Table II): `infiniband:::mlx5_0_1_ext:port_recv_data` —
//! device `mlx5_0`, port 1, extended counters. Values are monotonic
//! counters in 32-bit words; reads return deltas since start.

use std::sync::Arc;

use crate::component::{Component, EventGroup, EventInfo};
use crate::error::PapiError;
use crate::event::EventName;
use ranksim::ib::Hca;

/// Which port counter an event reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PortCounter {
    RecvData,
    XmitData,
}

/// The `infiniband` component.
pub struct IbComponent {
    hcas: Vec<Arc<Hca>>,
}

impl IbComponent {
    pub fn new(hcas: Vec<Arc<Hca>>) -> Self {
        IbComponent { hcas }
    }

    fn resolve(&self, ev: &EventName) -> Result<(Arc<Hca>, PortCounter), PapiError> {
        // payload = "<device>_<port>_ext:<counter>"
        let (dev_port, counter) = ev
            .payload()
            .split_once(':')
            .ok_or_else(|| PapiError::Invalid(format!("malformed infiniband event {ev}")))?;
        let dev = dev_port.strip_suffix("_1_ext").ok_or_else(|| {
            PapiError::NoSuchEvent(format!("{ev}: only port 1 ext counters exist"))
        })?;
        let hca = self
            .hcas
            .iter()
            .find(|h| h.name == dev)
            .ok_or_else(|| PapiError::NoSuchEvent(format!("{ev}: no HCA named {dev}")))?;
        let c = match counter {
            "port_recv_data" => PortCounter::RecvData,
            "port_xmit_data" => PortCounter::XmitData,
            other => {
                return Err(PapiError::NoSuchEvent(format!(
                    "{ev}: unknown counter {other}"
                )))
            }
        };
        Ok((Arc::clone(hca), c))
    }
}

impl Component for IbComponent {
    fn name(&self) -> &'static str {
        "infiniband"
    }

    fn list_events(&self) -> Vec<EventInfo> {
        let mut out = Vec::new();
        for h in &self.hcas {
            for counter in ["port_recv_data", "port_xmit_data"] {
                out.push(EventInfo {
                    name: format!("infiniband:::{}_1_ext:{counter}", h.name),
                    units: "32-bit words",
                    description: format!("{counter} on {} port 1", h.name),
                });
            }
        }
        out
    }

    fn create_group(&self, events: &[EventName]) -> Result<Box<dyn EventGroup>, PapiError> {
        let targets = events
            .iter()
            .map(|e| self.resolve(e))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(IbGroup {
            targets,
            baseline: None,
        }))
    }
}

struct IbGroup {
    targets: Vec<(Arc<Hca>, PortCounter)>,
    baseline: Option<Vec<u64>>,
}

impl IbGroup {
    fn snapshot(&self) -> Vec<u64> {
        self.targets
            .iter()
            .map(|(h, c)| match c {
                PortCounter::RecvData => h.port.recv_data(),
                PortCounter::XmitData => h.port.xmit_data(),
            })
            .collect()
    }
}

impl EventGroup for IbGroup {
    fn start(&mut self) -> Result<(), PapiError> {
        if self.baseline.is_some() {
            return Err(PapiError::IsRunning);
        }
        self.baseline = Some(self.snapshot());
        Ok(())
    }

    fn read(&mut self) -> Result<Vec<i64>, PapiError> {
        let base = self.baseline.as_ref().ok_or(PapiError::NotRunning)?;
        Ok(self
            .snapshot()
            .iter()
            .zip(base)
            .map(|(&n, &b)| n.wrapping_sub(b) as i64)
            .collect())
    }

    fn reset(&mut self) -> Result<(), PapiError> {
        if self.baseline.is_none() {
            return Err(PapiError::NotRunning);
        }
        self.baseline = Some(self.snapshot());
        Ok(())
    }

    fn stop(&mut self) -> Result<Vec<i64>, PapiError> {
        let vals = self.read()?;
        self.baseline = None;
        Ok(vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksim::ib::Fabric;

    fn setup() -> (Fabric, IbComponent) {
        let f = Fabric::new(2, 2);
        let hcas = f.node(0).hcas.clone();
        (f, IbComponent::new(hcas))
    }

    #[test]
    fn recv_counter_measures_deltas_in_words() {
        let (f, comp) = setup();
        let ev = [EventName::parse("infiniband:::mlx5_0_1_ext:port_recv_data").unwrap()];
        let mut g = comp.create_group(&ev).unwrap();
        g.start().unwrap();
        f.alltoall(1, 8000); // striped over 2 rails: 4000 B = 1000 words each
        assert_eq!(g.read().unwrap(), vec![1000]);
        assert_eq!(g.stop().unwrap(), vec![1000]);
    }

    #[test]
    fn both_rails_and_directions() {
        let (f, comp) = setup();
        let evs = [
            EventName::parse("infiniband:::mlx5_0_1_ext:port_recv_data").unwrap(),
            EventName::parse("infiniband:::mlx5_1_1_ext:port_recv_data").unwrap(),
            EventName::parse("infiniband:::mlx5_0_1_ext:port_xmit_data").unwrap(),
        ];
        let mut g = comp.create_group(&evs).unwrap();
        g.start().unwrap();
        // 8000 B each way per rail = 2000 words, then 1000 more words
        // sent on rail 0 alone.
        f.alltoall(1, 16000);
        f.node(0).hcas[0].port.record_xmit(4000);
        assert_eq!(g.read().unwrap(), vec![2000, 2000, 3000]);
    }

    #[test]
    fn unknown_devices_and_counters_rejected() {
        let (_f, comp) = setup();
        for bad in [
            "infiniband:::mlx5_7_1_ext:port_recv_data",
            "infiniband:::mlx5_0_2_ext:port_recv_data",
            "infiniband:::mlx5_0_1_ext:port_teleport_data",
        ] {
            let ev = EventName::parse(bad).unwrap();
            assert!(comp.create_group(&[ev]).is_err(), "{bad}");
        }
    }

    #[test]
    fn listed_events_resolve() {
        let (_f, comp) = setup();
        let evs = comp.list_events();
        assert_eq!(evs.len(), 4);
        for e in evs {
            let ev = EventName::parse(&e.name).unwrap();
            assert!(comp.create_group(&[ev]).is_ok());
        }
    }
}
