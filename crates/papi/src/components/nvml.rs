//! The `nvml` component: GPU power telemetry.
//!
//! Event form (Table II): `nvml:::Tesla_V100-SXM2-16GB:device_0:power`.
//! Power is a *gauge*: reads return the instantaneous device power in
//! milliwatts, exactly like `nvmlDeviceGetPowerUsage` — not a delta.

use std::sync::Arc;

use crate::component::{Component, EventGroup, EventInfo};
use crate::error::PapiError;
use crate::event::EventName;
use ranksim::nvml::GpuDevice;

/// The `nvml` component.
pub struct NvmlComponent {
    devices: Vec<Arc<GpuDevice>>,
}

impl NvmlComponent {
    pub fn new(devices: Vec<Arc<GpuDevice>>) -> Self {
        NvmlComponent { devices }
    }

    fn resolve(&self, ev: &EventName) -> Result<Arc<GpuDevice>, PapiError> {
        // payload = "<device name>:device_<i>:power"
        let parts = ev.payload_parts();
        if parts.len() != 3 || parts[2] != "power" {
            return Err(PapiError::NoSuchEvent(ev.raw().to_owned()));
        }
        let idx: usize = parts[1]
            .strip_prefix("device_")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| PapiError::Invalid(format!("bad device qualifier in {ev}")))?;
        let dev = self
            .devices
            .get(idx)
            .ok_or_else(|| PapiError::NoSuchEvent(format!("{ev}: no device_{idx}")))?;
        if dev.params().name != parts[0] {
            return Err(PapiError::NoSuchEvent(format!(
                "{ev}: device_{idx} is a {}",
                dev.params().name
            )));
        }
        Ok(Arc::clone(dev))
    }
}

impl Component for NvmlComponent {
    fn name(&self) -> &'static str {
        "nvml"
    }

    fn list_events(&self) -> Vec<EventInfo> {
        self.devices
            .iter()
            .map(|d| EventInfo {
                name: format!("nvml:::{}:device_{}:power", d.params().name, d.index()),
                units: "mW",
                description: format!("instantaneous power of GPU {}", d.index()),
            })
            .collect()
    }

    fn create_group(&self, events: &[EventName]) -> Result<Box<dyn EventGroup>, PapiError> {
        let devices = events
            .iter()
            .map(|e| self.resolve(e))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(NvmlGroup {
            devices,
            running: false,
        }))
    }
}

struct NvmlGroup {
    devices: Vec<Arc<GpuDevice>>,
    running: bool,
}

impl NvmlGroup {
    fn gauge(&self) -> Vec<i64> {
        self.devices.iter().map(|d| d.power_mw() as i64).collect()
    }
}

impl EventGroup for NvmlGroup {
    fn start(&mut self) -> Result<(), PapiError> {
        if self.running {
            return Err(PapiError::IsRunning);
        }
        self.running = true;
        Ok(())
    }

    fn read(&mut self) -> Result<Vec<i64>, PapiError> {
        if !self.running {
            return Err(PapiError::NotRunning);
        }
        Ok(self.gauge())
    }

    fn reset(&mut self) -> Result<(), PapiError> {
        if !self.running {
            return Err(PapiError::NotRunning);
        }
        Ok(())
    }

    fn stop(&mut self) -> Result<Vec<i64>, PapiError> {
        if !self.running {
            return Err(PapiError::NotRunning);
        }
        self.running = false;
        Ok(self.gauge())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p9_arch::Machine;
    use p9_memsim::SimMachine;
    use ranksim::nvml::{GpuOp, GpuParams};

    fn setup() -> (SimMachine, Arc<GpuDevice>, NvmlComponent) {
        let m = SimMachine::quiet(Machine::summit(), 2);
        let g = Arc::new(GpuDevice::new(0, GpuParams::default(), m.socket_shared(0)));
        let comp = NvmlComponent::new(vec![Arc::clone(&g)]);
        (m, g, comp)
    }

    #[test]
    fn power_is_an_instantaneous_gauge() {
        let (_m, g, comp) = setup();
        let ev = [EventName::parse("nvml:::Tesla_V100-SXM2-16GB:device_0:power").unwrap()];
        let mut grp = comp.create_group(&ev).unwrap();
        grp.start().unwrap();
        assert_eq!(grp.read().unwrap(), vec![52_000]); // idle
        g.submit_sync(GpuOp::Kernel {
            flops: 7.8e9,
            mem_bytes: 0,
        });
        assert_eq!(grp.read().unwrap(), vec![285_000]); // kernel power
    }

    #[test]
    fn bad_device_names_rejected() {
        let (_m, _g, comp) = setup();
        for bad in [
            "nvml:::Tesla_V100-SXM2-16GB:device_1:power",
            "nvml:::Tesla_P100:device_0:power",
            "nvml:::Tesla_V100-SXM2-16GB:device_0:temperature",
            "nvml:::Tesla_V100-SXM2-16GB:device_x:power",
        ] {
            let ev = EventName::parse(bad).unwrap();
            assert!(comp.create_group(&[ev]).is_err(), "{bad}");
        }
    }

    #[test]
    fn listed_events_resolve() {
        let (_m, _g, comp) = setup();
        for e in comp.list_events() {
            let ev = EventName::parse(&e.name).unwrap();
            assert!(comp.create_group(&[ev]).is_ok());
        }
    }
}
