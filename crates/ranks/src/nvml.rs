//! A simulated NVIDIA Tesla V100 with NVML power telemetry.
//!
//! Figure 11 of the paper correlates three signals during a GPU-accelerated
//! 3D-FFT: host memory reads (H2D copies), a GPU power spike (the batched
//! cuFFT kernels), and host memory writes (D2H copies). This module
//! provides the GPU side of that story:
//!
//! * [`GpuDevice`] — an execution model. Work is submitted as
//!   [`GpuOp`]s; each op occupies the device for a modeled duration and
//!   sets the device power for that interval. Host↔device copies also
//!   inject the corresponding host-DRAM traffic into the socket's nest
//!   counters (exactly the signal the paper observes: "host memory getting
//!   copied to the GPU — a large amount of host memory being read").
//! * [`PowerTimeline`] — piecewise-constant power history, queryable at any
//!   simulated time. The PAPI `nvml` component reads it through
//!   [`GpuDevice::power_mw`], which reports milliwatts like the real
//!   `nvmlDeviceGetPowerUsage`.
//!
//! Device parameters default to the V100-SXM2-16GB in Summit nodes
//! (NVLink2 host link, ~7.8 TF/s double precision, 300 W TDP).

use std::sync::Arc;

use std::sync::{Mutex, MutexGuard};

use p9_memsim::machine::SocketShared;
use p9_memsim::Direction;

/// Device model parameters.
#[derive(Clone, Debug)]
pub struct GpuParams {
    /// Marketing name, used in PAPI event strings.
    pub name: &'static str,
    /// Host link bandwidth (bytes/s). NVLink2: 3 bricks ≈ 47 GB/s.
    pub link_bw: f64,
    /// Sustained double-precision compute rate (FLOP/s).
    pub flops: f64,
    /// Device memory bandwidth (bytes/s), HBM2.
    pub mem_bw: f64,
    /// Idle power, watts.
    pub idle_w: f64,
    /// Power while driving the host link, watts.
    pub copy_w: f64,
    /// Power while running compute kernels, watts.
    pub kernel_w: f64,
}

impl Default for GpuParams {
    fn default() -> Self {
        GpuParams {
            name: "Tesla_V100-SXM2-16GB",
            link_bw: 47.0e9,
            flops: 7.8e12,
            mem_bw: 900.0e9,
            idle_w: 52.0,
            copy_w: 115.0,
            kernel_w: 285.0,
        }
    }
}

/// One unit of work submitted to the device.
#[derive(Clone, Copy, Debug)]
pub enum GpuOp {
    /// Host-to-device copy: reads host memory.
    H2D { bytes: u64 },
    /// Device-to-host copy: writes host memory.
    D2H { bytes: u64 },
    /// A compute kernel characterized by FLOPs and device-memory traffic.
    Kernel { flops: f64, mem_bytes: u64 },
}

/// Piecewise-constant power history.
#[derive(Debug, Default)]
pub struct PowerTimeline {
    /// (start_s, end_s, watts) segments, sorted by time.
    segments: Vec<(f64, f64, f64)>,
}

impl PowerTimeline {
    fn push(&mut self, start: f64, end: f64, watts: f64) {
        debug_assert!(end >= start);
        self.segments.push((start, end, watts));
    }

    /// Power at time `t` (watts); `idle` outside recorded segments.
    pub fn power_at(&self, t: f64, idle: f64) -> f64 {
        for &(s, e, w) in self.segments.iter().rev() {
            if t >= s && t < e {
                return w;
            }
        }
        idle
    }

    /// Energy integral over the full history (joules, excluding idle).
    pub fn active_energy(&self) -> f64 {
        self.segments.iter().map(|&(s, e, w)| (e - s) * w).sum()
    }

    /// Number of recorded segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segments are recorded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// A simulated GPU bound to a host socket.
pub struct GpuDevice {
    params: GpuParams,
    index: usize,
    host: Arc<SocketShared>,
    state: Mutex<DeviceState>,
}

#[derive(Default)]
struct DeviceState {
    timeline: PowerTimeline,
    /// Device-local clock: the device may run ahead of the host between
    /// synchronizations; ops are serialized on the device.
    busy_until: f64,
}

impl GpuDevice {
    /// Create device `index` attached to `host`.
    pub fn new(index: usize, params: GpuParams, host: Arc<SocketShared>) -> Self {
        GpuDevice {
            params,
            index,
            host,
            state: Mutex::new(DeviceState::default()),
        }
    }

    /// A holder that panicked left a whole number of segments behind, so
    /// a poisoned lock is recovered.
    fn state(&self) -> MutexGuard<'_, DeviceState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Device parameters.
    pub fn params(&self) -> &GpuParams {
        &self.params
    }

    /// Device index (for `device_0` style event qualifiers).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Submit an op and block the host until it completes (the mini-app
    /// uses synchronous `cudaMemcpy` / `cufftExec` + sync). Advances both
    /// device timeline and host clock; host copies inject nest traffic.
    pub fn submit_sync(&self, op: GpuOp) {
        let start = self.host.now_seconds().max(self.state().busy_until);
        let (duration, watts) = match op {
            GpuOp::H2D { bytes } => {
                self.host.record_dma(bytes, Direction::Read);
                (bytes as f64 / self.params.link_bw, self.params.copy_w)
            }
            GpuOp::D2H { bytes } => {
                self.host.record_dma(bytes, Direction::Write);
                (bytes as f64 / self.params.link_bw, self.params.copy_w)
            }
            GpuOp::Kernel { flops, mem_bytes } => {
                let t_compute = flops / self.params.flops;
                let t_mem = mem_bytes as f64 / self.params.mem_bw;
                (t_compute.max(t_mem), self.params.kernel_w)
            }
        };
        let end = start + duration;
        {
            let mut state = self.state();
            state.timeline.push(start, end, watts);
            state.busy_until = end;
        }
        // Synchronous call: the host waits for completion.
        let now = self.host.now_seconds();
        if end > now {
            self.host.advance_seconds(end - now);
        }
    }

    /// Instantaneous power in milliwatts at host time `t` (the NVML unit).
    pub fn power_mw_at(&self, t: f64) -> u64 {
        (self.state().timeline.power_at(t, self.params.idle_w) * 1000.0) as u64
    }

    /// Instantaneous power now, in milliwatts (`nvmlDeviceGetPowerUsage`).
    pub fn power_mw(&self) -> u64 {
        // Sample just behind "now": at a phase boundary the segment that
        // *ended* exactly now is what a polling reader would still see.
        let t = (self.host.now_seconds() - 1e-9).max(0.0);
        self.power_mw_at(t)
    }

    /// Total active energy in joules (diagnostics).
    pub fn active_energy_j(&self) -> f64 {
        self.state().timeline.active_energy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p9_arch::Machine;
    use p9_memsim::SimMachine;

    fn gpu() -> (SimMachine, GpuDevice) {
        let m = SimMachine::quiet(Machine::summit(), 5);
        let g = GpuDevice::new(0, GpuParams::default(), m.socket_shared(0));
        (m, g)
    }

    #[test]
    fn h2d_reads_host_memory_and_takes_time() {
        let (m, g) = gpu();
        let t0 = m.socket_shared(0).now_seconds();
        g.submit_sync(GpuOp::H2D { bytes: 470_000_000 }); // ~10 ms at 47 GB/s
        let dt = m.socket_shared(0).now_seconds() - t0;
        assert!((dt - 0.01).abs() < 1e-3, "dt {dt}");
        assert_eq!(m.socket_shared(0).counters().total_read(), 470_000_000);
        assert_eq!(m.socket_shared(0).counters().total_write(), 0);
    }

    #[test]
    fn d2h_writes_host_memory() {
        let (m, g) = gpu();
        g.submit_sync(GpuOp::D2H { bytes: 1_000_000 });
        assert_eq!(m.socket_shared(0).counters().total_write(), 1_000_000);
        assert_eq!(m.socket_shared(0).counters().total_read(), 0);
    }

    #[test]
    fn power_profile_shows_kernel_spike() {
        let (_m, g) = gpu();
        g.submit_sync(GpuOp::H2D { bytes: 47_000_000 }); // 1 ms copy
        let copy_end = 0.001;
        g.submit_sync(GpuOp::Kernel {
            flops: 7.8e9, // 1 ms of compute
            mem_bytes: 0,
        });
        // During the copy: copy power; during the kernel: kernel power.
        assert_eq!(g.power_mw_at(copy_end / 2.0), 115_000);
        assert_eq!(g.power_mw_at(copy_end + 0.0005), 285_000);
        // Long after: idle.
        assert_eq!(g.power_mw_at(10.0), 52_000);
    }

    #[test]
    fn kernel_duration_is_max_of_compute_and_memory() {
        let (m, g) = gpu();
        let t0 = m.socket_shared(0).now_seconds();
        // Memory-bound: 900 MB at 900 GB/s = 1 ms >> compute time.
        g.submit_sync(GpuOp::Kernel {
            flops: 1.0,
            mem_bytes: 900_000_000,
        });
        let dt = m.socket_shared(0).now_seconds() - t0;
        assert!((dt - 0.001).abs() < 1e-4, "dt {dt}");
    }

    #[test]
    fn ops_serialize_on_device() {
        let (_m, g) = gpu();
        g.submit_sync(GpuOp::H2D { bytes: 47_000_000 });
        g.submit_sync(GpuOp::H2D { bytes: 47_000_000 });
        // Two 1 ms copies: active energy = 2 ms x 115 W.
        let e = g.active_energy_j();
        assert!((e - 0.002 * 115.0).abs() < 1e-4, "energy {e}");
    }

    #[test]
    fn power_now_reads_latest_state() {
        let (_m, g) = gpu();
        assert_eq!(g.power_mw(), 52_000);
        g.submit_sync(GpuOp::Kernel {
            flops: 7.8e9,
            mem_bytes: 0,
        });
        // Host advanced to kernel end; sampling just behind now sees the
        // kernel segment.
        assert_eq!(g.power_mw(), 285_000);
    }
}
