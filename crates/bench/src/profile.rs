//! The multi-component timeline profiler behind Figs. 11 and 12.
//!
//! Figures 11 and 12 of the paper are *performance profiles*: several
//! orthogonal hardware signals (host memory read/write traffic via the
//! PCP component, GPU power via NVML, network receive traffic via the
//! InfiniBand component) sampled over the run of an application, with the
//! application's phases identifiable purely from the signals.
//!
//! [`Profiler`] owns one multi-component [`papi_sim::EventSet`]. The
//! instrumented applications (`fft3d::gpu::GpuFft3dRank`,
//! `qmc_mini::app::QmcApp`) invoke a tick callback after every slab of
//! work; the profiler samples there, timestamped with the socket's
//! simulated clock. Counter-like events are reported as *rates* over the
//! sample window; gauge events (GPU power) are reported as instantaneous
//! values. [`columns`] is the event set both figures monitor and
//! [`cluster_papi`] the PAPI stack they read it through.

use std::sync::Arc;

use papi_sim::components::{IbComponent, NvmlComponent, PcpComponent};
use papi_sim::{EventSet, Papi, PapiError};
use pcp_sim::{PcpContext, Pmcd, PmcdConfig, PmcdError, Pmns};
use ranksim::nvml::GpuDevice;
use ranksim::ClusterSim;

/// How an event's samples should be interpreted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// Monotonic byte/word counter: report deltas per second.
    Counter,
    /// Instantaneous gauge (e.g. power in mW): report the raw value.
    Gauge,
}

/// One profiled column.
#[derive(Clone, Debug)]
pub struct Column {
    pub event: String,
    pub kind: EventKind,
    /// Short label for rendering ("mem-rd", "gpu-W", ...).
    pub label: String,
    /// Multiplier applied to sampled values (e.g. 8.0 to extrapolate one
    /// MBA channel's counter to the whole striped socket).
    pub scale: f64,
}

impl Column {
    /// A counter column with unit scale.
    pub fn counter(event: impl Into<String>, label: impl Into<String>) -> Column {
        Column {
            event: event.into(),
            kind: EventKind::Counter,
            label: label.into(),
            scale: 1.0,
        }
    }

    /// A gauge column with unit scale.
    pub fn gauge(event: impl Into<String>, label: impl Into<String>) -> Column {
        Column {
            event: event.into(),
            kind: EventKind::Gauge,
            label: label.into(),
            scale: 1.0,
        }
    }

    /// Apply a value multiplier.
    pub fn scaled(mut self, scale: f64) -> Column {
        self.scale = scale;
        self
    }
}

/// One timeline sample.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Simulated time, seconds.
    pub time_s: f64,
    /// Application phase active when the sample was taken.
    pub phase: String,
    /// Per-column value: rate (units/s) for counters, raw for gauges.
    pub values: Vec<f64>,
}

/// A completed profile.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    pub columns: Vec<Column>,
    pub samples: Vec<Sample>,
}

impl Timeline {
    /// Mean of each column per phase, in first-appearance phase order.
    pub fn phase_summary(&self) -> Vec<(String, Vec<f64>)> {
        let mut order: Vec<String> = Vec::new();
        for s in &self.samples {
            if !order.contains(&s.phase) {
                order.push(s.phase.clone());
            }
        }
        order
            .into_iter()
            .map(|phase| {
                let rows: Vec<&Sample> = self.samples.iter().filter(|s| s.phase == phase).collect();
                let n = rows.len().max(1) as f64;
                let means = (0..self.columns.len())
                    .map(|c| rows.iter().map(|s| s.values[c]).sum::<f64>() / n)
                    .collect();
                (phase, means)
            })
            .collect()
    }

    /// CSV rendering: `time_s,phase,<label>...`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,phase");
        for c in &self.columns {
            out.push(',');
            out.push_str(&c.label);
        }
        out.push('\n');
        for s in &self.samples {
            out.push_str(&format!("{:.6},{}", s.time_s, s.phase));
            for v in &s.values {
                out.push_str(&format!(",{v:.3}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The live profiler.
pub struct Profiler {
    es: EventSet,
    timeline: Timeline,
    last_time: f64,
    last_values: Vec<i64>,
}

impl Profiler {
    /// Create and start a profiler over `columns` (kind decides rate vs
    /// gauge handling).
    pub fn start(papi: &Papi, columns: Vec<Column>) -> Result<Self, PapiError> {
        let mut es = EventSet::new();
        for c in &columns {
            es.add_event(&c.event)?;
        }
        es.start(papi)?;
        let n = columns.len();
        Ok(Profiler {
            es,
            timeline: Timeline {
                columns,
                samples: Vec::new(),
            },
            last_time: 0.0,
            last_values: vec![0; n],
        })
    }

    /// Take a sample at simulated time `now_s`, attributed to `phase`.
    pub fn tick(&mut self, phase: &str, now_s: f64) -> Result<(), PapiError> {
        let values = self.es.read()?;
        let dt = (now_s - self.last_time).max(1e-12);
        let row = self
            .timeline
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                c.scale
                    * match c.kind {
                        EventKind::Counter => (values[i] - self.last_values[i]) as f64 / dt,
                        EventKind::Gauge => values[i] as f64,
                    }
            })
            .collect();
        self.timeline.samples.push(Sample {
            time_s: now_s,
            phase: phase.to_owned(),
            values: row,
        });
        self.last_time = now_s;
        self.last_values = values;
        Ok(())
    }

    /// Stop counting and return the timeline.
    pub fn finish(mut self) -> Result<Timeline, PapiError> {
        self.es.stop()?;
        Ok(self.timeline)
    }
}

/// The four columns both application profiles monitor (Table II events).
pub fn columns() -> Vec<Column> {
    vec![
        Column::gauge("nvml:::Tesla_V100-SXM2-16GB:device_0:power", "gpu_power_mW"),
        Column::counter(
            "pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value:cpu87",
            "mem_read_Bps",
        )
        .scaled(8.0),
        Column::counter(
            "pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value:cpu87",
            "mem_write_Bps",
        )
        .scaled(8.0),
        Column::counter(
            "infiniband:::mlx5_0_1_ext:port_recv_data",
            "ib_recv_words_ps",
        )
        .scaled(2.0),
    ]
}

/// Wire a cluster's PAPI stack: PCP over the instrumented node's
/// sockets, NVML over the pipeline's GPU, InfiniBand over node 0's
/// rails.
pub fn cluster_papi(cluster: &ClusterSim, gpu: &Arc<GpuDevice>) -> Result<Papi, PmcdError> {
    let pmns = Pmns::for_machine(cluster.machine().arch());
    let sockets: Vec<_> = (0..cluster.machine().num_sockets())
        .map(|s| cluster.machine().socket_shared(s))
        .collect();
    let pmcd = Pmcd::spawn_system(pmns.clone(), sockets.clone(), PmcdConfig::default())?;
    let ctx = PcpContext::connect(pmcd, Some(cluster.machine().socket_shared(0)));
    let mut papi = Papi::new();
    papi.register(Box::new(PcpComponent::new(ctx, pmns, sockets)));
    papi.register(Box::new(NvmlComponent::new(vec![Arc::clone(gpu)])));
    papi.register(Box::new(IbComponent::new(
        cluster.fabric().node(0).hcas.clone(),
    )));
    Ok(papi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p9_memsim::{Direction, SimMachine};
    use papi_sim::papi::setup_node;
    use ranksim::nvml::{GpuOp, GpuParams};
    use ranksim::ProcessGrid;

    fn mem_columns(cpu: usize) -> Vec<Column> {
        vec![
            Column::counter(
                format!(
                    "pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value:cpu{cpu}"
                ),
                "mem-rd",
            ),
            Column::gauge("nvml:::Tesla_V100-SXM2-16GB:device_0:power", "gpu-mW"),
        ]
    }

    #[test]
    fn samples_record_rates_and_gauges() {
        let m = SimMachine::quiet(p9_arch::Machine::summit(), 81);
        let setup = setup_node(&m, Vec::new());
        let shared = m.socket_shared(0);
        let mut p = Profiler::start(&setup.papi, mem_columns(87)).unwrap();

        // 1 second of 64 B/s on channel 0.
        shared.counters().record_sector(0, Direction::Read);
        shared.advance_seconds(1.0);
        p.tick("phase-a", shared.now_seconds()).unwrap();

        shared.counters().record_sector(0, Direction::Read);
        shared.counters().record_sector(0, Direction::Read);
        shared.advance_seconds(1.0);
        p.tick("phase-b", shared.now_seconds()).unwrap();

        let t = p.finish().unwrap();
        assert_eq!(t.samples.len(), 2);
        assert!((t.samples[0].values[0] - 64.0).abs() < 1.0);
        assert!((t.samples[1].values[0] - 128.0).abs() < 1.0);
        // Idle GPU gauge.
        assert_eq!(t.samples[0].values[1], 52_000.0);
    }

    #[test]
    fn phase_summary_orders_and_averages() {
        let m = SimMachine::quiet(p9_arch::Machine::summit(), 82);
        let setup = setup_node(&m, Vec::new());
        let shared = m.socket_shared(0);
        let mut p = Profiler::start(&setup.papi, mem_columns(87)).unwrap();
        for phase in ["x", "x", "y"] {
            shared.advance_seconds(0.5);
            p.tick(phase, shared.now_seconds()).unwrap();
        }
        let t = p.finish().unwrap();
        let summary = t.phase_summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].0, "x");
        assert_eq!(summary[1].0, "y");
    }

    #[test]
    fn csv_renders_a_header_and_one_row_per_sample() {
        let m = SimMachine::quiet(p9_arch::Machine::summit(), 83);
        let setup = setup_node(&m, Vec::new());
        let shared = m.socket_shared(0);
        let mut p = Profiler::start(&setup.papi, mem_columns(87)).unwrap();
        shared.advance_seconds(0.1);
        p.tick("only", shared.now_seconds()).unwrap();
        let t = p.finish().unwrap();
        let csv = t.to_csv();
        assert!(csv.starts_with("time_s,phase,mem-rd,gpu-mW\n"));
        assert_eq!(csv.lines().count(), 2);
    }

    /// The raw counters behind [`columns`]' three counter columns, read
    /// directly: MBA0 read bytes, MBA0 write bytes (socket 0) and node 0's
    /// first-rail `port_recv_data`.
    fn direct(cluster: &ClusterSim) -> [u64; 3] {
        let c = cluster.machine().socket_shared(0).counters().snapshot();
        [
            c.channel(0, Direction::Read),
            c.channel(0, Direction::Write),
            cluster.fabric().node(0).hcas[0].port.recv_data(),
        ]
    }

    /// Σ rate·Δt over every counter column is `scale` × the counter's own
    /// delta, over the whole run and phase by phase, however unevenly the
    /// ticks fall. A row's window runs from the previous sample; the first
    /// row's runs from t = 0, where the profiler starts its clock.
    #[test]
    fn counter_columns_conserve_their_counters() {
        let machine = SimMachine::quiet(p9_arch::Machine::summit(), 84);
        let gpu = Arc::new(GpuDevice::new(
            0,
            GpuParams::default(),
            machine.socket_shared(0),
        ));
        let mut cluster = ClusterSim::new(machine, ProcessGrid::new(2, 2), 2);
        let papi = cluster_papi(&cluster, &gpu).unwrap();
        let shared = cluster.machine().socket_shared(0);
        let cols = columns();

        let start = direct(&cluster);
        let mut p = Profiler::start(&papi, cols.clone()).unwrap();
        // (phase, GPU op, all-to-all bytes per pair): odd sizes so the
        // per-channel striping leaves remainders, durations from ~1e-10 s
        // to ~10 ms.
        let steps = [
            ("copy-in", Some(GpuOp::H2D { bytes: 470_000_003 }), 0),
            ("copy-in", Some(GpuOp::H2D { bytes: 12_345_677 }), 0),
            (
                "compute",
                Some(GpuOp::Kernel {
                    flops: 3.1e9,
                    mem_bytes: 1 << 30,
                }),
                0,
            ),
            ("exchange", None, (1 << 20) + 12),
            ("exchange", None, 333),
            ("copy-out", Some(GpuOp::D2H { bytes: 98_765_431 }), 0),
            ("copy-out", Some(GpuOp::D2H { bytes: 7 }), 0),
        ];
        let mut phase_direct: Vec<(&str, [u64; 3])> = Vec::new();
        let mut before = start;
        for (phase, op, a2a) in steps {
            if let Some(op) = op {
                gpu.submit_sync(op);
            }
            if a2a > 0 {
                cluster.alltoall(a2a);
            }
            p.tick(phase, shared.now_seconds()).unwrap();
            let now = direct(&cluster);
            let d: [u64; 3] = std::array::from_fn(|k| now[k] - before[k]);
            match phase_direct.last_mut() {
                Some((last, acc)) if *last == phase => {
                    acc.iter_mut().zip(d).for_each(|(a, x)| *a += x)
                }
                _ => phase_direct.push((phase, d)),
            }
            before = now;
        }
        let t = p.finish().unwrap();
        let end = direct(&cluster);

        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs().max(1.0);
        let counters = cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == EventKind::Counter);
        for (k, (c, col)) in counters.enumerate() {
            // Σ rate·Δt per phase.
            let mut per_phase: Vec<(&str, f64)> = Vec::new();
            let mut prev = 0.0;
            for s in &t.samples {
                let moved = s.values[c] * (s.time_s - prev);
                prev = s.time_s;
                match per_phase.last_mut() {
                    Some((last, sum)) if *last == s.phase => *sum += moved,
                    _ => per_phase.push((&s.phase, moved)),
                }
            }
            let whole = col.scale * (end[k] - start[k]) as f64;
            assert!(whole > 0.0, "{}: the run must move this counter", col.label);
            let summed: f64 = per_phase.iter().map(|(_, v)| v).sum();
            assert!(close(summed, whole), "{}: {summed} != {whole}", col.label);
            assert_eq!(per_phase.len(), phase_direct.len());
            for ((phase, got), (want_phase, d)) in per_phase.iter().zip(&phase_direct) {
                assert_eq!(phase, want_phase);
                let want = col.scale * d[k] as f64;
                assert!(
                    close(*got, want),
                    "{} in {phase}: {got} != {want}",
                    col.label
                );
            }
        }
    }
}
