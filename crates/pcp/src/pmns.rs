//! The Performance Metrics Name Space (PMNS).
//!
//! PCP metrics live in a dot-separated hierarchy. The subset exported here
//! is the `perfevent` PMDA's view of the POWER9 nest IMC, which is what the
//! paper's Table I event strings address:
//!
//! ```text
//! perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value
//! perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value
//! ...
//! perfevent.hwcounters.nest_mba7_imc.PM_MBA7_WRITE_BYTES.value
//! ```
//!
//! Each metric has a per-CPU instance domain. On the real machine the nest
//! values are published on the last hardware thread of each socket (cpu 87
//! and cpu 175 on Summit); fetching any other instance returns zero, which
//! is also how the real export behaves for nest events.

use p9_arch::{Machine, MBA_CHANNELS};
use p9_memsim::Direction;

/// Opaque metric identifier (index into the PMNS table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MetricId(pub u32);

/// Instance within a metric's instance domain. For the nest metrics the
/// instance is an OS CPU number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct InstanceId(pub u32);

/// Value semantics of a metric, following PCP's `PM_SEM_*`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricSemantics {
    /// Monotonically increasing counter.
    Counter,
    /// Instantaneous value.
    Instant,
}

/// Metric descriptor (a trimmed `pmDesc`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDesc {
    pub id: MetricId,
    pub name: String,
    pub semantics: MetricSemantics,
    pub units: &'static str,
    /// Which MBA channel and direction this metric reads.
    pub channel: usize,
    pub direction: Direction,
}

/// The name space: metric table plus the machine facts needed to resolve
/// CPU instances to sockets.
#[derive(Clone, Debug)]
pub struct Pmns {
    metrics: Vec<MetricDesc>,
    /// `nest_cpu[socket]` = the CPU instance on which that socket's nest
    /// values are published.
    nest_cpu: Vec<u32>,
    /// Total number of CPU instances in the domain.
    num_cpus: u32,
}

impl Pmns {
    /// Build the perfevent nest namespace for `machine`.
    pub fn for_machine(machine: &Machine) -> Self {
        let mut metrics = Vec::with_capacity(MBA_CHANNELS * 2);
        for ch in 0..MBA_CHANNELS {
            for (dir, word) in [(Direction::Read, "READ"), (Direction::Write, "WRITE")] {
                let name =
                    format!("perfevent.hwcounters.nest_mba{ch}_imc.PM_MBA{ch}_{word}_BYTES.value");
                metrics.push(MetricDesc {
                    id: MetricId(metrics.len() as u32),
                    name,
                    semantics: MetricSemantics::Counter,
                    units: "byte",
                    channel: ch,
                    direction: dir,
                });
            }
        }
        let nest_cpu = (0..machine.node.num_sockets())
            .map(|s| machine.node.nest_cpu_qualifier(p9_arch::SocketId(s)) as u32)
            .collect();
        let num_cpus = machine
            .node
            .sockets
            .iter()
            .map(|s| (s.physical_cores * s.smt) as u32)
            .sum();
        Pmns {
            metrics,
            nest_cpu,
            num_cpus,
        }
    }

    /// Resolve a full metric name to its id.
    pub fn lookup(&self, name: &str) -> Option<MetricId> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.id)
    }

    /// Descriptor of `id`.
    pub fn desc(&self, id: MetricId) -> Option<&MetricDesc> {
        self.metrics.get(id.0 as usize)
    }

    /// All metric names under a dotted prefix (PMNS tree traversal).
    pub fn children(&self, prefix: &str) -> Vec<&str> {
        self.metrics
            .iter()
            .filter(|m| prefix.is_empty() || m.name.starts_with(prefix))
            .map(|m| m.name.as_str())
            .collect()
    }

    /// Number of metrics in the namespace.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when the namespace is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The socket whose nest values instance `cpu` publishes, if any.
    pub fn socket_of_instance(&self, cpu: InstanceId) -> Option<usize> {
        self.nest_cpu.iter().position(|&c| c == cpu.0)
    }

    /// The publishing CPU instance for `socket`.
    pub fn instance_of_socket(&self, socket: usize) -> InstanceId {
        InstanceId(self.nest_cpu[socket])
    }

    /// Whether `cpu` is a valid instance in the CPU domain.
    pub fn valid_instance(&self, cpu: InstanceId) -> bool {
        cpu.0 < self.num_cpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_has_all_sixteen_nest_metrics() {
        let pmns = Pmns::for_machine(&Machine::summit());
        assert_eq!(pmns.len(), 16);
        for ch in 0..8 {
            for word in ["READ", "WRITE"] {
                let name =
                    format!("perfevent.hwcounters.nest_mba{ch}_imc.PM_MBA{ch}_{word}_BYTES.value");
                let id = pmns.lookup(&name).expect("metric must exist");
                let desc = pmns.desc(id).unwrap();
                assert_eq!(desc.channel, ch);
                assert_eq!(desc.units, "byte");
                assert_eq!(desc.semantics, MetricSemantics::Counter);
            }
        }
    }

    #[test]
    fn unknown_names_do_not_resolve() {
        let pmns = Pmns::for_machine(&Machine::summit());
        assert!(pmns.lookup("perfevent.hwcounters.nope").is_none());
        assert!(pmns
            .lookup("perfevent.hwcounters.nest_mba8_imc.PM_MBA8_READ_BYTES.value")
            .is_none());
    }

    #[test]
    fn instances_map_to_sockets_like_summit() {
        let pmns = Pmns::for_machine(&Machine::summit());
        assert_eq!(pmns.instance_of_socket(0), InstanceId(87));
        assert_eq!(pmns.instance_of_socket(1), InstanceId(175));
        assert_eq!(pmns.socket_of_instance(InstanceId(87)), Some(0));
        assert_eq!(pmns.socket_of_instance(InstanceId(175)), Some(1));
        assert_eq!(pmns.socket_of_instance(InstanceId(3)), None);
        assert!(pmns.valid_instance(InstanceId(3)));
        assert!(!pmns.valid_instance(InstanceId(176)));
    }

    #[test]
    fn prefix_listing() {
        let pmns = Pmns::for_machine(&Machine::summit());
        let mba3 = pmns.children("perfevent.hwcounters.nest_mba3_imc");
        assert_eq!(mba3.len(), 2);
        assert_eq!(pmns.children("perfevent").len(), 16);
        assert_eq!(pmns.children("").len(), 16);
    }
}
