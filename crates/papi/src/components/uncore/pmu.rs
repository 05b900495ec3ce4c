//! The privileged uncore PMU handle.
//!
//! [`UncorePmu::open`] plays the role of `perf_event_open` on an uncore
//! PMU: it validates privileges, resolves the event definition, and returns
//! a counter handle that reads the live nest counters of one socket.

use std::sync::Arc;

use super::events::NestEventDef;
use p9_memsim::machine::SocketShared;
use p9_memsim::{PrivilegeError, PrivilegeToken};

/// Errors from the direct-access path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UncoreError {
    /// Calling context lacks elevated privileges (the Summit situation).
    Permission(PrivilegeError),
    /// The cpu qualifier does not belong to any socket.
    BadCpu(u32),
}

impl std::fmt::Display for UncoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UncoreError::Permission(e) => write!(f, "{e}"),
            UncoreError::BadCpu(c) => write!(f, "cpu {c} is not a valid qualifier"),
        }
    }
}

impl std::error::Error for UncoreError {}

/// Factory for uncore counters on one node.
pub struct UncorePmu {
    sockets: Vec<Arc<SocketShared>>,
    /// CPUs per socket (to resolve `cpu=` qualifiers to sockets).
    cpus_per_socket: Vec<u32>,
}

impl UncorePmu {
    /// Build the PMU view of a node. `cpus_per_socket[s]` is the number of
    /// OS CPUs socket `s` exposes.
    pub fn new(sockets: Vec<Arc<SocketShared>>, cpus_per_socket: Vec<u32>) -> Self {
        assert_eq!(sockets.len(), cpus_per_socket.len());
        UncorePmu {
            sockets,
            cpus_per_socket,
        }
    }

    /// Resolve an OS CPU number to its socket.
    pub fn socket_of_cpu(&self, cpu: u32) -> Option<usize> {
        let mut base = 0;
        for (s, &n) in self.cpus_per_socket.iter().enumerate() {
            if cpu < base + n {
                return Some(s);
            }
            base += n;
        }
        None
    }

    /// Open a counter for `def` on the socket owning `cpu`. Requires
    /// elevation, like `perf_event_open` on an uncore PMU without
    /// `perf_event_paranoid` relaxation.
    pub fn open(
        &self,
        def: &'static NestEventDef,
        cpu: u32,
        token: &PrivilegeToken,
    ) -> Result<UncoreCounter, UncoreError> {
        token.require_elevated().map_err(UncoreError::Permission)?;
        let socket = self.socket_of_cpu(cpu).ok_or(UncoreError::BadCpu(cpu))?;
        Ok(UncoreCounter {
            def,
            shared: Arc::clone(&self.sockets[socket]),
        })
    }
}

/// An open uncore counter (the `perf` "file descriptor").
pub struct UncoreCounter {
    def: &'static NestEventDef,
    shared: Arc<SocketShared>,
}

impl UncoreCounter {
    /// Current counter value in bytes. Nest counters are free-running;
    /// callers take start/stop snapshots and subtract.
    pub fn read(&self) -> u64 {
        self.shared
            // Elevation was proven at open(), which takes a
            // &PrivilegeToken like perf_event_open; this handle is the
            // capability witness, exactly as a perf fd is.
            .counters()
            .channel(self.def.channel, self.def.direction)
            * self.def.scale
    }

    /// The event definition backing this counter.
    pub fn def(&self) -> &'static NestEventDef {
        self.def
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::uncore::events::lookup;
    use p9_arch::Machine;
    use p9_memsim::{Direction, SimMachine};

    fn pmu_for(m: &SimMachine) -> UncorePmu {
        let sockets = (0..m.num_sockets()).map(|s| m.socket_shared(s)).collect();
        let cpus = m
            .arch()
            .node
            .sockets
            .iter()
            .map(|s| (s.physical_cores * s.smt) as u32)
            .collect();
        UncorePmu::new(sockets, cpus)
    }

    #[test]
    fn open_requires_privilege() {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmu = pmu_for(&m);
        let def = lookup("power9_nest_mba0", "PM_MBA0_READ_BYTES").unwrap();
        // Summit users are unprivileged.
        let err = pmu.open(def, 0, &m.privilege_token());
        assert!(matches!(err, Err(UncoreError::Permission(_))));
        // Tellico users are elevated.
        let t = SimMachine::quiet(Machine::tellico(), 1);
        let tpmu = pmu_for(&t);
        assert!(tpmu.open(def, 0, &t.privilege_token()).is_ok());
    }

    #[test]
    fn counter_reads_live_values() {
        let m = SimMachine::quiet(Machine::tellico(), 1);
        let pmu = pmu_for(&m);
        let def = lookup("power9_nest_mba1", "PM_MBA1_WRITE_BYTES").unwrap();
        let c = pmu.open(def, 0, &m.privilege_token()).unwrap();
        assert_eq!(c.read(), 0);
        m.socket_shared(0)
            .counters()
            .record_sector(1, Direction::Write); // channel 1
        assert_eq!(c.read(), 64);
    }

    #[test]
    fn cpu_qualifier_selects_socket() {
        let m = SimMachine::quiet(Machine::tellico(), 1);
        let pmu = pmu_for(&m);
        // Tellico: 16 cores x SMT4 = 64 CPUs per socket.
        assert_eq!(pmu.socket_of_cpu(0), Some(0));
        assert_eq!(pmu.socket_of_cpu(63), Some(0));
        assert_eq!(pmu.socket_of_cpu(64), Some(1));
        assert_eq!(pmu.socket_of_cpu(127), Some(1));
        assert_eq!(pmu.socket_of_cpu(128), None);

        let def = lookup("power9_nest_mba0", "PM_MBA0_READ_BYTES").unwrap();
        let c1 = pmu.open(def, 64, &m.privilege_token()).unwrap();
        m.socket_shared(1)
            .counters()
            .record_sector(0, Direction::Read);
        assert_eq!(c1.read(), 64);
        let c0 = pmu.open(def, 0, &m.privilege_token()).unwrap();
        assert_eq!(c0.read(), 0);
    }

    #[test]
    fn bad_cpu_rejected() {
        let m = SimMachine::quiet(Machine::tellico(), 1);
        let pmu = pmu_for(&m);
        let def = lookup("power9_nest_mba0", "PM_MBA0_READ_BYTES").unwrap();
        assert!(matches!(
            pmu.open(def, 9999, &m.privilege_token()),
            Err(UncoreError::BadCpu(9999))
        ));
    }
}
