//! Socket / core / node topology types.

use core::fmt;

/// Identifier of a socket within a node (0 or 1 on Summit/Tellico).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SocketId(pub usize);

/// Identifier of a physical core within a socket.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoreId(pub usize);

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "socket{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Static description of one socket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocketTopology {
    /// Physical cores present on the die.
    pub physical_cores: usize,
    /// Cores usable by applications (one core may be reserved for system
    /// service tasks, as on Summit).
    pub usable_cores: usize,
    /// Number of core pairs, each sharing an L2 and an L3 slice.
    pub core_pairs: usize,
    /// Hardware threads per core exposed to the OS (SMT4 on Summit).
    pub smt: usize,
}

impl SocketTopology {
    /// All usable cores of the socket.
    pub fn usable(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.usable_cores).map(CoreId)
    }
}

/// Static description of one compute node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeTopology {
    pub sockets: Vec<SocketTopology>,
    /// GPUs attached per socket (3 on Summit nodes, 0 on Tellico).
    pub gpus_per_socket: usize,
    /// InfiniBand HCA ports per node (2 rails on Summit: `mlx5_0`, `mlx5_1`).
    pub ib_ports: usize,
}

impl NodeTopology {
    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    pub fn socket(&self, id: SocketId) -> &SocketTopology {
        &self.sockets[id.0]
    }

    /// The OS CPU number of the first hardware thread of `core` on `socket`,
    /// following Summit's numbering (socket 0 holds CPUs 0..=87, socket 1
    /// holds 88..=175 with SMT4). The paper's PCP event strings are
    /// qualified with `:cpu87` / `:cpu175` — the last hardware thread of
    /// each socket.
    pub fn os_cpu(&self, socket: SocketId, core: CoreId, thread: usize) -> usize {
        let mut base = 0usize;
        for s in 0..socket.0 {
            base += self.sockets[s].physical_cores * self.sockets[s].smt;
        }
        base + core.0 * self.socket(socket).smt + thread
    }

    /// The CPU qualifier used for nest (socket-wide) events of `socket`:
    /// the last hardware thread on the socket.
    pub fn nest_cpu_qualifier(&self, socket: SocketId) -> usize {
        let st = self.socket(socket);
        self.os_cpu(socket, CoreId(st.physical_cores - 1), st.smt - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn summit_nest_cpu_qualifiers_match_paper() {
        // Table I: `...value:cpu[87|175]`.
        let m = Machine::summit();
        assert_eq!(m.node.nest_cpu_qualifier(SocketId(0)), 87);
        assert_eq!(m.node.nest_cpu_qualifier(SocketId(1)), 175);
    }

    #[test]
    fn usable_core_iteration() {
        let m = Machine::summit();
        let cores: Vec<_> = m.node.socket(SocketId(0)).usable().collect();
        assert_eq!(cores.len(), 21);
        assert_eq!(cores[0], CoreId(0));
        assert_eq!(cores[20], CoreId(20));
    }
}
