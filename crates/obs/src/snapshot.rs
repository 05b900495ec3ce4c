//! One registry snapshot, one timestamp.
//!
//! Three consumers read the metric registry on a cadence: the live
//! monitor ([`crate::Monitor`]), the OpenMetrics exposition
//! ([`crate::openmetrics`]) and the archive/store ingest paths. Before
//! this module each of them called [`Registry::export`] and stamped its
//! own clock, so the "same" observation could carry three different
//! timestamps. A [`Snapshot`] pairs the flattened scalars with exactly
//! one caller-supplied `t_ns`, and every consumer takes the pair —
//! agreement on timestamps holds by construction, not by discipline.

use crate::metrics::{Exported, Registry};

/// A point-in-time view of a registry's flattened scalars.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The single timestamp (nanoseconds, caller-supplied — wall clock
    /// in daemons, simulated clock in tests) every scalar was read at.
    pub t_ns: u64,
    /// The flattened scalars, in registration order (histograms appear
    /// as their `.count`/`.sum`/… components).
    pub scalars: Vec<Exported>,
}

impl Snapshot {
    /// Snapshot `reg` at `t_ns`.
    pub fn take(reg: &Registry, t_ns: u64) -> Self {
        Snapshot {
            t_ns,
            scalars: reg.export(),
        }
    }

    /// The scalar named `name`, if exported.
    pub fn get(&self, name: &str) -> Option<&Exported> {
        self.scalars.iter().find(|e| e.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_pairs_scalars_with_one_timestamp() {
        let reg = Registry::new();
        reg.counter("snap.test.a").add(3);
        reg.gauge("snap.test.b").set(9);
        let snap = Snapshot::take(&reg, 42_000);
        assert_eq!(snap.t_ns, 42_000);
        assert_eq!(snap.get("snap.test.a").unwrap().value, 3);
        assert_eq!(snap.get("snap.test.b").unwrap().value, 9);
        assert!(snap.get("snap.test.missing").is_none());
    }
}
