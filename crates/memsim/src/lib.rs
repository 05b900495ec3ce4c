//! # p9-memsim — POWER9 memory-hierarchy and nest-counter simulator
//!
//! This crate is the hardware substrate of the reproduction: a trace-driven
//! simulator of the POWER9 core cache hierarchy and the socket-level "nest"
//! memory interface whose `PM_MBA[0-7]_{READ,WRITE}_BYTES` counters the paper
//! measures.
//!
//! ## Micro-architectural mechanisms modeled
//!
//! The paper's analysis rests on a handful of specific POWER9 behaviours,
//! each of which is an explicit model component here:
//!
//! * **64-byte memory transactions.** POWER9 can fetch half cache lines
//!   (64 B of a 128 B line) from memory. The simulator therefore manages the
//!   caches at 64-byte *sector* granularity: every demand miss reads one
//!   64-byte sector, and every dirty sector writeback writes 64 bytes. The
//!   paper's expectation curves (`elements × 8 / 64`) fall out directly.
//! * **Stride-N stream detection** ([`prefetch`]). The hardware "may detect
//!   Stride-N streams … when they access elements that map to sequential
//!   cache blocks". A per-core stream table confirms constant-stride load
//!   streams; streams with a stride larger than one sector are *stride-N*
//!   streams.
//! * **Cache-bypassing stores** ([`store`]). Stores write-allocate by
//!   default; only *streaming* stores — stores belonging to a confirmed
//!   sequential store stream, on a core with no active stride-N stream and
//!   no `dcbtst` software-prefetch hint (GCC `-fprefetch-loop-arrays`) —
//!   gather into full 64-byte sectors and bypass the cache (no
//!   read-for-ownership). Everything else incurs one read per written
//!   sector plus a later writeback: the read-per-write phenomenon of
//!   Sections III–IV.
//! * **L3 slice borrowing** ([`hierarchy`]). Each core pair owns a 10 MB L3
//!   slice; a lone active core can re-appropriate idle cores' slices (up to
//!   110 MB on Summit), while with every core busy each core effectively
//!   keeps ~5 MB. The simulator sizes each active core's L3 from the number
//!   of active cores, which reproduces the paper's observation that
//!   single-threaded GEMM shows no traffic jump at N ≈ 809 but batched GEMM
//!   does.
//! * **Measurement noise** ([`noise`]). Socket-wide counters observe *all*
//!   traffic: background OS/daemon activity accrues with elapsed time, and
//!   starting/stopping a measurement itself touches memory. Small kernels
//!   are therefore dominated by noise unless repetitions are used (Fig. 2
//!   vs. Fig. 3) — the noise is injected into the same counters every reader
//!   sees, which is why PCP and direct reads are equally accurate.
//!
//! ## Concurrency model
//!
//! Simulated cores have private L1/L2/L3 resources (the L3 share is fixed by
//! the number of active cores), and the workloads in the paper are
//! embarrassingly parallel with disjoint footprints. Under that model,
//! per-core simulations are independent, so [`machine::SimMachine::run_parallel`]
//! executes them on real OS threads. A core counts its memory
//! transactions per channel privately and publishes them to the socket's
//! atomic nest counters at fence points — every
//! [`hierarchy::CoreSim::fence`] (which ends each kernel),
//! `flush_caches` and `configure_l3` — exactly where it publishes its
//! core events. A concurrent reader therefore sees each core's traffic
//! in whole per-fence steps, and a quiescent socket holds exactly the
//! sum of every core's transactions.

// The crate's one `unsafe` block is the host prefetch hint in `cache`.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod addr;
pub mod cache;
pub mod counters;
pub mod hierarchy;
pub mod machine;
pub mod noise;
pub mod prefetch;
pub mod privilege;
pub mod store;
pub mod verify;

pub use addr::{AddressSpace, Region};
pub use cache::SetAssocCache;
pub use counters::{CounterSnapshot, Direction, NestCounters};
pub use hierarchy::{AccessCosts, CoreSim, ModelPolicy};
pub use machine::{CoreEvent, CoreEventCounters, SimMachine, SocketSim};
pub use noise::NoiseConfig;
pub use prefetch::PrefetchEngine;
pub use privilege::{PrivilegeError, PrivilegeLevel, PrivilegeToken};
pub use store::StoreEngine;
pub use verify::{BulkSnapshot, ConservationError, ShadowLedger};

/// Bytes per memory transaction / cache sector (half of a 128 B line).
pub const SECTOR_BYTES: u64 = p9_arch::MEM_TRANSACTION_BYTES;

/// Convert a byte address to its sector index.
#[inline(always)]
pub fn sector_of(addr: u64) -> u64 {
    addr / SECTOR_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_math() {
        assert_eq!(sector_of(0), 0);
        assert_eq!(sector_of(63), 0);
        assert_eq!(sector_of(64), 1);
        assert_eq!(sector_of(128), 2);
    }
}
