//! Property tests for the verification layer.
//!
//! Two families:
//!
//! 1. **Archive monotonicity** — [`Archive::counter_monotonic`] must accept
//!    every non-decreasing counter column and pinpoint the first dip in any
//!    column that goes backwards (a free-running hardware counter never
//!    does; a dip in an archive means the recorder is broken).
//! 2. **Counter conservation** — for arbitrary GEMM/GEMV/FFT-resort
//!    shapes, the per-channel MBA byte counters must exactly equal the
//!    shadow transaction ledger the simulator keeps alongside the real
//!    accounting. `run_single`/`run_parallel` already assert this after
//!    every kernel; the explicit `verify_socket_conservation` calls here
//!    exercise the `Result` path the assertions are built on.

use proptest::prelude::*;

use papi_repro::pcp::{Archive, ArchiveRecord, InstanceId, MetricId};

/// An archive with one counter column built from per-step deltas.
fn cumulative_archive(deltas: &[u64]) -> Archive {
    let mut archive = Archive::new(vec![(MetricId(1), InstanceId(0))]);
    let mut total = 0u64;
    for (i, &d) in deltas.iter().enumerate() {
        total += d;
        archive.push(ArchiveRecord {
            time_s: i as f64,
            values: vec![total],
        });
    }
    archive
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any cumulative-sum column is accepted as monotone.
    #[test]
    fn monotone_counter_columns_pass(
        deltas in prop::collection::vec(0u64..1_000_000, 1..60)
    ) {
        prop_assert_eq!(cumulative_archive(&deltas).counter_monotonic(0), None);
    }

    /// Injecting a single dip anywhere is caught, and the reported pair
    /// names the first offending adjacent records.
    #[test]
    fn counter_dips_are_pinpointed(
        deltas in prop::collection::vec(1u64..1_000_000, 2..60),
        pos_seed in any::<u64>(),
    ) {
        let mut archive = cumulative_archive(&deltas);
        // Rebuild with a dip at record `dip` (> 0): its value drops below
        // the previous record's.
        let dip = 1 + (pos_seed as usize) % (deltas.len() - 1).max(1);
        let mut records: Vec<ArchiveRecord> = archive.records().to_vec();
        records[dip].values[0] = records[dip - 1].values[0] - 1;
        // Re-monotonize everything after the dip so the *first* offending
        // pair is unambiguous.
        for i in dip + 1..records.len() {
            let prev = records[i - 1].values[0];
            records[i].values[0] = records[i].values[0].max(prev);
        }
        archive = Archive::new(archive.metrics().to_vec());
        for r in records {
            archive.push(r);
        }
        prop_assert_eq!(archive.counter_monotonic(0), Some((dip - 1, dip)));
    }
}

mod conservation {
    use super::*;
    use papi_repro::arch::Machine;
    use papi_repro::fft3d::{ResortTrace, S2pf};
    use papi_repro::kernels::{CappedGemvTrace, GemmTrace};
    use papi_repro::memsim::SimMachine;

    /// The exact GEMM sizes the transport-equivalence tests run
    /// (`tests/pcp_vs_direct.rs`), now also checked for conservation.
    #[test]
    fn pcp_vs_direct_gemm_sizes_conserve() {
        for (n, seed) in [(160u64, 29), (192, 17), (512, 23)] {
            let mut m = SimMachine::quiet(Machine::tellico(), seed);
            let gemm = GemmTrace::allocate(&mut m, n);
            m.run_single(0, |core| gemm.run(core));
            m.verify_socket_conservation(0)
                .unwrap_or_else(|e| panic!("gemm n={n}: {e}"));
        }
    }

    proptest! {
        // The kernels dominate runtime; fewer, bigger cases.
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Square GEMM of arbitrary size conserves, with and without
        /// background noise traffic.
        #[test]
        fn gemm_shapes_conserve(n in 16u64..160, seed in 0u64..1000, noisy in any::<bool>()) {
            let mut m = if noisy {
                SimMachine::tellico(seed)
            } else {
                SimMachine::quiet(Machine::tellico(), seed)
            };
            let gemm = GemmTrace::allocate(&mut m, n);
            m.run_single(0, |core| gemm.run(core));
            prop_assert!(m.verify_socket_conservation(0).is_ok());
        }

        /// Capped GEMV of arbitrary aspect ratio conserves.
        #[test]
        fn gemv_shapes_conserve(rows in 64u64..2048, cols in 16u64..256, seed in 0u64..1000) {
            let mut m = SimMachine::quiet(Machine::tellico(), seed);
            let gemv = CappedGemvTrace::allocate(&mut m, rows, cols);
            m.run_single(0, |core| gemv.run(core));
            prop_assert!(m.verify_socket_conservation(0).is_ok());
        }

        /// The FFT's S2PF resort phase conserves for arbitrary process
        /// grids (n must divide evenly by both grid extents).
        #[test]
        fn fft_resort_shapes_conserve(
            k in 1usize..5,
            r_exp in 0u32..3,
            c_exp in 0u32..3,
            seed in 0u64..1000,
        ) {
            let (r, c) = (1usize << r_exp, 1usize << c_exp);
            let n = k * r * c * 4;
            let mut m = SimMachine::quiet(Machine::tellico(), seed);
            let s2pf = S2pf::for_grid(&mut m, n, r, c);
            m.run_single(0, |core| s2pf.run(core));
            prop_assert!(m.verify_socket_conservation(0).is_ok());
        }
    }
}
