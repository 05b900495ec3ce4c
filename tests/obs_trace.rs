//! End-to-end self-observability check: a GEMM `measure_traffic` run
//! exports a Chrome-trace document that round-trips through the
//! exporter's own parser with every span preserved.

use blas_kernels::{measure_traffic, BatchedGemmTrace, MeasureConfig, NestEvents};
use p9_memsim::SimMachine;
use papi_sim::papi::setup_node;

#[test]
fn gemm_measurement_trace_roundtrips_through_chrome_exporter() {
    let mut machine = SimMachine::summit(42);
    let setup = setup_node(&machine, Vec::new());
    let events = NestEvents::pcp(&machine);

    // Start from a clean ring so the document holds only this run.
    drop(obs::drain());

    let cfg = MeasureConfig {
        reps: 1,
        threads: 1,
        factored: true,
    };
    let sample = measure_traffic(
        &mut machine,
        &setup.papi,
        &events,
        |mach, t| BatchedGemmTrace::allocate(mach, 64, t),
        |k, tid, core| k.run_thread(tid, core),
        &cfg,
    )
    .expect("gemm measurement");
    assert!(sample.read_bytes > 0.0, "measurement must observe traffic");

    let recorded = obs::drain();
    assert!(
        recorded
            .iter()
            .any(|e| e.label == "kernels.measure_traffic"),
        "the measurement driver is traced; got {:?}",
        recorded.iter().map(|e| e.label).collect::<Vec<_>>()
    );
    assert!(
        recorded.iter().any(|e| e.label == "memsim.run_parallel"),
        "the simulator run is traced"
    );

    let doc = obs::chrome::chrome_trace_json(&recorded);
    let parsed = obs::chrome::parse_chrome_trace(&doc).expect("exporter output must parse");
    assert_eq!(parsed.len(), recorded.len(), "every event survives");
    for (p, e) in parsed.iter().zip(recorded.iter()) {
        assert_eq!(p.name, e.label);
        assert_eq!(p.tid, e.tid);
        let ts_ns = p.ts_us * 1000.0;
        assert!(
            (ts_ns - e.start_ns as f64).abs() < 1.0,
            "timestamp must survive with ns precision: {} vs {}",
            ts_ns,
            e.start_ns
        );
    }

    // The folded-stack exporter must agree on the span population
    // (instants are excluded from stacks by construction).
    let folded = obs::flame::folded_stacks(&recorded);
    assert!(!folded.is_empty(), "spans must produce folded stacks");
}
