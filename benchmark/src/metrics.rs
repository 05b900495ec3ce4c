//! Every metric the benchmark reports, by name and unit. `BENCHMARK.json`
//! lists the same names (a unit test keeps the two in step); README.md
//! says what each should move.

pub const WORKLOADS: [&str; 6] = [
    "catalog_quick",
    "memsim_loads",
    "memsim_stores",
    "wire_read",
    "fleet_scrape",
    "store_rw",
];

/// End-to-end metrics: reported by every workload of an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_us", "us"),
];

/// Per-layer metrics (prefix = crate): reported by every workload of a
/// traced run; a layer the workload does not exercise reads 0.
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    // memsim — memsim_loads / memsim_stores
    ("memsim.load_seq_ns_per_sector", "ns"),
    ("memsim.load_l1hit_ns", "ns"),
    ("memsim.load_chase_ns", "ns"),
    ("memsim.load_strided_ns", "ns"),
    ("memsim.store_seq_ns_per_sector", "ns"),
    ("memsim.store_dcbtst_ns_per_sector", "ns"),
    ("memsim.store_partial_ns", "ns"),
    ("memsim.run_single_us", "us"),
    ("memsim.run_parallel21_us", "us"),
    ("memsim.snapshot_ns", "ns"),
    ("memsim.flush_socket_us", "us"),
    ("memsim.machine_new_ms", "ms"),
    ("memsim.kernels_s", "s"),
    ("memsim.sim_read_bytes", "B"),
    ("memsim.sim_write_bytes", "B"),
    ("memsim.l1_hit_share", "ratio"),
    ("memsim.prefetch_fill_share", "ratio"),
    ("memsim.bypass_write_share", "ratio"),
    ("kernels.gemm448_s", "s"),
    ("kernels.gemv6144_s", "s"),
    ("kernels.measure_traffic_gemm_s", "s"),
    ("fft3d.s1cf_nest1_s", "s"),
    ("fft3d.s1cf_nest2_s", "s"),
    ("fft3d.s2cf_s", "s"),
    // papi, pcp, pcp-wire — wire_read
    ("papi.add_event_us", "us"),
    ("papi.start_us", "us"),
    ("papi.stop_us", "us"),
    ("papi.read_p50_us", "us"),
    ("papi.read_p99_us", "us"),
    ("papi.read_self_us", "us"),
    ("papi.read_direct_us", "us"),
    ("pcp.fetch_inproc_p50_us", "us"),
    ("pcp.lookup_name_us", "us"),
    ("pcp-wire.pdu_fetch_encode_ns", "ns"),
    ("pcp-wire.pdu_fetch_decode_ns", "ns"),
    ("pcp-wire.pdu_result_encode_ns", "ns"),
    ("pcp-wire.pdu_result_decode_ns", "ns"),
    ("pcp-wire.fetch_rtt_p50_us", "us"),
    ("pcp-wire.fetch_rtt_p99_us", "us"),
    ("pcp-wire.fetch_rtt_p999_us", "us"),
    ("pcp-wire.rtt_minus_codec_us", "us"),
    ("pcp-wire.busy_rejects", "count"),
    // pcp-wire, obs, fleet — fleet_scrape
    ("pcp-wire.connect_us", "us"),
    ("pcp-wire.scrape_pdu_p50_us", "us"),
    ("pcp-wire.scrape_http_p50_us", "us"),
    ("pcp-wire.server_exposition_us", "us"),
    ("obs.render_ns_per_series", "ns"),
    ("obs.parse_ns_per_series", "ns"),
    ("obs.span_ns", "ns"),
    ("obs.registry_export_us", "us"),
    ("obs.monitor_tick_us", "us"),
    ("fleet.host_scrape_p50_us", "us"),
    ("fleet.host_scrape_p99_us", "us"),
    ("fleet.relabel_ns_per_series", "ns"),
    ("fleet.merge_ns_per_series", "ns"),
    ("fleet.merge_ref_ns_per_series", "ns"),
    ("fleet.pass_p50_ms", "ms"),
    ("fleet.pass_p95_ms", "ms"),
    ("fleet.pass_fanout_share", "ratio"),
    ("fleet.pass_merge_share", "ratio"),
    ("fleet.pass_ingest_share", "ratio"),
    ("fleet.straggler_p50_ms", "ms"),
    ("fleet.spawn_ms_per_host", "ms"),
    ("fleet.http_get_p50_ms", "ms"),
    ("fleet.merged_series", "count"),
    ("fleet.stale_hosts", "count"),
    // store — store_rw
    ("store.ingest_ns_per_sample", "ns"),
    ("store.flush_ms", "ms"),
    ("store.chunk_encode_ns_per_sample", "ns"),
    ("store.chunk_decode_ns_per_sample", "ns"),
    ("store.query_p50_us", "us"),
    ("store.query_p95_us", "us"),
    ("store.query_narrow_p50_us", "us"),
    ("store.query_narrow_p90_us", "us"),
    ("store.query_wide_p50_us", "us"),
    ("store.query_head_p50_us", "us"),
    ("store.query_ns_per_row", "ns"),
    ("store.query_rows_per_s", "1/s"),
    ("store.compact_s", "s"),
    ("store.compact_ns_per_chunk", "ns"),
    ("store.chunks_rewritten", "count"),
    ("store.segments_before", "count"),
    ("store.segments_after", "count"),
    ("store.compression_ratio", "ratio"),
    ("store.sealed_bytes", "B"),
    ("store.bytes_per_sample", "B"),
    // bench — catalog_quick, and the tracer's own cost on every workload
    ("bench.points_per_s", "1/s"),
    ("bench.runner_us_per_fixed_point", "us"),
    ("bench.catalog_sim_bytes", "B"),
    ("bench.span_ns", "ns"),
    ("bench.spans_recorded", "count"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Every per-layer metric: the fixed list plus one
/// `bench.experiment.<tag>_s` per catalog experiment.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    out.extend(
        repro_bench::experiments::TAGS
            .iter()
            .map(|t| (format!("bench.experiment.{t}_s"), "s")),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json, JsonExt};

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the outside world reads; the program
    /// must report exactly the names and units it declares.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        assert_eq!(
            names_and_units(&doc, "end_to_end"),
            own(END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect())
        );
        assert_eq!(names_and_units(&doc, "per_layer"), own(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(per_layer().len() <= 128);
    }
}
