//! The per-layer metrics, each with the end-to-end metric and workload
//! it should move. The traced run reports every one of them on every
//! workload; `BENCHMARK.json` lists the same names, units and
//! directions (a test keeps the two in step).

/// One per-layer metric.
pub struct LayerMetric {
    /// Metric name, `layer.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

const GEMM: &str = "work_per_s (gemm_gflops) on gemm_journey_threads";
const KV: &str = "work_per_s (kv_ops_per_s) on kv_journey_threads";
const TABLES: &str =
    "tables_s on paper_tables_sim (run by hand, not gated; its layers are sampled in every traced run)";
const SERVE: &str =
    "run_p50_ms and work_per_s (jobs_per_s) on serve_closed_loop; not the thread workloads";
const SERVE_P50: &str = "run_p50_ms on serve_closed_loop";
const CORE_TRACE: &str = "run_p50_ms on gemm_journey_threads and kv_journey_threads";
const COUNT: &str = "exact count per journey cycle; a change moves it only by changing the work";

/// Every per-layer metric, in report order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m(
        "matrix.gemm_gflops_b128",
        "GFLOP/s",
        "higher",
        "work_per_s (gemm_gflops) on gemm_journey_threads; not kv_journey_threads",
    ),
    m(
        "matrix.gemm_gflops_b32",
        "GFLOP/s",
        "higher",
        "run_p50_ms on serve_closed_loop, by a small share",
    ),
    m(
        "matrix.seq_gemm_gflops_n1024",
        "GFLOP/s",
        "higher",
        "single-thread baseline for work_per_s (gemm_gflops) on gemm_journey_threads",
    ),
    m("core.empty_run_ms", "ms", "lower", CORE_TRACE),
    m("core.hop_us", "us", "lower", KV),
    m(
        "core.signal_us",
        "us",
        "lower",
        "work_per_s (gemm_gflops) on gemm_journey_threads, pipelined stages",
    ),
    m("core.busy_ms", "ms", "lower", CORE_TRACE),
    m("core.block_ms", "ms", "lower", CORE_TRACE),
    m("core.hop_transfer_p50_us", "us", "lower", KV),
    m("core.hop_transfer_p90_us", "us", "lower", KV),
    m("core.utilization", "ratio", "higher", GEMM),
    m("core.pipeline_fill_ms", "ms", "lower", GEMM),
    m("core.unattributed_ms", "ms", "lower", CORE_TRACE),
    m(
        "core.trace_dropped",
        "count",
        "lower",
        "must be 0; a partial trace invalidates the core trace metrics",
    ),
    m("core.sim_navp_cells_ms", "ms", "lower", TABLES),
    m("core.sim_events_per_s", "1/s", "higher", TABLES),
    m("mm.dsc1d_ms", "ms", "lower", GEMM),
    m("mm.pipe1d_ms", "ms", "lower", GEMM),
    m("mm.phase1d_ms", "ms", "lower", GEMM),
    m("mm.dsc2d_ms", "ms", "lower", GEMM),
    m("mm.pipe2d_ms", "ms", "lower", GEMM),
    m("mm.dpc2d_ms", "ms", "lower", GEMM),
    m("mm.transfers", "count", "lower", COUNT),
    m("mm.bytes", "B", "lower", COUNT),
    m("kv.seq_ms", "ms", "lower", KV),
    m("kv.dsc_ms", "ms", "lower", KV),
    m("kv.pipe_ms", "ms", "lower", KV),
    m("kv.phase_ms", "ms", "lower", KV),
    m("kv.transfers", "count", "lower", COUNT),
    m("kv.bytes", "B", "lower", COUNT),
    m("kv.compactions", "count", "lower", COUNT),
    m(
        "kv.shard_put_mops",
        "Mops/s",
        "higher",
        "work_per_s (kv_ops_per_s) on kv_journey_threads through kv_seq; not gemm_journey_threads",
    ),
    m(
        "kv.shard_get_mops",
        "Mops/s",
        "higher",
        "work_per_s (kv_ops_per_s) on kv_journey_threads through kv_seq; not gemm_journey_threads",
    ),
    m(
        "kv.shard_scan_mib_s",
        "MiB/s",
        "higher",
        "work_per_s (kv_ops_per_s) on kv_journey_threads through kv_seq; not gemm_journey_threads",
    ),
    m("sim.seq_cells_ms", "ms", "lower", TABLES),
    m("mp.sim_cells_ms", "ms", "lower", TABLES),
    m(
        "sim.virt_mismatch",
        "count",
        "lower",
        "must be 0; counted as failures",
    ),
    m("net.frame_encode_mib_s_b32", "MiB/s", "higher", SERVE_P50),
    m("net.frame_decode_mib_s_b32", "MiB/s", "higher", SERVE_P50),
    m("net.frame_decoder_mib_s_b32", "MiB/s", "higher", SERVE_P50),
    m("net.frame_encode_mib_s_b128", "MiB/s", "higher", SERVE_P50),
    m("net.frame_decode_mib_s_b128", "MiB/s", "higher", SERVE_P50),
    m("net.frame_decoder_mib_s_b128", "MiB/s", "higher", SERVE_P50),
    m("net.gemm_run_ms", "ms", "lower", SERVE),
    m("net.kv_run_ms", "ms", "lower", SERVE),
    m("serve.submit_rpc_ms", "ms", "lower", SERVE_P50),
    m("serve.queue_wait_ms", "ms", "lower", SERVE_P50),
    m("serve.result_lag_ms", "ms", "lower", SERVE_P50),
    m(
        "serve.rejected",
        "count",
        "lower",
        "must be 0; counted as failures",
    ),
    m(
        "load.trace_overhead_pct",
        "%",
        "lower",
        "cost of the traced run itself, per workload",
    ),
    m(
        "load.layer_coverage",
        "ratio",
        "higher",
        "share of the traced wall attributed to program layers, per workload",
    ),
];

/// Find a metric's definition.
pub fn find(name: &str) -> Option<&'static LayerMetric> {
    LAYER_METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let listed = per_layer.matches("\"name\"").count();
        assert_eq!(listed, LAYER_METRICS.len(), "per_layer entry count");
        for m in LAYER_METRICS {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in LAYER_METRICS.iter().enumerate() {
            assert!(
                LAYER_METRICS[i + 1..].iter().all(|b| b.name != a.name),
                "{}",
                a.name
            );
        }
    }
}
