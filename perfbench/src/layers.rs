//! The per-layer metric catalogue: every metric the traced run prints,
//! with its unit, the end-to-end metric it should move, and where it is
//! predicted to stay flat.

/// One per-layer metric.
pub struct Layer {
    /// Metric name (`crate-or-module.quantity`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end metric(s) and workload(s) it feeds.
    pub feeds: &'static str,
    /// Where it is predicted to stay flat.
    pub flat: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, feeds: &'static str, flat: &'static str) -> Layer {
    Layer { name, unit, feeds, flat }
}

const TRAIN_FEEDS: &str = "ops_per_s, latency_p50_ms on train_quick; setup_s on serve_*";
const TRAIN_FLAT: &str =
    "latency_* and ops_per_s on serve_forecast, serve_ingest (forward-only tape, no optimizer)";
const KERNEL_FEEDS: &str =
    "ops_per_s, latency_p50_ms on train_quick; forward kernels: latency_p50_ms on serve_forecast";
const KERNEL_FLAT: &str = "backward kernels on serve_* (zero calls); latency_* on serve_ingest";
const FORECAST_FLAT: &str = "ops_per_s and latency_* on train_quick; nearly flat on serve_ingest";
const FORECAST_TAIL: &str = "forecast tail (p90/p99 in the report), latency_p50_ms on serve_forecast";
const INGEST_TAIL: &str =
    "ingest tail (p90/p99 in the report), latency_p50_ms on serve_ingest (report-only workload)";
const INGEST_FEEDS: &str = "latency_p50_ms, ops_per_s on serve_ingest (report-only workload); the ingest latency in serve_forecast's report";
const INGEST_FLAT: &str = "latency_* on serve_forecast (1 ingest per 16 requests) and train_quick";

/// Every per-layer metric, in the order the result line lists them.
///
/// Per-step values are per training step on `train_quick` (and on the
/// traced set-up fit of the serve workloads), and per rollout step for the
/// kernel and arena rows on the serve workloads.
pub const PER_LAYER: &[Layer] = &[
    layer(
        "traffic.batch_into_ms",
        "ms",
        "ops_per_s on train_quick (predicted no-move: ~0.1% of a step)",
        TRAIN_FLAT,
    ),
    layer("core.train_graph_ms", "ms", TRAIN_FEEDS, TRAIN_FLAT),
    layer("autograd.backward_ms", "ms", TRAIN_FEEDS, TRAIN_FLAT),
    layer("nn.clip_ms", "ms", TRAIN_FEEDS, TRAIN_FLAT),
    layer("nn.adam_ms", "ms", TRAIN_FEEDS, TRAIN_FLAT),
    layer("core.validate_ms", "ms", "ops_per_s on train_quick (per epoch)", TRAIN_FLAT),
    layer("train.step_ms", "ms", TRAIN_FEEDS, TRAIN_FLAT),
    layer("train.unattributed_ms", "ms", TRAIN_FEEDS, TRAIN_FLAT),
    layer("train.attributed_pct", "%", "reconciliation of train.step_ms", "-"),
    layer("tensor.matmul.calls", "count", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matmul.ms", "ms", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matmul.mb", "MB", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matmul_bt.calls", "count", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matmul_bt.ms", "ms", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matmul_bt.mb", "MB", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matmul_at.calls", "count", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matmul_at.ms", "ms", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matmul_at.mb", "MB", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matvec.calls", "count", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matvec.ms", "ms", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.matvec.mb", "MB", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.conv2d.calls", "count", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.conv2d.ms", "ms", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.conv2d.mb", "MB", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.conv2d_backward.calls", "count", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.conv2d_backward.ms", "ms", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.conv2d_backward.mb", "MB", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.zip_same.calls", "count", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.zip_same.ms", "ms", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.zip_same.mb", "MB", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.zip_broadcast.calls", "count", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.zip_broadcast.ms", "ms", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.zip_broadcast.mb", "MB", KERNEL_FEEDS, KERNEL_FLAT),
    layer("tensor.arena.alloc_kb", "KB", "peak_rss_mb, ops_per_s on train_quick", "latency_* on serve_*"),
    layer("tensor.arena.hit_ratio", "ratio", "peak_rss_mb, ops_per_s on train_quick", "latency_* on serve_*"),
    layer("serve.http_ms", "ms", "latency_p50_ms on serve_forecast", FORECAST_FLAT),
    layer("serve.engine.forecast_p50_ms", "ms", "latency_p50_ms on serve_forecast", FORECAST_FLAT),
    layer("serve.engine.forecast_p99_ms", "ms", FORECAST_TAIL, FORECAST_FLAT),
    layer("serve.batch.size", "count", "latency_p50_ms on serve_forecast", FORECAST_FLAT),
    layer("serve.batch.wait_ms", "ms", "latency_p50_ms on serve_forecast", FORECAST_FLAT),
    layer("serve.rollout_p50_ms", "ms", FORECAST_TAIL, FORECAST_FLAT),
    layer("serve.rollout_p99_ms", "ms", FORECAST_TAIL, FORECAST_FLAT),
    layer("serve.rollout_steps", "count", FORECAST_TAIL, FORECAST_FLAT),
    layer("core.infer_raw_ms", "ms", FORECAST_TAIL, FORECAST_FLAT),
    layer("serve.unattributed_ms", "ms", FORECAST_TAIL, FORECAST_FLAT),
    layer("serve.attributed_pct", "%", "reconciliation of the HTTP forecast latency", "-"),
    layer("serve.engine.ingest_p50_ms", "ms", INGEST_FEEDS, INGEST_FLAT),
    layer("serve.engine.ingest_p99_ms", "ms", INGEST_TAIL, INGEST_FLAT),
    layer("serve.ingest_wait_ms", "ms", INGEST_FEEDS, INGEST_FLAT),
    layer("serve.window.push_us", "us", INGEST_TAIL, "serve_forecast, train_quick"),
    layer("serve.quality.on_ingest_us", "us", INGEST_TAIL, "serve_forecast, train_quick"),
    layer("fft.sweep_ms", "ms", INGEST_TAIL, "serve_forecast, train_quick"),
    layer("fft.sweeps", "count", INGEST_TAIL, "serve_forecast, train_quick"),
    layer("obs.overhead_pct", "%", "traced vs untraced main metric of this workload", "-"),
];

/// Kernels whose `muse-obs` stats the traced runs report.
pub const KERNELS: [&str; 8] =
    ["matmul", "matmul_bt", "matmul_at", "matvec", "conv2d", "conv2d_backward", "zip_same", "zip_broadcast"];

/// Report lines tagging each measured per-layer value with the end-to-end
/// metric it feeds and where it should stay flat.
pub fn tagged_lines(workload: &str, metrics: &[(String, f64)]) -> Vec<String> {
    PER_LAYER
        .iter()
        .map(|l| {
            let value = metrics.iter().rev().find(|(n, _)| n == l.name).map(|&(_, v)| v);
            let shown = value.filter(|v| v.is_finite()).map_or("n/a".to_string(), |v| format!("{v:.4}"));
            format!(
                "layer {:<30} {:>12} {:<5} [{workload}] feeds: {}; flat: {}",
                l.name, shown, l.unit, l.feeds, l.flat
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for l in PER_LAYER {
            assert!(seen.insert(l.name), "duplicate {}", l.name);
            assert!(l.name.len() <= 64);
            assert!(l.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(l.name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        for k in KERNELS {
            for q in ["calls", "ms", "mb"] {
                assert!(seen.contains(format!("tensor.{k}.{q}").as_str()), "{k}.{q} missing");
            }
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let declared =
            muse_obs::json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            declared
                .get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> =
            PER_LAYER.iter().map(|l| (l.name.to_string(), l.unit.to_string())).collect();
        assert_eq!(listed("per_layer"), per_layer);
        let end_to_end: Vec<(String, String)> =
            crate::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        // Every declared workload runs; `serve_ingest` runs but is not
        // declared (report-only, see the README).
        let workloads: Vec<String> = declared
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name").to_string())
            .collect();
        assert_eq!(workloads, ["train_quick", "serve_forecast"]);
        assert!(workloads.iter().all(|w| crate::WORKLOADS.contains(&w.as_str())));
    }
}
