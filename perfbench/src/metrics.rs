//! Metric names, units and summary statistics.

/// End-to-end metrics, reported by every untraced run. Must match the
/// `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pipeline_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("test_accuracy", "ratio"),
    ("selective_accuracy", "ratio"),
    ("cold_start_s", "s"),
    ("wafers_per_s", "1/s"),
    ("request_latency_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run. Must match the
/// `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wafermap.generate_s", "s"),
    ("augment.balance_s", "s"),
    ("augment.synthetic_wafers", "count"),
    ("selective.train_s", "s"),
    ("selective.train_batch_p50_ms", "ms"),
    ("selective.train_batch_p99_ms", "ms"),
    ("selective.bundle_save_s", "s"),
    ("selective.bundle_load_s", "s"),
    ("selective.bundle_bytes", "B"),
    ("selective.infer_predict_ms", "ms"),
    ("selective.allocs_per_train_batch", "count"),
    ("selective.alloc_bytes_per_train_batch", "B"),
    ("nn.conv1.fwd_ms", "ms"),
    ("nn.conv1.bwd_ms", "ms"),
    ("nn.conv1.infer_ms", "ms"),
    ("nn.conv2.fwd_ms", "ms"),
    ("nn.conv2.bwd_ms", "ms"),
    ("nn.conv2.infer_ms", "ms"),
    ("nn.conv3.fwd_ms", "ms"),
    ("nn.conv3.bwd_ms", "ms"),
    ("nn.conv3.infer_ms", "ms"),
    ("nn.relu.fwd_ms", "ms"),
    ("nn.relu.bwd_ms", "ms"),
    ("nn.relu.infer_ms", "ms"),
    ("nn.maxpool.fwd_ms", "ms"),
    ("nn.maxpool.bwd_ms", "ms"),
    ("nn.maxpool.infer_ms", "ms"),
    ("nn.fc.fwd_ms", "ms"),
    ("nn.fc.bwd_ms", "ms"),
    ("nn.fc.infer_ms", "ms"),
    ("nn.heads.fwd_ms", "ms"),
    ("nn.heads.bwd_ms", "ms"),
    ("nn.heads.infer_ms", "ms"),
    ("nn.conv1.gflops", "GFLOP/s"),
    ("nn.conv1.bytes", "B"),
    ("nn.conv2.gflops", "GFLOP/s"),
    ("nn.conv2.bytes", "B"),
    ("nn.conv3.gflops", "GFLOP/s"),
    ("nn.conv3.bytes", "B"),
    ("nn.fc.gflops", "GFLOP/s"),
    ("nn.fc.bytes", "B"),
    ("nn.gemm_ceiling_gflops", "GFLOP/s"),
    ("nn.reconcile_residual_frac.train", "ratio"),
    ("nn.reconcile_residual_frac.infer", "ratio"),
    ("nn.pool.chunks_per_request", "count"),
    ("nn.pool.serial_regions_per_request", "count"),
    ("nn.workspace.grows_steady", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.validate_us_per_wafer", "us"),
    ("serve.scrape_ms", "ms"),
    ("serve.engine_build_s", "s"),
    ("serve.calibrate_s", "s"),
    ("serve.allocs_per_wafer", "count"),
    ("serve.alloc_bytes_per_wafer", "B"),
    ("serve.predicted", "count"),
    ("serve.abstained", "count"),
    ("serve.shed_invalid", "count"),
    ("serve.alarms", "count"),
    ("serve.coverage", "ratio"),
    ("wafermap.self_s", "s"),
    ("augment.self_s", "s"),
    ("selective.self_s", "s"),
    ("nn.self_s", "s"),
    ("serve.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every metric is measured at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Metric values gathered by one run, with the sample count behind
/// each (1 for a single observation or a count).
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, usize)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.items.retain(|(n, _, _)| n != name);
        self.items.push((name.to_string(), value, samples));
    }

    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.items.iter().find(|(n, _, _)| n == name).map(|&(_, v, s)| (v, s))
    }

    /// Every metric put, in order.
    pub fn all(&self) -> impl Iterator<Item = (&str, f64, usize)> {
        self.items.iter().map(|(n, v, s)| (n.as_str(), *v, *s))
    }
}
