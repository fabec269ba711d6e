//! Serving-throughput benchmark on the paper-shape model (Table I
//! architecture, 32×32 grid): batched selective inference through the
//! `serve` engine against the pre-engine serving status quo.
//!
//! Four modes over the same wafer stream and the same weights:
//!
//! - **baseline** — per-wafer `SelectiveModel::predict` calls on the
//!   legacy compute core ([`nn::pool::ComputeMode::Legacy`]): the
//!   naive-GEMM training forward pass, one wafer at a time, exactly
//!   how serving looked before the engine existed.
//! - **per_wafer** — the engine at `micro_batch = 1`: blocked GEMM +
//!   the no-grad inference path, still one wafer per call.
//! - **batched** — the engine at `micro_batch = 64`: full micro-batches
//!   fanned sample-major across the worker pool.
//! - **batched_forced_scalar** — same as batched but with the AVX2
//!   micro-kernels forced off (`WM_FORCE_SCALAR` path), isolating the
//!   SIMD contribution under serving shapes.
//!
//! The headline `speedup` is batched vs the per-wafer baseline. The
//! pool is widened to at least 4 workers so micro-batch fan-out is
//! measured even on single-core CI hosts.
//!
//! Before timing, every mode's decisions are asserted bit-identical
//! across micro-batch size, pool width, and SIMD dispatch — batching
//! is a throughput lever, never an accuracy lever.
//!
//! Latency columns follow the [`eval::ServingStats`] semantics:
//! `latency_*` is per-wafer completion time (a wafer in a micro-batch
//! counts the whole batch's wall clock — what a caller observes), and
//! `compute_*` is the per-wafer model time alone.
//!
//! Writes `BENCH_serve.json` into the current directory (run from the
//! repository root) and prints the same numbers as a table. Pass
//! `--smoke` for a fast CI-sized run (tiny stream, fewer samples).

use std::time::Instant;

use nn::pool::{self, ComputeMode};
use nn::simd;
use nn::Tensor;
use selective::{CheckpointBundle, SelectiveConfig, SelectiveModel};
use serde::Serialize;
use serve::{Engine, ServeConfig};
use wafermap::gen::SyntheticWm811k;
use wafermap::WaferMap;

#[derive(Serialize)]
struct ModeResult {
    mode: String,
    micro_batch: usize,
    wafers: u64,
    wall_ms: f64,
    throughput_wafers_per_sec: f64,
    /// Per-wafer completion latency (includes time spent riding along
    /// in a micro-batch — what a submitting caller observes).
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    /// Per-wafer model compute alone (excludes batching wait).
    compute_p50_ms: f64,
    compute_p99_ms: f64,
}

#[derive(Serialize)]
struct Report {
    description: String,
    grid: usize,
    pool_threads: usize,
    smoke: bool,
    baseline: ModeResult,
    per_wafer: ModeResult,
    batched: ModeResult,
    /// Batched engine with the SIMD micro-kernels forced off.
    batched_forced_scalar: ModeResult,
    /// Batched engine vs the per-wafer legacy baseline (the headline).
    speedup: f64,
    /// Batched engine vs the per-wafer engine (batching alone).
    speedup_vs_per_wafer_engine: f64,
    /// Batched engine vs its forced-scalar twin (SIMD alone).
    speedup_vs_forced_scalar: f64,
    /// Telemetry snapshot of the best batched engine pass (the same
    /// registry `Engine::prometheus` renders for scrapes).
    telemetry: telemetry::Snapshot,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let n = sorted_ms.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted_ms[rank - 1]
}

/// One timed pass of the pre-engine status quo: per-wafer
/// training-path `forward` calls on the legacy compute core. Returns
/// the wall clock and per-wafer latencies in milliseconds.
fn baseline_pass(bundle: &CheckpointBundle, workload: &[WaferMap]) -> (f64, Vec<f64>) {
    let grid = bundle.model_config().grid;
    let pixels = grid * grid;
    pool::set_compute_mode(ComputeMode::Legacy);
    let mut model = bundle.build_model().expect("valid bundle");
    let mut latencies = Vec::with_capacity(workload.len());
    let start = Instant::now();
    for w in workload {
        let mut data = Vec::with_capacity(pixels);
        data.extend(w.to_image());
        let image = Tensor::from_vec(data, &[1, 1, grid, grid]);
        let t = Instant::now();
        let (_, scores) = model.forward(&image);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(scores.len(), 1);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    pool::set_compute_mode(ComputeMode::Pooled);
    (wall_ms, latencies)
}

/// One timed pass of the full workload through a fresh engine at one
/// micro-batch size. Returns the wall clock and the engine's report.
fn engine_pass(
    bundle: &CheckpointBundle,
    workload: &[WaferMap],
    micro_batch: usize,
    force_scalar: bool,
) -> (f64, serve::ServeReport) {
    simd::set_force_scalar(force_scalar);
    let mut engine =
        Engine::from_bundle(bundle, ServeConfig { micro_batch, ..ServeConfig::default() })
            .expect("valid bundle");
    let start = Instant::now();
    let decisions = engine.submit(workload).expect("grid matches");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    simd::set_force_scalar(false);
    assert_eq!(decisions.len(), workload.len());
    (wall_ms, engine.report())
}

/// Engine decisions for one (micro_batch, pool width, SIMD dispatch)
/// combination.
fn decisions_under(
    bundle: &CheckpointBundle,
    workload: &[WaferMap],
    micro_batch: usize,
    threads: usize,
    force_scalar: bool,
) -> Vec<serve::WaferDecision> {
    pool::set_thread_limit(threads);
    simd::set_force_scalar(force_scalar);
    let mut engine =
        Engine::from_bundle(bundle, ServeConfig { micro_batch, ..ServeConfig::default() })
            .expect("valid bundle");
    let decisions = engine.submit(workload).expect("grid matches");
    simd::set_force_scalar(false);
    decisions
}

/// Batching, pool width, and SIMD dispatch are throughput levers, not
/// accuracy levers: every combination must route every wafer
/// identically, bit for bit (scores included — `WaferDecision` is
/// compared by `==` on its `f32` fields).
fn assert_decisions_invariant(bundle: &CheckpointBundle, workload: &[WaferMap], threads: usize) {
    let reference = decisions_under(bundle, workload, 64, threads, false);
    for (micro_batch, th, force_scalar) in
        [(1, threads, false), (17, threads, false), (64, 1, false), (64, threads, true)]
    {
        let got = decisions_under(bundle, workload, micro_batch, th, force_scalar);
        assert_eq!(
            got, reference,
            "decisions diverged at micro_batch={micro_batch}, threads={th}, \
             force_scalar={force_scalar}"
        );
    }
    pool::set_thread_limit(threads);
    println!(
        "  decisions bit-identical across micro_batch {{1, 17, 64}}, threads {{1, {threads}}}, \
         simd {{on, off}}\n"
    );
}

/// Best-of-`samples` over the four modes, **interleaved** — one
/// sample of each mode per round, so slow machine-wide drift (thermal
/// or noisy neighbors) hits every mode instead of biasing whichever
/// ran last.
fn run_modes(
    bundle: &CheckpointBundle,
    workload: &[WaferMap],
    samples: u32,
) -> (ModeResult, ModeResult, ModeResult, ModeResult, telemetry::Snapshot) {
    // Warm-up pass per mode: pages in weights and thread-local
    // scratch so the first timed sample is not an outlier.
    let _ = baseline_pass(bundle, workload);
    let _ = engine_pass(bundle, workload, 1, false);
    let _ = engine_pass(bundle, workload, 64, false);
    let _ = engine_pass(bundle, workload, 64, true);

    let mut base: Option<(f64, Vec<f64>)> = None;
    let mut eng1: Option<(f64, serve::ServeReport)> = None;
    let mut eng64: Option<(f64, serve::ServeReport)> = None;
    let mut eng64s: Option<(f64, serve::ServeReport)> = None;
    for _ in 0..samples.max(1) {
        let b = baseline_pass(bundle, workload);
        if base.as_ref().is_none_or(|cur| b.0 < cur.0) {
            base = Some(b);
        }
        let e1 = engine_pass(bundle, workload, 1, false);
        if eng1.as_ref().is_none_or(|cur| e1.0 < cur.0) {
            eng1 = Some(e1);
        }
        let e64 = engine_pass(bundle, workload, 64, false);
        if eng64.as_ref().is_none_or(|cur| e64.0 < cur.0) {
            eng64 = Some(e64);
        }
        let e64s = engine_pass(bundle, workload, 64, true);
        if eng64s.as_ref().is_none_or(|cur| e64s.0 < cur.0) {
            eng64s = Some(e64s);
        }
    }

    let (base_ms, mut base_lat) = base.expect("at least one sample");
    base_lat.sort_by(f64::total_cmp);
    let baseline = ModeResult {
        mode: "baseline (legacy per-wafer predict)".to_string(),
        micro_batch: 1,
        wafers: workload.len() as u64,
        wall_ms: base_ms,
        throughput_wafers_per_sec: workload.len() as f64 / (base_ms / 1e3),
        latency_p50_ms: percentile(&base_lat, 50.0),
        latency_p99_ms: percentile(&base_lat, 99.0),
        // One wafer per call: the whole latency is model compute.
        compute_p50_ms: percentile(&base_lat, 50.0),
        compute_p99_ms: percentile(&base_lat, 99.0),
    };
    let engine_result =
        |mode: &str, micro_batch: usize, (wall_ms, report): (f64, serve::ServeReport)| ModeResult {
            mode: mode.to_string(),
            micro_batch,
            wafers: report.serving.wafers,
            wall_ms,
            throughput_wafers_per_sec: report.serving.wafers as f64 / (wall_ms / 1e3),
            latency_p50_ms: report.serving.latency.p50 * 1e3,
            latency_p99_ms: report.serving.latency.p99 * 1e3,
            compute_p50_ms: report.serving.compute_latency.p50 * 1e3,
            compute_p99_ms: report.serving.compute_latency.p99 * 1e3,
        };
    let per_wafer = engine_result("engine micro_batch=1", 1, eng1.expect("at least one sample"));
    let (batched_ms, batched_report) = eng64.expect("at least one sample");
    let batched_telemetry = batched_report.telemetry.clone();
    let batched = engine_result("engine micro_batch=64", 64, (batched_ms, batched_report));
    let batched_scalar = engine_result(
        "engine micro_batch=64 forced-scalar",
        64,
        eng64s.expect("at least one sample"),
    );
    (baseline, per_wafer, batched, batched_scalar, batched_telemetry)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = 32;
    let (stream_scale, samples) = if smoke { (0.002, 1) } else { (0.02, 3) };

    // Micro-batch fan-out needs workers to fan out to; widen the pool
    // so the batched mode is meaningful even on single-core CI hosts.
    let threads = pool::num_threads().max(4);
    pool::set_thread_limit(threads);

    // Paper-shape model; untrained weights serve fine for a pure
    // throughput measurement (the compute path is weight-agnostic).
    let config = SelectiveConfig::for_grid(grid);
    let mut model = SelectiveModel::new(&config, 2020);
    let bundle = CheckpointBundle::export(&mut model);

    let (stream, _) = SyntheticWm811k::new(grid).scale(stream_scale).seed(2020).build();
    let workload: Vec<WaferMap> = stream.samples().iter().map(|s| s.map.clone()).collect();
    println!(
        "serve_bench: {} wafers, grid {grid}, Table I model, {} pool thread(s), simd {}{}\n",
        workload.len(),
        pool::num_threads(),
        if simd::active() { "avx2+fma" } else { "off" },
        if smoke { " [smoke]" } else { "" }
    );

    assert_decisions_invariant(&bundle, &workload, threads);

    let (baseline, per_wafer, batched, batched_forced_scalar, batched_telemetry) =
        run_modes(&bundle, &workload, samples);
    let speedup = batched.throughput_wafers_per_sec / baseline.throughput_wafers_per_sec;
    let speedup_vs_per_wafer_engine =
        batched.throughput_wafers_per_sec / per_wafer.throughput_wafers_per_sec;
    let speedup_vs_forced_scalar =
        batched.throughput_wafers_per_sec / batched_forced_scalar.throughput_wafers_per_sec;

    println!(
        "  {:<38} {:>10} {:>12} {:>10} {:>10} {:>12}",
        "mode", "wall ms", "wafers/s", "p50 ms", "p99 ms", "compute p50"
    );
    for r in [&baseline, &per_wafer, &batched, &batched_forced_scalar] {
        println!(
            "  {:<38} {:>10.1} {:>12.1} {:>10.3} {:>10.3} {:>12.3}",
            r.mode,
            r.wall_ms,
            r.throughput_wafers_per_sec,
            r.latency_p50_ms,
            r.latency_p99_ms,
            r.compute_p50_ms
        );
    }
    println!("\n  batched vs per-wafer baseline: {speedup:.2}x");
    println!("  batched vs per-wafer engine:   {speedup_vs_per_wafer_engine:.2}x");
    println!("  batched vs forced-scalar:      {speedup_vs_forced_scalar:.2}x");
    if !smoke && speedup < 2.0 {
        eprintln!("WARNING: batched speedup {speedup:.2}x below the 2x acceptance bar");
    }
    // Smoke runs are one sample over a tiny stream — enough to verify
    // plumbing, too noisy to hold a throughput ordering against.
    if !smoke {
        assert!(
            batched.throughput_wafers_per_sec > per_wafer.throughput_wafers_per_sec,
            "micro_batch=64 throughput must beat micro_batch=1"
        );
    }

    let report = Report {
        description: "selective-inference serving throughput: per-wafer legacy predict \
                      (pre-engine status quo) vs the serve engine per-wafer, batched \
                      (micro_batch=64), and batched with SIMD forced off; wall-clock \
                      best-of-samples on identical weights and workload; latency_* is \
                      per-wafer completion (includes micro-batch ride-along), compute_* \
                      is model time alone; decisions asserted bit-identical across \
                      micro-batch size, pool width, and SIMD dispatch before timing"
            .to_string(),
        grid,
        pool_threads: pool::num_threads(),
        smoke,
        baseline,
        per_wafer,
        batched,
        batched_forced_scalar,
        speedup,
        speedup_vs_per_wafer_engine,
        speedup_vs_forced_scalar,
        telemetry: batched_telemetry,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_serve.json", json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
