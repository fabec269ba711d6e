//! The three workloads. Each generates its inputs from the seed during
//! set-up, measures for the run's seconds, checks outputs, and fills
//! the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run).
//!
//! A traced run sets up once with tracing on, then runs the measured
//! phase twice for half the seconds each: untraced, then traced. The
//! difference between the two is the tracing overhead.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use selective::{CheckpointBundle, SelectiveModel};
use serve::{Engine, RawWafer, Route, ServeReport, ShedReason, WaferDecision};
use telemetry::{Registry, WindowSummary};
use wafermap::{Dataset, DefectClass};

use crate::check::{self, Tally};
use crate::clock::Stopwatch;
use crate::data::{self, Lot, LOT};
use crate::metrics::{median, percentile, Metrics};
use crate::pipeline::{self, Built, FULL_BUILD, SERVING_BUILD};
use crate::replay;
use crate::trace::{Counters, Trace};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Cold starts after each `train_pipeline` build. Like the breaks
/// below, this spreads the `cold_start_s` samples over the whole run:
/// load times drift with the host over seconds, so back-to-back
/// samples share one host state.
const COLD_STARTS_PER_PIPELINE: usize = 2;
/// Wall seconds of one `train_pipeline` build and its cold starts on a
/// 2-core Xeon VM (9–11 s measured).
const BUILD_NOMINAL_S: f64 = 10.0;
/// Breaks in a serving workload's measured loop. At each, the generator
/// pauses for one cold start (and, in `serve_lots`, a slice of the
/// saturation phase), so those samples span the run as well.
const BREAKS: usize = 5;
/// `serve_lots` open-loop arrival rate: 25–33% of the 90–118 lots/s
/// capacity a 2-core Xeon VM measured when the benchmark was defined.
/// At 48 lots/s (about 45%) queueing amplified the host's run-to-run
/// speed drift into a 35–46% spread of the latency quantiles.
pub const OPEN_LOOP_LOTS_PER_S: f64 = 30.0;
/// Share of the measured seconds spent in `serve_lots`' saturation phase.
const SATURATION_SHARE: f64 = 0.15;
/// Share of the measured seconds the open-loop schedule spans.
const OPEN_LOOP_SHARE: f64 = 0.7;
/// Share of the measured seconds spent in `serve_single`'s closed loop.
const SINGLE_SHARE: f64 = 0.9;
/// A status poll (Prometheus scrape + JSON report) every this many lots.
const POLL_EVERY: usize = 8;
/// Check 1 runs on every this-many-th open-loop lot.
const CHECK_EVERY_LOT: usize = 16;
/// Check 1 runs on every this-many-th call of `serve_single`'s first pass.
const CHECK_EVERY_CALL: usize = 64;
/// Status polls timed when a workload makes none of its own.
const SCRAPE_PROBES: usize = 20;
/// Infer block of `SelectiveModel::infer_predict` (wafers per block).
const INFER_BLOCK: usize = 4;

/// State shared by a run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub trace: Trace,
    pub metrics: Metrics,
    pub tally: Tally,
    pub out_dir: PathBuf,
}

impl Ctx {
    fn setup_reps(&self) -> usize {
        if self.traced {
            1
        } else {
            SETUP_REPS
        }
    }

    fn path(&self, suffix: &str) -> PathBuf {
        self.out_dir.join(format!("{}-seed{}.{suffix}", self.workload, self.seed))
    }

    /// Run `phase` for the run's seconds; in a traced run, for half of
    /// them untraced and then half traced. Returns (last, untraced).
    fn measure<R>(
        &mut self,
        mut phase: impl FnMut(&mut Ctx, f64) -> Result<R, String>,
    ) -> Result<(R, Option<R>), String> {
        if !self.traced {
            return Ok((phase(self, self.seconds)?, None));
        }
        self.trace.enable(false);
        let untraced = phase(self, self.seconds / 2.0)?;
        self.trace.enable(true);
        Ok((phase(self, self.seconds / 2.0)?, Some(untraced)))
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn span_median(trace: &Trace, name: &str) -> Result<f64, String> {
    let d = trace.durations(name);
    if d.is_empty() {
        return Err(format!("no `{name}` span was recorded"));
    }
    Ok(median(&d))
}

fn route_label(route: Route) -> Option<DefectClass> {
    match route {
        Route::Predicted(c) | Route::Abstained(c) => Some(c),
        Route::Shed(_) => None,
    }
}

fn raw_wafers(dataset: &Dataset) -> Vec<RawWafer> {
    dataset.samples().iter().map(|s| RawWafer::from_map(&s.map)).collect()
}

/// Per-request timings of a serving loop, in seconds.
#[derive(Default)]
struct RequestLog {
    latency: Vec<f64>,
    queue_wait: Vec<f64>,
    submit: Vec<f64>,
    scrape: Vec<f64>,
    wafers: u64,
    /// Counters summed over the `submit_raw` calls, and the scratch
    /// growths of the first call (the warm-up).
    counters: Counters,
    first_grows: u64,
    /// Inputs kept for the post-loop `infer_predict` and validation probes.
    samples: Vec<Vec<RawWafer>>,
}

/// One timed `submit_raw` call inside a request span. `due` is when
/// the request was due to be sent.
fn submit(
    trace: &mut Trace,
    engine: &mut Engine,
    wafers: &[RawWafer],
    due: Instant,
    log: &mut RequestLog,
) -> Vec<WaferDecision> {
    trace.begin_request();
    let called = Instant::now();
    let (decisions, used) = trace.scope("bench.request", |tr| {
        tr.scope("serve.submit_raw", |_| Counters::around(|| engine.submit_raw(wafers)))
    });
    let done = Instant::now();
    trace.end_request();
    if log.latency.is_empty() {
        log.first_grows = used.scratch_grows;
    }
    log.counters = log.counters.plus(used);
    log.latency.push(secs(done.saturating_duration_since(due)));
    log.queue_wait.push(secs(called.saturating_duration_since(due)));
    log.submit.push(secs(done - called));
    log.wafers += wafers.len() as u64;
    decisions
}

/// A fresh calibrated engine for a measured phase.
fn engine_for(bundle: &CheckpointBundle, calibration: &Dataset) -> Result<Engine, String> {
    let mut engine =
        Engine::from_bundle(bundle, data::serve_config()).map_err(|e| format!("engine: {e}"))?;
    engine.calibrate(calibration, data::COVERAGE).map_err(|e| format!("calibrate: {e}"))?;
    Ok(engine)
}

/// Accuracy of a built model, served through a cold-started engine:
/// the held-out test split goes through `submit_raw` in lots (closed
/// loop), and every decision is checked against `reference.forward`.
struct Acceptance {
    test_accuracy: f64,
    selective_accuracy: f64,
    log: RequestLog,
    report: ServeReport,
}

fn accept(
    ctx: &mut Ctx,
    engine: &mut Engine,
    reference: &mut SelectiveModel,
    test: &Dataset,
) -> Result<Acceptance, String> {
    let raws = raw_wafers(test);
    let labels: Vec<DefectClass> = test.samples().iter().map(|s| s.label).collect();
    let mut log = RequestLog::default();
    let (mut correct, mut predicted, mut predicted_correct) = (0usize, 0usize, 0usize);
    for (lot, truth) in raws.chunks(LOT).zip(labels.chunks(LOT)) {
        let decisions = submit(&mut ctx.trace, engine, lot, Instant::now(), &mut log);
        for (d, &t) in decisions.iter().zip(truth) {
            let hit = route_label(d.route) == Some(t);
            correct += usize::from(hit);
            if d.selected() {
                predicted += 1;
                predicted_correct += usize::from(hit);
            }
        }
        ctx.tally.op(check::decisions_match(reference, engine, lot, None, &decisions));
        log.samples.push(lot.to_vec());
    }
    ctx.tally.check(check::ledger_balances(engine, raws.len() as u64));
    if predicted == 0 {
        return Err("acceptance: the model selected no test wafer".into());
    }
    Ok(Acceptance {
        test_accuracy: correct as f64 / raws.len() as f64,
        selective_accuracy: predicted_correct as f64 / predicted as f64,
        log,
        report: engine.report(),
    })
}

// ---------------------------------------------------------------------------
// train_pipeline
// ---------------------------------------------------------------------------

struct PipelineRuns {
    pipeline_s: Vec<f64>,
    train_samples_per_s: Vec<f64>,
    synthetic_per_s: Vec<f64>,
    cold: Vec<f64>,
    batch: WindowSummary,
    last: Built,
    started: (Engine, CheckpointBundle),
}

/// Builds per measured phase: one per [`BUILD_NOMINAL_S`] of the
/// budget, at least one. A fixed count keeps the work, the cold-start
/// samples and the memory high-water mark the same on every run;
/// with a time budget a run did one build or two depending on the
/// host's speed at the time.
fn builds_for(budget: f64) -> usize {
    ((budget / BUILD_NOMINAL_S) as usize).max(1)
}

/// The offline model build, repeated for the run's seconds, each build
/// followed by cold starts of the bundle it saved.
pub fn train_pipeline(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let mut setup_s = Vec::new();
    let mut held_out = None;
    for _ in 0..ctx.setup_reps() {
        let t = Stopwatch::start();
        held_out = Some(generate_held_out(&mut ctx.trace, seed));
        setup_s.push(t.seconds());
    }
    let (calibration, evaluation) = held_out.expect("at least one set-up");
    let path = ctx.path("bundle");
    let (runs, untraced) = ctx.measure(|ctx, budget| {
        let registry = Registry::new();
        let (mut pipeline_s, mut train_sps, mut synth_ps) = (Vec::new(), Vec::new(), Vec::new());
        let mut cold = Vec::new();
        let mut started = None;
        let mut last = None;
        for _ in 0..builds_for(budget) {
            ctx.trace.begin_request();
            let built = ctx.trace.scope("bench.pipeline", |tr| {
                pipeline::build(tr, seed, FULL_BUILD, &path, &registry)
            });
            ctx.trace.end_request();
            let built = built?;
            ctx.tally.op(Ok(()));
            pipeline_s.push(built.pipeline_s);
            train_sps.push(built.samples_stepped as f64 / built.train_s);
            synth_ps.push(built.synthetic as f64 / built.balance_s);
            for _ in 0..COLD_STARTS_PER_PIPELINE {
                let (engine, bundle, s) =
                    pipeline::cold_start(&mut ctx.trace, &path, &calibration)?;
                ctx.tally.op(Ok(()));
                cold.push(s);
                started = Some((engine, bundle));
            }
            last = Some(built);
        }
        let batch = registry
            .histogram("train_batch_seconds", "Wall-clock time per mini-batch step", 1)
            .summary();
        Ok(PipelineRuns {
            pipeline_s,
            train_samples_per_s: train_sps,
            synthetic_per_s: synth_ps,
            cold,
            batch,
            last: last.expect("at least one build"),
            started: started.expect("each build is cold-started"),
        })
    })?;
    let PipelineRuns { last: mut built, started: (mut engine, bundle), .. } = runs;
    let cold = &runs.cold;

    let acceptance = accept(ctx, &mut engine, &mut built.model, &evaluation)?;
    let reloaded = bundle.build_model().map_err(|e| format!("reload: {e}"))?;
    let images = check::stage(&engine, &raw_wafers(&evaluation));
    ctx.tally.check(check::reload_identical(&built.model, &reloaded, &images, engine.threshold()));

    if !ctx.traced {
        let m = &mut ctx.metrics;
        m.put("setup_s", median(&setup_s), setup_s.len());
        m.put("pipeline_s", median(&runs.pipeline_s), runs.pipeline_s.len());
        m.put("train_samples_per_s", median(&runs.train_samples_per_s), runs.pipeline_s.len());
        m.put("test_accuracy", acceptance.test_accuracy, evaluation.len());
        m.put("selective_accuracy", acceptance.selective_accuracy, evaluation.len());
        m.put("cold_start_s", median(cold), cold.len());
        // The build's throughput stage: synthetic wafers per second of
        // Algorithm 1. Its requests: one mini-batch training step.
        m.put("wafers_per_s", median(&runs.synthetic_per_s), runs.pipeline_s.len());
        let b = runs.batch;
        put_latency(m, [b.p50, b.p90, b.p99], b.count as usize);
        return Ok(());
    }

    let untraced = untraced.expect("traced runs measure an untraced half");
    let overhead = median(&runs.pipeline_s) / median(&untraced.pipeline_s) - 1.0;
    let layers = Layers {
        built: &built,
        evaluation: &evaluation,
        batch: runs.batch,
        synthetic: built.synthetic,
        bundle_path: &path,
        log: &acceptance.log,
        report: &acceptance.report,
        pool_requests: built.batches as u64,
        pool_counters: built.train_counters,
        infer_block: INFER_BLOCK,
        training_roofline: true,
        overhead,
    };
    put_layers(ctx, &engine, &bundle, &layers)
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

/// What a serving workload builds during set-up.
struct ServeSetup {
    path: PathBuf,
    calibration: Dataset,
    evaluation: Dataset,
    built: Built,
    setup_s: Vec<f64>,
    pipeline_s: Vec<f64>,
    train_samples_per_s: Vec<f64>,
    batch: WindowSummary,
}

/// Generate the held-out calibration and evaluation splits.
fn generate_held_out(trace: &mut Trace, seed: u64) -> (Dataset, Dataset) {
    trace.scope("wafermap.generate_held_out", |_| {
        (data::calibration_split(seed), data::evaluation_split(seed))
    })
}

/// Build the serving bundle (2 epochs), generate the held-out splits
/// and the request stream — repeated for `setup_s`.
fn serve_setup<T>(ctx: &mut Ctx, stream: impl Fn(u64) -> T) -> Result<(ServeSetup, T), String> {
    let seed = ctx.seed;
    let path = ctx.path("bundle");
    let mut out = None;
    let (mut setup_s, mut pipeline_s, mut train_sps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ctx.setup_reps() {
        drop(out.take());
        let t = Stopwatch::start();
        let registry = Registry::new();
        let built = pipeline::build(&mut ctx.trace, seed, SERVING_BUILD, &path, &registry)?;
        let (calibration, evaluation) = generate_held_out(&mut ctx.trace, seed);
        let requests = ctx.trace.scope("wafermap.generate_stream", |_| stream(seed));
        setup_s.push(t.seconds());
        pipeline_s.push(built.pipeline_s);
        train_sps.push(built.samples_stepped as f64 / built.train_s);
        let batch = registry
            .histogram("train_batch_seconds", "Wall-clock time per mini-batch step", 1)
            .summary();
        out = Some((built, calibration, evaluation, batch, requests));
    }
    let (built, calibration, evaluation, batch, requests) = out.expect("at least one set-up");
    Ok((
        ServeSetup {
            path,
            calibration,
            evaluation,
            built,
            setup_s,
            pipeline_s,
            train_samples_per_s: train_sps,
            batch,
        },
        requests,
    ))
}

/// Request latency in ms: the median is an end-to-end metric; p90 and
/// p99 are reported with it but not bounded, since preempted time
/// slices on a shared host dominate them.
fn put_latency(m: &mut Metrics, [p50, p90, p99]: [f64; 3], samples: usize) {
    m.put("request_latency_p50_ms", p50 * 1e3, samples);
    m.put("request_latency_p90_ms", p90 * 1e3, samples);
    m.put("request_latency_p99_ms", p99 * 1e3, samples);
}

fn quantiles(samples: &[f64]) -> [f64; 3] {
    [50.0, 90.0, 99.0].map(|p| percentile(samples, p))
}

/// End-to-end metrics the serving workloads share. Accuracy comes from
/// serving the evaluation split through a cold-started engine;
/// `latency` holds the closed-loop `submit_raw` times.
fn put_serve_end_to_end(
    ctx: &mut Ctx,
    setup: &ServeSetup,
    acceptance: &Acceptance,
    cold: &[f64],
    wafers_per_s: f64,
    latency: &[f64],
) {
    let m = &mut ctx.metrics;
    m.put("setup_s", median(&setup.setup_s), setup.setup_s.len());
    m.put("pipeline_s", median(&setup.pipeline_s), setup.pipeline_s.len());
    m.put("train_samples_per_s", median(&setup.train_samples_per_s), setup.pipeline_s.len());
    m.put("test_accuracy", acceptance.test_accuracy, setup.evaluation.len());
    m.put("selective_accuracy", acceptance.selective_accuracy, setup.evaluation.len());
    m.put("cold_start_s", median(cold), cold.len());
    m.put("wafers_per_s", wafers_per_s, 1);
    put_latency(m, quantiles(latency), latency.len());
}

/// Off the serving path, Algorithm 1 is replayed once on the serving
/// bundle's training split so the traced run measures the augment
/// layer on every workload.
fn replay_augment(ctx: &mut Ctx) -> usize {
    let train = pipeline::training_split(ctx.seed);
    let augmenter = pipeline::augmenter(ctx.seed);
    let balanced = ctx.trace.scope("augment.balance", |_| augmenter.balance(&train));
    balanced.len() - train.len()
}

struct LotsPhase {
    wafers_per_s: f64,
    /// Seconds per lot in the saturation phase.
    saturated_latency: Vec<f64>,
    log: RequestLog,
    report: ServeReport,
    engine: Engine,
}

/// The Poisson open loop with status polls. At each of the [`BREAKS`]
/// the arrival clock stops while the generator cold-starts a second
/// engine and runs a slice of the saturation phase: lots back to back
/// on a third engine, closed loop.
#[allow(clippy::too_many_arguments)]
fn lots_phase(
    ctx: &mut Ctx,
    setup: &ServeSetup,
    bundle: &CheckpointBundle,
    reference: &mut SelectiveModel,
    lots: &[Lot],
    budget: f64,
    cold: &mut Vec<f64>,
) -> Result<LotsPhase, String> {
    let seed = ctx.seed;
    let count = (OPEN_LOOP_LOTS_PER_S * budget * OPEN_LOOP_SHARE).round() as usize;
    let arrivals = data::poisson_schedule(seed, OPEN_LOOP_LOTS_PER_S, count);
    let order = data::lot_order(seed, 1, lots.len(), count);
    let saturation_order = data::lot_order(seed, 0, lots.len(), 1024);
    let slice = budget * SATURATION_SHARE / BREAKS as f64;
    let breaks: Vec<usize> = (1..=BREAKS).map(|k| k * count / (BREAKS + 1)).collect();
    let mut saturation = engine_for(bundle, &setup.calibration)?;
    let (mut saturated, mut saturated_s, mut next_lot) = (0u64, 0.0, 0usize);
    let mut saturated_latency = Vec::new();

    let mut engine = engine_for(bundle, &setup.calibration)?;
    let mut log = RequestLog::default();
    let mut kept = Vec::new();
    let mut origin = Instant::now();
    for (i, (&at, &which)) in arrivals.iter().zip(&order).enumerate() {
        let due = origin + Duration::from_secs_f64(at);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let lot = &lots[which];
        let decisions = submit(&mut ctx.trace, &mut engine, &lot.wafers, due, &mut log);
        if i % POLL_EVERY == POLL_EVERY - 1 {
            let t = Instant::now();
            ctx.trace.scope("serve.scrape", |_| {
                black_box(engine.prometheus());
                black_box(engine.report_json());
            });
            log.scrape.push(secs(t.elapsed()));
        }
        if i % CHECK_EVERY_LOT == 0 {
            kept.push((which, decisions));
        } else {
            ctx.tally.op(check::shed_as_expected(lot.poisoned, &decisions));
        }
        if breaks.contains(&(i + 1)) {
            let paused = Instant::now();
            let (_, _, s) = pipeline::cold_start(&mut ctx.trace, &setup.path, &setup.calibration)?;
            ctx.tally.op(Ok(()));
            cold.push(s);
            let t = Stopwatch::start();
            let wall = Instant::now();
            while secs(wall.elapsed()) < slice {
                let lot = &lots[saturation_order[next_lot % saturation_order.len()]];
                ctx.trace.begin_request();
                let called = Instant::now();
                let decisions = ctx.trace.scope("bench.request", |tr| {
                    tr.scope("serve.submit_raw", |_| saturation.submit_raw(&lot.wafers))
                });
                saturated_latency.push(secs(called.elapsed()));
                ctx.trace.end_request();
                ctx.tally.op(check::shed_as_expected(lot.poisoned, &decisions));
                saturated += lot.wafers.len() as u64;
                next_lot += 1;
            }
            saturated_s += t.seconds();
            origin += paused.elapsed();
        }
    }
    for (which, decisions) in kept {
        let lot = &lots[which];
        ctx.tally.op(check::decisions_match(
            reference,
            &engine,
            &lot.wafers,
            lot.poisoned,
            &decisions,
        ));
        log.samples.push(lot.wafers.clone());
    }
    ctx.tally.check(check::ledger_balances(&engine, (count * LOT) as u64));
    ctx.tally.check(check::ledger_balances(&saturation, saturated));
    if saturated == 0 {
        return Err("the saturation phase served no lot".into());
    }
    let wafers_per_s = saturated as f64 / saturated_s;
    Ok(LotsPhase { wafers_per_s, saturated_latency, log, report: engine.report(), engine })
}

/// Fab lot stream: a Poisson open loop, with cold starts and the
/// closed-loop saturation phase in its breaks.
pub fn serve_lots(ctx: &mut Ctx) -> Result<(), String> {
    let (setup, lots) = serve_setup(ctx, data::lot_pool)?;
    let (mut engine, bundle, first) =
        pipeline::cold_start(&mut ctx.trace, &setup.path, &setup.calibration)?;
    ctx.tally.op(Ok(()));
    let mut cold = vec![first];
    let mut reference = bundle.build_model().map_err(|e| format!("reference model: {e}"))?;
    let acceptance = accept(ctx, &mut engine, &mut reference, &setup.evaluation)?;
    let (phase, untraced) = ctx.measure(|ctx, budget| {
        lots_phase(ctx, &setup, &bundle, &mut reference, &lots, budget, &mut cold)
    })?;
    if !ctx.traced {
        let latency = &phase.saturated_latency;
        put_serve_end_to_end(ctx, &setup, &acceptance, &cold, phase.wafers_per_s, latency);
        let [p50, p90, p99] = quantiles(&phase.log.latency);
        let n = phase.log.latency.len();
        let m = &mut ctx.metrics;
        m.put("open_loop_latency_p50_ms", p50 * 1e3, n);
        m.put("open_loop_latency_p90_ms", p90 * 1e3, n);
        m.put("open_loop_latency_p99_ms", p99 * 1e3, n);
        m.put("open_loop_lateness_p50_ms", median(&phase.log.queue_wait) * 1e3, n);
        return Ok(());
    }
    let untraced = untraced.expect("traced runs measure an untraced half");
    let overhead = median(&phase.log.latency) / median(&untraced.log.latency) - 1.0;
    let synthetic = replay_augment(ctx);
    let layers = Layers {
        built: &setup.built,
        evaluation: &setup.evaluation,
        batch: setup.batch,
        synthetic,
        bundle_path: &setup.path,
        log: &phase.log,
        report: &phase.report,
        pool_requests: phase.log.latency.len() as u64,
        pool_counters: phase.log.counters,
        infer_block: INFER_BLOCK,
        training_roofline: false,
        overhead,
    };
    put_layers(ctx, &phase.engine, &bundle, &layers)
}

struct SinglePhase {
    wafers_per_s: f64,
    log: RequestLog,
    report: ServeReport,
    engine: Engine,
}

/// One client, one wafer per call, back to back, with a cold start at
/// each of the [`BREAKS`] (excluded from the loop's time). The first
/// pass over the stream is always completed so its decision counts
/// repeat.
#[allow(clippy::too_many_arguments)]
fn single_phase(
    ctx: &mut Ctx,
    setup: &ServeSetup,
    bundle: &CheckpointBundle,
    reference: &mut SelectiveModel,
    stream: &[(RawWafer, DefectClass)],
    budget: f64,
    cold: &mut Vec<f64>,
) -> Result<SinglePhase, String> {
    let window = budget * SINGLE_SHARE;
    let mut engine = engine_for(bundle, &setup.calibration)?;
    let mut log = RequestLog::default();
    let mut kept = Vec::new();
    let mut first_pass = None;
    let start = Instant::now();
    let net = Stopwatch::start();
    // Wall seconds paused for cold starts (for the loop's time budget),
    // and the same pauses as the stopwatch counts them.
    let (mut paused, mut paused_net) = (0.0, 0.0);
    let mut breaks = 0;
    let mut due = start;
    let mut i = 0;
    while i < stream.len() || secs(start.elapsed()) - paused < window {
        let wafer = std::slice::from_ref(&stream[i % stream.len()].0);
        let decisions = submit(&mut ctx.trace, &mut engine, wafer, due, &mut log);
        if i < stream.len() && i % CHECK_EVERY_CALL == 0 {
            kept.push((i, decisions));
        } else {
            ctx.tally.op(check::shed_as_expected(None, &decisions));
        }
        i += 1;
        if i == stream.len() {
            first_pass = Some(engine.report());
        }
        let active = secs(start.elapsed()) - paused;
        if breaks < BREAKS && active >= window * (breaks + 1) as f64 / (BREAKS + 1) as f64 {
            let t = Instant::now();
            let (_, _, s) = pipeline::cold_start(&mut ctx.trace, &setup.path, &setup.calibration)?;
            ctx.tally.op(Ok(()));
            cold.push(s);
            breaks += 1;
            paused += secs(t.elapsed());
            paused_net += s;
        }
        due = Instant::now();
    }
    let wafers_per_s = i as f64 / (net.seconds() - paused_net);
    for (at, decisions) in kept {
        let wafer = std::slice::from_ref(&stream[at].0);
        ctx.tally.op(check::decisions_match(reference, &engine, wafer, None, &decisions));
        log.samples.push(wafer.to_vec());
    }
    ctx.tally.check(check::ledger_balances(&engine, i as u64));
    let report = first_pass.expect("the first pass always completes");
    Ok(SinglePhase { wafers_per_s, log, report, engine })
}

/// One client sending single in-distribution wafers.
pub fn serve_single(ctx: &mut Ctx) -> Result<(), String> {
    let (setup, stream) = serve_setup(ctx, data::in_distribution)?;
    let (mut engine, bundle, first) =
        pipeline::cold_start(&mut ctx.trace, &setup.path, &setup.calibration)?;
    ctx.tally.op(Ok(()));
    let mut cold = vec![first];
    let mut reference = bundle.build_model().map_err(|e| format!("reference model: {e}"))?;
    let acceptance = accept(ctx, &mut engine, &mut reference, &setup.evaluation)?;
    let (phase, untraced) = ctx.measure(|ctx, budget| {
        single_phase(ctx, &setup, &bundle, &mut reference, &stream, budget, &mut cold)
    })?;
    if !ctx.traced {
        put_serve_end_to_end(
            ctx,
            &setup,
            &acceptance,
            &cold,
            phase.wafers_per_s,
            &phase.log.submit,
        );
        return Ok(());
    }
    let untraced = untraced.expect("traced runs measure an untraced half");
    let overhead = median(&phase.log.submit) / median(&untraced.log.submit) - 1.0;
    let synthetic = replay_augment(ctx);
    let layers = Layers {
        built: &setup.built,
        evaluation: &setup.evaluation,
        batch: setup.batch,
        synthetic,
        bundle_path: &setup.path,
        log: &phase.log,
        report: &phase.report,
        pool_requests: phase.log.latency.len() as u64,
        pool_counters: phase.log.counters,
        infer_block: 1,
        training_roofline: false,
        overhead,
    };
    put_layers(ctx, &phase.engine, &bundle, &layers)
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced run)
// ---------------------------------------------------------------------------

/// What a workload hands to the per-layer report.
struct Layers<'a> {
    built: &'a Built,
    /// Held-out wafers the replay stages its inputs from.
    evaluation: &'a Dataset,
    /// The trainer's own per-batch times (traced build).
    batch: WindowSummary,
    synthetic: usize,
    bundle_path: &'a Path,
    /// The traced serving loop.
    log: &'a RequestLog,
    /// Report whose decision counts repeat for a seed.
    report: &'a ServeReport,
    /// Requests and counters for the pool ratios: training batches on
    /// `train_pipeline`, served requests elsewhere.
    pool_requests: u64,
    pool_counters: Counters,
    /// Infer block the replay and reconciliation use.
    infer_block: usize,
    /// Roofline columns for the training forward (else the infer pass).
    training_roofline: bool,
    /// Traced minus untraced headline metric, as a share of untraced.
    overhead: f64,
}

fn put_layers(
    ctx: &mut Ctx,
    engine: &Engine,
    bundle: &CheckpointBundle,
    l: &Layers<'_>,
) -> Result<(), String> {
    let tau = engine.threshold();
    let reference = bundle.build_model().map_err(|e| format!("reference model: {e}"))?;
    let config = *reference.config();

    // selective: staged inputs of the sampled requests through infer_predict.
    let staged: Vec<nn::Tensor> = l.log.samples.iter().map(|w| check::stage(engine, w)).collect();
    let infer: Vec<f64> = staged
        .iter()
        .map(|images| {
            ctx.trace.scope("selective.infer_predict", |_| {
                let t = Instant::now();
                black_box(reference.infer_predict(images, tau));
                secs(t.elapsed())
            })
        })
        .collect();
    let validate: Vec<f64> = l
        .log
        .samples
        .iter()
        .map(|wafers| {
            ctx.trace.scope("serve.validate_raw", |_| {
                let t = Instant::now();
                for w in wafers {
                    let _ = black_box(engine.validate_raw(w));
                }
                secs(t.elapsed()) / wafers.len() as f64
            })
        })
        .collect();
    let scrape = if l.log.scrape.is_empty() {
        (0..SCRAPE_PROBES)
            .map(|_| {
                ctx.trace.scope("serve.scrape", |_| {
                    let t = Instant::now();
                    black_box(engine.prometheus());
                    black_box(engine.report_json());
                    secs(t.elapsed())
                })
            })
            .collect()
    } else {
        l.log.scrape.clone()
    };

    // nn: replay at batch 32 and at the infer block, reconciled with the
    // trainer's batch time and a measured single-block infer_predict.
    let test = raw_wafers(l.evaluation);
    let train_images = check::stage(engine, &test[..32]);
    let block_images = check::stage(engine, &test[..l.infer_block]);
    let block: Vec<f64> = (0..100)
        .map(|_| {
            let t = Instant::now();
            black_box(reference.infer_predict(&block_images, tau));
            secs(t.elapsed())
        })
        .collect();
    let replayed = replay::replay(
        &mut ctx.trace,
        &train_images,
        &block_images,
        data::seed_for(ctx.seed, data::tag::REPLAY),
    );

    let trace = &ctx.trace;
    let m = &mut ctx.metrics;
    m.put("wafermap.generate_s", span_median(trace, "wafermap.generate")?, 1);
    m.put("augment.balance_s", span_median(trace, "augment.balance")?, 1);
    m.put("augment.synthetic_wafers", l.synthetic as f64, 1);
    m.put("selective.train_s", span_median(trace, "selective.train")?, 1);
    m.put("selective.train_batch_p50_ms", l.batch.p50 * 1e3, l.batch.count as usize);
    m.put("selective.train_batch_p99_ms", l.batch.p99 * 1e3, l.batch.count as usize);
    m.put("selective.bundle_save_s", span_median(trace, "selective.bundle_save")?, 1);
    m.put("selective.bundle_load_s", span_median(trace, "selective.bundle_load")?, 1);
    let bytes = std::fs::metadata(l.bundle_path).map_err(|e| format!("bundle size: {e}"))?.len();
    m.put("selective.bundle_bytes", bytes as f64, 1);
    m.put("selective.infer_predict_ms", median(&infer) * 1e3, infer.len());
    let batches = l.built.batches as f64;
    m.put("selective.allocs_per_train_batch", l.built.train_counters.allocs as f64 / batches, 1);
    m.put(
        "selective.alloc_bytes_per_train_batch",
        l.built.train_counters.alloc_bytes as f64 / batches,
        1,
    );

    let roofline_batch = if l.training_roofline { 32 } else { l.infer_block };
    replayed.put(m, &config, roofline_batch, l.training_roofline);
    let train_batch = l.batch.p50;
    m.put(
        "nn.reconcile_residual_frac.train",
        (train_batch - replayed.train_sum_s) / train_batch,
        1,
    );
    let block_s = median(&block);
    m.put("nn.reconcile_residual_frac.infer", (block_s - replayed.infer_sum_s) / block_s, 1);
    let requests = l.pool_requests.max(1) as f64;
    m.put("nn.pool.chunks_per_request", l.pool_counters.pool_chunks as f64 / requests, 1);
    m.put(
        "nn.pool.serial_regions_per_request",
        l.pool_counters.pool_serial_regions as f64 / requests,
        1,
    );
    let grows = l.log.counters.scratch_grows - l.log.first_grows;
    m.put("nn.workspace.grows_steady", grows as f64, 1);

    let submit_ms = median(&l.log.submit) * 1e3;
    m.put("serve.submit_ms", submit_ms, l.log.submit.len());
    m.put("serve.queue_wait_ms", median(&l.log.queue_wait) * 1e3, l.log.queue_wait.len());
    m.put("serve.overhead_ms", submit_ms - median(&infer) * 1e3, infer.len());
    m.put("serve.validate_us_per_wafer", median(&validate) * 1e6, validate.len());
    m.put("serve.scrape_ms", median(&scrape) * 1e3, scrape.len());
    m.put("serve.engine_build_s", span_median(trace, "serve.engine_build")?, 1);
    m.put("serve.calibrate_s", span_median(trace, "serve.calibrate")?, 1);
    let wafers = l.log.wafers.max(1) as f64;
    m.put("serve.allocs_per_wafer", l.log.counters.allocs as f64 / wafers, 1);
    m.put("serve.alloc_bytes_per_wafer", l.log.counters.alloc_bytes as f64 / wafers, 1);
    let s = &l.report.serving;
    let shed_invalid = s
        .shed_per_reason
        .iter()
        .filter(|c| c.reason == ShedReason::InvalidInput.as_str())
        .map(|c| c.count)
        .sum::<u64>();
    m.put("serve.predicted", s.predicted as f64, 1);
    m.put("serve.abstained", s.abstained as f64, 1);
    m.put("serve.shed_invalid", shed_invalid as f64, 1);
    m.put("serve.alarms", l.report.alarms as f64, 1);
    m.put("serve.coverage", s.predicted as f64 / (s.predicted + s.abstained).max(1) as f64, 1);

    let self_times = trace.self_seconds_by_layer();
    for layer in ["wafermap", "augment", "selective", "nn", "serve", "bench"] {
        let own = self_times.iter().find(|(name, _)| *name == layer).map_or(0.0, |&(_, s)| s);
        m.put(&format!("{layer}.self_s"), own, 1);
    }
    m.put("trace.overhead_frac", l.overhead, 1);
    m.put("trace.spans", trace.span_count() as f64, 1);
    Ok(())
}
