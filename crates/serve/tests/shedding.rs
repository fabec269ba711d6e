//! Graceful-degradation contract of the serving engine: poisoned
//! inputs, deadline pressure, and queue overflow shed wafers to the
//! reject option deterministically — while the rest of the batch is
//! served exactly as it would have been, and the books always balance.

use std::sync::Arc;
use std::time::Duration;

use faultsim::FaultPlan;
use nn::{pool, simd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selective::{CheckpointBundle, SelectiveConfig, SelectiveModel};
use serve::{Engine, RawWafer, Route, ServeConfig, ShedReason, SimClock, WaferDecision};
use wafermap::gen::{generate, GenConfig};
use wafermap::{DefectClass, WaferMap};

const GRID: usize = 16;

fn bundle(seed: u64) -> CheckpointBundle {
    let config = SelectiveConfig::for_grid(GRID).with_conv_channels([2, 2, 2]).with_fc(8);
    let mut model = SelectiveModel::new(&config, seed);
    CheckpointBundle::export(&mut model)
}

fn wafers(n: usize, seed: u64) -> Vec<WaferMap> {
    let cfg = GenConfig::new(GRID);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let class = DefectClass::from_index(i % DefectClass::COUNT).expect("valid");
            generate(class, &cfg, &mut rng)
        })
        .collect()
}

#[test]
fn poisoned_wafers_shed_while_their_neighbours_serve_unperturbed() {
    let b = bundle(31);
    let config = ServeConfig { micro_batch: 4, ..ServeConfig::default() };
    let maps = wafers(12, 32);
    let mut raw: Vec<RawWafer> = maps.iter().map(RawWafer::from_map).collect();

    // Poison a third of the stream with plan-chosen pixel faults.
    let mut plan = FaultPlan::new(33);
    let poisoned: Vec<usize> = vec![0, 5, 6, 11];
    for &i in &poisoned {
        let _ = plan.poison_pixels(&mut raw[i].pixels);
    }

    let mut engine = Engine::from_bundle(&b, config).expect("valid");
    let decisions = engine.submit_raw(&raw);
    assert_eq!(decisions.len(), 12, "one decision per submitted wafer, in order");
    for &i in &poisoned {
        assert_eq!(decisions[i].route, Route::Shed(ShedReason::InvalidInput));
        assert_eq!(decisions[i].confidence, 0.0, "shed decisions carry zeros, not NaN");
        assert_eq!(decisions[i].selection_score, 0.0);
        assert!(decisions[i].alarm.is_none());
    }

    // The surviving wafers get exactly the decisions they would have
    // gotten had the poisoned ones never been submitted.
    let valid_maps: Vec<WaferMap> = maps
        .iter()
        .enumerate()
        .filter(|(i, _)| !poisoned.contains(i))
        .map(|(_, m)| m.clone())
        .collect();
    let mut clean_engine = Engine::from_bundle(&b, config).expect("valid");
    let clean = clean_engine.submit(&valid_maps).expect("grid matches");
    let served: Vec<WaferDecision> = decisions
        .iter()
        .enumerate()
        .filter(|(i, _)| !poisoned.contains(i))
        .map(|(_, d)| *d)
        .collect();
    assert_eq!(clean, served, "a poisoned neighbour must not perturb valid decisions");
}

#[test]
fn deadline_and_queue_shedding_is_deterministic_under_the_sim_clock() {
    let b = bundle(41);
    let run = || {
        let clock = Arc::new(SimClock::with_step(Duration::from_millis(10)));
        let mut engine = Engine::from_bundle(
            &b,
            ServeConfig {
                micro_batch: 4,
                // Two clock reads fit the budget (t=10, t=20ms), the
                // third (t=30ms) breaches: 8 wafers serve, the rest of
                // the 14 model-bound shed.
                deadline: Some(0.025),
                max_queue_depth: Some(14),
                ..ServeConfig::default()
            },
        )
        .expect("valid")
        .with_clock(clock);
        engine.submit(&wafers(20, 42)).expect("grid matches")
    };

    let first = run();
    let second = run();
    assert_eq!(first, second, "sim-clock shedding must be exactly repeatable");

    let shed_with =
        |reason: ShedReason| first.iter().filter(|d| d.route == Route::Shed(reason)).count();
    assert_eq!(shed_with(ShedReason::QueueFull), 6, "20 submitted, cap 14");
    assert_eq!(shed_with(ShedReason::DeadlineExceeded), 6, "14 queued, 8 served in budget");
    assert_eq!(first.iter().filter(|d| d.shed().is_none()).count(), 8);
    // Queue shedding trims the tail; deadline shedding trims what the
    // budget could not reach — both preserve input order.
    assert!(first[..8].iter().all(|d| d.shed().is_none()));
    assert!(first[8..14].iter().all(|d| d.route == Route::Shed(ShedReason::DeadlineExceeded)));
    assert!(first[14..].iter().all(|d| d.route == Route::Shed(ShedReason::QueueFull)));
}

#[test]
fn shed_decisions_are_invariant_across_pool_width_and_simd_dispatch() {
    let b = bundle(51);
    let maps = wafers(18, 52);
    let mut raw: Vec<RawWafer> = maps.iter().map(RawWafer::from_map).collect();
    let mut plan = FaultPlan::new(53);
    for i in [2usize, 9, 15] {
        let _ = plan.poison_pixels(&mut raw[i].pixels);
    }

    let run = |threads: usize, force_scalar: bool| {
        pool::set_thread_limit(threads);
        simd::set_force_scalar(force_scalar);
        let clock = Arc::new(SimClock::with_step(Duration::from_millis(10)));
        let mut engine = Engine::from_bundle(
            &b,
            ServeConfig {
                micro_batch: 4,
                deadline: Some(0.025),
                max_queue_depth: Some(12),
                ..ServeConfig::default()
            },
        )
        .expect("valid")
        .with_clock(clock);
        let decisions = engine.submit_raw(&raw);
        simd::set_force_scalar(false);
        decisions
    };

    let baseline_threads = pool::num_threads().max(4);
    let reference = run(baseline_threads, false);
    for (threads, force_scalar) in [(1, false), (4, false), (1, true), (4, true)] {
        let got = run(threads, force_scalar);
        assert_eq!(
            got, reference,
            "decisions diverged at threads={threads}, force_scalar={force_scalar}"
        );
    }
    pool::set_thread_limit(baseline_threads);
}

#[test]
fn serving_stats_count_shed_separately_from_model_abstentions() {
    let b = bundle(61);
    let maps = wafers(10, 62);
    let mut raw: Vec<RawWafer> = maps.iter().map(RawWafer::from_map).collect();
    raw[3].pixels[0] = f32::NAN;
    raw[7].pixels[1] = 0.77;

    let mut engine = Engine::from_bundle(
        &b,
        ServeConfig { micro_batch: 4, max_queue_depth: Some(6), ..ServeConfig::default() },
    )
    .expect("valid");
    let decisions = engine.submit_raw(&raw);
    let report = engine.report();
    let s = &report.serving;

    // 10 submitted = 6 model-served + 2 invalid + 2 queue-shed.
    assert_eq!(s.submitted, 10);
    assert_eq!(s.wafers, 6);
    assert_eq!(s.shed, 4);
    assert_eq!(
        s.predicted + s.abstained,
        s.wafers,
        "model abstentions are accounted within served wafers only"
    );
    let count = |reason: ShedReason| {
        s.shed_per_reason.iter().find(|c| c.reason == reason.as_str()).map_or(0, |c| c.count)
    };
    assert_eq!(count(ShedReason::InvalidInput), 2);
    assert_eq!(count(ShedReason::QueueFull), 2);
    assert_eq!(count(ShedReason::DeadlineExceeded), 0);

    // Telemetry agrees with the stats ledger.
    let snapshot = engine.telemetry().snapshot();
    let telemetry_shed: u64 =
        snapshot.counters.iter().filter(|c| c.name == "serve_shed_total").map(|c| c.value).sum();
    assert_eq!(telemetry_shed, s.shed);
    let wafers_total = snapshot
        .counters
        .iter()
        .find(|c| c.name == "serve_wafers_total")
        .expect("counter exists")
        .value;
    assert_eq!(wafers_total, s.wafers, "shed wafers never increment the model counter");

    // The decision vector matches the ledger.
    assert_eq!(decisions.iter().filter(|d| d.shed().is_some()).count(), 4);

    // And coverage maths stay shed-free: the monitor saw exactly the
    // model-served wafers.
    assert!(report.rolling_coverage >= 0.0 && report.rolling_coverage <= 1.0);
}
