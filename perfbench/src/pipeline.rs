//! The offline model build (generate → augment → train → save) and the
//! cold start of a saved bundle (load → engine → calibrate).

use std::path::Path;

use augment::{AugmentConfig, Augmenter};
use selective::{CheckpointBundle, SelectiveConfig, SelectiveModel, Trainer};
use serve::Engine;
use telemetry::Registry;
use wafermap::gen::SyntheticWm811k;
use wafermap::Dataset;

use crate::clock::Stopwatch;
use crate::data::{self, seed_for, tag, GRID, SCALE};
use crate::trace::{Counters, Trace};

/// How a workload builds its model.
#[derive(Clone, Copy)]
pub struct Recipe {
    /// Balance the defect classes with Algorithm 1 before training.
    pub augment: bool,
    pub epochs: usize,
}

/// `train_pipeline`'s build: the paper's pipeline, 2 epochs.
pub const FULL_BUILD: Recipe = Recipe { augment: true, epochs: 2 };
/// The serving workloads' bundle: 2 epochs on the generated split.
/// After 1 epoch, held-out accuracy still spread 12% across seeds.
pub const SERVING_BUILD: Recipe = Recipe { augment: false, epochs: 2 };

/// A built and saved model with the timings of its stages.
pub struct Built {
    pub model: SelectiveModel,
    pub pipeline_s: f64,
    pub train_s: f64,
    pub balance_s: f64,
    pub synthetic: usize,
    pub samples_stepped: usize,
    pub batches: usize,
    /// Counters accumulated during `Trainer::run` (allocations only
    /// in the traced run).
    pub train_counters: Counters,
}

/// The generated training split (869 wafers; its test split is unused).
pub fn training_split(seed: u64) -> Dataset {
    SyntheticWm811k::new(GRID).scale(SCALE).seed(seed_for(seed, tag::DATA)).build().0
}

/// Algorithm 1 with the benchmark's settings.
pub fn augmenter(seed: u64) -> Augmenter {
    Augmenter::new(
        AugmentConfig::new(data::AUGMENT_TARGET)
            .with_channels(data::AE_CHANNELS)
            .with_ae_epochs(data::AE_EPOCHS),
        seed_for(seed, tag::AUGMENT),
    )
}

/// Run the build from generation through the saved bundle at `path`.
/// The trainer records its per-batch times into `registry`.
pub fn build(
    trace: &mut Trace,
    seed: u64,
    recipe: Recipe,
    path: &Path,
    registry: &Registry,
) -> Result<Built, String> {
    let start = Stopwatch::start();
    let train = trace.scope("wafermap.generate", |_| training_split(seed));
    let (train, balance_s, synthetic) = if recipe.augment {
        let t = Stopwatch::start();
        let balanced = trace.scope("augment.balance", |_| augmenter(seed).balance(&train));
        let synthetic = balanced.len() - train.len();
        (balanced, t.seconds(), synthetic)
    } else {
        (train, 0.0, 0)
    };
    let mut model =
        SelectiveModel::new(&SelectiveConfig::for_grid(GRID), seed_for(seed, tag::INIT));
    let config = data::train_config(seed, recipe.epochs);
    let trainer = Trainer::new(config).with_telemetry(registry.clone());
    let t = Stopwatch::start();
    let (_, train_counters) =
        trace.scope("selective.train", |_| Counters::around(|| trainer.run(&mut model, &train)));
    let train_s = t.seconds();
    let bundle = CheckpointBundle::export(&mut model);
    trace
        .scope("selective.bundle_save", |_| bundle.save(path))
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    Ok(Built {
        model,
        pipeline_s: start.seconds(),
        train_s,
        balance_s,
        synthetic,
        samples_stepped: train.len() * recipe.epochs,
        batches: train.len().div_ceil(config.batch_size) * recipe.epochs,
        train_counters,
    })
}

/// Load the bundle at `path`, build an engine and calibrate τ on
/// `calibration`. Returns the engine, the bundle and the wall time.
pub fn cold_start(
    trace: &mut Trace,
    path: &Path,
    calibration: &Dataset,
) -> Result<(Engine, CheckpointBundle, f64), String> {
    let start = Stopwatch::start();
    let bundle = trace
        .scope("selective.bundle_load", |_| CheckpointBundle::load(path))
        .map_err(|e| format!("loading {}: {e}", path.display()))?;
    let mut engine = trace
        .scope("serve.engine_build", |_| Engine::from_bundle(&bundle, data::serve_config()))
        .map_err(|e| format!("engine: {e}"))?;
    trace
        .scope("serve.calibrate", |_| engine.calibrate(calibration, data::COVERAGE))
        .map_err(|e| format!("calibrate: {e}"))?;
    Ok((engine, bundle, start.seconds()))
}
