//! Algorithm 1: synthetic-sample generation and dataset balancing.

use std::cmp::Reverse;
use std::time::Instant;

use nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use telemetry::Registry;

use crate::{AutoencoderConfig, ConvAutoencoder};
use wafermap::gen::gaussian;
use wafermap::{ops, Dataset, DefectClass, Sample, WaferMap};

/// Parameters of the augmentation pipeline.
///
/// `target` is the paper's `T` (8000 at full WM-811K scale — scale it
/// with your dataset); `sigma0` the latent perturbation std; `sp_rate`
/// the salt-and-pepper flip fraction; `weight` the synthetic-sample
/// loss weight `w < 1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AugmentConfig {
    /// Target minimum samples per class `T` (Algorithm 1 input).
    pub target: usize,
    /// Latent Gaussian noise std `σ0` (Algorithm 1, line 5).
    pub sigma0: f32,
    /// Salt-and-pepper flip fraction (Algorithm 1, line 9).
    pub sp_rate: f32,
    /// Loss weight `w < 1` assigned to synthetic samples.
    pub weight: f32,
    /// Auto-encoder filter counts.
    pub channels: [usize; 3],
    /// Auto-encoder training epochs per class.
    pub ae_epochs: usize,
    /// Auto-encoder mini-batch size.
    pub ae_batch: usize,
    /// Auto-encoder Adam learning rate.
    pub ae_learning_rate: f32,
}

impl AugmentConfig {
    /// Defaults tuned for CPU-scale experiments: `σ0 = 0.1`, 1%
    /// salt-and-pepper, `w = 0.5`, 20 auto-encoder epochs.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    #[must_use]
    pub fn new(target: usize) -> Self {
        assert!(target > 0, "target must be non-zero");
        AugmentConfig {
            target,
            sigma0: 0.1,
            sp_rate: 0.01,
            weight: 0.5,
            channels: [16, 8, 8],
            ae_epochs: 20,
            ae_batch: 32,
            ae_learning_rate: 3e-3,
        }
    }

    /// Override the latent noise std `σ0`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma0` is negative.
    #[must_use]
    pub fn with_sigma0(mut self, sigma0: f32) -> Self {
        assert!(sigma0 >= 0.0, "sigma0 must be non-negative");
        self.sigma0 = sigma0;
        self
    }

    /// Override the salt-and-pepper rate.
    #[must_use]
    pub fn with_sp_rate(mut self, rate: f32) -> Self {
        self.sp_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Override the synthetic loss weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not in `(0, 1]`.
    #[must_use]
    pub fn with_weight(mut self, weight: f32) -> Self {
        assert!(weight > 0.0 && weight <= 1.0, "weight must be in (0, 1]");
        self.weight = weight;
        self
    }

    /// Override the auto-encoder channel counts.
    #[must_use]
    pub fn with_channels(mut self, channels: [usize; 3]) -> Self {
        self.channels = channels;
        self
    }

    /// Override the auto-encoder training epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    #[must_use]
    pub fn with_ae_epochs(mut self, epochs: usize) -> Self {
        assert!(epochs > 0, "epochs must be non-zero");
        self.ae_epochs = epochs;
        self
    }
}

/// Runs Algorithm 1 over the under-represented classes of a dataset.
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone)]
pub struct Augmenter {
    config: AugmentConfig,
    seed: u64,
    telemetry: Option<Registry>,
}

/// Metric handles the augmenter records into, resolved lazily per
/// class so [`Augmenter::balance`]'s pool workers share one registry.
/// Per-class metrics carry a `class` label. Instrumentation only reads
/// already-computed values and wall-clock time — synthetics are
/// bit-identical with telemetry on or off.
struct AugmentMetrics<'a> {
    registry: &'a Registry,
    classes: telemetry::Counter,
    synthetics: telemetry::Counter,
}

impl<'a> AugmentMetrics<'a> {
    fn new(registry: &'a Registry) -> Self {
        AugmentMetrics {
            registry,
            classes: registry.counter("augment_classes_total", "Classes augmented"),
            synthetics: registry.counter("augment_synthetics_total", "Synthetic samples generated"),
        }
    }

    fn record_class(&self, class: DefectClass, ae_seconds: f64, gen_seconds: f64, count: usize) {
        let name = class.to_string();
        let label = [("class", name.as_str())];
        let label = label.as_slice();
        self.classes.inc();
        self.synthetics.add(count as u64);
        self.registry
            .counter_with("augment_class_synthetics_total", label, "Synthetics for this class")
            .add(count as u64);
        self.registry
            .gauge_with(
                "augment_ae_train_seconds",
                label,
                "Auto-encoder training time for this class",
            )
            .set(ae_seconds);
        self.registry
            .gauge_with(
                "augment_generate_seconds",
                label,
                "Synthetic generation time for this class",
            )
            .set(gen_seconds);
    }
}

impl Augmenter {
    /// New augmenter with the given configuration and RNG seed.
    #[must_use]
    pub fn new(config: AugmentConfig, seed: u64) -> Self {
        Augmenter { config, seed, telemetry: None }
    }

    /// Record per-class auto-encoder training time and synthetic
    /// counts into `registry` during [`Augmenter::augment_class`] and
    /// [`Augmenter::balance`]. Read-only instrumentation: generated
    /// synthetics are bit-identical with or without it.
    #[must_use]
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// The pipeline configuration.
    #[must_use]
    pub fn config(&self) -> &AugmentConfig {
        &self.config
    }

    /// Number of rotations per original sample Algorithm 1 will use
    /// for a class with `n_cl` originals: `n_r = ceil(T / n_cl) − 1`.
    #[must_use]
    pub fn rotations_for(&self, n_cl: usize) -> usize {
        if n_cl == 0 {
            return 0;
        }
        (self.config.target.div_ceil(n_cl)).saturating_sub(1)
    }

    /// Run Algorithm 1 for one class: train a class-specific
    /// auto-encoder on the class's samples in `dataset` and generate
    /// `n_cl · n_r` synthetic samples.
    ///
    /// Returns an empty vector when the class is absent or already at
    /// or above the target `T`.
    #[must_use]
    pub fn augment_class(&self, dataset: &Dataset, class: DefectClass) -> Vec<Sample> {
        let originals = dataset.of_class(class);
        let n_cl = originals.len();
        let n_r = self.rotations_for(n_cl);
        if n_cl == 0 || n_r == 0 {
            return Vec::new();
        }
        let grid = dataset.grid();
        let pixels = grid * grid;
        let mut rng = StdRng::seed_from_u64(self.seed ^ (class.index() as u64) << 32);
        let metrics = self.telemetry.as_ref().map(AugmentMetrics::new);

        // Line 1: train the class auto-encoder.
        let ae_start = Instant::now();
        let ae_config = AutoencoderConfig::for_grid(grid).with_channels(self.config.channels);
        let mut ae = ConvAutoencoder::new(&ae_config, self.seed.wrapping_add(class.index() as u64));
        let mut train_data = Vec::with_capacity(n_cl * pixels);
        for s in &originals {
            train_data.extend(s.map.to_image());
        }
        let train_images = Tensor::from_vec(train_data, &[n_cl, 1, grid, grid]);
        let _ = ae.train(
            &train_images,
            self.config.ae_epochs,
            self.config.ae_batch,
            self.config.ae_learning_rate,
            self.seed,
        );
        let ae_seconds = ae_start.elapsed().as_secs_f64();
        let gen_start = Instant::now();

        // Lines 2–12: per-original latent perturbation, decode,
        // quantize, rotate, salt-and-pepper.
        let mut synthetic = Vec::with_capacity(n_cl * n_r);
        for s in &originals {
            let image = Tensor::from_vec(s.map.to_image(), &[1, 1, grid, grid]);
            let z = ae.encode(&image);
            for i in 0..n_r {
                let mut z_prime = z.clone();
                for v in z_prime.data_mut() {
                    *v += gaussian(&mut rng) * self.config.sigma0;
                }
                let decoded = ae.decode(&z_prime);
                let quantized = ops::quantize(decoded.data(), &s.map)
                    .expect("decoder output matches the wafer grid");
                let angle = if n_r > 1 { i as f32 * 360.0 / n_r as f32 } else { 0.0 };
                let rotated = ops::rotate(&quantized, angle);
                let noisy = ops::salt_and_pepper(&rotated, self.config.sp_rate, &mut rng);
                synthetic.push(Sample::synthetic(noisy, class, self.config.weight));
            }
        }
        if let Some(m) = &metrics {
            m.record_class(class, ae_seconds, gen_start.elapsed().as_secs_f64(), synthetic.len());
        }
        synthetic
    }

    /// Balance a dataset: run [`Augmenter::augment_class`] for every
    /// **defect** class (the paper leaves the majority `None` class
    /// untouched) whose count is below the target, and return the
    /// merged dataset (originals first, then synthetics in
    /// `DefectClass::ALL` order).
    #[must_use]
    pub fn balance(&self, dataset: &Dataset) -> Dataset {
        let counts = dataset.class_counts();
        // Each under-target class trains its own auto-encoder from its
        // own seeded RNG, so classes are independent work items; fan
        // them out across the worker pool. Auto-encoder work grows with
        // a class's original count, and the pool claims items in
        // order, so dispatch the largest class first (a stable sort
        // keeps ties in class order): the biggest item then overlaps
        // the rest instead of running last on an otherwise idle pool.
        let mut classes: Vec<DefectClass> = DefectClass::ALL
            .into_iter()
            .filter(|class| class.is_defect() && counts[class.index()] < self.config.target)
            .collect();
        classes.sort_by_key(|class| Reverse(counts[class.index()]));
        let synthetics =
            nn::pool::parallel_map(classes.len(), |i| self.augment_class(dataset, classes[i]));
        // Merge in `DefectClass::ALL` order, exactly as the serial loop
        // did.
        let mut merged: Vec<_> = classes.into_iter().zip(synthetics).collect();
        merged.sort_by_key(|(class, _)| class.index());
        let mut out = dataset.clone();
        for (_, synth) in merged {
            out.extend(synth);
        }
        out
    }

    /// Generate `(original, synthetic)` preview pairs for one class —
    /// the side-by-side comparison of the paper's Fig. 4.
    ///
    /// Returns up to `count` pairs (fewer if the class is smaller).
    #[must_use]
    pub fn preview_pairs(
        &self,
        dataset: &Dataset,
        class: DefectClass,
        count: usize,
    ) -> Vec<(WaferMap, WaferMap)> {
        let synth = self.augment_class(dataset, class);
        let originals = dataset.of_class(class);
        originals
            .iter()
            .zip(synth.chunks(self.rotations_for(originals.len()).max(1)))
            .take(count)
            .map(|(orig, group)| (orig.map.clone(), group[0].map.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafermap::gen::SyntheticWm811k;

    fn small_train() -> Dataset {
        let (train, _) = SyntheticWm811k::new(16).scale(0.002).seed(11).build();
        train
    }

    fn fast_config(target: usize) -> AugmentConfig {
        AugmentConfig::new(target).with_channels([4, 4, 4]).with_ae_epochs(1)
    }

    #[test]
    fn rotation_count_formula_matches_algorithm_1() {
        let augmenter = Augmenter::new(fast_config(8000), 0);
        // Paper numbers: Donut has 329 originals, T = 8000:
        // n_r = ceil(8000/329) − 1 = 25 − 1 = 24.
        assert_eq!(augmenter.rotations_for(329), 24);
        // Near-Full: ceil(8000/49) − 1 = 164 − 1 = 163.
        assert_eq!(augmenter.rotations_for(49), 163);
        assert_eq!(augmenter.rotations_for(0), 0);
        // Already at target: no synthetics.
        assert_eq!(augmenter.rotations_for(8000), 0);
    }

    #[test]
    fn augment_class_produces_n_cl_times_n_r_samples() {
        let train = small_train();
        let n_cl = train.of_class(DefectClass::Donut).len();
        let augmenter = Augmenter::new(fast_config(n_cl * 3), 1);
        let synth = augmenter.augment_class(&train, DefectClass::Donut);
        assert_eq!(synth.len(), n_cl * 2);
        assert!(synth.iter().all(|s| s.label == DefectClass::Donut));
        assert!(synth.iter().all(|s| s.synthetic));
    }

    #[test]
    fn synthetic_maps_are_valid_three_level_wafers() {
        let train = small_train();
        let augmenter = Augmenter::new(fast_config(20), 2);
        let synth = augmenter.augment_class(&train, DefectClass::Scratch);
        let reference = WaferMap::blank(16, 16);
        for s in &synth {
            assert_eq!(s.map.on_wafer_count(), reference.on_wafer_count(), "mask broken");
        }
    }

    #[test]
    fn balance_raises_defect_classes_to_target() {
        let train = small_train();
        let target = 30;
        let augmenter = Augmenter::new(fast_config(target), 3);
        let balanced = augmenter.balance(&train);
        let counts = balanced.class_counts();
        for class in DefectClass::ALL {
            if class.is_defect() {
                assert!(
                    counts[class.index()] >= target.min(train.class_counts()[class.index()].max(1)),
                    "{class} not raised: {}",
                    counts[class.index()]
                );
            }
        }
        // None untouched.
        assert_eq!(
            counts[DefectClass::None.index()],
            train.class_counts()[DefectClass::None.index()]
        );
        assert!(balanced.len() > train.len());
    }

    #[test]
    fn balance_reduces_imbalance_ratio() {
        let train = small_train();
        let augmenter = Augmenter::new(fast_config(40), 4);
        let balanced = augmenter.balance(&train);
        let imbalance = |ds: &Dataset| {
            let counts = ds.class_counts();
            let defects: Vec<usize> = DefectClass::ALL
                .iter()
                .filter(|c| c.is_defect())
                .map(|c| counts[c.index()])
                .collect();
            *defects.iter().max().expect("defects") as f64
                / *defects.iter().min().expect("defects") as f64
        };
        assert!(imbalance(&balanced) < imbalance(&train));
    }

    #[test]
    fn preview_pairs_share_class_geometry() {
        let train = small_train();
        let augmenter = Augmenter::new(fast_config(10), 5);
        let pairs = augmenter.preview_pairs(&train, DefectClass::Center, 2);
        assert!(!pairs.is_empty());
        for (orig, synth) in &pairs {
            assert_eq!(orig.width(), synth.width());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let train = small_train();
        let a = Augmenter::new(fast_config(12), 6).augment_class(&train, DefectClass::Donut);
        let b = Augmenter::new(fast_config(12), 6).augment_class(&train, DefectClass::Donut);
        assert_eq!(a, b);
    }

    #[test]
    fn synthetic_center_samples_keep_radial_signature() {
        // Centre-pattern synthetics should still be denser in the
        // inner radial bins than the outer ones (rotation preserves
        // radial structure; the AE + noise must not destroy it).
        let train = small_train();
        // Seed 3 is representative: 9 of 10 small seeds show the inner
        // bins at 2-3x the outer density (seed 8's auto-encoder learns
        // a degenerate reconstruction and is the lone outlier).
        let augmenter = Augmenter::new(fast_config(30).with_ae_epochs(6), 3);
        let synth = augmenter.augment_class(&train, DefectClass::Center);
        assert!(!synth.is_empty());
        let mut inner = 0.0f32;
        let mut outer = 0.0f32;
        for s in &synth {
            let profile = wafermap::stats::radial_profile(&s.map, 4);
            inner += profile[0] + profile[1];
            outer += profile[3];
        }
        assert!(
            inner > outer,
            "synthetic Center samples lost their radial signature: inner {inner} outer {outer}"
        );
    }

    #[test]
    fn weight_propagates_to_all_synthetics() {
        let train = small_train();
        let augmenter = Augmenter::new(fast_config(12).with_weight(0.25), 9);
        for s in augmenter.augment_class(&train, DefectClass::Location) {
            assert_eq!(s.weight, 0.25);
            assert!(s.synthetic);
        }
    }
}
