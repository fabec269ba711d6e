use nn::layers::{ConvBlock, Flatten, Linear, Relu, Sigmoid};
use nn::optim::Adam;
use nn::serialize::{RestoreError, StateDict};
use nn::{Layer, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{SelectiveConfig, SelectivePrediction};
use eval::{SelectiveMetrics, SelectiveOutcome};
use wafermap::Dataset;

std::thread_local! {
    /// Per-worker staging tensor for the inference path: grown once
    /// per thread to the largest block it has staged, then refilled in
    /// place for every block (the workspace memory model — see
    /// `nn::workspace`).
    static SAMPLE_STAGE: std::cell::RefCell<Tensor> = std::cell::RefCell::new(Tensor::default());
}

/// Wafers per inference block: each worker runs one batched forward
/// over a block this size (ragged tail allowed). 4 amortizes GEMM
/// packing and per-call overhead while keeping a block's activation
/// working set small enough (~100 KB at grid 32) that concurrent
/// blocks don't thrash a shared cache — larger blocks measured slower
/// on narrow hosts for exactly that reason. Block boundaries never
/// change results — only where the batch dimension is cut.
const INFER_BLOCK: usize = 4;

/// The paper's two-head selective CNN (Fig. 2).
///
/// A shared trunk (Table I) produces a feature vector; the prediction
/// head `f` maps it to class logits and the selection head `g` — one
/// sigmoid neuron — to a selection score in `(0, 1)`. At inference the
/// model predicts `argmax f(x)` when `g(x) ≥ τ` and abstains
/// otherwise.
///
/// See the crate-level docs for a full training example.
#[derive(Debug)]
pub struct SelectiveModel {
    config: SelectiveConfig,
    trunk: Sequential,
    head_f: Linear,
    head_g: Sequential,
    head_aux: Option<Linear>,
}

impl SelectiveModel {
    /// Build a freshly initialized model from a config and RNG seed.
    #[must_use]
    pub fn new(config: &SelectiveConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let [c1, c2, c3] = config.conv_channels;
        let [k1, k2, k3] = config.kernels;
        let trunk = Sequential::new()
            .with(ConvBlock::new(1, c1, k1, &mut rng))
            .with(ConvBlock::new(c1, c2, k2, &mut rng))
            .with(ConvBlock::new(c2, c3, k3, &mut rng))
            .with(Flatten::new())
            .with(Linear::new(config.flat_features(), config.fc, &mut rng))
            .with(Relu::new());
        let head_f = Linear::new(config.fc, config.n_classes, &mut rng);
        let head_g =
            Sequential::new().with(Linear::new(config.fc, 1, &mut rng)).with(Sigmoid::new());
        let head_aux = config.aux_head.then(|| Linear::new(config.fc, config.n_classes, &mut rng));
        SelectiveModel { config: *config, trunk, head_f, head_g, head_aux }
    }

    /// The architecture configuration.
    #[must_use]
    pub fn config(&self) -> &SelectiveConfig {
        &self.config
    }

    /// Total trainable parameter count (trunk + all heads).
    #[must_use]
    pub fn param_count(&mut self) -> usize {
        self.trunk.param_count()
            + self.head_f.param_count()
            + self.head_g.param_count()
            + self.head_aux.as_mut().map_or(0, Layer::param_count)
    }

    /// Whether the model carries the SelectiveNet-style auxiliary
    /// head.
    #[must_use]
    pub fn has_aux_head(&self) -> bool {
        self.head_aux.is_some()
    }

    /// Forward pass for a `[N, 1, grid, grid]` batch.
    ///
    /// Returns `(logits [N, n_classes], selection scores [N])`.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn forward(&mut self, images: &Tensor) -> (Tensor, Vec<f32>) {
        let (logits, g, _) = self.forward_full(images);
        (logits, g)
    }

    /// Forward pass returning the auxiliary head's logits as well
    /// (`None` unless the model was configured with
    /// [`SelectiveConfig::with_aux_head`]).
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn forward_full(&mut self, images: &Tensor) -> (Tensor, Vec<f32>, Option<Tensor>) {
        let shape = images.shape();
        assert_eq!(
            shape,
            &[shape[0], 1, self.config.grid, self.config.grid],
            "expected [N, 1, {g}, {g}] input",
            g = self.config.grid
        );
        let features = self.trunk.forward(images);
        let logits = self.head_f.forward(&features);
        let g = self.head_g.forward(&features);
        let aux = self.head_aux.as_mut().map(|h| h.forward(&features));
        (logits, g.into_data(), aux)
    }

    /// Backward pass given gradients for both heads.
    ///
    /// `grad_g` must have one entry per sample (gradient w.r.t. the
    /// post-sigmoid selection score).
    ///
    /// # Panics
    ///
    /// Panics if called before [`SelectiveModel::forward`] or with
    /// mismatched shapes.
    pub fn backward(&mut self, grad_logits: &Tensor, grad_g: &[f32]) {
        self.backward_full(grad_logits, grad_g, None);
    }

    /// Backward pass including an optional gradient for the auxiliary
    /// head's logits.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`, with mismatched shapes, or
    /// with `grad_aux` on a model without an auxiliary head.
    pub fn backward_full(
        &mut self,
        grad_logits: &Tensor,
        grad_g: &[f32],
        grad_aux: Option<&Tensor>,
    ) {
        let n = grad_logits.shape()[0];
        assert_eq!(grad_g.len(), n, "grad_g length mismatch");
        let grad_feat_f = self.head_f.backward(grad_logits);
        let grad_g_tensor = Tensor::from_vec(grad_g.to_vec(), &[n, 1]);
        let grad_feat_g = self.head_g.backward(&grad_g_tensor);
        let mut grad_features = grad_feat_f.add(&grad_feat_g);
        if let Some(grad_aux) = grad_aux {
            let head =
                self.head_aux.as_mut().expect("grad_aux supplied but model has no auxiliary head");
            grad_features = grad_features.add(&head.backward(grad_aux));
        }
        let _ = self.trunk.backward(&grad_features);
    }

    /// Zero all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.trunk.zero_grad();
        self.head_f.zero_grad();
        self.head_g.zero_grad();
        if let Some(aux) = &mut self.head_aux {
            aux.zero_grad();
        }
    }

    /// Apply one optimizer step over all parameters.
    pub fn step(&mut self, adam: &mut Adam) {
        match &mut self.head_aux {
            Some(aux) => {
                adam.step_multi(&mut [&mut self.trunk, &mut self.head_f, &mut self.head_g, aux])
            }
            None => {
                adam.step_multi(&mut [&mut self.trunk, &mut self.head_f, &mut self.head_g]);
            }
        }
    }

    /// Classify a batch of wafer-map images with the reject option.
    ///
    /// `threshold` is the selection cut-off τ: the model predicts when
    /// `g(x) ≥ τ` (τ = 0.5 reproduces the paper; see
    /// [`crate::calibrate_threshold`] for coverage-targeted τ). Same as
    /// [`SelectiveModel::infer_predict`].
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    #[must_use]
    pub fn predict(&self, images: &Tensor, threshold: f32) -> Vec<SelectivePrediction> {
        self.infer_predict(images, threshold)
    }

    /// Inference-only batch classification — the serving path.
    ///
    /// Bit-identical to the training [`SelectiveModel::forward`] but
    /// runs through `&self` on the no-grad [`Layer::infer`] path: no
    /// activation caches are written and samples are processed
    /// **block-major** — the batch splits into fixed
    /// [`INFER_BLOCK`]-wafer blocks, each block runs the whole network
    /// as one batched forward on its worker. Blocked forwards amortize GEMM packing and per-call
    /// overhead (one `m = 4` fc GEMM instead of four `m = 1` ones), so
    /// micro-batching pays even on a single core, while the per-block
    /// fan-out still scales across the pool.
    /// Results are independent of block boundaries and pool size: the
    /// kernels accumulate every output element in a fixed contraction
    /// order regardless of the batch dimension.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    #[must_use]
    pub fn infer_predict(&self, images: &Tensor, threshold: f32) -> Vec<SelectivePrediction> {
        self.infer_predict_timed(images, threshold).0
    }

    /// [`SelectiveModel::infer_predict`] plus per-wafer **compute**
    /// seconds: entry `i` of the second vector is the amortized model
    /// cost of sample `i` — its compute block's wall clock divided by
    /// the block size — excluding any wait for pool scheduling or for
    /// the rest of the micro-batch. The serving layer reports these
    /// alongside full queue+compute completion latencies.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    #[must_use]
    pub fn infer_predict_timed(
        &self,
        images: &Tensor,
        threshold: f32,
    ) -> (Vec<SelectivePrediction>, Vec<f64>) {
        let shape = images.shape();
        assert_eq!(
            shape,
            &[shape[0], 1, self.config.grid, self.config.grid],
            "expected [N, 1, {g}, {g}] input",
            g = self.config.grid
        );
        let n = shape[0];
        let pixels = self.config.grid * self.config.grid;
        let c = self.config.n_classes;
        let data = images.data();
        let blocks = nn::pool::parallel_map(n.div_ceil(INFER_BLOCK), |b| {
            let lo = b * INFER_BLOCK;
            let hi = ((b + 1) * INFER_BLOCK).min(n);
            let start = std::time::Instant::now();
            let preds = SAMPLE_STAGE.with(|cell| {
                let mut block = cell.borrow_mut();
                block.resize(&[hi - lo, 1, self.config.grid, self.config.grid]);
                block.data_mut().copy_from_slice(&data[lo * pixels..hi * pixels]);
                let features = self.trunk.infer(&block);
                let logits = self.head_f.infer(&features);
                let scores = self.head_g.infer(&features);
                let probs = nn::loss::softmax(&logits);
                (0..hi - lo)
                    .map(|j| {
                        let row = &probs.data()[j * c..(j + 1) * c];
                        let score = scores.data()[j];
                        SelectivePrediction {
                            label: nn::loss::argmax(row),
                            confidence: row.iter().fold(0.0f32, |m, &v| m.max(v)),
                            selection_score: score,
                            selected: score >= threshold,
                        }
                    })
                    .collect::<Vec<_>>()
            });
            let per_wafer_secs = start.elapsed().as_secs_f64() / (hi - lo) as f64;
            (preds, per_wafer_secs)
        });
        let mut preds = Vec::with_capacity(n);
        let mut secs = Vec::with_capacity(n);
        for (block_preds, per_wafer) in blocks {
            secs.resize(secs.len() + block_preds.len(), per_wafer);
            preds.extend(block_preds);
        }
        (preds, secs)
    }

    /// Selection scores `g(x)` for every sample of a dataset via the
    /// inference-only path (bit-identical to the training forward's
    /// `g`); used by the serving engine and
    /// [`SelectiveModel::selection_scores`] to calibrate τ.
    ///
    /// # Panics
    ///
    /// Panics if the dataset grid does not match the model's.
    #[must_use]
    pub fn infer_selection_scores(&self, dataset: &Dataset) -> Vec<f32> {
        assert_eq!(dataset.grid(), self.config.grid, "dataset grid mismatch");
        let samples = dataset.samples();
        nn::pool::parallel_map(samples.len(), |i| {
            SAMPLE_STAGE.with(|cell| {
                let mut image = cell.borrow_mut();
                image.resize(&[1, 1, self.config.grid, self.config.grid]);
                samples[i].map.write_image_into(image.data_mut());
                let features = self.trunk.infer(&image);
                self.head_g.infer(&features).data()[0]
            })
        })
    }

    /// Evaluate on a labeled dataset, producing selective metrics
    /// (coverage, selective accuracy, per-class coverage — the
    /// quantities of Table II).
    ///
    /// Runs [`SelectiveModel::infer_predict`] in mini-batches of 64 to
    /// bound memory.
    ///
    /// # Panics
    ///
    /// Panics if the dataset grid does not match the model's.
    #[must_use]
    pub fn evaluate(&self, dataset: &Dataset, threshold: f32) -> SelectiveMetrics {
        assert_eq!(dataset.grid(), self.config.grid, "dataset grid mismatch");
        let grid = self.config.grid;
        let mut metrics = SelectiveMetrics::new(self.config.n_classes);
        let mut images = Tensor::default();
        for chunk in dataset.samples().chunks(64) {
            images.resize(&[chunk.len(), 1, grid, grid]);
            for (slot, s) in images.data_mut().chunks_exact_mut(grid * grid).zip(chunk) {
                s.map.write_image_into(slot);
            }
            for (s, p) in chunk.iter().zip(self.infer_predict(&images, threshold)) {
                let outcome = if p.selected {
                    SelectiveOutcome::Predicted(p.label)
                } else {
                    SelectiveOutcome::Abstained
                };
                metrics.record(s.label.index(), outcome);
            }
        }
        metrics
    }

    /// Selection scores `g(x)` for every sample of a dataset (used for
    /// threshold calibration). Same as
    /// [`SelectiveModel::infer_selection_scores`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset grid does not match the model's.
    #[must_use]
    pub fn selection_scores(&self, dataset: &Dataset) -> Vec<f32> {
        self.infer_selection_scores(dataset)
    }

    /// Snapshot all parameters (including optimizer moments).
    #[must_use]
    pub fn state_dict(&mut self) -> StateDict {
        StateDict::capture(&mut ParamChain(self))
    }

    /// Restore parameters from a snapshot taken with
    /// [`SelectiveModel::state_dict`] on an identically configured
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] if the snapshot does not match this
    /// architecture.
    pub fn load_state_dict(&mut self, state: &StateDict) -> Result<(), RestoreError> {
        state.restore(&mut ParamChain(self))
    }
}

/// Adapter exposing the model's three (or four) parameter sub-trees
/// as one [`Layer`] for capture/restore in a stable order.
struct ParamChain<'a>(&'a mut SelectiveModel);

impl std::fmt::Debug for ParamChain<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ParamChain")
    }
}

impl Layer for ParamChain<'_> {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        input.clone()
    }
    fn infer(&self, input: &Tensor) -> Tensor {
        input.clone()
    }
    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.clone()
    }
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut nn::Param)) {
        self.0.trunk.visit_params(visitor);
        self.0.head_f.visit_params(visitor);
        self.0.head_g.visit_params(visitor);
        if let Some(aux) = &mut self.0.head_aux {
            aux.visit_params(visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SelectiveConfig {
        SelectiveConfig::for_grid(16).with_conv_channels([4, 4, 4]).with_fc(16)
    }

    #[test]
    fn infer_predict_matches_training_predict_bitwise() {
        let mut model = SelectiveModel::new(&tiny_config(), 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let images = Tensor::randn(&[7, 1, 16, 16], 1.0, &mut rng);
        let (logits, g) = model.forward(&images);
        let probs = nn::loss::softmax(&logits);
        let served = model.infer_predict(&images, 0.5);
        assert_eq!(g.len(), served.len());
        let c = model.config().n_classes;
        for (i, (row, b)) in probs.data().chunks_exact(c).zip(&served).enumerate() {
            assert_eq!(nn::loss::argmax(row), b.label, "label diverged at sample {i}");
            let confidence = row.iter().fold(0.0f32, |m, &v| m.max(v));
            assert_eq!(confidence.to_bits(), b.confidence.to_bits(), "confidence at sample {i}");
            assert_eq!(g[i].to_bits(), b.selection_score.to_bits(), "score at sample {i}");
            assert_eq!(g[i] >= 0.5, b.selected, "selection diverged at sample {i}");
        }
    }

    #[test]
    fn forward_shapes() {
        let mut model = SelectiveModel::new(&tiny_config(), 0);
        let x = Tensor::zeros(&[3, 1, 16, 16]);
        let (logits, g) = model.forward(&x);
        assert_eq!(logits.shape(), &[3, 9]);
        assert_eq!(g.len(), 3);
        assert!(g.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn paper_architecture_parameter_count() {
        // Table I on a 32x32 grid:
        // conv1: 64·(1·5·5)+64, conv2: 32·(64·3·3)+32, conv3: 32·(32·3·3)+32
        // fc: 256·(32·4·4)+256, f: 9·256+9, g: 1·256+1
        let mut model = SelectiveModel::new(&SelectiveConfig::for_grid(32), 0);
        let expect = (64 * 25 + 64)
            + (32 * 64 * 9 + 32)
            + (32 * 32 * 9 + 32)
            + (256 * 512 + 256)
            + (9 * 256 + 9)
            + (256 + 1);
        assert_eq!(model.param_count(), expect);
    }

    #[test]
    fn deterministic_initialization() {
        let cfg = tiny_config();
        let mut a = SelectiveModel::new(&cfg, 7);
        let mut b = SelectiveModel::new(&cfg, 7);
        let x = Tensor::full(&[1, 1, 16, 16], 0.5);
        let (la, ga) = a.forward(&x);
        let (lb, gb) = b.forward(&x);
        assert_eq!(la.data(), lb.data());
        assert_eq!(ga, gb);
    }

    #[test]
    fn predict_threshold_controls_selection() {
        let model = SelectiveModel::new(&tiny_config(), 1);
        let x = Tensor::full(&[2, 1, 16, 16], 0.5);
        let all = model.predict(&x, 0.0);
        assert!(all.iter().all(|p| p.selected));
        let none = model.predict(&x, 1.1);
        assert!(none.iter().all(|p| !p.selected));
    }

    #[test]
    fn state_dict_roundtrip_preserves_outputs() {
        let cfg = tiny_config();
        let mut a = SelectiveModel::new(&cfg, 2);
        let snap = a.state_dict();
        let mut b = SelectiveModel::new(&cfg, 99);
        b.load_state_dict(&snap).expect("same architecture");
        let x = Tensor::full(&[1, 1, 16, 16], 0.7);
        let (la, ga) = a.forward(&x);
        let (lb, gb) = b.forward(&x);
        assert_eq!(la.data(), lb.data());
        assert_eq!(ga, gb);
    }

    /// The pre-fusion trunk: Table I as separate `Conv2d`, `Relu` and
    /// `MaxPool2d` layers, the layout older bundles were written from.
    fn separate_layer_model(config: &SelectiveConfig, seed: u64) -> SelectiveModel {
        use nn::layers::{Conv2d, MaxPool2d};
        let mut rng = StdRng::seed_from_u64(seed);
        let [c1, c2, c3] = config.conv_channels;
        let [k1, k2, k3] = config.kernels;
        let trunk = Sequential::new()
            .with(Conv2d::same(1, c1, k1, &mut rng))
            .with(Relu::new())
            .with(MaxPool2d::new(2))
            .with(Conv2d::same(c1, c2, k2, &mut rng))
            .with(Relu::new())
            .with(MaxPool2d::new(2))
            .with(Conv2d::same(c2, c3, k3, &mut rng))
            .with(Relu::new())
            .with(MaxPool2d::new(2))
            .with(Flatten::new())
            .with(Linear::new(config.flat_features(), config.fc, &mut rng))
            .with(Relu::new());
        let head_f = Linear::new(config.fc, config.n_classes, &mut rng);
        let head_g =
            Sequential::new().with(Linear::new(config.fc, 1, &mut rng)).with(Sigmoid::new());
        SelectiveModel { config: *config, trunk, head_f, head_g, head_aux: None }
    }

    #[test]
    fn state_dict_moves_between_fused_and_separate_trunks() {
        let cfg = tiny_config();
        let x = Tensor::randn(&[5, 1, 16, 16], 1.0, &mut StdRng::seed_from_u64(9));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        // Fused → separate: the separate stack reproduces the trunk
        // features bit for bit on both passes.
        let mut fused = SelectiveModel::new(&cfg, 8);
        let mut separate = separate_layer_model(&cfg, 99);
        separate.load_state_dict(&fused.state_dict()).expect("same parameters, same order");
        assert_eq!(bits(&fused.trunk.infer(&x)), bits(&separate.trunk.infer(&x)));
        assert_eq!(bits(&fused.trunk.forward(&x)), bits(&separate.trunk.forward(&x)));

        // Separate → fused: a state dict captured from the old layout
        // (what existing bundles hold) restores into today's model.
        let mut old = separate_layer_model(&cfg, 10);
        let mut restored = SelectiveModel::new(&cfg, 11);
        restored.load_state_dict(&old.state_dict()).expect("existing bundles still load");
        assert_eq!(bits(&old.trunk.infer(&x)), bits(&restored.trunk.infer(&x)));
        let (old_logits, old_g) = old.forward(&x);
        let (new_logits, new_g) = restored.forward(&x);
        assert_eq!(bits(&old_logits), bits(&new_logits));
        assert_eq!(old_g, new_g);
    }

    #[test]
    fn load_rejects_mismatched_architecture() {
        let mut a = SelectiveModel::new(&tiny_config(), 3);
        let snap = a.state_dict();
        let mut b = SelectiveModel::new(&tiny_config().with_fc(8), 3);
        assert!(b.load_state_dict(&snap).is_err());
    }

    #[test]
    fn aux_head_changes_param_count_and_forward_shape() {
        let base = tiny_config();
        let with_aux = base.with_aux_head();
        let mut plain = SelectiveModel::new(&base, 5);
        let mut aux = SelectiveModel::new(&with_aux, 5);
        assert!(!plain.has_aux_head());
        assert!(aux.has_aux_head());
        assert_eq!(aux.param_count(), plain.param_count() + 16 * 9 + 9);
        let x = Tensor::full(&[2, 1, 16, 16], 0.5);
        let (_, _, aux_logits) = aux.forward_full(&x);
        assert_eq!(aux_logits.expect("aux logits").shape(), &[2, 9]);
        let (_, _, none) = plain.forward_full(&x);
        assert!(none.is_none());
    }

    #[test]
    fn aux_state_dict_roundtrips() {
        let cfg = tiny_config().with_aux_head();
        let mut a = SelectiveModel::new(&cfg, 6);
        let snap = a.state_dict();
        let mut b = SelectiveModel::new(&cfg, 77);
        b.load_state_dict(&snap).expect("same architecture");
        let x = Tensor::full(&[1, 1, 16, 16], 0.3);
        let (la, _, aa) = a.forward_full(&x);
        let (lb, _, ab) = b.forward_full(&x);
        assert_eq!(la.data(), lb.data());
        assert_eq!(aa.expect("aux").data(), ab.expect("aux").data());
        // Snapshot from aux model cannot restore into a plain model.
        let mut plain = SelectiveModel::new(&tiny_config(), 6);
        assert!(plain.load_state_dict(&snap).is_err());
    }

    #[test]
    #[should_panic(expected = "expected [N, 1, 16, 16]")]
    fn forward_validates_input_shape() {
        let mut model = SelectiveModel::new(&tiny_config(), 4);
        let _ = model.forward(&Tensor::zeros(&[1, 1, 8, 8]));
    }
}
