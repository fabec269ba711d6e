//! Replay of the Table I stack through the public `nn::layers`, at the
//! workloads' shapes: forward and backward at training batch 32, and
//! the inference-only pass at the workload's infer block. Gives the
//! per-layer times, roofline columns (FLOPs and bytes from shapes), a
//! GEMM ceiling, and the reconciliation residual against the measured
//! batch and block times.

use std::hint::black_box;
use std::time::Instant;

use nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Sigmoid};
use nn::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selective::SelectiveConfig;

use crate::metrics::{median, Metrics};
use crate::trace::Trace;

/// Replayed training steps (forward + backward at batch 32).
const TRAIN_REPS: usize = 12;
/// Replayed inference blocks.
const INFER_REPS: usize = 150;
/// Calls of the ceiling GEMM.
const GEMM_REPS: usize = 60;

/// Layer groups reported, in Table I order.
const GROUPS: [&str; 7] = ["conv1", "conv2", "conv3", "relu", "maxpool", "fc", "heads"];

/// The Table I stack as separate layers, built exactly like
/// `SelectiveModel::new` builds its trunk and heads.
struct Stack {
    conv: [Conv2d; 3],
    relu: [Relu; 3],
    pool: [MaxPool2d; 3],
    flatten: Flatten,
    fc: Linear,
    fc_relu: Relu,
    head_f: Linear,
    head_g: Linear,
    sigmoid: Sigmoid,
}

/// Per-group seconds of one pass, indexed like [`GROUPS`].
type GroupTimes = [f64; 7];

fn run<R>(trace: &mut Trace, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    trace.scope(name, |_| {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    })
}

impl Stack {
    fn new(config: &SelectiveConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let [c1, c2, c3] = config.conv_channels;
        let [k1, k2, k3] = config.kernels;
        let conv = [
            Conv2d::same(1, c1, k1, &mut rng),
            Conv2d::same(c1, c2, k2, &mut rng),
            Conv2d::same(c2, c3, k3, &mut rng),
        ];
        let fc = Linear::new(config.flat_features(), config.fc, &mut rng);
        let head_f = Linear::new(config.fc, config.n_classes, &mut rng);
        let head_g = Linear::new(config.fc, 1, &mut rng);
        Stack {
            conv,
            relu: [Relu::new(), Relu::new(), Relu::new()],
            pool: [MaxPool2d::new(2), MaxPool2d::new(2), MaxPool2d::new(2)],
            flatten: Flatten::new(),
            fc,
            fc_relu: Relu::new(),
            head_f,
            head_g,
            sigmoid: Sigmoid::new(),
        }
    }

    /// One training step's layer calls: forward, then backward.
    fn train_step(&mut self, trace: &mut Trace, images: &Tensor) -> (GroupTimes, GroupTimes) {
        let (mut fwd, mut bwd) = ([0.0; 7], [0.0; 7]);
        let mut x = images.clone();
        for b in 0..3 {
            let (y, t) = run(trace, "nn.conv.fwd", || self.conv[b].forward(&x));
            fwd[b] += t;
            let (y, t) = run(trace, "nn.relu.fwd", || self.relu[b].forward(&y));
            fwd[3] += t;
            let (y, t) = run(trace, "nn.maxpool.fwd", || self.pool[b].forward(&y));
            fwd[4] += t;
            x = y;
        }
        let (features, t) = run(trace, "nn.fc.fwd", || {
            self.fc_relu.forward(&self.fc.forward(&self.flatten.forward(&x)))
        });
        fwd[5] += t;
        let ((logits, scores), t) = run(trace, "nn.heads.fwd", || {
            (self.head_f.forward(&features), self.sigmoid.forward(&self.head_g.forward(&features)))
        });
        fwd[6] += t;

        let grad_logits = Tensor::full(logits.shape(), 1e-3);
        let grad_scores = Tensor::full(scores.shape(), 1e-3);
        let (grad, t) = run(trace, "nn.heads.bwd", || {
            let from_f = self.head_f.backward(&grad_logits);
            let from_g = self.head_g.backward(&self.sigmoid.backward(&grad_scores));
            from_f.add(&from_g)
        });
        bwd[6] += t;
        let (mut grad, t) = run(trace, "nn.fc.bwd", || {
            self.flatten.backward(&self.fc.backward(&self.fc_relu.backward(&grad)))
        });
        bwd[5] += t;
        for b in (0..3).rev() {
            let (g, t) = run(trace, "nn.maxpool.bwd", || self.pool[b].backward(&grad));
            bwd[4] += t;
            let (g, t) = run(trace, "nn.relu.bwd", || self.relu[b].backward(&g));
            bwd[3] += t;
            let (g, t) = run(trace, "nn.conv.bwd", || self.conv[b].backward(&g));
            bwd[b] += t;
            grad = g;
        }
        black_box(grad);
        (fwd, bwd)
    }

    /// One inference block's layer calls on the no-grad path.
    fn infer_block(&self, trace: &mut Trace, images: &Tensor) -> GroupTimes {
        let mut times = [0.0; 7];
        let mut x = images.clone();
        for b in 0..3 {
            let (y, t) = run(trace, "nn.conv.infer", || self.conv[b].infer(&x));
            times[b] += t;
            let (y, t) = run(trace, "nn.relu.infer", || self.relu[b].infer(&y));
            times[3] += t;
            let (y, t) = run(trace, "nn.maxpool.infer", || self.pool[b].infer(&y));
            times[4] += t;
            x = y;
        }
        let (features, t) = run(trace, "nn.fc.infer", || {
            self.fc_relu.infer(&self.fc.infer(&self.flatten.infer(&x)))
        });
        times[5] += t;
        let (out, t) = run(trace, "nn.heads.infer", || {
            (self.head_f.infer(&features), self.sigmoid.infer(&self.head_g.infer(&features)))
        });
        times[6] += t;
        black_box(out);
        times
    }
}

/// FLOPs and bytes moved (inputs + weights + outputs, f32) of one
/// forward call of a conv or fc layer at batch `n`, from its shapes.
fn roofline(config: &SelectiveConfig, group: usize, n: usize) -> (f64, f64) {
    let [c1, c2, c3] = config.conv_channels;
    let [k1, k2, k3] = config.kernels;
    let g = config.grid;
    let (inputs, weights, outputs, macs) = match group {
        0..=2 => {
            let (ci, co, k, side) =
                [(1, c1, k1, g), (c1, c2, k2, g / 2), (c2, c3, k3, g / 4)][group];
            let hw = side * side;
            (n * ci * hw, co * ci * k * k + co, n * co * hw, n * co * hw * ci * k * k)
        }
        _ => {
            let (fi, fo) = (config.flat_features(), config.fc);
            (n * fi, fi * fo + fo, n * fo, n * fi * fo)
        }
    };
    (2.0 * macs as f64, 4.0 * (inputs + weights + outputs) as f64)
}

/// Everything the replay measured.
pub struct Replay {
    /// Median per-group forward, backward and infer seconds.
    pub fwd: GroupTimes,
    pub bwd: GroupTimes,
    pub infer: GroupTimes,
    /// Median of the per-step sum of all forward + backward calls.
    pub train_sum_s: f64,
    /// Median of the per-block sum of all infer calls.
    pub infer_sum_s: f64,
    pub gemm_ceiling_gflops: f64,
}

/// Replay the stack on `train_images` (batch 32) and `infer_images`
/// (one infer block).
pub fn replay(
    trace: &mut Trace,
    train_images: &Tensor,
    infer_images: &Tensor,
    seed: u64,
) -> Replay {
    let config = SelectiveConfig::for_grid(train_images.shape()[2]);
    let mut stack = Stack::new(&config, seed);
    let _ = stack.train_step(trace, train_images);
    let steps: Vec<(GroupTimes, GroupTimes)> =
        (0..TRAIN_REPS).map(|_| stack.train_step(trace, train_images)).collect();
    let _ = stack.infer_block(trace, infer_images);
    let blocks: Vec<GroupTimes> =
        (0..INFER_REPS).map(|_| stack.infer_block(trace, infer_images)).collect();

    let per_group = |samples: &[GroupTimes]| -> GroupTimes {
        std::array::from_fn(|g| median(&samples.iter().map(|s| s[g]).collect::<Vec<_>>()))
    };
    let fwd_steps: Vec<GroupTimes> = steps.iter().map(|s| s.0).collect();
    let bwd_steps: Vec<GroupTimes> = steps.iter().map(|s| s.1).collect();
    let train_sums: Vec<f64> = steps.iter().map(|(f, b)| f.iter().chain(b).sum()).collect();
    let infer_sums: Vec<f64> = blocks.iter().map(|b| b.iter().sum()).collect();

    // Ceiling: the largest Table I GEMM, conv2's forward per sample
    // (32 output channels × 576 patch values × 256 positions).
    let (m, k, n) =
        (config.conv_channels[1], config.conv_channels[0] * 9, (config.grid / 2).pow(2));
    let a: Vec<f32> = (0..m * k).map(|i| ((i % 17) as f32 - 8.0) * 0.01).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect();
    let mut c = vec![0.0f32; m * n];
    let gemm: Vec<f64> = (0..GEMM_REPS)
        .map(|_| {
            c.fill(0.0);
            run(trace, "nn.gemm.sgemm", || {
                nn::gemm::sgemm(m, k, n, black_box(&a), black_box(&b), &mut c)
            })
            .1
        })
        .collect();
    black_box(&c);

    Replay {
        fwd: per_group(&fwd_steps),
        bwd: per_group(&bwd_steps),
        infer: per_group(&blocks),
        train_sum_s: median(&train_sums),
        infer_sum_s: median(&infer_sums),
        gemm_ceiling_gflops: 2.0 * (m * k * n) as f64 / median(&gemm) * 1e-9,
    }
}

impl Replay {
    /// Put the `nn.*` replay metrics. Roofline columns describe the
    /// workload's dominant pass: the training forward at batch 32, or
    /// the infer pass at the workload's block.
    pub fn put(
        &self,
        metrics: &mut Metrics,
        config: &SelectiveConfig,
        roofline_batch: usize,
        training: bool,
    ) {
        for (g, group) in GROUPS.iter().enumerate() {
            metrics.put(&format!("nn.{group}.fwd_ms"), self.fwd[g] * 1e3, TRAIN_REPS);
            metrics.put(&format!("nn.{group}.bwd_ms"), self.bwd[g] * 1e3, TRAIN_REPS);
            metrics.put(&format!("nn.{group}.infer_ms"), self.infer[g] * 1e3, INFER_REPS);
        }
        for (g, group) in [(0, "conv1"), (1, "conv2"), (2, "conv3"), (5, "fc")] {
            let (flops, bytes) = roofline(config, g, roofline_batch);
            let seconds = if training { self.fwd[g] } else { self.infer[g] };
            metrics.put(&format!("nn.{group}.gflops"), flops / seconds * 1e-9, 1);
            metrics.put(&format!("nn.{group}.bytes"), bytes, 1);
        }
        metrics.put("nn.gemm_ceiling_gflops", self.gemm_ceiling_gflops, GEMM_REPS);
    }
}
