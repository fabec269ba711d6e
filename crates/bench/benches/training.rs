//! Training-step benchmarks: one forward+backward+Adam step of the
//! Table I selective model (batch 32), under both the plain
//! cross-entropy objective (`c0 = 1`) and the selective objective.

use criterion::{criterion_group, criterion_main, Criterion};
use nn::loss::softmax_cross_entropy;
use nn::optim::Adam;
use nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selective::{SelectiveConfig, SelectiveLoss, SelectiveModel};
use std::hint::black_box;

fn bench_training(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let batch = 32usize;
    let x = Tensor::randn(&[batch, 1, 32, 32], 1.0, &mut rng);
    let labels: Vec<usize> = (0..batch).map(|i| i % 9).collect();
    let weights = vec![1.0f32; batch];

    let mut group = c.benchmark_group("training");
    group.sample_size(10);

    group.bench_function("plain_ce_step_b32", |b| {
        let mut model = SelectiveModel::new(&SelectiveConfig::for_grid(32), 1);
        let mut adam = Adam::new(1e-3);
        b.iter(|| {
            let (logits, _) = model.forward(black_box(&x));
            let (_, grad) = softmax_cross_entropy(&logits, &labels, Some(&weights));
            model.zero_grad();
            model.backward(&grad, &vec![0.0; batch]);
            model.step(&mut adam);
        });
    });

    group.bench_function("selective_step_b32", |b| {
        let mut model = SelectiveModel::new(&SelectiveConfig::for_grid(32), 2);
        let mut adam = Adam::new(1e-3);
        let loss = SelectiveLoss::new(0.5);
        b.iter(|| {
            let (logits, g) = model.forward(black_box(&x));
            let (_, grad_logits, grad_g) = loss.compute(&logits, &g, &labels, &weights);
            model.zero_grad();
            model.backward(&grad_logits, &grad_g);
            model.step(&mut adam);
        });
    });

    group.bench_function("inference_b32", |b| {
        let model = SelectiveModel::new(&SelectiveConfig::for_grid(32), 3);
        b.iter(|| black_box(model.predict(black_box(&x), 0.5)));
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
