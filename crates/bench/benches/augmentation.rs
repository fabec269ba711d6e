//! Augmentation micro-benchmarks: the per-image operations of
//! Algorithm 1 (encode, perturb+decode, quantize, rotate,
//! salt-and-pepper) and auto-encoder training throughput.

use augment::{AutoencoderConfig, ConvAutoencoder};
use criterion::{criterion_group, criterion_main, Criterion};
use nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use wafermap::gen::{generate, GenConfig};
use wafermap::{ops, DefectClass};

fn bench_augmentation(c: &mut Criterion) {
    let gen_cfg = GenConfig::new(32);
    let mut rng = StdRng::seed_from_u64(0);
    let map = generate(DefectClass::Donut, &gen_cfg, &mut rng);
    let ae_cfg = AutoencoderConfig::for_grid(32).with_channels([8, 8, 8]);
    let ae = ConvAutoencoder::new(&ae_cfg, 1);
    let image = Tensor::from_vec(map.to_image(), &[1, 1, 32, 32]);
    let z = ae.encode(&image);

    let mut group = c.benchmark_group("augmentation");
    group
        .bench_function("ae_encode_single", |b| b.iter(|| black_box(ae.encode(black_box(&image)))));
    group.bench_function("ae_decode_single", |b| b.iter(|| black_box(ae.decode(black_box(&z)))));
    group.bench_function("quantize", |b| {
        let decoded = ae.decode(&z);
        b.iter(|| black_box(ops::quantize(black_box(decoded.data()), &map).expect("shape")))
    });
    group.bench_function("rotate_45deg", |b| {
        b.iter(|| black_box(ops::rotate(black_box(&map), 45.0)))
    });
    group.bench_function("salt_and_pepper_1pct", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(ops::salt_and_pepper(black_box(&map), 0.01, &mut rng)))
    });
    group.bench_function("ae_train_epoch_16imgs", |b| {
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..16 {
            data.extend(generate(DefectClass::Center, &gen_cfg, &mut rng).to_image());
        }
        let images = Tensor::from_vec(data, &[16, 1, 32, 32]);
        let mut fresh = ConvAutoencoder::new(&ae_cfg, 4);
        b.iter(|| black_box(fresh.train(black_box(&images), 1, 16, 1e-3, 5)));
    });
    group.finish();
}

criterion_group!(benches, bench_augmentation);
criterion_main!(benches);
