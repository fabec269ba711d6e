//! The fused `ConvBlock` must be bit-identical to the separate
//! `Conv2d::same` → `Relu` → `MaxPool2d(2)` stack it replaces: forward
//! output, inference output, input gradient, and weight/bias
//! gradients, compared with `to_bits` (so `-0.0` vs `0.0` and NaN
//! payloads count).
//!
//! Cases cover odd spatial sizes (the trailing row/column is dropped
//! and gets zero gradient), quantized operands that force ties inside
//! pooling windows, biases that make every window non-positive,
//! signed zeros, and NaN in the input and in the output gradient. Each
//! case runs at pool widths 1, 2 and 7; the CI `WM_FORCE_SCALAR`
//! matrix runs it with SIMD on and off.

use std::sync::{Mutex, MutexGuard, PoisonError};

use nn::layers::{Conv2d, ConvBlock, MaxPool2d, Relu};
use nn::{pool, Layer, Sequential, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pool's thread limit is process-global; tests that change it
/// hold this lock so cargo's parallel runner cannot interleave them.
static POOL_CONFIG: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL_CONFIG.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a case's operands are drawn.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Gaussian input and He-initialized weights.
    Random,
    /// Inputs on the wafer levels {0, 0.5, 1} and weights in
    /// {-1, 0, 1}: conv outputs are exact small integers, so windows
    /// tie often.
    Quantized,
    /// A large negative bias: every window is non-positive and blocks
    /// its gradient.
    NonPositive,
    /// Signed zeros in the input, `-0.0` bias, and signed zeros in the
    /// output gradient.
    SignedZero,
    /// One NaN in the input and one in the output gradient.
    Nan,
}

const MODES: [Mode; 5] =
    [Mode::Random, Mode::Quantized, Mode::NonPositive, Mode::SignedZero, Mode::Nan];

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every parameter's gradient, in `visit_params` order.
fn grads(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(bits(p.grad.data())));
    out
}

/// Rewrite the operands `mode` prescribes. `layer` is the fused block
/// or the reference stack; both see the same values.
fn set_params(layer: &mut dyn Layer, mode: Mode, rng: &mut StdRng) {
    use rand::Rng;
    let mut index = 0;
    layer.visit_params(&mut |p| {
        let is_bias = index == 1;
        index += 1;
        for v in p.value.data_mut() {
            match (mode, is_bias) {
                (Mode::Quantized, _) => *v = f32::from(rng.gen_range(-1i8..=1)),
                (Mode::NonPositive, true) => *v = -1.0e3,
                (Mode::SignedZero, true) => *v = -0.0,
                _ => {}
            }
        }
    });
}

fn input(shape: &[usize], mode: Mode, rng: &mut StdRng) -> Tensor {
    use rand::Rng;
    let mut x = Tensor::randn(shape, 1.0, rng);
    let data = x.data_mut();
    for v in data.iter_mut() {
        match mode {
            Mode::Quantized => *v = f32::from(rng.gen_range(0u8..=2)) * 0.5,
            Mode::SignedZero => *v = if rng.gen_bool(0.5) { -0.0 } else { 0.0 },
            _ => {}
        }
    }
    if let Mode::Nan = mode {
        let at = rng.gen_range(0..data.len());
        data[at] = f32::NAN;
    }
    x
}

fn grad_output(shape: &[usize], mode: Mode, rng: &mut StdRng) -> Tensor {
    use rand::Rng;
    let mut g = Tensor::randn(shape, 1.0, rng);
    let data = g.data_mut();
    match mode {
        Mode::SignedZero => {
            for v in data.iter_mut().step_by(2) {
                *v = -0.0;
            }
        }
        Mode::Nan => {
            let at = rng.gen_range(0..data.len());
            data[at] = f32::NAN;
        }
        _ => {}
    }
    g
}

#[allow(clippy::too_many_arguments)]
fn check_case(
    n: usize,
    c_in: usize,
    c_out: usize,
    k: usize,
    h: usize,
    w: usize,
    mode: Mode,
    seed: u64,
) {
    let _guard = pool_lock();
    let mut data_rng = StdRng::seed_from_u64(seed);
    let x = input(&[n, c_in, h, w], mode, &mut data_rng);
    let dy = grad_output(&[n, c_out, h / 2, w / 2], mode, &mut data_rng);
    for limit in [1, 2, 7] {
        pool::set_thread_limit(limit);
        let ctx =
            format!("n{n} c{c_in}->{c_out} k{k} {h}x{w} {mode:?} seed {seed} threads {limit}");
        // Identical seeds: `ConvBlock::new` draws exactly as `Conv2d::same`.
        let mut block = ConvBlock::new(c_in, c_out, k, &mut StdRng::seed_from_u64(seed ^ 1));
        let mut stack = Sequential::new()
            .with(Conv2d::same(c_in, c_out, k, &mut StdRng::seed_from_u64(seed ^ 1)))
            .with(Relu::new())
            .with(MaxPool2d::new(2));
        set_params(&mut block, mode, &mut StdRng::seed_from_u64(seed ^ 2));
        set_params(&mut stack, mode, &mut StdRng::seed_from_u64(seed ^ 2));

        let fused_y = block.forward(&x);
        let ref_y = stack.forward(&x);
        assert_eq!(fused_y.shape(), ref_y.shape(), "{ctx}");
        assert_eq!(bits(fused_y.data()), bits(ref_y.data()), "forward: {ctx}");
        assert_eq!(bits(block.infer(&x).data()), bits(stack.infer(&x).data()), "infer: {ctx}");
        assert_eq!(bits(block.infer(&x).data()), bits(fused_y.data()), "infer vs forward: {ctx}");

        block.zero_grad();
        stack.zero_grad();
        let fused_dx = block.backward(&dy);
        let ref_dx = stack.backward(&dy);
        assert_eq!(bits(fused_dx.data()), bits(ref_dx.data()), "input grad: {ctx}");
        assert_eq!(grads(&mut block), grads(&mut stack), "param grads: {ctx}");
    }
    pool::set_thread_limit(pool::default_thread_limit());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv_block_matches_separate_layers_bitwise(
        seed in any::<u64>(),
        n in 1usize..5,
        c_in in 1usize..4,
        c_out in 1usize..6,
        k_half in 0usize..3,
        h in 2usize..12,
        w in 2usize..12,
        mode in 0usize..MODES.len(),
    ) {
        check_case(n, c_in, c_out, 2 * k_half + 1, h, w, MODES[mode], seed);
    }
}

/// Every mode at the paper's conv1 shape (1 → 64 channels, 5×5, grid
/// 32) and at an odd-sized deeper layer.
#[test]
fn table_i_shapes_match_in_every_mode() {
    for mode in MODES {
        check_case(8, 1, 64, 5, 32, 32, mode, 11);
        check_case(3, 32, 32, 3, 9, 7, mode, 12);
    }
}

/// The fused block's trailing odd row/column gets exactly zero
/// gradient.
#[test]
fn dropped_edge_gets_zero_gradient() {
    let mut block = ConvBlock::new(1, 2, 1, &mut StdRng::seed_from_u64(3));
    let mut index = 0;
    block.visit_params(&mut |p| {
        p.value.fill(if index == 0 { 1.0 } else { 0.0 });
        index += 1;
    });
    let x = Tensor::full(&[1, 1, 5, 3], 1.0);
    let _ = block.forward(&x);
    let dx = block.backward(&Tensor::full(&[1, 2, 2, 1], 1.0));
    // Ties route to each window's first element: (0, 0) and (2, 0),
    // one unit per output channel.
    #[rustfmt::skip]
    let expect = [
        2.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
        2.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
    ];
    assert_eq!(bits(dx.data()), bits(&expect));
}
