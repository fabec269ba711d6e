//! A narrow `Conv2d` (`C_out < gemm::MR`, the direct lowering) must be
//! bit-identical to the im2col + GEMM lowering it replaces: forward
//! output, inference output, input gradient, and weight and bias
//! gradients, compared with `to_bits` (so `-0.0` vs `0.0` and NaN
//! payloads count).
//!
//! The oracle embeds the narrow layer in a wide one (4 or 8 output
//! channels, so the GEMM path): the wide layer's first weight rows and
//! biases are the narrow layer's, its other rows are finite, and the
//! output gradient of its extra channels is zero. Every input-gradient
//! fold therefore sees the same summands followed by exact `±0`
//! products, which leave a fold that started at `+0.0` unchanged.
//!
//! Cases cover kernels 1, 3, 5 and 7 with and without "same" padding,
//! odd spatial sizes, signed zeros, NaN inputs and output gradients,
//! and NaN or infinite weights (whose padding taps must still produce
//! NaN). Each case runs at pool widths 1, 2 and 7, with the SIMD
//! kernels active and with the scalar path forced.

use std::sync::{Mutex, MutexGuard, PoisonError};

use nn::layers::Conv2d;
use nn::{pool, simd, Layer, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pool's thread limit and the SIMD dispatch switch are
/// process-global; tests that change them hold this lock so cargo's
/// parallel runner cannot interleave them.
static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());

fn config_lock() -> MutexGuard<'static, ()> {
    GLOBAL_CONFIG.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Put the dispatch switch back the way the process environment wants
/// it (`WM_FORCE_SCALAR` wins over hardware detection).
fn restore_dispatch() {
    let forced = std::env::var_os("WM_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
    simd::set_force_scalar(forced);
}

/// How a case's operands are drawn.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Gaussian inputs, He-initialized weights, Gaussian gradients.
    Random,
    /// Signed zeros in the input, a `-0.0` bias, and signed zeros in
    /// the output gradient.
    SignedZero,
    /// One NaN in the input and one in the output gradient.
    Nan,
    /// One NaN weight in the narrow rows: every output whose window
    /// covers that tap is NaN, padding taps included.
    NanWeight,
    /// One infinite weight in the narrow rows: `∞·0` on padding taps
    /// is NaN too.
    InfWeight,
}

const MODES: [Mode; 5] =
    [Mode::Random, Mode::SignedZero, Mode::Nan, Mode::NanWeight, Mode::InfWeight];

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `(weight, bias)` values and gradients, in `visit_params` order.
fn params(layer: &mut Conv2d) -> [(Vec<f32>, Vec<f32>); 2] {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push((p.value.data().to_vec(), p.grad.data().to_vec())));
    let bias = out.pop().expect("bias");
    let weight = out.pop().expect("weight");
    [weight, bias]
}

/// Channels `..keep` of every sample of an `[N, C, H, W]` tensor.
fn leading_channels(t: &Tensor, keep: usize) -> Vec<f32> {
    let [n, c, h, w] = [t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]];
    let plane = h * w;
    (0..n).flat_map(|i| t.data()[i * c * plane..(i * c + keep) * plane].to_vec()).collect()
}

struct Case {
    n: usize,
    c_in: usize,
    c_out: usize,
    wide: usize,
    k: usize,
    pad: usize,
    h: usize,
    w: usize,
    mode: Mode,
    seed: u64,
}

fn check(case: &Case) {
    let Case { n, c_in, c_out, wide, k, pad, h, w, mode, seed } = *case;
    assert!(c_out < 4 && wide >= 4);
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(seed);

    // Narrow operands.
    let mut narrow = Conv2d::new(c_in, c_out, k, pad, &mut StdRng::seed_from_u64(seed ^ 1));
    let taps = c_in * k * k;
    let mut index = 0;
    narrow.visit_params(&mut |p| {
        let is_bias = index == 1;
        index += 1;
        let data = p.value.data_mut();
        if is_bias {
            for v in data.iter_mut() {
                *v = if let Mode::SignedZero = mode { -0.0 } else { rng.gen_range(-1.0..1.0) };
            }
        } else {
            let at = rng.gen_range(0..data.len());
            match mode {
                Mode::NanWeight => data[at] = f32::NAN,
                Mode::InfWeight => data[at] = f32::INFINITY,
                _ => {}
            }
        }
    });
    let mut x = Tensor::randn(&[n, c_in, h, w], 1.0, &mut rng);
    let (oh, ow) = narrow.output_hw(h, w);
    let mut dy = Tensor::randn(&[n, c_out, oh, ow], 1.0, &mut rng);
    match mode {
        Mode::SignedZero => {
            for v in x.data_mut() {
                *v = if rng.gen_bool(0.5) { -0.0 } else { 0.0 };
            }
            for v in dy.data_mut().iter_mut().step_by(2) {
                *v = -0.0;
            }
        }
        Mode::Nan => {
            let at = rng.gen_range(0..x.numel());
            x.data_mut()[at] = f32::NAN;
            let at = rng.gen_range(0..dy.numel());
            dy.data_mut()[at] = f32::NAN;
        }
        _ => {}
    }

    // The wide oracle: narrow rows first, finite extra rows, and a zero
    // output gradient on the extra channels.
    let [(narrow_w, _), (narrow_b, _)] = params(&mut narrow);
    let mut wide_conv = Conv2d::new(c_in, wide, k, pad, &mut StdRng::seed_from_u64(seed ^ 2));
    let mut index = 0;
    wide_conv.visit_params(&mut |p| {
        let src = if index == 0 { &narrow_w } else { &narrow_b };
        p.value.data_mut()[..src.len()].copy_from_slice(src);
        index += 1;
    });
    let mut wide_dy = Tensor::zeros(&[n, wide, oh, ow]);
    for i in 0..n {
        let plane = c_out * oh * ow;
        wide_dy.data_mut()[i * wide * oh * ow..][..plane]
            .copy_from_slice(&dy.data()[i * plane..(i + 1) * plane]);
    }

    for force_scalar in [false, true] {
        simd::set_force_scalar(force_scalar);
        for limit in [1, 2, 7] {
            pool::set_thread_limit(limit);
            let ctx = format!(
                "n{n} c{c_in}->{c_out} (wide {wide}) k{k} pad{pad} {h}x{w} {mode:?} seed {seed} \
                 threads {limit} scalar {force_scalar}"
            );
            let y = narrow.forward(&x);
            let wide_y = wide_conv.forward(&x);
            assert_eq!(bits(y.data()), bits(&leading_channels(&wide_y, c_out)), "forward: {ctx}");
            assert_eq!(bits(narrow.infer(&x).data()), bits(y.data()), "infer vs forward: {ctx}");
            assert_eq!(
                bits(narrow.infer(&x).data()),
                bits(&leading_channels(&wide_conv.infer(&x), c_out)),
                "infer: {ctx}"
            );

            narrow.zero_grad();
            wide_conv.zero_grad();
            let dx = narrow.backward(&dy);
            let wide_dx = wide_conv.backward(&wide_dy);
            assert_eq!(bits(dx.data()), bits(wide_dx.data()), "input grad: {ctx}");
            let [(_, dw), (_, db)] = params(&mut narrow);
            let [(_, wide_dw), (_, wide_db)] = params(&mut wide_conv);
            assert_eq!(bits(&dw), bits(&wide_dw[..c_out * taps]), "weight grad: {ctx}");
            assert_eq!(bits(&db), bits(&wide_db[..c_out]), "bias grad: {ctx}");
        }
    }
    pool::set_thread_limit(pool::default_thread_limit());
    restore_dispatch();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn narrow_conv_matches_gemm_lowering_bitwise(
        seed in any::<u64>(),
        n in 1usize..4,
        c_in in 1usize..5,
        c_out in 1usize..4,
        wide_eight in any::<bool>(),
        k_index in 0usize..4,
        same in any::<bool>(),
        h in 1usize..14,
        w in 1usize..22,
        mode in 0usize..MODES.len(),
    ) {
        let k = [1, 3, 5, 7][k_index];
        let pad = if same { k / 2 } else { 0 };
        // At least one output row and column.
        let (h, w) = (h.max(k - 2 * pad), w.max(k - 2 * pad));
        let wide = if wide_eight { 8 } else { 4 };
        check(&Case { n, c_in, c_out, wide, k, pad, h, w, mode: MODES[mode], seed });
    }
}

/// Every mode at the auto-encoder's last decoder convolution
/// (8 → 1 channels, 5×5, grid 32, as the benchmark configures it and
/// 16 → 1 as the default one), and at every kernel size with odd
/// sizes on both sides of the 8-wide vector width.
#[test]
fn decoder_and_edge_shapes_match_in_every_mode() {
    for mode in MODES {
        check(&Case {
            n: 4,
            c_in: 8,
            c_out: 1,
            wide: 4,
            k: 5,
            pad: 2,
            h: 32,
            w: 32,
            mode,
            seed: 21,
        });
        check(&Case {
            n: 2,
            c_in: 16,
            c_out: 1,
            wide: 8,
            k: 5,
            pad: 2,
            h: 32,
            w: 32,
            mode,
            seed: 22,
        });
        for (i, k) in [1usize, 3, 5, 7].into_iter().enumerate() {
            for pad in [0, k / 2] {
                let seed = 23 + i as u64;
                check(&Case { n: 3, c_in: 3, c_out: 3, wide: 4, k, pad, h: 9, w: 17, mode, seed });
                check(&Case { n: 2, c_in: 2, c_out: 2, wide: 8, k, pad, h: 7, w: 7, mode, seed });
            }
        }
    }
}
