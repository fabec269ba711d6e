use std::cell::RefCell;

use rand::Rng;
use serde::{Deserialize, Serialize};

use super::conv::{Conv2d, Lowering, COL_SCRATCH};
use crate::pool::{self, Shards};
use crate::{workspace, Layer, Param, Tensor};

thread_local! {
    /// Per-thread full-resolution conv output `[C_out, OH·OW]` of the
    /// sample being processed: the forward epilogue pools it away and
    /// the backward pass rebuilds its gradient in it, so the
    /// full-resolution activation never exists for the whole batch.
    static TILE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Cache code of a pooled output whose maximum is not positive: the
/// ReLU blocked it, so no gradient flows back through that window.
const BLOCKED: u8 = 4;

/// One Table I trunk block, fused: a stride-1 "same" convolution, bias,
/// ReLU, and a 2×2 max-pool in one layer.
///
/// Bit-identical to `Conv2d::same` → [`super::Relu`] →
/// `MaxPool2d::new(2)`, forward and backward, with the same parameters
/// visited in the same order (conv weight, conv bias), so a state dict
/// moves freely between the fused and the separate stack. Each
/// sample's convolution output lands in a per-thread tile; bias, ReLU
/// and the pool are applied to that tile straight into the pooled
/// output. Backward needs only one byte per pooled output — which
/// window position won, or that the ReLU blocked it — instead of a ReLU
/// mask and a pool argmax over the batch. Odd trailing rows/columns are
/// dropped (and get zero gradient), as in `MaxPool2d`.
///
/// # Example
///
/// ```
/// use nn::{layers::ConvBlock, Layer, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut block = ConvBlock::new(1, 8, 5, &mut rng);
/// let y = block.forward(&Tensor::zeros(&[2, 1, 16, 16]));
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct ConvBlock {
    conv: Conv2d,
    /// Input shape of the last `forward`, for `backward`.
    #[serde(skip)]
    input_shape: Option<[usize; 4]>,
    /// The last `forward`'s im2col blocks, one per sample; reused
    /// across batches.
    #[serde(skip)]
    cols: Vec<f32>,
    /// One code per pooled output of the last `forward`: the row-major
    /// window position (0–3) of its maximum, or [`BLOCKED`].
    #[serde(skip)]
    codes: Vec<u8>,
}

impl ConvBlock {
    /// New block over `Conv2d::same(in_channels, out_channels, kernel)`,
    /// drawing the weights from `rng` exactly as that layer does.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Self {
        ConvBlock {
            conv: Conv2d::same(in_channels, out_channels, kernel, rng),
            input_shape: None,
            cols: Vec::new(),
            codes: Vec::new(),
        }
    }

    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    #[must_use]
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let (oh, ow) = self.conv.output_hw(h, w);
        (oh / 2, ow / 2)
    }

    /// Check `input` and return its `[N, C, H, W]` shape.
    fn input_dims(&self, input: &Tensor) -> [usize; 4] {
        let [n, c, h, w] = self.conv.input_dims(input);
        let (ph, pw) = self.output_hw(h, w);
        assert!(ph > 0 && pw > 0, "input {h}x{w} smaller than pooling window");
        [n, c, h, w]
    }
}

/// The per-sample kernel of both passes: convolve `sample` into the
/// per-thread tile (unfolding it into `col`), then add the bias, apply
/// ReLU and take each 2×2 window's first-index-wins maximum into `out`
/// `[C_out, PH·PW]`. With `codes`, also record each pooled output's
/// window position, or [`BLOCKED`] when that maximum is not positive.
fn block_sample(
    conv: &Conv2d,
    sample: &[f32],
    h: usize,
    w: usize,
    col: &mut [f32],
    out: &mut [f32],
    mut codes: Option<&mut [u8]>,
) {
    let (oh, ow) = conv.output_hw(h, w);
    let (ph, pw) = (oh / 2, ow / 2);
    TILE.with(|cell| {
        let mut buf = cell.borrow_mut();
        let tile = workspace::reserve_f32(&mut buf, conv.out_channels() * oh * ow);
        tile.fill(0.0);
        conv.gemm_sample(sample, h, w, col, tile);
        for (co, (plane, &b)) in tile.chunks_exact(oh * ow).zip(conv.bias()).enumerate() {
            for py in 0..ph {
                let top = &plane[2 * py * ow..][..ow];
                let bot = &plane[(2 * py + 1) * ow..][..ow];
                for px in 0..pw {
                    let window = [top[2 * px], top[2 * px + 1], bot[2 * px], bot[2 * px + 1]];
                    let mut best = f32::NEG_INFINITY;
                    let mut pos = 0u8;
                    for (k, &v) in (0u8..).zip(&window) {
                        let r = (v + b).max(0.0);
                        if r > best {
                            best = r;
                            pos = k;
                        }
                    }
                    let o = (co * ph + py) * pw + px;
                    out[o] = best;
                    if let Some(codes) = codes.as_deref_mut() {
                        codes[o] = if best > 0.0 { pos } else { BLOCKED };
                    }
                }
            }
        }
    });
}

impl Layer for ConvBlock {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let [n, c, h, w] = self.input_dims(input);
        let (ph, pw) = self.output_hw(h, w);
        let c_out = self.conv.out_channels();
        let pooled = c_out * ph * pw;
        let col_size = self.conv.col_len(h, w);
        let mut out = Tensor::zeros(&[n, c_out, ph, pw]);
        let input_data = input.data();
        // One chunk per sample: im2col blocks, pooled planes and codes
        // are disjoint per-sample shards.
        let col_shards =
            Shards::new(workspace::reserve_f32(&mut self.cols, n * col_size), col_size);
        let code_shards = Shards::new(workspace::reserve(&mut self.codes, n * pooled), pooled);
        let out_shards = Shards::new(out.data_mut(), pooled);
        let conv = &self.conv;
        pool::parallel_for(n, |i| {
            let sample = &input_data[i * c * h * w..(i + 1) * c * h * w];
            let (col, out_n) = (col_shards.claim(i), out_shards.claim(i));
            block_sample(conv, sample, h, w, col, out_n, Some(code_shards.claim(i)));
        });
        self.input_shape = Some([n, c, h, w]);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let [n, c, h, w] = self.input_dims(input);
        let (ph, pw) = self.output_hw(h, w);
        let c_out = self.conv.out_channels();
        let pooled = c_out * ph * pw;
        let col_size = self.conv.col_len(h, w);
        let mut out = Tensor::zeros(&[n, c_out, ph, pw]);
        let input_data = input.data();
        COL_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            let col = workspace::reserve_f32(&mut buf, col_size);
            for (i, out_n) in out.data_mut().chunks_exact_mut(pooled).enumerate() {
                let sample = &input_data[i * c * h * w..(i + 1) * c * h * w];
                block_sample(&self.conv, sample, h, w, col, out_n, None);
            }
        });
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input_shape = self.input_shape.expect("backward before forward");
        let [n, _, h, w] = input_shape;
        let (ph, pw) = self.output_hw(h, w);
        let (oh, ow) = self.conv.output_hw(h, w);
        let c_out = self.conv.out_channels();
        assert_eq!(grad_output.shape(), &[n, c_out, ph, pw], "bad grad shape for ConvBlock");
        let pooled = c_out * ph * pw;
        let grad = grad_output.data();
        let codes = &self.codes;
        self.conv.backward_samples(input_shape, Lowering::Im2col, &self.cols, |i, body| {
            TILE.with(|cell| {
                let mut buf = cell.borrow_mut();
                let tile = workspace::reserve_f32(&mut buf, c_out * oh * ow);
                tile.fill(0.0);
                let grad_i = &grad[i * pooled..(i + 1) * pooled];
                let codes_i = &codes[i * pooled..(i + 1) * pooled];
                for (o, (&g, &code)) in grad_i.iter().zip(codes_i).enumerate() {
                    if code == BLOCKED {
                        continue;
                    }
                    let (co, p) = (o / (ph * pw), o % (ph * pw));
                    let y = 2 * (p / pw) + usize::from(code >> 1);
                    let x = 2 * (p % pw) + usize::from(code & 1);
                    // `+=` onto zero, as `MaxPool2d::backward` scatters.
                    tile[co * oh * ow + y * ow + x] += g;
                }
                body(tile);
            });
        })
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(visitor);
    }
}
