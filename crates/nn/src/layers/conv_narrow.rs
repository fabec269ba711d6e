//! The direct (im2col-free) lowering of [`super::Conv2d`], taken when
//! the layer has fewer output channels than the GEMM register tile has
//! rows (`C_out < gemm::MR`). There a GEMM wastes most of each tile on
//! padding rows, and the im2col block (`C_in·k·k` times the output
//! plane, per sample) costs more to write and re-read than the
//! arithmetic it feeds. Instead each sample is zero-padded once into a
//! `[C_in, H+2p, W+2p]` plane, and the kernels below read their
//! sliding windows straight from it.
//!
//! # Exactness
//!
//! Every output keeps the per-element operation order of the im2col +
//! GEMM path, so both lowerings are bit-identical:
//!
//! - **Forward.** Each output folds its taps `p = (c, ky, kx)` in
//!   increasing order, `w.mul_add(x, acc)` onto `+0.0`, then adds the
//!   bias — what `sgemm` + the bias pass compute. Padding taps
//!   multiply the plane's explicit zeros; they are not skipped, so NaN
//!   and ∞ weights behave as before.
//! - **Weight gradient.** Each tap is one chain over output positions
//!   in increasing `(oy, ox)` order onto `+0.0` (the `sgemm_nt`
//!   order). The vector kernel spreads a tap row's `kx` lanes across a
//!   vector, never the positions of one chain.
//! - **Input gradient.** For each tap in `(c, ky, kx)` order,
//!   `v = fold_co W[co, p].mul_add(dout[co, j], ·)` from `+0.0` (the
//!   `sgemm_tn` order) is added into a zeroed padded gradient plane in
//!   `(oy, ox)` order, which is then cropped. Each input pixel thus
//!   receives the same summands in the same order as `col2im` adds
//!   them; the padding cells that `col2im` skips are cropped away.
//!
//! The AVX2 kernels in [`crate::simd`] vectorize only across
//! independent chains and fall back to the scalar kernels here, so
//! SIMD and scalar runs agree bit-for-bit.

use crate::simd;

/// Shape of one sample's direct convolution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    /// Input channels.
    pub(crate) c_in: usize,
    /// Output channels (`< gemm::MR`).
    pub(crate) c_out: usize,
    /// Square kernel side.
    pub(crate) k: usize,
    /// Zero padding on every side.
    pub(crate) pad: usize,
    /// Input height.
    pub(crate) h: usize,
    /// Input width.
    pub(crate) w: usize,
    /// Output height (`h + 2·pad − k + 1`).
    pub(crate) oh: usize,
    /// Output width.
    pub(crate) ow: usize,
}

impl Geometry {
    /// Padded plane height.
    pub(crate) fn hp(&self) -> usize {
        self.h + 2 * self.pad
    }

    /// Padded plane width (row stride of the padded plane).
    pub(crate) fn wp(&self) -> usize {
        self.w + 2 * self.pad
    }

    /// Floats in one sample's padded `[C_in, HP, WP]` plane.
    pub(crate) fn plane(&self) -> usize {
        self.c_in * self.hp() * self.wp()
    }

    /// Floats reserved per sample for its padded plane: the plane plus
    /// [`simd::LANES`] of slack, since the vector kernels load 8-wide
    /// windows that may run up to 7 floats past the plane's last
    /// element (into lanes whose results are discarded).
    pub(crate) fn stride(&self) -> usize {
        self.plane() + simd::LANES
    }

    /// Taps per output channel (`C_in·k·k`, the weight row length).
    pub(crate) fn taps(&self) -> usize {
        self.c_in * self.k * self.k
    }

    /// Assert that the output size is the padded size minus `k − 1`,
    /// which bounds every window the vector kernels load through raw
    /// pointers.
    pub(crate) fn assert_consistent(&self) {
        assert!(
            self.oh + self.k == self.hp() + 1 && self.ow + self.k == self.wp() + 1,
            "inconsistent convolution geometry {self:?}"
        );
    }
}

/// Copy `sample` `[C_in, H, W]` into the padded plane `xp`, writing
/// every border cell as `+0.0` (the buffer is reused, so nothing may
/// be assumed about its prior contents). The slack past the plane is
/// left as is.
pub(super) fn pad_sample(g: &Geometry, sample: &[f32], xp: &mut [f32]) {
    let (h, w, hp, wp, pad) = (g.h, g.w, g.hp(), g.wp(), g.pad);
    for c in 0..g.c_in {
        let dst = &mut xp[c * hp * wp..(c + 1) * hp * wp];
        dst[..pad * wp].fill(0.0);
        dst[(pad + h) * wp..].fill(0.0);
        for y in 0..h {
            let padded = &mut dst[(pad + y) * wp..(pad + y + 1) * wp];
            padded[..pad].fill(0.0);
            padded[pad..pad + w].copy_from_slice(&sample[(c * h + y) * w..(c * h + y + 1) * w]);
            padded[pad + w..].fill(0.0);
        }
    }
}

/// Forward one sample: `out [C_out, OH·OW]` (overwritten) from the
/// padded plane `xp` (at least [`Geometry::stride`] long), weights
/// `[C_out, taps]` and `bias [C_out]`.
pub(super) fn forward(g: &Geometry, weight: &[f32], bias: &[f32], xp: &[f32], out: &mut [f32]) {
    if simd::narrow_conv_forward(g, weight, bias, xp, out) {
        return;
    }
    let (k, hp, wp, ow) = (g.k, g.hp(), g.wp(), g.ow);
    for ((w_co, &b), out_co) in
        weight.chunks_exact(g.taps()).zip(bias).zip(out.chunks_exact_mut(g.oh * ow))
    {
        for (oy, acc) in out_co.chunks_exact_mut(ow).enumerate() {
            acc.fill(0.0);
            let mut taps = w_co.iter();
            for c in 0..g.c_in {
                for ky in 0..k {
                    let row = &xp[c * hp * wp + (oy + ky) * wp..];
                    for (kx, &w) in taps.by_ref().take(k).enumerate() {
                        for (a, &x) in acc.iter_mut().zip(&row[kx..kx + ow]) {
                            *a = w.mul_add(x, *a);
                        }
                    }
                }
            }
            acc.iter_mut().for_each(|v| *v += b);
        }
    }
}

/// Weight gradient of one sample: `dw [C_out, taps]` (overwritten)
/// from the output gradient `dout [C_out, OH·OW]` and the padded plane
/// the forward pass kept.
pub(super) fn weight_grad(g: &Geometry, dout: &[f32], xp: &[f32], dw: &mut [f32]) {
    if simd::narrow_conv_weight_grad(g, dout, xp, dw) {
        return;
    }
    let (k, hp, wp, ow) = (g.k, g.hp(), g.wp(), g.ow);
    for (d_co, dw_co) in dout.chunks_exact(g.oh * ow).zip(dw.chunks_exact_mut(g.taps())) {
        for (ck, acc) in dw_co.chunks_exact_mut(k).enumerate() {
            // Row `ck = c·k + ky` of this output channel's taps.
            let (c, ky) = (ck / k, ck % k);
            acc.fill(0.0);
            for (oy, d_row) in d_co.chunks_exact(ow).enumerate() {
                let row = &xp[c * hp * wp + (oy + ky) * wp..];
                for (ox, &d) in d_row.iter().enumerate() {
                    for (a, &x) in acc.iter_mut().zip(&row[ox..ox + k]) {
                        *a = d.mul_add(x, *a);
                    }
                }
            }
        }
    }
}

/// Input gradient of one sample: accumulate every tap's contribution
/// into the padded gradient plane `gpad` (at least
/// [`Geometry::plane`] long; zeroed here), then crop it into
/// `grad_sample [C_in, H, W]`.
pub(super) fn input_grad(
    g: &Geometry,
    weight: &[f32],
    dout: &[f32],
    gpad: &mut [f32],
    grad_sample: &mut [f32],
) {
    let (hp, wp, pad) = (g.hp(), g.wp(), g.pad);
    let gpad = &mut gpad[..g.plane()];
    gpad.fill(0.0);
    if !simd::narrow_conv_input_grad(g, weight, dout, gpad) {
        scatter_taps(g, weight, dout, gpad);
    }
    for (src, dst) in gpad.chunks_exact(hp * wp).zip(grad_sample.chunks_exact_mut(g.h * g.w)) {
        for (row, out) in src[pad * wp..].chunks_exact(wp).zip(dst.chunks_exact_mut(g.w)) {
            out.copy_from_slice(&row[pad..pad + g.w]);
        }
    }
}

/// Scalar body of [`input_grad`]: tap by tap, add
/// `fold_co W[co, p]·dout[co, j]` into the padded plane.
fn scatter_taps(g: &Geometry, weight: &[f32], dout: &[f32], gpad: &mut [f32]) {
    let (k, hp, wp, ow) = (g.k, g.hp(), g.wp(), g.ow);
    let (taps, plane) = (g.taps(), g.oh * ow);
    for p in 0..taps {
        let (c, ky, kx) = (p / (k * k), p / k % k, p % k);
        for oy in 0..g.oh {
            let row = &mut gpad[c * hp * wp + (oy + ky) * wp + kx..][..ow];
            for (ox, cell) in row.iter_mut().enumerate() {
                let mut v = 0.0f32;
                for co in 0..g.c_out {
                    v = weight[co * taps + p].mul_add(dout[co * plane + oy * ow + ox], v);
                }
                *cell += v;
            }
        }
    }
}
