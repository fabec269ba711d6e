//! Explicit SIMD micro-kernels for the GEMM core and for the direct
//! lowering of narrow convolutions.
//!
//! On `x86_64` with AVX2 + FMA (detected once at runtime) the blocked
//! GEMM's innermost loops, and the direct convolution kernels, run as
//! 8-lane vector code; everywhere else — other architectures, older
//! x86, or `WM_FORCE_SCALAR=1` — the safe wrappers here return `false`
//! and the portable scalar kernels in [`crate::gemm`] and
//! `layers::conv_narrow` run instead. The convolution kernels keep the
//! same contract as the GEMM ones below: each lane is one independent
//! accumulation chain, stepped in its scalar order.
//!
//! # Bit-identity
//!
//! The numerical contract ([`crate::gemm::reference`]) is: per output
//! element, contributions fold onto the resident `C` value in strictly
//! increasing `p` order via `f32::mul_add` (fused, single rounding).
//! Every kernel here vectorizes across **output columns** — eight
//! independent accumulation chains per vector — so each lane still
//! walks its own element's contraction in increasing `p` order. The
//! vector step is `_mm256_fmadd_ps`, which is lane-wise exactly the
//! scalar `f32::mul_add` (one IEEE-754 rounding per step), so the
//! vector kernels are bit-identical to the scalar ones: same summands,
//! same order, same rounding. A dot-product-style vectorization along
//! `p` (horizontal reduction) would *not* have this property, which is
//! why the narrow `nt` kernel transposes 8×8 blocks of `B` into
//! column-major registers instead of reducing along rows.
//!
//! Tail handling never changes element order either: partial widths
//! fall back to scalar `f32::mul_add` chains over the same `p` range,
//! and the `k % 8` remainder of the narrow `nt` kernel finishes each
//! lane serially after the vector prefix.

// Deny-by-default in the crate root; raw-pointer vector loads/stores
// with hoisted bounds proofs are this module's documented exception.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

use crate::layers::conv_narrow::Geometry;

/// Dispatch state: detection has not run yet.
const UNINIT: u8 = 0;
/// Dispatch state: run the portable scalar kernels.
const SCALAR: u8 = 1;
/// Dispatch state: run the AVX2 kernels.
const SIMD: u8 = 2;

/// Latched dispatch decision (`UNINIT` until the first kernel call).
static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Whether the vector kernels are active for this process.
///
/// First call probes the CPU (AVX2 + FMA via
/// `is_x86_feature_detected!`) and the `WM_FORCE_SCALAR` environment
/// variable (any value other than empty or `0` forces the scalar
/// path); the decision is latched so the hot-path check is one relaxed
/// atomic load.
#[inline]
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        UNINIT => {
            let on = !force_scalar_env() && hardware_supported();
            STATE.store(if on { SIMD } else { SCALAR }, Ordering::Relaxed);
            on
        }
        state => state == SIMD,
    }
}

/// Force the scalar kernels on (`true`) or re-enable hardware
/// detection (`false`), overriding both the latched decision and the
/// `WM_FORCE_SCALAR` environment variable. Intended for tests and
/// benchmarks that compare the two paths in one process.
pub fn set_force_scalar(on: bool) {
    let state = if !on && hardware_supported() { SIMD } else { SCALAR };
    STATE.store(state, Ordering::Relaxed);
}

/// `WM_FORCE_SCALAR` is set to something truthy.
fn force_scalar_env() -> bool {
    std::env::var_os("WM_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0")
}

/// The CPU this process runs on can execute the vector kernels.
#[cfg(target_arch = "x86_64")]
fn hardware_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// The CPU this process runs on can execute the vector kernels.
#[cfg(not(target_arch = "x86_64"))]
fn hardware_supported() -> bool {
    false
}

/// Vector [`crate::gemm`] microkernel step: returns `true` if the AVX2
/// tile kernel ran, `false` if the caller must run the scalar one.
#[inline]
pub(crate) fn microkernel(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` is true only after AVX2+FMA detection.
        unsafe { avx2::microkernel(kc, ap, bp, c, ldc, mr, nr) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (kc, ap, bp, c, ldc, mr, nr);
    false
}

/// Rows per vector thin-`k` sweep group. Six rows × two vectors keeps
/// twelve accumulators live (under the 16 `ymm` registers) while every
/// `B` load feeds six fused multiply-adds, so the sweep is FMA-bound
/// rather than load-bound.
#[cfg(target_arch = "x86_64")]
const THIN_ROWS: usize = 6;

/// Vector thin-`k` kernel for one `C` row block: gathers all `mb` `A`
/// rows once via `gather(row_in_block, dest)`, then walks **column
/// strips in the outer loop** and row groups of [`THIN_ROWS`] inside.
/// One 16-wide `B` strip (`k` cache lines) is re-used by every row
/// group while L1-hot, so `B` streams in from L2 once per row block
/// instead of once per group. Returns `true` if the AVX2 kernel ran,
/// `false` if the caller must run the scalar row-pair sweep. Both the
/// row grouping (6 vs 2) and the strip visit order differ from the
/// scalar path, but each output element's accumulation chain is
/// independent and unchanged, so results stay bit-identical.
#[inline]
pub(crate) fn thin_block(
    k: usize,
    n: usize,
    mb: usize,
    b: &[f32],
    c_block: &mut [f32],
    gather: impl Fn(usize, &mut [f32; crate::gemm::THIN_K]),
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active() && mb <= crate::gemm::MC {
        let mut a_rows = [[0.0f32; crate::gemm::THIN_K]; crate::gemm::MC];
        for (r, a_row) in a_rows.iter_mut().enumerate().take(mb) {
            gather(r, a_row);
        }
        // SAFETY: `active()` is true only after AVX2+FMA detection.
        unsafe { avx2::thin_strips(k, n, mb, &a_rows, b, c_block) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (k, n, mb, b, c_block, &gather);
    false
}

/// Vector narrow `A·Bᵀ` kernel (`m <= 2`): returns `true` if the AVX2
/// kernel ran.
#[inline]
pub(crate) fn nt_narrow(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` is true only after AVX2+FMA detection.
        unsafe {
            if m == 2 {
                avx2::nt_narrow::<2>(k, n, a, b, c);
            } else {
                avx2::nt_narrow::<1>(k, n, a, b, c);
            }
        }
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (m, k, n, a, b, c);
    false
}

/// Vector packing of a transposed (`[n,k]`) `B` operand into column
/// panels: returns `true` if the AVX2 kernel ran. Pure data movement —
/// trivially bit-identical, but the scalar scatter is the single
/// hottest non-FLOP loop of the `nt` path.
#[inline]
pub(crate) fn pack_b_transposed(bp: &mut [f32], b: &[f32], k: usize, n: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` is true only after AVX2+FMA detection.
        unsafe { avx2::pack_b_transposed(bp, b, k, n) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (bp, b, k, n);
    false
}

/// `f32` lanes per AVX2 vector.
pub(crate) const LANES: usize = 8;

/// Output vectors (or weight-gradient tap rows) per register group of
/// the narrow-convolution kernels: eight accumulators plus the shared
/// broadcast stay within the 16 `ymm` registers, and eight independent
/// chains cover the fused multiply-add latency.
#[cfg(target_arch = "x86_64")]
const CONV_GROUP: usize = 8;

/// Vector forward of a narrow direct convolution (see
/// `layers::conv_narrow`): returns `true` if the AVX2 kernel ran.
#[inline]
pub(crate) fn narrow_conv_forward(
    g: &Geometry,
    weight: &[f32],
    bias: &[f32],
    xp: &[f32],
    out: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` is true only after AVX2+FMA detection.
        unsafe { avx2::narrow_forward(g, weight, bias, xp, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (g, weight, bias, xp, out);
    false
}

/// Vector weight gradient of a narrow direct convolution: returns
/// `true` if the AVX2 kernel ran.
#[inline]
pub(crate) fn narrow_conv_weight_grad(
    g: &Geometry,
    dout: &[f32],
    xp: &[f32],
    dw: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` is true only after AVX2+FMA detection.
        unsafe { avx2::narrow_weight_grad(g, dout, xp, dw) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (g, dout, xp, dw);
    false
}

/// Vector input-gradient scatter of a narrow direct convolution into a
/// zeroed padded plane: returns `true` if the AVX2 kernel ran.
#[inline]
pub(crate) fn narrow_conv_input_grad(
    g: &Geometry,
    weight: &[f32],
    dout: &[f32],
    gpad: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` is true only after AVX2+FMA detection.
        unsafe { avx2::narrow_input_grad(g, weight, dout, gpad) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (g, weight, dout, gpad);
    false
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_permute2f128_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps,
    };

    use super::{Geometry, CONV_GROUP, LANES, THIN_ROWS};
    use crate::gemm::{MR, NR, NTW, THIN_K};

    /// AVX2 `MR`×`NR` register tile, bit-identical to
    /// [`crate::gemm`]'s scalar microkernel: `C` is staged into a
    /// zero-padded `MR`×`NR` tile so every vector op runs full-width
    /// (pad lanes accumulate the packers' zero-filled slots and are
    /// never stored), and each of the `MR`×2 accumulators folds the
    /// `kc` strip in increasing `p` order with one fused step per `p`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 + FMA are available. Slice bounds are
    /// checked here: `ap`/`bp` are re-sliced to their packed lengths
    /// and `c` rows are staged through the tile with safe copies.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn microkernel(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        let ap = &ap[..kc * MR];
        let bp = &bp[..kc * NR];
        if mr == MR && nr == NR {
            // Full tile (the overwhelmingly common case): accumulate
            // straight from/to `C`, no staging copies.
            let _ = &c[..(MR - 1) * ldc + NR]; // hoisted bounds proof
            let mut acc = [[_mm256_setzero_ps(); 2]; MR];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r[0] = _mm256_loadu_ps(c.as_ptr().add(r * ldc));
                acc_r[1] = _mm256_loadu_ps(c.as_ptr().add(r * ldc + 8));
            }
            for p in 0..kc {
                // In bounds: p < kc, so p*NR + 15 < kc*NR = bp.len()
                // and p*MR + MR - 1 < kc*MR = ap.len().
                let b0 = _mm256_loadu_ps(bp.as_ptr().add(p * NR));
                let b1 = _mm256_loadu_ps(bp.as_ptr().add(p * NR + 8));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let a = _mm256_set1_ps(*ap.get_unchecked(p * MR + r));
                    acc_r[0] = _mm256_fmadd_ps(a, b0, acc_r[0]);
                    acc_r[1] = _mm256_fmadd_ps(a, b1, acc_r[1]);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                _mm256_storeu_ps(c.as_mut_ptr().add(r * ldc), acc_r[0]);
                _mm256_storeu_ps(c.as_mut_ptr().add(r * ldc + 8), acc_r[1]);
            }
            return;
        }
        // Edge tile: stage `C` through a zero-padded MR×NR tile so the
        // vector loop still runs full-width (pad lanes accumulate the
        // packers' zero-filled slots and are never stored).
        let mut tile = [[0.0f32; NR]; MR];
        for r in 0..mr {
            tile[r][..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
        }
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for r in 0..MR {
            acc[r][0] = _mm256_loadu_ps(tile[r].as_ptr());
            acc[r][1] = _mm256_loadu_ps(tile[r].as_ptr().add(8));
        }
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(bp.as_ptr().add(p * NR));
            let b1 = _mm256_loadu_ps(bp.as_ptr().add(p * NR + 8));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*ap.get_unchecked(p * MR + r));
                acc_r[0] = _mm256_fmadd_ps(a, b0, acc_r[0]);
                acc_r[1] = _mm256_fmadd_ps(a, b1, acc_r[1]);
            }
        }
        for r in 0..mr {
            _mm256_storeu_ps(tile[r].as_mut_ptr(), acc[r][0]);
            _mm256_storeu_ps(tile[r].as_mut_ptr().add(8), acc[r][1]);
            c[r * ldc..r * ldc + nr].copy_from_slice(&tile[r][..nr]);
        }
    }

    /// AVX2 thin-`k` sweep over one `C` row block, bit-identical to
    /// the scalar `thin_sweep`: 16-wide column strips in the outer
    /// loop, row groups of up to [`THIN_ROWS`] inside (so each strip's
    /// `k` cache lines of `B` are re-used L1-hot by every group); the
    /// `n % 16` tail runs an 8-wide chunk and then scalar lanes, every
    /// element still folding its contraction in increasing `p` order.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 + FMA are available, `b.len() >= k*n`,
    /// `c_block.len() >= mb*n` (both re-sliced below), and
    /// `a_rows.len() >= mb`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn thin_strips(
        k: usize,
        n: usize,
        mb: usize,
        a_rows: &[[f32; THIN_K]],
        b: &[f32],
        c_block: &mut [f32],
    ) {
        let b = &b[..k * n];
        let c_block = &mut c_block[..mb * n];
        assert!(a_rows.len() >= mb);
        let mut j0 = 0;
        while j0 + 16 <= n {
            let mut r = 0;
            while r < mb {
                let rows = (mb - r).min(THIN_ROWS);
                let a_group = &a_rows[r..];
                let c_rows = &mut c_block[r * n..];
                match rows {
                    6 => strip16::<6>(k, n, j0, a_group, b, c_rows),
                    5 => strip16::<5>(k, n, j0, a_group, b, c_rows),
                    4 => strip16::<4>(k, n, j0, a_group, b, c_rows),
                    3 => strip16::<3>(k, n, j0, a_group, b, c_rows),
                    2 => strip16::<2>(k, n, j0, a_group, b, c_rows),
                    _ => strip16::<1>(k, n, j0, a_group, b, c_rows),
                }
                r += rows;
            }
            j0 += 16;
        }
        if j0 + 8 <= n {
            let mut r = 0;
            while r < mb {
                let rows = (mb - r).min(THIN_ROWS);
                let a_group = &a_rows[r..];
                let c_rows = &mut c_block[r * n..];
                match rows {
                    6 => strip8::<6>(k, n, j0, a_group, b, c_rows),
                    5 => strip8::<5>(k, n, j0, a_group, b, c_rows),
                    4 => strip8::<4>(k, n, j0, a_group, b, c_rows),
                    3 => strip8::<3>(k, n, j0, a_group, b, c_rows),
                    2 => strip8::<2>(k, n, j0, a_group, b, c_rows),
                    _ => strip8::<1>(k, n, j0, a_group, b, c_rows),
                }
                r += rows;
            }
            j0 += 8;
        }
        for j in j0..n {
            for r in 0..mb {
                let mut slot = c_block[r * n + j];
                let a_row = &a_rows[r];
                for p in 0..k {
                    slot = a_row[p].mul_add(b[p * n + j], slot);
                }
                c_block[r * n + j] = slot;
            }
        }
    }

    /// One 16-wide strip of [`thin_strips`]: `ROWS` `C` rows × two
    /// vectors accumulate the whole contraction, every `B` load
    /// feeding `ROWS` fused multiply-adds.
    ///
    /// # Safety
    ///
    /// AVX2 + FMA available; `j0 + 16 <= n`, `b.len() >= k*n`,
    /// `c_rows.len() >= ROWS*n`, `a_rows.len() >= ROWS`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn strip16<const ROWS: usize>(
        k: usize,
        n: usize,
        j0: usize,
        a_rows: &[[f32; THIN_K]],
        b: &[f32],
        c_rows: &mut [f32],
    ) {
        const { assert!(ROWS >= 1 && ROWS <= THIN_ROWS) };
        // Hoisted bounds proofs for the raw loads/stores below: the
        // deepest C access is (ROWS-1)*n + j0 + 16 <= ROWS*n, the
        // deepest B access (k-1)*n + j0 + 16 <= k*n.
        let _ = &c_rows[..(ROWS - 1) * n + j0 + 16];
        let _ = &b[..k * n];
        let _ = &a_rows[..ROWS];
        let mut acc = [[_mm256_setzero_ps(); 2]; ROWS];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r[0] = _mm256_loadu_ps(c_rows.as_ptr().add(r * n + j0));
            acc_r[1] = _mm256_loadu_ps(c_rows.as_ptr().add(r * n + j0 + 8));
        }
        for p in 0..k {
            let base = b.as_ptr().add(p * n + j0);
            let b0 = _mm256_loadu_ps(base);
            let b1 = _mm256_loadu_ps(base.add(8));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*a_rows.get_unchecked(r).get_unchecked(p));
                acc_r[0] = _mm256_fmadd_ps(a, b0, acc_r[0]);
                acc_r[1] = _mm256_fmadd_ps(a, b1, acc_r[1]);
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            _mm256_storeu_ps(c_rows.as_mut_ptr().add(r * n + j0), acc_r[0]);
            _mm256_storeu_ps(c_rows.as_mut_ptr().add(r * n + j0 + 8), acc_r[1]);
        }
    }

    /// One 8-wide strip of [`thin_strips`] (the `n % 16 >= 8` tail).
    ///
    /// # Safety
    ///
    /// AVX2 + FMA available; `j0 + 8 <= n`, `b.len() >= k*n`,
    /// `c_rows.len() >= ROWS*n`, `a_rows.len() >= ROWS`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn strip8<const ROWS: usize>(
        k: usize,
        n: usize,
        j0: usize,
        a_rows: &[[f32; THIN_K]],
        b: &[f32],
        c_rows: &mut [f32],
    ) {
        const { assert!(ROWS >= 1 && ROWS <= THIN_ROWS) };
        let _ = &c_rows[..(ROWS - 1) * n + j0 + 8];
        let _ = &b[..k * n];
        let _ = &a_rows[..ROWS];
        let mut acc = [_mm256_setzero_ps(); ROWS];
        for (r, slot) in acc.iter_mut().enumerate() {
            *slot = _mm256_loadu_ps(c_rows.as_ptr().add(r * n + j0));
        }
        for p in 0..k {
            let bv = _mm256_loadu_ps(b.as_ptr().add(p * n + j0));
            for (r, slot) in acc.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*a_rows.get_unchecked(r).get_unchecked(p));
                *slot = _mm256_fmadd_ps(a, bv, *slot);
            }
        }
        for (r, &slot) in acc.iter().enumerate() {
            _mm256_storeu_ps(c_rows.as_mut_ptr().add(r * n + j0), slot);
        }
    }

    /// AVX2 narrow `A·Bᵀ` kernel (`ROWS = m` is 1 or 2), bit-identical
    /// to the scalar `nt_narrow`: `NTW = 8` outputs per row run as one
    /// vector of independent accumulation chains. `B`'s rows are
    /// contiguous along `p`, so 8×8 blocks are transposed in registers
    /// to put each `p` across the 8 output lanes; the `k % 8`
    /// remainder and the `n % 8` column tail finish as scalar
    /// `mul_add` chains over the same index ranges.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 + FMA are available, `a.len() >=
    /// ROWS*k`, `b.len() >= n*k`, `c.len() >= ROWS*n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn nt_narrow<const ROWS: usize>(
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        const { assert!(ROWS == 1 || ROWS == 2) };
        let a = &a[..ROWS * k];
        let b = &b[..n * k];
        let c = &mut c[..ROWS * n];
        let mut j0 = 0;
        while j0 + NTW <= n {
            let mut acc = [_mm256_setzero_ps(); ROWS];
            for (r, slot) in acc.iter_mut().enumerate() {
                // In bounds: r*n + j0 + 8 <= ROWS*n.
                *slot = _mm256_loadu_ps(c.as_ptr().add(r * n + j0));
            }
            let mut p0 = 0;
            while p0 + 8 <= k {
                // In bounds: (j0 + jj)*k + p0 + 8 <= (j0 + 8)*k <= n*k.
                let bb = b.as_ptr().add(j0 * k + p0);
                let t = transpose8([
                    _mm256_loadu_ps(bb),
                    _mm256_loadu_ps(bb.add(k)),
                    _mm256_loadu_ps(bb.add(2 * k)),
                    _mm256_loadu_ps(bb.add(3 * k)),
                    _mm256_loadu_ps(bb.add(4 * k)),
                    _mm256_loadu_ps(bb.add(5 * k)),
                    _mm256_loadu_ps(bb.add(6 * k)),
                    _mm256_loadu_ps(bb.add(7 * k)),
                ]);
                for (pp, &col) in t.iter().enumerate() {
                    for (r, slot) in acc.iter_mut().enumerate() {
                        let x = _mm256_set1_ps(*a.get_unchecked(r * k + p0 + pp));
                        *slot = _mm256_fmadd_ps(x, col, *slot);
                    }
                }
                p0 += 8;
            }
            if p0 < k {
                // k tail: finish each lane's chain serially, same
                // increasing-p order the vector prefix left off at.
                for (r, slot) in acc.iter_mut().enumerate() {
                    let mut lanes = [0.0f32; NTW];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), *slot);
                    for (jj, lane) in lanes.iter_mut().enumerate() {
                        let row = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                        for p in p0..k {
                            *lane = a[r * k + p].mul_add(row[p], *lane);
                        }
                    }
                    *slot = _mm256_loadu_ps(lanes.as_ptr());
                }
            }
            for (r, &slot) in acc.iter().enumerate() {
                _mm256_storeu_ps(c.as_mut_ptr().add(r * n + j0), slot);
            }
            j0 += NTW;
        }
        for jj in j0..n {
            let row = &b[jj * k..(jj + 1) * k];
            for r in 0..ROWS {
                let mut slot = c[r * n + jj];
                for p in 0..k {
                    slot = a[r * k + p].mul_add(row[p], slot);
                }
                c[r * n + jj] = slot;
            }
        }
    }

    /// AVX2 packing of a `[n,k]` (transposed) `B` into `[panel][p][jr]`
    /// column panels: full panels move 8×8 blocks through in-register
    /// transposes instead of the scalar element scatter; `k % 8` and
    /// the partial last panel take the scalar path (with zero-filled
    /// pad lanes, exactly like the scalar packer).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available, `b.len() >= n*k`, and
    /// `bp.len() >= n.div_ceil(NR)*k*NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn pack_b_transposed(bp: &mut [f32], b: &[f32], k: usize, n: usize) {
        let n_panels = n.div_ceil(NR);
        let b = &b[..n * k];
        let bp = &mut bp[..n_panels * k * NR];
        for jp in 0..n_panels {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            if w == NR {
                let mut p0 = 0;
                while p0 + 8 <= k {
                    for half in 0..2 {
                        // In bounds: the deepest load ends at
                        // (j0 + half*8 + 7)*k + p0 + 8 <= (j0+16)*k <=
                        // n*k; the deepest store at
                        // (jp*k + p0 + 7)*NR + half*8 + 8 <=
                        // (jp+1)*k*NR <= bp.len().
                        let src = b.as_ptr().add((j0 + half * 8) * k + p0);
                        let t = transpose8([
                            _mm256_loadu_ps(src),
                            _mm256_loadu_ps(src.add(k)),
                            _mm256_loadu_ps(src.add(2 * k)),
                            _mm256_loadu_ps(src.add(3 * k)),
                            _mm256_loadu_ps(src.add(4 * k)),
                            _mm256_loadu_ps(src.add(5 * k)),
                            _mm256_loadu_ps(src.add(6 * k)),
                            _mm256_loadu_ps(src.add(7 * k)),
                        ]);
                        for (pp, &row) in t.iter().enumerate() {
                            let dst = bp.as_mut_ptr().add((jp * k + p0 + pp) * NR + half * 8);
                            _mm256_storeu_ps(dst, row);
                        }
                    }
                    p0 += 8;
                }
                for jr in 0..NR {
                    let col = &b[(j0 + jr) * k..(j0 + jr + 1) * k];
                    for p in p0..k {
                        bp[(jp * k + p) * NR + jr] = col[p];
                    }
                }
            } else {
                for p in 0..k {
                    let dst = (jp * k + p) * NR;
                    bp[dst + w..dst + NR].fill(0.0);
                }
                for jr in 0..w {
                    let col = &b[(j0 + jr) * k..(j0 + jr + 1) * k];
                    for (p, &v) in col.iter().enumerate() {
                        bp[(jp * k + p) * NR + jr] = v;
                    }
                }
            }
        }
    }

    /// 8×8 in-register transpose: `out[i][j] = rows[j][i]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(rows: [__m256; 8]) -> [__m256; 8] {
        let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
        let t0 = _mm256_unpacklo_ps(r0, r1);
        let t1 = _mm256_unpackhi_ps(r0, r1);
        let t2 = _mm256_unpacklo_ps(r2, r3);
        let t3 = _mm256_unpackhi_ps(r2, r3);
        let t4 = _mm256_unpacklo_ps(r4, r5);
        let t5 = _mm256_unpackhi_ps(r4, r5);
        let t6 = _mm256_unpacklo_ps(r6, r7);
        let t7 = _mm256_unpackhi_ps(r6, r7);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// Run `$group::<R>` for a group of `$rows` (1..=[`CONV_GROUP`])
    /// with the group size as a const generic, so each group's
    /// accumulators live in registers.
    macro_rules! by_group_size {
        ($rows:expr, $group:ident($($arg:expr),*)) => {
            match $rows {
                8 => $group::<8>($($arg),*),
                7 => $group::<7>($($arg),*),
                6 => $group::<6>($($arg),*),
                5 => $group::<5>($($arg),*),
                4 => $group::<4>($($arg),*),
                3 => $group::<3>($($arg),*),
                2 => $group::<2>($($arg),*),
                _ => $group::<1>($($arg),*),
            }
        };
    }

    /// AVX2 forward of a narrow direct convolution, bit-identical to
    /// `conv_narrow::forward`'s scalar loop: the output plane of each
    /// channel is cut into 8-wide row vectors (the last one per row
    /// partial), and groups of [`CONV_GROUP`] vectors fold all taps in
    /// `(c, ky, kx)` order, one broadcast weight feeding every
    /// accumulator. Each lane is one output's own chain.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 + FMA are available. The geometry and
    /// the slice lengths are checked here: `xp` must cover the plane
    /// plus `LANES − 1` slack.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn narrow_forward(
        g: &Geometry,
        weight: &[f32],
        bias: &[f32],
        xp: &[f32],
        out: &mut [f32],
    ) {
        g.assert_consistent();
        let (taps, plane) = (g.taps(), g.oh * g.ow);
        let weight = &weight[..g.c_out * taps];
        let xp = &xp[..g.plane() + LANES - 1];
        let out = &mut out[..g.c_out * plane];
        let vectors = g.oh * g.ow.div_ceil(LANES);
        for co in 0..g.c_out {
            let w_co = &weight[co * taps..(co + 1) * taps];
            let out_co = &mut out[co * plane..(co + 1) * plane];
            let mut v0 = 0;
            while v0 < vectors {
                let rows = (vectors - v0).min(CONV_GROUP);
                by_group_size!(rows, forward_group(g, w_co, bias[co], xp, out_co, v0));
                v0 += rows;
            }
        }
    }

    /// Output vectors `v0..v0 + R` of one channel of
    /// [`narrow_forward`]; vector `v` is row `v / cpr`, columns from
    /// `(v % cpr)·8`.
    ///
    /// # Safety
    ///
    /// AVX2 + FMA available; `xp.len() >= g.plane() + LANES − 1`,
    /// `w_co.len() == g.taps()`, `out_co.len() == g.oh·g.ow`,
    /// `v0 + R <= g.oh·cpr`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn forward_group<const R: usize>(
        g: &Geometry,
        w_co: &[f32],
        b: f32,
        xp: &[f32],
        out_co: &mut [f32],
        v0: usize,
    ) {
        let (k, hp, wp, ow) = (g.k, g.hp(), g.wp(), g.ow);
        let cpr = ow.div_ceil(LANES);
        let at = |r: usize| ((v0 + r) / cpr, (v0 + r) % cpr * LANES);
        let base: [usize; R] = std::array::from_fn(|r| {
            let (oy, ox0) = at(r);
            oy * wp + ox0
        });
        // In bounds: the deepest load starts at
        // (c_in−1)·hp·wp + (k−1)·wp + (k−1) + (oh−1)·wp + ox0 with
        // ox0 <= ow−1, i.e. at most plane − 1, and reads 8 floats.
        let mut acc = [_mm256_setzero_ps(); R];
        let mut taps = w_co.iter();
        for c in 0..g.c_in {
            for ky in 0..k {
                let row = xp.as_ptr().add(c * hp * wp + ky * wp);
                for (kx, &w) in taps.by_ref().take(k).enumerate() {
                    let wv = _mm256_set1_ps(w);
                    for (slot, &off) in acc.iter_mut().zip(&base) {
                        *slot = _mm256_fmadd_ps(wv, _mm256_loadu_ps(row.add(off + kx)), *slot);
                    }
                }
            }
        }
        let bv = _mm256_set1_ps(b);
        for (r, &slot) in acc.iter().enumerate() {
            let (oy, ox0) = at(r);
            let width = (ow - ox0).min(LANES);
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_add_ps(slot, bv));
            out_co[oy * ow + ox0..oy * ow + ox0 + width].copy_from_slice(&lanes[..width]);
        }
    }

    /// AVX2 weight gradient of a narrow direct convolution,
    /// bit-identical to `conv_narrow::weight_grad`'s scalar loop. Each
    /// tap row `(c, ky)` and 8-wide `kx` chunk is one vector whose
    /// lanes are the chunk's taps; groups of [`CONV_GROUP`] such
    /// vectors walk the output positions in `(oy, ox)` order, one
    /// broadcast `dout` value feeding every accumulator. Lanes past
    /// `k` read the neighbouring padded pixels and are discarded.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 + FMA are available. The geometry and
    /// the slice lengths are checked here: `xp` must cover the plane
    /// plus `LANES − 1` slack.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn narrow_weight_grad(
        g: &Geometry,
        dout: &[f32],
        xp: &[f32],
        dw: &mut [f32],
    ) {
        g.assert_consistent();
        let (taps, plane) = (g.taps(), g.oh * g.ow);
        let dout = &dout[..g.c_out * plane];
        let xp = &xp[..g.plane() + LANES - 1];
        let dw = &mut dw[..g.c_out * taps];
        let rows = g.c_in * g.k * g.k.div_ceil(LANES);
        for co in 0..g.c_out {
            let d_co = &dout[co * plane..(co + 1) * plane];
            let dw_co = &mut dw[co * taps..(co + 1) * taps];
            let mut r0 = 0;
            while r0 < rows {
                let count = (rows - r0).min(CONV_GROUP);
                by_group_size!(count, weight_grad_group(g, d_co, xp, dw_co, r0));
                r0 += count;
            }
        }
    }

    /// Tap vectors `r0..r0 + R` of one output channel of
    /// [`narrow_weight_grad`]; vector `r` is tap row `r / chunks`
    /// (`= c·k + ky`), taps `kx` from `(r % chunks)·8`.
    ///
    /// # Safety
    ///
    /// AVX2 + FMA available; `xp.len() >= g.plane() + LANES − 1`,
    /// `d_co.len() == g.oh·g.ow`, `dw_co.len() == g.taps()`,
    /// `r0 + R <= g.c_in·g.k·chunks`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn weight_grad_group<const R: usize>(
        g: &Geometry,
        d_co: &[f32],
        xp: &[f32],
        dw_co: &mut [f32],
        r0: usize,
    ) {
        let (k, hp, wp, ow) = (g.k, g.hp(), g.wp(), g.ow);
        let chunks = k.div_ceil(LANES);
        let at = |r: usize| ((r0 + r) / chunks, (r0 + r) % chunks * LANES);
        let base: [usize; R] = std::array::from_fn(|r| {
            let (ck, kx0) = at(r);
            (ck / k) * hp * wp + (ck % k) * wp + kx0
        });
        // In bounds: the deepest load starts at
        // (c_in−1)·hp·wp + (k−1)·wp + kx0 + (oh−1)·wp + (ow−1) with
        // kx0 <= k−1, i.e. at most plane − 1, and reads 8 floats.
        let mut acc = [_mm256_setzero_ps(); R];
        for (oy, d_row) in d_co.chunks_exact(ow).enumerate() {
            let row = xp.as_ptr().add(oy * wp);
            for (ox, &d) in d_row.iter().enumerate() {
                let dv = _mm256_set1_ps(d);
                for (slot, &off) in acc.iter_mut().zip(&base) {
                    *slot = _mm256_fmadd_ps(dv, _mm256_loadu_ps(row.add(off + ox)), *slot);
                }
            }
        }
        for (r, &slot) in acc.iter().enumerate() {
            let (ck, kx0) = at(r);
            let width = (k - kx0).min(LANES);
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), slot);
            dw_co[ck * k + kx0..ck * k + kx0 + width].copy_from_slice(&lanes[..width]);
        }
    }

    /// AVX2 input-gradient scatter of a narrow direct convolution,
    /// bit-identical to `conv_narrow::scatter_taps`: taps in
    /// `(c, ky, kx)` order, each adding `fold_co W[co, p]·dout[co, j]`
    /// into the padded plane 8 output columns at a time (distinct
    /// columns hit distinct cells, so lanes never collide); the
    /// `ow % 8` tail runs the same steps as scalar `mul_add` chains.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 + FMA are available. Slice lengths are
    /// checked here.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn narrow_input_grad(
        g: &Geometry,
        weight: &[f32],
        dout: &[f32],
        gpad: &mut [f32],
    ) {
        let (k, hp, wp, ow) = (g.k, g.hp(), g.wp(), g.ow);
        let (taps, plane) = (g.taps(), g.oh * ow);
        let weight = &weight[..g.c_out * taps];
        let dout = &dout[..g.c_out * plane];
        let gpad = &mut gpad[..g.plane()];
        let full = ow - ow % LANES;
        for p in 0..taps {
            let (c, ky, kx) = (p / (k * k), p / k % k, p % k);
            for oy in 0..g.oh {
                let cells = &mut gpad[c * hp * wp + (oy + ky) * wp + kx..][..ow];
                let d_at = oy * ow;
                for ox in (0..full).step_by(LANES) {
                    // In bounds: ox + 8 <= full <= ow, so every load
                    // stays inside its `dout` row and its `cells` row.
                    let mut v = _mm256_setzero_ps();
                    for co in 0..g.c_out {
                        let d = _mm256_loadu_ps(dout.as_ptr().add(co * plane + d_at + ox));
                        v = _mm256_fmadd_ps(_mm256_set1_ps(weight[co * taps + p]), d, v);
                    }
                    let dst = cells.as_mut_ptr().add(ox);
                    _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), v));
                }
                for (ox, cell) in cells.iter_mut().enumerate().skip(full) {
                    let mut v = 0.0f32;
                    for co in 0..g.c_out {
                        v = weight[co * taps + p].mul_add(dout[co * plane + d_at + ox], v);
                    }
                    *cell += v;
                }
            }
        }
    }
}
