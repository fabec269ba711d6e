use rand::Rng;
use serde::{Deserialize, Serialize, Value};

/// A dense, contiguous, row-major `f32` tensor.
///
/// Shapes are dynamic (`Vec<usize>`); all layers in this crate work
/// with 2-D (`[batch, features]`) or 4-D (`[batch, channels, h, w]`)
/// tensors. Data is always contiguous, which keeps the im2col/GEMM
/// kernels simple and fast.
///
/// # Example
///
/// ```
/// use nn::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.at2(1, 0), 3.0);
/// let u = t.map(|v| v * 2.0);
/// assert_eq!(u.data()[3], 8.0);
/// ```
///
/// Serialized as `{"shape": [...], "data": "<base64>"}`: the data is the
/// little-endian bytes of every `f32` in standard padded base64, so a
/// round trip is bit-exact for every value, NaN payloads and ±∞
/// included. Deserializing checks that the data length equals the
/// shape product and rejects non-canonical base64.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// The default tensor is empty (no shape, no data). It exists so
/// scratch structs can `#[derive(Default)]` a parked tensor that is
/// later grown in place via [`Tensor::refill_from`] /
/// [`Tensor::resize`]; most tensor methods are meaningless on it.
impl Default for Tensor {
    fn default() -> Self {
        Tensor { shape: Vec::new(), data: Vec::new() }
    }
}

impl Tensor {
    /// Tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = checked_numel(shape);
        Tensor { shape: shape.to_vec(), data: vec![value; numel] }
    }

    /// Tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel = checked_numel(shape);
        assert_eq!(data.len(), numel, "data length {} != shape product {}", data.len(), numel);
        Tensor { shape: shape.to_vec(), data }
    }

    /// Tensor of i.i.d. zero-mean Gaussians with standard deviation
    /// `std` (Box–Muller).
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    #[must_use]
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let numel = checked_numel(shape);
        let mut data = Vec::with_capacity(numel);
        while data.len() < numel {
            let u1: f32 = rng.gen::<f32>().max(f32::MIN_POSITIVE);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < numel {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape: shape.to_vec(), data }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying data (row-major).
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its data buffer.
    #[must_use]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret the data with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    #[must_use]
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        let numel = checked_numel(shape);
        assert_eq!(
            numel,
            self.data.len(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        Tensor { shape: shape.to_vec(), data: self.data.clone() }
    }

    /// In-place reshape (no data movement).
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    pub fn reshape(&mut self, shape: &[usize]) {
        let numel = checked_numel(shape);
        assert_eq!(
            numel,
            self.data.len(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
    }

    /// Element at `(row, col)` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or indices are out of range.
    #[must_use]
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "at2 requires a 2-D tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        assert!(row < r && col < c, "index ({row},{col}) out of bounds for {r}x{c}");
        self.data[row * c + col]
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Make `self` an exact copy of `other`, reusing the existing data
    /// buffer when its capacity suffices. This is the hot-path
    /// alternative to `clone()`: layer caches and staging tensors call
    /// it every batch, and once warmed to the largest shape seen it
    /// performs no allocation.
    pub fn refill_from(&mut self, other: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&other.shape);
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Change the shape in place, reusing the data buffer when its
    /// capacity suffices. Existing elements are **not** reset — the
    /// caller is expected to overwrite every slot (staging tensors
    /// refilled each batch); elements exposed by growth start at 0.0.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn resize(&mut self, shape: &[usize]) {
        let numel = checked_numel(shape);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(numel, 0.0);
    }

    /// New tensor with `f` applied elementwise.
    #[must_use]
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Elementwise sum of two tensors of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiply every element by `scale` in place.
    pub fn scale(&mut self, scale: f32) {
        self.data.iter_mut().for_each(|v| *v *= scale);
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an impossible empty tensor).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest absolute element (L∞ norm).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Whether every element is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// 2-D matrix multiply: `self [m,k] x other [k,n] -> [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or inner dimensions differ.
    #[must_use]
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        crate::gemm::sgemm(m, k, n, &self.data, &other.data, out.data_mut());
        out
    }
}

fn checked_numel(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "tensor shape must have at least one dimension");
    assert!(shape.iter().all(|&d| d > 0), "tensor dimensions must be non-zero: {shape:?}");
    shape.iter().product()
}

impl Serialize for Tensor {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("shape".to_owned(), self.shape.to_value()),
            ("data".to_owned(), Value::String(base64_encode_f32(&self.data))),
        ])
    }
}

impl Deserialize for Tensor {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        if value.as_object().is_none() {
            return Err(serde::Error::expected("tensor object", value));
        }
        let field =
            |name| value.get(name).ok_or_else(|| serde::Error::missing_field("Tensor", name));
        let shape = Vec::<usize>::from_value(field("shape")?)?;
        let data = field("data")?;
        let text = data.as_str().ok_or_else(|| {
            serde::Error::custom(format!(
                "tensor data must be a base64 string, got {} (checkpoints before format 2 \
                 stored decimal arrays and are not readable)",
                data.kind()
            ))
        })?;
        let numel = shape
            .iter()
            .try_fold(1usize, |n, &d| if d == 0 { None } else { n.checked_mul(d) })
            .filter(|_| !shape.is_empty())
            .ok_or_else(|| serde::Error::custom(format!("invalid tensor shape {shape:?}")))?;
        let data = base64_decode_f32(text)?;
        if data.len() != numel {
            return Err(serde::Error::custom(format!(
                "tensor data holds {} values, shape {shape:?} needs {numel}",
                data.len()
            )));
        }
        Ok(Tensor { shape, data })
    }
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Sextet value of each byte, or `0xFF` for bytes outside the alphabet.
const BASE64_SEXTET: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Standard padded base64 of the little-endian bytes of `values`.
fn base64_encode_f32(values: &[f32]) -> String {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let n = chunk.iter().enumerate().fold(0u32, |n, (i, &b)| n | u32::from(b) << (16 - 8 * i));
        for i in 0..4 {
            let sextet = (n >> (18 - 6 * i)) & 63;
            out.push(if i <= chunk.len() {
                char::from(BASE64_ALPHABET[sextet as usize])
            } else {
                '='
            });
        }
    }
    out
}

/// Inverse of [`base64_encode_f32`]. Accepts only canonical encodings:
/// length a multiple of 4, `=` only as final padding, zero padding
/// bits, and a byte count that is a whole number of `f32`s.
fn base64_decode_f32(text: &str) -> Result<Vec<f32>, serde::Error> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(serde::Error::custom("base64 length is not a multiple of 4"));
    }
    let pad = text.iter().rev().take(2).take_while(|&&c| c == b'=').count();
    let n_bytes = text.len() / 4 * 3 - pad;
    if !n_bytes.is_multiple_of(4) {
        return Err(serde::Error::custom(format!("{n_bytes} data bytes is not a whole f32 count")));
    }
    let mut bytes = Vec::with_capacity(n_bytes + 2);
    for quad in text.chunks_exact(4) {
        let mut n = 0u32;
        for &c in quad {
            let sextet = match (c, BASE64_SEXTET[usize::from(c)]) {
                (b'=', _) => 0,
                (_, 0xFF) => {
                    return Err(serde::Error::custom(format!("invalid base64 byte {c:#04x}")))
                }
                (_, sextet) => sextet,
            };
            n = n << 6 | u32::from(sextet);
        }
        bytes.extend_from_slice(&n.to_be_bytes()[1..]);
    }
    // `=` decodes as sextet 0 above; it is legal only as the final
    // `pad` bytes, and the bits it pads must be zero.
    let body = &text[..text.len() - pad];
    if body.contains(&b'=') || bytes[n_bytes..].iter().any(|&b| b != 0) {
        return Err(serde::Error::custom("non-canonical base64 padding"));
    }
    bytes.truncate(n_bytes);
    Ok(bytes.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect())
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at2(0, 2), 3.0);
        assert_eq!(t.at2(1, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let r = t.reshaped(&[6, 4]);
        assert_eq!(r.shape(), &[6, 4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_count() {
        let t = Tensor::zeros(&[2, 3]);
        let _ = t.reshaped(&[4, 2]);
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        let c = a.matmul(&eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[100, 100], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.numel() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn refill_from_copies_and_reuses_buffer() {
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let mut dst = Tensor::zeros(&[4, 4]);
        let ptr = dst.data().as_ptr();
        dst.refill_from(&src);
        assert_eq!(dst.shape(), &[2, 2]);
        assert_eq!(dst.data(), src.data());
        assert_eq!(dst.data().as_ptr(), ptr, "smaller refill must reuse the buffer");
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Tensor::full(&[4], 1.0);
        let b = Tensor::full(&[4], 2.0);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[2.0; 4]);
        a.scale(3.0);
        assert_eq!(a.data(), &[6.0; 4]);
    }

    #[test]
    fn map_and_reductions() {
        let t = Tensor::from_vec(vec![-1.0, 2.0, -3.0], &[3]);
        assert_eq!(t.map(f32::abs).sum(), 6.0);
        assert_eq!(t.max_abs(), 3.0);
        assert!((t.mean() - (-2.0 / 3.0)).abs() < 1e-6);
        assert!(t.is_finite());
        assert!(!t.map(|v| v / 0.0).is_finite());
    }
}
