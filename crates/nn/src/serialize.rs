//! Checkpointing: extract and restore parameter state for any
//! [`Layer`] tree, with crash-safe on-disk persistence.
//!
//! Layers are trait objects, so instead of serializing whole layers we
//! serialize an ordered *state dict* of parameter tensors (values,
//! gradients, and per-parameter Adam moments). Restoring walks the
//! same parameter order and verifies shapes.
//!
//! A [`StateDict`] alone is **not** enough to resume training exactly:
//! Adam's bias correction depends on the optimizer's global step
//! counter `t`, which lives in [`crate::optim::Adam`], not in any
//! parameter. [`Checkpoint`] is the versioned bundle that pairs a
//! `StateDict` with an [`AdamState`] so a resumed run is bit-identical
//! to an uninterrupted one.
//!
//! # On-disk container format (v2)
//!
//! Checkpoints are the long-lived asset a serving fleet trusts on
//! disk, so every `save` in this module (and
//! `selective::CheckpointBundle::save`) writes a self-validating
//! container and goes through [`atomic_write`] — a crash at any
//! instant leaves either the complete old file or the complete new
//! file, never a torn hybrid:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"WMSERL2\0"
//! 8       4     container version (u32 LE, currently 2)
//! 12      8     payload length     (u64 LE)
//! 20      4     CRC32 of payload   (u32 LE, IEEE polynomial)
//! 24      n     payload            (JSON of the serialized value)
//! ```
//!
//! Inside the JSON, every [`Tensor`] is `{"shape": [...], "data":
//! "<base64>"}` — the little-endian bytes of its `f32`s in standard
//! padded base64 — so values, NaN payloads and ±∞ round-trip
//! bit-exactly, a tensor costs ~5.3 payload bytes per `f32`, and
//! parsing it is one string scan instead of one number parse per
//! element.
//! Decoding rejects non-canonical base64 and any data length that
//! differs from the shape product, so a loaded tensor is always
//! well-formed; [`StateDict::restore`] then checks all four tensors of
//! every parameter against the target layer. The JSON parser caps
//! nesting depth ([`serde_json::MAX_DEPTH`]), so no payload can
//! overflow the stack.
//!
//! [`read_container`] verifies the magic, version, length, and
//! checksum before a single payload byte is parsed, and classifies
//! every failure as a typed [`LoadError`] — [`LoadError::Truncated`],
//! [`LoadError::ChecksumMismatch`], [`LoadError::UnsupportedVersion`],
//! or [`LoadError::Malformed`] — never a panic and never a
//! silently-wrong value. Files that do not begin with the magic are
//! treated as **v1** (bare JSON, the pre-container format) and still
//! load.

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::optim::AdamState;
use crate::{Layer, Param, Tensor};

/// Current on-disk format version written by [`Checkpoint::save`].
///
/// Version history:
/// - **1** — initial versioned format: parameter state dict plus
///   optional Adam optimizer state (step counter + hyper-parameters).
///   Pre-versioned checkpoints (a bare `StateDict`, which lost the
///   Adam step counter) are rejected on load.
/// - **2** — tensor data stored as base64 of little-endian `f32` bytes
///   instead of an array of decimals; exact for non-finite values.
///   Version-1 files no longer load (their tensors are
///   [`LoadError::Malformed`]).
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

/// Magic bytes opening every v2 serialization container.
pub const CONTAINER_MAGIC: [u8; 8] = *b"WMSERL2\0";

/// Container layout version written by [`write_container`].
///
/// Version history:
/// - **1** — (implicit) bare JSON with no header; still readable.
/// - **2** — magic + version + payload length + CRC32 header, written
///   atomically.
pub const CONTAINER_FORMAT_VERSION: u32 = 2;

/// Size of the fixed v2 container header in bytes.
pub const CONTAINER_HEADER_LEN: usize = 24;

// ---------------------------------------------------------------------------
// CRC32 + atomic writes
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `t[0]` is the classic bytewise table and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

/// CRC32 (IEEE 802.3 polynomial) of `bytes` — the checksum stored in
/// and verified against the v2 container header. Folds eight bytes per
/// step (slicing-by-8), then finishes the tail bytewise.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Write `bytes` to `path` crash-safely: the bytes go to a temporary
/// sibling file first, are fsynced, and the temporary is renamed over
/// `path` (a single atomic filesystem operation on POSIX). The
/// containing directory is fsynced afterwards so the rename itself is
/// durable. A crash at any point leaves either the old file or the
/// new file — never a partial write under the final name.
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is removed on
/// failure (best effort).
pub fn atomic_write<P: AsRef<Path>>(path: P, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;

    let path = path.as_ref();
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("path {} has no file name", path.display()),
            )
        })?
        .to_os_string();
    let mut tmp_name = file_name;
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp_path = dir.join(tmp_name);

    let result = (|| -> std::io::Result<()> {
        let mut tmp = std::fs::File::create(&tmp_path)?;
        tmp.write_all(bytes)?;
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, path)?;
        // Make the rename durable. Directory fsync is a POSIX-ism;
        // where directories cannot be opened (e.g. Windows) the rename
        // is already as durable as the platform offers.
        if let Ok(dir_handle) = std::fs::File::open(&dir) {
            let _ = dir_handle.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

// ---------------------------------------------------------------------------
// Typed load errors
// ---------------------------------------------------------------------------

/// Why a checkpoint artifact could not be loaded. Every corruption
/// mode maps to a variant — loading garbage is an error, never a
/// panic and never a silently mis-parsed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The underlying filesystem read failed (file missing, permission
    /// denied, interrupted, …). The original error is summarized by
    /// kind and message so `LoadError` stays comparable in tests.
    Io {
        /// Kind of the underlying I/O error.
        kind: std::io::ErrorKind,
        /// Display form of the underlying error.
        message: String,
    },
    /// The file ends before the container header or the declared
    /// payload — the classic torn write.
    Truncated {
        /// Bytes the container declares (or minimally requires).
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The payload bytes do not hash to the checksum in the header —
    /// silent corruption between write and read.
    ChecksumMismatch {
        /// CRC32 stored in the header.
        expected: u32,
        /// CRC32 of the payload as read.
        found: u32,
    },
    /// The container or inner format version is one this build does
    /// not read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// The bytes passed every structural check but do not parse as
    /// the expected value (bad JSON, wrong schema, trailing garbage).
    Malformed(String),
}

impl LoadError {
    fn malformed_json(e: impl fmt::Display) -> Self {
        LoadError::Malformed(format!("payload is not valid JSON for the expected type: {e}"))
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io { kind: e.kind(), message: e.to_string() }
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { kind, message } => write!(f, "i/o error ({kind:?}): {message}"),
            LoadError::Truncated { expected, found } => {
                write!(f, "file truncated: {found} bytes present, {expected} expected")
            }
            LoadError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum mismatch: header says {expected:#010x}, payload hashes to \
                 {found:#010x}"
            ),
            LoadError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (this build reads <= {supported})")
            }
            LoadError::Malformed(why) => write!(f, "malformed file: {why}"),
        }
    }
}

impl std::error::Error for LoadError {}

// ---------------------------------------------------------------------------
// Container read/write
// ---------------------------------------------------------------------------

/// Payload extracted from an on-disk serialization container, tagged
/// with the container version it was stored under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Container layout version: `1` for bare pre-container JSON
    /// files, [`CONTAINER_FORMAT_VERSION`] for headered files.
    pub version: u32,
    /// The payload bytes (JSON of the serialized value).
    pub payload: Vec<u8>,
}

/// Wrap `payload` in a v2 container (magic, version, length, CRC32)
/// and write it to `path` through [`atomic_write`].
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_container<P: AsRef<Path>>(path: P, payload: &[u8]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(CONTAINER_HEADER_LEN + payload.len());
    bytes.extend_from_slice(&CONTAINER_MAGIC);
    bytes.extend_from_slice(&CONTAINER_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    atomic_write(path, &bytes)
}

/// Read and structurally validate a serialization container written by
/// [`write_container`], or fall back to treating the whole file as a
/// v1 (bare JSON) payload when the magic is absent.
///
/// Validation order: magic → container version → declared length →
/// checksum. The payload is returned only once every check passes, so
/// a caller never parses bytes the header does not vouch for.
///
/// # Errors
///
/// [`LoadError::Io`] for filesystem failures, [`LoadError::Truncated`]
/// when the file ends early (including mid-magic), and
/// [`LoadError::UnsupportedVersion`] / [`LoadError::ChecksumMismatch`]
/// / [`LoadError::Malformed`] for the corresponding header violations.
pub fn read_container<P: AsRef<Path>>(path: P) -> Result<Container, LoadError> {
    let mut bytes = std::fs::read(path)?;
    if bytes.len() < CONTAINER_MAGIC.len() {
        // A prefix of the magic is a v2 file cut mid-header, not a
        // v1 JSON file (no JSON document starts with "WMSER…"). The
        // empty file is ambiguous; neither format accepts it, and
        // "truncated" is the honest description.
        if CONTAINER_MAGIC.starts_with(&bytes) {
            return Err(LoadError::Truncated {
                expected: CONTAINER_HEADER_LEN as u64,
                found: bytes.len() as u64,
            });
        }
        return Ok(Container { version: 1, payload: bytes });
    }
    if bytes[..CONTAINER_MAGIC.len()] != CONTAINER_MAGIC {
        return Ok(Container { version: 1, payload: bytes });
    }
    if bytes.len() < CONTAINER_HEADER_LEN {
        return Err(LoadError::Truncated {
            expected: CONTAINER_HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if version != CONTAINER_FORMAT_VERSION {
        return Err(LoadError::UnsupportedVersion {
            found: version,
            supported: CONTAINER_FORMAT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 header bytes"));
    let expected_total = (CONTAINER_HEADER_LEN as u64).saturating_add(payload_len);
    let found_total = bytes.len() as u64;
    if found_total < expected_total {
        return Err(LoadError::Truncated { expected: expected_total, found: found_total });
    }
    if found_total > expected_total {
        return Err(LoadError::Malformed(format!(
            "{} trailing bytes after the declared payload",
            found_total - expected_total
        )));
    }
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 header bytes"));
    let actual_crc = crc32(&bytes[CONTAINER_HEADER_LEN..]);
    if stored_crc != actual_crc {
        return Err(LoadError::ChecksumMismatch { expected: stored_crc, found: actual_crc });
    }
    // Hand back the read buffer itself, minus the header.
    bytes.drain(..CONTAINER_HEADER_LEN);
    Ok(Container { version: CONTAINER_FORMAT_VERSION, payload: bytes })
}

/// Serialize `value` as JSON and write it to `path` inside a v2
/// container, atomically. The shared save path of [`StateDict`],
/// [`Checkpoint`], and `selective::CheckpointBundle`.
///
/// # Errors
///
/// Propagates serialization and filesystem errors.
pub fn save_json_container<P: AsRef<Path>, T: Serialize + ?Sized>(
    path: P,
    value: &T,
) -> Result<(), std::io::Error> {
    let json = serde_json::to_string(value).map_err(std::io::Error::other)?;
    write_container(path, json.as_bytes())
}

/// Load a JSON value from a v2 container (or a bare v1 JSON file) at
/// `path` — the shared load path of [`StateDict`], [`Checkpoint`],
/// and `selective::CheckpointBundle`. Returns the parsed value and
/// the container version it was stored under.
///
/// # Errors
///
/// Every structural violation surfaces as the corresponding typed
/// [`LoadError`]; payloads that clear the header checks but fail to
/// parse are [`LoadError::Malformed`].
pub fn load_json_container<P: AsRef<Path>, T: Deserialize>(path: P) -> Result<(T, u32), LoadError> {
    let container = read_container(path)?;
    let text = std::str::from_utf8(&container.payload)
        .map_err(|e| LoadError::Malformed(format!("payload is not UTF-8: {e}")))?;
    let value = serde_json::from_str(text).map_err(LoadError::malformed_json)?;
    Ok((value, container.version))
}

/// Ordered snapshot of every parameter in a layer tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDict {
    entries: Vec<Param>,
}

impl StateDict {
    /// Capture the current parameters (values, gradients and Adam
    /// moments) of `layer` in visitation order.
    #[must_use]
    pub fn capture(layer: &mut dyn Layer) -> Self {
        let mut entries = Vec::new();
        layer.visit_params(&mut |p: &mut Param| entries.push(p.clone()));
        StateDict { entries }
    }

    /// Number of parameters captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Restore this snapshot into `layer`.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] if the parameter count differs, or if
    /// any parameter's value, gradient or Adam moment shape does not
    /// match the target layer. Nothing is restored on error.
    pub fn restore(&self, layer: &mut dyn Layer) -> Result<(), RestoreError> {
        // First pass: validate without mutating.
        let mut shapes: Vec<Vec<usize>> = Vec::new();
        layer.visit_params(&mut |p: &mut Param| shapes.push(p.value.shape().to_vec()));
        if shapes.len() != self.entries.len() {
            return Err(RestoreError::CountMismatch {
                expected: shapes.len(),
                found: self.entries.len(),
            });
        }
        for (i, (shape, entry)) in shapes.iter().zip(&self.entries).enumerate() {
            let tensors =
                [("value", &entry.value), ("grad", &entry.grad), ("m", &entry.m), ("v", &entry.v)];
            if let Some((tensor, t)) =
                tensors.into_iter().find(|(_, t)| t.shape() != shape.as_slice())
            {
                return Err(RestoreError::ShapeMismatch {
                    index: i,
                    tensor,
                    expected: shape.clone(),
                    found: t.shape().to_vec(),
                });
            }
        }
        let mut i = 0;
        layer.visit_params(&mut |p: &mut Param| {
            *p = self.entries[i].clone();
            i += 1;
        });
        Ok(())
    }

    /// Serialize to a v2 container file via [`atomic_write`].
    ///
    /// # Errors
    ///
    /// Propagates file-creation and serialization errors.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), std::io::Error> {
        save_json_container(path, self)
    }

    /// Deserialize from a file written by [`StateDict::save`] — either
    /// a v2 container or a bare v1 JSON file.
    ///
    /// # Errors
    ///
    /// Returns the typed [`LoadError`] classifying any truncation,
    /// checksum mismatch, version skew, or parse failure.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, LoadError> {
        let (dict, _version) = load_json_container(path)?;
        Ok(dict)
    }

    /// Parameter values only (without optimizer state), useful for
    /// inspecting checkpoints.
    #[must_use]
    pub fn values(&self) -> Vec<&Tensor> {
        self.entries.iter().map(|p| &p.value).collect()
    }
}

/// Versioned checkpoint bundle: parameter state plus the optimizer
/// state a bit-exact training resume needs.
///
/// # Example
///
/// ```
/// use nn::layers::Linear;
/// use nn::optim::Adam;
/// use nn::serialize::{Checkpoint, StateDict};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Linear::new(4, 2, &mut rng);
/// let mut adam = Adam::new(1e-3);
/// adam.step(&mut net);
///
/// let ckpt = Checkpoint::new(StateDict::capture(&mut net)).with_optimizer(adam.state());
/// let restored = Adam::from_state(ckpt.optimizer().unwrap()).unwrap();
/// assert_eq!(restored.steps(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    format_version: u32,
    params: StateDict,
    optimizer: Option<AdamState>,
}

impl Checkpoint {
    /// Bundle a parameter snapshot at the current format version,
    /// without optimizer state (inference-only export).
    #[must_use]
    pub fn new(params: StateDict) -> Self {
        Checkpoint { format_version: CHECKPOINT_FORMAT_VERSION, params, optimizer: None }
    }

    /// Attach optimizer state so training can resume exactly.
    #[must_use]
    pub fn with_optimizer(mut self, optimizer: AdamState) -> Self {
        self.optimizer = Some(optimizer);
        self
    }

    /// Format version this bundle was written with.
    #[must_use]
    pub fn format_version(&self) -> u32 {
        self.format_version
    }

    /// The parameter snapshot.
    #[must_use]
    pub fn params(&self) -> &StateDict {
        &self.params
    }

    /// The optimizer state, if this checkpoint carries one.
    #[must_use]
    pub fn optimizer(&self) -> Option<&AdamState> {
        self.optimizer.as_ref()
    }

    /// Serialize to a v2 container file via [`atomic_write`].
    ///
    /// # Errors
    ///
    /// Propagates file-creation and serialization errors.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), std::io::Error> {
        save_json_container(path, self)
    }

    /// Deserialize from a file written by [`Checkpoint::save`] —
    /// either a v2 container or a bare v1 JSON file — rejecting
    /// unknown checkpoint format versions.
    ///
    /// # Errors
    ///
    /// Returns the typed [`LoadError`] classifying any truncation,
    /// checksum mismatch, version skew (container or checkpoint), or
    /// parse failure. A pre-versioned bare `StateDict` file carries no
    /// `format_version` and is [`LoadError::Malformed`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, LoadError> {
        let (ckpt, _version): (Checkpoint, u32) = load_json_container(path)?;
        if ckpt.format_version != CHECKPOINT_FORMAT_VERSION {
            return Err(LoadError::UnsupportedVersion {
                found: ckpt.format_version,
                supported: CHECKPOINT_FORMAT_VERSION,
            });
        }
        Ok(ckpt)
    }
}

/// Error restoring a [`StateDict`] into an incompatible layer tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot holds a different number of parameters.
    CountMismatch {
        /// Parameters in the target layer.
        expected: usize,
        /// Parameters in the snapshot.
        found: usize,
    },
    /// A parameter's shape disagrees.
    ShapeMismatch {
        /// Parameter index in visitation order.
        index: usize,
        /// Which of the parameter's tensors disagrees: `"value"`,
        /// `"grad"`, `"m"` or `"v"`.
        tensor: &'static str,
        /// Shape in the target layer.
        expected: Vec<usize>,
        /// Shape in the snapshot.
        found: Vec<usize>,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::CountMismatch { expected, found } => {
                write!(f, "state dict has {found} params, layer expects {expected}")
            }
            RestoreError::ShapeMismatch { index, tensor, expected, found } => write!(
                f,
                "param {index} {tensor} shape mismatch: layer {expected:?} vs state dict {found:?}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::layers::{Linear, Relu};
    use crate::Sequential;

    fn temp_path(dir_tag: &str, file: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(dir_tag);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(file)
    }

    #[test]
    fn capture_restore_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = Sequential::new().with(Linear::new(4, 3, &mut rng)).with(Relu::new());
        let snap = StateDict::capture(&mut a);
        assert_eq!(snap.len(), 2);

        let mut b = Sequential::new().with(Linear::new(4, 3, &mut rng)).with(Relu::new());
        snap.restore(&mut b).expect("compatible shapes");
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    fn restore_rejects_wrong_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = Sequential::new().with(Linear::new(4, 3, &mut rng));
        let snap = StateDict::capture(&mut a);
        let mut b =
            Sequential::new().with(Linear::new(4, 3, &mut rng)).with(Linear::new(3, 2, &mut rng));
        assert!(matches!(snap.restore(&mut b), Err(RestoreError::CountMismatch { .. })));
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = Sequential::new().with(Linear::new(4, 3, &mut rng));
        let snap = StateDict::capture(&mut a);
        let mut b = Sequential::new().with(Linear::new(5, 3, &mut rng));
        assert!(matches!(snap.restore(&mut b), Err(RestoreError::ShapeMismatch { .. })));
    }

    #[test]
    fn file_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new().with(Linear::new(3, 2, &mut rng));
        let snap = StateDict::capture(&mut net);
        let path = temp_path("nn_statedict_test", "ckpt.bin");
        snap.save(&path).expect("save");
        let loaded = StateDict::load(&path).expect("load");
        assert_eq!(snap, loaded);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_file_roundtrip_preserves_optimizer_state() {
        use crate::optim::Adam;

        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Sequential::new().with(Linear::new(3, 2, &mut rng));
        let mut adam = Adam::new(2e-3).with_betas(0.85, 0.99);
        net.zero_grad();
        adam.step(&mut net);
        adam.step(&mut net);

        let ckpt = Checkpoint::new(StateDict::capture(&mut net)).with_optimizer(adam.state());
        let path = temp_path("nn_checkpoint_test", "bundle.bin");
        ckpt.save(&path).expect("save");
        let loaded = Checkpoint::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);

        assert_eq!(loaded, ckpt);
        assert_eq!(loaded.format_version(), CHECKPOINT_FORMAT_VERSION);
        let state = loaded.optimizer().expect("optimizer state present");
        assert_eq!(state.t, 2);
        let restored = Adam::from_state(state).expect("valid state");
        assert_eq!(restored, adam);
    }

    #[test]
    fn checkpoint_load_rejects_unknown_version_and_bare_state_dict() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Sequential::new().with(Linear::new(2, 2, &mut rng));
        let mut ckpt = Checkpoint::new(StateDict::capture(&mut net));
        ckpt.format_version = CHECKPOINT_FORMAT_VERSION + 1;
        let future = temp_path("nn_checkpoint_version_test", "future.bin");
        ckpt.save(&future).expect("save");
        let err = Checkpoint::load(&future).expect_err("future version must be rejected");
        assert!(matches!(err, LoadError::UnsupportedVersion { supported, .. }
            if supported == CHECKPOINT_FORMAT_VERSION));
        let _ = std::fs::remove_file(&future);

        // A pre-versioned bare StateDict file has no format_version.
        let bare = temp_path("nn_checkpoint_version_test", "bare.bin");
        StateDict::capture(&mut net).save(&bare).expect("save");
        assert!(
            matches!(Checkpoint::load(&bare), Err(LoadError::Malformed(_))),
            "bare StateDict must not load as Checkpoint"
        );
        let _ = std::fs::remove_file(&bare);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn container_roundtrip_and_header_layout() {
        let path = temp_path("nn_container_test", "payload.bin");
        write_container(&path, b"hello payload").expect("write");
        let bytes = std::fs::read(&path).expect("read raw");
        assert_eq!(&bytes[..8], &CONTAINER_MAGIC);
        assert_eq!(bytes.len(), CONTAINER_HEADER_LEN + 13);
        let container = read_container(&path).expect("read");
        assert_eq!(container.version, CONTAINER_FORMAT_VERSION);
        assert_eq!(container.payload, b"hello payload");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_v1_json_files_still_load() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = Sequential::new().with(Linear::new(3, 2, &mut rng));
        let ckpt = Checkpoint::new(StateDict::capture(&mut net));
        // Write the pre-container format: bare JSON, no header.
        let path = temp_path("nn_container_v1_test", "legacy.json");
        std::fs::write(&path, serde_json::to_string(&ckpt).expect("serialize")).expect("write");
        let loaded = Checkpoint::load(&path).expect("v1 file must still load");
        assert_eq!(loaded, ckpt);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn container_corruptions_yield_typed_errors() {
        let path = temp_path("nn_container_corrupt_test", "victim.bin");
        let payload = b"{\"k\": [1, 2, 3]}";
        write_container(&path, payload).expect("write");
        let intact = std::fs::read(&path).expect("read");

        // Truncation inside the magic.
        std::fs::write(&path, &intact[..4]).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::Truncated { .. })));

        // Truncation inside the header.
        std::fs::write(&path, &intact[..CONTAINER_HEADER_LEN - 2]).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::Truncated { .. })));

        // Truncation inside the payload.
        std::fs::write(&path, &intact[..intact.len() - 3]).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::Truncated { .. })));

        // A flipped payload bit fails the checksum.
        let mut flipped = intact.clone();
        flipped[CONTAINER_HEADER_LEN + 2] ^= 0x10;
        std::fs::write(&path, &flipped).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::ChecksumMismatch { .. })));

        // A future container version is refused before any payload
        // parsing.
        let mut future = intact.clone();
        future[8..12].copy_from_slice(&(CONTAINER_FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &future).expect("write");
        assert!(matches!(
            read_container(&path),
            Err(LoadError::UnsupportedVersion { supported: CONTAINER_FORMAT_VERSION, .. })
        ));

        // Trailing garbage after the declared payload.
        let mut trailing = intact.clone();
        trailing.extend_from_slice(b"junk");
        std::fs::write(&path, &trailing).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::Malformed(_))));

        // A missing file is an I/O error, not a panic.
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            read_container(&path),
            Err(LoadError::Io { kind: std::io::ErrorKind::NotFound, .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_existing_content_and_leaves_no_temp() {
        let path = temp_path("nn_atomic_write_test", "target.bin");
        atomic_write(&path, b"first").expect("write 1");
        atomic_write(&path, b"second generation").expect("write 2");
        assert_eq!(std::fs::read(&path).expect("read"), b"second generation");
        let dir = path.parent().expect("parent");
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = std::fs::remove_file(&path);
    }
}
