//! Property-based corruption tests for the v2 serialization
//! container: whatever a crash or bit rot does to a checkpoint file,
//! loading it returns a *typed* [`LoadError`] — never a panic, never
//! a silently wrong value. Payloads that carry a *valid* checksum but
//! hostile content (re-sealed with [`write_container`]) are covered
//! too, as are the exactness of the base64 tensor encoding and the
//! slicing-by-8 CRC32.

use std::path::{Path, PathBuf};

use faultsim::{flip_bit_at, truncate_at};
use nn::layers::{Linear, Relu};
use nn::serialize::{
    crc32, read_container, write_container, Checkpoint, LoadError, RestoreError, StateDict,
    CONTAINER_HEADER_LEN, CONTAINER_MAGIC,
};
use nn::{Layer, Param, Sequential, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

fn temp_path(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("nn_serialize_robust");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{tag}_{}_{case}.json", std::process::id()))
}

fn sample_net(seed: u64, width: usize) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new().with(Linear::new(width, width + 1, &mut rng)).with(Relu::new())
}

fn sample_state(seed: u64, width: usize) -> StateDict {
    StateDict::capture(&mut sample_net(seed, width))
}

/// Bitwise (one bit per step) CRC32, the reference the table-driven
/// [`crc32`] must agree with.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Object(entries) => {
            &mut entries.iter_mut().find(|(k, _)| k == key).expect("field present").1
        }
        other => panic!("expected object, got {}", other.kind()),
    }
}

/// Tensor `tensor` ("value", "grad", "m" or "v") of parameter 0 in a
/// serialized state dict.
fn first_param_tensor<'a>(state: &'a mut Value, tensor: &str) -> &'a mut Value {
    match field_mut(state, "entries") {
        Value::Array(params) => field_mut(&mut params[0], tensor),
        other => panic!("expected array, got {}", other.kind()),
    }
}

/// Write `value` as the payload of a container with a valid checksum,
/// so a load gets past every header check and parses it.
fn reseal(path: &Path, value: &Value) {
    write_container(path, serde_json::to_string(value).expect("json").as_bytes()).expect("write");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Save → load is the identity, for any parameter contents.
    #[test]
    fn roundtrip_is_identity(seed in any::<u64>(), width in 1usize..7) {
        let state = sample_state(seed, width);
        let path = temp_path("roundtrip", seed);
        state.save(&path).expect("save");
        let loaded = StateDict::load(&path).expect("pristine file loads");
        prop_assert_eq!(&state, &loaded);
        let _ = std::fs::remove_file(&path);
    }

    /// Truncation anywhere — mid-magic, mid-header, mid-payload —
    /// yields a typed error, classified by how much of the container
    /// survived. It never panics and never yields a value.
    #[test]
    fn any_truncation_is_a_typed_error(seed in any::<u64>(), cut_frac in 0.0f64..1.0) {
        let state = sample_state(seed, 4);
        let path = temp_path("trunc", seed);
        state.save(&path).expect("save");
        let len = std::fs::metadata(&path).expect("meta").len();
        let cut = ((cut_frac * len as f64) as u64).min(len - 1);
        truncate_at(&path, cut).expect("inject");
        let err = StateDict::load(&path).expect_err("corrupted file must not load");
        let magic = CONTAINER_MAGIC.len() as u64;
        match (cut, &err) {
            // Cut inside the magic: the remaining prefix is still
            // recognized as a torn v2 header, not mistaken for v1.
            (c, LoadError::Truncated { .. }) if c < magic => {}
            (c, _) if c < magic => panic!("cut {c} in magic gave {err:?}"),
            // Cut past the magic: always Truncated, with an honest
            // byte accounting.
            (c, LoadError::Truncated { expected, found }) => {
                prop_assert_eq!(*found, c);
                prop_assert!(*expected > *found, "expected {} > found {}", expected, found);
            }
            (c, other) => panic!("cut {c} gave {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A single flipped bit anywhere in the file is always caught:
    /// the error class depends on which header region the bit hit,
    /// and a payload flip is caught by the checksum.
    #[test]
    fn any_bit_flip_is_a_typed_error(
        seed in any::<u64>(),
        offset_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let state = sample_state(seed, 4);
        let path = temp_path("flip", seed);
        state.save(&path).expect("save");
        let len = std::fs::metadata(&path).expect("meta").len();
        let offset = ((offset_frac * len as f64) as u64).min(len - 1);
        flip_bit_at(&path, offset, bit).expect("inject");
        let err = StateDict::load(&path).expect_err("corrupted file must not load");
        let header = CONTAINER_HEADER_LEN as u64;
        match offset {
            // Magic damaged: the file no longer claims to be v2 and
            // the bytes are not valid v1 JSON either.
            o if o < 8 => prop_assert!(
                matches!(err, LoadError::Malformed(_)),
                "magic flip at {} gave {:?}", o, err
            ),
            o if o < 12 => prop_assert!(
                matches!(err, LoadError::UnsupportedVersion { .. }),
                "version flip at {} gave {:?}", o, err
            ),
            // Length field: the declared and actual sizes disagree in
            // one direction or the other.
            o if o < 20 => prop_assert!(
                matches!(err, LoadError::Truncated { .. } | LoadError::Malformed(_)),
                "length flip at {} gave {:?}", o, err
            ),
            o if o < header => prop_assert!(
                matches!(err, LoadError::ChecksumMismatch { .. }),
                "crc flip at {} gave {:?}", o, err
            ),
            o => prop_assert!(
                matches!(err, LoadError::ChecksumMismatch { .. }),
                "payload flip at {} gave {:?}", o, err
            ),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Legacy files (bare JSON, the pre-container on-disk format)
    /// still load, for both artifact kinds.
    #[test]
    fn v1_bare_json_still_loads(seed in any::<u64>()) {
        let state = sample_state(seed, 3);
        let path = temp_path("v1_state", seed);
        std::fs::write(&path, serde_json::to_string(&state).expect("json")).expect("write");
        let container = read_container(&path).expect("v1 passthrough");
        prop_assert_eq!(container.version, 1);
        let loaded = StateDict::load(&path).expect("v1 state dict loads");
        prop_assert_eq!(&state, &loaded);
        let _ = std::fs::remove_file(&path);

        let ckpt = Checkpoint::new(state);
        let path = temp_path("v1_ckpt", seed);
        std::fs::write(&path, serde_json::to_string(&ckpt).expect("json")).expect("write");
        let loaded = Checkpoint::load(&path).expect("v1 checkpoint loads");
        prop_assert_eq!(&ckpt, &loaded);
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slicing-by-8 CRC32 equals the bitwise definition for every
    /// length and alignment.
    #[test]
    fn crc32_matches_bitwise_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        offset in 0usize..9,
    ) {
        let slice = &bytes[offset.min(bytes.len())..];
        prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
    }

    /// Every `f32` bit pattern survives `Checkpoint::save` → `load`
    /// exactly: NaN payloads, −0.0, subnormals and ±∞ included.
    #[test]
    fn checkpoint_round_trip_is_bit_exact(
        seed in any::<u64>(),
        bits in proptest::collection::vec(any::<u32>(), 1..64),
    ) {
        let specials = [
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            (-0.0f32).to_bits(),
            0x7FC0_1234, // quiet NaN with a payload
            0xFF80_0001, // negative signalling NaN
            0x0000_0001, // smallest subnormal
            0x8070_0000, // negative subnormal
        ];
        let mut pool = specials.iter().chain(&bits).copied().cycle();
        let mut net = sample_net(seed, 3);
        net.visit_params(&mut |p: &mut Param| {
            for t in [&mut p.value, &mut p.grad, &mut p.m, &mut p.v] {
                for x in t.data_mut() {
                    *x = f32::from_bits(pool.next().expect("cycle"));
                }
            }
        });
        let ckpt = Checkpoint::new(StateDict::capture(&mut net));
        let path = temp_path("exact", seed);
        ckpt.save(&path).expect("save");
        let loaded = Checkpoint::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);

        let all_bits = |c: &Checkpoint| -> Vec<u32> {
            let mut net = sample_net(0, 3);
            c.params().restore(&mut net).expect("restore");
            let mut out = Vec::new();
            net.visit_params(&mut |p: &mut Param| {
                for t in [&p.value, &p.grad, &p.m, &p.v] {
                    out.extend(t.data().iter().map(|x| x.to_bits()));
                }
            });
            out
        };
        prop_assert_eq!(all_bits(&loaded), all_bits(&ckpt));
    }
}

/// A re-sealed state dict whose tensor data is one value short of its
/// shape is `Malformed` — before the length check existed it loaded
/// and only failed (with a panic) at the first forward pass.
#[test]
fn truncated_tensor_data_is_malformed() {
    let path = temp_path("short_data", 0);
    let mut value = sample_state(11, 4).to_value();
    let weight = first_param_tensor(&mut value, "value");
    let shape = Vec::<usize>::from_value(field_mut(weight, "shape")).expect("shape");
    let numel: usize = shape.iter().product();
    let short = Tensor::from_vec(vec![0.5; numel - 1], &[numel - 1]).to_value();
    *field_mut(weight, "data") = short.get("data").expect("data").clone();
    reseal(&path, &value);
    let err = StateDict::load(&path).expect_err("short tensor must not load");
    assert!(matches!(&err, LoadError::Malformed(why) if why.contains("needs")), "{err:?}");
    let _ = std::fs::remove_file(&path);
}

/// A re-sealed state dict whose Adam first moment has the wrong shape
/// (with consistent data) loads, but restoring it is a typed error.
#[test]
fn wrong_moment_shape_is_a_restore_error() {
    let path = temp_path("moment_shape", 0);
    let mut value = sample_state(12, 4).to_value();
    *first_param_tensor(&mut value, "m") = Tensor::zeros(&[2, 3]).to_value();
    reseal(&path, &value);
    let state = StateDict::load(&path).expect("well-formed tensors load");
    let err = state.restore(&mut sample_net(0, 4)).expect_err("m shape must be checked");
    assert!(
        matches!(&err, RestoreError::ShapeMismatch { index: 0, tensor: "m", found, .. }
            if found == &[2, 3]),
        "{err:?}"
    );
}

/// A payload of a million `[` is rejected by the parser's depth limit,
/// in a container with a valid checksum and as a bare v1 file alike.
#[test]
fn nesting_bomb_is_malformed() {
    let bomb = "[".repeat(1_000_000);
    let path = temp_path("nesting_bomb", 0);
    write_container(&path, bomb.as_bytes()).expect("write");
    assert!(matches!(StateDict::load(&path), Err(LoadError::Malformed(_))));
    assert!(matches!(Checkpoint::load(&path), Err(LoadError::Malformed(_))));
    std::fs::write(&path, &bomb).expect("write bare");
    assert!(matches!(StateDict::load(&path), Err(LoadError::Malformed(_))));
    let _ = std::fs::remove_file(&path);
}

/// Tensor data from checkpoint format 1 (a JSON array of decimals) is
/// a typed error, not a fallback path.
#[test]
fn decimal_tensor_data_is_malformed() {
    let path = temp_path("decimal_data", 0);
    let mut value = sample_state(13, 2).to_value();
    let weight = first_param_tensor(&mut value, "value");
    *field_mut(weight, "data") = Value::Array(vec![Value::Float(0.5); 6]);
    reseal(&path, &value);
    let err = StateDict::load(&path).expect_err("decimal tensors must not load");
    assert!(matches!(&err, LoadError::Malformed(why) if why.contains("base64")), "{err:?}");
    let _ = std::fs::remove_file(&path);
}

/// The tensor decoder accepts only canonical base64 of a whole number
/// of `f32`s matching the shape.
#[test]
fn tensor_decoder_rejects_non_canonical_base64() {
    let tensor = |shape: &str, data: &str| {
        serde_json::from_str::<Tensor>(&format!(r#"{{"shape": {shape}, "data": "{data}"}}"#))
    };
    // 1.0f32 = 00 00 80 3F little-endian.
    let one = tensor("[1]", "AACAPw==").expect("canonical encoding");
    assert_eq!(one.data(), &[1.0]);
    for (shape, data, why) in [
        ("[1]", "AACAPw=", "length not a multiple of 4"),
        ("[1]", "AACAPw", "missing padding"),
        ("[1]", "AAC*Pw==", "byte outside the alphabet"),
        ("[1]", "AAC\\nPw==", "whitespace"),
        ("[2]", "AA=APwAAAAA=", "interior ="),
        ("[1]", "AACAPx==", "non-zero padding bits"),
        ("[1]", "AACA", "3 bytes, not a whole f32"),
        ("[2]", "AACAPw==", "data shorter than the shape"),
        ("[1, 0]", "", "zero dimension"),
        ("[]", "AACAPw==", "empty shape"),
        ("[4294967296, 4294967296]", "AACAPw==", "shape product overflows"),
    ] {
        assert!(tensor(shape, data).is_err(), "{why}: {shape} {data:?} must be rejected");
    }
}
