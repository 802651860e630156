//! Fuzz-style load robustness: a model file is untrusted input, so no
//! bytes, however mangled, may panic the loader — and no model the loader
//! accepts may panic inference, on either compute path.
//!
//! Generators over a valid file with and without the calibration trailer:
//! every truncation, seeded bit flips, edits of each block's length field,
//! non-finite values written over each parameter and scale, and the
//! largest finite weight where it overflows the scale bound — plus plain
//! byte soup behind a valid header.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;
use vrd_nn::{load_nns, save_nns, train, NnS, Sample, Tensor};

const HIDDEN: usize = 4;
/// Magic, version and hidden width come before the first block.
const HEADER: usize = 9;

/// An 8×8 ternary sandwich, like the ones the pipeline assembles.
fn sandwich() -> Tensor {
    let data = (0..3 * 64).map(|i| (i * 7 % 3) as f32 / 2.0).collect();
    Tensor::from_vec(3, 8, 8, data)
}

/// A trained model's bytes without and with the calibration trailer.
fn valid_files() -> &'static [Vec<u8>; 2] {
    static FILES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    FILES.get_or_init(|| {
        let mut model = NnS::new(HIDDEN, 17);
        let input = sandwich();
        let target = Tensor::from_vec(1, 8, 8, input.channel(1).to_vec());
        let sample = Sample { input, target };
        train(&mut model, &[sample]);
        let plain = save_nns(&model);
        model.calibrate(&[&sandwich()]);
        [plain, save_nns(&model)]
    })
}

/// Byte offsets of the six block-length fields and the value each holds:
/// weights then biases of conv1, conv2 and conv3.
fn length_fields() -> Vec<(usize, u32)> {
    let blocks = [
        3 * HIDDEN * 9,
        HIDDEN,
        HIDDEN * HIDDEN * 9,
        HIDDEN,
        2 * HIDDEN * 9,
        1,
    ];
    let mut pos = HEADER;
    blocks
        .iter()
        .map(|&n| {
            let field = (pos, n as u32);
            pos += 4 + 4 * n;
            field
        })
        .collect()
}

/// Loads `bytes`; whatever loads must run on both compute paths and hand
/// back a full-size map. Returns whether it loaded.
fn load_and_run(bytes: &[u8]) -> bool {
    let Ok(model) = load_nns(bytes) else {
        return false;
    };
    let x = sandwich();
    for y in [model.infer(&x), model.quantize().infer(&x)] {
        assert_eq!((y.channels(), y.height(), y.width()), (1, 8, 8));
        let _ = y.to_mask(0.5);
    }
    true
}

#[test]
fn the_fixtures_are_valid_and_laid_out_as_assumed() {
    let [plain, calibrated] = valid_files();
    assert!(load_and_run(plain) && load_and_run(calibrated));
    let (last, n) = *length_fields().last().unwrap();
    assert_eq!(last + 4 + 4 * n as usize, plain.len());
    assert_eq!(plain.len() + 16, calibrated.len());
    for (pos, n) in length_fields() {
        assert_eq!(plain[pos..pos + 4], n.to_le_bytes());
    }
}

#[test]
fn no_truncation_panics_or_loads() {
    for file in valid_files() {
        for len in 0..file.len() {
            // The calibrated file cut exactly at its trailer is the plain
            // file; every other prefix is malformed.
            let loaded = load_and_run(&file[..len]);
            assert_eq!(loaded, len == valid_files()[0].len(), "prefix {len}");
        }
    }
}

#[test]
fn edited_length_fields_are_errors() {
    for file in valid_files() {
        for (pos, n) in length_fields() {
            for edit in [0, n - 1, n + 1, 2 * n, u32::MAX / 4, u32::MAX] {
                let mut bytes = file.clone();
                bytes[pos..pos + 4].copy_from_slice(&edit.to_le_bytes());
                assert!(!load_and_run(&bytes), "length {n} -> {edit} at {pos}");
            }
        }
    }
}

#[test]
fn non_finite_values_are_errors_wherever_they_land() {
    for file in valid_files() {
        let mut fields = length_fields().into_iter().peekable();
        // Every 4-byte slot after the header that is not a length field or
        // the trailer's magic holds an f32.
        for pos in (HEADER..file.len()).step_by(4) {
            if fields.next_if(|&(at, _)| at == pos).is_some() || file[pos..].len() == 16 {
                continue;
            }
            for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut bytes = file.clone();
                bytes[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
                assert!(!load_and_run(&bytes), "{v} at byte {pos}");
            }
        }
    }
}

#[test]
fn absurd_but_finite_weights_load_and_run() {
    // With no trailer the activation scales are bounded from the weights;
    // the largest finite weight in conv1 and in conv2 overflows that bound.
    let fields = length_fields();
    let mut bytes = valid_files()[0].clone();
    for (pos, _) in [fields[0], fields[2]] {
        bytes[pos + 4..pos + 8].copy_from_slice(&f32::MAX.to_le_bytes());
    }
    assert!(load_and_run(&bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bit_flips_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = valid_files()[(seed % 2) as usize].clone();
        for _ in 0..rng.random_range(1usize..5) {
            let at = rng.random_range(0..bytes.len());
            bytes[at] ^= 1 << rng.random_range(0u32..8);
        }
        // Exponent flips make finite but absurd weights and scales: those
        // load, and must still run.
        load_and_run(&bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic(seed in 0u64..u64::MAX, len in 0usize..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0u16..256) as u8).collect();
        // Half the cases keep the fixture's header so parsing reaches the
        // blocks instead of bailing at the magic.
        if seed % 2 == 0 && len >= HEADER {
            bytes[..HEADER].copy_from_slice(&valid_files()[0][..HEADER]);
        }
        load_and_run(&bytes);
    }
}
