//! The int8 NN-S path pinned by value: the masks `ComputeMode::Int8`
//! segmentation produces, with and without lanes, and the probability bits
//! `QuantNnS::infer` returns on fixed sandwiches, must not move by a bit.
//! `quant_tolerance.rs` only bounds how far int8 may drift from f32; this
//! file says it does not move at all when its kernels are rewritten.
//!
//! The sandwich widths straddle the AVX2 kernel's 16-pixel interior: 16 is
//! below it with 3×3 padding, 18 fills exactly one block, 34 two, 64 is a
//! multiple of 16 and 862 is not.

use std::sync::OnceLock;
use vr_dann::{ComputeMode, PipelineOptions, TrainTask, VrDann, VrDannConfig};
use vrd_nn::Tensor;
use vrd_runtime::with_thread_budget;
use vrd_video::davis::{davis_sequence, davis_train_suite, davis_val_suite, SuiteConfig};
use vrd_video::{SegMask, Sequence};

/// FNV-1a over a stream of 64-bit words, little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The digest of a run's masks: each mask's size, then its packed words.
fn masks_digest(masks: &[SegMask]) -> u64 {
    fnv1a(masks.iter().flat_map(|m| {
        [m.width() as u64, m.height() as u64]
            .into_iter()
            .chain(m.words().iter().copied())
    }))
}

/// The default pipeline trained on the tiny suite (the model
/// `train_pin.rs` pins), switched to int8.
fn model() -> &'static VrDann {
    static MODEL: OnceLock<VrDann> = OnceLock::new();
    MODEL.get_or_init(|| {
        let train = davis_train_suite(&SuiteConfig::tiny(), 2);
        VrDann::train(&train, TrainTask::Segmentation, VrDannConfig::default())
            .unwrap()
            .with_compute(ComputeMode::Int8)
    })
}

/// The digest of the masks of `seqs`, each run inline and on two lanes
/// (which must agree).
fn segment_digest(seqs: &[Sequence]) -> u64 {
    let model = model();
    let mut masks = Vec::new();
    for seq in seqs {
        let encoded = model.encode(seq).unwrap();
        let inline = model.run_segmentation(seq, &encoded).unwrap();
        let laned = with_thread_budget(2, || {
            model.run_segmentation_pipelined(seq, &encoded, &PipelineOptions)
        })
        .unwrap();
        assert_eq!(
            inline.masks, laned.masks,
            "{}: lanes moved a mask",
            seq.name
        );
        masks.extend(inline.masks);
    }
    masks_digest(&masks)
}

#[test]
fn int8_masks_on_the_tiny_suite_are_pinned() {
    let seqs = davis_val_suite(&SuiteConfig::tiny());
    assert_eq!(segment_digest(&seqs), 0xd3c2_4c8a_313b_35a3);
}

#[test]
fn int8_masks_at_160x96_are_pinned() {
    let seq = davis_sequence("cows", &SuiteConfig::default()).unwrap();
    assert_eq!(segment_digest(&[seq]), 0x49c5_901a_cb70_a4e2);
}

/// A `3 × h × w` input holding, per element, one of the three values a
/// sandwich holds (0, ½, 1), chosen by a hash.
fn sandwich(h: usize, w: usize, salt: u64) -> Tensor {
    let data = (0..3 * h * w)
        .map(|i| match vrd_video::texture::hash2(i as i64, 5, salt) % 3 {
            0 => 0.0,
            1 => 0.5,
            _ => 1.0,
        })
        .collect();
    Tensor::from_vec(3, h, w, data)
}

#[test]
fn quantized_inference_bits_are_pinned_across_widths() {
    let q = model().nns().quantize();
    let pinned = [
        (16usize, 0xe725_bb9f_49df_b4d5u64),
        (18, 0x070c_53a2_b44f_5c46),
        (34, 0xa679_b6a0_151b_de93),
        (64, 0x8d4c_70e0_0e26_b5bd),
        (862, 0x8222_613b_a012_c463),
    ];
    let got: Vec<(usize, u64)> = pinned
        .iter()
        .map(|&(w, _)| {
            let out = q.infer(&sandwich(6, w, w as u64));
            assert_eq!((out.channels(), out.height(), out.width()), (1, 6, w));
            (
                w,
                fnv1a(out.as_slice().iter().map(|v| u64::from(v.to_bits()))),
            )
        })
        .collect();
    assert_eq!(got, pinned);
}
