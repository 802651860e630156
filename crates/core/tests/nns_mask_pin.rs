//! The refined masks of both NN-S precisions pinned by value: `NnS::mask`
//! and `QuantNnS::mask` must keep producing the same mask words, to the
//! bit, on sandwich planes built from ground truth. `int8_pin.rs` pins the
//! int8 probabilities on hash noise, where every pixel is a boundary pixel;
//! this file pins the masks on inputs shaped like the engine's — large
//! uniform regions, object boundaries, gray bands where the references
//! disagree — so a kernel that computes only part of the frame must still
//! reproduce every bit.
//!
//! The frames are `cows` at 864×480 and crops of it at widths that straddle
//! packed mask words (62, 64, 66, 130). Each is run as a sandwich and
//! reconstruction-only (the reconstruction, gray included, in all three
//! channels), on the f32 model and its int8 twin.

use std::sync::OnceLock;
use vr_dann::{TrainTask, VrDann, VrDannConfig};
use vrd_nn::SandwichPlanes;
use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};
use vrd_video::{Seg2Plane, SegMask};

/// FNV-1a over a stream of 64-bit words, little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The digest of a mask: its size, then its packed words.
fn mask_digest(m: &SegMask) -> u64 {
    fnv1a(
        [m.width() as u64, m.height() as u64]
            .into_iter()
            .chain(m.words().iter().copied()),
    )
}

/// The default pipeline trained on the tiny suite (the model
/// `train_pin.rs` pins).
fn model() -> &'static VrDann {
    static MODEL: OnceLock<VrDann> = OnceLock::new();
    MODEL.get_or_init(|| {
        let train = davis_train_suite(&SuiteConfig::tiny(), 2);
        VrDann::train(&train, TrainTask::Segmentation, VrDannConfig::default()).unwrap()
    })
}

/// `cows` ground truth at 864×480, frames 0–4.
fn cows() -> &'static [SegMask] {
    static GT: OnceLock<Vec<SegMask>> = OnceLock::new();
    GT.get_or_init(|| {
        let cfg = SuiteConfig {
            width: 864,
            height: 480,
            frames: 5,
            seed: 0x40f0,
        };
        davis_sequence("cows", &cfg)
            .expect("cows is a suite sequence")
            .gt_masks
    })
}

/// The `w × h` window of `m` whose top-left corner is `(x0, y0)`.
fn crop(m: &SegMask, x0: usize, y0: usize, w: usize, h: usize) -> SegMask {
    SegMask::from_bits(w, h, (0..w * h).map(|i| m.get(x0 + i % w, y0 + i / w) == 1))
}

/// Frames 0–4 of `cows`, or their `w × h` crop centred where the middle
/// row of the object's bounding box at frame 2 first enters the object.
fn frames(size: Option<(usize, usize)>) -> Vec<SegMask> {
    let gt = cows();
    let Some((w, h)) = size else {
        return gt.to_vec();
    };
    let b = gt[2].bounding_box().expect("cows has an object");
    let yc = ((b.y0 + b.y1) / 2) as usize;
    let xb = (0..864)
        .find(|&x| gt[2].get(x, yc) == 1)
        .expect("row crosses the object");
    let (x0, y0) = (xb - w / 2, yc - h / 2);
    gt.iter().map(|m| crop(m, x0, y0, w, h)).collect()
}

/// Digests of `[f32 sandwich, f32 recon-only, int8 sandwich, int8
/// recon-only]` masks of B-frame 2 between anchors 0 and 4, reconstructed
/// as the mean filter of frames 1 and 3.
fn digests(gt: &[SegMask]) -> [u64; 4] {
    let nns = model().nns();
    let q = nns.quantize();
    let plane = Seg2Plane::mean_filter(&gt[1], &gt[3]);
    let sandwich = SandwichPlanes::new(&gt[0], &plane, &gt[4]).unwrap();
    let recon_only = SandwichPlanes::recon_only(&plane).unwrap();
    [
        nns.mask(&sandwich),
        nns.mask(&recon_only),
        q.mask(&sandwich),
        q.mask(&recon_only),
    ]
    .map(|m| mask_digest(&m))
}

#[test]
fn hd_masks_are_pinned() {
    let pinned = [
        0xcc8e_d85d_114b_1a6a,
        0xc924_2eec_81aa_22ae,
        0x0536_a141_5954_41e8,
        0xd0bb_8441_2478_2a14,
    ];
    assert_eq!(digests(&frames(None)), pinned);
}

#[test]
fn word_straddling_crops_are_pinned() {
    let pinned: [(usize, [u64; 4]); 4] = [
        (
            62,
            [
                0x003d_60b3_6e5f_0a1c,
                0x174e_9154_78f1_dfa5,
                0x003d_60b3_6e5f_0a1c,
                0x3c61_ab4c_9bd9_8645,
            ],
        ),
        (
            64,
            [
                0x751f_bf21_d1e9_4730,
                0xdddd_d440_e535_d3c7,
                0x751f_bf21_d1e9_4730,
                0xdddd_d440_e535_d3c7,
            ],
        ),
        (
            66,
            [
                0x8aaf_7429_490c_52aa,
                0xa8e8_1e4c_2250_cc71,
                0x8aaf_7429_490c_52aa,
                0x3ecf_4202_ccf4_9ef1,
            ],
        ),
        (
            130,
            [
                0x59bc_1e09_23d9_4de2,
                0x37a6_7ddc_5278_db59,
                0x59bc_1e09_23d9_4de2,
                0x04d5_3cdf_a931_f6d9,
            ],
        ),
    ];
    let got: Vec<(usize, [u64; 4])> = pinned
        .iter()
        .map(|&(w, _)| (w, digests(&frames(Some((w, 40))))))
        .collect();
    assert_eq!(got, pinned);
}
