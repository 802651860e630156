//! Training pinned by value: `train` + `calibrate` over fixed toy corpora
//! must keep producing the same model bytes and the same loss history, to
//! the bit.
//!
//! The inputs are ternary `{0, 0.5, 1}` like real sandwiches, so the cases
//! a refactor of the backward pass is most likely to move are all here:
//! flat regions where all four pool candidates tie, ReLU rows that are
//! entirely dead, and a ragged last minibatch (10 samples, batch 4). The
//! constants were recorded at commit `c4ee60e`.

use vrd_nn::{save_nns, train, NnS, Sample, Tensor};

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 64-bit LCG (Knuth's MMIX constants); the high bits are the output.
fn next(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*state >> 33) as usize
}

/// Ten sandwich-like samples: the outer channels hold a rectangle one pixel
/// left and right of where the target has it, the middle channel their
/// mean (`0.5` where they disagree) with a few 2×2 blocks overwritten the
/// way a wrong motion vector would.
fn corpus(h: usize, w: usize, seed: u64) -> Vec<Sample> {
    let mut state = seed;
    (0..10)
        .map(|_| {
            let (rw, rh) = (
                3 + next(&mut state) % (w / 2),
                3 + next(&mut state) % (h / 2),
            );
            let (ox, oy) = (
                1 + next(&mut state) % (w - rw - 1),
                next(&mut state) % (h - rh + 1),
            );
            let inside = |x: usize, y: usize, shift: isize| {
                let x = x as isize - shift;
                (ox as isize..(ox + rw) as isize).contains(&x) && (oy..oy + rh).contains(&y)
            };
            let mut input = Tensor::zeros(3, h, w);
            let mut target = Tensor::zeros(1, h, w);
            for y in 0..h {
                for x in 0..w {
                    let (prev, next) = (inside(x, y, -1), inside(x, y, 1));
                    input.set(0, y, x, f32::from(prev));
                    input.set(2, y, x, f32::from(next));
                    input.set(1, y, x, (f32::from(prev) + f32::from(next)) / 2.0);
                    target.set(0, y, x, f32::from(inside(x, y, 0)));
                }
            }
            for _ in 0..3 {
                let (bx, by) = (next(&mut state) % (w / 2), next(&mut state) % (h / 2));
                let v = (next(&mut state) % 3) as f32 / 2.0;
                for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    input.set(1, 2 * by + dy, 2 * bx + dx, v);
                }
            }
            Sample { input, target }
        })
        .collect()
}

/// Trains and calibrates one model; returns the digest of its serialised
/// bytes (weights, biases and the calibration trailer) and the bits of the
/// per-epoch losses.
fn train_digest(h: usize, w: usize, hidden: usize) -> (u64, Vec<u32>) {
    let samples = corpus(h, w, (h * 1000 + w * 10 + hidden) as u64);
    let mut model = NnS::new(hidden, 0x5eed ^ hidden as u64);
    let history = train(&mut model, &samples);
    let calib: Vec<&Tensor> = samples.iter().map(|s| &s.input).collect();
    model.calibrate(&calib);
    (
        fnv1a(&save_nns(&model)),
        history.iter().map(|l| l.to_bits()).collect(),
    )
}

#[test]
fn training_is_pinned_by_value() {
    let pinned = [
        (
            (10, 14, 4),
            (0x205e_4532_fcff_d5a7, vec![0x3f66_7738, 0x3f08_108a]),
        ),
        (
            (10, 14, 8),
            (0xce94_b713_4098_ad94, vec![0x3f21_0b5a, 0x3e62_49fe]),
        ),
        (
            (16, 16, 4),
            (0x2393_1643_92e3_3678, vec![0x3f3b_f6be, 0x3ee0_3ff2]),
        ),
        (
            (16, 16, 8),
            (0xfd39_2cf9_3b53_f572, vec![0x3f1f_194a, 0x3e5b_49fe]),
        ),
    ];
    for ((h, w, hidden), expected) in pinned {
        assert_eq!(
            train_digest(h, w, hidden),
            expected,
            "{h}x{w}, hidden {hidden}: trained model or loss history moved"
        );
    }
}
