//! Property tests pinning the band-restricted NN-S mask to the dense graph:
//! for both precisions, `mask` — which computes only the pixels within the
//! receptive radius of a value change or of the frame edge and reads every
//! other pixel's bit from a table of constant images — must give exactly
//! the mask `infer(..).to_mask(0.5)` gives.
//!
//! Inputs are sandwich-shaped: outer channels black/white, the middle one
//! black/gray/white, or (the no-sandwich ablation) the middle channel in
//! all three. Their patterns are what the band must get right: blobs,
//! stripes, one-pixel specks, all-black and all-white frames, masks
//! touching every edge, and gray-heavy reconstructions. Widths run 2–130
//! (even, straddling packed words and the kernels' 8/16/32-pixel tiles),
//! heights 2–40.

use proptest::prelude::*;
use vrd_nn::conv::Conv2d;
use vrd_nn::{NnS, Tensor};
use vrd_video::texture::hash2;

/// A layer with seeded weights of both signs and non-zero biases, so
/// constant regions do not all cut the same way.
fn layer(cin: usize, cout: usize, seed: u64) -> Conv2d {
    let n = cout * cin * 9;
    let w = (0..n)
        .map(|i| {
            ((hash2(i as i64, 1, seed) % 2001) as f32 - 1000.0) / (400.0 * (cin as f32).sqrt())
        })
        .collect();
    let b = (0..cout)
        .map(|i| ((hash2(i as i64, 2, seed) % 201) as f32 - 100.0) / 100.0)
        .collect();
    Conv2d::from_params(cin, cout, 3, w, b).unwrap()
}

/// A seeded NN-S of width `hid`.
fn model(hid: usize, seed: u64) -> NnS {
    NnS::from_parts(
        layer(3, hid, seed),
        layer(hid, hid, seed ^ 0x55),
        layer(2 * hid, 1, seed ^ 0xaa),
        None,
    )
    .unwrap()
}

/// One channel's codes (0 black, 1 gray, 2 white), by pattern `kind`:
/// blobs, stripes, specks, all-black, all-white, edge-touching frame,
/// gray-heavy blocks.
fn pattern(kind: usize, h: usize, w: usize, seed: u64) -> Vec<u8> {
    let r = |salt: i64, m: u64| hash2(salt, 9, seed) % m;
    let (cx, cy) = (r(1, w as u64) as f32, r(2, h as u64) as f32);
    let (rx, ry) = (1.0 + r(3, 40) as f32, 1.0 + r(4, 20) as f32);
    let period = 2 + r(5, 11) as usize;
    (0..h * w)
        .map(|i| {
            let (x, y) = (i % w, i / w);
            match kind {
                0 => {
                    let (dx, dy) = ((x as f32 - cx) / rx, (y as f32 - cy) / ry);
                    2 * u8::from(dx * dx + dy * dy <= 1.0)
                }
                1 => 2 * u8::from((x + y * (seed as usize % 3)) % period < period / 2),
                2 => 2 * u8::from(hash2(i as i64, 4, seed).is_multiple_of(97)),
                3 => 0,
                4 => 2,
                5 => 2 * u8::from(x < 2 || y < 2 || x + 3 > w || y + 1 == h),
                _ => (hash2((x / 5) as i64, (y / 3) as i64, seed) % 3) as u8,
            }
        })
        .collect()
}

/// A `3 × h × w` sandwich of sandwich values: outer channels from black and
/// white patterns, the middle one from a pattern with gray; with
/// `sandwich` off, the middle channel in all three.
fn sandwich(h: usize, w: usize, kinds: [usize; 3], seed: u64, sandwich: bool) -> Tensor {
    let white_only = |k: usize| if k == 6 { 0 } else { k };
    let mid = pattern(kinds[1], h, w, seed ^ 2);
    let channels = if sandwich {
        [
            pattern(white_only(kinds[0]), h, w, seed ^ 1),
            mid,
            pattern(white_only(kinds[2]), h, w, seed ^ 3),
        ]
    } else {
        [mid.clone(), mid.clone(), mid]
    };
    let data = channels
        .iter()
        .flatten()
        .map(|&c| [0.0, 0.5, 1.0][usize::from(c)])
        .collect();
    Tensor::from_vec(3, h, w, data)
}

/// A random case: `(h, w, pattern kinds, seed, sandwich, hidden width)`.
fn arb_case() -> impl Strategy<Value = (usize, usize, [usize; 3], u64, bool, usize)> {
    (
        1usize..21,
        1usize..66,
        (0usize..7, 0usize..7, 0usize..7),
        0u64..1_000_000,
        0usize..4,
        1usize..7,
    )
        .prop_map(|(h2, w2, (a, b, c), seed, s, hid)| {
            (2 * h2, 2 * w2, [a, b, c], seed, s != 0, hid)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn f32_band_mask_equals_the_dense_mask(case in arb_case()) {
        let (h, w, kinds, seed, with_sandwich, hid) = case;
        let nns = model(hid, seed);
        let x = sandwich(h, w, kinds, seed, with_sandwich);
        prop_assert_eq!(nns.mask(&x), nns.infer(&x).to_mask(0.5));
    }

    #[test]
    fn int8_band_mask_equals_the_dense_mask(case in arb_case()) {
        let (h, w, kinds, seed, with_sandwich, hid) = case;
        let mut nns = model(hid, seed);
        let x = sandwich(h, w, kinds, seed, with_sandwich);
        if seed.is_multiple_of(2) {
            nns.calibrate(&[&x]);
        }
        let q = nns.quantize();
        let mut xq = vec![0u8; x.len()];
        q.quantize_input(&x, &mut xq);
        prop_assert_eq!(q.mask(&xq, h, w), q.infer(&x).to_mask(0.5));
    }

    // Values that are not sandwich values make the whole frame the band.
    #[test]
    fn inputs_off_the_codes_fall_back_to_the_dense_walk(
        h2 in 1usize..12,
        w2 in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let (h, w) = (2 * h2, 2 * w2);
        let nns = model(4, seed);
        let mut x = sandwich(h, w, [0, 6, 1], seed, true);
        let i = (seed as usize) % x.len();
        x.as_mut_slice()[i] = 0.25;
        prop_assert_eq!(nns.mask(&x), nns.infer(&x).to_mask(0.5));
        let q = nns.quantize();
        let mut xq = vec![0u8; x.len()];
        q.quantize_input(&x, &mut xq);
        prop_assert!(!q.sandwich_codes().contains(&xq[i]));
        prop_assert_eq!(q.mask(&xq, h, w), q.infer(&x).to_mask(0.5));
    }
}
