//! Property tests pinning the band-restricted NN-S mask to the dense graph:
//! for both precisions, `mask` — which reads the input's packed planes,
//! computes only the pixels within the receptive radius of a value change
//! or of the frame edge and reads every other pixel's bit from a table of
//! constant images — must give exactly the mask `infer(..).to_mask(0.5)`
//! gives on the planes expanded to a dense input.
//!
//! Inputs are sandwich-shaped: outer channels black/white masks, the middle
//! one a black/gray/white reconstruction plane, or (the no-sandwich
//! ablation) the plane in all three. Their patterns are what the band must
//! get right: blobs, stripes, one-pixel specks, all-black and all-white
//! frames, masks touching every edge, and gray-heavy reconstructions.
//! Widths run 2–130 (even, straddling packed words and the kernels'
//! 8/16/32-pixel tiles), heights 2–40.

use proptest::prelude::*;
use vrd_nn::conv::Conv2d;
use vrd_nn::{NnS, SandwichPlanes, Tensor};
use vrd_video::texture::hash2;
use vrd_video::{Seg2Plane, SegMask};

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
/// gray-heavy blocks, a gray blob on black (whose edge only the gray
/// plane shows).
fn pattern(kind: usize, h: usize, w: usize, seed: u64) -> Vec<u8> {
    let r = |salt: i64, m: u64| hash2(salt, 9, seed) % m;
    let (cx, cy) = (r(1, w as u64) as f32, r(2, h as u64) as f32);
    let (rx, ry) = (1.0 + r(3, 40) as f32, 1.0 + r(4, 20) as f32);
    let period = 2 + r(5, 11) as usize;
    (0..h * w)
        .map(|i| {
            let (x, y) = (i % w, i / w);
            let (dx, dy) = ((x as f32 - cx) / rx, (y as f32 - cy) / ry);
            let blob = u8::from(dx * dx + dy * dy <= 1.0);
            match kind {
                0 => 2 * blob,
                1 => 2 * u8::from((x + y * (seed as usize % 3)) % period < period / 2),
                2 => 2 * u8::from(hash2(i as i64, 4, seed).is_multiple_of(97)),
                3 => 0,
                4 => 2,
                5 => 2 * u8::from(x < 2 || y < 2 || x + 3 > w || y + 1 == h),
                6 => (hash2((x / 5) as i64, (y / 3) as i64, seed) % 3) as u8,
                _ => blob,
            }
        })
        .collect()
}

/// One case's input, packed as `mask` reads it and dense as the oracle
/// does.
struct Input {
    prev: SegMask,
    recon: Seg2Plane,
    next: SegMask,
    sandwich: bool,
    /// The channels as 0, ½ and 1.
    dense: Tensor,
}

impl Input {
    /// Outer channels from black and white patterns, the middle one from a
    /// pattern with gray; with `sandwich` off, the middle channel in all
    /// three.
    fn new(h: usize, w: usize, kinds: [usize; 3], seed: u64, sandwich: bool) -> Self {
        let white_only = |k: usize| if k >= 6 { 0 } else { k };
        let mid = pattern(kinds[1], h, w, seed ^ 2);
        let prev = pattern(white_only(kinds[0]), h, w, seed ^ 1);
        let next = pattern(white_only(kinds[2]), h, w, seed ^ 3);
        let channels = if sandwich {
            [&prev, &mid, &next]
        } else {
            [&mid; 3]
        };
        let data = channels
            .iter()
            .flat_map(|c| c.iter())
            .map(|&c| [0.0, 0.5, 1.0][usize::from(c)])
            .collect();
        let mask = |codes: &[u8]| SegMask::from_bits(w, h, codes.iter().map(|&c| c == 2));
        Self {
            prev: mask(&prev),
            next: mask(&next),
            recon: Seg2Plane::from_vec(w, h, mid),
            sandwich,
            dense: Tensor::from_vec(3, h, w, data),
        }
    }

    /// The planes `mask` takes.
    fn planes(&self) -> SandwichPlanes<'_> {
        if self.sandwich {
            SandwichPlanes::new(&self.prev, &self.recon, &self.next)
        } else {
            SandwichPlanes::recon_only(&self.recon)
        }
        .expect("one even size")
    }
}

/// A random case: `(h, w, pattern kinds, seed, sandwich, hidden width)`.
fn arb_case() -> impl Strategy<Value = (usize, usize, [usize; 3], u64, bool, usize)> {
    (
        1usize..21,
        1usize..66,
        (0usize..8, 0usize..8, 0usize..8),
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
        let x = Input::new(h, w, kinds, seed, with_sandwich);
        prop_assert_eq!(nns.mask(&x.planes()), nns.infer(&x.dense).to_mask(0.5));
    }

    // The oracle quantizes the dense input (`infer` runs `quantize_input`);
    // `mask` expands the planes straight into the input codes.
    #[test]
    fn int8_band_mask_equals_the_dense_mask(case in arb_case()) {
        let (h, w, kinds, seed, with_sandwich, hid) = case;
        let mut nns = model(hid, seed);
        let x = Input::new(h, w, kinds, seed, with_sandwich);
        if seed.is_multiple_of(2) {
            nns.calibrate(&[&x.dense]);
        }
        let q = nns.quantize();
        prop_assert_eq!(q.mask(&x.planes()), q.infer(&x.dense).to_mask(0.5));
    }
}
