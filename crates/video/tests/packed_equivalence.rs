//! Property tests pinning the word-parallel packed-mask kernels to the
//! retained byte-per-pixel references (`vrd_video::mask::reference` and the
//! scalar accessors) across random masks, dimensions that straddle word
//! boundaries, and unaligned span offsets.

use proptest::prelude::*;
use vrd_video::mask::{reference, Expansion};
use vrd_video::{Rect, Seg2, Seg2Plane, SegMask};

/// Dimensions that exercise sub-word, exactly-one-word, word-boundary and
/// multi-word rows.
fn arb_dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..200, 1usize..8)
}

/// Deterministic pseudo-random 0/1 buffer.
fn bits(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (vrd_video::texture::hash2(i as i64, 17, seed) & 1) as u8)
        .collect()
}

fn mask_from_seed(w: usize, h: usize, seed: u64) -> SegMask {
    SegMask::from_vec(w, h, bits(w * h, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn byte_roundtrip_preserves_every_pixel(dims in arb_dims(), seed in 0u64..1_000_000) {
        let (w, h) = dims;
        let bytes = bits(w * h, seed);
        let mask = SegMask::from_vec(w, h, bytes.clone());
        prop_assert_eq!(mask.to_byte_vec(), bytes.clone());
        // Scalar accessors agree with the buffer.
        for (i, &b) in bytes.iter().enumerate() {
            prop_assert_eq!(mask.get(i % w, i / w), b);
        }
        // from_bits packs the same stream identically.
        let via_bits = SegMask::from_bits(w, h, bytes.iter().map(|&b| b == 1));
        prop_assert_eq!(via_bits, mask);
    }

    #[test]
    fn popcount_and_bbox_match_scalar_scan(dims in arb_dims(), seed in 0u64..1_000_000) {
        let (w, h) = dims;
        let mask = mask_from_seed(w, h, seed);
        let bytes = mask.to_byte_vec();
        let scalar_count = bytes.iter().filter(|&&v| v == 1).count();
        prop_assert_eq!(mask.count_ones(), scalar_count);

        let mut bbox: Option<Rect> = None;
        for (i, &v) in bytes.iter().enumerate() {
            if v == 1 {
                let px = Rect::new((i % w) as i32, (i / w) as i32,
                                   (i % w) as i32 + 1, (i / w) as i32 + 1);
                bbox = Some(match bbox { Some(b) => b.union(&px), None => px });
            }
        }
        prop_assert_eq!(mask.bounding_box(), bbox);
    }

    #[test]
    fn extract_row_bits_matches_clamped_gets(
        dims in arb_dims(),
        seed in 0u64..1_000_000,
        x0 in -70i32..270,
        y in -3i32..10,
        n in 1usize..65,
    ) {
        let (w, h) = dims;
        let mask = mask_from_seed(w, h, seed);
        let bits = mask.extract_row_bits_clamped(y, x0, n);
        for j in 0..64 {
            let want = if j < n { u64::from(mask.get_clamped(x0 + j as i32, y)) } else { 0 };
            prop_assert_eq!((bits >> j) & 1, want, "bit {} at x0 {} y {} n {}", j, x0, y, n);
        }
    }

    #[test]
    fn mean_filter_matches_reference(dims in arb_dims(), seed in 0u64..1_000_000) {
        let (w, h) = dims;
        let a = mask_from_seed(w, h, seed);
        let b = mask_from_seed(w, h, seed ^ 0x5a5a);
        let packed = Seg2Plane::mean_filter(&a, &b);
        let scalar = reference::mean_filter(&a, &b);
        prop_assert_eq!(&packed, &scalar);
        // And the per-pixel semantics really are the hardware mean filter.
        for y in 0..h {
            for x in 0..w {
                prop_assert_eq!(packed.get(x, y), Seg2::from_bits(a.get(x, y), b.get(x, y)));
            }
        }
    }

    #[test]
    fn plane_to_mask_matches_reference(dims in arb_dims(), seed in 0u64..1_000_000) {
        let (w, h) = dims;
        let plane = Seg2Plane::mean_filter(
            &mask_from_seed(w, h, seed),
            &mask_from_seed(w, h, seed ^ 0xbeef),
        );
        for gray_fg in [false, true] {
            prop_assert_eq!(
                plane.to_mask(gray_fg),
                reference::plane_to_mask(&plane, gray_fg)
            );
        }
    }

    #[test]
    fn mean_filtered_row_writes_match_per_pixel_sets(
        dims in arb_dims(),
        seed in 0u64..1_000_000,
        x0_frac in 0u32..1000,
        n in 1usize..65,
        y_frac in 0u32..1000,
    ) {
        let (w, h) = dims;
        let n = n.min(w);
        let x0 = (x0_frac as usize * (w - n + 1)) / 1000;
        let y = (y_frac as usize * h) / 1000;
        let a = (vrd_video::texture::hash2(1, 2, seed) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let b = (vrd_video::texture::hash2(3, 4, seed) as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);

        // Pre-fill both targets identically so the overwrite semantics show.
        let mut packed = Seg2Plane::mean_filter(
            &mask_from_seed(w, h, seed ^ 1),
            &mask_from_seed(w, h, seed ^ 2),
        );
        let mut scalar = packed.clone();

        packed.write_mean_filtered_row(y, x0, n, a, b);
        for j in 0..n {
            let ab = ((a >> j) & 1) as u8;
            let bb = ((b >> j) & 1) as u8;
            scalar.set(x0 + j, y, Seg2::from_bits(ab, bb));
        }
        prop_assert_eq!(packed, scalar);
    }

    #[test]
    fn f32_expansion_matches_per_pixel_values(dims in arb_dims(), seed in 0u64..1_000_000) {
        let (w, h) = dims;
        let mask = mask_from_seed(w, h, seed);
        let mut out = vec![9.0f32; w * h];
        mask.expand_f32_into(&mut out);
        for y in 0..h {
            for x in 0..w {
                prop_assert_eq!(out[y * w + x], f32::from(mask.get(x, y)));
            }
        }
        let plane = Seg2Plane::mean_filter(&mask, &mask_from_seed(w, h, seed ^ 7));
        Expansion::new([0.0, 0.5, 1.0]).rows(plane.white(), Some(plane.gray()), &mut out);
        for y in 0..h {
            for x in 0..w {
                prop_assert_eq!(out[y * w + x], plane.get(x, y).to_f32());
            }
        }
        // Any element type: the same pixels through caller-chosen codes.
        let mut codes = vec![0u8; w * h];
        Expansion::new([3, 5, 9]).rows(plane.white(), Some(plane.gray()), &mut codes);
        for (&c, &f) in codes.iter().zip(&out) {
            prop_assert_eq!(c, [3, 5, 9][(f * 2.0) as usize]);
        }
        Expansion::new([2, 4, 4]).rows(&mask, None, &mut codes);
        for y in 0..h {
            for x in 0..w {
                prop_assert_eq!(codes[y * w + x], [2, 4][mask.get(x, y) as usize]);
            }
        }
    }

    // Any span of a row, at any offset, writes exactly its own pixels, from
    // the plane's borrowed bitplanes or from a mask alone.
    #[test]
    fn span_expansion_writes_only_its_pixels(
        dims in arb_dims(),
        seed in 0u64..1_000_000,
        cut in (0usize..200, 0usize..200),
    ) {
        let (w, h) = dims;
        let mask = mask_from_seed(w, h, seed);
        let plane = Seg2Plane::mean_filter(&mask, &mask_from_seed(w, h, seed ^ 7));
        let (a, b) = (cut.0 % (w + 1), cut.1 % (w + 1));
        let (x0, x1) = (a.min(b), a.max(b));
        let codes = Expansion::new([3u8, 5, 9]);
        for y in 0..h {
            let mut row = vec![0u8; w];
            codes.row_span(plane.white(), Some(plane.gray()), y, x0, &mut row[x0..x1]);
            for (x, &c) in row.iter().enumerate() {
                let want = if (x0..x1).contains(&x) {
                    [3, 5, 9][plane.get(x, y) as usize]
                } else {
                    0
                };
                prop_assert_eq!(c, want, "plane ({}, {})", x, y);
            }
            codes.row_span(&mask, None, y, x0, &mut row[x0..x1]);
            for x in x0..x1 {
                prop_assert_eq!(row[x], [3, 9][mask.get(x, y) as usize], "mask ({}, {})", x, y);
            }
        }
    }

    #[test]
    fn fill_rect_matches_per_pixel_fill(
        dims in arb_dims(),
        x0 in -10i32..210, y0 in -3i32..10, dw in 0i32..80, dh in 0i32..8,
    ) {
        let (w, h) = dims;
        let r = Rect::new(x0, y0, x0 + dw, y0 + dh);
        let mut packed = SegMask::new(w, h);
        packed.fill_rect(r);
        let mut scalar = SegMask::new(w, h);
        let c = r.clamped(w, h);
        for y in c.y0..c.y1 {
            for x in c.x0..c.x1 {
                scalar.set(x as usize, y as usize, 1);
            }
        }
        prop_assert_eq!(packed, scalar);
    }
}
