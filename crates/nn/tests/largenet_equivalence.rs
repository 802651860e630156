//! Property tests pinning the hoisted NN-L oracle (`LargeNet::segment`,
//! `LargeNet::forward_backbone`) to the per-pixel
//! `vrd_nn::largenet::reference` bit for bit.
//!
//! Widths straddle the 64-pixel mask word (1, 63, 64, 65, 127, 129), so the
//! word-parallel speckle's cross-word neighbours and frame-edge masks are
//! exercised on both sides of every boundary. Profiles are drawn far outside
//! the calibrated ones, because `segment_profile` is user configuration:
//! displacements up to ±100 px (most sources clamp to the frame edge),
//! negative amplitudes and scales, and the degenerate scales — ±0,
//! subnormal, NaN and ±∞ — whose lattice cells are not monotonic in x.
//!
//! The oracle warps only the band of radius `⌈|warp_amp|⌉` around the
//! ground truth's value changes, and every pixel where that radius does
//! not bound the warp. So the draws also cover what decides between the
//! two: non-finite amplitudes, amplitudes on both sides of the band's
//! 64-pixel limit, small integer and half-integer amplitudes (where the
//! radius is exactly the displacement's bound), and tiny normal scales
//! near `100 / 2^63`, whose cells saturate at `i64::MAX` and whose fades
//! can be finite but far outside [0, 1]. Only a frame 2^21 pixels wide
//! puts such a fade off the edge ring, so that case has its own test.

use proptest::prelude::*;
use vrd_nn::featwarp::FeatureMap;
use vrd_nn::largenet::reference;
use vrd_nn::{LargeNet, LargeNetProfile};
use vrd_video::texture::{hash2, value_noise_axis};
use vrd_video::{Rect, SegMask};

const WIDTHS: [usize; 6] = [1, 63, 64, 65, 127, 129];

/// Scales that put every pixel in one cell, in a cell at `i64::MAX`/`MIN`,
/// or in no finite cell at all.
const DEGENERATE_SCALES: [f32; 6] = [0.0, -0.0, 1e-40, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

/// A `w`×`h` mask: hash noise of density `density / 8` for `kind` 0, an
/// ellipse centred somewhere in the frame otherwise.
fn mask(w: usize, h: usize, kind: u64, density: u64, seed: u64) -> SegMask {
    let (cx, cy) = (
        (seed % 97) as f32 / 96.0 * w as f32,
        (seed % 89) as f32 / 88.0 * h as f32,
    );
    let (rx, ry) = (w as f32 / 3.0 + 0.5, h as f32 / 3.0 + 0.5);
    SegMask::from_bits(
        w,
        h,
        (0..w * h).map(|i| {
            let (x, y) = ((i % w) as f32, (i / w) as f32);
            if kind == 0 {
                hash2(i as i64, 17, seed) % 8 < density
            } else {
                ((x - cx) / rx).powi(2) + ((y - cy) / ry).powi(2) <= 1.0
            }
        }),
    )
}

/// `warp_scale`: a degenerate value for 6 of 16 draws, a tiny normal one
/// (`100 / 2^63` times 0.5..2) for 2, otherwise a magnitude in 0.5..32; of
/// either sign.
fn arb_scale() -> impl Strategy<Value = f32> {
    (0usize..16, 0.5f32..32.0, 0.5f32..2.0, 0u8..2).prop_map(|(pick, v, tiny, neg)| {
        let v = match pick {
            6 | 7 => tiny * 100.0 / 2f32.powi(63),
            _ => v,
        };
        DEGENERATE_SCALES
            .get(pick)
            .copied()
            .unwrap_or(if neg == 1 { -v } else { v })
    })
}

/// `warp_amp`: NaN or ±∞ for 3 of 32 draws, a magnitude in 62.5..64.5
/// (where the band's radius reaches its 64-pixel limit) for 5, a multiple
/// of ½ in −8..=8 for 8, otherwise anything in ±100.
fn arb_amp() -> impl Strategy<Value = f32> {
    (0usize..32, -100.0f32..100.0, 62.5f32..64.5, -16i32..17).prop_map(
        |(pick, any, edge, halves)| match pick {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 | 4 => -edge,
            5..=7 => edge,
            8..=15 => halves as f32 / 2.0,
            _ => any,
        },
    )
}

fn profile(warp_amp: f32, warp_scale: f32, speckle: f32) -> LargeNetProfile {
    LargeNetProfile {
        warp_amp,
        warp_scale,
        speckle,
        ..LargeNetProfile::favos()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hoisted_oracle_matches_reference(
        dims in (0usize..WIDTHS.len(), 1usize..71),
        gt in (0u64..2, 0u64..9, 0u64..u64::MAX),
        warp_amp in arb_amp(),
        warp_scale in arb_scale(),
        speckle in 0.0f32..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let (w, h) = (WIDTHS[dims.0], dims.1);
        let gt = mask(w, h, gt.0, gt.1, gt.2);
        let net = LargeNet::new(profile(warp_amp, warp_scale, speckle));
        prop_assert_eq!(net.segment(&gt, seed), reference::segment(&net, &gt, seed));
        let bits = |f: FeatureMap| {
            f.tensor().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        prop_assert_eq!(
            bits(net.forward_backbone(&gt, seed)),
            bits(reference::forward_backbone(&net, &gt, seed))
        );
    }
}

#[test]
fn row_parallel_frames_match_reference_at_any_thread_count() {
    // The raster fans its rows out across cores once its band reaches 2^17
    // pixels. On a 700×400 frame the calibrated profile's band stays under
    // that and runs inline; a zero scale (NaN fades) warps every pixel, and
    // a 40-px amplitude's band covers more than 2^17 pixels without being
    // the whole frame. A one-thread budget must give the same bits.
    let (w, h) = (700, 400);
    let gt = mask(w, h, 1, 0, 0x5eed);
    let banded = LargeNet::new(profile(40.0, 9.0, 0.5));
    let coverage = banded.band_coverage(&gt);
    let pixels = (w * h) as f64;
    assert!(
        coverage * pixels >= f64::from(1 << 17) && coverage < 1.0,
        "{coverage}"
    );
    for net in [
        LargeNet::new(LargeNetProfile::osvos()),
        LargeNet::new(profile(-37.5, 0.0, 0.5)),
        banded,
    ] {
        let want = reference::segment(&net, &gt, 11);
        assert_eq!(net.segment(&gt, 11), want);
        let one = vrd_runtime::with_thread_budget(1, || net.segment(&gt, 11));
        assert_eq!(one, want);
    }
}

#[test]
fn finite_fades_outside_the_unit_interval_warp_every_pixel() {
    // At this scale column 2^21's cell saturates at i64::MAX and its fade
    // is finite but near -2.7e36; the next column's is finite too (about
    // -3.3e38), so only a check of the fades' range, not of their
    // finiteness, sees that the amplitude no longer bounds the warp.
    // Column 2^21 is interior: its 3×3 window is all foreground, while the
    // huge displacement clamps its source into column 0, the background.
    // Narrower frames cannot show it: there the column after the first
    // saturated one already has an infinite fade, so only the last column
    // can have a finite one, and the band always holds the edge ring.
    const X: usize = 1 << 21;
    let (w, h) = (X + 2, 3);
    let scale = 2.273_736_5e-13_f32;
    let fade = |v: usize| value_noise_axis(v as f32, scale).1;
    assert!(fade(X).is_finite() && !(0.0..=1.0).contains(&fade(X)));
    assert!((0..w).all(|x| fade(x).is_finite()));
    assert!((0..h).all(|y| (0.0..=1.0).contains(&fade(y))));
    let mut gt = SegMask::new(w, h);
    gt.fill_rect(Rect::new(1, 0, w as i32, h as i32));
    // One of the two signs moves column 2^21's source towards column 0.
    for warp_amp in [1.0, -1.0] {
        let net = LargeNet::new(profile(warp_amp, scale, 0.0));
        assert_eq!(
            net.segment(&gt, 3),
            reference::segment(&net, &gt, 3),
            "{warp_amp}"
        );
    }
}
