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

use proptest::prelude::*;
use vrd_nn::featwarp::FeatureMap;
use vrd_nn::largenet::reference;
use vrd_nn::{LargeNet, LargeNetProfile};
use vrd_video::texture::hash2;
use vrd_video::SegMask;

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

/// `warp_scale`: a degenerate value for 6 of 16 draws, otherwise a
/// magnitude in 0.5..32 of either sign.
fn arb_scale() -> impl Strategy<Value = f32> {
    (0usize..16, 0.5f32..32.0, 0u8..2).prop_map(|(pick, v, neg)| {
        DEGENERATE_SCALES
            .get(pick)
            .copied()
            .unwrap_or(if neg == 1 { -v } else { v })
    })
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
        warp_amp in -100.0f32..100.0,
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
    // 257×256 is just over the 2^16-pixel cut where the raster fans its rows
    // out across cores; a one-thread budget must give the same bits.
    let gt = mask(257, 256, 1, 0, 0x5eed);
    for net in [
        LargeNet::new(LargeNetProfile::osvos()),
        LargeNet::new(profile(-37.5, 0.0, 0.5)),
    ] {
        let want = reference::segment(&net, &gt, 11);
        assert_eq!(net.segment(&gt, 11), want);
        let one = vrd_runtime::with_thread_budget(1, || net.segment(&gt, 11));
        assert_eq!(one, want);
    }
}
