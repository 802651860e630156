//! Property tests pinning the word-parallel B-frame reconstruction and the
//! fused sandwich assembly to their retained per-pixel references
//! (`vr_dann::recon::reference`, `vr_dann::sandwich::reference`) across
//! random masks and motion-vector patterns, including unaligned block
//! offsets at word boundaries and out-of-range (edge-replicated) sources,
//! on frames of whole words and on one whose last word is partial.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vr_dann::{build_sandwich, recon, reconstruct_b_frame, sandwich, ReconConfig};
use vrd_codec::decoder::BFrameInfo;
use vrd_codec::{MvRecord, RefMv};
use vrd_video::SegMask;

const W: usize = 192; // three words per row
const H: usize = 48;
const MB: usize = 16;

/// A frame whose rows end in a partial word (200 = 3·64 + 8), as the
/// 864-wide HD frame's do (864 = 13·64 + 32).
const W_PARTIAL: usize = 200;

fn mask_on(w: usize, h: usize, seed: u64) -> SegMask {
    SegMask::from_bits(
        w,
        h,
        (0..w * h).map(|i| vrd_video::texture::hash2(i as i64, 29, seed) & 1 == 1),
    )
}

fn anchors(seed: u64) -> BTreeMap<u32, SegMask> {
    anchors_on(W, H, seed)
}

fn anchors_on(w: usize, h: usize, seed: u64) -> BTreeMap<u32, SegMask> {
    let mut refs = BTreeMap::new();
    refs.insert(0u32, mask_on(w, h, seed));
    refs.insert(4u32, mask_on(w, h, seed ^ 0xdead));
    refs
}

/// A full-coverage MV grid whose sources are a deterministic function of the
/// seed: arbitrary pixel offsets (word-straddling), including out-of-range
/// coordinates that exercise edge replication, plus a sprinkling of
/// bi-predicted and intra blocks.
fn random_info(seed: u64, bi_frac: u64, intra_frac: u64) -> BFrameInfo {
    random_info_on(W, H, MB, seed, bi_frac, intra_frac)
}

/// [`random_info`] on a `w × h` frame of `mb`-pixel blocks.
fn random_info_on(
    w: usize,
    h: usize,
    mb: usize,
    seed: u64,
    bi_frac: u64,
    intra_frac: u64,
) -> BFrameInfo {
    let mut mvs = Vec::new();
    let mut intra_blocks = Vec::new();
    for by in 0..(h / mb) {
        for bx in 0..(w / mb) {
            let s = vrd_video::texture::hash2(bx as i64, by as i64, seed);
            if s % 100 < intra_frac {
                intra_blocks.push((bx as u32 * mb as u32, by as u32 * mb as u32));
                continue;
            }
            let ref0 = RefMv {
                frame: if s & 4 == 0 { 0 } else { 4 },
                // Offsets in [-24, w+8): unaligned, word-straddling, and
                // sometimes fully or partially outside the frame.
                src_x: (s % (w as u64 + 32)) as i32 - 24,
                src_y: ((s >> 8) % (h as u64 + 16)) as i32 - 8,
            };
            let ref1 = (s % 100 < 50 + bi_frac).then(|| RefMv {
                frame: if s & 8 == 0 { 0 } else { 4 },
                src_x: ((s >> 16) % (w as u64 + 32)) as i32 - 24,
                src_y: ((s >> 24) % (h as u64 + 16)) as i32 - 8,
            });
            mvs.push(MvRecord {
                dst_x: bx as u32 * mb as u32,
                dst_y: by as u32 * mb as u32,
                ref0,
                ref1,
            });
        }
    }
    BFrameInfo {
        display_idx: 2,
        mvs,
        intra_blocks,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_reconstruction_matches_reference(
        seed in 0u64..1_000_000,
        bi_frac in 0u64..50,
        intra_frac in 0u64..20,
        mean_filter in 0u8..2,
    ) {
        let refs = anchors(seed);
        let info = random_info(seed, bi_frac, intra_frac);
        let cfg = ReconConfig { mean_filter: mean_filter == 1 };
        let packed = reconstruct_b_frame(&info, &refs, W, H, MB, &cfg).unwrap();
        let scalar = recon::reference::reconstruct_b_frame(&info, &refs, W, H, MB, &cfg).unwrap();
        prop_assert_eq!(&packed, &scalar);
        prop_assert_eq!(
            recon::plane_to_mask(&packed),
            vrd_video::mask::reference::plane_to_mask(&scalar, true)
        );
    }

    #[test]
    fn fused_sandwich_matches_reference(seed in 0u64..1_000_000) {
        let refs = anchors(seed);
        let info = random_info(seed, 25, 5);
        let plane = reconstruct_b_frame(&info, &refs, W, H, MB, &ReconConfig::default()).unwrap();
        let fused = build_sandwich(info.display_idx, &plane, &refs).unwrap();
        let scalar = sandwich::reference::build_sandwich(info.display_idx, &plane, &refs).unwrap();
        prop_assert_eq!(fused.as_slice(), scalar.as_slice());
    }

    #[test]
    fn packed_reconstruction_matches_reference_h265_blocks(seed in 0u64..1_000_000) {
        // H.265 uses 8-px blocks — off-word-multiple destinations every
        // other block column.
        let refs = anchors(seed);
        let mut info = random_info(seed, 25, 5);
        // Re-grid the same sources onto 8-px destinations.
        info.mvs = info
            .mvs
            .iter()
            .enumerate()
            .map(|(i, mv)| MvRecord {
                dst_x: (i as u32 * 8) % (W as u32),
                dst_y: ((i as u32 * 8) / (W as u32)) * 8,
                ..*mv
            })
            .collect();
        info.intra_blocks.clear();
        let cfg = ReconConfig::default();
        let packed = reconstruct_b_frame(&info, &refs, W, H, 8, &cfg).unwrap();
        let scalar = recon::reference::reconstruct_b_frame(&info, &refs, W, H, 8, &cfg).unwrap();
        prop_assert_eq!(packed, scalar);
    }

    #[test]
    fn packed_reconstruction_matches_reference_on_a_partial_last_word(
        seed in 0u64..1_000_000,
        bi_frac in 0u64..50,
        intra_frac in 0u64..20,
        mean_filter in 0u8..2,
    ) {
        // 8-px blocks on a 200-wide frame: destinations in the partial last
        // word (columns 192..200), and sources straddling its start or
        // running past its end into the edge replication.
        let refs = anchors_on(W_PARTIAL, H, seed);
        let info = random_info_on(W_PARTIAL, H, 8, seed, bi_frac, intra_frac);
        let cfg = ReconConfig { mean_filter: mean_filter == 1 };
        let packed = reconstruct_b_frame(&info, &refs, W_PARTIAL, H, 8, &cfg).unwrap();
        let scalar =
            recon::reference::reconstruct_b_frame(&info, &refs, W_PARTIAL, H, 8, &cfg).unwrap();
        prop_assert_eq!(packed, scalar);
    }
}
