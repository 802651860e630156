//! B-frame segmentation reconstruction from motion vectors (§III-A1).
//!
//! For every macro-block of a B-frame, the reference block's **segmentation
//! result** (not pixels) is copied from the already-segmented I/P reference
//! frame at the motion vector's source coordinates. Bi-referenced blocks are
//! combined with the paper's 2-bit mean filter: both references background →
//! black, both foreground → white, disagreement → gray.
//!
//! The kernels here are word-parallel over the packed bitplanes
//! (`vrd_video::mask`): each macro-block row is fetched as one shift-and-
//! merge word read from each reference (the software analogue of the agent
//! unit's coalesced DRAM burst, §IV-B) and combined with two bitwise ops
//! (`white = a AND b`, `gray = a XOR b`) before being merged into the
//! destination plane. The original per-pixel loops are retained in
//! [`mod@reference`] and pinned bit-exact by the proptests in
//! `tests/recon_equivalence.rs`.

use crate::error::{Result, VrDannError};
use std::collections::BTreeMap;
use vrd_codec::decoder::BFrameInfo;
use vrd_video::{Seg2Plane, SegMask};

/// Reconstruction options (the defaults are the paper's algorithm; the
/// alternatives exist for the ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconConfig {
    /// Combine bi-referenced blocks with the mean filter (paper). When off,
    /// the first reference wins (ablation).
    pub mean_filter: bool,
}

impl Default for ReconConfig {
    fn default() -> Self {
        Self { mean_filter: true }
    }
}

/// The top-left pixel of `info`'s `mb_size` block at `(x, y)`, if the block
/// lies inside the `width × height` frame.
///
/// # Errors
/// Returns [`VrDannError::BadInput`] naming the frame and the block if the
/// block leaves the frame.
fn dst_block(
    info: &BFrameInfo,
    (x, y): (u32, u32),
    (width, height): (usize, usize),
    mb_size: usize,
) -> Result<(usize, usize)> {
    let (x, y) = (x as usize, y as usize);
    if x + mb_size <= width && y + mb_size <= height {
        return Ok((x, y));
    }
    Err(VrDannError::BadInput(format!(
        "B-frame {}'s {mb_size}×{mb_size} block at ({x}, {y}) leaves the {width}×{height} frame",
        info.display_idx
    )))
}

/// Reconstructs a B-frame's segmentation from its motion vectors and the
/// segmentation results of its reference anchors.
///
/// `ref_segs` maps anchor display indices to their (already computed)
/// segmentation masks. Intra-coded blocks carry no motion information; they
/// are filled from the co-located block of the nearest available reference
/// (the natural hardware fallback — the agent unit treats them as zero
/// motion).
///
/// Each block is one [`Seg2Plane::write_mean_filtered_block`]: checked
/// against the frame once, then per block row one clamped word read per
/// reference and the white and gray word merges.
///
/// # Errors
/// Returns [`VrDannError::BadInput`] if a motion vector references an anchor
/// whose segmentation is missing, if `ref_segs` is empty while intra
/// blocks need a fallback, or if a destination block leaves the frame.
///
/// # Example
/// ```
/// use std::collections::BTreeMap;
/// use vr_dann::{reconstruct_b_frame, ReconConfig};
/// use vrd_codec::decoder::BFrameInfo;
/// use vrd_codec::{MvRecord, RefMv};
/// use vrd_video::{Rect, Seg2, SegMask};
///
/// # fn main() -> Result<(), vr_dann::VrDannError> {
/// // Anchor 0's segmentation has a foreground block at (8, 0).
/// let mut anchor = SegMask::new(32, 16);
/// anchor.fill_rect(Rect::new(8, 0, 16, 8));
/// let mut refs = BTreeMap::new();
/// refs.insert(0u32, anchor);
///
/// // The B-frame's block at (0, 0) points at that source block.
/// let info = BFrameInfo {
///     display_idx: 1,
///     mvs: vec![MvRecord {
///         dst_x: 0,
///         dst_y: 0,
///         ref0: RefMv { frame: 0, src_x: 8, src_y: 0 },
///         ref1: None,
///     }],
///     intra_blocks: vec![],
/// };
/// let plane = reconstruct_b_frame(&info, &refs, 32, 16, 8, &ReconConfig::default())?;
/// assert_eq!(plane.get(0, 0), Seg2::White);
/// # Ok(())
/// # }
/// ```
pub fn reconstruct_b_frame(
    info: &BFrameInfo,
    ref_segs: &BTreeMap<u32, SegMask>,
    width: usize,
    height: usize,
    mb_size: usize,
    cfg: &ReconConfig,
) -> Result<Seg2Plane> {
    let mut plane = Seg2Plane::new(width, height);

    // A B-frame's blocks name two or three anchors, over and over: each is
    // looked up in the map once, then found among those already fetched.
    let mut fetched: Vec<(u32, &SegMask)> = Vec::with_capacity(4);
    let mut fetch = |frame: u32| -> Result<&SegMask> {
        if let Some(&(_, seg)) = fetched.iter().find(|&&(f, _)| f == frame) {
            return Ok(seg);
        }
        let seg = ref_segs.get(&frame).ok_or_else(|| {
            VrDannError::BadInput(format!(
                "B-frame {} references anchor {frame} with no segmentation",
                info.display_idx
            ))
        })?;
        fetched.push((frame, seg));
        Ok(seg)
    };

    for mv in &info.mvs {
        let dst = dst_block(info, (mv.dst_x, mv.dst_y), (width, height), mb_size)?;
        let a = (fetch(mv.ref0.frame)?, (mv.ref0.src_x, mv.ref0.src_y));
        let b = match (cfg.mean_filter, mv.ref1) {
            (true, Some(r1)) => (fetch(r1.frame)?, (r1.src_x, r1.src_y)),
            _ => a,
        };
        plane.write_mean_filtered_block(dst, mb_size, a, b);
    }

    if !info.intra_blocks.is_empty() {
        // Nearest anchor by display distance serves the co-located fallback.
        let nearest = ref_segs
            .keys()
            .min_by_key(|&&k| k.abs_diff(info.display_idx))
            .copied()
            .ok_or_else(|| {
                VrDannError::BadInput(format!(
                    "B-frame {} has intra blocks but no reference segmentations",
                    info.display_idx
                ))
            })?;
        let seg = &ref_segs[&nearest];
        for &(bx, by) in &info.intra_blocks {
            let dst = dst_block(info, (bx, by), (width, height), mb_size)?;
            let src = (seg, (bx as i32, by as i32));
            plane.write_mean_filtered_block(dst, mb_size, src, src);
        }
    }

    Ok(plane)
}

/// Thresholds a reconstruction into a mask without NN-S (the VR-DANN
/// ablation without refinement, and the source of Fig. 4's noisy example),
/// gray counting as foreground. A single OR over the packed bitplanes.
pub fn plane_to_mask(plane: &Seg2Plane) -> SegMask {
    plane.to_mask(true)
}

/// Retained per-pixel reconstruction kernels (the pre-packing semantics),
/// kept as the ground truth the word-parallel path is property-tested and
/// benchmarked against — the same pattern as `vrd_nn::conv::reference`.
pub mod reference {
    use super::{dst_block, ReconConfig, Result, VrDannError};
    use std::collections::BTreeMap;
    use vrd_codec::decoder::BFrameInfo;
    use vrd_video::{Seg2, Seg2Plane, SegMask};

    /// Per-pixel reference-block copy with scalar clamped reads — the
    /// scalar ground truth of [`super::reconstruct_b_frame`].
    ///
    /// # Errors
    /// Same contract as the packed kernel, the same error for the same
    /// input.
    pub fn reconstruct_b_frame(
        info: &BFrameInfo,
        ref_segs: &BTreeMap<u32, SegMask>,
        width: usize,
        height: usize,
        mb_size: usize,
        cfg: &ReconConfig,
    ) -> Result<Seg2Plane> {
        let mut plane = Seg2Plane::new(width, height);

        let fetch = |frame: u32| -> Result<&SegMask> {
            ref_segs.get(&frame).ok_or_else(|| {
                VrDannError::BadInput(format!(
                    "B-frame {} references anchor {frame} with no segmentation",
                    info.display_idx
                ))
            })
        };

        for mv in &info.mvs {
            dst_block(info, (mv.dst_x, mv.dst_y), (width, height), mb_size)?;
            let s0 = fetch(mv.ref0.frame)?;
            match (cfg.mean_filter, mv.ref1) {
                (true, Some(r1)) => {
                    let s1 = fetch(r1.frame)?;
                    for dy in 0..mb_size {
                        for dx in 0..mb_size {
                            let a = s0
                                .get_clamped(mv.ref0.src_x + dx as i32, mv.ref0.src_y + dy as i32);
                            let b = s1.get_clamped(r1.src_x + dx as i32, r1.src_y + dy as i32);
                            plane.set(
                                mv.dst_x as usize + dx,
                                mv.dst_y as usize + dy,
                                Seg2::from_bits(a, b),
                            );
                        }
                    }
                }
                _ => {
                    for dy in 0..mb_size {
                        for dx in 0..mb_size {
                            let a = s0
                                .get_clamped(mv.ref0.src_x + dx as i32, mv.ref0.src_y + dy as i32);
                            plane.set(
                                mv.dst_x as usize + dx,
                                mv.dst_y as usize + dy,
                                Seg2::from_bits(a, a),
                            );
                        }
                    }
                }
            }
        }

        if !info.intra_blocks.is_empty() {
            let nearest = ref_segs
                .keys()
                .min_by_key(|&&k| k.abs_diff(info.display_idx))
                .copied()
                .ok_or_else(|| {
                    VrDannError::BadInput(format!(
                        "B-frame {} has intra blocks but no reference segmentations",
                        info.display_idx
                    ))
                })?;
            let seg = &ref_segs[&nearest];
            for &(bx, by) in &info.intra_blocks {
                dst_block(info, (bx, by), (width, height), mb_size)?;
                for dy in 0..mb_size {
                    for dx in 0..mb_size {
                        let a = seg.get_clamped(bx as i32 + dx as i32, by as i32 + dy as i32);
                        plane.set(bx as usize + dx, by as usize + dy, Seg2::from_bits(a, a));
                    }
                }
            }
        }

        Ok(plane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_codec::{MvRecord, RefMv};
    use vrd_video::{Rect, Seg2};

    fn seg_with(r: Rect) -> SegMask {
        let mut m = SegMask::new(32, 16);
        m.fill_rect(r);
        m
    }

    fn mv(
        dst: (u32, u32),
        f0: u32,
        src0: (i32, i32),
        second: Option<(u32, (i32, i32))>,
    ) -> MvRecord {
        MvRecord {
            dst_x: dst.0,
            dst_y: dst.1,
            ref0: RefMv {
                frame: f0,
                src_x: src0.0,
                src_y: src0.1,
            },
            ref1: second.map(|(f, s)| RefMv {
                frame: f,
                src_x: s.0,
                src_y: s.1,
            }),
        }
    }

    #[test]
    fn single_reference_copies_block() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, seg_with(Rect::new(8, 0, 16, 8)));
        let info = BFrameInfo {
            display_idx: 1,
            mvs: vec![mv((0, 0), 0, (8, 0), None)],
            intra_blocks: vec![],
        };
        let plane = reconstruct_b_frame(&info, &refs, 32, 16, 8, &ReconConfig::default()).unwrap();
        // The destination block is fully white (the source was foreground).
        assert_eq!(plane.get(0, 0), Seg2::White);
        assert_eq!(plane.get(7, 7), Seg2::White);
        // Outside the written block the plane stays black.
        assert_eq!(plane.get(8, 0), Seg2::Black);
    }

    #[test]
    fn bi_reference_mean_filters_disagreement() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, seg_with(Rect::new(0, 0, 8, 8))); // foreground
        refs.insert(4u32, seg_with(Rect::new(16, 8, 24, 16))); // elsewhere
        let info = BFrameInfo {
            display_idx: 2,
            mvs: vec![mv((8, 8), 0, (0, 0), Some((4, (0, 0))))],
            intra_blocks: vec![],
        };
        let plane = reconstruct_b_frame(&info, &refs, 32, 16, 8, &ReconConfig::default()).unwrap();
        // Ref0 says white, ref4 (at 0,0) says black -> gray.
        assert_eq!(plane.get(8, 8), Seg2::Gray);
        assert_eq!(plane_to_mask(&plane).get(8, 8), 1);
    }

    #[test]
    fn first_ref_wins_without_mean_filter() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, seg_with(Rect::new(0, 0, 8, 8)));
        refs.insert(4u32, SegMask::new(32, 16));
        let info = BFrameInfo {
            display_idx: 2,
            mvs: vec![mv((8, 8), 0, (0, 0), Some((4, (0, 0))))],
            intra_blocks: vec![],
        };
        let cfg = ReconConfig { mean_filter: false };
        let plane = reconstruct_b_frame(&info, &refs, 32, 16, 8, &cfg).unwrap();
        assert_eq!(plane.get(8, 8), Seg2::White);
    }

    #[test]
    fn intra_blocks_fall_back_to_colocated_nearest_anchor() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, seg_with(Rect::new(0, 8, 8, 16)));
        refs.insert(8u32, SegMask::new(32, 16));
        let info = BFrameInfo {
            display_idx: 1, // nearest anchor is 0
            mvs: vec![],
            intra_blocks: vec![(0, 8)],
        };
        let plane = reconstruct_b_frame(&info, &refs, 32, 16, 8, &ReconConfig::default()).unwrap();
        assert_eq!(plane.get(0, 8), Seg2::White);
        assert_eq!(plane.get(0, 0), Seg2::Black);
    }

    #[test]
    fn missing_reference_is_an_error() {
        let refs = BTreeMap::new();
        let info = BFrameInfo {
            display_idx: 1,
            mvs: vec![mv((0, 0), 0, (0, 0), None)],
            intra_blocks: vec![],
        };
        let err = reconstruct_b_frame(&info, &refs, 32, 16, 8, &ReconConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn out_of_frame_destinations_are_refused_naming_the_block() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, SegMask::new(64, 32));
        // An MV block starting at the right edge of a 64-wide frame, and an
        // intra block reaching past the bottom of a 32-high one.
        let mv_past_the_edge = BFrameInfo {
            display_idx: 3,
            mvs: vec![mv((64, 0), 0, (0, 0), None)],
            intra_blocks: vec![],
        };
        let intra_past_the_edge = BFrameInfo {
            display_idx: 5,
            mvs: vec![],
            intra_blocks: vec![(0, 40)],
        };
        let cases = [
            (
                &mv_past_the_edge,
                "B-frame 3's 8×8 block at (64, 0) leaves the 64×32 frame",
            ),
            (
                &intra_past_the_edge,
                "B-frame 5's 8×8 block at (0, 40) leaves the 64×32 frame",
            ),
        ];
        let cfg = ReconConfig::default();
        for (info, want) in cases {
            for got in [
                reconstruct_b_frame(info, &refs, 64, 32, 8, &cfg),
                reference::reconstruct_b_frame(info, &refs, 64, 32, 8, &cfg),
            ] {
                assert_eq!(got, Err(VrDannError::BadInput(want.to_string())));
            }
        }
    }

    #[test]
    fn packed_matches_reference_on_unaligned_sources() {
        // Sources straddling word boundaries and the frame edge, 96-wide so
        // rows span two words with a 32-bit tail.
        let mut a = SegMask::new(96, 32);
        let mut b = SegMask::new(96, 32);
        a.fill_rect(Rect::new(50, 3, 80, 20));
        b.fill_rect(Rect::new(60, 0, 96, 31));
        let mut refs = BTreeMap::new();
        refs.insert(0u32, a);
        refs.insert(4u32, b);
        let info = BFrameInfo {
            display_idx: 2,
            mvs: vec![
                mv((0, 0), 0, (59, -2), Some((4, (61, 5)))),
                mv((16, 0), 0, (90, 7), None),
                mv((0, 16), 4, (-6, 28), Some((0, (63, 15)))),
            ],
            intra_blocks: vec![(80, 16)],
        };
        for cfg in [ReconConfig::default(), ReconConfig { mean_filter: false }] {
            let packed = reconstruct_b_frame(&info, &refs, 96, 32, 16, &cfg).unwrap();
            let scalar = reference::reconstruct_b_frame(&info, &refs, 96, 32, 16, &cfg).unwrap();
            assert_eq!(packed, scalar);
        }
    }
}
