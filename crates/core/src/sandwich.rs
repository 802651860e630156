//! The sandwich input to NN-S (§III-A2).
//!
//! "We build sandwich-like three-channel images as the input to the NN-S,
//! where the middle channel is the reconstruction results of current
//! B-frame, and the first and third channels are the immediately preceding
//! and following segmentation results of the reference I-frame and P-frame."

use crate::error::{Result, VrDannError};
use crate::recon::reconstruct_b_frame;
use crate::vrdann::VrDannConfig;
use std::collections::BTreeMap;
use vrd_codec::decoder::BFrameInfo;
use vrd_codec::StreamInfo;
use vrd_nn::{SandwichPlanes, Tensor};
use vrd_video::{Seg2Plane, SegMask};

/// Picks the sandwich's outer channels: the temporally nearest anchors
/// before and after `display_idx` (one side duplicated at stream
/// boundaries).
fn pick_anchors(
    display_idx: u32,
    ref_segs: &BTreeMap<u32, SegMask>,
) -> Result<(&SegMask, &SegMask)> {
    let prev = ref_segs.range(..display_idx).next_back().map(|(_, m)| m);
    let next = ref_segs.range(display_idx + 1..).next().map(|(_, m)| m);
    match (prev, next) {
        (Some(p), Some(n)) => Ok((p, n)),
        (Some(p), None) => Ok((p, p)),
        (None, Some(n)) => Ok((n, n)),
        (None, None) => Err(VrDannError::BadInput(format!(
            "B-frame {display_idx} has no reference segmentations for the sandwich"
        ))),
    }
}

/// Builds the 3-channel sandwich tensor for a B-frame: the packed planes
/// the engine refines, expanded ([`SandwichPlanes::to_tensor`]).
///
/// `ref_segs` maps anchor display indices to segmentations; the channels are
/// the temporally nearest anchor before and after `display_idx`. When the
/// B-frame has anchors on only one side (stream boundaries), that side's
/// nearest anchor fills both outer channels.
///
/// # Errors
/// Returns [`VrDannError::BadInput`] if `ref_segs` is empty, if the chosen
/// anchors and `plane` differ in size, or if a side is odd (NN-S max-pools
/// by two, and the engine refuses such a stream too).
pub fn build_sandwich(
    display_idx: u32,
    plane: &Seg2Plane,
    ref_segs: &BTreeMap<u32, SegMask>,
) -> Result<Tensor> {
    Ok(nns_planes(display_idx, plane, ref_segs, true)?.to_tensor())
}

/// The packed planes NN-S's `mask` reads for a B-frame reconstructed as
/// `plane`: with `sandwich`, the nearest anchors' masks around it (as in
/// [`build_sandwich`]); without it, the reconstruction alone.
///
/// # Errors
/// Returns [`VrDannError::BadInput`] if `sandwich` is set and `ref_segs`
/// is empty, or the planes differ in size or have an odd side.
pub(crate) fn nns_planes<'a>(
    display_idx: u32,
    plane: &'a Seg2Plane,
    ref_segs: &'a BTreeMap<u32, SegMask>,
    sandwich: bool,
) -> Result<SandwichPlanes<'a>> {
    let planes = if sandwich {
        let (prev, next) = pick_anchors(display_idx, ref_segs)?;
        SandwichPlanes::new(prev, plane, next)
    } else {
        SandwichPlanes::recon_only(plane)
    };
    planes.map_err(VrDannError::BadInput)
}

/// The dense NN-S input of one training B-frame: reconstruct the frame
/// from its motion vectors, then take the engine's [`nns_planes`] around
/// it — the sandwich, or with `cfg.sandwich` off the reconstruction alone
/// — expanded.
///
/// # Errors
/// Propagates reconstruction and sandwich failures (a motion vector or a
/// sandwich with no reference segmentation to read, planes of different
/// sizes or an odd side).
pub(crate) fn nns_input(
    info: &BFrameInfo,
    ref_segs: &BTreeMap<u32, SegMask>,
    stream: &StreamInfo,
    cfg: &VrDannConfig,
) -> Result<Tensor> {
    let (w, h, mb) = (stream.width, stream.height, stream.mb_size);
    let plane = reconstruct_b_frame(info, ref_segs, w, h, mb, &cfg.recon)?;
    Ok(nns_planes(info.display_idx, &plane, ref_segs, cfg.sandwich)?.to_tensor())
}

/// Retained per-pixel sandwich assembly — the scalar ground truth the fused
/// packed expansion is property-tested and benchmarked against.
pub mod reference {
    use super::{pick_anchors, Result};
    use std::collections::BTreeMap;
    use vrd_nn::Tensor;
    use vrd_video::{Seg2Plane, SegMask};

    /// Scalar per-pixel sandwich assembly, for planes
    /// [`super::build_sandwich`] accepts.
    ///
    /// # Errors
    /// Returns [`crate::VrDannError::BadInput`] if `ref_segs` is empty.
    pub fn build_sandwich(
        display_idx: u32,
        plane: &Seg2Plane,
        ref_segs: &BTreeMap<u32, SegMask>,
    ) -> Result<Tensor> {
        let (prev, next) = pick_anchors(display_idx, ref_segs)?;
        let (w, h) = (plane.width(), plane.height());
        let mut t = Tensor::zeros(3, h, w);
        for y in 0..h {
            for x in 0..w {
                t.set(0, y, x, f32::from(prev.get(x, y)));
                t.set(1, y, x, plane.get(x, y).to_f32());
                t.set(2, y, x, f32::from(next.get(x, y)));
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_video::{Rect, Seg2};

    fn mask(r: Rect) -> SegMask {
        let mut m = SegMask::new(8, 8);
        m.fill_rect(r);
        m
    }

    #[test]
    fn picks_immediately_adjacent_anchors() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, mask(Rect::new(0, 0, 1, 1)));
        refs.insert(4u32, mask(Rect::new(1, 0, 2, 1)));
        refs.insert(8u32, mask(Rect::new(2, 0, 3, 1)));
        let mut plane = Seg2Plane::new(8, 8);
        plane.set(3, 0, Seg2::Gray);
        // display 5 sits between anchors 4 and 8.
        let t = build_sandwich(5, &plane, &refs).unwrap();
        assert_eq!(t.channels(), 3);
        assert_eq!(t.get(0, 0, 1), 1.0, "prev channel should be anchor 4");
        assert_eq!(t.get(1, 0, 3), 0.5, "middle channel is the recon plane");
        assert_eq!(t.get(2, 0, 2), 1.0, "next channel should be anchor 8");
        assert_eq!(t.get(0, 0, 0), 0.0, "anchor 0 must not leak in");
    }

    #[test]
    fn one_sided_anchors_duplicate() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, mask(Rect::new(0, 0, 2, 2)));
        let plane = Seg2Plane::new(8, 8);
        let t = build_sandwich(3, &plane, &refs).unwrap();
        assert_eq!(t.channel(0), t.channel(2));
    }

    #[test]
    fn empty_refs_error() {
        let plane = Seg2Plane::new(8, 8);
        assert!(build_sandwich(3, &plane, &BTreeMap::new()).is_err());
        assert!(nns_planes(3, &plane, &BTreeMap::new(), true).is_err());
        assert!(nns_planes(3, &plane, &BTreeMap::new(), false).is_ok());
    }

    #[test]
    fn planes_of_another_size_are_bad_input() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, mask(Rect::new(0, 0, 2, 2)));
        let plane = Seg2Plane::new(10, 8);
        let err = nns_planes(3, &plane, &refs, true);
        assert!(
            matches!(&err, Err(VrDannError::BadInput(m)) if m.contains("8×8") && m.contains("10×8")),
            "{err:?}"
        );
    }

    #[test]
    fn build_sandwich_refuses_planes_it_cannot_expand() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, mask(Rect::new(0, 0, 2, 2)));
        let wider = build_sandwich(3, &Seg2Plane::new(10, 8), &refs);
        assert!(matches!(wider, Err(VrDannError::BadInput(_))), "{wider:?}");
        let mut odd = BTreeMap::new();
        odd.insert(0u32, SegMask::new(7, 8));
        let odd = build_sandwich(3, &Seg2Plane::new(7, 8), &odd);
        assert!(
            matches!(&odd, Err(VrDannError::BadInput(m)) if m.contains("even sides")),
            "{odd:?}"
        );
    }

    #[test]
    fn reconstruction_only_ablation_replicates_middle() {
        let mut plane = Seg2Plane::new(8, 8);
        plane.set(2, 2, Seg2::White);
        let t = nns_planes(3, &plane, &BTreeMap::new(), false)
            .unwrap()
            .to_tensor();
        assert_eq!(t.channel(0), t.channel(1));
        assert_eq!(t.channel(1), t.channel(2));
        assert_eq!(t.get(1, 2, 2), 1.0);
    }
}
