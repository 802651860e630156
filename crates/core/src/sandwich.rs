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
use vrd_nn::Tensor;
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

/// The values of black, gray and white pixels in an f32 NN-S input.
const F32_CODES: [f32; 3] = [0.0, 0.5, 1.0];

/// Builds the 3-channel sandwich tensor for a B-frame.
///
/// `ref_segs` maps anchor display indices to segmentations; the channels are
/// the temporally nearest anchor before and after `display_idx`. When the
/// B-frame has anchors on only one side (stream boundaries), that side's
/// nearest anchor fills both outer channels.
///
/// The assembly is fused ([`fill_nns_input`]): each channel expands its
/// packed bitplanes word-at-a-time straight into its slice of the final CHW
/// buffer, so no intermediate per-channel tensor or byte raster is
/// materialised.
///
/// # Errors
/// Returns [`VrDannError::BadInput`] if `ref_segs` is empty.
pub fn build_sandwich(
    display_idx: u32,
    plane: &Seg2Plane,
    ref_segs: &BTreeMap<u32, SegMask>,
) -> Result<Tensor> {
    nns_tensor(display_idx, plane, ref_segs, true)
}

/// The f32 NN-S input of a B-frame reconstructed as `plane`:
/// [`fill_nns_input`] into a new tensor.
pub(crate) fn nns_tensor(
    display_idx: u32,
    plane: &Seg2Plane,
    ref_segs: &BTreeMap<u32, SegMask>,
    sandwich: bool,
) -> Result<Tensor> {
    let (w, h) = (plane.width(), plane.height());
    let mut data = vec![0.0; 3 * h * w];
    fill_nns_input(display_idx, plane, ref_segs, sandwich, F32_CODES, &mut data)?;
    Ok(Tensor::from_vec(3, h, w, data))
}

/// Writes the NN-S input of a B-frame reconstructed as `plane` into `out`
/// (`3 × h × w`), each pixel as `codes[0]`, `codes[1]` or `codes[2]` for
/// black, gray and white: with `sandwich`, the sandwich of
/// [`build_sandwich`]; without it, the reconstruction in all three channels
/// (the no-sandwich ablation, where NN-S sees no temporal context). The one
/// expansion body behind both precisions' inputs — f32 `0 / ½ / 1`, or the
/// int8 graph's quantized codes — from the packed planes, a word at a time.
///
/// # Errors
/// Returns [`VrDannError::BadInput`] if `out` is not `3 × h × w` long, or
/// if `sandwich` is set and `ref_segs` is empty.
pub fn fill_nns_input<T: Copy>(
    display_idx: u32,
    plane: &Seg2Plane,
    ref_segs: &BTreeMap<u32, SegMask>,
    sandwich: bool,
    codes: [T; 3],
    out: &mut [T],
) -> Result<()> {
    let hw = plane.width() * plane.height();
    if out.len() != 3 * hw {
        let (len, want) = (out.len(), 3 * hw);
        let msg = format!("NN-S input buffer holds {len} elements, expected {want}");
        return Err(VrDannError::BadInput(msg));
    }
    let (first, rest) = out.split_at_mut(hw);
    let (mid, last) = rest.split_at_mut(hw);
    if sandwich {
        let (prev, next) = pick_anchors(display_idx, ref_segs)?;
        let [black, _, white] = codes;
        prev.expand_into(first, [black, white]);
        plane.expand_into(mid, codes);
        next.expand_into(last, [black, white]);
    } else {
        plane.expand_into(mid, codes);
        first.copy_from_slice(mid);
        last.copy_from_slice(mid);
    }
    Ok(())
}

/// The NN-S input of one B-frame, shared by training and the engine:
/// reconstruct the frame from its motion vectors, then build the sandwich
/// around it — or, with `cfg.sandwich` off, the reconstruction alone.
///
/// # Errors
/// Propagates reconstruction and sandwich failures (a motion vector or a
/// sandwich with no reference segmentation to read).
pub(crate) fn nns_input(
    info: &BFrameInfo,
    ref_segs: &BTreeMap<u32, SegMask>,
    stream: &StreamInfo,
    cfg: &VrDannConfig,
) -> Result<Tensor> {
    let (w, h, mb) = (stream.width, stream.height, stream.mb_size);
    let plane = reconstruct_b_frame(info, ref_segs, w, h, mb, &cfg.recon)?;
    nns_tensor(info.display_idx, &plane, ref_segs, cfg.sandwich)
}

/// Retained per-pixel sandwich assembly — the scalar ground truth the fused
/// packed expansion is property-tested and benchmarked against.
pub mod reference {
    use super::{pick_anchors, Result};
    use std::collections::BTreeMap;
    use vrd_nn::Tensor;
    use vrd_video::{Seg2Plane, SegMask};

    /// Scalar per-pixel sandwich assembly.
    ///
    /// # Errors
    /// Same contract as [`super::build_sandwich`].
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
    fn every_element_type_expands_the_same_pixels() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, mask(Rect::new(0, 0, 5, 3)));
        refs.insert(4u32, mask(Rect::new(2, 1, 8, 8)));
        let mut plane = Seg2Plane::new(8, 8);
        plane.set(3, 0, Seg2::Gray);
        plane.set(6, 7, Seg2::White);
        for sandwich in [true, false] {
            let f32s = nns_tensor(2, &plane, &refs, sandwich).unwrap();
            let mut codes = vec![0u8; 3 * 64];
            fill_nns_input(2, &plane, &refs, sandwich, [7, 11, 13], &mut codes).unwrap();
            let want: Vec<u8> = (f32s.as_slice().iter())
                .map(|&v| [7, 11, 13][(v * 2.0) as usize])
                .collect();
            assert_eq!(codes, want, "sandwich {sandwich}");
        }
    }

    #[test]
    fn wrong_length_buffer_is_bad_input() {
        let mut refs = BTreeMap::new();
        refs.insert(0u32, mask(Rect::new(0, 0, 2, 2)));
        let plane = Seg2Plane::new(8, 8);
        for (sandwich, len) in [(true, 191), (false, 193), (true, 0)] {
            let mut out = vec![0u8; len];
            let err = fill_nns_input(2, &plane, &refs, sandwich, [0, 1, 2], &mut out);
            let want = format!("holds {len} elements, expected 192");
            assert!(
                matches!(&err, Err(VrDannError::BadInput(m)) if m.contains(&want)),
                "{err:?}"
            );
        }
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
    }

    #[test]
    fn reconstruction_only_ablation_replicates_middle() {
        let mut plane = Seg2Plane::new(8, 8);
        plane.set(2, 2, Seg2::White);
        let t = nns_tensor(3, &plane, &BTreeMap::new(), false).unwrap();
        assert_eq!(t.channel(0), t.channel(1));
        assert_eq!(t.channel(1), t.channel(2));
        assert_eq!(t.get(1, 2, 2), 1.0);
    }
}
