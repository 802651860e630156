//! Feature-space propagation (Jain & Gonzalez) as a [`TaskPolicy`]: the
//! staged large network runs in full on I/P anchors, its penultimate
//! feature maps are cached in the engine's O(GOP) window, and B-frames are
//! handled entirely in feature space — the cached features are warped with
//! the frame's bitstream block MVs and only the network *head* runs on the
//! NPU.
//!
//! This is the baseline VR-DANN's mask-space reconstruction is usually
//! contrasted with: instead of reconstructing the *output* (a bit-packed
//! mask) and refining it with a second network, the *intermediate
//! activations* are interpolated and the tail of the same network finishes
//! the job. The compute tradeoff is head-only inference per B-frame
//! ([`ComputeKind::FeatHead`], ~[`NNL_HEAD_FRACTION`] of a full NN-L pass)
//! versus VR-DANN's tiny NN-S — more NPU work, but no second model, no
//! model switching, and no NN-S training.
//!
//! The task reuses the engine's window discipline wholesale: cached
//! feature maps are evicted in lock-step with the reference masks
//! ([`TaskPolicy::evict_below`]), so peak live features obey the same
//! O(GOP) bound the masks do (`bounded_memory.rs` pins it).

use crate::engine::{StreamTask, TaskPolicy};
use crate::error::{Result, VrDannError};
use crate::trace::SchemeKind;
use crate::vrdann::VrDannConfig;
use std::collections::BTreeMap;
use vrd_codec::decoder::BFrameInfo;
use vrd_codec::StreamInfo;
use vrd_nn::featwarp::{warp_block, FeatureMap, WarpSource, FEATURE_CHANNELS, FEATURE_STRIDE};
use vrd_nn::LargeNet;
use vrd_video::texture::hash2;
use vrd_video::{SegMask, Sequence};

#[cfg(doc)]
use crate::trace::ComputeKind;
#[cfg(doc)]
use vrd_nn::NNL_HEAD_FRACTION;

/// Feature-propagation task: staged NN-L on anchors, warped features +
/// head-only inference on B-frames.
#[derive(Debug)]
pub struct FeatPropTask<'a> {
    seq: &'a Sequence,
    nnl: LargeNet,
    seed: u64,
    w: usize,
    h: usize,
    mb: usize,
    /// Cached backbone features per live anchor, evicted with the engine's
    /// reference-mask window.
    feats: BTreeMap<u32, FeatureMap>,
    peak_feats: usize,
}

impl FeatPropTask<'_> {
    /// The feature map of the display-nearest cached anchor (for intra
    /// blocks, which have no MV and fill co-located — the feature-space
    /// analogue of the reconstruction kernel's intra fallback).
    fn nearest_feat(&self, display: u32) -> Option<&FeatureMap> {
        self.feats
            .iter()
            .min_by_key(|(d, _)| d.abs_diff(display))
            .map(|(_, f)| f)
    }
}

impl<'s> StreamTask<'s> for FeatPropTask<'s> {
    fn for_stream(seq: &'s Sequence, cfg: &VrDannConfig, info: &StreamInfo) -> Self {
        Self {
            seq,
            nnl: LargeNet::new(cfg.segment_profile),
            seed: cfg.seed,
            w: info.width,
            h: info.height,
            mb: info.mb_size,
            feats: BTreeMap::new(),
            peak_feats: 0,
        }
    }
}

impl TaskPolicy for FeatPropTask<'_> {
    type Output = SegMask;

    // Feature propagation replaces the whole B-frame ladder; the §VI-A
    // mask-space fallback does not apply.
    const SUPPORTS_FALLBACK: bool = false;

    fn scheme(&self) -> SchemeKind {
        SchemeKind::FeatProp
    }

    fn sequence(&self) -> &Sequence {
        self.seq
    }

    fn nnl_ops(&self) -> u64 {
        self.nnl.ops(self.w, self.h)
    }

    fn infer_anchor(&mut self, display: u32, reinfer: bool) -> (SegMask, SegMask) {
        // Same seed lanes as `SegTask`, so FeatProp's anchors are
        // bit-identical to VR-DANN's — the baseline comparison then
        // isolates the propagation method, not the anchor noise.
        let lane: i64 = if reinfer { 2 } else { 0 };
        let seed = hash2(display as i64, lane, self.seed);
        let feat = self
            .nnl
            .forward_backbone(&self.seq.gt_masks[display as usize], seed);
        let mask = self.nnl.forward_head(&feat);
        self.feats.insert(display, feat);
        self.peak_feats = self.peak_feats.max(self.feats.len());
        (mask.clone(), mask)
    }

    fn propagate(&mut self, info: &BFrameInfo) -> Option<Result<(SegMask, u64)>> {
        let display = info.display_idx;
        let mut out = FeatureMap::zeros(self.w, self.h, FEATURE_STRIDE, FEATURE_CHANNELS);
        // The transient destination map counts against the live-feature
        // high-water mark alongside the cached anchors.
        self.peak_feats = self.peak_feats.max(self.feats.len() + 1);

        // Intra blocks carry no MV: fill co-located from the nearest
        // cached anchor.
        if !info.intra_blocks.is_empty() {
            let Some(near) = self.nearest_feat(display) else {
                return Some(Err(VrDannError::BadInput(format!(
                    "feature propagation: B-frame {display} has no cached anchor features"
                ))));
            };
            for &(bx, by) in &info.intra_blocks {
                let src = WarpSource {
                    feat: near,
                    dx: 0,
                    dy: 0,
                };
                warp_block(&mut out, bx as usize, by as usize, self.mb, src, None);
            }
        }

        for mv in &info.mvs {
            let Some(f0) = self.feats.get(&mv.ref0.frame) else {
                return Some(Err(VrDannError::BadInput(format!(
                    "feature propagation: B-frame {display} references anchor {} outside the \
                     feature window",
                    mv.ref0.frame
                ))));
            };
            let first = WarpSource {
                feat: f0,
                dx: mv.ref0.src_x - mv.dst_x as i32,
                dy: mv.ref0.src_y - mv.dst_y as i32,
            };
            let second = match &mv.ref1 {
                None => None,
                Some(r1) => {
                    let Some(f1) = self.feats.get(&r1.frame) else {
                        return Some(Err(VrDannError::BadInput(format!(
                            "feature propagation: B-frame {display} references anchor {} outside \
                             the feature window",
                            r1.frame
                        ))));
                    };
                    Some(WarpSource {
                        feat: f1,
                        dx: r1.src_x - mv.dst_x as i32,
                        dy: r1.src_y - mv.dst_y as i32,
                    })
                }
            };
            warp_block(
                &mut out,
                mv.dst_x as usize,
                mv.dst_y as usize,
                self.mb,
                first,
                second,
            );
        }

        let mask = self.nnl.forward_head(&out);
        Some(Ok((mask, self.nnl.head_ops(self.w, self.h))))
    }

    fn evict_below(&mut self, oldest: u32) {
        self.feats = self.feats.split_off(&oldest);
    }

    fn peak_live_features(&self) -> usize {
        self.peak_feats
    }

    fn refine(&self, mask: SegMask) -> SegMask {
        mask
    }

    fn empty(&self) -> SegMask {
        SegMask::new(self.w, self.h)
    }
}
