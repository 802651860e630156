//! Per-frame DRAM traffic accounting (the inputs to Fig. 14).
//!
//! The per-pixel and per-record constants live here; this module applies
//! them to a trace frame. The B-frame *segmentation* traffic (the
//! coalesced or scattered reference fetches) is measured by the agent-unit
//! model at simulation time and added there — this module covers the
//! statically known part.

use crate::cost::NNS_WEIGHT_BYTES;
use crate::report::TrafficBreakdown;
use vr_dann::{ComputeKind, TraceFrame};
use vrd_nn::{FEATURE_CHANNELS, FEATURE_STRIDE, NNL_HEAD_FRACTION};

/// NN-L weight traffic per inference, in bytes per pixel of the frame
/// (≈16 MB per 854×480 inference: the tiled weight working set streamed
/// from DRAM).
const NNL_WEIGHT_BYTES_PER_PIXEL: f64 = 39.0;
/// NN-L intermediate-activation spill traffic, in bytes per pixel (feature
/// maps that do not fit the 8 MB buffer).
const NNL_ACTIVATION_BYTES_PER_PIXEL: f64 = 60.0;
/// Bytes of one motion-vector record in DRAM (mv_T entry: ~8 B packed).
const MV_RECORD_BYTES: usize = 8;

/// Statically known traffic of one frame (everything except the agent
/// unit's measured reconstruction fetches).
pub(crate) fn frame_traffic(f: &TraceFrame, width: usize, height: usize) -> TrafficBreakdown {
    let px = (width * height) as u64;
    let mut t = TrafficBreakdown {
        bitstream: f.bitstream_bytes as u64,
        ..TrafficBreakdown::default()
    };
    if f.full_decode {
        // The decoder writes the raw 24-bit frame to DRAM.
        t.activations += 3 * px;
    }
    match &f.kind {
        ComputeKind::NnL { .. } => {
            t.weights += (NNL_WEIGHT_BYTES_PER_PIXEL * px as f64) as u64;
            // Raw frame read back + spilled feature maps + result write.
            t.activations += 3 * px + (NNL_ACTIVATION_BYTES_PER_PIXEL * px as f64) as u64;
            t.seg += px / 8;
        }
        ComputeKind::FlowWarp { .. } => {
            // FlowNet: two raw frames in, a flow field out, plus the warp's
            // mask read/write. Weights/activations scaled to FlowNet's
            // share of the large network.
            t.weights += (0.5 * NNL_WEIGHT_BYTES_PER_PIXEL * px as f64) as u64;
            t.activations += 6 * px + (0.6 * NNL_ACTIVATION_BYTES_PER_PIXEL * px as f64) as u64;
            t.seg += px / 4;
        }
        ComputeKind::NnSRefine { mvs, .. } => {
            t.weights += NNS_WEIGHT_BYTES as u64;
            t.mv += (mvs.len() * MV_RECORD_BYTES) as u64;
            // Sandwich read (two 1-bit masks + the 2-bit plane) and the
            // refined 1-bit result write.
            t.activations += px / 8 * 2 + px / 4;
            t.seg += px / 8;
        }
        ComputeKind::BoxShift => {
            // A handful of rectangle coordinates — negligible.
        }
        ComputeKind::FeatHead { mvs, .. } => {
            // Feature propagation: the head's share of the large-model
            // weights, the MV records driving the warp, and the feature
            // maps themselves — read up to two cached anchor maps, write
            // the warped one (f32 cells at the backbone's stride), then
            // the head's activation spill and the 1-bit result.
            let feat_bytes = (px as f64 / (FEATURE_STRIDE * FEATURE_STRIDE) as f64
                * FEATURE_CHANNELS as f64
                * 4.0) as u64;
            t.weights += (NNL_HEAD_FRACTION * NNL_WEIGHT_BYTES_PER_PIXEL * px as f64) as u64;
            t.mv += (mvs.len() * MV_RECORD_BYTES) as u64;
            t.activations += 3 * feat_bytes
                + (NNL_HEAD_FRACTION * NNL_ACTIVATION_BYTES_PER_PIXEL * px as f64) as u64;
            t.seg += px / 8;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_codec::FrameType;

    fn frame(kind: ComputeKind, full_decode: bool) -> TraceFrame {
        TraceFrame {
            display: 0,
            ftype: FrameType::I,
            kind,
            full_decode,
            bitstream_bytes: 1000,
        }
    }

    #[test]
    fn nnl_frame_dominated_by_weights_and_activations() {
        let t = frame_traffic(&frame(ComputeKind::NnL { ops: 1 }, true), 854, 480);
        let px = 854 * 480;
        assert_eq!(t.weights, (39.0 * px as f64) as u64);
        assert!(t.activations > t.weights); // 60 B/px spill + raw frames
        assert_eq!(t.bitstream, 1000);
        assert!(t.total() > 30_000_000, "NN-L frame ~40 MB: {}", t.total());
    }

    #[test]
    fn b_frame_traffic_is_tiny_by_comparison() {
        let nnl = frame_traffic(&frame(ComputeKind::NnL { ops: 1 }, true), 854, 480);
        let b = frame_traffic(
            &frame(
                ComputeKind::NnSRefine {
                    ops: 1,
                    mvs: vec![],
                },
                false,
            ),
            854,
            480,
        );
        assert!(
            (b.total() as f64) < 0.02 * nnl.total() as f64,
            "B-frame {} vs NN-L {}",
            b.total(),
            nnl.total()
        );
        // No raw pixels for B-frames: that is the headline saving.
        assert_eq!(b.weights, 1024);
    }

    #[test]
    fn feat_head_sits_between_nns_and_nnl() {
        let (w, h) = (854, 480);
        let nnl = frame_traffic(&frame(ComputeKind::NnL { ops: 1 }, true), w, h);
        let nns = frame_traffic(
            &frame(
                ComputeKind::NnSRefine {
                    ops: 1,
                    mvs: vec![],
                },
                false,
            ),
            w,
            h,
        );
        let head = frame_traffic(
            &frame(
                ComputeKind::FeatHead {
                    ops: 1,
                    mvs: vec![],
                },
                false,
            ),
            w,
            h,
        );
        // The head moves a quarter of the weights and real feature maps —
        // far more than NN-S, far less than a full NN-L pass.
        assert!(head.total() > 5 * nns.total());
        assert!(head.total() < nnl.total() / 2);
        // No raw pixels: propagation never decodes B-frame pixels.
        let px = (w * h) as u64;
        assert_eq!(
            head.weights,
            (NNL_HEAD_FRACTION * NNL_WEIGHT_BYTES_PER_PIXEL * px as f64) as u64
        );
    }

    #[test]
    fn box_shift_costs_only_bitstream() {
        let t = frame_traffic(&frame(ComputeKind::BoxShift, true), 160, 96);
        // Full decode still writes the raw frame.
        assert_eq!(t.total(), 1000 + 3 * 160 * 96);
    }
}
