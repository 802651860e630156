//! The comparison schemes of the paper's evaluation: OSVOS, FAVOS, DFF
//! (segmentation) and SELSA, Euphrates (detection).
//!
//! Each baseline produces the same artefacts as the VR-DANN pipeline —
//! per-frame masks or detections plus a [`SchemeTrace`](crate::trace::SchemeTrace) — so accuracy and
//! simulated performance/energy are compared on identical footing.

use crate::engine::run_display_order;
use crate::error::Result;
use crate::trace::{ComputeKind, ConcealmentStats, SchemeKind};
use vrd_codec::EncodedVideo;
use vrd_flow::estimate;
use vrd_nn::{LargeNet, LargeNetProfile, FLOWNET_OPS_PER_PIXEL};
use vrd_video::texture::hash2;
use vrd_video::{Detection, Rect, SegMask, Sequence};

use crate::vrdann::{DetectionRun, SegmentationRun};
use std::num::NonZeroUsize;

/// Key-frame interval used by DFF: 10 frames (the fixed, arbitrarily
/// selected interval the paper criticises).
pub const DFF_KEY_INTERVAL: NonZeroUsize = NonZeroUsize::MIN.saturating_add(9);

/// A per-frame large-network scheme (shared skeleton of OSVOS / FAVOS),
/// expressed as a display-order engine configuration.
fn run_per_frame_nnl(
    seq: &Sequence,
    encoded: &EncodedVideo,
    scheme: SchemeKind,
    profile: LargeNetProfile,
    seed: u64,
) -> SegmentationRun {
    let nnl = LargeNet::new(profile);
    let (w, h) = (seq.width(), seq.height());
    let (masks, trace) = run_display_order(seq, encoded, scheme, |d, _prev: &[SegMask]| {
        (
            nnl.segment(&seq.gt_masks[d], hash2(d as i64, 10, seed)),
            ComputeKind::NnL { ops: nnl.ops(w, h) },
        )
    });
    SegmentationRun {
        masks,
        trace,
        concealment: ConcealmentStats::default(),
        peak_live_frames: seq.len(),
        peak_live_features: 0,
        peak_inflight_units: 0,
    }
}

/// OSVOS: two large networks (foreground + contour) on every decoded frame.
pub fn run_osvos(seq: &Sequence, encoded: &EncodedVideo, seed: u64) -> SegmentationRun {
    run_per_frame_nnl(
        seq,
        encoded,
        SchemeKind::Osvos,
        LargeNetProfile::osvos(),
        seed,
    )
}

/// FAVOS: part tracking + ROI-SegNet on every decoded frame. The accuracy
/// reference of Fig. 9/10 and the normalisation baseline of Figs. 12–13.
pub fn run_favos(seq: &Sequence, encoded: &EncodedVideo, seed: u64) -> SegmentationRun {
    run_per_frame_nnl(
        seq,
        encoded,
        SchemeKind::Favos,
        LargeNetProfile::favos(),
        seed,
    )
}

/// DFF: the large network on every `DFF_KEY_INTERVAL`-th frame; other frames
/// get FlowNet optical flow plus warping of the key frame's result.
pub fn run_dff(
    seq: &Sequence,
    encoded: &EncodedVideo,
    key_interval: NonZeroUsize,
    seed: u64,
) -> SegmentationRun {
    let nnl = LargeNet::new(LargeNetProfile::dff_key());
    let (w, h) = (seq.width(), seq.height());
    let flow_ops = (FLOWNET_OPS_PER_PIXEL * (w * h) as f64) as u64;

    let (masks, trace) = run_display_order(seq, encoded, SchemeKind::Dff, |d, prev| {
        if d % key_interval == 0 {
            (
                nnl.segment(&seq.gt_masks[d], hash2(d as i64, 11, seed)),
                ComputeKind::NnL { ops: nnl.ops(w, h) },
            )
        } else {
            // Sequential propagation: warp the previous frame's mask along
            // the consecutive-frame flow (small displacements match well;
            // errors accumulate with distance from the key frame, which is
            // DFF's characteristic failure mode).
            let flow = estimate(&seq.frames[d], &seq.frames[d - 1]);
            (
                flow.warp_mask(&prev[d - 1]),
                ComputeKind::FlowWarp { ops: flow_ops },
            )
        }
    });
    SegmentationRun {
        masks,
        trace,
        concealment: ConcealmentStats::default(),
        peak_live_frames: seq.len(),
        peak_live_features: 0,
        peak_inflight_units: 0,
    }
}

/// SELSA: sequence-level feature aggregation — a strong per-frame detector
/// (the detection accuracy reference of Fig. 11).
pub fn run_selsa(seq: &Sequence, encoded: &EncodedVideo, seed: u64) -> DetectionRun {
    let nnl = LargeNet::new(LargeNetProfile::selsa());
    let (w, h) = (seq.width(), seq.height());
    let (detections, trace) = run_display_order(
        seq,
        encoded,
        SchemeKind::Selsa,
        |d, _prev: &[Vec<Detection>]| {
            (
                nnl.detect(&seq.gt_boxes[d], w, h, hash2(d as i64, 12, seed)),
                ComputeKind::NnL { ops: nnl.ops(w, h) },
            )
        },
    );
    DetectionRun {
        detections,
        trace,
        concealment: ConcealmentStats::default(),
        peak_live_frames: seq.len(),
        peak_inflight_units: 0,
    }
}

/// Euphrates: the large detector on every `key_interval`-th frame; on the
/// rest, each rectangle is translated by the average motion vector inside
/// it (the paper's `Euphrates-2` / `Euphrates-4` are intervals 2 and 4).
///
/// The motion comes from dense block matching between consecutive frames —
/// the stand-in for the ISP-generated motion vectors Euphrates taps.
pub fn run_euphrates(
    seq: &Sequence,
    encoded: &EncodedVideo,
    key_interval: NonZeroUsize,
    seed: u64,
) -> DetectionRun {
    let nnl = LargeNet::new(LargeNetProfile::selsa());
    let (w, h) = (seq.width(), seq.height());

    let (detections, trace) = run_display_order(seq, encoded, SchemeKind::Euphrates, |d, prev| {
        if d % key_interval == 0 {
            (
                nnl.detect(&seq.gt_boxes[d], w, h, hash2(d as i64, 13, seed)),
                ComputeKind::NnL { ops: nnl.ops(w, h) },
            )
        } else {
            // Shift the previous frame's boxes by their mean motion.
            let flow = estimate(&seq.frames[d], &seq.frames[d - 1]);
            let moved = prev[d - 1]
                .iter()
                .map(|det| {
                    let r = det.rect.clamped(w, h);
                    let (mut sx, mut sy, mut n) = (0.0f32, 0.0f32, 0u32);
                    for y in (r.y0..r.y1).step_by(4) {
                        for x in (r.x0..r.x1).step_by(4) {
                            let (dx, dy) = flow.get(x as usize, y as usize);
                            sx += dx;
                            sy += dy;
                            n += 1;
                        }
                    }
                    // Backward flow points current -> previous, so the box
                    // moves against it.
                    let (mx, my) = if n > 0 {
                        (-(sx / n as f32), -(sy / n as f32))
                    } else {
                        (0.0, 0.0)
                    };
                    Detection::new(
                        det.rect.shifted(mx.round() as i32, my.round() as i32),
                        (det.score * 0.97).max(0.05),
                    )
                })
                .filter(|det| {
                    !det.rect
                        .intersect(&Rect::new(0, 0, w as i32, h as i32))
                        .is_empty()
                })
                .collect();
            (moved, ComputeKind::BoxShift)
        }
    });
    DetectionRun {
        detections,
        trace,
        concealment: ConcealmentStats::default(),
        peak_live_frames: seq.len(),
        peak_inflight_units: 0,
    }
}

/// Convenience: encode a sequence with the default codec settings (shared by
/// experiments that compare several schemes on one bitstream).
///
/// # Errors
/// Propagates encoder failures.
pub fn encode_default(seq: &Sequence) -> Result<EncodedVideo> {
    Ok(vrd_codec::Encoder::new(vrd_codec::CodecConfig::default()).encode(&seq.frames)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_metrics::{average_precision, score_sequence, FrameDetections};
    use vrd_video::davis::{davis_sequence, SuiteConfig};

    fn setup(name: &str) -> (Sequence, EncodedVideo) {
        let seq = davis_sequence(name, &SuiteConfig::tiny()).unwrap();
        let encoded = encode_default(&seq).unwrap();
        (seq, encoded)
    }

    #[test]
    fn favos_beats_osvos_in_accuracy() {
        let (seq, encoded) = setup("cows");
        let favos = run_favos(&seq, &encoded, 1);
        let osvos = run_osvos(&seq, &encoded, 1);
        let sf = score_sequence(&favos.masks, &seq.gt_masks);
        let so = score_sequence(&osvos.masks, &seq.gt_masks);
        assert!(
            sf.iou > so.iou,
            "favos {:.3} <= osvos {:.3}",
            sf.iou,
            so.iou
        );
        // OSVOS costs twice the ops.
        assert!(osvos.trace.total_ops() > favos.trace.total_ops());
    }

    #[test]
    fn dff_cuts_ops_but_drifts() {
        let (seq, encoded) = setup("drift-straight");
        let favos = run_favos(&seq, &encoded, 1);
        let dff = run_dff(&seq, &encoded, DFF_KEY_INTERVAL, 1);
        // FlowNet costs the same order as the backbone, so DFF saves work
        // but far from proportionally to its key interval (the paper's
        // observation that DFF is only modestly faster than FAVOS).
        assert!(dff.trace.total_ops() < favos.trace.total_ops());
        assert!(dff.trace.total_ops() > favos.trace.total_ops() / 2);
        let sf = score_sequence(&favos.masks, &seq.gt_masks);
        let sd = score_sequence(&dff.masks, &seq.gt_masks);
        assert!(
            sd.iou < sf.iou,
            "dff {:.3} should trail favos {:.3} on fast content",
            sd.iou,
            sf.iou
        );
        // But DFF still has to track the object far better than nothing.
        assert!(sd.iou > 0.3, "dff collapsed: {:.3}", sd.iou);
    }

    #[test]
    fn selsa_detects_accurately() {
        let (seq, encoded) = setup("camel");
        let run = run_selsa(&seq, &encoded, 1);
        let frames: Vec<FrameDetections> = run
            .detections
            .iter()
            .zip(&seq.gt_boxes)
            .map(|(dets, gts)| FrameDetections {
                detections: dets.clone(),
                ground_truth: gts.clone(),
            })
            .collect();
        let ap = average_precision(&frames);
        assert!(ap > 0.75, "SELSA AP too low: {ap:.3}");
    }

    #[test]
    fn euphrates_interval_trades_accuracy_for_ops() {
        let (seq, encoded) = setup("dog");
        let e2 = run_euphrates(&seq, &encoded, NonZeroUsize::new(2).unwrap(), 1);
        let e4 = run_euphrates(&seq, &encoded, NonZeroUsize::new(4).unwrap(), 1);
        assert!(e4.trace.total_ops() < e2.trace.total_ops());
        let ap = |run: &DetectionRun| {
            let frames: Vec<FrameDetections> = run
                .detections
                .iter()
                .zip(&seq.gt_boxes)
                .map(|(dets, gts)| FrameDetections {
                    detections: dets.clone(),
                    ground_truth: gts.clone(),
                })
                .collect();
            average_precision(&frames)
        };
        let (a2, a4) = (ap(&e2), ap(&e4));
        assert!(
            a2 >= a4 - 0.02,
            "interval 2 ({a2:.3}) should be at least as accurate as 4 ({a4:.3})"
        );
        assert!(a2 > 0.5, "Euphrates-2 collapsed: {a2:.3}");
    }

    #[test]
    fn traces_cover_every_frame() {
        let (seq, encoded) = setup("libby");
        for trace in [
            run_favos(&seq, &encoded, 1).trace,
            run_dff(&seq, &encoded, DFF_KEY_INTERVAL, 1).trace,
            run_euphrates(&seq, &encoded, NonZeroUsize::new(2).unwrap(), 1).trace,
        ] {
            assert_eq!(trace.frames.len(), seq.len());
            // Baselines decode everything.
            assert!(trace.frames.iter().all(|f| f.full_decode));
        }
    }
}
