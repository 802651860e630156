//! Detection accuracy: VOC-style average precision (§V-A of the paper).
//!
//! "AP score is to take the average value of the precision across all recall
//! values and mAP is the average of AP scores across all categories." Our
//! synthetic suites are single-category, so mAP here is the AP over the
//! whole suite (computed per sequence and averaged, mirroring the paper's
//! per-group reporting).

use vrd_video::{Detection, Rect};

/// The IoU threshold above which a detection counts as a true positive
/// (the ImageNet-VID convention).
pub(crate) const MATCH_IOU: f64 = 0.5;

/// One frame's detections and ground truth.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameDetections {
    /// Predicted, scored boxes.
    pub detections: Vec<Detection>,
    /// Ground-truth boxes.
    pub ground_truth: Vec<Rect>,
}

/// Computes average precision over a set of frames at IoU ≥ 0.5.
///
/// Standard VOC continuous AP: detections are globally sorted by descending
/// score, greedily matched (each ground-truth box at most once, per frame),
/// and AP is the area under the interpolated precision-recall curve.
/// Returns 1.0 when there is no ground truth and no detections. Scores are
/// ranked by [`f32::total_cmp`], so a non-finite score is ranked, not a
/// panic.
pub fn average_precision(frames: &[FrameDetections]) -> f64 {
    let total_gt: usize = frames.iter().map(|f| f.ground_truth.len()).sum();
    let total_det: usize = frames.iter().map(|f| f.detections.len()).sum();
    if total_gt == 0 {
        return if total_det == 0 { 1.0 } else { 0.0 };
    }

    // (score, frame index, detection index), globally sorted.
    let mut ranked: Vec<(f32, usize, usize)> = frames
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| {
            f.detections
                .iter()
                .enumerate()
                .map(move |(di, d)| (d.score, fi, di))
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));

    let mut matched: Vec<Vec<bool>> = frames
        .iter()
        .map(|f| vec![false; f.ground_truth.len()])
        .collect();
    let mut tp_flags = Vec::with_capacity(ranked.len());
    for &(_, fi, di) in &ranked {
        let det = &frames[fi].detections[di];
        // Best unmatched ground-truth box in the same frame.
        let mut best: Option<(usize, f64)> = None;
        for (gi, gt) in frames[fi].ground_truth.iter().enumerate() {
            if matched[fi][gi] {
                continue;
            }
            let iou = det.rect.iou(gt);
            if iou >= MATCH_IOU && best.is_none_or(|(_, b)| iou > b) {
                best = Some((gi, iou));
            }
        }
        if let Some((gi, _)) = best {
            matched[fi][gi] = true;
            tp_flags.push(true);
        } else {
            tp_flags.push(false);
        }
    }

    // Precision-recall curve and its interpolated area.
    let mut tp = 0u64;
    let mut fp = 0u64;
    let mut curve: Vec<(f64, f64)> = Vec::with_capacity(tp_flags.len());
    for &is_tp in &tp_flags {
        if is_tp {
            tp += 1;
        } else {
            fp += 1;
        }
        curve.push((tp as f64 / total_gt as f64, tp as f64 / (tp + fp) as f64));
    }
    // Monotone-decreasing interpolation of precision from the right.
    let mut max_prec = 0.0;
    for i in (0..curve.len()).rev() {
        max_prec = curve[i].1.max(max_prec);
        curve[i].1 = max_prec;
    }
    // Area under the curve over recall.
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for &(r, p) in &curve {
        ap += (r - prev_recall) * p;
        prev_recall = r;
    }
    ap
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(dets: Vec<Detection>, gts: Vec<Rect>) -> FrameDetections {
        FrameDetections {
            detections: dets,
            ground_truth: gts,
        }
    }

    #[test]
    fn perfect_detections_score_one() {
        let gt = Rect::new(10, 10, 30, 30);
        let frames = vec![frame(vec![Detection::new(gt, 0.9)], vec![gt])];
        assert!((average_precision(&frames) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn missed_ground_truth_lowers_ap() {
        let gt1 = Rect::new(0, 0, 10, 10);
        let gt2 = Rect::new(40, 40, 60, 60);
        let frames = vec![frame(vec![Detection::new(gt1, 0.9)], vec![gt1, gt2])];
        let ap = average_precision(&frames);
        assert!((ap - 0.5).abs() < 1e-9, "ap = {ap}");
    }

    #[test]
    fn false_positive_after_tp_keeps_half_then_full_precision() {
        let gt = Rect::new(0, 0, 10, 10);
        let far = Rect::new(50, 50, 60, 60);
        // High-scored correct, low-scored false positive.
        let frames = vec![frame(
            vec![Detection::new(gt, 0.9), Detection::new(far, 0.1)],
            vec![gt],
        )];
        assert!((average_precision(&frames) - 1.0).abs() < 1e-9);
        // Reversed scores: the FP comes first, pulling AP down.
        let frames = vec![frame(
            vec![Detection::new(gt, 0.1), Detection::new(far, 0.9)],
            vec![gt],
        )];
        assert!((average_precision(&frames) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn duplicate_detections_count_once() {
        let gt = Rect::new(0, 0, 10, 10);
        let frames = vec![frame(
            vec![Detection::new(gt, 0.9), Detection::new(gt, 0.8)],
            vec![gt],
        )];
        // Second duplicate is a false positive; AP stays 1.0 because recall
        // is already complete at the first detection.
        assert!((average_precision(&frames) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loose_boxes_below_threshold_do_not_match() {
        let gt = Rect::new(0, 0, 10, 10);
        let loose = Rect::new(6, 6, 16, 16); // IoU ~ 0.09
        let frames = vec![frame(vec![Detection::new(loose, 0.9)], vec![gt])];
        assert_eq!(average_precision(&frames), 0.0);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(average_precision(&[frame(vec![], vec![])]), 1.0);
        let spurious = vec![frame(
            vec![Detection::new(Rect::new(0, 0, 5, 5), 0.5)],
            vec![],
        )];
        assert_eq!(average_precision(&spurious), 0.0);
    }
}
