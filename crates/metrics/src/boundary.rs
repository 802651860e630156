//! Contour (boundary) F-measure — the DAVIS `F` metric proper.
//!
//! The paper's F-score is pixel-level; DAVIS additionally evaluates contour
//! quality: precision/recall of the predicted boundary against the
//! ground-truth boundary within a small tolerance. Reconstruction noise is
//! concentrated at macro-block edges, so this metric is the most sensitive
//! probe of what NN-S refinement fixes.

use vrd_video::SegMask;

/// Extracts boundary pixels: foreground pixels with at least one
/// 4-neighbour of background (or the frame edge does not count).
fn boundary_pixels(mask: &SegMask) -> Vec<(usize, usize)> {
    let (w, h) = (mask.width(), mask.height());
    let mut out = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if mask.get(x, y) == 0 {
                continue;
            }
            let edge = (x > 0 && mask.get(x - 1, y) == 0)
                || (x + 1 < w && mask.get(x + 1, y) == 0)
                || (y > 0 && mask.get(x, y - 1) == 0)
                || (y + 1 < h && mask.get(x, y + 1) == 0);
            if edge {
                out.push((x, y));
            }
        }
    }
    out
}

/// Binary map of all pixels within `tolerance` (Chebyshev) of any point.
fn dilate(points: &[(usize, usize)], w: usize, h: usize, tolerance: usize) -> Vec<bool> {
    let mut map = vec![false; w * h];
    let t = tolerance as i64;
    for &(x, y) in points {
        for dy in -t..=t {
            for dx in -t..=t {
                let nx = x as i64 + dx;
                let ny = y as i64 + dy;
                if nx >= 0 && ny >= 0 && (nx as usize) < w && (ny as usize) < h {
                    map[ny as usize * w + nx as usize] = true;
                }
            }
        }
    }
    map
}

/// Contour F-measure of `pred` against `gt` with the given pixel tolerance.
///
/// Precision = fraction of predicted boundary pixels within `tolerance` of
/// the ground-truth boundary; recall symmetric; F = harmonic mean. Both
/// masks empty scores 1.0, only one empty scores 0.0.
///
/// # Panics
/// Panics if the masks differ in size.
pub(crate) fn boundary_f_score(pred: &SegMask, gt: &SegMask, tolerance: usize) -> f64 {
    assert_eq!(pred.width(), gt.width(), "mask width mismatch");
    assert_eq!(pred.height(), gt.height(), "mask height mismatch");
    let (w, h) = (pred.width(), pred.height());
    let bp = boundary_pixels(pred);
    let bg = boundary_pixels(gt);
    match (bp.is_empty(), bg.is_empty()) {
        (true, true) => return 1.0,
        (true, false) | (false, true) => return 0.0,
        _ => {}
    }
    let near_gt = dilate(&bg, w, h, tolerance);
    let near_pred = dilate(&bp, w, h, tolerance);
    let precision =
        bp.iter().filter(|&&(x, y)| near_gt[y * w + x]).count() as f64 / bp.len() as f64;
    let recall = bg.iter().filter(|&&(x, y)| near_pred[y * w + x]).count() as f64 / bg.len() as f64;
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// Mean contour F over a mask sequence.
///
/// # Panics
/// Panics if the sequences differ in length or are empty.
///
/// # Example
/// ```
/// use vrd_metrics::boundary_f_sequence;
/// use vrd_video::{Rect, SegMask};
///
/// let mut gt = SegMask::new(32, 32);
/// gt.fill_rect(Rect::new(8, 8, 24, 24));
/// // A one-pixel dilation is a perfect contour at tolerance 1...
/// let mut pred = SegMask::new(32, 32);
/// pred.fill_rect(Rect::new(7, 7, 25, 25));
/// let (preds, gts) = ([pred], [gt]);
/// assert_eq!(boundary_f_sequence(&preds, &gts, 1), 1.0);
/// // ...but not at tolerance 0.
/// assert!(boundary_f_sequence(&preds, &gts, 0) < 1.0);
/// ```
pub fn boundary_f_sequence(preds: &[SegMask], gts: &[SegMask], tolerance: usize) -> f64 {
    assert_eq!(preds.len(), gts.len(), "sequence length mismatch");
    assert!(!preds.is_empty(), "cannot score an empty sequence");
    preds
        .iter()
        .zip(gts)
        .map(|(p, g)| boundary_f_score(p, g, tolerance))
        .sum::<f64>()
        / preds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_video::Rect;

    fn mask(r: Rect) -> SegMask {
        let mut m = SegMask::new(32, 32);
        m.fill_rect(r);
        m
    }

    #[test]
    fn identical_masks_score_one() {
        let m = mask(Rect::new(8, 8, 24, 24));
        assert_eq!(boundary_f_score(&m, &m, 1), 1.0);
    }

    #[test]
    fn one_pixel_shift_within_tolerance_still_scores_one() {
        let a = mask(Rect::new(8, 8, 24, 24));
        let b = mask(Rect::new(9, 8, 25, 24));
        assert_eq!(boundary_f_score(&b, &a, 1), 1.0);
        // Zero tolerance punishes the same shift.
        assert!(boundary_f_score(&b, &a, 0) < 0.8);
    }

    #[test]
    fn far_shift_scores_low() {
        let a = mask(Rect::new(2, 2, 12, 12));
        let b = mask(Rect::new(18, 18, 28, 28));
        assert!(boundary_f_score(&b, &a, 2) < 0.05);
    }

    #[test]
    fn empty_cases() {
        let empty = SegMask::new(32, 32);
        let full = mask(Rect::new(2, 2, 10, 10));
        assert_eq!(boundary_f_score(&empty, &empty, 1), 1.0);
        assert_eq!(boundary_f_score(&empty, &full, 1), 0.0);
        assert_eq!(boundary_f_score(&full, &empty, 1), 0.0);
    }

    #[test]
    fn blocky_boundary_scores_below_smooth() {
        // Ground truth: a rectangle. Prediction A: same rectangle. B: the
        // rectangle with a blocky 4-pixel notch (macro-block noise).
        let gt = mask(Rect::new(8, 8, 24, 24));
        let mut blocky = gt.clone();
        for y in 8..12 {
            for x in 8..12 {
                blocky.set(x, y, 0);
            }
        }
        let smooth = boundary_f_score(&gt, &gt, 1);
        let noisy = boundary_f_score(&blocky, &gt, 1);
        assert!(noisy < smooth, "{noisy} vs {smooth}");
        assert!(noisy > 0.5, "notch should not collapse the score");
    }

    #[test]
    fn sequence_averaging() {
        let gt = mask(Rect::new(8, 8, 24, 24));
        let far = mask(Rect::new(1, 1, 4, 4));
        let f = boundary_f_sequence(&[gt.clone(), far.clone()], &[gt.clone(), gt], 1);
        assert!(f > 0.4 && f < 0.6, "mean of 1.0 and ~0.0: {f}");
    }
}
