//! Segmentation accuracy: IoU and F-score (§V-A of the paper).
//!
//! "F-Score is defined as the weighted harmonic mean of the test precision
//! and recall on a pixel level, while IoU measures the overlap rate of the
//! segmentation result and the ground truth."

use vrd_video::SegMask;

/// Pixel-level confusion counts of one mask against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PixelCounts {
    /// Foreground predicted, foreground true.
    pub tp: u64,
    /// Foreground predicted, background true.
    pub fp: u64,
    /// Background predicted, foreground true.
    pub fn_: u64,
}

impl PixelCounts {
    /// Tallies a prediction against ground truth.
    ///
    /// Word-parallel over the packed bitplanes: each 64-pixel word pair
    /// contributes three popcounts (`tp = p AND g`, `fp = p AND NOT g`,
    /// `fn = NOT p AND g`). The tail bits past each row's width are zero in
    /// both masks, so the complemented terms cannot miscount them.
    ///
    /// # Panics
    /// Panics if the masks differ in size.
    pub fn tally(pred: &SegMask, gt: &SegMask) -> Self {
        assert_eq!(pred.width(), gt.width(), "mask width mismatch");
        assert_eq!(pred.height(), gt.height(), "mask height mismatch");
        let mut c = PixelCounts::default();
        for (&p, &g) in pred.words().iter().zip(gt.words()) {
            c.tp += u64::from((p & g).count_ones());
            c.fp += u64::from((p & !g).count_ones());
            c.fn_ += u64::from((!p & g).count_ones());
        }
        c
    }

    /// Accumulates another tally (for per-sequence aggregation).
    pub fn merge(&mut self, other: &PixelCounts) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    /// Pixel precision; 1.0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Pixel recall; 1.0 when nothing was there to find.
    pub(crate) fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F-score: harmonic mean of precision and recall.
    pub fn f_score(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Intersection-over-union. An empty prediction of an empty ground truth
    /// scores 1.0.
    pub fn iou(&self) -> f64 {
        let union = self.tp + self.fp + self.fn_;
        if union == 0 {
            1.0
        } else {
            self.tp as f64 / union as f64
        }
    }
}

/// Per-sequence segmentation scores: frame-mean IoU and F-score.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegScores {
    /// Mean per-frame F-score.
    pub f_score: f64,
    /// Mean per-frame IoU.
    pub iou: f64,
}

/// Scores a predicted mask sequence against ground truth, averaging
/// per-frame metrics (the DAVIS convention).
///
/// # Panics
/// Panics if the sequences differ in length or are empty.
pub fn score_sequence(preds: &[SegMask], gts: &[SegMask]) -> SegScores {
    assert_eq!(preds.len(), gts.len(), "sequence length mismatch");
    assert!(!preds.is_empty(), "cannot score an empty sequence");
    let mut f = 0.0;
    let mut i = 0.0;
    for (p, g) in preds.iter().zip(gts) {
        let c = PixelCounts::tally(p, g);
        f += c.f_score();
        i += c.iou();
    }
    SegScores {
        f_score: f / preds.len() as f64,
        iou: i / preds.len() as f64,
    }
}

/// Retained byte-per-pixel kernels (the pre-packing semantics), kept as the
/// ground truth the word-parallel tally is property-tested and benchmarked
/// against — the same pattern as `vrd_nn::conv::reference`.
pub mod reference {
    use super::PixelCounts;
    use vrd_video::SegMask;

    /// Byte-wise confusion tally over row-major 0/1 buffers — the scalar
    /// ground truth of [`PixelCounts::tally`].
    ///
    /// # Panics
    /// Panics if the buffers differ in length.
    pub fn tally_bytes(pred: &[u8], gt: &[u8]) -> PixelCounts {
        assert_eq!(pred.len(), gt.len(), "mask buffer length mismatch");
        let mut c = PixelCounts::default();
        for (&p, &g) in pred.iter().zip(gt) {
            match (p, g) {
                (1, 1) => c.tp += 1,
                (1, 0) => c.fp += 1,
                (0, 1) => c.fn_ += 1,
                _ => {}
            }
        }
        c
    }

    /// Byte-wise tally of packed masks (expands, then counts per pixel).
    ///
    /// # Panics
    /// Panics if the masks differ in size.
    pub fn tally(pred: &SegMask, gt: &SegMask) -> PixelCounts {
        assert_eq!(pred.width(), gt.width(), "mask width mismatch");
        assert_eq!(pred.height(), gt.height(), "mask height mismatch");
        tally_bytes(&pred.to_byte_vec(), &gt.to_byte_vec())
    }
}

/// Mean of per-sequence scores (the suite averages in Fig. 10).
pub fn mean_scores(scores: &[SegScores]) -> SegScores {
    if scores.is_empty() {
        return SegScores::default();
    }
    SegScores {
        f_score: scores.iter().map(|s| s.f_score).sum::<f64>() / scores.len() as f64,
        iou: scores.iter().map(|s| s.iou).sum::<f64>() / scores.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_video::Rect;

    fn mask(r: Rect) -> SegMask {
        let mut m = SegMask::new(16, 16);
        m.fill_rect(r);
        m
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let gt = mask(Rect::new(2, 2, 10, 10));
        let c = PixelCounts::tally(&gt, &gt);
        assert_eq!(c.iou(), 1.0);
        assert_eq!(c.f_score(), 1.0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
    }

    #[test]
    fn disjoint_prediction_scores_zero() {
        let gt = mask(Rect::new(0, 0, 4, 4));
        let pred = mask(Rect::new(8, 8, 12, 12));
        let c = PixelCounts::tally(&pred, &gt);
        assert_eq!(c.iou(), 0.0);
        assert_eq!(c.f_score(), 0.0);
    }

    #[test]
    fn half_overlap_scores_half_iou() {
        let gt = mask(Rect::new(0, 0, 4, 4)); // 16 px
        let pred = mask(Rect::new(2, 0, 6, 4)); // 16 px, 8 shared
        let c = PixelCounts::tally(&pred, &gt);
        assert!((c.iou() - 8.0 / 24.0).abs() < 1e-9);
        assert!((c.f_score() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_on_empty_is_perfect() {
        let empty = SegMask::new(8, 8);
        let c = PixelCounts::tally(&empty, &empty);
        assert_eq!(c.iou(), 1.0);
        assert_eq!(c.f_score(), 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let gt = mask(Rect::new(0, 0, 4, 4));
        let mut total = PixelCounts::tally(&gt, &gt);
        total.merge(&PixelCounts::tally(&SegMask::new(16, 16), &gt));
        assert_eq!(total.tp, 16);
        assert_eq!(total.fn_, 16);
        assert!((total.recall() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sequence_scoring_averages_frames() {
        let gt = mask(Rect::new(0, 0, 4, 4));
        let preds = vec![gt.clone(), SegMask::new(16, 16)];
        let gts = vec![gt.clone(), gt];
        let s = score_sequence(&preds, &gts);
        assert!((s.iou - 0.5).abs() < 1e-9);
        let m = mean_scores(&[
            s,
            SegScores {
                f_score: 1.0,
                iou: 1.0,
            },
        ]);
        assert!((m.iou - 0.75).abs() < 1e-9);
        assert_eq!(mean_scores(&[]), SegScores::default());
    }
}
