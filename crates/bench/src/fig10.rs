//! Fig. 10: suite-averaged segmentation accuracy of OSVOS, DFF, FAVOS and
//! VR-DANN.

use crate::context::{parallel_map, Context};
use crate::table::{fmt_score, Table};
use vr_dann::baselines::{run_dff, run_favos, run_osvos, DFF_KEY_INTERVAL};
use vrd_metrics::{boundary_f_sequence, mean_scores, SegScores};

/// Tolerance (pixels) of the contour F-measure.
const CONTOUR_TOLERANCE: usize = 1;

/// One scheme's suite-averaged scores.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SchemeScores {
    /// Pixel-level F-score and IoU (the paper's metrics).
    pub pixel: SegScores,
    /// Contour F-measure (DAVIS's boundary metric; extra, beyond the
    /// paper): the most sensitive probe of macro-block reconstruction noise
    /// and what NN-S refinement fixes.
    pub contour_f: f64,
}

/// Averaged scores for the four schemes.
#[derive(Debug, Clone)]
pub(crate) struct Fig10 {
    /// OSVOS average.
    pub osvos: SchemeScores,
    /// DFF average.
    pub dff: SchemeScores,
    /// FAVOS average.
    pub favos: SchemeScores,
    /// VR-DANN average.
    pub vrdann: SchemeScores,
}

/// Runs the experiment.
pub(crate) fn run(ctx: &Context) -> Fig10 {
    let per_video = parallel_map(&ctx.davis, |seq| {
        let (encoded, vr) = ctx.run_vrdann(seq);
        let favos = run_favos(seq, &encoded, 1);
        let osvos = run_osvos(seq, &encoded, 1);
        let dff = run_dff(seq, &encoded, DFF_KEY_INTERVAL, 1);
        let eval = |masks: &[vrd_video::SegMask]| {
            (
                ctx.score(seq, masks),
                boundary_f_sequence(masks, &seq.gt_masks, CONTOUR_TOLERANCE),
            )
        };
        (
            eval(&osvos.masks),
            eval(&dff.masks),
            eval(&favos.masks),
            eval(&vr.masks),
        )
    });
    type Row = (
        (SegScores, f64),
        (SegScores, f64),
        (SegScores, f64),
        (SegScores, f64),
    );
    let col = |f: fn(&Row) -> (SegScores, f64)| {
        let picked: Vec<(SegScores, f64)> = per_video.iter().map(f).collect();
        SchemeScores {
            pixel: mean_scores(&picked.iter().map(|p| p.0).collect::<Vec<_>>()),
            contour_f: picked.iter().map(|p| p.1).sum::<f64>() / picked.len().max(1) as f64,
        }
    };
    Fig10 {
        osvos: col(|t| t.0),
        dff: col(|t| t.1),
        favos: col(|t| t.2),
        vrdann: col(|t| t.3),
    }
}

impl Fig10 {
    /// Renders the paper-style rows.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec!["scheme", "F-score", "IoU", "contour F"]);
        for (name, s) in [
            ("OSVOS", self.osvos),
            ("DFF", self.dff),
            ("FAVOS", self.favos),
            ("VR-DANN", self.vrdann),
        ] {
            t.row(vec![
                name.to_string(),
                fmt_score(s.pixel.f_score),
                fmt_score(s.pixel.iou),
                fmt_score(s.contour_f),
            ]);
        }
        format!(
            "Fig. 10: averaged segmentation accuracy (DAVIS-like suite)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn fig10_quick_preserves_paper_ordering() {
        let ctx = Context::new(Scale::Quick);
        let fig = run(&ctx);
        // FAVOS and VR-DANN on top, DFF/OSVOS behind.
        assert!(fig.vrdann.pixel.iou > fig.dff.pixel.iou);
        assert!(fig.vrdann.pixel.iou > fig.osvos.pixel.iou);
        assert!(fig.favos.pixel.iou >= fig.vrdann.pixel.iou - 0.02);
        // Contour F is bounded and ranks VR-DANN above the noisy OSVOS.
        for s in [fig.osvos, fig.dff, fig.favos, fig.vrdann] {
            assert!((0.0..=1.0).contains(&s.contour_f));
        }
        assert!(fig.vrdann.contour_f > fig.osvos.contour_f);
        assert!(fig.render().contains("contour F"));
    }
}
