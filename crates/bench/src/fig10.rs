//! Fig. 10: suite-averaged segmentation accuracy of OSVOS, DFF, FAVOS and
//! VR-DANN.

use crate::context::Context;
use crate::table::{fmt_score, Table};
use vr_dann::SegmentationRun;
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

/// Suite-averaged scores of one scheme's runs (suite order).
fn scheme_scores<'a>(
    ctx: &Context,
    runs: impl Iterator<Item = &'a SegmentationRun>,
) -> SchemeScores {
    let picked: Vec<(SegScores, f64)> = ctx
        .davis
        .iter()
        .zip(runs)
        .map(|(seq, run)| {
            (
                ctx.score(seq, &run.masks),
                boundary_f_sequence(&run.masks, &seq.gt_masks, CONTOUR_TOLERANCE),
            )
        })
        .collect();
    SchemeScores {
        pixel: mean_scores(&picked.iter().map(|p| p.0).collect::<Vec<_>>()),
        contour_f: picked.iter().map(|p| p.1).sum::<f64>() / picked.len().max(1) as f64,
    }
}

/// Runs the experiment.
pub(crate) fn run(ctx: &Context) -> Fig10 {
    Fig10 {
        osvos: scheme_scores(ctx, ctx.osvos().iter()),
        dff: scheme_scores(ctx, ctx.dff().iter()),
        favos: scheme_scores(ctx, ctx.favos().iter()),
        vrdann: scheme_scores(ctx, ctx.suite().iter().map(|(_, run)| run)),
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

    #[test]
    fn fig10_quick_preserves_paper_ordering() {
        let fig = run(crate::context::quick());
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
