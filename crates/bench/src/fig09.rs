//! Fig. 9: per-video segmentation accuracy, FAVOS vs VR-DANN.

use crate::context::Context;
use crate::table::{fmt_score, Table};
use vrd_metrics::SegScores;

/// One video's scores.
#[derive(Debug, Clone)]
pub(crate) struct Fig09Row {
    /// Sequence name.
    pub name: String,
    /// FAVOS accuracy.
    pub favos: SegScores,
    /// VR-DANN accuracy.
    pub vrdann: SegScores,
}

/// The complete figure data.
#[derive(Debug, Clone)]
pub(crate) struct Fig09 {
    /// Per-video rows, suite order.
    pub rows: Vec<Fig09Row>,
}

/// Runs the experiment.
pub(crate) fn run(ctx: &Context) -> Fig09 {
    let rows = ctx
        .davis
        .iter()
        .zip(ctx.suite())
        .zip(ctx.favos())
        .map(|((seq, (_, vr)), favos)| Fig09Row {
            name: seq.name.clone(),
            favos: ctx.score(seq, &favos.masks),
            vrdann: ctx.score(seq, &vr.masks),
        })
        .collect();
    Fig09 { rows }
}

impl Fig09 {
    /// Renders the paper-style rows.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec![
            "video",
            "FAVOS F",
            "FAVOS IoU",
            "VR-DANN F",
            "VR-DANN IoU",
            "dIoU",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                fmt_score(r.favos.f_score),
                fmt_score(r.favos.iou),
                fmt_score(r.vrdann.f_score),
                fmt_score(r.vrdann.iou),
                format!("{:+.3}", r.vrdann.iou - r.favos.iou),
            ]);
        }
        format!(
            "Fig. 9: per-video segmentation accuracy (FAVOS vs VR-DANN)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig09_quick_matches_on_most_videos() {
        let ctx = crate::context::quick();
        let fig = run(ctx);
        assert_eq!(fig.rows.len(), ctx.davis.len());
        // VR-DANN matches FAVOS on the bulk of the suite (the paper's
        // claim), with at most a few problem videos: those trailing FAVOS by
        // more than 0.05 IoU (dramatic deformation / very fast motion).
        let problems: Vec<&str> = fig
            .rows
            .iter()
            .filter(|r| r.favos.iou - r.vrdann.iou > 0.05)
            .map(|r| r.name.as_str())
            .collect();
        assert!(
            problems.len() <= fig.rows.len() / 2,
            "too many problem videos: {problems:?}"
        );
        assert!(fig.render().contains("Fig. 9"));
    }
}
