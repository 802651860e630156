//! Fig. 17: segmentation accuracy under H.264 vs H.265 encoding.

use crate::context::Context;
use crate::fig15::{sweep_point, Fig15Row};
use crate::table::{fmt_score, Table};
use vrd_codec::{CodecConfig, Standard};

/// The complete figure data.
#[derive(Debug, Clone)]
pub(crate) struct Fig17 {
    /// H.264 (16-pixel macro-blocks) result.
    pub h264: Fig15Row,
    /// H.265 (8-pixel macro-blocks) result.
    pub h265: Fig15Row,
}

/// Runs the comparison.
pub(crate) fn run(ctx: &Context) -> Fig17 {
    let base = CodecConfig::default();
    Fig17 {
        h264: sweep_point(
            ctx,
            "H.264",
            CodecConfig {
                standard: Standard::H264,
                ..base
            },
        ),
        h265: sweep_point(
            ctx,
            "H.265",
            CodecConfig {
                standard: Standard::H265,
                ..base
            },
        ),
    }
}

impl Fig17 {
    /// Renders the paper-style rows.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec!["standard", "F-score", "IoU"]);
        for r in [&self.h264, &self.h265] {
            t.row(vec![
                r.label.clone(),
                fmt_score(r.scores.f_score),
                fmt_score(r.scores.iou),
            ]);
        }
        format!(
            "Fig. 17: segmentation accuracy by encoding standard\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_quick_h265_at_least_as_accurate() {
        let fig = run(crate::context::quick());
        // The paper: H.265's finer macro-blocks reconstruct boundaries
        // better than H.264's 16-pixel blocks.
        assert!(
            fig.h265.scores.iou >= fig.h264.scores.iou - 0.01,
            "H.265 {:.3} should not trail H.264 {:.3}",
            fig.h265.scores.iou,
            fig.h264.scores.iou
        );
        assert!(fig.render().contains("H.264"));
    }
}
