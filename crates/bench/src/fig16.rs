//! Fig. 16: segmentation accuracy and execution time as a function of the
//! reference search interval `n`.

use crate::context::Context;
use crate::fig15::{sweep_point, Fig15Row};
use crate::table::{fmt_score, fmt_x, Table};
use vrd_codec::{CodecConfig, SearchInterval};

/// The complete figure data.
#[derive(Debug, Clone)]
pub(crate) struct Fig16 {
    /// Sweep rows for n = 1, 3, 5, 7, 9 and auto.
    pub rows: Vec<Fig15Row>,
}

/// Runs the sweep.
pub(crate) fn run(ctx: &Context) -> Fig16 {
    let base = CodecConfig::default();
    let mut rows: Vec<Fig15Row> = [1u8, 3, 5, 7, 9]
        .into_iter()
        .map(|n| {
            sweep_point(
                ctx,
                &format!("n = {n}"),
                CodecConfig {
                    search_interval: SearchInterval::Fixed(n),
                    ..base
                },
            )
        })
        .collect();
    rows.push(sweep_point(ctx, "auto n", base));
    Fig16 { rows }
}

impl Fig16 {
    /// Renders the paper-style rows.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec![
            "setting",
            "F-score",
            "IoU",
            "speedup vs FAVOS",
            "recon stall (us)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                fmt_score(r.scores.f_score),
                fmt_score(r.scores.iou),
                fmt_x(r.speedup),
                format!("{:.1}", r.recon_stall_us),
            ]);
        }
        format!(
            "Fig. 16: accuracy and performance vs the search interval n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_quick_larger_n_does_not_hurt_accuracy() {
        let fig = run(crate::context::quick());
        assert_eq!(fig.rows.len(), 6);
        let n1 = &fig.rows[0];
        let n7 = &fig.rows[3];
        // Larger n: at least comparable accuracy (more references to match).
        assert!(
            n7.scores.iou >= n1.scores.iou - 0.03,
            "n=7 {:.3} much worse than n=1 {:.3}",
            n7.scores.iou,
            n1.scores.iou
        );
        assert!(fig.render().contains("auto n"));
    }
}
