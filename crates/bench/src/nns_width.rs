//! NN-S width design-space sweep (beyond the paper): accuracy vs compute of
//! the refinement network.
//!
//! The paper fixes NN-S at "3 layers" without exploring its width; this
//! sweep shows the knee — below some width the network cannot express the
//! boundary corrections, above it the extra MACs buy nothing — which is the
//! evidence behind this repository's default of 8 hidden channels.

use crate::context::Context;
use crate::table::{fmt_score, Table};
use vr_dann::VrDannConfig;
use vrd_metrics::SegScores;
use vrd_nn::NnS;

/// One width's result.
#[derive(Debug, Clone)]
pub(crate) struct WidthRow {
    /// Hidden channel count.
    pub hidden: usize,
    /// Trainable parameters.
    pub params: usize,
    /// Inference MACs per frame at the suite resolution.
    pub macs_per_frame: u64,
    /// Suite-mean accuracy.
    pub scores: SegScores,
}

/// The complete sweep.
#[derive(Debug, Clone)]
pub(crate) struct NnsWidth {
    /// Rows in increasing width order.
    pub rows: Vec<WidthRow>,
}

/// Runs the sweep over the given hidden widths.
pub(crate) fn run(ctx: &Context, widths: &[usize]) -> NnsWidth {
    let rows = widths
        .iter()
        .map(|&hidden| {
            let cfg = VrDannConfig {
                nns_hidden: hidden,
                ..VrDannConfig::default()
            };
            // Parameter and MAC counts depend on the width only, so an
            // untrained network of that width reports them.
            let nns = NnS::new(hidden, cfg.seed);
            WidthRow {
                hidden,
                params: nns.n_params(),
                macs_per_frame: nns.macs(ctx.suite_cfg.height, ctx.suite_cfg.width),
                scores: ctx.mean_accuracy(&ctx.evaluate(cfg)),
            }
        })
        .collect();
    NnsWidth { rows }
}

impl NnsWidth {
    /// Renders the sweep table.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec!["hidden", "params", "MMACs/frame", "F-score", "IoU"]);
        for r in &self.rows {
            t.row(vec![
                r.hidden.to_string(),
                r.params.to_string(),
                format!("{:.2}", r.macs_per_frame as f64 / 1e6),
                fmt_score(r.scores.f_score),
                fmt_score(r.scores.iou),
            ]);
        }
        format!(
            "NN-S width sweep: refinement accuracy vs compute\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_sweep_quick_shows_a_knee() {
        let sweep = run(crate::context::quick(), &[2, 8]);
        assert_eq!(sweep.rows.len(), 2);
        let narrow = &sweep.rows[0];
        let wide = &sweep.rows[1];
        assert!(wide.params > narrow.params);
        assert!(wide.macs_per_frame > narrow.macs_per_frame);
        // Wider must not be materially worse.
        assert!(
            wide.scores.iou >= narrow.scores.iou - 0.02,
            "wide {:.3} vs narrow {:.3}",
            wide.scores.iou,
            narrow.scores.iou
        );
        assert!(sweep.render().contains("MMACs"));
    }
}
