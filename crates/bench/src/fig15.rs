//! Fig. 15: segmentation accuracy and execution time as a function of the
//! B-frame ratio (the `-b` encoder override vs "auto B ratio").

use crate::context::{parallel_map, Context};
use crate::table::{fmt_pct, fmt_score, fmt_x, Table};
use std::borrow::Cow;
use vr_dann::baselines::run_favos;
use vr_dann::{SegmentationRun, VrDannConfig};
use vrd_codec::{BFrameMode, CodecConfig};
use vrd_metrics::SegScores;
use vrd_sim::{simulate, ExecMode, ParallelOptions};

/// One sweep point.
#[derive(Debug, Clone)]
pub(crate) struct Fig15Row {
    /// Human-readable setting label.
    pub label: String,
    /// Achieved mean B-frame ratio.
    pub b_ratio: f64,
    /// Mean accuracy.
    pub scores: SegScores,
    /// Mean speed-up of VR-DANN-parallel over FAVOS.
    pub speedup: f64,
    /// Mean time the NPU stalled waiting for B-frame reconstruction, in
    /// microseconds per sequence. End-to-end time is insensitive to the
    /// memory-access dispersion of large `n` while reconstruction hides
    /// under NPU compute; this column shows where that headroom goes
    /// (the onset of the paper's n = 9 efficiency drop).
    pub recon_stall_us: f64,
}

/// The complete figure data.
#[derive(Debug, Clone)]
pub(crate) struct Fig15 {
    /// Sweep rows in increasing-B order, auto last.
    pub rows: Vec<Fig15Row>,
}

/// Evaluates one codec configuration over the suite (shared by the
/// Fig. 15/16/17 sweeps).
pub(crate) fn sweep_point(ctx: &Context, label: &str, codec: CodecConfig) -> Fig15Row {
    let runs = ctx.evaluate(VrDannConfig {
        codec,
        ..VrDannConfig::default()
    });
    // FAVOS runs on this point's bitstreams; the default point's are the
    // suite's, whose FAVOS runs are cached.
    let favos: Cow<'_, [SegmentationRun]> = match &runs {
        Cow::Borrowed(_) => Cow::Borrowed(ctx.favos()),
        Cow::Owned(runs) => {
            let jobs: Vec<_> = ctx.davis.iter().zip(runs).collect();
            Cow::Owned(parallel_map(&jobs, |(seq, (encoded, _))| {
                run_favos(seq, encoded, 1)
            }))
        }
    };
    let results: Vec<_> = runs
        .iter()
        .zip(favos.iter())
        .map(|((encoded, vr), favos)| {
            let favos = simulate(&favos.trace, ExecMode::InOrder, &ctx.sim);
            let par = simulate(
                &vr.trace,
                ExecMode::VrDannParallel(ParallelOptions::default()),
                &ctx.sim,
            );
            (
                encoded.stats.b_ratio(),
                favos.total_ns / par.total_ns,
                par.recon_stall_ns / 1e3,
            )
        })
        .collect();
    let n = results.len().max(1) as f64;
    Fig15Row {
        label: label.to_string(),
        b_ratio: results.iter().map(|r| r.0).sum::<f64>() / n,
        scores: ctx.mean_accuracy(&runs),
        speedup: results.iter().map(|r| r.1).sum::<f64>() / n,
        recon_stall_us: results.iter().map(|r| r.2).sum::<f64>() / n,
    }
}

/// Runs the sweep.
pub(crate) fn run(ctx: &Context) -> Fig15 {
    let base = CodecConfig::default();
    let rows = vec![
        sweep_point(
            ctx,
            "B run 1 (~50%)",
            CodecConfig {
                b_frames: BFrameMode::Fixed(1),
                ..base
            },
        ),
        sweep_point(
            ctx,
            "B run 2 (~67%)",
            CodecConfig {
                b_frames: BFrameMode::Fixed(2),
                ..base
            },
        ),
        sweep_point(
            ctx,
            "B run 3 (~75%)",
            CodecConfig {
                b_frames: BFrameMode::Fixed(3),
                ..base
            },
        ),
        sweep_point(ctx, "auto B ratio", base),
    ];
    Fig15 { rows }
}

impl Fig15 {
    /// Renders the paper-style rows.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec![
            "setting",
            "B ratio",
            "F-score",
            "IoU",
            "speedup vs FAVOS",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                fmt_pct(r.b_ratio),
                fmt_score(r.scores.f_score),
                fmt_score(r.scores.iou),
                fmt_x(r.speedup),
            ]);
        }
        format!(
            "Fig. 15: accuracy and performance vs the B-frame ratio\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_quick_trades_accuracy_for_speed() {
        let fig = run(crate::context::quick());
        assert_eq!(fig.rows.len(), 4);
        let b1 = &fig.rows[0];
        let b3 = &fig.rows[2];
        // More B-frames = faster...
        assert!(b3.speedup > b1.speedup, "{} vs {}", b3.speedup, b1.speedup);
        assert!(b3.b_ratio > b1.b_ratio);
        // ... but not more accurate.
        assert!(b3.scores.iou <= b1.scores.iou + 0.02);
        assert!(fig.render().contains("auto B ratio"));
    }
}
