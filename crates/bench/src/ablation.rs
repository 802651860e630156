//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! Accuracy ablations (algorithm side): NN-S refinement on/off, sandwich
//! vs reconstruction-only input, bi-reference mean filter on/off.
//! Architecture ablations (hardware side): MV coalescing, lagged queue
//! switching, number of `tmp_B` buffers.

use crate::context::Context;
use crate::table::{fmt_score, fmt_x, Table};
use vr_dann::{ReconConfig, VrDannConfig};
use vrd_metrics::SegScores;
use vrd_sim::{simulate, ExecMode, ParallelOptions};

/// One accuracy-ablation row.
#[derive(Debug, Clone)]
pub(crate) struct AccuracyRow {
    /// Variant label.
    pub label: String,
    /// Mean accuracy over the suite.
    pub scores: SegScores,
}

/// One architecture-ablation row.
#[derive(Debug, Clone)]
pub(crate) struct ArchRow {
    /// Variant label.
    pub label: String,
    /// Mean time relative to the full architecture (1.0 = full, >1 slower).
    pub relative_time: f64,
    /// Mean model switches per sequence.
    pub switches: f64,
}

/// The complete ablation data.
#[derive(Debug, Clone)]
pub(crate) struct Ablation {
    /// Algorithm-side rows.
    pub accuracy: Vec<AccuracyRow>,
    /// Architecture-side rows.
    pub architecture: Vec<ArchRow>,
}

fn accuracy_of(ctx: &Context, label: &str, cfg: VrDannConfig) -> AccuracyRow {
    AccuracyRow {
        label: label.to_string(),
        scores: ctx.mean_accuracy(&ctx.evaluate(cfg)),
    }
}

/// Runs both ablation families.
pub(crate) fn run(ctx: &Context) -> Ablation {
    let base = VrDannConfig::default();
    let accuracy = vec![
        accuracy_of(ctx, "full VR-DANN", base),
        accuracy_of(
            ctx,
            "no NN-S refinement",
            VrDannConfig {
                refine: false,
                ..base
            },
        ),
        accuracy_of(
            ctx,
            "no sandwich (recon-only input)",
            VrDannConfig {
                sandwich: false,
                ..base
            },
        ),
        accuracy_of(
            ctx,
            "no mean filter (first ref wins)",
            VrDannConfig {
                recon: ReconConfig { mean_filter: false },
                ..base
            },
        ),
        accuracy_of(
            ctx,
            "adaptive fallback (p90 |mv| > 3px)",
            VrDannConfig {
                fallback_mv_threshold: Some(3.0),
                ..base
            },
        ),
    ];

    // Architecture: the default model's suite traces.
    let traces: Vec<_> = ctx.suite().iter().map(|(_, run)| &run.trace).collect();
    let variants: Vec<(&str, ParallelOptions)> = vec![
        ("full architecture", ParallelOptions::default()),
        (
            "no coalescing",
            ParallelOptions {
                coalesce: false,
                ..ParallelOptions::default()
            },
        ),
        (
            "no lagged switching",
            ParallelOptions {
                lagged_switching: false,
                ..ParallelOptions::default()
            },
        ),
        (
            "1 tmp_B buffer",
            ParallelOptions {
                tmp_b_buffers: Some(1),
                ..ParallelOptions::default()
            },
        ),
        (
            "2 tmp_B buffers",
            ParallelOptions {
                tmp_b_buffers: Some(2),
                ..ParallelOptions::default()
            },
        ),
        (
            "4 tmp_B buffers",
            ParallelOptions {
                tmp_b_buffers: Some(4),
                ..ParallelOptions::default()
            },
        ),
    ];
    let full_time: f64 = traces
        .iter()
        .map(|t| {
            simulate(
                t,
                ExecMode::VrDannParallel(ParallelOptions::default()),
                &ctx.sim,
            )
            .total_ns
        })
        .sum();
    let architecture = variants
        .into_iter()
        .map(|(label, opts)| {
            let (time, switches) = traces
                .iter()
                .map(|t| {
                    let r = simulate(t, ExecMode::VrDannParallel(opts), &ctx.sim);
                    (r.total_ns, r.switches)
                })
                .fold((0.0, 0usize), |acc, r| (acc.0 + r.0, acc.1 + r.1));
            ArchRow {
                label: label.to_string(),
                relative_time: time / full_time,
                switches: switches as f64 / traces.len() as f64,
            }
        })
        .collect();

    Ablation {
        accuracy,
        architecture,
    }
}

impl Ablation {
    /// Renders both tables.
    pub(crate) fn render(&self) -> String {
        let mut a = Table::new(vec!["algorithm variant", "F-score", "IoU"]);
        for r in &self.accuracy {
            a.row(vec![
                r.label.clone(),
                fmt_score(r.scores.f_score),
                fmt_score(r.scores.iou),
            ]);
        }
        let mut b = Table::new(vec![
            "architecture variant",
            "relative time",
            "switches/seq",
        ]);
        for r in &self.architecture {
            b.row(vec![
                r.label.clone(),
                fmt_x(r.relative_time),
                format!("{:.1}", r.switches),
            ]);
        }
        format!(
            "Ablation A: algorithm design choices (accuracy)\n{}\nAblation B: architecture design choices (performance)\n{}",
            a.render(),
            b.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_quick_show_each_mechanism_matters() {
        let ab = run(crate::context::quick());
        let iou = |label: &str| {
            ab.accuracy
                .iter()
                .find(|r| r.label.contains(label))
                .map(|r| r.scores.iou)
                .expect("row exists")
        };
        // Refinement must help (that is the point of NN-S).
        assert!(iou("full") >= iou("no NN-S") - 0.005);
        let rel = |label: &str| {
            ab.architecture
                .iter()
                .find(|r| r.label.contains(label))
                .map(|r| r.relative_time)
                .expect("row exists")
        };
        assert!((rel("full architecture") - 1.0).abs() < 1e-9);
        assert!(rel("no coalescing") >= 1.0);
        assert!(rel("no lagged switching") > 1.0);
        // Three buffers suffice: a fourth gains nothing (paper §IV-C).
        assert!(rel("4 tmp_B") <= 1.001);
    }
}
