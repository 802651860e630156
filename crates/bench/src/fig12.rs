//! Fig. 12: per-video execution cycles (normalised to FAVOS) and NPU
//! operations per frame.

use crate::context::Context;
use crate::table::{fmt_x, Table};
use vrd_sim::{simulate, ExecMode, ParallelOptions};

/// One video's timing results.
#[derive(Debug, Clone)]
pub(crate) struct Fig12Row {
    /// Sequence name.
    pub name: String,
    /// B-frame ratio of this encode (explains the per-video variance).
    pub b_ratio: f64,
    /// FAVOS time / VR-DANN-serial time.
    pub serial_speedup: f64,
    /// FAVOS time / VR-DANN-parallel time.
    pub parallel_speedup: f64,
    /// FAVOS mean TOPS per frame.
    pub favos_tops: f64,
    /// VR-DANN mean TOPS per frame.
    pub vrdann_tops: f64,
}

/// The complete figure data.
#[derive(Debug, Clone)]
pub(crate) struct Fig12 {
    /// Per-video rows.
    pub rows: Vec<Fig12Row>,
}

/// Runs the experiment.
pub(crate) fn run(ctx: &Context) -> Fig12 {
    let rows = ctx
        .davis
        .iter()
        .zip(ctx.suite())
        .zip(ctx.favos())
        .map(|((seq, (encoded, vr)), favos)| {
            let r_favos = simulate(&favos.trace, ExecMode::InOrder, &ctx.sim);
            let r_serial = simulate(&vr.trace, ExecMode::VrDannSerial, &ctx.sim);
            let r_par = simulate(
                &vr.trace,
                ExecMode::VrDannParallel(ParallelOptions::default()),
                &ctx.sim,
            );
            Fig12Row {
                name: seq.name.clone(),
                b_ratio: encoded.stats.b_ratio(),
                serial_speedup: r_favos.total_ns / r_serial.total_ns,
                parallel_speedup: r_favos.total_ns / r_par.total_ns,
                favos_tops: favos.trace.tops_per_frame(),
                vrdann_tops: vr.trace.tops_per_frame(),
            }
        })
        .collect();
    Fig12 { rows }
}

impl Fig12 {
    /// Mean parallel speed-up over the suite.
    pub(crate) fn mean_parallel_speedup(&self) -> f64 {
        self.rows.iter().map(|r| r.parallel_speedup).sum::<f64>() / self.rows.len().max(1) as f64
    }

    /// Mean drop in TOPS per frame (the paper reports ~60%).
    pub(crate) fn mean_ops_drop(&self) -> f64 {
        let favos: f64 = self.rows.iter().map(|r| r.favos_tops).sum();
        let vrdann: f64 = self.rows.iter().map(|r| r.vrdann_tops).sum();
        1.0 - vrdann / favos
    }

    /// Renders the paper-style rows.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec![
            "video",
            "B ratio",
            "serial speedup",
            "parallel speedup",
            "FAVOS TOPS/frame",
            "VR-DANN TOPS/frame",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                format!("{:.0}%", r.b_ratio * 100.0),
                fmt_x(r.serial_speedup),
                fmt_x(r.parallel_speedup),
                format!("{:.4}", r.favos_tops),
                format!("{:.4}", r.vrdann_tops),
            ]);
        }
        format!(
            "Fig. 12: per-video execution time (normalised to FAVOS) and ops\n{}\nmean parallel speedup: {} | ops drop: {:.0}%\n",
            t.render(),
            fmt_x(self.mean_parallel_speedup()),
            self.mean_ops_drop() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_quick_shows_b_ratio_driven_speedups() {
        let ctx = crate::context::quick();
        let fig = run(ctx);
        assert_eq!(fig.rows.len(), ctx.davis.len());
        for r in &fig.rows {
            assert!(
                r.parallel_speedup >= r.serial_speedup * 0.99,
                "{}: parallel {} < serial {}",
                r.name,
                r.parallel_speedup,
                r.serial_speedup
            );
            assert!(r.parallel_speedup >= 1.0, "{} slower than FAVOS", r.name);
            assert!(r.vrdann_tops < r.favos_tops);
        }
        // Ops drop in the paper's ballpark (~60%, ours tracks the B ratio).
        assert!(fig.mean_ops_drop() > 0.2, "{}", fig.mean_ops_drop());
        assert!(fig.render().contains("speedup"));
    }
}
