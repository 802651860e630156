//! Fig. 14: DRAM access breakdown, normalised to FAVOS.

use crate::context::Context;
use crate::table::Table;
use vr_dann::SchemeTrace;
use vrd_sim::{simulate, ExecMode, ParallelOptions, TrafficBreakdown};

/// Traffic of the three schemes the paper breaks down.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Fig14 {
    /// FAVOS traffic (the 1.0 reference).
    pub favos: TrafficBreakdown,
    /// VR-DANN-serial traffic.
    pub serial: TrafficBreakdown,
    /// VR-DANN-parallel traffic.
    pub parallel: TrafficBreakdown,
}

/// Runs the experiment.
pub(crate) fn run(ctx: &Context) -> Fig14 {
    let traffic = |trace: &SchemeTrace, mode| simulate(trace, mode, &ctx.sim).traffic;
    let mut out = Fig14::default();
    for ((_, vr), favos) in ctx.suite().iter().zip(ctx.favos()) {
        out.favos.merge(&traffic(&favos.trace, ExecMode::InOrder));
        out.serial
            .merge(&traffic(&vr.trace, ExecMode::VrDannSerial));
        out.parallel.merge(&traffic(
            &vr.trace,
            ExecMode::VrDannParallel(ParallelOptions::default()),
        ));
    }
    out
}

impl Fig14 {
    /// Renders the paper-style rows (fractions of FAVOS's total).
    pub(crate) fn render(&self) -> String {
        let base = self.favos.total().max(1) as f64;
        let mut t = Table::new(vec![
            "scheme",
            "weights",
            "activations",
            "MV",
            "seg",
            "bitstream",
            "total",
        ]);
        for (name, tr) in [
            ("FAVOS", self.favos),
            ("VR-DANN-serial", self.serial),
            ("VR-DANN-parallel", self.parallel),
        ] {
            t.row(vec![
                name.to_string(),
                format!("{:.3}", tr.weights as f64 / base),
                format!("{:.3}", tr.activations as f64 / base),
                format!("{:.4}", tr.mv as f64 / base),
                format!("{:.4}", tr.seg as f64 / base),
                format!("{:.4}", tr.bitstream as f64 / base),
                format!("{:.3}", tr.total() as f64 / base),
            ]);
        }
        format!(
            "Fig. 14: DRAM access breakdown (fractions of FAVOS's total traffic)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_quick_shows_traffic_savings() {
        let fig = run(crate::context::quick());
        // VR-DANN fetches far less than FAVOS overall.
        assert!(fig.parallel.total() < fig.favos.total() * 3 / 4);
        // Parallel coalescing reads less segmentation data than serial's
        // scattered software walk.
        assert!(fig.parallel.seg < fig.serial.seg);
        // Only VR-DANN moves motion vectors.
        assert!(fig.parallel.mv > 0);
        assert_eq!(fig.favos.mv, 0);
        assert!(fig.render().contains("weights"));
    }
}
