//! Fig. 7: the execution timelines of FAVOS, VR-DANN-serial and
//! VR-DANN-parallel on one sequence, rendered as four-lane Gantt charts.
//!
//! This is the paper's schedule illustration, regenerated from the actual
//! simulator: FAVOS's wall of NN-L inferences, the serial flow's
//! switch/reconstruction bubbles interleaved with NPU work, and the
//! parallel architecture's lagged switching with reconstruction hidden in
//! the agent lane.

use crate::context::Context;
use vrd_sim::{simulate_traced, ExecMode, ParallelOptions, SimReport, Timeline};

/// One scheme's traced execution.
#[derive(Debug, Clone)]
pub(crate) struct TracedRun {
    /// Scheme label.
    pub label: String,
    /// Simulation report.
    pub report: SimReport,
    /// Recorded timeline.
    pub timeline: Timeline,
}

/// The complete figure data.
#[derive(Debug, Clone)]
pub(crate) struct Fig07 {
    /// The sequence the timelines were recorded on.
    pub sequence: String,
    /// FAVOS, VR-DANN-serial and VR-DANN-parallel, in that order.
    pub runs: Vec<TracedRun>,
}

/// Runs the experiment on the given suite sequence (by index).
pub(crate) fn run(ctx: &Context, seq_index: usize) -> Fig07 {
    let i = seq_index.min(ctx.davis.len() - 1);
    let (vr, favos) = (&ctx.suite()[i].1, &ctx.favos()[i]);
    let mut runs = Vec::new();
    for (label, trace, mode) in [
        ("FAVOS", &favos.trace, ExecMode::InOrder),
        ("VR-DANN-serial", &vr.trace, ExecMode::VrDannSerial),
        (
            "VR-DANN-parallel",
            &vr.trace,
            ExecMode::VrDannParallel(ParallelOptions::default()),
        ),
    ] {
        let (report, timeline) = simulate_traced(trace, mode, &ctx.sim);
        runs.push(TracedRun {
            label: label.to_string(),
            report,
            timeline,
        });
    }
    Fig07 {
        sequence: ctx.davis[i].name.clone(),
        runs,
    }
}

impl Fig07 {
    /// Renders the three Gantt charts on a shared time axis.
    pub(crate) fn render(&self, width: usize) -> String {
        let mut out = format!(
            "Fig. 7: execution timelines on '{}' (all charts share one time scale)\n",
            self.sequence
        );
        // Shared scale: pad every timeline to the slowest scheme's end.
        let max_end = self
            .runs
            .iter()
            .map(|r| r.report.total_ns)
            .fold(0.0f64, f64::max);
        for run in &self.runs {
            let scaled_width = ((run.report.total_ns / max_end) * width as f64).ceil() as usize;
            out.push_str(&format!(
                "\n{} — {:.2} ms, {} switches\n",
                run.label,
                run.report.total_ms(),
                run.report.switches
            ));
            out.push_str(&run.timeline.render_gantt(scaled_width.max(8)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig07_quick_shows_the_three_schedules() {
        let fig = run(crate::context::quick(), 0);
        assert_eq!(fig.runs.len(), 3);
        // Parallel fastest, FAVOS slowest.
        assert!(fig.runs[2].report.total_ns <= fig.runs[1].report.total_ns);
        assert!(fig.runs[1].report.total_ns < fig.runs[0].report.total_ns);
        // FAVOS timeline has no agent or CPU reconstruction work.
        assert_eq!(fig.runs[0].timeline.lane_busy_ns(vrd_sim::Lane::Agent), 0.0);
        assert_eq!(fig.runs[0].timeline.lane_busy_ns(vrd_sim::Lane::Cpu), 0.0);
        // Serial uses the CPU, parallel uses the agent.
        assert!(fig.runs[1].timeline.lane_busy_ns(vrd_sim::Lane::Cpu) > 0.0);
        assert!(fig.runs[2].timeline.lane_busy_ns(vrd_sim::Lane::Agent) > 0.0);
        let rendered = fig.render(100);
        assert!(rendered.contains("VR-DANN-parallel"));
        assert!(rendered.contains("NPU"));
    }
}
