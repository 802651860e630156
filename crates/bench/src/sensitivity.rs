//! Sensitivity study (beyond the paper): how the headline speed-up responds
//! to the platform parameters — NPU utilisation, DRAM bandwidth and decoder
//! throughput.
//!
//! The most interesting effect is the **decoder ceiling**: once the NPU is
//! fast enough, VR-DANN-parallel saturates at the decoder's frame rate —
//! exactly the paper's §VI-B observation that VR-DANN "matches the speed of
//! the high-definition 854×480 decoder".

use crate::context::Context;
use crate::table::{fmt_x, Table};
use vrd_sim::{simulate, ExecMode, ParallelOptions, SimConfig};

/// One sweep point.
#[derive(Debug, Clone)]
pub(crate) struct SensitivityRow {
    /// Knob label.
    pub label: String,
    /// FAVOS frames/second.
    pub favos_fps: f64,
    /// VR-DANN-parallel frames/second.
    pub vrdann_fps: f64,
    /// Speed-up of VR-DANN-parallel over FAVOS.
    pub speedup: f64,
    /// Whether VR-DANN-parallel is limited by the decoder stream rather
    /// than the NPU.
    pub decoder_bound: bool,
}

/// The complete study.
#[derive(Debug, Clone)]
pub(crate) struct Sensitivity {
    /// NPU-utilisation sweep.
    pub npu: Vec<SensitivityRow>,
    /// DRAM-bandwidth sweep (scaling the burst time).
    pub dram: Vec<SensitivityRow>,
    /// Decoder-throughput sweep.
    pub decoder: Vec<SensitivityRow>,
}

fn point(ctx: &Context, label: String, sim: &SimConfig) -> SensitivityRow {
    let mut favos_ns = 0.0;
    let mut vr_ns = 0.0;
    let mut frames = 0usize;
    let mut decoder_bound = true;
    for (favos, (_, vr)) in ctx.favos().iter().zip(ctx.suite()) {
        let rf = simulate(&favos.trace, ExecMode::InOrder, sim);
        let rv = simulate(
            &vr.trace,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            sim,
        );
        favos_ns += rf.total_ns;
        vr_ns += rv.total_ns;
        frames += rv.frames;
        // Decoder-bound when the stream time dominates the NPU time.
        let decode_share = rv.total_ns - rv.npu_busy_ns - rv.switch_ns - rv.recon_stall_ns;
        decoder_bound &= decode_share > 0.5 * rv.total_ns;
    }
    SensitivityRow {
        label,
        favos_fps: frames as f64 / (favos_ns / 1e9),
        vrdann_fps: frames as f64 / (vr_ns / 1e9),
        speedup: favos_ns / vr_ns,
        decoder_bound,
    }
}

/// Runs all three sweeps.
pub(crate) fn run(ctx: &Context) -> Sensitivity {
    let base = SimConfig::default();
    let npu = [0.2, 0.41, 0.6, 0.8, 1.0]
        .into_iter()
        .map(|u| {
            let mut sim = base;
            sim.npu.utilization = u;
            point(ctx, format!("NPU util {u:.2}"), &sim)
        })
        .collect();
    let dram = [0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|k| {
            let mut sim = base;
            sim.dram.burst_ns = base.dram.burst_ns / k;
            point(ctx, format!("DRAM {k:.1}x bandwidth"), &sim)
        })
        .collect();
    let decoder = [0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|k| {
            let mut sim = base;
            sim.decoder.freq_hz = base.decoder.freq_hz * k;
            point(ctx, format!("decoder {k:.1}x speed"), &sim)
        })
        .collect();
    Sensitivity { npu, dram, decoder }
}

impl Sensitivity {
    /// Renders all three tables.
    pub(crate) fn render(&self) -> String {
        let render_one = |title: &str, rows: &[SensitivityRow]| {
            let mut t = Table::new(vec![
                "setting",
                "FAVOS fps",
                "VR-DANN fps",
                "speedup",
                "bound",
            ]);
            for r in rows {
                t.row(vec![
                    r.label.clone(),
                    format!("{:.1}", r.favos_fps),
                    format!("{:.1}", r.vrdann_fps),
                    fmt_x(r.speedup),
                    if r.decoder_bound { "decoder" } else { "NPU" }.to_string(),
                ]);
            }
            format!("{title}\n{}", t.render())
        };
        format!(
            "{}\n{}\n{}",
            render_one("Sensitivity: NPU utilisation", &self.npu),
            render_one("Sensitivity: DRAM bandwidth", &self.dram),
            render_one("Sensitivity: decoder throughput", &self.decoder),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_quick_shows_expected_monotonicity() {
        let s = run(crate::context::quick());
        // Faster NPU -> higher fps for both schemes.
        assert!(s.npu.last().unwrap().vrdann_fps > s.npu.first().unwrap().vrdann_fps);
        assert!(s.npu.last().unwrap().favos_fps > s.npu.first().unwrap().favos_fps);
        // VR-DANN always at least as fast as FAVOS.
        for row in s.npu.iter().chain(&s.dram).chain(&s.decoder) {
            assert!(row.speedup >= 1.0, "{}: {}", row.label, row.speedup);
        }
        assert!(s.render().contains("Sensitivity"));
    }
}
