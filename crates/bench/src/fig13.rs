//! Fig. 13: suite-averaged performance and energy of every scheme,
//! normalised to FAVOS, plus the §VI-B real-time rate (13 fps → ~40 fps).

use crate::context::Context;
use crate::table::{fmt_x, Table};
use vr_dann::baselines::run_favos;
use vr_dann::{SegmentationRun, TrainTask, VrDann, VrDannConfig};
use vrd_sim::{simulate, ExecMode, ParallelOptions, SimConfig};
use vrd_video::davis::{davis_train_suite, SuiteConfig};

/// Relative performance/energy of one scheme (FAVOS = 1.0).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Relative {
    /// FAVOS time / scheme time (higher = faster).
    pub performance: f64,
    /// FAVOS energy / scheme energy (higher = more efficient).
    pub energy: f64,
}

/// The complete figure data.
#[derive(Debug, Clone, Default)]
pub(crate) struct Fig13 {
    /// OSVOS relative to FAVOS.
    pub osvos: Relative,
    /// DFF relative to FAVOS.
    pub dff: Relative,
    /// VR-DANN-serial relative to FAVOS.
    pub serial: Relative,
    /// VR-DANN-parallel relative to FAVOS.
    pub parallel: Relative,
}

/// Runs the suite experiment.
pub(crate) fn run(ctx: &Context) -> Fig13 {
    let in_order = |run: &SegmentationRun| simulate(&run.trace, ExecMode::InOrder, &ctx.sim);
    let per_video: Vec<_> = ctx
        .suite()
        .iter()
        .zip(ctx.favos())
        .zip(ctx.osvos())
        .zip(ctx.dff())
        .map(|((((_, vr), favos), osvos), dff)| {
            let favos = in_order(favos);
            let serial = simulate(&vr.trace, ExecMode::VrDannSerial, &ctx.sim);
            let par = simulate(
                &vr.trace,
                ExecMode::VrDannParallel(ParallelOptions::default()),
                &ctx.sim,
            );
            let rel = |r: &vrd_sim::SimReport| Relative {
                performance: favos.total_ns / r.total_ns,
                energy: favos.energy.total_mj() / r.energy.total_mj(),
            };
            (
                rel(&in_order(osvos)),
                rel(&in_order(dff)),
                rel(&serial),
                rel(&par),
            )
        })
        .collect();
    let n = per_video.len().max(1) as f64;
    let mean = |f: fn(&(Relative, Relative, Relative, Relative)) -> Relative| {
        let (p, e) = per_video.iter().map(f).fold((0.0, 0.0), |acc, r| {
            (acc.0 + r.performance, acc.1 + r.energy)
        });
        Relative {
            performance: p / n,
            energy: e / n,
        }
    };
    Fig13 {
        osvos: mean(|t| t.0),
        dff: mean(|t| t.1),
        serial: mean(|t| t.2),
        parallel: mean(|t| t.3),
    }
}

/// Recognition rate at high definition: FAVOS vs VR-DANN-parallel on an
/// 864×480 sequence (the paper's "13 fps → 40 fps" result). The pipeline is
/// fully convolutional, so the 160×96-trained NN-S runs at HD directly.
pub(crate) fn fps_hd(frames: usize) -> (f64, f64, f64) {
    let cfg = SuiteConfig {
        width: 864,
        height: 480,
        frames,
        seed: 0x40f0,
    };
    let train = davis_train_suite(&SuiteConfig::default(), 4);
    let model = VrDann::train(&train, TrainTask::Segmentation, VrDannConfig::default())
        .expect("training succeeds");
    let seq = vrd_video::davis::davis_sequence("cows", &cfg).expect("HD sequence generates");
    let encoded = model.encode(&seq).expect("HD sequence encodes");
    let vr = model
        .run_segmentation(&seq, &encoded)
        .expect("HD sequence segments");
    let favos = run_favos(&seq, &encoded, 1);
    let sim = SimConfig::default();
    let r_favos = simulate(&favos.trace, ExecMode::InOrder, &sim);
    let r_par = simulate(
        &vr.trace,
        ExecMode::VrDannParallel(ParallelOptions::default()),
        &sim,
    );
    // Decoder-limited ceiling at this resolution.
    let decoder_fps = sim.decoder_ceiling_fps(cfg.width * cfg.height);
    (r_favos.fps, r_par.fps, decoder_fps)
}

impl Fig13 {
    /// Renders the paper-style rows.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec!["scheme", "performance", "energy reduction"]);
        t.row(vec!["FAVOS (baseline)", "1.00x", "1.00x"]);
        for (name, r) in [
            ("OSVOS", self.osvos),
            ("DFF", self.dff),
            ("VR-DANN-serial", self.serial),
            ("VR-DANN-parallel", self.parallel),
        ] {
            t.row(vec![
                name.to_string(),
                fmt_x(r.performance),
                fmt_x(r.energy),
            ]);
        }
        format!(
            "Fig. 13: averaged performance and energy (normalised to FAVOS).\n         VR-DANN-parallel vs OSVOS {}, vs FAVOS {}, vs DFF {}\n{}",
            fmt_x(self.parallel.performance / self.osvos.performance),
            fmt_x(self.parallel.performance),
            fmt_x(self.parallel.performance / self.dff.performance),
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_quick_preserves_paper_ordering() {
        let fig = run(crate::context::quick());
        // Paper: parallel > serial > DFF > FAVOS > OSVOS in performance.
        assert!(fig.parallel.performance > fig.serial.performance);
        assert!(fig.serial.performance > 1.0);
        assert!(fig.osvos.performance < 1.0, "OSVOS is slower than FAVOS");
        assert!(fig.parallel.performance > fig.dff.performance);
        // Energy: parallel most efficient.
        assert!(fig.parallel.energy > fig.dff.energy);
        assert!(fig.parallel.energy > 1.0);
        assert!(fig.render().contains("VR-DANN-parallel"));
    }
}
