//! Fig. 11: detection mAP of SELSA, Euphrates-2/-4 and VR-DANN, overall and
//! grouped by object speed.

use crate::context::{parallel_map, Context};
use crate::table::{fmt_score, Table};
use std::num::NonZeroUsize;
use vr_dann::baselines::{run_euphrates, run_selsa};
use vr_dann::{DetTask, DetectionRun, RunInput};
use vrd_metrics::{average_precision, FrameDetections};
use vrd_video::{Sequence, SpeedClass};

/// Key-frame intervals of the paper's Euphrates-2 and Euphrates-4.
const EUPHRATES_INTERVALS: [NonZeroUsize; 2] =
    [NonZeroUsize::new(2).unwrap(), NonZeroUsize::new(4).unwrap()];

/// mAP per speed group plus the overall mean.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GroupedMap {
    /// All sequences.
    pub overall: f64,
    /// Slow group.
    pub slow: f64,
    /// Medium group.
    pub medium: f64,
    /// Fast group.
    pub fast: f64,
}

/// The complete figure data.
#[derive(Debug, Clone)]
pub(crate) struct Fig11 {
    /// SELSA (the accuracy reference).
    pub selsa: GroupedMap,
    /// Euphrates with key interval 2.
    pub euphrates2: GroupedMap,
    /// Euphrates with key interval 4.
    pub euphrates4: GroupedMap,
    /// VR-DANN detection.
    pub vrdann: GroupedMap,
}

fn ap_of(run: &DetectionRun, seq: &Sequence) -> f64 {
    let frames: Vec<FrameDetections> = run
        .detections
        .iter()
        .zip(&seq.gt_boxes)
        .map(|(dets, gts)| FrameDetections {
            detections: dets.clone(),
            ground_truth: gts.clone(),
        })
        .collect();
    average_precision(&frames)
}

fn grouped(values: &[(SpeedClass, f64)]) -> GroupedMap {
    let mean = |class: Option<SpeedClass>| {
        let v: Vec<f64> = values
            .iter()
            .filter(|(c, _)| class.is_none_or(|cl| *c == cl))
            .map(|(_, ap)| *ap)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    GroupedMap {
        overall: mean(None),
        slow: mean(Some(SpeedClass::Slow)),
        medium: mean(Some(SpeedClass::Medium)),
        fast: mean(Some(SpeedClass::Fast)),
    }
}

/// Runs the experiment.
pub(crate) fn run(ctx: &Context) -> Fig11 {
    let suite = ctx.vid_suite();
    let det_model = ctx.detection_model();
    let results = parallel_map(&suite, |seq| {
        let encoded = det_model.encode(seq).expect("suite sequences encode");
        let vr: DetectionRun = det_model
            .run::<DetTask>(seq, RunInput::Strict(&encoded), None)
            .expect("suite sequences detect")
            .into();
        let selsa = run_selsa(seq, &encoded, 2);
        let e2 = run_euphrates(seq, &encoded, EUPHRATES_INTERVALS[0], 2);
        let e4 = run_euphrates(seq, &encoded, EUPHRATES_INTERVALS[1], 2);
        let class = seq.speed_class();
        (
            (class, ap_of(&selsa, seq)),
            (class, ap_of(&e2, seq)),
            (class, ap_of(&e4, seq)),
            (class, ap_of(&vr, seq)),
        )
    });
    Fig11 {
        selsa: grouped(&results.iter().map(|r| r.0).collect::<Vec<_>>()),
        euphrates2: grouped(&results.iter().map(|r| r.1).collect::<Vec<_>>()),
        euphrates4: grouped(&results.iter().map(|r| r.2).collect::<Vec<_>>()),
        vrdann: grouped(&results.iter().map(|r| r.3).collect::<Vec<_>>()),
    }
}

impl Fig11 {
    /// Renders the paper-style rows.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec!["scheme", "overall", "slow", "medium", "fast"]);
        for (name, g) in [
            ("SELSA", self.selsa),
            ("Euphrates-2", self.euphrates2),
            ("Euphrates-4", self.euphrates4),
            ("VR-DANN", self.vrdann),
        ] {
            t.row(vec![
                name.to_string(),
                fmt_score(g.overall),
                fmt_score(g.slow),
                fmt_score(g.medium),
                fmt_score(g.fast),
            ]);
        }
        format!(
            "Fig. 11: averaged detection mAP (VID-like suite, by object speed)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_quick_preserves_paper_ordering() {
        let fig = run(crate::context::quick());
        // SELSA is the reference; VR-DANN close; Euphrates-4 degrades.
        assert!(fig.selsa.overall > 0.6, "selsa {:.3}", fig.selsa.overall);
        assert!(
            fig.selsa.overall >= fig.vrdann.overall - 0.05,
            "vrdann {:.3} should not beat selsa {:.3} materially",
            fig.vrdann.overall,
            fig.selsa.overall
        );
        assert!(
            fig.euphrates2.overall >= fig.euphrates4.overall - 0.02,
            "euphrates-2 {:.3} vs -4 {:.3}",
            fig.euphrates2.overall,
            fig.euphrates4.overall
        );
        assert!(fig.render().contains("Euphrates-2"));
    }
}
