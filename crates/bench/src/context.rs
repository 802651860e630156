//! Shared experiment context: suites, trained models and common runners.
//!
//! One invocation builds a [`Context`] at most once (training NN-S is the
//! expensive part) and every named experiment runs its sweep on it.
//! [`Scale::Quick`] shrinks the canvas, the sequence count and the training
//! set so tests and CI runs stay fast; [`Scale::Full`] is the paper-scale configuration every
//! number in `EXPERIMENTS.md` was produced with.

use vr_dann::{ComputeMode, SegmentationRun, TrainTask, VrDann, VrDannConfig};
use vrd_codec::EncodedVideo;
use vrd_metrics::{score_sequence, SegScores};
use vrd_sim::{ExecMode, ParallelOptions, SimConfig, SimReport};
use vrd_video::davis::{davis_train_suite, davis_val_suite, SuiteConfig};
use vrd_video::vid::vid_val_suite;
use vrd_video::Sequence;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale: 160×96 × 48 frames, all 20 DAVIS-like videos.
    Full,
    /// Reduced: 64×48 × 16 frames, 6 videos — for tests and smoke runs.
    Quick,
}

impl Scale {
    /// The video-suite configuration of this scale.
    pub(crate) fn suite_config(self) -> SuiteConfig {
        match self {
            Scale::Full => SuiteConfig::default(),
            Scale::Quick => SuiteConfig::tiny(),
        }
    }

    /// Training sequences for NN-S.
    pub(crate) fn train_sequences(self) -> usize {
        match self {
            Scale::Full => 6,
            Scale::Quick => 2,
        }
    }

    /// Validation sequences used by the experiment.
    pub(crate) fn val_sequences(self) -> usize {
        match self {
            Scale::Full => 20,
            Scale::Quick => 6,
        }
    }

    /// Detection sequences per speed group.
    pub(crate) fn vid_per_group(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Quick => 1,
        }
    }
}

/// Shared state across one experiment run.
pub struct Context {
    /// The experiment scale.
    pub scale: Scale,
    /// Suite generation settings.
    pub suite_cfg: SuiteConfig,
    /// Simulator settings.
    pub sim: SimConfig,
    /// The DAVIS-like validation suite.
    pub davis: Vec<Sequence>,
    /// A segmentation-trained pipeline at the default codec settings.
    pub model: VrDann,
}

impl Context {
    /// Builds the context: generates suites and trains NN-S (the slow step).
    pub fn new(scale: Scale) -> Self {
        Self::new_with(scale, ComputeMode::F32Reference)
    }

    /// [`Context::new`] with an explicit NN-S compute mode — training is
    /// mode-independent (always f32), only inference switches paths.
    pub(crate) fn new_with(scale: Scale, compute: ComputeMode) -> Self {
        let suite_cfg = scale.suite_config();
        let train = davis_train_suite(&suite_cfg, scale.train_sequences());
        let model = VrDann::train(&train, TrainTask::Segmentation, VrDannConfig::default())
            .expect("training the default pipeline succeeds")
            .with_compute(compute);
        let mut davis = davis_val_suite(&suite_cfg);
        davis.truncate(scale.val_sequences());
        Self {
            scale,
            suite_cfg,
            sim: SimConfig::default(),
            davis,
            model,
        }
    }

    /// Trains a pipeline with non-default settings (codec sweeps retrain
    /// NN-S because the motion vectors change with the encoder).
    pub(crate) fn train_variant(&self, cfg: VrDannConfig, task: TrainTask) -> VrDann {
        let train = davis_train_suite(&self.suite_cfg, self.scale.train_sequences());
        VrDann::train(&train, task, cfg).expect("training a sweep variant succeeds")
    }

    /// The VID-like detection suite of this scale.
    pub fn vid_suite(&self) -> Vec<Sequence> {
        vid_val_suite(&self.suite_cfg, self.scale.vid_per_group())
    }

    /// A detection-trained pipeline.
    pub fn detection_model(&self) -> VrDann {
        // Train on detection-style rectangle masks from a disjoint VID-like
        // set (different master seed).
        let train_cfg = SuiteConfig {
            seed: self.suite_cfg.seed ^ 0xdead,
            ..self.suite_cfg
        };
        let train = vid_val_suite(&train_cfg, self.scale.vid_per_group());
        VrDann::train(&train, TrainTask::Detection, VrDannConfig::default())
            .expect("training the detection pipeline succeeds")
    }

    /// Runs VR-DANN segmentation on one sequence (encoding included).
    pub(crate) fn run_vrdann(&self, seq: &Sequence) -> (EncodedVideo, SegmentationRun) {
        let encoded = self.model.encode(seq).expect("suite sequences encode");
        let run = self
            .model
            .run_segmentation(seq, &encoded)
            .expect("suite sequences segment");
        (encoded, run)
    }

    /// Runs VR-DANN segmentation over a whole suite as one batch through
    /// the pipeline's multi-sequence serving entry point
    /// ([`VrDann::run_segmentation_batch`]). Results are in suite order and
    /// identical to per-sequence [`Context::run_vrdann`] calls.
    pub(crate) fn run_vrdann_batch(
        &self,
        seqs: &[Sequence],
    ) -> Vec<(EncodedVideo, SegmentationRun)> {
        let encoded: Vec<EncodedVideo> = parallel_map(seqs, |seq| {
            self.model.encode(seq).expect("suite sequences encode")
        });
        let jobs: Vec<(&Sequence, &EncodedVideo)> = seqs.iter().zip(encoded.iter()).collect();
        let runs = self.model.run_segmentation_batch(&jobs);
        encoded
            .into_iter()
            .zip(runs)
            .map(|(e, r)| (e, r.expect("suite sequences segment")))
            .collect()
    }

    /// Simulates a trace on the default parallel architecture (fed through
    /// the streaming scheduler entry point).
    pub(crate) fn sim_parallel(&self, trace: &vr_dann::SchemeTrace) -> SimReport {
        vrd_sim::simulate_stream(
            trace.frames.iter(),
            trace.scheme,
            trace.width,
            trace.height,
            trace.mb_size,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &self.sim,
        )
    }

    /// Simulates a trace in order (baselines), fed through the streaming
    /// scheduler entry point.
    pub(crate) fn sim_in_order(&self, trace: &vr_dann::SchemeTrace) -> SimReport {
        vrd_sim::simulate_stream(
            trace.frames.iter(),
            trace.scheme,
            trace.width,
            trace.height,
            trace.mb_size,
            ExecMode::InOrder,
            &self.sim,
        )
    }

    /// Scores a mask sequence against ground truth.
    pub fn score(&self, seq: &Sequence, masks: &[vrd_video::SegMask]) -> SegScores {
        score_sequence(masks, &seq.gt_masks)
    }
}

// The scoped-thread map the experiments fan out with now lives in the
// shared runtime crate; re-exported so experiment modules keep their
// `crate::context::parallel_map` imports.
pub(crate) use vrd_runtime::parallel_map;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_builds_and_runs() {
        let ctx = Context::new(Scale::Quick);
        assert_eq!(ctx.davis.len(), 6);
        let (encoded, run) = ctx.run_vrdann(&ctx.davis[0]);
        assert_eq!(run.masks.len(), ctx.davis[0].len());
        assert!(encoded.stats.b_frames > 0);
        let report = ctx.sim_parallel(&run.trace);
        assert!(report.fps > 0.0);
        let scores = ctx.score(&ctx.davis[0], &run.masks);
        assert!(scores.iou > 0.3);
    }
}
