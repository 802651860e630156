//! Shared experiment context: suites, the trained model and the suite's
//! runs.
//!
//! One invocation builds a [`Context`] at most once (training NN-S is the
//! expensive part) and every named experiment runs its sweep on it. The
//! context also evaluates the suite at most once: VR-DANN under the default
//! model and the FAVOS, OSVOS and DFF baselines on the same bitstreams are
//! each run on first use and read by every figure afterwards, and the
//! default configuration is never retrained. [`Scale::Quick`] shrinks the
//! canvas, the sequence count and the training set so tests and CI runs stay
//! fast; [`Scale::Full`] is the paper-scale configuration every number in
//! `EXPERIMENTS.md` was produced with.

use std::borrow::Cow;
use std::sync::OnceLock;
use vr_dann::baselines::{run_dff, run_favos, run_osvos, DFF_KEY_INTERVAL};
use vr_dann::{SegmentationRun, TrainTask, VrDann, VrDannConfig};
use vrd_codec::EncodedVideo;
use vrd_metrics::{mean_scores, score_sequence, SegScores};
use vrd_sim::SimConfig;
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

/// One suite sequence's bitstream and the VR-DANN run over it.
pub(crate) type Evaluated = (EncodedVideo, SegmentationRun);

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
    suite: OnceLock<Vec<Evaluated>>,
    favos: OnceLock<Vec<SegmentationRun>>,
    osvos: OnceLock<Vec<SegmentationRun>>,
    dff: OnceLock<Vec<SegmentationRun>>,
}

impl Context {
    /// Builds the context: generates suites and trains NN-S (the slow step).
    pub fn new(scale: Scale) -> Self {
        let suite_cfg = scale.suite_config();
        let train = davis_train_suite(&suite_cfg, scale.train_sequences());
        let model = VrDann::train(&train, TrainTask::Segmentation, VrDannConfig::default())
            .expect("training the default pipeline succeeds");
        let mut davis = davis_val_suite(&suite_cfg);
        davis.truncate(scale.val_sequences());
        Self {
            scale,
            suite_cfg,
            sim: SimConfig::default(),
            davis,
            model,
            suite: OnceLock::new(),
            favos: OnceLock::new(),
            osvos: OnceLock::new(),
            dff: OnceLock::new(),
        }
    }

    /// A segmentation pipeline trained with `cfg` (codec sweeps retrain
    /// NN-S because the motion vectors change with the encoder). Training
    /// is deterministic, so the default configuration is the shared model.
    pub(crate) fn train_variant(&self, cfg: VrDannConfig) -> VrDann {
        if cfg == *self.model.config() {
            return self.model.clone();
        }
        let train = davis_train_suite(&self.suite_cfg, self.scale.train_sequences());
        VrDann::train(&train, TrainTask::Segmentation, cfg)
            .expect("training a sweep variant succeeds")
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

    /// The default model over [`Context::davis`], suite order: each
    /// sequence's bitstream and VR-DANN run, evaluated on first use.
    pub(crate) fn suite(&self) -> &[Evaluated] {
        self.suite.get_or_init(|| self.run_suite(&self.model))
    }

    /// Evaluates a pipeline configuration over the suite: the cached
    /// [`Context::suite`] for the default configuration, otherwise a
    /// freshly trained variant encoding and segmenting every sequence.
    pub(crate) fn evaluate(&self, cfg: VrDannConfig) -> Cow<'_, [Evaluated]> {
        if cfg == *self.model.config() {
            Cow::Borrowed(self.suite())
        } else {
            Cow::Owned(self.run_suite(&self.train_variant(cfg)))
        }
    }

    /// Encodes every suite sequence with `model` and serves the suite as
    /// one batch through [`VrDann::run_segmentation_batch`].
    fn run_suite(&self, model: &VrDann) -> Vec<Evaluated> {
        let encoded = parallel_map(&self.davis, |seq| {
            model.encode(seq).expect("suite sequences encode")
        });
        let jobs: Vec<(&Sequence, &EncodedVideo)> = self.davis.iter().zip(&encoded).collect();
        let runs = model.run_segmentation_batch(&jobs);
        encoded
            .into_iter()
            .zip(runs)
            .map(|(e, r)| (e, r.expect("suite sequences segment")))
            .collect()
    }

    /// FAVOS (seed 1) on the suite's bitstreams, suite order.
    pub(crate) fn favos(&self) -> &[SegmentationRun] {
        self.baseline(&self.favos, |seq, encoded| run_favos(seq, encoded, 1))
    }

    /// OSVOS (seed 1) on the suite's bitstreams, suite order.
    pub(crate) fn osvos(&self) -> &[SegmentationRun] {
        self.baseline(&self.osvos, |seq, encoded| run_osvos(seq, encoded, 1))
    }

    /// DFF (key interval [`DFF_KEY_INTERVAL`], seed 1) on the suite's
    /// bitstreams, suite order.
    pub(crate) fn dff(&self) -> &[SegmentationRun] {
        self.baseline(&self.dff, |seq, encoded| {
            run_dff(seq, encoded, DFF_KEY_INTERVAL, 1)
        })
    }

    fn baseline<'a>(
        &'a self,
        cell: &'a OnceLock<Vec<SegmentationRun>>,
        run: fn(&Sequence, &EncodedVideo) -> SegmentationRun,
    ) -> &'a [SegmentationRun] {
        cell.get_or_init(|| {
            let jobs: Vec<(&Sequence, &EncodedVideo)> = self
                .davis
                .iter()
                .zip(self.suite())
                .map(|(seq, (encoded, _))| (seq, encoded))
                .collect();
            parallel_map(&jobs, |(seq, encoded)| run(seq, encoded))
        })
    }

    /// Scores a mask sequence against ground truth.
    pub fn score(&self, seq: &Sequence, masks: &[vrd_video::SegMask]) -> SegScores {
        score_sequence(masks, &seq.gt_masks)
    }

    /// Suite-mean accuracy of `runs` (one per suite sequence, suite order).
    pub(crate) fn mean_accuracy(&self, runs: &[Evaluated]) -> SegScores {
        let scores: Vec<SegScores> = self
            .davis
            .iter()
            .zip(runs)
            .map(|(seq, (_, run))| self.score(seq, &run.masks))
            .collect();
        mean_scores(&scores)
    }
}

// The scoped-thread map the experiments fan out with now lives in the
// shared runtime crate; re-exported so experiment modules keep their
// `crate::context::parallel_map` imports.
pub(crate) use vrd_runtime::parallel_map;

/// The quick-scale context every unit test of this crate shares: trained,
/// and its suite evaluated, once per test binary.
#[cfg(test)]
pub(crate) fn quick() -> &'static Context {
    static QUICK: OnceLock<Context> = OnceLock::new();
    QUICK.get_or_init(|| Context::new(Scale::Quick))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_sim::{simulate, ExecMode, ParallelOptions};

    #[test]
    fn quick_context_builds_and_runs() {
        let ctx = quick();
        assert_eq!(ctx.davis.len(), 6);
        let (encoded, run) = &ctx.suite()[0];
        assert_eq!(run.masks.len(), ctx.davis[0].len());
        assert!(encoded.stats.b_frames > 0);
        let report = simulate(
            &run.trace,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &ctx.sim,
        );
        assert!(report.fps > 0.0);
        let scores = ctx.score(&ctx.davis[0], &run.masks);
        assert!(scores.iou > 0.3);
    }

    #[test]
    fn the_default_configuration_reads_the_cached_suite() {
        let ctx = quick();
        let evaluated = ctx.evaluate(VrDannConfig::default());
        assert!(matches!(evaluated, Cow::Borrowed(_)));
        assert!(std::ptr::eq(&evaluated[..], ctx.suite()));
        assert_eq!(ctx.favos().len(), ctx.davis.len());
        for ((seq, (encoded, _)), favos) in ctx.davis.iter().zip(ctx.suite()).zip(ctx.favos()) {
            assert_eq!(favos.trace, run_favos(seq, encoded, 1).trace);
        }
    }
}
