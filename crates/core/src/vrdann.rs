//! The VR-DANN pipeline (Fig. 5): decode anchors, segment them with NN-L,
//! reconstruct B-frames from motion vectors, refine with NN-S.
//!
//! [`VrDann::run`] is the one entry point: a task (segmentation, detection,
//! feature propagation), an input (strict bitstream or resilient packet
//! stream, which picks the fault policy) and optional lanes, handed to the
//! streaming [`PipelineEngine`]'s driver over a pull-based
//! [`FrameSource`]. Nothing materialises the whole video: live pixel memory
//! is bounded by the source's reference window, and the strict path keeps
//! only an O(GOP) window of reference masks.

use crate::components::boxes_to_mask;
use crate::engine::{
    ConcealingPolicy, EngineRun, FaultPolicy, PipelineEngine, PipelineOptions, SegTask, StreamTask,
    StrictPolicy,
};
use crate::error::{Result, VrDannError};
use crate::recon::ReconConfig;
use crate::sandwich::nns_input;
use crate::trace::{ConcealmentStats, SchemeTrace};
use std::collections::BTreeMap;
use vrd_codec::faults::PacketStream;
use vrd_codec::{
    CodecConfig, EncodedVideo, Encoder, FrameSource, ResilientFrameSource, StrictFrameSource,
    UnitPayload,
};
use vrd_nn::{ComputeMode, LargeNetProfile, NnS, Sample, Tensor, MAX_HIDDEN};
use vrd_video::{Detection, SegMask, Sequence};

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrDannConfig {
    /// Encoder settings (B ratio, search interval `n`, standard — the
    /// paper's Figs. 15–17 knobs).
    pub codec: CodecConfig,
    /// NN-S hidden channel width, in `1..=`[`MAX_HIDDEN`] (the widest a
    /// model file holds).
    pub nns_hidden: usize,
    /// Run NN-S refinement on B-frames (off = raw reconstruction ablation).
    pub refine: bool,
    /// Use the sandwich input (off = reconstruction-only ablation).
    pub sandwich: bool,
    /// Reconstruction options (mean filter et al.).
    pub recon: ReconConfig,
    /// The NN-L used on anchor frames for segmentation (paper: FAVOS's
    /// ROI-SegNet). Detection always runs SELSA's
    /// ([`LargeNetProfile::selsa`]).
    pub segment_profile: LargeNetProfile,
    /// Seed for NN-S initialisation and the NN-L oracles.
    pub seed: u64,
    /// Optional adaptive fallback (§VI-A: "we can always refine the VR-DANN
    /// algorithm with fewer B-frame reconstruction while treating some
    /// B-frames as I/P-frames to pass through NN-L"). A B-frame whose mean
    /// 90th-percentile motion-vector magnitude exceeds this many pixels is
    /// fully decoded
    /// and segmented by NN-L instead of reconstructed — trading performance
    /// for accuracy on fast motion.
    pub fallback_mv_threshold: Option<f32>,
    /// Which compute path NN-S inference runs on:
    /// [`ComputeMode::F32Reference`] is the pinned full-precision path,
    /// [`ComputeMode::Int8`] the quantized MAC-array-faithful one. The
    /// NPU-ops accounting is identical in both modes, so traces never
    /// change — only the arithmetic inside the refinement does.
    pub compute: ComputeMode,
}

impl Default for VrDannConfig {
    fn default() -> Self {
        Self {
            codec: CodecConfig::default(),
            nns_hidden: 8,
            refine: true,
            sandwich: true,
            recon: ReconConfig::default(),
            segment_profile: LargeNetProfile::favos(),
            seed: 0xda77,
            fallback_mv_threshold: None,
            compute: ComputeMode::F32Reference,
        }
    }
}

/// The result of running the pipeline on one sequence.
#[derive(Debug, Clone)]
pub struct SegmentationRun {
    /// Segmentation mask per frame, display order.
    pub masks: Vec<SegMask>,
    /// Workload trace for the architecture simulator.
    pub trace: SchemeTrace,
    /// What the run had to conceal (all zero for the strict pipeline).
    pub concealment: ConcealmentStats,
    /// Peak number of reconstructed pixel frames held alive at once (the
    /// bounded-memory accounting hook; `seq.len()` for the full-decode
    /// baselines, O(GOP) for the streaming engine).
    pub peak_live_frames: usize,
    /// Peak number of cached backbone feature maps held alive at once
    /// (0 unless the run propagates in feature space).
    pub peak_live_features: usize,
    /// Peak number of decoded units buffered between the decode and
    /// compute lanes (0 without lanes; bounded by the stage channel
    /// capacity with them).
    pub peak_inflight_units: usize,
}

impl From<EngineRun<SegMask>> for SegmentationRun {
    fn from(run: EngineRun<SegMask>) -> Self {
        Self {
            masks: run.outputs,
            trace: run.trace,
            concealment: run.concealment,
            peak_live_frames: run.peak_live_frames,
            peak_live_features: run.peak_live_features,
            peak_inflight_units: run.peak_inflight_units,
        }
    }
}

/// The result of running the detection pipeline on one sequence.
#[derive(Debug, Clone)]
pub struct DetectionRun {
    /// Scored detections per frame, display order.
    pub detections: Vec<Vec<Detection>>,
    /// Workload trace for the architecture simulator.
    pub trace: SchemeTrace,
    /// What the run had to conceal (all zero for the strict pipeline).
    pub concealment: ConcealmentStats,
    /// Peak number of reconstructed pixel frames held alive at once (the
    /// bounded-memory accounting hook; `seq.len()` for the full-decode
    /// baselines, O(GOP) for the streaming engine).
    pub peak_live_frames: usize,
    /// Peak number of decoded units buffered between the decode and
    /// compute lanes (0 without lanes).
    pub peak_inflight_units: usize,
}

impl From<EngineRun<Vec<Detection>>> for DetectionRun {
    fn from(run: EngineRun<Vec<Detection>>) -> Self {
        Self {
            detections: run.outputs,
            trace: run.trace,
            concealment: run.concealment,
            peak_live_frames: run.peak_live_frames,
            peak_inflight_units: run.peak_inflight_units,
        }
    }
}

/// Degradation-policy knobs of [`RunInput::Resilient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceOptions {
    /// Per-B-frame probability that the NN-S inference itself faults (a
    /// model of accelerator soft errors); a faulted inference falls back to
    /// the unrefined blocky reconstruction. 0 disables the model entirely.
    pub nns_failure_rate: f64,
    /// Seed for the NN-S fault lottery.
    pub seed: u64,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        Self {
            nns_failure_rate: 0.0,
            seed: 0x5eed,
        }
    }
}

/// What [`VrDann::run`] reads the stream from. The input alone decides the
/// source type, the fault policy and whether NN-L references are
/// established up front.
#[derive(Debug, Clone, Copy)]
pub enum RunInput<'a> {
    /// A contiguous bitstream, decoded strictly: the first decode error
    /// aborts the run, nothing is concealed, anchors are inferred lazily.
    Strict(&'a EncodedVideo),
    /// A (possibly damaged) packetized stream, degrading gracefully
    /// instead of failing:
    ///
    /// * a B-frame whose MV payload was **lost** copies the result of the
    ///   nearest reference frame;
    /// * a **salvaged** B payload is reconstructed with uncovered blocks and
    ///   records pointing at missing anchors filled co-located;
    /// * a **lost anchor** is concealed by a nearest-reference copy and
    ///   triggers an NN-L re-inference on the next decodable B-frame to
    ///   re-establish a trusted reference;
    /// * an **NN-S fault** (modelled by [`ResilienceOptions`]) falls back to
    ///   the unrefined blocky reconstruction.
    ///
    /// On a clean stream with `nns_failure_rate == 0` the output is
    /// bit-identical to the strict run and `concealment.is_clean()` holds.
    Resilient(&'a PacketStream, &'a ResilienceOptions),
}

/// Rejects an NN-S width no model file can hold (zero would panic
/// `NnS::new`; a wider one would train a model `load_nns` refuses) and a
/// segmentation NN-L profile with a non-finite field (the oracle would turn
/// it into NaN masks).
fn check_config(cfg: &VrDannConfig) -> Result<()> {
    if !(1..=MAX_HIDDEN).contains(&cfg.nns_hidden) {
        return Err(VrDannError::InvalidConfig(format!(
            "nns_hidden is {}, must be in 1..={MAX_HIDDEN}",
            cfg.nns_hidden
        )));
    }
    let p = &cfg.segment_profile;
    let fields = [
        ("warp_amp", f64::from(p.warp_amp)),
        ("warp_scale", f64::from(p.warp_scale)),
        ("speckle", f64::from(p.speckle)),
        ("box_jitter", f64::from(p.box_jitter)),
        ("miss_prob", f64::from(p.miss_prob)),
        ("ops_per_pixel", p.ops_per_pixel),
    ];
    if let Some((field, v)) = fields.into_iter().find(|(_, v)| !v.is_finite()) {
        return Err(VrDannError::InvalidConfig(format!(
            "segment_profile `{}`: {field} is {v}",
            p.name
        )));
    }
    // The displacement field's lattice spacing, in pixels.
    if p.warp_scale <= 0.0 {
        return Err(VrDannError::InvalidConfig(format!(
            "segment_profile `{}`: warp_scale is {}, must be positive",
            p.name, p.warp_scale
        )));
    }
    Ok(())
}

/// A trained VR-DANN pipeline instance.
#[derive(Debug, Clone)]
pub struct VrDann {
    cfg: VrDannConfig,
    nns: NnS,
}

/// What the pipeline was trained to refine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainTask {
    /// Pixel-accurate object masks (DAVIS-style).
    Segmentation,
    /// Rasterised detection rectangles (VID-style).
    Detection,
}

impl VrDann {
    /// Trains NN-S exactly as §III-B prescribes: encode the training
    /// sequences, reconstruct their B-frames from the **ground-truth** I/P
    /// masks plus motion vectors, feed the sandwich as input and the B-frame
    /// ground truth as label, two epochs.
    ///
    /// # Errors
    /// Returns [`VrDannError::InvalidConfig`] if `nns_hidden` is outside
    /// `1..=`[`MAX_HIDDEN`] or `segment_profile` has a non-finite field,
    /// before encoding anything; fails if encoding fails or the training
    /// set contains no B-frames.
    pub fn train(train_seqs: &[Sequence], task: TrainTask, cfg: VrDannConfig) -> Result<Self> {
        check_config(&cfg)?;
        let encoder = Encoder::new(cfg.codec);
        let mut samples = Vec::new();
        for seq in train_seqs {
            let ev = encoder.encode(&seq.frames)?;
            let gt_mask = |d: usize| -> SegMask {
                match task {
                    TrainTask::Segmentation => seq.gt_masks[d].clone(),
                    TrainTask::Detection => {
                        boxes_to_mask(&seq.gt_boxes[d], seq.width(), seq.height())
                    }
                }
            };
            // Training needs which frames are anchors and the B-frames' motion
            // vectors; anchor pixels are dropped as they are pulled.
            let mut source = StrictFrameSource::new(&ev.bitstream)?;
            let stream = source.info();
            let mut ref_segs: BTreeMap<u32, SegMask> = BTreeMap::new();
            let mut b_frames = Vec::new();
            while let Some(unit) = source.next_unit() {
                match unit?.payload {
                    UnitPayload::Anchor { display, .. } => {
                        ref_segs.insert(display, gt_mask(display as usize));
                    }
                    UnitPayload::Motion(info) => b_frames.push(info),
                    UnitPayload::Skipped { .. } => {}
                }
            }
            for info in &b_frames {
                let input = nns_input(info, &ref_segs, &stream, &cfg)?;
                let target = Tensor::from_mask(&gt_mask(info.display_idx as usize));
                samples.push(Sample { input, target });
            }
        }
        if samples.is_empty() {
            return Err(VrDannError::BadInput(
                "training sequences produced no B-frames".into(),
            ));
        }
        let mut nns = NnS::new(cfg.nns_hidden, cfg.seed);
        vrd_nn::train(&mut nns, &samples);
        // Calibrate the quantized path's activation scales on (a slice of)
        // the training inputs. This only observes activations — weights and
        // the f32 inference path are untouched.
        let calib: Vec<&Tensor> = samples.iter().take(32).map(|s| &s.input).collect();
        nns.calibrate(&calib);
        Ok(Self { cfg, nns })
    }

    /// Returns the pipeline with its NN-S compute path switched (builder
    /// style: `model.clone().with_compute(ComputeMode::Int8)`).
    #[must_use]
    pub fn with_compute(mut self, compute: ComputeMode) -> Self {
        self.cfg.compute = compute;
        self
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &VrDannConfig {
        &self.cfg
    }

    /// The trained refinement network.
    pub fn nns(&self) -> &NnS {
        &self.nns
    }

    /// Serialises the trained NN-S weights (see [`vrd_nn::save_nns`]); pair
    /// with [`VrDann::from_parts`] to redeploy without retraining.
    pub fn export_nns(&self) -> Vec<u8> {
        vrd_nn::save_nns(&self.nns)
    }

    /// Rebuilds a pipeline from a configuration and serialised NN-S bytes.
    ///
    /// # Errors
    /// Returns [`VrDannError::InvalidConfig`] if `nns_hidden` is outside
    /// `1..=`[`MAX_HIDDEN`], `segment_profile` has a non-finite field, the
    /// bytes do not hold a valid model or its width differs from
    /// `cfg.nns_hidden`.
    pub fn from_parts(cfg: VrDannConfig, nns_bytes: &[u8]) -> Result<Self> {
        check_config(&cfg)?;
        let nns = vrd_nn::load_nns(nns_bytes)
            .map_err(|e| VrDannError::InvalidConfig(format!("bad NN-S model: {e}")))?;
        if nns.hidden() != cfg.nns_hidden {
            return Err(VrDannError::InvalidConfig(format!(
                "model width {} does not match configured {}",
                nns.hidden(),
                cfg.nns_hidden
            )));
        }
        Ok(Self { cfg, nns })
    }

    /// Encodes a sequence with the pipeline's codec settings (convenience
    /// for callers that do not manage bitstreams themselves).
    ///
    /// # Errors
    /// Propagates encoder failures.
    pub fn encode(&self, seq: &Sequence) -> Result<EncodedVideo> {
        Ok(Encoder::new(self.cfg.codec).encode(&seq.frames)?)
    }

    /// The one run path from a bitstream to per-frame outputs: opens the
    /// source `input` names, builds task `T` for it, picks the matching
    /// fault policy and hands all three to [`PipelineEngine::drive`].
    ///
    /// * `T` — what to compute: [`SegTask`] (Fig. 5's segmentation flow),
    ///   [`DetTask`](crate::DetTask) (§III-B: anchor boxes from NN-L are
    ///   rasterised into masks, B-frames reconstructed and refined like
    ///   segmentation, the refined masks read back as boxes) or
    ///   [`FeatPropTask`](crate::FeatPropTask) (the Jain & Gonzalez
    ///   baseline: the staged NN-L runs in full on anchors and caches its
    ///   penultimate features in the O(GOP) window; each B-frame warps them
    ///   with its block MVs and runs only the network head —
    ///   [`crate::trace::ComputeKind::FeatHead`], billed at
    ///   [`vrd_nn::NNL_HEAD_FRACTION`] of an inference, trace labelled
    ///   [`crate::trace::SchemeKind::FeatProp`]);
    /// * `input` — strict or resilient, see [`RunInput`];
    /// * `lanes` — `None` runs everything on the caller's thread,
    ///   `Some(opts)` puts the decoder on its own thread and fans B-frame
    ///   reconstruction out across the wave-front pool. Outputs, trace and
    ///   concealment counters are bit-identical either way.
    ///
    /// # Errors
    /// [`RunInput::Strict`] fails on malformed bitstreams or missing
    /// references; [`RunInput::Resilient`] only if the stream *header* is
    /// unusable or the sequence and stream disagree structurally — frame
    /// damage never errors.
    pub fn run<'s, T: StreamTask<'s>>(
        &self,
        seq: &'s Sequence,
        input: RunInput<'_>,
        lanes: Option<&PipelineOptions>,
    ) -> Result<EngineRun<T::Output>> {
        match input {
            RunInput::Strict(encoded) => {
                let source = StrictFrameSource::new(&encoded.bitstream)?;
                self.run_on::<T, _, _>(seq, source, StrictPolicy::default(), &[], lanes)
            }
            RunInput::Resilient(stream, opts) => {
                let source = ResilientFrameSource::new(stream)?;
                // A lost B-frame may copy from an anchor that only decodes
                // later, so every usable anchor is inferred up front.
                let prepopulate = source.usable_anchor_displays().to_vec();
                self.run_on::<T, _, _>(
                    seq,
                    source,
                    ConcealingPolicy::new(opts),
                    &prepopulate,
                    lanes,
                )
            }
        }
    }

    /// Builds task `T` for `source` and drives the engine over it.
    fn run_on<'s, T: StreamTask<'s>, S: FrameSource + Send, P: FaultPolicy>(
        &self,
        seq: &'s Sequence,
        source: S,
        policy: P,
        prepopulate: &[u32],
        lanes: Option<&PipelineOptions>,
    ) -> Result<EngineRun<T::Output>> {
        let task = T::for_stream(seq, &self.cfg, &source.info());
        PipelineEngine::new(&self.cfg, &self.nns, task, policy).drive(
            source,
            prepopulate,
            lanes,
            |_, _, _| Ok(()),
        )
    }

    /// Strict segmentation on the caller's thread:
    /// `run::<SegTask>(seq, RunInput::Strict(encoded), None)`.
    ///
    /// # Errors
    /// As [`VrDann::run`] on a strict input.
    pub fn run_segmentation(
        &self,
        seq: &Sequence,
        encoded: &EncodedVideo,
    ) -> Result<SegmentationRun> {
        Ok(self
            .run::<SegTask>(seq, RunInput::Strict(encoded), None)?
            .into())
    }

    /// [`VrDann::run_segmentation`] on two lanes:
    /// `run::<SegTask>(seq, RunInput::Strict(encoded), Some(opts))`.
    ///
    /// # Errors
    /// As [`VrDann::run`] on a strict input.
    pub fn run_segmentation_pipelined(
        &self,
        seq: &Sequence,
        encoded: &EncodedVideo,
        opts: &PipelineOptions,
    ) -> Result<SegmentationRun> {
        Ok(self
            .run::<SegTask>(seq, RunInput::Strict(encoded), Some(opts))?
            .into())
    }

    /// Runs segmentation over many (sequence, bitstream) jobs concurrently
    /// — multi-sequence batch serving on `vrd-runtime`'s deterministic,
    /// order-preserving thread pool, one job per pool worker and no thread
    /// per stream. Results match per-job [`VrDann::run_segmentation`] calls
    /// exactly, in input order.
    pub fn run_segmentation_batch(
        &self,
        jobs: &[(&Sequence, &EncodedVideo)],
    ) -> Vec<Result<SegmentationRun>> {
        vrd_runtime::parallel_map(jobs, |job| self.run_segmentation(job.0, job.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ComputeKind;
    use vrd_metrics::{average_precision, score_sequence, FrameDetections};
    use vrd_nn::LargeNet;
    use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};
    use vrd_video::Rect;

    fn tiny_model(task: TrainTask) -> (VrDann, SuiteConfig) {
        let cfg = SuiteConfig::tiny();
        let train = davis_train_suite(&cfg, 2);
        let vr_cfg = VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        };
        (VrDann::train(&train, task, vr_cfg).unwrap(), cfg)
    }

    #[test]
    fn segmentation_pipeline_end_to_end() {
        let (model, cfg) = tiny_model(TrainTask::Segmentation);
        let seq = davis_sequence("cows", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let run = model.run_segmentation(&seq, &encoded).unwrap();
        assert_eq!(run.masks.len(), seq.len());
        assert_eq!(run.trace.frames.len(), seq.len());
        // Accuracy sanity: must beat a trivial all-background predictor.
        let scores = score_sequence(&run.masks, &seq.gt_masks);
        assert!(scores.iou > 0.5, "IoU too low: {:.3}", scores.iou);
        // The trace must contain both work kinds.
        let n_b = run
            .trace
            .frames
            .iter()
            .filter(|f| matches!(f.kind, ComputeKind::NnSRefine { .. }))
            .count();
        assert_eq!(n_b, encoded.stats.b_frames);
        // B-frames are never fully decoded in this pipeline.
        assert!(run
            .trace
            .frames
            .iter()
            .all(|f| f.full_decode == f.ftype.is_anchor()));
    }

    #[test]
    fn refinement_improves_over_raw_reconstruction() {
        let (refined, cfg) = tiny_model(TrainTask::Segmentation);
        let seq = davis_sequence("dog", &cfg).unwrap();
        let encoded = refined.encode(&seq).unwrap();
        let run_ref = refined.run_segmentation(&seq, &encoded).unwrap();

        let mut raw = refined.clone();
        raw.cfg.refine = false;
        let run_raw = raw.run_segmentation(&seq, &encoded).unwrap();

        let s_ref = score_sequence(&run_ref.masks, &seq.gt_masks);
        let s_raw = score_sequence(&run_raw.masks, &seq.gt_masks);
        assert!(
            s_ref.iou >= s_raw.iou - 0.01,
            "refined {:.3} much worse than raw {:.3}",
            s_ref.iou,
            s_raw.iou
        );
    }

    #[test]
    fn detection_pipeline_end_to_end() {
        let (model, cfg) = tiny_model(TrainTask::Detection);
        let seq = davis_sequence("camel", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let run = model
            .run::<crate::DetTask>(&seq, RunInput::Strict(&encoded), None)
            .unwrap();
        assert_eq!(run.outputs.len(), seq.len());
        // Most frames should have at least one detection.
        let with_dets = run.outputs.iter().filter(|d| !d.is_empty()).count();
        assert!(with_dets > seq.len() * 2 / 3, "{with_dets}/{}", seq.len());
    }

    #[test]
    fn export_import_preserves_pipeline_outputs() {
        let (model, cfg) = tiny_model(TrainTask::Segmentation);
        let seq = davis_sequence("goat", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let original = model.run_segmentation(&seq, &encoded).unwrap();

        let bytes = model.export_nns();
        let restored = VrDann::from_parts(*model.config(), &bytes).unwrap();
        let replayed = restored.run_segmentation(&seq, &encoded).unwrap();
        assert_eq!(original.masks, replayed.masks);

        // Width mismatch is rejected.
        let mut wrong = *model.config();
        wrong.nns_hidden += 1;
        assert!(VrDann::from_parts(wrong, &bytes).is_err());
        assert!(VrDann::from_parts(*model.config(), b"junk").is_err());
    }

    #[test]
    fn a_model_file_with_a_non_finite_weight_is_invalid_config() {
        // Such a file used to load and then panic the int8 path inside
        // `Requant::from_real` — with the calibration trailer and, through
        // the weight-norm scale bound, without it.
        let (model, _) = tiny_model(TrainTask::Segmentation);
        let with_trailer = model.export_nns();
        let without = &with_trailer[..with_trailer.len() - 16];
        for file in [&with_trailer[..], without] {
            assert!(VrDann::from_parts(*model.config(), file).is_ok());
            let mut bad = file.to_vec();
            // Bytes 13..17 hold conv1's first weight.
            bad[13..17].copy_from_slice(&f32::INFINITY.to_le_bytes());
            match VrDann::from_parts(*model.config(), &bad) {
                Err(VrDannError::InvalidConfig(msg)) => {
                    assert!(msg.contains("conv1: weight 0 is inf"), "{msg}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_config_the_pipeline_cannot_run_is_invalid_config() {
        // A NaN box jitter makes the oracle emit NaN scores; average
        // precision ranks them instead of panicking...
        let nan = LargeNetProfile {
            box_jitter: f32::NAN,
            ..LargeNetProfile::selsa()
        };
        let gt = [
            Rect::new(2, 2, 12, 12),
            Rect::new(16, 4, 30, 14),
            Rect::new(6, 18, 20, 30),
        ];
        let detections = LargeNet::new(nan).detect(&gt, 32, 32, 7);
        assert!(!detections.is_empty());
        assert!(detections.iter().all(|d| d.score.is_nan()));
        let frames = [FrameDetections {
            detections,
            ground_truth: gt.to_vec(),
        }];
        assert!((0.0..=1.0).contains(&average_precision(&frames)));
        // ...and the pipeline refuses such a profile up front, naming the
        // profile and the field; likewise a finite `warp_scale` that is not
        // a positive lattice spacing (zero used to overflow the oracle's
        // noise lattice in debug builds), and an NN-S width no model file
        // holds (zero used to encode the whole training set, then panic in
        // `NnS::new`; a wider one trained a model `load_nns` refused).
        let (model, cfg) = tiny_model(TrainTask::Segmentation);
        let train = davis_train_suite(&cfg, 2);
        let bytes = model.export_nns();
        let scale = |warp_scale| LargeNetProfile {
            warp_scale,
            ..LargeNetProfile::favos()
        };
        let profile = |segment_profile| VrDannConfig {
            segment_profile,
            ..*model.config()
        };
        let width = |nns_hidden| VrDannConfig {
            nns_hidden,
            ..*model.config()
        };
        for (bad, complaint) in [
            (profile(nan), "segment_profile `selsa`: box_jitter is NaN"),
            (
                profile(scale(0.0)),
                "`favos`: warp_scale is 0, must be positive",
            ),
            (
                profile(scale(-0.0)),
                "`favos`: warp_scale is -0, must be positive",
            ),
            (
                profile(scale(-3.5)),
                "`favos`: warp_scale is -3.5, must be positive",
            ),
            (width(0), "nns_hidden is 0, must be in 1..=4096"),
            (
                width(MAX_HIDDEN + 1),
                "nns_hidden is 4097, must be in 1..=4096",
            ),
        ] {
            for result in [
                VrDann::from_parts(bad, &bytes),
                VrDann::train(&train, TrainTask::Detection, bad),
            ] {
                match result {
                    Err(VrDannError::InvalidConfig(msg)) => {
                        assert!(msg.contains(complaint), "{msg}");
                    }
                    other => panic!("expected InvalidConfig, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn adaptive_fallback_reroutes_fast_b_frames_to_nnl() {
        let (model, cfg) = tiny_model(TrainTask::Segmentation);
        let seq = davis_sequence("parkour", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();

        let run_plain = model.run_segmentation(&seq, &encoded).unwrap();
        let mut fb = model.clone();
        fb.cfg.fallback_mv_threshold = Some(1.5);
        let run_fb = fb.run_segmentation(&seq, &encoded).unwrap();

        // Some B-frames must have been rerouted to NN-L.
        let nnl_frames = |run: &SegmentationRun| {
            run.trace
                .frames
                .iter()
                .filter(|f| matches!(f.kind, ComputeKind::NnL { .. }))
                .count()
        };
        assert!(
            nnl_frames(&run_fb) > nnl_frames(&run_plain),
            "fallback rerouted nothing"
        );
        // Accuracy must not degrade on a fast sequence.
        let s_plain = score_sequence(&run_plain.masks, &seq.gt_masks);
        let s_fb = score_sequence(&run_fb.masks, &seq.gt_masks);
        assert!(
            s_fb.iou >= s_plain.iou - 0.005,
            "fallback hurt accuracy: {:.3} vs {:.3}",
            s_fb.iou,
            s_plain.iou
        );
        // An absurd threshold reroutes nothing.
        let mut noop = model.clone();
        noop.cfg.fallback_mv_threshold = Some(1e6);
        let run_noop = noop.run_segmentation(&seq, &encoded).unwrap();
        assert_eq!(nnl_frames(&run_noop), nnl_frames(&run_plain));
    }

    #[test]
    fn int8_mode_matches_f32_work_and_tracks_masks() {
        let (model, cfg) = tiny_model(TrainTask::Segmentation);
        assert!(model.nns().act_scales().is_some(), "training calibrates");
        let seq = davis_sequence("cows", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let f32_run = model.run_segmentation(&seq, &encoded).unwrap();
        let int8 = model.clone().with_compute(ComputeMode::Int8);
        let int8_run = int8.run_segmentation(&seq, &encoded).unwrap();
        // The NPU accounting is mode-invariant: identical traces.
        assert_eq!(f32_run.trace, int8_run.trace);
        assert_eq!(f32_run.masks.len(), int8_run.masks.len());
        // The masks themselves must stay close: quantization may flip
        // borderline pixels but not reshape the segmentation.
        let total: usize = f32_run.masks.iter().map(|m| m.width() * m.height()).sum();
        let flipped: usize = f32_run
            .masks
            .iter()
            .zip(&int8_run.masks)
            .map(|(a, b)| {
                a.words()
                    .iter()
                    .zip(b.words())
                    .map(|(x, y)| (x ^ y).count_ones() as usize)
                    .sum::<usize>()
            })
            .sum();
        assert!(
            (flipped as f64) < 0.01 * total as f64,
            "{flipped}/{total} mask pixels flipped under int8"
        );
    }

    #[test]
    fn training_requires_b_frames() {
        let cfg = SuiteConfig::tiny();
        let mut seq = davis_sequence("cows", &cfg).unwrap();
        // One frame -> a single I frame -> no B-frames anywhere.
        seq.frames.truncate(1);
        seq.gt_masks.truncate(1);
        seq.gt_boxes.truncate(1);
        let err = VrDann::train(&[seq], TrainTask::Segmentation, VrDannConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn a_sequence_that_disagrees_with_its_stream_is_an_error() {
        let (model, cfg) = tiny_model(TrainTask::Segmentation);
        let seq = davis_sequence("cows", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let packets = vrd_codec::packetize(&encoded.bitstream).unwrap();
        let resilience = ResilienceOptions::default();
        let mut short = seq.clone();
        short.frames.truncate(6);
        short.gt_masks.truncate(6);
        short.gt_boxes.truncate(6);
        let wide = SuiteConfig {
            width: 96,
            height: 64,
            ..cfg
        };
        let wide = davis_sequence("cows", &wide).unwrap();
        for (other, what) in [(&short, "6 frames"), (&wide, "96x64")] {
            for input in [
                RunInput::Strict(&encoded),
                RunInput::Resilient(&packets, &resilience),
            ] {
                let seg = model.run::<SegTask>(other, input, None).map(|_| ());
                let det = model.run::<crate::DetTask>(other, input, None).map(|_| ());
                for result in [seg, det] {
                    match result {
                        Err(VrDannError::BadInput(msg)) => assert!(msg.contains(what), "{msg}"),
                        unexpected => panic!("{what}: {unexpected:?}"),
                    }
                }
            }
        }

        // A caller that owns the loop bypasses `drive`'s check; the store's
        // frame-index bound still turns the overrun into an error, from a
        // unit and from `prime`'s prepopulation alike.
        for prepopulate in [&[][..], &[9]] {
            let mut source = StrictFrameSource::new(&encoded.bitstream).unwrap();
            let info = source.info();
            let task = SegTask::for_stream(&short, model.config(), &info);
            let mut engine =
                PipelineEngine::new(model.config(), model.nns(), task, StrictPolicy::default());
            engine.prime(&info, prepopulate);
            let err = std::iter::from_fn(|| source.next_unit())
                .find_map(|unit| engine.step(unit.unwrap()).err())
                .expect("a 16-frame stream overruns a 6-frame sequence");
            assert!(err.to_string().contains("6-frame sequence"), "{err}");
        }
    }

    #[test]
    fn batch_runs_match_sequential_runs() {
        let (model, cfg) = tiny_model(TrainTask::Segmentation);
        let names = ["cows", "dog", "goat"];
        let seqs: Vec<Sequence> = names
            .iter()
            .map(|n| davis_sequence(n, &cfg).unwrap())
            .collect();
        let encoded: Vec<EncodedVideo> = seqs.iter().map(|s| model.encode(s).unwrap()).collect();
        let jobs: Vec<(&Sequence, &EncodedVideo)> = seqs.iter().zip(encoded.iter()).collect();
        let batch = model.run_segmentation_batch(&jobs);
        assert_eq!(batch.len(), jobs.len());
        for ((seq, ev), out) in jobs.iter().zip(batch) {
            let solo = model.run_segmentation(seq, ev).unwrap();
            let out = out.unwrap();
            assert_eq!(out.masks, solo.masks);
            assert_eq!(out.trace, solo.trace);
        }
    }
}
