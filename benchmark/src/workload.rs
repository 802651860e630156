//! The four workloads and their set-up: scene generation, NN-S training and
//! encoding. Everything the program later sees — sequences and bitstreams —
//! is made here from the seed.

use std::time::Instant;
use vr_dann::{ComputeMode, TrainTask, VrDann, VrDannConfig};
use vrd_codec::{BFrameMode, CodecConfig, EncodedVideo, Encoder};
use vrd_video::davis::{davis_sequence, davis_train_suite, davis_val_suite, SuiteConfig};
use vrd_video::Sequence;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 864×480 stream, default GOP, NN-S on the f32 path: NN-S f32
    /// convolution is ~85 % of the work.
    HdF32,
    /// The same bitstream with NN-S on int8: NN-S shrinks ~4.5×, so NN-L,
    /// engine overhead, reconstruction, sandwich and decode become visible,
    /// and an f32-kernel change must read "no change".
    HdInt8,
    /// The same scene encoded without B-frames: only full decode and NN-L
    /// run, so every B-frame optimisation must read "no change" here and
    /// decoder or lane-scheduling work shows.
    HdAnchorOnly,
    /// Twenty small streams through the batch entry point: per-call
    /// overhead outweighs kernel time, so a change that buys HD speed with
    /// per-call cost shows as a loss.
    SuiteBatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HdF32,
        Workload::HdInt8,
        Workload::HdAnchorOnly,
        Workload::SuiteBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HdF32 => "hd_f32",
            Workload::HdInt8 => "hd_int8",
            Workload::HdAnchorOnly => "hd_anchor_only",
            Workload::SuiteBatch => "suite_batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn compute(self) -> ComputeMode {
        match self {
            Workload::HdF32 | Workload::SuiteBatch => ComputeMode::F32Reference,
            Workload::HdInt8 | Workload::HdAnchorOnly => ComputeMode::Int8,
        }
    }

    /// Passes over the inputs chained into one timed rep, so a rep lasts
    /// ~1.5 s or more on every workload.
    pub fn passes_per_rep(self) -> usize {
        match self {
            Workload::SuiteBatch => 3,
            _ => 1,
        }
    }
}

/// Input sizes: the measured shape, and a small one for the crate's tests.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Width, height, frames of the single `cows` stream.
    pub hd: (usize, usize, usize),
    /// Width, height, frames of each of the 20 suite sequences.
    pub suite: (usize, usize, usize),
    /// Training sequences for the suite model.
    pub suite_train: usize,
    /// Timed reps always run, whatever the time budget.
    pub min_reps: usize,
    /// Times set-up is repeated when `setup_s` is reported.
    pub setup_reps: usize,
}

impl Shape {
    /// 864×480 × 96 frames is `e2e_bench`'s stream; 160×96 × 48 frames with
    /// six training sequences is the figure binaries' `Scale::Full`.
    pub const FULL: Shape = Shape {
        hd: (864, 480, 96),
        suite: (160, 96, 48),
        suite_train: 6,
        min_reps: 3,
        setup_reps: 1,
    };

    pub const SMOKE: Shape = Shape {
        hd: (64, 48, 24),
        suite: (64, 48, 24),
        suite_train: 2,
        min_reps: 2,
        setup_reps: 2,
    };
}

/// What set-up hands to the measured program.
pub struct Inputs {
    pub workload: Workload,
    pub model: VrDann,
    pub streams: Vec<(Sequence, EncodedVideo)>,
}

impl Inputs {
    pub fn frames(&self) -> usize {
        self.streams.iter().map(|(s, _)| s.len()).sum()
    }

    pub fn jobs(&self) -> Vec<(&Sequence, &EncodedVideo)> {
        self.streams.iter().map(|(s, e)| (s, e)).collect()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    /// Frames generated, training sequences included.
    pub generated_frames: usize,
    pub train_s: f64,
    pub encode_s: f64,
    pub total_s: f64,
}

/// Generates the scene(s), trains NN-S and encodes, timing each stage.
pub fn setup(workload: Workload, shape: &Shape, seed: u64) -> Result<(Inputs, SetupTimes), String> {
    let start = Instant::now();
    let (width, height, frames) = match workload {
        Workload::SuiteBatch => shape.suite,
        _ => shape.hd,
    };
    let cfg = SuiteConfig {
        width,
        height,
        frames,
        seed,
    };
    cfg.validate()?;
    let (seqs, train) = match workload {
        Workload::SuiteBatch => (
            davis_val_suite(&cfg),
            davis_train_suite(&cfg, shape.suite_train),
        ),
        // NN-S is fully convolutional, so the HD stream runs a model
        // trained on the same two tiny sequences `e2e_bench` uses.
        _ => (
            vec![davis_sequence("cows", &cfg)?],
            davis_train_suite(&SuiteConfig::tiny(), 2),
        ),
    };
    let generate_s = start.elapsed().as_secs_f64();
    let generated_frames = seqs.iter().chain(&train).map(Sequence::len).sum();

    let t = Instant::now();
    let model = VrDann::train(&train, TrainTask::Segmentation, VrDannConfig::default())
        .map_err(|e| format!("training failed: {e}"))?
        .with_compute(workload.compute());
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let codec = match workload {
        Workload::HdAnchorOnly => CodecConfig {
            b_frames: BFrameMode::Fixed(0),
            ..CodecConfig::default()
        },
        _ => CodecConfig::default(),
    };
    let encoded = vrd_runtime::parallel_map(&seqs, |s| Encoder::new(codec).encode(&s.frames));
    let encode_s = t.elapsed().as_secs_f64();
    let streams = seqs
        .into_iter()
        .zip(encoded)
        .map(|(s, e)| {
            e.map(|e| (s, e))
                .map_err(|e| format!("encoding failed: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok((
        Inputs {
            workload,
            model,
            streams,
        },
        SetupTimes {
            generate_s,
            generated_frames,
            train_s,
            encode_s,
            total_s: start.elapsed().as_secs_f64(),
        },
    ))
}
