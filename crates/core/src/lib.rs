//! # vr-dann — decoder-assisted neural network acceleration for video
//! recognition
//!
//! The core crate of the reproduction of *"VR-DANN: Real-Time Video
//! Recognition via Decoder-Assisted Neural Network Acceleration"* (Song et
//! al., MICRO 2020). It implements the paper's algorithm (§III) and the
//! schemes it is evaluated against:
//!
//! * [`recon`] — B-frame segmentation **reconstruction** from motion
//!   vectors, with the 2-bit bi-reference mean filter;
//! * [`sandwich`] — the 3-channel NN-S input: the packed planes the engine
//!   refines, and the dense tensor training and `infer` take;
//! * [`VrDann`] — the trained pipeline: NN-L on I/P anchors, reconstruction
//!   plus NN-S refinement on B-frames. [`VrDann::run`] is its one entry
//!   point, parameterised by task ([`SegTask`], [`DetTask`],
//!   [`FeatPropTask`]), input ([`RunInput`]: strict bitstream or resilient
//!   packet stream) and optional lanes ([`PipelineOptions`]). No entry
//!   point takes a thread count: every one sizes from
//!   [`vrd_runtime::max_threads`], which [`vrd_runtime::with_thread_budget`]
//!   sets for the section it scopes and `VRD_THREADS` sets per process;
//! * [`engine`] — the streaming [`PipelineEngine`] underneath and its one
//!   driver, [`PipelineEngine::drive`]. The engine owns the frame ladder
//!   (reference window, output store, concealment and its counters, trace);
//!   [`engine::TaskPolicy`] and [`FaultPolicy`] supply what differs between
//!   tasks and between strict and resilient inputs;
//! * [`baselines`] — OSVOS, FAVOS, DFF, SELSA and Euphrates;
//! * [`SchemeTrace`] — the workload traces the `vrd-sim` architecture
//!   simulator replays to produce the paper's performance/energy figures.
//!
//! ## Example
//!
//! ```
//! use vr_dann::{RunInput, SegTask, TrainTask, VrDann, VrDannConfig};
//! use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SuiteConfig::tiny();
//! let train = davis_train_suite(&cfg, 2);
//! let mut model = VrDann::train(&train, TrainTask::Segmentation, VrDannConfig::default())?;
//!
//! let seq = davis_sequence("cows", &cfg)?;
//! let encoded = model.encode(&seq)?;
//! let run = model.run::<SegTask>(&seq, RunInput::Strict(&encoded), None)?;
//! assert_eq!(run.outputs.len(), seq.len());
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

pub mod baselines;
mod components;
pub mod engine;
mod error;
mod featprop;
pub mod recon;
pub mod sandwich;
mod trace;
mod vrdann;

pub use components::{boxes_to_mask, extract_components};
pub use engine::{
    ConcealingPolicy, DetTask, EngineCheckpoint, EngineRun, FaultPolicy, PipelineEngine,
    PipelineOptions, SegTask, StepWork, StreamTask, StrictPolicy,
};
pub use error::{Result, VrDannError};
pub use featprop::FeatPropTask;
pub use recon::{plane_to_mask, reconstruct_b_frame, ReconConfig};
pub use sandwich::build_sandwich;
pub use trace::{ComputeKind, ConcealmentStats, SchemeKind, SchemeTrace, TraceFrame};
pub use vrd_nn::ComputeMode;
pub use vrdann::{
    DetectionRun, ResilienceOptions, RunInput, SegmentationRun, TrainTask, VrDann, VrDannConfig,
};
