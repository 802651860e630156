//! # vrdann-suite — the VR-DANN reproduction, in one crate
//!
//! Umbrella crate re-exporting the full stack of the MICRO 2020 VR-DANN
//! reproduction. Depend on the individual crates for finer-grained builds:
//!
//! * [`vrd_video`] — synthetic video + ground truth (DAVIS/VID stand-ins)
//! * [`vrd_codec`] — H.264/H.265-style codec with exposed motion vectors
//! * [`vrd_flow`] — optical flow (FlowNet stand-in for DFF)
//! * [`vrd_nn`] — CNN substrate: trainable NN-S, NN-L oracles
//! * [`vrd_metrics`] — IoU / F-score / mAP
//! * [`vr_dann`] — the paper's algorithm and all baselines
//! * [`vrd_sim`] — the SoC simulator (NPU, decoder, DRAM, agent unit)
//! * [`vrd_serve`] — multi-stream serving: sessions, shared-NPU scheduling,
//!   admission control, and the fleet layer (trace-driven load over
//!   sharded virtual NPUs with affinity placement and autoscaling)
//! * [`vrd_bench`] — the experiment harness regenerating every figure
//!
//! The runnable examples live in this crate:
//! `cargo run --release --example quickstart`.

#![warn(unreachable_pub)]

pub use vr_dann;
pub use vrd_bench;
pub use vrd_codec;
pub use vrd_flow;
pub use vrd_metrics;
pub use vrd_nn;
pub use vrd_serve;
pub use vrd_sim;
pub use vrd_video;
