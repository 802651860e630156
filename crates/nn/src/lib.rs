//! # vrd-nn — the two networks of VR-DANN
//!
//! Substrate crate of the VR-DANN reproduction (MICRO 2020). It is one
//! network and a stand-in for another, not a framework:
//!
//! * [`NnS`], the paper's 3-layer refinement network (conv → downsample →
//!   conv → upsample → concat → conv on the sandwich input). Its graph is
//!   spelled once and is what inference, calibration and training all
//!   walk; [`train`] trains it for the paper's two epochs with
//!   SGD-momentum and owns all training state, [`quant`] runs it on int8,
//!   [`load_nns`] / [`save_nns`] load and save it (a model file is
//!   untrusted input);
//! * what that graph is made of: [`Tensor`], [`conv::Conv2d`] (shape and
//!   parameters, with bit-exact optimised forward and backward kernels
//!   beside a naive [`conv::reference`]), stateless pooling / upsampling /
//!   activation kernels in [`layers`], and the BCE loss;
//! * [`LargeNet`], the calibrated oracle standing in for the trained
//!   ROI-SegNet / OSVOS / SELSA networks (quality + ops model; see
//!   `DESIGN.md` §2 for the substitution rationale).
//!
//! ## Example
//!
//! ```
//! use vrd_nn::{NnS, Tensor};
//!
//! let nns = NnS::new(8, 42);
//! // NN-S is tiny: under 1k parameters vs hundreds of millions for NN-L.
//! assert!(nns.n_params() < 1500);
//! let sandwich = Tensor::zeros(3, 16, 16);
//! let refined = nns.infer(&sandwich);
//! assert_eq!(refined.channels(), 1);
//! ```

#![warn(unreachable_pub)]

mod band;
pub mod conv;
pub mod featwarp;
pub mod largenet;
pub mod layers;
mod loss;
mod nns;
pub mod quant;
mod serialize;
mod tensor;
mod trainer;

pub use band::SandwichPlanes;
pub use featwarp::{FEATURE_CHANNELS, FEATURE_STRIDE};
pub use largenet::{LargeNet, LargeNetProfile, FLOWNET_OPS_PER_PIXEL, NNL_HEAD_FRACTION};
pub use nns::NnS;
pub use quant::{ComputeMode, QuantConv2d, QuantNnS, Requant};
pub use serialize::{load_nns, save_nns, MAX_HIDDEN};
pub use tensor::Tensor;
pub use trainer::{train, Sample};
