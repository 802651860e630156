//! # vrd-flow — dense optical flow (FlowNet stand-in)
//!
//! Substrate crate of the VR-DANN reproduction (MICRO 2020). The DFF baseline
//! (Zhu et al., CVPR 2017) propagates key-frame results to non-key frames by
//! warping them along FlowNet's optical flow; this crate supplies the flow
//! ([`estimate`]) and the warping ([`FlowField::warp_mask`],
//! [`FlowField::warp_frame`]). See `DESIGN.md` §2 for why a classical
//! block-matching flow preserves the paper's DFF comparison.
//!
//! ## Example
//!
//! ```
//! use vrd_flow::estimate;
//! use vrd_video::davis::{davis_sequence, SuiteConfig};
//!
//! # fn main() -> Result<(), String> {
//! let seq = davis_sequence("dog", &SuiteConfig::tiny())?;
//! let flow = estimate(&seq.frames[1], &seq.frames[0]);
//! // Propagate frame 0's ground-truth mask to frame 1.
//! let propagated = flow.warp_mask(&seq.gt_masks[0]);
//! assert_eq!(propagated.width(), seq.width());
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod estimator;
mod field;

pub use estimator::estimate;
pub use field::FlowField;
