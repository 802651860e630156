//! # vrd-video — synthetic video with pixel-exact ground truth
//!
//! Substrate crate of the VR-DANN reproduction (MICRO 2020). It generates the
//! raw material every experiment consumes:
//!
//! * [`Frame`] / [`SegMask`] / [`Seg2Plane`] — the raster types shared with
//!   the codec, the recognition pipelines and the simulator;
//! * [`Scene`] / [`SceneObject`] — deterministic procedural scenes with
//!   moving, deforming, textured objects;
//! * [`davis::davis_val_suite`] — the 20-sequence DAVIS-2016-like
//!   segmentation suite (the paper's Fig. 9 videos by name);
//! * [`vid::vid_val_suite`] — the ImageNet-VID-like detection suite grouped
//!   by object speed (the paper's Fig. 11).
//!
//! Real DAVIS / ImageNet-VID footage is replaced by this generator; see
//! `DESIGN.md` §2 for the substitution rationale. Everything is a pure
//! function of the configured seed, so every experiment in the repository is
//! exactly reproducible.
//!
//! ## Example
//!
//! ```
//! use vrd_video::davis::{davis_sequence, SuiteConfig};
//!
//! # fn main() -> Result<(), String> {
//! let cfg = SuiteConfig::tiny();
//! let seq = davis_sequence("cows", &cfg)?;
//! assert_eq!(seq.len(), cfg.frames);
//! // Ground truth is pixel-exact: the mask's bounding box is the GT box.
//! assert_eq!(seq.gt_masks[0].bounding_box(), Some(seq.gt_boxes[0][0]));
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

pub mod davis;
mod frame;
mod geom;
pub mod mask;
mod object;
pub mod pgm;
mod scene;
mod sequence;
pub mod texture;
pub mod vid;

pub use frame::Frame;
pub use geom::{Detection, Point, Rect, Vec2};
pub use mask::{Seg2, Seg2Plane, SegMask, MASK_WORD_BITS};
pub use object::{Deformation, SceneObject, Shape, Trajectory};
pub use scene::{RenderedFrame, Scene};
pub use sequence::{Sequence, SpeedClass};
pub use texture::Texture;
