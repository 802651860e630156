//! # vrd-metrics — accuracy metrics for the VR-DANN evaluation
//!
//! Substrate crate of the VR-DANN reproduction (MICRO 2020), implementing
//! exactly the metrics of the paper's §V-A:
//!
//! * segmentation — pixel-level **F-score** and **IoU** ([`PixelCounts`],
//!   [`score_sequence`]), averaged per frame then per sequence as DAVIS
//!   does;
//! * detection — VOC-style **average precision** at IoU 0.5
//!   ([`average_precision`]), the ImageNet-VID convention.
//!
//! ## Example
//!
//! ```
//! use vrd_metrics::PixelCounts;
//! use vrd_video::{Rect, SegMask};
//!
//! let mut gt = SegMask::new(16, 16);
//! gt.fill_rect(Rect::new(4, 4, 12, 12));
//! let counts = PixelCounts::tally(&gt, &gt);
//! assert_eq!(counts.iou(), 1.0);
//! ```

#![warn(unreachable_pub)]

mod boundary;
mod detection;
pub mod segmentation;

pub use boundary::boundary_f_sequence;
pub use detection::{average_precision, FrameDetections};
pub use segmentation::{mean_scores, score_sequence, PixelCounts, SegScores};
