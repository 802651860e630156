//! Materialised video sequences with ground truth.
//!
//! A [`Sequence`] is the unit every experiment operates on: the raw frames go
//! through the encoder, the masks/boxes are the accuracy reference. Sequences
//! carry their motion statistics so experiments can group them into the
//! paper's *fast / medium / slow* classes (Fig. 11).

use crate::frame::Frame;
use crate::geom::Rect;
use crate::mask::SegMask;
use crate::scene::Scene;

/// The paper's object-speed grouping for detection accuracy (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpeedClass {
    /// Slowly moving objects (VR-DANN degrades mAP by only ~0.5%).
    Slow,
    /// Moderate motion.
    Medium,
    /// Fast motion (motion vectors mispredict; ~1.1% mAP degradation).
    Fast,
}

impl SpeedClass {
    /// Classifies a normalised object speed (pixels/frame at the reference
    /// 160-pixel-wide canvas).
    pub(crate) fn from_speed(speed: f32) -> Self {
        if speed < 1.0 {
            SpeedClass::Slow
        } else if speed < 2.4 {
            SpeedClass::Medium
        } else {
            SpeedClass::Fast
        }
    }
}

impl std::fmt::Display for SpeedClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SpeedClass::Slow => "slow",
            SpeedClass::Medium => "medium",
            SpeedClass::Fast => "fast",
        };
        f.write_str(s)
    }
}

/// A rendered video sequence plus per-frame ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    /// Sequence name (DAVIS-style, e.g. `"cows"`).
    pub name: String,
    /// Raw luma frames in display order.
    pub frames: Vec<Frame>,
    /// Ground-truth segmentation mask per frame.
    pub gt_masks: Vec<SegMask>,
    /// Ground-truth object boxes per frame.
    pub gt_boxes: Vec<Vec<Rect>>,
    /// Mean object speed normalised to the 160-pixel-wide reference canvas.
    pub norm_speed: f32,
    /// Deformation intensity of the most deformable object.
    pub deformation: f32,
}

impl Sequence {
    /// Renders `n_frames` of `scene` into a sequence.
    ///
    /// # Panics
    /// Panics if `n_frames` is zero.
    pub fn from_scene(name: impl Into<String>, scene: &Scene, n_frames: usize) -> Self {
        assert!(n_frames > 0, "a sequence needs at least one frame");
        let mut frames = Vec::with_capacity(n_frames);
        let mut gt_masks = Vec::with_capacity(n_frames);
        let mut gt_boxes = Vec::with_capacity(n_frames);
        for t in 0..n_frames {
            let r = scene.render(t);
            frames.push(r.frame);
            gt_masks.push(r.mask);
            gt_boxes.push(r.boxes);
        }
        let norm_speed = scene.mean_object_speed(n_frames) * 160.0 / scene.width() as f32;
        Self {
            name: name.into(),
            frames,
            gt_masks,
            gt_boxes,
            norm_speed,
            deformation: scene.deformation_intensity(),
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the sequence holds no frames (never true for rendered ones).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.frames[0].width()
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.frames[0].height()
    }

    /// The paper's speed grouping of this sequence.
    pub fn speed_class(&self) -> SpeedClass {
        SpeedClass::from_speed(self.norm_speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Vec2};
    use crate::object::{Deformation, SceneObject, Shape, Trajectory};
    use crate::texture::Texture;

    #[test]
    fn speed_class_thresholds() {
        assert_eq!(SpeedClass::from_speed(0.2), SpeedClass::Slow);
        assert_eq!(SpeedClass::from_speed(1.5), SpeedClass::Medium);
        assert_eq!(SpeedClass::from_speed(3.0), SpeedClass::Fast);
        assert_eq!(SpeedClass::Fast.to_string(), "fast");
    }

    #[test]
    fn sequence_from_scene_has_aligned_ground_truth() {
        let scene = Scene::new(
            80,
            48,
            Texture::Blobs {
                lo: 50,
                hi: 200,
                scale: 8.0,
            },
            3,
        )
        .with_object(SceneObject {
            shape: Shape::Ellipse { rx: 7.0, ry: 5.0 },
            trajectory: Trajectory::Linear {
                start: Point::new(30.0, 24.0),
                vel: Vec2::new(2.0, 0.0),
            },
            deformation: Deformation::None,
            texture: Texture::Checker {
                a: 240,
                b: 30,
                cell: 2,
            },
            seed: 5,
        });
        let seq = Sequence::from_scene("probe", &scene, 10);
        assert_eq!(seq.len(), 10);
        assert!(!seq.is_empty());
        assert_eq!(seq.width(), 80);
        assert_eq!(seq.height(), 48);
        assert_eq!(seq.gt_masks.len(), 10);
        assert_eq!(seq.gt_boxes.len(), 10);
        for t in 0..10 {
            assert_eq!(seq.gt_masks[t].bounding_box(), Some(seq.gt_boxes[t][0]));
        }
        // Normalised speed: 2 px/frame at width 80 -> 4.0 at width 160.
        assert!((seq.norm_speed - 4.0).abs() < 0.1, "{}", seq.norm_speed);
        assert_eq!(seq.speed_class(), SpeedClass::Fast);
    }
}
