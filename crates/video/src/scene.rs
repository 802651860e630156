//! Scene composition and rendering.
//!
//! A [`Scene`] is a background plus an ordered list of [`SceneObject`]s.
//! Rendering frame `t` produces the raw luma frame, the pixel-exact
//! ground-truth segmentation mask, and the per-object ground-truth boxes —
//! the three artefacts every experiment in the paper needs (raw video for
//! the encoder, masks for IoU/F-score, boxes for mAP).

use crate::frame::Frame;
use crate::geom::{Rect, Vec2};
use crate::mask::SegMask;
use crate::object::SceneObject;
use crate::texture::Texture;

/// A complete synthetic scene.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    width: usize,
    height: usize,
    background: Texture,
    /// Background drift per frame (camera pan), in pixels.
    camera_pan: Vec2,
    /// Global lighting drift: `(relative amplitude, period in frames)`.
    lighting: Option<(f32, f32)>,
    objects: Vec<SceneObject>,
    seed: u64,
}

/// Everything produced by rendering one frame of a scene.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedFrame {
    /// Raw luma frame (the encoder input).
    pub frame: Frame,
    /// Pixel-exact foreground mask (the segmentation ground truth).
    pub mask: SegMask,
    /// Tight per-object bounding boxes (the detection ground truth). Objects
    /// entirely off screen contribute no box.
    pub boxes: Vec<Rect>,
}

impl Scene {
    /// Creates an empty scene over the given canvas.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, background: Texture, seed: u64) -> Self {
        assert!(width > 0 && height > 0, "scene dimensions must be non-zero");
        Self {
            width,
            height,
            background,
            camera_pan: Vec2::default(),
            lighting: None,
            objects: Vec::new(),
            seed,
        }
    }

    /// Sets a constant camera pan (background drift per frame).
    pub fn with_camera_pan(mut self, pan: Vec2) -> Self {
        self.camera_pan = pan;
        self
    }

    /// Adds a sinusoidal global lighting drift: every rendered pixel is
    /// scaled by `1 + amp * sin(2*pi*t / period)`. Brightness changes stress
    /// the codec's SAE matching (a real-footage phenomenon: exposure and
    /// cloud-cover changes) while leaving the geometry — and therefore the
    /// ground truth — untouched.
    pub fn with_lighting(mut self, amp: f32, period: f32) -> Self {
        self.lighting = Some((amp, period.max(1.0)));
        self
    }

    /// Appends a foreground object (later objects occlude earlier ones).
    pub fn with_object(mut self, obj: SceneObject) -> Self {
        self.objects.push(obj);
        self
    }

    /// Scene width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Scene height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The foreground objects in paint order.
    pub fn objects(&self) -> &[SceneObject] {
        &self.objects
    }

    /// Renders frame `t` of the scene.
    pub fn render(&self, t: usize) -> RenderedFrame {
        let tf = t as f32;
        let mut frame = Frame::new(self.width, self.height);
        let mut mask = SegMask::new(self.width, self.height);

        // Background with camera pan.
        let ox = self.camera_pan.dx * tf;
        let oy = self.camera_pan.dy * tf;
        for y in 0..self.height {
            for x in 0..self.width {
                let v = self
                    .background
                    .sample(x as f32 + ox, y as f32 + oy, self.seed);
                frame.set(x, y, v);
            }
        }

        // Objects, in paint order; later objects overwrite earlier ones.
        let mut boxes = Vec::with_capacity(self.objects.len());
        for obj in &self.objects {
            let bb = obj.bounding_box(tf).clamped(self.width, self.height);
            let mut tight: Option<Rect> = None;
            for y in bb.y0..bb.y1 {
                for x in bb.x0..bb.x1 {
                    // Sample at the pixel centre.
                    let fx = x as f32 + 0.5;
                    let fy = y as f32 + 0.5;
                    if obj.contains(fx, fy, tf) {
                        frame.set(x as usize, y as usize, obj.sample(fx, fy, tf));
                        mask.set(x as usize, y as usize, 1);
                        let px = Rect::new(x, y, x + 1, y + 1);
                        tight = Some(match tight {
                            Some(r) => r.union(&px),
                            None => px,
                        });
                    }
                }
            }
            if let Some(r) = tight {
                boxes.push(r);
            }
        }

        // Global lighting drift, applied uniformly after composition.
        if let Some((amp, period)) = self.lighting {
            let gain = 1.0 + amp * (2.0 * std::f32::consts::PI * tf / period).sin();
            for v in frame.as_mut_slice() {
                *v = (*v as f32 * gain).clamp(0.0, 255.0) as u8;
            }
        }

        RenderedFrame { frame, mask, boxes }
    }

    /// Mean per-frame object speed (pixels/frame), averaged over objects.
    pub(crate) fn mean_object_speed(&self, n_frames: usize) -> f32 {
        if self.objects.is_empty() {
            return 0.0;
        }
        let sum: f32 = self
            .objects
            .iter()
            .map(|o| o.trajectory.mean_speed(n_frames))
            .sum();
        sum / self.objects.len() as f32 + self.camera_pan.norm()
    }

    /// Maximum deformation intensity across objects (0 = all rigid).
    pub(crate) fn deformation_intensity(&self) -> f32 {
        self.objects
            .iter()
            .map(|o| o.deformation.intensity())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;
    use crate::object::{Deformation, Shape, Trajectory};

    fn test_scene() -> Scene {
        Scene::new(
            64,
            48,
            Texture::Blobs {
                lo: 60,
                hi: 180,
                scale: 10.0,
            },
            7,
        )
        .with_object(SceneObject {
            shape: Shape::Ellipse { rx: 8.0, ry: 5.0 },
            trajectory: Trajectory::Linear {
                start: Point::new(20.0, 24.0),
                vel: Vec2::new(1.5, 0.0),
            },
            deformation: Deformation::None,
            texture: Texture::Stripes {
                a: 230,
                b: 20,
                period: 3,
            },
            seed: 11,
        })
    }

    #[test]
    fn render_is_deterministic() {
        let s = test_scene();
        let a = s.render(5);
        let b = s.render(5);
        assert_eq!(a.frame, b.frame);
        assert_eq!(a.mask, b.mask);
        assert_eq!(a.boxes, b.boxes);
    }

    #[test]
    fn mask_matches_box_and_moves() {
        let s = test_scene();
        let r0 = s.render(0);
        let r4 = s.render(4);
        assert!(r0.mask.count_ones() > 50, "object should cover pixels");
        let b0 = r0.boxes[0];
        let b4 = r4.boxes[0];
        // The object moved right by ~6 pixels over 4 frames.
        assert!(b4.x0 > b0.x0 + 3, "object did not move: {b0:?} -> {b4:?}");
        // The ground-truth box is exactly the mask's bounding box for a
        // single-object scene.
        assert_eq!(r0.mask.bounding_box(), Some(b0));
    }

    #[test]
    fn object_pixels_are_marked_in_mask() {
        let s = test_scene();
        let r = s.render(2);
        for y in 0..48 {
            for x in 0..64 {
                let inside = s.objects()[0].contains(x as f32 + 0.5, y as f32 + 0.5, 2.0);
                assert_eq!(r.mask.get(x, y) == 1, inside, "mismatch at ({x},{y})");
            }
        }
    }

    #[test]
    fn later_objects_occlude_earlier() {
        let s = test_scene().with_object(SceneObject {
            shape: Shape::Box { hw: 4.0, hh: 4.0 },
            trajectory: Trajectory::Linear {
                start: Point::new(20.0, 24.0),
                vel: Vec2::new(1.5, 0.0),
            },
            deformation: Deformation::None,
            texture: Texture::Noise {
                level: 255,
                amp: 0.0,
            },
            seed: 3,
        });
        let r = s.render(0);
        // Centre pixel belongs to the second object (drawn last).
        assert_eq!(r.frame.get(20, 24), 255);
        assert_eq!(r.boxes.len(), 2);
    }

    #[test]
    fn lighting_drift_scales_pixels_but_not_ground_truth() {
        let plain = test_scene();
        let lit = test_scene().with_lighting(0.3, 8.0);
        // At t = 2 the sinusoid is at sin(pi/2) = 1: gain 1.3.
        let a = plain.render(2);
        let b = lit.render(2);
        assert_eq!(a.mask, b.mask, "lighting must not move the ground truth");
        assert_eq!(a.boxes, b.boxes);
        let mean = |f: &crate::frame::Frame| {
            f.as_slice().iter().map(|&v| v as f64).sum::<f64>() / f.as_slice().len() as f64
        };
        assert!(
            mean(&b.frame) > mean(&a.frame) * 1.15,
            "gain not applied: {} vs {}",
            mean(&b.frame),
            mean(&a.frame)
        );
        // At t = 0 the gain is 1: identical frames.
        assert_eq!(plain.render(0).frame, lit.render(0).frame);
    }

    #[test]
    fn camera_pan_changes_background() {
        let static_scene = test_scene();
        let panned = test_scene().with_camera_pan(Vec2::new(2.0, 0.0));
        let a = panned.render(0);
        let b = panned.render(3);
        // Background at t=3 equals background at t=0 shifted by 6 px.
        assert_eq!(a.frame.get(16, 5), b.frame.get(10, 5));
        assert!(static_scene.mean_object_speed(16) < panned.mean_object_speed(16));
    }

    #[test]
    fn speed_and_deformation_stats() {
        let s = test_scene();
        assert!((s.mean_object_speed(16) - 1.5).abs() < 0.05);
        assert_eq!(s.deformation_intensity(), 0.0);
        let d = Scene::new(
            32,
            32,
            Texture::Noise {
                level: 90,
                amp: 8.0,
            },
            1,
        )
        .with_object(SceneObject {
            shape: Shape::Ellipse { rx: 5.0, ry: 5.0 },
            trajectory: Trajectory::Linear {
                start: Point::new(16.0, 16.0),
                vel: Vec2::new(0.0, 0.0),
            },
            deformation: Deformation::Pulse {
                amp: 0.4,
                period: 6.0,
            },
            texture: Texture::Noise {
                level: 200,
                amp: 5.0,
            },
            seed: 9,
        });
        assert!((d.deformation_intensity() - 0.4).abs() < 1e-6);
    }
}
