//! Moving foreground objects: shape, trajectory, deformation and appearance.
//!
//! Every quantity is an analytic function of the frame index, so a scene can
//! be sampled at any time without accumulating state, and rendering is fully
//! deterministic.

use crate::geom::{Point, Rect, Vec2};
use crate::texture::Texture;

/// Object silhouette in object-local coordinates (origin at the centre).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Axis-aligned ellipse with the given radii.
    Ellipse {
        /// Horizontal radius in pixels.
        rx: f32,
        /// Vertical radius in pixels.
        ry: f32,
    },
    /// Rectangle with the given half-extents.
    Box {
        /// Half-width in pixels.
        hw: f32,
        /// Half-height in pixels.
        hh: f32,
    },
    /// A lobed blob: radius `r0 * (1 + lobe_amp * sin(lobes * theta))`.
    ///
    /// Produces non-convex, articulated-looking silhouettes (dancers,
    /// animals) whose boundary is hard for block-level reconstruction —
    /// exactly the cases the paper's NN-S refinement exists for.
    Blob {
        /// Base radius in pixels.
        r0: f32,
        /// Number of lobes around the perimeter.
        lobes: u32,
        /// Relative lobe amplitude (0 = circle).
        lobe_amp: f32,
    },
}

impl Shape {
    /// Whether the object-local point is inside the silhouette.
    pub(crate) fn contains_local(&self, x: f32, y: f32) -> bool {
        match *self {
            Shape::Ellipse { rx, ry } => {
                let (rx, ry) = (rx.max(0.5), ry.max(0.5));
                (x / rx).powi(2) + (y / ry).powi(2) <= 1.0
            }
            Shape::Box { hw, hh } => x.abs() <= hw && y.abs() <= hh,
            Shape::Blob {
                r0,
                lobes,
                lobe_amp,
            } => {
                let r = (x * x + y * y).sqrt();
                let theta = y.atan2(x);
                let bound = r0 * (1.0 + lobe_amp * (lobes as f32 * theta).sin());
                r <= bound.max(0.5)
            }
        }
    }

    /// Radius of a circle guaranteed to contain the unscaled silhouette.
    pub(crate) fn bounding_radius(&self) -> f32 {
        match *self {
            Shape::Ellipse { rx, ry } => rx.max(ry),
            Shape::Box { hw, hh } => (hw * hw + hh * hh).sqrt(),
            Shape::Blob { r0, lobe_amp, .. } => r0 * (1.0 + lobe_amp.abs()),
        }
    }
}

/// Motion of the object centre as a function of the frame index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trajectory {
    /// Constant-velocity motion.
    Linear {
        /// Position at frame 0.
        start: Point,
        /// Displacement per frame.
        vel: Vec2,
    },
    /// Constant-velocity motion reflected off the walls of a `w`×`h` frame
    /// (with a safety `margin`), keeping the object on screen forever.
    Bounce {
        /// Position at frame 0.
        start: Point,
        /// Displacement per frame.
        vel: Vec2,
        /// Frame width in pixels.
        w: f32,
        /// Frame height in pixels.
        h: f32,
        /// Minimum distance from the walls.
        margin: f32,
    },
    /// Linear drift plus a vertical sinusoid (gallops, jumps, waves).
    Sinusoid {
        /// Position at frame 0.
        start: Point,
        /// Displacement per frame.
        vel: Vec2,
        /// Sinusoid amplitude in pixels.
        amp: f32,
        /// Sinusoid period in frames.
        period: f32,
    },
    /// Circular orbit (roundabouts, twirls).
    Circular {
        /// Orbit centre.
        center: Point,
        /// Orbit radius in pixels.
        radius: f32,
        /// Angular velocity in radians per frame.
        omega: f32,
        /// Phase at frame 0 in radians.
        phase: f32,
    },
}

/// Reflects `x` into `[lo, hi]` as if bouncing between two walls.
fn reflect(x: f32, lo: f32, hi: f32) -> f32 {
    if hi <= lo {
        return lo;
    }
    let span = hi - lo;
    let t = (x - lo).rem_euclid(2.0 * span);
    if t <= span {
        lo + t
    } else {
        lo + 2.0 * span - t
    }
}

impl Trajectory {
    /// Object-centre position at frame `t`.
    pub fn position(&self, t: f32) -> Point {
        match *self {
            Trajectory::Linear { start, vel } => start.offset(vel.scaled(t)),
            Trajectory::Bounce {
                start,
                vel,
                w,
                h,
                margin,
            } => {
                let raw = start.offset(vel.scaled(t));
                Point::new(
                    reflect(raw.x, margin, w - margin),
                    reflect(raw.y, margin, h - margin),
                )
            }
            Trajectory::Sinusoid {
                start,
                vel,
                amp,
                period,
            } => {
                let p = start.offset(vel.scaled(t));
                let phase = 2.0 * std::f32::consts::PI * t / period.max(1.0);
                Point::new(p.x, p.y + amp * phase.sin())
            }
            Trajectory::Circular {
                center,
                radius,
                omega,
                phase,
            } => {
                let a = phase + omega * t;
                Point::new(center.x + radius * a.cos(), center.y + radius * a.sin())
            }
        }
    }

    /// Mean per-frame displacement magnitude over `n` frames, used to
    /// classify sequences into the paper's fast/medium/slow groups.
    pub(crate) fn mean_speed(&self, n: usize) -> f32 {
        let n = n.max(2);
        let mut total = 0.0;
        for t in 1..n {
            let a = self.position(t as f32 - 1.0);
            let b = self.position(t as f32);
            total += a.distance(b);
        }
        total / (n - 1) as f32
    }
}

/// Time-varying shape distortion (non-rigid motion).
///
/// Deformation is what breaks pure motion-vector propagation: a translated
/// block cannot represent a silhouette that changed shape, so sequences with
/// strong deformation (`breakdance`, `bmx-trees`, `motocross-jump` in the
/// paper) lose accuracy under reconstruction and rely on NN-S.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deformation {
    /// Rigid object.
    None,
    /// Isotropic size pulsing: scale `1 + amp * sin(2*pi*t / period)`.
    Pulse {
        /// Relative amplitude of the pulsing.
        amp: f32,
        /// Period in frames.
        period: f32,
    },
    /// Constant rotation at `omega` radians per frame.
    Spin {
        /// Angular velocity in radians per frame.
        omega: f32,
    },
    /// Pulse and spin combined (dramatic deformation).
    PulseSpin {
        /// Relative amplitude of the pulsing.
        amp: f32,
        /// Pulse period in frames.
        period: f32,
        /// Angular velocity in radians per frame.
        omega: f32,
    },
}

impl Deformation {
    /// `(scale, angle)` at frame `t`.
    pub fn at(&self, t: f32) -> (f32, f32) {
        match *self {
            Deformation::None => (1.0, 0.0),
            Deformation::Pulse { amp, period } => {
                let s = 1.0 + amp * (2.0 * std::f32::consts::PI * t / period.max(1.0)).sin();
                (s.max(0.1), 0.0)
            }
            Deformation::Spin { omega } => (1.0, omega * t),
            Deformation::PulseSpin { amp, period, omega } => {
                let s = 1.0 + amp * (2.0 * std::f32::consts::PI * t / period.max(1.0)).sin();
                (s.max(0.1), omega * t)
            }
        }
    }

    /// Scalar deformation intensity (0 = rigid) used by scene statistics.
    pub fn intensity(&self) -> f32 {
        match *self {
            Deformation::None => 0.0,
            Deformation::Pulse { amp, .. } => amp.abs(),
            Deformation::Spin { omega } => omega.abs() * 10.0,
            Deformation::PulseSpin { amp, omega, .. } => amp.abs() + omega.abs() * 10.0,
        }
    }
}

/// One foreground object in a scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneObject {
    /// Silhouette in object-local coordinates.
    pub shape: Shape,
    /// Centre motion over time.
    pub trajectory: Trajectory,
    /// Non-rigid deformation over time.
    pub deformation: Deformation,
    /// Appearance, sampled in object-local coordinates so the texture moves
    /// rigidly with the object (this is what makes SAE block matching lock
    /// onto it).
    pub texture: Texture,
    /// Per-object texture seed.
    pub seed: u64,
}

impl SceneObject {
    /// Conservative bounding box of the object at frame `t`.
    pub fn bounding_box(&self, t: f32) -> Rect {
        let c = self.trajectory.position(t);
        let (scale, _) = self.deformation.at(t);
        let r = self.shape.bounding_radius() * scale + 1.0;
        Rect::new(
            (c.x - r).floor() as i32,
            (c.y - r).floor() as i32,
            (c.x + r).ceil() as i32,
            (c.y + r).ceil() as i32,
        )
    }

    /// Whether pixel centre `(x, y)` is inside the object at frame `t`.
    pub fn contains(&self, x: f32, y: f32, t: f32) -> bool {
        let c = self.trajectory.position(t);
        let (scale, angle) = self.deformation.at(t);
        let dx = x - c.x;
        let dy = y - c.y;
        let (sin, cos) = (-angle).sin_cos();
        let lx = (dx * cos - dy * sin) / scale;
        let ly = (dx * sin + dy * cos) / scale;
        self.shape.contains_local(lx, ly)
    }

    /// Appearance at pixel `(x, y)` at frame `t` (call only when `contains`).
    pub fn sample(&self, x: f32, y: f32, t: f32) -> u8 {
        let c = self.trajectory.position(t);
        let (scale, angle) = self.deformation.at(t);
        let dx = x - c.x;
        let dy = y - c.y;
        let (sin, cos) = (-angle).sin_cos();
        let lx = (dx * cos - dy * sin) / scale;
        let ly = (dx * sin + dy * cos) / scale;
        // Offset into positive texture space for stability of integer hashes.
        self.texture.sample(lx + 512.0, ly + 512.0, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ellipse_and_box_membership() {
        let e = Shape::Ellipse { rx: 4.0, ry: 2.0 };
        assert!(e.contains_local(3.9, 0.0));
        assert!(!e.contains_local(0.0, 2.5));
        let b = Shape::Box { hw: 3.0, hh: 1.0 };
        assert!(b.contains_local(-3.0, 1.0));
        assert!(!b.contains_local(-3.1, 0.0));
    }

    #[test]
    fn blob_reduces_to_circle_without_lobes() {
        let blob = Shape::Blob {
            r0: 5.0,
            lobes: 6,
            lobe_amp: 0.0,
        };
        assert!(blob.contains_local(4.9, 0.0));
        assert!(!blob.contains_local(5.1, 0.0));
        assert!(blob.bounding_radius() >= 5.0);
    }

    #[test]
    fn linear_and_sinusoid_positions() {
        let lin = Trajectory::Linear {
            start: Point::new(10.0, 20.0),
            vel: Vec2::new(2.0, -1.0),
        };
        assert_eq!(lin.position(5.0), Point::new(20.0, 15.0));
        let sin = Trajectory::Sinusoid {
            start: Point::new(0.0, 0.0),
            vel: Vec2::new(1.0, 0.0),
            amp: 10.0,
            period: 4.0,
        };
        // At t = period the sinusoid completes a cycle.
        let p = sin.position(4.0);
        assert!((p.y).abs() < 1e-4);
        assert!((p.x - 4.0).abs() < 1e-6);
    }

    #[test]
    fn bounce_stays_in_bounds() {
        let tr = Trajectory::Bounce {
            start: Point::new(10.0, 10.0),
            vel: Vec2::new(7.3, 5.1),
            w: 64.0,
            h: 48.0,
            margin: 8.0,
        };
        for t in 0..500 {
            let p = tr.position(t as f32);
            assert!((8.0..=56.0).contains(&p.x), "x escaped at t={t}: {p:?}");
            assert!((8.0..=40.0).contains(&p.y), "y escaped at t={t}: {p:?}");
        }
    }

    #[test]
    fn circular_orbit_radius_is_constant() {
        let tr = Trajectory::Circular {
            center: Point::new(32.0, 24.0),
            radius: 10.0,
            omega: 0.3,
            phase: 1.0,
        };
        for t in 0..50 {
            let p = tr.position(t as f32);
            let r = p.distance(Point::new(32.0, 24.0));
            assert!((r - 10.0).abs() < 1e-3);
        }
    }

    #[test]
    fn mean_speed_matches_linear_velocity() {
        let tr = Trajectory::Linear {
            start: Point::new(0.0, 0.0),
            vel: Vec2::new(3.0, 4.0),
        };
        assert!((tr.mean_speed(20) - 5.0).abs() < 1e-4);
    }

    #[test]
    fn deformation_scale_and_angle() {
        let (s, a) = Deformation::None.at(13.0);
        assert_eq!((s, a), (1.0, 0.0));
        let (s, _) = Deformation::Pulse {
            amp: 0.5,
            period: 4.0,
        }
        .at(1.0);
        assert!((s - 1.5).abs() < 1e-5);
        let (_, a) = Deformation::Spin { omega: 0.2 }.at(5.0);
        assert!((a - 1.0).abs() < 1e-6);
        assert!(Deformation::None.intensity() == 0.0);
    }

    #[test]
    fn object_contains_respects_motion_and_rotation() {
        let obj = SceneObject {
            shape: Shape::Box { hw: 4.0, hh: 1.0 },
            trajectory: Trajectory::Linear {
                start: Point::new(20.0, 20.0),
                vel: Vec2::new(1.0, 0.0),
            },
            deformation: Deformation::Spin {
                omega: std::f32::consts::FRAC_PI_2,
            },
            texture: Texture::Noise {
                level: 200,
                amp: 10.0,
            },
            seed: 1,
        };
        // At t=0 the box is wide and flat.
        assert!(obj.contains(23.9, 20.0, 0.0));
        assert!(!obj.contains(20.0, 23.9, 0.0));
        // After a quarter-turn (t=1) it is tall and thin, and has moved by 1.
        assert!(obj.contains(21.0, 23.9, 1.0));
        assert!(!obj.contains(24.9, 20.0, 1.0));
    }

    #[test]
    fn object_bbox_contains_object() {
        let obj = SceneObject {
            shape: Shape::Ellipse { rx: 6.0, ry: 3.0 },
            trajectory: Trajectory::Linear {
                start: Point::new(30.0, 30.0),
                vel: Vec2::new(0.5, 0.25),
            },
            deformation: Deformation::Pulse {
                amp: 0.3,
                period: 8.0,
            },
            texture: Texture::Noise {
                level: 128,
                amp: 5.0,
            },
            seed: 2,
        };
        for t in 0..16 {
            let bb = obj.bounding_box(t as f32);
            for y in (bb.y0 - 2)..(bb.y1 + 2) {
                for x in (bb.x0 - 2)..(bb.x1 + 2) {
                    if obj.contains(x as f32, y as f32, t as f32) {
                        assert!(bb.contains(x, y), "pixel ({x},{y}) outside bbox at t={t}");
                    }
                }
            }
        }
    }
}
