//! Dense flow estimation: coarse block matching + bilinear densification.
//!
//! This is the FlowNet stand-in used by the DFF baseline. It computes a
//! backward flow (current → reference) by exhaustively matching overlapping
//! blocks with a motion-cost penalty, then bilinearly interpolating the block
//! motions into a per-pixel field. The estimator's accuracy/failure profile
//! matches what DFF needs: accurate for translational motion, drifting for
//! deformation — which is exactly the trade-off the paper measures against.

use crate::field::FlowField;
use vrd_video::Frame;

/// Matching block size in pixels.
const BLOCK: usize = 8;
/// Block grid stride in pixels (smaller = denser, slower).
const STRIDE: usize = 8;
/// Exhaustive search range in pixels.
const RANGE: i32 = 10;
/// Motion-cost penalty per offset pixel (anti-aliasing on periodic
/// textures).
const LAMBDA: u32 = 24;

/// Sum of absolute differences between a block of `cur` and `reference`,
/// `u32::MAX` when out of bounds.
fn sad(cur: &Frame, cx: usize, cy: usize, reference: &Frame, rx: i32, ry: i32) -> u32 {
    if rx < 0
        || ry < 0
        || rx as usize + BLOCK > reference.width()
        || ry as usize + BLOCK > reference.height()
    {
        return u32::MAX;
    }
    let (rx, ry) = (rx as usize, ry as usize);
    let mut total = 0u32;
    for row in 0..BLOCK {
        for col in 0..BLOCK {
            let a = cur.get(cx + col, cy + row) as i32;
            let b = reference.get(rx + col, ry + row) as i32;
            total += (a - b).unsigned_abs();
        }
    }
    total
}

/// Estimates the dense backward flow from `cur` to `reference`.
///
/// # Panics
/// Panics if the frames differ in size or are smaller than one block.
pub fn estimate(cur: &Frame, reference: &Frame) -> FlowField {
    assert_eq!(cur.width(), reference.width(), "frame width mismatch");
    assert_eq!(cur.height(), reference.height(), "frame height mismatch");
    let (w, h) = (cur.width(), cur.height());
    assert!(
        w >= BLOCK && h >= BLOCK,
        "frame smaller than one flow block"
    );

    // Block-grid motion estimation.
    let gx = (w - BLOCK) / STRIDE + 1;
    let gy = (h - BLOCK) / STRIDE + 1;
    let mut grid_dx = vec![0.0f32; gx * gy];
    let mut grid_dy = vec![0.0f32; gx * gy];
    for by in 0..gy {
        for bx in 0..gx {
            let px = bx * STRIDE;
            let py = by * STRIDE;
            let mut best = (0i32, 0i32, u32::MAX);
            for dy in -RANGE..=RANGE {
                for dx in -RANGE..=RANGE {
                    let s = sad(cur, px, py, reference, px as i32 + dx, py as i32 + dy);
                    if s == u32::MAX {
                        continue;
                    }
                    let cost = s + LAMBDA * (dx.unsigned_abs() + dy.unsigned_abs());
                    if cost < best.2 {
                        best = (dx, dy, cost);
                    }
                }
            }
            grid_dx[by * gx + bx] = best.0 as f32;
            grid_dy[by * gx + bx] = best.1 as f32;
        }
    }

    // Bilinear densification from block centres to pixels.
    let mut field = FlowField::zeros(w, h);
    let centre = (BLOCK / 2) as f32;
    for y in 0..h {
        for x in 0..w {
            // Position in grid coordinates.
            let gxf = ((x as f32 - centre) / STRIDE as f32).clamp(0.0, (gx - 1) as f32);
            let gyf = ((y as f32 - centre) / STRIDE as f32).clamp(0.0, (gy - 1) as f32);
            let x0 = gxf.floor() as usize;
            let y0 = gyf.floor() as usize;
            let x1 = (x0 + 1).min(gx - 1);
            let y1 = (y0 + 1).min(gy - 1);
            let fx = gxf - x0 as f32;
            let fy = gyf - y0 as f32;
            let lerp = |g: &[f32]| {
                let top = g[y0 * gx + x0] + (g[y0 * gx + x1] - g[y0 * gx + x0]) * fx;
                let bot = g[y1 * gx + x0] + (g[y1 * gx + x1] - g[y1 * gx + x0]) * fx;
                top + (bot - top) * fy
            };
            field.set(x, y, lerp(&grid_dx), lerp(&grid_dy));
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_video::davis::{davis_sequence, SuiteConfig};

    #[test]
    fn recovers_global_translation() {
        // Take a rendered frame and its 3-pixel-right shift; the estimated
        // backward flow should be about (-3, 0) everywhere.
        let seq = davis_sequence("cows", &SuiteConfig::tiny()).unwrap();
        let base = &seq.frames[0];
        let (w, h) = (base.width(), base.height());
        let mut shifted = base.clone();
        for y in 0..h {
            for x in 0..w {
                shifted.set(x, y, base.get_clamped(x as i32 - 3, y as i32));
            }
        }
        let flow = estimate(&shifted, base);
        // Ignore a border band where clamping distorts the content.
        let mut ok = 0;
        let mut total = 0;
        for y in 8..h - 8 {
            for x in 8..w - 8 {
                let (dx, dy) = flow.get(x, y);
                total += 1;
                if (dx + 3.0).abs() < 1.0 && dy.abs() < 1.0 {
                    ok += 1;
                }
            }
        }
        // Flat background patches are ambiguous under SAD (any offset
        // matches), and the motion-cost penalty keeps them at zero flow, so
        // full recovery is not expected — 70% covers all textured content.
        assert!(
            ok as f64 / total as f64 > 0.70,
            "only {ok}/{total} pixels recovered the shift"
        );
    }

    #[test]
    fn identical_frames_give_zero_flow() {
        let seq = davis_sequence("cows", &SuiteConfig::tiny()).unwrap();
        let flow = estimate(&seq.frames[0], &seq.frames[0]);
        let (w, h) = (flow.width(), flow.height());
        let sum: f64 = (0..h)
            .flat_map(|y| (0..w).map(move |x| (x, y)))
            .map(|(x, y)| {
                let (dx, dy) = flow.get(x, y);
                f64::from(dx).hypot(f64::from(dy))
            })
            .sum();
        let mean = sum / (w * h) as f64;
        assert!(mean < 0.05, "mean flow magnitude {mean}");
    }

    #[test]
    fn tracks_a_moving_object_better_than_identity() {
        let seq = davis_sequence("drift-straight", &SuiteConfig::tiny()).unwrap();
        let (a, b) = (&seq.frames[4], &seq.frames[0]);
        let flow = estimate(a, b);
        // Warping frame 0 toward frame 4 must be closer to frame 4 than
        // frame 0 itself is.
        let warped = flow.warp_frame(b);
        assert!(warped.mean_abs_diff(a) < b.mean_abs_diff(a));
    }

    #[test]
    fn camera_pan_is_recovered_as_uniform_flow() {
        use vrd_video::{Scene, Sequence, Texture, Vec2};
        let scene = Scene::new(
            64,
            48,
            Texture::Blobs {
                lo: 50,
                hi: 200,
                scale: 7.0,
            },
            3,
        )
        .with_camera_pan(Vec2::new(2.0, 0.0));
        let seq = Sequence::from_scene("pan", &scene, 4);
        let flow = estimate(&seq.frames[1], &seq.frames[0]);
        // A camera pan of +2 samples the background at x + 2t, so screen
        // content slides *left* by 2 px/frame: the backward flow is (+2, 0).
        let (mut ok, mut total) = (0, 0);
        for y in 8..40 {
            for x in 8..56 {
                let (dx, dy) = flow.get(x, y);
                total += 1;
                if (dx - 2.0).abs() < 1.0 && dy.abs() < 1.0 {
                    ok += 1;
                }
            }
        }
        assert!(ok * 10 > total * 7, "pan recovered on {ok}/{total} pixels");
    }

    #[test]
    #[should_panic(expected = "frame smaller than one flow block")]
    fn rejects_undersized_frames() {
        let f = Frame::new(4, 4);
        let _ = estimate(&f, &f);
    }
}
