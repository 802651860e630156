//! Dense optical-flow fields and warping.

use vrd_video::{Frame, SegMask};

/// A dense backward flow field: for every pixel of the *current* frame,
/// the displacement to its source position in the *reference* frame.
///
/// Backward orientation makes warping trivial and hole-free:
/// `out(x, y) = ref(x + dx(x, y), y + dy(x, y))`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowField {
    width: usize,
    height: usize,
    dx: Vec<f32>,
    dy: Vec<f32>,
}

impl FlowField {
    /// Creates a zero (identity) flow field.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "flow dimensions must be non-zero");
        Self {
            width,
            height,
            dx: vec![0.0; width * height],
            dy: vec![0.0; width * height],
        }
    }

    /// Field width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Field height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Displacement at `(x, y)`.
    ///
    /// # Panics
    /// Panics if coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> (f32, f32) {
        let i = y * self.width + x;
        (self.dx[i], self.dy[i])
    }

    /// Sets the displacement at `(x, y)`.
    ///
    /// # Panics
    /// Panics if coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, dx: f32, dy: f32) {
        let i = y * self.width + x;
        self.dx[i] = dx;
        self.dy[i] = dy;
    }

    /// Warps a reference segmentation mask into the current frame:
    /// each output pixel samples the mask at its flow source
    /// (nearest-neighbour, clamped at the borders).
    ///
    /// This is DFF's propagation step, applied to masks rather than deep
    /// feature maps (see `DESIGN.md` §2).
    ///
    /// # Panics
    /// Panics if the mask dimensions differ from the field's.
    pub fn warp_mask(&self, reference: &SegMask) -> SegMask {
        assert_eq!(reference.width(), self.width, "mask width mismatch");
        assert_eq!(reference.height(), self.height, "mask height mismatch");
        let mut out = SegMask::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let (dx, dy) = self.get(x, y);
                let sx = (x as f32 + dx).round() as i32;
                let sy = (y as f32 + dy).round() as i32;
                out.set(x, y, reference.get_clamped(sx, sy));
            }
        }
        out
    }

    /// Warps a reference luma frame into the current frame (bilinear).
    ///
    /// # Panics
    /// Panics if the frame dimensions differ from the field's.
    pub fn warp_frame(&self, reference: &Frame) -> Frame {
        assert_eq!(reference.width(), self.width, "frame width mismatch");
        assert_eq!(reference.height(), self.height, "frame height mismatch");
        let mut out = Frame::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let (dx, dy) = self.get(x, y);
                let sx = x as f32 + dx;
                let sy = y as f32 + dy;
                let x0 = sx.floor() as i32;
                let y0 = sy.floor() as i32;
                let fx = sx - x0 as f32;
                let fy = sy - y0 as f32;
                let p00 = reference.get_clamped(x0, y0) as f32;
                let p10 = reference.get_clamped(x0 + 1, y0) as f32;
                let p01 = reference.get_clamped(x0, y0 + 1) as f32;
                let p11 = reference.get_clamped(x0 + 1, y0 + 1) as f32;
                let top = p00 + (p10 - p00) * fx;
                let bot = p01 + (p11 - p01) * fx;
                out.set(
                    x,
                    y,
                    (top + (bot - top) * fy).round().clamp(0.0, 255.0) as u8,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_video::Rect;

    #[test]
    fn identity_flow_is_a_noop() {
        let mut mask = SegMask::new(16, 12);
        mask.fill_rect(Rect::new(4, 4, 8, 8));
        let flow = FlowField::zeros(16, 12);
        assert_eq!(flow.warp_mask(&mask), mask);
    }

    #[test]
    fn constant_flow_translates_mask() {
        let mut mask = SegMask::new(16, 12);
        mask.fill_rect(Rect::new(4, 4, 8, 8));
        let mut flow = FlowField::zeros(16, 12);
        for y in 0..12 {
            for x in 0..16 {
                // Backward flow of (-2, -1): content moves by (+2, +1).
                flow.set(x, y, -2.0, -1.0);
            }
        }
        let warped = flow.warp_mask(&mask);
        assert_eq!(warped.bounding_box(), Some(Rect::new(6, 5, 10, 9)));
    }

    #[test]
    fn warp_frame_is_bilinear_for_halfpixel() {
        let f = Frame::from_vec(4, 1, vec![0, 100, 200, 200]);
        let mut flow = FlowField::zeros(4, 1);
        flow.set(0, 0, 0.5, 0.0);
        let out = flow.warp_frame(&f);
        assert_eq!(out.get(0, 0), 50);
    }

    #[test]
    #[should_panic(expected = "mask width mismatch")]
    fn warp_rejects_mismatched_mask() {
        let flow = FlowField::zeros(8, 8);
        let mask = SegMask::new(4, 8);
        let _ = flow.warp_mask(&mask);
    }
}
