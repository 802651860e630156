//! Luma frame raster. The segmentation rasters ([`crate::mask::SegMask`],
//! [`crate::mask::Seg2Plane`]) are bit-packed and live in [`crate::mask`].
//!
//! The codec and the recognition pipelines operate on single-channel luma
//! frames. The paper's memory-traffic accounting assumes 24-bit colour
//! pixels; that accounting lives in the simulator's traffic model so the
//! algorithmic crates can stay single-channel without distorting the
//! DRAM-traffic comparison.

/// A single-channel 8-bit raster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Frame {
    /// Creates a black frame of the given dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        Self {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Wraps an existing pixel buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        assert_eq!(data.len(), width * height, "pixel buffer size mismatch");
        Self {
            width,
            height,
            data,
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw pixel slice in row-major order.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw pixel slice in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    /// Pixel value at `(x, y)`, clamping coordinates into the frame.
    #[inline]
    pub fn get_clamped(&self, x: i32, y: i32) -> u8 {
        let cx = x.clamp(0, self.width as i32 - 1) as usize;
        let cy = y.clamp(0, self.height as i32 - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.data[y * self.width + x] = v;
    }

    /// Mean absolute difference against another frame of identical size.
    ///
    /// Used by the auto-GOP heuristic to estimate motion intensity.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn mean_abs_diff(&self, other: &Frame) -> f64 {
        assert_eq!(self.width, other.width, "frame width mismatch");
        assert_eq!(self.height, other.height, "frame height mismatch");
        let sum: u64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as i32 - b as i32).unsigned_abs() as u64)
            .sum();
        sum as f64 / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_clamping() {
        let mut f = Frame::new(4, 3);
        f.set(3, 2, 77);
        assert_eq!(f.get(3, 2), 77);
        assert_eq!(f.get_clamped(100, 100), 77);
        assert_eq!(f.get_clamped(-5, -5), f.get(0, 0));
        assert_eq!(f.as_slice().len(), 12);
    }

    #[test]
    #[should_panic(expected = "pixel buffer size mismatch")]
    fn frame_from_vec_validates_len() {
        let _ = Frame::from_vec(4, 3, vec![0; 11]);
    }

    #[test]
    fn frame_mean_abs_diff() {
        let a = Frame::from_vec(2, 2, vec![0, 10, 20, 30]);
        let b = Frame::from_vec(2, 2, vec![10, 10, 10, 10]);
        assert!((a.mean_abs_diff(&b) - (10.0 + 0.0 + 10.0 + 20.0) / 4.0).abs() < 1e-9);
        assert_eq!(a.mean_abs_diff(&a), 0.0);
    }
}
