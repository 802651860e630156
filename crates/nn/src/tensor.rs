//! A minimal CHW float tensor.

use vrd_video::SegMask;

/// A dense `channels × height × width` tensor of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero tensor.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        assert!(
            c > 0 && h > 0 && w > 0,
            "tensor dimensions must be non-zero"
        );
        Self {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != c * h * w` or any dimension is zero.
    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert!(
            c > 0 && h > 0 && w > 0,
            "tensor dimensions must be non-zero"
        );
        assert_eq!(data.len(), c * h * w, "tensor buffer size mismatch");
        Self { c, h, w, data }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice (channel-major, then row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at `(c, y, x)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[(c * self.h + y) * self.w + x]
    }

    /// Sets the value at `(c, y, x)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        self.data[(c * self.h + y) * self.w + x] = v;
    }

    /// One channel as a slice.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    pub fn channel(&self, c: usize) -> &[f32] {
        assert!(c < self.c, "channel out of range");
        &self.data[c * self.h * self.w..(c + 1) * self.h * self.w]
    }

    /// Converts a binary mask into a 1-channel 0.0/1.0 tensor via the
    /// packed word-at-a-time expansion.
    pub fn from_mask(mask: &SegMask) -> Tensor {
        let mut data = vec![0.0; mask.height() * mask.width()];
        mask.expand_f32_into(&mut data);
        Tensor::from_vec(1, mask.height(), mask.width(), data)
    }

    /// Thresholds a 1-channel tensor of probabilities into a mask, packing
    /// bits directly without an intermediate byte buffer.
    ///
    /// # Panics
    /// Panics if the tensor has more than one channel.
    pub fn to_mask(&self, threshold: f32) -> SegMask {
        assert_eq!(self.c, 1, "to_mask needs a single-channel tensor");
        SegMask::from_bits(self.w, self.h, self.data.iter().map(|&v| v > threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_video::Rect;

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(2, 3, 4);
        t.set(1, 2, 3, 7.5);
        assert_eq!(t.get(1, 2, 3), 7.5);
        assert_eq!(t.len(), 24);
        assert!(!t.is_empty());
        assert_eq!(t.channel(1)[2 * 4 + 3], 7.5);
    }

    #[test]
    fn mask_conversions() {
        let mut m = SegMask::new(4, 4);
        m.fill_rect(Rect::new(1, 1, 3, 3));
        let t = Tensor::from_mask(&m);
        assert_eq!(t.get(0, 1, 1), 1.0);
        assert_eq!(t.get(0, 0, 0), 0.0);
        let back = t.to_mask(0.5);
        assert_eq!(back, m);
    }

    #[test]
    #[should_panic(expected = "tensor buffer size mismatch")]
    fn from_vec_validates() {
        let _ = Tensor::from_vec(1, 2, 2, vec![0.0; 5]);
    }
}
