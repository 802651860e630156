//! Feature-space propagation: warping CHW feature maps with block motion
//! vectors from the bitstream.
//!
//! Jain & Gonzalez ("Fast Semantic Segmentation on Video Using Block
//! Motion-Based Feature Interpolation") propagate the *penultimate feature
//! tensor* of a segmentation network from key frames to non-key frames
//! using the codec's block motion, then run only the network head — a
//! fundamentally different accuracy/compute point than VR-DANN's
//! mask-space reconstruction. This module is the warp kernel that makes
//! that baseline possible: given a destination feature map, a macro-block
//! footprint in *pixel* coordinates and one or two reference feature maps
//! with pixel-space displacements, it resamples the reference features
//! into the destination block with edge-clamped bilinear taps.
//!
//! Coordinate convention: a block MV carries a displacement in **pixels**
//! (`src − dst`). Feature maps live at a coarser grid (`stride` pixels per
//! cell), so the displacement is scaled by `1/stride` into feature-cell
//! units before sampling — fractional displacements fall between cells and
//! are bilinearly blended, exactly the "block MVs are piecewise-constant
//! flow" approximation of the paper.
//!
//! The optimized kernel hoists the per-column tap indices/weights out of
//! the channel and row loops and samples whole rows through precomputed
//! slices; [`mod@reference`] retains the naive per-cell implementation with the
//! identical floating-point expression, and the proptest suite
//! (`tests/featwarp_equivalence.rs`) pins the two bit-exact.

use crate::tensor::Tensor;

/// Downsampling factor between pixels and feature cells for the staged
/// [`LargeNet`](crate::LargeNet): one feature cell summarises a
/// `FEATURE_STRIDE × FEATURE_STRIDE` pixel block.
pub const FEATURE_STRIDE: usize = 4;

/// Channel count of the staged backbone's output: one block-mean channel
/// plus one residual channel per in-block pixel offset.
pub const FEATURE_CHANNELS: usize = 1 + FEATURE_STRIDE * FEATURE_STRIDE;

/// A CHW feature tensor tied to the pixel frame it summarises.
///
/// `tensor` holds `channels × feat_h × feat_w` values where
/// `feat_w = ceil(frame_w / stride)` (same for height). Keeping the frame
/// geometry alongside the tensor lets the warp kernel scale pixel-space
/// motion vectors into feature-cell units without external bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMap {
    stride: usize,
    frame_w: usize,
    frame_h: usize,
    tensor: Tensor,
}

impl FeatureMap {
    /// Creates an all-zero feature map for a `frame_w × frame_h` frame.
    ///
    /// # Panics
    /// Panics if `stride` is zero or any dimension is zero.
    pub fn zeros(frame_w: usize, frame_h: usize, stride: usize, channels: usize) -> Self {
        assert!(stride > 0, "feature stride must be non-zero");
        let (fw, fh) = (frame_w.div_ceil(stride), frame_h.div_ceil(stride));
        Self {
            stride,
            frame_w,
            frame_h,
            tensor: Tensor::zeros(channels, fh, fw),
        }
    }

    /// Wraps an existing tensor whose spatial dims must match the frame
    /// geometry at the given stride.
    ///
    /// # Panics
    /// Panics if the tensor's height/width disagree with
    /// `ceil(frame / stride)`.
    pub(crate) fn from_tensor(
        frame_w: usize,
        frame_h: usize,
        stride: usize,
        tensor: Tensor,
    ) -> Self {
        assert!(stride > 0, "feature stride must be non-zero");
        assert_eq!(
            (tensor.width(), tensor.height()),
            (frame_w.div_ceil(stride), frame_h.div_ceil(stride)),
            "feature tensor does not match frame {frame_w}x{frame_h} at stride {stride}"
        );
        Self {
            stride,
            frame_w,
            frame_h,
            tensor,
        }
    }

    /// Pixels per feature cell.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Width of the underlying pixel frame.
    pub fn frame_w(&self) -> usize {
        self.frame_w
    }

    /// Height of the underlying pixel frame.
    pub fn frame_h(&self) -> usize {
        self.frame_h
    }

    /// Feature-grid width (`ceil(frame_w / stride)`).
    pub(crate) fn feat_w(&self) -> usize {
        self.tensor.width()
    }

    /// Feature-grid height (`ceil(frame_h / stride)`).
    pub(crate) fn feat_h(&self) -> usize {
        self.tensor.height()
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.tensor.channels()
    }

    /// The feature tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.tensor
    }

    /// Mutable access to the feature tensor.
    pub fn tensor_mut(&mut self) -> &mut Tensor {
        &mut self.tensor
    }

    /// Size of the feature payload in bytes (f32 storage) — what a real
    /// accelerator would move per map when warping in feature space.
    pub fn bytes(&self) -> usize {
        self.tensor.len() * core::mem::size_of::<f32>()
    }
}

/// One reference of a block warp: a source feature map plus the
/// pixel-space displacement (`src − dst`) the bitstream MV encodes.
#[derive(Debug, Clone, Copy)]
pub struct WarpSource<'a> {
    /// Reference-frame features (same geometry as the destination map).
    pub feat: &'a FeatureMap,
    /// Horizontal displacement to the source patch, in pixels.
    pub dx: i32,
    /// Vertical displacement to the source patch, in pixels.
    pub dy: i32,
}

/// Feature cells whose pixel origin falls inside `[start, start+block)`.
#[inline]
fn cell_range(start: usize, block: usize, stride: usize, limit: usize) -> (usize, usize) {
    let lo = start.div_ceil(stride).min(limit);
    let hi = (start + block).div_ceil(stride).min(limit);
    (lo, hi)
}

/// One tap column/row: clamped indices of the two neighbours and their
/// bilinear weights. Computed identically by both kernel variants.
#[inline]
fn tap(cell: usize, disp_px: i32, stride: usize, limit: usize) -> (usize, usize, f32, f32) {
    let pos = cell as f32 + disp_px as f32 / stride as f32;
    let floor = pos.floor();
    let t = pos - floor;
    let i0 = (floor as i64).clamp(0, limit as i64 - 1) as usize;
    let i1 = (floor as i64 + 1).clamp(0, limit as i64 - 1) as usize;
    (i0, i1, 1.0 - t, t)
}

/// Warps one macro-block of features from up to two references into `out`.
///
/// `dst_x`/`dst_y` are the block's pixel-space origin and `block` its
/// pixel-space edge length; every feature cell whose origin pixel falls in
/// the block is overwritten. Each reference is sampled with edge-clamped
/// bilinear taps at the MV-displaced position; with two references the two
/// samples are averaged (the bi-prediction analogue of the codec).
///
/// Optimized layout: tap indices and weights are hoisted per block (the
/// displacement is constant across the block), and the inner loop walks
/// contiguous source rows through slices. Bit-exact against
/// [`reference::warp_block`].
///
/// # Panics
/// Panics if the reference maps' geometry differs from `out`'s.
pub fn warp_block(
    out: &mut FeatureMap,
    dst_x: usize,
    dst_y: usize,
    block: usize,
    first: WarpSource<'_>,
    second: Option<WarpSource<'_>>,
) {
    let (fw, fh, ch, stride) = (out.feat_w(), out.feat_h(), out.channels(), out.stride());
    check_geometry(out, &first);
    if let Some(s) = &second {
        check_geometry(out, s);
    }
    let (x_lo, x_hi) = cell_range(dst_x, block, stride, fw);
    let (y_lo, y_hi) = cell_range(dst_y, block, stride, fh);
    if x_lo >= x_hi || y_lo >= y_hi {
        return;
    }

    // Hoisted column taps: one entry per destination column in the block.
    // The displacement is constant across the block, so these are shared by
    // every channel and every row.
    let mut cols1: Vec<(usize, usize, f32, f32)> = Vec::with_capacity(x_hi - x_lo);
    for fx in x_lo..x_hi {
        cols1.push(tap(fx, first.dx, stride, fw));
    }
    let cols2: Vec<(usize, usize, f32, f32)> = second
        .as_ref()
        .map(|s| (x_lo..x_hi).map(|fx| tap(fx, s.dx, stride, fw)).collect())
        .unwrap_or_default();

    let dst = out.tensor.as_mut_slice();
    let plane = fw * fh;
    for c in 0..ch {
        let src1 = &first.feat.tensor.as_slice()[c * plane..(c + 1) * plane];
        for fy in y_lo..y_hi {
            let (y0, y1, wy0, wy1) = tap(fy, first.dy, stride, fh);
            let row0 = &src1[y0 * fw..y0 * fw + fw];
            let row1 = &src1[y1 * fw..y1 * fw + fw];
            let out_row = &mut dst[c * plane + fy * fw + x_lo..c * plane + fy * fw + x_hi];
            for (o, &(x0, x1, wx0, wx1)) in out_row.iter_mut().zip(&cols1) {
                let top = row0[x0] * wx0 + row0[x1] * wx1;
                let bot = row1[x0] * wx0 + row1[x1] * wx1;
                *o = top * wy0 + bot * wy1;
            }
        }
    }
    if let Some(s) = second {
        for c in 0..ch {
            let src2 = &s.feat.tensor.as_slice()[c * plane..(c + 1) * plane];
            for fy in y_lo..y_hi {
                let (y0, y1, wy0, wy1) = tap(fy, s.dy, stride, fh);
                let row0 = &src2[y0 * fw..y0 * fw + fw];
                let row1 = &src2[y1 * fw..y1 * fw + fw];
                let out_row = &mut dst[c * plane + fy * fw + x_lo..c * plane + fy * fw + x_hi];
                for (o, &(x0, x1, wx0, wx1)) in out_row.iter_mut().zip(&cols2) {
                    let top = row0[x0] * wx0 + row0[x1] * wx1;
                    let bot = row1[x0] * wx0 + row1[x1] * wx1;
                    *o = 0.5 * (*o + (top * wy0 + bot * wy1));
                }
            }
        }
    }
}

fn check_geometry(out: &FeatureMap, src: &WarpSource<'_>) {
    assert_eq!(
        (
            src.feat.feat_w(),
            src.feat.feat_h(),
            src.feat.channels(),
            src.feat.stride()
        ),
        (out.feat_w(), out.feat_h(), out.channels(), out.stride()),
        "warp reference geometry mismatch"
    );
}

/// Naive per-cell warp, retained as the equivalence oracle for
/// [`warp_block`]. Every floating-point expression is
/// spelled the same way as the optimized kernel so the pair stays
/// bit-exact; only the loop structure (per-cell tap recomputation, checked
/// `get`/`set` indexing) differs.
pub mod reference {
    use super::{cell_range, check_geometry, tap, FeatureMap, WarpSource};

    /// See [`super::warp_block`]; same contract, naive implementation.
    pub fn warp_block(
        out: &mut FeatureMap,
        dst_x: usize,
        dst_y: usize,
        block: usize,
        first: WarpSource<'_>,
        second: Option<WarpSource<'_>>,
    ) {
        let (fw, fh, ch, stride) = (out.feat_w(), out.feat_h(), out.channels(), out.stride());
        check_geometry(out, &first);
        if let Some(s) = &second {
            check_geometry(out, s);
        }
        let (x_lo, x_hi) = cell_range(dst_x, block, stride, fw);
        let (y_lo, y_hi) = cell_range(dst_y, block, stride, fh);
        for c in 0..ch {
            for fy in y_lo..y_hi {
                for fx in x_lo..x_hi {
                    let v1 = sample(first.feat, c, fx, fy, first.dx, first.dy, stride, fw, fh);
                    let v = match &second {
                        None => v1,
                        Some(s) => {
                            let v2 = sample(s.feat, c, fx, fy, s.dx, s.dy, stride, fw, fh);
                            0.5 * (v1 + v2)
                        }
                    };
                    out.tensor_mut().set(c, fy, fx, v);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn sample(
        src: &FeatureMap,
        c: usize,
        fx: usize,
        fy: usize,
        dx: i32,
        dy: i32,
        stride: usize,
        fw: usize,
        fh: usize,
    ) -> f32 {
        let (x0, x1, wx0, wx1) = tap(fx, dx, stride, fw);
        let (y0, y1, wy0, wy1) = tap(fy, dy, stride, fh);
        let t = src.tensor();
        let top = t.get(c, y0, x0) * wx0 + t.get(c, y0, x1) * wx1;
        let bot = t.get(c, y1, x0) * wx0 + t.get(c, y1, x1) * wx1;
        top * wy0 + bot * wy1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_map(w: usize, h: usize, stride: usize, ch: usize, salt: f32) -> FeatureMap {
        let mut m = FeatureMap::zeros(w, h, stride, ch);
        let (fw, fh) = (m.feat_w(), m.feat_h());
        for c in 0..ch {
            for y in 0..fh {
                for x in 0..fw {
                    let v = salt + c as f32 * 0.37 + y as f32 * 0.11 - x as f32 * 0.05;
                    m.tensor_mut().set(c, y, x, v);
                }
            }
        }
        m
    }

    #[test]
    fn geometry_follows_frame() {
        let m = FeatureMap::zeros(854, 480, 4, FEATURE_CHANNELS);
        assert_eq!((m.feat_w(), m.feat_h()), (214, 120));
        assert_eq!(m.channels(), FEATURE_CHANNELS);
        assert_eq!(m.bytes(), 214 * 120 * FEATURE_CHANNELS * 4);
    }

    #[test]
    fn zero_mv_copies_block() {
        let src = ramp_map(64, 32, 4, 3, 1.0);
        let mut out = FeatureMap::zeros(64, 32, 4, 3);
        let s = WarpSource {
            feat: &src,
            dx: 0,
            dy: 0,
        };
        warp_block(&mut out, 16, 16, 16, s, None);
        // Inside the block: identical features. Outside: untouched zeros.
        for c in 0..3 {
            assert_eq!(out.tensor().get(c, 4, 4), src.tensor().get(c, 4, 4));
            assert_eq!(out.tensor().get(c, 0, 0), 0.0);
        }
    }

    #[test]
    fn integer_mv_shifts_cells() {
        let src = ramp_map(64, 64, 4, 2, 0.5);
        let mut out = FeatureMap::zeros(64, 64, 4, 2);
        // -8 px at stride 4 = exactly 2 cells left.
        let s = WarpSource {
            feat: &src,
            dx: -8,
            dy: 0,
        };
        warp_block(&mut out, 32, 32, 16, s, None);
        assert_eq!(out.tensor().get(1, 9, 9), src.tensor().get(1, 9, 7));
    }

    #[test]
    fn out_of_range_mv_clamps_to_edge() {
        let src = ramp_map(32, 32, 4, 1, 2.0);
        let mut out = FeatureMap::zeros(32, 32, 4, 1);
        let s = WarpSource {
            feat: &src,
            dx: -10_000,
            dy: -10_000,
        };
        warp_block(&mut out, 0, 0, 16, s, None);
        // Everything samples the clamped top-left source cell.
        let corner = src.tensor().get(0, 0, 0);
        for y in 0..4 {
            for x in 0..4 {
                let v = out.tensor().get(0, y, x);
                assert!((v - corner).abs() < 1e-4, "({x},{y}) = {v} vs {corner}");
            }
        }
    }

    #[test]
    fn two_references_average() {
        let a = ramp_map(16, 16, 4, 1, 0.0);
        let b = ramp_map(16, 16, 4, 1, 10.0);
        let mut out = FeatureMap::zeros(16, 16, 4, 1);
        warp_block(
            &mut out,
            0,
            0,
            16,
            WarpSource {
                feat: &a,
                dx: 0,
                dy: 0,
            },
            Some(WarpSource {
                feat: &b,
                dx: 0,
                dy: 0,
            }),
        );
        let want = 0.5 * (a.tensor().get(0, 2, 2) + b.tensor().get(0, 2, 2));
        assert_eq!(out.tensor().get(0, 2, 2), want);
    }
}
