//! NN-L: the large per-frame recognition networks, modelled as calibrated
//! oracles.
//!
//! The paper runs ROI-SegNet (FAVOS), the OSVOS two-stream FCN and SELSA —
//! trained CNNs in the hundreds of megaFLOPs per frame. Training those is
//! outside this reproduction's scope (see `DESIGN.md` §2); what VR-DANN
//! needs from them is (a) their **compute cost**, charged by the simulator,
//! and (b) the **quality of the masks/boxes** they produce, because VR-DANN
//! reconstructs B-frames *from those imperfect outputs*.
//!
//! The error model matters: a real network's segmentation errors are
//! *structured* — the predicted boundary is a smooth, plausible contour
//! displaced from the true one — not white noise (which a refinement
//! network could trivially learn to remove). A [`LargeNet`] therefore warps
//! the ground-truth mask with a smooth random displacement field (plus a
//! sprinkle of boundary speckle), with the displacement amplitude
//! calibrated per scheme to that scheme's published accuracy. B-frame
//! accuracy in the experiments is then a genuine measurement of
//! reconstruction + refinement running on realistic reference masks.

use crate::featwarp::{FeatureMap, FEATURE_CHANNELS, FEATURE_STRIDE};
use crate::tensor::Tensor;
use vrd_video::texture::{noise01, value_noise_axis, value_noise_blend, value_noise_corners};
use vrd_video::{mask, Detection, Rect, SegMask, MASK_WORD_BITS};

/// Operations per pixel of one NN-L segmentation inference.
///
/// Derived from the paper's §VI-B: "the raw TOPS of a frame is 0.5 TOPS"
/// at 854×480 → 0.5e12 / (854·480) ≈ 1.22e6 ops/pixel.
pub(crate) const NNL_OPS_PER_PIXEL: f64 = 1.22e6;

/// Fraction of an NN-L inference spent in the head (the layers after the
/// staged cut point — see [`LargeNet::forward_backbone`]).
///
/// Jain & Gonzalez cut ResNet-101-DeepLab after `res4`, leaving roughly a
/// quarter of the network's FLOPs (the `res5` block + ASPP head) to run
/// per propagated frame. Feature propagation therefore bills
/// `NNL_HEAD_FRACTION × ops` on B-frames versus the full cost on anchors.
pub const NNL_HEAD_FRACTION: f64 = 0.25;

/// Operations per pixel of one FlowNet optical-flow inference (DFF's
/// per-non-key-frame cost). FlowNet-S costs the same order of magnitude as
/// the segmentation backbone — this is why the paper finds DFF only ~1.3×
/// faster than FAVOS ("DFF spends lots of energy on searching the optical
/// flow", §VI-B) and why VR-DANN beats it by 2.2×.
pub const FLOWNET_OPS_PER_PIXEL: f64 = 8.5e5;

/// Band pixels from which the oracle raster fans its rows out across cores.
const PAR_MIN_BAND_PIXELS: usize = 1 << 17;

/// One coordinate's value-noise axis term: its lattice cell and the fade
/// inside it (`texture::value_noise_axis`).
type Axis = (i64, f32);

/// Noise/cost profile of a large network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargeNetProfile {
    /// Human-readable scheme name.
    pub name: &'static str,
    /// Amplitude of the smooth boundary-displacement field, in pixels.
    pub warp_amp: f32,
    /// Spatial scale of the displacement field, in pixels.
    pub warp_scale: f32,
    /// Probability of flipping a pixel adjacent to the (warped) boundary
    /// (residual speckle).
    pub speckle: f32,
    /// Detection box jitter amplitude, in pixels.
    pub box_jitter: f32,
    /// Probability of missing a ground-truth object entirely (occlusion,
    /// blur — the dominant error mode behind sub-100% mAP on VID).
    pub miss_prob: f32,
    /// Segmentation ops per pixel (relative cost of the scheme's network).
    pub ops_per_pixel: f64,
}

impl LargeNetProfile {
    /// ROI-SegNet as used by FAVOS — the accuracy reference (paper Fig. 10:
    /// best IoU/F-score of all schemes). Also the NN-L VR-DANN borrows for
    /// its I/P frames (§V-A).
    pub fn favos() -> Self {
        Self {
            name: "favos",
            warp_amp: 1.7,
            warp_scale: 9.0,
            speckle: 0.06,
            box_jitter: 1.2,
            miss_prob: 0.0,
            ops_per_pixel: NNL_OPS_PER_PIXEL,
        }
    }

    /// The OSVOS two-stream FCN: two large networks per frame, noticeably
    /// noisier masks (paper: VR-DANN beats it by 7.6% IoU).
    pub fn osvos() -> Self {
        Self {
            name: "osvos",
            warp_amp: 4.4,
            warp_scale: 7.0,
            speckle: 0.12,
            box_jitter: 2.5,
            miss_prob: 0.0,
            ops_per_pixel: 2.0 * NNL_OPS_PER_PIXEL,
        }
    }

    /// The large network DFF runs on key frames (same family as FAVOS's).
    pub fn dff_key() -> Self {
        Self {
            name: "dff-key",
            ..Self::favos()
        }
    }

    /// SELSA's detection backbone (sequence-level aggregation: accurate).
    pub fn selsa() -> Self {
        Self {
            name: "selsa",
            warp_amp: 1.5,
            warp_scale: 9.0,
            speckle: 0.05,
            box_jitter: 2.4,
            miss_prob: 0.0,
            ops_per_pixel: 1.5 * NNL_OPS_PER_PIXEL,
        }
    }
}

/// A calibrated large-network oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargeNet {
    profile: LargeNetProfile,
}

impl LargeNet {
    /// Creates an oracle with the given profile.
    pub fn new(profile: LargeNetProfile) -> Self {
        Self { profile }
    }

    /// The oracle's profile.
    pub fn profile(&self) -> &LargeNetProfile {
        &self.profile
    }

    /// Total operations of one inference over a `w`×`h` frame.
    pub fn ops(&self, w: usize, h: usize) -> u64 {
        (self.profile.ops_per_pixel * (w * h) as f64) as u64
    }

    /// Operations of the head alone (the layers after the staged cut) —
    /// what feature propagation pays per B-frame.
    pub fn head_ops(&self, w: usize, h: usize) -> u64 {
        (self.profile.ops_per_pixel * NNL_HEAD_FRACTION * (w * h) as f64) as u64
    }

    /// Operations of the backbone up to the staged cut point.
    pub fn backbone_ops(&self, w: usize, h: usize) -> u64 {
        self.ops(w, h) - self.head_ops(w, h)
    }

    /// Segments a frame: the ground truth resampled through a smooth random
    /// displacement field plus boundary speckle. Deterministic in
    /// `(gt, seed)`.
    pub fn segment(&self, gt: &SegMask, seed: u64) -> SegMask {
        SegMask::from_words(gt.width(), gt.height(), self.raster(gt, seed))
    }

    /// Full staged inference: [`Self::forward_backbone`] composed with
    /// [`Self::forward_head`]. Pinned bit-identical to [`Self::segment`]
    /// (the staged-forward regression test) — the staging is a pure
    /// refactor of the same oracle.
    pub fn forward(&self, gt: &SegMask, seed: u64) -> SegMask {
        self.forward_head(&self.forward_backbone(gt, seed))
    }

    /// Runs the backbone up to the staged cut point and returns the
    /// penultimate feature tensor.
    ///
    /// The cut sits where a real encoder–decoder segmentation network is
    /// cheapest to snapshot: a stride-[`FEATURE_STRIDE`] grid whose cell
    /// carries the block-mean foreground evidence (channel 0) plus one
    /// residual channel per in-block pixel offset. The head reassembles a
    /// per-pixel score as `mean + residual`, which reproduces the fused
    /// oracle bit-exactly on unwarped features while degrading softly
    /// (bilinear blends of means and residuals) on warped ones.
    pub fn forward_backbone(&self, gt: &SegMask, seed: u64) -> FeatureMap {
        backbone(&self.segment(gt, seed))
    }

    /// Runs the head on a (possibly warped) feature map: per-pixel score
    /// `mean + residual`, thresholded at 0.5 into a mask.
    ///
    /// # Panics
    /// Panics if the map's channel count does not match the staged layout
    /// (`1 + stride²`).
    pub fn forward_head(&self, feat: &FeatureMap) -> SegMask {
        let s = feat.stride();
        assert_eq!(
            feat.channels(),
            1 + s * s,
            "feature map does not match the staged head layout"
        );
        let (w, h) = (feat.frame_w(), feat.frame_h());
        let t = feat.tensor();
        SegMask::from_bits(
            w,
            h,
            (0..w * h).map(|i| {
                let (x, y) = (i % w, i / w);
                let (fx, fy) = (x / s, y / s);
                let c = 1 + (y % s) * s + (x % s);
                t.get(0, fy, fx) + t.get(c, fy, fx) > 0.5
            }),
        )
    }

    /// The share of `gt`'s pixels whose warp [`Self::segment`] computes:
    /// those within `⌈|warp_amp|⌉` of a value change or the frame edge, or
    /// every pixel where that radius does not bound the displacement. Every
    /// other pixel keeps its ground-truth bit until speckle. [`Self::ops`]
    /// bills the whole frame either way.
    pub fn band_coverage(&self, gt: &SegMask) -> f64 {
        let (cols, rows) = self.axes(gt.width(), gt.height());
        self.warp_band(gt, &cols, &rows).count_ones() as f64 / (gt.width() * gt.height()) as f64
    }

    /// The value-noise axis terms of every column and every row of a
    /// `w`×`h` frame at the profile's `warp_scale`.
    fn axes(&self, w: usize, h: usize) -> (Vec<Axis>, Vec<Axis>) {
        let axis = |v: usize| value_noise_axis(v as f32, self.profile.warp_scale);
        ((0..w).map(axis).collect(), (0..h).map(axis).collect())
    }

    /// The pixels whose warped bit can differ from `gt`'s: the band of
    /// radius `r = ⌈|warp_amp|⌉` around `gt`'s value changes and the frame
    /// edge ([`mask::band`]), or every pixel where that radius does not
    /// bound the warp.
    ///
    /// # Why it is exact
    ///
    /// A pixel reads `gt` at `round(x + (blend − ½)·2·warp_amp)` (and the
    /// same in y), clamped to the frame. When every column fade `sx` and
    /// row fade `sy` is in [0, 1]:
    ///
    /// * Corners are multiples of 2⁻²⁴ in [0, 1), so a corner difference is
    ///   exact, and `top = n00 + (n10 − n00)·sx` lies between `n00` and
    ///   `n10`: the product is no larger in magnitude than the exact
    ///   difference and rounding is monotone, so the sum rounds between two
    ///   representable bounds. `bot` likewise.
    /// * `blend = top + fl(bot − top)·sy` is in [0, 1]: `fl(bot − top)` is
    ///   at least `−top` (representable) and below `1 − top` (the exact
    ///   difference is at most `1 − 2⁻²⁴ − top`, rounded by at most 2⁻²⁵),
    ///   so the exact sum is in [0, 1) and rounds into [0, 1].
    /// * `blend − ½` is then in [−½, ½], times 2 in [−1, 1], times
    ///   `warp_amp` at most `|warp_amp| ≤ r` in magnitude.
    /// * `x as f32` is exact and so are `x ± r` while `x + r ≤ 2²⁴`, so the
    ///   displaced coordinate rounds into [x − r, x + r], and so does
    ///   `round`. Clamping to the frame keeps it there.
    ///
    /// So the source pixel lies in the in-frame part of the Chebyshev
    /// window of radius `r`, and a pixel whose window is uniform in `gt`
    /// reads its own bit. `mask::band` holds every pixel whose window is not
    /// uniform or leaves the frame, so no clamping term is needed.
    ///
    /// The bound fails, and every pixel is warped, when `r ≥ 64` (the
    /// band's limit), `warp_amp` is not finite (`r` is then NaN or ∞), a
    /// frame side is within 64 of 2²⁴, or some fade is outside [0, 1] or
    /// NaN. Finite fades are not enough: near `warp_scale = 100 / 2⁶³` the
    /// cell saturates at `i64::MAX` and `g − cell` is far outside [0, 1).
    fn warp_band(&self, gt: &SegMask, cols: &[Axis], rows: &[Axis]) -> SegMask {
        let (w, h) = (gt.width(), gt.height());
        let r = self.profile.warp_amp.abs().ceil();
        let unit = |&(_, fade): &Axis| (0.0..=1.0).contains(&fade);
        if r < MASK_WORD_BITS as f32
            && w.max(h) + MASK_WORD_BITS <= 1 << 24
            && cols.iter().all(unit)
            && rows.iter().all(unit)
        {
            mask::band(&[gt], r as usize)
        } else {
            SegMask::from_words(w, h, vec![u64::MAX; w.div_ceil(MASK_WORD_BITS) * h])
        }
    }

    /// The oracle raster [`Self::segment`] wraps: ground truth resampled
    /// through the displacement field plus boundary speckle, as packed mask
    /// words (the [`SegMask`] layout, tail bits zero).
    ///
    /// Bit-identical to [`reference::segment`], which samples
    /// `value_noise` twice per pixel at every pixel. Here only the pixels
    /// of [`Self::warp_band`] are warped — every other one copies its
    /// `gt` bit a word at a time — and of `value_noise` the axis terms are
    /// computed once per column and once per row, the lattice corners once
    /// per run of band pixels sharing a cell. Caching by run rather than in
    /// a table over the frame's cell range keeps one code path for every
    /// `warp_scale`, including zero, subnormal and non-finite ones, whose
    /// cells span up to the whole `i64` range.
    fn raster(&self, gt: &SegMask, seed: u64) -> Vec<u64> {
        let (w, h) = (gt.width(), gt.height());
        let wpr = w.div_ceil(MASK_WORD_BITS);
        let p = &self.profile;
        let (cols, rows) = self.axes(w, h);
        let band = self.warp_band(gt, &cols, &rows);
        // Every row is independent, so a large band splits by row across
        // cores — same bits at any thread count. The work is the band's, so
        // it decides: on two cores an 854×480 anchor's band (2–6 % of its
        // pixels) runs 13–20 % faster on one thread, and a dense frame
        // breaks even between 2¹⁶ and 2¹⁷ pixels.
        let threads = if band.count_ones() >= PAR_MIN_BAND_PIXELS {
            vrd_runtime::max_threads()
        } else {
            1
        };

        let mut warped = vec![0u64; wpr * h];
        for_each_row(&mut warped, wpr, threads, |y, out| {
            let (y0, sy) = rows[y];
            let span = y * wpr..(y + 1) * wpr;
            let words = gt.words()[span.clone()].iter().zip(&band.words()[span]);
            let mut cell = None;
            for (k, (o, (&g, &b))) in out.iter_mut().zip(words).enumerate() {
                *o = g & !b;
                let mut todo = b;
                while todo != 0 {
                    let j = todo.trailing_zeros() as usize;
                    todo &= todo - 1;
                    let x = k * 64 + j;
                    let (x0, sx) = cols[x];
                    let (cx, cy) = match cell {
                        Some((c, cx, cy)) if c == x0 => (cx, cy),
                        _ => {
                            let cx = value_noise_corners(x0, y0, seed ^ 0x11);
                            let cy = value_noise_corners(x0, y0, seed ^ 0x22);
                            cell = Some((x0, cx, cy));
                            (cx, cy)
                        }
                    };
                    let nx = value_noise_blend(cx, sx, sy) - 0.5;
                    let ny = value_noise_blend(cy, sx, sy) - 0.5;
                    let src_x = (x as f32 + nx * 2.0 * p.warp_amp).round() as i32;
                    let src_y = (y as f32 + ny * 2.0 * p.warp_amp).round() as i32;
                    *o |= u64::from(gt.get_clamped(src_x, src_y)) << j;
                }
            }
        });

        if p.speckle > 0.0 {
            // Flip a fraction of the pixels adjacent to the warped boundary.
            // A pixel is adjacent when an in-frame 4-neighbour differs; a
            // word of them is `v ^ shifted(v)` with the frame edge masked
            // off, and only those pixels are hashed.
            let row = |y: usize| &warped[y * wpr..(y + 1) * wpr];
            let mut flips = vec![0u64; wpr * h];
            for_each_row(&mut flips, wpr, threads, |y, flip| {
                let v = row(y);
                let up = (y > 0).then(|| row(y - 1));
                let down = (y + 1 < h).then(|| row(y + 1));
                for (k, f) in flip.iter_mut().enumerate() {
                    let in_frame = u64::MAX >> (64 - (w - k * 64).min(64));
                    // Bit j of `right` is pixel j + 1, of `left` pixel j - 1.
                    let (right, has_right) = match v.get(k + 1) {
                        Some(&next) => ((v[k] >> 1) | (next << 63), in_frame),
                        None => (v[k] >> 1, in_frame >> 1),
                    };
                    let (left, has_left) = match k.checked_sub(1) {
                        Some(prev) => ((v[k] << 1) | (v[prev] >> 63), in_frame),
                        None => (v[k] << 1, in_frame & !1),
                    };
                    let mut near = ((v[k] ^ right) & has_right)
                        | ((v[k] ^ left) & has_left)
                        | up.map_or(0, |u| v[k] ^ u[k])
                        | down.map_or(0, |d| v[k] ^ d[k]);
                    while near != 0 {
                        let j = near.trailing_zeros() as usize;
                        if noise01((k * 64 + j) as i64, y as i64, seed ^ 0x33) < p.speckle {
                            *f |= 1 << j;
                        }
                        near &= near - 1;
                    }
                }
            });
            for (v, f) in warped.iter_mut().zip(&flips) {
                *v ^= f;
            }
        }
        warped
    }

    /// Detects objects: ground-truth boxes jittered by the profile's
    /// `box_jitter`, each with a confidence score. Deterministic in
    /// `(gt_boxes, seed)`.
    pub fn detect(
        &self,
        gt_boxes: &[Rect],
        frame_w: usize,
        frame_h: usize,
        seed: u64,
    ) -> Vec<Detection> {
        let jitter_amp = self.profile.box_jitter;
        gt_boxes
            .iter()
            .enumerate()
            .filter(|(i, _)| noise01(*i as i64, 6, seed) >= self.profile.miss_prob)
            .map(|(i, b)| {
                let jitter = |salt: i64| -> i32 {
                    ((noise01(i as i64, salt, seed) - 0.5) * 2.0 * jitter_amp).round() as i32
                };
                let rect = Rect::new(
                    b.x0 + jitter(1),
                    b.y0 + jitter(2),
                    b.x1 + jitter(3),
                    b.y1 + jitter(4),
                )
                .clamped(frame_w, frame_h);
                let score_r = noise01(i as i64, 5, seed);
                let score = (1.0 - 0.1 * jitter_amp * score_r).clamp(0.05, 1.0);
                Detection::new(rect, score)
            })
            .filter(|d| !d.rect.is_empty())
            .collect()
    }
}

/// Runs `f(y, row)` over the `wpr`-word rows of `words` on `threads`
/// workers (inline at 1), one contiguous band of rows each: a row is too
/// little work to claim alone, and a band keeps each worker's writes off
/// its neighbours' cache lines.
fn for_each_row(
    words: &mut [u64],
    wpr: usize,
    threads: usize,
    f: impl Fn(usize, &mut [u64]) + Sync,
) {
    let band = (words.len() / wpr).div_ceil(threads.max(1)).max(1);
    let bands: Vec<(usize, &mut [u64])> = words.chunks_mut(band * wpr).enumerate().collect();
    vrd_runtime::parallel_for_each_with(bands, threads, |(i, rows)| {
        for (k, row) in rows.chunks_mut(wpr).enumerate() {
            f(i * band + k, row);
        }
    });
}

/// The staged backbone's features of a segmented frame (see
/// [`LargeNet::forward_backbone`]).
fn backbone(mask: &SegMask) -> FeatureMap {
    let (w, h) = (mask.width(), mask.height());
    let s = FEATURE_STRIDE;
    let (fw, fh) = (w.div_ceil(s), h.div_ceil(s));
    let mut t = Tensor::zeros(FEATURE_CHANNELS, fh, fw);
    for fy in 0..fh {
        for fx in 0..fw {
            let (x0, y0) = (fx * s, fy * s);
            let (x1, y1) = ((x0 + s).min(w), (y0 + s).min(h));
            let mut sum = 0u32;
            for y in y0..y1 {
                for x in x0..x1 {
                    sum += u32::from(mask.get(x, y));
                }
            }
            let mean = sum as f32 / ((x1 - x0) * (y1 - y0)) as f32;
            t.set(0, fy, fx, mean);
            for y in y0..y1 {
                for x in x0..x1 {
                    let c = 1 + (y - y0) * s + (x - x0);
                    t.set(c, fy, fx, f32::from(mask.get(x, y)) - mean);
                }
            }
        }
    }
    FeatureMap::from_tensor(w, h, s, t)
}

/// The per-pixel oracle — `value_noise` sampled twice per pixel into a byte
/// raster, speckle over a byte snapshot — kept as the ground truth the
/// hoisted raster is property-tested and benchmarked against.
#[doc(hidden)]
pub mod reference {
    use super::{backbone, LargeNet};
    use crate::featwarp::FeatureMap;
    use vrd_video::texture::{hash2, value_noise};
    use vrd_video::SegMask;

    /// [`LargeNet::segment`], per pixel.
    pub fn segment(net: &LargeNet, gt: &SegMask, seed: u64) -> SegMask {
        SegMask::from_vec(gt.width(), gt.height(), raster(net, gt, seed))
    }

    /// [`LargeNet::forward_backbone`] over [`segment`].
    pub fn forward_backbone(net: &LargeNet, gt: &SegMask, seed: u64) -> FeatureMap {
        backbone(&segment(net, gt, seed))
    }

    fn raster(net: &LargeNet, gt: &SegMask, seed: u64) -> Vec<u8> {
        let (w, h) = (gt.width(), gt.height());
        let p = &net.profile;
        // The noise passes are inherently per-pixel, so they run over a byte
        // scratch raster and pack into the bitplane once at the end.
        let mut out = vec![0u8; w * h];
        // Every output pixel is independent, so both passes split by row
        // across cores on large frames — same bits at any thread count.
        let parallel = w * h >= 1 << 16 && vrd_runtime::max_threads() > 1;
        let warp_row = |y: usize, row: &mut [u8]| {
            for (x, o) in row.iter_mut().enumerate() {
                let nx = value_noise(x as f32, y as f32, p.warp_scale, seed ^ 0x11) - 0.5;
                let ny = value_noise(x as f32, y as f32, p.warp_scale, seed ^ 0x22) - 0.5;
                let sx = (x as f32 + nx * 2.0 * p.warp_amp).round() as i32;
                let sy = (y as f32 + ny * 2.0 * p.warp_amp).round() as i32;
                *o = gt.get_clamped(sx, sy);
            }
        };
        if parallel {
            let rows: Vec<(usize, &mut [u8])> = out.chunks_mut(w).enumerate().collect();
            vrd_runtime::parallel_for_each(rows, |(y, row)| warp_row(y, row));
        } else {
            for (y, row) in out.chunks_mut(w).enumerate() {
                warp_row(y, row);
            }
        }
        if p.speckle > 0.0 {
            // Flip a fraction of the pixels adjacent to the warped boundary.
            let snapshot = out.clone();
            let speckle_row = |y: usize, row: &mut [u8]| {
                for (x, o) in row.iter_mut().enumerate() {
                    let v = snapshot[y * w + x];
                    let near_boundary = (x + 1 < w && snapshot[y * w + x + 1] != v)
                        || (x > 0 && snapshot[y * w + x - 1] != v)
                        || (y + 1 < h && snapshot[(y + 1) * w + x] != v)
                        || (y > 0 && snapshot[(y - 1) * w + x] != v);
                    if !near_boundary {
                        continue;
                    }
                    let r =
                        (hash2(x as i64, y as i64, seed ^ 0x33) >> 40) as f32 / (1u64 << 24) as f32;
                    if r < p.speckle {
                        *o = 1 - v;
                    }
                }
            };
            if parallel {
                let rows: Vec<(usize, &mut [u8])> = out.chunks_mut(w).enumerate().collect();
                vrd_runtime::parallel_for_each(rows, |(y, row)| speckle_row(y, row));
            } else {
                for (y, row) in out.chunks_mut(w).enumerate() {
                    speckle_row(y, row);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_mask(w: usize, h: usize, r: Rect) -> SegMask {
        let mut m = SegMask::new(w, h);
        m.fill_rect(r);
        m
    }

    fn iou(a: &SegMask, b: &SegMask) -> f64 {
        let mut inter = 0u64;
        let mut uni = 0u64;
        for (&x, &y) in a.words().iter().zip(b.words()) {
            inter += u64::from((x & y).count_ones());
            uni += u64::from((x | y).count_ones());
        }
        inter as f64 / uni.max(1) as f64
    }

    #[test]
    fn noise_stays_near_the_boundary() {
        let gt = square_mask(64, 64, Rect::new(16, 16, 48, 48));
        let net = LargeNet::new(LargeNetProfile::favos());
        let seg = net.segment(&gt, 42);
        // Interior deep inside the object must be untouched (warp amplitude
        // is a couple of pixels).
        for y in 26..38 {
            for x in 26..38 {
                assert_eq!(seg.get(x, y), 1, "interior flipped at ({x},{y})");
            }
        }
        // But something near the boundary must differ.
        assert_ne!(seg, gt);
    }

    #[test]
    fn errors_are_structured_not_speckle() {
        // The warped mask must stay a mostly-connected blob: its foreground
        // count should be close to the truth even though the boundary moved.
        let gt = square_mask(96, 96, Rect::new(24, 24, 72, 72));
        let net = LargeNet::new(LargeNetProfile::favos());
        let seg = net.segment(&gt, 9);
        let ratio = seg.count_ones() as f64 / gt.count_ones() as f64;
        assert!((0.9..1.1).contains(&ratio), "area drifted: {ratio:.3}");
    }

    #[test]
    fn favos_quality_beats_osvos() {
        let gt = square_mask(96, 96, Rect::new(20, 20, 76, 76));
        let favos = LargeNet::new(LargeNetProfile::favos());
        let osvos = LargeNet::new(LargeNetProfile::osvos());
        let iou_f = iou(&favos.segment(&gt, 1), &gt);
        let iou_o = iou(&osvos.segment(&gt, 1), &gt);
        assert!(iou_f > iou_o, "favos {iou_f:.3} <= osvos {iou_o:.3}");
        assert!(iou_f > 0.85, "favos too noisy: {iou_f:.3}");
    }

    #[test]
    fn segmentation_is_deterministic_per_seed() {
        let gt = square_mask(32, 32, Rect::new(8, 8, 24, 24));
        let net = LargeNet::new(LargeNetProfile::favos());
        assert_eq!(net.segment(&gt, 7), net.segment(&gt, 7));
        assert_ne!(net.segment(&gt, 7), net.segment(&gt, 8));
    }

    #[test]
    fn staged_forward_matches_segment_bit_exactly() {
        // The Stages API is a pure refactor: head ∘ backbone must equal the
        // fused oracle bit for bit, across profiles, seeds and ragged
        // (non-stride-multiple) frame sizes.
        let gt = square_mask(97, 61, Rect::new(20, 10, 70, 50));
        for profile in [
            LargeNetProfile::favos(),
            LargeNetProfile::osvos(),
            LargeNetProfile::selsa(),
        ] {
            let net = LargeNet::new(profile);
            for seed in [0, 7, 1234] {
                assert_eq!(
                    net.forward(&gt, seed),
                    net.segment(&gt, seed),
                    "staged forward diverged for {} seed {seed}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn a_zero_warp_scale_does_not_overflow_the_lattice() {
        // x / 0.0 is +inf, whose cell saturates to i64::MAX; its right-hand
        // neighbour used to overflow (a panic in debug builds) and now
        // wraps, which is what release builds always computed.
        let gt = square_mask(16, 8, Rect::new(4, 2, 12, 6));
        let net = LargeNet::new(LargeNetProfile {
            warp_scale: 0.0,
            ..LargeNetProfile::favos()
        });
        let seg = net.segment(&gt, 5);
        assert_eq!(seg, reference::segment(&net, &gt, 5));
        assert_eq!(net.forward(&gt, 5), seg);
    }

    #[test]
    fn backbone_features_have_staged_layout() {
        let gt = square_mask(64, 48, Rect::new(8, 8, 40, 40));
        let net = LargeNet::new(LargeNetProfile::favos());
        let feat = net.forward_backbone(&gt, 3);
        assert_eq!(feat.stride(), crate::featwarp::FEATURE_STRIDE);
        assert_eq!(feat.channels(), crate::featwarp::FEATURE_CHANNELS);
        assert_eq!((feat.frame_w(), feat.frame_h()), (64, 48));
        // Channel 0 is a block mean: bounded to [0, 1].
        for &v in feat.tensor().channel(0) {
            assert!((0.0..=1.0).contains(&v), "mean out of range: {v}");
        }
    }

    #[test]
    fn head_ops_are_a_quarter_of_full_inference() {
        let net = LargeNet::new(LargeNetProfile::favos());
        let (w, h) = (854, 480);
        let full = net.ops(w, h);
        let head = net.head_ops(w, h);
        assert_eq!(head, (full as f64 * NNL_HEAD_FRACTION) as u64);
        assert_eq!(net.backbone_ops(w, h) + head, full);
        assert!(head < full / 3);
    }

    #[test]
    fn ops_follow_paper_scale() {
        let net = LargeNet::new(LargeNetProfile::favos());
        // 854x480 ≈ 0.5 TOPS per the paper.
        let ops = net.ops(854, 480) as f64;
        assert!((ops - 0.5e12).abs() / 0.5e12 < 0.01, "{ops:e}");
        let osvos = LargeNet::new(LargeNetProfile::osvos());
        assert_eq!(osvos.ops(854, 480), 2 * net.ops(854, 480));
    }

    #[test]
    fn detection_jitters_but_overlaps() {
        let boxes = vec![Rect::new(10, 10, 40, 34), Rect::new(50, 5, 70, 25)];
        let net = LargeNet::new(LargeNetProfile::favos()); // miss-free profile
        let dets = net.detect(&boxes, 96, 64, 3);
        assert_eq!(dets.len(), 2);
        for (d, gt) in dets.iter().zip(&boxes) {
            assert!(d.rect.iou(gt) > 0.6, "detection drifted: {:?}", d.rect);
            assert!((0.0..=1.0).contains(&d.score));
        }
    }

    #[test]
    fn selsa_profile_misses_a_calibrated_fraction() {
        let boxes = vec![Rect::new(10, 10, 30, 30)];
        let net = LargeNet::new(LargeNetProfile::selsa());
        let detected = (0..400)
            .filter(|&seed| !net.detect(&boxes, 96, 64, seed).is_empty())
            .count();
        let rate = detected as f64 / 400.0;
        // SELSA aggregates over the whole sequence, so its per-frame miss
        // rate is 0 in this model (difficulty shows up as box jitter).
        assert!(rate > 0.99, "detection rate {rate:.2} should be ~1");
    }
}
