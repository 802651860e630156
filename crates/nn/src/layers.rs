//! The parameter-free pieces of NN-S as stateless kernels over raw CHW
//! slices: pooling, upsampling and the activations going forward, and the
//! adjoints of the first two going back. Nothing here remembers a forward
//! pass — the backward kernels are written against the activations the
//! caller kept.

use crate::band::RowSpans;
use std::sync::OnceLock;
use vrd_video::SegMask;

/// In-place ReLU over a raw buffer.
pub fn relu_in_place(data: &mut [f32]) {
    for v in data.iter_mut() {
        *v = v.max(0.0);
    }
}

/// In-place logistic sigmoid over a raw buffer.
pub fn sigmoid_in_place(data: &mut [f32]) {
    for v in data.iter_mut() {
        *v = 1.0 / (1.0 + (-*v).exp());
    }
}

/// The one f32 cut-over of [`sigmoid_in_place`] at one half: the largest
/// `t` whose sigmoid is not above 0.5, so that `sigmoid(z) > 0.5 ⇔ z > t`
/// for every f32 `z` (NaN included: both sides are false). It is not 0 —
/// the sigmoid rounds to exactly one half for tiny positive `z` — so it is
/// found, once, by bisection over the bit patterns of `[0, 1]`, which order
/// like the floats they encode.
pub fn sigmoid_cut() -> f32 {
    static CUT: OnceLock<f32> = OnceLock::new();
    *CUT.get_or_init(|| {
        let above_half = |bits: u32| {
            let mut v = [f32::from_bits(bits)];
            sigmoid_in_place(&mut v);
            v[0] > 0.5
        };
        let (mut lo, mut hi) = (0.0f32.to_bits(), 1.0f32.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if above_half(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f32::from_bits(lo)
    })
}

/// Thresholds an `h × w` plane of logits at [`sigmoid_cut`]: the mask
/// [`sigmoid_in_place`] followed by `to_mask(0.5)` gives, without the
/// exponentials.
///
/// # Panics
/// Panics if `logits.len() != h * w`.
pub fn logits_to_mask(logits: &[f32], h: usize, w: usize) -> SegMask {
    assert_eq!(logits.len(), h * w, "logit plane size mismatch");
    let cut = sigmoid_cut();
    SegMask::from_bits(w, h, logits.iter().map(|&z| z > cut))
}

/// 2×2 max pooling from a `c × h × w` slice into a `c × h/2 × w/2` slice.
/// `max` is the element's two-way maximum (`f32::max`, `u8::max`): the f32
/// graph and the quantized one pool through this one body.
///
/// # Panics
/// Panics on odd input dimensions or mismatched buffer lengths.
pub fn maxpool2_into<T: Copy>(
    src: &[T],
    c: usize,
    h: usize,
    w: usize,
    dst: &mut [T],
    max: impl Fn(T, T) -> T,
) {
    let cols = RowSpans::full(h / 2, w / 2);
    maxpool2_span_into(src, c, h, w, dst, &cols, max);
}

/// [`maxpool2_into`] on the `cols` columns of the pooled planes only.
pub(crate) fn maxpool2_span_into<T: Copy>(
    src: &[T],
    c: usize,
    h: usize,
    w: usize,
    dst: &mut [T],
    cols: &RowSpans,
    max: impl Fn(T, T) -> T,
) {
    pool_spans(src, (c, h, w), dst, cols, |top, bot, out| {
        let pairs = top.chunks_exact(2).zip(bot.chunks_exact(2));
        for (o, (t, b)) in out.iter_mut().zip(pairs) {
            *o = max(max(max(t[0], t[1]), b[0]), b[1]);
        }
    });
}

/// The pooling driver: checks the shapes, then hands `row` each span of
/// each pooled row — the two source row pieces and the output piece.
fn pool_spans<T: Copy>(
    src: &[T],
    (c, h, w): (usize, usize, usize),
    dst: &mut [T],
    cols: &RowSpans,
    row: impl Fn(&[T], &[T], &mut [T]),
) {
    assert!(
        h.is_multiple_of(2) && w.is_multiple_of(2),
        "max-pool needs even dimensions"
    );
    assert_eq!(src.len(), c * h * w, "max-pool input length mismatch");
    assert_eq!(dst.len(), c * h * w / 4, "max-pool output length mismatch");
    let (oh, ow) = (h / 2, w / 2);
    assert_eq!(
        (cols.height(), cols.width()),
        (oh, ow),
        "max-pool span mismatch"
    );
    for ci in 0..c {
        let plane = &src[ci * h * w..][..h * w];
        for y in 0..oh {
            let top = &plane[2 * y * w..][..w];
            let bot = &plane[(2 * y + 1) * w..][..w];
            let orow = &mut dst[(ci * oh + y) * ow..][..ow];
            for &(s, e) in cols.row(y) {
                row(&top[2 * s..2 * e], &bot[2 * s..2 * e], &mut orow[s..e]);
            }
        }
    }
}

/// [`maxpool2_into`] on `u8` planes, with the same output: where AVX2 is
/// detected, 32 output pixels per step (a byte-wise `max` of the row pair,
/// then each column pair's `max` through a 16-bit shift and a pack).
///
/// # Panics
/// Panics on odd input dimensions or mismatched buffer lengths.
pub fn maxpool2_u8_into(src: &[u8], c: usize, h: usize, w: usize, dst: &mut [u8]) {
    maxpool2_u8_span_into(src, c, h, w, dst, &RowSpans::full(h / 2, w / 2));
}

/// [`maxpool2_u8_into`] on the `cols` columns of the pooled planes only.
pub(crate) fn maxpool2_u8_span_into(
    src: &[u8],
    c: usize,
    h: usize,
    w: usize,
    dst: &mut [u8],
    cols: &RowSpans,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::quant::avx2_enabled() {
        return pool_spans(src, (c, h, w), dst, cols, |top, bot, out| {
            // SAFETY: AVX2 was just detected on this CPU, which is all
            // `maxpool2_u8_avx2` (safe code compiled for that target)
            // requires.
            unsafe { maxpool2_u8_avx2(top, bot, out) }
        });
    }
    maxpool2_span_into(src, c, h, w, dst, cols, u8::max);
}

/// [`maxpool2_u8_into`]'s AVX2 body on one piece of a row pair: 64 input
/// columns at a time, the remainder through the scalar `max`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn maxpool2_u8_avx2(top: &[u8], bot: &[u8], orow: &mut [u8]) {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_max_epu8, _mm256_packus_epi16,
        _mm256_permute4x64_epi64, _mm256_set1_epi16, _mm256_srli_epi16, _mm256_storeu_si256,
    };
    // Sixteen `u16` lanes, each the max of one 2×2 block of a 32-column
    // strip of the row pair.
    let blocks = |top: &[u8], bot: &[u8]| -> __m256i {
        // SAFETY: both strips are 32 bytes long (sliced by the caller),
        // the width of the unaligned loads.
        let m = unsafe {
            _mm256_max_epu8(
                _mm256_loadu_si256(top.as_ptr().cast()),
                _mm256_loadu_si256(bot.as_ptr().cast()),
            )
        };
        let pairs = _mm256_max_epu8(m, _mm256_srli_epi16::<8>(m));
        _mm256_and_si256(pairs, _mm256_set1_epi16(0xff))
    };
    let w = top.len();
    assert!(
        bot.len() == w && orow.len() * 2 == w,
        "max-pool row mismatch"
    );
    let split = w / 64 * 64;
    let strips = top[..split]
        .chunks_exact(32)
        .zip(bot[..split].chunks_exact(32));
    let mut strips = strips.map(|(t, b)| blocks(t, b));
    for o in orow[..split / 2].chunks_exact_mut(32) {
        let (Some(lo), Some(hi)) = (strips.next(), strips.next()) else {
            break;
        };
        // `packus` interleaves the two sources per 128-bit lane; the
        // permute puts the four quarters back in order.
        let packed = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_packus_epi16(lo, hi));
        // SAFETY: `o` is 32 bytes long, the width of the store.
        unsafe { _mm256_storeu_si256(o.as_mut_ptr().cast(), packed) };
    }
    let tail = orow[split / 2..].iter_mut().zip(
        top[split..]
            .chunks_exact(2)
            .zip(bot[split..].chunks_exact(2)),
    );
    for (o, (t, b)) in tail {
        *o = t[0].max(t[1]).max(b[0]).max(b[1]);
    }
}

/// Nearest-neighbour 2× upsampling from a `c × h × w` slice into a
/// `c × 2h × 2w` slice, for either graph's element type.
///
/// # Panics
/// Panics on mismatched buffer lengths.
pub fn upsample2_into<T: Copy>(src: &[T], c: usize, h: usize, w: usize, dst: &mut [T]) {
    upsample2_span_into(src, c, h, w, dst, &RowSpans::full(2 * h, 2 * w));
}

/// [`upsample2_into`] on the `cols` columns of the upsampled planes only.
pub(crate) fn upsample2_span_into<T: Copy>(
    src: &[T],
    c: usize,
    h: usize,
    w: usize,
    dst: &mut [T],
    cols: &RowSpans,
) {
    assert_eq!(src.len(), c * h * w, "upsample input length mismatch");
    assert_eq!(dst.len(), c * h * w * 4, "upsample output length mismatch");
    let (oh, ow) = (h * 2, w * 2);
    assert_eq!(
        (cols.height(), cols.width()),
        (oh, ow),
        "upsample span mismatch"
    );
    for ci in 0..c {
        let plane = &src[ci * h * w..][..h * w];
        for y in 0..oh {
            let srow = &plane[y / 2 * w..][..w];
            let orow = &mut dst[(ci * oh + y) * ow..][..ow];
            for &(s, e) in cols.row(y) {
                // An odd first column, then whole pairs, then an odd last
                // column.
                let (a, b) = (s.next_multiple_of(2), e / 2 * 2);
                if s < a {
                    orow[s] = srow[s / 2];
                }
                for (pair, &v) in orow[a..b].chunks_exact_mut(2).zip(&srow[a / 2..]) {
                    pair[0] = v;
                    pair[1] = v;
                }
                if b < e {
                    orow[b] = srow[b / 2];
                }
            }
        }
    }
}

/// Adjoint of [`maxpool2_into`]: adds each element of `gout` (the gradient
/// of the `c × h/2 × w/2` pooled output) into `gin` at the input position
/// its pooled value came from. `a` is the pool's `c × h × w` input and
/// `pooled` its output; the source of a block is the first of `(0,0)`,
/// `(0,1)`, `(1,0)`, `(1,1)` that equals the pooled value, so a tie — flat
/// sandwich regions make all four equal — goes to the earliest position.
///
/// # Panics
/// Panics on mismatched buffer lengths.
pub(crate) fn maxpool2_backward(
    a: &[f32],
    pooled: &[f32],
    gout: &[f32],
    (c, h, w): (usize, usize, usize),
    gin: &mut [f32],
) {
    assert_eq!(a.len(), c * h * w, "max-pool input length mismatch");
    assert_eq!(gin.len(), a.len(), "max-pool input-grad length mismatch");
    assert_eq!(pooled.len(), a.len() / 4, "max-pool output length mismatch");
    assert_eq!(gout.len(), pooled.len(), "max-pool grad length mismatch");
    let (oh, ow) = (h / 2, w / 2);
    for ci in 0..c {
        for y in 0..oh {
            for xp in 0..ow {
                let o = (ci * oh + y) * ow + xp;
                let base = (ci * h + 2 * y) * w + 2 * xp;
                // A block of NaNs equals nothing; it routes to `(0,0)`.
                let src = [base, base + 1, base + w, base + w + 1]
                    .into_iter()
                    .find(|&i| a[i] == pooled[o])
                    .unwrap_or(base);
                gin[src] += gout[o];
            }
        }
    }
}

/// Adjoint of [`upsample2_into`]: writes into each element of the
/// `c × h × w` slice `gin` the sum of its 2×2 block of `gout`
/// (`c × 2h × 2w`), taken in row-major order from `+0.0`.
///
/// # Panics
/// Panics on mismatched buffer lengths.
pub(crate) fn upsample2_backward(gout: &[f32], c: usize, h: usize, w: usize, gin: &mut [f32]) {
    assert_eq!(gin.len(), c * h * w, "upsample input-grad length mismatch");
    assert_eq!(gout.len(), gin.len() * 4, "upsample grad length mismatch");
    let ow = w * 2;
    for (irow, rows) in gin.chunks_exact_mut(w).zip(gout.chunks_exact(2 * ow)) {
        let (top, bot) = rows.split_at(ow);
        for (i, (t, b)) in irow
            .iter_mut()
            .zip(top.chunks_exact(2).zip(bot.chunks_exact(2)))
        {
            *i = 0.0 + t[0] + t[1] + b[0] + b[1];
        }
    }
}

/// Adjoint of the ReLU whose output is `a`: zeroes `g` wherever the
/// activation was clamped.
pub(crate) fn relu_backward(a: &[f32], g: &mut [f32]) {
    assert_eq!(a.len(), g.len(), "relu shape mismatch");
    for (g, &a) in g.iter_mut().zip(a) {
        *g = if a > 0.0 { *g } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_backward() {
        let x = [1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 9.0];
        let mut y = [0.0; 2];
        maxpool2_into(&x, 1, 2, 4, &mut y, f32::max);
        assert_eq!(y, [5.0, 9.0]);
        let mut gin = [0.0; 8];
        maxpool2_backward(&x, &y, &[10.0, 20.0], (1, 2, 4), &mut gin);
        // Gradient flows only to the max positions.
        assert_eq!(gin, [0.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 20.0]);
    }

    #[test]
    fn maxpool_backward_sends_a_tie_to_the_first_position() {
        // Block 0 is flat (four-way tie), block 1 ties (0,1) with (1,0),
        // block 2 ties the bottom row; `gin` is accumulated into.
        let x = [
            0.5, 0.5, 1.0, 7.0, 0.0, 0.0, //
            0.5, 0.5, 7.0, 2.0, 3.0, 3.0,
        ];
        let mut y = [0.0; 3];
        maxpool2_into(&x, 1, 2, 6, &mut y, f32::max);
        assert_eq!(y, [0.5, 7.0, 3.0]);
        let mut gin = [1.0; 12];
        maxpool2_backward(&x, &y, &[10.0, 20.0, 30.0], (1, 2, 6), &mut gin);
        assert_eq!(
            gin,
            [
                11.0, 1.0, 1.0, 21.0, 1.0, 1.0, //
                1.0, 1.0, 1.0, 1.0, 31.0, 1.0,
            ]
        );
    }

    #[test]
    fn u8_pool_matches_the_generic_pool() {
        // 130 columns: two 64-column steps and a scalar tail.
        let (c, h, w) = (3, 4, 130);
        let src: Vec<u8> = (0..c * h * w)
            .map(|i| vrd_video::texture::hash2(i as i64, 3, 9) as u8)
            .collect();
        let (mut fast, mut generic) = (vec![0u8; c * h * w / 4], vec![1u8; c * h * w / 4]);
        maxpool2_u8_into(&src, c, h, w, &mut fast);
        maxpool2_into(&src, c, h, w, &mut generic, u8::max);
        assert_eq!(fast, generic);
    }

    #[test]
    fn upsample_forward_backward_are_adjoint() {
        let x = [3.0, 7.0];
        let mut y = [0.0; 8];
        upsample2_into(&x, 1, 1, 2, &mut y);
        assert_eq!(y, [3.0, 3.0, 7.0, 7.0, 3.0, 3.0, 7.0, 7.0]);
        // Each source receives 4 copies of its own value.
        let mut gin = [f32::NAN; 2];
        upsample2_backward(&y, 1, 1, 2, &mut gin);
        assert_eq!(gin, [12.0, 28.0]);
        // <U g, y> == <g, U^T y> for an arbitrary pair.
        let g = [1.0, -2.0, 0.5, 4.0, 3.0, 0.25, -1.0, 2.0];
        let mut ut_g = [0.0; 2];
        upsample2_backward(&g, 1, 1, 2, &mut ut_g);
        let lhs: f32 = y.iter().zip(&g).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&ut_g).map(|(a, b)| a * b).sum();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn upsample_backward_sums_in_row_major_order() {
        // f32 addition is not associative. Summed ((g00 + g01) + g10) + g11
        // the first block keeps its 1.0 (pairwise (g00 + g01) + (g10 + g11)
        // loses it) and the second loses it (column-major keeps it).
        let mut gin = [0.0];
        upsample2_backward(&[1e8, 0.0, -1e8, 1.0], 1, 1, 1, &mut gin);
        assert_eq!(gin, [1.0]);
        upsample2_backward(&[1e8, 1.0, -1e8, 0.0], 1, 1, 1, &mut gin);
        assert_eq!(gin, [0.0]);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut a = [-1.0, 2.0, 0.0, 3.0];
        relu_in_place(&mut a);
        assert_eq!(a, [0.0, 2.0, 0.0, 3.0]);
        let mut g = [1.0; 4];
        relu_backward(&a, &mut g);
        assert_eq!(g, [0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_squashes() {
        let mut y = [-100.0, 0.0, 100.0];
        sigmoid_in_place(&mut y);
        assert!(y[0] < 1e-6);
        assert!((y[1] - 0.5).abs() < 1e-6);
        assert!(y[2] > 1.0 - 1e-6);
    }
}
