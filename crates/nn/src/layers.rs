//! The parameter-free pieces of NN-S as stateless kernels over raw CHW
//! slices: pooling, upsampling and the activations going forward, and the
//! adjoints of the first two going back. Nothing here remembers a forward
//! pass — the backward kernels are written against the activations the
//! caller kept.

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
    assert!(
        h.is_multiple_of(2) && w.is_multiple_of(2),
        "max-pool needs even dimensions"
    );
    assert_eq!(src.len(), c * h * w, "max-pool input length mismatch");
    assert_eq!(dst.len(), c * h * w / 4, "max-pool output length mismatch");
    let (oh, ow) = (h / 2, w / 2);
    for ci in 0..c {
        let plane = &src[ci * h * w..][..h * w];
        for y in 0..oh {
            let top = &plane[2 * y * w..][..w];
            let bot = &plane[(2 * y + 1) * w..][..w];
            let orow = &mut dst[(ci * oh + y) * ow..][..ow];
            for (o, (t, b)) in orow
                .iter_mut()
                .zip(top.chunks_exact(2).zip(bot.chunks_exact(2)))
            {
                *o = max(max(max(t[0], t[1]), b[0]), b[1]);
            }
        }
    }
}

/// Nearest-neighbour 2× upsampling from a `c × h × w` slice into a
/// `c × 2h × 2w` slice, for either graph's element type.
///
/// # Panics
/// Panics on mismatched buffer lengths.
pub fn upsample2_into<T: Copy>(src: &[T], c: usize, h: usize, w: usize, dst: &mut [T]) {
    assert_eq!(src.len(), c * h * w, "upsample input length mismatch");
    assert_eq!(dst.len(), c * h * w * 4, "upsample output length mismatch");
    let (oh, ow) = (h * 2, w * 2);
    for ci in 0..c {
        let plane = &src[ci * h * w..][..h * w];
        for y in 0..h {
            let srow = &plane[y * w..][..w];
            // Double horizontally into the even output row, then duplicate
            // it into the odd one with a straight copy.
            let rows = &mut dst[(ci * oh + 2 * y) * ow..][..2 * ow];
            let (even, odd) = rows.split_at_mut(ow);
            for (pair, &s) in even.chunks_exact_mut(2).zip(srow) {
                pair[0] = s;
                pair[1] = s;
            }
            odd.copy_from_slice(even);
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
