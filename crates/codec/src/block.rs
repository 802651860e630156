//! Macro-block pixel operations: extraction, SAE, averaging.
//!
//! The encoder's mode decision is driven entirely by the **sum of absolute
//! errors (SAE)** between a candidate prediction and the source block, as
//! described in §II of the paper.

use vrd_video::Frame;

/// Copies the `size`×`size` block at `(x, y)` out of `frame`.
///
/// # Panics
/// Panics if the block does not lie fully inside the frame.
pub(crate) fn extract_block(frame: &Frame, x: usize, y: usize, size: usize) -> Vec<u8> {
    assert!(x + size <= frame.width() && y + size <= frame.height());
    let mut out = Vec::with_capacity(size * size);
    let data = frame.as_slice();
    for row in 0..size {
        let start = (y + row) * frame.width() + x;
        out.extend_from_slice(&data[start..start + size]);
    }
    out
}

/// Writes a `size`×`size` block into `frame` at `(x, y)`.
///
/// # Panics
/// Panics if the block does not lie fully inside the frame or
/// `block.len() != size * size`.
pub(crate) fn write_block(frame: &mut Frame, x: usize, y: usize, size: usize, block: &[u8]) {
    assert_eq!(block.len(), size * size);
    assert!(x + size <= frame.width() && y + size <= frame.height());
    let w = frame.width();
    let data = frame.as_mut_slice();
    for row in 0..size {
        let start = (y + row) * w + x;
        data[start..start + size].copy_from_slice(&block[row * size..(row + 1) * size]);
    }
}

/// SAE between the `size`×`size` block of `cur` at `(cx, cy)` and the block
/// of `reference` at `(rx, ry)`, early-exiting once the partial sum exceeds
/// `limit`.
///
/// Returns `u32::MAX` if the reference block is not fully inside the frame
/// (callers clamp their search windows, so this is a guard, not a code
/// path).
#[allow(clippy::too_many_arguments)] // mirrors the hardware operands: two frames, two positions, a size, a bound
pub(crate) fn sae_between(
    cur: &Frame,
    cx: usize,
    cy: usize,
    reference: &Frame,
    rx: i32,
    ry: i32,
    size: usize,
    limit: u32,
) -> u32 {
    if rx < 0
        || ry < 0
        || rx as usize + size > reference.width()
        || ry as usize + size > reference.height()
    {
        return u32::MAX;
    }
    let (rx, ry) = (rx as usize, ry as usize);
    let cw = cur.width();
    let rw = reference.width();
    let cdata = cur.as_slice();
    let rdata = reference.as_slice();
    let mut total = 0u32;
    for row in 0..size {
        let c = &cdata[(cy + row) * cw + cx..(cy + row) * cw + cx + size];
        let r = &rdata[(ry + row) * rw + rx..(ry + row) * rw + rx + size];
        for (a, b) in c.iter().zip(r) {
            total += (*a as i32 - *b as i32).unsigned_abs();
        }
        if total > limit {
            return total;
        }
    }
    total
}

/// SAE between the block of `cur` at `(cx, cy)` and an explicit prediction
/// buffer (used for intra and bi predictions).
///
/// # Panics
/// Panics if `pred.len() != size * size`.
pub(crate) fn sae_against(cur: &Frame, cx: usize, cy: usize, pred: &[u8], size: usize) -> u32 {
    assert_eq!(pred.len(), size * size);
    let cw = cur.width();
    let cdata = cur.as_slice();
    let mut total = 0u32;
    for row in 0..size {
        let c = &cdata[(cy + row) * cw + cx..(cy + row) * cw + cx + size];
        let p = &pred[row * size..(row + 1) * size];
        for (a, b) in c.iter().zip(p) {
            total += (*a as i32 - *b as i32).unsigned_abs();
        }
    }
    total
}

/// Pixel-wise average of two prediction blocks (bi-prediction).
///
/// # Panics
/// Panics if the blocks have different lengths.
pub(crate) fn average_blocks(a: &[u8], b: &[u8]) -> Vec<u8> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as u16 + y as u16).div_ceil(2) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_frame(w: usize, h: usize) -> Frame {
        let data = (0..w * h).map(|i| (i % 251) as u8).collect();
        Frame::from_vec(w, h, data)
    }

    #[test]
    fn extract_write_roundtrip() {
        let src = gradient_frame(16, 16);
        let block = extract_block(&src, 4, 8, 8);
        let mut dst = Frame::new(16, 16);
        write_block(&mut dst, 4, 8, 8, &block);
        assert_eq!(extract_block(&dst, 4, 8, 8), block);
        // Outside the block the destination is untouched.
        assert_eq!(dst.get(0, 0), 0);
    }

    #[test]
    fn sae_zero_for_identical_blocks() {
        let f = gradient_frame(32, 32);
        assert_eq!(sae_between(&f, 8, 8, &f, 8, 8, 8, u32::MAX), 0);
    }

    #[test]
    fn sae_detects_shift() {
        let f = gradient_frame(32, 32);
        let shifted = sae_between(&f, 8, 8, &f, 9, 8, 8, u32::MAX);
        assert!(shifted > 0);
    }

    #[test]
    fn sae_out_of_bounds_is_max() {
        let f = gradient_frame(16, 16);
        assert_eq!(sae_between(&f, 0, 0, &f, -1, 0, 8, u32::MAX), u32::MAX);
        assert_eq!(sae_between(&f, 0, 0, &f, 9, 0, 8, u32::MAX), u32::MAX);
    }

    #[test]
    fn sae_early_exit_overshoots_but_exceeds_limit() {
        let black = Frame::new(16, 16);
        let white = Frame::from_vec(16, 16, vec![255; 256]);
        let v = sae_between(&white, 0, 0, &black, 0, 0, 8, 100);
        assert!(v > 100);
        assert!(v < 64 * 255); // aborted before summing every row
    }

    #[test]
    fn sae_against_prediction() {
        let f = gradient_frame(16, 16);
        let block = extract_block(&f, 0, 0, 8);
        assert_eq!(sae_against(&f, 0, 0, &block, 8), 0);
        let off: Vec<u8> = block.iter().map(|&v| v.saturating_add(2)).collect();
        let sae = sae_against(&f, 0, 0, &off, 8);
        assert!(sae > 0 && sae <= 2 * 64);
    }

    #[test]
    fn average_rounds_to_nearest() {
        assert_eq!(
            average_blocks(&[0, 10, 255], &[1, 20, 255]),
            vec![1, 15, 255]
        );
    }
}
