//! Intra prediction modes.
//!
//! Simplified H.26x-style spatial prediction: a block is predicted from the
//! already-reconstructed row above and column left of it within the same
//! frame. H.264 exposes 9 modes, H.265 14 (§II: "a total of 14 prediction
//! modes"); the extra H.265 modes are finer angular directions, which is the
//! behavioural difference the Fig. 17 comparison needs.
//!
//! When a neighbour is unavailable (frame border) its samples default to 128,
//! mirroring the standards' mid-level substitution.

use crate::config::MAX_MB_SIZE;
use vrd_video::Frame;

/// Mid-gray substitute for unavailable neighbour samples.
const MID: u8 = 128;

/// Gathers the top neighbour row (the first `size` entries), left neighbour
/// column (likewise) and the top-left corner sample of a block,
/// substituting `MID` outside the frame. `recon` is the in-progress
/// reconstructed frame.
fn neighbours(
    recon: &Frame,
    x: usize,
    y: usize,
    size: usize,
) -> ([u8; MAX_MB_SIZE], [u8; MAX_MB_SIZE], u8) {
    let (mut top, mut left) = ([MID; MAX_MB_SIZE], [MID; MAX_MB_SIZE]);
    if y > 0 {
        for (i, t) in top[..size].iter_mut().enumerate() {
            *t = recon.get(x + i, y - 1);
        }
    }
    if x > 0 {
        for (i, l) in left[..size].iter_mut().enumerate() {
            *l = recon.get(x - 1, y + i);
        }
    }
    let corner = if x > 0 && y > 0 {
        recon.get(x - 1, y - 1)
    } else {
        MID
    };
    (top, left, corner)
}

/// Predicts a `size`×`size` block with intra `mode` from the reconstructed
/// neighbourhood (see [`predict_into`]).
pub(crate) fn predict(recon: &Frame, x: usize, y: usize, size: usize, mode: u8) -> Vec<u8> {
    let mut out = vec![0u8; size * size];
    predict_into(recon, x, y, size, mode, &mut out);
    out
}

/// Writes the `size`×`size` intra prediction of the block at `(x, y)` into
/// `out`, row-major. Valid modes are `0..n_modes` where `n_modes` comes from
/// [`crate::config::Standard::intra_modes`].
///
/// Mode map: 0 DC, 1 vertical, 2 horizontal, 3 diagonal down-left,
/// 4 diagonal down-right, 5 plane, 6 vertical-right, 7 horizontal-down,
/// 8 vertical-left, 9..13 finer angular blends (H.265 only).
///
/// # Panics
/// Panics if the block does not lie fully inside the frame, `size` exceeds
/// 16 or `out.len() != size * size`.
pub(crate) fn predict_into(
    recon: &Frame,
    x: usize,
    y: usize,
    size: usize,
    mode: u8,
    out: &mut [u8],
) {
    assert!(x + size <= recon.width() && y + size <= recon.height());
    assert!(size <= MAX_MB_SIZE && out.len() == size * size);
    let (top, left, corner) = neighbours(recon, x, y, size);
    let (top, left) = (&top[..size], &left[..size]);
    let at = |i: i32, arr: &[u8]| -> u8 { arr[i.clamp(0, size as i32 - 1) as usize] };
    match mode {
        // DC: mean of all neighbour samples.
        0 => {
            let sum: u32 = top.iter().chain(left.iter()).map(|&v| v as u32).sum();
            let dc = (sum / (2 * size) as u32) as u8;
            out.fill(dc);
        }
        // Vertical: copy the row above downwards.
        1 => {
            for r in 0..size {
                out[r * size..(r + 1) * size].copy_from_slice(top);
            }
        }
        // Horizontal: copy the left column rightwards.
        2 => {
            for r in 0..size {
                out[r * size..(r + 1) * size].fill(left[r]);
            }
        }
        // Diagonal down-left: sample top row at x + y.
        3 => {
            for r in 0..size {
                for c in 0..size {
                    out[r * size + c] = at(c as i32 + r as i32 + 1, top);
                }
            }
        }
        // Diagonal down-right: 45-degree from corner/top/left.
        4 => {
            for r in 0..size {
                for c in 0..size {
                    let d = c as i32 - r as i32;
                    out[r * size + c] = match d.cmp(&0) {
                        std::cmp::Ordering::Greater => at(d - 1, top),
                        std::cmp::Ordering::Less => at(-d - 1, left),
                        std::cmp::Ordering::Equal => corner,
                    };
                }
            }
        }
        // Plane: bilinear gradient from top and left.
        5 => {
            for r in 0..size {
                for c in 0..size {
                    let v = (top[c] as u32 * (size - r) as u32
                        + left[r] as u32 * (size - c) as u32
                        + at(size as i32 - 1, top) as u32 * r as u32
                        + at(size as i32 - 1, left) as u32 * c as u32)
                        / (2 * size) as u32;
                    out[r * size + c] = v.min(255) as u8;
                }
            }
        }
        // Angular blends: sample the top row (vertical family) or the left
        // column (horizontal family) at a mode-dependent slope, averaging
        // two taps. Modes 6-8 exist in both standards, 9-13 are the finer
        // H.265-only directions.
        m => {
            // (family, numerator, denominator): offset = r * num / den.
            let (vertical, num, den) = match m {
                6 => (true, 1, 2),  // vertical-right
                7 => (false, 1, 2), // horizontal-down
                8 => (true, -1, 2), // vertical-left
                9 => (true, 1, 4),
                10 => (true, -1, 4),
                11 => (false, 1, 4),
                12 => (true, 3, 4),
                13 => (false, 3, 4),
                _ => (true, 0, 1), // unknown modes degrade to vertical
            };
            for r in 0..size {
                for c in 0..size {
                    let v = if vertical {
                        let off = r as i32 * num / den;
                        let a = at(c as i32 + off, top);
                        let b = at(c as i32 + off + 1, top);
                        ((a as u16 + b as u16) / 2) as u8
                    } else {
                        let off = c as i32 * num / den;
                        let a = at(r as i32 + off, left);
                        let b = at(r as i32 + off + 1, left);
                        ((a as u16 + b as u16) / 2) as u8
                    };
                    out[r * size + c] = v;
                }
            }
        }
    }
}

/// Picks the intra mode with minimal SAE against the source block.
///
/// Returns `(mode, prediction, sae)`.
pub(crate) fn best_mode(
    source: &Frame,
    recon: &Frame,
    x: usize,
    y: usize,
    size: usize,
    n_modes: u8,
) -> (u8, Vec<u8>, u32) {
    let mut best = (0u8, Vec::new(), u32::MAX);
    for mode in 0..n_modes {
        let pred = predict(recon, x, y, size, mode);
        let sae = crate::block::sae_against(source, x, y, &pred, size);
        if sae < best.2 {
            best = (mode, pred, sae);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reconstructed frame with a strong vertical stripe pattern.
    fn striped(w: usize, h: usize) -> Frame {
        let data = (0..w * h)
            .map(|i| if (i % w).is_multiple_of(2) { 200 } else { 40 })
            .collect();
        Frame::from_vec(w, h, data)
    }

    #[test]
    fn all_modes_produce_full_blocks() {
        let f = striped(32, 32);
        for mode in 0..14 {
            let p = predict(&f, 8, 8, 8, mode);
            assert_eq!(p.len(), 64, "mode {mode}");
        }
    }

    #[test]
    fn border_blocks_fall_back_to_mid_gray() {
        let f = striped(16, 16);
        let p = predict(&f, 0, 0, 8, 0); // DC with no neighbours
        assert!(p.iter().all(|&v| v == 128));
    }

    #[test]
    fn vertical_mode_extends_top_row() {
        let f = striped(32, 32);
        let p = predict(&f, 8, 8, 8, 1);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(p[r * 8 + c], f.get(8 + c, 7));
            }
        }
    }

    #[test]
    fn horizontal_mode_extends_left_column() {
        let f = striped(32, 32);
        let p = predict(&f, 8, 8, 8, 2);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(p[r * 8 + c], f.get(7, 8 + r));
            }
        }
    }

    #[test]
    fn best_mode_picks_vertical_for_vertical_stripes() {
        // Source and reconstruction share the same vertical stripes, so the
        // vertical mode predicts perfectly.
        let f = striped(32, 32);
        let (mode, _pred, sae) = best_mode(&f, &f, 8, 8, 8, 9);
        assert_eq!(sae, 0);
        assert_eq!(mode, 1);
    }

    #[test]
    fn more_modes_never_hurt() {
        let f = striped(32, 32);
        // A diagonal source: richer mode sets should match at least as well.
        let diag = Frame::from_vec(
            32,
            32,
            (0..32 * 32)
                .map(|i| {
                    let (x, y) = (i % 32, i / 32);
                    ((x + y) * 8 % 256) as u8
                })
                .collect(),
        );
        let (_, _, sae9) = best_mode(&diag, &f, 8, 8, 8, 9);
        let (_, _, sae14) = best_mode(&diag, &f, 8, 8, 8, 14);
        assert!(sae14 <= sae9);
    }
}
