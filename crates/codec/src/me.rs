//! Inter-frame motion estimation.
//!
//! A three-step (log) search over each candidate reference frame: evaluate
//! the 8-neighbourhood at step 4, then 2, then 1 pixels around the running
//! best offset. This is the classic fast search used by practical encoders
//! and keeps the whole-suite encode time tractable while still finding the
//! minimum-SAE block in locally smooth error surfaces.

use crate::block::{average_blocks, extract_block, sae_against, sae_between};
use vrd_video::Frame;

/// Motion search range in pixels (± around the co-located block).
const SEARCH_RANGE: i32 = 8;

/// The outcome of a single-reference search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Match {
    /// Index into the candidate reference list that was searched.
    pub ref_index: usize,
    /// Source block x in the reference frame.
    pub src_x: i32,
    /// Source block y in the reference frame.
    pub src_y: i32,
    /// SAE of the match.
    pub sae: u32,
}

/// Three-step search for the best `size`×`size` match of the block at
/// `(bx, by)` of `cur` inside `reference`, within ±[`SEARCH_RANGE`] pixels.
pub(crate) fn search_one(
    cur: &Frame,
    bx: usize,
    by: usize,
    reference: &Frame,
    size: usize,
) -> (i32, i32, u32) {
    let mut best_dx = 0i32;
    let mut best_dy = 0i32;
    let mut best = sae_between(cur, bx, by, reference, bx as i32, by as i32, size, u32::MAX);
    let mut step = 4;
    while step >= 1 {
        let mut improved = true;
        while improved {
            improved = false;
            for (ox, oy) in [
                (-step, 0),
                (step, 0),
                (0, -step),
                (0, step),
                (-step, -step),
                (step, step),
                (-step, step),
                (step, -step),
            ] {
                let dx = best_dx + ox;
                let dy = best_dy + oy;
                if dx.abs() > SEARCH_RANGE || dy.abs() > SEARCH_RANGE {
                    continue;
                }
                let sae = sae_between(
                    cur,
                    bx,
                    by,
                    reference,
                    bx as i32 + dx,
                    by as i32 + dy,
                    size,
                    best,
                );
                if sae < best {
                    best = sae;
                    best_dx = dx;
                    best_dy = dy;
                    improved = true;
                }
            }
        }
        step /= 2;
    }
    (bx as i32 + best_dx, by as i32 + best_dy, best)
}

/// Searches every candidate reference frame and returns the best match.
///
/// Returns `None` when `refs` is empty.
pub(crate) fn search_all(
    cur: &Frame,
    bx: usize,
    by: usize,
    refs: &[&Frame],
    size: usize,
) -> Option<Match> {
    let mut best: Option<Match> = None;
    for (i, reference) in refs.iter().enumerate() {
        let (sx, sy, sae) = search_one(cur, bx, by, reference, size);
        if best.is_none_or(|b| sae < b.sae) {
            best = Some(Match {
                ref_index: i,
                src_x: sx,
                src_y: sy,
                sae,
            });
        }
    }
    best
}

/// A bi-prediction candidate: the best forward and backward matches plus the
/// SAE of their averaged prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BiMatch {
    /// Best match among references earlier in display order.
    pub fwd: Match,
    /// Best match among references later in display order.
    pub bwd: Match,
    /// SAE of the averaged prediction.
    pub sae: u32,
    /// The averaged prediction block itself.
    pub pred: Vec<u8>,
}

/// Builds the bi-prediction from a forward and a backward match.
#[allow(clippy::too_many_arguments)] // two matches, their frames, a position and a size
pub(crate) fn bi_predict(
    cur: &Frame,
    bx: usize,
    by: usize,
    fwd: Match,
    fwd_frame: &Frame,
    bwd: Match,
    bwd_frame: &Frame,
    size: usize,
) -> BiMatch {
    let a = extract_block(fwd_frame, fwd.src_x as usize, fwd.src_y as usize, size);
    let b = extract_block(bwd_frame, bwd.src_x as usize, bwd.src_y as usize, size);
    let pred = average_blocks(&a, &b);
    let sae = sae_against(cur, bx, by, &pred, size);
    BiMatch {
        fwd,
        bwd,
        sae,
        pred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a frame with a bright textured square at `(x, y)`.
    fn square_at(w: usize, h: usize, x: usize, y: usize) -> Frame {
        let mut f = Frame::new(w, h);
        for dy in 0..8 {
            for dx in 0..8 {
                // Textured so the match is unambiguous.
                f.set(x + dx, y + dy, 100 + ((dx * 13 + dy * 7) % 100) as u8);
            }
        }
        f
    }

    #[test]
    fn finds_exact_translation() {
        let reference = square_at(64, 48, 20, 16);
        let cur = square_at(64, 48, 25, 13); // moved by (+5, -3)
        let (sx, sy, sae) = search_one(&cur, 25, 13, &reference, 8);
        // Block at (25,13) in cur should match (20,16) in reference.
        assert_eq!((sx, sy), (20, 16));
        assert_eq!(sae, 0);
    }

    #[test]
    fn zero_motion_matches_colocated() {
        let f = square_at(64, 48, 24, 16);
        let (sx, sy, sae) = search_one(&f, 24, 16, &f, 8);
        assert_eq!((sx, sy, sae), (24, 16, 0));
    }

    #[test]
    fn respects_search_range() {
        let reference = square_at(64, 48, 8, 16);
        let cur = square_at(64, 48, 32, 16); // moved by 24 > range 8
        let (sx, _sy, sae) = search_one(&cur, 32, 16, &reference, 8);
        assert!((sx - 32).abs() <= SEARCH_RANGE, "outside range: {sx}");
        assert!(sae > 0, "cannot perfectly match beyond the range");
    }

    #[test]
    fn search_all_picks_best_reference() {
        let bad = Frame::new(64, 48);
        let good = square_at(64, 48, 22, 18);
        let cur = square_at(64, 48, 24, 16);
        let m = search_all(&cur, 24, 16, &[&bad, &good], 8).unwrap();
        assert_eq!(m.ref_index, 1);
        assert_eq!((m.src_x, m.src_y), (22, 18));
        assert_eq!(m.sae, 0);
        assert!(search_all(&cur, 24, 16, &[], 8).is_none());
    }

    #[test]
    fn bi_prediction_averages_references() {
        // Forward all-100, backward all-200: the average 150 matches a
        // mid-bright block better than either alone.
        let fwd_frame = Frame::from_vec(32, 32, vec![100; 32 * 32]);
        let bwd_frame = Frame::from_vec(32, 32, vec![200; 32 * 32]);
        let cur = Frame::from_vec(32, 32, vec![150; 32 * 32]);
        let fwd = Match {
            ref_index: 0,
            src_x: 8,
            src_y: 8,
            sae: 64 * 50,
        };
        let bwd = Match {
            ref_index: 1,
            src_x: 8,
            src_y: 8,
            sae: 64 * 50,
        };
        let bi = bi_predict(&cur, 8, 8, fwd, &fwd_frame, bwd, &bwd_frame, 8);
        assert_eq!(bi.sae, 0);
        assert!(bi.pred.iter().all(|&v| v == 150));
    }
}
