//! Pre-encode motion analysis for GOP planning.
//!
//! The auto B-ratio mode needs a notion of "how fast is this content"
//! (§III-C: the encoder auto-tunes the B proportion). Raw frame differencing
//! conflates object *size* with object *speed* (a large slow object changes
//! more pixels than a small fast one), so instead we estimate per-gap
//! **displacement**: block-match the most-changed macro-blocks of each frame
//! into the next and take the median motion magnitude in pixels/frame —
//! essentially a miniature motion-estimation pre-pass, which is what
//! production encoders' look-ahead does.

use crate::block::sae_between;
use vrd_video::Frame;

/// Number of high-activity blocks sampled per frame gap.
const PROBE_BLOCKS: usize = 8;
/// Edge length of the probe blocks.
const PROBE_SIZE: usize = 8;
/// Search range of the probe matching in pixels (exhaustive window).
const PROBE_RANGE: i32 = 6;
/// Motion-cost penalty per offset pixel, added to the SAE during probe
/// matching. Periodic textures alias under pure SAE (a shift of one texture
/// period matches as well as the true shift); penalising distance keeps the
/// probe locked to the smallest-displacement interpretation, exactly like
/// the rate term in a production encoder's motion cost.
const PROBE_LAMBDA: u32 = 32;

/// Mean absolute difference of one block between two frames.
fn block_mad(a: &Frame, b: &Frame, x: usize, y: usize) -> u32 {
    let mut sum = 0u32;
    for dy in 0..PROBE_SIZE {
        for dx in 0..PROBE_SIZE {
            sum += (a.get(x + dx, y + dy) as i32 - b.get(x + dx, y + dy) as i32).unsigned_abs();
        }
    }
    sum
}

/// Estimated motion (pixels/frame) for one frame gap.
pub(crate) fn gap_displacement(cur: &Frame, next: &Frame) -> f64 {
    let w = cur.width();
    let h = cur.height();
    if w < PROBE_SIZE || h < PROBE_SIZE {
        return cur.mean_abs_diff(next);
    }
    // Rank blocks by change; the most-changed blocks sit on moving content.
    let mut ranked: Vec<(u32, usize, usize)> = Vec::new();
    for y in (0..h - PROBE_SIZE + 1).step_by(PROBE_SIZE) {
        for x in (0..w - PROBE_SIZE + 1).step_by(PROBE_SIZE) {
            ranked.push((block_mad(cur, next, x, y), x, y));
        }
    }
    ranked.sort_unstable_by_key(|&(mad, _, _)| std::cmp::Reverse(mad));
    let probes = &ranked[..PROBE_BLOCKS.min(ranked.len())];
    if probes.is_empty() || probes[0].0 == 0 {
        return 0.0;
    }
    // SAE above which a probe is considered unmatchable (deforming content);
    // such probes carry no displacement information and are dropped.
    const UNMATCHABLE_SAE: u32 = 16 * (PROBE_SIZE * PROBE_SIZE) as u32;
    let mut mags: Vec<f64> = probes
        .iter()
        .filter(|(mad, _, _)| *mad > 0)
        .filter_map(|&(_, x, y)| {
            // Where did this block of `next` come from in `cur`?
            // Exhaustive search with a distance penalty (anti-aliasing).
            let mut best = (0i32, 0i32, u32::MAX);
            let mut best_sae = u32::MAX;
            for dy in -PROBE_RANGE..=PROBE_RANGE {
                for dx in -PROBE_RANGE..=PROBE_RANGE {
                    let sae = sae_between(
                        next,
                        x,
                        y,
                        cur,
                        x as i32 + dx,
                        y as i32 + dy,
                        PROBE_SIZE,
                        u32::MAX,
                    );
                    if sae == u32::MAX {
                        continue;
                    }
                    let cost = sae + PROBE_LAMBDA * (dx.unsigned_abs() + dy.unsigned_abs());
                    if cost < best.2 {
                        best = (dx, dy, cost);
                        best_sae = sae;
                    }
                }
            }
            if best_sae > UNMATCHABLE_SAE {
                return None;
            }
            let (dx, dy) = (best.0 as f64, best.1 as f64);
            Some((dx * dx + dy * dy).sqrt())
        })
        .collect();
    if mags.len() < PROBE_BLOCKS / 4 {
        // Nearly everything is unmatchable: the content deforms faster than
        // translation can describe. Report a high-motion estimate so the
        // planner stays conservative without zeroing the B run entirely.
        return 3.0;
    }
    mags.sort_unstable_by(f64::total_cmp);
    mags[mags.len() / 2]
}

/// Per-gap displacement estimates for a whole sequence
/// (`result.len() == frames.len() - 1`).
pub(crate) fn estimate_motion(frames: &[Frame]) -> Vec<f64> {
    frames
        .windows(2)
        .map(|p| gap_displacement(&p[0], &p[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_video::davis::{davis_sequence, SuiteConfig};

    #[test]
    fn static_frames_report_zero_motion() {
        let f = davis_sequence("cows", &SuiteConfig::tiny()).unwrap().frames[0].clone();
        assert_eq!(gap_displacement(&f, &f), 0.0);
    }

    #[test]
    fn fast_sequences_measure_faster_than_slow() {
        let cfg = SuiteConfig::default();
        let slow = davis_sequence("cows", &cfg).unwrap();
        let fast = davis_sequence("parkour", &cfg).unwrap();
        let m_slow = estimate_motion(&slow.frames);
        let m_fast = estimate_motion(&fast.frames);
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&m_fast) > 2.0 * avg(&m_slow),
            "fast {:.2} vs slow {:.2}",
            avg(&m_fast),
            avg(&m_slow)
        );
    }

    #[test]
    fn displacement_tracks_actual_speed() {
        let cfg = SuiteConfig::default();
        let seq = davis_sequence("drift-straight", &cfg).unwrap();
        let m = estimate_motion(&seq.frames);
        let avg = m.iter().sum::<f64>() / m.len() as f64;
        // drift-straight moves ~3 px/frame at this canvas.
        assert!(
            (1.5..5.0).contains(&avg),
            "estimated {avg:.2} px/frame, expected ~3"
        );
    }

    #[test]
    fn estimate_len_matches_gaps() {
        let seq = davis_sequence("dog", &SuiteConfig::tiny()).unwrap();
        assert_eq!(estimate_motion(&seq.frames).len(), seq.len() - 1);
    }
}
