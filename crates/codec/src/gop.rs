//! GOP planning: frame-type assignment and decode ordering.
//!
//! The encoder first decides the display-order frame-type sequence
//! (`I B B B P B B B P … I …`) and the matching decode order, in which every
//! B-frame comes *after* both of its bracketing anchors — the property
//! VR-DANN relies on to have reference segmentations ready (§II).

use crate::config::{BFrameMode, CodecConfig};
use crate::error::{CodecError, Result};
use crate::types::FrameType;

/// Motion-adaptive B-run thresholds on the estimated displacement in
/// pixels/frame (see [`crate::motion::estimate_motion`]). Calibrated so the
/// DAVIS-like suite lands near the paper's ~65% average B-frame ratio with
/// slow scenes (e.g. `cows`) high and fast scenes (e.g. `parkour`, `libby`)
/// low.
const AUTO_B_THRESHOLDS: [(f64, u8); 3] = [(1.6, 3), (3.0, 2), (4.6, 1)];

fn auto_b_run(window_motion: f64) -> u8 {
    for &(threshold, b) in &AUTO_B_THRESHOLDS {
        if window_motion < threshold {
            return b;
        }
    }
    0
}

/// The complete frame-structure plan for one sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GopPlan {
    /// Frame type per display index.
    pub types: Vec<FrameType>,
    /// Display indices in decode order.
    pub decode_order: Vec<u32>,
    /// Display indices of anchors (I/P) in display order.
    pub anchors: Vec<u32>,
}

impl GopPlan {
    /// Plans frame types for `n_frames` frames.
    ///
    /// `motion` is the per-gap displacement estimate in pixels/frame from
    /// `estimate_motion` (`motion.len() == n_frames - 1`);
    /// it drives [`BFrameMode::Auto`]. For [`BFrameMode::Fixed`] it may be
    /// empty.
    ///
    /// # Errors
    /// Returns [`CodecError::InvalidConfig`] if `n_frames == 0` or `motion`
    /// has the wrong length in auto mode.
    pub fn plan(cfg: &CodecConfig, n_frames: usize, motion: &[f64]) -> Result<Self> {
        if n_frames == 0 {
            return Err(CodecError::InvalidConfig(
                "cannot plan a zero-frame sequence".into(),
            ));
        }
        if matches!(cfg.b_frames, BFrameMode::Auto) && n_frames > 1 && motion.len() != n_frames - 1
        {
            return Err(CodecError::InvalidConfig(format!(
                "auto GOP planning needs {} motion samples, got {}",
                n_frames - 1,
                motion.len()
            )));
        }

        let mut types = vec![FrameType::B; n_frames];
        let mut anchors = Vec::new();
        types[0] = FrameType::I;
        anchors.push(0u32);

        let mut cur = 0usize;
        while cur + 1 < n_frames {
            let remaining = n_frames - 1 - cur;
            let desired = match cfg.b_frames {
                BFrameMode::Fixed(b) => b,
                BFrameMode::Auto => {
                    // Look at the motion over the next few gaps.
                    let window = &motion[cur..(cur + 4).min(motion.len())];
                    let mean = window.iter().sum::<f64>() / window.len().max(1) as f64;
                    auto_b_run(mean)
                }
            } as usize;
            let b_run = desired.min(remaining.saturating_sub(1));
            let next = cur + b_run + 1;
            // Anchor type: I on GOP boundaries, P otherwise.
            types[next] = if next.is_multiple_of(cfg.gop_len) {
                FrameType::I
            } else {
                FrameType::P
            };
            anchors.push(next as u32);
            cur = next;
        }

        // Decode order: for each segment, bracketing anchor first, then the
        // B-frames in reverse display order (matching the paper's example:
        // display I0 B1 B2 B3 P4 -> decode I0 P4 B3 B2 B1).
        let mut decode_order = Vec::with_capacity(n_frames);
        decode_order.push(0u32);
        for w in anchors.windows(2) {
            let (prev, next) = (w[0], w[1]);
            decode_order.push(next);
            for b in (prev + 1..next).rev() {
                decode_order.push(b);
            }
        }

        Ok(Self {
            types,
            decode_order,
            anchors,
        })
    }

    /// Number of frames planned.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the plan is empty (never true for a successful plan).
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Fraction of frames that are B-frames (Fig. 3a's metric).
    pub fn b_ratio(&self) -> f64 {
        let b = self.types.iter().filter(|t| **t == FrameType::B).count();
        b as f64 / self.types.len() as f64
    }

    /// The anchors bracketing B-frame `display_idx`: `(previous, next)`.
    ///
    /// # Panics
    /// Panics if `display_idx` is not a B-frame of this plan.
    pub fn bracketing_anchors(&self, display_idx: u32) -> (u32, u32) {
        assert_eq!(
            self.types[display_idx as usize],
            FrameType::B,
            "frame {display_idx} is not a B-frame"
        );
        let pos = self.anchors.partition_point(|&a| a < display_idx);
        (self.anchors[pos - 1], self.anchors[pos])
    }

    /// The `n` candidate reference anchors for B-frame `display_idx`,
    /// nearest-first, always starting with the two bracketing anchors.
    ///
    /// # Panics
    /// Panics if `display_idx` is not a B-frame of this plan.
    pub fn candidate_refs(&self, display_idx: u32, n: usize) -> Vec<u32> {
        let (prev, next) = self.bracketing_anchors(display_idx);
        let mut out = vec![prev, next];
        // Expand outwards by display distance.
        let mut lo = self.anchors.partition_point(|&a| a < prev);
        let mut hi = self.anchors.partition_point(|&a| a <= next);
        while out.len() < n && (lo > 0 || hi < self.anchors.len()) {
            let lo_cand = (lo > 0).then(|| self.anchors[lo - 1]);
            let hi_cand = (hi < self.anchors.len()).then(|| self.anchors[hi]);
            match (lo_cand, hi_cand) {
                (Some(a), Some(b)) => {
                    if display_idx - a <= b - display_idx {
                        out.push(a);
                        lo -= 1;
                    } else {
                        out.push(b);
                        hi += 1;
                    }
                }
                (Some(a), None) => {
                    out.push(a);
                    lo -= 1;
                }
                (None, Some(b)) => {
                    out.push(b);
                    hi += 1;
                }
                (None, None) => break,
            }
        }
        out.truncate(n.max(2));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchInterval;

    fn cfg_fixed(b: u8, gop_len: usize) -> CodecConfig {
        CodecConfig {
            gop_len,
            b_frames: BFrameMode::Fixed(b),
            search_interval: SearchInterval::Auto,
            ..CodecConfig::default()
        }
    }

    #[test]
    fn paper_example_structure() {
        // 8 frames, 3 B per anchor, I every 5 frames would give the paper's
        // (I0,B1,B2,B3,P4,...) example; check types and decode order shape.
        let plan = GopPlan::plan(&cfg_fixed(3, 16), 8, &[]).unwrap();
        use FrameType::*;
        assert_eq!(plan.types, vec![I, B, B, B, P, B, B, P]);
        assert_eq!(plan.decode_order, vec![0, 4, 3, 2, 1, 7, 6, 5]);
        assert_eq!(plan.anchors, vec![0, 4, 7]);
    }

    #[test]
    fn every_b_decodes_after_its_anchors() {
        let motion = vec![1.0; 47];
        let plan = GopPlan::plan(&CodecConfig::default(), 48, &motion).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 48];
            for (i, &d) in plan.decode_order.iter().enumerate() {
                p[d as usize] = i;
            }
            p
        };
        for (d, t) in plan.types.iter().enumerate() {
            if *t == FrameType::B {
                let (a, b) = plan.bracketing_anchors(d as u32);
                assert!(pos[d] > pos[a as usize], "B{d} before anchor {a}");
                assert!(pos[d] > pos[b as usize], "B{d} before anchor {b}");
            }
        }
    }

    #[test]
    fn decode_order_is_a_permutation() {
        let plan = GopPlan::plan(&cfg_fixed(2, 12), 30, &[]).unwrap();
        let mut seen = [false; 30];
        for &d in &plan.decode_order {
            assert!(!seen[d as usize], "frame {d} decoded twice");
            seen[d as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn auto_mode_adapts_to_motion() {
        let slow = vec![0.4; 47];
        let fast = vec![6.0; 47];
        let cfg = CodecConfig::default();
        let p_slow = GopPlan::plan(&cfg, 48, &slow).unwrap();
        let p_fast = GopPlan::plan(&cfg, 48, &fast).unwrap();
        assert!(p_slow.b_ratio() > 0.6, "slow ratio {}", p_slow.b_ratio());
        assert!(p_fast.b_ratio() < 0.1, "fast ratio {}", p_fast.b_ratio());
    }

    #[test]
    fn gop_boundaries_are_i_frames() {
        let plan = GopPlan::plan(&cfg_fixed(1, 6), 20, &[]).unwrap();
        for (d, t) in plan.types.iter().enumerate() {
            if t.is_anchor() && d % 6 == 0 {
                assert_eq!(*t, FrameType::I, "frame {d} should be I");
            }
        }
    }

    #[test]
    fn candidate_refs_start_with_bracketing_anchors() {
        let plan = GopPlan::plan(&cfg_fixed(3, 8), 24, &[]).unwrap();
        let b = plan.types.iter().position(|t| *t == FrameType::B).unwrap() as u32;
        let (prev, next) = plan.bracketing_anchors(b);
        let refs = plan.candidate_refs(b, 5);
        assert_eq!(refs[0], prev);
        assert_eq!(refs[1], next);
        assert!(refs.len() <= 5);
        // All distinct.
        let mut sorted = refs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), refs.len());
    }

    #[test]
    fn candidate_refs_expand_by_distance() {
        let plan = GopPlan::plan(&cfg_fixed(1, 100), 11, &[]).unwrap();
        // anchors: 0,2,4,6,8,10; B frames at odd indices.
        let refs = plan.candidate_refs(5, 4);
        assert_eq!(refs[0], 4);
        assert_eq!(refs[1], 6);
        // Next nearest anchors are 2 and 8 (distance 3 each) in some order.
        assert!(refs[2..].contains(&2));
        assert!(refs[2..].contains(&8));
    }

    #[test]
    fn single_frame_sequence_is_one_i_frame() {
        let plan = GopPlan::plan(&CodecConfig::default(), 1, &[]).unwrap();
        assert_eq!(plan.types, vec![FrameType::I]);
        assert_eq!(plan.decode_order, vec![0]);
        assert_eq!(plan.b_ratio(), 0.0);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn plan_rejects_bad_inputs() {
        assert!(GopPlan::plan(&CodecConfig::default(), 0, &[]).is_err());
        // Auto with wrong motion length.
        assert!(GopPlan::plan(&CodecConfig::default(), 10, &[1.0; 3]).is_err());
    }
}
