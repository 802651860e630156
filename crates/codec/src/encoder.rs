//! The hybrid block encoder.
//!
//! Classic H.26x structure: plan the GOP, then for each frame in decode
//! order choose per-macro-block between intra prediction, single-reference
//! inter prediction and (for B-frames) bi-prediction, by minimum SAE.
//! Prediction always uses *reconstructed* frames (encode → quantise →
//! dequantise → reconstruct), so the decoder reproduces the encoder's
//! references exactly and no drift accumulates.

use crate::bitstream::{Writer, MAGIC, VERSION};
use crate::block::{extract_block, write_block};
use crate::config::{CodecConfig, Standard};
use crate::error::{CodecError, Result};
use crate::gop::GopPlan;
use crate::intra;
use crate::me::{self, Match};
use crate::stats::EncodeStats;
use crate::types::{BlockMode, BlockMv, FrameType};
use bytes::Bytes;
use std::collections::BTreeSet;
use vrd_video::Frame;

/// A fully encoded sequence: bitstream plus the encoding-time artefacts the
/// experiments inspect (plan, statistics).
#[derive(Debug, Clone)]
pub struct EncodedVideo {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// The configuration the stream was encoded with.
    pub config: CodecConfig,
    /// The GOP plan (frame types, decode order, anchors).
    pub plan: GopPlan,
    /// The serialised bitstream.
    pub bitstream: Bytes,
    /// Encoder statistics (B ratio, refs per B, compression, …).
    pub stats: EncodeStats,
}

/// Video encoder configured once and reusable across sequences.
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    cfg: CodecConfig,
}

impl Encoder {
    /// Creates an encoder with the given configuration.
    pub fn new(cfg: CodecConfig) -> Self {
        Self { cfg }
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &CodecConfig {
        &self.cfg
    }

    /// Encodes a display-ordered frame sequence into a bitstream.
    ///
    /// # Errors
    /// Returns [`CodecError::BadDimensions`] if frames are missing, sized
    /// inconsistently or incompatible with the macro-block size, and
    /// [`CodecError::InvalidConfig`] for inconsistent settings.
    pub fn encode(&self, frames: &[Frame]) -> Result<EncodedVideo> {
        let first = frames
            .first()
            .ok_or_else(|| CodecError::BadDimensions("empty frame sequence".into()))?;
        let (w, h) = (first.width(), first.height());
        if frames.iter().any(|f| f.width() != w || f.height() != h) {
            return Err(CodecError::BadDimensions(
                "all frames must share dimensions".into(),
            ));
        }
        self.cfg.validate_for(w, h)?;

        let motion = crate::motion::estimate_motion(frames);
        let plan = GopPlan::plan(&self.cfg, frames.len(), &motion)?;

        let mb = self.cfg.standard.mb_size();
        let n_refs = self.cfg.search_interval.resolve();
        let quant = self.cfg.quant as i32;
        let mut stats = EncodeStats {
            n_frames: frames.len(),
            b_frames: plan.types.iter().filter(|t| **t == FrameType::B).count(),
            raw_bytes: w * h * frames.len(),
            ..EncodeStats::default()
        };

        let mut wtr = Writer::new();
        for b in MAGIC {
            wtr.put_u8(b);
        }
        wtr.put_u8(VERSION);
        wtr.put_varint(w as u64);
        wtr.put_varint(h as u64);
        wtr.put_varint(frames.len() as u64);
        wtr.put_u8(match self.cfg.standard {
            Standard::H264 => 0,
            Standard::H265 => 1,
        });
        wtr.put_u8(self.cfg.quant);

        // Reconstructed frames by display index (anchors are kept for
        // referencing; B reconstructions are only needed transiently for
        // intra prediction within the frame itself).
        let mut recon: Vec<Option<Frame>> = vec![None; frames.len()];

        for &display in &plan.decode_order {
            let d = display as usize;
            let ftype = plan.types[d];
            wtr.put_u8(match ftype {
                FrameType::I => 0,
                FrameType::P => 1,
                FrameType::B => 2,
            });
            wtr.put_varint(display as u64);

            let cur = &frames[d];
            let mut rec = Frame::new(w, h);
            let mut refs_used: BTreeSet<u32> = BTreeSet::new();

            // Candidate reference frames for this frame.
            let candidates: Vec<u32> = match ftype {
                FrameType::I => Vec::new(),
                FrameType::P => {
                    // Nearest `n` anchors strictly before this frame.
                    let pos = plan.anchors.partition_point(|&a| a < display);
                    plan.anchors[pos.saturating_sub(n_refs)..pos]
                        .iter()
                        .rev()
                        .copied()
                        .collect()
                }
                FrameType::B => plan
                    .candidate_refs(display, n_refs)
                    .into_iter()
                    // A real encoder can only reference already-decoded
                    // frames; future anchors beyond the bracketing one have
                    // not been reconstructed yet at this point in decode
                    // order.
                    .filter(|&c| recon[c as usize].is_some())
                    .collect(),
            };
            // Pair each candidate with its reconstruction, dropping any
            // without one (decode order guarantees anchors are already
            // reconstructed, so nothing is dropped in practice); the two
            // vectors stay index-aligned for `ref_index` lookups.
            let (candidates, cand_frames): (Vec<u32>, Vec<&Frame>) = candidates
                .iter()
                .filter_map(|&c| recon[c as usize].as_ref().map(|f| (c, f)))
                .unzip();

            for by in (0..h).step_by(mb) {
                for bx in (0..w).step_by(mb) {
                    let (mode_intra, pred_intra, sae_intra) =
                        intra::best_mode(cur, &rec, bx, by, mb, self.cfg.standard.intra_modes());

                    // Inter candidates.
                    let single = me::search_all(cur, bx, by, &cand_frames, mb);
                    let bi = if ftype == FrameType::B {
                        self.best_bi(cur, bx, by, display, &candidates, &cand_frames, mb)
                    } else {
                        None
                    };

                    // Mode decision by minimum SAE: intra wins ties against
                    // both inter modes, single-reference wins ties against
                    // bi-prediction. A missing inter match scores u32::MAX
                    // and can only be selected when intra also lost, which
                    // cannot happen — the map_or fallbacks below keep the
                    // decision total without a panic path.
                    let sae_single = single.as_ref().map_or(u32::MAX, |m| m.sae);
                    let sae_bi = bi.as_ref().map_or(u32::MAX, |b| b.sae);
                    let choice = if sae_intra <= sae_single && sae_intra <= sae_bi {
                        BlockChoice::Intra
                    } else if sae_single <= sae_bi {
                        single.map_or(BlockChoice::Intra, BlockChoice::Single)
                    } else {
                        bi.map_or(BlockChoice::Intra, BlockChoice::Bi)
                    };
                    let mv_of = |m: &Match| BlockMv {
                        frame: candidates[m.ref_index],
                        dx: m.src_x - bx as i32,
                        dy: m.src_y - by as i32,
                    };
                    let (record, pred) = match choice {
                        BlockChoice::Intra => {
                            stats.intra_blocks += 1;
                            (BlockMode::Intra(mode_intra), pred_intra)
                        }
                        BlockChoice::Single(m) => {
                            stats.inter_blocks += 1;
                            let pred = extract_block(
                                cand_frames[m.ref_index],
                                m.src_x as usize,
                                m.src_y as usize,
                                mb,
                            );
                            (BlockMode::Inter(mv_of(&m)), pred)
                        }
                        BlockChoice::Bi(b) => {
                            stats.bi_blocks += 1;
                            (BlockMode::Bi(mv_of(&b.fwd), mv_of(&b.bwd)), b.pred)
                        }
                    };
                    for mv in record.mvs() {
                        refs_used.insert(mv.frame);
                        stats.mv_magnitude_sum += mv.magnitude();
                        stats.mv_count += 1;
                    }
                    record.write(&mut wtr);

                    // Quantised residual + local reconstruction.
                    let src = extract_block(cur, bx, by, mb);
                    let mut resid = Vec::with_capacity(mb * mb);
                    let mut rec_block = Vec::with_capacity(mb * mb);
                    for (s, p) in src.iter().zip(&pred) {
                        let diff = *s as i32 - *p as i32;
                        let q = if diff >= 0 {
                            (diff + quant / 2) / quant
                        } else {
                            (diff - quant / 2) / quant
                        };
                        resid.push(q as i16);
                        rec_block.push((*p as i32 + q * quant).clamp(0, 255) as u8);
                    }
                    wtr.put_residual(&resid);
                    write_block(&mut rec, bx, by, mb, &rec_block);
                }
            }

            if ftype == FrameType::B {
                stats.refs_per_b.push(refs_used.len());
            }
            recon[d] = Some(rec);
        }

        stats.bitstream_bytes = wtr.len();
        Ok(EncodedVideo {
            width: w,
            height: h,
            config: self.cfg,
            plan,
            bitstream: wtr.into_bytes(),
            stats,
        })
    }

    /// Best bi-prediction: best forward match averaged with best backward
    /// match (both must exist).
    #[allow(clippy::too_many_arguments)]
    fn best_bi(
        &self,
        cur: &Frame,
        bx: usize,
        by: usize,
        display: u32,
        candidates: &[u32],
        cand_frames: &[&Frame],
        mb: usize,
    ) -> Option<me::BiMatch> {
        let mut best_fwd: Option<Match> = None;
        let mut best_bwd: Option<Match> = None;
        for (i, (&c, frame)) in candidates.iter().zip(cand_frames).enumerate() {
            let (sx, sy, sae) = me::search_one(cur, bx, by, frame, mb);
            let m = Match {
                ref_index: i,
                src_x: sx,
                src_y: sy,
                sae,
            };
            let slot = if c < display {
                &mut best_fwd
            } else {
                &mut best_bwd
            };
            if slot.is_none_or(|b| m.sae < b.sae) {
                *slot = Some(m);
            }
        }
        let (fwd, bwd) = (best_fwd?, best_bwd?);
        Some(me::bi_predict(
            cur,
            bx,
            by,
            fwd,
            cand_frames[fwd.ref_index],
            bwd,
            cand_frames[bwd.ref_index],
            mb,
        ))
    }
}

/// A block's mode decision: the minimum-SAE prediction to serialise.
enum BlockChoice {
    Intra,
    Single(Match),
    Bi(me::BiMatch),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BFrameMode, SearchInterval};
    use vrd_video::davis::{davis_sequence, SuiteConfig};

    fn tiny_frames() -> Vec<Frame> {
        davis_sequence("cows", &SuiteConfig::tiny()).unwrap().frames
    }

    #[test]
    fn encode_produces_nonempty_stream_and_consistent_stats() {
        let enc = Encoder::new(CodecConfig::default());
        let frames = tiny_frames();
        let ev = enc.encode(&frames).unwrap();
        assert!(!ev.bitstream.is_empty());
        assert_eq!(ev.stats.n_frames, frames.len());
        assert_eq!(
            ev.stats.b_frames,
            ev.plan.types.iter().filter(|t| **t == FrameType::B).count()
        );
        assert_eq!(ev.stats.refs_per_b.len(), ev.stats.b_frames);
        // Total coded blocks = frames × blocks-per-frame.
        let blocks = (64 / 8) * (48 / 8) * frames.len();
        assert_eq!(
            ev.stats.intra_blocks + ev.stats.inter_blocks + ev.stats.bi_blocks,
            blocks
        );
    }

    #[test]
    fn compresses_synthetic_video() {
        let enc = Encoder::new(CodecConfig::default());
        let ev = enc.encode(&tiny_frames()).unwrap();
        assert!(
            ev.stats.compression_ratio() > 2.0,
            "compression ratio too low: {:.2}",
            ev.stats.compression_ratio()
        );
    }

    #[test]
    fn b_frames_use_bi_prediction() {
        let cfg = CodecConfig {
            b_frames: BFrameMode::Fixed(3),
            ..CodecConfig::default()
        };
        let ev = Encoder::new(cfg).encode(&tiny_frames()).unwrap();
        assert!(ev.stats.bi_blocks > 0, "no bi-predicted blocks at all");
        assert!(ev.stats.b_ratio() > 0.5);
    }

    #[test]
    fn first_frame_is_all_intra() {
        // A one-frame sequence can only be intra coded.
        let frames = vec![tiny_frames()[0].clone()];
        let ev = Encoder::new(CodecConfig::default())
            .encode(&frames)
            .unwrap();
        let blocks = (64 / 8) * (48 / 8);
        assert_eq!(ev.stats.intra_blocks, blocks);
        assert_eq!(ev.stats.inter_blocks, 0);
    }

    #[test]
    fn rejects_empty_and_mismatched_input() {
        let enc = Encoder::new(CodecConfig::default());
        assert!(enc.encode(&[]).is_err());
        let mut frames = tiny_frames();
        frames.push(Frame::new(32, 32));
        assert!(enc.encode(&frames).is_err());
    }

    #[test]
    fn search_interval_bounds_refs_per_b() {
        let cfg = CodecConfig {
            b_frames: BFrameMode::Fixed(3),
            search_interval: SearchInterval::Fixed(2),
            ..CodecConfig::default()
        };
        let ev = Encoder::new(cfg).encode(&tiny_frames()).unwrap();
        assert!(ev.stats.max_refs_per_b() <= 2);
        let cfg7 = CodecConfig {
            search_interval: SearchInterval::Fixed(7),
            ..cfg
        };
        let ev7 = Encoder::new(cfg7).encode(&tiny_frames()).unwrap();
        assert!(ev7.stats.max_refs_per_b() <= 7);
        assert!(ev7.stats.mean_refs_per_b() >= ev.stats.mean_refs_per_b());
    }
}
