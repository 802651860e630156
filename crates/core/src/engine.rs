//! The staged streaming pipeline engine: one generic decode → reconstruct →
//! refine execution path from the decoder to the NPU.
//!
//! VR-DANN's premise (§IV) is that the decoder and the NPU operate
//! *concurrently on a stream*. The engine realises that shape in software:
//! it pulls [`DecodedUnit`]s from a [`FrameSource`] one at a time, runs the
//! per-unit stage ladder, and retains only an O(GOP)-sized window of
//! reference segmentations plus whatever the source keeps in its own pixel
//! window — never the whole video.
//!
//! The engine is generic over two axes, and one driver
//! ([`PipelineEngine::drive`]) runs every combination, on one thread or on
//! two lanes:
//!
//! | axis | trait | implementations |
//! |------|-------|-----------------|
//! | task | [`TaskPolicy`] | [`SegTask`] (masks), [`DetTask`] (boxes), [`FeatPropTask`](crate::FeatPropTask) (feature propagation) |
//! | fault handling | [`FaultPolicy`] | [`StrictPolicy`] (fail fast), [`ConcealingPolicy`] (degrade) |
//!
//! The per-unit ladder, in order:
//!
//! 1. **anchor** → NN-L inference (lazy, as the unit arrives) and insertion
//!    into the reference window — or, concealing, a substitution count for
//!    anchors decoded from replacement references;
//! 2. **lost anchor** (concealing) → mark a pending NN-L re-inference;
//! 3. **B-frame payload** → pending re-inference, then the §VI-A adaptive
//!    fallback, then reconstruction from motion vectors and NN-S refinement
//!    (with the fault lottery and payload sanitisation when concealing);
//! 4. **lost B-frame** (concealing) → copy the nearest reference's result.
//!
//! A windowed strict run is byte-identical to the retired eager pipeline:
//! every nearest/adjacent reference lookup a B-frame performs resolves
//! within its surrounding anchors, which are always still in the window
//! (anything older is strictly farther in display distance, and future
//! anchors are strictly farther than the next one — so neither pruning the
//! past nor not-yet-knowing the future can change an argmin).

use crate::components::{boxes_to_mask, extract_components};
use crate::error::{Result, VrDannError};
use crate::recon::{plane_to_mask, reconstruct_b_frame};
use crate::sandwich::{build_reconstruction_only, build_sandwich};
use crate::trace::{ComputeKind, ConcealmentStats, SchemeKind, SchemeTrace, TraceFrame};
use crate::vrdann::{ResilienceOptions, VrDannConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use vrd_codec::decoder::BFrameInfo;
use vrd_codec::{
    ConcealReason, DecodeOutcome, DecodedUnit, EncodedVideo, FrameSource, FrameType, StreamInfo,
    UnitPayload,
};
use vrd_nn::{ComputeMode, LargeNet, NnS, QuantNnS};
use vrd_video::texture::hash2;
use vrd_video::{Detection, SegMask, Sequence};

/// Reference segmentations the strict engine retains. Must cover every
/// anchor a B-frame can name (the encoder's search interval is ≤ 9
/// anchors back) plus the adjacent sandwich anchors — 10 is the codec's
/// own pixel retention window, matched here for the mask window.
const MASK_WINDOW: usize = 10;

/// How a trace frame's `bitstream_bytes` is filled once the stream totals
/// are final: the per-anchor average, the per-B average, or zero (lost
/// frames parse nothing).
#[derive(Debug, Clone, Copy)]
enum ByteClass {
    AnchorAvg,
    BAvg,
    Zero,
}

/// 90th-percentile motion-vector magnitude of a B-frame's records (0 when
/// empty). The percentile, not the mean, captures "how fast is the moving
/// object" — most blocks of a frame are static background with zero motion.
fn p90_mv_magnitude(mvs: &[vrd_codec::MvRecord]) -> f64 {
    if mvs.is_empty() {
        return 0.0;
    }
    let mut mags: Vec<f64> = mvs.iter().map(|m| m.magnitude()).collect();
    mags.sort_unstable_by(f64::total_cmp);
    mags[(mags.len() * 9 / 10).min(mags.len() - 1)]
}

/// Whether every anchor `mv` names has a segmentation in `ref_segs`.
fn refs_present(mv: &vrd_codec::MvRecord, ref_segs: &BTreeMap<u32, SegMask>) -> bool {
    ref_segs.contains_key(&mv.ref0.frame) && mv.ref1.is_none_or(|r| ref_segs.contains_key(&r.frame))
}

/// Rewrites a (possibly salvaged) B-frame payload against the references
/// that actually decoded: MV records pointing at anchors with no
/// segmentation, and blocks the payload never covered at all, are demoted to
/// intra blocks so reconstruction falls back to the co-located block of the
/// nearest reference — the classic error-concealment fill. On a clean frame
/// with every reference present this is the identity.
fn sanitize_b_info(
    info: &BFrameInfo,
    ref_segs: &BTreeMap<u32, SegMask>,
    width: usize,
    height: usize,
    mb: usize,
) -> BFrameInfo {
    let cols = width / mb;
    let rows = height / mb;
    let mut covered = vec![false; cols * rows];
    let mark = |covered: &mut Vec<bool>, x: u32, y: u32| {
        let idx = (y as usize / mb) * cols + x as usize / mb;
        if let Some(c) = covered.get_mut(idx) {
            *c = true;
        }
    };
    let mut out = BFrameInfo {
        display_idx: info.display_idx,
        mvs: Vec::with_capacity(info.mvs.len()),
        intra_blocks: info.intra_blocks.clone(),
    };
    for &(bx, by) in &info.intra_blocks {
        mark(&mut covered, bx, by);
    }
    for mv in &info.mvs {
        mark(&mut covered, mv.dst_x, mv.dst_y);
        if refs_present(mv, ref_segs) {
            out.mvs.push(*mv);
        } else {
            out.intra_blocks.push((mv.dst_x, mv.dst_y));
        }
    }
    for by in 0..rows {
        for bx in 0..cols {
            if !covered[by * cols + bx] {
                out.intra_blocks.push(((bx * mb) as u32, (by * mb) as u32));
            }
        }
    }
    out
}

/// The segmentation of the display-nearest entry of `refs` (empty mask when
/// there is nothing to copy from — a stream with every anchor lost).
fn nearest_mask(refs: &BTreeMap<u32, SegMask>, display: u32, w: usize, h: usize) -> SegMask {
    refs.iter()
        .min_by_key(|(d, _)| d.abs_diff(display))
        .map(|(_, m)| m.clone())
        .unwrap_or_else(|| SegMask::new(w, h))
}

/// The detections of the display-nearest entry of `dets` (empty when none).
fn nearest_dets(dets: &BTreeMap<u32, Vec<Detection>>, display: u32) -> Vec<Detection> {
    dets.iter()
        .min_by_key(|(d, _)| d.abs_diff(display))
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}

/// What the engine produces: per-frame outputs in display order, the
/// workload trace in decode order, concealment counters, and the source's
/// live-pixel high-water mark (the bounded-memory accounting hook).
#[derive(Debug, Clone)]
pub struct EngineRun<O> {
    /// Per-frame task outputs, display order.
    pub outputs: Vec<O>,
    /// Workload trace for the architecture simulator.
    pub trace: SchemeTrace,
    /// What the run had to conceal (all zero under [`StrictPolicy`]).
    pub concealment: ConcealmentStats,
    /// Peak number of reconstructed pixel frames the source held alive.
    pub peak_live_frames: usize,
    /// Peak number of cached backbone feature maps the task held alive
    /// (0 unless the task propagates in feature space).
    pub peak_live_features: usize,
    /// Peak number of decoded units buffered between the decode and
    /// compute lanes (0 when [`PipelineEngine::drive`] runs without lanes;
    /// bounded by the stage channel's capacity with them).
    pub peak_inflight_units: usize,
}

/// The task axis of the engine: what NN-L produces on anchors, what a
/// refined B-frame mask is turned into, and how gaps are concealed.
pub trait TaskPolicy {
    /// Per-frame artefact the task produces (mask or detection list).
    type Output;

    /// Whether the §VI-A adaptive fallback applies (segmentation only).
    const SUPPORTS_FALLBACK: bool;

    /// The scheme label stamped on the run's trace. Defaults to VR-DANN —
    /// only tasks that replace the B-frame ladder wholesale (feature
    /// propagation) report something else.
    fn scheme(&self) -> SchemeKind {
        SchemeKind::VrDann
    }

    /// Feature-space propagation hook. A propagating task consumes the
    /// B-frame's MV payload entirely in feature space (warp cached
    /// backbone features, run the head, store the result) and returns
    /// `Some(ops)` — the head-only NPU cost — which makes the engine emit
    /// a [`ComputeKind::FeatHead`] trace frame and skip the mask-space
    /// reconstruction ladder. The default (`None`) routes the B-frame
    /// through reconstruction + NN-S unchanged.
    ///
    /// # Errors
    /// `Some(Err(..))` aborts the run (e.g. the payload references an
    /// anchor whose features left the window — impossible on a conforming
    /// stream, fatal on a corrupt one).
    fn propagate(&mut self, _info: &BFrameInfo) -> Option<Result<u64>> {
        None
    }

    /// Drops per-anchor task state older than `oldest`, called in
    /// lock-step with the engine's reference-mask window eviction so
    /// cached features obey the same O(GOP) bound as the masks.
    fn evict_below(&mut self, _oldest: u32) {}

    /// High-water mark of live cached feature maps (0 for tasks that keep
    /// none) — the bounded-memory accounting hook for feature windows.
    fn peak_live_features(&self) -> usize {
        0
    }

    /// Operations of one NN-L inference at the stream's resolution.
    fn nnl_ops(&self) -> u64;

    /// Runs NN-L on frame `display`, records its output, and returns the
    /// reference mask downstream B-frames reconstruct from. `reinfer`
    /// selects the re-inference / fallback seeding lane (a B-frame routed
    /// through NN-L must not collide with the anchor lane).
    fn infer_anchor(&mut self, display: u32, reinfer: bool) -> SegMask;

    /// Records the refined result of a reconstructed B-frame.
    fn store_refined(&mut self, display: u32, mask: SegMask);

    /// Conceals an unusable B-frame with the nearest reference's result.
    fn store_nearest(&mut self, display: u32, refs: &BTreeMap<u32, SegMask>);

    /// Conceals a B-frame when no reference at all survived.
    fn store_empty(&mut self, display: u32);

    /// Collects the outputs, erroring on any frame that was never produced
    /// (the strict pipeline's contract).
    ///
    /// # Errors
    /// Returns [`VrDannError::BadInput`] naming the first missing frame.
    fn finalize_strict(self) -> Result<Vec<Self::Output>>;

    /// Collects the outputs, filling gaps from the nearest computed frame
    /// (the concealing pipeline never fails on damage).
    fn finalize_concealed(self) -> Vec<Self::Output>;
}

/// A [`TaskPolicy`] that [`VrDann::run`](crate::VrDann::run) can build for
/// a stream by itself: which NN-L profile of the configuration it runs on
/// anchors is the task's own knowledge, not the caller's.
pub trait StreamTask<'s>: TaskPolicy + Sized {
    /// Builds the task for one sequence/stream pair under `cfg`.
    fn for_stream(seq: &'s Sequence, cfg: &VrDannConfig, info: &StreamInfo) -> Self;
}

/// Segmentation task: NN-L masks on anchors, refined masks on B-frames.
#[derive(Debug)]
pub struct SegTask<'a> {
    seq: &'a Sequence,
    nnl: LargeNet,
    seed: u64,
    w: usize,
    h: usize,
    masks: Vec<Option<SegMask>>,
}

impl<'a> SegTask<'a> {
    /// Builds the task for one sequence/stream pair.
    pub fn new(seq: &'a Sequence, nnl: LargeNet, seed: u64, info: &StreamInfo) -> Self {
        Self {
            seq,
            nnl,
            seed,
            w: info.width,
            h: info.height,
            masks: vec![None; seq.len()],
        }
    }
}

impl<'s> StreamTask<'s> for SegTask<'s> {
    fn for_stream(seq: &'s Sequence, cfg: &VrDannConfig, info: &StreamInfo) -> Self {
        Self::new(seq, LargeNet::new(cfg.segment_profile), cfg.seed, info)
    }
}

impl TaskPolicy for SegTask<'_> {
    type Output = SegMask;

    const SUPPORTS_FALLBACK: bool = true;

    fn nnl_ops(&self) -> u64 {
        self.nnl.ops(self.w, self.h)
    }

    fn infer_anchor(&mut self, display: u32, reinfer: bool) -> SegMask {
        let lane: i64 = if reinfer { 2 } else { 0 };
        let seed = hash2(display as i64, lane, self.seed);
        let mask = self.nnl.segment(&self.seq.gt_masks[display as usize], seed);
        self.masks[display as usize] = Some(mask.clone());
        mask
    }

    fn store_refined(&mut self, display: u32, mask: SegMask) {
        self.masks[display as usize] = Some(mask);
    }

    fn store_nearest(&mut self, display: u32, refs: &BTreeMap<u32, SegMask>) {
        self.masks[display as usize] = Some(nearest_mask(refs, display, self.w, self.h));
    }

    fn store_empty(&mut self, display: u32) {
        self.masks[display as usize] = Some(SegMask::new(self.w, self.h));
    }

    fn finalize_strict(self) -> Result<Vec<SegMask>> {
        self.masks
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                m.ok_or_else(|| VrDannError::BadInput(format!("frame {i} never segmented")))
            })
            .collect()
    }

    fn finalize_concealed(self) -> Vec<SegMask> {
        let computed: BTreeMap<u32, SegMask> = self
            .masks
            .iter()
            .enumerate()
            .filter_map(|(d, m)| m.as_ref().map(|m| (d as u32, m.clone())))
            .collect();
        self.masks
            .into_iter()
            .enumerate()
            .map(|(d, m)| m.unwrap_or_else(|| nearest_mask(&computed, d as u32, self.w, self.h)))
            .collect()
    }
}

/// Detection task: NN-L boxes on anchors (rasterised into reference masks),
/// component extraction on refined B-frame masks.
#[derive(Debug)]
pub struct DetTask<'a> {
    seq: &'a Sequence,
    nnl: LargeNet,
    seed: u64,
    w: usize,
    h: usize,
    min_component: usize,
    anchor_dets: BTreeMap<u32, Vec<Detection>>,
    detections: Vec<Option<Vec<Detection>>>,
}

impl<'a> DetTask<'a> {
    /// Builds the task for one sequence/stream pair.
    pub fn new(seq: &'a Sequence, nnl: LargeNet, seed: u64, info: &StreamInfo) -> Self {
        Self {
            seq,
            nnl,
            seed,
            w: info.width,
            h: info.height,
            min_component: (info.mb_size * info.mb_size) / 2,
            anchor_dets: BTreeMap::new(),
            detections: vec![None; seq.len()],
        }
    }
}

impl<'s> StreamTask<'s> for DetTask<'s> {
    fn for_stream(seq: &'s Sequence, cfg: &VrDannConfig, info: &StreamInfo) -> Self {
        Self::new(seq, LargeNet::new(cfg.detect_profile), cfg.seed, info)
    }
}

impl TaskPolicy for DetTask<'_> {
    type Output = Vec<Detection>;

    const SUPPORTS_FALLBACK: bool = false;

    fn nnl_ops(&self) -> u64 {
        self.nnl.ops(self.w, self.h)
    }

    fn infer_anchor(&mut self, display: u32, _reinfer: bool) -> SegMask {
        let seed = hash2(display as i64, 1, self.seed);
        let dets = self
            .nnl
            .detect(&self.seq.gt_boxes[display as usize], self.w, self.h, seed);
        let boxes: Vec<_> = dets.iter().map(|d| d.rect).collect();
        self.detections[display as usize] = Some(dets.clone());
        self.anchor_dets.insert(display, dets);
        boxes_to_mask(&boxes, self.w, self.h)
    }

    fn store_refined(&mut self, display: u32, mask: SegMask) {
        self.detections[display as usize] = Some(extract_components(&mask, self.min_component));
    }

    fn store_nearest(&mut self, display: u32, _refs: &BTreeMap<u32, SegMask>) {
        self.detections[display as usize] = Some(nearest_dets(&self.anchor_dets, display));
    }

    fn store_empty(&mut self, display: u32) {
        self.detections[display as usize] = Some(Vec::new());
    }

    fn finalize_strict(self) -> Result<Vec<Vec<Detection>>> {
        self.detections
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                d.ok_or_else(|| VrDannError::BadInput(format!("frame {i} never detected")))
            })
            .collect()
    }

    fn finalize_concealed(self) -> Vec<Vec<Detection>> {
        let computed: BTreeMap<u32, Vec<Detection>> = self
            .detections
            .iter()
            .enumerate()
            .filter_map(|(d, v)| v.as_ref().map(|v| (d as u32, v.clone())))
            .collect();
        self.detections
            .into_iter()
            .enumerate()
            .map(|(d, v)| v.unwrap_or_else(|| nearest_dets(&computed, d as u32)))
            .collect()
    }
}

/// Saved state of a [`FaultPolicy`], captured by
/// [`PipelineEngine::checkpoint`]: the concealment counters and the NN-S
/// fault lottery's generator position. Restoring it rewinds the lottery, so
/// a replayed span of units redraws exactly the faults it drew the first
/// time instead of double-counting them.
#[derive(Debug, Clone)]
pub struct PolicyCheckpoint {
    stats: ConcealmentStats,
    rng: Option<StdRng>,
}

/// The fault axis of the engine: whether damage is concealed or fatal, and
/// the NN-S soft-error lottery.
pub trait FaultPolicy {
    /// Whether the degradation rungs (substitution, refetch, copy, salvage)
    /// are active. A strict run treats every unit as pristine.
    const CONCEALING: bool;

    /// Concealment counters the rungs increment as they fire.
    fn stats(&mut self) -> &mut ConcealmentStats;

    /// Draws the per-B-frame NN-S fault lottery (always `false` when
    /// strict; one draw per reconstructed B-frame, in decode order).
    fn draw_nns_fault(&mut self) -> bool;

    /// Saves the policy's counters and lottery position.
    fn save(&self) -> PolicyCheckpoint;

    /// Restores a previously [`save`](FaultPolicy::save)d state.
    fn load(&mut self, ckpt: &PolicyCheckpoint);

    /// Final counters for the run report.
    fn into_stats(self) -> ConcealmentStats;
}

/// Fail-fast policy: any decode error aborts the run, no concealment.
#[derive(Debug, Default)]
pub struct StrictPolicy {
    stats: ConcealmentStats,
}

impl FaultPolicy for StrictPolicy {
    const CONCEALING: bool = false;

    fn stats(&mut self) -> &mut ConcealmentStats {
        &mut self.stats
    }

    fn draw_nns_fault(&mut self) -> bool {
        false
    }

    fn save(&self) -> PolicyCheckpoint {
        PolicyCheckpoint {
            stats: self.stats,
            rng: None,
        }
    }

    fn load(&mut self, ckpt: &PolicyCheckpoint) {
        self.stats = ckpt.stats;
    }

    fn into_stats(self) -> ConcealmentStats {
        self.stats
    }
}

/// Degrade-gracefully policy: damage is concealed per the ladder and the
/// seeded NN-S fault lottery of [`ResilienceOptions`] applies.
#[derive(Debug)]
pub struct ConcealingPolicy {
    stats: ConcealmentStats,
    rng: Option<StdRng>,
    rate: f64,
}

impl ConcealingPolicy {
    /// Builds the policy from the run's resilience knobs.
    pub fn new(opts: &ResilienceOptions) -> Self {
        Self {
            stats: ConcealmentStats::default(),
            rng: (opts.nns_failure_rate > 0.0).then(|| StdRng::seed_from_u64(opts.seed)),
            rate: opts.nns_failure_rate,
        }
    }
}

impl FaultPolicy for ConcealingPolicy {
    const CONCEALING: bool = true;

    fn stats(&mut self) -> &mut ConcealmentStats {
        &mut self.stats
    }

    fn draw_nns_fault(&mut self) -> bool {
        self.rng
            .as_mut()
            .is_some_and(|rng| rng.random_range(0.0f64..1.0) < self.rate)
    }

    fn save(&self) -> PolicyCheckpoint {
        PolicyCheckpoint {
            stats: self.stats,
            rng: self.rng.clone(),
        }
    }

    fn load(&mut self, ckpt: &PolicyCheckpoint) {
        self.stats = ckpt.stats;
        self.rng = ckpt.rng.clone();
    }

    fn into_stats(self) -> ConcealmentStats {
        self.stats
    }
}

/// A snapshot of the engine's resumable streaming state: the O(GOP)
/// reference-mask window, the anchor eviction queue, the pending-refetch
/// flag, the fault policy's counters and lottery position, and the length
/// of the trace at capture time.
///
/// [`PipelineEngine::checkpoint`] captures it; [`PipelineEngine::restore`]
/// rolls the same engine back to it, after which re-[`step`]ping the units
/// decoded since the checkpoint reproduces the original run byte-for-byte
/// (every inference lane is display-seeded, every store idempotent per
/// display index). This is what lets a serving layer resume a stream whose
/// accelerator crashed mid-flight instead of dropping it: the host keeps
/// the checkpoint, re-primes the recovered NPU, and replays forward.
///
/// The snapshot is O(GOP): `MASK_WINDOW` reference masks plus scalars —
/// never the decoded video or the per-frame outputs.
///
/// [`step`]: PipelineEngine::step
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    ref_segs: BTreeMap<u32, SegMask>,
    anchor_window: VecDeque<u32>,
    pending_refetch: bool,
    frames_len: usize,
    policy: PolicyCheckpoint,
}

impl EngineCheckpoint {
    /// Reference masks held in the snapshot (bounded by the engine's
    /// O(GOP) window).
    pub fn reference_count(&self) -> usize {
        self.ref_segs.len()
    }

    /// Trace frames the engine had emitted when the snapshot was taken.
    pub fn frames_emitted(&self) -> usize {
        self.frames_len
    }
}

/// The NPU work one engine step emitted, as a serving layer sees it: enough
/// to place the frame on a shared accelerator (which model, how many
/// operations, whether the decoder reconstructed pixels) without holding
/// the full trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepWork {
    /// Display index of the frame the work belongs to.
    pub display: u32,
    /// Codec frame type.
    pub ftype: FrameType,
    /// Operations the NPU must execute for this frame.
    pub ops: u64,
    /// Whether the work needs the large model resident (NN-L) rather than
    /// the small refinement network (NN-S).
    pub uses_large_model: bool,
    /// Whether the decoder fully reconstructed this frame's pixels.
    pub full_decode: bool,
}

/// Decoded units the stage channel between the decode and compute lanes
/// buffers by default — the software analogue of the paper's small on-chip
/// `ip_Q`/`b_Q` frame queues between the decoder and the NPU.
const DEFAULT_STAGE_CAPACITY: usize = 8;

/// The lanes of [`PipelineEngine::drive`]: passing one moves the source
/// onto a decode-lane thread and defers B-frame mask computation into
/// waves. `Default` resolves both fields: worker count from
/// [`vrd_runtime::max_threads`] (which honours `VRD_THREADS`), channel
/// capacity 8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Wave-front worker threads for B-frame reconstruction + refinement
    /// (`None` → `max_threads()`). The decode lane always adds one more
    /// thread on top.
    pub threads: Option<usize>,
    /// Bounded capacity of the decode→compute stage channel (`None` → 8).
    pub channel_capacity: Option<usize>,
}

/// One deferred B-frame mask computation: everything the pure
/// reconstruct → sandwich → NN-S chain needs, captured at plan time. The
/// payload is already sanitised (concealing) and the fault lottery already
/// drawn (`refined`), so executing the job touches no engine state.
#[derive(Debug)]
struct ReconJob {
    display: u32,
    info: BFrameInfo,
    refined: bool,
}

/// The compute lane's in-flight wave: B-frame jobs planned since the last
/// reference-window mutation, executed together (fanned out across
/// `threads` workers) when the next mutation — or the end of the stream —
/// forces a barrier. Installed by [`PipelineEngine::drive`] when it runs
/// with lanes; without one every job executes inside its `step`.
#[derive(Debug)]
struct Wave {
    jobs: Vec<ReconJob>,
    threads: usize,
    flush_threshold: usize,
}

impl Wave {
    /// An empty wave fanning out over `threads` workers.
    fn new(threads: usize) -> Self {
        Self {
            jobs: Vec::new(),
            threads,
            // Anchor arrivals bound a wave at one GOP's worth of B-frames;
            // this threshold keeps the wave O(GOP) even on pathological
            // streams that lose every anchor (no barrier would ever fire).
            flush_threshold: (2 * MASK_WINDOW).max(2 * threads),
        }
    }
}

/// Executes one deferred B-frame job. Pure with respect to the engine:
/// reads the reference window and model, produces the mask, mutates
/// nothing — which is what makes the wave fan-out safe and bit-identical
/// to sequential execution.
#[allow(clippy::too_many_arguments)]
fn exec_recon(
    job: &ReconJob,
    ref_segs: &BTreeMap<u32, SegMask>,
    w: usize,
    h: usize,
    mb: usize,
    recon_cfg: &crate::recon::ReconConfig,
    sandwich: bool,
    nns: &NnS,
    nns_q: Option<&QuantNnS>,
) -> Result<SegMask> {
    let plane = reconstruct_b_frame(&job.info, ref_segs, w, h, mb, recon_cfg)?;
    if job.refined {
        let input = if sandwich {
            build_sandwich(job.display, &plane, ref_segs)?
        } else {
            build_reconstruction_only(&plane)
        };
        Ok(match nns_q {
            Some(q) => q.infer(&input).to_mask(0.5),
            None => nns.infer(&input).to_mask(0.5),
        })
    } else {
        Ok(plane_to_mask(&plane, recon_cfg))
    }
}

/// The generic streaming engine: a task, a fault policy, and a shared model
/// configuration, executed over any [`FrameSource`].
///
/// [`PipelineEngine::drive`] is the one driver from a source to a finished
/// run: prime → pump units → finish, with the decode lane and the
/// wave-front fan-out as its `lanes` parameter and an observer that sees
/// the [`StepWork`] each unit put on the NPU. The pieces it is made of —
/// [`PipelineEngine::prime`] / [`PipelineEngine::step`] /
/// [`PipelineEngine::finish`] — stay public for callers that must own the
/// loop themselves (crash replay after a [`PipelineEngine::restore`], a
/// harness timing each call).
#[derive(Debug)]
pub struct PipelineEngine<'a, T, P> {
    cfg: &'a VrDannConfig,
    nns: &'a NnS,
    task: T,
    policy: P,
    // Streaming state, established by `prime` and advanced by `step`.
    primed: bool,
    w: usize,
    h: usize,
    mb: usize,
    nns_ops: u64,
    nnl_ops: u64,
    // Quantized twin of `nns`, built at prime time when the configuration
    // selects `ComputeMode::Int8` (weight quantization is done once, not
    // per frame).
    nns_q: Option<QuantNnS>,
    ref_segs: BTreeMap<u32, SegMask>,
    anchor_window: VecDeque<u32>,
    frames: Vec<(TraceFrame, ByteClass)>,
    // Set once an anchor is lost; the next decodable B-frame goes
    // through NN-L to re-establish a trusted reference.
    pending_refetch: bool,
    // High-water mark of the decode→compute stage channel (0 unless the
    // driver ran with lanes).
    peak_inflight_units: usize,
    // Deferred B-frame jobs; `Some` only while the driver runs with lanes.
    wave: Option<Wave>,
}

impl<'a, T: TaskPolicy, P: FaultPolicy> PipelineEngine<'a, T, P> {
    /// Assembles an engine from its stages.
    pub fn new(cfg: &'a VrDannConfig, nns: &'a NnS, task: T, policy: P) -> Self {
        Self {
            cfg,
            nns,
            task,
            policy,
            primed: false,
            w: 0,
            h: 0,
            mb: 0,
            nns_ops: 0,
            nnl_ops: 0,
            nns_q: None,
            ref_segs: BTreeMap::new(),
            anchor_window: VecDeque::new(),
            frames: Vec::new(),
            pending_refetch: false,
            peak_inflight_units: 0,
            wave: None,
        }
    }

    /// Prepares the engine for a stream: caches the stream geometry and
    /// per-inference operation counts, and establishes the up-front NN-L
    /// references.
    ///
    /// `prepopulate` lists anchor displays whose NN-L references must exist
    /// before the first unit (the concealing path needs the full usable
    /// anchor set up front: a lost B-frame may copy from an anchor that
    /// only decodes *later*). Strict runs pass `&[]` and infer lazily,
    /// which keeps the reference window O(GOP).
    pub fn prime(&mut self, info: &StreamInfo, prepopulate: &[u32]) {
        self.w = info.width;
        self.h = info.height;
        self.mb = info.mb_size;
        // The NPU is charged the same MAC count in both compute modes (the
        // paper's MAC array runs low precision natively), so traces are
        // byte-identical across `ComputeMode`s.
        self.nns_ops = 2 * self.nns.macs(self.h, self.w);
        self.nnl_ops = self.task.nnl_ops();
        self.nns_q = (self.cfg.compute == ComputeMode::Int8).then(|| self.nns.quantize());
        for &display in prepopulate {
            let mask = self.task.infer_anchor(display, false);
            self.ref_segs.insert(display, mask);
        }
        self.primed = true;
    }

    /// Snapshots the engine's resumable streaming state (see
    /// [`EngineCheckpoint`]). O(GOP) cost: clones the reference-mask window
    /// and scalars only.
    ///
    /// # Errors
    /// Returns [`VrDannError::BadInput`] if the engine was never primed —
    /// there is no stream state to snapshot — or if deferred B-frame jobs
    /// are pending (an observer under lanes asking between barriers): the
    /// snapshot cannot carry them. Every large-model step flushes the wave
    /// first, so anchor checkpoints work with and without lanes.
    pub fn checkpoint(&self) -> Result<EngineCheckpoint> {
        if !self.primed {
            return Err(VrDannError::BadInput(
                "engine checkpointed before prime() established the stream".into(),
            ));
        }
        if let Some(pending) = self.wave.as_ref().map(|w| w.jobs.len()).filter(|&n| n > 0) {
            return Err(VrDannError::BadInput(format!(
                "engine checkpointed with {pending} deferred B-frame jobs pending"
            )));
        }
        Ok(EngineCheckpoint {
            ref_segs: self.ref_segs.clone(),
            anchor_window: self.anchor_window.clone(),
            pending_refetch: self.pending_refetch,
            frames_len: self.frames.len(),
            policy: self.policy.save(),
        })
    }

    /// Rolls this engine back to `ckpt`: the reference window, anchor
    /// eviction queue, refetch flag and fault-lottery position return to
    /// their snapshot values and the trace is truncated to the snapshot
    /// length. Task outputs recorded after the checkpoint are left in place
    /// — re-stepping the same units overwrites them with identical values
    /// (all stores are keyed by display index and all inference lanes are
    /// display-seeded), which is exactly the crash-replay contract.
    ///
    /// # Errors
    /// Returns [`VrDannError::BadInput`] if the engine is unprimed or the
    /// checkpoint is ahead of this engine's trace (it belongs to a
    /// different or longer-lived run).
    pub fn restore(&mut self, ckpt: &EngineCheckpoint) -> Result<()> {
        if !self.primed {
            return Err(VrDannError::BadInput(
                "engine restored before prime() established the stream".into(),
            ));
        }
        if ckpt.frames_len > self.frames.len() {
            return Err(VrDannError::BadInput(format!(
                "checkpoint at trace length {} is ahead of the engine ({} frames emitted)",
                ckpt.frames_len,
                self.frames.len()
            )));
        }
        self.frames.truncate(ckpt.frames_len);
        self.ref_segs = ckpt.ref_segs.clone();
        self.anchor_window = ckpt.anchor_window.clone();
        self.pending_refetch = ckpt.pending_refetch;
        self.policy.load(&ckpt.policy);
        Ok(())
    }

    /// The [`StepWork`] view of the trace frame just pushed (if any).
    fn emitted(&self, before: usize) -> Option<StepWork> {
        (self.frames.len() > before).then(|| {
            let f = &self.frames[self.frames.len() - 1].0;
            StepWork {
                display: f.display,
                ftype: f.ftype,
                ops: f.kind.ops(),
                uses_large_model: f.kind.uses_large_model(),
                full_decode: f.full_decode,
            }
        })
    }

    /// Executes and stores the wave's deferred jobs: reconstruct + refine
    /// in parallel (order-preserving, pure reads of the reference window),
    /// then store results sequentially in decode order. A no-op without a
    /// wave.
    fn flush_wave(&mut self) -> Result<()> {
        let Some(wave) = self.wave.as_mut().filter(|w| !w.jobs.is_empty()) else {
            return Ok(());
        };
        let jobs = std::mem::take(&mut wave.jobs);
        let threads = wave.threads;
        let refs = &self.ref_segs;
        let (w, h, mb) = (self.w, self.h, self.mb);
        let recon_cfg = &self.cfg.recon;
        let sandwich = self.cfg.sandwich;
        let nns = self.nns;
        let nns_q = self.nns_q.as_ref();
        let masks: Vec<Result<SegMask>> = vrd_runtime::parallel_map_with(&jobs, threads, |job| {
            exec_recon(job, refs, w, h, mb, recon_cfg, sandwich, nns, nns_q)
        });
        for (job, mask) in jobs.into_iter().zip(masks) {
            self.task.store_refined(job.display, mask?);
        }
        Ok(())
    }

    /// Advances the engine by one decoded unit through the stage ladder,
    /// returning the NPU work the unit generated (`None` for units that
    /// parse to nothing, e.g. a lost frame with no inferable display slot).
    ///
    /// Everything stateful (routing, sanitisation, the fault lottery, trace
    /// emission) happens here, in decode order. A B-frame's pure mask
    /// computation also runs inside this call — unless
    /// [`PipelineEngine::drive`] runs with lanes, which parks it in the
    /// engine's wave until the next reference-window mutation. The returned
    /// [`StepWork`] is the same either way (it derives from the plan, not
    /// the masks).
    ///
    /// # Errors
    /// Returns [`VrDannError::BadInput`] if called before
    /// [`PipelineEngine::prime`], and propagates reconstruction failures
    /// (under lanes, possibly those of an earlier deferred unit).
    pub fn step(&mut self, unit: DecodedUnit) -> Result<Option<StepWork>> {
        if !self.primed {
            return Err(VrDannError::BadInput(
                "engine stepped before prime() established the stream".into(),
            ));
        }
        let before = self.frames.len();
        let (w, h) = (self.w, self.h);
        match unit.payload {
            UnitPayload::Anchor { display, .. } => {
                // Barrier: a strict anchor mutates the reference window
                // (insert + eviction), which every deferred job reads.
                // Flushing on concealing anchors too keeps waves GOP-sized.
                self.flush_wave()?;
                if P::CONCEALING {
                    // Reference already established by prepopulation;
                    // only the substitution bookkeeping remains.
                    if matches!(
                        unit.outcome,
                        DecodeOutcome::Concealed(ConcealReason::MissingReference)
                    ) {
                        self.policy.stats().anchors_substituted += 1;
                    }
                } else {
                    let mask = self.task.infer_anchor(display, false);
                    self.ref_segs.insert(display, mask);
                    self.anchor_window.push_back(display);
                    if self.anchor_window.len() > MASK_WINDOW {
                        self.anchor_window.pop_front();
                        if let Some(&front) = self.anchor_window.front() {
                            // Drop every reference older than the window
                            // (fallback masks between evicted anchors
                            // can never win a nearest lookup again).
                            self.ref_segs = self.ref_segs.split_off(&front);
                            // Cached backbone features ride the same
                            // window: evicting the mask evicts the map.
                            self.task.evict_below(front);
                        }
                    }
                }
                self.frames.push((
                    TraceFrame {
                        display,
                        ftype: unit.ftype,
                        kind: ComputeKind::NnL { ops: self.nnl_ops },
                        full_decode: true,
                        bitstream_bytes: 0,
                    },
                    ByteClass::AnchorAvg,
                ));
            }
            UnitPayload::Motion(info_b) => {
                let display = info_b.display_idx;

                // A lost anchor earlier in decode order: spend an NN-L
                // here to re-establish a trusted reference (§VI-A's
                // fallback machinery, repurposed for recovery).
                if P::CONCEALING && self.pending_refetch {
                    // Barrier: the re-inference inserts a new reference.
                    self.flush_wave()?;
                    self.pending_refetch = false;
                    self.policy.stats().nnl_reinferences += 1;
                    let mask = self.task.infer_anchor(display, true);
                    self.ref_segs.insert(display, mask);
                    self.frames.push((
                        TraceFrame {
                            display,
                            ftype: FrameType::B,
                            kind: ComputeKind::NnL { ops: self.nnl_ops },
                            full_decode: true,
                            bitstream_bytes: 0,
                        },
                        ByteClass::BAvg,
                    ));
                    return Ok(self.emitted(before));
                }

                // Adaptive fallback: fast-moving B-frames go through
                // NN-L (only on fully trusted payloads when concealing).
                if T::SUPPORTS_FALLBACK && (!P::CONCEALING || unit.outcome == DecodeOutcome::Ok) {
                    if let Some(threshold) = self.cfg.fallback_mv_threshold {
                        if p90_mv_magnitude(&info_b.mvs) > threshold as f64 {
                            // Barrier: the fallback inserts a reference.
                            self.flush_wave()?;
                            let mask = self.task.infer_anchor(display, true);
                            self.ref_segs.insert(display, mask);
                            self.frames.push((
                                TraceFrame {
                                    display,
                                    ftype: FrameType::B,
                                    kind: ComputeKind::NnL { ops: self.nnl_ops },
                                    full_decode: true,
                                    bitstream_bytes: 0,
                                },
                                ByteClass::BAvg,
                            ));
                            return Ok(self.emitted(before));
                        }
                    }
                }

                // Feature-space propagation: a propagating task consumes
                // the MV payload here (warp cached features + head-only
                // inference) and the mask-space reconstruction ladder
                // below never runs. Only fully trusted payloads qualify —
                // a concealing run routes damaged frames, and frames naming
                // an anchor that never decoded, to the ladder, whose
                // sanitisation machinery knows how to degrade.
                let trusted = !P::CONCEALING
                    || (unit.outcome == DecodeOutcome::Ok
                        && !self.ref_segs.is_empty()
                        && info_b.mvs.iter().all(|mv| refs_present(mv, &self.ref_segs)));
                if trusted {
                    if let Some(head) = self.task.propagate(&info_b) {
                        let ops = head?;
                        self.frames.push((
                            TraceFrame {
                                display,
                                ftype: FrameType::B,
                                kind: ComputeKind::FeatHead {
                                    ops,
                                    mvs: info_b.mvs,
                                },
                                full_decode: false,
                                bitstream_bytes: 0,
                            },
                            ByteClass::BAvg,
                        ));
                        return Ok(self.emitted(before));
                    }
                }

                if P::CONCEALING && self.ref_segs.is_empty() {
                    // Every anchor lost: nothing to reconstruct from.
                    self.policy.stats().b_copied += 1;
                    self.task.store_empty(display);
                    self.frames.push((
                        TraceFrame {
                            display,
                            ftype: unit.ftype,
                            kind: ComputeKind::NnSRefine {
                                ops: 0,
                                mvs: vec![],
                            },
                            full_decode: false,
                            bitstream_bytes: 0,
                        },
                        ByteClass::Zero,
                    ));
                    return Ok(self.emitted(before));
                }

                if P::CONCEALING && matches!(unit.outcome, DecodeOutcome::Concealed(_)) {
                    self.policy.stats().b_salvaged += 1;
                }
                // Plan the reconstruction now — sanitisation and the fault
                // lottery are stateful and must happen in decode order —
                // but the mask computation itself is pure, so a wave may
                // defer it past this unit.
                let use_info = match P::CONCEALING {
                    true => sanitize_b_info(&info_b, &self.ref_segs, w, h, self.mb),
                    false => info_b,
                };
                let nns_faulted = self.policy.draw_nns_fault();
                if nns_faulted {
                    self.policy.stats().nns_failures += 1;
                }
                let refined = self.cfg.refine && !nns_faulted;
                let job = ReconJob {
                    display,
                    info: use_info,
                    refined,
                };
                let refine_ops = if refined { self.nns_ops } else { 0 };
                let entry = |mvs| {
                    (
                        TraceFrame {
                            display,
                            ftype: FrameType::B,
                            kind: ComputeKind::NnSRefine {
                                ops: refine_ops,
                                mvs,
                            },
                            full_decode: false,
                            bitstream_bytes: 0,
                        },
                        ByteClass::BAvg,
                    )
                };
                match self.wave.as_mut() {
                    Some(wave) => {
                        // The trace frame and the deferred job both need
                        // the (sanitised) MV payload; the job keeps the
                        // original.
                        self.frames.push(entry(job.info.mvs.clone()));
                        wave.jobs.push(job);
                        if wave.jobs.len() >= wave.flush_threshold {
                            self.flush_wave()?;
                        }
                    }
                    None => {
                        let mask = exec_recon(
                            &job,
                            &self.ref_segs,
                            w,
                            h,
                            self.mb,
                            &self.cfg.recon,
                            self.cfg.sandwich,
                            self.nns,
                            self.nns_q.as_ref(),
                        )?;
                        self.task.store_refined(display, mask);
                        self.frames.push(entry(job.info.mvs));
                    }
                }
            }
            UnitPayload::Skipped { display } => {
                let Some(display) = display else {
                    return Ok(None);
                };
                if unit.ftype.is_anchor() {
                    self.policy.stats().anchors_lost += 1;
                    self.pending_refetch = true;
                } else {
                    self.policy.stats().b_copied += 1;
                    self.task.store_nearest(display, &self.ref_segs);
                }
                self.frames.push((
                    TraceFrame {
                        display,
                        ftype: unit.ftype,
                        kind: ComputeKind::NnSRefine {
                            ops: 0,
                            mvs: vec![],
                        },
                        full_decode: false,
                        bitstream_bytes: 0,
                    },
                    ByteClass::Zero,
                ));
            }
        }
        Ok(self.emitted(before))
    }

    /// Ends the stream: patches the whole-stream per-frame byte averages
    /// into the trace, collects the task outputs and closes the books.
    /// `totals` and `peak_live_frames` come from the exhausted source.
    ///
    /// # Errors
    /// Propagates [`TaskPolicy::finalize_strict`] failures (a strict run
    /// with frames that were never produced).
    pub fn finish(
        mut self,
        totals: vrd_codec::StreamTotals,
        peak_live_frames: usize,
    ) -> Result<EngineRun<T::Output>> {
        // The per-frame byte figures are whole-stream averages, only known
        // once the source is exhausted — patch them in now.
        let per_anchor_bytes = totals.anchor_bytes / totals.anchors.max(1);
        let per_b_bytes = totals.b_bytes / totals.b_frames.max(1);
        let frames = std::mem::take(&mut self.frames)
            .into_iter()
            .map(|(mut f, class)| {
                f.bitstream_bytes = match class {
                    ByteClass::AnchorAvg => per_anchor_bytes,
                    ByteClass::BAvg => per_b_bytes,
                    ByteClass::Zero => 0,
                };
                f
            })
            .collect();

        let scheme = self.task.scheme();
        let peak_live_features = self.task.peak_live_features();
        let outputs = if P::CONCEALING {
            self.task.finalize_concealed()
        } else {
            self.task.finalize_strict()?
        };
        Ok(EngineRun {
            outputs,
            trace: SchemeTrace {
                scheme,
                width: self.w,
                height: self.h,
                mb_size: self.mb,
                frames,
            },
            concealment: self.policy.into_stats(),
            peak_live_frames,
            peak_live_features,
            peak_inflight_units: self.peak_inflight_units,
        })
    }

    /// The one driver from a source to a finished run: prime, pump every
    /// unit through [`PipelineEngine::step`], finish (see
    /// [`PipelineEngine::prime`] for the `prepopulate` contract).
    ///
    /// `lanes` selects where the work runs, never what it computes:
    ///
    /// * `None` — units are pulled inline on the caller's thread and every
    ///   B-frame is computed inside its `step`;
    /// * `Some(opts)` — **two lanes**: a decode-lane thread owns the source
    ///   and feeds [`DecodedUnit`]s through a bounded SPSC stage channel
    ///   (the software `ip_Q`/`b_Q`) while this thread plans them in decode
    ///   order and fans each GOP's B-frame reconstructions out
    ///   wave-front-style across `opts.threads` workers.
    ///
    /// Outputs, trace and concealment counters are bit-identical for every
    /// [`TaskPolicy`] × [`FaultPolicy`] at every `lanes` value — all
    /// stateful decisions execute sequentially in decode order; only pure
    /// per-frame mask computation runs concurrently. Memory stays bounded:
    /// the source keeps its own O(GOP) window, at most
    /// `opts.channel_capacity` decoded units sit in the channel, and a wave
    /// holds at most O(GOP) deferred jobs.
    ///
    /// `observe` is called on this thread after each step that emitted
    /// work, with the engine, the index of the unit in decode order and
    /// its [`StepWork`] — the same sequence with and without lanes. It may
    /// [`PipelineEngine::checkpoint`] the engine at large-model steps; an
    /// error it returns ends the run.
    ///
    /// # Errors
    /// Propagates source decode errors (strict sources only; with lanes
    /// the decode lane shuts down first), reconstruction failures and
    /// observer errors, and reports a decode lane that panicked as
    /// [`VrDannError::BadInput`] carrying the panic message.
    pub fn drive<S: FrameSource + Send>(
        mut self,
        mut source: S,
        prepopulate: &[u32],
        lanes: Option<&PipelineOptions>,
        mut observe: impl FnMut(&Self, usize, StepWork) -> Result<()>,
    ) -> Result<EngineRun<T::Output>> {
        self.prime(&source.info(), prepopulate);
        let Some(opts) = lanes else {
            self.pump(std::iter::from_fn(|| source.next_unit()), &mut observe)?;
            return self.finish(source.totals(), source.peak_live_frames());
        };
        // A zero in either field is clamped to 1 by `parallel_map_with` and
        // `stage_channel` themselves.
        let threads = opts.threads.unwrap_or_else(vrd_runtime::max_threads);
        self.wave = Some(Wave::new(threads));
        let capacity = opts.channel_capacity.unwrap_or(DEFAULT_STAGE_CAPACITY);
        let (tx, rx) = vrd_runtime::stage_channel(capacity);
        let (pumped, lane) = std::thread::scope(|s| {
            let decode_lane = s.spawn(move || {
                while let Some(unit) = source.next_unit() {
                    // A strict source fuses after an error; forward it and
                    // stop. A dropped receiver (compute lane bailed) also
                    // ends the lane.
                    let fatal = unit.is_err();
                    if tx.send(unit).is_err() || fatal {
                        break;
                    }
                }
                (source.totals(), source.peak_live_frames())
            });
            let pumped = self.pump(std::iter::from_fn(|| rx.recv()), &mut observe);
            self.peak_inflight_units = rx.peak_len();
            drop(rx);
            // A panicking lane drops its sender, which closes the channel:
            // the pump above drained what was sent and returned.
            (pumped, decode_lane.join())
        });
        pumped?;
        let (totals, peak_frames) = lane.map_err(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            VrDannError::BadInput(format!("decode lane panicked: {msg}"))
        })?;
        self.flush_wave()?;
        self.finish(totals, peak_frames)
    }

    /// Steps every unit in decode order, handing emitted work to `observe`.
    fn pump(
        &mut self,
        units: impl Iterator<Item = vrd_codec::Result<DecodedUnit>>,
        observe: &mut impl FnMut(&Self, usize, StepWork) -> Result<()>,
    ) -> Result<()> {
        for (k, unit) in units.enumerate() {
            if let Some(work) = self.step(unit?)? {
                observe(self, k, work)?;
            }
        }
        Ok(())
    }
}

/// Display-order stage driver for the full-decode baselines: every frame is
/// decoded, `stage` maps it (with the outputs so far, for the propagating
/// schemes) to an output and its compute kind, and the trace is assembled
/// uniformly (per-frame byte average, frame types from the GOP plan).
pub(crate) fn run_display_order<O>(
    seq: &Sequence,
    encoded: &EncodedVideo,
    scheme: SchemeKind,
    mut stage: impl FnMut(usize, &[O]) -> (O, ComputeKind),
) -> (Vec<O>, SchemeTrace) {
    let (w, h) = (seq.width(), seq.height());
    let bytes = encoded.bitstream.len() / seq.len().max(1);
    let mut outputs: Vec<O> = Vec::with_capacity(seq.len());
    let mut frames = Vec::with_capacity(seq.len());
    for d in 0..seq.len() {
        let (out, kind) = stage(d, &outputs);
        outputs.push(out);
        frames.push(TraceFrame {
            display: d as u32,
            ftype: encoded.plan.types[d],
            kind,
            full_decode: true,
            bitstream_bytes: bytes,
        });
    }
    (
        outputs,
        SchemeTrace {
            scheme,
            width: w,
            height: h,
            mb_size: encoded.config.standard.mb_size(),
            frames,
        },
    )
}
