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
//! The engine owns the frame ladder — routing, the reference window, the
//! per-frame output store, concealment and its counters, trace emission,
//! the wave every B-frame mask goes through — and is generic over the two
//! things that differ between runs. One driver ([`PipelineEngine::drive`])
//! runs every combination, on one thread or on two lanes:
//!
//! | axis | trait | what it supplies | implementations |
//! |------|-------|------------------|-----------------|
//! | task | [`TaskPolicy`] | what NN-L yields on an anchor, how a refined mask is read out, the empty output, optionally feature-space propagation | [`SegTask`] (masks), [`DetTask`] (boxes), [`FeatPropTask`](crate::FeatPropTask) (feature propagation) |
//! | fault handling | [`FaultPolicy`] | whether damage is concealed or fatal, the NN-S fault lottery | [`StrictPolicy`] (fail fast), [`ConcealingPolicy`] (degrade) |
//!
//! The per-unit ladder, in order (`route_nnl`, `store` and `emit` are each
//! the engine's only site for what they do):
//!
//! 1. **anchor** → `route_nnl`: flush the wave with NN-L inference (lazy,
//!    as the unit arrives) running on the compute lane beside it,
//!    insertion into the reference window once the wave has joined,
//!    `store`, `emit` — or, concealing, where `prime` already routed every
//!    usable anchor, a substitution count for anchors decoded from
//!    replacement references and the `emit` alone;
//! 2. **lost anchor** (concealing) → mark a pending NN-L re-inference;
//! 3. **B-frame payload** → the pending re-inference or the §VI-A adaptive
//!    fallback (both `route_nnl`), else feature-space propagation for a
//!    task that has it, else the frame is *planned* — payload sanitised and
//!    fault lottery drawn when concealing, trace frame emitted — and its
//!    job joins the wave; reconstruction from motion vectors, NN-S
//!    refinement and the `store` run when the wave flushes;
//! 4. **lost B-frame** (concealing) → `store` a copy of the output of the
//!    display-nearest reference.
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
use crate::sandwich::nns_planes;
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
use vrd_nn::{ComputeMode, LargeNet, LargeNetProfile, NnS, QuantNnS};
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

/// The task axis of the engine: what NN-L yields on an anchor and how a
/// refined B-frame mask is read out. Where a frame's output is kept, how a
/// gap is concealed and how the run is collected are the engine's.
pub trait TaskPolicy {
    /// Per-frame artefact the task produces (mask or detection list).
    type Output: Clone;

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
    /// backbone features, run the head) and returns `Some((output, ops))`
    /// — the frame's output and the head-only NPU cost — which makes the
    /// engine store the output, emit a [`ComputeKind::FeatHead`] trace
    /// frame and skip the mask-space reconstruction ladder. The default
    /// (`None`) routes the B-frame through reconstruction + NN-S.
    ///
    /// # Errors
    /// `Some(Err(..))` aborts the run (e.g. the payload references an
    /// anchor whose features left the window — impossible on a conforming
    /// stream, fatal on a corrupt one).
    fn propagate(&mut self, _info: &BFrameInfo) -> Option<Result<(Self::Output, u64)>> {
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

    /// The sequence the task reads its ground truth from. Its frame count
    /// sizes the engine's output store and bounds every display index;
    /// [`PipelineEngine::drive`] rejects a stream it does not match.
    fn sequence(&self) -> &Sequence;

    /// Operations of one NN-L inference at the stream's resolution.
    fn nnl_ops(&self) -> u64;

    /// Runs NN-L on frame `display` (within [`TaskPolicy::sequence`]) and
    /// returns the frame's output with the reference mask downstream
    /// B-frames reconstruct from. `reinfer` selects the re-inference /
    /// fallback seeding lane (a B-frame routed through NN-L must not
    /// collide with the anchor lane).
    fn infer_anchor(&mut self, display: u32, reinfer: bool) -> (Self::Output, SegMask);

    /// Reads the output out of a reconstructed (and refined) B-frame mask.
    fn refine(&self, mask: SegMask) -> Self::Output;

    /// The output of a frame nothing can be copied from (a stream with
    /// every anchor lost).
    fn empty(&self) -> Self::Output;
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

    fn sequence(&self) -> &Sequence {
        self.seq
    }

    fn nnl_ops(&self) -> u64 {
        self.nnl.ops(self.w, self.h)
    }

    fn infer_anchor(&mut self, display: u32, reinfer: bool) -> (SegMask, SegMask) {
        let lane: i64 = if reinfer { 2 } else { 0 };
        let seed = hash2(display as i64, lane, self.seed);
        let mask = self.nnl.segment(&self.seq.gt_masks[display as usize], seed);
        (mask.clone(), mask)
    }

    fn refine(&self, mask: SegMask) -> SegMask {
        mask
    }

    fn empty(&self) -> SegMask {
        SegMask::new(self.w, self.h)
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
}

impl<'s> StreamTask<'s> for DetTask<'s> {
    fn for_stream(seq: &'s Sequence, cfg: &VrDannConfig, info: &StreamInfo) -> Self {
        Self {
            seq,
            nnl: LargeNet::new(LargeNetProfile::selsa()),
            seed: cfg.seed,
            w: info.width,
            h: info.height,
            min_component: (info.mb_size * info.mb_size) / 2,
        }
    }
}

impl TaskPolicy for DetTask<'_> {
    type Output = Vec<Detection>;

    const SUPPORTS_FALLBACK: bool = false;

    fn sequence(&self) -> &Sequence {
        self.seq
    }

    fn nnl_ops(&self) -> u64 {
        self.nnl.ops(self.w, self.h)
    }

    fn infer_anchor(&mut self, display: u32, _reinfer: bool) -> (Vec<Detection>, SegMask) {
        let seed = hash2(display as i64, 1, self.seed);
        let dets = self
            .nnl
            .detect(&self.seq.gt_boxes[display as usize], self.w, self.h, seed);
        let boxes: Vec<_> = dets.iter().map(|d| d.rect).collect();
        (dets, boxes_to_mask(&boxes, self.w, self.h))
    }

    fn refine(&self, mask: SegMask) -> Vec<Detection> {
        extract_components(&mask, self.min_component)
    }

    fn empty(&self) -> Vec<Detection> {
        Vec::new()
    }
}

/// The fault axis of the engine: whether damage is concealed or fatal, and
/// the NN-S soft-error lottery. The concealment itself — and its counters —
/// are the engine's; the defaults describe a policy without a lottery.
pub trait FaultPolicy {
    /// Whether the degradation rungs (substitution, refetch, copy, salvage)
    /// are active. A strict run treats every unit as pristine.
    const CONCEALING: bool;

    /// Draws the per-B-frame NN-S fault lottery (one draw per
    /// reconstructed B-frame, in decode order).
    fn draw_nns_fault(&mut self) -> bool {
        false
    }

    /// The lottery's generator at its current position, saved by
    /// [`PipelineEngine::checkpoint`].
    fn save(&self) -> Option<StdRng> {
        None
    }

    /// Rewinds the lottery to a [`save`](FaultPolicy::save)d generator, so
    /// a replayed span of units redraws exactly the faults it drew the
    /// first time.
    fn load(&mut self, _lottery: Option<StdRng>) {}
}

/// Fail-fast policy: any decode error aborts the run, no concealment.
#[derive(Debug, Default)]
pub struct StrictPolicy {}

impl FaultPolicy for StrictPolicy {
    const CONCEALING: bool = false;
}

/// Degrade-gracefully policy: damage is concealed per the ladder and the
/// seeded NN-S fault lottery of [`ResilienceOptions`] applies.
#[derive(Debug)]
pub struct ConcealingPolicy {
    rng: Option<StdRng>,
    rate: f64,
}

impl ConcealingPolicy {
    /// Builds the policy from the run's resilience knobs.
    pub fn new(opts: &ResilienceOptions) -> Self {
        Self {
            rng: (opts.nns_failure_rate > 0.0).then(|| StdRng::seed_from_u64(opts.seed)),
            rate: opts.nns_failure_rate,
        }
    }
}

impl FaultPolicy for ConcealingPolicy {
    const CONCEALING: bool = true;

    fn draw_nns_fault(&mut self) -> bool {
        self.rng
            .as_mut()
            .is_some_and(|rng| rng.random_range(0.0f64..1.0) < self.rate)
    }

    fn save(&self) -> Option<StdRng> {
        self.rng.clone()
    }

    fn load(&mut self, lottery: Option<StdRng>) {
        self.rng = lottery;
    }
}

/// A snapshot of the engine's resumable streaming state: the O(GOP)
/// reference-mask window, the anchor eviction queue, the pending-refetch
/// flag, the concealment counters, the fault lottery's generator position
/// and the length of the trace at capture time.
///
/// [`PipelineEngine::checkpoint`] captures it; [`PipelineEngine::restore`]
/// rolls the same engine back to it, after which re-[`step`]ping the units
/// decoded since the checkpoint reproduces the original run byte-for-byte
/// (every inference lane is display-seeded, every store idempotent per
/// display index, and the rewound lottery redraws the faults it drew the
/// first time instead of double-counting them). This is what lets a
/// serving layer resume a stream whose accelerator crashed mid-flight
/// instead of dropping it: the host keeps the checkpoint, re-primes the
/// recovered NPU, and replays forward.
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
    stats: ConcealmentStats,
    lottery: Option<StdRng>,
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
/// buffers — the software analogue of the paper's small on-chip
/// `ip_Q`/`b_Q` frame queues between the decoder and the NPU.
const STAGE_CAPACITY: usize = 8;

/// The lanes of [`PipelineEngine::drive`]: passing one moves the source
/// onto a decode-lane thread and lets B-frame mask computation wait in the
/// wave for the next barrier, which fans out over
/// [`vrd_runtime::max_threads`] workers (set per call with
/// [`vrd_runtime::with_thread_budget`]). The compute lane is one of those
/// workers, so a wave of width `n` spawns `n − 1` helpers and keeps `n`
/// compute threads runnable; the decode lane is the one thread on top. The
/// stage channel between the lanes holds 8 decoded units.
///
/// It carries no value — passing one means "two lanes" — and stays a type
/// because the benchmark harness passes `&PipelineOptions::default()` to
/// [`crate::VrDann::run_segmentation_pipelined`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineOptions;

/// One planned B-frame mask computation: everything the pure
/// reconstruct → sandwich → NN-S chain needs, captured at plan time. The
/// payload is already sanitised (concealing) and the fault lottery already
/// drawn (`refined`), so executing the job touches no engine state.
#[derive(Debug)]
struct ReconJob {
    display: u32,
    info: BFrameInfo,
    refined: bool,
}

/// The only path a B-frame's mask takes: jobs planned since the last
/// flush, executed together when the wave reaches `flush_threshold`, when
/// the reference window is about to change, or when the stream ends. A
/// flush reconstructs the jobs across `threads` workers, then refines all
/// of them in one `masks` call whose tiles form one queue, so a worker
/// that finishes one frame's tiles takes another's instead of idling at a
/// per-frame barrier; at an NN-L step the compute lane runs NN-L first and
/// then joins that queue. Without lanes the threshold is 1 — every job
/// runs inside its own `step`, its tiles across the caller's width.
#[derive(Debug)]
struct Wave {
    jobs: Vec<ReconJob>,
    threads: usize,
    flush_threshold: usize,
}

impl Wave {
    /// An empty wave: with `lanes`, fanning out over that many workers at
    /// barriers; without, flushing each job as it is planned.
    fn new(lanes: Option<usize>) -> Self {
        Self {
            jobs: Vec::new(),
            threads: lanes.unwrap_or(1),
            // Anchor arrivals bound a laned wave at one GOP's worth of
            // B-frames; this threshold keeps it O(GOP) even on pathological
            // streams that lose every anchor (no barrier would ever fire).
            flush_threshold: lanes.map_or(1, |threads| (2 * MASK_WINDOW).max(2 * threads)),
        }
    }
}

/// What a wave's flush reads besides its jobs and the reference window;
/// fixed for a stream once `prime` has set `stream` and `nns_q`.
#[derive(Debug)]
struct ReconCtx<'a> {
    stream: StreamInfo,
    cfg: &'a VrDannConfig,
    nns: &'a NnS,
    // Quantized twin of `nns`, present when the configuration selects
    // `ComputeMode::Int8` (weight quantization is done once, not per frame).
    nns_q: Option<QuantNnS>,
}

/// The generic streaming engine: a task, a fault policy, and a shared model
/// configuration, executed over any [`FrameSource`]. It owns the whole
/// frame ladder: the O(GOP) reference window, the per-frame output store
/// (one write site, one nearest-reference concealment, one collect at
/// [`finish`](PipelineEngine::finish)), the concealment counters, the
/// trace and the wave every B-frame's mask goes through.
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
pub struct PipelineEngine<'a, T: TaskPolicy, P> {
    task: T,
    policy: P,
    ctx: ReconCtx<'a>,
    // `Err` until `prime` has established the stream (or with what its
    // prepopulation failed on); every stateful entry point checks it.
    primed: Result<()>,
    nns_ops: u64,
    nnl_ops: u64,
    ref_segs: BTreeMap<u32, SegMask>,
    anchor_window: VecDeque<u32>,
    // One slot per frame of the task's sequence, display order.
    outputs: Vec<Option<T::Output>>,
    stats: ConcealmentStats,
    frames: Vec<(TraceFrame, ByteClass)>,
    // Set once an anchor is lost; the next decodable B-frame goes
    // through NN-L to re-establish a trusted reference.
    pending_refetch: bool,
    // High-water mark of the decode→compute stage channel (0 unless the
    // driver ran with lanes).
    peak_inflight_units: usize,
    wave: Wave,
}

impl<'a, T: TaskPolicy, P: FaultPolicy> PipelineEngine<'a, T, P> {
    /// Assembles an engine from its stages.
    pub fn new(cfg: &'a VrDannConfig, nns: &'a NnS, task: T, policy: P) -> Self {
        let unprimed = "engine used before prime() established the stream";
        Self {
            outputs: vec![None; task.sequence().len()],
            task,
            policy,
            ctx: ReconCtx {
                stream: StreamInfo {
                    width: 0,
                    height: 0,
                    mb_size: 0,
                    n_frames: 0,
                },
                cfg,
                nns,
                nns_q: None,
            },
            primed: Err(VrDannError::BadInput(unprimed.into())),
            nns_ops: 0,
            nnl_ops: 0,
            ref_segs: BTreeMap::new(),
            anchor_window: VecDeque::new(),
            stats: ConcealmentStats::default(),
            frames: Vec::new(),
            pending_refetch: false,
            peak_inflight_units: 0,
            wave: Wave::new(None),
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
    /// which keeps the reference window O(GOP). A display outside the
    /// task's sequence is reported by the first
    /// [`step`](PipelineEngine::step).
    pub fn prime(&mut self, info: &StreamInfo, prepopulate: &[u32]) {
        self.ctx.stream = *info;
        // The NPU is charged the same MAC count in both compute modes (the
        // paper's MAC array runs low precision natively), so traces are
        // byte-identical across `ComputeMode`s.
        self.nns_ops = 2 * self.ctx.nns.macs(info.height, info.width);
        self.nnl_ops = self.task.nnl_ops();
        self.ctx.nns_q =
            (self.ctx.cfg.compute == ComputeMode::Int8).then(|| self.ctx.nns.quantize());
        self.primed = prepopulate
            .iter()
            .try_for_each(|&display| self.route_nnl(display, false, None).map(|_| ()));
    }

    /// Snapshots the engine's resumable streaming state (see
    /// [`EngineCheckpoint`]). O(GOP) cost: clones the reference-mask window
    /// and scalars only.
    ///
    /// # Errors
    /// Returns [`VrDannError::BadInput`] if the engine was never primed —
    /// there is no stream state to snapshot — or if planned B-frame jobs
    /// are pending (an observer under lanes asking between barriers): the
    /// snapshot cannot carry them. Every large-model step flushes the wave
    /// first, so anchor checkpoints work with and without lanes.
    pub fn checkpoint(&self) -> Result<EngineCheckpoint> {
        self.primed.clone()?;
        if !self.wave.jobs.is_empty() {
            return Err(VrDannError::BadInput(format!(
                "engine checkpointed with {} deferred B-frame jobs pending",
                self.wave.jobs.len()
            )));
        }
        Ok(EngineCheckpoint {
            ref_segs: self.ref_segs.clone(),
            anchor_window: self.anchor_window.clone(),
            pending_refetch: self.pending_refetch,
            frames_len: self.frames.len(),
            stats: self.stats,
            lottery: self.policy.save(),
        })
    }

    /// Rolls this engine back to `ckpt`: the reference window, anchor
    /// eviction queue, refetch flag, concealment counters and fault-lottery
    /// position return to their snapshot values and the trace is truncated
    /// to the snapshot length. Outputs stored after the checkpoint are left
    /// in place — re-stepping the same units overwrites them with identical
    /// values (the store is keyed by display index and all inference lanes
    /// are display-seeded), which is exactly the crash-replay contract.
    ///
    /// # Errors
    /// Returns [`VrDannError::BadInput`] if the engine is unprimed or the
    /// checkpoint is ahead of this engine's trace (it belongs to a
    /// different or longer-lived run).
    pub fn restore(&mut self, ckpt: &EngineCheckpoint) -> Result<()> {
        self.primed.clone()?;
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
        self.stats = ckpt.stats;
        self.policy.load(ckpt.lottery.clone());
        Ok(())
    }

    /// The output slot of frame `display` — the one frame-index bound.
    ///
    /// # Errors
    /// Returns [`VrDannError::BadInput`] for a display index outside the
    /// task's sequence.
    fn slot(&mut self, display: u32) -> Result<&mut Option<T::Output>> {
        let frames = self.outputs.len();
        self.outputs.get_mut(display as usize).ok_or_else(|| {
            VrDannError::BadInput(format!(
                "frame {display} is outside the {frames}-frame sequence"
            ))
        })
    }

    /// The one output-slot write.
    fn store(&mut self, display: u32, out: T::Output) -> Result<()> {
        *self.slot(display)? = Some(out);
        Ok(())
    }

    /// The one concealment: a copy of the output of the display-nearest of
    /// `among` (ascending; the lower display wins a tie), or the task's
    /// empty output when there is nothing to copy from.
    fn nearest_output(&self, among: impl Iterator<Item = u32>, display: u32) -> T::Output {
        among
            .min_by_key(|d| d.abs_diff(display))
            .and_then(|d| self.outputs.get(d as usize)?.clone())
            .unwrap_or_else(|| self.task.empty())
    }

    /// Conceals a B-frame nothing can be reconstructed for with the output
    /// of the display-nearest reference.
    fn copy_nearest_reference(&mut self, display: u32) -> Result<()> {
        self.stats.b_copied += 1;
        let copy = self.nearest_output(self.ref_segs.keys().copied(), display);
        self.store(display, copy)
    }

    /// The one trace-emission site; returns the [`StepWork`] view of the
    /// frame it pushed. The decoder reconstructs pixels for exactly the
    /// frames a full NN-L pass reads (a feature head reads warped features).
    fn emit(
        &mut self,
        display: u32,
        ftype: FrameType,
        kind: ComputeKind,
        bytes: ByteClass,
    ) -> StepWork {
        let work = StepWork {
            display,
            ftype,
            ops: kind.ops(),
            uses_large_model: kind.uses_large_model(),
            full_decode: matches!(kind, ComputeKind::NnL { .. }),
        };
        let frame = TraceFrame {
            display,
            ftype,
            kind,
            full_decode: work.full_decode,
            bitstream_bytes: 0,
        };
        self.frames.push((frame, bytes));
        work
    }

    /// The one NN-L route, behind anchors, prepopulation, the lost-anchor
    /// re-inference and the adaptive fallback: flush the wave (the new
    /// reference mutates the window every planned job reads) with NN-L
    /// running on this thread while the other workers walk the wave's
    /// tiles, insert the reference once the wave has joined (so no job
    /// sees it), store the output and — unless this is prepopulation,
    /// whose anchors are traced when their units arrive — emit.
    fn route_nnl(
        &mut self,
        display: u32,
        reinfer: bool,
        traced: Option<(FrameType, ByteClass)>,
    ) -> Result<Option<StepWork>> {
        // The task indexes its sequence with `display`: bound it first.
        if let Err(e) = self.slot(display) {
            self.flush_wave()?;
            return Err(e);
        }
        let (out, mask) = self.flush_wave_beside(|task| task.infer_anchor(display, reinfer))?;
        self.ref_segs.insert(display, mask);
        self.store(display, out)?;
        let kind = ComputeKind::NnL { ops: self.nnl_ops };
        Ok(traced.map(|(ftype, bytes)| self.emit(display, ftype, kind, bytes)))
    }

    /// [`Self::flush_wave_beside`] with nothing beside.
    fn flush_wave(&mut self) -> Result<()> {
        self.flush_wave_beside(|_| ())
    }

    /// Executes the wave's planned jobs while this thread runs `beside` on
    /// the task, and returns what `beside` returns. Pure reads of the
    /// reference window and the model until the stores; three steps:
    ///
    /// 1. Each job's B-frame is reconstructed from its motion vectors, in
    ///    parallel over the jobs, and a refined job's NN-S input taken
    ///    around it ([`nns_planes`]), up to the first job in decode order
    ///    that fails.
    /// 2. One `masks` call refines every refined job's planes: every tile
    ///    of every frame is claimed from one queue, and this thread runs
    ///    `beside` first and then joins the queue. Both precisions read the
    ///    packed planes and threshold NN-S's logits rather than its
    ///    probabilities: the masks are those of
    ///    `infer(build_sandwich(..)).to_mask(0.5)`, without the dense
    ///    sandwich, the quantize pass or the sigmoid.
    /// 3. The masks are stored in decode order, and the first failure in
    ///    decode order is returned after the jobs before it are stored.
    fn flush_wave_beside<R>(&mut self, beside: impl FnOnce(&mut T) -> R) -> Result<R> {
        let jobs = std::mem::take(&mut self.wave.jobs);
        let (refs, ctx, task) = (&self.ref_segs, &self.ctx, &mut self.task);
        let (s, cfg) = (ctx.stream, ctx.cfg);
        let recons = vrd_runtime::parallel_map_with(&jobs, self.wave.threads, |job| {
            reconstruct_b_frame(&job.info, refs, s.width, s.height, s.mb_size, &cfg.recon)
        });
        let mut failed = Ok(());
        let mut inputs = Vec::with_capacity(jobs.len());
        for (job, recon) in jobs.iter().zip(&recons) {
            let input = recon.as_ref().map_err(Clone::clone).and_then(|plane| {
                let planes = (job.refined)
                    .then(|| nns_planes(job.info.display_idx, plane, refs, cfg.sandwich));
                Ok((plane, planes.transpose()?))
            });
            match input {
                Ok(input) => inputs.push(input),
                Err(e) => {
                    failed = Err(e);
                    break;
                }
            }
        }
        let (at, planes): (Vec<usize>, Vec<_>) = (inputs.iter().enumerate())
            .filter_map(|(i, &(_, planes))| Some((i, planes?)))
            .unzip();
        let (masks, out) = match &ctx.nns_q {
            Some(q) => q.masks_beside(&planes, || beside(task)),
            None => ctx.nns.masks_beside(&planes, || beside(task)),
        };
        // Each job's mask under its place in decode order: the refined
        // jobs' zipped with their masks, the others' read off their planes.
        let plain = inputs
            .iter()
            .enumerate()
            .filter(|(_, (_, planes))| planes.is_none());
        let mut done: Vec<(usize, SegMask)> = (at.into_iter().zip(masks))
            .chain(plain.map(|(i, &(plane, _))| (i, plane_to_mask(plane))))
            .collect();
        done.sort_unstable_by_key(|&(i, _)| i);
        for (i, mask) in done {
            let out = self.task.refine(mask);
            self.store(jobs[i].display, out)?;
        }
        failed.map(|()| out)
    }

    /// Advances the engine by one decoded unit through the stage ladder,
    /// returning the NPU work the unit generated (`None` for units that
    /// parse to nothing, e.g. a lost frame with no inferable display slot).
    ///
    /// Everything stateful (routing, sanitisation, the fault lottery, trace
    /// emission) happens here, in decode order. A B-frame's pure mask
    /// computation is planned into the wave, which without lanes flushes
    /// inside this call and under [`PipelineEngine::drive`]'s lanes waits
    /// for the next reference-window mutation. The returned [`StepWork`] is
    /// the same either way (it derives from the plan, not the masks).
    ///
    /// # Errors
    /// Returns [`VrDannError::BadInput`] if called before
    /// [`PipelineEngine::prime`] or for a frame outside the task's
    /// sequence, and propagates reconstruction failures (under lanes,
    /// possibly those of an earlier planned unit).
    pub fn step(&mut self, unit: DecodedUnit) -> Result<Option<StepWork>> {
        self.primed.clone()?;
        let lost = || ComputeKind::NnSRefine {
            ops: 0,
            mvs: vec![],
        };
        let work = match unit.payload {
            UnitPayload::Anchor { display, .. } if P::CONCEALING => {
                // Reference already established by prepopulation; only the
                // substitution bookkeeping remains. Flushing here too keeps
                // waves GOP-sized.
                self.flush_wave()?;
                if unit.outcome == DecodeOutcome::Concealed(ConcealReason::MissingReference) {
                    self.stats.anchors_substituted += 1;
                }
                let kind = ComputeKind::NnL { ops: self.nnl_ops };
                self.emit(display, unit.ftype, kind, ByteClass::AnchorAvg)
            }
            UnitPayload::Anchor { display, .. } => {
                let work =
                    self.route_nnl(display, false, Some((unit.ftype, ByteClass::AnchorAvg)))?;
                self.anchor_window.push_back(display);
                if self.anchor_window.len() > MASK_WINDOW {
                    self.anchor_window.pop_front();
                    if let Some(&front) = self.anchor_window.front() {
                        // Drop every reference older than the window
                        // (fallback masks between evicted anchors can
                        // never win a nearest lookup again).
                        self.ref_segs = self.ref_segs.split_off(&front);
                        // Cached backbone features ride the same window:
                        // evicting the mask evicts the map.
                        self.task.evict_below(front);
                    }
                }
                return Ok(work);
            }
            UnitPayload::Motion(info_b) => {
                let display = info_b.display_idx;
                let via_nnl = Some((FrameType::B, ByteClass::BAvg));

                // A lost anchor earlier in decode order: spend an NN-L
                // here to re-establish a trusted reference (§VI-A's
                // fallback machinery, repurposed for recovery).
                if P::CONCEALING && self.pending_refetch {
                    self.pending_refetch = false;
                    self.stats.nnl_reinferences += 1;
                    return self.route_nnl(display, true, via_nnl);
                }

                // Adaptive fallback: fast-moving B-frames go through
                // NN-L (only on fully trusted payloads when concealing).
                if T::SUPPORTS_FALLBACK
                    && (!P::CONCEALING || unit.outcome == DecodeOutcome::Ok)
                    && (self.ctx.cfg.fallback_mv_threshold)
                        .is_some_and(|t| p90_mv_magnitude(&info_b.mvs) > t as f64)
                {
                    return self.route_nnl(display, true, via_nnl);
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
                        let (out, ops) = head?;
                        self.store(display, out)?;
                        let kind = ComputeKind::FeatHead {
                            ops,
                            mvs: info_b.mvs,
                        };
                        return Ok(Some(self.emit(
                            display,
                            FrameType::B,
                            kind,
                            ByteClass::BAvg,
                        )));
                    }
                }

                if P::CONCEALING && self.ref_segs.is_empty() {
                    // Every anchor lost: nothing to reconstruct from.
                    self.copy_nearest_reference(display)?;
                    return Ok(Some(self.emit(
                        display,
                        unit.ftype,
                        lost(),
                        ByteClass::Zero,
                    )));
                }

                if P::CONCEALING && matches!(unit.outcome, DecodeOutcome::Concealed(_)) {
                    self.stats.b_salvaged += 1;
                }
                // Plan the reconstruction now — sanitisation and the fault
                // lottery are stateful and must happen in decode order —
                // but the mask computation itself is pure, so the wave may
                // hold it past this unit.
                let s = self.ctx.stream;
                let info = match P::CONCEALING {
                    true => sanitize_b_info(&info_b, &self.ref_segs, s.width, s.height, s.mb_size),
                    false => info_b,
                };
                let nns_faulted = self.policy.draw_nns_fault();
                self.stats.nns_failures += usize::from(nns_faulted);
                let refined = self.ctx.cfg.refine && !nns_faulted;
                // The trace frame and the job both need the (sanitised) MV
                // payload; the job keeps the original.
                let kind = ComputeKind::NnSRefine {
                    ops: if refined { self.nns_ops } else { 0 },
                    mvs: info.mvs.clone(),
                };
                let work = self.emit(display, FrameType::B, kind, ByteClass::BAvg);
                self.wave.jobs.push(ReconJob {
                    display,
                    info,
                    refined,
                });
                if self.wave.jobs.len() >= self.wave.flush_threshold {
                    self.flush_wave()?;
                }
                work
            }
            UnitPayload::Skipped { display } => {
                let Some(display) = display else {
                    return Ok(None);
                };
                if unit.ftype.is_anchor() {
                    self.stats.anchors_lost += 1;
                    self.pending_refetch = true;
                } else {
                    self.copy_nearest_reference(display)?;
                }
                self.emit(display, unit.ftype, lost(), ByteClass::Zero)
            }
        };
        Ok(Some(work))
    }

    /// Ends the stream: flushes the wave, patches the whole-stream
    /// per-frame byte averages into the trace, collects the outputs and
    /// closes the books. `totals` and `peak_live_frames` come from the
    /// exhausted source.
    ///
    /// # Errors
    /// A strict run with a frame that was never produced returns
    /// [`VrDannError::BadInput`] naming the first one (a concealing run
    /// fills such gaps from the nearest computed frame instead); pending
    /// reconstruction failures propagate.
    pub fn finish(
        mut self,
        totals: vrd_codec::StreamTotals,
        peak_live_frames: usize,
    ) -> Result<EngineRun<T::Output>> {
        self.flush_wave()?;
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

        if P::CONCEALING {
            let computed: Vec<u32> = (0u32..)
                .zip(&self.outputs)
                .filter_map(|(d, slot)| slot.is_some().then_some(d))
                .collect();
            for display in 0..self.outputs.len() as u32 {
                if self.outputs[display as usize].is_none() {
                    let fill = self.nearest_output(computed.iter().copied(), display);
                    self.store(display, fill)?;
                }
            }
        }
        let outputs = (self.outputs.into_iter())
            .enumerate()
            .map(|(d, slot)| {
                slot.ok_or_else(|| VrDannError::BadInput(format!("frame {d} never produced")))
            })
            .collect::<Result<_>>()?;
        Ok(EngineRun {
            outputs,
            trace: SchemeTrace {
                scheme: self.task.scheme(),
                width: self.ctx.stream.width,
                height: self.ctx.stream.height,
                mb_size: self.ctx.stream.mb_size,
                frames,
            },
            concealment: self.stats,
            peak_live_frames,
            peak_live_features: self.task.peak_live_features(),
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
    ///   order and fans each GOP's B-frame reconstructions, and then all
    ///   of their NN-S tiles as one queue, out wave-front-style across
    ///   [`vrd_runtime::max_threads`] workers, itself one of them (running
    ///   the next anchor's NN-L before it joins the tile queue).
    ///
    /// Outputs, trace and concealment counters are bit-identical for every
    /// [`TaskPolicy`] × [`FaultPolicy`] at every `lanes` value — all
    /// stateful decisions execute sequentially in decode order; only pure
    /// per-frame mask computation runs concurrently. Memory stays bounded:
    /// the source keeps its own O(GOP) window, at most 8 decoded units sit
    /// in the channel, and a wave holds at most O(GOP) planned jobs.
    ///
    /// `observe` is called on this thread after each step that emitted
    /// work, with the engine, the index of the unit in decode order and
    /// its [`StepWork`] — the same sequence with and without lanes. It may
    /// [`PipelineEngine::checkpoint`] the engine at large-model steps; an
    /// error it returns ends the run.
    ///
    /// # Errors
    /// Returns [`VrDannError::BadInput`] before priming if the task's
    /// sequence and the stream disagree on frame count or frame size.
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
        let info = source.info();
        let seq = self.task.sequence();
        let (w, h) = (seq.frames.first()).map_or((0, 0), |f| (f.width(), f.height()));
        if (seq.len(), w, h) != (info.n_frames, info.width, info.height) {
            return Err(VrDannError::BadInput(format!(
                "the sequence holds {} frames of {w}x{h}, the stream {} frames of {}x{}",
                seq.len(),
                info.n_frames,
                info.width,
                info.height
            )));
        }
        self.prime(&info, prepopulate);
        if lanes.is_none() {
            self.pump(std::iter::from_fn(|| source.next_unit()), &mut observe)?;
            return self.finish(source.totals(), source.peak_live_frames());
        }
        self.wave = Wave::new(Some(vrd_runtime::max_threads()));
        let (tx, rx) = vrd_runtime::stage_channel(STAGE_CAPACITY);
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

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_video::davis::{davis_sequence, SuiteConfig};

    /// Frame `d`'s stand-in output: an otherwise empty mask with pixel
    /// `(d, 0)` set.
    fn marked(seq: &Sequence, d: u32) -> SegMask {
        let mut mask = SegMask::new(seq.width(), seq.height());
        mask.set(d as usize, 0, 1);
        mask
    }

    /// Runs `check` on an unprimed engine over an 8-frame sequence (the
    /// store needs no stream) with `marked` outputs stored at `stored`.
    fn with_store<P: FaultPolicy>(
        policy: P,
        stored: &[u32],
        check: impl FnOnce(PipelineEngine<'_, SegTask<'_>, P>, &Sequence),
    ) {
        let suite = SuiteConfig {
            frames: 8,
            ..SuiteConfig::tiny()
        };
        let seq = davis_sequence("cows", &suite).unwrap();
        let (cfg, nns) = (VrDannConfig::default(), NnS::new(4, 1));
        let info = StreamInfo {
            width: seq.width(),
            height: seq.height(),
            mb_size: 16,
            n_frames: seq.len(),
        };
        let task = SegTask::for_stream(&seq, &cfg, &info);
        let mut engine = PipelineEngine::new(&cfg, &nns, task, policy);
        for &d in stored {
            engine.store(d, marked(&seq, d)).unwrap();
        }
        check(engine, &seq);
    }

    #[test]
    fn nearest_copy_prefers_the_lower_display_and_falls_back_to_empty() {
        with_store(StrictPolicy::default(), &[2, 5, 6], |engine, seq| {
            let refs = || [2u32, 6].into_iter();
            assert_eq!(engine.nearest_output(refs(), 3), marked(seq, 2));
            assert_eq!(engine.nearest_output(refs(), 4), marked(seq, 2), "tie");
            assert_eq!(engine.nearest_output(refs(), 5), marked(seq, 6));
            let empty = SegMask::new(seq.width(), seq.height());
            assert_eq!(engine.nearest_output(std::iter::empty(), 4), empty);
        });
    }

    #[test]
    fn the_store_bounds_display_indices_by_the_sequence() {
        with_store(StrictPolicy::default(), &[], |mut engine, seq| {
            let err = engine.store(8, marked(seq, 0)).unwrap_err();
            assert!(matches!(err, VrDannError::BadInput(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains("frame 8") && msg.contains("8-frame"), "{msg}");
        });
    }

    #[test]
    fn strict_collect_names_the_first_missing_frame() {
        with_store(StrictPolicy::default(), &[0, 1, 2, 4, 6, 7], |engine, _| {
            let err = engine.finish(Default::default(), 0).unwrap_err();
            assert!(err.to_string().contains("frame 3 never produced"), "{err}");
        });
    }

    #[test]
    fn concealed_collect_fills_leading_inner_and_trailing_gaps() {
        let policy = ConcealingPolicy::new(&ResilienceOptions::default());
        with_store(policy, &[2, 4, 5], |engine, seq| {
            let run = engine.finish(Default::default(), 0).unwrap();
            let from: Vec<u32> = vec![2, 2, 2, 2, 4, 5, 5, 5];
            let want: Vec<SegMask> = from.iter().map(|&d| marked(seq, d)).collect();
            assert_eq!(run.outputs, want);
        });
        let policy = ConcealingPolicy::new(&ResilienceOptions::default());
        with_store(policy, &[], |engine, seq| {
            let run = engine.finish(Default::default(), 0).unwrap();
            let empty = SegMask::new(seq.width(), seq.height());
            assert_eq!(run.outputs, vec![empty; 8]);
        });
    }
}
