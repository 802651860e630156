//! One admitted session: a paced decoder lane feeding a resumable
//! [`PipelineEngine`].
//!
//! The session driver is where the real recognition work happens — it pulls
//! [`DecodedUnit`](vrd_codec::DecodedUnit)s from a
//! [`StrictFrameSource`] through the engine's own driver
//! ([`PipelineEngine::drive`]), so NN-L/NN-S actually run and the masks
//! are produced exactly as a standalone
//! [`run_segmentation`](vr_dann::VrDann::run_segmentation) call would.
//! Alongside the compute it clocks a per-session *decoder lane* with
//! `vrd-sim`'s decoder timing model: frame `k` arrives at
//! `start_offset + k·interval`, the decoder serves frames sequentially
//! (full reconstruction for anchors and NN-L-rerouted frames, MV-only
//! extraction otherwise), and every emitted [`WorkItem`] carries the
//! hand-over instant the shared-NPU scheduler replays.

use vr_dann::{
    ComputeMode, EngineCheckpoint, PipelineEngine, PipelineOptions, Result, SegTask, StreamTask,
    StrictPolicy, VrDann,
};
use vrd_codec::{EncodedVideo, FrameSource, FrameType, StrictFrameSource};
use vrd_sim::{simulate_stream, ExecMode, Model, ParallelOptions, SimConfig};
use vrd_video::Sequence;

/// Pacing of one session's arrival process (its camera / network feed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// When the session's first frame reaches the decoder, in nanoseconds.
    pub start_offset_ns: f64,
    /// Nominal inter-frame arrival gap, in nanoseconds.
    pub frame_interval_ns: f64,
}

/// Where a session ended up in the serving lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Turned away by admission control before any work ran.
    Rejected,
    /// Admitted, driven to exhaustion, every frame accounted for.
    Drained,
}

/// One NPU work item emitted by a session's engine, stamped with its
/// decoder hand-over time.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// Owning session (index into the admitted set).
    pub session: usize,
    /// Per-session emission order (the engine's decode order).
    pub idx: usize,
    /// Display index of the frame.
    pub display: u32,
    /// Codec frame type.
    pub ftype: FrameType,
    /// NPU operations of the inference.
    pub ops: u64,
    /// Whether the item needs the large model resident.
    pub uses_large_model: bool,
    /// Nominal arrival of the frame at the decoder (latency baseline).
    pub arrival_ns: f64,
    /// When the decoder lane hands the item to the NPU queues.
    pub ready_ns: f64,
}

impl WorkItem {
    /// The model the item needs resident on the NPU.
    pub fn model(&self) -> Model {
        if self.uses_large_model {
            Model::Large
        } else {
            Model::Small
        }
    }
}

/// A host-side recovery point for one driven session: everything needed to
/// resume the decode → engine → stamp loop after the shared NPU crashes.
/// The engine snapshot holds the O(GOP) reference-mask window; the decoder
/// lane resumes from `decode_clock_ns` skipping `units_consumed` units, so
/// a replayed tail re-emits byte-identical work items.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    /// Work items already emitted when the snapshot was taken.
    pub items_emitted: usize,
    /// Decoded units already consumed from the bitstream.
    pub units_consumed: usize,
    /// Decoder-lane clock at the snapshot.
    pub decode_clock_ns: f64,
    /// The engine's resumable state (reference window, anchor ring,
    /// concealment counters).
    pub engine: EngineCheckpoint,
}

/// Everything driving one session produced: the stamped work items for the
/// shared-NPU scheduler plus the engine's run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DrivenSession {
    /// Sequence name (for reports).
    pub name: String,
    /// Index into the admitted set.
    pub session: usize,
    /// Compute mode the session's model runs NN-S in. The stamped work is
    /// mode-invariant (see `int8_session_emits_identical_work`); the chaos
    /// scheduler uses this as the session's degradation-ladder floor and
    /// the admission controller folds it into utilisation estimates.
    pub compute: ComputeMode,
    /// NPU work in emission order, decode-lane times stamped.
    pub items: Vec<WorkItem>,
    /// Frames the engine produced output for.
    pub frames: usize,
    /// Peak reconstructed pixel frames the source held alive (the
    /// bounded-memory guarantee carries over to serving).
    pub peak_live_frames: usize,
    /// Total NPU operations over the stream.
    pub total_ops: u64,
    /// NN-L ↔ NN-S switches a dedicated in-order NPU would pay for this
    /// session alone — the per-stream FIFO switch baseline.
    pub switches_in_order: usize,
    /// End-to-end time of this session alone on a dedicated VR-DANN-parallel
    /// SoC (via [`simulate_stream`]) — the no-contention latency floor.
    pub isolated_ns: f64,
}

/// One engine emission of a [`SessionTemplate`]: everything a work item
/// carries except the pacing stamps, which are applied per instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateItem {
    /// Display index of the frame.
    pub display: u32,
    /// Codec frame type.
    pub ftype: FrameType,
    /// NPU operations of the inference.
    pub ops: u64,
    /// Whether the item needs the large model resident.
    pub uses_large_model: bool,
    /// Index of the decoded unit whose arrival triggered this emission —
    /// the `k` in `arrival = offset + k·interval`.
    pub arrive_idx: usize,
    /// Decoder service time of the triggering unit (full reconstruction
    /// for anchors and rerouted frames, MV-only extraction otherwise).
    pub decode_ns: f64,
}

/// One stream driven through the engine *once*, pacing left symbolic: the
/// real NN-L/NN-S compute and the decoder service times are captured, and
/// [`SessionTemplate::instantiate`] restamps them for any
/// [`SessionSpec`] in O(items) — no decode, no inference. This is what
/// lets the fleet layer serve 64+ concurrent sessions drawn from a small
/// library of distinct streams without paying the compute per session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTemplate {
    /// Sequence name (for reports).
    pub name: String,
    /// Compute mode the template's model runs NN-S in.
    pub compute: ComputeMode,
    /// Engine emissions in decode order, pacing unstamped.
    pub items: Vec<TemplateItem>,
    /// Frames the engine produced output for.
    pub frames: usize,
    /// Peak reconstructed pixel frames the source held alive.
    pub peak_live_frames: usize,
    /// Total NPU operations over the stream.
    pub total_ops: u64,
    /// NN-L ↔ NN-S switches a dedicated in-order NPU would pay.
    pub switches_in_order: usize,
    /// This stream alone on dedicated hardware, in nanoseconds.
    pub isolated_ns: f64,
}

impl SessionTemplate {
    /// Stamps the full template for one session spec — the only place the
    /// decoder-lane stamping arithmetic exists.
    pub fn instantiate(&self, session: usize, spec: &SessionSpec) -> DrivenSession {
        self.instantiate_prefix(session, spec, self.items.len())
    }

    /// Stamps at most the first `max_items` emissions — the churn path: a
    /// session that leaves mid-stream offers only a prefix of its work.
    /// For a strict prefix `switches_in_order` is recomputed over the kept
    /// items and `isolated_ns` is prorated by the kept share of the NPU
    /// operations (an estimate; the full-length instantiation reports the
    /// exact simulated figure).
    pub fn instantiate_prefix(
        &self,
        session: usize,
        spec: &SessionSpec,
        max_items: usize,
    ) -> DrivenSession {
        let take = max_items.min(self.items.len());
        let mut items = Vec::with_capacity(take);
        let mut t_decode = spec.start_offset_ns;
        for t in &self.items[..take] {
            let arrival = spec.start_offset_ns + t.arrive_idx as f64 * spec.frame_interval_ns;
            t_decode = t_decode.max(arrival) + t.decode_ns;
            items.push(WorkItem {
                session,
                idx: items.len(),
                display: t.display,
                ftype: t.ftype,
                ops: t.ops,
                uses_large_model: t.uses_large_model,
                arrival_ns: arrival,
                ready_ns: t_decode,
            });
        }
        let full = take == self.items.len();
        let total_ops: u64 = items.iter().map(|i| i.ops).sum();
        let ops_frac = if self.total_ops > 0 {
            total_ops as f64 / self.total_ops as f64
        } else {
            1.0
        };
        DrivenSession {
            name: self.name.clone(),
            session,
            compute: self.compute,
            frames: if full { self.frames } else { take },
            peak_live_frames: self.peak_live_frames,
            total_ops,
            switches_in_order: if full {
                self.switches_in_order
            } else {
                items
                    .windows(2)
                    .filter(|w| w[0].uses_large_model != w[1].uses_large_model)
                    .count()
            },
            isolated_ns: if full {
                self.isolated_ns
            } else {
                self.isolated_ns * ops_frac
            },
            items,
        }
    }
}

/// The engine configuration every session runs: strict segmentation.
type SessionEngine<'a> = PipelineEngine<'a, SegTask<'a>, StrictPolicy>;

/// Drives one stream through the engine and captures it as a reusable
/// [`SessionTemplate`]: the real compute runs exactly once, every
/// [`SessionSpec`] instantiation afterwards is pure arithmetic.
///
/// `lanes` is handed to [`PipelineEngine::drive`] unchanged: `None` runs
/// the session on the caller's thread, `Some` puts its decoder on a lane of
/// its own and fans B-frame reconstruction out. The captured template is
/// **byte-identical** either way — every [`TemplateItem`] derives from the
/// engine's plan-time [`StepWork`](vr_dann::StepWork), which executes sequentially in decode
/// order — so the shared-NPU scheduler's accounting (ops, model residency,
/// switch counts, decoder service times) never depends on how the session
/// was driven. Pinned by `lanes_do_not_change_the_schedule`.
///
/// # Errors
/// Propagates bitstream decode errors and engine reconstruction failures.
pub fn drive_template(
    model: &VrDann,
    seq: &Sequence,
    encoded: &EncodedVideo,
    sim: &SimConfig,
    lanes: Option<&PipelineOptions>,
) -> Result<SessionTemplate> {
    drive_observed(model, seq, encoded, sim, lanes, |_, _| Ok(()))
}

/// [`drive_template`] with a hook on the engine driver's observer: after
/// each emission `after_item` sees the engine and the items so far, the
/// one just emitted last.
fn drive_observed(
    model: &VrDann,
    seq: &Sequence,
    encoded: &EncodedVideo,
    sim: &SimConfig,
    lanes: Option<&PipelineOptions>,
    mut after_item: impl FnMut(&SessionEngine<'_>, &[TemplateItem]) -> Result<()>,
) -> Result<SessionTemplate> {
    let source = StrictFrameSource::new(&encoded.bitstream)?;
    let info = source.info();
    let task = SegTask::for_stream(seq, model.config(), &info);
    let engine = PipelineEngine::new(model.config(), model.nns(), task, StrictPolicy::default());

    let pixels = info.width * info.height;
    let mut items: Vec<TemplateItem> = Vec::with_capacity(info.n_frames);
    let run = engine.drive(source, &[], lanes, |engine, arrive_idx, work| {
        items.push(TemplateItem {
            display: work.display,
            ftype: work.ftype,
            ops: work.ops,
            uses_large_model: work.uses_large_model,
            arrive_idx,
            decode_ns: sim.decode_ns(pixels, work.full_decode).ns,
        });
        after_item(engine, &items)
    })?;
    let isolated = simulate_stream(
        run.trace.frames.iter(),
        run.trace.scheme,
        run.trace.width,
        run.trace.height,
        run.trace.mb_size,
        ExecMode::VrDannParallel(ParallelOptions::default()),
        sim,
    );
    Ok(SessionTemplate {
        name: seq.name.clone(),
        compute: model.config().compute,
        frames: run.outputs.len(),
        peak_live_frames: run.peak_live_frames,
        total_ops: run.trace.total_ops(),
        switches_in_order: run.trace.model_switches_in_order(),
        isolated_ns: isolated.total_ns,
        items,
    })
}

/// Drives one session to exhaustion: decode → engine step → stamped work
/// item, then closes the engine and simulates the isolated-hardware
/// baseline. The produced masks are identical to a standalone
/// [`run_segmentation`](vr_dann::VrDann::run_segmentation) call; serving
/// changes *when* work runs, never *what* it computes.
///
/// # Errors
/// Propagates bitstream decode errors and engine reconstruction failures.
pub fn drive_session(
    model: &VrDann,
    session: usize,
    seq: &Sequence,
    encoded: &EncodedVideo,
    spec: &SessionSpec,
    sim: &SimConfig,
) -> Result<DrivenSession> {
    Ok(drive_template(model, seq, encoded, sim, None)?.instantiate(session, spec))
}

/// [`drive_session`] that also snapshots a [`SessionCheckpoint`] after
/// every NN-L anchor — the natural recovery points: each anchor refreshes
/// the reference window the following B-frames lean on, so restoring at an
/// anchor bounds the replay to one GOP. The decoder-lane clock of a
/// snapshot is the hand-over stamp of the anchor's own work item.
///
/// # Errors
/// Propagates bitstream decode errors and engine reconstruction failures.
pub fn drive_session_checkpointed(
    model: &VrDann,
    session: usize,
    seq: &Sequence,
    encoded: &EncodedVideo,
    spec: &SessionSpec,
    sim: &SimConfig,
) -> Result<(DrivenSession, Vec<SessionCheckpoint>)> {
    let mut snapshots = Vec::new();
    let template = drive_observed(model, seq, encoded, sim, None, |engine, items| {
        if let Some(anchor) = items.last().filter(|item| item.uses_large_model) {
            snapshots.push((items.len(), anchor.arrive_idx + 1, engine.checkpoint()?));
        }
        Ok(())
    })?;
    let driven = template.instantiate(session, spec);
    let checkpoints = snapshots
        .into_iter()
        .map(
            |(items_emitted, units_consumed, engine)| SessionCheckpoint {
                items_emitted,
                units_consumed,
                decode_clock_ns: driven.items[items_emitted - 1].ready_ns,
                engine,
            },
        )
        .collect();
    Ok((driven, checkpoints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_dann::{ComputeMode, TrainTask, VrDannConfig};
    use vrd_nn::LargeNet;
    use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};

    fn tiny_model() -> (VrDann, SuiteConfig) {
        let cfg = SuiteConfig::tiny();
        let train = davis_train_suite(&cfg, 2);
        let vr_cfg = VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        };
        (
            VrDann::train(&train, TrainTask::Segmentation, vr_cfg).unwrap(),
            cfg,
        )
    }

    #[test]
    fn driven_session_matches_standalone_run() {
        let (model, cfg) = tiny_model();
        let seq = davis_sequence("cows", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let spec = SessionSpec {
            start_offset_ns: 0.0,
            frame_interval_ns: 1e6,
        };
        let sim = SimConfig::default();
        let driven = drive_session(&model, 0, &seq, &encoded, &spec, &sim).unwrap();
        let solo = model.run_segmentation(&seq, &encoded).unwrap();
        assert_eq!(driven.frames, solo.masks.len());
        assert_eq!(driven.items.len(), solo.trace.frames.len());
        assert_eq!(driven.total_ops, solo.trace.total_ops());
        assert_eq!(
            driven.switches_in_order,
            solo.trace.model_switches_in_order()
        );
        assert_eq!(driven.peak_live_frames, solo.peak_live_frames);
        for (item, tf) in driven.items.iter().zip(&solo.trace.frames) {
            assert_eq!(item.display, tf.display);
            assert_eq!(item.ops, tf.kind.ops());
            assert_eq!(item.uses_large_model, tf.kind.uses_large_model());
        }
        assert!(driven.isolated_ns > 0.0);
    }

    #[test]
    fn int8_session_emits_identical_work() {
        // The NPU accounting is compute-mode-invariant: a session driven on
        // the quantized path puts byte-identical work on the scheduler, so
        // admission control and SLO accounting never depend on the mode.
        let (model, cfg) = tiny_model();
        let seq = davis_sequence("cows", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let spec = SessionSpec {
            start_offset_ns: 0.0,
            frame_interval_ns: 1e6,
        };
        let sim = SimConfig::default();
        let f32_run = drive_session(&model, 0, &seq, &encoded, &spec, &sim).unwrap();
        let int8_model = model.clone().with_compute(ComputeMode::Int8);
        let int8_run = drive_session(&int8_model, 0, &seq, &encoded, &spec, &sim).unwrap();
        assert_eq!(f32_run.items, int8_run.items);
        assert_eq!(f32_run.frames, int8_run.frames);
        assert_eq!(f32_run.total_ops, int8_run.total_ops);
        assert_eq!(f32_run.switches_in_order, int8_run.switches_in_order);
        assert_eq!(f32_run.isolated_ns, int8_run.isolated_ns);
        // The mode itself is carried for the chaos ladder and admission.
        assert_eq!(f32_run.compute, ComputeMode::F32Reference);
        assert_eq!(int8_run.compute, ComputeMode::Int8);
    }

    #[test]
    fn lanes_do_not_change_the_schedule() {
        // The scheduler accounting must be executor-invariant: a session
        // driven on two lanes puts byte-identical work (ops, residency,
        // decoder-lane stamps, switch counts) on the shared NPU at every
        // thread count.
        let (model, cfg) = tiny_model();
        let seq = davis_sequence("cows", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let sim = SimConfig::default();
        let tpl = drive_template(&model, &seq, &encoded, &sim, None).unwrap();
        let default_lanes = PipelineOptions::default();
        let capped = [1, 2, 4].map(|threads| PipelineOptions {
            threads: Some(threads),
            channel_capacity: Some(4),
        });
        for pipe in capped.iter().chain([&default_lanes]) {
            let laned = drive_template(&model, &seq, &encoded, &sim, Some(pipe)).unwrap();
            assert_eq!(laned, tpl, "scheduler accounting diverged under {pipe:?}");
        }
    }

    #[test]
    fn checkpointed_drive_is_identical_and_snapshots_every_anchor() {
        let (model, cfg) = tiny_model();
        let seq = davis_sequence("cows", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let spec = SessionSpec {
            start_offset_ns: 0.0,
            frame_interval_ns: 1e6,
        };
        let sim = SimConfig::default();
        let plain = drive_session(&model, 0, &seq, &encoded, &spec, &sim).unwrap();
        let (driven, ckpts) =
            drive_session_checkpointed(&model, 0, &seq, &encoded, &spec, &sim).unwrap();
        assert_eq!(driven, plain, "checkpointing must not perturb the drive");
        let anchors = plain.items.iter().filter(|i| i.uses_large_model).count();
        assert_eq!(ckpts.len(), anchors);
        for w in ckpts.windows(2) {
            assert!(w[0].items_emitted < w[1].items_emitted);
            assert!(w[0].units_consumed < w[1].units_consumed);
            assert!(w[0].decode_clock_ns <= w[1].decode_clock_ns);
        }
        for c in &ckpts {
            assert_eq!(c.engine.frames_emitted(), c.items_emitted);
        }
    }

    #[test]
    fn crash_resume_from_checkpoint_reemits_identical_tail() {
        // Simulate an NPU crash mid-session: the host rolls the engine
        // back to the last anchor checkpoint and replays the decode walk
        // from there. The re-emitted tail must be byte-identical — work
        // kinds, ops AND decoder-lane stamps.
        let (model, cfg) = tiny_model();
        let seq = davis_sequence("dog", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let spec = SessionSpec {
            start_offset_ns: 250.0,
            frame_interval_ns: 1.5e6,
        };
        let sim = SimConfig::default();
        let (straight, ckpts) =
            drive_session_checkpointed(&model, 2, &seq, &encoded, &spec, &sim).unwrap();
        assert!(ckpts.len() >= 2, "need a mid-stream anchor to resume from");
        let ckpt = &ckpts[ckpts.len() / 2];
        assert!(ckpt.items_emitted < straight.items.len());

        // Re-drive up to the crash point on a live engine, then restore.
        let mut source = StrictFrameSource::new(&encoded.bitstream).unwrap();
        let info = source.info();
        let task = SegTask::new(
            &seq,
            LargeNet::new(model.config().segment_profile),
            model.config().seed,
            &info,
        );
        let mut engine =
            PipelineEngine::new(model.config(), model.nns(), task, StrictPolicy::default());
        engine.prime(&info, &[]);
        for _ in 0..ckpt.units_consumed + 2 {
            if let Some(unit) = source.next_unit() {
                engine.step(unit.unwrap()).unwrap();
            }
        }
        engine.restore(&ckpt.engine).unwrap();

        // Recovery walk: fresh source, skip the consumed units, resume the
        // decoder-lane clock from the snapshot.
        let mut source = StrictFrameSource::new(&encoded.bitstream).unwrap();
        for _ in 0..ckpt.units_consumed {
            source.next_unit().unwrap().unwrap();
        }
        let pixels = info.width * info.height;
        let mut t_decode = ckpt.decode_clock_ns;
        let mut k = ckpt.units_consumed;
        let mut tail: Vec<WorkItem> = Vec::new();
        while let Some(unit) = source.next_unit() {
            let arrival = spec.start_offset_ns + k as f64 * spec.frame_interval_ns;
            k += 1;
            let Some(work) = engine.step(unit.unwrap()).unwrap() else {
                continue;
            };
            t_decode = t_decode.max(arrival) + sim.decode_ns(pixels, work.full_decode).ns;
            tail.push(WorkItem {
                session: 2,
                idx: ckpt.items_emitted + tail.len(),
                display: work.display,
                ftype: work.ftype,
                ops: work.ops,
                uses_large_model: work.uses_large_model,
                arrival_ns: arrival,
                ready_ns: t_decode,
            });
        }
        assert_eq!(tail, straight.items[ckpt.items_emitted..]);
        let run = engine
            .finish(source.totals(), source.peak_live_frames())
            .unwrap();
        assert_eq!(run.outputs.len(), straight.frames);
    }

    #[test]
    fn template_prefix_truncates_for_churn() {
        let (model, cfg) = tiny_model();
        let seq = davis_sequence("dog", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let sim = SimConfig::default();
        let tpl = drive_template(&model, &seq, &encoded, &sim, None).unwrap();
        let spec = SessionSpec {
            start_offset_ns: 100.0,
            frame_interval_ns: 2e6,
        };
        let full = tpl.instantiate(5, &spec);
        let cut = tpl.instantiate_prefix(5, &spec, 4);
        assert_eq!(cut.items.len(), 4);
        assert_eq!(cut.items[..], full.items[..4]);
        assert_eq!(cut.frames, 4);
        assert!(cut.total_ops < full.total_ops);
        assert!(cut.isolated_ns < full.isolated_ns);
        // A zero-length prefix is an empty (churned-out) session.
        let gone = tpl.instantiate_prefix(5, &spec, 0);
        assert!(gone.items.is_empty());
        assert_eq!(gone.total_ops, 0);
        assert_eq!(gone.switches_in_order, 0);
        // Over-asking clamps to the full stream.
        assert_eq!(tpl.instantiate_prefix(5, &spec, usize::MAX), full);
    }

    #[test]
    fn decode_lane_is_sequential_and_paced() {
        let (model, cfg) = tiny_model();
        let seq = davis_sequence("dog", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let interval = 2e6;
        let spec = SessionSpec {
            start_offset_ns: 500.0,
            frame_interval_ns: interval,
        };
        let sim = SimConfig::default();
        let driven = drive_session(&model, 3, &seq, &encoded, &spec, &sim).unwrap();
        for (k, item) in driven.items.iter().enumerate() {
            assert_eq!(item.session, 3);
            assert_eq!(item.idx, k);
            // The decoder cannot hand a frame over before it arrived.
            assert!(item.ready_ns > item.arrival_ns);
            // Arrivals are paced by the configured interval.
            assert!((item.arrival_ns - (500.0 + k as f64 * interval)).abs() < 1e-6);
            // Hand-over order is decode order.
            if k > 0 {
                assert!(item.ready_ns >= driven.items[k - 1].ready_ns);
            }
        }
    }
}
