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

use vr_dann::{ComputeMode, PipelineEngine, Result, SegTask, StreamTask, StrictPolicy, VrDann};
use vrd_codec::{EncodedVideo, FrameSource, FrameType, StrictFrameSource};
use vrd_sim::{simulate_stream, ExecMode, Model, ParallelOptions, SimConfig};
use vrd_video::Sequence;

/// Pacing of one session's arrival process (its camera / network feed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SessionSpec {
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
/// `SessionTemplate::instantiate` restamps them for any session pacing in
/// O(items) — no decode, no inference. This is what
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
    pub(crate) fn instantiate(&self, session: usize, spec: &SessionSpec) -> DrivenSession {
        self.instantiate_prefix(session, spec, self.items.len())
    }

    /// Stamps at most the first `max_items` emissions — the churn path: a
    /// session that leaves mid-stream offers only a prefix of its work.
    /// For a strict prefix `switches_in_order` is recomputed over the kept
    /// items and `isolated_ns` is prorated by the kept share of the NPU
    /// operations (an estimate; the full-length instantiation reports the
    /// exact simulated figure).
    pub(crate) fn instantiate_prefix(
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

/// Drives one stream through the engine and captures it as a reusable
/// [`SessionTemplate`]: the real compute runs exactly once, every
/// instantiation afterwards is pure arithmetic.
///
/// The session runs on the caller's thread. Every [`TemplateItem`] derives
/// from the engine's plan-time [`StepWork`](vr_dann::StepWork), which is
/// the same on any executor (pinned by
/// `observer_and_anchor_checkpoints_are_lane_invariant` in `vr-dann`'s
/// `pipelined_equivalence.rs`), so the shared-NPU scheduler's accounting
/// (ops, model residency, switch counts, decoder service times) does not
/// depend on how the session was driven.
///
/// # Errors
/// Propagates bitstream decode errors and engine reconstruction failures.
pub fn drive_template(
    model: &VrDann,
    seq: &Sequence,
    encoded: &EncodedVideo,
    sim: &SimConfig,
) -> Result<SessionTemplate> {
    let source = StrictFrameSource::new(&encoded.bitstream)?;
    let info = source.info();
    let task = SegTask::for_stream(seq, model.config(), &info);
    let engine = PipelineEngine::new(model.config(), model.nns(), task, StrictPolicy::default());

    let pixels = info.width * info.height;
    let mut items: Vec<TemplateItem> = Vec::with_capacity(info.n_frames);
    let run = engine.drive(source, &[], None, |_, arrive_idx, work| {
        items.push(TemplateItem {
            display: work.display,
            ftype: work.ftype,
            ops: work.ops,
            uses_large_model: work.uses_large_model,
            arrive_idx,
            decode_ns: sim.decode_ns(pixels, work.full_decode).ns,
        });
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use vr_dann::{ComputeMode, TrainTask, VrDannConfig};
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
        let driven = drive_template(&model, &seq, &encoded, &sim)
            .unwrap()
            .instantiate(0, &spec);
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
        let f32_run = drive_template(&model, &seq, &encoded, &sim)
            .unwrap()
            .instantiate(0, &spec);
        let int8_model = model.clone().with_compute(ComputeMode::Int8);
        let int8_run = drive_template(&int8_model, &seq, &encoded, &sim)
            .unwrap()
            .instantiate(0, &spec);
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
    fn template_prefix_truncates_for_churn() {
        let (model, cfg) = tiny_model();
        let seq = davis_sequence("dog", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let sim = SimConfig::default();
        let tpl = drive_template(&model, &seq, &encoded, &sim).unwrap();
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
        let driven = drive_template(&model, &seq, &encoded, &sim)
            .unwrap()
            .instantiate(3, &spec);
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
