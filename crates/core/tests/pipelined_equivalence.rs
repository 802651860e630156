//! One table pinning the engine driver's lanes invisible in every output:
//! {segmentation, detection, feature propagation} × {strict, resilient with
//! damage} through the generic `VrDann::run`, each compared between no
//! lanes and lanes at 1/2/4/8 worker threads — same outputs, trace,
//! concealment counters and live-frame/feature peaks, with no more decoded
//! units in flight than the engine's 8-unit stage channel holds. Random GOP shapes and the fallback barrier
//! feed the same check; the observer, checkpoint and panicking-lane
//! contracts of `PipelineEngine::drive` are pinned below it.

use proptest::prelude::*;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use vr_dann::{
    ComputeKind, ConcealingPolicy, DetTask, FaultPolicy, FeatPropTask, PipelineEngine,
    PipelineOptions, ResilienceOptions, RunInput, SegTask, StepWork, StreamTask, StrictPolicy,
    TraceFrame, TrainTask, VrDann, VrDannConfig,
};
use vrd_codec::faults::PacketStream;
use vrd_codec::{
    inject, BFrameMode, CodecConfig, DecodedUnit, EncodedVideo, FaultConfig, FaultKind,
    FrameSource, ResilientFrameSource, StreamInfo, StreamTotals, StrictFrameSource,
};
use vrd_runtime::with_thread_budget;
use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};
use vrd_video::Sequence;

const THREADS: [usize; 4] = [1, 2, 4, 8];
/// The engine's stage channel capacity: at most this many decoded units
/// are ever in flight between the lanes.
const STAGE_CAPACITY: usize = 8;
const SEQ_NAMES: [&str; 4] = ["cows", "dog", "goat", "parkour"];

fn trained(task: TrainTask) -> VrDann {
    let cfg = SuiteConfig::tiny();
    let train = davis_train_suite(&cfg, 2);
    let vr_cfg = VrDannConfig {
        nns_hidden: 4,
        ..VrDannConfig::default()
    };
    VrDann::train(&train, task, vr_cfg).unwrap()
}

fn seg_model() -> &'static VrDann {
    static MODEL: OnceLock<VrDann> = OnceLock::new();
    MODEL.get_or_init(|| trained(TrainTask::Segmentation))
}

/// The same trained NN-S redeployed under a different configuration
/// (GOP shape randomisation without retraining per case).
fn redeploy(model: &VrDann, cfg: VrDannConfig) -> VrDann {
    VrDann::from_parts(cfg, &model.export_nns()).unwrap()
}

fn random_codec(gop_sel: usize, bmode_sel: usize) -> CodecConfig {
    let gop_len = [4, 8, 16][gop_sel % 3];
    CodecConfig {
        gop_len,
        b_frames: match bmode_sel % 9 {
            0 => BFrameMode::Auto,
            // A fixed B run must be shorter than the GOP.
            n => BFrameMode::Fixed(((n - 1) as u8).min(gop_len as u8 - 1)),
        },
        ..CodecConfig::default()
    }
}

fn pick_sequence(seq_sel: usize, frames: usize) -> Sequence {
    let cfg = SuiteConfig {
        frames,
        ..SuiteConfig::tiny()
    };
    davis_sequence(SEQ_NAMES[seq_sel % SEQ_NAMES.len()], &cfg).unwrap()
}

fn damaged(encoded: &EncodedVideo, seed: u64, rate: f64, kinds: &[FaultKind]) -> PacketStream {
    let stream = vrd_codec::packetize(&encoded.bitstream).unwrap();
    let faults = FaultConfig {
        seed,
        rate,
        kinds: kinds.to_vec(),
        b_frames_only: false,
        protect_first_i: true,
    };
    let (damaged, log) = inject(&stream, &faults);
    assert!(!log.events.is_empty(), "no faults planted at rate {rate}");
    damaged
}

/// The single check: task `T` over `input` without lanes, then with lanes
/// at every thread count; every laned run must equal the inline one and
/// keep its in-flight units within the channel capacity.
fn check_lanes<'s, T>(model: &VrDann, seq: &'s Sequence, input: RunInput<'_>, label: &str)
where
    T: StreamTask<'s>,
    T::Output: PartialEq + Debug,
{
    let inline = model.run::<T>(seq, input, None).unwrap();
    assert_eq!(inline.outputs.len(), seq.len(), "{label}");
    assert_eq!(inline.peak_inflight_units, 0, "{label}: no lanes, no queue");
    for threads in THREADS {
        let at = format!("{label}, {threads} threads");
        let laned = with_thread_budget(threads, || {
            model.run::<T>(seq, input, Some(&PipelineOptions))
        })
        .unwrap();
        assert_eq!(inline.outputs, laned.outputs, "outputs diverged: {at}");
        assert_eq!(inline.trace, laned.trace, "trace diverged: {at}");
        assert_eq!(
            inline.concealment, laned.concealment,
            "concealment diverged: {at}"
        );
        assert_eq!(
            inline.peak_live_frames, laned.peak_live_frames,
            "live-frame accounting diverged: {at}"
        );
        assert_eq!(
            inline.peak_live_features, laned.peak_live_features,
            "feature accounting diverged: {at}"
        );
        assert!(
            laned.peak_inflight_units <= STAGE_CAPACITY,
            "{} units in flight: {at}",
            laned.peak_inflight_units
        );
    }
}

#[test]
fn every_task_and_input_is_lane_invariant() {
    let seg = seg_model();
    let seq = pick_sequence(0, 48);
    let encoded = seg.encode(&seq).unwrap();
    let res = ResilienceOptions {
        nns_failure_rate: 0.1,
        seed: 0xfa17,
    };
    let kinds = [FaultKind::DropFrame, FaultKind::DropBMvs];
    let lossy = damaged(&encoded, 0xdec0de, 0.25, &kinds);
    let strict = RunInput::Strict(&encoded);
    let resilient = RunInput::Resilient(&lossy, &res);
    check_lanes::<SegTask>(seg, &seq, strict, "strict seg");
    check_lanes::<SegTask>(seg, &seq, resilient, "resilient seg");
    check_lanes::<FeatPropTask>(seg, &seq, strict, "strict featprop");
    check_lanes::<FeatPropTask>(seg, &seq, resilient, "resilient featprop");
    // The damage costs anchors, and B-frames naming a lost anchor go down
    // the mask-space ladder instead of failing the feature warp.
    let fp = seg.run::<FeatPropTask>(&seq, resilient, None).unwrap();
    assert!(fp.concealment.anchors_lost > 0, "{}", fp.concealment);
    let propagated = |f: &TraceFrame| matches!(f.kind, ComputeKind::FeatHead { .. });
    assert!(
        fp.trace.frames.iter().any(propagated),
        "nothing propagated in feature space"
    );

    let det = trained(TrainTask::Detection);
    let seq = davis_sequence("camel", &SuiteConfig::tiny()).unwrap();
    let encoded = det.encode(&seq).unwrap();
    let lossy = damaged(&encoded, 0xdec0de, 0.25, &kinds);
    let strict = RunInput::Strict(&encoded);
    let resilient = RunInput::Resilient(&lossy, &res);
    check_lanes::<DetTask>(&det, &seq, strict, "strict det");
    check_lanes::<DetTask>(&det, &seq, resilient, "resilient det");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_gop_shapes_are_lane_invariant_strict(
        gop_sel in 0usize..3,
        bmode_sel in 0usize..9,
        seq_sel in 0usize..4,
        frames in 24usize..56,
    ) {
        let base = seg_model();
        let model = redeploy(base, VrDannConfig {
            codec: random_codec(gop_sel, bmode_sel),
            ..*base.config()
        });
        let seq = pick_sequence(seq_sel, frames);
        let encoded = model.encode(&seq).unwrap();
        check_lanes::<SegTask>(
            &model,
            &seq,
            RunInput::Strict(&encoded),
            &format!("strict seg, gop {gop_sel}/{bmode_sel}, {frames} frames"),
        );
    }

    #[test]
    fn random_gop_shapes_are_lane_invariant_under_damage(
        gop_sel in 0usize..3,
        bmode_sel in 0usize..9,
        seq_sel in 0usize..4,
        fault_seed in 0u64..1_000_000,
        rate_pct in 5u64..35,
        nns_fail_pct in 0u64..30,
    ) {
        let base = seg_model();
        let model = redeploy(base, VrDannConfig {
            codec: random_codec(gop_sel, bmode_sel),
            ..*base.config()
        });
        let seq = pick_sequence(seq_sel, 48);
        let encoded = model.encode(&seq).unwrap();
        let kinds = [FaultKind::DropFrame, FaultKind::DropBMvs, FaultKind::Truncate];
        let lossy = damaged(&encoded, fault_seed, rate_pct as f64 / 100.0, &kinds);
        let res = ResilienceOptions {
            nns_failure_rate: nns_fail_pct as f64 / 100.0,
            seed: fault_seed ^ 0x5eed,
        };
        check_lanes::<SegTask>(
            &model,
            &seq,
            RunInput::Resilient(&lossy, &res),
            &format!("resilient seg, seed {fault_seed}, rate {rate_pct}%"),
        );
    }
}

#[test]
fn adaptive_fallback_barrier_is_lane_invariant() {
    // The fallback reroutes fast B-frames through NN-L mid-GOP, mutating
    // the reference window — the driver must flush its wave at exactly
    // that point to keep earlier B-frames' sandwiches identical.
    let base = seg_model();
    let model = redeploy(
        base,
        VrDannConfig {
            fallback_mv_threshold: Some(1.5),
            ..*base.config()
        },
    );
    let seq = pick_sequence(3, 48); // parkour: fast motion
    let encoded = model.encode(&seq).unwrap();
    let baseline = model.run_segmentation(&seq, &encoded).unwrap();
    assert!(
        baseline
            .trace
            .frames
            .iter()
            .filter(|f| f.ftype == vrd_codec::FrameType::B)
            .any(|f| f.kind.uses_large_model()),
        "fallback rerouted nothing; the barrier under test never fired"
    );
    check_lanes::<SegTask>(&model, &seq, RunInput::Strict(&encoded), "fallback");
}

/// What an observer sees over one drive: the `(unit_index, StepWork)`
/// sequence, the engine checkpoint at every large-model step, and the steps
/// at which `checkpoint()` refused because deferred jobs were pending.
#[derive(Debug, PartialEq)]
struct Observed {
    steps: Vec<(usize, StepWork)>,
    checkpoints: Vec<String>,
    refused_at: Vec<usize>,
}

fn observe<S: FrameSource + Send, P: FaultPolicy>(
    model: &VrDann,
    seq: &Sequence,
    source: S,
    policy: P,
    prepopulate: &[u32],
    lanes: Option<&PipelineOptions>,
) -> Observed {
    let task = SegTask::for_stream(seq, model.config(), &source.info());
    let engine = PipelineEngine::new(model.config(), model.nns(), task, policy);
    let mut seen = Observed {
        steps: Vec::new(),
        checkpoints: Vec::new(),
        refused_at: Vec::new(),
    };
    engine
        .drive(source, prepopulate, lanes, |engine, k, work| {
            seen.steps.push((k, work));
            match engine.checkpoint() {
                // `EngineCheckpoint` has no `PartialEq`; its `Debug` form
                // spells out every field.
                Ok(ckpt) if work.uses_large_model => seen.checkpoints.push(format!("{ckpt:?}")),
                Ok(_) => {}
                Err(e) => {
                    assert!(!work.uses_large_model, "refused at a barrier step: {e}");
                    assert!(e.to_string().contains("pending"), "{e}");
                    seen.refused_at.push(k);
                }
            }
            Ok(())
        })
        .unwrap();
    seen
}

#[test]
fn observer_and_anchor_checkpoints_are_lane_invariant() {
    let model = seg_model();
    let seq = pick_sequence(1, 48);
    let encoded = model.encode(&seq).unwrap();
    let res = ResilienceOptions {
        nns_failure_rate: 0.2,
        seed: 0xfa17,
    };
    let lossy = damaged(
        &encoded,
        7,
        0.2,
        &[FaultKind::DropFrame, FaultKind::DropBMvs],
    );
    let strict = |lanes: Option<&PipelineOptions>| {
        let source = StrictFrameSource::new(&encoded.bitstream).unwrap();
        observe(model, &seq, source, StrictPolicy::default(), &[], lanes)
    };
    let resilient = |lanes: Option<&PipelineOptions>| {
        let source = ResilientFrameSource::new(&lossy).unwrap();
        let prepopulate = source.usable_anchor_displays().to_vec();
        let policy = ConcealingPolicy::new(&res);
        observe(model, &seq, source, policy, &prepopulate, lanes)
    };
    for (label, run) in [
        (
            "strict",
            &strict as &dyn Fn(Option<&PipelineOptions>) -> Observed,
        ),
        ("resilient", &resilient),
    ] {
        let inline = run(None);
        assert!(
            inline.refused_at.is_empty(),
            "{label}: nothing is deferred inline"
        );
        assert!(inline.checkpoints.len() >= 2, "{label}: too few anchors");
        for threads in THREADS {
            let laned = with_thread_budget(threads, || run(Some(&PipelineOptions)));
            assert_eq!(inline.steps, laned.steps, "{label}, {threads} threads");
            assert_eq!(
                inline.checkpoints, laned.checkpoints,
                "{label}, {threads} threads"
            );
            assert!(
                !laned.refused_at.is_empty(),
                "{label}, {threads} threads: checkpoint() ignored pending jobs"
            );
        }
    }
}

/// A strict source whose third `next_unit` panics.
struct PanicsOnThird(StrictFrameSource, usize);

impl FrameSource for PanicsOnThird {
    fn info(&self) -> StreamInfo {
        self.0.info()
    }
    fn next_unit(&mut self) -> Option<vrd_codec::Result<DecodedUnit>> {
        self.1 += 1;
        assert!(self.1 < 3, "source double gave out on unit {}", self.1);
        self.0.next_unit()
    }
    fn live_frames(&self) -> usize {
        self.0.live_frames()
    }
    fn peak_live_frames(&self) -> usize {
        self.0.peak_live_frames()
    }
    fn totals(&self) -> StreamTotals {
        self.0.totals()
    }
}

#[test]
fn panicking_decode_lane_is_an_error_not_a_crash() {
    let model = seg_model();
    let seq = pick_sequence(0, 24);
    let encoded = model.encode(&seq).unwrap();
    let drive = |lanes: Option<&PipelineOptions>| {
        let source = PanicsOnThird(StrictFrameSource::new(&encoded.bitstream).unwrap(), 0);
        let task = SegTask::for_stream(&seq, model.config(), &source.info());
        PipelineEngine::new(model.config(), model.nns(), task, StrictPolicy::default())
            .drive(source, &[], lanes, |_, _, _| Ok(()))
            .map(|run| run.outputs.len())
    };
    for threads in [1, 4] {
        let err = with_thread_budget(threads, || drive(Some(&PipelineOptions)))
            .expect_err("a panicked lane cannot finish the run");
        let msg = err.to_string();
        assert!(
            msg.contains("decode lane panicked") && msg.contains("gave out on unit 3"),
            "{threads} threads: {msg}"
        );
    }
    // Without lanes the source runs on the caller's thread: a plain unwind.
    let unwound = catch_unwind(AssertUnwindSafe(|| drive(None)));
    assert!(unwound.is_err(), "inline panic was swallowed");
}
