//! Degradation-ladder tests for the resilient run input.
//!
//! One test per concealment tier: clean streams must be bit-identical to the
//! strict pipeline, lost B-frame MV payloads copy the nearest reference's
//! result, a lost anchor triggers reference substitution plus an NN-L
//! re-inference, and NN-S faults fall back to the raw reconstruction —
//! each verified through the run's `ConcealmentStats`.

use vr_dann::{
    DetTask, FeatPropTask, ResilienceOptions, RunInput, SegTask, TrainTask, VrDann, VrDannConfig,
};
use vrd_codec::faults::{inject, packetize, FaultConfig, FaultKind};
use vrd_codec::{BFrameMode, CodecConfig};
use vrd_metrics::score_sequence;
use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};
use vrd_video::Sequence;

fn tiny_model(task: TrainTask) -> (VrDann, SuiteConfig) {
    let cfg = SuiteConfig::tiny();
    let train = davis_train_suite(&cfg, 2);
    let vr_cfg = VrDannConfig {
        nns_hidden: 4,
        codec: CodecConfig {
            b_frames: BFrameMode::Fixed(3),
            ..CodecConfig::default()
        },
        ..VrDannConfig::default()
    };
    (VrDann::train(&train, task, vr_cfg).unwrap(), cfg)
}

fn encode_and_packetize(model: &VrDann, seq: &Sequence) -> vrd_codec::faults::PacketStream {
    let encoded = model.encode(seq).unwrap();
    packetize(&encoded.bitstream).unwrap()
}

#[test]
fn clean_stream_is_bit_identical_to_strict_segmentation() {
    let (model, cfg) = tiny_model(TrainTask::Segmentation);
    let seq = davis_sequence("cows", &cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let strict = model.run_segmentation(&seq, &encoded).unwrap();
    let ps = packetize(&encoded.bitstream).unwrap();
    let resilient = model
        .run::<SegTask>(
            &seq,
            RunInput::Resilient(&ps, &ResilienceOptions::default()),
            None,
        )
        .unwrap();
    assert!(
        resilient.concealment.is_clean(),
        "{}",
        resilient.concealment
    );
    assert_eq!(resilient.outputs, strict.masks);
    assert_eq!(resilient.trace, strict.trace);
}

#[test]
fn clean_stream_is_bit_identical_with_fallback_enabled() {
    let (mut model, cfg) = tiny_model(TrainTask::Segmentation);
    let seq = davis_sequence("parkour", &cfg).unwrap();
    // Route fast B-frames through NN-L in both paths; the resilient walk
    // must replicate the mid-walk ref_segs insertions exactly.
    let mut fb_cfg = *model.config();
    fb_cfg.fallback_mv_threshold = Some(1.5);
    model = VrDann::from_parts(fb_cfg, &model.export_nns()).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let strict = model.run_segmentation(&seq, &encoded).unwrap();
    let ps = packetize(&encoded.bitstream).unwrap();
    let resilient = model
        .run::<SegTask>(
            &seq,
            RunInput::Resilient(&ps, &ResilienceOptions::default()),
            None,
        )
        .unwrap();
    assert!(resilient.concealment.is_clean());
    assert_eq!(resilient.outputs, strict.masks);
    assert_eq!(resilient.trace, strict.trace);
}

#[test]
fn lost_b_mvs_are_concealed_and_counted() {
    let (model, cfg) = tiny_model(TrainTask::Segmentation);
    let seq = davis_sequence("dog", &cfg).unwrap();
    let ps = encode_and_packetize(&model, &seq);
    let (damaged, log) = inject(&ps, &FaultConfig::b_mv_loss(0.5, 17));
    assert!(!log.events.is_empty(), "rate 0.5 planted nothing");
    let run = model
        .run::<SegTask>(
            &seq,
            RunInput::Resilient(&damaged, &ResilienceOptions::default()),
            None,
        )
        .unwrap();
    assert_eq!(run.outputs.len(), seq.len());
    // Every faulted B-frame lands in exactly one concealment bucket: copied
    // (payload unusable) or salvaged (partial/suspect records).
    let c = run.concealment;
    assert_eq!(c.b_copied + c.b_salvaged, log.events.len(), "{c}");
    assert_eq!(c.anchors_lost, 0);
    assert_eq!(c.nns_failures, 0);
    // Concealment holds accuracy above a trivial all-background predictor.
    let scores = score_sequence(&run.outputs, &seq.gt_masks);
    assert!(scores.iou > 0.3, "IoU collapsed to {:.3}", scores.iou);
}

#[test]
fn lost_anchor_triggers_substitution_and_nnl_reinference() {
    let (model, cfg) = tiny_model(TrainTask::Segmentation);
    let seq = davis_sequence("goat", &cfg).unwrap();
    let mut ps = encode_and_packetize(&model, &seq);
    let victim = ps
        .packets
        .iter()
        .position(|p| p.ftype.is_anchor() && p.decode_idx > 0)
        .expect("stream has a second anchor");
    ps.packets[victim].lost = true;
    ps.packets[victim].payload = ps.packets[victim].payload.slice(0..0);
    let run = model
        .run::<SegTask>(
            &seq,
            RunInput::Resilient(&ps, &ResilienceOptions::default()),
            None,
        )
        .unwrap();
    assert_eq!(run.outputs.len(), seq.len());
    let c = run.concealment;
    assert_eq!(c.anchors_lost, 1, "{c}");
    assert_eq!(c.nnl_reinferences, 1, "{c}");
    assert!(c.anchors_substituted > 0, "{c}");
    // The re-inference shows up in the trace as an NN-L B-frame.
    let nnl_b = run
        .trace
        .frames
        .iter()
        .filter(|f| {
            f.ftype == vrd_codec::FrameType::B && matches!(f.kind, vr_dann::ComputeKind::NnL { .. })
        })
        .count();
    assert_eq!(nnl_b, 1);
}

#[test]
fn nns_faults_fall_back_to_raw_reconstruction() {
    let (model, cfg) = tiny_model(TrainTask::Segmentation);
    let seq = davis_sequence("camel", &cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let ps = packetize(&encoded.bitstream).unwrap();
    // Fault every NN-S inference: the run must match the refine=false
    // ablation exactly — same masks, zero NN-S ops on B-frames.
    let all_faults = ResilienceOptions {
        nns_failure_rate: 1.0,
        seed: 1,
    };
    let run = model
        .run::<SegTask>(&seq, RunInput::Resilient(&ps, &all_faults), None)
        .unwrap();
    let raw = {
        let mut cfg_raw = *model.config();
        cfg_raw.refine = false;
        VrDann::from_parts(cfg_raw, &model.export_nns())
            .unwrap()
            .run_segmentation(&seq, &encoded)
            .unwrap()
    };
    assert_eq!(run.outputs, raw.masks);
    assert_eq!(run.concealment.nns_failures, encoded.stats.b_frames);
    // A zero rate with the same seed conceals nothing.
    let none = ResilienceOptions {
        nns_failure_rate: 0.0,
        seed: 1,
    };
    let clean = model
        .run::<SegTask>(&seq, RunInput::Resilient(&ps, &none), None)
        .unwrap();
    assert!(clean.concealment.is_clean());
}

#[test]
fn detection_clean_stream_is_bit_identical_and_loss_degrades_gracefully() {
    let (model, cfg) = tiny_model(TrainTask::Detection);
    let seq = davis_sequence("drift-straight", &cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let strict = model
        .run::<DetTask>(&seq, RunInput::Strict(&encoded), None)
        .unwrap();
    let ps = packetize(&encoded.bitstream).unwrap();
    let clean = model
        .run::<DetTask>(
            &seq,
            RunInput::Resilient(&ps, &ResilienceOptions::default()),
            None,
        )
        .unwrap();
    assert!(clean.concealment.is_clean());
    assert_eq!(clean.outputs, strict.outputs);
    assert_eq!(clean.trace, strict.trace);

    let (damaged, log) = inject(&ps, &FaultConfig::uniform(0.3, 23));
    assert!(!log.events.is_empty());
    let run = model
        .run::<DetTask>(
            &seq,
            RunInput::Resilient(&damaged, &ResilienceOptions::default()),
            None,
        )
        .unwrap();
    assert_eq!(run.outputs.len(), seq.len());
    assert!(run.concealment.total() > 0);
    // Most frames still carry detections after concealment.
    let with_dets = run.outputs.iter().filter(|d| !d.is_empty()).count();
    assert!(with_dets > seq.len() / 2, "{with_dets}/{}", seq.len());
}

#[test]
fn every_sequence_survives_heavy_mixed_damage() {
    let (model, cfg) = tiny_model(TrainTask::Segmentation);
    for name in ["cows", "dog", "parkour"] {
        let seq = davis_sequence(name, &cfg).unwrap();
        let ps = encode_and_packetize(&model, &seq);
        for seed in 0..4u64 {
            let fault_cfg = FaultConfig {
                seed,
                rate: 0.35,
                kinds: vec![
                    FaultKind::BitFlip,
                    FaultKind::Truncate,
                    FaultKind::DropBMvs,
                    FaultKind::DropFrame,
                ],
                b_frames_only: false,
                protect_first_i: true,
            };
            let (damaged, _) = inject(&ps, &fault_cfg);
            let run = model
                .run::<SegTask>(
                    &seq,
                    RunInput::Resilient(&damaged, &ResilienceOptions::default()),
                    None,
                )
                .unwrap();
            assert_eq!(run.outputs.len(), seq.len(), "{name} seed {seed}");
        }
    }
}

/// FNV-1a over the `Debug` rendering of a run's outputs, trace and
/// concealment counters (every field of all three prints).
fn run_digest<O: std::fmt::Debug>(run: &vr_dann::EngineRun<O>) -> u64 {
    let text = format!("{:?}{:?}{:?}", run.outputs, run.trace, run.concealment);
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Concealed outputs pinned by value: every task over one fixed damage plan
/// that fires every rung (lost B payloads, salvaged prefixes, one lost
/// anchor with its re-inference and substitutions, NN-S faults), and over a
/// stream that lost every anchor (frame 0 included, so the collect fills a
/// leading gap and every reference is a re-inference). The constants were computed at commit
/// `43cb36b`; a refactor of the engine's ladder must not move them.
#[test]
fn concealed_outputs_are_pinned_by_value_for_every_task() {
    let (model, cfg) = tiny_model(TrainTask::Segmentation);
    let cfg = SuiteConfig { frames: 48, ..cfg };
    let seq = davis_sequence("dog", &cfg).unwrap();
    let ps = encode_and_packetize(&model, &seq);
    let b_damage = FaultConfig {
        seed: 0x1add,
        rate: 0.4,
        kinds: vec![
            FaultKind::DropFrame,
            FaultKind::DropBMvs,
            FaultKind::Truncate,
        ],
        b_frames_only: true,
        protect_first_i: true,
    };
    let (mut mixed, _) = inject(&ps, &b_damage);
    let lose = |p: &mut vrd_codec::faults::FramePacket| {
        p.lost = true;
        p.payload = p.payload.slice(0..0);
    };
    let second_anchor = (mixed.packets.iter())
        .position(|p| p.ftype.is_anchor() && p.decode_idx > 0)
        .expect("stream has a second anchor");
    lose(&mut mixed.packets[second_anchor]);
    let mut no_anchors = ps.clone();
    (no_anchors.packets.iter_mut())
        .filter(|p| p.ftype.is_anchor())
        .for_each(lose);
    let opts = ResilienceOptions {
        nns_failure_rate: 0.25,
        seed: 0xfa17,
    };

    let seg = |ps| {
        model
            .run::<SegTask>(&seq, RunInput::Resilient(ps, &opts), None)
            .unwrap()
    };
    let det = |ps| {
        model
            .run::<DetTask>(&seq, RunInput::Resilient(ps, &opts), None)
            .unwrap()
    };
    let featprop = |ps| {
        model
            .run::<FeatPropTask>(&seq, RunInput::Resilient(ps, &opts), None)
            .unwrap()
    };

    let c = seg(&mixed).concealment;
    assert!(
        c.b_copied > 0 && c.b_salvaged > 0 && c.nns_failures > 0,
        "{c}"
    );
    assert!(c.anchors_substituted > 0, "{c}");
    assert_eq!((c.anchors_lost, c.nnl_reinferences), (1, 1), "{c}");
    let c = seg(&no_anchors).concealment;
    assert!(c.anchors_lost > 1 && c.nnl_reinferences > 1, "{c}");

    let digests = [
        run_digest(&seg(&mixed)),
        run_digest(&det(&mixed)),
        run_digest(&featprop(&mixed)),
        run_digest(&seg(&no_anchors)),
        run_digest(&det(&no_anchors)),
        run_digest(&featprop(&no_anchors)),
    ];
    assert_eq!(
        digests,
        [
            0x3e24_4b16_ec21_9ee6,
            0x3135_b326_4c99_1634,
            0xea8e_e4a2_e519_5aa6,
            0x173e_0442_780e_3712,
            0x363a_2879_b2ef_cad5,
            0xb553_ef8d_3aeb_8220,
        ],
        "concealed outputs moved: {digests:#018x?}"
    );
}
