//! End-to-end feature-space propagation (the Jain & Gonzalez baseline):
//! staged NN-L on I/P anchors, warped backbone features + head-only
//! inference on B-frames, all through the shared streaming engine.

use vr_dann::{ComputeKind, FeatPropTask, RunInput, SchemeKind, TrainTask, VrDann, VrDannConfig};
use vrd_codec::FrameType;
use vrd_metrics::score_sequence;
use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};

fn tiny_model() -> VrDann {
    let cfg = SuiteConfig::tiny();
    let train = davis_train_suite(&cfg, 2);
    VrDann::train(
        &train,
        TrainTask::Segmentation,
        VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn feature_propagation_runs_end_to_end() {
    let model = tiny_model();
    let seq = davis_sequence("cows", &SuiteConfig::tiny()).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let run = model
        .run::<FeatPropTask>(&seq, RunInput::Strict(&encoded), None)
        .unwrap();

    assert_eq!(run.outputs.len(), seq.len());
    assert_eq!(run.trace.scheme, SchemeKind::FeatProp);
    assert_eq!(run.trace.frames.len(), seq.len());

    // Every B-frame is billed as head-only inference on warped features;
    // anchors are full NN-L passes. No NN-S, no flow, no model switches.
    let nnl_ops = run
        .trace
        .frames
        .iter()
        .find_map(|f| match f.kind {
            ComputeKind::NnL { ops } => Some(ops),
            _ => None,
        })
        .expect("no anchor NN-L pass in the trace");
    let mut b_frames = 0;
    for f in &run.trace.frames {
        match (&f.ftype, &f.kind) {
            (FrameType::B, ComputeKind::FeatHead { ops, .. }) => {
                b_frames += 1;
                assert!(
                    *ops < nnl_ops / 2,
                    "head-only pass ({ops} ops) should be a fraction of NN-L ({nnl_ops})"
                );
                assert!(!f.full_decode, "propagation must not decode B-frame pixels");
            }
            (FrameType::B, k) => panic!("B-frame billed as {k:?}, expected FeatHead"),
            (_, ComputeKind::NnL { .. }) => {}
            (t, k) => panic!("anchor {t:?} billed as {k:?}"),
        }
    }
    assert!(b_frames > 0, "sequence produced no B-frames");

    // Warped-feature masks track the ground truth well enough to sit in
    // the published baseline band (well below FAVOS, well above garbage).
    let s = score_sequence(&run.outputs, &seq.gt_masks);
    assert!(s.iou > 0.5, "feature propagation IoU collapsed: {}", s.iou);
}

#[test]
fn featprop_anchors_match_vrdann_bit_exactly() {
    // Same seed lanes + staged forward == fused segment means the anchor
    // masks are bit-identical to VR-DANN's: the baseline comparison then
    // isolates the propagation method, not anchor noise.
    let model = tiny_model();
    let seq = davis_sequence("camel", &SuiteConfig::tiny()).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let fp = model
        .run::<FeatPropTask>(&seq, RunInput::Strict(&encoded), None)
        .unwrap();
    let vr = model.run_segmentation(&seq, &encoded).unwrap();

    let mut anchors = 0;
    for (i, f) in fp.trace.frames.iter().enumerate() {
        if matches!(f.kind, ComputeKind::NnL { .. }) {
            anchors += 1;
            let d = f.display as usize;
            assert_eq!(
                fp.outputs[d].words(),
                vr.masks[d].words(),
                "anchor {i} (display {d}) diverged from VR-DANN"
            );
        }
    }
    assert!(anchors > 1, "trace had fewer than two anchors");
}

#[test]
fn from_parts_model_stages_and_propagates() {
    // Satellite check: the serialized model format is unchanged — NN-S
    // bytes written before the staged-forward refactor still load, and the
    // redeployed model drives feature propagation identically.
    let model = tiny_model();
    let bytes = model.export_nns();
    let restored = VrDann::from_parts(*model.config(), &bytes).unwrap();

    let seq = davis_sequence("cows", &SuiteConfig::tiny()).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let a = model
        .run::<FeatPropTask>(&seq, RunInput::Strict(&encoded), None)
        .unwrap();
    let b = restored
        .run::<FeatPropTask>(&seq, RunInput::Strict(&encoded), None)
        .unwrap();
    assert_eq!(a.outputs.len(), b.outputs.len());
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(x.words(), y.words());
    }
}
