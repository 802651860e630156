//! Int8 tolerance regression (ISSUE 6 acceptance): on the quick suites the
//! quantized compute path must track the pinned f32 reference within 0.005
//! J-mean (DAVIS-like segmentation, the fig. 13 suite) and 0.005 detection
//! mAP (VID-like suite, the fig. 11 configuration), while putting the
//! byte-identical workload trace on the simulated NPU.

use std::sync::OnceLock;
use vr_dann::{ComputeMode, DetTask, DetectionRun, RunInput, VrDann};
use vrd_bench::{Context, Scale};
use vrd_metrics::{average_precision, FrameDetections};
use vrd_video::Sequence;

const TOLERANCE: f64 = 0.005;

/// The quick-scale context both tests share, trained once.
fn quick() -> &'static Context {
    static QUICK: OnceLock<Context> = OnceLock::new();
    QUICK.get_or_init(|| Context::new(Scale::Quick))
}

#[test]
fn int8_segmentation_j_mean_within_tolerance() {
    let ctx = quick();
    let int8 = ctx.model.clone().with_compute(ComputeMode::Int8);
    let (mut j_f32, mut j_int8) = (0.0f64, 0.0f64);
    for seq in &ctx.davis {
        // One encode feeds both paths: the decoder-side work is
        // mode-independent, only NN-S's arithmetic changes.
        let encoded = ctx.model.encode(seq).expect("suite sequences encode");
        let run_f32 = ctx
            .model
            .run_segmentation(seq, &encoded)
            .expect("f32 segmentation runs");
        let run_int8 = int8
            .run_segmentation(seq, &encoded)
            .expect("int8 segmentation runs");
        assert_eq!(
            run_f32.trace, run_int8.trace,
            "the NPU workload trace must be compute-mode-invariant"
        );
        j_f32 += ctx.score(seq, &run_f32.masks).iou;
        j_int8 += ctx.score(seq, &run_int8.masks).iou;
    }
    let n = ctx.davis.len() as f64;
    let (j_f32, j_int8) = (j_f32 / n, j_int8 / n);
    assert!(
        (j_f32 - j_int8).abs() <= TOLERANCE,
        "int8 J-mean {j_int8:.4} drifted more than {TOLERANCE} from f32 {j_f32:.4}"
    );
}

fn ap_of(run: &DetectionRun, seq: &Sequence) -> f64 {
    let frames: Vec<FrameDetections> = run
        .detections
        .iter()
        .zip(&seq.gt_boxes)
        .map(|(dets, gts)| FrameDetections {
            detections: dets.clone(),
            ground_truth: gts.clone(),
        })
        .collect();
    average_precision(&frames)
}

#[test]
fn int8_detection_map_within_tolerance() {
    let ctx = quick();
    let det_f32 = ctx.detection_model();
    let det_int8 = det_f32.clone().with_compute(ComputeMode::Int8);
    let suite = ctx.vid_suite();
    let map_of = |model: &VrDann, encoded: &[vrd_codec::EncodedVideo]| -> f64 {
        let sum: f64 = suite
            .iter()
            .zip(encoded)
            .map(|(seq, enc)| {
                let run = model
                    .run::<DetTask>(seq, RunInput::Strict(enc), None)
                    .expect("detection runs");
                ap_of(&run.into(), seq)
            })
            .sum();
        sum / suite.len() as f64
    };
    let encoded: Vec<vrd_codec::EncodedVideo> = suite
        .iter()
        .map(|seq| det_f32.encode(seq).expect("suite sequences encode"))
        .collect();
    let map_f32 = map_of(&det_f32, &encoded);
    let map_int8 = map_of(&det_int8, &encoded);
    assert!(
        (map_f32 - map_int8).abs() <= TOLERANCE,
        "int8 mAP {map_int8:.4} drifted more than {TOLERANCE} from f32 {map_f32:.4}"
    );
}
