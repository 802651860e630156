//! Cross-crate integration: the complete VR-DANN stack from scene synthesis
//! through codec, recognition, metrics and the architecture simulator.

use std::num::NonZeroUsize;
use vr_dann::baselines::{run_dff, run_euphrates, run_favos, run_osvos, run_selsa};
use vr_dann::{ComputeKind, DetTask, DetectionRun, RunInput, TrainTask, VrDann, VrDannConfig};
use vrd_metrics::{average_precision, score_sequence, FrameDetections};
use vrd_sim::{simulate, ExecMode, ParallelOptions, SimConfig};
use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};
use vrd_video::vid::vid_val_suite;

fn trained_model(task: TrainTask) -> (VrDann, SuiteConfig) {
    let cfg = SuiteConfig::tiny();
    let train = match task {
        TrainTask::Segmentation => davis_train_suite(&cfg, 2),
        TrainTask::Detection => vid_val_suite(
            &SuiteConfig {
                seed: cfg.seed ^ 1,
                ..cfg
            },
            1,
        ),
    };
    let model = VrDann::train(
        &train,
        task,
        VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        },
    )
    .expect("training succeeds");
    (model, cfg)
}

#[test]
fn segmentation_stack_end_to_end() {
    let (model, cfg) = trained_model(TrainTask::Segmentation);
    let seq = davis_sequence("cows", &cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let vr = model.run_segmentation(&seq, &encoded).unwrap();

    // Accuracy: clearly better than predicting nothing.
    let scores = score_sequence(&vr.masks, &seq.gt_masks);
    assert!(scores.iou > 0.5, "IoU {:.3}", scores.iou);

    // The trace mirrors the GOP: B-frames refined, anchors through NN-L.
    let b_in_trace = vr
        .trace
        .frames
        .iter()
        .filter(|f| matches!(f.kind, ComputeKind::NnSRefine { .. }))
        .count();
    assert_eq!(b_in_trace, encoded.stats.b_frames);

    // Simulation: parallel is the fastest and FAVOS is slower than both.
    let sim = SimConfig::default();
    let favos = run_favos(&seq, &encoded, 1);
    let r_favos = simulate(&favos.trace, ExecMode::InOrder, &sim);
    let r_serial = simulate(&vr.trace, ExecMode::VrDannSerial, &sim);
    let r_par = simulate(
        &vr.trace,
        ExecMode::VrDannParallel(ParallelOptions::default()),
        &sim,
    );
    assert!(r_par.total_ns <= r_serial.total_ns);
    assert!(r_serial.total_ns < r_favos.total_ns);
    assert!(r_par.energy.total_mj() < r_favos.energy.total_mj());

    // The paper's headline mechanism: B-frame reconstruction is hidden.
    assert!(
        r_par.recon_stall_ns < 0.05 * r_par.total_ns,
        "reconstruction not hidden: {} of {}",
        r_par.recon_stall_ns,
        r_par.total_ns
    );
}

#[test]
fn all_segmentation_schemes_run_on_the_same_bitstream() {
    let (model, cfg) = trained_model(TrainTask::Segmentation);
    let seq = davis_sequence("libby", &cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let vr = model.run_segmentation(&seq, &encoded).unwrap();
    let favos = run_favos(&seq, &encoded, 1);
    let osvos = run_osvos(&seq, &encoded, 1);
    let dff = run_dff(&seq, &encoded, NonZeroUsize::new(5).unwrap(), 1);
    for (name, masks) in [
        ("vrdann", &vr.masks),
        ("favos", &favos.masks),
        ("osvos", &osvos.masks),
        ("dff", &dff.masks),
    ] {
        assert_eq!(masks.len(), seq.len(), "{name} produced wrong length");
        let s = score_sequence(masks, &seq.gt_masks);
        assert!(s.iou > 0.2, "{name} collapsed: {:.3}", s.iou);
    }
}

#[test]
fn detection_stack_end_to_end() {
    let (model, cfg) = trained_model(TrainTask::Detection);
    let suite = vid_val_suite(&cfg, 1);
    for seq in &suite {
        let encoded = model.encode(seq).unwrap();
        let vr: DetectionRun = model
            .run::<DetTask>(seq, RunInput::Strict(&encoded), None)
            .unwrap()
            .into();
        let selsa = run_selsa(seq, &encoded, 2);
        let e2 = run_euphrates(seq, &encoded, NonZeroUsize::new(2).unwrap(), 2);
        let to_frames = |runs: &Vec<Vec<vrd_video::Detection>>| -> Vec<FrameDetections> {
            runs.iter()
                .zip(&seq.gt_boxes)
                .map(|(dets, gts)| FrameDetections {
                    detections: dets.clone(),
                    ground_truth: gts.clone(),
                })
                .collect()
        };
        let ap_vr = average_precision(&to_frames(&vr.detections));
        let ap_selsa = average_precision(&to_frames(&selsa.detections));
        let ap_e2 = average_precision(&to_frames(&e2.detections));
        assert!(ap_selsa > 0.5, "{}: selsa {:.3}", seq.name, ap_selsa);
        assert!(ap_vr > 0.2, "{}: vrdann {:.3}", seq.name, ap_vr);
        assert!(ap_e2 > 0.2, "{}: euphrates {:.3}", seq.name, ap_e2);
    }
}

#[test]
fn codec_sweeps_run_through_the_full_stack() {
    use vrd_codec::{BFrameMode, CodecConfig, SearchInterval, Standard};
    let cfg = SuiteConfig::tiny();
    let train = davis_train_suite(&cfg, 2);
    let seq = davis_sequence("dog", &cfg).unwrap();
    for codec in [
        CodecConfig {
            b_frames: BFrameMode::Fixed(2),
            ..CodecConfig::default()
        },
        CodecConfig {
            search_interval: SearchInterval::Fixed(1),
            ..CodecConfig::default()
        },
        CodecConfig {
            standard: Standard::H264,
            ..CodecConfig::default()
        },
    ] {
        let model = VrDann::train(
            &train,
            TrainTask::Segmentation,
            VrDannConfig {
                codec,
                nns_hidden: 4,
                ..VrDannConfig::default()
            },
        )
        .unwrap();
        let encoded = model.encode(&seq).unwrap();
        let run = model.run_segmentation(&seq, &encoded).unwrap();
        let s = score_sequence(&run.masks, &seq.gt_masks);
        assert!(s.iou > 0.4, "{codec:?} collapsed: {:.3}", s.iou);
    }
}

#[test]
fn pipeline_is_robust_to_lighting_drift() {
    use vrd_video::{Point, Scene, SceneObject, Sequence, Shape, Texture, Trajectory, Vec2};
    // A scene with strong exposure oscillation: pixel values change every
    // frame, but motion-vector propagation of *segmentation* is unaffected
    // because it never touches pixel values.
    let base = Scene::new(
        64,
        48,
        Texture::Blobs {
            lo: 60,
            hi: 170,
            scale: 10.0,
        },
        21,
    )
    .with_object(SceneObject {
        shape: Shape::Ellipse { rx: 9.0, ry: 6.0 },
        trajectory: Trajectory::Bounce {
            start: Point::new(30.0, 24.0),
            vel: Vec2::new(1.2, 0.5),
            w: 64.0,
            h: 48.0,
            margin: 11.0,
        },
        deformation: vrd_video::Deformation::None,
        texture: Texture::Checker {
            a: 220,
            b: 40,
            cell: 3,
        },
        seed: 5,
    });
    let lit = base.clone().with_lighting(0.25, 10.0);
    let seq_plain = Sequence::from_scene("plain", &base, 16);
    let seq_lit = Sequence::from_scene("lit", &lit, 16);

    let (mut model, _) = trained_model(TrainTask::Segmentation);
    let score = |model: &mut VrDann, seq: &vrd_video::Sequence| {
        let encoded = model.encode(seq).unwrap();
        let run = model.run_segmentation(seq, &encoded).unwrap();
        score_sequence(&run.masks, &seq.gt_masks).iou
    };
    let iou_plain = score(&mut model, &seq_plain);
    let iou_lit = score(&mut model, &seq_lit);
    assert!(iou_plain > 0.6, "plain scene collapsed: {iou_plain:.3}");
    assert!(
        iou_lit > iou_plain - 0.08,
        "lighting drift broke the pipeline: {iou_lit:.3} vs {iou_plain:.3}"
    );
}

#[test]
fn pipeline_survives_object_occlusion() {
    use vrd_video::{Point, Scene, SceneObject, Sequence, Shape, Texture, Trajectory, Vec2};
    // Two objects on crossing paths: the smaller one passes behind the
    // larger (paint order = occlusion order). Motion vectors through the
    // crossing are ambiguous; the pipeline must degrade gracefully, not
    // collapse.
    let scene = Scene::new(
        64,
        48,
        Texture::Blobs {
            lo: 60,
            hi: 170,
            scale: 10.0,
        },
        31,
    )
    .with_object(SceneObject {
        // Occludee: moves right, passes behind the occluder mid-sequence.
        shape: Shape::Ellipse { rx: 6.0, ry: 5.0 },
        trajectory: Trajectory::Linear {
            start: Point::new(12.0, 24.0),
            vel: Vec2::new(2.2, 0.0),
        },
        deformation: vrd_video::Deformation::None,
        texture: Texture::Checker {
            a: 230,
            b: 30,
            cell: 2,
        },
        seed: 8,
    })
    .with_object(SceneObject {
        // Occluder: static, drawn on top.
        shape: Shape::Box { hw: 5.0, hh: 9.0 },
        trajectory: Trajectory::Linear {
            start: Point::new(34.0, 24.0),
            vel: Vec2::new(0.0, 0.0),
        },
        deformation: vrd_video::Deformation::None,
        texture: Texture::Stripes {
            a: 210,
            b: 50,
            period: 3,
        },
        seed: 9,
    });
    let seq = Sequence::from_scene("occlusion", &scene, 16);
    // Sanity: the occludee is actually hidden at some point (its union
    // with the occluder shrinks the total mask area mid-sequence).
    let areas: Vec<usize> = seq.gt_masks.iter().map(|m| m.count_ones()).collect();
    let min = *areas.iter().min().unwrap();
    let max = *areas.iter().max().unwrap();
    assert!(min < max, "occlusion should change the visible area");

    let (model, _) = trained_model(TrainTask::Segmentation);
    let encoded = model.encode(&seq).unwrap();
    let run = model.run_segmentation(&seq, &encoded).unwrap();
    let iou = score_sequence(&run.masks, &seq.gt_masks).iou;
    assert!(iou > 0.55, "occlusion collapsed the pipeline: {iou:.3}");
}
