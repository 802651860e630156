//! Bounded-memory regression: the streaming engine must never materialise
//! a whole video. The accounting hook (`peak_live_frames`) counts decoded
//! pixel frames alive at once inside the frame source; on a long sequence
//! it has to stay within a small multiple of one GOP.

use vr_dann::baselines::run_favos;
use vr_dann::{
    FeatPropTask, PipelineOptions, ResilienceOptions, RunInput, SegTask, TrainTask, VrDann,
    VrDannConfig,
};
use vrd_codec::{inject, packetize, FaultConfig, FaultKind};
use vrd_runtime::with_thread_budget;
use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};

#[test]
fn engine_memory_stays_within_gop_window_on_long_sequences() {
    let cfg = SuiteConfig::tiny();
    let train = davis_train_suite(&cfg, 2);
    let model = VrDann::train(
        &train,
        TrainTask::Segmentation,
        VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        },
    )
    .unwrap();

    // 200 frames — over twelve GOPs at the default gop_len of 16.
    let long_cfg = SuiteConfig {
        frames: 200,
        ..SuiteConfig::tiny()
    };
    let seq = davis_sequence("cows", &long_cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let run = model.run_segmentation(&seq, &encoded).unwrap();
    assert_eq!(run.masks.len(), seq.len());

    let gop = model.config().codec.gop_len;
    assert!(
        run.peak_live_frames <= 2 * gop,
        "streaming engine held {} live frames, above the 2xGOP bound of {}",
        run.peak_live_frames,
        2 * gop
    );
    assert!(
        run.peak_live_frames < seq.len(),
        "engine materialised the whole {}-frame video",
        seq.len()
    );

    // The full-decode baselines, by contrast, hold every frame.
    let favos = run_favos(&seq, &encoded, 1);
    assert_eq!(favos.peak_live_frames, seq.len());
}

#[test]
fn featprop_feature_window_stays_bounded() {
    let cfg = SuiteConfig::tiny();
    let train = davis_train_suite(&cfg, 2);
    let model = VrDann::train(
        &train,
        TrainTask::Segmentation,
        VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        },
    )
    .unwrap();

    let long_cfg = SuiteConfig {
        frames: 200,
        ..SuiteConfig::tiny()
    };
    let seq = davis_sequence("cows", &long_cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();
    let run = model
        .run::<FeatPropTask>(&seq, RunInput::Strict(&encoded), None)
        .unwrap();
    assert_eq!(run.outputs.len(), seq.len());

    // Cached backbone feature maps are evicted with the reference-mask
    // window, so their high-water mark obeys the same 2xGOP bound the
    // pixel frames do — a 200-frame video never holds 200 feature maps.
    let gop = model.config().codec.gop_len;
    assert!(
        run.peak_live_features > 0,
        "feature propagation cached no features"
    );
    assert!(
        run.peak_live_features <= 2 * gop,
        "feature window held {} maps, above the 2xGOP bound of {}",
        run.peak_live_features,
        2 * gop
    );
    assert!(run.peak_live_features < seq.len());
    // And the pixel-frame window discipline is unchanged.
    assert!(
        run.peak_live_frames <= 2 * gop,
        "streaming engine held {} live frames, above the 2xGOP bound of {}",
        run.peak_live_frames,
        2 * gop
    );
}

#[test]
fn concealing_engine_memory_stays_bounded_under_anchor_loss() {
    let cfg = SuiteConfig::tiny();
    let train = davis_train_suite(&cfg, 2);
    let model = VrDann::train(
        &train,
        TrainTask::Segmentation,
        VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        },
    )
    .unwrap();

    let long_cfg = SuiteConfig {
        frames: 200,
        ..SuiteConfig::tiny()
    };
    let seq = davis_sequence("cows", &long_cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();

    // Drop whole frames — anchors included — so the concealing policy's
    // anchor-substitution path runs, not just B-payload salvage.
    let stream = packetize(&encoded.bitstream).unwrap();
    let faults = FaultConfig {
        seed: 0xbad_a2c4,
        rate: 0.3,
        kinds: vec![FaultKind::DropFrame],
        b_frames_only: false,
        protect_first_i: true,
    };
    let (damaged, log) = inject(&stream, &faults);
    assert!(!log.events.is_empty(), "no faults planted at 30% rate");

    let run = model
        .run::<SegTask>(
            &seq,
            RunInput::Resilient(&damaged, &ResilienceOptions::default()),
            None,
        )
        .unwrap();
    assert_eq!(run.outputs.len(), seq.len());
    assert!(
        run.concealment.anchors_lost > 0,
        "fault plan lost no anchors; the substitution path never ran"
    );

    // Same bound as the strict engine: concealment may re-infer and
    // substitute anchors, but it must not grow the live-frame window.
    let gop = model.config().codec.gop_len;
    assert!(
        run.peak_live_frames <= 2 * gop,
        "concealing engine held {} live frames, above the 2xGOP bound of {}",
        run.peak_live_frames,
        2 * gop
    );
    assert!(run.peak_live_frames < seq.len());
}

#[test]
fn pipelined_engine_memory_stays_bounded_under_anchor_loss() {
    let cfg = SuiteConfig::tiny();
    let train = davis_train_suite(&cfg, 2);
    let model = VrDann::train(
        &train,
        TrainTask::Segmentation,
        VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        },
    )
    .unwrap();

    let long_cfg = SuiteConfig {
        frames: 200,
        ..SuiteConfig::tiny()
    };
    let seq = davis_sequence("cows", &long_cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();

    let stream = packetize(&encoded.bitstream).unwrap();
    let faults = FaultConfig {
        seed: 0xbad_a2c4,
        rate: 0.3,
        kinds: vec![FaultKind::DropFrame],
        b_frames_only: false,
        protect_first_i: true,
    };
    let (damaged, log) = inject(&stream, &faults);
    assert!(!log.events.is_empty(), "no faults planted at 30% rate");

    let gop = model.config().codec.gop_len;
    for threads in [2, 8] {
        let run = with_thread_budget(threads, || {
            model.run::<SegTask>(
                &seq,
                RunInput::Resilient(&damaged, &ResilienceOptions::default()),
                Some(&PipelineOptions),
            )
        })
        .unwrap();
        assert_eq!(run.outputs.len(), seq.len());
        assert!(run.concealment.anchors_lost > 0, "no anchors lost");

        // The pipelined executor adds one new place decoded frames can
        // live: the stage channel between the lanes. The source window
        // plus everything in flight must still fit the 2xGOP bound — the
        // decode lane is never allowed to run ahead without limit.
        assert!(
            run.peak_inflight_units > 0,
            "decode lane never ran ahead; the pipeline did not overlap"
        );
        assert!(
            run.peak_live_frames + run.peak_inflight_units <= 2 * gop,
            "pipelined engine held {} live frames + {} in-flight units, \
             above the 2xGOP bound of {}",
            run.peak_live_frames,
            run.peak_inflight_units,
            2 * gop
        );
        assert!(run.peak_live_frames < seq.len());
    }

    // The strict pipelined driver obeys the same bound on a clean stream.
    let clean = model
        .run_segmentation_pipelined(&seq, &encoded, &PipelineOptions)
        .unwrap();
    assert!(
        clean.peak_live_frames + clean.peak_inflight_units <= 2 * gop,
        "strict pipelined run held {} + {} frames, above {}",
        clean.peak_live_frames,
        clean.peak_inflight_units,
        2 * gop
    );
}
