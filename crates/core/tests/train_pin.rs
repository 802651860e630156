//! `VrDann::train` pinned by value: the serialised NN-S (weights, biases
//! and the calibration trailer) a tiny training run produces must not move
//! by a bit, for either task. Every committed result file runs a freshly
//! trained NN-S, so this is the cheapest place to see a training change.
//! The constants were recorded at commit `c4ee60e`.

use vr_dann::{TrainTask, VrDann, VrDannConfig};
use vrd_video::davis::{davis_train_suite, SuiteConfig};

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn trained_model_bytes_are_pinned_for_both_tasks() {
    let train = davis_train_suite(&SuiteConfig::tiny(), 2);
    for (task, digest) in [
        (TrainTask::Segmentation, 0x33f3_e703_d7d8_a856u64),
        (TrainTask::Detection, 0xfbb0_ec32_b876_4dbc),
    ] {
        let model = VrDann::train(&train, task, VrDannConfig::default()).unwrap();
        assert_eq!(
            fnv1a(&model.export_nns()),
            digest,
            "{task:?}: the trained NN-S moved"
        );
    }
}
