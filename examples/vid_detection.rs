//! Video object detection on the VID-like suite — the paper's surveillance
//! workload (§III-B, Fig. 11).
//!
//! ```text
//! cargo run --release --example vid_detection
//! ```
//!
//! Runs SELSA, Euphrates-2/-4 and VR-DANN on multi-object sequences across
//! the three speed groups, reporting per-sequence average precision and the
//! simulated time of each scheme.

use std::num::NonZeroUsize;
use vr_dann::baselines::{run_euphrates, run_selsa};
use vr_dann::{DetTask, DetectionRun, RunInput, TrainTask, VrDann, VrDannConfig};
use vrd_metrics::{average_precision, FrameDetections};
use vrd_sim::{simulate, ExecMode, ParallelOptions, SimConfig};
use vrd_video::davis::SuiteConfig;
use vrd_video::vid::vid_val_suite;
use vrd_video::Sequence;

fn ap(run: &DetectionRun, seq: &Sequence) -> f64 {
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SuiteConfig::default();
    eprintln!("training NN-S for detection (rectangle masks) ...");
    let train_cfg = SuiteConfig {
        seed: cfg.seed ^ 0xdead,
        ..cfg
    };
    let model = VrDann::train(
        &vid_val_suite(&train_cfg, 2),
        TrainTask::Detection,
        VrDannConfig::default(),
    )?;

    let suite = vid_val_suite(&cfg, 2);
    let sim = SimConfig::default();
    println!(
        "{:<16} {:>7} | {:>9} {:>9} {:>9} {:>9} | {:>12}",
        "sequence", "objects", "SELSA", "Euphr-2", "Euphr-4", "VR-DANN", "vs Euphr-2"
    );
    for seq in &suite {
        let encoded = model.encode(seq)?;
        let vr: DetectionRun = model
            .run::<DetTask>(seq, RunInput::Strict(&encoded), None)?
            .into();
        let selsa = run_selsa(seq, &encoded, 2);
        let e2 = run_euphrates(seq, &encoded, NonZeroUsize::new(2).unwrap(), 2);
        let e4 = run_euphrates(seq, &encoded, NonZeroUsize::new(4).unwrap(), 2);

        let r_e2 = simulate(&e2.trace, ExecMode::InOrder, &sim);
        let r_vr = simulate(
            &vr.trace,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &sim,
        );
        println!(
            "{:<16} {:>7} | {:>9.3} {:>9.3} {:>9.3} {:>9.3} | {:>11.2}x",
            seq.name,
            seq.gt_boxes[0].len(),
            ap(&selsa, seq),
            ap(&e2, seq),
            ap(&e4, seq),
            ap(&vr, seq),
            r_vr.speedup_vs(&r_e2),
        );
    }
    Ok(())
}
