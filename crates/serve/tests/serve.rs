//! End-to-end serving-layer tests: real model, real DAVIS-like streams,
//! the full admit → drive → schedule → report path.

use vr_dann::{ComputeMode, TrainTask, VrDann, VrDannConfig};
use vrd_codec::EncodedVideo;
use vrd_serve::{serve, SchedPolicy, ServeConfig, SessionDemand, SessionState, SloConfig};
use vrd_sim::SimConfig;
use vrd_video::davis::{davis_train_suite, davis_val_suite, SuiteConfig};
use vrd_video::Sequence;

fn tiny_setup() -> (VrDann, Vec<Sequence>, Vec<EncodedVideo>) {
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
    let seqs = davis_val_suite(&cfg);
    let encoded: Vec<EncodedVideo> = seqs.iter().map(|s| model.encode(s).unwrap()).collect();
    (model, seqs, encoded)
}

#[test]
fn serving_window_end_to_end() {
    let (model, seqs, encoded) = tiny_setup();
    let requests: Vec<_> = seqs.iter().zip(encoded.iter()).collect();
    let cfg = ServeConfig::default();
    let report = serve(&model, &requests, &cfg).unwrap();

    assert_eq!(report.sessions.len(), requests.len());
    assert_eq!(report.admitted + report.rejected, requests.len());
    assert!(
        report.admitted >= 4,
        "expected at least 4 admitted sessions, got {}",
        report.admitted
    );

    // Drained sessions recognised every frame; rejected ones ran nothing.
    let mut expected_frames = 0usize;
    for (r, (seq, _)) in requests.iter().enumerate() {
        let s = &report.sessions[r];
        match s.state {
            SessionState::Drained => {
                assert_eq!(s.frames, seq.len(), "session {} incomplete", s.name);
                assert!(s.reject.is_none() && s.projection.is_some());
                assert!(s.peak_live_frames > 0 && s.peak_live_frames < seq.len());
                assert!(s.isolated_ns > 0.0);
                expected_frames += s.frames;
            }
            SessionState::Rejected => {
                assert_eq!(s.frames, 0);
                assert!(s.reject.is_some() && s.projection.is_none());
            }
        }
    }
    for out in [&report.fifo, &report.batched] {
        assert_eq!(out.frames_full, expected_frames);
        assert_eq!(out.frames_delivered(), out.frames_offered);
        assert_eq!(out.frames_shed, 0);
        assert_eq!(out.per_session.len(), report.admitted);
        assert!(out.latency.p99_ns >= out.latency.p50_ns);
        assert!(out.utilization() > 0.0 && out.utilization() <= 1.0);
    }
    assert_eq!(report.fifo.policy, SchedPolicy::Fifo);
    assert_eq!(report.batched.policy, SchedPolicy::Batch);

    // The tentpole claim: with ≥4 concurrent sessions, cross-session
    // batching strictly beats per-stream FIFO on switches and p99.
    assert!(
        report.batched.switches < report.fifo.switches,
        "batching saved no switches: {} vs {}",
        report.batched.switches,
        report.fifo.switches
    );
    assert!(report.switches_saved() > 0);
    assert!(
        report.batched.latency.p99_ns < report.fifo.latency.p99_ns,
        "batching did not cut p99: {:.0} vs {:.0}",
        report.batched.latency.p99_ns,
        report.fifo.latency.p99_ns
    );
}

#[test]
fn serving_is_deterministic() {
    let (model, seqs, encoded) = tiny_setup();
    let requests: Vec<_> = seqs.iter().zip(encoded.iter()).collect();
    let cfg = ServeConfig::default();
    let a = serve(&model, &requests, &cfg).unwrap();
    let b = serve(&model, &requests, &cfg).unwrap();
    assert_eq!(a, b);

    // Thread count must not change the outcome, only wall time.
    let single = serve(
        &model,
        &requests,
        &ServeConfig {
            threads: Some(1),
            ..cfg
        },
    )
    .unwrap();
    assert_eq!(a, single);
}

#[test]
fn single_session_has_no_batching_advantage() {
    let (model, seqs, encoded) = tiny_setup();
    let requests = vec![(&seqs[0], &encoded[0])];
    let report = serve(&model, &requests, &ServeConfig::default()).unwrap();
    assert_eq!(report.admitted, 1);
    // One stream leaves nothing to batch across sessions.
    assert_eq!(report.batched.switches, report.fifo.switches);
    assert_eq!(report.switches_saved(), 0);
}

#[test]
fn tight_slo_rejects_excess_sessions() {
    let (model, seqs, encoded) = tiny_setup();
    let requests: Vec<_> = seqs.iter().zip(encoded.iter()).collect();
    let cfg = ServeConfig {
        slo: SloConfig {
            target_p99_ns: 2.5e6,
            max_utilization: 0.9,
        },
        ..ServeConfig::default()
    };
    let report = serve(&model, &requests, &cfg).unwrap();
    assert!(report.rejected > 0, "tight SLO rejected nothing");
    assert!(report.admitted >= 1, "tight SLO admitted nothing");
    // Tightening the SLO can only shrink the admitted set.
    let loose = serve(&model, &requests, &ServeConfig::default()).unwrap();
    assert!(report.admitted <= loose.admitted);
    assert!(report.projected_utilization < cfg.slo.max_utilization);
}

#[test]
fn int8_estimate_equals_the_restamped_f32_estimate() {
    // Demand is work, not time: estimating a stream with an int8 model and
    // restamping its f32 estimate to int8 are the same demand, so admission
    // and the fleet cannot bill one stream two ways — whatever the modelled
    // int8 ratio, power of two or not.
    let (model, seqs, encoded) = tiny_setup();
    let int8_model = model.clone().with_compute(ComputeMode::Int8);
    for k in [4.0, 3.0, 1.19] {
        let mut sim = SimConfig::default();
        sim.npu.int8_speedup = k;
        for (seq, enc) in seqs.iter().zip(&encoded) {
            let estimated = SessionDemand::estimate(&int8_model, seq, enc, 1e6);
            let restamped = SessionDemand {
                compute: ComputeMode::Int8,
                ..SessionDemand::estimate(&model, seq, enc, 1e6)
            };
            assert_eq!(estimated, restamped);
            assert_eq!(
                estimated.nns_ns(&sim).to_bits(),
                restamped.nns_ns(&sim).to_bits()
            );
            assert_eq!(
                estimated.compute_utilization(&sim).to_bits(),
                restamped.compute_utilization(&sim).to_bits()
            );
            // And it is int8 that is cheaper, on NN-S only.
            let f32_demand = SessionDemand::estimate(&model, seq, enc, 1e6);
            assert!(estimated.nns_ns(&sim) < f32_demand.nns_ns(&sim));
            assert_eq!(estimated.nnl_ns(&sim), f32_demand.nnl_ns(&sim));
        }
    }
}
