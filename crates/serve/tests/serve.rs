//! End-to-end serving-layer tests: real model, real DAVIS-like streams,
//! the full admit → drive → schedule → report path.

use std::sync::mpsc;
use std::time::Duration;
use vr_dann::{ComputeMode, TrainTask, VrDann, VrDannConfig};
use vrd_codec::EncodedVideo;
use vrd_serve::{
    admit_and_drive, drive_template, generate, run_fleet, schedule, serve, ChaosConfig, Envelope,
    FleetConfig, LoadGenConfig, NpuFaultProfile, RecoveryConfig, Result, SchedConfig, SchedPolicy,
    ServeConfig, ServeError, SessionDemand, SessionState, SloConfig, StreamEntry,
};
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
    let single = vrd_runtime::with_thread_budget(1, || serve(&model, &requests, &cfg)).unwrap();
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
        },
        ..ServeConfig::default()
    };
    let report = serve(&model, &requests, &cfg).unwrap();
    assert!(report.rejected > 0, "tight SLO rejected nothing");
    assert!(report.admitted >= 1, "tight SLO admitted nothing");
    // Tightening the SLO can only shrink the admitted set.
    let loose = serve(&model, &requests, &ServeConfig::default()).unwrap();
    assert!(report.admitted <= loose.admitted);
    // Admission's utilisation ceiling.
    assert!(report.projected_utilization < 0.9);
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

fn spoilt(spoil: fn(&mut SimConfig)) -> SimConfig {
    let mut sim = SimConfig::default();
    spoil(&mut sim);
    sim
}

/// One degenerate value of each settable field, with the field it must be
/// rejected by. The first three once replayed to `Ok` with every frame
/// delivered and an infinite or NaN makespan.
fn spoilt_sims() -> Vec<(SimConfig, &'static str)> {
    vec![
        (spoilt(|s| s.npu.utilization = 0.0), "npu.utilization"),
        (spoilt(|s| s.npu.utilization = f64::NAN), "npu.utilization"),
        (spoilt(|s| s.npu.int8_speedup = 0.0), "npu.int8_speedup"),
        (spoilt(|s| s.npu.utilization = 1.5), "npu.utilization"),
        (
            spoilt(|s| s.npu.peak_ops_per_s = f64::INFINITY),
            "npu.peak_ops_per_s",
        ),
        (
            spoilt(|s| s.npu.kernel_swap_ns = -1.0),
            "npu.kernel_swap_ns",
        ),
        (spoilt(|s| s.decoder.freq_hz = -3e8), "decoder.freq_hz"),
        (
            spoilt(|s| s.decoder.cycles_per_pixel_full = 0.0),
            "decoder.cycles_per_pixel_full",
        ),
        (spoilt(|s| s.dram.burst_ns = f64::NAN), "dram.burst_ns"),
    ]
}

/// The error a refused input must produce: [`ServeError::Refused`] naming
/// the field.
fn assert_rejected<T: std::fmt::Debug>(got: Result<T>, field: &str) {
    match got {
        Err(ServeError::Refused { detail }) => {
            assert!(detail.contains(field), "{field}: {detail}");
        }
        other => panic!("{field}: billed {other:?}"),
    }
}

#[test]
fn schedule_rejects_a_degenerate_cost_model() {
    let (model, seqs, encoded) = tiny_setup();
    let requests: Vec<_> = seqs.iter().zip(&encoded).collect();
    let (_, sessions, _) = admit_and_drive(&model, &requests, &ServeConfig::default()).unwrap();
    let cfg = SchedConfig::default();
    for (sim, field) in spoilt_sims() {
        for policy in [SchedPolicy::Fifo, SchedPolicy::Batch] {
            assert_rejected(schedule(&sessions, policy, &cfg, &sim, None), field);
        }
    }
    // A free kernel swap and full utilisation are legal edges.
    let edge = spoilt(|s| {
        s.npu.kernel_swap_ns = 0.0;
        s.npu.utilization = 1.0;
    });
    let out = schedule(&sessions, SchedPolicy::Batch, &cfg, &edge, None).unwrap();
    assert!(out.makespan_ns.is_finite() && out.frames_delivered() == out.frames_offered);
}

#[test]
fn serve_rejects_a_degenerate_cost_model_before_driving() {
    let (model, seqs, encoded) = tiny_setup();
    let requests: Vec<_> = seqs.iter().zip(&encoded).collect();
    for (sim, field) in spoilt_sims() {
        let cfg = ServeConfig {
            sim,
            ..ServeConfig::default()
        };
        assert_rejected(serve(&model, &requests, &cfg), field);
    }
}

#[test]
fn run_fleet_rejects_a_degenerate_cost_model_before_placing() {
    let (model, seqs, encoded) = tiny_setup();
    let library: Vec<StreamEntry> = seqs
        .iter()
        .zip(&encoded)
        .map(|(seq, enc)| StreamEntry {
            template: drive_template(&model, seq, enc, &SimConfig::default()).unwrap(),
            demand: SessionDemand::estimate(&model, seq, enc, 1e6),
        })
        .collect();
    let trace = generate(&LoadGenConfig::default()).unwrap();
    for (sim, field) in spoilt_sims() {
        let cfg = FleetConfig {
            sim,
            ..FleetConfig::default()
        };
        assert_rejected(run_fleet(&trace, &library, &cfg), field);
    }
    let no_library = run_fleet(&trace, &[], &FleetConfig::default());
    assert_rejected(no_library, "empty stream library");
}

#[test]
fn schedule_rejects_a_stall_that_bills_negative_or_nan_time() {
    let (model, seqs, encoded) = tiny_setup();
    let requests: Vec<_> = seqs.iter().zip(&encoded).collect();
    let (_, sessions, _) = admit_and_drive(&model, &requests, &ServeConfig::default()).unwrap();
    let (cfg, sim) = (SchedConfig::default(), SimConfig::default());
    let stalling = |stall_ns| ChaosConfig {
        faults: NpuFaultProfile::stalls(1.0, stall_ns, 1),
        recovery: RecoveryConfig::default(),
    };
    // The first two once replayed to `Ok` with a negative makespan and a
    // NaN one.
    for stall_ns in [-5e7, f64::NAN, f64::INFINITY, -0.5] {
        for policy in [SchedPolicy::Fifo, SchedPolicy::Batch] {
            let got = schedule(&sessions, policy, &cfg, &sim, Some(&stalling(stall_ns)));
            assert_rejected(got, "stall_ns");
        }
    }
    // A stall that costs nothing is a legal edge.
    let out = schedule(
        &sessions,
        SchedPolicy::Batch,
        &cfg,
        &sim,
        Some(&stalling(0.0)),
    )
    .unwrap();
    assert!(out.stalls > 0 && out.stall_ns == 0.0);
    assert!(out.makespan_ns.is_finite() && out.frames_delivered() == out.frames_offered);
}

/// `generate` on `cfg`, on its own thread: `None` when it has not
/// returned within five seconds.
fn generate_within_5s(cfg: LoadGenConfig) -> Option<Result<usize>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(generate(&cfg).map(|t| t.arrivals.len()));
    });
    rx.recv_timeout(Duration::from_secs(5)).ok()
}

#[test]
fn generate_rejects_a_load_that_never_keeps_an_arrival() {
    let base = LoadGenConfig::default();
    let bursty = |duty, quiet_level| Envelope::Bursty {
        period_frac: 0.25,
        duty,
        quiet_level,
    };
    // Each of these once never returned (the finite spike within five
    // seconds, at least), except the NaN mean gap, which returned arrivals
    // at NaN instants.
    for (cfg, field) in [
        (
            LoadGenConfig {
                envelope: bursty(0.0, 0.0),
                ..base
            },
            "bursty envelope keeps no arrival",
        ),
        (
            LoadGenConfig {
                mean_interarrival_ns: f64::INFINITY,
                envelope: Envelope::Diurnal { trough_level: 0.3 },
                ..base
            },
            "mean_interarrival_ns",
        ),
        (
            LoadGenConfig {
                mean_interarrival_ns: f64::NAN,
                ..base
            },
            "mean_interarrival_ns",
        ),
        (
            LoadGenConfig {
                horizon_ns: f64::INFINITY,
                envelope: Envelope::Diurnal { trough_level: 0.0 },
                ..base
            },
            "candidates kept",
        ),
        (
            LoadGenConfig {
                envelope: Envelope::Spike {
                    factor: f64::INFINITY,
                    start_frac: 0.25,
                    end_frac: 0.5,
                },
                ..base
            },
            "candidates kept",
        ),
        (
            LoadGenConfig {
                envelope: Envelope::Spike {
                    factor: 1e12,
                    start_frac: 0.35,
                    end_frac: 0.65,
                },
                ..base
            },
            "candidates kept",
        ),
        (
            LoadGenConfig {
                envelope: Envelope::Diurnal {
                    trough_level: f64::NAN,
                },
                ..base
            },
            "candidates kept",
        ),
    ] {
        match generate_within_5s(cfg) {
            Some(got) => assert_rejected(got, field),
            None => panic!("{field}: generate did not return within 5 s"),
        }
    }
    // A quiet floor alone, or a trough that touches zero, still keeps
    // arrivals.
    for envelope in [bursty(0.0, 0.25), Envelope::Diurnal { trough_level: 0.0 }] {
        let cfg = LoadGenConfig { envelope, ..base };
        let got = generate_within_5s(cfg).expect("generate returned within 5 s");
        assert_eq!(got.unwrap(), base.sessions);
    }
}
