//! Pins what the serving stack and the simulator bill, by value.
//!
//! Every committed artefact exercises `SimConfig::default()` only. These
//! digests (FNV-1a of the `Debug` rendering — Rust prints `f64` round-trip
//! exact) cover the default **and** a configuration that moves four of the
//! seven settable values (NPU peak throughput, kernel swap, int8 ratio and
//! decoder clock), over the scheduler, the fleet, the serving façade and
//! the simulator; a third configuration moves the other three (NPU
//! utilisation, DRAM burst time, full-decode cycles per pixel) under the
//! scheduler and the simulator. A digest that moves means an f64 operation
//! was reordered: find it, do not re-record the constant.

use vr_dann::{ComputeKind, ComputeMode, SchemeKind, SchemeTrace, TraceFrame};
use vr_dann::{TrainTask, VrDann, VrDannConfig};
use vrd_codec::{EncodedVideo, FrameType, MvRecord, RefMv};
use vrd_serve::{
    generate, run_fleet, schedule, serve, ChaosConfig, CrashWindow, DegradeLevel, DrivenSession,
    Envelope, FleetConfig, LoadGenConfig, NpuFaultProfile, RebalanceConfig, RecoveryConfig,
    SchedConfig, SchedPolicy, ServeConfig, SessionDemand, SessionTemplate, StreamEntry,
    TemplateItem, WorkItem,
};
use vrd_sim::{simulate, ExecMode, ParallelOptions, SimConfig};
use vrd_video::davis::{davis_train_suite, davis_val_suite, SuiteConfig};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(&format!("{value:?}"))
}

/// The default cost model and one with four of its settable values moved:
/// a different (power-of-two) int8 ratio, a doubled kernel swap, half the
/// NPU throughput and a faster decoder clock.
fn sims() -> [SimConfig; 2] {
    let mut moved = SimConfig::default();
    moved.npu.int8_speedup = 2.0;
    moved.npu.kernel_swap_ns *= 2.0;
    moved.npu.peak_ops_per_s /= 2.0;
    moved.decoder.freq_hz = 450e6;
    [SimConfig::default(), moved]
}

fn check(what: &str, got: &[u64], want: &[u64]) {
    assert_eq!(got, want, "{what} moved; digests now {got:#018x?}");
}

/// One synthetic driven session: an NN-L anchor then `b_per` NN-S frames,
/// `groups` times, op counts deliberately not round.
fn session(session: usize, groups: usize, b_per: usize, compute: ComputeMode) -> DrivenSession {
    let interval = 1e6;
    let offset = session as f64 * 1.3 * interval;
    let mut items = Vec::new();
    for k in 0..groups * (b_per + 1) {
        let anchor = k % (b_per + 1) == 0;
        let arrival = offset + k as f64 * interval;
        items.push(WorkItem {
            session,
            idx: k,
            display: k as u32,
            ftype: if anchor { FrameType::I } else { FrameType::B },
            ops: if anchor { 3_999_999_937 } else { 400_000_003 },
            uses_large_model: anchor,
            arrival_ns: arrival,
            ready_ns: arrival + 1_000.0,
        });
    }
    DrivenSession {
        name: format!("pin-{session}"),
        session,
        compute,
        frames: items.len(),
        peak_live_frames: 2,
        total_ops: items.iter().map(|i| i.ops).sum(),
        switches_in_order: 2 * groups,
        isolated_ns: 0.0,
        items,
    }
}

/// (deadline, plan) pairs: no plan, work-item failures, stalls, a crash
/// without and with checkpoint restore (one window reached while picking,
/// one mid-attempt), and an active ladder under a deadline with faults.
fn plans() -> Vec<(Option<f64>, Option<ChaosConfig>)> {
    let crashes = NpuFaultProfile {
        crashes: vec![
            CrashWindow {
                at_ns: 0.0,
                down_ns: 1e5,
            },
            CrashWindow {
                at_ns: 5e6,
                down_ns: 2e6,
            },
        ],
        ..NpuFaultProfile::none()
    };
    vec![
        (None, None),
        (
            None,
            Some(ChaosConfig {
                faults: NpuFaultProfile::work_item_failures(0.2, 11),
                recovery: RecoveryConfig {
                    max_attempts: 4,
                    ..RecoveryConfig::default()
                },
            }),
        ),
        (
            None,
            Some(ChaosConfig {
                faults: NpuFaultProfile::stalls(0.5, 300_000.0, 5),
                recovery: RecoveryConfig::default(),
            }),
        ),
        (
            None,
            Some(ChaosConfig {
                faults: crashes.clone(),
                recovery: RecoveryConfig::shed_only(),
            }),
        ),
        (
            None,
            Some(ChaosConfig {
                faults: crashes,
                recovery: RecoveryConfig::default(),
            }),
        ),
        (
            Some(3e6),
            Some(ChaosConfig {
                faults: NpuFaultProfile::chaos(0.15, 77),
                recovery: RecoveryConfig::default(),
            }),
        ),
    ]
}

/// The four sessions every `schedule` pin replays: f32 and int8, short and
/// long GOPs.
fn sessions() -> [DrivenSession; 4] {
    [
        session(0, 4, 3, ComputeMode::F32Reference),
        session(1, 4, 3, ComputeMode::Int8),
        session(2, 2, 11, ComputeMode::F32Reference),
        session(3, 2, 11, ComputeMode::Int8),
    ]
}

#[test]
fn schedule_bills_are_pinned() {
    let sessions = sessions();
    let mut got = Vec::new();
    for sim in sims() {
        for policy in [SchedPolicy::Fifo, SchedPolicy::Batch] {
            for (deadline, plan) in plans() {
                let cfg = SchedConfig {
                    shed_after_ns: deadline,
                    ..SchedConfig::default()
                };
                let out = schedule(&sessions, policy, &cfg, &sim, plan.as_ref()).unwrap();
                // The grid reaches what it claims to: a crash plan hits an
                // attempt in flight, the ladder plan serves at the int8 rung.
                if plan.as_ref().is_some_and(|p| !p.faults.crashes.is_empty()) {
                    assert_eq!(out.crashes, 2);
                    assert!(out.wasted_ns > 0.0, "no crash landed mid-attempt");
                }
                if deadline.is_some() {
                    assert!(out.frames_at_level[DegradeLevel::Int8.index()] > 0);
                    assert!(out.frames_degraded > 0, "the ladder never stepped down");
                }
                got.push(digest(&out));
            }
        }
    }
    check("schedule", &got, &SCHEDULE);
}

/// A synthetic f32-estimated library entry, demand derived from the same
/// op counts the template carries.
fn entry(anchors: usize, bs: usize, nnl_ops: u64, nns_ops: u64) -> StreamEntry {
    let mut items = Vec::new();
    for a in 0..anchors {
        for j in 0..=bs {
            items.push(TemplateItem {
                display: (a * (bs + 1) + j) as u32,
                ftype: if j == 0 { FrameType::I } else { FrameType::B },
                ops: if j == 0 { nnl_ops } else { nns_ops },
                uses_large_model: j == 0,
                arrive_idx: items.len(),
                decode_ns: if j == 0 { 1_000.0 } else { 500.0 },
            });
        }
    }
    let total_ops: u64 = items.iter().map(|i| i.ops).sum();
    StreamEntry {
        demand: SessionDemand {
            nnl_ops,
            nns_ops,
            compute: ComputeMode::F32Reference,
            anchors,
            b_frames: anchors * bs,
            frame_interval_ns: 1e6,
        },
        template: SessionTemplate {
            name: format!("pin-{anchors}x{bs}"),
            compute: ComputeMode::F32Reference,
            frames: items.len(),
            peak_live_frames: 2,
            total_ops,
            switches_in_order: items
                .windows(2)
                .filter(|w| w[0].uses_large_model != w[1].uses_large_model)
                .count(),
            isolated_ns: 0.0,
            items,
        },
    }
}

#[test]
fn fleet_bills_are_pinned() {
    let trace = generate(&LoadGenConfig {
        sessions: 64,
        streams: 3,
        stream_frames: 12,
        base_interval_ns: 1e6,
        mean_interarrival_ns: 1.5e5,
        horizon_ns: 4e7,
        envelope: Envelope::Bursty {
            period_frac: 0.5,
            duty: 0.4,
            quiet_level: 0.1,
        },
        churn_rate: 0.3,
        heterogeneous: true,
        ..LoadGenConfig::default()
    })
    .unwrap();
    assert!(
        trace
            .arrivals
            .iter()
            .any(|a| a.shape.compute == ComputeMode::Int8),
        "no arrival restamps the library's f32 demand to int8"
    );
    let mut got = Vec::new();
    for sim in sims() {
        let library = [
            entry(3, 3, 3_999_937, 400_003),
            entry(12, 0, 2_999_953, 0),
            entry(1, 11, 4_999_963, 799_999),
        ];
        let cfg = FleetConfig {
            min_shards: 1,
            max_shards: 6,
            rebalance: Some(RebalanceConfig {
                skew_threshold: 0.1,
            }),
            sim,
            ..FleetConfig::default()
        };
        let report = run_fleet(&trace, &library, &cfg).unwrap();
        assert!(report.scale_ups > 0, "the autoscaler never fired");
        assert!(report.migrations > 0, "the rebalancer never fired");
        assert!(report.churned_out > 0 && report.admitted > 0);
        got.push(digest(&report));
    }
    check("run_fleet", &got, &FLEET);
}

/// A hand-built trace with all five compute kinds, interleaved so every
/// switch direction and the zero-op pass-through occur.
fn trace() -> SchemeTrace {
    let mv = |dst: u32, frame: u32, bi: Option<u32>| MvRecord {
        dst_x: dst,
        dst_y: dst / 2,
        ref0: RefMv {
            frame,
            src_x: dst as i32 + 3,
            src_y: (dst / 2) as i32 + 5,
        },
        ref1: bi.map(|frame| RefMv {
            frame,
            src_x: dst as i32 - 2,
            src_y: (dst / 2) as i32,
        }),
    };
    let mvs: Vec<MvRecord> = (0..6)
        .map(|i| mv(8 * i, 0, (i % 2 == 0).then_some(4)))
        .collect();
    let frame = |display, ftype, kind, full_decode| TraceFrame {
        display,
        ftype,
        kind,
        full_decode,
        bitstream_bytes: 700 + 13 * display as usize,
    };
    let nns = |ops| ComputeKind::NnSRefine {
        ops,
        mvs: mvs.clone(),
    };
    let frames = vec![
        frame(
            0,
            FrameType::I,
            ComputeKind::NnL { ops: 3_999_999_937 },
            true,
        ),
        frame(
            4,
            FrameType::P,
            ComputeKind::NnL { ops: 3_999_999_937 },
            true,
        ),
        frame(1, FrameType::B, nns(400_000_003), false),
        frame(2, FrameType::B, nns(400_000_003), false),
        frame(3, FrameType::B, ComputeKind::BoxShift, false),
        frame(
            5,
            FrameType::P,
            ComputeKind::FlowWarp { ops: 1_999_999_993 },
            true,
        ),
        frame(
            6,
            FrameType::B,
            ComputeKind::FeatHead {
                ops: 799_999_999,
                mvs: mvs.clone(),
            },
            false,
        ),
        frame(7, FrameType::B, nns(400_000_003), false),
        frame(
            8,
            FrameType::I,
            ComputeKind::NnL { ops: 3_999_999_937 },
            true,
        ),
    ];
    SchemeTrace {
        scheme: SchemeKind::VrDann,
        width: 64,
        height: 48,
        mb_size: 8,
        frames,
    }
}

#[test]
fn simulator_bills_are_pinned() {
    let trace = trace();
    let mut got = Vec::new();
    for sim in sims() {
        for mode in [
            ExecMode::InOrder,
            ExecMode::VrDannSerial,
            ExecMode::VrDannParallel(ParallelOptions::default()),
        ] {
            got.push(digest(&simulate(&trace, mode, &sim)));
        }
    }
    check("simulate", &got, &SIMULATE);
}

/// A third cost model moving the settable values neither of [`sims`]
/// moves: NPU utilisation, the DRAM burst time and the decoder's cycles per
/// fully reconstructed pixel.
fn third_sim() -> SimConfig {
    let mut sim = SimConfig::default();
    sim.npu.utilization = 0.29;
    sim.dram.burst_ns = 3.75;
    sim.decoder.cycles_per_pixel_full = 23.1;
    sim
}

#[test]
fn bills_under_a_third_cost_model_are_pinned() {
    let sim = third_sim();
    let trace = trace();
    let mut got = Vec::new();
    for mode in [
        ExecMode::InOrder,
        ExecMode::VrDannSerial,
        ExecMode::VrDannParallel(ParallelOptions::default()),
    ] {
        got.push(digest(&simulate(&trace, mode, &sim)));
    }
    let sessions = sessions();
    for policy in [SchedPolicy::Fifo, SchedPolicy::Batch] {
        for (deadline, plan) in plans() {
            let cfg = SchedConfig {
                shed_after_ns: deadline,
                ..SchedConfig::default()
            };
            let out = schedule(&sessions, policy, &cfg, &sim, plan.as_ref()).unwrap();
            got.push(digest(&out));
        }
    }
    check("third cost model", &got, &THIRD);
}

#[test]
fn serve_bills_are_pinned() {
    // The façade end to end on a real (tiny) model: admission estimates,
    // the load-factor pacing, the decoder lane of every driven session and
    // both replays, for an f32 and an int8 model.
    let suite = SuiteConfig::tiny();
    let model = VrDann::train(
        &davis_train_suite(&suite, 2),
        TrainTask::Segmentation,
        VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        },
    )
    .unwrap();
    let seqs = davis_val_suite(&suite);
    let encoded: Vec<EncodedVideo> = seqs.iter().map(|s| model.encode(s).unwrap()).collect();
    let requests: Vec<_> = seqs.iter().zip(&encoded).collect();
    let mut got = Vec::new();
    for sim in sims() {
        for model in [model.clone(), model.clone().with_compute(ComputeMode::Int8)] {
            let cfg = ServeConfig {
                sim,
                ..ServeConfig::default()
            };
            let report = serve(&model, &requests, &cfg).unwrap();
            assert!(report.admitted > 0);
            got.push(digest(&report));
        }
    }
    check("serve", &got, &SERVE);
}

const SCHEDULE: [u64; 24] = [
    0x8c667e3d1d81f605,
    0x37de3cb2ef18bca8,
    0xabbb3bc06829abf4,
    0x455edb1eeb9aa9da,
    0xc51167fed437c27a,
    0xea8f773749f3fb10,
    0xeeae952672a743e7,
    0x2b821ae302794580,
    0xb25817d64ad4ef77,
    0xd649e417900fd5a8,
    0x03f43c4f6e449229,
    0x77f4d29f4453da49,
    0xa11a5a316165eb8f,
    0x3006c5810d4afe72,
    0x98f3d307d9ff1d4e,
    0x3b31689f660e81a6,
    0x01d5d25abb1fa4b2,
    0xd6c00f883f6a4039,
    0x23e8a87123cc3c57,
    0xe41685833d55d8ee,
    0xab21ff48c8519ffc,
    0x10e57c56dc405d31,
    0xe83b2a47b34cdc0a,
    0xb848e72753c332b1,
];
const FLEET: [u64; 2] = [0x67af7465db69d2b0, 0x3ca86480307d061a];
const SIMULATE: [u64; 6] = [
    0x94350dcd7cfa7f0f,
    0xe8d9491814645402,
    0xc5a88bb5b2c95fa1,
    0x01f9e1ad76379189,
    0x05c413365a78d007,
    0xe51752d3e2d984dc,
];
const SERVE: [u64; 4] = [
    0x01f164586e9ebb29,
    0x27d3ed6ffa9eeeee,
    0xb6ba7a7c402ef4d4,
    0xa21ef6b5666461f9,
];
const THIRD: [u64; 15] = [
    0xc0855dceba6db336,
    0xe5b73df4bf78e571,
    0x5170353ccf46c392,
    0x3bb863f47a7240ba,
    0xa29b3f8d22c18dc2,
    0x55ecee63599c8fc7,
    0xa165847aa4011a6d,
    0x39f8ce8f3ff58dcf,
    0xda33f69d8a49c9a4,
    0xca9fc781d95e907d,
    0x774b18082050f0ca,
    0xda955f97616b62f0,
    0xa046a1480d270f6c,
    0xcade1cedff83fcda,
    0xd2bdf11c2082afe4,
];
