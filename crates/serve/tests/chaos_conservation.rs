//! Property: the scheduler conserves frames under any fault plan.
//!
//! Over random synthetic session mixes, random fault profiles (work-item
//! failures, stalls, crash windows), both policies and every recovery
//! posture, each admitted frame is accounted for **exactly once** —
//! delivered full, delivered degraded, shed, or lost to a crash kill —
//! the event loop always terminates (a livelock trips the scheduler's
//! iteration bound and surfaces as an error, failing the property), and a
//! bitwise repeat of the replay is identical. The same mixes replayed
//! with no plan and no deadline reconcile with the cost model: the
//! scheduler's busy and switch time are what `vrd_sim::cost` quotes.

use proptest::prelude::*;
use vr_dann::ComputeMode;
use vrd_codec::FrameType;
use vrd_serve::{
    schedule, ChaosConfig, DrivenSession, LatencyStats, NpuFaultProfile, RecoveryConfig,
    SchedConfig, SchedPolicy, ScheduleOutcome, WorkItem,
};
use vrd_sim::{Model, SimConfig};

/// splitmix64 — deterministic parameter scrambling per session index.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A synthetic driven session: anchors every `b_per + 1` frames, pacing
/// and phase scrambled from the seed.
fn synth(seed: u64, session: usize, groups: usize, b_per: usize, int8: bool) -> DrivenSession {
    let h = mix(seed ^ (session as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    let interval = 2e5 + (h % 1_000_000) as f64 * 4.0; // 0.2 .. 4.2 ms
    let offset = (mix(h) % 3_000_000) as f64;
    let mut items = Vec::new();
    for k in 0..groups * (b_per + 1) {
        let anchor = k.is_multiple_of(b_per + 1);
        let arrival = offset + k as f64 * interval;
        items.push(WorkItem {
            session,
            idx: k,
            display: k as u32,
            ftype: if anchor { FrameType::I } else { FrameType::B },
            ops: if anchor { 4_000_000_000 } else { 1_000_000 },
            uses_large_model: anchor,
            arrival_ns: arrival,
            ready_ns: arrival + 1_000.0,
        });
    }
    DrivenSession {
        name: format!("prop-{session}"),
        session,
        compute: if int8 {
            ComputeMode::Int8
        } else {
            ComputeMode::F32Reference
        },
        frames: items.len(),
        peak_live_frames: 2,
        total_ops: items.iter().map(|i| i.ops).sum(),
        switches_in_order: 2 * groups,
        isolated_ns: 0.0,
        items,
    }
}

/// Exactly-once accounting, globally and per session; delivered frames
/// each carry exactly one latency sample (no duplicate emission).
fn assert_conserved(out: &ScheduleOutcome, sessions: &[DrivenSession]) {
    assert_eq!(
        out.frames_full + out.frames_degraded + out.frames_shed + out.frames_lost,
        out.frames_offered,
        "global conservation broke"
    );
    assert_eq!(
        out.frames_offered,
        sessions.iter().map(|s| s.items.len()).sum::<usize>()
    );
    assert_eq!(out.per_session.len(), sessions.len());
    for (p, s) in out.per_session.iter().zip(sessions) {
        assert_eq!(
            p.frames_full + p.frames_degraded + p.frames_shed + p.frames_lost,
            s.items.len(),
            "session {} conservation broke",
            p.session
        );
        // One latency sample per delivered frame — a frame emitted twice
        // (e.g. retried after already being delivered) would show up here.
        assert_eq!(p.latency.count, p.frames_full + p.frames_degraded);
        // Ladder bookkeeping agrees with delivery counts.
        let at_levels: usize = p.degradation.frames_at_level.iter().sum();
        assert_eq!(at_levels, p.frames_full + p.frames_degraded);
        // Lost frames require a crash kill, and vice versa.
        assert_eq!(p.frames_lost > 0, p.lost, "session {}", p.session);
    }
    assert_eq!(out.latency.count, out.frames_full + out.frames_degraded);
    assert_eq!(
        out.latency_samples.len(),
        out.frames_full + out.frames_degraded
    );
    assert_eq!(
        LatencyStats::from_samples(&out.latency_samples),
        out.latency
    );
    assert_eq!(
        out.sessions_lost,
        out.per_session.iter().filter(|p| p.lost).count()
    );
}

/// The scheduler bills what the cost model quotes. With no plan and no
/// deadline every item is served exactly once at its session's own rung,
/// so `busy_ns` is the sum of the quotes; and with two models, a cold
/// device and an anchor leading every session, the switches along the
/// served order alternate to-large, to-small, to-large, …
fn assert_bills_reconcile(out: &ScheduleOutcome, sessions: &[DrivenSession], sim: &SimConfig) {
    let close = |got: f64, quoted: f64| (got - quoted).abs() <= 1e-9 * quoted.max(1.0);
    let service: f64 = sessions
        .iter()
        .flat_map(|s| {
            s.items
                .iter()
                .map(|i| sim.service_ns(i.ops, i.model(), s.compute))
        })
        .sum();
    assert!(close(out.busy_ns, service), "{} vs {service}", out.busy_ns);
    let switching = out.switches.div_ceil(2) as f64 * sim.switch_ns(None, Model::Large)
        + (out.switches / 2) as f64 * sim.switch_ns(Some(Model::Large), Model::Small);
    assert!(
        close(out.switch_ns, switching),
        "{} vs {switching} over {} switches",
        out.switch_ns,
        out.switches
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_admitted_frame_is_accounted_exactly_once(
        seed in 0u64..u64::MAX,
        n_sessions in 1usize..5,
        groups in 1usize..5,
        b_per in 0usize..6,
        fail_rate in 0.0f64..0.6,
        stall_rate in 0.0f64..0.3,
        crash in (0u8..2).prop_map(|v| v == 1),
        crash_at_us in 1u64..40_000,
        crash_down_us in 1u64..5_000,
        max_attempts in 1u32..5,
        checkpoint_restore in (0u8..2).prop_map(|v| v == 1),
        with_ladder in (0u8..2).prop_map(|v| v == 1),
        with_deadline in (0u8..2).prop_map(|v| v == 1),
        fifo in (0u8..2).prop_map(|v| v == 1),
    ) {
        let sessions: Vec<DrivenSession> = (0..n_sessions)
            .map(|s| synth(seed, s, groups, b_per, mix(seed ^ s as u64).is_multiple_of(3)))
            .collect();
        let cfg = SchedConfig {
            shed_after_ns: with_deadline.then_some(4e6),
            ..SchedConfig::default()
        };
        let faults = NpuFaultProfile {
            seed: mix(seed),
            work_item_fail_rate: fail_rate,
            stall_rate,
            stall_ns: 150_000.0,
            crashes: if crash {
                NpuFaultProfile::single_crash(crash_at_us as f64 * 1e3, crash_down_us as f64 * 1e3)
                    .crashes
            } else {
                Vec::new()
            },
        };
        let chaos = ChaosConfig {
            faults,
            recovery: RecoveryConfig {
                max_attempts,
                checkpoint_restore,
                ladder: with_ladder,
            },
        };
        let policy = if fifo { SchedPolicy::Fifo } else { SchedPolicy::Batch };
        let sim = SimConfig::default();

        // Termination is part of the property: a deadlock trips the
        // scheduler's iteration bound and comes back as Err.
        let out = schedule(&sessions, policy, &cfg, &sim, Some(&chaos));
        prop_assert!(out.is_ok(), "scheduler error: {:?}", out.err());
        let out = out.unwrap();
        assert_conserved(&out, &sessions);

        // Without a crash (or with restore on), nothing may be lost.
        if !crash || checkpoint_restore {
            prop_assert_eq!(out.frames_lost, 0);
            prop_assert_eq!(out.sessions_lost, 0);
        }
        // With a ladder every deadline miss and exhausted retry budget is
        // converted into a copy-forward delivery, so nothing is ever shed.
        if with_ladder && cfg.shed_after_ns.is_some() {
            prop_assert_eq!(out.frames_shed, 0);
        }

        // Bitwise determinism of the whole outcome.
        let again = schedule(&sessions, policy, &cfg, &sim, Some(&chaos)).unwrap();
        prop_assert_eq!(out, again);

        // Reconcile upward, in virtual time.
        let plain = schedule(&sessions, policy, &SchedConfig::default(), &sim, None).unwrap();
        prop_assert_eq!(plain.frames_full, plain.frames_offered);
        assert_bills_reconcile(&plain, &sessions, &sim);
    }
}
