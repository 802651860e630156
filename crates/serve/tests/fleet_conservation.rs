//! Property: the fleet conserves offered sessions and frames.
//!
//! Over random traffic traces (seeded envelopes, heterogeneous shapes,
//! churn) crossed with random shard counts, autoscale/rebalance postures
//! and stream libraries, every offered session gets **exactly one** fate —
//! admitted to exactly one shard, rejected, or churned-out — fleet totals
//! equal the sum of shard totals, and the whole report is bitwise
//! deterministic across repeat runs and worker-thread counts (set with
//! `vrd_runtime::with_thread_budget`, the scoped form of `VRD_THREADS`).

use proptest::prelude::*;
use vr_dann::ComputeMode;
use vrd_codec::FrameType;
use vrd_runtime::with_thread_budget;
use vrd_serve::{
    run_fleet, Envelope, FleetConfig, FleetReport, LatencyStats, LoadGenConfig, OfferFate,
    RebalanceConfig, SessionArrival, SessionDemand, SessionShape, SessionTemplate, StreamEntry,
    TemplateItem, TrafficTrace,
};
use vrd_sim::{Model, SimConfig};

/// splitmix64 — deterministic parameter scrambling per stream index.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A synthetic stream library entry: anchor/B mix scrambled from the seed
/// so different streams carry genuinely different model-affinity fractions.
fn synth_entry(seed: u64, stream: usize, sim: &SimConfig) -> StreamEntry {
    let h = mix(seed ^ (stream as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    let anchors = 1 + (h % 6) as usize;
    let b_per = (mix(h) % 8) as usize;
    let nnl_ops = 500_000 + h % 4_000_000;
    let nns_ops = 10_000 + mix(h ^ 1) % 100_000;
    let mut items = Vec::new();
    for a in 0..anchors {
        items.push(TemplateItem {
            display: (a * (b_per + 1)) as u32,
            ftype: FrameType::I,
            ops: nnl_ops,
            uses_large_model: true,
            arrive_idx: items.len(),
            decode_ns: 800.0,
        });
        for b in 0..b_per {
            items.push(TemplateItem {
                display: (a * (b_per + 1) + b + 1) as u32,
                ftype: FrameType::B,
                ops: nns_ops,
                uses_large_model: false,
                arrive_idx: items.len(),
                decode_ns: 300.0,
            });
        }
    }
    let frames = items.len();
    let total_ops: u64 = items.iter().map(|i| i.ops).sum();
    let switches = items
        .windows(2)
        .filter(|w| w[0].uses_large_model != w[1].uses_large_model)
        .count();
    StreamEntry {
        demand: SessionDemand {
            nnl_ops,
            nns_ops,
            compute: ComputeMode::F32Reference,
            anchors,
            b_frames: anchors * b_per,
            frame_interval_ns: 1e6,
        },
        template: SessionTemplate {
            name: format!("prop-{stream}"),
            compute: ComputeMode::F32Reference,
            items,
            frames,
            peak_live_frames: 2,
            total_ops,
            switches_in_order: switches,
            isolated_ns: sim.service_ns(total_ops, Model::Large, ComputeMode::F32Reference),
        },
    }
}

/// Exactly-once fates and fleet-equals-sum-of-shards accounting.
fn assert_conserved(report: &FleetReport) {
    assert_eq!(report.fates.len(), report.offered);
    let admitted = report
        .fates
        .iter()
        .filter(|f| matches!(f, OfferFate::Admitted { .. }))
        .count();
    let rejected = report
        .fates
        .iter()
        .filter(|f| matches!(f, OfferFate::Rejected { .. }))
        .count();
    let churned = report
        .fates
        .iter()
        .filter(|f| matches!(f, OfferFate::ChurnedOut))
        .count();
    assert_eq!(admitted, report.admitted);
    assert_eq!(rejected, report.rejected);
    assert_eq!(churned, report.churned_out);
    assert_eq!(
        report.admitted + report.rejected + report.churned_out,
        report.offered,
        "an offer gained or lost a fate"
    );
    // Each admitted offer resides on exactly one real shard, and shard
    // session counts sum to the admitted total.
    let mut per_shard = vec![0usize; report.shards.len()];
    for fate in &report.fates {
        if let OfferFate::Admitted { shard } = fate {
            assert!(*shard < report.shards.len(), "fate points past the fleet");
            per_shard[*shard] += 1;
        }
    }
    for (counted, shard) in per_shard.iter().zip(&report.shards) {
        assert_eq!(*counted, shard.sessions, "shard residency double-count");
    }
    assert_eq!(per_shard.iter().sum::<usize>(), report.admitted);
    // Fleet frame/switch/time totals are exactly the shard sums.
    let served: usize = report
        .shards
        .iter()
        .map(|s| s.outcome.frames_delivered())
        .sum();
    let shed: usize = report.shards.iter().map(|s| s.outcome.frames_shed).sum();
    let switches: usize = report.shards.iter().map(|s| s.outcome.switches).sum();
    let busy: f64 = report.shards.iter().map(|s| s.outcome.busy_ns).sum();
    assert_eq!(served, report.frames_served);
    assert_eq!(shed, report.frames_shed);
    assert_eq!(switches, report.switches);
    assert!((busy - report.busy_ns).abs() < 1e-6);
    assert_eq!(report.latency.count, report.frames_served);
    // Fleet-wide percentiles are taken over the union of the shards' raw
    // samples, not over the shards' own percentiles.
    let merged: Vec<f64> = report
        .shards
        .iter()
        .flat_map(|s| s.outcome.latency_samples.iter().copied())
        .collect();
    assert_eq!(LatencyStats::from_samples(&merged), report.latency);
    let max_span = report
        .shards
        .iter()
        .map(|s| s.outcome.makespan_ns)
        .fold(0.0f64, f64::max);
    assert_eq!(max_span, report.makespan_ns);
    // Migrations are conserved between fleet and shard bookkeeping.
    let migr_in: usize = report.shards.iter().map(|s| s.migrations_in).sum();
    assert_eq!(migr_in, report.migrations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_offered_session_has_exactly_one_fate(
        seed in 0u64..u64::MAX,
        sessions in 1usize..48,
        streams in 1usize..4,
        shards in 1usize..5,
        headroom in 0usize..4,
        churn in 0.0f64..0.9,
        mean_gap_us in 50u64..2_000,
        envelope_pick in 0u8..4,
        heterogeneous in (0u8..2).prop_map(|v| v == 1),
        with_autoscale in (0u8..2).prop_map(|v| v == 1),
        with_rebalance in (0u8..2).prop_map(|v| v == 1),
    ) {
        let sim = SimConfig::default();
        let library: Vec<StreamEntry> = (0..streams)
            .map(|s| synth_entry(seed, s, &sim))
            .collect();
        let envelope = match envelope_pick {
            0 => Envelope::Flat,
            1 => Envelope::Bursty { period_frac: 0.25, duty: 0.4, quiet_level: 0.1 },
            2 => Envelope::Diurnal { trough_level: 0.2 },
            _ => Envelope::Spike { factor: 4.0, start_frac: 0.3, end_frac: 0.6 },
        };
        let trace = vrd_serve::generate(&LoadGenConfig {
            seed: mix(seed),
            sessions,
            streams,
            stream_frames: 12,
            base_interval_ns: 1e6,
            mean_interarrival_ns: mean_gap_us as f64 * 1e3,
            horizon_ns: 5e7,
            envelope,
            churn_rate: churn,
            heterogeneous,
        }).unwrap();
        let cfg = FleetConfig {
            min_shards: shards,
            max_shards: shards + headroom,
            sim,
            autoscale: with_autoscale,
            rebalance: with_rebalance.then(RebalanceConfig::default),
            ..FleetConfig::default()
        };
        let run_at = |threads| with_thread_budget(threads, || run_fleet(&trace, &library, &cfg));

        let report = run_at(3);
        prop_assert!(report.is_ok(), "fleet error: {:?}", report.err());
        let report = report.unwrap();
        prop_assert_eq!(report.offered, sessions);
        assert_conserved(&report);

        // Bitwise determinism: an identical rerun and a different worker
        // count both reproduce the report exactly.
        let again = run_at(3).unwrap();
        prop_assert_eq!(&report, &again);
        let serial = run_at(1).unwrap();
        prop_assert_eq!(&report, &serial);
    }
}

#[test]
fn arrivals_are_billed_and_served_at_their_own_compute_mode() {
    // The library entry's mode is only what it was estimated with: each
    // arrival is restamped to the mode it asks for, in both directions.
    let sim = SimConfig::default();
    let f32_entry = synth_entry(7, 0, &sim);
    let (anchors, bs) = (f32_entry.demand.anchors, f32_entry.demand.b_frames);
    assert!(
        bs > 0,
        "the stream needs NN-S frames for the mode to matter"
    );
    let mut int8_entry = f32_entry.clone();
    int8_entry.demand.compute = ComputeMode::Int8;
    int8_entry.template.compute = ComputeMode::Int8;
    let cfg = FleetConfig {
        min_shards: 1,
        max_shards: 1,
        autoscale: false,
        rebalance: None,
        sim,
        ..FleetConfig::default()
    };
    for (entry, wants, at_level) in [
        (
            &int8_entry,
            ComputeMode::F32Reference,
            [anchors + bs, 0, 0, 0],
        ),
        (&f32_entry, ComputeMode::Int8, [anchors, bs, 0, 0]),
    ] {
        let trace = TrafficTrace {
            arrivals: vec![SessionArrival {
                id: 0,
                stream: 0,
                arrive_ns: 0.0,
                interval_ns: 0.0,
                depart_ns: None,
                shape: SessionShape {
                    compute: wants,
                    ..SessionShape::standard()
                },
            }],
            horizon_ns: 0.0,
        };
        let report = run_fleet(&trace, std::slice::from_ref(entry), &cfg).unwrap();
        let shard = &report.shards[0];
        assert_eq!(shard.outcome.frames_at_level, at_level, "served {wants:?}");
        assert_eq!(shard.outcome.frames_degraded, 0);
        let billed = SessionDemand {
            compute: wants,
            ..entry.demand
        };
        assert_eq!(
            shard.peak_utilization,
            billed.compute_utilization(&sim) + billed.switch_utilization(&sim),
            "billed {wants:?}"
        );
    }
}
