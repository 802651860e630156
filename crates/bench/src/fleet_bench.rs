//! Fleet sweep: shards × offered load under trace-driven traffic.
//!
//! Supersedes `serve_bench`'s fixed 1→8 sweep for scaling claims: offered
//! load comes from the deterministic load generator (Poisson-bursty
//! arrivals, heterogeneous session shapes, mid-stream churn) and is placed
//! across N virtual NPU shards by the fleet layer's affinity scheduler.
//! Two experiments:
//!
//! * **Scaling rows** — fixed fleets of 1/2/4/8 shards, offered load
//!   proportional to the fleet (≈12 sessions per shard), autoscaling off.
//!   The headline is throughput *efficiency*: served frames per second
//!   relative to ideal linear scaling of the 1-shard baseline. The
//!   acceptance gate demands ≥ 0.8× ideal at 8 shards with ≥ 64 sessions
//!   resident at peak.
//! * **Spike scenario** — a 4× arrival-rate flash crowd against the
//!   autoscaler: shards are provisioned (spin-up billed on the simulated
//!   clock) and drained as the wave passes. The gate: fleet p99 holds the
//!   clean-run SLO, with the shed/reject rate reported, not hidden.
//!
//! Deterministic for a fixed scale: reruns are byte-identical (CI diffs
//! the quick run against the committed `BENCH_fleet.json`).

use crate::context::Context;
use crate::table::{fmt_ms, fmt_pct, Table};
use vr_dann::VrDannConfig;
use vrd_codec::{BFrameMode, CodecConfig};
use vrd_serve::{
    drive_template, generate, run_fleet, Envelope, FleetConfig, FleetReport, LoadGenConfig,
    ResClass, SessionDemand, SloConfig, StreamEntry, TaskKind, TrafficTrace,
};
use vrd_video::davis::{davis_val_suite, SuiteConfig};

/// Shard counts the scaling sweep runs, ascending; the last is the gated
/// 8-shard row.
pub(crate) const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Offered sessions per shard in the scaling rows.
pub(crate) const SESSIONS_PER_SHARD: usize = 12;

/// Fixed trace seed — the whole bench is a pure function of it.
const TRACE_SEED: u64 = 0x000f_1ee7_5eed;

/// Stream-library slots (arrival shapes resolve to these).
const STD_STREAMS: usize = 2;
const IDX_SHORT_GOP: usize = STD_STREAMS;
const IDX_DETECTION: usize = STD_STREAMS + 1;
const IDX_LOW_RES: usize = STD_STREAMS + 2;

/// One fixed-fleet scaling row.
#[derive(Debug, Clone)]
pub(crate) struct FleetBenchRow {
    /// Shards in the fixed fleet.
    pub shards: usize,
    /// Sessions offered.
    pub offered: usize,
    /// Sessions admitted.
    pub admitted: usize,
    /// Sessions rejected by admission.
    pub rejected: usize,
    /// Sessions churned out before service.
    pub churned_out: usize,
    /// Peak simultaneously-resident sessions.
    pub peak_concurrent: usize,
    /// Sessions moved by the rebalancer.
    pub migrations: usize,
    /// Frames served across the fleet.
    pub frames_served: usize,
    /// Served frames per second of makespan.
    pub throughput_fps: f64,
    /// Throughput relative to ideal linear scaling of the 1-shard row.
    pub efficiency: f64,
    /// Fleet p50 frame latency, nanoseconds.
    pub p50_ns: f64,
    /// Fleet p99 frame latency, nanoseconds.
    pub p99_ns: f64,
    /// Last completion instant, nanoseconds.
    pub makespan_ns: f64,
    /// NPU busy time over every shard's alive time.
    pub mean_utilization: f64,
    /// Fleet energy, joules.
    pub energy_j: f64,
}

/// The autoscaler-vs-spike scenario.
#[derive(Debug, Clone)]
pub(crate) struct SpikeSummary {
    /// Sessions offered.
    pub offered: usize,
    /// Sessions admitted.
    pub admitted: usize,
    /// Sessions rejected.
    pub rejected: usize,
    /// Shards added by the autoscaler.
    pub scale_ups: usize,
    /// Shards drained by the autoscaler.
    pub scale_downs: usize,
    /// Peak simultaneously-active shards.
    pub peak_shards: usize,
    /// Peak simultaneously-resident sessions.
    pub peak_concurrent: usize,
    /// Fleet p99 frame latency, nanoseconds.
    pub p99_ns: f64,
    /// The SLO the p99 is gated against, nanoseconds.
    pub slo_p99_ns: f64,
    /// Fraction of offered sessions turned away (reported, not hidden).
    pub reject_rate: f64,
    /// Fraction of NPU-bound frames shed past deadline.
    pub shed_rate: f64,
    /// Whether the autoscaled fleet held the SLO under the spike.
    pub held: bool,
}

/// The complete fleet bench.
#[derive(Debug, Clone)]
pub(crate) struct FleetBench {
    /// One row per fixed shard count, ascending.
    pub rows: Vec<FleetBenchRow>,
    /// The 4× spike scenario under autoscaling.
    pub spike: SpikeSummary,
}

/// Builds the heterogeneous stream library: two standard segmentation
/// streams, a short-GOP (NN-L-heavy) variant, a detection stream and a
/// low-resolution stream. Each entry carries the driven template (the NN
/// compute, paid once) plus the analytic demand admission bills.
fn build_library(ctx: &Context, base_interval_ns: f64) -> Vec<StreamEntry> {
    let mut entries = Vec::new();
    let mut push = |model: &vr_dann::VrDann, seq: &vrd_video::Sequence| {
        let encoded = model.encode(seq).expect("library sequences encode");
        let template =
            drive_template(model, seq, &encoded, &ctx.sim).expect("library streams drive");
        let demand = SessionDemand::estimate(model, seq, &encoded, base_interval_ns);
        entries.push(StreamEntry { template, demand });
    };
    for i in 0..STD_STREAMS {
        push(&ctx.model, &ctx.davis[i % ctx.davis.len()]);
    }
    // Short GOP: anchors every other frame — the NN-L-heavy mix the
    // affinity placer keeps apart from NN-S-dominated streams.
    let short_gop = ctx.train_variant(VrDannConfig {
        codec: CodecConfig {
            gop_len: 4,
            b_frames: BFrameMode::Fixed(1),
            ..CodecConfig::default()
        },
        ..VrDannConfig::default()
    });
    push(&short_gop, &ctx.davis[STD_STREAMS % ctx.davis.len()]);
    // Detection task on a VID-like stream.
    let detect = ctx.detection_model();
    let vid = ctx.vid_suite();
    push(&detect, &vid[0]);
    // Low resolution: half width (kept a multiple of 16 for the codec).
    let low_cfg = SuiteConfig {
        width: ((ctx.suite_cfg.width / 2) / 16 * 16).max(32),
        ..ctx.suite_cfg
    };
    let low = davis_val_suite(&low_cfg);
    push(&ctx.model, &low[0]);
    entries
}

/// Resolves every arrival's heterogeneous shape to a library slot: task
/// first (detection has its own model), then resolution, then GOP class;
/// plain sessions cycle the standard streams.
fn resolve_shapes(trace: &mut TrafficTrace) {
    for a in &mut trace.arrivals {
        a.stream = match (a.shape.task, a.shape.res, a.shape.gop) {
            (TaskKind::Detection, _, _) => IDX_DETECTION,
            (_, ResClass::Low, _) => IDX_LOW_RES,
            (_, _, vrd_serve::GopClass::Short) => IDX_SHORT_GOP,
            _ => a.stream % STD_STREAMS,
        };
    }
}

/// The bench SLO, scaled from the workload so quick and full runs gate
/// comparably: the admission projection's base latency (one NN-L plus a
/// switch pair) with 8× headroom.
fn bench_slo(library: &[StreamEntry], ctx: &Context) -> SloConfig {
    SloConfig {
        target_p99_ns: 8.0 * library[0].demand.unloaded_anchor_ns(&ctx.sim),
    }
}

fn scaling_trace(shards: usize, library: &[StreamEntry], base_interval_ns: f64) -> TrafficTrace {
    let sessions = SESSIONS_PER_SHARD * shards;
    let stream_frames = library[0].template.frames;
    let span_ns = stream_frames as f64 * base_interval_ns;
    let mut trace = generate(&LoadGenConfig {
        seed: TRACE_SEED,
        sessions,
        streams: STD_STREAMS,
        stream_frames,
        base_interval_ns,
        // Offered rate scales with the fleet: the arrival window stays
        // ~0.6 stream spans at every shard count, so sessions overlap and
        // per-shard load is constant across rows (the premise of the
        // linear-scaling gate).
        mean_interarrival_ns: span_ns * 0.6 / sessions as f64,
        horizon_ns: span_ns,
        envelope: Envelope::Bursty {
            period_frac: 0.25,
            duty: 0.5,
            quiet_level: 0.25,
        },
        churn_rate: 0.05,
        heterogeneous: true,
    })
    .expect("the bench trace config is valid");
    resolve_shapes(&mut trace);
    trace
}

fn row_from_report(shards: usize, report: &FleetReport, base_fps: f64) -> FleetBenchRow {
    let alive_ns: f64 = report
        .shards
        .iter()
        .map(|s| (report.makespan_ns - s.created_ns).max(0.0))
        .sum();
    FleetBenchRow {
        shards,
        offered: report.offered,
        admitted: report.admitted,
        rejected: report.rejected,
        churned_out: report.churned_out,
        peak_concurrent: report.peak_concurrent,
        migrations: report.migrations,
        frames_served: report.frames_served,
        throughput_fps: report.throughput_fps,
        efficiency: if base_fps > 0.0 {
            report.throughput_fps / (shards as f64 * base_fps)
        } else {
            0.0
        },
        p50_ns: report.latency.p50_ns,
        p99_ns: report.latency.p99_ns,
        makespan_ns: report.makespan_ns,
        mean_utilization: if alive_ns > 0.0 {
            report.busy_ns / alive_ns
        } else {
            0.0
        },
        energy_j: report.energy_j,
    }
}

/// Runs the fleet bench: the fixed-shard scaling sweep plus the autoscaled
/// spike scenario.
pub(crate) fn run(ctx: &Context) -> FleetBench {
    // Pacing from the workload itself (scale-invariant): 12 NN-L times
    // per frame interval, the light-per-session regime a fleet serves.
    let probe = SessionDemand::estimate(
        &ctx.model,
        &ctx.davis[0],
        &ctx.model.encode(&ctx.davis[0]).expect("suite encodes"),
        1.0,
    );
    let base_interval_ns = 12.0 * probe.nnl_ns(&ctx.sim);
    let library = build_library(ctx, base_interval_ns);
    let slo = bench_slo(&library, ctx);

    let mut rows: Vec<FleetBenchRow> = Vec::with_capacity(SHARDS.len());
    let mut base_fps = 0.0;
    for &shards in &SHARDS {
        let trace = scaling_trace(shards, &library, base_interval_ns);
        let cfg = FleetConfig {
            min_shards: shards,
            max_shards: shards,
            slo,
            sim: ctx.sim,
            autoscale: false,
            ..FleetConfig::default()
        };
        let report = run_fleet(&trace, &library, &cfg).expect("scaling row serves");
        if shards == SHARDS[0] {
            base_fps = report.throughput_fps / shards as f64;
        }
        rows.push(row_from_report(shards, &report, base_fps));
    }

    // The 4× flash crowd: a small fleet with autoscaling absorbs a spike
    // that a fixed fleet of the same floor would have to reject.
    let stream_frames = library[0].template.frames;
    let span_ns = stream_frames as f64 * base_interval_ns;
    let spike_sessions = 6 * SESSIONS_PER_SHARD;
    let mut spike_trace = generate(&LoadGenConfig {
        seed: TRACE_SEED ^ 0x51_1ce5,
        sessions: spike_sessions,
        streams: STD_STREAMS,
        stream_frames,
        base_interval_ns,
        // Base rate sized for ~2 shards; the spike quadruples it.
        mean_interarrival_ns: span_ns * 2.0 / spike_sessions as f64,
        horizon_ns: 2.0 * span_ns,
        envelope: Envelope::Spike {
            factor: 4.0,
            start_frac: 0.35,
            end_frac: 0.65,
        },
        churn_rate: 0.1,
        heterogeneous: true,
    })
    .expect("the bench trace config is valid");
    resolve_shapes(&mut spike_trace);
    let spike_cfg = FleetConfig {
        min_shards: 2,
        max_shards: 16,
        slo,
        sim: ctx.sim,
        autoscale: true,
        ..FleetConfig::default()
    };
    let spike_report = run_fleet(&spike_trace, &library, &spike_cfg).expect("spike serves");
    let spike = SpikeSummary {
        offered: spike_report.offered,
        admitted: spike_report.admitted,
        rejected: spike_report.rejected,
        scale_ups: spike_report.scale_ups,
        scale_downs: spike_report.scale_downs,
        peak_shards: spike_report.peak_shards,
        peak_concurrent: spike_report.peak_concurrent,
        p99_ns: spike_report.latency.p99_ns,
        slo_p99_ns: slo.target_p99_ns,
        reject_rate: spike_report.rejected as f64 / spike_report.offered.max(1) as f64,
        shed_rate: spike_report.shed_rate(),
        held: spike_report.latency.p99_ns <= slo.target_p99_ns,
    };

    FleetBench { rows, spike }
}

impl FleetBench {
    /// Acceptance gates: ≥ 64 sessions resident across ≥ 8 shards, fleet
    /// throughput ≥ 0.8× ideal linear scaling at 8 shards, and the
    /// autoscaler holding the p99 SLO under the 4× spike.
    pub(crate) fn acceptance_failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        match self.rows.iter().find(|r| r.shards >= 8) {
            None => fails.push("no ≥8-shard scaling row was produced".to_string()),
            Some(r) => {
                if r.peak_concurrent < 64 {
                    fails.push(format!(
                        "{}-shard row peaked at {} concurrent sessions (< 64)",
                        r.shards, r.peak_concurrent
                    ));
                }
                if r.efficiency < 0.8 {
                    fails.push(format!(
                        "{}-shard throughput efficiency {:.3} below 0.8× ideal linear",
                        r.shards, r.efficiency
                    ));
                }
            }
        }
        if !self.spike.held {
            fails.push(format!(
                "autoscaler missed the SLO under the 4× spike: p99 {:.3} ms > {:.3} ms",
                self.spike.p99_ns / 1e6,
                self.spike.slo_p99_ns / 1e6
            ));
        }
        if self.spike.scale_ups == 0 {
            fails.push("the 4× spike never triggered a scale-up".to_string());
        }
        fails
    }

    /// Renders the scaling table and the spike summary.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec![
            "shards",
            "offered",
            "admitted",
            "churn",
            "peak conc",
            "served",
            "fps",
            "efficiency",
            "p50 ms",
            "p99 ms",
            "util",
            "energy J",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.shards.to_string(),
                r.offered.to_string(),
                r.admitted.to_string(),
                r.churned_out.to_string(),
                r.peak_concurrent.to_string(),
                r.frames_served.to_string(),
                format!("{:.1}", r.throughput_fps),
                format!("{:.3}", r.efficiency),
                fmt_ms(r.p50_ns),
                fmt_ms(r.p99_ns),
                fmt_pct(r.mean_utilization),
                format!("{:.4}", r.energy_j),
            ]);
        }
        let s = &self.spike;
        format!(
            "Fleet: shards × trace-driven load, affinity placement, autoscaled spike\n{}\
             spike 4x: offered {} admitted {} rejected {} (reject rate {:.1}%, shed rate {:.1}%)\n\
             spike 4x: scale-ups {} scale-downs {} peak shards {} peak concurrent {}\n\
             spike 4x: p99 {} ms vs SLO {} ms — {}\n",
            t.render(),
            s.offered,
            s.admitted,
            s.rejected,
            100.0 * s.reject_rate,
            100.0 * s.shed_rate,
            s.scale_ups,
            s.scale_downs,
            s.peak_shards,
            s.peak_concurrent,
            fmt_ms(s.p99_ns),
            fmt_ms(s.slo_p99_ns),
            if s.held { "HELD" } else { "MISSED" },
        )
    }

    /// Machine-readable JSON (hand-rolled — the workspace carries no
    /// serialisation dependency).
    pub(crate) fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"shards\":{},\"offered\":{},\"admitted\":{},\"rejected\":{},\
                     \"churned_out\":{},\"peak_concurrent\":{},\"migrations\":{},\
                     \"frames_served\":{},\"throughput_fps\":{:.3},\"efficiency\":{:.6},\
                     \"p50_ns\":{:.1},\"p99_ns\":{:.1},\"makespan_ns\":{:.1},\
                     \"mean_utilization\":{:.6},\"energy_j\":{:.6}}}",
                    r.shards,
                    r.offered,
                    r.admitted,
                    r.rejected,
                    r.churned_out,
                    r.peak_concurrent,
                    r.migrations,
                    r.frames_served,
                    r.throughput_fps,
                    r.efficiency,
                    r.p50_ns,
                    r.p99_ns,
                    r.makespan_ns,
                    r.mean_utilization,
                    r.energy_j,
                )
            })
            .collect();
        let s = &self.spike;
        format!(
            "{{\n  \"experiment\": \"fleet\",\n  \"rows\": [\n{}\n  ],\n  \"spike\": \
             {{\"offered\":{},\"admitted\":{},\"rejected\":{},\"scale_ups\":{},\
             \"scale_downs\":{},\"peak_shards\":{},\"peak_concurrent\":{},\
             \"p99_ns\":{:.1},\"slo_p99_ns\":{:.1},\"reject_rate\":{:.6},\
             \"shed_rate\":{:.6},\"held\":{}}}\n}}\n",
            rows.join(",\n"),
            s.offered,
            s.admitted,
            s.rejected,
            s.scale_ups,
            s.scale_downs,
            s.peak_shards,
            s.peak_concurrent,
            s.p99_ns,
            s.slo_p99_ns,
            s.reject_rate,
            s.shed_rate,
            s.held,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_quick_scales_and_absorbs_the_spike() {
        let ctx = crate::context::quick();
        let bench = run(ctx);
        assert_eq!(bench.rows.len(), SHARDS.len());

        // The acceptance gates hold at quick scale.
        let fails = bench.acceptance_failures();
        assert!(fails.is_empty(), "acceptance failures: {fails:?}");

        // Offered load scales with the fleet; the 8-shard row serves ≥ 64
        // concurrent sessions across 8 shards.
        for (r, &s) in bench.rows.iter().zip(&SHARDS) {
            assert_eq!(r.shards, s);
            assert_eq!(r.offered, SESSIONS_PER_SHARD * s);
            assert_eq!(r.admitted + r.rejected + r.churned_out, r.offered);
            assert!(r.frames_served > 0);
            assert!(r.energy_j > 0.0);
        }
        let heavy = bench.rows.last().unwrap();
        assert!(heavy.peak_concurrent >= 64);
        assert!(heavy.efficiency >= 0.8);

        // The spike scenario exercises the autoscaler both ways and
        // reports its shedding honestly.
        assert!(bench.spike.scale_ups > 0);
        assert!(bench.spike.peak_shards > 2);
        assert!(bench.spike.held);
        assert!(bench.spike.reject_rate >= 0.0 && bench.spike.reject_rate < 1.0);

        let text = bench.render();
        assert!(text.contains("Fleet"));
        assert!(text.contains("efficiency"));
        assert!(text.contains("spike 4x"));
        let json = bench.to_json();
        assert!(json.contains("\"experiment\": \"fleet\""));
        assert!(json.contains("\"efficiency\""));
        assert!(json.contains("\"held\":true"));

        // Byte-identical rerun — the determinism CI guards with `cmp`.
        let again = run(ctx);
        assert_eq!(json, again.to_json());
        assert_eq!(text, again.render());
    }
}
