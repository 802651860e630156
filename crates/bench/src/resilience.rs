//! Resilience sweep: recognition accuracy vs injected bitstream loss.
//!
//! Packetizes each validation sequence, plants transport faults at a range
//! of loss rates (0–20 %) and runs the concealing pipeline entry points,
//! reporting how the DAVIS J-mean and the VID detection mAP degrade. Two
//! fault profiles are swept side by side:
//!
//! * **b-mv** — [`FaultConfig::b_mv_loss`]: only B-frame motion-vector
//!   payloads are dropped or truncated. This is the loss VR-DANN is uniquely
//!   exposed to (the baselines decode pixels; VR-DANN reconstructs from the
//!   MV records themselves).
//! * **mixed** — [`FaultConfig::uniform`]: bit flips, truncation and whole
//!   lost frames across all frame types (first I-frame protected), which
//!   also exercises anchor substitution and NN-L re-inference.
//!
//! At a 0 % rate both profiles plant nothing and the rows must reproduce
//! the clean pipeline's accuracy exactly (the concealment counters are
//! asserted clean in the module test).

use crate::context::{parallel_map, Context};
use crate::table::{fmt_pct, fmt_score, Table};
use vr_dann::{
    ConcealmentStats, DetTask, DetectionRun, ResilienceOptions, RunInput, SegTask, VrDann,
};
use vrd_codec::{inject, packetize, FaultConfig, PacketStream};
use vrd_metrics::{average_precision, FrameDetections};
use vrd_video::Sequence;

/// The swept loss rates (fraction of frames faulted).
pub(crate) const RATES: [f64; 6] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20];

/// The single rate the CI smoke mode runs at.
pub(crate) const SMOKE_RATE: f64 = 0.05;

/// Aggregate outcome of one segmentation leg at one loss rate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SegLeg {
    /// Mean region similarity (IoU) over the suite — the DAVIS J-mean.
    pub j_mean: f64,
    /// Mean contour score over the suite — the DAVIS F-mean.
    pub f_mean: f64,
    /// Faults the injector planted across the suite.
    pub fault_events: usize,
    /// Summed concealment counters across the suite.
    pub concealment: ConcealmentStats,
}

/// Aggregate outcome of the detection leg at one loss rate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DetLeg {
    /// Mean average precision over the VID-like suite.
    pub map: f64,
    /// Faults the injector planted across the suite.
    pub fault_events: usize,
    /// Summed concealment counters across the suite.
    pub concealment: ConcealmentStats,
}

/// One loss rate's results.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResilienceRow {
    /// Injected loss rate.
    pub rate: f64,
    /// Segmentation under B-frame MV loss.
    pub seg_bmv: SegLeg,
    /// Segmentation under mixed faults (all kinds, anchors included).
    pub seg_mixed: SegLeg,
    /// Detection under B-frame MV loss.
    pub det_bmv: DetLeg,
}

/// The complete sweep.
#[derive(Debug, Clone)]
pub(crate) struct Resilience {
    /// One row per swept loss rate, ascending.
    pub rows: Vec<ResilienceRow>,
}

/// Deterministic per-(rate, sequence) injector seed, so every rerun plants
/// the same faults and adjacent rates are not trivially nested patterns.
fn fault_seed(rate_idx: usize, seq_idx: usize, leg: u64) -> u64 {
    0x5eed_0000 + leg * 0x0100_0000 + (rate_idx as u64) * 251 + seq_idx as u64
}

/// A sequence with its packetized clean stream and suite index.
type Packetized<'a> = (usize, &'a Sequence, PacketStream);

fn seg_leg(
    model: &VrDann,
    pairs: &[Packetized<'_>],
    rate_idx: usize,
    leg_id: u64,
    cfg_of: impl Fn(u64) -> FaultConfig + Sync,
    score: impl Fn(&Sequence, &[vrd_video::SegMask]) -> vrd_metrics::SegScores + Sync,
) -> SegLeg {
    let per_seq = parallel_map(pairs, |(i, seq, ps)| {
        let (damaged, log) = inject(ps, &cfg_of(fault_seed(rate_idx, *i, leg_id)));
        let opts = ResilienceOptions::default();
        let input = RunInput::Resilient(&damaged, &opts);
        let run = model
            .run::<SegTask>(seq, input, None)
            .expect("resilient segmentation completes on damaged streams");
        let scores = score(seq, &run.outputs);
        (
            scores.iou,
            scores.f_score,
            log.events.len(),
            run.concealment,
        )
    });
    let n = per_seq.len().max(1) as f64;
    let mut leg = SegLeg::default();
    for (iou, f, events, conceal) in &per_seq {
        leg.j_mean += iou / n;
        leg.f_mean += f / n;
        leg.fault_events += events;
        leg.concealment.merge(conceal);
    }
    leg
}

fn det_ap(run: &DetectionRun, seq: &Sequence) -> f64 {
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

/// Runs the sweep at the given loss rates (ascending order recommended).
pub(crate) fn run_rates(ctx: &Context, rates: &[f64]) -> Resilience {
    // Encode + packetize once per sequence; only the injected faults vary
    // across rates.
    let seg_streams = parallel_map(&ctx.davis, |seq| {
        let encoded = ctx.model.encode(seq).expect("suite sequences encode");
        packetize(&encoded.bitstream).expect("valid streams packetize")
    });
    let seg_pairs: Vec<Packetized<'_>> = ctx
        .davis
        .iter()
        .zip(seg_streams)
        .enumerate()
        .map(|(i, (s, ps))| (i, s, ps))
        .collect();

    let det_model = ctx.detection_model();
    let vid = ctx.vid_suite();
    let det_streams = parallel_map(&vid, |seq| {
        let encoded = det_model.encode(seq).expect("suite sequences encode");
        packetize(&encoded.bitstream).expect("valid streams packetize")
    });
    let det_pairs: Vec<Packetized<'_>> = vid
        .iter()
        .zip(det_streams)
        .enumerate()
        .map(|(i, (s, ps))| (i, s, ps))
        .collect();

    let rows = rates
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            let seg_bmv = seg_leg(
                &ctx.model,
                &seg_pairs,
                ri,
                0,
                |seed| FaultConfig::b_mv_loss(rate, seed),
                |seq, masks| ctx.score(seq, masks),
            );
            let seg_mixed = seg_leg(
                &ctx.model,
                &seg_pairs,
                ri,
                1,
                |seed| FaultConfig::uniform(rate, seed),
                |seq, masks| ctx.score(seq, masks),
            );
            let det_results = parallel_map(&det_pairs, |(i, seq, ps)| {
                let cfg = FaultConfig::b_mv_loss(rate, fault_seed(ri, *i, 2));
                let (damaged, log) = inject(ps, &cfg);
                let opts = ResilienceOptions::default();
                let input = RunInput::Resilient(&damaged, &opts);
                let run: DetectionRun = det_model
                    .run::<DetTask>(seq, input, None)
                    .expect("resilient detection completes on damaged streams")
                    .into();
                (det_ap(&run, seq), log.events.len(), run.concealment)
            });
            let dn = det_results.len().max(1) as f64;
            let mut det_bmv = DetLeg::default();
            for (ap, events, conceal) in &det_results {
                det_bmv.map += ap / dn;
                det_bmv.fault_events += events;
                det_bmv.concealment.merge(conceal);
            }
            ResilienceRow {
                rate,
                seg_bmv,
                seg_mixed,
                det_bmv,
            }
        })
        .collect();
    Resilience { rows }
}

/// Runs the full sweep (all rates in [`RATES`]).
pub(crate) fn run(ctx: &Context) -> Resilience {
    run_rates(ctx, &RATES)
}

impl Resilience {
    /// Renders the degradation-curve table.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec![
            "loss",
            "J b-mv",
            "F b-mv",
            "J mixed",
            "det mAP",
            "faults b-mv",
            "faults mixed",
            "concealed",
        ]);
        for r in &self.rows {
            t.row(vec![
                fmt_pct(r.rate),
                fmt_score(r.seg_bmv.j_mean),
                fmt_score(r.seg_bmv.f_mean),
                fmt_score(r.seg_mixed.j_mean),
                fmt_score(r.det_bmv.map),
                r.seg_bmv.fault_events.to_string(),
                r.seg_mixed.fault_events.to_string(),
                (r.seg_bmv.concealment.total()
                    + r.seg_mixed.concealment.total()
                    + r.det_bmv.concealment.total())
                .to_string(),
            ]);
        }
        format!(
            "Resilience: accuracy vs injected loss rate (concealing pipeline)\n{}",
            t.render()
        )
    }

    /// Machine-readable JSON of the sweep (hand-rolled — the workspace
    /// carries no serialisation dependency).
    pub(crate) fn to_json(&self) -> String {
        fn conceal_json(c: &ConcealmentStats) -> String {
            format!(
                "{{\"b_copied\":{},\"b_salvaged\":{},\"anchors_lost\":{},\
                 \"anchors_substituted\":{},\"nnl_reinferences\":{},\"nns_failures\":{}}}",
                c.b_copied,
                c.b_salvaged,
                c.anchors_lost,
                c.anchors_substituted,
                c.nnl_reinferences,
                c.nns_failures
            )
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"rate\":{:.3},\
                     \"seg_b_mv\":{{\"j_mean\":{:.6},\"f_mean\":{:.6},\"fault_events\":{},\"concealment\":{}}},\
                     \"seg_mixed\":{{\"j_mean\":{:.6},\"f_mean\":{:.6},\"fault_events\":{},\"concealment\":{}}},\
                     \"det_b_mv\":{{\"map\":{:.6},\"fault_events\":{},\"concealment\":{}}}}}",
                    r.rate,
                    r.seg_bmv.j_mean,
                    r.seg_bmv.f_mean,
                    r.seg_bmv.fault_events,
                    conceal_json(&r.seg_bmv.concealment),
                    r.seg_mixed.j_mean,
                    r.seg_mixed.f_mean,
                    r.seg_mixed.fault_events,
                    conceal_json(&r.seg_mixed.concealment),
                    r.det_bmv.map,
                    r.det_bmv.fault_events,
                    conceal_json(&r.det_bmv.concealment),
                )
            })
            .collect();
        format!(
            "{{\n  \"experiment\": \"resilience\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_quick_zero_loss_is_clean_and_loss_degrades() {
        let sweep = run_rates(crate::context::quick(), &[0.0, 0.15]);
        assert_eq!(sweep.rows.len(), 2);
        let clean = sweep.rows[0];
        assert_eq!(clean.rate, 0.0);
        // No faults planted, nothing concealed: the clean pipeline's score.
        assert_eq!(clean.seg_bmv.fault_events, 0);
        assert!(clean.seg_bmv.concealment.is_clean());
        assert!(clean.seg_mixed.concealment.is_clean());
        assert!(clean.det_bmv.concealment.is_clean());
        assert!(
            clean.seg_bmv.j_mean > 0.3,
            "clean J {:.3}",
            clean.seg_bmv.j_mean
        );
        // At 15% loss something was planted, concealed, and the score is a
        // bounded degradation rather than a collapse.
        let lossy = sweep.rows[1];
        assert!(lossy.seg_bmv.fault_events > 0);
        assert!(lossy.seg_bmv.concealment.total() > 0);
        assert!(lossy.seg_bmv.j_mean <= clean.seg_bmv.j_mean + 1e-9);
        assert!(
            lossy.seg_bmv.j_mean > clean.seg_bmv.j_mean * 0.5,
            "J collapsed: {:.3} vs clean {:.3}",
            lossy.seg_bmv.j_mean,
            clean.seg_bmv.j_mean
        );
        let text = sweep.render();
        assert!(text.contains("Resilience"));
        assert!(text.contains("15.0%"));
        let json = sweep.to_json();
        assert!(json.contains("\"experiment\": \"resilience\""));
        assert!(json.contains("\"j_mean\""));
    }
}
