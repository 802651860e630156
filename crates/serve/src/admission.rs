//! Deadline-aware admission control.
//!
//! Before a session runs a single inference, the controller projects what
//! admitting it would do to the shared NPU: per-session compute demand is
//! estimated analytically from the *encoded stream's* statistics (anchor /
//! B-frame counts, frame geometry) and the cost model — no decode needed —
//! and the switch overhead assumes the batching scheduler, which amortises
//! one NN-L ↔ NN-S swap pair over a whole batch window. A session is
//! rejected when the projected utilisation reaches `MAX_UTILIZATION` (0.9)
//! or the projected p99 frame latency blows the SLO; admission is strictly
//! in request order, so the decision sequence is deterministic.

use vr_dann::{ComputeMode, VrDann};
use vrd_codec::EncodedVideo;
use vrd_nn::LargeNet;
use vrd_sim::{Model, SimConfig, B_Q_ENTRIES};
use vrd_video::Sequence;

/// Projected NPU utilisation (compute + amortised switching) must stay
/// below this fraction.
const MAX_UTILIZATION: f64 = 0.9;

/// The service-level objective a deployment promises its sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Projected p99 frame latency must stay below this, in nanoseconds.
    pub target_p99_ns: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self { target_p99_ns: 8e6 }
    }
}

/// Why a session was turned away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// Admitting it would push projected NPU utilisation past the ceiling.
    Utilization {
        /// The utilisation the session would have produced.
        projected: f64,
    },
    /// Utilisation fits, but the projected p99 frame latency breaks the SLO.
    LatencySlo {
        /// The p99 latency the session would have produced, in nanoseconds.
        projected_p99_ns: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Utilization { projected } => {
                write!(f, "utilization {projected:.3} over ceiling")
            }
            RejectReason::LatencySlo { projected_p99_ns } => {
                write!(f, "projected p99 {:.2} ms over SLO", projected_p99_ns / 1e6)
            }
        }
    }
}

/// What admission projected for an accepted session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionProjection {
    /// NPU utilisation with this session included.
    pub utilization: f64,
    /// Projected p99 frame latency with this session included.
    pub projected_p99_ns: f64,
}

/// Analytic per-session demand, derived from encode statistics alone. It
/// holds *work* — operation counts and frame counts — and asks the cost
/// model ([`vrd_sim::cost`]) for time at the point of use, so the same
/// demand can be billed under any [`SimConfig`] or restamped to another
/// compute mode without re-estimating the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionDemand {
    /// Operations of one NN-L inference at the session's resolution.
    pub nnl_ops: u64,
    /// Operations of one NN-S inference at the session's resolution.
    pub nns_ops: u64,
    /// The NN-S compute mode the session is billed at: an int8 stream
    /// claims genuinely less of the NPU.
    pub compute: ComputeMode,
    /// Anchor (I/P) frames in the stream.
    pub anchors: usize,
    /// B-frames in the stream.
    pub b_frames: usize,
    /// Nominal inter-frame arrival gap, in nanoseconds.
    pub frame_interval_ns: f64,
}

impl SessionDemand {
    /// Estimates demand for one request from its encode statistics (anchors
    /// run NN-L, B-frames run NN-S — the VR-DANN compute split), billed at
    /// the model's own compute mode.
    pub fn estimate(
        model: &VrDann,
        seq: &Sequence,
        encoded: &EncodedVideo,
        frame_interval_ns: f64,
    ) -> Self {
        let n = encoded.stats.n_frames;
        let b = encoded.stats.b_frames.min(n);
        Self {
            nnl_ops: LargeNet::new(model.config().segment_profile).ops(seq.width(), seq.height()),
            nns_ops: 2 * model.nns().macs(seq.height(), seq.width()),
            compute: model.config().compute,
            anchors: n - b,
            b_frames: b,
            frame_interval_ns,
        }
    }

    /// One NN-L inference, in nanoseconds.
    pub fn nnl_ns(&self, sim: &SimConfig) -> f64 {
        sim.service_ns(self.nnl_ops, Model::Large, self.compute)
    }

    /// One NN-S inference at the session's compute mode, in nanoseconds.
    pub fn nns_ns(&self, sim: &SimConfig) -> f64 {
        sim.service_ns(self.nns_ops, Model::Small, self.compute)
    }

    /// Steady-state compute utilisation this session puts on the NPU.
    pub fn compute_utilization(&self, sim: &SimConfig) -> f64 {
        let n = (self.anchors + self.b_frames).max(1) as f64;
        let mean_ns =
            (self.anchors as f64 * self.nnl_ns(sim) + self.b_frames as f64 * self.nns_ns(sim)) / n;
        mean_ns / self.frame_interval_ns
    }

    /// Switch overhead under the batching scheduler: one NN-L ↔ NN-S swap
    /// pair amortised over a full batch window, the [`B_Q_ENTRIES`] serves
    /// the scheduler's batch cap allows.
    pub fn switch_utilization(&self, sim: &SimConfig) -> f64 {
        sim.switch_pair_ns() / B_Q_ENTRIES as f64 / self.frame_interval_ns
    }

    /// The worst frame's pass through an idle NPU: switch the large model
    /// in, run NN-L, switch back. The base the p99 projection inflates.
    pub fn unloaded_anchor_ns(&self, sim: &SimConfig) -> f64 {
        // Summed in service order, not as NN-L + `switch_pair_ns()`: the
        // two associate differently and admission decisions are pinned.
        self.nnl_ns(sim)
            + sim.switch_ns(Some(Model::Small), Model::Large)
            + sim.switch_ns(Some(Model::Large), Model::Small)
    }
}

/// Sequential admission: sessions are offered in request order and the
/// accepted load accumulates.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionController {
    slo: SloConfig,
    sim: SimConfig,
    utilization: f64,
    worst_base_ns: f64,
}

impl AdmissionController {
    /// A controller with no accepted load yet.
    pub(crate) fn new(slo: SloConfig, sim: SimConfig) -> Self {
        Self {
            slo,
            sim,
            utilization: 0.0,
            worst_base_ns: 0.0,
        }
    }

    /// Projected NPU utilisation over the currently accepted sessions.
    pub(crate) fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Projects the p99 frame latency at utilisation `u`: the worst
    /// accepted frame's unloaded pass (decode hand-over is dwarfed by one
    /// NN-L plus a switch pair) inflated by the standard 1/(1−u) queueing
    /// factor. At `u ≥ 1` the queue has no stationary distribution, so the
    /// projection is pinned to `+∞` — a finite positive value the SLO
    /// comparison rejects deterministically. Without the guard, `1 − u`
    /// goes to zero or negative and the division yields a non-finite or
    /// *negative* latency; a negative projection would pass the
    /// `p99 > target` check and admit a session onto a saturated shard.
    fn project_p99_ns(&self, base_ns: f64, u: f64) -> f64 {
        if u >= 1.0 {
            return f64::INFINITY;
        }
        base_ns / (1.0 - u)
    }

    /// Offers one session. Accepting it updates the accumulated load;
    /// rejecting it leaves the controller unchanged.
    ///
    /// # Errors
    /// Returns the [`RejectReason`] when the projection breaks the SLO.
    pub(crate) fn try_admit(
        &mut self,
        demand: &SessionDemand,
    ) -> std::result::Result<AdmissionProjection, RejectReason> {
        let u = self.utilization
            + demand.compute_utilization(&self.sim)
            + demand.switch_utilization(&self.sim);
        if u >= MAX_UTILIZATION {
            return Err(RejectReason::Utilization { projected: u });
        }
        let base = demand.unloaded_anchor_ns(&self.sim).max(self.worst_base_ns);
        let p99 = self.project_p99_ns(base, u);
        if p99 > self.slo.target_p99_ns {
            return Err(RejectReason::LatencySlo {
                projected_p99_ns: p99,
            });
        }
        self.utilization = u;
        self.worst_base_ns = base;
        Ok(AdmissionProjection {
            utilization: u,
            projected_p99_ns: p99,
        })
    }

    /// Returns an admitted session's load to the pool — the fleet layer
    /// calls this when a stream drains (or churns out mid-stream) so a
    /// long-lived shard can admit newcomers into the freed headroom.
    /// `demand` must be the same estimate the session was admitted with.
    /// `worst_base_ns` is deliberately *not* rewound: it is a high-water
    /// mark of the worst frame the shard ever carried, and keeping it makes
    /// the p99 projection conservative rather than optimistic after churn.
    pub(crate) fn release(&mut self, demand: &SessionDemand) {
        let u = demand.compute_utilization(&self.sim) + demand.switch_utilization(&self.sim);
        self.utilization = (self.utilization - u).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(interval_ns: f64) -> SessionDemand {
        // 570 us of NN-L and 0.5 us of NN-S at the default service rate.
        SessionDemand {
            nnl_ops: 3_739_200_000,
            nns_ops: 3_280_000,
            compute: ComputeMode::F32Reference,
            anchors: 6,
            b_frames: 10,
            frame_interval_ns: interval_ns,
        }
    }

    #[test]
    fn utilization_accumulates_until_the_ceiling() {
        let mut ctl = AdmissionController::new(
            SloConfig {
                target_p99_ns: f64::INFINITY,
            },
            SimConfig::default(),
        );
        let d = demand(1_710_000.0);
        let sim = SimConfig::default();
        let per = d.compute_utilization(&sim) + d.switch_utilization(&sim);
        let fit = (MAX_UTILIZATION / per) as usize;
        for i in 0..fit {
            assert!(ctl.try_admit(&d).is_ok(), "session {i} should fit");
        }
        let rejected = ctl.try_admit(&d);
        assert!(matches!(rejected, Err(RejectReason::Utilization { .. })));
        // A rejected offer leaves the accepted load unchanged.
        let before = ctl.utilization();
        let _ = ctl.try_admit(&d);
        assert_eq!(ctl.utilization(), before);
    }

    #[test]
    fn latency_slo_rejects_before_the_utilization_ceiling() {
        let sim = SimConfig::default();
        let d = demand(1_710_000.0);
        let base = d.unloaded_anchor_ns(&sim);
        // An SLO just above the unloaded base: the first session fits, load
        // quickly inflates past it.
        let mut ctl = AdmissionController::new(
            SloConfig {
                target_p99_ns: base * 1.4,
            },
            sim,
        );
        let mut admitted = 0usize;
        let reason = loop {
            match ctl.try_admit(&d) {
                Ok(_) => admitted += 1,
                Err(r) => break r,
            }
            assert!(admitted < 100, "never rejected");
        };
        assert!(matches!(reason, RejectReason::LatencySlo { .. }));
        assert!(admitted >= 1);
        assert!(ctl.utilization() < MAX_UTILIZATION);
    }

    #[test]
    fn faster_arrivals_demand_more() {
        let slow = demand(2e6);
        let fast = demand(1e6);
        let sim = SimConfig::default();
        assert!(fast.compute_utilization(&sim) > slow.compute_utilization(&sim));
        assert!(fast.switch_utilization(&sim) > slow.switch_utilization(&sim));
    }

    #[test]
    fn int8_demand_claims_less_of_the_npu() {
        let sim = SimConfig::default();
        // A B-heavy stream where NN-S dominates the compute term, so the
        // mode actually moves the needle.
        let f32_d = SessionDemand {
            nns_ops: 262_400_000,
            anchors: 2,
            b_frames: 60,
            ..demand(150_000.0)
        };
        let int8_d = SessionDemand {
            compute: ComputeMode::Int8,
            ..f32_d
        };
        assert!(int8_d.compute_utilization(&sim) < f32_d.compute_utilization(&sim));
        // Anchors run in full either way.
        assert_eq!(int8_d.nnl_ns(&sim), f32_d.nnl_ns(&sim));

        // The freed headroom is real: the controller admits strictly more
        // int8 sessions than f32 ones under the same ceiling.
        let slo = SloConfig {
            target_p99_ns: f64::INFINITY,
        };
        let count = |d: &SessionDemand| {
            let mut ctl = AdmissionController::new(slo, sim);
            let mut n = 0usize;
            while ctl.try_admit(d).is_ok() {
                n += 1;
                assert!(n < 1_000, "never saturated");
            }
            n
        };
        assert!(
            count(&int8_d) > count(&f32_d),
            "int8 {} vs f32 {}",
            count(&int8_d),
            count(&f32_d)
        );
    }

    #[test]
    fn saturated_projection_stays_finite_in_sign_and_rejects() {
        // The 1/(1−u) inflation near saturation. At u = 0.999 the head is
        // a real (tiny) number: the projection must be finite, positive and
        // astronomically over any sane SLO. At u = 1.0 (and beyond) there
        // is no stationary queue: the projection pins to +∞ and the SLO
        // check rejects deterministically — it must never go negative and
        // sneak past the `p99 > target` comparison.
        let slo = SloConfig::default();
        let sim = SimConfig::default();
        let mut ctl = AdmissionController::new(slo, sim);
        let base = 1_000_000.0;

        // u = 0.999: finite, positive, 1000× the base — over any SLO.
        let p = ctl.project_p99_ns(base, 0.999);
        assert!(p.is_finite() && p > 0.0);
        assert!((p - base / 0.001).abs() / p < 1e-9, "p99 {p}");
        assert!(p > slo.target_p99_ns);

        // u = 1.0: pinned to +∞, which still compares > target.
        let p = ctl.project_p99_ns(base, 1.0);
        assert!(p.is_infinite() && p > 0.0);
        assert!(p > slo.target_p99_ns);

        // u > 1.0 (overcommitted shard): also +∞ — the naive formula
        // would produce a *negative* projection here and wrongly admit.
        let p = ctl.project_p99_ns(base, 1.25);
        assert!(p.is_infinite() && p > 0.0);

        // End to end: a demand that lands utilisation past saturation is
        // rejected by the utilisation ceiling before any latency is
        // projected, and the controller state is untouched by the
        // rejection.
        let d = SessionDemand {
            anchors: 1,
            b_frames: 0,
            // interval == NN-L time → compute utilisation exactly 1.0; the
            // switch term pushes it strictly past saturation.
            ..demand(demand(1.0).nnl_ns(&sim))
        };
        let before = ctl.utilization();
        match ctl.try_admit(&d) {
            Err(RejectReason::Utilization { projected }) => assert!(projected > 1.0),
            other => panic!("saturated shard admitted: {other:?}"),
        }
        assert_eq!(ctl.utilization(), before);
    }

    #[test]
    fn release_returns_headroom_for_new_admissions() {
        let slo = SloConfig {
            target_p99_ns: f64::INFINITY,
        };
        let sim = SimConfig::default();
        let d = demand(1_710_000.0);
        let mut ctl = AdmissionController::new(slo, sim);
        let mut admitted = 0usize;
        while ctl.try_admit(&d).is_ok() {
            admitted += 1;
            assert!(admitted < 1_000);
        }
        assert!(ctl.try_admit(&d).is_err());
        // One stream drains: exactly one newcomer fits again.
        ctl.release(&d);
        assert!(ctl.try_admit(&d).is_ok());
        assert!(ctl.try_admit(&d).is_err());
        // Releasing everything floors at zero, never negative.
        for _ in 0..admitted + 8 {
            ctl.release(&d);
        }
        assert_eq!(ctl.utilization(), 0.0);
    }

    #[test]
    fn reject_reasons_render() {
        let u = RejectReason::Utilization { projected: 1.05 };
        let l = RejectReason::LatencySlo {
            projected_p99_ns: 9e6,
        };
        assert!(u.to_string().contains("1.050"));
        assert!(l.to_string().contains("9.00 ms"));
    }
}
