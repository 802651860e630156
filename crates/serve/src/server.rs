//! The serving façade: admit → drive → schedule → report.
//!
//! [`serve`] is the one call a deployment makes per load window: it offers
//! every requested session to the [`AdmissionController`] in order, drives
//! the admitted ones to exhaustion on `vrd-runtime`'s thread pool (real
//! NN-L/NN-S compute, one engine per session), then replays the merged
//! stamped work through the shared virtual NPU under **both** disciplines —
//! per-stream FIFO and cross-session batching — so every report carries its
//! own baseline. Rejected sessions cost nothing but the admission
//! projection.

use crate::admission::{
    AdmissionController, AdmissionProjection, RejectReason, SessionDemand, SloConfig,
};
use crate::error::{Result, ServeError};
use crate::sched::{check_sim, schedule, SchedConfig, SchedPolicy, ScheduleOutcome};
use crate::session::{drive_template, DrivenSession, SessionSpec, SessionState};
use vr_dann::VrDann;
use vrd_codec::EncodedVideo;
use vrd_sim::SimConfig;
use vrd_video::Sequence;

/// One requested recognition session: a sequence and its encoded stream.
pub(crate) type SessionJob<'a> = (&'a Sequence, &'a EncodedVideo);

/// Nominal frame interval as a multiple of one NN-L inference time at the
/// session's resolution — the per-session load knob (smaller = hotter).
/// Scale-invariant, so quick and full benches stress the NPU comparably.
const LOAD_FACTOR: f64 = 3.0;
/// Session `i` starts `i · STAGGER_FRAC · interval` into the window, so
/// streams interleave instead of arriving in lockstep. A non-integer value
/// spreads the sessions' *anchor phases* — lockstep or integer-staggered
/// streams would deliver their NN-L frames back-to-back, hiding the switch
/// cost FIFO pays on interleaved load.
const STAGGER_FRAC: f64 = 1.3;

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServeConfig {
    /// Shared-NPU scheduling knobs (shedding deadline, NPU online instant).
    pub sched: SchedConfig,
    /// Admission SLO.
    pub slo: SloConfig,
    /// Hardware cost model used for decode, service and switch timing.
    pub sim: SimConfig,
}

/// Per-session outcome of one serve window.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Sequence name.
    pub name: String,
    /// Where the session ended up.
    pub state: SessionState,
    /// Why it was rejected (rejected sessions only).
    pub reject: Option<RejectReason>,
    /// What admission projected when it accepted (admitted sessions only).
    pub projection: Option<AdmissionProjection>,
    /// Frames recognised (0 when rejected).
    pub frames: usize,
    /// Peak live pixel frames the session's source held.
    pub peak_live_frames: usize,
    /// Switches a dedicated in-order NPU would pay for this session alone.
    pub switches_in_order: usize,
    /// This session alone on dedicated hardware, in nanoseconds.
    pub isolated_ns: f64,
}

/// The outcome of one serve window.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-request outcomes, request order.
    pub sessions: Vec<SessionReport>,
    /// Sessions admitted.
    pub admitted: usize,
    /// Sessions rejected by admission control.
    pub rejected: usize,
    /// Projected NPU utilisation over the admitted set.
    pub projected_utilization: f64,
    /// The shared NPU under per-stream FIFO (the baseline).
    pub fifo: ScheduleOutcome,
    /// The shared NPU under cross-session batching (the proposed policy).
    pub batched: ScheduleOutcome,
}

impl ServeReport {
    /// Model switches the batching scheduler saved over per-stream FIFO.
    pub fn switches_saved(&self) -> i64 {
        self.fifo.switches as i64 - self.batched.switches as i64
    }
}

/// The admit-and-drive front half of [`serve`]: admission decisions in
/// request order plus every admitted session driven to exhaustion. Exposed
/// so fault-injection harnesses (`chaos_bench`) can pay the compute once
/// and replay the same driven work under many fault plans.
///
/// # Errors
/// Returns [`ServeError::Session`] when an admitted session's decode or
/// engine fails.
#[allow(clippy::type_complexity)]
pub fn admit_and_drive(
    model: &VrDann,
    requests: &[SessionJob<'_>],
    cfg: &ServeConfig,
) -> Result<(
    Vec<std::result::Result<AdmissionProjection, RejectReason>>,
    Vec<DrivenSession>,
    f64,
)> {
    // Admission pass: request order, deterministic.
    let mut controller = AdmissionController::new(cfg.slo, cfg.sim);
    let mut decisions: Vec<std::result::Result<AdmissionProjection, RejectReason>> =
        Vec::with_capacity(requests.len());
    let mut admitted_jobs: Vec<(usize, usize, SessionSpec)> = Vec::new();
    for (r, (seq, encoded)) in requests.iter().enumerate() {
        // Pacing is a multiple of the stream's own NN-L time.
        let mut demand = SessionDemand::estimate(model, seq, encoded, 0.0);
        let interval = LOAD_FACTOR * demand.nnl_ns(&cfg.sim);
        demand.frame_interval_ns = interval;
        let decision = controller.try_admit(&demand);
        if decision.is_ok() {
            let session = admitted_jobs.len();
            let spec = SessionSpec {
                start_offset_ns: session as f64 * STAGGER_FRAC * interval,
                frame_interval_ns: interval,
            };
            admitted_jobs.push((session, r, spec));
        }
        decisions.push(decision);
    }

    // Drive every admitted session concurrently — the real compute phase.
    let driven: Vec<vr_dann::Result<DrivenSession>> =
        vrd_runtime::parallel_map(&admitted_jobs, |&(session, r, spec)| {
            let (seq, encoded) = requests[r];
            let template = drive_template(model, seq, encoded, &cfg.sim)?;
            Ok(template.instantiate(session, &spec))
        });
    let mut sessions_driven = Vec::with_capacity(driven.len());
    for (d, &(session, r, _)) in driven.into_iter().zip(&admitted_jobs) {
        sessions_driven.push(d.map_err(|source| ServeError::Session {
            session,
            name: requests[r].0.name.clone(),
            source,
        })?);
    }
    Ok((decisions, sessions_driven, controller.utilization()))
}

/// Serves one window of sessions: admission in request order, admitted
/// sessions driven concurrently, the merged work replayed under FIFO and
/// batching. Deterministic for fixed inputs and configuration.
///
/// # Errors
/// [`ServeError::Refused`], before any session is driven, when `cfg.sim`
/// fails [`SimConfig::validate`]; otherwise propagates decode/engine
/// failures from any admitted session (with the session's identity
/// attached) and scheduler invariant violations.
pub fn serve(
    model: &VrDann,
    requests: &[SessionJob<'_>],
    cfg: &ServeConfig,
) -> Result<ServeReport> {
    check_sim(&cfg.sim)?;
    let (decisions, sessions_driven, projected_utilization) =
        admit_and_drive(model, requests, cfg)?;

    // Replay the merged work under both disciplines, no fault plan.
    let replay = |policy| schedule(&sessions_driven, policy, &cfg.sched, &cfg.sim, None);
    let fifo = replay(SchedPolicy::Fifo)?;
    let batched = replay(SchedPolicy::Batch)?;

    // Stitch per-request reports back into request order.
    let mut reports = Vec::with_capacity(requests.len());
    let mut next_admitted = 0usize;
    for (r, (seq, _)) in requests.iter().enumerate() {
        let report = match &decisions[r] {
            Ok(projection) => {
                let d = &sessions_driven[next_admitted];
                next_admitted += 1;
                SessionReport {
                    name: seq.name.clone(),
                    state: SessionState::Drained,
                    reject: None,
                    projection: Some(*projection),
                    frames: d.frames,
                    peak_live_frames: d.peak_live_frames,
                    switches_in_order: d.switches_in_order,
                    isolated_ns: d.isolated_ns,
                }
            }
            Err(reason) => SessionReport {
                name: seq.name.clone(),
                state: SessionState::Rejected,
                reject: Some(*reason),
                projection: None,
                frames: 0,
                peak_live_frames: 0,
                switches_in_order: 0,
                isolated_ns: 0.0,
            },
        };
        reports.push(report);
    }

    Ok(ServeReport {
        admitted: sessions_driven.len(),
        rejected: requests.len() - sessions_driven.len(),
        projected_utilization,
        sessions: reports,
        fifo,
        batched,
    })
}
