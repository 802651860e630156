//! Fleet-scale serving: sharded virtual NPUs, affinity placement,
//! autoscaling admission.
//!
//! One virtual NPU tops out around eight concurrent sessions (the
//! `serve_bench` sweep); the ROADMAP's north star is "heavy traffic from
//! millions of users". This module scales the serving layer out instead of
//! up: a **fleet** of virtual NPU shards, each running the same
//! deterministic event loop ([`crate::sched`]) behind its own
//! [`AdmissionController`], fed by a traffic trace from
//! [`crate::loadgen`].
//!
//! The simulation is a two-phase design:
//!
//! 1. **Placement walk** — arrivals are processed in time order. Each
//!    offered session is billed analytically ([`SessionDemand`] — work,
//!    restamped with the arrival's pacing and compute mode and priced by
//!    [`vrd_sim::cost`]) and placed on the active
//!    shard with the best *model-affinity* score: shards accumulate a mean
//!    NN-L compute fraction over their resident sessions, and a session
//!    prefers the shard whose mix looks most like its own — NN-L-heavy
//!    (short-GOP, detection-anchor) streams cluster apart from
//!    NN-S-dominated ones, which preserves the lagged-queue batching win
//!    that cross-session scheduling exists to harvest. Load and shard
//!    index break ties, so placement is a pure function of the trace.
//!    Departures (drained streams and mid-stream churn) release their
//!    demand back to the owning shard. An optional **rebalance** rule
//!    steals the most recently placed session from the hottest shard for
//!    the coolest when utilisation skew crosses a threshold; an optional
//!    **autoscaler** adds shards ahead of projected demand (and reactively
//!    when every shard rejects), and drains the emptiest shard after a
//!    cooldown when the fleet is over-provisioned (its thresholds are the
//!    `AUTOSCALE_*` constants).
//! 2. **Replay** — every shard's final session set is instantiated from
//!    its stream template ([`crate::session::SessionTemplate`], a prefix
//!    for churned sessions) and replayed through the shared-NPU event loop
//!    under [`SchedPolicy::Batch`] (the cross-session batching the
//!    affinity placement preserves), in parallel (workers claim shards one
//!    at a time — shard costs are skewed by construction, so fixed chunks
//!    would serialise the hot tail).
//!    A shard created at `t` starts serving at
//!    `t + `[`vrd_sim::SHARD_SPINUP_NS`] — autoscaling pays its
//!    provisioning latency on the simulated clock, not for free.
//!
//! Migrated sessions replay entirely on their final shard (migration is a
//! placement-time correction, not a mid-schedule hand-off), and departure
//! instants are accounted at nominal stream pacing; both keep the
//! placement walk analytic while the replay stays exact. Everything is
//! deterministic: the same trace, library and config produce a
//! byte-identical [`FleetReport`] at any worker-thread count.

use crate::admission::{AdmissionController, RejectReason, SessionDemand, SloConfig};
use crate::error::{Result, ServeError};
use crate::loadgen::{SessionArrival, TrafficTrace};
use crate::metrics::LatencyStats;
use crate::sched::{check_sim, schedule, SchedConfig, SchedPolicy, ScheduleOutcome};
use crate::session::{DrivenSession, SessionSpec, SessionTemplate};
use vrd_sim::{SimConfig, SHARD_SPINUP_NS};

/// One stream the fleet can serve: a driven template plus the admission
/// demand it was estimated with. Arrivals resolve to entries by
/// `stream % library.len()`; pacing and compute mode are restamped per
/// arrival.
#[derive(Debug, Clone)]
pub struct StreamEntry {
    /// The stream's engine emissions, pacing unstamped.
    pub template: SessionTemplate,
    /// Analytic demand prototype (`frame_interval_ns` is overwritten by
    /// each arrival's pacing).
    pub demand: SessionDemand,
}

/// Per-shard utilisation the proactive autoscaler provisions for: shards
/// are added so `fleet utilisation / active shards` stays near this.
const AUTOSCALE_TARGET_UTILIZATION: f64 = 0.6;
/// The autoscaler drains a shard when the fleet could serve its load with
/// one fewer shard below this mean utilisation.
const AUTOSCALE_SCALE_DOWN_LEVEL: f64 = 0.35;
/// Minimum simulated time between scale-down events (scale-*up* is never
/// throttled — a spike must be absorbed immediately).
const AUTOSCALE_COOLDOWN_NS: f64 = 2e7;

/// Work-stealing rebalance knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Steal when `max − min` active-shard utilisation exceeds this.
    pub skew_threshold: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            skew_threshold: 0.25,
        }
    }
}

/// Fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Shards provisioned at `t = 0` (also the autoscaler's floor).
    pub min_shards: usize,
    /// The autoscaler's ceiling. With `autoscale: false` the fleet runs
    /// exactly `min_shards` shards for the whole window.
    pub max_shards: usize,
    /// Per-shard admission SLO.
    pub slo: SloConfig,
    /// Hardware cost model.
    pub sim: SimConfig,
    /// Run the autoscaler (`false` = fixed fleet).
    pub autoscale: bool,
    /// Skew-triggered work stealing (`None` = placements are final).
    pub rebalance: Option<RebalanceConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            min_shards: 1,
            max_shards: 8,
            slo: SloConfig::default(),
            sim: SimConfig::default(),
            autoscale: true,
            rebalance: Some(RebalanceConfig::default()),
        }
    }
}

/// Where one offered session ended up. Every offer gets exactly one fate —
/// the conservation law the proptest suite pins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OfferFate {
    /// Admitted to (and replayed on) this shard.
    Admitted {
        /// Final owning shard index.
        shard: usize,
    },
    /// Every shard's admission controller turned it away.
    Rejected {
        /// The best-placed shard's reason.
        reason: RejectReason,
    },
    /// Churned out before contributing a single work item.
    ChurnedOut,
}

/// One shard's outcome over the window.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Instant the shard was provisioned.
    pub created_ns: f64,
    /// Instant it finished draining (`None` = alive at window end).
    pub retired_ns: Option<f64>,
    /// Sessions that finally resided here.
    pub sessions: usize,
    /// Sessions stolen from hotter shards.
    pub migrations_in: usize,
    /// Peak admitted utilisation the shard's controller reached.
    pub peak_utilization: f64,
    /// Energy over the shard's active window (compute + static draw).
    pub energy_j: f64,
    /// The shard's replayed schedule.
    pub outcome: ScheduleOutcome,
}

/// The fleet-wide outcome of one traffic window.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-offer fates, offer order.
    pub fates: Vec<OfferFate>,
    /// Sessions offered.
    pub offered: usize,
    /// Sessions admitted to a shard.
    pub admitted: usize,
    /// Sessions rejected by every shard.
    pub rejected: usize,
    /// Sessions that churned out before service.
    pub churned_out: usize,
    /// Peak simultaneously-resident sessions across the fleet.
    pub peak_concurrent: usize,
    /// Sessions moved by the rebalancer.
    pub migrations: usize,
    /// Shards added after `t = 0`.
    pub scale_ups: usize,
    /// Shards drained by the autoscaler.
    pub scale_downs: usize,
    /// Peak simultaneously-active shards.
    pub peak_shards: usize,
    /// Per-shard outcomes, creation order.
    pub shards: Vec<ShardReport>,
    /// Frames served across the fleet.
    pub frames_served: usize,
    /// Frames shed across the fleet.
    pub frames_shed: usize,
    /// NN-L ↔ NN-S switches paid across the fleet.
    pub switches: usize,
    /// NPU busy time summed over shards.
    pub busy_ns: f64,
    /// Completion time of the last served frame on any shard.
    pub makespan_ns: f64,
    /// Served frames per second of makespan.
    pub throughput_fps: f64,
    /// Fleet-wide frame latency, computed over the *merged* per-shard raw
    /// samples (percentiles of per-shard percentiles would be wrong).
    pub latency: LatencyStats,
    /// Energy summed over shards.
    pub energy_j: f64,
}

impl FleetReport {
    /// Fraction of NPU-bound frames that were shed instead of served.
    pub fn shed_rate(&self) -> f64 {
        let total = self.frames_served + self.frames_shed;
        if total == 0 {
            0.0
        } else {
            self.frames_shed as f64 / total as f64
        }
    }
}

/// Internal placement-walk state of one shard.
struct ShardState {
    created_ns: f64,
    draining_since: Option<f64>,
    retired_ns: Option<f64>,
    controller: AdmissionController,
    /// Resident sessions as indices into [`Walk::placements`], placement
    /// order (the rebalancer steals the tail).
    resident: Vec<usize>,
    /// Sum of resident sessions' NN-L compute fractions (affinity mean).
    affinity_sum: f64,
    peak_utilization: f64,
    migrations_in: usize,
}

impl ShardState {
    fn new(created_ns: f64, cfg: &FleetConfig) -> Self {
        Self {
            created_ns,
            draining_since: None,
            retired_ns: None,
            controller: AdmissionController::new(cfg.slo, cfg.sim),
            resident: Vec::new(),
            affinity_sum: 0.0,
            peak_utilization: 0.0,
            migrations_in: 0,
        }
    }

    fn is_active(&self) -> bool {
        self.draining_since.is_none()
    }

    fn utilization(&self) -> f64 {
        self.controller.utilization()
    }

    /// Mean NN-L compute fraction of the resident sessions (0.5 when
    /// empty — a fresh shard is equally attractive to both mixes).
    fn affinity_mean(&self) -> f64 {
        if self.resident.is_empty() {
            0.5
        } else {
            self.affinity_sum / self.resident.len() as f64
        }
    }

    /// Takes session `idx` in; the caller's `try_admit` already billed it.
    fn settle(&mut self, idx: usize, affinity: f64) {
        self.resident.push(idx);
        self.affinity_sum += affinity;
        self.peak_utilization = self.peak_utilization.max(self.utilization());
    }

    /// Returns session `idx`'s demand and affinity to the pool.
    fn evict(&mut self, idx: usize, s: &Placement) {
        self.controller.release(&s.demand);
        self.affinity_sum -= s.affinity;
        self.resident.retain(|&r| r != idx);
    }
}

/// Weight of the affinity term against utilisation in the placement
/// score. Affinity distances span [0, 1] and per-session utilisation
/// steps are ~0.1, so a weight of 2 keeps like-with-like placement
/// decisive until a shard is badly overloaded relative to its peers.
const AFFINITY_WEIGHT: f64 = 2.0;

/// Fraction of a session's NPU time spent in NN-L — the placement
/// affinity axis.
fn nnl_fraction(d: &SessionDemand, sim: &SimConfig) -> f64 {
    let l = d.anchors as f64 * d.nnl_ns(sim);
    let s = d.b_frames as f64 * d.nns_ns(sim);
    if l + s > 0.0 {
        l / (l + s)
    } else {
        0.5
    }
}

/// One arrival resolved against the library and billed: what the walk
/// places and, once admitted, what the replay instantiates.
struct Placement {
    /// Position in the trace.
    offer: usize,
    /// Owning shard: set by `place`, moved by `rebalance`, final once the
    /// walk ends.
    shard: usize,
    /// The entry's demand restamped with the arrival's pacing and mode.
    demand: SessionDemand,
    affinity: f64,
    /// Template items the session contributes (full length unless churned).
    budget_items: usize,
    /// When its stream ends or it churns out, at nominal pacing.
    end_ns: f64,
}

impl Placement {
    /// Bills `arr` against its library `entry`. `None` when the session
    /// churns out with an empty prefix: only work whose decode unit fully
    /// arrives (one pacing interval) before departure is ever offered, so
    /// a session that leaves within its first interval never reaches
    /// admission.
    fn bill(
        offer: usize,
        arr: &SessionArrival,
        entry: &StreamEntry,
        sim: &SimConfig,
    ) -> Option<Self> {
        let t = arr.arrive_ns;
        let mut demand = entry.demand;
        if arr.interval_ns > 0.0 {
            demand.frame_interval_ns = arr.interval_ns;
        }
        demand.compute = arr.shape.compute;
        let interval_ns = demand.frame_interval_ns;
        let nominal_end = t + entry.template.frames.max(1) as f64 * interval_ns;
        let (end_ns, budget_items) = match arr.depart_ns {
            Some(d) => {
                let dur = (d - t).max(0.0);
                let n = entry
                    .template
                    .items
                    .iter()
                    .filter(|it| (it.arrive_idx as f64 + 1.0) * interval_ns <= dur)
                    .count();
                (d.min(nominal_end), n)
            }
            None => (nominal_end, entry.template.items.len()),
        };
        (budget_items > 0).then(|| Self {
            offer,
            shard: 0,
            affinity: nnl_fraction(&demand, sim),
            demand,
            budget_items,
            end_ns,
        })
    }
}

/// The placement walk: shards, the sessions admitted so far and the
/// fleet-level counters, advanced one arrival at a time.
struct Walk<'a> {
    cfg: &'a FleetConfig,
    min_shards: usize,
    max_shards: usize,
    shards: Vec<ShardState>,
    /// Per-offer fates, offer order.
    fates: Vec<OfferFate>,
    /// Admitted sessions, offer order; shards and departures hold indices
    /// into this list.
    placements: Vec<Placement>,
    /// (end_ns, placement index) of resident sessions, drained as the clock
    /// passes.
    departures: Vec<(f64, usize)>,
    migrations: usize,
    scale_ups: usize,
    scale_downs: usize,
    peak_concurrent: usize,
    peak_shards: usize,
    last_scale_down_ns: f64,
}

impl<'a> Walk<'a> {
    fn new(cfg: &'a FleetConfig) -> Self {
        let min_shards = cfg.min_shards.max(1);
        Self {
            cfg,
            min_shards,
            max_shards: cfg.max_shards.max(min_shards),
            shards: (0..min_shards).map(|_| ShardState::new(0.0, cfg)).collect(),
            fates: Vec::new(),
            placements: Vec::new(),
            departures: Vec::new(),
            migrations: 0,
            scale_ups: 0,
            scale_downs: 0,
            peak_concurrent: 0,
            peak_shards: min_shards,
            last_scale_down_ns: f64::NEG_INFINITY,
        }
    }

    fn active(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.shards.len()).filter(|&i| self.shards[i].is_active())
    }

    fn note_peak_shards(&mut self) {
        let alive = self
            .shards
            .iter()
            .filter(|s| s.retired_ns.is_none())
            .count();
        self.peak_shards = self.peak_shards.max(alive);
    }

    /// Sessions whose streams ended (or churned out) by `t` release their
    /// demand — in end-time order, ids breaking ties, so the controller
    /// state is a pure function of the trace.
    fn depart_until(&mut self, t: f64) {
        self.departures
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let gone = self.departures.partition_point(|&(end, _)| end <= t);
        for (end, idx) in self.departures.drain(..gone) {
            let shard = &mut self.shards[self.placements[idx].shard];
            shard.evict(idx, &self.placements[idx]);
            if shard.draining_since.is_some() && shard.resident.is_empty() {
                shard.retired_ns = Some(end);
            }
        }
    }

    /// Proactively sizes the active set for the load `offer` projects, and
    /// drains the emptiest shard when over-provisioned.
    fn autoscale(&mut self, t: f64, offer: &Placement) {
        let cfg = self.cfg;
        if !cfg.autoscale {
            return;
        }
        let new_util =
            offer.demand.compute_utilization(&cfg.sim) + offer.demand.switch_utilization(&cfg.sim);
        let fleet_util: f64 = self.active().map(|i| self.shards[i].utilization()).sum();
        let needed = ((fleet_util + new_util) / AUTOSCALE_TARGET_UTILIZATION).ceil() as usize;
        let mut active_now = self.active().count();
        while active_now < needed.min(self.max_shards) {
            self.shards.push(ShardState::new(t, cfg));
            self.scale_ups += 1;
            active_now += 1;
        }
        if active_now > self.min_shards
            && t - self.last_scale_down_ns >= AUTOSCALE_COOLDOWN_NS
            && fleet_util / active_now as f64 <= AUTOSCALE_SCALE_DOWN_LEVEL
            && fleet_util / (active_now - 1) as f64 <= AUTOSCALE_TARGET_UTILIZATION
        {
            // Drain the emptiest active shard; highest index breaks ties
            // so the longest-lived shards persist.
            let victim = self.active().min_by(|&i, &j| {
                self.shards[i]
                    .utilization()
                    .total_cmp(&self.shards[j].utilization())
                    .then(j.cmp(&i))
            });
            if let Some(victim) = victim {
                let shard = &mut self.shards[victim];
                shard.draining_since = Some(t);
                if shard.resident.is_empty() {
                    shard.retired_ns = Some(t);
                }
                self.scale_downs += 1;
                self.last_scale_down_ns = t;
            }
        }
    }

    /// Affinity placement: active shards ordered by how closely their
    /// resident NN-L mix matches the session's, load and index breaking
    /// ties; the first whose controller admits takes it. When every
    /// running shard says no and the autoscaler has headroom, one more is
    /// provisioned reactively. Returns whether the session was admitted.
    fn place(&mut self, t: f64, mut offer: Placement) -> bool {
        let score = |s: &ShardState| {
            (s.affinity_mean() - offer.affinity).abs() * AFFINITY_WEIGHT + s.utilization()
        };
        let mut order: Vec<usize> = self.active().collect();
        order.sort_by(|&a, &b| {
            score(&self.shards[a])
                .total_cmp(&score(&self.shards[b]))
                .then(a.cmp(&b))
        });
        let mut placed: Option<usize> = None;
        let mut first_reject: Option<RejectReason> = None;
        for i in order {
            match self.shards[i].controller.try_admit(&offer.demand) {
                Ok(_) => {
                    placed = Some(i);
                    break;
                }
                Err(r) => {
                    first_reject.get_or_insert(r);
                }
            }
        }
        if placed.is_none() && self.cfg.autoscale && self.active().count() < self.max_shards {
            let mut fresh = ShardState::new(t, self.cfg);
            if fresh.controller.try_admit(&offer.demand).is_ok() {
                self.shards.push(fresh);
                self.scale_ups += 1;
                placed = Some(self.shards.len() - 1);
                self.note_peak_shards();
            }
        }
        let Some(shard) = placed else {
            self.fates.push(OfferFate::Rejected {
                reason: first_reject.unwrap_or(RejectReason::Utilization { projected: 1.0 }),
            });
            return false;
        };

        let idx = self.placements.len();
        self.shards[shard].settle(idx, offer.affinity);
        self.departures.push((offer.end_ns, idx));
        self.fates.push(OfferFate::Admitted { shard });
        offer.shard = shard;
        self.placements.push(offer);
        let concurrent = self.shards.iter().map(|s| s.resident.len()).sum();
        self.peak_concurrent = self.peak_concurrent.max(concurrent);
        true
    }

    /// Skew-triggered work stealing: move the hottest shard's most recent
    /// placement to the coolest shard when the utilisation gap crosses the
    /// threshold.
    fn rebalance(&mut self) {
        let Some(reb) = self.cfg.rebalance else {
            return;
        };
        let by_util = |&a: &usize, &b: &usize| {
            self.shards[a]
                .utilization()
                .total_cmp(&self.shards[b].utilization())
        };
        // Lowest index wins a tie at either end.
        let hot = self.active().max_by(|a, b| by_util(a, b).then(b.cmp(a)));
        let cool = self.active().min_by(|a, b| by_util(a, b).then(a.cmp(b)));
        let (Some(hot), Some(cool)) = (hot, cool) else {
            return;
        };
        let skew = self.shards[hot].utilization() - self.shards[cool].utilization();
        if hot == cool || skew <= reb.skew_threshold {
            return;
        }
        let Some(&victim) = self.shards[hot].resident.last() else {
            return;
        };
        let v = &mut self.placements[victim];
        if self.shards[cool].controller.try_admit(&v.demand).is_ok() {
            self.shards[hot].evict(victim, v);
            self.shards[cool].settle(victim, v.affinity);
            self.shards[cool].migrations_in += 1;
            v.shard = cool;
            self.fates[v.offer] = OfferFate::Admitted { shard: cool };
            self.migrations += 1;
        }
    }

    /// Replays every shard's final session set — instantiated from its
    /// stream template in offer order — through the shared-NPU event loop,
    /// shards in parallel.
    fn replay(
        &self,
        trace: &TrafficTrace,
        library: &[StreamEntry],
    ) -> Vec<Result<ScheduleOutcome>> {
        let mut jobs: Vec<Vec<DrivenSession>> = vec![Vec::new(); self.shards.len()];
        for s in &self.placements {
            let arr = &trace.arrivals[s.offer];
            let spec = SessionSpec {
                start_offset_ns: arr.arrive_ns,
                frame_interval_ns: s.demand.frame_interval_ns,
            };
            let on_shard = &mut jobs[s.shard];
            let mut d = library[arr.stream % library.len()]
                .template
                .instantiate_prefix(on_shard.len(), &spec, s.budget_items);
            d.compute = s.demand.compute;
            on_shard.push(d);
        }
        let jobs: Vec<(&ShardState, Vec<DrivenSession>)> = self.shards.iter().zip(jobs).collect();
        let cfg = self.cfg;
        vrd_runtime::parallel_map(&jobs, |(shard, driven)| {
            let sched = SchedConfig {
                npu_available_ns: shard.created_ns + SHARD_SPINUP_NS,
                ..SchedConfig::default()
            };
            schedule(driven, SchedPolicy::Batch, &sched, &cfg.sim, None)
        })
    }

    /// Folds the shard replays into the fleet-wide report.
    fn report(self, replays: Vec<Result<ScheduleOutcome>>) -> Result<FleetReport> {
        let sim = &self.cfg.sim;
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut all_samples: Vec<f64> = Vec::new();
        let mut frames_served = 0usize;
        let mut frames_shed = 0usize;
        let mut switches = 0usize;
        let mut busy_ns = 0.0f64;
        let mut makespan_ns = 0.0f64;
        let mut energy_total = 0.0f64;
        for (state, replay) in self.shards.iter().zip(replays) {
            let outcome = replay?;
            all_samples.extend_from_slice(&outcome.latency_samples);
            frames_served += outcome.frames_delivered();
            frames_shed += outcome.frames_shed;
            switches += outcome.switches;
            busy_ns += outcome.busy_ns;
            makespan_ns = makespan_ns.max(outcome.makespan_ns);
            // The device is alive from creation until its last completion
            // (an idle shard still pays spin-up plus static draw).
            let alive_until = outcome
                .makespan_ns
                .max(state.created_ns + SHARD_SPINUP_NS)
                .max(state.retired_ns.unwrap_or(0.0));
            let energy_j = sim.shard_energy_j(outcome.busy_ns, alive_until - state.created_ns);
            energy_total += energy_j;
            shards.push(ShardReport {
                created_ns: state.created_ns,
                retired_ns: state.retired_ns,
                sessions: outcome.per_session.len(),
                migrations_in: state.migrations_in,
                peak_utilization: state.peak_utilization,
                energy_j,
                outcome,
            });
        }

        let count = |pred: fn(&OfferFate) -> bool| self.fates.iter().filter(|f| pred(f)).count();
        Ok(FleetReport {
            offered: self.fates.len(),
            admitted: count(|f| matches!(f, OfferFate::Admitted { .. })),
            rejected: count(|f| matches!(f, OfferFate::Rejected { .. })),
            churned_out: count(|f| matches!(f, OfferFate::ChurnedOut)),
            fates: self.fates,
            peak_concurrent: self.peak_concurrent,
            migrations: self.migrations,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            peak_shards: self.peak_shards,
            shards,
            frames_served,
            frames_shed,
            switches,
            busy_ns,
            makespan_ns,
            throughput_fps: if makespan_ns > 0.0 {
                frames_served as f64 / (makespan_ns * 1e-9)
            } else {
                0.0
            },
            latency: LatencyStats::from_samples(&all_samples),
            energy_j: energy_total,
        })
    }
}

/// Serves one traffic window on a shard fleet. See the module docs for the
/// two-phase design.
///
/// # Errors
/// [`ServeError::Refused`] when `cfg.sim` fails [`SimConfig::validate`] or
/// the stream library is empty, and [`ServeError::Scheduler`] when a shard
/// replay breaks an event-loop invariant.
pub fn run_fleet(
    trace: &TrafficTrace,
    library: &[StreamEntry],
    cfg: &FleetConfig,
) -> Result<FleetReport> {
    check_sim(&cfg.sim)?;
    if library.is_empty() {
        return Err(ServeError::Refused {
            detail: "fleet offered a traffic trace with an empty stream library".into(),
        });
    }
    let mut walk = Walk::new(cfg);
    for (offer, arr) in trace.arrivals.iter().enumerate() {
        let t = arr.arrive_ns;
        walk.depart_until(t);
        let entry = &library[arr.stream % library.len()];
        let Some(billed) = Placement::bill(offer, arr, entry, &cfg.sim) else {
            walk.fates.push(OfferFate::ChurnedOut);
            continue;
        };
        walk.autoscale(t, &billed);
        walk.note_peak_shards();
        if walk.place(t, billed) {
            walk.rebalance();
        }
    }
    let replays = walk.replay(trace, library);
    walk.report(replays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate, Envelope, LoadGenConfig};
    use crate::session::TemplateItem;
    use vr_dann::ComputeMode;
    use vrd_codec::FrameType;
    use vrd_sim::Model;

    /// A synthetic template: `anchors` NN-L items interleaved with `bs`
    /// NN-S items per anchor, one item per decode unit — no NN compute, so
    /// fleet mechanics are testable in microseconds.
    fn synth_entry(
        anchors: usize,
        bs: usize,
        interval_ns: f64,
        nnl_ops: u64,
        nns_ops: u64,
        sim: &SimConfig,
    ) -> StreamEntry {
        let mut items = Vec::new();
        for a in 0..anchors {
            items.push(TemplateItem {
                display: (a * (bs + 1)) as u32,
                ftype: FrameType::I,
                ops: nnl_ops,
                uses_large_model: true,
                arrive_idx: items.len(),
                decode_ns: 1_000.0,
            });
            for b in 0..bs {
                items.push(TemplateItem {
                    display: (a * (bs + 1) + b + 1) as u32,
                    ftype: FrameType::B,
                    ops: nns_ops,
                    uses_large_model: false,
                    arrive_idx: items.len(),
                    decode_ns: 500.0,
                });
            }
        }
        let frames = items.len();
        let total_ops: u64 = items.iter().map(|i| i.ops).sum();
        let switches = items
            .windows(2)
            .filter(|w| w[0].uses_large_model != w[1].uses_large_model)
            .count();
        let demand = SessionDemand {
            nnl_ops,
            nns_ops,
            compute: ComputeMode::F32Reference,
            anchors,
            b_frames: anchors * bs,
            frame_interval_ns: interval_ns,
        };
        StreamEntry {
            template: SessionTemplate {
                name: format!("synth-{anchors}x{bs}"),
                compute: ComputeMode::F32Reference,
                items,
                frames,
                peak_live_frames: 2,
                total_ops,
                switches_in_order: switches,
                isolated_ns: sim.service_ns(total_ops, Model::Large, ComputeMode::F32Reference),
            },
            demand,
        }
    }

    fn base_trace(sessions: usize, churn: f64) -> TrafficTrace {
        generate(&LoadGenConfig {
            sessions,
            streams: 2,
            stream_frames: 8,
            base_interval_ns: 1e6,
            mean_interarrival_ns: 2e5,
            horizon_ns: 5e7,
            envelope: Envelope::Flat,
            churn_rate: churn,
            heterogeneous: true,
            ..LoadGenConfig::default()
        })
        .unwrap()
    }

    fn base_cfg(sim: SimConfig) -> FleetConfig {
        FleetConfig {
            min_shards: 2,
            max_shards: 8,
            sim,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_conserves_offers_and_aggregates_shards() {
        let sim = SimConfig::default();
        let library = vec![
            synth_entry(4, 6, 1e6, 4_000_000, 40_000, &sim),
            synth_entry(8, 1, 1e6, 4_000_000, 40_000, &sim), // NN-L-heavy mix
        ];
        let trace = base_trace(48, 0.3);
        let report = run_fleet(&trace, &library, &base_cfg(sim)).unwrap();

        assert_eq!(report.offered, 48);
        assert_eq!(report.fates.len(), 48);
        assert_eq!(
            report.admitted + report.rejected + report.churned_out,
            report.offered
        );
        assert!(report.admitted > 0);
        // Fleet totals are exactly the sum of shard totals.
        let sessions: usize = report.shards.iter().map(|s| s.sessions).sum();
        assert_eq!(sessions, report.admitted);
        let served: usize = report
            .shards
            .iter()
            .map(|s| s.outcome.frames_delivered())
            .sum();
        assert_eq!(served, report.frames_served);
        assert_eq!(report.latency.count, report.frames_served);
        assert!(report.frames_served > 0);
        assert!(report.energy_j > 0.0);
        assert!(report.throughput_fps > 0.0);
        // Every admitted fate points at a real shard that counted it.
        for fate in &report.fates {
            if let OfferFate::Admitted { shard } = fate {
                assert!(*shard < report.shards.len());
            }
        }
        // Deterministic: a second run is structurally identical.
        let again = run_fleet(&trace, &library, &base_cfg(sim)).unwrap();
        assert_eq!(report, again);
        // And thread-count invariant.
        let serial =
            vrd_runtime::with_thread_budget(1, || run_fleet(&trace, &library, &base_cfg(sim)))
                .unwrap();
        assert_eq!(report, serial);
    }

    #[test]
    fn affinity_placement_separates_model_mixes() {
        let sim = SimConfig::default();
        // Two sharply different mixes, no autoscale/rebalance noise.
        let library = vec![
            synth_entry(2, 14, 1e6, 1_000_000, 400_000, &sim),
            synth_entry(12, 0, 1e6, 1_000_000, 400_000, &sim),
        ];
        let trace = base_trace(24, 0.0);
        let cfg = FleetConfig {
            min_shards: 2,
            max_shards: 2,
            autoscale: false,
            rebalance: None,
            sim,
            ..FleetConfig::default()
        };
        let report = run_fleet(&trace, &library, &cfg).unwrap();
        // Group admitted offers per (shard, stream): each shard should be
        // dominated by one stream class.
        let mut counts = [[0usize; 2]; 2];
        for (offer, fate) in report.fates.iter().enumerate() {
            if let OfferFate::Admitted { shard } = fate {
                counts[*shard][trace.arrivals[offer].stream % 2] += 1;
            }
        }
        for shard in 0..2 {
            let total = counts[shard][0] + counts[shard][1];
            if total >= 4 {
                let major = counts[shard][0].max(counts[shard][1]);
                assert!(
                    major * 4 >= total * 3,
                    "shard {shard} mixes streams {counts:?}"
                );
            }
        }
    }

    #[test]
    fn autoscaler_grows_the_fleet_under_a_spike() {
        let sim = SimConfig::default();
        let library = vec![synth_entry(4, 6, 1e6, 4_000_000, 40_000, &sim)];
        let spike = generate(&LoadGenConfig {
            sessions: 64,
            streams: 1,
            stream_frames: 8,
            base_interval_ns: 1e6,
            mean_interarrival_ns: 1e6,
            horizon_ns: 6e7,
            envelope: Envelope::Spike {
                factor: 4.0,
                start_frac: 0.3,
                end_frac: 0.6,
            },
            churn_rate: 0.0,
            heterogeneous: false,
            ..LoadGenConfig::default()
        })
        .unwrap();
        let cfg = FleetConfig {
            min_shards: 1,
            max_shards: 12,
            rebalance: None,
            sim,
            ..FleetConfig::default()
        };
        let report = run_fleet(&spike, &library, &cfg).unwrap();
        assert!(report.scale_ups > 0, "spike never triggered a scale-up");
        assert!(report.peak_shards > 1);
        assert_eq!(report.rejected, 0, "autoscaled fleet rejected sessions");
        // The fixed single shard, by contrast, must turn sessions away.
        let fixed = FleetConfig {
            min_shards: 1,
            max_shards: 1,
            autoscale: false,
            rebalance: None,
            sim,
            ..FleetConfig::default()
        };
        let starved = run_fleet(&spike, &library, &fixed).unwrap();
        assert!(starved.rejected > 0);
        // Spin-up is billed: no shard serves before it is up.
        for s in &report.shards {
            if s.outcome.frames_delivered() > 0 {
                assert!(s.outcome.makespan_ns >= s.created_ns + SHARD_SPINUP_NS);
            }
        }
    }

    #[test]
    fn rebalance_steals_from_the_hottest_shard() {
        let sim = SimConfig::default();
        let library = vec![synth_entry(6, 4, 8e5, 4_000_000, 40_000, &sim)];
        let trace = generate(&LoadGenConfig {
            sessions: 32,
            streams: 1,
            stream_frames: 10,
            base_interval_ns: 8e5,
            mean_interarrival_ns: 1e5,
            horizon_ns: 2e7,
            envelope: Envelope::Bursty {
                period_frac: 0.5,
                duty: 0.3,
                quiet_level: 0.05,
            },
            churn_rate: 0.0,
            heterogeneous: true,
            ..LoadGenConfig::default()
        })
        .unwrap();
        let cfg = FleetConfig {
            min_shards: 3,
            max_shards: 3,
            autoscale: false,
            rebalance: Some(RebalanceConfig {
                skew_threshold: 0.1,
            }),
            sim,
            ..FleetConfig::default()
        };
        let balanced = run_fleet(&trace, &library, &cfg).unwrap();
        let frozen = run_fleet(
            &trace,
            &library,
            &FleetConfig {
                rebalance: None,
                ..cfg
            },
        )
        .unwrap();
        assert!(balanced.migrations > 0, "skewed load never rebalanced");
        assert_eq!(balanced.admitted + balanced.rejected, frozen.offered);
        // Stealing narrows peak-utilisation skew vs the frozen placement.
        let skew = |r: &FleetReport| {
            let peaks: Vec<f64> = r.shards.iter().map(|s| s.peak_utilization).collect();
            peaks.iter().cloned().fold(0.0f64, f64::max)
                - peaks.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        assert!(
            skew(&balanced) <= skew(&frozen) + 1e-9,
            "rebalance widened skew: {} vs {}",
            skew(&balanced),
            skew(&frozen)
        );
        // Migration bookkeeping is conserved.
        let migr_in: usize = balanced.shards.iter().map(|s| s.migrations_in).sum();
        assert_eq!(migr_in, balanced.migrations);
    }

    #[test]
    fn churned_sessions_release_capacity_and_truncate_work() {
        let sim = SimConfig::default();
        let library = vec![synth_entry(4, 6, 1e6, 4_000_000, 40_000, &sim)];
        let trace = base_trace(40, 0.8);
        let cfg = FleetConfig {
            min_shards: 1,
            max_shards: 1,
            autoscale: false,
            rebalance: None,
            sim,
            ..FleetConfig::default()
        };
        let churny = run_fleet(&trace, &library, &cfg).unwrap();
        assert!(
            churny.churned_out > 0,
            "0.8 churn produced no zero-budget offers"
        );
        // Churned-out offers never reach a shard.
        assert_eq!(
            churny.admitted + churny.rejected + churny.churned_out,
            churny.offered
        );
        // Admitted-but-departing sessions contribute strictly fewer frames
        // than the same trace without churn.
        let mut calm_trace = trace.clone();
        for a in &mut calm_trace.arrivals {
            a.depart_ns = None;
        }
        let calm = run_fleet(&calm_trace, &library, &cfg).unwrap();
        assert!(churny.frames_served < calm.frames_served);
        // Released capacity admits at least as many sessions as the
        // no-churn run (the single shard refills as leavers free room).
        assert!(churny.admitted + churny.churned_out >= calm.admitted);
    }
}
