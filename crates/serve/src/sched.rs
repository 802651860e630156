//! The shared virtual NPU: one accelerator, many sessions.
//!
//! [`schedule`] replays the stamped work of every admitted session through
//! one deterministic event loop timed by `vrd-sim`'s cost model
//! ([`vrd_sim::cost`]: [`SimConfig::service_ns`] for service,
//! [`SimConfig::switch_ns`] for NN-L ↔ NN-S weight swaps) and returns one
//! record, [`ScheduleOutcome`].
//! Two policies share the loop:
//!
//! * [`SchedPolicy::Fifo`] — per-stream FIFO: always serve the globally
//!   oldest handed-over item, switching models whenever two consecutive
//!   items disagree. This is what N independent pipelines time-sharing one
//!   NPU degenerate to, and the baseline every improvement is measured
//!   against.
//! * [`SchedPolicy::Batch`] — cross-session lagged switching: the paper's
//!   `b_Q` idea (§IV-C) lifted across streams. Among the items already
//!   handed over, prefer ones matching the currently resident model, so
//!   same-model work from *different* sessions coalesces into one
//!   residency; a batch cap (the paper's 24-entry `b_Q`,
//!   [`vrd_sim::B_Q_ENTRIES`]) bounds how long opposite-model work can be
//!   deferred, and the scheduler is work-conserving — it never idles
//!   waiting for a preferred item.
//!
//! Each session owns a bounded queue between its decoder lane and the NPU,
//! as deep as the agent unit's 8-entry `ip_Q` ([`vrd_sim::IP_Q_ENTRIES`]);
//! a full queue delays the hand-over to the next serve completion
//! (backpressure, counted in [`ScheduleOutcome::decoder_stalls`]). Frame
//! latency is measured arrival → delivery, so decode, queueing, switching
//! and service all show up in the percentiles; the raw samples ride along
//! in [`ScheduleOutcome::latency_samples`] so a caller merging several
//! replays (the fleet) can take percentiles over the union.
//!
//! ## Fault plans
//!
//! The last argument of [`schedule`] is an optional [`ChaosConfig`] — a
//! deterministic [`NpuFaultProfile`] plus a [`RecoveryConfig`]. `None` means
//! no faults and shed-only pressure handling (what [`crate::serve`] and
//! [`crate::run_fleet`] pass). With a plan:
//!
//! * **work-item failures** are retried in place with bounded exponential
//!   backoff (`BACKOFF_BASE_NS`, doubling per failure up to
//!   `BACKOFF_CAP_NS`) until the retry budget runs out;
//! * **transient stalls** stretch one attempt's service time;
//! * **full-NPU crashes** ([`CrashWindow`]) void the in-flight attempt and
//!   every device-resident hand-over (the bounded queues mirror the agent
//!   unit's `ip_Q`/`b_Q`, which live next to the NPU). With
//!   [`RecoveryConfig::checkpoint_restore`] the affected sessions resume
//!   from their host-side engine checkpoints after the outage, paying
//!   `RESTORE_PENALTY_NS`; without it they are lost.
//! * the **degradation ladder** ([`RecoveryConfig::ladder`]) replaces shed-only
//!   pressure handling: a backlogged session steps down
//!   [`DegradeLevel::Full`] → [`DegradeLevel::Int8`] →
//!   [`DegradeLevel::SkipRefine`] → [`DegradeLevel::CopyForward`], where
//!   int8 bills NN-S at the cost model's quantized rate and
//!   the last two rungs are agent-unit-only (raw reconstruction /
//!   copy-forward of the nearest reference mask — zero NPU occupancy),
//!   then steps back up once its queue wait stays short. A frame older than
//!   `LADDER_DOWNGRADE_WAIT_FRAC` of the deadline steps it down;
//!   `LADDER_UPGRADE_STREAK` consecutive frames no older than
//!   `LADDER_UPGRADE_WAIT_FRAC` of it step it up. Deadline misses
//!   and exhausted retries deliver a copy-forward frame instead of
//!   dropping it. The ladder keys its thresholds off the shedding
//!   deadline, so it is dormant when [`SchedConfig::shed_after_ns`] is
//!   `None`.
//!
//! A quiet plan ([`NpuFaultProfile::none`], no active ladder) returns a
//! record **equal** to the `None` replay's — the fault branches change no
//! arithmetic when nothing fires. Fault draws are counter-hashed per
//! `(session, item, attempt)`, so Fifo and Batch replays of the same
//! profile see the same faults on the same items.

use crate::error::{Result, ServeError};
use crate::faults::{CrashWindow, NpuFaultProfile};
use crate::metrics::LatencyStats;
use crate::session::{DrivenSession, WorkItem};
use std::collections::VecDeque;
use vr_dann::ComputeMode;
use vrd_sim::{Model, SimConfig, B_Q_ENTRIES, IP_Q_ENTRIES};

/// Which serving discipline the shared NPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Globally oldest item first; switch whenever the model differs.
    Fifo,
    /// Prefer items matching the resident model (cross-session batching),
    /// bounded by the batch cap.
    Batch,
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Batch => "batch",
        })
    }
}

/// Shared-NPU scheduling knobs. The per-session queue depth and the batch
/// cap are the agent unit's queue sizes, [`vrd_sim::IP_Q_ENTRIES`] and
/// [`vrd_sim::B_Q_ENTRIES`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedConfig {
    /// Optional shedding deadline: a frame still unserved this long after
    /// its arrival is dropped instead of served (`None` = serve everything).
    /// Under a fault plan with a ladder, the miss is delivered as a
    /// copy-forward frame instead of dropped.
    pub shed_after_ns: Option<f64>,
    /// Instant the NPU comes online (0 = always on). The fleet layer sets
    /// this to a shard's creation instant plus its spin-up cost
    /// ([`vrd_sim::SHARD_SPINUP_NS`]), so work handed to a
    /// freshly provisioned shard queues until the virtual device is up —
    /// autoscaling pays its provisioning latency on the same clock
    /// everything else runs on.
    pub npu_available_ns: f64,
}

/// The graceful-degradation ladder, worst rung last. A session serves NN-S
/// frames at its current rung; NN-L anchors always run in full precision
/// (the references the whole GOP leans on are not where quality is shaved).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Full-precision NN-S refinement.
    Full = 0,
    /// Int8 NN-S refinement: same mask pipeline, billed by
    /// [`SimConfig::service_ns`] at [`ComputeMode::Int8`].
    Int8 = 1,
    /// Skip NN-S refinement: emit the raw agent-unit reconstruction.
    /// Agent-unit-only — zero NPU occupancy.
    SkipRefine = 2,
    /// Copy the nearest reference mask forward. Agent-unit-only.
    CopyForward = 3,
}

impl DegradeLevel {
    /// Number of rungs.
    pub(crate) const COUNT: usize = 4;

    /// Index into per-level counters.
    pub fn index(self) -> usize {
        self as usize
    }

    /// One rung worse (saturating).
    pub fn down(self) -> Self {
        match self {
            DegradeLevel::Full => DegradeLevel::Int8,
            DegradeLevel::Int8 => DegradeLevel::SkipRefine,
            _ => DegradeLevel::CopyForward,
        }
    }

    /// One rung better (saturating).
    pub fn up(self) -> Self {
        match self {
            DegradeLevel::CopyForward => DegradeLevel::SkipRefine,
            DegradeLevel::SkipRefine => DegradeLevel::Int8,
            _ => DegradeLevel::Full,
        }
    }
}

impl std::fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeLevel::Full => "full",
            DegradeLevel::Int8 => "int8",
            DegradeLevel::SkipRefine => "skip-refine",
            DegradeLevel::CopyForward => "copy-forward",
        })
    }
}

/// Frame age above `LADDER_DOWNGRADE_WAIT_FRAC × deadline` steps the
/// session one rung down. The ladder's thresholds are fractions of the
/// shedding deadline, and its signal is a frame's *age* (service instant −
/// arrival) — the basis the shedding watchdog uses — so it reacts to real
/// deadline pressure even when bounded queues hide the backlog behind
/// hand-over backpressure.
const LADDER_DOWNGRADE_WAIT_FRAC: f64 = 0.5;
/// Frame age at or below `LADDER_UPGRADE_WAIT_FRAC × deadline` counts
/// toward the upgrade streak.
const LADDER_UPGRADE_WAIT_FRAC: f64 = 0.125;
/// Consecutive young serves required before stepping back up.
const LADDER_UPGRADE_STREAK: usize = 8;

/// First retry backoff; doubles per failure.
const BACKOFF_BASE_NS: f64 = 50_000.0;
/// Backoff ceiling.
const BACKOFF_CAP_NS: f64 = 800_000.0;
/// Cost of one checkpoint restore: re-prime the engine and replay the
/// O(GOP) mask window — roughly one NN-L weight refill.
const RESTORE_PENALTY_NS: f64 = 800_000.0;

/// Recovery machinery knobs of a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Total service attempts allowed per work item (≥ 1).
    pub max_attempts: u32,
    /// Restore crashed sessions from host-side engine checkpoints instead
    /// of losing them.
    pub checkpoint_restore: bool,
    /// Run the degradation ladder; `false` = shed-only pressure handling.
    pub ladder: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            checkpoint_restore: true,
            ladder: true,
        }
    }
}

impl RecoveryConfig {
    /// The PR-4 baseline: no retries survive (single attempt), no
    /// checkpoints, no ladder — overload sheds and crashes kill.
    pub fn shed_only() -> Self {
        Self {
            max_attempts: 1,
            checkpoint_restore: false,
            ladder: false,
        }
    }
}

/// Backoff before failure number `k` (1-based) is retried.
fn backoff_ns(k: u32) -> f64 {
    (BACKOFF_BASE_NS * 2f64.powi(k.saturating_sub(1).min(62) as i32)).min(BACKOFF_CAP_NS)
}

/// A replay's fault plan: what goes wrong and what is done about it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The deterministic fault plan.
    pub faults: NpuFaultProfile,
    /// What the serving layer does about it.
    pub recovery: RecoveryConfig,
}

/// Ladder and retry activity of one session across a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Rungs stepped down.
    pub downgrades: usize,
    /// Rungs stepped back up.
    pub upgrades: usize,
    /// Delivered frames by the rung they were served at.
    pub frames_at_level: [usize; DegradeLevel::COUNT],
    /// Failed attempts that were retried.
    pub retries: usize,
    /// Items whose retry budget ran out.
    pub retry_exhausted: usize,
    /// Deadline misses delivered as copy-forward instead of shed.
    pub watchdog_degraded: usize,
}

/// Per-session outcome of one schedule replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionSchedStats {
    /// Index into the admitted set.
    pub session: usize,
    /// Frames delivered at the session's own fidelity.
    pub frames_full: usize,
    /// Frames delivered below the session's own fidelity.
    pub frames_degraded: usize,
    /// Frames dropped by the shedding deadline.
    pub frames_shed: usize,
    /// Frames never delivered because the session died in a crash.
    pub frames_lost: usize,
    /// The session died in a crash and was not restored.
    pub lost: bool,
    /// Checkpoint restores this session paid.
    pub restores: usize,
    /// Ladder and retry activity.
    pub degradation: DegradationStats,
    /// Arrival → delivery latency over delivered frames.
    pub latency: LatencyStats,
}

/// Global outcome of replaying the merged sessions under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// The policy replayed.
    pub policy: SchedPolicy,
    /// Work items across all admitted sessions.
    pub frames_offered: usize,
    /// Frames delivered at their session's own fidelity.
    pub frames_full: usize,
    /// Frames delivered degraded (ladder rung, watchdog copy-forward, or
    /// retry-budget exhaustion).
    pub frames_degraded: usize,
    /// Frames dropped by the shedding deadline (shed-only recovery).
    pub frames_shed: usize,
    /// Frames never delivered because their session died in a crash.
    pub frames_lost: usize,
    /// Delivered frames by ladder rung.
    pub frames_at_level: [usize; DegradeLevel::COUNT],
    /// Sessions killed by crashes (checkpoint restore off).
    pub sessions_lost: usize,
    /// Checkpoint restores paid across sessions and crashes.
    pub session_restores: usize,
    /// Failed attempts that were retried.
    pub retries: usize,
    /// Items whose retry budget ran out.
    pub retry_exhausted: usize,
    /// Deadline misses delivered as copy-forward instead of shed.
    pub watchdog_degraded: usize,
    /// Attempts that drew a transient stall.
    pub stalls: usize,
    /// Time added by those stalls.
    pub stall_ns: f64,
    /// Crash windows the replay ran into.
    pub crashes: usize,
    /// Service time burnt by failed attempts and crash-voided work.
    pub wasted_ns: f64,
    /// NN-L ↔ NN-S model switches paid.
    pub switches: usize,
    /// Time lost to those switches.
    pub switch_ns: f64,
    /// Time the NPU spent computing work that completed.
    pub busy_ns: f64,
    /// Completion time of the last event on the NPU clock.
    pub makespan_ns: f64,
    /// Largest total queue depth observed across deliveries.
    pub max_queue_depth: usize,
    /// Mean total queue depth over deliveries.
    pub mean_queue_depth: f64,
    /// Hand-overs delayed because the session's queue was full
    /// (backpressure onto the decoder lane).
    pub decoder_stalls: usize,
    /// Arrival → delivery latency over every delivered frame.
    pub latency: LatencyStats,
    /// The raw samples behind [`Self::latency`], in delivery order. The
    /// fleet layer merges the samples of every shard to compute genuine
    /// fleet-wide percentiles — percentiles of percentiles would be wrong
    /// whenever shards carry different loads.
    pub latency_samples: Vec<f64>,
    /// Per-session breakdown, admitted order.
    pub per_session: Vec<SessionSchedStats>,
}

impl ScheduleOutcome {
    /// Frames that reached the client at any fidelity.
    pub fn frames_delivered(&self) -> usize {
        self.frames_full + self.frames_degraded
    }

    /// Delivered fraction of the offered load (1.0 when nothing offered).
    pub fn delivered_fraction(&self) -> f64 {
        if self.frames_offered > 0 {
            self.frames_delivered() as f64 / self.frames_offered as f64
        } else {
            1.0
        }
    }

    /// Fraction of the makespan the NPU spent on completed work (0 when
    /// empty).
    pub fn utilization(&self) -> f64 {
        if self.makespan_ns > 0.0 {
            self.busy_ns / self.makespan_ns
        } else {
            0.0
        }
    }
}

/// One hand-over waiting on (or retrying at) the NPU.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    /// Index into the session's item list.
    item: usize,
    /// Hand-over (or retry-eligible) instant.
    entry_ns: f64,
    /// Service attempts already failed.
    attempt: u32,
}

/// One session's bounded queue state inside the event loop.
struct SessionQueue<'a> {
    items: &'a [WorkItem],
    /// Next item not yet handed over.
    next: usize,
    /// Front is the only servable entry; sessions are strictly in decode
    /// order.
    queue: VecDeque<QueueEntry>,
}

impl SessionQueue<'_> {
    /// Fills free slots up to [`IP_Q_ENTRIES`]. `now` is the instant slots
    /// freed; a hand-over pushed past its decoder-lane `ready_ns` is a stall.
    fn refill(&mut self, now: f64, stalls: &mut usize) {
        while self.queue.len() < IP_Q_ENTRIES && self.next < self.items.len() {
            let ready = self.items[self.next].ready_ns;
            let entry = ready.max(now);
            if entry > ready {
                *stalls += 1;
            }
            self.queue.push_back(QueueEntry {
                item: self.next,
                entry_ns: entry,
                attempt: 0,
            });
            self.next += 1;
        }
    }
}

/// One session's ladder position, next to the stats it will report.
struct SessLive {
    /// Current ladder rung.
    level: DegradeLevel,
    /// Upgrade floor: [`DegradeLevel::Int8`] for int8-mode sessions.
    base: DegradeLevel,
    /// Consecutive short-wait serves toward an upgrade.
    streak: usize,
    /// Filled as the loop runs; `frames_lost` and `latency` at the end.
    out: SessionSchedStats,
}

impl SessLive {
    /// Ladder transition for a frame served `age` ns after its arrival,
    /// against `deadline`: old frames step the session down, a streak of
    /// young ones steps it back up.
    fn step_ladder(&mut self, deadline: f64, age: f64) {
        if age > LADDER_DOWNGRADE_WAIT_FRAC * deadline {
            if self.level < DegradeLevel::CopyForward {
                self.level = self.level.down();
                self.out.degradation.downgrades += 1;
            }
            self.streak = 0;
        } else if age <= LADDER_UPGRADE_WAIT_FRAC * deadline {
            self.streak += 1;
            if self.streak >= LADDER_UPGRADE_STREAK && self.level > self.base {
                self.level = self.level.up();
                self.out.degradation.upgrades += 1;
                self.streak = 0;
            }
        } else {
            self.streak = 0;
        }
    }
}

/// What one replay runs under: the caller's knobs with the fault plan
/// resolved (`None` = no faults, shed-only recovery).
struct Plan<'a> {
    policy: SchedPolicy,
    cfg: &'a SchedConfig,
    sim: &'a SimConfig,
    faults: &'a NpuFaultProfile,
    rec: &'a RecoveryConfig,
    /// The ladder needs the deadline to scale its thresholds; without one
    /// it stays dormant and pressure handling is shed-only.
    ladder: bool,
}

/// What the cost model quotes for one service attempt.
struct Bill {
    /// Making the item's model resident (0 when it already is).
    switch_ns: f64,
    /// The transient stall this attempt drew, if it drew one.
    stall_ns: Option<f64>,
    /// The inference itself, at the rung it is served on.
    service_ns: f64,
}

/// One replay's state: the per-session queues and ladders, the virtual
/// device, and what every delivery accumulates. Its methods are the only
/// frame and device transitions.
#[derive(Default)]
struct Replay<'a> {
    queues: Vec<SessionQueue<'a>>,
    live: Vec<SessLive>,
    decoder_stalls: usize,
    /// Delivered-frame latencies, delivery order.
    samples: Vec<f64>,
    /// The same samples split by session.
    session_samples: Vec<Vec<f64>>,
    /// Total queue depth is sampled once per delivery.
    max_depth: usize,
    depth_sum: usize,
    /// The NPU clock: completion of the last event on the device.
    t_npu: f64,
    /// The model whose weights are loaded (`None` = cold or just crashed).
    resident: Option<Model>,
    /// Consecutive serves on the resident model.
    run_len: usize,
    /// Crash windows not yet reached, earliest first.
    crash_windows: VecDeque<CrashWindow>,
    switches: usize,
    switch_ns: f64,
    busy_ns: f64,
    stalls: usize,
    stall_ns: f64,
    wasted_ns: f64,
    crashes: usize,
}

impl<'a> Replay<'a> {
    /// Every session's first hand-overs queued on a device that comes
    /// online at [`SchedConfig::npu_available_ns`].
    fn new(sessions: &'a [DrivenSession], plan: &Plan<'_>) -> Self {
        let mut crash_windows = plan.faults.crashes.clone();
        crash_windows.sort_by(|a, b| a.at_ns.total_cmp(&b.at_ns));
        let mut r = Replay {
            queues: sessions
                .iter()
                .map(|s| SessionQueue {
                    items: &s.items,
                    next: 0,
                    queue: VecDeque::new(),
                })
                .collect(),
            live: sessions
                .iter()
                .map(|s| {
                    let base = if s.compute == ComputeMode::Int8 {
                        DegradeLevel::Int8
                    } else {
                        DegradeLevel::Full
                    };
                    SessLive {
                        level: base,
                        base,
                        streak: 0,
                        out: SessionSchedStats {
                            session: s.session,
                            ..SessionSchedStats::default()
                        },
                    }
                })
                .collect(),
            session_samples: vec![Vec::new(); sessions.len()],
            // Work handed over before the device is online waits for it.
            t_npu: plan.cfg.npu_available_ns.max(0.0),
            crash_windows: crash_windows.into(),
            ..Replay::default()
        };
        for q in &mut r.queues {
            q.refill(0.0, &mut r.decoder_stalls);
        }
        r
    }

    /// The instant the next event happens: the earliest hand-over among
    /// the queue fronts, once the device is free. `None` when every queue
    /// is empty.
    fn next_instant(&self) -> Option<f64> {
        self.queues
            .iter()
            .filter_map(|q| q.queue.front().map(|e| e.entry_ns))
            .min_by(|a, b| a.total_cmp(b))
            .map(|min_entry| self.t_npu.max(min_entry))
    }

    /// The queue front `policy` serves at `t_now`, as (session, item index,
    /// failed attempts): the oldest handed-over front, ties by admitted
    /// index — among those [`SchedPolicy::Batch`] prefers.
    fn pick(&self, plan: &Plan<'_>, t_now: f64) -> Option<(usize, usize, u32)> {
        let oldest = |pred: &dyn Fn(Model) -> bool| {
            self.queues
                .iter()
                .enumerate()
                .filter_map(|(s, q)| {
                    let e = q.queue.front()?;
                    (e.entry_ns <= t_now && pred(q.items[e.item].model()))
                        .then_some((s, e.item, e.entry_ns, e.attempt))
                })
                .min_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)))
                .map(|(s, i, _, attempt)| (s, i, attempt))
        };
        let any = |_: Model| true;
        match plan.policy {
            SchedPolicy::Fifo => oldest(&any),
            SchedPolicy::Batch => {
                let same = |m: Model| Some(m) == self.resident;
                let other = |m: Model| Some(m) != self.resident;
                if self.run_len >= B_Q_ENTRIES {
                    // Starvation bound hit: the oldest deferred
                    // opposite-model item goes next (if any waits).
                    oldest(&other).or_else(|| oldest(&any))
                } else {
                    oldest(&same).or_else(|| oldest(&any))
                }
            }
        }
    }

    /// Prices one attempt at `item` on `rung` — the scheduler's single call
    /// into the cost model ([`vrd_sim::cost`]). NN-S at the int8 rung or
    /// below is billed quantized; the cost model knows anchors are not.
    fn bill(&self, plan: &Plan<'_>, item: &WorkItem, rung: DegradeLevel, attempt: u32) -> Bill {
        let mode = if rung >= DegradeLevel::Int8 {
            ComputeMode::Int8
        } else {
            ComputeMode::F32Reference
        };
        Bill {
            switch_ns: plan.sim.switch_ns(self.resident, item.model()),
            stall_ns: plan
                .faults
                .draw_stall(item.session, item.idx, attempt)
                .then_some(plan.faults.stall_ns),
            service_ns: plan.sim.service_ns(item.ops, item.model(), mode),
        }
    }

    /// An attempt at `model` ran to `finish` on the NPU clock: the switch
    /// and stall it was billed are paid, the batch run grows.
    fn commit(&mut self, model: Model, bill: &Bill, finish: f64) {
        if self.resident != Some(model) {
            self.switch_ns += bill.switch_ns;
            self.switches += 1;
            self.resident = Some(model);
            self.run_len = 0;
        }
        if let Some(extra) = bill.stall_ns {
            self.stalls += 1;
            self.stall_ns += extra;
        }
        self.run_len += 1;
        self.t_npu = finish;
    }

    /// Session `s`'s front entry failed for the `failed`-th time at `now`:
    /// it stays at the front and becomes eligible again after the backoff.
    fn retry(&mut self, s: usize, failed: u32, now: f64) -> Result<()> {
        let Some(front) = self.queues[s].queue.front_mut() else {
            return Err(ServeError::Scheduler {
                time_ns: now,
                detail: format!("session {s}: retried entry vanished from its queue front"),
            });
        };
        front.attempt = failed;
        front.entry_ns = now + backoff_ns(failed);
        self.live[s].out.degradation.retries += 1;
        Ok(())
    }

    /// Retires session `s`'s front entry at `now` and hands over what the
    /// freed slot admits.
    fn retire(&mut self, s: usize, now: f64) {
        self.queues[s].queue.pop_front();
        self.queues[s].refill(now, &mut self.decoder_stalls);
    }

    /// Drops session `s`'s front entry at `now`.
    fn shed(&mut self, s: usize, now: f64) {
        self.live[s].out.frames_shed += 1;
        self.retire(s, now);
    }

    /// Delivers `item`, session `s`'s front entry, at `now` on `rung`: one
    /// latency sample, one rung count, one queue-depth sample.
    fn deliver(&mut self, s: usize, item: &WorkItem, now: f64, rung: DegradeLevel) {
        let latency = now - item.arrival_ns;
        self.samples.push(latency);
        self.session_samples[s].push(latency);
        let l = &mut self.live[s];
        if rung > l.base {
            l.out.frames_degraded += 1;
        } else {
            l.out.frames_full += 1;
        }
        l.out.degradation.frames_at_level[rung.index()] += 1;
        self.retire(s, now);
        let depth: usize = self.queues.iter().map(|q| q.queue.len()).sum();
        self.max_depth = self.max_depth.max(depth);
        self.depth_sum += depth;
    }

    /// The frame that cannot be served — past its deadline, or out of
    /// retries — leaves at `now`: a copy-forward delivery under a ladder,
    /// a drop without one.
    fn give_up(&mut self, plan: &Plan<'_>, s: usize, item: &WorkItem, now: f64) {
        if plan.ladder {
            self.deliver(s, item, now, DegradeLevel::CopyForward);
        } else {
            self.shed(s, now);
        }
    }

    /// The device dies at the next crash window: residency and the batch
    /// run are void, and so is every device-resident hand-over. With
    /// checkpoint restore the owning sessions re-enter after the outage
    /// plus the restore penalty; without it they die.
    fn crash(&mut self, rec: &RecoveryConfig) {
        let Some(w) = self.crash_windows.pop_front() else {
            return;
        };
        self.crashes += 1;
        self.resident = None;
        self.run_len = 0;
        self.t_npu = self.t_npu.max(w.end_ns());
        for (q, l) in self.queues.iter_mut().zip(&mut self.live) {
            if l.out.lost || !q.queue.iter().any(|e| e.entry_ns <= w.at_ns) {
                continue;
            }
            if rec.checkpoint_restore {
                let resume = w.end_ns() + RESTORE_PENALTY_NS;
                for e in q.queue.iter_mut() {
                    if e.entry_ns <= w.at_ns {
                        e.entry_ns = resume;
                    }
                }
                l.out.restores += 1;
            } else {
                l.out.lost = true;
                q.queue.clear();
                q.next = q.items.len();
            }
        }
    }

    /// One event at `t_now`: a crash recovery, or one picked frame
    /// delivered, shed or sent back to retry.
    fn step(&mut self, plan: &Plan<'_>, t_now: f64) -> Result<()> {
        // A crash window we have reached voids the device state before any
        // more work is picked.
        if self.crash_windows.front().is_some_and(|w| w.at_ns <= t_now) {
            self.crash(plan.rec);
            return Ok(());
        }

        // Items already handed over at t_now; non-empty by construction.
        let Some((s, i, attempt)) = self.pick(plan, t_now) else {
            return Err(ServeError::Scheduler {
                time_ns: t_now,
                detail: "no queue front is handed over at the service instant".into(),
            });
        };
        let items: &'a [WorkItem] = self.queues[s].items;
        let item = &items[i];

        if let Some(deadline) = plan.cfg.shed_after_ns {
            // Past its shedding deadline: the watchdog fires.
            if item.arrival_ns + deadline < t_now {
                if plan.ladder {
                    self.live[s].out.degradation.watchdog_degraded += 1;
                }
                self.give_up(plan, s, item, t_now);
                return Ok(());
            }
            // Ladder transitions, driven by how close this frame ran to
            // its deadline.
            if plan.ladder {
                self.live[s].step_ladder(deadline, t_now - item.arrival_ns);
            }
        }

        // NN-L anchors always run full; NN-S frames run at the session's
        // current rung.
        let rung = if item.uses_large_model {
            DegradeLevel::Full
        } else {
            self.live[s].level
        };
        // Agent-unit-only rungs: no NPU occupancy, no switch, no fault
        // exposure — the mask is reconstructed (or copied forward) on the
        // agent unit and delivered at the decision instant.
        if rung >= DegradeLevel::SkipRefine {
            self.deliver(s, item, t_now, rung);
            return Ok(());
        }

        let bill = self.bill(plan, item, rung, attempt);
        let finish = t_now + bill.switch_ns + bill.stall_ns.unwrap_or(0.0) + bill.service_ns;

        // The device dies mid-attempt: the attempt (switch included) is
        // void, and the crash voids every resident hand-over too.
        if let Some(w) = self
            .crash_windows
            .front()
            .filter(|w| w.at_ns < finish)
            .copied()
        {
            self.wasted_ns += w.at_ns - t_now;
            self.crash(plan.rec);
            return Ok(());
        }
        self.commit(item.model(), &bill, finish);

        // The attempt completed on the NPU clock — did it return garbage?
        if plan
            .faults
            .draw_work_item_failure(item.session, item.idx, attempt)
        {
            self.wasted_ns += bill.service_ns;
            if attempt + 1 < plan.rec.max_attempts.max(1) {
                return self.retry(s, attempt + 1, finish);
            }
            self.live[s].out.degradation.retry_exhausted += 1;
            self.give_up(plan, s, item, finish);
            return Ok(());
        }

        self.busy_ns += bill.service_ns;
        self.deliver(s, item, finish, rung);
        Ok(())
    }

    /// Closes the books: per-session conservation, then the global record.
    fn into_outcome(
        self,
        policy: SchedPolicy,
        sessions: &[DrivenSession],
    ) -> Result<ScheduleOutcome> {
        let mut per_session = Vec::with_capacity(sessions.len());
        for (s, (l, samples)) in self.live.into_iter().zip(&self.session_samples).enumerate() {
            let mut out = l.out;
            let resolved = out.frames_full + out.frames_degraded + out.frames_shed;
            let lost = sessions[s].items.len() - resolved;
            if lost > 0 && !out.lost {
                return Err(ServeError::Scheduler {
                    time_ns: self.t_npu,
                    detail: format!("session {s}: {lost} frames unaccounted without a crash kill"),
                });
            }
            out.frames_lost = lost;
            out.latency = LatencyStats::from_samples(samples);
            per_session.push(out);
        }
        let sum =
            |f: &dyn Fn(&SessionSchedStats) -> usize| per_session.iter().map(f).sum::<usize>();
        let mut frames_at_level = [0usize; DegradeLevel::COUNT];
        for (k, n) in frames_at_level.iter_mut().enumerate() {
            *n = sum(&|p| p.degradation.frames_at_level[k]);
        }

        Ok(ScheduleOutcome {
            policy,
            frames_offered: sessions.iter().map(|s| s.items.len()).sum(),
            frames_full: sum(&|p| p.frames_full),
            frames_degraded: sum(&|p| p.frames_degraded),
            frames_shed: sum(&|p| p.frames_shed),
            frames_lost: sum(&|p| p.frames_lost),
            frames_at_level,
            sessions_lost: sum(&|p| usize::from(p.lost)),
            session_restores: sum(&|p| p.restores),
            retries: sum(&|p| p.degradation.retries),
            retry_exhausted: sum(&|p| p.degradation.retry_exhausted),
            watchdog_degraded: sum(&|p| p.degradation.watchdog_degraded),
            stalls: self.stalls,
            stall_ns: self.stall_ns,
            crashes: self.crashes,
            wasted_ns: self.wasted_ns,
            switches: self.switches,
            switch_ns: self.switch_ns,
            busy_ns: self.busy_ns,
            makespan_ns: self.t_npu,
            max_queue_depth: self.max_depth,
            mean_queue_depth: if self.samples.is_empty() {
                0.0
            } else {
                self.depth_sum as f64 / self.samples.len() as f64
            },
            decoder_stalls: self.decoder_stalls,
            latency: LatencyStats::from_samples(&self.samples),
            latency_samples: self.samples,
            per_session,
        })
    }
}

/// Rejects a cost model that would bill an infinite or NaN time, before
/// anything is billed with it: the serving entry points refuse it.
pub(crate) fn check_sim(sim: &SimConfig) -> Result<()> {
    sim.validate().map_err(|detail| ServeError::Refused {
        detail: format!("invalid cost model: {detail}"),
    })
}

/// Rejects a fault plan whose stall would bill a negative or NaN time:
/// one such stall moves the NPU clock backwards or poisons it, and with it
/// the makespan and every later latency.
fn check_faults(faults: &NpuFaultProfile) -> Result<()> {
    let stall = faults.stall_ns;
    if stall.is_finite() && stall >= 0.0 {
        return Ok(());
    }
    Err(ServeError::Refused {
        detail: format!("invalid fault plan: stall_ns is {stall}, must be finite and >= 0"),
    })
}

/// Replays the merged work of `sessions` through the shared NPU under
/// `policy`, against the fault plan `chaos` (`None` = no faults, shed-only
/// pressure handling). Deterministic: ties between sessions break by
/// admitted index.
///
/// # Errors
/// [`ServeError::Refused`] when `sim` fails [`SimConfig::validate`] or the
/// fault plan's [`NpuFaultProfile::stall_ns`] is negative or not finite,
/// and [`ServeError::Scheduler`] when an event-loop invariant breaks.
pub fn schedule(
    sessions: &[DrivenSession],
    policy: SchedPolicy,
    cfg: &SchedConfig,
    sim: &SimConfig,
    chaos: Option<&ChaosConfig>,
) -> Result<ScheduleOutcome> {
    check_sim(sim)?;
    let no_plan = ChaosConfig {
        faults: NpuFaultProfile::none(),
        recovery: RecoveryConfig::shed_only(),
    };
    let ChaosConfig {
        faults,
        recovery: rec,
    } = chaos.unwrap_or(&no_plan);
    check_faults(faults)?;
    let plan = Plan {
        policy,
        cfg,
        sim,
        faults,
        rec,
        ladder: rec.ladder && cfg.shed_after_ns.is_some(),
    };
    let mut r = Replay::new(sessions, &plan);

    // Every event resolves an item, burns one bounded retry, or consumes a
    // crash window — so this bound is unreachable unless an invariant
    // broke, and tripping it surfaces the bug instead of spinning forever.
    let frames_offered: usize = sessions.iter().map(|s| s.items.len()).sum();
    let max_events = frames_offered
        .saturating_mul(rec.max_attempts.max(1) as usize + 2)
        .saturating_add(faults.crashes.len() * (sessions.len() + 2))
        .saturating_add(64);
    let mut events = 0usize;
    while let Some(t_now) = r.next_instant() {
        events += 1;
        if events > max_events {
            return Err(ServeError::Scheduler {
                time_ns: t_now,
                detail: format!("event loop exceeded {max_events} iterations"),
            });
        }
        r.step(&plan, t_now)?;
    }
    r.into_outcome(policy, sessions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_codec::FrameType;

    /// A synthetic session alternating one NN-L anchor with `b_per_anchor`
    /// NN-S frames, paced at `interval` ns starting at `offset` ns.
    fn synth_session_at(
        session: usize,
        groups: usize,
        b_per_anchor: usize,
        interval: f64,
        offset: f64,
    ) -> DrivenSession {
        let mut items = Vec::new();
        let mut k = 0usize;
        for _ in 0..groups {
            for j in 0..=b_per_anchor {
                let arrival = offset + k as f64 * interval;
                items.push(WorkItem {
                    session,
                    idx: k,
                    display: k as u32,
                    ftype: if j == 0 { FrameType::I } else { FrameType::B },
                    ops: if j == 0 { 4_000_000_000 } else { 1_000_000 },
                    uses_large_model: j == 0,
                    arrival_ns: arrival,
                    ready_ns: arrival + 1_000.0,
                });
                k += 1;
            }
        }
        DrivenSession {
            name: format!("synth-{session}"),
            session,
            compute: ComputeMode::F32Reference,
            frames: items.len(),
            peak_live_frames: 2,
            total_ops: items.iter().map(|i| i.ops).sum(),
            switches_in_order: 2 * groups,
            isolated_ns: 0.0,
            items,
        }
    }

    /// [`synth_session_at`] with sessions staggered at arbitrary (anchor
    /// phase-spreading) offsets, like real independently-started streams.
    fn synth_session(
        session: usize,
        groups: usize,
        b_per_anchor: usize,
        interval: f64,
    ) -> DrivenSession {
        synth_session_at(
            session,
            groups,
            b_per_anchor,
            interval,
            session as f64 * 1.3 * interval,
        )
    }

    fn sim() -> SimConfig {
        SimConfig::default()
    }

    fn quiet_chaos() -> ChaosConfig {
        ChaosConfig {
            faults: NpuFaultProfile::none(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// Every admitted frame accounted for exactly once, and every delivered
    /// one backed by exactly one raw latency sample.
    fn assert_conserved(out: &ScheduleOutcome) {
        assert_eq!(
            out.frames_full + out.frames_degraded + out.frames_shed + out.frames_lost,
            out.frames_offered,
            "conservation broke: {out:?}"
        );
        assert_eq!(out.latency_samples.len(), out.frames_delivered());
        assert_eq!(
            LatencyStats::from_samples(&out.latency_samples),
            out.latency
        );
    }

    #[test]
    fn single_session_policies_agree() {
        let sessions = vec![synth_session(0, 4, 3, 2e6)];
        let cfg = SchedConfig::default();
        let fifo = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), None).unwrap();
        let batch = schedule(&sessions, SchedPolicy::Batch, &cfg, &sim(), None).unwrap();
        // One stream leaves nothing to batch across: identical schedules.
        assert_eq!(fifo.frames_delivered(), batch.frames_delivered());
        assert_eq!(fifo.switches, batch.switches);
        assert_eq!(fifo.latency, batch.latency);
    }

    #[test]
    fn batching_saves_switches_across_sessions() {
        // An interval tight enough that FIFO's per-anchor switch pairs
        // overload the NPU while compute alone fits — the regime where a
        // backlog forms and cross-session batching has choices to make.
        let sessions: Vec<DrivenSession> = (0..4).map(|s| synth_session(s, 4, 3, 1e6)).collect();
        let cfg = SchedConfig::default();
        let fifo = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), None).unwrap();
        let batch = schedule(&sessions, SchedPolicy::Batch, &cfg, &sim(), None).unwrap();
        assert_eq!(fifo.frames_delivered(), 4 * 16);
        assert_eq!(batch.frames_delivered(), 4 * 16);
        assert!(
            batch.switches < fifo.switches,
            "batching should amortise switches: {} vs {}",
            batch.switches,
            fifo.switches
        );
        assert!(batch.switch_ns < fifo.switch_ns);
        assert!(
            batch.latency.p99_ns < fifo.latency.p99_ns,
            "batching should cut p99 under contention: {} vs {}",
            batch.latency.p99_ns,
            fifo.latency.p99_ns
        );
        assert!(batch.makespan_ns < fifo.makespan_ns);
    }

    #[test]
    fn schedules_are_deterministic() {
        let sessions: Vec<DrivenSession> = (0..3).map(|s| synth_session(s, 3, 2, 1.5e6)).collect();
        let cfg = SchedConfig::default();
        let a = schedule(&sessions, SchedPolicy::Batch, &cfg, &sim(), None).unwrap();
        let b = schedule(&sessions, SchedPolicy::Batch, &cfg, &sim(), None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn npu_availability_offset_delays_service_and_is_sampled() {
        let sessions = vec![synth_session(0, 3, 3, 2e6)];
        let on_time = SchedConfig::default();
        let late = SchedConfig {
            npu_available_ns: 5e7,
            ..SchedConfig::default()
        };
        let a = schedule(&sessions, SchedPolicy::Fifo, &on_time, &sim(), None).unwrap();
        let b = schedule(&sessions, SchedPolicy::Fifo, &late, &sim(), None).unwrap();
        assert_eq!(a.frames_delivered(), b.frames_delivered());
        // Spin-up delays every completion: first frame can't finish before
        // the device exists, so the whole distribution shifts right.
        assert!(b.latency.p50_ns > a.latency.p50_ns);
        assert!(b.makespan_ns >= 5e7);
        assert_eq!(b.busy_ns, a.busy_ns, "spin-up is idle time, not compute");
        // The raw samples back the summary exactly.
        assert_eq!(a.latency_samples.len(), a.frames_delivered());
        assert_eq!(LatencyStats::from_samples(&a.latency_samples), a.latency);
        assert_eq!(LatencyStats::from_samples(&b.latency_samples), b.latency);
        // A zero offset is byte-identical to the default config.
        let c = schedule(&sessions, SchedPolicy::Fifo, &on_time, &sim(), None).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn bounded_queue_backpressures_the_decoder() {
        // Frames decoded far faster than the NPU serves them fill the
        // `ip_Q`-deep queue, and later hand-overs wait on serve completions.
        let sessions = vec![synth_session(0, 6, 5, 1_000.0)];
        let cfg = SchedConfig::default();
        let out = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), None).unwrap();
        assert_eq!(out.frames_delivered(), 36);
        assert!(out.decoder_stalls > 0, "expected backpressure stalls");
        assert_eq!(out.max_queue_depth, IP_Q_ENTRIES);
    }

    #[test]
    fn batch_cap_bounds_large_model_starvation() {
        // One session floods the NPU with three `b_Q`s' worth of NN-S work,
        // all handed over at once beside another session's three anchors.
        // The anchors go next once `B_Q_ENTRIES` NN-S serves have run, not
        // after the whole flood.
        let (flood, nns_ops) = (3 * B_Q_ENTRIES, 100_000_000);
        let mut nns_only = synth_session_at(0, 1, flood - 1, 0.0, 0.0);
        for item in &mut nns_only.items {
            item.uses_large_model = false;
            item.ops = nns_ops;
        }
        let anchors = synth_session_at(1, 3, 0, 0.0, 0.0);
        let cfg = SchedConfig::default();
        let out = schedule(&[nns_only, anchors], SchedPolicy::Batch, &cfg, &sim(), None).unwrap();
        assert_eq!(out.frames_delivered(), flood + 3);
        assert_eq!(out.per_session[1].frames_full, 3);
        // Hand-over, one capped NN-S run, one switch, the three anchors.
        let f32r = ComputeMode::F32Reference;
        let bound = 1_000.0
            + sim().switch_ns(None, Model::Small)
            + B_Q_ENTRIES as f64 * sim().service_ns(nns_ops, Model::Small, f32r)
            + sim().switch_ns(Some(Model::Small), Model::Large)
            + 3.0 * sim().service_ns(4_000_000_000, Model::Large, f32r)
            + 1.0;
        let waited = out.per_session[1].latency.max_ns;
        assert!(waited < bound, "anchors waited {waited} ns, bound {bound}");
        assert!(
            out.per_session[0].latency.max_ns > waited,
            "the flood ended first"
        );
    }

    #[test]
    fn shedding_deadline_drops_late_frames() {
        let sessions: Vec<DrivenSession> = (0..4).map(|s| synth_session(s, 4, 3, 100.0)).collect();
        let cfg = SchedConfig {
            shed_after_ns: Some(2e6),
            ..SchedConfig::default()
        };
        let out = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), None).unwrap();
        assert!(out.frames_shed > 0, "overload should shed");
        assert_eq!(out.frames_delivered() + out.frames_shed, 4 * 16);
        // A served frame waited at most the deadline before starting, so
        // its latency is bounded by deadline + one switch + its service.
        let bound = 2e6
            + sim().switch_ns(None, Model::Large)
            + sim().service_ns(4_000_000_000, Model::Large, ComputeMode::F32Reference)
            + 1.0;
        assert!(
            out.latency.max_ns < bound,
            "{} >= {bound}",
            out.latency.max_ns
        );
    }

    #[test]
    fn fault_free_chaos_is_identical_to_plain_schedule() {
        // A quiet fault plan and no plan at all must produce the same
        // record — per-session stats, queue depths and raw samples
        // included — with and without a deadline, under both policies.
        // With a deadline the ladder intentionally replaces sheds with
        // copy-forwards, so identity is pinned against shed-only recovery;
        // without one the ladder is dormant and the default recovery must
        // also be identical.
        let sessions: Vec<DrivenSession> = (0..4).map(|s| synth_session(s, 4, 3, 1e6)).collect();
        for (shed, recovery) in [
            (None, RecoveryConfig::default()),
            (None, RecoveryConfig::shed_only()),
            (Some(2e6), RecoveryConfig::shed_only()),
        ] {
            let cfg = SchedConfig {
                shed_after_ns: shed,
                ..SchedConfig::default()
            };
            for policy in [SchedPolicy::Fifo, SchedPolicy::Batch] {
                let plain = schedule(&sessions, policy, &cfg, &sim(), None).unwrap();
                let quiet = ChaosConfig {
                    faults: NpuFaultProfile::none(),
                    recovery: recovery.clone(),
                };
                let chaos = schedule(&sessions, policy, &cfg, &sim(), Some(&quiet)).unwrap();
                assert_eq!(plain, chaos);
                assert_eq!(chaos.frames_degraded, 0, "quiet replay degraded frames");
                assert_conserved(&chaos);
            }
        }
    }

    #[test]
    fn work_item_failures_are_retried_to_completion() {
        let sessions: Vec<DrivenSession> = (0..2).map(|s| synth_session(s, 3, 3, 2e6)).collect();
        let cfg = SchedConfig::default();
        let chaos = ChaosConfig {
            faults: NpuFaultProfile::work_item_failures(0.2, 11),
            recovery: RecoveryConfig {
                max_attempts: 8,
                ..RecoveryConfig::default()
            },
        };
        let out = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), Some(&chaos)).unwrap();
        assert_conserved(&out);
        assert!(out.retries > 0, "rate 0.2 planted no failures");
        assert!(out.wasted_ns > 0.0);
        // No deadline, generous budget: everything is eventually served
        // at full fidelity.
        assert_eq!(out.frames_full, out.frames_offered);
        assert_eq!(out.frames_degraded + out.frames_shed + out.frames_lost, 0);
        // Failed attempts burn real time: retried frames finish later, so
        // mean latency strictly rises (idle gaps can absorb the makespan).
        let clean = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), None).unwrap();
        assert!(out.makespan_ns >= clean.makespan_ns);
        assert!(out.latency.mean_ns > clean.latency.mean_ns);
    }

    #[test]
    fn exhausted_retry_budget_degrades_with_ladder_and_sheds_without() {
        // Every attempt fails, so every item exhausts its budget.
        let sessions = vec![synth_session(0, 2, 3, 2e6)];
        let cfg = SchedConfig {
            shed_after_ns: Some(1e9),
            ..SchedConfig::default()
        };
        let faults = NpuFaultProfile {
            work_item_fail_rate: 1.0,
            ..NpuFaultProfile::none()
        };
        let with_ladder = schedule(
            &sessions,
            SchedPolicy::Fifo,
            &cfg,
            &sim(),
            Some(&ChaosConfig {
                faults: faults.clone(),
                recovery: RecoveryConfig::default(),
            }),
        )
        .unwrap();
        assert_conserved(&with_ladder);
        assert_eq!(with_ladder.frames_degraded, with_ladder.frames_offered);
        assert_eq!(with_ladder.retry_exhausted, with_ladder.frames_offered);
        assert!(with_ladder.retries > 0);
        // Queue depth is sampled at *every* delivery, the copy-forward
        // fallback included: all 8 items are handed over at t≈0, so the
        // first delivery leaves 7 queued and the mean is (7+6+…+0)/8.
        assert_eq!(with_ladder.max_queue_depth, 7);
        assert_eq!(with_ladder.mean_queue_depth, 3.5);

        let shed_only = schedule(
            &sessions,
            SchedPolicy::Fifo,
            &cfg,
            &sim(),
            Some(&ChaosConfig {
                faults,
                recovery: RecoveryConfig::shed_only(),
            }),
        )
        .unwrap();
        assert_conserved(&shed_only);
        assert_eq!(shed_only.frames_shed, shed_only.frames_offered);
        assert_eq!(shed_only.frames_degraded, 0);
        assert_eq!(shed_only.retries, 0, "shed_only has a single attempt");
    }

    #[test]
    fn stalls_stretch_the_schedule() {
        let sessions = vec![synth_session(0, 4, 3, 2e6)];
        let cfg = SchedConfig::default();
        let chaos = ChaosConfig {
            faults: NpuFaultProfile::stalls(0.5, 300_000.0, 5),
            recovery: RecoveryConfig::default(),
        };
        let out = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), Some(&chaos)).unwrap();
        let clean = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), None).unwrap();
        assert_conserved(&out);
        assert!(out.stalls > 0);
        assert!(out.stall_ns > 0.0);
        assert_eq!(out.frames_full, out.frames_offered);
        assert!(out.latency.mean_ns > clean.latency.mean_ns);
    }

    #[test]
    fn crash_without_checkpoints_kills_resident_sessions() {
        let sessions: Vec<DrivenSession> = (0..3).map(|s| synth_session(s, 4, 3, 1e6)).collect();
        let cfg = SchedConfig::default();
        // Crash well inside the replay (its makespan is tens of ms).
        let chaos = ChaosConfig {
            faults: NpuFaultProfile::single_crash(5e6, 2e6),
            recovery: RecoveryConfig {
                checkpoint_restore: false,
                ..RecoveryConfig::shed_only()
            },
        };
        let out = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), Some(&chaos)).unwrap();
        assert_conserved(&out);
        assert_eq!(out.crashes, 1);
        assert!(out.sessions_lost > 0, "crash killed nobody");
        assert!(out.frames_lost > 0);
        assert_eq!(out.session_restores, 0);
        let lost: Vec<_> = out.per_session.iter().filter(|p| p.lost).collect();
        assert_eq!(lost.len(), out.sessions_lost);
        for p in lost {
            assert!(p.frames_lost > 0);
        }
    }

    #[test]
    fn crash_with_checkpoints_loses_nothing() {
        let sessions: Vec<DrivenSession> = (0..3).map(|s| synth_session(s, 4, 3, 1e6)).collect();
        let cfg = SchedConfig::default();
        let chaos = ChaosConfig {
            faults: NpuFaultProfile::single_crash(5e6, 2e6),
            recovery: RecoveryConfig::default(),
        };
        let out = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), Some(&chaos)).unwrap();
        assert_conserved(&out);
        assert_eq!(out.crashes, 1);
        assert_eq!(out.sessions_lost, 0);
        assert_eq!(out.frames_lost, 0);
        assert!(out.session_restores > 0, "nobody paid a restore");
        assert_eq!(out.frames_delivered(), out.frames_offered);
        // The outage plus restore penalty shows up on the clock.
        let clean = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), None).unwrap();
        assert!(out.makespan_ns > clean.makespan_ns);
        assert!(out.makespan_ns >= 7e6, "makespan predates the recovery");
    }

    #[test]
    fn ladder_degrades_under_pressure_and_recovers() {
        // A hopeless burst followed by a calm tail: the ladder must step
        // down during the burst and climb back up in the tail.
        let mut burst = synth_session(0, 6, 7, 50.0);
        let calm = synth_session_at(0, 6, 7, 4e6, 1e9);
        let offset = burst.items.len();
        for (k, item) in calm.items.iter().enumerate() {
            let mut item = item.clone();
            item.idx = offset + k;
            item.display = (offset + k) as u32;
            burst.items.push(item);
        }
        burst.frames = burst.items.len();
        burst.total_ops = burst.items.iter().map(|i| i.ops).sum();
        let cfg = SchedConfig {
            shed_after_ns: Some(3e6),
            ..SchedConfig::default()
        };
        let chaos = quiet_chaos();
        let out = schedule(&[burst], SchedPolicy::Fifo, &cfg, &sim(), Some(&chaos)).unwrap();
        assert_conserved(&out);
        let deg = &out.per_session[0].degradation;
        assert!(deg.downgrades > 0, "burst never downgraded: {deg:?}");
        assert!(deg.upgrades > 0, "calm tail never upgraded: {deg:?}");
        assert_eq!(out.frames_shed, 0, "ladder mode must not shed");
        assert_eq!(out.frames_lost, 0);
        assert_eq!(out.frames_delivered(), out.frames_offered);
        assert!(out.frames_degraded > 0);
        // The calm tail is served at full fidelity again.
        assert!(out.frames_full > 0);
    }

    #[test]
    fn int8_sessions_floor_at_their_own_rung() {
        // An int8-mode session's NN-S serves are full fidelity *for it*
        // and run faster than the f32 replay of the same items.
        let mut s = synth_session(0, 3, 5, 4e6);
        s.compute = ComputeMode::Int8;
        let f32_twin = synth_session(0, 3, 5, 4e6);
        let cfg = SchedConfig::default();
        let int8 = schedule(&[s], SchedPolicy::Fifo, &cfg, &sim(), Some(&quiet_chaos())).unwrap();
        let f32r = schedule(
            &[f32_twin],
            SchedPolicy::Fifo,
            &cfg,
            &sim(),
            Some(&quiet_chaos()),
        )
        .unwrap();
        assert_conserved(&int8);
        assert_eq!(int8.frames_full, int8.frames_offered);
        assert_eq!(int8.frames_degraded, 0);
        assert_eq!(int8.frames_at_level[DegradeLevel::Int8.index()], 3 * 5);
        assert!(int8.busy_ns < f32r.busy_ns, "int8 NN-S should be cheaper");
    }

    #[test]
    fn chaos_replays_are_deterministic_and_policy_order_free() {
        let sessions: Vec<DrivenSession> = (0..3).map(|s| synth_session(s, 4, 3, 1e6)).collect();
        let cfg = SchedConfig {
            shed_after_ns: Some(8e6),
            ..SchedConfig::default()
        };
        let chaos = ChaosConfig {
            faults: NpuFaultProfile::chaos(0.15, 77),
            recovery: RecoveryConfig::default(),
        };
        let a = schedule(&sessions, SchedPolicy::Batch, &cfg, &sim(), Some(&chaos)).unwrap();
        let b = schedule(&sessions, SchedPolicy::Batch, &cfg, &sim(), Some(&chaos)).unwrap();
        assert_eq!(a, b);
        assert_conserved(&a);
        // Counter-hashed draws: the fifo replay of the same profile sees
        // the same fault count on first attempts even though its visit
        // order differs.
        let fifo = schedule(&sessions, SchedPolicy::Fifo, &cfg, &sim(), Some(&chaos)).unwrap();
        assert_conserved(&fifo);
        assert!(fifo.retries + fifo.retry_exhausted > 0);
    }
}
