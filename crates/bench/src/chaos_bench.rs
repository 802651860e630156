//! Chaos sweep: the serving workload replayed under seeded fault timelines.
//!
//! Reuses the `serve_bench` workload (K concurrent DAVIS-like sessions on
//! one shared virtual NPU, offered by [`vrd_serve::legacy_sweep`]) but
//! replays the admitted work through [`vrd_serve::schedule`] against
//! deterministic fault plans. Each session count pays the real NN-L/NN-S
//! compute **once** (via [`vrd_serve::admit_and_drive`]); every scenario
//! is then a pure replay of the same stamped work:
//!
//! * `clean` — a quiet fault plan. Its whole [`ScheduleOutcome`] must equal
//!   the no-plan replay's under both policies: the fault branches change
//!   no arithmetic when nothing fires.
//! * `itemfail10-shed` — 10 % work-item failures (plus the profile's
//!   transient stalls) under the PR-4 shed-only posture: one attempt per
//!   item, misses dropped at the deadline.
//! * `itemfail10-ladder` — the same fault timeline with the full recovery
//!   stack: bounded-backoff retries and the graceful-degradation ladder.
//! * `crash-shed` — a single NPU crash/recover window with no checkpoints:
//!   sessions with device-resident work die.
//! * `crash-restore` — the same crash with checkpoint restore: every
//!   session resumes after the outage plus the restore penalty.
//!
//! The acceptance gates (enforced by `vrd-bench -- chaos` and the
//! quick-scale test) mirror the resilience claims: on contended rows the
//! ladder delivers ≥ 95 % of offered frames where shed-only serves ≤ 80 %,
//! and checkpoints turn "sessions lost" into "zero lost, all frames
//! delivered". Everything is deterministic: reruns are byte-identical.

use crate::context::{parallel_map, Context};
use crate::serve_bench::latency_json;
use crate::table::{fmt_ms, fmt_pct, Table};
use vrd_codec::EncodedVideo;
use vrd_serve::{
    admit_and_drive, schedule, ChaosConfig, DegradationStats, DrivenSession, NpuFaultProfile,
    RecoveryConfig, SchedConfig, SchedPolicy, ScheduleOutcome, ServeConfig,
};

/// The session counts the sweep offers (the serve sweep's contended tail
/// plus a light row so the fault scenarios are also exercised uncontended).
pub(crate) const SESSIONS: [usize; 3] = [1, 4, 6];

/// Work-item failure rate of the head-line fault scenario.
pub(crate) const FAIL_RATE: f64 = 0.10;

/// Seed for every fault lottery in the sweep.
pub(crate) const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// One session count's chaos results (all replays under the batching
/// policy — the serving discipline the subsystem actually runs).
#[derive(Debug, Clone)]
pub(crate) struct ChaosBenchRow {
    /// Sessions offered.
    pub requested: usize,
    /// Sessions the SLO admitted.
    pub admitted: usize,
    /// Whether the quiet-plan replay returned the same record as the
    /// no-plan replay under **both** policies.
    pub clean_matches_plain: bool,
    /// The shedding deadline the fault scenarios ran with, derived from
    /// the clean replay's latency distribution (`0.9·p50 + 0.1·p95`) so
    /// quick and full scales stress comparably.
    pub deadline_ns: f64,
    /// When the single crash window opens, on the NPU clock.
    pub crash_at_ns: f64,
    /// How long the NPU stays down.
    pub crash_down_ns: f64,
    /// Scenario replays, fixed order: clean, itemfail10-shed,
    /// itemfail10-ladder, crash-shed, crash-restore.
    pub scenarios: Vec<(&'static str, ScheduleOutcome)>,
}

impl ChaosBenchRow {
    /// Looks a scenario up by name.
    pub(crate) fn scenario(&self, name: &str) -> &ScheduleOutcome {
        self.scenarios
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, o)| o)
            .unwrap_or_else(|| panic!("no scenario named {name}"))
    }
}

/// The complete chaos sweep.
#[derive(Debug, Clone)]
pub(crate) struct ChaosBench {
    /// One row per offered session count, ascending.
    pub rows: Vec<ChaosBenchRow>,
}

fn run_row(requested: usize, driven: &[DrivenSession], cfg: &ServeConfig) -> ChaosBenchRow {
    let sim = &cfg.sim;
    let replay = |policy, sched: &SchedConfig, chaos: Option<&ChaosConfig>| {
        schedule(driven, policy, sched, sim, chaos).expect("replay")
    };

    // Clean identity: the quiet plan against no plan, both policies, the
    // serve-bench configuration (no deadline), on the whole record.
    let quiet = ChaosConfig {
        faults: NpuFaultProfile::none(),
        recovery: RecoveryConfig::default(),
    };
    let clean = replay(SchedPolicy::Batch, &cfg.sched, Some(&quiet));
    let clean_matches_plain = replay(SchedPolicy::Batch, &cfg.sched, None) == clean
        && replay(SchedPolicy::Fifo, &cfg.sched, None)
            == replay(SchedPolicy::Fifo, &cfg.sched, Some(&quiet));

    // The fault scenarios' deadline scales with the clean latency
    // distribution — `0.9·p50 + 0.1·p95`, a tenth of the way from the
    // median to the tail — so quick and full runs shed under comparable
    // relative pressure. The crash window opens at the median
    // work-item hand-over instant — by construction the NPU has
    // device-resident work then, whatever the scale — and stays down for
    // a makespan-relative outage.
    let deadline_ns = (0.9 * clean.latency.p50_ns + 0.1 * clean.latency.p95_ns).max(1.0);
    let mut ready: Vec<f64> = driven
        .iter()
        .flat_map(|d| d.items.iter().map(|i| i.ready_ns))
        .collect();
    ready.sort_by(f64::total_cmp);
    let crash_at_ns = ready.get(ready.len() / 2).copied().unwrap_or(0.0) + 1.0;
    let crash_down_ns = 0.1 * clean.makespan_ns;

    let deadline_cfg = SchedConfig {
        shed_after_ns: Some(deadline_ns),
        ..cfg.sched
    };
    let faults = NpuFaultProfile::chaos(FAIL_RATE, CHAOS_SEED);
    let crash = NpuFaultProfile::single_crash(crash_at_ns, crash_down_ns);

    let faulty = |sched: &SchedConfig, faults: &NpuFaultProfile, recovery: RecoveryConfig| {
        let chaos = ChaosConfig {
            faults: faults.clone(),
            recovery,
        };
        replay(SchedPolicy::Batch, sched, Some(&chaos))
    };

    let scenarios = vec![
        ("clean", clean),
        (
            "itemfail10-shed",
            faulty(&deadline_cfg, &faults, RecoveryConfig::shed_only()),
        ),
        (
            "itemfail10-ladder",
            faulty(&deadline_cfg, &faults, RecoveryConfig::default()),
        ),
        (
            "crash-shed",
            faulty(&cfg.sched, &crash, RecoveryConfig::shed_only()),
        ),
        (
            "crash-restore",
            faulty(&cfg.sched, &crash, RecoveryConfig::default()),
        ),
    ];

    ChaosBenchRow {
        requested,
        admitted: driven.len(),
        clean_matches_plain,
        deadline_ns,
        crash_at_ns,
        crash_down_ns,
        scenarios,
    }
}

/// Runs the sweep at the given offered-session counts.
pub(crate) fn run_sessions(ctx: &Context, sessions: &[usize]) -> ChaosBench {
    let encoded: Vec<EncodedVideo> = parallel_map(&ctx.davis, |seq| {
        ctx.model.encode(seq).expect("suite sequences encode")
    });
    let cfg = ServeConfig {
        sim: ctx.sim,
        ..ServeConfig::default()
    };
    let mut rows = Vec::with_capacity(sessions.len());
    for &k in sessions {
        let requests: Vec<_> = vrd_serve::legacy_sweep(k, ctx.davis.len())
            .arrivals
            .iter()
            .map(|a| (&ctx.davis[a.stream], &encoded[a.stream]))
            .collect();
        // The real compute, paid once; every scenario replays this work.
        let (_, driven, _) =
            admit_and_drive(&ctx.model, &requests, &cfg).expect("admitted suite sessions drive");
        rows.push(run_row(k, &driven, &cfg));
    }
    ChaosBench { rows }
}

/// Runs the full sweep (all counts in [`SESSIONS`]).
pub(crate) fn run(ctx: &Context) -> ChaosBench {
    run_sessions(ctx, &SESSIONS)
}

impl ChaosBench {
    /// Rows with enough admitted sessions for the NPU to be contended —
    /// where the resilience gates apply (≥ 4, the serve-bench regime).
    pub(crate) fn contended_rows(&self) -> impl Iterator<Item = &ChaosBenchRow> {
        self.rows.iter().filter(|r| r.admitted >= 4)
    }

    /// Every acceptance-gate violation in the sweep (empty = pass).
    ///
    /// Gates, per contended row: the quiet-plan replay equals the no-plan
    /// replay; at a 10 % work-item fault rate the shed-only
    /// posture serves ≤ 80 % while the recovery stack delivers ≥ 95 %;
    /// a single NPU crash kills sessions without checkpoints and loses
    /// nothing with them.
    pub(crate) fn acceptance_failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        let mut contended = 0usize;
        for r in self.contended_rows() {
            contended += 1;
            let k = r.requested;
            if !r.clean_matches_plain {
                fails.push(format!("{k} sessions: quiet-plan replay != no-plan replay"));
            }
            let shed = r.scenario("itemfail10-shed");
            if shed.delivered_fraction() > 0.80 {
                fails.push(format!(
                    "{k} sessions: shed-only served {:.1}% > 80% at {:.0}% faults",
                    100.0 * shed.delivered_fraction(),
                    100.0 * FAIL_RATE
                ));
            }
            let ladder = r.scenario("itemfail10-ladder");
            if ladder.delivered_fraction() < 0.95 {
                fails.push(format!(
                    "{k} sessions: recovery stack delivered {:.1}% < 95%",
                    100.0 * ladder.delivered_fraction()
                ));
            }
            let crash = r.scenario("crash-shed");
            if crash.sessions_lost == 0 {
                fails.push(format!(
                    "{k} sessions: crash without checkpoints killed nobody"
                ));
            }
            let restore = r.scenario("crash-restore");
            if restore.sessions_lost != 0
                || restore.frames_lost != 0
                || restore.frames_full + restore.frames_degraded + restore.frames_shed
                    != restore.frames_offered
            {
                fails.push(format!(
                    "{k} sessions: checkpointed crash lost {} sessions / {} frames",
                    restore.sessions_lost, restore.frames_lost
                ));
            }
        }
        if contended == 0 {
            fails.push("no row admitted >= 4 sessions".to_string());
        }
        fails
    }

    /// Renders the chaos table.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec![
            "sessions",
            "scenario",
            "delivered",
            "full",
            "degraded",
            "shed",
            "lost",
            "sess lost",
            "restores",
            "retries",
            "p99 ms",
            "span ms",
        ]);
        for r in &self.rows {
            for (name, s) in &r.scenarios {
                t.row(vec![
                    r.requested.to_string(),
                    name.to_string(),
                    fmt_pct(s.delivered_fraction()),
                    s.frames_full.to_string(),
                    s.frames_degraded.to_string(),
                    s.frames_shed.to_string(),
                    s.frames_lost.to_string(),
                    s.sessions_lost.to_string(),
                    s.session_restores.to_string(),
                    s.retries.to_string(),
                    fmt_ms(s.latency.p99_ns),
                    fmt_ms(s.makespan_ns),
                ]);
            }
        }
        format!(
            "Chaos: fault-injected serving, shed-only vs retry/checkpoint/ladder recovery\n{}",
            t.render()
        )
    }

    /// Machine-readable JSON of the sweep (hand-rolled — the workspace
    /// carries no serialisation dependency).
    pub(crate) fn to_json(&self) -> String {
        fn scenario_json((name, s): &(&'static str, ScheduleOutcome)) -> String {
            let ladder_steps = |f: fn(&DegradationStats) -> usize| -> usize {
                s.per_session.iter().map(|p| f(&p.degradation)).sum()
            };
            format!(
                "{{\"name\":\"{}\",\"frames_offered\":{},\"frames_full\":{},\
                 \"frames_degraded\":{},\"frames_shed\":{},\"frames_lost\":{},\
                 \"delivered_frac\":{:.6},\"sessions_lost\":{},\"restores\":{},\
                 \"retries\":{},\"retry_exhausted\":{},\"watchdog_degraded\":{},\
                 \"downgrades\":{},\"upgrades\":{},\"stalls\":{},\"crashes\":{},\
                 \"wasted_ns\":{:.1},\"makespan_ns\":{:.1},\"latency\":{}}}",
                name,
                s.frames_offered,
                s.frames_full,
                s.frames_degraded,
                s.frames_shed,
                s.frames_lost,
                s.delivered_fraction(),
                s.sessions_lost,
                s.session_restores,
                s.retries,
                s.retry_exhausted,
                s.watchdog_degraded,
                ladder_steps(|d| d.downgrades),
                ladder_steps(|d| d.upgrades),
                s.stalls,
                s.crashes,
                s.wasted_ns,
                s.makespan_ns,
                latency_json(&s.latency),
            )
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let scenarios: Vec<String> = r.scenarios.iter().map(scenario_json).collect();
                format!(
                    "    {{\"sessions\":{},\"admitted\":{},\"clean_matches_plain\":{},\
                     \"deadline_ns\":{:.1},\"crash_at_ns\":{:.1},\"crash_down_ns\":{:.1},\
                     \"scenarios\":[\n      {}\n    ]}}",
                    r.requested,
                    r.admitted,
                    r.clean_matches_plain,
                    r.deadline_ns,
                    r.crash_at_ns,
                    r.crash_down_ns,
                    scenarios.join(",\n      "),
                )
            })
            .collect();
        format!(
            "{{\n  \"experiment\": \"chaos\",\n  \"seed\": {},\n  \"fail_rate\": {:.2},\n  \"rows\": [\n{}\n  ]\n}}\n",
            CHAOS_SEED,
            FAIL_RATE,
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_quick_gates_hold_and_reports_render() {
        let ctx = crate::context::quick();
        let sweep = run_sessions(ctx, &[1, 4]);
        assert_eq!(sweep.rows.len(), 2);

        // Every acceptance gate holds at quick scale — the same predicate
        // the binary exits nonzero on.
        let fails = sweep.acceptance_failures();
        assert!(fails.is_empty(), "acceptance gates failed: {fails:?}");

        // The quiet-plan replay equals the no-plan replay on every row,
        // contended or not.
        for r in &sweep.rows {
            assert!(r.clean_matches_plain, "{} sessions drifted", r.requested);
            let clean = r.scenario("clean");
            assert_eq!(clean.frames_full, clean.frames_offered);
            assert_eq!(clean.retries + clean.stalls + clean.crashes, 0);
        }

        // The contended row separates the postures: shed-only loses real
        // frames, the recovery stack delivers (degraded allowed), the
        // checkpointed crash pays restores instead of losing sessions.
        let r = &sweep.rows[1];
        assert!(r.admitted >= 4, "quick scale no longer contends at K=4");
        let shed = r.scenario("itemfail10-shed");
        assert!(shed.frames_shed > 0);
        let ladder = r.scenario("itemfail10-ladder");
        assert!(ladder.retries > 0);
        assert!(ladder.delivered_fraction() >= 0.95);
        assert!(r.scenario("crash-shed").sessions_lost > 0);
        let restore = r.scenario("crash-restore");
        assert_eq!(restore.sessions_lost, 0);
        assert!(restore.session_restores > 0);

        // Deterministic: a rerun over the same context is byte-identical.
        let again = run_sessions(ctx, &[1, 4]);
        assert_eq!(sweep.to_json(), again.to_json());

        let text = sweep.render();
        assert!(text.contains("Chaos"));
        assert!(text.contains("itemfail10-ladder"));
        assert!(text.contains("crash-restore"));
        let json = sweep.to_json();
        assert!(json.contains("\"experiment\": \"chaos\""));
        assert!(json.contains("\"clean_matches_plain\":true"));
        assert!(json.contains("\"delivered_frac\""));
    }
}
