//! Serving sweep: 1→K concurrent sessions on one shared virtual NPU.
//!
//! Drives the `vrd-serve` subsystem over the DAVIS-like validation suite:
//! each row offers K concurrent recognition sessions (cycling the suite when
//! K exceeds it) to the admission controller, serves the admitted set, and
//! reports the shared NPU under both disciplines — per-stream FIFO and the
//! cross-session extension of the paper's lagged queue switching (§V-B's
//! b_Q idea applied across streams). The headline columns are the model
//! switches the batching scheduler saves and the p99 frame latency under
//! each policy; the admission columns show where the SLO starts shedding
//! load. Deterministic for a fixed scale: reruns are byte-identical.

use crate::context::{parallel_map, Context};
use crate::table::{fmt_ms, fmt_pct, Table};
use vrd_codec::EncodedVideo;
use vrd_serve::{serve, LatencyStats, ScheduleOutcome, ServeConfig, ServeReport, SessionState};

/// The session counts the full sweep offers.
pub(crate) const SESSIONS: [usize; 5] = [1, 2, 4, 6, 8];

/// One session count's results.
#[derive(Debug, Clone)]
pub(crate) struct ServeBenchRow {
    /// Sessions offered.
    pub requested: usize,
    /// Sessions the SLO admitted.
    pub admitted: usize,
    /// Sessions admission control rejected.
    pub rejected: usize,
    /// Names of the admitted sessions, in offered order.
    pub admitted_sessions: Vec<String>,
    /// `Some(k)` when admission saturated and this row's admitted set is
    /// identical to the earlier `k`-session row's — its schedule is a
    /// verbatim repeat of that row, not new information.
    pub duplicate_of: Option<usize>,
    /// Projected NPU utilisation over the admitted set.
    pub projected_utilization: f64,
    /// Shared NPU under per-stream FIFO.
    pub fifo: ScheduleOutcome,
    /// Shared NPU under cross-session batching.
    pub batched: ScheduleOutcome,
    /// Switches batching saved over FIFO (positive = saved).
    pub switches_saved: i64,
}

/// The complete serving sweep.
#[derive(Debug, Clone)]
pub(crate) struct ServeBench {
    /// One row per offered session count, ascending.
    pub rows: Vec<ServeBenchRow>,
}

fn row_from_report(requested: usize, report: ServeReport) -> ServeBenchRow {
    ServeBenchRow {
        requested,
        switches_saved: report.switches_saved(),
        admitted: report.admitted,
        rejected: report.rejected,
        admitted_sessions: report
            .sessions
            .iter()
            .filter(|s| s.state == SessionState::Drained)
            .map(|s| s.name.clone())
            .collect(),
        duplicate_of: None,
        projected_utilization: report.projected_utilization,
        fifo: report.fifo,
        batched: report.batched,
    }
}

/// Runs the sweep at the given offered-session counts.
pub(crate) fn run_sessions(ctx: &Context, sessions: &[usize]) -> ServeBench {
    // Encode once per suite sequence; each session count reuses the streams.
    let encoded: Vec<EncodedVideo> = parallel_map(&ctx.davis, |seq| {
        ctx.model.encode(seq).expect("suite sequences encode")
    });
    let cfg = ServeConfig {
        sim: ctx.sim,
        ..ServeConfig::default()
    };
    let mut rows: Vec<ServeBenchRow> = Vec::with_capacity(sessions.len());
    for &k in sessions {
        // The load generator's fixed-seed legacy profile reproduces this
        // sweep's historical offered set exactly (k simultaneous standard
        // sessions cycling the suite), so the rows stay byte-identical
        // while the arrival list now comes from the same machinery the
        // fleet bench traces.
        let arrivals = vrd_serve::legacy_sweep(k, ctx.davis.len()).arrivals;
        let requests: Vec<_> = arrivals
            .iter()
            .map(|a| (&ctx.davis[a.stream], &encoded[a.stream]))
            .collect();
        let report = serve(&ctx.model, &requests, &cfg)
            .expect("admitted suite sessions serve to completion");
        let mut row = row_from_report(k, report);
        // When admission saturates, a larger offered count admits the same
        // sessions as an earlier row and serving is deterministic, so the
        // whole schedule is a verbatim repeat — mark it instead of letting
        // the table re-report it as a distinct data point.
        row.duplicate_of = rows
            .iter()
            .find(|r| r.admitted_sessions == row.admitted_sessions)
            .map(|r| r.requested);
        rows.push(row);
    }
    ServeBench { rows }
}

/// Runs the full sweep (all counts in [`SESSIONS`]).
pub(crate) fn run(ctx: &Context) -> ServeBench {
    run_sessions(ctx, &SESSIONS)
}

/// The five-field latency object the serving artefacts share.
pub(crate) fn latency_json(l: &LatencyStats) -> String {
    format!(
        "{{\"mean_ns\":{:.1},\"p50_ns\":{:.1},\"p95_ns\":{:.1},\"p99_ns\":{:.1},\"max_ns\":{:.1}}}",
        l.mean_ns, l.p50_ns, l.p95_ns, l.p99_ns, l.max_ns
    )
}

impl ServeBench {
    /// Rows whose admitted set is large enough for cross-session batching
    /// to have headroom (the acceptance regime: ≥ 4 concurrent sessions).
    pub(crate) fn contended_rows(&self) -> impl Iterator<Item = &ServeBenchRow> {
        self.rows.iter().filter(|r| r.admitted >= 4)
    }

    /// Every acceptance-gate violation in the sweep (empty = pass): on each
    /// contended row the batching scheduler must strictly beat per-stream
    /// FIFO on both model switches and p99 frame latency, and at least one
    /// row must be contended — the subsystem's headline claim, not just
    /// its determinism.
    pub(crate) fn acceptance_failures(&self) -> Vec<String> {
        let mut fails: Vec<String> = self
            .contended_rows()
            .filter(|r| {
                r.batched.switches >= r.fifo.switches
                    || r.batched.latency.p99_ns >= r.fifo.latency.p99_ns
            })
            .map(|r| {
                format!(
                    "{} sessions: switches {} vs {}, p99 {:.0} vs {:.0}",
                    r.requested,
                    r.batched.switches,
                    r.fifo.switches,
                    r.batched.latency.p99_ns,
                    r.fifo.latency.p99_ns
                )
            })
            .collect();
        if self.contended_rows().next().is_none() {
            fails.push("no row admitted >= 4 sessions".to_string());
        }
        fails
    }

    /// Renders the serving table.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec![
            "sessions",
            "admitted",
            "util",
            "fifo sw",
            "batch sw",
            "saved",
            "fifo p99 ms",
            "batch p99 ms",
            "fifo span ms",
            "batch span ms",
            "stalls",
            "note",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.requested.to_string(),
                r.admitted.to_string(),
                fmt_pct(r.projected_utilization),
                r.fifo.switches.to_string(),
                r.batched.switches.to_string(),
                r.switches_saved.to_string(),
                fmt_ms(r.fifo.latency.p99_ns),
                fmt_ms(r.batched.latency.p99_ns),
                fmt_ms(r.fifo.makespan_ns),
                fmt_ms(r.batched.makespan_ns),
                r.batched.decoder_stalls.to_string(),
                match r.duplicate_of {
                    Some(k) => format!("saturated (= {k}-session schedule)"),
                    None => String::new(),
                },
            ]);
        }
        // Pointer line (render-only; not a data point, absent from the
        // JSON, and appended after the table so the rows above stay
        // byte-identical): the fleet bench owns scaling claims past one
        // NPU.
        format!(
            "Serving: shared-NPU scheduling, per-stream FIFO vs cross-session batching\n{}\
             → scaling: fleet_bench supersedes this 1→8 sweep (sharded NPUs, trace-driven load)\n",
            t.render()
        )
    }

    /// Machine-readable JSON of the sweep (hand-rolled — the workspace
    /// carries no serialisation dependency).
    pub(crate) fn to_json(&self) -> String {
        fn policy_json(p: &ScheduleOutcome) -> String {
            format!(
                "{{\"frames_served\":{},\"frames_shed\":{},\"switches\":{},\
                 \"switch_ns\":{:.1},\"busy_ns\":{:.1},\"makespan_ns\":{:.1},\
                 \"max_queue_depth\":{},\"mean_queue_depth\":{:.3},\
                 \"decoder_stalls\":{},\"latency\":{}}}",
                p.frames_delivered(),
                p.frames_shed,
                p.switches,
                p.switch_ns,
                p.busy_ns,
                p.makespan_ns,
                p.max_queue_depth,
                p.mean_queue_depth,
                p.decoder_stalls,
                latency_json(&p.latency),
            )
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let admitted_sessions: Vec<String> = r
                    .admitted_sessions
                    .iter()
                    .map(|n| format!("\"{n}\""))
                    .collect();
                format!(
                    "    {{\"sessions\":{},\"admitted\":{},\"rejected\":{},\
                     \"admitted_sessions\":[{}],\"duplicate_of\":{},\
                     \"projected_utilization\":{:.6},\"switches_saved\":{},\
                     \"fifo\":{},\"batched\":{}}}",
                    r.requested,
                    r.admitted,
                    r.rejected,
                    admitted_sessions.join(","),
                    r.duplicate_of
                        .map_or_else(|| "null".to_string(), |k| k.to_string()),
                    r.projected_utilization,
                    r.switches_saved,
                    policy_json(&r.fifo),
                    policy_json(&r.batched),
                )
            })
            .collect();
        format!(
            "{{\n  \"experiment\": \"serve\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_quick_batching_wins_under_contention_and_slo_sheds() {
        let ctx = crate::context::quick();
        let sweep = run_sessions(ctx, &[1, 4, 6, 8]);
        assert_eq!(sweep.rows.len(), 4);

        // One stream: nothing to batch across sessions; policies agree.
        let solo = &sweep.rows[0];
        assert_eq!(solo.admitted, 1);
        assert_eq!(solo.admitted_sessions.len(), 1);
        assert_eq!(solo.switches_saved, 0);
        assert_eq!(solo.fifo.switches, solo.batched.switches);

        // The acceptance regime: at ≥ 4 admitted sessions the batching
        // scheduler pays strictly fewer switches AND a lower p99 than FIFO.
        let fails = sweep.acceptance_failures();
        assert!(fails.is_empty(), "acceptance failures: {fails:?}");
        let contended: Vec<_> = sweep.contended_rows().collect();
        assert!(!contended.is_empty(), "no row admitted ≥ 4 sessions");
        for r in contended {
            assert!(
                r.batched.switches < r.fifo.switches,
                "{} sessions: batch {} vs fifo {} switches",
                r.requested,
                r.batched.switches,
                r.fifo.switches
            );
            assert!(r.switches_saved > 0);
            assert!(
                r.batched.latency.p99_ns < r.fifo.latency.p99_ns,
                "{} sessions: batch p99 {:.0} vs fifo {:.0}",
                r.requested,
                r.batched.latency.p99_ns,
                r.fifo.latency.p99_ns
            );
            // Both policies served the full admitted workload.
            assert_eq!(r.fifo.frames_delivered(), r.batched.frames_delivered());
            assert_eq!(r.fifo.frames_shed, 0);
        }

        // Offered load beyond the SLO gets shed at admission.
        let heavy = &sweep.rows[3];
        assert_eq!(heavy.requested, 8);
        assert!(heavy.rejected > 0, "8 offered sessions all admitted");
        assert!(heavy.admitted + heavy.rejected == 8);
        assert_eq!(heavy.admitted_sessions.len(), heavy.admitted);

        // Admission saturated: the 8-session row admits the same set the
        // 6-session row did, so it must be flagged as a verbatim repeat of
        // that schedule instead of re-reported as new data. Rows with
        // distinct admitted sets must not be flagged.
        let six = &sweep.rows[2];
        assert_eq!(six.requested, 6);
        assert_eq!(heavy.admitted_sessions, six.admitted_sessions);
        assert_eq!(heavy.duplicate_of, Some(6));
        for r in &sweep.rows[..3] {
            assert_eq!(
                r.duplicate_of, None,
                "{} sessions wrongly flagged",
                r.requested
            );
        }

        let text = sweep.render();
        assert!(text.contains("Serving"));
        assert!(text.contains("batch sw"));
        assert!(text.contains("saturated (= 6-session schedule)"));
        let json = sweep.to_json();
        assert!(json.contains("\"experiment\": \"serve\""));
        assert!(json.contains("\"switches_saved\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"duplicate_of\":6"));
        assert!(json.contains("\"admitted_sessions\":["));
    }
}
