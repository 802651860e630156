//! # vrd-serve — multi-stream serving for the VR-DANN pipeline
//!
//! The paper's agent unit schedules NN-L/NN-S work for *one* video
//! (§IV-C's lagged queue switching). This crate extends that idea to a
//! production shape: N concurrent recognition sessions share one NPU, and
//! the scheduler batches same-model work *across* sessions so the expensive
//! NN-L ↔ NN-S weight swaps are amortised over every admitted stream
//! instead of paid per stream.
//!
//! The layer is split along the serving lifecycle:
//!
//! * `admission` — deadline-aware admission control: project utilisation
//!   and p99 frame latency from a session's encoded-stream statistics and
//!   reject sessions that would blow a configurable SLO;
//! * `session` — one admitted session: a
//!   [`StrictFrameSource`](vrd_codec::StrictFrameSource) +
//!   [`PipelineEngine`](vr_dann::PipelineEngine) advanced incrementally
//!   (the engine's resumable `prime`/`step`/`finish` API) behind a paced
//!   decoder lane that stamps every NPU work item with its hand-over time;
//! * `sched` — the shared virtual NPU: replay the merged per-session work
//!   under per-stream FIFO or cross-session lagged batching, with bounded
//!   per-session queues and backpressure, billing every attempt through
//!   `vrd-sim`'s cost model ([`vrd_sim::cost`]);
//! * `metrics` — latency percentile accounting (p50/p95/p99);
//! * `faults` — deterministic virtual-NPU fault injection: transient
//!   stalls, per-attempt work-item failures and full-device
//!   crash/recover windows, all counter-hashed so fault patterns are
//!   independent of scheduling order;
//! * `error` — the serving-layer error type, with session and
//!   scheduler-clock context on every variant;
//! * `server` — the façade tying it together: admit, drive every session
//!   on `vrd-runtime`'s thread pool, schedule under both policies, and
//!   report per-session and global outcomes;
//! * `loadgen` — deterministic trace-driven load generation: seeded
//!   Poisson arrivals thinned against bursty/diurnal/spike envelopes,
//!   heterogeneous session shapes, and mid-stream churn;
//! * `fleet` — fleet-scale serving: 64+ concurrent sessions placed with
//!   model-affinity across N virtual NPU shards, with skew-triggered work
//!   stealing and an autoscaler that provisions/drains shards (billing
//!   spin-up latency) to hold the SLO under traffic spikes.
//!
//! [`schedule`] is the one scheduler entry and [`ScheduleOutcome`] the one
//! record it returns. Its last argument is an optional fault plan
//! ([`ChaosConfig`]): `None` is what [`serve`] and [`run_fleet`] pass;
//! `Some` replays the same admitted work against an [`NpuFaultProfile`] —
//! work-item failures retry with bounded exponential backoff, sessions on a
//! crashed device resume from host-side engine checkpoints after the outage
//! (billed as the scheduler's `RESTORE_PENALTY_NS` constant), and a
//! graceful-degradation ladder ([`DegradeLevel`], on with
//! [`RecoveryConfig::ladder`]) trades per-frame fidelity for throughput
//! instead of shedding. The backoff, restore and ladder thresholds are
//! constants in `sched` (`BACKOFF_*`, `RESTORE_PENALTY_NS`, `LADDER_*`),
//! as are the autoscaler's in `fleet` (`AUTOSCALE_*`) and the serve
//! window's pacing in `server` (`LOAD_FACTOR`, `STAGGER_FRAC`).
//!
//! Everything is deterministic: the same requests and configuration produce
//! byte-identical reports — fault-injected or not — which is what lets
//! `serve_bench` and `chaos_bench` pin their outputs in CI.

#![warn(unreachable_pub)]

mod admission;
mod error;
mod faults;
mod fleet;
mod loadgen;
mod metrics;
mod sched;
mod server;
mod session;

pub use admission::{AdmissionProjection, RejectReason, SessionDemand, SloConfig};
pub use error::{Result, ServeError};
pub use faults::{CrashWindow, NpuFaultProfile};
pub use fleet::{
    run_fleet, FleetConfig, FleetReport, OfferFate, RebalanceConfig, ShardReport, StreamEntry,
};
pub use loadgen::{
    generate, legacy_sweep, Envelope, GopClass, LoadGenConfig, ResClass, SessionArrival,
    SessionShape, TaskKind, TrafficTrace,
};
pub use metrics::LatencyStats;
pub use sched::{
    schedule, ChaosConfig, DegradationStats, DegradeLevel, RecoveryConfig, SchedConfig,
    SchedPolicy, ScheduleOutcome, SessionSchedStats,
};
pub use server::{admit_and_drive, serve, ServeConfig, ServeReport, SessionReport};
pub use session::{
    drive_template, DrivenSession, SessionState, SessionTemplate, TemplateItem, WorkItem,
};
