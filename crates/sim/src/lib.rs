//! # vrd-sim — cycle-level SoC simulator for VR-DANN
//!
//! Substrate crate of the VR-DANN reproduction (MICRO 2020), standing in for
//! the paper's cycle-accurate simulator + DRAMSim + CACTI stack (§V-B). It
//! replays the workload traces produced by the `vr-dann` pipelines against:
//!
//! * an **NPU** behavioural timing model (Ascend-310 class, Table II) with
//!   explicit NN-L ↔ NN-S model-switch costs;
//! * a **video decoder** timing model (300 MHz, full-decode vs MV-only) —
//!   both priced by the one cost model in [`cost`], which the serving
//!   layer bills through as well;
//! * a **DDR3** memory model with banks and row buffers ([`DramStats`]);
//! * the **agent unit** — `ip_Q`/`b_Q`, `mv_T`, the 32-wide coalescing unit
//!   and the `tmp_B` buffers ([`AgentFootprint`]);
//! * per-event **energy** accounting and the Fig. 14 **traffic** breakdown.
//!
//! Three execution modes reproduce Fig. 7: in-order (baselines),
//! VR-DANN-serial (software) and VR-DANN-parallel (the proposed
//! architecture, with ablations for coalescing, lagged switching and the
//! `tmp_B` count).
//!
//! ## Example
//!
//! ```
//! use vrd_sim::{simulate, ExecMode, SimConfig};
//! use vr_dann::baselines::{encode_default, run_favos};
//! use vrd_video::davis::{davis_sequence, SuiteConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let seq = davis_sequence("cows", &SuiteConfig::tiny())?;
//! let favos = run_favos(&seq, &encode_default(&seq)?, 1);
//! let report = simulate(&favos.trace, ExecMode::InOrder, &SimConfig::default());
//! assert!(report.fps > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod agent;
mod config;
pub mod cost;
mod dram;
mod report;
mod sched;
mod timeline;
mod traffic;

pub use agent::AgentFootprint;
pub use config::{
    AgentConfig, CostConfig, DecoderConfig, DramConfig, NpuConfig, ShardConfig, SimConfig,
};
pub use cost::Model;
pub use dram::DramStats;
pub use report::{EnergyBreakdown, SimReport, TrafficBreakdown};
pub use sched::{simulate, simulate_stream, simulate_traced, ExecMode, ParallelOptions};
pub use timeline::{Lane, Span, SpanKind, Timeline};
