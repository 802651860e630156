//! # vrd-bench — the experiment harness
//!
//! Regenerates every table and figure of the VR-DANN paper's evaluation
//! (MICRO 2020, §VI) from this repository's substrates. One module per
//! figure; each exposes `run(&Context)` returning structured rows plus a
//! `render()` that prints the same rows/series the paper reports.
//!
//! | module | paper artefact |
//! |---|---|
//! | `fig03` | Fig. 3: B-frame ratio, refs per B-frame |
//! | `fig07` | Fig. 7: execution timelines (Gantt) |
//! | `fig09` | Fig. 9: per-video accuracy, FAVOS vs VR-DANN |
//! | `fig10` | Fig. 10: averaged segmentation accuracy |
//! | `fig11` | Fig. 11: detection mAP by speed group |
//! | `fig12` | Fig. 12: per-video cycles + TOPS |
//! | `fig13` | Fig. 13: averaged performance & energy (+ HD fps) |
//! | `featprop` | extra: feature-propagation baseline, accuracy vs NPU load |
//! | `fig14` | Fig. 14: DRAM traffic breakdown |
//! | `fig15` | Fig. 15: B-ratio sweep |
//! | `fig16` | Fig. 16: search-interval sweep |
//! | `fig17` | Fig. 17: H.264 vs H.265 |
//! | `table02` | Table II: architecture configuration |
//! | `ablation` | extra: design-choice ablations |
//! | `sensitivity` | extra: platform sensitivity (NPU/DRAM/decoder) |
//! | `nns_width` | extra: NN-S width design-space sweep |
//! | `resilience` | extra: accuracy vs injected bitstream loss |
//! | `serve_bench` | extra: multi-session serving, FIFO vs batching |
//! | `chaos_bench` | extra: fault-injected serving, recovery vs shed-only |
//! | `fleet_bench` | extra: fleet scaling, sharded NPUs + autoscaled spike |
//! | `kernels` | extra: optimised-vs-reference kernel time ratios |
//!
//! One binary runs them by name, in the order given, training the shared
//! [`Context`] at most once. The context evaluates the suite once too:
//! VR-DANN, FAVOS, OSVOS and DFF each run at most once per suite sequence,
//! and every figure that compares them reads those runs:
//!
//! ```text
//! cargo run --release -p vrd-bench -- <name>... [--quick]
//! ```
//!
//! Names are the rows of [`registry::REGISTRY`] — the module names above
//! (`serve`, `chaos`, `fleet` without the `_bench`), plus `fig13_hd` (the
//! §VI-B 864×480 fps line) and `resilience_smoke` (one loss rate, gated) —
//! and `all` for `registry::PAPER_SET`. `--quick` switches to the reduced
//! scale; anything else is rejected. `resilience*`, `serve`, `chaos`,
//! `fleet` and `kernels` also write their `results_*`/`BENCH_*` artefacts
//! to the working directory and fail the run when a gate does not hold.
//! End-to-end wall-clock fps is measured by the stand-alone `benchmark/`
//! workspace, not here.

#![warn(unreachable_pub)]

mod ablation;
mod chaos_bench;
mod context;
mod featprop;
mod fig03;
mod fig07;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod fleet_bench;
mod kernels;
mod nns_width;
pub mod registry;
mod resilience;
mod sensitivity;
mod serve_bench;
mod table;
mod table02;

pub use context::{Context, Scale};
