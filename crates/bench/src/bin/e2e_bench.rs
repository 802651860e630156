//! End-to-end wall-clock benchmark: the real decode → wave-front compute
//! path at 854×480-class resolution (864×480; see [`vrd_bench::e2e`]),
//! measured fps next to the simulator's predicted decoder ceiling.
//!
//! Usage:
//! `cargo run --release --bin e2e_bench [out.json] [--quick]
//!     [--min-e2e-speedup X]`
//!
//! `--quick` emits only deterministic fields (output digests across thread
//! counts, frame counts, simulated fps) so CI can run the binary twice and
//! `cmp` the artefact. Without it the run adds measured sequential vs
//! pipelined wall-clock fps.
//!
//! With `--min-e2e-speedup X` the run exits 1 if the measured pipelined
//! speedup falls below what `X` demands of this host's core count
//! ([`required_speedup`]: `X` from four cores up, at most 1.1 on two or
//! three). The gate needs real parallelism to mean anything: on a host with
//! fewer than two cores (or in `--quick` mode, which measures nothing) it
//! prints a notice and passes.

use vrd_bench::e2e::{render_json, required_speedup, run, E2eConfig};

fn main() {
    let mut out_path = None;
    let mut quick = false;
    let mut min_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--min-e2e-speedup" {
            match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => min_speedup = Some(v),
                None => {
                    eprintln!("error: --min-e2e-speedup needs a numeric value");
                    std::process::exit(2);
                }
            }
        } else if out_path.is_none() {
            out_path = Some(arg);
        } else {
            eprintln!("error: unexpected argument {arg}");
            std::process::exit(2);
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_e2e.json".into());

    let cfg = if quick {
        E2eConfig::quick()
    } else {
        E2eConfig::full()
    };
    let report = run(&cfg);
    let json = render_json(&report);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(asked) = min_speedup {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        match (required_speedup(asked, cores), &report.measured) {
            (None, _) => {
                eprintln!(
                    "e2e speedup gate skipped: host has {cores} core(s); \
                     wall-clock parallel speedup is unmeasurable"
                );
            }
            (_, None) => {
                eprintln!("e2e speedup gate skipped: --quick measures nothing");
            }
            (Some(min), Some(m)) => {
                let failed = m.speedup < min;
                let verdict = if failed { "failed" } else { "passed" };
                eprintln!(
                    "e2e speedup check {verdict}: {:.2}x, need >= {min:.2}x on {cores} cores \
                     ({:.1} -> {:.1} fps on {} threads)",
                    m.speedup, m.sequential_fps, m.pipelined_fps, m.threads
                );
                if failed {
                    std::process::exit(1);
                }
            }
        }
    }
}
