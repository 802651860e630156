//! End-to-end wall-clock benchmark: the real decode → wave-front compute
//! path at 854×480-class resolution (864×480; see [`vrd_bench::e2e`]),
//! measured fps next to the simulator's predicted decoder ceiling.
//!
//! Usage:
//! `cargo run --release --bin e2e_bench [out.json] [--quick]`
//!
//! `--quick` emits only deterministic fields (output digests across thread
//! counts, frame counts, simulated fps) so CI can run the binary twice and
//! `cmp` the artefact. Without it the run adds measured sequential vs
//! pipelined wall-clock fps — a report, not a gate: the ratio read
//! 1.05–1.34 over five runs on the two-core box, and the benchmark
//! pipeline (`BENCHMARK.json`, workload `hd_f32`) gates `fps` on the same
//! 864×480 stream.

use vrd_bench::e2e::{render_json, run, E2eConfig};

fn main() {
    let mut out_path = None;
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
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
}
