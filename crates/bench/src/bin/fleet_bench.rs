//! Fleet harness: shards × trace-driven load, plus the autoscaled spike.
//!
//! Prints the scaling table and writes `results_fleet.txt` plus
//! machine-readable `BENCH_fleet.json`. Pass `--quick` for the reduced
//! scale. The run fails (exit 1) on any scaling-gate violation: the
//! 8-shard row must hold ≥ 64 concurrent sessions at ≥ 0.8× ideal linear
//! throughput over the 1-shard baseline, and the autoscaler must hold the
//! p99 SLO through the 4× arrival spike (shedding reported, not hidden).
//! CI runs the quick sweep and `git diff`s both files against the
//! committed ones, guarding determinism and the numbers byte-for-byte.

use vrd_bench::{fleet_bench, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let bench = fleet_bench::run(&ctx);
    let text = bench.render();
    println!("{text}");
    if let Err(e) = std::fs::write("results_fleet.txt", &text) {
        eprintln!("could not write results_fleet.txt: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write("BENCH_fleet.json", bench.to_json()) {
        eprintln!("could not write BENCH_fleet.json: {e}");
        std::process::exit(1);
    }

    let fails = bench.acceptance_failures();
    if !fails.is_empty() {
        for f in &fails {
            eprintln!("acceptance check failed: {f}");
        }
        std::process::exit(1);
    }
}
