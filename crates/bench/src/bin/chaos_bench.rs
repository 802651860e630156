//! Chaos harness: the serving workload replayed under seeded fault plans.
//!
//! Prints the scenario table and writes `results_chaos.txt` plus
//! machine-readable `BENCH_chaos.json`. Pass `--quick` for the reduced
//! scale. The run fails (exit 1) on any resilience-gate violation: the
//! quiet-plan replay must equal the no-plan replay on the whole record, at
//! a 10 % work-item fault rate the recovery stack must deliver ≥ 95 % of
//! offered frames on contended rows where shed-only serves ≤ 80 %, and a
//! single NPU crash must lose zero sessions once checkpoints are on. CI
//! runs the quick sweep and `git diff`s both files against the committed
//! ones, so determinism and the numbers are guarded byte-for-byte.

use vrd_bench::{chaos_bench, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let sweep = chaos_bench::run(&ctx);
    let text = sweep.render();
    println!("{text}");
    if let Err(e) = std::fs::write("results_chaos.txt", &text) {
        eprintln!("could not write results_chaos.txt: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write("BENCH_chaos.json", sweep.to_json()) {
        eprintln!("could not write BENCH_chaos.json: {e}");
        std::process::exit(1);
    }

    let fails = sweep.acceptance_failures();
    if !fails.is_empty() {
        for f in &fails {
            eprintln!("acceptance check failed: {f}");
        }
        std::process::exit(1);
    }
}
