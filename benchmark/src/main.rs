//! Wall-clock benchmark of the decode → plan → reconstruct → NN-S path.
//!
//! One process runs one workload: it makes the inputs from the seed, measures
//! the product's default parallel entry point with tracing off, optionally
//! drives the same inputs once more on one thread under spans, checks every
//! output, and prints each metric as `name value unit` and, on the last
//! line, as one JSON object. See `README.md` for the metric glossary.

mod measure;
mod spans;
mod stats;
mod workload;

use measure::Tally;
use spans::Recorder;
use stats::{median, percentile};
use workload::{Shape, Workload};

/// End-to-end metrics, as listed in `BENCHMARK.json`: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("fps", "1/s"),
    ("j_mean", "iou"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`: (name, unit).
const PER_LAYER: [(&str, &str); 39] = [
    ("codec.decode_anchor_ms", "ms"),
    ("codec.decode_b_ms", "ms"),
    ("codec.decode_share", "ratio"),
    ("codec.encode_ms_per_frame", "ms"),
    ("codec.anchors", "count"),
    ("codec.b_frames", "count"),
    ("codec.bitstream_bytes", "B"),
    ("codec.mvs_per_b", "count"),
    ("video.generate_ms_per_frame", "ms"),
    ("nn.nns_infer_ms", "ms"),
    ("nn.nns_infer_ms_p90", "ms"),
    ("nn.nns_share", "ratio"),
    ("nn.nns_gmacs", "GMAC"),
    ("nn.nnl_segment_ms", "ms"),
    ("nn.nnl_share", "ratio"),
    ("nn.to_mask_ms", "ms"),
    ("nn.train_s", "s"),
    ("core.reconstruct_ms", "ms"),
    ("core.sandwich_ms", "ms"),
    ("core.step_anchor_ms", "ms"),
    ("core.step_b_ms", "ms"),
    ("core.step_b_ms_p90", "ms"),
    ("core.step_b_self_ms", "ms"),
    ("core.step_anchor_self_ms", "ms"),
    ("core.fps_1t", "1/s"),
    ("core.peak_live_frames", "count"),
    ("core.peak_inflight_units", "count"),
    ("runtime.threads", "count"),
    ("runtime.parallel_speedup", "ratio"),
    ("runtime.forkjoin_us", "us"),
    ("runtime.stage_handoff_ns", "ns"),
    ("sim.simulate_us_per_frame", "us"),
    ("sim.vrdann_parallel_fps", "1/s"),
    ("sim.decoder_ceiling_fps", "1/s"),
    ("sim.measured_over_sim", "ratio"),
    ("metrics.score_ms_per_frame", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.replay_residual_frac", "ratio"),
];

/// Spans the replay attaches under a step span.
const REPLAYED: [&str; 5] = [
    "nn.nnl_segment",
    "core.reconstruct",
    "core.sandwich",
    "nn.nns_infer",
    "nn.to_mask",
];

/// The seed `e2e_bench` generates its stream from, so a run without
/// `--seed` lines up with the ROADMAP's numbers.
const DEFAULT_SEED: u64 = 0x40f0;

#[derive(Debug, Clone)]
struct Options {
    workload: Workload,
    seed: u64,
    /// Time budget of the timed reps.
    seconds: f64,
    /// `Some(false)`: end-to-end metrics only. `Some(true)`: per-layer
    /// metrics only. `None`: both, for a reader at a terminal.
    trace: Option<bool>,
    trace_out: Option<String>,
    smoke: bool,
}

#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Failures that are not frames: set-up, a missing or non-finite metric.
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    output_digest: u64,
    reps: usize,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    fn put(&mut self, name: &'static str, value: f64, note: &str) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("?", |(_, u)| u);
        if !value.is_finite() {
            self.errors.push(format!("metric {name} is not finite"));
        }
        let sep = if note.is_empty() { "" } else { "  # " };
        println!("{name} {value} {unit}{sep}{note}");
        self.metrics.push((name, value));
    }

    /// The contract's result line: exactly `names`, in order.
    fn json(&mut self, names: &[(&str, &str)]) -> String {
        let mut fields = Vec::new();
        for (name, unit) in names {
            match self.metrics.iter().find(|(n, _)| n == name) {
                Some((_, v)) if v.is_finite() => {
                    fields.push(format!(
                        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    ));
                }
                _ => self.errors.push(format!("metric {name} was not measured")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

fn run_workload(o: &Options) -> Report {
    let mut report = Report::default();
    let mut tally = Tally::default();
    if let Err(e) = measure_workload(o, &mut report, &mut tally) {
        report.errors.push(e);
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    for note in tally.notes.iter().chain(&report.errors) {
        println!("FAILED {note}");
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ratio  # {} of {} frames",
        tally.failed, tally.attempted
    );
    report
}

fn measure_workload(o: &Options, report: &mut Report, tally: &mut Tally) -> Result<(), String> {
    let shape = if o.smoke { Shape::SMOKE } else { Shape::FULL };
    let want_e2e = o.trace != Some(true);
    let want_layers = o.trace != Some(false);
    println!("workload {} seed {:#x}", o.workload.name(), o.seed);

    // Set-up. Repeated when its time is reported, so `setup_s` is a median.
    let setup_reps = if want_e2e { shape.setup_reps } else { 1 };
    let mut setup_s = Vec::new();
    let (inputs, setup) = loop {
        let made = workload::setup(o.workload, &shape, o.seed)?;
        setup_s.push(made.1.total_s);
        if setup_s.len() >= setup_reps {
            break made;
        }
        // `made` drops here, before the inputs are made again.
    };
    let frames = inputs.frames();

    // Timed reps, tracing off. A traced-only run needs `fps` just for the
    // two ratios built on it, so it spends a quarter of the budget here.
    let rss_reset = measure::reset_peak_rss();
    let (budget_s, min_reps) = match want_e2e {
        true => (o.seconds, shape.min_reps),
        false => (o.seconds / 4.0, 1),
    };
    let timed = measure::timed_reps(&inputs, budget_s, min_reps, tally)?;
    let peak_rss = measure::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    let (j_mean, score_ms) = measure::score(&inputs, &timed.runs);
    let fps = timed.frames_per_rep as f64 / median(&timed.rep_s);
    report.output_digest = measure::combined_digest(&timed.digests);
    report.reps = timed.rep_s.len();
    println!("output_digest {:#018x}", report.output_digest);

    if want_e2e {
        let (q1, q3) = stats::quartiles(&timed.rep_s).unwrap_or((f64::NAN, f64::NAN));
        let reps: Vec<String> = timed.rep_s.iter().map(|s| format!("{s:.3}")).collect();
        let note = format!(
            "{} frames / median of {} reps; rep s q1 {q1:.3} q3 {q3:.3}: {}",
            timed.frames_per_rep,
            reps.len(),
            reps.join(" ")
        );
        report.put("fps", fps, &note);
        report.put("j_mean", j_mean, "mean IoU against ground truth");
        let note = match rss_reset {
            true => "VmHWM after the timed reps, reset after set-up",
            false => "VmHWM after the timed reps; reset refused, so set-up is included",
        };
        report.put("peak_rss_mib", peak_rss, note);
        let note = format!("generate + train + encode; median of {}", setup_s.len());
        report.put("setup_s", median(&setup_s), &note);
    }
    if !want_layers {
        return Ok(());
    }

    // Traced run: the same inputs once more on one thread, under spans.
    let mut rec = Recorder::new();
    let traced = measure::traced_run(&inputs, &timed.digests, &mut rec, tally)?;
    let coverage = rec.top_level_s() / traced.wall_s;
    measure::replay(&inputs, &traced, &mut rec, tally);
    let one_t = measure::baseline_1t(&inputs, o.seconds / 4.0, &timed.digests, tally);
    let fps_1t = frames as f64 / median(&one_t);
    if let Some(path) = &o.trace_out {
        rec.write_jsonl(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let wall = traced.wall_s;
    let ms = |name: &str| median(&rec.durations_ms(name));
    let p90 = |name: &str| percentile(&rec.durations_ms(name), 0.9);
    let self_ms = |name: &str| median(&rec.self_ms(name));
    let samples = |name: &str| {
        let n = rec.durations_ms(name).len();
        match stats::highest_supported_percentile(n) {
            Some(p) => format!(
                "n={n}; highest tail with 10 samples beyond is p{}",
                p * 100.0
            ),
            None => format!("n={n}; too few samples for any tail"),
        }
    };
    let decode_s = rec.total_s("codec.open")
        + rec.total_s("codec.decode_anchor")
        + rec.total_s("codec.decode_b");
    let steps_s = rec.total_s("core.step_anchor") + rec.total_s("core.step_b");
    let replayed_s: f64 = REPLAYED.iter().map(|n| rec.total_s(n)).sum();
    let (_, enc) = &inputs.streams[0];
    let bitstream: usize = inputs.streams.iter().map(|(_, e)| e.bitstream.len()).sum();
    let peak_of = |f: fn(&vr_dann::SegmentationRun) -> usize| {
        timed.runs.iter().map(f).max().unwrap_or(0) as f64
    };
    let threads = vrd_runtime::max_threads();
    let sim = measure::simulate(&timed.runs);

    report.put("codec.decode_anchor_ms", ms("codec.decode_anchor"), "");
    report.put("codec.decode_b_ms", ms("codec.decode_b"), "");
    report.put("codec.decode_share", decode_s / wall, "of traced wall");
    report.put(
        "codec.encode_ms_per_frame",
        setup.encode_s * 1e3 / frames as f64,
        "wall, streams encoded in parallel",
    );
    report.put("codec.anchors", traced.anchors as f64, "");
    report.put("codec.b_frames", traced.b_frames as f64, "");
    report.put("codec.bitstream_bytes", bitstream as f64, "");
    report.put(
        "codec.mvs_per_b",
        traced.mvs as f64 / traced.b_frames.max(1) as f64,
        "",
    );
    report.put(
        "video.generate_ms_per_frame",
        setup.generate_s * 1e3 / setup.generated_frames as f64,
        "",
    );
    report.put("nn.nns_infer_ms", ms("nn.nns_infer"), "replayed");
    report.put(
        "nn.nns_infer_ms_p90",
        p90("nn.nns_infer"),
        &samples("nn.nns_infer"),
    );
    report.put(
        "nn.nns_share",
        rec.total_s("nn.nns_infer") / wall,
        "of traced wall",
    );
    let gmacs = inputs.model.nns().macs(enc.height, enc.width) as f64 / 1e9;
    report.put(
        "nn.nns_gmacs",
        gmacs,
        "per inference, computed from NnS::macs",
    );
    report.put("nn.nnl_segment_ms", ms("nn.nnl_segment"), "replayed");
    report.put(
        "nn.nnl_share",
        rec.total_s("nn.nnl_segment") / wall,
        "of traced wall",
    );
    report.put("nn.to_mask_ms", ms("nn.to_mask"), "replayed");
    report.put("nn.train_s", setup.train_s, "");
    report.put("core.reconstruct_ms", ms("core.reconstruct"), "replayed");
    report.put("core.sandwich_ms", ms("core.sandwich"), "replayed");
    report.put("core.step_anchor_ms", ms("core.step_anchor"), "");
    report.put("core.step_b_ms", ms("core.step_b"), "");
    report.put(
        "core.step_b_ms_p90",
        p90("core.step_b"),
        &samples("core.step_b"),
    );
    report.put(
        "core.step_b_self_ms",
        self_ms("core.step_b"),
        "step minus replayed kernels",
    );
    report.put(
        "core.step_anchor_self_ms",
        self_ms("core.step_anchor"),
        "step minus replayed NN-L",
    );
    report.put(
        "core.fps_1t",
        fps_1t,
        &format!("sequential, 1 thread, median of {}", one_t.len()),
    );
    report.put("core.peak_live_frames", peak_of(|r| r.peak_live_frames), "");
    report.put(
        "core.peak_inflight_units",
        peak_of(|r| r.peak_inflight_units),
        "",
    );
    report.put("runtime.threads", threads as f64, "");
    report.put(
        "runtime.parallel_speedup",
        fps / fps_1t,
        &format!("fps {fps:.2} / core.fps_1t"),
    );
    report.put(
        "runtime.forkjoin_us",
        measure::forkjoin_us(threads),
        "median of 1000",
    );
    report.put(
        "runtime.stage_handoff_ns",
        measure::stage_handoff_ns(),
        "100k items",
    );
    report.put(
        "sim.simulate_us_per_frame",
        sim.host_us_per_frame,
        "host time",
    );
    report.put(
        "sim.vrdann_parallel_fps",
        sim.parallel_fps,
        "simulated time",
    );
    report.put(
        "sim.decoder_ceiling_fps",
        sim.decoder_ceiling_fps,
        "simulated time",
    );
    report.put("sim.measured_over_sim", fps / sim.parallel_fps, "");
    report.put("metrics.score_ms_per_frame", score_ms, "");
    report.put("trace.coverage", coverage, "top-level spans / traced wall");
    let overhead = (wall - median(&one_t)) / median(&one_t);
    report.put(
        "trace.overhead_frac",
        overhead,
        "traced wall vs 1-thread pass",
    );
    let residual = (replayed_s - steps_s).abs() / steps_s;
    report.put(
        "trace.replay_residual_frac",
        residual,
        "engine time outside the replayed kernels",
    );
    if coverage < 0.95 || overhead > 0.10 {
        println!("WARNING ledger: coverage {coverage:.3} (want >= 0.95), overhead {overhead:.3} (want <= 0.10)");
    }
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: vrd-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      [--trace-out spans.jsonl] [--smoke] | --all [same options]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Runs every workload, each in a process of its own so that one
/// workload's memory high-water mark does not become the next one's.
fn run_all(args: &[String]) -> ! {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(args.iter().filter(|a| *a != "--all"))
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    std::process::exit(i32::from(!ok))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The workloads measure the thread count the product picks by itself.
    if let Ok(v) = std::env::var("VRD_THREADS") {
        eprintln!("refusing to run with VRD_THREADS={v:?} set: unset it");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--all") {
        run_all(&args);
    }
    let mut workload = None;
    let mut o = Options {
        workload: Workload::HdF32,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: None,
        trace_out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value()),
            "--seed" => o.seed = parse_seed(value()).unwrap_or_else(|| usage()),
            "--seconds" => o.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                o.trace = match value() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--trace-out" => o.trace_out = Some(value().to_string()),
            "--smoke" => o.smoke = true,
            _ => usage(),
        }
    }
    o.workload = workload.unwrap_or_else(|| usage());
    if o.smoke {
        o.seconds = 0.0;
    }

    let mut report = run_workload(&o);
    let names: Vec<(&str, &str)> = match o.trace {
        Some(false) => END_TO_END.to_vec(),
        Some(true) => PER_LAYER.to_vec(),
        None => END_TO_END.iter().chain(&PER_LAYER).copied().collect(),
    };
    let json = report.json(&names);
    println!(
        "host {{\"nproc\": {}, \"avx2\": {}, \"runtime_threads\": {}, \"vrd_threads\": \"unset\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"reps\": {}, \"smoke\": {}, \
         \"output_digest\": \"{:#018x}\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        avx2_detected(),
        vrd_runtime::max_threads(),
        o.workload.name(),
        o.seed,
        o.seconds,
        report.reps,
        o.smoke,
        report.output_digest,
    );
    println!("{json}");
    std::process::exit(i32::from(!report.correct()))
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_detected() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` value in `text`, in order.
    fn names_in(text: &str) -> Vec<String> {
        text.split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn metric_and_workload_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("section is a list") + start;
            names_in(&text[start..end])
        };
        let own =
            |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(
            section("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));

        let all = names_in(&text);
        for (i, name) in all.iter().enumerate() {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside [A-Za-z0-9_.-]"
            );
            assert!(!all[..i].contains(name), "{name} is used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    /// The small shape runs every workload with every check in a few
    /// seconds and reports every metric of both lists.
    #[test]
    fn smoke_shape_runs_all_workloads_with_every_check() {
        for workload in Workload::ALL {
            let mut report = run_workload(&Options {
                workload,
                seed: 7,
                seconds: 0.0,
                trace: None,
                trace_out: None,
                smoke: true,
            });
            let names: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
            let json = report.json(&names);
            assert!(report.correct(), "{}: {:?}", workload.name(), report.errors);
            assert!(json.starts_with("{\"correct\": true, "), "{json}");
            assert_eq!(report.reps, Shape::SMOKE.min_reps);
            let get = |name: &str| report.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
            assert!(get("fps") > 0.0 && get("setup_s") > 0.0 && get("peak_rss_mib") > 0.0);
            assert!(
                get("j_mean") > 0.5,
                "{}: j_mean {}",
                workload.name(),
                get("j_mean")
            );
            match workload {
                Workload::HdAnchorOnly => {
                    assert_eq!(get("codec.b_frames"), 0.0);
                    assert_eq!(get("nn.nns_share"), 0.0);
                }
                _ => assert!(get("codec.b_frames") > 0.0 && get("nn.nns_share") > 0.0),
            }
        }
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("0x40f0"), Some(0x40f0));
        assert_eq!(parse_seed("17"), Some(17));
        assert_eq!(parse_seed("x"), None);
    }
}
