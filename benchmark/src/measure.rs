//! Drives the program from outside, through public functions only: timed
//! reps through the default parallel entry point, the single-threaded
//! baseline, the traced stepped run with its kernel replay, and the small
//! probes of `vrd-runtime`, `vrd-sim` and `vrd-metrics`.

use crate::spans::Recorder;
use crate::workload::{Inputs, Workload};
use std::collections::BTreeMap;
use std::time::Instant;
use vr_dann::{
    build_sandwich, reconstruct_b_frame, ComputeMode, PipelineEngine, PipelineOptions, SegTask,
    SegmentationRun, StrictPolicy, VrDannError,
};
use vrd_codec::decoder::BFrameInfo;
use vrd_codec::{FrameSource, FrameType, StrictFrameSource, UnitPayload};
use vrd_nn::LargeNet;
use vrd_sim::{ExecMode, ParallelOptions, SimConfig};
use vrd_video::texture::hash2;
use vrd_video::SegMask;

/// Frames attempted and failed, with a line per failure. A frame fails when
/// its run returned an error, it was never produced, or an output check on
/// it did not hold.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, frames: usize, why: String) {
        self.failed += frames as u64;
        self.notes.push(why);
    }
}

type Pass = Vec<Result<SegmentationRun, VrDannError>>;

/// FNV-1a over everything a run lets a caller observe: every mask word and
/// every trace frame's identity, routing and cost. Equal digests mean
/// bit-identical masks and traces.
pub fn digest(run: &SegmentationRun) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for mask in &run.masks {
        for w in mask.words() {
            eat(&mut h, &w.to_le_bytes());
        }
    }
    for f in &run.trace.frames {
        eat(&mut h, &f.display.to_le_bytes());
        let ftype = match f.ftype {
            FrameType::I => 0u8,
            FrameType::P => 1,
            FrameType::B => 2,
        };
        let flags = [
            ftype,
            u8::from(f.kind.uses_large_model()),
            u8::from(f.full_decode),
        ];
        eat(&mut h, &flags);
        eat(&mut h, &f.kind.ops().to_le_bytes());
        eat(&mut h, &(f.bitstream_bytes as u64).to_le_bytes());
    }
    h
}

/// Folds per-stream digests into the one printed per workload and seed.
pub fn combined_digest(digests: &[u64]) -> u64 {
    digests.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
        (h ^ d).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pass through the product's default parallel entry point, with the
/// thread count the product picks.
fn run_default(inputs: &Inputs) -> Pass {
    match inputs.workload {
        Workload::SuiteBatch => inputs.model.run_segmentation_batch(&inputs.jobs()),
        _ => inputs
            .streams
            .iter()
            .map(|(seq, enc)| {
                inputs
                    .model
                    .run_segmentation_pipelined(seq, enc, &PipelineOptions::default())
            })
            .collect(),
    }
}

/// One pass through the sequential entry point on one thread.
fn run_sequential_1t(inputs: &Inputs) -> Pass {
    vrd_runtime::with_thread_budget(1, || {
        inputs
            .streams
            .iter()
            .map(|(seq, enc)| inputs.model.run_segmentation(seq, enc))
            .collect()
    })
}

/// Counts a pass as attempted and checks it against the reference digests.
fn check_pass<'a>(
    inputs: &Inputs,
    pass: impl Iterator<Item = Result<&'a SegmentationRun, &'a VrDannError>>,
    reference: &[u64],
    what: &str,
    tally: &mut Tally,
) {
    for (i, ((seq, _), run)) in inputs.streams.iter().zip(pass).enumerate() {
        tally.attempted += seq.len() as u64;
        match run {
            Err(e) => tally.fail(seq.len(), format!("{what}: stream {i} failed: {e}")),
            Ok(run) if run.masks.len() != seq.len() => tally.fail(
                seq.len(),
                format!("{what}: stream {i} produced {} masks", run.masks.len()),
            ),
            Ok(run) if digest(run) != reference[i] => tally.fail(
                seq.len(),
                format!("{what}: stream {i} digest differs from the first pass"),
            ),
            Ok(_) => {}
        }
    }
}

/// The untraced measurement: per-rep seconds and the outputs all later
/// checks compare against.
pub struct Timed {
    pub rep_s: Vec<f64>,
    pub frames_per_rep: usize,
    /// Outputs of the warm-up pass, one run per stream.
    pub runs: Vec<SegmentationRun>,
    /// Their digests.
    pub digests: Vec<u64>,
}

/// One warm-up pass, then timed reps until `budget_s` has passed and at
/// least `min_reps` are in. Closed loop: the next pass starts when the
/// previous one returned. Digests are checked between passes, outside the
/// timed intervals.
pub fn timed_reps(
    inputs: &Inputs,
    budget_s: f64,
    min_reps: usize,
    tally: &mut Tally,
) -> Result<Timed, String> {
    let frames = inputs.frames();
    tally.attempted += frames as u64;
    let runs = run_default(inputs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| {
            tally.fail(frames, format!("warm-up pass failed: {e}"));
            "no reference outputs to measure against".to_string()
        })?;
    let digests: Vec<u64> = runs.iter().map(digest).collect();

    let passes = inputs.workload.passes_per_rep();
    let mut rep_s = Vec::new();
    let start = Instant::now();
    while rep_s.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let mut rep = 0.0;
        for _ in 0..passes {
            let t = Instant::now();
            let pass = std::hint::black_box(run_default(inputs));
            rep += t.elapsed().as_secs_f64();
            check_pass(
                inputs,
                pass.iter().map(Result::as_ref),
                &digests,
                "timed rep",
                tally,
            );
        }
        rep_s.push(rep);
    }
    Ok(Timed {
        rep_s,
        frames_per_rep: passes * frames,
        runs,
        digests,
    })
}

/// Untraced single-threaded baseline: seconds per pass of sequential
/// `run_segmentation` under thread budget 1, for `budget_s` and at least
/// one pass.
pub fn baseline_1t(
    inputs: &Inputs,
    budget_s: f64,
    reference: &[u64],
    tally: &mut Tally,
) -> Vec<f64> {
    let mut pass_s = Vec::new();
    let start = Instant::now();
    while pass_s.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        let pass = std::hint::black_box(run_sequential_1t(inputs));
        pass_s.push(t.elapsed().as_secs_f64());
        let pass = pass.iter().map(Result::as_ref);
        check_pass(inputs, pass, reference, "1-thread baseline", tally);
    }
    pass_s
}

/// What the traced loop keeps of each decoded unit for the replay.
struct UnitRecord {
    stream: usize,
    display: u32,
    /// Index of the unit's `core.step_*` span.
    step: usize,
    /// The MV payload of a B-frame; `None` for an anchor.
    motion: Option<BFrameInfo>,
}

pub struct Traced {
    /// Wall-clock of the stepped drive over every stream.
    pub wall_s: f64,
    pub anchors: usize,
    pub b_frames: usize,
    /// MV records over all B-frames.
    pub mvs: usize,
    units: Vec<UnitRecord>,
    pub runs: Vec<SegmentationRun>,
}

/// Drives every stream once on one thread with the harness's own loop —
/// `next_unit()` then `engine.step()` — with a span around each call, and
/// checks its outputs against the reference digests.
pub fn traced_run(
    inputs: &Inputs,
    reference: &[u64],
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Traced, String> {
    vrd_runtime::with_thread_budget(1, || {
        let cfg = inputs.model.config();
        let mut units = Vec::new();
        let mut runs = Vec::new();
        let start = Instant::now();
        for (stream, (seq, enc)) in inputs.streams.iter().enumerate() {
            let s = stream as u32;
            let (_, source) = rec.time("codec.open", (s, 0), None, || {
                StrictFrameSource::new(&enc.bitstream)
            });
            let mut source = source.map_err(|e| format!("stream {stream}: {e}"))?;
            let info = source.info();
            let task = SegTask::new(seq, LargeNet::new(cfg.segment_profile), cfg.seed, &info);
            let mut engine =
                PipelineEngine::new(cfg, inputs.model.nns(), task, StrictPolicy::default());
            rec.time("core.prime", (s, 0), None, || engine.prime(&info, &[]));
            loop {
                let t0 = rec.now();
                let Some(unit) = source.next_unit() else {
                    break;
                };
                let t1 = rec.now();
                let unit = unit.map_err(|e| format!("stream {stream}: {e}"))?;
                let (display, motion) = match &unit.payload {
                    UnitPayload::Anchor { display, .. } => (*display, None),
                    UnitPayload::Motion(b) => (b.display_idx, Some(b.clone())),
                    UnitPayload::Skipped { .. } => {
                        return Err(format!("stream {stream}: strict source skipped a unit"))
                    }
                };
                let (decode, step) = match motion {
                    None => ("codec.decode_anchor", "core.step_anchor"),
                    Some(_) => ("codec.decode_b", "core.step_b"),
                };
                rec.push(decode, (s, display), (t0, t1), None);
                let (step, stepped) = rec.time(step, (s, display), None, || engine.step(unit));
                stepped.map_err(|e| format!("stream {stream} frame {display}: {e}"))?;
                units.push(UnitRecord {
                    stream,
                    display,
                    step,
                    motion,
                });
            }
            let (_, run) = rec.time("core.finish", (s, 0), None, || {
                engine.finish(source.totals(), source.peak_live_frames())
            });
            runs.push(run.map_err(|e| format!("stream {stream}: {e}"))?.into());
        }
        let wall_s = start.elapsed().as_secs_f64();
        check_pass(inputs, runs.iter().map(Ok), reference, "traced run", tally);
        let motions = || units.iter().filter_map(|u| u.motion.as_ref());
        Ok(Traced {
            wall_s,
            anchors: units.len() - motions().count(),
            b_frames: motions().count(),
            mvs: motions().map(|b| b.mvs.len()).sum(),
            units,
            runs,
        })
    })
}

/// Re-runs, on one thread and in decode order, the kernel behind every
/// traced step: `LargeNet::segment` for an anchor, `reconstruct_b_frame →
/// build_sandwich → infer → to_mask` for a B-frame, each in a span that
/// names the step as its parent. Every replayed mask must equal the mask
/// the engine produced.
///
/// The reference masks are the run's own outputs for every anchor decoded
/// so far. `DecodedUnit::refs` alone would not do: the sandwich and the
/// intra-block fallback pick the display-nearest anchors, which need not be
/// among the frames the MVs name. Keeping all earlier anchors chooses the
/// same ones as the engine's 10-anchor window, because an anchor older than
/// the window is never the nearest.
pub fn replay(inputs: &Inputs, traced: &Traced, rec: &mut Recorder, tally: &mut Tally) {
    vrd_runtime::with_thread_budget(1, || {
        let cfg = inputs.model.config();
        let nns = inputs.model.nns();
        let quant = (cfg.compute == ComputeMode::Int8).then(|| nns.quantize());
        let nnl = LargeNet::new(cfg.segment_profile);
        let mut refs: BTreeMap<u32, SegMask> = BTreeMap::new();
        let mut current = usize::MAX;
        for unit in &traced.units {
            if unit.stream != current {
                current = unit.stream;
                refs.clear();
            }
            let (seq, enc) = &inputs.streams[unit.stream];
            let engine_mask = &traced.runs[unit.stream].masks[unit.display as usize];
            let id = (unit.stream as u32, unit.display);
            let parent = Some(unit.step);
            tally.attempted += 1;
            let mask = match &unit.motion {
                None => {
                    let seed = hash2(i64::from(unit.display), 0, cfg.seed);
                    let gt = &seq.gt_masks[unit.display as usize];
                    let (_, mask) =
                        rec.time("nn.nnl_segment", id, parent, || nnl.segment(gt, seed));
                    refs.insert(unit.display, engine_mask.clone());
                    mask
                }
                Some(info) => {
                    let mb = enc.config.standard.mb_size();
                    let (_, plane) = rec.time("core.reconstruct", id, parent, || {
                        reconstruct_b_frame(info, &refs, enc.width, enc.height, mb, &cfg.recon)
                    });
                    let input = plane.and_then(|plane| {
                        rec.time("core.sandwich", id, parent, || {
                            build_sandwich(unit.display, &plane, &refs)
                        })
                        .1
                    });
                    let input = match input {
                        Ok(input) => input,
                        Err(e) => {
                            tally.fail(1, format!("replay of frame {id:?} failed: {e}"));
                            continue;
                        }
                    };
                    let (_, out) = rec.time("nn.nns_infer", id, parent, || match &quant {
                        Some(q) => q.infer(&input),
                        None => nns.infer(&input),
                    });
                    rec.time("nn.to_mask", id, parent, || out.to_mask(0.5)).1
                }
            };
            if mask != *engine_mask {
                tally.fail(1, format!("replayed mask of frame {id:?} differs"));
            }
        }
    });
}

/// Mean IoU against ground truth (mean over streams of the per-stream frame
/// mean) and the host time scoring took per frame.
pub fn score(inputs: &Inputs, runs: &[SegmentationRun]) -> (f64, f64) {
    let t = Instant::now();
    let sum: f64 = inputs
        .streams
        .iter()
        .zip(runs)
        .map(|((seq, _), run)| vrd_metrics::score_sequence(&run.masks, &seq.gt_masks).iou)
        .sum();
    let ms_per_frame = t.elapsed().as_secs_f64() * 1e3 / inputs.frames() as f64;
    (sum / runs.len() as f64, ms_per_frame)
}

pub struct SimNumbers {
    /// Simulated VR-DANN-parallel frames per second over all streams.
    pub parallel_fps: f64,
    /// The simulator's decoder-limited ceiling at this resolution.
    pub decoder_ceiling_fps: f64,
    /// Host microseconds the simulator spent per frame.
    pub host_us_per_frame: f64,
}

pub fn simulate(runs: &[SegmentationRun]) -> SimNumbers {
    let sim = SimConfig::default();
    let t = Instant::now();
    let (mut frames, mut total_ns) = (0usize, 0.0);
    for run in runs {
        let tr = &run.trace;
        let report = vrd_sim::simulate_stream(
            tr.frames.iter(),
            tr.scheme,
            tr.width,
            tr.height,
            tr.mb_size,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &sim,
        );
        frames += report.frames;
        total_ns += report.total_ns;
    }
    let host_s = t.elapsed().as_secs_f64();
    let tr = &runs[0].trace;
    SimNumbers {
        parallel_fps: frames as f64 / (total_ns / 1e9),
        decoder_ceiling_fps: sim.decoder.freq_hz
            / (tr.width as f64 * tr.height as f64 * sim.decoder.cycles_per_pixel_full),
        host_us_per_frame: host_s * 1e6 / frames as f64,
    }
}

/// Median microseconds of one `parallel_map_with` fork/join over `threads`
/// empty items.
pub fn forkjoin_us(threads: usize) -> f64 {
    let items = vec![(); threads];
    let samples: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(vrd_runtime::parallel_map_with(&items, threads, |_| ()));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&samples)
}

/// Nanoseconds per item sent and received through a `stage_channel(8)`
/// between two threads.
pub fn stage_handoff_ns() -> f64 {
    const ITEMS: u32 = 100_000;
    let (tx, rx) = vrd_runtime::stage_channel::<u32>(8);
    let t = Instant::now();
    let received = std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..ITEMS {
                if tx.send(i).is_err() {
                    break;
                }
            }
        });
        let mut n = 0u32;
        while rx.recv().is_some() {
            n += 1;
        }
        n
    });
    assert_eq!(received, ITEMS, "stage channel lost items");
    t.elapsed().as_secs_f64() * 1e9 / f64::from(ITEMS)
}

fn status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The process's resident-set high-water mark in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib / 1024.0)
}

/// Resets the high-water mark to the current resident set, so set-up's
/// allocations do not hide the measured program's. Free heap that set-up
/// left behind is handed back to the kernel first: without that the
/// baseline varied by 20 MiB from run to run with the allocator's mood, with
/// it by under 1 MiB. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
        // at any time from any thread; it only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
