//! End-to-end wall-clock benchmark of the pipelined executor.
//!
//! Every other artefact in the repository times a *kernel*
//! (`BENCH_nn.json`, `BENCH_recon.json`) or replays a *simulated* machine
//! (`fig13`). This module closes the loop: it drives the real
//! decode → plan → wave-front compute path over an 854×480-class stream
//! (864×480 — the codec needs macroblock-aligned dimensions, matching
//! [`crate::fig13::fps_hd`]) and reports **measured** frames per second
//! for the sequential engine and the two-lane pipelined executor, next to
//! the simulator's predicted decoder ceiling at the same resolution.
//!
//! Determinism is split from measurement so CI can diff the artefact:
//! [`E2eConfig::quick`] produces only reproducible fields — output
//! digests at several thread counts, frame counts, simulated fps — and
//! the JSON is byte-identical run to run. [`E2eConfig::full`] adds the
//! wall-clock measurement block, which no two runs reproduce exactly.

use crate::timing::time_median;
use vr_dann::{PipelineOptions, SegmentationRun, TrainTask, VrDann, VrDannConfig};
use vrd_codec::FrameType;
use vrd_sim::{ExecMode, ParallelOptions, SimConfig};
use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};

/// Thread counts the deterministic digest pass re-runs the pipelined
/// executor at. Bit-identity across these (and the sequential baseline)
/// is asserted inside [`run`].
pub const DIGEST_THREADS: [usize; 3] = [1, 2, 4];

/// Benchmark shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E2eConfig {
    /// Frame width in pixels (must be a multiple of the macroblock size).
    pub width: usize,
    /// Frame height in pixels (must be a multiple of the macroblock size).
    pub height: usize,
    /// Stream length in frames.
    pub frames: usize,
    /// Run the wall-clock measurement (non-deterministic fields).
    pub measure: bool,
    /// Timing repetitions per measured variant (median is reported).
    pub reps: usize,
}

impl E2eConfig {
    /// Deterministic CI shape: digests and simulated fps only.
    pub fn quick() -> Self {
        Self {
            width: 864,
            height: 480,
            frames: 48,
            measure: false,
            reps: 0,
        }
    }

    /// Measurement shape: the deterministic block plus measured fps.
    pub fn full() -> Self {
        Self {
            width: 864,
            height: 480,
            frames: 96,
            measure: true,
            reps: 3,
        }
    }
}

/// The measured (wall-clock) half of the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredFps {
    /// Wave-front worker threads the pipelined run used.
    pub threads: usize,
    /// Sequential engine throughput, frames per second.
    pub sequential_fps: f64,
    /// Pipelined executor throughput, frames per second.
    pub pipelined_fps: f64,
    /// `pipelined_fps / sequential_fps`.
    pub speedup: f64,
}

/// Everything one benchmark run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eReport {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Stream length in frames.
    pub frames: usize,
    /// NN-L anchor frames (I/P) in the trace.
    pub anchors: usize,
    /// Reconstructed + NN-S-refined B-frames in the trace.
    pub b_frames: usize,
    /// FNV-1a digest over every output mask and trace frame, identical
    /// for the sequential engine and the pipelined executor at every
    /// thread count in [`DIGEST_THREADS`].
    pub output_digest: u64,
    /// Decoder-limited fps ceiling the simulator predicts at this
    /// resolution (`freq / (w·h·cycles_per_pixel_full)`).
    pub sim_decoder_ceiling_fps: f64,
    /// The simulator's VR-DANN-parallel fps for this exact trace.
    pub sim_parallel_fps: f64,
    /// Wall-clock measurement ([`E2eConfig::measure`] runs only).
    pub measured: Option<MeasuredFps>,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a digest over a segmentation run's observable outputs: every mask
/// word plus every trace frame's identity, cost and routing. Two runs with
/// the same digest produced bit-identical masks and traces.
pub fn digest_run(run: &SegmentationRun) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for mask in &run.masks {
        for w in mask.words() {
            fnv1a(&mut h, &w.to_le_bytes());
        }
    }
    for f in &run.trace.frames {
        fnv1a(&mut h, &f.display.to_le_bytes());
        let ft = match f.ftype {
            FrameType::I => 0u8,
            FrameType::P => 1,
            FrameType::B => 2,
        };
        fnv1a(
            &mut h,
            &[
                ft,
                u8::from(f.kind.uses_large_model()),
                u8::from(f.full_decode),
            ],
        );
        fnv1a(&mut h, &f.kind.ops().to_le_bytes());
        fnv1a(&mut h, &(f.bitstream_bytes as u64).to_le_bytes());
    }
    h
}

/// Runs the benchmark: train once (reduced suite — NN-S transfers to HD
/// because the pipeline is fully convolutional), drive the HD-class stream
/// sequentially and pipelined at each digest thread count (asserting
/// bit-identity), then optionally measure wall-clock fps.
///
/// # Panics
/// Panics if the pipelined executor's outputs diverge from the sequential
/// engine at any thread count — that is the regression this benchmark
/// exists to catch.
pub fn run(cfg: &E2eConfig) -> E2eReport {
    let hd = SuiteConfig {
        width: cfg.width,
        height: cfg.height,
        frames: cfg.frames,
        seed: 0x40f0,
    };
    let train = davis_train_suite(&SuiteConfig::tiny(), 2);
    let model = VrDann::train(&train, TrainTask::Segmentation, VrDannConfig::default())
        .expect("training succeeds");
    let seq = davis_sequence("cows", &hd).expect("HD sequence generates");
    let encoded = model.encode(&seq).expect("HD sequence encodes");

    let baseline = model
        .run_segmentation(&seq, &encoded)
        .expect("sequential HD run succeeds");
    let digest = digest_run(&baseline);
    for threads in DIGEST_THREADS {
        let opts = PipelineOptions {
            threads: Some(threads),
            channel_capacity: None,
        };
        let piped = model
            .run_segmentation_pipelined(&seq, &encoded, &opts)
            .expect("pipelined HD run succeeds");
        assert_eq!(
            digest_run(&piped),
            digest,
            "pipelined outputs diverged from the sequential engine at \
             {threads} threads"
        );
    }

    let sim = SimConfig::default();
    let ceiling = sim.decoder.freq_hz
        / (cfg.width as f64 * cfg.height as f64 * sim.decoder.cycles_per_pixel_full);
    let sim_par = vrd_sim::simulate_stream(
        baseline.trace.frames.iter(),
        baseline.trace.scheme,
        baseline.trace.width,
        baseline.trace.height,
        baseline.trace.mb_size,
        ExecMode::VrDannParallel(ParallelOptions::default()),
        &sim,
    );

    let measured = cfg.measure.then(|| {
        let threads = vrd_runtime::max_threads();
        let seq_s = time_median(cfg.reps, || {
            std::hint::black_box(model.run_segmentation(&seq, &encoded).unwrap());
        });
        let pipe_s = time_median(cfg.reps, || {
            std::hint::black_box(
                model
                    .run_segmentation_pipelined(&seq, &encoded, &PipelineOptions::default())
                    .unwrap(),
            );
        });
        let sequential_fps = cfg.frames as f64 / seq_s;
        let pipelined_fps = cfg.frames as f64 / pipe_s;
        MeasuredFps {
            threads,
            sequential_fps,
            pipelined_fps,
            speedup: pipelined_fps / sequential_fps,
        }
    });

    let anchors = baseline
        .trace
        .frames
        .iter()
        .filter(|f| f.ftype != FrameType::B)
        .count();
    E2eReport {
        width: cfg.width,
        height: cfg.height,
        frames: cfg.frames,
        anchors,
        b_frames: baseline.trace.frames.len() - anchors,
        output_digest: digest,
        sim_decoder_ceiling_fps: ceiling,
        sim_parallel_fps: sim_par.fps,
        measured,
    }
}

/// Renders the report as the `BENCH_e2e.json` artefact. Quick reports
/// (no `measured` block) render byte-identically across runs.
pub fn render_json(r: &E2eReport) -> String {
    let mut json = format!(
        "{{\n  \"resolution\": \"{}x{}\",\n  \"frames\": {},\n  \
         \"anchors\": {},\n  \"b_frames\": {},\n  \
         \"output_digest\": \"{:#018x}\",\n  \"digest_threads\": [1, 2, 4],\n  \
         \"sim\": {{\"decoder_ceiling_fps\": {:.2}, \"vrdann_parallel_fps\": {:.2}}}",
        r.width,
        r.height,
        r.frames,
        r.anchors,
        r.b_frames,
        r.output_digest,
        r.sim_decoder_ceiling_fps,
        r.sim_parallel_fps,
    );
    if let Some(m) = &r.measured {
        json.push_str(&format!(
            ",\n  \"measured\": {{\"threads\": {}, \"sequential_fps\": {:.2}, \
             \"pipelined_fps\": {:.2}, \"speedup\": {:.2}}}",
            m.threads, m.sequential_fps, m.pipelined_fps, m.speedup
        ));
    }
    json.push_str("\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down shape so the test stays fast: the digest pass and the
    /// JSON rendering exercise exactly the code the CI artefact uses.
    fn tiny_cfg() -> E2eConfig {
        E2eConfig {
            width: 64,
            height: 48,
            frames: 24,
            measure: false,
            reps: 0,
        }
    }

    #[test]
    fn quick_report_is_deterministic_and_pipelined_is_identical() {
        let a = run(&tiny_cfg());
        let b = run(&tiny_cfg());
        assert_eq!(a, b, "two quick runs must agree field for field");
        assert_eq!(render_json(&a), render_json(&b));
        assert!(a.measured.is_none());
        assert_eq!(a.anchors + a.b_frames, a.frames);
        assert!(a.b_frames > 0, "no B-frames — nothing was pipelined");
        assert!(a.sim_decoder_ceiling_fps > 0.0);
        assert!(a.sim_parallel_fps > 0.0);
        let json = render_json(&a);
        assert!(json.contains("\"output_digest\""));
        assert!(!json.contains("\"measured\""));
    }

    #[test]
    fn measured_report_carries_fps_fields() {
        let report = run(&E2eConfig {
            measure: true,
            reps: 1,
            ..tiny_cfg()
        });
        let m = report.measured.expect("measure=true produces the block");
        assert!(m.sequential_fps > 0.0 && m.pipelined_fps > 0.0);
        assert!(m.speedup > 0.0);
        assert!(render_json(&report).contains("\"measured\""));
    }
}
