//! Machine-readable performance snapshot of the NN compute path and the
//! packed-mask kernels.
//!
//! Times the optimised kernels against the naive references at the paper's
//! deployment resolution (854×480) and the training resolution (64×48),
//! then writes `BENCH_nn.json` (NN kernels), `BENCH_recon.json` (packed
//! reconstruction / mean filter / tally / sandwich kernels) and
//! `BENCH_featprop.json` (the feature-warp kernel of the
//! feature-propagation baseline) for tooling and CI trend tracking. The
//! JSON is hand-rolled — the workspace carries no serialisation dependency.
//!
//! The NN-S deployment-resolution row is measured **once** per run on one
//! shared fixture and emitted into both `BENCH_nn.json` (with `int8_ms` /
//! `int8_speedup` alongside the f32 numbers) and `BENCH_quant.json`, so
//! the two artifacts can never disagree about the current baseline.
//!
//! Usage:
//! `cargo run --release --bin perf_snapshot [nn.json] [recon.json] [quant.json]
//!     [featprop.json] [--min-recon-speedup X] [--min-quant-speedup X]
//!     [--min-warp-speedup X]`
//!
//! With `--min-recon-speedup X` the run exits 1 if any packed-mask row's
//! speedup over its byte-wise reference falls below `X`; with
//! `--min-quant-speedup X` likewise if any `BENCH_quant.json` row's int8
//! speedup over the optimised f32 path falls below `X`; with
//! `--min-warp-speedup X` likewise for the feature-warp kernel against its
//! naive per-cell reference.

use std::collections::BTreeMap;
use vr_dann::{build_sandwich, recon, reconstruct_b_frame, sandwich, ReconConfig};
use vrd_bench::time_median;
use vrd_bench::timing::{conv_fixture, NNS_HD_LAYERS};
use vrd_codec::decoder::BFrameInfo;
use vrd_codec::{MvRecord, RefMv};
use vrd_metrics::segmentation::{reference as tally_reference, PixelCounts};
use vrd_nn::conv::{reference, Conv2d};
use vrd_nn::featwarp::{self, FeatureMap, WarpSource, FEATURE_CHANNELS, FEATURE_STRIDE};
use vrd_nn::layers::{maxpool2_into, relu_in_place, sigmoid_in_place, upsample2_into};
use vrd_nn::{NnS, QuantConv2d, Requant, Tensor};
use vrd_video::{mask, Seg2Plane, SegMask};

/// NN-S inference composed purely from the naive reference conv kernels —
/// the pre-optimisation baseline the speedup is measured against.
fn naive_infer(nns: &NnS, x: &Tensor) -> Tensor {
    let (c1, c2, c3) = nns.convs();
    let (h, w) = (x.height(), x.width());
    let hid = nns.hidden();
    let mut a1 = reference::forward(c1, x);
    relu_in_place(a1.as_mut_slice());
    let mut d = vec![0.0; hid * h * w / 4];
    maxpool2_into(a1.as_slice(), hid, h, w, &mut d);
    let mut a2 = reference::forward(c2, &Tensor::from_vec(hid, h / 2, w / 2, d));
    relu_in_place(a2.as_mut_slice());
    let mut cat = vec![0.0; 2 * hid * h * w];
    cat[..hid * h * w].copy_from_slice(a1.as_slice());
    upsample2_into(a2.as_slice(), hid, h / 2, w / 2, &mut cat[hid * h * w..]);
    let mut out = reference::forward(c3, &Tensor::from_vec(2 * hid, h, w, cat));
    sigmoid_in_place(out.as_mut_slice());
    out
}

struct Row {
    name: &'static str,
    optimized_ms: f64,
    naive_ms: f64,
    /// The quantized path's time for the same work on the same fixture,
    /// where one exists (only the NN-S HD row today).
    int8_ms: Option<f64>,
}

fn render_json(rows: &[Row]) -> String {
    let mut json = String::from("{\n");
    for (i, r) in rows.iter().enumerate() {
        let int8 = r.int8_ms.map_or(String::new(), |ms| {
            format!(
                ", \"int8_ms\": {:.4}, \"int8_speedup\": {:.2}",
                ms,
                r.optimized_ms / ms
            )
        });
        json.push_str(&format!(
            "  \"{}\": {{\"optimized_ms\": {:.4}, \"naive_ms\": {:.4}, \"speedup\": {:.2}{}}}{}\n",
            r.name,
            r.optimized_ms,
            r.naive_ms,
            r.naive_ms / r.optimized_ms,
            int8,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    json
}

/// The NN-S deployment-resolution measurement, taken **once** per snapshot
/// on one shared fixture and reused by both `BENCH_nn.json` (opt vs naive,
/// plus the int8 figure) and `BENCH_quant.json` (f32 vs int8). Before this
/// existed the two artifacts timed the same network on different fixtures
/// in separate harnesses and their `nns_infer_854x480` baselines drifted.
struct NnsHdMeasurement {
    f32_ms: f64,
    naive_ms: f64,
    int8_ms: f64,
}

fn measure_nns_hd() -> NnsHdMeasurement {
    let mut nns = NnS::new(8, 42);
    let hd = Tensor::from_vec(
        3,
        480,
        854,
        (0..3 * 480 * 854)
            .map(|v| (v as f32 * 0.01).sin())
            .collect(),
    );
    let fast = nns.infer(&hd);
    let slow = naive_infer(&nns, &hd);
    assert_eq!(fast.as_slice(), slow.as_slice(), "kernels diverged");
    nns.calibrate(&[&hd]);
    let q = nns.quantize();
    NnsHdMeasurement {
        f32_ms: time_median(5, || {
            std::hint::black_box(nns.infer(&hd));
        }) * 1e3,
        naive_ms: time_median(3, || {
            std::hint::black_box(naive_infer(&nns, &hd));
        }) * 1e3,
        int8_ms: time_median(9, || {
            std::hint::black_box(q.infer(&hd));
        }) * 1e3,
    }
}

fn write_or_die(path: &str, json: &str) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {path}");
}

fn nn_rows(nns_hd: &NnsHdMeasurement) -> Vec<Row> {
    let mut rows = Vec::new();

    // --- NN-S refinement at deployment resolution (the headline number),
    // taken from the shared measurement so the int8 figure in this row and
    // the quant artifact's row are the same number.
    rows.push(Row {
        name: "nns_infer_854x480",
        optimized_ms: nns_hd.f32_ms,
        naive_ms: nns_hd.naive_ms,
        int8_ms: Some(nns_hd.int8_ms),
    });

    // --- Single conv layer, training resolution.
    let conv = Conv2d::new(3, 8, 3, 7);
    let x = Tensor::from_vec(
        3,
        48,
        64,
        (0..3 * 48 * 64).map(|v| (v as f32).cos()).collect(),
    );
    rows.push(Row {
        name: "conv_forward_64x48",
        optimized_ms: time_median(31, || {
            std::hint::black_box(conv.forward_inference(&x));
        }) * 1e3,
        naive_ms: time_median(31, || {
            std::hint::black_box(reference::forward(&conv, &x));
        }) * 1e3,
        int8_ms: None,
    });

    // --- The three NN-S layers at the e2e benchmark's HD shape, on one
    // thread: the kernel rows behind its `nn.nns_infer_ms`.
    for (name, cin, cout, h, w) in NNS_HD_LAYERS {
        let (conv, x) = conv_fixture(cin, cout, h, w);
        rows.push(vrd_runtime::with_thread_budget(1, || Row {
            name,
            optimized_ms: time_median(9, || {
                std::hint::black_box(conv.forward_inference(&x));
            }) * 1e3,
            naive_ms: time_median(3, || {
                std::hint::black_box(reference::forward(&conv, &x));
            }) * 1e3,
            int8_ms: None,
        }));
    }

    // --- Conv backward, training resolution.
    let mut conv_t = Conv2d::new(3, 8, 3, 7);
    let gout = conv_t.forward(&x);
    rows.push(Row {
        name: "conv_backward_64x48",
        optimized_ms: time_median(31, || {
            conv_t.zero_grad();
            std::hint::black_box(conv_t.backward(&gout));
        }) * 1e3,
        naive_ms: time_median(31, || {
            std::hint::black_box(reference::backward(&conv_t, &x, &gout));
        }) * 1e3,
        int8_ms: None,
    });

    rows
}

struct QuantRow {
    name: &'static str,
    f32_ms: f64,
    int8_ms: f64,
}

fn render_quant_json(rows: &[QuantRow]) -> String {
    let mut json = String::from("{\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  \"{}\": {{\"f32_ms\": {:.4}, \"int8_ms\": {:.4}, \"speedup\": {:.2}}}{}\n",
            r.name,
            r.f32_ms,
            r.int8_ms,
            r.f32_ms / r.int8_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    json
}

fn quant_rows(nns_hd: &NnsHdMeasurement) -> Vec<QuantRow> {
    let mut rows = Vec::new();

    // --- NN-S inference at deployment resolution: the optimised f32 path
    // (the PR 1 kernels, the previous production path) vs the calibrated
    // int8 path. Both run the full network including quantize/sigmoid, so
    // this is the end-to-end per-B-frame refinement cost. The numbers come
    // from the shared measurement, so this row and `BENCH_nn.json`'s
    // `nns_infer_854x480` row are the same run on the same fixture.
    rows.push(QuantRow {
        name: "nns_infer_854x480",
        f32_ms: nns_hd.f32_ms,
        int8_ms: nns_hd.int8_ms,
    });

    // --- One 8→8 3×3 conv layer at deployment resolution: the optimised
    // f32 forward vs the fused quantized forward+requant (the inner loop
    // the NPU's MAC array maps to).
    let conv = Conv2d::new(8, 8, 3, 7);
    let xf = Tensor::from_vec(
        8,
        480,
        854,
        (0..8 * 480 * 854).map(|v| (v % 97) as f32 / 96.0).collect(),
    );
    let qconv = QuantConv2d::from_conv(&conv);
    let xq: Vec<u8> = xf
        .as_slice()
        .iter()
        .map(|&v| ((v * 127.0) as i32).clamp(0, 127) as u8)
        .collect();
    let rq = vec![Requant::from_real(0.01, 0); 8];
    let mut out_q = vec![0u8; 8 * 480 * 854];
    rows.push(QuantRow {
        name: "conv_forward_854x480",
        f32_ms: time_median(5, || {
            std::hint::black_box(conv.forward_inference(&xf));
        }) * 1e3,
        int8_ms: time_median(9, || {
            qconv.forward_requant(&xq, 480, 854, &rq, &mut out_q);
            std::hint::black_box(&out_q);
        }) * 1e3,
    });

    rows
}

/// Deployment-resolution mask fixture: 854×480 with pseudo-random blobs.
fn hd_mask(seed: u64) -> SegMask {
    const W: usize = 854;
    const H: usize = 480;
    SegMask::from_bits(
        W,
        H,
        (0..W * H).map(|i| vrd_video::texture::hash2(i as i64, 43, seed) & 3 == 0),
    )
}

/// A full-coverage 16-px MV grid at 854×480 (53 block columns cover the
/// 848 coded pixels; H.264 streams pad the rest) with word-straddling
/// sources, half of them bi-predicted.
fn hd_bframe() -> BFrameInfo {
    const MB: u32 = 16;
    let mut mvs = Vec::new();
    for by in 0..(480 / MB) {
        for bx in 0..(854 / MB) {
            let s = vrd_video::texture::hash2(i64::from(bx), i64::from(by), 97);
            let ref0 = RefMv {
                frame: 0,
                src_x: (s % 854) as i32 - 13,
                src_y: ((s >> 8) % 480) as i32 - 7,
            };
            let ref1 = (s & 1 == 0).then_some(RefMv {
                frame: 4,
                src_x: ((s >> 16) % 854) as i32 - 13,
                src_y: ((s >> 24) % 480) as i32 - 7,
            });
            mvs.push(MvRecord {
                dst_x: bx * MB,
                dst_y: by * MB,
                ref0,
                ref1,
            });
        }
    }
    BFrameInfo {
        display_idx: 2,
        mvs,
        intra_blocks: vec![],
    }
}

fn recon_rows() -> Vec<Row> {
    const W: usize = 854;
    const H: usize = 480;
    let mut rows = Vec::new();

    let a = hd_mask(1);
    let b = hd_mask(2);
    let mut refs = BTreeMap::new();
    refs.insert(0u32, a.clone());
    refs.insert(4u32, b.clone());
    let info = hd_bframe();
    let cfg = ReconConfig::default();

    // --- B-frame reconstruction: shift-and-merge word moves vs per-pixel.
    let packed = reconstruct_b_frame(&info, &refs, W, H, 16, &cfg).expect("anchors present");
    let scalar =
        recon::reference::reconstruct_b_frame(&info, &refs, W, H, 16, &cfg).expect("anchors");
    assert_eq!(packed, scalar, "reconstruction kernels diverged");
    rows.push(Row {
        name: "reconstruct_854x480",
        optimized_ms: time_median(31, || {
            std::hint::black_box(reconstruct_b_frame(&info, &refs, W, H, 16, &cfg).unwrap());
        }) * 1e3,
        naive_ms: time_median(9, || {
            std::hint::black_box(
                recon::reference::reconstruct_b_frame(&info, &refs, W, H, 16, &cfg).unwrap(),
            );
        }) * 1e3,
        int8_ms: None,
    });

    // --- Whole-frame bi-reference mean filter: AND/XOR vs per-pixel.
    assert_eq!(
        Seg2Plane::mean_filter(&a, &b),
        mask::reference::mean_filter(&a, &b),
        "mean filter kernels diverged"
    );
    rows.push(Row {
        name: "mean_filter_854x480",
        optimized_ms: time_median(31, || {
            std::hint::black_box(Seg2Plane::mean_filter(&a, &b));
        }) * 1e3,
        naive_ms: time_median(9, || {
            std::hint::black_box(mask::reference::mean_filter(&a, &b));
        }) * 1e3,
        int8_ms: None,
    });

    // --- IoU tally: popcounts over packed words vs the byte-wise loop the
    // masks used to be stored as.
    let (pred_bytes, gt_bytes) = (a.to_byte_vec(), b.to_byte_vec());
    assert_eq!(
        PixelCounts::tally(&a, &b),
        tally_reference::tally_bytes(&pred_bytes, &gt_bytes),
        "tally kernels diverged"
    );
    rows.push(Row {
        name: "tally_854x480",
        optimized_ms: time_median(31, || {
            std::hint::black_box(PixelCounts::tally(&a, &b));
        }) * 1e3,
        naive_ms: time_median(31, || {
            std::hint::black_box(tally_reference::tally_bytes(&pred_bytes, &gt_bytes));
        }) * 1e3,
        int8_ms: None,
    });

    // --- Sandwich assembly: fused packed→f32 expansion vs per-pixel sets.
    assert_eq!(
        build_sandwich(2, &packed, &refs).unwrap().as_slice(),
        sandwich::reference::build_sandwich(2, &packed, &refs)
            .unwrap()
            .as_slice(),
        "sandwich kernels diverged"
    );
    rows.push(Row {
        name: "sandwich_854x480",
        optimized_ms: time_median(31, || {
            std::hint::black_box(build_sandwich(2, &packed, &refs).unwrap());
        }) * 1e3,
        naive_ms: time_median(9, || {
            std::hint::black_box(sandwich::reference::build_sandwich(2, &packed, &refs).unwrap());
        }) * 1e3,
        int8_ms: None,
    });

    rows
}

/// Full-frame feature warp at deployment resolution: every 16-px block of
/// an 854×480 frame resampled from two cached anchor maps, half of the
/// blocks bi-predicted — the per-B-frame kernel cost of the
/// feature-propagation baseline.
fn featprop_rows() -> Vec<Row> {
    const W: usize = 854;
    const H: usize = 480;
    const MB: usize = 16;
    let filled = |salt: u64| {
        let mut m = FeatureMap::zeros(W, H, FEATURE_STRIDE, FEATURE_CHANNELS);
        for (i, v) in m.tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *v = ((i as u64 ^ salt) % 97) as f32 / 96.0;
        }
        m
    };
    let (a, b) = (filled(3), filled(11));
    type WarpBlock = (usize, usize, i32, i32, Option<(i32, i32)>);
    let blocks: Vec<WarpBlock> = (0..H / MB)
        .flat_map(|by| (0..W / MB).map(move |bx| (bx, by)))
        .map(|(bx, by)| {
            let s = vrd_video::texture::hash2(bx as i64, by as i64, 131);
            (
                bx * MB,
                by * MB,
                (s % 61) as i32 - 30,
                ((s >> 8) % 61) as i32 - 30,
                (s & 1 == 0)
                    .then_some((((s >> 16) % 61) as i32 - 30, ((s >> 24) % 61) as i32 - 30)),
            )
        })
        .collect();
    let warp_frame = |out: &mut FeatureMap, optimized: bool| {
        for &(dx_px, dy_px, dx, dy, second) in &blocks {
            let first = WarpSource { feat: &a, dx, dy };
            let second = second.map(|(dx, dy)| WarpSource { feat: &b, dx, dy });
            if optimized {
                featwarp::warp_block(out, dx_px, dy_px, MB, first, second);
            } else {
                featwarp::reference::warp_block(out, dx_px, dy_px, MB, first, second);
            }
        }
    };
    let mut fast = FeatureMap::zeros(W, H, FEATURE_STRIDE, FEATURE_CHANNELS);
    let mut slow = FeatureMap::zeros(W, H, FEATURE_STRIDE, FEATURE_CHANNELS);
    warp_frame(&mut fast, true);
    warp_frame(&mut slow, false);
    assert_eq!(
        fast.tensor().as_slice(),
        slow.tensor().as_slice(),
        "warp kernels diverged"
    );
    vec![Row {
        name: "featwarp_854x480",
        optimized_ms: time_median(31, || {
            warp_frame(&mut fast, true);
            std::hint::black_box(&fast);
        }) * 1e3,
        naive_ms: time_median(9, || {
            warp_frame(&mut slow, false);
            std::hint::black_box(&slow);
        }) * 1e3,
        int8_ms: None,
    }]
}

fn main() {
    let mut nn_path = None;
    let mut recon_path = None;
    let mut quant_path = None;
    let mut featprop_path = None;
    let mut min_recon_speedup: Option<f64> = None;
    let mut min_quant_speedup: Option<f64> = None;
    let mut min_warp_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--min-recon-speedup"
            || arg == "--min-quant-speedup"
            || arg == "--min-warp-speedup"
        {
            let v = args.next().and_then(|v| v.parse().ok());
            match v {
                Some(v) if arg == "--min-recon-speedup" => min_recon_speedup = Some(v),
                Some(v) if arg == "--min-quant-speedup" => min_quant_speedup = Some(v),
                Some(v) => min_warp_speedup = Some(v),
                None => {
                    eprintln!("error: {arg} needs a numeric value");
                    std::process::exit(2);
                }
            }
        } else if nn_path.is_none() {
            nn_path = Some(arg);
        } else if recon_path.is_none() {
            recon_path = Some(arg);
        } else if quant_path.is_none() {
            quant_path = Some(arg);
        } else {
            featprop_path = Some(arg);
        }
    }
    let nn_path = nn_path.unwrap_or_else(|| "BENCH_nn.json".into());
    let recon_path = recon_path.unwrap_or_else(|| "BENCH_recon.json".into());
    let quant_path = quant_path.unwrap_or_else(|| "BENCH_quant.json".into());
    let featprop_path = featprop_path.unwrap_or_else(|| "BENCH_featprop.json".into());

    // One NN-S HD measurement shared by the nn and quant artifacts.
    let nns_hd = measure_nns_hd();
    write_or_die(&nn_path, &render_json(&nn_rows(&nns_hd)));

    let recon = recon_rows();
    write_or_die(&recon_path, &render_json(&recon));

    let quant = quant_rows(&nns_hd);
    write_or_die(&quant_path, &render_quant_json(&quant));

    let featprop = featprop_rows();
    write_or_die(&featprop_path, &render_json(&featprop));

    let mut ok = true;
    if let Some(min) = min_recon_speedup {
        for r in &recon {
            let speedup = r.naive_ms / r.optimized_ms;
            if speedup < min {
                eprintln!(
                    "speedup check failed: {} is {speedup:.2}x, need >= {min:.2}x",
                    r.name
                );
                ok = false;
            }
        }
    }
    if let Some(min) = min_warp_speedup {
        for r in &featprop {
            let speedup = r.naive_ms / r.optimized_ms;
            if speedup < min {
                eprintln!(
                    "warp speedup check failed: {} is {speedup:.2}x, need >= {min:.2}x",
                    r.name
                );
                ok = false;
            }
        }
    }
    if let Some(min) = min_quant_speedup {
        for r in &quant {
            let speedup = r.f32_ms / r.int8_ms;
            if speedup < min {
                eprintln!(
                    "quant speedup check failed: {} is {speedup:.2}x, need >= {min:.2}x",
                    r.name
                );
                ok = false;
            } else {
                eprintln!("quant speedup: {} int8 is {speedup:.2}x f32", r.name);
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
