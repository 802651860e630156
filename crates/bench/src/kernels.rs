//! Optimised-vs-reference kernel timings at the deployment resolution: the
//! one module of this crate that reads the wall clock.
//!
//! End-to-end and per-layer wall-clock numbers come from the stand-alone
//! `benchmark/` workspace, which gates them. What is measured here is only
//! the *ratio* of each optimised kernel to the naive reference it is
//! pinned bit-exact against (asserted again before every timed pair), plus
//! the int8 path's time where one exists. Rows carry their own floor;
//! [`run`] writes every row to `BENCH_kernels.json` and reports the rows
//! that fell under theirs.

use crate::registry::Output;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vr_dann::{build_sandwich, plane_to_mask, recon, reconstruct_b_frame, sandwich, ReconConfig};
use vrd_codec::decoder::{self, BFrameInfo};
use vrd_codec::{
    BFrameMode, CodecConfig, Decoder, EncodedVideo, Encoder, FrameSource, MvRecord, RefMv,
    StrictFrameSource, UnitPayload,
};
use vrd_metrics::segmentation::{reference as tally_reference, PixelCounts};
use vrd_nn::conv::{reference, Conv2d};
use vrd_nn::featwarp::{self, FeatureMap, WarpSource, FEATURE_CHANNELS, FEATURE_STRIDE};
use vrd_nn::largenet::{self, LargeNet, LargeNetProfile};
use vrd_nn::layers::{
    logits_to_mask, maxpool2_into, maxpool2_u8_into, relu_in_place, sigmoid_in_place,
    upsample2_into,
};
use vrd_nn::{quant, NnS, QuantConv2d, QuantNnS, Requant, SandwichPlanes, Tensor};
use vrd_video::davis::{davis_sequence, SuiteConfig};
use vrd_video::{mask, Frame, Seg2Plane, SegMask};

const W: usize = 854;
const H: usize = 480;
const MB: usize = 16;

/// Floor of the packed-mask kernels over their byte-wise references.
const PACKED_MASK_FLOOR: f64 = 3.0;
/// Floor of the feature-warp kernel over its per-cell reference.
const WARP_FLOOR: f64 = 2.0;
/// Floor of the NN-L oracle, which warps only the band near the ground
/// truth's value changes, over its per-pixel reference, which warps every
/// pixel; on [`ellipse_mask`] the band is about 2 % of the frame.
const NNL_FLOOR: f64 = 8.0;
/// Floor of NN-S's band-restricted mask over the dense graph's, on a
/// B-frame whose band is 10–14 % of each layer's pixels.
const BAND_FLOOR: f64 = 2.0;
/// Floor of the in-place anchor decode over the dense per-block one. Four
/// runs on a 2-core AVX2 VM read 2.41–2.83×; the floor sits below the
/// lowest run.
const DECODE_FLOOR: f64 = 1.5;
/// Floor of the int8 path over the optimised f32 path, on every row that
/// has an int8 column. Over twenty runs on a 2-core AVX2 VM the rows'
/// median per-rep ratios read 1.39–2.97× (NN-S and conv1 the lowest), so
/// the floor sits below the lowest run rather than at the typical one.
const INT8_FLOOR: f64 = 1.25;
/// Rows that are reported, not gated.
const UNGATED: f64 = 0.0;
/// Why an int8 conv fixture is never refused: its inputs are built in the
/// kernels' 7-bit range.
const SEVEN_BIT: &str = "int8 fixtures hold 7-bit inputs";

/// `[q1, median, q3]` of a sample.
type Quartiles = [f64; 3];

/// One kernel's timings. Every side of a row is timed in the same loop
/// ([`time_interleaved`]) and the floors gate the median of the per-rep
/// ratios, so host-speed drift that lasts longer than one rep cancels out
/// of the gated figure.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    /// Kernel and shape.
    pub name: &'static str,
    /// Median time of the optimised kernel, milliseconds.
    pub optimized_ms: f64,
    /// Median time of the naive reference it is pinned against.
    pub reference_ms: f64,
    /// Per-rep `reference / optimized`; its median is gated at `floor`.
    pub speedup: Quartiles,
    /// Where an int8 path does the same work: its median time, and its
    /// per-rep `optimized / int8`, whose median is gated at [`INT8_FLOOR`].
    pub int8: Option<(f64, Quartiles)>,
    /// Lowest acceptable median `speedup`.
    pub floor: f64,
    /// Where the optimised kernel computes only part of the frame: the
    /// share of each stage's pixels it computes (conv1's, conv2's and
    /// conv3's outputs for NN-S, the warped pixels for NN-L), so the ratio
    /// can be checked against the work it skips.
    pub coverage: Vec<(&'static str, f64)>,
    /// Where the optimised kernel walks the frame in row tiles: per
    /// precision, the tile count and the bytes of scratch one call holds.
    pub tiles: Vec<(&'static str, usize, usize)>,
}

impl Row {
    /// Summarises per-round milliseconds: `times[0]` of the optimised
    /// kernel, `times[1]` of its reference, `times[2]` of any int8 path.
    fn from_times(name: &'static str, floor: f64, times: &[Vec<f64>]) -> Self {
        let median = |v: &[f64]| quartiles(v.to_vec())[1];
        let ratios =
            |num: &[f64], den: &[f64]| quartiles(num.iter().zip(den).map(|(n, d)| n / d).collect());
        let (optimized, reference) = (&times[0], &times[1]);
        Row {
            name,
            optimized_ms: median(optimized),
            reference_ms: median(reference),
            speedup: ratios(reference, optimized),
            int8: (times.get(2)).map(|int8| (median(int8), ratios(optimized, int8))),
            floor,
            coverage: Vec::new(),
            tiles: Vec::new(),
        }
    }
}

/// `[q1, median, q3]` of `v` by nearest rank.
fn quartiles(mut v: Vec<f64>) -> Quartiles {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [v[n / 4], v[n / 2], v[3 * n / 4]]
}

/// Runs every side once per round for `reps` rounds (at least one), in
/// order on even rounds and in reverse on odd ones, and returns each
/// side's per-round time as read from `clock`. No side always runs first,
/// and drift slower than one round lands on every side of a round alike.
fn time_interleaved(
    reps: usize,
    clock: &mut impl FnMut() -> f64,
    sides: &mut [&mut dyn FnMut()],
) -> Vec<Vec<f64>> {
    let n = sides.len();
    let mut times = vec![Vec::with_capacity(reps); n];
    for round in 0..reps.max(1) {
        for k in 0..n {
            let k = if round % 2 == 0 { k } else { n - 1 - k };
            let t = clock();
            (sides[k])();
            times[k].push(clock() - t);
        }
    }
    times
}

/// Rounds per row.
const REPS: usize = 31;
/// Rounds per row with an int8 column, whose naive reference takes
/// 0.1–0.5 s a run.
const INT8_REPS: usize = 9;

/// Asserts that the optimised kernel and its reference return the same
/// value, then times both, and `int8` if given (its caller checks its
/// output), interleaved for `reps` rounds; results are kept from the
/// optimiser and dropped inside the timed region. Kernels that write
/// through an out-parameter return `()` and are compared by their caller.
fn measure<T: PartialEq>(
    name: &'static str,
    floor: f64,
    reps: usize,
    mut optimized: impl FnMut() -> T,
    mut reference: impl FnMut() -> T,
    int8: Option<&mut dyn FnMut()>,
) -> Row {
    assert!(
        optimized() == reference(),
        "{name}: optimised and reference kernels diverged"
    );
    let optimized = &mut || drop(black_box(optimized()));
    let reference = &mut || drop(black_box(reference()));
    let start = Instant::now();
    let clock = &mut || start.elapsed().as_secs_f64() * 1e3;
    let times = match int8 {
        Some(int8) => time_interleaved(reps, clock, &mut [optimized, reference, int8]),
        None => time_interleaved(reps, clock, &mut [optimized, reference]),
    };
    Row::from_times(name, floor, &times)
}

/// [`measure`] of a row without an int8 side, for [`REPS`] rounds.
fn pair<T: PartialEq>(
    name: &'static str,
    floor: f64,
    optimized: impl FnMut() -> T,
    reference: impl FnMut() -> T,
) -> Row {
    measure(name, floor, REPS, optimized, reference, None)
}

/// [`measure`] of an ungated row with its int8 side, for [`INT8_REPS`]
/// rounds.
fn pair_int8<T: PartialEq>(
    name: &'static str,
    optimized: impl FnMut() -> T,
    reference: impl FnMut() -> T,
    int8: &mut dyn FnMut(),
) -> Row {
    measure(name, UNGATED, INT8_REPS, optimized, reference, Some(int8))
}

/// Runs `write` into `buf` and keeps what it wrote from the optimiser: the
/// timed body of a kernel that writes through an out-parameter.
fn written<B: ?Sized>(buf: &mut B, write: impl FnOnce(&mut B)) {
    write(buf);
    black_box(buf);
}

/// NN-S inference composed purely from the naive reference conv kernels.
fn naive_infer(nns: &NnS, x: &Tensor) -> Tensor {
    let (c1, c2, c3) = nns.convs();
    let (h, w) = (x.height(), x.width());
    let hid = nns.hidden();
    let mut a1 = reference::forward(c1, x);
    relu_in_place(a1.as_mut_slice());
    let mut d = vec![0.0; hid * h * w / 4];
    maxpool2_into(a1.as_slice(), hid, h, w, &mut d, f32::max);
    let mut a2 = reference::forward(c2, &Tensor::from_vec(hid, h / 2, w / 2, d));
    relu_in_place(a2.as_mut_slice());
    let mut cat = vec![0.0; 2 * hid * h * w];
    cat[..hid * h * w].copy_from_slice(a1.as_slice());
    upsample2_into(a2.as_slice(), hid, h / 2, w / 2, &mut cat[hid * h * w..]);
    let mut out = reference::forward(c3, &Tensor::from_vec(2 * hid, h, w, cat));
    sigmoid_in_place(out.as_mut_slice());
    out
}

fn nn_rows(rows: &mut Vec<Row>) {
    // NN-S refinement at deployment resolution: optimised f32 vs the naive
    // composition, and the calibrated int8 path on the same fixture. One
    // thread, like the per-layer rows below, so that those rows are its
    // ledger.
    let mut nns = NnS::new(8, 42);
    let hd = Tensor::from_vec(
        3,
        H,
        W,
        (0..3 * H * W).map(|v| (v as f32 * 0.01).sin()).collect(),
    );
    nns.calibrate(&[&hd]);
    let q = nns.quantize();
    rows.push(vrd_runtime::with_thread_budget(1, || {
        pair_int8(
            "nns_infer_854x480",
            || nns.infer(&hd),
            || naive_infer(&nns, &hd),
            &mut || drop(black_box(q.infer(&hd))),
        )
    }));

    // Single conv layer, forward and backward, at the training resolution.
    let conv = Conv2d::new(3, 8, 3, 7);
    let x = Tensor::from_vec(
        3,
        48,
        64,
        (0..3 * 48 * 64).map(|v| (v as f32).cos()).collect(),
    );
    rows.push(pair(
        "conv_forward_64x48",
        UNGATED,
        || conv.forward_inference(&x),
        || reference::forward(&conv, &x),
    ));

    // The three NN-S layers at the wall-clock benchmark's HD shape, on one
    // thread: the kernel rows behind its `nn.nns_infer_ms` (conv2 runs at
    // half resolution). The int8 column runs the layer quantized: conv1
    // and conv2 requantize into `u8` as `QuantNnS` runs them; conv3 stores
    // raw `i32`, as the graph runs each of its two 8→1 halves before the
    // scalar epilogue sums them.
    for (name, cin, cout, h, w) in [
        ("conv1_3to8_864x480", 3, 8, 480, 864),
        ("conv2_8to8_432x240", 8, 8, 240, 432),
        ("conv3_16to1_864x480", 16, 1, 480, 864),
    ] {
        let conv = Conv2d::new(cin, cout, 3, 7);
        let data: Vec<f32> = (0..cin * h * w).map(|v| (v as f32 * 0.013).sin()).collect();
        let xq: Vec<u8> = data.iter().map(|v| (v.abs() * 127.0) as u8).collect();
        let x = Tensor::from_vec(cin, h, w, data);
        let qconv = QuantConv2d::from_conv(&conv);
        rows.push(vrd_runtime::with_thread_budget(1, || {
            pair_int8(
                name,
                || conv.forward_inference(&x),
                || reference::forward(&conv, &x),
                &mut int8_conv(&qconv, &xq, (h, w), cout > 1),
            )
        }));
    }
    int8_ledger_rows(rows, &q, &hd);

    let gout = conv.forward_inference(&x);
    rows.push(pair(
        "conv_backward_64x48",
        UNGATED,
        || {
            let (mut gw, mut gb) = (vec![0.0; conv.weights().len()], vec![0.0; conv.cout()]);
            let gin = conv.backward(&x, &gout, &mut gw, &mut gb);
            (gin, gw, gb)
        },
        || reference::backward(&conv, &x, &gout),
    ));
}

/// One int8 forward pass of `conv` over `x`, to time, after asserting the
/// pass equals `quant::reference`'s: with `requant`, fused requantization
/// into `u8` (as conv1 and conv2 run), otherwise raw `i32` accumulators.
fn int8_conv<'a>(
    conv: &'a QuantConv2d,
    x: &'a [u8],
    (h, w): (usize, usize),
    requant: bool,
) -> Box<dyn FnMut() + 'a> {
    let n = conv.cout() * h * w;
    let diverged = "int8 conv diverged from its reference";
    if requant {
        let rq = vec![Requant::from_real(0.01, 0); conv.cout()];
        let want = quant::reference::forward_requant(conv, x, h, w, &rq);
        let mut out = vec![0u8; n];
        let run = move |b: &mut [u8]| conv.forward_requant(x, h, w, &rq, b).expect(SEVEN_BIT);
        run(&mut out);
        assert!(out == want, "{diverged}");
        Box::new(move || written(&mut out[..], &run))
    } else {
        let mut out = vec![0i32; n];
        let run = move |b: &mut [i32]| conv.forward_i32(x, h, w, b).expect(SEVEN_BIT);
        run(&mut out);
        assert!(
            out == quant::reference::forward_i32(conv, x, h, w),
            "{diverged}"
        );
        Box::new(move || written(&mut out[..], run))
    }
}

/// The int8 graph's passes besides its convolutions, at `QuantNnS`'s
/// 854×480 shapes on one thread — with the conv rows' int8 columns, the
/// ledger of `nns_infer_854x480`'s int8 column — each against the plainer
/// code it replaces or is pinned to, equality asserted first.
fn int8_ledger_rows(rows: &mut Vec<Row>, q: &QuantNnS, hd: &Tensor) {
    let (hid, hw) = (q.hidden(), H * W);
    vrd_runtime::with_thread_budget(1, || {
        // Input quantization, `QuantNnS::infer`'s first pass.
        let inv = 1.0 / q.scales().input;
        let naive_quantize = || -> Vec<u8> {
            (hd.as_slice().iter())
                .map(|&v| (v * inv + 0.5).clamp(0.0, 127.0) as u8)
                .collect()
        };
        let mut xq = vec![0u8; 3 * hw];
        q.quantize_input(hd, &mut xq);
        assert!(xq == naive_quantize(), "quantize_854x480 diverged");
        rows.push(pair(
            "quantize_854x480",
            UNGATED,
            || written(&mut xq, |b| q.quantize_input(hd, b)),
            || drop(black_box(naive_quantize())),
        ));

        // The 2×2 max-pool on conv1's `u8` output.
        let a1: Vec<u8> = (0..hid * hw)
            .map(|i| (vrd_video::texture::hash2(i as i64, 11, 5) % 128) as u8)
            .collect();
        let (mut d, mut d_generic) = (vec![0u8; hid * hw / 4], vec![0u8; hid * hw / 4]);
        maxpool2_u8_into(&a1, hid, H, W, &mut d);
        maxpool2_into(&a1, hid, H, W, &mut d_generic, u8::max);
        assert!(d == d_generic, "maxpool_u8_854x480 diverged");
        rows.push(pair(
            "maxpool_u8_854x480",
            UNGATED,
            || written(&mut d, |b| maxpool2_u8_into(&a1, hid, H, W, b)),
            || {
                written(&mut d_generic, |b| {
                    maxpool2_into(&a1, hid, H, W, b, u8::max)
                })
            },
        ));

        // The 2× upsample of conv2's output, against a per-pixel gather.
        let (mut up, mut up_naive) = (vec![0u8; hid * hw], vec![0u8; hid * hw]);
        let naive_upsample = |out: &mut [u8]| {
            for (i, o) in out.iter_mut().enumerate() {
                let (c, y, x) = (i / hw, i / W % H, i % W);
                *o = d[(c * (H / 2) + y / 2) * (W / 2) + x / 2];
            }
        };
        upsample2_into(&d, hid, H / 2, W / 2, &mut up);
        naive_upsample(&mut up_naive);
        assert!(up == up_naive, "upsample_u8_854x480 diverged");
        rows.push(pair(
            "upsample_u8_854x480",
            UNGATED,
            || written(&mut up, |b| upsample2_into(&d, hid, H / 2, W / 2, b)),
            || written(&mut up_naive, |b| naive_upsample(b)),
        ));

        // Logits to mask: the cut, against the sigmoid and `to_mask(0.5)`
        // (`infer`'s epilogue plus the caller's threshold). Some logits sit
        // within a few ulps of the cut.
        let logits: Vec<f32> = (0..hw)
            .map(|i| {
                let z = (i as f32 * 0.001).sin() * 4.0;
                if i % 101 == 0 {
                    z * 1e-7
                } else {
                    z
                }
            })
            .collect();
        rows.push(pair(
            "threshold_854x480",
            UNGATED,
            || logits_to_mask(&logits, H, W),
            || {
                let mut p = logits.clone();
                sigmoid_in_place(&mut p);
                Tensor::from_vec(1, H, W, p).to_mask(0.5)
            },
        ));
    });
}

/// Deployment-resolution mask fixture with pseudo-random blobs.
fn hd_mask(seed: u64) -> SegMask {
    SegMask::from_bits(
        W,
        H,
        (0..W * H).map(|i| vrd_video::texture::hash2(i as i64, 43, seed) & 3 == 0),
    )
}

/// A full-coverage `mb`-px MV grid at 854×480 (whole blocks cover the
/// first 848 columns, 106 of 8 px or 53 of 16; the stream pads the rest)
/// with word-straddling sources, half of them bi-predicted.
fn hd_bframe(mb: usize) -> BFrameInfo {
    let mut mvs = Vec::new();
    for by in 0..(H / mb) as u32 {
        for bx in 0..(W / mb) as u32 {
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
                dst_x: bx * mb as u32,
                dst_y: by * mb as u32,
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

fn packed_mask_rows(rows: &mut Vec<Row>) {
    let (a, b) = (hd_mask(1), hd_mask(2));
    let refs = BTreeMap::from([(0u32, a.clone()), (4u32, b.clone())]);
    // The block size of the codec the HD streams are coded with: 8 px.
    let mb = CodecConfig::default().standard.mb_size();
    let info = hd_bframe(mb);
    let cfg = ReconConfig::default();

    // B-frame reconstruction: one block write per MV (bounds checked once,
    // per block row a shifted word read per reference and a word merge per
    // plane) vs per-pixel clamped reads and sets.
    let packed = reconstruct_b_frame(&info, &refs, W, H, mb, &cfg).expect("anchors present");
    rows.push(pair(
        "reconstruct_854x480",
        PACKED_MASK_FLOOR,
        || reconstruct_b_frame(&info, &refs, W, H, mb, &cfg).unwrap(),
        || recon::reference::reconstruct_b_frame(&info, &refs, W, H, mb, &cfg).unwrap(),
    ));

    // Whole-frame bi-reference mean filter: AND/XOR vs per-pixel.
    rows.push(pair(
        "mean_filter_854x480",
        PACKED_MASK_FLOOR,
        || Seg2Plane::mean_filter(&a, &b),
        || mask::reference::mean_filter(&a, &b),
    ));

    // IoU tally: popcounts over packed words vs the byte-wise loop.
    let (pred_bytes, gt_bytes) = (a.to_byte_vec(), b.to_byte_vec());
    rows.push(pair(
        "tally_854x480",
        PACKED_MASK_FLOOR,
        || PixelCounts::tally(&a, &b),
        || tally_reference::tally_bytes(&pred_bytes, &gt_bytes),
    ));

    // Sandwich assembly: fused packed→f32 expansion vs per-pixel sets.
    rows.push(pair(
        "sandwich_854x480",
        PACKED_MASK_FLOOR,
        || build_sandwich(2, &packed, &refs).unwrap(),
        || sandwich::reference::build_sandwich(2, &packed, &refs).unwrap(),
    ));

    // 2-bit plane → binary mask: word-wise threshold vs per-pixel.
    rows.push(pair(
        "plane_to_mask_854x480",
        PACKED_MASK_FLOOR,
        || plane_to_mask(&packed),
        || mask::reference::plane_to_mask(&packed, true),
    ));
}

/// One 8→8 3×3 conv layer at deployment resolution: the optimised f32
/// forward vs the naive one, and the fused quantized forward+requant (the
/// inner loop the NPU's MAC array maps to).
fn quant_conv_row() -> Row {
    let conv = Conv2d::new(8, 8, 3, 7);
    let xf = Tensor::from_vec(
        8,
        H,
        W,
        (0..8 * H * W).map(|v| (v % 97) as f32 / 96.0).collect(),
    );
    let qconv = QuantConv2d::from_conv(&conv);
    let xq: Vec<u8> = xf
        .as_slice()
        .iter()
        .map(|&v| ((v * 127.0) as i32).clamp(0, 127) as u8)
        .collect();
    let mut int8 = int8_conv(&qconv, &xq, (H, W), true);
    pair_int8(
        "conv_forward_854x480",
        || conv.forward_inference(&xf),
        || reference::forward(&conv, &xf),
        &mut int8,
    )
}

/// Full-frame feature warp: every 16-px block of an 854×480 frame
/// resampled from two cached anchor maps, half of the blocks bi-predicted —
/// the per-B-frame kernel cost of the feature-propagation baseline.
fn featwarp_row() -> Row {
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
    pair(
        "featwarp_854x480",
        WARP_FLOOR,
        || written(&mut fast, |b| warp_frame(b, true)),
        || written(&mut slow, |b| warp_frame(b, false)),
    )
}

/// An 854×480 object mask: an ellipse a third of the frame across centred
/// at `(0.45 W + dx, 0.55 H + dy)`, so the boundary is a realistic share
/// of the pixels.
fn ellipse_mask(dx: f32, dy: f32) -> SegMask {
    let (cx, cy) = (W as f32 * 0.45 + dx, H as f32 * 0.55 + dy);
    SegMask::from_bits(
        W,
        H,
        (0..W * H).map(|i| {
            let (x, y) = ((i % W) as f32 - cx, (i / W) as f32 - cy);
            (x / 150.0).powi(2) + (y / 110.0).powi(2) <= 1.0
        }),
    )
}

/// One NN-L oracle inference on [`ellipse_mask`]: the band-restricted
/// raster vs the per-pixel reference, each with the thread count it picks
/// as the engine runs it. The row carries the share of pixels warped.
fn nnl_row() -> Row {
    let gt = ellipse_mask(0.0, 0.0);
    let net = LargeNet::new(LargeNetProfile::favos());
    let mut row = pair(
        "nnl_segment_854x480",
        NNL_FLOOR,
        || net.segment(&gt, 0x40f0),
        || largenet::reference::segment(&net, &gt, 0x40f0),
    );
    row.coverage = vec![("warp", net.band_coverage(&gt))];
    row
}

/// The anchors of the NN-S rows' B-frames: [`ellipse_mask`] at display 0
/// and the same ellipse 6 px right and 3 px down at display 4.
fn band_anchors() -> BTreeMap<u32, SegMask> {
    BTreeMap::from([
        (0u32, ellipse_mask(0.0, 0.0)),
        (4u32, ellipse_mask(6.0, 3.0)),
    ])
}

/// A realistic B-frame between [`band_anchors`]: every 16-px block copied
/// from within 4 px of its own position, half of them bi-predicted, the
/// offsets drawn by `salt` — the small motion vectors of a real stream,
/// where random noise would put the whole frame in the band.
fn near_bframe(refs: &BTreeMap<u32, SegMask>, salt: u64) -> Seg2Plane {
    let mut mvs = Vec::new();
    for by in 0..(H / MB) as u32 {
        for bx in 0..(W / MB) as u32 {
            let s = vrd_video::texture::hash2(i64::from(bx), i64::from(by), salt);
            let near = |frame: u32, bits: u64| RefMv {
                frame,
                src_x: (bx * MB as u32) as i32 + ((s >> bits) % 9) as i32 - 4,
                src_y: (by * MB as u32) as i32 + ((s >> (bits + 8)) % 9) as i32 - 4,
            };
            mvs.push(MvRecord {
                dst_x: bx * MB as u32,
                dst_y: by * MB as u32,
                ref0: near(0, 0),
                ref1: (s & 1 == 0).then(|| near(4, 16)),
            });
        }
    }
    let info = BFrameInfo {
        display_idx: 2,
        mvs,
        intra_blocks: vec![],
    };
    reconstruct_b_frame(&info, refs, W, H, MB, &ReconConfig::default()).expect("anchors present")
}

/// NN-S's refined mask of a realistic B-frame on one thread: [`NnS::mask`]
/// on the sandwich's packed planes — the band, with the input written only
/// where conv1 reads it — against the dense graph on the built sandwich
/// (`infer(..).to_mask(0.5)`), each precision's masks asserted equal
/// first, and the int8 column the engine's int8 B-frame path,
/// [`QuantNnS::mask`]. The B-frame is [`near_bframe`] between
/// [`band_anchors`]. The row carries the fixture's band coverage and, per
/// precision, the row tiles `mask` walks and the bytes of scratch one call
/// holds.
fn nns_band_row() -> Row {
    let refs = band_anchors();
    let plane = near_bframe(&refs, 211);
    let x = build_sandwich(2, &plane, &refs).expect("anchors present");
    let planes = SandwichPlanes::new(&refs[&0], &plane, &refs[&4]).expect("one even size");
    let mut nns = NnS::new(8, 42);
    nns.calibrate(&[&x]);
    let q = nns.quantize();
    assert!(
        q.mask(&planes) == q.infer(&x).to_mask(0.5),
        "nns_mask_band_854x480: int8 band and dense masks diverged"
    );
    let mut row = vrd_runtime::with_thread_budget(1, || {
        measure(
            "nns_mask_band_854x480",
            BAND_FLOOR,
            REPS,
            || nns.mask(&planes),
            || nns.infer(&x).to_mask(0.5),
            Some(&mut || drop(black_box(q.mask(&planes)))),
        )
    });
    let [c1, c2, c3] = NnS::band_coverage(&planes);
    row.coverage = vec![("conv1", c1), ("conv2", c2), ("conv3", c3)];
    let ((f32_tiles, f32_bytes), (int8_tiles, int8_bytes)) =
        (nns.mask_tiles(&planes), q.mask_tiles(&planes));
    row.tiles = vec![
        ("f32", f32_tiles, f32_bytes),
        ("int8", int8_tiles, int8_bytes),
    ];
    row
}

/// The engine's int8 B-frame wave in process, ungated: one
/// [`QuantNnS::masks`] call over two [`near_bframe`]s at width 2, whose
/// tiles form one queue, against the two frames' [`QuantNnS::mask`] one
/// after the other at width 1, the masks asserted equal first. Its ratio
/// is the wave's speedup on two threads, which `runtime.parallel_speedup`
/// cannot measure: that divides an fps by one timed minutes apart.
fn nns_wave_row() -> Row {
    let refs = band_anchors();
    let frames = [211, 223].map(|salt| near_bframe(&refs, salt));
    let x = build_sandwich(2, &frames[0], &refs).expect("anchors present");
    let mut nns = NnS::new(8, 42);
    nns.calibrate(&[&x]);
    let q = nns.quantize();
    let xs = frames
        .each_ref()
        .map(|plane| SandwichPlanes::new(&refs[&0], plane, &refs[&4]).expect("one even size"));
    pair(
        "nns_masks_wave_854x480",
        UNGATED,
        || vrd_runtime::with_thread_budget(2, || q.masks(&xs)),
        || vrd_runtime::with_thread_budget(1, || xs.iter().map(|x| q.mask(x)).collect::<Vec<_>>()),
    )
}

/// The first `frames` frames of `cows` at 864×480 (854 rounded up to whole
/// macro-blocks, as the benchmark's streams are), seed 0x40f0, encoded
/// with `b_frames`.
fn hd_stream(frames: usize, b_frames: BFrameMode) -> EncodedVideo {
    let scene = SuiteConfig {
        width: 864,
        height: H,
        frames,
        seed: 0x40f0,
    };
    let seq = davis_sequence("cows", &scene).expect("cows generates at 864x480");
    let codec = CodecConfig {
        b_frames,
        ..CodecConfig::default()
    };
    (Encoder::new(codec).encode(&seq.frames)).expect("cows encodes")
}

/// The anchors a strict source pulled dry yields, in decode order, each
/// with its display index; B-frame payloads are dropped as they come.
fn strict_anchors(ev: &EncodedVideo) -> Vec<(u32, Arc<Frame>)> {
    let mut src = StrictFrameSource::new(&ev.bitstream).expect("header parses");
    std::iter::from_fn(|| src.next_unit())
        .filter_map(|unit| match unit.expect("stream decodes").payload {
            UnitPayload::Anchor { display, frame } => Some((display, frame)),
            _ => None,
        })
        .collect()
}

/// Anchor decode of `cows` encoded anchor-only (the stream of the
/// benchmark's `hd_anchor_only`, its first 8 frames): the strict source,
/// which reconstructs each block in place, against
/// [`decoder::reference::decode`], which fetches, adds and writes every
/// block through owned buffers.
fn decode_row() -> Row {
    let ev = hd_stream(8, BFrameMode::Fixed(0));
    let reference = || -> Vec<(u32, Arc<Frame>)> {
        let video = decoder::reference::decode(&ev.bitstream).expect("stream decodes");
        (0..).zip(video.frames.into_iter().map(Arc::new)).collect()
    };
    pair(
        "decode_anchor_854x480",
        DECODE_FLOOR,
        || strict_anchors(&ev),
        reference,
    )
}

/// Recognition-mode decode against the conventional one on `cows` with the
/// default GOP (the stream of the benchmark's `hd_f32` and `hd_int8`, its
/// first 16 frames): the strict source, which decodes anchors to pixels
/// and B-frames to motion vectors, against [`vrd_codec::Decoder::decode`],
/// which decodes every frame to pixels. The ratio is the decoder-side
/// saving VR-DANN's B-frame path buys on this host; it is reported, not
/// gated. Both sides return the anchors, which must agree.
fn decode_motion_row() -> Row {
    let ev = hd_stream(16, CodecConfig::default().b_frames);
    let full = || -> Vec<(u32, Arc<Frame>)> {
        let video = Decoder::new()
            .decode(&ev.bitstream)
            .expect("stream decodes");
        let mut frames: Vec<_> = video.frames.into_iter().map(Some).collect();
        let anchors = video.metas.iter().filter(|m| m.ftype.is_anchor());
        anchors
            .map(|m| {
                let frame = frames[m.display_idx as usize].take();
                (
                    m.display_idx,
                    Arc::new(frame.expect("one frame per display")),
                )
            })
            .collect()
    };
    pair(
        "decode_motion_854x480",
        UNGATED,
        || strict_anchors(&ev),
        full,
    )
}

/// Every row whose median per-rep ratio is under its floor, as a
/// printable complaint.
pub(crate) fn failures(rows: &[Row]) -> Vec<String> {
    let mut fails = Vec::new();
    for r in rows {
        let speedup = r.speedup[1];
        if speedup < r.floor {
            fails.push(format!(
                "{} is {speedup:.2}x its reference, need >= {:.2}x",
                r.name, r.floor
            ));
        }
        if let Some((_, [_, speedup, _])) = r.int8 {
            if speedup < INT8_FLOOR {
                fails.push(format!(
                    "{} int8 is {speedup:.2}x f32, need >= {INT8_FLOOR:.2}x",
                    r.name
                ));
            }
        }
    }
    fails
}

/// Renders the rows as the `BENCH_kernels.json` artefact (hand-rolled —
/// the workspace carries no serialisation dependency): the int8 body the
/// int8 columns ran on, then per row the median times, the gated median
/// ratios, and each ratio's quartiles.
pub(crate) fn to_json(int8_body: &str, rows: &[Row]) -> String {
    let ratio = |key: &str, [q1, median, q3]: Quartiles| {
        format!("\"{key}\": {median:.2}, \"{key}_quartiles\": [{q1:.2}, {median:.2}, {q3:.2}]")
    };
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let int8 = r.int8.map_or(String::new(), |(ms, speedup)| {
                format!(", \"int8_ms\": {ms:.4}, {}", ratio("int8_speedup", speedup))
            });
            let coverage = if r.coverage.is_empty() {
                String::new()
            } else {
                let shares: Vec<String> =
                    r.coverage.iter().map(|(k, c)| format!("\"{k}\": {c:.3}")).collect();
                format!(", \"band_coverage\": {{{}}}", shares.join(", "))
            };
            let tiles = if r.tiles.is_empty() {
                String::new()
            } else {
                let per = |f: fn(&(&str, usize, usize)) -> usize| {
                    let v: Vec<String> =
                        r.tiles.iter().map(|t| format!("\"{}\": {}", t.0, f(t))).collect();
                    v.join(", ")
                };
                format!(
                    ", \"tiles\": {{{}}}, \"scratch_bytes\": {{{}}}",
                    per(|t| t.1),
                    per(|t| t.2)
                )
            };
            format!(
                "  \"{}\": {{\"optimized_ms\": {:.4}, \"reference_ms\": {:.4}, {}{int8}{coverage}{tiles}}}",
                r.name,
                r.optimized_ms,
                r.reference_ms,
                ratio("speedup", r.speedup),
            )
        })
        .collect();
    format!(
        "{{\n  \"int8_body\": \"{int8_body}\",\n{}\n}}\n",
        lines.join(",\n")
    )
}

/// Times every kernel pair (about 10 s) and packages the report.
///
/// # Panics
/// Panics if an optimised kernel's output differs from its reference's.
pub(crate) fn run() -> Output {
    let mut rows = Vec::new();
    nn_rows(&mut rows);
    packed_mask_rows(&mut rows);
    rows.push(quant_conv_row());
    rows.push(featwarp_row());
    rows.push(nnl_row());
    rows.push(nns_band_row());
    rows.push(nns_wave_row());
    rows.push(decode_row());
    rows.push(decode_motion_row());
    let json = to_json(quant::Body::detected().name(), &rows);
    Output {
        text: json.trim_end().to_string(),
        files: vec![("BENCH_kernels.json", json)],
        failures: failures(&rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    fn row(optimized_ms: f64, reference_ms: f64, int8_ms: Option<f64>, floor: f64) -> Row {
        Row {
            name: "synthetic",
            optimized_ms,
            reference_ms,
            speedup: [reference_ms / optimized_ms; 3],
            int8: int8_ms.map(|ms| (ms, [optimized_ms / ms; 3])),
            floor,
            coverage: Vec::new(),
            tiles: Vec::new(),
        }
    }

    #[test]
    fn gate_fails_a_row_under_its_floor_and_passes_one_at_it() {
        assert!(failures(&[row(1.0, 3.0, None, 3.0)]).is_empty());
        assert!(failures(&[row(1.0, 0.5, None, UNGATED)]).is_empty());
        // 2.5 / 2.0 is exactly INT8_FLOOR (1.25), and passes.
        assert!(failures(&[row(2.5, 9.0, Some(2.0), 3.0)]).is_empty());

        let under = failures(&[row(1.0, 2.99, None, 3.0), row(1.0, 3.0, None, 3.0)]);
        assert_eq!(under.len(), 1, "{under:?}");
        assert!(under[0].contains("synthetic is 2.99x"));

        // Above the old 1.0 floor but under the current one.
        let below_floor = failures(&[row(2.0, 9.0, Some(1.7), 3.0)]);
        assert_eq!(below_floor.len(), 1, "{below_floor:?}");
        assert!(below_floor[0].contains("int8 is 1.18x f32, need >= 1.25x"));

        let slow_int8 = failures(&[row(1.0, 50.0, Some(1.25), UNGATED)]);
        assert_eq!(slow_int8.len(), 1, "{slow_int8:?}");
        assert!(slow_int8[0].contains("int8 is 0.80x f32"));
    }

    #[test]
    fn paired_timer_alternates_sides_and_gates_the_median_per_rep_ratio() {
        // Per-rep milliseconds of the optimised, reference and int8 sides.
        // Their ratios of medians (10 / 3 and 3 / 2.5) are under the floors
        // below; their medians of per-rep ratios (5 and 2) are not.
        let durations = [
            [1.0, 2.0, 3.0, 4.0, 5.0],
            [10.0, 10.0, 10.0, 10.0, 100.0],
            [0.5, 1.0, 3.0, 3.0, 2.5],
        ];
        let (now, order) = (Cell::new(0.0), RefCell::new(Vec::new()));
        let side = |k: usize| {
            let (now, order) = (&now, &order);
            let mut rep = 0;
            move || {
                order.borrow_mut().push(k);
                now.set(now.get() + durations[k][rep]);
                rep += 1;
            }
        };
        let (mut a, mut b, mut c) = (side(0), side(1), side(2));
        let times = time_interleaved(5, &mut || now.get(), &mut [&mut a, &mut b, &mut c]);
        assert_eq!(order.take(), [0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0, 0, 1, 2]);
        assert_eq!(times, durations.map(Vec::from));

        let r = Row::from_times("synthetic", 4.0, &times);
        assert_eq!((r.optimized_ms, r.reference_ms), (3.0, 10.0));
        // reference / optimized per rep: 10, 5, 10/3, 2.5, 20.
        assert_eq!(r.speedup, [10.0 / 3.0, 5.0, 10.0]);
        // optimized / int8 per rep: 2, 2, 1, 4/3, 2.
        assert_eq!(r.int8, Some((2.5, [4.0 / 3.0, 2.0, 2.0])));
        assert!(failures(&[r]).is_empty());

        let mut ran = false;
        let times = time_interleaved(0, &mut || 0.0, &mut [&mut || ran = true]);
        assert!(ran && times == [vec![0.0]], "a row runs at least once");
    }

    #[test]
    fn json_carries_the_int8_column_only_where_measured() {
        let mut first = row(2.0, 8.0, Some(1.0), 0.0);
        first.speedup = [3.5, 4.0, 4.5];
        let json = to_json("avx2", &[first, row(1.0, 3.0, None, 3.0)]);
        assert_eq!(
            json,
            "{\n  \"int8_body\": \"avx2\",\n  \"synthetic\": {\"optimized_ms\": 2.0000, \"reference_ms\": 8.0000, \
             \"speedup\": 4.00, \"speedup_quartiles\": [3.50, 4.00, 4.50], \
             \"int8_ms\": 1.0000, \"int8_speedup\": 2.00, \
             \"int8_speedup_quartiles\": [2.00, 2.00, 2.00]},\n  \
             \"synthetic\": {\"optimized_ms\": 1.0000, \"reference_ms\": 3.0000, \
             \"speedup\": 3.00, \"speedup_quartiles\": [3.00, 3.00, 3.00]}\n}\n"
        );
        let mut band = row(1.0, 3.0, None, 2.0);
        band.coverage = vec![("conv1", 0.2104), ("conv2", 0.18), ("conv3", 0.1595)];
        assert!(to_json("avx2", &[band.clone()]).contains(
            "\"band_coverage\": {\"conv1\": 0.210, \"conv2\": 0.180, \"conv3\": 0.160}}"
        ));
        band.tiles = vec![("f32", 10, 5_000_000), ("int8", 4, 4_500_000)];
        assert!(to_json("avx2", &[band]).contains(
            "\"band_coverage\": {\"conv1\": 0.210, \"conv2\": 0.180, \"conv3\": 0.160}, \
             \"tiles\": {\"f32\": 10, \"int8\": 4}, \
             \"scratch_bytes\": {\"f32\": 5000000, \"int8\": 4500000}}"
        ));
        let mut warp = row(1.0, 9.0, None, 8.0);
        warp.coverage = vec![("warp", 0.0231)];
        assert!(to_json("avx2", &[warp]).contains("\"band_coverage\": {\"warp\": 0.023}}"));
    }
}
