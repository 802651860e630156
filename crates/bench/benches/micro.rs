//! Criterion micro-benchmarks of the hot paths: codec encode/decode,
//! motion-vector reconstruction, NN-S inference, agent-unit coalescing and
//! optical flow.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use vr_dann::{plane_to_mask, recon, reconstruct_b_frame, ReconConfig};
use vrd_bench::timing::{conv_fixture, NNS_HD_LAYERS};
use vrd_codec::decoder::BFrameInfo;
use vrd_codec::{CodecConfig, Decoder, Encoder, MvRecord, RefMv};
use vrd_flow::{estimate, FlowConfig};
use vrd_metrics::segmentation::reference as tally_reference;
use vrd_metrics::PixelCounts;
use vrd_nn::conv::{reference as conv_reference, Conv2d};
use vrd_nn::featwarp::{self, FeatureMap, WarpSource, FEATURE_CHANNELS, FEATURE_STRIDE};
use vrd_nn::{LargeNet, LargeNetProfile, NnS, QuantConv2d, Requant, Tensor};
use vrd_sim::{agent, AgentConfig, Dram, DramConfig};
use vrd_video::davis::{davis_sequence, SuiteConfig};
use vrd_video::SegMask;

fn bench_codec(c: &mut Criterion) {
    let seq = davis_sequence("cows", &SuiteConfig::tiny()).expect("sequence generates");
    let encoder = Encoder::new(CodecConfig::default());
    c.bench_function("codec/encode_tiny_sequence", |b| {
        b.iter(|| encoder.encode(black_box(&seq.frames)).expect("encodes"))
    });
    let encoded = encoder.encode(&seq.frames).expect("encodes");
    let decoder = Decoder::new();
    c.bench_function("codec/decode_full", |b| {
        b.iter(|| {
            decoder
                .decode(black_box(&encoded.bitstream))
                .expect("decodes")
        })
    });
    c.bench_function("codec/decode_for_recognition", |b| {
        b.iter(|| {
            decoder
                .decode_for_recognition(black_box(&encoded.bitstream))
                .expect("decodes")
        })
    });
}

fn recognition_fixture() -> (
    vrd_codec::RecognitionStream,
    BTreeMap<u32, vrd_video::SegMask>,
) {
    let seq = davis_sequence("dog", &SuiteConfig::tiny()).expect("sequence generates");
    let encoded = Encoder::new(CodecConfig::default())
        .encode(&seq.frames)
        .expect("encodes");
    let rec = Decoder::new()
        .decode_for_recognition(&encoded.bitstream)
        .expect("decodes");
    let refs: BTreeMap<u32, vrd_video::SegMask> = rec
        .anchors
        .iter()
        .map(|(d, _)| (*d, seq.gt_masks[*d as usize].clone()))
        .collect();
    (rec, refs)
}

fn bench_reconstruction(c: &mut Criterion) {
    let (rec, refs) = recognition_fixture();
    let info = rec.b_frames.first().expect("stream has B-frames").clone();
    c.bench_function("vrdann/reconstruct_b_frame", |b| {
        b.iter(|| {
            reconstruct_b_frame(
                black_box(&info),
                &refs,
                rec.width,
                rec.height,
                rec.mb_size,
                &ReconConfig::default(),
            )
            .expect("reconstructs")
        })
    });
}

/// Deployment-resolution (854×480) packed-mask kernels vs their retained
/// byte-wise references: B-frame reconstruction over a full 16-px MV grid
/// with word-straddling sources, plane thresholding, and the IoU tally.
fn bench_packed_masks(c: &mut Criterion) {
    const W: usize = 854;
    const H: usize = 480;
    const MB: usize = 16;
    let mask = |seed: u64| {
        SegMask::from_bits(
            W,
            H,
            (0..W * H).map(|i| vrd_video::texture::hash2(i as i64, 43, seed) & 3 == 0),
        )
    };
    let (pred, gt) = (mask(1), mask(2));
    let mut refs = BTreeMap::new();
    refs.insert(0u32, pred.clone());
    refs.insert(4u32, gt.clone());

    let mut mvs = Vec::new();
    for by in 0..(H / MB) {
        for bx in 0..(W / MB) {
            let s = vrd_video::texture::hash2(bx as i64, by as i64, 97);
            mvs.push(MvRecord {
                dst_x: (bx * MB) as u32,
                dst_y: (by * MB) as u32,
                ref0: RefMv {
                    frame: 0,
                    src_x: (s % W as u64) as i32 - 13,
                    src_y: ((s >> 8) % H as u64) as i32 - 7,
                },
                ref1: (s & 1 == 0).then_some(RefMv {
                    frame: 4,
                    src_x: ((s >> 16) % W as u64) as i32 - 13,
                    src_y: ((s >> 24) % H as u64) as i32 - 7,
                }),
            });
        }
    }
    let info = BFrameInfo {
        display_idx: 2,
        mvs,
        intra_blocks: vec![],
    };
    let cfg = ReconConfig::default();

    c.bench_function("mask/reconstruct_854x480_packed", |b| {
        b.iter(|| reconstruct_b_frame(black_box(&info), &refs, W, H, MB, &cfg).expect("anchors"))
    });
    c.bench_function("mask/reconstruct_854x480_reference", |b| {
        b.iter(|| {
            recon::reference::reconstruct_b_frame(black_box(&info), &refs, W, H, MB, &cfg)
                .expect("anchors")
        })
    });

    let plane = reconstruct_b_frame(&info, &refs, W, H, MB, &cfg).expect("anchors");
    c.bench_function("mask/plane_to_mask_854x480_packed", |b| {
        b.iter(|| plane_to_mask(black_box(&plane), &cfg))
    });
    c.bench_function("mask/plane_to_mask_854x480_reference", |b| {
        b.iter(|| recon::reference::plane_to_mask(black_box(&plane), &cfg))
    });

    let (pred_bytes, gt_bytes) = (pred.to_byte_vec(), gt.to_byte_vec());
    c.bench_function("mask/tally_854x480_packed", |b| {
        b.iter(|| PixelCounts::tally(black_box(&pred), &gt))
    });
    c.bench_function("mask/tally_854x480_reference", |b| {
        b.iter(|| tally_reference::tally_bytes(black_box(&pred_bytes), &gt_bytes))
    });
}

/// Deployment-resolution feature warp: every 16-px block of an 854×480
/// frame resampled from two reference feature maps with word-straddling
/// pixel MVs — the per-B-frame cost of the feature-propagation baseline.
fn bench_featwarp(c: &mut Criterion) {
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
    let mut out = FeatureMap::zeros(W, H, FEATURE_STRIDE, FEATURE_CHANNELS);
    c.bench_function("featwarp/warp_854x480", |bch| {
        bch.iter(|| {
            warp_frame(black_box(&mut out), true);
        })
    });
    c.bench_function("featwarp/warp_854x480_reference", |bch| {
        bch.iter(|| {
            warp_frame(black_box(&mut out), false);
        })
    });
}

fn bench_nns(c: &mut Criterion) {
    let mut nns = NnS::new(8, 42);
    let input = Tensor::zeros(3, 48, 64);
    c.bench_function("nns/infer_64x48", |b| {
        b.iter(|| nns.infer(black_box(&input)))
    });
    let target = Tensor::zeros(1, 48, 64);
    c.bench_function("nns/train_step_64x48", |b| {
        b.iter(|| {
            nns.zero_grad();
            let loss = nns.train_step(black_box(&input), &target);
            nns.apply_grads(0.1, 0.9, 1);
            loss
        })
    });
    // The paper's deployment resolution: one full NN-S refinement over an
    // 854×480 sandwich. This is the per-B-frame cost the real-time claim
    // rests on (ISSUE acceptance: ≥3× faster than the naive kernels).
    let hd = Tensor::zeros(3, 480, 854);
    c.bench_function("nns/infer_854x480", |b| {
        b.iter(|| nns.infer(black_box(&hd)))
    });
}

fn bench_conv(c: &mut Criterion) {
    // Optimised vs naive-reference kernels at NN-S conv1's shape, and the
    // training forward (input clone cached) vs the inference forward.
    let mut conv = Conv2d::new(3, 8, 3, 7);
    let x = Tensor::zeros(3, 48, 64);
    c.bench_function("conv/forward_training_64x48", |b| {
        b.iter(|| conv.forward(black_box(&x)))
    });
    c.bench_function("conv/forward_inference_64x48", |b| {
        b.iter(|| conv.forward_inference(black_box(&x)))
    });
    c.bench_function("conv/forward_reference_64x48", |b| {
        b.iter(|| conv_reference::forward(black_box(&conv), &x))
    });
    let gout = conv.forward(&x);
    c.bench_function("conv/backward_64x48", |b| {
        b.iter(|| {
            conv.zero_grad();
            conv.backward(black_box(&gout))
        })
    });
    c.bench_function("conv/backward_reference_64x48", |b| {
        b.iter(|| conv_reference::backward(black_box(&conv), &x, &gout))
    });

    // The three NN-S layers at the e2e benchmark's HD shape on one thread —
    // the same rows `perf_snapshot` writes to BENCH_nn.json.
    for (name, cin, cout, h, w) in NNS_HD_LAYERS {
        let (conv, x) = conv_fixture(cin, cout, h, w);
        vrd_runtime::with_thread_budget(1, || {
            c.bench_function(&format!("conv/{name}"), |b| {
                b.iter(|| conv.forward_inference(black_box(&x)))
            });
            c.bench_function(&format!("conv/{name}_reference"), |b| {
                b.iter(|| conv_reference::forward(black_box(&conv), &x))
            });
        });
    }
}

/// Deployment-resolution quantized kernels vs their pinned f32
/// counterparts: one fused 8→8 conv layer and the full NN-S refinement
/// (ISSUE acceptance: int8 NN-S ≥3× over the f32 path at 854×480).
fn bench_quant(c: &mut Criterion) {
    const W: usize = 854;
    const H: usize = 480;
    let mut nns = NnS::new(8, 42);
    let hd = Tensor::from_vec(
        3,
        H,
        W,
        (0..3 * H * W).map(|v| (v % 97) as f32 / 96.0).collect(),
    );
    nns.calibrate(&[&hd]);
    let q = nns.quantize();
    c.bench_function("nns/infer_int8_854x480", |b| {
        b.iter(|| q.infer(black_box(&hd)))
    });

    let conv = Conv2d::new(8, 8, 3, 7);
    let xf = Tensor::from_vec(
        8,
        H,
        W,
        (0..8 * H * W).map(|v| (v % 97) as f32 / 96.0).collect(),
    );
    c.bench_function("conv/forward_854x480", |b| {
        b.iter(|| conv.forward_inference(black_box(&xf)))
    });
    let qconv = QuantConv2d::from_conv(&conv);
    let xq: Vec<u8> = xf
        .as_slice()
        .iter()
        .map(|&v| (v * 127.0 + 0.5) as u8)
        .collect();
    let rq = vec![Requant::from_real(0.01, 0); 8];
    let mut out = vec![0u8; 8 * H * W];
    c.bench_function("conv/forward_int8_854x480", |b| {
        b.iter(|| qconv.forward_requant(black_box(&xq), H, W, &rq, &mut out))
    });
}

fn bench_agent(c: &mut Criterion) {
    let (rec, _) = recognition_fixture();
    let info = rec.b_frames.first().expect("stream has B-frames");
    for (label, coalesce) in [("coalesced", true), ("scattered", false)] {
        c.bench_function(&format!("agent/reconstruct_{label}"), |b| {
            b.iter(|| {
                let mut dram = Dram::new(DramConfig::default());
                agent::reconstruct(
                    black_box(&info.mvs),
                    rec.width,
                    rec.height,
                    rec.mb_size,
                    coalesce,
                    &AgentConfig::default(),
                    &mut dram,
                    0.0,
                )
            })
        });
    }
}

fn bench_flow_and_oracle(c: &mut Criterion) {
    let seq = davis_sequence("libby", &SuiteConfig::tiny()).expect("sequence generates");
    c.bench_function("flow/estimate_64x48", |b| {
        b.iter(|| {
            estimate(
                black_box(&seq.frames[1]),
                &seq.frames[0],
                &FlowConfig::default(),
            )
        })
    });
    let nnl = LargeNet::new(LargeNetProfile::favos());
    c.bench_function("largenet/segment_64x48", |b| {
        b.iter(|| nnl.segment(black_box(&seq.gt_masks[0]), 7))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_codec, bench_reconstruction, bench_packed_masks, bench_featwarp, bench_nns, bench_conv, bench_quant, bench_agent, bench_flow_and_oracle
}
criterion_main!(benches);
