//! Property-based tests of the core invariants, spanning the geometry,
//! codec, reconstruction and metrics layers.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vr_dann::{extract_components, reconstruct_b_frame, ReconConfig};
use vrd_codec::decoder::BFrameInfo;
use vrd_codec::{
    CodecConfig, Decoder, Encoder, FrameSource, MvRecord, RefMv, StrictFrameSource, UnitPayload,
};
use vrd_metrics::{average_precision, FrameDetections, PixelCounts};
use vrd_video::{Detection, Frame, Rect, Seg2, SegMask};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0i32..40, 0i32..40, 1i32..24, 1i32..24).prop_map(|(x, y, w, h)| Rect::from_size(x, y, w, h))
}

proptest! {
    #[test]
    fn rect_iou_is_symmetric_and_bounded(a in arb_rect(), b in arb_rect()) {
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rect_union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert_eq!(u.intersect(&a), a);
        prop_assert_eq!(u.intersect(&b), b);
        prop_assert!(u.area() >= a.area().max(b.area()));
    }

    #[test]
    fn seg2_mean_filter_is_commutative(a in 0u8..2, b in 0u8..2) {
        prop_assert_eq!(Seg2::from_bits(a, b), Seg2::from_bits(b, a));
        // Agreement yields the shared value; disagreement yields gray.
        if a == b {
            prop_assert_ne!(Seg2::from_bits(a, b), Seg2::Gray);
        } else {
            prop_assert_eq!(Seg2::from_bits(a, b), Seg2::Gray);
        }
    }

    #[test]
    fn pixel_counts_iou_never_exceeds_fscore(seed in 0u64..1000) {
        // IoU <= F-score is a classic identity (F = 2*IoU / (1 + IoU)).
        let mut pred = SegMask::new(16, 16);
        let mut gt = SegMask::new(16, 16);
        for i in 0..256usize {
            let h = vrd_video::texture::hash2(i as i64, 0, seed);
            if h & 1 == 1 { pred.set(i % 16, i / 16, 1); }
            if h & 2 == 2 { gt.set(i % 16, i / 16, 1); }
        }
        let c = PixelCounts::tally(&pred, &gt);
        prop_assert!(c.iou() <= c.f_score() + 1e-12);
        let expected_f = 2.0 * c.iou() / (1.0 + c.iou());
        prop_assert!((c.f_score() - expected_f).abs() < 1e-9);
    }

    #[test]
    fn average_precision_is_bounded(n_det in 0usize..6, n_gt in 0usize..4, seed in 0u64..500) {
        let h = |i: i64, s: i64| vrd_video::texture::hash2(i, s, seed);
        let detections = (0..n_det)
            .map(|i| Detection::new(
                Rect::from_size((h(i as i64, 1) % 30) as i32, (h(i as i64, 2) % 30) as i32, 8, 8),
                (h(i as i64, 3) % 100) as f32 / 100.0,
            ))
            .collect();
        let ground_truth = (0..n_gt)
            .map(|i| Rect::from_size((h(i as i64, 4) % 30) as i32, (h(i as i64, 5) % 30) as i32, 8, 8))
            .collect();
        let ap = average_precision(&[FrameDetections { detections, ground_truth }]);
        prop_assert!((0.0..=1.0).contains(&ap), "ap = {ap}");
    }

    #[test]
    fn components_of_disjoint_boxes_roundtrip(
        x1 in 0i32..10, y1 in 0i32..10, x2 in 24i32..34, y2 in 24i32..34,
        w in 3i32..8, h in 3i32..8,
    ) {
        let a = Rect::from_size(x1, y1, w, h);
        let b = Rect::from_size(x2, y2, w, h);
        let mask = vr_dann::boxes_to_mask(&[a, b], 48, 48);
        let dets = extract_components(&mask, 1);
        prop_assert_eq!(dets.len(), 2);
        let rects: Vec<Rect> = dets.iter().map(|d| d.rect).collect();
        prop_assert!(rects.contains(&a));
        prop_assert!(rects.contains(&b));
    }

    #[test]
    fn identity_motion_vectors_reproduce_the_reference(seed in 0u64..200) {
        // A B-frame whose every block points at the co-located block of one
        // reference must reconstruct exactly that reference's segmentation.
        let (w, h, mb) = (32usize, 16usize, 8usize);
        let mut reference = SegMask::new(w, h);
        for i in 0..w * h {
            if vrd_video::texture::hash2(i as i64, 9, seed) & 1 == 1 {
                reference.set(i % w, i / w, 1);
            }
        }
        let mvs: Vec<MvRecord> = (0..h).step_by(mb).flat_map(|y| {
            (0..w).step_by(mb).map(move |x| MvRecord {
                dst_x: x as u32,
                dst_y: y as u32,
                ref0: RefMv { frame: 0, src_x: x as i32, src_y: y as i32 },
                ref1: None,
            })
        }).collect();
        let info = BFrameInfo { display_idx: 1, mvs, intra_blocks: vec![] };
        let mut refs = BTreeMap::new();
        refs.insert(0u32, reference.clone());
        let plane = reconstruct_b_frame(&info, &refs, w, h, mb, &ReconConfig::default()).unwrap();
        prop_assert_eq!(plane.to_mask(false), reference);
    }
}

/// Random-ish frame built from the deterministic hash (proptest shrinks the
/// seed, not the pixels, keeping cases reproducible).
fn hash_frame(w: usize, h: usize, seed: u64) -> Frame {
    Frame::from_vec(
        w,
        h,
        (0..w * h)
            .map(|i| (vrd_video::texture::hash2(i as i64, 77, seed) % 256) as u8)
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn codec_roundtrip_on_noise_frames(seed in 0u64..100, n_frames in 2usize..6) {
        // Pure-noise video is the codec's worst case: it must still decode
        // to high fidelity (bounded only by the quantiser).
        let frames: Vec<Frame> = (0..n_frames).map(|i| hash_frame(32, 16, seed ^ (i as u64) << 32)).collect();
        let encoded = Encoder::new(CodecConfig::default()).encode(&frames).unwrap();
        let decoded = Decoder::new().decode(&encoded.bitstream).unwrap();
        prop_assert_eq!(decoded.frames.len(), frames.len());
        for (orig, rec) in frames.iter().zip(&decoded.frames) {
            let max_err = orig.as_slice().iter().zip(rec.as_slice())
                .map(|(&a, &b)| (a as i32 - b as i32).abs())
                .max().unwrap();
            // Quantiser 8: reconstruction error is bounded by q/2 + rounding.
            prop_assert!(max_err <= 8, "max error {max_err}");
        }
        // Recognition mode sees the same anchors as the full decode.
        let mut source = StrictFrameSource::new(&encoded.bitstream).unwrap();
        while let Some(unit) = source.next_unit() {
            if let UnitPayload::Anchor { display, frame } = unit.unwrap().payload {
                prop_assert_eq!(&*frame, &decoded.frames[display as usize]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corruption robustness: flipping any byte of a valid stream must make
    /// the decoder either return a clean error or decode successfully (some
    /// corruptions only perturb residual values) — never panic, hang or
    /// overrun.
    #[test]
    fn corrupt_bitstreams_never_panic(seed in 0u64..20, victim in 0usize..10_000) {
        let frames: Vec<Frame> = (0..3).map(|i| hash_frame(16, 16, seed ^ (i as u64) << 17)).collect();
        let encoded = Encoder::new(CodecConfig::default()).encode(&frames).unwrap();
        let mut bytes = encoded.bitstream.to_vec();
        let idx = victim % bytes.len();
        bytes[idx] ^= 0x5a;
        let corrupted = bytes::Bytes::from(bytes);
        let decoder = Decoder::new();
        let decoded = decoder.decode(&corrupted).is_ok();
        let streamed = StrictFrameSource::new(&corrupted).and_then(|mut src| {
            std::iter::from_fn(|| src.next_unit()).collect::<Result<Vec<_>, _>>()
        });
        let inspected = decoder.inspect(&corrupted);
        // Readers agree on what is malformed: full decode validates most,
        // `inspect` least, all over the same record reader.
        prop_assert!(
            !decoded || streamed.is_ok(),
            "decode accepts what the strict source rejects: {:?}",
            streamed.err()
        );
        prop_assert!(
            streamed.is_err() || inspected.is_ok(),
            "the strict source accepts what inspect rejects: {:?}",
            inspected.err()
        );
    }
}
