//! Property tests pinning the quantized conv kernels to the naive `i32`
//! reference: the dispatched banded kernel (the fastest body the CPU has)
//! and every body the CPU has, run through `quant::reference`, must be
//! **bit-exact** with the triple-loop reference — integer accumulation makes
//! this an equality, not a tolerance. Shapes sweep every output-channel
//! count the 4-channel tiles split differently (1, 2, 3, 5, 8, 9), 1–16
//! input channels, 1×1 and 3×3 kernels, heights 1–9 and widths 1–70, so
//! the padding edges, whole and ragged 16-pixel blocks and rows narrower
//! than one block are all exercised, on one and two row bands; activations
//! span the kernels' whole 7-bit input range, `[0, 127]`.

use proptest::prelude::*;
use vrd_nn::quant::{self, Body, QuantConv2d, Requant};

/// Output-channel counts: below, at, between and above whole channel tiles.
const COUTS: [usize; 6] = [1, 2, 3, 5, 8, 9];

/// Deterministic f32 weights spanning both signs, derived from a seed.
fn fill_weights(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as f32 + 1.0) * (seed % 97 + 1) as f32;
            (x * 0.618_034).sin() * 4.0
        })
        .collect()
}

/// Deterministic `u8` activations over the kernels' whole input range,
/// `[0, 127]`, derived from a seed.
fn fill_acts(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (vrd_video::texture::hash2(i as i64, 3, seed) % 128) as u8)
        .collect()
}

/// Every body this CPU has; each one it lacks is skipped with a note.
fn bodies() -> Vec<Body> {
    let (have, lack): (Vec<Body>, Vec<Body>) = Body::ALL.into_iter().partition(|b| b.available());
    for body in lack {
        eprintln!(
            "note: this CPU lacks the {} int8 body; not checked",
            body.name()
        );
    }
    have
}

/// A random case: `(cin, cout, k, h, w)`.
fn arb_shape() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    (
        1usize..17,
        0usize..COUTS.len(),
        0usize..2,
        1usize..10,
        1usize..71,
    )
        .prop_map(|(cin, c, ksel, h, w)| (cin, COUTS[c], if ksel == 0 { 1 } else { 3 }, h, w))
}

/// Builds the conv and input of one case.
fn build_case(
    (cin, cout, k, h, w): (usize, usize, usize, usize, usize),
    seed: u64,
) -> (QuantConv2d, usize, usize, Vec<u8>) {
    let weights = fill_weights(cout * cin * k * k, seed);
    let conv = QuantConv2d::from_weights(cin, cout, k, &weights);
    let x = fill_acts(cin * h * w, seed ^ 0xace5);
    (conv, h, w, x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Dispatched forward (SIMD when available) == naive reference,
    // bit-exact, on one and two row bands.
    #[test]
    fn dispatched_forward_matches_reference(
        shape in arb_shape(),
        seed in 0u64..1_000_000,
        threads in 1usize..3,
    ) {
        let (conv, h, w, x) = build_case(shape, seed);
        let mut fast = vec![0i32; conv.cout() * h * w];
        conv.forward_i32_with(&x, h, w, &mut fast, threads).unwrap();
        let naive = quant::reference::forward_i32(&conv, &x, h, w);
        prop_assert_eq!(fast, naive);
    }

    // Every body == naive reference, bit-exact — pinned explicitly so a
    // machine that dispatches to one body still covers the others it has.
    #[test]
    fn every_body_matches_reference(
        shape in arb_shape(),
        seed in 0u64..1_000_000,
        threads in 1usize..3,
    ) {
        let (conv, h, w, x) = build_case(shape, seed);
        let naive = quant::reference::forward_i32(&conv, &x, h, w);
        for body in bodies() {
            let on = quant::reference::forward_i32_on(body, &conv, &x, h, w, threads).unwrap();
            prop_assert_eq!(&on, &naive, "{:?}", body);
        }
    }

    // Fused requantization == reference accumulate-then-requantize, for
    // every body. With `odd` at 1, every other channel's multiplier is
    // far past `Requant::vector_safe`'s range; at 2, every other channel
    // carries a hand-built negative multiplier, which maps negative sums
    // to positive outputs. Either way the vector store must hand those
    // channels to the scalar definition.
    #[test]
    fn requantized_forward_matches_reference(
        shape in arb_shape(),
        seed in 0u64..1_000_000,
        m in 1e-6f64..1.0,
        bias in -1000i32..1000,
        odd in 0usize..3,
        threads in 1usize..3,
    ) {
        let (conv, h, w, x) = build_case(shape, seed);
        let rq: Vec<Requant> = (0..conv.cout())
            .map(|co| {
                let scale = if odd == 1 && co % 2 == 0 { 1e8 } else { (co + 1) as f64 };
                let rq = Requant::from_real(m * scale, bias + co as i32);
                if odd == 2 && co % 2 == 0 {
                    Requant { mult: -rq.mult, ..rq }
                } else {
                    rq
                }
            })
            .collect();
        let naive = quant::reference::forward_requant(&conv, &x, h, w, &rq);
        let mut fast = vec![0u8; conv.cout() * h * w];
        conv.forward_requant_with(&x, h, w, &rq, &mut fast, threads).unwrap();
        prop_assert_eq!(&fast, &naive);
        for body in bodies() {
            let on = quant::reference::forward_requant_on(body, &conv, &x, h, w, &rq, threads);
            prop_assert_eq!(&on.unwrap(), &naive, "{:?}", body);
        }
    }

    // Requantization saturates instead of wrapping at accumulator extremes
    // and agrees with a direct f64 evaluation everywhere.
    #[test]
    fn requant_saturates_and_rounds(
        m in 1e-9f64..100.0,
        bias in (i32::MIN / 2)..(i32::MAX / 2),
        acc in i32::MIN..i32::MAX,
    ) {
        let rq = Requant::from_real(m, bias);
        let got = rq.apply(acc) as i64;
        prop_assert!((0..=127).contains(&got));
        // The fixed-point decomposition carries 31 significant bits; allow
        // one ULP of the exact real-arithmetic result.
        let exact = ((acc as f64 + bias as f64) * m).round().clamp(0.0, 127.0) as i64;
        prop_assert!(
            (got - exact).abs() <= 1,
            "m={} bias={} acc={}: fixed-point {} vs exact {}",
            m, bias, acc, got, exact
        );
    }
}

/// Deterministic edge shapes the random sweep may never land on: widths
/// exactly at and around the 16-pixel block boundary with 3×3 padding,
/// every output-channel count, one and two row bands, every body.
#[test]
fn simd_block_boundary_widths() {
    let cin = 3;
    for cout in COUTS {
        let conv = QuantConv2d::from_weights(cin, cout, 3, &fill_weights(cin * cout * 9, 31));
        for wid in [2usize, 16, 17, 18, 20, 33, 34, 36, 48, 50] {
            let h = 6;
            let x = fill_acts(cin * h * wid, wid as u64);
            let naive = quant::reference::forward_i32(&conv, &x, h, wid);
            for threads in [1, 2] {
                let mut fast = vec![0i32; cout * h * wid];
                conv.forward_i32_with(&x, h, wid, &mut fast, threads)
                    .unwrap();
                assert_eq!(fast, naive, "cout {cout}, width {wid}, {threads} bands");
                for body in bodies() {
                    let on = quant::reference::forward_i32_on(body, &conv, &x, h, wid, threads);
                    assert_eq!(
                        on.unwrap(),
                        naive,
                        "{body:?}, cout {cout}, width {wid}, {threads} bands"
                    );
                }
            }
        }
    }
}

/// A 1×1 kernel has no padding edges at all — the whole row is interior.
#[test]
fn one_by_one_kernel_is_interior_only() {
    let w = [0.5f32, -1.25, 2.0];
    let conv = QuantConv2d::from_weights(3, 1, 1, &w);
    let (h, wid) = (4, 33);
    let x = fill_acts(3 * h * wid, 9);
    let mut fast = vec![0i32; h * wid];
    conv.forward_i32(&x, h, wid, &mut fast).unwrap();
    assert_eq!(fast, quant::reference::forward_i32(&conv, &x, h, wid));
}

/// Saturating requantization clamps extreme accumulators to the 7-bit
/// range instead of wrapping — both kernels, same values.
#[test]
fn requant_extremes_clamp_in_both_kernels() {
    // One huge positive weight and one huge negative weight per channel
    // drive accumulators far past the representable output range.
    let weights = [1000.0f32, -1000.0];
    let conv = QuantConv2d::from_weights(1, 2, 1, &weights);
    let (h, wid) = (2, 20);
    let x = vec![127u8; h * wid];
    let rq = vec![Requant::from_real(1.0, 0); 2];
    let mut fast = vec![0u8; 2 * h * wid];
    conv.forward_requant(&x, h, wid, &rq, &mut fast).unwrap();
    let naive = quant::reference::forward_requant(&conv, &x, h, wid, &rq);
    assert_eq!(fast, naive);
    assert!(
        fast[..h * wid].iter().all(|&v| v == 127),
        "positive saturates"
    );
    assert!(
        fast[h * wid..].iter().all(|&v| v == 0),
        "negative clamps to 0"
    );
}
