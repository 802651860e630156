//! Property tests pinning the optimised convolution kernels to the naive
//! reference (`vrd_nn::conv::reference`) across random shapes, and the
//! trainer's thread-count invariance.
//!
//! The kernels are designed to be bit-exact (identical per-element
//! accumulation order), so the forward assertions compare `f32::to_bits`:
//! `==` would let `-0.0` pass for `0.0` and could never match a NaN.

use proptest::prelude::*;
use vrd_nn::conv::{reference, Conv2d};
use vrd_nn::layers::{maxpool2_into, relu_in_place, sigmoid_in_place, upsample2_into};
use vrd_nn::{train, NnS, Sample, Tensor};

/// The forward kernel's column-tile width (`TILE_W`, private to `conv.rs`).
/// Only the choice of boundary shapes below depends on it.
const T: usize = 32;

/// Random conv shape: (cin, cout, k, h, w). Narrower than one tile, so the
/// forward kernel runs its scalar edge path throughout.
fn arb_shape() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    (1usize..4, 1usize..5, 0usize..3, 1usize..12, 1usize..14)
        .prop_map(|(cin, cout, khalf, h, w)| (cin, cout, 2 * khalf + 1, h, w))
}

/// Random conv shape wide enough to reach the register tiles, with up to two
/// full tiles, a ragged tail, and channel counts that do not divide evenly.
fn arb_tiled_shape() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    (
        1usize..17,
        1usize..6,
        0usize..3,
        1usize..4,
        T - 2..2 * T + 8,
    )
        .prop_map(|(cin, cout, khalf, h, w)| (cin, cout, 2 * khalf + 1, h, w))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Pseudo-random but deterministic tensor data derived from a seed.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as f32 + 1.0) * (seed % 97 + 1) as f32;
            (x * 0.618_034).sin()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_matches_reference(shape in arb_shape(), seed in 0u64..1_000_000) {
        let (cin, cout, k, h, w) = shape;
        let conv = Conv2d::new(cin, cout, k, seed);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed));
        let naive = bits(&reference::forward(&conv, &x));
        prop_assert_eq!(bits(&conv.forward_inference(&x)), naive);
    }

    #[test]
    fn tiled_forward_matches_reference(shape in arb_tiled_shape(), seed in 0u64..1_000_000) {
        let (cin, cout, k, h, w) = shape;
        let conv = Conv2d::new(cin, cout, k, seed);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed));
        let naive = bits(&reference::forward(&conv, &x));
        prop_assert_eq!(bits(&conv.forward_inference(&x)), &naive[..]);
        prop_assert_eq!(bits(&reference::forward_portable(&conv, &x, 2)), naive);
    }

    #[test]
    fn backward_matches_reference(shape in arb_shape(), seed in 0u64..1_000_000) {
        let (cin, cout, k, h, w) = shape;
        let conv = Conv2d::new(cin, cout, k, seed);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed));
        let gout = Tensor::from_vec(cout, h, w, fill(cout * h * w, seed ^ 0xabcd));
        let (mut gw, mut gb) = (vec![0.0; conv.weights().len()], vec![0.0; cout]);
        let gin = conv.backward(&x, &gout, &mut gw, &mut gb);
        let (gin_ref, gw_ref, gb_ref) = reference::backward(&conv, &x, &gout);
        prop_assert_eq!(gin.as_slice(), gin_ref.as_slice());
        prop_assert_eq!(gw, gw_ref);
        prop_assert_eq!(gb, gb_ref);
    }

    #[test]
    fn backward_handles_zero_heavy_gradients(
        shape in arb_shape(),
        seed in 0u64..1_000_000,
        keep_every in 2usize..8,
    ) {
        // Gradients arriving through ReLU masks are mostly zero; the
        // optimised backward keeps a row-granular sparse fast path. Pin
        // that it never changes the result — including fully-zero inputs.
        let (cin, cout, k, h, w) = shape;
        let conv = Conv2d::new(cin, cout, k, seed);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed));
        let mut g = fill(cout * h * w, seed ^ 0x5eed);
        for (i, v) in g.iter_mut().enumerate() {
            if i % keep_every != 0 {
                *v = 0.0;
            }
        }
        // Zero out whole rows too, so the row-skip path is exercised.
        for row in g.chunks_mut(w).step_by(2) {
            row.fill(0.0);
        }
        let gout = Tensor::from_vec(cout, h, w, g);
        let (mut gw, mut gb) = (vec![0.0; conv.weights().len()], vec![0.0; cout]);
        let gin = conv.backward(&x, &gout, &mut gw, &mut gb);
        let (gin_ref, gw_ref, gb_ref) = reference::backward(&conv, &x, &gout);
        prop_assert_eq!(gin.as_slice(), gin_ref.as_slice());
        prop_assert_eq!(gw, gw_ref);
        prop_assert_eq!(gb, gb_ref);
    }
}

/// Every width that puts a tile boundary somewhere new — one short of a
/// tile, exactly one, a ragged tail of one column, the narrowest width that
/// tiles at all for this `pad`, and either side of two tiles — at heights
/// where every row is a top or bottom edge row, with channel counts that
/// leave a partial channel block. Dispatched kernel, portable kernel and
/// reference must agree to the bit.
#[test]
fn forward_is_bit_exact_across_tile_boundaries() {
    for k in [1usize, 3, 5] {
        let pad = k / 2;
        let widths = [
            T - 1,
            T,
            T + 1,
            T + 2 * pad - 1,
            T + 2 * pad,
            T + 2 * pad + 1,
            2 * T - 1,
            2 * T + 1,
            2 * T + 2 * pad,
        ];
        for (cin, cout) in [(1usize, 1usize), (3, 5), (16, 3), (2, 4)] {
            let conv = Conv2d::new(cin, cout, k, (k * 100 + cin) as u64);
            for h in [1usize, 2, 3] {
                for w in widths {
                    let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, (w + h) as u64));
                    let naive = bits(&reference::forward(&conv, &x));
                    let shape = (cin, cout, k, h, w);
                    assert_eq!(bits(&conv.forward_inference(&x)), naive, "{shape:?}");
                    assert_eq!(
                        bits(&reference::forward_portable(&conv, &x, 1)),
                        naive,
                        "portable {shape:?}"
                    );
                }
            }
        }
    }
}

/// The sign of a zero survives: with a `-0.0` bias and an all-zero input the
/// result is `-0.0` exactly where every in-range tap has a negative weight.
/// Only the top-left tap is positive here, so the first row and column (where
/// it falls outside the frame) stay `-0.0` and the interior turns `+0.0`; a
/// kernel that padded with zeros instead of skipping would flip the edges.
#[test]
fn forward_keeps_signed_zeros() {
    let (cin, cout, k, h, w) = (2, 3, 3, 4, T + 5);
    let mut weights = vec![-1.0f32; cout * cin * k * k];
    for tap in weights.chunks_mut(k * k) {
        tap[0] = 1.0;
    }
    let conv = Conv2d::from_params(cin, cout, k, weights, vec![-0.0; cout]).unwrap();
    for zero in [0.0f32, -0.0] {
        let x = Tensor::from_vec(cin, h, w, vec![zero; cin * h * w]);
        let naive = reference::forward(&conv, &x);
        assert_eq!(bits(&conv.forward_inference(&x)), bits(&naive));
        assert_eq!(
            bits(&reference::forward_portable(&conv, &x, 1)),
            bits(&naive)
        );
    }
    let y = conv.forward_inference(&Tensor::zeros(cin, h, w));
    assert_eq!(y.get(0, 0, 7).to_bits(), (-0.0f32).to_bits());
    assert_eq!(y.get(0, 2, 0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(y.get(0, 2, 7).to_bits(), 0.0f32.to_bits());
}

/// The row-band split never changes a bit, including with more bands than
/// rows.
#[test]
fn forward_is_thread_count_invariant() {
    for (cin, cout, h, w) in [(3usize, 5usize, 7usize, 2 * T + 1), (16, 1, 3, T + 3)] {
        let conv = Conv2d::new(cin, cout, 3, 17);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, 5));
        let naive = bits(&reference::forward(&conv, &x));
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                bits(&conv.forward_inference_with(&x, threads)),
                naive,
                "{threads} threads"
            );
            assert_eq!(
                bits(&reference::forward_portable(&conv, &x, threads)),
                naive,
                "portable, {threads} threads"
            );
        }
    }
}

/// `NnS::infer` — which is also the forward pass training differentiates —
/// fuses ReLU into the conv store and lets conv1 write into the
/// concatenation buffer. Pin it to the same graph run as separate layers
/// over the naive reference convolution, at a shape whose last tile is
/// ragged at both resolutions, with a hidden width that leaves a partial
/// channel block.
#[test]
fn nns_infer_matches_separate_layers_on_a_ragged_shape() {
    let (h, w, hid) = (38, 70, 5);
    let nns = NnS::new(hid, 31);
    let (c1, c2, c3) = nns.convs();
    let x = Tensor::from_vec(3, h, w, fill(3 * h * w, 9));
    let mut a1 = reference::forward(c1, &x);
    relu_in_place(a1.as_mut_slice());
    let mut d = Tensor::zeros(hid, h / 2, w / 2);
    maxpool2_into(a1.as_slice(), hid, h, w, d.as_mut_slice(), f32::max);
    let mut a2 = reference::forward(c2, &d);
    relu_in_place(a2.as_mut_slice());
    let mut cat = Tensor::zeros(2 * hid, h, w);
    let (first, second) = cat.as_mut_slice().split_at_mut(hid * h * w);
    first.copy_from_slice(a1.as_slice());
    upsample2_into(a2.as_slice(), hid, h / 2, w / 2, second);
    let mut layered = reference::forward(c3, &cat);
    sigmoid_in_place(layered.as_mut_slice());
    assert_eq!(bits(&nns.infer(&x)), bits(&layered));
}

/// Small random training corpus for the determinism property.
fn toy_samples(n: usize, seed: u64) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let s = seed.wrapping_add(i as u64);
            Sample {
                input: Tensor::from_vec(3, 8, 8, fill(3 * 64, s)),
                target: Tensor::from_vec(
                    1,
                    8,
                    8,
                    fill(64, s ^ 0xf00d)
                        .iter()
                        .map(|v| f32::from(*v > 0.0))
                        .collect(),
                ),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn train_is_bit_deterministic_across_thread_counts(seed in 0u64..1_000_000) {
        let samples = toy_samples(12, seed);
        let run = |threads: usize| -> (Vec<f32>, Vec<u32>) {
            let mut model = NnS::new(4, seed ^ 0x42);
            let hist = vrd_runtime::with_thread_budget(threads, || train(&mut model, &samples));
            let (c1, c2, c3) = model.convs();
            let bits = [c1, c2, c3]
                .iter()
                .flat_map(|c| c.weights().iter().chain(c.bias()))
                .map(|v| v.to_bits())
                .collect();
            (hist, bits)
        };
        let base = run(1);
        for threads in [2, 4, 7] {
            let other = run(threads);
            prop_assert_eq!(&base.0, &other.0, "loss history differs at {} threads", threads);
            prop_assert_eq!(&base.1, &other.1, "weights differ at {} threads", threads);
        }
    }
}
