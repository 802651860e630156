//! The sigmoid's one f32 cut-over at one half: `sigmoid(z) > 0.5 ⇔
//! z > sigmoid_cut()`, with the sigmoid as `layers::sigmoid_in_place`
//! computes it, for every f32 within 2²² ulps of the cut and at the
//! specials. The engine thresholds NN-S logits at the cut instead of
//! running the sigmoid, so its masks rest on this equivalence being exact.

use vrd_nn::layers::{sigmoid_cut, sigmoid_in_place};

/// `sigmoid(z) > 0.5` for each `z`, through the slice kernel.
fn above_half(zs: &[f32]) -> Vec<bool> {
    let mut p = zs.to_vec();
    sigmoid_in_place(&mut p);
    p.iter().map(|&v| v > 0.5).collect()
}

#[test]
fn the_cut_is_where_the_sigmoid_crosses_one_half() {
    // Bisection over the bit patterns of [0, 1], which order like the
    // floats they encode: sigmoid(0) is exactly one half, sigmoid(1) above.
    let above = |bits: u32| above_half(&[f32::from_bits(bits)])[0];
    let (mut lo, mut hi) = (0.0f32.to_bits(), 1.0f32.to_bits());
    assert!(!above(lo) && above(hi));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if above(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let cut = sigmoid_cut();
    assert_eq!(
        cut.to_bits(),
        lo,
        "cut {cut:e}, bisection {:e}",
        f32::from_bits(lo)
    );
    // Not zero: the sigmoid rounds to exactly one half for tiny positive z.
    assert!(cut > 0.0);

    let span = 1u32 << 22;
    assert!(lo > span, "the neighbourhood stays among positive floats");
    let mut start = lo - span;
    while start <= lo + span {
        let end = (start + (1 << 16)).min(lo + span + 1);
        let zs: Vec<f32> = (start..end).map(f32::from_bits).collect();
        for (&z, above) in zs.iter().zip(above_half(&zs)) {
            assert_eq!(z > cut, above, "z = {z:e} ({:#x})", z.to_bits());
        }
        start = end;
    }

    let tiny = f32::from_bits(1);
    let specials = [
        0.0,
        -0.0,
        tiny,
        -tiny,
        f32::MAX,
        -f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    for (&z, above) in specials.iter().zip(above_half(&specials)) {
        assert_eq!(z > cut, above, "z = {z}");
    }
}
