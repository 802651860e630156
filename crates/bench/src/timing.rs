//! Shared wall-clock measurement helpers and the kernel fixtures more than
//! one bench target times.
//!
//! Every bench binary that reports a measured time (`perf_snapshot`,
//! `e2e_bench`) goes through this module, so artifacts like
//! `BENCH_nn.json`, `BENCH_quant.json` and `BENCH_e2e.json` are produced
//! by one measurement harness and their numbers are directly comparable.

use std::time::Instant;
use vrd_nn::{Conv2d, Tensor};

/// The three NN-S convolutions at the wall-clock benchmark's HD shape, as
/// `(name, cin, cout, height, width)`; conv2 runs at half resolution. These
/// are the kernel rows whose single-thread times, plus NN-S's element-wise
/// passes, add up to the benchmark's `nn.nns_infer_ms` on `hd_f32`.
pub const NNS_HD_LAYERS: [(&str, usize, usize, usize, usize); 3] = [
    ("conv1_3to8_864x480", 3, 8, 480, 864),
    ("conv2_8to8_432x240", 8, 8, 240, 432),
    ("conv3_16to1_864x480", 16, 1, 480, 864),
];

/// A seeded 3×3 layer of the given shape and a non-trivial input for it.
pub fn conv_fixture(cin: usize, cout: usize, h: usize, w: usize) -> (Conv2d, Tensor) {
    let data = (0..cin * h * w).map(|v| (v as f32 * 0.013).sin()).collect();
    (
        Conv2d::new(cin, cout, 3, 7),
        Tensor::from_vec(cin, h, w, data),
    )
}

/// Median wall-clock seconds of `reps` runs of `f`.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_reps_is_positive_and_finite() {
        let mut n = 0u64;
        let t = time_median(5, || {
            n += 1;
            std::hint::black_box(n);
        });
        assert!(t.is_finite() && t >= 0.0);
        assert_eq!(n, 5);
    }

    #[test]
    fn zero_reps_clamps_to_one_run() {
        let mut ran = false;
        let t = time_median(0, || ran = true);
        assert!(ran && t >= 0.0);
    }
}
