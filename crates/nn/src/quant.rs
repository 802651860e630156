//! Quantized int8 inference path.
//!
//! The paper's NPU is a low-precision MAC array; this module mirrors that
//! with per-layer symmetric int8 quantization of the trained f32 weights:
//!
//! * **weights** — per-output-channel scales `s_w[co] = max|w[co]| / 127`,
//!   quantized to `i8` in `[-127, 127]`;
//! * **activations** — per-tensor scales from calibration
//!   ([`NnS::calibrate`](crate::NnS::calibrate) observes activation ranges
//!   on a calibration set), quantized to *7-bit unsigned* `u8` in
//!   `[0, 127]`. NN-S activations are non-negative by construction (the
//!   sandwich input lives in `[0, 1]`, the hidden layers are ReLU-gated).
//!   Seven bits is the kernels' input contract: the public kernels refuse
//!   a value above 127 with an error naming it, and on the graph's walks
//!   the quantizer and the requantization clamp are what produce every
//!   input. The SIMD body needs it: `vpmaddubsw` sums two `u8 × i8`
//!   products into a saturating `i16`, and 2·127·127 = 32 258 fits where
//!   2·255·127 would not;
//! * **accumulation** — exact `i32` dot products. Integer addition is
//!   associative, so every kernel is **bit-exact** with the naive
//!   [`mod@reference`] kernel (pinned by `tests/quant_equivalence.rs`) — a
//!   stronger guarantee than the f32 path, which had to match accumulation
//!   order;
//! * **requantization** — between layers a TFLite-style fixed-point
//!   multiplier ([`Requant`]) folds `s_in · s_w[co] / s_out` and the bias
//!   into an `i32 × i32 >> shift` round-half-up, clamped to `[0, 127]` —
//!   the clamp *is* the ReLU.
//!
//! [`QuantConv2d`] runs on the f32 kernel's row-band driver
//! (`conv::run_bands`). On a CPU with AVX2 its one SIMD body covers each
//! output row at least 16 pixels wide with 16-pixel blocks, the frame-edge
//! blocks included. Per row, the tap rows `(ci, ky)` are padded with the
//! zero row to a multiple of four, and each group of four is
//! byte-interleaved once into a row buffer with `pad` zero columns on
//! either side, so one `i32` lane holds one pixel's four taps. Each block
//! then computes `CO_TILE` output channels in one pass over the groups: a
//! step multiplies a lane's four `u8` by four `i8` weights packed in one
//! `i32` and adds the sum to the `i32` accumulator, which stays in a `ymm`
//! register across all taps. The step is `vpmaddubsw` → `vpmaddwd`
//! (against ones) → `vpaddd`. A tap off the frame reads the zero margin,
//! which adds exactly nothing to an integer sum, so no column needs a
//! scalar path. The block's epilogue stores the accumulators as they finish:
//! requantized to `u8` (conv1, conv2) or raw `i32` (each conv3 half). A
//! portable body (a per-row tap AXPY, then the same epilogue) runs where
//! AVX2 is absent, and on frames narrower than a block.
//!
//! [`QuantNnS`] wires three [`QuantConv2d`]s into the NN-S topology.
//! The final concat feeding conv3 mixes two activation scales (`a1` and
//! upsampled `a2`), so conv3 is split into two half-convolutions, each
//! run by the same kernel into its own `i32` plane; a scalar pass then
//! dequantizes the two planes separately and sums them in f32 — dot
//! products distribute, so the split is exact. Max-pool and
//! nearest-neighbour upsampling commute with the monotone quantizer and run
//! directly on `u8` planes ([`crate::layers`]). `infer` walks the dense
//! graph; [`QuantNnS::mask`] is `crate::band`'s mask path, the f32 one,
//! with the input codes, the `u8` planes, accumulators and logits and
//! `logits_into` of this graph. Every walk takes its buffers from one
//! recycled scratch struct. A tile's rows are the same byte budget as an
//! f32 tile's, and a row of int8 scratch is about a third of an f32 one,
//! so int8 tiles are about three times as tall.

use crate::band::{
    self, capacity_bytes, roles, stale, CutTable, Graph, Plan, Recycler, RowSpans, SandwichPlanes,
    Scratch,
};
use crate::conv::{auto_threads, run_bands, tiles, Band, Conv2d, Input};
use crate::layers::{maxpool2_u8_span_into, sigmoid_in_place, upsample2_span_into};
use crate::nns::{NnS, SANDWICH_CHANNELS};
use crate::tensor::Tensor;
use std::sync::OnceLock;
use vrd_video::SegMask;

/// Largest quantized activation value (7-bit unsigned; see module docs).
pub(crate) const QMAX: i32 = 127;

/// Largest value a `u8` kernel input may hold: the public kernels refuse
/// a larger one, and the graph's quantizer and requantization clamp never
/// produce one. It keeps `vpmaddubsw`'s pair sums inside `i16` and bounds
/// the vector requantization's range proof.
const ACT_MAX: i64 = QMAX as i64;

/// Output channels per register tile of the SIMD body: four channels'
/// 16-pixel accumulators are eight `ymm`, which leaves room for the two
/// source loads and the weight broadcast.
const CO_TILE: usize = 4;

/// Tap rows per group of the SIMD body: one `i32` lane holds one pixel of
/// four tap rows, one byte each.
const QUAD: usize = 4;

/// Output pixels per block of the SIMD body (two `ymm` of `i32` per
/// channel).
const BLOCK: usize = 16;

/// The scratch of every walk of the quantized graph, one struct per walk
/// in flight (a dense one or one of [`QuantNnS::mask`]'s tiles), recycled
/// across calls. Every kernel writes each element before it is read, so
/// the buffers are stale.
static SCRATCH: Recycler<Scratch<u8, Walk>> = Recycler::new();

/// The buffers one walk of the `u8` graph writes, one per role: `a1`, the
/// pooled `d`, `a2` and the upsampled `a2`, then conv3's two
/// half-accumulator planes, then a mask tile's logits (a dense walk writes
/// its caller's plane).
#[derive(Default)]
pub(crate) struct Walk {
    acts: [Vec<u8>; 4],
    acc: [Vec<i32>; 2],
    logits: Vec<f32>,
}

/// Which compute path the pipeline runs NN-S inference on.
///
/// Threaded from [`VrDannConfig`](../../vr_dann/struct.VrDannConfig.html)
/// through the engine, the serving layer and the bench context. `Int8` is
/// the NPU-faithful path; `F32Reference` stays the pinned reference whose
/// outputs the goldens are byte-identical against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputeMode {
    /// Full-precision f32 inference (the pinned reference path).
    #[default]
    F32Reference,
    /// Symmetric int8 inference with i32 accumulation ([`QuantNnS`]).
    Int8,
}

/// Per-tensor activation scales for NN-S, observed on a calibration set
/// (or conservatively bounded from the weights when none was run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActScales {
    /// Scale of the sandwich input (values in `[0, 1]`).
    pub input: f32,
    /// Scale of the post-ReLU conv1 activation.
    pub a1: f32,
    /// Scale of the post-ReLU conv2 activation.
    pub a2: f32,
}

impl ActScales {
    /// Builds scales from observed maximum activation magnitudes
    /// (`scale = max / 127`, floored away from zero so all-zero
    /// calibration activations stay representable, and capped at the
    /// largest finite value so an overflowing activation still yields a
    /// usable scale).
    pub(crate) fn from_maxes(input: f32, a1: f32, a2: f32) -> Self {
        let s = |m: f32| (m.max(1e-6) / QMAX as f32).min(f32::MAX);
        Self {
            input: s(input),
            a1: s(a1),
            a2: s(a2),
        }
    }

    /// Conservative scales derived purely from the weights: the sandwich
    /// input is bounded by 1.0, and each ReLU layer by the L1 norm of its
    /// worst output channel. Used for models deserialized without
    /// calibration metadata; calibrated scales are tighter.
    pub(crate) fn bound_from_nns(nns: &NnS) -> Self {
        let (c1, c2, _) = nns.convs();
        let layer_bound = |conv: &Conv2d, in_max: f32| -> f32 {
            let per_co = conv.weights().len() / conv.cout();
            conv.weights()
                .chunks(per_co)
                .zip(conv.bias())
                .map(|(w, b)| {
                    let l1: f32 = w.iter().map(|v| v.abs()).sum();
                    l1 * in_max + b.abs()
                })
                .fold(0.0, f32::max)
        };
        let a1_max = layer_bound(c1, 1.0);
        // Max-pool does not change the range.
        let a2_max = layer_bound(c2, a1_max);
        Self::from_maxes(1.0, a1_max, a2_max)
    }

    /// Checks the scales are usable (finite and strictly positive).
    ///
    /// # Errors
    /// Returns a message naming the offending scale.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [("input", self.input), ("a1", self.a1), ("a2", self.a2)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("activation scale {name} = {v} is not usable"));
            }
        }
        Ok(())
    }
}

/// A fixed-point requantization: maps an `i32` accumulator to a `u8`
/// activation via `clamp(round((acc + bias) · mult / 2^shift), 0, 127)`.
///
/// `mult/2^shift` approximates the real multiplier `s_in · s_w / s_out`
/// with 31 significant bits; `bias` is the layer bias pre-scaled into
/// accumulator units. The `[0, 127]` clamp fuses the ReLU, and the
/// round-half-up is computed in `i64` (which the range analysis on
/// [`Requant::apply`] shows is exact) so saturation tests can drive the
/// accumulator to `i32` extremes without overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requant {
    /// Fixed-point mantissa in `[2^30, 2^31)`.
    pub mult: i32,
    /// Right-shift applied after the widening multiply (`1..=62`).
    pub shift: u32,
    /// Bias in accumulator units, added before scaling.
    pub bias: i32,
}

impl Requant {
    /// Decomposes a positive real multiplier into `(mult, shift)` and
    /// attaches a pre-scaled bias.
    ///
    /// # Panics
    /// Panics if `m` is not a finite positive number or is too large to
    /// represent (`m >= 2^30`, far beyond any sane scale ratio).
    pub fn from_real(m: f64, bias: i32) -> Self {
        assert!(
            m.is_finite() && m > 0.0,
            "requant multiplier must be positive, got {m}"
        );
        // Normalise m = mant · 2^exp with mant in [0.5, 1).
        let mut mant = m;
        let mut exp = 0i32;
        while mant >= 1.0 {
            mant *= 0.5;
            exp += 1;
        }
        while mant < 0.5 {
            mant *= 2.0;
            exp -= 1;
        }
        let mut mult = (mant * (1i64 << 31) as f64).round() as i64;
        let mut shift = 31 - exp as i64;
        if mult == 1 << 31 {
            // Rounding carried into the next power of two.
            mult >>= 1;
            shift -= 1;
        }
        while shift > 62 {
            // Vanishingly small multiplier: shed precision rather than
            // shift out of the i128 intermediate.
            mult >>= 1;
            shift -= 1;
            if mult == 0 {
                shift = 1;
                break;
            }
        }
        assert!(shift >= 1, "requant multiplier {m} too large");
        Self {
            mult: mult as i32,
            shift: shift as u32,
            bias,
        }
    }

    /// Applies the requantization to one accumulator value. This function
    /// *is* the definition of saturating requantization: the reference and
    /// portable kernels call it, and the vector store runs only where
    /// `Requant::vector_safe` proves it equal to it.
    ///
    /// All-`i64` and exact: `|acc + bias| < 2^32` and `mult < 2^31`, so the
    /// product fits `i64`, and with arithmetic-shift (floor) semantics
    /// `((v >> (shift−1)) + 1) >> 1` equals the round-half-up
    /// `(v + 2^(shift−1)) >> shift` for every `v` and `shift ∈ [1, 62]`.
    #[inline]
    pub fn apply(&self, acc: i32) -> u8 {
        let v = (acc as i64 + self.bias as i64) * self.mult as i64;
        let r = ((v >> (self.shift - 1)) + 1) >> 1;
        r.clamp(0, QMAX as i64) as u8
    }

    /// Whether the vectorized requantization is exact for every
    /// accumulator with `|acc| ≤ acc_bound`: the multiplier must be
    /// non-negative (the SIMD path clamps the biased sum at zero and
    /// multiplies unsigned), the biased sum must fit `i32` (it is added in
    /// 32-bit lanes) and the rounded product must fit `i32` after the shift
    /// (it truncates 64-bit lanes before the clamp). Callers fall back to
    /// the scalar [`Requant::apply`] loop otherwise.
    pub(crate) fn vector_safe(&self, acc_bound: i64) -> bool {
        if self.mult < 0 {
            return false;
        }
        let s_max = acc_bound + (self.bias as i64).abs();
        if s_max > i32::MAX as i64 {
            return false;
        }
        let v = s_max as i128 * self.mult as i128;
        let r = (v + (1i128 << (self.shift - 1))) >> self.shift;
        // Strict bound so the negative extreme (one larger in magnitude
        // after rounding) stays in range too.
        r < i32::MAX as i128
    }
}

/// A stride-1, same-padded quantized convolution: `i8` weights laid out
/// `[cout][cin][k][k]` (matching [`Conv2d`]) with per-output-channel
/// scales, accumulating `u8` activations into exact `i32` sums.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantConv2d {
    cin: usize,
    cout: usize,
    k: usize,
    wq: Vec<i8>,
    w_scale: Vec<f32>,
    /// `wq` as the SIMD body reads it: per output channel, per group of
    /// [`QUAD`] tap rows `(ci, ky)` in ascending order (the last group
    /// padded with zero rows), per kernel column, one `i32` holding the
    /// group's four `i8` weights in its bytes, lowest row first.
    wquads: Vec<i32>,
}

/// The int8 band bodies. The kernels run [`Body::detected`];
/// [`mod@reference`] runs any one this CPU has, so the equivalence tests reach
/// each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// A per-row tap AXPY: any CPU.
    Portable,
    /// 16-pixel blocks over 4-tap rows, each step `vpmaddubsw`,
    /// `vpmaddwd` and `vpaddd` (AVX2).
    Avx2,
}

impl Body {
    /// Every body, slowest first.
    pub const ALL: [Body; 2] = [Body::Portable, Body::Avx2];

    /// The fastest body this CPU has: the one the kernels run.
    pub fn detected() -> Self {
        static BODY: OnceLock<Body> = OnceLock::new();
        *BODY.get_or_init(|| {
            let mut have = Self::ALL.into_iter().filter(|b| b.available());
            have.next_back().unwrap_or(Body::Portable)
        })
    }

    /// Whether this CPU can run the body.
    pub fn available(self) -> bool {
        match self {
            Body::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => avx2_enabled(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The body's name, as `BENCH_kernels.json` records it.
    pub fn name(self) -> &'static str {
        match self {
            Body::Portable => "portable",
            Body::Avx2 => "avx2",
        }
    }

    /// Runs one band of output rows on this body.
    ///
    /// # Panics
    /// Panics unless the body is [`available`](Body::available).
    fn band<S: Store>(
        self,
        conv: &QuantConv2d,
        x: Input<'_, u8>,
        cols: &RowSpans,
        band: Band<'_, S::Out>,
        sink: &S,
    ) {
        assert!(self.available(), "this CPU lacks the {} body", self.name());
        match self {
            Body::Portable => band_portable(conv, x, cols, band, sink),
            // SAFETY: the CPU has the body's features, asserted above.
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => unsafe { band_avx2(conv, x, cols, band, sink) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the portable body is available"),
        }
    }
}

/// Checks the kernels' 7-bit input contract: every value at most [`QMAX`].
///
/// # Errors
/// Names the first value above it and its index.
fn check_input(x: &[u8]) -> Result<(), String> {
    // An OR over the slice vectorizes; the search runs only on a refusal.
    if x.iter().fold(0, |a, &v| a | v) <= QMAX as u8 {
        return Ok(());
    }
    let i = x.iter().position(|&v| i32::from(v) > QMAX).unwrap_or(0);
    Err(format!(
        "int8 kernel input value {} at index {i} is above {QMAX}",
        x[i]
    ))
}

impl QuantConv2d {
    /// Quantizes an f32 weight tensor (`[cout][cin][k][k]`) with symmetric
    /// per-output-channel scales.
    ///
    /// # Panics
    /// Panics on zero dimensions, an even kernel, or a length mismatch.
    pub fn from_weights(cin: usize, cout: usize, k: usize, w: &[f32]) -> Self {
        assert!(cin > 0 && cout > 0 && k > 0, "conv dims must be non-zero");
        assert!(k % 2 == 1, "same-padded convolution needs an odd kernel");
        assert_eq!(w.len(), cout * cin * k * k, "weight length mismatch");
        let per_co = cin * k * k;
        let mut wq = Vec::with_capacity(w.len());
        let mut w_scale = Vec::with_capacity(cout);
        for co in 0..cout {
            let block = &w[co * per_co..][..per_co];
            let max = block.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = (max / QMAX as f32).max(1e-12);
            w_scale.push(scale);
            wq.extend(
                block
                    .iter()
                    .map(|&v| (v / scale).round().clamp(-(QMAX as f32), QMAX as f32) as i8),
            );
        }
        let wquads = quad_taps(&wq, cin * k, k);
        Self {
            cin,
            cout,
            k,
            wq,
            w_scale,
            wquads,
        }
    }

    /// Quantizes a trained [`Conv2d`]'s weights (the bias stays f32 and is
    /// folded into the requantization by the caller).
    pub fn from_conv(conv: &Conv2d) -> Self {
        Self::from_weights(conv.cin(), conv.cout(), conv.kernel_size(), conv.weights())
    }

    /// Input channel count.
    pub fn cin(&self) -> usize {
        self.cin
    }

    /// Output channel count.
    pub fn cout(&self) -> usize {
        self.cout
    }

    /// Kernel size (odd).
    pub(crate) fn kernel_size(&self) -> usize {
        self.k
    }

    /// Per-output-channel weight scales.
    pub(crate) fn w_scale(&self) -> &[f32] {
        &self.w_scale
    }

    /// The quantized weights, `[cout][cin][k][k]`.
    pub fn weights(&self) -> &[i8] {
        &self.wq
    }

    /// Multiply-accumulate operations for one forward pass over `h × w`.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        (self.cin * self.cout * self.k * self.k * h * w) as u64
    }

    /// Forward pass into raw `i32` accumulators (no bias, no
    /// requantization) — the object the equivalence proptests pin against
    /// [`reference::forward_i32`].
    ///
    /// # Errors
    /// Refuses an input value above 127 (the kernels' 7-bit contract),
    /// naming the first one and its index.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn forward_i32(&self, x: &[u8], h: usize, w: usize, out: &mut [i32]) -> Result<(), String> {
        self.forward_i32_with(x, h, w, out, auto_threads(self.macs(h, w)))
    }

    /// [`QuantConv2d::forward_i32`] split into exactly `threads` row bands
    /// whatever the work size (for tests pinning thread-count invariance).
    ///
    /// # Errors
    /// As [`QuantConv2d::forward_i32`].
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn forward_i32_with(
        &self,
        x: &[u8],
        h: usize,
        w: usize,
        out: &mut [i32],
        threads: usize,
    ) -> Result<(), String> {
        self.checked(x, (h, w), out, &Raw, threads, Body::detected())
    }

    /// Forward pass with fused per-channel requantization into `u8`
    /// activations (the clamp to `[0, 127]` applies the ReLU).
    ///
    /// # Errors
    /// As [`QuantConv2d::forward_i32`].
    ///
    /// # Panics
    /// Panics on length mismatches or `rq.len() != cout`.
    pub fn forward_requant(
        &self,
        x: &[u8],
        h: usize,
        w: usize,
        rq: &[Requant],
        out: &mut [u8],
    ) -> Result<(), String> {
        self.forward_requant_with(x, h, w, rq, out, auto_threads(self.macs(h, w)))
    }

    /// [`QuantConv2d::forward_requant`] split into exactly `threads` row
    /// bands whatever the work size.
    ///
    /// # Errors
    /// As [`QuantConv2d::forward_i32`].
    ///
    /// # Panics
    /// Panics on length mismatches or `rq.len() != cout`.
    pub fn forward_requant_with(
        &self,
        x: &[u8],
        h: usize,
        w: usize,
        rq: &[Requant],
        out: &mut [u8],
        threads: usize,
    ) -> Result<(), String> {
        let sink = Requantize::new(self, rq);
        self.checked(x, (h, w), out, &sink, threads, Body::detected())
    }

    /// The public entries' whole-frame pass on `body`, after checking the
    /// 7-bit input contract.
    fn checked<S: Store>(
        &self,
        x: &[u8],
        (h, w): (usize, usize),
        out: &mut [S::Out],
        sink: &S,
        threads: usize,
        body: Body,
    ) -> Result<(), String> {
        check_input(x)?;
        let cols = RowSpans::full(h, w);
        self.forward(Input::new(x, h, w), out, sink, &cols, threads, body);
        Ok(())
    }

    /// The requantizing forward pass on the `cols` columns of `out` only.
    fn requant_into(
        &self,
        x: Input<'_, u8>,
        rq: &[Requant],
        out: &mut [u8],
        cols: &RowSpans,
        threads: usize,
    ) {
        let sink = Requantize::new(self, rq);
        self.forward(x, out, &sink, cols, threads, Body::detected());
    }

    /// Checks the shapes, then runs `body` on `threads` row bands of `out`,
    /// computing its `cols` columns. What they read of the input is within
    /// the 7-bit contract: checked by the public entries, produced by the
    /// quantizer and the requantization clamp on the graph's walks.
    fn forward<S: Store>(
        &self,
        x: Input<'_, u8>,
        out: &mut [S::Out],
        sink: &S,
        cols: &RowSpans,
        threads: usize,
        body: Body,
    ) {
        assert_eq!(
            x.data.len(),
            self.cin * x.h * x.w,
            "conv input length mismatch"
        );
        assert_eq!(
            out.len(),
            self.cout * x.h * x.w,
            "conv output length mismatch"
        );
        assert_eq!(
            (cols.height(), cols.width()),
            (x.h, x.w),
            "conv span plane mismatch"
        );
        debug_assert!(self.reads_are_7_bit(x, cols), "int8 input above {QMAX}");
        run_bands(out, cols, threads, |band| {
            body.band(self, x, cols, band, sink)
        });
    }

    /// Whether every input value the `cols` outputs read is within the
    /// 7-bit contract: on a band walk the rest of each plane is stale.
    fn reads_are_7_bit(&self, x: Input<'_, u8>, cols: &RowSpans) -> bool {
        let pad = self.k / 2;
        (0..x.h).all(|y| {
            let ys = y.saturating_sub(pad)..(y + pad + 1).min(x.h);
            cols.row(y).iter().all(|&(s, e)| {
                let xs = s.saturating_sub(pad)..(e + pad).min(x.w);
                let rows = (0..self.cin).flat_map(|ci| ys.clone().map(move |sy| ci * x.h + sy));
                rows.map(|r| &x.data[r * x.w..][xs.clone()])
                    .all(|src| check_input(src).is_ok())
            })
        })
    }

    /// Fills `rows` with the source row under each tap row `(ci, ky)` of
    /// output row `y`, in ascending order — `zero` where it falls outside
    /// the frame — padded with `zero` to the multiple of [`QUAD`] `wquads`
    /// was packed for.
    fn source_rows<'a>(
        &self,
        x: Input<'a, u8>,
        y: usize,
        zero: &'a [u8],
        rows: &mut Vec<&'a [u8]>,
    ) {
        rows.clear();
        let pad = self.k / 2;
        for ci in 0..self.cin {
            for ky in 0..self.k {
                let sy = (y + ky).checked_sub(pad).filter(|&sy| sy < x.h);
                rows.push(sy.map_or(zero, |sy| &x.data[(ci * x.h + sy) * x.w..][..x.w]));
            }
        }
        while !rows.len().is_multiple_of(QUAD) {
            rows.push(zero);
        }
    }

    /// Channel `co`'s accumulators for output row `y`, tap by tap over
    /// whole rows (`acc[x] += w · src[x + kx − pad]` over the columns whose
    /// tap is in frame) — the portable body's autovectorizable loop.
    fn row(&self, x: Input<'_, u8>, y: usize, co: usize, acc: &mut [i32]) {
        acc.fill(0);
        let (k, pad, w) = (self.k, self.k / 2, x.w);
        for ci in 0..self.cin {
            for ky in pad.saturating_sub(y)..k.min(x.h + pad - y) {
                let src = &x.data[(ci * x.h + y + ky - pad) * w..][..w];
                let wrow = &self.wq[((co * self.cin + ci) * k + ky) * k..][..k];
                for (kx, &wv) in wrow.iter().enumerate() {
                    let x0 = pad.saturating_sub(kx);
                    let x1 = (w + pad).saturating_sub(kx).min(w);
                    if x0 >= x1 {
                        continue;
                    }
                    let src = &src[x0 + kx - pad..][..x1 - x0];
                    for (a, &s) in acc[x0..x1].iter_mut().zip(src) {
                        *a += i32::from(wv) * i32::from(s);
                    }
                }
            }
        }
    }
}

/// Packs `wq` (`rows` tap rows of `k` weights per output channel) into the
/// SIMD body's groups of four: see [`QuantConv2d`]'s `wquads`.
fn quad_taps(wq: &[i8], rows: usize, k: usize) -> Vec<i32> {
    let mut out = Vec::with_capacity(wq.len() + QUAD * k);
    for taps in wq.chunks(rows * k) {
        for g in (0..rows).step_by(QUAD) {
            for kx in 0..k {
                let byte = |r: usize| if r < rows { taps[r * k + kx] as u8 } else { 0 };
                out.push(i32::from_le_bytes([
                    byte(g),
                    byte(g + 1),
                    byte(g + 2),
                    byte(g + 3),
                ]));
            }
        }
    }
    out
}

/// How a band stores a channel's finished accumulators: raw ([`Raw`]) or
/// requantized ([`Requantize`]).
trait Store: Sync {
    /// The output element.
    type Out: Copy + Send;

    /// Stores the accumulators `acc` of channel `co` into `dst` (the same
    /// length).
    fn store(&self, co: usize, acc: &[i32], dst: &mut [Self::Out]);

    /// Stores one AVX2 block — sixteen accumulators of channel `co` — into
    /// the first [`BLOCK`] elements of `dst`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    unsafe fn store16(&self, co: usize, acc: x86::Block, dst: &mut [Self::Out]);
}

/// Raw `i32` accumulators.
struct Raw;

impl Store for Raw {
    type Out = i32;

    fn store(&self, _co: usize, acc: &[i32], dst: &mut [i32]) {
        dst.copy_from_slice(acc);
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn store16(&self, _co: usize, acc: x86::Block, dst: &mut [i32]) {
        x86::store_i32(acc, dst);
    }
}

/// Per-channel requantization into `u8` activations.
struct Requantize<'a> {
    rq: &'a [Requant],
    /// Per channel, whether the vector requantization is exact
    /// ([`Requant::vector_safe`] over the layer's accumulator bound).
    vector: Vec<bool>,
}

impl<'a> Requantize<'a> {
    /// # Panics
    /// Panics unless there is one requantization per output channel.
    fn new(conv: &QuantConv2d, rq: &'a [Requant]) -> Self {
        assert_eq!(rq.len(), conv.cout, "one requant per output channel");
        let acc_bound = (conv.cin * conv.k * conv.k) as i64 * ACT_MAX * i64::from(QMAX);
        Self {
            rq,
            vector: rq.iter().map(|r| r.vector_safe(acc_bound)).collect(),
        }
    }
}

impl Store for Requantize<'_> {
    type Out = u8;

    fn store(&self, co: usize, acc: &[i32], dst: &mut [u8]) {
        let rq = &self.rq[co];
        for (o, &a) in dst.iter_mut().zip(acc) {
            *o = rq.apply(a);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn store16(&self, co: usize, acc: x86::Block, dst: &mut [u8]) {
        if self.vector[co] {
            // SAFETY: the caller guarantees AVX2; `vector[co]` is
            // `vector_safe` over this layer's accumulator bound.
            unsafe { x86::requant16(&self.rq[co], acc, dst) };
        } else {
            let mut spilled = [0i32; BLOCK];
            // SAFETY: the caller guarantees AVX2.
            unsafe { x86::store_i32(acc, &mut spilled) };
            self.store(co, &spilled, &mut dst[..BLOCK]);
        }
    }
}

/// The portable band body: per row with spans and per channel, the
/// tap-AXPY accumulator row ([`QuantConv2d::row`]), then the store of its
/// span columns.
fn band_portable<S: Store>(
    conv: &QuantConv2d,
    x: Input<'_, u8>,
    cols: &RowSpans,
    mut band: Band<'_, S::Out>,
    sink: &S,
) {
    let w = x.w;
    let mut acc = vec![0; w];
    for (co, plane) in band.planes.iter_mut().enumerate() {
        for (r, row) in plane.chunks_exact_mut(w).enumerate() {
            let spans = cols.row(band.y0 + r);
            if spans.is_empty() {
                continue;
            }
            conv.row(x, band.y0 + r, co, &mut acc);
            for &(s, e) in spans {
                sink.store(co, &acc[s..e], &mut row[s..e]);
            }
        }
    }
}

/// The SIMD band body.
///
/// Per output row with spans, the row's tap rows go, [`QUAD`] at a time,
/// byte-interleaved into a row buffer per group whose `pad` columns on
/// either side stay zero: only the columns the row's blocks read are
/// written. Each 16-pixel block of the spans ([`tiles`] of the whole row,
/// so the frame-edge blocks too) then takes the output channels
/// [`CO_TILE`] at a time (then one at a time), and its accumulators go
/// straight to the store. A tap that falls off the frame reads the zero
/// margin, which adds exactly nothing to an integer sum. A frame narrower
/// than a block runs [`band_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn band_avx2<S: Store>(
    conv: &QuantConv2d,
    x: Input<'_, u8>,
    cols: &RowSpans,
    mut band: Band<'_, S::Out>,
    sink: &S,
) {
    let (k, pad, w) = (conv.k, conv.k / 2, x.w);
    if w < BLOCK {
        return band_portable(conv, x, cols, band, sink);
    }
    let rows = band.planes.first().map_or(0, |p| p.len() / w);
    let full_tiles = conv.cout - conv.cout % CO_TILE;
    let frame = 0..w;
    let stride = QUAD * (w + 2 * pad);
    let mut quads = vec![0u8; (conv.cin * k).div_ceil(QUAD) * stride];
    let zero = vec![0u8; w];
    let (mut srcs, mut blocks, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..rows {
        let y = band.y0 + r;
        let spans = cols.row(y);
        let off = r * w;
        blocks.clear();
        for &span in spans {
            blocks.extend(tiles(span, &frame, &[BLOCK]).map(|(x0, _)| x0));
        }
        if blocks.is_empty() {
            continue;
        }
        // The in-frame columns the blocks read, as ascending runs (the
        // blocks ascend).
        reads.clear();
        for &x0 in &blocks {
            let (c0, c1) = (x0.saturating_sub(pad), (x0 + BLOCK + pad).min(w));
            match reads.last_mut() {
                Some((_, end)) if c0 <= *end => *end = c1.max(*end),
                _ => reads.push((c0, c1)),
            }
        }
        conv.source_rows(x, y, &zero, &mut srcs);
        for (four, quad) in srcs.chunks_exact(QUAD).zip(quads.chunks_exact_mut(stride)) {
            for &run in &reads {
                // SAFETY: this function is compiled for AVX2.
                unsafe { x86::interleave(four, run, &mut quad[QUAD * pad..]) };
            }
        }
        for &x0 in &blocks {
            for co0 in (0..full_tiles).step_by(CO_TILE) {
                // SAFETY: this function is compiled for AVX2; `quads`
                // holds one `stride`-byte row per group of `wquads`, and
                // `tiles` puts `x0` in `[0, w − 16]`, so the block reads
                // `[QUAD·x0, QUAD·(x0 + 16 + 2·pad))` of each, inside the
                // row; `co0 + CO_TILE ≤ cout`.
                let tile =
                    unsafe { x86::tile::<CO_TILE>(&conv.wquads, &quads, stride, k, co0, x0) };
                for (c, acc) in tile.into_iter().enumerate() {
                    let dst = &mut band.planes[co0 + c][off + x0..];
                    // SAFETY: this function is compiled for AVX2.
                    unsafe { sink.store16(co0 + c, acc, dst) };
                }
            }
            for co in full_tiles..conv.cout {
                // SAFETY: as for the channel tiles above, with `co < cout`.
                let [acc] = unsafe { x86::tile::<1>(&conv.wquads, &quads, stride, k, co, x0) };
                // SAFETY: this function is compiled for AVX2.
                unsafe { sink.store16(co, acc, &mut band.planes[co][off + x0..]) };
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_enabled() -> bool {
    use std::sync::OnceLock;
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    #[allow(clippy::wildcard_imports)] // the intrinsics namespace is the API
    use std::arch::x86_64::*;

    /// One 16-pixel block of `i32` accumulators: pixels 0–7, then 8–15.
    pub(super) type Block = [__m256i; 2];

    /// One multiply-accumulate step over a 4-tap group: each `i32` lane of
    /// `acc` gains the dot product of the four `u8` of `x`'s lane with the
    /// four `i8` of `w`'s, as `vpmaddubsw` → `vpmaddwd` against ones →
    /// `vpaddd`. Exact for inputs at most 127: a pair sums to at most
    /// 2·127·127 = 32 258 in magnitude, inside `i16`, where a full-range
    /// `u8` could saturate.
    ///
    /// # Safety
    /// The CPU must have AVX2.
    #[inline(always)]
    unsafe fn mac(acc: __m256i, x: __m256i, w: __m256i) -> __m256i {
        // SAFETY: the caller guarantees AVX2.
        unsafe {
            let pairs = _mm256_maddubs_epi16(x, w);
            _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)))
        }
    }

    /// Byte-interleaves columns `[c0, c1)` of the four rows `four` into
    /// `dst`, column `c` at bytes `4c .. 4c + 4`, lowest row first: 32
    /// columns a step, a step past the row's end moved left to end at it
    /// (it rewrites columns with this row's bytes); rows narrower than a
    /// step go column by column.
    ///
    /// # Safety
    /// The CPU must have AVX2.
    ///
    /// # Panics
    /// Panics if `four` is not four rows as long as the first, `c1` exceeds
    /// that length, or `dst` is shorter than four bytes per column.
    #[inline(always)]
    pub(super) unsafe fn interleave(four: &[&[u8]], (c0, c1): (usize, usize), dst: &mut [u8]) {
        let [a, b, c, d] = four else {
            panic!("a group is four tap rows")
        };
        let w = a.len();
        assert!(c1 <= w && [b, c, d].iter().all(|r| r.len() == w));
        if w < 32 {
            for x in c0..c1 {
                dst[4 * x..][..4].copy_from_slice(&[a[x], b[x], c[x], d[x]]);
            }
            return;
        }
        let dst = &mut dst[..4 * w];
        let mut next = c0;
        while next < c1 {
            let x = next.min(w - 32);
            // SAFETY: the caller guarantees AVX2; `x + 32 ≤ w`, so each
            // load reads inside its row and the stores write `dst`'s bytes
            // `[4x, 4x + 128)`, inside its `4w`.
            unsafe {
                let load = |row: &[u8]| _mm256_loadu_si256(row.as_ptr().add(x).cast());
                let (a, b, c, d) = (load(a), load(b), load(c), load(d));
                let (ab_lo, ab_hi) = (_mm256_unpacklo_epi8(a, b), _mm256_unpackhi_epi8(a, b));
                let (cd_lo, cd_hi) = (_mm256_unpacklo_epi8(c, d), _mm256_unpackhi_epi8(c, d));
                // Columns 0–3, 4–7, 8–11 and 12–15 of each 128-bit lane's
                // sixteen: the permutes put the two lanes in column order.
                let q0 = _mm256_unpacklo_epi16(ab_lo, cd_lo);
                let q1 = _mm256_unpackhi_epi16(ab_lo, cd_lo);
                let q2 = _mm256_unpacklo_epi16(ab_hi, cd_hi);
                let q3 = _mm256_unpackhi_epi16(ab_hi, cd_hi);
                let out = dst.as_mut_ptr().add(4 * x);
                _mm256_storeu_si256(out.cast(), _mm256_permute2x128_si256::<0x20>(q0, q1));
                _mm256_storeu_si256(
                    out.add(32).cast(),
                    _mm256_permute2x128_si256::<0x20>(q2, q3),
                );
                _mm256_storeu_si256(
                    out.add(64).cast(),
                    _mm256_permute2x128_si256::<0x31>(q0, q1),
                );
                _mm256_storeu_si256(
                    out.add(96).cast(),
                    _mm256_permute2x128_si256::<0x31>(q2, q3),
                );
            }
            next = x + 32;
        }
    }

    /// The accumulators of output channels `co0 .. co0 + NCO` over columns
    /// `[x0, x0 + 16)` of one output row. `quads` holds one `stride`-byte
    /// row buffer per group of four tap rows, column `c` of the frame at
    /// bytes `4(c + pad)`, with `pad` zero columns on either side; each
    /// group's 16 pixels load as two `ymm` per kernel column and are
    /// multiply-accumulated ([`mac`]) against every channel's packed
    /// weights, the `2·NCO` accumulators staying in registers across all
    /// taps.
    ///
    /// # Safety
    /// The CPU must have AVX2. `wquads` belongs to a layer with kernel
    /// size `k` and `quads.len() / stride` groups, `co0 + NCO` is at most
    /// its output channels, and
    /// `4(x0 + 16 + k − 1) ≤ stride` — so each 32-byte load stays inside its
    /// group's row and each weight read inside `wquads`.
    #[inline(always)]
    pub(super) unsafe fn tile<const NCO: usize>(
        wquads: &[i32],
        quads: &[u8],
        stride: usize,
        k: usize,
        co0: usize,
        x0: usize,
    ) -> [Block; NCO] {
        let groups = quads.len() / stride;
        let per_co = groups * k;
        debug_assert!(wquads.len() >= (co0 + NCO) * per_co);
        debug_assert!(4 * (x0 + 16 + k - 1) <= stride);
        // SAFETY: the caller guarantees the features, the channel range and
        // the block's columns, which keep every read in bounds.
        unsafe {
            let weights = wquads.as_ptr().add(co0 * per_co);
            let mut acc = [[_mm256_setzero_si256(); 2]; NCO];
            for g in 0..groups {
                let row = quads.as_ptr().add(g * stride + 4 * x0);
                for kx in 0..k {
                    let lo = _mm256_loadu_si256(row.add(4 * kx).cast());
                    let hi = _mm256_loadu_si256(row.add(4 * kx + 32).cast());
                    for (c, acc) in acc.iter_mut().enumerate() {
                        let wv = _mm256_set1_epi32(*weights.add(c * per_co + g * k + kx));
                        acc[0] = mac(acc[0], lo, wv);
                        acc[1] = mac(acc[1], hi, wv);
                    }
                }
            }
            acc
        }
    }

    /// Stores a block as sixteen `i32` at the front of `dst`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn store_i32(acc: Block, dst: &mut [i32]) {
        let dst = &mut dst[..16];
        // SAFETY: `dst` is 16 `i32` long, the width of the two stores.
        unsafe {
            _mm256_storeu_si256(dst.as_mut_ptr().cast(), acc[0]);
            _mm256_storeu_si256(dst.as_mut_ptr().add(8).cast(), acc[1]);
        }
    }

    /// [`Requant::apply`](super::Requant::apply) on eight lanes, as `i32`
    /// in `[0, 127]`. The biased sum is clamped at zero first — any
    /// negative one requantizes to 0 — so the 64-bit products are
    /// non-negative and a logical shift rounds them exactly as the scalar
    /// arithmetic shift does; even and odd lanes multiply separately
    /// (`vpmuludq` reads the low half of each 64-bit lane) and are blended
    /// back, the rounded result fitting the low 32 bits.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn requant8(v: __m256i, rq: &super::Requant) -> __m256i {
        let bias = _mm256_set1_epi32(rq.bias);
        let mult = _mm256_set1_epi64x(i64::from(rq.mult));
        let rnd = _mm256_set1_epi64x(1i64 << (rq.shift - 1));
        let count = _mm_cvtsi32_si128(rq.shift as i32);
        let s = _mm256_max_epi32(_mm256_add_epi32(v, bias), _mm256_setzero_si256());
        let round = |p: __m256i| _mm256_srl_epi64(_mm256_add_epi64(p, rnd), count);
        let even = round(_mm256_mul_epu32(s, mult));
        let odd = round(_mm256_mul_epu32(_mm256_srli_epi64::<32>(s), mult));
        let r = _mm256_blend_epi32::<0b1010_1010>(even, _mm256_slli_epi64::<32>(odd));
        _mm256_min_epi32(r, _mm256_set1_epi32(super::QMAX))
    }

    /// A block requantized into sixteen `u8` at the front of `dst`.
    ///
    /// # Safety
    /// [`Requant::vector_safe`](super::Requant::vector_safe) must hold for
    /// the range of the accumulators: the biased sum must fit `i32` lanes
    /// and the rounded product the low 32 bits of its 64-bit lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn requant16(rq: &super::Requant, acc: Block, dst: &mut [u8]) {
        let words = _mm256_packus_epi32(requant8(acc[0], rq), requant8(acc[1], rq));
        // `packus` interleaves its sources per 128-bit lane; the permute
        // puts the four quarters back in order.
        let words = _mm256_permute4x64_epi64::<0b1101_1000>(words);
        let bytes = _mm_packus_epi16(
            _mm256_castsi256_si128(words),
            _mm256_extracti128_si256::<1>(words),
        );
        let dst = &mut dst[..16];
        // SAFETY: `dst` is 16 bytes long, the width of the store.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), bytes) };
    }
}

/// Quantizes an f32 activation slice to 7-bit `u8`
/// (`clamp(⌊v/scale + 0.5⌋, 0, 127)`).
///
/// # Panics
/// Panics on a length mismatch.
pub(crate) fn quantize_activations(src: &[f32], scale: f32, dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "quantize length mismatch");
    let inv = 1.0 / scale;
    for (o, &v) in dst.iter_mut().zip(src) {
        // Clamping in f32 before the cast keeps the conversion in range so
        // it vectorizes; NaN still collapses to 0 exactly like the previous
        // `as i32` saturating-cast formulation did.
        *o = (v * inv + 0.5).clamp(0.0, QMAX as f32) as u8;
    }
}

/// The quantized NN-S: three [`QuantConv2d`]s in the paper's topology with
/// requantization between layers and an f32 epilogue (dequantize, bias)
/// producing the final logits.
#[derive(Debug, Clone)]
pub struct QuantNnS {
    hidden: usize,
    scales: ActScales,
    conv1: QuantConv2d,
    rq1: Vec<Requant>,
    conv2: QuantConv2d,
    rq2: Vec<Requant>,
    /// conv3 over the `a1` half of the concat.
    conv3a: QuantConv2d,
    /// conv3 over the upsampled-`a2` half of the concat.
    conv3b: QuantConv2d,
    /// conv3's epilogue: `acc_a · deq3[0] + acc_b · deq3[1] + deq3[2]`
    /// (the halves' dequantization scales, then the bias).
    deq3: [f32; 3],
    /// The input codes of black, gray and white pixels: what the input
    /// quantizer maps 0, ½ and 1 to, so planes expanded straight into them
    /// are, byte for byte, the f32 input quantized.
    codes: [u8; 3],
    /// The cut bit of each code triple's constant image, for the pixels
    /// [`QuantNnS::mask`] does not compute: built on first use.
    cuts: OnceLock<CutTable>,
}

impl QuantNnS {
    /// Quantizes a trained NN-S, using its calibrated activation scales
    /// when present and the conservative weight-norm bound otherwise (so
    /// models deserialized from the pre-quantization format still run).
    pub(crate) fn from_nns(nns: &NnS) -> Self {
        let scales = nns
            .act_scales()
            .unwrap_or_else(|| ActScales::bound_from_nns(nns));
        let hidden = nns.hidden();
        let (c1, c2, c3) = nns.convs();
        let conv1 = QuantConv2d::from_conv(c1);
        let conv2 = QuantConv2d::from_conv(c2);
        let w3 = c3.weights();
        let requants = |conv: &QuantConv2d, b: &[f32], s_in: f32, s_out: f32| -> Vec<Requant> {
            conv.w_scale()
                .iter()
                .zip(b)
                .map(|(&sw, &bias)| {
                    let acc_scale = (s_in * sw) as f64;
                    // Trained weights sit far inside these limits; absurd
                    // ones (a damaged model file) saturate the multiplier
                    // instead of tripping `from_real`'s range asserts.
                    let m = (acc_scale / s_out as f64).clamp(f64::MIN_POSITIVE, 2f64.powi(29));
                    Requant::from_real(m, (bias as f64 / acc_scale).round() as i32)
                })
                .collect()
        };
        let rq1 = requants(&conv1, c1.bias(), scales.input, scales.a1);
        let rq2 = requants(&conv2, c2.bias(), scales.a1, scales.a2);
        // conv3's input concatenates a1 (scale a1) with upsampled a2
        // (scale a2): split it into two half-convolutions so each half
        // dequantizes with its own exact scale.
        let half = hidden * 9;
        let conv3a = QuantConv2d::from_weights(hidden, 1, 3, &w3[..half]);
        let conv3b = QuantConv2d::from_weights(hidden, 1, 3, &w3[half..]);
        let deq3 = [
            scales.a1 * conv3a.w_scale()[0],
            scales.a2 * conv3b.w_scale()[0],
            c3.bias()[0],
        ];
        let mut codes = [0; 3];
        quantize_activations(&[0.0, 0.5, 1.0], scales.input, &mut codes);
        Self {
            hidden,
            scales,
            conv1,
            rq1,
            conv2,
            rq2,
            conv3a,
            conv3b,
            deq3,
            codes,
            cuts: OnceLock::new(),
        }
    }

    /// Hidden feature-channel width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The activation scales this instance quantizes with.
    pub fn scales(&self) -> ActScales {
        self.scales
    }

    /// Quantizes an f32 input into `out` at the input scale — the first
    /// pass of [`QuantNnS::infer`].
    ///
    /// # Panics
    /// Panics if `out` is not as long as `x`.
    pub fn quantize_input(&self, x: &Tensor, out: &mut [u8]) {
        quantize_activations(x.as_slice(), self.scales.input, out);
    }

    /// Quantized inference: the same sandwich-in, probability-map-out
    /// contract as [`NnS::infer`], on the int8 path — quantize the input,
    /// run the `u8` graph to logits, then the sigmoid.
    ///
    /// # Panics
    /// Panics on a wrong channel count or odd spatial dimensions.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.channels(),
            SANDWICH_CHANNELS,
            "NN-S expects the 3-channel sandwich input"
        );
        let (h, w) = (x.height(), x.width());
        let mut out = vec![0.0; h * w];
        let plan = Plan::dense(h, w);
        SCRATCH.with(|s| {
            let xq = stale(&mut s.input, x.len());
            self.quantize_input(x, xq);
            let Walk { acts, acc, .. } = &mut s.walk;
            self.logits_into(Input::new(xq, h, w), &mut out, &plan, acts, acc);
        });
        sigmoid_in_place(&mut out);
        Tensor::from_vec(1, h, w, out)
    }

    /// The refined mask of the input whose channels are `x`'s planes: the
    /// `u8` graph's logits thresholded at
    /// [`sigmoid_cut`](crate::layers::sigmoid_cut) — for the f32 input
    /// those planes expand to, the mask `infer(..).to_mask(0.5)` gives,
    /// without the dense input, the quantize pass, the sigmoid or the
    /// probability plane.
    ///
    /// Only the band is computed: the pixels within NN-S's receptive
    /// radius of a value change in any plane or of the frame edge, with
    /// the input written in this model's codes only where conv1 reads it.
    /// Every other pixel takes its code triple's bit from the table built
    /// with this model (see `crate::band` for why that is exact). The band
    /// is walked in row tiles on tile-sized scratch, so no frame-sized
    /// plane is held.
    pub fn mask(&self, x: &SandwichPlanes<'_>) -> SegMask {
        band::mask(self, x, &SCRATCH)
    }

    /// [`QuantNnS::mask`] of every frame of `xs`, in one batch: the frames'
    /// bands are found in parallel, then every tile of every frame is
    /// claimed from one queue, costliest first, so no worker waits at a
    /// frame boundary. Each mask is the frame's own `mask`, bit for bit.
    pub fn masks(&self, xs: &[SandwichPlanes<'_>]) -> Vec<SegMask> {
        self.masks_beside(xs, || ()).0
    }

    /// [`QuantNnS::masks`] while the calling thread runs `beside`: the other
    /// workers start on the tiles at once, and the caller joins them when
    /// `beside` returns. With nothing to walk, or one thread, the caller
    /// runs `beside` at its own width first.
    pub fn masks_beside<R>(
        &self,
        xs: &[SandwichPlanes<'_>],
        beside: impl FnOnce() -> R,
    ) -> (Vec<SegMask>, R) {
        band::masks(self, xs, &SCRATCH, beside)
    }

    /// How [`QuantNnS::mask`] walks `x`: the number of row tiles, and the
    /// bytes of scratch one call holds on one thread (measured by running
    /// it).
    pub fn mask_tiles(&self, x: &SandwichPlanes<'_>) -> (usize, usize) {
        band::mask_tiles(self, x)
    }

    /// The `u8` graph from a quantized sandwich `x` to f32 logits on the
    /// stages' `plan` columns, each stage into its role's buffer in `acts`
    /// and `acc` (grown to fit, every other element left stale): conv1 +
    /// requantization → 2×2 max-pool → conv2 + requantization → 2× upsample
    /// → each conv3 half into its own `i32` plane, then both dequantized and
    /// summed per logit. Only `plan.conv3`'s columns of `out` are written.
    fn logits_into(
        &self,
        x: Input<'_, u8>,
        out: &mut [f32],
        plan: &Plan,
        acts: &mut [Vec<u8>; 4],
        acc: &mut [Vec<i32>; 2],
    ) {
        let (h, w) = (x.h, x.w);
        assert_eq!(
            x.data.len(),
            SANDWICH_CHANNELS * h * w,
            "NN-S expects the 3-channel sandwich input"
        );
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "max-pool needs even dimensions"
        );
        assert_eq!(out.len(), h * w, "logit plane size mismatch");
        let hid = self.hidden;
        let [a1, d, a2, up] = acts;
        let [n1, nd, n2, nup] = roles(hid, h, w);
        let (a1, d, a2, up) = (stale(a1, n1), stale(d, nd), stale(a2, n2), stale(up, nup));
        let [acc_a, acc_b] = acc.each_mut().map(|buf| stale(buf, h * w));
        let (c1, c2) = (&self.conv1, &self.conv2);
        let threads = auto_threads(c1.macs(plan.conv1.area(), 1));
        c1.requant_into(x, &self.rq1, a1, &plan.conv1, threads);
        maxpool2_u8_span_into(a1, hid, h, w, d, &plan.pool);
        let threads = auto_threads(c2.macs(plan.conv2.area(), 1));
        let half = Input::new(&d[..], h / 2, w / 2);
        c2.requant_into(half, &self.rq2, a2, &plan.conv2, threads);
        upsample2_span_into(a2, hid, h / 2, w / 2, up, &plan.up);
        let cols = &plan.conv3;
        // One plane per half, plain-stored: tiles overlap inside a span and
        // overshoot its end, so summing into one plane would add some
        // columns twice.
        let raw = |conv: &QuantConv2d, x: &[u8], acc: &mut [i32]| {
            let threads = auto_threads(conv.macs(cols.area(), 1));
            let x = Input::new(x, h, w);
            conv.forward(x, acc, &Raw, cols, threads, Body::detected());
        };
        raw(&self.conv3a, a1, acc_a);
        raw(&self.conv3b, up, acc_b);
        for y in 0..h {
            for &(s, e) in cols.row(y) {
                let (s, e) = (y * w + s, y * w + e);
                let accs = acc_a[s..e].iter().zip(&acc_b[s..e]);
                for (o, (&a, &b)) in out[s..e].iter_mut().zip(accs) {
                    *o = self.dequant(a, b);
                }
            }
        }
    }

    /// conv3's f32 epilogue for one pixel's two half-accumulators.
    fn dequant(&self, a: i32, b: i32) -> f32 {
        let [da, db, bias] = self.deq3;
        a as f32 * da + b as f32 * db + bias
    }
}

/// The int8 graph on the mask path: the quantized sandwich values as codes,
/// the `u8` planes, accumulators and logits as buffers,
/// [`QuantNnS::logits_into`] to the logits.
impl Graph for QuantNnS {
    type Code = u8;
    type Walk = Walk;
    /// The two half-accumulators and the logit.
    const PIXEL_BYTES: usize = 2 * std::mem::size_of::<i32>() + std::mem::size_of::<f32>();

    fn hidden(&self) -> usize {
        self.hidden
    }

    fn codes(&self) -> [u8; 3] {
        self.codes
    }

    fn cut_cell(&self) -> &OnceLock<CutTable> {
        &self.cuts
    }

    fn held_bytes(walk: &Walk) -> usize {
        walk.acts.iter().map(capacity_bytes).sum::<usize>()
            + walk.acc.iter().map(capacity_bytes).sum::<usize>()
            + capacity_bytes(&walk.logits)
    }

    fn logits<'s>(&self, x: Input<'_, u8>, plan: &Plan, walk: &'s mut Walk) -> &'s [f32] {
        let Walk { acts, acc, logits } = walk;
        let out = stale(logits, x.h * x.w);
        self.logits_into(x, out, plan, acts, acc);
        out
    }
}

/// Naive integer kernels the banded kernel is verified against, and the
/// banded kernel on a chosen [`Body`], so the equivalence tests reach every
/// body the CPU has, not only the one the kernels run.
pub mod reference {
    use super::{Body, QuantConv2d, Raw, Requant, Requantize};

    /// Naive triple-loop `i32` forward pass — the ground truth of
    /// [`QuantConv2d::forward_i32`].
    ///
    /// # Panics
    /// Panics on an input length mismatch.
    pub fn forward_i32(conv: &QuantConv2d, x: &[u8], h: usize, w: usize) -> Vec<i32> {
        let (cin, cout, k) = (conv.cin(), conv.cout(), conv.kernel_size());
        assert_eq!(x.len(), cin * h * w, "conv input length mismatch");
        let pad = (k / 2) as i32;
        let wq = conv.weights();
        let mut out = vec![0i32; cout * h * w];
        for co in 0..cout {
            for y in 0..h {
                for xp in 0..w {
                    let mut acc = 0i32;
                    for ci in 0..cin {
                        for ky in 0..k {
                            let sy = y as i32 + ky as i32 - pad;
                            if sy < 0 || sy >= h as i32 {
                                continue;
                            }
                            for kx in 0..k {
                                let sx = xp as i32 + kx as i32 - pad;
                                if sx < 0 || sx >= w as i32 {
                                    continue;
                                }
                                let wi = ((co * cin + ci) * k + ky) * k + kx;
                                let sv = x[(ci * h + sy as usize) * w + sx as usize];
                                acc += wq[wi] as i32 * sv as i32;
                            }
                        }
                    }
                    out[(co * h + y) * w + xp] = acc;
                }
            }
        }
        out
    }

    /// Naive requantized forward pass — the ground truth of
    /// [`QuantConv2d::forward_requant`].
    ///
    /// # Panics
    /// Panics on a length mismatch or `rq.len() != cout`.
    pub fn forward_requant(
        conv: &QuantConv2d,
        x: &[u8],
        h: usize,
        w: usize,
        rq: &[Requant],
    ) -> Vec<u8> {
        assert_eq!(rq.len(), conv.cout(), "one requant per output channel");
        let acc = forward_i32(conv, x, h, w);
        acc.chunks(h * w)
            .zip(rq)
            .flat_map(|(plane, r)| plane.iter().map(|&a| r.apply(a)))
            .collect()
    }

    /// The banded `i32` kernel on `body`, in `threads` row bands —
    /// bit-exact with [`forward_i32`] and the dispatched kernel.
    ///
    /// # Errors
    /// As [`QuantConv2d::forward_i32`].
    ///
    /// # Panics
    /// Panics on an input length mismatch, or unless the CPU has `body`
    /// ([`Body::available`]).
    pub fn forward_i32_on(
        body: Body,
        conv: &QuantConv2d,
        x: &[u8],
        h: usize,
        w: usize,
        threads: usize,
    ) -> Result<Vec<i32>, String> {
        let mut out = vec![0; conv.cout() * h * w];
        conv.checked(x, (h, w), &mut out, &Raw, threads, body)?;
        Ok(out)
    }

    /// The banded requantizing kernel on `body`, in `threads` row bands —
    /// bit-exact with [`forward_requant`].
    ///
    /// # Errors
    /// As [`QuantConv2d::forward_i32`].
    ///
    /// # Panics
    /// Panics on a length mismatch, `rq.len() != cout`, or unless the CPU
    /// has `body`.
    pub fn forward_requant_on(
        body: Body,
        conv: &QuantConv2d,
        x: &[u8],
        h: usize,
        w: usize,
        rq: &[Requant],
        threads: usize,
    ) -> Result<Vec<u8>, String> {
        let mut out = vec![0; conv.cout() * h * w];
        let sink = Requantize::new(conv, rq);
        conv.checked(x, (h, w), &mut out, &sink, threads, body)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::{biased, ellipse, triples, Banded};
    use crate::layers::{logits_to_mask, maxpool2_into, maxpool2_u8_into, upsample2_into};
    use vrd_video::Seg2Plane;

    fn test_input(cin: usize, h: usize, w: usize, seed: u64) -> Vec<u8> {
        (0..cin * h * w)
            .map(|i| (vrd_video::texture::hash2(i as i64, 7, seed) % 128) as u8)
            .collect()
    }

    #[test]
    fn forward_matches_reference_hd_width() {
        // Wide enough for whole blocks, the frame-edge blocks and a ragged
        // last one.
        let w: Vec<f32> = (0..8 * 3 * 9)
            .map(|i| ((i as f32 * 0.37).sin()) * 0.2)
            .collect();
        let conv = QuantConv2d::from_weights(3, 8, 3, &w);
        let x = test_input(3, 12, 61, 3);
        let mut fast = vec![0i32; 8 * 12 * 61];
        conv.forward_i32(&x, 12, 61, &mut fast).unwrap();
        assert_eq!(fast, reference::forward_i32(&conv, &x, 12, 61));
        let portable = reference::forward_i32_on(Body::Portable, &conv, &x, 12, 61, 1);
        assert_eq!(fast, portable.unwrap());
    }

    /// The banded kernel on spans that touch column 0 and column `w − 1`,
    /// where a block's taps fall off the frame into the zero margin, and on
    /// a row narrower than one block, against the naive kernels on every
    /// body this CPU has: every span column, and any other column a block
    /// writes, holds the reference's value.
    #[test]
    fn edge_spans_match_the_reference_on_every_body() {
        const UNWRITTEN: i32 = i32::MIN;
        for k in [1, 3] {
            let (cin, cout, h) = (3, 5, 4);
            let wts: Vec<f32> = (0..cout * cin * k * k)
                .map(|i| (i as f32 * 0.61).sin())
                .collect();
            let conv = QuantConv2d::from_weights(cin, cout, k, &wts);
            let rq: Vec<Requant> = (0..cout)
                .map(|co| Requant::from_real(0.004 * (co + 1) as f64, co as i32 - 2))
                .collect();
            for w in (16..=40).chain([11]) {
                let x = test_input(cin, h, w, w as u64);
                let want = reference::forward_i32(&conv, &x, h, w);
                let want_u8 = reference::forward_requant(&conv, &x, h, w, &rq);
                // Per row: both frame edges, the left edge, the right edge
                // with a gap before it, and the whole row.
                let spans = RowSpans::build(h, w, |y, row| match y {
                    0 => row.extend([(0, 3), (w - 2, w)]),
                    1 => row.push((0, 1)),
                    2 => row.extend([(1, 2), (w - 1, w)]),
                    _ => row.push((0, w)),
                });
                let input = Input::new(&x[..], h, w);
                for body in Body::ALL.into_iter().filter(|b| b.available()) {
                    let mut got = vec![UNWRITTEN; cout * h * w];
                    conv.forward(input, &mut got, &Raw, &spans, 1, body);
                    let mut got_u8 = vec![u8::MAX; cout * h * w];
                    let sink = Requantize::new(&conv, &rq);
                    conv.forward(input, &mut got_u8, &sink, &spans, 1, body);
                    for (i, (&g, &g8)) in got.iter().zip(&got_u8).enumerate() {
                        let (y, xp) = (i / w % h, i % w);
                        let what = format!("{body:?}, k {k}, width {w}, row {y}, column {xp}");
                        let kept = spans.row(y).iter().any(|&(s, e)| (s..e).contains(&xp));
                        let skipped = !kept && (g, g8) == (UNWRITTEN, u8::MAX);
                        assert!(skipped || (g, g8) == (want[i], want_u8[i]), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn inputs_above_qmax_are_refused() {
        let conv = QuantConv2d::from_weights(1, 2, 3, &[0.5; 18]);
        let rq = [Requant::from_real(0.5, 0); 2];
        let (h, w) = (3, 20);
        for bad in [128u8, 200, 255] {
            let mut x = vec![QMAX as u8; h * w];
            x[37] = bad;
            let want = format!("int8 kernel input value {bad} at index 37 is above 127");
            let mut acc = vec![0; 2 * h * w];
            let mut out = vec![0; 2 * h * w];
            assert_eq!(conv.forward_i32(&x, h, w, &mut acc), Err(want.clone()));
            assert_eq!(
                conv.forward_i32_with(&x, h, w, &mut acc, 2),
                Err(want.clone())
            );
            assert_eq!(
                conv.forward_requant(&x, h, w, &rq, &mut out),
                Err(want.clone())
            );
            assert_eq!(
                conv.forward_requant_with(&x, h, w, &rq, &mut out, 2),
                Err(want.clone())
            );
            for body in Body::ALL.into_iter().filter(|b| b.available()) {
                let i32s = reference::forward_i32_on(body, &conv, &x, h, w, 1);
                assert_eq!(i32s, Err(want.clone()));
                let u8s = reference::forward_requant_on(body, &conv, &x, h, w, &rq, 1);
                assert_eq!(u8s, Err(want.clone()));
            }
        }
        let x = vec![QMAX as u8; h * w];
        assert_eq!(conv.forward_i32(&x, h, w, &mut vec![0; 2 * h * w]), Ok(()));
    }

    #[test]
    fn requant_rounds_and_saturates() {
        let rq = Requant::from_real(0.5, 0);
        assert_eq!(rq.apply(0), 0);
        assert_eq!(rq.apply(2), 1);
        assert_eq!(rq.apply(3), 2); // round half up
        assert_eq!(rq.apply(-5), 0); // ReLU clamp
        assert_eq!(rq.apply(1000), 127); // saturation
        assert_eq!(rq.apply(i32::MAX), 127);
        assert_eq!(rq.apply(i32::MIN), 0);
        let tiny = Requant::from_real(1e-12, 0);
        assert_eq!(tiny.apply(i32::MAX), 0);
        let biased = Requant::from_real(1.0, 10);
        assert_eq!(biased.apply(-10), 0);
        assert_eq!(biased.apply(90), 100);
    }

    #[test]
    fn requant_decomposition_is_accurate() {
        for &m in &[0.5, 0.001, 0.9999, 1.0 / 3.0, 2.5e-5, 7.3] {
            let rq = Requant::from_real(m, 0);
            for &acc in &[1, 100, 12345, 1_000_000] {
                let exact = (acc as f64 * m).round() as i64;
                let got = {
                    let v = acc as i128 * rq.mult as i128;
                    (v + (1i128 << (rq.shift - 1))) >> rq.shift
                } as i64;
                assert!(
                    (exact - got).abs() <= 1,
                    "m={m} acc={acc}: exact {exact} vs fixed-point {got}"
                );
            }
        }
    }

    #[test]
    fn quantized_pool_and_upsample_commute_with_f32() {
        let src = test_input(2, 6, 8, 11);
        let srcf: Vec<f32> = src.iter().map(|&v| v as f32).collect();
        let mut dq = vec![0u8; 2 * 3 * 4];
        let mut df = vec![0.0f32; 2 * 3 * 4];
        maxpool2_u8_into(&src, 2, 6, 8, &mut dq);
        maxpool2_into(&srcf, 2, 6, 8, &mut df, f32::max);
        assert_eq!(dq.iter().map(|&v| v as f32).collect::<Vec<_>>(), df);
        let mut uq = vec![0u8; 2 * 6 * 8];
        let mut uf = vec![0.0f32; 2 * 6 * 8];
        upsample2_into(&dq, 2, 3, 4, &mut uq);
        upsample2_into(&df, 2, 3, 4, &mut uf);
        assert_eq!(uq.iter().map(|&v| v as f32).collect::<Vec<_>>(), uf);
    }

    #[test]
    fn quantized_inference_tracks_f32() {
        // A trained-ish NnS (seeded init is fine: the comparison is
        // relative) must produce probability maps close to the f32 path.
        let mut nns = NnS::new(6, 42);
        let x = Tensor::from_vec(
            3,
            16,
            24,
            (0..3 * 16 * 24)
                .map(|i| match i % 5 {
                    0 | 3 => 0.0,
                    1 => 0.5,
                    _ => 1.0,
                })
                .collect(),
        );
        nns.calibrate(&[&x]);
        let f = nns.infer(&x);
        let q = nns.quantize().infer(&x);
        let max_err = f
            .as_slice()
            .iter()
            .zip(q.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.05, "quantized path drifted: max err {max_err}");
    }

    /// The graph — requantizing convolutions, the `u8` pool, the conv3
    /// halves and their f32 epilogue — against the same graph composed of
    /// the naive reference kernels, at a width that leaves ragged blocks at
    /// both resolutions and a hidden width that leaves a partial channel
    /// tile, on the dense plan and on a blob sandwich's band; `infer` and
    /// `mask` are that graph's logits through the sigmoid and through the
    /// cut.
    #[test]
    fn quantized_graph_matches_separate_reference_layers() {
        let (h, w, hid) = (10, 70, 5);
        let mut nns = NnS::new(hid, 3);
        // Non-zero biases, so the requantization and the conv3 epilogue
        // see them (a fresh layer's are all zero).
        for (l, conv) in nns.convs_mut().into_iter().enumerate() {
            for (i, b) in conv.params_mut().1.iter_mut().enumerate() {
                *b = 0.37 - 0.11 * (l + i) as f32;
            }
        }
        // Gray, black and white in every few pixels of the reconstruction.
        let recon = Seg2Plane::from_vec(w, h, (0..h * w).map(|i| (i % 7 % 3) as u8).collect());
        let stripes = |p: usize| SegMask::from_bits(w, h, (0..h * w).map(|i| i % p < p / 2));
        let (prev, next) = (stripes(6), stripes(10));
        let planes = SandwichPlanes::new(&prev, &recon, &next).unwrap();
        let x = planes.to_tensor();
        nns.calibrate(&[&x]);
        let q = nns.quantize();
        let reference_logits = |xq: &[u8], h: usize, w: usize| -> Vec<f32> {
            let a1 = reference::forward_requant(&q.conv1, xq, h, w, &q.rq1);
            let mut d = vec![0u8; hid * h * w / 4];
            maxpool2_into(&a1, hid, h, w, &mut d, u8::max);
            let a2 = reference::forward_requant(&q.conv2, &d, h / 2, w / 2, &q.rq2);
            let mut up = vec![0u8; hid * h * w];
            upsample2_into(&a2, hid, h / 2, w / 2, &mut up);
            let acc_a = reference::forward_i32(&q.conv3a, &a1, h, w);
            let acc_b = reference::forward_i32(&q.conv3b, &up, h, w);
            let accs = acc_a.iter().zip(&acc_b);
            accs.map(|(&a, &b)| q.dequant(a, b)).collect()
        };
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut xq = vec![0u8; 3 * h * w];
        q.quantize_input(&x, &mut xq);
        let want = reference_logits(&xq, h, w);
        let mut walk = Walk::default();
        let got = q.logits(Input::new(&xq, h, w), &Plan::dense(h, w), &mut walk);
        assert_eq!(bits(got), bits(&want));
        assert_eq!(q.mask(&planes), logits_to_mask(&want, h, w));
        let mut probs = want;
        sigmoid_in_place(&mut probs);
        let inferred = q.infer(&x);
        assert_eq!(bits(inferred.as_slice()), bits(&probs));
        assert_eq!(inferred.to_mask(0.5), q.mask(&planes));

        // A sandwich of two offset ellipses, gray where they differ: only
        // the band's logits are written, and each equals the reference's.
        let (h, w) = (48, 126);
        let blob = |cx| ellipse(w, h, (cx, 24.0), (10.0, 6.0));
        let (a, b) = (blob(50.0), blob(57.0));
        let recon = Seg2Plane::mean_filter(&a, &b);
        let planes = SandwichPlanes::new(&a, &recon, &b).unwrap();
        let mut xq = vec![0u8; 3 * h * w];
        q.quantize_input(&planes.to_tensor(), &mut xq);
        let plan = Banded::of(&planes).plan();
        let cols = &plan.conv3;
        assert!(
            0 < cols.area() && cols.area() < h * w,
            "a band, not the frame"
        );
        let want = reference_logits(&xq, h, w);
        let got = q.logits(Input::new(&xq, h, w), &plan, &mut walk);
        for y in 0..h {
            for &(s, e) in cols.row(y) {
                let span = y * w + s..y * w + e;
                assert_eq!(bits(&got[span.clone()]), bits(&want[span]), "row {y}");
            }
        }
        assert_eq!(q.mask(&planes), logits_to_mask(&want, h, w));
    }

    #[test]
    fn cut_table_bits_are_the_centres_of_constant_images() {
        let nns = biased(NnS::new(5, 11));
        let q = nns.quantize();
        for triple in triples() {
            for (h, w) in [(14, 16), (36, 40)] {
                assert_eq!(
                    q.cuts().bit(triple),
                    q.centre_bit(h, w, triple),
                    "{triple:?}"
                );
            }
        }
        assert!(triples().any(|t| q.cuts().bit(t)) && !triples().all(|t| q.cuts().bit(t)));
    }

    #[test]
    fn sandwich_codes_are_the_quantized_sandwich_values() {
        let q = NnS::new(4, 7).quantize();
        let x = Tensor::from_vec(3, 1, 2, vec![0.0, 0.5, 1.0, 1.0, 0.5, 0.0]);
        let mut xq = vec![0u8; 6];
        q.quantize_input(&x, &mut xq);
        let [black, gray, white] = q.codes;
        assert_eq!(xq, [black, gray, white, white, gray, black]);
    }

    #[test]
    fn uncalibrated_models_fall_back_to_weight_bounds() {
        let nns = NnS::new(4, 7);
        assert!(nns.act_scales().is_none());
        let q = nns.quantize();
        let s = q.scales();
        assert!(s.input > 0.0 && s.a1 > 0.0 && s.a2 > 0.0);
        // The bound must dominate any actual activation.
        let x = Tensor::from_vec(3, 8, 8, vec![1.0; 3 * 8 * 8]);
        let y = q.infer(&x);
        assert!(y.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn weight_quantization_is_per_output_channel() {
        // Two output channels with very different ranges must not share a
        // scale: the small channel keeps its resolution.
        let mut w = vec![0.0f32; 2 * 9];
        w[0] = 10.0; // channel 0: huge
        w[9] = 0.01; // channel 1: tiny
        let conv = QuantConv2d::from_weights(1, 2, 3, &w);
        assert_eq!(conv.weights()[0], 127);
        assert_eq!(conv.weights()[9], 127);
        assert!(conv.w_scale()[0] > conv.w_scale()[1]);
    }

    #[test]
    fn quantize_activations_rounds_and_clamps() {
        let mut out = vec![0u8; 5];
        quantize_activations(&[0.0, 0.5, 1.0, 2.0, -1.0], 1.0 / 127.0, &mut out);
        assert_eq!(out, vec![0, 64, 127, 127, 0]);
    }
}
