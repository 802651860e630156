//! Quantized int8 inference path (ROADMAP item 2).
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
//!   sandwich input lives in `[0, 1]`, the hidden layers are ReLU-gated),
//!   and capping at 127 keeps the SIMD inner loop's `i16` pair-sums exact
//!   (`2 · 127 · 127 < 2^15`);
//! * **accumulation** — exact `i32` dot products. Integer addition is
//!   associative, so the SIMD kernels are **bit-exact** with the naive
//!   [`mod@reference`] kernel (pinned by `tests/quant_equivalence.rs`) — a
//!   stronger guarantee than the f32 path, which had to match accumulation
//!   order;
//! * **requantization** — between layers a TFLite-style fixed-point
//!   multiplier ([`Requant`]) folds `s_in · s_w[co] / s_out` and the bias
//!   into an `i32 × i32 >> shift` round-half-up, clamped to `[0, 127]` —
//!   the clamp *is* the ReLU.
//!
//! The inner loops come in two flavours: a portable tap-AXPY over `i32`
//! rows (autovectorizable tight loops), and an explicit AVX2 kernel —
//! built on `x86_64`, selected by runtime detection — that widens `u8`
//! rows to `i16` lanes, multiplies two taps per step (`127·127` fits
//! `i16`, the pair-sum too), and widens to `i32` accumulators held in
//! registers — 32 MACs per 9 vector ops, no loads/stores of the
//! accumulator row. Both compute identical integers.
//!
//! [`QuantNnS`] wires three [`QuantConv2d`]s into the NN-S topology.
//! The final concat feeding conv3 mixes two activation scales (`a1` and
//! upsampled `a2`), so conv3 is split into two half-convolutions whose
//! `i32` accumulators are dequantized separately and summed in f32 — dot
//! products distribute, so the split is exact. Max-pool and
//! nearest-neighbour upsampling commute with the monotone quantizer and run
//! directly on `u8` planes, through the same two kernels as the f32 graph
//! ([`crate::layers`]).

use crate::conv::Conv2d;
use crate::layers::{maxpool2_into, sigmoid_in_place, upsample2_into};
use crate::nns::{NnS, SANDWICH_CHANNELS};
use crate::tensor::Tensor;
use vrd_runtime::BufferPool;

/// Largest quantized activation value (7-bit unsigned; see module docs).
pub(crate) const QMAX: i32 = 127;

/// Minimum multiply-accumulate count before a quantized convolution fans
/// out across threads (same threshold as the f32 kernels).
const PAR_MIN_MACS: u64 = 8_000_000;

/// Scratch pools for the quantized inference path: `u8` activation planes
/// and `i32` accumulator planes, recycled across frames.
static SCRATCH_U8: BufferPool<u8> = BufferPool::new();
static SCRATCH_I32: BufferPool<i32> = BufferPool::new();

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
    /// *is* the definition of saturating requantization — both the SIMD and
    /// the reference kernels call it, so they cannot disagree.
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
    /// accumulator with `|acc| ≤ acc_bound`: the biased sum must fit `i32`
    /// (the SIMD path adds it in 32-bit lanes) and the rounded product
    /// must fit `i32` after the shift (it truncates 64-bit lanes before
    /// the clamp). Callers fall back to the scalar [`Requant::apply`]
    /// loop otherwise.
    pub(crate) fn vector_safe(&self, acc_bound: i64) -> bool {
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
        Self {
            cin,
            cout,
            k,
            wq,
            w_scale,
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

    fn check_forward(&self, x: &[u8], h: usize, w: usize, out_len: usize) {
        assert_eq!(x.len(), self.cin * h * w, "conv input length mismatch");
        assert_eq!(out_len, self.cout * h * w, "conv output length mismatch");
        debug_assert!(
            x.iter().all(|&v| v as i32 <= QMAX),
            "quantized activations must be 7-bit (<= 127)"
        );
    }

    /// Accumulates one output-channel plane into `acc` (which the caller
    /// zeroed). Dispatches to the AVX2 inner loop when compiled in and
    /// detected at runtime; otherwise runs the portable tap-AXPY.
    fn accumulate_plane(&self, co: usize, x: &[u8], h: usize, w: usize, acc: &mut [i32]) {
        let (k, pad) = (self.k, self.k / 2);
        // Valid tap rows for the current output row: (source row, k taps).
        let mut entries: Vec<(&[u8], &[i8])> = Vec::with_capacity(self.cin * k);
        // Packed (w_a, w_b) weight-pair scratch for the AVX2 inner loop,
        // reused across rows.
        #[cfg(target_arch = "x86_64")]
        let mut wpack: Vec<i32> = Vec::with_capacity(self.cin * k * k);
        for y in 0..h {
            entries.clear();
            for ci in 0..self.cin {
                for ky in 0..k {
                    let sy = y as isize + ky as isize - pad as isize;
                    if sy < 0 || sy >= h as isize {
                        continue;
                    }
                    let src = &x[(ci * h + sy as usize) * w..][..w];
                    let wrow = &self.wq[((co * self.cin + ci) * k + ky) * k..][..k];
                    entries.push((src, wrow));
                }
            }
            let row = &mut acc[y * w..][..w];
            #[cfg(target_arch = "x86_64")]
            if avx2_enabled() && w >= 2 * pad + 16 {
                // SAFETY: AVX2 was detected; `x86::accumulate_row` only
                // touches indices in [0, w) of each entry row and
                // [pad, interior_end) of `row` (see its contract).
                let interior_end =
                    unsafe { x86::accumulate_row(&entries, pad, w, row, &mut wpack) };
                scalar_columns(&entries, pad, w, row, 0, pad);
                scalar_columns(&entries, pad, w, row, interior_end, w);
                continue;
            }
            portable_row(&entries, pad, w, row);
        }
    }

    /// Requantizes one accumulator plane into `u8` activations.
    /// Dispatches to the AVX2 lane-parallel path when it is provably exact
    /// for this layer's accumulator range (see [`Requant::vector_safe`]);
    /// otherwise applies the scalar definition element-wise.
    fn requant_plane(&self, rq: &Requant, acc: &[i32], out: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        {
            let acc_bound = (self.cin * self.k * self.k) as i64 * (QMAX as i64) * (QMAX as i64);
            if avx2_enabled() && rq.vector_safe(acc_bound) {
                // SAFETY: AVX2 was detected and the range precondition of
                // `requant_slice` was just checked.
                unsafe { x86::requant_slice(rq, acc, out) };
                return;
            }
        }
        for (o, &a) in out.iter_mut().zip(acc) {
            *o = rq.apply(a);
        }
    }

    fn forward_planes<F>(&self, h: usize, w: usize, run: F, n_planes: usize)
    where
        F: Fn(usize) + Sync,
    {
        if self.macs(h, w) >= PAR_MIN_MACS && vrd_runtime::max_threads() > 1 {
            vrd_runtime::parallel_for_each((0..n_planes).collect(), &run);
        } else {
            for co in 0..n_planes {
                run(co);
            }
        }
    }

    /// Forward pass into raw `i32` accumulators (no bias, no
    /// requantization) — the final-layer entry point, and the object the
    /// equivalence proptests pin against [`reference::forward_i32`].
    ///
    /// # Panics
    /// Panics on length mismatches; debug builds also reject activations
    /// above 127.
    pub fn forward_i32(&self, x: &[u8], h: usize, w: usize, out: &mut [i32]) {
        self.check_forward(x, h, w, out.len());
        let planes = std::sync::Mutex::new(
            out.chunks_mut(h * w)
                .map(Some)
                .collect::<Vec<Option<&mut [i32]>>>(),
        );
        self.forward_planes(
            h,
            w,
            |co| {
                let plane = planes.lock().expect("plane handout lock")[co]
                    .take()
                    .expect("each plane is taken once");
                plane.fill(0);
                self.accumulate_plane(co, x, h, w, plane);
            },
            self.cout,
        );
    }

    /// Forward pass with fused per-channel requantization into `u8`
    /// activations (the clamp to `[0, 127]` applies the ReLU).
    ///
    /// # Panics
    /// Panics on length mismatches or `rq.len() != cout`.
    pub fn forward_requant(&self, x: &[u8], h: usize, w: usize, rq: &[Requant], out: &mut [u8]) {
        self.check_forward(x, h, w, out.len());
        assert_eq!(rq.len(), self.cout, "one requant per output channel");
        let planes = std::sync::Mutex::new(
            out.chunks_mut(h * w)
                .map(Some)
                .collect::<Vec<Option<&mut [u8]>>>(),
        );
        self.forward_planes(
            h,
            w,
            |co| {
                let plane = planes.lock().expect("plane handout lock")[co]
                    .take()
                    .expect("each plane is taken once");
                let mut acc = SCRATCH_I32.take(h * w);
                self.accumulate_plane(co, x, h, w, &mut acc);
                self.requant_plane(&rq[co], &acc, plane);
            },
            self.cout,
        );
    }
}

/// Portable accumulation of one output row: per-tap AXPY over contiguous
/// lanes (`acc[x] += w · src[x+dx]`), the autovectorizable fallback.
fn portable_row(entries: &[(&[u8], &[i8])], pad: usize, w: usize, row: &mut [i32]) {
    for (src, wrow) in entries {
        for (kx, &wv) in wrow.iter().enumerate() {
            if wv == 0 {
                continue;
            }
            let dx = kx as isize - pad as isize;
            let x0 = (-dx).max(0) as usize;
            let x1 = ((w as isize - dx).min(w as isize)).max(0) as usize;
            if x0 >= x1 {
                continue;
            }
            let s0 = (x0 as isize + dx) as usize;
            let wv = wv as i32;
            for (o, &sv) in row[x0..x1].iter_mut().zip(&src[s0..s0 + (x1 - x0)]) {
                *o += wv * sv as i32;
            }
        }
    }
}

/// Scalar per-column accumulation with bounds checks — used for the padded
/// edge columns and the vector tail of the AVX2 path.
fn scalar_columns(
    entries: &[(&[u8], &[i8])],
    pad: usize,
    w: usize,
    row: &mut [i32],
    x0: usize,
    x1: usize,
) {
    for (xp, cell) in row.iter_mut().enumerate().take(x1).skip(x0) {
        let mut acc = *cell;
        for (src, wrow) in entries {
            for (kx, &wv) in wrow.iter().enumerate() {
                let sx = xp as isize + kx as isize - pad as isize;
                if sx < 0 || sx >= w as isize {
                    continue;
                }
                acc += wv as i32 * src[sx as usize] as i32;
            }
        }
        *cell = acc;
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

    /// AVX2 interior accumulation for one output row. Covers the whole
    /// interior `[pad, w − pad)` in 16-pixel blocks (the last block
    /// overlaps its predecessor when the interior is not a multiple of 16)
    /// and returns the end of the covered range; only the `pad` edge
    /// columns on each side are left to the scalar kernel.
    ///
    /// Two tap rows are folded per step with `vpmaddwd`: the two `u8`
    /// source rows are byte-interleaved (`vpunpcklbw`/`vpunpckhbw`),
    /// zero-extended to `i16` lanes, and multiply-added against the
    /// matching `(w_a, w_b)` `i16` pair — each product is at most
    /// `127 · 127` so the pair-sum lands exactly in the `i32` accumulator
    /// lanes. The packed weight pairs are pre-assembled once per row into
    /// `wpack` (one `i32` per tap-row pair and kernel column, low half
    /// `w_a`, high half `w_b`), so the inner loop re-reads them with plain
    /// broadcast loads instead of re-broadcasting on the shuffle port.
    /// 32 MACs per ~9 vector ops; accumulators never leave registers
    /// within a block.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, every entry's source row and
    /// `row` have length `w`, every weight row has length `2·pad + 1` —
    /// then every 16-byte load `src[xb+kx-pad..]` stays inside the row
    /// (`xb ≥ pad`, `xb + 16 ≤ w − pad`, `kx ≤ 2·pad`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_row(
        entries: &[(&[u8], &[i8])],
        pad: usize,
        w: usize,
        row: &mut [i32],
        wpack: &mut Vec<i32>,
    ) -> usize {
        let k = 2 * pad + 1;
        wpack.clear();
        let mut wpairs = entries.chunks_exact(2);
        for pair in wpairs.by_ref() {
            let (wa, wb) = (pair[0].1, pair[1].1);
            for kx in 0..k {
                let lo = wa[kx] as i16 as u16 as u32;
                let hi = wb[kx] as i16 as u16 as u32;
                wpack.push((lo | (hi << 16)) as i32);
            }
        }
        if let [(_, wa)] = wpairs.remainder() {
            for kx in 0..k {
                wpack.push(wa[kx] as i16 as u16 as u32 as i32);
            }
        }

        let nblocks = (w - 2 * pad) / 16;
        let mut xb = pad;
        for _ in 0..nblocks {
            block16(entries, wpack, k, pad, xb, row);
            xb += 16;
        }
        // Any tail narrower than a block is covered by one overlapping
        // block ending at the last interior column: each block computes its
        // sums from scratch and plain-stores them, so recomputing columns
        // the previous block already wrote stores the same values.
        let interior_end = w - pad;
        if xb < interior_end {
            block16(entries, wpack, k, pad, interior_end - 16, row);
        }
        interior_end
    }

    /// One 16-pixel block of [`accumulate_row`]: computes the full tap sum
    /// for output columns `[xb, xb + 16)` and stores it (no read-modify).
    ///
    /// # Safety
    /// Same contract as [`accumulate_row`], plus `pad ≤ xb ≤ w − pad − 16`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn block16(
        entries: &[(&[u8], &[i8])],
        wpack: &[i32],
        k: usize,
        pad: usize,
        xb: usize,
        row: &mut [i32],
    ) {
        let mut acc_lo = _mm256_setzero_si256();
        let mut acc_hi = _mm256_setzero_si256();
        let mut wi = 0usize;
        let mut pairs = entries.chunks_exact(2);
        for pair in pairs.by_ref() {
            let (ra, rb) = (pair[0].0, pair[1].0);
            for kx in 0..k {
                let off = xb + kx - pad;
                let xa = _mm_loadu_si128(ra.as_ptr().add(off).cast());
                let xb2 = _mm_loadu_si128(rb.as_ptr().add(off).cast());
                let wv = _mm256_set1_epi32(*wpack.get_unchecked(wi));
                wi += 1;
                let lo = _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(xa, xb2));
                let hi = _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(xa, xb2));
                acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(lo, wv));
                acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(hi, wv));
            }
        }
        if let [(ra, _)] = pairs.remainder() {
            let zero = _mm_setzero_si128();
            for kx in 0..k {
                let off = xb + kx - pad;
                let xa = _mm_loadu_si128(ra.as_ptr().add(off).cast());
                let wv = _mm256_set1_epi32(*wpack.get_unchecked(wi));
                wi += 1;
                let lo = _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(xa, zero));
                let hi = _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(xa, zero));
                acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(lo, wv));
                acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(hi, wv));
            }
        }
        _mm256_storeu_si256(row.as_mut_ptr().add(xb).cast(), acc_lo);
        _mm256_storeu_si256(row.as_mut_ptr().add(xb + 8).cast(), acc_hi);
    }

    /// Lane-parallel [`Requant::apply`][super::Requant::apply] over a
    /// whole plane: 32 accumulators per iteration, packed straight to
    /// `u8`. Bit-exact to the scalar definition — the biased sum is added
    /// in `i32` lanes, widened, multiplied in 64-bit lanes
    /// (`vpmuldq`), rounded with `(v + 2^(shift−1)) ≫ shift` (the form
    /// the scalar shift-pair identity equals), arithmetically shifted via
    /// the sign-bias trick (AVX2 has no 64-bit arithmetic shift), and
    /// truncated to `i32` before the `[0, 127]` clamp.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and
    /// [`Requant::vector_safe`][super::Requant::vector_safe] holds for
    /// the accumulator range of `acc` (the `i32` additions and the
    /// 64→32-bit truncation are exact only then). `acc` and `out` must
    /// have equal lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn requant_slice(rq: &super::Requant, acc: &[i32], out: &mut [u8]) {
        debug_assert_eq!(acc.len(), out.len());
        let bias = _mm256_set1_epi32(rq.bias);
        let mult = _mm256_set1_epi64x(rq.mult as i64);
        let rnd = _mm256_set1_epi64x(1i64 << (rq.shift - 1));
        let count = _mm_cvtsi32_si128(rq.shift as i32);
        let sign = _mm256_set1_epi64x(i64::MIN);
        let sign_shifted = _mm256_srl_epi64(sign, count);
        let low_idx = _mm256_set_epi32(0, 0, 0, 0, 6, 4, 2, 0);
        let zero = _mm256_setzero_si256();
        let qmax = _mm256_set1_epi32(super::QMAX);

        // One ymm of eight clamped i32 results.
        let quant8 = |v: __m256i| -> __m256i {
            let s = _mm256_add_epi32(v, bias);
            let halves = [
                _mm256_cvtepi32_epi64(_mm256_castsi256_si128(s)),
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256(s, 1)),
            ];
            let mut packed = [_mm_setzero_si128(); 2];
            for (p, &h64) in packed.iter_mut().zip(&halves) {
                let v = _mm256_add_epi64(_mm256_mul_epi32(h64, mult), rnd);
                // Arithmetic 64-bit shift: bias the sign bit, shift
                // logically, un-bias.
                let r = _mm256_sub_epi64(
                    _mm256_srl_epi64(_mm256_xor_si256(v, sign), count),
                    sign_shifted,
                );
                *p = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(r, low_idx));
            }
            let r32 = _mm256_set_m128i(packed[1], packed[0]);
            _mm256_min_epi32(_mm256_max_epi32(r32, zero), qmax)
        };

        let n32 = acc.len() / 32 * 32;
        let mut i = 0usize;
        while i < n32 {
            let q = [
                quant8(_mm256_loadu_si256(acc.as_ptr().add(i).cast())),
                quant8(_mm256_loadu_si256(acc.as_ptr().add(i + 8).cast())),
                quant8(_mm256_loadu_si256(acc.as_ptr().add(i + 16).cast())),
                quant8(_mm256_loadu_si256(acc.as_ptr().add(i + 24).cast())),
            ];
            // packus within 128-bit lanes, then permute the 64-bit
            // quarters back into linear order ([q0 q2 q1 q3]).
            let w0 = _mm256_permute4x64_epi64(_mm256_packus_epi32(q[0], q[1]), 0b1101_1000);
            let w1 = _mm256_permute4x64_epi64(_mm256_packus_epi32(q[2], q[3]), 0b1101_1000);
            let b = _mm256_permute4x64_epi64(_mm256_packus_epi16(w0, w1), 0b1101_1000);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), b);
            i += 32;
        }
        for j in n32..acc.len() {
            *out.get_unchecked_mut(j) = rq.apply(*acc.get_unchecked(j));
        }
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
/// requantization between layers and an f32 epilogue (dequantize, bias,
/// sigmoid) on the final logits.
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
    deq3a: f32,
    deq3b: f32,
    bias3: f32,
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
        let deq3a = scales.a1 * conv3a.w_scale()[0];
        let deq3b = scales.a2 * conv3b.w_scale()[0];
        Self {
            hidden,
            scales,
            conv1,
            rq1,
            conv2,
            rq2,
            conv3a,
            conv3b,
            deq3a,
            deq3b,
            bias3: c3.bias()[0],
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

    /// Quantized inference: the same sandwich-in, probability-map-out
    /// contract as [`NnS::infer`], on the int8 path.
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
        assert!(h % 2 == 0 && w % 2 == 0, "max-pool needs even dimensions");
        let (hw, hid) = (h * w, self.hidden);
        let mut xq = SCRATCH_U8.take(SANDWICH_CHANNELS * hw);
        quantize_activations(x.as_slice(), self.scales.input, &mut xq);
        let mut a1 = SCRATCH_U8.take(hid * hw);
        self.conv1.forward_requant(&xq, h, w, &self.rq1, &mut a1);
        let mut d = SCRATCH_U8.take(hid * hw / 4);
        maxpool2_into(&a1, hid, h, w, &mut d, u8::max);
        let mut a2 = SCRATCH_U8.take(hid * hw / 4);
        self.conv2
            .forward_requant(&d, h / 2, w / 2, &self.rq2, &mut a2);
        let mut up = SCRATCH_U8.take(hid * hw);
        upsample2_into(&a2, hid, h / 2, w / 2, &mut up);
        let mut acc_a = SCRATCH_I32.take(hw);
        self.conv3a.forward_i32(&a1, h, w, &mut acc_a);
        let mut acc_b = SCRATCH_I32.take(hw);
        self.conv3b.forward_i32(&up, h, w, &mut acc_b);
        let mut out = vec![0.0f32; hw];
        for ((o, &a), &b) in out.iter_mut().zip(acc_a.iter()).zip(acc_b.iter()) {
            *o = a as f32 * self.deq3a + b as f32 * self.deq3b + self.bias3;
        }
        sigmoid_in_place(&mut out);
        Tensor::from_vec(1, h, w, out)
    }
}

/// Naive integer kernels the SIMD paths are verified against, and the
/// exported portable entry point for pinning the fallback on machines
/// where the dispatcher would pick AVX2.
pub mod reference {
    use super::{QuantConv2d, Requant};

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

    /// Portable (non-SIMD) forward pass — bit-exact with both the naive
    /// reference and the AVX2 dispatcher; exported so the equivalence
    /// tests pin the fallback even on AVX2 machines.
    ///
    /// # Panics
    /// Panics on an input length mismatch.
    pub fn forward_i32_portable(conv: &QuantConv2d, x: &[u8], h: usize, w: usize) -> Vec<i32> {
        let (cin, cout, k) = (conv.cin(), conv.cout(), conv.kernel_size());
        assert_eq!(x.len(), cin * h * w, "conv input length mismatch");
        let pad = k / 2;
        let mut out = vec![0i32; cout * h * w];
        for co in 0..cout {
            let plane = &mut out[co * h * w..][..h * w];
            for y in 0..h {
                let mut entries: Vec<(&[u8], &[i8])> = Vec::new();
                for ci in 0..cin {
                    for ky in 0..k {
                        let sy = y as isize + ky as isize - pad as isize;
                        if sy < 0 || sy >= h as isize {
                            continue;
                        }
                        entries.push((
                            &x[(ci * h + sy as usize) * w..][..w],
                            &conv.weights()[((co * cin + ci) * k + ky) * k..][..k],
                        ));
                    }
                }
                super::portable_row(&entries, pad, w, &mut plane[y * w..][..w]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_input(cin: usize, h: usize, w: usize, seed: u64) -> Vec<u8> {
        (0..cin * h * w)
            .map(|i| (vrd_video::texture::hash2(i as i64, 7, seed) % 128) as u8)
            .collect()
    }

    #[test]
    fn forward_matches_reference_hd_width() {
        // Wide enough for the AVX2 interior path plus scalar edges/tail.
        let w: Vec<f32> = (0..8 * 3 * 9)
            .map(|i| ((i as f32 * 0.37).sin()) * 0.2)
            .collect();
        let conv = QuantConv2d::from_weights(3, 8, 3, &w);
        let x = test_input(3, 12, 61, 3);
        let mut fast = vec![0i32; 8 * 12 * 61];
        conv.forward_i32(&x, 12, 61, &mut fast);
        assert_eq!(fast, reference::forward_i32(&conv, &x, 12, 61));
        assert_eq!(fast, reference::forward_i32_portable(&conv, &x, 12, 61));
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
        maxpool2_into(&src, 2, 6, 8, &mut dq, u8::max);
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
