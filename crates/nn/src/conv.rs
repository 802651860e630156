//! 2D convolution: a layer is its shape and its parameters; the forward and
//! backward kernels take everything else — input, output gradient, the
//! buffers gradients are added into — from the caller.
//!
//! The forward kernel is row-tiled: for each output row it holds a
//! `CO_BLOCK`-channel × `TILE_W`-column block of accumulators in
//! registers across every `(ci, ky, kx)` tap, so the input streams through
//! the cache once per row instead of once per tap (see `tile`). The
//! backward kernels apply each tap as a slice AXPY over a whole row. Either
//! way the tap order per element is identical to the naive triple loop (see
//! [`mod@reference`]) and every tap is a multiply followed by an add, so the
//! optimised kernels are **bit-exact** with the reference — pinned by
//! property tests in `tests/conv_equivalence.rs`.
//!
//! Work above `PAR_MIN_MACS` is split across cores via `vrd-runtime`
//! (forward: per band of output rows; backward: per output channel for
//! weight gradients, per input channel for the input gradient). The
//! partitions write disjoint buffers in unchanged per-element order, so
//! results are independent of the thread count.

use crate::band::RowSpans;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Minimum multiply-accumulate count before a convolution pass fans out
/// across threads; below this the scoped-thread setup costs more than it
/// saves.
const PAR_MIN_MACS: u64 = 8_000_000;

/// Threads a pass of `macs` multiply-accumulates fans out to, in either
/// precision: every available one once the work reaches [`PAR_MIN_MACS`],
/// otherwise one.
pub(crate) fn auto_threads(macs: u64) -> usize {
    if macs >= PAR_MIN_MACS {
        vrd_runtime::max_threads()
    } else {
        1
    }
}

/// A stride-1, same-padded `k × k` convolution layer with bias: its shape and
/// its parameters, nothing else. Gradients and optimiser state belong to
/// whoever trains it (see [`crate::train`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    cin: usize,
    cout: usize,
    k: usize,
    /// Weights laid out `[cout][cin][k][k]`.
    w: Vec<f32>,
    b: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform initialised weights.
    ///
    /// # Panics
    /// Panics if any dimension is zero or `k` is even (same-padding needs an
    /// odd kernel).
    pub fn new(cin: usize, cout: usize, k: usize, seed: u64) -> Self {
        assert!(cin > 0 && cout > 0 && k > 0, "conv dims must be non-zero");
        assert!(k % 2 == 1, "same-padded convolution needs an odd kernel");
        let fan_in = (cin * k * k) as f32;
        let bound = (6.0 / fan_in).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = (0..cout * cin * k * k)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Self {
            cin,
            cout,
            k,
            w,
            b: vec![0.0; cout],
        }
    }

    /// Builds a layer from existing parameters — the one way parameters
    /// from outside (a model file, a test) become a layer.
    ///
    /// # Errors
    /// Returns a message if a dimension is zero, `k` is even, a length does
    /// not match the shape, or any weight or bias is not finite.
    pub fn from_params(
        cin: usize,
        cout: usize,
        k: usize,
        w: Vec<f32>,
        b: Vec<f32>,
    ) -> Result<Self, String> {
        if cin == 0 || cout == 0 || k.is_multiple_of(2) {
            return Err(format!(
                "bad shape {cin}x{cout}, kernel {k}: dims must be non-zero, the kernel odd"
            ));
        }
        let n = [cin, k, k]
            .iter()
            .try_fold(cout, |n, &d| n.checked_mul(d))
            .ok_or("shape overflows")?;
        if w.len() != n {
            return Err(format!("expected {n} weights, got {}", w.len()));
        }
        if b.len() != cout {
            return Err(format!("expected {cout} biases, got {}", b.len()));
        }
        for (what, vals) in [("weight", &w), ("bias", &b)] {
            if let Some((i, v)) = vals.iter().enumerate().find(|(_, v)| !v.is_finite()) {
                return Err(format!("{what} {i} is {v}"));
            }
        }
        Ok(Self { cin, cout, k, w, b })
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Input channel count.
    pub fn cin(&self) -> usize {
        self.cin
    }

    /// Output channel count.
    pub fn cout(&self) -> usize {
        self.cout
    }

    /// Kernel size (odd; the layer is same-padded).
    pub(crate) fn kernel_size(&self) -> usize {
        self.k
    }

    /// The weights, laid out `[cout][cin][k][k]`.
    pub fn weights(&self) -> &[f32] {
        &self.w
    }

    /// The biases, one per output channel.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Weights and biases, mutably — for the optimiser's update.
    pub(crate) fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.w, &mut self.b)
    }

    /// Multiply-accumulate operations for one forward pass over `h × w`.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        (self.cin * self.cout * self.k * self.k * h * w) as u64
    }

    /// Slice-level forward kernel: reads a `cin × h × w` input, writes the
    /// `cols` columns of a `cout × h × w` output with `epilogue` applied as
    /// each value is stored (every other element is left as it was). What
    /// the `NnS` graph runs on its pooled scratch buffers; the tensor API
    /// runs the same driver on every column.
    pub(crate) fn forward_into(
        &self,
        x: Input<'_>,
        out: &mut [f32],
        epilogue: Epilogue,
        cols: &RowSpans,
    ) {
        let threads = auto_threads(self.macs(cols.area(), 1));
        self.forward_banded(x, out, epilogue, cols, threads, band_dispatch);
    }

    /// Checks the shapes, then runs `body` on `bands` row bands of `out`
    /// ([`run_bands`]).
    fn forward_banded(
        &self,
        x: Input<'_>,
        out: &mut [f32],
        epilogue: Epilogue,
        cols: &RowSpans,
        bands: usize,
        body: BandBody,
    ) {
        let (h, w) = (x.h, x.w);
        assert_eq!(x.data.len(), self.cin * h * w, "conv input length mismatch");
        assert_eq!(out.len(), self.cout * h * w, "conv output length mismatch");
        assert_eq!(
            (cols.height(), cols.width()),
            (h, w),
            "conv span plane mismatch"
        );
        run_bands(out, cols, bands, |band| body(self, x, cols, band, epilogue));
    }

    fn forward_tensor(&self, x: &Tensor, bands: usize, body: BandBody) -> Tensor {
        assert_eq!(x.channels(), self.cin, "conv input channel mismatch");
        let (h, w) = (x.height(), x.width());
        let mut out = Tensor::zeros(self.cout, h, w);
        let cols = RowSpans::full(h, w);
        self.forward_banded(
            Input::of(x),
            out.as_mut_slice(),
            Epilogue::Linear,
            &cols,
            bands,
            body,
        );
        out
    }

    /// Forward pass on tensors.
    ///
    /// # Panics
    /// Panics if the input channel count differs from `cin`.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let threads = auto_threads(self.macs(x.height(), x.width()));
        self.forward_tensor(x, threads, band_dispatch)
    }

    /// [`Conv2d::forward_inference`] split into exactly `threads` row bands
    /// whatever the work size (for tests pinning thread-count invariance).
    ///
    /// # Panics
    /// Panics if the input channel count differs from `cin`.
    pub fn forward_inference_with(&self, x: &Tensor, threads: usize) -> Tensor {
        self.forward_tensor(x, threads, band_dispatch)
    }

    /// Weight/bias gradient accumulation for one output channel.
    fn backward_wb_plane(
        &self,
        co: usize,
        x: Input<'_>,
        gout: &[f32],
        row_nz: &[bool],
        gw_co: &mut [f32],
        gb_co: &mut f32,
    ) {
        let (h, w) = (x.h, x.w);
        let (k, pad) = (self.k, (self.k / 2) as isize);
        let gplane = &gout[co * h * w..][..h * w];
        let nz = &row_nz[co * h..][..h];
        // dL/db: plain sum of the output gradient, in (y, x) order. Rows
        // that are entirely zero are skipped — the sparse fast path for
        // ReLU-masked gradients — which cannot change the result.
        let mut acc = *gb_co;
        for y in 0..h {
            if !nz[y] {
                continue;
            }
            for &g in &gplane[y * w..][..w] {
                acc += g;
            }
        }
        *gb_co = acc;
        // dL/dw: per tap, a scalar running sum over (y, x) — kept scalar so
        // the accumulation order matches the reference exactly.
        for ci in 0..self.cin {
            let xplane = &x.data[ci * h * w..][..h * w];
            for ky in 0..k {
                let dy = ky as isize - pad;
                let y0 = (-dy).max(0) as usize;
                let y1 = (h as isize - dy).min(h as isize).max(0) as usize;
                for kx in 0..k {
                    let dx = kx as isize - pad;
                    let x0 = (-dx).max(0) as usize;
                    let x1 = (w as isize - dx).min(w as isize).max(0) as usize;
                    if x0 >= x1 {
                        continue;
                    }
                    let wi = (ci * k + ky) * k + kx;
                    let mut acc = gw_co[wi];
                    for y in y0..y1 {
                        if !nz[y] {
                            continue;
                        }
                        let sy = (y as isize + dy) as usize;
                        let sx = (x0 as isize + dx) as usize;
                        let grow = &gplane[y * w + x0..y * w + x1];
                        let xrow = &xplane[sy * w + sx..][..x1 - x0];
                        for (&g, &xv) in grow.iter().zip(xrow) {
                            acc += g * xv;
                        }
                    }
                    gw_co[wi] = acc;
                }
            }
        }
    }

    /// Input-gradient accumulation for one input channel.
    ///
    /// The naive loop delivers contributions to a fixed input element in
    /// ascending `(co, y, x)` order of the output elements; iterating the
    /// kernel taps in *descending* `(ky, kx)` order reproduces exactly that,
    /// so this scatter is bit-exact with the reference.
    fn backward_gin_plane(
        &self,
        ci: usize,
        gout: &[f32],
        (h, w): (usize, usize),
        row_nz: &[bool],
        gplane_in: &mut [f32],
    ) {
        let (k, pad) = (self.k, (self.k / 2) as isize);
        for co in 0..self.cout {
            let gplane = &gout[co * h * w..][..h * w];
            let nz = &row_nz[co * h..][..h];
            for ky in (0..k).rev() {
                let dy = ky as isize - pad;
                let y0 = (-dy).max(0) as usize;
                let y1 = (h as isize - dy).min(h as isize).max(0) as usize;
                for kx in (0..k).rev() {
                    let dx = kx as isize - pad;
                    let x0 = (-dx).max(0) as usize;
                    let x1 = (w as isize - dx).min(w as isize).max(0) as usize;
                    if x0 >= x1 {
                        continue;
                    }
                    let wv = self.w[((co * self.cin + ci) * k + ky) * k + kx];
                    for y in y0..y1 {
                        if !nz[y] {
                            continue;
                        }
                        let sy = (y as isize + dy) as usize;
                        let sx = (x0 as isize + dx) as usize;
                        let grow = &gplane[y * w + x0..y * w + x1];
                        let irow = &mut gplane_in[sy * w + sx..][..x1 - x0];
                        for (i, &g) in irow.iter_mut().zip(grow) {
                            *i += wv * g;
                        }
                    }
                }
            }
        }
    }

    /// Slice-level backward pass over a `cin × h × w` input `x` and the
    /// `cout × h × w` output gradient `gout`: adds dL/dw into `gw` and dL/db
    /// into `gb` (both shaped like [`Conv2d::weights`] / [`Conv2d::bias`]),
    /// and, when asked for, adds dL/dx into `gin`.
    pub(crate) fn backward_into(
        &self,
        x: Input<'_>,
        gout: &[f32],
        gw: &mut [f32],
        gb: &mut [f32],
        gin: Option<&mut [f32]>,
    ) {
        let (h, w) = (x.h, x.w);
        assert_eq!(x.data.len(), self.cin * h * w, "conv input length mismatch");
        assert_eq!(gout.len(), self.cout * h * w, "grad length mismatch");
        assert_eq!(gw.len(), self.w.len(), "weight-grad length mismatch");
        assert_eq!(gb.len(), self.b.len(), "bias-grad length mismatch");
        // Row-granular zero map: gradients arriving through ReLU masks are
        // often zero-heavy, and whole-zero rows contribute nothing to any
        // gradient, so each pass skips them up front.
        let row_nz: Vec<bool> = gout
            .chunks(w)
            .map(|row| row.iter().any(|&g| g != 0.0))
            .collect();
        let threads = auto_threads(self.macs(h, w));

        // Pass A — weight and bias gradients, partitioned by output channel
        // (each owns a disjoint `gw` block and `gb` element).
        let wb_len = self.cin * self.k * self.k;
        let items: Vec<(usize, (&mut [f32], &mut f32))> = gw
            .chunks_mut(wb_len)
            .zip(gb.iter_mut())
            .enumerate()
            .collect();
        vrd_runtime::parallel_for_each_with(items, threads, |(co, (gw_co, gb_co))| {
            self.backward_wb_plane(co, x, gout, &row_nz, gw_co, gb_co);
        });

        // Pass B — input gradient, partitioned by input channel.
        let Some(gin) = gin else { return };
        assert_eq!(gin.len(), self.cin * h * w, "input-grad length mismatch");
        let items: Vec<(usize, &mut [f32])> = gin.chunks_mut(h * w).enumerate().collect();
        vrd_runtime::parallel_for_each_with(items, threads, |(ci, plane)| {
            self.backward_gin_plane(ci, gout, (h, w), &row_nz, plane);
        });
    }

    /// Backward pass for the input `x` and the output gradient `gout`: adds
    /// the weight and bias gradients into `gw` and `gb` and returns the
    /// gradient with respect to the input.
    ///
    /// # Panics
    /// Panics if `x` or `gout` does not match the layer's shape or each
    /// other's, or `gw` / `gb` the parameters' lengths.
    pub fn backward(&self, x: &Tensor, gout: &Tensor, gw: &mut [f32], gb: &mut [f32]) -> Tensor {
        // With the spatial sizes equal, the slice pass's length checks are
        // the channel checks.
        let (h, w) = (x.height(), x.width());
        assert_eq!(
            (gout.height(), gout.width()),
            (h, w),
            "grad spatial mismatch"
        );
        let mut gin = Tensor::zeros(self.cin, h, w);
        self.backward_into(
            Input::of(x),
            gout.as_slice(),
            gw,
            gb,
            Some(gin.as_mut_slice()),
        );
        gin
    }
}

/// Output columns per register tile of the forward kernel.
const TILE_W: usize = 32;

/// Lanes per accumulator vector: the unit the tile loops are written in, so
/// the compiler sees fixed eight-wide groups (one AVX2 register, two SSE2).
const LANES: usize = 8;

/// The tile widths a span's columns are covered with: whole [`TILE_W`]
/// tiles, then one tile of the narrowest width that covers the rest.
const TILE_WIDTHS: [usize; 3] = [TILE_W, TILE_W / 2, LANES];

/// Output channels per register tile of the forward kernel.
const CO_BLOCK: usize = 2;

/// What the forward kernel applies to each value as it stores it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Epilogue {
    /// Store the accumulator as is.
    Linear,
    /// Store `v.max(0.0)` — the expression of `layers::relu_in_place`.
    Relu,
}

impl Epilogue {
    #[inline(always)]
    fn apply(self, v: f32) -> f32 {
        match self {
            Epilogue::Linear => v,
            Epilogue::Relu => v.max(0.0),
        }
    }
}

/// A `cin × h × w` layer input as the slice-level kernels take it (f32, or
/// `u8` activations for the quantized kernels).
#[derive(Clone, Copy)]
pub(crate) struct Input<'a, T = f32> {
    pub(crate) data: &'a [T],
    pub(crate) h: usize,
    pub(crate) w: usize,
}

impl<'a, T> Input<'a, T> {
    pub(crate) fn new(data: &'a [T], h: usize, w: usize) -> Self {
        Self { data, h, w }
    }
}

impl<'a> Input<'a> {
    pub(crate) fn of(x: &'a Tensor) -> Self {
        Self::new(x.as_slice(), x.height(), x.width())
    }
}

/// One band of output rows: rows `y0..` of every output-channel plane.
pub(crate) struct Band<'a, T = f32> {
    pub(crate) y0: usize,
    pub(crate) planes: Vec<&'a mut [T]>,
}

/// The row-band driver of both precisions' convolutions: cuts the rows of
/// `out` (planes of `cols`' `h × w`) into at most `bands` contiguous bands
/// holding about equal shares of `cols`' pixels ([`RowSpans::cuts`]) —
/// each band a disjoint set of row slices, one per plane — and runs `body`
/// on each, one thread per band. Every element a body computes it computes
/// from scratch, in exactly one band, so the result does not depend on
/// `bands`.
pub(crate) fn run_bands<T: Send>(
    out: &mut [T],
    cols: &RowSpans,
    bands: usize,
    body: impl Fn(Band<'_, T>) + Sync,
) {
    let (h, w) = (cols.height(), cols.width());
    if h == 0 || w == 0 {
        return;
    }
    let cuts = cols.cuts(bands);
    let mut work: Vec<Band<'_, T>> = cuts
        .iter()
        .map(|&y0| Band {
            y0,
            planes: Vec::with_capacity(out.len() / (h * w)),
        })
        .collect();
    for mut plane in out.chunks_mut(h * w) {
        for (i, band) in work.iter_mut().enumerate() {
            let end = cuts.get(i + 1).copied().unwrap_or(h);
            let (rows, rest) = plane.split_at_mut((end - band.y0) * w);
            band.planes.push(rows);
            plane = rest;
        }
    }
    let threads = work.len();
    vrd_runtime::parallel_for_each_with(work, threads, body);
}

/// One output row as the kernels see it.
struct Row {
    /// Output row index in the frame.
    y: usize,
    /// In-range kernel rows for this output row.
    taps_y: std::ops::Range<usize>,
    /// Offset of this row inside each of the band's plane slices.
    offset: usize,
}

type BandBody = fn(&Conv2d, Input<'_>, &RowSpans, Band<'_>, Epilogue);

/// [`band_body`] compiled for the baseline target.
fn band_portable(conv: &Conv2d, x: Input<'_>, cols: &RowSpans, band: Band<'_>, epilogue: Epilogue) {
    band_body(conv, x, cols, band, epilogue);
}

/// [`band_body`] compiled with AVX2 enabled. `fma` is deliberately left
/// off: a fused multiply-add rounds once where the reference rounds twice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn band_avx2(conv: &Conv2d, x: Input<'_>, cols: &RowSpans, band: Band<'_>, epilogue: Epilogue) {
    band_body(conv, x, cols, band, epilogue);
}

/// The AVX2 build of the band kernel on an `x86_64` CPU that has it;
/// [`band_portable`] otherwise.
fn band_dispatch(conv: &Conv2d, x: Input<'_>, cols: &RowSpans, band: Band<'_>, epilogue: Epilogue) {
    #[cfg(target_arch = "x86_64")]
    if crate::quant::avx2_enabled() {
        // SAFETY: AVX2 was just detected on this CPU, which is all
        // `band_avx2` (safe code compiled for that target) requires.
        return unsafe { band_avx2(conv, x, cols, band, epilogue) };
    }
    band_portable(conv, x, cols, band, epilogue);
}

/// The tiles `(start, width)` covering the columns `[a, b)` of `interior`
/// (at least `widths[0]` wide): `widths[0]`-wide tiles back to back from
/// `a`, then one tile of the narrowest of `widths` (descending) that covers
/// the rest, each moved left to end inside the interior. A tile may reach
/// past `b`, which costs a few columns the caller did not ask for (tiles
/// compute from scratch and plain-store, so a column stored twice is stored
/// the same).
pub(crate) fn tiles<'a>(
    (a, b): (usize, usize),
    interior: &'a std::ops::Range<usize>,
    widths: &'a [usize],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let mut next = a;
    std::iter::from_fn(move || {
        let rest = b.checked_sub(next).filter(|&r| r > 0)?;
        let width = widths
            .iter()
            .rev()
            .find(|&&w| w >= rest)
            .map_or(widths[0], |&w| w);
        let x0 = next.min(interior.end - width);
        next = x0 + width;
        Some((x0, width))
    })
}

/// Computes the `cols` columns of one band of output rows.
///
/// Per span, the interior columns — where every `kx` tap is in range,
/// `[pad, w − pad)` — are covered by register tiles ([`tiles`] of
/// [`TILE_WIDTHS`]), [`CO_BLOCK`] output channels at a time. The `pad`
/// edge columns, and whole rows narrower than one tile, go through
/// [`pixel`].
#[inline(always)]
fn band_body(conv: &Conv2d, x: Input<'_>, cols: &RowSpans, mut band: Band<'_>, epilogue: Epilogue) {
    let (k, pad, w) = (conv.k, conv.k / 2, x.w);
    let rows = band.planes.first().map_or(0, |p| p.len() / w);
    let full_blocks = conv.cout - conv.cout % CO_BLOCK;
    // The columns the register tiles cover; everything outside is an edge.
    let interior = if w >= TILE_W + 2 * pad {
        pad..w - pad
    } else {
        0..0
    };
    for r in 0..rows {
        let y = band.y0 + r;
        let row = Row {
            y,
            // Kernel rows whose source row `y + ky − pad` is inside the frame.
            taps_y: pad.saturating_sub(y)..k.min(x.h + pad - y),
            offset: r * w,
        };
        for &(s, e) in cols.row(y) {
            let inner = (s.max(interior.start), e.min(interior.end));
            for (x0, width) in tiles(inner, &interior, &TILE_WIDTHS) {
                let planes = &mut band.planes;
                for co0 in (0..full_blocks).step_by(CO_BLOCK) {
                    match width {
                        TILE_W => tile::<CO_BLOCK, 4>(conv, x, &row, x0, co0, planes, epilogue),
                        16 => tile::<CO_BLOCK, 2>(conv, x, &row, x0, co0, planes, epilogue),
                        _ => tile::<CO_BLOCK, 1>(conv, x, &row, x0, co0, planes, epilogue),
                    }
                }
                for co in full_blocks..conv.cout {
                    match width {
                        TILE_W => tile::<1, 4>(conv, x, &row, x0, co, planes, epilogue),
                        16 => tile::<1, 2>(conv, x, &row, x0, co, planes, epilogue),
                        _ => tile::<1, 1>(conv, x, &row, x0, co, planes, epilogue),
                    }
                }
            }
            for (co, plane) in band.planes.iter_mut().enumerate() {
                for xp in (s..e.min(interior.start)).chain(s.max(interior.end)..e) {
                    plane[row.offset + xp] = epilogue.apply(pixel(conv, x, &row, co, xp));
                }
            }
        }
    }
}

/// One register tile: output columns `[x0, x0 + 8·V)` of channels
/// `[co0, co0 + NCO)` on one row. The accumulators start at the bias and
/// take the taps in ascending `(ci, ky, kx)` order, each as a multiply
/// followed by an add — per element, exactly the reference's sequence.
///
/// The caller guarantees `pad ≤ x0` and `x0 + 8·V ≤ w − pad`, so every
/// `kx` tap of every column is in range.
#[inline(always)]
fn tile<const NCO: usize, const V: usize>(
    conv: &Conv2d,
    x: Input<'_>,
    row: &Row,
    x0: usize,
    co0: usize,
    planes: &mut [&mut [f32]],
    epilogue: Epilogue,
) {
    let (cin, k, pad) = (conv.cin, conv.k, conv.k / 2);
    let mut acc = [[[0.0f32; LANES]; V]; NCO];
    for (c, a) in acc.iter_mut().enumerate() {
        *a = [[conv.b[co0 + c]; LANES]; V];
    }
    for ci in 0..cin {
        for ky in row.taps_y.clone() {
            let sy = row.y + ky - pad;
            let src = &x.data[(ci * x.h + sy) * x.w + x0 - pad..][..V * LANES + k - 1];
            let taps: [&[f32]; NCO] =
                std::array::from_fn(|c| &conv.w[(((co0 + c) * cin + ci) * k + ky) * k..][..k]);
            for kx in 0..k {
                let xs = &src[kx..][..V * LANES];
                for (a, wrow) in acc.iter_mut().zip(taps) {
                    let wv = wrow[kx];
                    for (av, xv) in a.iter_mut().zip(xs.chunks_exact(LANES)) {
                        for (o, &xl) in av.iter_mut().zip(xv) {
                            *o += wv * xl;
                        }
                    }
                }
            }
        }
    }
    for (c, a) in acc.iter().enumerate() {
        let dst = &mut planes[co0 + c][row.offset + x0..][..V * LANES];
        for (ov, av) in dst.chunks_exact_mut(LANES).zip(a) {
            for (o, &v) in ov.iter_mut().zip(av) {
                *o = epilogue.apply(v);
            }
        }
    }
}

/// One output value the scalar way: bias, then every in-range tap in
/// ascending `(ci, ky, kx)` order. Out-of-range taps are skipped, not added
/// as zeros (`-0.0 + 0.0` is `+0.0`, so padding with zeros could flip a
/// sign the reference keeps).
#[inline(always)]
fn pixel(conv: &Conv2d, x: Input<'_>, row: &Row, co: usize, xp: usize) -> f32 {
    let (cin, k, pad) = (conv.cin, conv.k, conv.k / 2);
    let taps_x = pad.saturating_sub(xp)..k.min(x.w + pad - xp);
    let mut acc = conv.b[co];
    for ci in 0..cin {
        for ky in row.taps_y.clone() {
            let sy = row.y + ky - pad;
            let src = &x.data[(ci * x.h + sy) * x.w..][..x.w];
            let wrow = &conv.w[((co * cin + ci) * k + ky) * k..][..k];
            for kx in taps_x.clone() {
                acc += wrow[kx] * src[xp + kx - pad];
            }
        }
    }
    acc
}

/// The naive per-element kernels the optimised paths are verified against.
///
/// These are the original triple-loop implementations, kept as the ground
/// truth for the equivalence property tests (and as the baseline in the
/// micro benchmarks). They accumulate in the same order the optimised
/// kernels do, so equality is exact, not approximate.
pub mod reference {
    use super::Conv2d;
    use crate::tensor::Tensor;

    /// Naive forward pass.
    ///
    /// # Panics
    /// Panics if the input channel count differs from the layer's.
    pub fn forward(conv: &Conv2d, x: &Tensor) -> Tensor {
        assert_eq!(x.channels(), conv.cin, "conv input channel mismatch");
        let (h, w) = (x.height(), x.width());
        let pad = (conv.k / 2) as i32;
        let mut out = Tensor::zeros(conv.cout, h, w);
        for co in 0..conv.cout {
            for y in 0..h {
                for xp in 0..w {
                    let mut acc = conv.b[co];
                    for ci in 0..conv.cin {
                        for ky in 0..conv.k {
                            let sy = y as i32 + ky as i32 - pad;
                            if sy < 0 || sy >= h as i32 {
                                continue;
                            }
                            for kx in 0..conv.k {
                                let sx = xp as i32 + kx as i32 - pad;
                                if sx < 0 || sx >= w as i32 {
                                    continue;
                                }
                                let wi = ((co * conv.cin + ci) * conv.k + ky) * conv.k + kx;
                                acc += conv.w[wi] * x.get(ci, sy as usize, sx as usize);
                            }
                        }
                    }
                    out.set(co, y, xp, acc);
                }
            }
        }
        out
    }

    /// The row-tiled forward kernel on its portable body, in `threads` row
    /// bands — bit-exact with both [`forward`] and the dispatched kernel;
    /// exported so the equivalence tests pin the fallback even on AVX2
    /// machines.
    ///
    /// # Panics
    /// Panics if the input channel count differs from the layer's.
    pub fn forward_portable(conv: &Conv2d, x: &Tensor, threads: usize) -> Tensor {
        conv.forward_tensor(x, threads, super::band_portable)
    }

    /// Naive backward pass over an explicit input; returns
    /// `(gin, gw, gb)` without touching the layer's own gradient buffers.
    ///
    /// # Panics
    /// Panics on a gradient shape mismatch.
    #[allow(clippy::needless_range_loop)] // keep the naive loop nest verbatim
    pub fn backward(conv: &Conv2d, x: &Tensor, gout: &Tensor) -> (Tensor, Vec<f32>, Vec<f32>) {
        assert_eq!(gout.channels(), conv.cout, "grad channel mismatch");
        assert_eq!(
            (gout.height(), gout.width()),
            (x.height(), x.width()),
            "grad spatial mismatch"
        );
        let (h, w) = (x.height(), x.width());
        let pad = (conv.k / 2) as i32;
        let mut gin = Tensor::zeros(conv.cin, h, w);
        let mut gw = vec![0.0; conv.w.len()];
        let mut gb = vec![0.0; conv.b.len()];
        for co in 0..conv.cout {
            for y in 0..h {
                for xp in 0..w {
                    let g = gout.get(co, y, xp);
                    if g == 0.0 {
                        continue;
                    }
                    gb[co] += g;
                    for ci in 0..conv.cin {
                        for ky in 0..conv.k {
                            let sy = y as i32 + ky as i32 - pad;
                            if sy < 0 || sy >= h as i32 {
                                continue;
                            }
                            for kx in 0..conv.k {
                                let sx = xp as i32 + kx as i32 - pad;
                                if sx < 0 || sx >= w as i32 {
                                    continue;
                                }
                                let wi = ((co * conv.cin + ci) * conv.k + ky) * conv.k + kx;
                                gw[wi] += g * x.get(ci, sy as usize, sx as usize);
                                let cur = gin.get(ci, sy as usize, sx as usize);
                                gin.set(ci, sy as usize, sx as usize, cur + g * conv.w[wi]);
                            }
                        }
                    }
                }
            }
        }
        (gin, gw, gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zeroed gradient buffers shaped like `conv`'s parameters.
    fn zero_grads(conv: &Conv2d) -> (Vec<f32>, Vec<f32>) {
        (
            vec![0.0; conv.weights().len()],
            vec![0.0; conv.bias().len()],
        )
    }

    /// Half the sum of squares of the output: dL/dy = y.
    fn half_sq_loss(conv: &Conv2d, x: &Tensor) -> f32 {
        let y = conv.forward_inference(x);
        y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut w = vec![0.0; 9];
        w[4] = 1.0; // centre tap
        let conv = Conv2d::from_params(1, 1, 3, w, vec![0.0]).unwrap();
        let x = Tensor::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward_inference(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn from_params_validates_shape_and_values() {
        let ok = |w: Vec<f32>, b: Vec<f32>| Conv2d::from_params(2, 3, 3, w, b);
        assert!(ok(vec![0.5; 54], vec![0.0; 3]).is_ok());
        assert!(ok(vec![0.5; 53], vec![0.0; 3])
            .unwrap_err()
            .contains("expected 54 weights, got 53"));
        assert!(ok(vec![0.5; 54], vec![0.0; 2])
            .unwrap_err()
            .contains("expected 3 biases, got 2"));
        let mut w = vec![0.5; 54];
        w[17] = f32::NAN;
        assert!(ok(w, vec![0.0; 3])
            .unwrap_err()
            .contains("weight 17 is NaN"));
        let b = vec![0.0, f32::NEG_INFINITY, 0.0];
        assert!(ok(vec![0.5; 54], b).unwrap_err().contains("bias 1 is -inf"));
        assert!(Conv2d::from_params(0, 1, 3, vec![], vec![0.0]).is_err());
        assert!(Conv2d::from_params(1, 1, 2, vec![0.0; 4], vec![0.0]).is_err());
        assert!(Conv2d::from_params(usize::MAX, 2, 3, vec![], vec![0.0; 2]).is_err());
    }

    #[test]
    fn optimized_forward_is_bit_exact_with_reference() {
        let conv = Conv2d::new(2, 4, 5, 9);
        let x = Tensor::from_vec(
            2,
            9,
            11,
            (0..198).map(|v| (v as f32 * 0.37).cos()).collect(),
        );
        let fast = conv.forward_inference(&x);
        let naive = reference::forward(&conv, &x);
        assert_eq!(fast.as_slice(), naive.as_slice());
    }

    #[test]
    fn optimized_backward_is_bit_exact_with_reference() {
        let conv = Conv2d::new(2, 3, 3, 5);
        let x = Tensor::from_vec(2, 6, 8, (0..96).map(|v| (v as f32 * 0.13).sin()).collect());
        let y = conv.forward_inference(&x);
        let (mut gw, mut gb) = zero_grads(&conv);
        let gin = conv.backward(&x, &y, &mut gw, &mut gb);
        let (gin_ref, gw_ref, gb_ref) = reference::backward(&conv, &x, &y);
        assert_eq!(gin.as_slice(), gin_ref.as_slice());
        assert_eq!(gw, gw_ref);
        assert_eq!(gb, gb_ref);
    }

    #[test]
    fn macs_and_params_counts() {
        let conv = Conv2d::new(3, 8, 3, 0);
        assert_eq!(conv.n_params(), 3 * 8 * 9 + 8);
        assert_eq!(conv.macs(10, 10), 3 * 8 * 9 * 100);
    }

    #[test]
    fn gradient_check_single_weight() {
        // Numerical vs analytical gradient for one weight and one input.
        let mut conv = Conv2d::new(1, 1, 3, 42);
        let x = Tensor::from_vec(1, 3, 3, (1..=9).map(|v| v as f32 / 9.0).collect());
        let wi = 2; // an arbitrary weight index

        // Analytical.
        let y = conv.forward_inference(&x);
        let (mut gw, mut gb) = zero_grads(&conv);
        let _ = conv.backward(&x, &y, &mut gw, &mut gb);
        let analytic = gw[wi];

        // Numerical.
        let eps = 1e-3;
        conv.params_mut().0[wi] += eps;
        let lp = half_sq_loss(&conv, &x);
        conv.params_mut().0[wi] -= 2.0 * eps;
        let lm = half_sq_loss(&conv, &x);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn gradient_check_input() {
        let conv = Conv2d::new(2, 3, 3, 7);
        let mut x = Tensor::from_vec(2, 3, 3, (0..18).map(|v| (v as f32) / 18.0).collect());
        let y = conv.forward_inference(&x);
        let (mut gw, mut gb) = zero_grads(&conv);
        let gin = conv.backward(&x, &y, &mut gw, &mut gb);
        // Numerical gradient for input element (1, 1, 1).
        let eps = 1e-3;
        let idx = (1usize, 1usize, 1usize);
        let orig = x.get(idx.0, idx.1, idx.2);
        x.set(idx.0, idx.1, idx.2, orig + eps);
        let lp = half_sq_loss(&conv, &x);
        x.set(idx.0, idx.1, idx.2, orig - eps);
        let lm = half_sq_loss(&conv, &x);
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = gin.get(idx.0, idx.1, idx.2);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn backward_adds_into_the_gradient_buffers() {
        // Two passes into the same buffers leave twice one pass: the
        // buffers are accumulated into, never reset.
        let conv = Conv2d::new(2, 2, 3, 1);
        let x = Tensor::from_vec(2, 4, 4, (0..32).map(|v| v as f32 / 32.0).collect());
        let y = conv.forward_inference(&x);
        let (mut gw1, mut gb1) = zero_grads(&conv);
        let _ = conv.backward(&x, &y, &mut gw1, &mut gb1);
        let (mut gw2, mut gb2) = (gw1.clone(), gb1.clone());
        let _ = conv.backward(&x, &y, &mut gw2, &mut gb2);
        assert!(gw2
            .iter()
            .zip(&gw1)
            .all(|(b, a)| (b - 2.0 * a).abs() < 1e-4));
        assert!(gb2
            .iter()
            .zip(&gb1)
            .all(|(b, a)| (b - 2.0 * a).abs() < 1e-4));
    }
}
