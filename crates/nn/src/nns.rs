//! NN-S: the paper's lightweight refinement network (§III-A2).
//!
//! "NN-S is a 3-layer convolution neural network, including convolution,
//! downsampling, convolution, upsampling, concatenate and convolution
//! layers." The input is the sandwich 3-channel image (previous reference
//! segmentation / reconstructed B-frame / next reference segmentation); the
//! output is a single-channel refined foreground probability.
//!
//! That topology is written down in one place, `NnS::walk`. Inference is
//! the walk plus a sigmoid, calibration the walk plus three abs-max
//! reductions, and a training step the walk plus the backward pass over
//! the activations it kept; all three take a dense tensor. The mask takes
//! the input as the engine holds it — packed planes, [`SandwichPlanes`] —
//! and is `crate::band`'s one mask path, the int8 graph's too: this module
//! supplies only the f32 codes, the activation buffers and the walk. Every
//! walk takes its buffers from one recycled scratch struct. (The int8
//! graph in [`crate::quant`] is a second arithmetic — requantisation
//! between layers — not a second copy.)

use crate::band::{
    self, capacity_bytes, roles, stale, Banded, CutTable, Graph, Plan, Recycler, SandwichPlanes,
    Scratch,
};
use crate::conv::{Conv2d, Epilogue, Input};
use crate::layers::{
    maxpool2_backward, maxpool2_span_into, relu_backward, sigmoid_in_place, upsample2_backward,
    upsample2_span_into,
};
use crate::loss::bce_with_logits;
use crate::quant::{ActScales, QuantNnS};
use crate::tensor::Tensor;
use crate::trainer::Grads;
use std::sync::OnceLock;
use vrd_video::SegMask;

/// Channels of the sandwich input.
pub(crate) const SANDWICH_CHANNELS: usize = 3;

/// The values of black, gray and white sandwich pixels in an f32 input.
const F32_CODES: [f32; 3] = [0.0, 0.5, 1.0];

/// The scratch of every walk, one struct per walk in flight (a dense
/// walk's or one of [`NnS::mask`]'s tiles), recycled across calls so
/// steady-state refinement does not allocate per call.
static SCRATCH: Recycler<Scratch<f32, Activations<Vec<f32>>>> = Recycler::new();

/// The NN-S refinement network.
#[derive(Debug, Clone)]
pub struct NnS {
    hidden: usize,
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    act_scales: Option<ActScales>,
    /// The cut bit of each code triple's constant image, for the pixels
    /// [`NnS::mask`] does not compute: built on first use, dropped whenever
    /// the weights change.
    cuts: OnceLock<CutTable>,
}

/// What one walk of the graph leaves behind, one buffer `B` per role.
/// Inference reads `logits`, calibration the ranges of `a1` and `a2`, and
/// the backward pass all of it.
#[derive(Default)]
pub(crate) struct Activations<B> {
    /// conv3's input: conv1's post-ReLU output `a1` in the first `hidden`
    /// channels, the upsampled `a2` in the rest.
    cat: B,
    /// `a1` max-pooled to half resolution: conv2's input.
    d: B,
    /// conv2's post-ReLU output.
    a2: B,
    /// conv3's output, one channel at full resolution.
    logits: B,
}

impl NnS {
    /// Builds NN-S with `hidden` feature channels and seeded initialisation.
    ///
    /// # Panics
    /// Panics if `hidden` is zero.
    pub fn new(hidden: usize, seed: u64) -> Self {
        assert!(hidden > 0, "hidden channel count must be non-zero");
        Self {
            hidden,
            conv1: Conv2d::new(SANDWICH_CHANNELS, hidden, 3, seed ^ 0x01),
            conv2: Conv2d::new(hidden, hidden, 3, seed ^ 0x02),
            conv3: Conv2d::new(2 * hidden, 1, 3, seed ^ 0x03),
            act_scales: None,
            cuts: OnceLock::new(),
        }
    }

    /// Rebuilds a model from its three convolutions and, when it was
    /// calibrated, its activation scales (what a model file holds).
    ///
    /// # Errors
    /// Returns a message if the layers do not chain into the NN-S topology
    /// (`3 → hidden`, `hidden → hidden`, `2·hidden → 1`, all 3×3) or the
    /// scales are not usable.
    pub fn from_parts(
        conv1: Conv2d,
        conv2: Conv2d,
        conv3: Conv2d,
        act_scales: Option<ActScales>,
    ) -> Result<Self, String> {
        let hidden = conv1.cout();
        let got = [&conv1, &conv2, &conv3].map(|c| (c.cin(), c.cout(), c.kernel_size()));
        let expected = [
            (SANDWICH_CHANNELS, hidden, 3),
            (hidden, hidden, 3),
            (2 * hidden, 1, 3),
        ];
        if got != expected {
            return Err(format!(
                "layers {got:?} are not an NN-S of width {hidden} ({expected:?})"
            ));
        }
        if let Some(scales) = &act_scales {
            scales.validate()?;
        }
        Ok(Self {
            hidden,
            conv1,
            conv2,
            conv3,
            act_scales,
            cuts: OnceLock::new(),
        })
    }

    /// Hidden feature-channel width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The three convolution layers, in graph order.
    pub fn convs(&self) -> (&Conv2d, &Conv2d, &Conv2d) {
        (&self.conv1, &self.conv2, &self.conv3)
    }

    /// The three convolution layers, mutably — for the optimiser's update.
    pub(crate) fn convs_mut(&mut self) -> [&mut Conv2d; 3] {
        self.cuts = OnceLock::new();
        [&mut self.conv1, &mut self.conv2, &mut self.conv3]
    }

    /// Calibrated activation scales, if [`NnS::calibrate`] ran (or a
    /// deserialised model carried them).
    pub fn act_scales(&self) -> Option<ActScales> {
        self.act_scales
    }

    /// Observes activation ranges on a calibration set and stores the
    /// resulting [`ActScales`], tightening the quantized path's resolution
    /// versus the conservative weight-norm bound. Weights are untouched.
    ///
    /// # Panics
    /// Panics if any input has the wrong channel count or odd dimensions.
    pub fn calibrate(&mut self, inputs: &[&Tensor]) {
        let mut maxes = [0.0f32; 3];
        for x in inputs {
            SCRATCH.with(|s| {
                let plan = Plan::dense(x.height(), x.width());
                let acts = self.walk(Input::of(x), &plan, &mut s.walk);
                let a1 = &acts.cat[..self.hidden * x.height() * x.width()];
                for (m, s) in maxes.iter_mut().zip([x.as_slice(), a1, acts.a2]) {
                    *m = s.iter().fold(*m, |m, v| m.max(v.abs()));
                }
            });
        }
        self.act_scales = Some(ActScales::from_maxes(maxes[0], maxes[1], maxes[2]));
    }

    /// Builds the quantized twin of this model ([`QuantNnS`]), using the
    /// calibrated activation scales when present. Quantize once and reuse:
    /// the weight quantization is the expensive part.
    pub fn quantize(&self) -> QuantNnS {
        QuantNnS::from_nns(self)
    }

    /// Total trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.conv1.n_params() + self.conv2.n_params() + self.conv3.n_params()
    }

    /// Multiply-accumulate count of one inference over an `h`×`w` input.
    /// This is the number the simulator charges the NPU for a B-frame
    /// refinement.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        self.conv1.macs(h, w) + self.conv2.macs(h / 2, w / 2) + self.conv3.macs(h, w)
    }

    /// The NN-S graph, spelled once: conv1 + ReLU → 2×2 max-pool → conv2 +
    /// ReLU → 2× upsample → concatenate with conv1's output → conv3, each
    /// stage on its `plan` columns of its role's buffer in `bufs` (grown to
    /// fit, every other element left stale). The ReLUs are fused into the
    /// conv stores and conv1 writes straight into the concatenation buffer,
    /// so inference pays nothing for the activations only training reads
    /// afterwards.
    ///
    /// # Panics
    /// Panics on a wrong channel count or odd spatial dimensions.
    fn walk<'s>(
        &self,
        x: Input<'_>,
        plan: &Plan,
        bufs: &'s mut Activations<Vec<f32>>,
    ) -> Activations<&'s [f32]> {
        let (h, w) = (x.h, x.w);
        assert_eq!(
            x.data.len(),
            SANDWICH_CHANNELS * h * w,
            "NN-S expects the 3-channel sandwich input"
        );
        assert!(h % 2 == 0 && w % 2 == 0, "max-pool needs even dimensions");
        let (hw, hid) = (h * w, self.hidden);
        let [n1, nd, n2, nup] = roles(hid, h, w);
        let cat = stale(&mut bufs.cat, n1 + nup);
        let d = stale(&mut bufs.d, nd);
        let a2 = stale(&mut bufs.a2, n2);
        let logits = stale(&mut bufs.logits, hw);
        let (a1, up) = cat.split_at_mut(hid * hw);
        self.conv1.forward_into(x, a1, Epilogue::Relu, &plan.conv1);
        maxpool2_span_into(a1, hid, h, w, d, &plan.pool, f32::max);
        let half = Input::new(d, h / 2, w / 2);
        self.conv2
            .forward_into(half, a2, Epilogue::Relu, &plan.conv2);
        upsample2_span_into(a2, hid, h / 2, w / 2, up, &plan.up);
        let full = Input::new(cat, h, w);
        self.conv3
            .forward_into(full, logits, Epilogue::Linear, &plan.conv3);
        Activations { cat, d, a2, logits }
    }

    /// Inference: refined foreground probability map in `[0, 1]`.
    ///
    /// # Panics
    /// Panics on a wrong channel count or odd spatial dimensions.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let plan = Plan::dense(x.height(), x.width());
        let mut out = SCRATCH.with(|s| self.walk(Input::of(x), &plan, &mut s.walk).logits.to_vec());
        sigmoid_in_place(&mut out);
        Tensor::from_vec(1, x.height(), x.width(), out)
    }

    /// The refined mask of the input whose channels are `x`'s planes: the
    /// logits thresholded at [`sigmoid_cut`](crate::layers::sigmoid_cut) —
    /// the mask `infer(..).to_mask(0.5)` gives on the planes expanded to
    /// 0, ½ and 1, without the dense input, the sigmoid or the probability
    /// plane.
    ///
    /// Only the band is computed: the pixels within NN-S's receptive
    /// radius of a value change in any plane or of the frame edge, with
    /// the input written only where conv1 reads it. Every other pixel takes
    /// its value triple's bit from a table of this model's constant images
    /// (see `crate::band` for why that is exact). The band is walked in
    /// row tiles on tile-sized scratch, so no frame-sized plane is held.
    pub fn mask(&self, x: &SandwichPlanes<'_>) -> SegMask {
        band::mask(self, x, &SCRATCH)
    }

    /// [`NnS::mask`] of every frame of `xs`, in one batch: the frames'
    /// bands are found in parallel, then every tile of every frame is
    /// claimed from one queue, costliest first, so no worker waits at a
    /// frame boundary. Each mask is the frame's own `mask`, bit for bit.
    pub fn masks(&self, xs: &[SandwichPlanes<'_>]) -> Vec<SegMask> {
        self.masks_beside(xs, || ()).0
    }

    /// [`NnS::masks`] while the calling thread runs `beside`: the other
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

    /// How [`NnS::mask`] walks `x`: the number of row tiles, and the bytes
    /// of scratch one call holds on one thread (measured by running it).
    pub fn mask_tiles(&self, x: &SandwichPlanes<'_>) -> (usize, usize) {
        band::mask_tiles(self, x)
    }

    /// The share of conv1's, conv2's and conv3's output pixels in
    /// [`NnS::mask`]'s band on `x` (either precision: the band depends only
    /// on where the planes change); its tiles recompute a few rows at each
    /// seam on top. The rest of the dense graph's work, [`NnS::macs`], is
    /// skipped.
    pub fn band_coverage(x: &SandwichPlanes<'_>) -> [f64; 3] {
        Banded::of(x).coverage()
    }

    /// One sample's training step: forward, BCE-with-logits against
    /// `target`, backward. Adds the sample's parameter gradients into
    /// `grads` and returns the loss.
    ///
    /// # Panics
    /// Panics on a wrong channel count, odd spatial dimensions or a target
    /// of another size.
    pub(crate) fn train_step(&self, x: &Tensor, target: &Tensor, grads: &mut Grads) -> f32 {
        let (h, w) = (x.height(), x.width());
        let plan = Plan::dense(h, w);
        SCRATCH.with(|s| {
            let acts = self.walk(Input::of(x), &plan, &mut s.walk);
            let Activations { cat, d, a2, logits } = acts;
            let (hw, hid) = (h * w, self.hidden);
            let logits = Tensor::from_vec(1, h, w, logits.to_vec());
            let (loss, dlogits) = bce_with_logits(&logits, target);
            let [(gw1, gb1), (gw2, gb2), (gw3, gb3)] = grads.layers_mut();
            let a1 = &cat[..hid * hw];

            let mut g_cat = vec![0.0; 2 * hid * hw];
            let full = Input::new(cat, h, w);
            self.conv3
                .backward_into(full, dlogits.as_slice(), gw3, gb3, Some(&mut g_cat));
            // The concat's gradient splits into conv1's output directly
            // (`g_a1`) and, through the upsample, conv2's.
            let (g_a1, g_up) = g_cat.split_at_mut(hid * hw);
            let mut g_a2 = vec![0.0; hid * hw / 4];
            upsample2_backward(g_up, hid, h / 2, w / 2, &mut g_a2);
            relu_backward(a2, &mut g_a2);
            let mut g_d = vec![0.0; hid * hw / 4];
            let half = Input::new(d, h / 2, w / 2);
            self.conv2
                .backward_into(half, &g_a2, gw2, gb2, Some(&mut g_d));
            maxpool2_backward(a1, d, &g_d, (hid, h, w), g_a1);
            relu_backward(a1, g_a1);
            // Nothing reads the gradient of the sandwich itself.
            self.conv1.backward_into(Input::of(x), g_a1, gw1, gb1, None);
            loss
        })
    }
}

/// The f32 graph on the mask path: the sandwich values as codes, the
/// activations as buffers, [`NnS::walk`] to the logits.
impl Graph for NnS {
    type Code = f32;
    type Walk = Activations<Vec<f32>>;
    /// The logit.
    const PIXEL_BYTES: usize = std::mem::size_of::<f32>();

    fn hidden(&self) -> usize {
        self.hidden
    }

    fn codes(&self) -> [f32; 3] {
        F32_CODES
    }

    fn cut_cell(&self) -> &OnceLock<CutTable> {
        &self.cuts
    }

    fn held_bytes(walk: &Self::Walk) -> usize {
        let Activations { cat, d, a2, logits } = walk;
        [cat, d, a2, logits].map(capacity_bytes).iter().sum()
    }

    fn logits<'s>(&self, x: Input<'_>, plan: &Plan, walk: &'s mut Self::Walk) -> &'s [f32] {
        self.walk(x, plan, walk).logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::{biased, ellipse, triples};
    use crate::trainer::sgd_step;
    use vrd_video::Seg2Plane;

    #[test]
    fn output_shape_and_range() {
        let nns = NnS::new(4, 1);
        let x = Tensor::zeros(3, 8, 12);
        let y = nns.infer(&x);
        assert_eq!((y.channels(), y.height(), y.width()), (1, 8, 12));
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let black = Seg2Plane::new(12, 8);
        let planes = SandwichPlanes::recon_only(&black).unwrap();
        assert_eq!(nns.mask(&planes), y.to_mask(0.5));
    }

    #[test]
    fn from_parts_checks_the_topology_and_the_scales() {
        let conv = |cin, cout| Conv2d::new(cin, cout, 3, 0);
        let scales = ActScales::from_maxes(1.0, 2.0, 3.0);
        let ok = NnS::from_parts(conv(3, 4), conv(4, 4), conv(8, 1), Some(scales)).unwrap();
        assert_eq!((ok.hidden(), ok.act_scales()), (4, Some(scales)));
        // conv3 must take both halves of the concat; kernels must be 3×3.
        assert!(NnS::from_parts(conv(3, 4), conv(4, 4), conv(4, 1), None).is_err());
        let five = Conv2d::new(4, 4, 5, 0);
        assert!(NnS::from_parts(conv(3, 4), five, conv(8, 1), None).is_err());
        let bad = ActScales { a1: 0.0, ..scales };
        assert!(NnS::from_parts(conv(3, 4), conv(4, 4), conv(8, 1), Some(bad)).is_err());
    }

    #[test]
    fn cut_table_bits_are_the_centres_of_constant_images() {
        let mut nns = biased(NnS::new(5, 11));
        let table = nns.cuts();
        for triple in triples() {
            for (h, w) in [(14, 16), (36, 40)] {
                assert_eq!(
                    table.bit(triple),
                    nns.centre_bit(h, w, triple),
                    "{triple:?}"
                );
            }
        }
        // Both values occur, so the table is not trivially constant.
        assert!(triples().any(|t| table.bit(t)) && !triples().all(|t| table.bit(t)));
        // Changing the weights drops the table.
        nns.convs_mut()[2].params_mut().1[0] += 100.0;
        assert!(triples().all(|t| nns.cuts().bit(t)));
    }

    /// Both precisions' `mask` write their input only where conv1 reads
    /// it and every other role of their tile scratch only where the next
    /// stage reads it, leaving the rest stale. With every role poisoned
    /// before each call — NaN for f32, a byte no code takes for int8,
    /// `i32::MIN` for the accumulators — the mask must still be the dense
    /// graph's, on a blob sandwich and on masks touching every edge, with
    /// and without the sandwich: in one tile, where some of the input must
    /// stay poisoned, and in 8-row tiles on a frame of five. Each call runs
    /// on a fresh recycler, whose buffers [`stale`] poisons as they grow.
    #[test]
    fn stale_input_is_never_read() {
        let (h, w) = (40, 134);
        let blob = |cx| ellipse(w, h, (cx, 20.0), (12.0, 7.0));
        let edges = |t: usize| {
            let on = |x: usize, y: usize| x < t || y < t || x + t >= w || y + 1 == h;
            SegMask::from_bits(w, h, (0..h * w).map(|i| on(i % w, i / w)))
        };
        let mut nns = biased(NnS::new(5, 11));
        for (prev, next) in [(blob(50.0), blob(58.0)), (edges(2), edges(3))] {
            let recon = Seg2Plane::mean_filter(&prev, &next);
            let sandwich = SandwichPlanes::new(&prev, &recon, &next).unwrap();
            for planes in [sandwich, SandwichPlanes::recon_only(&recon).unwrap()] {
                let x = planes.to_tensor();
                nns.calibrate(&[&x]);
                let q = nns.quantize();
                reads_no_stale_element(&nns, &planes, &nns.infer(&x).to_mask(0.5));
                reads_no_stale_element(&q, &planes, &q.infer(&x).to_mask(0.5));
            }
        }
    }

    /// `graph`'s mask of `planes` on fresh scratch, in one tile and in
    /// 8-row tiles, is `dense`; in one tile, some of the input stays
    /// poisoned (holds no code).
    fn reads_no_stale_element<G: Graph>(graph: &G, planes: &SandwichPlanes<'_>, dense: &SegMask) {
        let (h, w) = planes.size();
        assert!(graph.tile_rows(w) >= h, "one tile");
        for rows in [h, 8] {
            let scratch = Recycler::new();
            assert_eq!(&band::mask_in_tiles(graph, planes, rows, &scratch), dense);
            if rows == h {
                let input = &scratch.held()[0].input;
                let unwritten = |v| !graph.codes().contains(v);
                assert!(input.iter().any(unwritten), "a band, not the frame");
            }
        }
    }

    #[test]
    fn parameter_count_is_tiny() {
        let nns = NnS::new(8, 0);
        // conv1: 3*8*9+8, conv2: 8*8*9+8, conv3: 16*1*9+1.
        assert_eq!(nns.n_params(), 224 + 584 + 145);
        // Orders of magnitude below any "large" segmentation network.
        assert!(nns.n_params() < 1500);
    }

    #[test]
    fn macs_scale_with_resolution() {
        let nns = NnS::new(8, 0);
        assert_eq!(nns.macs(16, 16) * 4, nns.macs(32, 32));
    }

    #[test]
    fn learns_identity_refinement() {
        // Teach NN-S to output its middle channel: the degenerate task of
        // "reconstruction is already correct". Loss must fall sharply.
        let mut nns = NnS::new(4, 7);
        let mut pattern = Tensor::zeros(3, 8, 8);
        for y in 0..8 {
            for x in 0..8 {
                let v = if (2..6).contains(&x) && (2..6).contains(&y) {
                    1.0
                } else {
                    0.0
                };
                for c in 0..3 {
                    pattern.set(c, y, x, v);
                }
            }
        }
        let target = Tensor::from_vec(1, 8, 8, pattern.channel(1).to_vec());
        let mut velocity = Grads::zeros(&nns);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut grads = Grads::zeros(&nns);
            last = nns.train_step(&pattern, &target, &mut grads);
            first.get_or_insert(last);
            sgd_step(&mut nns, &grads, &mut velocity, 0.5, 0.9, 1);
        }
        assert!(
            last < first.unwrap() * 0.3,
            "loss {first:?} -> {last} did not fall"
        );
    }

    #[test]
    #[should_panic(expected = "sandwich")]
    fn rejects_wrong_channel_count() {
        let nns = NnS::new(4, 0);
        let _ = nns.infer(&Tensor::zeros(2, 8, 8));
    }
}
