//! NN-S: the paper's lightweight refinement network (§III-A2).
//!
//! "NN-S is a 3-layer convolution neural network, including convolution,
//! downsampling, convolution, upsampling, concatenate and convolution
//! layers." The input is the sandwich 3-channel image (previous reference
//! segmentation / reconstructed B-frame / next reference segmentation); the
//! output is a single-channel refined foreground probability.

use crate::conv::{Conv2d, Epilogue};
use crate::layers::{
    concat, maxpool2_into, sigmoid_in_place, split, upsample2_into, MaxPool2, Relu, Upsample2,
};
use crate::loss::bce_with_logits;
use crate::quant::{ActScales, QuantNnS};
use crate::tensor::Tensor;
use vrd_runtime::BufferPool;

/// Channels of the sandwich input.
pub const SANDWICH_CHANNELS: usize = 3;

/// Scratch buffers for the cache-free inference path, recycled across
/// frames so steady-state refinement does not allocate per call.
static SCRATCH: BufferPool = BufferPool::new();

/// Element-wise tensor addition.
fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.len(), b.len(), "tensor addition shape mismatch");
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x + y)
        .collect();
    Tensor::from_vec(a.channels(), a.height(), a.width(), data)
}

/// The NN-S refinement network.
#[derive(Debug, Clone)]
pub struct NnS {
    hidden: usize,
    conv1: Conv2d,
    relu1: Relu,
    pool: MaxPool2,
    conv2: Conv2d,
    relu2: Relu,
    conv3: Conv2d,
    cache_a1: Option<Tensor>,
    act_scales: Option<ActScales>,
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
            relu1: Relu::new(),
            pool: MaxPool2::new(),
            conv2: Conv2d::new(hidden, hidden, 3, seed ^ 0x02),
            relu2: Relu::new(),
            conv3: Conv2d::new(2 * hidden, 1, 3, seed ^ 0x03),
            cache_a1: None,
            act_scales: None,
        }
    }

    /// Hidden feature-channel width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The three convolution layers (for serialisation).
    pub fn convs(&self) -> (&Conv2d, &Conv2d, &Conv2d) {
        (&self.conv1, &self.conv2, &self.conv3)
    }

    /// Rebuilds a model from deserialised convolutions.
    ///
    /// # Panics
    /// Panics if `hidden` is zero (the deserialiser validates shapes).
    pub fn from_convs(hidden: usize, conv1: Conv2d, conv2: Conv2d, conv3: Conv2d) -> Self {
        assert!(hidden > 0, "hidden channel count must be non-zero");
        Self {
            hidden,
            conv1,
            relu1: Relu::new(),
            pool: MaxPool2::new(),
            conv2,
            relu2: Relu::new(),
            conv3,
            cache_a1: None,
            act_scales: None,
        }
    }

    /// Calibrated activation scales, if [`NnS::calibrate`] ran (or a
    /// deserialised model carried them).
    pub fn act_scales(&self) -> Option<ActScales> {
        self.act_scales
    }

    /// Attaches activation scales (used by the deserialiser; normal code
    /// calls [`NnS::calibrate`]).
    pub fn set_act_scales(&mut self, scales: ActScales) {
        self.act_scales = Some(scales);
    }

    /// Observes activation ranges on a calibration set and stores the
    /// resulting [`ActScales`], tightening the quantized path's resolution
    /// versus the conservative weight-norm bound. Runs the inference
    /// layers only (no gradients); inputs with odd dimensions are skipped
    /// by the same even-dimension rule as [`NnS::infer`].
    ///
    /// # Panics
    /// Panics if any input has the wrong channel count or odd dimensions.
    pub fn calibrate(&mut self, inputs: &[&Tensor]) {
        let (mut in_max, mut a1_max, mut a2_max) = (0.0f32, 0.0f32, 0.0f32);
        let abs_max = |s: &[f32]| s.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for x in inputs {
            assert_eq!(
                x.channels(),
                SANDWICH_CHANNELS,
                "NN-S expects the 3-channel sandwich input"
            );
            let (h, w) = (x.height(), x.width());
            assert!(h % 2 == 0 && w % 2 == 0, "max-pool needs even dimensions");
            let (hw, hid) = (h * w, self.hidden);
            in_max = in_max.max(abs_max(x.as_slice()));
            let mut a1 = SCRATCH.take(hid * hw);
            self.conv1
                .forward_into(x.as_slice(), h, w, &mut a1, Epilogue::Relu);
            a1_max = a1_max.max(abs_max(&a1));
            let mut d = SCRATCH.take(hid * hw / 4);
            maxpool2_into(&a1, hid, h, w, &mut d);
            let mut a2 = SCRATCH.take(hid * hw / 4);
            self.conv2
                .forward_into(&d, h / 2, w / 2, &mut a2, Epilogue::Relu);
            a2_max = a2_max.max(abs_max(&a2));
        }
        self.act_scales = Some(ActScales::from_maxes(in_max, a1_max, a2_max));
    }

    /// Builds the quantized twin of this model ([`QuantNnS`]), using the
    /// calibrated activation scales when present. Quantize once and reuse:
    /// the weight quantization is the expensive part.
    pub fn quantize(&self) -> QuantNnS {
        QuantNnS::from_nns(self)
    }

    /// One-shot quantized inference — [`NnS::quantize`] then
    /// [`QuantNnS::infer`]. Steady-state pipelines should hold the
    /// [`QuantNnS`] instead of re-quantizing per frame.
    ///
    /// # Panics
    /// Panics on a wrong channel count or odd spatial dimensions.
    pub fn infer_quantized(&self, x: &Tensor) -> Tensor {
        self.quantize().infer(x)
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

    /// Forward pass producing logits. Input must be
    /// `SANDWICH_CHANNELS × h × w` with even `h`, `w`.
    ///
    /// # Panics
    /// Panics on a wrong channel count or odd spatial dimensions.
    pub fn forward_logits(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.channels(),
            SANDWICH_CHANNELS,
            "NN-S expects the 3-channel sandwich input"
        );
        let a1 = self.relu1.forward(&self.conv1.forward(x));
        let d = self.pool.forward(&a1);
        let a2 = self.relu2.forward(&self.conv2.forward(&d));
        let up = Upsample2::forward(&a2);
        let cat = concat(&a1, &up);
        self.cache_a1 = Some(a1);
        self.conv3.forward(&cat)
    }

    /// Inference: refined foreground probability map in `[0, 1]`.
    ///
    /// Unlike the training path this takes `&self` and skips every piece of
    /// gradient bookkeeping — no input clones, no activation masks, no
    /// argmax maps — running the whole pipeline on pooled scratch buffers.
    /// It computes exactly the same values as
    /// `sigmoid(forward_logits(x))`.
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
        // conv1 writes its activations straight into the first half of the
        // concatenation buffer; the upsampled conv2 branch fills the second.
        let mut cat = SCRATCH.take(2 * hid * hw);
        let (a1, up) = cat.split_at_mut(hid * hw);
        self.conv1
            .forward_into(x.as_slice(), h, w, a1, Epilogue::Relu);
        let mut d = SCRATCH.take(hid * hw / 4);
        maxpool2_into(a1, hid, h, w, &mut d);
        let mut a2 = SCRATCH.take(hid * hw / 4);
        self.conv2
            .forward_into(&d, h / 2, w / 2, &mut a2, Epilogue::Relu);
        upsample2_into(&a2, hid, h / 2, w / 2, up);
        let mut out = vec![0.0; hw];
        self.conv3
            .forward_into(&cat, h, w, &mut out, Epilogue::Linear);
        sigmoid_in_place(&mut out);
        Tensor::from_vec(1, h, w, out)
    }

    /// Adds another model's accumulated gradients into this one's buffers
    /// (per-sample gradient reduction in the trainer).
    pub fn accumulate_grads_from(&mut self, other: &NnS) {
        self.conv1.accumulate_grads_from(&other.conv1);
        self.conv2.accumulate_grads_from(&other.conv2);
        self.conv3.accumulate_grads_from(&other.conv3);
    }

    /// One training step: forward, BCE-with-logits against `target`,
    /// backward. Gradients accumulate until [`NnS::apply_grads`].
    /// Returns the loss.
    pub fn train_step(&mut self, x: &Tensor, target: &Tensor) -> f32 {
        let logits = self.forward_logits(x);
        let (loss, dlogits) = bce_with_logits(&logits, target);
        self.backward(&dlogits);
        loss
    }

    /// Backward pass from a logits gradient.
    ///
    /// # Panics
    /// Panics if called before [`NnS::forward_logits`].
    pub fn backward(&mut self, dlogits: &Tensor) {
        let g_cat = self.conv3.backward(dlogits);
        let (g_a1_direct, g_up) = split(&g_cat, self.hidden);
        let g_a2 = Upsample2::backward(&g_up);
        let g_d = self.conv2.backward(&self.relu2.backward(&g_a2));
        let g_a1_pool = self.pool.backward(&g_d);
        let g_a1 = add(&g_a1_direct, &g_a1_pool);
        let _ = self.conv1.backward(&self.relu1.backward(&g_a1));
        self.cache_a1 = None;
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.conv1.zero_grad();
        self.conv2.zero_grad();
        self.conv3.zero_grad();
    }

    /// SGD-with-momentum update (gradients averaged over `batch`).
    pub fn apply_grads(&mut self, lr: f32, momentum: f32, batch: usize) {
        self.conv1.apply_grads(lr, momentum, batch);
        self.conv2.apply_grads(lr, momentum, batch);
        self.conv3.apply_grads(lr, momentum, batch);
    }

    /// Adam update (gradients averaged over `batch`; `step` is 1-based).
    pub fn apply_grads_adam(
        &mut self,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        step: usize,
        batch: usize,
    ) {
        self.conv1
            .apply_grads_adam(lr, beta1, beta2, eps, step, batch);
        self.conv2
            .apply_grads_adam(lr, beta1, beta2, eps, step, batch);
        self.conv3
            .apply_grads_adam(lr, beta1, beta2, eps, step, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_and_range() {
        let nns = NnS::new(4, 1);
        let x = Tensor::zeros(3, 8, 12);
        let y = nns.infer(&x);
        assert_eq!((y.channels(), y.height(), y.width()), (1, 8, 12));
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn inference_matches_training_forward() {
        use crate::layers::sigmoid;
        let mut nns = NnS::new(6, 23);
        let x = Tensor::from_vec(
            3,
            10,
            14,
            (0..3 * 10 * 14).map(|v| (v as f32 * 0.11).sin()).collect(),
        );
        let logits = nns.forward_logits(&x);
        let trained = sigmoid(&logits);
        let inferred = nns.infer(&x);
        assert_eq!(trained.as_slice(), inferred.as_slice());
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
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            nns.zero_grad();
            last = nns.train_step(&pattern, &target);
            first.get_or_insert(last);
            nns.apply_grads(0.5, 0.9, 1);
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
