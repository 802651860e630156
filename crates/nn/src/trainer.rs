//! Minibatch SGD-with-momentum training loop for NN-S, and the state it
//! owns: the model holds parameters only, so the gradient and momentum
//! buffers live here (`Grads`).
//!
//! The paper trains NN-S for **two epochs** on the training split's
//! reconstructed B-frames with ground-truth labels (§III-B); `EPOCHS` and the
//! constants beside it reproduce that recipe.

use crate::nns::NnS;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One training sample: sandwich input and ground-truth mask target.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The 3-channel sandwich input.
    pub input: Tensor,
    /// The 1-channel 0/1 target.
    pub target: Tensor,
}

/// Learning rate.
const LR: f32 = 0.4;
/// Momentum coefficient.
const MOMENTUM: f32 = 0.9;
/// Minibatch size.
const BATCH: usize = 4;
/// Number of passes over the data (paper: 2).
const EPOCHS: usize = 2;
/// Shuffling seed.
const SHUFFLE_SEED: u64 = 0x7a41;

/// One `f32` per NN-S parameter — a weight-shaped and a bias-shaped buffer
/// per convolution, in graph order. A sample's gradient, a minibatch's
/// summed gradient and the momentum state are each one of these.
#[derive(Debug)]
pub(crate) struct Grads([(Vec<f32>, Vec<f32>); 3]);

impl Grads {
    /// All-zero buffers shaped like `model`'s parameters.
    pub(crate) fn zeros(model: &NnS) -> Self {
        let (c1, c2, c3) = model.convs();
        Self([c1, c2, c3].map(|c| (vec![0.0; c.weights().len()], vec![0.0; c.bias().len()])))
    }

    /// The per-layer `(weights, bias)` buffers, for a backward pass to add
    /// into.
    pub(crate) fn layers_mut(&mut self) -> [(&mut [f32], &mut [f32]); 3] {
        self.0.each_mut().map(|(w, b)| (&mut w[..], &mut b[..]))
    }

    /// Element-wise `self += other`.
    fn add(&mut self, other: &Grads) {
        for ((w, b), (ow, ob)) in self.0.iter_mut().zip(&other.0) {
            for (a, &g) in w.iter_mut().zip(ow).chain(b.iter_mut().zip(ob)) {
                *a += g;
            }
        }
    }
}

/// One SGD-with-momentum step, `v = momentum·v − lr·g/batch; p += v` for
/// every parameter `p`: updates `model` from the summed gradients of a
/// minibatch of `batch` samples and the momentum state `velocity`.
pub(crate) fn sgd_step(
    model: &mut NnS,
    grads: &Grads,
    velocity: &mut Grads,
    lr: f32,
    momentum: f32,
    batch: usize,
) {
    let scale = 1.0 / batch.max(1) as f32;
    let update = |p: &mut [f32], g: &[f32], v: &mut [f32]| {
        for ((p, &g), v) in p.iter_mut().zip(g).zip(v) {
            *v = momentum * *v - lr * g * scale;
            *p += *v;
        }
    };
    let layers = model.convs_mut().into_iter().zip(&grads.0);
    for ((conv, (gw, gb)), (vw, vb)) in layers.zip(&mut velocity.0) {
        let (w, b) = conv.params_mut();
        update(w, gw, vw);
        update(b, gb, vb);
    }
}

/// Trains `model` on `samples`; returns the mean loss of each epoch.
///
/// The recipe — the paper's two epochs, the shuffle seed, learning rate,
/// momentum and minibatch size — is fixed. Each minibatch computes
/// per-sample gradients independently (in parallel across
/// [`vrd_runtime::max_threads`] workers, each borrowing the model) and
/// reduces them in sample order, so the trained weights are
/// **bit-identical for every thread count** — the parallelism only changes
/// wall-clock time, never the result.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn train(model: &mut NnS, samples: &[Sample]) -> Vec<f32> {
    assert!(!samples.is_empty(), "cannot train on zero samples");
    let mut rng = StdRng::seed_from_u64(SHUFFLE_SEED);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut history = Vec::with_capacity(EPOCHS);
    let mut velocity = Grads::zeros(model);
    for _ in 0..EPOCHS {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        for chunk in order.chunks(BATCH) {
            let shared: &NnS = model;
            let per_sample = vrd_runtime::parallel_map(chunk, |&i| {
                let mut grads = Grads::zeros(shared);
                let loss = shared.train_step(&samples[i].input, &samples[i].target, &mut grads);
                (loss, grads)
            });
            let mut batch = Grads::zeros(model);
            for (loss, grads) in &per_sample {
                epoch_loss += loss;
                batch.add(grads);
            }
            sgd_step(model, &batch, &mut velocity, LR, MOMENTUM, chunk.len());
        }
        history.push(epoch_loss / samples.len() as f32);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use vrd_runtime::with_thread_budget;

    /// Builds a toy refinement corpus: the target is the middle channel
    /// cleaned up (a square), the input's middle channel is the square
    /// corrupted by blocky noise.
    fn toy_samples(n: usize) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n)
            .map(|_| {
                let mut input = Tensor::zeros(3, 8, 8);
                let mut target = Tensor::zeros(1, 8, 8);
                let ox = rng.random_range(0..4usize);
                let oy = rng.random_range(0..4usize);
                for y in 0..8 {
                    for x in 0..8 {
                        let inside = (ox..ox + 4).contains(&x) && (oy..oy + 4).contains(&y);
                        let v = f32::from(inside);
                        target.set(0, y, x, v);
                        input.set(0, y, x, v);
                        input.set(2, y, x, v);
                        // Corrupt the middle channel near the boundary.
                        let noisy = if rng.random_range(0.0..1.0) < 0.2 {
                            1.0 - v
                        } else {
                            v
                        };
                        input.set(1, y, x, noisy);
                    }
                }
                Sample { input, target }
            })
            .collect()
    }

    #[test]
    fn two_epochs_reduce_loss() {
        let samples = toy_samples(32);
        let mut model = NnS::new(4, 5);
        let history = train(&mut model, &samples);
        assert_eq!(history.len(), EPOCHS);
        assert!(
            history.last().unwrap() < &(history[0] * 0.8),
            "loss history did not fall: {history:?}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let samples = toy_samples(8);
        let mut m1 = NnS::new(4, 5);
        let mut m2 = NnS::new(4, 5);
        let h1 = train(&mut m1, &samples);
        let h2 = train(&mut m2, &samples);
        assert_eq!(h1, h2);
    }

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        let samples = toy_samples(16);
        let weight_bits = |model: &NnS| -> Vec<Vec<u32>> {
            let (c1, c2, c3) = model.convs();
            [c1, c2, c3]
                .iter()
                .flat_map(|c| [c.weights(), c.bias()])
                .map(|v| v.iter().map(|f| f.to_bits()).collect())
                .collect()
        };
        let mut baseline = NnS::new(4, 5);
        let base_hist = with_thread_budget(1, || train(&mut baseline, &samples));
        let base_bits = weight_bits(&baseline);
        for threads in [2, 3, 8] {
            let mut model = NnS::new(4, 5);
            let hist = with_thread_budget(threads, || train(&mut model, &samples));
            assert_eq!(hist, base_hist, "loss history differs at {threads} threads");
            assert_eq!(
                weight_bits(&model),
                base_bits,
                "trained weights differ at {threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn rejects_empty_corpus() {
        let mut model = NnS::new(4, 0);
        let _ = train(&mut model, &[]);
    }
}
