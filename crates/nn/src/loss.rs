//! The segmentation training loss.

use crate::tensor::Tensor;

/// Binary cross-entropy on logits, numerically stable.
///
/// Returns `(mean loss, gradient w.r.t. the logits)`. The gradient is the
/// textbook `sigmoid(z) - target`, scaled by `1 / n`.
///
/// # Panics
/// Panics if the shapes differ.
pub(crate) fn bce_with_logits(logits: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(logits.len(), target.len(), "loss shape mismatch");
    let n = logits.len() as f32;
    let mut loss = 0.0f32;
    let mut grad = Vec::with_capacity(logits.len());
    for (&z, &t) in logits.as_slice().iter().zip(target.as_slice()) {
        // log(1 + exp(-|z|)) + max(z, 0) - z*t  (stable BCE-with-logits)
        loss += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
        let p = 1.0 / (1.0 + (-z).exp());
        grad.push((p - t) / n);
    }
    (
        loss / n,
        Tensor::from_vec(logits.channels(), logits.height(), logits.width(), grad),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bce_perfect_prediction_is_near_zero() {
        let logits = Tensor::from_vec(1, 1, 2, vec![20.0, -20.0]);
        let target = Tensor::from_vec(1, 1, 2, vec![1.0, 0.0]);
        let (loss, grad) = bce_with_logits(&logits, &target);
        assert!(loss < 1e-6);
        assert!(grad.as_slice().iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn bce_wrong_prediction_is_large_with_correcting_gradient() {
        let logits = Tensor::from_vec(1, 1, 1, vec![-10.0]);
        let target = Tensor::from_vec(1, 1, 1, vec![1.0]);
        let (loss, grad) = bce_with_logits(&logits, &target);
        assert!(loss > 5.0);
        // Gradient must push the logit upwards (negative gradient).
        assert!(grad.as_slice()[0] < 0.0);
    }

    #[test]
    fn bce_gradient_matches_numeric() {
        let z = 0.37f32;
        let t = 1.0f32;
        let logits = Tensor::from_vec(1, 1, 1, vec![z]);
        let target = Tensor::from_vec(1, 1, 1, vec![t]);
        let (_, grad) = bce_with_logits(&logits, &target);
        let eps = 1e-3;
        let l = |z: f32| -> f32 {
            let logits = Tensor::from_vec(1, 1, 1, vec![z]);
            bce_with_logits(&logits, &target).0
        };
        let numeric = (l(z + eps) - l(z - eps)) / (2.0 * eps);
        assert!((grad.as_slice()[0] - numeric).abs() < 1e-3);
    }
}
