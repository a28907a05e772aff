//! Sanger-style dynamically-predicted sparse attention.
//!
//! Sanger (MICRO'21) predicts which attention entries matter by computing a *quantized*
//! low-precision estimate of the softmax attention map, thresholding it into a binary
//! mask, and then computing the exact attention only at the surviving positions. Its
//! accelerator further "packs and splits" the mask into load-balanced blocks; that is a
//! hardware cost, modelled by the Sanger simulator in `vitality-baselines`. The ViTALiTy
//! paper uses this mechanism both as its SPARSE baseline and as the training-time
//! regulariser that approximates the "strong" higher-order Taylor terms.

use crate::kernel::{validate_out, AttentionKernel};
use crate::opcount::{vanilla_softmax_ops, OpCounts};
use crate::softmax::scaled_similarity;
use crate::taylor::mean_center_keys;
use vitality_autograd::Var;
use vitality_tensor::{Matrix, Workspace};

/// Bit-width of Sanger's quantized prediction pass.
pub(crate) const PREDICTION_BITS: u32 = 4;

/// Quantizes a matrix to a signed integer grid with the given number of bits
/// (symmetric per-matrix scaling), returning the de-quantized approximation.
///
/// Sanger's prediction path runs at 4-bit precision; the reproduction keeps the bit-width
/// configurable for the quantization-sensitivity tests.
pub fn quantize_symmetric(m: &Matrix, bits: u32) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    quantize_symmetric_into(m, bits, &mut out);
    out
}

/// Allocation-free form of [`quantize_symmetric`]: writes the de-quantized
/// approximation into an equally-shaped `out` matrix (used by the fused unified kernel
/// so the prediction path stays off the heap).
///
/// # Panics
///
/// Panics when the bit-width is outside `[2, 16]` or the shapes differ.
pub fn quantize_symmetric_into(m: &Matrix, bits: u32, out: &mut Matrix) {
    assert!(
        (2..=16).contains(&bits),
        "quantization bits must be in [2, 16]"
    );
    assert_eq!(
        m.shape(),
        out.shape(),
        "quantize_symmetric_into shape mismatch"
    );
    let max_abs = m.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
    if max_abs == 0.0 {
        out.copy_from(m);
        return;
    }
    let levels = ((1u32 << (bits - 1)) - 1) as f32;
    let scale = max_abs / levels;
    for (o, &v) in out.as_mut_slice().iter_mut().zip(m.iter()) {
        *o = (v / scale).round() * scale;
    }
}

/// Sanger-style sparse attention: quantized prediction, threshold mask, exact sparse
/// softmax attention at the surviving positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SangerSparseAttention {
    threshold: f32,
}

impl SangerSparseAttention {
    /// Creates a sparse attention with the given sparsity threshold and 4-bit prediction.
    ///
    /// # Panics
    ///
    /// Panics when the threshold is outside `[0, 1]`.
    pub fn new(threshold: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must lie in [0, 1]"
        );
        Self { threshold }
    }

    /// Configured sparsity threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The quantized prediction of the softmax attention map used to derive the mask.
    pub fn predicted_attention(&self, q: &Matrix, k: &Matrix) -> Matrix {
        let q_q = quantize_symmetric(q, PREDICTION_BITS);
        let k_q = quantize_symmetric(k, PREDICTION_BITS);
        scaled_similarity(&q_q, &k_q).softmax_rows()
    }

    /// The binary sparsity mask: 1 where the predicted attention is at least the threshold.
    ///
    /// Every row keeps at least its own maximum entry so that no query is left without any
    /// attended key (Sanger guarantees the same through its fallback path).
    pub fn prediction_mask(&self, q: &Matrix, k: &Matrix) -> Matrix {
        let predicted = self.predicted_attention(q, k);
        let mut mask = predicted.map(|v| if v >= self.threshold { 1.0 } else { 0.0 });
        for i in 0..predicted.rows() {
            if mask.row(i).iter().all(|&v| v == 0.0) {
                let (mut best_j, mut best) = (0, f32::NEG_INFINITY);
                for j in 0..predicted.cols() {
                    if predicted.get(i, j) > best {
                        best = predicted.get(i, j);
                        best_j = j;
                    }
                }
                mask.set(i, best_j, 1.0);
            }
        }
        mask
    }

    /// The exact sparse softmax attention map: full-precision logits, masked positions set
    /// to `-inf` before the softmax so each row renormalises over the surviving entries.
    /// Times `V`, this is the mechanism's **reference**.
    pub fn sparse_attention_map(&self, q: &Matrix, k: &Matrix) -> Matrix {
        let mask = self.prediction_mask(q, k);
        let logits = scaled_similarity(q, k);
        let masked = Matrix::from_fn(logits.rows(), logits.cols(), |i, j| {
            if mask.get(i, j) != 0.0 {
                logits.get(i, j)
            } else {
                f32::NEG_INFINITY
            }
        });
        masked.softmax_rows().apply_mask(&mask)
    }
}

impl AttentionKernel for SangerSparseAttention {
    fn label(&self) -> &'static str {
        "sparse"
    }

    /// The SPARSE baseline is a training/ablation arm, not a serving hot path, so it
    /// trades workspace discipline for reuse of the audited mask/renormalise code: the
    /// masked map is mostly structural zeros, which the zero-skipping sparse product
    /// handles better than the dense blocked backend.
    fn compute_into(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        _ws: &mut Workspace,
        out: &mut Matrix,
    ) {
        validate_out(q, k, v, out);
        out.copy_from(&self.sparse_attention_map(q, k).matmul_sparse(v));
    }

    fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        // Prediction path (quantized Q K^T + softmax) plus the sparse exact path. The
        // exact path's cost scales with the attention density; we report the worst case
        // here (density cannot be known without data) and the Sanger simulator in
        // `vitality-baselines` refines it with the measured density.
        let full = vanilla_softmax_ops(n, d);
        let prediction = OpCounts::new(
            (n * n * d) as u64,
            (n * n * d + n * n) as u64,
            (n * n) as u64,
            (n * n) as u64,
        );
        full + prediction
    }

    /// Differentiable Sanger-style sparse attention: the mask comes from the quantized
    /// prediction (treated as a constant), the surviving probabilities are renormalised
    /// per row, and gradients flow through the full-precision path only — exactly
    /// Sanger's straight-through training recipe.
    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var {
        let d = q.shape().1 as f32;
        let mask = self.prediction_mask(&q.value(), &k.value());
        let probs = q
            .matmul_transpose_b(k)
            .scale(1.0 / d.sqrt())
            .softmax_rows()
            .apply_mask(&mask);
        let renormalised = probs.broadcast_div_col(&probs.row_sum().add_scalar(1e-9));
        renormalised.matmul(v)
    }

    fn sparse_occupancy(&self, q: &Matrix, k: &Matrix) -> f32 {
        self.prediction_mask(q, &mean_center_keys(k))
            .sparsity()
            .mul_add(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::SoftmaxAttention;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    fn qkv(n: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            init::normal(&mut rng, n, d, 0.0, 0.8),
            init::normal(&mut rng, n, d, 0.0, 0.8),
            init::normal(&mut rng, n, d, 0.0, 1.0),
        )
    }

    #[test]
    fn quantization_reduces_resolution_but_bounds_error() {
        let mut rng = StdRng::seed_from_u64(30);
        let m = init::normal(&mut rng, 16, 16, 0.0, 1.0);
        let q4 = quantize_symmetric(&m, 4);
        let q8 = quantize_symmetric(&m, 8);
        let max_abs = m.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        assert!(m.max_abs_diff(&q4) <= max_abs / 7.0 + 1e-6);
        assert!(m.max_abs_diff(&q8) < m.max_abs_diff(&q4));
        // All-zero input stays untouched.
        assert!(quantize_symmetric(&Matrix::zeros(2, 2), 4).approx_eq(&Matrix::zeros(2, 2), 0.0));
    }

    #[test]
    #[should_panic(expected = "quantization bits")]
    fn quantization_rejects_one_bit() {
        let _ = quantize_symmetric(&Matrix::ones(2, 2), 1);
    }

    #[test]
    fn higher_threshold_gives_sparser_masks() {
        let (q, k, _) = qkv(32, 16, 31);
        let loose = SangerSparseAttention::new(0.02).prediction_mask(&q, &k);
        let tight = SangerSparseAttention::new(0.2).prediction_mask(&q, &k);
        assert!(tight.nnz() <= loose.nnz());
        assert!(loose.nnz() <= 32 * 32);
    }

    #[test]
    fn every_row_keeps_at_least_one_entry() {
        let (q, k, _) = qkv(16, 8, 32);
        // An extreme threshold would otherwise zero everything.
        let mask = SangerSparseAttention::new(1.0).prediction_mask(&q, &k);
        for i in 0..mask.rows() {
            assert!(
                mask.row(i).iter().any(|&v| v != 0.0),
                "row {i} lost all entries"
            );
        }
    }

    #[test]
    fn sparse_map_rows_renormalise_over_surviving_entries() {
        let (q, k, _) = qkv(20, 8, 33);
        let map = SangerSparseAttention::new(0.05).sparse_attention_map(&q, &k);
        for i in 0..map.rows() {
            let sum: f32 = map.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn low_threshold_recovers_the_dense_attention() {
        let (q, k, v) = qkv(16, 8, 34);
        let dense = SoftmaxAttention::new().compute(&q, &k, &v);
        let nearly_dense = SangerSparseAttention::new(0.0).compute(&q, &k, &v);
        assert!(dense.approx_eq(&nearly_dense, 1e-3));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_invalid_threshold() {
        let _ = SangerSparseAttention::new(1.5);
    }

    #[test]
    fn op_counts_exceed_vanilla_due_to_prediction_overhead() {
        let sparse = SangerSparseAttention::new(0.02).op_counts(64, 32);
        let vanilla = vanilla_softmax_ops(64, 32);
        assert!(sparse.total() > vanilla.total());
    }

    #[test]
    fn occupancy_probe_reports_the_mask_density() {
        let (q, k, _) = qkv(24, 8, 36);
        let sparse = SangerSparseAttention::new(0.05);
        let occupancy = sparse.sparse_occupancy(&q, &k);
        assert!(occupancy > 0.0 && occupancy <= 1.0);
    }
}
