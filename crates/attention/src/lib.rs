//! Attention mechanisms for the ViTALiTy reproduction.
//!
//! This crate implements the paper's primary contribution — the **linear Taylor attention**
//! with row-mean centring (Algorithm 1) — together with the attention mechanisms it is
//! trained and served against:
//!
//! * [`SoftmaxAttention`] — the vanilla quadratic softmax attention (BASELINE).
//! * [`TaylorAttention`] — the ViTALiTy low-rank linear attention used at inference.
//! * [`SangerSparseAttention`] — a Sanger-style dynamically predicted sparse attention
//!   (the SPARSE baseline and the training-time regulariser).
//! * [`UnifiedLowRankSparseAttention`] — the training-time combination of the Taylor
//!   low-rank component and the sparse "strong connection" component (Fig. 4).
//!
//! All four are trained and served, and implement the crate's one attention trait,
//! [`AttentionKernel`] (see the [`kernel`] module): `compute_into`, the allocation-free
//! production path the ViT inference hot path and the serving engine run on;
//! `forward_train`, the same mechanism on the autograd tape; and the `op_counts` model
//! the op-count tables read. So does the int8-quantized [`QuantizedTaylorKernel`] (see
//! the [`quantized`] module) that reproduces the accelerator's integer deployment path. Each mechanism also keeps one unfused,
//! allocating **reference** as an inherent method — `attention_map(q, k) · V`,
//! [`TaylorAttention::compute_with_trace`],
//! [`UnifiedLowRankSparseAttention::compute_traced`] — which the conformance suite
//! holds the production path against.
//!
//! The linear-attention baselines of Table IV / Table VI (Linformer, Performer, the
//! Linear Transformer, Efficient Attention) are never trained or served: Table IV reads
//! only their op counts, which are plain functions in [`opcount`], and Table VI only
//! their taxonomy row ([`taxonomy`]).
//!
//! # Example: the Taylor attention approximates the softmax attention
//!
//! ```
//! use rand::SeedableRng;
//! use vitality_attention::{AttentionKernel, SoftmaxAttention, TaylorAttention};
//! use vitality_tensor::init;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let (n, d) = (16, 8);
//! // Small-magnitude logits: the regime the paper's Fig. 3 shows mean-centring produces.
//! let q = init::normal(&mut rng, n, d, 0.0, 0.1);
//! let k = init::normal(&mut rng, n, d, 0.0, 0.1);
//! let v = init::normal(&mut rng, n, d, 0.0, 1.0);
//! let exact = SoftmaxAttention::new().compute(&q, &k, &v);
//! let taylor = TaylorAttention::new().compute(&q, &k, &v);
//! assert!(exact.max_abs_diff(&taylor) < 0.05);
//! ```

#![deny(missing_docs)]

pub mod kernel;
pub mod opcount;
pub mod quantized;
pub mod softmax;
pub mod sparse;
pub mod taxonomy;
pub mod taylor;
pub mod unified;

pub use kernel::AttentionKernel;
pub use opcount::OpCounts;
pub use quantized::{Int8Calibration, QuantizedTaylorKernel, INT8_TAYLOR_TOLERANCE};
pub use softmax::SoftmaxAttention;
pub use sparse::{quantize_symmetric, quantize_symmetric_into, SangerSparseAttention};
pub use taxonomy::{AttentionFamily, PostProcessorKind, PreProcessorKind, TaxonomyEntry};
pub use taylor::{mean_center_keys, TaylorAttention, TaylorTrace};
pub use unified::UnifiedLowRankSparseAttention;

use vitality_tensor::Matrix;

/// Validates that `(Q, K, V)` agree on the token count and feature dimension.
///
/// # Panics
///
/// Panics with a descriptive message when the shapes are inconsistent.
pub(crate) fn validate_qkv(q: &Matrix, k: &Matrix, v: &Matrix) {
    assert_eq!(
        q.cols(),
        k.cols(),
        "queries and keys must share the feature dimension"
    );
    assert_eq!(
        k.rows(),
        v.rows(),
        "keys and values must share the token count"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    /// Every mechanism must produce an `n x d` score and a non-trivial op-count model.
    #[test]
    fn all_mechanisms_produce_correctly_shaped_scores() {
        let mut rng = StdRng::seed_from_u64(99);
        let (n, d) = (12, 8);
        let q = init::normal(&mut rng, n, d, 0.0, 0.3);
        let k = init::normal(&mut rng, n, d, 0.0, 0.3);
        let v = init::normal(&mut rng, n, d, 0.0, 1.0);

        let kernels: Vec<Box<dyn AttentionKernel>> = vec![
            Box::new(SoftmaxAttention::new()),
            Box::new(TaylorAttention::new()),
            Box::new(SangerSparseAttention::new(0.02)),
            Box::new(UnifiedLowRankSparseAttention::new(0.5)),
            Box::new(QuantizedTaylorKernel::new(Int8Calibration::Dynamic)),
        ];
        for m in &kernels {
            let z = m.compute(&q, &k, &v);
            assert_eq!(z.shape(), (n, d), "{} produced a wrong shape", m.label());
            assert!(
                z.iter().all(|v| v.is_finite()),
                "{} produced NaN/inf",
                m.label()
            );
            assert!(
                m.op_counts(n, d).total() > 0,
                "{} reported zero operations",
                m.label()
            );
        }
    }
}
