//! Efficient Attention (Shen et al.): softmax applied separately to queries and keys.

use crate::opcount::OpCounts;
use crate::validate_qkv;
use vitality_tensor::Matrix;

/// Efficient Attention: `softmax_rows(Q) (softmax_cols(K)^T V)`.
///
/// Applying the softmax separately to the queries (over the feature dimension) and to the
/// keys (over the token dimension) keeps the attention normalised while allowing the
/// key–value product to be computed first, giving linear complexity. It is the
/// vision-oriented linear attention cited by the paper (Table VI).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EfficientAttention {
    _private: (),
}

impl EfficientAttention {
    /// Creates the Efficient Attention mechanism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Softmax over the token (row) dimension of each column, i.e. a column-wise softmax.
    pub fn softmax_cols(m: &Matrix) -> Matrix {
        m.transpose().softmax_rows().transpose()
    }

    /// Computes the per-head attention score `Z` (`n x d`) from queries, keys and values.
    ///
    /// # Panics
    ///
    /// Panics when the `(Q, K, V)` shapes are inconsistent.
    pub fn compute(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        validate_qkv(q, k, v);
        let q_norm = q.softmax_rows(); // feature-wise distribution per query
        let k_norm = Self::softmax_cols(k); // token-wise distribution per feature
        let context = k_norm.transpose_matmul(v); // d x d
        q_norm.matmul(&context)
    }

    /// Scalar-operation model for one head with `n` tokens and `d` feature dimensions
    /// (what Table IV reads).
    pub fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        let (n, d) = (n as u64, d as u64);
        OpCounts {
            mul: 2 * n * d * d,
            add: 2 * n * d * d + 2 * n * d,
            div: 2 * n * d,
            exp: 2 * n * d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    #[test]
    fn softmax_cols_normalises_each_column() {
        let mut rng = StdRng::seed_from_u64(80);
        let m = init::normal(&mut rng, 6, 4, 0.0, 1.0);
        let s = EfficientAttention::softmax_cols(&m);
        for j in 0..s.cols() {
            let sum: f32 = s.col(j).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn output_is_convex_combination_of_values_per_feature() {
        // Each output element is a q-weighted mixture of token-averaged value features, so
        // it stays within the range of V.
        let mut rng = StdRng::seed_from_u64(81);
        let q = init::normal(&mut rng, 12, 6, 0.0, 1.0);
        let k = init::normal(&mut rng, 12, 6, 0.0, 1.0);
        let v = init::uniform(&mut rng, 12, 6, -1.0, 1.0);
        let z = EfficientAttention::new().compute(&q, &k, &v);
        assert_eq!(z.shape(), (12, 6));
        assert!(z.max() <= v.max() + 1e-4);
        assert!(z.min() >= v.min() - 1e-4);
    }

    #[test]
    fn op_counts_are_linear_in_tokens() {
        let attn = EfficientAttention::new();
        let a = attn.op_counts(100, 16);
        let b = attn.op_counts(300, 16);
        assert_eq!(b.mul, a.mul * 3);
        assert!(attn.op_counts(64, 16).exp > 0);
    }
}
