//! Linear Transformer attention with the `elu(x) + 1` kernel (Katharopoulos et al.).

use crate::opcount::OpCounts;
use crate::validate_qkv;
use vitality_tensor::Matrix;

/// Linear Transformer attention: `phi(x) = elu(x) + 1` applied elementwise to queries and
/// keys, after which the associativity trick yields `O(n d²)` complexity, mirroring the
/// ViTALiTy Taylor attention's use of the global context matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearKernelAttention {
    _private: (),
}

impl LinearKernelAttention {
    /// Creates the `elu + 1` linear attention.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `elu(x) + 1` feature map, which is strictly positive.
    pub fn feature_map(x: &Matrix) -> Matrix {
        x.map(|v| if v > 0.0 { v + 1.0 } else { v.exp() })
    }

    /// Computes the per-head attention score `Z` (`n x d`) from queries, keys and values.
    ///
    /// # Panics
    ///
    /// Panics when the `(Q, K, V)` shapes are inconsistent.
    pub fn compute(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        validate_qkv(q, k, v);
        let q_prime = Self::feature_map(q);
        let k_prime = Self::feature_map(k);
        let context = k_prime.transpose_matmul(v); // d x d
        let numerator = q_prime.matmul(&context);
        let k_sum = k_prime.col_sum();
        let denominator = q_prime.matmul_transpose_b(&k_sum);
        numerator.broadcast_div_col(&denominator)
    }

    /// Scalar-operation model for one head with `n` tokens and `d` feature dimensions
    /// (what Table IV reads).
    pub fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        let (n, d) = (n as u64, d as u64);
        OpCounts {
            mul: 2 * n * d * d + n * d,
            add: 2 * n * d * d + 2 * n * d,
            div: n * d,
            // elu's negative branch costs an exponential; assume half the entries hit it.
            exp: n * d,
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
    fn feature_map_is_positive_and_continuous_at_zero() {
        let x = Matrix::from_rows(&[vec![-2.0, -0.001, 0.0, 0.001, 2.0]]).unwrap();
        let phi = LinearKernelAttention::feature_map(&x);
        assert!(phi.iter().all(|&v| v > 0.0));
        assert!((phi.get(0, 1) - phi.get(0, 3)).abs() < 0.01);
        assert!((phi.get(0, 2) - 1.0).abs() < 1e-6);
        assert!((phi.get(0, 4) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn attention_rows_are_convex_combinations_of_values() {
        // With a positive kernel the attention weights are positive and normalised, so the
        // output lies inside the convex hull of the value rows.
        let mut rng = StdRng::seed_from_u64(70);
        let q = init::normal(&mut rng, 10, 6, 0.0, 0.5);
        let k = init::normal(&mut rng, 10, 6, 0.0, 0.5);
        let v = init::uniform(&mut rng, 10, 6, 0.0, 1.0);
        let z = LinearKernelAttention::new().compute(&q, &k, &v);
        assert!(z.max() <= v.max() + 1e-4);
        assert!(z.min() >= v.min() - 1e-4);
    }

    #[test]
    fn op_counts_linear_and_metadata() {
        let attn = LinearKernelAttention::new();
        let a = attn.op_counts(100, 32);
        let b = attn.op_counts(200, 32);
        assert_eq!(b.mul, a.mul * 2);
    }
}
