//! Performer: kernelised linear attention with positive orthogonal random features (PORF).

use rand::Rng;

use crate::opcount::OpCounts;
use crate::validate_qkv;
use vitality_tensor::{init, Matrix};

/// Performer attention (FAVOR+): the softmax kernel `exp(q k^T)` is approximated with the
/// positive random-feature map `phi(x) = exp(w x - |x|²/2) / sqrt(m)`, after which the
/// associativity trick gives linear complexity, exactly like the Taylor attention's global
/// context matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformerAttention {
    /// `m x d` random projection matrix (rows are approximately orthogonal directions).
    omega: Matrix,
}

impl PerformerAttention {
    /// Creates a Performer attention for head dimension `d` with `features` random features.
    ///
    /// # Panics
    ///
    /// Panics when `features == 0`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, d: usize, features: usize) -> Self {
        assert!(features > 0, "at least one random feature is required");
        let mut omega = init::normal(rng, features, d, 0.0, 1.0);
        orthogonalise_rows(&mut omega);
        Self { omega }
    }

    /// Number of random features.
    pub fn features(&self) -> usize {
        self.omega.rows()
    }

    /// Applies the positive random feature map to an `n x d` matrix, returning `n x m`.
    pub fn feature_map(&self, x: &Matrix) -> Matrix {
        let d = x.cols() as f32;
        let m = self.omega.rows() as f32;
        // Scale inputs by d^{-1/4} so that q·k/sqrt(d) becomes the kernel argument.
        let scaled = x.scale(1.0 / d.powf(0.25));
        let projected = scaled.matmul_transpose_b(&self.omega); // n x m
        let mut out = Matrix::zeros(projected.rows(), projected.cols());
        for i in 0..projected.rows() {
            let sq_norm: f32 = scaled.row(i).iter().map(|v| v * v).sum::<f32>() / 2.0;
            for j in 0..projected.cols() {
                out.set(i, j, (projected.get(i, j) - sq_norm).exp() / m.sqrt());
            }
        }
        out
    }

    /// Computes the per-head attention score `Z` (`n x d`) from queries, keys and values.
    ///
    /// # Panics
    ///
    /// Panics when the `(Q, K, V)` shapes are inconsistent.
    pub fn compute(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        validate_qkv(q, k, v);
        let q_prime = self.feature_map(q); // n x m
        let k_prime = self.feature_map(k); // n x m
                                           // Linear attention: numerator = Q' (K'^T V), denominator = Q' (K'^T 1_n).
        let context = k_prime.transpose_matmul(v); // m x d
        let numerator = q_prime.matmul(&context); // n x d
        let k_sum = k_prime.col_sum(); // 1 x m
        let denominator = q_prime.matmul_transpose_b(&k_sum); // n x 1
        let safe_denominator = denominator.map(|x| if x.abs() < 1e-8 { 1e-8 } else { x });
        numerator.broadcast_div_col(&safe_denominator)
    }

    /// Scalar-operation model for one head with `n` tokens and `d` feature dimensions
    /// (what Table IV reads).
    pub fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        let m = self.features() as u64;
        let (n, d) = (n as u64, d as u64);
        OpCounts {
            // Feature maps (2 n d m) + context (n m d) + numerator (n m d) + denominator (n m).
            mul: 2 * n * d * m + 2 * n * m * d + n * m,
            add: 2 * n * d * m + 2 * n * m * d + 2 * n * m,
            div: n * d + 2 * n * m,
            exp: 2 * n * m,
        }
    }
}

/// Gram–Schmidt orthogonalisation of the rows (in place), preserving row norms by
/// re-scaling each row to the expected chi distribution norm `sqrt(d)`.
fn orthogonalise_rows(m: &mut Matrix) {
    let d = m.cols();
    let rows = m.rows().min(d);
    for i in 0..rows {
        for j in 0..i {
            let dot: f32 = (0..d).map(|c| m.get(i, c) * m.get(j, c)).sum();
            let norm_j: f32 = (0..d).map(|c| m.get(j, c) * m.get(j, c)).sum();
            if norm_j > 0.0 {
                for c in 0..d {
                    m.set(i, c, m.get(i, c) - dot / norm_j * m.get(j, c));
                }
            }
        }
    }
    // Re-normalise every row to norm sqrt(d) (the expected norm of a Gaussian vector).
    let target = (d as f32).sqrt();
    for i in 0..m.rows() {
        let norm: f32 = (0..d)
            .map(|c| m.get(i, c) * m.get(i, c))
            .sum::<f32>()
            .sqrt();
        if norm > 0.0 {
            for c in 0..d {
                m.set(i, c, m.get(i, c) / norm * target);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttentionKernel, SoftmaxAttention};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn qkv(n: usize, d: usize, scale: f32, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            init::normal(&mut rng, n, d, 0.0, scale),
            init::normal(&mut rng, n, d, 0.0, scale),
            init::normal(&mut rng, n, d, 0.0, 1.0),
        )
    }

    #[test]
    fn feature_map_is_positive() {
        let mut rng = StdRng::seed_from_u64(60);
        let attn = PerformerAttention::new(&mut rng, 8, 16);
        assert_eq!(attn.features(), 16);
        let x = init::normal(&mut rng, 10, 8, 0.0, 1.0);
        let phi = attn.feature_map(&x);
        assert_eq!(phi.shape(), (10, 16));
        assert!(phi.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn orthogonalisation_makes_rows_nearly_orthogonal() {
        let mut rng = StdRng::seed_from_u64(61);
        let attn = PerformerAttention::new(&mut rng, 16, 8);
        let omega = &attn.omega;
        for i in 0..omega.rows() {
            for j in 0..i {
                let dot: f32 = (0..omega.cols())
                    .map(|c| omega.get(i, c) * omega.get(j, c))
                    .sum();
                let ni: f32 = (0..omega.cols())
                    .map(|c| omega.get(i, c).powi(2))
                    .sum::<f32>()
                    .sqrt();
                let nj: f32 = (0..omega.cols())
                    .map(|c| omega.get(j, c).powi(2))
                    .sum::<f32>()
                    .sqrt();
                assert!(
                    (dot / (ni * nj)).abs() < 1e-3,
                    "rows {i},{j} not orthogonal"
                );
            }
        }
    }

    #[test]
    fn approximates_softmax_attention_with_many_features() {
        let (q, k, v) = qkv(16, 8, 0.3, 62);
        let exact = SoftmaxAttention::new().compute(&q, &k, &v);
        let mut rng = StdRng::seed_from_u64(63);
        let performer = PerformerAttention::new(&mut rng, 8, 256).compute(&q, &k, &v);
        // A stochastic kernel estimate: only require a loose agreement.
        assert!(
            exact.max_abs_diff(&performer) < 0.35,
            "diff {}",
            exact.max_abs_diff(&performer)
        );
    }

    #[test]
    fn op_counts_are_linear_in_tokens() {
        let mut rng = StdRng::seed_from_u64(64);
        let attn = PerformerAttention::new(&mut rng, 64, 64);
        let a = attn.op_counts(100, 64);
        let b = attn.op_counts(200, 64);
        assert_eq!(b.mul, a.mul * 2);
    }

    #[test]
    #[should_panic(expected = "random feature")]
    fn rejects_zero_features() {
        let mut rng = StdRng::seed_from_u64(65);
        let _ = PerformerAttention::new(&mut rng, 8, 0);
    }
}
