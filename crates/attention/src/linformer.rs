//! Linformer: low-rank attention via token-dimension projection (Table IV / Table VI baseline).

use rand::Rng;

use crate::opcount::OpCounts;
use crate::validate_qkv;
use vitality_tensor::{init, Matrix};

/// Linformer attention: keys and values are projected from `n` tokens down to `k`
/// "landmark" tokens with learned `k x n` projections before the (now `n x k`) softmax
/// attention is computed, reducing both compute and memory to `O(n k)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinformerAttention {
    proj_k: Matrix,
    proj_v: Matrix,
}

impl LinformerAttention {
    /// Creates a Linformer attention for sequences of `tokens` tokens with a projected
    /// dimension of `landmarks`.
    ///
    /// # Panics
    ///
    /// Panics when `landmarks == 0` or `landmarks > tokens`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, tokens: usize, landmarks: usize) -> Self {
        assert!(
            landmarks > 0 && landmarks <= tokens,
            "landmarks must be in [1, tokens]"
        );
        Self {
            proj_k: init::normal(rng, landmarks, tokens, 0.0, 1.0 / (tokens as f32).sqrt()),
            proj_v: init::normal(rng, landmarks, tokens, 0.0, 1.0 / (tokens as f32).sqrt()),
        }
    }

    /// Number of landmark tokens the keys/values are projected to.
    pub fn landmarks(&self) -> usize {
        self.proj_k.rows()
    }

    /// Sequence length the projections were built for.
    pub fn tokens(&self) -> usize {
        self.proj_k.cols()
    }

    /// Computes the per-head attention score `Z` (`n x d`) from queries, keys and values.
    ///
    /// # Panics
    ///
    /// Panics when the `(Q, K, V)` shapes are inconsistent.
    pub fn compute(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        validate_qkv(q, k, v);
        assert_eq!(
            k.rows(),
            self.tokens(),
            "Linformer projection was built for {} tokens but got {}",
            self.tokens(),
            k.rows()
        );
        let d = q.cols() as f32;
        let k_proj = self.proj_k.matmul(k); // landmarks x d
        let v_proj = self.proj_v.matmul(v); // landmarks x d
        let scores = q.matmul_transpose_b(&k_proj).scale(1.0 / d.sqrt());
        scores.softmax_rows().matmul(&v_proj)
    }

    /// Scalar-operation model for one head with `n` tokens and `d` feature dimensions
    /// (what Table IV reads).
    pub fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        let k = self.landmarks().min(n) as u64;
        let (n, d) = (n as u64, d as u64);
        OpCounts {
            // Projections (2 n k d) plus attention (2 n k d).
            mul: 4 * n * k * d,
            add: 4 * n * k * d + n * k,
            div: n * k,
            exp: n * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttentionKernel, SoftmaxAttention};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_and_finiteness() {
        let mut rng = StdRng::seed_from_u64(50);
        let (n, d) = (20, 8);
        let attn = LinformerAttention::new(&mut rng, n, 5);
        assert_eq!(attn.landmarks(), 5);
        assert_eq!(attn.tokens(), n);
        let q = init::normal(&mut rng, n, d, 0.0, 0.5);
        let k = init::normal(&mut rng, n, d, 0.0, 0.5);
        let v = init::normal(&mut rng, n, d, 0.0, 1.0);
        let z = attn.compute(&q, &k, &v);
        assert_eq!(z.shape(), (n, d));
        assert!(z.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn full_rank_projection_can_be_exact() {
        // With landmarks == tokens and identity projections, Linformer is the vanilla attention.
        let n = 8;
        let d = 4;
        let mut rng = StdRng::seed_from_u64(51);
        let mut attn = LinformerAttention::new(&mut rng, n, n);
        attn.proj_k = Matrix::identity(n);
        attn.proj_v = Matrix::identity(n);
        let q = init::normal(&mut rng, n, d, 0.0, 0.5);
        let k = init::normal(&mut rng, n, d, 0.0, 0.5);
        let v = init::normal(&mut rng, n, d, 0.0, 1.0);
        assert!(attn
            .compute(&q, &k, &v)
            .approx_eq(&SoftmaxAttention::new().compute(&q, &k, &v), 1e-4));
    }

    #[test]
    fn op_counts_scale_linearly_in_tokens() {
        let mut rng = StdRng::seed_from_u64(52);
        let attn = LinformerAttention::new(&mut rng, 256, 32);
        let a = attn.op_counts(128, 64);
        let b = attn.op_counts(256, 64);
        assert_eq!(b.mul, a.mul * 2);
    }

    #[test]
    #[should_panic(expected = "landmarks")]
    fn rejects_zero_landmarks() {
        let mut rng = StdRng::seed_from_u64(53);
        let _ = LinformerAttention::new(&mut rng, 8, 0);
    }
}
