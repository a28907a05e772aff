//! The vanilla (quadratic) softmax attention — the paper's BASELINE.

use crate::kernel::{validate_out, AttentionKernel, ROW_BLOCK};
use crate::opcount::{vanilla_softmax_ops, OpCounts};
use vitality_autograd::Var;
use vitality_tensor::backend::Operand;
use vitality_tensor::{matmul_backend, Matrix, Workspace};

/// Computes the scaled dot-product similarity `Q K^T / sqrt(d)` — the input to the softmax
/// in Step 2 of the vanilla attention (Fig. 2 of the paper).
pub fn scaled_similarity(q: &Matrix, k: &Matrix) -> Matrix {
    let d = q.cols() as f32;
    q.matmul_transpose_b(k).scale(1.0 / d.sqrt())
}

/// The standard softmax attention `softmax(Q K^T / sqrt(d)) V`.
///
/// Both its compute and — in the textbook form, [`SoftmaxAttention::attention_map`]` · V`,
/// which materialises the full `n x n` map — its memory cost grow quadratically with
/// the token count: the bottleneck ViTALiTy removes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoftmaxAttention {
    _private: (),
}

impl SoftmaxAttention {
    /// Creates the vanilla softmax attention.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the explicit `n x n` softmax attention map `S = softmax(Q K^T / sqrt(d))`.
    pub fn attention_map(&self, q: &Matrix, k: &Matrix) -> Matrix {
        scaled_similarity(q, k).softmax_rows()
    }
}

impl AttentionKernel for SoftmaxAttention {
    fn label(&self) -> &'static str {
        "softmax"
    }

    /// Blockwise fused softmax attention. The textbook pipeline
    /// ([`SoftmaxAttention::attention_map`]` · V`, this kernel's reference) materialises
    /// the full `n x n` map and scans it three times; this processes 64 query rows at
    /// a time — the logit block and the *unnormalised* `P·V` product both through the
    /// backend GEMM into workspace scratch, scale / row-max / `exp` / row-sum in one
    /// in-place pass, normalisation folded into the output write — so at most
    /// `64 x n` of the map ever exists, and it is read exactly once.
    fn compute_into(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        ws: &mut Workspace,
        out: &mut Matrix,
    ) {
        validate_out(q, k, v, out);
        let n = k.rows();
        let d = q.cols();
        let d_v = v.cols();
        let n_q = q.rows();
        let scale = 1.0 / (d as f32).sqrt();
        let backend = matmul_backend();
        let bs_max = ROW_BLOCK.min(n_q.max(1));
        let mut probs = ws.take_vec(bs_max * n);
        let mut z = ws.take_vec(bs_max * d_v);
        let mut inv_sums = [0.0f32; ROW_BLOCK];
        for lo in (0..n_q).step_by(ROW_BLOCK) {
            let hi = (lo + ROW_BLOCK).min(n_q);
            let bs = hi - lo;
            backend.gemm_into(
                &mut probs[..bs * n],
                bs,
                d,
                n,
                Operand::row_major(&q.as_slice()[lo * d..hi * d], d),
                Operand::transposed(k.as_slice(), d),
            );
            for (local, inv) in inv_sums.iter_mut().enumerate().take(bs) {
                let row = &mut probs[local * n..(local + 1) * n];
                let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x * scale));
                let mut sum = 0.0f32;
                for x in row.iter_mut() {
                    *x = (*x * scale - max).exp();
                    sum += *x;
                }
                *inv = if sum > 0.0 { 1.0 / sum } else { 0.0 };
            }
            backend.gemm_into(
                &mut z[..bs * d_v],
                bs,
                n,
                d_v,
                Operand::row_major(&probs[..bs * n], n),
                Operand::row_major(v.as_slice(), d_v),
            );
            for local in 0..bs {
                let inv = inv_sums[local];
                for (o, &zv) in out
                    .row_mut(lo + local)
                    .iter_mut()
                    .zip(z[local * d_v..(local + 1) * d_v].iter())
                {
                    *o = zv * inv;
                }
            }
        }
        ws.recycle_vec(probs);
        ws.recycle_vec(z);
    }

    fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        vanilla_softmax_ops(n, d)
    }

    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var {
        let d = q.shape().1 as f32;
        q.matmul_transpose_b(k)
            .scale(1.0 / d.sqrt())
            .softmax_rows()
            .matmul(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    #[test]
    fn attention_map_rows_are_probability_distributions() {
        let mut rng = StdRng::seed_from_u64(20);
        let q = init::normal(&mut rng, 10, 8, 0.0, 1.0);
        let k = init::normal(&mut rng, 10, 8, 0.0, 1.0);
        let map = SoftmaxAttention::new().attention_map(&q, &k);
        assert_eq!(map.shape(), (10, 10));
        for i in 0..10 {
            let sum: f32 = map.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(map.row(i).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn uniform_keys_give_uniform_attention_and_mean_value_output() {
        // If all keys are identical, every query attends uniformly and the output is the
        // per-column mean of the values.
        let q = Matrix::from_fn(5, 4, |i, j| (i + j) as f32 * 0.1);
        let k = Matrix::ones(6, 4);
        let v = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f32);
        let z = SoftmaxAttention::new().compute(&q, &k, &v);
        let expected_row = v.col_mean();
        for i in 0..z.rows() {
            for j in 0..z.cols() {
                assert!((z.get(i, j) - expected_row.get(0, j)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn sharp_logits_select_the_best_matching_value() {
        // With one key aligned to the query and large magnitude, attention concentrates on
        // that key's value row.
        let d = 8;
        let mut k = Matrix::zeros(4, d);
        for j in 0..d {
            k.set(2, j, 10.0);
        }
        let q = Matrix::from_fn(1, d, |_, _| 10.0);
        let v = Matrix::from_fn(4, d, |i, _| i as f32);
        let z = SoftmaxAttention::new().compute(&q, &k, &v);
        assert!((z.get(0, 0) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn scaled_similarity_applies_inverse_sqrt_d() {
        let q = Matrix::ones(2, 4);
        let k = Matrix::ones(3, 4);
        let sim = scaled_similarity(&q, &k);
        assert_eq!(sim.shape(), (2, 3));
        assert!((sim.get(0, 0) - 4.0 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn fused_kernel_matches_the_unfused_map_pipeline() {
        let mut rng = StdRng::seed_from_u64(22);
        // 150 rows straddles two ROW_BLOCK blocks; 3 exercises the ragged tail.
        for n in [3usize, 64, 150] {
            let q = init::normal(&mut rng, n, 16, 0.0, 0.8);
            let k = init::normal(&mut rng, n, 16, 0.0, 0.8);
            let v = init::normal(&mut rng, n, 16, 0.0, 1.0);
            let attn = SoftmaxAttention::new();
            let fused = attn.compute(&q, &k, &v);
            let unfused = attn.attention_map(&q, &k).matmul(&v);
            assert!(
                fused.approx_eq(&unfused, 1e-4),
                "n={n} max diff {}",
                fused.max_abs_diff(&unfused)
            );
        }
    }

    #[test]
    fn forward_train_matches_inference_and_backpropagates() {
        use vitality_autograd::Graph;
        let mut rng = StdRng::seed_from_u64(21);
        let q = init::normal(&mut rng, 6, 4, 0.0, 0.7);
        let k = init::normal(&mut rng, 6, 4, 0.0, 0.7);
        let v = init::normal(&mut rng, 6, 4, 0.0, 1.0);
        let reference = SoftmaxAttention::new().compute(&q, &k, &v);
        let graph = Graph::new();
        let qv = graph.parameter(q);
        let kv = graph.parameter(k);
        let vv = graph.parameter(v);
        let z = SoftmaxAttention::new().forward_train(&qv, &kv, &vv);
        assert!(z.value().approx_eq(&reference, 1e-4));
        let grads = graph.backward(&z.mean_all());
        assert_eq!(grads.len(), 3);
    }

    #[test]
    fn op_counts_are_quadratic_and_include_exponentiations() {
        let ops = SoftmaxAttention::new().op_counts(197, 64);
        assert_eq!(ops.exp, 197 * 197);
        assert_eq!(SoftmaxAttention::new().label(), "softmax");
    }
}
