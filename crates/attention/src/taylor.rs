//! The ViTALiTy linear Taylor attention (Algorithm 1 of the paper).
//!
//! The vanilla softmax attention computes `softmax(Q K^T / sqrt(d)) V`, which is quadratic
//! in the number of tokens `n`. ViTALiTy first row-mean-centres the attention logits — by
//! mean-centring the *keys*, which is linear in `n` and leaves the softmax output unchanged
//! (Property 1) — and then replaces the exponential with its first-order Taylor expansion
//! around zero. The resulting "weak" attention is linear: using the associativity of matrix
//! products it only ever materialises the `d x d` global context matrix `G = \hat{K}^T V`
//! instead of the `n x n` attention map.

use crate::kernel::{
    center_keys_into, fill_k_bar, low_rank_outputs, taylor_aggregates_from_centred, validate_out,
    AttentionKernel,
};
use crate::opcount::{taylor_attention_ops, OpCounts};
use crate::softmax::scaled_similarity;
use crate::validate_qkv;
use vitality_autograd::Var;
use vitality_tensor::{matmul_backend, Matrix, Workspace};

/// Mean-centres the keys: returns `\hat{K} = K - 1_n \bar{K}` where `\bar{K}` is the
/// column (token-wise) mean of `K`.
///
/// Subtracting the same row vector from every key leaves every row of `Q K^T` shifted by a
/// per-row constant, which the softmax is invariant to (Property 1 in the paper) — so the
/// softmax attention computed from `\hat{K}` is exactly the softmax attention computed from
/// `K`, while the logits become centred around zero.
pub fn mean_center_keys(k: &Matrix) -> Matrix {
    k.broadcast_sub_row(&k.col_mean())
}

/// Every intermediate produced by Algorithm 1, exposed so that the accelerator simulator
/// can replay the exact tensor shapes of each step and so that tests can validate the
/// step-by-step identities.
#[derive(Debug, Clone)]
pub struct TaylorTrace {
    /// `\bar{K}`: `1 x d` column mean of the keys (Step 1).
    pub k_bar: Matrix,
    /// `\hat{K}`: `n x d` mean-centred keys (Step 1).
    pub k_hat: Matrix,
    /// `G = \hat{K}^T V`: `d x d` global context matrix (Step 2).
    pub global_context: Matrix,
    /// `\hat{k}_{sum} = 1_n^T \hat{K}`: `1 x d` column sum of the centred keys (Step 3).
    pub k_sum: Matrix,
    /// `v_{sum} = 1_n^T V`: `1 x d` column sum of the values (Step 3).
    pub v_sum: Matrix,
    /// `t_D`: `n x 1` Taylor denominator (Step 4).
    pub denominator: Matrix,
    /// `T_N`: `n x d` Taylor numerator (Step 5).
    pub numerator: Matrix,
    /// `Z`: `n x d` Taylor attention score (Step 6).
    pub score: Matrix,
}

/// The ViTALiTy linear Taylor attention.
///
/// At inference time only this low-rank component runs; the sparse component used during
/// training (see [`crate::UnifiedLowRankSparseAttention`]) is dropped, which is the key
/// system-level simplification the dedicated accelerator exploits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaylorAttention {
    /// When `false`, keys are used as-is (ablation of the mean-centring step).
    mean_center: bool,
}

impl TaylorAttention {
    /// Creates the standard ViTALiTy Taylor attention (with key mean-centring).
    pub fn new() -> Self {
        Self { mean_center: true }
    }

    /// Creates a Taylor attention that skips the mean-centring pre-processing step.
    ///
    /// Used by the ablation study: without centring, far fewer logits fall inside
    /// `[-1, 1)` and the first-order expansion degrades.
    pub fn without_mean_centering() -> Self {
        Self { mean_center: false }
    }

    /// `true` when the mean-centring pre-processing step is enabled.
    pub fn mean_centering(&self) -> bool {
        self.mean_center
    }

    /// Runs Algorithm 1 step by step and returns every intermediate (Steps 1–6) — the
    /// **reference** the fused [`AttentionKernel::compute_into`] is held against (its
    /// `score` field), and what the accelerator simulator replays.
    ///
    /// # Panics
    ///
    /// Panics when the `(Q, K, V)` shapes are inconsistent.
    pub fn compute_with_trace(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> TaylorTrace {
        validate_qkv(q, k, v);
        let n = k.rows();
        let d = q.cols();
        let sqrt_d = (d as f32).sqrt();

        // Step 1: mean-centre the keys.
        let k_bar = k.col_mean();
        let k_hat = if self.mean_center {
            k.broadcast_sub_row(&k_bar)
        } else {
            k.clone()
        };

        // Step 2: global context matrix G = \hat{K}^T V (d x d).
        let global_context = k_hat.transpose_matmul(v);

        // Step 3: column sums of the centred keys and of the values.
        let k_sum = k_hat.col_sum();
        let v_sum = v.col_sum();

        // Step 4: Taylor denominator t_D = n sqrt(d) 1_n + Q \hat{k}_{sum}^T (n x 1).
        let denominator = q.matmul_transpose_b(&k_sum).add_scalar(n as f32 * sqrt_d);

        // Step 5: Taylor numerator T_N = sqrt(d) (1_n v_{sum}) + Q G (n x d).
        let broadcast_vsum = Matrix::from_fn(q.rows(), v_sum.cols(), |_, j| v_sum.get(0, j));
        let numerator = q
            .matmul(&global_context)
            .try_add(&broadcast_vsum.scale(sqrt_d))
            .expect("numerator shapes");

        // Step 6: Z = diag^{-1}(t_D) T_N.
        let score = numerator.broadcast_div_col(&denominator);

        TaylorTrace {
            k_bar,
            k_hat,
            global_context,
            k_sum,
            v_sum,
            denominator,
            numerator,
            score,
        }
    }

    /// The first-order ("weak") Taylor attention *map* — the explicit `n x n` matrix
    /// `diag^{-1}(t_D) (sqrt(d) 1_n 1_n^T + Q \hat{K}^T)`.
    ///
    /// Never used at inference (it defeats the linear-complexity point of the method); it
    /// exists for the decomposition analysis and the training-time sparse residual.
    pub fn weak_attention_map(&self, q: &Matrix, k: &Matrix) -> Matrix {
        assert_eq!(
            q.cols(),
            k.cols(),
            "queries and keys must share the feature dimension"
        );
        let d = q.cols();
        let sqrt_d = (d as f32).sqrt();
        let k_hat = if self.mean_center {
            mean_center_keys(k)
        } else {
            k.clone()
        };
        let logits = scaled_similarity(q, &k_hat);
        // Un-normalised first-order expansion: 1 + q_i \hat{k}_j^T / sqrt(d).
        let expanded = logits.add_scalar(1.0);
        // Row-wise normalisation by the Taylor denominator (in units of the expansion,
        // i.e. divide by n + q_i \hat{k}_sum^T / sqrt(d) = t_D / sqrt(d)).
        let k_sum = k_hat.col_sum();
        let denom = q
            .matmul_transpose_b(&k_sum)
            .scale(1.0 / sqrt_d)
            .add_scalar(k.rows() as f32);
        expanded.broadcast_div_col(&denom)
    }

    /// The "strong" attention map: the residual between the exact softmax attention map
    /// (computed from mean-centred keys) and the first-order Taylor map. This is the part
    /// the paper approximates with a sparse component during training and drops entirely
    /// at inference.
    pub fn strong_attention_map(&self, q: &Matrix, k: &Matrix) -> Matrix {
        let k_hat = if self.mean_center {
            mean_center_keys(k)
        } else {
            k.clone()
        };
        let exact = scaled_similarity(q, &k_hat).softmax_rows();
        let weak = self.weak_attention_map(q, k);
        exact.try_sub(&weak).expect("map shapes")
    }
}

impl AttentionKernel for TaylorAttention {
    fn label(&self) -> &'static str {
        if self.mean_center {
            "taylor"
        } else {
            "taylor-no-centering"
        }
    }

    /// Fused Algorithm 1, without its analytical intermediates.
    ///
    /// [`TaylorAttention::compute_with_trace`] materialises every step — `\hat{K}`,
    /// `G`, the broadcast `1_n v_{sum}`, the numerator and the denominator — which is
    /// what the accelerator simulator replays but wastes memory traffic at inference.
    /// This produces the same score in three passes over workspace scratch:
    ///
    /// 1. one reduction over `K` for `\bar{K}` (all-zero when centring is ablated, so
    ///    the centring sweep can subtract unconditionally), then the centred keys;
    /// 2. the `(G = \hat{K}^T V, \hat{k}_{sum}, v_{sum})` aggregates, with `G` on the
    ///    backend GEMM (the SIMD microkernels) and the sums in one `O(nd)` sweep;
    /// 3. the `Q G` product on the same GEMM, with Steps 4–6's epilogue —
    ///    `(sqrt(d) v_{sum} + q_i G) / (n sqrt(d) + q_i \hat{k}_{sum}^T)` — folded
    ///    over the product rows, with no `t_D`, `T_N` or broadcast buffers.
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
        let d_k = k.cols();
        let d_v = v.cols();
        let sqrt_d = (q.cols() as f32).sqrt();
        let backend = matmul_backend();

        let mut k_bar = ws.take_vec(d_k);
        fill_k_bar(k, self.mean_center, &mut k_bar);
        let mut k_hat = ws.take_vec(n * d_k);
        center_keys_into(k, &k_bar, &mut k_hat);

        let mut g = ws.take_vec(d_k * d_v);
        let mut k_sum = ws.take_vec(d_k);
        let mut v_sum = ws.take_vec(d_v);
        taylor_aggregates_from_centred(backend, &k_hat, v, &mut g, &mut k_sum, &mut v_sum);

        let n_sqrt_d = n as f32 * sqrt_d;
        low_rank_outputs(
            backend,
            q.as_slice(),
            d_k,
            &g,
            &k_sum,
            &v_sum,
            sqrt_d,
            n_sqrt_d,
            out.as_mut_slice(),
            None,
        );

        ws.recycle_vec(k_bar);
        ws.recycle_vec(k_hat);
        ws.recycle_vec(g);
        ws.recycle_vec(k_sum);
        ws.recycle_vec(v_sum);
    }

    fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        taylor_attention_ops(n, d)
    }

    /// `q`, `k` and `v` are tape variables (typically outputs of the Q/K/V
    /// projections); the returned score is differentiable with respect to all of them.
    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var {
        let (n, d) = (k.shape().0, q.shape().1);
        let sqrt_d = (d as f32).sqrt();
        let k_hat = if self.mean_center {
            k.broadcast_sub_row(&k.col_mean())
        } else {
            k.clone()
        };
        let global_context = k_hat.transpose_matmul(v);
        let k_sum = k_hat.col_sum();
        let v_sum = v.col_sum();
        let denominator = q.matmul_transpose_b(&k_sum).add_scalar(n as f32 * sqrt_d);
        let numerator = q
            .matmul(&global_context)
            .add(&v_sum.scale(sqrt_d).broadcast_row_to(q.shape().0));
        numerator.broadcast_div_col(&denominator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::SoftmaxAttention;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::{init, stats::fraction_in_interval};

    fn qkv(n: usize, d: usize, scale: f32, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            init::normal(&mut rng, n, d, 0.0, scale),
            init::normal(&mut rng, n, d, 0.3, scale),
            init::normal(&mut rng, n, d, 0.0, 1.0),
        )
    }

    #[test]
    fn mean_centering_keys_preserves_softmax_attention_exactly() {
        // Property 1: softmax(Q K^T) == softmax(Q \hat{K}^T).
        let (q, k, v) = qkv(24, 16, 0.8, 1);
        let vanilla = SoftmaxAttention::new().compute(&q, &k, &v);
        let centred = SoftmaxAttention::new().compute(&q, &mean_center_keys(&k), &v);
        assert!(
            vanilla.approx_eq(&centred, 1e-3),
            "max diff {}",
            vanilla.max_abs_diff(&centred)
        );
    }

    #[test]
    fn mean_centering_moves_logits_toward_the_unit_interval() {
        // The Fig. 3 motivation: centring increases the fraction of logits in [-1, 1).
        let (q, k, _) = qkv(64, 16, 1.2, 2);
        let raw = scaled_similarity(&q, &k);
        let centred = scaled_similarity(&q, &mean_center_keys(&k));
        let before = fraction_in_interval(&raw, -1.0, 1.0);
        let after = fraction_in_interval(&centred, -1.0, 1.0);
        assert!(
            after >= before,
            "centring reduced in-range fraction: {before} -> {after}"
        );
    }

    #[test]
    fn centred_key_column_sum_vanishes_making_the_denominator_constant() {
        // Because \hat{k}_{sum} = 1_n^T (K - 1_n \bar{K}) = 0 analytically, the Taylor
        // denominator collapses to n sqrt(d); Algorithm 1 still computes the term (and the
        // accelerator still executes it on SA-Diag), so we assert it is numerically tiny.
        let (q, k, v) = qkv(32, 8, 0.5, 3);
        let trace = TaylorAttention::new().compute_with_trace(&q, &k, &v);
        assert!(trace.k_sum.iter().all(|v| v.abs() < 1e-4));
        let expected = 32.0 * (8.0f32).sqrt();
        for i in 0..trace.denominator.rows() {
            assert!((trace.denominator.get(i, 0) - expected).abs() < 1e-2);
        }
    }

    #[test]
    fn taylor_score_matches_explicit_first_order_expansion() {
        // Z must equal the explicit (n x n) first-order map applied to V.
        let (q, k, v) = qkv(20, 8, 0.3, 4);
        let attention = TaylorAttention::new();
        let z = attention.compute(&q, &k, &v);
        let explicit = attention.weak_attention_map(&q, &k).matmul(&v);
        assert!(
            z.approx_eq(&explicit, 1e-3),
            "max diff {}",
            z.max_abs_diff(&explicit)
        );
    }

    #[test]
    fn weak_plus_strong_reconstructs_the_exact_softmax_map() {
        let (q, k, _) = qkv(16, 8, 0.6, 5);
        let attention = TaylorAttention::new();
        let weak = attention.weak_attention_map(&q, &k);
        let strong = attention.strong_attention_map(&q, &k);
        let exact = scaled_similarity(&q, &mean_center_keys(&k)).softmax_rows();
        let rebuilt = weak.try_add(&strong).unwrap();
        assert!(rebuilt.approx_eq(&exact, 1e-4));
    }

    #[test]
    fn weak_attention_rows_sum_to_one() {
        // The first-order map is normalised by construction: each row of
        // (1 + q k^T / sqrt(d)) / (n + q k_sum^T / sqrt(d)) sums to exactly 1.
        let (q, k, _) = qkv(12, 8, 0.5, 6);
        let weak = TaylorAttention::new().weak_attention_map(&q, &k);
        for i in 0..weak.rows() {
            let s: f32 = weak.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {i} sums to {s}");
        }
    }

    #[test]
    fn approximates_softmax_well_for_small_logits() {
        let (q, k, v) = qkv(32, 16, 0.05, 7);
        let exact = SoftmaxAttention::new().compute(&q, &k, &v);
        let taylor = TaylorAttention::new().compute(&q, &k, &v);
        assert!(exact.max_abs_diff(&taylor) < 0.02);
    }

    #[test]
    fn degrades_for_large_logits_motivating_the_strong_component() {
        // With large-magnitude logits the first-order expansion is a poor fit — the paper's
        // LOWRANK drop-in accuracy collapse (Fig. 10).
        let (q, k, v) = qkv(32, 16, 1.5, 8);
        let exact = SoftmaxAttention::new().compute(&q, &k, &v);
        let taylor = TaylorAttention::new().compute(&q, &k, &v);
        let small_err = {
            let (q, k, v) = qkv(32, 16, 0.05, 9);
            SoftmaxAttention::new()
                .compute(&q, &k, &v)
                .max_abs_diff(&TaylorAttention::new().compute(&q, &k, &v))
        };
        assert!(exact.max_abs_diff(&taylor) > 5.0 * small_err);
    }

    #[test]
    fn disabling_mean_centering_changes_the_result() {
        let (q, k, v) = qkv(16, 8, 0.5, 10);
        let with = TaylorAttention::new().compute(&q, &k, &v);
        let without = TaylorAttention::without_mean_centering().compute(&q, &k, &v);
        assert!(!with.approx_eq(&without, 1e-3));
        assert!(TaylorAttention::new().mean_centering());
        assert!(!TaylorAttention::without_mean_centering().mean_centering());
        assert_eq!(
            TaylorAttention::without_mean_centering().label(),
            "taylor-no-centering"
        );
    }

    #[test]
    fn forward_train_matches_inference_values_and_backpropagates() {
        use vitality_autograd::Graph;
        let (q, k, v) = qkv(10, 6, 0.4, 11);
        let attention = TaylorAttention::new();
        let reference = attention.compute(&q, &k, &v);

        let graph = Graph::new();
        let qv = graph.parameter(q);
        let kv = graph.parameter(k);
        let vv = graph.parameter(v);
        let z = attention.forward_train(&qv, &kv, &vv);
        assert!(z.value().approx_eq(&reference, 1e-4));
        let grads = graph.backward(&z.mean_all());
        assert!(grads.get(&qv).is_some());
        assert!(grads.get(&kv).is_some());
        assert!(grads.get(&vv).is_some());
    }

    #[test]
    fn fused_kernel_matches_the_unfused_trace() {
        for (n, d, seed) in [(20, 8, 13), (129, 16, 14), (257, 32, 15)] {
            let (q, k, v) = qkv(n, d, 0.4, seed);
            for attention in [
                TaylorAttention::new(),
                TaylorAttention::without_mean_centering(),
            ] {
                let fused = attention.compute(&q, &k, &v);
                let traced = attention.compute_with_trace(&q, &k, &v).score;
                assert!(
                    fused.approx_eq(&traced, 1e-4),
                    "n={n} centring={} max diff {}",
                    attention.mean_centering(),
                    fused.max_abs_diff(&traced)
                );
            }
        }
    }

    #[test]
    fn trace_shapes_follow_algorithm_1() {
        let (q, k, v) = qkv(20, 8, 0.5, 12);
        let trace = TaylorAttention::new().compute_with_trace(&q, &k, &v);
        assert_eq!(trace.k_bar.shape(), (1, 8));
        assert_eq!(trace.k_hat.shape(), (20, 8));
        assert_eq!(trace.global_context.shape(), (8, 8));
        assert_eq!(trace.k_sum.shape(), (1, 8));
        assert_eq!(trace.v_sum.shape(), (1, 8));
        assert_eq!(trace.denominator.shape(), (20, 1));
        assert_eq!(trace.numerator.shape(), (20, 8));
        assert_eq!(trace.score.shape(), (20, 8));
    }

    #[test]
    fn op_counts_have_no_exponentiations() {
        let ops = TaylorAttention::new().op_counts(197, 64);
        assert_eq!(ops.exp, 0);
        assert!(ops.mul > 0);
    }
}
