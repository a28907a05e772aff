//! The training-time unification of the low-rank Taylor attention and the sparse
//! approximation of the "strong" higher-order terms (Fig. 4 of the paper).

use crate::kernel::{
    add_masked_strong_residual, center_keys_into, fill_k_bar, low_rank_outputs,
    taylor_aggregates_from_centred, validate_out, AttentionKernel,
};
use crate::opcount::{taylor_attention_ops, vanilla_softmax_ops, OpCounts};
use crate::sparse::SangerSparseAttention;
use crate::taylor::{mean_center_keys, TaylorAttention};
use crate::validate_qkv;
use vitality_autograd::Var;
use vitality_tensor::{matmul_backend, Matrix, Workspace};

/// Unified low-rank + sparse attention used while fine-tuning ViTALiTy models.
///
/// The vanilla softmax attention decomposes into the first-order ("weak") Taylor map plus
/// the higher-order ("strong") residual. During training ViTALiTy computes the weak part
/// exactly (it is the linear Taylor attention) and approximates the strong residual with a
/// Sanger-style sparse component; at inference the sparse component is dropped because it
/// empirically vanishes during training (Fig. 14), leaving only the linear attention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnifiedLowRankSparseAttention {
    taylor: TaylorAttention,
    sparse: SangerSparseAttention,
}

impl UnifiedLowRankSparseAttention {
    /// Creates the unified attention with the given sparsity threshold (the paper's
    /// ablation finds `T = 0.5` optimal).
    ///
    /// # Panics
    ///
    /// Panics when the threshold is outside `[0, 1]`.
    pub fn new(threshold: f32) -> Self {
        Self {
            taylor: TaylorAttention::new(),
            sparse: SangerSparseAttention::new(threshold),
        }
    }

    /// The sparsity threshold of the sparse component.
    pub fn threshold(&self) -> f32 {
        self.sparse.threshold()
    }

    /// The low-rank component (the attention used alone at inference time).
    pub fn low_rank(&self) -> TaylorAttention {
        self.taylor
    }

    /// The sparse component configuration.
    pub fn sparse(&self) -> SangerSparseAttention {
        self.sparse
    }

    /// The masked strong residual: `(softmax map − weak Taylor map) ⊙ mask`.
    ///
    /// This is the quantity whose non-zero occupancy the paper tracks over training
    /// epochs (Fig. 14); when it vanishes the sparse component can be dropped.
    pub fn masked_strong_component(&self, q: &Matrix, k: &Matrix) -> Matrix {
        let k_hat = mean_center_keys(k);
        let strong = self.taylor.strong_attention_map(q, k);
        // Sanger predicts on the mean-centred logits, matching the training pipeline.
        let mask = self.sparse.prediction_mask(q, &k_hat);
        strong.apply_mask(&mask)
    }

    /// The traced **reference**: materialises the exact `n x n` softmax map, the weak
    /// Taylor map, the prediction mask and the masked strong component, adds their
    /// zero-skipping product with `V` to the step-by-step Algorithm-1 score
    /// ([`TaylorAttention::compute_with_trace`]). Shares no arithmetic with the fused
    /// [`AttentionKernel::compute_into`], which is held within `1e-4` of it.
    ///
    /// # Panics
    ///
    /// Panics when the `(Q, K, V)` shapes are inconsistent.
    pub fn compute_traced(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        validate_qkv(q, k, v);
        let low_rank = self.taylor.compute_with_trace(q, k, v).score;
        let residual = self.masked_strong_component(q, k).matmul_sparse(v);
        low_rank
            .try_add(&residual)
            .expect("unified component shapes")
    }
}

impl AttentionKernel for UnifiedLowRankSparseAttention {
    fn label(&self) -> &'static str {
        "unified"
    }

    /// The fused kernel: the same score as
    /// [`UnifiedLowRankSparseAttention::compute_traced`] without any `n x n`
    /// intermediate, one fewer `n²d` GEMM, and every buffer from the workspace.
    ///
    /// 1. the **low-rank** part runs the fused Algorithm-1 accumulation (`G`,
    ///    `\hat{k}_{sum}`, `v_{sum}`) and output sweep exactly as the Taylor kernel does;
    /// 2. the **sparse** part evaluates the strong residual `softmax_ij − weak_ij` only
    ///    at the positions surviving the Sanger mask (threshold on the quantized
    ///    softmax prediction, argmax fallback — the same rule
    ///    [`SangerSparseAttention::prediction_mask`] applies, hence the same surviving
    ///    columns per row as that dense mask), 64 query rows at a time, accumulating `strong_ij · v_j` onto the low-rank output row.
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

        // Mean-centred keys: the prediction *and* the exact map both run on \hat{K},
        // matching the training pipeline.
        let mut k_bar = ws.take_vec(d_k);
        fill_k_bar(k, true, &mut k_bar);
        let mut k_hat = ws.take(n, d_k);
        center_keys_into(k, &k_bar, k_hat.as_mut_slice());

        let mut g = ws.take_vec(d_k * d_v);
        let mut k_sum = ws.take_vec(d_k);
        let mut v_sum = ws.take_vec(d_v);
        taylor_aggregates_from_centred(
            backend,
            k_hat.as_slice(),
            v,
            &mut g,
            &mut k_sum,
            &mut v_sum,
        );
        let n_sqrt_d = n as f32 * sqrt_d;
        let mut denoms = ws.take_vec(q.rows());
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
            Some(&mut denoms),
        );
        add_masked_strong_residual(&self.sparse, q, &k_hat, v, &denoms, ws, out);

        // Nothing is recycled before the last checkout (the residual pass's): recycling
        // small buffers mid-run would let a later, larger checkout grow them (best-fit
        // falls back to the largest pooled buffer), destabilising the pool's size
        // classes across calls.
        ws.recycle_vec(k_bar);
        ws.recycle(k_hat);
        ws.recycle_vec(g);
        ws.recycle_vec(k_sum);
        ws.recycle_vec(v_sum);
        ws.recycle_vec(denoms);
    }

    fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        // The training-time cost is the linear attention plus the full quadratic path that
        // the sparse residual needs (prediction + exact attention). This is only paid
        // during fine-tuning; inference pays `taylor_attention_ops` alone.
        taylor_attention_ops(n, d) + vanilla_softmax_ops(n, d)
    }

    /// Gradients flow through both the low-rank path and the masked softmax residual; the
    /// mask itself is derived from the (non-differentiable) quantized prediction and is
    /// treated as a constant, exactly as Sanger's straight-through training does.
    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var {
        let low_rank = self.taylor.forward_train(q, k, v);
        // Strong residual on the tape: softmax map minus weak Taylor map, masked.
        let d = q.shape().1 as f32;
        let n = k.shape().0 as f32;
        let k_hat = k.broadcast_sub_row(&k.col_mean());
        let logits = q.matmul_transpose_b(&k_hat).scale(1.0 / d.sqrt());
        let exact_map = logits.softmax_rows();
        let k_sum = k_hat.col_sum();
        let denom = q
            .matmul_transpose_b(&k_sum)
            .scale(1.0 / d.sqrt())
            .add_scalar(n);
        let weak_map = logits.add_scalar(1.0).broadcast_div_col(&denom);
        let strong_map = exact_map.sub(&weak_map);
        let mask = self
            .sparse
            .prediction_mask(&q.value(), &mean_center_keys(&k.value()));
        strong_map.apply_mask(&mask).matmul(v).add(&low_rank)
    }

    /// Fraction of non-zero entries in the masked strong component (the y-axis of
    /// Fig. 14).
    fn sparse_occupancy(&self, q: &Matrix, k: &Matrix) -> f32 {
        let masked = self.masked_strong_component(q, k);
        if masked.is_empty() {
            return 0.0;
        }
        let significant = masked.iter().filter(|v| v.abs() > 1e-6).count();
        significant as f32 / masked.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::SoftmaxAttention;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    fn qkv(n: usize, d: usize, scale: f32, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            init::normal(&mut rng, n, d, 0.0, scale),
            init::normal(&mut rng, n, d, 0.0, scale),
            init::normal(&mut rng, n, d, 0.0, 1.0),
        )
    }

    #[test]
    fn zero_threshold_recovers_the_exact_softmax_attention() {
        // With threshold 0 the sparse mask keeps everything, so low-rank + strong residual
        // reconstructs the vanilla attention exactly (weak + strong = softmax).
        let (q, k, v) = qkv(16, 8, 0.8, 40);
        let unified = UnifiedLowRankSparseAttention::new(0.0).compute(&q, &k, &v);
        let exact = SoftmaxAttention::new().compute(&q, &k, &v);
        assert!(
            unified.approx_eq(&exact, 1e-3),
            "max diff {}",
            unified.max_abs_diff(&exact)
        );
    }

    #[test]
    fn unified_is_closer_to_softmax_than_lowrank_alone() {
        let (q, k, v) = qkv(24, 8, 1.0, 41);
        let exact = SoftmaxAttention::new().compute(&q, &k, &v);
        let unified = UnifiedLowRankSparseAttention::new(0.1).compute(&q, &k, &v);
        let low_rank = TaylorAttention::new().compute(&q, &k, &v);
        assert!(unified.max_abs_diff(&exact) <= low_rank.max_abs_diff(&exact) + 1e-6);
    }

    #[test]
    fn higher_threshold_reduces_sparse_occupancy() {
        let (q, k, _) = qkv(32, 16, 0.8, 42);
        let low = UnifiedLowRankSparseAttention::new(0.02).sparse_occupancy(&q, &k);
        let high = UnifiedLowRankSparseAttention::new(0.5).sparse_occupancy(&q, &k);
        assert!(
            high <= low,
            "occupancy should not increase with threshold ({low} -> {high})"
        );
    }

    #[test]
    fn accessors_expose_components() {
        let unified = UnifiedLowRankSparseAttention::new(0.5);
        assert_eq!(unified.threshold(), 0.5);
        assert!(unified.low_rank().mean_centering());
        assert_eq!(unified.sparse().threshold(), 0.5);
        assert_eq!(unified.label(), "unified");
    }

    #[test]
    fn fused_kernel_matches_the_traced_reference() {
        for &n in &[1usize, 7, 64, 196] {
            for &threshold in &[0.0f32, 0.1, 0.5] {
                let (q, k, v) = qkv(n, 16, 0.6, 63 + n as u64);
                let unified = UnifiedLowRankSparseAttention::new(threshold);
                let fused = unified.compute(&q, &k, &v);
                let traced = unified.compute_traced(&q, &k, &v);
                let diff = fused.max_abs_diff(&traced);
                assert!(
                    diff <= 1e-4,
                    "fused unified kernel diverged at n={n} threshold={threshold}: {diff}"
                );
            }
        }
    }

    #[test]
    fn prediction_mask_rows_keep_at_least_one_in_bounds_survivor() {
        // The fused kernel's per-row mask rule is the dense prediction mask; every row
        // must keep an in-bounds entry (the argmax fallback). Full functional agreement
        // is covered by `fused_kernel_matches_the_traced_reference`.
        let (q, k, _) = qkv(24, 8, 0.8, 70);
        let unified = UnifiedLowRankSparseAttention::new(0.1);
        let mask = unified.sparse().prediction_mask(&q, &mean_center_keys(&k));
        assert_eq!(mask.shape(), (24, 24));
        for r in 0..24 {
            assert!(
                mask.row(r).iter().any(|&m| m != 0.0),
                "row {r} lost every entry"
            );
            assert!(mask.row(r).iter().all(|&m| m == 0.0 || m == 1.0));
        }
    }

    #[test]
    fn training_cost_exceeds_inference_cost() {
        let unified = UnifiedLowRankSparseAttention::new(0.5);
        let train = unified.op_counts(197, 64);
        let inference = TaylorAttention::new().op_counts(197, 64);
        assert!(train.total() > inference.total());
    }

    #[test]
    fn forward_train_matches_compute_and_backpropagates() {
        use vitality_autograd::Graph;
        let (q, k, v) = qkv(12, 6, 0.6, 43);
        let unified = UnifiedLowRankSparseAttention::new(0.1);
        let reference = unified.compute(&q, &k, &v);
        let graph = Graph::new();
        let qv = graph.parameter(q);
        let kv = graph.parameter(k);
        let vv = graph.parameter(v);
        let z = unified.forward_train(&qv, &kv, &vv);
        assert!(
            z.value().approx_eq(&reference, 1e-3),
            "max diff {}",
            z.value().max_abs_diff(&reference)
        );
        let grads = graph.backward(&z.mean_all());
        assert_eq!(grads.len(), 3);
    }

    #[test]
    fn masked_strong_component_is_subset_of_strong_component() {
        let (q, k, _) = qkv(16, 8, 0.8, 44);
        let unified = UnifiedLowRankSparseAttention::new(0.2);
        let strong = TaylorAttention::new().strong_attention_map(&q, &k);
        let masked = unified.masked_strong_component(&q, &k);
        assert!(masked.nnz() <= strong.nnz());
        // Every surviving entry matches the unmasked strong component.
        for i in 0..masked.rows() {
            for j in 0..masked.cols() {
                let m = masked.get(i, j);
                if m != 0.0 {
                    assert!((m - strong.get(i, j)).abs() < 1e-6);
                }
            }
        }
    }
}
