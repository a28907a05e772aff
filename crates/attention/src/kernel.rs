//! The [`AttentionKernel`] trait — the crate's one attention interface — and the fused
//! Algorithm-1 passes its implementations share.
//!
//! Every trained or served mechanism answers "how is it computed?" exactly twice:
//!
//! * a **reference** — an unfused, allocating inherent method beside the mechanism's
//!   definition, written to be read against the paper (the textbook
//!   [`SoftmaxAttention::attention_map`](crate::SoftmaxAttention::attention_map)` · V`,
//!   the step-by-step
//!   [`TaylorAttention::compute_with_trace`](crate::TaylorAttention::compute_with_trace),
//!   [`UnifiedLowRankSparseAttention::compute_traced`](crate::UnifiedLowRankSparseAttention::compute_traced));
//! * a **production path** — [`AttentionKernel::compute_into`], which writes into a
//!   caller-provided output buffer and draws every intermediate from a [`Workspace`],
//!   so a warm serving process runs attention with zero per-call heap traffic.
//!
//! The conformance suite holds the second against the first. The ViT substrate
//! (`vitality-vit`) builds one shared kernel per model from its `AttentionVariant` and
//! reuses it across every layer, head and request; training reaches the same object
//! through [`AttentionKernel::forward_train`]. Each mechanism's `impl AttentionKernel`
//! lives in the mechanism's own module, next to its reference; this module holds the
//! trait and the passes more than one implementation runs. Kernels are single-threaded
//! by construction — parallelism belongs to the caller's per-image axis.
//!
//! # How to add a variant
//!
//! Implement the trait in your mechanism's module, beside its inherent reference
//! method, then add one arm to
//! `AttentionVariant::kernel()` in `vitality-vit` **and one entry to
//! `AttentionVariant::all()`** (and, to serve it, nothing else — the registry keys
//! models by `name:<label>` automatically). The `all()` entry is what puts the new
//! kernel under the **kernel conformance suite** (`tests/kernel_conformance.rs`), the
//! acceptance gate every variant must pass — CI runs it as a named step. It asserts,
//! with zero per-variant test code:
//!
//! * `compute_into` matches the variant's reference within its documented tolerance
//!   (add the reference — an inherent method, a different code path from the kernel —
//!   to the suite's `reference_and_tolerance` match);
//! * `label()` is unique and `:`-free (it becomes the registry key half and the
//!   `/metrics` tag);
//! * workspace reuse is bit-exact and allocation-free on a warm pool;
//! * outputs stay finite on adversarial inputs (all-zero Q/K/V, large-magnitude
//!   logits, `n = 1`);
//! * `forward_train` agrees with `compute_into` through the multi-head module's
//!   `infer_into`.
//!
//! ```
//! use vitality_attention::kernel::AttentionKernel;
//! use vitality_attention::opcount::OpCounts;
//! use vitality_autograd::Var;
//! use vitality_tensor::{Matrix, Workspace};
//!
//! /// Attention that ignores the keys and averages the values (a toy example).
//! #[derive(Debug)]
//! struct MeanPoolAttention;
//!
//! impl AttentionKernel for MeanPoolAttention {
//!     fn label(&self) -> &'static str {
//!         "mean-pool"
//!     }
//!
//!     fn compute_into(
//!         &self,
//!         q: &Matrix,
//!         _k: &Matrix,
//!         v: &Matrix,
//!         _ws: &mut Workspace,
//!         out: &mut Matrix,
//!     ) {
//!         let mean = v.col_mean();
//!         for r in 0..q.rows() {
//!             out.row_mut(r).copy_from_slice(mean.row(0));
//!         }
//!     }
//!
//!     fn op_counts(&self, n: usize, d: usize) -> OpCounts {
//!         OpCounts::new(0, (n * d) as u64, d as u64, 0)
//!     }
//!
//!     fn forward_train(&self, q: &Var, _k: &Var, v: &Var) -> Var {
//!         v.col_mean().broadcast_row_to(q.shape().0)
//!     }
//! }
//!
//! let kernel = MeanPoolAttention;
//! let (q, k, v) = (Matrix::ones(4, 2), Matrix::ones(4, 2), Matrix::ones(4, 2));
//! assert!(kernel.compute(&q, &k, &v).approx_eq(&Matrix::ones(4, 2), 1e-6));
//! ```

use crate::opcount::OpCounts;
use crate::sparse::{quantize_symmetric_into, SangerSparseAttention, PREDICTION_BITS};
use crate::validate_qkv;
use std::fmt;
use vitality_autograd::Var;
use vitality_tensor::backend::Operand;
use vitality_tensor::{matmul_backend, MatmulBackend, Matrix, Workspace};

/// Query rows processed per block by the workspace kernels — bounds the scratch slice
/// of any `n x n` interaction to `ROW_BLOCK x n` regardless of the token count.
pub(crate) const ROW_BLOCK: usize = 64;

/// A single-head attention kernel with an allocation-free inference entry point.
///
/// Implementations are built **once** per model (from
/// `vitality_vit::AttentionVariant::kernel()`) and shared behind an
/// `Arc<dyn AttentionKernel>` across layers, worker threads and requests — which is why
/// the trait requires `Send + Sync` and `compute_into` takes `&self`. See the
/// [module documentation](self) for a complete "add a variant" example.
pub trait AttentionKernel: Send + Sync + fmt::Debug {
    /// Stable variant label: the `variant` half of the serving registry's
    /// `name:variant` keys and the tag on per-variant `/metrics` counters.
    fn label(&self) -> &'static str;

    /// Computes the per-head attention score into `out` (`q.rows() x v.cols()`),
    /// drawing every intermediate from `ws`. `out` is overwritten.
    ///
    /// # Panics
    ///
    /// Implementations panic when the `(Q, K, V)` shapes are inconsistent or `out` has
    /// the wrong shape.
    fn compute_into(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        ws: &mut Workspace,
        out: &mut Matrix,
    );

    /// Scalar-operation model for one head with `n` tokens and `d` feature dimensions
    /// (the hook the op-count tables and the accelerator simulators consume).
    fn op_counts(&self, n: usize, d: usize) -> OpCounts;

    /// Training-time forward pass on the autograd tape.
    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var;

    /// Fraction of non-zero entries in the training-time sparse component (the Fig. 14
    /// probe); zero for variants without a sparse component.
    fn sparse_occupancy(&self, _q: &Matrix, _k: &Matrix) -> f32 {
        0.0
    }

    /// Convenience wrapper allocating the output (and a throwaway workspace); hot paths
    /// should call [`AttentionKernel::compute_into`] instead.
    fn compute(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(q.rows(), v.cols());
        self.compute_into(q, k, v, &mut ws, &mut out);
        out
    }
}

/// Asserts the `(Q, K, V, out)` shape contract shared by every kernel.
pub(crate) fn validate_out(q: &Matrix, k: &Matrix, v: &Matrix, out: &Matrix) {
    validate_qkv(q, k, v);
    assert_eq!(
        out.shape(),
        (q.rows(), v.cols()),
        "attention kernel output must be q.rows() x v.cols()"
    );
}

// ---------------------------------------------------------------------------
// Shared fused Algorithm-1 passes (Taylor kernel and the unified kernel's
// low-rank half run the *same* arithmetic — one implementation keeps them in
// lockstep, which the unified divergence gate depends on)
// ---------------------------------------------------------------------------

/// Pass 1: fills `k_bar` with the column (token-wise) mean of `K`, or zeroes when
/// centring is disabled so pass 2 can subtract unconditionally.
pub(crate) fn fill_k_bar(k: &Matrix, mean_center: bool, k_bar: &mut [f32]) {
    k_bar.fill(0.0);
    let n = k.rows();
    if !mean_center || n == 0 {
        return;
    }
    for r in 0..n {
        for (acc, &kv) in k_bar.iter_mut().zip(k.row(r)) {
            *acc += kv;
        }
    }
    let inv_n = 1.0 / n as f32;
    for acc in k_bar.iter_mut() {
        *acc *= inv_n;
    }
}

/// Fills `k_hat` (`n x d_k`, row-major) with the mean-centred keys `K - 1 \bar{K}`.
pub(crate) fn center_keys_into(k: &Matrix, k_bar: &[f32], k_hat: &mut [f32]) {
    let d_k = k.cols();
    for (r, row) in k_hat.chunks_exact_mut(d_k).enumerate() {
        for ((kh, &kv), &kb) in row.iter_mut().zip(k.row(r)).zip(k_bar) {
            *kh = kv - kb;
        }
    }
}

/// Pass 2: the Algorithm-1 aggregates from the materialised centred keys —
/// `G = \hat{K}^T V` through the backend GEMM (so the fused kernels ride the same
/// SIMD microkernels as the traced pipeline), plus `\hat{k}_{sum}` and `v_{sum}` in
/// one cheap `O(nd)` sweep.
pub(crate) fn taylor_aggregates_from_centred(
    backend: MatmulBackend,
    k_hat: &[f32],
    v: &Matrix,
    g: &mut [f32],
    k_sum: &mut [f32],
    v_sum: &mut [f32],
) {
    let n = v.rows();
    let d_k = k_sum.len();
    let d_v = v.cols();
    for row in k_hat.chunks_exact(d_k) {
        for (ks, &kh) in k_sum.iter_mut().zip(row) {
            *ks += kh;
        }
    }
    for r in 0..n {
        for (vs, &vv) in v_sum.iter_mut().zip(v.row(r)) {
            *vs += vv;
        }
    }
    backend.gemm_into(
        g,
        d_k,
        n,
        d_v,
        Operand::transposed(k_hat, d_k),
        Operand::row_major(v.as_slice(), d_v),
    );
}

/// Pass 3: Steps 4–6 fused over every query row,
/// `out_i = (sqrt(d) v_sum + q_i G) / (n sqrt(d) + q_i \hat{k}_{sum}^T)`.
///
/// The `Q G` product — the `O(n d²)` bulk of the pass — runs through the backend
/// GEMM; the epilogue (denominator dot, `v_sum` shift, normalisation) is one cheap
/// `O(nd)` sweep folded over the product rows. `denoms`, when given (length `n_q`),
/// receives each row's Taylor denominator `t_D = n sqrt(d) + q_i \hat{k}_{sum}^T`,
/// which the unified kernel reuses for the weak map's normaliser; the Taylor kernels
/// pass `None`.
// The argument list is the full Algorithm-1 aggregate set plus the two output
// buffers; bundling them into a struct would just move the same ten names one
// level down for the three call sites.
#[allow(clippy::too_many_arguments)]
pub(crate) fn low_rank_outputs(
    backend: MatmulBackend,
    q: &[f32],
    d_k: usize,
    g: &[f32],
    k_sum: &[f32],
    v_sum: &[f32],
    sqrt_d: f32,
    n_sqrt_d: f32,
    out: &mut [f32],
    mut denoms: Option<&mut [f32]>,
) {
    let d_v = v_sum.len();
    let n_q = q.len() / d_k;
    debug_assert_eq!(q.len(), n_q * d_k);
    debug_assert_eq!(out.len(), n_q * d_v);
    debug_assert!(denoms.as_ref().is_none_or(|t| t.len() == n_q));
    backend.gemm_into(
        out,
        n_q,
        d_k,
        d_v,
        Operand::row_major(q, d_k),
        Operand::row_major(g, d_v),
    );
    for (i, (q_row, out_row)) in q
        .chunks_exact(d_k)
        .zip(out.chunks_exact_mut(d_v))
        .enumerate()
    {
        let mut d = n_sqrt_d;
        for (&qv, &ks) in q_row.iter().zip(k_sum) {
            d += qv * ks;
        }
        let inv = 1.0 / d;
        for (o, &vs) in out_row.iter_mut().zip(v_sum) {
            *o = (*o + sqrt_d * vs) * inv;
        }
        if let Some(denoms) = denoms.as_deref_mut() {
            denoms[i] = d;
        }
    }
}

/// Applies the Sanger mask rule to one row of raw quantized prediction logits:
/// scale by `1/sqrt(d)`, softmax in place, threshold the normalised probabilities, and
/// fall back to the argmax when nothing survives — the same rule
/// [`SangerSparseAttention::prediction_mask`] applies densely.
///
/// `p_row` is left holding the (unnormalised) exponentials; `surviving` is cleared and
/// refilled with the surviving column indices in ascending order.
fn sanger_row_survivors(
    p_row: &mut [f32],
    inv_sqrt_d: f32,
    threshold: f32,
    surviving: &mut Vec<usize>,
) {
    surviving.clear();
    let mut p_max = f32::NEG_INFINITY;
    for p in p_row.iter_mut() {
        *p *= inv_sqrt_d;
        p_max = p_max.max(*p);
    }
    let mut p_sum = 0.0f32;
    for p in p_row.iter_mut() {
        *p = (*p - p_max).exp();
        p_sum += *p;
    }
    if p_sum > 0.0 {
        for (j, p) in p_row.iter().enumerate() {
            if *p / p_sum >= threshold {
                surviving.push(j);
            }
        }
    }
    if surviving.is_empty() && !p_row.is_empty() {
        // Argmax fallback over the *normalised* probabilities, first strict maximum —
        // quantized logits produce exact probability ties after rounding, so this must
        // replicate `prediction_mask`'s tie-breaking bit for bit.
        let (mut best_j, mut best) = (0, f32::NEG_INFINITY);
        for (j, p) in p_row.iter().enumerate() {
            let prob = if p_sum > 0.0 { *p / p_sum } else { *p };
            if prob > best {
                best = prob;
                best_j = j;
            }
        }
        surviving.push(best_j);
    }
}

/// The sparse half of the unified kernel: adds the masked strong residual
/// `Σ_j mask_ij (softmax_ij − weak_ij) v_j` onto the low-rank rows already in `out`,
/// without any `n x n` intermediate.
///
/// The **prediction** (4-bit quantized) and **exact** logit blocks are computed
/// [`ROW_BLOCK`] query rows at a time through the backend GEMM; per query row,
/// [`sanger_row_survivors`] picks the positions where the residual is evaluated, and
/// only those SDDMM-style terms accumulate `strong_ij · v_j` onto the output row.
/// `denoms` holds each row's Taylor denominator `t_D` as [`low_rank_outputs`] left it,
/// so the weak map is normalised by what the low-rank half actually produced.
pub(crate) fn add_masked_strong_residual(
    sparse: &SangerSparseAttention,
    q: &Matrix,
    k_hat: &Matrix,
    v: &Matrix,
    denoms: &[f32],
    ws: &mut Workspace,
    out: &mut Matrix,
) {
    let n = k_hat.rows();
    let d_k = k_hat.cols();
    let n_q = q.rows();
    let inv_sqrt_d = 1.0 / (q.cols() as f32).sqrt();
    let threshold = sparse.threshold();
    let backend = matmul_backend();

    // Sanger predicts on the mean-centred logits, matching the training pipeline.
    let mut q_p = ws.take(n_q, d_k);
    quantize_symmetric_into(q, PREDICTION_BITS, &mut q_p);
    let mut k_p = ws.take(n, d_k);
    quantize_symmetric_into(k_hat, PREDICTION_BITS, &mut k_p);

    let bs_max = ROW_BLOCK.min(n_q.max(1));
    let mut exact = ws.take_vec(bs_max * n);
    let mut pred = ws.take_vec(bs_max * n);
    let mut surviving = ws.take_indices();

    for lo in (0..n_q).step_by(ROW_BLOCK) {
        let hi = (lo + ROW_BLOCK).min(n_q);
        let bs = hi - lo;
        backend.gemm_into(
            &mut exact[..bs * n],
            bs,
            d_k,
            n,
            Operand::row_major(&q.as_slice()[lo * d_k..hi * d_k], d_k),
            Operand::transposed(k_hat.as_slice(), d_k),
        );
        backend.gemm_into(
            &mut pred[..bs * n],
            bs,
            d_k,
            n,
            Operand::row_major(&q_p.as_slice()[lo * d_k..hi * d_k], d_k),
            Operand::transposed(k_p.as_slice(), d_k),
        );
        for local in 0..bs {
            let i = lo + local;
            let l_row = &mut exact[local * n..(local + 1) * n];
            let p_row = &mut pred[local * n..(local + 1) * n];
            sanger_row_survivors(p_row, inv_sqrt_d, threshold, &mut surviving);

            // Exact (mean-centred) softmax row statistics.
            let mut l_max = f32::NEG_INFINITY;
            for l in l_row.iter_mut() {
                *l *= inv_sqrt_d;
                l_max = l_max.max(*l);
            }
            let mut z_sum = 0.0f32;
            for &l in l_row.iter() {
                z_sum += (l - l_max).exp();
            }

            let out_row = out.row_mut(i);
            // Weak denominator in expansion units: t_i = n + q_i k_sum^T / sqrt(d).
            let t_i = denoms[i] * inv_sqrt_d;
            let inv_z = if z_sum > 0.0 { 1.0 / z_sum } else { 0.0 };
            let inv_t = 1.0 / t_i;
            for &j in surviving.iter() {
                let exact_ij = (l_row[j] - l_max).exp() * inv_z;
                let weak_ij = (1.0 + l_row[j]) * inv_t;
                let strong = exact_ij - weak_ij;
                for (o, &vv) in out_row.iter_mut().zip(v.row(j)) {
                    *o += strong * vv;
                }
            }
        }
    }

    ws.recycle(q_p);
    ws.recycle(k_p);
    ws.recycle_vec(exact);
    ws.recycle_vec(pred);
    ws.recycle_indices(surviving);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SoftmaxAttention, TaylorAttention, UnifiedLowRankSparseAttention};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    fn qkv(n: usize, d: usize, scale: f32, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            init::normal(&mut rng, n, d, 0.0, scale),
            init::normal(&mut rng, n, d, 0.1, scale),
            init::normal(&mut rng, n, d, 0.0, 1.0),
        )
    }

    #[test]
    fn kernels_reuse_workspace_buffers_bit_exactly() {
        let (q, k, v) = qkv(40, 12, 0.5, 72);
        let kernels: Vec<Box<dyn AttentionKernel>> = vec![
            Box::new(SoftmaxAttention::new()),
            Box::new(TaylorAttention::new()),
            Box::new(UnifiedLowRankSparseAttention::new(0.1)),
        ];
        for kernel in &kernels {
            let mut ws = Workspace::new();
            let mut out = Matrix::zeros(40, 12);
            kernel.compute_into(&q, &k, &v, &mut ws, &mut out);
            let first = out.clone();
            let (checkouts, hits) = (ws.checkouts(), ws.pool_hits());
            // Dirty the output to prove it is fully overwritten.
            out.map_inplace(|_| f32::NAN);
            kernel.compute_into(&q, &k, &v, &mut ws, &mut out);
            assert_eq!(
                out,
                first,
                "{} must be bit-exact under workspace reuse",
                kernel.label()
            );
            assert_eq!(
                ws.checkouts() - checkouts,
                ws.pool_hits() - hits,
                "{} allocated on a warm workspace",
                kernel.label()
            );
        }
    }

    #[test]
    fn kernel_forward_train_matches_compute_for_every_label() {
        use vitality_autograd::Graph;
        let (q, k, v) = qkv(10, 6, 0.4, 73);
        let kernels: Vec<Box<dyn AttentionKernel>> = vec![
            Box::new(SoftmaxAttention::new()),
            Box::new(TaylorAttention::new()),
            Box::new(SangerSparseAttention::new(0.05)),
            Box::new(UnifiedLowRankSparseAttention::new(0.1)),
        ];
        for kernel in &kernels {
            let graph = Graph::new();
            let qv = graph.parameter(q.clone());
            let kv = graph.parameter(k.clone());
            let vv = graph.parameter(v.clone());
            let trained = kernel.forward_train(&qv, &kv, &vv);
            let inferred = kernel.compute(&q, &k, &v);
            assert!(
                trained.value().approx_eq(&inferred, 2e-2),
                "{} train/infer mismatch: {}",
                kernel.label(),
                trained.value().max_abs_diff(&inferred)
            );
            assert!(graph.backward(&trained.mean_all()).len() >= 3);
        }
    }
}
