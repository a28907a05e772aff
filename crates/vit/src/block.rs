//! Multi-head attention and the Transformer block with a pluggable attention kernel.
//!
//! [`AttentionVariant`] is the *configuration* — a small copyable enum naming which
//! attention a model runs and its hyper-parameters. The *implementation* is an
//! [`AttentionKernel`] built **once** per model by [`AttentionVariant::kernel`] and held
//! behind an `Arc` inside every [`MultiHeadAttention`]; the inference hot path never
//! constructs an attention object, never matches on the variant, and draws every
//! intermediate (projections, per-head slices, head merges) from the caller's
//! [`Workspace`]. Adding a served variant therefore means implementing
//! `AttentionKernel` in `vitality-attention` and adding one arm to
//! [`AttentionVariant::kernel`] — nothing in this module's data flow changes.

use rand::Rng;
use std::sync::Arc;

use vitality_attention::{
    AttentionKernel, Int8Calibration, QuantizedTaylorKernel, SangerSparseAttention,
    SoftmaxAttention, TaylorAttention, UnifiedLowRankSparseAttention,
};
use vitality_autograd::{Graph, Var};
use vitality_nn::registry::{NamedParameters, ParamRegistry};
use vitality_nn::{Activation, LayerNorm, Linear, Mlp};
use vitality_tensor::{Matrix, Workspace};

/// Which attention mechanism a model uses, covering every training scheme of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttentionVariant {
    /// Vanilla softmax attention (BASELINE).
    Softmax,
    /// ViTALiTy linear Taylor attention (LOWRANK / ViTALiTy inference).
    Taylor,
    /// Sanger-style sparse attention with the given threshold (SPARSE).
    Sparse {
        /// Sparsity threshold applied to the predicted attention.
        threshold: f32,
    },
    /// Unified low-rank + sparse attention with the given threshold (ViTALiTy training,
    /// served by the fused low-rank + SDDMM kernel).
    Unified {
        /// Sparsity threshold of the sparse component.
        threshold: f32,
    },
    /// Int8-quantized linear Taylor attention (the accelerator's integer inference
    /// path), served by `QuantizedTaylorKernel`. Build it with
    /// [`Int8Calibration::Dynamic`] or calibrate fixed scales on sample data with
    /// `VisionTransformer::calibrate_int8`.
    Int8Taylor {
        /// How the per-head quantization scales are derived.
        calibration: Int8Calibration,
    },
}

impl AttentionVariant {
    /// Short label used in experiment output and as the `variant` half of serving
    /// registry keys; always equal to the built kernel's
    /// [`label`](AttentionKernel::label).
    pub fn label(&self) -> &'static str {
        match self {
            AttentionVariant::Softmax => "softmax",
            AttentionVariant::Taylor => "taylor",
            AttentionVariant::Sparse { .. } => "sparse",
            AttentionVariant::Unified { .. } => "unified",
            AttentionVariant::Int8Taylor { .. } => "int8",
        }
    }

    /// Builds the attention kernel this variant is served by.
    ///
    /// This is the single construction point: models call it once (at construction or
    /// on [`MultiHeadAttention::set_variant`]) and share the result across layers,
    /// heads, threads and requests.
    pub fn kernel(&self) -> Arc<dyn AttentionKernel> {
        match *self {
            AttentionVariant::Softmax => Arc::new(SoftmaxAttention::new()),
            AttentionVariant::Taylor => Arc::new(TaylorAttention::new()),
            AttentionVariant::Sparse { threshold } => {
                Arc::new(SangerSparseAttention::new(threshold))
            }
            AttentionVariant::Unified { threshold } => {
                Arc::new(UnifiedLowRankSparseAttention::new(threshold))
            }
            AttentionVariant::Int8Taylor { calibration } => {
                Arc::new(QuantizedTaylorKernel::new(calibration))
            }
        }
    }

    /// One representative configuration of **every** variant arm, in declaration
    /// order — the iteration axis of the kernel conformance suite
    /// (`tests/kernel_conformance.rs`). A new variant arm must be added here; the
    /// suite's label-uniqueness check then covers it automatically, and forgetting the
    /// entry fails the `all_covers_every_arm` test below.
    pub fn all() -> Vec<AttentionVariant> {
        vec![
            AttentionVariant::Softmax,
            AttentionVariant::Taylor,
            AttentionVariant::Sparse { threshold: 0.02 },
            AttentionVariant::Unified { threshold: 0.1 },
            AttentionVariant::Int8Taylor {
                calibration: Int8Calibration::Dynamic,
            },
        ]
    }
}

/// Multi-head attention module: Q/K/V projections, per-head attention through a kernel
/// built once from the configured [`AttentionVariant`], head merge and the output
/// projection.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    variant: AttentionVariant,
    kernel: Arc<dyn AttentionKernel>,
}

impl MultiHeadAttention {
    /// Creates a multi-head attention over `embed_dim` features with `heads` heads
    /// running the given attention variant.
    ///
    /// # Panics
    ///
    /// Panics when `embed_dim` is not divisible by `heads`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        embed_dim: usize,
        heads: usize,
        variant: AttentionVariant,
    ) -> Self {
        assert!(
            heads > 0 && embed_dim.is_multiple_of(heads),
            "embed_dim must divide evenly into heads"
        );
        Self {
            wq: Linear::new(rng, embed_dim, embed_dim, true),
            wk: Linear::new(rng, embed_dim, embed_dim, true),
            wv: Linear::new(rng, embed_dim, embed_dim, true),
            wo: Linear::new(rng, embed_dim, embed_dim, true),
            heads,
            variant,
            kernel: variant.kernel(),
        }
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Per-head feature dimension.
    pub fn head_dim(&self) -> usize {
        self.wq.out_features() / self.heads
    }

    /// The configured attention variant.
    pub fn variant(&self) -> AttentionVariant {
        self.variant
    }

    /// The kernel every head runs (shared, built once per variant switch).
    pub fn kernel(&self) -> &dyn AttentionKernel {
        self.kernel.as_ref()
    }

    /// Switches the attention variant, rebuilding the kernel exactly once.
    pub fn set_variant(&mut self, variant: AttentionVariant) {
        self.variant = variant;
        self.kernel = variant.kernel();
    }

    /// Training forward pass on the autograd tape (per-head kernel `forward_train`).
    pub fn forward_train(
        &self,
        graph: &Graph,
        reg: &mut ParamRegistry,
        prefix: &str,
        x: &Var,
    ) -> Var {
        let q = self.wq.forward(graph, reg, &format!("{prefix}.wq"), x);
        let k = self.wk.forward(graph, reg, &format!("{prefix}.wk"), x);
        let v = self.wv.forward(graph, reg, &format!("{prefix}.wv"), x);
        let hd = self.head_dim();
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (lo, hi) = (h * hd, (h + 1) * hd);
            let qh = q.slice_cols(lo, hi);
            let kh = k.slice_cols(lo, hi);
            let vh = v.slice_cols(lo, hi);
            head_outputs.push(self.kernel.forward_train(&qh, &kh, &vh));
        }
        let merged = Var::concat_cols(&head_outputs);
        self.wo
            .forward(graph, reg, &format!("{prefix}.wo"), &merged)
    }

    /// Inference forward pass into `x.rows() x embed_dim` output storage: the module's
    /// one inference entry, allocation-free on a warm workspace.
    ///
    /// Projections, per-head slices, head outputs and the merge buffer all come from
    /// `ws`; heads run sequentially through the shared kernel (parallelism belongs to
    /// the per-image axis — the lanes of `VisionTransformer::infer_batch_into`, each
    /// with a workspace of its own). With one head there is nothing to gather or
    /// scatter: the kernel reads the projections and writes the merge buffer directly,
    /// which saves four `n x e` checkouts and four full copies per block.
    ///
    /// # Panics
    ///
    /// Panics when the shapes are inconsistent.
    pub fn infer_into(&self, x: &Matrix, ws: &mut Workspace, out: &mut Matrix) {
        let n = x.rows();
        let e = self.wq.out_features();
        let mut q = ws.take(n, e);
        let mut k = ws.take(n, e);
        let mut v = ws.take(n, e);
        self.wq.infer_into(x, &mut q);
        self.wk.infer_into(x, &mut k);
        self.wv.infer_into(x, &mut v);
        let mut merged = ws.take(n, e);
        if self.heads == 1 {
            self.kernel.compute_into(&q, &k, &v, ws, &mut merged);
        } else {
            let hd = self.head_dim();
            let mut qh = ws.take(n, hd);
            let mut kh = ws.take(n, hd);
            let mut vh = ws.take(n, hd);
            let mut zh = ws.take(n, hd);
            for h in 0..self.heads {
                let (lo, hi) = (h * hd, (h + 1) * hd);
                q.slice_cols_into(lo, hi, &mut qh);
                k.slice_cols_into(lo, hi, &mut kh);
                v.slice_cols_into(lo, hi, &mut vh);
                self.kernel.compute_into(&qh, &kh, &vh, ws, &mut zh);
                zh.place_cols_into(lo, &mut merged);
            }
            ws.recycle(qh);
            ws.recycle(kh);
            ws.recycle(vh);
            ws.recycle(zh);
        }
        self.wo.infer_into(&merged, out);
        ws.recycle(q);
        ws.recycle(k);
        ws.recycle(v);
        ws.recycle(merged);
    }

    /// Per-head `(Q, K, V)` of `x`, projected as [`MultiHeadAttention::infer_into`]
    /// projects them: the one input of the offline probes below.
    fn head_projections(&self, x: &Matrix) -> Vec<(Matrix, Matrix, Matrix)> {
        let project = |w: &Linear| {
            let mut out = Matrix::zeros(x.rows(), w.out_features());
            w.infer_into(x, &mut out);
            out
        };
        let (q, k, v) = (project(&self.wq), project(&self.wk), project(&self.wv));
        let hd = self.head_dim();
        (0..self.heads)
            .map(|h| {
                let (lo, hi) = (h * hd, (h + 1) * hd);
                (
                    q.slice_cols(lo, hi),
                    k.slice_cols(lo, hi),
                    v.slice_cols(lo, hi),
                )
            })
            .collect()
    }

    /// Per-head scaled attention logits (raw and mean-centred), used by the Fig. 3
    /// distribution probe.
    pub fn head_logits(&self, x: &Matrix) -> Vec<(Matrix, Matrix)> {
        self.head_projections(x)
            .iter()
            .map(|(q, k, _)| {
                let raw = vitality_attention::softmax::scaled_similarity(q, k);
                let centred = vitality_attention::softmax::scaled_similarity(
                    q,
                    &vitality_attention::mean_center_keys(k),
                );
                (raw, centred)
            })
            .collect()
    }

    /// Per-head absmax of the quantized int8 kernel's operands for one token matrix:
    /// the largest absolute query, *mean-centred* key and value activation across all
    /// heads. This is the measurement `VisionTransformer::calibrate_int8` aggregates
    /// into an [`Int8Calibration::Fixed`] range set.
    pub fn qkv_absmax(&self, x: &Matrix) -> (f32, f32, f32) {
        let absmax = |m: &Matrix| m.iter().fold(0.0f32, |acc, &x| acc.max(x.abs()));
        let (mut q_max, mut k_max, mut v_max) = (0.0f32, 0.0f32, 0.0f32);
        for (q, k, v) in &self.head_projections(x) {
            q_max = q_max.max(absmax(q));
            k_max = k_max.max(absmax(&vitality_attention::mean_center_keys(k)));
            v_max = v_max.max(absmax(v));
        }
        (q_max, k_max, v_max)
    }

    /// Mean sparse-component occupancy across heads (Fig. 14 probe); zero for kernels
    /// without a sparse component.
    pub fn sparse_occupancy(&self, x: &Matrix) -> f32 {
        let mut total = 0.0;
        for (q, k, _) in &self.head_projections(x) {
            total += self.kernel.sparse_occupancy(q, k);
        }
        total / self.heads as f32
    }
}

impl NamedParameters for MultiHeadAttention {
    fn visit_parameters(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Matrix)) {
        self.wq.visit_parameters(&format!("{prefix}.wq"), visitor);
        self.wk.visit_parameters(&format!("{prefix}.wk"), visitor);
        self.wv.visit_parameters(&format!("{prefix}.wv"), visitor);
        self.wo.visit_parameters(&format!("{prefix}.wo"), visitor);
    }

    fn visit_parameters_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Matrix)) {
        self.wq
            .visit_parameters_mut(&format!("{prefix}.wq"), visitor);
        self.wk
            .visit_parameters_mut(&format!("{prefix}.wk"), visitor);
        self.wv
            .visit_parameters_mut(&format!("{prefix}.wv"), visitor);
        self.wo
            .visit_parameters_mut(&format!("{prefix}.wo"), visitor);
    }
}

/// A pre-norm Transformer block: `x + MHA(LN(x))` followed by `x + MLP(LN(x))`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    norm1: LayerNorm,
    attn: MultiHeadAttention,
    norm2: LayerNorm,
    mlp: Mlp,
}

impl TransformerBlock {
    /// Creates a block over `embed_dim` features with `heads` heads, the given MLP
    /// expansion ratio and attention variant.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        embed_dim: usize,
        heads: usize,
        mlp_ratio: f32,
        variant: AttentionVariant,
    ) -> Self {
        let hidden = ((embed_dim as f32) * mlp_ratio).round().max(1.0) as usize;
        Self {
            norm1: LayerNorm::new(embed_dim),
            attn: MultiHeadAttention::new(rng, embed_dim, heads, variant),
            norm2: LayerNorm::new(embed_dim),
            mlp: Mlp::new(rng, embed_dim, hidden, Activation::Gelu),
        }
    }

    /// The block's attention module.
    pub fn attention(&self) -> &MultiHeadAttention {
        &self.attn
    }

    /// The pre-attention norm: the attention of this block sees `norm1(x)`.
    pub(crate) fn norm1(&self) -> &LayerNorm {
        &self.norm1
    }

    /// Switches the attention variant (rebuilds the attention kernel once).
    pub fn set_variant(&mut self, variant: AttentionVariant) {
        self.attn.set_variant(variant);
    }

    /// Training forward pass.
    pub fn forward_train(
        &self,
        graph: &Graph,
        reg: &mut ParamRegistry,
        prefix: &str,
        x: &Var,
    ) -> Var {
        let normed = self
            .norm1
            .forward(graph, reg, &format!("{prefix}.norm1"), x);
        let attended = self
            .attn
            .forward_train(graph, reg, &format!("{prefix}.attn"), &normed);
        let x = x.add(&attended);
        let normed = self
            .norm2
            .forward(graph, reg, &format!("{prefix}.norm2"), &x);
        let expanded = self
            .mlp
            .forward(graph, reg, &format!("{prefix}.mlp"), &normed);
        x.add(&expanded)
    }

    /// Inference forward pass, updating the token matrix in place: the block's one
    /// inference entry, allocation-free on a warm workspace.
    ///
    /// The two normalisation buffers and the residual-delta buffer come from `ws`; the
    /// attention sub-module draws its own intermediates from the same workspace.
    pub fn infer_inplace(&self, x: &mut Matrix, ws: &mut Workspace) {
        let (n, e) = x.shape();
        let mut normed = ws.take(n, e);
        let mut delta = ws.take(n, e);
        self.norm1.infer_into(x, &mut normed);
        self.attn.infer_into(&normed, ws, &mut delta);
        x.add_assign(&delta);
        self.norm2.infer_into(x, &mut normed);
        self.mlp.infer_into(&normed, ws, &mut delta);
        x.add_assign(&delta);
        ws.recycle(normed);
        ws.recycle(delta);
    }
}

impl NamedParameters for TransformerBlock {
    fn visit_parameters(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Matrix)) {
        self.norm1
            .visit_parameters(&format!("{prefix}.norm1"), visitor);
        self.attn
            .visit_parameters(&format!("{prefix}.attn"), visitor);
        self.norm2
            .visit_parameters(&format!("{prefix}.norm2"), visitor);
        self.mlp.visit_parameters(&format!("{prefix}.mlp"), visitor);
    }

    fn visit_parameters_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Matrix)) {
        self.norm1
            .visit_parameters_mut(&format!("{prefix}.norm1"), visitor);
        self.attn
            .visit_parameters_mut(&format!("{prefix}.attn"), visitor);
        self.norm2
            .visit_parameters_mut(&format!("{prefix}.norm2"), visitor);
        self.mlp
            .visit_parameters_mut(&format!("{prefix}.mlp"), visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    fn tokens(n: usize, d: usize, seed: u64) -> Matrix {
        init::normal(&mut StdRng::seed_from_u64(seed), n, d, 0.0, 0.5)
    }

    fn infer(mha: &MultiHeadAttention, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        mha.infer_into(x, &mut Workspace::new(), &mut out);
        out
    }

    #[test]
    fn mha_output_shape_and_parameters() {
        let mut rng = StdRng::seed_from_u64(100);
        let mha = MultiHeadAttention::new(&mut rng, 16, 4, AttentionVariant::Softmax);
        assert_eq!(mha.heads(), 4);
        assert_eq!(mha.head_dim(), 4);
        assert_eq!(mha.parameter_count(), 4 * (16 * 16 + 16));
        assert_eq!(mha.variant(), AttentionVariant::Softmax);
        assert_eq!(mha.kernel().label(), "softmax");
        let x = tokens(9, 16, 1);
        let y = infer(&mha, &x);
        assert_eq!(y.shape(), (9, 16));
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn mha_rejects_indivisible_heads() {
        let mut rng = StdRng::seed_from_u64(101);
        let _ = MultiHeadAttention::new(&mut rng, 10, 3, AttentionVariant::Softmax);
    }

    #[test]
    fn forward_train_matches_infer_for_every_variant() {
        for heads in [2, 1] {
            let mut rng = StdRng::seed_from_u64(102);
            let mut mha = MultiHeadAttention::new(&mut rng, 8, heads, AttentionVariant::Softmax);
            let x = tokens(6, 8, 2);
            for variant in [
                AttentionVariant::Softmax,
                AttentionVariant::Taylor,
                AttentionVariant::Sparse { threshold: 0.05 },
                AttentionVariant::Unified { threshold: 0.1 },
            ] {
                mha.set_variant(variant);
                assert_eq!(mha.kernel().label(), variant.label());
                let graph = Graph::new();
                let mut reg = ParamRegistry::new();
                let xv = graph.constant(x.clone());
                let trained = mha.forward_train(&graph, &mut reg, "attn", &xv);
                let inferred = infer(&mha, &x);
                assert!(
                    trained.value().approx_eq(&inferred, 2e-2),
                    "variant {} with {heads} head(s) diverges: {}",
                    variant.label(),
                    trained.value().max_abs_diff(&inferred)
                );
            }
        }
    }

    #[test]
    fn one_head_skips_the_gather_and_equals_the_kernel_on_the_projections() {
        // With a single head the hot path hands the projections straight to the kernel:
        // the result is `wo(kernel(wq x, wk x, wv x))` bit for bit, and a warm workspace
        // serves it without a miss. The expected value projects through the layers'
        // public weights, not through `Linear::infer_into`.
        let x = tokens(9, 8, 8);
        let project = |w: &Linear, x: &Matrix| {
            x.matmul(w.weight())
                .broadcast_add_row(w.bias().expect("attention projections have a bias"))
        };
        for variant in AttentionVariant::all() {
            let mut rng = StdRng::seed_from_u64(108);
            let mha = MultiHeadAttention::new(&mut rng, 8, 1, variant);
            let z = mha.kernel().compute(
                &project(&mha.wq, &x),
                &project(&mha.wk, &x),
                &project(&mha.wv, &x),
            );
            let expected = project(&mha.wo, &z);

            let mut fresh = Workspace::new();
            let mut out = Matrix::zeros(9, 8);
            mha.infer_into(&x, &mut fresh, &mut out);
            assert_eq!(out, expected, "{} on a fresh workspace", variant.label());

            let mut warm = fresh;
            let misses = warm.checkouts() - warm.pool_hits();
            let mut out = Matrix::zeros(9, 8);
            mha.infer_into(&x, &mut warm, &mut out);
            assert_eq!(out, expected, "{} on a warm workspace", variant.label());
            assert_eq!(
                warm.checkouts() - warm.pool_hits(),
                misses,
                "{} missed the warm pool",
                variant.label()
            );
        }
    }

    #[test]
    fn infer_into_reuses_a_warm_workspace_without_allocating() {
        let mut rng = StdRng::seed_from_u64(106);
        let mha = MultiHeadAttention::new(&mut rng, 8, 2, AttentionVariant::Taylor);
        let x = tokens(6, 8, 6);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(6, 8);
        mha.infer_into(&x, &mut ws, &mut out);
        let first = out.clone();
        let (checkouts, hits) = (ws.checkouts(), ws.pool_hits());
        mha.infer_into(&x, &mut ws, &mut out);
        assert_eq!(out, first, "workspace reuse must be bit-exact");
        assert_eq!(
            ws.checkouts() - checkouts,
            ws.pool_hits() - hits,
            "warm workspace must serve every checkout from the pool"
        );
    }

    #[test]
    fn gradients_flow_through_all_projections() {
        let mut rng = StdRng::seed_from_u64(103);
        let mha = MultiHeadAttention::new(&mut rng, 8, 2, AttentionVariant::Taylor);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let x = graph.constant(tokens(5, 8, 3));
        let y = mha.forward_train(&graph, &mut reg, "attn", &x);
        let grads = graph.backward(&y.mean_all());
        for name in [
            "attn.wq.weight",
            "attn.wk.weight",
            "attn.wv.weight",
            "attn.wo.weight",
        ] {
            assert!(reg.grad(name, &grads).is_some(), "missing {name}");
        }
    }

    #[test]
    fn head_logits_and_sparse_occupancy_probe() {
        let mut rng = StdRng::seed_from_u64(104);
        let mut mha = MultiHeadAttention::new(&mut rng, 8, 2, AttentionVariant::Softmax);
        let x = tokens(7, 8, 4);
        let logits = mha.head_logits(&x);
        assert_eq!(logits.len(), 2);
        assert_eq!(logits[0].0.shape(), (7, 7));
        assert_eq!(logits[0].1.shape(), (7, 7));
        mha.set_variant(AttentionVariant::Unified { threshold: 0.5 });
        let occupancy = mha.sparse_occupancy(&x);
        assert!((0.0..=1.0).contains(&occupancy));
        mha.set_variant(AttentionVariant::Taylor);
        assert_eq!(mha.sparse_occupancy(&x), 0.0);
    }

    #[test]
    fn transformer_block_train_matches_infer() {
        let mut rng = StdRng::seed_from_u64(105);
        let block = TransformerBlock::new(&mut rng, 8, 2, 2.0, AttentionVariant::Softmax);
        let x = tokens(6, 8, 5);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let y = block.forward_train(&graph, &mut reg, "block0", &graph.constant(x.clone()));
        let mut inferred = x.clone();
        block.infer_inplace(&mut inferred, &mut Workspace::new());
        assert!(y.value().approx_eq(&inferred, 1e-3));
        assert!(block.parameter_count() > 0);
        assert_eq!(block.attention().heads(), 2);
    }

    #[test]
    fn variant_labels_match_their_kernels() {
        for variant in AttentionVariant::all() {
            assert_eq!(variant.kernel().label(), variant.label());
        }
        assert_eq!(AttentionVariant::Softmax.label(), "softmax");
        assert_eq!(AttentionVariant::Taylor.label(), "taylor");
        assert_eq!(
            AttentionVariant::Int8Taylor {
                calibration: Int8Calibration::Dynamic
            }
            .label(),
            "int8"
        );
    }

    #[test]
    fn all_covers_every_arm() {
        // One entry per declared arm: a new variant must extend `all()` (and thereby
        // the conformance suite) before it can ship.
        let all = AttentionVariant::all();
        assert_eq!(all.len(), 5, "AttentionVariant::all() is missing an arm");
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "duplicate arm in all(): {a:?} / {b:?}"
                );
            }
        }
    }

    #[test]
    fn int8_variants_serve_through_the_mha_hot_path() {
        for heads in [2, 1] {
            let mut rng = StdRng::seed_from_u64(107);
            let mut mha = MultiHeadAttention::new(&mut rng, 8, heads, AttentionVariant::Taylor);
            let x = tokens(6, 8, 7);
            let f32_out = infer(&mha, &x);
            mha.set_variant(AttentionVariant::Int8Taylor {
                calibration: Int8Calibration::Dynamic,
            });
            assert_eq!(mha.kernel().label(), "int8");
            let int8_out = infer(&mha, &x);
            assert_eq!(int8_out.shape(), f32_out.shape());
            assert!(int8_out.iter().all(|v| v.is_finite()));
            // Quantized but close: the projections dominate, attention differs at the
            // quantization step.
            assert!(f32_out.max_abs_diff(&int8_out) < 0.2);
            assert!(!f32_out.approx_eq(&int8_out, 1e-7), "int8 must quantize");
            let (q_max, k_max, v_max) = mha.qkv_absmax(&x);
            assert!(q_max > 0.0 && k_max > 0.0 && v_max > 0.0);
        }
    }
}
