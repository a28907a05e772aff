//! The kernel conformance suite: every [`AttentionVariant`] — current and future —
//! must pass this file to be servable.
//!
//! This is the acceptance gate the `AttentionKernel` rustdoc points new variants at.
//! It iterates [`AttentionVariant::all()`] (one representative configuration per
//! declared arm; adding an arm without extending `all()` fails a unit test in
//! `vitality-vit`), so a new kernel is covered by writing **zero** new test code:
//!
//! 1. `compute_into` matches the variant's traced / unfused reference within its
//!    documented tolerance;
//! 2. `label()` is unique across variants and free of `:` (the serving registry's
//!    `name:variant` separator);
//! 3. workspace reuse is bit-exact — a second call on a warm, dirty workspace
//!    reproduces the first call's output exactly and allocates nothing;
//! 4. outputs stay finite on adversarial inputs (all-zero Q/K/V, large-magnitude
//!    logits, a single token);
//! 5. `forward_train` agrees with `compute_into` through the multi-head module's
//!    `infer_into` (the train/infer consistency the paper's fine-tune-then-switch
//!    recipe relies on).
//!
//! The per-variant comparison loops previously duplicated across
//! `attention_equivalences.rs` and `property_tests.rs` live here now, parameterized
//! over the variant list instead of hand-enumerated.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vitality::attention::{
    AttentionKernel, SangerSparseAttention, SoftmaxAttention, TaylorAttention,
    UnifiedLowRankSparseAttention, INT8_TAYLOR_TOLERANCE,
};
use vitality::autograd::Graph;
use vitality::nn::ParamRegistry;
use vitality::tensor::{init, Matrix, Workspace};
use vitality::vit::{AttentionVariant, MultiHeadAttention};

fn qkv(n: usize, d: usize, scale: f32, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        init::normal(&mut rng, n, d, 0.0, scale),
        init::normal(&mut rng, n, d, 0.1, scale),
        init::normal(&mut rng, n, d, 0.0, 1.0),
    )
}

/// The traced / unfused reference each variant's fused kernel is measured against —
/// the mechanism's one inherent reference method — plus the variant's documented
/// divergence tolerance.
///
/// References are deliberately *different code paths* from the kernels: the explicit
/// `n x n` map pipelines and the step-by-step Algorithm-1 trace, so a bug in a fused
/// kernel cannot hide in a shared implementation. The sparse kernel runs its own map
/// through the zero-skipping product; the reference multiplies it densely.
fn reference_and_tolerance(
    variant: AttentionVariant,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
) -> (Matrix, f32) {
    match variant {
        AttentionVariant::Softmax => (SoftmaxAttention::new().attention_map(q, k).matmul(v), 1e-4),
        AttentionVariant::Taylor => (
            TaylorAttention::new().compute_with_trace(q, k, v).score,
            1e-4,
        ),
        AttentionVariant::Sparse { threshold } => (
            SangerSparseAttention::new(threshold)
                .sparse_attention_map(q, k)
                .matmul(v),
            1e-5,
        ),
        AttentionVariant::Unified { threshold } => (
            UnifiedLowRankSparseAttention::new(threshold).compute_traced(q, k, v),
            1e-4,
        ),
        // The quantized kernel approximates its f32 sibling; the tolerance is the
        // documented quantization error budget, not a numerical artefact.
        AttentionVariant::Int8Taylor { .. } => (
            TaylorAttention::new().compute_with_trace(q, k, v).score,
            INT8_TAYLOR_TOLERANCE,
        ),
    }
}

/// Per-variant tolerance for the multi-head train-vs-infer consistency check. Larger
/// than the kernel-level tolerances because the comparison crosses four projections
/// and a head merge, and the quantized kernel's `forward_train` deliberately falls
/// back to the f32 path.
fn train_infer_tolerance(variant: AttentionVariant) -> f32 {
    match variant {
        AttentionVariant::Int8Taylor { .. } => 0.25,
        _ => 2e-2,
    }
}

#[test]
fn labels_are_unique_and_colon_free() {
    let variants = AttentionVariant::all();
    let mut labels: Vec<&'static str> = Vec::new();
    for variant in &variants {
        let label = variant.label();
        assert!(!label.is_empty(), "{variant:?} has an empty label");
        assert!(
            !label.contains(':'),
            "label {label:?} contains the registry separator ':'"
        );
        assert_eq!(
            label,
            variant.kernel().label(),
            "{variant:?}: configuration label and kernel label disagree"
        );
        assert!(
            !labels.contains(&label),
            "label {label:?} is claimed by two variants"
        );
        labels.push(label);
    }
    assert_eq!(labels.len(), variants.len());
}

#[test]
fn every_kernel_matches_its_traced_reference() {
    for variant in AttentionVariant::all() {
        let kernel = variant.kernel();
        for &n in &[1usize, 7, 64, 196] {
            let (q, k, v) = qkv(n, 16, 0.6, 7100 + n as u64);
            let fused = kernel.compute(&q, &k, &v);
            let (reference, tolerance) = reference_and_tolerance(variant, &q, &k, &v);
            let diff = fused.max_abs_diff(&reference);
            assert!(
                diff <= tolerance,
                "{} diverged from its reference at n={n}: {diff} > {tolerance}",
                kernel.label()
            );
        }
    }
}

#[test]
fn workspace_reuse_is_bit_exact_and_allocation_free() {
    for variant in AttentionVariant::all() {
        let kernel = variant.kernel();
        let (q, k, v) = qkv(40, 12, 0.5, 7200);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(40, 12);
        kernel.compute_into(&q, &k, &v, &mut ws, &mut out);
        let first = out.clone();
        let (checkouts, hits) = (ws.checkouts(), ws.pool_hits());
        // Dirty the output to prove it is fully overwritten, then rerun on the warm
        // (dirty) pool.
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
fn adversarial_inputs_produce_finite_outputs() {
    for variant in AttentionVariant::all() {
        let kernel = variant.kernel();
        let label = kernel.label();
        let assert_finite = |name: &str, q: &Matrix, k: &Matrix, v: &Matrix| {
            let out = kernel.compute(q, k, v);
            assert_eq!(out.shape(), (q.rows(), v.cols()));
            assert!(
                out.iter().all(|x| x.is_finite()),
                "{label} produced NaN/inf on {name}"
            );
        };
        // All-zero Q/K/V: degenerate scales, uniform attention.
        let z = Matrix::zeros(6, 8);
        assert_finite("all-zero q/k/v", &z, &z, &z);
        // Large-magnitude logits: the regime where a naive softmax overflows and the
        // Taylor denominator is stressed.
        let (q, k, v) = qkv(24, 8, 8.0, 7300);
        assert_finite("large-magnitude logits", &q, &k, &v);
        // A single token: every reduction collapses to one element.
        let (q, k, v) = qkv(1, 8, 0.7, 7301);
        assert_finite("n=1", &q, &k, &v);
    }
}

#[test]
fn multi_head_train_and_infer_agree_for_every_variant() {
    let mut rng = StdRng::seed_from_u64(7400);
    let mut mha = MultiHeadAttention::new(&mut rng, 16, 4, AttentionVariant::Softmax);
    let x = init::normal(&mut rng, 10, 16, 0.0, 0.4);
    for variant in AttentionVariant::all() {
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        mha.set_variant(variant);
        assert_eq!(mha.kernel().label(), variant.label());
        let out = mha.forward_train(&graph, &mut reg, "attn", &graph.constant(x.clone()));
        let mut inferred = Matrix::zeros(10, 16);
        mha.infer_into(&x, &mut Workspace::new(), &mut inferred);
        let tolerance = train_infer_tolerance(variant);
        assert!(
            out.value().approx_eq(&inferred, tolerance),
            "variant {} train/infer mismatch {}",
            variant.label(),
            out.value().max_abs_diff(&inferred)
        );
        // Gradients reach all four projection matrices.
        let grads = graph.backward(&out.mean_all());
        for name in [
            "attn.wq.weight",
            "attn.wk.weight",
            "attn.wv.weight",
            "attn.wo.weight",
        ] {
            assert!(
                reg.grad(name, &grads).is_some(),
                "missing gradient for {name} under {}",
                variant.label()
            );
        }
    }
}

/// The deterministic fused-vs-traced grid for the f32 unified kernel: token counts
/// spanning one token to the serving workload × the paper's threshold range. A future
/// threshold-bearing variant needs its own grid here or beside its kernel —
/// `every_kernel_matches_its_traced_reference` above covers only the one representative
/// threshold `all()` carries.
#[test]
fn fused_unified_kernel_tracks_its_reference_across_the_threshold_grid() {
    for &threshold in &[0.0f32, 0.1, 0.5] {
        for &n in &[1usize, 7, 64, 196] {
            let (q, k, v) = qkv(n, 16, 0.6, 8000 + n as u64);
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
