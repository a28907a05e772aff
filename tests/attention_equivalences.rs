//! Cross-crate integration tests of the algorithmic identities the paper relies on:
//! Property 1 (mean-centring invariance), the weak/strong decomposition and the
//! linearisation identity behind the global context matrix.
//!
//! Per-variant kernel checks (train/infer consistency, fused-vs-traced divergence,
//! workspace reuse) live in the parameterized conformance suite
//! (`tests/kernel_conformance.rs`), which iterates `AttentionVariant::all()` instead
//! of hand-enumerating variants here.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vitality::attention::{
    mean_center_keys, AttentionKernel, SoftmaxAttention, TaylorAttention,
    UnifiedLowRankSparseAttention,
};
use vitality::tensor::{init, Matrix};

fn qkv(n: usize, d: usize, scale: f32, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        init::normal(&mut rng, n, d, 0.0, scale),
        init::normal(&mut rng, n, d, 0.1, scale),
        init::normal(&mut rng, n, d, 0.0, 1.0),
    )
}

#[test]
fn property1_mean_centering_never_changes_the_softmax_attention() {
    for seed in 0..5 {
        let (q, k, v) = qkv(48, 32, 0.7, seed);
        let vanilla = SoftmaxAttention::new().compute(&q, &k, &v);
        let centred = SoftmaxAttention::new().compute(&q, &mean_center_keys(&k), &v);
        assert!(
            vanilla.approx_eq(&centred, 1e-3),
            "seed {seed}: max diff {}",
            vanilla.max_abs_diff(&centred)
        );
    }
}

#[test]
fn associativity_identity_taylor_score_equals_explicit_map_times_values() {
    // The whole point of the linear attention: Q (K^T V) computed via the d x d global
    // context matrix equals the explicit (n x n) first-order map applied to V.
    for seed in 0..3 {
        let (q, k, v) = qkv(40, 16, 0.4, 100 + seed);
        let attention = TaylorAttention::new();
        let via_context = attention.compute(&q, &k, &v);
        let via_map = attention.weak_attention_map(&q, &k).matmul(&v);
        assert!(via_context.approx_eq(&via_map, 1e-3));
    }
}

#[test]
fn unified_attention_with_zero_threshold_reconstructs_softmax_exactly() {
    let (q, k, v) = qkv(24, 8, 0.9, 200);
    let unified = UnifiedLowRankSparseAttention::new(0.0).compute(&q, &k, &v);
    let exact = SoftmaxAttention::new().compute(&q, &k, &v);
    assert!(unified.approx_eq(&exact, 1e-3));
}

#[test]
fn taylor_is_a_good_approximation_exactly_when_logits_are_small() {
    let error_at_scale = |scale: f32| {
        let (q, k, v) = qkv(32, 16, scale, 300);
        SoftmaxAttention::new()
            .compute(&q, &k, &v)
            .max_abs_diff(&TaylorAttention::new().compute(&q, &k, &v))
    };
    let small = error_at_scale(0.05);
    let large = error_at_scale(1.2);
    assert!(small < 0.05, "small-logit error {small}");
    assert!(large > small, "error must grow with the logit scale");
}

#[test]
fn operation_count_crossover_taylor_wins_beyond_n_equals_d() {
    // Eq. (1): the multiplication ratio is ~n/d, so the Taylor attention wins exactly when
    // n exceeds d (high-resolution inputs) and loses when n < d.
    let d = 64;
    let taylor = TaylorAttention::new();
    let softmax = SoftmaxAttention::new();
    let cheaper_at = |n: usize| taylor.op_counts(n, d).mul < softmax.op_counts(n, d).mul;
    assert!(!cheaper_at(16), "Taylor should not win at n << d");
    assert!(!cheaper_at(32));
    assert!(cheaper_at(128), "Taylor should win at n = 2d");
    assert!(cheaper_at(197));
    assert!(cheaper_at(576));
}
