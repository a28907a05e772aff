//! Property-based tests (proptest) of the core invariants: softmax shift invariance,
//! mean-centring, the Taylor attention's normalisation, operation-count monotonicity and
//! the linear-algebra identities the accelerator relies on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use vitality::attention::opcount::{taylor_attention_ops, vanilla_softmax_ops};
use vitality::attention::{
    mean_center_keys, quantize_symmetric, AttentionKernel, SangerSparseAttention, SoftmaxAttention,
    TaylorAttention, UnifiedLowRankSparseAttention,
};
use vitality::tensor::backend::Operand;
use vitality::tensor::{init, MatmulBackend, Matrix};

/// `backend`'s `m × n` product of two operands, as a matrix.
fn gemm(backend: MatmulBackend, m: usize, k: usize, n: usize, a: Operand, b: Operand) -> Matrix {
    Matrix::from_vec(m, n, backend.gemm(m, k, n, a, b)).unwrap()
}

/// Strategy producing a matrix with the given shape and bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn softmax_rows_always_form_probability_distributions(m in matrix(6, 9)) {
        let s = m.softmax_rows();
        for i in 0..s.rows() {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_invariant_to_per_row_constant_shifts(m in matrix(5, 7), shift in -3.0f32..3.0) {
        let shifted = m.add_scalar(shift);
        prop_assert!(m.softmax_rows().approx_eq(&shifted.softmax_rows(), 1e-4));
    }

    #[test]
    fn mean_centred_keys_always_have_zero_column_means(k in matrix(8, 6)) {
        let centred = mean_center_keys(&k);
        for &v in centred.col_mean().iter() {
            prop_assert!(v.abs() < 1e-4);
        }
    }

    #[test]
    fn property1_softmax_attention_is_invariant_to_key_mean_centring(
        q in matrix(6, 4),
        k in matrix(6, 4),
        v in matrix(6, 4),
    ) {
        let softmax = SoftmaxAttention::new();
        let vanilla = softmax.compute(&q, &k, &v);
        let centred = softmax.compute(&q, &mean_center_keys(&k), &v);
        prop_assert!(vanilla.approx_eq(&centred, 2e-3));
    }

    #[test]
    fn taylor_weak_attention_rows_always_sum_to_one(q in matrix(7, 4), k in matrix(7, 4)) {
        let weak = TaylorAttention::new().weak_attention_map(&q, &k);
        for i in 0..weak.rows() {
            let sum: f32 = weak.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3, "row {} sums to {}", i, sum);
        }
    }

    #[test]
    fn taylor_score_is_always_finite_and_correctly_shaped(
        q in matrix(9, 8),
        k in matrix(9, 8),
        v in matrix(9, 8),
    ) {
        let z = TaylorAttention::new().compute(&q, &k, &v);
        prop_assert_eq!(z.shape(), (9, 8));
        prop_assert!(z.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn weak_plus_strong_always_reconstructs_the_softmax_map(q in matrix(6, 4), k in matrix(6, 4)) {
        let attention = TaylorAttention::new();
        let rebuilt = attention
            .weak_attention_map(&q, &k)
            .try_add(&attention.strong_attention_map(&q, &k))
            .unwrap();
        let exact = SoftmaxAttention::new().attention_map(&q, &mean_center_keys(&k));
        prop_assert!(rebuilt.approx_eq(&exact, 2e-3));
    }

    #[test]
    fn sparse_masks_become_monotonically_sparser_with_the_threshold(
        q in matrix(8, 4),
        k in matrix(8, 4),
        t1 in 0.0f32..0.4,
        t2 in 0.4f32..1.0,
    ) {
        let loose = SangerSparseAttention::new(t1).prediction_mask(&q, &k);
        let tight = SangerSparseAttention::new(t2).prediction_mask(&q, &k);
        prop_assert!(tight.nnz() <= loose.nnz());
        // Every row always retains at least one key.
        for i in 0..tight.rows() {
            prop_assert!(tight.row(i).iter().any(|&m| m != 0.0));
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_the_step_size(m in matrix(6, 6), bits in 3u32..9) {
        let dequantized = quantize_symmetric(&m, bits);
        let max_abs = m.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let step = max_abs / ((1u32 << (bits - 1)) - 1) as f32;
        prop_assert!(m.max_abs_diff(&dequantized) <= 0.5 * step + 1e-6);
    }

    #[test]
    fn matmul_is_associative_the_identity_behind_the_linear_attention(
        a in matrix(5, 4),
        b in matrix(4, 3),
        c in matrix(3, 6),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-3));
    }

    #[test]
    fn transpose_products_match_their_fused_forms(a in matrix(5, 3), b in matrix(5, 3)) {
        prop_assert!(a.matmul_transpose_b(&b).approx_eq(&a.matmul(&b.transpose()), 1e-4));
        prop_assert!(a.transpose_matmul(&b).approx_eq(&a.transpose().matmul(&b), 1e-4));
    }

    #[test]
    fn operation_counts_are_monotone_in_tokens_and_dimensions(
        n1 in 8usize..64, extra_n in 1usize..64,
        d in 4usize..64,
    ) {
        let n2 = n1 + extra_n;
        prop_assert!(vanilla_softmax_ops(n2, d).total() > vanilla_softmax_ops(n1, d).total());
        prop_assert!(taylor_attention_ops(n2, d).total() > taylor_attention_ops(n1, d).total());
        // The Taylor attention never uses exponentiations, for any shape.
        prop_assert_eq!(taylor_attention_ops(n2, d).exp, 0);
    }

    #[test]
    fn vanilla_to_taylor_multiplication_ratio_tracks_n_over_d(n in 32usize..256, d in 8usize..96) {
        let ratio = vanilla_softmax_ops(n, d).mul as f64 / taylor_attention_ops(n, d).mul as f64;
        let theoretical = 2.0 * n as f64 / (2.0 * d as f64 + 1.0);
        prop_assert!((ratio - theoretical).abs() / theoretical < 0.05);
    }

    #[test]
    fn blocked_backend_matches_the_naive_reference_on_random_ragged_shapes(
        m in 1usize..80,
        k in 1usize..70,
        n in 1usize..70,
        seed in 0u64..1_000_000,
    ) {
        // Shapes land on both sides of the small-product cutoff and of the 72-row
        // panel, and rarely divide the 6x16 register tile, so the packing/edge-padding
        // paths are all exercised.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::uniform(&mut rng, m, k, -1.0, 1.0);
        let b = init::uniform(&mut rng, k, n, -1.0, 1.0);
        let (a, b) = (
            Operand::row_major(a.as_slice(), k),
            Operand::row_major(b.as_slice(), n),
        );
        let fast = gemm(MatmulBackend::Blocked, m, k, n, a, b);
        let slow = gemm(MatmulBackend::Naive, m, k, n, a, b);
        prop_assert!(
            fast.approx_eq(&slow, 1e-4),
            "matmul {}x{}x{} diverged by {}", m, k, n, fast.max_abs_diff(&slow)
        );
    }

    #[test]
    fn blocked_transpose_products_match_the_naive_reference(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A (m x k) * B^T (with B n x k), then A^T (k wide) * C (m x n).
        let a = init::uniform(&mut rng, m, k, -1.0, 1.0);
        let b = init::uniform(&mut rng, n, k, -1.0, 1.0);
        let c = init::uniform(&mut rng, m, n, -1.0, 1.0);
        let (a_op, bt) = (
            Operand::row_major(a.as_slice(), k),
            Operand::transposed(b.as_slice(), k),
        );
        let fast_bt = gemm(MatmulBackend::Blocked, m, k, n, a_op, bt);
        let slow_bt = gemm(MatmulBackend::Naive, m, k, n, a_op, bt);
        prop_assert!(
            fast_bt.approx_eq(&slow_bt, 1e-4),
            "matmul_transpose_b {}x{}x{} diverged by {}",
            m, k, n, fast_bt.max_abs_diff(&slow_bt)
        );
        let (at, c) = (
            Operand::transposed(a.as_slice(), k),
            Operand::row_major(c.as_slice(), n),
        );
        let fast_at = gemm(MatmulBackend::Blocked, k, m, n, at, c);
        let slow_at = gemm(MatmulBackend::Naive, k, m, n, at, c);
        prop_assert!(
            fast_at.approx_eq(&slow_at, 1e-4),
            "transpose_matmul {}x{}x{} diverged by {}",
            m, k, n, fast_at.max_abs_diff(&slow_at)
        );
    }

    #[test]
    fn fused_taylor_kernel_always_matches_the_algorithm_1_trace(
        n in 2usize..90,
        d in 2usize..24,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = init::normal(&mut rng, n, d, 0.0, 0.5);
        let k = init::normal(&mut rng, n, d, 0.2, 0.5);
        let v = init::normal(&mut rng, n, d, 0.0, 1.0);
        let attention = TaylorAttention::new();
        let trace = attention.compute_with_trace(&q, &k, &v);
        let fused = attention.compute(&q, &k, &v);
        prop_assert!(
            fused.approx_eq(&trace.score, 1e-4),
            "fused diverged from trace by {}", fused.max_abs_diff(&trace.score)
        );
        // The trace's own Step 6 identity must also hold.
        let rebuilt = trace.numerator.broadcast_div_col(&trace.denominator);
        prop_assert!(rebuilt.approx_eq(&trace.score, 1e-5));
    }

    #[test]
    fn fused_softmax_kernel_always_matches_the_map_pipeline(
        n in 2usize..90,
        d in 2usize..24,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = init::normal(&mut rng, n, d, 0.0, 0.8);
        let k = init::normal(&mut rng, n, d, 0.0, 0.8);
        let v = init::normal(&mut rng, n, d, 0.0, 1.0);
        let softmax = SoftmaxAttention::new();
        let fused = softmax.compute(&q, &k, &v);
        let unfused = softmax.attention_map(&q, &k).matmul(&v);
        prop_assert!(
            fused.approx_eq(&unfused, 1e-4),
            "fused diverged from map pipeline by {}", fused.max_abs_diff(&unfused)
        );
    }

    #[test]
    fn taylor_attention_of_identical_value_rows_returns_those_rows(
        q in matrix(6, 5),
        k in matrix(6, 5),
        row in proptest::collection::vec(-1.0f32..1.0, 5),
    ) {
        // If every value row is identical, any row-normalised attention returns that row.
        let v = Matrix::from_fn(6, 5, |_, j| row[j]);
        let z = TaylorAttention::new().compute(&q, &k, &v);
        for i in 0..z.rows() {
            for (zv, rv) in z.row(i).iter().zip(row.iter()) {
                prop_assert!((zv - rv).abs() < 1e-3);
            }
        }
    }

    // Random-input fuzz of the unified fused-vs-traced identity; the deterministic
    // per-variant grids, workspace-reuse and adversarial-input checks live in the
    // kernel conformance suite (`tests/kernel_conformance.rs`), parameterized over
    // `AttentionVariant::all()` instead of a hand-enumerated kernel list here.
    #[test]
    fn fused_unified_kernel_always_tracks_the_traced_reference(
        q in matrix(9, 6),
        k in matrix(9, 6),
        v in matrix(9, 6),
        threshold in 0.0f32..0.8,
    ) {
        let unified = UnifiedLowRankSparseAttention::new(threshold);
        let fused = unified.compute(&q, &k, &v);
        let traced = unified.compute_traced(&q, &k, &v);
        prop_assert!(
            fused.max_abs_diff(&traced) <= 1e-4,
            "fused unified kernel diverged by {} at threshold {}",
            fused.max_abs_diff(&traced),
            threshold
        );
    }

    // Random-input fuzz of the int8 quantization-error contract: the quantized
    // Taylor kernel stays within its documented tolerance of the f32 trace for any
    // bounded input (the deterministic grid is in the conformance suite).
    #[test]
    fn int8_taylor_kernel_always_respects_its_documented_tolerance(
        q in matrix(9, 6),
        k in matrix(9, 6),
        v in matrix(9, 6),
    ) {
        use vitality::attention::{Int8Calibration, QuantizedTaylorKernel, INT8_TAYLOR_TOLERANCE};
        let kernel = QuantizedTaylorKernel::new(Int8Calibration::Dynamic);
        let int8 = kernel.compute(&q, &k, &v);
        let f32_ref = kernel.reference().compute_with_trace(&q, &k, &v).score;
        prop_assert!(
            int8.max_abs_diff(&f32_ref) <= INT8_TAYLOR_TOLERANCE,
            "int8 taylor diverged by {}",
            int8.max_abs_diff(&f32_ref)
        );
    }
}
