//! Criterion micro-benchmarks of the attention kernels: the linear Taylor attention versus
//! the vanilla softmax attention and the other linear baselines, across token counts.
//!
//! The expected shape (Table I / Fig. 5 of the paper): the softmax attention scales
//! quadratically with the token count while the Taylor attention scales linearly, so the
//! gap widens with `n` (higher input resolution).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use vitality_attention::{
    AttentionKernel, EfficientAttention, LinearKernelAttention, SangerSparseAttention,
    SoftmaxAttention, TaylorAttention,
};
use vitality_tensor::{init, Matrix, Workspace};

fn qkv(n: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        init::normal(&mut rng, n, d, 0.0, 0.3),
        init::normal(&mut rng, n, d, 0.0, 0.3),
        init::normal(&mut rng, n, d, 0.0, 1.0),
    )
}

/// Times a served kernel the way the engine runs it: `compute_into` on a warm workspace.
fn iter_served(
    b: &mut criterion::Bencher,
    kernel: &dyn AttentionKernel,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
) {
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(q.rows(), v.cols());
    b.iter(|| {
        kernel.compute_into(q, k, v, &mut ws, &mut out);
        black_box(out.as_slice()[0])
    })
}

fn bench_attention_scaling(c: &mut Criterion) {
    let d = 64;
    let mut group = c.benchmark_group("attention_scaling");
    for &n in &[64usize, 197, 400] {
        let (q, k, v) = qkv(n, d, n as u64);
        group.bench_with_input(BenchmarkId::new("vanilla_softmax", n), &n, |b, _| {
            iter_served(b, &SoftmaxAttention::new(), &q, &k, &v)
        });
        group.bench_with_input(BenchmarkId::new("vitality_taylor", n), &n, |b, _| {
            iter_served(b, &TaylorAttention::new(), &q, &k, &v)
        });
        group.bench_with_input(BenchmarkId::new("linear_elu", n), &n, |b, _| {
            let attn = LinearKernelAttention::new();
            b.iter(|| black_box(attn.compute(&q, &k, &v)))
        });
        group.bench_with_input(BenchmarkId::new("efficient_attention", n), &n, |b, _| {
            let attn = EfficientAttention::new();
            b.iter(|| black_box(attn.compute(&q, &k, &v)))
        });
    }
    group.finish();
}

fn bench_sparse_attention(c: &mut Criterion) {
    let (q, k, v) = qkv(197, 64, 7);
    let mut group = c.benchmark_group("sparse_attention");
    for &threshold in &[0.02f32, 0.2, 0.5] {
        group.bench_with_input(
            BenchmarkId::new("sanger_threshold", format!("{threshold}")),
            &threshold,
            |b, &t| iter_served(b, &SangerSparseAttention::new(t), &q, &k, &v),
        );
    }
    group.finish();
}

fn bench_taylor_steps(c: &mut Criterion) {
    // Step-level costs of Algorithm 1 (the Table II decomposition).
    let (q, k, v) = qkv(197, 64, 9);
    let mut group = c.benchmark_group("taylor_steps");
    group.bench_function("mean_center_keys", |b| {
        b.iter(|| black_box(vitality_attention::mean_center_keys(&k)))
    });
    let k_hat = vitality_attention::mean_center_keys(&k);
    group.bench_function("global_context_matrix", |b| {
        b.iter(|| black_box(k_hat.transpose_matmul(&v)))
    });
    let g = k_hat.transpose_matmul(&v);
    group.bench_function("query_times_context", |b| {
        b.iter(|| black_box(q.matmul(&g)))
    });
    group.bench_function("full_algorithm_1", |b| {
        let attn = TaylorAttention::new();
        b.iter(|| black_box(attn.compute_with_trace(&q, &k, &v)))
    });
    group.finish();
}

fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(1200))
        .warm_up_time(std::time::Duration::from_millis(400))
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets =     bench_attention_scaling,
    bench_sparse_attention,
    bench_taylor_steps

}
criterion_main!(benches);
