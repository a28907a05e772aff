//! Attention zoo: compares every attention mechanism implemented in this reproduction —
//! approximation error against the exact softmax attention and the analytical operation
//! counts — across increasing token counts (the high-resolution motivation of the paper).
//!
//! Run with: `cargo run --example attention_zoo`

use rand::rngs::StdRng;
use rand::SeedableRng;

use vitality::attention::{
    AttentionKernel, EfficientAttention, LinearKernelAttention, LinformerAttention, OpCounts,
    PerformerAttention, SangerSparseAttention, SoftmaxAttention, TaylorAttention,
    UnifiedLowRankSparseAttention,
};
use vitality::tensor::{init, Matrix};

fn qkv(n: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        init::normal(&mut rng, n, d, 0.0, 0.2),
        init::normal(&mut rng, n, d, 0.0, 0.2),
        init::normal(&mut rng, n, d, 0.0, 1.0),
    )
}

fn main() {
    let d = 64;
    for &n in &[64usize, 197, 576] {
        let (q, k, v) = qkv(n, d, n as u64);
        let exact = SoftmaxAttention::new().compute(&q, &k, &v);
        let mut rng = StdRng::seed_from_u64(7);

        // The trained/served mechanisms through the one attention trait …
        let kernels: [&dyn AttentionKernel; 5] = [
            &SoftmaxAttention::new(),
            &TaylorAttention::new(),
            &TaylorAttention::without_mean_centering(),
            &UnifiedLowRankSparseAttention::new(0.5),
            &SangerSparseAttention::new(0.02),
        ];
        let mut table: Vec<(&str, Matrix, OpCounts)> = kernels
            .iter()
            .map(|m| (m.label(), m.compute(&q, &k, &v), m.op_counts(n, d)))
            .collect();
        // … and the four linear baselines, which are only ever evaluated, never served.
        let linformer = LinformerAttention::new(&mut rng, n, n / 4);
        let performer = PerformerAttention::new(&mut rng, d, 2 * d);
        let (elu, efficient) = (LinearKernelAttention::new(), EfficientAttention::new());
        table.extend([
            (
                "linformer",
                linformer.compute(&q, &k, &v),
                linformer.op_counts(n, d),
            ),
            (
                "performer",
                performer.compute(&q, &k, &v),
                performer.op_counts(n, d),
            ),
            ("linear-elu", elu.compute(&q, &k, &v), elu.op_counts(n, d)),
            (
                "efficient",
                efficient.compute(&q, &k, &v),
                efficient.op_counts(n, d),
            ),
        ]);

        println!("== n = {n} tokens, d = {d} ==");
        println!(
            "{:<22} {:>12} {:>14} {:>12} {:>8}",
            "mechanism", "max error", "mul (M)", "add (M)", "exp (M)"
        );
        for (label, z, ops) in &table {
            println!(
                "{:<22} {:>12.4} {:>14.3} {:>12.3} {:>8.3}",
                label,
                exact.max_abs_diff(z),
                ops.mul as f64 / 1e6,
                ops.add as f64 / 1e6,
                ops.exp as f64 / 1e6,
            );
        }
        println!();
    }
    println!("Note how the Taylor attention's operation count grows linearly with the token");
    println!("count while the softmax attention grows quadratically — the gap that motivates");
    println!("ViTALiTy for high-resolution vision workloads.");
}
