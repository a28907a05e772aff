//! Attention zoo: compares every trained and served attention mechanism of this
//! reproduction — approximation error against the exact softmax attention and the
//! analytical operation counts — across increasing token counts (the high-resolution
//! motivation of the paper).
//!
//! Run with: `cargo run --example attention_zoo`

use rand::rngs::StdRng;
use rand::SeedableRng;

use vitality::attention::{
    AttentionKernel, SangerSparseAttention, SoftmaxAttention, TaylorAttention,
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
        let kernels: [&dyn AttentionKernel; 5] = [
            &SoftmaxAttention::new(),
            &TaylorAttention::new(),
            &TaylorAttention::without_mean_centering(),
            &UnifiedLowRankSparseAttention::new(0.5),
            &SangerSparseAttention::new(0.02),
        ];
        println!("== n = {n} tokens, d = {d} ==");
        println!(
            "{:<22} {:>12} {:>14} {:>12} {:>8}",
            "mechanism", "max error", "mul (M)", "add (M)", "exp (M)"
        );
        for kernel in kernels {
            let ops = kernel.op_counts(n, d);
            println!(
                "{:<22} {:>12.4} {:>14.3} {:>12.3} {:>8.3}",
                kernel.label(),
                exact.max_abs_diff(&kernel.compute(&q, &k, &v)),
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
