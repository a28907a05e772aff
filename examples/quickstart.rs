//! Quickstart: compute the ViTALiTy linear Taylor attention, compare it against the exact
//! softmax attention, and simulate the dedicated accelerator on the DeiT-Tiny workload.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;

use vitality::accel::{AcceleratorConfig, VitalityAccelerator};
use vitality::attention::{AttentionKernel, SoftmaxAttention, TaylorAttention};
use vitality::tensor::init;
use vitality::vit::{ModelConfig, ModelWorkload};

fn main() {
    // --- Algorithm level -------------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(42);
    let (n, d) = (197, 64); // DeiT-Tiny per-head shape
    let q = init::normal(&mut rng, n, d, 0.0, 0.15);
    let k = init::normal(&mut rng, n, d, 0.0, 0.15);
    let v = init::normal(&mut rng, n, d, 0.0, 1.0);

    let softmax = SoftmaxAttention::new();
    let taylor = TaylorAttention::new();
    let exact = softmax.compute(&q, &k, &v);
    let approx = taylor.compute(&q, &k, &v);
    println!("ViTALiTy linear Taylor attention vs vanilla softmax attention (n={n}, d={d})");
    println!(
        "  max |Z_taylor - Z_softmax|  = {:.4}",
        exact.max_abs_diff(&approx)
    );

    let vanilla_ops = softmax.op_counts(n, d);
    let taylor_ops = taylor.op_counts(n, d);
    println!(
        "  multiplications: {:.2} M (softmax) vs {:.2} M (Taylor)  ->  {:.1}x fewer",
        vanilla_ops.mul as f64 / 1e6,
        taylor_ops.mul as f64 / 1e6,
        vanilla_ops.mul as f64 / taylor_ops.mul as f64
    );
    println!(
        "  exponentiations: {} (softmax) vs {} (Taylor)",
        vanilla_ops.exp, taylor_ops.exp
    );

    // The trace exposes every intermediate of Algorithm 1.
    let trace = taylor.compute_with_trace(&q, &k, &v);
    println!(
        "  global context matrix G is {}x{} (independent of the token count)",
        trace.global_context.rows(),
        trace.global_context.cols()
    );

    // --- Hardware level --------------------------------------------------------------
    let accel = VitalityAccelerator::new(AcceleratorConfig::paper());
    let workload = ModelWorkload::for_model(&ModelConfig::deit_tiny());
    let report = accel.simulate_model(&workload);
    println!("\nViTALiTy accelerator (64x64 systolic array + pre/post-processors @ 500 MHz) on DeiT-Tiny:");
    println!(
        "  attention latency : {:.1} us",
        report.attention_latency_s * 1e6
    );
    println!(
        "  end-to-end latency: {:.2} ms",
        report.total_latency_s * 1e3
    );
    println!(
        "  end-to-end energy : {:.2} mJ",
        report.total_energy_j * 1e3
    );
}
