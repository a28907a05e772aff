//! Emits `BENCH_attention.json`: machine-readable ns/op numbers for the attention
//! kernels and the matmul backends, so the perf trajectory can be tracked across PRs.
//!
//! Measurements:
//!
//! * `matmul_512` — blocked vs naive backend on a `512 × 512 × 512` dense GEMM (the
//!   repo's acceptance gate is a ≥ 5× blocked-over-naive speedup);
//! * `matmul_backends` — the per-backend series (naive, blocked) at `256³`, `512³`
//!   and (full mode) `1024³`; the `backend` block records the *resolved* default
//!   backend and the host's CPU feature flags, which decide the blocked driver's tile,
//!   so a regression can be told apart from a scalar-tile host;
//! * per token count `n ∈ {196, 1024, 4096}` (head dim 64): fused Taylor attention,
//!   the unfused Algorithm-1 trace path, the fused softmax baseline, and the max
//!   absolute fused-vs-traced divergence (gates: ≤ 1e-4, fused beats traced at
//!   n ≥ 1024);
//! * per token count `n ∈ {196, 1024}`: the fused unified low-rank + sparse kernel vs
//!   its traced [`UnifiedLowRankSparseAttention::compute_traced`] reference, with the
//!   same ≤ 1e-4 divergence gate and a fused-beats-traced gate;
//! * per token count `n ∈ {196, 1024}`: the int8 [`QuantizedTaylorKernel`] vs the
//!   fused and traced f32 Taylor paths, with an accuracy-delta column — top-1
//!   agreement between the int8-calibrated and f32 Taylor models on the synthetic
//!   eval set (gates: delta ≤ 1% top-1, int8 ≥ 1.0× the traced f32 throughput at
//!   n = 196, kernel divergence within the documented quantization tolerance);
//! * `elementwise` — the `tensor::simd` GELU kernel vs the libm-`tanh` formula it
//!   replaced (kept here only as the comparison) in ns/element at the MLP hidden
//!   shapes `196 × 64` and `1024 × 256`, and the LayerNorm row kernel in ns/row at
//!   `d ∈ {32, 64}` (gate: kernel ≥ 3× libm at `1024 × 256` on SIMD hosts).
//!
//! Every "fused" arm is the served path: [`AttentionKernel::compute_into`] into reused
//! output storage on a warm [`Workspace`], exactly as the engine runs it.
//!
//! The bin is its own judge: the gates named above are evaluated in `main`, the JSON's
//! `"ok"` records the verdict, and a failed gate exits non-zero behind a `FAIL:` line
//! — CI runs the bin and reads nothing back. The SIMD-only gate (GELU over libm)
//! applies where the host has AVX2/FMA.
//! The fused-vs-reference consistency checks inside the `measure_*` functions panic
//! outright: a bench that quietly times a wrong kernel is worse than none.
//!
//! Usage: `cargo run --release -p vitality-bench --bin bench_attention [-- --quick]`.
//! `--quick` drops the `n = 4096` Taylor point (used by CI to keep the job short); the
//! unified series is measured in both modes. The JSON is written to
//! `BENCH_attention.json` in the current directory and the same numbers are printed as
//! a table on stdout.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_attention::{
    AttentionKernel, Int8Calibration, QuantizedTaylorKernel, SoftmaxAttention, TaylorAttention,
    UnifiedLowRankSparseAttention, INT8_TAYLOR_TOLERANCE,
};
use vitality_tensor::backend::Operand;
use vitality_tensor::{cpu_features, init, matmul_backend, simd, MatmulBackend, Matrix, Workspace};
use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

/// Median ns/op over enough repetitions to fill ~0.5 s (minimum 3 runs).
fn measure_ns<R, F: FnMut() -> R>(mut f: F) -> f64 {
    let warm = Instant::now();
    std::hint::black_box(f());
    let per_iter = warm.elapsed().as_secs_f64();
    let reps = ((0.5 / per_iter.max(1e-9)) as usize).clamp(3, 1000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        samples.push(start.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2] * 1e9
}

/// [`measure_ns`] of a kernel the way the engine runs it: `compute_into` into reused
/// output storage on a warm workspace (the first, untimed call warms the pool).
fn measure_served_ns(kernel: &dyn AttentionKernel, q: &Matrix, k: &Matrix, v: &Matrix) -> f64 {
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(q.rows(), v.cols());
    measure_ns(|| kernel.compute_into(q, k, v, &mut ws, &mut out))
}

struct AttentionPoint {
    n: usize,
    d: usize,
    taylor_fused_ns: f64,
    taylor_traced_ns: f64,
    softmax_fused_ns: f64,
    fused_vs_traced_max_abs_diff: f32,
}

fn measure_attention(n: usize, d: usize) -> AttentionPoint {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let q = init::normal(&mut rng, n, d, 0.0, 0.3);
    let k = init::normal(&mut rng, n, d, 0.0, 0.3);
    let v = init::normal(&mut rng, n, d, 0.0, 1.0);
    let (taylor, softmax) = (TaylorAttention::new(), SoftmaxAttention::new());
    let diff = taylor
        .compute(&q, &k, &v)
        .max_abs_diff(&taylor.compute_with_trace(&q, &k, &v).score);
    // Cross-check the fused softmax against the unfused map pipeline before reporting —
    // a bench that quietly times a wrong kernel is worse than none. (Skipped at 4096,
    // where the n x n map would dominate the whole run.)
    if n <= 1024 {
        let softmax_diff = softmax
            .compute(&q, &k, &v)
            .max_abs_diff(&softmax.attention_map(&q, &k).matmul(&v));
        assert!(
            softmax_diff <= 1e-4,
            "fused softmax diverged from the map pipeline at n={n} by {softmax_diff}"
        );
    }
    AttentionPoint {
        n,
        d,
        taylor_fused_ns: measure_served_ns(&taylor, &q, &k, &v),
        taylor_traced_ns: measure_ns(|| taylor.compute_with_trace(&q, &k, &v).score),
        softmax_fused_ns: measure_served_ns(&softmax, &q, &k, &v),
        fused_vs_traced_max_abs_diff: diff,
    }
}

/// The unified series threshold: Sanger's published default, which keeps the mask
/// meaningfully sparse-but-nonempty at serving token counts.
const UNIFIED_THRESHOLD: f32 = 0.02;

struct UnifiedPoint {
    n: usize,
    d: usize,
    fused_ns: f64,
    traced_ns: f64,
    fused_vs_traced_max_abs_diff: f32,
}

fn measure_unified(n: usize, d: usize) -> UnifiedPoint {
    let mut rng = StdRng::seed_from_u64(7000 + n as u64);
    let q = init::normal(&mut rng, n, d, 0.0, 0.3);
    let k = init::normal(&mut rng, n, d, 0.0, 0.3);
    let v = init::normal(&mut rng, n, d, 0.0, 1.0);
    let unified = UnifiedLowRankSparseAttention::new(UNIFIED_THRESHOLD);
    let diff = unified
        .compute(&q, &k, &v)
        .max_abs_diff(&unified.compute_traced(&q, &k, &v));
    UnifiedPoint {
        n,
        d,
        fused_ns: measure_served_ns(&unified, &q, &k, &v),
        traced_ns: measure_ns(|| unified.compute_traced(&q, &k, &v)),
        fused_vs_traced_max_abs_diff: diff,
    }
}

struct Int8Point {
    n: usize,
    d: usize,
    int8_fused_ns: f64,
    taylor_fused_ns: f64,
    taylor_traced_ns: f64,
    int8_vs_f32_max_abs_diff: f32,
}

fn measure_int8(n: usize, d: usize) -> Int8Point {
    let mut rng = StdRng::seed_from_u64(9000 + n as u64);
    let q = init::normal(&mut rng, n, d, 0.0, 0.3);
    let k = init::normal(&mut rng, n, d, 0.0, 0.3);
    let v = init::normal(&mut rng, n, d, 0.0, 1.0);
    let kernel = QuantizedTaylorKernel::new(Int8Calibration::Dynamic);
    let taylor = kernel.reference();
    let diff = kernel
        .compute(&q, &k, &v)
        .max_abs_diff(&taylor.compute(&q, &k, &v));
    assert!(
        diff <= INT8_TAYLOR_TOLERANCE,
        "int8 kernel diverged from the f32 taylor at n={n} by {diff}"
    );
    Int8Point {
        n,
        d,
        int8_fused_ns: measure_served_ns(&kernel, &q, &k, &v),
        taylor_fused_ns: measure_served_ns(&taylor, &q, &k, &v),
        taylor_traced_ns: measure_ns(|| taylor.compute_with_trace(&q, &k, &v).score),
        int8_vs_f32_max_abs_diff: diff,
    }
}

/// Top-1 accuracy delta of the int8-calibrated model against the f32 Taylor model on
/// a synthetic eval set (the accuracy-delta column of the int8 series): the fraction
/// of eval images whose predicted class flips when the model switches from
/// [`AttentionVariant::Taylor`] to the calibrated int8 variant, in percent.
fn int8_top1_delta_pct(eval_images: usize) -> f64 {
    let cfg = TrainConfig::experiment();
    let mut rng = StdRng::seed_from_u64(2024);
    let mut model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
    let images: Vec<Matrix> = (0..eval_images)
        .map(|i| {
            init::uniform(
                &mut StdRng::seed_from_u64(31_000 + i as u64),
                cfg.image_size,
                cfg.image_size,
                0.0,
                1.0,
            )
        })
        .collect();
    let predict_all = |model: &VisionTransformer| -> Vec<usize> {
        images.iter().map(|image| model.predict(image)).collect()
    };
    let f32_predictions = predict_all(&model);
    // Calibrate fixed scales on a *disjoint*, separately-seeded image set (the
    // model-construction hook), then re-predict on the int8 path. Calibrating on the
    // eval images would guarantee no saturation on exactly the images being scored
    // and bias the delta toward zero — the gate must measure out-of-sample clipping.
    let calibration_images: Vec<Matrix> = (0..8)
        .map(|i| {
            init::uniform(
                &mut StdRng::seed_from_u64(32_000 + i as u64),
                cfg.image_size,
                cfg.image_size,
                0.0,
                1.0,
            )
        })
        .collect();
    model.calibrate_int8(&calibration_images);
    assert_eq!(model.variant().label(), "int8");
    let int8_predictions = predict_all(&model);
    let flipped = int8_predictions
        .iter()
        .zip(&f32_predictions)
        .filter(|(a, b)| a != b)
        .count();
    100.0 * flipped as f64 / images.len() as f64
}

/// One row of the per-backend matmul series: both backends timed on the same `size³`
/// product. The blocked driver's tile follows the host's CPU features — the JSON
/// `backend` block is what disambiguates a perf regression from a scalar-tile host.
struct MatmulPoint {
    size: usize,
    naive_ns: f64,
    blocked_ns: f64,
}

fn measure_matmul(size: usize) -> MatmulPoint {
    let a = init::uniform(&mut StdRng::seed_from_u64(7), size, size, -1.0, 1.0);
    let b = init::uniform(&mut StdRng::seed_from_u64(8), size, size, -1.0, 1.0);
    let gemm = |backend: MatmulBackend| {
        backend.gemm(
            size,
            size,
            size,
            Operand::row_major(a.as_slice(), size),
            Operand::row_major(b.as_slice(), size),
        )
    };
    MatmulPoint {
        size,
        naive_ns: measure_ns(|| gemm(MatmulBackend::Naive)),
        blocked_ns: measure_ns(|| gemm(MatmulBackend::Blocked)),
    }
}

/// The GELU the forward pass ran before the `tensor::simd` kernel: f32 arithmetic
/// around one libm `tanhf` call per element.
fn gelu_libm(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

/// GELU over a `rows × cols` hidden buffer: kernel vs libm formula, ns per element.
fn measure_gelu(rows: usize, cols: usize) -> JsonValue {
    let h = init::normal(&mut StdRng::seed_from_u64(51), rows, cols, 0.0, 1.5);
    let mut buf = h.clone();
    let elements = (rows * cols) as f64;
    let kernel_ns = measure_ns(|| {
        buf.as_mut_slice().copy_from_slice(h.as_slice());
        simd::gelu_inplace(buf.as_mut_slice());
    }) / elements;
    let libm_ns = measure_ns(|| {
        buf.as_mut_slice().copy_from_slice(h.as_slice());
        buf.map_inplace(gelu_libm);
    }) / elements;
    println!(
        "gelu {rows:>4}x{cols:<3}: kernel {kernel_ns:>5.2} ns/elem | libm tanh {libm_ns:>5.2} ns/elem ({:.1}x)",
        libm_ns / kernel_ns
    );
    let mut o = JsonValue::object();
    o.set("rows", rows)
        .set("cols", cols)
        .set("kernel_ns_per_element", kernel_ns)
        .set("libm_ns_per_element", libm_ns)
        .set("kernel_speedup_over_libm", libm_ns / kernel_ns);
    o
}

/// LayerNorm over 1024 rows of width `d`: ns per row.
fn measure_layer_norm(d: usize) -> JsonValue {
    const ROWS: usize = 1024;
    let x = init::normal(&mut StdRng::seed_from_u64(52), ROWS, d, 0.5, 2.0);
    let (gamma, beta) = (vec![1.0f32; d], vec![0.0f32; d]);
    let mut out = vec![0.0f32; ROWS * d];
    let ns_per_row =
        measure_ns(|| simd::layer_norm_rows(x.as_slice(), &gamma, &beta, 1e-5, &mut out))
            / ROWS as f64;
    println!("layer norm d={d:>2}: {ns_per_row:>6.1} ns/row");
    let mut o = JsonValue::object();
    o.set("d", d).set("ns_per_row", ns_per_row);
    o
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Resolved backend + CPU features, logged up front: every number below depends
    // on which microkernels this host actually runs.
    let cpu = cpu_features();
    let resolved = matmul_backend();
    println!(
        "matmul backend: {} (cpu: avx2={} fma={})",
        resolved.label(),
        cpu.avx2,
        cpu.fma
    );

    // Per-backend matmul series; the 512 point doubles as the blocked-vs-naive gate.
    let matmul_sizes: &[usize] = if quick {
        &[256, 512]
    } else {
        &[256, 512, 1024]
    };
    let mut matmul_points = Vec::new();
    for &size in matmul_sizes {
        let p = measure_matmul(size);
        println!(
            "matmul {size}^3: naive {:>12.0} ns | blocked {:>11.0} ns ({:.1}x)",
            p.naive_ns,
            p.blocked_ns,
            p.naive_ns / p.blocked_ns,
        );
        matmul_points.push(p);
    }
    let p512 = matmul_points
        .iter()
        .find(|p| p.size == 512)
        .expect("512 point is measured in both modes");
    let (blocked_ns, naive_ns) = (p512.blocked_ns, p512.naive_ns);
    let speedup = naive_ns / blocked_ns;

    let token_counts: &[usize] = if quick {
        &[196, 1024]
    } else {
        &[196, 1024, 4096]
    };
    let d = 64;
    let mut points = Vec::new();
    for &n in token_counts {
        let p = measure_attention(n, d);
        println!(
            "n={:>4}: taylor fused {:>12.0} ns | taylor traced {:>12.0} ns ({:.2}x) | softmax fused {:>13.0} ns | taylor-vs-softmax {:>6.1}x | fused-vs-traced diff {:.2e}",
            p.n,
            p.taylor_fused_ns,
            p.taylor_traced_ns,
            p.taylor_traced_ns / p.taylor_fused_ns,
            p.softmax_fused_ns,
            p.softmax_fused_ns / p.taylor_fused_ns,
            p.fused_vs_traced_max_abs_diff,
        );
        points.push(p);
    }

    // Unified low-rank + sparse series: fused kernel vs traced reference.
    let unified_counts: &[usize] = &[196, 1024];
    let mut unified_points = Vec::new();
    for &n in unified_counts {
        let p = measure_unified(n, d);
        println!(
            "n={:>4}: unified fused {:>12.0} ns | unified traced {:>12.0} ns ({:.2}x) | fused-vs-traced diff {:.2e}",
            p.n,
            p.fused_ns,
            p.traced_ns,
            p.traced_ns / p.fused_ns,
            p.fused_vs_traced_max_abs_diff,
        );
        unified_points.push(p);
    }

    // Int8 series: quantized kernel vs the f32 Taylor paths + the accuracy-delta
    // column (top-1 agreement on the synthetic eval set).
    let int8_counts: &[usize] = &[196, 1024];
    let mut int8_points = Vec::new();
    for &n in int8_counts {
        let p = measure_int8(n, d);
        println!(
            "n={:>4}: int8 fused {:>12.0} ns | taylor fused {:>12.0} ns ({:.2}x) | taylor traced {:>12.0} ns ({:.2}x) | int8-vs-f32 diff {:.2e}",
            p.n,
            p.int8_fused_ns,
            p.taylor_fused_ns,
            p.taylor_fused_ns / p.int8_fused_ns,
            p.taylor_traced_ns,
            p.taylor_traced_ns / p.int8_fused_ns,
            p.int8_vs_f32_max_abs_diff,
        );
        int8_points.push(p);
    }

    // Elementwise kernels at the two MLP hidden shapes the benchmark workloads run
    // (vit196: 196 × 64, vit1024: 1024 × 256) and both LayerNorm widths.
    let gelu_points: Vec<JsonValue> = [(196, 64), (1024, 256)]
        .iter()
        .map(|&(rows, cols)| measure_gelu(rows, cols))
        .collect();
    let gelu_speedup_1024 = gelu_points[1]
        .get("kernel_speedup_over_libm")
        .and_then(JsonValue::as_f64)
        .expect("measure_gelu reports the ratio");
    let layer_norm_points: Vec<JsonValue> =
        [32, 64].iter().map(|&d| measure_layer_norm(d)).collect();
    let mut elementwise = JsonValue::object();
    elementwise
        .set("gelu", gelu_points)
        .set("layer_norm", layer_norm_points);

    let int8_eval_images = if quick { 32 } else { 96 };
    let int8_delta_pct = int8_top1_delta_pct(int8_eval_images);
    println!(
        "int8 top-1 accuracy delta vs f32 taylor: {int8_delta_pct:.2}% over {int8_eval_images} synthetic eval images"
    );

    // ---- Gates ---------------------------------------------------------------
    // Each has a margin well clear of this bin's run-to-run noise (the closest, fused
    // over traced, reads ≈ 1.4× against a floor of 1.0×).
    let simd_host = cpu.simd_ready();
    let mut failures: Vec<String> = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    require(
        speedup >= 5.0,
        format!("blocked matmul {speedup:.2}x naive at 512^3, below 5x"),
    );
    for p in &points {
        require(
            p.fused_vs_traced_max_abs_diff <= 1e-4,
            format!(
                "fused Taylor diverged from the trace at n={}: {}",
                p.n, p.fused_vs_traced_max_abs_diff
            ),
        );
        require(
            p.n < 1024 || p.taylor_traced_ns >= p.taylor_fused_ns,
            format!("fused Taylor slower than the traced path at n={}", p.n),
        );
    }
    for p in &unified_points {
        require(
            p.fused_vs_traced_max_abs_diff <= 1e-4,
            format!(
                "fused unified kernel diverged from the traced reference at n={}: {}",
                p.n, p.fused_vs_traced_max_abs_diff
            ),
        );
        require(
            p.traced_ns >= p.fused_ns,
            format!(
                "fused unified kernel slower than the traced reference at n={}",
                p.n
            ),
        );
    }
    for p in int8_points.iter().filter(|p| p.n == 196) {
        require(
            p.taylor_traced_ns >= p.int8_fused_ns,
            "int8 kernel slower than the traced f32 Taylor at n=196".to_string(),
        );
    }
    require(
        int8_delta_pct <= 1.0,
        format!(
            "int8 top-1 delta vs f32 taylor {int8_delta_pct:.2}% over {int8_eval_images} images, above 1%"
        ),
    );
    require(
        !simd_host || gelu_speedup_1024 >= 3.0,
        format!("GELU kernel {gelu_speedup_1024:.2}x the libm tanh formula at 1024x256, below 3x"),
    );

    let mut matmul = JsonValue::object();
    matmul
        .set("blocked_ns", blocked_ns)
        .set("naive_ns", naive_ns)
        .set("speedup", speedup);
    let mut backend_block = JsonValue::object();
    backend_block
        .set("resolved", resolved.label())
        .set("cpu_avx2", cpu.avx2)
        .set("cpu_fma", cpu.fma);
    let matmul_backends: Vec<JsonValue> = matmul_points
        .iter()
        .map(|p| {
            let mut o = JsonValue::object();
            o.set("size", p.size)
                .set("naive_ns", p.naive_ns)
                .set("blocked_ns", p.blocked_ns)
                .set("blocked_speedup_over_naive", p.naive_ns / p.blocked_ns);
            o
        })
        .collect();
    let attention: Vec<JsonValue> = points
        .iter()
        .map(|p| {
            let mut o = JsonValue::object();
            o.set("n", p.n)
                .set("d", p.d)
                .set("taylor_fused_ns", p.taylor_fused_ns)
                .set("taylor_traced_ns", p.taylor_traced_ns)
                .set("softmax_fused_ns", p.softmax_fused_ns)
                .set(
                    "taylor_speedup_over_softmax",
                    p.softmax_fused_ns / p.taylor_fused_ns,
                )
                .set(
                    "fused_speedup_over_traced",
                    p.taylor_traced_ns / p.taylor_fused_ns,
                )
                .set(
                    "fused_vs_traced_max_abs_diff",
                    p.fused_vs_traced_max_abs_diff,
                );
            o
        })
        .collect();
    let unified: Vec<JsonValue> = unified_points
        .iter()
        .map(|p| {
            let mut o = JsonValue::object();
            o.set("n", p.n)
                .set("d", p.d)
                .set("threshold", UNIFIED_THRESHOLD)
                .set("unified_fused_ns", p.fused_ns)
                .set("unified_traced_ns", p.traced_ns)
                .set("fused_speedup_over_traced", p.traced_ns / p.fused_ns)
                .set(
                    "fused_vs_traced_max_abs_diff",
                    p.fused_vs_traced_max_abs_diff,
                );
            o
        })
        .collect();
    let int8: Vec<JsonValue> = int8_points
        .iter()
        .map(|p| {
            let mut o = JsonValue::object();
            o.set("n", p.n)
                .set("d", p.d)
                .set("int8_fused_ns", p.int8_fused_ns)
                .set("taylor_fused_ns", p.taylor_fused_ns)
                .set("taylor_traced_ns", p.taylor_traced_ns)
                .set(
                    "int8_speedup_over_traced",
                    p.taylor_traced_ns / p.int8_fused_ns,
                )
                .set(
                    "int8_speedup_over_fused",
                    p.taylor_fused_ns / p.int8_fused_ns,
                )
                .set("int8_vs_f32_max_abs_diff", p.int8_vs_f32_max_abs_diff);
            o
        })
        .collect();
    let mut root = JsonValue::object();
    root.set("benchmark", "attention_kernels")
        .set("quick", quick)
        .set("backend", backend_block)
        .set("matmul_512", matmul)
        .set("matmul_backends", matmul_backends)
        .set("attention", attention)
        .set("unified", unified)
        .set("int8", int8)
        .set("elementwise", elementwise)
        .set("int8_eval_images", int8_eval_images)
        .set("int8_top1_delta_pct", int8_delta_pct)
        .set("int8_documented_tolerance", INT8_TAYLOR_TOLERANCE)
        .set("ok", failures.is_empty());
    std::fs::write("BENCH_attention.json", root.to_json_pretty())
        .expect("write BENCH_attention.json");
    println!("wrote BENCH_attention.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
