//! The int8-quantized Taylor attention kernel: the ViTALiTy accelerator's integer
//! arithmetic pushed through the [`AttentionKernel`] serving interface.
//!
//! The ViTALiTy accelerator runs its low-rank Taylor path on quantized arithmetic. This
//! module reproduces that deployment path in the software model:
//! [`QuantizedTaylorKernel`] (label `int8`) is the linear Taylor attention with
//! `Q`/`K̂`/`V` quantized **per head** to symmetric int8, the fused Algorithm-1
//! accumulation (`G = K̂ᵀV`, `k̂_sum`, `v_sum`) running exactly on `i32` integer
//! accumulators through the integer GEMM, and `f32` dequantization only at the output
//! stage (one `O(d²)` scale sweep over the finished aggregates, then the fused
//! Steps-4–6 output loop shared with the f32 kernel).
//!
//! # Calibration
//!
//! Quantization scales are per head and symmetric (`scale = absmax / 127`).
//! [`Int8Calibration::Dynamic`] measures the absmax of each head's `Q`, centred `K̂`
//! and `V` at every call — self-calibrating, at the cost of one extra sweep per
//! operand. [`Int8Calibration::Fixed`] freezes absmax ranges measured on calibration
//! data (see `VisionTransformer::calibrate_int8` in `vitality-vit`, the model-level
//! calibration hook); activations beyond the calibrated range saturate at ±127, which
//! is exactly the accelerator's behaviour.
//!
//! # Accuracy contract
//!
//! The kernel is differentially gated against its f32 reference by the kernel
//! conformance suite (`tests/kernel_conformance.rs`): within [`INT8_TAYLOR_TOLERANCE`]
//! of the f32 Taylor trace at the suite's input scales. The error budget is the
//! symmetric-quantization step (`absmax/127` per operand, three quantized operands,
//! normalised output), not a numerical-stability artefact: halving the input magnitude
//! halves the divergence.
//!
//! Training always runs in f32 — `forward_train` falls back to the f32 kernel, which
//! mirrors the paper's deployment (quantization is an inference/accelerator concern,
//! not a training scheme).

use crate::kernel::{
    center_keys_into, fill_k_bar, low_rank_outputs, validate_out, AttentionKernel,
};
use crate::opcount::OpCounts;
use crate::taylor::TaylorAttention;
use vitality_autograd::Var;
use vitality_tensor::backend::IntOperand;
// `absmax` dispatches to the AVX2 `vandnps`/`vmaxps` sweep when the host supports it;
// the calibration sweeps are three full passes over `Q`/`K̂`/`V` per head, a
// measurable share of the quantized kernel's non-GEMM time.
use vitality_tensor::simd::absmax;
use vitality_tensor::{matmul_backend, AlignedVec, MatmulBackend, Matrix, Workspace};

/// Documented conformance tolerance of [`QuantizedTaylorKernel`] against the f32
/// Taylor trace at the conformance suite's input scales (|entries| ≲ 1.5).
pub const INT8_TAYLOR_TOLERANCE: f32 = 0.05;

/// How the int8 kernel derives its per-head quantization scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Int8Calibration {
    /// Measure the absmax of each head's `Q` / centred `K̂` / `V` at every call.
    Dynamic,
    /// Freeze absmax ranges measured on calibration data at model construction;
    /// out-of-range activations saturate at ±127.
    Fixed {
        /// Calibrated absmax of the per-head query activations.
        q_absmax: f32,
        /// Calibrated absmax of the per-head *mean-centred* key activations.
        k_absmax: f32,
        /// Calibrated absmax of the per-head value activations.
        v_absmax: f32,
    },
}

impl Int8Calibration {
    /// Resolves the `(Q, K̂, V)` absmax triple, preferring the calibrated ranges.
    fn resolve(&self, q_dyn: f32, k_dyn: f32, v_dyn: f32) -> (f32, f32, f32) {
        match *self {
            Int8Calibration::Dynamic => (q_dyn, k_dyn, v_dyn),
            Int8Calibration::Fixed {
                q_absmax,
                k_absmax,
                v_absmax,
            } => (q_absmax, k_absmax, v_absmax),
        }
    }

    /// Whether the absmax sweeps can be skipped (fixed ranges need no measurement).
    fn is_fixed(&self) -> bool {
        matches!(self, Int8Calibration::Fixed { .. })
    }
}

/// Quantizes `src` onto the symmetric int8 grid defined by `absmax` (saturating at
/// ±127), writing the canonical int8 operand — what an int8 deployment stores (the 4×
/// memory-compression point of the variant) and exactly what the native `maddubs`
/// integer GEMM consumes. Returns the dequantization scale (`0` when the range is
/// degenerate, which zeroes every contribution downstream). The clamp to ±127 also
/// guarantees the operands stay inside the native kernel's `[-127, 127]` domain.
///
/// Rounding is to-nearest-even via the `1.5 · 2²³` magic constant — see
/// [`vitality_tensor::simd::quantize_i8`], which runs the sweep 32 lanes at a time on
/// AVX2 hosts and bit-identically scalar elsewhere. Both `f32::round` (a scalar
/// `roundf` call on baseline x86-64) and the saturating `f32 as i8` cast would defeat
/// that vectorisation.
fn quantize_slice(src: &[f32], absmax: f32, dst: &mut [i8]) -> f32 {
    debug_assert_eq!(src.len(), dst.len());
    if absmax <= 0.0 {
        dst.fill(0);
        return 0.0;
    }
    vitality_tensor::simd::quantize_i8(src, 127.0 / absmax, dst);
    absmax / 127.0
}

/// [`quantize_slice`] without the int8 store, for the query operand: every downstream
/// consumer of Q (the f32 output sweep over the scale-folded aggregates) reads the
/// lattice view, so materialising a query `Vec<i8>` would be a write nothing reads.
/// Same rounding, saturation and degenerate-range behaviour.
fn quantize_lattice(src: &[f32], absmax: f32, lattice: &mut [f32]) -> f32 {
    debug_assert_eq!(src.len(), lattice.len());
    if absmax <= 0.0 {
        lattice.fill(0.0);
        return 0.0;
    }
    vitality_tensor::simd::quantize_lattice(src, 127.0 / absmax, lattice);
    absmax / 127.0
}

/// The state of one quantized Algorithm-1 accumulation.
///
/// `K̂` and `V` are quantized into canonical int8 operands — the storage form an int8
/// deployment holds and exactly what the backend's integer GEMM consumes; both live
/// only inside [`Int8LowRank::accumulate`]. The query is quantized to its f32 lattice
/// view only: its sole consumer is the f32 output sweep, so an int8 query store would
/// be write-only work. The `(G, k̂_sum, v_sum)` aggregates are accumulated **exactly**
/// in integer arithmetic: `G` through [`MatmulBackend::gemm_i8_fast_into`] (the
/// `maddubs` microkernel when the resolved backend and host support it, otherwise the
/// bit-identical widen-to-f32 chunked-exact route); the sums in `i32` over the int8
/// operands.
/// The aggregates are then dequantized once per head with the query scale folded in —
/// `g = s_q s_k s_v · G`, `k_sum = s_q s_k · k̂_sum`, `v_sum = s_v · v_sum` — so the
/// per-query output sweep is *identical* to the f32 Taylor kernel's fused Steps-4–6
/// loop over the unscaled query lattice. That one `O(d²)` scale sweep is the entire
/// f32 dequantization of the kernel.
/// Every buffer is a workspace checkout; [`Int8LowRank::recycle`] hands them all back.
struct Int8LowRank {
    q_lat: AlignedVec<f32>,
    g: AlignedVec<f32>,
    k_sum: AlignedVec<f32>,
    v_sum: AlignedVec<f32>,
}

impl Int8LowRank {
    /// Quantizes `(Q, K̂, V)` per head and runs the fused Algorithm-1 accumulation on
    /// exact integer arithmetic: `G = K̂_q ᵀ V_q` through the production integer GEMM,
    /// `k̂_sum` and `v_sum` as `i32` column sums of the int8 operands.
    ///
    /// `k_hat` is the **already mean-centred** key buffer (`n × d_k` row-major) —
    /// centring happens before quantization to keep the logits small (the point of
    /// the Taylor expansion), and the caller already has the centred keys in hand.
    fn accumulate(
        q: &Matrix,
        k_hat: &[f32],
        v: &Matrix,
        calibration: Int8Calibration,
        ws: &mut Workspace,
    ) -> Self {
        let n = v.rows();
        let d_k = q.cols();
        let d_v = v.cols();
        let n_q = q.rows();
        debug_assert_eq!(k_hat.len(), n * d_k);

        let (q_max, k_max, v_max) = if calibration.is_fixed() {
            calibration.resolve(0.0, 0.0, 0.0)
        } else {
            calibration.resolve(absmax(q.as_slice()), absmax(k_hat), absmax(v.as_slice()))
        };

        let mut q_lat = ws.take_vec(n_q * d_k);
        let s_q = quantize_lattice(q.as_slice(), q_max, &mut q_lat);
        let mut k_q = ws.take_i8_vec(n * d_k);
        let s_k = quantize_slice(k_hat, k_max, &mut k_q);
        let mut v_q = ws.take_i8_vec(n * d_v);
        let s_v = quantize_slice(v.as_slice(), v_max, &mut v_q);

        // G = K̂_qᵀ V_q: exact integer accumulation straight off the canonical int8
        // operands, marked clamped — the quantizer's ±127 saturation guarantees they
        // sit inside the native `maddubs` kernel's domain, so the `-128` scans would
        // be two redundant full-buffer sweeps here.
        let mut g_i = ws.take_i32_vec(d_k * d_v);
        matmul_backend().gemm_i8_fast_into(
            &mut g_i,
            d_k,
            n,
            d_v,
            IntOperand::transposed(&k_q, d_k).clamped(),
            IntOperand::row_major(&v_q, d_v).clamped(),
            ws,
        );
        // Exact integer column sums in i32 over the canonical int8 operands, via the
        // widen-and-add SIMD sweep when the host supports it.
        let mut k_sum_i = ws.take_i32_vec(d_k);
        vitality_tensor::simd::i8_column_sums(&k_q, &mut k_sum_i);
        let mut v_sum_i = ws.take_i32_vec(d_v);
        vitality_tensor::simd::i8_column_sums(&v_q, &mut v_sum_i);
        ws.recycle_i8_vec(k_q);
        ws.recycle_i8_vec(v_q);

        // Dequantize the exact integer aggregates once per head, folding in the query
        // scale — O(d²) multiplications against the O(nd²) accumulation they conclude.
        let s_qkv = s_q * s_k * s_v;
        let s_qk = s_q * s_k;
        let mut g = ws.take_vec(d_k * d_v);
        for (f, &i) in g.iter_mut().zip(g_i.iter()) {
            *f = i as f32 * s_qkv;
        }
        let mut k_sum = ws.take_vec(d_k);
        for (f, &i) in k_sum.iter_mut().zip(k_sum_i.iter()) {
            *f = i as f32 * s_qk;
        }
        let mut v_sum = ws.take_vec(d_v);
        for (f, &i) in v_sum.iter_mut().zip(v_sum_i.iter()) {
            *f = i as f32 * s_v;
        }
        ws.recycle_i32_vec(g_i);
        ws.recycle_i32_vec(k_sum_i);
        ws.recycle_i32_vec(v_sum_i);

        Self {
            q_lat,
            g,
            k_sum,
            v_sum,
        }
    }

    /// Emits every output row — the same fused GEMM-backed Steps-4–6 pass as the f32
    /// Taylor kernel, driven by the query's integer lattice over the scale-folded
    /// aggregates: `out_i = (sqrt(d) v_sum + q_i G) / (n sqrt(d) + q_i k̂_sum)` with
    /// every operand on the int8 grid.
    fn output_sweep(&self, backend: MatmulBackend, sqrt_d: f32, n_sqrt_d: f32, out: &mut [f32]) {
        low_rank_outputs(
            backend,
            &self.q_lat,
            self.k_sum.len(),
            &self.g,
            &self.k_sum,
            &self.v_sum,
            sqrt_d,
            n_sqrt_d,
            out,
            None,
        );
    }

    /// Returns every buffer to the workspace.
    fn recycle(self, ws: &mut Workspace) {
        ws.recycle_vec(self.q_lat);
        ws.recycle_vec(self.g);
        ws.recycle_vec(self.k_sum);
        ws.recycle_vec(self.v_sum);
    }
}

/// The int8-quantized linear Taylor attention (serving label `int8`).
///
/// See the [module documentation](self) for the quantization scheme, the calibration
/// modes and the accuracy contract. The f32 reference this kernel is differentially
/// tested against is [`TaylorAttention::new`] (mean-centring on — the ViTALiTy
/// inference configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizedTaylorKernel {
    calibration: Int8Calibration,
    reference: TaylorAttention,
}

impl QuantizedTaylorKernel {
    /// Creates the kernel with the given calibration mode.
    pub fn new(calibration: Int8Calibration) -> Self {
        Self {
            calibration,
            reference: TaylorAttention::new(),
        }
    }

    /// The configured calibration mode.
    pub fn calibration(&self) -> Int8Calibration {
        self.calibration
    }

    /// The f32 reference this kernel approximates (and its conformance baseline).
    pub fn reference(&self) -> TaylorAttention {
        self.reference
    }
}

impl AttentionKernel for QuantizedTaylorKernel {
    fn label(&self) -> &'static str {
        "int8"
    }

    fn compute_into(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        ws: &mut Workspace,
        out: &mut Matrix,
    ) {
        validate_out(q, k, v, out);
        let n = k.rows();
        let d_k = k.cols();
        let sqrt_d = (q.cols() as f32).sqrt();
        let mut k_bar = ws.take_vec(d_k);
        fill_k_bar(k, true, &mut k_bar);
        let mut k_hat = ws.take_vec(n * d_k);
        center_keys_into(k, &k_bar, &mut k_hat);
        let lr = Int8LowRank::accumulate(q, &k_hat, v, self.calibration, ws);
        let n_sqrt_d = n as f32 * sqrt_d;
        lr.output_sweep(matmul_backend(), sqrt_d, n_sqrt_d, out.as_mut_slice());
        ws.recycle_vec(k_bar);
        ws.recycle_vec(k_hat);
        lr.recycle(ws);
    }

    fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        // Same operation structure as the f32 Taylor path; the quantize/dequantize
        // sweeps are O(nd) and vanish against the O(nd²) accumulation the count models.
        self.reference.op_counts(n, d)
    }

    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var {
        // Training runs in f32 (quantization is an inference concern); the fallback is
        // the exact f32 Taylor forward pass this kernel approximates.
        self.reference.forward_train(q, k, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn quantize_slice_round_trips_within_one_step() {
        let src = [-1.0f32, -0.4, 0.0, 0.33, 0.999];
        let mut dst = [0i8; 5];
        let scale = quantize_slice(&src, 1.0, &mut dst);
        assert!((scale - 1.0 / 127.0).abs() < 1e-9);
        for (&s, &d) in src.iter().zip(&dst) {
            assert!((s - f32::from(d) * scale).abs() <= 0.5 * scale + 1e-6);
        }
        // Out-of-range values saturate instead of wrapping — which also keeps every
        // quantized operand inside the native kernel's [-127, 127] domain.
        let mut sat = [0i8; 2];
        quantize_slice(&[9.0, -9.0], 1.0, &mut sat);
        assert_eq!(sat, [127, -127]);
        // Degenerate range zeroes everything and reports scale 0.
        let mut zero = [3i8; 2];
        assert_eq!(quantize_slice(&[0.5, -0.5], 0.0, &mut zero), 0.0);
        assert_eq!(zero, [0, 0]);
        // The magic-constant rounding matches f32::round away from exact .5 ties and
        // lands on the nearest even integer at ties (both within half a step).
        let ties = [0.5f32, -0.5, 1.5, 2.5];
        let mut tie_dst = [0i8; 4];
        quantize_slice(&ties, 127.0, &mut tie_dst);
        assert_eq!(tie_dst, [0, 0, 2, 2], "round-half-even at exact ties");
    }

    #[test]
    fn int8_taylor_tracks_the_f32_taylor_within_the_documented_tolerance() {
        for &n in &[1usize, 7, 64, 196] {
            let (q, k, v) = qkv(n, 16, 0.6, 80 + n as u64);
            let kernel = QuantizedTaylorKernel::new(Int8Calibration::Dynamic);
            let int8 = kernel.compute(&q, &k, &v);
            let f32_ref = kernel.reference().compute_with_trace(&q, &k, &v).score;
            let diff = int8.max_abs_diff(&f32_ref);
            assert!(
                diff <= INT8_TAYLOR_TOLERANCE,
                "int8 taylor diverged at n={n}: {diff}"
            );
        }
    }

    #[test]
    fn int8_error_shrinks_with_the_input_magnitude() {
        let err_at = |scale: f32| {
            let (q, k, v) = qkv(48, 16, scale, 81);
            let kernel = QuantizedTaylorKernel::new(Int8Calibration::Dynamic);
            kernel
                .compute(&q, &k, &v)
                .max_abs_diff(&kernel.reference().compute(&q, &k, &v))
        };
        // The quantization step scales with absmax, so the divergence must too.
        assert!(err_at(0.1) < err_at(1.0));
    }

    #[test]
    fn fixed_calibration_matches_dynamic_when_ranges_agree() {
        let (q, k, v) = qkv(32, 8, 0.5, 82);
        let k_hat = crate::taylor::mean_center_keys(&k);
        let fixed = QuantizedTaylorKernel::new(Int8Calibration::Fixed {
            q_absmax: absmax(q.as_slice()),
            k_absmax: absmax(k_hat.as_slice()),
            v_absmax: absmax(v.as_slice()),
        });
        let dynamic = QuantizedTaylorKernel::new(Int8Calibration::Dynamic);
        assert_eq!(fixed.compute(&q, &k, &v), dynamic.compute(&q, &k, &v));
        // Undersized calibrated ranges saturate but stay finite.
        let clipped = QuantizedTaylorKernel::new(Int8Calibration::Fixed {
            q_absmax: 0.1,
            k_absmax: 0.1,
            v_absmax: 0.1,
        });
        assert!(clipped.compute(&q, &k, &v).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn labels_and_delegated_hooks() {
        let taylor = QuantizedTaylorKernel::new(Int8Calibration::Dynamic);
        assert_eq!(taylor.label(), "int8");
        assert_eq!(taylor.calibration(), Int8Calibration::Dynamic);
        assert_eq!(
            taylor.op_counts(64, 16).total(),
            TaylorAttention::new().op_counts(64, 16).total()
        );
        let (q, k, _) = qkv(16, 8, 0.8, 95);
        assert_eq!(taylor.sparse_occupancy(&q, &k), 0.0);
    }

    #[test]
    fn zero_inputs_produce_zero_finite_outputs() {
        let z = Matrix::zeros(5, 4);
        let out = QuantizedTaylorKernel::new(Int8Calibration::Dynamic).compute(&z, &z, &z);
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
