//! Runtime CPU-feature detection and the explicit `std::arch` microkernels behind
//! [`MatmulBackend::Blocked`](crate::MatmulBackend::Blocked).
//!
//! The scalar 6×16 tile of the packed driver in [`crate::backend`] leans on the
//! auto-vectoriser, which on the baseline `x86-64` target means 128-bit SSE2 with
//! separate multiply and add. This module supplies hand-written kernels for the two
//! hot element types:
//!
//! * **f32** — two FMA register tiles for the packed driver, one per vector width,
//!   each `MR` = 6 rows tall with two vectors per tile row: twelve FMA accumulators;
//!   each depth step is two aligned loads from the packed B panel plus six broadcasts,
//!   read from A where it sits, feeding twelve FMAs. The AVX2/FMA tile is 6×16 in
//!   `ymm` registers; the AVX-512 tile is 6×32 in `zmm` registers, twice the columns
//!   per instruction. Both run one output element's FMA chain in `k` order, so they
//!   return identical bits.
//! * **i8** — the AVX2 integer dot-product idiom hardware PE arrays mirror: depth is
//!   processed four steps at a time with `_mm256_maddubs_epi16` (unsigned×signed byte
//!   multiply, pairwise i16 add) followed by `_mm256_madd_epi16` against ones to reach
//!   exact i32 lane sums, on an 8×8 tile of its own. Signedness is handled with the
//!   `abs`/`sign` trick (`|a| · (b · sign a) = a · b`), which is exact for all operand
//!   values in `[-127, 127]` — the callers in [`crate::backend`] guard the single
//!   excluded value `-128` (where `_mm256_sign_epi8`'s negation would wrap) and fall
//!   back to the scalar-exact path instead.
//!
//! The elementwise kernels further down (`tanh`/GELU/LayerNorm sweeps) take the
//! other route to the same hardware: no intrinsics, one plain-arithmetic body per
//! kernel compiled once for the baseline target and once per wider [`SimdTier`] under
//! `#[target_feature]`, bit-identical across all of them.
//!
//! Everything here is gated twice: at compile time on `target_arch = "x86_64"` plus the
//! `--cfg force_scalar` escape hatch (useful under Miri, which does not model the
//! intrinsics), and at runtime on [`cpu_features`] (cached
//! `is_x86_feature_detected!`), summarised as the host's [`SimdTier`]. Non-x86 and
//! feature-less hosts transparently keep the scalar tile and the widened int8 route.

use std::sync::OnceLock;

/// The instruction-set extensions the SIMD microkernels need, detected at runtime.
///
/// Surfaced in `/metrics` and the bench JSON so perf numbers are attributable to the
/// hardware they ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 256-bit integer + float vector ops (`_mm256_maddubs_epi16` and friends).
    pub avx2: bool,
    /// Fused multiply-add (`_mm256_fmadd_ps`).
    pub fma: bool,
    /// 512-bit foundation ops (`_mm512_fmadd_ps` and friends).
    pub avx512f: bool,
}

impl CpuFeatures {
    /// `true` when both extensions the AVX2 microkernels rely on are present.
    pub fn simd_ready(&self) -> bool {
        self.avx2 && self.fma
    }

    /// The widest [`SimdTier`] a host with these features runs in this build:
    /// [`SimdTier::Avx512`] needs `avx512f` on top of AVX2/FMA, so the tiers nest.
    pub fn tier(&self) -> SimdTier {
        if !cfg!(all(target_arch = "x86_64", not(force_scalar))) || !self.simd_ready() {
            SimdTier::Scalar
        } else if self.avx512f {
            SimdTier::Avx512
        } else {
            SimdTier::Avx2
        }
    }
}

/// An instruction-set tier the f32 kernels are compiled for: which register tile the
/// packed GEMM driver runs, and which instantiation the elementwise kernels that have
/// one per tier run. Ordered by width; a host that runs a tier runs every lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Plain Rust the compiler vectorises for the build target; runs everywhere.
    Scalar,
    /// 256-bit AVX2 + FMA.
    Avx2,
    /// 512-bit AVX-512F (on top of AVX2 + FMA).
    Avx512,
}

impl SimdTier {
    /// Every tier, narrowest first.
    pub const ALL: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512];

    /// The widest tier this host runs in this build: what the kernels dispatch to.
    pub fn host() -> Self {
        cpu_features().tier()
    }

    /// `true` when this host runs this tier in this build.
    pub fn available(self) -> bool {
        self <= Self::host()
    }

    /// The stable lower-case name, as reported by `/metrics` (`compute.f32_tile`).
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();

/// Detects (once, cached) the CPU features the SIMD backend needs.
///
/// The first call logs the outcome through `trace::info!` so serving logs record which
/// f32 tile the process dispatches to.
pub fn cpu_features() -> CpuFeatures {
    *FEATURES.get_or_init(|| {
        let f = detect();
        trace::info!(
            "cpu features: avx2={} fma={} avx512f={} — f32 tile {}",
            f.avx2,
            f.fma,
            f.avx512f,
            f.tier().label()
        );
        f
    })
}

/// `true` when the AVX2/FMA microkernels can run on this host and build
/// (`x86_64`, not `--cfg force_scalar`, and the CPU advertises both features).
pub fn simd_available() -> bool {
    SimdTier::Avx2.available()
}

#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
fn detect() -> CpuFeatures {
    CpuFeatures {
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        fma: std::arch::is_x86_feature_detected!("fma"),
        avx512f: std::arch::is_x86_feature_detected!("avx512f"),
    }
}

#[cfg(not(all(target_arch = "x86_64", not(force_scalar))))]
fn detect() -> CpuFeatures {
    CpuFeatures {
        avx2: false,
        fma: false,
        avx512f: false,
    }
}

#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
pub(crate) use x86::{gemm_i8_avx2, microkernel_f32, microkernel_f32_avx512};

/// Round-to-nearest-even magic constant (`1.5 · 2²³`): adding it pushes any value in
/// `[-2²², 2²²]` into the binade where one ulp is exactly 1, so the correctly rounded
/// integer falls out of the float add and can be read off the mantissa bits.
pub(crate) const MAGIC: f32 = 12_582_912.0;
pub(crate) const MAGIC_BITS: i32 = MAGIC.to_bits() as i32;

/// Largest absolute entry of a slice (`0.0` when empty). Finite inputs assumed — the
/// quantization calibration sweeps never see NaN/inf activations.
///
/// Dispatches to an AVX2 `vandnps`/`vmaxps` loop when the host supports it; the scalar
/// fallback keeps eight independent lane accumulators (an ordered `max`-fold is a
/// sequential dependency chain LLVM must keep scalar). Both forms compute the exact
/// same maximum — `max` is associative on finite floats.
pub fn absmax(xs: &[f32]) -> f32 {
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified the CPU advertises avx2.
        return unsafe { x86::absmax_avx2(xs) };
    }
    absmax_scalar(xs)
}

/// Scalar reference for [`absmax`] — public so differential tests can pin the SIMD
/// path against it on any host.
#[doc(hidden)]
pub fn absmax_scalar(xs: &[f32]) -> f32 {
    let chunks = xs.chunks_exact(8);
    let mut acc = chunks
        .remainder()
        .iter()
        .fold(0.0f32, |acc, &v| acc.max(v.abs()));
    let mut lanes = [0.0f32; 8];
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = lane.max(v.abs());
        }
    }
    for &lane in &lanes {
        acc = acc.max(lane);
    }
    acc
}

/// Quantizes `src` onto the symmetric int8 grid: `dst[i] = rne(clamp(src[i] · inv,
/// -127, 127))` with round-to-nearest-even via the `1.5 · 2²³` magic constant. Finite inputs
/// assumed. The AVX2 path and the scalar fallback run the identical IEEE op sequence
/// (multiply, clamp, magic add, mantissa extract) lane for lane, so the two are
/// bit-identical; the saturating `packs` narrowing in the SIMD path never engages
/// because the clamp already bounds every lane to `±127`.
///
/// # Panics
///
/// Panics when `src.len() != dst.len()`.
pub fn quantize_i8(src: &[f32], inv: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_i8 length mismatch");
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified the CPU advertises avx2.
        unsafe { x86::quantize_i8_avx2(src, inv, dst) };
        return;
    }
    quantize_i8_scalar(src, inv, dst);
}

/// Scalar reference for [`quantize_i8`] — public for differential tests.
#[doc(hidden)]
pub fn quantize_i8_scalar(src: &[f32], inv: f32, dst: &mut [i8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let shifted = (s * inv).clamp(-127.0, 127.0) + MAGIC;
        *d = (shifted.to_bits() as i32).wrapping_sub(MAGIC_BITS) as i8;
    }
}

/// [`quantize_i8`] without the int8 narrowing: writes the *lattice view* — the rounded
/// grid values still widened to f32 (`(clamp(src·inv) + MAGIC) - MAGIC`) — for
/// operands whose every downstream consumer is an f32 kernel. Same rounding, same
/// bit-identical SIMD/scalar guarantee.
///
/// # Panics
///
/// Panics when `src.len() != dst.len()`.
pub fn quantize_lattice(src: &[f32], inv: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "quantize_lattice length mismatch");
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified the CPU advertises avx2.
        unsafe { x86::quantize_lattice_avx2(src, inv, dst) };
        return;
    }
    quantize_lattice_scalar(src, inv, dst);
}

/// Scalar reference for [`quantize_lattice`] — public for differential tests.
#[doc(hidden)]
pub fn quantize_lattice_scalar(src: &[f32], inv: f32, dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = ((s * inv).clamp(-127.0, 127.0) + MAGIC) - MAGIC;
    }
}

/// Exact per-column i32 sums of a row-major `i8` matrix:
/// `out[c] = Σ_r data[r * cols + c]`. The integer-sum half of the quantized attention
/// aggregates (`k̂_sum`, `v_sum`), hoisted here so it can ride the AVX2 `vpmovsxbd`
/// widen-and-add path.
///
/// # Panics
///
/// Panics when `data.len()` is not a multiple of `out.len()` (`cols`), or `cols == 0`
/// while `data` is non-empty.
pub fn i8_column_sums(data: &[i8], out: &mut [i32]) {
    let cols = out.len();
    assert!(
        (cols == 0 && data.is_empty()) || (cols != 0 && data.len().is_multiple_of(cols)),
        "i8_column_sums: data length {} not a multiple of {cols} columns",
        data.len()
    );
    out.fill(0);
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() && cols >= 8 {
        // SAFETY: simd_available() verified the CPU advertises avx2.
        unsafe { x86::i8_column_sums_avx2(data, out) };
        return;
    }
    i8_column_sums_scalar(data, out);
}

/// Scalar reference for [`i8_column_sums`] — public for differential tests. Adds into
/// `out` without zeroing (the dispatcher zeroes).
#[doc(hidden)]
pub fn i8_column_sums_scalar(data: &[i8], out: &mut [i32]) {
    if out.is_empty() {
        return;
    }
    for row in data.chunks_exact(out.len()) {
        for (acc, &v) in out.iter_mut().zip(row) {
            *acc += i32::from(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Elementwise kernels: tanh / GELU / LayerNorm
// ---------------------------------------------------------------------------
//
// Unlike the sweeps above, these carry no intrinsics. Each kernel is one
// `#[inline(always)]` body of plain, branch-free f32 arithmetic (no `mul_add`, no
// libm call, reductions in an explicit fixed order), instantiated once per tier: a
// baseline instantiation the compiler vectorises for the build target (SSE2 on
// x86-64), a `#[target_feature(enable = "avx2")]` instantiation it vectorises eight
// lanes wide, and — for the GELU sweeps — an `avx512f` one it vectorises sixteen wide,
// selected by `SimdTier::host()`. All run the identical IEEE op sequence per element,
// so every tier — and `--cfg force_scalar`, which compiles the wider instantiations
// out — returns the same bits. `tests/simd_differential.rs` pins that on every
// remainder-lane length.
//
// Adding one: write the `*_body`, give it a dispatcher plus one instantiation per tier
// below (`*_on` when it has three, the `*_baseline` + `*_avx2` pair when it has two),
// and extend `elementwise_tiers_are_bit_identical_on_every_remainder_lane`. LayerNorm
// has no `avx512f` instantiation: its `lane_sum` fixes eight lanes, and a 16-wide
// build measured slower.

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_CUBIC: f32 = 0.044_715;

/// Where the rational `tanh` saturates: the 13/6 form below evaluates to exactly `1.0`
/// in f32 here and stays within `[-1, 1]` on every float below it (checked
/// exhaustively), so clamping to it makes large arguments return exactly `±1`.
const TANH_CLAMP: f32 = 7.905_311;

/// `tanh(x)` as a clamped degree-13 / degree-6 rational (odd numerator over even
/// denominator in `x²`, Horner form): ≤ 4.4e-7 absolute error against f64 `tanh`
/// over the whole line. NaN propagates (`clamp` keeps it), `±0` keeps its sign.
#[inline(always)]
fn tanh_rational(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let mut p = x2 * -2.760_768_5e-16 + 2.000_188e-13;
    p = x2 * p + -8.604_672e-11;
    p = x2 * p + 5.122_297_1e-8;
    p = x2 * p + 1.485_722_4e-5;
    p = x2 * p + 6.372_619_3e-4;
    p = x2 * p + 4.893_524_6e-3;
    let mut q = x2 * 1.198_258_4e-6 + 1.185_347_1e-4;
    q = x2 * q + 2.268_434_6e-3;
    q = x2 * q + 4.893_525e-3;
    x * p / q
}

/// GELU with the tanh approximation used by ViT implementations.
#[inline(always)]
fn gelu_value(x: f32) -> f32 {
    let inner = SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x);
    0.5 * x * (1.0 + tanh_rational(inner))
}

/// Derivative of [`gelu_value`].
#[inline(always)]
fn gelu_derivative(x: f32) -> f32 {
    let inner = SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x);
    let tanh = tanh_rational(inner);
    let sech2 = 1.0 - tanh * tanh;
    0.5 * (1.0 + tanh) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x)
}

#[inline(always)]
fn gelu_body(xs: &mut [f32]) {
    for v in xs {
        *v = gelu_value(*v);
    }
}

#[inline(always)]
fn bias_gelu_rows_body(data: &mut [f32], bias: &[f32]) {
    for row in data.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = gelu_value(*v + b);
        }
    }
}

#[inline(always)]
fn gelu_grad_mul_body(xs: &[f32], grad: &mut [f32]) {
    for (g, &x) in grad.iter_mut().zip(xs) {
        *g *= gelu_derivative(x);
    }
}

/// `Σ f(v)` over a row in a fixed order: eight strided lane accumulators (so the
/// adds vectorise without reassociation licence), combined by a fixed tree, then the
/// `len % 8` tail added in sequence.
#[inline(always)]
fn lane_sum(row: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let chunks = row.chunks_exact(8);
    let tail = chunks.remainder();
    let mut lanes = [0.0f32; 8];
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane += f(v);
        }
    }
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for &v in tail {
        acc += f(v);
    }
    acc
}

#[inline(always)]
fn layer_norm_rows_body(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    let d = gamma.len();
    for (row, out_row) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        let mean = lane_sum(row, |v| v) / d as f32;
        let var = lane_sum(row, |v| (v - mean) * (v - mean)) / d as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        for (((o, &v), &g), &b) in out_row.iter_mut().zip(row).zip(gamma).zip(beta) {
            *o = (v - mean) * inv_std * g + b;
        }
    }
}

/// GELU (tanh approximation) over a slice, in place. Max-abs error against the f64
/// formula is below `2e-6` on `[-12, 12]`; NaN → NaN, `+inf` → `+inf`, `-inf` → NaN
/// and `±0` → `±0`, exactly as the libm-`tanh` formula behaves.
pub fn gelu_inplace(xs: &mut [f32]) {
    gelu_inplace_on(SimdTier::host(), xs);
}

/// [`gelu_inplace`] on one tier's instantiation — public so differential tests can
/// pin every tier the host runs against the scalar one.
///
/// # Panics
///
/// Panics when this host does not run `tier`.
#[doc(hidden)]
pub fn gelu_inplace_on(tier: SimdTier, xs: &mut [f32]) {
    assert!(tier.available(), "this host does not run {tier:?}");
    match tier {
        // SAFETY: available() verified the CPU advertises avx512f (and avx2 + fma);
        // each tier is pinned to the scalar one by
        // simd_differential::elementwise_tiers_are_bit_identical_on_every_remainder_lane.
        #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
        SimdTier::Avx512 => unsafe { gelu_inplace_avx512(xs) },
        // SAFETY: available() verified the CPU advertises avx2 (and fma).
        #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
        SimdTier::Avx2 => unsafe { gelu_inplace_avx2(xs) },
        _ => gelu_body(xs),
    }
}

/// # Safety
///
/// CPU must support `avx2`.
#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
#[target_feature(enable = "avx2")]
unsafe fn gelu_inplace_avx2(xs: &mut [f32]) {
    gelu_body(xs);
}

/// # Safety
///
/// CPU must support `avx512f`.
#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
#[target_feature(enable = "avx512f")]
unsafe fn gelu_inplace_avx512(xs: &mut [f32]) {
    gelu_body(xs);
}

/// Fused `x W + b → GELU` epilogue: one sweep over row-major `data` (rows of
/// `bias.len()`) computing `gelu(data[r][j] + bias[j])` in place — the same bits as a
/// bias broadcast followed by [`gelu_inplace`], in one pass over memory instead of two.
///
/// # Panics
///
/// Panics when `data.len()` is not a multiple of `bias.len()`, or `bias` is empty
/// while `data` is not.
pub fn bias_gelu_rows(data: &mut [f32], bias: &[f32]) {
    if data.is_empty() {
        return;
    }
    assert!(
        !bias.is_empty() && data.len().is_multiple_of(bias.len()),
        "bias_gelu_rows: data length {} not a multiple of bias width {}",
        data.len(),
        bias.len()
    );
    bias_gelu_rows_on(SimdTier::host(), data, bias);
}

/// [`bias_gelu_rows`] on one tier's instantiation — public so differential tests can
/// pin every tier the host runs against the scalar one. `bias` must be non-empty.
///
/// # Panics
///
/// Panics when this host does not run `tier`.
#[doc(hidden)]
pub fn bias_gelu_rows_on(tier: SimdTier, data: &mut [f32], bias: &[f32]) {
    assert!(tier.available(), "this host does not run {tier:?}");
    match tier {
        // SAFETY: available() verified the CPU advertises avx512f (and avx2 + fma);
        // each tier is pinned to the scalar one by
        // simd_differential::elementwise_tiers_are_bit_identical_on_every_remainder_lane.
        #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
        SimdTier::Avx512 => unsafe { bias_gelu_rows_avx512(data, bias) },
        // SAFETY: available() verified the CPU advertises avx2 (and fma).
        #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
        SimdTier::Avx2 => unsafe { bias_gelu_rows_avx2(data, bias) },
        _ => bias_gelu_rows_body(data, bias),
    }
}

/// # Safety
///
/// CPU must support `avx2`.
#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
#[target_feature(enable = "avx2")]
unsafe fn bias_gelu_rows_avx2(data: &mut [f32], bias: &[f32]) {
    bias_gelu_rows_body(data, bias);
}

/// # Safety
///
/// CPU must support `avx512f`.
#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
#[target_feature(enable = "avx512f")]
unsafe fn bias_gelu_rows_avx512(data: &mut [f32], bias: &[f32]) {
    bias_gelu_rows_body(data, bias);
}

/// GELU backward sweep: `grad[i] *= gelu'(xs[i])`, sharing [`gelu_inplace`]'s `tanh`.
///
/// # Panics
///
/// Panics when `xs.len() != grad.len()`.
pub fn gelu_grad_mul(xs: &[f32], grad: &mut [f32]) {
    assert_eq!(xs.len(), grad.len(), "gelu_grad_mul length mismatch");
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified the CPU advertises avx2; this tier is
        // pinned to the baseline one by
        // simd_differential::elementwise_tiers_are_bit_identical_on_every_remainder_lane.
        return unsafe { gelu_grad_mul_avx2(xs, grad) };
    }
    gelu_grad_mul_baseline(xs, grad);
}

/// Baseline instantiation of [`gelu_grad_mul`] — public for differential tests.
#[doc(hidden)]
pub fn gelu_grad_mul_baseline(xs: &[f32], grad: &mut [f32]) {
    gelu_grad_mul_body(xs, grad);
}

/// # Safety
///
/// CPU must support `avx2`.
#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
#[target_feature(enable = "avx2")]
unsafe fn gelu_grad_mul_avx2(xs: &[f32], grad: &mut [f32]) {
    gelu_grad_mul_body(xs, grad);
}

/// Layer normalisation of every `gamma.len()`-wide row of row-major `x` into `out`:
/// `out[r][j] = (x[r][j] - mean_r) / sqrt(var_r + eps) · gamma[j] + beta[j]` with the
/// biased variance. The row reductions run in a fixed eight-lane order, so results
/// are within rounding (≤ 1e-6 at unit scale) of a sequential sum and identical on
/// every dispatch tier.
///
/// # Panics
///
/// Panics when `gamma`, `beta` widths or `x`, `out` lengths disagree, or `x.len()` is
/// not a multiple of the width.
pub fn layer_norm_rows(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(gamma.len(), beta.len(), "layer_norm_rows gamma/beta width");
    assert_eq!(x.len(), out.len(), "layer_norm_rows output length mismatch");
    if x.is_empty() {
        return;
    }
    assert!(
        !gamma.is_empty() && x.len().is_multiple_of(gamma.len()),
        "layer_norm_rows: data length {} not a multiple of width {}",
        x.len(),
        gamma.len()
    );
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified the CPU advertises avx2; this tier is
        // pinned to the baseline one by
        // simd_differential::layer_norm_kernel_tracks_the_sequential_loop_on_every_width.
        return unsafe { layer_norm_rows_avx2(x, gamma, beta, eps, out) };
    }
    layer_norm_rows_baseline(x, gamma, beta, eps, out);
}

/// Baseline instantiation of [`layer_norm_rows`] — public for differential tests.
/// Shapes as checked by the dispatcher.
#[doc(hidden)]
pub fn layer_norm_rows_baseline(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    layer_norm_rows_body(x, gamma, beta, eps, out);
}

/// # Safety
///
/// CPU must support `avx2`.
#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
#[target_feature(enable = "avx2")]
unsafe fn layer_norm_rows_avx2(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    layer_norm_rows_body(x, gamma, beta, eps, out);
}

#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
mod x86 {
    use crate::aligned::{AlignedVec, SIMD_ALIGN};
    use crate::backend::{tile_extent, IntOperand, Layout, MR, NR, NR_AVX512};
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    /// Alignment (bytes) the 256-bit aligned loads below need: one `ymm` register.
    /// [`SIMD_ALIGN`] is a whole cache line, so every `AlignedVec` base meets it.
    const YMM_ALIGN: usize = 32;
    const _: () = assert!(SIMD_ALIGN.is_multiple_of(YMM_ALIGN));

    /// Depth steps folded into one i32 lane per `maddubs`/`madd` pair.
    const KG: usize = 4;
    /// The int8 tile is 8 × 8, not the f32 tile's [`MR`] × [`NR`]: one packed B
    /// group (`NR_I8` columns × [`KG`] depth bytes) is exactly one `__m256i`, and the
    /// packers' 4×8 byte interleave is built for that width.
    const MR_I8: usize = 8;
    const NR_I8: usize = 8;

    std::thread_local! {
        // Packed-panel scratch, one cell per operand side: the driver packs A tiles
        // while it holds the B-panel borrow.
        static PANEL_A_I8: RefCell<AlignedVec<i8>> = RefCell::new(AlignedVec::new());
        static PANEL_B_I8: RefCell<AlignedVec<i8>> = RefCell::new(AlignedVec::new());
    }

    /// AVX2+FMA `MR × NR` = 6 × 16 f32 register tile for the packed driver in
    /// [`crate::backend`]: accumulates `kc` depth steps into `acc`. Each step is two
    /// aligned B-row loads and six broadcasts feeding twelve FMAs into twelve `ymm`
    /// accumulators (two per tile row), which leaves three of the sixteen registers
    /// for the operands. A is read where it sits: element `(i, kk)` of the tile is
    /// `a[i * rs + kk * ks]` — `(stride, 1)` for row-major A, `(1, stride)` for
    /// transposed A, `(1, MR)` for the packed ragged tile. `bp` is the packed k-major
    /// `NR`-wide B tile (the layout the scalar tile consumes), 32-byte aligned. Every
    /// lane is one output element's FMA chain in `k` order, as in
    /// [`microkernel_f32_avx512`], so the two tiles return identical bits.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports `avx2` and `fma` (checked via
    /// [`super::simd_available`] at the driver's tile selection), that `kc >= 1`,
    /// `a.len() >= tile_extent(rs, ks, kc)` (`(MR − 1)·rs + (kc − 1)·ks + 1`) and
    /// `bp.len() >= kc * NR`, with `bp` 32-byte aligned.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn microkernel_f32(
        a: &[f32],
        rs: usize,
        ks: usize,
        bp: &[f32],
        kc: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        // The loads and stores below address exactly two 8-lane halves per row.
        const { assert!(NR == 16) };
        debug_assert!(kc >= 1 && a.len() >= tile_extent(rs, ks, kc) && bp.len() >= kc * NR);
        debug_assert_eq!(bp.as_ptr() as usize % YMM_ALIGN, 0);
        let mut rows = [[_mm256_setzero_ps(); 2]; MR];
        let a = a.as_ptr();
        let b = bp.as_ptr();
        for kk in 0..kc {
            // SAFETY: the driver calls this tile only where simd_available() holds;
            // `kk < kc`, so both halves of the B row lie within bounds (len >=
            // kc * NR); the panel base is 32-byte aligned and each row is NR * 4 = 64
            // bytes, keeping both half-row starts aligned. Pinned on every tile edge
            // by simd_differential::f32_tiles_match_naive_within_1e5_on_all_remainder_lanes.
            let (b0, b1) = unsafe {
                (
                    _mm256_load_ps(b.add(kk * NR)),
                    _mm256_load_ps(b.add(kk * NR + 8)),
                )
            };
            for (i, row) in rows.iter_mut().enumerate() {
                // SAFETY: `i * rs + kk * ks <= (MR - 1) * rs + (kc - 1) * ks <
                // a.len()`, the extent the driver bounds-checks in safe code. Pinned
                // at exact-extent strided operands of both layouts by
                // simd_differential::f32_packed_driver_reads_a_in_place_within_its_extent.
                let av = unsafe { _mm256_broadcast_ss(&*a.add(i * rs + kk * ks)) };
                row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                row[1] = _mm256_fmadd_ps(av, b1, row[1]);
            }
        }
        for (dst, row) in acc.iter_mut().zip(rows) {
            // SAFETY: `dst` is a [f32; NR] — exactly the two 8-lane halves stored
            // (unaligned stores: the accumulator tile lives on the stack).
            unsafe {
                _mm256_storeu_ps(dst.as_mut_ptr(), row[0]);
                _mm256_storeu_ps(dst.as_mut_ptr().add(8), row[1]);
            }
        }
    }

    /// AVX-512F `MR × NR_AVX512` = 6 × 32 f32 register tile: [`microkernel_f32`] with
    /// `zmm` registers. Each depth step is two aligned B-row loads and six broadcasts
    /// feeding twelve FMAs into twelve `zmm` accumulators (two per tile row), 15 of the
    /// 32 registers. A is read exactly as the AVX2 tile reads it; `bp` is the packed
    /// k-major `NR_AVX512`-wide B tile, 64-byte aligned, so every load is one whole
    /// cache line. Every lane is one output element's FMA chain in `k` order, the
    /// chain the AVX2 tile runs, so the two tiles return identical bits.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports `avx512f` (checked via
    /// [`super::SimdTier::available`] at the driver's tile selection), that `kc >= 1`,
    /// `a.len() >= tile_extent(rs, ks, kc)` and `bp.len() >= kc * NR_AVX512`, with `bp`
    /// 64-byte aligned.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn microkernel_f32_avx512(
        a: &[f32],
        rs: usize,
        ks: usize,
        bp: &[f32],
        kc: usize,
        acc: &mut [[f32; NR_AVX512]; MR],
    ) {
        // The loads and stores below address exactly two 16-lane halves per row.
        const { assert!(NR_AVX512 == 32) };
        debug_assert!(kc >= 1 && a.len() >= tile_extent(rs, ks, kc) && bp.len() >= kc * NR_AVX512);
        debug_assert_eq!(bp.as_ptr() as usize % SIMD_ALIGN, 0);
        let mut rows = [[_mm512_setzero_ps(); 2]; MR];
        let a = a.as_ptr();
        let b = bp.as_ptr();
        for kk in 0..kc {
            // SAFETY: the driver calls this tile only where SimdTier::Avx512 is
            // available; `kk < kc`, so both halves of the B row lie within bounds (len
            // >= kc * NR_AVX512); the panel base is 64-byte aligned and each row is
            // NR_AVX512 * 4 = 128 bytes, keeping both half-row starts aligned. Pinned
            // on every tile edge by
            // simd_differential::f32_tiles_match_naive_within_1e5_on_all_remainder_lanes.
            let (b0, b1) = unsafe {
                (
                    _mm512_load_ps(b.add(kk * NR_AVX512)),
                    _mm512_load_ps(b.add(kk * NR_AVX512 + 16)),
                )
            };
            for (i, row) in rows.iter_mut().enumerate() {
                // SAFETY: `i * rs + kk * ks <= (MR - 1) * rs + (kc - 1) * ks <
                // a.len()`, the extent the driver bounds-checks in safe code. Pinned
                // at exact-extent strided operands of both layouts by
                // simd_differential::f32_packed_driver_reads_a_in_place_within_its_extent.
                let av = unsafe { _mm512_set1_ps(*a.add(i * rs + kk * ks)) };
                row[0] = _mm512_fmadd_ps(av, b0, row[0]);
                row[1] = _mm512_fmadd_ps(av, b1, row[1]);
            }
        }
        for (dst, row) in acc.iter_mut().zip(rows) {
            // SAFETY: `dst` is a [f32; NR_AVX512] — exactly the two 16-lane halves
            // stored (unaligned stores: the accumulator tile lives on the stack).
            unsafe {
                _mm512_storeu_ps(dst.as_mut_ptr(), row[0]);
                _mm512_storeu_ps(dst.as_mut_ptr().add(16), row[1]);
            }
        }
    }

    /// AVX2 `maddubs` integer microkernel: accumulates `groups` packed groups of
    /// [`KG`] depth steps into the `MR_I8 × NR_I8` i32 tile `acc`. Packed layouts (see
    /// [`pack_a_i8`]/[`pack_b_i8`]): per group, `ap` holds `MR_I8` rows × `KG`
    /// consecutive depth bytes, `bp` holds `NR_I8` columns × `KG` depth bytes — one
    /// 32-byte aligned `__m256i` per B group.
    ///
    /// Exactness: with every operand byte in `[-127, 127]`, each `maddubs` pair sum
    /// is bounded by `2 · 127² = 32 258 < i16::MAX`, so the saturating i16 add never
    /// saturates, and `madd_epi16` widens exactly to i32. The callers keep `-128`
    /// out (it would additionally wrap in `_mm256_sign_epi8`).
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`; `ap.len() >= groups * KG * MR_I8`,
    /// `bp.len() >= groups * KG * NR_I8`, both 32-byte aligned.
    #[target_feature(enable = "avx2")]
    unsafe fn microkernel_i8(ap: &[i8], bp: &[i8], groups: usize, acc: &mut [[i32; NR_I8]; MR_I8]) {
        debug_assert!(ap.len() >= groups * KG * MR_I8 && bp.len() >= groups * KG * NR_I8);
        debug_assert_eq!(ap.as_ptr() as usize % YMM_ALIGN, 0);
        debug_assert_eq!(bp.as_ptr() as usize % YMM_ALIGN, 0);
        let ones = _mm256_set1_epi16(1);
        let mut rows = [_mm256_setzero_si256(); MR_I8];
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        for g in 0..groups {
            // SAFETY: group `g` starts at byte `g * 32 < groups * KG * NR_I8 <= bp.len()`
            // and the panel base is 32-byte aligned, so every group load is aligned.
            let bv = unsafe { _mm256_load_si256(b.add(g * KG * NR_I8).cast::<__m256i>()) };
            for (i, row) in rows.iter_mut().enumerate() {
                // SAFETY: the four A bytes of (group g, row i) start at
                // `g * 32 + i * 4`, in bounds and 4-byte aligned off the 32-byte
                // aligned base.
                let aw = unsafe { a.add(g * KG * MR_I8 + i * KG).cast::<i32>().read() };
                let av = _mm256_set1_epi32(aw);
                let ua = _mm256_abs_epi8(av);
                let sb = _mm256_sign_epi8(bv, av);
                let pairs = _mm256_maddubs_epi16(ua, sb);
                *row = _mm256_add_epi32(*row, _mm256_madd_epi16(pairs, ones));
            }
        }
        for (dst, row) in acc.iter_mut().zip(rows) {
            // SAFETY: `dst` is a [i32; NR_I8] — exactly the 8 lanes stored.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast::<__m256i>(), row) };
        }
    }

    /// Interleaves four 8-byte depth rows into one packed 32-byte group:
    /// `dst[lane * KG + t] = row_t[lane]` — the exact scatter both i8 packers need
    /// per group, done with three `punpck` stages instead of 32 dependent byte
    /// stores. SSE2 only, which is baseline on every `x86_64` target.
    #[inline(always)]
    fn interleave_4x8(dst: &mut [i8], r0: &[i8], r1: &[i8], r2: &[i8], r3: &[i8]) {
        debug_assert!(dst.len() >= 32);
        debug_assert!(r0.len() >= 8 && r1.len() >= 8 && r2.len() >= 8 && r3.len() >= 8);
        // SAFETY: SSE2 is baseline on x86_64 (this module is compile-gated to it);
        // each `loadl` reads exactly the 8 asserted bytes, the two stores write the
        // 32 asserted destination bytes.
        unsafe {
            let v0 = _mm_loadl_epi64(r0.as_ptr().cast::<__m128i>());
            let v1 = _mm_loadl_epi64(r1.as_ptr().cast::<__m128i>());
            let v2 = _mm_loadl_epi64(r2.as_ptr().cast::<__m128i>());
            let v3 = _mm_loadl_epi64(r3.as_ptr().cast::<__m128i>());
            // ab = a0 b0 a1 b1 … a7 b7; cd likewise; the 16-bit unpacks then yield
            // a_j b_j c_j d_j quads in lane order — the packed group layout.
            let ab = _mm_unpacklo_epi8(v0, v1);
            let cd = _mm_unpacklo_epi8(v2, v3);
            let lo = _mm_unpacklo_epi16(ab, cd);
            let hi = _mm_unpackhi_epi16(ab, cd);
            let out = dst.as_mut_ptr();
            _mm_storeu_si128(out.cast::<__m128i>(), lo);
            _mm_storeu_si128(out.add(16).cast::<__m128i>(), hi);
        }
    }

    /// Packs `count` consecutive A rows into `groups` byte groups: group `g`, row
    /// `i`, depth offset `t` lands at `dst[g * KG * MR_I8 + i * KG + t]`. Edge rows and
    /// the depth tail beyond `k` are zeroed (zero products contribute nothing).
    ///
    /// Full `MR_I8`-row tiles over complete depth groups — the entire interior of any
    /// GEMM whose `m` is a multiple of 8 and `k` of 4, e.g. every attention head
    /// aggregate — take a branch-free [`interleave_4x8`]/`memcpy` path; only edge
    /// tiles and the depth tail pay the per-byte bounds/branch cost of the general
    /// path. On the `(d, n, d)` head shapes the packers are a measurable slice of
    /// the whole integer GEMM, so this is worth the two code paths.
    fn pack_a_i8(
        dst: &mut [i8],
        a: IntOperand<'_>,
        k: usize,
        groups: usize,
        r0: usize,
        count: usize,
    ) {
        let (data, stride, layout) = a.raw();
        let full = if count == MR_I8 { k / KG } else { 0 };
        match layout {
            // A[r, kk] = data[kk * stride + r]: each depth step is MR_I8 consecutive
            // source bytes scattered to stride-KG slots of the group block — the
            // 4×8 interleave.
            Layout::Transposed => {
                for g in 0..full {
                    let block = &mut dst[g * KG * MR_I8..(g + 1) * KG * MR_I8];
                    let row = |t: usize| &data[(g * KG + t) * stride + r0..][..MR_I8];
                    interleave_4x8(block, row(0), row(1), row(2), row(3));
                }
            }
            // A[r, kk] = data[r * stride + kk]: each row contributes KG consecutive
            // source bytes per group — a direct 4-byte copy.
            Layout::RowMajor => {
                for g in 0..full {
                    let block = &mut dst[g * KG * MR_I8..(g + 1) * KG * MR_I8];
                    for i in 0..MR_I8 {
                        let src = &data[(r0 + i) * stride + g * KG..][..KG];
                        block[i * KG..(i + 1) * KG].copy_from_slice(src);
                    }
                }
            }
        }
        for g in full..groups {
            let block = &mut dst[g * KG * MR_I8..(g + 1) * KG * MR_I8];
            for i in 0..MR_I8 {
                for t in 0..KG {
                    let kk = g * KG + t;
                    block[i * KG + t] = if i < count && kk < k {
                        a.at(r0 + i, kk)
                    } else {
                        0
                    };
                }
            }
        }
    }

    /// Packs `count` consecutive B columns into `groups` byte groups: group `g`,
    /// column `j`, depth offset `t` lands at `dst[g * KG * NR_I8 + j * KG + t]`.
    /// Same interior fast path / edge slow path split as [`pack_a_i8`].
    fn pack_b_i8(
        dst: &mut [i8],
        b: IntOperand<'_>,
        k: usize,
        groups: usize,
        j0: usize,
        count: usize,
    ) {
        let (data, stride, layout) = b.raw();
        let full = if count == NR_I8 { k / KG } else { 0 };
        match layout {
            // B[kk, j] = data[kk * stride + j]: each depth step is NR_I8 consecutive
            // source bytes scattered to stride-KG slots of the group block — the
            // 4×8 interleave.
            Layout::RowMajor => {
                for g in 0..full {
                    let block = &mut dst[g * KG * NR_I8..(g + 1) * KG * NR_I8];
                    let row = |t: usize| &data[(g * KG + t) * stride + j0..][..NR_I8];
                    interleave_4x8(block, row(0), row(1), row(2), row(3));
                }
            }
            // B[kk, j] = data[j * stride + kk]: each column contributes KG
            // consecutive source bytes per group — a direct 4-byte copy.
            Layout::Transposed => {
                for g in 0..full {
                    let block = &mut dst[g * KG * NR_I8..(g + 1) * KG * NR_I8];
                    for j in 0..NR_I8 {
                        let src = &data[(j0 + j) * stride + g * KG..][..KG];
                        block[j * KG..(j + 1) * KG].copy_from_slice(src);
                    }
                }
            }
        }
        for g in full..groups {
            let block = &mut dst[g * KG * NR_I8..(g + 1) * KG * NR_I8];
            for j in 0..NR_I8 {
                for t in 0..KG {
                    let kk = g * KG + t;
                    block[j * KG + t] = if j < count && kk < k {
                        b.at(kk, j0 + j)
                    } else {
                        0
                    };
                }
            }
        }
    }

    /// AVX2 absmax sweep: `vandnps` abs + `vmaxps` accumulate, eight lanes wide.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn absmax_avx2(xs: &[f32]) -> f32 {
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        let chunks = xs.chunks_exact(8);
        let mut m = chunks
            .remainder()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()));
        for chunk in chunks {
            // SAFETY: each exact chunk holds 8 contiguous f32s.
            let v = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
            acc = _mm256_max_ps(acc, _mm256_andnot_ps(sign, v));
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is exactly the 8 stored f32 lanes (stack, unaligned store).
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
        for &lane in &lanes {
            m = m.max(lane);
        }
        m
    }

    /// AVX2 int8 quantization sweep: 32 floats per iteration — four
    /// multiply/clamp/magic-round vectors narrowed with two saturating `packs` stages
    /// and one cross-lane permute. The saturation never engages (the clamp bounds
    /// every lane to ±127), so the result is bit-identical to the scalar loop.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`; `src.len() == dst.len()` (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn quantize_i8_avx2(src: &[f32], inv: f32, dst: &mut [i8]) {
        debug_assert_eq!(src.len(), dst.len());
        let invv = _mm256_set1_ps(inv);
        let lo = _mm256_set1_ps(-127.0);
        let hi = _mm256_set1_ps(127.0);
        let magic = _mm256_set1_ps(super::MAGIC);
        let magic_bits = _mm256_set1_epi32(super::MAGIC_BITS);
        // packs_epi32 + packs_epi16 interleave 128-bit lanes; this permute restores
        // source order (dword g of the packed result came from input vector g % 4's
        // half g / 4).
        let unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let n = src.len();
        let s = src.as_ptr();
        let d = dst.as_mut_ptr();
        for b in 0..n / 32 {
            let mut q = [_mm256_setzero_si256(); 4];
            for (t, qt) in q.iter_mut().enumerate() {
                // SAFETY: `b * 32 + t * 8 + 7 < 32 * (n / 32) <= n`.
                let x = unsafe { _mm256_loadu_ps(s.add(b * 32 + t * 8)) };
                let y = _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(x, invv), lo), hi);
                *qt = _mm256_sub_epi32(_mm256_castps_si256(_mm256_add_ps(y, magic)), magic_bits);
            }
            let p01 = _mm256_packs_epi32(q[0], q[1]);
            let p23 = _mm256_packs_epi32(q[2], q[3]);
            let packed = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p01, p23), unshuffle);
            // SAFETY: the 32 output bytes at `b * 32` are within `dst`.
            unsafe { _mm256_storeu_si256(d.add(b * 32).cast::<__m256i>(), packed) };
        }
        for i in (n / 32) * 32..n {
            let shifted = (src[i] * inv).clamp(-127.0, 127.0) + super::MAGIC;
            dst[i] = (shifted.to_bits() as i32).wrapping_sub(super::MAGIC_BITS) as i8;
        }
    }

    /// AVX2 lattice quantization sweep: multiply/clamp, magic add then subtract —
    /// the rounded grid value kept widened in f32.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`; `src.len() == dst.len()` (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn quantize_lattice_avx2(src: &[f32], inv: f32, dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let invv = _mm256_set1_ps(inv);
        let lo = _mm256_set1_ps(-127.0);
        let hi = _mm256_set1_ps(127.0);
        let magic = _mm256_set1_ps(super::MAGIC);
        let n = src.len();
        let s = src.as_ptr();
        let d = dst.as_mut_ptr();
        for i in 0..n / 8 {
            // SAFETY: `i * 8 + 7 < 8 * (n / 8) <= n` for both load and store.
            let x = unsafe { _mm256_loadu_ps(s.add(i * 8)) };
            let y = _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(x, invv), lo), hi);
            let z = _mm256_sub_ps(_mm256_add_ps(y, magic), magic);
            unsafe { _mm256_storeu_ps(d.add(i * 8), z) };
        }
        for i in (n / 8) * 8..n {
            dst[i] = ((src[i] * inv).clamp(-127.0, 127.0) + super::MAGIC) - super::MAGIC;
        }
    }

    /// AVX2 i8 column sums: `vpmovsxbd` widen plus i32 vector add, with up to eight
    /// register accumulators (64 columns) per pass over the rows. Adds into `out`
    /// (the dispatcher zeroes it), so multi-pass wide matrices compose.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`; `data.len()` must be a multiple of `out.len() >= 8`
    /// (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn i8_column_sums_avx2(data: &[i8], out: &mut [i32]) {
        let cols = out.len();
        let rows = data.len() / cols;
        let simd_cols = cols - cols % 8;
        let mut c0 = 0;
        while c0 < simd_cols {
            let nblk = ((simd_cols - c0) / 8).min(8);
            let mut acc = [_mm256_setzero_si256(); 8];
            for r in 0..rows {
                let base = r * cols + c0;
                for (b, accb) in acc.iter_mut().take(nblk).enumerate() {
                    // SAFETY: `base + b * 8 + 8 <= r * cols + simd_cols <=
                    // data.len()` — each load reads 8 in-bounds bytes.
                    let v = unsafe {
                        _mm_loadl_epi64(data.as_ptr().add(base + b * 8).cast::<__m128i>())
                    };
                    *accb = _mm256_add_epi32(*accb, _mm256_cvtepi8_epi32(v));
                }
            }
            for (b, accb) in acc.iter().take(nblk).enumerate() {
                // SAFETY: `out[c0 + b * 8..][..8]` is in bounds (`c0 + nblk * 8 <=
                // simd_cols <= cols`); unaligned load/store pair accumulates.
                unsafe {
                    let dst = out.as_mut_ptr().add(c0 + b * 8).cast::<__m256i>();
                    _mm256_storeu_si256(dst, _mm256_add_epi32(_mm256_loadu_si256(dst), *accb));
                }
            }
            c0 += nblk * 8;
        }
        if simd_cols < cols {
            for row in data.chunks_exact(cols) {
                for (acc, &v) in out[simd_cols..].iter_mut().zip(&row[simd_cols..]) {
                    *acc += i32::from(v);
                }
            }
        }
    }

    /// The AVX2 native int8 driver: packs both operands into aligned byte panels and
    /// runs the `maddubs` microkernel, writing exact i32 products into `out`
    /// (overwritten). No depth chunking is needed — integer accumulation is exact up
    /// to the `k ≤ i32::MAX / 127²` bound the callers assert.
    ///
    /// Caller contract: [`super::simd_available`] returned `true`, and **no operand
    /// byte is `-128`** (see [`microkernel_i8`]); `out.len() == m * n`.
    pub(crate) fn gemm_i8_avx2(
        out: &mut [i32],
        m: usize,
        k: usize,
        n: usize,
        a: IntOperand<'_>,
        b: IntOperand<'_>,
    ) {
        out.fill(0);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let groups = k.div_ceil(KG);
        let n_tiles = n.div_ceil(NR_I8);
        let m_tiles = m.div_ceil(MR_I8);
        PANEL_B_I8.with(|b_cell| {
            let mut bp = b_cell.borrow_mut();
            // Both packers write every slot of their tiles, so neither panel is
            // cleared when its allocation is reused.
            bp.reset_uncleared(n_tiles * groups * KG * NR_I8);
            for (t, tile) in bp.chunks_exact_mut(groups * KG * NR_I8).enumerate() {
                let j0 = t * NR_I8;
                pack_b_i8(tile, b, k, groups, j0, NR_I8.min(n - j0));
            }
            PANEL_A_I8.with(|a_cell| {
                let mut ap = a_cell.borrow_mut();
                ap.reset_uncleared(groups * KG * MR_I8);
                for ti in 0..m_tiles {
                    let r0 = ti * MR_I8;
                    let rows_here = MR_I8.min(m - r0);
                    pack_a_i8(&mut ap, a, k, groups, r0, rows_here);
                    for (tj, b_tile) in bp.chunks_exact(groups * KG * NR_I8).enumerate() {
                        let mut acc = [[0i32; NR_I8]; MR_I8];
                        // SAFETY: simd_available() gated the dispatch (avx2 present);
                        // panels hold exactly groups*KG*{MR_I8,NR_I8} bytes at 32-byte
                        // aligned bases (AlignedVec, 32-byte group stride).
                        unsafe { microkernel_i8(&ap, b_tile, groups, &mut acc) };

                        let j0 = tj * NR_I8;
                        let cols_here = NR_I8.min(n - j0);
                        for (i, acc_row) in acc.iter().enumerate().take(rows_here) {
                            let c_row = &mut out[(r0 + i) * n + j0..][..cols_here];
                            c_row.copy_from_slice(&acc_row[..cols_here]);
                        }
                    }
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_detection_is_cached_and_consistent() {
        let first = cpu_features();
        let second = cpu_features();
        assert_eq!(first, second);
        assert_eq!(simd_available(), {
            cfg!(all(target_arch = "x86_64", not(force_scalar))) && first.simd_ready()
        });
    }

    #[test]
    fn rational_tanh_saturates_exactly_and_keeps_nan_and_signed_zero() {
        assert_eq!(tanh_rational(TANH_CLAMP), 1.0);
        assert_eq!(tanh_rational(f32::INFINITY), 1.0);
        assert_eq!(tanh_rational(f32::NEG_INFINITY), -1.0);
        assert!(tanh_rational(f32::NAN).is_nan());
        assert_eq!(tanh_rational(-0.0).to_bits(), (-0.0f32).to_bits());
        for x in [-3.0f32, -0.5, 1e-3, 0.9, 5.0] {
            assert!((f64::from(tanh_rational(x)) - f64::from(x).tanh()).abs() < 5e-7);
        }
    }

    #[test]
    fn simd_ready_requires_both_features() {
        let f = |avx2, fma| CpuFeatures {
            avx2,
            fma,
            avx512f: false,
        };
        assert!(f(true, true).simd_ready());
        assert!(!f(true, false).simd_ready());
        assert!(!f(false, true).simd_ready());
    }

    #[test]
    fn the_avx512_tier_needs_avx2_and_fma_as_well() {
        let simd_build = cfg!(all(target_arch = "x86_64", not(force_scalar)));
        let tier = |avx2, fma, avx512f| CpuFeatures { avx2, fma, avx512f }.tier();
        let (avx2, avx512) = if simd_build {
            (SimdTier::Avx2, SimdTier::Avx512)
        } else {
            (SimdTier::Scalar, SimdTier::Scalar)
        };
        assert_eq!(tier(true, true, true), avx512);
        assert_eq!(tier(true, true, false), avx2);
        assert_eq!(tier(false, true, true), SimdTier::Scalar);
        assert_eq!(tier(true, false, true), SimdTier::Scalar);
        assert_eq!(tier(false, false, false), SimdTier::Scalar);
        assert_eq!(SimdTier::host(), cpu_features().tier());
        for t in SimdTier::ALL {
            assert_eq!(t.available(), t <= SimdTier::host(), "{t:?}");
        }
        assert!(SimdTier::Scalar.available());
    }
}
