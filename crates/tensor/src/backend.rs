//! Pluggable dense-GEMM backends: a scalar reference and a cache-blocked, register-tiled,
//! parallel kernel.
//!
//! ViTALiTy's linear Taylor attention turns ViT inference into a stream of small dense
//! GEMMs (`G = K̂ᵀV` is only `d × d`, projections are `n × d × d`), so the quality of the
//! software model's matmul decides whether the repo's experiments run in milliseconds or
//! minutes. This module supplies the hot-path implementation behind every
//! [`Matrix`](crate::Matrix) product:
//!
//! * [`MatmulBackend::Naive`] — the textbook `i j k` scalar triple loop. Kept as the
//!   differential-testing reference and as the baseline the perf benches compare against.
//! * [`MatmulBackend::Blocked`] — a BLIS-style kernel: the operands are packed into
//!   panel buffers (`MC × KC` row panels of A, `KC × NC` column panels of B, zero-padded
//!   to the register tile), and an `MR × NR = 8 × 8` microkernel accumulates each output
//!   tile in registers over contiguous packed slices, which the compiler auto-vectorises.
//!   Row panels of the output are distributed over threads with rayon.
//! * [`MatmulBackend::Avx2`] — the same blocking structure with the hand-written
//!   AVX2/FMA microkernels from [`crate::simd`]: 256-bit FMA register tiles for f32 and
//!   a native `maddubs` i8×i8→i32 kernel for the integer product.
//!   The default wherever [`crate::simd::simd_available`] holds; elsewhere every call
//!   transparently degrades to the scalar blocked path.
//!
//! Three tiers, each with a job no other does: `Naive` is the differential reference
//! every other product is tested against; `Blocked` is the production path on every
//! host without AVX2+FMA and under `--cfg force_scalar` (and what an `Avx2` request
//! degrades to there); `Avx2` is the production path everywhere else.
//!
//! All backends serve all three access patterns the attention kernels need — `A·B`,
//! `A·Bᵀ` ([`Matrix::matmul_transpose_b`](crate::Matrix::matmul_transpose_b)) and `Aᵀ·B`
//! ([`Matrix::transpose_matmul`](crate::Matrix::transpose_matmul)) — by packing through a
//! layout accessor instead of materialising the transpose.
//!
//! # Integer GEMM: one reference, one production entry
//!
//! [`MatmulBackend::gemm_i8_into`] is the scalar widening loop every integer result is
//! differentially tested against. [`MatmulBackend::gemm_i8_fast_into`] is what the
//! int8 attention kernels call: it runs the native `maddubs` kernel when this backend
//! is [`MatmulBackend::Avx2`], the host has the features and neither operand holds
//! `-128` (an [`IntOperand`] marked [`IntOperand::clamped`] skips that scan), and
//! otherwise widens the operands into [`crate::Workspace`] scratch and runs the f32
//! kernel over reduction chunks of [`I8_EXACT_CHUNK`], where every partial sum is an
//! exactly representable integer. Both routes return the reference's bits.
//!
//! # Backend selection
//!
//! The process-wide default is [`MatmulBackend::Avx2`] when the host supports it (see
//! [`crate::cpu_features`]), else [`MatmulBackend::Blocked`]. It can be overridden with
//! the `VITALITY_MATMUL_BACKEND` environment variable (`naive`, `blocked` or `avx2`) or
//! at runtime with [`set_matmul_backend`]. Code that needs a *specific* backend
//! regardless of the global default (differential tests, benches) should use the
//! explicit `*_with` methods on [`Matrix`](crate::Matrix).
//!
//! # Adding a microkernel (worked example)
//!
//! The dispatch layer is deliberately thin, so a new instruction-set tier (say AVX-512,
//! or NEON on aarch64) is a four-step change — mirroring how [`MatmulBackend::Avx2`]
//! itself was added:
//!
//! 1. **Write the kernel pair** in `crates/tensor/src/simd.rs` behind a
//!    `#[cfg(all(target_arch = "...", not(force_scalar)))]` module: an `unsafe`
//!    `#[target_feature(...)]` register-tile microkernel consuming the packed k-major
//!    `MR`-wide / `NR`-wide panel layout (every packer writes *all* tile slots, so
//!    dirty reused scratch is safe), plus a blocked driver that packs into the
//!    thread-local [`crate::AlignedVec`] scratch. Every intrinsic block carries a
//!    `// SAFETY:` comment — the crate denies `unsafe_op_in_unsafe_fn`.
//! 2. **Gate it at runtime**: extend [`crate::CpuFeatures`] with the new flag(s),
//!    detect them in `cpu_features()`, and add a `<tier>_available()` predicate. The
//!    runtime check is what keeps the `unsafe` call sound on every host.
//! 3. **Teach the enum**: add the variant here, a `BACKEND_*` code for the atomic, a
//!    [`MatmulBackend::label`] string, an env-variable spelling in [`matmul_backend`]
//!    (unsupported hosts must `trace::warn!` and fall back, never panic), and a
//!    `MatmulBackend::dispatch` arm that degrades to the scalar blocked path when
//!    the runtime check fails — explicit `*_with(new_tier)` callers on old hardware
//!    still get correct answers.
//! 4. **Pin it differentially**: extend `crates/tensor/tests/simd_differential.rs`
//!    so the new kernel is compared against [`MatmulBackend::Naive`] (f32, within
//!    `1e-5`) and [`MatmulBackend::gemm_i8_into`] (integers, bit-identical) across
//!    shapes that straddle every remainder lane, and add the backend to the bench
//!    matrix in `bench_attention` so the win is tracked in `BENCH_attention.json`.
//!
//! # Blocking parameters
//!
//! | Constant | Value | Role |
//! |---|---|---|
//! | `MR × NR` | 8 × 8  | register tile: 64 scalar accumulators held in SIMD registers |
//! | `KC`      | 256    | depth of one packed panel (A panel stays in L1/L2) |
//! | `MC`      | 64     | rows per parallel work unit (one packed A panel per task) |
//! | `NC`      | 512    | columns per packed B panel (panel stays in L2/L3) |
//!
//! Products smaller than [`SMALL_GEMM_LIMIT`] scalar multiply-adds skip packing entirely
//! and run a cache-friendly `i k j` loop — per-head attention matrices in the unit tests
//! are a few hundred elements, where panel packing would cost more than it saves.

use rayon::prelude::*;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which dense-GEMM implementation [`Matrix`](crate::Matrix) products run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulBackend {
    /// Textbook scalar `i j k` triple loop — slow, obviously correct, single-threaded.
    Naive,
    /// Cache-blocked, packed, 8×8-register-tiled **scalar** kernel with rayon
    /// parallelism over row panels. The auto-vectorised baseline the SIMD tier is
    /// benchmarked against, and the default on hosts without AVX2/FMA.
    Blocked,
    /// The blocked structure with explicit AVX2/FMA microkernels ([`crate::simd`]):
    /// 256-bit FMA f32 register tiles and a native `maddubs` i8 path. The default
    /// when [`crate::simd::simd_available`] holds; on other hosts every call
    /// degrades to the scalar blocked kernel at runtime.
    Avx2,
}

/// Register tile height (rows of C accumulated per microkernel call).
pub const MR: usize = 8;
/// Register tile width (columns of C accumulated per microkernel call).
pub const NR: usize = 8;
/// Packed-panel depth: how many of the shared dimension's entries one panel holds.
pub const KC: usize = 256;
/// Rows of C per parallel work unit (multiple of [`MR`]).
pub const MC: usize = 64;
/// Columns per packed B panel (multiple of [`NR`]).
pub const NC: usize = 512;

/// Below this many scalar multiply-adds (`m * k * n`) the blocked backend skips packing
/// and runs a plain `i k j` loop instead.
pub const SMALL_GEMM_LIMIT: usize = 32 * 1024;

/// Reduction-chunk bound of [`MatmulBackend::gemm_i8_fast_into`]'s widened-f32 route:
/// the largest number of `i8 × i8` partial products whose sum cannot exceed `2²⁴`
/// (`1024 · 128² = 16 777 216`), i.e. stays exactly representable in `f32`.
pub const I8_EXACT_CHUNK: usize = 1024;

const BACKEND_UNSET: u8 = 0;
const BACKEND_NAIVE: u8 = 1;
const BACKEND_BLOCKED: u8 = 2;
const BACKEND_AVX2: u8 = 3;

static GLOBAL_BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNSET);

/// The backend the process defaults to on this host: [`MatmulBackend::Avx2`] when the
/// SIMD microkernels can run, else [`MatmulBackend::Blocked`].
fn default_backend() -> MatmulBackend {
    if crate::simd::simd_available() {
        MatmulBackend::Avx2
    } else {
        MatmulBackend::Blocked
    }
}

/// Returns the process-wide backend used by the implicit `Matrix` products.
///
/// Resolution order: the last [`set_matmul_backend`] call, else the
/// `VITALITY_MATMUL_BACKEND` environment variable (`naive` / `blocked` / `avx2`), else
/// [`MatmulBackend::Avx2`] where [`crate::simd::simd_available`] holds and
/// [`MatmulBackend::Blocked`] everywhere else.
///
/// An unrecognised `VITALITY_MATMUL_BACKEND` value — or `avx2` requested on a host
/// whose CPU lacks the features — does **not** abort the process: it logs a
/// `trace::warn!` and falls back. Long-lived serving processes resolve the backend
/// lazily on the first product of a request, and a typo in a deployment environment
/// must degrade to the default kernel, not kill the server. Harnesses that care about
/// the distinction should assert on [`matmul_backend`]'s return value (the *resolved*
/// backend, also surfaced in `/metrics` and the bench JSON) instead of trusting the
/// variable.
pub fn matmul_backend() -> MatmulBackend {
    match GLOBAL_BACKEND.load(Ordering::Relaxed) {
        BACKEND_NAIVE => MatmulBackend::Naive,
        BACKEND_BLOCKED => MatmulBackend::Blocked,
        BACKEND_AVX2 => MatmulBackend::Avx2,
        _ => {
            let resolved = match std::env::var("VITALITY_MATMUL_BACKEND") {
                Ok(value) => match value.as_str() {
                    "naive" => MatmulBackend::Naive,
                    "blocked" => MatmulBackend::Blocked,
                    "avx2" => {
                        if crate::simd::simd_available() {
                            MatmulBackend::Avx2
                        } else {
                            trace::warn!(
                                "VITALITY_MATMUL_BACKEND=avx2 requested but this host \
                                 has no AVX2/FMA support ({:?}); falling back to the \
                                 scalar blocked backend",
                                crate::simd::cpu_features()
                            );
                            MatmulBackend::Blocked
                        }
                    }
                    other => {
                        trace::warn!(
                            "unrecognised VITALITY_MATMUL_BACKEND value {other:?} \
                             (expected \"naive\", \"blocked\" or \"avx2\"); falling \
                             back to the default {} backend",
                            default_backend().label()
                        );
                        default_backend()
                    }
                },
                Err(_) => default_backend(),
            };
            set_matmul_backend(resolved);
            resolved
        }
    }
}

/// Sets the process-wide backend used by the implicit `Matrix` products.
///
/// Prefer the explicit `*_with` methods for differential testing — they do not touch
/// global state and are therefore safe under the parallel test harness.
pub fn set_matmul_backend(backend: MatmulBackend) {
    let code = match backend {
        MatmulBackend::Naive => BACKEND_NAIVE,
        MatmulBackend::Blocked => BACKEND_BLOCKED,
        MatmulBackend::Avx2 => BACKEND_AVX2,
    };
    GLOBAL_BACKEND.store(code, Ordering::Relaxed);
}

/// How a GEMM operand is laid out relative to the product being computed.
///
/// `RowMajor` reads element `(r, c)` at `data[r * stride + c]`; `Transposed` reads it at
/// `data[c * stride + r]`, i.e. the operand participates as its transpose without being
/// materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Operand participates as stored.
    RowMajor,
    /// Operand participates as its transpose.
    Transposed,
}

impl Layout {
    #[inline(always)]
    fn at(self, data: &[f32], stride: usize, r: usize, c: usize) -> f32 {
        match self {
            Layout::RowMajor => data[r * stride + c],
            Layout::Transposed => data[c * stride + r],
        }
    }
}

/// One GEMM operand: a flat buffer, its row stride, and how to index it.
#[derive(Debug, Clone, Copy)]
pub struct Operand<'a> {
    data: &'a [f32],
    stride: usize,
    layout: Layout,
}

impl<'a> Operand<'a> {
    /// A row-major operand with the given row stride (usually its column count).
    pub fn row_major(data: &'a [f32], stride: usize) -> Self {
        Self {
            data,
            stride,
            layout: Layout::RowMajor,
        }
    }

    /// An operand participating as the transpose of the given row-major buffer.
    pub fn transposed(data: &'a [f32], stride: usize) -> Self {
        Self {
            data,
            stride,
            layout: Layout::Transposed,
        }
    }

    #[inline(always)]
    pub(crate) fn at(&self, r: usize, c: usize) -> f32 {
        self.layout.at(self.data, self.stride, r, c)
    }
}

/// One integer GEMM operand: a flat `i8` buffer, its row stride, and how to index it —
/// the quantized sibling of [`Operand`], consumed by [`MatmulBackend::gemm_i8_into`]
/// and [`MatmulBackend::gemm_i8_fast_into`].
#[derive(Debug, Clone, Copy)]
pub struct IntOperand<'a> {
    data: &'a [i8],
    stride: usize,
    layout: Layout,
    clamped: bool,
}

impl<'a> IntOperand<'a> {
    /// A row-major `i8` operand with the given row stride (usually its column count).
    pub fn row_major(data: &'a [i8], stride: usize) -> Self {
        Self {
            data,
            stride,
            layout: Layout::RowMajor,
            clamped: false,
        }
    }

    /// An `i8` operand participating as the transpose of the given row-major buffer.
    pub fn transposed(data: &'a [i8], stride: usize) -> Self {
        Self {
            data,
            stride,
            layout: Layout::Transposed,
            clamped: false,
        }
    }

    /// Marks the buffer as the output of the ±127-saturating quantizer
    /// ([`crate::simd::quantize_i8`]), which cannot produce `-128` — the one value the
    /// `maddubs` kernel's `abs`/`sign` idiom cannot represent. The production GEMM then
    /// skips its `O(len)` domain scan of this operand, pure overhead on the attention
    /// hot path where every byte is clamped by construction.
    ///
    /// Marking a buffer that does hold `-128` yields incorrect *values* on the native
    /// route (the `_mm256_sign_epi8` negation wraps) but is memory-safe; debug builds
    /// re-check.
    pub fn clamped(mut self) -> Self {
        self.clamped = true;
        self
    }

    /// Whether every byte lies in the `maddubs` kernel's `[-127, 127]` domain.
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    fn in_native_domain(&self) -> bool {
        self.clamped || !self.data.contains(&i8::MIN)
    }

    #[inline(always)]
    pub(crate) fn at(&self, r: usize, c: usize) -> i8 {
        match self.layout {
            Layout::RowMajor => self.data[r * self.stride + c],
            Layout::Transposed => self.data[c * self.stride + r],
        }
    }

    /// The raw buffer, stride and layout — for the SIMD packers' branch-free
    /// full-tile copies, which index the flat buffer directly instead of paying a
    /// per-byte `at` bounds check.
    #[inline(always)]
    pub(crate) fn raw(&self) -> (&'a [i8], usize, Layout) {
        (self.data, self.stride, self.layout)
    }
}

impl MatmulBackend {
    /// Computes the `m × n` product `C = A · B` (with `A` logically `m × k` and `B`
    /// logically `k × n` after their layouts are applied) into a fresh buffer.
    pub fn gemm(self, m: usize, k: usize, n: usize, a: Operand<'_>, b: Operand<'_>) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        self.dispatch(&mut out, m, k, n, a, b);
        out
    }

    /// Computes the same product into a caller-provided buffer (the allocation-free
    /// entry point behind the `Matrix::*_into` methods and the [`crate::Workspace`]
    /// hot paths). The buffer is overwritten, not accumulated into.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != m * n`.
    pub fn gemm_into(
        self,
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        a: Operand<'_>,
        b: Operand<'_>,
    ) {
        assert_eq!(out.len(), m * n, "gemm_into output buffer length");
        out.fill(0.0);
        self.dispatch(out, m, k, n, a, b);
    }

    /// Integer GEMM **reference**: the `m × n` product of two quantized `i8` operands
    /// accumulated exactly into `i32` output elements (overwritten, not accumulated
    /// into) by a scalar widening `i k j` loop.
    ///
    /// Every partial product fits in `|a·b| ≤ 127² = 16129`, so the `i32` accumulator
    /// is exact for any shared dimension up to `k ≤ 2³¹ / 16129 ≈ 1.3·10⁵` — far
    /// beyond any token count this workspace serves; the bound is asserted. This form
    /// is kept as the obviously-correct differential baseline; hot paths should call
    /// [`MatmulBackend::gemm_i8_fast_into`], which produces bit-identical results at a
    /// multiple of the throughput (baseline x86-64 has no vector `i8 → i32` widening
    /// multiply, so this loop stays scalar).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != m * n` or `k` exceeds the exactness bound.
    pub fn gemm_i8_into(
        self,
        out: &mut [i32],
        m: usize,
        k: usize,
        n: usize,
        a: IntOperand<'_>,
        b: IntOperand<'_>,
    ) {
        assert_eq!(out.len(), m * n, "gemm_i8_into output buffer length");
        assert!(
            k <= (i32::MAX / (127 * 127)) as usize,
            "gemm_i8_into shared dimension {k} would overflow the i32 accumulator"
        );
        out.fill(0);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        for i in 0..m {
            let row = &mut out[i * n..(i + 1) * n];
            for kk in 0..k {
                let a_ik = i32::from(a.at(i, kk));
                if a_ik == 0 {
                    continue;
                }
                match b.layout {
                    // The hot case (the attention kernels feed row-major B): a
                    // contiguous slice zip, which auto-vectorises the widening
                    // multiply-add; the accessor-per-element form does not.
                    Layout::RowMajor => {
                        let b_row = &b.data[kk * b.stride..kk * b.stride + n];
                        for (o, &bv) in row.iter_mut().zip(b_row) {
                            *o += a_ik * i32::from(bv);
                        }
                    }
                    Layout::Transposed => {
                        for (j, o) in row.iter_mut().enumerate() {
                            *o += a_ik * i32::from(b.data[j * b.stride + kk]);
                        }
                    }
                }
            }
        }
    }

    /// Integer GEMM **production entry**: bit-identical to
    /// [`MatmulBackend::gemm_i8_into`] (`out` overwritten), on the fastest route this
    /// backend and host offer.
    ///
    /// * **Native** — when this is [`MatmulBackend::Avx2`], the host has AVX2/FMA and
    ///   neither operand holds `-128` ([`IntOperand::clamped`] operands are taken at
    ///   their word, others are scanned), the `maddubs` kernel multiplies the `i8`
    ///   operands directly with i32 accumulation: no widening, no chunking, no scratch.
    /// * **Widened f32** — otherwise the operands are widened into `f32` scratch from
    ///   `ws` and multiplied by this backend's ordinary float kernel. Every operand is
    ///   an integer of magnitude ≤ 128 and every partial sum over one reduction chunk
    ///   of [`I8_EXACT_CHUNK`] stays within `2²⁴`, so each f32 operation lands on an
    ///   exactly representable integer — the float pipeline *is* an integer
    ///   accumulator here. The exact per-chunk results accumulate in `i32`.
    ///
    /// On a warm workspace neither route allocates.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != m * n` or `k` exceeds the i32 exactness bound.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_i8_fast_into(
        self,
        out: &mut [i32],
        m: usize,
        k: usize,
        n: usize,
        a: IntOperand<'_>,
        b: IntOperand<'_>,
        ws: &mut crate::Workspace,
    ) {
        assert_eq!(out.len(), m * n, "gemm_i8_fast_into output buffer length");
        // The same exactness bound the scalar reference asserts: beyond it the i32
        // accumulation could wrap, silently breaking the bit-identical contract.
        assert!(
            k <= (i32::MAX / (127 * 127)) as usize,
            "gemm_i8_fast_into shared dimension {k} would overflow the i32 accumulator"
        );
        for operand in [&a, &b] {
            debug_assert!(
                !operand.clamped || !operand.data.contains(&i8::MIN),
                "operand marked clamped contains -128, outside the maddubs domain"
            );
        }
        #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
        if self == MatmulBackend::Avx2
            && crate::simd::simd_available()
            && a.in_native_domain()
            && b.in_native_domain()
        {
            crate::simd::gemm_i8_avx2(out, m, k, n, a, b);
            return;
        }
        out.fill(0);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let mut a_f = ws.take_vec(a.data.len());
        let mut b_f = ws.take_vec(b.data.len());
        let mut c_f = ws.take_vec(m * n);
        for (f, &iv) in a_f.iter_mut().zip(a.data) {
            *f = f32::from(iv);
        }
        for (f, &iv) in b_f.iter_mut().zip(b.data) {
            *f = f32::from(iv);
        }
        for lo in (0..k).step_by(I8_EXACT_CHUNK) {
            let kc = I8_EXACT_CHUNK.min(k - lo);
            // Offset the widened buffers so the sub-operand starts at reduction
            // index `lo` under either layout.
            let a_op = match a.layout {
                Layout::RowMajor => Operand::row_major(&a_f[lo..], a.stride),
                Layout::Transposed => Operand::transposed(&a_f[lo * a.stride..], a.stride),
            };
            let b_op = match b.layout {
                Layout::RowMajor => Operand::row_major(&b_f[lo * b.stride..], b.stride),
                Layout::Transposed => Operand::transposed(&b_f[lo..], b.stride),
            };
            self.gemm_into(&mut c_f, m, kc, n, a_op, b_op);
            for (o, &s) in out.iter_mut().zip(c_f.iter()) {
                *o += s as i32;
            }
        }
        ws.recycle_vec(a_f);
        ws.recycle_vec(b_f);
        ws.recycle_vec(c_f);
    }

    /// The stable lower-case name of this backend, as spelled in
    /// `VITALITY_MATMUL_BACKEND`, `/metrics` and `BENCH_attention.json`.
    pub fn label(self) -> &'static str {
        match self {
            MatmulBackend::Naive => "naive",
            MatmulBackend::Blocked => "blocked",
            MatmulBackend::Avx2 => "avx2",
        }
    }

    fn dispatch(
        self,
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        a: Operand<'_>,
        b: Operand<'_>,
    ) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        match self {
            MatmulBackend::Naive => gemm_naive(out, m, k, n, a, b),
            MatmulBackend::Blocked | MatmulBackend::Avx2 => {
                if m * k * n <= SMALL_GEMM_LIMIT {
                    // Per-head attention matrices in the unit tests and the tiny
                    // serving config land here: packing (for either blocked tier)
                    // would cost more than it saves.
                    gemm_small(out, m, k, n, a, b);
                    return;
                }
                #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
                if self == MatmulBackend::Avx2 && crate::simd::simd_available() {
                    crate::simd::gemm_f32_avx2(out, m, k, n, a, b);
                    return;
                }
                // Explicit Avx2 requests on unsupported hosts degrade to the scalar
                // blocked kernel — same results, no panic.
                gemm_blocked(out, m, k, n, a, b);
            }
        }
    }
}

/// Reference kernel: the textbook scalar triple loop, one dot product per output element.
fn gemm_naive(out: &mut [f32], m: usize, k: usize, n: usize, a: Operand<'_>, b: Operand<'_>) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.at(i, kk) * b.at(kk, j);
            }
            out[i * n + j] = acc;
        }
    }
}

/// Small-product fast path: `i k j` loop over the output rows, no packing.
fn gemm_small(out: &mut [f32], m: usize, k: usize, n: usize, a: Operand<'_>, b: Operand<'_>) {
    for i in 0..m {
        let row = &mut out[i * n..(i + 1) * n];
        for kk in 0..k {
            let a_ik = a.at(i, kk);
            for (j, o) in row.iter_mut().enumerate() {
                *o += a_ik * b.at(kk, j);
            }
        }
    }
}

/// The register-tiled inner kernel: accumulates an `MR × NR` tile of C over `kc` packed
/// depth steps. `ap` is k-major (`ap[kk * MR + i]`), `bp` is k-major (`bp[kk * NR + j]`);
/// both are zero-padded to the full tile, so the loop body is branch-free and the `j`
/// loop vectorises.
#[inline(always)]
fn microkernel(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let a: &[f32; MR] = a.try_into().expect("packed A tile width");
        let b: &[f32; NR] = b.try_into().expect("packed B tile width");
        for i in 0..MR {
            let a_i = a[i];
            for j in 0..NR {
                acc[i][j] += a_i * b[j];
            }
        }
    }
}

/// Packs `kc` depth steps of `count` consecutive A rows (starting at `r0`) into a
/// k-major `MR`-wide tile, zero-padding the row edge.
#[inline]
fn pack_a_tile(dst: &mut [f32], a: Operand<'_>, kc: usize, k0: usize, r0: usize, count: usize) {
    for kk in 0..kc {
        let row = &mut dst[kk * MR..kk * MR + MR];
        for (i, slot) in row.iter_mut().enumerate().take(count) {
            *slot = a.at(r0 + i, k0 + kk);
        }
    }
}

/// Packs `kc` depth steps of `count` consecutive B columns (starting at `j0`) into a
/// k-major `NR`-wide tile, zero-padding the column edge.
#[inline]
fn pack_b_tile(dst: &mut [f32], b: Operand<'_>, kc: usize, k0: usize, j0: usize, count: usize) {
    for kk in 0..kc {
        let row = &mut dst[kk * NR..kk * NR + NR];
        for (j, slot) in row.iter_mut().enumerate().take(count) {
            *slot = b.at(k0 + kk, j0 + j);
        }
    }
}

/// The blocked kernel: BLIS-style `jc → pc → (parallel) ic` loop nest with packed
/// panels and the 8×8 microkernel.
fn gemm_blocked(out: &mut [f32], m: usize, k: usize, n: usize, a: Operand<'_>, b: Operand<'_>) {
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let n_tiles = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);

            // Pack the B panel once per (jc, pc); every row-panel task reads it.
            let mut bp = vec![0.0f32; n_tiles * kc * NR];
            for (t, tile) in bp.chunks_exact_mut(kc * NR).enumerate() {
                let j0 = jc + t * NR;
                pack_b_tile(tile, b, kc, pc, j0, NR.min(n - j0));
            }

            // Row panels of C are independent: distribute them over threads.
            out.par_chunks_mut(MC * n)
                .enumerate()
                .for_each(|(panel, c_rows)| {
                    let i0 = panel * MC;
                    let mc = MC.min(m - i0);
                    let m_tiles = mc.div_ceil(MR);

                    let mut ap = vec![0.0f32; m_tiles * kc * MR];
                    for (t, tile) in ap.chunks_exact_mut(kc * MR).enumerate() {
                        let r0 = i0 + t * MR;
                        pack_a_tile(tile, a, kc, pc, r0, MR.min(m - r0));
                    }

                    for ti in 0..m_tiles {
                        let a_tile = &ap[ti * kc * MR..(ti + 1) * kc * MR];
                        let rows_here = MR.min(mc - ti * MR);
                        for tj in 0..n_tiles {
                            let b_tile = &bp[tj * kc * NR..(tj + 1) * kc * NR];
                            let mut acc = [[0.0f32; NR]; MR];
                            microkernel(a_tile, b_tile, &mut acc);

                            let j0 = jc + tj * NR;
                            let cols_here = NR.min(n - j0);
                            for (i, acc_row) in acc.iter().enumerate().take(rows_here) {
                                let c_row = &mut c_rows[(ti * MR + i) * n + j0..][..cols_here];
                                for (o, &v) in c_row.iter_mut().zip(acc_row.iter()) {
                                    *o += v;
                                }
                            }
                        }
                    }
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        let mut data = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                data[r * cols + c] = f(r, c);
            }
        }
        data
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// Pseudo-random but deterministic fill, large enough to exercise every edge path.
    fn entry(r: usize, c: usize) -> f32 {
        let h = (r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17))) % 97;
        h as f32 * 0.03 - 1.4
    }

    #[test]
    fn blocked_matches_naive_on_ragged_shapes() {
        // Shapes straddling every blocking boundary: below MR/NR, non-multiples of the
        // tile, non-multiples of MC/KC/NC, and above the small-product cutoff.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (9, 7, 10),
            (33, 65, 17),
            (70, 70, 70),
            (65, 300, 19),
            (128, 64, 130),
        ] {
            let a = dense(m, k, entry);
            let b = dense(k, n, |r, c| entry(c, r));
            let fast = MatmulBackend::Blocked.gemm(
                m,
                k,
                n,
                Operand::row_major(&a, k),
                Operand::row_major(&b, n),
            );
            let slow = MatmulBackend::Naive.gemm(
                m,
                k,
                n,
                Operand::row_major(&a, k),
                Operand::row_major(&b, n),
            );
            let diff = max_abs_diff(&fast, &slow);
            assert!(diff < 1e-3, "({m},{k},{n}) diverged by {diff}");
        }
    }

    #[test]
    fn transposed_layouts_match_materialised_transposes() {
        let (m, k, n) = (37, 41, 29);
        let a = dense(m, k, entry); // used as A (m x k)
        let at = dense(k, m, |r, c| entry(c, r)); // A^T stored row-major
        let b = dense(k, n, |r, c| entry(r + 3, c));
        let direct = MatmulBackend::Blocked.gemm(
            m,
            k,
            n,
            Operand::row_major(&a, k),
            Operand::row_major(&b, n),
        );
        // A supplied as the transpose of A^T.
        let via_t = MatmulBackend::Blocked.gemm(
            m,
            k,
            n,
            Operand::transposed(&at, m),
            Operand::row_major(&b, n),
        );
        assert!(max_abs_diff(&direct, &via_t) < 1e-4);
    }

    #[test]
    fn empty_dimensions_produce_zero_buffers() {
        let a: Vec<f32> = vec![];
        let out = MatmulBackend::Blocked.gemm(
            0,
            4,
            3,
            Operand::row_major(&a, 4),
            Operand::row_major(&[0.0; 12], 3),
        );
        assert!(out.is_empty());
        let out = MatmulBackend::Blocked.gemm(
            2,
            0,
            3,
            Operand::row_major(&a, 0),
            Operand::row_major(&a, 3),
        );
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn integer_gemm_matches_a_widening_reference_on_ragged_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (9, 7, 10),
            (33, 65, 17),
        ] {
            let a: Vec<i8> = (0..m * k).map(|i| ((i * 37 + 11) % 255) as i8).collect();
            let b: Vec<i8> = (0..k * n).map(|i| ((i * 53 + 7) % 255) as i8).collect();
            let mut expected = vec![0i32; m * n];
            for i in 0..m {
                for j in 0..n {
                    for kk in 0..k {
                        expected[i * n + j] += i32::from(a[i * k + kk]) * i32::from(b[kk * n + j]);
                    }
                }
            }
            for backend in [MatmulBackend::Naive, MatmulBackend::Blocked] {
                let mut out = vec![1i32; m * n];
                backend.gemm_i8_into(
                    &mut out,
                    m,
                    k,
                    n,
                    IntOperand::row_major(&a, k),
                    IntOperand::row_major(&b, n),
                );
                assert_eq!(out, expected, "({m},{k},{n}) diverged on {backend:?}");
            }
        }
    }

    #[test]
    fn fast_integer_gemm_is_bit_identical_to_the_scalar_reference() {
        // The widened-f32 route (scalar backends never take the native one). Shapes
        // straddling the small-product cutoff and the exactness chunk, including a
        // reduction longer than I8_EXACT_CHUNK at worst-case magnitudes (the
        // chunk-boundary stress for f32 integer exactness).
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (9, 7, 10),
            (33, 65, 17),
            (64, 196, 64),
            (8, I8_EXACT_CHUNK + 500, 8),
        ] {
            let a: Vec<i8> = (0..m * k)
                .map(|i| {
                    if i % 3 == 0 {
                        127
                    } else {
                        ((i * 37) % 255) as i8
                    }
                })
                .collect();
            let b: Vec<i8> = (0..k * n)
                .map(|i| {
                    if i % 5 == 0 {
                        -127
                    } else {
                        ((i * 53) % 255) as i8
                    }
                })
                .collect();
            let mut reference = vec![0i32; m * n];
            MatmulBackend::Blocked.gemm_i8_into(
                &mut reference,
                m,
                k,
                n,
                IntOperand::row_major(&a, k),
                IntOperand::row_major(&b, n),
            );
            let mut ws = crate::Workspace::new();
            for backend in [MatmulBackend::Naive, MatmulBackend::Blocked] {
                let mut fast = vec![7i32; m * n];
                backend.gemm_i8_fast_into(
                    &mut fast,
                    m,
                    k,
                    n,
                    IntOperand::row_major(&a, k),
                    IntOperand::row_major(&b, n),
                    &mut ws,
                );
                assert_eq!(fast, reference, "({m},{k},{n}) diverged on {backend:?}");
                // Transposed-A form (the attention kernels' G = K̂ᵀV shape).
                if m == n {
                    let mut via_t = vec![0i32; m * n];
                    let mut expected_t = vec![0i32; m * n];
                    MatmulBackend::Blocked.gemm_i8_into(
                        &mut expected_t,
                        m,
                        k,
                        n,
                        IntOperand::transposed(&a, m),
                        IntOperand::row_major(&b, n),
                    );
                    backend.gemm_i8_fast_into(
                        &mut via_t,
                        m,
                        k,
                        n,
                        IntOperand::transposed(&a, m),
                        IntOperand::row_major(&b, n),
                        &mut ws,
                    );
                    assert_eq!(via_t, expected_t, "transposed ({m},{k},{n}) diverged");
                }
            }
        }
    }

    #[test]
    fn integer_gemm_transposed_layout_matches_materialised_transpose() {
        let (m, k, n) = (6usize, 9usize, 5usize);
        // A^T stored row-major (k x m), participating as A.
        let at: Vec<i8> = (0..k * m).map(|i| ((i * 29 + 3) % 251) as i8).collect();
        let a: Vec<i8> = {
            let mut a = vec![0i8; m * k];
            for r in 0..m {
                for c in 0..k {
                    a[r * k + c] = at[c * m + r];
                }
            }
            a
        };
        let b: Vec<i8> = (0..k * n).map(|i| ((i * 41 + 13) % 251) as i8).collect();
        let mut direct = vec![0i32; m * n];
        let mut via_t = vec![0i32; m * n];
        MatmulBackend::Blocked.gemm_i8_into(
            &mut direct,
            m,
            k,
            n,
            IntOperand::row_major(&a, k),
            IntOperand::row_major(&b, n),
        );
        MatmulBackend::Blocked.gemm_i8_into(
            &mut via_t,
            m,
            k,
            n,
            IntOperand::transposed(&at, m),
            IntOperand::row_major(&b, n),
        );
        assert_eq!(direct, via_t);
    }

    #[test]
    fn backend_selection_round_trips() {
        let before = matmul_backend();
        set_matmul_backend(MatmulBackend::Naive);
        assert_eq!(matmul_backend(), MatmulBackend::Naive);
        set_matmul_backend(MatmulBackend::Blocked);
        assert_eq!(matmul_backend(), MatmulBackend::Blocked);
        set_matmul_backend(before);
    }
}
