//! Pluggable dense-GEMM backends: a scalar reference and one cache-blocked,
//! register-tiled, parallel packed driver.
//!
//! ViTALiTy's linear Taylor attention turns ViT inference into a stream of small dense
//! GEMMs (`G = K̂ᵀV` is only `d × d`, projections are `n × d × d`), so the quality of the
//! software model's matmul decides whether the repo's experiments run in milliseconds or
//! minutes. This module supplies the hot-path implementation behind every
//! [`Matrix`](crate::Matrix) product, in two tiers, each with a job the other cannot do:
//!
//! * [`MatmulBackend::Naive`] — the textbook `i j k` scalar triple loop: the
//!   differential reference every other product is tested against, and the baseline
//!   `bench_attention` compares the production tier with.
//! * [`MatmulBackend::Blocked`] — the production tier, a BLIS-style packed driver: B
//!   is packed into a thread-local aligned buffer (`KC × NC` column panels,
//!   zero-padded to the register tile), while A is read where it sits through a row
//!   and a depth stride — only a product's ragged last row tile (fewer than `MR`
//!   rows) is packed, zero-padded, beside the B panel. An `MR`-row register-tile
//!   microkernel accumulates each output tile; the first `KC` panel stores it into
//!   C and later panels add into it, so C needs no zero fill. The tile is the
//!   host's [`SimdTier`]: the 6 × 32 AVX-512 one from
//!   [`crate::simd`] where the host has `avx512f`, else the 6 × 16 AVX2/FMA one
//!   where it has those, else a 6 × 16 scalar tile the compiler auto-vectorises;
//!   the driver picks it once per product. `MC`-row panels of the output are
//!   distributed over threads with [`crate::parallel::for_each_chunk_mut`]. Each
//!   output element is one `k`-ordered chain of multiply-adds per `KC` panel
//!   whatever the tile's shape or where its A operand is read from, so neither
//!   changes a result bit: the two FMA tiles return identical bits, and only the
//!   scalar tile, which rounds each product before adding it, differs from them.
//!
//! Both tiers serve all three access patterns the attention kernels need — `A·B`,
//! `A·Bᵀ` ([`Matrix::matmul_transpose_b`](crate::Matrix::matmul_transpose_b)) and `Aᵀ·B`
//! ([`Matrix::transpose_matmul`](crate::Matrix::transpose_matmul)) — through a layout
//! accessor (B's packer, A's strides) instead of materialising the transpose.
//!
//! # Integer GEMM: one reference, one production entry
//!
//! [`MatmulBackend::gemm_i8_into`] is the scalar widening loop every integer result is
//! differentially tested against. [`MatmulBackend::gemm_i8_fast_into`] is what the
//! int8 attention kernels call: it runs the native `maddubs` kernel when this backend
//! is [`MatmulBackend::Blocked`], the host has the features and neither operand holds
//! `-128` (an [`IntOperand`] marked [`IntOperand::clamped`] skips that scan), and
//! otherwise widens the operands into [`crate::Workspace`] scratch and runs the f32
//! kernel over reduction chunks of [`I8_EXACT_CHUNK`], where every partial sum is an
//! exactly representable integer. Both routes return the reference's bits.
//!
//! # Backend selection
//!
//! The process-wide default is [`MatmulBackend::Blocked`] on every host. It can be
//! overridden with the `VITALITY_MATMUL_BACKEND` environment variable (`naive` or
//! `blocked`) or at runtime with [`set_matmul_backend`]. Code that needs a *specific*
//! backend regardless of the global default (differential tests, benches) calls
//! [`MatmulBackend::gemm`] on it directly.
//!
//! # Adding a microkernel (worked example)
//!
//! A new instruction-set tier (say NEON on aarch64) is a new tile for the one driver,
//! not a new backend — four steps, mirroring how the AVX-512 tile was added:
//!
//! 1. **Write a tile with the driver's signature** in `crates/tensor/src/simd.rs`
//!    behind a `#[cfg(all(target_arch = "...", not(force_scalar)))]` module: an
//!    `unsafe` `#[target_feature(...)]` function
//!    `(a, rs, ks, bp, kc, &mut [[f32; W]; MR])` accumulating `kc` depth steps of an
//!    `MR × W` tile, where the width `W` is the tile's own (16 for the scalar and
//!    AVX2 tiles, [`NR_AVX512`] = 32 for the AVX-512 one; it must divide `NC`): A's
//!    tile element `(i, kk)` is `a[i * rs + kk * ks]` — row-major A passes
//!    `(stride, 1)`, transposed A `(1, stride)`, the packed ragged tile `(1, MR)` —
//!    and `a` covers exactly `tile_extent(rs, ks, kc)` elements; `bp` is the packed
//!    k-major `W`-wide B tile (every packer writes *all* tile slots, so dirty reused
//!    scratch is safe; the panel base is [`crate::SIMD_ALIGN`] = 64-byte aligned and
//!    a B row is `4·W` bytes). `MR` is shared by every tile. Every intrinsic block
//!    carries a `// SAFETY:` comment — the crate denies `unsafe_op_in_unsafe_fn`.
//! 2. **Gate it at runtime**: extend [`crate::CpuFeatures`] with the new flag(s),
//!    detect them in `cpu_features()`, and give [`crate::SimdTier`] a variant that
//!    `CpuFeatures::tier` returns where the flags are present. The runtime check is
//!    what keeps the `unsafe` call sound on every host.
//! 3. **Add it to the driver's one selection point**, `gemm_packed` below: one more
//!    match arm handing the tile, with its width, to the driver.
//! 4. **Pin it differentially** in `crates/tensor/tests/simd_differential.rs`: the
//!    direct driver entry [`gemm_packed_direct`] runs every tile the host has on
//!    every `SPAN` shape against [`MatmulBackend::Naive`] (within `1e-5`), and bit
//!    for bit on exact-extent strided operands of both A layouts (run under ASan in
//!    CI); add the tile's width ± 1 to `SPAN`.
//!
//! # Blocking parameters
//!
//! | Constant | Value | Role |
//! |---|---|---|
//! | `MR`      | 6      | f32 register-tile height, shared by every tile |
//! | [`NR`]    | 16     | scalar and AVX2/FMA tile width: 96 accumulators in twelve 256-bit registers |
//! | [`NR_AVX512`] | 32 | AVX-512 tile width: 192 accumulators in twelve 512-bit registers |
//! | `KC`      | 256    | depth of one B panel (a tile's `MR × KC` A rows stay in L1) |
//! | `MC`      | 72     | rows of C per parallel work unit (multiple of `MR`) |
//! | `NC`      | 512    | columns per packed B panel (panel stays in L2/L3; multiple of both widths) |
//!
//! The 6 × 16 shape is the BLIS Haswell one: per depth step, two B loads and six
//! broadcasts feed twelve FMAs, where a square 8 × 8 tile needs nine loads per eight.
//! The 6 × 32 tile is the same schedule in registers twice as wide. These constants
//! are the f32 driver's only; the int8 `maddubs` kernel in
//! [`crate::simd`] keeps its own 8 × 8 tile, whose packed B group of 8 columns × 4
//! depth bytes is exactly one 256-bit register.
//!
//! Products smaller than [`SMALL_GEMM_LIMIT`] scalar multiply-adds skip packing entirely
//! and run a cache-friendly `i k j` loop — per-head attention matrices in the unit tests
//! are a few hundred elements, where panel packing would cost more than it saves.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::aligned::AlignedVec;
use crate::parallel::for_each_chunk_mut;
use crate::simd::SimdTier;

/// Which dense-GEMM implementation [`Matrix`](crate::Matrix) products run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulBackend {
    /// Textbook scalar `i j k` triple loop — slow, obviously correct, single-threaded.
    Naive,
    /// The packed, cache-blocked, register-tiled driver with parallelism over row
    /// panels, on the host's [`SimdTier`] tile (6×32 AVX-512, 6×16
    /// AVX2/FMA or 6×16 scalar); also the native `maddubs` int8 route. The default.
    Blocked,
}

/// f32 register tile height (rows of C accumulated per microkernel call).
pub const MR: usize = 6;
/// f32 register tile width (columns of C accumulated per microkernel call) of the
/// scalar and AVX2/FMA tiles: two 256-bit vectors.
pub const NR: usize = 16;
/// f32 register tile width of the AVX-512 tile: two 512-bit vectors.
pub const NR_AVX512: usize = 32;
/// Packed-panel depth: how many of the shared dimension's entries one panel holds.
pub const KC: usize = 256;
/// Rows of C per parallel work unit (multiple of [`MR`]).
pub const MC: usize = 72;
/// Columns per packed B panel (multiple of [`NR`] and [`NR_AVX512`]).
pub const NC: usize = 512;
const _: () = assert!(NC.is_multiple_of(NR) && NC.is_multiple_of(NR_AVX512));

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

static GLOBAL_BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNSET);

/// Returns the process-wide backend used by the implicit `Matrix` products.
///
/// Resolution order: the last [`set_matmul_backend`] call, else the
/// `VITALITY_MATMUL_BACKEND` environment variable (`naive` / `blocked`), else
/// [`MatmulBackend::Blocked`].
///
/// An unrecognised `VITALITY_MATMUL_BACKEND` value does **not** abort the process: it
/// logs a `trace::warn!` and falls back to the default. Long-lived serving processes
/// resolve the backend lazily on the first product of a request, and a typo in a
/// deployment environment must degrade to the default kernel, not kill the server.
/// Harnesses that care about the distinction should assert on [`matmul_backend`]'s
/// return value (the *resolved* backend, also surfaced in `/metrics` and the bench
/// JSON) instead of trusting the variable.
pub fn matmul_backend() -> MatmulBackend {
    match GLOBAL_BACKEND.load(Ordering::Relaxed) {
        BACKEND_NAIVE => MatmulBackend::Naive,
        BACKEND_BLOCKED => MatmulBackend::Blocked,
        _ => {
            let resolved = match std::env::var("VITALITY_MATMUL_BACKEND") {
                Ok(value) => match value.as_str() {
                    "naive" => MatmulBackend::Naive,
                    "blocked" => MatmulBackend::Blocked,
                    other => {
                        trace::warn!(
                            "unrecognised VITALITY_MATMUL_BACKEND value {other:?} \
                             (expected \"naive\" or \"blocked\"); falling back to the \
                             default blocked backend"
                        );
                        MatmulBackend::Blocked
                    }
                },
                Err(_) => MatmulBackend::Blocked,
            };
            set_matmul_backend(resolved);
            resolved
        }
    }
}

/// Sets the process-wide backend used by the implicit `Matrix` products.
///
/// Prefer calling [`MatmulBackend::gemm`] on an explicit backend for differential
/// testing — it does not touch global state and is therefore safe under the parallel
/// test harness.
pub fn set_matmul_backend(backend: MatmulBackend) {
    let code = match backend {
        MatmulBackend::Naive => BACKEND_NAIVE,
        MatmulBackend::Blocked => BACKEND_BLOCKED,
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
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
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
    /// hot paths). The buffer is overwritten, not accumulated into, and never read:
    /// the packed driver and the naive loop store every element, the small-product
    /// loop and an empty reduction (`k == 0`) zero-fill first.
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
    /// * **Native** — when this is [`MatmulBackend::Blocked`], the host has AVX2/FMA and
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
        if self == MatmulBackend::Blocked
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
            out.fill(0.0);
            return;
        }
        match self {
            MatmulBackend::Naive => gemm_naive(out, m, k, n, a, b),
            MatmulBackend::Blocked => {
                if m * k * n <= SMALL_GEMM_LIMIT {
                    // Per-head attention matrices in the unit tests and the tiny
                    // serving config land here: packing would cost more than it saves.
                    gemm_small(out, m, k, n, a, b);
                    return;
                }
                gemm_packed(SimdTier::host(), out, m, k, n, a, b);
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
        row.fill(0.0);
        for kk in 0..k {
            let a_ik = a.at(i, kk);
            for (j, o) in row.iter_mut().enumerate() {
                *o += a_ik * b.at(kk, j);
            }
        }
    }
}

/// Direct entry into the packed driver on an explicit tile, bypassing the
/// small-product cutoff of [`MatmulBackend::gemm`] so differential tests can pin
/// every tile the host has, including its remainder lanes on tiny shapes. Overwrites
/// `out` under the same contract as [`MatmulBackend::gemm_into`], without a fill of
/// its own.
///
/// # Panics
///
/// Panics when `out.len() != m * n`, or when this host does not run `tile`.
#[doc(hidden)]
pub fn gemm_packed_direct(
    tile: SimdTier,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a: Operand<'_>,
    b: Operand<'_>,
) {
    assert_eq!(out.len(), m * n, "gemm_packed_direct output buffer length");
    assert!(tile.available(), "this host does not run the {tile:?} tile");
    if k == 0 {
        out.fill(0.0);
    } else if m > 0 && n > 0 {
        gemm_packed(tile, out, m, k, n, a, b);
    }
}

/// The driver's one tile selection point: `tile`'s microkernel, at its own width.
/// Chosen once per product, so each driver instantiation's inner loop calls its tile
/// directly. Callers guarantee `tile.available()`.
fn gemm_packed(
    tile: SimdTier,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a: Operand<'_>,
    b: Operand<'_>,
) {
    match tile {
        #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
        SimdTier::Avx512 => {
            packed_driver::<NR_AVX512, _>(out, m, k, n, a, b, |a_tile, rs, ks, bp, kc, acc| {
                // SAFETY: the tier is available (avx512f + avx2 + fma present): callers
                // pass the host's tier or assert availability. The driver hands every
                // call an A slice bounds-checked to exactly tile_extent(rs, ks, kc)
                // elements and a B tile exactly kc*NR_AVX512 long, its rows 64-byte
                // aligned (AlignedVec base, 128-byte row stride). Every tile edge, both A
                // layouts and strided sub-matrix operands at their exact extent are pinned
                // by tests/simd_differential.rs, under ASan in CI.
                unsafe { crate::simd::microkernel_f32_avx512(a_tile, rs, ks, bp, kc, acc) }
            })
        }
        #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
        SimdTier::Avx2 => {
            packed_driver::<NR, _>(out, m, k, n, a, b, |a_tile, rs, ks, bp, kc, acc| {
                // SAFETY: the tier is available (avx2 + fma present), as above; the A
                // slice is exactly tile_extent(rs, ks, kc) long and the B tile exactly
                // kc*NR, its rows 32-byte aligned (AlignedVec base, 64-byte row stride).
                unsafe { crate::simd::microkernel_f32(a_tile, rs, ks, bp, kc, acc) }
            })
        }
        _ => packed_driver::<NR, _>(out, m, k, n, a, b, microkernel_scalar),
    }
}

/// Elements an A tile spans when its element `(i, kk)` sits at `i * rs + kk * ks`:
/// the last index read over `MR` rows and `kc` depth steps, plus one.
#[inline(always)]
pub(crate) fn tile_extent(rs: usize, ks: usize, kc: usize) -> usize {
    (MR - 1) * rs + (kc - 1) * ks + 1
}

/// The scalar register tile: accumulates an `MR × NR` tile of C over `kc` depth
/// steps. A is read where it sits, element `(i, kk)` at `a[i * rs + kk * ks]`; `bp` is
/// the packed k-major B tile (`bp[kk * NR + j]`, zero-padded to `NR`), so the `j` loop
/// is branch-free and vectorises. Two tile rows at a time: their `2 × NR`
/// accumulators stay in registers as eight independent add chains, A's two rows are
/// plain strided iterators, and each element's chain is still in `k` order.
#[inline(always)]
fn microkernel_scalar(
    a: &[f32],
    rs: usize,
    ks: usize,
    bp: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(a.len() >= tile_extent(rs, ks, kc));
    const { assert!(MR.is_multiple_of(2)) };
    for (pair, [c0, c1]) in acc.as_chunks_mut::<2>().0.iter_mut().enumerate() {
        let a0 = a[2 * pair * rs..].iter().step_by(ks);
        let a1 = a[(2 * pair + 1) * rs..].iter().step_by(ks);
        let (mut r0, mut r1) = (*c0, *c1);
        for ((&x0, &x1), b) in a0.zip(a1).zip(bp[..kc * NR].chunks_exact(NR)) {
            let b: &[f32; NR] = b.try_into().expect("packed B tile width");
            for j in 0..NR {
                r0[j] += x0 * b[j];
                r1[j] += x1 * b[j];
            }
        }
        (*c0, *c1) = (r0, r1);
    }
}

std::thread_local! {
    // Packed-panel scratch: the B panel, then the ragged last A tile when the product
    // has one. Packed once per (jc, pc) before the parallel region, read by every task.
    static PANEL: RefCell<AlignedVec<f32>> = RefCell::new(AlignedVec::new());
}

/// Packs `kc` depth steps (from `k0`) of `count <= W` consecutive lines (from `l0`:
/// rows of A, columns of B) of `op` into a k-major `W`-wide tile, writing **every**
/// slot (edge lines zeroed) so dirty reused scratch never leaks stale values into the
/// tile. `lines_contiguous` says how `op` stores the tile: each line's depth run is
/// contiguous (row-major A, transposed B) or each depth step's line run is
/// (transposed A, row-major B, a straight copy per step).
fn pack_tile<const W: usize>(
    dst: &mut [f32],
    op: Operand<'_>,
    lines_contiguous: bool,
    kc: usize,
    k0: usize,
    l0: usize,
    count: usize,
) {
    let (data, stride) = (op.data, op.stride);
    if lines_contiguous {
        for l in 0..W {
            let slots = dst[l..].iter_mut().step_by(W).take(kc);
            if l < count {
                let src = &data[(l0 + l) * stride + k0..][..kc];
                slots.zip(src).for_each(|(slot, &v)| *slot = v);
            } else {
                slots.for_each(|slot| *slot = 0.0);
            }
        }
    } else {
        for (kk, row) in dst[..kc * W].chunks_exact_mut(W).enumerate() {
            row[..count].copy_from_slice(&data[(k0 + kk) * stride + l0..][..count]);
            row[count..].fill(0.0);
        }
    }
}

/// The packed driver: BLIS-style `jc → pc → (parallel) ic` loop nest. B is packed
/// into thread-local aligned panel scratch (zero steady-state allocations when a
/// region runs inline), in `W`-wide column tiles; A is read in place, except a ragged
/// last row tile (fewer than `MR` rows), which is packed zero-padded beside the B
/// panel. `tile` runs on every `MR × W` register tile; the first `KC` panel stores it
/// into `out`, later panels add into it, so `out` needs no fill. Callers guarantee
/// `m, k, n > 0`.
fn packed_driver<const W: usize, T>(
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a: Operand<'_>,
    b: Operand<'_>,
    tile: T,
) where
    T: Fn(&[f32], usize, usize, &[f32], usize, &mut [[f32; W]; MR]) + Sync,
{
    // A's element (i, kk) sits at `i * rs + kk * ks`. Besides this per-product check,
    // each full tile's slice below is cut, bounds-checked, to its exact extent.
    let (rs, ks) = match a.layout {
        Layout::RowMajor => (a.stride, 1),
        Layout::Transposed => (1, a.stride),
    };
    assert!(
        a.data.len() > (m - 1) * rs + (k - 1) * ks,
        "A operand of {} elements is shorter than its {m} x {k} extent",
        a.data.len()
    );
    // Rows in full MR tiles; the rest form the one packed tile.
    let m_full = m - m % MR;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let n_tiles = nc.div_ceil(W);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);

            // Pack the B panel (and the ragged A tile) once per (jc, pc) for every
            // row-panel task; pack_tile writes every slot, so nothing is cleared.
            PANEL.with(|cell| {
                let mut scratch = cell.borrow_mut();
                let b_len = n_tiles * kc * W;
                scratch.reset_uncleared(b_len + if m_full < m { kc * MR } else { 0 });
                let (bp, ragged) = scratch.split_at_mut(b_len);
                for (t, dst) in bp.chunks_exact_mut(kc * W).enumerate() {
                    let j0 = jc + t * W;
                    let cols_contiguous = b.layout == Layout::Transposed;
                    pack_tile::<W>(dst, b, cols_contiguous, kc, pc, j0, W.min(n - j0));
                }
                if m_full < m {
                    let rows_contiguous = a.layout == Layout::RowMajor;
                    pack_tile::<MR>(ragged, a, rows_contiguous, kc, pc, m_full, m - m_full);
                }
                let (bp, ragged): (&[f32], &[f32]) = (bp, ragged);

                // Row panels of C are independent: distribute them over threads.
                for_each_chunk_mut(out, MC * n, |panel, c_rows| {
                    let i0 = panel * MC;
                    let mc = MC.min(m - i0);
                    for ti in 0..mc.div_ceil(MR) {
                        let r0 = i0 + ti * MR;
                        let (a_tile, trs, tks) = if r0 < m_full {
                            let origin = r0 * rs + pc * ks;
                            (&a.data[origin..origin + tile_extent(rs, ks, kc)], rs, ks)
                        } else {
                            (ragged, 1, MR)
                        };
                        let rows_here = MR.min(m - r0);
                        for tj in 0..n_tiles {
                            let b_tile = &bp[tj * kc * W..(tj + 1) * kc * W];
                            let mut acc = [[0.0f32; W]; MR];
                            tile(a_tile, trs, tks, b_tile, kc, &mut acc);

                            let j0 = jc + tj * W;
                            let cols_here = W.min(n - j0);
                            for (i, acc_row) in acc.iter().enumerate().take(rows_here) {
                                let c_row = &mut c_rows[(ti * MR + i) * n + j0..][..cols_here];
                                if pc == 0 {
                                    c_row.copy_from_slice(&acc_row[..cols_here]);
                                } else {
                                    for (o, &v) in c_row.iter_mut().zip(acc_row.iter()) {
                                        *o += v;
                                    }
                                }
                            }
                        }
                    }
                });
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

    /// Largest elementwise distance, NaN when any pair differs by NaN.
    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(
                0.0,
                |worst, d| if d.is_nan() || d > worst { d } else { worst },
            )
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
        // Both routes (Naive always widens; Blocked widens where the host has no
        // native kernel). Shapes straddling the small-product cutoff and the exactness
        // chunk, including a reduction longer than I8_EXACT_CHUNK at worst-case
        // magnitudes (the chunk-boundary stress for f32 integer exactness).
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
