//! Differential pinning of the packed GEMM driver's tiles and the AVX2 microkernels
//! against the scalar references.
//!
//! Three contracts, straight from the dispatch layer's documentation:
//!
//! * **f32** — the packed driver runs the host's register tile (6×32 AVX-512 where
//!   the host has `avx512f`, 6×16 AVX2/FMA where it has those, 6×16 scalar elsewhere
//!   and under `--cfg force_scalar`); every tile the host can run is pinned here, not
//!   only the one it selects. No tile reassociates (each accumulates an output lane
//!   sequentially over `k`), but FMA keeps the unrounded product, so results may
//!   differ from the naive reference by rounding only: within `1e-5` across shapes
//!   covering every remainder lane of both tile widths and the edges of the `MC` row
//!   panel and `KC` depth panel. The two FMA tiles run the same chain per element,
//!   so they must agree **bit for bit** — what lets one golden logit table serve both.
//! * **i8** — the production entry `gemm_i8_fast_into` is exact integer arithmetic on
//!   both of its routes and must be **bit-identical** to the scalar `gemm_i8_into`
//!   reference, including reductions longer than `I8_EXACT_CHUNK` (the native
//!   `maddubs` route does not chunk; the widened-f32 route does — both must agree
//!   exactly) and operands holding `-128` (which only the widened route can take).
//! * **elementwise** — the tanh/GELU/LayerNorm kernels are one plain-arithmetic body
//!   instantiated per dispatch tier, so the dispatched entry must be **bit-identical**
//!   to the baseline instantiation on every remainder-lane length and alignment, and
//!   the polynomial `tanh` is held to an f64 libm reference (which lives only here).
//!
//! On hosts or builds without AVX2/FMA (non-x86, `--cfg force_scalar`, old CPUs) the
//! f32 sweep pins the scalar tile, and the int8 and elementwise entry points fall back
//! to their scalar forms, so the suite runs on every host. Which tiles ran is printed
//! by `the_host_selects_its_widest_tile` (visible with `--nocapture`).

use vitality_tensor::backend::{
    gemm_packed_direct, IntOperand, Operand, I8_EXACT_CHUNK, KC, MC, MR, NR, NR_AVX512,
};
use vitality_tensor::{cpu_features, MatmulBackend, SimdTier, Workspace};

/// Every combination straddles a different mix of full and remainder lanes of the
/// f32 register tiles, `MR` = 6 rows by `NR` = 16 or `NR_AVX512` = 32 columns: 1 is
/// below every edge, 5/6/7 hug the tile height, 15/16/17 and 31/32/33 the two widths,
/// 71/72/73 the `MC` row-panel edge, 196 is the ViT-base token count and 257 crosses
/// the `KC` depth panel.
const SPAN: [usize; 15] = [
    1,
    MR - 1,
    MR,
    MR + 1,
    NR - 1,
    NR,
    NR + 1,
    NR_AVX512 - 1,
    NR_AVX512,
    NR_AVX512 + 1,
    MC - 1,
    MC,
    MC + 1,
    196,
    KC + 1,
];

/// Deterministic pseudo-random fill, roughly zero-mean with |v| ≤ 0.35 so partial
/// sums stay small and the FMA-vs-scalar rounding divergence stays well inside the
/// 1e-5 differential tolerance even at k = 257.
fn entry(r: usize, c: usize) -> f32 {
    let h = (r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17))) % 97;
    (h as f32 / 97.0 - 0.5) * 0.7
}

fn dense(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut data = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            data[r * cols + c] = f(r, c);
        }
    }
    data
}

/// Largest elementwise distance, NaN when any pair differs by NaN (`f32::max` would
/// drop it, hiding an output slot a route never wrote).
fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(
            0.0,
            |worst, d| if d.is_nan() || d > worst { d } else { worst },
        )
}

/// Every f32 tile this host runs in this build, narrowest first.
fn tiles() -> Vec<SimdTier> {
    SimdTier::ALL
        .into_iter()
        .filter(|tile| tile.available())
        .collect()
}

/// i8 fill constrained to [-127, 127]: the native kernel's documented domain (the
/// excluded -128 gets its own dedicated fallback test below).
fn entry_i8(i: usize, salt: usize) -> i8 {
    (((i * 37 + salt) % 255) as i32 - 127) as i8
}

#[test]
fn the_host_selects_its_widest_tile() {
    let tiles = tiles();
    let labels: Vec<&str> = tiles.iter().map(|tile| tile.label()).collect();
    eprintln!(
        "f32 tile: {} (tiles run here: {})",
        SimdTier::host().label(),
        labels.join(", ")
    );
    assert_eq!(tiles.last(), Some(&SimdTier::host()));
    assert_eq!(
        tiles[0],
        SimdTier::Scalar,
        "the scalar tile runs everywhere"
    );
    // The public dispatch of a product above the small-product cutoff is the packed
    // driver on the host's tile.
    let (m, k, n) = (MC + 1, 196, 2 * NR_AVX512 + 3);
    let a = dense(m, k, entry);
    let b = dense(k, n, |r, c| entry(c + 5, r));
    let (a_op, b_op) = (Operand::row_major(&a, k), Operand::row_major(&b, n));
    let dispatched = MatmulBackend::Blocked.gemm(m, k, n, a_op, b_op);
    let mut packed = vec![f32::NAN; m * n];
    gemm_packed_direct(SimdTier::host(), &mut packed, m, k, n, a_op, b_op);
    assert_eq!(bits(&dispatched), bits(&packed));
}

#[test]
fn f32_tiles_match_naive_within_1e5_on_all_remainder_lanes() {
    let tiles = tiles();
    for &m in &SPAN {
        for &k in &SPAN {
            for &n in &SPAN {
                let a = dense(m, k, entry);
                let b = dense(k, n, |r, c| entry(c + 5, r));
                let (a_op, b_op) = (Operand::row_major(&a, k), Operand::row_major(&b, n));
                let reference = MatmulBackend::Naive.gemm(m, k, n, a_op, b_op);
                // The raw driver on every tile, bypassing the small-product cutoff:
                // this is what pins each tile itself on the tiny shapes.
                for &tile in &tiles {
                    let mut packed = vec![f32::NAN; m * n];
                    gemm_packed_direct(tile, &mut packed, m, k, n, a_op, b_op);
                    let diff = max_abs_diff(&packed, &reference);
                    assert!(
                        diff <= 1e-5,
                        "{tile:?} packed f32 ({m},{k},{n}) diverged by {diff}"
                    );
                }
                // And the public dispatch (small shapes route through gemm_small,
                // large ones through the packed panels — both must agree).
                let dispatched = MatmulBackend::Blocked.gemm(m, k, n, a_op, b_op);
                let diff = max_abs_diff(&dispatched, &reference);
                assert!(
                    diff <= 1e-5,
                    "Blocked dispatch ({m},{k},{n}) diverged by {diff}"
                );
            }
        }
    }
}

#[test]
fn f32_tiles_handle_transposed_operands() {
    let (m, k, n) = (MC + 1, 196, 4 * NR - 1);
    let at = dense(k, m, entry); // A^T stored row-major, participating as A
    let a = dense(m, k, entry);
    let b = dense(k, n, |r, c| entry(r + 11, c));
    let bt = dense(n, k, |r, c| entry(c + 11, r)); // B^T stored row-major, participating as B
                                                   // Transposed A is the attention kernels' `G = K̂ᵀV`; transposed B is what
                                                   // `Matrix::matmul_transpose_b` feeds the driver.
    for (label, a_op, b_op) in [
        (
            "transposed-A",
            Operand::transposed(&at, m),
            Operand::row_major(&b, n),
        ),
        (
            "transposed-B",
            Operand::row_major(&a, k),
            Operand::transposed(&bt, k),
        ),
    ] {
        let reference = MatmulBackend::Naive.gemm(m, k, n, a_op, b_op);
        for tile in tiles() {
            let mut packed = vec![f32::NAN; m * n];
            gemm_packed_direct(tile, &mut packed, m, k, n, a_op, b_op);
            let diff = max_abs_diff(&packed, &reference);
            assert!(
                diff <= 1e-5,
                "{tile:?} {label} packed f32 diverged by {diff}"
            );
        }
    }
}

/// Small integers in `[-3, 3]`: every product and partial sum of a reduction up to
/// `2·KC + 1` deep is an exactly representable integer, so every f32 route must agree
/// with the naive reference **bit for bit**, whatever its tile or panel order.
fn small_int(r: usize, c: usize) -> f32 {
    ((r * 7 + c * 3) % 7) as f32 - 3.0
}

/// A `rows × cols` matrix stored row-major at row stride `stride >= cols`, in a buffer
/// of exactly its logical extent, `(rows − 1)·stride + cols` elements: the sub-matrix
/// view the chunked int8 route builds. The gap slots hold NaN and the allocation ends
/// at the last logical element, so a read outside the operand poisons the result or,
/// under AddressSanitizer, faults as a heap overflow.
fn strided(rows: usize, cols: usize, stride: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let len = (rows - 1) * stride + cols;
    let mut data = Vec::with_capacity(len);
    data.extend((0..len).map(|i| {
        let (r, c) = (i / stride, i % stride);
        if c < cols {
            f(r, c)
        } else {
            f32::NAN
        }
    }));
    data
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Both A layouts (row-major A is every projection; transposed A is the attention
/// kernels' `G = K̂ᵀV`) as exact-extent strided operands, each with a strided B of the
/// other layout: `(label, A, B)`.
fn strided_operands<'a>(
    k: usize,
    m: usize,
    n: usize,
    a_rm: &'a [f32],
    at: &'a [f32],
    b_rm: &'a [f32],
    bt: &'a [f32],
) -> [(&'static str, Operand<'a>, Operand<'a>); 2] {
    [
        (
            "row-major A",
            Operand::row_major(a_rm, k + 3),
            Operand::transposed(bt, k + 1),
        ),
        (
            "transposed A",
            Operand::transposed(at, m + 5),
            Operand::row_major(b_rm, n + 2),
        ),
    ]
}

#[test]
fn f32_packed_driver_reads_a_in_place_within_its_extent() {
    // Row counts around the tile height and the row panel plus the served token counts
    // (196 and 1024 leave a ragged last tile), at depths where only the storing first
    // `KC` panel runs and where one or two accumulating panels follow it, and a width
    // that leaves a ragged last column tile at both tile widths.
    let n = NR_AVX512 + 1;
    let tiles = tiles();
    for &m in &[MR - 1, MR, MR + 1, MC - 1, MC, MC + 1, 196, 1024] {
        for &k in &[KC - 1, KC, KC + 1, 2 * KC + 1] {
            let a_rm = strided(m, k, k + 3, small_int);
            let at = strided(k, m, m + 5, |r, c| small_int(c, r));
            let b_rm = strided(k, n, n + 2, |r, c| small_int(c + 1, r));
            let bt = strided(n, k, k + 1, |r, c| small_int(r + 1, c));
            for (label, a_op, b_op) in strided_operands(k, m, n, &a_rm, &at, &b_rm, &bt) {
                let reference = MatmulBackend::Naive.gemm(m, k, n, a_op, b_op);
                for &tile in &tiles {
                    let mut packed = vec![f32::NAN; m * n];
                    gemm_packed_direct(tile, &mut packed, m, k, n, a_op, b_op);
                    assert_eq!(
                        bits(&packed),
                        bits(&reference),
                        "{tile:?} {label} ({m},{k},{n}) differs from the naive product"
                    );
                }
            }
        }
    }
}

/// The packed driver's output bits on one tile.
fn packed_bits(tile: SimdTier, m: usize, k: usize, n: usize, a: Operand, b: Operand) -> Vec<u32> {
    let mut out = vec![f32::NAN; m * n];
    gemm_packed_direct(tile, &mut out, m, k, n, a, b);
    bits(&out)
}

#[test]
fn fma_tiles_return_identical_bits() {
    if !SimdTier::Avx512.available() {
        eprintln!("fma_tiles_return_identical_bits: no AVX-512 tile on this host; skipped");
        return;
    }
    // Every SPAN shape in both A layouts, on fractional values whose rounding
    // depends on the exact chain of FMAs each output element runs.
    for &m in &SPAN {
        for &k in &SPAN {
            for &n in &SPAN {
                let a = dense(m, k, entry);
                let at = dense(k, m, |r, c| entry(c, r));
                let b = dense(k, n, |r, c| entry(c + 5, r));
                for (label, a_op) in [
                    ("row-major A", Operand::row_major(&a, k)),
                    ("transposed A", Operand::transposed(&at, m)),
                ] {
                    let b_op = Operand::row_major(&b, n);
                    assert!(
                        packed_bits(SimdTier::Avx2, m, k, n, a_op, b_op)
                            == packed_bits(SimdTier::Avx512, m, k, n, a_op, b_op),
                        "{label} ({m},{k},{n}): the AVX-512 tile's bits differ from the AVX2 tile's"
                    );
                }
            }
        }
    }
    // Exact-extent strided operands of both A layouts, across accumulating panels.
    let n = NR_AVX512 + 1;
    for &m in &[MR + 1, MC + 1, 196] {
        for &k in &[KC - 1, 2 * KC + 1] {
            let frac = |r: usize, c: usize| entry(r, c + 3);
            let a_rm = strided(m, k, k + 3, frac);
            let at = strided(k, m, m + 5, |r, c| frac(c, r));
            let b_rm = strided(k, n, n + 2, |r, c| frac(c + 1, r));
            let bt = strided(n, k, k + 1, |r, c| frac(r + 1, c));
            for (label, a_op, b_op) in strided_operands(k, m, n, &a_rm, &at, &b_rm, &bt) {
                assert!(
                    packed_bits(SimdTier::Avx2, m, k, n, a_op, b_op)
                        == packed_bits(SimdTier::Avx512, m, k, n, a_op, b_op),
                    "strided {label} ({m},{k},{n}): the AVX-512 tile's bits differ from the AVX2 tile's"
                );
            }
        }
    }
}

#[test]
fn gemm_into_overwrites_a_nan_filled_output_on_every_route() {
    // The output contract: every route writes every element, whatever the buffer held.
    // The naive loop and the packed driver store; the small-product loop and the empty
    // reduction fill first. (m, k, n) picks the route on the blocked backend.
    for (route, m, k, n) in [
        ("small", 7, 9, 5),
        ("packed", 70, 2 * KC + 1, 40),
        ("k == 0", 9, 0, 11),
    ] {
        let a = dense(m, k, small_int);
        let b = dense(k, n, |r, c| small_int(c, r + 2));
        let (a_op, b_op) = (Operand::row_major(&a, k), Operand::row_major(&b, n));
        let expected = MatmulBackend::Naive.gemm(m, k, n, a_op, b_op);
        assert!(k > 0 || expected.iter().all(|&v| v == 0.0));
        for backend in [MatmulBackend::Naive, MatmulBackend::Blocked] {
            let mut out = vec![f32::NAN; m * n];
            backend.gemm_into(&mut out, m, k, n, a_op, b_op);
            assert_eq!(
                bits(&out),
                bits(&expected),
                "{backend:?} on the {route} shape ({m},{k},{n}) left stale output"
            );
        }
    }
}

/// Runs the production int8 entry on a fresh workspace and reports whether it took
/// the native `maddubs` route — the only one that checks nothing out of the workspace.
fn fast_i8(
    backend: MatmulBackend,
    m: usize,
    k: usize,
    n: usize,
    a: IntOperand<'_>,
    b: IntOperand<'_>,
) -> (Vec<i32>, bool) {
    let mut ws = Workspace::new();
    let mut out = vec![i32::MIN; m * n];
    backend.gemm_i8_fast_into(&mut out, m, k, n, a, b, &mut ws);
    (out, ws.checkouts() == 0)
}

#[test]
fn i8_production_entry_is_bit_identical_to_the_scalar_reference_on_both_routes() {
    // Shapes covering every remainder-lane mix, plus reductions straddling the
    // KG = 4 depth grouping and the I8_EXACT_CHUNK split of the widened-f32 route.
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (7, 9, 8),
        (8, 196, 8),
        (9, 63, 65),
        (64, 196, 64),
        (3, I8_EXACT_CHUNK, 5),
        (8, I8_EXACT_CHUNK + 500, 8),
    ] {
        let a: Vec<i8> = (0..m * k).map(|i| entry_i8(i, 11)).collect();
        let b: Vec<i8> = (0..k * n).map(|i| entry_i8(i, 7)).collect();
        let (a_op, b_op) = (IntOperand::row_major(&a, k), IntOperand::row_major(&b, n));
        let mut reference = vec![0i32; m * n];
        MatmulBackend::Blocked.gemm_i8_into(&mut reference, m, k, n, a_op, b_op);

        let (fast, native) = fast_i8(MatmulBackend::Blocked, m, k, n, a_op, b_op);
        assert_eq!(
            native,
            cpu_features().simd_ready(),
            "in-domain operands take the native route exactly where AVX2/FMA exist"
        );
        assert_eq!(
            fast, reference,
            "blocked i8 ({m},{k},{n}) not bit-identical"
        );

        // The reference backend never takes the native route: this is the widened-f32
        // route (the packed-driver form is pinned by the -128 test below).
        let (widened, native) = fast_i8(MatmulBackend::Naive, m, k, n, a_op, b_op);
        assert!(!native, "the naive backend has no native int8 route");
        assert_eq!(
            widened, reference,
            "widened i8 ({m},{k},{n}) not bit-identical"
        );
    }
}

#[test]
fn i8_production_entry_handles_transposed_and_clamped_operands_bit_identically() {
    let (m, k, n) = (64usize, 196usize, 64usize);
    // A^T stored row-major (k × m) — the attention kernels' G = K̂ᵀV shape.
    let at: Vec<i8> = (0..k * m).map(|i| entry_i8(i, 29)).collect();
    let b: Vec<i8> = (0..k * n).map(|i| entry_i8(i, 13)).collect();
    let (a_op, b_op) = (IntOperand::transposed(&at, m), IntOperand::row_major(&b, n));
    let mut reference = vec![0i32; m * n];
    MatmulBackend::Blocked.gemm_i8_into(&mut reference, m, k, n, a_op, b_op);
    // Scanned and marked-clamped operands (what the int8 attention kernels pass: the
    // quantizer saturates at ±127) must reach the same route and the same bits.
    for (a_op, b_op) in [(a_op, b_op), (a_op.clamped(), b_op.clamped())] {
        let (fast, native) = fast_i8(MatmulBackend::Blocked, m, k, n, a_op, b_op);
        assert_eq!(native, cpu_features().simd_ready());
        assert_eq!(fast, reference, "transposed i8 not bit-identical");
    }
}

#[test]
fn i8_production_entry_routes_minus_128_to_the_widened_path_and_stays_exact() {
    // -128 is the one i8 value the abs/sign maddubs idiom cannot represent
    // (`_mm256_sign_epi8` negation wraps); an unmarked operand holding it must be
    // caught by the domain scan and multiplied exactly on the widened-f32 route. The
    // second shape is above the small-product cutoff in both of its reduction chunks
    // (k is past I8_EXACT_CHUNK), so the widened route runs on the packed driver.
    for &(m, k, n) in &[(9usize, 65usize, 7usize), (16, I8_EXACT_CHUNK + 500, 16)] {
        let mut a: Vec<i8> = (0..m * k).map(|i| entry_i8(i, 3)).collect();
        let b: Vec<i8> = (0..k * n).map(|i| entry_i8(i, 17)).collect();
        a[m * k / 2] = i8::MIN;
        let (a_op, b_op) = (IntOperand::row_major(&a, k), IntOperand::row_major(&b, n));
        let mut reference = vec![0i32; m * n];
        MatmulBackend::Naive.gemm_i8_into(&mut reference, m, k, n, a_op, b_op);

        let (fast, native) = fast_i8(MatmulBackend::Blocked, m, k, n, a_op, b_op);
        assert!(
            !native,
            "the native route must refuse operands containing -128"
        );
        assert_eq!(
            fast, reference,
            "({m},{k},{n}) -128 fallback lost exactness"
        );
        // The scan covers the right operand too: (A·B)ᵀ = Bᵀ·Aᵀ puts the -128 there.
        let (bt_op, at_op) = (IntOperand::transposed(&b, n), IntOperand::transposed(&a, k));
        let mut reference_t = vec![0i32; n * m];
        MatmulBackend::Naive.gemm_i8_into(&mut reference_t, n, k, m, bt_op, at_op);
        let (fast_t, native) = fast_i8(MatmulBackend::Blocked, n, k, m, bt_op, at_op);
        assert!(
            !native,
            "the native route must refuse a right operand containing -128"
        );
        assert_eq!(
            fast_t, reference_t,
            "({m},{k},{n}) -128 in the right operand lost exactness"
        );
    }
}

#[test]
fn quantization_sweeps_match_their_scalar_references_bit_for_bit() {
    use vitality_tensor::simd::{
        absmax, absmax_scalar, i8_column_sums, i8_column_sums_scalar, quantize_i8,
        quantize_i8_scalar, quantize_lattice, quantize_lattice_scalar,
    };
    // Lengths straddling the 32-lane i8 block, the 8-lane f32 block and their
    // scalar tails; values spanning the clamp (±127 saturation) on both sides.
    for &len in &[0usize, 1, 7, 8, 31, 32, 33, 255, 256, 12544] {
        let src: Vec<f32> = (0..len)
            .map(|i| ((i % 613) as f32 / 613.0 - 0.5) * 300.0)
            .collect();
        assert_eq!(
            absmax(&src).to_bits(),
            absmax_scalar(&src).to_bits(),
            "absmax diverged at len {len}"
        );
        let inv = 127.0 / 104.2;
        let mut simd_i8 = vec![0i8; len];
        let mut scalar_i8 = vec![0i8; len];
        quantize_i8(&src, inv, &mut simd_i8);
        quantize_i8_scalar(&src, inv, &mut scalar_i8);
        assert_eq!(simd_i8, scalar_i8, "quantize_i8 diverged at len {len}");

        let mut simd_lat = vec![0f32; len];
        let mut scalar_lat = vec![0f32; len];
        quantize_lattice(&src, inv, &mut simd_lat);
        quantize_lattice_scalar(&src, inv, &mut scalar_lat);
        let simd_bits: Vec<u32> = simd_lat.iter().map(|v| v.to_bits()).collect();
        let scalar_bits: Vec<u32> = scalar_lat.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            simd_bits, scalar_bits,
            "quantize_lattice diverged at len {len}"
        );

        // The i8 lattice and the widened f32 lattice must describe the same grid
        // points (the two views feed different downstream kernels).
        for (i, (&q, &l)) in simd_i8.iter().zip(&simd_lat).enumerate() {
            assert_eq!(f32::from(q), l, "grid views disagree at {i} (len {len})");
        }
    }
    // Column sums over shapes hitting the 64-column register budget, the 8-lane
    // step and the scalar column tail.
    for &(rows, cols) in &[
        (1usize, 1usize),
        (3, 7),
        (5, 8),
        (9, 63),
        (196, 64),
        (17, 130),
    ] {
        let data: Vec<i8> = (0..rows * cols).map(|i| entry_i8(i, 23)).collect();
        let mut simd_sums = vec![i32::MIN; cols];
        let mut scalar_sums = vec![0i32; cols];
        i8_column_sums(&data, &mut simd_sums);
        i8_column_sums_scalar(&data, &mut scalar_sums);
        assert_eq!(
            simd_sums, scalar_sums,
            "i8_column_sums diverged at ({rows},{cols})"
        );
    }
}

/// Values sweeping the GELU transition, both saturated tails and the `tanh` clamp.
fn activation(i: usize) -> f32 {
    ((i * 89 + 13) % 241) as f32 / 10.0 - 12.0
}

fn gelu_f64(x: f64) -> f64 {
    let inner = (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044_715 * x * x * x);
    0.5 * x * (1.0 + inner.tanh())
}

fn gelu_grad_f64(x: f64) -> f64 {
    let c = (2.0 / std::f64::consts::PI).sqrt();
    let t = (c * (x + 0.044_715 * x * x * x)).tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// The formula the kernels replaced: f32 arithmetic over libm `tanhf`.
fn gelu_libm(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

#[test]
fn elementwise_tiers_are_bit_identical_on_every_remainder_lane() {
    use vitality_tensor::simd::{
        bias_gelu_rows, bias_gelu_rows_on, gelu_grad_mul, gelu_grad_mul_baseline, gelu_inplace,
        gelu_inplace_on,
    };
    const ROWS: usize = 3;
    let tiers = tiles();
    // Every length through three 16-lane blocks and their tails, each started at every
    // f32 offset inside a 64-byte line so no tier can lean on alignment.
    for len in 0..=48usize {
        for off in 0..16usize {
            let src: Vec<f32> = (0..off + len * ROWS).map(activation).collect();
            let xs = &src[off..off + len];

            let mut scalar = xs.to_vec();
            gelu_inplace_on(SimdTier::Scalar, &mut scalar);
            let mut dispatched = xs.to_vec();
            gelu_inplace(&mut dispatched);
            assert_eq!(bits(&dispatched), bits(&scalar), "gelu len {len} off {off}");
            for &tier in &tiers {
                let mut tiered = xs.to_vec();
                gelu_inplace_on(tier, &mut tiered);
                assert_eq!(
                    bits(&tiered),
                    bits(&scalar),
                    "{tier:?} gelu len {len} off {off}"
                );
            }

            let mut dispatched: Vec<f32> = (0..len).map(|i| activation(i + 7) * 0.1).collect();
            let mut baseline = dispatched.clone();
            gelu_grad_mul(xs, &mut dispatched);
            gelu_grad_mul_baseline(xs, &mut baseline);
            assert_eq!(
                bits(&dispatched),
                bits(&baseline),
                "gelu_grad len {len} off {off}"
            );

            // `len` doubles as the row width of the fused epilogue.
            let bias: Vec<f32> = (0..len).map(|j| activation(j + 3) * 0.05).collect();
            let rows = &src[off..];
            let mut dispatched = rows.to_vec();
            bias_gelu_rows(&mut dispatched, &bias);
            if len > 0 {
                let mut scalar = rows.to_vec();
                bias_gelu_rows_on(SimdTier::Scalar, &mut scalar, &bias);
                assert_eq!(
                    bits(&dispatched),
                    bits(&scalar),
                    "bias_gelu width {len} off {off}"
                );
                for &tier in &tiers {
                    let mut tiered = rows.to_vec();
                    bias_gelu_rows_on(tier, &mut tiered, &bias);
                    assert_eq!(
                        bits(&tiered),
                        bits(&scalar),
                        "{tier:?} bias_gelu width {len} off {off}"
                    );
                }
            }
            // Fused means fused, not different: broadcast-then-activate gives the same bits.
            let mut unfused = rows.to_vec();
            for (i, v) in unfused.iter_mut().enumerate() {
                *v += bias[i % len.max(1)];
            }
            gelu_inplace(&mut unfused);
            assert_eq!(
                bits(&dispatched),
                bits(&unfused),
                "fused vs unfused width {len}"
            );
        }
    }
}

#[test]
fn gelu_tracks_the_f64_libm_reference_within_2e6() {
    use vitality_tensor::simd::{gelu_grad_mul, gelu_inplace};
    // [-12, 12] at step 2^-12: every point is exactly representable in f32.
    let xs: Vec<f32> = (0..=24 * 4096).map(|i| i as f32 / 4096.0 - 12.0).collect();
    let mut ys = xs.clone();
    gelu_inplace(&mut ys);
    let mut grads = vec![1.0f32; xs.len()];
    gelu_grad_mul(&xs, &mut grads);
    let (mut worst, mut worst_grad) = (0.0f64, 0.0f64);
    for ((&x, &y), &g) in xs.iter().zip(&ys).zip(&grads) {
        worst = worst.max((f64::from(y) - gelu_f64(f64::from(x))).abs());
        worst_grad = worst_grad.max((f64::from(g) - gelu_grad_f64(f64::from(x))).abs());
    }
    assert!(
        worst <= 2e-6,
        "gelu max-abs error {worst:e} vs f64 reference"
    );
    // `1 - tanh²` cancels, so the derivative amplifies the tanh error by up to
    // `x · (1 + 0.134 x²)` before sech² itself vanishes: a looser bound, still three
    // orders of magnitude inside the gradcheck tolerance.
    assert!(
        worst_grad <= 1e-5,
        "gelu' max-abs error {worst_grad:e} vs f64 reference"
    );
}

#[test]
fn gelu_special_values_give_what_the_libm_formula_gave() {
    use vitality_tensor::simd::gelu_inplace;
    let subnormal = f32::from_bits(0x0000_1234);
    let mut xs = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        subnormal,
        -subnormal,
        f32::MIN_POSITIVE,
        1e30,
        -1e30,
        // Padding past one 8-lane block so both the vector body and the tail see
        // non-finite lanes next to ordinary ones.
        1.0,
        f32::NAN,
        -1.0,
    ];
    let expected = xs.map(gelu_libm);
    gelu_inplace(&mut xs);
    assert!(xs[0].is_nan(), "NaN -> NaN");
    assert_eq!(xs[1], f32::INFINITY, "+inf -> +inf");
    assert!(xs[2].is_nan(), "-inf -> NaN (inf * 0, as with libm tanh)");
    assert_eq!(xs[3].to_bits(), 0.0f32.to_bits(), "+0 preserved");
    assert_eq!(xs[4].to_bits(), (-0.0f32).to_bits(), "-0 preserved");
    for (i, (&got, &want)) in xs.iter().zip(&expected).enumerate() {
        if want.is_nan() {
            assert!(got.is_nan(), "entry {i}: expected NaN, got {got}");
        } else if want.abs() > 1e-30 && want.is_finite() {
            assert!((got - want).abs() <= 2e-6, "entry {i}: {got:e} vs {want:e}");
        } else {
            // Zeros, subnormals, saturated tails and infinities: exactly libm's bits.
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "entry {i}: {got:e} vs {want:e}"
            );
        }
    }
}

#[test]
fn layer_norm_kernel_tracks_the_sequential_loop_on_every_width() {
    use vitality_tensor::simd::{layer_norm_rows, layer_norm_rows_baseline};
    const ROWS: usize = 5;
    let eps = 1e-5f32;
    for &d in &[1usize, 7, 8, 9, 32, 64] {
        for off in [0usize, 1, 3] {
            let src: Vec<f32> = (0..off + ROWS * d)
                .map(|i| entry(i / d, i % d) * 4.0 + 0.25)
                .collect();
            let x = &src[off..];
            let gamma: Vec<f32> = (0..d).map(|j| 1.0 + entry(j, 3)).collect();
            let beta: Vec<f32> = (0..d).map(|j| entry(5, j)).collect();

            // The loop `LayerNorm::infer_into` ran before the kernel existed.
            let mut reference = vec![0.0f32; x.len()];
            for (row, out) in x.chunks_exact(d).zip(reference.chunks_exact_mut(d)) {
                let mean = row.iter().sum::<f32>() / d as f32;
                let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                let inv_std = 1.0 / (var + eps).sqrt();
                for (j, o) in out.iter_mut().enumerate() {
                    *o = (row[j] - mean) * inv_std * gamma[j] + beta[j];
                }
            }

            let mut dispatched = vec![f32::NAN; x.len()];
            let mut baseline = vec![f32::NAN; x.len()];
            layer_norm_rows(x, &gamma, &beta, eps, &mut dispatched);
            layer_norm_rows_baseline(x, &gamma, &beta, eps, &mut baseline);
            assert_eq!(
                bits(&dispatched),
                bits(&baseline),
                "tiers diverged at d={d} off={off}"
            );
            let diff = max_abs_diff(&dispatched, &reference);
            assert!(
                diff <= 1e-6,
                "layer norm d={d} off={off} diverged by {diff:e}"
            );
        }
    }
}
