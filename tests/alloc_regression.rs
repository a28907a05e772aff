//! Allocation regression gate: a counting global allocator proves that the
//! workspace-threaded `VisionTransformer::infer_batch_into` serving loop performs
//! **zero** heap allocations at steady state.
//!
//! The counter only counts allocations made by threads that opted in via
//! [`count_this_thread`] — i.e. the test thread itself. The libtest harness keeps a
//! monitor thread blocked on an internal mpmc channel while the test runs, and that
//! thread lazily allocates its thread-local waker context at a timing-dependent
//! moment; a process-global count would (and, before the gate was scoped, flakily
//! did) attribute those harness allocations to the inference loop. The batched
//! inference path under test is strictly sequential: `infer_batch_into` splits a batch
//! into parallel image lanes (which spawn threads and therefore allocate by design)
//! only above a work grain of 128 MMAC per lane, and this test's batches — like every
//! batch the engine serves — are orders of magnitude below it. So the scoped count is
//! deterministic regardless of the host's core count.
//!
//! The gate also reaches the packed GEMM driver directly: the tiny model's largest
//! product is under the small-product cutoff, so inference alone never packs a panel.
//!
//! The same gate covers the tracing primitives riding the serve path: with sampling
//! off, opening/closing a trace and recording a stage histogram sample must also be
//! allocation-free, so observability costs nothing when it is not watching.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vitality::serve::LatencyHistogram;
use vitality::tensor::backend::{Operand, MC, SMALL_GEMM_LIMIT};
use vitality::tensor::{init, matmul_backend, Matrix, Workspace};
use vitality::vit::{AttentionVariant, Int8Calibration, TrainConfig, VisionTransformer, VitOutput};

/// Wraps the system allocator and counts every allocation-producing call made by a
/// thread that opted in via [`count_this_thread`].
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    // `const`-initialised so reading it never itself allocates (no lazy init), and
    // accessed with `try_with` so allocations during TLS teardown stay safe.
    static COUNTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Opt the calling thread into the allocation count.
fn count_this_thread() {
    COUNTED.with(|c| c.set(true));
}

fn record() {
    if COUNTED.try_with(std::cell::Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_infer_batch_into_performs_zero_allocations() {
    count_this_thread();
    let cfg = TrainConfig::tiny();
    let mut rng = StdRng::seed_from_u64(4242);
    let mut model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
    let images: Vec<Matrix> = (0..3)
        .map(|i| {
            init::uniform(
                &mut StdRng::seed_from_u64(500 + i),
                cfg.image_size,
                cfg.image_size,
                0.0,
                1.0,
            )
        })
        .collect();

    // Every served variant must reach an allocation-free steady state: taylor is the
    // paper's inference configuration, softmax the baseline arm, unified the fused
    // low-rank + sparse path, and the int8 variant exercises the workspace's integer
    // (`Vec<i8>`/`Vec<i32>`) pools.
    for variant in [
        AttentionVariant::Taylor,
        AttentionVariant::Softmax,
        AttentionVariant::Unified { threshold: 0.5 },
        AttentionVariant::Int8Taylor {
            calibration: Int8Calibration::Dynamic,
        },
    ] {
        model.set_variant(variant);
        let mut ws = Workspace::new();
        let mut outputs: Vec<VitOutput> = Vec::new();

        // Warmup: the pool learns every buffer shape of the per-layer pattern and the
        // output vector reaches its final capacity.
        for _ in 0..3 {
            model.infer_batch_into(&images, &mut outputs, &mut ws);
        }
        let reference: Vec<Matrix> = outputs.iter().map(|o| o.logits.clone()).collect();

        let before = allocations();
        for _ in 0..5 {
            model.infer_batch_into(&images, &mut outputs, &mut ws);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "steady-state infer_batch_into allocated {delta} times for variant {:?}",
            variant
        );

        // The allocation-free rounds still produce bit-identical results.
        assert_eq!(outputs.len(), images.len());
        for (output, expected) in outputs.iter().zip(&reference) {
            assert_eq!(
                output.logits, *expected,
                "workspace-recycled inference drifted for {:?}",
                variant
            );
        }
    }

    // One row panel of the packed driver above the small-product cutoff: its
    // parallel region has a single chunk and runs inline, so the thread-local panel
    // scratch is all it touches — on whichever tile this host runs.
    let (m, k, n) = (64, 64, 64);
    assert!(m * k * n > SMALL_GEMM_LIMIT && m <= MC);
    let a = init::uniform(&mut StdRng::seed_from_u64(600), m, k, -1.0, 1.0);
    let b = init::uniform(&mut StdRng::seed_from_u64(601), k, n, -1.0, 1.0);
    let mut product = vec![0.0f32; m * n];
    let backend = matmul_backend();
    let gemm = |out: &mut [f32]| {
        let (a, b) = (
            Operand::row_major(a.as_slice(), k),
            Operand::row_major(b.as_slice(), n),
        );
        backend.gemm_into(out, m, k, n, a, b);
    };
    gemm(&mut product);
    let before = allocations();
    for _ in 0..10 {
        gemm(&mut product);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state {} GEMM {m}x{k}x{n} allocated {delta} times",
        backend.label()
    );

    // Tracing with sampling off is the no-op mode: `begin` returns `None`, every
    // span-recording site is a skipped `if let`, `finish` returns immediately, and
    // the lock-free stage histograms never allocate after construction. This is the
    // part of the serve hot path the tracing PR added — hold it to the same zero.
    let tracer = trace::Tracer::new(&trace::TraceConfig {
        sample: Some(0.0),
        ring_capacity: 64,
    });
    let histogram = LatencyHistogram::new();
    let origin = Instant::now();
    let before = allocations();
    for i in 0..100u64 {
        let handle = tracer.begin("alloc-gate", origin, false);
        assert!(handle.is_none(), "sampling off must yield the no-op handle");
        if let Some(t) = &handle {
            t.record("never", String::new(), origin, Instant::now());
        }
        histogram.record_us(i);
        tracer.finish(handle, 200);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "sampling-off trace begin/record/finish + histogram recording allocated {delta} times"
    );
}
