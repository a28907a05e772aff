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
//! The same gate covers the tracing primitives riding the serve path: with sampling
//! off, opening/closing a trace and recording a stage histogram sample must also be
//! allocation-free, so observability costs nothing when it is not watching.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vitality::serve::LatencyHistogram;
use vitality::tensor::{init, Matrix, Workspace};
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
    // low-rank + sparse path, and the two int8 variants exercise the workspace's
    // integer (`Vec<i8>`/`Vec<i32>`) pools.
    for variant in [
        AttentionVariant::Taylor,
        AttentionVariant::Softmax,
        AttentionVariant::Unified { threshold: 0.5 },
        AttentionVariant::Int8Taylor {
            calibration: Int8Calibration::Dynamic,
        },
        AttentionVariant::Int8Unified {
            threshold: 0.5,
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

    // Hardware-counter regions ride the same batch path (the worker wraps each
    // `infer_batch_into` in a `PerfRegion`), so they are held to the same zero. The
    // first region on a thread opens the thread-local counter group — fds and the
    // group vector — which is a one-time cost, so one warmup region runs before the
    // counted window. The gate holds on both kinds of host: with counters available
    // the steady-state region is two `ioctl`s and a stack `read(2)`; without them
    // (`perf_event_open` refused, as in sandboxed CI) every region is a no-op. Both
    // paths must be allocation-free.
    let stats = perf::PerfStats::new();
    drop(perf::PerfRegion::enter(&stats)); // warmup: thread-local group opens here
    let before = allocations();
    for _ in 0..100 {
        let region = perf::PerfRegion::enter(&stats);
        std::hint::black_box(&images);
        drop(region);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state PerfRegion enter/exit allocated {delta} times (counters {})",
        if perf::supported() {
            "available"
        } else {
            "unavailable"
        }
    );

    // And the combined hot path — a counter region around the workspace-recycled
    // batch — stays at zero too, exactly as the serve worker runs it.
    model.set_variant(AttentionVariant::Taylor);
    let mut ws = Workspace::new();
    let mut outputs: Vec<VitOutput> = Vec::new();
    for _ in 0..3 {
        let _region = perf::PerfRegion::enter(&stats);
        model.infer_batch_into(&images, &mut outputs, &mut ws);
    }
    let before = allocations();
    for _ in 0..5 {
        let _region = perf::PerfRegion::enter(&stats);
        model.infer_batch_into(&images, &mut outputs, &mut ws);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "PerfRegion-wrapped steady-state infer_batch_into allocated {delta} times"
    );
    if perf::supported() {
        assert!(
            stats.regions() >= 8,
            "supported host must have accumulated every region"
        );
    }
}
