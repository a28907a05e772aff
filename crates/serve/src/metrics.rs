//! Lock-free serving metrics: latency histograms, throughput counters and the
//! batch-size distribution, declared once into the `GET /metrics` registry.

use crate::exposition::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Largest batch size tracked exactly by the batch-size distribution; bigger batches
/// land in the final (overflow) bucket.
pub const MAX_TRACKED_BATCH: usize = 64;

/// Number of geometric latency buckets (1 µs doubling up to ~17 minutes, plus overflow
/// inside the last bucket).
const LATENCY_BUCKETS: usize = 31;

/// A fixed-bucket geometric latency histogram recording microsecond values.
///
/// Bucket `i` counts samples in `(2^(i-1), 2^i]` µs (`i = 0` counts `<= 1 µs`); the
/// last bucket absorbs everything larger. Quantiles are read as the upper bound of the
/// bucket containing the target rank — a conservative estimate whose error is bounded
/// by the 2× bucket ratio, which is plenty for p50/p95/p99 trend tracking.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS],
    sum_us: AtomicU64,
    total: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    fn bucket_for(us: u64) -> usize {
        let us = us.max(1);
        ((64 - us.leading_zeros() as usize) - 1 + usize::from(!us.is_power_of_two()))
            .min(LATENCY_BUCKETS - 1)
    }

    /// Records one latency sample in microseconds.
    pub fn record_us(&self, us: u64) {
        self.counts[Self::bucket_for(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Number of buckets (see [`LatencyHistogram::bucket_counts`]); the last bucket
    /// is the overflow bucket, rendered as `+Inf` by the Prometheus encoder.
    pub const BUCKETS: usize = LATENCY_BUCKETS;

    /// Raw per-bucket counts. Bucket `i < 30` has upper bound `2^i` µs; the last
    /// bucket absorbs everything larger. Reads are relaxed — encoders must derive
    /// totals from this snapshot (not [`LatencyHistogram::count`]) so cumulative
    /// invariants hold under concurrent recording.
    pub fn bucket_counts(&self) -> [u64; Self::BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Sum of all recorded samples in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket holding the `q`-quantile sample (0 when empty).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, bucket) in self.counts.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-attention-variant serving counters: how many requests each variant answered and
/// its end-to-end latency histogram, so the taylor/softmax/unified comparison is
/// readable straight off `/metrics` without the bench harness.
#[derive(Debug, Default)]
pub struct VariantStats {
    /// Requests answered by this variant.
    pub requests: AtomicU64,
    /// End-to-end latency of this variant's requests.
    pub latency: LatencyHistogram,
    /// Stage breakdown: submit → batch formed.
    pub queue_wait: LatencyHistogram,
    /// Stage breakdown: kernel compute (`infer_batch_into`) per batch, attributed to
    /// every request riding the batch.
    pub compute: LatencyHistogram,
    /// Stage breakdown: response serialize + socket write.
    pub write: LatencyHistogram,
}

/// All counters and histograms one server instance maintains. Every per-request field
/// is atomic, so the hot path never takes a lock to record; the per-variant map is
/// resolved once per *batch* (not per request) under a short-lived mutex.
#[derive(Debug)]
pub struct Metrics {
    /// Requests admitted into the batching queue.
    pub submitted: AtomicU64,
    /// Requests answered successfully.
    pub completed: AtomicU64,
    /// Requests shed at admission (queue full).
    pub shed: AtomicU64,
    /// Requests shed because their `deadline_ms` budget expired before inference
    /// started (answered with a typed 504, no compute spent).
    pub expired: AtomicU64,
    /// Worker batches that panicked mid-inference (the pool survives; every request
    /// in the batch is answered with a 500 via its dropped reply channel).
    pub worker_panics: AtomicU64,
    /// Requests answered with a non-shed error.
    pub failed: AtomicU64,
    /// Batches handed to workers.
    pub batches: AtomicU64,
    /// Batches currently running inference on a worker (incremented just before
    /// `infer_batch_into`, decremented — panic-safely — the moment it returns,
    /// *before* any reply is sent, so a client probing right after its reply never
    /// reads a stale nonzero count). Together with the admission-queue depth this is
    /// the load signal `/healthz` exports for least-loaded routing in front of
    /// several engines.
    pub in_flight_batches: AtomicU64,
    /// Total images across all formed batches (mean batch = images / batches).
    pub batched_images: AtomicU64,
    /// End-to-end latency: submit → response ready.
    pub latency: LatencyHistogram,
    /// Queue wait: submit → batch formed.
    pub queue_wait: LatencyHistogram,
    batch_sizes: [AtomicU64; MAX_TRACKED_BATCH + 1],
    variants: Mutex<BTreeMap<&'static str, Arc<VariantStats>>>,
    started: Instant,
}

impl Metrics {
    /// Creates a zeroed metrics block; `started` anchors the throughput window.
    pub fn new() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            in_flight_batches: AtomicU64::new(0),
            batched_images: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            batch_sizes: std::array::from_fn(|_| AtomicU64::new(0)),
            variants: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    /// The per-variant counter block for `label`, created on first use.
    ///
    /// Workers resolve this once per formed batch and then record through the returned
    /// `Arc` lock-free; variant labels are `'static` (they come from
    /// `AttentionVariant::label`), so the map stays tiny and allocation-stable.
    pub fn variant(&self, label: &'static str) -> Arc<VariantStats> {
        Arc::clone(
            self.variants
                .lock()
                .expect("variant metrics lock poisoned")
                .entry(label)
                .or_default(),
        )
    }

    /// Records one formed batch of `size` images.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_images
            .fetch_add(size as u64, Ordering::Relaxed);
        let idx = size.clamp(1, MAX_TRACKED_BATCH + 1) - 1;
        self.batch_sizes[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Largest batch size observed so far (0 when no batch has formed).
    pub fn max_batch(&self) -> usize {
        for i in (0..=MAX_TRACKED_BATCH).rev() {
            if self.batch_sizes[i].load(Ordering::Relaxed) > 0 {
                return i + 1;
            }
        }
        0
    }

    /// Mean images per formed batch (0 when no batch has formed).
    pub fn mean_batch(&self) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 {
            0.0
        } else {
            self.batched_images.load(Ordering::Relaxed) as f64 / batches as f64
        }
    }

    /// Completed requests per second since the server started.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed.load(Ordering::Relaxed) as f64 / secs
        }
    }

    /// Declares every serving series once, under the `vitality_serve_` prefix:
    /// request counters, the end-to-end and queue-wait histograms, the batch-size
    /// distribution and per-variant request/latency/stage series — both bodies of
    /// `GET /metrics` render from these declarations.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        let load = |value: &AtomicU64| value.load(Ordering::Relaxed);
        reg.gauge(
            "uptime_s",
            "vitality_serve_uptime_seconds",
            "Seconds since this engine started",
            self.started.elapsed().as_secs_f64(),
        );
        // The *resolved* matmul backend (env request reconciled against the host's
        // CPU features), the f32 register tile it runs and the raw feature flags — so
        // a fleet operator can tell from `/metrics` alone which SIMD kernels a node
        // actually runs.
        reg.scope(&["compute"], &[], |reg| {
            let cpu = vitality_tensor::cpu_features();
            reg.json("matmul_backend", vitality_tensor::matmul_backend().label());
            reg.json("f32_tile", cpu.tier().label());
            reg.json("cpu_avx2", cpu.avx2);
            reg.json("cpu_fma", cpu.fma);
        });
        for (key, name, help, value) in [
            (
                "submitted",
                "vitality_serve_requests_submitted_total",
                "Requests admitted into the batching queue",
                &self.submitted,
            ),
            (
                "completed",
                "vitality_serve_requests_completed_total",
                "Requests answered successfully",
                &self.completed,
            ),
            (
                "shed",
                "vitality_serve_requests_shed_total",
                "Requests shed at admission (queue full)",
                &self.shed,
            ),
            (
                "expired",
                "vitality_serve_requests_expired_total",
                "Requests shed because their deadline budget expired before inference",
                &self.expired,
            ),
            (
                "worker_panics",
                "vitality_serve_worker_panics_total",
                "Worker batches that panicked mid-inference",
                &self.worker_panics,
            ),
            (
                "failed",
                "vitality_serve_requests_failed_total",
                "Requests answered with a non-shed error",
                &self.failed,
            ),
        ] {
            reg.counter(key, name, help, load(value));
        }
        reg.json("throughput_rps", self.throughput_rps());
        reg.histogram(
            "latency",
            "vitality_serve_latency_us",
            "End-to-end request latency (submit to response ready), microseconds",
            &self.latency,
        );
        reg.histogram(
            "queue_wait",
            "vitality_serve_queue_wait_us",
            "Queue wait (submit to batch formed), microseconds",
            &self.queue_wait,
        );
        reg.scope(&["batching"], &[], |reg| {
            reg.counter(
                "batches",
                "vitality_serve_batches_total",
                "Batches handed to workers",
                load(&self.batches),
            );
            reg.gauge(
                "in_flight_batches",
                "vitality_serve_in_flight_batches",
                "Batches currently running inference on a worker",
                load(&self.in_flight_batches),
            );
            reg.json("mean_batch", self.mean_batch());
            reg.json("max_batch", self.max_batch());
            reg.scope(&["size_distribution"], &[], |reg| {
                for (i, bucket) in self.batch_sizes.iter().enumerate() {
                    let count = load(bucket);
                    if count == 0 {
                        continue;
                    }
                    let size = if i < MAX_TRACKED_BATCH {
                        format!("{}", i + 1)
                    } else {
                        format!(">{MAX_TRACKED_BATCH}")
                    };
                    reg.scope(&[], &[("size", &size)], |reg| {
                        reg.counter(
                            &size,
                            "vitality_serve_batches_by_size_total",
                            "Formed batches by size",
                            count,
                        )
                    });
                }
            });
        });
        reg.scope(&["variants"], &[], |reg| {
            let variants = self.variants.lock().expect("variant metrics lock poisoned");
            for (label, stats) in variants.iter() {
                reg.scope(&[label], &[("variant", label)], |reg| {
                    reg.counter(
                        "requests",
                        "vitality_serve_variant_requests_total",
                        "Requests answered, by attention variant",
                        load(&stats.requests),
                    );
                    reg.histogram(
                        "",
                        "vitality_serve_variant_latency_us",
                        "End-to-end request latency by attention variant, microseconds",
                        &stats.latency,
                    );
                    for (stage, hist) in [
                        ("queue_wait", &stats.queue_wait),
                        ("compute", &stats.compute),
                        ("write", &stats.write),
                    ] {
                        reg.scope(&["stages", stage], &[("stage", stage)], |reg| {
                            reg.histogram(
                                "",
                                "vitality_serve_variant_stage_us",
                                "Per-stage latency by attention variant, microseconds",
                                hist,
                            )
                        });
                    }
                });
            }
        });
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::JsonValue;

    /// The JSON `/metrics` body the metrics block declares.
    fn snapshot(m: &Metrics) -> JsonValue {
        let mut reg = MetricsRegistry::new();
        m.register(&mut reg);
        reg.into_json()
    }

    #[test]
    fn latency_buckets_are_geometric_and_inclusive() {
        assert_eq!(LatencyHistogram::bucket_for(0), 0);
        assert_eq!(LatencyHistogram::bucket_for(1), 0);
        assert_eq!(LatencyHistogram::bucket_for(2), 1);
        assert_eq!(LatencyHistogram::bucket_for(3), 2);
        assert_eq!(LatencyHistogram::bucket_for(4), 2);
        assert_eq!(LatencyHistogram::bucket_for(5), 3);
        assert_eq!(LatencyHistogram::bucket_for(1024), 10);
        assert_eq!(LatencyHistogram::bucket_for(1025), 11);
        assert_eq!(LatencyHistogram::bucket_for(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_the_recorded_samples() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 40, 80, 100, 200, 400, 800, 1000, 4000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        // The p50 bucket upper bound must be >= the true median (100) and within one
        // doubling of it.
        let p50 = h.quantile_us(0.50);
        assert!((100..=256).contains(&p50), "p50 bucket bound {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 4000, "p99 bucket bound {p99}");
        assert!(h.mean_us() > 0.0);
        assert_eq!(LatencyHistogram::new().quantile_us(0.5), 0);
    }

    #[test]
    fn per_variant_counters_appear_in_the_snapshot() {
        let m = Metrics::new();
        let taylor = m.variant("taylor");
        taylor.requests.fetch_add(3, Ordering::Relaxed);
        taylor.latency.record_us(120);
        taylor.latency.record_us(340);
        taylor.latency.record_us(90);
        let unified = m.variant("unified");
        unified.requests.fetch_add(1, Ordering::Relaxed);
        unified.latency.record_us(500);
        // Re-resolving a label returns the same counter block.
        m.variant("taylor").requests.fetch_add(1, Ordering::Relaxed);

        m.variant("taylor").queue_wait.record_us(40);
        m.variant("taylor").compute.record_us(300);
        m.variant("taylor").write.record_us(15);

        let snap = snapshot(&m);
        let variants = snap.get("variants").expect("variants object");
        let t = variants.get("taylor").expect("taylor block");
        assert_eq!(t.get("requests").and_then(JsonValue::as_usize), Some(4));
        let stages = t.get("stages").expect("stages block");
        for stage in ["queue_wait", "compute", "write"] {
            let block = stages.get(stage).expect("stage block");
            assert_eq!(block.get("count").and_then(JsonValue::as_usize), Some(1));
            assert!(block.get("p95_us").and_then(JsonValue::as_usize).unwrap() > 0);
        }
        assert!(t.get("p50_us").and_then(JsonValue::as_usize).unwrap() >= 120);
        let u = variants.get("unified").expect("unified block");
        assert_eq!(u.get("requests").and_then(JsonValue::as_usize), Some(1));
        assert_eq!(u.get("p99_us").and_then(JsonValue::as_usize), Some(512));
    }

    #[test]
    fn snapshot_reports_the_resolved_matmul_backend() {
        let snap = snapshot(&Metrics::new());
        let compute = snap.get("compute").expect("compute block");
        let backend = compute
            .get("matmul_backend")
            .and_then(JsonValue::as_str)
            .expect("matmul_backend label");
        assert!(
            ["naive", "blocked"].contains(&backend),
            "unknown backend label {backend:?}"
        );
        assert_eq!(
            compute.get("f32_tile").and_then(JsonValue::as_str),
            Some(vitality_tensor::SimdTier::host().label())
        );
        assert!(compute.get("cpu_avx2").is_some());
        assert!(compute.get("cpu_fma").is_some());
    }

    #[test]
    fn batch_distribution_tracks_max_and_mean() {
        let m = Metrics::new();
        assert_eq!(m.max_batch(), 0);
        m.record_batch(1);
        m.record_batch(7);
        m.record_batch(7);
        m.record_batch(MAX_TRACKED_BATCH + 10); // overflow bucket
        assert_eq!(m.max_batch(), MAX_TRACKED_BATCH + 1);
        assert!((m.mean_batch() - (1.0 + 7.0 + 7.0 + 74.0) / 4.0).abs() < 1e-9);
        let snap = snapshot(&m);
        let dist = snap
            .get("batching")
            .and_then(|b| b.get("size_distribution"))
            .expect("distribution present");
        assert_eq!(dist.get("7").and_then(JsonValue::as_usize), Some(2));
        assert_eq!(dist.get(">64").and_then(JsonValue::as_usize), Some(1));
    }
}
