//! Gateway-level metrics: request/retry/failover counters, hit- vs miss-path latency
//! histograms and per-resolved-variant routing counts, declared into the gateway's
//! `GET /metrics` registry beside the cache's and the backends' own series.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vitality_serve::{LatencyHistogram, MetricsRegistry};

/// All counters one gateway instance maintains (the cache and the backends keep
/// and declare their own).
#[derive(Debug)]
pub struct GatewayMetrics {
    /// Inference requests that reached routing (cache hits included).
    pub requests: AtomicU64,
    /// Requests answered 200 (from cache or a backend).
    pub completed: AtomicU64,
    /// Requests answered with any error status.
    pub failed: AtomicU64,
    /// Backend attempts beyond each request's first (the retry budget in action).
    pub retries: AtomicU64,
    /// Retries caused by a transport-level backend failure (the crash/failover path,
    /// as opposed to backpressure 503s).
    pub failovers: AtomicU64,
    /// Accuracy-tier requests downgraded to the latency variant by brownout.
    pub degraded: AtomicU64,
    /// Requests refused 503 by gateway-side admission control (never reached a
    /// backend).
    pub admission_shed: AtomicU64,
    /// Requests answered 504 because their `deadline_ms` budget expired at the
    /// gateway (shed pre-admission or mid-retry; engine-side expiries are counted by
    /// the engines' own `expired` counters).
    pub deadline_expired: AtomicU64,
    /// End-to-end latency of cache-hit responses.
    pub hit_latency: LatencyHistogram,
    /// End-to-end latency of responses that went to a backend.
    pub miss_latency: LatencyHistogram,
    /// Stage breakdown: individual backend call attempts (every attempt, including
    /// the failed ones a retry follows).
    pub backend_attempt: LatencyHistogram,
    /// Stage breakdown: response serialize + socket write back to the client.
    pub write: LatencyHistogram,
    /// Requests answered per resolved variant label (how tier routing is observed).
    routed: Mutex<BTreeMap<String, u64>>,
    started: Instant,
}

impl GatewayMetrics {
    /// Creates a zeroed metrics block.
    pub fn new() -> Self {
        Self {
            requests: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            admission_shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            hit_latency: LatencyHistogram::new(),
            miss_latency: LatencyHistogram::new(),
            backend_attempt: LatencyHistogram::new(),
            write: LatencyHistogram::new(),
            routed: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    /// Counts one answered request against its resolved variant label.
    pub fn record_routed(&self, resolved_key: &str) {
        let variant = resolved_key
            .split_once(':')
            .map_or(resolved_key, |(_, variant)| variant);
        *self
            .routed
            .lock()
            .expect("routed counters poisoned")
            .entry(variant.to_string())
            .or_insert(0) += 1;
    }

    /// Requests answered for the given variant label so far.
    pub fn routed_count(&self, variant: &str) -> u64 {
        self.routed
            .lock()
            .expect("routed counters poisoned")
            .get(variant)
            .copied()
            .unwrap_or(0)
    }

    /// Declares the gateway's own series once, under the `vitality_gateway_`
    /// prefix: request/retry/failover counters, hit- vs miss-path and stage
    /// histograms and per-variant routing counts.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        reg.gauge(
            "uptime_s",
            "vitality_gateway_uptime_seconds",
            "Seconds since this gateway started",
            self.started.elapsed().as_secs_f64(),
        );
        for (key, name, help, value) in [
            (
                "requests",
                "vitality_gateway_requests_total",
                "Inference requests that reached routing (cache hits included)",
                &self.requests,
            ),
            (
                "completed",
                "vitality_gateway_requests_completed_total",
                "Requests answered 200 (from cache or a backend)",
                &self.completed,
            ),
            (
                "failed",
                "vitality_gateway_requests_failed_total",
                "Requests answered with any error status",
                &self.failed,
            ),
            (
                "retries",
                "vitality_gateway_retries_total",
                "Backend attempts beyond each request's first",
                &self.retries,
            ),
            (
                "failovers",
                "vitality_gateway_failovers_total",
                "Retries caused by a transport-level backend failure",
                &self.failovers,
            ),
            (
                "degraded",
                "vitality_gateway_degraded_total",
                "Accuracy-tier requests downgraded by brownout",
                &self.degraded,
            ),
            (
                "admission_shed",
                "vitality_gateway_admission_shed_total",
                "Requests refused 503 by gateway-side admission control",
                &self.admission_shed,
            ),
            (
                "deadline_expired",
                "vitality_gateway_deadline_expired_total",
                "Requests answered 504 because their deadline expired at the gateway",
                &self.deadline_expired,
            ),
        ] {
            reg.counter(key, name, help, value.load(Ordering::Relaxed));
        }
        reg.histogram(
            "hit_latency",
            "vitality_gateway_hit_latency_us",
            "End-to-end latency of cache-hit responses, microseconds",
            &self.hit_latency,
        );
        reg.histogram(
            "miss_latency",
            "vitality_gateway_miss_latency_us",
            "End-to-end latency of responses that went to a backend, microseconds",
            &self.miss_latency,
        );
        for (stage, hist) in [
            ("backend_attempt", &self.backend_attempt),
            ("write", &self.write),
        ] {
            reg.scope(&["stages"], &[("stage", stage)], |reg| {
                reg.histogram(
                    stage,
                    "vitality_gateway_stage_us",
                    "Per-stage gateway latency, microseconds",
                    hist,
                )
            });
        }
        reg.scope(&["routed"], &[], |reg| {
            for (variant, count) in self.routed.lock().expect("routed counters poisoned").iter() {
                reg.scope(&[], &[("variant", variant)], |reg| {
                    reg.counter(
                        variant,
                        "vitality_gateway_routed_total",
                        "Requests answered per resolved variant label",
                        *count,
                    )
                });
            }
        });
    }
}

impl Default for GatewayMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResponseCache;
    use crate::pool::BackendPool;
    use serde::json::JsonValue;
    use std::time::Duration;

    #[test]
    fn routed_counts_key_on_the_variant_half() {
        let metrics = GatewayMetrics::new();
        metrics.record_routed("vit:int8");
        metrics.record_routed("vit:int8");
        metrics.record_routed("vit:unified");
        metrics.record_routed("bare"); // no variant half: counted verbatim
        assert_eq!(metrics.routed_count("int8"), 2);
        assert_eq!(metrics.routed_count("unified"), 1);
        assert_eq!(metrics.routed_count("bare"), 1);
        assert_eq!(metrics.routed_count("taylor"), 0);
    }

    #[test]
    fn snapshots_merge_cache_and_backend_blocks() {
        let metrics = GatewayMetrics::new();
        metrics.requests.fetch_add(3, Ordering::Relaxed);
        metrics.hit_latency.record_us(50);
        metrics.miss_latency.record_us(900);
        metrics.record_routed("m:taylor");
        let cache = ResponseCache::new(4, Duration::from_secs(1), 1);
        let pool = BackendPool::new(&["127.0.0.1:40100".parse().unwrap()]);
        let mut reg = MetricsRegistry::new();
        metrics.register(&mut reg);
        cache.register(&mut reg);
        pool.register(&mut reg);
        let snap = reg.into_json();
        assert_eq!(snap.get("requests").and_then(JsonValue::as_usize), Some(3));
        assert_eq!(
            snap.get("healthy_backends").and_then(JsonValue::as_usize),
            Some(0)
        );
        assert_eq!(
            snap.get("cache")
                .and_then(|c| c.get("hits"))
                .and_then(JsonValue::as_usize),
            Some(0)
        );
        assert_eq!(
            snap.get("routed")
                .and_then(|r| r.get("taylor"))
                .and_then(JsonValue::as_usize),
            Some(1)
        );
        assert_eq!(
            snap.get("backends")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(1)
        );
        assert!(
            snap.get("hit_latency")
                .and_then(|l| l.get("p50_us"))
                .and_then(JsonValue::as_usize)
                .unwrap()
                <= snap
                    .get("miss_latency")
                    .and_then(|l| l.get("p50_us"))
                    .and_then(JsonValue::as_usize)
                    .unwrap()
        );
    }
}
