//! Gateway tunables: retry budget, health probing cadence, cache bounds and the
//! routing policy, bundled behind [`GatewayConfig`].

use std::time::Duration;

use crate::router::RoutingPolicy;

/// Bounds of the response cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total cached responses across all shards (0 disables caching entirely).
    pub capacity: usize,
    /// How long a cached response stays servable after insertion.
    pub ttl: Duration,
    /// Number of independently locked shards (clamped to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            ttl: Duration::from_secs(60),
            shards: 8,
        }
    }
}

/// Thresholds of the brownout degradation ladder (see
/// [`BrownoutController`](crate::brownout::BrownoutController)).
///
/// Pressure is the mean probed load — `queue_depth + in_flight_batches` from each
/// admitted backend's `/healthz` — per admitted backend, refreshed every prober
/// round. Past [`enter_pressure`](Self::enter_pressure) the gateway downgrades
/// `accuracy`-tier requests to the latency tier (ViTALiTy's int8 linear path)
/// instead of shedding them; it recovers once pressure falls to
/// [`exit_pressure`](Self::exit_pressure) and the state has been held for
/// [`min_hold`](Self::min_hold) (hysteresis, so a load spike cannot flap the tier
/// routing every probe round).
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Mean probed load per admitted backend at/above which brownout engages.
    pub enter_pressure: f64,
    /// Pressure at/below which brownout may disengage (must sit below
    /// `enter_pressure` — the gap is the hysteresis band).
    pub exit_pressure: f64,
    /// Minimum time brownout stays engaged once entered, so recovery is a decision,
    /// not a single quiet probe round.
    pub min_hold: Duration,
    /// Optional additional trigger: a p95 miss-path latency (µs) at/above which the
    /// gateway counts the cluster as pressured even with shallow probed queues.
    pub miss_p95_trigger_us: Option<u64>,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            enter_pressure: 8.0,
            exit_pressure: 2.0,
            min_hold: Duration::from_millis(500),
            miss_p95_trigger_us: None,
        }
    }
}

/// Bounds of gateway-side admission control.
///
/// The gateway bounds what it will take on *before* engines start shedding: a
/// request past either bound is answered 503 immediately, with a `Retry-After`
/// derived from the probed backend queue depth (deep queues → longer hint) instead
/// of a constant.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Largest number of inference requests this gateway handles concurrently
    /// (queued-at-gateway bound; 0 = unbounded).
    pub max_concurrent: usize,
    /// Largest number of calls the gateway keeps in flight against any single
    /// backend; a backend at the cap is skipped like one cooling down
    /// (0 = unbounded).
    pub max_per_backend_in_flight: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_concurrent: 512,
            max_per_backend_in_flight: 128,
        }
    }
}

/// Gateway tunables; `Default` is a sane local configuration on an ephemeral port.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back via
    /// [`Gateway::local_addr`](crate::Gateway::local_addr)).
    pub addr: String,
    /// How often the prober thread refreshes every backend's `/healthz` state (the
    /// least-loaded signal and the ejection/re-admission clock).
    pub probe_interval: Duration,
    /// Socket timeout of one health probe.
    pub probe_timeout: Duration,
    /// Consecutive failed probes before a healthy backend is ejected. Request-path
    /// I/O failures eject immediately — a connection the gateway just watched die
    /// needs no second opinion.
    pub eject_after_probe_failures: u32,
    /// Attempts per admitted request across distinct backends (at least 1). A failed
    /// attempt resubmits to a different backend, so an engine crash under load loses
    /// no admitted request while healthy capacity remains.
    pub retry_budget: usize,
    /// Per-call read timeout on backend connections.
    pub backend_timeout: Duration,
    /// Cap on any single back-off the retry loop honours (a backend's `Retry-After`
    /// is clamped to this, so one engine's long hint cannot stall the gateway).
    pub max_backoff: Duration,
    /// Response-cache bounds.
    pub cache: CacheConfig,
    /// The tier → variant routing policy.
    pub routing: RoutingPolicy,
    /// Brownout degradation thresholds.
    pub brownout: BrownoutConfig,
    /// Gateway-side admission bounds.
    pub admission: AdmissionConfig,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// The event loop's poll timeout (doubles as the shutdown poll interval).
    pub poll_interval: Duration,
    /// Threads in the infer dispatch pool — the blocking cache → route → retry
    /// pipeline runs here, off the connection event loop. This bounds how many
    /// inference requests the gateway *processes* concurrently (admission control
    /// still bounds how many it *accepts*); clamped to at least 2 so one stalled
    /// backend call can never serialize the whole gateway.
    pub dispatch_threads: usize,
    /// Request-tracing policy (sampling rate + `/debug/traces` ring size). The
    /// default reads `VITALITY_TRACE_SAMPLE` and keeps tracing off otherwise.
    pub trace: trace::TraceConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_secs(1),
            eject_after_probe_failures: 2,
            retry_budget: 3,
            backend_timeout: Duration::from_secs(30),
            max_backoff: Duration::from_secs(1),
            cache: CacheConfig::default(),
            routing: RoutingPolicy::default(),
            brownout: BrownoutConfig::default(),
            admission: AdmissionConfig::default(),
            max_body_bytes: 16 * 1024 * 1024,
            poll_interval: Duration::from_millis(50),
            dispatch_threads: 32,
            trace: trace::TraceConfig::default(),
        }
    }
}
