//! The backend pool: one engine process per entry, probed over `/healthz`, routed by
//! least observed load, ejected when dead and re-admitted when probes succeed again.
//!
//! # Load signal
//!
//! Each probe records the queue depth and in-flight batch count an engine's
//! `/healthz` now reports. Between probes the gateway tracks its own in-flight call
//! count per backend, so [`BackendPool::pick`] ranks backends by
//! `own in-flight × 2 + probed queue depth + probed in-flight batches` — the gateway's
//! unanswered calls are the freshest signal and get double weight; the probed numbers
//! fill in load from other traffic sources (other gateways, direct clients).
//!
//! # Failure handling
//!
//! * A request-path I/O failure ejects the backend immediately (the gateway just
//!   watched the connection die) and drops its pooled connections.
//! * Probe failures eject after a configured consecutive count, so a one-off slow
//!   probe does not flap a healthy engine.
//! * A 503 with `Retry-After` puts the backend in a bounded *cooldown* — still
//!   healthy, just skipped until the hint expires.
//! * Any successful probe re-admits the backend and resets its failure count.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::json::JsonValue;
use vitality_serve::{ClientError, InferReply, MetricsRegistry, ServeClient};
use vitality_tensor::Matrix;

/// Cap on pooled idle keep-alive connections per backend. Beyond this, a finished
/// call's connection is dropped instead of pooled — without a cap, one
/// concurrency-64 burst would pin 64 sockets (and 64 engine connection-handler
/// threads) per backend for the gateway's lifetime.
const MAX_IDLE_CONNECTIONS: usize = 16;

/// One engine backend: address, probed health/load state and a small pool of idle
/// keep-alive connections.
#[derive(Debug)]
pub struct Backend {
    addr: SocketAddr,
    healthy: AtomicBool,
    /// Bumped by every [`Backend::eject`]; a probe only re-admits when the epoch it
    /// started under is still current, so a probe answered by an engine that died
    /// (or drained) while the probe was in flight cannot re-admit a dead backend.
    eject_epoch: AtomicU64,
    consecutive_probe_failures: AtomicU32,
    cooldown_until: Mutex<Option<Instant>>,
    /// Last probed `/healthz` queue depth.
    queue_depth: AtomicU64,
    /// Last probed `/healthz` in-flight batch count.
    in_flight_batches: AtomicU64,
    /// Calls this gateway currently has outstanding against the backend.
    gateway_in_flight: AtomicU64,
    /// Admission bound on `gateway_in_flight` (0 = unbounded); a backend at the cap
    /// is skipped by routing like one briefly cooling down.
    in_flight_limit: AtomicU64,
    /// Whether the backend advertised the binary image encoding on its last
    /// successful probe (`"binary"` under `"encodings"` in `/healthz`) — the
    /// negotiation gate for sending it compact request bodies.
    supports_binary: AtomicBool,
    /// Model keys the backend reported serving.
    models: Mutex<Vec<String>>,
    /// Idle keep-alive connections, reused across calls.
    idle: Mutex<Vec<ServeClient>>,
    // Counters for the gateway's /metrics.
    requests: AtomicU64,
    errors: AtomicU64,
    ejections: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
}

impl Backend {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            // Unknown until the first probe; `Gateway::start` runs a synchronous
            // probe round, so a reachable backend is admitted before traffic.
            healthy: AtomicBool::new(false),
            eject_epoch: AtomicU64::new(0),
            consecutive_probe_failures: AtomicU32::new(0),
            cooldown_until: Mutex::new(None),
            queue_depth: AtomicU64::new(0),
            in_flight_batches: AtomicU64::new(0),
            gateway_in_flight: AtomicU64::new(0),
            in_flight_limit: AtomicU64::new(0),
            supports_binary: AtomicBool::new(false),
            models: Mutex::new(Vec::new()),
            idle: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            probes_ok: AtomicU64::new(0),
            probes_failed: AtomicU64::new(0),
        }
    }

    /// The backend's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the backend is currently admitted for routing.
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// The ranking key of least-loaded routing (see the module docs).
    fn load(&self) -> u64 {
        self.gateway_in_flight.load(Ordering::Relaxed) * 2
            + self.queue_depth.load(Ordering::Relaxed)
            + self.in_flight_batches.load(Ordering::Relaxed)
    }

    /// Whether the backend may receive a request right now (healthy, under its
    /// in-flight cap and not cooling down). Returns the cooldown expiry when a wait
    /// would help (cooldown, or the cap — capped backends clear in milliseconds, so
    /// they count as briefly cooling rather than unavailable).
    fn availability(&self) -> Result<(), Option<Instant>> {
        if !self.healthy() {
            return Err(None);
        }
        let limit = self.in_flight_limit.load(Ordering::Relaxed);
        if limit > 0 && self.gateway_in_flight.load(Ordering::Relaxed) >= limit {
            return Err(Some(Instant::now() + Duration::from_millis(5)));
        }
        let mut cooldown = self.cooldown_until.lock().expect("cooldown lock poisoned");
        match *cooldown {
            Some(until) if Instant::now() < until => Err(Some(until)),
            Some(_) => {
                *cooldown = None;
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Puts the backend in a bounded cooldown (the 503 `Retry-After` path).
    pub fn set_cooldown(&self, duration: Duration) {
        let until = Instant::now() + duration;
        let mut cooldown = self.cooldown_until.lock().expect("cooldown lock poisoned");
        *cooldown = Some(cooldown.map_or(until, |existing| existing.max(until)));
    }

    /// Ejects the backend from routing until a probe succeeds again.
    pub fn eject(&self) {
        self.eject_epoch.fetch_add(1, Ordering::SeqCst);
        if self.healthy.swap(false, Ordering::SeqCst) {
            self.ejections.fetch_add(1, Ordering::Relaxed);
            trace::warn!(
                "ejected backend {} (ejection #{})",
                self.addr,
                self.ejections.load(Ordering::Relaxed)
            );
        }
        // Pooled connections to a dead engine are useless; drop them so re-admission
        // starts from fresh sockets.
        self.idle.lock().expect("idle pool poisoned").clear();
    }

    /// Runs one inference call on a pooled (or fresh) keep-alive connection.
    ///
    /// `deadline_ms` is the request's *remaining* budget, forwarded on the wire so
    /// the engine's batcher can shed the request if it expires in the engine queue;
    /// it also tightens this call's socket read timeout — there is no point waiting
    /// `timeout` for an answer the deadline has already disqualified.
    ///
    /// On success the connection returns to the idle pool; on failure it is dropped.
    /// The per-call `gateway_in_flight` window around this is maintained by the
    /// caller via [`InFlightGuard`].
    ///
    /// `request_id` is propagated to the engine verbatim so one id names the request
    /// across every hop (and every retry attempt); `want_trace` asks the engine to
    /// embed its span list in the reply, which the caller grafts under its own
    /// backend-attempt span.
    pub fn call(
        &self,
        model_key: &str,
        image: &Matrix,
        timeout: Duration,
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
        want_trace: bool,
    ) -> Result<(InferReply, Option<Vec<trace::Span>>), ClientError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Grace on top of the budget so an engine-side 504 (typed, precise) wins the
        // race against this socket timing out (opaque).
        let effective = deadline_ms.map_or(timeout, |ms| {
            timeout.min(Duration::from_millis(ms.saturating_add(50)))
        });
        // The timeout is re-armed on every checkout: a pooled connection carries
        // whatever the previous call's deadline dictated.
        let mut client = match self.checkout(effective) {
            Ok(client) => client,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Err(ClientError::Io(e));
            }
        };
        // Negotiated per probe round, re-armed per checkout (a pooled connection
        // carries whatever the previous call decided, and the flag may have
        // changed between probes — e.g. after a rolling engine downgrade).
        client.set_binary(self.supports_binary.load(Ordering::Relaxed));
        let options = vitality_serve::InferOptions {
            deadline_ms,
            request_id,
            trace: want_trace,
            ..Default::default()
        };
        match client.infer_detailed(model_key, image, &options) {
            Ok(response) => {
                self.recycle(client);
                Ok((response.reply, response.trace))
            }
            Err(err) => {
                // Server-typed errors leave the connection in a known-good framing
                // state (the response was read in full); only transport-level
                // failures poison it.
                if matches!(err, ClientError::Server { .. }) {
                    self.recycle(client);
                } else {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
                Err(err)
            }
        }
    }

    /// Returns a connection to the idle pool, or drops it at the cap (see
    /// [`MAX_IDLE_CONNECTIONS`]).
    fn recycle(&self, client: ServeClient) {
        let mut idle = self.idle.lock().expect("idle pool poisoned");
        if idle.len() < MAX_IDLE_CONNECTIONS {
            idle.push(client);
        }
    }

    fn checkout(&self, timeout: Duration) -> std::io::Result<ServeClient> {
        let mut client = match self.idle.lock().expect("idle pool poisoned").pop() {
            Some(client) => client,
            None => ServeClient::connect(self.addr)?,
        };
        client.set_timeout(Some(timeout))?;
        Ok(client)
    }

    /// One health probe on a fresh connection: refreshes the load signal and the
    /// served-model list, re-admits on success, ejects after the configured number of
    /// consecutive failures.
    pub fn probe(&self, timeout: Duration, eject_after: u32) -> bool {
        let epoch = self.eject_epoch.load(Ordering::SeqCst);
        let result = (|| -> Result<JsonValue, ClientError> {
            // Chaos site: `return` makes this probe round report the backend down
            // without touching the wire — a flapping health check against a healthy
            // engine (scope with `@gateway-probe` to spare request-path traffic).
            if failpoint::fire("gateway-probe-flap") {
                return Err(ClientError::Protocol("failpoint: probe flap".to_string()));
            }
            let mut client = ServeClient::connect(self.addr).map_err(ClientError::Io)?;
            client.set_timeout(Some(timeout)).map_err(ClientError::Io)?;
            let (status, body) = client.get("/healthz")?;
            if status != 200 {
                return Err(ClientError::Protocol(format!("healthz answered {status}")));
            }
            Ok(body)
        })();
        match result {
            Ok(body) => {
                if let Some(depth) = body.get("queue_depth").and_then(JsonValue::as_usize) {
                    self.queue_depth.store(depth as u64, Ordering::Relaxed);
                }
                if let Some(batches) = body.get("in_flight_batches").and_then(JsonValue::as_usize) {
                    self.in_flight_batches
                        .store(batches as u64, Ordering::Relaxed);
                }
                if let Some(models) = body.get("models").and_then(JsonValue::as_array) {
                    *self.models.lock().expect("models lock poisoned") = models
                        .iter()
                        .filter_map(JsonValue::as_str)
                        .map(str::to_string)
                        .collect();
                }
                // Binary-encoding negotiation: advertised → use it; absent (an
                // engine predating the encoding) → plain JSON.
                let binary = body
                    .get("encodings")
                    .and_then(JsonValue::as_array)
                    .is_some_and(|e| e.iter().any(|v| v.as_str() == Some("binary")));
                self.supports_binary.store(binary, Ordering::Relaxed);
                self.consecutive_probe_failures.store(0, Ordering::SeqCst);
                self.probes_ok.fetch_add(1, Ordering::Relaxed);
                // Re-admit only when no ejection landed while this probe was in
                // flight: a draining engine still answers healthz, and a stale
                // success must not resurrect a backend a request just watched die.
                // (The next probe round, under the new epoch, decides afresh.)
                if self.eject_epoch.load(Ordering::SeqCst) == epoch
                    && !self.healthy.swap(true, Ordering::SeqCst)
                {
                    trace::info!("re-admitted backend {} after a successful probe", self.addr);
                }
                true
            }
            Err(err) => {
                self.probes_failed.fetch_add(1, Ordering::Relaxed);
                let failures = self
                    .consecutive_probe_failures
                    .fetch_add(1, Ordering::SeqCst)
                    + 1;
                trace::debug!(
                    "probe of backend {} failed ({failures} consecutive): {err:?}",
                    self.addr
                );
                if failures >= eject_after {
                    self.eject();
                }
                false
            }
        }
    }

    /// Model keys the backend last reported serving.
    pub fn models(&self) -> Vec<String> {
        self.models.lock().expect("models lock poisoned").clone()
    }

    /// Whether the backend last reported serving `model_key` (checked under the
    /// lock without cloning — this sits on the per-request hot path).
    pub fn serves(&self, model_key: &str) -> bool {
        self.models
            .lock()
            .expect("models lock poisoned")
            .iter()
            .any(|m| m == model_key)
    }

    /// Declares the backend's series: one element of the JSON `backends` array,
    /// labelled `backend=<addr>` in Prometheus.
    fn register(&self, reg: &mut MetricsRegistry) {
        let addr = self.addr.to_string();
        let load = |value: &AtomicU64| value.load(Ordering::Relaxed);
        reg.item("backends", &[("backend", &addr)], |reg| {
            reg.json("addr", addr.as_str());
            reg.gauge(
                "healthy",
                "vitality_gateway_backend_healthy",
                "Per-backend health (1 healthy, 0 ejected)",
                self.healthy(),
            );
            for (key, name, help, value) in [
                (
                    "gateway_in_flight",
                    "vitality_gateway_backend_gateway_in_flight",
                    "Calls this gateway has outstanding against the backend",
                    &self.gateway_in_flight,
                ),
                (
                    "queue_depth",
                    "vitality_gateway_backend_queue_depth",
                    "The backend's last probed admission-queue depth",
                    &self.queue_depth,
                ),
                (
                    "in_flight_batches",
                    "vitality_gateway_backend_in_flight_batches",
                    "The backend's last probed in-flight batch count",
                    &self.in_flight_batches,
                ),
            ] {
                reg.gauge(key, name, help, load(value));
            }
            for (key, name, help, value) in [
                (
                    "requests",
                    "vitality_gateway_backend_requests_total",
                    "Calls made to the backend",
                    &self.requests,
                ),
                (
                    "errors",
                    "vitality_gateway_backend_errors_total",
                    "Calls to the backend that failed",
                    &self.errors,
                ),
                (
                    "ejections",
                    "vitality_gateway_backend_ejections_total",
                    "Times the backend was ejected from routing",
                    &self.ejections,
                ),
                (
                    "probes_ok",
                    "vitality_gateway_backend_probes_ok_total",
                    "Successful health probes of the backend",
                    &self.probes_ok,
                ),
                (
                    "probes_failed",
                    "vitality_gateway_backend_probes_failed_total",
                    "Failed health probes of the backend",
                    &self.probes_failed,
                ),
            ] {
                reg.counter(key, name, help, load(value));
            }
        });
    }
}

/// RAII window of one gateway call against a backend: bumps `gateway_in_flight` for
/// the duration, so concurrent handlers see each other's outstanding calls when
/// ranking backends.
#[derive(Debug)]
pub struct InFlightGuard {
    backend: Arc<Backend>,
}

impl InFlightGuard {
    /// Opens the window.
    pub fn new(backend: Arc<Backend>) -> Self {
        backend.gateway_in_flight.fetch_add(1, Ordering::Relaxed);
        Self { backend }
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.backend
            .gateway_in_flight
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// The outcome of one routing decision.
#[derive(Debug)]
pub enum Pick {
    /// The least-loaded available backend (pool index + handle).
    Chosen(usize, Arc<Backend>),
    /// Every non-excluded backend is merely cooling down; the earliest expiry.
    Cooling(Instant),
    /// No backend is available or cooling (all ejected or excluded).
    None,
}

/// The set of engine backends behind the gateway.
#[derive(Debug)]
pub struct BackendPool {
    backends: Vec<Arc<Backend>>,
    /// Rotates the scan origin so equally loaded backends share traffic.
    rotation: AtomicUsize,
}

impl BackendPool {
    /// Creates a pool over the given engine addresses (no probing yet; every backend
    /// starts unadmitted until its first successful probe).
    pub fn new(addrs: &[SocketAddr]) -> Self {
        Self {
            backends: addrs.iter().map(|&a| Arc::new(Backend::new(a))).collect(),
            rotation: AtomicUsize::new(0),
        }
    }

    /// All backends, in configuration order.
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.backends
    }

    /// Number of currently admitted backends.
    pub fn healthy_count(&self) -> usize {
        self.backends.iter().filter(|b| b.healthy()).count()
    }

    /// Picks the least-loaded available backend *that serves `model_key`*, skipping
    /// `excluded` pool indices (the retry loop excludes backends that already failed
    /// this request). Routing is model-aware, not just load-aware: in a
    /// heterogeneous pool (latency-tier variants on some engines, accuracy-tier on
    /// others) a request must never land on an engine that would answer 404 while
    /// capacity for its key idles elsewhere.
    pub fn pick(&self, model_key: &str, excluded: &[usize]) -> Pick {
        let start = self.rotation.fetch_add(1, Ordering::Relaxed);
        let mut best: Option<(u64, usize, &Arc<Backend>)> = None;
        let mut earliest_cooldown: Option<Instant> = None;
        for offset in 0..self.backends.len() {
            let index = (start + offset) % self.backends.len();
            if excluded.contains(&index) {
                continue;
            }
            let backend = &self.backends[index];
            if !backend.serves(model_key) {
                continue;
            }
            match backend.availability() {
                Ok(()) => {
                    let load = backend.load();
                    if best.is_none_or(|(best_load, _, _)| load < best_load) {
                        best = Some((load, index, backend));
                    }
                }
                Err(Some(until)) => {
                    earliest_cooldown =
                        Some(earliest_cooldown.map_or(until, |existing| existing.min(until)));
                }
                Err(None) => {}
            }
        }
        match (best, earliest_cooldown) {
            (Some((_, index, backend)), _) => Pick::Chosen(index, Arc::clone(backend)),
            (None, Some(until)) => Pick::Cooling(until),
            (None, None) => Pick::None,
        }
    }

    /// Probes every backend once (the prober thread's round; also run synchronously
    /// by `Gateway::start` so reachable backends are admitted before traffic).
    pub fn probe_all(&self, timeout: Duration, eject_after: u32) {
        for backend in &self.backends {
            backend.probe(timeout, eject_after);
        }
    }

    /// Whether any *admitted* backend reports serving `model_key`.
    pub fn serves(&self, model_key: &str) -> bool {
        self.backends
            .iter()
            .any(|b| b.healthy() && b.serves(model_key))
    }

    /// Whether *any* backend — admitted or ejected — has ever reported serving
    /// `model_key`. Distinguishes "this key does not exist in the cluster" (a
    /// deterministic 404) from "the engines serving it are temporarily down" (a
    /// retryable 503): model lists survive ejection, so a known key stays known
    /// while its backend restarts.
    pub fn known(&self, model_key: &str) -> bool {
        self.backends.iter().any(|b| b.serves(model_key))
    }

    /// Mean probed load — `queue_depth + in_flight_batches` — per admitted backend:
    /// the brownout controller's pressure signal. `0.0` with nothing admitted (an
    /// empty cluster has no queue pressure; it has an availability problem, which
    /// brownout cannot fix).
    pub fn mean_pressure(&self) -> f64 {
        let admitted: Vec<_> = self.backends.iter().filter(|b| b.healthy()).collect();
        if admitted.is_empty() {
            return 0.0;
        }
        let total: u64 = admitted
            .iter()
            .map(|b| {
                b.queue_depth.load(Ordering::Relaxed) + b.in_flight_batches.load(Ordering::Relaxed)
            })
            .sum();
        total as f64 / admitted.len() as f64
    }

    /// Declares every backend's series, in pool order (an empty pool still lists
    /// an empty `backends` array), and the admitted count.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        reg.json("backends", Vec::<JsonValue>::new());
        for backend in &self.backends {
            backend.register(reg);
        }
        reg.gauge(
            "healthy_backends",
            "vitality_gateway_healthy_backends",
            "Backends currently considered healthy",
            self.healthy_count(),
        );
    }

    /// Total ejection transitions across all backends since startup.
    pub fn ejection_total(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.ejections.load(Ordering::Relaxed))
            .sum()
    }

    /// Applies the per-backend in-flight admission cap (0 = unbounded) to every
    /// backend; see [`AdmissionConfig`](crate::config::AdmissionConfig).
    pub fn set_in_flight_limit(&self, limit: u64) {
        for backend in &self.backends {
            backend.in_flight_limit.store(limit, Ordering::Relaxed);
        }
    }

    /// The sorted, deduplicated union of every admitted backend's model list.
    pub fn model_union(&self) -> Vec<String> {
        let mut union: Vec<String> = self
            .backends
            .iter()
            .filter(|b| b.healthy())
            .flat_map(|b| b.models())
            .collect();
        union.sort();
        union.dedup();
        union
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> BackendPool {
        let addrs: Vec<SocketAddr> = (0..n)
            .map(|i| format!("127.0.0.1:{}", 40000 + i).parse().unwrap())
            .collect();
        BackendPool::new(&addrs)
    }

    /// Marks a backend admitted and serving `keys` (what a successful probe does).
    fn admit(backend: &Backend, keys: &[&str]) {
        backend.healthy.store(true, Ordering::SeqCst);
        *backend.models.lock().unwrap() = keys.iter().map(|k| (*k).to_string()).collect();
    }

    #[test]
    fn unprobed_backends_are_not_routable() {
        let pool = pool(2);
        assert_eq!(pool.healthy_count(), 0);
        assert!(matches!(pool.pick("m:taylor", &[]), Pick::None));
        assert!(!pool.serves("m:taylor"));
        assert!(pool.model_union().is_empty());
    }

    #[test]
    fn pick_prefers_the_least_loaded_admitted_backend() {
        let pool = pool(3);
        for b in pool.backends() {
            admit(b, &["m:taylor"]);
        }
        pool.backends()[0].queue_depth.store(5, Ordering::Relaxed);
        pool.backends()[1].queue_depth.store(1, Ordering::Relaxed);
        pool.backends()[2].queue_depth.store(9, Ordering::Relaxed);
        for _ in 0..4 {
            match pool.pick("m:taylor", &[]) {
                Pick::Chosen(index, _) => assert_eq!(index, 1),
                other => panic!("expected a pick, got {other:?}"),
            }
        }
        // The gateway's own in-flight calls outweigh probed queue depth 2:1.
        let _guards: Vec<InFlightGuard> = (0..4)
            .map(|_| InFlightGuard::new(Arc::clone(&pool.backends()[1])))
            .collect();
        match pool.pick("m:taylor", &[]) {
            Pick::Chosen(index, _) => assert_eq!(index, 0),
            other => panic!("expected a pick, got {other:?}"),
        }
        // Excluding the two best leaves the worst.
        match pool.pick("m:taylor", &[0, 1]) {
            Pick::Chosen(index, _) => assert_eq!(index, 2),
            other => panic!("expected a pick, got {other:?}"),
        }
        assert!(matches!(pool.pick("m:taylor", &[0, 1, 2]), Pick::None));
    }

    #[test]
    fn pick_is_model_aware_in_heterogeneous_pools() {
        // Engine 0 serves only the latency tier, engine 1 only the accuracy tier —
        // the split deployment the router exists for. Load must not override
        // serving: engine 1 is idle but cannot answer m:int8.
        let pool = pool(2);
        admit(&pool.backends()[0], &["m:int8"]);
        admit(&pool.backends()[1], &["m:unified"]);
        pool.backends()[0].queue_depth.store(50, Ordering::Relaxed);
        for _ in 0..4 {
            match pool.pick("m:int8", &[]) {
                Pick::Chosen(index, _) => assert_eq!(index, 0, "only engine 0 serves m:int8"),
                other => panic!("expected a pick, got {other:?}"),
            }
            match pool.pick("m:unified", &[]) {
                Pick::Chosen(index, _) => assert_eq!(index, 1),
                other => panic!("expected a pick, got {other:?}"),
            }
        }
        assert!(matches!(pool.pick("m:softmax", &[]), Pick::None));
    }

    #[test]
    fn cooldowns_sideline_then_release_a_backend() {
        let pool = pool(1);
        admit(&pool.backends()[0], &["m:taylor"]);
        pool.backends()[0].set_cooldown(Duration::from_millis(40));
        match pool.pick("m:taylor", &[]) {
            Pick::Cooling(until) => assert!(until > Instant::now()),
            other => panic!("expected cooling, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(60));
        assert!(matches!(pool.pick("m:taylor", &[]), Pick::Chosen(0, _)));
    }

    #[test]
    fn a_stale_probe_cannot_readmit_an_ejected_backend() {
        // A scripted healthz endpoint that holds its answer until told: the probe
        // goes out, an ejection lands while it is in flight, and only then does the
        // "healthy" answer arrive — it must not re-admit the backend.
        use std::sync::mpsc;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (got_probe_tx, got_probe_rx) = mpsc::channel::<()>();
        let (respond_tx, respond_rx) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            vitality_serve::http::MessageReader::new()
                .read_message(&mut stream, 1 << 20, &|| false)
                .unwrap()
                .unwrap();
            got_probe_tx.send(()).unwrap();
            respond_rx.recv().unwrap();
            let body =
                br#"{"status":"ok","models":["m:taylor"],"queue_depth":0,"in_flight_batches":0}"#;
            vitality_serve::http::write_response(&mut stream, 200, body, true).unwrap();
        });
        let pool = BackendPool::new(&[addr]);
        let backend = Arc::clone(&pool.backends()[0]);
        admit(&backend, &["m:taylor"]);
        let prober = {
            let backend = Arc::clone(&backend);
            std::thread::spawn(move || backend.probe(Duration::from_secs(5), 2))
        };
        got_probe_rx.recv().unwrap(); // the probe request is in flight
        backend.eject(); // ...when the ejection lands
        respond_tx.send(()).unwrap(); // now the healthz answer arrives
        assert!(prober.join().unwrap(), "the probe itself succeeded");
        assert!(
            !backend.healthy(),
            "a probe that predates the ejection must not re-admit the backend"
        );
        server.join().unwrap();
    }

    #[test]
    fn ejection_counts_transitions_and_clears_idle_connections() {
        let pool = pool(1);
        let backend = &pool.backends()[0];
        backend.healthy.store(true, Ordering::SeqCst);
        backend.eject();
        backend.eject(); // second call is a no-op transition-wise
        assert!(!backend.healthy());
        assert_eq!(backend.ejections.load(Ordering::Relaxed), 1);
        let mut reg = MetricsRegistry::new();
        pool.register(&mut reg);
        let snap = reg
            .into_json()
            .get("backends")
            .and_then(|b| b.as_array()?.first().cloned())
            .expect("backend block");
        assert_eq!(
            snap.get("healthy").and_then(JsonValue::as_bool),
            Some(false)
        );
        assert_eq!(snap.get("ejections").and_then(JsonValue::as_usize), Some(1));
    }

    #[test]
    fn the_in_flight_cap_sidelines_a_saturated_backend() {
        let pool = pool(2);
        for b in pool.backends() {
            admit(b, &["m:taylor"]);
        }
        pool.set_in_flight_limit(2);
        let _guards: Vec<InFlightGuard> = (0..2)
            .map(|_| InFlightGuard::new(Arc::clone(&pool.backends()[0])))
            .collect();
        for _ in 0..4 {
            match pool.pick("m:taylor", &[]) {
                Pick::Chosen(index, _) => assert_eq!(index, 1, "backend 0 is at its cap"),
                other => panic!("expected a pick, got {other:?}"),
            }
        }
        // Both at the cap: the pool reports a short cooldown, not a dead cluster —
        // in-flight windows close in milliseconds.
        let _more: Vec<InFlightGuard> = (0..2)
            .map(|_| InFlightGuard::new(Arc::clone(&pool.backends()[1])))
            .collect();
        assert!(matches!(pool.pick("m:taylor", &[]), Pick::Cooling(_)));
    }

    #[test]
    fn mean_pressure_averages_admitted_backends_only() {
        let pool = pool(3);
        admit(&pool.backends()[0], &["m"]);
        admit(&pool.backends()[1], &["m"]);
        pool.backends()[0].queue_depth.store(4, Ordering::Relaxed);
        pool.backends()[0]
            .in_flight_batches
            .store(2, Ordering::Relaxed);
        // Backend 2 is unadmitted; its (stale) numbers must not count.
        pool.backends()[2].queue_depth.store(100, Ordering::Relaxed);
        assert!((pool.mean_pressure() - 3.0).abs() < 1e-9);
        assert_eq!(pool.ejection_total(), 0);
    }

    #[test]
    fn probe_failures_eject_only_after_the_configured_streak() {
        // Nothing listens on the address, so every probe fails.
        let pool = pool(1);
        let backend = &pool.backends()[0];
        backend.healthy.store(true, Ordering::SeqCst);
        backend.probe(Duration::from_millis(50), 2);
        assert!(backend.healthy(), "one failed probe does not eject");
        backend.probe(Duration::from_millis(50), 2);
        assert!(!backend.healthy(), "the streak ejects");
    }
}
