//! The gateway front-end: the epoll connection front, the infer dispatch pool,
//! the health prober thread and the cache → route → retry request pipeline,
//! assembled behind [`Gateway::start`] / [`Gateway::shutdown`].

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::json::JsonValue;
use vitality_serve::protocol::{self, InferEnvelope};
use vitality_serve::{
    ClientError, Completion, EventFront, InferReply, MetricsRegistry, Reply, Service, Shell,
};
use vitality_tensor::Matrix;

use crate::brownout::BrownoutController;
use crate::cache::{image_hash, ResponseCache};
use crate::config::GatewayConfig;
use crate::error::GatewayError;
use crate::metrics::GatewayMetrics;
use crate::pool::{BackendPool, InFlightGuard, Pick};
use crate::router::Tier;

/// The gateway's [`Service`]: the state its loop thread, dispatch pool and
/// prober share.
struct Shared {
    config: GatewayConfig,
    pool: BackendPool,
    cache: ResponseCache,
    metrics: GatewayMetrics,
    brownout: BrownoutController,
    /// Inference requests currently inside the gateway (admission-control bound).
    in_flight_requests: AtomicU64,
    /// Infer work handed to the dispatch pool but not yet picked up by a
    /// dispatcher thread — the queue between the event loop and the blocking
    /// pipeline. A persistently nonzero depth means the dispatch pool, not the
    /// loop, is the bottleneck.
    dispatch_depth: AtomicU64,
    shutdown: AtomicBool,
}

/// RAII window of one admitted request against the gateway-wide concurrency bound.
struct AdmissionGuard<'a>(&'a Shared);

impl<'a> AdmissionGuard<'a> {
    /// Admits the request, or refuses it 503 with a queue-derived `Retry-After`.
    fn admit(shared: &'a Shared) -> Result<Self, GatewayError> {
        let limit = shared.config.admission.max_concurrent as u64;
        let in_flight = shared.in_flight_requests.fetch_add(1, Ordering::SeqCst) + 1;
        if limit > 0 && in_flight > limit {
            shared.in_flight_requests.fetch_sub(1, Ordering::SeqCst);
            shared
                .metrics
                .admission_shed
                .fetch_add(1, Ordering::Relaxed);
            return Err(GatewayError::AdmissionFull {
                in_flight,
                limit,
                retry_after: derived_retry_after(shared),
            });
        }
        Ok(Self(shared))
    }
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight_requests.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `Retry-After` seconds for an admission-full 503, derived from how long the probed
/// backlog would actually take to drain — probed queue pressure × the observed
/// miss-path p95 — instead of a constant. Clamped to [1, 10] s so a cold histogram
/// or a momentary spike cannot produce silly hints.
fn derived_retry_after(shared: &Shared) -> u64 {
    let pressure = shared.pool.mean_pressure();
    let p95_s = shared.metrics.miss_latency.quantile_us(0.95) as f64 / 1e6;
    (pressure * p95_s).ceil().clamp(1.0, 10.0) as u64
}

/// One infer request in flight between the connection front and the dispatch
/// pool: the owned request bytes (the front's parse buffer is only borrowed for
/// the duration of a dispatch call) and the completion that answers it.
struct InferWork {
    body: Vec<u8>,
    content_type: Option<String>,
    completion: Completion,
}

/// A running cluster gateway.
///
/// ```text
/// clients ──► event-loop front ──► dispatch pool ──► cache ──► router ──► retry loop
///               (epoll, one       (gateway-conn-<i>,  hit│                 │ pick / call
///                thread)           blocking pipeline)    ▼                 ▼
///                   ▲ completions                  cached reply    BackendPool ──► engines
///                                     prober thread ─ /healthz probes ──┘
/// ```
///
/// GETs (`/healthz`, `/metrics`, `/debug/traces`) answer inline on the event loop;
/// `POST /v1/infer` crosses to the dispatch pool, whose size bounds concurrent
/// pipeline executions (admission control still bounds accepted requests).
///
/// Start with [`Gateway::start`]; stop with [`Gateway::shutdown`]. The gateway holds
/// no request state of its own — shutting it down answers in-flight requests and
/// leaves the engines running.
pub struct Gateway {
    local_addr: SocketAddr,
    shell: Arc<Shell<Shared>>,
    front: EventFront,
    prober_handle: JoinHandle<()>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds the listener, runs one synchronous probe round (so reachable backends
    /// are admitted before the first request), and starts the connection front, the
    /// prober and the infer dispatch pool.
    ///
    /// # Errors
    ///
    /// Returns any bind error, or the connection front's start error (off Linux,
    /// [`io::ErrorKind::Unsupported`]: the front needs epoll). Unreachable backends
    /// are accepted — they stay unadmitted until a probe succeeds, which is exactly
    /// the re-admission path.
    pub fn start(config: GatewayConfig, backends: &[SocketAddr]) -> io::Result<Gateway> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let pool = BackendPool::new(backends);
        pool.set_in_flight_limit(config.admission.max_per_backend_in_flight);
        pool.probe_all(config.probe_timeout, config.eject_after_probe_failures);
        let shared = Shared {
            cache: ResponseCache::new(config.cache.capacity, config.cache.ttl, config.cache.shards),
            metrics: GatewayMetrics::new(),
            brownout: BrownoutController::new(config.brownout.clone()),
            in_flight_requests: AtomicU64::new(0),
            dispatch_depth: AtomicU64::new(0),
            pool,
            shutdown: AtomicBool::new(false),
            config,
        };
        // The boot probe round's pressure reading seeds the brownout controller, so
        // a gateway started into an already-hot cluster engages on request one.
        shared.brownout.observe(
            shared.pool.mean_pressure(),
            shared.metrics.miss_latency.quantile_us(0.95),
        );

        // The connection front starts first, so a host without epoll fails here
        // before any thread is spawned. The blocking pipeline must not run on the
        // event loop: infer requests cross as owned bytes to the dispatch pool,
        // where they wait in the channel until the pool below takes them. A send
        // can only fail during shutdown teardown; the completion's drop guard
        // answers 500 then.
        let (work_tx, work_rx) = mpsc::channel::<InferWork>();
        let trace = shared.config.trace.clone();
        let (shell, front) = Shell::start(
            listener,
            "gateway-conn".to_string(),
            shared.config.poll_interval,
            shared.config.max_body_bytes,
            &trace,
            shared,
            move |shell, request, completion| {
                let depth = &shell.service().dispatch_depth;
                depth.fetch_add(1, Ordering::Relaxed);
                let sent = work_tx.send(InferWork {
                    body: request.body.to_vec(),
                    content_type: request.header("content-type").map(str::to_string),
                    completion,
                });
                if sent.is_err() {
                    depth.fetch_sub(1, Ordering::Relaxed);
                }
            },
        )?;

        let prober_shell = Arc::clone(&shell);
        let prober_handle = std::thread::Builder::new()
            .name("gateway-probe".to_string())
            .spawn(move || {
                let prober_shared = prober_shell.service();
                // Sleep in short slices so shutdown is prompt even with a long
                // probe interval.
                let slice = Duration::from_millis(10);
                loop {
                    let mut slept = Duration::ZERO;
                    while slept < prober_shared.config.probe_interval {
                        if prober_shared.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    prober_shared.pool.probe_all(
                        prober_shared.config.probe_timeout,
                        prober_shared.config.eject_after_probe_failures,
                    );
                    // Every probe round doubles as a brownout-control tick: the
                    // freshly probed queue depths are exactly its pressure signal.
                    prober_shared.brownout.observe(
                        prober_shared.pool.mean_pressure(),
                        prober_shared.metrics.miss_latency.quantile_us(0.95),
                    );
                }
            })
            .expect("spawn gateway prober");

        // The infer dispatch pool: the blocking cache → route → retry pipeline
        // runs here, handed work by the (non-blocking) connection front. At
        // least 2 threads, so one stalled backend call can never serialize the
        // whole gateway. The threads share the event loop's `gateway-conn`
        // prefix, so a failpoint spec scoped `@gateway-conn` covers the whole
        // request path.
        let work_rx = Arc::new(Mutex::new(work_rx));
        let dispatchers = (0..shell.service().config.dispatch_threads.max(2))
            .map(|i| {
                let work_rx = Arc::clone(&work_rx);
                let shell = Arc::clone(&shell);
                std::thread::Builder::new()
                    .name(format!("gateway-conn-{i}"))
                    .spawn(move || loop {
                        // Take one work item, then release the lock before the
                        // (potentially long) pipeline run.
                        let work = work_rx
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .recv();
                        match work {
                            Ok(work) => {
                                shell
                                    .service()
                                    .dispatch_depth
                                    .fetch_sub(1, Ordering::Relaxed);
                                shell.infer(
                                    &work.body,
                                    work.content_type.as_deref(),
                                    work.completion,
                                );
                            }
                            // Channel closed: the front is gone, drain is done.
                            Err(_) => return,
                        }
                    })
                    .expect("spawn gateway dispatcher")
            })
            .collect();

        Ok(Gateway {
            local_addr,
            shell,
            front,
            prober_handle,
            dispatchers,
        })
    }

    /// The bound address (resolves the actual port when `addr` asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of currently admitted backends (probe-refreshed).
    pub fn healthy_backends(&self) -> usize {
        self.shell.service().pool.healthy_count()
    }

    /// A point-in-time snapshot of the gateway's JSON `/metrics` body.
    pub fn metrics_json(&self) -> JsonValue {
        self.shell.metrics().into_json()
    }

    /// The gateway's request tracer (ring buffer behind `GET /debug/traces`).
    pub fn tracer(&self) -> Arc<trace::Tracer> {
        Arc::clone(self.shell.tracer())
    }

    /// Graceful shutdown: stop accepting and parsing, flush every in-flight
    /// response, then join the dispatch pool and the prober. Engines are not
    /// touched.
    pub fn shutdown(mut self) {
        self.shell.service().shutdown.store(true, Ordering::SeqCst);
        self.front.stop();
        // The front drains: every dispatched request is still answered (the
        // dispatch pool keeps running until the front — and with it the work
        // channel's sender — is gone).
        self.front.join();
        for handle in self.dispatchers {
            let _ = handle.join();
        }
        let _ = self.prober_handle.join();
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pool = &self.shell.service().pool;
        f.debug_struct("Gateway")
            .field("local_addr", &self.local_addr)
            .field(
                "backends",
                &pool.backends().iter().map(|b| b.addr()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Service for Shared {
    type Error = GatewayError;
    const PREFIX: &'static str = "vitality_gateway";

    fn health(&self) -> JsonValue {
        let healthy = self.pool.healthy_count();
        let total = self.pool.backends().len();
        // No admitted backend is unavailable even when none is configured: every
        // infer would answer 503 `no_backend`.
        let status = if healthy == 0 {
            "unavailable"
        } else if healthy == total {
            "ok"
        } else {
            "degraded"
        };
        let mut brownout = JsonValue::object();
        brownout
            .set("engaged", self.brownout.engaged())
            .set("pressure", self.brownout.last_pressure())
            .set("enter_pressure", self.config.brownout.enter_pressure)
            .set("exit_pressure", self.config.brownout.exit_pressure)
            .set("entries", self.brownout.entries());
        let mut cache = JsonValue::object();
        cache
            .set("entries", self.cache.len())
            .set("capacity", self.config.cache.capacity);
        let mut body = JsonValue::object();
        body.set("status", status)
            .set("backends", total)
            .set("healthy", healthy)
            .set("ejected", total - healthy)
            .set("ejections_total", self.pool.ejection_total())
            .set(
                "in_flight_requests",
                self.in_flight_requests.load(Ordering::Relaxed),
            )
            .set("brownout", brownout)
            .set("cache", cache)
            .set("models", self.pool.model_union())
            // The dispatch hand-off queue beside the shell's loop health: whether
            // the loop thread or the dispatch pool is the next bottleneck.
            .set(
                "dispatch_queue_depth",
                self.dispatch_depth.load(Ordering::Relaxed),
            );
        body
    }

    fn register(&self, reg: &mut MetricsRegistry) {
        self.metrics.register(reg);
        self.cache.register(reg);
        self.pool.register(reg);
        reg.gauge(
            "dispatch_queue_depth",
            "vitality_gateway_dispatch_queue_depth",
            "Infer work queued between the event loop and the dispatch pool",
            self.dispatch_depth.load(Ordering::Relaxed),
        );
    }

    /// Every error counts: the gateway has no shed/drain distinction to keep apart.
    fn count_failure(&self, _error: &GatewayError) {
        self.metrics.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs on a dispatch-pool thread. The body is decoded *before* admission
    /// control on purpose: an admission-shed 503 must still echo the client's
    /// `request_id`, and the decode cost is bounded by `max_body_bytes` either way.
    fn infer(&self, envelope: InferEnvelope, reply: Reply<Self>) {
        match infer_core(
            envelope,
            self,
            reply.received,
            &reply.request_id,
            &reply.trace,
        ) {
            Ok(body) => reply.ok(body, |shared, write_us| {
                shared.metrics.write.record_us(write_us)
            }),
            Err(err) => reply.err(err),
        }
    }
}

/// One request's deadline at the gateway: the budget the client sent (re-derived
/// for the wire as *remaining* budget per backend attempt) and its absolute expiry,
/// anchored when the request was parsed.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    budget_ms: u64,
    expires: Instant,
}

impl Deadline {
    /// Milliseconds still available at `now` (None once expired).
    fn remaining_ms(&self, now: Instant) -> Option<u64> {
        let left = self.expires.saturating_duration_since(now);
        if left.is_zero() {
            None
        } else {
            Some(left.as_millis().max(1) as u64)
        }
    }

    fn error(&self) -> GatewayError {
        GatewayError::DeadlineExceeded {
            budget_ms: self.budget_ms,
        }
    }
}

/// The admit → resolve tier routing (brownout may downgrade it) → cache lookup →
/// deadline-budgeted retry loop core. Returns the response body to send with
/// status 200 (before the `request_id` / `trace` fields are stamped on).
fn infer_core(
    envelope: InferEnvelope,
    shared: &Shared,
    started: Instant,
    request_id: &str,
    handle: &trace::TraceHandle,
) -> Result<JsonValue, GatewayError> {
    let InferEnvelope {
        model: model_key,
        image,
        tier,
        deadline_ms,
        ..
    } = envelope;
    let tier = tier.as_deref().map(Tier::parse).transpose()?;
    let deadline = deadline_ms.map(|budget_ms| Deadline {
        budget_ms,
        expires: started + Duration::from_millis(budget_ms),
    });
    let parse_done = Instant::now();
    if let Some(t) = handle {
        t.record("parse", String::new(), started, parse_done);
    }
    let _admitted = AdmissionGuard::admit(shared)?;
    if let Some(t) = handle {
        t.record("admission", String::new(), parse_done, Instant::now());
    }
    shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
    // A zero (or already-elapsed) budget is shed before routing: the typed 504
    // costs no inference anywhere.
    if let Some(d) = deadline {
        if d.remaining_ms(Instant::now()).is_none() {
            shared
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            return Err(d.error());
        }
    }

    // Brownout: under pressure, accuracy-tier requests ride the latency tier
    // (ViTALiTy's cheap linear path) instead of queueing or being shed. Only
    // tier-routed requests are eligible — an explicit model key is a contract —
    // and only when the cluster actually serves the downgraded key.
    let rewrite_start = Instant::now();
    let mut resolved = shared.config.routing.resolve(&model_key, tier);
    let mut degraded = false;
    if tier == Some(Tier::Accuracy) && shared.brownout.engaged() {
        let downgraded = shared
            .config
            .routing
            .resolve(&model_key, Some(Tier::Latency));
        if downgraded != resolved && shared.pool.serves(&downgraded) {
            resolved = downgraded;
            degraded = true;
            shared.metrics.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }
    if degraded {
        if let Some(t) = handle {
            t.record(
                "brownout_rewrite",
                format!("-> {resolved}"),
                rewrite_start,
                Instant::now(),
            );
        }
    }

    // Tier-routed keys must resolve to something the cluster actually serves —
    // answering 404 *here* (rather than per-backend) makes a routing-policy typo a
    // deterministic client-visible error instead of a retry storm. But 404 only
    // when the key is genuinely unknown to a partly-healthy cluster: a key some
    // (currently ejected) backend is known to serve, or any key during a total
    // outage, is a *transient* condition and stays a retryable 503.
    if !shared.pool.serves(&resolved) {
        if shared.pool.healthy_count() == 0 || shared.pool.known(&resolved) {
            return Err(GatewayError::NoBackend {
                healthy: shared.pool.healthy_count(),
                total: shared.pool.backends().len(),
                last_error: format!("no admitted backend serves {resolved}"),
            });
        }
        return Err(GatewayError::ModelNotFound(resolved));
    }

    let probe_start = Instant::now();
    let hash = image_hash(&image);
    let cached = shared.cache.get(&resolved, hash);
    if let Some(t) = handle {
        t.record(
            "cache_probe",
            if cached.is_some() { "hit" } else { "miss" }.to_string(),
            probe_start,
            Instant::now(),
        );
    }
    if let Some(reply) = cached {
        shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
        shared.metrics.record_routed(&resolved);
        shared
            .metrics
            .hit_latency
            .record_us(started.elapsed().as_micros() as u64);
        let mut body = protocol::infer_reply_json(&reply);
        body.set("cached", true);
        if degraded {
            body.set("degraded", true);
        }
        return Ok(body);
    }

    let reply = call_with_retries(shared, &resolved, &image, deadline, request_id, handle)?;
    shared.cache.put(&resolved, hash, reply.clone());
    shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
    shared.metrics.record_routed(&resolved);
    shared
        .metrics
        .miss_latency
        .record_us(started.elapsed().as_micros() as u64);
    let mut body = protocol::infer_reply_json(&reply);
    body.set("cached", false);
    if degraded {
        body.set("degraded", true);
    }
    Ok(body)
}

/// The retry loop. Without a deadline it is attempt-bounded: `retry_budget` tries
/// across distinct backends. With a deadline the *remaining budget* is the loop
/// bound instead — the gateway keeps failing over (re-admitting previously excluded
/// backends) for as long as the client is still willing to wait, and answers a
/// typed 504 the moment it is not; each attempt forwards the remaining budget on
/// the wire so engines shed what expires in their queues.
///
/// Per-attempt outcome handling: transport failures eject and fail over; a
/// [`ClientError::TimedOut`] read timeout cools the backend down instead — slow is
/// not dead, and ejecting it would let one long batch take a healthy engine out of
/// rotation; 503s cool the backend for its `Retry-After` (capped); deterministic
/// 4xx answers are forwarded without retrying.
fn call_with_retries(
    shared: &Shared,
    resolved: &str,
    image: &Matrix,
    deadline: Option<Deadline>,
    request_id: &str,
    handle: &trace::TraceHandle,
) -> Result<InferReply, GatewayError> {
    let budget = shared.config.retry_budget.max(1);
    let mut excluded: Vec<usize> = Vec::new();
    let mut last_error = String::from("no attempt made");
    let mut attempts = 0usize;
    loop {
        // Loop bound: remaining deadline when the client set one, the fixed
        // attempt budget otherwise.
        let remaining_ms = match deadline {
            Some(d) => match d.remaining_ms(Instant::now()) {
                Some(ms) => Some(ms),
                None => {
                    shared
                        .metrics
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(d.error());
                }
            },
            None => {
                if attempts >= budget {
                    break;
                }
                None
            }
        };
        let pick_start = Instant::now();
        match shared.pool.pick(resolved, &excluded) {
            Pick::Chosen(index, backend) => {
                if let Some(t) = handle {
                    t.record(
                        "pick",
                        backend.addr().to_string(),
                        pick_start,
                        Instant::now(),
                    );
                }
                if attempts > 0 {
                    shared.metrics.retries.fetch_add(1, Ordering::Relaxed);
                }
                attempts += 1;
                let attempt_start = Instant::now();
                let guard = InFlightGuard::new(Arc::clone(&backend));
                let result = backend.call(
                    resolved,
                    image,
                    shared.config.backend_timeout,
                    remaining_ms,
                    Some(request_id),
                    handle.is_some(),
                );
                drop(guard);
                let attempt_end = Instant::now();
                shared.metrics.backend_attempt.record_us(
                    attempt_end
                        .saturating_duration_since(attempt_start)
                        .as_micros() as u64,
                );
                if let Some(t) = handle {
                    let outcome = match &result {
                        Ok(_) => "ok".to_string(),
                        Err(err) => format!("error: {err}"),
                    };
                    let span = t.record(
                        "backend_attempt",
                        format!("{} {outcome}", backend.addr()),
                        attempt_start,
                        attempt_end,
                    );
                    if let Ok((_, Some(engine_spans))) = &result {
                        // Rebase the engine's spans (offsets from *its* handler
                        // entry) under this attempt span so the tree reads
                        // gateway → attempt → engine stages on one clock.
                        t.graft(span, attempt_start, engine_spans);
                    }
                    if result.is_err() {
                        // A failed attempt makes the whole request tail-sample
                        // worthy even if a later failover answers 200.
                        t.flag();
                    }
                }
                match result {
                    Ok((reply, _engine_spans)) => return Ok(reply),
                    Err(ClientError::Server {
                        status,
                        code,
                        message,
                        retry_after,
                        request_id: _,
                    }) => {
                        if code == "deadline_exceeded" {
                            // The engine's batcher shed it: the budget is gone (or
                            // will be within the forwarding slack). Answer the
                            // typed 504 now rather than burning another backend.
                            shared
                                .metrics
                                .deadline_expired
                                .fetch_add(1, Ordering::Relaxed);
                            return Err(GatewayError::DeadlineExceeded {
                                budget_ms: deadline.map_or(0, |d| d.budget_ms),
                            });
                        }
                        if status == 503 {
                            // Backpressure: honour the engine's Retry-After (capped)
                            // as a cooldown on that backend and resubmit elsewhere.
                            backend.set_cooldown(
                                Duration::from_secs(retry_after.unwrap_or(1))
                                    .min(shared.config.max_backoff),
                            );
                            last_error = format!("{code}: {message}");
                            excluded.push(index);
                        } else if status >= 500 {
                            // An engine-internal failure may be request-independent
                            // (worker crash): try a different backend.
                            last_error = format!("{code}: {message}");
                            excluded.push(index);
                        } else {
                            // 4xx is deterministic — retrying elsewhere cannot
                            // change the answer. Forward it.
                            return Err(GatewayError::Upstream {
                                status,
                                code,
                                message,
                            });
                        }
                    }
                    Err(ClientError::TimedOut { limit }) => {
                        // The socket read timed out at a limit *we* configured: the
                        // backend is slow, not provably dead. Cool it down and try
                        // elsewhere; the prober decides if it is actually gone.
                        backend.set_cooldown(shared.config.max_backoff.min(Duration::from_secs(1)));
                        last_error = format!("read timed out after {limit:?}");
                        excluded.push(index);
                    }
                    Err(err) => {
                        // Transport-level failure: the engine is gone or wedged.
                        // Eject it (the prober re-admits on recovery) and fail over.
                        backend.eject();
                        shared.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                        last_error = err.to_string();
                        excluded.push(index);
                    }
                }
            }
            Pick::Cooling(until) => {
                // Every remaining backend is backing off; wait out the shortest
                // cooldown (bounded, and never past the deadline) and allow
                // previously excluded backends again — after a sleep the cluster
                // may look entirely different.
                let mut wait = until
                    .saturating_duration_since(Instant::now())
                    .min(shared.config.max_backoff);
                if let Some(ms) = remaining_ms {
                    wait = wait.min(Duration::from_millis(ms));
                }
                std::thread::sleep(wait);
                excluded.clear();
            }
            Pick::None => {
                // With a deadline, excluded backends get another look while budget
                // remains (a cooled-down backend may have recovered mid-request);
                // without one, give up under the fixed attempt policy.
                if deadline.is_some() && !excluded.is_empty() && attempts < budget * 4 {
                    excluded.clear();
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                break;
            }
        }
    }
    Err(GatewayError::NoBackend {
        healthy: shared.pool.healthy_count(),
        total: shared.pool.backends().len(),
        last_error,
    })
}
