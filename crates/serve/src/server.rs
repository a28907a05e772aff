//! The serving engine: the epoll connection front, the dynamic batcher and the
//! worker pool, assembled behind [`Server::start`] / [`Server::shutdown`].

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::json::JsonValue;

use crate::batcher::{BatchPolicy, Batcher, PendingRequest, RequestDeadline, Responder};
use crate::error::ServeError;
use crate::event_loop::{Completion, EventFront, FrontConfig, FrontRequest, LoopStats};
use crate::http::{
    query_limit, wants_prometheus, RouteResponse, WriteReport, PROMETHEUS_CONTENT_TYPE,
};
use crate::metrics::{Metrics, VariantStats};
use crate::protocol::{self, InferEnvelope};
use crate::registry::ModelRegistry;
use crate::worker::WorkerPool;
use vitality_tensor::Matrix;

/// Server tunables; `Default` is a sane local configuration on an ephemeral port.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads running inference (0 = one per available core).
    pub workers: usize,
    /// The batching/backpressure policy: the largest batch a free worker takes and
    /// the admission-queue bound. There is no delay to tune — see
    /// [`crate::batcher`] for why.
    pub policy: BatchPolicy,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// The event loop's poll timeout (doubles as the shutdown poll interval).
    pub poll_interval: Duration,
    /// Per-connection cap on dispatched-but-unanswered pipelined requests; reading
    /// pauses at the cap so a fast pipeliner is backpressured through the kernel
    /// socket buffer instead of growing server-side queues without bound.
    pub max_pipeline: usize,
    /// Request-tracing policy (sampling rate + `/debug/traces` ring size). The
    /// default reads `VITALITY_TRACE_SAMPLE` and keeps tracing off otherwise.
    pub trace: trace::TraceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            policy: BatchPolicy::default(),
            max_body_bytes: 16 * 1024 * 1024,
            poll_interval: Duration::from_millis(50),
            max_pipeline: 64,
            trace: trace::TraceConfig::default(),
        }
    }
}

struct Shared {
    registry: ModelRegistry,
    batcher: Arc<Batcher>,
    metrics: Arc<Metrics>,
    tracer: Arc<trace::Tracer>,
    shutdown: AtomicBool,
    /// The connection front's loop-health counters, which the front counts into.
    loop_stats: Arc<LoopStats>,
}

/// A running serving engine.
///
/// ```text
/// event-loop front ──► dispatch ──► Batcher (bounded queue, no timer)
///   (epoll, one thread,    │              │ a free worker takes what is queued
///    all connections)      │ GETs answer  ▼
///         ▲                │ inline    WorkerPool ──► VisionTransformer::infer_batch_into
///         └── completions ◄┴─────────────┘ (per-request Responder hooks)
/// ```
///
/// A request waits in the batcher only while every worker is busy: the first worker
/// to free up takes the oldest request's model, up to `max_batch` — which is where
/// batches larger than one come from — and an idle engine starts a lone request the
/// moment it is admitted.
///
/// Start with [`Server::start`]; stop with [`Server::shutdown`], which drains in
/// order: the front stops parsing new requests, the batcher drains (already-admitted
/// requests are still answered), workers exit, then the front flushes every pending
/// response and joins.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    front: Option<EventFront>,
    workers: Option<WorkerPool>,
}

impl Server {
    /// Binds the listener, starts the connection front and the worker pool, and
    /// returns the running server.
    ///
    /// # Errors
    ///
    /// Returns any bind error, or the connection front's start error (off Linux,
    /// [`io::ErrorKind::Unsupported`]: the front needs epoll). An empty registry is
    /// accepted (every inference request then answers 404), since a metrics/health
    /// endpoint without models is still a valid (if useless) deployment.
    pub fn start(config: ServerConfig, registry: ModelRegistry) -> io::Result<Server> {
        config.policy.validate();
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let tracer = Arc::new(trace::Tracer::new(&config.trace));
        let shared = Arc::new(Shared {
            batcher: Arc::new(Batcher::new(config.policy, Arc::clone(&metrics))),
            registry,
            metrics,
            tracer,
            shutdown: AtomicBool::new(false),
            loop_stats: Arc::new(LoopStats::default()),
        });
        // Thread names carry the bound port so failpoint thread-scoping (and thread
        // dumps) can tell the engines of an in-process cluster apart: a chaos spec
        // scoped `@serve-conn-<port>` hits one engine's connection I/O, one scoped
        // `@serve-worker-<port>` its inference. The front starts first, so a host
        // without epoll fails here before any worker is spawned.
        let dispatch_shared = Arc::clone(&shared);
        let front = EventFront::start(
            listener,
            FrontConfig {
                poll_interval: config.poll_interval,
                max_body_bytes: config.max_body_bytes,
                max_pipeline: config.max_pipeline,
                thread_name: format!("serve-conn-{}", local_addr.port()),
            },
            Arc::clone(&shared.loop_stats),
            move |request: &FrontRequest<'_>, completion: Completion| {
                route(request, completion, &dispatch_shared)
            },
        )?;
        let workers = WorkerPool::start_named(
            worker_count,
            Arc::clone(&shared.batcher),
            Arc::clone(&shared.metrics),
            &format!("serve-worker-{}", local_addr.port()),
        );

        Ok(Server {
            local_addr,
            shared,
            front: Some(front),
            workers: Some(workers),
        })
    }

    /// The bound address (resolves the actual port when `addr` asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's metrics block (shared with workers and handlers).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The server's request tracer (ring buffer behind `GET /debug/traces`).
    pub fn tracer(&self) -> Arc<trace::Tracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// Graceful shutdown: stop accepting and parsing, drain the admitted queue
    /// through the workers, flush every pending response, then join every thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(front) = &self.front {
            front.stop();
        }
        // Drain the batcher: admitted requests are still answered, new submissions
        // are refused with ShuttingDown (their typed 503s flow out as completions).
        self.shared.batcher.shutdown();
        if let Some(workers) = self.workers.take() {
            workers.join();
        }
        // With the workers gone every completion is in: the front drains its
        // remaining writes and exits.
        if let Some(mut front) = self.front.take() {
            front.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("models", &self.shared.registry.keys())
            .finish()
    }
}

fn route(request: &FrontRequest<'_>, completion: Completion, shared: &Arc<Shared>) {
    let Ok((method, target)) = request.request_parts() else {
        return completion.complete(error_response(&ServeError::BadRequest(
            "malformed request line".into(),
        )));
    };
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match (method, path) {
        ("GET", "/healthz") => {
            let mut body = JsonValue::object();
            body.set("status", "ok")
                .set("models", shared.registry.keys())
                .set("queue_depth", shared.batcher.depth())
                // The second half of the least-loaded signal: queued requests plus
                // the batches workers are running right now.
                .set(
                    "in_flight_batches",
                    shared.metrics.in_flight_batches.load(Ordering::Relaxed),
                )
                // Request encodings this engine accepts; callers switch to the
                // binary image encoding only after seeing it advertised here.
                .set("encodings", vec!["json".to_string(), "binary".to_string()])
                // Loop-front health: wakeups, queue depth, saturation — whether
                // the single loop thread is becoming the bottleneck.
                .set("event_loop", shared.loop_stats.json());
            completion.complete(RouteResponse::new(200, body));
        }
        ("GET", "/metrics") => {
            if wants_prometheus(query) {
                let mut reg = crate::exposition::MetricsRegistry::new();
                shared.metrics.register_prometheus(&mut reg);
                shared.loop_stats.register(&mut reg, "vitality_serve");
                return completion.complete(RouteResponse::text(
                    200,
                    PROMETHEUS_CONTENT_TYPE,
                    reg.encode(),
                ));
            }
            let mut body = shared.metrics.snapshot_json();
            body.set("event_loop", shared.loop_stats.json());
            completion.complete(RouteResponse::new(200, body));
        }
        ("GET", "/debug/traces") => {
            let body = match query_limit(query) {
                Some(limit) => shared.tracer.recent_json_limited(limit),
                None => shared.tracer.recent_json(),
            };
            completion.complete(RouteResponse::new(200, body));
        }
        ("POST", "/v1/infer") => handle_infer(request, completion, shared),
        ("POST" | "GET", _) => completion.complete(RouteResponse::new(
            404,
            protocol::error_body("not_found", &format!("no route for {method} {path}")),
        )),
        _ => completion.complete(RouteResponse::new(
            405,
            protocol::error_body(
                "method_not_allowed",
                &format!("unsupported method {method}"),
            ),
        )),
    }
}

fn error_response(error: &ServeError) -> RouteResponse {
    RouteResponse::new(error.http_status(), protocol::error_json(error))
        .with_retry_after(error.retry_after_secs())
}

/// The post-write completion hook: records the serialize/write spans on the
/// request's trace, feeds the per-variant write-stage histogram, and hands the
/// finished trace to the tracer's retention policy.
fn finish_hook(
    tracer: Arc<trace::Tracer>,
    handle: trace::TraceHandle,
    status: u16,
    write_stats: Option<Arc<VariantStats>>,
) -> impl FnOnce(WriteReport) + Send + 'static {
    move |report: WriteReport| {
        if let Some(t) = &handle {
            t.record(
                "serialize",
                String::new(),
                report.serialize_start,
                report.write_start,
            );
            t.record("write", String::new(), report.write_start, report.done);
        }
        if let Some(stats) = &write_stats {
            stats
                .write
                .record_us(report.serialize_us() + report.write_us());
        }
        tracer.finish(handle, status);
    }
}

/// Builds the error response for an infer request, echoing `request_id` on the
/// typed error body and closing the request's trace (when one is recording).
fn infer_error(
    shared: &Arc<Shared>,
    error: &ServeError,
    request_id: &str,
    handle: trace::TraceHandle,
) -> RouteResponse {
    // `failed` counts non-shed errors only: shed requests are already tallied in
    // `shed` by the batcher, expired ones in `expired`, and a shutdown refusal is
    // part of a drain, not a failure — double-counting any of them would make
    // ordinary backpressure look like an incident on a dashboard.
    if !matches!(
        error,
        ServeError::Overloaded { .. }
            | ServeError::ShuttingDown
            | ServeError::DeadlineExceeded { .. }
    ) {
        shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
    }
    let mut response = error_response(error);
    response.body.set("request_id", request_id);
    if handle.is_some() {
        let status = response.status;
        response = response.with_on_written(finish_hook(
            Arc::clone(&shared.tracer),
            handle,
            status,
            None,
        ));
    }
    response
}

fn handle_infer(request: &FrontRequest<'_>, completion: Completion, shared: &Arc<Shared>) {
    // The origin for every span offset: decoding the body (UTF-8 check, JSON or
    // binary decode, field validation) is attributed to the `parse` span
    // retroactively.
    let received = Instant::now();
    let envelope = match InferEnvelope::decode(request.body, request.header("content-type")) {
        Ok(envelope) => envelope,
        // Echo the client's id whenever it parsed; otherwise generate one so even
        // this failure is quotable from the error body.
        Err(failed) => {
            let request_id = failed.request_id.unwrap_or_else(trace::new_request_id);
            return completion.complete(infer_error(shared, &failed.error, &request_id, None));
        }
    };
    let InferEnvelope {
        request_id,
        trace: want_trace,
        model,
        image,
        deadline_ms,
        // A routing hint for the gateway; an engine serves exact keys.
        tier: _,
    } = envelope;
    let request_id = request_id.unwrap_or_else(trace::new_request_id);
    let _log_scope = trace::request_scope(&request_id);
    // `"trace": true` forces span recording even when sampling is off — that is how
    // a gateway collects engine spans; retention in this engine's own ring is still
    // the tracer's sampling decision.
    let handle = shared.tracer.begin(&request_id, received, want_trace);
    match admit_infer(&model, image, deadline_ms, shared, received, &handle) {
        Ok(admitted) => submit_infer(admitted, shared, completion, request_id, want_trace, handle),
        Err(err) => completion.complete(infer_error(shared, &err, &request_id, handle)),
    }
}

/// An infer request that passed validation and is ready for the batcher.
struct AdmittedInfer {
    entry: Arc<crate::registry::ModelEntry>,
    image: Matrix,
    deadline: Option<RequestDeadline>,
    variant_stats: Arc<VariantStats>,
}

/// The validation → admission half of one infer request: resolve the model, check
/// the image shape, shed already-expired deadlines. Everything after admission is
/// answered through the request's responder.
fn admit_infer(
    model_key: &str,
    image: Matrix,
    deadline_ms: Option<u64>,
    shared: &Arc<Shared>,
    received: Instant,
    handle: &trace::TraceHandle,
) -> Result<AdmittedInfer, ServeError> {
    let deadline = deadline_ms.map(RequestDeadline::from_budget_ms);
    let entry = shared.registry.get(model_key)?;
    let expected = entry.config().image_size;
    if image.shape() != (expected, expected) {
        return Err(ServeError::BadRequest(format!(
            "model {model_key} expects a {expected}x{expected} image, got {}x{}",
            image.rows(),
            image.cols()
        )));
    }
    if let Some(t) = handle {
        t.record("parse", String::new(), received, Instant::now());
    }
    // A zero (or sub-millisecond) budget is already expired: shed before admission,
    // spending neither queue space nor inference on it.
    if let Some(deadline) = deadline {
        if deadline.expired_at(Instant::now()) {
            shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
            return Err(deadline.error());
        }
    }
    let variant_stats = shared.metrics.variant(entry.variant_label());
    Ok(AdmittedInfer {
        entry,
        image,
        deadline,
        variant_stats,
    })
}

/// Hands an admitted request to the batcher with a responder hook that builds and
/// delivers the final response from whichever thread answers (a worker on success,
/// the batcher on shed, the submitting thread on refusal — and the responder's
/// drop guard with a typed 500 if a worker dies with the request in hand, which is
/// why the front needs no reply timeout).
fn submit_infer(
    admitted: AdmittedInfer,
    shared: &Arc<Shared>,
    completion: Completion,
    request_id: String,
    want_trace: bool,
    handle: trace::TraceHandle,
) {
    let AdmittedInfer {
        entry,
        image,
        deadline,
        variant_stats,
    } = admitted;
    let hook_shared = Arc::clone(shared);
    let hook_handle = handle.clone();
    let responder = Responder::hook(move |result| {
        let response = match result {
            Ok(reply) => {
                let mut body = protocol::infer_reply_json(&reply);
                body.set("request_id", request_id.as_str());
                if want_trace {
                    // Embed what has been recorded so far (parse + worker stages);
                    // the serialize/write spans land after this snapshot and so
                    // stay engine-local, covered upstream by the caller's attempt
                    // span.
                    if let Some(t) = &hook_handle {
                        body.set("trace", trace::spans_json(&t.snapshot()));
                    }
                }
                let finish = finish_hook(
                    Arc::clone(&hook_shared.tracer),
                    hook_handle,
                    200,
                    Some(variant_stats),
                );
                RouteResponse::new(200, body).with_on_written(finish)
            }
            Err(err) => infer_error(&hook_shared, &err, &request_id, hook_handle),
        };
        completion.complete(response);
    });
    // Refusals (queue full, shutting down) flow back through the responder as
    // typed errors; the returned Err is the same information, already handled.
    let _ = shared.batcher.submit(PendingRequest {
        entry,
        image,
        submitted: Instant::now(),
        deadline,
        responder,
        trace: handle,
    });
}
