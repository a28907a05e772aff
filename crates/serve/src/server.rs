//! The serving engine: the epoll connection front, the dynamic batcher and the
//! worker pool, assembled behind [`Server::start`] / [`Server::shutdown`].

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::json::JsonValue;

use crate::batcher::{BatchPolicy, Batcher, PendingRequest, RequestDeadline, Responder};
use crate::error::ServeError;
use crate::event_loop::EventFront;
use crate::exposition::MetricsRegistry;
use crate::metrics::{Metrics, VariantStats};
use crate::protocol::{self, InferEnvelope};
use crate::registry::ModelRegistry;
use crate::shell::{Reply, Service, Shell};
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
            trace: trace::TraceConfig::default(),
        }
    }
}

/// The engine's [`Service`]: the registry it serves, the batcher it admits into
/// and the metrics its workers count into.
struct Engine {
    registry: ModelRegistry,
    batcher: Arc<Batcher>,
    metrics: Arc<Metrics>,
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
    shell: Arc<Shell<Engine>>,
    front: EventFront,
    workers: WorkerPool,
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
        let engine = Engine {
            batcher: Arc::new(Batcher::new(config.policy, Arc::clone(&metrics))),
            registry,
            metrics,
        };
        // Thread names carry the bound port so failpoint thread-scoping (and thread
        // dumps) can tell the engines of an in-process cluster apart: a chaos spec
        // scoped `@serve-conn-<port>` hits one engine's connection I/O, one scoped
        // `@serve-worker-<port>` its inference. The front starts first, so a host
        // without epoll fails here before any worker is spawned. Requests decode on
        // the loop thread; admission never blocks.
        let (shell, front) = Shell::start(
            listener,
            format!("serve-conn-{}", local_addr.port()),
            config.poll_interval,
            config.max_body_bytes,
            &config.trace,
            engine,
            |shell, request, completion| {
                shell.infer(request.body, request.header("content-type"), completion)
            },
        )?;
        let engine = shell.service();
        let workers = WorkerPool::start_named(
            worker_count,
            Arc::clone(&engine.batcher),
            Arc::clone(&engine.metrics),
            &format!("serve-worker-{}", local_addr.port()),
        );

        Ok(Server {
            local_addr,
            shell,
            front,
            workers,
        })
    }

    /// The bound address (resolves the actual port when `addr` asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's metrics block (shared with workers and handlers).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shell.service().metrics)
    }

    /// The server's request tracer (ring buffer behind `GET /debug/traces`).
    pub fn tracer(&self) -> Arc<trace::Tracer> {
        Arc::clone(self.shell.tracer())
    }

    /// Graceful shutdown: stop accepting and parsing, drain the admitted queue
    /// through the workers, flush every pending response, then join every thread.
    pub fn shutdown(mut self) {
        self.front.stop();
        // Drain the batcher: admitted requests are still answered, new submissions
        // are refused with ShuttingDown (their typed 503s flow out as completions).
        self.shell.service().batcher.shutdown();
        self.workers.join();
        // With the workers gone every completion is in: the front drains its
        // remaining writes and exits.
        self.front.join();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("models", &self.shell.service().registry.keys())
            .finish()
    }
}

impl Service for Engine {
    type Error = ServeError;
    const PREFIX: &'static str = "vitality_serve";

    fn health(&self) -> JsonValue {
        let mut body = JsonValue::object();
        body.set("status", "ok")
            .set("models", self.registry.keys())
            .set("queue_depth", self.batcher.depth())
            // The second half of the least-loaded signal: queued requests plus the
            // batches workers are running right now.
            .set(
                "in_flight_batches",
                self.metrics.in_flight_batches.load(Ordering::Relaxed),
            );
        body
    }

    fn register(&self, reg: &mut MetricsRegistry) {
        self.metrics.register(reg);
    }

    /// `failed` counts non-shed errors only: shed requests are already tallied in
    /// `shed` by the batcher, expired ones in `expired`, and a shutdown refusal is
    /// part of a drain, not a failure — double-counting any of them would make
    /// ordinary backpressure look like an incident on a dashboard.
    fn count_failure(&self, error: &ServeError) {
        if !matches!(
            error,
            ServeError::Overloaded { .. }
                | ServeError::ShuttingDown
                | ServeError::DeadlineExceeded { .. }
        ) {
            self.metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn infer(&self, envelope: InferEnvelope, reply: Reply<Self>) {
        let InferEnvelope {
            model,
            image,
            deadline_ms,
            // A routing hint for the gateway; an engine serves exact keys.
            tier: _,
            ..
        } = envelope;
        match self.admit(&model, image, deadline_ms, reply.received, &reply.trace) {
            Ok(admitted) => self.submit(admitted, reply),
            Err(err) => reply.err(err),
        }
    }
}

/// An infer request that passed validation and is ready for the batcher.
struct AdmittedInfer {
    entry: Arc<crate::registry::ModelEntry>,
    image: Matrix,
    deadline: Option<RequestDeadline>,
    variant_stats: Arc<VariantStats>,
}

impl Engine {
    /// The validation → admission half of one infer request: resolve the model,
    /// check the image shape, shed already-expired deadlines. Everything after
    /// admission is answered through the request's responder.
    fn admit(
        &self,
        model_key: &str,
        image: Matrix,
        deadline_ms: Option<u64>,
        received: Instant,
        handle: &trace::TraceHandle,
    ) -> Result<AdmittedInfer, ServeError> {
        let deadline = deadline_ms.map(RequestDeadline::from_budget_ms);
        let entry = self.registry.get(model_key)?;
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
        // A zero (or sub-millisecond) budget is already expired: shed before
        // admission, spending neither queue space nor inference on it.
        if let Some(deadline) = deadline {
            if deadline.expired_at(Instant::now()) {
                self.metrics.expired.fetch_add(1, Ordering::Relaxed);
                return Err(deadline.error());
            }
        }
        let variant_stats = self.metrics.variant(entry.variant_label());
        Ok(AdmittedInfer {
            entry,
            image,
            deadline,
            variant_stats,
        })
    }

    /// Hands an admitted request to the batcher with a responder hook that answers
    /// from whichever thread finishes it (a worker on success, the batcher on shed,
    /// the submitting thread on refusal — and the responder's drop guard with a
    /// typed 500 if a worker dies with the request in hand, which is why the front
    /// needs no reply timeout).
    fn submit(&self, admitted: AdmittedInfer, reply: Reply<Self>) {
        let AdmittedInfer {
            entry,
            image,
            deadline,
            variant_stats,
        } = admitted;
        let trace = reply.trace.clone();
        let responder = Responder::hook(move |result| match result {
            Ok(answer) => reply.ok(protocol::infer_reply_json(&answer), move |_, write_us| {
                variant_stats.write.record_us(write_us)
            }),
            Err(err) => reply.err(err),
        });
        // Refusals (queue full, shutting down) flow back through the responder as
        // typed errors; the returned Err is the same information, already handled.
        let _ = self.batcher.submit(PendingRequest {
            entry,
            image,
            submitted: Instant::now(),
            deadline,
            responder,
            trace,
        });
    }
}
